//! End-to-end checks of the `experiments` binary's argument and
//! environment handling.

use std::process::Command;

#[test]
fn malformed_bne_threads_fails_before_any_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e1")
        .env("BNE_THREADS", "two")
        .env_remove("BNE_BENCH_DIR")
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        out.stdout.is_empty(),
        "printed before failing: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains("BNE_THREADS"), "stderr: {stderr}");
}
