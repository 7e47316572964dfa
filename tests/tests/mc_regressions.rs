//! Counterexample-corpus regression tests.
//!
//! Every JSON file under `tests/corpus/` is a serialized
//! [`CounterexampleTrace`] that the model checker once produced for a
//! deliberately planted protocol bug. Each CI run replays them on the
//! **production** [`bne_core::net::EventNet`] — not on any checker
//! machinery — and asserts the recorded violation still reproduces. A
//! failure here means either the runtime's dispatch semantics drifted
//! (sequence numbers, delivery effects) or a planted bug stopped being a
//! bug; both deserve a human look, not a regenerated fixture.
//!
//! Regenerate intentionally with
//! `cargo run --release -p bne-mc --example gen_corpus`.

use bne_core::mc::{replay_trace, CounterexampleTrace};
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus_traces() -> Vec<(String, CounterexampleTrace)> {
    let mut traces: Vec<(String, CounterexampleTrace)> = fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .map(|entry| entry.expect("readable corpus entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&path).expect("readable corpus file");
            let trace = CounterexampleTrace::from_json(&text)
                .unwrap_or_else(|e| panic!("{name}: malformed corpus JSON: {e}"));
            (name, trace)
        })
        .collect();
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    traces
}

#[test]
fn corpus_is_nonempty_and_within_the_trace_length_bound() {
    let traces = corpus_traces();
    assert!(
        !traces.is_empty(),
        "the regression corpus must contain at least one planted-bug trace"
    );
    for (name, trace) in &traces {
        assert!(
            trace.len() <= 30,
            "{name}: counterexample has {} events, bound is 30",
            trace.len()
        );
        assert!(!trace.property.is_empty(), "{name}: unnamed property");
    }
}

#[test]
fn every_corpus_trace_reproduces_its_violation_on_the_production_net() {
    for (name, trace) in corpus_traces() {
        let report = replay_trace(&trace)
            .unwrap_or_else(|e| panic!("{name}: replay refused to execute: {e}"));
        let violation = report
            .violation
            .unwrap_or_else(|| panic!("{name}: planted bug no longer reproduces"));
        assert_eq!(
            violation.property, trace.property,
            "{name}: replay violated a different property than recorded"
        );
    }
}

#[test]
fn corpus_traces_survive_a_serialization_round_trip() {
    for (name, trace) in corpus_traces() {
        let back = CounterexampleTrace::from_json(&trace.to_json())
            .unwrap_or_else(|e| panic!("{name}: round-trip parse failed: {e}"));
        assert_eq!(back, trace, "{name}: JSON round-trip changed the trace");
        let report = replay_trace(&back).unwrap();
        assert!(
            report.violation.is_some(),
            "{name}: round-tripped trace no longer reproduces"
        );
    }
}

#[test]
fn the_bracha_corpus_file_is_exactly_what_the_writer_prints() {
    // `gen_corpus` prints `to_json()` plus a newline; pinning the bytes
    // keeps the shared JSON writer from drifting under the corpus.
    let text = fs::read_to_string(corpus_dir().join("bracha_amp_quorum.json"))
        .expect("readable corpus file");
    let trace = CounterexampleTrace::from_json(&text).expect("well-formed corpus JSON");
    assert_eq!(format!("{}\n", trace.to_json()), text);
}
