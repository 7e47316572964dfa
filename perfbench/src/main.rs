//! The repository benchmark: one workload per process, timed end to end
//! with tracing off, or layer by layer with tracing on.
//!
//! ```text
//! perfbench --workload <checker|sweep|audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up several times (set-up includes the
//! correctness gates), then repeats closed batches of the workload until
//! `--seconds` have passed. Every batch is checked; its outputs must also
//! be identical to the first batch's, since a batch is a pure function of
//! the seed. The last line of standard output is the JSON result. With
//! `--trace 1` the first half of the time runs untraced and the second
//! half through the timing shells of [`prof`]; the traced outputs must be
//! bit-identical to the untraced ones, and the difference in batch wall
//! time is reported as the tracing overhead. See `README.md` for the
//! workloads and metrics.

mod audit;
mod checker;
mod prof;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Worker threads of the parallel phases, whatever the machine offers:
/// the figures stay comparable across hosts with at least two cores.
const MAX_WORKERS: usize = 2;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// reports the layers it exercises; the others read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("mc.run_frac", "frac"),
    ("mc.self_frac", "frac"),
    ("mc.cex_frac", "frac"),
    ("mc.replay_frac", "frac"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.terminals", "count"),
    ("mc.max_depth", "count"),
    ("mc.forks_per_transition", "ratio"),
    ("mc.state_words_per_state", "ratio"),
    ("proto.on_message.calls", "count"),
    ("proto.on_message.frac", "frac"),
    ("proto.on_timer.calls", "count"),
    ("proto.on_timer.frac", "frac"),
    ("proto.fork.calls", "count"),
    ("proto.fork.frac", "frac"),
    ("proto.state_words.calls", "count"),
    ("proto.state_words.frac", "frac"),
    ("proto.por_query.calls", "count"),
    ("proto.por_query.frac", "frac"),
    ("net.events", "count"),
    ("net.messages", "count"),
    ("net.timers", "count"),
    ("net.retransmissions", "count"),
    ("net.truncated", "count"),
    ("net.events_per_replica_s", "1/s"),
    ("sim.replica.calls", "count"),
    ("sim.replica.frac", "frac"),
    ("sim.replica.per_s", "1/s"),
    ("sim.replica.p99_over_p50", "ratio"),
    ("sim.merge.calls", "count"),
    ("sim.merge.frac", "frac"),
    ("sim.busy_frac", "frac"),
    ("scrip.economy_runs", "count"),
    ("scrip.rounds", "count"),
    ("scrip.rounds_per_s", "1/s"),
    ("scrip.resident_mb", "MB"),
    ("sampled.audit_frac", "frac"),
    ("sampled.self_frac", "frac"),
    ("sampled.queries", "count"),
    ("sampled.samples", "count"),
    ("sampled.accepted", "count"),
    ("trace.overhead_frac", "frac"),
];

/// What one closed batch of a workload did.
pub struct Batch {
    /// Wall time of the whole batch, in seconds.
    pub wall: f64,
    /// Checked operations (model checks, replays, grid cells).
    pub ops: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The workload's headline and secondary work rates, per second.
    pub rates: [f64; 2],
    /// Every deterministic output of the batch, printed exactly (`{:?}`
    /// of an `f64` round-trips), for the determinism and invisibility
    /// gates.
    pub digest: String,
    /// Per-layer metrics; filled only by traced batches.
    pub layers: Vec<(&'static str, f64)>,
}

/// A benchmark workload: inputs made from the seed, gated and timed.
pub trait Workload: Sized {
    /// Builds the inputs and runs the correctness gates. Returns the
    /// prepared workload, the number of gate checks and the failed ones.
    fn setup(seed: u64, workers: usize) -> (Self, u64, Vec<String>);

    /// Runs one closed batch, through the timing shells when `traced`.
    fn batch(&self, traced: bool) -> Batch;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <checker|sweep|audit> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "checker" => run::<checker::Checker>(&args),
        "sweep" => run::<sweep::Sweep>(&args),
        "audit" => run::<audit::Audit>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn run<W: Workload>(args: &Args) {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_WORKERS);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let setup = W::setup(args.seed, workers);
        setup_times.push(t0.elapsed().as_secs_f64());
        prepared = Some(setup);
    }
    let (workload, gate_ops, mut failures) = prepared.expect("SETUP_REPS > 0");

    let (untraced, traced) = if args.trace {
        let untraced = run_for(&workload, false, args.seconds / 2.0);
        (untraced, run_for(&workload, true, args.seconds / 2.0))
    } else {
        (run_for(&workload, false, args.seconds), Vec::new())
    };

    let mut attempted = gate_ops;
    let reference = &untraced[0].digest;
    for (i, batch) in untraced.iter().chain(&traced).enumerate() {
        attempted += batch.ops;
        failures.extend(batch.failures.iter().cloned());
        if batch.digest != *reference {
            let what = if i < untraced.len() {
                "an untraced batch differs from the first (nondeterminism)"
            } else {
                "a traced batch differs from the untraced one (tracing is visible)"
            };
            failures.push(what.to_string());
        }
    }
    for failure in &failures {
        eprintln!("perfbench: FAILED: {failure}");
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced)
    } else {
        vec![
            ("wall_s", median(untraced.iter().map(|b| b.wall)), "s"),
            ("setup_s", median(setup_times.iter().copied()), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "primary_per_s",
                median(untraced.iter().map(|b| b.rates[0])),
                "1/s",
            ),
            (
                "secondary_per_s",
                median(untraced.iter().map(|b| b.rates[1])),
                "1/s",
            ),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
}

/// Repeats batches until `seconds` have passed (at least one batch).
fn run_for<W: Workload>(workload: &W, traced: bool, seconds: f64) -> Vec<Batch> {
    let t0 = Instant::now();
    let mut batches = Vec::new();
    while batches.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        if traced {
            prof::reset();
        }
        let batch = workload.batch(traced);
        eprintln!(
            "perfbench: {} batch {}: {:.3} s, {:.6e} and {:.6e} per s",
            if traced { "traced" } else { "untraced" },
            batches.len(),
            batch.wall,
            batch.rates[0],
            batch.rates[1]
        );
        batches.push(batch);
    }
    batches
}

/// The per-layer metrics: each the median over the traced batches, plus
/// the tracing overhead on the median batch wall time.
fn per_layer(untraced: &[Batch], traced: &[Batch]) -> Vec<(&'static str, f64, &'static str)> {
    for batch in traced {
        for (name, _) in &batch.layers {
            assert!(
                PER_LAYER.iter().any(|(known, _)| known == name),
                "per-layer metric {name} is not declared"
            );
        }
    }
    let overhead =
        median(traced.iter().map(|b| b.wall)) / median(untraced.iter().map(|b| b.wall)) - 1.0;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_frac" {
                overhead
            } else {
                median(traced.iter().map(|b| {
                    b.layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v)
                }))
            };
            (name, value, unit)
        })
        .collect()
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// JSON has no NaN or infinity; a ratio over an empty layer reads 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// does not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Exact sum of an integer-valued column over every replica folded into
/// `stats` (the mean of integers times the count, rounded back).
pub fn column_total(stats: &bne_sim::StreamingStats) -> f64 {
    (stats.mean() * stats.count() as f64).round()
}
