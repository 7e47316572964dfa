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
//!
//! The file also holds the checker's other regressions: malformed traces
//! must be refused with an error, and the exact work of the search on
//! small models is pinned.

use bne_core::mc::{
    ben_or_net, bracha_net, paxos_net, replay_trace, BenOrParams, BrachaParams,
    CounterexampleTrace, ExploreReport, Explorer, PaxosParams, Verdict,
};
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

// ---------------------------------------------------------------------
// Malformed traces: a trace is a file, so replay returns an error
// ---------------------------------------------------------------------

/// A trace document for `scenario` with the given params and choices.
fn trace_json(scenario: &str, params: &str, choices: &str) -> CounterexampleTrace {
    CounterexampleTrace::from_json(&format!(
        r#"{{"scenario":"{scenario}","params":{{{params}}},"script":[],"choices":[{choices}],"property":"agreement","detail":""}}"#
    ))
    .expect("well-formed trace JSON")
}

#[test]
fn replay_rejects_a_crash_choice_naming_no_process() {
    let trace = trace_json(
        "paxos",
        r#""n":3,"inputs":6,"timeout_ticks":8,"max_timeouts":0,"crash_budget":1"#,
        r#"{"kind":"crash","proc":99}"#,
    );
    let err = replay_trace(&trace).expect_err("process 99 does not exist");
    assert!(err.contains("\"proc\"") && err.contains("99"), "{err}");
}

#[test]
fn replay_rejects_a_process_count_outside_one_to_sixty_four() {
    let params = |n: u64| {
        [
            (
                "bracha",
                format!(r#""n":{n},"t":1,"input":1,"liar":0,"amp_quorum":2,"deliver_quorum":3"#),
            ),
            (
                "ben_or",
                format!(r#""n":{n},"t":0,"prefs":0,"max_rounds":1"#),
            ),
            (
                "paxos",
                format!(
                    r#""n":{n},"inputs":0,"timeout_ticks":8,"max_timeouts":0,"crash_budget":0"#
                ),
            ),
        ]
    };
    // n = 65 overflowed the Ben-Or preference mask's shift, and n itself
    // sized an allocation without any bound
    for n in [0, 65, u64::MAX] {
        for (scenario, params) in params(n) {
            let err =
                replay_trace(&trace_json(scenario, &params, "")).expect_err("n outside 1..=64");
            assert!(err.contains("\"n\""), "{scenario} n={n}: {err}");
        }
    }
    for (scenario, params) in params(64) {
        assert!(
            replay_trace(&trace_json(scenario, &params, "")).is_ok(),
            "{scenario}: n = 64 is in range"
        );
    }
}

#[test]
fn replay_rejects_out_of_range_parameters_and_script_entries() {
    let bracha =
        |t: u64| format!(r#""n":4,"t":{t},"input":1,"liar":0,"amp_quorum":2,"deliver_quorum":3"#);
    let ben_or =
        |t: u64, max_rounds: u64| format!(r#""n":3,"t":{t},"prefs":0,"max_rounds":{max_rounds}"#);
    let paxos = |ticks: u64, max_timeouts: u64| {
        format!(
            r#""n":3,"inputs":6,"timeout_ticks":{ticks},"max_timeouts":{max_timeouts},"crash_budget":0"#
        )
    };
    // `as u32` truncated this to 1
    let past_u32 = u64::from(u32::MAX) + 2;
    let mut cases = vec![
        // t > n tripped the Ben-Or constructor's assertion
        (trace_json("ben_or", &ben_or(4, 1), ""), "\"t\""),
        // `t + 1` overflowed building the Bracha quorums
        (trace_json("bracha", &bracha(u64::MAX), ""), "\"t\""),
        // `timeout_ticks + id` overflowed arming the first retry timer
        (
            trace_json("paxos", &paxos(u64::MAX, 1), ""),
            "\"timeout_ticks\"",
        ),
        (
            trace_json("ben_or", &ben_or(1, past_u32), ""),
            "\"max_rounds\"",
        ),
        (
            trace_json("paxos", &paxos(8, past_u32), ""),
            "\"max_timeouts\"",
        ),
    ];
    // the liar draws each lie from 0..5: an entry of 9 tripped a debug
    // assertion, and a release build clamped it and replayed to no
    // violation, as if the trace had stopped reproducing
    let (_, mut trace) = corpus_traces()
        .into_iter()
        .find(|(name, _)| name == "bracha_amp_quorum.json")
        .expect("the corpus holds the planted Bracha trace");
    trace.script[2] = 9;
    cases.push((trace, "domain"));
    for (trace, key) in cases {
        let err = replay_trace(&trace).expect_err("malformed trace");
        assert!(
            err.contains(key),
            "{} {:?}: {err}",
            trace.scenario,
            trace.params
        );
    }
}

// ---------------------------------------------------------------------
// Exact exploration counts
// ---------------------------------------------------------------------

fn explore_bracha(params: BrachaParams, por: bool) -> ExploreReport {
    let (net, tap) = bracha_net(&params);
    let mut cfg = params.explore_config();
    cfg.por = por;
    Explorer::new(net, tap, params.properties(), cfg).run()
}

fn explore_paxos(params: PaxosParams) -> ExploreReport {
    let (net, tap) = paxos_net(&params);
    Explorer::new(net, tap, params.properties(), params.explore_config()).run()
}

fn explore_ben_or(params: BenOrParams) -> ExploreReport {
    let (net, tap) = ben_or_net(&params);
    Explorer::new(net, tap, params.properties(), params.explore_config()).run()
}

/// The search's exact work on small models: verdict, states,
/// transitions, terminals, deepest depth and counterexample length. A
/// change to what the search explores, or in which order, fails here and
/// not only in the benchmark's pins; a rewrite of the explorer's
/// bookkeeping must leave every row as it is.
#[test]
fn exploration_counts_match_their_pins() {
    let planted = |n| BrachaParams::new(n, 1, 1).with_liar().with_thresholds(1, 3);
    let rows = [
        (
            "planted bracha n=4",
            explore_bracha(planted(4), true),
            ("Violated", 8_376, 19_244, 2, 29, 29),
        ),
        (
            "honest bracha n=4",
            explore_bracha(BrachaParams::new(4, 1, 1), true),
            ("Proven", 37, 36, 1, 36, 0),
        ),
        (
            "planted bracha n=3",
            explore_bracha(planted(3), true),
            ("Violated", 123, 179, 3, 16, 16),
        ),
        (
            "planted bracha n=3 without POR",
            explore_bracha(planted(3), false),
            ("Violated", 896, 3_636, 3, 16, 15),
        ),
        (
            "paxos [0,1] crash budget 1",
            explore_paxos(PaxosParams::new(vec![0, 1], 8, 0).with_crash_budget(1)),
            ("Proven", 536, 812, 17, 19, 0),
        ),
        (
            "tapped ben-or t=0 [1,0,1] r<=1",
            explore_ben_or(BenOrParams::new(0, vec![1, 0, 1], 1)),
            ("Proven", 4_060, 10_365, 1, 27, 0),
        ),
    ];
    for (label, report, pin) in rows {
        let (verdict, trace_len) = match &report.verdict {
            Verdict::Proven => ("Proven", 0),
            Verdict::Violated(trace) => ("Violated", trace.len()),
            Verdict::Truncated(why) => panic!("{label}: truncated: {why}"),
        };
        let got = (
            verdict,
            report.states,
            report.transitions,
            report.terminals,
            report.max_depth_seen,
            trace_len,
        );
        assert_eq!(got, pin, "{label}");
    }
}

/// The transition memo skips part of the work of each row above that
/// revisits states, and never all of it: `skipped` counts transitions
/// included in `transitions` that the search never dispatched, each one
/// into a state it had already covered.
#[test]
fn the_transition_memo_skips_some_but_not_all_transitions() {
    let rows = [
        (
            "paxos [0,1] crash budget 1",
            explore_paxos(PaxosParams::new(vec![0, 1], 8, 0).with_crash_budget(1)),
        ),
        (
            "planted bracha n=4",
            explore_bracha(
                BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3),
                true,
            ),
        ),
        (
            "tapped ben-or t=0 [1,0,1] r<=1",
            explore_ben_or(BenOrParams::new(0, vec![1, 0, 1], 1)),
        ),
    ];
    for (label, report) in rows {
        assert!(
            0 < report.skipped && report.skipped < report.transitions,
            "{label}: {} of {} transitions skipped",
            report.skipped,
            report.transitions
        );
    }
}
