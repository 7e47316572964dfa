//! Shared helpers for the experiment runner and the Criterion benches:
//! the experiment registry (one entry per table/figure of the paper; see
//! `EXPERIMENTS.md`), table printing with its JSON export, and the
//! [`BenchReport`] every bench writes its `BENCH_N.json` through.
//!
//! All JSON is serialized by `bne_sim::json::Json` into one directory,
//! `$BNE_BENCH_DIR`, when that variable is set: the benches write their
//! reports there and the `experiments` binary writes `experiments.json`.
//! Each file is an object written one line per key, and one line per
//! element of an array-valued key, so a regenerated file diffs line by
//! line. A report's keys, in order: `schema` (1), `report` (e.g.
//! `"BENCH_3"`), `bench` (e.g. `"net_engine"`), `mode` (`"smoke"` or
//! `"full"`, see [`bench_smoke_mode`]), `cores` (available parallelism),
//! `headline` (the bench's own scalars, `{}` for most reports) and `legs`
//! (one criterion result per timed benchmark id, times rounded to 0.1 ns).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bne_core::sim::json::Json;
use criterion::BenchResult;
use std::sync::Mutex;

/// Renders a simple aligned text table.
fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Formats a float compactly for table cells.
pub fn fmt_f64(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats a boolean as a check/cross for table cells.
pub fn fmt_bool(b: bool) -> String {
    if b {
        "yes".to_string()
    } else {
        "no".to_string()
    }
}

/// The list of experiment identifiers understood by the `experiments`
/// binary. `e1..e12` regenerate the paper's tables; `e13..e16` are the
/// scenario-engine grid sweeps (replicated Monte Carlo with streaming
/// aggregation); `e17..e19` run the round-based Byzantine protocols on
/// the `bne-net` async discrete-event runtime (loss, scheduler and
/// partition sweeps); `e20..e22` run the **event-driven** protocols
/// (Ben-Or expected convergence under adversarial schedulers, Bracha ±
/// retransmission under partitions, and the Paxos/HSUC crash-recovery
/// consensus atlas); `e23` re-describes the e22 Paxos executions through
/// the observability layer (per-phase queue latency vs timer wait);
/// `e24` audits the million-agent scrip economy's threshold equilibrium
/// with the sampled deviation oracle across money supply × churn ×
/// hoarder fraction; `e25` runs the schedule-space model checker —
/// exhaustive proofs with and without partial-order reduction, the
/// planted-bug counterexample, and the synthesized worst-case adversary
/// against e20's rush heuristic.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e25",
];

/// Whether the benches should run in bounded smoke mode (the CI
/// `bench-smoke` job): `BNE_BENCH_SMOKE` set to anything non-empty other
/// than `0`. Smoke runs shrink grids/replicas/samples — their purpose is
/// the bit-identity assertions, not the timings.
pub fn bench_smoke_mode() -> bool {
    std::env::var("BNE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The experiments named by the command-line `args`, matched without
/// regard to case, in registry order. No args, or `all`, selects every
/// experiment. Args that name no experiment are returned as the error.
pub fn select_experiments(args: &[String]) -> Result<Vec<&'static str>, Vec<String>> {
    let known = |arg: &String| EXPERIMENT_IDS.iter().any(|id| arg.eq_ignore_ascii_case(id));
    let unknown: Vec<String> = (args.iter())
        .filter(|a| !a.eq_ignore_ascii_case("all") && !known(a))
        .cloned()
        .collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    let named = |id: &str| args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let all = args.is_empty() || named("all");
    let selected = EXPERIMENT_IDS.iter().filter(|id| all || named(id));
    Ok(selected.copied().collect())
}

static TABLES: Mutex<Vec<Json>> = Mutex::new(Vec::new());

/// Prints an aligned text table *and* records it for the export of
/// [`write_experiments_json`].
pub fn emit_table(id: &str, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
    let rows = Json::Arr(rows.iter().map(|row| strings(row)).collect());
    let mut tables = TABLES.lock().expect("no table printer panicked");
    tables.push(obj([
        ("id", Json::Str(id.to_string())),
        ("title", Json::Str(title.to_string())),
        ("headers", strings(headers)),
        ("rows", rows),
    ]));
}

/// Writes every table recorded by [`emit_table`] to
/// `$BNE_BENCH_DIR/experiments.json` as `{"experiments": [...]}`.
pub fn write_experiments_json() {
    let tables = Json::Arr(TABLES.lock().expect("no table printer panicked").clone());
    write_to_bench_dir("experiments", &to_lines(vec![("experiments", tables)]));
}

/// One `BENCH_N.json` report (see the crate docs).
#[derive(Debug)]
pub struct BenchReport {
    report: String,
    bench: String,
    mode: &'static str,
    cores: usize,
    headline: Vec<(&'static str, Json)>,
    legs: Vec<BenchResult>,
}

impl BenchReport {
    /// The report `report` (e.g. `"BENCH_3"`) of the bench target `bench`
    /// (e.g. `"net_engine"`), holding `legs` in order: usually every leg
    /// the process timed, [`criterion::results`].
    pub fn new(report: &str, bench: &str, legs: Vec<BenchResult>) -> Self {
        BenchReport {
            report: report.to_string(),
            bench: bench.to_string(),
            mode: if bench_smoke_mode() { "smoke" } else { "full" },
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            headline: Vec::new(),
            legs,
        }
    }

    /// Keeps only the listed legs, in the order they ran.
    ///
    /// # Panics
    ///
    /// If a listed leg did not run: a report never silently drops a leg.
    pub fn only(mut self, names: &[&str]) -> Self {
        for name in names {
            let ran = self.legs.iter().any(|leg| leg.name == *name);
            assert!(ran, "{}: listed leg {name:?} did not run", self.report);
        }
        self.legs.retain(|leg| names.contains(&leg.name.as_str()));
        self
    }

    /// Adds the bench's own scalars to the `headline` object.
    pub fn headline(mut self, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Self {
        self.headline.extend(fields);
        self
    }

    /// The report's JSON text.
    fn to_json(&self) -> String {
        let ns = |x: f64| Json::F64((x * 10.0).round() / 10.0);
        let legs = self.legs.iter().map(|leg| {
            obj([
                ("name", Json::Str(leg.name.clone())),
                ("median_ns", ns(leg.median_ns)),
                ("min_ns", ns(leg.min_ns)),
                ("max_ns", ns(leg.max_ns)),
                ("samples", Json::U64(leg.samples as u64)),
                ("iters_per_sample", Json::U64(leg.iters_per_sample)),
            ])
        });
        to_lines(vec![
            ("schema", Json::U64(1)),
            ("report", Json::Str(self.report.clone())),
            ("bench", Json::Str(self.bench.clone())),
            ("mode", Json::Str(self.mode.to_string())),
            ("cores", Json::U64(self.cores as u64)),
            ("headline", obj(self.headline.clone())),
            ("legs", Json::Arr(legs.collect())),
        ])
    }

    /// Writes the report to `$BNE_BENCH_DIR/<report>.json`, if that
    /// variable is set; panics if the file cannot be written.
    pub fn write(&self) {
        write_to_bench_dir(&self.report, &self.to_json());
    }
}

/// A JSON object of `fields`, in order.
fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let fields = fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value));
    Json::Obj(fields.collect())
}

/// A JSON array of strings.
fn strings<S: ToString>(items: &[S]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect())
}

/// Writes an object one line per field, and a non-empty array-valued
/// field one line per element.
fn to_lines(fields: Vec<(&str, Json)>) -> String {
    let line = |(key, value): (&str, Json)| {
        let key = Json::Str(key.to_string());
        match value {
            Json::Arr(items) if !items.is_empty() => {
                let items: Vec<String> = items.iter().map(|item| format!("  {item}")).collect();
                format!("{key}: [\n{}\n]", items.join(",\n"))
            }
            value => format!("{key}: {value}"),
        }
    };
    let lines: Vec<String> = fields.into_iter().map(line).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Writes `text` to `$BNE_BENCH_DIR/<name>.json` when `BNE_BENCH_DIR` is
/// set and non-empty, creating the directory if needed.
///
/// # Panics
///
/// If the file cannot be written: a run that was asked for a file and
/// wrote none is broken.
fn write_to_bench_dir(name: &str, text: &str) {
    let Some(dir) = std::env::var_os("BNE_BENCH_DIR").filter(|dir| !dir.is_empty()) else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    println!("{name} written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_aligned() {
        let t = render_table(
            "demo",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("333"));
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 4);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_bool(true), "yes");
        assert_eq!(fmt_bool(false), "no");
        assert_eq!(fmt_f64(1234.5678), "1234.6");
        assert_eq!(fmt_f64(0.5), "0.500");
        assert_eq!(EXPERIMENT_IDS.len(), 25);
    }

    #[test]
    fn experiment_selection_rejects_unknown_ids() {
        let select = |args: &[&str]| {
            select_experiments(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(select(&[]).unwrap(), EXPERIMENT_IDS);
        assert_eq!(select(&["ALL"]).unwrap(), EXPERIMENT_IDS);
        assert_eq!(select(&["e3", "E1", "e3"]).unwrap(), ["e1", "e3"]);
        let unknown = select(&["e1", "e26", "--timing"]).unwrap_err();
        assert_eq!(unknown, ["e26", "--timing"]);
    }

    #[test]
    fn the_experiments_export_holds_one_table_per_line() {
        let rows = [vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]];
        emit_table("e0", "a \"quoted\" title", &["x", "y"], &rows);
        let tables = TABLES.lock().unwrap().clone();
        let expected = "{\n\"experiments\": [\n  {\"id\":\"e0\",\"title\":\"a \\\"quoted\\\" title\",\"headers\":[\"x\",\"y\"],\"rows\":[[\"1\",\"2\"],[\"3\",\"4\"]]}\n]\n}\n";
        assert_eq!(to_lines(vec![("experiments", Json::Arr(tables))]), expected);
    }

    fn leg(name: &str) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            median_ns: 1.25,
            min_ns: 1.0,
            max_ns: 2.0 / 3.0,
            samples: 3,
            iters_per_sample: 10,
        }
    }

    #[test]
    fn a_report_writes_its_keys_in_schema_order_and_one_leg_per_line() {
        let mut report = BenchReport::new("BENCH_0", "demo", vec![leg("a"), leg("b"), leg("c")])
            .only(&["c", "a"])
            .headline([("agents", Json::U64(7)), ("ok", Json::Bool(true))]);
        (report.mode, report.cores) = ("full", 2);
        let leg = |name| {
            format!("  {{\"name\":\"{name}\",\"median_ns\":1.3,\"min_ns\":1,\"max_ns\":0.7,\"samples\":3,\"iters_per_sample\":10}}")
        };
        let expected = format!(
            "{{\n\"schema\": 1,\n\"report\": \"BENCH_0\",\n\"bench\": \"demo\",\n\"mode\": \"full\",\n\"cores\": 2,\n\"headline\": {{\"agents\":7,\"ok\":true}},\n\"legs\": [\n{},\n{}\n]\n}}\n",
            leg("a"),
            leg("c")
        );
        assert_eq!(report.to_json(), expected);
        report.legs.clear();
        assert!(report.to_json().ends_with("\n\"legs\": []\n}\n"));
    }

    #[test]
    fn a_report_escapes_leg_names() {
        let json = BenchReport::new("BENCH_0", "demo", vec![leg("say \"hi\"\nbye")]).to_json();
        assert!(json.contains("\n  {\"name\":\"say \\\"hi\\\"\\nbye\",\"median_ns\":"));
        assert_eq!(json.lines().count(), 11);
    }

    #[test]
    #[should_panic(expected = "BENCH_0: listed leg \"b\" did not run")]
    fn a_listed_leg_that_did_not_run_fails_the_report() {
        let _ = BenchReport::new("BENCH_0", "demo", vec![leg("a")]).only(&["a", "b"]);
    }
}
