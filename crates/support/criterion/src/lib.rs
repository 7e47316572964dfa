//! Offline, API-compatible subset of the `criterion` benchmark harness.
//!
//! The build environment has no crates.io access, so this crate implements
//! the slice of criterion the workspace's benches use: [`Criterion`] with
//! `sample_size` / `warm_up_time` / `measurement_time` / `bench_function`,
//! [`Bencher::iter`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Measurements are real (wall-clock, calibrated batches, median over the
//! configured number of samples) and are printed in a criterion-like
//! format. Every result is also kept for the rest of the process in
//! [`results`]; the benches of `bne-bench` turn them into their
//! `BENCH_N.json` reports (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id as passed to [`Criterion::bench_function`].
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample (ns/iter).
    pub min_ns: f64,
    /// Slowest sample (ns/iter).
    pub max_ns: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// The benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(1500),
        }
    }
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the total measurement duration (split across samples).
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark and records/prints its result.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            mode: Mode::WarmUp,
            elapsed: Duration::ZERO,
            iters: 1,
        };

        // Warm-up: also yields a rough per-iteration estimate.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            warm_iters += 1;
            if bencher.elapsed > self.warm_up_time {
                break;
            }
        }
        let per_iter_estimate = if warm_iters > 0 {
            warm_start.elapsed().as_nanos() as f64 / warm_iters as f64
        } else {
            1.0
        };

        // Calibrate: aim each sample at measurement_time / sample_size.
        let target_sample_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters = (target_sample_ns / per_iter_estimate.max(1.0)).ceil() as u64;
        let iters = iters.clamp(1, 1_000_000_000);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        bencher.mode = Mode::Measure;
        bencher.iters = iters;
        for _ in 0..self.sample_size {
            bencher.elapsed = Duration::ZERO;
            f(&mut bencher);
            samples_ns.push(bencher.elapsed.as_nanos() as f64 / iters as f64);
        }
        let median = median(&mut samples_ns);
        let result = BenchResult {
            name: id.to_string(),
            median_ns: median,
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().unwrap(),
            samples: samples_ns.len(),
            iters_per_sample: iters,
        };
        println!(
            "{:<60} time: [{} {} {}]",
            result.name,
            fmt_ns(result.min_ns),
            fmt_ns(result.median_ns),
            fmt_ns(result.max_ns),
        );
        RESULTS.lock().unwrap().push(result);
        self
    }
}

enum Mode {
    WarmUp,
    Measure,
}

/// Timing context handed to the closure of [`Criterion::bench_function`].
pub struct Bencher {
    mode: Mode,
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `routine`, running it once during warm-up and in calibrated
    /// batches during measurement.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let iters = match self.mode {
            Mode::WarmUp => 1,
            Mode::Measure => self.iters,
        };
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }
}

/// Sorts `samples` and returns their median: the middle sample, or the
/// mean of the two middle ones when the count is even.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// All results recorded so far by this process.
pub fn results() -> Vec<BenchResult> {
    RESULTS.lock().unwrap().clone()
}

/// Declares a benchmark group (criterion-compatible forms).
#[macro_export]
macro_rules! criterion_group {
    ( name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)? ) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ( $name:ident, $($target:path),+ $(,)? ) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark entry point running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ( $($group:path),+ $(,)? ) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        c.bench_function("noop_sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let rs = results();
        let r = rs.iter().find(|r| r.name == "noop_sum").unwrap();
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn median_averages_the_two_middle_samples_of_an_even_count() {
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
