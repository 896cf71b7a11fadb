//! Offline criterion-lite bench harness.
//!
//! Implements exactly the `criterion` API surface the benches in
//! `crates/bench/benches/` use — [`black_box`], [`Criterion`],
//! `benchmark_group`/`bench_function`/`sample_size`/`finish`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros (both the list and
//! the `name/config/targets` forms) — on top of a simple measurement
//! loop: a wall-clock warmup sizes a per-sample batch, then N samples
//! are timed and reported as min/median/mean per iteration.
//!
//! Like the real crate under `harness = false`, the binary only runs
//! the full measurement when cargo passes `--bench` (what `cargo
//! bench` does); otherwise — e.g. under `cargo test`, which builds and
//! runs bench targets in test mode — every benchmark executes exactly
//! once as a smoke check. A positional argument filters benchmarks by
//! substring, as with the real crate. Any other flag is rejected with
//! exit status 2, so a mistyped or retired flag cannot turn into a
//! filter that silently matches nothing.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock spent warming each benchmark.
const WARMUP: Duration = Duration::from_millis(100);
/// Target wall-clock per timed sample (batches iterations up to this).
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// The bench-harness entry point: run mode, sample count, and filter.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    /// Full measurement (`--bench`) vs one-shot smoke (test mode).
    measure: bool,
    /// Substring filter over `group/function` ids.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            measure: false,
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (builder form,
    /// used by `criterion_group!`'s `config = ...` clause).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Applies the process arguments (`--bench`/`--measure` enable
    /// measurement, `--test` disables it; a positional argument filters
    /// benchmark ids) and exits with status 2 on any other flag.
    /// Called by [`criterion_group!`]-generated code.
    pub fn configure_from_args(self) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.with_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    fn with_args(mut self, args: &[String]) -> Result<Self, String> {
        for arg in args {
            match arg.as_str() {
                "--bench" | "--measure" => self.measure = true,
                "--test" => self.measure = false,
                s if s.starts_with('-') => {
                    return Err(format!(
                        "unknown flag '{s}' (accepted: --bench, --measure, --test, \
                         and one positional filter)"
                    ))
                }
                s => self.filter = Some(s.to_string()),
            }
        }
        Ok(self)
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }
}

/// A named group of benchmarks sharing a sample-size override.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Runs one benchmark. `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the code under test.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = format!("{}/{}", self.name, id.into());
        if let Some(filter) = &self.criterion.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            measure: self.criterion.measure,
            samples: self.sample_size.unwrap_or(self.criterion.sample_size),
            report: None,
        };
        f(&mut bencher);
        match bencher.report {
            Some(r) if self.criterion.measure => println!(
                "{id}\n    time: [min {}  median {}  mean {}]  ({} samples x {} iters)",
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                r.samples,
                r.iters_per_sample,
            ),
            Some(_) => println!("{id}: ok (test mode, 1 iteration)"),
            None => println!("{id}: no iter() call"),
        }
    }

    /// Ends the group (parity with the real API; nothing to flush).
    pub fn finish(self) {}
}

#[derive(Debug, Clone, Copy)]
struct Report {
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Drives one benchmark's measurement loop.
#[derive(Debug)]
pub struct Bencher {
    measure: bool,
    samples: usize,
    report: Option<Report>,
}

impl Bencher {
    /// Measures `f`: warmup sizes a batch, then `samples` batches are
    /// timed (test mode runs `f` once and skips the measurement).
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        if !self.measure {
            black_box(f());
            self.report = Some(Report {
                min_ns: 0.0,
                median_ns: 0.0,
                mean_ns: 0.0,
                samples: 0,
                iters_per_sample: 1,
            });
            return;
        }
        // Warmup: run for at least WARMUP, counting iterations.
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < WARMUP || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
        let iters_per_sample =
            ((SAMPLE_TARGET.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 1 << 20);
        let mut sample_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let min_ns = sample_ns[0];
        let median_ns = if sample_ns.len() % 2 == 1 {
            sample_ns[sample_ns.len() / 2]
        } else {
            (sample_ns[sample_ns.len() / 2 - 1] + sample_ns[sample_ns.len() / 2]) / 2.0
        };
        let mean_ns = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
        self.report = Some(Report {
            min_ns,
            median_ns,
            mean_ns,
            samples: sample_ns.len(),
            iters_per_sample,
        });
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}µs", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

/// Declares a bench group: either `criterion_group!(name, fn_a, fn_b)`
/// or the `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_the_closure_once() {
        let mut c = Criterion::default().sample_size(5);
        let mut runs = 0u32;
        let mut g = c.benchmark_group("g");
        g.sample_size(5);
        g.bench_function("f", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 1, "test mode is a single smoke iteration");
    }

    #[test]
    fn measurement_reports_ordered_statistics() {
        let mut b = Bencher {
            measure: true,
            samples: 5,
            report: None,
        };
        b.iter(|| std::hint::black_box(3u64.pow(7)));
        let r = b.report.expect("measured");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.mean_ns * 2.0);
        assert_eq!(r.samples, 5);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut c = Criterion::default()
            .with_args(&args(&["--test", "wanted"]))
            .expect("a mode flag and a filter are accepted");
        let mut runs = 0u32;
        let mut g = c.benchmark_group("g");
        g.bench_function("other", |b| b.iter(|| runs += 1));
        g.bench_function("wanted_one", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 1, "only the matching benchmark runs");
        // A flag the harness does not know is an error, never a filter.
        let err = Criterion::default()
            .with_args(&args(&["--bench", "--baseline", "ci"]))
            .expect_err("unknown flag");
        assert!(err.contains("--baseline"), "{err}");
    }
}
