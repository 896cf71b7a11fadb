//! Offline criterion-lite bench harness.
//!
//! Implements exactly the `criterion` API surface the benches in
//! `crates/bench/benches/` use — [`black_box`], [`Criterion`],
//! `benchmark_group`/`bench_function`/`sample_size`/`throughput`/
//! `finish`, and the [`criterion_group!`]/[`criterion_main!`] macros
//! (both the list and the `name/config/targets` forms) — on top of a
//! simple measurement loop: a wall-clock warmup sizes a per-sample
//! batch, then N samples are timed and reported as min/median/mean per
//! iteration. A group [`Throughput`] declaration additionally reports
//! the sustained rate (bytes/sec or elements/sec) at the median.
//!
//! Like the real crate under `harness = false`, the binary only runs
//! the full measurement when cargo passes `--bench` (what `cargo
//! bench` does); otherwise — e.g. under `cargo test`, which builds and
//! runs bench targets in test mode — every benchmark executes exactly
//! once as a smoke check. A positional argument filters benchmarks by
//! substring, as with the real crate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Set when a `--baseline` comparison finds a regression (or cannot
/// run at all); [`criterion_main!`] turns it into a non-zero exit.
static REGRESSED: AtomicBool = AtomicBool::new(false);

/// True if any group's baseline comparison failed. Checked by the
/// [`criterion_main!`]-generated `main` after all groups have run.
pub fn regression_detected() -> bool {
    REGRESSED.load(Ordering::SeqCst)
}

fn flag_regression() {
    REGRESSED.store(true, Ordering::SeqCst);
}

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
    /// `--save-baseline <name>`: merge this run's medians into the
    /// named baseline file after the group finishes.
    save_baseline: Option<String>,
    /// `--baseline <name>`: compare this run's medians against the
    /// named baseline and fail the process on regression.
    compare_baseline: Option<String>,
    /// `--bench-threshold <pct>`: slowdown tolerated before a
    /// comparison counts as a regression (percent over baseline).
    threshold_pct: f64,
    /// Measured `(id, median_ns)` pairs, collected for the baseline
    /// machinery.
    results: Vec<(String, f64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            measure: false,
            filter: None,
            save_baseline: None,
            compare_baseline: None,
            threshold_pct: 15.0,
            results: Vec::new(),
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

    /// Applies the process arguments (`--bench` enables measurement; a
    /// positional argument filters benchmark ids; `--save-baseline` /
    /// `--baseline` / `--bench-threshold` drive the regression gate).
    /// Called by [`criterion_group!`]-generated code.
    pub fn configure_from_args(mut self) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut filter = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--bench" | "--measure" => self.measure = true,
                "--test" => self.measure = false,
                "--save-baseline" => {
                    i += 1;
                    self.save_baseline = args.get(i).cloned();
                }
                "--baseline" => {
                    i += 1;
                    self.compare_baseline = args.get(i).cloned();
                }
                "--bench-threshold" => {
                    i += 1;
                    if let Some(pct) = args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                        self.threshold_pct = pct;
                    }
                }
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
            i += 1;
        }
        self.filter = filter;
        self
    }

    /// Runs the baseline save/compare requested on the command line
    /// against the medians collected so far. Called by
    /// [`criterion_group!`]-generated code after the group's targets;
    /// a no-op outside measurement mode (test-mode medians are zeros)
    /// and when neither baseline flag was given.
    pub fn final_summary(&mut self) {
        if !self.measure {
            return;
        }
        let dir = baseline_dir();
        if let Some(name) = self.compare_baseline.clone() {
            match compare_baseline_at(&dir, &name, &self.results, self.threshold_pct) {
                Ok(lines) => {
                    let mut regressed = false;
                    for line in &lines {
                        println!("{line}");
                        regressed |= line.contains("REGRESSION");
                    }
                    if regressed {
                        flag_regression();
                    }
                }
                Err(e) => {
                    eprintln!("baseline '{name}': {e}");
                    flag_regression();
                }
            }
        }
        if let Some(name) = self.save_baseline.clone() {
            match save_baseline_to(&dir, &name, &self.results) {
                Ok(path) => println!("baseline '{name}' saved to {}", path.display()),
                Err(e) => eprintln!("baseline '{name}': save failed: {e}"),
            }
        }
        self.results.clear();
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            throughput: None,
        }
    }
}

/// The amount of work one benchmark iteration processes, for
/// throughput reporting (mirrors the real crate's enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// One iteration moves this many bytes.
    Bytes(u64),
    /// One iteration processes this many elements.
    Elements(u64),
}

/// A named group of benchmarks sharing a sample-size override.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    /// Declares the per-iteration work of this group's benchmarks;
    /// measured reports gain a `thrpt:` line (rate at the median, with
    /// the min/mean-derived bounds).
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
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
            Some(r) if self.criterion.measure => {
                self.criterion.results.push((id.clone(), r.median_ns));
                println!(
                    "{id}\n    time: [min {}  median {}  mean {}]  ({} samples x {} iters)",
                    fmt_ns(r.min_ns),
                    fmt_ns(r.median_ns),
                    fmt_ns(r.mean_ns),
                    r.samples,
                    r.iters_per_sample,
                );
                if let Some(throughput) = self.throughput {
                    // Fastest sample = peak rate, mean = sustained;
                    // report the spread the way criterion orders it.
                    println!(
                        "    thrpt: [peak {}  median {}  mean {}]",
                        fmt_rate(throughput, r.min_ns),
                        fmt_rate(throughput, r.median_ns),
                        fmt_rate(throughput, r.mean_ns),
                    );
                }
            }
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

/// Formats the rate implied by `throughput` work per `ns`-nanosecond
/// iteration (`"—"` when the iteration time is degenerate).
fn fmt_rate(throughput: Throughput, ns: f64) -> String {
    // NaN and zero/negative timings alike have no meaningful rate.
    if ns.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return "—".to_string();
    }
    match throughput {
        Throughput::Bytes(bytes) => {
            // Binary thresholds to match the binary units, so the
            // printed value is always >= 1.0 in its own unit.
            let per_sec = bytes as f64 / (ns * 1e-9);
            if per_sec >= (1u64 << 30) as f64 {
                format!("{:.3} GiB/s", per_sec / (1u64 << 30) as f64)
            } else if per_sec >= (1u64 << 20) as f64 {
                format!("{:.3} MiB/s", per_sec / (1u64 << 20) as f64)
            } else {
                format!("{per_sec:.1} B/s")
            }
        }
        Throughput::Elements(n) => {
            let per_sec = n as f64 / (ns * 1e-9);
            if per_sec >= 1e6 {
                format!("{:.3} Melem/s", per_sec / 1e6)
            } else if per_sec >= 1e3 {
                format!("{:.3} Kelem/s", per_sec / 1e3)
            } else {
                format!("{per_sec:.1} elem/s")
            }
        }
    }
}

/// Directory holding baseline JSON files. Defaults to the workspace's
/// `results/bench_baselines/`, anchored at this crate's source rather
/// than the invocation directory (`cargo bench` runs each bench from
/// its own package directory); override with `BENCH_BASELINE_DIR` for
/// tests and CI scratch runs.
fn baseline_dir() -> PathBuf {
    std::env::var_os("BENCH_BASELINE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/bench_baselines"
            ))
        })
}

/// Writes (or merges into) `dir/name.json`: a flat JSON object mapping
/// benchmark id to median nanoseconds per iteration. Existing entries
/// for ids not re-measured this run are kept, so a filtered run only
/// refreshes the benchmarks it actually executed.
fn save_baseline_to(dir: &Path, name: &str, results: &[(String, f64)]) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("{name}.json"));
    let mut entries: Vec<(String, f64)> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| parse_baseline(&text))
        .unwrap_or_default();
    for (id, median) in results {
        match entries.iter_mut().find(|(k, _)| k == id) {
            Some((_, v)) => *v = *median,
            None => entries.push((id.clone(), *median)),
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (id, median)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!("  \"{id}\": {median:.3}{comma}\n"));
    }
    out.push_str("}\n");
    std::fs::create_dir_all(dir)?;
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Parses the flat `{"id": median_ns, ...}` baseline shape written by
/// [`save_baseline_to`]. Benchmark ids never contain quotes, commas,
/// or colons, so a split-based scan is exact for this schema.
fn parse_baseline(text: &str) -> Option<Vec<(String, f64)>> {
    let inner = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, v) = part.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        out.push((k.to_string(), v.trim().parse().ok()?));
    }
    Some(out)
}

/// Compares `results` against `dir/name.json`. Returns one report line
/// per measured benchmark; lines containing `REGRESSION` mark medians
/// more than `threshold_pct` percent over their baseline. Errors when
/// the baseline file is missing or unparsable (a requested comparison
/// that cannot run must not pass silently).
fn compare_baseline_at(
    dir: &Path,
    name: &str,
    results: &[(String, f64)],
    threshold_pct: f64,
) -> Result<Vec<String>, String> {
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let baseline =
        parse_baseline(&text).ok_or_else(|| format!("cannot parse {}", path.display()))?;
    let mut lines = Vec::new();
    for (id, median) in results {
        match baseline.iter().find(|(k, _)| k == id) {
            Some((_, base)) if *base > 0.0 => {
                let ratio = median / base;
                let verdict = if ratio > 1.0 + threshold_pct / 100.0 {
                    "REGRESSION"
                } else if ratio < 1.0 - threshold_pct / 100.0 {
                    "improved"
                } else {
                    "ok"
                };
                lines.push(format!(
                    "{id}: {} vs baseline {} ({:+.1}%, threshold {threshold_pct:.0}%) {verdict}",
                    fmt_ns(*median),
                    fmt_ns(*base),
                    (ratio - 1.0) * 100.0,
                ));
            }
            Some(_) => lines.push(format!("{id}: baseline median is zero, skipped")),
            None => lines.push(format!("{id}: no baseline entry (new benchmark)")),
        }
    }
    Ok(lines)
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
            criterion.final_summary();
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

/// Declares the bench binary's `main`, running each group in order and
/// exiting non-zero if any group's `--baseline` comparison regressed.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            if $crate::regression_detected() {
                eprintln!("benchmark regression detected (see REGRESSION lines above)");
                std::process::exit(1);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_the_closure_once() {
        let mut c = Criterion::default();
        let mut runs = 0u32;
        let mut g = c.benchmark_group("g");
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
    fn throughput_rates_scale_with_work_and_time() {
        // 1 GiB moved in 1 second.
        let gib = Throughput::Bytes(1 << 30);
        assert_eq!(fmt_rate(gib, 1e9), "1.000 GiB/s");
        // Twice the time, half the rate; sub-GiB drops to MiB/s.
        assert_eq!(fmt_rate(gib, 2e9), "512.000 MiB/s");
        // 1000 elements in 1 ms = 1 Melem/s.
        assert_eq!(fmt_rate(Throughput::Elements(1000), 1e6), "1.000 Melem/s");
        assert_eq!(fmt_rate(Throughput::Elements(5), 1e6), "5.000 Kelem/s");
        // Degenerate timings never divide by zero.
        assert_eq!(fmt_rate(gib, 0.0), "—");
        // The builder composes with sample_size and runs in test mode.
        let mut c = Criterion::default();
        let mut runs = 0u32;
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(64)).sample_size(5);
        g.bench_function("f", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 1);
    }

    #[test]
    fn baseline_round_trips_and_merges() {
        let dir = std::env::temp_dir().join("microbench_baseline_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let first = vec![("g/a".to_string(), 100.0), ("g/b".to_string(), 200.0)];
        save_baseline_to(&dir, "main", &first).expect("save");
        // A filtered re-save refreshes only the re-measured id.
        let refresh = vec![("g/b".to_string(), 250.0)];
        save_baseline_to(&dir, "main", &refresh).expect("merge");
        let text = std::fs::read_to_string(dir.join("main.json")).expect("read");
        let parsed = parse_baseline(&text).expect("parse");
        assert_eq!(
            parsed,
            vec![("g/a".to_string(), 100.0), ("g/b".to_string(), 250.0)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_flags_regressions_beyond_threshold() {
        let dir = std::env::temp_dir().join("microbench_baseline_compare");
        let _ = std::fs::remove_dir_all(&dir);
        let base = vec![("g/a".to_string(), 100.0), ("g/b".to_string(), 100.0)];
        save_baseline_to(&dir, "main", &base).expect("save");
        let now = vec![
            ("g/a".to_string(), 110.0), // +10%: within 15%
            ("g/b".to_string(), 130.0), // +30%: regression
            ("g/new".to_string(), 5.0), // no baseline entry
        ];
        let lines = compare_baseline_at(&dir, "main", &now, 15.0).expect("compare");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("ok"), "{}", lines[0]);
        assert!(lines[1].contains("REGRESSION"), "{}", lines[1]);
        assert!(lines[2].contains("no baseline entry"), "{}", lines[2]);
        // A looser threshold lets the same slowdown pass.
        let lines = compare_baseline_at(&dir, "main", &now, 40.0).expect("compare");
        assert!(!lines[1].contains("REGRESSION"), "{}", lines[1]);
        // A missing baseline is an error, not a silent pass.
        assert!(compare_baseline_at(&dir, "absent", &now, 15.0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("wanted".to_string()),
            ..Criterion::default()
        };
        let mut runs = 0u32;
        let mut g = c.benchmark_group("g");
        g.bench_function("other", |b| b.iter(|| runs += 1));
        g.bench_function("wanted_one", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 1, "only the matching benchmark runs");
    }
}
