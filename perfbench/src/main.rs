//! `perfbench`: the BuMP reproduction's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload storm|bulk|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! A plain run (`--trace 0`) prints the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer ones; either ends its standard
//! output with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`). See `perfbench/README.md`. The `serve` workload also
//! runs this program as a child process to sample its set-up time.

mod host;
mod metrics;
mod serve;
mod sim;
mod stats;

use metrics::{Run, END_TO_END, PER_LAYER};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["storm", "bulk", "serve"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [serve::SETUP_SAMPLE_FLAG] {
        if let Err(e) = serve::setup_sample_child() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut run = Run::default();
    let (kind, seed, secs) = (args.workload.as_str(), args.seed, args.seconds);
    match (kind, args.trace) {
        ("storm", false) => sim::plain(sim::Kind::Storm, seed, secs, &mut run),
        ("storm", true) => sim::traced(sim::Kind::Storm, seed, secs, &mut run),
        ("bulk", false) => sim::plain(sim::Kind::Bulk, seed, secs, &mut run),
        ("bulk", true) => sim::traced(sim::Kind::Bulk, seed, secs, &mut run),
        ("serve", false) => serve::plain(seed, secs, &mut run),
        _ => serve::traced(seed, secs, &mut run),
    }
    run.note(format!(
        "workload {kind}, seed {seed}, {} run, {} ops, {} failed",
        if args.trace { "traced" } else { "plain" },
        run.attempted,
        run.failed
    ));
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    run.print(catalogue, !args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload bulk --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "bulk".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload storm --trace 2",
            "--workload storm --seconds 0",
            "--workload storm --seed",
            "--workload storm --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_seed_fixes_the_serve_cold_specs() {
        let specs = |seed| {
            (0..100)
                .map(|k| serve::cold_spec(seed, k))
                .collect::<Vec<_>>()
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
        // Every cold spec of a run is new to the journal and the cache.
        let mut ids: Vec<String> = specs(1)
            .iter()
            .flat_map(|s| s.to_grid().cells().to_vec())
            .map(|c| bump_serve::journal::cell_identity(&c))
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn a_tiny_window_cell_repeats_exactly() {
        use bump_bench::experiment::MetricRow;
        let mut spec = sim::cells(sim::Kind::Storm, 3, 0).remove(0);
        spec.options = spec.options.scaled(0.01);
        let row = || MetricRow::of(&spec, &spec.run());
        assert_eq!(row(), row());
    }
}
