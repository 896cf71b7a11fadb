//! Runs the full reproduction suite in-process: every figure/table in
//! the registry, from one deduplicated simulation grid executed on a
//! thread pool, writing each result under `results/`.
//!
//! Usage: `cargo run --release -p bump-bench --bin repro_all [-- --full] [-- --threads N]`
//!
//! Unlike the original subprocess driver, no prior `cargo build` of the
//! sibling binaries is needed, shared cells (e.g. `Base-open × Web
//! Search`, used by six figures) are simulated exactly once, and
//! independent cells run `--threads`-wide (default: all cores).

use bump_bench::experiment::{
    run_grid_with, ExperimentGrid, GridArgs, IncrementalCsv, MetricRow, SeedSummary,
};
use bump_bench::figures;
use std::time::Instant;

fn main() {
    let args = GridArgs::from_args();
    if args.smoke {
        GridArgs::refuse("--smoke applies only to scenarios, not repro_all");
    }
    let suite = figures::repro_suite();
    let mut grid = ExperimentGrid::new();
    for f in &suite {
        grid.merge((f.grid)(args.scale));
    }
    let expanded = args.expand(&grid);
    println!(
        "repro_all: {} unique cells ({} with x{} seed replication) across {} targets, \
         {} worker threads, {} engine",
        grid.len(),
        expanded.len(),
        args.seeds,
        suite.len(),
        args.threads,
        args.engine
    );
    let start = Instant::now();
    // Stream rows to results/repro_all.csv as cells land, so an
    // interrupted --full sweep leaves every finished cell on disk.
    let stream = IncrementalCsv::new("repro_all");
    let all = run_grid_with(&expanded, args.threads, move |_, spec, report| {
        stream.append(&MetricRow::of(spec, report));
    });
    let simulated = start.elapsed();
    if args.instruments.profile {
        figures::write_profile("repro_all", &all);
    }
    // Figures render from the replica-0 (calibrated-seed) results;
    // borrow directly in the common single-seed case.
    let selected;
    let results = if args.seeds > 1 {
        selected = all.select(&grid);
        &selected
    } else {
        &all
    };
    for f in &suite {
        println!("\n================ {} ================\n", f.name);
        let out = (f.render)(results);
        bump_bench::emit(f.name, &out);
        // Match the standalone binaries: per-figure structured rows too.
        let figure_grid = (f.grid)(args.scale);
        if !figure_grid.is_empty() {
            let figure_expanded = figure_grid.replicate_seeds(args.seeds);
            all.select(&figure_expanded).write_files(f.name);
            if args.seeds > 1 {
                SeedSummary::from_results(&figure_grid, &all, args.seeds).write_files(f.name);
            }
        }
    }
    all.write_files("repro_all");
    all.write_telemetry_files("repro_all");
    if args.seeds > 1 {
        SeedSummary::from_results(&grid, &all, args.seeds).write_files("repro_all");
    }
    println!(
        "\nAll {} reproduction targets completed; {} cells simulated in {:.1}s \
         on {} threads; results/ holds the outputs.",
        suite.len(),
        all.len(),
        simulated.as_secs_f64(),
        args.threads
    );
}
