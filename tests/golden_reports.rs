//! Golden-report snapshot: a small set of representative cells is
//! pinned, row for row, to `results/golden/engine_golden.csv`. Both
//! engines must regenerate the file byte-identically, so silent drift
//! in either engine — or an accidental semantic change anywhere in the
//! core/cache/DRAM stack — fails here with a diff instead of skewing
//! figures quietly.
//!
//! To re-bless after an *intentional* semantic change:
//!
//! ```text
//! BUMP_BLESS_GOLDEN=1 cargo test --test golden_reports
//! ```

use bump_bench::experiment::{run_grid, ExperimentGrid, ExperimentSpec, MetricRow};
use bump_sim::{Engine, Preset, RunOptions};
use bump_workloads::Workload;
use std::path::PathBuf;

fn golden_options(engine: Engine) -> RunOptions {
    RunOptions {
        cores: 2,
        warmup_instructions: 30_000,
        measure_instructions: 30_000,
        max_cycles: 3_000_000,
        seed: 42,
        small_llc: true,
        engine,
    }
}

/// Four mechanisms and a spread of workloads: the close-row baseline,
/// the open-row baseline, both prefetch baselines with VWQ, the
/// Full-region strawman, and BuMP itself.
fn golden_grid(engine: Engine) -> ExperimentGrid {
    let opts = golden_options(engine);
    let mut grid = ExperimentGrid::new();
    for (preset, workload) in [
        (Preset::BaseClose, Workload::WebSearch),
        (Preset::BaseOpen, Workload::DataServing),
        (Preset::SmsVwq, Workload::MediaStreaming),
        (Preset::Vwq, Workload::OnlineAnalytics),
        (Preset::FullRegion, Workload::SoftwareTesting),
        (Preset::Bump, Workload::WebSearch),
    ] {
        grid.push(ExperimentSpec::new(preset, workload, opts));
    }
    grid
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("golden")
        .join("engine_golden.csv")
}

#[test]
fn golden_cells_match_committed_snapshot_under_both_engines() {
    let path = golden_path();
    if std::env::var_os("BUMP_BLESS_GOLDEN").is_some() {
        let grid = golden_grid(Engine::Event);
        let csv = run_grid(&grid, 1).to_csv();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &csv).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), csv.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with BUMP_BLESS_GOLDEN=1 to create it",
            path.display()
        )
    });
    for engine in [Engine::Event, Engine::Cycle] {
        let grid = golden_grid(engine);
        let csv = run_grid(&grid, 1).to_csv();
        assert_eq!(
            csv, golden,
            "{engine} engine drifted from the golden snapshot; if the \
             change is intentional, re-bless with BUMP_BLESS_GOLDEN=1"
        );
    }
}

/// The serving tier stores only a cell's CSV row and renders the
/// frame's `row` object from it, so that rendering must reproduce
/// `MetricRow::to_json` byte for byte.
#[test]
fn golden_rows_render_from_their_csv() {
    for row in run_grid(&golden_grid(Engine::Event), 1).metric_rows() {
        let rendered = MetricRow::csv_to_json(&row.to_csv()).expect("a metric row");
        assert_eq!(
            rendered.to_string(),
            row.to_json().to_string(),
            "{}",
            row.label
        );
    }
}
