//! Times simulation cells under both engines and reports the
//! event-engine speedup and the cross-engine identity check (the
//! measurement behind docs/PERFORMANCE.md's engine comparison).
//!
//! Usage:
//!   cargo run --release --example engine_bench -- \
//!       [paper|quick] [preset] [workload] [--scenario NAME] [--json]
//!
//! Human mode times one cell (default: quick scale, Base-open, Web
//! Search) and prints the speedup. `paper` runs the 16-core, 4MB-LLC
//! configuration of the evaluation (§V.A) — the scale the `--full`
//! reproduction suite sweeps. Any other argument, or a `--scenario`
//! without a valid name, exits with status 2 and lists the presets and
//! workloads.
//!
//! `--json` emits a machine-readable report on stdout (progress goes to
//! stderr) for CI's bench job: per-cell wall time under both engines,
//! cells/sec, and the cross-engine identity check. Without an explicit
//! preset it runs a pinned cell list — Base-open, Full-region, and BuMP
//! on the paper platform plus Full-region on the non-default
//! `ddr4_2400` scenario — so the JSON always covers the retry-storm
//! worst case and a scenario-axis cell.

use bump_sim::json::Json;
use bump_sim::{
    config_for_scenario, run_experiment_with_config, Engine, Preset, RunOptions, Scenario,
};
use bump_workloads::Workload;
use std::time::Instant;

struct Cell {
    preset: Preset,
    workload: Workload,
    scenario: Scenario,
}

struct Timing {
    cycle_wall_s: f64,
    event_wall_s: f64,
    cycles: u64,
    identical: bool,
}

/// Runs `cell` under both engines and checks the reports are
/// byte-identical (the same check `tests/engine_equivalence.rs` pins).
fn time_cell(cell: &Cell, base: RunOptions) -> Timing {
    let mut wall = [0.0f64; 2];
    let mut reports = Vec::new();
    for (i, engine) in [Engine::Cycle, Engine::Event].into_iter().enumerate() {
        let opts = RunOptions { engine, ..base };
        let cfg = config_for_scenario(cell.preset, cell.workload, opts, &cell.scenario);
        let t = Instant::now();
        reports.push(run_experiment_with_config(cfg, opts));
        wall[i] = t.elapsed().as_secs_f64();
    }
    Timing {
        cycle_wall_s: wall[0],
        event_wall_s: wall[1],
        cycles: reports[0].cycles,
        identical: format!("{:?}", reports[0]) == format!("{:?}", reports[1]),
    }
}

fn scenario_label(s: &Scenario) -> String {
    if s.is_default() {
        "default".to_string()
    } else {
        s.name()
    }
}

/// Prints `msg` with the accepted arguments and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!(
        "engine_bench: {msg}\n\
         usage: engine_bench [paper|quick] [PRESET] [WORKLOAD] [--scenario NAME] [--json]\n\
         presets: {}\n\
         workloads: {}",
        Preset::all().map(|p| p.name()).join(", "),
        Workload::all().map(|w| w.name()).join(", "),
    );
    std::process::exit(2);
}

fn main() {
    let mut paper = false;
    let mut json = false;
    let mut preset = None;
    let mut workload = None;
    let mut scenario = Scenario::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "paper" => paper = true,
            "quick" => {}
            "--json" => json = true,
            "--scenario" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| usage_error("--scenario needs a NAME"));
                scenario = Scenario::from_name(&name).unwrap_or_else(|e| usage_error(&e));
            }
            a => {
                if let Some(p) = Preset::all().into_iter().find(|p| p.name() == a) {
                    preset.get_or_insert(p);
                } else if let Some(w) = Workload::all().into_iter().find(|w| w.name() == a) {
                    workload.get_or_insert(w);
                } else {
                    usage_error(&format!("unknown argument '{a}'"));
                }
            }
        }
    }
    let workload = workload.unwrap_or(Workload::WebSearch);
    let base = if paper {
        RunOptions::paper()
    } else {
        RunOptions::quick(8)
    };
    let scale = if paper { "paper" } else { "quick" };

    let cells: Vec<Cell> = match preset {
        // An explicit preset times exactly that cell.
        Some(p) => vec![Cell {
            preset: p,
            workload,
            scenario,
        }],
        // The pinned CI list: the storm-heavy strawman, the two ends of
        // the baseline/BuMP spectrum, and one non-default scenario.
        None if json => {
            let mut cells: Vec<Cell> = [Preset::BaseOpen, Preset::FullRegion, Preset::Bump]
                .into_iter()
                .map(|preset| Cell {
                    preset,
                    workload,
                    scenario: Scenario::default(),
                })
                .collect();
            cells.push(Cell {
                preset: Preset::FullRegion,
                workload,
                scenario: Scenario::from_name("ddr4_2400").expect("known scenario"),
            });
            cells
        }
        None => vec![Cell {
            preset: Preset::BaseOpen,
            workload,
            scenario,
        }],
    };

    let mut rows = Vec::new();
    let mut all_identical = true;
    for cell in &cells {
        let label = format!(
            "{} x {} @ {} ({scale} scale, {} cores)",
            cell.preset.name(),
            cell.workload.name(),
            scenario_label(&cell.scenario),
            base.cores,
        );
        eprintln!("cell: {label}");
        let t = time_cell(cell, base);
        eprintln!(
            "  cycle: {:>7.2}s  event: {:>7.2}s  speedup: {:.2}x  cycles={}  identical={}",
            t.cycle_wall_s,
            t.event_wall_s,
            t.cycle_wall_s / t.event_wall_s,
            t.cycles,
            t.identical,
        );
        all_identical &= t.identical;
        rows.push((cell, t));
    }

    if json {
        // One object per cell; schema documented in docs/PERFORMANCE.md.
        let cell = |(cell, t): &(&Cell, Timing)| {
            Json::obj(vec![
                ("preset", Json::from(cell.preset.name())),
                ("workload", Json::from(cell.workload.name())),
                ("scenario", Json::from(scenario_label(&cell.scenario))),
                ("cycle_wall_s", Json::fixed(t.cycle_wall_s, 3)),
                ("event_wall_s", Json::fixed(t.event_wall_s, 3)),
                ("speedup", Json::fixed(t.cycle_wall_s / t.event_wall_s, 3)),
                ("cycle_cells_per_s", Json::fixed(1.0 / t.cycle_wall_s, 4)),
                ("event_cells_per_s", Json::fixed(1.0 / t.event_wall_s, 4)),
                ("cycles", Json::from(t.cycles)),
                ("identical", Json::from(t.identical)),
            ])
        };
        let doc = Json::obj(vec![
            ("schema", Json::from("engine-bench-v1")),
            ("scale", Json::from(scale)),
            ("cores", Json::from(base.cores)),
            ("cells", Json::Arr(rows.iter().map(cell).collect())),
        ]);
        println!("{doc}");
    } else {
        for (_, t) in &rows {
            println!(
                "  reports {}; event-engine speedup: {:.2}x",
                if t.identical {
                    "byte-identical"
                } else {
                    "DIVERGED"
                },
                t.cycle_wall_s / t.event_wall_s,
            );
        }
    }
    assert!(all_identical, "engines diverged");
}
