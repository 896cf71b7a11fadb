//! The `storm` and `bulk` workloads: simulator cells run in this
//! process on one thread.
//!
//! `storm` repeats the Full-region × Web Search cell, whose retry
//! storms, fast-forward and DRAM drain dominate its host time. `bulk`
//! repeats the paper's {Base-close, SMS+VWQ, BuMP} × six-workload grid
//! through `run_grid`, which never replays a storm. Both run on the
//! paper platform (16 cores, 4 MB LLC) with the event engine, at
//! fractions of the paper's windows chosen so that one run repeats
//! its operation several times and reports medians.
//!
//! Operation `i` of a run draws its workload seed from the run's seed
//! and `i`. A cell's host time depends on its workload seed, so
//! spreading each run over several seeds keeps its medians from
//! resting on one seed's draw.

use crate::host::{to_reference, Reference};
use crate::metrics::{
    peak_rss_mb, process_cpu_s, reset_peak_rss, setup_sample, thread_cpu_s, Run, PAPER_IPC_GAIN,
    PAPER_NJ_SAVING, SETUP_SAMPLES,
};
use crate::stats::{mean, median, ratio};
use bump_bench::experiment::{
    derive_cell_seed, run_grid_with, ExperimentGrid, ExperimentSpec, MetricRow,
};
use bump_sim::{
    config_for, run_experiment_with_config, Engine, Phase, Preset, RunOptions, SimReport, System,
    SystemConfig,
};
use bump_workloads::Workload;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of the paper's warmup and measurement windows both workloads
/// run.
pub const WINDOW_SCALE: f64 = 0.05;
/// The presets of the paper's headline comparison.
const BULK_PRESETS: [Preset; 3] = [Preset::BaseClose, Preset::SmsVwq, Preset::Bump];
/// Operations every plain run completes; the model metrics come from
/// exactly these, so they repeat bit for bit for a seed.
const MODEL_OPS: usize = 3;

/// Which of the two simulator workloads runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-region × Web Search, repeated.
    Storm,
    /// {Base-close, SMS+VWQ, BuMP} × all workloads via `run_grid`.
    Bulk,
}

/// Paper-platform options at [`WINDOW_SCALE`] of the paper windows,
/// with the workload seed of operation `op` of a run with `seed`.
fn options(seed: u64, op: usize) -> RunOptions {
    let mut opts = RunOptions::paper().scaled(WINDOW_SCALE);
    opts.seed = derive_cell_seed(seed, &format!("perfbench/{op}"));
    opts.engine = Engine::Event;
    opts
}

/// The cells operation `op` of a run with `seed` simulates, in order.
pub fn cells(kind: Kind, seed: u64, op: usize) -> Vec<ExperimentSpec> {
    let opts = options(seed, op);
    match kind {
        Kind::Storm => vec![ExperimentSpec::new(
            Preset::FullRegion,
            Workload::WebSearch,
            opts,
        )],
        Kind::Bulk => ExperimentGrid::cartesian(&BULK_PRESETS, &Workload::all(), opts)
            .cells()
            .to_vec(),
    }
}

fn config(spec: &ExperimentSpec) -> SystemConfig {
    config_for(spec.preset, spec.workload, spec.options)
}

type Results = Vec<(ExperimentSpec, SimReport)>;

/// The output checks every cell must pass: its whole measurement
/// window retired (no `max_cycles` truncation) and the DRAM timing
/// audit found nothing.
fn check_cells(run: &mut Run, results: &Results) {
    for (spec, r) in results {
        run.fail_unless(r.instructions >= spec.options.measure_instructions, || {
            format!(
                "{} retired {} of {} instructions",
                spec.label, r.instructions, spec.options.measure_instructions
            )
        });
        run.fail_unless(r.audit_errors == 0, || {
            format!("{}: {} audit errors", spec.label, r.audit_errors)
        });
    }
}

fn rows_of(results: &Results) -> Vec<MetricRow> {
    results.iter().map(|(s, r)| MetricRow::of(s, r)).collect()
}

/// Simulated instructions per second of `secs`, in thousands: the
/// warmup window plus what each measurement window retired.
fn kips(results: &Results, secs: f64) -> f64 {
    let instr: u64 = results
        .iter()
        .map(|(s, r)| s.options.warmup_instructions + r.instructions)
        .sum();
    instr as f64 / secs / 1e3
}

/// One `setup_s` sample of the process CPU time of the set-up step:
/// building the first operation's cell specs and each cell's simulated
/// system.
fn setup_s(kind: Kind, seed: u64) -> f64 {
    setup_sample(|| {
        let cpu0 = process_cpu_s();
        let systems: Vec<System> = cells(kind, seed, 0)
            .iter()
            .map(|s| System::new(config(s)))
            .collect();
        let cpu = process_cpu_s() - cpu0;
        drop(black_box(systems));
        cpu
    })
}

/// What one operation took.
struct OpTimes {
    /// CPU time of the thread that simulated, in seconds.
    cpu: f64,
    /// CPU time of each cell, in seconds.
    cells: Vec<f64>,
    /// Wall time `run_grid` spent outside its cells, in seconds (0 for
    /// a single cell).
    grid_overhead: f64,
}

/// One operation through the entry point a user calls: the cell
/// through `run_experiment_with_config`, or the grid through
/// `run_grid` on one thread.
fn plain_op(kind: Kind, specs: &[ExperimentSpec]) -> (Results, OpTimes) {
    if kind == Kind::Storm {
        let cpu0 = thread_cpu_s();
        let results: Results = specs
            .iter()
            .map(|s| (s.clone(), run_experiment_with_config(config(s), s.options)))
            .collect();
        let cpu = thread_cpu_s() - cpu0;
        let times = OpTimes {
            cpu,
            cells: vec![cpu],
            grid_overhead: 0.0,
        };
        return (results, times);
    }
    let mut grid = ExperimentGrid::new();
    for s in specs {
        grid.push(s.clone());
    }
    // One fresh worker runs the cells back to back, so the gaps between
    // its CPU times at the completion stamps are the cells' CPU times.
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(specs.len())));
    let on_cell = {
        let stamps = Arc::clone(&stamps);
        move |_: usize, _: &ExperimentSpec, _: &SimReport| {
            stamps
                .lock()
                .expect("stamp list")
                .push((thread_cpu_s(), Instant::now()));
        }
    };
    let t = Instant::now();
    let grid_results = run_grid_with(&grid, 1, on_cell);
    let wall = t.elapsed().as_secs_f64();
    let stamps = stamps.lock().expect("stamp list").clone();
    let mut prev = 0.0;
    let cells = stamps
        .iter()
        .map(|&(c, _)| {
            let d = c - prev;
            prev = c;
            d
        })
        .collect();
    let (cpu, grid_overhead) = match (stamps.first(), stamps.last()) {
        (Some(&(first_cpu, first)), Some(&(last_cpu, last))) => {
            // The cells ran from the first one's start, its CPU time
            // before its completion, to the last completion.
            let in_cells = last.duration_since(first).as_secs_f64() + first_cpu;
            (last_cpu, wall - in_cells)
        }
        _ => (f64::NAN, f64::NAN),
    };
    let results = grid_results
        .iter()
        .map(|(s, r)| (s.clone(), r.clone()))
        .collect();
    let times = OpTimes {
        cpu,
        cells,
        grid_overhead,
    };
    (results, times)
}

/// The plain run: end-to-end metrics. A reference lap follows every
/// operation, and the host-time figures of the operation are scaled to
/// the reference host by the laps on either side of it (see
/// [`crate::host`]). The `setup_s` samples are spread over the run,
/// one before each of the first operations.
pub fn plain(kind: Kind, seed: u64, seconds: f64, run: &mut Run) {
    let start = Instant::now();
    let (mut op_kips, mut cell_ms, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut speeds, mut unscaled_kips) = (Vec::new(), Vec::new(), Vec::new());
    let mut model: Results = Vec::new();
    let mut reference = Reference::new();
    let mut lap = reference.lap();
    let mut op = 0;
    while op < MODEL_OPS || start.elapsed() < Duration::from_secs_f64(seconds) {
        let setup = (setups.len() < SETUP_SAMPLES).then(|| setup_s(kind, seed));
        let specs = cells(kind, seed, op);
        reset_peak_rss();
        let (results, times) = plain_op(kind, &specs);
        rss.push(peak_rss_mb());
        let next = reference.lap();
        let scale = to_reference(lap, next);
        lap = next;
        speeds.push(scale);
        setups.extend(setup.map(|s| s * scale));
        run.op(results.len() == specs.len(), || {
            "an operation lost cells".into()
        });
        check_cells(run, &results);
        unscaled_kips.push(kips(&results, times.cpu));
        op_kips.push(kips(&results, times.cpu * scale));
        cell_ms.extend(times.cells.iter().map(|s| s * scale * 1e3));
        if op < MODEL_OPS {
            model.extend(results);
        }
        op += 1;
    }
    while setups.len() < SETUP_SAMPLES {
        let setup = setup_s(kind, seed);
        let next = reference.lap();
        setups.push(setup * to_reference(lap, next));
        lap = next;
    }
    run.set("setup_s", median(&setups), setups.len());
    run.set("sim_kips", median(&op_kips), op_kips.len());
    run.set("op_ms_p50", median(&cell_ms), cell_ms.len());
    run.set("peak_rss_mb", median(&rss), rss.len());
    run.note(format!(
        "{op} ops of {} cell(s) at {} x paper windows in {:.1} s",
        cells(kind, seed, 0).len(),
        WINDOW_SCALE,
        start.elapsed().as_secs_f64()
    ));
    run.note(format!(
        "host speed {:.3} x the reference host (median of {op} ops); \
         sim_kips unscaled {:.2} kinstr/s",
        median(&speeds),
        median(&unscaled_kips)
    ));
    model_metrics(kind, &model, run);
}

/// The exact model metrics over the first [`MODEL_OPS`] operations'
/// cells, and the paper reference block.
fn model_metrics(kind: Kind, model: &Results, run: &mut Run) {
    let n = model.len();
    run.set(
        "sim_ipc",
        mean(&model.iter().map(|(_, r)| r.ipc()).collect::<Vec<_>>()),
        n,
    );
    let nj: Vec<f64> = model
        .iter()
        .map(|(_, r)| r.energy_per_access_nj())
        .collect();
    run.set("mem_nj_per_access", mean(&nj), n);
    // BuMP/Base-close pairs on one workload and workload seed: in the
    // `bulk` grids; for `storm`, run here once per seed, untimed.
    let result = |r: &SimReport| (r.energy_per_access_nj(), r.ipc());
    let pairs: Vec<Pair> = match kind {
        Kind::Bulk => model
            .iter()
            .filter(|(s, _)| s.preset == Preset::Bump)
            .map(|(bump, r)| {
                let (_, base) = model
                    .iter()
                    .find(|(s, _)| {
                        s.preset == Preset::BaseClose
                            && s.workload == bump.workload
                            && s.options == bump.options
                    })
                    .expect("every bulk grid has Base-close");
                (result(r), result(base))
            })
            .collect(),
        Kind::Storm => model
            .iter()
            .map(|(s, _)| {
                let pair: Results = [Preset::Bump, Preset::BaseClose]
                    .into_iter()
                    .map(|preset| {
                        let spec = ExperimentSpec::new(preset, s.workload, s.options);
                        let report = run_experiment_with_config(config(&spec), s.options);
                        (spec, report)
                    })
                    .collect();
                check_cells(run, &pair);
                (result(&pair[0].1), result(&pair[1].1))
            })
            .collect(),
    };
    let what = match kind {
        Kind::Storm => "Web Search",
        Kind::Bulk => "all six workloads",
    };
    paper_block(
        run,
        &pairs,
        &format!(
            "{what}, {MODEL_OPS} workload seeds, paper platform, {WINDOW_SCALE} x paper windows"
        ),
    );
}

/// One workload's BuMP and Base-close results, each as (memory energy
/// per access in nJ, IPC).
pub type Pair = ((f64, f64), (f64, f64));

/// Sets the two paper-gap metrics from BuMP/Base-close `pairs` run at
/// `scale`, and prints the reference block beside them.
pub fn paper_block(run: &mut Run, pairs: &[Pair], scale: &str) {
    let saving = mean(
        &pairs
            .iter()
            .map(|((b, _), (c, _))| 1.0 - b / c)
            .collect::<Vec<_>>(),
    );
    let gain = mean(
        &pairs
            .iter()
            .map(|((_, b), (_, c))| b / c - 1.0)
            .collect::<Vec<_>>(),
    );
    let n = pairs.len();
    run.set(
        "nj_saving_gap_pp",
        (saving - PAPER_NJ_SAVING).abs() * 100.0,
        n,
    );
    run.set("ipc_gain_gap_pp", (gain - PAPER_IPC_GAIN).abs() * 100.0, n);
    run.note(format!(
        "paper reference ({n} BuMP/Base-close pairs; {scale}):\n  \
         energy per access saving: reproduced {:.2}%, paper 34%\n  \
         IPC gain:                 reproduced {:+.2}%, paper +9%\n  \
         These two paper averages are the model's only reference; \
         it is unvalidated per workload.",
        saving * 100.0,
        gain * 100.0
    ));
}

/// Host-time laps of one cell driven through `System` directly.
#[derive(Clone, Copy, Debug)]
struct Laps {
    build: f64,
    warmup: f64,
    measure: f64,
}

/// Runs one cell through `System::{new, run, reset_stats, report}`,
/// timing each step, with the engine phase profiler on or off.
fn direct_cell(spec: &ExperimentSpec, profile: bool) -> (SimReport, Laps) {
    let opts = spec.options;
    let mut cfg = config(spec);
    cfg.engine = opts.engine;
    let t0 = Instant::now();
    let mut sys = System::new(cfg);
    let build = t0.elapsed().as_secs_f64();
    if profile {
        sys.enable_phase_profiling();
    }
    let t1 = Instant::now();
    sys.run(opts.warmup_instructions, opts.max_cycles);
    let warmup = t1.elapsed().as_secs_f64();
    sys.reset_stats();
    let t2 = Instant::now();
    sys.run(opts.measure_instructions, opts.max_cycles);
    let measure = t2.elapsed().as_secs_f64();
    let report = sys.report();
    let laps = Laps {
        build,
        warmup,
        measure,
    };
    (report, laps)
}

/// The traced run: per-layer metrics. Each cycle runs one operation's
/// cells in two or three arms: every cell driven through `System` with
/// the phase profiler off (the build/warmup/measure split) and with it
/// on (the phase split), and for `bulk` the grid through `run_grid`
/// (its overhead). All arms of a cycle must report identical rows.
pub fn traced(kind: Kind, seed: u64, seconds: f64, run: &mut Run) {
    let start = Instant::now();
    let (mut direct_kips, mut profiled_kips) = (Vec::new(), Vec::new());
    let mut grid_overheads = Vec::new();
    let mut laps: Vec<Laps> = Vec::new();
    let (mut profiled, mut first_cycle): (Vec<SimReport>, Vec<SimReport>) =
        (Vec::new(), Vec::new());
    let mut op = 0;
    while op == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let specs = cells(kind, seed, op);
        let mut arms: Vec<(&str, Results)> = Vec::new();
        if kind == Kind::Bulk {
            let (results, times) = plain_op(kind, &specs);
            grid_overheads.push(times.grid_overhead);
            arms.push(("run_grid", results));
        }
        for profile in [false, true] {
            let cpu0 = thread_cpu_s();
            let mut cell_laps = Vec::with_capacity(specs.len());
            let results: Results = specs
                .iter()
                .map(|s| {
                    let (r, l) = direct_cell(s, profile);
                    cell_laps.push(l);
                    (s.clone(), r)
                })
                .collect();
            let cpu = thread_cpu_s() - cpu0;
            if profile {
                profiled_kips.push(kips(&results, cpu));
                profiled.extend(results.iter().map(|(_, r)| r.clone()));
                if op == 0 {
                    first_cycle = results.iter().map(|(_, r)| r.clone()).collect();
                }
                arms.push(("profiled", results));
            } else {
                direct_kips.push(kips(&results, cpu));
                laps.extend(cell_laps);
                arms.push(("direct", results));
            }
        }
        let reference = rows_of(&arms[0].1);
        for (arm, results) in &arms {
            run.op(results.len() == specs.len(), || {
                format!("{arm}: lost cells")
            });
            check_cells(run, results);
            run.fail_unless(rows_of(results) == reference, || {
                format!("{arm} arm reported different results from {}", arms[0].0)
            });
        }
        op += 1;
    }
    let lap_mean = |f: fn(&Laps) -> f64| mean(&laps.iter().map(f).collect::<Vec<_>>());
    run.set("sim.build_s", lap_mean(|l| l.build), laps.len());
    run.set("sim.warmup_s", lap_mean(|l| l.warmup), laps.len());
    run.set("sim.measure_s", lap_mean(|l| l.measure), laps.len());
    // Every direct cell has a profiled twin with the same cycle count.
    let cycles: u64 = profiled.iter().map(|r| r.cycles).sum();
    let measure: f64 = laps.iter().map(|l| l.measure).sum();
    run.set(
        "sim.host_ns_per_cycle",
        measure * 1e9 / cycles as f64,
        laps.len(),
    );
    if kind == Kind::Bulk {
        run.set(
            "bench.grid_overhead_s",
            median(&grid_overheads),
            grid_overheads.len(),
        );
    }
    run.set(
        "trace.overhead_frac",
        median(&direct_kips) / median(&profiled_kips) - 1.0,
        profiled_kips.len(),
    );
    phase_metrics(&profiled, run);
    model_layer_metrics(&first_cycle, cells(kind, seed, 0)[0].options.cores, run);
    run.note(format!(
        "traced: {op} cycle(s) of {} cell(s) in {:.1} s",
        cells(kind, seed, 0).len(),
        start.elapsed().as_secs_f64()
    ));
}

/// Per-cell mean engine phase self-times over every profiled cell.
fn phase_metrics(reports: &[SimReport], run: &mut Run) {
    let n = reports.len();
    for (name, phase) in [
        ("sim.fast_forward_s", Phase::FastForward),
        ("sim.storm_replay_s", Phase::StormReplay),
        ("sim.bookkeeping_s", Phase::Bookkeeping),
        ("cpu.core_tick_s", Phase::CoreTick),
        ("noc.delivery_s", Phase::NocDelivery),
        ("dram.tick_s", Phase::DramTick),
        ("dram.drain_s", Phase::DramDrain),
        ("llc.pump_s", Phase::LlcPump),
    ] {
        let secs: Vec<f64> = reports
            .iter()
            .map(|r| {
                r.phase
                    .as_ref()
                    .map_or(0.0, |p| p.sample(phase).nanos as f64 / 1e9)
            })
            .collect();
        run.set(name, mean(&secs), n);
    }
}

/// The exact per-layer counters and ratios of the first cycle's
/// profiled cells (per-cell means, or ratios of summed counts).
fn model_layer_metrics(reports: &[SimReport], cores: usize, run: &mut Run) {
    let n = reports.len();
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(f).sum::<u64>();
    let per_cell = |f: &dyn Fn(&SimReport) -> f64| mean(&reports.iter().map(f).collect::<Vec<_>>());
    let calls = |r: &SimReport, phase| r.phase.as_ref().map_or(0, |p| p.sample(phase).calls);
    let cycles = sum(&|r| r.cycles);
    run.set(
        "sim.fast_forward_calls",
        per_cell(&|r| calls(r, Phase::FastForward) as f64),
        n,
    );
    run.set(
        "sim.storm_rounds",
        per_cell(&|r| calls(r, Phase::StormReplay) as f64),
        n,
    );
    // Every full engine step ticks the cores exactly once.
    run.set(
        "sim.full_step_frac",
        ratio(sum(&|r| calls(r, Phase::CoreTick)), cycles),
        n,
    );
    run.set(
        "cpu.load_stall_frac",
        ratio(sum(&|r| r.load_stall_cycles), cycles * cores as u64),
        n,
    );
    run.set("noc.bytes", per_cell(&|r| r.noc.bytes as f64), n);
    run.set(
        "dram.row_hit_ratio",
        ratio(
            sum(&|r| r.row_hit_ratio().hits),
            sum(&|r| r.row_hit_ratio().total),
        ),
        n,
    );
    run.set(
        "dram.demand_read_latency_avg",
        ratio(
            sum(&|r| r.dram.total_demand_read_latency),
            sum(&|r| r.dram.demand_reads_completed),
        ),
        n,
    );
    run.set(
        "llc.mshr_stalls",
        per_cell(&|r| r.llc.mshr_stalls as f64),
        n,
    );
    run.set("llc.spec_dropped", per_cell(&|r| r.spec_dropped as f64), n);
    run.set(
        "llc.demand_hit_ratio",
        ratio(
            sum(&|r| r.llc.demand_hits.hits),
            sum(&|r| r.llc.demand_hits.total),
        ),
        n,
    );
    run.set(
        "llc.spec_read_coverage",
        per_cell(&SimReport::predicted_read_fraction),
        n,
    );
    run.set(
        "llc.spec_read_overfetch",
        per_cell(&SimReport::read_overfetch_fraction),
        n,
    );
    run.set(
        "llc.eager_write_frac",
        per_cell(&SimReport::predicted_write_fraction),
        n,
    );
    run.set(
        "llc.redirty_frac",
        per_cell(&SimReport::extra_writeback_fraction),
        n,
    );
}
