//! The figure/table registry: every reproduction target as a pair of
//! *grid* (which simulations it needs) and *render* (how it formats
//! their reports).
//!
//! Binaries in `src/bin/` are thin wrappers over [`run_named`]; the
//! `repro_all` binary merges every figure's grid into one deduplicated
//! [`ExperimentGrid`], simulates it once in parallel, and renders all
//! figures from the shared results.

use crate::experiment::{
    results_dir, run_grid_with, write_json, ExperimentGrid, ExperimentSpec, GridArgs, GridResults,
    IncrementalCsv, SeedSummary,
};
use crate::{emit, paper, pct, Scale, TextTable};
use bump::BumpConfig;
use bump_energy::ChipEnergyParams;
use bump_sim::json::Json;
use bump_sim::{config_for, Preset, RunOptions, Scenario, SimReport, SystemConfig};
use bump_types::{Interleaving, MemSpec};
use bump_workloads::Workload;

/// One reproduction target: a named grid + renderer pair.
#[derive(Clone, Copy, Debug)]
pub struct Figure {
    /// Output name (`results/<name>.txt` etc.).
    pub name: &'static str,
    /// Human-readable one-liner.
    pub title: &'static str,
    /// The cells this figure needs at a given scale.
    pub grid: fn(Scale) -> ExperimentGrid,
    /// Formats the figure from grid results.
    pub render: fn(&GridResults, Scale) -> String,
}

/// All reproduction targets, in `repro_all` order.
pub fn all() -> Vec<Figure> {
    vec![
        Figure {
            name: "tab23_parameters",
            title: "Tables II-III: architectural and energy parameters",
            grid: |_| ExperimentGrid::new(),
            render: |_, _| render_tab23(),
        },
        Figure {
            name: "fig01_energy_breakdown",
            title: "Figure 1: server energy breakdown",
            grid: |s| ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), s.options()),
            render: render_fig01,
        },
        Figure {
            name: "fig02_row_buffer_hit",
            title: "Figure 2: DRAM row-buffer hit ratio",
            grid: |s| {
                ExperimentGrid::cartesian(
                    &[Preset::BaseOpen, Preset::Sms, Preset::Vwq],
                    &Workload::all(),
                    s.options(),
                )
            },
            render: render_fig02,
        },
        Figure {
            name: "fig03_traffic_breakdown",
            title: "Figure 3: DRAM access breakdown",
            grid: |s| ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), s.options()),
            render: render_fig03,
        },
        Figure {
            name: "fig05_region_density",
            title: "Figure 5: region access density",
            grid: |s| ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), s.options()),
            render: render_fig05,
        },
        Figure {
            name: "tab1_late_modifications",
            title: "Table I: late modifications",
            grid: |s| ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), s.options()),
            render: render_tab1,
        },
        Figure {
            name: "fig08_prediction_accuracy",
            title: "Figure 8: prediction accuracy",
            grid: |s| {
                ExperimentGrid::cartesian(
                    &[Preset::FullRegion, Preset::Bump],
                    &Workload::all(),
                    s.options(),
                )
            },
            render: render_fig08,
        },
        Figure {
            name: "fig09_energy_per_access",
            title: "Figure 9: memory energy per access",
            grid: |s| ExperimentGrid::cartesian(&FIG9_PRESETS, &Workload::all(), s.options()),
            render: render_fig09,
        },
        Figure {
            name: "fig10_performance",
            title: "Figure 10: system performance",
            grid: |s| ExperimentGrid::cartesian(&FIG9_PRESETS, &Workload::all(), s.options()),
            render: render_fig10,
        },
        Figure {
            name: "fig11_design_space",
            title: "Figure 11: design-space sweep",
            grid: fig11_grid,
            render: render_fig11,
        },
        Figure {
            name: "fig12_onchip_overheads",
            title: "Figure 12: on-chip overheads",
            grid: |s| {
                ExperimentGrid::cartesian(
                    &[Preset::BaseOpen, Preset::Bump],
                    &Workload::all(),
                    s.options(),
                )
            },
            render: render_fig12,
        },
        Figure {
            name: "fig13_summary",
            title: "Figure 13: summary comparison",
            grid: |s| {
                ExperimentGrid::cartesian(
                    &[
                        Preset::BaseClose,
                        Preset::BaseOpen,
                        Preset::Sms,
                        Preset::Vwq,
                        Preset::SmsVwq,
                        Preset::Bump,
                    ],
                    &Workload::all(),
                    s.options(),
                )
            },
            render: render_fig13,
        },
        Figure {
            name: "tab4_bump_row_hits",
            title: "Table IV: BuMP row-buffer hits",
            grid: |s| ExperimentGrid::cartesian(&[Preset::Bump], &Workload::all(), s.options()),
            render: render_tab4,
        },
        Figure {
            name: "ablations",
            title: "Ablation studies",
            grid: ablations_grid,
            render: render_ablations,
        },
        Figure {
            name: "virtualization",
            title: "Section VI: server virtualization",
            grid: virtualization_grid,
            render: render_virtualization,
        },
        Figure {
            name: "scenarios",
            title: "Scenario sweep: preset x memory spec x LLC capacity",
            grid: scenarios_grid,
            render: render_scenarios,
        },
        Figure {
            name: "calibrate",
            title: "Calibration sweep (dev tool)",
            grid: |s| ExperimentGrid::cartesian(&Preset::all(), &Workload::all(), s.options()),
            render: render_calibrate,
        },
    ]
}

/// The targets `repro_all` regenerates, in the historical order. The
/// `calibrate` dev sweep and the `scenarios` platform sweep are
/// available by name but not part of the default suite (the scenario
/// grid shares no cells with the paper figures, so merging it would
/// only lengthen `repro_all` without deduplication wins).
pub fn repro_suite() -> Vec<Figure> {
    all()
        .into_iter()
        .filter(|f| f.name != "calibrate" && f.name != "scenarios")
        .collect()
}

/// Looks a figure up by output name.
pub fn by_name(name: &str) -> Option<Figure> {
    all().into_iter().find(|f| f.name == name)
}

/// Builds, runs, renders, and emits one figure (the body of every thin
/// figure binary). Also writes the structured per-cell metrics as
/// `results/<name>.csv` / `.json` when the figure runs simulations —
/// streamed row-by-row as cells land, then atomically rewritten in
/// grid order on completion. With `--seeds N` (N > 1) every cell is
/// replicated across derived seeds; the figure renders from the
/// replica-0 (calibrated-seed) results and a mean ± stddev summary is
/// written as `results/<name>_seeds.csv` / `.json`.
pub fn run_figure(figure: &Figure, args: GridArgs) {
    let grid = (figure.grid)(args.scale);
    let expanded = grid
        .replicate_seeds(args.seeds)
        .instrument(args.instruments);
    let stream = IncrementalCsv::new(figure.name);
    let all = run_grid_with(&expanded, args.threads, move |_, spec, report| {
        stream.append(&crate::experiment::MetricRow::of(spec, report));
    });
    if args.instruments.profile {
        write_profile(figure.name, &all);
    }
    // Render from the replica-0 (calibrated-seed) subset when seeds
    // were replicated; borrow the results directly otherwise.
    let selected;
    let results = if args.seeds > 1 {
        selected = all.select(&grid);
        &selected
    } else {
        &all
    };
    let mut out = (figure.render)(results, args.scale);
    if args.seeds > 1 && !all.is_empty() {
        let summary = SeedSummary::from_results(&grid, &all, args.seeds);
        out.push('\n');
        out.push_str(&render_seed_table(&summary));
        summary.write_files(figure.name);
    }
    emit(figure.name, &out);
    if !all.is_empty() {
        all.write_files(figure.name);
        all.write_telemetry_files(figure.name);
    }
}

/// Writes `results/profile_<name>.json`: the per-cell and aggregate
/// engine-phase wall-clock breakdown of a `--profile` run
/// ([`profile_json`]).
pub fn write_profile(name: &str, results: &GridResults) {
    if let Some(dir) = results_dir() {
        let path = dir.join(format!("profile_{name}.json"));
        write_json(&path, &profile_json(name, results));
    }
}

/// The `engine-phase-profile-v1` document (phase catalogue in
/// `docs/OBSERVABILITY.md`): per-phase nanos and calls summed over the
/// profiled cells of `results`, then each cell's own breakdown.
pub fn profile_json(name: &str, results: &GridResults) -> Json {
    use bump_sim::PHASE_NAMES;
    let mut total_nanos = [0u64; PHASE_NAMES.len()];
    let mut total_calls = [0u64; PHASE_NAMES.len()];
    let phase = |nanos: u64, calls: u64| {
        Json::obj(vec![
            ("nanos", Json::from(nanos)),
            ("calls", Json::from(calls)),
        ])
    };
    let mut cells = Vec::new();
    for (spec, report) in results.iter() {
        let Some(profile) = &report.phase else {
            continue;
        };
        let mut phases = Vec::new();
        for (i, sample) in profile.phases.iter().enumerate() {
            total_nanos[i] += sample.nanos;
            total_calls[i] += sample.calls;
            phases.push((sample.name, phase(sample.nanos, sample.calls)));
        }
        cells.push(Json::obj(vec![
            ("label", Json::from(spec.label.as_str())),
            ("total_nanos", Json::from(profile.total_nanos())),
            ("phases", Json::obj(phases)),
        ]));
    }
    let totals = PHASE_NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, phase(total_nanos[i], total_calls[i])))
        .collect();
    Json::obj(vec![
        ("schema", Json::from("engine-phase-profile-v1")),
        ("figure", Json::from(name)),
        ("total_nanos", Json::from(total_nanos.iter().sum::<u64>())),
        ("totals", Json::obj(totals)),
        ("cells", Json::Arr(cells)),
    ])
}

/// The per-metric mean ± sample-stddev table appended to a figure's
/// text output under `--seeds N` (the full column set is in
/// `results/<name>_seeds.csv`).
fn render_seed_table(summary: &SeedSummary) -> String {
    use crate::experiment::SEED_METRICS;
    const SHOWN: [&str; 4] = ["ipc", "row_hit", "energy_per_access_nj", "cycles"];
    let mut header = vec!["cell"];
    header.extend(SHOWN);
    let mut t = TextTable::new(&header);
    for row in summary.rows() {
        let mut cells = vec![row.label.clone()];
        for name in SHOWN {
            let idx = SEED_METRICS
                .iter()
                .position(|(n, _)| *n == name)
                .expect("shown metric is a seed metric");
            let stat = &row.stats[idx];
            cells.push(format!("{:.4} ± {:.4}", stat.mean, stat.std));
        }
        t.row(cells);
    }
    let seeds = summary.rows().first().map_or(0, |r| r.seeds);
    format!(
        "Seed variability over {seeds} replicas (mean ± sample stddev;\n\
         full metric set in results/<name>_seeds.csv):\n\n{}",
        t.render()
    )
}

/// [`run_figure`] for the registry entry called `name`, with arguments
/// parsed from the command line. Panics if `name` is unknown.
pub fn run_named(name: &str) {
    let figure = by_name(name).unwrap_or_else(|| panic!("unknown figure {name:?}"));
    run_figure(&figure, GridArgs::from_args());
}

const FIG9_PRESETS: [Preset; 4] = [
    Preset::BaseClose,
    Preset::BaseOpen,
    Preset::FullRegion,
    Preset::Bump,
];

// ---------------------------------------------------------------------
// Tables II / III (configuration print, no simulation)

fn render_tab23() -> String {
    use bump_dram::DramEnergyParams;
    use bump_types::{CacheGeometry, CoreParams, MemSpec};

    let core = CoreParams::paper();
    let spec = MemSpec::ddr3_1600();
    let timing = spec.timing;
    let geom = spec.geometry;
    let chip = ChipEnergyParams::paper();
    let dram = DramEnergyParams::paper();
    format!(
        "Table II — architectural parameters (as configured)\n\
         -----------------------------------------------------\n\
         CMP size              16 cores @ 2.5GHz (22nm)\n\
         Core                  {}-way OoO, {}-entry ROB, {}-entry LSQ\n\
         L1-D                  {}KB, {}-way, 64B blocks, {}-cycle load-to-use, {} MSHRs\n\
         LLC                   {}MB, {}-way, 8 banks, 8-cycle latency, stride prefetcher degree 4\n\
         NOC                   16x8 crossbar, 5 cycles\n\
         Main memory           {}GB, {} channels x {} ranks x {} banks, {}KB row buffer\n\
         DDR3-1600 timing      tCAS-tRCD-tRP-tRAS = {}-{}-{}-{}\n\
                               tRC-tWR-tWTR-tRTP  = {}-{}-{}-{}\n\
                               tRRD-tFAW          = {}-{}\n\
         Queues                64-entry transaction and command queues per channel\n\
         \n\
         Table III — power and energy (as configured)\n\
         -----------------------------------------------------\n\
         Core                  peak dynamic {:.0}mW, leakage {:.0}mW\n\
         LLC                   read/write {:.2}/{:.2} nJ, leakage {:.0}mW\n\
         NOC                   {:.3} nJ/B dynamic, leakage {:.0}mW\n\
         Memory controller     {:.0}mW @ 12.8GB/s (bandwidth-scaled)\n\
         DRAM (per 2GB rank)   background {:.0}-{:.0}mW\n\
                               activation {:.1}nJ, read/write {:.1}/{:.1}nJ\n\
                               I/O read/write {:.1}/{:.1}nJ\n",
        core.retire_width,
        core.rob_entries,
        core.lsq_entries,
        CacheGeometry::l1d().capacity_bytes / 1024,
        CacheGeometry::l1d().ways,
        core.l1_latency,
        core.l1_mshrs,
        CacheGeometry::llc().capacity_bytes / 1024 / 1024,
        CacheGeometry::llc().ways,
        geom.capacity_bytes >> 30,
        geom.channels,
        geom.ranks_per_channel,
        geom.banks_per_rank,
        geom.row_bytes / 1024,
        timing.t_cas,
        timing.t_rcd,
        timing.t_rp,
        timing.t_ras,
        timing.t_rc,
        timing.t_wr,
        timing.t_wtr,
        timing.t_rtp,
        timing.t_rrd,
        timing.t_faw,
        chip.core_peak_dynamic_w * 1000.0,
        chip.core_leakage_w * 1000.0,
        chip.llc_read_nj,
        chip.llc_write_nj,
        chip.llc_leakage_w * 1000.0,
        chip.noc_nj_per_byte,
        chip.noc_leakage_w * 1000.0,
        chip.mc_dynamic_w_at_ref * 1000.0,
        dram.background_idle_w * 1000.0,
        dram.background_active_w * 1000.0,
        dram.activation_nj,
        dram.read_nj,
        dram.write_nj,
        dram.read_io_nj,
        dram.write_io_nj,
    )
}

// ---------------------------------------------------------------------
// Standard preset × workload figures

fn render_fig01(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "cores",
        "LLC",
        "NOC",
        "MC",
        "mem ACT",
        "mem BR&IO",
        "mem BKG",
        "mem total",
    ]);
    for w in Workload::all() {
        let r = results.get(Preset::BaseOpen, w);
        let e = &r.server_energy;
        let total = e.total_j();
        t.row(vec![
            w.name().into(),
            pct(e.cores_j / total),
            pct(e.llc_j / total),
            pct(e.noc_j / total),
            pct(e.mc_j / total),
            pct(e.dram_activation_j / total),
            pct(e.dram_burst_io_j / total),
            pct(e.dram_background_j / total),
            pct(e.memory_fraction()),
        ]);
    }
    let mut out = String::from(
        "Figure 1 — server energy breakdown (Base-open).\n\
         Paper: memory is the single largest consumer, 48-62% of total;\n\
         background up to 37%, dynamic DRAM up to 38%.\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_fig02(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&["workload", "Base", "SMS", "VWQ", "Ideal"]);
    let mut avg = [0.0f64; 4];
    for w in Workload::all() {
        let base = results.get(Preset::BaseOpen, w);
        let sms = results.get(Preset::Sms, w);
        let vwq = results.get(Preset::Vwq, w);
        let vals = [
            base.row_hit_ratio().value(),
            sms.row_hit_ratio().value(),
            vwq.row_hit_ratio().value(),
            base.ideal_row_hit_ratio().value(),
        ];
        for (a, v) in avg.iter_mut().zip(vals) {
            *a += v / 6.0;
        }
        t.row(vec![
            w.name().into(),
            pct(vals[0]),
            pct(vals[1]),
            pct(vals[2]),
            pct(vals[3]),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2]),
        pct(avg[3]),
    ]);
    t.row(vec![
        "paper avg".into(),
        pct(paper::ROW_HIT_BASE_OPEN),
        pct(paper::ROW_HIT_SMS),
        pct(paper::ROW_HIT_VWQ),
        pct(paper::ROW_HIT_IDEAL),
    ]);
    let mut out = String::from("Figure 2 — DRAM row buffer hit ratio of various systems.\n\n");
    out.push_str(&t.render());
    out
}

fn render_fig03(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&["workload", "load-trig reads", "store-trig reads", "writes"]);
    for w in Workload::all() {
        let r = results.get(Preset::BaseOpen, w);
        let total = r.traffic.total() as f64;
        t.row(vec![
            w.name().into(),
            pct(r.traffic.demand_load_reads as f64 / total),
            pct(r.traffic.demand_store_reads as f64 / total),
            pct(r.traffic.write_fraction()),
        ]);
    }
    let mut out = String::from(
        "Figure 3 — DRAM access breakdown on the baseline.\n\
         Paper: writes are 21-38% of DRAM accesses.\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_fig05(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload", "R low", "R med", "R high", "W low", "W med", "W high",
    ]);
    for w in Workload::all() {
        let r = results.get(Preset::BaseOpen, w);
        let rh = r.density.read_histogram();
        let wh = r.density.write_histogram();
        t.row(vec![
            w.name().into(),
            pct(rh[0]),
            pct(rh[1]),
            pct(rh[2]),
            pct(wh[0]),
            pct(wh[1]),
            pct(wh[2]),
        ]);
    }
    let mut out = String::from(
        "Figure 5 — region access density (1KB regions) on the baseline.\n\
         Paper: reads high-density 57-75% (avg 66%); writes 62-86% (avg 73%).\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_tab1(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&["workload", "measured", "paper"]);
    for (w, (_, reference)) in Workload::all().into_iter().zip(paper::TABLE1_LATE_MOD) {
        let r = results.get(Preset::BaseOpen, w);
        t.row(vec![
            w.name().into(),
            pct(r.density.late_modification_fraction()),
            pct(reference),
        ]);
    }
    let mut out = String::from(
        "Table I — blocks of a high-density modified region modified\n\
         after the region's first LLC eviction.\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_fig08(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "system",
        "pred reads",
        "overfetch",
        "pred writes",
        "extra wbs",
    ]);
    for w in Workload::all() {
        for p in [Preset::FullRegion, Preset::Bump] {
            let r = results.get(p, w);
            t.row(vec![
                w.name().into(),
                p.name().into(),
                pct(r.predicted_read_fraction()),
                pct(r.read_overfetch_fraction()),
                pct(r.predicted_write_fraction()),
                pct(r.extra_writeback_fraction()),
            ]);
        }
    }
    let mut out = String::from(
        "Figure 8 — prediction accuracy for DRAM reads and writes.\n\
         ('pred' = fraction of useful traffic fetched/written in bulk\n\
         ahead of demand; overfetch/extra relative to useful traffic.)\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_fig09(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "system",
        "ACT nJ",
        "Burst/IO nJ",
        "total nJ",
        "vs Base-close",
    ]);
    for w in Workload::all() {
        let mut base_close = 0.0;
        for p in FIG9_PRESETS {
            let r = results.get(p, w);
            let useful = r.useful_accesses() as f64;
            let act = r.memory_energy.breakdown.activation_nj / useful;
            let bio = r.memory_energy.breakdown.burst_io_nj() / useful;
            let tot = act + bio;
            if p == Preset::BaseClose {
                base_close = tot;
            }
            t.row(vec![
                w.name().into(),
                p.name().into(),
                format!("{act:.1}"),
                format!("{bio:.1}"),
                format!("{tot:.1}"),
                format!("{:+.0}%", 100.0 * (tot - base_close) / base_close),
            ]);
        }
    }
    let mut out = String::from("Figure 9 — memory energy per access for various systems.\n\n");
    out.push_str(&t.render());
    out
}

fn render_fig10(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload",
        "Base-close IPC",
        "Base-open",
        "Full-region",
        "BuMP",
    ]);
    let mut ratios = [0.0f64; 3];
    for w in Workload::all() {
        let base = results.get(Preset::BaseClose, w).ipc();
        let open = results.get(Preset::BaseOpen, w).ipc();
        let full = results.get(Preset::FullRegion, w).ipc();
        let bump = results.get(Preset::Bump, w).ipc();
        ratios[0] += open / base / 6.0;
        ratios[1] += full / base / 6.0;
        ratios[2] += bump / base / 6.0;
        t.row(vec![
            w.name().into(),
            format!("{base:.3}"),
            format!("{:+.1}%", 100.0 * (open / base - 1.0)),
            format!("{:+.1}%", 100.0 * (full / base - 1.0)),
            format!("{:+.1}%", 100.0 * (bump / base - 1.0)),
        ]);
    }
    t.row(vec![
        "AVERAGE".into(),
        "-".into(),
        format!("{:+.1}%", 100.0 * (ratios[0] - 1.0)),
        format!("{:+.1}%", 100.0 * (ratios[1] - 1.0)),
        format!("{:+.1}%", 100.0 * (ratios[2] - 1.0)),
    ]);
    t.row(vec![
        "paper avg".into(),
        "-".into(),
        "-1.5%".into(),
        "-67%".into(),
        "+9%".into(),
    ]);
    let mut out = String::from("Figure 10 — performance improvement over Base-close.\n\n");
    out.push_str(&t.render());
    out
}

fn render_fig12(results: &GridResults, _scale: Scale) -> String {
    let p = ChipEnergyParams::paper();
    let mut t = TextTable::new(&[
        "workload",
        "LLC traffic",
        "LLC energy",
        "NOC traffic",
        "NOC energy",
        "PC share of NOC +",
    ]);
    for w in Workload::all() {
        let base = results.get(Preset::BaseOpen, w);
        let bump = results.get(Preset::Bump, w);
        let llc_traffic = |r: &SimReport| (r.llc.total_lookups() + r.llc.total_updates()) as f64;
        let llc_energy = |r: &SimReport| {
            r.llc.total_lookups() as f64 * p.llc_read_nj
                + r.llc.total_updates() as f64 * p.llc_write_nj
        };
        let noc_traffic = |r: &SimReport| r.noc.bytes as f64;
        let pc_extra = (bump.noc.pc_bytes) as f64;
        let noc_delta = noc_traffic(bump) - noc_traffic(base);
        t.row(vec![
            w.name().into(),
            format!("{:.2}x", llc_traffic(bump) / llc_traffic(base)),
            format!("{:.2}x", llc_energy(bump) / llc_energy(base)),
            format!("{:.2}x", noc_traffic(bump) / noc_traffic(base)),
            format!("{:.2}x", noc_traffic(bump) / noc_traffic(base)), // energy ∝ bytes
            if noc_delta > 0.0 {
                format!("{:.0}%", 100.0 * pc_extra / noc_delta)
            } else {
                "-".into()
            },
        ]);
    }
    let mut out = String::from(
        "Figure 12 — BuMP's on-chip overheads vs the open-row baseline.\n\
         Paper: LLC traffic 1.10x, LLC energy 1.07x, NOC traffic 1.11x,\n\
         NOC energy 1.13x (PC transfer is about half of the NOC increase).\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_fig13(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&["system", "row hit", "paper", "E/access nJ"]);
    let refs = [
        ("Base-close", 0.03),
        ("Base-open", paper::ROW_HIT_BASE_OPEN),
        ("SMS", paper::ROW_HIT_SMS),
        ("VWQ", paper::ROW_HIT_VWQ),
        ("SMS+VWQ", paper::ROW_HIT_SMS_VWQ),
        ("BuMP", paper::ROW_HIT_BUMP),
    ];
    let mut ideal_hit = 0.0;
    let mut ideal_energy = 0.0;
    for (preset, (name, reference)) in [
        Preset::BaseClose,
        Preset::BaseOpen,
        Preset::Sms,
        Preset::Vwq,
        Preset::SmsVwq,
        Preset::Bump,
    ]
    .into_iter()
    .zip(refs)
    {
        let reports: Vec<&SimReport> = Workload::all()
            .into_iter()
            .map(|w| results.get(preset, w))
            .collect();
        let hit: f64 = reports
            .iter()
            .map(|r| r.row_hit_ratio().value())
            .sum::<f64>()
            / reports.len() as f64;
        let energy: f64 = reports
            .iter()
            .map(|r| r.energy_per_access_nj())
            .sum::<f64>()
            / reports.len() as f64;
        if preset == Preset::BaseOpen {
            ideal_hit = reports
                .iter()
                .map(|r| r.ideal_row_hit_ratio().value())
                .sum::<f64>()
                / reports.len() as f64;
            ideal_energy = reports
                .iter()
                .map(|r| r.ideal_energy_per_access_nj())
                .sum::<f64>()
                / reports.len() as f64;
        }
        t.row(vec![
            name.into(),
            pct(hit),
            pct(reference),
            format!("{energy:.1}"),
        ]);
    }
    t.row(vec![
        "Ideal".into(),
        pct(ideal_hit),
        pct(paper::ROW_HIT_IDEAL),
        format!("{ideal_energy:.1}"),
    ]);
    let mut out = String::from(
        "Figure 13 — summary: average DRAM row buffer hit ratio and\n\
         memory energy per access across all six workloads.\n\n",
    );
    out.push_str(&t.render());
    out
}

fn render_tab4(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&["workload", "measured", "paper"]);
    for (w, (_, reference)) in Workload::all().into_iter().zip(paper::TABLE4_BUMP_ROW_HITS) {
        let r = results.get(Preset::Bump, w);
        t.row(vec![
            w.name().into(),
            pct(r.row_hit_ratio().value()),
            pct(reference),
        ]);
    }
    let mut out = String::from("Table IV — BuMP's DRAM row buffer hit ratio.\n\n");
    out.push_str(&t.render());
    out
}

fn render_calibrate(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "workload", "preset", "IPC", "rowhit", "ideal", "E/acc nJ", "wr%", "rd-high", "wr-high",
        "predR", "ovfR", "predW", "lateW", "tbl1",
    ]);
    for w in Workload::all() {
        for p in Preset::all() {
            let r = results.get(p, w);
            t.row(vec![
                w.name().into(),
                p.name().into(),
                format!("{:.2}", r.ipc()),
                pct(r.row_hit_ratio().value()),
                pct(r.ideal_row_hit_ratio().value()),
                format!("{:.1}", r.energy_per_access_nj()),
                pct(r.traffic.write_fraction()),
                pct(r.density.read_high_fraction()),
                pct(r.density.write_high_fraction()),
                pct(r.predicted_read_fraction()),
                pct(r.read_overfetch_fraction()),
                pct(r.predicted_write_fraction()),
                pct(r.extra_writeback_fraction()),
                pct(r.density.late_modification_fraction()),
            ]);
        }
    }
    let mut out = String::from("Calibration sweep — key metrics for every preset × workload.\n\n");
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------
// Figure 11: design-space sweep (custom configs)

const FIG11_WORKLOADS: [Workload; 3] = [
    Workload::WebSearch,
    Workload::DataServing,
    Workload::MediaStreaming,
];
const FIG11_REGION_BYTES: [u64; 3] = [512, 1024, 2048];
const FIG11_THRESHOLDS: [u32; 4] = [25, 50, 75, 100];

fn fig11_label(bytes: u64, threshold: u32, w: Workload) -> String {
    format!("fig11/{bytes}B/{threshold}%/{}", w.name())
}

fn fig11_grid(scale: Scale) -> ExperimentGrid {
    let opts = scale.options();
    let mut grid = ExperimentGrid::cartesian(&[Preset::BaseOpen], &FIG11_WORKLOADS, opts);
    for bytes in FIG11_REGION_BYTES {
        for threshold in FIG11_THRESHOLDS {
            for w in FIG11_WORKLOADS {
                let mut cfg = config_for(Preset::Bump, w, opts);
                cfg.bump = BumpConfig::design_point(bytes, threshold);
                grid.push(ExperimentSpec::with_config(
                    fig11_label(bytes, threshold, w),
                    cfg,
                    opts,
                ));
            }
        }
    }
    grid
}

fn render_fig11(results: &GridResults, _scale: Scale) -> String {
    let baselines: Vec<f64> = FIG11_WORKLOADS
        .iter()
        .map(|&w| results.get(Preset::BaseOpen, w).energy_per_access_nj())
        .collect();
    let mut t = TextTable::new(&["region", "25%", "50%", "75%", "100%"]);
    for bytes in FIG11_REGION_BYTES {
        let mut cells = vec![format!("{bytes}B")];
        for threshold in FIG11_THRESHOLDS {
            let mut improvement = 0.0;
            for (w, base) in FIG11_WORKLOADS.iter().zip(&baselines) {
                let r = results.get_labeled(&fig11_label(bytes, threshold, *w));
                improvement +=
                    (base - r.energy_per_access_nj()) / base / FIG11_WORKLOADS.len() as f64;
            }
            cells.push(format!("{:+.1}%", 100.0 * improvement));
        }
        t.row(cells);
    }
    let mut out = String::from(
        "Figure 11 — memory energy-per-access improvement over Base-open\n\
         for BuMP design points (region size x density threshold),\n\
         averaged over Web Search, Data Serving, Media Streaming.\n\
         Paper: 1KB @ 50% wins (~23% on the full workload set).\n\n",
    );
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------
// Ablations (custom configs)

/// One ablation row: study name, workload, variant label, and the cell
/// to read. `None` reads the standard `Bump × workload` cell (the paper
/// configuration each study compares against).
struct AblationRow {
    study: &'static str,
    workload: Workload,
    variant: &'static str,
    cell: Option<fn(SystemConfig) -> SystemConfig>,
}

fn ablation_rows() -> Vec<AblationRow> {
    vec![
        AblationRow {
            study: "rdtt_capacity",
            workload: Workload::SoftwareTesting,
            variant: "256+256 (paper)",
            cell: None,
        },
        AblationRow {
            study: "rdtt_capacity",
            workload: Workload::SoftwareTesting,
            variant: "2048+2048",
            cell: Some(|mut c| {
                c.bump.trigger_entries = 2048;
                c.bump.density_entries = 2048;
                c
            }),
        },
        AblationRow {
            study: "pc_offset",
            workload: Workload::SoftwareTesting, // lowest align_prob
            variant: "(PC, offset)",
            cell: None,
        },
        AblationRow {
            study: "pc_offset",
            workload: Workload::SoftwareTesting,
            variant: "PC only",
            cell: Some(|mut c| {
                c.bump.pc_only_indexing = true;
                c
            }),
        },
        AblationRow {
            study: "drt",
            workload: Workload::DataServing,
            variant: "DRT 1024 (paper)",
            cell: None,
        },
        AblationRow {
            study: "drt",
            workload: Workload::DataServing,
            variant: "no DRT",
            cell: Some(|mut c| {
                c.bump.drt_entries = 0;
                c
            }),
        },
        AblationRow {
            study: "interleaving",
            workload: Workload::WebSearch,
            variant: "region (paper)",
            cell: None,
        },
        AblationRow {
            study: "interleaving",
            workload: Workload::WebSearch,
            variant: "block",
            cell: Some(|mut c| {
                c.dram.interleaving = Interleaving::Block;
                c
            }),
        },
        AblationRow {
            study: "stream_filter",
            workload: Workload::MediaStreaming,
            variant: "per-generation filter",
            cell: None,
        },
        AblationRow {
            study: "stream_filter",
            workload: Workload::MediaStreaming,
            variant: "none (plain miss-trigger)",
            cell: Some(|mut c| {
                c.bump.stream_filter_entries = 0;
                c
            }),
        },
    ]
}

fn ablation_label(study: &str, variant: &str) -> String {
    format!("ablations/{study}/{variant}")
}

fn ablations_grid(scale: Scale) -> ExperimentGrid {
    let opts = scale.options();
    let mut grid = ExperimentGrid::new();
    for row in ablation_rows() {
        match row.cell {
            // Paper-configuration rows share the standard BuMP cell.
            None => grid.push(ExperimentSpec::new(Preset::Bump, row.workload, opts)),
            Some(tweak) => {
                let cfg = tweak(config_for(Preset::Bump, row.workload, opts));
                grid.push(ExperimentSpec::with_config(
                    ablation_label(row.study, row.variant),
                    cfg,
                    opts,
                ));
            }
        }
    }
    grid
}

fn render_ablations(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "ablation",
        "workload",
        "variant",
        "pred reads",
        "pred writes",
        "row hit",
        "E/acc nJ",
        "IPC",
    ]);
    for row in ablation_rows() {
        let r = match row.cell {
            None => results.get(Preset::Bump, row.workload),
            Some(_) => results.get_labeled(&ablation_label(row.study, row.variant)),
        };
        t.row(vec![
            row.study.into(),
            row.workload.name().into(),
            row.variant.into(),
            pct(r.predicted_read_fraction()),
            pct(r.predicted_write_fraction()),
            pct(r.row_hit_ratio().value()),
            format!("{:.1}", r.energy_per_access_nj()),
            format!("{:.3}", r.ipc()),
        ]);
    }
    let mut out = String::from("Ablation studies (BuMP design choices).\n\n");
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------
// Virtualization (custom configs)

const VIRT_POINTS: [(&str, usize); 2] = [("paper-sized BHT", 1024), ("virtualization BHT", 8192)];

fn virtualization_label(bht_entries: usize) -> String {
    format!("virtualization/bht{bht_entries}")
}

fn virtualization_config(bht_entries: usize, opts: RunOptions) -> SystemConfig {
    let mut cfg = config_for(Preset::Bump, Workload::WebSearch, opts);
    cfg.workload_mix = Some(Workload::all().to_vec());
    cfg.bump.bht_entries = bht_entries;
    cfg
}

fn virtualization_grid(scale: Scale) -> ExperimentGrid {
    let opts = scale.options();
    let mut grid = ExperimentGrid::new();
    for (_, bht_entries) in VIRT_POINTS {
        grid.push(ExperimentSpec::with_config(
            virtualization_label(bht_entries),
            virtualization_config(bht_entries, opts),
            opts,
        ));
    }
    grid
}

fn render_virtualization(results: &GridResults, _scale: Scale) -> String {
    let mut t = TextTable::new(&[
        "configuration",
        "BHT entries",
        "pred reads",
        "pred writes",
        "row hit",
        "E/acc nJ",
    ]);
    for (name, bht_entries) in VIRT_POINTS {
        let r = results.get_labeled(&virtualization_label(bht_entries));
        t.row(vec![
            name.into(),
            bht_entries.to_string(),
            pct(r.predicted_read_fraction()),
            pct(r.predicted_write_fraction()),
            pct(r.row_hit_ratio().value()),
            format!("{:.1}", r.energy_per_access_nj()),
        ]);
    }
    let mut out = String::from(
        "Section VI — server virtualization: one workload per core.\n\
         Paper: the BHT must grow to hold all workloads' triggers (72KB\n\
         in the extreme case); prediction otherwise degrades.\n\n",
    );
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------
// Scenario sweep (memory specs × LLC capacities)

/// The presets the scenario sweep compares: the open-row baseline and
/// BuMP (the paper's headline pair).
const SCEN_PRESETS: [Preset; 2] = [Preset::BaseOpen, Preset::Bump];

/// The workload slice averaged per scenario (the same trio Figure 11
/// sweeps, spanning lookup-, update-, and stream-dominated behavior).
const SCEN_WORKLOADS: [Workload; 3] = [
    Workload::WebSearch,
    Workload::DataServing,
    Workload::MediaStreaming,
];

/// LLC design points in bytes (4MB is the paper's; first, so the
/// `--smoke` slice keeps the paper capacity). The 512KB point probes
/// the sub-MB regime where the LLC filters far less of the miss
/// stream — the worst case for bulk overfetch.
const SCEN_LLC_BYTES: [u64; 4] = [4 << 20, 8 << 20, 16 << 20, 512 << 10];

/// Whether the process was asked for the reduced scenario grid
/// (`--smoke`: one workload on DDR4 and LPDDR4 at the paper's LLC —
/// the CI-sized slice).
fn scenarios_smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

fn scenario_points(smoke: bool) -> Vec<Scenario> {
    let mut points = Vec::new();
    let mems = if smoke {
        vec![MemSpec::ddr4_2400(), MemSpec::lpddr4_3200()]
    } else {
        MemSpec::all().to_vec()
    };
    let llcs: &[u64] = if smoke {
        &SCEN_LLC_BYTES[..1]
    } else {
        &SCEN_LLC_BYTES
    };
    for mem in &mems {
        for &bytes in llcs {
            points.push(Scenario {
                mem: *mem,
                llc_capacity: Some(bytes),
                mix: None,
            });
        }
    }
    points
}

fn scenarios_workloads(smoke: bool) -> &'static [Workload] {
    if smoke {
        &SCEN_WORKLOADS[..1]
    } else {
        &SCEN_WORKLOADS
    }
}

fn scenarios_grid(scale: Scale) -> ExperimentGrid {
    let opts = scale.options();
    let smoke = scenarios_smoke();
    let mut grid = ExperimentGrid::new();
    for scenario in scenario_points(smoke) {
        grid.merge(ExperimentGrid::cartesian_scenario(
            &SCEN_PRESETS,
            scenarios_workloads(smoke),
            opts,
            &scenario,
        ));
    }
    grid
}

fn render_scenarios(results: &GridResults, _scale: Scale) -> String {
    let smoke = scenarios_smoke();
    let mut t = TextTable::new(&[
        "scenario",
        "Base-open row hit",
        "BuMP row hit",
        "BuMP speedup",
        "BuMP E/acc vs Base",
    ]);
    for scenario in scenario_points(smoke) {
        let workloads = scenarios_workloads(smoke);
        let n = workloads.len() as f64;
        let (mut base_hit, mut bump_hit, mut speedup, mut energy) = (0.0, 0.0, 0.0, 0.0);
        for &w in workloads {
            let base = results.get_labeled(&crate::experiment::scenario_label(
                Preset::BaseOpen,
                w,
                &scenario,
            ));
            let bump = results.get_labeled(&crate::experiment::scenario_label(
                Preset::Bump,
                w,
                &scenario,
            ));
            base_hit += base.row_hit_ratio().value() / n;
            bump_hit += bump.row_hit_ratio().value() / n;
            speedup += bump.ipc() / base.ipc() / n;
            energy += bump.energy_per_access_nj() / base.energy_per_access_nj() / n;
        }
        t.row(vec![
            scenario.name(),
            pct(base_hit),
            pct(bump_hit),
            format!("{speedup:.3}x"),
            format!("{:+.1}%", 100.0 * (energy - 1.0)),
        ]);
    }
    let mut out = String::from(
        "Scenario sweep — BuMP vs the open-row baseline across memory\n\
         specs (DDR3-1600 / DDR4-2400 / LPDDR4-3200) and LLC capacities\n\
         (512KB to 16MB), averaged over Web Search, Data Serving,\n\
         Media Streaming. The paper's platform is ddr3_1600 at llc4m.\n\n",
    );
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let figs = all();
        let names: std::collections::HashSet<&str> = figs.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), figs.len());
    }

    #[test]
    fn repro_suite_excludes_dev_tools() {
        assert!(repro_suite()
            .iter()
            .all(|f| f.name != "calibrate" && f.name != "scenarios"));
        assert_eq!(repro_suite().len(), 15);
    }

    #[test]
    fn scenarios_grid_covers_every_platform_point() {
        let g = scenarios_grid(Scale::Quick);
        // 2 presets × 3 mem specs × 4 LLC points × 3 workloads.
        assert_eq!(g.len(), 2 * 3 * 4 * 3);
        // The sub-MB point is in the full sweep.
        assert!(g.cells().iter().any(|c| c.label.contains("llc512k")));
        for scenario in scenario_points(false) {
            for p in SCEN_PRESETS {
                for w in SCEN_WORKLOADS {
                    let label = crate::experiment::scenario_label(p, w, &scenario);
                    assert!(
                        g.cells().iter().any(|c| c.label == label),
                        "missing {label}"
                    );
                    assert!(label.contains('@'), "scenario cells are tagged: {label}");
                }
            }
        }
        // Every cell is scenario-tagged (the sweep always overrides the
        // LLC, so even the ddr3_1600 column is a named scenario).
        assert!(g.cells().iter().all(|c| c.label.contains('@')));
    }

    #[test]
    fn merged_repro_grid_deduplicates_shared_cells() {
        let scale = Scale::Quick;
        let mut merged = ExperimentGrid::new();
        let mut total = 0;
        for f in repro_suite() {
            let g = (f.grid)(scale);
            total += g.len();
            merged.merge(g);
        }
        assert!(
            merged.len() < total,
            "figures share baseline cells: {} unique vs {} summed",
            merged.len(),
            total
        );
        // Union of standard cells: 7 presets × 6 workloads, plus the
        // custom design-space/ablation/virtualization cells.
        assert_eq!(merged.len(), 42 + 36 + 5 + 2);
    }

    #[test]
    fn fig11_grid_covers_every_design_point() {
        let g = fig11_grid(Scale::Quick);
        // 3 baselines + 3 region sizes × 4 thresholds × 3 workloads.
        assert_eq!(g.len(), 3 + 36);
        for bytes in FIG11_REGION_BYTES {
            for t in FIG11_THRESHOLDS {
                for w in FIG11_WORKLOADS {
                    let label = fig11_label(bytes, t, w);
                    assert!(
                        g.cells().iter().any(|c| c.label == label),
                        "missing {label}"
                    );
                }
            }
        }
    }
}
