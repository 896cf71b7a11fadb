//! Differential equivalence: the event-driven engine must reproduce
//! the cycle-accurate oracle *exactly* — every preset, field for field,
//! down to the energy counters and stall-cycle accounting. This is the
//! safety harness behind the event-driven `System::run` rewrite: any
//! horizon (`next_event_at`, `classify_idle`) that under-approximates
//! idleness shows up here as a diverging report.

use bump_sim::{
    config_for, config_for_scenario, run_experiment, run_experiment_with_config, Engine,
    Instruments, Phase, Preset, RunOptions, Scenario, SimReport, System,
};
use bump_workloads::Workload;

fn opts(engine: Engine, seed: u64) -> RunOptions {
    RunOptions {
        cores: 2,
        warmup_instructions: 30_000,
        measure_instructions: 30_000,
        max_cycles: 3_000_000,
        seed,
        small_llc: true,
        engine,
    }
}

/// Field-for-field comparison with targeted messages for the fields
/// most likely to drift, then a full structural check: `SimReport`'s
/// `Debug` rendering is a complete value dump (including every nested
/// stat and float), so identical strings mean identical reports.
fn assert_reports_identical(oracle: &SimReport, event: &SimReport, what: &str) {
    assert_eq!(
        oracle.instructions, event.instructions,
        "{what}: instructions"
    );
    assert_eq!(oracle.cycles, event.cycles, "{what}: cycles");
    assert_eq!(
        oracle.load_stall_cycles, event.load_stall_cycles,
        "{what}: load stall cycles"
    );
    assert_eq!(
        format!("{:?}", oracle.traffic),
        format!("{:?}", event.traffic),
        "{what}: traffic breakdown"
    );
    assert_eq!(
        format!("{:?}", oracle.dram),
        format!("{:?}", event.dram),
        "{what}: DRAM stats"
    );
    assert_eq!(
        format!("{:?}", oracle.dram_energy),
        format!("{:?}", event.dram_energy),
        "{what}: DRAM energy counters"
    );
    assert_eq!(
        format!("{:?}", oracle.noc),
        format!("{:?}", event.noc),
        "{what}: NOC stats"
    );
    assert_eq!(
        format!("{:?}", oracle.memory_energy),
        format!("{:?}", event.memory_energy),
        "{what}: memory energy"
    );
    assert_eq!(
        format!("{oracle:?}"),
        format!("{event:?}"),
        "{what}: full report"
    );
}

#[test]
fn every_preset_is_report_identical_across_engines() {
    for preset in Preset::all() {
        let oracle = run_experiment(preset, Workload::WebSearch, opts(Engine::Cycle, 42));
        let event = run_experiment(preset, Workload::WebSearch, opts(Engine::Event, 42));
        assert_reports_identical(&oracle, &event, preset.name());
    }
}

#[test]
fn workload_slice_is_report_identical_across_engines() {
    // The mechanisms stress different horizons: BuMP floods bulk reads
    // (MSHR backpressure → completion-horizon retries), Full-region
    // thrashes hardest, Base-close exercises the close-row scheduler.
    for (preset, workload, seed) in [
        (Preset::Bump, Workload::DataServing, 7),
        (Preset::Bump, Workload::MediaStreaming, 1),
        (Preset::FullRegion, Workload::WebServing, 7),
        (Preset::BaseClose, Workload::OnlineAnalytics, 3),
        (Preset::SmsVwq, Workload::SoftwareTesting, 11),
    ] {
        let oracle = run_experiment(preset, workload, opts(Engine::Cycle, seed));
        let event = run_experiment(preset, workload, opts(Engine::Event, seed));
        assert_reports_identical(
            &oracle,
            &event,
            &format!("{} x {} (seed {seed})", preset.name(), workload.name()),
        );
    }
}

#[test]
fn scenario_cells_are_report_identical_across_engines() {
    // Non-default scenarios stress the horizons under foreign timing
    // sets (DDR4's 16-bank ranks and longer tRFC) and under the §VI
    // heterogeneous mix (every core running a different generator).
    let cases = [
        ("ddr4_2400", Preset::Bump, Workload::WebSearch),
        (
            "mix(websearch:dataserving)",
            Preset::Bump,
            Workload::WebSearch,
        ),
    ];
    for (scenario_name, preset, workload) in cases {
        let scenario = Scenario::from_name(scenario_name).expect("known scenario");
        let run = |engine| {
            let o = opts(engine, 42);
            run_experiment_with_config(config_for_scenario(preset, workload, o, &scenario), o)
        };
        let oracle = run(Engine::Cycle);
        let event = run(Engine::Event);
        assert_reports_identical(
            &oracle,
            &event,
            &format!("{} x {} @ {scenario_name}", preset.name(), workload.name()),
        );
    }
}

/// splitmix64: the differential below draws its cells from a fixed
/// seed, so a failure names a cell that reproduces.
struct CellRng(u64);

impl CellRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

#[test]
fn random_configs_are_report_identical_across_engines() {
    // The two presets whose floods drive the event engine's fast paths
    // (storm rounds, uncore steps inside the quiet span, per-channel
    // drains), over core counts, memory platforms, LLC sizes, window
    // lengths and seeds no hand-picked cell above covers.
    let mut rng = CellRng(0x5eed_b0a7);
    for _ in 0..24 {
        let preset = rng.pick(&[Preset::FullRegion, Preset::Bump]);
        let workload = rng.pick(&Workload::all());
        let scenario_name = rng.pick(&["ddr4_2400", "lpddr4_3200", "llc512k"]);
        let cores = rng.pick(&[2, 4, 8]);
        let seed = rng.next() % 1000;
        let warmup = rng.between(10_000, 40_000);
        let measure = rng.between(20_000, 60_000);
        let scenario = Scenario::from_name(scenario_name).expect("known scenario");
        let run = |engine| {
            let o = RunOptions {
                cores,
                warmup_instructions: warmup,
                measure_instructions: measure,
                ..opts(engine, seed)
            };
            run_experiment_with_config(config_for_scenario(preset, workload, o, &scenario), o)
        };
        let oracle = run(Engine::Cycle);
        let event = run(Engine::Event);
        assert_reports_identical(
            &oracle,
            &event,
            &format!(
                "{} x {} @ {scenario_name}, {cores} cores, seed {seed}, \
                 windows {warmup}+{measure}",
                preset.name(),
                workload.name()
            ),
        );
    }
}

#[test]
fn event_engine_is_deterministic() {
    let a = run_experiment(Preset::Bump, Workload::WebSearch, opts(Engine::Event, 42));
    let b = run_experiment(Preset::Bump, Workload::WebSearch, opts(Engine::Event, 42));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn event_engine_work_counts_are_pinned() {
    // The event engine's work on the suite's Full-region x Web Search
    // cell, counted exactly by the phase profiler. These counts repeat
    // bit for bit, so a change to any of them is deliberate engine work
    // (ROADMAP E), never noise: update the numbers in the same change
    // and give the reason in CHANGES.md.
    let o = opts(Engine::Event, 42);
    let mut cfg = config_for(Preset::FullRegion, Workload::WebSearch, o);
    cfg.instruments = Instruments {
        profile: true,
        ..Instruments::default()
    };
    // `run_experiment_with_config`, keeping the system to read the
    // memory controller's work counts (warmup and measurement both).
    let mut sys = System::new(cfg);
    sys.run(o.warmup_instructions, o.max_cycles);
    sys.reset_stats();
    sys.run(o.measure_instructions, o.max_cycles);
    let dram = sys.memory().work();
    let report = sys.report();
    let phase = report.phase.expect("profiling was requested");
    let calls = |p: Phase| phase.sample(p).calls;
    assert_eq!(report.cycles, 325_847, "measured cycles");
    assert_eq!(calls(Phase::CoreTick), 13_535, "full steps");
    assert_eq!(calls(Phase::StormReplay), 51_327, "storm rounds");
    assert_eq!(calls(Phase::FastForward), 13_534, "fast-forward calls");
    // Under debug assertions (every `cargo test` build) this cell also
    // checks, at each park, round and touch of a storm batch, that the
    // storm state's block -> live-member index equals the sum of the
    // batches' own live counts.
    //
    // The DRAM channels' work over warmup and measurement: full channel
    // ticks and one-pass bank scans.
    assert_eq!(dram.full_ticks, 192_775, "full DRAM channel ticks");
    assert_eq!(dram.scans, 190_543, "DRAM bank scans");
}

#[test]
fn telemetry_work_counts_are_pinned() {
    // Telemetry's deterministic cost on the same cell: `System::run`
    // ends an engine run at every sample instant and the next run
    // resumes with a full step, so a fixed stride adds an exact number
    // of full steps over the telemetry-off count pinned above (13,535).
    // Like those counts, these repeat bit for bit; a change to either
    // is deliberate and is explained in CHANGES.md.
    let o = opts(Engine::Event, 42);
    let mut cfg = config_for(Preset::FullRegion, Workload::WebSearch, o);
    cfg.instruments = Instruments {
        profile: true,
        telemetry: Some(1024),
    };
    let report = run_experiment_with_config(cfg, o);
    let steps = report
        .phase
        .expect("profiling was requested")
        .sample(Phase::CoreTick)
        .calls;
    assert_eq!(
        report.cycles, 325_847,
        "telemetry leaves the measured cycles alone"
    );
    assert_eq!(steps, 13_809, "full steps with telemetry every 1024 cycles");
    assert_eq!(steps - 13_535, 274, "full steps telemetry adds");
}
