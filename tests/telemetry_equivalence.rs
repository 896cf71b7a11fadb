//! Differential equivalence for the sim-time telemetry sampler: with
//! telemetry on, the event-driven engine must emit the *byte-identical*
//! gauge series the cycle-accurate oracle emits — every sample instant,
//! every gauge, including samples that land inside fast-forwarded null
//! spans (where the event engine must integrate bulk-charged stall and
//! idle accounting across skipped sample boundaries) and inside parked
//! retry storms (where queue depth and park depth are derived from
//! coalesced batches instead of per-request events).

use bump_bench::experiment::{ExperimentGrid, ExperimentSpec, MetricRow};
use bump_serve::journal::{cell_identity, cell_key};
use bump_sim::{
    config_for, run_experiment_with_config, series_to_json, Engine, Instruments, Preset,
    RunOptions, TelemetrySeries,
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

fn telemetry(stride: u64) -> Instruments {
    Instruments {
        profile: false,
        telemetry: Some(stride),
    }
}

fn run(preset: Preset, workload: Workload, o: RunOptions, stride: u64) -> TelemetrySeries {
    let mut cfg = config_for(preset, workload, o);
    cfg.instruments = telemetry(stride);
    let r = run_experiment_with_config(cfg, o);
    r.telemetry.expect("telemetry enabled")
}

fn assert_series_identical(preset: Preset, workload: Workload, seed: u64, stride: u64) {
    let oracle = run(preset, workload, opts(Engine::Cycle, seed), stride);
    let event = run(preset, workload, opts(Engine::Event, seed), stride);
    let what = format!(
        "{} x {} (seed {seed}, stride {stride})",
        preset.name(),
        workload.name()
    );
    assert!(oracle.points.len() > 1, "{what}: oracle sampled nothing");
    oracle.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
    event.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
    // Structural equality first (field-for-field via PartialEq), then
    // the rendered JSON — the wire/artifact bytes — for byte-identity.
    assert_eq!(oracle, event, "{what}: series diverge");
    assert_eq!(
        series_to_json(&oracle),
        series_to_json(&event),
        "{what}: rendered series bytes diverge"
    );
}

#[test]
fn every_preset_emits_identical_series_across_engines() {
    for preset in Preset::all() {
        assert_series_identical(preset, Workload::WebSearch, 42, 1024);
    }
}

#[test]
fn workload_slice_emits_identical_series_across_engines() {
    // Same slice as engine_equivalence: BuMP floods bulk reads,
    // Full-region drives the retry-storm coalescer (the hardest gauge
    // to keep identical), Base-close exercises the close-row scheduler.
    for (preset, workload, seed) in [
        (Preset::Bump, Workload::DataServing, 7),
        (Preset::Bump, Workload::MediaStreaming, 1),
        (Preset::FullRegion, Workload::WebServing, 7),
        (Preset::BaseClose, Workload::OnlineAnalytics, 3),
        (Preset::SmsVwq, Workload::SoftwareTesting, 11),
    ] {
        assert_series_identical(preset, workload, seed, 1024);
    }
}

#[test]
fn fine_strides_land_samples_inside_null_spans() {
    // A small stride forces samples to land inside fast-forwarded
    // quiet spans (skip_cycles / refresh-only skips), exercising the
    // span-carving and the integrated stall charge; it also overflows
    // the point cap, exercising compaction in both engines.
    for stride in [64, 257] {
        assert_series_identical(Preset::Bump, Workload::WebSearch, 42, stride);
        assert_series_identical(Preset::FullRegion, Workload::WebSearch, 42, stride);
    }
}

#[test]
fn telemetry_leaves_the_simulation_untouched() {
    // An instrumented run must simulate byte-identically to a plain
    // one: strip the instrument fields and compare full Debug renders,
    // then the result row and the serving tier's cell identity (the
    // journal and router-cache key), which must not see instruments.
    let plain_spec =
        ExperimentSpec::new(Preset::Bump, Workload::WebSearch, opts(Engine::Event, 42));
    let inst_spec = ExperimentSpec {
        instruments: Instruments {
            profile: true,
            telemetry: Some(1024),
        },
        ..plain_spec.clone()
    };
    let plain = plain_spec.run();
    let mut inst = inst_spec.run();
    assert!(plain.telemetry.is_none() && plain.phase.is_none());
    assert!(inst.telemetry.is_some() && inst.phase.is_some());
    assert_eq!(
        MetricRow::of(&plain_spec, &plain).to_csv(),
        MetricRow::of(&inst_spec, &inst).to_csv()
    );
    assert_eq!(cell_identity(&plain_spec), cell_identity(&inst_spec));
    assert_eq!(cell_key(&plain_spec), cell_key(&inst_spec));
    inst.telemetry = None;
    inst.phase = None;
    assert_eq!(format!("{plain:?}"), format!("{inst:?}"));
}

#[test]
fn series_are_identical_for_any_thread_count() {
    // Telemetry rides the same spec-fixed-seed cells as every other
    // grid output, so the scheduler's thread count (and thus cell
    // completion order) must not leak into the series. Render the
    // whole grid's series on 1 and 3 threads and compare bytes.
    use bump_bench::experiment::run_grid_with;
    use std::sync::{Arc, Mutex};
    let grid = ExperimentGrid::cartesian(
        &[Preset::BaseOpen, Preset::Bump],
        &[Workload::WebSearch, Workload::DataServing],
        opts(Engine::Event, 42),
    )
    .instrument(telemetry(1024));
    let render = |threads: usize| {
        let collected: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&collected);
        run_grid_with(&grid, threads, move |i, spec, report| {
            let series = report.telemetry.as_ref().expect("telemetry enabled");
            sink.lock()
                .unwrap()
                .push((i, format!("{}\n{}\n", spec.label, series_to_json(series))));
        });
        let mut rows = collected.lock().unwrap().clone();
        rows.sort_by_key(|(i, _)| *i);
        rows.into_iter().map(|(_, s)| s).collect::<String>()
    };
    let single = render(1);
    let parallel = render(3);
    assert!(!single.is_empty(), "grid produced no series");
    assert_eq!(single, parallel, "thread count leaked into telemetry");
}
