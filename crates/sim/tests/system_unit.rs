//! Unit-level tests of the `System` driver: stepping, backpressure,
//! stat-reset semantics, and the virtualization mix.

use bump_sim::{config_for, Preset, RunOptions, System, SystemConfig};
use bump_workloads::Workload;

fn small(preset: Preset) -> SystemConfig {
    let opts = RunOptions {
        seed: 3,
        ..RunOptions::quick(2)
    };
    config_for(preset, Workload::WebServing, opts)
}

#[test]
fn stepping_makes_monotone_progress() {
    let mut sys = System::new(small(Preset::BaseOpen));
    let (instr_a, cycles_a) = sys.run(10_000, 1_000_000);
    assert!(instr_a >= 10_000);
    assert!(cycles_a > 0);
    let (instr_b, _) = sys.run(10_000, 1_000_000);
    assert!(instr_b >= 10_000, "second run window must also progress");
}

#[test]
fn reset_stats_zeroes_measurement_but_keeps_state() {
    let mut sys = System::new(small(Preset::Bump));
    sys.run(30_000, 3_000_000);
    sys.reset_stats();
    let r = {
        sys.run(30_000, 3_000_000);
        sys.report()
    };
    // Measured window only: instructions close to the second window.
    assert!(r.instructions >= 30_000);
    assert!(r.instructions < 45_000, "warmup leaked into measurement");
    // Predictor state survived: streams fire immediately post-reset.
    assert!(r.traffic.bulk_reads > 0);
}

#[test]
fn max_cycles_bounds_runaway_runs() {
    let mut sys = System::new(small(Preset::FullRegion));
    let (_, cycles) = sys.run(u64::MAX, 50_000);
    assert!(cycles <= 50_001, "cycle cap must bind: {cycles}");
}

#[test]
fn workload_mix_runs_all_six_side_by_side() {
    let mut cfg = config_for(Preset::Bump, Workload::WebSearch, RunOptions::quick(6));
    cfg.workload_mix = Some(Workload::all().to_vec());
    cfg.dram.audit = true;
    let mut sys = System::new(cfg);
    sys.run(60_000, 6_000_000);
    let r = sys.report();
    assert_eq!(r.audit_errors, 0);
    assert!(r.traffic.total() > 0);
    assert!(r.traffic.bulk_reads > 0, "mixed workloads still stream");
}

#[test]
fn quick_options_scale_with_factor() {
    let o = RunOptions::quick(2).scaled(2.0);
    assert_eq!(o.warmup_instructions, 240_000);
    assert_eq!(o.measure_instructions, 240_000);
}

#[test]
fn bump_accessor_present_only_for_bump_preset() {
    let with = System::new(small(Preset::Bump));
    let without = System::new(small(Preset::BaseOpen));
    assert!(with.bump().is_some());
    assert!(without.bump().is_none());
}
