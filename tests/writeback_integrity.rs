//! Writeback integrity: eager writeback mechanisms (VWQ, BuMP, even
//! Full-region) must never lose or duplicate dirty data. Every DRAM
//! write must be justified by a dirtying event, and eager cleans must
//! match eager writebacks one-to-one.

use bump_sim::{config_for, Preset, RunOptions, System};
use bump_workloads::Workload;

fn run_system(preset: Preset, workload: Workload) -> bump_sim::SimReport {
    let opts = RunOptions {
        seed: 11,
        ..RunOptions::quick(2)
    };
    let mut sys = System::new(config_for(preset, workload, opts));
    // No stat reset: measure from cold so write accounting is complete.
    sys.run(150_000, 10_000_000);
    sys.report()
}

#[test]
fn writes_reaching_dram_never_exceed_dirtying_events() {
    // Every DRAM write needs a prior L1 writeback into the LLC, except
    // re-cleans of lines dirtied again after an eager writeback.
    for preset in [Preset::BaseOpen, Preset::Vwq, Preset::Bump] {
        let r = run_system(preset, Workload::WebServing);
        let dram_writes = r.traffic.total_writes();
        let dirtying = r.llc.l1_writebacks;
        assert!(
            dram_writes <= dirtying + r.llc.redirty_after_eager + 1,
            "{preset}: {dram_writes} DRAM writes from only {dirtying} dirtying events"
        );
        assert!(dram_writes > 0, "{preset}: writes must flow");
    }
}

#[test]
fn eager_systems_do_not_inflate_write_traffic_much() {
    // Paper §V.B: BuMP increases writeback traffic by <10%.
    let base = run_system(Preset::BaseOpen, Workload::WebServing);
    let bump = run_system(Preset::Bump, Workload::WebServing);
    let b = base.traffic.total_writes() as f64;
    let e = bump.traffic.total_writes() as f64;
    assert!(
        e < b * 1.3,
        "BuMP write inflation too high: {b} -> {e} (paper: <10%)"
    );
}

#[test]
fn eager_cleans_match_eager_writebacks() {
    // Every eager DRAM write corresponds to exactly one LLC clean.
    for preset in [Preset::Vwq, Preset::Bump] {
        let r = run_system(preset, Workload::DataServing);
        assert_eq!(
            r.llc.eager_cleans, r.traffic.eager_writebacks,
            "{preset}: cleans and eager writebacks must match"
        );
    }
}

#[test]
fn baseline_has_no_eager_traffic() {
    let r = run_system(Preset::BaseOpen, Workload::DataServing);
    assert_eq!(r.traffic.eager_writebacks, 0);
    assert_eq!(r.llc.eager_cleans, 0);
}
