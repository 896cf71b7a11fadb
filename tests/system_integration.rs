//! End-to-end integration tests across all crates: every preset builds,
//! runs, conserves its accounting identities, and respects DRAM timing
//! (checked by the independent auditor).

use bump_sim::{config_for, run_experiment_with_config, Engine, Preset, RunOptions};
use bump_workloads::Workload;

fn quick() -> RunOptions {
    RunOptions {
        cores: 2,
        warmup_instructions: 40_000,
        measure_instructions: 40_000,
        max_cycles: 4_000_000,
        seed: 7,
        small_llc: true,
        engine: Engine::Event,
    }
}

fn audited(preset: Preset, workload: Workload) -> bump_sim::SimReport {
    let mut cfg = config_for(preset, workload, quick());
    cfg.dram.audit = true;
    run_experiment_with_config(cfg, quick())
}

#[test]
fn every_preset_runs_and_respects_dram_timing() {
    for preset in Preset::all() {
        let r = audited(preset, Workload::WebServing);
        assert!(r.instructions >= 40_000, "{preset}: too few instructions");
        assert_eq!(r.audit_errors, 0, "{preset}: DRAM timing violations");
        assert!(r.ipc() > 0.0, "{preset}: zero IPC");
        assert!(r.traffic.total() > 0, "{preset}: no DRAM traffic");
    }
}

#[test]
fn every_workload_runs_under_bump() {
    for w in Workload::all() {
        let r = audited(Preset::Bump, w);
        assert_eq!(r.audit_errors, 0, "{w}: DRAM timing violations");
        assert!(
            r.traffic.bulk_reads > 0,
            "{w}: BuMP must stream at least once"
        );
        let b = r.bump.expect("bump stats");
        assert!(b.terminations > 0, "{w}: RDTT saw no terminations");
    }
}

#[test]
fn dram_accounting_identities_hold() {
    let r = audited(Preset::Bump, Workload::DataServing);
    // Row-hit ratio totals equal completed transactions.
    assert_eq!(
        r.dram.row_hit_ratio().total,
        r.dram.reads_completed + r.dram.writes_completed
    );
    // Server energy breakdown sums to its total.
    let e = r.server_energy;
    let sum = e.cores_j + e.llc_j + e.noc_j + e.mc_j + e.dram_j();
    assert!((sum - e.total_j()).abs() < 1e-12);
}

#[test]
fn coverage_counters_never_exceed_fills() {
    use bump_types::TrafficClass::BulkRead;
    let r = audited(Preset::Bump, Workload::WebSearch);
    let fills = r.llc.fills_by_class.get(BulkRead);
    let covered = r.llc.covered.get(BulkRead);
    let overfetch = r.llc.overfetch.get(BulkRead);
    assert!(
        covered + overfetch <= fills + r.llc.covered_late.get(BulkRead),
        "covered {covered} + overfetch {overfetch} vs fills {fills}"
    );
}

#[test]
fn mechanisms_only_add_speculative_traffic() {
    // The demand traffic a workload generates must be (nearly) the same
    // under every preset; mechanisms may only add speculative reads and
    // convert demand writebacks into eager ones.
    let base = audited(Preset::BaseOpen, Workload::OnlineAnalytics);
    let bump = audited(Preset::Bump, Workload::OnlineAnalytics);
    let base_wr = base.traffic.total_writes() as f64;
    let bump_wr = bump.traffic.total_writes() as f64;
    assert!(
        (bump_wr - base_wr).abs() / base_wr < 0.25,
        "total writes must be conserved within noise: {base_wr} vs {bump_wr}"
    );
}

#[test]
fn profiler_density_is_system_independent_on_baselines() {
    // Region density is a property of the access stream; the close- and
    // open-row baselines see the same stream.
    let a = audited(Preset::BaseClose, Workload::WebSearch);
    let b = audited(Preset::BaseOpen, Workload::WebSearch);
    let da = a.density.read_high_fraction();
    let db = b.density.read_high_fraction();
    assert!((da - db).abs() < 0.05, "density drifted: {da} vs {db}");
}

#[test]
fn ideal_bound_dominates_every_real_system() {
    for preset in [Preset::BaseOpen, Preset::Sms, Preset::Vwq] {
        let r = audited(preset, Workload::WebSearch);
        assert!(
            r.ideal_row_hit_ratio().value() + 0.05 >= r.row_hit_ratio().value(),
            "{preset}: ideal bound violated"
        );
    }
}
