//! Paper-shape tests: the qualitative results of the paper must hold on
//! small, fast runs — who wins, in which direction, with sane bands.
//! (Exact magnitudes come from the reproduction binaries at full scale;
//! see the paper mapping in README.md.)

use bump_sim::{run_experiment, Engine, Preset, RunOptions, SimReport};
use bump_workloads::Workload;

fn opts() -> RunOptions {
    RunOptions {
        cores: 4,
        warmup_instructions: 120_000,
        measure_instructions: 120_000,
        max_cycles: 12_000_000,
        seed: 42,
        small_llc: true,
        engine: Engine::Event,
    }
}

fn run(p: Preset, w: Workload) -> SimReport {
    run_experiment(p, w, opts())
}

#[test]
fn row_hit_ladder_matches_figure_13() {
    // Base-close < Base-open < SMS/VWQ < SMS+VWQ < BuMP on average.
    let avg = |p: Preset| -> f64 {
        Workload::all()
            .into_iter()
            .map(|w| run(p, w).row_hit_ratio().value())
            .sum::<f64>()
            / 6.0
    };
    let close = avg(Preset::BaseClose);
    let open = avg(Preset::BaseOpen);
    let smsvwq = avg(Preset::SmsVwq);
    let bump = avg(Preset::Bump);
    assert!(close < open, "close {close} < open {open}");
    assert!(open < smsvwq, "open {open} < sms+vwq {smsvwq}");
    assert!(smsvwq < bump, "sms+vwq {smsvwq} < bump {bump}");
    assert!(bump > 0.45, "BuMP row hits should approach the paper's 55%");
}

#[test]
fn bump_reduces_memory_energy_per_access() {
    // Paper: −34% vs Base-close, −23% vs Base-open (we accept a band).
    let mut vs_close = 0.0;
    let mut vs_open = 0.0;
    for w in Workload::all() {
        let close = run(Preset::BaseClose, w).energy_per_access_nj();
        let open = run(Preset::BaseOpen, w).energy_per_access_nj();
        let bump = run(Preset::Bump, w).energy_per_access_nj();
        vs_close += (1.0 - bump / close) / 6.0;
        vs_open += (1.0 - bump / open) / 6.0;
    }
    assert!(
        vs_close > 0.20,
        "BuMP must cut energy strongly vs Base-close, got {vs_close:.2}"
    );
    assert!(
        vs_open > 0.12,
        "BuMP must cut energy vs Base-open, got {vs_open:.2}"
    );
}

#[test]
fn bump_improves_average_throughput() {
    let mut ratio = 0.0;
    for w in Workload::all() {
        let base = run(Preset::BaseOpen, w).ipc();
        let bump = run(Preset::Bump, w).ipc();
        ratio += bump / base / 6.0;
    }
    assert!(
        ratio > 1.02,
        "BuMP must improve average IPC over Base-open, got {ratio:.3}x"
    );
}

#[test]
fn full_region_is_catastrophic() {
    // Paper: −67% throughput on average, ~4.3x overfetch.
    let w = Workload::DataServing;
    let base = run(Preset::BaseClose, w);
    let full = run(Preset::FullRegion, w);
    assert!(
        full.ipc() < 0.6 * base.ipc(),
        "Full-region must collapse: {} vs {}",
        full.ipc(),
        base.ipc()
    );
    assert!(
        full.read_overfetch_fraction() > 1.0,
        "Full-region overfetch must exceed 100%: {}",
        full.read_overfetch_fraction()
    );
}

#[test]
fn density_characterization_matches_section_3() {
    // Figure 5: most reads and most writes go to high-density regions.
    for w in Workload::all() {
        let r = run(Preset::BaseOpen, w);
        let rd = r.density.read_high_fraction();
        let wr = r.density.write_high_fraction();
        assert!(
            (0.40..=0.95).contains(&rd),
            "{w}: read high-density fraction {rd} out of band"
        );
        assert!(
            (0.55..=0.99).contains(&wr),
            "{w}: write high-density fraction {wr} out of band"
        );
    }
}

#[test]
fn write_share_matches_figure_3() {
    for w in Workload::all() {
        let r = run(Preset::BaseOpen, w);
        let f = r.traffic.write_fraction();
        assert!(
            (0.10..=0.45).contains(&f),
            "{w}: write share {f} far from the paper's 21-38%"
        );
    }
}

#[test]
fn bump_coverage_is_in_the_papers_band() {
    // Paper: 45-55% predicted reads (28% for Software Testing), ~63%
    // of writes; small overfetch.
    let mut pred_reads = 0.0;
    let mut pred_writes = 0.0;
    for w in Workload::all() {
        let r = run(Preset::Bump, w);
        pred_reads += r.predicted_read_fraction() / 6.0;
        pred_writes += r.predicted_write_fraction() / 6.0;
        assert!(
            r.read_overfetch_fraction() < 0.6,
            "{w}: overfetch {:.2} far above the paper's worst",
            r.read_overfetch_fraction()
        );
    }
    assert!(
        pred_reads > 0.25,
        "average read coverage too low: {pred_reads:.2}"
    );
    assert!(
        pred_writes > 0.40,
        "average write coverage too low: {pred_writes:.2}"
    );
}

#[test]
fn software_testing_is_bumps_hardest_workload() {
    // §V.B: RDTT conflicts cap coverage on Software Testing; its row-hit
    // gain is the smallest of the six (Table IV: 34% vs 54-64%).
    let st = run(Preset::Bump, Workload::SoftwareTesting);
    let ws = run(Preset::Bump, Workload::WebSearch);
    assert!(
        st.row_hit_ratio().value() < ws.row_hit_ratio().value(),
        "Software Testing should trail Web Search"
    );
}

#[test]
fn sms_beats_stride_on_irregular_footprints() {
    // §II.C: SMS captures irregular access patterns the stride
    // prefetcher cannot.
    let w = Workload::WebSearch; // irregular index-page walks
    let base = run(Preset::BaseOpen, w);
    let sms = run(Preset::Sms, w);
    assert!(
        sms.row_hit_ratio().value() > base.row_hit_ratio().value() + 0.05,
        "SMS must clearly improve row locality on irregular scans"
    );
}
