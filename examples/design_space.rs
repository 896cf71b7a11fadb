//! Explore BuMP's configuration space beyond the paper's Figure 11:
//! sweep the region size / density threshold on one workload and print
//! energy, coverage, and overfetch so the trade-off is visible.
//!
//! ```sh
//! cargo run --release --example design_space [-- <workload-index 0..5>]
//! ```

use bump::BumpConfig;
use bump_sim::{config_for, run_experiment, run_experiment_with_config, Preset, RunOptions};
use bump_workloads::Workload;

fn main() {
    let idx: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4); // Web Search by default
    let workload = Workload::all()[idx.min(5)];
    let opts = RunOptions::quick(4);

    let base = run_experiment(Preset::BaseOpen, workload, opts);
    println!(
        "{workload}: Base-open energy {:.1} nJ/access, row hits {:.1}%\n",
        base.energy_per_access_nj(),
        base.row_hit_ratio().percent()
    );
    println!(
        "{:>7} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "region", "thresh", "E/acc nJ", "vs base", "pred rds", "overfetch"
    );
    for bytes in [512u64, 1024, 2048] {
        for pct in [25u32, 50, 75, 100] {
            let mut cfg = config_for(Preset::Bump, workload, opts);
            cfg.bump = BumpConfig::design_point(bytes, pct);
            let r = run_experiment_with_config(cfg, opts);
            println!(
                "{:>6}B {:>5}% {:>10.1} {:>9.1}% {:>9.1}% {:>9.1}%",
                bytes,
                pct,
                r.energy_per_access_nj(),
                100.0 * (r.energy_per_access_nj() / base.energy_per_access_nj() - 1.0),
                100.0 * r.predicted_read_fraction(),
                100.0 * r.read_overfetch_fraction(),
            );
        }
    }
    println!(
        "\nThe paper's pick (1KB @ 50%) balances coverage against\n\
         overfetch; 100% thresholds barely ever stream, 25% thresholds\n\
         overfetch sparse regions."
    );
}
