//! Warmup/measure experiment driver (the SMARTS-style methodology of
//! §V.A, scaled to the synthetic workloads).

use crate::config::{Engine, Preset, SystemConfig};
use crate::report::SimReport;
use crate::system::System;
use bump_workloads::Workload;

/// How long to warm and measure a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Number of cores.
    pub cores: usize,
    /// Instructions to run before statistics reset (cache/predictor
    /// warmup; the paper launches from warmed checkpoints).
    pub warmup_instructions: u64,
    /// Instructions measured after the reset.
    pub measure_instructions: u64,
    /// Safety cap on measured cycles.
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// Use the small (512KB) LLC for faster warmup.
    pub small_llc: bool,
    /// Simulation loop: the event-driven engine (default) or the
    /// cycle-accurate oracle. Both produce byte-identical reports (see
    /// `tests/engine_equivalence.rs`); the oracle exists to prove it.
    pub engine: Engine,
}

impl RunOptions {
    /// Paper-scale run: 16 cores, 4MB LLC.
    pub fn paper() -> Self {
        RunOptions {
            cores: 16,
            warmup_instructions: 1_500_000,
            measure_instructions: 1_500_000,
            max_cycles: 40_000_000,
            seed: 42,
            small_llc: false,
            engine: Engine::default(),
        }
    }

    /// Fast run for tests and smoke checks: `cores` cores, small LLC.
    pub fn quick(cores: usize) -> Self {
        RunOptions {
            cores,
            warmup_instructions: 120_000,
            measure_instructions: 120_000,
            max_cycles: 8_000_000,
            seed: 42,
            small_llc: true,
            engine: Engine::default(),
        }
    }

    /// Scales both windows by `factor` (for calibration sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.warmup_instructions = (self.warmup_instructions as f64 * factor) as u64;
        self.measure_instructions = (self.measure_instructions as f64 * factor) as u64;
        self
    }
}

/// Builds the `SystemConfig` implied by `opts`.
pub fn config_for(preset: Preset, workload: Workload, opts: RunOptions) -> SystemConfig {
    let mut cfg = if opts.small_llc {
        SystemConfig::small(preset, workload, opts.cores)
    } else {
        let mut c = SystemConfig::paper(preset, workload);
        c.cores = opts.cores;
        c
    };
    cfg.seed = opts.seed;
    cfg.engine = opts.engine;
    cfg
}

/// Builds the `SystemConfig` for `opts` under `scenario`. For the
/// default scenario this is exactly [`config_for`].
pub fn config_for_scenario(
    preset: Preset,
    workload: Workload,
    opts: RunOptions,
    scenario: &crate::Scenario,
) -> SystemConfig {
    let mut cfg = config_for(preset, workload, opts);
    scenario.apply(&mut cfg);
    cfg
}

/// Runs one experiment: build, warm up, reset statistics, measure,
/// report.
pub fn run_experiment(preset: Preset, workload: Workload, opts: RunOptions) -> SimReport {
    run_experiment_with_config(config_for(preset, workload, opts), opts)
}

/// Runs one experiment from an explicit configuration (used by the
/// ablation benches that tweak BuMP's tables or thresholds). The
/// engine choice always comes from `opts`, so one CLI flag switches
/// every cell of a sweep — including custom-config cells.
pub fn run_experiment_with_config(cfg: SystemConfig, opts: RunOptions) -> SimReport {
    run_experiment_with_config_instrumented(cfg, opts, false, None)
}

/// [`run_experiment_with_config`] with the two out-of-band instrument
/// switches. They travel outside [`RunOptions`] deliberately: the
/// options' Debug rendering is the serving tier's journal/cache
/// identity, and an instrumented run simulates identically to a plain
/// one, so the two must share an identity.
///
/// * `profile` turns on the engine phase profiler: the report's
///   `phase` is `Some` and covers the measurement window only.
/// * `telemetry` is the sim-time sampling stride in measured cycles
///   (`Some(0)` selects [`crate::telemetry::DEFAULT_STRIDE`]): the
///   report's `telemetry` holds the measurement window's gauge series
///   (the sampler resets at the warmup boundary).
pub fn run_experiment_with_config_instrumented(
    cfg: SystemConfig,
    opts: RunOptions,
    profile: bool,
    telemetry: Option<u64>,
) -> SimReport {
    let mut cfg = cfg;
    cfg.engine = opts.engine;
    let mut sys = System::new(cfg);
    if profile {
        sys.enable_phase_profiling();
    }
    if let Some(stride) = telemetry {
        sys.enable_telemetry(stride);
    }
    sys.run(opts.warmup_instructions, opts.max_cycles);
    sys.reset_stats();
    sys.run(opts.measure_instructions, opts.max_cycles);
    sys.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_nonempty_report() {
        let r = run_experiment(Preset::BaseOpen, Workload::WebSearch, RunOptions::quick(2));
        assert!(r.instructions >= 100_000, "retired {}", r.instructions);
        assert!(r.cycles > 0);
        assert!(r.ipc() > 0.0);
        assert!(r.traffic.total() > 0, "must reach DRAM");
        assert!(r.dram.row_hit_ratio().total > 0);
    }

    #[test]
    fn bump_preset_runs_and_reports_engine_stats() {
        let r = run_experiment(Preset::Bump, Workload::WebSearch, RunOptions::quick(2));
        let b = r.bump.expect("bump stats present");
        assert!(b.terminations > 0, "RDTT must observe terminations");
        assert!(r.traffic.bulk_reads > 0, "bulk reads must flow");
    }
}
