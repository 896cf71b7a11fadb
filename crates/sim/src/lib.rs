//! Full-system simulator for the BuMP reproduction.
//!
//! Wires the substrate crates together — lean cores (`bump-cpu`), L1s
//! and the shared LLC (`bump-cache`), the crossbar NOC (`bump-noc`),
//! the DDR3 memory system (`bump-dram`), the synthetic server workloads
//! (`bump-workloads`), the baselines (`bump-prefetch`, `bump-vwq`), and
//! BuMP itself (`bump`) — into the 16-core chip of the paper's Table II,
//! and exposes one [`Preset`] per system configuration the paper
//! evaluates (Base-close, Base-open, SMS, VWQ, SMS+VWQ, Full-region,
//! BuMP).
//!
//! The [`run_experiment`] entry point runs warmup + measurement and
//! returns a [`SimReport`] with every metric the paper's figures need:
//! row-buffer hit ratios, memory energy per access, system throughput,
//! traffic breakdowns, prediction coverage/overfetch, on-chip
//! overheads, and the region-density characterization (including the
//! Ideal locality oracle).
//!
//! # Example
//!
//! ```no_run
//! use bump_sim::{run_experiment, Preset, RunOptions};
//! use bump_workloads::Workload;
//!
//! let report = run_experiment(Preset::Bump, Workload::WebSearch, RunOptions::quick(1));
//! println!("row hit: {}", report.row_hit_ratio());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod json;
mod phase;
mod profiler;
mod report;
mod runner;
mod scenario;
mod system;
mod telemetry;

pub use config::{Engine, Preset, SystemConfig};
pub use phase::{Phase, PhaseProfile, PhaseSample, PHASE_NAMES};
pub use profiler::{DensityProfile, DensityProfiler};
pub use report::{SimReport, TrafficBreakdown};
pub use runner::{
    config_for, config_for_scenario, run_experiment, run_experiment_with_config,
    run_experiment_with_config_instrumented, RunOptions,
};
pub use scenario::Scenario;
pub use system::System;
pub use telemetry::{
    cells_to_csv, cells_to_json, series_from_json, series_to_json, TelemetryPoint,
    TelemetrySampler, TelemetrySeries, DEFAULT_STRIDE, MAX_POINTS, TELEMETRY_SCHEMA,
};
