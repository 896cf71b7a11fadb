//! Measurement report: everything the paper's figures read off a run.

use crate::config::Preset;
use crate::profiler::DensityProfile;
use bump::BumpStats;
use bump_cache::LlcStats;
use bump_dram::{DramEnergyCounters, DramStats};
use bump_energy::{MemoryEnergy, ServerEnergy};
use bump_noc::NocStats;
use bump_types::{Ratio, TrafficClass};
use bump_workloads::Workload;

/// DRAM traffic split by who generated it (Figures 3 and 8).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficBreakdown {
    /// Demand reads triggered by load instructions.
    pub demand_load_reads: u64,
    /// Demand reads triggered by store instructions (write-allocate).
    pub demand_store_reads: u64,
    /// Stride-prefetcher reads.
    pub stride_reads: u64,
    /// SMS reads.
    pub sms_reads: u64,
    /// BuMP bulk reads.
    pub bulk_reads: u64,
    /// Full-region bulk reads.
    pub full_region_reads: u64,
    /// Writebacks from demand LLC evictions.
    pub demand_writebacks: u64,
    /// Eager writebacks (VWQ / BuMP DRT / Full-region).
    pub eager_writebacks: u64,
}

impl TrafficBreakdown {
    /// All DRAM reads.
    pub fn total_reads(&self) -> u64 {
        self.demand_load_reads
            + self.demand_store_reads
            + self.stride_reads
            + self.sms_reads
            + self.bulk_reads
            + self.full_region_reads
    }

    /// All DRAM writes.
    pub fn total_writes(&self) -> u64 {
        self.demand_writebacks + self.eager_writebacks
    }

    /// All DRAM accesses.
    pub fn total(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Fraction of DRAM traffic that is writes (Figure 3: 21–38%).
    pub fn write_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.total_writes() as f64 / self.total() as f64
        }
    }

    /// Fraction of demand reads triggered by stores.
    pub fn store_triggered_read_fraction(&self) -> f64 {
        let d = self.demand_load_reads + self.demand_store_reads;
        if d == 0 {
            0.0
        } else {
            self.demand_store_reads as f64 / d as f64
        }
    }
}

/// The full measurement record of one simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// System design point.
    pub preset: Preset,
    /// Workload simulated.
    pub workload: Workload,
    /// Measured cycles.
    pub cycles: u64,
    /// Instructions retired in the measurement window.
    pub instructions: u64,
    /// Core-cycles spent with retirement blocked on a load at the ROB
    /// head, summed over cores (the stall BuMP's streaming hides).
    pub load_stall_cycles: u64,
    /// DRAM scheduler statistics.
    pub dram: DramStats,
    /// DRAM energy event counters.
    pub dram_energy: DramEnergyCounters,
    /// LLC statistics (coverage, overfetch, traffic).
    pub llc: LlcStats,
    /// NOC traffic statistics.
    pub noc: NocStats,
    /// DRAM traffic taxonomy.
    pub traffic: TrafficBreakdown,
    /// BuMP engine statistics (when the preset includes BuMP).
    pub bump: Option<BumpStats>,
    /// Region-density characterization (Figure 5 / Table I / Ideal).
    pub density: DensityProfile,
    /// DRAM-side energy metrics.
    pub memory_energy: MemoryEnergy,
    /// Full-server energy breakdown.
    pub server_energy: ServerEnergy,
    /// The DRAM energy constants the run was costed under (the
    /// platform's [`bump_types::MemSpec::energy`] set).
    pub energy_params: bump_dram::DramEnergyParams,
    /// Speculative requests dropped for lack of MSHRs.
    pub spec_dropped: u64,
    /// DRAM timing-audit violations (0 unless auditing enabled).
    pub audit_errors: usize,
    /// Wall-clock self-time per engine phase, `Some` only when
    /// profiling was enabled for the run ([`crate::System::
    /// enable_phase_profiling`]). `None` renders identically in both
    /// engines' Debug output, which `tests/engine_equivalence.rs`
    /// depends on.
    pub phase: Option<crate::phase::PhaseProfile>,
    /// Sim-time gauge series, `Some` only when telemetry was enabled
    /// for the run ([`crate::Instruments::telemetry`]). Like `phase`,
    /// `None` renders identically in both engines; when enabled, the
    /// series itself must be byte-identical across engines
    /// (`tests/telemetry_equivalence.rs`).
    pub telemetry: Option<crate::telemetry::TelemetrySeries>,
}

impl SimReport {
    /// Aggregate user IPC — the paper's throughput metric (§V.A).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// DRAM row-buffer hit ratio over all accesses (Figures 2/13,
    /// Table IV).
    pub fn row_hit_ratio(&self) -> Ratio {
        self.dram.row_hit_ratio()
    }

    /// DRAM accesses that served the program: all bursts minus
    /// overfetched speculative fills and extra (re-dirtied) writebacks.
    /// Figure 9's "memory energy per access" normalizes by this — a
    /// design that buys row hits with overfetch (Full-region) must pay
    /// for the wasted bursts.
    pub fn useful_accesses(&self) -> u64 {
        let waste = self.llc.overfetch.total() + self.llc.redirty_after_eager;
        self.dram_energy.accesses().saturating_sub(waste).max(1)
    }

    /// Dynamic memory energy per *useful* access in nanojoules — the
    /// paper's headline metric (Figures 9/11/13).
    pub fn energy_per_access_nj(&self) -> f64 {
        self.memory_energy.breakdown.dynamic_nj() / self.useful_accesses() as f64
    }

    /// The bulk-read class this preset used (BuMP vs Full-region).
    fn bulk_class(&self) -> TrafficClass {
        if self.preset == Preset::FullRegion {
            TrafficClass::FullRegionRead
        } else {
            TrafficClass::BulkRead
        }
    }

    /// Figure 8 (left): fraction of useful DRAM reads that were
    /// predicted (fetched in bulk before — or merged with — the demand).
    pub fn predicted_read_fraction(&self) -> f64 {
        let class = self.bulk_class();
        let covered = self.llc.covered.get(class) + self.llc.covered_late.get(class);
        let useful = covered + self.traffic.demand_load_reads + self.traffic.demand_store_reads;
        if useful == 0 {
            0.0
        } else {
            covered as f64 / useful as f64
        }
    }

    /// Figure 8 (left): overfetched reads as a fraction of useful reads.
    pub fn read_overfetch_fraction(&self) -> f64 {
        let class = self.bulk_class();
        let covered = self.llc.covered.get(class) + self.llc.covered_late.get(class);
        let useful = covered + self.traffic.demand_load_reads + self.traffic.demand_store_reads;
        if useful == 0 {
            0.0
        } else {
            self.llc.overfetch.get(class) as f64 / useful as f64
        }
    }

    /// Figure 8 (right): fraction of DRAM writes that were predicted
    /// (written back in bulk ahead of eviction).
    pub fn predicted_write_fraction(&self) -> f64 {
        let useful = self.traffic.total_writes();
        if useful == 0 {
            0.0
        } else {
            self.traffic.eager_writebacks as f64 / useful as f64
        }
    }

    /// Figure 8 (right): extra writebacks (premature cleans that were
    /// re-dirtied) as a fraction of total writes.
    pub fn extra_writeback_fraction(&self) -> f64 {
        let useful = self.traffic.total_writes();
        if useful == 0 {
            0.0
        } else {
            self.llc.redirty_after_eager as f64 / useful as f64
        }
    }

    /// The Ideal system's row-buffer hit bound for this workload.
    pub fn ideal_row_hit_ratio(&self) -> Ratio {
        self.density.ideal_row_hits()
    }

    /// The Ideal system's memory energy per access: every access after
    /// the first in a generation hits the row buffer; burst/IO energy
    /// matches this run's read/write mix.
    pub fn ideal_energy_per_access_nj(&self) -> f64 {
        let params = self.energy_params;
        let hit = self.ideal_row_hit_ratio().value();
        let reads = self.traffic.total_reads() as f64;
        let writes = self.traffic.total_writes() as f64;
        let total = reads + writes;
        if total == 0.0 {
            return 0.0;
        }
        let burst_io = (reads * (params.read_nj + params.read_io_nj)
            + writes * (params.write_nj + params.write_io_nj))
            / total;
        params.activation_nj * (1.0 - hit) + burst_io
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_fractions_are_consistent() {
        let t = TrafficBreakdown {
            demand_load_reads: 50,
            demand_store_reads: 20,
            demand_writebacks: 25,
            eager_writebacks: 5,
            ..Default::default()
        };
        assert_eq!(t.total_reads(), 70);
        assert_eq!(t.total_writes(), 30);
        assert!((t.write_fraction() - 0.30).abs() < 1e-12);
        assert!((t.store_triggered_read_fraction() - 20.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_traffic_has_zero_fractions() {
        let t = TrafficBreakdown::default();
        assert_eq!(t.write_fraction(), 0.0);
        assert_eq!(t.store_triggered_read_fraction(), 0.0);
    }
}
