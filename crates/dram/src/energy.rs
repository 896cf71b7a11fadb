//! DRAM energy accounting (paper Table III, Micron-derived).
//!
//! The controller increments event counters; converting counts to joules
//! happens here so the same counters can be re-costed under different
//! energy parameters (used by the Figure 11 sensitivity sweep).

use bump_types::MemCycle;

// The parameter struct itself lives in `bump-types` so `MemSpec` can
// pair each platform with its own Table-III-style constants; this
// re-export keeps the established `bump_dram::DramEnergyParams` path.
pub use bump_types::DramEnergyParams;

/// Raw event counts accumulated by the memory controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramEnergyCounters {
    /// Row activations issued.
    pub activations: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Rank-cycles spent with at least one open row.
    pub active_rank_cycles: u64,
    /// Rank-cycles spent with all banks precharged.
    pub idle_rank_cycles: u64,
}

impl DramEnergyCounters {
    /// Adds another counter set (e.g. from another channel) into this one.
    pub fn merge(&mut self, other: &DramEnergyCounters) {
        self.activations += other.activations;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.active_rank_cycles += other.active_rank_cycles;
        self.idle_rank_cycles += other.idle_rank_cycles;
    }

    /// Costs the counters under `params`.
    pub fn cost(&self, params: &DramEnergyParams) -> DramEnergyBreakdown {
        let activation_nj = self.activations as f64 * params.activation_nj;
        let burst_nj = self.reads as f64 * params.read_nj + self.writes as f64 * params.write_nj;
        let io_nj = self.reads as f64 * params.read_io_nj + self.writes as f64 * params.write_io_nj;
        let active_ns = self.active_rank_cycles as f64 * params.cycle_ns;
        let idle_ns = self.idle_rank_cycles as f64 * params.cycle_ns;
        // P[W] × t[ns] = E[nJ].
        let background_nj =
            active_ns * params.background_active_w + idle_ns * params.background_idle_w;
        DramEnergyBreakdown {
            activation_nj,
            burst_nj,
            io_nj,
            background_nj,
        }
    }

    /// Total DRAM data-moving accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total rank-cycles observed (for elapsed-time bookkeeping).
    pub fn rank_cycles(&self) -> MemCycle {
        self.active_rank_cycles + self.idle_rank_cycles
    }
}

/// DRAM energy split the way the paper plots it (ACT / Burst+IO / BKG).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramEnergyBreakdown {
    /// Row-activation energy, nanojoules.
    pub activation_nj: f64,
    /// Data-burst energy, nanojoules.
    pub burst_nj: f64,
    /// I/O and termination energy, nanojoules.
    pub io_nj: f64,
    /// Background (static + refresh) energy, nanojoules.
    pub background_nj: f64,
}

impl DramEnergyBreakdown {
    /// Dynamic energy (everything except background), nanojoules.
    pub fn dynamic_nj(&self) -> f64 {
        self.activation_nj + self.burst_nj + self.io_nj
    }

    /// Burst plus I/O energy — the paper's "Burst/IO" bar segment.
    pub fn burst_io_nj(&self) -> f64 {
        self.burst_nj + self.io_nj
    }

    /// Dynamic energy per access in nanojoules — the paper's
    /// "memory energy per access" metric (Figure 9 plots activation vs
    /// burst/IO; background is excluded there and shown in Figure 1).
    pub fn per_access_nj(&self, accesses: u64) -> f64 {
        if accesses == 0 {
            0.0
        } else {
            self.dynamic_nj() / accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_read_with_activation_costs_activation_plus_burst() {
        let c = DramEnergyCounters {
            activations: 1,
            reads: 1,
            ..Default::default()
        };
        let e = c.cost(&DramEnergyParams::paper());
        assert!((e.activation_nj - 29.7).abs() < 1e-9);
        assert!((e.burst_nj - 8.1).abs() < 1e-9);
        assert!((e.io_nj - 1.5).abs() < 1e-9);
        assert!((e.dynamic_nj() - 39.3).abs() < 1e-9);
    }

    #[test]
    fn row_hits_amortize_activation() {
        // 16 reads, 1 activation vs 16 reads, 16 activations.
        let amortized = DramEnergyCounters {
            activations: 1,
            reads: 16,
            ..Default::default()
        };
        let thrashing = DramEnergyCounters {
            activations: 16,
            reads: 16,
            ..Default::default()
        };
        let p = DramEnergyParams::paper();
        let a = amortized.cost(&p).per_access_nj(16);
        let t = thrashing.cost(&p).per_access_nj(16);
        // Paper §II.B: fetching 16 blocks with one activation saves
        // ~65% of memory energy.
        assert!(a < 0.4 * t, "amortized {a} vs thrashing {t}");
    }

    #[test]
    fn background_power_uses_rank_state() {
        let c = DramEnergyCounters {
            active_rank_cycles: 800, // 1µs at 1.25ns
            idle_rank_cycles: 800,
            ..Default::default()
        };
        let e = c.cost(&DramEnergyParams::paper());
        let expected = 1000.0 * 0.770 + 1000.0 * 0.540;
        assert!((e.background_nj - expected).abs() < 1e-6);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = DramEnergyCounters {
            activations: 1,
            reads: 2,
            writes: 3,
            refreshes: 4,
            active_rank_cycles: 5,
            idle_rank_cycles: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.activations, 2);
        assert_eq!(a.accesses(), 10);
        assert_eq!(a.rank_cycles(), 22);
    }

    #[test]
    fn per_access_of_zero_accesses_is_zero() {
        assert_eq!(DramEnergyBreakdown::default().per_access_nj(0), 0.0);
    }
}
