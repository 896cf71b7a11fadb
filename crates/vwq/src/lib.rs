//! Virtual Write Queue (VWQ) — the eager-writeback baseline.
//!
//! Stuecheli et al. (ISCA 2010) coordinate the LLC and the memory
//! controller: when a dirty block is evicted from the LLC, the
//! mechanism eagerly schedules writebacks for a small number of
//! *adjacent* cache blocks that are dirty in the LLC, so their DRAM
//! writes coalesce into the same open row. The BuMP paper configures it
//! to look up "three adjacent cache blocks upon a dirty LLC eviction"
//! (§V.A) and observes that this exploits writeback locality but not
//! read locality (§II.C), raising the row-buffer hit ratio to ~36%.
//!
//! The engine is pure policy: it observes dirty evictions and emits
//! candidate blocks; the system probes the LLC (which charges the
//! lookup traffic) and issues the DRAM writes.
//!
//! # Example
//!
//! ```
//! use bump_vwq::VirtualWriteQueue;
//! use bump_types::BlockAddr;
//!
//! let mut vwq = VirtualWriteQueue::paper();
//! let mut out = Vec::new();
//! vwq.on_dirty_eviction(BlockAddr::from_index(10), &mut out);
//! let idx: Vec<u64> = out.iter().map(|b| b.index()).collect();
//! assert_eq!(idx, vec![11, 12, 13]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bump_types::BlockAddr;

/// How many blocks after a dirty eviction the engine probes (paper
/// §V.A: "three adjacent cache blocks"). The engine probes forward
/// only, which matches streaming writebacks.
pub const LOOKAHEAD: u32 = 3;

/// VWQ statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VwqStats {
    /// Dirty evictions observed.
    pub dirty_evictions_seen: u64,
    /// Candidate blocks emitted for probing.
    pub candidates_emitted: u64,
}

/// The eager-writeback policy engine.
#[derive(Clone, Debug)]
pub struct VirtualWriteQueue {
    stats: VwqStats,
}

impl VirtualWriteQueue {
    /// The paper's engine: probes the [`LOOKAHEAD`] blocks after each
    /// dirty eviction.
    pub fn paper() -> Self {
        VirtualWriteQueue {
            stats: VwqStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &VwqStats {
        &self.stats
    }

    /// Observes a dirty LLC eviction of `block` and appends the
    /// adjacent blocks whose dirtiness the system should probe.
    pub fn on_dirty_eviction(&mut self, block: BlockAddr, out: &mut Vec<BlockAddr>) {
        self.stats.dirty_evictions_seen += 1;
        for k in 1..=LOOKAHEAD {
            out.push(block.offset_by(i64::from(k)));
        }
        self.stats.candidates_emitted += u64::from(LOOKAHEAD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_candidates_follow_the_eviction() {
        let mut v = VirtualWriteQueue::paper();
        let mut out = Vec::new();
        v.on_dirty_eviction(BlockAddr::from_index(100), &mut out);
        let idx: Vec<u64> = out.iter().map(|b| b.index()).collect();
        assert_eq!(idx, vec![101, 102, 103]);
        assert_eq!(v.stats().dirty_evictions_seen, 1);
        assert_eq!(v.stats().candidates_emitted, 3);
    }
}
