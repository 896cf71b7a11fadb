//! The "Full-region" strawman: always stream, never predict.
//!
//! The paper evaluates a design that fetches the whole region on every
//! LLC miss and bulk-writes-back on every dirty eviction [31, 55]
//! (Figures 8–10). It gets slightly higher coverage than BuMP but pays
//! ~4.3× read overfetch, thrashing the LLC and oversaturating memory
//! bandwidth — the motivating evidence that *prediction* is the point.

use crate::engine::BulkAction;
use bump_types::{BlockAddr, MemoryRequest, RegionConfig, TrafficClass};

/// The always-bulk strawman.
#[derive(Clone, Copy, Debug)]
pub struct FullRegion {
    region: RegionConfig,
    reads: u64,
    writebacks: u64,
}

impl FullRegion {
    /// Creates the strawman for `region` geometry.
    pub fn new(region: RegionConfig) -> Self {
        FullRegion {
            region,
            reads: 0,
            writebacks: 0,
        }
    }

    /// (bulk reads, bulk writebacks) launched so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.reads, self.writebacks)
    }

    /// Every demand LLC miss streams its whole region.
    pub fn on_llc_access(&mut self, req: &MemoryRequest, hit: bool, out: &mut Vec<BulkAction>) {
        if hit || req.class != TrafficClass::Demand {
            return;
        }
        self.reads += 1;
        out.push(BulkAction::BulkRead {
            region: req.block.region(self.region),
            exclude: req.block,
            pc: req.pc,
        });
    }

    /// Every dirty LLC eviction streams its whole region back.
    pub fn on_llc_eviction(&mut self, block: BlockAddr, dirty: bool, out: &mut Vec<BulkAction>) {
        if !dirty {
            return;
        }
        self.writebacks += 1;
        out.push(BulkAction::BulkWriteback {
            region: block.region(self.region),
            exclude: Some(block),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::{AccessKind, Pc, RegionAddr};

    fn block(region: u64, offset: u32) -> BlockAddr {
        RegionAddr::from_index(region).block_at(RegionConfig::kilobyte(), offset)
    }

    #[test]
    fn every_miss_streams() {
        let mut f = FullRegion::new(RegionConfig::kilobyte());
        let mut out = Vec::new();
        let req = MemoryRequest::demand(block(1, 3), Pc::new(0), AccessKind::Load, 0);
        f.on_llc_access(&req, false, &mut out);
        assert_eq!(out.len(), 1);
        f.on_llc_access(&req, true, &mut out);
        assert_eq!(out.len(), 1, "hits do not stream");
        assert_eq!(f.counters().0, 1);
    }

    #[test]
    fn every_dirty_eviction_streams_back() {
        let mut f = FullRegion::new(RegionConfig::kilobyte());
        let mut out = Vec::new();
        f.on_llc_eviction(block(1, 3), true, &mut out);
        f.on_llc_eviction(block(1, 4), false, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(f.counters().1, 1);
    }
}
