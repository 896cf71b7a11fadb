//! Spatial Memory Streaming (SMS) — the spatial-footprint baseline.
//!
//! SMS tracks *spatial region generations*: from the first (trigger)
//! access to a region until the first eviction of one of its blocks,
//! it accumulates a bit pattern of the blocks touched. The pattern is
//! then stored in a pattern history table (PHT) indexed by the trigger
//! instruction's `(PC, offset)`. When a later access from the same
//! `(PC, offset)` triggers a new generation, the stored footprint is
//! streamed in.
//!
//! Per the BuMP paper (§II.C, §V.A), SMS targets only load-triggered
//! traffic — store-triggered reads and writebacks are invisible to it,
//! which is exactly the gap BuMP exploits.

use bump_types::{
    AccessKind, AssocTable, BlockAddr, MemoryRequest, PcOffset, RegionAddr, RegionConfig,
    TrafficClass,
};

/// SMS configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmsConfig {
    /// Spatial region geometry (1KB here, matching the memory
    /// controller's region interleaving).
    pub region: RegionConfig,
    /// Filter-table entries (regions with exactly one access so far).
    pub filter_entries: usize,
    /// Accumulation-table entries (regions actively accumulating).
    pub accumulation_entries: usize,
    /// Pattern-history-table entries.
    pub pht_entries: usize,
    /// Associativity of all three tables.
    pub ways: usize,
}

impl Default for SmsConfig {
    fn default() -> Self {
        SmsConfig {
            region: RegionConfig::kilobyte(),
            filter_entries: 64,
            accumulation_entries: 64,
            pht_entries: 4096,
            ways: 16,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct FilterEntry {
    trigger: PcOffset,
    trigger_block: BlockAddr,
}

#[derive(Clone, Copy, Debug)]
struct AccumulationEntry {
    trigger: PcOffset,
    pattern: u64,
}

/// SMS statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmsStats {
    /// Generations recorded into the PHT.
    pub generations_recorded: u64,
    /// Trigger accesses that hit the PHT and streamed a footprint.
    pub predictions: u64,
    /// Total blocks predicted across all predictions.
    pub blocks_predicted: u64,
}

/// The SMS prefetch engine.
#[derive(Debug)]
pub struct SmsPrefetcher {
    config: SmsConfig,
    filter: AssocTable<RegionAddr, FilterEntry>,
    accumulation: AssocTable<RegionAddr, AccumulationEntry>,
    pht: AssocTable<PcOffset, u64>,
    stats: SmsStats,
}

impl SmsPrefetcher {
    /// Creates an SMS engine.
    pub fn new(config: SmsConfig) -> Self {
        SmsPrefetcher {
            filter: AssocTable::with_entries(
                config.filter_entries,
                config.ways.min(config.filter_entries),
            ),
            accumulation: AssocTable::with_entries(
                config.accumulation_entries,
                config.ways.min(config.accumulation_entries),
            ),
            pht: AssocTable::with_entries(config.pht_entries, config.ways),
            stats: SmsStats::default(),
            config,
        }
    }

    /// The default LLC-side configuration.
    pub fn paper() -> Self {
        SmsPrefetcher::new(SmsConfig::default())
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SmsStats {
        &self.stats
    }

    fn record_generation(&mut self, trigger: PcOffset, pattern: u64) {
        // Patterns with a single block carry no spatial information.
        if pattern.count_ones() >= 2 {
            self.stats.generations_recorded += 1;
            self.pht.insert(trigger, pattern);
        }
    }

    fn end_generation(&mut self, region: RegionAddr) {
        if let Some(e) = self.accumulation.remove(&region) {
            self.record_generation(e.trigger, e.pattern);
        }
        self.filter.remove(&region);
    }

    /// Observes a demand LLC access (hit or miss) and appends the
    /// blocks to prefetch to `out`.
    pub fn on_demand_access(&mut self, req: &MemoryRequest, _hit: bool, out: &mut Vec<BlockAddr>) {
        if req.kind != AccessKind::Load {
            return; // SMS ignores store-triggered traffic
        }
        let cfg = self.config.region;
        let region = req.block.region(cfg);
        let offset = cfg.block_offset(req.block);

        if let Some(e) = self.accumulation.touch(&region) {
            e.pattern |= 1 << offset;
            return;
        }
        if let Some(f) = self.filter.get(&region).copied() {
            if f.trigger_block == req.block {
                return; // repeat access to the trigger block
            }
            // Second distinct block: promote to the accumulation table.
            self.filter.remove(&region);
            let pattern = (1u64 << cfg.block_offset(f.trigger_block)) | (1u64 << offset);
            if let Some((_, victim)) = self.accumulation.insert(
                region,
                AccumulationEntry {
                    trigger: f.trigger,
                    pattern,
                },
            ) {
                // A conflict eviction terminates that generation.
                self.record_generation(victim.trigger, victim.pattern);
            }
            return;
        }

        // Trigger access: start a generation and predict from the PHT.
        let trigger = PcOffset::new(req.pc, offset);
        self.filter.insert(
            region,
            FilterEntry {
                trigger,
                trigger_block: req.block,
            },
        );
        if let Some(&pattern) = self.pht.get(&trigger) {
            self.stats.predictions += 1;
            for o in 0..cfg.blocks_per_region() {
                if o != offset && pattern & (1 << o) != 0 {
                    out.push(region.block_at(cfg, o));
                    self.stats.blocks_predicted += 1;
                }
            }
        }
    }

    /// Observes an LLC eviction of `block`, which ends its region's
    /// generation.
    pub fn on_eviction(&mut self, block: BlockAddr) {
        let region = block.region(self.config.region);
        self.end_generation(region);
    }

    /// The traffic class SMS fetches are tagged with.
    pub fn traffic_class(&self) -> TrafficClass {
        TrafficClass::SmsPrefetch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::Pc;

    fn load(pc: u64, block: BlockAddr) -> MemoryRequest {
        MemoryRequest::demand(block, Pc::new(pc), AccessKind::Load, 0)
    }

    fn store(pc: u64, block: BlockAddr) -> MemoryRequest {
        MemoryRequest::demand(block, Pc::new(pc), AccessKind::Store, 0)
    }

    fn region(i: u64) -> RegionAddr {
        RegionAddr::from_index(i)
    }

    fn cfg() -> RegionConfig {
        RegionConfig::kilobyte()
    }

    /// Train SMS with a dense generation in `r`, triggered by `pc` at
    /// offset 2, touching offsets 2,3,4,5, then end it by eviction.
    fn train(p: &mut SmsPrefetcher, pc: u64, r: RegionAddr) {
        let mut out = Vec::new();
        for o in [2u32, 3, 4, 5] {
            p.on_demand_access(&load(pc, r.block_at(cfg(), o)), false, &mut out);
        }
        p.on_eviction(r.block_at(cfg(), 2));
    }

    #[test]
    fn trained_footprint_streams_on_matching_trigger() {
        let mut p = SmsPrefetcher::paper();
        train(&mut p, 0x400, region(10));
        // Same PC triggers a new region at the same offset.
        let r2 = region(20);
        let mut out = Vec::new();
        p.on_demand_access(&load(0x400, r2.block_at(cfg(), 2)), false, &mut out);
        let got: Vec<u32> = out.iter().map(|b| cfg().block_offset(*b)).collect();
        assert_eq!(got, vec![3, 4, 5], "footprint minus the trigger block");
        assert_eq!(p.stats().predictions, 1);
    }

    #[test]
    fn different_trigger_offset_does_not_predict() {
        let mut p = SmsPrefetcher::paper();
        train(&mut p, 0x400, region(10));
        let mut out = Vec::new();
        p.on_demand_access(&load(0x400, region(20).block_at(cfg(), 7)), false, &mut out);
        assert!(out.is_empty(), "offset 7 was never a trigger");
    }

    #[test]
    fn different_pc_does_not_predict() {
        let mut p = SmsPrefetcher::paper();
        train(&mut p, 0x400, region(10));
        let mut out = Vec::new();
        p.on_demand_access(&load(0x999, region(20).block_at(cfg(), 2)), false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stores_are_ignored() {
        let mut p = SmsPrefetcher::paper();
        let r = region(10);
        let mut out = Vec::new();
        for o in [2u32, 3, 4, 5] {
            p.on_demand_access(&store(0x400, r.block_at(cfg(), o)), false, &mut out);
        }
        p.on_eviction(r.block_at(cfg(), 2));
        p.on_demand_access(
            &store(0x400, region(20).block_at(cfg(), 2)),
            false,
            &mut out,
        );
        assert!(out.is_empty(), "SMS must ignore store-triggered traffic");
        assert_eq!(p.stats().generations_recorded, 0);
    }

    #[test]
    fn single_block_generations_are_not_recorded() {
        let mut p = SmsPrefetcher::paper();
        let r = region(10);
        let mut out = Vec::new();
        p.on_demand_access(&load(0x400, r.block_at(cfg(), 2)), false, &mut out);
        p.on_eviction(r.block_at(cfg(), 2));
        let mut out2 = Vec::new();
        p.on_demand_access(
            &load(0x400, region(20).block_at(cfg(), 2)),
            false,
            &mut out2,
        );
        assert!(out2.is_empty(), "one-block pattern carries no spatial info");
    }

    #[test]
    fn retraining_updates_the_footprint() {
        let mut p = SmsPrefetcher::paper();
        train(&mut p, 0x400, region(10)); // offsets 2..=5
                                          // Retrain with a different footprint from the same trigger.
        let r = region(30);
        let mut out = Vec::new();
        p.on_demand_access(&load(0x400, r.block_at(cfg(), 2)), false, &mut out);
        out.clear(); // discard the prediction from the first training
        p.on_demand_access(&load(0x400, r.block_at(cfg(), 9)), false, &mut out);
        p.on_eviction(r.block_at(cfg(), 2));
        let mut out2 = Vec::new();
        p.on_demand_access(
            &load(0x400, region(40).block_at(cfg(), 2)),
            false,
            &mut out2,
        );
        let got: Vec<u32> = out2.iter().map(|b| cfg().block_offset(*b)).collect();
        assert_eq!(got, vec![9], "latest generation wins");
    }
}
