//! The BuMP engine: ties the RDTT, BHT, and DRT together and emits bulk
//! transfer actions (paper §IV.A, Figure 6).

use crate::config::BumpConfig;
use crate::predictor::{BulkHistoryTable, DirtyRegionTable};
use crate::rdtt::{RegionDensityTracker, TerminatedRegion, TerminationReason};
use bump_types::{BlockAddr, MemoryRequest, Pc, PcOffset, RegionAddr, TrafficClass};

/// A bulk transfer the system must carry out on BuMP's behalf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BulkAction {
    /// Stream every block of `region` (except `exclude`, the demand
    /// miss that triggered the prediction) into the LLC.
    BulkRead {
        /// Region to stream.
        region: RegionAddr,
        /// The triggering block, already being fetched on demand.
        exclude: BlockAddr,
        /// PC of the triggering instruction (tags the generated
        /// requests so they carry provenance through the hierarchy).
        pc: Pc,
    },
    /// Eagerly write back every dirty cached block of `region` (except
    /// `exclude`, which is already on its way to DRAM).
    BulkWriteback {
        /// Region to write back.
        region: RegionAddr,
        /// The just-evicted block, if this was triggered by an eviction.
        exclude: Option<BlockAddr>,
    },
}

/// Engine-level statistics (inputs to the Figure 8 accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct BumpStats {
    /// Bulk reads launched (BHT hits on LLC misses).
    pub bulk_reads: u64,
    /// Bulk writebacks launched from an active RDTT region.
    pub bulk_writebacks_rdtt: u64,
    /// Bulk writebacks launched from a DRT hit.
    pub bulk_writebacks_drt: u64,
    /// Region terminations observed.
    pub terminations: u64,
    /// Terminations that met the high-density threshold.
    pub high_density_terminations: u64,
    /// High-density terminations that were also modified.
    pub high_density_modified_terminations: u64,
}

/// The BuMP predictor-and-streaming engine.
///
/// The system simulator forwards three LLC streams to it — accesses,
/// L1 writebacks, evictions — and executes the [`BulkAction`]s it
/// returns. The engine is a standalone component off the critical path,
/// exactly as in Figure 6.
#[derive(Debug)]
pub struct Bump {
    config: BumpConfig,
    rdtt: RegionDensityTracker,
    bht: BulkHistoryTable,
    drt: DirtyRegionTable,
    /// Regions streamed during their current generation. One bulk read
    /// per generation: repeat misses to an already-streamed active
    /// region do not re-stream (their blocks are already requested);
    /// the entry clears when the generation terminates.
    streamed: bump_types::AssocTable<RegionAddr, ()>,
    stats: BumpStats,
}

impl Bump {
    /// Creates an engine with `config`.
    pub fn new(config: BumpConfig) -> Self {
        Bump {
            rdtt: RegionDensityTracker::new(&config),
            bht: BulkHistoryTable::new(&config),
            drt: DirtyRegionTable::new(&BumpConfig {
                drt_entries: config.drt_entries.max(config.ways),
                ..config
            }),
            streamed: bump_types::AssocTable::with_entries(
                config.stream_filter_entries.max(config.ways),
                config.ways,
            ),
            config,
            stats: BumpStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BumpConfig {
        &self.config
    }

    /// Engine statistics.
    pub fn stats(&self) -> &BumpStats {
        &self.stats
    }

    /// Zeroes the statistics while keeping the learned tables (used at
    /// the warmup/measurement boundary: warmup trains the predictor).
    pub fn reset_stats(&mut self) {
        self.stats = BumpStats::default();
    }

    /// The bulk history table (exposed for ablation studies).
    pub fn bht(&self) -> &BulkHistoryTable {
        &self.bht
    }

    /// The dirty region table (exposed for ablation studies).
    pub fn drt(&self) -> &DirtyRegionTable {
        &self.drt
    }

    /// The region density tracker (exposed for ablation studies).
    pub fn rdtt(&self) -> &RegionDensityTracker {
        &self.rdtt
    }

    /// Observes an LLC lookup. Demand traffic trains the RDTT; demand
    /// misses probe the BHT and may launch a bulk read.
    pub fn on_llc_access(&mut self, req: &MemoryRequest, hit: bool, out: &mut Vec<BulkAction>) {
        if req.class != TrafficClass::Demand {
            return; // BuMP's own traffic must not train the predictor
        }
        let region = req.block.region(self.config.region);
        let offset = self.config.region.block_offset(req.block);

        // Bulk transfers trigger "upon the first read or write to the
        // page" (§IV): probe the BHT on LLC misses and on the access
        // that opens a new region generation (whose leading block may
        // already be cache-resident, e.g. via the stride prefetcher).
        let opens_generation = !self.rdtt.is_active(region);
        let index = self.bht_index(req.pc, offset);
        if (!hit || opens_generation)
            && self.config.stream_filter_entries > 0
            && self.streamed.get(&region).is_none()
            && self.bht.predict(index)
        {
            self.stats.bulk_reads += 1;
            self.streamed.insert(region, ());
            out.push(BulkAction::BulkRead {
                region,
                exclude: req.block,
                pc: req.pc,
            });
        } else if self.config.stream_filter_entries == 0 && !hit && self.bht.predict(index) {
            // Ablation mode (no stream filter): the paper's plain
            // miss-triggered streaming.
            self.stats.bulk_reads += 1;
            out.push(BulkAction::BulkRead {
                region,
                exclude: req.block,
                pc: req.pc,
            });
        }

        if let Some(term) = self.rdtt.on_access(req.block, req.pc, req.kind.is_store()) {
            self.learn_from_termination(&term);
        }
    }

    /// Observes a dirty block arriving from an L1 (sets the RDTT dirty
    /// bit, §IV.C).
    pub fn on_l1_writeback(&mut self, block: BlockAddr) {
        self.rdtt.on_l1_writeback(block);
    }

    /// Observes an LLC eviction. Terminates the block's active region
    /// (feeding the BHT/DRT) and, for dirty evictions, may launch a
    /// bulk writeback.
    pub fn on_llc_eviction(&mut self, block: BlockAddr, dirty: bool, out: &mut Vec<BulkAction>) {
        let region = block.region(self.config.region);
        if let Some(term) = self.rdtt.on_eviction(block) {
            // The generation ended: a future generation of this region
            // may stream again (its blocks are leaving the cache).
            self.streamed.remove(&region);
            let high = self.learn_from_termination(&term);
            if high && term.dirty {
                if dirty {
                    // First dirty eviction of a high-density modified
                    // region: stream the rest back now.
                    self.stats.bulk_writebacks_rdtt += 1;
                    out.push(BulkAction::BulkWriteback {
                        region,
                        exclude: Some(block),
                    });
                } else {
                    // Clean eviction terminated it; the modified blocks
                    // are still cached. Remember for the eventual dirty
                    // eviction (§IV.A).
                    self.drt.insert(region);
                }
            }
            return;
        }
        if dirty && self.config.drt_entries > 0 && self.drt.probe_and_invalidate(region) {
            self.stats.bulk_writebacks_drt += 1;
            out.push(BulkAction::BulkWriteback {
                region,
                exclude: Some(block),
            });
        }
    }

    /// The BHT index for an access, honouring the PC-only ablation.
    fn bht_index(&self, pc: Pc, offset: u32) -> PcOffset {
        if self.config.pc_only_indexing {
            PcOffset::new(pc, 0)
        } else {
            PcOffset::new(pc, offset)
        }
    }

    /// Updates BHT/DRT from a terminated region; returns whether it was
    /// high-density.
    fn learn_from_termination(&mut self, term: &TerminatedRegion) -> bool {
        self.stats.terminations += 1;
        let blocks = self.config.region.blocks_per_region();
        let high = term.is_high_density(self.config.threshold, blocks);
        if !high {
            return false;
        }
        self.stats.high_density_terminations += 1;
        let idx = self.bht_index(term.pc_offset.pc, term.pc_offset.offset);
        self.bht.insert(idx);
        if term.dirty {
            self.stats.high_density_modified_terminations += 1;
            if term.reason == TerminationReason::TableConflict && self.config.drt_entries > 0 {
                // Displaced while still cache-resident: track in the DRT
                // so the first dirty eviction can still go bulk (§IV.C).
                self.drt.insert(term.region);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::{AccessKind, RegionConfig};

    fn engine() -> Bump {
        Bump::new(BumpConfig::paper())
    }

    fn block(region: u64, offset: u32) -> BlockAddr {
        RegionAddr::from_index(region).block_at(RegionConfig::kilobyte(), offset)
    }

    fn load(region: u64, offset: u32, pc: u64) -> MemoryRequest {
        MemoryRequest::demand(block(region, offset), Pc::new(pc), AccessKind::Load, 0)
    }

    fn store(region: u64, offset: u32, pc: u64) -> MemoryRequest {
        MemoryRequest::demand(block(region, offset), Pc::new(pc), AccessKind::Store, 0)
    }

    /// Trains the engine with one dense (12-block) read generation in
    /// `region` triggered by `pc` at offset 0, terminated by eviction.
    fn train_dense_read(e: &mut Bump, region: u64, pc: u64) {
        let mut out = Vec::new();
        for o in 0..12 {
            e.on_llc_access(&load(region, o, pc), o != 0, &mut out);
        }
        assert!(out.is_empty(), "nothing predicted during training");
        e.on_llc_eviction(block(region, 0), false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn trained_trigger_launches_bulk_read_on_miss() {
        let mut e = engine();
        train_dense_read(&mut e, 10, 0x400);
        let mut out = Vec::new();
        e.on_llc_access(&load(20, 0, 0x400), false, &mut out);
        assert_eq!(
            out,
            vec![BulkAction::BulkRead {
                region: RegionAddr::from_index(20),
                exclude: block(20, 0),
                pc: Pc::new(0x400),
            }]
        );
        assert_eq!(e.stats().bulk_reads, 1);
    }

    #[test]
    fn hit_to_active_region_does_not_launch_bulk_read() {
        let mut e = engine();
        train_dense_read(&mut e, 10, 0x400);
        let mut out = Vec::new();
        // First access opens the generation (and streams).
        e.on_llc_access(&load(20, 0, 0x400), false, &mut out);
        out.clear();
        // Subsequent hits to the now-active region must stay silent.
        e.on_llc_access(&load(20, 1, 0x400), true, &mut out);
        assert!(out.is_empty(), "active-region hits must not re-stream");
    }

    #[test]
    fn generation_opening_hit_still_launches_bulk_read() {
        // A stride prefetcher may have fetched the leading block; the
        // first access then *hits*, but the region still deserves a
        // bulk transfer (§IV: "upon the first read or write").
        let mut e = engine();
        train_dense_read(&mut e, 10, 0x400);
        let mut out = Vec::new();
        e.on_llc_access(&load(20, 0, 0x400), true, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], BulkAction::BulkRead { .. }));
    }

    #[test]
    fn unaligned_trigger_offset_is_distinguished() {
        let mut e = engine();
        // Train with trigger offset 0.
        train_dense_read(&mut e, 10, 0x400);
        // Miss from the same PC at offset 5: different tuple, no entry.
        let mut out = Vec::new();
        e.on_llc_access(&load(20, 5, 0x400), false, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn low_density_generation_does_not_train() {
        let mut e = engine();
        let mut out = Vec::new();
        // Only 3 of 16 blocks touched.
        for o in 0..3 {
            e.on_llc_access(&load(10, o, 0x400), o != 0, &mut out);
        }
        e.on_llc_eviction(block(10, 0), false, &mut out);
        e.on_llc_access(&load(20, 0, 0x400), false, &mut out);
        assert!(out.is_empty(), "3/16 is low density");
        assert_eq!(e.stats().high_density_terminations, 0);
    }

    #[test]
    fn store_triggered_misses_also_probe_bht() {
        let mut e = engine();
        // Train with stores (e.g. populating a buffer).
        let mut out = Vec::new();
        for o in 0..12 {
            e.on_llc_access(&store(10, o, 0x800), o != 0, &mut out);
        }
        e.on_llc_eviction(block(10, 0), false, &mut out);
        out.clear();
        e.on_llc_access(&store(20, 0, 0x800), false, &mut out);
        assert!(
            matches!(out[0], BulkAction::BulkRead { .. }),
            "write path benefits from bulk fetch too (write-allocate)"
        );
    }

    #[test]
    fn dirty_eviction_of_active_high_density_modified_region_streams_writebacks() {
        let mut e = engine();
        let mut out = Vec::new();
        for o in 0..12 {
            e.on_llc_access(&store(10, o, 0x800), o != 0, &mut out);
        }
        // First eviction is dirty: bulk writeback for the rest.
        e.on_llc_eviction(block(10, 3), true, &mut out);
        assert_eq!(
            out,
            vec![BulkAction::BulkWriteback {
                region: RegionAddr::from_index(10),
                exclude: Some(block(10, 3)),
            }]
        );
        assert_eq!(e.stats().bulk_writebacks_rdtt, 1);
    }

    #[test]
    fn clean_eviction_parks_modified_region_in_drt() {
        let mut e = engine();
        let mut out = Vec::new();
        for o in 0..12 {
            e.on_llc_access(&store(10, o, 0x800), o != 0, &mut out);
        }
        // A clean block of the region is evicted first.
        e.on_llc_eviction(block(10, 15), false, &mut out);
        assert!(out.is_empty(), "clean eviction must not write back");
        assert_eq!(e.drt().len(), 1);
        // Later, the first dirty eviction hits the DRT.
        e.on_llc_eviction(block(10, 3), true, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], BulkAction::BulkWriteback { .. }));
        assert_eq!(e.stats().bulk_writebacks_drt, 1);
        // And the DRT entry is consumed.
        out.clear();
        e.on_llc_eviction(block(10, 4), true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clean_read_only_region_never_writes_back() {
        let mut e = engine();
        train_dense_read(&mut e, 10, 0x400);
        let mut out = Vec::new();
        e.on_llc_eviction(block(10, 1), true, &mut out);
        assert!(out.is_empty(), "region terminated and was clean");
    }

    #[test]
    fn speculative_traffic_does_not_train_or_predict() {
        let mut e = engine();
        train_dense_read(&mut e, 10, 0x400);
        let spec =
            MemoryRequest::speculative(block(20, 0), Pc::new(0x400), TrafficClass::BulkRead, 0);
        let mut out = Vec::new();
        e.on_llc_access(&spec, false, &mut out);
        assert!(
            out.is_empty(),
            "bulk traffic must not re-trigger bulk reads"
        );
        assert!(!e.rdtt().is_active(RegionAddr::from_index(20)));
    }

    #[test]
    fn conflict_displaced_dirty_region_lands_in_drt() {
        let mut e = engine();
        let mut out = Vec::new();
        // Create one dense modified region…
        for o in 0..12 {
            e.on_llc_access(&store(5000, o, 0x900), o != 0, &mut out);
        }
        // …then flood the density table to displace it.
        for r in 0..2048u64 {
            e.on_llc_access(&load(r, 0, 0x111), false, &mut out);
            e.on_llc_access(&load(r, 1, 0x111), true, &mut out);
        }
        out.clear();
        // The dirty eviction arrives after displacement: DRT saves it.
        e.on_llc_eviction(block(5000, 2), true, &mut out);
        assert_eq!(out.len(), 1, "DRT must catch the displaced region");
        assert!(matches!(out[0], BulkAction::BulkWriteback { .. }));
    }

    #[test]
    fn storage_matches_paper_budget() {
        let e = engine();
        let kb = e.config().storage_kb();
        assert!((13.0..16.0).contains(&kb));
    }
}
