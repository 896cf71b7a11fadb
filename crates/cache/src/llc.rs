//! The shared, banked last-level cache with MSHRs.
//!
//! Everything the paper's mechanisms observe happens here: demand
//! accesses (with their PCs), L1 writebacks, and evictions are emitted
//! as an [`LlcEvent`] stream. The LLC also keeps the coverage/overfetch
//! accounting for speculative traffic (Figure 8): a speculatively filled
//! line is *covered* if a demand access touches it before eviction
//! (including a demand merge while the fill is still in flight) and
//! *overfetch* if it dies untouched.

use crate::set_assoc::SetAssocCache;
use bump_types::FxHashMap;
use bump_types::{
    AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, MemoryRequest, Ratio, RegionAddr,
    RegionConfig, TrafficClass,
};

/// LLC configuration (paper Table II: 4MB, 16-way, 8 banks, 8-cycle hit
/// latency).
#[derive(Clone, Copy, Debug)]
pub struct LlcConfig {
    /// Capacity/associativity geometry.
    pub geometry: CacheGeometry,
    /// Number of banks, a power of two (low set-index bits select the
    /// bank).
    pub banks: u32,
    /// Access latency in CPU cycles.
    pub hit_latency: u64,
    /// Shared MSHR pool size (outstanding misses).
    pub mshrs: usize,
    /// MSHRs reserved for demand traffic: speculative misses are
    /// refused once `mshrs - demand_reserved_mshrs` are in use, so a
    /// prefetch storm cannot block the critical path.
    pub demand_reserved_mshrs: usize,
}

impl LlcConfig {
    /// The paper's LLC: 4MB, 16-way, 8 banks, 8-cycle latency. The
    /// paper does not state the LLC MSHR count; 16 per bank (128 total,
    /// 32 reserved for demand) accommodates the demand concurrency of
    /// 16 cores × 10 L1 MSHRs without making the pool the accidental
    /// bottleneck.
    pub fn paper() -> Self {
        LlcConfig {
            geometry: CacheGeometry::llc(),
            banks: 8,
            hit_latency: 8,
            mshrs: 128,
            demand_reserved_mshrs: 32,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct LlcMeta {
    dirty: bool,
    /// The speculative class that filled this line, until a demand
    /// access touches it.
    spec: Option<TrafficClass>,
    /// Whether an eager writeback already cleaned this line once;
    /// re-dirtying it afterwards makes the next writeback "extra"
    /// traffic in the Figure 8 sense.
    eager_cleaned: bool,
}

/// A load waiting on an outstanding miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Waiter {
    /// Core that issued the access.
    pub core: CoreId,
    /// Load or store semantics.
    pub kind: AccessKind,
}

#[derive(Clone, Debug)]
struct Mshr {
    class: TrafficClass,
    demanded: bool,
    fill_dirty: bool,
    waiters: Vec<Waiter>,
}

/// How an access was handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was resident.
    pub hit: bool,
    /// Cycle at which the LLC's response is available (bank queueing +
    /// access latency); for misses, when the miss was accepted.
    pub ready_at: Cycle,
    /// What the caller must do next.
    pub action: AccessAction,
    /// A demand access merged into a miss initiated by a speculative
    /// fetch: the system should promote the in-flight DRAM transaction
    /// to demand priority.
    pub merged_spec: bool,
}

/// Follow-up action required from the system after an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessAction {
    /// Hit, or a merge into an existing outstanding miss: nothing to do.
    None,
    /// A new miss: the caller must issue a DRAM read for this block.
    IssueDramRead,
    /// No MSHR available; retry (demand) or drop (speculative) later.
    MshrFull,
}

/// Error type for MSHR-full conditions surfaced through `Result`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrError;

impl std::fmt::Display for MshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all MSHRs in use")
    }
}

impl std::error::Error for MshrError {}

/// Eviction flavour, for the monitors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionKind {
    /// The victim was clean; nothing goes to DRAM.
    Clean,
    /// The victim was dirty; the caller must write it back to DRAM.
    Dirty,
}

/// What a fill produced.
#[derive(Clone, Debug, Default)]
pub struct FillOutcome {
    /// Dirty victim that must be written back to DRAM.
    pub writeback: Option<BlockAddr>,
    /// Demand accesses that were waiting on this block.
    pub waiters: Vec<Waiter>,
}

/// An observable LLC event, consumed by BuMP / SMS / VWQ monitors.
///
/// The stream carries exactly what the paper's monitors (§IV: RDTT,
/// BHT, DRT) observe: demand accesses, L1 writebacks and evictions.
/// Speculative lookups and fills change cache state and statistics but
/// emit no event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcEvent {
    /// A demand lookup was performed.
    Access {
        /// The request as it arrived (carries the PC).
        req: MemoryRequest,
        /// Whether it hit.
        hit: bool,
    },
    /// A dirty block arrived from an L1 (write/writeback notification —
    /// this is what sets the RDTT dirty bit in the paper).
    WritebackIn {
        /// The block written back by the L1.
        block: BlockAddr,
    },
    /// A block was evicted.
    Evict {
        /// The evicted block.
        block: BlockAddr,
        /// Whether it was dirty (and thus headed to DRAM).
        dirty: bool,
    },
}

/// Traffic and outcome statistics (Figures 8 and 12).
#[derive(Clone, Debug, Default)]
pub struct LlcStats {
    /// Demand hit ratio.
    pub demand_hits: Ratio,
    /// Demand accesses that were loads.
    pub demand_loads: u64,
    /// Demand accesses that were stores.
    pub demand_stores: u64,
    /// Speculative lookups (prefetch/bulk), by class index.
    pub speculative_lookups: u64,
    /// Speculative lookups that hit (dropped).
    pub speculative_hits: u64,
    /// L1 writebacks received.
    pub l1_writebacks: u64,
    /// Fills from DRAM.
    pub fills: u64,
    /// Dirty evictions (demand writebacks to DRAM).
    pub dirty_evictions: u64,
    /// Clean evictions.
    pub clean_evictions: u64,
    /// Eager-writeback probes (VWQ / BuMP DRT / Full-region lookups).
    pub eager_probes: u64,
    /// Probes that found a dirty line and cleaned it.
    pub eager_cleans: u64,
    /// Lines re-dirtied after an eager clean (each implies an "extra"
    /// writeback relative to a system without eager writebacks).
    pub redirty_after_eager: u64,
    /// Speculative fills later touched by demand (covered), per class.
    pub covered: ClassCounts,
    /// Demand misses that merged into an in-flight speculative fetch.
    pub covered_late: ClassCounts,
    /// Speculative fills evicted untouched (overfetch), per class.
    pub overfetch: ClassCounts,
    /// Fills per class.
    pub fills_by_class: ClassCounts,
    /// Misses blocked because the MSHR pool was exhausted.
    pub mshr_stalls: u64,
}

impl LlcStats {
    /// Total lookups performed (for the Figure 12 traffic comparison).
    pub fn total_lookups(&self) -> u64 {
        self.demand_hits.total + self.speculative_lookups + self.eager_probes
    }

    /// Total state-changing operations (fills + writebacks in).
    pub fn total_updates(&self) -> u64 {
        self.fills + self.l1_writebacks
    }

    /// Speculative fetches that ended up serving demand — covered fills
    /// plus demand misses merged into in-flight speculative fetches,
    /// over the speculative read classes. The telemetry sampler's
    /// prefetch-usefulness gauge (accuracy = useful / issued).
    pub fn prefetch_useful(&self) -> u64 {
        self.covered.speculative_total() + self.covered_late.speculative_total()
    }
}

/// Per-[`TrafficClass`] counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounts([u64; 7]);

impl ClassCounts {
    fn idx(class: TrafficClass) -> usize {
        match class {
            TrafficClass::Demand => 0,
            TrafficClass::StridePrefetch => 1,
            TrafficClass::SmsPrefetch => 2,
            TrafficClass::BulkRead => 3,
            TrafficClass::FullRegionRead => 4,
            TrafficClass::DemandWriteback => 5,
            TrafficClass::EagerWriteback => 6,
        }
    }

    /// Increments the counter for `class`.
    pub fn inc(&mut self, class: TrafficClass) {
        self.0[Self::idx(class)] += 1;
    }

    /// Reads the counter for `class`.
    pub fn get(&self, class: TrafficClass) -> u64 {
        self.0[Self::idx(class)]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Sum over the speculative read classes.
    pub fn speculative_total(&self) -> u64 {
        self.get(TrafficClass::StridePrefetch)
            + self.get(TrafficClass::SmsPrefetch)
            + self.get(TrafficClass::BulkRead)
            + self.get(TrafficClass::FullRegionRead)
    }
}

/// The shared last-level cache.
#[derive(Debug)]
pub struct Llc {
    config: LlcConfig,
    cache: SetAssocCache<LlcMeta>,
    /// The block-index bits that select the bank: the low set-index
    /// bits below `banks`.
    bank_mask: u64,
    mshrs: FxHashMap<BlockAddr, Mshr>,
    bank_free: Vec<Cycle>,
    stats: LlcStats,
    events: Vec<LlcEvent>,
}

impl Llc {
    /// Creates an empty LLC.
    ///
    /// # Panics
    ///
    /// Panics if `config.banks` is not a power of two.
    pub fn new(config: LlcConfig) -> Self {
        assert!(
            config.banks.is_power_of_two(),
            "{} LLC banks; the bank count must be a power of two",
            config.banks
        );
        Llc {
            config,
            cache: SetAssocCache::new(config.geometry),
            bank_mask: (config.geometry.sets() - 1) & u64::from(config.banks - 1),
            mshrs: FxHashMap::default(),
            bank_free: vec![0; config.banks as usize],
            stats: LlcStats::default(),
            events: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// The bank `block` maps to (exposed for the retry coalescer's
    /// per-bank occupancy replay).
    pub fn bank_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.bank_mask) as usize
    }

    /// Number of banks (the length a per-bank count array must have).
    pub fn bank_count(&self) -> usize {
        self.bank_free.len()
    }

    /// How many more *speculative* MSHR allocations [`Llc::access`]
    /// would currently grant before answering `MshrFull`.
    pub fn spec_mshr_headroom(&self) -> usize {
        self.config
            .mshrs
            .saturating_sub(self.config.demand_reserved_mshrs)
            .saturating_sub(self.mshrs.len())
    }

    /// Bulk-replays the side effects of `total` refused speculative
    /// lookups performed at `now`, with `bank_counts[b]` of them
    /// hitting bank `b`.
    ///
    /// This is the retry coalescer's fast path for a Full-region retry
    /// round that provably refuses wholesale (no speculative headroom,
    /// and no member block gained an MSHR or residency since the last
    /// round). A refused speculative [`Llc::access`] does exactly
    /// three externally visible things — charges its bank for one slot,
    /// counts a speculative lookup, and counts an MSHR stall. Same-
    /// cycle bank charges fold (`k` charges at `now` leave the bank at
    /// `max(free, now) + k`), and a refused speculative access emits no
    /// [`LlcEvent`], so replaying the counters is exact.
    pub fn replay_refused_speculative(&mut self, bank_counts: &[u32], total: u64, now: Cycle) {
        debug_assert_eq!(bank_counts.len(), self.bank_free.len());
        for (free, &n) in self.bank_free.iter_mut().zip(bank_counts) {
            if n > 0 {
                *free = (*free).max(now) + Cycle::from(n);
            }
        }
        self.stats.speculative_lookups += total;
        self.stats.mshr_stalls += total;
    }

    /// Charges one bank slot and returns when the lookup completes.
    fn charge_bank(&mut self, block: BlockAddr, now: Cycle) -> Cycle {
        let bank = self.bank_of(block);
        let start = self.bank_free[bank].max(now);
        self.bank_free[bank] = start + 1;
        start + self.config.hit_latency
    }

    /// Performs a lookup for `req` at `now`.
    ///
    /// Demand hits promote the line; speculative hits are dropped
    /// without touching recency (a prefetch must not protect lines).
    /// Misses allocate an MSHR (or merge into one). The caller issues
    /// the DRAM read when the action says so.
    pub fn access(&mut self, req: MemoryRequest, now: Cycle) -> AccessOutcome {
        let ready_at = self.charge_bank(req.block, now);
        let is_demand = req.class == TrafficClass::Demand;
        let hit = if is_demand {
            match req.kind {
                AccessKind::Load => self.stats.demand_loads += 1,
                AccessKind::Store => self.stats.demand_stores += 1,
            }
            if let Some(line) = self.cache.touch(req.block) {
                if let Some(spec) = line.meta.spec.take() {
                    self.stats.covered.inc(spec);
                }
                self.stats.demand_hits.add_hit();
                true
            } else {
                self.stats.demand_hits.add_miss();
                false
            }
        } else {
            self.stats.speculative_lookups += 1;
            let resident = self.cache.probe(req.block).is_some();
            if resident {
                self.stats.speculative_hits += 1;
            }
            resident
        };
        if is_demand {
            self.events.push(LlcEvent::Access { req, hit });
        }
        if hit {
            return AccessOutcome {
                hit,
                ready_at,
                action: AccessAction::None,
                merged_spec: false,
            };
        }
        // Miss path: merge or allocate an MSHR.
        if let Some(m) = self.mshrs.get_mut(&req.block) {
            let mut merged_spec = false;
            if is_demand {
                if m.class.is_speculative() {
                    if !m.demanded {
                        self.stats.covered_late.inc(m.class);
                    }
                    merged_spec = true;
                }
                m.demanded = true;
                m.waiters.push(Waiter {
                    core: req.core,
                    kind: req.kind,
                });
            }
            return AccessOutcome {
                hit: false,
                ready_at,
                action: AccessAction::None,
                merged_spec,
            };
        }
        let limit = if is_demand {
            self.config.mshrs
        } else {
            self.config
                .mshrs
                .saturating_sub(self.config.demand_reserved_mshrs)
        };
        if self.mshrs.len() >= limit {
            self.stats.mshr_stalls += 1;
            return AccessOutcome {
                hit: false,
                ready_at,
                action: AccessAction::MshrFull,
                merged_spec: false,
            };
        }
        let mut waiters = Vec::new();
        if is_demand {
            waiters.push(Waiter {
                core: req.core,
                kind: req.kind,
            });
        }
        self.mshrs.insert(
            req.block,
            Mshr {
                class: req.class,
                demanded: is_demand,
                fill_dirty: false,
                waiters,
            },
        );
        AccessOutcome {
            hit: false,
            ready_at,
            action: AccessAction::IssueDramRead,
            merged_spec: false,
        }
    }

    /// Receives a dirty block from an L1 (write-back). Marks the line
    /// dirty, allocating it if absent (the L1 holds the only copy of the
    /// data, so no DRAM read is needed). Returns a dirty victim to write
    /// back, if the allocation evicted one.
    pub fn writeback_from_l1(&mut self, block: BlockAddr, now: Cycle) -> Option<BlockAddr> {
        let _ = self.charge_bank(block, now);
        self.stats.l1_writebacks += 1;
        self.events.push(LlcEvent::WritebackIn { block });
        if let Some(line) = self.cache.touch(block) {
            if !line.meta.dirty && line.meta.eager_cleaned {
                self.stats.redirty_after_eager += 1;
            }
            line.meta.dirty = true;
            if let Some(spec) = line.meta.spec.take() {
                // The store stream demanded this block.
                self.stats.covered.inc(spec);
            }
            return None;
        }
        if let Some(m) = self.mshrs.get_mut(&block) {
            // Fill in flight: remember to allocate dirty.
            m.fill_dirty = true;
            if !m.demanded && m.class.is_speculative() {
                self.stats.covered_late.inc(m.class);
                m.demanded = true;
            }
            return None;
        }
        let victim = self.cache.insert(
            block,
            LlcMeta {
                dirty: true,
                spec: None,
                eager_cleaned: false,
            },
        );
        self.finish_eviction(victim)
    }

    /// Installs `block` after its DRAM read completed.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR is outstanding for `block` (a protocol bug).
    pub fn fill(&mut self, block: BlockAddr, now: Cycle) -> FillOutcome {
        let _ = self.charge_bank(block, now);
        let m = self
            .mshrs
            .remove(&block)
            .unwrap_or_else(|| panic!("fill without MSHR for {block:?}"));
        self.stats.fills += 1;
        self.stats.fills_by_class.inc(m.class);
        let spec = if m.class.is_speculative() && !m.demanded {
            Some(m.class)
        } else {
            None
        };
        let victim = self.cache.insert(
            block,
            LlcMeta {
                dirty: m.fill_dirty,
                spec,
                eager_cleaned: false,
            },
        );
        FillOutcome {
            writeback: self.finish_eviction(victim),
            waiters: m.waiters,
        }
    }

    fn finish_eviction(
        &mut self,
        victim: Option<crate::set_assoc::Line<LlcMeta>>,
    ) -> Option<BlockAddr> {
        let v = victim?;
        if let Some(spec) = v.meta.spec {
            self.stats.overfetch.inc(spec);
        }
        self.events.push(LlcEvent::Evict {
            block: v.block,
            dirty: v.meta.dirty,
        });
        if v.meta.dirty {
            self.stats.dirty_evictions += 1;
            Some(v.block)
        } else {
            self.stats.clean_evictions += 1;
            None
        }
    }

    /// Eager-writeback probe: if `block` is resident and dirty, cleans
    /// it and returns `true` (the caller writes it back to DRAM). Counts
    /// toward the Figure 12 LLC traffic overhead.
    pub fn probe_and_clean(&mut self, block: BlockAddr, now: Cycle) -> bool {
        let _ = self.charge_bank(block, now);
        self.stats.eager_probes += 1;
        if let Some(line) = self.cache.probe_mut(block) {
            if line.meta.dirty {
                line.meta.dirty = false;
                line.meta.eager_cleaned = true;
                self.stats.eager_cleans += 1;
                return true;
            }
        }
        false
    }

    /// Bulk-writeback support: probes every block of `region` once
    /// (charging the lookup traffic), cleans the dirty resident ones,
    /// and returns them for the caller to write back to DRAM. `exclude`
    /// (the block whose eviction triggered the bulk writeback) is
    /// skipped.
    pub fn clean_region(
        &mut self,
        region: RegionAddr,
        cfg: RegionConfig,
        exclude: Option<BlockAddr>,
        now: Cycle,
    ) -> Vec<BlockAddr> {
        let mut cleaned = Vec::new();
        for block in region.blocks(cfg) {
            if Some(block) == exclude {
                continue;
            }
            let _ = self.charge_bank(block, now);
            self.stats.eager_probes += 1;
            if let Some(line) = self.cache.probe_mut(block) {
                if line.meta.dirty {
                    line.meta.dirty = false;
                    line.meta.eager_cleaned = true;
                    self.stats.eager_cleans += 1;
                    cleaned.push(block);
                }
            }
        }
        cleaned
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.probe(block).is_some()
    }

    /// Whether `block` is resident and dirty.
    pub fn is_dirty(&self, block: BlockAddr) -> bool {
        matches!(self.cache.probe(block), Some(l) if l.meta.dirty)
    }

    /// Whether a miss is outstanding for `block`.
    pub fn miss_outstanding(&self, block: BlockAddr) -> bool {
        self.mshrs.contains_key(&block)
    }

    /// Number of MSHRs in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Zeroes the statistics without touching cache contents (used at
    /// the warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }

    /// Whether any events are pending.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Drains the event stream into `out` by buffer swap, so both
    /// vectors keep their capacity across cycles. `out` is cleared
    /// first; on return it holds the events and the internal buffer is
    /// empty.
    pub fn drain_events_into(&mut self, out: &mut Vec<LlcEvent>) {
        out.clear();
        std::mem::swap(&mut self.events, out);
    }

    /// Drops a line without writing it back (used by tests to force
    /// evictions deterministically).
    pub fn evict_for_test(&mut self, block: BlockAddr) -> Option<EvictionKind> {
        let line = self.cache.invalidate(block)?;
        let dirty = line.meta.dirty;
        let _ = self.finish_eviction(Some(line));
        Some(if dirty {
            EvictionKind::Dirty
        } else {
            EvictionKind::Clean
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::Pc;

    fn demand(i: u64, kind: AccessKind) -> MemoryRequest {
        MemoryRequest::demand(BlockAddr::from_index(i), Pc::new(0x400), kind, 0)
    }

    fn bulk(i: u64) -> MemoryRequest {
        MemoryRequest::speculative(
            BlockAddr::from_index(i),
            Pc::new(0x400),
            TrafficClass::BulkRead,
            0,
        )
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn miss_allocates_mshr_then_fill_completes_waiters() {
        let mut llc = Llc::new(LlcConfig::paper());
        let out = llc.access(demand(1, AccessKind::Load), 0);
        assert!(!out.hit);
        assert_eq!(out.action, AccessAction::IssueDramRead);
        assert!(llc.miss_outstanding(b(1)));
        let fill = llc.fill(b(1), 100);
        assert_eq!(fill.waiters.len(), 1);
        assert!(llc.contains(b(1)));
        assert!(!llc.miss_outstanding(b(1)));
        // Subsequent access hits.
        assert!(llc.access(demand(1, AccessKind::Load), 200).hit);
    }

    #[test]
    fn duplicate_miss_merges() {
        let mut llc = Llc::new(LlcConfig::paper());
        assert_eq!(
            llc.access(demand(1, AccessKind::Load), 0).action,
            AccessAction::IssueDramRead
        );
        assert_eq!(
            llc.access(demand(1, AccessKind::Load), 1).action,
            AccessAction::None
        );
        let fill = llc.fill(b(1), 100);
        assert_eq!(fill.waiters.len(), 2);
    }

    #[test]
    fn mshr_pool_exhaustion_reports_full() {
        let mut cfg = LlcConfig::paper();
        cfg.mshrs = 2;
        let mut llc = Llc::new(cfg);
        assert_eq!(
            llc.access(demand(1, AccessKind::Load), 0).action,
            AccessAction::IssueDramRead
        );
        assert_eq!(
            llc.access(demand(2, AccessKind::Load), 0).action,
            AccessAction::IssueDramRead
        );
        assert_eq!(
            llc.access(demand(3, AccessKind::Load), 0).action,
            AccessAction::MshrFull
        );
        assert_eq!(llc.stats().mshr_stalls, 1);
    }

    #[test]
    fn speculative_fill_covered_by_demand() {
        let mut llc = Llc::new(LlcConfig::paper());
        assert_eq!(llc.access(bulk(5), 0).action, AccessAction::IssueDramRead);
        llc.fill(b(5), 50);
        assert!(llc.access(demand(5, AccessKind::Load), 100).hit);
        assert_eq!(llc.stats().covered.get(TrafficClass::BulkRead), 1);
        assert_eq!(llc.stats().overfetch.get(TrafficClass::BulkRead), 0);
    }

    #[test]
    fn speculative_fill_evicted_untouched_is_overfetch() {
        let mut llc = Llc::new(LlcConfig::paper());
        assert_eq!(llc.access(bulk(5), 0).action, AccessAction::IssueDramRead);
        llc.fill(b(5), 50);
        llc.evict_for_test(b(5));
        assert_eq!(llc.stats().overfetch.get(TrafficClass::BulkRead), 1);
        assert_eq!(llc.stats().covered.get(TrafficClass::BulkRead), 0);
    }

    #[test]
    fn demand_merge_into_speculative_mshr_counts_late_coverage() {
        let mut llc = Llc::new(LlcConfig::paper());
        assert_eq!(llc.access(bulk(5), 0).action, AccessAction::IssueDramRead);
        assert_eq!(
            llc.access(demand(5, AccessKind::Load), 1).action,
            AccessAction::None
        );
        let fill = llc.fill(b(5), 50);
        assert_eq!(fill.waiters.len(), 1);
        assert_eq!(llc.stats().covered_late.get(TrafficClass::BulkRead), 1);
        // Line is not marked speculative: it was demanded in flight.
        llc.evict_for_test(b(5));
        assert_eq!(llc.stats().overfetch.get(TrafficClass::BulkRead), 0);
    }

    #[test]
    fn l1_writeback_dirties_line_and_eviction_requests_dram_write() {
        let mut llc = Llc::new(LlcConfig::paper());
        llc.access(demand(1, AccessKind::Store), 0);
        llc.fill(b(1), 10);
        assert!(llc.writeback_from_l1(b(1), 20).is_none());
        assert!(llc.is_dirty(b(1)));
        assert_eq!(llc.evict_for_test(b(1)), Some(EvictionKind::Dirty));
        assert_eq!(llc.stats().dirty_evictions, 1);
    }

    #[test]
    fn l1_writeback_to_absent_block_allocates_dirty() {
        let mut llc = Llc::new(LlcConfig::paper());
        assert!(llc.writeback_from_l1(b(9), 0).is_none());
        assert!(llc.is_dirty(b(9)));
        assert_eq!(llc.stats().l1_writebacks, 1);
    }

    #[test]
    fn l1_writeback_races_fill_and_line_allocates_dirty() {
        let mut llc = Llc::new(LlcConfig::paper());
        llc.access(demand(3, AccessKind::Store), 0);
        assert!(llc.writeback_from_l1(b(3), 1).is_none());
        llc.fill(b(3), 50);
        assert!(llc.is_dirty(b(3)));
    }

    #[test]
    fn probe_and_clean_cleans_exactly_once() {
        let mut llc = Llc::new(LlcConfig::paper());
        llc.writeback_from_l1(b(2), 0);
        assert!(llc.probe_and_clean(b(2), 10));
        assert!(!llc.probe_and_clean(b(2), 20), "already clean");
        assert!(!llc.is_dirty(b(2)));
        // A clean line evicts silently.
        assert_eq!(llc.evict_for_test(b(2)), Some(EvictionKind::Clean));
    }

    #[test]
    fn speculative_hit_does_not_promote_recency() {
        // Fill a set, then confirm a speculative re-access does not save
        // the line from LRU eviction.
        let geometry = CacheGeometry::new(2 * 64, 2); // 1 set, 2 ways
        let mut llc = Llc::new(LlcConfig {
            geometry,
            banks: 1,
            hit_latency: 8,
            mshrs: 8,
            demand_reserved_mshrs: 2,
        });
        llc.access(demand(0, AccessKind::Load), 0);
        llc.fill(b(0), 1);
        llc.access(demand(1, AccessKind::Load), 2);
        llc.fill(b(1), 3);
        // Speculative touch of block 0 (the LRU). Must not promote.
        assert!(llc.access(bulk(0), 4).hit);
        llc.access(demand(2, AccessKind::Load), 5);
        let fill = llc.fill(b(2), 6);
        assert!(fill.writeback.is_none());
        assert!(!llc.contains(b(0)), "block 0 should have been evicted");
    }

    #[test]
    fn bank_is_the_set_index_modulo_the_bank_count() {
        for (bytes, banks) in [(4 << 20, 8), (2 * 64, 8), (512 << 10, 2), (64 << 10, 1)] {
            let geometry = CacheGeometry::new(bytes, 16.min((bytes / 64) as u32));
            let llc = Llc::new(LlcConfig {
                geometry,
                banks,
                ..LlcConfig::paper()
            });
            for i in (0..5000).chain([u64::MAX >> 20]) {
                let set = i % geometry.sets();
                assert_eq!(
                    llc.bank_of(b(i)) as u64,
                    set % u64::from(banks),
                    "block {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bank_count_is_refused() {
        Llc::new(LlcConfig {
            banks: 6,
            ..LlcConfig::paper()
        });
    }

    #[test]
    fn bank_occupancy_serializes_same_bank_lookups() {
        let mut llc = Llc::new(LlcConfig::paper());
        // Same block → same bank.
        let a = llc.access(demand(1, AccessKind::Load), 0);
        let bb = llc.access(demand(1, AccessKind::Load), 0);
        assert_eq!(a.ready_at, 8);
        assert_eq!(bb.ready_at, 9, "second lookup waits one bank slot");
    }

    #[test]
    fn events_cover_access_fill_evict() {
        let mut llc = Llc::new(LlcConfig::paper());
        llc.access(demand(1, AccessKind::Load), 0);
        llc.access(bulk(2), 0);
        llc.fill(b(1), 10);
        llc.evict_for_test(b(1));
        let mut ev = Vec::new();
        llc.drain_events_into(&mut ev);
        // Speculative lookups and fills emit nothing: the stream is the
        // monitors' demand-access / writeback / eviction view.
        assert_eq!(ev.len(), 2);
        assert!(matches!(ev[0], LlcEvent::Access { hit: false, .. }));
        assert!(matches!(ev[1], LlcEvent::Evict { dirty: false, .. }));
        llc.drain_events_into(&mut ev);
        assert!(ev.is_empty(), "events drain");
    }

    #[test]
    #[should_panic(expected = "fill without MSHR")]
    fn fill_without_mshr_panics() {
        let mut llc = Llc::new(LlcConfig::paper());
        llc.fill(b(1), 0);
    }
}
