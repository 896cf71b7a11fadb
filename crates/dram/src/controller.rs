//! The memory controller facade: address mapping, admission of
//! submitted transactions into the channels' queues, channel fan-out,
//! and system-wide DRAM statistics.

use crate::channel::{Channel, RowPolicy, WriteQueueConfig};
use crate::energy::DramEnergyCounters;
use crate::mapping::{AddressMapper, DramCoord};
use crate::transaction::{Completion, Transaction, TransactionId};
use bump_types::{
    BlockAddr, DramEnergyParams, DramGeometry, DramTiming, Interleaving, MemCycle, MemSpec, Ratio,
    TrafficClass,
};
use std::collections::VecDeque;

/// Complete configuration of the memory system.
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Channel/rank/bank geometry.
    pub geometry: DramGeometry,
    /// DRAM timing set.
    pub timing: DramTiming,
    /// CPU clock cycles per memory bus cycle, times 1000 (the
    /// [`MemSpec::freq_ratio_milli`] of the platform in force).
    pub freq_ratio_milli: u64,
    /// Per-event energy constants of the platform in force
    /// ([`MemSpec::energy`]); the counters this controller accumulates
    /// are costed under these at report time.
    pub energy: DramEnergyParams,
    /// Row-buffer management policy.
    pub policy: RowPolicy,
    /// Address interleaving scheme.
    pub interleaving: Interleaving,
    /// Read transaction queue capacity per channel (paper: 64).
    pub read_queue_capacity: usize,
    /// Write queue configuration per channel.
    pub write_queue: WriteQueueConfig,
    /// Enable the independent timing auditor (slow; for tests).
    pub audit: bool,
}

impl DramConfig {
    /// FR-FCFS close-row with block interleaving (Base-close) on the
    /// platform described by `spec`.
    pub fn close_row(spec: &MemSpec) -> Self {
        DramConfig {
            geometry: spec.geometry,
            timing: spec.timing,
            freq_ratio_milli: spec.freq_ratio_milli,
            energy: spec.energy(),
            policy: RowPolicy::Close,
            interleaving: Interleaving::Block,
            read_queue_capacity: 64,
            write_queue: WriteQueueConfig::default(),
            audit: false,
        }
    }

    /// FR-FCFS open-row with region interleaving (Base-open / BuMP) on
    /// the platform described by `spec`.
    pub fn open_row(spec: &MemSpec) -> Self {
        DramConfig {
            policy: RowPolicy::Open,
            interleaving: Interleaving::Region,
            ..Self::close_row(spec)
        }
    }

    /// Base-close on the paper's DDR3-1600 platform.
    pub fn paper_close_row() -> Self {
        Self::close_row(&MemSpec::ddr3_1600())
    }

    /// Base-open / BuMP on the paper's DDR3-1600 platform.
    pub fn paper_open_row() -> Self {
        Self::open_row(&MemSpec::ddr3_1600())
    }

    /// Re-points this configuration at another memory platform,
    /// keeping the policy/interleaving/queue choices (which belong to
    /// the preset, not the platform).
    pub fn with_spec(mut self, spec: &MemSpec) -> Self {
        self.geometry = spec.geometry;
        self.timing = spec.timing;
        self.freq_ratio_milli = spec.freq_ratio_milli;
        self.energy = spec.energy();
        self
    }
}

/// Aggregated DRAM statistics, split by traffic direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct DramStats {
    /// Row-buffer hit ratio over reads.
    pub read_row_hits: Ratio,
    /// Row-buffer hit ratio over writes.
    pub write_row_hits: Ratio,
    /// Row conflicts (a different open row had to be closed first).
    pub row_conflicts: u64,
    /// Completed read transactions.
    pub reads_completed: u64,
    /// Completed write transactions.
    pub writes_completed: u64,
    /// Sum of read latencies (memory cycles) for average-latency reports.
    pub total_read_latency: u64,
    /// Completed reads that were demand (non-speculative) traffic.
    pub demand_reads_completed: u64,
    /// Sum of demand read latencies.
    pub total_demand_read_latency: u64,
    /// Row-buffer hits over demand reads only.
    pub demand_read_row_hits: Ratio,
    /// Row-buffer hits over speculative (prefetch/bulk) reads only.
    /// BuMP's bulk reads should hit at very high rates — that is the
    /// whole mechanism.
    pub spec_read_row_hits: Ratio,
}

impl DramStats {
    /// Row-buffer hit ratio over all accesses, the paper's headline
    /// locality metric (Figure 2 / Table IV / Figure 13).
    pub fn row_hit_ratio(&self) -> Ratio {
        self.read_row_hits + self.write_row_hits
    }
}

/// The submitted transactions waiting for room in one channel's
/// queues, in submission order, each with its decoded coordinate.
#[derive(Debug, Default)]
struct Backlog {
    txns: VecDeque<(Transaction, DramCoord)>,
    /// Whether every transaction in `txns` was refused at the last
    /// drain (set by the drain, cleared by every submit). While it
    /// holds, a retry can only succeed after the channel issues a
    /// column — the one command that pops a queue entry.
    refused: bool,
}

/// The processor-side memory controller: one scheduler per channel,
/// each fed from its own backlog of submitted transactions.
#[derive(Debug)]
pub struct MemoryController {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    backlogs: Vec<Backlog>,
    next_id: u64,
    stats: DramStats,
}

impl MemoryController {
    /// Builds the controller and its channels.
    pub fn new(config: DramConfig) -> Self {
        let mapper = AddressMapper::new(config.geometry, config.interleaving);
        let channels = (0..config.geometry.channels)
            .map(|c| {
                Channel::new(
                    config.geometry,
                    config.timing,
                    config.policy,
                    config.write_queue,
                    config.read_queue_capacity,
                    // Stagger refresh across channels too.
                    100 + u64::from(c) * 37,
                    config.audit,
                )
            })
            .collect();
        MemoryController {
            config,
            mapper,
            channels,
            backlogs: (0..config.geometry.channels)
                .map(|_| Backlog::default())
                .collect(),
            next_id: 0,
            stats: DramStats::default(),
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The address mapper in force.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Appends `txn` to its channel's backlog; a later drain moves it
    /// into the channel's queue once there is room.
    pub fn submit(&mut self, txn: Transaction) {
        let coord = self.mapper.decode(txn.block);
        let backlog = &mut self.backlogs[coord.channel as usize];
        backlog.txns.push_back((txn, coord));
        backlog.refused = false;
    }

    /// Offers each channel's backlog to its queues at memory cycle
    /// `now`, oldest first, the oracle way: every waiting transaction,
    /// every cycle. Refused transactions keep their place.
    pub fn drain(&mut self, now: MemCycle) {
        self.drain_backlogs(now, false);
    }

    /// Event-driven variant of [`MemoryController::drain`], with the
    /// same outcome. It skips a channel whose backlog was wholly refused
    /// and that has issued no column since, and within a channel it
    /// stops offering reads (or writes) at their first refusal: room
    /// depends only on that queue's length, which a drain can only grow.
    pub fn drain_event(&mut self, now: MemCycle) {
        self.drain_backlogs(now, true);
    }

    fn drain_backlogs(&mut self, now: MemCycle, event: bool) {
        let next_id = &mut self.next_id;
        for (ch, backlog) in self.channels.iter_mut().zip(&mut self.backlogs) {
            if backlog.txns.is_empty() {
                continue; // the next submit clears `refused`
            }
            let column = std::mem::take(&mut ch.column_since_drain);
            if event && backlog.refused && !column {
                continue;
            }
            // Whether reads (0) and writes (1) stopped at a refusal.
            let mut full = [false; 2];
            backlog.txns.retain(|&(txn, coord)| {
                let dir = usize::from(txn.is_write);
                if full[dir] {
                    return true;
                }
                let refused = !admit(ch, next_id, txn, coord, now);
                full[dir] = refused && event;
                refused
            });
            backlog.refused = true;
        }
    }

    /// Whether some channel's backlog might enqueue at the next drain:
    /// it holds a transaction not yet refused, or the channel issued a
    /// column since the refusal. While it is false,
    /// [`MemoryController::drain_event`] is a no-op. Inlined: the event
    /// engine asks once per quiet-span iteration.
    #[inline]
    pub fn drain_due(&self) -> bool {
        self.channels
            .iter()
            .zip(&self.backlogs)
            .any(|(ch, b)| !b.txns.is_empty() && (!b.refused || ch.column_since_drain))
    }

    /// Promotes a speculative read of `block`, queued or still in the
    /// backlog, to demand priority (called when a demand access merges
    /// into a prefetch MSHR). Returns whether such a read was found.
    pub fn promote_to_demand(&mut self, block: BlockAddr) -> bool {
        let coord = self.mapper.decode(block);
        let c = coord.channel as usize;
        if self.channels[c].promote_to_demand(block, coord) {
            return true;
        }
        let backlog = &mut self.backlogs[c].txns;
        let found = backlog
            .iter_mut()
            .find(|(t, _)| t.block == block && t.class.is_speculative());
        let Some((t, _)) = found else {
            return false;
        };
        t.class = TrafficClass::Demand;
        true
    }

    /// Advances every channel by one memory cycle, appending completions.
    pub fn tick(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        let start = completions.len();
        for ch in &mut self.channels {
            ch.tick(now, completions);
        }
        for c in &completions[start..] {
            self.record_completion(c);
        }
    }

    /// Event-driven variant of [`MemoryController::tick`]: channels
    /// whose memoized horizon proves the cycle is a no-op only account
    /// background energy. Semantically identical to `tick` — the
    /// equivalence suite holds both paths to byte-identical reports.
    pub fn tick_event(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        let start = completions.len();
        for ch in &mut self.channels {
            ch.tick_event(now, completions);
        }
        for c in &completions[start..] {
            self.record_completion(c);
        }
    }

    /// The earliest memory cycle `>= now` at which any channel could do
    /// something beyond background accounting (see
    /// [`Channel::next_event_at`]).
    pub fn next_event_at(&self, now: MemCycle) -> MemCycle {
        self.channels
            .iter()
            .map(|c| c.next_event_cached(now))
            .min()
            .unwrap_or(now)
    }

    /// Applies `cycles` consecutive no-op memory cycles to every
    /// channel in O(channels × ranks). Only legal when the caller has
    /// proven — via [`MemoryController::next_event_at`] — that no
    /// channel acts in the skipped window.
    pub fn skip_idle(&mut self, cycles: u64) {
        for ch in &mut self.channels {
            ch.skip_idle_cycles(cycles);
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Per-channel `(columns issued, row hits at issue)` since the last
    /// [`MemoryController::reset_stats`], in channel order — the
    /// telemetry sampler's bandwidth and row-locality gauges.
    pub fn channel_activity(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.channels.iter().map(|c| {
            let e = c.energy();
            (e.reads + e.writes, c.row_hits_issued())
        })
    }

    /// The earliest cycle an in-flight read completes on any channel.
    pub fn next_read_completion(&self) -> Option<MemCycle> {
        self.channels
            .iter()
            .filter_map(|c| c.next_read_completion())
            .min()
    }

    fn record_completion(&mut self, c: &Completion) {
        let record = |r: &mut Ratio| {
            if c.row_hit {
                r.add_hit();
            } else {
                r.add_miss();
            }
        };
        if c.txn.is_write {
            self.stats.writes_completed += 1;
            record(&mut self.stats.write_row_hits);
        } else {
            self.stats.reads_completed += 1;
            self.stats.total_read_latency += c.latency();
            if c.txn.class == TrafficClass::Demand {
                self.stats.demand_reads_completed += 1;
                self.stats.total_demand_read_latency += c.latency();
                record(&mut self.stats.demand_read_row_hits);
            } else {
                record(&mut self.stats.spec_read_row_hits);
            }
            record(&mut self.stats.read_row_hits);
        }
        if c.row_conflict {
            self.stats.row_conflicts += 1;
        }
    }

    /// Aggregated statistics so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Zeroes statistics, energy and per-channel activity counters
    /// without disturbing bank state or queued and backlogged
    /// transactions (warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Merged energy counters across channels.
    pub fn energy(&self) -> DramEnergyCounters {
        let mut e = DramEnergyCounters::default();
        for ch in &self.channels {
            e.merge(ch.energy());
        }
        e
    }

    /// Total timing-audit violations (0 when auditing is disabled).
    pub fn audit_errors(&self) -> usize {
        self.channels
            .iter()
            .filter_map(|c| c.auditor())
            .map(|a| a.errors().len())
            .sum()
    }

    /// Sum of queued transactions across channels (for backpressure
    /// introspection and tests); backlogged ones are not counted.
    pub fn queued(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.read_queue_len() + c.write_queue_len())
            .sum()
    }

    /// Sum of submitted transactions still waiting in the backlogs.
    pub fn backlogged(&self) -> usize {
        self.backlogs.iter().map(|b| b.txns.len()).sum()
    }
}

/// Enqueues `txn`, mapped to `coord`, on `ch` under the next
/// transaction id at drain cycle `now`; returns `false`, leaving `txn`
/// to the backlog, when the target queue is full. This is the one way
/// into a channel's queues. It diverges from an ideal controller in two
/// ways:
///
/// * the completion's `enqueued_at` is `now`, the admission cycle, so
///   [`DramStats::total_demand_read_latency`] leaves out a read's wait
///   in the backlog;
/// * it refuses a write on `has_room` before [`Channel::enqueue`]
///   could coalesce it with a queued write to the same block, which
///   would take no room.
///
/// Fixing either one changes reports, so both wait for the model
/// version of ROADMAP item B, which marks results of the old model
/// stale when the golden results are re-blessed.
fn admit(
    ch: &mut Channel,
    next_id: &mut u64,
    txn: Transaction,
    coord: DramCoord,
    now: MemCycle,
) -> bool {
    if !ch.has_room(txn.is_write) {
        return false;
    }
    let id = TransactionId(*next_id);
    *next_id += 1;
    let ok = ch.enqueue(id, txn, coord, now);
    debug_assert!(ok, "has_room said yes but enqueue failed");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(i: u64) -> Transaction {
        Transaction::read(BlockAddr::from_index(i), TrafficClass::Demand, 0)
    }

    fn write(i: u64) -> Transaction {
        Transaction::write(BlockAddr::from_index(i), TrafficClass::DemandWriteback, 0)
    }

    /// Drains and ticks the way `System` does, every cycle.
    fn run(mc: &mut MemoryController, from: MemCycle, to: MemCycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..to {
            mc.drain(now);
            mc.tick(now, &mut done);
        }
        done
    }

    #[test]
    fn sequential_region_reads_mostly_hit_with_region_interleaving() {
        let mut cfg = DramConfig::paper_open_row();
        cfg.audit = true;
        let mut mc = MemoryController::new(cfg);
        for i in 0..16u64 {
            mc.submit(read(i));
        }
        let done = run(&mut mc, 0, 2_000);
        assert_eq!(done.len(), 16);
        // One activation, fifteen row hits.
        assert_eq!(mc.stats().read_row_hits.hits, 15);
        assert_eq!(mc.energy().activations, 1);
        assert_eq!(mc.audit_errors(), 0);
    }

    #[test]
    fn sequential_region_reads_spread_with_block_interleaving() {
        let mut cfg = DramConfig::paper_close_row();
        cfg.audit = true;
        let mut mc = MemoryController::new(cfg);
        for i in 0..16u64 {
            mc.submit(read(i));
        }
        let done = run(&mut mc, 0, 2_000);
        assert_eq!(done.len(), 16);
        // Blocks fan out over many banks: many activations.
        assert!(
            mc.energy().activations >= 8,
            "expected bank-parallel activations, got {}",
            mc.energy().activations
        );
        assert_eq!(mc.audit_errors(), 0);
    }

    #[test]
    fn block_interleaving_is_faster_for_scattered_parallel_reads() {
        // 16 consecutive blocks: close/block exploits bank parallelism,
        // open/region serializes on one bank but hits the row buffer.
        let mut close = MemoryController::new(DramConfig::paper_close_row());
        let mut open = MemoryController::new(DramConfig::paper_open_row());
        for i in 0..16u64 {
            close.submit(read(i));
            open.submit(read(i));
        }
        let dc = run(&mut close, 0, 4_000);
        let do_ = run(&mut open, 0, 4_000);
        let end_close = dc.iter().map(|c| c.done_at).max().unwrap();
        let end_open = do_.iter().map(|c| c.done_at).max().unwrap();
        assert!(
            end_close < end_open,
            "block interleaving should finish first ({end_close} vs {end_open})"
        );
    }

    #[test]
    fn writes_complete_and_count_in_stats() {
        let mut mc = MemoryController::new(DramConfig::paper_open_row());
        for i in 0..8u64 {
            mc.submit(write(i));
        }
        let _ = run(&mut mc, 0, 3_000);
        assert_eq!(mc.stats().writes_completed, 8);
        assert_eq!(mc.energy().writes, 8);
    }

    #[test]
    fn queue_full_keeps_submits_in_the_backlog() {
        let mut mc = MemoryController::new(DramConfig::paper_open_row());
        let blocks = channel0_blocks(&mc, 65);
        for &b in &blocks {
            mc.submit(Transaction::read(b, TrafficClass::Demand, 0));
        }
        mc.drain(0);
        assert_eq!((mc.queued(), mc.backlogged()), (64, 1), "backpressure");
        let mut done = Vec::new();
        let mut now = 0;
        while columns(&mc) == 0 {
            now += 1;
            mc.drain(now);
            assert_eq!(mc.backlogged(), 1, "admitted at {now} before any column");
            mc.tick(now, &mut done);
        }
        mc.drain(now + 1);
        assert_eq!(
            (mc.queued(), mc.backlogged()),
            (64, 0),
            "the column made room"
        );
    }

    #[test]
    fn stats_row_hit_ratio_combines_reads_and_writes() {
        let mut mc = MemoryController::new(DramConfig::paper_open_row());
        for i in 0..4u64 {
            mc.submit(read(i));
            mc.submit(write(i + 16));
        }
        let _ = run(&mut mc, 0, 3_000);
        let r = mc.stats().row_hit_ratio();
        assert_eq!(r.total, 8);
    }

    #[test]
    fn long_audited_run_stays_legal_under_both_configs() {
        for cfg in [DramConfig::paper_close_row(), DramConfig::paper_open_row()] {
            let mut cfg = cfg;
            cfg.audit = true;
            let mut mc = MemoryController::new(cfg);
            let mut state = 0xDEADBEEFu64;
            let mut done = Vec::new();
            for now in 0..20_000u64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(4) {
                    let t = if state.is_multiple_of(8) {
                        write(state % 1_000_000)
                    } else {
                        read(state % 1_000_000)
                    };
                    mc.submit(t);
                }
                mc.drain(now);
                mc.tick(now, &mut done);
            }
            assert_eq!(mc.audit_errors(), 0, "config {:?}", mc.config().policy);
            assert!(done.len() > 1000);
        }
    }

    /// The first `n` blocks that map to channel 0.
    fn channel0_blocks(mc: &MemoryController, n: usize) -> Vec<BlockAddr> {
        (0..)
            .map(BlockAddr::from_index)
            .filter(|&b| mc.mapper().decode(b).channel == 0)
            .take(n)
            .collect()
    }

    fn columns(mc: &MemoryController) -> u64 {
        mc.channel_activity().map(|(cols, _)| cols).sum()
    }

    #[test]
    fn refused_backlog_stays_not_due_across_reset_stats_until_a_column_issues() {
        let mut mc = MemoryController::new(DramConfig::paper_open_row());
        for b in channel0_blocks(&mc, 80) {
            mc.submit(Transaction::read(b, TrafficClass::Demand, 0));
        }
        assert!(mc.drain_due(), "a fresh submission is due");
        mc.drain_event(0);
        assert_eq!((mc.queued(), mc.backlogged()), (64, 16));
        assert!(!mc.drain_due(), "the rest was refused");
        mc.reset_stats();
        assert!(!mc.drain_due(), "a stats reset opens no room");
        let mut done = Vec::new();
        let mut now = 0;
        while columns(&mc) == 0 {
            assert!(!mc.drain_due(), "due at {now} before any column");
            now += 1;
            mc.tick_event(now, &mut done);
        }
        assert!(mc.drain_due(), "the column at {now} popped an entry");
        mc.drain_event(now);
        assert_eq!((mc.queued(), mc.backlogged()), (64, 15));
        assert!(!mc.drain_due(), "the retry was refused again");
    }

    #[test]
    fn promotion_reaches_a_backlogged_speculative_read() {
        let mut mc = MemoryController::new(DramConfig::paper_open_row());
        let blocks = channel0_blocks(&mc, 66);
        for &b in &blocks[..64] {
            mc.submit(Transaction::read(b, TrafficClass::Demand, 0));
        }
        let (bulk, demand) = (blocks[64], blocks[65]);
        mc.submit(Transaction::read(bulk, TrafficClass::BulkRead, 0));
        mc.submit(Transaction::read(demand, TrafficClass::Demand, 0));
        mc.drain(0);
        assert_eq!((mc.queued(), mc.backlogged()), (64, 2));
        assert!(mc.promote_to_demand(bulk), "the backlogged bulk read");
        assert!(!mc.promote_to_demand(bulk), "already demand");
        assert!(
            !mc.promote_to_demand(demand),
            "demand reads stay as they are"
        );
        let mut done = Vec::new();
        for now in 1..20_000 {
            mc.drain(now);
            mc.tick(now, &mut done);
        }
        let served = done.iter().find(|c| c.txn.block == bulk).expect("served");
        assert_eq!(served.txn.class, TrafficClass::Demand);
        assert_eq!(mc.stats().demand_reads_completed, 66);
    }

    /// Every platform preset fits the scheduler's 64-bank-per-channel
    /// index, from LPDDR4's 8 banks up to DDR4's 64, and serves
    /// scattered reads legally.
    #[test]
    fn every_mem_spec_preset_builds_a_working_controller() {
        let banks_per_channel =
            |spec: &MemSpec| spec.geometry.ranks_per_channel * spec.geometry.banks_per_rank;
        let expected = [("ddr3_1600", 32), ("ddr4_2400", 64), ("lpddr4_3200", 8)];
        let specs = MemSpec::all();
        assert_eq!(specs.len(), expected.len(), "a new preset needs a row here");
        for (spec, (name, banks)) in specs.iter().zip(expected) {
            assert_eq!((spec.name, banks_per_channel(spec)), (name, banks));
            for mut cfg in [DramConfig::close_row(spec), DramConfig::open_row(spec)] {
                cfg.audit = true;
                let mut mc = MemoryController::new(cfg);
                // Strided blocks spread over many banks and rows.
                for i in 0..48u64 {
                    mc.submit(read(i * 4099));
                }
                let done = run(&mut mc, 0, 20_000);
                assert_eq!(done.len(), 48, "{name} {:?}", cfg.policy);
                assert_eq!(mc.audit_errors(), 0, "{name} {:?}", cfg.policy);
            }
        }
    }
}
