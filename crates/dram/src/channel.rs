//! One memory channel: per-bank state, transaction queues, and the
//! FR-FCFS command scheduler.
//!
//! Every memory-bus cycle the channel may issue at most one command
//! (command-bus serialization). FR-FCFS priority order:
//!
//! 1. refresh management (precharges for a due refresh, then REF),
//! 2. the oldest *ready* column command to an already-open row
//!    ("first-ready": row hits bypass older row misses),
//! 3. an ACT for the oldest transaction whose bank is precharged,
//! 4. a PRE for the oldest transaction whose bank holds the wrong row —
//!    but never while another queued transaction still hits the open row.
//!
//! Reads are prioritized over writes; writes buffer in a write queue
//! that drains when it fills past a high watermark (or opportunistically
//! when no reads are pending), following the scheme of the Virtual Write
//! Queue paper the baseline compares against.
//!
//! Each queue keeps a per-bank index ([`TxnQueue`]): how many entries
//! target each bank, how many of those hit the bank's open row or are
//! demand (non-speculative) traffic, and bitmasks of the banks with any
//! entry and with a demand entry. Every gate of the arbitration
//! above depends only on a bank's state and whether it has a pending
//! hit, so a cycle that issues nothing costs O(occupied banks); the
//! queue itself is walked only to pick the transaction a command serves.

use crate::audit::TimingAuditor;
use crate::bank::{Bank, CommandKind, RankTimer};
use crate::energy::DramEnergyCounters;
use crate::mapping::DramCoord;
use crate::transaction::{Completion, Transaction, TransactionId};
use bump_types::{DramGeometry, DramTiming, MemCycle};
use std::collections::VecDeque;

/// Write-queue capacity and drain watermarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteQueueConfig {
    /// Maximum buffered writes per channel.
    pub capacity: usize,
    /// Enter drain mode at or above this occupancy.
    pub drain_high: usize,
    /// Leave drain mode at or below this occupancy.
    pub drain_low: usize,
}

impl Default for WriteQueueConfig {
    fn default() -> Self {
        WriteQueueConfig {
            capacity: 64,
            drain_high: 48,
            drain_low: 16,
        }
    }
}

/// Row-buffer management policy (paper §V.A).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RowPolicy {
    /// Keep rows open after a column access (FR-FCFS open-row).
    #[default]
    Open,
    /// Auto-precharge after the last pending access to the row
    /// (FR-FCFS close-row).
    Close,
}

/// The most banks one channel may have: the per-bank index keeps its
/// occupied banks in a `u64` mask.
const MAX_BANKS: u32 = 64;

#[derive(Clone, Debug)]
struct Queued {
    id: TransactionId,
    txn: Transaction,
    coord: DramCoord,
    /// Channel-local bank index of `coord` (see [`Channel::bank_index`]).
    bank: usize,
    enqueued_at: MemCycle,
    caused_activation: bool,
    caused_conflict: bool,
}

/// One transaction queue (reads or writes) with its per-bank index.
///
/// Invariants, for every bank `b` of the channel:
/// - `queued[b]` is the number of entries targeting `b`;
/// - `hits[b]` is the number of those whose row is `b`'s open row
///   (zero while `b` is precharged);
/// - bit `b` of `occupied` is set iff `queued[b] > 0`;
/// - `demand[b]` is the number of those that are not speculative;
/// - bit `b` of `demand_occupied` is set iff `demand[b] > 0`.
#[derive(Debug)]
struct TxnQueue {
    entries: VecDeque<Queued>,
    queued: Vec<u32>,
    hits: Vec<u32>,
    occupied: u64,
    demand: Vec<u32>,
    demand_occupied: u64,
}

impl TxnQueue {
    fn new(banks: usize) -> Self {
        TxnQueue {
            entries: VecDeque::new(),
            queued: vec![0; banks],
            hits: vec![0; banks],
            occupied: 0,
            demand: vec![0; banks],
            demand_occupied: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends `q`; `hit` says whether its row is its bank's open row.
    fn push(&mut self, q: Queued, hit: bool) {
        self.queued[q.bank] += 1;
        self.hits[q.bank] += u32::from(hit);
        self.occupied |= 1 << q.bank;
        if !q.txn.class.is_speculative() {
            self.add_demand(q.bank);
        }
        self.entries.push_back(q);
    }

    fn add_demand(&mut self, bank: usize) {
        self.demand[bank] += 1;
        self.demand_occupied |= 1 << bank;
    }

    /// Removes the entry at `pos`, which a column command is serving —
    /// so it hits its bank's open row.
    fn remove_hit(&mut self, pos: usize) -> Queued {
        let q = self.entries.remove(pos).expect("queue position valid");
        self.queued[q.bank] -= 1;
        self.hits[q.bank] -= 1;
        if self.queued[q.bank] == 0 {
            self.occupied &= !(1 << q.bank);
        }
        if !q.txn.class.is_speculative() {
            self.demand[q.bank] -= 1;
            if self.demand[q.bank] == 0 {
                self.demand_occupied &= !(1 << q.bank);
            }
        }
        q
    }

    /// Re-counts bank `bank`'s hits against its new open row (`None`
    /// once it precharged).
    fn set_open_row(&mut self, bank: usize, row: Option<u64>) {
        self.hits[bank] = match row {
            None => 0,
            Some(row) => self
                .entries
                .iter()
                .filter(|q| q.bank == bank && q.coord.row == row)
                .count() as u32,
        };
    }

    /// The oldest entry in one of the banks of `mask` that `pred`
    /// accepts. With `demand_first`, the oldest demand entry wins over
    /// older speculative (prefetch/bulk) ones, so streams cannot delay
    /// the critical path. Without a demand entry in `mask`'s banks the
    /// first match wins outright, so the walk stops there.
    fn oldest(
        &self,
        mask: u64,
        demand_first: bool,
        pred: impl Fn(&Queued) -> bool,
    ) -> Option<usize> {
        let demand_first = demand_first && mask & self.demand_occupied != 0;
        let mut any = None;
        for (i, q) in self.entries.iter().enumerate() {
            if mask & (1 << q.bank) != 0 && pred(q) {
                if !demand_first || !q.txn.class.is_speculative() {
                    return Some(i);
                }
                any.get_or_insert(i);
            }
        }
        any
    }
}

/// The banks set in `mask`, lowest first.
fn banks_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// A command the FR-FCFS arbiter chose, naming the active-queue
/// position of the transaction it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Command {
    Column(usize),
    Activate(usize),
    Precharge(usize),
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    id: TransactionId,
    txn: Transaction,
    enqueued_at: MemCycle,
    data_end: MemCycle,
    row_hit: bool,
    row_conflict: bool,
}

/// One memory channel with its ranks, banks, queues, and scheduler.
#[derive(Debug)]
pub struct Channel {
    timing: DramTiming,
    policy: RowPolicy,
    geom: DramGeometry,
    wq_config: WriteQueueConfig,
    read_capacity: usize,
    banks: Vec<Bank>,
    ranks: Vec<RankTimer>,
    /// The rank of each channel-local bank (`bank / banks_per_rank`,
    /// tabulated once: the scheduler asks per occupied bank).
    bank_rank: Vec<usize>,
    read_queue: TxnQueue,
    write_queue: TxnQueue,
    in_flight: Vec<InFlight>,
    write_drain: bool,
    data_bus_free_at: MemCycle,
    last_burst_was_write: bool,
    energy: DramEnergyCounters,
    auditor: Option<TimingAuditor>,
    /// Memoized event horizon for [`Channel::tick_event`]: every tick at
    /// a cycle strictly below it is a provable no-op (only background
    /// energy accounting). `None` means "unknown — take the full tick".
    horizon: Option<MemCycle>,
    /// Commands issued so far (ACT/column/PRE/REF), bumped whenever a
    /// tick consumes its command slot. Lets `tick_event` detect an
    /// active tick without recomputing the horizon.
    commands_issued: u64,
    /// Column commands issued so far. Columns are the only commands
    /// that pop a queue entry, i.e. the only events that can open room
    /// for a backpressured transaction — the event loop watches this to
    /// know when an enqueue retry could succeed.
    columns_issued: u64,
    /// Columns that hit the open row at issue time. Together with
    /// `columns_issued` this gives the telemetry sampler a per-channel
    /// bandwidth/row-locality gauge without walking completions.
    row_hits_issued: u64,
}

impl Channel {
    /// Creates a channel of `geom.ranks_per_channel` ranks. Refreshes
    /// are staggered across ranks starting from `refresh_phase`.
    ///
    /// # Panics
    ///
    /// Panics if the channel has more than 64 banks (the scheduler's
    /// per-bank index keeps its occupied banks in a `u64` mask).
    pub fn new(
        geom: DramGeometry,
        timing: DramTiming,
        policy: RowPolicy,
        wq_config: WriteQueueConfig,
        read_capacity: usize,
        refresh_phase: MemCycle,
        audit: bool,
    ) -> Self {
        let bank_count = geom.ranks_per_channel * geom.banks_per_rank;
        assert!(
            bank_count <= MAX_BANKS,
            "{bank_count} banks per channel; the scheduler supports at most {MAX_BANKS}"
        );
        let bank_count = bank_count as usize;
        let ranks = (0..geom.ranks_per_channel)
            .map(|r| {
                RankTimer::new(
                    refresh_phase
                        + u64::from(r) * timing.refi() / u64::from(geom.ranks_per_channel),
                )
            })
            .collect();
        Channel {
            timing,
            policy,
            geom,
            wq_config,
            read_capacity,
            banks: vec![Bank::new(); bank_count],
            ranks,
            bank_rank: (0..bank_count)
                .map(|b| b / geom.banks_per_rank as usize)
                .collect(),
            read_queue: TxnQueue::new(bank_count),
            write_queue: TxnQueue::new(bank_count),
            in_flight: Vec::new(),
            write_drain: false,
            data_bus_free_at: 0,
            last_burst_was_write: false,
            energy: DramEnergyCounters::default(),
            auditor: audit.then(TimingAuditor::new),
            horizon: None,
            commands_issued: 0,
            columns_issued: 0,
            row_hits_issued: 0,
        }
    }

    fn bank_index(&self, coord: DramCoord) -> usize {
        (coord.rank * self.geom.banks_per_rank + coord.bank) as usize
    }

    /// The rank holding channel-local bank `bank`.
    fn rank_of(&self, bank: usize) -> &RankTimer {
        &self.ranks[self.bank_rank[bank]]
    }

    /// Whether the queue for `is_write` traffic has room.
    pub fn has_room(&self, is_write: bool) -> bool {
        if is_write {
            self.write_queue.len() < self.wq_config.capacity
        } else {
            self.read_queue.len() < self.read_capacity
        }
    }

    /// Current read-queue occupancy.
    pub fn read_queue_len(&self) -> usize {
        self.read_queue.len()
    }

    /// Current write-queue occupancy.
    pub fn write_queue_len(&self) -> usize {
        self.write_queue.len()
    }

    /// Accumulated energy event counters.
    pub fn energy(&self) -> &DramEnergyCounters {
        &self.energy
    }

    /// Zeroes the energy counters (warmup/measurement boundary).
    pub fn reset_energy(&mut self) {
        self.energy = DramEnergyCounters::default();
    }

    /// The auditor's verdicts (only present when auditing is enabled).
    pub fn auditor(&self) -> Option<&TimingAuditor> {
        self.auditor.as_ref()
    }

    /// Promotes a queued speculative read of `block` to demand priority
    /// (a demand access merged into its MSHR). Returns whether a queued
    /// transaction was found.
    pub fn promote_to_demand(&mut self, block: bump_types::BlockAddr) -> bool {
        self.horizon = None;
        let queue = &mut self.read_queue;
        if let Some(q) = queue
            .entries
            .iter_mut()
            .find(|q| q.txn.block == block && q.txn.class.is_speculative())
        {
            q.txn.class = bump_types::TrafficClass::Demand;
            let bank = q.bank;
            queue.add_demand(bank);
            true
        } else {
            false
        }
    }

    /// Enqueues a transaction already mapped to `coord`.
    ///
    /// Returns `false` (and drops nothing) when the target queue is full.
    /// A write to a block with a queued write coalesces into the older
    /// entry; a read that hits a queued write is served by forwarding at
    /// the next tick without touching DRAM.
    pub fn enqueue(
        &mut self,
        id: TransactionId,
        txn: Transaction,
        coord: DramCoord,
        now: MemCycle,
    ) -> bool {
        self.horizon = None;
        if txn.is_write {
            if let Some(q) = self
                .write_queue
                .entries
                .iter_mut()
                .find(|q| q.txn.block == txn.block)
            {
                // Coalesce: the newer data replaces the queued write.
                q.txn = txn;
                return true;
            }
            if self.write_queue.len() >= self.wq_config.capacity {
                return false;
            }
        } else {
            if self.read_queue.len() >= self.read_capacity {
                return false;
            }
            if self
                .write_queue
                .entries
                .iter()
                .any(|q| q.txn.block == txn.block)
            {
                // Forward from the write queue: complete without DRAM.
                self.in_flight.push(InFlight {
                    id,
                    txn,
                    enqueued_at: now,
                    data_end: now + 1,
                    row_hit: true,
                    row_conflict: false,
                });
                return true;
            }
        }
        let bank = self.bank_index(coord);
        let hit = self.banks[bank].open_row() == Some(coord.row);
        let queue = if txn.is_write {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        queue.push(
            Queued {
                id,
                txn,
                coord,
                bank,
                enqueued_at: now,
                caused_activation: false,
                caused_conflict: false,
            },
            hit,
        );
        true
    }

    /// Advances the channel by one memory cycle, appending finished
    /// transactions to `completions`.
    pub fn tick(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        self.retire_in_flight(now, completions);
        self.account_background(now);
        self.update_drain_mode();
        if self.service_refresh(now) {
            return; // the command slot was spent on refresh management
        }
        if let Some(cmd) = self.pick(now) {
            self.issue(cmd, now);
        }
    }

    /// Event-driven tick: identical semantics to [`Channel::tick`], but
    /// ticks strictly below the memoized [`Channel::next_event_at`]
    /// horizon take a fast path that only performs the per-cycle
    /// background-energy accounting (provably the full tick's only
    /// effect there). The horizon is recomputed after every full tick
    /// and invalidated by [`Channel::enqueue`] /
    /// [`Channel::promote_to_demand`].
    pub fn tick_event(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        if let Some(h) = self.horizon {
            if now < h {
                self.account_background(now);
                return;
            }
        }
        let commands_before = self.commands_issued;
        let retired_before = completions.len();
        self.tick(now, completions);
        self.horizon =
            if self.commands_issued != commands_before || completions.len() != retired_before {
                // The channel is hot — a command or completion landed this
                // cycle, so more activity next cycle is likely. Skip the
                // horizon scan; the next full tick re-evaluates anyway.
                Some(now + 1)
            } else {
                Some(self.next_event_at(now + 1))
            };
    }

    /// The earliest memory cycle `T >= now` at which ticking this
    /// channel could do anything beyond background-energy accounting: a
    /// transaction completes, a command becomes legal to issue, a
    /// refresh falls due or finishes, or the write-drain mode flips.
    ///
    /// This is an *exact lower bound*: every tick in `now..T` is a
    /// no-op (the channel state is frozen there, so the monotone timing
    /// predicates cannot flip before their thresholds), while the tick
    /// at `T` may — but need not — act. Returning a too-early horizon
    /// only costs a wasted tick; the event engine's equivalence to the
    /// cycle-accurate oracle does not depend on tightness.
    ///
    /// Costs O(in-flight + ranks + occupied banks): each occupied bank
    /// of the active queue contributes one bound. With a pending hit it
    /// is the column bound (its conflicting entries wait for a command
    /// on that bank, an event in its own right); an open bank without
    /// one can precharge; a closed bank can activate.
    pub fn next_event_at(&self, now: MemCycle) -> MemCycle {
        // A pending drain-mode flip mutates state on the very next tick.
        if self.drain_mode_would_flip() {
            return now;
        }
        let mut t = MemCycle::MAX;
        for f in &self.in_flight {
            t = t.min(f.data_end);
        }
        for r in &self.ranks {
            t = t.min(match r.refresh_until() {
                Some(until) => until,
                None => r.refresh_due(),
            });
        }
        let is_write = self.write_drain;
        let queue = self.active_queue();
        let bus_ready = self.data_bus_ready_at(is_write);
        for b in banks_in(queue.occupied) {
            let bank = &self.banks[b];
            let rank = self.rank_of(b);
            t = t.min(match bank.open_row() {
                Some(_) if queue.hits[b] > 0 => {
                    let col = bank.earliest_column().max(bus_ready);
                    if is_write {
                        col
                    } else {
                        col.max(rank.earliest_read_column())
                    }
                }
                Some(_) => bank.earliest_precharge(),
                None => bank
                    .earliest_activate()
                    .max(rank.earliest_activate(&self.timing)),
            });
        }
        t.max(now)
    }

    /// [`Channel::next_event_at`], but served from the horizon memoized
    /// by [`Channel::tick_event`] when it is still valid (the channel
    /// state is frozen between full ticks, and every mutation —
    /// enqueue, promotion — invalidates the memo).
    pub fn next_event_cached(&self, now: MemCycle) -> MemCycle {
        match self.horizon {
            Some(h) => h,
            None => self.next_event_at(now),
        }
    }

    /// Whether the next tick's [`Channel::update_drain_mode`] would
    /// change the drain flag, given the current (frozen) queue lengths.
    fn drain_mode_would_flip(&self) -> bool {
        if self.write_drain {
            self.write_queue.len() <= self.wq_config.drain_low
        } else {
            self.write_queue.len() >= self.wq_config.drain_high
                || (self.read_queue.entries.is_empty() && !self.write_queue.entries.is_empty())
        }
    }

    /// Applies the state changes of `cycles` consecutive no-op ticks in
    /// O(ranks): per-rank background-energy accounting with the frozen
    /// `open_banks` classification. The caller must have established —
    /// via [`Channel::next_event_at`] — that every skipped tick is a
    /// no-op.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        for rank in &self.ranks {
            if rank.open_banks > 0 {
                self.energy.active_rank_cycles += cycles;
            } else {
                self.energy.idle_rank_cycles += cycles;
            }
        }
    }

    /// Column commands issued so far (the queue-popping events).
    pub fn columns_issued(&self) -> u64 {
        self.columns_issued
    }

    /// Columns issued that hit the already-open row.
    pub fn row_hits_issued(&self) -> u64 {
        self.row_hits_issued
    }

    /// The earliest cycle an in-flight *read* finishes its data burst,
    /// if any. Drives the LLC's MSHR-full retry horizon.
    pub fn next_read_completion(&self) -> Option<MemCycle> {
        self.in_flight
            .iter()
            .filter(|f| !f.txn.is_write)
            .map(|f| f.data_end)
            .min()
    }

    fn retire_in_flight(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].data_end <= now {
                let f = self.in_flight.swap_remove(i);
                completions.push(Completion {
                    id: f.id,
                    txn: f.txn,
                    enqueued_at: f.enqueued_at,
                    done_at: f.data_end,
                    row_hit: f.row_hit,
                    row_conflict: f.row_conflict,
                });
            } else {
                i += 1;
            }
        }
        for rank in &mut self.ranks {
            rank.finish_refresh(now);
        }
    }

    fn account_background(&mut self, _now: MemCycle) {
        for rank in &self.ranks {
            if rank.open_banks > 0 {
                self.energy.active_rank_cycles += 1;
            } else {
                self.energy.idle_rank_cycles += 1;
            }
        }
    }

    fn update_drain_mode(&mut self) {
        if self.drain_mode_would_flip() {
            self.write_drain = !self.write_drain;
        }
    }

    /// Handles refresh management; returns true if the command slot was
    /// consumed.
    fn service_refresh(&mut self, now: MemCycle) -> bool {
        for r in 0..self.ranks.len() {
            if !self.ranks[r].refresh_pending(now) {
                continue;
            }
            let base = r * self.geom.banks_per_rank as usize;
            let bank_range = base..base + self.geom.banks_per_rank as usize;
            // Precharge any open bank first (one command per cycle).
            for b in bank_range.clone() {
                if self.banks[b].open_row().is_some() {
                    if self.banks[b].can_precharge(now) {
                        self.issue_precharge(r, b, now);
                        return true;
                    }
                    return false; // must wait for tRAS/tWR before closing
                }
            }
            // All banks closed: issue REF once tRP has elapsed everywhere.
            if bank_range.clone().all(|b| self.banks[b].can_activate(now)) {
                self.commands_issued += 1;
                let done = self.ranks[r].start_refresh(now, &self.timing);
                for b in bank_range {
                    self.banks[b].refresh_until(done);
                }
                self.energy.refreshes += 1;
                if let Some(a) = &mut self.auditor {
                    a.record(now, r as u32, 0, CommandKind::Refresh, 0, &self.timing);
                }
                return true;
            }
            return false;
        }
        false
    }

    fn issue_precharge(&mut self, rank: usize, bank: usize, now: MemCycle) {
        debug_assert!(self.banks[bank].open_row().is_some());
        self.commands_issued += 1;
        self.banks[bank].precharge(now, &self.timing);
        self.ranks[rank].open_banks -= 1;
        self.set_open_row(bank, None);
        if let Some(a) = &mut self.auditor {
            a.record(
                now,
                rank as u32,
                (bank % self.geom.banks_per_rank as usize) as u32,
                CommandKind::Precharge,
                0,
                &self.timing,
            );
        }
    }

    /// Keeps both queues' hit counts in step with bank `bank`'s new
    /// open row.
    fn set_open_row(&mut self, bank: usize, row: Option<u64>) {
        self.read_queue.set_open_row(bank, row);
        self.write_queue.set_open_row(bank, row);
    }

    /// FR-FCFS arbitration: the one command (if any) to issue at `now`.
    ///
    /// One pass over the active queue's occupied banks sorts each into
    /// the gate its state allows: column (a pending hit whose bank, rank
    /// and data bus are ready), ACT (precharged and activatable) or PRE
    /// (open with no pending hit, and precharge-ready). Only then is the
    /// queue walked, for the highest-priority non-empty gate.
    fn pick(&self, now: MemCycle) -> Option<Command> {
        let is_write = self.write_drain;
        let queue = self.active_queue();
        let bus_free = self.data_bus_ready_at(is_write) <= now;
        let (mut column, mut activate, mut precharge) = (0u64, 0u64, 0u64);
        for b in banks_in(queue.occupied) {
            let bank = &self.banks[b];
            let rank = self.rank_of(b);
            match bank.open_row() {
                Some(_) if queue.hits[b] > 0 => {
                    let rank_ready = if is_write {
                        rank.can_write_col(now)
                    } else {
                        rank.can_read_col(now)
                    };
                    if bus_free && now >= bank.earliest_column() && rank_ready {
                        column |= 1 << b;
                    }
                }
                Some(_) => {
                    if bank.can_precharge(now) {
                        precharge |= 1 << b;
                    }
                }
                None => {
                    if bank.can_activate(now) && rank.can_activate(now, &self.timing) {
                        activate |= 1 << b;
                    }
                }
            }
        }
        if column != 0 {
            let hits_open_row = |q: &Queued| self.banks[q.bank].open_row() == Some(q.coord.row);
            queue
                .oldest(column, true, hits_open_row)
                .map(Command::Column)
        } else if activate != 0 {
            queue
                .oldest(activate, true, |_| true)
                .map(Command::Activate)
        } else if precharge != 0 {
            queue
                .oldest(precharge, false, |_| true)
                .map(Command::Precharge)
        } else {
            None
        }
    }

    fn issue(&mut self, cmd: Command, now: MemCycle) {
        match cmd {
            Command::Column(pos) => self.issue_column(pos, now),
            Command::Activate(pos) => self.issue_activate(pos, now),
            Command::Precharge(pos) => self.issue_conflict_precharge(pos, now),
        }
    }

    fn active_queue(&self) -> &TxnQueue {
        if self.write_drain {
            &self.write_queue
        } else {
            &self.read_queue
        }
    }

    fn active_queue_mut(&mut self) -> &mut TxnQueue {
        if self.write_drain {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        }
    }

    /// The earliest cycle a column command of the given direction can
    /// issue without its data burst overlapping the previous one (plus
    /// the read/write turnaround when the direction changes).
    fn data_bus_ready_at(&self, is_write: bool) -> MemCycle {
        let data_latency = if is_write {
            self.timing.cwl()
        } else {
            self.timing.t_cas
        };
        let mut free_at = self.data_bus_free_at;
        if self.last_burst_was_write != is_write {
            free_at += self.timing.turnaround();
        }
        free_at.saturating_sub(data_latency)
    }

    fn issue_column(&mut self, pos: usize, now: MemCycle) {
        self.commands_issued += 1;
        self.columns_issued += 1;
        let is_write = self.write_drain;
        let q = self.active_queue_mut().remove_hit(pos);
        let bank_idx = q.bank;
        // Every other queued transaction to this row is a pending hit on
        // this bank, in one queue or the other.
        let auto = self.policy == RowPolicy::Close
            && self.read_queue.hits[bank_idx] == 0
            && self.write_queue.hits[bank_idx] == 0;
        let was_open = self.banks[bank_idx].open_row().is_some();
        let data_end = if is_write {
            let end = self.banks[bank_idx].write(now, &self.timing, auto);
            self.ranks[q.coord.rank as usize].record_write_burst(end, &self.timing);
            self.energy.writes += 1;
            end
        } else {
            let end = self.banks[bank_idx].read(now, &self.timing, auto);
            self.energy.reads += 1;
            end
        };
        if was_open && self.banks[bank_idx].open_row().is_none() {
            self.ranks[q.coord.rank as usize].open_banks -= 1;
            self.set_open_row(bank_idx, None);
        }
        self.data_bus_free_at = data_end;
        self.last_burst_was_write = is_write;
        if let Some(a) = &mut self.auditor {
            let kind = match (is_write, auto) {
                (false, false) => CommandKind::Read,
                (false, true) => CommandKind::ReadAuto,
                (true, false) => CommandKind::Write,
                (true, true) => CommandKind::WriteAuto,
            };
            a.record(
                now,
                q.coord.rank,
                q.coord.bank,
                kind,
                q.coord.row,
                &self.timing,
            );
        }
        if !q.caused_activation {
            self.row_hits_issued += 1;
        }
        self.in_flight.push(InFlight {
            id: q.id,
            txn: q.txn,
            enqueued_at: q.enqueued_at,
            data_end,
            row_hit: !q.caused_activation,
            row_conflict: q.caused_conflict,
        });
    }

    fn issue_activate(&mut self, pos: usize, now: MemCycle) {
        self.commands_issued += 1;
        let (coord, bank_idx) = {
            let q = &self.active_queue().entries[pos];
            (q.coord, q.bank)
        };
        let row = coord.row;
        self.banks[bank_idx].activate(now, row, &self.timing);
        self.ranks[coord.rank as usize].record_activate(now, &self.timing);
        self.ranks[coord.rank as usize].open_banks += 1;
        self.energy.activations += 1;
        self.set_open_row(bank_idx, Some(row));
        if let Some(a) = &mut self.auditor {
            a.record(
                now,
                coord.rank,
                coord.bank,
                CommandKind::Activate,
                row,
                &self.timing,
            );
        }
        // The transaction that triggered the ACT pays the row miss; every
        // other queued transaction to the same row will be a hit.
        self.active_queue_mut().entries[pos].caused_activation = true;
    }

    fn issue_conflict_precharge(&mut self, pos: usize, now: MemCycle) {
        let (rank, bank_idx) = {
            let q = &self.active_queue().entries[pos];
            (q.coord.rank as usize, q.bank)
        };
        self.issue_precharge(rank, bank_idx, now);
        self.active_queue_mut().entries[pos].caused_conflict = true;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::AddressMapper;
    use bump_types::{BlockAddr, Interleaving, TrafficClass};

    fn mk_channel(policy: RowPolicy) -> (Channel, AddressMapper) {
        let geom = DramGeometry::paper();
        let mapper = AddressMapper::new(geom, Interleaving::Region);
        let ch = Channel::new(
            geom,
            bump_types::MemSpec::ddr3_1600().timing,
            policy,
            WriteQueueConfig::default(),
            64,
            1_000_000, // keep refresh out of short tests
            true,
        );
        (ch, mapper)
    }

    fn run(ch: &mut Channel, from: MemCycle, to: MemCycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in from..to {
            ch.tick(now, &mut done);
        }
        done
    }

    fn read_txn(i: u64) -> Transaction {
        Transaction::read(BlockAddr::from_index(i), TrafficClass::Demand, 0)
    }

    #[test]
    fn single_read_latency_is_act_rcd_cas_burst() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let b = BlockAddr::from_index(0);
        assert!(ch.enqueue(TransactionId(1), read_txn(0), m.decode(b), 0));
        let done = run(&mut ch, 0, 100);
        assert_eq!(done.len(), 1);
        let t = bump_types::MemSpec::ddr3_1600().timing;
        // ACT at 0, RD at tRCD, data ends tCAS + tBURST later.
        assert_eq!(done[0].done_at, t.t_rcd + t.t_cas + t.t_burst);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn second_read_same_row_is_row_hit() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        // Blocks 0 and 1 share a row under region interleaving.
        ch.enqueue(
            TransactionId(1),
            read_txn(0),
            m.decode(BlockAddr::from_index(0)),
            0,
        );
        ch.enqueue(
            TransactionId(2),
            read_txn(1),
            m.decode(BlockAddr::from_index(1)),
            0,
        );
        let done = run(&mut ch, 0, 200);
        assert_eq!(done.len(), 2);
        assert!(!done[0].row_hit);
        assert!(done[1].row_hit, "same-row access must hit the row buffer");
        assert_eq!(ch.energy().activations, 1, "one activation serves both");
    }

    #[test]
    fn close_policy_precharges_between_lone_accesses() {
        let (mut ch, m) = mk_channel(RowPolicy::Close);
        ch.enqueue(
            TransactionId(1),
            read_txn(0),
            m.decode(BlockAddr::from_index(0)),
            0,
        );
        let _ = run(&mut ch, 0, 100);
        // Enqueue a second access to the same row afterwards: the row was
        // auto-precharged, so it needs a fresh activation.
        ch.enqueue(
            TransactionId(2),
            read_txn(1),
            m.decode(BlockAddr::from_index(1)),
            100,
        );
        let done = run(&mut ch, 100, 300);
        assert_eq!(done.len(), 1);
        assert!(!done[0].row_hit, "close policy must have closed the row");
        assert_eq!(ch.energy().activations, 2);
    }

    #[test]
    fn open_policy_keeps_row_across_idle_gap() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        ch.enqueue(
            TransactionId(1),
            read_txn(0),
            m.decode(BlockAddr::from_index(0)),
            0,
        );
        let _ = run(&mut ch, 0, 100);
        ch.enqueue(
            TransactionId(2),
            read_txn(1),
            m.decode(BlockAddr::from_index(1)),
            100,
        );
        let done = run(&mut ch, 100, 200);
        assert_eq!(done.len(), 1);
        assert!(done[0].row_hit, "open policy keeps the row across the gap");
    }

    #[test]
    fn row_conflict_forces_precharge_and_miss() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        // Two blocks in the same bank but different rows: under region
        // interleaving, stepping by one full row's worth of regions in
        // the same bank. Find two such blocks by scanning.
        let c0 = m.decode(BlockAddr::from_index(0));
        let mut other = None;
        for i in 1..1_000_000u64 {
            let c = m.decode(BlockAddr::from_index(i));
            if c.channel == c0.channel && c.rank == c0.rank && c.bank == c0.bank && c.row != c0.row
            {
                other = Some((BlockAddr::from_index(i), c));
                break;
            }
        }
        let (b1, c1) = other.expect("bank revisited with another row");
        ch.enqueue(TransactionId(1), read_txn(0), c0, 0);
        let _ = run(&mut ch, 0, 100);
        ch.enqueue(
            TransactionId(2),
            Transaction::read(b1, TrafficClass::Demand, 0),
            c1,
            100,
        );
        let done = run(&mut ch, 100, 400);
        assert_eq!(done.len(), 1);
        assert!(!done[0].row_hit);
        assert!(done[0].row_conflict, "must record the conflict precharge");
    }

    #[test]
    fn writes_wait_for_drain_mode_and_reads_bypass() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let wb = Transaction::write(BlockAddr::from_index(64), TrafficClass::DemandWriteback, 0);
        ch.enqueue(TransactionId(1), wb, m.decode(BlockAddr::from_index(64)), 0);
        ch.enqueue(
            TransactionId(2),
            read_txn(0),
            m.decode(BlockAddr::from_index(0)),
            0,
        );
        let done = run(&mut ch, 0, 400);
        assert_eq!(done.len(), 2);
        // The read (id 2) finishes first even though the write arrived first.
        assert_eq!(done[0].id, TransactionId(2));
        assert_eq!(done[1].id, TransactionId(1));
    }

    #[test]
    fn read_forwards_from_queued_write() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let block = BlockAddr::from_index(64);
        // Park enough other writes to keep the drain from starting
        // before the read arrives.
        ch.enqueue(
            TransactionId(1),
            Transaction::write(block, TrafficClass::DemandWriteback, 0),
            m.decode(block),
            0,
        );
        ch.enqueue(
            TransactionId(2),
            read_txn(block.index()),
            m.decode(block),
            0,
        );
        let mut done = Vec::new();
        ch.tick(0, &mut done);
        ch.tick(1, &mut done);
        let read = done.iter().find(|c| c.id == TransactionId(2));
        assert!(read.is_some(), "forwarded read completes immediately");
        assert_eq!(ch.energy().reads, 0, "forwarding must not touch DRAM");
    }

    #[test]
    fn write_coalescing_keeps_one_queue_entry() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let block = BlockAddr::from_index(64);
        let wb = Transaction::write(block, TrafficClass::DemandWriteback, 0);
        ch.enqueue(TransactionId(1), wb, m.decode(block), 0);
        ch.enqueue(TransactionId(2), wb, m.decode(block), 0);
        assert_eq!(ch.write_queue_len(), 1);
    }

    #[test]
    fn refresh_eventually_issues_and_blocks_traffic() {
        let geom = DramGeometry::paper();
        let m = AddressMapper::new(geom, Interleaving::Region);
        let mut ch = Channel::new(
            geom,
            bump_types::MemSpec::ddr3_1600().timing,
            RowPolicy::Open,
            WriteQueueConfig::default(),
            64,
            10, // refresh almost immediately
            true,
        );
        let _ = run(&mut ch, 0, 200);
        assert!(ch.energy().refreshes >= 1, "refresh must fire");
        // After refresh completes, reads still work.
        ch.enqueue(
            TransactionId(1),
            read_txn(0),
            m.decode(BlockAddr::from_index(0)),
            200,
        );
        let done = run(&mut ch, 200, 400);
        assert_eq!(done.len(), 1);
        assert!(ch.auditor().unwrap().errors().is_empty());
    }

    #[test]
    fn audited_random_mix_has_no_timing_violations() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let mut id = 0u64;
        let mut done = Vec::new();
        let mut state = 0x12345678u64;
        for now in 0..5_000u64 {
            // xorshift for a deterministic pseudo-random mix
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if now % 3 == 0 {
                let block = BlockAddr::from_index(state % 100_000);
                id += 1;
                let txn = if state.is_multiple_of(5) {
                    Transaction::write(block, TrafficClass::DemandWriteback, 0)
                } else {
                    Transaction::read(block, TrafficClass::Demand, 0)
                };
                let _ = ch.enqueue(TransactionId(id), txn, m.decode(block), now);
            }
            ch.tick(now, &mut done);
        }
        assert!(
            ch.auditor().unwrap().errors().is_empty(),
            "timing violations: {:?}",
            ch.auditor().unwrap().errors()
        );
        assert!(done.len() > 100, "mix must make progress");
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_than_64_banks_per_channel_is_rejected() {
        let geom = DramGeometry {
            ranks_per_channel: 8,
            banks_per_rank: 16,
            ..DramGeometry::paper()
        };
        let timing = bump_types::MemSpec::ddr3_1600().timing;
        let wq = WriteQueueConfig::default();
        Channel::new(geom, timing, RowPolicy::Open, wq, 64, 0, false);
    }

    #[test]
    fn queue_full_rejects_enqueue() {
        let (mut ch, m) = mk_channel(RowPolicy::Open);
        let mut accepted = 0;
        for i in 0..200u64 {
            let b = BlockAddr::from_index(i * 1024);
            if ch.enqueue(TransactionId(i), read_txn(b.index()), m.decode(b), 0) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64, "read queue capacity is 64");
    }
}
