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

#[derive(Clone, Debug)]
struct Queued {
    id: TransactionId,
    txn: Transaction,
    coord: DramCoord,
    enqueued_at: MemCycle,
    caused_activation: bool,
    caused_conflict: bool,
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
    read_queue: VecDeque<Queued>,
    write_queue: VecDeque<Queued>,
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
    pub fn new(
        geom: DramGeometry,
        timing: DramTiming,
        policy: RowPolicy,
        wq_config: WriteQueueConfig,
        read_capacity: usize,
        refresh_phase: MemCycle,
        audit: bool,
    ) -> Self {
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
            banks: vec![Bank::new(); (geom.ranks_per_channel * geom.banks_per_rank) as usize],
            ranks,
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
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
        if let Some(q) = self
            .read_queue
            .iter_mut()
            .find(|q| q.txn.block == block && q.txn.class.is_speculative())
        {
            q.txn.class = bump_types::TrafficClass::Demand;
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
            self.write_queue.push_back(Queued {
                id,
                txn,
                coord,
                enqueued_at: now,
                caused_activation: false,
                caused_conflict: false,
            });
        } else {
            if self.read_queue.len() >= self.read_capacity {
                return false;
            }
            if self.write_queue.iter().any(|q| q.txn.block == txn.block) {
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
            self.read_queue.push_back(Queued {
                id,
                txn,
                coord,
                enqueued_at: now,
                caused_activation: false,
                caused_conflict: false,
            });
        }
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
        self.schedule(now);
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
        let hit_banks = self.open_row_hit_banks();
        for q in self.active_queue() {
            t = t.min(self.earliest_possible_issue(q, is_write, hit_banks));
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

    /// One pass over the active queue marking the banks whose open row
    /// still has a pending hit — the rows the "first-ready" guarantee
    /// forbids closing. Banks beyond the 64-bit mask (never the paper
    /// geometry) fall back to [`Channel::pending_open_row_hit`].
    fn open_row_hit_banks(&self) -> u64 {
        let mut mask = 0u64;
        for q in self.active_queue() {
            let idx = self.bank_index(q.coord);
            if idx < 64 && self.banks[idx].open_row() == Some(q.coord.row) {
                mask |= 1 << idx;
            }
        }
        mask
    }

    /// Whether any active-queue transaction still hits bank `idx`'s
    /// open row, using the precomputed mask where it applies.
    fn pending_open_row_hit(&self, idx: usize, mask: u64) -> bool {
        if idx < 64 {
            return mask & (1 << idx) != 0;
        }
        let open = self.banks[idx].open_row();
        self.active_queue()
            .iter()
            .any(|o| self.bank_index(o.coord) == idx && Some(o.coord.row) == open)
    }

    /// Whether the next tick's [`Channel::update_drain_mode`] would
    /// change the drain flag, given the current (frozen) queue lengths.
    fn drain_mode_would_flip(&self) -> bool {
        if self.write_drain {
            self.write_queue.len() <= self.wq_config.drain_low
        } else {
            self.write_queue.len() >= self.wq_config.drain_high
                || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        }
    }

    /// A lower bound on the cycle at which `q` could trigger any
    /// command (column, ACT, or conflict PRE), assuming the channel
    /// state stays frozen. Rank refresh windows are bounded separately
    /// by the caller via the per-rank refresh thresholds.
    fn earliest_possible_issue(
        &self,
        q: &Queued,
        is_write: bool,
        open_row_hit_banks: u64,
    ) -> MemCycle {
        let idx = self.bank_index(q.coord);
        let bank = &self.banks[idx];
        let rank = &self.ranks[q.coord.rank as usize];
        match bank.open_row() {
            Some(row) if row == q.coord.row => {
                let mut t = bank.earliest_column();
                if !is_write {
                    t = t.max(rank.earliest_read_column());
                }
                let data_latency = if is_write {
                    self.timing.cwl()
                } else {
                    self.timing.t_cas
                };
                let mut free = self.data_bus_free_at;
                if self.last_burst_was_write != is_write {
                    free += self.timing.turnaround();
                }
                t.max(free.saturating_sub(data_latency))
            }
            None => bank
                .earliest_activate()
                .max(rank.earliest_activate(&self.timing)),
            Some(_) => {
                // Conflict: a PRE can issue at earliest_pre, but never
                // while a pending hit on the open row exists — that
                // blocker only clears via another command (an event in
                // its own right), so this transaction contributes none.
                if self.pending_open_row_hit(idx, open_row_hit_banks) {
                    MemCycle::MAX
                } else {
                    bank.earliest_precharge()
                }
            }
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
        if self.write_drain {
            if self.write_queue.len() <= self.wq_config.drain_low {
                self.write_drain = false;
            }
        } else if self.write_queue.len() >= self.wq_config.drain_high
            || (self.read_queue.is_empty() && !self.write_queue.is_empty())
        {
            self.write_drain = true;
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

    /// FR-FCFS arbitration: issue at most one command.
    fn schedule(&mut self, now: MemCycle) {
        // 1. Oldest ready column command (row hit) in the active queue.
        if let Some(pos) = self.find_ready_column(now) {
            self.issue_column(pos, now);
            return;
        }
        // 2. Oldest ACT-able transaction.
        if let Some(pos) = self.find_activatable(now) {
            self.issue_activate(pos, now);
            return;
        }
        // 3. Oldest conflicting transaction whose row can close.
        if let Some(pos) = self.find_prechargeable(now) {
            self.issue_conflict_precharge(pos, now);
        }
    }

    fn active_queue(&self) -> &VecDeque<Queued> {
        if self.write_drain {
            &self.write_queue
        } else {
            &self.read_queue
        }
    }

    /// Finds the oldest ready column command, preferring demand traffic
    /// over speculative (prefetch/bulk) traffic so streams cannot delay
    /// the critical path.
    fn find_ready_column(&self, now: MemCycle) -> Option<usize> {
        let is_write = self.write_drain;
        if !self.data_bus_available(now, is_write) {
            return None; // channel-wide gate: no column can issue
        }
        let ready = |q: &Queued| {
            let bank = &self.banks[self.bank_index(q.coord)];
            if !bank.can_column(now, q.coord.row) {
                return false;
            }
            let rank = &self.ranks[q.coord.rank as usize];
            if is_write {
                rank.can_write_col(now)
            } else {
                rank.can_read_col(now)
            }
        };
        self.first_with_demand_priority(ready)
    }

    /// The oldest active-queue transaction satisfying `pred`, giving
    /// demand traffic priority over speculative (prefetch/bulk) traffic
    /// so streams cannot delay the critical path — in one pass.
    fn first_with_demand_priority(&self, pred: impl Fn(&Queued) -> bool) -> Option<usize> {
        let mut any = None;
        for (i, q) in self.active_queue().iter().enumerate() {
            if pred(q) {
                if !q.txn.class.is_speculative() {
                    return Some(i);
                }
                if any.is_none() {
                    any = Some(i);
                }
            }
        }
        any
    }

    fn data_bus_available(&self, now: MemCycle, is_write: bool) -> bool {
        let data_start = now
            + if is_write {
                self.timing.cwl()
            } else {
                self.timing.t_cas
            };
        let mut free_at = self.data_bus_free_at;
        if self.last_burst_was_write != is_write {
            free_at += self.timing.turnaround();
        }
        data_start >= free_at
    }

    /// Finds the oldest transaction whose bank can activate, with the
    /// same demand-over-speculative priority as column commands.
    fn find_activatable(&self, now: MemCycle) -> Option<usize> {
        let can = |q: &Queued| {
            let bank = &self.banks[self.bank_index(q.coord)];
            bank.can_activate(now)
                && self.ranks[q.coord.rank as usize].can_activate(now, &self.timing)
        };
        self.first_with_demand_priority(can)
    }

    fn find_prechargeable(&self, now: MemCycle) -> Option<usize> {
        let hit_banks = self.open_row_hit_banks();
        self.active_queue().iter().position(|q| {
            let idx = self.bank_index(q.coord);
            let bank = &self.banks[idx];
            match bank.open_row() {
                Some(open) if open != q.coord.row => {
                    !self.pending_open_row_hit(idx, hit_banks) && bank.can_precharge(now)
                }
                _ => false,
            }
        })
    }

    fn issue_column(&mut self, pos: usize, now: MemCycle) {
        self.commands_issued += 1;
        self.columns_issued += 1;
        let is_write = self.write_drain;
        let q = if is_write {
            self.write_queue.remove(pos).expect("queue position valid")
        } else {
            self.read_queue.remove(pos).expect("queue position valid")
        };
        let bank_idx = self.bank_index(q.coord);
        let auto = self.policy == RowPolicy::Close && !self.row_has_other_pending(q.coord, q.id);
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

    /// Whether any other queued transaction (either queue) targets the
    /// same bank and row.
    fn row_has_other_pending(&self, coord: DramCoord, id: TransactionId) -> bool {
        let same = |q: &Queued| {
            q.id != id
                && q.coord.rank == coord.rank
                && q.coord.bank == coord.bank
                && q.coord.row == coord.row
        };
        self.read_queue.iter().any(same) || self.write_queue.iter().any(same)
    }

    fn issue_activate(&mut self, pos: usize, now: MemCycle) {
        self.commands_issued += 1;
        let (coord, row) = {
            let q = &self.active_queue()[pos];
            (q.coord, q.coord.row)
        };
        let bank_idx = self.bank_index(coord);
        self.banks[bank_idx].activate(now, row, &self.timing);
        self.ranks[coord.rank as usize].record_activate(now, &self.timing);
        self.ranks[coord.rank as usize].open_banks += 1;
        self.energy.activations += 1;
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
        let queue = if self.write_drain {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        queue[pos].caused_activation = true;
    }

    fn issue_conflict_precharge(&mut self, pos: usize, now: MemCycle) {
        let coord = self.active_queue()[pos].coord;
        let bank_idx = self.bank_index(coord);
        self.issue_precharge(coord.rank as usize, bank_idx, now);
        let queue = if self.write_drain {
            &mut self.write_queue
        } else {
            &mut self.read_queue
        };
        queue[pos].caused_conflict = true;
    }
}

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
