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
//! Each queue ([`TxnQueue`]) keeps its entries as per-bank lists in
//! arrival order, with per-bank counts of the entries that hit the
//! bank's open row or are demand (non-speculative) traffic. Every gate
//! of the arbitration above depends only on a bank's state and whether
//! it has a pending hit, so one pass over the occupied banks
//! ([`Channel::scan`]) yields both the banks each gate admits and the
//! earliest cycle any other gate could open; only the admitted banks'
//! lists are walked, to pick the transaction a command serves.
//!
//! The event engine's tick keeps that earliest cycle as a memo, an
//! exact lower bound on the next gate to open, and every mutation
//! lowers it instead of discarding it; see [`Channel::tick_event`].

use crate::audit::TimingAuditor;
use crate::bank::{Bank, CommandKind, RankTimer};
use crate::energy::DramEnergyCounters;
use crate::mapping::DramCoord;
use crate::transaction::{Completion, Transaction, TransactionId};
use bump_types::{DramGeometry, DramTiming, MemCycle};
use std::cell::Cell;
use std::fmt;

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

/// The most banks one channel may have: the queues keep their occupied
/// banks in a `u64` mask.
const MAX_BANKS: usize = 64;

/// The end of a bank's list (and of the free list).
const NIL: u32 = u32::MAX;

/// The three FR-FCFS gates, in priority order, as indices into
/// [`Scan::gates`].
const COLUMN: usize = 0;
const ACTIVATE: usize = 1;
const PRECHARGE: usize = 2;

#[derive(Clone, Copy, Debug)]
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

/// A slab slot: one queued transaction and its links in its bank's
/// list (or, for a free slot, `next` links the free list).
#[derive(Clone, Copy, Debug)]
struct Slot {
    q: Queued,
    /// Arrival order within the queue: an older entry has a smaller
    /// `seq`.
    seq: u64,
    prev: u32,
    next: u32,
}

/// One transaction queue (reads or writes): per-bank lists in arrival
/// order, threaded through one slab that never outgrows the queue's
/// capacity.
///
/// Invariants, for every bank `b` of the channel:
/// - following `next` from `head[b]` visits exactly the live entries
///   targeting `b`, in increasing `seq`, and ends at `tail[b]`;
///   following `prev` from `tail[b]` visits them in reverse;
/// - bit `b` of `occupied` is set iff `head[b] != NIL`;
/// - `hits[b]` is the number of those entries whose row is `b`'s open
///   row (zero while `b` is precharged);
/// - `demand[b]` is the number of those that are not speculative, and
///   bit `b` of `demand_occupied` is set iff `demand[b] > 0`;
/// - every other slab slot is on the free list from `free`, and `len`
///   counts the live ones.
#[derive(Debug)]
struct TxnQueue {
    slab: Vec<Slot>,
    free: u32,
    len: usize,
    next_seq: u64,
    head: [u32; MAX_BANKS],
    tail: [u32; MAX_BANKS],
    hits: [u32; MAX_BANKS],
    demand: [u32; MAX_BANKS],
    occupied: u64,
    demand_occupied: u64,
}

impl TxnQueue {
    fn new() -> Self {
        TxnQueue {
            slab: Vec::new(),
            free: NIL,
            len: 0,
            next_seq: 0,
            head: [NIL; MAX_BANKS],
            tail: [NIL; MAX_BANKS],
            hits: [0; MAX_BANKS],
            demand: [0; MAX_BANKS],
            occupied: 0,
            demand_occupied: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn entry(&self, slot: u32) -> &Queued {
        &self.slab[slot as usize].q
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Queued {
        &mut self.slab[slot as usize].q
    }

    /// Appends `q` to its bank's list; `hit` says whether its row is
    /// its bank's open row.
    fn push(&mut self, q: Queued, hit: bool) {
        let bank = q.bank;
        self.hits[bank] += u32::from(hit);
        if !q.txn.class.is_speculative() {
            self.add_demand(bank);
        }
        let slot = Slot {
            q,
            seq: self.next_seq,
            prev: self.tail[bank],
            next: NIL,
        };
        self.next_seq += 1;
        let i = if self.free == NIL {
            self.slab.push(slot);
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = slot;
            i
        };
        match self.tail[bank] {
            NIL => self.head[bank] = i,
            t => self.slab[t as usize].next = i,
        }
        self.tail[bank] = i;
        self.occupied |= 1 << bank;
        self.len += 1;
    }

    fn add_demand(&mut self, bank: usize) {
        self.demand[bank] += 1;
        self.demand_occupied |= 1 << bank;
    }

    /// Unlinks the entry in `slot`, which a column command is serving —
    /// so it hits its bank's open row.
    fn remove_hit(&mut self, slot: u32) -> Queued {
        let Slot { q, prev, next, .. } = self.slab[slot as usize];
        let bank = q.bank;
        match prev {
            NIL => self.head[bank] = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail[bank] = prev,
            n => self.slab[n as usize].prev = prev,
        }
        if self.head[bank] == NIL {
            self.occupied &= !(1 << bank);
        }
        self.hits[bank] -= 1;
        if !q.txn.class.is_speculative() {
            self.demand[bank] -= 1;
            if self.demand[bank] == 0 {
                self.demand_occupied &= !(1 << bank);
            }
        }
        self.slab[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        q
    }

    /// Bank `bank`'s entries, oldest first.
    fn bank_slots(&self, bank: usize) -> impl Iterator<Item = u32> + '_ {
        let mut i = self.head[bank];
        std::iter::from_fn(move || {
            (i != NIL).then(|| {
                let slot = i;
                i = self.slab[slot as usize].next;
                slot
            })
        })
    }

    /// The oldest entry of bank `bank` that `pred` accepts.
    fn find(&self, bank: usize, pred: impl Fn(&Queued) -> bool) -> Option<u32> {
        self.bank_slots(bank).find(|&i| pred(self.entry(i)))
    }

    /// Re-counts bank `bank`'s hits against its new open row (`None`
    /// once it precharged).
    fn set_open_row(&mut self, bank: usize, row: Option<u64>) {
        self.hits[bank] = match row {
            None => 0,
            Some(row) => self
                .bank_slots(bank)
                .filter(|&i| self.entry(i).coord.row == row)
                .count() as u32,
        };
    }

    /// The oldest entry (smallest `seq`) in one of the banks `b` of
    /// `mask` whose row is `row(b)` (any row where that is `None`). With
    /// `demand_first`, the oldest demand entry wins over older
    /// speculative (prefetch/bulk) ones, so streams cannot delay the
    /// critical path. Each bank's walk stops at its first match, or at
    /// its first demand match when it holds demand entries the pick
    /// could prefer.
    fn oldest(
        &self,
        mask: u64,
        demand_first: bool,
        row: impl Fn(usize) -> Option<u64>,
    ) -> Option<u32> {
        let demand_first = demand_first && mask & self.demand_occupied != 0;
        let (mut any, mut demand) = ((u64::MAX, NIL), (u64::MAX, NIL));
        for b in banks_in(mask) {
            let want_demand = demand_first && self.demand[b] > 0;
            let row = row(b);
            let mut matched = false;
            for i in self.bank_slots(b) {
                let s = &self.slab[i as usize];
                if row.is_some_and(|row| s.q.coord.row != row) {
                    continue;
                }
                if !matched {
                    matched = true;
                    any = any.min((s.seq, i));
                }
                if !want_demand {
                    break;
                }
                if !s.q.txn.class.is_speculative() {
                    demand = demand.min((s.seq, i));
                    break;
                }
            }
        }
        let (_, slot) = if demand.1 != NIL { demand } else { any };
        (slot != NIL).then_some(slot)
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

/// A command the FR-FCFS arbiter chose, naming the active-queue slab
/// slot of the transaction it serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Command {
    Column(u32),
    Activate(u32),
    Precharge(u32),
}

/// What one pass over the active queue's occupied banks found.
#[derive(Clone, Copy, Debug)]
struct Scan {
    /// The banks each gate admits at the scanned cycle, indexed by
    /// [`COLUMN`], [`ACTIVATE`] and [`PRECHARGE`].
    gates: [u64; 3],
    /// The earliest cycle a refresh falls due or finishes, or an
    /// occupied bank the scan did not admit could pass its gate: the
    /// gate part of [`Channel::next_event_at`] (in-flight bursts are
    /// tracked apart, by `next_data_end`). It depends on the scanned
    /// cycle only through the banks admitted; when the scan admitted
    /// nothing it bounds every occupied bank.
    horizon: MemCycle,
}

/// An exact count of host work, bumped through `&self` (a horizon
/// query scans without mutating the channel).
///
/// Its `Debug` prints no value: work is host effort, not simulated
/// state. A controller that ticked through a null window and one that
/// skipped it end in the same state after different work, and the
/// equivalence tests compare `Debug` renderings of that state.
#[derive(Default)]
pub(crate) struct Tally(Cell<u64>);

impl Tally {
    pub(crate) fn bump(&self) {
        self.0.set(self.0.get() + 1);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.get()
    }
}

impl fmt::Debug for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
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
    /// The banks of rank 0 as a mask; rank `r`'s are this shifted left
    /// by `r × banks_per_rank`.
    rank_banks: u64,
    /// Ranks with at least one open bank (background energy).
    active_ranks: u32,
    /// Whether some rank may still be mid-refresh.
    refresh_running: bool,
    /// The earliest `refresh_due` over the ranks: before it no refresh
    /// is pending.
    next_refresh_due: MemCycle,
    read_queue: TxnQueue,
    write_queue: TxnQueue,
    in_flight: Vec<InFlight>,
    /// The earliest `data_end` in `in_flight` (`MAX` when empty).
    next_data_end: MemCycle,
    write_drain: bool,
    data_bus_free_at: MemCycle,
    last_burst_was_write: bool,
    energy: DramEnergyCounters,
    auditor: Option<TimingAuditor>,
    /// The gate memo of [`Channel::tick_event`]: an exact lower bound
    /// on the cycle a refresh event or a bank's gate could next act
    /// (`now` while the drain mode would flip). Below it a tick can only
    /// retire bursts, which `next_data_end` tracks live. `None` means
    /// "unknown — take the full tick"; [`Channel::tick`] leaves it so.
    horizon: Option<MemCycle>,
    /// Whether a column issued since the controller last drained its
    /// backlog into this channel (the drain clears it). Columns are the
    /// only commands that pop a queue entry, i.e. the only events that
    /// can open room for a refused transaction.
    pub(crate) column_since_drain: bool,
    /// Columns that hit the open row at issue time since the last
    /// [`Channel::reset_stats`]. Together with the read and write
    /// bursts this gives the telemetry sampler a per-channel
    /// bandwidth/row-locality gauge without walking completions.
    row_hits_issued: u64,
    /// Ticks that ran the full step (every [`Channel::tick`], and each
    /// [`Channel::tick_event`] at or past the gate memo).
    pub(crate) full_ticks: Tally,
    /// Passes of `Channel::scan`: one per full tick that reaches the
    /// arbiter, one per horizon query the memo cannot answer.
    pub(crate) scans: Tally,
}

impl Channel {
    /// Creates a channel of `geom.ranks_per_channel` ranks. Refreshes
    /// are staggered across ranks starting from `refresh_phase`.
    ///
    /// # Panics
    ///
    /// Panics if the channel has more than 64 banks (the scheduler keeps
    /// its occupied banks in a `u64` mask).
    pub fn new(
        geom: DramGeometry,
        timing: DramTiming,
        policy: RowPolicy,
        wq_config: WriteQueueConfig,
        read_capacity: usize,
        refresh_phase: MemCycle,
        audit: bool,
    ) -> Self {
        let bank_count = (geom.ranks_per_channel * geom.banks_per_rank) as usize;
        assert!(
            bank_count <= MAX_BANKS,
            "{bank_count} banks per channel; the scheduler supports at most {MAX_BANKS}"
        );
        let ranks: Vec<RankTimer> = (0..geom.ranks_per_channel)
            .map(|r| {
                RankTimer::new(
                    refresh_phase
                        + u64::from(r) * timing.refi() / u64::from(geom.ranks_per_channel),
                )
            })
            .collect();
        let next_refresh_due = ranks.iter().map(RankTimer::refresh_due).min();
        Channel {
            timing,
            policy,
            geom,
            wq_config,
            read_capacity,
            banks: vec![Bank::new(); bank_count],
            ranks,
            rank_banks: u64::MAX >> (64 - geom.banks_per_rank),
            active_ranks: 0,
            refresh_running: false,
            next_refresh_due: next_refresh_due.unwrap_or(MemCycle::MAX),
            read_queue: TxnQueue::new(),
            write_queue: TxnQueue::new(),
            in_flight: Vec::new(),
            next_data_end: MemCycle::MAX,
            write_drain: false,
            data_bus_free_at: 0,
            last_burst_was_write: false,
            energy: DramEnergyCounters::default(),
            auditor: audit.then(TimingAuditor::new),
            horizon: None,
            column_since_drain: false,
            row_hits_issued: 0,
            full_ticks: Tally::default(),
            scans: Tally::default(),
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

    /// Zeroes the energy and row-hit counters (warmup/measurement
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.energy = DramEnergyCounters::default();
        self.row_hits_issued = 0;
    }

    /// The auditor's verdicts (only present when auditing is enabled).
    pub fn auditor(&self) -> Option<&TimingAuditor> {
        self.auditor.as_ref()
    }

    /// Promotes a queued speculative read of `block`, which maps to
    /// `coord`, to demand priority (a demand access merged into its
    /// MSHR). Returns whether a queued transaction was found. Priority
    /// only orders the pick within a gate and moves no gate's
    /// threshold, so the gate memo stands.
    pub fn promote_to_demand(&mut self, block: bump_types::BlockAddr, coord: DramCoord) -> bool {
        let bank = self.bank_index(coord);
        let queue = &mut self.read_queue;
        match queue.find(bank, |q| {
            q.txn.block == block && q.txn.class.is_speculative()
        }) {
            Some(slot) => {
                queue.entry_mut(slot).txn.class = bump_types::TrafficClass::Demand;
                queue.add_demand(bank);
                true
            }
            None => false,
        }
    }

    /// Enqueues a transaction already mapped to `coord`.
    ///
    /// Returns `false` (and drops nothing) when the target queue is full.
    /// A write to a block with a queued write coalesces into the older
    /// entry; a read that hits a queued write is served by forwarding at
    /// the next tick without touching DRAM.
    ///
    /// The gate memo stays an exact lower bound: a coalesced write moves
    /// no gate, and a forwarded read's burst lowers `next_data_end`,
    /// which the memo leaves live. A queued entry lowers the memo to
    /// `now` if the drain mode would flip, else to its bank's gate when
    /// it joined the active queue (see [`Channel::tick_event`]).
    pub fn enqueue(
        &mut self,
        id: TransactionId,
        txn: Transaction,
        coord: DramCoord,
        now: MemCycle,
    ) -> bool {
        let bank = self.bank_index(coord);
        let queued_write = self.write_queue.find(bank, |q| q.txn.block == txn.block);
        if txn.is_write {
            if let Some(slot) = queued_write {
                // Coalesce: the newer data replaces the queued write.
                self.write_queue.entry_mut(slot).txn = txn;
                return true;
            }
            if self.write_queue.len() >= self.wq_config.capacity {
                return false;
            }
        } else {
            if self.read_queue.len() >= self.read_capacity {
                return false;
            }
            if queued_write.is_some() {
                // Forward from the write queue: complete without DRAM.
                self.push_in_flight(InFlight {
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
        if let Some(memo) = self.horizon {
            let at = if self.drain_mode_would_flip() {
                now
            } else if txn.is_write == self.write_drain {
                self.gate_at(bank)
            } else {
                MemCycle::MAX // the inactive queue gates nothing
            };
            self.horizon = Some(memo.min(at));
        }
        true
    }

    /// Advances the channel by one memory cycle, appending finished
    /// transactions to `completions`. The oracle of
    /// [`Channel::tick_event`]: it always takes the full step and
    /// leaves no gate memo behind, so the two may be mixed.
    pub fn tick(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        self.horizon = None;
        self.step(now, completions);
    }

    /// Event-driven tick: identical semantics to [`Channel::tick`].
    /// A tick strictly below the gate memo retires the bursts due by
    /// `now` and accounts background energy, and does no more: the
    /// memo bounds every refresh event and every bank's gate, and
    /// neither moves while no command issues and nothing is enqueued.
    /// Every other tick takes the full step and memoizes the horizon
    /// its scan found (see `Channel::settle`). Between full ticks,
    /// [`Channel::enqueue`] lowers the memo and
    /// [`Channel::promote_to_demand`] keeps it.
    pub fn tick_event(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        match self.horizon {
            Some(memo) if now < memo => {
                self.retire_in_flight(now, completions);
                self.account_background();
            }
            _ => self.horizon = Some(self.step(now, completions)),
        }
    }

    /// The body of [`Channel::tick`]; returns the gate memo for the
    /// next tick (see `Channel::settle`).
    fn step(&mut self, now: MemCycle, completions: &mut Vec<Completion>) -> MemCycle {
        self.full_ticks.bump();
        self.retire_in_flight(now, completions);
        self.account_background();
        self.update_drain_mode();
        if self.service_refresh(now) {
            return now + 1; // the command slot was spent on refresh management
        }
        let scan = self.scan(now);
        let cmd = self.pick(scan.gates);
        self.settle(now, scan, cmd)
    }

    /// Issues `cmd`, the arbiter's pick from `scan`, and returns an
    /// exact lower bound on the next cycle a refresh event or a gate
    /// could act. With no command that is the scan's own horizon: it
    /// admitted nothing, so it bounded every bank. After a command
    /// that was the only bank the scan admitted, it is the scan's bound
    /// over the other banks and the refresh events (a command moves
    /// rank timers only later, and the bus only past `now`) lowered to
    /// the issued bank's new gate. With another bank admitted it is
    /// `now + 1`. A pending drain-mode flip pins it to `now + 1` in
    /// every case.
    fn settle(&mut self, now: MemCycle, scan: Scan, cmd: Option<Command>) -> MemCycle {
        let mut horizon = scan.horizon;
        if let Some(cmd) = cmd {
            let bank = self.issue(cmd, now);
            if scan.gates.iter().fold(0, |m, g| m | g) != 1 << bank {
                return now + 1;
            }
            horizon = horizon.min(self.gate_at(bank));
        }
        self.quiet_horizon(horizon, now + 1)
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
    /// Costs one `Channel::scan`: O(ranks + occupied banks). Each
    /// occupied bank of the active queue contributes one bound. With a
    /// pending hit it is the column bound (its conflicting entries wait
    /// for a command on that bank, an event in its own right); an open
    /// bank without one can precharge; a closed bank can activate.
    pub fn next_event_at(&self, now: MemCycle) -> MemCycle {
        let scan = self.scan(now);
        if scan.gates != [0; 3] {
            return now;
        }
        self.quiet_horizon(scan.horizon.min(self.next_data_end), now)
    }

    /// The horizon `horizon` at `now`: a pending drain-mode flip
    /// mutates state on the very next tick.
    fn quiet_horizon(&self, horizon: MemCycle, now: MemCycle) -> MemCycle {
        if self.drain_mode_would_flip() {
            now
        } else {
            horizon.max(now)
        }
    }

    /// [`Channel::next_event_at`], answered without a scan from the
    /// gate memo of [`Channel::tick_event`] and the live
    /// `next_data_end` whenever there is a memo. The memo is an exact
    /// lower bound through every mutation, so the answer is too; it is
    /// exact after a quiet full tick.
    pub fn next_event_cached(&self, now: MemCycle) -> MemCycle {
        match self.horizon {
            Some(memo) => memo.min(self.next_data_end).max(now),
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
                || (self.read_queue.len() == 0 && self.write_queue.len() != 0)
        }
    }

    /// Applies the state changes of `cycles` consecutive no-op ticks in
    /// O(1): background-energy accounting with the frozen count of
    /// ranks holding an open bank. The caller must have established —
    /// via [`Channel::next_event_at`] — that every skipped tick is a
    /// no-op.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        let active = u64::from(self.active_ranks);
        self.energy.active_rank_cycles += active * cycles;
        self.energy.idle_rank_cycles += (self.ranks.len() as u64 - active) * cycles;
    }

    /// Columns issued that hit the already-open row, since the last
    /// [`Channel::reset_stats`].
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

    fn push_in_flight(&mut self, f: InFlight) {
        self.next_data_end = self.next_data_end.min(f.data_end);
        self.in_flight.push(f);
    }

    /// Retires the transactions whose data burst has ended and clears
    /// finished refreshes. Both are O(1) until `next_data_end` or a
    /// running refresh says there is something to do.
    fn retire_in_flight(&mut self, now: MemCycle, completions: &mut Vec<Completion>) {
        if now >= self.next_data_end {
            let mut next = MemCycle::MAX;
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
                    next = next.min(self.in_flight[i].data_end);
                    i += 1;
                }
            }
            self.next_data_end = next;
        }
        if self.refresh_running {
            for rank in &mut self.ranks {
                rank.finish_refresh(now);
            }
            self.refresh_running = self.ranks.iter().any(|r| r.refresh_until().is_some());
        }
    }

    fn account_background(&mut self) {
        self.skip_idle_cycles(1);
    }

    fn update_drain_mode(&mut self) {
        if self.drain_mode_would_flip() {
            self.write_drain = !self.write_drain;
        }
    }

    /// Handles refresh management; returns true if the command slot was
    /// consumed.
    fn service_refresh(&mut self, now: MemCycle) -> bool {
        if now < self.next_refresh_due {
            return false;
        }
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
                let done = self.ranks[r].start_refresh(now, &self.timing);
                self.refresh_running = true;
                self.next_refresh_due = self
                    .ranks
                    .iter()
                    .map(RankTimer::refresh_due)
                    .min()
                    .unwrap_or(MemCycle::MAX);
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

    /// Counts a bank of `rank` opening a row.
    fn open_bank(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        r.open_banks += 1;
        self.active_ranks += u32::from(r.open_banks == 1);
    }

    /// Counts a bank of `rank` closing its row, and clears both queues'
    /// hits on it.
    fn close_bank(&mut self, rank: usize, bank: usize) {
        let r = &mut self.ranks[rank];
        r.open_banks -= 1;
        self.active_ranks -= u32::from(r.open_banks == 0);
        self.set_open_row(bank, None);
    }

    fn issue_precharge(&mut self, rank: usize, bank: usize, now: MemCycle) {
        debug_assert!(self.banks[bank].open_row().is_some());
        self.banks[bank].precharge(now, &self.timing);
        self.close_bank(rank, bank);
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

    /// One pass over the active queue's occupied banks at `now`, rank by
    /// rank. Each rank's gates (refresh, tRRD/tFAW, tWTR and the data
    /// bus) are computed once; each bank then takes the threshold of the
    /// one gate its state allows — column (a pending hit), ACT
    /// (precharged) or PRE (open without a pending hit) — and joins
    /// that gate's mask if the threshold has passed and refresh does
    /// not block the gate, or else folds the threshold into the
    /// horizon. No branch depends on a bank's state.
    fn scan(&self, now: MemCycle) -> Scan {
        self.scans.bump();
        let queue = self.active_queue();
        let bus_ready = self.data_bus_ready_at(self.write_drain);
        let banks_per_rank = self.geom.banks_per_rank as usize;
        let mut gates = [0u64; 3];
        let mut horizon = MemCycle::MAX;
        for (r, rank) in self.ranks.iter().enumerate() {
            horizon = horizon.min(rank.refresh_until().unwrap_or(rank.refresh_due()));
            let occupied = queue.occupied & (self.rank_banks << (r * banks_per_rank));
            if occupied == 0 {
                continue;
            }
            let floors = self.rank_floors(rank, bus_ready);
            let refreshing = rank.refreshing(now);
            let blocked = |b: bool| if b { MemCycle::MAX } else { 0 };
            let block = [
                blocked(refreshing),
                blocked(refreshing || rank.refresh_pending(now)),
                0,
            ];
            for b in banks_in(occupied) {
                let (gate, at) = bank_gate(queue, &self.banks[b], b, floors);
                let admit = at.max(block[gate]) <= now;
                gates[gate] |= u64::from(admit) << b;
                horizon = horizon.min(if admit { MemCycle::MAX } else { at });
            }
        }
        Scan { gates, horizon }
    }

    /// The rank-wide floor of each gate's threshold on `rank`, indexed
    /// like `Scan::gates`, given the data bus's `bus_ready` for the
    /// active direction: the bus and tWTR for columns, tRRD/tFAW for
    /// ACTs, nothing for PREs.
    fn rank_floors(&self, rank: &RankTimer, bus_ready: MemCycle) -> [MemCycle; 3] {
        let column = if self.write_drain {
            bus_ready
        } else {
            bus_ready.max(rank.earliest_read_column())
        };
        [column, rank.earliest_activate(), 0]
    }

    /// The threshold of bank `b`'s gate in the active queue, as
    /// `Channel::scan` computes it; `MAX` when the queue holds nothing
    /// for `b`.
    fn gate_at(&self, b: usize) -> MemCycle {
        let queue = self.active_queue();
        if queue.occupied & 1 << b == 0 {
            return MemCycle::MAX;
        }
        let rank = &self.ranks[b / self.geom.banks_per_rank as usize];
        let floors = self.rank_floors(rank, self.data_bus_ready_at(self.write_drain));
        bank_gate(queue, &self.banks[b], b, floors).1
    }

    /// FR-FCFS arbitration over the gates a [`Channel::scan`] found: the
    /// oldest transaction in the highest-priority non-empty gate's banks
    /// (demand before speculative for columns and ACTs).
    fn pick(&self, gates: [u64; 3]) -> Option<Command> {
        let queue = self.active_queue();
        if gates[COLUMN] != 0 {
            queue
                .oldest(gates[COLUMN], true, |b| self.banks[b].open_row())
                .map(Command::Column)
        } else if gates[ACTIVATE] != 0 {
            queue
                .oldest(gates[ACTIVATE], true, |_| None)
                .map(Command::Activate)
        } else if gates[PRECHARGE] != 0 {
            queue
                .oldest(gates[PRECHARGE], false, |_| None)
                .map(Command::Precharge)
        } else {
            None
        }
    }

    /// Issues `cmd`; returns the bank it went to.
    fn issue(&mut self, cmd: Command, now: MemCycle) -> usize {
        match cmd {
            Command::Column(slot) => self.issue_column(slot, now),
            Command::Activate(slot) => self.issue_activate(slot, now),
            Command::Precharge(slot) => self.issue_conflict_precharge(slot, now),
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

    fn issue_column(&mut self, slot: u32, now: MemCycle) -> usize {
        self.column_since_drain = true;
        let is_write = self.write_drain;
        let q = self.active_queue_mut().remove_hit(slot);
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
            self.close_bank(q.coord.rank as usize, bank_idx);
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
        self.push_in_flight(InFlight {
            id: q.id,
            txn: q.txn,
            enqueued_at: q.enqueued_at,
            data_end,
            row_hit: !q.caused_activation,
            row_conflict: q.caused_conflict,
        });
        bank_idx
    }

    fn issue_activate(&mut self, slot: u32, now: MemCycle) -> usize {
        let (coord, bank_idx) = {
            let q = self.active_queue().entry(slot);
            (q.coord, q.bank)
        };
        let row = coord.row;
        self.banks[bank_idx].activate(now, row, &self.timing);
        self.ranks[coord.rank as usize].record_activate(now, &self.timing);
        self.open_bank(coord.rank as usize);
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
        self.active_queue_mut().entry_mut(slot).caused_activation = true;
        bank_idx
    }

    fn issue_conflict_precharge(&mut self, slot: u32, now: MemCycle) -> usize {
        let (rank, bank_idx) = {
            let q = self.active_queue().entry(slot);
            (q.coord.rank as usize, q.bank)
        };
        self.issue_precharge(rank, bank_idx, now);
        self.active_queue_mut().entry_mut(slot).caused_conflict = true;
        bank_idx
    }
}

/// Bank `b`'s gate in `queue` — COLUMN with a pending hit (its row is
/// open), else ACTIVATE if precharged, else PRECHARGE — and the cycle
/// that gate opens, given its rank's `floors` (see
/// `Channel::rank_floors`). No branch depends on the bank's state.
fn bank_gate(queue: &TxnQueue, bank: &Bank, b: usize, floors: [MemCycle; 3]) -> (usize, MemCycle) {
    let gate = usize::from(queue.hits[b] == 0) << usize::from(bank.open_row().is_some());
    let at = [
        bank.earliest_column(),
        bank.earliest_activate(),
        bank.earliest_precharge(),
    ][gate];
    (gate, at.max(floors[gate]))
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
