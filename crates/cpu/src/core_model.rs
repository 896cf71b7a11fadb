//! The lean core: ROB, dispatch, issue, and retirement.

use bump_cache::{L1Cache, L1Outcome};
use bump_types::{
    AccessKind, BlockAddr, CoreId, CoreParams, Cycle, FxHashMap, Instr, InstrSource, MemoryRequest,
};
use std::collections::VecDeque;

/// A memory access the core wants the system to perform this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingAccess {
    /// The request to route to the LLC (the L1 already missed).
    pub request: MemoryRequest,
}

/// When a core next needs to be ticked, as computed by
/// [`LeanCore::classify_idle`]. The event-driven system loop uses this to
/// fast-forward over cycles in which a tick would provably only bump
/// stall counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreWakeup {
    /// The core can retire, issue, or dispatch next cycle — tick it.
    Busy,
    /// Nothing happens before this cycle (the ROB head completes then).
    At(Cycle),
    /// The core is fully blocked; only a
    /// [`LeanCore::memory_response`] can unblock it.
    Blocked,
}

/// Per-core performance statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Loads that missed the L1.
    pub l1_load_misses: u64,
    /// Stores that missed the L1.
    pub l1_store_misses: u64,
    /// Cycles in which nothing retired while the ROB head waited on a
    /// load (the off-chip stall the paper's bulk streaming hides).
    pub load_stall_cycles: u64,
    /// Cycles dispatch was blocked by a full store buffer.
    pub store_buffer_stall_cycles: u64,
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RobSlot {
    /// Completes at a fixed cycle (compute, L1 hits, stores).
    Ready { at: Cycle },
    /// Waiting for a memory response for `block`.
    WaitingMem { block: BlockAddr },
    /// A dependent load that has not issued yet (waiting on the
    /// previous load's completion); carries its instruction.
    NotIssued { instr: Instr },
}

/// The result of the idle analysis ([`LeanCore::classify_idle`]).
///
/// The core's architectural state is frozen between [`LeanCore::tick`]
/// and [`LeanCore::memory_response`] calls, so this classification —
/// probed once per cycle by the event-driven system — holds until
/// either runs. The system caches it in a dense side array (its
/// `CoreBank`) rather than inside the core, so the event loop's
/// idle scan never touches the cores' cold state.
#[derive(Clone, Copy, Debug)]
pub struct IdleClass {
    /// When the next tick could do real work.
    pub wakeup: CoreWakeup,
    /// The ROB head waits on memory: each idle cycle is a load stall.
    pub load_stall: bool,
    /// A parked store is blocked: each idle cycle is a buffer stall.
    pub store_stall: bool,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    slot: RobSlot,
    /// Sequence number of the load this entry represents, if a load.
    load_seq: Option<u64>,
}

/// The lean out-of-order core model.
#[derive(Clone, Debug)]
pub struct LeanCore {
    id: CoreId,
    params: CoreParams,
    rob: VecDeque<RobEntry>,
    /// Outstanding L1 misses: block → number of ROB entries + store
    /// buffer slots waiting on it.
    outstanding: FxHashMap<BlockAddr, u32>,
    /// Store-buffer slots occupied by in-flight store misses.
    store_buffer_used: u32,
    /// Sequence number of the most recently dispatched load.
    last_load_seq: u64,
    /// Highest load sequence number whose data has returned; dependent
    /// loads wait until their predecessor's seq is complete.
    completed_load_seq: u64,
    /// Out-of-order load returns: bit `i` is set once load
    /// `completed_load_seq + 1 + i` is done. Every load past
    /// `completed_load_seq` is still in the ROB, so `rob_entries <= 64`
    /// bits suffice.
    load_done: u64,
    /// ROB id of the ROB head: entries are numbered in dispatch order,
    /// so the entry with id `n` sits at index `n - rob_head_id`.
    rob_head_id: u64,
    /// The ROB's `NotIssued` loads as `(load seq, ROB id)`, oldest
    /// first. None of them is done, so only one with
    /// `seq == completed_load_seq + 1` can be ready, and that one is
    /// the front.
    deferred: VecDeque<(u64, u64)>,
    /// A fetched instruction that could not be dispatched yet.
    pending_dispatch: Option<Instr>,
    /// Remaining count of a partially dispatched compute batch.
    compute_backlog: u32,
    stats: CoreStats,
    stream_done: bool,
}

impl LeanCore {
    /// Creates a core with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the ROB has more than 64 entries (the in-flight load
    /// completions are kept in a `u64` bitset).
    pub fn new(id: CoreId, params: CoreParams) -> Self {
        assert!(
            params.rob_entries <= 64,
            "{} ROB entries; the core supports at most 64",
            params.rob_entries
        );
        LeanCore {
            id,
            params,
            rob: VecDeque::with_capacity(params.rob_entries as usize),
            outstanding: FxHashMap::default(),
            store_buffer_used: 0,
            last_load_seq: 0,
            completed_load_seq: 0,
            load_done: 0,
            rob_head_id: 0,
            deferred: VecDeque::new(),
            pending_dispatch: None,
            compute_backlog: 0,
            stats: CoreStats::default(),
            stream_done: false,
        }
    }

    /// The core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zeroes the statistics without touching architectural state
    /// (used at the warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Whether the stream ended and all in-flight work drained.
    pub fn drained(&self) -> bool {
        self.stream_done
            && self.rob.is_empty()
            && self.pending_dispatch.is_none()
            && self.compute_backlog == 0
            && self.store_buffer_used == 0
    }

    /// Number of L1 MSHRs currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.outstanding.len()
    }

    /// Classifies what the next [`LeanCore::tick`] would do, without
    /// performing it: the wakeup plus which stall counters an idle
    /// cycle charges. Valid until the next [`LeanCore::tick`] or
    /// accepted [`LeanCore::memory_response`]; the event-driven system
    /// caches it per core in its dense wakeup array.
    ///
    /// This is the contract backing the event-driven system loop: when
    /// the wakeup is [`CoreWakeup::Blocked`], or [`CoreWakeup::At`] with
    /// a cycle `t`, every tick before `t` (respectively, before the next
    /// [`LeanCore::memory_response`]) retires nothing, issues nothing,
    /// touches neither the L1 nor the instruction source, and only
    /// advances the cycle/stall counters — exactly the updates
    /// [`LeanCore::apply_idle`] replays in O(1). `Busy` is deliberately
    /// conservative: whenever dispatch *might* make progress (e.g. the
    /// source could yield an instruction) the core must be ticked.
    pub fn classify_idle(&self, l1: &L1Cache) -> IdleClass {
        let wakeup = self.compute_wakeup(l1);
        if wakeup == CoreWakeup::Busy {
            // A busy core is always fully ticked, never skipped, so its
            // stall flags are never read — skip computing them.
            return IdleClass {
                wakeup,
                load_stall: false,
                store_stall: false,
            };
        }
        let load_stall = matches!(
            self.rob.front(),
            Some(RobEntry {
                slot: RobSlot::WaitingMem { .. } | RobSlot::NotIssued { .. },
                ..
            })
        );
        let rob_has_room = self.rob.len() < self.params.rob_entries as usize;
        let store_stall = rob_has_room
            && self.compute_backlog == 0
            && self
                .pending_dispatch
                .as_ref()
                .is_some_and(|i| self.store_dispatch_blocked(i, l1));
        IdleClass {
            wakeup,
            load_stall,
            store_stall,
        }
    }

    fn compute_wakeup(&self, l1: &L1Cache) -> CoreWakeup {
        if self.rob.len() < self.params.rob_entries as usize {
            if self.compute_backlog > 0 {
                return CoreWakeup::Busy;
            }
            match &self.pending_dispatch {
                None => {
                    if !self.stream_done {
                        return CoreWakeup::Busy;
                    }
                }
                Some(instr) => {
                    if !self.store_dispatch_blocked(instr, l1) {
                        return CoreWakeup::Busy;
                    }
                }
            }
        }
        // A deferred dependent load could issue once its predecessor has
        // completed — but predecessors complete (and MSHRs free up) only
        // on a memory response, so this can flip mid-window only via an
        // event the system already tracks.
        if self.issuable_deferred().is_some() {
            return CoreWakeup::Busy;
        }
        match self.rob.front() {
            Some(RobEntry {
                slot: RobSlot::Ready { at },
                ..
            }) => CoreWakeup::At(*at),
            _ => CoreWakeup::Blocked,
        }
    }

    /// The ROB index of the deferred load the next tick issues, if any:
    /// the oldest one, once its predecessor has completed and an L1
    /// MSHR is free.
    fn issuable_deferred(&self) -> Option<usize> {
        let &(seq, id) = self.deferred.front()?;
        (self.completed_load_seq >= seq - 1
            && self.outstanding.len() < self.params.l1_mshrs as usize)
            .then(|| (id - self.rob_head_id) as usize)
    }

    /// Whether a parked store at the dispatch head still cannot
    /// dispatch (no store-buffer slot or L1 MSHR for a fresh miss).
    /// Mirrors the check in [`LeanCore::dispatch`] exactly.
    fn store_dispatch_blocked(&self, instr: &Instr, l1: &L1Cache) -> bool {
        let Instr::Store { block, .. } = instr else {
            return false; // only stores ever park in pending_dispatch
        };
        let joins_existing = self.outstanding.contains_key(block);
        let would_miss = !joins_existing && !l1.contains(*block);
        would_miss
            && (self.store_buffer_used >= self.params.store_buffer_entries
                || self.outstanding.len() >= self.params.l1_mshrs as usize)
    }

    /// Replays the counter updates of `cycles` consecutive idle ticks
    /// in O(1) — cycle count, the ROB-head load stall, and the parked
    /// store's buffer stall — under the [`IdleClass`] stall flags
    /// [`LeanCore::classify_idle`] computed. Only legal for a window
    /// that classification proved idle (the architectural state is
    /// frozen there, so each skipped tick would have applied exactly
    /// these increments).
    pub fn apply_idle(&mut self, cycles: u64, load_stall: bool, store_stall: bool) {
        self.stats.cycles += cycles;
        if load_stall {
            self.stats.load_stall_cycles += cycles;
        }
        if store_stall {
            self.stats.store_buffer_stall_cycles += cycles;
        }
    }

    /// Delivers a memory response for `block` at cycle `now`: all ROB
    /// entries and store-buffer slots waiting on it complete. Returns
    /// whether the core was waiting on `block` (i.e. whether any state
    /// changed and a cached [`IdleClass`] is now stale).
    pub fn memory_response(&mut self, block: BlockAddr, now: Cycle) -> bool {
        let Some(waiters) = self.outstanding.remove(&block) else {
            return false; // response for a block this core wasn't waiting on
        };
        let mut rob_waiters = 0;
        for e in &mut self.rob {
            if matches!(e.slot, RobSlot::WaitingMem { block: b } if b == block) {
                e.slot = RobSlot::Ready { at: now };
                rob_waiters += 1;
                if let Some(seq) = e.load_seq {
                    // Inline `mark_load_done`: the loop borrows the ROB.
                    self.load_done |= 1 << (seq - self.completed_load_seq - 1);
                }
            }
        }
        // Whatever waiters were not ROB entries are store-buffer slots.
        let sb = waiters.saturating_sub(rob_waiters);
        self.store_buffer_used = self.store_buffer_used.saturating_sub(sb);
        self.advance_completed_seq();
        true
    }

    /// Marks load `seq` done; it must be past `completed_load_seq`.
    fn mark_load_done(&mut self, seq: u64) {
        self.load_done |= 1 << (seq - self.completed_load_seq - 1);
    }

    fn advance_completed_seq(&mut self) {
        let done = self.load_done.trailing_ones();
        self.completed_load_seq += u64::from(done);
        self.load_done = self.load_done.checked_shr(done).unwrap_or(0);
    }

    /// Advances the core by one cycle: retire, issue, dispatch.
    ///
    /// L1 misses that must travel to the LLC are appended to `requests`;
    /// the system must eventually answer each with
    /// [`memory_response`](Self::memory_response). Dirty L1 victims are
    /// appended to `writebacks` and must be forwarded to the LLC.
    /// Returns the number of instructions retired this cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        source: &mut dyn InstrSource,
        l1: &mut L1Cache,
        requests: &mut Vec<PendingAccess>,
        writebacks: &mut Vec<BlockAddr>,
    ) -> u32 {
        self.stats.cycles += 1;
        let retired = self.retire(now);
        self.issue_ready_dependents(now, l1, requests, writebacks);
        self.dispatch(now, source, l1, requests, writebacks);
        retired
    }

    fn retire(&mut self, now: Cycle) -> u32 {
        let mut retired = 0;
        while retired < self.params.retire_width {
            match self.rob.front() {
                Some(RobEntry {
                    slot: RobSlot::Ready { at },
                    ..
                }) if *at <= now => {
                    self.rob.pop_front();
                    self.rob_head_id += 1;
                    self.stats.retired += 1;
                    retired += 1;
                }
                Some(RobEntry {
                    slot: RobSlot::WaitingMem { .. } | RobSlot::NotIssued { .. },
                    ..
                }) => {
                    if retired == 0 {
                        self.stats.load_stall_cycles += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        retired
    }

    /// Issues dependent loads whose predecessor has now completed.
    fn issue_ready_dependents(
        &mut self,
        now: Cycle,
        l1: &mut L1Cache,
        requests: &mut Vec<PendingAccess>,
        writebacks: &mut Vec<BlockAddr>,
    ) {
        // At most one deferred load is ready per cycle: the oldest, whose
        // predecessor completed. A load it completes (an L1 hit) must not
        // cascade its dependents into the same cycle, and does not.
        let Some(i) = self.issuable_deferred() else {
            return;
        };
        self.deferred.pop_front();
        let RobEntry {
            slot: RobSlot::NotIssued { instr },
            load_seq: Some(seq),
        } = self.rob[i]
        else {
            unreachable!("the deferred index points at a NotIssued load")
        };
        let Instr::Load { block, pc, .. } = instr else {
            unreachable!("only loads defer issue")
        };
        let slot = self.issue_load(block, pc, now, l1, requests, writebacks);
        self.rob[i].slot = slot;
        if let RobSlot::Ready { .. } = slot {
            self.mark_load_done(seq);
            self.advance_completed_seq();
        }
    }

    /// Performs the L1 access for a load and returns its ROB slot state.
    fn issue_load(
        &mut self,
        block: BlockAddr,
        pc: bump_types::Pc,
        now: Cycle,
        l1: &mut L1Cache,
        requests: &mut Vec<PendingAccess>,
        writebacks: &mut Vec<BlockAddr>,
    ) -> RobSlot {
        self.stats.loads += 1;
        if let Some(n) = self.outstanding.get_mut(&block) {
            // Already in flight: join the miss (no new L1 state change —
            // the magic fill already happened).
            *n += 1;
            return RobSlot::WaitingMem { block };
        }
        let outcome = l1.access(block, false);
        if let L1Outcome::Miss {
            writeback: Some(victim),
        } = outcome
        {
            writebacks.push(victim);
        }
        if outcome.is_hit() {
            return RobSlot::Ready {
                at: now + self.params.l1_latency,
            };
        }
        self.stats.l1_load_misses += 1;
        self.outstanding.insert(block, 1);
        requests.push(PendingAccess {
            request: MemoryRequest::demand(block, pc, AccessKind::Load, self.id),
        });
        RobSlot::WaitingMem { block }
    }

    fn dispatch(
        &mut self,
        now: Cycle,
        source: &mut dyn InstrSource,
        l1: &mut L1Cache,
        requests: &mut Vec<PendingAccess>,
        writebacks: &mut Vec<BlockAddr>,
    ) {
        let mut dispatched = 0;
        while dispatched < self.params.retire_width {
            if self.rob.len() >= self.params.rob_entries as usize {
                break;
            }
            // Drain a compute backlog first.
            if self.compute_backlog > 0 {
                self.compute_backlog -= 1;
                self.rob.push_back(RobEntry {
                    slot: RobSlot::Ready { at: now + 1 },
                    load_seq: None,
                });
                dispatched += 1;
                continue;
            }
            let instr = match self.pending_dispatch.take() {
                Some(i) => i,
                None => match source.next_instr() {
                    Some(i) => i,
                    None => {
                        self.stream_done = true;
                        break;
                    }
                },
            };
            match instr {
                Instr::Compute { count } => {
                    self.compute_backlog = count;
                }
                Instr::Load { block, pc, dep } => {
                    self.last_load_seq += 1;
                    let seq = self.last_load_seq;
                    let must_wait = dep && self.completed_load_seq < seq - 1;
                    let can_issue =
                        !must_wait && self.outstanding.len() < self.params.l1_mshrs as usize;
                    let slot = if can_issue {
                        let s = self.issue_load(block, pc, now, l1, requests, writebacks);
                        if let RobSlot::Ready { .. } = s {
                            self.mark_load_done(seq);
                        }
                        s
                    } else {
                        let rob_id = self.rob_head_id + self.rob.len() as u64;
                        self.deferred.push_back((seq, rob_id));
                        RobSlot::NotIssued {
                            instr: Instr::Load { block, pc, dep },
                        }
                    };
                    self.rob.push_back(RobEntry {
                        slot,
                        load_seq: Some(seq),
                    });
                    self.advance_completed_seq();
                    dispatched += 1;
                }
                Instr::Store { block, pc } => {
                    let joins_existing = self.outstanding.contains_key(&block);
                    let would_miss = !joins_existing && !l1.contains(block);
                    if would_miss
                        && (self.store_buffer_used >= self.params.store_buffer_entries
                            || self.outstanding.len() >= self.params.l1_mshrs as usize)
                    {
                        // No store-buffer slot or L1 MSHR for a new
                        // store miss: stall dispatch.
                        self.pending_dispatch = Some(instr);
                        self.stats.store_buffer_stall_cycles += 1;
                        break;
                    }
                    self.stats.stores += 1;
                    if let Some(n) = self.outstanding.get_mut(&block) {
                        *n += 1;
                        self.store_buffer_used += 1;
                    } else {
                        let outcome = l1.access(block, true);
                        if let L1Outcome::Miss {
                            writeback: Some(victim),
                        } = outcome
                        {
                            writebacks.push(victim);
                        }
                        if !outcome.is_hit() {
                            self.stats.l1_store_misses += 1;
                            self.outstanding.insert(block, 1);
                            self.store_buffer_used += 1;
                            requests.push(PendingAccess {
                                request: MemoryRequest::demand(
                                    block,
                                    pc,
                                    AccessKind::Store,
                                    self.id,
                                ),
                            });
                        }
                    }
                    // Stores retire without waiting for memory.
                    self.rob.push_back(RobEntry {
                        slot: RobSlot::Ready { at: now + 1 },
                        load_seq: None,
                    });
                    dispatched += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::Pc;

    fn params() -> CoreParams {
        CoreParams::paper()
    }

    fn load(i: u64, dep: bool) -> Instr {
        Instr::Load {
            block: BlockAddr::from_index(i),
            pc: Pc::new(0x400),
            dep,
        }
    }

    fn store(i: u64) -> Instr {
        Instr::Store {
            block: BlockAddr::from_index(i),
            pc: Pc::new(0x800),
        }
    }

    /// Runs the core until drained or `max` cycles, answering every
    /// memory request after `mem_latency` cycles.
    fn run_to_drain(instrs: Vec<Instr>, mem_latency: u64, max: u64) -> CoreStats {
        let mut core = LeanCore::new(0, params());
        let mut l1 = L1Cache::paper();
        let mut src = instrs.into_iter();
        let mut inflight: Vec<(Cycle, BlockAddr)> = Vec::new();
        let mut reqs = Vec::new();
        let mut wbs = Vec::new();
        for now in 0..max {
            let due: Vec<BlockAddr> = inflight
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|(_, b)| *b)
                .collect();
            inflight.retain(|(t, _)| *t > now);
            for b in due {
                core.memory_response(b, now);
            }
            wbs.clear();
            core.tick(now, &mut src, &mut l1, &mut reqs, &mut wbs);
            for r in reqs.drain(..) {
                inflight.push((now + mem_latency, r.request.block));
            }
            if core.drained() {
                break;
            }
        }
        *core.stats()
    }

    #[test]
    fn compute_only_ipc_approaches_width() {
        let stats = run_to_drain(vec![Instr::Compute { count: 3000 }], 10, 10_000);
        assert_eq!(stats.retired, 3000);
        assert!(stats.ipc() > 2.5, "ipc {}", stats.ipc());
    }

    #[test]
    fn independent_load_misses_overlap() {
        // 8 independent loads to distinct blocks with 100-cycle memory:
        // MLP should make total time ≈ 100 + ε, not 800.
        let instrs: Vec<Instr> = (0..8).map(|i| load(i * 1000, false)).collect();
        let stats = run_to_drain(instrs, 100, 10_000);
        assert_eq!(stats.l1_load_misses, 8);
        assert!(
            stats.cycles < 250,
            "independent misses must overlap, took {}",
            stats.cycles
        );
    }

    #[test]
    fn dependent_load_misses_serialize() {
        let instrs: Vec<Instr> = (0..8).map(|i| load(i * 1000, true)).collect();
        let stats = run_to_drain(instrs, 100, 10_000);
        assert!(
            stats.cycles > 700,
            "dependent misses must serialize, took {}",
            stats.cycles
        );
    }

    #[test]
    fn store_misses_do_not_stall_retirement() {
        // Stores to distinct blocks with long memory latency, then
        // compute: everything retires long before the fetches return.
        let mut instrs: Vec<Instr> = (0..8).map(|i| store(i * 1000)).collect();
        instrs.push(Instr::Compute { count: 30 });
        let stats = run_to_drain(instrs, 500, 10_000);
        assert_eq!(stats.l1_store_misses, 8);
        assert_eq!(stats.retired, 38);
        // Retirement of all instructions takes ~14 cycles; the drain
        // (store buffer) waits for memory, but no ROB stall occurred.
        assert_eq!(stats.load_stall_cycles, 0);
    }

    #[test]
    fn store_buffer_capacity_backpressures_dispatch() {
        // More outstanding store misses than the 16-entry store buffer.
        let instrs: Vec<Instr> = (0..40).map(|i| store(i * 1000)).collect();
        let stats = run_to_drain(instrs, 400, 100_000);
        assert!(stats.store_buffer_stall_cycles > 0);
        assert_eq!(stats.retired, 40);
    }

    #[test]
    fn mshr_limit_bounds_mlp() {
        let instrs: Vec<Instr> = (0..30).map(|i| load(i * 1000, false)).collect();
        let mut core = LeanCore::new(0, params());
        let mut l1 = L1Cache::paper();
        let mut src = instrs.into_iter();
        let mut reqs = Vec::new();
        let mut wbs = Vec::new();
        let mut max_outstanding = 0;
        // Never answer: outstanding misses only grow.
        for now in 0..200 {
            core.tick(now, &mut src, &mut l1, &mut reqs, &mut wbs);
            max_outstanding = max_outstanding.max(core.mshrs_in_use());
        }
        assert!(
            max_outstanding <= params().l1_mshrs as usize,
            "MSHR limit exceeded: {max_outstanding}"
        );
    }

    #[test]
    fn rob_head_load_stall_is_counted() {
        let stats = run_to_drain(
            vec![load(0, false), Instr::Compute { count: 10 }],
            200,
            5_000,
        );
        assert!(
            stats.load_stall_cycles >= 190,
            "{}",
            stats.load_stall_cycles
        );
    }

    #[test]
    fn l1_hits_are_fast() {
        // Touch a block, then re-load it many times: all hits.
        let mut instrs = vec![load(0, false)];
        for _ in 0..100 {
            instrs.push(load(0, false));
        }
        let stats = run_to_drain(instrs, 50, 5_000);
        assert_eq!(stats.l1_load_misses, 1);
        assert!(stats.cycles < 300);
    }

    #[test]
    fn same_block_loads_share_one_miss() {
        let instrs = vec![load(0, false), load(0, false), load(0, false)];
        let stats = run_to_drain(instrs, 100, 5_000);
        assert_eq!(stats.l1_load_misses, 1, "merged into one outstanding miss");
        assert_eq!(stats.retired, 3);
    }

    #[test]
    fn drained_reports_false_while_memory_outstanding() {
        let mut core = LeanCore::new(0, params());
        let mut l1 = L1Cache::paper();
        let mut src = vec![store(0)].into_iter();
        let mut reqs = Vec::new();
        let mut wbs = Vec::new();
        for now in 0..10 {
            core.tick(now, &mut src, &mut l1, &mut reqs, &mut wbs);
        }
        assert!(!core.drained(), "store buffer still waiting on memory");
        core.memory_response(BlockAddr::from_index(0), 10);
        let mut reqs2 = Vec::new();
        core.tick(11, &mut src, &mut l1, &mut reqs2, &mut wbs);
        assert!(core.drained());
    }
}

#[cfg(test)]
mod reference;
