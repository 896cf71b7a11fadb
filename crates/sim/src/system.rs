//! The cycle-driven full-system model.
//!
//! Per CPU cycle the system: delivers due core responses, then due NOC
//! messages (LLC requests, L1 writebacks), ticks every core, has the
//! memory controller drain its backlog of submitted transactions into
//! its queues under backpressure, advances the controller in its own
//! clock domain, and feeds the LLC event stream
//! to whichever mechanism the preset configures (stride/SMS prefetcher,
//! VWQ, BuMP, or the Full-region strawman).

use crate::config::{Engine, Preset, SystemConfig};
use crate::phase::{Phase, PhaseProfiler};
use crate::profiler::DensityProfiler;
use crate::report::{SimReport, TrafficBreakdown};
use crate::telemetry::{TelemetryPoint, TelemetrySampler};
use bump::{BulkAction, Bump, FullRegion};
use bump_cache::{AccessAction, L1Cache, Llc, LlcEvent};
use bump_cpu::{CoreWakeup, LeanCore, PendingAccess};
use bump_dram::{MemoryController, Transaction};
use bump_energy::{EnergyModel, SystemActivity};
use bump_noc::{DeliveryQueue, MessageKind, Noc};
use bump_prefetch::{SmsPrefetcher, StridePrefetcher};
use bump_types::{AccessKind, BlockAddr, CoreId, Cycle, MemCycle, MemoryRequest, TrafficClass};
use bump_vwq::VirtualWriteQueue;
use bump_workloads::WorkloadGen;

/// An uncore NOC delivery. Core responses travel in their own queue
/// ([`System::responses`]): a response touches only its core, so it
/// commutes with every uncore delivery of the same cycle.
#[derive(Debug)]
enum Pending {
    LlcRequest(MemoryRequest),
    L1Writeback(BlockAddr),
    /// Event engine only: one coalesced Full-region retry round for
    /// the parked batch with this id (see [`StormState`]).
    StormRetry(usize),
    /// Cycle engine only: one individually scheduled Full-region retry.
    /// Identical to `LlcRequest` on delivery, but tagged so the oracle
    /// can maintain the same parked-retry gauge the event engine derives
    /// from its [`StormState`] batches.
    StormRetryOne(MemoryRequest),
}

/// Cached wakeup classification for one core, kept in [`CoreBank`]'s
/// dense array so the event loop's per-cycle idle scan touches nothing
/// but this enum (not the 16 cold `LeanCore` structs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WakeSlot {
    /// Invalidated by a tick or an accepted memory response; the next
    /// probe recomputes from the core.
    Stale,
    Busy,
    At(Cycle),
    Blocked,
}

/// Structure-of-arrays core state: the per-core models plus the dense
/// side arrays the event loop actually walks every cycle.
///
/// `LeanCore` keeps the (cold) architectural state; the (hot) wakeup
/// metadata lives here in `wake`/`stall`, and idle cycles accrue in
/// `owed` as plain integer adds — folded back into the core's stats
/// only when its classification is invalidated (or the stats are read).
/// Invariant: `owed[i] > 0` only while `wake[i]` is not `Stale`, so the
/// accrued cycles are always replayed under the classification that
/// was in force when they were observed.
#[derive(Debug)]
struct CoreBank {
    cores: Vec<LeanCore>,
    l1s: Vec<L1Cache>,
    gens: Vec<WorkloadGen>,
    wake: Vec<WakeSlot>,
    /// Stall-class bits, valid while `wake` is not `Stale`:
    /// bit 0 = ROB-head load stall, bit 1 = store-buffer stall.
    stall: Vec<u8>,
    /// Idle cycles observed but not yet folded into the core's stats.
    owed: Vec<u64>,
}

impl CoreBank {
    fn new(cores: Vec<LeanCore>, l1s: Vec<L1Cache>, gens: Vec<WorkloadGen>) -> Self {
        let n = cores.len();
        CoreBank {
            cores,
            l1s,
            gens,
            wake: vec![WakeSlot::Stale; n],
            stall: vec![0; n],
            owed: vec![0; n],
        }
    }

    fn len(&self) -> usize {
        self.cores.len()
    }

    /// The cached wakeup classification, recomputed from the core if
    /// stale. Never returns [`WakeSlot::Stale`].
    fn wake_of(&mut self, i: usize) -> WakeSlot {
        if self.wake[i] == WakeSlot::Stale {
            debug_assert_eq!(self.owed[i], 0);
            let c = self.cores[i].classify_idle(&self.l1s[i]);
            self.wake[i] = match c.wakeup {
                CoreWakeup::Busy => WakeSlot::Busy,
                CoreWakeup::At(t) => WakeSlot::At(t),
                CoreWakeup::Blocked => WakeSlot::Blocked,
            };
            self.stall[i] = u8::from(c.load_stall) | u8::from(c.store_stall) << 1;
        }
        self.wake[i]
    }

    /// Records `n` idle cycles for core `i` without touching it. Only
    /// legal while its classification is cached (`wake[i]` not stale).
    fn accrue_idle(&mut self, i: usize, n: u64) {
        debug_assert_ne!(self.wake[i], WakeSlot::Stale);
        self.owed[i] += n;
    }

    /// Folds accrued idle cycles into core `i`'s stats (under the
    /// cached stall classification they were observed under).
    fn flush_idle(&mut self, i: usize) {
        let owed = std::mem::take(&mut self.owed[i]);
        if owed > 0 {
            let s = self.stall[i];
            self.cores[i].apply_idle(owed, s & 1 != 0, s & 2 != 0);
        }
    }

    /// Flushes every core's accrued idle cycles.
    fn flush_all(&mut self) {
        for i in 0..self.cores.len() {
            self.flush_idle(i);
        }
    }

    /// Aggregate ROB-head load-stall cycles: flushes every core's
    /// accrued idle, then sums the core stats. Exact at any point
    /// between engine runs — `apply_idle` is linear and a flush keeps
    /// each cached classification.
    fn load_stall_cycles(&mut self) -> u64 {
        self.flush_all();
        self.cores.iter().map(|c| c.stats().load_stall_cycles).sum()
    }

    /// Flushes and marks core `i`'s classification stale — required
    /// before anything mutates its architectural state.
    fn invalidate(&mut self, i: usize) {
        self.flush_idle(i);
        self.wake[i] = WakeSlot::Stale;
    }

    /// Ticks core `i` (invalidating its cached classification first).
    fn tick(
        &mut self,
        i: usize,
        now: Cycle,
        requests: &mut Vec<PendingAccess>,
        writebacks: &mut Vec<BlockAddr>,
    ) -> u32 {
        self.invalidate(i);
        self.cores[i].tick(
            now,
            &mut self.gens[i],
            &mut self.l1s[i],
            requests,
            writebacks,
        )
    }

    /// Delivers one memory response to core `i`.
    fn respond_one(&mut self, i: usize, block: BlockAddr, now: Cycle) {
        if self.cores[i].memory_response(block, now) {
            self.invalidate(i);
        }
    }
}

/// One parked Full-region retry batch: requests refused by a full
/// speculative MSHR pool, awaiting their next retry round.
#[derive(Debug, Default)]
struct StormBatch {
    /// Members, in their original retry-delivery order. Only
    /// `requests[start..]` are live: expansion rounds consume from the
    /// front by advancing `start` (the prefix is what the oracle's
    /// in-order probing would resolve first), so a round costs
    /// O(consumed), not O(members).
    requests: Vec<MemoryRequest>,
    start: usize,
    /// How many *live* members map to each LLC bank (for the bulk
    /// occupancy replay of a wholesale-refused round).
    bank_counts: Vec<u32>,
    /// Live-member count per block, for [`System::note_block_event`].
    blocks: bump_types::FxHashMap<BlockAddr, u32>,
    /// Live member blocks that gained an MSHR, or may have become
    /// resident, since the last round (repeats allowed). Every other
    /// live member still provably refuses.
    touched: Vec<BlockAddr>,
    in_use: bool,
}

impl StormBatch {
    fn live(&self) -> usize {
        self.requests.len() - self.start
    }

    fn register(&mut self, req: MemoryRequest, bank: usize) {
        self.requests.push(req);
        self.bank_counts[bank] += 1;
        *self.blocks.entry(req.block).or_insert(0) += 1;
    }

    /// Removes one member's contribution to the live-member indexes
    /// (the request itself stays in the consumed prefix).
    fn unregister(&mut self, block: BlockAddr, bank: usize) {
        self.bank_counts[bank] -= 1;
        let c = self.blocks.get_mut(&block).expect("member block indexed");
        *c -= 1;
        if *c == 0 {
            self.blocks.remove(&block);
        }
    }
}

/// The append window for refused retries: while the tail of slot `at`
/// is still the marker's own appends, a newly refused request can join
/// batch `id` instead of opening a new one.
#[derive(Debug)]
struct OpenBatch {
    id: usize,
    at: Cycle,
    /// `slot_len` of `at` after the batch's last push; if the slot has
    /// grown past this, something else was scheduled in between and
    /// appending would reorder deliveries.
    slot_len: usize,
}

/// Retry-storm coalescer state (event engine only).
///
/// The Full-region strawman floods thousands of speculative reads per
/// touched region; once the speculative MSHR pool fills, every refused
/// read retries 16 cycles later, and under §V.B load the oracle
/// processes >100M such futile probes. The coalescer parks each
/// same-slot run of refused requests as one [`StormBatch`] with a
/// single `StormRetry` marker event. A round sends through the real
/// request path only the members that can resolve — the prefix the
/// pool's headroom admits, and members whose block was touched since
/// the last round and is now resident or has an MSHR — and replays the
/// rest wholesale in O(banks) ([`Llc::replay_refused_speculative`]),
/// so total work is O(completions), not O(retries).
#[derive(Debug, Default)]
struct StormState {
    batches: Vec<StormBatch>,
    free: Vec<usize>,
    open: Option<OpenBatch>,
    /// Batches currently in use (fast-path guard for the dirtying
    /// probe: zero for every preset but Full-region).
    live: usize,
}

impl StormState {
    /// Allocates a cleared batch slot sized for `banks` banks.
    fn alloc(&mut self, banks: usize) -> usize {
        let id = self.free.pop().unwrap_or_else(|| {
            self.batches.push(StormBatch::default());
            self.batches.len() - 1
        });
        let b = &mut self.batches[id];
        debug_assert!(!b.in_use && b.requests.is_empty() && b.blocks.is_empty());
        b.start = 0;
        b.bank_counts.clear();
        b.bank_counts.resize(banks, 0);
        b.in_use = true;
        self.live += 1;
        id
    }

    /// Releases batch `id`, keeping its allocations for reuse.
    fn release(&mut self, id: usize) {
        let b = &mut self.batches[id];
        debug_assert!(b.in_use);
        b.requests.clear();
        b.blocks.clear();
        b.touched.clear();
        b.start = 0;
        b.in_use = false;
        self.free.push(id);
        self.live -= 1;
        if self.open.as_ref().is_some_and(|o| o.id == id) {
            self.open = None;
        }
    }
}

/// The simulated chip + memory system.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    bank: CoreBank,
    llc: Llc,
    noc: Noc,
    mc: MemoryController,
    stride: Option<StridePrefetcher>,
    sms: Option<SmsPrefetcher>,
    vwq: Option<VirtualWriteQueue>,
    bump: Option<Bump>,
    full: Option<FullRegion>,
    profiler: DensityProfiler,
    /// Wall-clock self-time per engine phase; inert (one branch per
    /// lap) until [`System::enable_phase_profiling`].
    phase: PhaseProfiler,

    now: Cycle,
    /// Uncore NOC deliveries (LLC requests, L1 writebacks, storm
    /// retries).
    events: DeliveryQueue<Pending>,
    /// Memory responses to cores: the only deliveries that can end the
    /// event engine's quiet span.
    responses: DeliveryQueue<(CoreId, BlockAddr)>,
    /// Parked Full-region retry batches (event engine).
    storm: StormState,
    mem_cycle: MemCycle,
    mem_clock_acc: u64,

    traffic: TrafficBreakdown,
    measured_instructions: u64,
    measured_cycles: u64,
    /// Speculative requests dropped because no MSHR was free.
    spec_dropped: u64,

    /// Sim-time gauge sampler; `None` by default. Only [`System::run`]
    /// reads it, between engine runs.
    telemetry: Option<Box<TelemetrySampler>>,
    /// Full-region retries currently parked by the *cycle* engine (each
    /// is an individually scheduled [`Pending::StormRetryOne`]); the
    /// event engine derives the same gauge from its batches.
    storm_parked: u64,

    // Scratch buffers reused across cycles.
    scratch_requests: Vec<PendingAccess>,
    scratch_writebacks: Vec<BlockAddr>,
    scratch_candidates: Vec<BlockAddr>,
    scratch_actions: Vec<BulkAction>,
    scratch_completions: Vec<bump_dram::Completion>,
    scratch_events: Vec<LlcEvent>,
}

impl System {
    /// Builds the system described by `cfg`, with `cfg.instruments`
    /// switched on.
    pub fn new(cfg: SystemConfig) -> Self {
        let cores = (0..cfg.cores)
            .map(|i| LeanCore::new(i, cfg.core_params))
            .collect();
        let l1s = (0..cfg.cores).map(|_| L1Cache::paper()).collect();
        let gens = (0..cfg.cores)
            .map(|i| {
                let w = match &cfg.workload_mix {
                    Some(mix) if !mix.is_empty() => mix[i % mix.len()],
                    _ => cfg.workload,
                };
                WorkloadGen::new(w, i, cfg.seed)
            })
            .collect();
        let stride = cfg.preset.has_stride().then(StridePrefetcher::paper);
        let sms = cfg.preset.has_sms().then(SmsPrefetcher::paper);
        let vwq = cfg.preset.has_vwq().then(VirtualWriteQueue::paper);
        let bump_engine = (cfg.preset == Preset::Bump).then(|| Bump::new(cfg.bump));
        let full = (cfg.preset == Preset::FullRegion).then(|| FullRegion::new(cfg.bump.region));
        let mut sys = System {
            bank: CoreBank::new(cores, l1s, gens),
            llc: Llc::new(cfg.llc),
            noc: Noc::new(cfg.noc_latency),
            mc: MemoryController::new(cfg.dram),
            stride,
            sms,
            vwq,
            bump: bump_engine,
            full,
            profiler: DensityProfiler::new(cfg.bump.region),
            phase: PhaseProfiler::default(),
            now: 0,
            events: DeliveryQueue::default(),
            responses: DeliveryQueue::default(),
            storm: StormState::default(),
            mem_cycle: 0,
            mem_clock_acc: 0,
            traffic: TrafficBreakdown::default(),
            measured_instructions: 0,
            measured_cycles: 0,
            spec_dropped: 0,
            telemetry: None,
            storm_parked: 0,
            scratch_requests: Vec::new(),
            scratch_writebacks: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_actions: Vec::new(),
            scratch_completions: Vec::new(),
            scratch_events: Vec::new(),
            cfg,
        };
        if sys.cfg.instruments.profile {
            sys.enable_phase_profiling();
        }
        if let Some(stride) = sys.cfg.instruments.telemetry {
            sys.enable_telemetry(stride);
        }
        sys
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The BuMP engine, when the preset includes it.
    pub fn bump(&self) -> Option<&Bump> {
        self.bump.as_ref()
    }

    /// The density profiler.
    pub fn profiler(&self) -> &DensityProfiler {
        &self.profiler
    }

    /// Switches the engine phase profiler on for this system: the
    /// final report's `phase` field becomes `Some`. Profiling reads
    /// only the host clock, so every simulated outcome stays
    /// byte-identical with it on or off.
    pub fn enable_phase_profiling(&mut self) {
        self.phase.enable();
    }

    /// Switches the sim-time telemetry sampler on (from
    /// [`System::new`], before any cycle runs): every `stride` measured
    /// cycles (positive) the system snapshots its architectural gauges,
    /// and the final report's `telemetry` field becomes `Some`.
    /// Sampling is keyed on the measured-cycle counter, so both engines
    /// observe identical instants and produce byte-identical series; it
    /// reads counters the simulation already maintains, so every
    /// simulated outcome stays byte-identical with it on or off. Like
    /// every sampled counter, the per-channel DRAM gauges count from
    /// the last stats reset.
    fn enable_telemetry(&mut self, stride: u64) {
        let channels = self.mc.channel_count() as u32;
        let cores = self.bank.len() as u32;
        self.telemetry = Some(Box::new(TelemetrySampler::new(stride, channels, cores)));
        self.telemetry_capture();
    }

    /// Captures one telemetry point at the current measured cycle (the
    /// sampler's next due cycle), between engine runs.
    fn telemetry_capture(&mut self) {
        let Some(mut sampler) = self.telemetry.take() else {
            return;
        };
        let (dram_columns, dram_row_hits) = self.mc.channel_activity().unzip();
        // The parked-retry and queue-depth gauges must agree across
        // engines: the event engine's queue holds one marker per parked
        // batch where the oracle's holds each member retry, so markers
        // are swapped out for live-member counts.
        let (noc_queue_depth, storm_parked) = if self.cfg.engine == Engine::Event {
            let live: usize = self
                .storm
                .batches
                .iter()
                .filter(|b| b.in_use)
                .map(StormBatch::live)
                .sum();
            (
                (self.events.len() - self.storm.live + live + self.responses.len()) as u64,
                live as u64,
            )
        } else {
            (
                (self.events.len() + self.responses.len()) as u64,
                self.storm_parked,
            )
        };
        let point = TelemetryPoint {
            cycle: self.measured_cycles,
            dram_columns,
            dram_row_hits,
            mshr_occupancy: self.llc.mshrs_in_use() as u64,
            noc_queue_depth,
            prefetch_issued: self.traffic.stride_reads
                + self.traffic.sms_reads
                + self.traffic.bulk_reads
                + self.traffic.full_region_reads,
            prefetch_useful: self.llc.stats().prefetch_useful(),
            storm_parked,
            load_stall_cycles: self.bank.load_stall_cycles(),
        };
        sampler.record(point);
        self.telemetry = Some(sampler);
    }

    fn schedule(&mut self, at: Cycle, what: Pending) {
        self.events.push(at.max(self.now + 1), what);
    }

    /// Schedules the delivery of `block` to `core`.
    fn respond(&mut self, at: Cycle, core: CoreId, block: BlockAddr) {
        self.responses.push(at.max(self.now + 1), (core, block));
    }

    /// Queues a DRAM transaction, recording the traffic taxonomy.
    fn queue_dram(&mut self, txn: Transaction, kind: Option<AccessKind>) {
        match (txn.class, kind) {
            (TrafficClass::Demand, Some(AccessKind::Load)) => {
                self.traffic.demand_load_reads += 1;
            }
            (TrafficClass::Demand, Some(AccessKind::Store)) => {
                self.traffic.demand_store_reads += 1;
            }
            (TrafficClass::Demand, None) => self.traffic.demand_load_reads += 1,
            (TrafficClass::StridePrefetch, _) => self.traffic.stride_reads += 1,
            (TrafficClass::SmsPrefetch, _) => self.traffic.sms_reads += 1,
            (TrafficClass::BulkRead, _) => self.traffic.bulk_reads += 1,
            (TrafficClass::FullRegionRead, _) => self.traffic.full_region_reads += 1,
            (TrafficClass::DemandWriteback, _) => self.traffic.demand_writebacks += 1,
            (TrafficClass::EagerWriteback, _) => self.traffic.eager_writebacks += 1,
        }
        self.mc.submit(txn);
    }

    fn handle_llc_request(&mut self, req: MemoryRequest) {
        let outcome = self.llc.access(req, self.now);
        if outcome.action == AccessAction::IssueDramRead {
            // The block just gained an MSHR: parked retries for it
            // would now merge.
            self.note_block_event(req.block);
        }
        let is_demand = req.class == TrafficClass::Demand;
        if outcome.hit {
            if is_demand {
                let arrival = self.noc.send(MessageKind::Data, outcome.ready_at);
                self.respond(arrival, req.core, req.block);
            }
            return;
        }
        match outcome.action {
            AccessAction::IssueDramRead => {
                let class = if is_demand {
                    TrafficClass::Demand
                } else {
                    req.class
                };
                let txn = Transaction::read(req.block, class, req.core);
                self.queue_dram(txn, is_demand.then_some(req.kind));
            }
            AccessAction::None => {
                if outcome.merged_spec {
                    // A demand merged into an in-flight speculative
                    // fetch: promote the DRAM transaction so the
                    // prefetch inherits demand priority.
                    self.mc.promote_to_demand(req.block);
                }
            }
            AccessAction::MshrFull => {
                if is_demand {
                    // Retry when the next DRAM read completes (the only
                    // event that frees an LLC MSHR), so the event heap
                    // holds one retry per fill instead of degenerating
                    // to a per-cycle busy-wait under backpressure. The
                    // core keeps waiting either way.
                    let at = self.mshr_retry_at();
                    self.schedule(at, Pending::LlcRequest(req));
                } else if req.class == TrafficClass::FullRegionRead {
                    // The Full-region strawman has no notion of backing
                    // off: its floods retry and keep thrashing (the §V.B
                    // pathology). The oracle schedules each retry
                    // individually; the event engine parks the whole
                    // same-slot run as one coalesced batch.
                    if self.cfg.engine == Engine::Event {
                        self.park_storm_retry(req);
                    } else {
                        self.storm_parked += 1;
                        self.schedule(self.now + 16, Pending::StormRetryOne(req));
                    }
                } else {
                    self.spec_dropped += 1;
                }
            }
        }
    }

    fn handle_l1_writeback(&mut self, block: BlockAddr) {
        // A writeback can install the block in the LLC, so a parked
        // retry for it could now hit: touch it in any batch holding it.
        self.note_block_event(block);
        if let Some(victim) = self.llc.writeback_from_l1(block, self.now) {
            let txn = Transaction::write(victim, TrafficClass::DemandWriteback, 0);
            self.queue_dram(txn, None);
        }
    }

    /// Records `block` as touched in every parked batch holding it: its
    /// next retry round can no longer assume the block is still
    /// MSHR-less and non-resident, so it must look again.
    fn note_block_event(&mut self, block: BlockAddr) {
        if self.storm.live == 0 {
            return;
        }
        for b in &mut self.storm.batches {
            if b.in_use && b.blocks.contains_key(&block) {
                b.touched.push(block);
            }
        }
    }

    /// Parks a refused Full-region retry (event engine). Joins the open
    /// batch when the target slot's tail is still that batch's marker
    /// run — i.e. delivering the batch at its marker position replays
    /// the oracle's per-request delivery order exactly — and opens a
    /// fresh batch (with its own `StormRetry` marker) otherwise.
    fn park_storm_retry(&mut self, req: MemoryRequest) {
        let target = self.now + 16;
        let bank = self.llc.bank_of(req.block);
        if let Some(open) = &self.storm.open {
            if open.at == target && self.events.slot_len(target) == open.slot_len {
                self.storm.batches[open.id].register(req, bank);
                return;
            }
        }
        let id = self.storm.alloc(self.llc.bank_count());
        self.storm.batches[id].register(req, bank);
        self.schedule(target, Pending::StormRetry(id));
        self.storm.open = Some(OpenBatch {
            id,
            at: target,
            slot_len: self.events.slot_len(target),
        });
    }

    /// Runs one retry round for parked batch `id`, due now.
    ///
    /// While the speculative pool has headroom, the leading members go
    /// through the real request path in order: the oracle's in-order
    /// probes resolve exactly this prefix. Once the pool is full, a
    /// member refuses unless its block is resident or has an MSHR, and
    /// that can only hold for a block touched since the last round (the
    /// prefix's own allocations touch their duplicates). Those members
    /// resolve through the real path — a hit or a merge, which parks
    /// nothing — and every other member refuses in place: one bulk
    /// replay, and the marker re-arms. A refused speculative access
    /// only charges its bank and counts, and same-cycle charges
    /// commute, so resolving members out of slot order is exact.
    fn storm_round(&mut self, id: usize) {
        debug_assert!(self.storm.batches[id].in_use);
        if self.storm.open.as_ref().is_some_and(|o| o.id == id) {
            self.storm.open = None;
        }
        while self.storm.batches[id].live() > 0 && self.llc.spec_mshr_headroom() > 0 {
            let b = &mut self.storm.batches[id];
            let req = b.requests[b.start];
            b.start += 1;
            b.unregister(req.block, self.llc.bank_of(req.block));
            self.handle_llc_request(req);
        }
        let mut touched = std::mem::take(&mut self.storm.batches[id].touched);
        let b = &self.storm.batches[id];
        touched.retain(|blk| {
            b.blocks.contains_key(blk)
                && (self.llc.contains(*blk) || self.llc.miss_outstanding(*blk))
        });
        if !touched.is_empty() {
            touched.sort_unstable();
            touched.dedup();
            let mut requests = std::mem::take(&mut self.storm.batches[id].requests);
            let start = self.storm.batches[id].start;
            let mut kept = start;
            for j in start..requests.len() {
                let req = requests[j];
                if touched.binary_search(&req.block).is_ok() {
                    let bank = self.llc.bank_of(req.block);
                    self.storm.batches[id].unregister(req.block, bank);
                    self.handle_llc_request(req);
                } else {
                    requests[kept] = req;
                    kept += 1;
                }
            }
            requests.truncate(kept);
            self.storm.batches[id].requests = requests;
        }
        touched.clear();
        self.storm.batches[id].touched = touched;
        let b = &self.storm.batches[id];
        if b.live() == 0 {
            self.storm.release(id);
            return;
        }
        self.llc
            .replay_refused_speculative(&b.bank_counts, b.live() as u64, self.now);
        let target = self.now + 16;
        self.schedule(target, Pending::StormRetry(id));
        self.storm.open = Some(OpenBatch {
            id,
            at: target,
            slot_len: self.events.slot_len(target),
        });
    }

    fn tick_cores(&mut self) {
        let is_bump = self.bump.is_some();
        let event_engine = self.cfg.engine == Engine::Event;
        for i in 0..self.bank.len() {
            if event_engine {
                // A provably idle core's tick is pure stall accounting:
                // accrue it as one dense-array add (folded into the
                // core's stats when its classification invalidates).
                match self.bank.wake_of(i) {
                    WakeSlot::Busy => {}
                    WakeSlot::At(t) if t <= self.now => {}
                    _ => {
                        self.bank.accrue_idle(i, 1);
                        continue;
                    }
                }
            }
            let mut requests = std::mem::take(&mut self.scratch_requests);
            let mut writebacks = std::mem::take(&mut self.scratch_writebacks);
            requests.clear();
            writebacks.clear();
            let retired = self.bank.tick(i, self.now, &mut requests, &mut writebacks);
            self.measured_instructions += u64::from(retired);
            if !requests.is_empty() {
                let n = requests.len() as u64;
                let mut arrival = self.noc.send_many(MessageKind::Request, n, self.now);
                if is_bump {
                    // BuMP augments L1→LLC requests with the PC (§V.F).
                    arrival = arrival.max(self.noc.send_many(MessageKind::PcOverhead, n, self.now));
                }
                for r in &requests {
                    self.schedule(arrival, Pending::LlcRequest(r.request));
                }
            }
            for wb in &writebacks {
                self.noc.send(MessageKind::Request, self.now);
                let arrival = self.noc.send(MessageKind::Data, self.now);
                self.schedule(arrival, Pending::L1Writeback(*wb));
            }
            self.scratch_requests = requests;
            self.scratch_writebacks = writebacks;
        }
    }

    /// Offers the memory controller's backlogs to its queues (see
    /// [`MemoryController::drain`] and its event-engine variant).
    fn drain_dram_queue(&mut self) {
        match self.cfg.engine {
            Engine::Cycle => self.mc.drain(self.mem_cycle),
            Engine::Event => self.mc.drain_event(self.mem_cycle),
        }
    }

    fn tick_dram(&mut self) {
        // Deliberately not lapped here: [`System::step`] wraps the
        // call in `DramTick`, while the fast-forward path's
        // [`System::uncore_step`] ticks accrue to `FastForward` —
        // a per-fast-forwarded-tick lap would cost more than the work
        // it measures (see `benches/instrument_guard.rs`).
        let ratio = self.cfg.dram.freq_ratio_milli;
        let engine = self.cfg.engine;
        self.mem_clock_acc += 1000;
        while self.mem_clock_acc >= ratio {
            self.mem_clock_acc -= ratio;
            self.scratch_completions.clear();
            let mut completions = std::mem::take(&mut self.scratch_completions);
            match engine {
                Engine::Cycle => self.mc.tick(self.mem_cycle, &mut completions),
                Engine::Event => self.mc.tick_event(self.mem_cycle, &mut completions),
            }
            self.mem_cycle += 1;
            for c in &completions {
                if c.txn.is_write {
                    continue;
                }
                let fill = self.llc.fill(c.txn.block, self.now);
                if let Some(victim) = fill.writeback {
                    let txn = Transaction::write(victim, TrafficClass::DemandWriteback, 0);
                    self.queue_dram(txn, None);
                }
                if !fill.waiters.is_empty() {
                    let arrival =
                        self.noc
                            .send_many(MessageKind::Data, fill.waiters.len() as u64, self.now);
                    for w in fill.waiters {
                        self.respond(arrival, w.core, c.txn.block);
                    }
                }
            }
            self.scratch_completions = completions;
        }
    }

    fn process_llc_events(&mut self) {
        // Like [`System::tick_dram`], lapped at [`System::step`]'s
        // call site (`LlcPump`), not here; fast-forwarded pumps accrue
        // to `FastForward` minus any nested `Bookkeeping` laps below.
        if !self.llc.has_events() {
            return;
        }
        // Swap the LLC's event buffer against a scratch vector so both
        // keep their capacity across cycles (no per-cycle allocation).
        let mut events = std::mem::take(&mut self.scratch_events);
        self.llc.drain_events_into(&mut events);
        self.scratch_actions.clear();
        let mut actions = std::mem::take(&mut self.scratch_actions);
        for ev in events.drain(..) {
            match ev {
                LlcEvent::Access { req, hit } => {
                    self.phase.enter(Phase::Bookkeeping);
                    self.profiler.on_access(&req, hit);
                    self.phase.exit();
                    self.scratch_candidates.clear();
                    let mut cands = std::mem::take(&mut self.scratch_candidates);
                    if let Some(p) = self.stride.as_mut() {
                        p.on_demand_access(&req, hit, &mut cands);
                        let class = p.traffic_class();
                        self.spawn_spec(&cands, req, class);
                    }
                    if let Some(p) = self.sms.as_mut() {
                        p.on_demand_access(&req, hit, &mut cands);
                        let class = p.traffic_class();
                        self.spawn_spec(&cands, req, class);
                    }
                    self.scratch_candidates = cands;
                    if let Some(b) = self.bump.as_mut() {
                        self.noc.send(MessageKind::BumpMonitor, self.now);
                        b.on_llc_access(&req, hit, &mut actions);
                    }
                    if let Some(f) = self.full.as_mut() {
                        f.on_llc_access(&req, hit, &mut actions);
                    }
                }
                LlcEvent::WritebackIn { block } => {
                    self.phase.enter(Phase::Bookkeeping);
                    self.profiler.on_writeback_in(block);
                    self.phase.exit();
                    if let Some(b) = self.bump.as_mut() {
                        self.noc.send(MessageKind::BumpMonitor, self.now);
                        b.on_l1_writeback(block);
                    }
                }
                LlcEvent::Evict { block, dirty } => {
                    self.phase.enter(Phase::Bookkeeping);
                    self.profiler.on_eviction(block);
                    self.phase.exit();
                    if let Some(p) = self.sms.as_mut() {
                        p.on_eviction(block);
                    }
                    if let Some(b) = self.bump.as_mut() {
                        self.noc.send(MessageKind::BumpMonitor, self.now);
                        b.on_llc_eviction(block, dirty, &mut actions);
                    }
                    if let Some(f) = self.full.as_mut() {
                        f.on_llc_eviction(block, dirty, &mut actions);
                    }
                    if dirty {
                        if let Some(v) = self.vwq.as_mut() {
                            self.scratch_candidates.clear();
                            let mut cands = std::mem::take(&mut self.scratch_candidates);
                            v.on_dirty_eviction(block, &mut cands);
                            for c in &cands {
                                if self.llc.probe_and_clean(*c, self.now) {
                                    let txn =
                                        Transaction::write(*c, TrafficClass::EagerWriteback, 0);
                                    self.queue_dram(txn, None);
                                }
                            }
                            self.scratch_candidates = cands;
                        }
                    }
                }
            }
        }
        let bulk_class = if self.full.is_some() {
            TrafficClass::FullRegionRead
        } else {
            TrafficClass::BulkRead
        };
        let region_cfg = self.cfg.region();
        for a in actions.drain(..) {
            match a {
                BulkAction::BulkRead {
                    region,
                    exclude,
                    pc,
                } => {
                    let n = region.blocks(region_cfg).filter(|b| *b != exclude).count() as u64;
                    self.noc.send_many(MessageKind::BumpCommand, n, self.now);
                    for block in region.blocks(region_cfg) {
                        if block == exclude {
                            continue;
                        }
                        let req = MemoryRequest::speculative(block, pc, bulk_class, 0);
                        self.schedule(self.now + 1, Pending::LlcRequest(req));
                    }
                }
                BulkAction::BulkWriteback { region, exclude } => {
                    self.noc.send(MessageKind::BumpCommand, self.now);
                    let cleaned = self.llc.clean_region(region, region_cfg, exclude, self.now);
                    for b in cleaned {
                        let txn = Transaction::write(b, TrafficClass::EagerWriteback, 0);
                        self.queue_dram(txn, None);
                    }
                }
            }
        }
        self.scratch_actions = actions;
        self.scratch_events = events;
    }

    fn spawn_spec(
        &mut self,
        candidates: &[BlockAddr],
        trigger: MemoryRequest,
        class: TrafficClass,
    ) {
        for c in candidates {
            let req = MemoryRequest::speculative(*c, trigger.pc, class, trigger.core);
            self.schedule(self.now + 1, Pending::LlcRequest(req));
        }
    }

    /// Delivers the memory responses due now, in arrival order.
    fn deliver_responses(&mut self) {
        while let Some(mut due) = self.responses.take_due(self.now) {
            for (core, block) in due.drain(..) {
                self.bank.respond_one(core, block, self.now);
            }
            self.responses.recycle(due);
        }
    }

    /// Delivers the uncore NOC messages due now, one by one in slot
    /// order.
    fn deliver_uncore(&mut self) {
        while let Some(mut due) = self.events.take_due(self.now) {
            for what in due.drain(..) {
                match what {
                    Pending::LlcRequest(req) => self.handle_llc_request(req),
                    Pending::L1Writeback(b) => self.handle_l1_writeback(b),
                    Pending::StormRetry(id) => {
                        self.phase.enter(Phase::StormReplay);
                        self.storm_round(id);
                        self.phase.exit();
                    }
                    Pending::StormRetryOne(req) => {
                        // Un-park before the probe: a re-refusal
                        // re-parks through the normal path.
                        self.storm_parked -= 1;
                        self.handle_llc_request(req);
                    }
                }
            }
            self.events.recycle(due);
        }
    }

    /// Advances the system by one CPU cycle.
    pub fn step(&mut self) {
        self.measured_cycles += 1;
        // 1. Deliver due responses, then due NOC messages.
        self.phase.enter(Phase::NocDelivery);
        self.deliver_responses();
        self.deliver_uncore();
        self.phase.exit();
        // 2. Cores.
        self.phase.enter(Phase::CoreTick);
        self.tick_cores();
        self.phase.exit();
        // 3. LLC-miss queue → DRAM (backpressure applies).
        self.phase.enter(Phase::DramDrain);
        self.drain_dram_queue();
        self.phase.exit();
        // 4. DRAM clock domain.
        self.phase.enter(Phase::DramTick);
        self.tick_dram();
        self.phase.exit();
        // 5. Mechanisms consume this cycle's LLC events.
        self.phase.enter(Phase::LlcPump);
        self.process_llc_events();
        self.phase.exit();
        self.now += 1;
    }

    /// One cycle of the quiet span in which — as established by
    /// [`System::fast_forward`] — no response is due and every core is
    /// idle: [`System::step`] without the responses and the core scan,
    /// and with only storm rounds (and the pump's nested bookkeeping)
    /// lapped. The cores' idle cycle is accrued at span end.
    fn uncore_step(&mut self) {
        self.measured_cycles += 1;
        self.deliver_uncore();
        self.drain_dram_queue();
        self.tick_dram();
        self.process_llc_events();
        self.now += 1;
    }

    /// Runs until `instructions` have retired in the measurement window
    /// or `max_cycles` elapse, under the configured [`Engine`]. Returns
    /// (instructions, cycles) measured — identical for both engines.
    ///
    /// The only code that knows when a telemetry sample is due: each
    /// engine run's cycle budget ends at the next sample instant, and
    /// the sample is taken between runs. An engine run can stop at any
    /// cycle and resume (with a full step) without changing the
    /// simulation, so every sample sees a fully accounted state.
    pub fn run(&mut self, instructions: u64, max_cycles: u64) -> (u64, u64) {
        let start_instr = self.measured_instructions;
        let start_cycles = self.measured_cycles;
        loop {
            let retired = self.measured_instructions - start_instr;
            let elapsed = self.measured_cycles - start_cycles;
            if retired >= instructions || elapsed >= max_cycles {
                return (retired, elapsed);
            }
            let mut budget = max_cycles - elapsed;
            if let Some(t) = &self.telemetry {
                budget = budget.min(t.next_at() - self.measured_cycles);
            }
            match self.cfg.engine {
                Engine::Cycle => self.run_cycle(instructions - retired, budget),
                Engine::Event => self.run_event(instructions - retired, budget),
            }
            if self
                .telemetry
                .as_ref()
                .is_some_and(|t| t.next_at() == self.measured_cycles)
            {
                self.telemetry_capture();
            }
        }
    }

    /// The cycle-accurate oracle loop: one [`System::step`] per cycle.
    fn run_cycle(&mut self, instructions: u64, max_cycles: u64) {
        let start_instr = self.measured_instructions;
        let start_cycles = self.measured_cycles;
        while self.measured_instructions - start_instr < instructions
            && self.measured_cycles - start_cycles < max_cycles
        {
            self.step();
        }
    }

    /// The event-driven loop: after every real step, fast-forward
    /// across the quiet span in which no core can act — every core
    /// blocked or waiting for a future cycle, no response due — running
    /// only the cycles that have uncore work and skipping the rest in
    /// bulk.
    fn run_event(&mut self, instructions: u64, max_cycles: u64) {
        let start_instr = self.measured_instructions;
        let start_cycles = self.measured_cycles;
        while self.measured_instructions - start_instr < instructions
            && self.measured_cycles - start_cycles < max_cycles
        {
            self.step();
            if self.measured_instructions - start_instr >= instructions {
                break;
            }
            self.phase.enter(Phase::FastForward);
            self.fast_forward(start_cycles, max_cycles);
            self.phase.exit();
        }
    }

    /// Advances through the current *quiet span*: the cycles before the
    /// earliest of a core wakeup, a due response and the budget. No
    /// core can act inside it, and nothing the uncore does reaches a
    /// core except through a response, so the cores stay frozen and
    /// their per-cycle stall accounting is replayed once at span end.
    /// A cycle with uncore work (a due NOC message, a drain that could
    /// succeed, an eventful DRAM cycle) runs as a
    /// [`System::uncore_step`]; the cycles between them are replayed
    /// arithmetically ([`System::skip_cycles`]).
    fn fast_forward(&mut self, start_cycles: u64, max_cycles: u64) {
        // Earliest cycle any core might act; bail out while one is busy.
        let Some(core_bound) = self.core_quiet_bound() else {
            return;
        };
        let mut core_idle_cycles: u64 = 0;
        loop {
            // An uncore step may schedule a response, so the span's end
            // is re-read every iteration.
            let budget = max_cycles - (self.measured_cycles - start_cycles);
            let mut limit = core_bound.min(self.now + budget);
            if let Some(at) = self.responses.next_at() {
                limit = limit.min(at);
            }
            if limit <= self.now {
                break; // the cycle at `limit` needs a full step
            }
            // The next cycle with uncore work; every cycle before it is
            // null.
            let next = if self.mc.drain_due() {
                self.now
            } else {
                let dram = self.cpu_cycle_for_mem(self.mc.next_event_at(self.mem_cycle));
                self.events.next_at().map_or(dram, |at| at.min(dram))
            };
            let n = next.min(limit) - self.now;
            if n > 0 {
                self.skip_cycles(n);
                core_idle_cycles += n;
            }
            if next >= limit {
                break;
            }
            core_idle_cycles += 1;
            self.uncore_step();
        }
        if core_idle_cycles > 0 {
            // Every classification was cached by core_quiet_bound and
            // nothing invalidated it inside the span.
            for i in 0..self.bank.len() {
                self.bank.accrue_idle(i, core_idle_cycles);
            }
        }
    }

    /// The earliest cycle any core could retire, issue, or dispatch,
    /// or `None` while some core is busy *now*. Cores can otherwise
    /// only be woken earlier by a memory response, which the event
    /// machinery tracks separately (NOC event heap + DRAM horizon).
    fn core_quiet_bound(&mut self) -> Option<Cycle> {
        let mut bound = Cycle::MAX;
        for i in 0..self.bank.len() {
            match self.bank.wake_of(i) {
                WakeSlot::Busy => return None,
                WakeSlot::At(t) => {
                    if t <= self.now {
                        return None;
                    }
                    bound = bound.min(t);
                }
                WakeSlot::Blocked => {}
                WakeSlot::Stale => unreachable!("wake_of never returns Stale"),
            }
        }
        Some(bound)
    }

    /// Replays `n` null cycles in O(channels): advances the clocks and
    /// the DRAM clock-domain accumulator and bulk-applies the per-rank
    /// background-energy accounting, leaving all architectural state
    /// untouched — exactly what `n` sequential [`System::step`]s would
    /// have done. The caller accounts the cores' idle cycles (see
    /// [`System::fast_forward`]'s span-end replay).
    fn skip_cycles(&mut self, n: u64) {
        self.measured_cycles += n;
        let ratio = self.cfg.dram.freq_ratio_milli;
        // The per-cycle loop adds 1000 then drains below `ratio`; n
        // iterations from an in-range accumulator reduce to one
        // div/mod.
        let total = self.mem_clock_acc + n * 1000;
        let ticks = total / ratio;
        self.mem_clock_acc = total % ratio;
        if ticks > 0 {
            self.mem_cycle += ticks;
            self.mc.skip_idle(ticks);
        }
        self.now += n;
    }

    /// The CPU cycle during whose `tick_dram` memory cycle `target` is
    /// executed (given the current clock-domain accumulator).
    fn cpu_cycle_for_mem(&self, target: MemCycle) -> Cycle {
        let ratio = self.cfg.dram.freq_ratio_milli;
        // Memory ticks performed through CPU cycle now+d:
        //   k(d) = (acc + (d+1)*1000) / ratio
        // so the smallest d with k(d) >= pending ticks is:
        let pending = target.saturating_sub(self.mem_cycle) + 1;
        let needed_milli = pending * ratio;
        let d = needed_milli
            .saturating_sub(self.mem_clock_acc)
            .div_ceil(1000)
            .saturating_sub(1);
        self.now + d
    }

    /// When a demand request that found all LLC MSHRs busy should
    /// retry: one cycle after the next in-flight DRAM read completes
    /// (completions are what free MSHRs), or next cycle when none is in
    /// flight yet (the freeing read is still queued upstream).
    fn mshr_retry_at(&self) -> Cycle {
        match self.mc.next_read_completion() {
            Some(m) => self.cpu_cycle_for_mem(m) + 1,
            None => self.now + 1,
        }
    }

    /// Clears all measurement state at the warmup/measurement boundary
    /// while keeping architectural state (caches, predictor tables,
    /// in-flight traffic) intact.
    pub fn reset_stats(&mut self) {
        // Accrued idle cycles belong to the window being closed.
        self.bank.flush_all();
        for c in &mut self.bank.cores {
            c.reset_stats();
        }
        self.llc.reset_stats();
        self.mc.reset_stats();
        self.noc.reset_stats();
        self.profiler.reset_stats();
        if let Some(b) = self.bump.as_mut() {
            b.reset_stats();
        }
        self.traffic = TrafficBreakdown::default();
        self.measured_instructions = 0;
        self.measured_cycles = 0;
        self.spec_dropped = 0;
        self.phase.reset();
        if let Some(t) = self.telemetry.as_mut() {
            // Start the measurement window's series fresh: original
            // stride and a new cycle-0 base snapshot, taken after every
            // counter it samples was zeroed above.
            t.reset();
            self.telemetry_capture();
        }
    }

    /// Produces the final report (finalizes the density profiler).
    pub fn report(&mut self) -> SimReport {
        self.profiler.finalize();
        // Chip-side parameters are the paper's; the DRAM side is costed
        // under the platform's own constants (MemSpec::energy — the
        // paper's Table III for the default DDR3-1600 scenario).
        let energy_model = EnergyModel {
            dram: self.cfg.dram.energy,
            ..EnergyModel::paper()
        };
        let dram_energy = self.mc.energy();
        let activity = SystemActivity {
            cycles: self.measured_cycles,
            cores: self.bank.len() as u32,
            instructions: self.measured_instructions,
            llc_reads: self.llc.stats().total_lookups(),
            llc_writes: self.llc.stats().total_updates(),
            noc_bytes: self.noc.stats().bytes,
            dram_bytes: dram_energy.accesses() * 64,
            dram: dram_energy,
        };
        let load_stall_cycles = self.bank.load_stall_cycles();
        SimReport {
            preset: self.cfg.preset,
            workload: self.cfg.workload,
            cycles: self.measured_cycles,
            instructions: self.measured_instructions,
            load_stall_cycles,
            dram: *self.mc.stats(),
            dram_energy,
            llc: self.llc.stats().clone(),
            noc: *self.noc.stats(),
            traffic: self.traffic,
            bump: self.bump.as_ref().map(|b| *b.stats()),
            density: *self.profiler.profile(),
            memory_energy: energy_model.memory_energy(&activity),
            server_energy: energy_model.server_energy(&activity),
            energy_params: self.cfg.dram.energy,
            spec_dropped: self.spec_dropped,
            audit_errors: self.mc.audit_errors(),
            phase: self.phase.profile(),
            telemetry: self.telemetry.as_ref().map(|t| t.series()),
        }
    }
}
