//! The `bumpr` router: shards client jobs across a fleet of `bumpd`
//! backends behind an LRU result cache.
//!
//! A router speaks the exact same wire protocol as a daemon, so any
//! `bumpc` (or another router's backend dispatcher) can talk to it.
//! Per submission it:
//!
//! 1. expands the batch to its concatenated grid, exactly as a daemon
//!    would, and serves every cell already in the [`ResultCache`]
//!    (simulations are deterministic functions of the cell identity,
//!    so cache hits are byte-identical to fresh runs — the cache is
//!    transparent memoization, not an opt-in like the journal);
//! 2. extracts per-base-cell [`WorkUnit`]s from the remaining cells
//!    (`ExperimentGrid::unit_ranges`) and shards them across the live
//!    backends, highest [estimated cost] first onto the least-loaded
//!    backend (load weighted by each backend's worker count from its
//!    `pong`);
//! 3. merges the streams back, releasing `cell_result` frames in
//!    **stable grid order** (a reorder buffer holds out-of-order
//!    arrivals), caching every row as it lands;
//! 4. on a backend failure mid-job, re-dispatches that backend's
//!    unfinished units across the survivors; only when no live backend
//!    remains does the job end in a strict `error` frame.
//!
//! The output of a routed job is byte-identical to `bumpc --local` for
//! the same spec (`tests/cluster_e2e.rs`, CI cluster smoke).
//!
//! Client connections are multiplexed by the same readiness-polling
//! event loop as `bumpd` ([`crate::eventloop`]): the router's thread
//! count is bounded no matter how many clients hold connections open,
//! and backend dispatch threads exist only for the duration of a job.
//!
//! [estimated cost]: bump_bench::sched::estimated_cost

use crate::cluster::backend::{dispatch, Backend, DispatchEvent, WorkUnit};
use crate::cluster::cache::ResultCache;
use crate::daemon::{send, Outbox};
use crate::eventloop::{self, lock_recover, ConnSender, ServeConfig, Service};
use crate::journal::{cell_identity, cell_key, JournalEntry};
use crate::metrics::{Histogram, MetricsBuf};
use crate::proto::{CellResult, Frame, SubmitBatch, SubmitSpec};
use crate::slog::{self, Level};
use crate::telemetry::TelemetryStore;
use crate::trace::{correlate, ActiveSpan, Registry, Span, TraceContext};
use bump_bench::sched::estimated_unit_cost;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{TcpListener, ToSocketAddrs as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Counters the router exposes (and the e2e tests pin the cache
/// short-circuit with).
#[derive(Debug, Default)]
struct RouterCounters {
    dispatched_cells: AtomicU64,
    cache_hit_cells: AtomicU64,
    failovers: AtomicU64,
}

/// A snapshot of the router's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterStats {
    /// Cells handed to backends (counting re-dispatches).
    pub dispatched_cells: u64,
    /// Cells served from the result cache.
    pub cache_hit_cells: u64,
    /// Backend failures that triggered a re-dispatch.
    pub failovers: u64,
}

/// The sharding router: a backend pool, a result cache, and a job-id
/// counter shared by every client connection.
pub struct Router {
    backends: Mutex<Vec<Backend>>,
    cache: Mutex<ResultCache>,
    next_job: AtomicU64,
    counters: RouterCounters,
    ping_timeout: Duration,
    /// Routed-job wall time by completion (`bumpr_job_duration_seconds`).
    job_hist: Histogram,
    /// Latency from job start to each remotely-served cell's arrival
    /// (`bumpr_cell_latency_seconds`).
    cell_hist: Histogram,
    /// Per-job telemetry series re-emitted from backends, behind
    /// `GET /telemetry/<job>`.
    telemetry: TelemetryStore,
}

impl Router {
    /// A router over `backends` (addresses, presumed alive until the
    /// first health check) caching at most `cache_capacity` rows.
    pub fn new(backends: Vec<String>, cache_capacity: usize) -> Arc<Router> {
        Arc::new(Router {
            backends: Mutex::new(backends.into_iter().map(Backend::new).collect()),
            cache: Mutex::new(ResultCache::new(cache_capacity)),
            next_job: AtomicU64::new(0),
            counters: RouterCounters::default(),
            ping_timeout: Duration::from_secs(2),
            job_hist: Histogram::latency(),
            cell_hist: Histogram::latency(),
            telemetry: TelemetryStore::new(),
        })
    }

    /// Current counter values.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            dispatched_cells: self.counters.dispatched_cells.load(Ordering::Relaxed),
            cache_hit_cells: self.counters.cache_hit_cells.load(Ordering::Relaxed),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
        }
    }

    /// The pool addresses and their last-known liveness.
    pub fn backend_states(&self) -> Vec<(String, bool)> {
        lock_recover(&self.backends)
            .iter()
            .map(|b| (b.addr.clone(), b.alive))
            .collect()
    }

    /// Health-checks `addr` and admits it to the pool (or re-admits a
    /// known address). Returns the pool size.
    pub fn register(&self, addr: &str) -> Result<u64, String> {
        match crate::cluster::backend::ping(addr, self.ping_timeout) {
            Some(workers) => {
                let mut pool = lock_recover(&self.backends);
                match pool.iter_mut().find(|b| b.addr == addr) {
                    Some(existing) => {
                        existing.alive = true;
                        existing.workers = workers.max(1);
                    }
                    None => {
                        let mut backend = Backend::new(addr);
                        backend.workers = workers.max(1);
                        pool.push(backend);
                    }
                }
                Ok(pool.len() as u64)
            }
            None => Err(format!("backend {addr} failed its health check")),
        }
    }

    /// Serves forever on the event loop with explicit admission/eviction
    /// knobs (returns only if the poller fails).
    pub fn serve_with(
        self: &Arc<Self>,
        listener: TcpListener,
        config: ServeConfig,
    ) -> std::io::Result<()> {
        eventloop::serve(Arc::clone(self), listener, config)
    }

    /// Spawns [`Router::serve_with`] (default knobs) on a background thread (test harness
    /// convenience).
    pub fn spawn(self: &Arc<Self>, listener: TcpListener) -> std::thread::JoinHandle<()> {
        self.spawn_with(listener, ServeConfig::default())
    }

    /// [`Router::spawn`] with explicit admission/eviction knobs.
    pub fn spawn_with(
        self: &Arc<Self>,
        listener: TcpListener,
        config: ServeConfig,
    ) -> std::thread::JoinHandle<()> {
        let router = Arc::clone(self);
        std::thread::spawn(move || {
            if let Err(e) = router.serve_with(listener, config) {
                eprintln!("bumpr: event loop: {e}");
            }
        })
    }

    /// Pings every pool backend, writes the outcomes back, and returns
    /// the live `(pool index, worker count)` pairs for this job.
    fn check_backends(&self) -> Vec<(usize, usize)> {
        let snapshot = lock_recover(&self.backends).clone();
        // Pings happen outside the lock and concurrently: serial
        // checks would stall every job by one full timeout per
        // unreachable backend.
        let timeout = self.ping_timeout;
        let snapshot: Vec<Backend> = snapshot
            .into_iter()
            .map(|backend| {
                let addr = backend.addr.clone();
                let handle = std::thread::spawn(move || {
                    let mut backend = backend;
                    backend.check(timeout);
                    backend
                });
                (addr, handle)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(addr, handle)| join_ping(addr, handle.join()))
            .collect();
        let mut pool = lock_recover(&self.backends);
        for checked in &snapshot {
            if let Some(b) = pool.iter_mut().find(|b| b.addr == checked.addr) {
                b.alive = checked.alive;
                b.workers = checked.workers;
            }
        }
        snapshot
            .iter()
            .enumerate()
            .filter(|(_, b)| b.alive)
            .map(|(i, b)| (i, b.workers))
            .collect()
    }

    /// Routes one job (see the module docs for the four phases). When
    /// the submission carries a trace context, the router records its
    /// own spans (cache lookup, one per dispatch stream, the reorder
    /// merge) under it, adopts every backend's `trace_spans`, and
    /// forwards the combined set to the client right before `job_done`
    /// — which is what makes `GET /trace/<id>` on the router show the
    /// whole fleet's timeline.
    fn route_job(self: &Arc<Self>, batch: &SubmitBatch, outbox: &Outbox) {
        let job_start = Instant::now();
        let ctx = batch.trace;
        let mut root =
            ctx.map(|c| ActiveSpan::begin(c.trace, Some(c.parent), "route_job", "bumpr"));
        let root_id = root.as_ref().map(ActiveSpan::id);
        // Log lines from this routing thread (notably `backend_failed`
        // during failover) carry trace=/span= while the job is traced.
        let _correlation = ctx.zip(root_id).map(|(c, id)| correlate(c.trace, id));
        let mut spans: Vec<Span> = Vec::new();
        let (grid, _resume) = match batch.expand() {
            Ok(expanded) => expanded,
            Err(message) => {
                send(outbox, &Frame::Error { message });
                return;
            }
        };
        let cells = grid.cells();
        let keys: Vec<u64> = cells.iter().map(cell_key).collect();
        let identities: Vec<String> = cells.iter().map(cell_identity).collect();

        // Phase 1: the cache pass.
        let mut cache_span =
            ctx.map(|c| ActiveSpan::begin(c.trace, root_id, "cache_lookup", "bumpr"));
        let mut hits: Vec<(usize, JournalEntry)> = Vec::new();
        let mut missing: HashSet<usize> = HashSet::new();
        {
            let mut cache = lock_recover(&self.cache);
            for i in 0..cells.len() {
                match cache.get(keys[i], &identities[i]) {
                    Some(entry) => hits.push((i, entry)),
                    None => {
                        missing.insert(i);
                    }
                }
            }
        }
        if let Some(mut s) = cache_span.take() {
            s.attr("hits", hits.len());
            s.attr("misses", missing.len());
            spans.push(s.finish());
        }
        self.counters
            .cache_hit_cells
            .fetch_add(hits.len() as u64, Ordering::Relaxed);
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = root.as_mut() {
            s.attr("job", job);
            s.attr("cells", cells.len());
        }
        send(
            outbox,
            &Frame::JobAccepted {
                job,
                cells: cells.len() as u64,
                cached: hits.len() as u64,
            },
        );
        let mut emitter = OrderedEmitter::new(outbox);
        for (index, entry) in hits {
            emitter.insert(
                index,
                CellResult {
                    job,
                    index: index as u64,
                    label: entry.label,
                    cached: true,
                    csv: entry.csv,
                },
            );
        }
        if missing.is_empty() {
            finish_trace(ctx, root.take(), std::mem::take(&mut spans), job, outbox);
            self.job_hist.observe(job_start.elapsed().as_secs_f64());
            send(
                outbox,
                &Frame::JobDone {
                    job,
                    cells: cells.len() as u64,
                },
            );
            return;
        }

        // Phase 2: shard the missing cells' units across live backends.
        let units = plan_units(batch);
        debug_assert_eq!(
            units.iter().map(|u| u.globals.len()).sum::<usize>(),
            cells.len()
        );
        let mut unit_of: HashMap<usize, usize> = HashMap::new();
        // Per-unit set of client-grid indices still unserved. A unit
        // with any missing cell is dispatched whole (its cached cells
        // are simply not forwarded twice) so replica labels and seeds
        // stay a single-cell submission on the backend.
        let mut needed: Vec<HashSet<usize>> = units
            .iter()
            .map(|unit| {
                unit.globals
                    .iter()
                    .copied()
                    .filter(|g| missing.contains(g))
                    .collect::<HashSet<usize>>()
            })
            .collect();
        for (u, unit) in units.iter().enumerate() {
            for &g in &unit.globals {
                unit_of.insert(g, u);
            }
        }
        let pending: Vec<usize> = (0..units.len())
            .filter(|&u| !needed[u].is_empty())
            .collect();
        let alive = self.check_backends();
        if alive.is_empty() {
            send(
                outbox,
                &Frame::Error {
                    message: "no live backends to route the job to".to_string(),
                },
            );
            return;
        }
        let (events_tx, events_rx) = mpsc::channel::<DispatchEvent>();
        let mut excluded: HashSet<usize> = HashSet::new();
        // In-flight dispatch streams by router-assigned id: the pool
        // backend each runs on and the units it carries. A backend can
        // hold several streams over a job's lifetime (its original
        // share plus failover waves), and a stream's Done/Failed must
        // settle only its *own* units — keyed by backend, a late Done
        // from an early stream would misread the backend's newer
        // assignments as skipped cells.
        let mut streams: HashMap<usize, (usize, Vec<usize>)> = HashMap::new();
        // Open dispatch spans by dispatch id, for traced jobs: begun at
        // launch, finished when the stream's Done/Failed settles it.
        let mut dispatch_spans: HashMap<usize, ActiveSpan> = HashMap::new();
        let mut next_dispatch = 0usize;
        let mut waves = 0usize;
        let wave_cap = 2 * alive.len() + 4;
        let telemetry_stride = batch.telemetry;
        // Cells whose series already reached the client (a failover
        // re-dispatch re-runs cells; determinism makes the duplicate
        // series identical, but the client should see each one once).
        let mut telemetry_sent: HashSet<usize> = HashSet::new();
        let launch = |router: &Router,
                      unit_ids: &[usize],
                      excluded: &HashSet<usize>,
                      streams: &mut HashMap<usize, (usize, Vec<usize>)>,
                      dispatch_spans: &mut HashMap<usize, ActiveSpan>,
                      next_dispatch: &mut usize|
         -> usize {
            let targets: Vec<(usize, usize)> = alive
                .iter()
                .copied()
                .filter(|(b, _)| !excluded.contains(b))
                .collect();
            if targets.is_empty() {
                return 0;
            }
            let plan = assign_units(&units, unit_ids, &targets);
            let mut spawned = 0;
            for (backend, unit_ids) in plan {
                let cell_count: usize = unit_ids.iter().map(|&u| units[u].globals.len()).sum();
                router
                    .counters
                    .dispatched_cells
                    .fetch_add(cell_count as u64, Ordering::Relaxed);
                // Snapshot indices stay valid pool indices for the
                // job's lifetime: the pool only grows (registration
                // appends, failure just flips the alive flag).
                let addr = lock_recover(&router.backends)[backend].addr.clone();
                let work: Vec<WorkUnit> = unit_ids.iter().map(|&u| units[u].clone()).collect();
                let id = *next_dispatch;
                *next_dispatch += 1;
                streams.insert(id, (backend, unit_ids));
                // The dispatch span parents the backend's own spans:
                // its id travels in the chunk's trace context, so the
                // daemon's `handle_submit` hangs underneath it.
                let child_ctx = ctx.map(|c| {
                    let mut s = ActiveSpan::begin(c.trace, root_id, "dispatch", "bumpr");
                    s.attr("addr", &addr);
                    s.attr("cells", cell_count);
                    let forwarded = TraceContext {
                        trace: c.trace,
                        parent: s.id(),
                    };
                    dispatch_spans.insert(id, s);
                    forwarded
                });
                let tx = events_tx.clone();
                let stride = telemetry_stride;
                std::thread::spawn(move || dispatch(id, addr, work, child_ctx, stride, tx));
                spawned += 1;
            }
            spawned
        };
        let mut active = launch(
            self,
            &pending,
            &excluded,
            &mut streams,
            &mut dispatch_spans,
            &mut next_dispatch,
        );

        // Phases 3 and 4: merge streams in grid order; fail over.
        // Every live dispatch stream must produce *something* within
        // its read timeout, so a silence longer than that means a
        // stream died without its terminal event (a dispatch bug) —
        // fail the job rather than hang the client forever. (recv()'s
        // own Err can't serve as the guard: route_job holds a sender
        // until it returns, so the channel never disconnects.)
        let event_timeout =
            crate::cluster::backend::DISPATCH_READ_TIMEOUT + Duration::from_secs(60);
        let mut remaining = missing.len();
        let mut merge_span = ctx.map(|c| {
            let mut s = ActiveSpan::begin(c.trace, root_id, "reorder_merge", "bumpr");
            s.attr("cells", remaining);
            s
        });
        while remaining > 0 {
            let event = match events_rx.recv_timeout(event_timeout) {
                Ok(event) => event,
                Err(_) => {
                    send(
                        outbox,
                        &Frame::Error {
                            message: format!(
                                "router lost its dispatch streams with {remaining} cells pending"
                            ),
                        },
                    );
                    return;
                }
            };
            // Units needing a new home after this event (a failed or
            // lying stream's unserved share); relaunched — or given up
            // on — in one place below the match.
            let mut to_relaunch: Vec<usize> = Vec::new();
            match event {
                DispatchEvent::Cell {
                    global,
                    cell,
                    dispatch: _,
                } => {
                    let Some(&u) = unit_of.get(&global) else {
                        continue;
                    };
                    // Duplicates (a cell landing both from a dying
                    // backend and its re-dispatch) are dropped here.
                    if !needed[u].remove(&global) {
                        continue;
                    }
                    remaining -= 1;
                    self.cell_hist.observe(job_start.elapsed().as_secs_f64());
                    lock_recover(&self.cache).insert(
                        keys[global],
                        JournalEntry {
                            identity: identities[global].clone(),
                            label: cell.label.clone(),
                            csv: cell.csv.clone(),
                        },
                    );
                    emitter.insert(
                        global,
                        CellResult {
                            job,
                            index: global as u64,
                            label: cell.label,
                            cached: cell.cached,
                            csv: cell.csv,
                        },
                    );
                }
                DispatchEvent::Telemetry {
                    global,
                    series,
                    dispatch: _,
                } => {
                    // Forwarded immediately (clients key series by
                    // index, so stream position is irrelevant), and
                    // only for cells this job still awaits.
                    if missing.contains(&global) && telemetry_sent.insert(global) {
                        self.telemetry.record(
                            job,
                            global as u64,
                            &cells[global].label,
                            series.clone(),
                        );
                        send(
                            outbox,
                            &Frame::CellTelemetry {
                                job,
                                index: global as u64,
                                series,
                            },
                        );
                    }
                }
                DispatchEvent::Spans {
                    spans: backend_spans,
                    dispatch: _,
                } => {
                    spans.extend(backend_spans);
                }
                DispatchEvent::Done { dispatch } => {
                    active -= 1;
                    if let Some(mut s) = dispatch_spans.remove(&dispatch) {
                        s.attr("outcome", "done");
                        spans.push(s.finish());
                    }
                    let (backend, stream_units) = streams
                        .remove(&dispatch)
                        .unwrap_or((usize::MAX, Vec::new()));
                    to_relaunch = unserved(&stream_units, &needed);
                    if !to_relaunch.is_empty() {
                        // A clean job_done that skipped cells is a
                        // protocol violation: treat like a failure.
                        self.fail_backend(backend, "completed without streaming every cell");
                        excluded.insert(backend);
                    }
                }
                DispatchEvent::Failed { dispatch, error } => {
                    active -= 1;
                    if let Some(mut s) = dispatch_spans.remove(&dispatch) {
                        s.attr("outcome", "failed");
                        s.attr("error", &error);
                        spans.push(s.finish());
                    }
                    let (backend, stream_units) = streams
                        .remove(&dispatch)
                        .unwrap_or((usize::MAX, Vec::new()));
                    self.fail_backend(backend, &error);
                    excluded.insert(backend);
                    to_relaunch = unserved(&stream_units, &needed);
                }
            }
            if to_relaunch.is_empty() && remaining > 0 && active == 0 {
                // No stream is running but cells are missing (e.g. a
                // stream finished while its leftovers were already
                // re-homed) — relaunch everything still needed, or
                // give up.
                to_relaunch = (0..units.len())
                    .filter(|&u| !needed[u].is_empty())
                    .collect();
            }
            if !to_relaunch.is_empty() {
                waves += 1;
                let spawned = if waves > wave_cap {
                    0
                } else {
                    launch(
                        self,
                        &to_relaunch,
                        &excluded,
                        &mut streams,
                        &mut dispatch_spans,
                        &mut next_dispatch,
                    )
                };
                if spawned == 0 {
                    send(outbox, &all_backends_gone(remaining));
                    return;
                }
                active += spawned;
            }
        }
        debug_assert!(emitter.is_drained(cells.len()));
        // The merge loop exits on the final *cell*, but the stream that
        // delivered it still owes its trace_spans and job_done frames —
        // without this settle pass a traced job would lose that
        // backend's spans and leave its dispatch span unfinished. Only
        // traced jobs pay the wait, and a backend that dies between its
        // last cell and its job_done just times the settle out.
        if ctx.is_some() {
            let settle_deadline = Instant::now() + Duration::from_secs(10);
            while !streams.is_empty() && Instant::now() < settle_deadline {
                match events_rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(DispatchEvent::Spans {
                        spans: backend_spans,
                        ..
                    }) => spans.extend(backend_spans),
                    Ok(DispatchEvent::Done { dispatch })
                    | Ok(DispatchEvent::Failed { dispatch, .. }) => {
                        streams.remove(&dispatch);
                        if let Some(mut s) = dispatch_spans.remove(&dispatch) {
                            s.attr("outcome", "done");
                            spans.push(s.finish());
                        }
                    }
                    Ok(DispatchEvent::Cell { .. }) | Ok(DispatchEvent::Telemetry { .. }) => {}
                    Err(_) => break,
                }
            }
        }
        if let Some(s) = merge_span.take() {
            spans.push(s.finish());
        }
        finish_trace(ctx, root.take(), spans, job, outbox);
        self.job_hist.observe(job_start.elapsed().as_secs_f64());
        send(
            outbox,
            &Frame::JobDone {
                job,
                cells: cells.len() as u64,
            },
        );
    }

    /// Scrapes every live backend's `/metrics` endpoint and re-emits
    /// the union with each sample re-labelled `backend=<addr>` — one
    /// fleet-wide exposition behind `GET /metrics/fleet`, so a scraper
    /// pointed at the router alone still sees every `bumpd_*` family.
    ///
    /// Families are grouped across backends (`# HELP`/`# TYPE` emitted
    /// once, first backend wins; all samples of one family contiguous)
    /// to keep the output valid Prometheus text exposition. Backends
    /// that fail to answer are counted, not fatal.
    fn fleet_metrics(&self) -> String {
        let pool: Vec<(String, bool)> = lock_recover(&self.backends)
            .iter()
            .map(|b| (b.addr.clone(), b.alive))
            .collect();
        // family name -> aggregated meta + samples; BTreeMap for a
        // deterministic family order independent of scrape order.
        #[derive(Default)]
        struct FamilyAgg {
            help: Option<String>,
            typ: Option<String>,
            samples: Vec<String>,
        }
        let mut families: BTreeMap<String, FamilyAgg> = BTreeMap::new();
        let mut scraped = 0u64;
        let mut errors = 0u64;
        for (addr, alive) in &pool {
            if !*alive {
                continue;
            }
            let Some(body) = scrape_metrics(addr, self.ping_timeout) else {
                errors += 1;
                continue;
            };
            scraped += 1;
            // The exposition format emits a family's `# HELP`/`# TYPE`
            // immediately before its samples, so "current family"
            // tracking groups correctly without suffix heuristics
            // (`_bucket`/`_sum`/`_count` stay with their histogram).
            let mut current: Option<String> = None;
            for line in body.lines() {
                if line.is_empty() {
                    continue;
                }
                if let Some(rest) = line.strip_prefix("# ") {
                    // `# HELP name …` / `# TYPE name …`
                    if let Some(name) = rest.split_whitespace().nth(1) {
                        let entry = families.entry(name.to_string()).or_default();
                        let slot = if rest.starts_with("HELP") {
                            &mut entry.help
                        } else {
                            &mut entry.typ
                        };
                        // First backend to report a family names it.
                        if slot.is_none() {
                            *slot = Some(line.to_string());
                        }
                        current = Some(name.to_string());
                    }
                    continue;
                }
                let family = current
                    .clone()
                    .unwrap_or_else(|| line.split(['{', ' ']).next().unwrap_or(line).to_string());
                families
                    .entry(family)
                    .or_default()
                    .samples
                    .push(relabel_sample(line, addr));
            }
        }
        let mut out = String::new();
        out.push_str(
            "# HELP bumpr_fleet_backends_scraped Backends whose /metrics answered this scrape.\n",
        );
        out.push_str("# TYPE bumpr_fleet_backends_scraped gauge\n");
        out.push_str(&format!("bumpr_fleet_backends_scraped {scraped}\n"));
        out.push_str("# HELP bumpr_fleet_scrape_errors Live backends that failed this scrape.\n");
        out.push_str("# TYPE bumpr_fleet_scrape_errors gauge\n");
        out.push_str(&format!("bumpr_fleet_scrape_errors {errors}\n"));
        for family in families.values() {
            for line in family.help.iter().chain(family.typ.iter()) {
                out.push_str(line);
                out.push('\n');
            }
            for line in &family.samples {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Marks a pool backend dead and logs why.
    fn fail_backend(&self, backend: usize, error: &str) {
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        let mut pool = lock_recover(&self.backends);
        if let Some(b) = pool.get_mut(backend) {
            b.alive = false;
            slog::log(
                Level::Warn,
                "bumpr",
                "backend_failed",
                &[("addr", b.addr.clone()), ("error", error.to_string())],
            );
        }
    }
}

impl Service for Router {
    fn name(&self) -> &'static str {
        "bumpr"
    }

    /// Handles one client frame: `submit` routes a job (blocking this
    /// runner until it completes), `ping` and `register_backend` manage
    /// the pool; anything else is an `error` frame with the connection
    /// kept open.
    fn handle(self: Arc<Self>, frame: Result<Frame, String>, outbox: &ConnSender) {
        match frame {
            Ok(Frame::Submit(batch)) => self.route_job(&batch, outbox),
            Ok(Frame::Ping) => {
                let workers: u64 = lock_recover(&self.backends)
                    .iter()
                    .filter(|b| b.alive)
                    .map(|b| b.workers as u64)
                    .sum();
                let results = lock_recover(&self.cache).len() as u64;
                send(outbox, &Frame::Pong { workers, results });
            }
            Ok(Frame::RegisterBackend { addr }) => match self.register(&addr) {
                Ok(backends) => send(outbox, &Frame::BackendRegistered { addr, backends }),
                Err(message) => send(outbox, &Frame::Error { message }),
            },
            Ok(_) => send(
                outbox,
                &Frame::Error {
                    message: "only submit, ping, and register_backend frames are accepted"
                        .to_string(),
                },
            ),
            Err(message) => send(outbox, &Frame::Error { message }),
        }
    }

    /// Router-specific HTTP endpoints on the sniffed port:
    /// `/metrics/fleet` (scrape-through of every live backend, samples
    /// re-labelled `backend=<addr>`) and `/telemetry/<job>` (telemetry
    /// series re-emitted from backends for a routed job).
    fn http(&self, path: &str) -> Option<(&'static str, String)> {
        if path == "/metrics/fleet" {
            return Some(("text/plain; version=0.0.4", self.fleet_metrics()));
        }
        let job = path.strip_prefix("/telemetry/")?.parse().ok()?;
        Some(("application/json", self.telemetry.render(job)?))
    }

    /// `bumpr_*` families: the backend pool (with per-backend series
    /// keyed by `addr`), the result cache, and the routing counters.
    fn metrics(&self, buf: &mut MetricsBuf) {
        let pool = lock_recover(&self.backends).clone();
        buf.gauge(
            "bumpr_backends",
            "Backends in the pool (alive or not).",
            pool.len() as u64,
        );
        buf.gauge(
            "bumpr_backends_alive",
            "Backends that passed their last health check.",
            pool.iter().filter(|b| b.alive).count() as u64,
        );
        let alive_series: Vec<(Vec<(&str, &str)>, u64)> = pool
            .iter()
            .map(|b| (vec![("addr", b.addr.as_str())], u64::from(b.alive)))
            .collect();
        buf.gauge_series(
            "bumpr_backend_alive",
            "Liveness by backend address.",
            &alive_series,
        );
        let worker_series: Vec<(Vec<(&str, &str)>, u64)> = pool
            .iter()
            .map(|b| (vec![("addr", b.addr.as_str())], b.workers as u64))
            .collect();
        buf.gauge_series(
            "bumpr_backend_workers",
            "Worker threads reported by each backend's last pong.",
            &worker_series,
        );
        let (cache_len, cache_cap, cache_hits, cache_misses) = {
            let cache = lock_recover(&self.cache);
            let (hits, misses) = cache.hit_stats();
            (cache.len(), cache.capacity(), hits, misses)
        };
        buf.gauge(
            "bumpr_cache_entries",
            "Rows currently held by the result cache.",
            cache_len as u64,
        );
        buf.gauge(
            "bumpr_cache_capacity",
            "Result cache capacity (0 disables caching).",
            cache_cap as u64,
        );
        buf.counter("bumpr_cache_hits_total", "Result cache hits.", cache_hits);
        buf.counter(
            "bumpr_cache_misses_total",
            "Result cache misses.",
            cache_misses,
        );
        buf.histogram(
            "bumpr_job_duration_seconds",
            "Routed job wall time, submission to job_done.",
            &self.job_hist.snapshot(),
        );
        buf.histogram(
            "bumpr_cell_latency_seconds",
            "Latency from job start to each remotely-served cell's arrival.",
            &self.cell_hist.snapshot(),
        );
        let stats = self.stats();
        buf.counter(
            "bumpr_dispatched_cells_total",
            "Cells handed to backends (counting re-dispatches).",
            stats.dispatched_cells,
        );
        buf.counter(
            "bumpr_cache_hit_cells_total",
            "Cells served from the result cache.",
            stats.cache_hit_cells,
        );
        buf.counter(
            "bumpr_failovers_total",
            "Backend failures that triggered a re-dispatch.",
            stats.failovers,
        );
        buf.gauge(
            "bumpr_telemetry_jobs",
            "Jobs with telemetry series held for GET /telemetry/<job>.",
            self.telemetry.len() as u64,
        );
    }
}

/// Completes a traced job's observability tail: closes the root span,
/// records everything (the router's own spans plus the backends'
/// adopted ones) into the global registry under the job id, and ships
/// the combined set to the client as one `trace_spans` frame — called
/// immediately before `job_done` so a client that stops reading at
/// `job_done` still saw its spans. A no-op for untraced jobs.
fn finish_trace(
    ctx: Option<TraceContext>,
    root: Option<ActiveSpan>,
    mut spans: Vec<Span>,
    job: u64,
    outbox: &Outbox,
) {
    let Some(ctx) = ctx else { return };
    if let Some(s) = root {
        spans.push(s.finish());
    }
    let registry = Registry::global();
    registry.record(spans.iter().cloned());
    registry.bind_job(job, ctx.trace);
    send(outbox, &Frame::TraceSpans { job, spans });
}

/// Settles one health-sweep ping thread. A panicked ping must read as
/// "backend unhealthy", never kill the sweep: one bad address would
/// otherwise take the whole router down mid-job.
/// Fetches `GET /metrics` from a backend over its sniffed-HTTP port.
/// `Some(body)` only for a `200` response; any connect, I/O, or status
/// failure is `None` (the caller counts it as a scrape error).
fn scrape_metrics(addr: &str, timeout: Duration) -> Option<String> {
    use std::io::{Read as _, Write as _};
    let sockaddr = addr.to_socket_addrs().ok()?.next()?;
    let mut stream = std::net::TcpStream::connect_timeout(&sockaddr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    // The event loop answers one-shot and closes, so read-to-EOF is
    // the whole response.
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    let status = head.lines().next()?;
    if !status.starts_with("HTTP/1.0 200") && !status.starts_with("HTTP/1.1 200") {
        return None;
    }
    Some(body.to_string())
}

/// Re-labels one exposition sample with `backend=<addr>` as the first
/// label: `name{a="b"} 1` becomes `name{backend="<addr>",a="b"} 1`,
/// and a bare `name 1` becomes `name{backend="<addr>"} 1`.
fn relabel_sample(line: &str, addr: &str) -> String {
    if let Some((name, rest)) = line.split_once('{') {
        format!("{name}{{backend=\"{addr}\",{rest}")
    } else if let Some((name, value)) = line.split_once(' ') {
        format!("{name}{{backend=\"{addr}\"}} {value}")
    } else {
        line.to_string()
    }
}

fn join_ping(addr: String, result: std::thread::Result<Backend>) -> Backend {
    result.unwrap_or_else(|_| {
        slog::log(
            Level::Warn,
            "bumpr",
            "ping_panicked",
            &[("addr", addr.clone())],
        );
        let mut backend = Backend::new(addr);
        backend.alive = false;
        backend
    })
}

/// The terminal error when a job cannot make progress.
fn all_backends_gone(remaining: usize) -> Frame {
    Frame::Error {
        message: format!("all backends failed with {remaining} cells incomplete"),
    }
}

/// The subset of a stream's units that still have unserved cells.
fn unserved(stream_units: &[usize], needed: &[HashSet<usize>]) -> Vec<usize> {
    stream_units
        .iter()
        .copied()
        .filter(|&u| !needed[u].is_empty())
        .collect()
}

/// Extracts the batch's shardable units: one per base cell of each
/// job, carrying the client-grid indices of its seed replicas and its
/// scheduler cost estimate.
fn plan_units(batch: &SubmitBatch) -> Vec<WorkUnit> {
    let mut units = Vec::new();
    let mut base = 0usize;
    for job in &batch.jobs {
        let grid = job.to_grid();
        for range in grid.unit_ranges(job.seeds) {
            // The unit's design point comes from the grid cell itself,
            // never from index math over `job.presets`/`job.workloads`:
            // grid expansion deduplicates repeated entries, so a spec
            // like presets ["Base-open","Base-open","BuMP"] yields
            // fewer units than index arithmetic would predict.
            let cell = &grid.cells()[range.start];
            units.push(WorkUnit {
                spec: SubmitSpec {
                    presets: vec![cell.preset],
                    workloads: vec![cell.workload],
                    options: job.options,
                    scenario: job.scenario.clone(),
                    seeds: job.seeds,
                    resume: job.resume,
                },
                globals: (base + range.start..base + range.end).collect(),
                cost: estimated_unit_cost(&grid.cells()[range]),
            });
        }
        base += grid.len();
    }
    units
}

/// Cost-aware, least-loaded-first sharding: units in descending cost
/// order each go to the backend with the lowest load per worker
/// (longest-processing-time greedy, the same ordering heuristic the
/// in-process scheduler steals by).
fn assign_units(
    units: &[WorkUnit],
    unit_ids: &[usize],
    backends: &[(usize, usize)],
) -> HashMap<usize, Vec<usize>> {
    let mut order: Vec<usize> = unit_ids.to_vec();
    order.sort_by(|&a, &b| units[b].cost.cmp(&units[a].cost).then(a.cmp(&b)));
    let mut load: Vec<u128> = vec![0; backends.len()];
    let mut plan: HashMap<usize, Vec<usize>> = HashMap::new();
    for u in order {
        let mut best = 0;
        for j in 1..backends.len() {
            // load[j]/workers[j] < load[best]/workers[best], integrally.
            if load[j] * (backends[best].1 as u128) < load[best] * (backends[j].1 as u128) {
                best = j;
            }
        }
        load[best] += units[u].cost as u128;
        plan.entry(backends[best].0).or_default().push(u);
    }
    plan
}

/// Releases cell results in stable grid order: out-of-order arrivals
/// wait in a reorder buffer until every earlier index has streamed.
struct OrderedEmitter<'a> {
    outbox: &'a Outbox,
    next: usize,
    buffered: BTreeMap<usize, CellResult>,
}

impl<'a> OrderedEmitter<'a> {
    fn new(outbox: &'a Outbox) -> Self {
        OrderedEmitter {
            outbox,
            next: 0,
            buffered: BTreeMap::new(),
        }
    }

    fn insert(&mut self, index: usize, cell: CellResult) {
        self.buffered.insert(index, cell);
        while let Some(cell) = self.buffered.remove(&self.next) {
            send(self.outbox, &Frame::CellResult(cell));
            self.next += 1;
        }
    }

    /// Whether every cell of a `total`-cell job has been released.
    fn is_drained(&self, total: usize) -> bool {
        self.buffered.is_empty() && self.next == total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_sim::{Preset, RunOptions, Scenario};
    use bump_workloads::Workload;

    fn unit(cost: u64) -> WorkUnit {
        WorkUnit {
            spec: SubmitSpec::new(
                vec![Preset::BaseOpen],
                vec![Workload::WebSearch],
                RunOptions::quick(1),
            ),
            globals: vec![0],
            cost,
        }
    }

    #[test]
    fn plan_units_covers_the_batch_grid_exactly() {
        let a = SubmitSpec {
            seeds: 2,
            ..SubmitSpec::new(
                vec![Preset::BaseOpen, Preset::Bump],
                vec![Workload::WebSearch],
                RunOptions::quick(1),
            )
        };
        let b = SubmitSpec {
            scenario: Scenario::from_name("ddr4_2400").unwrap(),
            ..SubmitSpec::new(
                vec![Preset::Sms],
                vec![Workload::DataServing],
                RunOptions::quick(1),
            )
        };
        let batch = SubmitBatch {
            jobs: vec![a, b],
            trace: None,
            telemetry: None,
        };
        let (grid, _) = batch.expand().unwrap();
        let units = plan_units(&batch);
        assert_eq!(units.len(), 3, "two base cells + one scenario cell");
        // Globals tile the concatenated grid without gaps or overlap.
        let mut covered: Vec<usize> = units.iter().flat_map(|u| u.globals.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..grid.len()).collect::<Vec<_>>());
        // Each unit reproduces exactly its slice of the grid.
        for u in &units {
            let unit_grid = u.spec.to_grid();
            assert_eq!(unit_grid.len(), u.globals.len());
            for (k, &g) in u.globals.iter().enumerate() {
                assert_eq!(unit_grid.cells()[k].label, grid.cells()[g].label);
                assert_eq!(
                    unit_grid.cells()[k].options.seed,
                    grid.cells()[g].options.seed
                );
            }
            assert!(u.cost > 0);
        }
    }

    #[test]
    fn plan_units_survives_duplicate_presets_and_workloads() {
        // Grid expansion dedups repeated entries; the unit plan must
        // follow the deduplicated grid, not the raw spec lists.
        let job = SubmitSpec {
            seeds: 2,
            ..SubmitSpec::new(
                vec![Preset::BaseOpen, Preset::BaseOpen, Preset::Bump],
                vec![Workload::WebSearch, Workload::WebSearch],
                RunOptions::quick(1),
            )
        };
        let batch = SubmitBatch {
            jobs: vec![job],
            trace: None,
            telemetry: None,
        };
        let (grid, _) = batch.expand().unwrap();
        assert_eq!(grid.len(), 4, "2 unique base cells × 2 replicas");
        let units = plan_units(&batch);
        assert_eq!(units.len(), 2);
        for u in &units {
            let unit_grid = u.spec.to_grid();
            assert_eq!(unit_grid.len(), u.globals.len());
            for (k, &g) in u.globals.iter().enumerate() {
                assert_eq!(unit_grid.cells()[k].label, grid.cells()[g].label);
            }
        }
        assert_eq!(units[0].spec.presets, vec![Preset::BaseOpen]);
        assert_eq!(units[1].spec.presets, vec![Preset::Bump]);
    }

    #[test]
    fn assignment_is_cost_aware_and_least_loaded_first() {
        let units = vec![unit(8), unit(4), unit(2), unit(1)];
        let ids = vec![0, 1, 2, 3];
        // Two equal backends: LPT puts 8 alone and {4,2,1} together.
        let plan = assign_units(&units, &ids, &[(0, 1), (1, 1)]);
        let of = |u: usize| {
            plan.iter()
                .find(|(_, us)| us.contains(&u))
                .map(|(&b, _)| b)
                .unwrap()
        };
        assert_ne!(of(0), of(1), "the two big units split");
        assert_eq!(of(1), of(2), "small units balance the big one");
        assert_eq!(of(1), of(3));
        // A 3-worker backend takes ~3x the load of a 1-worker one.
        let plan = assign_units(&units, &ids, &[(0, 3), (1, 1)]);
        let loads: HashMap<usize, u64> = plan
            .iter()
            .map(|(&b, us)| (b, us.iter().map(|&u| units[u].cost).sum()))
            .collect();
        assert!(loads.get(&0).copied().unwrap_or(0) > loads.get(&1).copied().unwrap_or(0));
        // Every unit is assigned exactly once.
        let mut all: Vec<usize> = plan.values().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, ids);
    }

    #[test]
    fn ordered_emitter_releases_in_grid_order() {
        let outbox = ConnSender::detached();
        let mut emitter = OrderedEmitter::new(&outbox);
        let cell = |i: u64| CellResult {
            job: 0,
            index: i,
            label: format!("c{i}"),
            cached: false,
            csv: format!("c{i},row"),
        };
        emitter.insert(2, cell(2));
        emitter.insert(1, cell(1));
        assert!(
            outbox.take_queued().is_empty(),
            "nothing released before index 0"
        );
        emitter.insert(0, cell(0));
        let order: Vec<String> = outbox.take_queued();
        assert_eq!(order.len(), 3);
        for (i, line) in order.iter().enumerate() {
            assert!(line.contains(&format!("\"index\":{i}")), "{line}");
        }
        emitter.insert(3, cell(3));
        assert!(emitter.is_drained(4));
    }

    /// Satellite regression: a panicked ping thread reads as "backend
    /// unhealthy" and the sweep carries on, instead of taking the
    /// router down via `join().expect(...)`.
    #[test]
    fn a_panicked_ping_thread_marks_the_backend_dead_not_the_router() {
        let ok = std::thread::spawn(|| {
            let mut b = Backend::new("127.0.0.1:1");
            b.alive = true;
            b.workers = 3;
            b
        });
        let checked = join_ping("127.0.0.1:1".to_string(), ok.join());
        assert!(checked.alive);
        assert_eq!(checked.workers, 3);
        let boom = std::thread::spawn(|| -> Backend { panic!("ping thread blew up") });
        let checked = join_ping("127.0.0.1:2".to_string(), boom.join());
        assert!(!checked.alive, "a panicked ping means unhealthy");
        assert_eq!(checked.addr, "127.0.0.1:2");
    }
}
