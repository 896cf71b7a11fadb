//! The `bumpd` daemon: a long-lived experiment server.
//!
//! One [`Daemon`] owns one work-stealing
//! [`bump_bench::sched::Scheduler`] and one resume [`Journal`]; client
//! connections are multiplexed by the shared readiness-polling event
//! loop ([`crate::eventloop`]), which parses newline-delimited
//! [`Frame`]s and hands them to a bounded runner pool — the daemon's
//! thread count is fixed regardless of how many clients are connected.
//! Because all connections submit into the *same* scheduler, cells
//! from concurrent jobs interleave by job age (a small job is serviced
//! every other steal instead of queueing behind a `--full` sweep) and
//! expensive cells spread across workers by estimated cost — the
//! daemon is exactly the shared backend the synchronous `run_grid`
//! wraps, so streamed rows are byte-identical to an in-process run of
//! the same grid (`tests/daemon_e2e.rs`).
//!
//! Scheduler workers never touch a socket: every outbound frame is
//! queued on the connection's [`Outbox`] and written by the event
//! loop, so a slow or non-reading client stalls only its own
//! connection's TCP stream — its cells still execute, land in the
//! journal, and the pool stays available to every other client.

use crate::eventloop::{self, lock_recover, ConnSender, ServeConfig, Service};
use crate::journal::{cell_identity, cell_key, Journal, JournalEntry};
use crate::metrics::{Histogram, MetricsBuf};
use crate::proto::{CellResult, Frame, SubmitBatch};
use crate::telemetry::TelemetryStore;
use crate::trace::{correlate, now_us, ActiveSpan, Registry, Span, SpanId};
use bump_bench::experiment::{ExperimentSpec, MetricRow};
use bump_bench::sched::Scheduler;
use bump_sim::Instruments;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The serving daemon: a scheduler, a journal, and a job-id counter
/// shared by every client connection.
pub struct Daemon {
    sched: Scheduler,
    journal: Mutex<Journal>,
    next_job: AtomicU64,
    journal_hits: AtomicU64,
    cells_executed: AtomicU64,
    job_hist: Histogram,
    cell_hist: Histogram,
    queue_hist: Histogram,
    telemetry: TelemetryStore,
}

/// The sending half of a connection's outbox: frames queued here are
/// written to the socket, in order, by the event loop. Shared with the
/// `bumpr` router, whose connections use the same discipline.
pub(crate) type Outbox = ConnSender;

impl Daemon {
    /// A daemon executing cells on `threads` workers, journaling into
    /// `journal`.
    pub fn new(threads: usize, journal: Journal) -> Arc<Daemon> {
        Arc::new(Daemon {
            sched: Scheduler::new(threads),
            journal: Mutex::new(journal),
            next_job: AtomicU64::new(0),
            journal_hits: AtomicU64::new(0),
            cells_executed: AtomicU64::new(0),
            job_hist: Histogram::latency(),
            cell_hist: Histogram::latency(),
            queue_hist: Histogram::latency(),
            telemetry: TelemetryStore::new(),
        })
    }

    /// Number of scheduler worker threads.
    pub fn threads(&self) -> usize {
        self.sched.threads()
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

    /// Spawns [`Daemon::serve_with`] (default knobs) on a background thread (test harness
    /// convenience). The daemon keeps serving until the process exits.
    pub fn spawn(self: &Arc<Self>, listener: TcpListener) -> std::thread::JoinHandle<()> {
        self.spawn_with(listener, ServeConfig::default())
    }

    /// [`Daemon::spawn`] with explicit admission/eviction knobs.
    pub fn spawn_with(
        self: &Arc<Self>,
        listener: TcpListener,
        config: ServeConfig,
    ) -> std::thread::JoinHandle<()> {
        let daemon = Arc::clone(self);
        std::thread::spawn(move || {
            if let Err(e) = daemon.serve_with(listener, config) {
                eprintln!("bumpd: event loop: {e}");
            }
        })
    }

    /// Runs one submission batch as one job: journal hits stream
    /// immediately, the rest go through the shared scheduler and
    /// stream as they land.
    ///
    /// When the batch carries a trace context, the whole job is traced:
    /// a `run_job` root span (parented under the submitter's span),
    /// a `journal_lookup` span, and per-cell `queue_wait` /
    /// `cell_execute` / `journal_append` spans stamped from the
    /// scheduler's [`bump_bench::sched::CellTiming`]. Traced cells run
    /// with the engine phase profiler on, so each `cell_execute` span
    /// carries `phase.*` attributes (per-phase engine nanoseconds).
    /// The finished spans land in the process [`Registry`] and ride
    /// back on a `trace_spans` frame just before `job_done`. Error
    /// paths deliberately skip span emission — the `error` frame is
    /// the whole story there.
    fn run_job(self: &Arc<Self>, batch: &SubmitBatch, outbox: &Outbox) {
        let job_start = Instant::now();
        // A conflicting batch (jobs overlapping on a cell label) is a
        // protocol error, not a panic.
        let (grid, resume) = match batch.expand() {
            Ok(expanded) => expanded,
            Err(message) => {
                send(outbox, &Frame::Error { message });
                return;
            }
        };
        let ctx = batch.trace;
        let mut root = ctx.map(|c| ActiveSpan::begin(c.trace, Some(c.parent), "run_job", "bumpd"));
        let root_id = root.as_ref().map(ActiveSpan::id);
        // While this runner thread works the job, its log lines carry
        // trace=/span= so operators can pivot from logs to the trace.
        let _correlation = ctx.zip(root_id).map(|(c, id)| correlate(c.trace, id));
        let mut spans: Vec<Span> = Vec::new();
        let cells = grid.cells();
        let keys: Vec<u64> = cells.iter().map(cell_key).collect();
        // Partition into journal hits and cells to simulate. A key
        // match alone is not trusted: the entry's stored identity must
        // match the cell's, so a 64-bit hash collision degrades to a
        // re-simulation instead of serving the wrong experiment's row.
        let mut lookup =
            ctx.map(|c| ActiveSpan::begin(c.trace, root_id, "journal_lookup", "bumpd"));
        let mut cached: Vec<(usize, JournalEntry)> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        {
            let journal = lock_recover(&self.journal);
            for (i, key) in keys.iter().enumerate() {
                let hit = resume[i]
                    .then(|| journal.get(*key))
                    .flatten()
                    .filter(|entry| entry.identity == cell_identity(&cells[i]));
                match hit {
                    Some(entry) => cached.push((i, entry.clone())),
                    None => pending.push(i),
                }
            }
        }
        if let Some(mut s) = lookup.take() {
            s.attr("hits", cached.len());
            s.attr("pending", pending.len());
            spans.push(s.finish());
        }
        let cached_count = cached.len();
        self.journal_hits
            .fetch_add(cached_count as u64, Ordering::Relaxed);
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        send(
            outbox,
            &Frame::JobAccepted {
                job,
                cells: cells.len() as u64,
                cached: cached_count as u64,
            },
        );
        for (index, entry) in cached {
            send(
                outbox,
                &Frame::CellResult(CellResult {
                    job,
                    index: index as u64,
                    label: entry.label,
                    cached: true,
                    csv: entry.csv,
                }),
            );
        }
        // Per-cell spans are built on scheduler workers; this is the
        // meeting point with the connection handler.
        let collected: Arc<Mutex<Vec<Span>>> = Arc::new(Mutex::new(Vec::new()));
        if !pending.is_empty() {
            // Tracing profiles the cells; neither instrument changes
            // a cell's identity or its journaled rows.
            let instruments = Instruments {
                profile: ctx.is_some(),
                telemetry: batch.telemetry,
            };
            let pending_specs = pending
                .iter()
                .map(|&i| ExperimentSpec {
                    instruments,
                    ..cells[i].clone()
                })
                .collect();
            let pending_keys: Vec<u64> = pending.iter().map(|&i| keys[i]).collect();
            let grid_index: Vec<usize> = pending;
            let cell_outbox = outbox.clone();
            let cell_spans = Arc::clone(&collected);
            // The callback runs on scheduler workers, so it owns an
            // Arc of the daemon for journal access rather than
            // borrowing this connection handler's stack.
            let daemon = Arc::clone(self);
            let handle = self.sched.submit(
                pending_specs,
                Box::new(move |j, spec, report, timing| {
                    // The worker invokes the callback right after the
                    // simulation returns, so "now" is the execution
                    // end; the timing durations walk it backwards.
                    let exec_end = now_us();
                    let csv = MetricRow::of(spec, report).to_csv();
                    daemon.cells_executed.fetch_add(1, Ordering::Relaxed);
                    let append_start = now_us();
                    lock_recover(&daemon.journal).record(
                        pending_keys[j],
                        JournalEntry {
                            identity: cell_identity(spec),
                            label: spec.label.clone(),
                            csv: csv.clone(),
                        },
                    );
                    let append_end = now_us();
                    daemon.cell_hist.observe_duration(timing.execution);
                    daemon.queue_hist.observe_duration(timing.queue_wait);
                    if let Some(c) = ctx {
                        let cell = grid_index[j].to_string();
                        let exec_start =
                            exec_end.saturating_sub(timing.execution.as_micros() as u64);
                        let wait_start =
                            exec_start.saturating_sub(timing.queue_wait.as_micros() as u64);
                        let mut exec_span = Span {
                            trace: c.trace,
                            id: SpanId::generate(),
                            parent: root_id,
                            name: "cell_execute".to_string(),
                            service: "bumpd".to_string(),
                            start_us: exec_start,
                            end_us: exec_end,
                            attrs: vec![
                                ("cell".to_string(), cell.clone()),
                                ("label".to_string(), spec.label.clone()),
                            ],
                        };
                        if let Some(profile) = &report.phase {
                            for sample in &profile.phases {
                                if sample.calls > 0 {
                                    exec_span.attrs.push((
                                        format!("phase.{}", sample.name),
                                        sample.nanos.to_string(),
                                    ));
                                }
                            }
                        }
                        let queue_span = Span {
                            trace: c.trace,
                            id: SpanId::generate(),
                            parent: root_id,
                            name: "queue_wait".to_string(),
                            service: "bumpd".to_string(),
                            start_us: wait_start,
                            end_us: exec_start,
                            attrs: vec![("cell".to_string(), cell.clone())],
                        };
                        let append_span = Span {
                            trace: c.trace,
                            id: SpanId::generate(),
                            parent: Some(exec_span.id),
                            name: "journal_append".to_string(),
                            service: "bumpd".to_string(),
                            start_us: append_start,
                            end_us: append_end,
                            attrs: vec![("cell".to_string(), cell)],
                        };
                        lock_recover(&cell_spans).extend([queue_span, exec_span, append_span]);
                    }
                    // The telemetry frame precedes its cell_result, so
                    // once the last cell_result lands every series has
                    // too (connections deliver in order) — the router's
                    // merge loop and the client both lean on this.
                    if let Some(series) = &report.telemetry {
                        daemon.telemetry.record(
                            job,
                            grid_index[j] as u64,
                            &spec.label,
                            series.clone(),
                        );
                        send(
                            &cell_outbox,
                            &Frame::CellTelemetry {
                                job,
                                index: grid_index[j] as u64,
                                series: series.clone(),
                            },
                        );
                    }
                    send(
                        &cell_outbox,
                        &Frame::CellResult(CellResult {
                            job,
                            index: grid_index[j] as u64,
                            label: spec.label.clone(),
                            cached: false,
                            csv,
                        }),
                    );
                }),
            );
            if let Err(message) = handle.wait() {
                send(outbox, &Frame::Error { message });
                return;
            }
        }
        self.job_hist.observe_duration(job_start.elapsed());
        if let Some(c) = ctx {
            spans.append(&mut lock_recover(&collected));
            if let Some(mut r) = root.take() {
                r.attr("job", job);
                r.attr("cells", cells.len());
                r.attr("cached", cached_count);
                spans.push(r.finish());
            }
            Registry::global().record(spans.iter().cloned());
            Registry::global().bind_job(job, c.trace);
            send(outbox, &Frame::TraceSpans { job, spans });
        }
        send(
            outbox,
            &Frame::JobDone {
                job,
                cells: cells.len() as u64,
            },
        );
    }
}

impl Service for Daemon {
    fn name(&self) -> &'static str {
        "bumpd"
    }

    /// Handles one parsed frame from a client: `submit` runs a job
    /// (blocking this runner until it completes), `ping` answers with
    /// pool stats, anything else is a protocol error. The connection
    /// stays open for the next frame either way.
    fn handle(self: Arc<Self>, frame: Result<Frame, String>, outbox: &ConnSender) {
        match frame {
            Ok(Frame::Submit(batch)) => self.run_job(&batch, outbox),
            Ok(Frame::Ping) => {
                let results = lock_recover(&self.journal).len() as u64;
                send(
                    outbox,
                    &Frame::Pong {
                        workers: self.threads() as u64,
                        results,
                    },
                );
            }
            Ok(_) => send(
                outbox,
                &Frame::Error {
                    message: "only submit and ping frames are accepted from clients".to_string(),
                },
            ),
            Err(message) => send(outbox, &Frame::Error { message }),
        }
    }

    /// `bumpd_*` families: scheduler depths, journal size, and the
    /// hit/executed counters behind the resume rate.
    fn metrics(&self, buf: &mut MetricsBuf) {
        let depth = self.sched.depth();
        buf.gauge(
            "bumpd_sched_workers",
            "Scheduler worker threads.",
            self.threads() as u64,
        );
        buf.gauge(
            "bumpd_sched_jobs",
            "Jobs currently queued on the scheduler.",
            depth.jobs as u64,
        );
        buf.gauge(
            "bumpd_sched_queued_cells",
            "Cells waiting for a scheduler worker.",
            depth.queued_cells as u64,
        );
        buf.gauge(
            "bumpd_sched_running_cells",
            "Cells executing on scheduler workers right now.",
            depth.running_cells as u64,
        );
        buf.gauge(
            "bumpd_journal_entries",
            "Finished cells in the resume journal.",
            lock_recover(&self.journal).len() as u64,
        );
        let hits = self.journal_hits.load(Ordering::Relaxed);
        let executed = self.cells_executed.load(Ordering::Relaxed);
        buf.counter(
            "bumpd_journal_hits_total",
            "Cells served from the journal instead of re-simulating.",
            hits,
        );
        buf.counter(
            "bumpd_cells_executed_total",
            "Cells actually simulated by this daemon.",
            executed,
        );
        buf.gauge_f64(
            "bumpd_journal_resume_rate",
            "Fraction of requested cells served from the journal.",
            if hits + executed == 0 {
                0.0
            } else {
                hits as f64 / (hits + executed) as f64
            },
        );
        buf.histogram(
            "bumpd_job_duration_seconds",
            "End-to-end submit-to-done latency of one job.",
            &self.job_hist.snapshot(),
        );
        buf.histogram(
            "bumpd_cell_duration_seconds",
            "Simulation wall-clock of one executed cell.",
            &self.cell_hist.snapshot(),
        );
        buf.histogram(
            "bumpd_cell_queue_wait_seconds",
            "Time an executed cell waited for a scheduler worker.",
            &self.queue_hist.snapshot(),
        );
        buf.gauge(
            "bumpd_telemetry_jobs",
            "Jobs whose telemetry series are retained for GET /telemetry/<job>.",
            self.telemetry.len() as u64,
        );
    }

    /// `GET /telemetry/<job>` → the job's recorded series as the
    /// `sim-telemetry-v1` cells document.
    fn http(&self, path: &str) -> Option<(&'static str, String)> {
        let job = path.strip_prefix("/telemetry/")?.parse().ok()?;
        Some(("application/json", self.telemetry.render(job)?))
    }
}

/// Queues one frame on the connection's outbox. After the connection
/// closes the frame is dropped — jobs still complete and stay
/// journaled.
pub(crate) fn send(outbox: &Outbox, frame: &Frame) {
    outbox.send_line(frame.encode());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: a panic while holding the journal lock
    /// must not cascade — later requests recover the poisoned lock and
    /// keep serving.
    #[test]
    fn poisoned_journal_lock_does_not_kill_later_requests() {
        let daemon = Daemon::new(1, Journal::in_memory());
        let poisoner = Arc::clone(&daemon);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.journal.lock().unwrap();
            panic!("simulated handler panic while journaling");
        })
        .join();
        assert!(daemon.journal.lock().is_err(), "journal lock is poisoned");
        let outbox = ConnSender::detached();
        Arc::clone(&daemon).handle(Ok(Frame::Ping), &outbox);
        let lines = outbox.take_queued();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"pong\""), "{}", lines[0]);
    }
}
