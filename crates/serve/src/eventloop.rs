//! The shared readiness-polling serving core behind `bumpd` and
//! `bumpr`.
//!
//! Both daemons used to spawn two threads per connection (a blocking
//! reader plus a writer draining an `mpsc` outbox) — fine for a lab,
//! a ceiling for the "millions of users" north star, and an open
//! slowloris hole: a client that connected and sent nothing pinned a
//! thread forever. This module replaces that with one event-loop
//! thread multiplexing every connection through the [`netpoll`] shim
//! (epoll on Linux, kqueue on the BSDs — `shims/netpoll`), so a
//! thousand idle clients cost a thousand fds and ~nothing else.
//!
//! Architecture (threads are *bounded*, independent of connections):
//!
//! * **The loop thread** owns every socket: it accepts, reads
//!   non-blocking into per-connection buffers, splits frames, enforces
//!   admission control, and performs every socket write (streaming
//!   writes are backpressure-aware: an unwritable socket parks its
//!   bytes in the connection's write buffer and arms write interest
//!   instead of blocking anyone).
//! * **A runner pool** (`ServeConfig::runners` threads) executes the
//!   parsed frames by calling the `Service` — `Daemon::run_job` /
//!   `Router::route_job` block for a job's duration, which must never
//!   happen on the loop thread. Frames of one connection are strictly
//!   serialized (the next is dispatched only when the previous
//!   returns), preserving the per-connection frame order the
//!   byte-identity suites pin.
//! * **Everything else** (scheduler workers, router dispatch streams)
//!   reaches a connection only through its `ConnSender`: an ordered
//!   outbox whose producer side never touches the socket — it queues
//!   the line and wakes the loop through the [`netpoll::Waker`].
//!
//! Admission control (all knobs on [`ServeConfig`], all rejections
//! clean protocol `error` frames rather than resets): a global
//! connection cap, a global in-flight job cap, a per-connection
//! pending-frame cap, a maximum line length, and an idle-connection
//! eviction deadline (the slowloris fix).
//!
//! The same port doubles as the observability endpoint: a connection
//! whose first bytes are `GET ` is answered as minimal HTTP —
//! `GET /metrics` returns the Prometheus-style exposition
//! ([`crate::metrics`]), anything else 404 — then closed. Operational
//! events log through [`crate::slog`].

use crate::metrics::MetricsBuf;
use crate::proto::Frame;
use crate::slog::{self, Level};
use netpoll::{Event, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning instead of propagating it.
/// A poisoned lock means some holder panicked mid-critical-section;
/// for every shared structure in this crate (journal, cache, backend
/// pool — maps updated with single insertions) the state is still
/// well-formed after any interrupted update, so the panic must stay a
/// one-request failure instead of cascading a panic into every
/// subsequent request that touches the lock.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tuning knobs for the serving core. Defaults favor a long-lived
/// production daemon; tests and the CLI flags override per field.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Open-connection cap: accepts beyond it get a best-effort
    /// `error` frame and an immediate close.
    pub max_conns: usize,
    /// Global cap on jobs admitted (queued + executing) across all
    /// connections; a `submit` beyond it gets an `error` frame.
    pub inflight_cap: usize,
    /// Per-connection cap on parsed frames waiting behind the one
    /// being handled; excess frames get an `error` frame.
    pub per_conn_cap: usize,
    /// Runner threads executing frames (job handling blocks one for
    /// the job's duration; simulation itself runs on the scheduler).
    pub runners: usize,
    /// A connection with no traffic and no work for this long is
    /// evicted (the slowloris deadline).
    pub idle_timeout: Duration,
    /// Maximum bytes of one protocol line; longer input closes the
    /// connection with an `error` frame.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_conns: 4096,
            inflight_cap: 256,
            per_conn_cap: 8,
            runners: 8,
            idle_timeout: Duration::from_secs(900),
            max_line_bytes: 8 << 20,
        }
    }
}

/// What `bumpd`/`bumpr` plug into the event loop: frame handling (on a
/// runner thread) plus service-specific metric families.
pub(crate) trait Service: Send + Sync + 'static {
    /// Service name for logs (`bumpd` / `bumpr`).
    fn name(&self) -> &'static str;
    /// Handles one parsed frame (or a parse error) on a runner thread,
    /// answering through `outbox`. May block for a whole job.
    fn handle(self: Arc<Self>, frame: Result<Frame, String>, outbox: &ConnSender);
    /// Appends service-specific metric families to the exposition.
    fn metrics(&self, buf: &mut MetricsBuf);
    /// Answers a service-specific HTTP GET beyond the shared
    /// `/metrics` and `/trace` routes: `Some((content_type, body))`
    /// serves a 200, `None` falls through to the loop's 404. Runs on
    /// the event-loop thread, so implementations must stay fast.
    fn http(&self, path: &str) -> Option<(&'static str, String)> {
        let _ = path;
        None
    }
}

/// The sending half of a connection's outbox (the `Outbox` type both
/// daemons alias): lines queued here are written to the socket, in
/// order, by the event loop. Queueing never blocks and never touches
/// the socket; after the connection closes, sends become no-ops — jobs
/// still complete and stay journaled.
#[derive(Clone, Debug)]
pub(crate) struct ConnSender {
    token: u64,
    state: Arc<Mutex<OutboxState>>,
    notify: Option<Arc<LoopNotify>>,
}

#[derive(Debug, Default)]
struct OutboxState {
    queue: VecDeque<String>,
    closed: bool,
}

impl ConnSender {
    fn attached(token: u64, notify: Arc<LoopNotify>) -> ConnSender {
        ConnSender {
            token,
            state: Arc::new(Mutex::new(OutboxState::default())),
            notify: Some(notify),
        }
    }

    /// A sender with no event loop behind it: lines accumulate until
    /// [`ConnSender::take_queued`]. Used by unit tests.
    #[cfg(test)]
    pub(crate) fn detached() -> ConnSender {
        ConnSender {
            token: 0,
            state: Arc::new(Mutex::new(OutboxState::default())),
            notify: None,
        }
    }

    /// Queues one line for the connection (without its newline) and
    /// wakes the loop if the queue was empty.
    pub(crate) fn send_line(&self, line: String) {
        let was_empty = {
            let mut state = lock_recover(&self.state);
            if state.closed {
                return;
            }
            let was_empty = state.queue.is_empty();
            state.queue.push_back(line);
            was_empty
        };
        if was_empty {
            if let Some(notify) = &self.notify {
                notify.dirty(self.token);
            }
        }
    }

    /// Takes every queued line (loop side; also the test observer).
    pub(crate) fn take_queued(&self) -> Vec<String> {
        lock_recover(&self.state).queue.drain(..).collect()
    }

    fn is_empty(&self) -> bool {
        lock_recover(&self.state).queue.is_empty()
    }

    fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        state.queue.clear();
    }
}

/// How producer threads (runners, scheduler workers, dispatch streams)
/// get the loop's attention: token lists drained every loop iteration,
/// with a [`Waker`] to interrupt the poll.
#[derive(Debug)]
struct LoopNotify {
    waker: Waker,
    /// Connections whose outbox went non-empty.
    dirty: Mutex<Vec<u64>>,
    /// Connections whose in-flight frame finished handling.
    finished: Mutex<Vec<u64>>,
}

impl LoopNotify {
    fn dirty(&self, token: u64) {
        lock_recover(&self.dirty).push(token);
        self.waker.wake();
    }

    fn finished(&self, token: u64) {
        lock_recover(&self.finished).push(token);
        self.waker.wake();
    }

    fn take(list: &Mutex<Vec<u64>>) -> Vec<u64> {
        std::mem::take(&mut *lock_recover(list))
    }
}

/// One unit of runner work: a parsed frame bound to its connection.
struct Work {
    token: u64,
    frame: Result<Frame, String>,
    sender: ConnSender,
    is_job: bool,
}

/// The bounded runner pool's shared queue.
#[derive(Default)]
struct RunQueue {
    queue: Mutex<VecDeque<Work>>,
    cv: Condvar,
}

impl RunQueue {
    fn push(&self, work: Work) {
        lock_recover(&self.queue).push_back(work);
        self.cv.notify_one();
    }

    fn pop(&self) -> Work {
        let mut queue = lock_recover(&self.queue);
        loop {
            if let Some(work) = queue.pop_front() {
                return work;
            }
            queue = self
                .cv
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn depth(&self) -> usize {
        lock_recover(&self.queue).len()
    }
}

/// Event-loop counters exposed at `GET /metrics` (the `bump_*`
/// families shared by both binaries; see `docs/OBSERVABILITY.md`).
#[derive(Debug, Default)]
struct ServeMetrics {
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_evicted_idle: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
    lines: AtomicU64,
    protocol_errors: AtomicU64,
    jobs_inflight: AtomicU64,
    jobs_total: AtomicU64,
    jobs_rejected: AtomicU64,
    handler_panics: AtomicU64,
    scrapes: AtomicU64,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Connection protocol mode, decided from the first bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Nothing conclusive received yet.
    Fresh,
    /// Newline-delimited JSON frames (`docs/PROTOCOL.md`).
    Proto,
    /// An HTTP GET (the metrics scrape path): answer once and close.
    Http,
}

/// Per-connection state owned by the loop thread.
struct Conn {
    stream: TcpStream,
    peer: String,
    sender: ConnSender,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    mode: Mode,
    /// Parsed frames waiting behind the one a runner is handling.
    pending: VecDeque<Result<Frame, String>>,
    /// A runner is currently handling a frame from this connection.
    active: bool,
    eof: bool,
    dead: bool,
    /// Flush what's queued, then close (HTTP answers, fatal errors).
    closing: bool,
    /// Interest currently registered with the poller (`None` once the
    /// fd is deregistered, e.g. after EOF with nothing left to write).
    registered: Option<Interest>,
    last_read: Instant,
}

impl Conn {
    fn new(stream: TcpStream, peer: String, sender: ConnSender) -> Conn {
        Conn {
            stream,
            peer,
            sender,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            mode: Mode::Fresh,
            pending: VecDeque::new(),
            active: false,
            eof: false,
            dead: false,
            closing: false,
            registered: Some(Interest::READABLE),
            last_read: Instant::now(),
        }
    }

    /// Whether no request is being handled or queued and nothing is
    /// waiting to be written.
    fn is_quiescent(&self) -> bool {
        !self.active && self.pending.is_empty() && self.wbuf.is_empty() && self.sender.is_empty()
    }
}

/// Runs the serving loop on the calling thread, forever (returns only
/// if the poller itself fails). Spawns `config.runners` handler
/// threads on entry.
pub(crate) fn serve<S: Service>(
    service: Arc<S>,
    listener: TcpListener,
    config: ServeConfig,
) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd as _;
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    let waker = Waker::new(&poller, TOKEN_WAKER)?;
    let notify = Arc::new(LoopNotify {
        waker,
        dirty: Mutex::new(Vec::new()),
        finished: Mutex::new(Vec::new()),
    });
    let runq = Arc::new(RunQueue::default());
    let metrics = Arc::new(ServeMetrics::default());
    for i in 0..config.runners.max(1) {
        let service = Arc::clone(&service);
        let runq = Arc::clone(&runq);
        let notify = Arc::clone(&notify);
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name(format!("serve-runner-{i}"))
            .spawn(move || runner_loop(service, runq, notify, metrics))
            .expect("spawn runner thread");
    }
    let mut core = LoopCore {
        service,
        config,
        listener,
        poller,
        notify,
        runq,
        metrics,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
    };
    core.run()
}

/// One runner thread: executes frames, reports panics as protocol
/// `error` frames (instead of poisoning shared locks and dying), and
/// tells the loop when a connection's frame is finished.
fn runner_loop<S: Service>(
    service: Arc<S>,
    runq: Arc<RunQueue>,
    notify: Arc<LoopNotify>,
    metrics: Arc<ServeMetrics>,
) {
    loop {
        let work = runq.pop();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Arc::clone(&service).handle(work.frame, &work.sender);
        }));
        if let Err(panic) = outcome {
            metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
            let message = panic_message(panic.as_ref());
            slog::log(
                Level::Error,
                service.name(),
                "handler_panic",
                &[("message", message.clone())],
            );
            work.sender.send_line(
                Frame::Error {
                    message: format!("internal error: request handler panicked: {message}"),
                }
                .encode(),
            );
        }
        if work.is_job {
            metrics.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        }
        notify.finished(work.token);
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct LoopCore<S: Service> {
    service: Arc<S>,
    config: ServeConfig,
    listener: TcpListener,
    poller: Poller,
    notify: Arc<LoopNotify>,
    runq: Arc<RunQueue>,
    metrics: Arc<ServeMetrics>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl<S: Service> LoopCore<S> {
    fn run(&mut self) -> std::io::Result<()> {
        // The tick bounds how late an idle eviction can fire; a short
        // idle timeout (tests) shortens it proportionally.
        let tick = (self.config.idle_timeout / 4)
            .min(Duration::from_secs(5))
            .max(Duration::from_millis(10));
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            self.poller.wait(&mut events, Some(tick))?;
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.notify.waker.drain(),
                    token => self.conn_event(token, ev),
                }
            }
            for token in LoopNotify::take(&self.notify.dirty) {
                self.flush(token);
                self.maybe_close(token);
            }
            for token in LoopNotify::take(&self.notify.finished) {
                self.frame_finished(token);
            }
            if last_sweep.elapsed() >= tick {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
    }

    /// Accepts until the listener would block, applying the connection
    /// cap. Accept errors never kill the loop (EMFILE and friends are
    /// transient; the socket stays registered and retries next tick).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((mut stream, peer)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.metrics.conns_rejected.fetch_add(1, Ordering::Relaxed);
                        let mut line = Frame::Error {
                            message: format!(
                                "server at connection capacity ({}); retry later",
                                self.config.max_conns
                            ),
                        }
                        .encode();
                        line.push('\n');
                        // Best effort: one non-blocking write, then a
                        // graceful close (never a bare reset).
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.write(line.as_bytes());
                        slog::log(
                            Level::Warn,
                            self.service.name(),
                            "conn_reject",
                            &[
                                ("peer", peer.to_string()),
                                ("conns", self.conns.len().to_string()),
                            ],
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    use std::os::unix::io::AsRawFd as _;
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.metrics.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    let peer = peer.to_string();
                    slog::log(
                        Level::Debug,
                        self.service.name(),
                        "conn_accept",
                        &[
                            ("peer", peer.clone()),
                            ("conns", (self.conns.len() + 1).to_string()),
                        ],
                    );
                    let sender = ConnSender::attached(token, Arc::clone(&self.notify));
                    self.conns.insert(token, Conn::new(stream, peer, sender));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    slog::log(
                        Level::Warn,
                        self.service.name(),
                        "accept_error",
                        &[("error", e.to_string())],
                    );
                    break;
                }
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.readable {
            self.read_ready(token);
        }
        if ev.hangup {
            if let Some(conn) = self.conns.get_mut(&token) {
                // Full hangup (reset/both halves closed): nothing sent
                // from here on can arrive.
                conn.dead = true;
            }
        }
        if ev.writable {
            self.flush(token);
        }
        self.maybe_close(token);
    }

    /// Drains the socket into the read buffer and processes what
    /// arrived. A closing connection's input is read and discarded
    /// (consuming it avoids a level-triggered busy loop).
    fn read_ready(&mut self, token: u64) {
        let mut read_bytes = 0u64;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; 16384];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        read_bytes += n as u64;
                        conn.last_read = Instant::now();
                        if !conn.closing {
                            conn.rbuf.extend_from_slice(&chunk[..n]);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        if read_bytes > 0 {
            self.metrics
                .rx_bytes
                .fetch_add(read_bytes, Ordering::Relaxed);
        }
        self.process_rbuf(token);
        self.update_interest(token);
    }

    /// Decides the connection mode and consumes whatever is complete
    /// in the read buffer: protocol lines or an HTTP request.
    fn process_rbuf(&mut self, token: u64) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.mode == Mode::Fresh {
                if conn.rbuf.len() >= 4 {
                    conn.mode = if &conn.rbuf[..4] == b"GET " {
                        Mode::Http
                    } else {
                        Mode::Proto
                    };
                } else if conn.rbuf.contains(&b'\n') || conn.eof {
                    conn.mode = Mode::Proto;
                } else {
                    return;
                }
            }
        }
        match self.conns.get(&token).map(|c| c.mode) {
            Some(Mode::Http) => self.process_http(token),
            Some(Mode::Proto) => self.process_proto(token),
            _ => {}
        }
    }

    fn process_proto(&mut self, token: u64) {
        let mut lines: Vec<String> = Vec::new();
        let mut oversize = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                let mut raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                raw.pop();
                if raw.last() == Some(&b'\r') {
                    raw.pop();
                }
                lines.push(String::from_utf8_lossy(&raw).into_owned());
            }
            if conn.rbuf.len() > self.config.max_line_bytes {
                oversize = true;
            } else if conn.eof && !conn.rbuf.is_empty() {
                // A final unterminated line before EOF is still a line
                // (matching `BufRead::lines`).
                let raw = std::mem::take(&mut conn.rbuf);
                lines.push(String::from_utf8_lossy(&raw).into_owned());
            }
        }
        for line in lines {
            self.enqueue_line(token, line);
        }
        if oversize {
            self.send_now(
                token,
                &Frame::Error {
                    message: format!(
                        "line exceeds the {} byte limit; closing connection",
                        self.config.max_line_bytes
                    ),
                },
            );
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
                conn.rbuf.clear();
            }
        }
    }

    /// Answers one HTTP request (`GET /metrics` → the exposition,
    /// `GET /trace` → the recent-trace index, `GET
    /// /trace/<trace-id|job-id>` → Chrome trace-event JSON, `GET
    /// /trace/<key>.ndjson` → the NDJSON span journal, anything else →
    /// the service's [`Service::http`] hook — `bumpd`/`bumpr` serve
    /// `GET /telemetry/<job>` there — or 404) and closes.
    fn process_http(&mut self, token: u64) {
        let request = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let complete = find_subslice(&conn.rbuf, b"\r\n\r\n").is_some()
                || find_subslice(&conn.rbuf, b"\n\n").is_some();
            // 64 KiB is far beyond any scrape request; longer means a
            // confused client.
            if !complete && !conn.eof && conn.rbuf.len() <= 64 * 1024 {
                return;
            }
            let request = String::from_utf8_lossy(&conn.rbuf).into_owned();
            conn.rbuf.clear();
            conn.closing = true;
            request
        };
        let first_line = request.lines().next().unwrap_or("");
        let mut parts = first_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let response = if method == "GET" && path == "/metrics" {
            self.metrics.scrapes.fetch_add(1, Ordering::Relaxed);
            slog::log(
                Level::Debug,
                self.service.name(),
                "metrics_scrape",
                &[("peer", self.conns[&token].peer.clone())],
            );
            http_response("200 OK", &self.render_metrics())
        } else if method == "GET" && path.starts_with("/trace/") {
            trace_response(&path["/trace/".len()..])
        } else if method == "GET" && path == "/trace" {
            trace_index_response()
        } else if method == "GET" {
            match self.service.http(path) {
                Some((content_type, body)) => http_response_typed("200 OK", content_type, &body),
                None => http_response(
                    "404 Not Found",
                    "not found; try GET /metrics, /trace, /trace/<id>, \
                     or /telemetry/<job>\n",
                ),
            }
        } else {
            http_response(
                "404 Not Found",
                "not found; try GET /metrics, /trace, /trace/<id>, \
                 or /telemetry/<job>\n",
            )
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(&response);
        }
        self.flush(token);
    }

    /// Parses one protocol line and admits or rejects it: per-
    /// connection pending cap, then the global in-flight job cap, then
    /// dispatch (immediately if the connection is idle, else queued
    /// behind the frame being handled — frames of one connection are
    /// strictly ordered).
    fn enqueue_line(&mut self, token: u64, line: String) {
        if line.trim().is_empty() {
            return;
        }
        self.metrics.lines.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::parse(&line);
        if frame.is_err() {
            self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
        let is_job = matches!(frame, Ok(Frame::Submit(_)));
        let over_conn_cap = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            (conn.active || !conn.pending.is_empty())
                && conn.pending.len() >= self.config.per_conn_cap
        };
        if over_conn_cap {
            if is_job {
                self.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            }
            self.send_now(
                token,
                &Frame::Error {
                    message: format!(
                        "per-connection cap: {} frames already queued (cap {})",
                        self.conns.get(&token).map_or(0, |c| c.pending.len()),
                        self.config.per_conn_cap
                    ),
                },
            );
            return;
        }
        if is_job {
            let inflight = self.metrics.jobs_inflight.load(Ordering::Relaxed);
            if inflight >= self.config.inflight_cap as u64 {
                self.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                slog::log(
                    Level::Warn,
                    self.service.name(),
                    "job_reject",
                    &[
                        ("peer", self.conns[&token].peer.clone()),
                        ("inflight", inflight.to_string()),
                        ("cap", self.config.inflight_cap.to_string()),
                    ],
                );
                self.send_now(
                    token,
                    &Frame::Error {
                        message: format!(
                            "server at capacity: {inflight} jobs in flight (cap {}); retry later",
                            self.config.inflight_cap
                        ),
                    },
                );
                return;
            }
            self.metrics.jobs_inflight.fetch_add(1, Ordering::Relaxed);
            self.metrics.jobs_total.fetch_add(1, Ordering::Relaxed);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            // The connection vanished between checks; release the slot.
            if is_job {
                self.metrics.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        };
        if conn.active || !conn.pending.is_empty() {
            conn.pending.push_back(frame);
        } else {
            self.dispatch(token, frame);
        }
    }

    /// Hands one frame to the runner pool and marks the connection
    /// busy until it completes.
    fn dispatch(&mut self, token: u64, frame: Result<Frame, String>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.active = true;
        let work = Work {
            token,
            is_job: matches!(frame, Ok(Frame::Submit(_))),
            frame,
            sender: conn.sender.clone(),
        };
        self.runq.push(work);
    }

    /// A runner finished this connection's frame: dispatch the next
    /// queued one, or settle the connection.
    fn frame_finished(&mut self, token: u64) {
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.active = false;
            conn.pending.pop_front()
        };
        match next {
            Some(frame) => self.dispatch(token, frame),
            None => {
                self.flush(token);
                self.maybe_close(token);
            }
        }
    }

    /// Moves queued outbox lines into the write buffer and writes as
    /// much as the socket takes, arming write interest for the rest.
    fn flush(&mut self, token: u64) {
        let mut written = 0u64;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            for line in conn.sender.take_queued() {
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
            }
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        written += n as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            } else if conn.wpos > 64 * 1024 {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
        }
        if written > 0 {
            self.metrics.tx_bytes.fetch_add(written, Ordering::Relaxed);
        }
        self.update_interest(token);
    }

    /// Reconciles the poller registration with what the connection can
    /// still do: read while not EOF, write while bytes are parked. A
    /// connection that can do neither (EOF'd, drained, but with a job
    /// still running) is deregistered entirely — level-triggered EOF
    /// would otherwise spin the loop.
    fn update_interest(&mut self, token: u64) {
        use std::os::unix::io::AsRawFd as _;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want_read = !conn.eof && !conn.dead;
        let want_write = !conn.dead && conn.wpos < conn.wbuf.len();
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::BOTH),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.registered {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let result = match (conn.registered, desired) {
            (Some(_), Some(interest)) => self.poller.modify(fd, token, interest),
            (Some(_), None) => self.poller.delete(fd),
            (None, Some(interest)) => self.poller.add(fd, token, interest),
            (None, None) => Ok(()),
        };
        if result.is_ok() {
            conn.registered = desired;
        }
    }

    /// Queues a frame on the connection and flushes immediately.
    fn send_now(&mut self, token: u64, frame: &Frame) {
        if let Some(conn) = self.conns.get(&token) {
            conn.sender.send_line(frame.encode());
        }
        self.flush(token);
    }

    /// Closes the connection now if it's dead, or finished (EOF or
    /// closing) with all work drained.
    fn maybe_close(&mut self, token: u64) {
        let reason = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.dead {
                Some("io_error")
            } else if (conn.eof || conn.closing) && conn.is_quiescent() {
                Some(if conn.eof { "eof" } else { "done" })
            } else {
                None
            }
        };
        if let Some(reason) = reason {
            self.close_conn(token, reason);
        }
    }

    fn close_conn(&mut self, token: u64, reason: &str) {
        use std::os::unix::io::AsRawFd as _;
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.registered.is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        conn.sender.close();
        // Admitted-but-never-run submits release their in-flight slots
        // (the one a runner holds releases itself on completion).
        let abandoned = conn
            .pending
            .iter()
            .filter(|f| matches!(f, Ok(Frame::Submit(_))))
            .count() as u64;
        if abandoned > 0 {
            self.metrics
                .jobs_inflight
                .fetch_sub(abandoned, Ordering::Relaxed);
        }
        slog::log(
            Level::Debug,
            self.service.name(),
            "conn_close",
            &[
                ("peer", conn.peer),
                ("reason", reason.to_string()),
                ("conns", self.conns.len().to_string()),
            ],
        );
    }

    /// Evicts connections idle past the deadline: no traffic, no work,
    /// nothing queued — the slowloris fix. The eviction notice is a
    /// clean `error` frame; a graceful close delivers it.
    fn sweep_idle(&mut self) {
        let idle_timeout = self.config.idle_timeout;
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.closing
                    && !c.eof
                    && !c.dead
                    && c.is_quiescent()
                    && c.last_read.elapsed() >= idle_timeout
            })
            .map(|(&t, _)| t)
            .collect();
        for token in victims {
            self.metrics
                .conns_evicted_idle
                .fetch_add(1, Ordering::Relaxed);
            slog::log(
                Level::Info,
                self.service.name(),
                "conn_evict_idle",
                &[
                    ("peer", self.conns[&token].peer.clone()),
                    ("idle_secs", idle_timeout.as_secs().to_string()),
                ],
            );
            self.send_now(
                token,
                &Frame::Error {
                    message: format!(
                        "idle timeout: connection evicted after {}s without traffic",
                        idle_timeout.as_secs()
                    ),
                },
            );
            self.close_conn(token, "idle_timeout");
        }
    }

    /// The full exposition: loop-level `bump_*` families, then the
    /// service's own.
    fn render_metrics(&self) -> String {
        let mut buf = MetricsBuf::new();
        let m = &self.metrics;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        buf.gauge(
            "bump_conns_open",
            "Currently open client connections.",
            self.conns.len() as u64,
        );
        buf.counter(
            "bump_conns_accepted_total",
            "Connections admitted past the connection cap.",
            load(&m.conns_accepted),
        );
        buf.counter(
            "bump_conns_rejected_total",
            "Connections refused at the connection cap.",
            load(&m.conns_rejected),
        );
        buf.counter(
            "bump_conns_evicted_idle_total",
            "Connections evicted by the idle deadline.",
            load(&m.conns_evicted_idle),
        );
        buf.counter(
            "bump_rx_bytes_total",
            "Bytes read from clients.",
            load(&m.rx_bytes),
        );
        buf.counter(
            "bump_tx_bytes_total",
            "Bytes written to clients.",
            load(&m.tx_bytes),
        );
        buf.counter(
            "bump_lines_total",
            "Protocol lines received.",
            load(&m.lines),
        );
        buf.counter(
            "bump_protocol_errors_total",
            "Lines that failed to parse as frames.",
            load(&m.protocol_errors),
        );
        buf.gauge(
            "bump_jobs_inflight",
            "Jobs admitted and not yet finished (queued + executing).",
            load(&m.jobs_inflight),
        );
        buf.counter(
            "bump_jobs_total",
            "Jobs admitted since start.",
            load(&m.jobs_total),
        );
        buf.counter(
            "bump_jobs_rejected_total",
            "Submits refused by the in-flight or per-connection caps.",
            load(&m.jobs_rejected),
        );
        buf.counter(
            "bump_handler_panics_total",
            "Request-handler panics converted to error frames.",
            load(&m.handler_panics),
        );
        buf.gauge(
            "bump_runner_threads",
            "Frame-handler threads in the runner pool.",
            self.config.runners.max(1) as u64,
        );
        buf.gauge(
            "bump_runner_queue_depth",
            "Frames waiting for a free runner thread.",
            self.runq.depth() as u64,
        );
        buf.counter(
            "bump_metrics_scrapes_total",
            "GET /metrics requests answered (including this one).",
            load(&m.scrapes),
        );
        self.service.metrics(&mut buf);
        buf.finish()
    }
}

/// Answers `GET /trace/<key>`: `key` is a 32-hex trace id or a decimal
/// job id, optionally suffixed `.ndjson` for the span journal instead
/// of Chrome trace-event JSON. Unknown keys are 404 (the registry is
/// bounded, so old traces age out).
fn trace_response(key: &str) -> Vec<u8> {
    let (key, ndjson) = match key.strip_suffix(".ndjson") {
        Some(stripped) => (stripped, true),
        None => (key, false),
    };
    let registry = crate::trace::Registry::global();
    let spans = registry.resolve(key).and_then(|t| registry.spans(t));
    match spans {
        Some(spans) if ndjson => http_response("200 OK", &crate::trace::export_ndjson(&spans)),
        Some(spans) => http_response_typed(
            "200 OK",
            "application/json",
            &crate::trace::export_chrome(&spans),
        ),
        None => http_response(
            "404 Not Found",
            "unknown trace; keys age out after 64 traces\n",
        ),
    }
}

/// Answers `GET /trace` (no key): a JSON index of the traces the
/// bounded registry currently holds, newest first, each with its span
/// count and the job ids bound to it — the starting point for an
/// operator who wants a trace id to feed `GET /trace/<id>`.
fn trace_index_response() -> Vec<u8> {
    use crate::json::Json;
    let traces = crate::trace::Registry::global()
        .index()
        .into_iter()
        .map(|summary| {
            Json::obj(vec![
                ("trace", Json::from(summary.trace.to_hex())),
                ("spans", Json::from(summary.spans as u64)),
                (
                    "jobs",
                    Json::Arr(summary.jobs.into_iter().map(Json::from).collect()),
                ),
            ])
        })
        .collect();
    let body = format!("{}\n", Json::obj(vec![("traces", Json::Arr(traces))]));
    http_response_typed("200 OK", "application/json", &body)
}

/// A minimal HTTP/1.0 response; `Connection: close` because the
/// serving loop answers exactly one request per connection.
fn http_response(status: &str, body: &str) -> Vec<u8> {
    http_response_typed(status, "text/plain; version=0.0.4; charset=utf-8", body)
}

/// [`http_response`] with an explicit `Content-Type` (JSON endpoints).
fn http_response_typed(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead as _, BufReader};
    use std::net::TcpStream;

    /// A trivial service: pongs pings, errors everything else, and
    /// exposes one marker family.
    struct EchoService;

    impl Service for EchoService {
        fn name(&self) -> &'static str {
            "echo"
        }

        fn handle(self: Arc<Self>, frame: Result<Frame, String>, outbox: &ConnSender) {
            match frame {
                Ok(Frame::Ping) => outbox.send_line(
                    Frame::Pong {
                        workers: 1,
                        results: 0,
                    }
                    .encode(),
                ),
                Ok(_) => outbox.send_line(
                    Frame::Error {
                        message: "echo service only pongs".to_string(),
                    }
                    .encode(),
                ),
                Err(message) => outbox.send_line(Frame::Error { message }.encode()),
            }
        }

        fn metrics(&self, buf: &mut MetricsBuf) {
            buf.gauge("echo_marker", "Marker family from the service.", 42);
        }
    }

    fn start(config: ServeConfig) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let _ = serve(Arc::new(EchoService), listener, config);
        });
        addr
    }

    #[test]
    fn pings_pong_and_parse_errors_keep_the_connection_open() {
        let addr = start(ServeConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"not json\n").expect("write");
        stream.write_all(b"{\"type\":\"ping\"}\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("error line");
        assert!(line.contains("\"error\""), "{line}");
        line.clear();
        reader.read_line(&mut line).expect("pong line");
        assert!(line.contains("\"pong\""), "{line}");
    }

    #[test]
    fn metrics_endpoint_answers_http_on_the_protocol_port() {
        let addr = start(ServeConfig::default());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("response");
        assert!(body.starts_with("HTTP/1.0 200 OK\r\n"), "{body}");
        assert!(body.contains("# TYPE bump_conns_open gauge"), "{body}");
        assert!(body.contains("bump_metrics_scrapes_total 1"), "{body}");
        assert!(body.contains("echo_marker 42"), "{body}");
        // Other paths 404 and the connection still closes cleanly.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("response");
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");
    }

    #[test]
    fn idle_connections_are_evicted_with_an_error_frame() {
        let addr = start(ServeConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // The silent connection gets the eviction notice, then EOF.
        reader.read_line(&mut line).expect("eviction frame");
        assert!(line.contains("idle timeout"), "{line}");
        line.clear();
        let n = reader.read_line(&mut line).expect("eof");
        assert_eq!(n, 0, "connection closed after eviction");
    }

    #[test]
    fn lock_recover_survives_poisoning() {
        let mutex = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(mutex.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock_recover(&mutex), 7);
        *lock_recover(&mutex) += 1;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn detached_sender_queues_for_inspection() {
        let sender = ConnSender::detached();
        sender.send_line("a".to_string());
        sender.send_line("b".to_string());
        assert_eq!(sender.take_queued(), vec!["a".to_string(), "b".to_string()]);
        assert!(sender.is_empty());
        sender.close();
        sender.send_line("dropped".to_string());
        assert!(sender.take_queued().is_empty());
    }
}
