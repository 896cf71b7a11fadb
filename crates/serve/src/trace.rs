//! End-to-end distributed tracing for the serving tier.
//!
//! A trace follows one job across every process it touches: `bumpc`
//! opens the root span and sends the context on its `submit` frame
//! (the optional `"trace"` field — see `docs/PROTOCOL.md`), `bumpr`
//! parents its cache-lookup/dispatch/merge spans under it and forwards
//! the context on every backend dispatch, and each `bumpd` records
//! admission, per-cell queue-wait/execution, and journal-append spans.
//! Finished spans ride back to the submitter on a `trace_spans` frame
//! just before `job_done`, so the client ends up holding the complete
//! picture under one trace id.
//!
//! Every process also keeps its spans in a bounded in-process
//! [`Registry`] served by `GET /trace/<trace-id|job-id>` next to
//! `/metrics` (the router's registry includes the backend spans it
//! collected, which is what the CI trace smoke scrapes). Two export
//! formats:
//!
//! - **NDJSON span journal** (`GET /trace/<id>.ndjson`): one span
//!   object per line, greppable and streamable.
//! - **Chrome trace-event JSON** (`GET /trace/<id>`): load the file in
//!   [Perfetto](https://ui.perfetto.dev) (or `chrome://tracing`) for a
//!   flame view; each service renders as its own process track.
//!
//! Everything here is hand-rolled under the offline rule — ids come
//! from a splitmix64 generator seeded from the clock and pid, and
//! timestamps are UNIX-epoch microseconds so spans from different
//! processes on one machine line up without clock negotiation.

use crate::json::{field_str, field_u64, reject_unknown_keys, Json};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A 128-bit trace identifier shared by every span of one job,
/// rendered as 32 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// A 64-bit span identifier, unique across processes with overwhelming
/// probability, rendered as 16 lowercase hex digits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// A fresh, effectively unique trace id.
    pub fn generate() -> TraceId {
        TraceId(((next_raw() as u128) << 64) | next_raw() as u128)
    }

    /// The 32-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-digit wire form.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl SpanId {
    /// A fresh, effectively unique span id.
    pub fn generate() -> SpanId {
        SpanId(next_raw())
    }

    /// The 16-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-hex-digit wire form.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

/// splitmix64 over a process-global counter seeded from the clock and
/// pid: cheap, lock-free, and distinct across the processes of one
/// cluster with overwhelming probability (the ids only need to be
/// unique within the traces a registry ever holds at once).
fn next_raw() -> u64 {
    static STATE: OnceLock<AtomicU64> = OnceLock::new();
    let state = STATE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        AtomicU64::new(nanos ^ (u64::from(std::process::id()) << 32))
    });
    let mut z = state
        .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The wire-propagated context: which trace a submission belongs to
/// and which remote span should parent the receiver's spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The job's trace id.
    pub trace: TraceId,
    /// The sender-side span the receiver's root span hangs under.
    pub parent: SpanId,
}

impl TraceContext {
    /// The wire form: `<32 hex trace>:<16 hex parent span>`.
    pub fn encode(&self) -> String {
        format!("{}:{}", self.trace.to_hex(), self.parent.to_hex())
    }

    /// Parses the wire form.
    pub fn decode(s: &str) -> Result<TraceContext, String> {
        let (trace, parent) = s
            .split_once(':')
            .ok_or("trace context must be <trace-hex>:<span-hex>")?;
        Ok(TraceContext {
            trace: TraceId::from_hex(trace).ok_or("trace id must be 32 hex digits")?,
            parent: SpanId::from_hex(parent).ok_or("parent span id must be 16 hex digits")?,
        })
    }
}

/// One finished span: a named interval in one service, belonging to a
/// trace, optionally parented under another span of the same trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span (absent for the trace root).
    pub parent: Option<SpanId>,
    /// Operation name (`"cell_execute"`, `"cache_lookup"`, …; the
    /// catalogue lives in `docs/OBSERVABILITY.md`).
    pub name: String,
    /// Emitting service (`"bumpc"`, `"bumpr"`, `"bumpd"`).
    pub service: String,
    /// Start, UNIX-epoch microseconds.
    pub start_us: u64,
    /// End, UNIX-epoch microseconds (>= `start_us`).
    pub end_us: u64,
    /// Free-form key/value annotations (cell labels, hit counts,
    /// per-phase engine nanoseconds, …).
    pub attrs: Vec<(String, String)>,
}

/// Current UNIX time in microseconds (the span clock).
pub fn now_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// An in-progress span; call [`ActiveSpan::finish`] to stamp the end
/// time and get the [`Span`].
#[derive(Debug)]
pub struct ActiveSpan {
    span: Span,
}

impl ActiveSpan {
    /// Opens a span now.
    pub fn begin(trace: TraceId, parent: Option<SpanId>, name: &str, service: &str) -> ActiveSpan {
        ActiveSpan {
            span: Span {
                trace,
                id: SpanId::generate(),
                parent,
                name: name.to_string(),
                service: service.to_string(),
                start_us: now_us(),
                end_us: 0,
                attrs: Vec::new(),
            },
        }
    }

    /// This span's id (for parenting children before it finishes).
    pub fn id(&self) -> SpanId {
        self.span.id
    }

    /// Adds an annotation.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        self.span.attrs.push((key.to_string(), value.to_string()));
    }

    /// Stamps the end time and returns the finished span.
    pub fn finish(mut self) -> Span {
        self.span.end_us = now_us().max(self.span.start_us);
        self.span
    }
}

impl Span {
    /// The span as a JSON object (the NDJSON line and the
    /// `trace_spans` wire element).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("trace", Json::from(self.trace.to_hex())),
            ("id", Json::from(self.id.to_hex())),
        ];
        if let Some(parent) = self.parent {
            fields.push(("parent", Json::from(parent.to_hex())));
        }
        fields.push(("name", Json::from(self.name.as_str())));
        fields.push(("service", Json::from(self.service.as_str())));
        fields.push(("start_us", Json::from(self.start_us)));
        fields.push(("end_us", Json::from(self.end_us)));
        if !self.attrs.is_empty() {
            fields.push((
                "attrs",
                Json::obj(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::from(v.as_str())))
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Parses the JSON object form. Strict like the rest of the
    /// protocol: unknown keys are an error.
    pub fn from_json(value: &Json) -> Result<Span, String> {
        if !matches!(value, Json::Obj(_)) {
            return Err("span must be an object".to_string());
        }
        reject_unknown_keys(
            value,
            &[
                "trace", "id", "parent", "name", "service", "start_us", "end_us", "attrs",
            ],
        )?;
        let trace = TraceId::from_hex(&field_str(value, "trace")?)
            .ok_or("span trace id must be 32 hex digits")?;
        let id =
            SpanId::from_hex(&field_str(value, "id")?).ok_or("span id must be 16 hex digits")?;
        let parent = match value.get("parent") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .and_then(SpanId::from_hex)
                    .ok_or("span parent must be 16 hex digits")?,
            ),
        };
        let attrs = match value.get("attrs") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or("span attr values must be strings".to_string())
                })
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("span attrs must be an object".to_string()),
        };
        Ok(Span {
            trace,
            id,
            parent,
            name: field_str(value, "name")?,
            service: field_str(value, "service")?,
            start_us: field_u64(value, "start_us")?,
            end_us: field_u64(value, "end_us")?,
            attrs,
        })
    }
}

/// Most spans one trace retains; later spans are dropped (bounded
/// buffers — a runaway batch must not eat the heap).
pub const MAX_SPANS_PER_TRACE: usize = 8192;

/// Most traces a registry retains; the oldest trace is evicted first.
pub const MAX_TRACES: usize = 64;

/// The bounded in-process span store behind `GET /trace/<id>`.
///
/// Keyed by trace id, with a secondary job-id index so the endpoint
/// also resolves the job numbers the protocol frames narrate. Eviction
/// is oldest-trace-first once [`MAX_TRACES`] is exceeded; within one
/// trace, spans past [`MAX_SPANS_PER_TRACE`] are counted but dropped.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    traces: HashMap<u128, TraceBuf>,
    /// Trace insertion order, oldest first (eviction order).
    order: Vec<u128>,
    /// Local job id → trace id.
    jobs: HashMap<u64, u128>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl Registry {
    /// The process-wide registry (what the HTTP endpoint serves).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Records finished spans, creating (and possibly evicting) trace
    /// buffers as needed.
    pub fn record(&self, spans: impl IntoIterator<Item = Span>) {
        let mut inner = crate::eventloop::lock_recover(&self.inner);
        for span in spans {
            let key = span.trace.0;
            if !inner.traces.contains_key(&key) {
                while inner.order.len() >= MAX_TRACES {
                    let evicted = inner.order.remove(0);
                    inner.traces.remove(&evicted);
                    inner.jobs.retain(|_, t| *t != evicted);
                }
                inner.order.push(key);
                inner.traces.insert(key, TraceBuf::default());
            }
            let buf = inner.traces.get_mut(&key).expect("trace buffer present");
            if buf.spans.len() >= MAX_SPANS_PER_TRACE {
                buf.dropped += 1;
            } else {
                buf.spans.push(span);
            }
        }
    }

    /// Associates a local job id with a trace so `GET /trace/<job>`
    /// resolves it.
    pub fn bind_job(&self, job: u64, trace: TraceId) {
        let mut inner = crate::eventloop::lock_recover(&self.inner);
        inner.jobs.insert(job, trace.0);
    }

    /// The spans of `trace`, in recording order.
    pub fn spans(&self, trace: TraceId) -> Option<Vec<Span>> {
        let inner = crate::eventloop::lock_recover(&self.inner);
        inner.traces.get(&trace.0).map(|b| b.spans.clone())
    }

    /// Resolves a `GET /trace/<key>` path segment: a 32-hex trace id,
    /// or a decimal local job id previously bound with
    /// [`Registry::bind_job`].
    pub fn resolve(&self, key: &str) -> Option<TraceId> {
        if let Some(trace) = TraceId::from_hex(key) {
            return Some(trace);
        }
        let job: u64 = key.parse().ok()?;
        let inner = crate::eventloop::lock_recover(&self.inner);
        inner.jobs.get(&job).copied().map(TraceId)
    }

    /// A summary of every retained trace, newest first — what `GET
    /// /trace` (no key) serves, so an operator can discover ids
    /// without grepping logs. Each entry carries the span count (the
    /// buffer cap makes this at most [`MAX_SPANS_PER_TRACE`]) and the
    /// local job ids bound to the trace, sorted ascending.
    pub fn index(&self) -> Vec<TraceSummary> {
        let inner = crate::eventloop::lock_recover(&self.inner);
        inner
            .order
            .iter()
            .rev()
            .map(|&key| {
                let buf = &inner.traces[&key];
                let mut jobs: Vec<u64> = inner
                    .jobs
                    .iter()
                    .filter(|&(_, &trace)| trace == key)
                    .map(|(&job, _)| job)
                    .collect();
                jobs.sort_unstable();
                TraceSummary {
                    trace: TraceId(key),
                    spans: buf.spans.len(),
                    jobs,
                }
            })
            .collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        crate::eventloop::lock_recover(&self.inner).traces.len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One row of [`Registry::index`]: a retained trace, its span count,
/// and the local job ids bound to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace: TraceId,
    /// Spans currently buffered for it.
    pub spans: usize,
    /// Job ids bound via [`Registry::bind_job`], ascending.
    pub jobs: Vec<u64>,
}

thread_local! {
    /// The (trace, span) pair log lines on this thread should carry.
    static CORRELATION: std::cell::Cell<Option<(u128, u64)>> =
        const { std::cell::Cell::new(None) };
}

/// Marks the current thread as working inside `span` of `trace` until
/// the returned guard drops: every `slog` line emitted meanwhile gains
/// `trace=<hex> span=<hex>` fields, so an operator can pivot from a
/// log line (say, `backend_failed`) straight to `GET /trace/<id>`.
/// Guards nest; dropping restores the previous correlation.
#[must_use = "correlation lasts only while the guard lives"]
pub fn correlate(trace: TraceId, span: SpanId) -> CorrelationGuard {
    let prev = CORRELATION.with(|c| c.replace(Some((trace.0, span.0))));
    CorrelationGuard { prev }
}

/// The active correlation on this thread, if any (what `slog` stamps
/// onto its lines).
pub fn current_correlation() -> Option<(TraceId, SpanId)> {
    CORRELATION
        .with(std::cell::Cell::get)
        .map(|(trace, span)| (TraceId(trace), SpanId(span)))
}

/// RAII guard for [`correlate`]; restores the previous correlation on
/// drop.
#[derive(Debug)]
pub struct CorrelationGuard {
    prev: Option<(u128, u64)>,
}

impl Drop for CorrelationGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        CORRELATION.with(|c| c.set(prev));
    }
}

/// Renders spans as an NDJSON span journal: one JSON object per line.
pub fn export_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str(&span.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Renders spans as Chrome trace-event JSON (the `traceEvents` array
/// form), loadable in Perfetto. Each distinct service becomes a
/// process track (metadata `process_name` events); spans are complete
/// (`"ph":"X"`) events with timestamps normalized to the earliest span
/// so the viewer opens at t=0. Span/parent ids and attrs ride in
/// `args`.
pub fn export_chrome(spans: &[Span]) -> String {
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let mut services: Vec<&str> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    for span in spans {
        let pid = match services.iter().position(|s| *s == span.service) {
            Some(i) => i,
            None => {
                services.push(&span.service);
                events.push(Json::obj(vec![
                    ("name", Json::from("process_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(services.len() - 1)),
                    ("tid", Json::from(0u64)),
                    (
                        "args",
                        Json::obj(vec![("name", Json::from(span.service.as_str()))]),
                    ),
                ]));
                services.len() - 1
            }
        };
        // Give each cell its own thread track so parallel cells render
        // side by side instead of as one corrupt nesting.
        let tid = span
            .attrs
            .iter()
            .find(|(k, _)| k == "cell")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .map(|cell| cell + 1)
            .unwrap_or(0);
        let mut args = vec![
            ("trace", Json::from(span.trace.to_hex())),
            ("span", Json::from(span.id.to_hex())),
        ];
        if let Some(parent) = span.parent {
            args.push(("parent", Json::from(parent.to_hex())));
        }
        for (k, v) in &span.attrs {
            args.push((k.as_str(), Json::from(v.as_str())));
        }
        events.push(Json::obj(vec![
            ("name", Json::from(span.name.as_str())),
            ("cat", Json::from(span.service.as_str())),
            ("ph", Json::from("X")),
            ("ts", Json::from(span.start_us - t0)),
            ("dur", Json::from(span.end_us.saturating_sub(span.start_us))),
            ("pid", Json::from(pid)),
            ("tid", Json::from(tid)),
            ("args", Json::obj(args)),
        ]));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, name: &str, service: &str) -> Span {
        let mut s = ActiveSpan::begin(trace, None, name, service);
        s.attr("cell", 3u64);
        s.finish()
    }

    #[test]
    fn ids_round_trip_hex_and_are_distinct() {
        let t = TraceId::generate();
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        assert_eq!(t.to_hex().len(), 32);
        let s = SpanId::generate();
        assert_eq!(SpanId::from_hex(&s.to_hex()), Some(s));
        assert_eq!(s.to_hex().len(), 16);
        assert_ne!(TraceId::generate(), TraceId::generate());
        assert_ne!(SpanId::generate().0, SpanId::generate().0);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(SpanId::from_hex("0123"), None);
    }

    #[test]
    fn context_round_trips_and_rejects_malformed() {
        let ctx = TraceContext {
            trace: TraceId::generate(),
            parent: SpanId::generate(),
        };
        assert_eq!(TraceContext::decode(&ctx.encode()), Ok(ctx));
        assert!(TraceContext::decode("nope").is_err());
        assert!(TraceContext::decode("1234:abcd").is_err());
        assert!(TraceContext::decode(&format!("{}:{}", "f".repeat(32), "g".repeat(16))).is_err());
    }

    #[test]
    fn spans_round_trip_json_strictly() {
        let trace = TraceId::generate();
        let parent = SpanId::generate();
        let mut active = ActiveSpan::begin(trace, Some(parent), "cell_execute", "bumpd");
        active.attr("label", "BuMP/Web Search");
        active.attr("cell", 7u64);
        let span = active.finish();
        assert!(span.end_us >= span.start_us);
        let json = span.to_json();
        assert_eq!(Span::from_json(&json), Ok(span.clone()));
        // A span with no parent/attrs omits those keys.
        let bare = ActiveSpan::begin(trace, None, "job", "bumpc").finish();
        let line = bare.to_json().to_string();
        assert!(
            !line.contains("parent") && !line.contains("attrs"),
            "{line}"
        );
        assert_eq!(Span::from_json(&Json::parse(&line).unwrap()), Ok(bare));
        // Unknown keys are rejected (same strictness as the frames).
        let bad = Json::parse(&line.replacen('{', "{\"extra\":1,", 1)).unwrap();
        assert!(Span::from_json(&bad).unwrap_err().contains("extra"));
    }

    #[test]
    fn registry_records_resolves_and_evicts() {
        let reg = Registry::default();
        let first = TraceId::generate();
        reg.record([span(first, "job", "bumpd")]);
        reg.bind_job(17, first);
        assert_eq!(reg.resolve(&first.to_hex()), Some(first));
        assert_eq!(reg.resolve("17"), Some(first));
        assert_eq!(reg.resolve("99"), None);
        assert_eq!(reg.spans(first).map(|s| s.len()), Some(1));
        // Eviction: oldest trace (and its job binding) goes first.
        for _ in 0..MAX_TRACES {
            reg.record([span(TraceId::generate(), "job", "bumpd")]);
        }
        assert_eq!(reg.len(), MAX_TRACES);
        assert_eq!(reg.spans(first), None);
        assert_eq!(reg.resolve("17"), None);
    }

    #[test]
    fn index_lists_traces_newest_first_with_job_bindings() {
        let reg = Registry::default();
        let old = TraceId::generate();
        let new = TraceId::generate();
        reg.record([span(old, "job", "bumpd"), span(old, "cell", "bumpd")]);
        reg.record([span(new, "job", "bumpr")]);
        reg.bind_job(9, old);
        reg.bind_job(4, old);
        let index = reg.index();
        assert_eq!(
            index,
            vec![
                TraceSummary {
                    trace: new,
                    spans: 1,
                    jobs: vec![],
                },
                TraceSummary {
                    trace: old,
                    spans: 2,
                    jobs: vec![4, 9],
                },
            ]
        );
    }

    #[test]
    fn correlation_guard_nests_and_restores() {
        assert_eq!(current_correlation(), None);
        let (t1, s1) = (TraceId::generate(), SpanId::generate());
        let (t2, s2) = (TraceId::generate(), SpanId::generate());
        {
            let _outer = correlate(t1, s1);
            assert_eq!(current_correlation(), Some((t1, s1)));
            {
                let _inner = correlate(t2, s2);
                assert_eq!(current_correlation(), Some((t2, s2)));
            }
            assert_eq!(current_correlation(), Some((t1, s1)));
            // Other threads are unaffected: correlation is per-thread.
            std::thread::spawn(|| assert_eq!(current_correlation(), None))
                .join()
                .unwrap();
        }
        assert_eq!(current_correlation(), None);
    }

    #[test]
    fn per_trace_span_buffer_is_bounded() {
        let reg = Registry::default();
        let trace = TraceId::generate();
        reg.record((0..MAX_SPANS_PER_TRACE + 10).map(|_| span(trace, "s", "bumpd")));
        assert_eq!(reg.spans(trace).map(|s| s.len()), Some(MAX_SPANS_PER_TRACE));
    }

    #[test]
    fn chrome_export_is_parseable_and_grouped_by_service() {
        let trace = TraceId::generate();
        let spans = vec![
            span(trace, "job", "bumpc"),
            span(trace, "route", "bumpr"),
            span(trace, "cell_execute", "bumpd"),
        ];
        let chrome = export_chrome(&spans);
        let parsed = Json::parse(&chrome).expect("chrome export parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 3 spans + 3 process_name metadata events.
        assert_eq!(events.len(), 6);
        let x_events: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(x_events.len(), 3);
        // Timestamps normalized: the earliest span starts at 0.
        let min_ts = x_events
            .iter()
            .filter_map(|e| e.get("ts").and_then(Json::as_u64))
            .min();
        assert_eq!(min_ts, Some(0));
        // The NDJSON journal round-trips back to the same spans.
        let ndjson = export_ndjson(&spans);
        let back: Vec<Span> = ndjson
            .lines()
            .map(|l| Span::from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(back, spans);
    }
}
