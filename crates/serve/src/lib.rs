//! The serving subsystem: `bumpd` / `bumpc` and their wire protocol.
//!
//! The reproduction's figure binaries are one-shot processes; this
//! crate turns the simulator into a *shared backend*. A long-lived
//! [`daemon::Daemon`] accepts experiment specs as newline-delimited
//! JSON over TCP ([`proto`]), executes their cells on the same
//! work-stealing scheduler `run_grid` wraps
//! (`bump_bench::sched`), streams each cell's metric row back the
//! moment it finishes, and journals every finished cell on disk
//! ([`journal`]) so re-submitting an identical spec resumes instead of
//! re-simulating.
//!
//! The offline build rule (no crates.io — see `shims/README.md`) means
//! everything here is dependency-free `std`: the JSON value, parser,
//! and serializer are the simulator crate's one codec, re-exported as
//! [`json`], and the transport is `std::net` TCP.
//!
//! Layout:
//!
//! * [`json`] — JSON value + strict parser + deterministic serializer
//!   (`bump_sim::json`, re-exported).
//! * [`proto`] — the frame types and their encode/parse.
//! * [`journal`] — the append-only on-disk resume journal.
//! * [`eventloop`] — the shared readiness-polling serving core
//!   (connection multiplexing, admission control, `GET /metrics`).
//! * [`daemon`] — `bumpd` job execution on the event loop.
//! * [`client`] — the `bumpc` submit-and-stream helper.
//! * [`cluster`] — the `bumpr` sharding router + LRU result cache in
//!   front of a fleet of daemons (`docs/CLUSTER.md`).
//! * [`metrics`] — Prometheus-style text exposition formatter.
//! * [`slog`] — structured `key=value` log lines on stderr (carrying
//!   `trace=`/`span=` correlation fields inside active spans).
//! * [`trace`] — distributed trace spans, the bounded in-process span
//!   registry behind `GET /trace` / `GET /trace/<id>`, and the
//!   NDJSON/Chrome-trace exporters (`docs/OBSERVABILITY.md`).
//! * [`telemetry`] — the bounded per-job store of sim-time telemetry
//!   series behind `GET /telemetry/<job>`.
//!
//! Binaries: `bumpd` (daemon), `bumpc` (client / `--local` runner),
//! and `bumpr` (cluster router); the wire format reference lives in
//! `docs/PROTOCOL.md`.

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod daemon;
pub mod eventloop;
pub mod journal;
pub use bump_sim::json;
pub mod metrics;
pub mod proto;
pub mod slog;
pub mod telemetry;
pub mod trace;
