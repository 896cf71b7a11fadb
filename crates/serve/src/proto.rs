//! The `bumpd` wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every frame is one JSON object on one line, tagged by a `"type"`
//! field. The client speaks [`Frame::Submit`]; the daemon answers with
//! [`Frame::JobAccepted`], streams one [`Frame::CellResult`] per cell
//! *as it finishes simulating* (journaled cells arrive first, out of
//! grid order in general — the `index` field recovers grid order), and
//! closes the job with [`Frame::JobDone`]. Anything the daemon cannot
//! act on produces a [`Frame::Error`] and the connection stays open
//! for the next line. See `docs/PROTOCOL.md` for the field-by-field
//! reference.
//!
//! Encoding is deterministic (fixed field order, compact JSON), which
//! the resume journal and the CI byte-identity smoke lean on. Parsing
//! is strict: unknown `"type"`s, missing fields, out-of-range numbers,
//! and malformed JSON are all [`Err`] — covered by the proptest
//! round-trip suite in `tests/proto_roundtrip.rs`.

use crate::json::{field_bool, field_str, field_u64, reject_unknown_keys, Json};
use crate::trace::{Span, TraceContext};
use bump_bench::experiment::{ExperimentGrid, MetricRow};
use bump_sim::{
    series_from_json, series_to_json, Engine, Preset, RunOptions, Scenario, TelemetrySeries,
};
use bump_workloads::Workload;

/// An experiment submission: the cartesian grid `presets × workloads`
/// at `options` under `scenario`, optionally replicated across derived
/// seeds, with journal-resume semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitSpec {
    /// Design points to run (non-empty).
    pub presets: Vec<Preset>,
    /// Workloads to run (non-empty).
    pub workloads: Vec<Workload>,
    /// Warmup/measure windows, seed, core count, and engine.
    pub options: RunOptions,
    /// The evaluation scenario every cell runs under (memory spec, LLC
    /// capacity, workload mix). On the wire this is the optional
    /// `"scenario"` field, by canonical name; absent means the default
    /// (paper) scenario, so pre-scenario clients and journals are
    /// unaffected.
    pub scenario: Scenario,
    /// Seed replicas per cell (>= 1; see
    /// `ExperimentGrid::replicate_seeds`).
    pub seeds: usize,
    /// When true, cells whose identity is already journaled are
    /// streamed back from the journal instead of re-simulated.
    pub resume: bool,
}

impl SubmitSpec {
    /// The submission for `presets × workloads` at `options`, default
    /// scenario, single seed, no resume.
    pub fn new(presets: Vec<Preset>, workloads: Vec<Workload>, options: RunOptions) -> Self {
        SubmitSpec {
            presets,
            workloads,
            options,
            scenario: Scenario::default(),
            seeds: 1,
            resume: false,
        }
    }

    /// Expands the submission into its experiment grid (grid order:
    /// presets outer, workloads inner, seed replicas consecutive).
    pub fn to_grid(&self) -> ExperimentGrid {
        ExperimentGrid::cartesian_scenario(
            &self.presets,
            &self.workloads,
            self.options,
            &self.scenario,
        )
        .replicate_seeds(self.seeds)
    }
}

/// Most submissions a single batched `submit` frame may carry (the
/// parser rejects larger batches; the router chunks its dispatches to
/// stay under it).
pub const MAX_BATCH_JOBS: usize = 1024;

/// One or more submissions carried by a single `submit` frame and
/// executed as **one job**: the expanded grids are concatenated in
/// order, `cell_result.index` spans the concatenation, and one
/// `job_accepted`/`job_done` pair brackets the whole batch. A batch of
/// one encodes in the original flat form, so pre-batch peers
/// interoperate unchanged; the `bumpr` router uses larger batches to
/// hand a backend all of its work units in one frame (keeping every
/// backend worker busy without one connection per unit).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitBatch {
    /// The submissions, in grid-concatenation order (non-empty).
    pub jobs: Vec<SubmitSpec>,
    /// Distributed-tracing context (the optional `"trace"` wire field:
    /// `<trace-hex>:<parent-span-hex>`). Absent for untraced
    /// submissions — and absent means *absent on the wire*, so the
    /// encoding of an untraced submission is byte-identical to the
    /// pre-trace protocol. When present, the receiver parents its spans
    /// under the given span and returns them on a `trace_spans` frame
    /// before `job_done`.
    pub trace: Option<TraceContext>,
    /// Sim-time telemetry request (the optional `"telemetry"` wire
    /// field: the sampling stride in cycles, >= 1). Absent for plain
    /// submissions — and absent means *absent on the wire*, so an
    /// untelemetered submission encodes byte-identically to the
    /// pre-telemetry protocol, exactly like `trace`. When present, the
    /// executing daemon runs every non-cached cell with the sampler on
    /// and streams one `cell_telemetry` frame per cell, each right
    /// before that cell's `cell_result`.
    pub telemetry: Option<u64>,
}

impl From<SubmitSpec> for SubmitBatch {
    fn from(spec: SubmitSpec) -> Self {
        SubmitBatch {
            jobs: vec![spec],
            trace: None,
            telemetry: None,
        }
    }
}

impl SubmitBatch {
    /// Expands the batch into one concatenated grid plus each cell's
    /// resume flag (cells inherit it from their own job). Jobs must be
    /// disjoint: a cell label appearing in two jobs is an error —
    /// index positions would otherwise be ambiguous between the peers.
    pub fn expand(&self) -> Result<(ExperimentGrid, Vec<bool>), String> {
        let mut grid = ExperimentGrid::new();
        let mut resume = Vec::new();
        for job in &self.jobs {
            for cell in job.to_grid().cells() {
                match grid.try_push(cell.clone()) {
                    Ok(true) => resume.push(job.resume),
                    Ok(false) => {
                        return Err(format!("batch jobs overlap on cell {:?}", cell.label))
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((grid, resume))
    }

    /// Total cells across the batch's expanded grids.
    pub fn cell_count(&self) -> usize {
        self.jobs.iter().map(|j| j.to_grid().len()).sum()
    }
}

/// One streamed cell result.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Daemon-assigned job id (matches the `JobAccepted` frame).
    pub job: u64,
    /// Cell index in the submission's grid order; cells stream in
    /// completion order, so clients sort by this to recover grid order.
    pub index: u64,
    /// Cell label (`"<preset>/<workload>"`, plus `#s<k>` for replicas).
    pub label: String,
    /// True when the row was served from the resume journal.
    pub cached: bool,
    /// The cell's metric row, exactly as `run_grid` renders it to CSV
    /// (`MetricRow::to_csv`; columns per `MetricRow::CSV_HEADER`). The
    /// frame's `row` object is rendered from it ([`row_of`]).
    pub csv: String,
}

/// The `row` object a `cell_result` frame or journal line carries
/// beside its `csv`: the same metric row as structured JSON
/// (`MetricRow::to_json`), rendered from the CSV rather than stored, so
/// the two cannot disagree. `null` if `csv` is not a metric row.
pub fn row_of(csv: &str) -> Json {
    MetricRow::csv_to_json(csv).unwrap_or(Json::Null)
}

/// Checks a received `row` against the one its `csv` renders. Compares
/// encodings, not values: a non-finite float renders as NaN but
/// arrives as `null`.
pub fn check_row(csv: &str, row: &Json) -> Result<(), String> {
    match MetricRow::csv_to_json(csv) {
        Some(want) if want.to_string() == row.to_string() => Ok(()),
        Some(_) => Err("field \"row\" disagrees with field \"csv\"".to_string()),
        None => Err("field \"csv\" is not a metric row".to_string()),
    }
}

/// A protocol frame (one line on the wire).
// `Submit` dwarfs the other variants (the scenario embeds a full
// `MemSpec`), but frames are built once per submission/cell, never
// stored in bulk — boxing would only complicate every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → daemon/router: run one or more experiment grids as one
    /// job (see [`SubmitBatch`]; a batch of one is the classic flat
    /// `submit`).
    Submit(SubmitBatch),
    /// Daemon → client: the submission was accepted.
    JobAccepted {
        /// Daemon-assigned job id.
        job: u64,
        /// Total cells in the expanded grid.
        cells: u64,
        /// How many of them will be served from the journal.
        cached: u64,
    },
    /// Daemon → client: one cell finished (or was journaled).
    CellResult(CellResult),
    /// Daemon → client: every cell of the job has been streamed.
    JobDone {
        /// Job id.
        job: u64,
        /// Total cells streamed (equals `JobAccepted.cells`).
        cells: u64,
    },
    /// Daemon/router → client: the finished spans this process (and,
    /// from a router, its backends) recorded for a traced job. Sent at
    /// most once, right before `job_done`, and only when the submission
    /// carried a `trace` context — untraced jobs never see this frame.
    TraceSpans {
        /// Job id.
        job: u64,
        /// Finished spans, in recording order.
        spans: Vec<Span>,
    },
    /// Daemon/router → client: the telemetry series one cell recorded.
    /// Sent only when the submission carried a `telemetry` stride, one
    /// frame per simulated cell, each immediately *before* that cell's
    /// `cell_result` (so when the last `cell_result` lands, every
    /// series has too). Journal-cached cells carry no series — the
    /// journal predates the request's stride.
    CellTelemetry {
        /// Job id.
        job: u64,
        /// Cell index in the submission's grid order (matches the
        /// `cell_result` that follows).
        index: u64,
        /// The cell's sampled series, validated on parse (a torn or
        /// non-monotone series is a protocol error).
        series: TelemetrySeries,
    },
    /// Daemon → client: the last line could not be acted on.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Health probe (router → backend, or any peer → router/daemon).
    Ping,
    /// Health response. From a daemon: scheduler worker count and
    /// journaled rows. From a router: the live backends' summed worker
    /// count and cached rows.
    Pong {
        /// Execution capacity behind this endpoint.
        workers: u64,
        /// Result rows held (journal entries / cache entries).
        results: u64,
    },
    /// Operator → router: add a `bumpd` backend to the pool at runtime.
    /// The router health-checks the address before admitting it.
    RegisterBackend {
        /// The backend's `host:port`.
        addr: String,
    },
    /// Router → operator: the registration outcome.
    BackendRegistered {
        /// The address just admitted (or re-admitted).
        addr: String,
        /// Pool size after registration.
        backends: u64,
    },
}

impl Frame {
    /// Encodes the frame as its single-line JSON form (no newline).
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }

    /// The frame as a JSON value (deterministic field order).
    pub fn to_json(&self) -> Json {
        match self {
            Frame::Submit(batch) => {
                // A batch of one keeps the original flat form, so
                // single-spec submissions are byte-identical to the
                // pre-batch protocol (and old clients keep working).
                // The trace context, like the scenario, is emitted
                // only when present: untraced submissions stay
                // byte-identical to the pre-trace protocol.
                if let [spec] = batch.jobs.as_slice() {
                    let mut fields = vec![("type", Json::from("submit"))];
                    fields.extend(submit_fields(spec));
                    if let Some(ctx) = &batch.trace {
                        fields.push(("trace", Json::from(ctx.encode())));
                    }
                    if let Some(stride) = batch.telemetry {
                        fields.push(("telemetry", Json::from(stride)));
                    }
                    Json::obj(fields)
                } else {
                    let mut fields = vec![
                        ("type", Json::from("submit")),
                        (
                            "jobs",
                            Json::Arr(
                                batch
                                    .jobs
                                    .iter()
                                    .map(|spec| Json::obj(submit_fields(spec)))
                                    .collect(),
                            ),
                        ),
                    ];
                    if let Some(ctx) = &batch.trace {
                        fields.push(("trace", Json::from(ctx.encode())));
                    }
                    if let Some(stride) = batch.telemetry {
                        fields.push(("telemetry", Json::from(stride)));
                    }
                    Json::obj(fields)
                }
            }
            Frame::JobAccepted { job, cells, cached } => Json::obj(vec![
                ("type", Json::from("job_accepted")),
                ("job", Json::from(*job)),
                ("cells", Json::from(*cells)),
                ("cached", Json::from(*cached)),
            ]),
            Frame::CellResult(cell) => Json::obj(vec![
                ("type", Json::from("cell_result")),
                ("job", Json::from(cell.job)),
                ("index", Json::from(cell.index)),
                ("label", Json::from(cell.label.as_str())),
                ("cached", Json::from(cell.cached)),
                ("csv", Json::from(cell.csv.as_str())),
                ("row", row_of(&cell.csv)),
            ]),
            Frame::JobDone { job, cells } => Json::obj(vec![
                ("type", Json::from("job_done")),
                ("job", Json::from(*job)),
                ("cells", Json::from(*cells)),
            ]),
            Frame::TraceSpans { job, spans } => Json::obj(vec![
                ("type", Json::from("trace_spans")),
                ("job", Json::from(*job)),
                (
                    "spans",
                    Json::Arr(spans.iter().map(Span::to_json).collect()),
                ),
            ]),
            Frame::CellTelemetry { job, index, series } => Json::obj(vec![
                ("type", Json::from("cell_telemetry")),
                ("job", Json::from(*job)),
                ("index", Json::from(*index)),
                ("series", series_to_json(series)),
            ]),
            Frame::Error { message } => Json::obj(vec![
                ("type", Json::from("error")),
                ("message", Json::from(message.as_str())),
            ]),
            Frame::Ping => Json::obj(vec![("type", Json::from("ping"))]),
            Frame::Pong { workers, results } => Json::obj(vec![
                ("type", Json::from("pong")),
                ("workers", Json::from(*workers)),
                ("results", Json::from(*results)),
            ]),
            Frame::RegisterBackend { addr } => Json::obj(vec![
                ("type", Json::from("register_backend")),
                ("addr", Json::from(addr.as_str())),
            ]),
            Frame::BackendRegistered { addr, backends } => Json::obj(vec![
                ("type", Json::from("backend_registered")),
                ("addr", Json::from(addr.as_str())),
                ("backends", Json::from(*backends)),
            ]),
        }
    }

    /// Parses one wire line. Errors name the malformed field. Unknown
    /// *top-level* keys are a strict protocol error: a field one side
    /// understands and the other silently drops (e.g. `"scenario"`
    /// against a pre-scenario daemon) would change what gets simulated
    /// without anyone noticing, so both the daemon and the client
    /// reject rather than ignore.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let value = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("frame has no \"type\" field")?;
        match kind {
            "submit" => {
                let trace = match value.get("trace") {
                    None => None,
                    Some(v) => {
                        let s = v.as_str().ok_or("field \"trace\" is not a string")?;
                        Some(TraceContext::decode(s).map_err(|e| format!("bad trace: {e}"))?)
                    }
                };
                let telemetry = match value.get("telemetry") {
                    None => None,
                    Some(v) => match v.as_u64() {
                        Some(n) if n >= 1 => Some(n),
                        _ => {
                            return Err(
                                "field \"telemetry\" must be a positive cycle stride".to_string()
                            )
                        }
                    },
                };
                if value.get("jobs").is_some() {
                    // Batched form: the frame carries only the job list
                    // (plus the optional frame-level trace context and
                    // telemetry stride).
                    reject_unknown_keys(&value, &["type", "jobs", "trace", "telemetry"])?;
                    let jobs_json = value
                        .get("jobs")
                        .and_then(Json::as_arr)
                        .ok_or("field \"jobs\" is not an array")?;
                    if jobs_json.is_empty() {
                        return Err("\"jobs\" must be non-empty".to_string());
                    }
                    if jobs_json.len() > MAX_BATCH_JOBS {
                        return Err(format!(
                            "\"jobs\" holds at most {MAX_BATCH_JOBS} submissions"
                        ));
                    }
                    let jobs = jobs_json
                        .iter()
                        .map(|job| {
                            if !matches!(job, Json::Obj(_)) {
                                return Err("\"jobs\" entries must be objects".to_string());
                            }
                            reject_unknown_keys(
                                job,
                                &[
                                    "presets",
                                    "workloads",
                                    "options",
                                    "scenario",
                                    "seeds",
                                    "resume",
                                ],
                            )?;
                            parse_submit(job)
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    Ok(Frame::Submit(SubmitBatch {
                        jobs,
                        trace,
                        telemetry,
                    }))
                } else {
                    reject_unknown_keys(
                        &value,
                        &[
                            "type",
                            "presets",
                            "workloads",
                            "options",
                            "scenario",
                            "seeds",
                            "resume",
                            "trace",
                            "telemetry",
                        ],
                    )?;
                    Ok(Frame::Submit(SubmitBatch {
                        jobs: vec![parse_submit(&value)?],
                        trace,
                        telemetry,
                    }))
                }
            }
            "job_accepted" => {
                reject_unknown_keys(&value, &["type", "job", "cells", "cached"])?;
                Ok(Frame::JobAccepted {
                    job: field_u64(&value, "job")?,
                    cells: field_u64(&value, "cells")?,
                    cached: field_u64(&value, "cached")?,
                })
            }
            "cell_result" => {
                reject_unknown_keys(
                    &value,
                    &["type", "job", "index", "label", "cached", "csv", "row"],
                )?;
                let cell = CellResult {
                    job: field_u64(&value, "job")?,
                    index: field_u64(&value, "index")?,
                    label: field_str(&value, "label")?,
                    cached: field_bool(&value, "cached")?,
                    csv: field_str(&value, "csv")?,
                };
                check_row(&cell.csv, value.get("row").ok_or("missing field \"row\"")?)?;
                Ok(Frame::CellResult(cell))
            }
            "job_done" => {
                reject_unknown_keys(&value, &["type", "job", "cells"])?;
                Ok(Frame::JobDone {
                    job: field_u64(&value, "job")?,
                    cells: field_u64(&value, "cells")?,
                })
            }
            "trace_spans" => {
                reject_unknown_keys(&value, &["type", "job", "spans"])?;
                let spans = value
                    .get("spans")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"spans\"")?
                    .iter()
                    .map(Span::from_json)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Frame::TraceSpans {
                    job: field_u64(&value, "job")?,
                    spans,
                })
            }
            "cell_telemetry" => {
                reject_unknown_keys(&value, &["type", "job", "index", "series"])?;
                let series = series_from_json(
                    value
                        .get("series")
                        .ok_or("missing object field \"series\"")?,
                )?;
                Ok(Frame::CellTelemetry {
                    job: field_u64(&value, "job")?,
                    index: field_u64(&value, "index")?,
                    series,
                })
            }
            "error" => {
                reject_unknown_keys(&value, &["type", "message"])?;
                Ok(Frame::Error {
                    message: field_str(&value, "message")?,
                })
            }
            "ping" => {
                reject_unknown_keys(&value, &["type"])?;
                Ok(Frame::Ping)
            }
            "pong" => {
                reject_unknown_keys(&value, &["type", "workers", "results"])?;
                Ok(Frame::Pong {
                    workers: field_u64(&value, "workers")?,
                    results: field_u64(&value, "results")?,
                })
            }
            "register_backend" => {
                reject_unknown_keys(&value, &["type", "addr"])?;
                Ok(Frame::RegisterBackend {
                    addr: field_str(&value, "addr")?,
                })
            }
            "backend_registered" => {
                reject_unknown_keys(&value, &["type", "addr", "backends"])?;
                Ok(Frame::BackendRegistered {
                    addr: field_str(&value, "addr")?,
                    backends: field_u64(&value, "backends")?,
                })
            }
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// The encoded fields of one submission, shared by the flat `submit`
/// form and each entry of the batched `jobs` array (which is the flat
/// object minus the `type` tag).
fn submit_fields(spec: &SubmitSpec) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        (
            "presets",
            Json::Arr(spec.presets.iter().map(|p| Json::from(p.name())).collect()),
        ),
        (
            "workloads",
            Json::Arr(
                spec.workloads
                    .iter()
                    .map(|w| Json::from(w.name()))
                    .collect(),
            ),
        ),
        ("options", options_to_json(&spec.options)),
    ];
    // Emitted only when non-default, so the encoding of a
    // default-scenario submission is byte-identical to the
    // pre-scenario protocol (and resumes old journals).
    if !spec.scenario.is_default() {
        fields.push(("scenario", Json::from(spec.scenario.name().as_str())));
    }
    fields.push(("seeds", Json::from(spec.seeds)));
    fields.push(("resume", Json::from(spec.resume)));
    fields
}

fn options_to_json(options: &RunOptions) -> Json {
    Json::obj(vec![
        ("cores", Json::from(options.cores)),
        (
            "warmup_instructions",
            Json::from(options.warmup_instructions),
        ),
        (
            "measure_instructions",
            Json::from(options.measure_instructions),
        ),
        ("max_cycles", Json::from(options.max_cycles)),
        ("seed", Json::from(options.seed)),
        ("small_llc", Json::from(options.small_llc)),
        ("engine", Json::from(options.engine.name())),
    ])
}

fn options_from_json(value: &Json) -> Result<RunOptions, String> {
    let engine_name = field_str(value, "engine")?;
    let engine =
        Engine::from_arg(&engine_name).ok_or_else(|| format!("unknown engine {engine_name:?}"))?;
    let cores = field_u64(value, "cores")?;
    if cores == 0 {
        return Err("field \"cores\" must be at least 1".to_string());
    }
    Ok(RunOptions {
        cores: usize::try_from(cores).map_err(|_| "field \"cores\" out of range".to_string())?,
        warmup_instructions: field_u64(value, "warmup_instructions")?,
        measure_instructions: field_u64(value, "measure_instructions")?,
        max_cycles: field_u64(value, "max_cycles")?,
        seed: field_u64(value, "seed")?,
        small_llc: field_bool(value, "small_llc")?,
        engine,
    })
}

fn parse_submit(value: &Json) -> Result<SubmitSpec, String> {
    let presets = value
        .get("presets")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"presets\"")?
        .iter()
        .map(|v| {
            let name = v.as_str().ok_or("preset names must be strings")?;
            Preset::from_name(name).ok_or_else(|| format!("unknown preset {name:?}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let workloads = value
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"workloads\"")?
        .iter()
        .map(|v| {
            let name = v.as_str().ok_or("workload names must be strings")?;
            Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if presets.is_empty() {
        return Err("\"presets\" must be non-empty".to_string());
    }
    if workloads.is_empty() {
        return Err("\"workloads\" must be non-empty".to_string());
    }
    let options = options_from_json(
        value
            .get("options")
            .ok_or("missing object field \"options\"")?,
    )?;
    let scenario = match value.get("scenario") {
        None => Scenario::default(),
        Some(v) => {
            let name = v.as_str().ok_or("field \"scenario\" is not a string")?;
            Scenario::from_name(name).map_err(|e| format!("bad scenario: {e}"))?
        }
    };
    let seeds = match value.get("seeds") {
        None => 1,
        Some(v) => match v.as_u64() {
            Some(n) if (1..=1024).contains(&n) => n as usize,
            _ => return Err("field \"seeds\" must be an integer in 1..=1024".to_string()),
        },
    };
    let resume = match value.get("resume") {
        None => false,
        Some(v) => v.as_bool().ok_or("field \"resume\" is not a bool")?,
    };
    Ok(SubmitSpec {
        presets,
        workloads,
        options,
        scenario,
        seeds,
        resume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOptions {
        RunOptions::quick(2)
    }

    #[test]
    fn submit_round_trips() {
        let spec = SubmitSpec {
            presets: vec![Preset::BaseOpen, Preset::Bump],
            workloads: vec![Workload::WebSearch],
            options: opts(),
            scenario: Scenario::default(),
            seeds: 3,
            resume: true,
        };
        let line = Frame::Submit(spec.clone().into()).encode();
        assert!(!line.contains('\n'), "frames are single lines");
        assert!(
            !line.contains("scenario"),
            "default scenario stays off the wire: {line}"
        );
        assert!(
            !line.contains("jobs"),
            "single submissions keep the flat pre-batch form: {line}"
        );
        assert_eq!(Frame::parse(&line), Ok(Frame::Submit(spec.into())));
    }

    #[test]
    fn batched_submissions_round_trip_and_stay_disjoint() {
        let a = SubmitSpec::new(vec![Preset::BaseOpen], vec![Workload::WebSearch], opts());
        let b = SubmitSpec {
            seeds: 2,
            ..SubmitSpec::new(vec![Preset::Bump], vec![Workload::DataServing], opts())
        };
        let batch = SubmitBatch {
            jobs: vec![a.clone(), b.clone()],
            trace: None,
            telemetry: None,
        };
        let line = Frame::Submit(batch.clone()).encode();
        assert!(line.contains("\"jobs\""), "{line}");
        assert_eq!(Frame::parse(&line), Ok(Frame::Submit(batch.clone())));
        // Expansion concatenates the grids, carrying per-job resume.
        let (grid, resume) = batch.expand().expect("disjoint batch expands");
        assert_eq!(grid.len(), 3);
        assert_eq!(batch.cell_count(), 3);
        assert_eq!(grid.cells()[0].label, "Base-open/Web Search");
        assert_eq!(grid.cells()[2].label, "BuMP/Data Serving#s1");
        assert_eq!(resume, vec![false, false, false]);
        // Overlapping jobs are an error, not a silent dedup (index
        // positions would be ambiguous between peers).
        let overlap = SubmitBatch {
            jobs: vec![a.clone(), a],
            trace: None,
            telemetry: None,
        };
        let err = overlap.expand().expect_err("overlap must fail");
        assert!(err.contains("overlap"), "{err}");
        // A single-job batch encodes in the flat pre-batch form.
        let single = Frame::Submit(SubmitBatch {
            jobs: vec![b],
            trace: None,
            telemetry: None,
        });
        assert!(!single.encode().contains("\"jobs\""));
        assert_eq!(Frame::parse(&single.encode()), Ok(single));
    }

    #[test]
    fn health_and_registration_frames_round_trip() {
        for frame in [
            Frame::Ping,
            Frame::Pong {
                workers: 8,
                results: 123,
            },
            Frame::RegisterBackend {
                addr: "10.0.0.7:4077".to_string(),
            },
            Frame::BackendRegistered {
                addr: "10.0.0.7:4077".to_string(),
                backends: 3,
            },
        ] {
            let line = frame.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Frame::parse(&line), Ok(frame));
        }
        assert!(Frame::parse("{\"type\":\"ping\",\"x\":1}").is_err());
        assert!(Frame::parse("{\"type\":\"pong\",\"workers\":1}").is_err());
    }

    #[test]
    fn scenario_submissions_round_trip_by_name() {
        for name in [
            "ddr4_2400",
            "lpddr4_3200+llc16m",
            "llc8m+mix(websearch:dataserving)",
        ] {
            let spec = SubmitSpec {
                scenario: Scenario::from_name(name).unwrap(),
                ..SubmitSpec::new(vec![Preset::Bump], vec![Workload::WebSearch], opts())
            };
            let line = Frame::Submit(spec.clone().into()).encode();
            assert!(line.contains("\"scenario\""), "{line}");
            assert_eq!(Frame::parse(&line), Ok(Frame::Submit(spec.clone().into())));
            // The grid the daemon expands carries the scenario tag.
            let grid = spec.to_grid();
            assert!(grid.cells().iter().all(|c| c.label.contains('@')));
            assert_eq!(grid.cells()[0].scenario, spec.scenario);
        }
    }

    #[test]
    fn unknown_top_level_keys_are_a_strict_error() {
        // A mistyped or too-new field must not silently no-op: an old
        // daemon ignoring "scenario" would simulate the wrong platform.
        let good = Frame::Submit(
            SubmitSpec::new(vec![Preset::BaseOpen], vec![Workload::WebSearch], opts()).into(),
        )
        .encode();
        let bad = good.replacen("{", "{\"scenaro\":\"ddr4_2400\",", 1);
        let err = Frame::parse(&bad).expect_err("unknown key must fail");
        assert!(err.contains("scenaro"), "{err}");
        for bad in [
            "{\"type\":\"job_done\",\"job\":1,\"cells\":1,\"extra\":0}",
            "{\"type\":\"error\",\"message\":\"x\",\"hint\":\"y\"}",
        ] {
            assert!(Frame::parse(bad).is_err(), "must reject {bad:?}");
        }
        // Bad scenario values are named.
        let bad = good.replacen("{", "{\"scenario\":\"warp9\",", 1);
        let err = Frame::parse(&bad).expect_err("unknown scenario must fail");
        assert!(err.contains("bad scenario"), "{err}");
    }

    #[test]
    fn traced_submissions_round_trip_and_absence_stays_off_the_wire() {
        use crate::trace::{SpanId, TraceContext, TraceId};
        let ctx = TraceContext {
            trace: TraceId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
            parent: SpanId(0xfeed_face_cafe_beef),
        };
        // Flat form.
        let spec = SubmitSpec::new(vec![Preset::Bump], vec![Workload::WebSearch], opts());
        let mut traced: SubmitBatch = spec.clone().into();
        traced.trace = Some(ctx);
        let line = Frame::Submit(traced.clone()).encode();
        assert!(
            line.contains("\"trace\":\"0123456789abcdef0123456789abcdef:feedfacecafebeef\""),
            "{line}"
        );
        assert_eq!(Frame::parse(&line), Ok(Frame::Submit(traced)));
        // Absent context = absent field: byte-identical to the
        // pre-trace protocol (back-compat with old peers and journals).
        let untraced = Frame::Submit(spec.clone().into()).encode();
        assert!(!untraced.contains("trace"), "{untraced}");
        assert_eq!(
            Frame::parse(&untraced),
            Ok(Frame::Submit(spec.clone().into()))
        );
        // Batched form carries the context at frame level.
        let batch = SubmitBatch {
            jobs: vec![
                spec,
                SubmitSpec::new(vec![Preset::BaseOpen], vec![Workload::DataServing], opts()),
            ],
            trace: Some(ctx),
            telemetry: None,
        };
        let line = Frame::Submit(batch.clone()).encode();
        assert!(
            line.contains("\"jobs\"") && line.contains("\"trace\""),
            "{line}"
        );
        assert_eq!(Frame::parse(&line), Ok(Frame::Submit(batch)));
        // Malformed contexts are named errors, not silent drops.
        let bad = untraced.replacen('{', "{\"trace\":\"zzz\",", 1);
        let err = Frame::parse(&bad).expect_err("bad trace must fail");
        assert!(err.contains("bad trace"), "{err}");
    }

    #[test]
    fn trace_spans_frames_round_trip() {
        use crate::trace::{ActiveSpan, TraceId};
        let trace = TraceId::generate();
        let root = ActiveSpan::begin(trace, None, "job", "bumpd");
        let root_id = root.id();
        let mut child = ActiveSpan::begin(trace, Some(root_id), "cell_execute", "bumpd");
        child.attr("cell", 0u64);
        child.attr("label", "BuMP/Web Search");
        let frame = Frame::TraceSpans {
            job: 9,
            spans: vec![child.finish(), root.finish()],
        };
        let line = frame.encode();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Frame::parse(&line), Ok(frame));
        // Strictness holds inside the span array too.
        assert!(Frame::parse("{\"type\":\"trace_spans\",\"job\":1}").is_err());
        assert!(
            Frame::parse("{\"type\":\"trace_spans\",\"job\":1,\"spans\":[{\"x\":1}]}").is_err()
        );
    }

    #[test]
    fn submit_expands_to_the_cartesian_grid() {
        let spec = SubmitSpec::new(
            vec![Preset::BaseOpen, Preset::Bump],
            vec![Workload::WebSearch, Workload::WebServing],
            opts(),
        );
        let grid = spec.to_grid();
        assert_eq!(grid.len(), 4);
        assert_eq!(grid.cells()[0].label, "Base-open/Web Search");
    }

    const CSV: &str = "BuMP/Web Search,BuMP,Web Search,1,42,10,20,2.000000,0.500000,\
        0.600000,1.250000,0.001000,30,0.100000,0.200000,0.300000,0.400000,0.500000";

    #[test]
    fn result_frames_round_trip() {
        let cell = CellResult {
            job: 7,
            index: 3,
            label: "BuMP/Web Search".to_string(),
            cached: true,
            csv: CSV.to_string(),
        };
        for frame in [
            Frame::CellResult(cell),
            Frame::JobAccepted {
                job: 7,
                cells: 4,
                cached: 2,
            },
            Frame::JobDone { job: 7, cells: 4 },
            Frame::Error {
                message: "nope\nnewline".to_string(),
            },
        ] {
            let line = frame.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Frame::parse(&line), Ok(frame));
        }
    }

    #[test]
    fn cell_result_row_is_rendered_from_and_checked_against_csv() {
        let line = Frame::CellResult(CellResult {
            job: 1,
            index: 0,
            label: "BuMP/Web Search".to_string(),
            cached: false,
            csv: CSV.to_string(),
        })
        .encode();
        let row = Json::parse(&line).unwrap().get("row").cloned().unwrap();
        assert_eq!(row.get("ipc").and_then(Json::as_f64), Some(2.0));
        assert_eq!(row.get("dram_accesses").and_then(Json::as_u64), Some(30));
        assert!(Frame::parse(&line).is_ok());
        let edited = line.replace("\"ipc\":2.0", "\"ipc\":2.5");
        assert_ne!(edited, line);
        let err = Frame::parse(&edited).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
        let no_row = line.replace(&format!(",\"row\":{row}"), "");
        assert!(Frame::parse(&no_row).is_err(), "row is required");
        let bad_csv = line.replace(CSV, "BuMP/Web Search,1,2");
        assert!(Frame::parse(&bad_csv).is_err(), "csv must be a metric row");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"job_done\",\"job\":1}",
            "{\"type\":\"job_done\",\"job\":-1,\"cells\":1}",
            "{\"type\":\"job_done\",\"job\":1.5,\"cells\":1}",
            "{\"type\":\"submit\",\"presets\":[],\"workloads\":[\"Web Search\"]}",
            "{\"type\":\"submit\",\"presets\":[\"Nope\"],\"workloads\":[\"Web Search\"]}",
        ] {
            assert!(Frame::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn submit_rejects_bad_options() {
        let mut good = Frame::Submit(
            SubmitSpec::new(vec![Preset::BaseOpen], vec![Workload::WebSearch], opts()).into(),
        )
        .encode();
        assert!(Frame::parse(&good).is_ok());
        good = good.replace("\"event\"", "\"warp\"");
        assert!(Frame::parse(&good).is_err(), "unknown engine must fail");
    }
}
