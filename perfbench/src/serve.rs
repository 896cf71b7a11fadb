//! The `serve` workload: a closed loop through an in-process `bumpr`
//! router (result cache on) in front of one in-process `bumpd` daemon
//! (one worker, file journal).
//!
//! One client thread keeps one request outstanding over two
//! connections, one to the router and one to the daemon, and cycles
//! through three request classes:
//!
//! * **cold** — a spec never sent before, to the router: it misses the
//!   cache, runs one tiny cell on the daemon, and is appended to the
//!   journal and the cache (the write path);
//! * **resume** — an earlier spec, to the daemon with `resume` set: a
//!   journal read;
//! * **cached** — an earlier spec, to the router: a cache read.
//!
//! A cold cell simulates for milliseconds, so the codec, event loops,
//! journal, cache and scheduler do nearly all of the work.
//!
//! The serving tier has no way to stop, so `setup_s` is sampled in
//! short-lived child processes of this program (run with
//! [`SETUP_SAMPLE_FLAG`]), whose tiers end with them; the measured
//! process runs only the tier that serves the loop.

use crate::host::{to_reference, Reference};
use crate::metrics::{peak_rss_mb, process_cpu_s, setup_sample, Run, SETUP_SAMPLES};
use crate::sim::{paper_block, Pair};
use crate::stats::{mean, median, percentile, ratio};
use bump_bench::experiment::derive_cell_seed;
use bump_serve::client::{self, JobOutcome};
use bump_serve::cluster::Router;
use bump_serve::daemon::Daemon;
use bump_serve::journal::Journal;
use bump_serve::proto::{Frame, SubmitBatch, SubmitSpec};
use bump_serve::trace::{Span, SpanId, TraceContext, TraceId};
use bump_sim::{Engine, Preset, RunOptions};
use bump_workloads::Workload;
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The only argument of a child process that takes one `setup_s`
/// sample and prints it.
pub const SETUP_SAMPLE_FLAG: &str = "--serve-setup-sample";
/// Router cache capacity, far above the cells one run creates, so a
/// reused spec is always still cached.
const CACHE_CELLS: usize = 1 << 16;
/// Cold cycles (one spec per preset, sharing a workload and a workload
/// seed) whose served rows give the model metrics; every run completes
/// them.
const MODEL_CYCLES: usize = 6;
/// Cold-cell windows, in instructions: small enough that a cell
/// simulates for milliseconds.
const COLD_WINDOW: u64 = 8_000;
/// Samples per class the traced run's plain arm needs for a p90.
const TAIL_SAMPLES: usize = 100;

/// The request classes, in the order each round sends them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Cold,
    Resume,
    Cached,
}

const CLASSES: [Class; 3] = [Class::Cold, Class::Resume, Class::Cached];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Resume => "resume",
            Class::Cached => "cached",
        }
    }

    /// The class's per-layer metrics: latency p50 and p90, and the
    /// latency no server span accounts for.
    fn metrics(self) -> [&'static str; 3] {
        match self {
            Class::Cold => [
                "serve.cold_job_ms_p50",
                "serve.cold_job_ms_p90",
                "serve.unattributed_ms.cold",
            ],
            Class::Resume => [
                "serve.resume_job_ms_p50",
                "serve.resume_job_ms_p90",
                "serve.unattributed_ms.resume",
            ],
            Class::Cached => [
                "serve.cached_job_ms_p50",
                "serve.cached_job_ms_p90",
                "serve.unattributed_ms.cached",
            ],
        }
    }
}

/// The `k`-th cold spec of a run with `seed`. Presets cycle through
/// all seven, and the seven of one cycle share a workload and a
/// workload seed, so each cycle holds a BuMP/Base-close pair; cycles
/// rotate through the six workloads.
///
/// The first [`MODEL_CYCLES`] cycles are a fixed calibration set at
/// the repository's default workload seed, whatever `seed` is: cells
/// this small vary too much from one workload seed to the next for the
/// model metrics drawn from them to compare runs. Every later cold
/// spec takes its workload seed from `seed`.
pub fn cold_spec(seed: u64, k: usize) -> SubmitSpec {
    let cycle = k / 7;
    let mut opts = RunOptions::quick(2);
    opts.warmup_instructions = COLD_WINDOW;
    opts.measure_instructions = COLD_WINDOW;
    opts.engine = Engine::Event;
    if cycle >= MODEL_CYCLES {
        opts.seed = derive_cell_seed(seed, &format!("perfbench/serve/{cycle}"));
    }
    let workload = Workload::all()[cycle % 6];
    SubmitSpec::new(vec![Preset::all()[k % 7]], vec![workload], opts)
}

/// The in-process serving tier and the two client connections.
struct Tier {
    router: TcpStream,
    daemon: TcpStream,
    connect_ms: f64,
}

fn ping(stream: &mut TcpStream) -> Result<(), String> {
    let line = Frame::Ping.encode();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("ping: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("pong: {e}"))?;
    match Frame::parse(reply.trim_end()) {
        Ok(Frame::Pong { .. }) => Ok(()),
        other => Err(format!("expected pong, got {other:?}")),
    }
}

/// Starts a daemon on a fresh journal and a router in front of it,
/// connects to both and exchanges a ping/pong with each.
fn start_tier(journal: &Path) -> Result<Tier, String> {
    let _ = std::fs::remove_file(journal);
    let journal = Journal::open(journal).map_err(|e| format!("journal: {e}"))?;
    let daemon = Daemon::new(1, journal);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let daemon_addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    daemon.spawn(listener);
    let router = Router::new(vec![daemon_addr.clone()], CACHE_CELLS);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let router_addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    router.spawn(listener);
    let t = Instant::now();
    let mut router = TcpStream::connect(&router_addr).map_err(|e| e.to_string())?;
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut daemon = TcpStream::connect(&daemon_addr).map_err(|e| e.to_string())?;
    ping(&mut router)?;
    ping(&mut daemon)?;
    Ok(Tier {
        router,
        daemon,
        connect_ms,
    })
}

/// One completed request.
#[derive(Debug)]
struct Request {
    class: Class,
    spec: usize,
    traced: bool,
    latency_ms: f64,
    first_frame_ms: f64,
    outcome: Result<JobOutcome, String>,
    client_span: Option<SpanId>,
}

/// The closed loop's state.
struct Loop {
    seed: u64,
    specs: Vec<SubmitSpec>,
    requests: Vec<Request>,
    frames: Vec<Frame>,
}

impl Loop {
    /// The earlier spec the next request reuses, fixed by the seed.
    fn reused(&self) -> usize {
        let n = self.requests.len();
        let draw = derive_cell_seed(self.seed, &format!("perfbench/serve/reuse/{n}"));
        (draw % self.specs.len() as u64) as usize
    }

    /// Sends one round (cold, resume, cached) and records it.
    fn round(&mut self, tier: &mut Tier, traced: bool) {
        for class in CLASSES {
            let (spec, stream) = match class {
                Class::Cold => {
                    self.specs.push(cold_spec(self.seed, self.specs.len()));
                    (self.specs.len() - 1, &mut tier.router)
                }
                Class::Resume => (self.reused(), &mut tier.daemon),
                Class::Cached => (self.reused(), &mut tier.router),
            };
            let mut job = self.specs[spec].clone();
            job.resume = class == Class::Resume;
            let mut batch = SubmitBatch::from(job);
            let client_span = traced.then(SpanId::generate);
            batch.trace = client_span.map(|parent| TraceContext {
                trace: TraceId::generate(),
                parent,
            });
            let keep = !traced;
            let frames = &mut self.frames;
            let t = Instant::now();
            let mut first_frame_ms = 0.0;
            let outcome = client::submit_batch_with(stream, &batch, &mut |frame| {
                if matches!(frame, Frame::JobAccepted { .. }) {
                    first_frame_ms = t.elapsed().as_secs_f64() * 1e3;
                }
                if keep {
                    frames.push(frame.clone());
                }
            });
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            self.requests.push(Request {
                class,
                spec,
                traced,
                latency_ms,
                first_frame_ms,
                outcome,
                client_span,
            });
        }
    }
}

fn journal_path(rep: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("serve-{}-{rep}.journal", std::process::id()))
}

/// Removes this process's journals, and their directory unless another
/// run is using it.
fn remove_journals(count: usize) {
    for rep in 0..count {
        let _ = std::fs::remove_file(journal_path(rep));
    }
    if let Some(dir) = journal_path(0).parent() {
        let _ = std::fs::remove_dir(dir);
    }
}

/// The child process's work: sets up tiers, each on its own journal,
/// until they have used [`crate::metrics::SETUP_BUDGET_S`] of process CPU time, and
/// prints the mean CPU time of a set-up, scaled to the reference host
/// by reference laps before and after the set-ups, and the median
/// connect time in ms. The tiers end with the process.
pub fn setup_sample_child() -> Result<(), String> {
    let mut reference = Reference::new();
    let lap = reference.lap();
    let (mut tiers, mut connect, mut failure) = (Vec::new(), Vec::new(), None);
    let setup = setup_sample(|| {
        let cpu0 = process_cpu_s();
        match start_tier(&journal_path(tiers.len())) {
            Ok(tier) => {
                let cpu = process_cpu_s() - cpu0;
                connect.push(tier.connect_ms);
                tiers.push(tier);
                cpu
            }
            Err(e) => {
                failure = Some(e);
                f64::NAN
            }
        }
    });
    let setup = setup * to_reference(lap, reference.lap());
    remove_journals(tiers.len() + 1);
    if let Some(e) = failure {
        return Err(e);
    }
    println!("{setup} {}", median(&connect));
    Ok(())
}

/// One `setup_s` sample and one `client.connect_ms` sample, from a
/// child process running [`setup_sample_child`]. A sample is process
/// CPU time: the work a set-up does, not the event-loop wake-ups it
/// waits for, which swing with host load.
fn setup_child_sample() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg(SETUP_SAMPLE_FLAG)
        .output()
        .map_err(|e| format!("set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let values: Vec<f64> = text
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    match values[..] {
        [setup, connect] if out.status.success() => Ok((setup, connect)),
        _ => Err(format!(
            "set-up sample: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Starts the tier that serves the loop, runs rounds until `seconds`
/// have passed and the minimum rounds are done, reads the peak memory,
/// then checks every response. The [`SETUP_SAMPLES`] set-up samples are
/// taken between rounds, spread evenly over the minimum rounds, so that
/// their median does not rest on the host's speed at one moment.
fn drive(seed: u64, seconds: f64, traced: bool, run: &mut Run) -> Option<Loop> {
    let mut tier = match start_tier(&journal_path(0)) {
        Ok(tier) => tier,
        Err(e) => {
            run.op(false, || format!("set-up failed: {e}"));
            return None;
        }
    };
    let mut lp = Loop {
        seed,
        specs: Vec::new(),
        requests: Vec::new(),
        frames: Vec::new(),
    };
    let min_rounds = if traced {
        2 * TAIL_SAMPLES
    } else {
        7 * MODEL_CYCLES
    };
    let (mut setup, mut connect) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < Duration::from_secs_f64(seconds) {
        if rounds % (min_rounds / SETUP_SAMPLES) == 0 && setup.len() < SETUP_SAMPLES {
            match setup_child_sample() {
                Ok((s, c)) => {
                    setup.push(s);
                    connect.push(c);
                }
                Err(e) => {
                    run.op(false, || format!("set-up failed: {e}"));
                    return None;
                }
            }
        }
        lp.round(&mut tier, traced && rounds % 2 == 1);
        rounds += 1;
    }
    run.set("setup_s", median(&setup), setup.len());
    run.set("client.connect_ms", median(&connect), connect.len());
    run.note(format!(
        "{rounds} rounds of cold/resume/cached requests in {:.1} s, one outstanding",
        start.elapsed().as_secs_f64()
    ));
    remove_journals(1);
    // Before `check`, whose local simulations would count too.
    run.set("peak_rss_mb", peak_rss_mb(), 1);
    check(&lp, run);
    Some(lp)
}

/// Counts every request and checks its output: one cell, served from
/// where its class says, byte-identical to `client::local_csv`.
fn check(lp: &Loop, run: &mut Run) {
    let local: Vec<String> = lp.specs.iter().map(|s| client::local_csv(s, 1)).collect();
    for req in &lp.requests {
        let what = || format!("{} request for spec {}", req.class.name(), req.spec);
        match &req.outcome {
            Err(e) => run.op(false, || format!("{}: {e}", what())),
            Ok(out) => {
                let cached = out.cached() == out.cells.len();
                run.op(out.cells.len() == 1, || {
                    format!("{}: {} cells", what(), out.cells.len())
                });
                run.fail_unless(cached == (req.class != Class::Cold), || {
                    format!("{}: served cached={cached}", what())
                });
                run.fail_unless(out.to_csv() == local[req.spec], || {
                    format!("{}: CSV differs from client::local_csv", what())
                });
            }
        }
    }
}

fn csv_field(out: &JobOutcome, column: usize) -> f64 {
    out.cells
        .first()
        .and_then(|c| c.csv.split(',').nth(column))
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// The plain run: end-to-end metrics.
pub fn plain(seed: u64, seconds: f64, run: &mut Run) {
    let Some(lp) = drive(seed, seconds, false, run) else {
        return;
    };
    let latencies: Vec<f64> = lp.requests.iter().map(|r| r.latency_ms).collect();
    run.set("op_ms_p50", median(&latencies), latencies.len());
    // Served cold rows, by cold index (cold specs are numbered in send
    // order, one per round).
    let cold: Vec<&Request> = lp
        .requests
        .iter()
        .filter(|r| r.class == Class::Cold)
        .collect();
    let instr: f64 = cold
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|o| COLD_WINDOW as f64 + csv_field(o, 6))
        .sum();
    let cold_s: f64 = cold.iter().map(|r| r.latency_ms / 1e3).sum();
    run.set("sim_kips", instr / cold_s / 1e3, cold.len());
    let rows: Vec<&JobOutcome> = cold[..7 * MODEL_CYCLES]
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    if rows.len() < 7 * MODEL_CYCLES {
        return; // already counted as failed requests
    }
    let (ipc, nj): (Vec<f64>, Vec<f64>) = rows
        .iter()
        .map(|o| (csv_field(o, 7), csv_field(o, 10)))
        .unzip();
    run.set("sim_ipc", mean(&ipc), rows.len());
    run.set("mem_nj_per_access", mean(&nj), rows.len());
    // Preset index 0 is Base-close and 6 is BuMP in `Preset::all()`.
    let pairs: Vec<Pair> = (0..MODEL_CYCLES)
        .map(|c| {
            let (base, bump) = (7 * c, 7 * c + 6);
            ((nj[bump], ipc[bump]), (nj[base], ipc[base]))
        })
        .collect();
    paper_block(
        run,
        &pairs,
        "the calibration cold cells: 2 cores, 512 KB LLC, 8k-instruction windows, workload seed 42",
    );
}

/// The traced run: per-layer metrics. Plain and traced rounds
/// alternate; the plain ones give the class latencies, the traced ones
/// the server spans.
pub fn traced(seed: u64, seconds: f64, run: &mut Run) {
    let Some(lp) = drive(seed, seconds, true, run) else {
        return;
    };
    let (plain, traced): (Vec<&Request>, Vec<&Request>) =
        lp.requests.iter().partition(|r| !r.traced);
    for class in CLASSES {
        let lat: Vec<f64> = plain
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.latency_ms)
            .collect();
        let [p50, p90, _] = class.metrics();
        run.set(p50, median(&lat), lat.len());
        let tail = percentile(&lat, 90.0);
        run.fail_unless(tail.is_some(), || {
            format!("too few {} samples for a p90", class.name())
        });
        run.set(p90, tail.unwrap_or(f64::NAN), lat.len());
    }
    let first: Vec<f64> = plain.iter().map(|r| r.first_frame_ms).collect();
    run.set("client.first_frame_ms", median(&first), first.len());
    codec_metrics(&lp.frames, run);

    // Server spans of the traced requests, by name.
    let spans: Vec<(&Request, &Span)> = traced
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| (*r, o)))
        .flat_map(|(r, o)| o.spans.iter().map(move |s| (r, s)))
        .collect();
    let span_ms = |s: &Span| (s.end_us.saturating_sub(s.start_us)) as f64 / 1e3;
    for (metric, span) in [
        ("router.route_job_ms", "route_job"),
        ("router.cache_lookup_ms", "cache_lookup"),
        ("router.dispatch_ms", "dispatch"),
        ("router.reorder_merge_ms", "reorder_merge"),
        ("daemon.run_job_ms", "run_job"),
        ("daemon.journal_lookup_ms", "journal_lookup"),
        ("daemon.queue_wait_ms", "queue_wait"),
        ("daemon.cell_execute_ms", "cell_execute"),
        ("daemon.journal_append_ms", "journal_append"),
    ] {
        let d: Vec<f64> = spans
            .iter()
            .filter(|(_, s)| s.name == span)
            .map(|(_, s)| span_ms(s))
            .collect();
        run.fail_unless(!d.is_empty(), || format!("no {span} spans came back"));
        run.set(metric, mean(&d), d.len());
    }
    let attr_sum = |span: &str, key: &str| -> u64 {
        spans
            .iter()
            .filter(|(_, s)| s.name == span)
            .flat_map(|(_, s)| s.attrs.iter().filter(|(k, _)| k == key))
            .filter_map(|(_, v)| v.parse::<u64>().ok())
            .sum()
    };
    let (hits, misses) = (
        attr_sum("cache_lookup", "hits"),
        attr_sum("cache_lookup", "misses"),
    );
    run.set(
        "router.cache_hit_ratio",
        ratio(hits, hits + misses),
        spans.len(),
    );
    let (hits, pending) = (
        attr_sum("journal_lookup", "hits"),
        attr_sum("journal_lookup", "pending"),
    );
    run.set(
        "daemon.journal_hit_ratio",
        ratio(hits, hits + pending),
        spans.len(),
    );
    // Client latency minus the root server span: the wire, the client
    // and the event loops' queues.
    for class in CLASSES {
        let gaps: Vec<f64> = spans
            .iter()
            .filter(|(r, s)| r.class == class && s.parent == r.client_span)
            .map(|(r, s)| r.latency_ms - span_ms(s))
            .collect();
        run.set(class.metrics()[2], median(&gaps), gaps.len());
    }
    let plain_lat: Vec<f64> = plain.iter().map(|r| r.latency_ms).collect();
    let traced_lat: Vec<f64> = traced.iter().map(|r| r.latency_ms).collect();
    run.set(
        "trace.overhead_frac",
        median(&traced_lat) / median(&plain_lat) - 1.0,
        traced_lat.len(),
    );
}

/// Mean time of `Frame::encode` and `Frame::parse` over the frames the
/// plain requests actually exchanged, repeated until each side has run
/// for at least 50 ms.
fn codec_metrics(frames: &[Frame], run: &mut Run) {
    let lines: Vec<String> = frames.iter().map(Frame::encode).collect();
    let time = |f: &dyn Fn()| {
        let (t, mut passes) = (Instant::now(), 0u32);
        while passes == 0 || t.elapsed() < Duration::from_millis(50) {
            f();
            passes += 1;
        }
        t.elapsed().as_secs_f64() * 1e6 / (f64::from(passes) * frames.len() as f64)
    };
    let encode = time(&|| frames.iter().for_each(|f| drop(black_box(f.encode()))));
    let parse = time(&|| lines.iter().for_each(|l| drop(black_box(Frame::parse(l)))));
    run.set("proto.encode_us", encode, frames.len());
    run.set("proto.parse_us", parse, lines.len());
}
