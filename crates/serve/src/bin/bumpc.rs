//! `bumpc` — submit an experiment grid to a `bumpd` daemon and stream
//! the results.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p bump-serve --bin bumpc -- \
//!     [--addr 127.0.0.1:4077 | --router 127.0.0.1:4177] \
//!     [--presets Base-open,BuMP] \
//!     [--workloads "Web Search,Web Serving"] [--full] [--seeds N] \
//!     [--resume] [--engine {cycle,event}] [--local] [--threads N]
//! ```
//!
//! The CSV table (grid order, `MetricRow` columns) goes to stdout;
//! progress narration goes to stderr. `--local` runs the same spec
//! in-process through the same scheduler instead of over TCP — the two
//! outputs are byte-identical, which the CI daemon smoke asserts.
//! `--router` targets a `bumpr` cluster router instead of a single
//! daemon — same protocol, same bytes, backed by a backend fleet and
//! the router's result cache.

use bump_serve::client;
use bump_serve::proto::{Frame, SubmitBatch, SubmitSpec};
use bump_serve::trace::{export_chrome, export_ndjson, ActiveSpan, TraceContext, TraceId};
use bump_sim::{Engine, Instruments, Preset, RunOptions, Scenario};
use bump_workloads::Workload;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:4077".to_string();
    let mut presets: Vec<Preset> = Preset::all().to_vec();
    let mut workloads: Vec<Workload> = Workload::all().to_vec();
    let mut scenario = Scenario::default();
    let mut full = false;
    let mut seeds = 1usize;
    let mut resume = false;
    let mut engine = Engine::default();
    let mut local = false;
    let mut trace = false;
    let mut threads = bump_bench::experiment::default_threads();
    let args: Vec<String> = std::env::args().collect();
    // The figure binaries' parser, so local and routed runs submit the
    // identical stride.
    let telemetry = bump_bench::experiment::parse_telemetry_flag(&args)
        .unwrap_or_else(|| usage("--telemetry= expects a positive cycle stride"));
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = expect_value(&args, &mut i, "--addr"),
            // Same protocol either way; the separate flag documents
            // intent (and defaults differ: routers listen on 4177).
            "--router" => addr = expect_value(&args, &mut i, "--router"),
            "--presets" => {
                presets = parse_list(&expect_value(&args, &mut i, "--presets"), |name| {
                    Preset::from_name(name)
                        .unwrap_or_else(|| usage(&format!("unknown preset {name:?}")))
                });
            }
            "--workloads" => {
                workloads = parse_list(&expect_value(&args, &mut i, "--workloads"), |name| {
                    Workload::from_name(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")))
                });
            }
            "--scenario" => {
                let v = expect_value(&args, &mut i, "--scenario");
                scenario = Scenario::from_name(&v)
                    .unwrap_or_else(|e| usage(&format!("bad --scenario: {e}")));
            }
            "--full" => full = true,
            "--quick" => full = false,
            "--seeds" => {
                // Same bound as the wire protocol, so --local and
                // remote runs accept exactly the same flags.
                seeds = expect_value(&args, &mut i, "--seeds")
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=1024).contains(&n))
                    .unwrap_or_else(|| usage("--seeds expects a replica count in 1..=1024"));
            }
            "--resume" => resume = true,
            "--engine" => {
                let v = expect_value(&args, &mut i, "--engine");
                engine = Engine::from_arg(&v)
                    .unwrap_or_else(|| usage("--engine expects 'cycle' or 'event'"));
            }
            "--local" => local = true,
            "--trace" => trace = true,
            // Parsed above.
            a if a == "--telemetry" || a.starts_with("--telemetry=") => {}
            "--threads" => {
                threads = expect_value(&args, &mut i, "--threads")
                    .parse::<usize>()
                    .map(|n| n.max(1))
                    .unwrap_or_else(|_| usage("--threads expects a positive integer"));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if presets.is_empty() || workloads.is_empty() {
        usage("--presets and --workloads must be non-empty");
    }
    let mut options = if full {
        RunOptions::paper()
    } else {
        // The bench harness's --quick scale (seconds-long cells).
        bump_bench::Scale::Quick.options()
    };
    options.engine = engine;
    let spec = SubmitSpec {
        presets,
        workloads,
        options,
        scenario,
        seeds,
        resume,
    };
    let cells = spec.to_grid().len();
    if local {
        if trace {
            usage("--trace needs a server to trace; drop --local");
        }
        eprintln!("bumpc: running {cells} cells locally on {threads} threads");
        let grid = spec.to_grid().instrument(Instruments {
            profile: false,
            telemetry,
        });
        let results = bump_bench::experiment::run_grid(&grid, threads);
        if telemetry.is_some() {
            // The artifact writers live in the sim crate, so a routed
            // job produces byte-identical files.
            results.write_telemetry_files("bumpc");
            eprintln!("bumpc: telemetry -> results/telemetry_bumpc.csv + .json");
        }
        print!("{}", results.to_csv());
        return;
    }
    // With --trace, bumpc opens the trace's root span and sends the
    // context on the submit frame; the server side's spans come back
    // on a trace_spans frame and are merged with the client's own
    // connect/stream spans into one Perfetto-loadable file.
    let trace_id = trace.then(TraceId::generate);
    let mut root = trace_id.map(|t| ActiveSpan::begin(t, None, "submit", "bumpc"));
    let root_id = root.as_ref().map(ActiveSpan::id);
    let mut client_spans = Vec::new();
    let mut connect_span = trace_id.map(|t| ActiveSpan::begin(t, root_id, "connect", "bumpc"));
    let mut stream = client::connect_retry(&addr, Duration::from_secs(10)).unwrap_or_else(|e| {
        eprintln!("bumpc: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    if let Some(mut s) = connect_span.take() {
        s.attr("addr", &addr);
        client_spans.push(s.finish());
    }
    eprintln!("bumpc: submitting {cells} cells to {addr}");
    if let Some(t) = trace_id {
        eprintln!("bumpc: trace id {}", t.to_hex());
    }
    let mut batch: SubmitBatch = spec.into();
    batch.trace = trace_id
        .zip(root_id)
        .map(|(t, parent)| TraceContext { trace: t, parent });
    batch.telemetry = telemetry;
    let stream_span = trace_id.map(|t| ActiveSpan::begin(t, root_id, "stream", "bumpc"));
    let mut streamed = 0u64;
    let outcome = client::submit_batch_with(&mut stream, &batch, &mut |frame| match frame {
        Frame::JobAccepted { job, cells, cached } => {
            eprintln!("bumpc: job {job} accepted: {cells} cells ({cached} cached)");
        }
        Frame::CellResult(cell) => {
            streamed += 1;
            eprintln!(
                "bumpc: [{streamed}] {}{}",
                cell.label,
                if cell.cached { " (cached)" } else { "" }
            );
        }
        _ => {}
    })
    .unwrap_or_else(|e| {
        eprintln!("bumpc: {e}");
        std::process::exit(1);
    });
    if let Some(mut s) = stream_span {
        s.attr("cells", outcome.cells.len());
        client_spans.push(s.finish());
    }
    eprintln!(
        "bumpc: job {} done: {} cells ({} cached)",
        outcome.job,
        outcome.cells.len(),
        outcome.cached()
    );
    if telemetry.is_some() {
        let cells = outcome.telemetry_cells();
        if cells.is_empty() {
            // Cached cells skip re-simulation, so a fully-cached job
            // legitimately streams no series.
            eprintln!("bumpc: no telemetry streamed (all cells cached?)");
        } else {
            let _ = std::fs::create_dir_all("results");
            let csv = bump_sim::cells_to_csv(&cells);
            let json = format!("{}\n", bump_sim::cells_to_json(&cells));
            match std::fs::write("results/telemetry_bumpc.csv", csv)
                .and_then(|()| std::fs::write("results/telemetry_bumpc.json", json))
            {
                Ok(()) => eprintln!(
                    "bumpc: telemetry ({} cells) -> results/telemetry_bumpc.csv + .json",
                    cells.len()
                ),
                Err(e) => eprintln!("bumpc: cannot write telemetry files: {e}"),
            }
        }
    }
    if let (Some(t), Some(mut r)) = (trace_id, root.take()) {
        r.attr("job", outcome.job);
        r.attr("cells", outcome.cells.len());
        client_spans.push(r.finish());
        let mut spans = client_spans;
        spans.extend(outcome.spans.iter().cloned());
        let hex = t.to_hex();
        let _ = std::fs::create_dir_all("results");
        let chrome_path = format!("results/trace_{hex}.json");
        let ndjson_path = format!("results/trace_{hex}.ndjson");
        match std::fs::write(&chrome_path, export_chrome(&spans))
            .and_then(|()| std::fs::write(&ndjson_path, export_ndjson(&spans)))
        {
            Ok(()) => eprintln!(
                "bumpc: trace {hex}: {} spans -> {chrome_path} (Perfetto) + {ndjson_path}",
                spans.len()
            ),
            Err(e) => eprintln!("bumpc: cannot write trace files: {e}"),
        }
    }
    print!("{}", outcome.to_csv());
}

fn parse_list<T>(value: &str, parse: impl Fn(&str) -> T) -> Vec<T> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect()
}

fn expect_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .cloned()
        .unwrap_or_else(|| usage(&format!("{flag} expects a value")))
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("bumpc: {error}");
    }
    eprintln!(
        "usage: bumpc [--addr HOST:PORT | --router HOST:PORT] [--presets A,B]\n\
         \x20            [--workloads X,Y] [--scenario NAME] [--full|--quick]\n\
         \x20            [--seeds N] [--resume] [--engine cycle|event] [--local]\n\
         \x20            [--threads N] [--trace] [--telemetry[=STRIDE]]\n\
         \n\
         Submit a preset x workload grid to a bumpd daemon (--addr) or a\n\
         bumpr cluster router (--router) and print the streamed results as\n\
         CSV (stdout). --local runs the same grid in-process instead\n\
         (byte-identical output). --trace follows the job end to end:\n\
         spans from bumpc, the router, and every backend come back under\n\
         one trace id and land in results/trace_<id>.json (Perfetto) and\n\
         .ndjson (see docs/OBSERVABILITY.md). --telemetry records each\n\
         cell's architectural gauge series (every STRIDE cycles, default\n\
         1024) into results/telemetry_bumpc.csv/.json — byte-identical\n\
         whether the grid ran locally or routed. --scenario selects a\n\
         platform variation\n\
         (see docs/SCENARIOS.md), e.g. ddr4_2400, lpddr4_3200+llc512k, or\n\
         \"mix(websearch:dataserving)\". Defaults: all presets, all\n\
         workloads, default scenario, --quick, single seed,\n\
         --addr 127.0.0.1:4077."
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
