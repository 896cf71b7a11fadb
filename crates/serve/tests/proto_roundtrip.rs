//! Property tests for the wire protocol: every frame the daemon or
//! client can construct must survive encode → parse exactly, and
//! malformed lines must be rejected, not misread.

use bump_bench::experiment::MetricRow;
use bump_serve::json::Json;
use bump_serve::proto::{CellResult, Frame, SubmitBatch, SubmitSpec};
use bump_serve::trace::{Span, SpanId, TraceContext, TraceId};
use bump_sim::{Engine, Preset, RunOptions, Scenario};
use bump_workloads::Workload;
use proptest::prelude::*;

/// Characters that stress JSON string escaping: quotes, backslashes,
/// control characters, separators, and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{01}', '/', '{', '}',
    '[', ']', ':', ',', 'é', '中', '🦀', '\u{2028}',
];

fn arb_string() -> impl proptest::strategy::Strategy<Value = String> {
    prop::collection::vec((0usize..PALETTE.len()).prop_map(|i| PALETTE[i]), 0..16)
        .prop_map(|chars| chars.into_iter().collect())
}

fn arb_preset() -> impl proptest::strategy::Strategy<Value = Preset> {
    (0usize..Preset::all().len()).prop_map(|i| Preset::all()[i])
}

fn arb_workload() -> impl proptest::strategy::Strategy<Value = Workload> {
    (0usize..Workload::all().len()).prop_map(|i| Workload::all()[i])
}

#[allow(clippy::type_complexity)]
fn arb_options() -> impl proptest::strategy::Strategy<Value = RunOptions> {
    (
        (1usize..64, any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((cores, warmup, measure), (max_cycles, seed), (small_llc, event))| RunOptions {
                cores,
                warmup_instructions: warmup,
                measure_instructions: measure,
                max_cycles,
                seed,
                small_llc,
                engine: if event { Engine::Event } else { Engine::Cycle },
            },
        )
}

/// A palette of scenarios spanning every axis (memory spec, LLC
/// capacity, workload mix) plus the default.
fn arb_scenario() -> impl proptest::strategy::Strategy<Value = Scenario> {
    let names = [
        "",
        "ddr4_2400",
        "lpddr4_3200",
        "llc8m",
        "llc512k",
        "ddr4_2400+llc16m",
        "lpddr4_3200+llc768k",
        "mix(websearch:dataserving)",
        "lpddr4_3200+llc4m+mix(mediastreaming:websearch:webserving)",
    ];
    (0usize..names.len())
        .prop_map(move |i| Scenario::from_name(names[i]).expect("palette scenarios parse"))
}

fn arb_submit() -> impl proptest::strategy::Strategy<Value = SubmitSpec> {
    (
        prop::collection::vec(arb_preset(), 1..5),
        prop::collection::vec(arb_workload(), 1..4),
        arb_options(),
        arb_scenario(),
        (1usize..=1024, any::<bool>()),
    )
        .prop_map(
            |(presets, workloads, options, scenario, (seeds, resume))| SubmitSpec {
                presets,
                workloads,
                options,
                scenario,
                seeds,
                resume,
            },
        )
}

/// A metric row over the full domain of every numeric column (NaN,
/// infinities and 300-digit fixed-point texts included).
fn arb_metric_row() -> impl proptest::strategy::Strategy<Value = MetricRow> {
    (
        arb_string().prop_map(|s| s.replace(',', ";")),
        (arb_preset(), arb_workload()),
        prop::collection::vec(any::<u64>(), 5..6),
        prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 10..11),
    )
        .prop_map(|(label, (preset, workload), n, x)| MetricRow {
            label,
            preset: preset.name(),
            workload: workload.name(),
            cores: n[0] as usize,
            seed: n[1],
            cycles: n[2],
            instructions: n[3],
            ipc: x[0],
            row_hit: x[1],
            ideal_row_hit: x[2],
            energy_per_access_nj: x[3],
            server_energy_j: x[4],
            dram_accesses: n[4],
            write_fraction: x[5],
            predicted_read_fraction: x[6],
            read_overfetch_fraction: x[7],
            predicted_write_fraction: x[8],
            extra_writeback_fraction: x[9],
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn submit_frames_round_trip(spec in arb_submit()) {
        let frame = Frame::Submit(spec.into());
        let line = frame.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
        prop_assert!(!line.contains("\"jobs\""), "single submissions stay flat: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(frame));
    }

    #[test]
    fn batched_submit_frames_round_trip(
        specs in prop::collection::vec(arb_submit(), 1..5),
    ) {
        let frame = Frame::Submit(SubmitBatch {
            jobs: specs.clone(),
            trace: None,
            telemetry: None,
        });
        let line = frame.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
        prop_assert_eq!(line.contains("\"jobs\""), specs.len() > 1,
            "only multi-job batches use the jobs form");
        prop_assert_eq!(Frame::parse(&line), Ok(frame));
    }

    #[test]
    fn health_frames_round_trip(
        workers in any::<u64>(),
        results in any::<u64>(),
        addr in arb_string(),
        backends in any::<u64>(),
    ) {
        for frame in [
            Frame::Ping,
            Frame::Pong { workers, results },
            Frame::RegisterBackend { addr: addr.clone() },
            Frame::BackendRegistered { addr, backends },
        ] {
            let line = frame.encode();
            prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
            prop_assert_eq!(Frame::parse(&line), Ok(frame));
        }
    }

    #[test]
    fn cell_result_frames_round_trip(
        ids in (any::<u64>(), any::<u64>()),
        label in arb_string(),
        cached in any::<bool>(),
        row in arb_metric_row(),
    ) {
        let (job, index) = ids;
        let csv = row.to_csv();
        let frame = Frame::CellResult(CellResult { job, index, label, cached, csv });
        let line = frame.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
        // The row object is rendered from the CSV, byte-identical to
        // what `MetricRow::to_json` gives for the row itself.
        let rendered = Json::parse(&line).unwrap().get("row").cloned().unwrap();
        prop_assert_eq!(rendered.to_string(), row.to_json().to_string());
        prop_assert_eq!(Frame::parse(&line), Ok(frame));
    }

    #[test]
    fn bookkeeping_frames_round_trip(
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        message in arb_string(),
    ) {
        let (job, cells, cached) = counters;
        for frame in [
            Frame::JobAccepted { job, cells, cached },
            Frame::JobDone { job, cells },
            Frame::Error { message },
        ] {
            let line = frame.encode();
            prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
            prop_assert_eq!(Frame::parse(&line), Ok(frame));
        }
    }

    #[test]
    fn arbitrary_garbage_never_parses_as_a_frame(junk in arb_string()) {
        // Anything that parses must at minimum be a JSON object with a
        // known type tag — free-form text must be rejected.
        if let Ok(frame) = Frame::parse(&junk) {
            // The only strings that can parse are real frame objects;
            // re-encoding must round-trip (no lossy acceptance).
            prop_assert_eq!(Frame::parse(&frame.encode()), Ok(frame));
        }
    }
}

#[test]
fn malformed_frames_are_rejected_with_reasons() {
    let cases: &[(&str, &str)] = &[
        ("", "malformed JSON"),
        ("{\"type\":\"submit\"}", "presets"),
        ("[1,2,3]", "type"),
        ("{\"type\":\"cell_result\",\"job\":1}", "index"),
        (
            "{\"type\":\"submit\",\"presets\":[\"Base-open\"],\"workloads\":[\"Web Search\"],\
             \"options\":{\"cores\":0,\"warmup_instructions\":1,\"measure_instructions\":1,\
             \"max_cycles\":1,\"seed\":1,\"small_llc\":true,\"engine\":\"event\"}}",
            "cores",
        ),
        (
            "{\"type\":\"submit\",\"presets\":[\"Base-open\"],\"workloads\":[\"Web Search\"],\
             \"options\":{\"cores\":1,\"warmup_instructions\":1,\"measure_instructions\":1,\
             \"max_cycles\":1,\"seed\":1,\"small_llc\":true,\"engine\":\"event\"},\"seeds\":0}",
            "seeds",
        ),
        (
            "{\"type\":\"job_done\",\"job\":1,\"cells\":2} trailing",
            "malformed JSON",
        ),
        ("{\"type\":\"submit\",\"jobs\":[]}", "non-empty"),
        ("{\"type\":\"submit\",\"jobs\":[1]}", "objects"),
        (
            // The batched form carries nothing but jobs.
            "{\"type\":\"submit\",\"jobs\":[],\"resume\":true}",
            "resume",
        ),
        ("{\"type\":\"ping\",\"extra\":1}", "extra"),
        ("{\"type\":\"register_backend\"}", "addr"),
    ];
    for (line, needle) in cases {
        let err = Frame::parse(line).expect_err(&format!("must reject {line:?}"));
        assert!(
            err.contains(needle),
            "error for {line:?} should mention {needle:?}, got {err:?}"
        );
    }
}

fn arb_trace() -> impl proptest::strategy::Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hi, lo, parent)| TraceContext {
        trace: TraceId(((hi as u128) << 64) | lo as u128),
        parent: SpanId(parent),
    })
}

fn arb_span() -> impl proptest::strategy::Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
        (arb_string(), arb_string()),
        (any::<u64>(), any::<u64>()),
        prop::collection::vec((arb_string(), arb_string()), 0..4),
    )
        .prop_map(
            |((trace, id, parent, has_parent), (name, service), (start, dur), attrs)| Span {
                trace: TraceId(trace as u128),
                id: SpanId(id),
                parent: has_parent.then_some(SpanId(parent)),
                name,
                service,
                start_us: start,
                end_us: start.saturating_add(dur),
                attrs,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trace context is optional wire state: a traced submission
    /// must round-trip exactly, and an untraced one must encode
    /// without the key at all (old daemons reject unknown keys, so
    /// absence — not null — is the compatibility contract).
    #[test]
    fn traced_submissions_round_trip_and_untraced_stay_byte_identical(
        specs in prop::collection::vec(arb_submit(), 1..3),
        trace in arb_trace(),
    ) {
        let traced = Frame::Submit(SubmitBatch { jobs: specs.clone(), trace: Some(trace), telemetry: None });
        let line = traced.encode();
        prop_assert!(line.contains("\"trace\""), "traced form carries the context: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(traced));

        let untraced = Frame::Submit(SubmitBatch { jobs: specs, trace: None, telemetry: None });
        let line = untraced.encode();
        prop_assert!(!line.contains("\"trace\""), "untraced form omits the key: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(untraced));
    }

    #[test]
    fn trace_spans_frames_round_trip(
        job in any::<u64>(),
        spans in prop::collection::vec(arb_span(), 0..5),
    ) {
        let frame = Frame::TraceSpans { job, spans };
        let line = frame.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(frame));
    }
}

/// The exact submit line a pre-tracing client sends must still parse
/// (absent-field back-compat), and a malformed trace context must be
/// rejected with a reason, not misread as untraced.
#[test]
fn pre_tracing_submit_lines_still_parse_and_bad_contexts_are_rejected() {
    let legacy = "{\"type\":\"submit\",\"presets\":[\"Base-open\"],\"workloads\":[\"Web Search\"],\
         \"options\":{\"cores\":1,\"warmup_instructions\":1,\"measure_instructions\":1,\
         \"max_cycles\":1,\"seed\":1,\"small_llc\":true,\"engine\":\"event\"}}";
    let parsed = Frame::parse(legacy).expect("legacy submit parses");
    match &parsed {
        Frame::Submit(batch) => {
            assert_eq!(batch.trace, None);
            assert_eq!(batch.telemetry, None);
        }
        other => panic!("parsed as {other:?}"),
    }
    // Round-trip stays in the legacy shape: no optional keys appear.
    assert!(!parsed.encode().contains("\"trace\""));
    assert!(!parsed.encode().contains("\"telemetry\""));

    let traced = legacy.replacen(
        "\"type\":\"submit\"",
        "\"type\":\"submit\",\"trace\":\"not-a-context\"",
        1,
    );
    let err = Frame::parse(&traced).expect_err("bad trace context must be rejected");
    assert!(err.contains("trace"), "{err}");
}

fn arb_series() -> impl proptest::strategy::Strategy<Value = bump_sim::TelemetrySeries> {
    use bump_sim::{TelemetryPoint, TelemetrySeries};
    (
        (1u64..=4096, 1u32..4, 1u32..8, 0usize..6),
        prop::collection::vec(
            (
                prop::collection::vec(0u64..50, 0..8),
                (0u64..50, 0u64..50, 0u64..50),
                (0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50),
            ),
            6..7,
        ),
    )
        .prop_map(|((stride, channels, cores, n), raw)| {
            // Points are built cumulatively so the series honours the
            // sampler's invariants (cycle 0 start, stride multiples,
            // monotone counters) — validate() must accept it.
            let ch = channels as usize;
            let mut points: Vec<TelemetryPoint> = Vec::new();
            for (i, (col_deltas, (mshr, noc, parked), counters)) in
                raw.into_iter().take(n).enumerate()
            {
                let mut p = points.last().cloned().unwrap_or(TelemetryPoint {
                    dram_columns: vec![0; ch],
                    dram_row_hits: vec![0; ch],
                    ..TelemetryPoint::default()
                });
                p.cycle = i as u64 * stride;
                for c in 0..ch {
                    let d = col_deltas.get(c).copied().unwrap_or(1);
                    p.dram_columns[c] += d;
                    p.dram_row_hits[c] += d / 2;
                }
                let (pi, pu, stall, _, _) = counters;
                p.prefetch_issued += pi;
                p.prefetch_useful += pu;
                p.load_stall_cycles += stall;
                p.mshr_occupancy = mshr;
                p.noc_queue_depth = noc;
                p.storm_parked = parked;
                points.push(p);
            }
            let series = TelemetrySeries {
                stride,
                channels,
                cores,
                points,
            };
            series.validate().expect("generated series is well-formed");
            series
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The telemetry stride is optional wire state exactly like the
    /// trace context: instrumented submissions round-trip, and
    /// uninstrumented ones omit the key entirely (absence — not null —
    /// keeps pre-telemetry daemons accepting the frames).
    #[test]
    fn telemetry_submissions_round_trip_and_plain_stay_byte_identical(
        specs in prop::collection::vec(arb_submit(), 1..3),
        stride in 1u64..u64::MAX,
    ) {
        let on = Frame::Submit(SubmitBatch {
            jobs: specs.clone(),
            trace: None,
            telemetry: Some(stride),
        });
        let line = on.encode();
        prop_assert!(line.contains("\"telemetry\""), "instrumented form carries the stride: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(on));

        let off = Frame::Submit(SubmitBatch { jobs: specs, trace: None, telemetry: None });
        let line = off.encode();
        prop_assert!(!line.contains("\"telemetry\""), "plain form omits the key: {line}");
        prop_assert_eq!(Frame::parse(&line), Ok(off));
    }

    /// `cell_telemetry` frames round-trip, and the embedded series
    /// object is byte-identical to the sim crate's `series_to_json`
    /// rendering — the contract that makes a routed job's telemetry
    /// artifacts match a local run's without re-serialization.
    #[test]
    fn cell_telemetry_frames_round_trip(
        job in any::<u64>(),
        index in any::<u64>(),
        series in arb_series(),
    ) {
        let rendered = bump_sim::series_to_json(&series).to_string();
        let frame = Frame::CellTelemetry { job, index, series };
        let line = frame.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {line}");
        prop_assert!(
            line.contains(&rendered),
            "wire series must be the series_to_json bytes: {line}"
        );
        prop_assert_eq!(Frame::parse(&line), Ok(frame));
    }
}

/// A `cell_telemetry` frame whose series violates the sampler's
/// invariants (here: a cycle that is not a stride multiple) must be
/// rejected as torn, not silently accepted — a half-written series is
/// worse than none.
#[test]
fn torn_telemetry_series_are_rejected() {
    let good = Frame::CellTelemetry {
        job: 7,
        index: 2,
        series: bump_sim::TelemetrySeries {
            stride: 1024,
            channels: 1,
            cores: 2,
            points: vec![
                bump_sim::TelemetryPoint {
                    dram_columns: vec![3],
                    dram_row_hits: vec![1],
                    ..bump_sim::TelemetryPoint::default()
                },
                bump_sim::TelemetryPoint {
                    cycle: 1024,
                    dram_columns: vec![5],
                    dram_row_hits: vec![2],
                    ..bump_sim::TelemetryPoint::default()
                },
            ],
        },
    };
    let line = good.encode();
    assert_eq!(Frame::parse(&line), Ok(good));

    // Tear the second point off its stride grid.
    let torn = line.replacen("\"cycle\":1024", "\"cycle\":1000", 1);
    let err = Frame::parse(&torn).expect_err("torn series must be rejected");
    assert!(err.contains("torn telemetry series"), "{err}");

    // An unsupported schema tag is likewise a hard error.
    let wrong = line.replacen("sim-telemetry-v1", "sim-telemetry-v0", 1);
    let err = Frame::parse(&wrong).expect_err("unknown schema must be rejected");
    assert!(err.contains("unsupported telemetry schema"), "{err}");
}
