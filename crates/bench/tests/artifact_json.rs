//! Every JSON artifact the reproduction writes parses back with the
//! strict codec, and every field equals the value it was built from.
//!
//! Metric rows and seed summaries are checked against the CSV written
//! beside them, column by column and in column order: a JSON number
//! must equal the CSV text parsed as a number, so the two files can
//! never disagree. The phase profile and the telemetry document are
//! checked against the reports they were rendered from.

use bump_bench::experiment::{run_grid, ExperimentGrid, MetricRow, SeedSummary};
use bump_bench::figures::profile_json;
use bump_sim::json::{Json, Num};
use bump_sim::{
    cells_to_json, series_from_json, Engine, Instruments, Preset, RunOptions, PHASE_NAMES,
};
use bump_workloads::Workload;

/// Flattens nested objects to `outer_inner` keys, in order — the CSV
/// column naming of the seed summary (`ipc` → `ipc_mean`, `ipc_std`).
fn flatten(value: &Json, prefix: &str, out: &mut Vec<(String, Json)>) {
    let Json::Obj(fields) = value else {
        panic!("expected an object, got {value}");
    };
    for (key, v) in fields {
        let name = match prefix {
            "" => key.clone(),
            _ => format!("{prefix}_{key}"),
        };
        match v {
            Json::Obj(_) => flatten(v, &name, out),
            _ => out.push((name, v.clone())),
        }
    }
}

/// Asserts each object of the array `doc` holds exactly the columns of
/// the matching `csv` row, in order, with equal values.
fn assert_matches_csv(doc: &Json, csv: &str) {
    let mut lines = csv.lines();
    let columns: Vec<&str> = lines.next().expect("header").split(',').collect();
    let items = doc.as_arr().expect("an array of rows");
    assert_eq!(items.len(), lines.clone().count());
    for (item, line) in items.iter().zip(lines) {
        let mut fields = Vec::new();
        flatten(item, "", &mut fields);
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, columns, "JSON fields must be the CSV columns");
        for ((key, value), text) in fields.iter().zip(line.split(',')) {
            match value {
                Json::Str(s) => assert_eq!(s, text, "{key}"),
                Json::Num(Num::U64(n)) => assert_eq!(n.to_string(), text, "{key}"),
                Json::Num(Num::F64(x)) => assert_eq!(Some(*x), text.parse().ok(), "{key}"),
                other => panic!("{key}: unexpected value {other}"),
            }
        }
    }
}

/// The integer at `path` below `doc`.
fn int(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(doc, |v, key| v.get(key))?.as_u64()
}

fn cells(doc: &Json) -> &[Json] {
    doc.get("cells").and_then(Json::as_arr).expect("cells")
}

type Check<'a> = Box<dyn Fn(&Json) + 'a>;

#[test]
fn every_artifact_parses_back_to_its_source_values() {
    let options = RunOptions {
        cores: 2,
        warmup_instructions: 20_000,
        measure_instructions: 20_000,
        max_cycles: 2_000_000,
        seed: 42,
        small_llc: true,
        engine: Engine::Event,
    };
    let presets = [Preset::BaseOpen, Preset::Bump];
    let base = ExperimentGrid::cartesian(&presets, &[Workload::WebSearch], options);
    let grid = base.replicate_seeds(2).instrument(Instruments {
        profile: true,
        telemetry: Some(512),
    });
    let results = run_grid(&grid, 1);
    let rows = results.metric_rows();
    let summary = SeedSummary::from_results(&base, &results, 2);
    let series: Vec<_> = results
        .iter()
        .enumerate()
        .map(|(i, (spec, r))| (i, spec.label.as_str(), r.telemetry.as_ref().unwrap()))
        .collect();
    let header = MetricRow::CSV_HEADER;

    // (artifact, document, check of the parsed document)
    let table: Vec<(&str, Json, Check)> = vec![
        (
            "MetricRow",
            Json::Arr(vec![rows[0].to_json()]),
            Box::new(|doc| assert_matches_csv(doc, &format!("{header}\n{}", rows[0].to_csv()))),
        ),
        (
            "GridResults",
            results.to_json(),
            Box::new(|doc| assert_matches_csv(doc, &results.to_csv())),
        ),
        (
            "SeedSummary",
            summary.to_json(),
            Box::new(|doc| assert_matches_csv(doc, &summary.to_csv())),
        ),
        (
            "profile",
            profile_json("fig", &results),
            Box::new(|doc| {
                assert_eq!(
                    doc.get("schema"),
                    Some(&Json::from("engine-phase-profile-v1"))
                );
                assert_eq!(doc.get("figure"), Some(&Json::from("fig")));
                assert_eq!(cells(doc).len(), results.len());
                let mut totals = [(0, 0); PHASE_NAMES.len()];
                for (cell, (spec, report)) in cells(doc).iter().zip(results.iter()) {
                    let profile = report.phase.as_ref().expect("profiling on");
                    assert_eq!(cell.get("label"), Some(&Json::from(spec.label.as_str())));
                    assert_eq!(int(cell, &["total_nanos"]), Some(profile.total_nanos()));
                    for (s, total) in profile.phases.iter().zip(&mut totals) {
                        assert_eq!(int(cell, &["phases", s.name, "nanos"]), Some(s.nanos));
                        assert_eq!(int(cell, &["phases", s.name, "calls"]), Some(s.calls));
                        *total = (total.0 + s.nanos, total.1 + s.calls);
                    }
                }
                for (name, (nanos, calls)) in PHASE_NAMES.iter().zip(totals) {
                    assert_eq!(int(doc, &["totals", name, "nanos"]), Some(nanos));
                    assert_eq!(int(doc, &["totals", name, "calls"]), Some(calls));
                }
                let sum = totals.iter().map(|t| t.0).sum();
                assert_eq!(int(doc, &["total_nanos"]), Some(sum));
            }),
        ),
        (
            "telemetry cells",
            cells_to_json(&series),
            Box::new(|doc| {
                assert_eq!(
                    doc.get("schema"),
                    Some(&Json::from(bump_sim::TELEMETRY_SCHEMA))
                );
                assert_eq!(cells(doc).len(), series.len());
                for (cell, &(index, label, s)) in cells(doc).iter().zip(&series) {
                    assert_eq!(int(cell, &["cell"]), Some(index as u64));
                    assert_eq!(cell.get("label"), Some(&Json::from(label)));
                    assert_eq!(
                        series_from_json(cell.get("series").unwrap()).as_ref(),
                        Ok(s)
                    );
                }
            }),
        ),
    ];

    for (name, doc, check) in &table {
        // The bytes the artifact writers put on disk.
        let parsed = Json::parse(&format!("{doc}\n")).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&parsed, doc, "{name}: the rendering round-trips");
        check(&parsed);
    }
}
