//! Sim-time telemetry: a bounded time-series of architectural gauges.
//!
//! A [`TelemetrySampler`] snapshots a small set of cumulative counters
//! and instantaneous gauges at a fixed stride of *simulated* cycles —
//! per-channel DRAM column/row-hit activity, LLC MSHR occupancy, NOC
//! queue depth, prefetch issue/usefulness, retry-storm park depth, and
//! the aggregate ROB-head load stall — so a run's memory behavior can
//! be read as a flight recording instead of one end-of-run number.
//!
//! Sampling is keyed on the measured-cycle counter: `System::run` ends
//! each engine run at the sampler's next due cycle
//! ([`TelemetrySampler::next_at`]) and takes the sample between runs,
//! so the cycle-accurate oracle and the event-driven engine observe
//! every gauge at identical instants, in a fully accounted state, and
//! the two series are byte-identical (`tests/telemetry_equivalence.rs`).
//! No engine loop reads the sampler. The series is bounded: when it
//! outgrows [`MAX_POINTS`], every other point is dropped and the stride
//! doubles — a deterministic compaction, so the bound never breaks
//! engine equivalence.
//!
//! Snapshots store *cumulative* counters (since the last stats reset),
//! not per-window deltas: differencing is left to the exporters.

use crate::json::{field_str, field_u64, reject_unknown_keys, Json};
use std::fmt::Write as _;

/// Version tag of the JSON rendering ([`series_to_json`]).
pub const TELEMETRY_SCHEMA: &str = "sim-telemetry-v1";

/// Default sampling stride in simulated cycles.
pub const DEFAULT_STRIDE: u64 = 1024;

/// Point-count bound per series: pushing past this halves the series
/// and doubles the stride.
pub const MAX_POINTS: usize = 256;

/// One sample: cumulative counters (since the last stats reset) and
/// instantaneous gauges, observed at the end of cycle `cycle`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryPoint {
    /// Measured cycle this point was captured at (0 = the reset-time
    /// base snapshot; all others are multiples of the final stride).
    pub cycle: u64,
    /// Per-channel DRAM column commands issued, cumulative from the
    /// last stats reset (the memory controller zeroes them there).
    pub dram_columns: Vec<u64>,
    /// Per-channel columns that hit the open row at issue, cumulative
    /// from the last stats reset.
    pub dram_row_hits: Vec<u64>,
    /// LLC MSHRs in use (instantaneous).
    pub mshr_occupancy: u64,
    /// NOC payloads queued for future delivery (instantaneous; parked
    /// retry batches count their live members, matching the oracle's
    /// per-request events).
    pub noc_queue_depth: u64,
    /// Speculative DRAM reads issued (stride + SMS + bulk +
    /// full-region), cumulative.
    pub prefetch_issued: u64,
    /// Speculative fetches that served demand (covered + late-merged),
    /// cumulative.
    pub prefetch_useful: u64,
    /// Refused Full-region retries currently parked (instantaneous).
    pub storm_parked: u64,
    /// Core-cycles with retirement blocked on a load at the ROB head,
    /// summed over cores, cumulative.
    pub load_stall_cycles: u64,
}

/// A completed, bounded gauge series for one simulation cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySeries {
    /// Final sampling stride in cycles (≥ the requested stride;
    /// doubled by each compaction).
    pub stride: u64,
    /// DRAM channel count (length of each point's per-channel vectors).
    pub channels: u32,
    /// Core count (denominator of the stall-fraction derivation).
    pub cores: u32,
    /// The samples, cycle-ascending; `points[0]` is the base snapshot
    /// at cycle 0.
    pub points: Vec<TelemetryPoint>,
}

impl TelemetrySeries {
    /// Structural validity: per-channel vectors sized to `channels`,
    /// cycles strictly increasing multiples of `stride` from a cycle-0
    /// base, cumulative counters monotone. The wire decoder rejects
    /// torn series with the message this returns.
    pub fn validate(&self) -> Result<(), String> {
        if self.stride == 0 {
            return Err("telemetry stride must be positive".into());
        }
        let ch = self.channels as usize;
        let mut prev: Option<&TelemetryPoint> = None;
        for (i, p) in self.points.iter().enumerate() {
            if p.dram_columns.len() != ch || p.dram_row_hits.len() != ch {
                return Err(format!(
                    "telemetry point {i} has {} / {} channel cells, series declares {ch}",
                    p.dram_columns.len(),
                    p.dram_row_hits.len()
                ));
            }
            if i == 0 {
                if p.cycle != 0 {
                    return Err(format!(
                        "telemetry series must start at cycle 0, got {}",
                        p.cycle
                    ));
                }
            } else if p.cycle % self.stride != 0 {
                return Err(format!(
                    "telemetry point {i} at cycle {} is not a stride ({}) multiple",
                    p.cycle, self.stride
                ));
            }
            if let Some(q) = prev {
                if p.cycle <= q.cycle {
                    return Err(format!(
                        "telemetry cycles must increase: {} after {}",
                        p.cycle, q.cycle
                    ));
                }
                let monotone = p.prefetch_issued >= q.prefetch_issued
                    && p.prefetch_useful >= q.prefetch_useful
                    && p.load_stall_cycles >= q.load_stall_cycles
                    && p.dram_columns
                        .iter()
                        .zip(&q.dram_columns)
                        .all(|(a, b)| a >= b)
                    && p.dram_row_hits
                        .iter()
                        .zip(&q.dram_row_hits)
                        .all(|(a, b)| a >= b);
                if !monotone {
                    return Err(format!(
                        "telemetry point {i} regresses a cumulative counter"
                    ));
                }
            }
            prev = Some(p);
        }
        Ok(())
    }
}

/// Collects [`TelemetryPoint`]s at a fixed cycle stride, compacting in
/// place when the series outgrows [`MAX_POINTS`].
#[derive(Debug)]
pub struct TelemetrySampler {
    /// The stride originally requested (restored on reset, so the
    /// measurement window's resolution is independent of warmup length).
    base_stride: u64,
    stride: u64,
    channels: u32,
    cores: u32,
    points: Vec<TelemetryPoint>,
}

impl TelemetrySampler {
    /// A sampler at `stride` cycles (positive) for a machine with
    /// `channels` DRAM channels and `cores` cores.
    pub fn new(stride: u64, channels: u32, cores: u32) -> Self {
        assert!(stride > 0, "telemetry stride must be positive");
        TelemetrySampler {
            base_stride: stride,
            stride,
            channels,
            cores,
            points: Vec::new(),
        }
    }

    /// Channel count the sampler was built for.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// The cycle the next sample is due at (the caller's trigger key).
    pub fn next_at(&self) -> u64 {
        match self.points.last() {
            Some(p) => p.cycle + self.stride,
            None => 0,
        }
    }

    /// Records one point (which must be for [`TelemetrySampler::
    /// next_at`]'s cycle) and returns the next due cycle. Compaction —
    /// drop every other point, double the stride — happens here, purely
    /// as a function of the series so far, so both engines compact at
    /// identical points.
    pub fn record(&mut self, point: TelemetryPoint) -> u64 {
        debug_assert_eq!(point.cycle, self.next_at());
        debug_assert_eq!(point.dram_columns.len(), self.channels as usize);
        self.points.push(point);
        if self.points.len() > MAX_POINTS {
            let mut keep = 0usize;
            self.points.retain(|_| {
                let k = keep.is_multiple_of(2);
                keep += 1;
                k
            });
            self.stride *= 2;
        }
        self.next_at()
    }

    /// Drops every recorded point and restores the requested stride
    /// (the warmup/measurement boundary). The caller re-captures the
    /// cycle-0 base snapshot after resetting the counters it samples.
    pub fn reset(&mut self) {
        self.points.clear();
        self.stride = self.base_stride;
    }

    /// The completed series.
    pub fn series(&self) -> TelemetrySeries {
        TelemetrySeries {
            stride: self.stride,
            channels: self.channels,
            cores: self.cores,
            points: self.points.clone(),
        }
    }
}

/// The `sim-telemetry-v1` JSON value of one series (insertion-ordered
/// keys, integers only). It is the wire format's `series` value and
/// the building block of the `results/telemetry_<name>.json`
/// artifacts, so routed and local runs produce byte-identical files;
/// [`series_from_json`] is its strict reader.
pub fn series_to_json(s: &TelemetrySeries) -> Json {
    let nums = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
    let point = |p: &TelemetryPoint| {
        Json::obj(vec![
            ("cycle", Json::from(p.cycle)),
            ("dram_columns", nums(&p.dram_columns)),
            ("dram_row_hits", nums(&p.dram_row_hits)),
            ("mshr", Json::from(p.mshr_occupancy)),
            ("noc_depth", Json::from(p.noc_queue_depth)),
            ("prefetch_issued", Json::from(p.prefetch_issued)),
            ("prefetch_useful", Json::from(p.prefetch_useful)),
            ("storm_parked", Json::from(p.storm_parked)),
            ("load_stall_cycles", Json::from(p.load_stall_cycles)),
        ])
    };
    Json::obj(vec![
        ("schema", Json::from(TELEMETRY_SCHEMA)),
        ("stride", Json::from(s.stride)),
        ("channels", Json::from(u64::from(s.channels))),
        ("cores", Json::from(u64::from(s.cores))),
        ("points", Json::Arr(s.points.iter().map(point).collect())),
    ])
}

/// Parses a [`series_to_json`] value, strictly: unknown keys (at the
/// series and point level), a wrong schema tag, and torn series
/// ([`TelemetrySeries::validate`]) are all errors.
pub fn series_from_json(value: &Json) -> Result<TelemetrySeries, String> {
    reject_unknown_keys(value, &["schema", "stride", "channels", "cores", "points"])?;
    let schema = field_str(value, "schema")?;
    if schema != TELEMETRY_SCHEMA {
        return Err(format!("unsupported telemetry schema {schema:?}"));
    }
    let field_u32 = |key: &str| -> Result<u32, String> {
        u32::try_from(field_u64(value, key)?).map_err(|_| format!("field {key:?} out of range"))
    };
    let points = value
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing array field \"points\"")?
        .iter()
        .map(|p| {
            reject_unknown_keys(
                p,
                &[
                    "cycle",
                    "dram_columns",
                    "dram_row_hits",
                    "mshr",
                    "noc_depth",
                    "prefetch_issued",
                    "prefetch_useful",
                    "storm_parked",
                    "load_stall_cycles",
                ],
            )?;
            let nums = |key: &str| -> Result<Vec<u64>, String> {
                p.get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("missing array field {key:?}"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| format!("field {key:?} holds a non-integer"))
                    })
                    .collect()
            };
            Ok(TelemetryPoint {
                cycle: field_u64(p, "cycle")?,
                dram_columns: nums("dram_columns")?,
                dram_row_hits: nums("dram_row_hits")?,
                mshr_occupancy: field_u64(p, "mshr")?,
                noc_queue_depth: field_u64(p, "noc_depth")?,
                prefetch_issued: field_u64(p, "prefetch_issued")?,
                prefetch_useful: field_u64(p, "prefetch_useful")?,
                storm_parked: field_u64(p, "storm_parked")?,
                load_stall_cycles: field_u64(p, "load_stall_cycles")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let series = TelemetrySeries {
        stride: field_u64(value, "stride")?,
        channels: field_u32("channels")?,
        cores: field_u32("cores")?,
        points,
    };
    series
        .validate()
        .map_err(|e| format!("torn telemetry series: {e}"))?;
    Ok(series)
}

/// The JSON document for a set of cells' series: a `sim-telemetry-v1`
/// envelope with one `{"cell":i,"label":...,"series":{...}}` entry per
/// cell, cell-index ascending. `cells` must be pre-sorted by index.
pub fn cells_to_json(cells: &[(usize, &str, &TelemetrySeries)]) -> Json {
    let cell = |&(index, label, series): &(usize, &str, &TelemetrySeries)| {
        Json::obj(vec![
            ("cell", Json::from(index)),
            ("label", Json::from(label)),
            ("series", series_to_json(series)),
        ])
    };
    Json::obj(vec![
        ("schema", Json::from(TELEMETRY_SCHEMA)),
        ("cells", Json::Arr(cells.iter().map(cell).collect())),
    ])
}

/// CSV header for [`cells_to_csv`] given the channel count: per-window
/// deltas for the cumulative gauges, instants as-is, plus the derived
/// row-hit-rate / accuracy / stall-fraction columns.
pub fn csv_header(channels: u32) -> String {
    let mut out = String::from("cell,label,cycle");
    for c in 0..channels {
        let _ = write!(out, ",dram_columns_ch{c},dram_row_hits_ch{c}");
    }
    out.push_str(
        ",row_hit_rate,mshr,noc_depth,prefetch_issued,prefetch_useful,prefetch_accuracy,\
         storm_parked,load_stall_fraction",
    );
    out
}

/// Renders per-cell series as CSV rows (one per sample window — the
/// base snapshot seeds the differencing and emits no row).
pub fn cells_to_csv(cells: &[(usize, &str, &TelemetrySeries)]) -> String {
    let channels = cells.first().map_or(0, |(_, _, s)| s.channels);
    let mut out = csv_header(channels);
    out.push('\n');
    for (index, label, s) in cells {
        for w in s.points.windows(2) {
            let (prev, p) = (&w[0], &w[1]);
            let _ = write!(out, "{index},{label},{}", p.cycle);
            let mut cols = 0u64;
            let mut hits = 0u64;
            for c in 0..s.channels as usize {
                let dc = p.dram_columns[c] - prev.dram_columns[c];
                let dh = p.dram_row_hits[c] - prev.dram_row_hits[c];
                cols += dc;
                hits += dh;
                let _ = write!(out, ",{dc},{dh}");
            }
            let hit_rate = if cols == 0 {
                0.0
            } else {
                hits as f64 / cols as f64
            };
            let issued = p.prefetch_issued - prev.prefetch_issued;
            let useful = p.prefetch_useful - prev.prefetch_useful;
            let accuracy = if issued == 0 {
                0.0
            } else {
                useful as f64 / issued as f64
            };
            let window = (p.cycle - prev.cycle) * u64::from(s.cores);
            let stall = (p.load_stall_cycles - prev.load_stall_cycles) as f64 / window as f64;
            let _ = write!(
                out,
                ",{hit_rate:.6},{},{},{issued},{useful},{accuracy:.6},{},{stall:.6}",
                p.mshr_occupancy, p.noc_queue_depth, p.storm_parked,
            );
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(cycle: u64, base: u64) -> TelemetryPoint {
        TelemetryPoint {
            cycle,
            dram_columns: vec![base, base + 1],
            dram_row_hits: vec![base / 2, base / 2],
            mshr_occupancy: 3,
            noc_queue_depth: 7,
            prefetch_issued: base * 2,
            prefetch_useful: base,
            storm_parked: 0,
            load_stall_cycles: base * 4,
        }
    }

    fn series(points: Vec<TelemetryPoint>) -> TelemetrySeries {
        TelemetrySeries {
            stride: 64,
            channels: 2,
            cores: 2,
            points,
        }
    }

    #[test]
    fn sampler_strides_and_compacts_deterministically() {
        let mut s = TelemetrySampler::new(64, 2, 2);
        assert_eq!(s.next_at(), 0);
        let mut cycle = 0;
        // Push past the cap: the stride must double and survivors must
        // stay stride-multiples.
        for i in 0..(MAX_POINTS as u64 + 1) {
            let next = s.record(point(cycle, i));
            cycle = next;
        }
        let out = s.series();
        assert_eq!(out.stride, 128);
        assert!(out.points.len() <= MAX_POINTS);
        out.validate().expect("compacted series must stay valid");
        assert_eq!(out.points[0].cycle, 0);
        assert_eq!(out.points[1].cycle, 128);
    }

    #[test]
    fn reset_restores_the_requested_stride() {
        let mut s = TelemetrySampler::new(64, 2, 2);
        let mut cycle = 0;
        for i in 0..(MAX_POINTS as u64 + 1) {
            cycle = s.record(point(cycle, i));
        }
        assert_eq!(s.series().stride, 128);
        s.reset();
        assert_eq!(s.next_at(), 0);
        assert_eq!(s.series().stride, 64);
        assert!(s.series().points.is_empty());
    }

    #[test]
    fn validate_rejects_torn_series() {
        let good = series(vec![point(0, 4), point(64, 5)]);
        good.validate().expect("well-formed series");
        // Channel-count tear.
        let mut torn = good.clone();
        torn.points[1].dram_columns.pop();
        assert!(torn.validate().unwrap_err().contains("channel cells"));
        // Non-monotone cycle.
        let mut torn = good.clone();
        torn.points[1].cycle = 0;
        assert!(torn.validate().is_err());
        // Off-stride cycle.
        let mut torn = good.clone();
        torn.points[1].cycle = 65;
        assert!(torn.validate().unwrap_err().contains("stride"));
        // Regressing cumulative counter.
        let mut torn = good.clone();
        torn.points[1].prefetch_issued = 0;
        assert!(torn.validate().unwrap_err().contains("regresses"));
        // Missing base snapshot.
        let mut torn = good;
        torn.points[0].cycle = 64;
        torn.points[1].cycle = 128;
        assert!(torn.validate().unwrap_err().contains("cycle 0"));
    }

    #[test]
    fn json_rendering_is_single_line_and_tagged() {
        let s = series(vec![point(0, 0), point(64, 5)]);
        let json = series_to_json(&s).to_string();
        assert!(json.starts_with("{\"schema\":\"sim-telemetry-v1\""));
        assert!(!json.contains('\n'));
        assert!(json.contains("\"points\":[{\"cycle\":0,"));
        let parsed = Json::parse(&json).expect("series renders valid JSON");
        assert_eq!(series_from_json(&parsed), Ok(s.clone()));
        let doc = cells_to_json(&[(0, "BuMP/Web Search", &s)]).to_string();
        assert!(doc.contains("\"cell\":0,\"label\":\"BuMP/Web Search\""));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn csv_differencing_derives_window_rates() {
        let s = series(vec![point(0, 0), point(64, 8)]);
        let csv = cells_to_csv(&[(3, "x/y", &s)]);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), csv_header(2));
        let row = lines.next().unwrap();
        // deltas: ch0 columns 8, ch1 columns 8, hits 4+4 of 16 => 0.5;
        // issued 16, useful 8 => accuracy 0.5; stalls 32 / (64*2) = 0.25.
        assert_eq!(
            row,
            "3,x/y,64,8,4,8,4,0.500000,3,7,16,8,0.500000,0,0.250000"
        );
        assert!(lines.next().is_none(), "base snapshot emits no row");
    }
}
