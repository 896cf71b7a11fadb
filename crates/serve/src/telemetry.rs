//! The serving side of sim-time telemetry: a bounded, per-job store of
//! the [`TelemetrySeries`] each cell recorded, kept so an operator (or
//! a dashboard) can fetch a finished job's flight-recorder data over
//! the sniffed-HTTP port — `GET /telemetry/<job>` — after the
//! streaming connection that carried the `cell_telemetry` frames is
//! long gone.
//!
//! Both `bumpd` (executing cells locally) and `bumpr` (re-emitting its
//! backends' series) record here. The store is bounded to the
//! [`MAX_TELEMETRY_JOBS`] most recent jobs — telemetry is a diagnostic
//! ring buffer, not an archive — and the rendering is exactly
//! [`bump_sim::cells_to_json`], so the endpoint's document is
//! byte-identical to the `results/telemetry_*.json` artifact a local
//! run of the same grid writes.

use crate::eventloop::lock_recover;
use bump_sim::TelemetrySeries;
use std::collections::HashMap;
use std::sync::Mutex;

/// Most recent jobs whose series are retained; the oldest job is
/// evicted whole when a new one arrives past the cap.
pub const MAX_TELEMETRY_JOBS: usize = 16;

/// A bounded map of job id → that job's per-cell telemetry series.
#[derive(Debug, Default)]
pub struct TelemetryStore {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Per-job cells as `(grid index, label, series)`, in arrival
    /// order (rendering sorts by index).
    jobs: HashMap<u64, Vec<(u64, String, TelemetrySeries)>>,
    /// Insertion order, oldest first, for eviction.
    order: Vec<u64>,
}

impl TelemetryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cell's series under `job`, evicting the oldest job
    /// if this is a new job past the cap.
    pub fn record(&self, job: u64, index: u64, label: &str, series: TelemetrySeries) {
        let mut inner = lock_recover(&self.inner);
        if !inner.jobs.contains_key(&job) {
            if inner.order.len() >= MAX_TELEMETRY_JOBS {
                let evict = inner.order.remove(0);
                inner.jobs.remove(&evict);
            }
            inner.order.push(job);
            inner.jobs.insert(job, Vec::new());
        }
        let cells = inner.jobs.get_mut(&job).expect("slot just ensured");
        // A failover re-dispatch can re-run a cell; last write wins so
        // the stored series matches the cell_result the client kept.
        cells.retain(|(i, _, _)| *i != index);
        cells.push((index, label.to_string(), series));
    }

    /// Renders `job`'s series as the `sim-telemetry-v1` cells document
    /// (`bump_sim::cells_to_json`, cells sorted by grid index), or
    /// `None` when the job is unknown or recorded no telemetry.
    pub fn render(&self, job: u64) -> Option<String> {
        let inner = lock_recover(&self.inner);
        let mut cells: Vec<&(u64, String, TelemetrySeries)> =
            inner.jobs.get(&job)?.iter().collect();
        if cells.is_empty() {
            return None;
        }
        cells.sort_by_key(|(index, _, _)| *index);
        let refs: Vec<(usize, &str, &TelemetrySeries)> = cells
            .iter()
            .map(|(index, label, series)| (*index as usize, label.as_str(), series))
            .collect();
        Some(format!("{}\n", bump_sim::cells_to_json(&refs)))
    }

    /// Job count currently retained (tests and metrics).
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).order.len()
    }

    /// True when no job has recorded telemetry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_sim::TelemetryPoint;

    fn series(cycle: u64) -> TelemetrySeries {
        TelemetrySeries {
            stride: 1024,
            channels: 1,
            cores: 1,
            points: vec![
                TelemetryPoint {
                    cycle: 0,
                    dram_columns: vec![0],
                    dram_row_hits: vec![0],
                    ..TelemetryPoint::default()
                },
                TelemetryPoint {
                    cycle,
                    dram_columns: vec![cycle],
                    dram_row_hits: vec![cycle / 2],
                    ..TelemetryPoint::default()
                },
            ],
        }
    }

    #[test]
    fn renders_cells_sorted_by_index_and_joins_labels() {
        let store = TelemetryStore::new();
        assert!(store.is_empty());
        store.record(7, 1, "BuMP/Web Search", series(2048));
        store.record(7, 0, "Base-open/Web Search", series(1024));
        let doc = store.render(7).expect("job 7 recorded");
        let zero = doc.find("\"cell\":0").expect("cell 0 present");
        let one = doc.find("\"cell\":1").expect("cell 1 present");
        assert!(zero < one, "cells sorted by grid index: {doc}");
        assert!(doc.contains("\"label\":\"Base-open/Web Search\""));
        assert!(doc.ends_with("]}\n"), "artifact-identical rendering");
        assert!(store.render(8).is_none(), "unknown job renders nothing");
    }

    #[test]
    fn re_recording_a_cell_replaces_and_eviction_drops_oldest_job() {
        let store = TelemetryStore::new();
        store.record(1, 0, "a", series(1024));
        store.record(1, 0, "a", series(4096));
        let doc = store.render(1).unwrap();
        assert!(
            doc.contains("\"cycle\":4096") && !doc.contains("\"cycle\":1024"),
            "failover re-dispatch keeps the last series: {doc}"
        );
        for job in 2..=(MAX_TELEMETRY_JOBS as u64 + 1) {
            store.record(job, 0, "x", series(1024));
        }
        assert_eq!(store.len(), MAX_TELEMETRY_JOBS);
        assert!(store.render(1).is_none(), "oldest job evicted");
        assert!(store.render(2).is_some());
    }
}
