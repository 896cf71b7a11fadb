//! Synthetic server-workload generators for the BuMP reproduction.
//!
//! The paper evaluates CloudSuite 2.0 (Data Serving, Media Streaming,
//! Web Search, Web Serving), TPC-H on a commercial database (Online
//! Analytics), and the Klee SAT solver (Software Testing) under
//! full-system simulation. Those stacks cannot run here, so this crate
//! generates per-core instruction streams that reproduce the paper's
//! *characterization* of them (§III):
//!
//! * **Bimodal granularity** — cores alternate between fine-grained
//!   pointer chases (dependent loads scattered over the dataset: hash
//!   walks, key lookups) and coarse-grained object operations
//!   (sequential scans of multi-block software objects: index pages,
//!   media chunks, database rows, cached web pages).
//! * **Code–data correlation** — each object *type* is accessed by a
//!   small pool of dedicated PCs (the functions that traverse it), so
//!   `(PC, offset)` predicts the spatial footprint.
//! * **Write traffic** — a workload-specific fraction of object
//!   operations populates buffers with stores (write-allocate fetches
//!   now, dirty writebacks later), reproducing Figure 3's 21–38% write
//!   share and Figure 5's write-density profile.
//! * **Working-set pressure** — datasets are orders of magnitude larger
//!   than the LLC, with a small hot set for temporal reuse; Software
//!   Testing interleaves many concurrent scans so thousands of regions
//!   are simultaneously active (the RDTT-thrash case of §V.B).
//!
//! Per-workload parameters were calibrated so the measured region
//! density, write share, and row-locality profiles land in the paper's
//! reported bands (`tests/paper_shape.rs` checks the density bands).
//!
//! # Example
//!
//! ```
//! use bump_workloads::{Workload, WorkloadGen};
//! use bump_types::InstrSource;
//!
//! let mut gen = WorkloadGen::new(Workload::WebSearch, 0, 42);
//! let instr = gen.next_instr().expect("streams are infinite");
//! let _ = instr;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gen;
mod params;

pub use gen::WorkloadGen;
pub use params::{ObjectTypeSpec, WorkloadParams};

/// The six server workloads of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Cassandra-style NoSQL data store under YCSB: key lookups plus a
    /// heavy update stream.
    DataServing,
    /// Darwin-style streaming server: large media files read
    /// sequentially into per-client packet buffers.
    MediaStreaming,
    /// TPC-H query mix (1, 6, 13, 16) on a commercial database:
    /// scan-heavy with join-driven pointer chasing.
    OnlineAnalytics,
    /// Klee SAT solver instances: pointer-rich constraint structures
    /// with many concurrently live allocations.
    SoftwareTesting,
    /// Nutch-style search: inverted-index term lookup (hash walk)
    /// followed by dense index-page scans.
    WebSearch,
    /// Apache/PHP frontend: request parsing, object caching, dynamic
    /// page assembly.
    WebServing,
}

impl Workload {
    /// All six workloads in the paper's figure order.
    pub fn all() -> [Workload; 6] {
        [
            Workload::DataServing,
            Workload::MediaStreaming,
            Workload::OnlineAnalytics,
            Workload::SoftwareTesting,
            Workload::WebSearch,
            Workload::WebServing,
        ]
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DataServing => "Data Serving",
            Workload::MediaStreaming => "Media Streaming",
            Workload::OnlineAnalytics => "Online Analytics",
            Workload::SoftwareTesting => "Software Testing",
            Workload::WebSearch => "Web Search",
            Workload::WebServing => "Web Serving",
        }
    }

    /// Parses a workload from its figure name, matched with
    /// [`normalized_name`] (so the CLI and the wire protocol accept
    /// `Web Search`, `web-search`, or `websearch` alike).
    pub fn from_name(s: &str) -> Option<Workload> {
        let wanted = normalized_name(s);
        Workload::all()
            .into_iter()
            .find(|w| normalized_name(w.name()) == wanted)
    }

    /// The calibrated generator parameters for this workload.
    pub fn params(self) -> WorkloadParams {
        params::for_workload(self)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// The canonical implementation moved to `bump_types` (so
// `MemSpec::from_name` can share it without a dependency cycle);
// re-exported here to keep the historical `bump_workloads` path alive.
pub use bump_types::normalized_name;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_round_trips_and_forgives_separators() {
        for w in Workload::all() {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("web-search"), Some(Workload::WebSearch));
        assert_eq!(Workload::from_name("WEBSEARCH"), Some(Workload::WebSearch));
        assert_eq!(
            Workload::from_name("data_serving"),
            Some(Workload::DataServing)
        );
        assert_eq!(Workload::from_name("no such workload"), None);
    }

    #[test]
    fn all_lists_six_distinct_workloads() {
        let all = Workload::all();
        assert_eq!(all.len(), 6);
        let names: std::collections::HashSet<_> = all.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn params_are_self_consistent() {
        for w in Workload::all() {
            let p = w.params();
            assert!(p.coarse_fraction > 0.0 && p.coarse_fraction < 1.0, "{w}");
            assert!(!p.object_types.is_empty(), "{w}");
            assert!(p.interleave >= 1, "{w}");
            assert!(p.dataset_regions > p.hot_regions, "{w}");
            let wsum: f64 = p.object_types.iter().map(|t| t.weight).sum();
            assert!(wsum > 0.0, "{w}");
        }
    }

    #[test]
    fn software_testing_has_the_largest_interleave() {
        let st = Workload::SoftwareTesting.params().interleave;
        for w in Workload::all() {
            if w != Workload::SoftwareTesting {
                assert!(st > w.params().interleave, "{w}");
            }
        }
    }
}
