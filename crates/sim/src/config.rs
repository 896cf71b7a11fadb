//! System configurations: one preset per evaluated design point.

use bump::BumpConfig;
use bump_cache::LlcConfig;
use bump_dram::DramConfig;
use bump_types::{CoreParams, Cycle, RegionConfig};
use bump_workloads::Workload;

/// The system design points of the paper's evaluation (§V.A, Figure 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Stride prefetcher, FR-FCFS close-row, block interleaving.
    BaseClose,
    /// Stride prefetcher, FR-FCFS open-row, region interleaving.
    BaseOpen,
    /// Spatial Memory Streaming at the LLC, open-row, region interleaving.
    Sms,
    /// Stride prefetcher plus Virtual Write Queue eager writebacks.
    Vwq,
    /// SMS plus VWQ.
    SmsVwq,
    /// Always-stream strawman (bulk on every miss / dirty eviction).
    FullRegion,
    /// BuMP: predicted bulk reads and writebacks.
    Bump,
}

impl Preset {
    /// All presets in the Figure 13 order.
    pub fn all() -> [Preset; 7] {
        [
            Preset::BaseClose,
            Preset::BaseOpen,
            Preset::Sms,
            Preset::Vwq,
            Preset::SmsVwq,
            Preset::FullRegion,
            Preset::Bump,
        ]
    }

    /// Name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Preset::BaseClose => "Base-close",
            Preset::BaseOpen => "Base-open",
            Preset::Sms => "SMS",
            Preset::Vwq => "VWQ",
            Preset::SmsVwq => "SMS+VWQ",
            Preset::FullRegion => "Full-region",
            Preset::Bump => "BuMP",
        }
    }

    /// Parses a preset from its figure name, matched with
    /// [`bump_workloads::normalized_name`] (so the CLI and the wire
    /// protocol accept `Base-open`, `base_open`, or `baseopen` alike).
    pub fn from_name(s: &str) -> Option<Preset> {
        use bump_workloads::normalized_name;
        let wanted = normalized_name(s);
        Preset::all()
            .into_iter()
            .find(|p| normalized_name(p.name()) == wanted)
    }

    /// Whether this preset uses the stride prefetcher. Per Table II the
    /// degree-4 stride prefetcher is part of the LLC in every system;
    /// only SMS replaces it.
    pub fn has_stride(self) -> bool {
        !self.has_sms()
    }

    /// Whether this preset uses SMS.
    pub fn has_sms(self) -> bool {
        matches!(self, Preset::Sms | Preset::SmsVwq)
    }

    /// Whether this preset uses VWQ eager writebacks.
    pub fn has_vwq(self) -> bool {
        matches!(self, Preset::Vwq | Preset::SmsVwq)
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which simulation loop drives [`crate::System`].
///
/// Both engines execute the *same* per-cycle semantics; the event
/// engine additionally proves — via the `next_event_at` /
/// `classify_idle` horizons of the DRAM channels and cores — that a span
/// of upcoming cycles is null (nothing retires, issues, completes, or
/// schedules) and replays the span's counter updates in O(1) instead
/// of ticking through it. The equivalence suite
/// (`tests/engine_equivalence.rs`) holds the two to byte-identical
/// reports; the cycle engine is the oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Tick every CPU cycle (the oracle; slowest, simplest).
    Cycle,
    /// Fast-forward across provably idle spans (default).
    #[default]
    Event,
}

impl Engine {
    /// Parses a `--engine` CLI value.
    pub fn from_arg(s: &str) -> Option<Engine> {
        match s {
            "cycle" => Some(Engine::Cycle),
            "event" => Some(Engine::Event),
            _ => None,
        }
    }

    /// The CLI / figure-label name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Cycle => "cycle",
            Engine::Event => "event",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The out-of-band instruments a run can switch on. Both are off by
/// default. Neither changes a simulated outcome, so they stay out of
/// [`crate::RunOptions`], whose `Debug` rendering is the serving tier's
/// journal and cache identity: an instrumented cell shares its identity
/// (and its result rows) with the plain one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Instruments {
    /// The engine phase profiler: the report's `phase` is `Some` and
    /// covers the measurement window only.
    pub profile: bool,
    /// The sim-time telemetry sampler at this stride in measured cycles
    /// (positive; the CLI's bare `--telemetry` selects
    /// [`crate::DEFAULT_STRIDE`]): the report's `telemetry` holds the
    /// measurement window's gauge series (the sampler resets at the
    /// warmup boundary).
    pub telemetry: Option<u64>,
}

/// Complete system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Which design point to build.
    pub preset: Preset,
    /// Which workload to run.
    pub workload: Workload,
    /// Virtualized-server mode (§VI): assign workloads round-robin to
    /// cores instead of running `workload` everywhere. `None` runs the
    /// homogeneous configuration the paper evaluates.
    pub workload_mix: Option<Vec<Workload>>,
    /// Number of cores (paper: 16).
    pub cores: usize,
    /// Workload seed (streams are deterministic given the seed).
    pub seed: u64,
    /// Core microarchitecture.
    pub core_params: CoreParams,
    /// LLC configuration.
    pub llc: LlcConfig,
    /// Memory system configuration (policy/interleaving set by preset).
    pub dram: DramConfig,
    /// BuMP configuration (used by `Preset::Bump` and `FullRegion`).
    pub bump: BumpConfig,
    /// NOC one-way latency.
    pub noc_latency: Cycle,
    /// Which simulation loop to run (cycle-accurate oracle vs
    /// event-driven fast-forwarding; both are report-identical).
    pub engine: Engine,
    /// Instruments [`crate::System::new`] switches on; off by default.
    pub instruments: Instruments,
}

impl SystemConfig {
    /// The paper's 16-core configuration for `preset` × `workload`.
    pub fn paper(preset: Preset, workload: Workload) -> Self {
        let dram = match preset {
            Preset::BaseClose => DramConfig::paper_close_row(),
            _ => DramConfig::paper_open_row(),
        };
        SystemConfig {
            preset,
            workload,
            workload_mix: None,
            cores: 16,
            seed: 42,
            core_params: CoreParams::paper(),
            llc: LlcConfig::paper(),
            dram,
            bump: BumpConfig::paper(),
            noc_latency: 5,
            engine: Engine::default(),
            instruments: Instruments::default(),
        }
    }

    /// The region geometry the memory controller interleaves on.
    pub fn region(&self) -> RegionConfig {
        self.bump.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_from_name_round_trips_and_forgives_separators() {
        for p in Preset::all() {
            assert_eq!(Preset::from_name(p.name()), Some(p));
        }
        assert_eq!(Preset::from_name("base open"), Some(Preset::BaseOpen));
        assert_eq!(Preset::from_name("smsvwq"), Some(Preset::SmsVwq));
        assert_eq!(Preset::from_name("bump"), Some(Preset::Bump));
        assert_eq!(Preset::from_name("warp"), None);
    }

    #[test]
    fn presets_name_all_figure13_systems() {
        let names: Vec<&str> = Preset::all().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "Base-close",
                "Base-open",
                "SMS",
                "VWQ",
                "SMS+VWQ",
                "Full-region",
                "BuMP"
            ]
        );
    }

    #[test]
    fn base_close_uses_close_row_block_interleaving() {
        use bump_dram::RowPolicy;
        use bump_types::Interleaving;
        let c = SystemConfig::paper(Preset::BaseClose, Workload::WebSearch);
        assert_eq!(c.dram.policy, RowPolicy::Close);
        assert_eq!(c.dram.interleaving, Interleaving::Block);
        let o = SystemConfig::paper(Preset::Bump, Workload::WebSearch);
        assert_eq!(o.dram.policy, RowPolicy::Open);
        assert_eq!(o.dram.interleaving, Interleaving::Region);
    }

    #[test]
    fn mechanism_flags_are_mutually_consistent() {
        for p in Preset::all() {
            assert!(!(p.has_stride() && p.has_sms()), "{p}");
        }
        assert!(Preset::SmsVwq.has_sms() && Preset::SmsVwq.has_vwq());
        // Table II: the stride prefetcher is part of every non-SMS LLC.
        assert!(Preset::Bump.has_stride());
        assert!(Preset::BaseClose.has_stride());
    }

    #[test]
    fn engine_parses_cli_values() {
        assert_eq!(Engine::from_arg("cycle"), Some(Engine::Cycle));
        assert_eq!(Engine::from_arg("event"), Some(Engine::Event));
        assert_eq!(Engine::from_arg("warp"), None);
        assert_eq!(Engine::default(), Engine::Event);
        assert_eq!(Engine::Cycle.to_string(), "cycle");
    }

    #[test]
    fn small_config_shrinks_llc() {
        let opts = crate::RunOptions::quick(4);
        let c = crate::config_for(Preset::BaseOpen, Workload::DataServing, opts);
        assert_eq!(c.cores, 4);
        assert_eq!(c.llc.geometry.capacity_bytes, 512 * 1024);
        assert_eq!(c.llc.geometry.ways, 16);
    }
}
