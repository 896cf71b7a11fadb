//! Engine phase profiler: wall-clock self-time per simulator phase.
//!
//! Answers "where does a cell's wall-clock go?" — NOC delivery vs core
//! ticks vs the DRAM clock domain vs the LLC event pump vs storm
//! replay — without perturbing the simulation itself (the profiler
//! reads the host clock, never the simulated clock, so enabling it
//! cannot change a single architectural outcome; reports stay
//! byte-identical with it on or off, phase timings aside).
//!
//! Disabled (the default) it costs one branch per [`PhaseProfiler::enter`] /
//! [`PhaseProfiler::exit`] pair — a handful of predictable branches per
//! simulated cycle, guarded by the `instrument_guard` bench
//! (`crates/bench/benches/instrument_guard.rs`). Enabled, it stays cheap by
//! *sampling*: every lap is counted, but only 1 in 17 top-level laps
//! (plus whatever nests inside them) actually reads the clock — the
//! raw cycle counter (`rdtsc` on x86-64; a monotonic-clock fallback
//! elsewhere). [`PhaseProfiler::profile`] extrapolates the timed laps
//! to all laps per phase and converts ticks to nanoseconds against an
//! [`Instant`] pair bracketing the run, so the hot path never takes a
//! syscall or calibration stall. `calls` counts are exact; `nanos`
//! are a sampled estimate (a phase with millions of laps converges to
//! well under 1% error, which is what the figure binaries profile).
//!
//! Accounting is **self-time**: a phase entered while another is open
//! (storm replay fires inside NOC delivery or the fast-forward; density
//! bookkeeping inside the LLC pump) has its wall time subtracted from
//! its parent, so the per-phase numbers sum to the measured whole
//! without double counting. The laps sit on the *step* granularity —
//! inside the event engine's fast-forward only storm rounds and
//! bookkeeping are lapped (the rest accrues to `FastForward`) because
//! per-simulated-tick laps would cost more than the work they measure.

use std::time::Instant;

/// Raw profiler timestamp, in *ticks* (TSC counts on x86-64,
/// nanoseconds elsewhere). Cheap enough for per-step laps; converted
/// to nanoseconds by the calibration in [`PhaseProfiler::profile`].
#[inline]
fn raw_now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC is unprivileged and side-effect-free; reordering
    // slack only blurs a profile, never the simulation.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// The simulator phases the profiler distinguishes. One [`System::step`]
/// visits most of them in order; `Bookkeeping` nests inside `LlcPump`,
/// and `FastForward` wraps the event engine's quiet span. A storm round
/// nests inside `NocDelivery` when a full step delivers it and inside
/// `FastForward` when it falls in a quiet span. The span's uncore steps
/// (NOC delivery, DRAM drain, DRAM tick, LLC pump) are deliberately not
/// lapped individually — their cost accrues to `FastForward` (minus any
/// nested `StormReplay` and `Bookkeeping`), keeping the per-tick path
/// lap-free.
///
/// [`System::step`]: crate::System::step
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// A full step's delivery of due core responses and NOC messages.
    NocDelivery = 0,
    /// Coalesced Full-region retry-storm rounds (event engine).
    StormReplay = 1,
    /// The per-cycle core scan: wakeup classification, idle accrual,
    /// and real core ticks.
    CoreTick = 2,
    /// Offering backpressured transactions to the memory controller.
    DramDrain = 3,
    /// The DRAM clock domain: scheduler ticks and fill completion
    /// handling.
    DramTick = 4,
    /// Feeding the LLC event stream to the configured mechanisms
    /// (prefetchers, VWQ, BuMP, Full-region) and issuing bulk actions.
    LlcPump = 5,
    /// Density-profiler bookkeeping (the paper's region
    /// characterization), carved out of the LLC pump.
    Bookkeeping = 6,
    /// The event engine's quiet-span fast-forward: null-cycle
    /// arithmetic, span scanning and the uncore steps inside the span.
    FastForward = 7,
}

/// Number of [`Phase`] variants (array sizing).
pub const PHASE_COUNT: usize = 8;

/// Display names, indexed by `Phase as usize`; these are the keys used
/// in span attributes and `--profile` JSON (`docs/OBSERVABILITY.md`).
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "noc_delivery",
    "storm_replay",
    "core_tick",
    "dram_drain",
    "dram_tick",
    "llc_pump",
    "bookkeeping",
    "fast_forward",
];

/// One phase's accumulated self-time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Phase name (from [`PHASE_NAMES`]).
    pub name: &'static str,
    /// Accumulated wall-clock self-time in nanoseconds (child phases
    /// subtracted), converted from raw ticks at
    /// [`PhaseProfiler::profile`] time.
    pub nanos: u64,
    /// Times the phase was entered.
    pub calls: u64,
}

/// The finished per-cell profile attached to [`SimReport::phase`] when
/// profiling was enabled for the run.
///
/// [`SimReport::phase`]: crate::SimReport
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Self-time per phase, in [`Phase`] order.
    pub phases: [PhaseSample; PHASE_COUNT],
}

impl PhaseProfile {
    /// Total profiled wall-clock across all phases, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// The sample for `phase`.
    pub fn sample(&self, phase: Phase) -> PhaseSample {
        self.phases[phase as usize]
    }
}

/// 1 in `SAMPLE_PERIOD` top-level laps is timed; the rest are only
/// counted. Nested laps inherit their parent's sampled state so
/// self-time subtraction stays consistent. The period is *prime* so
/// it cannot alias with the engine's lap cadence (a step/fast-forward
/// iteration takes 6 top-level laps; a power-of-two period would
/// sample the same 3 phases forever and report 0ns for the rest).
const SAMPLE_PERIOD: u64 = 17;

/// Deepest lap nesting the fixed stack holds (actual nesting is ≤ 3:
/// e.g. `FastForward` → `LlcPump`-interior → `Bookkeeping`).
const STACK_DEPTH: usize = 8;

/// The in-system accumulator. Construction is disabled; call
/// [`PhaseProfiler::enable`] before the run to start measuring.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    /// Accumulated self-time per phase in raw [`raw_now`] ticks —
    /// sampled laps only.
    ticks: [u64; PHASE_COUNT],
    /// Total laps per phase (every lap, sampled or not).
    calls: [u64; PHASE_COUNT],
    /// Timed laps per phase; `calls / sampled` is the extrapolation
    /// factor applied in [`PhaseProfiler::profile`].
    sampled: [u64; PHASE_COUNT],
    /// Countdown to the next timed frame; 0 means "time this one".
    frame: u64,
    /// Whether the current top-level frame (and everything nested in
    /// it) is being timed.
    frame_sampled: bool,
    /// Open laps: `(phase index, entry ticks, accumulated child
    /// ticks)`; `depth` indexes one past the innermost.
    depth: usize,
    stack: [(usize, u64, u64); STACK_DEPTH],
    /// `(wall, ticks)` anchor from [`PhaseProfiler::enable`], used to
    /// convert accumulated ticks to nanoseconds; the longer the run,
    /// the better the rate estimate.
    calibration: Option<(Instant, u64)>,
}

impl PhaseProfiler {
    /// Switches measurement on (idempotent). Meant to be called before
    /// the run; mid-run enabling just starts accumulating from here.
    pub fn enable(&mut self) {
        self.enabled = true;
        if self.calibration.is_none() {
            self.calibration = Some((Instant::now(), raw_now()));
        }
    }

    /// Opens `phase`. Must be paired with an [`PhaseProfiler::exit`];
    /// nesting is allowed and accounted as self-time.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        if self.depth == 0 {
            self.frame_sampled = self.frame == 0;
            self.frame = if self.frame == 0 {
                SAMPLE_PERIOD - 1
            } else {
                self.frame - 1
            };
        }
        if self.depth < STACK_DEPTH {
            let t0 = if self.frame_sampled { raw_now() } else { 0 };
            self.stack[self.depth] = (phase as usize, t0, 0);
        }
        self.depth += 1;
    }

    /// Closes the innermost open phase, crediting its self-time.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        debug_assert!(self.depth > 0, "exit without enter");
        self.depth -= 1;
        if self.depth >= STACK_DEPTH {
            return;
        }
        let (phase, t0, child) = self.stack[self.depth];
        self.calls[phase] += 1;
        if self.frame_sampled {
            let total = raw_now().saturating_sub(t0);
            self.ticks[phase] += total.saturating_sub(child);
            self.sampled[phase] += 1;
            if self.depth > 0 {
                self.stack[self.depth - 1].2 += total;
            }
        }
    }

    /// Nanoseconds per raw tick, from the interval between
    /// [`PhaseProfiler::enable`] and now. 1.0 when the anchor is
    /// degenerate (zero elapsed ticks).
    fn nanos_per_tick(&self) -> f64 {
        let Some((wall0, ticks0)) = self.calibration else {
            return 1.0;
        };
        let wall = wall0.elapsed().as_nanos() as f64;
        let ticks = raw_now().saturating_sub(ticks0) as f64;
        if ticks > 0.0 && wall > 0.0 {
            wall / ticks
        } else {
            1.0
        }
    }

    /// The profile so far, or `None` while disabled — so an
    /// unprofiled report carries exactly the `None` it always did
    /// (`tests/engine_equivalence.rs` compares full Debug renderings).
    pub fn profile(&self) -> Option<PhaseProfile> {
        if !self.enabled {
            return None;
        }
        let scale = self.nanos_per_tick();
        let mut phases = [PhaseSample::default(); PHASE_COUNT];
        for i in 0..PHASE_COUNT {
            // Extrapolate the sampled laps to all laps of the phase.
            let nanos = if self.sampled[i] == 0 {
                0
            } else {
                let expand = self.calls[i] as f64 / self.sampled[i] as f64;
                (self.ticks[i] as f64 * expand * scale) as u64
            };
            phases[i] = PhaseSample {
                name: PHASE_NAMES[i],
                nanos,
                calls: self.calls[i],
            };
        }
        Some(PhaseProfile { phases })
    }

    /// Clears accumulated time (the warmup/measure boundary) without
    /// touching the enabled flag, the sampler's frame counter, or the
    /// clock calibration anchor.
    pub fn reset(&mut self) {
        self.ticks = [0; PHASE_COUNT];
        self.calls = [0; PHASE_COUNT];
        self.sampled = [0; PHASE_COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reports_none_and_ignores_laps() {
        let mut p = PhaseProfiler::default();
        p.enter(Phase::CoreTick);
        p.exit();
        assert!(p.profile().is_none());
        assert!(!p.enabled);
    }

    #[test]
    fn enabled_profiler_accumulates_calls_and_time() {
        let mut p = PhaseProfiler::default();
        p.enable();
        for _ in 0..3 {
            p.enter(Phase::DramTick);
            p.exit();
        }
        let profile = p.profile().expect("enabled");
        assert_eq!(profile.sample(Phase::DramTick).calls, 3);
        assert_eq!(profile.sample(Phase::DramTick).name, "dram_tick");
        assert_eq!(profile.sample(Phase::CoreTick).calls, 0);
    }

    #[test]
    fn nested_phases_account_self_time_without_double_counting() {
        let mut p = PhaseProfiler::default();
        p.enable();
        p.enter(Phase::NocDelivery);
        p.enter(Phase::StormReplay);
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit(); // StormReplay
        p.exit(); // NocDelivery
        let profile = p.profile().expect("enabled");
        let storm = profile.sample(Phase::StormReplay).nanos;
        let noc = profile.sample(Phase::NocDelivery).nanos;
        assert!(storm >= 1_000_000, "slept 2ms inside storm: {storm}");
        // The parent keeps only its own (tiny) self-time.
        assert!(noc < storm, "parent self-time excludes the child: {noc}");
        // Self-times sum to less than the inclusive whole.
        assert!(profile.total_nanos() >= storm);
    }

    #[test]
    fn reset_clears_accumulation_but_stays_enabled() {
        let mut p = PhaseProfiler::default();
        p.enable();
        p.enter(Phase::LlcPump);
        p.exit();
        p.reset();
        let profile = p.profile().expect("still enabled");
        assert_eq!(profile.total_nanos(), 0);
        assert_eq!(profile.sample(Phase::LlcPump).calls, 0);
    }
}
