//! Perf guard for the two run instruments — the engine phase profiler
//! and the sim-time telemetry sampler: each must be free when nobody
//! asks for it and cheap when somebody does.
//!
//! Every hot engine loop calls `PhaseProfiler::enter`/`exit`; with the
//! profiler off that is one `enabled` branch. No engine loop consults
//! the telemetry sampler: `System::run` ends each engine run's cycle
//! budget at the next sample instant and takes the sample between runs,
//! so telemetry costs the extra engine runs (each resumes with a full
//! step) plus the samples, and nothing with telemetry off. This harness
//! measures the paper's most expensive cell
//! (Full-region, 16 cores, 4MB LLC — the worst case for per-lap
//! overhead) in four arms:
//!
//! 1. off (what every figure, daemon cell, and golden run pays),
//! 2. profile (what `--trace` / `--profile` runs pay),
//! 3. telemetry at the default stride (what `--telemetry` runs pay),
//! 4. off again (guards against thermal/cache drift polluting 1 vs 2/3).
//!
//! Each iteration runs all four arms back to back, so slow drift hits
//! every arm alike; each arm keeps its min over the iterations. The
//! harness prints the profile arm's per-phase breakdown (a zero-time
//! phase with millions of laps means the sampler is aliasing against
//! the engine's lap cadence), the min wall times, the telemetry arm's
//! sampled point count and both ratios over off. It asserts that the
//! simulated cycle count is identical across all arms (instruments must
//! never perturb the simulation), that `phase` / `telemetry` are present
//! exactly when requested and that every recorded series validates. It
//! exits non-zero if an instrumented arm costs more than its bound over
//! off. The enabled paths strictly contain the disabled path, so a
//! passing run also bounds the disabled overhead well under the bounds.
//!
//! Run with `cargo bench -p bump-bench --bench instrument_guard`.

use bump_sim::{
    config_for, run_experiment_with_config, Instruments, PhaseProfile, Preset, RunOptions,
    SimReport, DEFAULT_STRIDE,
};
use bump_workloads::Workload;
use std::time::Instant;

/// Hard ceiling on the profile/off ratio. The enabled cost is a
/// counted-every-lap / timed-1-in-17 sampling profiler reading rdtsc
/// (~7-9% on a virtualized 2-core x86-64 container, where rdtsc itself
/// runs ~17ns); the bound leaves a little headroom for machine noise
/// while still catching an accidental per-lap syscall, allocation, or a
/// reintroduced per-fast-forwarded-tick lap (72% when this guard was
/// first written against exactly that bug).
const PROFILE_GUARD: f64 = 1.10;

/// Hard ceiling on the telemetry/off ratio. Sampling at the default
/// stride copies a handful of u64 gauges into a bounded buffer every
/// 1024 cycles (with periodic compaction): a <= 5% budget.
const TELEMETRY_GUARD: f64 = 1.05;

/// Measurement iterations (min-of-N per arm defeats scheduler noise).
const ITERS: usize = 3;

/// One timed run of the guarded cell with `instruments`.
fn run(instruments: Instruments) -> (f64, SimReport) {
    // The paper Full-region cell with the measurement window scaled
    // down so twelve runs finish in CI time; the per-lap cost being
    // guarded is window-independent.
    let opts = RunOptions::paper().scaled(0.2);
    let mut cfg = config_for(Preset::FullRegion, Workload::WebSearch, opts);
    cfg.instruments = instruments;
    let t0 = Instant::now();
    let report = run_experiment_with_config(cfg, opts);
    (t0.elapsed().as_secs_f64(), report)
}

fn main() {
    // `cargo bench` passes --bench; a bare filter argument is ignored.
    let off = Instruments::default();
    let arms = [
        off,
        Instruments {
            profile: true,
            ..off
        },
        Instruments {
            telemetry: Some(DEFAULT_STRIDE),
            ..off
        },
        off,
    ];
    let mut best = [f64::INFINITY; 4];
    let mut cycles = None;
    let mut points = 0;
    let mut phase: Option<PhaseProfile> = None;
    for _ in 0..ITERS {
        for (arm, &instruments) in arms.iter().enumerate() {
            let (secs, report) = run(instruments);
            let first = *cycles.get_or_insert(report.cycles);
            assert_eq!(
                report.cycles, first,
                "instruments must not change simulated results"
            );
            assert_eq!(
                report.phase.is_some(),
                instruments.profile,
                "phase profile present iff profiling was requested"
            );
            assert_eq!(
                report.telemetry.is_some(),
                instruments.telemetry.is_some(),
                "series present iff telemetry was requested"
            );
            if let Some(series) = &report.telemetry {
                series.validate().expect("recorded series is well-formed");
                points = series.points.len();
            }
            if secs < best[arm] {
                best[arm] = secs;
                phase = report.phase.or(phase);
            }
        }
    }
    if let Some(phase) = &phase {
        println!("instrument_guard: profile arm phase breakdown (fastest run)");
        for s in &phase.phases {
            println!(
                "    {:>13}: {:>10.3}ms  {:>10} laps",
                s.name,
                s.nanos as f64 / 1e6,
                s.calls
            );
        }
    }
    let [off_a, profile, telemetry, off_b] = best;
    let off = off_a.min(off_b);
    let guarded = [
        ("profile", profile, PROFILE_GUARD),
        ("telemetry", telemetry, TELEMETRY_GUARD),
    ];
    println!(
        "instrument_guard: Full-region paper cell ({} cycles, {points} samples)\n  \
         off: {off_a:.3}s / {off_b:.3}s (min {off:.3}s)",
        cycles.unwrap_or(0)
    );
    for (name, secs, bound) in guarded {
        println!(
            "  {name}: {secs:.3}s, ratio {:.4} (guard {bound})",
            secs / off
        );
    }
    let drift = (off_a.max(off_b) / off - 1.0).abs();
    if drift > 0.25 {
        eprintln!(
            "instrument_guard: warning: off-arm drift {:.1}% — machine too noisy for a tight bound",
            drift * 100.0
        );
    }
    let mut failed = false;
    for (name, secs, bound) in guarded {
        let ratio = secs / off;
        if ratio > bound {
            eprintln!(
                "instrument_guard: FAIL: enabling {name} costs {:.1}% (> {:.0}% guard); \
                 the disabled path shares this code, so check for work outside the \
                 `enabled` branch / stride check (an allocation, a clone, a syscall)",
                (ratio - 1.0) * 100.0,
                (bound - 1.0) * 100.0
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("instrument_guard: PASS");
}
