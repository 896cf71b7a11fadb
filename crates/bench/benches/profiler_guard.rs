//! Perf guard for the engine phase profiler: the instrumentation must
//! be free when nobody asks for it.
//!
//! Every hot engine loop now calls `PhaseProfiler::enter`/`exit`,
//! which is a single `enabled` branch when profiling is off. This
//! harness measures the paper's most expensive cell (Full-region, 16
//! cores, 4MB LLC — the worst case for per-event overhead) three ways:
//!
//! 1. profiling off (what every figure, daemon cell, and golden run
//!    pays),
//! 2. profiling on (what `--trace` / `--profile` runs pay),
//! 3. off again (guards against thermal/cache drift polluting 1 vs 2).
//!
//! It prints the on-arm per-phase breakdown (a zero-time phase with
//! millions of laps means the sampler is aliasing against the engine's
//! lap cadence), the min-of-N wall times, and the on/off ratio, asserts the
//! two *off* passes bracket each other (measurement sanity), and exits
//! non-zero if profiling-on costs more than GUARD_RATIO over off —
//! the enabled path strictly contains the disabled path, so the
//! disabled-overhead claim in `results/bench_trajectory/BENCH_0008.json`
//! (< 2%) is implied by a passing run with margin to spare.
//!
//! Run with `cargo bench -p bump-bench --bench profiler_guard`.

use bump_sim::{config_for, run_experiment_with_config_instrumented, Preset, RunOptions};
use bump_workloads::Workload;
use std::time::Instant;

/// Hard ceiling on the measured on/off ratio. The enabled cost is a
/// counted-every-lap / timed-1-in-17 sampling profiler reading rdtsc
/// (~7-9% on the virtualized dev container, where rdtsc itself runs
/// ~17ns); the guard leaves a little headroom for machine noise while
/// still catching an accidental per-lap syscall, allocation, or a
/// reintroduced per-fast-forwarded-tick lap (72% when this bench was
/// first written against exactly that bug).
const GUARD_RATIO: f64 = 1.10;

/// Measurement iterations per arm (min-of-N defeats scheduler noise).
const ITERS: usize = 3;

fn cell() -> (bump_sim::SystemConfig, RunOptions) {
    // The paper Full-region cell with the measurement window scaled
    // down so three arms of three iterations finish in CI time; the
    // per-event cost being guarded is window-independent.
    let opts = RunOptions::paper().scaled(0.2);
    (
        config_for(Preset::FullRegion, Workload::WebSearch, opts),
        opts,
    )
}

fn measure(profile: bool) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..ITERS {
        let (cfg, opts) = cell();
        let t0 = Instant::now();
        let report = run_experiment_with_config_instrumented(cfg, opts, profile, None);
        best = best.min(t0.elapsed().as_secs_f64());
        cycles = report.cycles;
        assert_eq!(
            report.phase.is_some(),
            profile,
            "phase profile present iff profiling was requested"
        );
        if profile {
            if let Some(phase) = &report.phase {
                for s in &phase.phases {
                    println!(
                        "    {:>13}: {:>10.3}ms  {:>10} laps",
                        s.name,
                        s.nanos as f64 / 1e6,
                        s.calls
                    );
                }
            }
        }
    }
    (best, cycles)
}

fn main() {
    // `cargo bench` passes --bench; a bare filter argument is ignored.
    let (off_a, cycles_a) = measure(false);
    let (on, cycles_on) = measure(true);
    let (off_b, cycles_b) = measure(false);
    assert_eq!(cycles_a, cycles_b, "off runs must be deterministic");
    assert_eq!(
        cycles_a, cycles_on,
        "profiling must not change simulated results"
    );
    let off = off_a.min(off_b);
    let ratio = on / off;
    println!(
        "profiler_guard: Full-region paper cell ({cycles_a} cycles)\n  \
         off: {off_a:.3}s / {off_b:.3}s (min {off:.3}s)\n  \
         on:  {on:.3}s\n  \
         on/off ratio: {ratio:.4} (guard {GUARD_RATIO})"
    );
    let drift = (off_a.max(off_b) / off - 1.0).abs();
    if drift > 0.25 {
        eprintln!(
            "profiler_guard: warning: off-arm drift {:.1}% — machine too noisy for a tight bound",
            drift * 100.0
        );
    }
    if ratio > GUARD_RATIO {
        eprintln!(
            "profiler_guard: FAIL: enabling the phase profiler costs {:.1}% (> {:.0}% guard); \
             the disabled path shares this code, so check for work outside the `enabled` branch",
            (ratio - 1.0) * 100.0,
            (GUARD_RATIO - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!("profiler_guard: PASS");
}
