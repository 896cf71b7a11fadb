//! The metric catalogue and the result line every run ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalogue_matches_benchmark_json` test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every plain (`--trace 0`) run of
/// every workload: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_kips", "kinstr/s"),
    ("op_ms_p50", "ms"),
    ("sim_ipc", "ratio"),
    ("mem_nj_per_access", "nJ"),
    ("nj_saving_gap_pp", "pp"),
    ("ipc_gain_gap_pp", "pp"),
];

/// Per-layer metrics, printed by every traced (`--trace 1`) run of
/// every workload. A layer the workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.build_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.measure_s", "s"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.fast_forward_s", "s"),
    ("sim.fast_forward_calls", "count"),
    ("sim.full_step_frac", "ratio"),
    ("sim.storm_replay_s", "s"),
    ("sim.storm_rounds", "count"),
    ("sim.bookkeeping_s", "s"),
    ("cpu.core_tick_s", "s"),
    ("cpu.load_stall_frac", "ratio"),
    ("noc.delivery_s", "s"),
    ("noc.bytes", "bytes"),
    ("dram.tick_s", "s"),
    ("dram.drain_s", "s"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.demand_read_latency_avg", "cycles"),
    ("llc.pump_s", "s"),
    ("llc.mshr_stalls", "count"),
    ("llc.spec_dropped", "count"),
    ("llc.demand_hit_ratio", "ratio"),
    ("llc.spec_read_coverage", "ratio"),
    ("llc.spec_read_overfetch", "ratio"),
    ("llc.eager_write_frac", "ratio"),
    ("llc.redirty_frac", "ratio"),
    ("bench.grid_overhead_s", "s"),
    ("client.connect_ms", "ms"),
    ("client.first_frame_ms", "ms"),
    ("proto.encode_us", "us"),
    ("proto.parse_us", "us"),
    ("router.route_job_ms", "ms"),
    ("router.cache_lookup_ms", "ms"),
    ("router.dispatch_ms", "ms"),
    ("router.reorder_merge_ms", "ms"),
    ("router.cache_hit_ratio", "ratio"),
    ("daemon.run_job_ms", "ms"),
    ("daemon.journal_lookup_ms", "ms"),
    ("daemon.queue_wait_ms", "ms"),
    ("daemon.cell_execute_ms", "ms"),
    ("daemon.journal_append_ms", "ms"),
    ("daemon.journal_hit_ratio", "ratio"),
    ("serve.unattributed_ms.cold", "ms"),
    ("serve.unattributed_ms.resume", "ms"),
    ("serve.unattributed_ms.cached", "ms"),
    ("serve.cold_job_ms_p50", "ms"),
    ("serve.cold_job_ms_p90", "ms"),
    ("serve.resume_job_ms_p50", "ms"),
    ("serve.resume_job_ms_p90", "ms"),
    ("serve.cached_job_ms_p50", "ms"),
    ("serve.cached_job_ms_p90", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The paper's average memory-energy-per-access saving of BuMP over
/// Base-close (−34%, quoted in `tests/paper_shape.rs`).
pub const PAPER_NJ_SAVING: f64 = 0.34;
/// The paper's average BuMP throughput gain over Base-close (+9%, the
/// "paper avg" row of Figure 10).
pub const PAPER_IPC_GAIN: f64 = 0.09;

/// What one run measured: operations attempted and failed, the metric
/// values, and lines for the human-readable report.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (cells, grids or requests).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    notes: Vec<String>,
}

impl Run {
    /// Records `value` for `name`, measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Counts one operation, failed unless `ok`; `what` describes the
    /// failure and goes to standard error.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail_unless(ok, what);
    }

    /// Counts a failure on an already-counted operation unless `ok`.
    pub fn fail_unless(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints the report and, as the last line of standard output, the
    /// result object with every metric of `catalogue`. An unset metric
    /// reports 0 (its layer did no work) unless `required`, when it
    /// makes the run incorrect, as does a value that is not finite.
    pub fn print(&self, catalogue: &[(&'static str, &'static str)], required: bool) -> bool {
        let mut correct = self.failed == 0 && self.attempted > 0;
        for line in &self.notes {
            println!("{line}");
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if required && !self.values.contains_key(name) {
                eprintln!("perfbench: {name} was not measured");
                correct = false;
            }
            if !value.is_finite() {
                eprintln!("perfbench: {name} is not a finite number");
                correct = false;
                value = 0.0;
            }
            let n = self.samples.get(name).copied().unwrap_or(0);
            println!("{name:<32} {value:>16.6} {unit:<9} n={n}");
            fields.push(format!("{name:?}:{{\"value\":{value},\"unit\":{unit:?}}}"));
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(",")
        );
        correct
    }
}

/// Samples behind `setup_s`, which reports their median.
pub const SETUP_SAMPLES: usize = 7;
/// CPU time one `setup_s` sample spends setting up, in seconds. A
/// set-up takes from a fraction of a millisecond (`storm`) to about ten
/// (`bulk`); one clock pair around a single set-up reads page faults and
/// cache warm-up as much as the set-up itself.
pub const SETUP_BUDGET_S: f64 = 0.05;

/// One `setup_s` sample: repeats `setup`, which returns the CPU time of
/// one set-up, until the repeats have used [`SETUP_BUDGET_S`], and
/// returns their mean.
pub fn setup_sample(mut setup: impl FnMut() -> f64) -> f64 {
    let (mut used, mut n) = (0.0, 0u32);
    while used < SETUP_BUDGET_S {
        used += setup();
        n += 1;
    }
    used / f64::from(n)
}

/// Resets this process's peak resident set to its current size (Linux
/// `clear_refs`), so that [`peak_rss_mb`] covers what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Reads a Linux CPU-time clock in seconds. CPU-time clocks leave out
/// time the host stole from the virtual CPU and time spent waiting.
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live `Timespec` laid out as the C
    // struct of 64-bit Linux; the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

/// CPU time the calling thread has run, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// CPU time all threads of this process have run, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_serve::json::Json;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn printed_line_carries_every_metric() {
        let mut run = Run::default();
        run.op(true, String::new);
        for &(name, _) in END_TO_END {
            run.set(name, 0.5, 5);
        }
        assert!(run.print(END_TO_END, true));
        run.set("sim_kips", f64::NAN, 1);
        assert!(!run.print(END_TO_END, true));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut run = Run::default();
        run.op(false, || "expected".into());
        assert_eq!((run.attempted, run.failed), (1, 1));
        assert!(!run.print(END_TO_END, false));
    }
}
