//! The work-stealing job scheduler behind [`crate::experiment::run_grid`]
//! and the `bumpd` daemon (`crates/serve`).
//!
//! The PR-1 grid runner handed cells out from an atomic cursor in grid
//! order, which clumps the expensive cells: a `--full` sweep ends with
//! every worker but one idle while the last Full-region cells (~4× a
//! Base cell) finish. It also only knew about one grid at a time, so a
//! long sweep monopolized the pool until it drained.
//!
//! This module replaces that with a long-lived [`Scheduler`]:
//!
//! * **Shared injector.** Cells from all in-flight jobs live in one
//!   shared structure; workers pull from it as they free up, so a new
//!   job starts executing immediately even while an older one runs.
//! * **Cost-aware stealing.** Within a job, workers take the cell with
//!   the highest [`estimated_cost`] first (longest-processing-time
//!   order), so Full-region cells spread across workers instead of
//!   clumping at the tail of the sweep.
//! * **Age-interleaved fairness.** Across jobs, pops round-robin over
//!   jobs in submission-age order, so a second client's six-cell job
//!   is serviced every other pop instead of queueing behind an
//!   eighty-five-cell `--full` sweep (see `tests/sched_fairness.rs`).
//! * **Streaming completion.** Each finished cell is delivered through
//!   the job's callback the moment it lands, which is what lets the
//!   daemon stream `CellResult` frames and `run_grid` emit CSV rows
//!   incrementally.
//!
//! Determinism: cell seeds are fixed by their specs before submission,
//! so reports are independent of which worker runs a cell and in what
//! order — `run_grid` results stay byte-identical for any thread count
//! (`tests/determinism.rs`).

use crate::experiment::ExperimentSpec;
use bump_sim::{Preset, SimReport};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Relative execution weight of a preset, calibrated from the observed
/// per-cell event-engine wall-clock of `repro_all --full` after the
/// retry-storm coalescer landed. Storm coalescing cut Full-region's
/// per-event cost, but the strawman still simulates ~4× the cycles of
/// a Base cell, so it measures ~4.5× a Base cell (was ~7× pre-
/// coalescing, weighted 4); the stream-predictor presets and BuMP's
/// bulk machinery measure ~1.25× (the old 2× BuMP weight predates the
/// batched-response path). Weights are ×4 so the quarter-steps stay
/// integral; only the ordering and rough proportions matter.
fn preset_weight(preset: Preset) -> u64 {
    match preset {
        Preset::FullRegion => 18,
        Preset::Bump | Preset::SmsVwq | Preset::Sms => 5,
        Preset::BaseClose | Preset::BaseOpen | Preset::Vwq => 4,
    }
}

/// Relative execution weight of a cell's scenario. Larger LLCs take
/// proportionally longer to warm (more sets to fill before the miss
/// stream steadies), and heterogeneous mixes keep more regions live at
/// once (§VI), so both steal earlier. The default scenario weighs 1.
fn scenario_weight(spec: &ExperimentSpec) -> u64 {
    let s = &spec.scenario;
    let mut w: u64 = 1;
    if s.mix.is_some() {
        w *= 2;
    }
    if let Some(cap) = s.llc_capacity {
        // Relative to the paper's 4MB LLC, floored at 1.
        w = w.saturating_mul((cap >> 22).max(1));
    }
    w
}

/// Estimated execution cost of one cell, used by workers to decide
/// which pending cell of a job to steal first. The absolute scale is
/// meaningless; only the ordering matters (longest first).
pub fn estimated_cost(spec: &ExperimentSpec) -> u64 {
    let instructions = spec
        .options
        .warmup_instructions
        .saturating_add(spec.options.measure_instructions)
        .max(1);
    preset_weight(spec.preset)
        .saturating_mul(scenario_weight(spec))
        .saturating_mul(instructions)
}

/// Estimated execution cost of a slice of cells — the weight of one
/// router work unit (a base cell plus its seed replicas; see
/// `ExperimentGrid::unit_ranges`). Same scale caveat as
/// [`estimated_cost`]: only the ordering matters.
pub fn estimated_unit_cost(cells: &[ExperimentSpec]) -> u64 {
    cells
        .iter()
        .map(estimated_cost)
        .fold(0, u64::saturating_add)
}

/// Where one cell's wall-clock went, as measured by the worker that
/// ran it: how long the cell sat in the injector before a worker
/// picked it up, and how long the simulation itself took. Feeds the
/// serving tier's queue-wait/execution spans and histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellTiming {
    /// Submission to dispatch (scheduler queue time).
    pub queue_wait: Duration,
    /// Dispatch to completion (simulation time).
    pub execution: Duration,
}

/// Callback invoked (from a worker thread) as each cell of a job
/// finishes: `(cell index within the job, spec, report, timing)`.
pub type CellCallback = Box<dyn Fn(usize, &ExperimentSpec, &SimReport, CellTiming) + Send + Sync>;

/// Per-job state shared between the scheduler, its workers, and the
/// submitting thread's [`JobHandle`].
struct JobShared {
    id: u64,
    cells: Vec<ExperimentSpec>,
    on_cell: CellCallback,
    /// Run cells with the engine phase profiler on (reports carry
    /// `phase: Some(...)`); simulated results are unaffected.
    profile: bool,
    /// Run cells with the sim-time telemetry sampler on at this stride
    /// (reports carry `telemetry: Some(...)`); like `profile`, the
    /// simulated results are unaffected.
    telemetry: Option<u64>,
    /// When the job entered the injector (queue-wait baseline).
    submitted: Instant,
    progress: Mutex<JobProgress>,
    done_cv: Condvar,
}

#[derive(Debug)]
struct JobProgress {
    remaining: usize,
    /// First panic message from a cell, if any.
    failed: Option<String>,
}

/// One job's pending cells inside the injector. `pending` is sorted so
/// the *last* element is the next steal target: ascending estimated
/// cost, ties broken by descending index (so equal-cost cells dispatch
/// in grid order).
struct JobQueue {
    job: Arc<JobShared>,
    pending: Vec<usize>,
}

/// The shared injector: every in-flight job's undispatched cells.
struct Injector {
    /// Jobs with pending cells, in submission-age order (oldest first).
    jobs: Vec<JobQueue>,
    /// Round-robin cursor into `jobs` (the position the next pop
    /// inspects first), which is what interleaves jobs by age.
    next: usize,
    shutdown: bool,
    next_job_id: u64,
}

struct Shared {
    injector: Mutex<Injector>,
    work_cv: Condvar,
    /// Cells currently executing on workers (outside the injector
    /// lock), for [`Scheduler::depth`].
    running: AtomicUsize,
}

/// A point-in-time snapshot of scheduler load, for the serving tier's
/// metrics endpoint ([`Scheduler::depth`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedDepth {
    /// Jobs with at least one cell still waiting to be dispatched.
    pub jobs: usize,
    /// Cells waiting in the injector for a free worker.
    pub queued_cells: usize,
    /// Cells executing on workers right now.
    pub running_cells: usize,
}

/// A long-lived pool of workers executing cells from any number of
/// concurrently submitted jobs. Dropping the scheduler drains pending
/// work and joins the workers.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector {
                jobs: Vec::new(),
                next: 0,
                shutdown: false,
                next_job_id: 0,
            }),
            work_cv: Condvar::new(),
            running: AtomicUsize::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Submits a job: `cells` are executed by the pool in cost/fairness
    /// order, `on_cell` fires for each as it lands. Returns immediately
    /// with a handle to wait on.
    pub fn submit(&self, cells: Vec<ExperimentSpec>, on_cell: CellCallback) -> JobHandle {
        self.submit_instrumented(cells, false, None, on_cell)
    }

    /// [`Scheduler::submit`] with the instrument switches for every
    /// cell of the job: with `profile` each report's `phase` is `Some`,
    /// with `telemetry = Some(stride)` each carries the measurement
    /// window's gauge series; everything else is byte-identical to a
    /// plain run. The flags ride the job, not [`bump_sim::RunOptions`],
    /// because the options' Debug rendering is the serving tier's
    /// journal identity.
    pub fn submit_instrumented(
        &self,
        cells: Vec<ExperimentSpec>,
        profile: bool,
        telemetry: Option<u64>,
        on_cell: CellCallback,
    ) -> JobHandle {
        let mut injector = self.shared.injector.lock().expect("injector poisoned");
        assert!(!injector.shutdown, "submit on a shut-down scheduler");
        let id = injector.next_job_id;
        injector.next_job_id += 1;
        let remaining = cells.len();
        let mut pending: Vec<usize> = (0..cells.len()).collect();
        let costs: Vec<u64> = cells.iter().map(estimated_cost).collect();
        pending.sort_by(|&a, &b| costs[a].cmp(&costs[b]).then(b.cmp(&a)));
        let job = Arc::new(JobShared {
            id,
            cells,
            on_cell,
            profile,
            telemetry,
            submitted: Instant::now(),
            progress: Mutex::new(JobProgress {
                remaining,
                failed: None,
            }),
            done_cv: Condvar::new(),
        });
        if remaining > 0 {
            injector.jobs.push(JobQueue {
                job: Arc::clone(&job),
                pending,
            });
            drop(injector);
            self.shared.work_cv.notify_all();
        }
        JobHandle { job }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Point-in-time queue depths. `queued_cells` and `running_cells`
    /// are sampled separately, so a cell mid-dispatch can be counted in
    /// neither — fine for a metrics gauge, not a synchronization
    /// primitive.
    pub fn depth(&self) -> SchedDepth {
        let (jobs, queued_cells) = {
            let injector = self.shared.injector.lock().expect("injector poisoned");
            (
                injector.jobs.len(),
                injector.jobs.iter().map(|q| q.pending.len()).sum(),
            )
        };
        SchedDepth {
            jobs,
            queued_cells,
            running_cells: self.shared.running.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut injector = self.shared.injector.lock().expect("injector poisoned");
            injector.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            // Cell and callback panics are caught and recorded on the
            // job, so workers never panic in normal operation; this
            // propagation is a safety net for scheduler bugs.
            if let Err(e) = w.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

/// Handle to one submitted job.
pub struct JobHandle {
    job: Arc<JobShared>,
}

impl JobHandle {
    /// The scheduler-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Blocks until every cell of the job has finished. Returns the
    /// first cell panic message, if any cell panicked.
    pub fn wait(&self) -> Result<(), String> {
        let mut progress = self.job.progress.lock().expect("job progress poisoned");
        while progress.remaining > 0 {
            progress = self
                .job
                .done_cv
                .wait(progress)
                .expect("job progress poisoned");
        }
        match &progress.failed {
            Some(msg) => Err(msg.clone()),
            None => Ok(()),
        }
    }
}

/// Pops the next cell to run: round-robin over jobs by age starting at
/// the cursor, then the highest-cost pending cell of the chosen job.
fn pop_next(injector: &mut Injector) -> Option<(Arc<JobShared>, usize)> {
    if injector.jobs.is_empty() {
        return None;
    }
    let pos = injector.next % injector.jobs.len();
    let queue = &mut injector.jobs[pos];
    let cell = queue.pending.pop().expect("injector held a drained job");
    let job = Arc::clone(&queue.job);
    if queue.pending.is_empty() {
        injector.jobs.remove(pos);
        // The job that was after `pos` now sits *at* `pos`; keeping the
        // cursor there preserves the rotation order.
        injector.next = pos;
    } else {
        injector.next = pos + 1;
    }
    if !injector.jobs.is_empty() {
        injector.next %= injector.jobs.len();
    } else {
        injector.next = 0;
    }
    Some((job, cell))
}

fn worker_loop(shared: &Shared) {
    loop {
        let popped = {
            let mut injector = shared.injector.lock().expect("injector poisoned");
            loop {
                if let Some(next) = pop_next(&mut injector) {
                    break Some(next);
                }
                if injector.shutdown {
                    break None;
                }
                injector = shared.work_cv.wait(injector).expect("injector poisoned");
            }
        };
        let Some((job, index)) = popped else { return };
        let spec = &job.cells[index];
        // The whole cell — simulation *and* callback — runs under
        // catch_unwind: a panic in either must mark the job failed and
        // still decrement `remaining`, or `JobHandle::wait` would hang
        // forever and the worker would be lost to the pool.
        shared.running.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let queue_wait = started.duration_since(job.submitted);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let report = spec.run_instrumented(job.profile, job.telemetry);
            let timing = CellTiming {
                queue_wait,
                execution: started.elapsed(),
            };
            (job.on_cell)(index, spec, &report, timing);
        }));
        shared.running.fetch_sub(1, Ordering::Relaxed);
        let mut progress = job.progress.lock().expect("job progress poisoned");
        if let Err(panic) = outcome {
            // `&panic` would unsize the Box itself into `dyn Any` and
            // defeat the &str downcasts; pass the payload it holds.
            let msg = panic_message(panic.as_ref());
            progress
                .failed
                .get_or_insert_with(|| format!("cell {:?} panicked: {msg}", spec.label));
        }
        progress.remaining -= 1;
        if progress.remaining == 0 {
            drop(progress);
            job.done_cv.notify_all();
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_sim::RunOptions;
    use bump_workloads::Workload;

    fn spec(preset: Preset, workload: Workload) -> ExperimentSpec {
        ExperimentSpec::new(preset, workload, RunOptions::quick(1))
    }

    #[test]
    fn cost_orders_full_region_first() {
        let base = spec(Preset::BaseOpen, Workload::WebSearch);
        let full = spec(Preset::FullRegion, Workload::WebSearch);
        let bump = spec(Preset::Bump, Workload::WebSearch);
        assert!(estimated_cost(&full) > estimated_cost(&bump));
        assert!(estimated_cost(&bump) > estimated_cost(&base));
    }

    #[test]
    fn cost_weighs_llc_sweeps_and_mixes_heavier() {
        use bump_sim::Scenario;
        let plain = spec(Preset::BaseOpen, Workload::WebSearch);
        let big_llc = ExperimentSpec::with_scenario(
            Preset::BaseOpen,
            Workload::WebSearch,
            Scenario {
                llc_capacity: Some(16 << 20),
                ..Scenario::default()
            },
            RunOptions::quick(1),
        );
        let mix = ExperimentSpec::with_scenario(
            Preset::BaseOpen,
            Workload::WebSearch,
            Scenario {
                mix: Some(Workload::all().to_vec()),
                ..Scenario::default()
            },
            RunOptions::quick(1),
        );
        assert!(estimated_cost(&big_llc) > estimated_cost(&mix));
        assert!(estimated_cost(&mix) > estimated_cost(&plain));
        // A non-default mem spec alone does not change the estimate.
        let ddr4 = ExperimentSpec::with_scenario(
            Preset::BaseOpen,
            Workload::WebSearch,
            Scenario::from_name("ddr4_2400").unwrap(),
            RunOptions::quick(1),
        );
        assert_eq!(estimated_cost(&ddr4), estimated_cost(&plain));
    }

    #[test]
    fn unit_cost_sums_member_cells() {
        let cells = vec![
            spec(Preset::BaseOpen, Workload::WebSearch),
            spec(Preset::FullRegion, Workload::WebSearch),
        ];
        assert_eq!(
            estimated_unit_cost(&cells),
            estimated_cost(&cells[0]) + estimated_cost(&cells[1])
        );
        assert_eq!(estimated_unit_cost(&[]), 0);
    }

    #[test]
    fn empty_job_completes_immediately() {
        let sched = Scheduler::new(2);
        let handle = sched.submit(Vec::new(), Box::new(|_, _, _, _| {}));
        handle.wait().expect("empty job must succeed");
    }

    #[test]
    fn depth_reports_idle_and_settles_after_a_job() {
        let sched = Scheduler::new(1);
        assert_eq!(sched.depth(), SchedDepth::default());
        let handle = sched.submit(
            vec![spec(Preset::BaseOpen, Workload::WebSearch)],
            Box::new(|_, _, _, _| {}),
        );
        handle.wait().expect("job must succeed");
        // After wait() the queue is drained and nothing is running.
        assert_eq!(sched.depth(), SchedDepth::default());
    }

    #[test]
    fn callback_panics_fail_the_job_without_hanging_or_losing_the_worker() {
        let sched = Scheduler::new(1);
        let handle = sched.submit(
            vec![spec(Preset::BaseOpen, Workload::WebSearch)],
            Box::new(|_, _, _, _| panic!("callback boom")),
        );
        let err = handle.wait().expect_err("callback panic must fail the job");
        assert!(err.contains("callback boom"), "{err}");
        // The worker survived: a subsequent job still completes.
        let ok = sched.submit(
            vec![spec(Preset::BaseOpen, Workload::WebSearch)],
            Box::new(|_, _, _, _| {}),
        );
        ok.wait().expect("pool must survive a callback panic");
    }

    #[test]
    fn pop_interleaves_jobs_by_age_and_cost_within_job() {
        // Two fake jobs in the injector: popping must alternate between
        // them (age round-robin) and take max-cost cells first.
        let mk_job = |id: u64, cells: Vec<ExperimentSpec>| {
            let remaining = cells.len();
            Arc::new(JobShared {
                id,
                cells,
                on_cell: Box::new(|_, _, _, _| {}),
                profile: false,
                telemetry: None,
                submitted: Instant::now(),
                progress: Mutex::new(JobProgress {
                    remaining,
                    failed: None,
                }),
                done_cv: Condvar::new(),
            })
        };
        let a = mk_job(
            0,
            vec![
                spec(Preset::BaseOpen, Workload::WebSearch),
                spec(Preset::FullRegion, Workload::WebSearch),
                spec(Preset::Bump, Workload::WebSearch),
            ],
        );
        let b = mk_job(1, vec![spec(Preset::BaseOpen, Workload::WebServing)]);
        let order = |cells: &[ExperimentSpec]| {
            let costs: Vec<u64> = cells.iter().map(estimated_cost).collect();
            let mut pending: Vec<usize> = (0..cells.len()).collect();
            pending.sort_by(|&x, &y| costs[x].cmp(&costs[y]).then(y.cmp(&x)));
            pending
        };
        let mut injector = Injector {
            jobs: vec![
                JobQueue {
                    job: Arc::clone(&a),
                    pending: order(&a.cells),
                },
                JobQueue {
                    job: Arc::clone(&b),
                    pending: order(&b.cells),
                },
            ],
            next: 0,
            shutdown: false,
            next_job_id: 2,
        };
        let mut seq = Vec::new();
        while let Some((job, cell)) = pop_next(&mut injector) {
            seq.push((job.id, cell));
        }
        // Job 0's Full-region cell (index 1) first, then job 1's only
        // cell interleaved, then job 0's remaining cells by cost.
        assert_eq!(seq, vec![(0, 1), (1, 0), (0, 2), (0, 0)]);
    }
}
