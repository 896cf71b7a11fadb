//! The parallel experiment framework behind every figure/table binary.
//!
//! The reproduction's figures all do the same thing: run the simulator
//! over some preset × workload product (occasionally with a customized
//! [`SystemConfig`]), then format a table from the reports. This module
//! factors that into three pieces:
//!
//! * [`ExperimentSpec`] — one simulation cell: preset × workload ×
//!   [`RunOptions`], optionally with a full [`SystemConfig`] override
//!   for design-space/ablation points.
//! * [`ExperimentGrid`] — an ordered, label-deduplicated collection of
//!   cells, built by [`ExperimentGrid::cartesian`] expansion and merged
//!   across figures so shared cells (e.g. `Base-open × WebSearch`) are
//!   simulated once.
//! * [`run_grid`] — executes all cells on a fixed-size thread pool and
//!   returns results in *grid order* regardless of completion order.
//!   Every cell's seed is fixed by its spec before any thread starts,
//!   so `threads = 1` and `threads = N` produce identical reports.
//!
//! Results can be queried by `(preset, workload)` or label for table
//! rendering, and dumped as structured CSV/JSON rows under `results/`.

use crate::Scale;
use bump_sim::json::Json;
use bump_sim::{
    config_for_scenario, run_experiment_with_config, Instruments, Preset, RunOptions, Scenario,
    SimReport, SystemConfig,
};
use bump_workloads::Workload;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One cell of an experiment grid.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Unique identity of the cell within a grid. Standard cells use
    /// `"<preset>/<workload>"`; custom-config cells must pick their own
    /// label (conventionally `"<figure>/<variant>"`). Merging grids
    /// deduplicates by this label.
    pub label: String,
    /// System design point.
    pub preset: Preset,
    /// Workload to run.
    pub workload: Workload,
    /// Warmup/measure windows and seed for this cell.
    pub options: RunOptions,
    /// The evaluation scenario (memory spec, LLC capacity, workload
    /// mix) the cell runs under. The default scenario is the paper's
    /// platform; non-default scenarios are named in the label
    /// (`<preset>/<workload>@<scenario>`).
    pub scenario: Scenario,
    /// Full system-config override for non-standard cells (design-space
    /// sweeps, ablations, virtualization mixes). When set, `options`
    /// still controls the warmup/measure windows and `scenario` is
    /// ignored (the override is already a complete configuration).
    pub config: Option<SystemConfig>,
    /// Instruments the cell runs with (off by default). They change
    /// neither the simulated results nor the cell's journal identity;
    /// with them on, the report carries `phase` / `telemetry`.
    pub instruments: Instruments,
}

impl ExperimentSpec {
    /// The standard cell for `preset` × `workload` at `options`.
    pub fn new(preset: Preset, workload: Workload, options: RunOptions) -> Self {
        ExperimentSpec {
            label: standard_label(preset, workload),
            preset,
            workload,
            options,
            scenario: Scenario::default(),
            config: None,
            instruments: Instruments::default(),
        }
    }

    /// The cell for `preset` × `workload` under `scenario`. With the
    /// default scenario this is exactly [`ExperimentSpec::new`]; any
    /// other scenario is named in the label.
    pub fn with_scenario(
        preset: Preset,
        workload: Workload,
        scenario: Scenario,
        options: RunOptions,
    ) -> Self {
        ExperimentSpec {
            label: scenario_label(preset, workload, &scenario),
            preset,
            workload,
            options,
            scenario,
            config: None,
            instruments: Instruments::default(),
        }
    }

    /// A cell running an explicit [`SystemConfig`] under `label`.
    pub fn with_config(
        label: impl Into<String>,
        config: SystemConfig,
        options: RunOptions,
    ) -> Self {
        ExperimentSpec {
            label: label.into(),
            preset: config.preset,
            workload: config.workload,
            options,
            scenario: Scenario::default(),
            config: Some(config),
            instruments: Instruments::default(),
        }
    }

    /// Executes this cell (synchronously) with its instruments.
    pub fn run(&self) -> SimReport {
        let mut cfg = match &self.config {
            Some(cfg) => cfg.clone(),
            None => config_for_scenario(self.preset, self.workload, self.options, &self.scenario),
        };
        cfg.instruments = self.instruments;
        run_experiment_with_config(cfg, self.options)
    }
}

fn standard_label(preset: Preset, workload: Workload) -> String {
    format!("{}/{}", preset.name(), workload.name())
}

/// The label for a cell under `scenario`:
/// `<preset>/<workload>[@<scenario>]` (no suffix for the default
/// scenario, so pre-scenario labels — and the journals and goldens
/// keyed on them — are unchanged).
pub fn scenario_label(preset: Preset, workload: Workload, scenario: &Scenario) -> String {
    if scenario.is_default() {
        standard_label(preset, workload)
    } else {
        format!("{}/{}@{}", preset.name(), workload.name(), scenario.name())
    }
}

/// Derives a per-cell seed from a base seed and the cell's identity.
///
/// The derivation is a SplitMix64 chain over the base seed and the
/// label bytes: deterministic across runs and platforms, distinct for
/// distinct labels (up to 64-bit collisions). Figures that must match
/// the calibrated single-seed outputs simply keep the base seed.
pub fn derive_cell_seed(base: u64, label: &str) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// An ordered, deduplicated collection of experiment cells.
#[derive(Clone, Debug, Default)]
pub struct ExperimentGrid {
    cells: Vec<ExperimentSpec>,
}

impl ExperimentGrid {
    /// An empty grid.
    pub fn new() -> Self {
        ExperimentGrid::default()
    }

    /// Cartesian expansion: one cell per `preset × workload`, in the
    /// given order (presets outer, workloads inner), all at `options`.
    pub fn cartesian(presets: &[Preset], workloads: &[Workload], options: RunOptions) -> Self {
        Self::cartesian_scenario(presets, workloads, options, &Scenario::default())
    }

    /// [`ExperimentGrid::cartesian`] with every cell under `scenario`
    /// (labels gain the `@<scenario>` suffix when it is non-default).
    pub fn cartesian_scenario(
        presets: &[Preset],
        workloads: &[Workload],
        options: RunOptions,
        scenario: &Scenario,
    ) -> Self {
        let mut grid = ExperimentGrid::new();
        for &p in presets {
            for &w in workloads {
                grid.push(ExperimentSpec::with_scenario(
                    p,
                    w,
                    scenario.clone(),
                    options,
                ));
            }
        }
        grid
    }

    /// Adds a cell unless its label is already present.
    ///
    /// A duplicate label with a *different* simulation (run options or
    /// config override) is a logic error in the caller — two figures
    /// would silently share one simulation of ambiguous meaning — so it
    /// panics. `SystemConfig` has no `PartialEq`; its `Debug` rendering
    /// is a complete value dump, so it serves as the equality witness.
    pub fn push(&mut self, spec: ExperimentSpec) {
        if let Err(e) = self.try_push(spec) {
            panic!("{e}");
        }
    }

    /// Non-panicking [`ExperimentGrid::push`]: `Ok(true)` when the cell
    /// was added, `Ok(false)` when an identical cell was already
    /// present (deduplicated), and `Err` when the label is reused for a
    /// *different* simulation. The wire protocol builds grids from
    /// untrusted submissions, where a conflict must become an `error`
    /// frame rather than a panic.
    pub fn try_push(&mut self, spec: ExperimentSpec) -> Result<bool, String> {
        if let Some(existing) = self.cells.iter().find(|c| c.label == spec.label) {
            if existing.options != spec.options {
                return Err(format!(
                    "grid label {:?} reused with different run options",
                    spec.label
                ));
            }
            if existing.scenario != spec.scenario {
                return Err(format!(
                    "grid label {:?} reused with a different scenario",
                    spec.label
                ));
            }
            if format!("{:?}", existing.config) != format!("{:?}", spec.config) {
                return Err(format!(
                    "grid label {:?} reused with a different config override",
                    spec.label
                ));
            }
            return Ok(false);
        }
        self.cells.push(spec);
        Ok(true)
    }

    /// Merges `other` into `self`, deduplicating by label.
    pub fn merge(&mut self, other: ExperimentGrid) {
        for spec in other.cells {
            self.push(spec);
        }
    }

    /// Rewrites every cell's seed to one derived from the cell label
    /// (see [`derive_cell_seed`]), for sweeps that want decorrelated
    /// cells rather than the calibrated base seed.
    pub fn derive_seeds(mut self) -> Self {
        for cell in &mut self.cells {
            cell.options.seed = derive_cell_seed(cell.options.seed, &cell.label);
        }
        self
    }

    /// Runs every cell with `instruments` (see
    /// [`ExperimentSpec::instruments`]).
    pub fn instrument(mut self, instruments: Instruments) -> Self {
        for cell in &mut self.cells {
            cell.instruments = instruments;
        }
        self
    }

    /// Expands every cell into `replicas` cells across derived seeds
    /// (the `--seeds N` mode): replica 0 is the cell unchanged, so
    /// single-seed renderings and golden outputs are unaffected;
    /// replica `k` is labeled `<label>#s<k>` and seeded by chaining
    /// [`derive_cell_seed`] `k` times from the base seed — the same
    /// derivation [`ExperimentGrid::derive_seeds`] applies once.
    /// Replicas of a cell are consecutive in the expanded grid.
    pub fn replicate_seeds(&self, replicas: usize) -> ExperimentGrid {
        let replicas = replicas.max(1);
        let mut grid = ExperimentGrid::new();
        for cell in &self.cells {
            let mut seed = cell.options.seed;
            for k in 0..replicas {
                let mut spec = cell.clone();
                if k > 0 {
                    seed = derive_cell_seed(seed, &cell.label);
                    let _ = write!(spec.label, "#s{k}");
                    spec.options.seed = seed;
                }
                grid.push(spec);
            }
        }
        grid
    }

    /// The cells, in insertion (result) order.
    pub fn cells(&self) -> &[ExperimentSpec] {
        &self.cells
    }

    /// Splits a grid produced by
    /// [`ExperimentGrid::replicate_seeds`]`(replicas)` back into its
    /// per-base-cell work units: consecutive runs of `replicas` cells
    /// (replica 0 plus its `#s<k>` derivatives). This is the unit the
    /// `bumpr` router shards across backends — a unit maps onto a
    /// single-cell `submit` with the same seed count, so the backend
    /// reproduces exactly the unit's labels and seeds.
    ///
    /// # Panics
    ///
    /// Panics if the grid size is not a multiple of `replicas` — the
    /// grid cannot then be a `replicate_seeds(replicas)` expansion.
    pub fn unit_ranges(&self, replicas: usize) -> Vec<std::ops::Range<usize>> {
        let replicas = replicas.max(1);
        assert!(
            self.cells.len().is_multiple_of(replicas),
            "{} cells cannot be a grid of {replicas}-replica units",
            self.cells.len()
        );
        (0..self.cells.len() / replicas)
            .map(|u| u * replicas..(u + 1) * replicas)
            .collect()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Number of worker threads to use by default: `BUMP_THREADS` if set,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("BUMP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every cell of `grid` on `threads` workers.
///
/// A thin synchronous wrapper over the shared work-stealing
/// [`crate::sched::Scheduler`] (also the execution path behind the
/// `bumpd` daemon): cells are stolen in estimated-cost order, and each
/// worker's report lands in the slot for its cell index, so the
/// returned [`GridResults`] is in grid order and bit-identical for any
/// thread count (cells are independent simulations with spec-fixed
/// seeds).
pub fn run_grid(grid: &ExperimentGrid, threads: usize) -> GridResults {
    run_grid_with(grid, threads, |_, _, _| {})
}

/// [`run_grid`] with a streaming hook: `on_cell` fires (from a worker
/// thread, in completion order) as each cell's report lands. This is
/// what drives incremental CSV emission — an interrupted sweep leaves
/// every finished row on disk (see [`IncrementalCsv`]).
///
/// Cells run with their own instruments ([`ExperimentGrid::instrument`]):
/// with the profiler on every report carries `phase`, with telemetry on
/// its gauge series (write them with
/// [`GridResults::write_telemetry_files`]). Simulated results — and thus
/// every figure, golden CSV, and journal identity — are unchanged, and
/// series are keyed on simulated cycles, so like every other grid output
/// they are byte-identical for any thread count.
pub fn run_grid_with<F>(grid: &ExperimentGrid, threads: usize, on_cell: F) -> GridResults
where
    F: Fn(usize, &ExperimentSpec, &SimReport) + Send + Sync + 'static,
{
    let cells = grid.cells();
    if cells.is_empty() {
        return GridResults { rows: Vec::new() };
    }
    let threads = threads.max(1).min(cells.len());
    let sched = crate::sched::Scheduler::new(threads);
    let slots: Arc<Vec<Mutex<Option<SimReport>>>> =
        Arc::new(cells.iter().map(|_| Mutex::new(None)).collect());
    let handle = sched.submit(
        cells.to_vec(),
        Box::new({
            let slots = Arc::clone(&slots);
            move |i, spec, report, _timing| {
                on_cell(i, spec, report);
                *slots[i].lock().expect("result slot poisoned") = Some(report.clone());
            }
        }),
    );
    let outcome = handle.wait();
    drop(sched); // joins the workers; the job callback is dropped with them
    drop(handle);
    if let Err(msg) = outcome {
        panic!("{msg}");
    }
    let slots = Arc::try_unwrap(slots).expect("scheduler retained result slots after join");
    let rows = cells
        .iter()
        .cloned()
        .zip(slots.into_iter().map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without writing its cell")
        }))
        .collect();
    GridResults { rows }
}

/// The reports of one grid run, in grid order.
#[derive(Clone, Debug)]
pub struct GridResults {
    rows: Vec<(ExperimentSpec, SimReport)>,
}

impl GridResults {
    /// The report for the *standard* cell `preset × workload`.
    ///
    /// Panics with the missing label if the grid never contained it —
    /// that is a figure wiring bug, not a runtime condition.
    pub fn get(&self, preset: Preset, workload: Workload) -> &SimReport {
        let label = standard_label(preset, workload);
        self.get_labeled(&label)
    }

    /// The report for the cell with `label`.
    pub fn get_labeled(&self, label: &str) -> &SimReport {
        self.try_get_labeled(label)
            .unwrap_or_else(|| panic!("grid has no cell labeled {label:?}"))
    }

    /// The report for `label`, if present.
    pub fn try_get_labeled(&self, label: &str) -> Option<&SimReport> {
        self.rows
            .iter()
            .find(|(spec, _)| spec.label == label)
            .map(|(_, r)| r)
    }

    /// Iterates `(spec, report)` pairs in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&ExperimentSpec, &SimReport)> {
        self.rows.iter().map(|(s, r)| (s, r))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The subset of results for the cells of `grid`, in `grid`'s
    /// order. Used by `repro_all` to carve per-figure result files out
    /// of the merged run. Panics if `grid` has a cell these results
    /// don't cover.
    pub fn select(&self, grid: &ExperimentGrid) -> GridResults {
        let rows = grid
            .cells()
            .iter()
            .map(|spec| {
                let report = self.get_labeled(&spec.label).clone();
                (spec.clone(), report)
            })
            .collect();
        GridResults { rows }
    }

    /// One structured metric row per cell, in grid order.
    pub fn metric_rows(&self) -> Vec<MetricRow> {
        self.rows
            .iter()
            .map(|(spec, r)| MetricRow::of(spec, r))
            .collect()
    }

    /// Renders all cells as CSV (header + one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(MetricRow::CSV_HEADER);
        out.push('\n');
        for row in self.metric_rows() {
            out.push_str(&row.to_csv());
            out.push('\n');
        }
        out
    }

    /// All cells as a JSON array of [`MetricRow::to_json`] objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.metric_rows().iter().map(MetricRow::to_json).collect())
    }

    /// Writes `results/<name>.csv` and `results/<name>.json`.
    ///
    /// Each file is written to a tempfile and renamed into place, so a
    /// completed run atomically replaces any partial CSV an
    /// [`IncrementalCsv`] streamed while cells were landing (and the
    /// final row order is always grid order, independent of
    /// completion order).
    ///
    /// Errors are reported to stderr but not fatal, matching the text
    /// emitters: a read-only checkout still prints results to stdout.
    pub fn write_files(&self, name: &str) {
        let Some(dir) = results_dir() else {
            return;
        };
        write_atomically(&dir.join(format!("{name}.csv")), &self.to_csv());
        write_json(&dir.join(format!("{name}.json")), &self.to_json());
    }

    /// Writes `results/telemetry_<name>.csv` / `.json` from the cells
    /// whose reports carry a telemetry series (a no-op when none do —
    /// the run was not instrumented). The renderers live in the sim
    /// crate and consume the series values directly, so a routed job's
    /// artifacts are byte-identical to a local run's.
    pub fn write_telemetry_files(&self, name: &str) {
        let cells: Vec<(usize, &str, &bump_sim::TelemetrySeries)> = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(i, (spec, r))| r.telemetry.as_ref().map(|t| (i, spec.label.as_str(), t)))
            .collect();
        if cells.is_empty() {
            return;
        }
        let Some(dir) = results_dir() else {
            return;
        };
        let path = |ext: &str| dir.join(format!("telemetry_{name}.{ext}"));
        write_atomically(&path("csv"), &bump_sim::cells_to_csv(&cells));
        write_json(&path("json"), &bump_sim::cells_to_json(&cells));
    }
}

/// The `results/` directory, created if missing; `None` (after a
/// warning) when it cannot be.
pub(crate) fn results_dir() -> Option<&'static Path> {
    let dir = Path::new("results");
    match std::fs::create_dir_all(dir) {
        Ok(()) => Some(dir),
        Err(e) => {
            eprintln!("warning: cannot create results/: {e}");
            None
        }
    }
}

/// Writes `doc`'s compact rendering plus a trailing newline to `path`
/// (tempfile + rename, like every results file).
pub(crate) fn write_json(path: &Path, doc: &Json) {
    write_atomically(path, &format!("{doc}\n"));
}

/// Writes `content` to `path` via a same-directory tempfile + rename.
fn write_atomically(path: &Path, content: &str) {
    let tmp = path.with_extension("tmp");
    if let Err(e) = std::fs::write(&tmp, content) {
        eprintln!("warning: cannot write {}: {e}", tmp.display());
        return;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        eprintln!("warning: cannot rename into {}: {e}", path.display());
    }
}

/// Streams metric rows to `results/<name>.csv` as cells land.
///
/// The file is opened lazily on the first row (so figures without
/// simulations never create one), gets the CSV header up front, and is
/// flushed after every row: an interrupted `--full` sweep leaves every
/// finished cell's row on disk, in completion order. A run that
/// completes rewrites the file in grid order via
/// [`GridResults::write_files`]'s tempfile + rename.
pub struct IncrementalCsv {
    path: PathBuf,
    state: Mutex<IncrementalState>,
}

enum IncrementalState {
    Unopened,
    Open(std::fs::File),
    Failed,
}

impl IncrementalCsv {
    /// An incremental writer for `results/<name>.csv`.
    pub fn new(name: &str) -> Self {
        IncrementalCsv {
            path: Path::new("results").join(format!("{name}.csv")),
            state: Mutex::new(IncrementalState::Unopened),
        }
    }

    /// Appends one row (header first if this is the first row).
    /// Errors disable the writer with a warning; the run itself is
    /// never failed over result-file I/O.
    pub fn append(&self, row: &MetricRow) {
        let mut state = self.state.lock().expect("incremental csv poisoned");
        if let IncrementalState::Unopened = *state {
            *state = match self.open() {
                Ok(file) => IncrementalState::Open(file),
                Err(e) => {
                    eprintln!("warning: cannot stream {}: {e}", self.path.display());
                    IncrementalState::Failed
                }
            };
        }
        if let IncrementalState::Open(file) = &mut *state {
            let ok = writeln!(file, "{}", row.to_csv()).and_then(|()| file.flush());
            if let Err(e) = ok {
                eprintln!("warning: cannot stream {}: {e}", self.path.display());
                *state = IncrementalState::Failed;
            }
        }
    }

    fn open(&self) -> std::io::Result<std::fs::File> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(&self.path)?;
        writeln!(file, "{}", MetricRow::CSV_HEADER)?;
        file.flush()?;
        Ok(file)
    }
}

/// The structured per-cell metrics emitted to CSV/JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRow {
    /// Cell label.
    pub label: String,
    /// Preset name.
    pub preset: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Core count.
    pub cores: usize,
    /// Workload seed.
    pub seed: u64,
    /// Measured cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Aggregate IPC.
    pub ipc: f64,
    /// DRAM row-buffer hit ratio.
    pub row_hit: f64,
    /// Ideal-locality row-buffer hit bound.
    pub ideal_row_hit: f64,
    /// Dynamic memory energy per useful access (nJ).
    pub energy_per_access_nj: f64,
    /// Total server energy (J).
    pub server_energy_j: f64,
    /// Total DRAM accesses.
    pub dram_accesses: u64,
    /// Write share of DRAM traffic.
    pub write_fraction: f64,
    /// Predicted (bulk-covered) fraction of useful reads.
    pub predicted_read_fraction: f64,
    /// Overfetched fraction of useful reads.
    pub read_overfetch_fraction: f64,
    /// Predicted (eagerly written) fraction of writes.
    pub predicted_write_fraction: f64,
    /// Extra-writeback fraction of writes.
    pub extra_writeback_fraction: f64,
}

impl MetricRow {
    /// The metric row for one cell's report.
    pub fn of(spec: &ExperimentSpec, r: &SimReport) -> MetricRow {
        MetricRow {
            label: spec.label.clone(),
            preset: spec.preset.name(),
            workload: spec.workload.name(),
            cores: spec.options.cores,
            seed: spec.options.seed,
            cycles: r.cycles,
            instructions: r.instructions,
            ipc: r.ipc(),
            row_hit: r.row_hit_ratio().value(),
            ideal_row_hit: r.ideal_row_hit_ratio().value(),
            energy_per_access_nj: r.energy_per_access_nj(),
            server_energy_j: r.server_energy.total_j(),
            dram_accesses: r.traffic.total(),
            write_fraction: r.traffic.write_fraction(),
            predicted_read_fraction: r.predicted_read_fraction(),
            read_overfetch_fraction: r.read_overfetch_fraction(),
            predicted_write_fraction: r.predicted_write_fraction(),
            extra_writeback_fraction: r.extra_writeback_fraction(),
        }
    }

    /// CSV column names, matching [`MetricRow::to_csv`]'s field order.
    pub const CSV_HEADER: &'static str = "label,preset,workload,cores,seed,cycles,instructions,\
         ipc,row_hit,ideal_row_hit,energy_per_access_nj,server_energy_j,dram_accesses,\
         write_fraction,predicted_read_fraction,read_overfetch_fraction,\
         predicted_write_fraction,extra_writeback_fraction";

    /// One CSV row (no trailing newline).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
            self.label,
            self.preset,
            self.workload,
            self.cores,
            self.seed,
            self.cycles,
            self.instructions,
            self.ipc,
            self.row_hit,
            self.ideal_row_hit,
            self.energy_per_access_nj,
            self.server_energy_j,
            self.dram_accesses,
            self.write_fraction,
            self.predicted_read_fraction,
            self.read_overfetch_fraction,
            self.predicted_write_fraction,
            self.extra_writeback_fraction,
        )
    }

    /// The row as a JSON object, fields in CSV column order. Floats
    /// are rounded to the CSV's 6 decimals ([`Json::fixed`]), so the
    /// object carries exactly the values the CSV row states.
    pub fn to_json(&self) -> Json {
        let f = |x: f64| Json::fixed(x, 6);
        Json::obj(vec![
            ("label", Json::from(self.label.as_str())),
            ("preset", Json::from(self.preset)),
            ("workload", Json::from(self.workload)),
            ("cores", Json::from(self.cores)),
            ("seed", Json::from(self.seed)),
            ("cycles", Json::from(self.cycles)),
            ("instructions", Json::from(self.instructions)),
            ("ipc", f(self.ipc)),
            ("row_hit", f(self.row_hit)),
            ("ideal_row_hit", f(self.ideal_row_hit)),
            ("energy_per_access_nj", f(self.energy_per_access_nj)),
            ("server_energy_j", f(self.server_energy_j)),
            ("dram_accesses", Json::from(self.dram_accesses)),
            ("write_fraction", f(self.write_fraction)),
            ("predicted_read_fraction", f(self.predicted_read_fraction)),
            ("read_overfetch_fraction", f(self.read_overfetch_fraction)),
            ("predicted_write_fraction", f(self.predicted_write_fraction)),
            ("extra_writeback_fraction", f(self.extra_writeback_fraction)),
        ])
    }

    /// [`MetricRow::to_json`] of the row a [`MetricRow::to_csv`] line
    /// states, rebuilt from the line alone: name columns stay text,
    /// count columns become integers and the rest floats. The CSV's
    /// 6-decimal text parses to exactly the value [`Json::fixed`] keeps,
    /// so the object encodes byte-identically to `to_json`'s. `None`
    /// unless the line has the [`MetricRow::CSV_HEADER`] columns with
    /// numbers where numbers go.
    pub fn csv_to_json(csv: &str) -> Option<Json> {
        let mut cols = csv.split(',');
        let mut fields = Vec::new();
        for name in Self::CSV_HEADER.split(',') {
            let text = cols.next()?;
            let value = match name {
                "label" | "preset" | "workload" => Json::from(text),
                "cores" | "seed" | "cycles" | "instructions" | "dram_accesses" => {
                    Json::from(text.parse::<u64>().ok()?)
                }
                _ => Json::from(text.parse::<f64>().ok()?),
            };
            fields.push((name, value));
        }
        cols.next().is_none().then(|| Json::obj(fields))
    }
}

/// Extracts one numeric metric from a [`MetricRow`] (see
/// [`SEED_METRICS`]).
pub type MetricExtractor = fn(&MetricRow) -> f64;

/// The numeric [`MetricRow`] fields aggregated by [`SeedSummary`], as
/// `(column name, extractor)` pairs in summary column order.
pub const SEED_METRICS: &[(&str, MetricExtractor)] = &[
    ("cycles", |r| r.cycles as f64),
    ("instructions", |r| r.instructions as f64),
    ("ipc", |r| r.ipc),
    ("row_hit", |r| r.row_hit),
    ("ideal_row_hit", |r| r.ideal_row_hit),
    ("energy_per_access_nj", |r| r.energy_per_access_nj),
    ("server_energy_j", |r| r.server_energy_j),
    ("dram_accesses", |r| r.dram_accesses as f64),
    ("write_fraction", |r| r.write_fraction),
    ("predicted_read_fraction", |r| r.predicted_read_fraction),
    ("read_overfetch_fraction", |r| r.read_overfetch_fraction),
    ("predicted_write_fraction", |r| r.predicted_write_fraction),
    ("extra_writeback_fraction", |r| r.extra_writeback_fraction),
];

/// Mean ± sample standard deviation of one metric across seed replicas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeedStat {
    /// Arithmetic mean across replicas.
    pub mean: f64,
    /// Sample standard deviation (`n-1` denominator; 0 for one replica).
    pub std: f64,
}

impl SeedStat {
    fn of(values: &[f64]) -> SeedStat {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        SeedStat { mean, std }
    }
}

/// Per-cell mean ± stddev across seed replicas (the `--seeds N` mode).
#[derive(Clone, Debug)]
pub struct SeedRow {
    /// Base cell label (without the `#s<k>` replica suffix).
    pub label: String,
    /// Preset name.
    pub preset: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Number of replicas aggregated.
    pub seeds: usize,
    /// One [`SeedStat`] per [`SEED_METRICS`] entry, in that order.
    pub stats: Vec<SeedStat>,
}

/// Seed-replicated aggregation of a grid run: one row per *base* cell,
/// each metric reported as mean ± sample stddev across the replicas
/// produced by [`ExperimentGrid::replicate_seeds`].
#[derive(Clone, Debug)]
pub struct SeedSummary {
    rows: Vec<SeedRow>,
}

impl SeedSummary {
    /// Aggregates `results` (a run of `base.replicate_seeds(replicas)`)
    /// back onto the cells of `base`. Panics if a replica row is
    /// missing — that is a harness wiring bug.
    pub fn from_results(base: &ExperimentGrid, results: &GridResults, replicas: usize) -> Self {
        let replicas = replicas.max(1);
        let by_label: std::collections::HashMap<String, MetricRow> = results
            .metric_rows()
            .into_iter()
            .map(|row| (row.label.clone(), row))
            .collect();
        let rows = base
            .cells()
            .iter()
            .map(|cell| {
                let replica_rows: Vec<&MetricRow> = (0..replicas)
                    .map(|k| {
                        let label = if k == 0 {
                            cell.label.clone()
                        } else {
                            format!("{}#s{k}", cell.label)
                        };
                        by_label
                            .get(label.as_str())
                            .unwrap_or_else(|| panic!("seed summary missing replica {label:?}"))
                    })
                    .collect();
                let stats = SEED_METRICS
                    .iter()
                    .map(|(_, get)| {
                        let values: Vec<f64> = replica_rows.iter().map(|r| get(r)).collect();
                        SeedStat::of(&values)
                    })
                    .collect();
                SeedRow {
                    label: cell.label.clone(),
                    preset: cell.preset.name(),
                    workload: cell.workload.name(),
                    seeds: replicas,
                    stats,
                }
            })
            .collect();
        SeedSummary { rows }
    }

    /// The aggregated rows, in base-grid order.
    pub fn rows(&self) -> &[SeedRow] {
        &self.rows
    }

    /// CSV: `label,preset,workload,seeds` then `<metric>_mean,<metric>_std`
    /// per [`SEED_METRICS`] entry.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,preset,workload,seeds");
        for (name, _) in SEED_METRICS {
            let _ = write!(out, ",{name}_mean,{name}_std");
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(
                out,
                "{},{},{},{}",
                row.label, row.preset, row.workload, row.seeds
            );
            for stat in &row.stats {
                let _ = write!(out, ",{:.6},{:.6}", stat.mean, stat.std);
            }
            out.push('\n');
        }
        out
    }

    /// JSON array with per-metric `{"mean":..,"std":..}` objects,
    /// rounded to the CSV's 6 decimals.
    pub fn to_json(&self) -> Json {
        let row = |row: &SeedRow| {
            let mut fields = vec![
                ("label", Json::from(row.label.as_str())),
                ("preset", Json::from(row.preset)),
                ("workload", Json::from(row.workload)),
                ("seeds", Json::from(row.seeds)),
            ];
            for ((name, _), stat) in SEED_METRICS.iter().zip(&row.stats) {
                let stat = Json::obj(vec![
                    ("mean", Json::fixed(stat.mean, 6)),
                    ("std", Json::fixed(stat.std, 6)),
                ]);
                fields.push((*name, stat));
            }
            Json::obj(fields)
        };
        Json::Arr(self.rows.iter().map(row).collect())
    }

    /// Writes `results/<name>_seeds.csv` / `.json` (tempfile + rename).
    pub fn write_files(&self, name: &str) {
        let Some(dir) = results_dir() else {
            return;
        };
        write_atomically(&dir.join(format!("{name}_seeds.csv")), &self.to_csv());
        write_json(&dir.join(format!("{name}_seeds.json")), &self.to_json());
    }
}

/// Command-line context shared by every figure binary: scale
/// (`--quick`/`--full`), worker count (`--threads N`), seed replication
/// (`--seeds N`), simulation engine (`--engine {cycle,event}`),
/// instruments (`--profile`, `--telemetry[=N]`), and the scenario
/// sweep's CI-sized slice (`--smoke`).
#[derive(Clone, Copy, Debug)]
pub struct GridArgs {
    /// Run scale.
    pub scale: Scale,
    /// Worker threads for [`run_grid`].
    pub threads: usize,
    /// Seed replicas per cell (1 = single calibrated seed, no summary).
    pub seeds: usize,
    /// Simulation engine every cell runs under.
    pub engine: bump_sim::Engine,
    /// Instruments every cell runs with. `--profile` writes the
    /// per-phase wall-clock breakdown as `results/profile_<name>.json`;
    /// `--telemetry` (default stride) or `--telemetry=N` (every N
    /// cycles) writes the gauge series as
    /// `results/telemetry_<name>.{csv,json}`.
    pub instruments: Instruments,
    /// `--smoke`: run the `scenarios` sweep's CI-sized slice. Every
    /// other target refuses it ([`crate::figures::for_args`]).
    pub smoke: bool,
}

/// The flags [`GridArgs::parse`] accepts, for its error message.
const GRID_FLAGS: &str = "--quick | --full, --threads N, --seeds N, --engine {cycle,event}, \
     --profile, --telemetry[=N], --smoke (scenarios only)";

impl GridArgs {
    /// Parses the process arguments; on an error prints it with the
    /// list of valid flags and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        GridArgs::parse(&args).unwrap_or_else(|e| GridArgs::refuse(&e))
    }

    /// Prints `error` with the list of valid flags and exits with
    /// status 2.
    pub fn refuse(error: &str) -> ! {
        eprintln!("error: {error}\nvalid flags: {GRID_FLAGS}");
        std::process::exit(2);
    }

    /// Parses a figure binary's arguments (without the program name).
    /// Later flags override earlier ones; an unknown flag or a missing
    /// or malformed value is an error.
    pub fn parse(args: &[String]) -> Result<GridArgs, String> {
        let mut out = GridArgs {
            scale: Scale::Quick,
            threads: default_threads(),
            seeds: 1,
            engine: bump_sim::Engine::default(),
            instruments: Instruments::default(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().map(String::as_str).unwrap_or("");
            match arg.as_str() {
                "--quick" => out.scale = Scale::Quick,
                "--full" => out.scale = Scale::Full,
                // `--threads 0` still means one worker.
                "--threads" => match value().parse::<usize>() {
                    Ok(n) => out.threads = n.max(1),
                    Err(_) => return Err("--threads expects a worker count".into()),
                },
                "--seeds" => match value().parse::<usize>() {
                    Ok(n) if n >= 1 => out.seeds = n,
                    _ => return Err("--seeds expects a replica count >= 1".into()),
                },
                // The engine choice is the semantic point of the flag;
                // running minutes of simulation under the wrong one is
                // worse than stopping.
                "--engine" => match bump_sim::Engine::from_arg(value()) {
                    Some(e) => out.engine = e,
                    None => return Err("--engine expects 'cycle' or 'event'".into()),
                },
                "--profile" => out.instruments.profile = true,
                a if a == "--telemetry" || a.starts_with("--telemetry=") => {
                    out.instruments.telemetry = parse_telemetry_flag(std::slice::from_ref(arg))
                        .ok_or("--telemetry expects a positive cycle stride (--telemetry=N)")?;
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// `grid` as this run simulates it: every cell replicated over
    /// `--seeds`, with the run's instruments, under `--engine`.
    /// Custom-config cells get the engine too, since
    /// [`run_experiment_with_config`] takes it from the cell's options.
    pub fn expand(&self, grid: &ExperimentGrid) -> ExperimentGrid {
        let mut out = grid
            .replicate_seeds(self.seeds)
            .instrument(self.instruments);
        for cell in &mut out.cells {
            cell.options.engine = self.engine;
        }
        out
    }
}

/// Parses `--telemetry` / `--telemetry=N` out of `args` (the one parser
/// behind every binary's flag). Parsed values: `None` (flag absent),
/// `Some(DEFAULT_STRIDE)` (bare flag), `Some(n)` (explicit stride). A
/// malformed or zero stride is `None` at the outer level (parse error).
pub fn parse_telemetry_flag(args: &[String]) -> Option<Option<u64>> {
    let mut out = None;
    for a in args {
        if a == "--telemetry" {
            out = Some(bump_sim::DEFAULT_STRIDE);
        } else if let Some(v) = a.strip_prefix("--telemetry=") {
            match v.parse::<u64>() {
                Ok(n) if n > 0 => out = Some(n),
                _ => return None,
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOptions {
        RunOptions::quick(1)
    }

    #[test]
    fn cartesian_is_exhaustive_and_ordered() {
        let grid =
            ExperimentGrid::cartesian(&[Preset::BaseOpen, Preset::Bump], &Workload::all(), opts());
        assert_eq!(grid.len(), 12);
        assert_eq!(grid.cells()[0].preset, Preset::BaseOpen);
        assert_eq!(grid.cells()[6].preset, Preset::Bump);
        assert_eq!(grid.cells()[0].workload, Workload::all()[0]);
    }

    #[test]
    fn merge_deduplicates_by_label() {
        let mut a = ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), opts());
        let b =
            ExperimentGrid::cartesian(&[Preset::BaseOpen, Preset::Bump], &Workload::all(), opts());
        a.merge(b);
        assert_eq!(a.len(), 12, "shared Base-open cells must not duplicate");
    }

    #[test]
    #[should_panic(expected = "different run options")]
    fn conflicting_duplicate_labels_panic() {
        let mut grid = ExperimentGrid::new();
        grid.push(ExperimentSpec::new(
            Preset::BaseOpen,
            Workload::WebSearch,
            opts(),
        ));
        let mut other = opts();
        other.seed = 7;
        grid.push(ExperimentSpec::new(
            Preset::BaseOpen,
            Workload::WebSearch,
            other,
        ));
    }

    #[test]
    fn scenario_labels_tag_non_default_scenarios_only() {
        let default = ExperimentSpec::with_scenario(
            Preset::Bump,
            Workload::WebSearch,
            Scenario::default(),
            opts(),
        );
        assert_eq!(default.label, "BuMP/Web Search");
        let ddr4 = ExperimentSpec::with_scenario(
            Preset::Bump,
            Workload::WebSearch,
            Scenario::from_name("ddr4_2400+llc8m").unwrap(),
            opts(),
        );
        assert_eq!(ddr4.label, "BuMP/Web Search@ddr4_2400+llc8m");
        // The scenario name embedded in the label round-trips.
        let name = ddr4.label.split('@').nth(1).unwrap();
        assert_eq!(Scenario::from_name(name), Ok(ddr4.scenario));
    }

    #[test]
    fn cartesian_scenario_tags_every_cell() {
        let scenario = Scenario::from_name("lpddr4_3200").unwrap();
        let grid = ExperimentGrid::cartesian_scenario(
            &[Preset::BaseOpen, Preset::Bump],
            &[Workload::WebSearch],
            opts(),
            &scenario,
        );
        assert_eq!(grid.len(), 2);
        assert!(grid
            .cells()
            .iter()
            .all(|c| c.label.ends_with("@lpddr4_3200") && c.scenario == scenario));
    }

    #[test]
    #[should_panic(expected = "different scenario")]
    fn conflicting_duplicate_scenarios_panic() {
        let mut grid = ExperimentGrid::new();
        grid.push(ExperimentSpec::new(
            Preset::BaseOpen,
            Workload::WebSearch,
            opts(),
        ));
        // A scenario cell mislabeled as the standard one must not be
        // silently dropped in favor of the default simulation.
        let mut spec = ExperimentSpec::with_scenario(
            Preset::BaseOpen,
            Workload::WebSearch,
            Scenario::from_name("ddr4_2400").unwrap(),
            opts(),
        );
        spec.label = "Base-open/Web Search".into();
        grid.push(spec);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let grid =
            ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), opts()).derive_seeds();
        let again =
            ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), opts()).derive_seeds();
        let seeds: Vec<u64> = grid.cells().iter().map(|c| c.options.seed).collect();
        let seeds2: Vec<u64> = again.cells().iter().map(|c| c.options.seed).collect();
        assert_eq!(seeds, seeds2, "derivation must be deterministic");
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "cell seeds must be distinct");
    }

    #[test]
    #[should_panic(expected = "different config override")]
    fn conflicting_duplicate_configs_panic() {
        use bump_sim::config_for;
        let mut grid = ExperimentGrid::new();
        grid.push(ExperimentSpec::new(
            Preset::Bump,
            Workload::WebSearch,
            opts(),
        ));
        let mut cfg = config_for(Preset::Bump, Workload::WebSearch, opts());
        cfg.bump.bht_entries = 1;
        // Custom cell mislabeled as the standard one: must not be
        // silently dropped in favor of the standard simulation.
        grid.push(ExperimentSpec {
            label: "BuMP/Web Search".into(),
            ..ExperimentSpec::with_config("x", cfg, opts())
        });
    }

    #[test]
    fn replicate_seeds_keeps_replica_zero_and_decorrelates_the_rest() {
        let base = ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), opts());
        let grid = base.replicate_seeds(3);
        assert_eq!(grid.len(), 18);
        // Replicas of a cell are consecutive; replica 0 is unchanged.
        assert_eq!(grid.cells()[0].label, base.cells()[0].label);
        assert_eq!(grid.cells()[0].options.seed, opts().seed);
        assert_eq!(
            grid.cells()[1].label,
            format!("{}#s1", base.cells()[0].label)
        );
        // Replica 1's seed matches the one-step derive_seeds derivation.
        assert_eq!(
            grid.cells()[1].options.seed,
            derive_cell_seed(opts().seed, &base.cells()[0].label)
        );
        let seeds: std::collections::HashSet<u64> =
            grid.cells().iter().map(|c| c.options.seed).collect();
        assert_eq!(
            seeds.len(),
            1 + 12,
            "six base cells share seed 42; replicas differ"
        );
        // replicate_seeds(1) is the identity.
        assert_eq!(base.replicate_seeds(1).len(), base.len());
    }

    #[test]
    fn try_push_reports_conflicts_instead_of_panicking() {
        let mut grid = ExperimentGrid::new();
        let spec = ExperimentSpec::new(Preset::BaseOpen, Workload::WebSearch, opts());
        assert_eq!(grid.try_push(spec.clone()), Ok(true));
        assert_eq!(grid.try_push(spec.clone()), Ok(false), "identical dedups");
        let mut other = spec;
        other.options.seed = 7;
        let err = grid.try_push(other).expect_err("conflict must be an Err");
        assert!(err.contains("different run options"), "{err}");
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn unit_ranges_recover_replicate_seeds_layout() {
        let base = ExperimentGrid::cartesian(
            &[Preset::BaseOpen, Preset::Bump],
            &[Workload::WebSearch],
            opts(),
        );
        let grid = base.replicate_seeds(3);
        let units = grid.unit_ranges(3);
        assert_eq!(units.len(), base.len());
        for (u, range) in units.iter().enumerate() {
            let cells = &grid.cells()[range.clone()];
            assert_eq!(cells.len(), 3);
            // Replica 0 is the base cell; the rest carry its label.
            assert_eq!(cells[0].label, base.cells()[u].label);
            for (k, cell) in cells.iter().enumerate().skip(1) {
                assert_eq!(cell.label, format!("{}#s{k}", base.cells()[u].label));
            }
        }
        // replicas = 1: every cell is its own unit.
        assert_eq!(base.unit_ranges(1).len(), base.len());
    }

    #[test]
    #[should_panic(expected = "cannot be a grid")]
    fn unit_ranges_reject_non_replica_grids() {
        ExperimentGrid::cartesian(&[Preset::BaseOpen], &Workload::all(), opts()).unit_ranges(4);
    }

    #[test]
    fn seed_stat_mean_and_sample_std() {
        let s = SeedStat::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12, "sample stddev of 1,2,3 is 1");
        let single = SeedStat::of(&[5.0]);
        assert_eq!(single.std, 0.0);
        assert_eq!(single.mean, 5.0);
    }

    #[test]
    fn seed_summary_shapes() {
        let base = ExperimentGrid::cartesian(&[Preset::BaseOpen], &[Workload::WebSearch], opts());
        let grid = base.replicate_seeds(2);
        let results = run_grid(&grid, 2);
        let summary = SeedSummary::from_results(&base, &results, 2);
        assert_eq!(summary.rows().len(), 1);
        assert_eq!(summary.rows()[0].seeds, 2);
        assert_eq!(summary.rows()[0].stats.len(), SEED_METRICS.len());
        let csv = summary.to_csv();
        assert_eq!(
            csv.lines().next().unwrap().split(',').count(),
            4 + 2 * SEED_METRICS.len()
        );
        assert_eq!(csv.lines().count(), 2);
        let json = summary.to_json().to_string();
        assert!(json.contains("\"ipc\":{\"mean\":"));
    }

    #[test]
    fn telemetry_flag_parses_bare_and_strided_forms() {
        let argv = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_telemetry_flag(&argv(&["fig"])), Some(None));
        assert_eq!(
            parse_telemetry_flag(&argv(&["fig", "--telemetry"])),
            Some(Some(bump_sim::DEFAULT_STRIDE))
        );
        assert_eq!(
            parse_telemetry_flag(&argv(&["fig", "--telemetry=4096"])),
            Some(Some(4096))
        );
        assert_eq!(parse_telemetry_flag(&argv(&["fig", "--telemetry=0"])), None);
        assert_eq!(parse_telemetry_flag(&argv(&["fig", "--telemetry=x"])), None);
    }

    #[test]
    fn grid_args_parse_documented_forms_and_refuse_the_rest() {
        let argv = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Every form the README, the CI workflow and the docs run.
        for ok in [
            &[][..],
            &["--full", "--threads", "8"],
            &["--smoke"],
            &["--quick", "--engine", "event"],
            &["--quick", "--engine", "event", "--profile"],
            &["--quick", "--telemetry", "--threads", "1"],
            &["--telemetry=4096", "--seeds", "3", "--engine", "cycle"],
        ] {
            GridArgs::parse(&argv(ok)).unwrap_or_else(|e| panic!("{ok:?} refused: {e}"));
        }
        let a = GridArgs::parse(&argv(&[
            "--full",
            "--threads",
            "0",
            "--seeds",
            "3",
            "--engine",
            "cycle",
            "--profile",
            "--telemetry=4096",
        ]))
        .unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.threads, 1, "--threads 0 still means one worker");
        assert_eq!(a.seeds, 3);
        assert_eq!(a.engine, bump_sim::Engine::Cycle);
        assert_eq!(
            a.instruments,
            Instruments {
                profile: true,
                telemetry: Some(4096)
            }
        );
        // What the parsed context does to a grid: seeds, instruments
        // and the engine land on every cell.
        let grid = ExperimentGrid::cartesian(&[Preset::BaseOpen], &[Workload::WebSearch], opts());
        let expanded = a.expand(&grid);
        assert_eq!(expanded.len(), 3);
        for cell in expanded.cells() {
            assert_eq!(cell.options.engine, bump_sim::Engine::Cycle);
            assert_eq!(cell.instruments, a.instruments);
        }
        assert_eq!(GridArgs::parse(&[]).unwrap().scale, Scale::Quick);
        for bad in [
            &["--ful"][..],
            &["--thread", "4"],
            &["--quick", "--engine"],
            &["--engine", "fast"],
            &["--threads", "x"],
            &["--seeds", "0"],
            &["--telemetry=0"],
            &["quick"],
        ] {
            assert!(GridArgs::parse(&argv(bad)).is_err(), "{bad:?} parsed");
        }
        let err = GridArgs::parse(&argv(&["--ful"])).unwrap_err();
        assert!(err.contains("--ful"), "{err}");
        // `--smoke` selects the scenario sweep's CI slice (2 presets ×
        // DDR4 + LPDDR4 × one workload at the paper's LLC) and every
        // other target refuses it.
        assert!(!GridArgs::parse(&[]).unwrap().smoke);
        let smoke = GridArgs::parse(&argv(&["--smoke"])).unwrap();
        assert!(smoke.smoke);
        let slice = crate::figures::for_args("scenarios", &smoke).unwrap();
        assert_eq!((slice.grid)(smoke.scale).len(), 4);
        let plain = GridArgs::parse(&[]).unwrap();
        let full = crate::figures::for_args("scenarios", &plain).unwrap();
        assert_eq!((full.grid)(plain.scale).len(), 2 * 3 * 4 * 3);
        for figure in crate::figures::all() {
            assert!(crate::figures::for_args(figure.name, &plain).is_ok());
            if figure.name != "scenarios" {
                let err = crate::figures::for_args(figure.name, &smoke).unwrap_err();
                assert!(err.contains("--smoke"), "{err}");
            }
        }
    }

    #[test]
    fn grid_telemetry_runs_produce_series_and_artifacts() {
        let grid = ExperimentGrid::cartesian(&[Preset::BaseOpen], &[Workload::WebSearch], opts());
        let instruments = Instruments {
            profile: false,
            telemetry: Some(2048),
        };
        let results = run_grid(&grid.clone().instrument(instruments), 1);
        let (_, report) = &results.rows[0];
        let series = report.telemetry.as_ref().expect("telemetry requested");
        series.validate().expect("series well-formed");
        assert!(series.points.len() > 1);
        // Uninstrumented runs carry no series and write no files.
        let plain = run_grid(&grid, 1);
        assert!(plain.rows[0].1.telemetry.is_none());
    }

    #[test]
    fn csv_and_json_shapes() {
        let row = MetricRow {
            label: "x/y".into(),
            preset: "Base-open",
            workload: "Web Search",
            cores: 2,
            seed: 42,
            cycles: 10,
            instructions: 20,
            ipc: 2.0,
            row_hit: 0.5,
            ideal_row_hit: 0.75,
            energy_per_access_nj: 10.0,
            server_energy_j: 1.0,
            dram_accesses: 100,
            write_fraction: 0.25,
            predicted_read_fraction: 0.0,
            read_overfetch_fraction: 0.0,
            predicted_write_fraction: 0.0,
            extra_writeback_fraction: 0.0,
        };
        assert_eq!(
            row.to_csv().split(',').count(),
            MetricRow::CSV_HEADER.split(',').count()
        );
        let json = row.to_json().to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"row_hit\":0.5,"));
        let parsed = Json::parse(&json).expect("metric row renders valid JSON");
        assert_eq!(parsed, row.to_json());
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(parsed.get("ipc").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.get("label").and_then(Json::as_str), Some("x/y"));
    }
}
