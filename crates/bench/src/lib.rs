//! Shared harness for the reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). This library holds the shared
//! plumbing: run-option parsing, result-table formatting, paper
//! reference values, and result-file output.
//!
//! The heavy lifting lives in [`experiment`] (the parallel
//! `ExperimentGrid` framework) and [`figures`] (the registry mapping
//! each figure/table to its grid of simulations and its renderer).

#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod sched;

use bump_sim::RunOptions;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Scale of a reproduction run, selected by `--quick` / `--full` (see
/// [`experiment::GridArgs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long run close to the paper's sampling windows.
    Full,
    /// Seconds-long smoke run (default; shapes hold, noise is higher).
    Quick,
}

impl Scale {
    /// The run options for this scale, under the default engine (a run
    /// stamps its `--engine` on each cell: [`experiment::GridArgs::expand`]).
    pub fn options(self) -> RunOptions {
        match self {
            Scale::Full => RunOptions::paper(),
            Scale::Quick => RunOptions {
                warmup_instructions: 400_000,
                measure_instructions: 400_000,
                max_cycles: 30_000_000,
                ..RunOptions::quick(8)
            },
        }
    }
}

/// A simple fixed-width text table builder for figure output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes `content` under `results/<name>.txt` (and echoes to stdout).
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// Paper-reported reference values, for side-by-side printing.
pub mod paper {
    /// Figure 2 / 13: average row-buffer hit ratios.
    pub const ROW_HIT_BASE_OPEN: f64 = 0.21;
    /// SMS average row-buffer hit ratio.
    pub const ROW_HIT_SMS: f64 = 0.30;
    /// VWQ average row-buffer hit ratio.
    pub const ROW_HIT_VWQ: f64 = 0.36;
    /// SMS+VWQ average row-buffer hit ratio.
    pub const ROW_HIT_SMS_VWQ: f64 = 0.44;
    /// BuMP average row-buffer hit ratio.
    pub const ROW_HIT_BUMP: f64 = 0.55;
    /// Ideal average row-buffer hit ratio.
    pub const ROW_HIT_IDEAL: f64 = 0.77;
    /// Table IV: BuMP per-workload row hits.
    pub const TABLE4_BUMP_ROW_HITS: [(&str, f64); 6] = [
        ("Data Serving", 0.54),
        ("Media Streaming", 0.64),
        ("Online Analytics", 0.57),
        ("Software Testing", 0.34),
        ("Web Search", 0.62),
        ("Web Serving", 0.56),
    ];
    /// Table I: late-modification fractions.
    pub const TABLE1_LATE_MOD: [(&str, f64); 6] = [
        ("Data Serving", 0.08),
        ("Media Streaming", 0.11),
        ("Online Analytics", 0.06),
        ("Software Testing", 0.03),
        ("Web Search", 0.06),
        ("Web Serving", 0.09),
    ];
    /// BuMP energy-per-access reduction vs Base-close / Base-open.
    pub const ENERGY_REDUCTION_VS_CLOSE: f64 = 0.34;
    /// BuMP energy reduction vs the open-row baseline.
    pub const ENERGY_REDUCTION_VS_OPEN: f64 = 0.23;
    /// BuMP throughput gain vs Base-close / Base-open.
    pub const PERF_VS_CLOSE: f64 = 0.09;
    /// BuMP throughput gain vs the open-row baseline.
    pub const PERF_VS_OPEN: f64 = 0.11;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_rows() {
        let mut t = TextTable::new(&["a", "bb"]);
        t.row(vec!["xxx".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("xxx"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        TextTable::new(&["a"]).row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), "50.0%");
    }
}
