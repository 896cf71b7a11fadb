//! The on-disk result journal behind `bumpd --resume` semantics.
//!
//! Every cell the daemon finishes is appended (and flushed) as one
//! NDJSON line keyed by a digest of the cell's full identity — label,
//! run options (windows, seed, core count, small-LLC flag), and
//! engine. Re-submitting an identical spec with `resume: true` streams
//! the journaled rows back instantly instead of re-simulating; any
//! difference in the identity (a different seed, window, or engine)
//! changes the key, so resume can never serve a stale row for a
//! different experiment.
//!
//! The file is append-only and human-greppable. A torn final line
//! (daemon killed mid-append) is skipped on load with a warning, and
//! the next append overwrites nothing — the journal is only ever a
//! cache, so losing a line costs one re-simulation, never correctness.

use crate::json::Json;
use crate::proto::{check_row, row_of};
use bump_bench::experiment::ExperimentSpec;
use std::collections::HashMap;
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};

/// One journaled cell: what the daemon streams on a resume hit.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// The cell's full identity string ([`cell_identity`]); checked on
    /// every hit so a [`cell_key`] hash collision can only cost a
    /// re-simulation, never serve another experiment's row.
    pub identity: String,
    /// Cell label.
    pub label: String,
    /// `MetricRow::to_csv` row; the journal line's `row` object is
    /// rendered from it ([`row_of`]).
    pub csv: String,
}

/// The cell's full identity: label plus the `Debug` rendering of its
/// run options (seed, windows, cores, small-LLC, engine), plus — for
/// non-default scenarios only — the canonical scenario name. The
/// default scenario contributes nothing, so identities (and journal
/// keys) of pre-scenario cells are unchanged and old journals still
/// resume. Custom-config cells are *not* journaled (the daemon
/// protocol cannot submit them), so this string fully identifies a
/// cell's simulation.
pub fn cell_identity(spec: &ExperimentSpec) -> String {
    if spec.scenario.is_default() {
        format!("{}|{:?}", spec.label, spec.options)
    } else {
        format!(
            "{}|{:?}|scenario={}",
            spec.label,
            spec.options,
            spec.scenario.name()
        )
    }
}

/// The journal cell key: 64-bit FNV-1a over [`cell_identity`]. The key
/// is only a lookup accelerator — hits are confirmed against the
/// stored identity string before being served.
pub fn cell_key(spec: &ExperimentSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cell_identity(spec).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// An append-only on-disk map from [`cell_key`] to [`JournalEntry`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: HashMap<u64, JournalEntry>,
    file: Option<std::fs::File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, loading every
    /// well-formed line. Returns an error only if the file exists but
    /// cannot be read or the directory cannot be created.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut entries = HashMap::new();
        match std::fs::File::open(path) {
            Ok(file) => {
                for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_line(&line) {
                        Some((key, entry)) => {
                            entries.insert(key, entry);
                        }
                        None => {
                            // Most likely a torn final append; the row is
                            // re-simulated on the next submission.
                            eprintln!(
                                "warning: skipping malformed journal line {} in {}",
                                lineno + 1,
                                path.display()
                            );
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        // A crash mid-append leaves a torn tail with no trailing
        // newline. Blind appends would then merge the next record into
        // the torn line, losing *both* at the next load (the merged
        // line parses as neither record). Terminate the tail first so
        // only the torn cell is ever lost.
        if !ends_with_newline(&mut file)? {
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            entries,
            file: Some(file),
        })
    }

    /// An in-memory journal (used when the daemon is started with the
    /// journal disabled): resume never hits, appends go nowhere.
    pub fn in_memory() -> Journal {
        Journal {
            path: PathBuf::new(),
            entries: HashMap::new(),
            file: None,
        }
    }

    /// The journaled entry for `key`, if present.
    pub fn get(&self, key: u64) -> Option<&JournalEntry> {
        self.entries.get(&key)
    }

    /// Number of journaled cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a finished cell: appends the line (flushed) and adds it
    /// to the in-memory map. I/O errors are warnings — the journal is
    /// a cache, and a failed append must not fail the job.
    pub fn record(&mut self, key: u64, entry: JournalEntry) {
        if let Some(file) = &mut self.file {
            let line = Json::obj(vec![
                ("key", Json::from(format!("{key:016x}"))),
                ("identity", Json::from(entry.identity.as_str())),
                ("label", Json::from(entry.label.as_str())),
                ("csv", Json::from(entry.csv.as_str())),
                ("row", row_of(&entry.csv)),
            ])
            .to_string();
            let ok = writeln!(file, "{line}").and_then(|()| file.flush());
            if let Err(e) = ok {
                eprintln!(
                    "warning: cannot append to journal {}: {e}",
                    self.path.display()
                );
                self.file = None;
            }
        }
        self.entries.insert(key, entry);
    }
}

/// Whether the file is empty or its last byte is `\n`. Seeking for the
/// read is safe on the append handle: `O_APPEND` repositions writes to
/// the end on their own, independent of the read offset.
fn ends_with_newline(file: &mut std::fs::File) -> std::io::Result<bool> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    if file.metadata()?.len() == 0 {
        return Ok(true);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    file.read_exact(&mut last)?;
    Ok(last[0] == b'\n')
}

fn parse_line(line: &str) -> Option<(u64, JournalEntry)> {
    let value = Json::parse(line).ok()?;
    let key = u64::from_str_radix(value.get("key")?.as_str()?, 16).ok()?;
    let csv = value.get("csv")?.as_str()?.to_string();
    check_row(&csv, value.get("row")?).ok()?;
    Some((
        key,
        JournalEntry {
            identity: value.get("identity")?.as_str()?.to_string(),
            label: value.get("label")?.as_str()?.to_string(),
            csv,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_sim::{Preset, RunOptions};
    use bump_workloads::Workload;

    fn spec(seed: u64) -> ExperimentSpec {
        let mut options = RunOptions::quick(1);
        options.seed = seed;
        ExperimentSpec::new(Preset::BaseOpen, Workload::WebSearch, options)
    }

    fn entry(label: &str) -> JournalEntry {
        JournalEntry {
            identity: format!("{label}|opts"),
            label: label.to_string(),
            csv: format!(
                "{label},BuMP,Web Search,1,42,10,20,2.000000,0.500000,0.600000,\
                 1.250000,0.001000,30,0.100000,0.200000,0.300000,0.400000,0.500000"
            ),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bump-journal-{}-{name}", std::process::id()))
    }

    #[test]
    fn keys_separate_identical_labels_with_different_options() {
        assert_eq!(cell_key(&spec(1)), cell_key(&spec(1)));
        assert_ne!(cell_key(&spec(1)), cell_key(&spec(2)));
        let mut other = spec(1);
        other.options.engine = bump_sim::Engine::Cycle;
        assert_ne!(cell_key(&spec(1)), cell_key(&other), "engine is identity");
    }

    #[test]
    fn scenario_is_part_of_the_identity_but_default_adds_nothing() {
        use bump_sim::Scenario;
        // Default scenario: identity is the pre-scenario string, so
        // journals written before the scenario axis still resume.
        let default = spec(1);
        assert!(
            !cell_identity(&default).contains("scenario"),
            "{}",
            cell_identity(&default)
        );
        let mut tagged = spec(1);
        tagged.scenario = Scenario::from_name("ddr4_2400").unwrap();
        // (Same label on purpose: even a mislabeled cell must not
        // collide with the default cell's journal entry.)
        assert_ne!(cell_key(&default), cell_key(&tagged));
        assert!(cell_identity(&tagged).ends_with("|scenario=ddr4_2400"));
    }

    #[test]
    fn record_then_reload_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            assert!(j.is_empty());
            j.record(7, entry("a"));
            j.record(9, entry("b"));
            j.record(7, entry("a2")); // rewrite wins in memory and on reload
            assert_eq!(j.len(), 2);
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(7).unwrap().label, "a2");
        assert_eq!(j.get(9).unwrap(), &entry("b"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            j.record(1, entry("whole"));
        }
        // Simulate a crash mid-append.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"0000000000000002\",\"label\":\"to").unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.get(1).is_some());
        assert!(j.get(2).is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite regression: resuming *and appending* after a torn
    /// final line must keep every completed cell intact and lose
    /// exactly the torn cell. Before the newline-termination fix in
    /// `Journal::open`, the first post-crash append merged into the
    /// torn tail, producing one unparseable line that lost the torn
    /// cell AND the freshly recorded one on the next load.
    #[test]
    fn append_after_torn_tail_loses_only_the_torn_cell() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            j.record(1, entry("whole"));
        }
        // Crash mid-append: a partial record with no trailing newline.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"0000000000000002\",\"label\":\"to").unwrap();
        }
        // The daemon restarts and re-runs the torn cell (new key 3
        // stands in for the re-simulated cell).
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.len(), 1, "only the whole cell survives the crash");
            j.record(3, entry("rerun"));
        }
        // Every completed cell — pre-crash and post-crash — reloads.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(1).unwrap().label, "whole");
        assert_eq!(j.get(3).unwrap().label, "rerun");
        assert!(j.get(2).is_none(), "exactly the torn cell is re-run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn line_whose_row_disagrees_with_its_csv_is_skipped() {
        let path = temp_path("row-mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open(&path).unwrap();
            j.record(1, entry("kept"));
            j.record(2, entry("edited"));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (kept, edited) = text.trim_end().split_once('\n').unwrap();
        assert!(kept.contains(r#""row":{"label":"kept","#), "{kept}");
        std::fs::write(
            &path,
            format!("{kept}\n{}\n", edited.replace("\"ipc\":2.0", "\"ipc\":3.0")),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.get(1), Some(&entry("kept")));
        assert!(
            j.get(2).is_none(),
            "a row that disagrees with its csv is not served"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_journal_never_persists() {
        let mut j = Journal::in_memory();
        j.record(3, entry("x"));
        assert_eq!(j.get(3).unwrap().label, "x");
        assert_eq!(j.len(), 1);
    }
}
