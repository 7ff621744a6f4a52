//! # snoopy-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation section, plus Criterion micro-benchmarks.
//!
//! Each `exp_*` binary in `src/bin/` prints the rows/series of one table or
//! figure as a markdown-ish table on stdout and writes the same data as CSV
//! under `results/`. Binaries accept `--scale tiny|small|standard` (default
//! `small`) so that the full suite can be reproduced quickly on a laptop or
//! at a larger scale overnight; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured comparisons.

use snoopy_data::registry::SizeScale;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Parses `--scale` from the command line (default: `small`).
pub fn scale_from_args() -> SizeScale {
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == "--scale" {
            return match window[1].as_str() {
                "tiny" => SizeScale::Tiny,
                "standard" => SizeScale::Standard,
                _ => SizeScale::Small,
            };
        }
    }
    SizeScale::Small
}

/// Median seconds per run of `f` over `reps` runs.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Parses a `--<name> <value>` string argument.
pub fn string_arg(name: &str, default: &str) -> String {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == flag {
            return window[1].clone();
        }
    }
    default.to_string()
}

/// A small CSV + stdout results writer.
pub struct ResultsTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultsTable {
    /// Creates a table with a name (used as the CSV file name) and a header.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified by the caller).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width must match the header");
        self.rows.push(row);
    }

    /// Convenience: push a row of display-able values.
    pub fn push_display<T: std::fmt::Display>(&mut self, row: Vec<T>) {
        self.push(row.into_iter().map(|v| v.to_string()).collect());
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Prints the table to stdout and writes `results/<name>.csv`.
    pub fn finish(&self) {
        // Column widths for pretty stdout output.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:<width$}", width = w)).collect();
            println!("| {} |", line.join(" | "));
        };
        println!("\n== {} ==", self.name);
        print_row(&self.header);
        println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            print_row(row);
        }

        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: could not create {dir:?}: {e}");
            return;
        }
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {path:?}: {e}");
        } else {
            println!("(written to {})", path.display());
        }
    }
}

/// The directory experiment CSVs are written to (workspace `results/`).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a float with 4 decimal places (shared by the binaries).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 1 decimal place.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_table_round_trips() {
        let mut t = ResultsTable::new("unit-test-table", &["a", "b"]);
        assert!(t.is_empty());
        t.push(vec!["1".into(), "2".into()]);
        t.push_display(vec![3.5, 4.5]);
        assert_eq!(t.len(), 2);
        t.finish();
        let path = results_dir().join("unit-test-table.csv");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("3.5,4.5"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        let mut t = ResultsTable::new("bad", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f1(12.34), "12.3");
    }
}
