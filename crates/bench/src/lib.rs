//! # snoopy-bench
//!
//! The experiment harness regenerating every table and figure of the paper's
//! evaluation section, plus the JSON perf snapshot (`bench_knn_json`).
//!
//! Each `exp_*` binary in `src/bin/` prints the rows/series of one table or
//! figure as a markdown-ish table on stdout and writes the same data as CSV
//! under `results/`. Binaries accept `--scale tiny|small|standard` (default
//! `small`; any other value is an error) so that the full suite can be
//! reproduced quickly on a laptop or at a larger scale overnight, plus the
//! few flags each one declares to [`parse_args`]; an unknown flag is an
//! error too, and so is an unknown name in a `--datasets` list
//! ([`datasets_arg`]). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured comparisons.

#![forbid(unsafe_code)]

use snoopy_data::registry::{spec_by_name, table1_specs, DatasetSpec, SizeScale};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Parses this binary's command line: `--scale tiny|small|standard`
/// (default `small`) and one `--<name> <value>` flag per `(name, default)`
/// entry of `flags`. Returns the scale and the flag values, in `flags`
/// order. An unknown flag, a flag without its value, or an unknown scale
/// prints `error: …` and exits with code 1, rather than running a different
/// sweep than the one asked for.
pub fn parse_args<const N: usize>(flags: [(&str, &str); N]) -> (SizeScale, [String; N]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args, &flags).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(1);
    })
}

/// [`parse_args`] over an explicit argument list.
fn parse<const N: usize>(
    args: &[String],
    flags: &[(&str, &str); N],
) -> Result<(SizeScale, [String; N]), String> {
    let mut scale = SizeScale::Small;
    let mut values = flags.map(|(_, default)| default.to_string());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = arg.strip_prefix("--").unwrap_or("");
        let slot = flags.iter().position(|&(flag, _)| flag == name);
        if name != "scale" && slot.is_none() {
            let accepted: Vec<String> = std::iter::once("scale")
                .chain(flags.iter().map(|&(f, _)| f))
                .map(|f| format!("--{f}"))
                .collect();
            return Err(format!("unknown argument {arg:?} (accepted: {})", accepted.join(", ")));
        }
        let Some(value) = args.next() else {
            return Err(format!("{arg} needs a value"));
        };
        match slot {
            Some(i) => values[i] = value.clone(),
            None => {
                scale = match value.as_str() {
                    "tiny" => SizeScale::Tiny,
                    "small" => SizeScale::Small,
                    "standard" => SizeScale::Standard,
                    other => {
                        return Err(format!(
                            "unknown --scale value {other:?} (expected tiny, small or standard)"
                        ))
                    }
                }
            }
        }
    }
    Ok((scale, values))
}

/// Resolves a `--datasets` value: comma-separated Table I names, or `all`
/// (every Table I dataset) where `accept_all` is set. An unknown name prints
/// `error: unknown dataset "…"` with the known names and exits with code 1,
/// before any sweep runs or any CSV is written.
pub fn datasets_arg(list: &str, accept_all: bool) -> Vec<DatasetSpec> {
    resolve_datasets(list, accept_all).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(1);
    })
}

/// [`datasets_arg`] without the exit.
fn resolve_datasets(list: &str, accept_all: bool) -> Result<Vec<DatasetSpec>, String> {
    if accept_all && list == "all" {
        return Ok(table1_specs());
    }
    list.split(',')
        .map(|name| {
            spec_by_name(name).ok_or_else(|| {
                let known: Vec<&str> = table1_specs().iter().map(|s| s.name).collect();
                let all = if accept_all { "; or all on its own" } else { "" };
                format!("unknown dataset {name:?} (known: {}{all})", known.join(", "))
            })
        })
        .collect()
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
    fn parse_reads_scale_and_declared_flags_and_refuses_the_rest() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let flags = [("datasets", "a,b")];
        assert_eq!(parse(&args(&[]), &flags), Ok((SizeScale::Small, ["a,b".to_string()])));
        assert_eq!(
            parse(&args(&["--datasets", "c", "--scale", "tiny"]), &flags),
            Ok((SizeScale::Tiny, ["c".to_string()]))
        );
        for bad in [
            &["--scael", "tiny"][..],
            &["--datasets"],
            &["--scale"],
            &["--scale", "Tiny"],
            &["tiny"],
            &["scale", "tiny"],
            &["--strategy", "x"],
        ] {
            assert!(parse(&args(bad), &flags).is_err(), "{bad:?} must be refused");
        }
        assert!(parse(&args(&["--datasets", "x"]), &[]).is_err(), "undeclared flag");
    }

    #[test]
    fn dataset_lists_resolve_known_names_only() {
        let names = |list: &str, all: bool| {
            resolve_datasets(list, all).map(|specs| specs.iter().map(|s| s.name).collect::<Vec<_>>())
        };
        assert_eq!(names("sst2,mnist", false), Ok(vec!["sst2", "mnist"]));
        assert_eq!(names("all", true).map(|n| n.len()), Ok(table1_specs().len()));
        for (bad, all) in [("cifar1O", true), ("cifar10,", true), ("all", false), ("", false)] {
            let err = names(bad, all).expect_err(bad);
            assert!(err.starts_with("unknown dataset") && err.contains("cifar10"), "{bad}: {err}");
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f1(12.34), "12.3");
    }
}
