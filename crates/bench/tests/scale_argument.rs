//! The experiment binaries refuse a `--scale` they do not know, one without
//! a value, a flag they do not accept, a declared flag without its value, or
//! a `--datasets` name they do not know, with an `error:` line and exit code
//! 1 — before running any sweep.

use std::process::Command;

/// Runs `bin` with `args`, asserts it failed fast with an `error:` line and
/// no panic, and returns its stderr.
fn assert_refused(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit with code 1; stderr:\n{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: no error line in\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must fail before running the sweep");
    stderr
}

#[test]
fn a_bad_scale_is_an_error_not_a_small_run() {
    for args in [&["--scale", "nope"][..], &["--scale", "Tiny"], &["--scale"]] {
        assert_refused(env!("CARGO_BIN_EXE_exp_table1"), args);
    }
}

#[test]
fn an_unknown_flag_or_a_flag_without_its_value_is_an_error() {
    assert_refused(env!("CARGO_BIN_EXE_exp_table1"), &["--scael", "tiny"]);
    assert_refused(env!("CARGO_BIN_EXE_exp_table1"), &["--datasets", "cifar10"]);
    assert_refused(env!("CARGO_BIN_EXE_exp_fig12"), &["--scale", "tiny", "--datasets"]);
    assert_refused(env!("CARGO_BIN_EXE_exp_table2"), &["--bogus", "x"]);
}

#[test]
fn an_unknown_dataset_is_an_error_not_an_empty_table_or_a_panic() {
    for bin in [env!("CARGO_BIN_EXE_exp_fig4"), env!("CARGO_BIN_EXE_exp_fig12")] {
        let stderr = assert_refused(bin, &["--scale", "tiny", "--datasets", "cifar1O"]);
        assert!(stderr.contains("error: unknown dataset \"cifar1O\""), "{bin}: {stderr}");
    }
}
