//! The experiment binaries refuse a `--scale` they do not know, one without
//! a value, a flag they do not accept, or a declared flag without its value,
//! with an `error:` line and exit code 1 — before running any sweep.

use std::process::Command;

/// Runs `bin` with `args` and asserts it failed fast with an `error:` line.
fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit with code 1; stderr:\n{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: no error line in\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must fail before running the sweep");
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
}
