//! The experiment binaries refuse a `--scale` they do not know, or one
//! without a value, with an `error:` line and exit code 1 — before running
//! any sweep.

use std::process::Command;

#[test]
fn a_bad_scale_is_an_error_not_a_small_run() {
    for args in [&["--scale", "nope"][..], &["--scale", "Tiny"], &["--scale"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_table1")).args(args).output().expect("run exp_table1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit with code 1; stderr:\n{stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: no error line in\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before running the sweep");
    }
}
