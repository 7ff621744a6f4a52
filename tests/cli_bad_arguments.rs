//! The `snoopy` binary rejects out-of-range arguments with an `error:` line
//! and the usage text, exiting with code 1 — never with a panic backtrace,
//! and before any dataset is loaded.

use std::process::Command;

#[test]
fn out_of_range_arguments_print_an_error_instead_of_panicking() {
    for args in [
        &["--target", "2"][..],
        &["--target", "nan"],
        &["--batch-fraction", "0"],
        &["--noise", "uniform:1.5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_snoopy")).args(args).output().expect("run snoopy");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit with code 1; stderr:\n{stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: no error line in\n{stderr}");
        assert!(stderr.contains("usage: snoopy"), "{args:?}: no usage text in\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must fail before loading a dataset");
    }
}
