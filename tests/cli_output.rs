//! What the `snoopy` binary writes to standard output: the usage text when
//! asked for it, the noise model a CIFAR-N variant really carries, and a
//! quiet exit when the reader of its output goes away.

use std::process::{Command, Stdio};

#[test]
fn help_prints_the_usage_on_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_snoopy")).arg(flag).output().expect("run snoopy");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag} must exit with code 0");
        assert!(stdout.starts_with("usage: snoopy"), "{flag}: no usage on stdout:\n{stdout}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    // The read end is closed before the child starts, so its first write
    // fails with a broken pipe, as under `snoopy … | head -0`.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_snoopy"))
        .args(["--dataset", "mnist", "--scale", "tiny"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run snoopy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "snoopy panicked on a closed stdout:\n{stderr}");
    assert_eq!(out.status.code(), Some(0), "a closed stdout must end with exit code 0; stderr:\n{stderr}");
}

#[test]
fn a_cifar_n_variant_reports_its_class_dependent_noise() {
    let out = Command::new(env!("CARGO_BIN_EXE_snoopy"))
        .args(["--dataset", "cifar10-aggre", "--scale", "tiny"])
        .output()
        .expect("run snoopy");
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("noise model")).expect("a noise model line");
    assert!(line.contains("class-dependent(noise "), "CIFAR-N noise described as {line:?}");
}
