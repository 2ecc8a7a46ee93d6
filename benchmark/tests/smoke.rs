//! Runs the benchmark binary's `--smoke` mode: all five workloads for
//! one second each plus a short traced replay. It fails when a library
//! change breaks the benchmark — a metric no longer reported, a wrong
//! answer, a protocol frame the client no longer understands — without
//! judging how fast anything is.

use std::process::Command;

#[test]
fn smoke_run_reports_every_metric_and_only_right_answers() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // one result line per workload and trace mode, each correct
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 10, "{stdout}");
    for line in results {
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
    }
}

#[test]
fn a_bad_invocation_exits_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
