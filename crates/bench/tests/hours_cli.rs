//! The `--hours` flag through the real `experiments` binary: a horizon
//! past the trace's evaluation hours is a usage error with a message,
//! not a slice-index panic deep inside the demand pipeline.

use std::process::Command;

#[test]
fn hours_past_the_trace_horizon_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig4", "--hours", "101"])
        .output()
        .expect("spawn experiments fig4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2: {stderr}");
    assert!(
        stderr.contains("--hours 101 exceeds the trace's 100 evaluation hours"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
