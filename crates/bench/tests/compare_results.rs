//! `compare_results` as a pipeline stage: a reader that closes the pipe
//! early ends the report cleanly instead of panicking.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut child = Command::new(env!("CARGO_BIN_EXE_compare_results"))
        .arg(&results)
        .args(["system3", "system1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the report is written.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(out.status.success(), "{}: {stderr}", out.status);
}
