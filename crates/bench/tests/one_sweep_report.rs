//! `make_report` regenerates the paper once: the claim table and the
//! figure tables are rendered from one `all_figures` sweep, so a report
//! submits exactly the jobs `all_figures` does.

use std::path::Path;
use std::process::Command;

/// Runs `make_report` with `flags` under `SYNCPERF_RESULTS=root` and
/// returns its `--cache-stats` JSON.
fn run(root: &Path, tag: &str, flags: &[&str]) -> String {
    let stats = root.join(format!("{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_make_report"))
        .args(flags)
        .arg("--cache-stats")
        .arg(&stats)
        .env("SYNCPERF_RESULTS", root.join(tag))
        .env_remove("SYNCPERF_JOBS")
        .output()
        .expect("make_report starts");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(stats).expect("a --cache-stats file")
}

#[test]
fn make_report_sweeps_the_figures_once() {
    let root = std::env::temp_dir().join(format!("syncperf-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // One `all_figures` sweep: 3,204 jobs, every one run.
    let stats = run(&root, "no_cache", &["--jobs", "2", "--no-cache"]);
    assert!(stats.contains("\"jobs\":3204,"), "{stats}");
    assert!(stats.contains("\"executed\":3204,"), "{stats}");

    // Cold cache: only the 38 jobs `all_figures` itself repeats hit.
    let cold = run(&root, "cold", &["--jobs", "2"]);
    assert!(cold.contains("\"executed\":3166,"), "{cold}");
    assert!(cold.contains("\"cache_hits\":38,"), "{cold}");

    std::fs::remove_dir_all(&root).unwrap();
}
