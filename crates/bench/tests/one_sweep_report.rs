//! `make_report` regenerates the paper once: the claim table and the
//! figure tables are rendered from one `all_figures` sweep, so a report
//! submits exactly the jobs `all_figures` does.

use std::path::Path;
use std::process::Command;

use syncperf_core::obs::metrics;
use syncperf_sched::SchedStats;

/// Runs `make_report` with `flags` under `SYNCPERF_RESULTS=root` and
/// returns the scheduler stats of its `--metrics` exposition.
fn run(root: &Path, tag: &str, flags: &[&str]) -> SchedStats {
    let prom = root.join(format!("{tag}.prom"));
    let out = Command::new(env!("CARGO_BIN_EXE_make_report"))
        .args(flags)
        .arg("--metrics")
        .arg(&prom)
        .env("SYNCPERF_RESULTS", root.join(tag))
        .output()
        .expect("make_report starts");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(prom).expect("a --metrics file");
    SchedStats::from_snapshot(&metrics::parse(&text))
}

#[test]
fn make_report_sweeps_the_figures_once() {
    let root = std::env::temp_dir().join(format!("syncperf-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // One `all_figures` sweep: 3,204 jobs, every one run.
    let stats = run(&root, "no_cache", &["--jobs", "2", "--no-cache"]);
    assert_eq!((stats.jobs, stats.executed), (3204, 3204), "{stats:?}");

    // Cold cache: only the 38 jobs `all_figures` itself repeats hit.
    let cold = run(&root, "cold", &["--jobs", "2"]);
    assert_eq!((cold.executed, cold.cache_hits), (3166, 38), "{cold:?}");

    std::fs::remove_dir_all(&root).unwrap();
}
