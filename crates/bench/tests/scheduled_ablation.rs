//! A binary that once swept a private executor now lowers its sweep to
//! jobs, so the shared scheduler flags reach it: `--jobs 2` runs every
//! point through the scheduler and a warm rerun executes none.

use std::path::Path;
use std::process::Command;

use syncperf_core::obs::metrics;
use syncperf_sched::SchedStats;

/// Runs `ablation_barrier_model` with `flags` under `SYNCPERF_RESULTS=root`
/// and returns the scheduler stats of its `--metrics` exposition.
fn run(root: &Path, tag: &str, flags: &[&str]) -> SchedStats {
    let prom = root.join(format!("{tag}.prom"));
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_barrier_model"))
        .args(flags)
        .arg("--metrics")
        .arg(&prom)
        .env("SYNCPERF_RESULTS", root)
        .env_remove("SYNCPERF_JOBS")
        .output()
        .expect("ablation_barrier_model starts");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(prom).expect("a --metrics file");
    SchedStats::from_snapshot(&metrics::parse(&text))
}

#[test]
fn ablation_sweeps_run_through_the_scheduler() {
    let root = std::env::temp_dir().join(format!("syncperf-ablation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // 31 thread counts x 2 barrier models.
    let stats = run(&root, "no_cache", &["--jobs", "2", "--no-cache"]);
    assert_eq!(stats.executed, 62, "{stats:?}");

    let cold = run(&root, "cold", &["--jobs", "2"]);
    assert_eq!(cold.executed, 62, "{cold:?}");
    let warm = run(&root, "warm", &["--jobs", "2"]);
    assert_eq!(warm.executed, 0, "{warm:?}");

    std::fs::remove_dir_all(&root).unwrap();
}
