//! A binary that once swept a private executor now lowers its sweep to
//! jobs, so the shared scheduler flags reach it: `--jobs 2` runs every
//! point through the scheduler and a warm rerun executes none.

use std::path::Path;
use std::process::Command;

/// Runs `ablation_barrier_model` with `flags` under `SYNCPERF_RESULTS=root`
/// and returns its `--cache-stats` JSON.
fn run(root: &Path, tag: &str, flags: &[&str]) -> String {
    let stats = root.join(format!("{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_ablation_barrier_model"))
        .args(flags)
        .arg("--cache-stats")
        .arg(&stats)
        .env("SYNCPERF_RESULTS", root)
        .env_remove("SYNCPERF_JOBS")
        .output()
        .expect("ablation_barrier_model starts");
    assert!(
        out.status.success(),
        "{tag}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(stats).expect("a --cache-stats file")
}

#[test]
fn ablation_sweeps_run_through_the_scheduler() {
    let root = std::env::temp_dir().join(format!("syncperf-ablation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    // 31 thread counts x 2 barrier models.
    let stats = run(&root, "no_cache", &["--jobs", "2", "--no-cache"]);
    assert!(stats.contains("\"executed\":62"), "{stats}");

    let cold = run(&root, "cold", &["--jobs", "2"]);
    assert!(cold.contains("\"executed\":62"), "{cold}");
    let warm = run(&root, "warm", &["--jobs", "2"]);
    assert!(warm.contains("\"executed\":0,"), "{warm}");

    std::fs::remove_dir_all(&root).unwrap();
}
