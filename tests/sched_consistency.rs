//! End-to-end scheduler/cache consistency (ROADMAP: the `--jobs N`
//! output must be byte-identical to serial scheduler output, and the
//! cache must never serve a stale or corrupt entry).
//!
//! These tests install the process-global scheduler, so they serialize
//! on one mutex and always uninstall before releasing it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use syncperf_sched::{install, uninstall, SchedConfig, SchedStats, Scheduler};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syncperf-sched-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs fig01 under a scheduler with the given worker count / cache
/// dir / salt, returning the CSV bytes and the run's statistics.
fn fig01_csv(workers: usize, cache_dir: &std::path::Path, salt: u64) -> (String, SchedStats) {
    let cfg = SchedConfig::new(workers)
        .with_cache_dir(cache_dir)
        .with_label("sched-it")
        .with_salt_extra(salt);
    let sched = install(Scheduler::new(cfg));
    let figs = syncperf_bench::figures_cpu::fig01_barrier();
    let stats = sched.stats();
    uninstall();
    let figs = figs.expect("fig01 generates");
    (figs[0].to_csv(), stats)
}

#[test]
fn worker_count_does_not_change_figure_csv() {
    let _g = lock();
    let (dir1, dir4) = (tmp("w1"), tmp("w4"));
    let (csv1, s1) = fig01_csv(1, &dir1, 0);
    let (csv4, s4) = fig01_csv(4, &dir4, 0);
    // Both runs were cold (separate cache dirs): every job executed.
    assert_eq!(s1.executed, s1.jobs);
    assert_eq!(s4.executed, s4.jobs);
    assert_eq!(csv1, csv4, "1-worker and 4-worker CSVs must be identical");
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn corrupt_or_truncated_entries_force_recompute() {
    let _g = lock();
    let dir = tmp("corrupt");
    let (cold_csv, cold) = fig01_csv(2, &dir, 0);
    assert_eq!(cold.executed, cold.jobs);

    // Sanity: a clean warm run is all hits.
    let (_, warm) = fig01_csv(2, &dir, 0);
    assert_eq!(warm.cache_hits, warm.jobs);

    // Vandalize the cache: truncate half the entries, garble the rest.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty());
    for (i, path) in entries.iter().enumerate() {
        if i % 2 == 0 {
            let bytes = std::fs::read(path).unwrap();
            std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            std::fs::write(path, b"{not json at all").unwrap();
        }
    }

    // Every vandalized entry is a miss — recomputed, never a crash —
    // and the regenerated figure is identical.
    let (recomputed_csv, re) = fig01_csv(2, &dir, 0);
    assert_eq!(re.executed, re.jobs, "all entries were corrupt");
    assert_eq!(re.cache_hits, 0);
    assert_eq!(recomputed_csv, cold_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salt_bump_invalidates_every_entry() {
    let _g = lock();
    let dir = tmp("salt");
    let (_, cold) = fig01_csv(2, &dir, 0);
    assert_eq!(cold.executed, cold.jobs);
    // Same salt: all hits. Bumped salt (a stand-in for a code-version
    // bump of `SCHED_SALT`): all misses, everything re-measured.
    let (_, warm) = fig01_csv(2, &dir, 0);
    assert_eq!(warm.cache_hits, warm.jobs);
    let (_, bumped) = fig01_csv(2, &dir, 1);
    assert_eq!(bumped.cache_hits, 0);
    assert_eq!(bumped.executed, bumped.jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's byte check in tier-1: a cold `all_figures` sweep on
/// a cacheless 2-worker scheduler must write exactly the CSV and SVG
/// files that `perfbench/reference.txt` pins, each with the pinned
/// length and FNV-1a 64 digest.
#[test]
fn scheduler_path_outputs_match_the_benchmark_reference() {
    let _g = lock();
    let dir = tmp("reference");
    install(Scheduler::new(
        SchedConfig::new(2)
            .without_cache()
            .with_cache_dir(dir.join(".cache"))
            .with_label("all_figures"),
    ));
    let figs = syncperf_bench::all_figures();
    uninstall();
    for fig in &figs.expect("every figure generates") {
        fig.write_csv(&dir).unwrap();
        fig.write_svg(&dir).unwrap();
    }

    let want: BTreeMap<String, (u64, u64)> = include_str!("../perfbench/reference.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hash = syncperf_sched::hash::parse_hex16(f[2]).expect("hex digest");
            (f[0].to_string(), (f[1].parse().expect("byte count"), hash))
        })
        .collect();
    assert_eq!(want.len(), 84, "reference lists every figure's csv + svg");
    let got: BTreeMap<String, (u64, u64)> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let ext = std::path::Path::new(&name).extension()?.to_str()?;
            matches!(ext, "csv" | "svg").then(|| {
                let bytes = std::fs::read(e.path()).unwrap();
                let digest = (bytes.len() as u64, syncperf_sched::hash::fnv1a(&bytes));
                (name, digest)
            })
        })
        .collect();
    for (name, digest) in &want {
        assert_eq!(
            got.get(name),
            Some(digest),
            "{name} differs from the reference"
        );
    }
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "the sweep writes exactly the reference files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
