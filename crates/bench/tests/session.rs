//! End to end through `runner::session`, the run lifecycle every sweep
//! binary shares. The scheduler, the recorder and `SYNCPERF_RESULTS`
//! are process-global, so this binary holds exactly one `#[test]`.

use std::path::Path;

use syncperf_bench::runner::{self, RunOptions};
use syncperf_core::{kernel, DType, ExecParams, Protocol, SyncPerfError, SYSTEM3};
use syncperf_sched::checkpoint::FLUSH_EVERY;
use syncperf_sched::{Checkpoint, JobSpec};

/// `n` distinct small simulator jobs.
fn jobs(n: u32) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_atomic_update_scalar(DType::I32),
                ExecParams::new(4).with_loops(20 + i, 4),
                Protocol::SIM,
            )
        })
        .collect()
}

/// Runs `n` jobs on the scheduler the session installed.
fn run_jobs(n: u32) -> syncperf_core::Result<usize> {
    let sched = syncperf_sched::current().expect("the session installs a scheduler");
    Ok(sched.run_jobs(jobs(n))?.len())
}

fn manifest(cache: &Path, label: &str) -> String {
    std::fs::read_to_string(Checkpoint::path_for(cache, label)).expect("a checkpoint manifest")
}

#[test]
fn session_owns_the_run_lifecycle() {
    let root = std::env::temp_dir().join(format!("syncperf-session-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::env::set_var("SYNCPERF_RESULTS", &root);
    let cache = root.join(".cache");
    let metrics = root.join("m.prom");

    // A body that succeeds: its value comes back, the scheduler is gone
    // afterwards, the manifest is complete, and --metrics was written.
    let mut opts = RunOptions::parse(
        ["--jobs", "1", "--metrics", metrics.to_str().unwrap()].map(String::from),
    )
    .unwrap();
    opts.label = Some("session_ok".into());
    let ran = runner::session(&opts, || run_jobs(3)).unwrap();
    assert_eq!(ran, 3);
    assert!(syncperf_sched::current().is_none(), "scheduler uninstalled");
    assert!(manifest(&cache, "session_ok").contains("\"complete\": true"));
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        prom.lines().any(|l| l == "sched_jobs 3"),
        "metrics carry the scheduler's jobs:\n{prom}"
    );

    // A body that fails after enough jobs to flush the manifest: its
    // error comes back, the manifest stays incomplete (resumable), and
    // the scheduler is still uninstalled.
    opts.label = Some("session_err".into());
    let err = runner::session(&opts, || -> syncperf_core::Result<()> {
        run_jobs(FLUSH_EVERY as u32)?;
        Err(SyncPerfError::InvalidParams("body failed".into()))
    })
    .unwrap_err();
    assert!(err.to_string().contains("body failed"), "{err}");
    assert!(manifest(&cache, "session_err").contains("\"complete\": false"));
    assert!(syncperf_sched::current().is_none(), "scheduler uninstalled");

    std::env::remove_var("SYNCPERF_RESULTS");
    std::fs::remove_dir_all(&root).unwrap();
}
