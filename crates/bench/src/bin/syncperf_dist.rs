//! `syncperf_dist` — the distributed execution benchmark.
//!
//! ```console
//! $ serve --addr 0.0.0.0:7070                        # on each replica host
//! $ all_figures --connect host:7070 --connect host:7071  # run a sweep on them
//! $ syncperf_dist bench                              # tracked BENCH_dist.json:
//!                                                    # 3 replicas vs --jobs 3 threads
//! $ syncperf_dist bench --check                      # regression gate vs committed
//! ```
//!
//! A dist worker is an ordinary `serve` replica: a sweep reaches the
//! fleet through its own binary, since every figure, `exp_*`,
//! `ablation_*` and session tool takes `--connect` (see
//! `syncperf_bench::runner::RunOptions`) and posts its misses to each
//! replica's `/batch`.

use std::io::{self, BufRead as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use syncperf_core::obs::json;

/// Cold `all_figures` runs per configuration; the minimum is tracked.
const RUNS: usize = 3;

/// `--check` fails when the fresh distributed measurement exceeds the
/// committed `dist_ms` by more than this factor.
const REGRESSION_FACTOR: f64 = 1.25;

/// Replica processes (and reference threads) for the tracked benchmark.
const BENCH_WORKERS: usize = 3;

fn usage() -> ! {
    eprintln!(
        "usage: syncperf_dist bench [--check] [--out PATH]\n\
         (run a sweep on serve replicas with `<figure binary> --connect host:port ...`)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => bench(&args[1..]),
        _ => usage(),
    }
}

/// Scratch root for throwaway results/cache trees (same policy as
/// `bench_report`: prefer RAM-backed storage).
fn scratch_root() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if std::fs::metadata(&shm).map(|m| m.is_dir()).unwrap_or(false) {
        let probe = shm.join(format!(".syncperf-dist-probe-{}", std::process::id()));
        if std::fs::write(&probe, b"x").is_ok() {
            let _ = std::fs::remove_file(&probe);
            return shm;
        }
    }
    std::env::temp_dir()
}

/// The `all_figures` workload, exactly as `bench_report` times it.
fn workload() -> syncperf_core::Result<()> {
    let _table1 = syncperf_bench::tables::table1();
    let _listing1 = syncperf_bench::tables::listing1_report(&syncperf_core::SYSTEM3)?;
    let figs = syncperf_bench::all_figures()?;
    syncperf_bench::emit(&figs)
}

/// `BENCH_WORKERS` local `serve --jobs 1` replicas (the sibling
/// binary) on free loopback ports, each over its own scratch results
/// directory under `dir`; killed on drop.
struct Fleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Fleet {
    /// Spawns the replicas and reads each one's ready line
    /// (`listening on http://<addr>`).
    fn start(dir: &std::path::Path) -> io::Result<Fleet> {
        let serve = std::env::current_exe()?.with_file_name("serve");
        let mut fleet = Fleet {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for i in 0..BENCH_WORKERS {
            let mut child = Command::new(&serve)
                .args(["--addr", "127.0.0.1:0", "--jobs", "1"])
                .env("SYNCPERF_RESULTS", dir.join(format!("replica-{i}")))
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| {
                    let msg = format!("cannot start replica {}: {e}", serve.display());
                    io::Error::new(e.kind(), msg)
                })?;
            let stdout = child.stdout.take().expect("stdout is piped");
            fleet.children.push(child);
            let mut line = String::new();
            io::BufReader::new(stdout).read_line(&mut line)?;
            let addr = line
                .trim()
                .strip_prefix("listening on http://")
                .ok_or_else(|| {
                    io::Error::other(format!("replica printed no ready line: {line:?}"))
                })?;
            fleet.addrs.push(addr.to_string());
        }
        Ok(fleet)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            c.kill().ok();
            c.wait().ok();
        }
    }
}

/// One cold run: fresh results dir and cache. `dist` routes execution
/// through a freshly started local replica fleet (started before the
/// timed region, each replica over its own results dir inside this
/// run's); otherwise the scheduler's in-process thread pool runs it.
fn cold_run_ms(root: &std::path::Path, tag: &str, dist: bool) -> syncperf_core::Result<f64> {
    let dir = root.join(format!("syncperf-dist-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SYNCPERF_RESULTS", &dir);
    let cfg = syncperf_sched::SchedConfig::new(BENCH_WORKERS)
        .with_cache_dir(dir.join(".cache"))
        .with_label("dist_bench");
    let sched = syncperf_sched::install(syncperf_sched::Scheduler::new(cfg));
    let fleet = dist.then(|| Fleet::start(&dir.join("fleet"))).transpose()?;
    let coord = match &fleet {
        Some(fleet) => Some(syncperf_dist::Coordinator::start(
            syncperf_dist::DistConfig::new(fleet.addrs.clone()),
            &sched,
            syncperf_bench::serving::default_resolver(),
        )?),
        None => None,
    };

    let start = Instant::now();
    let outcome = workload();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    if let Some(c) = &coord {
        c.shutdown();
    }
    drop(fleet);
    if outcome.is_ok() {
        sched.finish();
    }
    syncperf_sched::uninstall();
    std::env::remove_var("SYNCPERF_RESULTS");
    let stats = sched.stats();
    let _ = std::fs::remove_dir_all(&dir);
    outcome?;
    assert!(
        stats.executed > stats.cache_hits,
        "a cold run must mostly measure, not serve ({} executed, {} hits)",
        stats.executed,
        stats.cache_hits
    );
    Ok(elapsed_ms)
}

fn render_report(threads_runs: &[f64], dist_runs: &[f64]) -> String {
    let fmt = |runs: &[f64]| {
        runs.iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let threads_ms = threads_runs.iter().copied().fold(f64::INFINITY, f64::min);
    let dist_ms = dist_runs.iter().copied().fold(f64::INFINITY, f64::min);
    format!(
        "{{\n  \"benchmark\": \"cold all_figures: {BENCH_WORKERS} worker processes vs --jobs {BENCH_WORKERS} threads (fresh cache)\",\n  \
         \"unit\": \"ms\",\n  \
         \"threads_ms\": {threads_ms:.1},\n  \
         \"dist_ms\": {dist_ms:.1},\n  \
         \"speedup\": {:.2},\n  \
         \"threads_runs_ms\": [{}],\n  \
         \"dist_runs_ms\": [{}],\n  \
         \"check_regression_factor\": {REGRESSION_FACTOR}\n}}\n",
        threads_ms / dist_ms,
        fmt(threads_runs),
        fmt(dist_runs),
    )
}

/// The committed `dist_ms`, read from an existing report file.
fn committed_dist_ms(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    json::parse(&text).ok()?.get("dist_ms")?.as_f64()
}

/// The tracked multi-process-vs-threads benchmark (`bench` subcommand).
fn bench(args: &[String]) {
    let mut check = false;
    let mut out = PathBuf::from("BENCH_dist.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match it.next() {
                Some(path) => out = path.into(),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let root = scratch_root();
    eprintln!("scratch root: {}", root.display());
    let mut threads_runs = Vec::with_capacity(RUNS);
    let mut dist_runs = Vec::with_capacity(RUNS);
    for i in 0..RUNS {
        match cold_run_ms(&root, &format!("threads-{i}"), false) {
            Ok(ms) => {
                eprintln!("threads run {}/{RUNS}: {ms:.1} ms", i + 1);
                threads_runs.push(ms);
            }
            Err(e) => {
                eprintln!("error: threads run failed: {e}");
                std::process::exit(1);
            }
        }
        match cold_run_ms(&root, &format!("dist-{i}"), true) {
            Ok(ms) => {
                eprintln!("dist run {}/{RUNS}: {ms:.1} ms", i + 1);
                dist_runs.push(ms);
            }
            Err(e) => {
                eprintln!("error: dist run failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let dist_ms = dist_runs.iter().copied().fold(f64::INFINITY, f64::min);

    if check {
        let Some(committed) = committed_dist_ms(&out) else {
            eprintln!(
                "error: --check needs a committed {} with dist_ms",
                out.display()
            );
            std::process::exit(1);
        };
        let limit = committed * REGRESSION_FACTOR;
        eprintln!(
            "check: measured {dist_ms:.1} ms vs committed {committed:.1} ms (limit {limit:.1} ms)"
        );
        if dist_ms > limit {
            eprintln!(
                "error: distributed cold all_figures regressed >{:.0}% vs the committed baseline",
                (REGRESSION_FACTOR - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!("dist bench check ok: {dist_ms:.1} ms <= {limit:.1} ms");
        return;
    }

    let report = render_report(&threads_runs, &dist_runs);
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("error writing {}: {e}", out.display());
        std::process::exit(1);
    }
    print!("{report}");
}
