//! `syncperf_load` — the serving-layer load harness and tracked
//! latency benchmark.
//!
//! ```console
//! $ syncperf_load bench                        # 1000 keep-alive conns, 8 s,
//!                                              # in-process replica pair,
//!                                              # prints the report JSON
//! $ syncperf_load bench --out BENCH_serve.json # ... and re-baselines
//! $ syncperf_load bench --quick --check        # 2 s run gated against the
//!                                              # committed BENCH_serve.json
//! $ syncperf_load --quick --check              # same (bare flags imply bench)
//! $ syncperf_load bench --target 127.0.0.1:8642 --target 127.0.0.1:8643
//!                                              # drive externally started replicas
//! ```
//!
//! Without `--target` the harness starts two serve replicas
//! in-process, sharing one scratch cache directory (RAM-backed when
//! `/dev/shm` is writable) — the same topology the ci.sh `load` lane
//! starts as real processes. The traffic profile is warmed over HTTP
//! (`POST /compute` of a small kernel grid), then the mixed
//! hash/query/figure/compute/telemetry mix runs for the window and
//! the report JSON is printed; only an explicit `--out` writes it to a
//! file, so no run replaces the committed `BENCH_serve.json` by
//! accident. `--check` applies the committed baseline's gate (from
//! `--out`, default `BENCH_serve.json`): measured p99 must stay within
//! `check_p99_factor` of the committed p99 and the error rate under
//! `check_max_error_rate` (generous bounds — shared CI runners are
//! noisy; the gate exists to catch order-of-magnitude serving
//! regressions, not percent-level jitter).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syncperf_bench::serving;
use syncperf_load::{Baseline, ClientConn, LoadConfig, Profile};
use syncperf_serve::{ServeConfig, Server};

/// `--check` allows p99 up to committed × this.
const P99_FACTOR: f64 = 2.5;

/// `--check` allows at most this error rate.
const MAX_ERROR_RATE: f64 = 0.02;

/// Connections the tracked benchmark holds (acceptance floor: 1000).
const BENCH_CONNS: usize = 1000;

fn usage() -> ! {
    eprintln!(
        "usage: syncperf_load bench [--quick] [--check] [--target HOST:PORT ...]\n\
         \x20                          [--out PATH] [--report PATH] [--conns N]\n\
         \x20                          [--duration-secs S] [--seed N]\n\
         (bare flags imply the bench subcommand)"
    );
    std::process::exit(2);
}

/// The committed baseline `--check` reads when `--out` is not given.
const DEFAULT_BASELINE: &str = "BENCH_serve.json";

struct Args {
    quick: bool,
    check: bool,
    targets: Vec<String>,
    /// Where to write the report (a new baseline); with `--check`, the
    /// baseline to gate against. `None`: print only, check against
    /// [`DEFAULT_BASELINE`].
    out: Option<PathBuf>,
    /// Also write the measured report here (useful with `--check`,
    /// where `--out` names the committed baseline, not an output).
    report: Option<PathBuf>,
    conns: usize,
    duration_secs: Option<u64>,
    seed: u64,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        quick: false,
        check: false,
        targets: Vec::new(),
        out: None,
        report: None,
        conns: BENCH_CONNS,
        duration_secs: None,
        seed: 0x5EED,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>| it.next().cloned().unwrap_or_else(|| usage());
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--target" => args.targets.push(value(&mut it)),
            "--out" => args.out = Some(value(&mut it).into()),
            "--report" => args.report = Some(value(&mut it).into()),
            "--conns" => args.conns = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--duration-secs" => {
                args.duration_secs = Some(value(&mut it).parse().unwrap_or_else(|_| usage()));
            }
            "--seed" => args.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    args
}

/// Scratch root for throwaway results/cache trees (same policy as
/// `bench_report` and `syncperf_dist`: prefer RAM-backed storage).
fn scratch_root() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if std::fs::metadata(&shm).map(|m| m.is_dir()).unwrap_or(false) {
        let probe = shm.join(format!(".syncperf-load-probe-{}", std::process::id()));
        if std::fs::write(&probe, b"x").is_ok() {
            let _ = std::fs::remove_file(&probe);
            return shm;
        }
    }
    std::env::temp_dir()
}

/// An in-process replica pair sharing one cache directory — each with
/// its own scheduler (separate processes in production; separate
/// instances here exercise exactly the same index/cache sharing).
struct ReplicaPair {
    servers: Vec<Server>,
    dir: PathBuf,
}

impl ReplicaPair {
    fn start() -> std::io::Result<ReplicaPair> {
        let dir = scratch_root().join(format!("syncperf-load-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join(".cache");
        let mut servers = Vec::new();
        for _ in 0..2 {
            let sched_cfg = syncperf_sched::SchedConfig::new(2)
                .with_cache_dir(cache_dir.clone())
                .with_label("load_bench");
            let scheduler = Arc::new(syncperf_sched::Scheduler::new(sched_cfg));
            let mut cfg = ServeConfig::new(scheduler, serving::default_resolver());
            cfg.addr = "127.0.0.1:0".into();
            cfg.results_dir.clone_from(&dir);
            cfg.index_refresh = Duration::from_millis(100);
            servers.push(Server::start(cfg)?);
        }
        Ok(ReplicaPair { servers, dir })
    }

    fn targets(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    fn stop(self) {
        for s in self.servers {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Polls `GET /job/<hash>` on each target until it serves every hash,
/// or `patience` runs out.
fn await_indexed(targets: &[String], hashes: &[String], patience: Duration) -> Result<(), String> {
    let deadline = Instant::now() + patience;
    for target in targets {
        let mut conn = ClientConn::new(target, patience).map_err(|e| format!("{target}: {e}"))?;
        for hash in hashes {
            loop {
                let reply = conn
                    .request("GET", &format!("/job/{hash}"), None)
                    .map_err(|e| format!("{target}: {e}"))?;
                if reply.status == 200 {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "{target} still answers {} for {hash}",
                        reply.status
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Ok(())
}

fn bench(args: &Args) {
    let pair = if args.targets.is_empty() {
        match ReplicaPair::start() {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("error: cannot start replica pair: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let targets = pair
        .as_ref()
        .map_or_else(|| args.targets.clone(), ReplicaPair::targets);
    eprintln!("targets: {}", targets.join(", "));

    // Warm the cache through replica A, then wait until every other
    // replica's re-scan has indexed the foreign writes, so the timed
    // window measures steady state and not the re-scan cadence.
    let profile = match Profile::warm(&targets[0], Duration::from_secs(30)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: warmup failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("warm: {} cached hashes", profile.hashes.len());
    if let Err(e) = await_indexed(&targets[1..], &profile.hashes, Duration::from_secs(10)) {
        eprintln!("error: warmup did not reach every replica: {e}");
        std::process::exit(1);
    }

    let mut cfg = LoadConfig::new(targets);
    cfg.connections = args.conns;
    cfg.duration =
        Duration::from_secs(args.duration_secs.unwrap_or(if args.quick { 2 } else { 8 }));
    cfg.seed = args.seed;
    let report = match syncperf_load::run(&cfg, &profile) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: load run failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(p) = pair {
        p.stop();
    }
    eprintln!("{}", report.render());

    if let Some(path) = &args.report {
        let encoded = report.to_json(P99_FACTOR, MAX_ERROR_RATE);
        if let Err(e) = std::fs::write(path, &encoded) {
            eprintln!("error writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    if args.check {
        let baseline_path = args.out.as_deref().unwrap_or(Path::new(DEFAULT_BASELINE));
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "error: --check needs a committed {}: {e}",
                    baseline_path.display()
                );
                std::process::exit(1);
            }
        };
        let baseline = match Baseline::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = baseline.check(&report) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!(
            "load bench check ok: p99 {}us <= {}us x {:.1}, error rate {:.4} <= {:.3}",
            report.p99_us,
            baseline.p99_us,
            baseline.p99_factor,
            report.error_rate(),
            baseline.max_error_rate
        );
        return;
    }

    let encoded = report.to_json(P99_FACTOR, MAX_ERROR_RATE);
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &encoded) {
            eprintln!("error writing {}: {e}", out.display());
            std::process::exit(1);
        }
    }
    print!("{encoded}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = match argv.first().map(String::as_str) {
        Some("bench") => &argv[1..],
        // Bare flags imply bench: `syncperf_load --quick --check`.
        Some(flag) if flag.starts_with("--") => &argv[..],
        _ => usage(),
    };
    bench(&parse_args(rest));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        parse_args(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn only_an_explicit_out_names_a_file() {
        let a = parse(&["--quick", "--target", "127.0.0.1:1"]);
        assert!(a.out.is_none(), "a plain run must not write a baseline");
        assert!(a.quick && !a.check);
        assert_eq!(a.targets, ["127.0.0.1:1"]);
        let a = parse(&["--check"]);
        assert!(a.check && a.out.is_none());
        let a = parse(&["--out", "new.json", "--conns", "8"]);
        assert_eq!(a.out.as_deref(), Some(Path::new("new.json")));
        assert_eq!(a.conns, 8);
    }
}
