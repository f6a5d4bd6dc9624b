//! Shared entry point for every binary that runs sweeps.
//!
//! [`session`] is the one run lifecycle: it installs the observability
//! plane and the sweep scheduler (with the dist coordinator attached
//! for `--connect`), serves `--metrics-addr`, runs the
//! caller's body, marks the checkpoint manifest complete on success,
//! and writes the scheduler summary, `--metrics` and `--trace`. Every
//! registry entry has one front end, its own binary, which is
//! `runner::run(generate)`; tools with arguments of their own
//! (`launch`, `sensitivity_analysis`, `real_figures`, `make_report`,
//! `verify_experiments`) hand the shared flags to [`RunOptions`] and
//! run their work as a session body.
//!
//! ```console
//! $ fig02_omp_atomic_update_scalar --trace fig02.json
//! $ sensitivity_analysis --jobs 2 --metrics -
//! $ all_figures --jobs 2 --connect host:7070 --metrics run.prom
//! ```
//!
//! Each output has one format. Numbers leave as the Prometheus text
//! exposition (`--metrics`, `--metrics-addr`), the rendering
//! `syncperf-serve` answers `GET /metrics` with. With `--trace`, a
//! process-global [`Recorder`] is installed before the body runs, so
//! every layer (protocol, simulators, real runtime) records into it;
//! the merged events plus the counter snapshot are then written as
//! Chrome `trace_event` JSON, and an ASCII summary of the counters is
//! printed to stdout. `--trace` and `--metrics` take `-` for stdout.

use std::path::{Path, PathBuf};

use syncperf_core::obs::{self, sink, Recorder};
use syncperf_core::report::render_obs_summary;
use syncperf_core::{FigureData, Result, SyncPerfError};

/// A figure/experiment generator, as registered in [`registry`].
pub type Generator = fn() -> Result<Vec<FigureData>>;

/// One runnable experiment: its binary name and figure generator.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The binary / experiment name (e.g. `fig01_omp_barrier`).
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// The generator producing the figure data.
    pub generate: Generator,
}

/// The registry name of the umbrella entry, whose generator runs every
/// other entry in order.
pub const ALL_FIGURES: &str = "all_figures";

/// Every library-backed figure/experiment generator, in paper order.
///
/// This is the single source of truth used by the per-figure binaries
/// and by [`crate::all_figures`] (every entry but the umbrella one).
#[must_use]
pub fn registry() -> Vec<Entry> {
    vec![
        Entry {
            name: "fig01_omp_barrier",
            about: "Fig. 1: OpenMP barrier throughput",
            generate: crate::figures_cpu::fig01_barrier,
        },
        Entry {
            name: "fig02_omp_atomic_update_scalar",
            about: "Fig. 2: OpenMP atomic update on a shared variable",
            generate: crate::figures_cpu::fig02_atomic_update_scalar,
        },
        Entry {
            name: "fig03_omp_atomic_update_array",
            about: "Fig. 3: OpenMP atomic update on private array elements",
            generate: crate::figures_cpu::fig03_atomic_update_array,
        },
        Entry {
            name: "fig04_omp_atomic_write",
            about: "Fig. 4: OpenMP atomic write",
            generate: crate::figures_cpu::fig04_atomic_write,
        },
        Entry {
            name: "fig05_omp_critical",
            about: "Fig. 5: OpenMP critical-section add",
            generate: crate::figures_cpu::fig05_critical,
        },
        Entry {
            name: "fig06_omp_flush",
            about: "Fig. 6: OpenMP flush",
            generate: crate::figures_cpu::fig06_flush,
        },
        Entry {
            name: "exp_omp_atomic_read_capture",
            about: "§V-A2: atomic read is free; capture behaves like update",
            generate: crate::figures_cpu::exp_atomic_read_capture,
        },
        Entry {
            name: "exp_omp_affinity",
            about: "Extension: spread vs close thread affinity",
            generate: crate::figures_cpu::exp_affinity,
        },
        Entry {
            name: "fig07_cuda_syncthreads",
            about: "Fig. 7: __syncthreads throughput",
            generate: crate::figures_gpu::fig07_syncthreads,
        },
        Entry {
            name: "fig08_cuda_syncwarp",
            about: "Fig. 8: __syncwarp throughput",
            generate: crate::figures_gpu::fig08_syncwarp,
        },
        Entry {
            name: "fig09_cuda_atomicadd_scalar",
            about: "Fig. 9: atomicAdd on one shared variable",
            generate: crate::figures_gpu::fig09_atomicadd_scalar,
        },
        Entry {
            name: "fig10_cuda_atomicadd_array",
            about: "Fig. 10: atomicAdd on private array elements",
            generate: crate::figures_gpu::fig10_atomicadd_array,
        },
        Entry {
            name: "fig11_cuda_atomiccas_scalar",
            about: "Fig. 11: atomicCAS on one shared variable",
            generate: crate::figures_gpu::fig11_atomiccas_scalar,
        },
        Entry {
            name: "fig12_cuda_atomiccas_array",
            about: "Fig. 12: atomicCAS on private array elements",
            generate: crate::figures_gpu::fig12_atomiccas_array,
        },
        Entry {
            name: "fig13_cuda_atomicexch",
            about: "Fig. 13: atomicExch on one shared variable",
            generate: crate::figures_gpu::fig13_atomicexch,
        },
        Entry {
            name: "fig14_cuda_threadfence",
            about: "Fig. 14: __threadfence",
            generate: crate::figures_gpu::fig14_threadfence,
        },
        Entry {
            name: "fig15_cuda_shfl",
            about: "Fig. 15: __shfl_sync",
            generate: crate::figures_gpu::fig15_shfl,
        },
        Entry {
            name: "exp_cuda_fence_scopes",
            about: "§V-B3: fence scopes",
            generate: crate::figures_gpu::exp_fence_scopes,
        },
        Entry {
            name: "exp_cuda_vote",
            about: "§V-B4: warp votes",
            generate: crate::figures_gpu::exp_vote,
        },
        Entry {
            name: "exp_cuda_atomic_ops",
            about: "Extension: the atomic RMW family",
            generate: crate::figures_gpu::exp_atomic_ops,
        },
        Entry {
            name: "exp_cuda_divergence",
            about: "Extension: warp divergence",
            generate: crate::figures_gpu::exp_divergence,
        },
        Entry {
            name: ALL_FIGURES,
            about: "every figure in paper order",
            generate: crate::all_figures,
        },
    ]
}

/// Looks up a registry entry by name.
#[must_use]
pub fn find(name: &str) -> Option<Entry> {
    registry().into_iter().find(|e| e.name == name)
}

/// Options shared by every session binary.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Write a Chrome JSON trace of the run to this path (`-` for
    /// stdout).
    pub trace: Option<PathBuf>,
    /// Worker threads for the sweep scheduler (`--jobs N`); `None`
    /// is 1.
    pub jobs: Option<usize>,
    /// Disable the content-addressed result cache (`--no-cache`).
    pub no_cache: bool,
    /// Write the final recorder snapshot in Prometheus-style text
    /// exposition format to this path (`--metrics <path>`) — the same
    /// rendering `syncperf-serve` exposes at `GET /metrics`.
    pub metrics: Option<PathBuf>,
    /// Run label scoping the checkpoint manifest (the binary name for
    /// [`run`]; tools pick their own).
    pub label: Option<String>,
    /// Serve replica addresses (`--connect host:port`, repeatable) —
    /// execute cache misses on exactly these replicas, as `POST /batch`
    /// shards, via the distributed coordinator instead of in-process
    /// threads.
    pub connect: Vec<String>,
    /// Chaos hook (`--chaos-kill-one N`): sever the connection to one
    /// replica after N results have been received.
    pub chaos_kill_one: Option<u64>,
    /// Serve live `GET /metrics` on this address for the duration of
    /// the run (`--metrics-addr host:port`; port 0 picks a free port
    /// and the bound address is printed as a ready line).
    pub metrics_addr: Option<String>,
}

impl RunOptions {
    /// Parses the shared flags from an argument iterator (binary name
    /// already skipped).
    ///
    /// # Errors
    ///
    /// Returns `InvalidParams` on unknown flags or missing values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self> {
        let (opts, rest) = Self::parse_known(args)?;
        match rest.first() {
            Some(other) => Err(SyncPerfError::InvalidParams(format!(
                "unknown flag `{other}` (supported: --trace <path>, \
                 --jobs <n>, --connect <host:port>, \
                 --chaos-kill-one <n>, --metrics-addr <host:port>, \
                 --no-cache, --metrics <path>)"
            ))),
            None => Ok(opts),
        }
    }

    /// Parses the shared flags out of `args` and returns, in order,
    /// every argument they leave over: a tool's own positionals and
    /// flags.
    ///
    /// # Errors
    ///
    /// Returns `InvalidParams` when a shared flag lacks its value or
    /// the value is malformed.
    pub fn parse_known<I: IntoIterator<Item = String>>(args: I) -> Result<(Self, Vec<String>)> {
        let mut opts = RunOptions::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => {
                    let path = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--trace requires a path".into())
                    })?;
                    opts.trace = Some(PathBuf::from(path));
                }
                "--jobs" => {
                    let n = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--jobs requires a worker count".into())
                    })?;
                    let n: usize = n.parse().map_err(|_| {
                        SyncPerfError::InvalidParams(format!("--jobs: `{n}` is not a number"))
                    })?;
                    opts.jobs = Some(n.max(1));
                }
                "--no-cache" => opts.no_cache = true,
                "--connect" => {
                    let addr = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--connect requires host:port".into())
                    })?;
                    opts.connect.push(addr);
                }
                "--chaos-kill-one" => {
                    let n = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--chaos-kill-one requires a count".into())
                    })?;
                    let n: u64 = n.parse().map_err(|_| {
                        SyncPerfError::InvalidParams(format!(
                            "--chaos-kill-one: `{n}` is not a number"
                        ))
                    })?;
                    opts.chaos_kill_one = Some(n);
                }
                "--metrics-addr" => {
                    let addr = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--metrics-addr requires host:port".into())
                    })?;
                    opts.metrics_addr = Some(addr);
                }
                "--metrics" => {
                    let path = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--metrics requires a path".into())
                    })?;
                    opts.metrics = Some(PathBuf::from(path));
                }
                _ => rest.push(a),
            }
        }
        Ok((opts, rest))
    }

    /// The scheduler's worker count: `--jobs`, or 1 (serial).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or(1).max(1)
    }

    /// Whether any scheduler-facing option was given. Only then does
    /// [`session`] install a scheduler; otherwise measurements
    /// take the serial legacy path, which stays the reference output.
    #[must_use]
    pub fn wants_scheduler(&self) -> bool {
        self.jobs.is_some() || self.no_cache || self.wants_dist()
    }

    /// Whether distributed (multi-process) execution was requested.
    #[must_use]
    pub fn wants_dist(&self) -> bool {
        !self.connect.is_empty()
    }
}

/// Runs `generate` as a [`session`] over the shared flags in
/// `std::env::args`, emitting the figures inside it.
///
/// Every figure binary's `main` is exactly `runner::run(generate)`.
///
/// # Errors
///
/// Propagates flag, generator and I/O errors.
pub fn run(generate: impl FnOnce() -> Result<Vec<FigureData>>) -> Result<()> {
    let mut opts = RunOptions::parse(std::env::args().skip(1))?;
    opts.label = std::env::args().next().map(|a| binary_label(&a));
    session(&opts, || generate().and_then(|figs| crate::emit(&figs)))
}

/// Derives a checkpoint label from `argv[0]` (its file stem).
fn binary_label(argv0: &str) -> String {
    Path::new(argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("run")
        .to_string()
}

/// One-line human summary of a distributed run.
#[must_use]
fn render_dist_summary(d: &syncperf_dist::DistStats) -> String {
    format!(
        "dist: {} workers ({} live), {} jobs sent, {} results, {} local, \
         {} coordinator ({} primed), {} reissues, {} deaths\n",
        d.workers,
        d.workers_live,
        d.jobs_sent,
        d.results_received,
        d.local_jobs,
        d.coordinator_jobs,
        d.coordinator_primed_jobs,
        d.shard_reissues,
        d.worker_deaths,
    )
}

/// One-line human summary of a scheduler run.
#[must_use]
fn render_sched_summary(stats: &syncperf_sched::SchedStats) -> String {
    format!(
        "scheduler: {} jobs, {} cache hits ({:.1}%), {} executed, {} steals, {} retries\n",
        stats.jobs,
        stats.cache_hits,
        stats.hit_rate() * 100.0,
        stats.executed,
        stats.steals,
        stats.retries,
    )
}

/// The process's metrics snapshot: `rec` (engine, protocol and runtime
/// counters) merged with `sched`'s registry through
/// [`Scheduler::export_into`](syncperf_sched::Scheduler::export_into)
/// and with `coord`'s `dist.*` registry when a fleet is attached.
/// `--metrics`, `--metrics-addr`, and the `--trace` file and summary
/// all render this one snapshot.
#[must_use]
pub fn process_snapshot(
    rec: &Recorder,
    sched: Option<&syncperf_sched::Scheduler>,
    coord: Option<&syncperf_dist::Coordinator>,
) -> obs::Snapshot {
    let mut snap = rec.snapshot();
    if let Some(s) = sched {
        s.export_into(&mut snap);
    }
    if let Some(c) = coord {
        c.export_into(&mut snap);
    }
    snap
}

/// Runs `body` as one run session under `opts`, the lifecycle every
/// sweep binary shares. The observability plane a flag needs and the
/// scheduler (plus the dist coordinator) are set up before `body`.
/// After it the scheduler is uninstalled, its checkpoint manifest is
/// marked complete only if `body` succeeded, and the scheduler summary
/// is printed either way; `--metrics` and `--trace` are written on
/// success. Every output reads one snapshot taken after `body`.
///
/// # Errors
///
/// Returns `body`'s error, or a setup or output I/O error.
pub fn session<T>(opts: &RunOptions, body: impl FnOnce() -> Result<T>) -> Result<T> {
    // `--trace` needs the event plane; the metrics flags only read
    // metrics, so they install the metrics plane alone. Either way the
    // sweep runs the same batched, memoized code as an unobserved one.
    let plane = if opts.trace.is_some() {
        Some(Recorder::tracing())
    } else if opts.metrics.is_some() || opts.metrics_addr.is_some() {
        Some(Recorder::enabled())
    } else {
        None
    };
    let rec = match plane {
        Some(plane) => {
            obs::install(plane);
            // `install` keeps an earlier recorder if one exists; either
            // way, record into whatever is globally visible.
            obs::global().clone()
        }
        None => Recorder::disabled(),
    };

    let sched = if opts.wants_scheduler() {
        let mut cfg = syncperf_sched::SchedConfig::new(opts.effective_jobs());
        if let Some(label) = &opts.label {
            cfg = cfg.with_label(label.clone());
        }
        if opts.no_cache {
            cfg = cfg.without_cache();
        }
        Some(syncperf_sched::install(syncperf_sched::Scheduler::new(cfg)))
    } else {
        None
    };

    // Distributed mode: connect to the replica fleet and route every
    // cache miss through it. The scheduler still owns cache lookups,
    // checkpointing, and the index-ordered merge, so the output bytes
    // are identical to an in-process run.
    let coord = if opts.wants_dist() {
        let s = sched
            .as_ref()
            .expect("wants_dist implies a scheduler is installed");
        let mut dcfg = syncperf_dist::DistConfig::new(opts.connect.clone());
        if let Some(n) = opts.chaos_kill_one {
            dcfg = dcfg.with_chaos_kill_one_after(n);
        }
        Some(syncperf_dist::Coordinator::start(
            dcfg,
            s,
            crate::serving::default_resolver(),
        )?)
    } else {
        None
    };

    if let Some(addr) = &opts.metrics_addr {
        // Live scrape endpoint for syncperf_top: each request renders a
        // fresh process snapshot.
        let (rec, sched, coord) = (rec.clone(), sched.clone(), coord.clone());
        let bound = syncperf_serve::metrics_endpoint(addr, move || {
            process_snapshot(&rec, sched.as_deref(), coord.as_deref())
        })?;
        println!("metrics listening on http://{bound}/metrics");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
    }

    let outcome = body();

    if let Some(c) = &coord {
        c.shutdown();
    }
    if let Some(s) = &sched {
        if outcome.is_ok() {
            // Mark the checkpoint manifest complete only on success.
            s.finish();
        }
        syncperf_sched::uninstall();
    }
    // Every sink below reads this one snapshot.
    let snap = process_snapshot(&rec, sched.as_deref(), coord.as_deref());
    if sched.is_some() {
        print!(
            "{}",
            render_sched_summary(&syncperf_sched::SchedStats::from_snapshot(&snap))
        );
        if coord.is_some() {
            print!(
                "{}",
                render_dist_summary(&syncperf_dist::DistStats::from_snapshot(&snap))
            );
        }
    }
    let value = outcome?;

    if let Some(path) = &opts.metrics {
        if write_out(path, &obs::metrics::render(&snap))? {
            println!("(metrics: {})", path.display());
        }
    }
    if let Some(path) = &opts.trace {
        let text = sink::chrome_trace_json(&rec.drain_events(), &snap);
        if write_out(path, &text)? {
            print!("{}", render_obs_summary(&snap));
            println!("(trace: {})", path.display());
        }
    }
    Ok(value)
}

/// Writes `text` to `path`, or to stdout when `path` is `-`; returns
/// whether a file was written.
fn write_out(path: &Path, text: &str) -> Result<bool> {
    if path.as_os_str() == "-" {
        print!("{text}");
        Ok(false)
    } else {
        std::fs::write(path, text)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `args` fail to parse as an unknown `flag`.
    fn unknown_flag(args: &[&str], flag: &str) -> bool {
        RunOptions::parse(args.iter().map(|a| (*a).to_string()))
            .is_err_and(|e| e.to_string().contains(&format!("unknown flag `{flag}`")))
    }

    #[test]
    fn registry_names_are_unique_and_match_binaries() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate registry names");
        assert!(find("fig01_omp_barrier").is_some());
        assert!(find("all_figures").is_some());
        assert!(find("no_such_figure").is_none());
    }

    #[test]
    fn parse_accepts_trace_flag() {
        let opts = RunOptions::parse(["--trace", "out.json"].map(String::from)).unwrap();
        assert_eq!(opts.trace.as_deref(), Some(Path::new("out.json")));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(RunOptions::parse(["--bogus".to_string()]).is_err());
        assert!(RunOptions::parse(["--trace".to_string()]).is_err());
        assert!(RunOptions::parse(["--jobs".to_string()]).is_err());
        assert!(RunOptions::parse(["--jobs".to_string(), "four".to_string()]).is_err());
        // Each output has one format, and resume is the cache: none
        // of these is a flag.
        assert!(unknown_flag(&["--cache-stats", "s.json"], "--cache-stats"));
        assert!(unknown_flag(&["--trace-format", "jsonl"], "--trace-format"));
        assert!(unknown_flag(&["--resume"], "--resume"));
    }

    #[test]
    fn parse_accepts_scheduler_flags() {
        let opts = RunOptions::parse(["--jobs", "4", "--no-cache"].map(String::from)).unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.no_cache);
        assert!(opts.wants_scheduler());
        assert!(!RunOptions::default().no_cache);
        let m = RunOptions::parse(["--metrics", "m.prom"].map(String::from)).unwrap();
        assert_eq!(opts.metrics, None);
        assert_eq!(m.metrics.as_deref(), Some(Path::new("m.prom")));
        assert!(RunOptions::parse(["--metrics".to_string()]).is_err());
    }

    #[test]
    fn parse_known_leaves_tool_arguments_in_order() {
        let (opts, rest) = RunOptions::parse_known(
            [
                "omp_barrier",
                "--jobs",
                "2",
                "--yes",
                "--system",
                "1",
                "--metrics",
                "-",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.metrics.as_deref(), Some(Path::new("-")));
        assert_eq!(rest, ["omp_barrier", "--yes", "--system", "1"]);
        assert!(RunOptions::parse(rest).is_err());
        assert!(RunOptions::parse_known(["--jobs".to_string()]).is_err());
    }

    #[test]
    fn jobs_is_the_flag_or_serial() {
        let jobs = |n| RunOptions {
            jobs: n,
            ..RunOptions::default()
        };
        assert_eq!(jobs(Some(4)).effective_jobs(), 4);
        assert_eq!(jobs(Some(0)).effective_jobs(), 1);
        assert_eq!(jobs(None).effective_jobs(), 1);
        assert!(!jobs(None).wants_scheduler());
    }

    #[test]
    fn binary_label_is_the_file_stem() {
        assert_eq!(binary_label("target/release/all_figures"), "all_figures");
        assert_eq!(binary_label("fig01_omp_barrier"), "fig01_omp_barrier");
    }

    #[test]
    fn summaries_read_the_stats() {
        let stats = syncperf_sched::SchedStats {
            jobs: 10,
            executed: 2,
            cache_hits: 8,
            ..Default::default()
        };
        assert!(render_sched_summary(&stats).contains("80.0%"));
        let dist = syncperf_dist::DistStats {
            workers: 3,
            workers_live: 2,
            shard_reissues: 1,
            coordinator_primed_jobs: 4,
            ..Default::default()
        };
        let summary = render_dist_summary(&dist);
        assert!(summary.contains("3 workers (2 live)"));
        assert!(summary.contains("1 reissues"));
        assert!(summary.contains("(4 primed)"));
    }

    #[test]
    fn parse_accepts_dist_flags() {
        let opts = RunOptions::parse(
            ["--connect", "127.0.0.1:7001", "--connect", "127.0.0.1:7002"].map(String::from),
        )
        .unwrap();
        assert_eq!(opts.connect.len(), 2);
        assert!(opts.wants_dist());
        assert!(opts.wants_scheduler());
        assert!(!RunOptions::default().wants_dist());
        assert!(RunOptions::parse(["--connect".to_string()]).is_err());
        // No flag starts a local worker fleet.
        assert!(unknown_flag(&["--workers", "3"], "--workers"));
    }
}
