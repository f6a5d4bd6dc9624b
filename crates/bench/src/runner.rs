//! Shared entry point for every binary that runs sweeps.
//!
//! [`session`] is the one run lifecycle: it installs the observability
//! plane and the sweep scheduler (with the dist coordinator attached
//! for `--connect`), serves `--metrics-addr`, runs the
//! caller's body, marks the checkpoint manifest complete on success,
//! and writes the scheduler summary, `--cache-stats`, `--metrics` and
//! `--trace`. Every `fig*`/`exp*` binary is `runner::run(generate)`;
//! tools with arguments of their own (`trace_report`, `launch`,
//! `sensitivity_analysis`, `real_figures`, `syncperf_dist`) hand the
//! shared flags to [`RunOptions`] and run their work as a session body.
//!
//! ```console
//! $ fig02_omp_atomic_update_scalar --trace fig02.json
//! $ fig02_omp_atomic_update_scalar --trace fig02.jsonl --trace-format jsonl
//! $ sensitivity_analysis --jobs 2 --metrics -
//! ```
//!
//! With `--trace`, a process-global [`Recorder`] is installed before
//! the body runs, so every layer (protocol, simulators, real runtime)
//! records into it; the merged events plus the counter snapshot are
//! then written in the requested format and an ASCII summary of the
//! counters is printed to stdout. `--trace` and `--metrics` take `-`
//! for stdout.

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
/// This is the single source of truth used by the per-figure binaries,
/// by [`crate::all_figures`] (every entry but the umbrella one) and by
/// `trace_report` (which can run any entry by name with recording
/// enabled).
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

/// Trace output format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome `trace_event` JSON (chrome://tracing, Perfetto).
    Chrome,
    /// One JSON object per line.
    Jsonl,
    /// The ASCII counter summary table.
    Summary,
}

impl TraceFormat {
    /// Parses a `--trace-format` value.
    ///
    /// # Errors
    ///
    /// Returns `InvalidParams` for unknown format names.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            "summary" => Ok(TraceFormat::Summary),
            other => Err(SyncPerfError::InvalidParams(format!(
                "unknown trace format `{other}` (expected chrome|jsonl|summary)"
            ))),
        }
    }

    /// Infers a format from a path extension (`.jsonl` → JSONL,
    /// `.txt` → summary, anything else → Chrome JSON).
    #[must_use]
    pub fn infer(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("jsonl") => TraceFormat::Jsonl,
            Some("txt") => TraceFormat::Summary,
            _ => TraceFormat::Chrome,
        }
    }
}

/// Options shared by every session binary.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Write a trace of the run to this path.
    pub trace: Option<PathBuf>,
    /// Explicit trace format (otherwise inferred from the extension).
    pub format: Option<TraceFormat>,
    /// Worker threads for the sweep scheduler (`--jobs N`). `None`
    /// falls back to the `SYNCPERF_JOBS` environment variable, then 1.
    pub jobs: Option<usize>,
    /// Disable the content-addressed result cache (`--no-cache`).
    pub no_cache: bool,
    /// Resume from this run label's checkpoint manifest (`--resume`).
    pub resume: bool,
    /// Write flat-JSON scheduler/cache statistics to this path
    /// (`--cache-stats <path>`).
    pub cache_stats: Option<PathBuf>,
    /// Write the final recorder snapshot in Prometheus-style text
    /// exposition format to this path (`--metrics <path>`) — the same
    /// rendering `syncperf-serve` exposes at `GET /metrics`.
    pub metrics: Option<PathBuf>,
    /// Run label scoping the checkpoint manifest (the binary name for
    /// [`run`]; tools pick their own).
    pub label: Option<String>,
    /// Pre-started worker addresses (`--connect host:port`, repeatable)
    /// — execute cache misses on exactly these workers via the
    /// distributed coordinator instead of in-process threads.
    pub connect: Vec<String>,
    /// Chaos hook (`--chaos-kill-one N`): sever the connection to one
    /// worker after N results have been received.
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
                 --trace-format chrome|jsonl|summary, --jobs <n>, \
                 --connect <host:port>, \
                 --chaos-kill-one <n>, --metrics-addr <host:port>, \
                 --no-cache, --resume, --cache-stats <path>, \
                 --metrics <path>)"
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
                "--trace-format" => {
                    let fmt = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--trace-format requires a value".into())
                    })?;
                    opts.format = Some(TraceFormat::parse(&fmt)?);
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
                "--resume" => opts.resume = true,
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
                "--cache-stats" => {
                    let path = it.next().ok_or_else(|| {
                        SyncPerfError::InvalidParams("--cache-stats requires a path".into())
                    })?;
                    opts.cache_stats = Some(PathBuf::from(path));
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

    /// The effective format for `path`.
    #[must_use]
    pub fn effective_format(&self, path: &Path) -> TraceFormat {
        self.format.unwrap_or_else(|| TraceFormat::infer(path))
    }

    /// Worker-count precedence: `--jobs` flag, then the `SYNCPERF_JOBS`
    /// environment variable, then 1 (serial).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        Self::jobs_from(self.jobs, std::env::var("SYNCPERF_JOBS").ok().as_deref())
    }

    /// [`Self::effective_jobs`] with the environment injected (so the
    /// precedence is unit-testable without mutating process state).
    #[must_use]
    pub fn jobs_from(flag: Option<usize>, env: Option<&str>) -> usize {
        flag.or_else(|| env.and_then(|s| s.trim().parse().ok()))
            .map_or(1, |n| n.max(1))
    }

    /// Whether any scheduler-facing option was given. Only then does
    /// [`session`] install a scheduler; otherwise measurements
    /// take the serial legacy path, which stays the reference output.
    #[must_use]
    pub fn wants_scheduler(&self) -> bool {
        self.jobs.is_some()
            || self.no_cache
            || self.resume
            || self.cache_stats.is_some()
            || self.wants_dist()
            || std::env::var_os("SYNCPERF_JOBS").is_some()
    }

    /// Whether distributed (multi-process) execution was requested.
    #[must_use]
    pub fn wants_dist(&self) -> bool {
        !self.connect.is_empty()
    }
}

/// Renders a drained trace in `format`.
#[must_use]
fn render_trace(events: &[obs::Event], snap: &obs::Snapshot, format: TraceFormat) -> String {
    match format {
        TraceFormat::Chrome => sink::chrome_trace_json(events, snap),
        TraceFormat::Jsonl => sink::jsonl(events),
        TraceFormat::Summary => render_obs_summary(snap),
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

/// Renders scheduler statistics as a flat JSON object (stable keys,
/// easy to grep/parse from shell in CI). When a distributed
/// coordinator ran, its `dist_*` counters and quantiles are appended
/// to the same flat object.
#[must_use]
pub fn cache_stats_json(
    stats: &syncperf_sched::SchedStats,
    dist: Option<&syncperf_dist::DistStats>,
) -> String {
    let mut json = format!(
        "{{\"jobs\":{},\"executed\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"cache_stores\":{},\"steals\":{},\"retries\":{},\"resumed\":{},\
         \"wait_us_p50\":{},\"wait_us_p99\":{},\
         \"service_hit_us_p50\":{},\"service_hit_us_p99\":{},\
         \"service_miss_us_p50\":{},\"service_miss_us_p99\":{},\
         \"queue_depth_peak\":{},\
         \"plan_batches\":{},\"plan_batch_points\":{},\
         \"plan_primed_jobs\":{},\"plan_compile_us\":{},\
         \"hit_rate\":{:.6}",
        stats.jobs,
        stats.executed,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_stores,
        stats.steals,
        stats.retries,
        stats.resumed,
        stats.wait_us_p50,
        stats.wait_us_p99,
        stats.service_hit_us_p50,
        stats.service_hit_us_p99,
        stats.service_miss_us_p50,
        stats.service_miss_us_p99,
        stats.queue_depth_peak,
        stats.plan_batches,
        stats.plan_batch_points,
        stats.plan_primed_jobs,
        stats.plan_compile_us,
        stats.hit_rate(),
    );
    if let Some(d) = dist {
        json.push_str(&format!(
            ",\"dist_workers\":{},\"dist_jobs_sent\":{},\"dist_results_received\":{},\
             \"dist_local_jobs\":{},\"dist_coordinator_jobs\":{},\"dist_primed_jobs\":{},\
             \"dist_coordinator_primed_jobs\":{},\"dist_shard_reissues\":{},\
             \"dist_worker_deaths\":{},\"dist_corrupt_entries\":{},\
             \"dist_duplicate_results\":{},\"dist_worker_errors\":{},\
             \"dist_bytes_sent\":{},\"dist_bytes_received\":{},\
             \"dist_wait_us_p50\":{},\"dist_wait_us_p99\":{},\
             \"dist_service_us_p50\":{},\"dist_service_us_p99\":{}",
            d.workers,
            d.jobs_sent,
            d.results_received,
            d.local_jobs,
            d.coordinator_jobs,
            d.primed_jobs,
            d.coordinator_primed_jobs,
            d.shard_reissues,
            d.worker_deaths,
            d.corrupt_entries,
            d.duplicate_results,
            d.worker_errors,
            d.bytes_sent,
            d.bytes_received,
            d.wait_us_p50,
            d.wait_us_p99,
            d.service_us_p50,
            d.service_us_p99,
        ));
    }
    json.push_str("}\n");
    json
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
        "scheduler: {} jobs, {} cache hits ({:.1}%), {} executed, {} steals, {} retries, {} resumed\n",
        stats.jobs,
        stats.cache_hits,
        stats.hit_rate() * 100.0,
        stats.executed,
        stats.steals,
        stats.retries,
        stats.resumed,
    )
}

/// The process's metrics snapshot: `rec` (engine, protocol and runtime
/// counters) merged with `sched`'s registry through
/// [`Scheduler::export_into`](syncperf_sched::Scheduler::export_into),
/// which carries the dist coordinator's too when one is attached.
/// `--metrics`, `--metrics-addr`, and the `--trace` file and summary
/// all render this one snapshot.
#[must_use]
pub fn process_snapshot(
    rec: &Recorder,
    sched: Option<&syncperf_sched::Scheduler>,
) -> obs::Snapshot {
    let mut snap = rec.snapshot();
    if let Some(s) = sched {
        s.export_into(&mut snap);
    }
    snap
}

/// Runs `body` as one run session under `opts`, the lifecycle every
/// sweep binary shares. The observability plane a flag needs and the
/// scheduler (plus the dist coordinator) are set up before `body`.
/// After it the scheduler is uninstalled, its checkpoint manifest is
/// marked complete only if `body` succeeded, and the scheduler summary
/// and `--cache-stats` are written either way; `--metrics` and
/// `--trace` are written on success. Every output reads one snapshot
/// taken after `body`.
///
/// # Errors
///
/// Returns `body`'s error, or a setup or output I/O error.
pub fn session<T>(opts: &RunOptions, body: impl FnOnce() -> Result<T>) -> Result<T> {
    // `--trace` needs the event plane; the stats flags only read
    // metrics, so they install the metrics plane alone. Either way the
    // sweep runs the same batched, memoized code as an unobserved one.
    let plane = if opts.trace.is_some() {
        Some(Recorder::tracing())
    } else if opts.cache_stats.is_some() || opts.metrics.is_some() || opts.metrics_addr.is_some() {
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
        if opts.resume {
            cfg = cfg.with_resume();
        }
        Some(syncperf_sched::install(syncperf_sched::Scheduler::new(cfg)))
    } else {
        None
    };

    // Distributed mode: connect to the worker fleet and route every
    // cache miss through it. The scheduler still owns cache lookups,
    // checkpointing, and the index-ordered merge, so the output bytes
    // are identical to an in-process run.
    let coord = if opts.wants_dist() {
        let s = sched
            .as_ref()
            .expect("wants_dist implies a scheduler is installed");
        let mut dcfg = syncperf_dist::DistConfig::new(opts.connect.clone())
            .with_salt_extra(s.config().salt_extra);
        if let Some(n) = opts.chaos_kill_one {
            dcfg = dcfg.with_chaos_kill_one_after(n);
        }
        let cache = s
            .cache()
            .map(|c| syncperf_sched::Cache::new(c.dir().to_path_buf()));
        let coord = syncperf_dist::Coordinator::start(dcfg, cache)?;
        coord.attach(s);
        Some(coord)
    } else {
        None
    };

    if let Some(addr) = &opts.metrics_addr {
        // Live scrape endpoint for syncperf_top: each request renders a
        // fresh process snapshot.
        let (rec, sched) = (rec.clone(), sched.clone());
        let bound = syncperf_serve::metrics_endpoint(addr, move || {
            process_snapshot(&rec, sched.as_deref())
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
            // Mark the checkpoint manifest complete only on success, so
            // a failed run stays resumable.
            s.finish();
        }
        syncperf_sched::uninstall();
    }
    // Every sink below reads this one snapshot.
    let snap = process_snapshot(&rec, sched.as_deref());
    if sched.is_some() {
        let stats = syncperf_sched::SchedStats::from_snapshot(&snap);
        let dist_stats = coord
            .as_ref()
            .map(|_| syncperf_dist::DistStats::from_snapshot(&snap));
        print!("{}", render_sched_summary(&stats));
        if let Some(d) = &dist_stats {
            print!("{}", render_dist_summary(d));
        }
        if let Some(path) = &opts.cache_stats {
            std::fs::write(path, cache_stats_json(&stats, dist_stats.as_ref()))?;
        }
    }
    let value = outcome?;

    if let Some(path) = &opts.metrics {
        if write_out(path, &obs::metrics::render(&snap))? {
            println!("(metrics: {})", path.display());
        }
    }
    if let Some(path) = &opts.trace {
        let events = rec.drain_events();
        let text = render_trace(&events, &snap, opts.effective_format(path));
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
    fn parse_accepts_trace_flags() {
        let opts = RunOptions::parse(
            ["--trace", "out.jsonl", "--trace-format", "jsonl"].map(String::from),
        )
        .unwrap();
        assert_eq!(opts.trace.as_deref(), Some(Path::new("out.jsonl")));
        assert_eq!(opts.format, Some(TraceFormat::Jsonl));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(RunOptions::parse(["--bogus".to_string()]).is_err());
        assert!(RunOptions::parse(["--trace".to_string()]).is_err());
        assert!(RunOptions::parse(["--trace-format".to_string(), "yaml".to_string()]).is_err());
        assert!(RunOptions::parse(["--jobs".to_string()]).is_err());
        assert!(RunOptions::parse(["--jobs".to_string(), "four".to_string()]).is_err());
        assert!(RunOptions::parse(["--cache-stats".to_string()]).is_err());
    }

    #[test]
    fn parse_accepts_scheduler_flags() {
        let opts = RunOptions::parse(
            [
                "--jobs",
                "4",
                "--no-cache",
                "--resume",
                "--cache-stats",
                "s.json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.no_cache);
        assert!(opts.resume);
        assert_eq!(opts.cache_stats.as_deref(), Some(Path::new("s.json")));
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
    fn jobs_precedence_is_flag_then_env_then_serial() {
        // Flag beats environment.
        assert_eq!(RunOptions::jobs_from(Some(4), Some("8")), 4);
        // Environment beats the serial default.
        assert_eq!(RunOptions::jobs_from(None, Some("8")), 8);
        assert_eq!(RunOptions::jobs_from(None, Some(" 2 ")), 2);
        // Neither set, or the env value is garbage / zero: serial.
        assert_eq!(RunOptions::jobs_from(None, None), 1);
        assert_eq!(RunOptions::jobs_from(None, Some("lots")), 1);
        assert_eq!(RunOptions::jobs_from(None, Some("0")), 1);
        assert_eq!(RunOptions::jobs_from(Some(0), Some("8")), 1);
    }

    #[test]
    fn binary_label_is_the_file_stem() {
        assert_eq!(binary_label("target/release/all_figures"), "all_figures");
        assert_eq!(binary_label("fig01_omp_barrier"), "fig01_omp_barrier");
    }

    #[test]
    fn cache_stats_json_is_flat_and_stable() {
        let stats = syncperf_sched::SchedStats {
            jobs: 10,
            executed: 2,
            cache_hits: 8,
            cache_misses: 2,
            cache_stores: 2,
            steals: 1,
            wait_us_p99: 120,
            queue_depth_peak: 4,
            plan_batches: 2,
            plan_batch_points: 6,
            plan_primed_jobs: 6,
            plan_compile_us: 37,
            ..Default::default()
        };
        let json = cache_stats_json(&stats, None);
        assert!(json.contains("\"jobs\":10"));
        assert!(json.contains("\"cache_hits\":8"));
        assert!(json.contains("\"wait_us_p99\":120"));
        assert!(json.contains("\"queue_depth_peak\":4"));
        assert!(json.contains("\"plan_batches\":2"));
        assert!(json.contains("\"plan_batch_points\":6"));
        assert!(json.contains("\"plan_primed_jobs\":6"));
        assert!(json.contains("\"plan_compile_us\":37"));
        assert!(json.contains("\"hit_rate\":0.8"));
        assert!(
            !json.contains("dist_"),
            "no dist fields without a coordinator"
        );
        assert!(render_sched_summary(&stats).contains("80.0%"));

        let dist = syncperf_dist::DistStats {
            workers: 3,
            workers_live: 2,
            jobs_sent: 9,
            results_received: 9,
            shard_reissues: 1,
            primed_jobs: 6,
            coordinator_primed_jobs: 4,
            wait_us_p99: 77,
            service_us_p50: 41,
            ..Default::default()
        };
        let json = cache_stats_json(&stats, Some(&dist));
        assert!(json.contains("\"dist_workers\":3"));
        assert!(json.contains("\"dist_jobs_sent\":9"));
        assert!(json.contains("\"dist_shard_reissues\":1"));
        assert!(json.contains("\"dist_primed_jobs\":6"));
        assert!(json.contains("\"dist_coordinator_primed_jobs\":4"));
        assert!(json.contains("\"dist_wait_us_p99\":77"));
        assert!(json.contains("\"dist_service_us_p50\":41"));
        assert!(json.trim_end().ends_with('}'), "stays one flat object");
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
        let err = RunOptions::parse(["--workers", "3"].map(String::from)).unwrap_err();
        assert!(
            err.to_string().contains("unknown flag `--workers`"),
            "{err}"
        );
    }

    #[test]
    fn format_inferred_from_extension() {
        assert_eq!(TraceFormat::infer(Path::new("t.jsonl")), TraceFormat::Jsonl);
        assert_eq!(TraceFormat::infer(Path::new("t.txt")), TraceFormat::Summary);
        assert_eq!(TraceFormat::infer(Path::new("t.json")), TraceFormat::Chrome);
        let opts = RunOptions {
            trace: Some(PathBuf::from("t.jsonl")),
            format: Some(TraceFormat::Chrome),
            ..RunOptions::default()
        };
        // An explicit format wins over the extension.
        assert_eq!(
            opts.effective_format(Path::new("t.jsonl")),
            TraceFormat::Chrome
        );
    }

    #[test]
    fn render_trace_dispatches_by_format() {
        let rec = Recorder::tracing();
        rec.counter("x.count").inc();
        rec.instant("t", "e");
        let events = rec.drain_events();
        let snap = rec.snapshot();
        assert!(render_trace(&events, &snap, TraceFormat::Chrome).contains("traceEvents"));
        assert!(render_trace(&events, &snap, TraceFormat::Jsonl).contains("\"name\":\"e\""));
        assert!(render_trace(&events, &snap, TraceFormat::Summary).contains("x.count"));
    }
}
