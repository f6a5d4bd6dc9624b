//! syncperf's benchmark: end-to-end figures with tracing off, and a
//! per-layer ledger from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures_cold|figures_warm|figures_observed|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Scratch trees go under `.perfbench/`
//! there; the traced run also leaves its spans in
//! `.perfbench/spans-<workload>.jsonl`. Human-readable lines come
//! first; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed operation
//! (a sweep or request that errs, or an output that differs from the
//! reference) makes `correct` false. See `perfbench/README.md`.

mod figures;
mod http;
mod serve;
mod span;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};

/// Every end-to-end metric with its unit, reported on every workload
/// with `--trace 0`.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, reported on every workload
/// with `--trace 1` (0 where the workload does no work in that layer).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("bench.generate_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.render_bytes", "bytes"),
    ("sched.finish_ms", "ms"),
    ("sched.jobs", "count"),
    ("sched.run_jobs_calls", "count"),
    ("sched.executed", "count"),
    ("sched.hash_ns", "ns"),
    ("sched.run_jobs_fixed_us.primed", "us"),
    ("sched.run_jobs_marginal_us.primed", "us"),
    ("sched.run_jobs_fixed_us.mixed", "us"),
    ("sched.run_jobs_marginal_us.mixed", "us"),
    ("sched.plan.batches", "count"),
    ("sched.plan.batch_points", "count"),
    ("sched.plan.compile_us", "us"),
    ("sched.plan.prime_us_per_point", "us"),
    ("sched.plan.primed_ratio", "ratio"),
    ("cpu_sim.primed_us", "us"),
    ("gpu_sim.primed_us", "us"),
    ("cpu_sim.single_us", "us"),
    ("gpu_sim.single_us", "us"),
    ("sched.service_miss_us_p50", "us"),
    ("sched.service_miss_us_p99", "us"),
    ("sched.retries", "count"),
    ("sched.cache.loads", "count"),
    ("sched.cache.stores", "count"),
    ("sched.cache.load_us_p50", "us"),
    ("sched.cache.load_us_p99", "us"),
    ("sched.cache.decode_us", "us"),
    ("sched.cache.scan_ms", "ms"),
    ("sched.cache.store_us", "us"),
    ("sched.cache.encode_us", "us"),
    ("sched.cache.hit_ratio", "ratio"),
    ("sched.cache.entries", "count"),
    ("sched.cache.bytes", "bytes"),
    ("sched.checkpoint.save_us", "us"),
    ("sched.pool.wait_us_p50", "us"),
    ("sched.pool.wait_us_p99", "us"),
    ("sched.pool.busy_ratio", "ratio"),
    ("sched.pool.steals", "count"),
    ("sched.pool.queue_depth_peak", "count"),
    ("serve.job.us_p50", "us"),
    ("serve.job.us_p99", "us"),
    ("serve.query.us_p50", "us"),
    ("serve.query.us_p99", "us"),
    ("serve.figure.us_p50", "us"),
    ("serve.figure.us_p99", "us"),
    ("serve.compute_hit.us_p50", "us"),
    ("serve.compute_hit.us_p99", "us"),
    ("serve.compute_miss.us_p50", "us"),
    ("serve.compute_miss.us_p99", "us"),
    ("serve.stats.us_p50", "us"),
    ("serve.stats.us_p99", "us"),
    ("serve.metrics.us_p50", "us"),
    ("serve.metrics.us_p99", "us"),
    ("serve.http.parse_ns", "ns"),
    ("serve.http.render_ns", "ns"),
    ("serve.index.get_ns", "ns"),
    ("serve.index.query_us", "us"),
    ("serve.index.insert_us", "us"),
    ("serve.index.refresh_ms", "ms"),
    ("serve.dedup_waits", "count"),
    ("serve.errors", "count"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.index.entries", "count"),
    ("serve.sched_queue_depth_max", "count"),
    ("serve.goodput_rps", "1/s"),
    ("load.late_us_p99", "us"),
    ("load.backlog_max", "count"),
    ("obs.events", "count"),
    ("obs.events_dropped", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("run.latency_ms_p50", "ms"),
    ("run.latency_ms_tail", "ms"),
    ("run.tail_percentile", "%"),
    ("run.samples", "count"),
];

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Write the reference digests of a cold sweep to this file and
    /// exit.
    pub write_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--write-reference" => opts.write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(opts)
}

#[derive(Debug)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    /// Peak resident memory after set-up and the first measured
    /// operation, in MiB.
    rss_mb: Option<f64>,
    pub ledger: Option<span::Tracer>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Sets an end-to-end metric declared in [`E2E_METRICS`].
    pub fn e2e(&mut self, name: &str, value: f64) {
        set(&mut self.e2e, E2E_METRICS, name, value);
    }

    /// Sets a per-layer metric declared in [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &str, value: f64) {
        set(&mut self.layers, LAYER_METRICS, name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records peak memory once, after the first measured operation:
    /// what one regeneration or one serving session needs, before a
    /// long run's repetitions add to it.
    pub fn mark_rss(&mut self) {
        self.rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Sets the wall-time per-layer metrics (median, tail and its
    /// percentile, sample count) from tracing-off operation times, given
    /// in units that `to_ms` converts to milliseconds.
    pub fn wall(&mut self, times: &[f64], to_ms: f64) {
        let pct = stats::tail_percentile(times.len());
        self.layer("run.latency_ms_p50", stats::median(times) * to_ms);
        self.layer("run.latency_ms_tail", stats::percentile(times, pct) * to_ms);
        self.layer("run.tail_percentile", pct);
        self.layer("run.samples", times.len() as f64);
    }
}

fn set(into: &mut Vec<Metric>, declared: &[(&str, &'static str)], name: &str, value: f64) {
    let unit = declared
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
        .1;
    into.retain(|m| m.name != name);
    into.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// The declared metrics in order, with the values `got` holds (0 for
/// a per-layer metric the workload has no work for).
fn in_order(got: &[Metric], declared: &[(&str, &'static str)]) -> Vec<Metric> {
    declared
        .iter()
        .map(|(name, unit)| Metric {
            name: (*name).to_string(),
            value: got
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value),
            unit,
        })
        .collect()
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) on `clock`, in nanoseconds.
fn cpu_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of this process: every thread, finished ones included.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

pub const RUSAGE_SELF: i32 = 0;
pub const RUSAGE_THREAD: i32 = 1;

/// User-mode CPU time of this process (`RUSAGE_SELF`) or of the
/// calling thread (`RUSAGE_THREAD`), in nanoseconds.
pub fn user_cpu_ns(who: i32) -> u64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` has the layout of `struct rusage` and is writable.
    if unsafe { getrusage(who, &mut ru) } != 0 {
        return 0;
    }
    ru.utime[0] as u64 * 1_000_000_000 + ru.utime[1] as u64 * 1_000
}

/// Marks `dir` with the ext2/3/4 `TOPDIR` attribute (`chattr +T`), so
/// each directory created in it is placed like a top-level directory, in
/// a block group picked from its name among those with the fewest
/// directories, instead of next to `dir`. With the scratch tree named
/// after the process, each run then lands in another group than the one
/// the previous run emptied at exit. On ext4 without a journal, as on the
/// reference machine, the inode allocator passes over every inode freed
/// in the last minute, reading each one's deletion time; creating a file
/// in a group a run had just emptied cost 400-900 us of kernel time
/// against 20-30 us in another group, so set-up and cache stores measured
/// the previous run's clean-up. Returns whether the attribute is set;
/// filesystems without it are left as they are.
fn spread_subdirs(dir: &Path) -> bool {
    use std::os::fd::AsRawFd;
    const FS_IOC_GETFLAGS: u64 = 0x8008_6601;
    const FS_IOC_SETFLAGS: u64 = 0x4008_6602;
    const FS_TOPDIR_FL: i32 = 0x0002_0000;
    extern "C" {
        fn ioctl(fd: i32, request: u64, ...) -> i32;
    }
    let Ok(file) = std::fs::File::open(dir) else {
        return false;
    };
    let mut flags: i32 = 0;
    // SAFETY: both requests read or write one `int` at the pointer,
    // which is valid for the calls; the descriptor is open.
    unsafe {
        if ioctl(file.as_raw_fd(), FS_IOC_GETFLAGS, &mut flags as *mut i32) != 0 {
            return false;
        }
        if flags & FS_TOPDIR_FL != 0 {
            return true;
        }
        flags |= FS_TOPDIR_FL;
        ioctl(file.as_raw_fd(), FS_IOC_SETFLAGS, &flags as *const i32) == 0
    }
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, point, kind) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(opts: &Opts, scratch: &Path, report: &mut Report) -> Result<(), String> {
    match opts.workload.as_str() {
        "figures_cold" => figures::run(figures::Kind::Cold, opts, scratch, report),
        "figures_warm" => figures::run(figures::Kind::Warm, opts, scratch, report),
        "figures_observed" => figures::run(figures::Kind::Observed, opts, scratch, report),
        "serve_mixed" => serve::run(opts, scratch, report),
        other => Err(format!(
            "unknown workload `{other}` (figures_cold, figures_warm, figures_observed, serve_mixed)"
        )),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    if let Some(path) = &opts.write_reference {
        let tree = root.join("reference");
        let r = fresh_dir(&tree)
            .and_then(|tree| {
                let mut off = span::Tracer::new(false, std::time::Instant::now());
                sweep::sweep(&mut off, &tree, true)?;
                sweep::Reference::render(&tree.join("results"))
            })
            .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
        let _ = std::fs::remove_dir_all(&tree);
        if let Err(e) = r {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let spread = std::fs::create_dir_all(&root).is_ok() && spread_subdirs(&root);
    let scratch = root.join(format!("tmp-{}-{}", opts.workload, std::process::id()));
    let mut report = Report::default();
    let outcome = fresh_dir(&scratch).and_then(|s| run(&opts, &s, &mut report));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        eprintln!("error: {}: {e}", opts.workload);
        std::process::exit(1);
    }
    if report.attempted == 0 {
        eprintln!("error: {}: no operation attempted", opts.workload);
        std::process::exit(1);
    }

    println!(
        "workload {} seed {} seconds {} trace {}; scratch on {} ({}{}); available_parallelism {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        root.display(),
        fs_type(&root),
        if spread { ", topdir" } else { "" },
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    for line in &report.notes {
        println!("{line}");
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    let fail_ratio = report.failed as f64 / report.attempted as f64;
    println!(
        "fail_ratio {fail_ratio} ({} of {} operations); outputs {}",
        report.failed,
        report.attempted,
        if report.failed == 0 {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    let metrics = if opts.trace {
        if let Some(t) = &report.ledger {
            println!(
                "{:<36} {:>8} {:>12} {:>12}",
                "span", "calls", "total_ms", "self_ms"
            );
            for (name, (calls, total, own)) in t.ledger() {
                println!(
                    "{name:<36} {calls:>8} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        in_order(&report.layers, LAYER_METRICS)
    } else {
        let rss = report.rss_mb.unwrap_or_else(peak_rss_mb);
        report.e2e("peak_rss_mb", rss);
        if let Some((name, _)) = E2E_METRICS
            .iter()
            .find(|(n, _)| !report.e2e.iter().any(|m| m.name == *n))
        {
            eprintln!("error: {}: {name} was not measured", opts.workload);
            std::process::exit(1);
        }
        let e2e = in_order(&report.e2e, E2E_METRICS);
        for m in &e2e {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        json_metrics(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::obs::json;

    fn listed<'a>(v: &'a json::Value, key: &str) -> Vec<(&'a str, &'a str)> {
        v.get(key)
            .and_then(json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(json::Value::as_str)
                        .expect("string field")
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_workloads_report() {
        let v = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(listed(&v, "end_to_end"), E2E_METRICS.to_vec());
        assert_eq!(listed(&v, "per_layer"), LAYER_METRICS.to_vec());
    }
}
