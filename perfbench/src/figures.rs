//! The three sweep workloads: `figures_cold`, `figures_warm` and
//! `figures_observed`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use syncperf_core::obs::{self, Recorder};

use crate::span::Tracer;
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::sweep::{self, Reference, SweepRun};
use crate::{fresh_dir, Opts, Report};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Engine executions sampled per replayed sweep.
const ENGINE_SAMPLES: usize = 64;
/// Distinct jobs in the differential's 2N batch.
const DIFF_JOBS: usize = 64;
const DIFF_REPS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing cached: every job of every sweep executes.
    Cold,
    /// Cache filled during set-up: every job hits.
    Warm,
    /// Cold, under the global recorder that `--cache-stats`/`--metrics`
    /// install.
    Observed,
}

/// Per-sweep observations beyond the sweep's own report.
struct Done {
    run: SweepRun,
    out_bytes: u64,
    entries: u64,
    cache_bytes: u64,
    events: u64,
    dropped: u64,
}

struct Workload<'a> {
    kind: Kind,
    scratch: &'a Path,
    reference: Reference,
    /// The last set-up tree: the warm cache, and the source of the
    /// captured job stream.
    src: PathBuf,
    dropped_before: u64,
}

impl Workload<'_> {
    /// Whether sweeps consult a cache: only the warm workload's does.
    fn cached(&self) -> bool {
        self.kind == Kind::Warm
    }

    /// The tree a sweep writes: the warm cache's, or one results tree
    /// the cacheless sweeps rewrite, as a researcher regenerates into
    /// the same `results/`.
    fn tree(&self) -> PathBuf {
        match self.kind {
            Kind::Warm => self.src.clone(),
            _ => self.scratch.join("work"),
        }
    }

    /// Runs and checks one sweep; a failure is counted, not returned.
    fn one(&mut self, t: &mut Tracer, report: &mut Report) -> Option<Done> {
        report.attempted += 1;
        let tree = self.tree();
        let done = (|| -> Result<Done, String> {
            let run = sweep::sweep(t, &tree, self.cached())?;
            let results = tree.join("results");
            let out_bytes = self.reference.check(&results)?;
            let cache = syncperf_sched::Cache::new(results.join(".cache"));
            let rec = obs::global();
            let events = rec.drain_events().len() as u64;
            let dropped = rec.dropped_events();
            let done = Done {
                run,
                out_bytes,
                entries: cache.hashes().len() as u64,
                cache_bytes: cache.total_bytes(),
                events,
                dropped: dropped - self.dropped_before,
            };
            self.dropped_before = dropped;
            Ok(done)
        })();
        done.map_err(|e| report.fail(e)).ok()
    }

    /// Sweeps until `deadline` (at least one).
    fn until(&mut self, deadline: Instant, t: &mut Tracer, report: &mut Report) -> Vec<Done> {
        let mut out = Vec::new();
        loop {
            out.extend(self.one(t, report));
            report.mark_rss();
            if Instant::now() >= deadline {
                return out;
            }
        }
    }
}

pub fn run(kind: Kind, opts: &Opts, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let reference = Reference::load();
    let mut off = Tracer::new(false, Instant::now());
    let mut setup = Vec::new();
    // Set-up warms the process with a checked sweep. Only the warm
    // workload needs the cache it fills; the others sweep without one,
    // so their set-up does not hinge on creating 3k cache files.
    for i in 0..SETUP_REPS {
        let start = Instant::now();
        let tree = fresh_dir(&scratch.join(format!("setup{i}")))?;
        sweep::sweep(&mut off, &tree, kind == Kind::Warm)?;
        reference.check(&tree.join("results"))?;
        setup.push(start.elapsed().as_secs_f64());
    }
    report.e2e("setup_s", median(&setup));
    let src = scratch.join(format!("setup{}", SETUP_REPS - 1));
    if opts.trace && kind != Kind::Warm {
        // The replay's source of cached results.
        sweep::sweep(&mut off, &src, true)?;
    }
    if kind == Kind::Observed {
        obs::install(Recorder::enabled());
    }
    let mut w = Workload {
        kind,
        scratch,
        reference,
        src,
        dropped_before: obs::global().dropped_events(),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        traced(&mut w, opts, end, report)
    } else {
        let done = w.until(end, &mut off, report);
        let ms: Vec<f64> = done.iter().map(|d| d.run.ms).collect();
        let cpu_ms: Vec<f64> = done.iter().map(|d| d.run.cpu_ms).collect();
        let pct = tail_percentile(ms.len());
        report.e2e("cpu_ms_per_op", median(&cpu_ms));
        report.note(format!(
            "sweep_ms_p50 {:.3} ms; sweep_ms_tail p{pct} {:.3} ms over {} sweeps; \
             {:.3} sweeps/s; cpu_ms_per_sweep p50 {:.3} ms",
            median(&ms),
            percentile(&ms, pct),
            ms.len(),
            1e3 * ms.len() as f64 / ms.iter().sum::<f64>(),
            median(&cpu_ms)
        ));
        Ok(())
    }
}

fn traced(w: &mut Workload, opts: &Opts, end: Instant, report: &mut Report) -> Result<(), String> {
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut t = Tracer::new(true, origin);
    let untraced_end = origin + (end - origin) / 4;
    let plain: Vec<f64> = w
        .until(untraced_end, &mut off, report)
        .iter()
        .map(|d| d.run.ms)
        .collect();
    report.wall(&plain, 1.0);

    let cap = sweep::capture(
        &w.src.join("results").join(".cache"),
        &fresh_dir(&w.scratch.join("capture"))?,
    )?;
    let misses_hint = cap.results.len().max(1);
    let every = (misses_hint / ENGINE_SAMPLES).max(1);
    let mut rng = syncperf_load::Rng::new(opts.seed);

    let mut done = Vec::new();
    let mut counts = Vec::new();
    let mut k = 0u64;
    loop {
        k += 1;
        t.begin_trace(2 * k);
        if let Some(d) = w.one(&mut t, report) {
            t.begin_trace(2 * k + 1);
            let dir = match w.kind {
                Kind::Warm => w.src.join("results").join(".cache"),
                _ => fresh_dir(&w.scratch.join("replay"))?,
            };
            let cached = w.cached();
            let n = sweep::replay(&mut t, &cap, &dir, cached, every, rng.below(every));
            report.attempted += 1;
            let s = &d.run.stats;
            // Without a cache the scheduler counts no misses, only
            // executions.
            let misses = if cached { s.cache_misses } else { s.executed };
            if n.mismatches > 0 || n.jobs != s.jobs || n.hits != s.cache_hits || n.misses != misses
            {
                report.fail(format!("replay disagrees with the sweep: {n:?} vs {s:?}"));
            }
            done.push(d);
            counts.push(n);
        }
        if Instant::now() >= end {
            break;
        }
    }
    if done.is_empty() {
        return Err("no traced sweep succeeded".into());
    }

    let diff_dir = fresh_dir(&w.scratch.join("differential"))?;
    t.begin_trace(0);
    for (tag, same) in [("primed", true), ("mixed", false)] {
        let jobs = sweep::differential_jobs(same, DIFF_JOBS, opts.seed);
        let d = sweep::differential(&mut t, &jobs, &diff_dir, DIFF_REPS)?;
        report.layer(&format!("sched.run_jobs_fixed_us.{tag}"), d.fixed_us);
        report.layer(&format!("sched.run_jobs_marginal_us.{tag}"), d.marginal_us);
    }

    let traced_ms: Vec<f64> = done.iter().map(|d| d.run.ms).collect();
    report.layer(
        "trace.overhead_ratio",
        median(&traced_ms) / median(&plain) - 1.0,
    );
    ledger(&t, &done, &counts, report);
    t.write_jsonl(
        &w.scratch
            .parent()
            .unwrap_or(w.scratch)
            .join(format!("spans-{}.jsonl", opts.workload)),
    )
    .map_err(|e| format!("write spans: {e}"))?;
    report.ledger = Some(t);
    Ok(())
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

fn per_sweep_ms(t: &Tracer, name: &str) -> f64 {
    let v: Vec<f64> = t
        .per_trace_ns(name)
        .values()
        .map(|&n| n as f64 / 1e6)
        .collect();
    median(&v)
}

/// The per-layer figures of the traced sweeps and their replays.
fn ledger(t: &Tracer, done: &[Done], counts: &[sweep::ReplayCounts], report: &mut Report) {
    let per = |f: &dyn Fn(&Done) -> f64| median(&done.iter().map(f).collect::<Vec<_>>());
    let cnt = |f: &dyn Fn(&sweep::ReplayCounts) -> u64| {
        mean(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let total_ns = |name: &str| t.durations(name).iter().sum::<u64>() as f64;
    let mean_us = |name: &str| mean(&us(&t.durations(name)));

    report.layer("bench.generate_ms", per_sweep_ms(t, "bench.generate"));
    report.layer("bench.render_ms", per_sweep_ms(t, "bench.render"));
    report.layer(
        "bench.render_bytes",
        per(&|d| (d.run.text_bytes + d.out_bytes) as f64),
    );
    report.layer("sched.finish_ms", per_sweep_ms(t, "sched.finish"));

    let jobs: u64 = counts.iter().map(|c| c.jobs).sum();
    report.layer("sched.jobs", cnt(&|c| c.jobs));
    report.layer("sched.run_jobs_calls", cnt(&|c| c.calls));
    report.layer("sched.hash_ns", total_ns("sched.hash") / jobs.max(1) as f64);
    report.layer("sched.executed", per(&|d| d.run.stats.executed as f64));

    // Grouping and batch evaluation, and cache loads, are timed by the
    // scheduler in place; the replay times `batch_prime` per point on
    // the groups of its engine samples.
    let primed: u64 = counts.iter().map(|c| c.primed_points).sum();
    report.layer(
        "sched.plan.batches",
        per(&|d| d.run.stats.plan_batches as f64),
    );
    report.layer(
        "sched.plan.batch_points",
        per(&|d| d.run.stats.plan_batch_points as f64),
    );
    report.layer(
        "sched.plan.compile_us",
        per(&|d| d.run.stats.plan_compile_us as f64),
    );
    report.layer(
        "sched.plan.prime_us_per_point",
        if primed == 0 {
            0.0
        } else {
            total_ns("sched.plan.prime") / 1e3 / primed as f64
        },
    );
    // Primed jobs over executed ones: the misses, cache or no cache.
    let executed: u64 = done.iter().map(|d| d.run.stats.executed).sum();
    let primed_jobs: u64 = done.iter().map(|d| d.run.stats.plan_primed_jobs).sum();
    report.layer(
        "sched.plan.primed_ratio",
        if executed == 0 {
            0.0
        } else {
            primed_jobs as f64 / executed as f64
        },
    );

    for name in [
        "cpu_sim.primed",
        "gpu_sim.primed",
        "cpu_sim.single",
        "gpu_sim.single",
    ] {
        report.layer(&format!("{name}_us"), mean_us(name));
    }
    report.layer(
        "sched.service_miss_us_p50",
        per(&|d| d.run.stats.service_miss_us_p50 as f64),
    );
    report.layer(
        "sched.service_miss_us_p99",
        per(&|d| d.run.stats.service_miss_us_p99 as f64),
    );
    report.layer("sched.retries", per(&|d| d.run.stats.retries as f64));

    report.layer("sched.cache.loads", cnt(&|c| c.hits));
    report.layer("sched.cache.stores", cnt(&|c| c.stores));
    report.layer(
        "sched.cache.load_us_p50",
        per(&|d| d.run.stats.service_hit_us_p50 as f64),
    );
    report.layer(
        "sched.cache.load_us_p99",
        per(&|d| d.run.stats.service_hit_us_p99 as f64),
    );
    report.layer("sched.cache.decode_us", mean_us("sched.cache.decode"));
    report.layer("sched.cache.scan_ms", per_sweep_ms(t, "sched.cache.scan"));
    report.layer("sched.cache.store_us", mean_us("sched.cache.store"));
    report.layer("sched.cache.encode_us", mean_us("sched.cache.encode"));
    report.layer("sched.cache.hit_ratio", per(&|d| d.run.stats.hit_rate()));
    report.layer("sched.cache.entries", per(&|d| d.entries as f64));
    report.layer("sched.cache.bytes", per(&|d| d.cache_bytes as f64));

    report.layer(
        "sched.checkpoint.save_us",
        1e3 * per_sweep_ms(t, "sched.checkpoint.save"),
    );
    report.layer(
        "sched.pool.wait_us_p50",
        per(&|d| d.run.stats.wait_us_p50 as f64),
    );
    report.layer(
        "sched.pool.wait_us_p99",
        per(&|d| d.run.stats.wait_us_p99 as f64),
    );
    report.layer(
        "sched.pool.busy_ratio",
        per(&|d| {
            let busy: u64 = d.run.workers.iter().map(|w| w.busy_ns).sum();
            busy as f64 / (d.run.effective_workers as f64 * d.run.generate_ns.max(1) as f64)
        }),
    );
    report.layer("sched.pool.steals", per(&|d| d.run.stats.steals as f64));
    report.layer(
        "sched.pool.queue_depth_peak",
        per(&|d| d.run.stats.queue_depth_peak as f64),
    );

    report.layer(
        "obs.events",
        mean(&done.iter().map(|d| d.events as f64).collect::<Vec<_>>()),
    );
    report.layer(
        "obs.events_dropped",
        mean(&done.iter().map(|d| d.dropped as f64).collect::<Vec<_>>()),
    );
}
