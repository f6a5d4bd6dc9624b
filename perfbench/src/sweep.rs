//! One full paper regeneration through the public crates, the layer
//! replay of a sweep's job stream, and the scheduler's differential.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use syncperf_core::{kernel, DType, ExecParams, FigureData, Measurement, SYSTEM3};
use syncperf_sched::job::CanonicalCache;
use syncperf_sched::{
    decode_measurement, encode_measurement, BackendExec, Cache, Checkpoint, JobSpec,
    PoolWorkerStats, SchedConfig, SchedStats, Scheduler, SCHED_SALT,
};

use crate::span::Tracer;

/// Pool workers per sweep: the machine-sized `--jobs 2` regeneration.
pub const WORKERS: usize = 2;

/// Digest (length, FNV-1a 64) of every CSV/SVG the scheduler path
/// emits, recorded from a cold `all_figures` sweep on this tree.
const REFERENCE: &str = include_str!("../reference.txt");

/// The expected output set, keyed by file name.
#[derive(Debug)]
pub struct Reference(BTreeMap<String, (u64, u64)>);

fn digest(bytes: &[u8]) -> (u64, u64) {
    (bytes.len() as u64, syncperf_sched::hash::fnv1a(bytes))
}

/// Digests of the `.csv`/`.svg` files in `dir`, keyed by file name.
fn digest_dir(dir: &Path) -> Result<BTreeMap<String, (u64, u64)>, String> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") || name.ends_with(".svg") {
            let bytes = std::fs::read(e.path()).map_err(|e| format!("read {name}: {e}"))?;
            out.insert(name, digest(&bytes));
        }
    }
    Ok(out)
}

impl Reference {
    pub fn load() -> Self {
        let mut files = BTreeMap::new();
        for line in REFERENCE.lines().filter(|l| !l.starts_with('#')) {
            let mut it = line.split_whitespace();
            if let (Some(name), Some(len), Some(hash)) = (it.next(), it.next(), it.next()) {
                if let (Ok(len), Some(hash)) =
                    (len.parse(), syncperf_sched::hash::parse_hex16(hash))
                {
                    files.insert(name.to_string(), (len, hash));
                }
            }
        }
        Reference(files)
    }

    /// The reference line format for the outputs in `dir`.
    pub fn render(dir: &Path) -> Result<String, String> {
        let mut out = String::from(
            "# <file> <bytes> <fnv1a64>: outputs of a cold all_figures sweep on the scheduler path\n",
        );
        for (name, (len, hash)) in digest_dir(dir)? {
            out.push_str(&format!(
                "{name} {len} {}\n",
                syncperf_sched::hash::hex16(hash)
            ));
        }
        Ok(out)
    }

    pub fn matches(&self, file: &str, bytes: &[u8]) -> bool {
        self.0.get(file) == Some(&digest(bytes))
    }

    /// Checks that `dir` holds exactly the reference outputs, byte for
    /// byte; returns their total size.
    pub fn check(&self, dir: &Path) -> Result<u64, String> {
        if self.0.is_empty() {
            return Err("reference digest set is empty".into());
        }
        let got = digest_dir(dir)?;
        for (name, want) in &self.0 {
            match got.get(name) {
                None => return Err(format!("{name}: not emitted")),
                Some(d) if d != want => return Err(format!("{name}: bytes differ from reference")),
                Some(_) => {}
            }
        }
        if let Some(extra) = got.keys().find(|k| !self.0.contains_key(*k)) {
            return Err(format!("{extra}: emitted but not in the reference"));
        }
        Ok(got.values().map(|d| d.0).sum())
    }
}

/// What one sweep reports about itself.
#[derive(Debug)]
pub struct SweepRun {
    pub ms: f64,
    /// CPU time of the whole process over the sweep, pool threads
    /// included.
    pub cpu_ms: f64,
    pub generate_ns: u64,
    /// Bytes of the rendered tables and ASCII charts (the CSV/SVG
    /// bytes are counted by [`Reference::check`]).
    pub text_bytes: u64,
    pub ids: Vec<String>,
    pub stats: SchedStats,
    pub workers: Vec<PoolWorkerStats>,
    pub effective_workers: usize,
}

/// Renders every figure the way `emit` does, without printing: table
/// and ASCII chart to memory, CSV and SVG to `dir`.
fn render(figs: &[FigureData], dir: &Path) -> syncperf_core::Result<u64> {
    let mut bytes = 0u64;
    for fig in figs {
        let table = std::hint::black_box(fig.render_table());
        let chart = std::hint::black_box(fig.render_ascii(72, 14));
        bytes += (table.len() + chart.len()) as u64;
        fig.write_csv(dir)?;
        fig.write_svg(dir)?;
    }
    Ok(bytes)
}

/// One full regeneration into `tree/results` with its cache at
/// `tree/results/.cache`: a fresh 2-worker scheduler, `all_figures`,
/// rendering, and the checkpoint finish. Without `cache` every job
/// executes and nothing is stored (the `--no-cache` run).
pub fn sweep(t: &mut Tracer, tree: &Path, cache: bool) -> Result<SweepRun, String> {
    let results = tree.join("results");
    let start = Instant::now();
    let cpu_start = crate::process_cpu_ns();
    t.enter("sweep");
    let mut cfg = SchedConfig::new(WORKERS)
        .with_cache_dir(results.join(".cache"))
        .with_label("all_figures");
    if !cache {
        cfg = cfg.without_cache();
    }
    let sched = syncperf_sched::install(Scheduler::new(cfg));
    t.enter("bench.generate");
    let generated = syncperf_bench::all_figures();
    let generate_ns = start.elapsed().as_nanos() as u64;
    t.exit();
    let rendered = generated.and_then(|figs| {
        t.enter("bench.render");
        let r = render(&figs, &results).map(|b| (b, figs));
        t.exit();
        r
    });
    if rendered.is_ok() {
        t.span("sched.finish", || sched.finish());
    }
    t.exit();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    syncperf_sched::uninstall();
    let cpu_ms = (crate::process_cpu_ns() - cpu_start) as f64 / 1e6;
    let (text_bytes, figs) = rendered.map_err(|e| format!("sweep failed: {e}"))?;
    Ok(SweepRun {
        ms,
        cpu_ms,
        generate_ns,
        text_bytes,
        ids: figs.into_iter().map(|f| f.id).collect(),
        stats: sched.stats(),
        workers: sched.worker_stats(),
        effective_workers: sched.effective_workers(),
    })
}

/// The job stream of one sweep, as `Scheduler::run_jobs` saw it, with
/// each job's cached result.
#[derive(Debug, Default)]
pub struct Captured {
    pub batches: Vec<Vec<(JobSpec, u64)>>,
    pub results: HashMap<u64, Measurement>,
}

/// Records the job stream of one sweep: a cacheless scheduler whose
/// miss backend logs every `run_jobs` batch and answers from the
/// filled cache at `src` (executing only what it lacks).
pub fn capture(src: &Path, scratch: &Path) -> Result<Captured, String> {
    let log: Arc<Mutex<Captured>> = Arc::default();
    let cfg = SchedConfig::new(WORKERS)
        .without_cache()
        .with_cache_dir(scratch)
        .with_label("capture");
    let sched = syncperf_sched::install(Scheduler::new(cfg));
    let src = Cache::new(src);
    let sink = Arc::clone(&log);
    sched.set_exec_backend(move |todo| {
        let mut log = sink.lock().expect("capture log lock");
        let mut out = Vec::with_capacity(todo.len());
        for (index, job, hash) in todo {
            let result = match log.results.get(hash) {
                Some(m) => Ok(m.clone()),
                None => src.load(*hash).map_or_else(
                    || syncperf_sched::execute_job_with_retry(job, *hash, |_| {}),
                    Ok,
                ),
            };
            if let Ok(m) = &result {
                log.results.insert(*hash, m.clone());
            }
            out.push(BackendExec {
                index: *index,
                hash: *hash,
                result,
                stored: false,
            });
        }
        log.batches
            .push(todo.iter().map(|(_, j, h)| (j.clone(), *h)).collect());
        out
    });
    let r = syncperf_bench::all_figures();
    syncperf_sched::uninstall();
    sched.clear_exec_backend();
    r.map_err(|e| format!("capture sweep failed: {e}"))?;
    drop(sched);
    let log = Arc::try_unwrap(log).map_err(|_| "capture log still shared".to_string())?;
    Ok(log.into_inner().expect("capture log lock"))
}

/// Work counts of one replayed sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub jobs: u64,
    pub calls: u64,
    pub hits: u64,
    pub misses: u64,
    /// Jobs in the same-shape groups batch-primed for engine samples.
    pub primed_points: u64,
    pub stores: u64,
    pub mismatches: u64,
}

/// Engine span name for a job and path.
fn engine_span(job: &JobSpec, primed: bool) -> Option<&'static str> {
    match (job, primed) {
        (JobSpec::CpuSim { .. }, true) => Some("cpu_sim.primed"),
        (JobSpec::CpuSim { .. }, false) => Some("cpu_sim.single"),
        (JobSpec::GpuSim { .. }, true) => Some("gpu_sim.primed"),
        (JobSpec::GpuSim { .. }, false) => Some("gpu_sim.single"),
        (JobSpec::RealOmp { .. }, _) => None,
    }
}

/// Runs miss `i` of one `run_jobs` batch's miss set on the engine path
/// it takes in a sweep and checks the result against `want`: primed
/// from `JobSpec::batch_prime` of the misses that share its shape, or
/// on its own when it shares its shape with no other miss or a global
/// recorder is live (observed runs keep the interpreter path).
fn sample_engine(
    t: &mut Tracer,
    misses: &[(&JobSpec, u64)],
    i: usize,
    observed: bool,
    want: &Measurement,
    n: &mut ReplayCounts,
) {
    let (job, h) = misses[i];
    let group: Vec<&JobSpec> = misses
        .iter()
        .map(|(j, _)| *j)
        .filter(|j| j.same_shape(job))
        .collect();
    let pe = if group.len() >= 2 && !observed {
        let at = misses[..i]
            .iter()
            .filter(|(j, _)| j.same_shape(job))
            .count();
        n.primed_points += group.len() as u64;
        t.span("sched.plan.prime", || JobSpec::batch_prime(&group))
            .and_then(|engines| engines.into_iter().nth(at))
    } else {
        None
    };
    let Some(name) = engine_span(job, pe.is_some()) else {
        return;
    };
    let got = t.span(name, || match &pe {
        Some(pe) => job.execute_primed(h, pe),
        None => job.execute(h),
    });
    // A result with exhausted runs is retried under another seed by
    // the scheduler; compare the rest.
    match got {
        Ok(m) if m.exhausted_runs > 0 => {}
        Ok(m) if encode_measurement(h, &m) == encode_measurement(h, want) => {}
        _ => n.mismatches += 1,
    }
}

/// Replays one sweep's job stream layer by layer through the public
/// functions the scheduler is built from, against the cache at `dir`
/// (or, unless `cached`, with no cache: every job misses, nothing is
/// scanned, decoded or stored): hashing, the presence scan, decoding
/// of hits, engine execution of one miss in `every` (from `offset`),
/// encode and store of misses, and the checkpoint. Replayed hashes and
/// engine results are checked against the captured ones. What the
/// scheduler times in place (cache loads, plan grouping) is taken from
/// its own `Scheduler::stats`, not from here.
pub fn replay(
    t: &mut Tracer,
    cap: &Captured,
    dir: &Path,
    cached: bool,
    every: usize,
    offset: usize,
) -> ReplayCounts {
    let mut n = ReplayCounts::default();
    let observed = syncperf_core::obs::global().is_enabled();
    let cache = Cache::new(dir);
    let salt_line = format!("salt={SCHED_SALT}/0\n");
    t.enter("replay");
    let mut present: HashSet<u64> = if cached {
        t.span("sched.cache.scan", || cache.hashes())
            .into_iter()
            .collect()
    } else {
        HashSet::new()
    };
    let mut done = Vec::new();
    let mut miss_no = 0usize;
    for batch in &cap.batches {
        n.calls += 1;
        n.jobs += batch.len() as u64;
        let mut canon = CanonicalCache::default();
        let hashes: Vec<u64> = t.span("sched.hash", || {
            batch
                .iter()
                .map(|(job, _)| job.hash_with(&mut canon, &salt_line))
                .collect()
        });
        if hashes.iter().zip(batch).any(|(h, (_, want))| h != want) {
            n.mismatches += 1;
        }
        let mut misses = Vec::new();
        for (job, h) in batch {
            if present.contains(h) {
                let text = std::fs::read_to_string(cache.entry_path(*h)).unwrap_or_default();
                let hit = t.span("sched.cache.decode", || decode_measurement(*h, &text));
                if hit.is_some_and(|m| m.kernel_name == job.kernel_name()) {
                    n.hits += 1;
                    done.push(*h);
                    continue;
                }
                n.mismatches += 1;
            }
            misses.push((job, *h));
        }
        n.misses += misses.len() as u64;

        for (i, &(_, h)) in misses.iter().enumerate() {
            let Some(want) = cap.results.get(&h) else {
                n.mismatches += 1;
                continue;
            };
            if (miss_no + offset).is_multiple_of(every) {
                sample_engine(t, &misses, i, observed, want, &mut n);
            }
            miss_no += 1;
            done.push(h);
            if !cached {
                continue;
            }
            std::hint::black_box(t.span("sched.cache.encode", || encode_measurement(h, want)));
            if t.span("sched.cache.store", || cache.store(h, want))
                .is_err()
            {
                n.mismatches += 1;
            }
            n.stores += 1;
        }
        if cached {
            present.extend(misses.iter().map(|(_, h)| *h));
        }
    }
    let mut cp = Checkpoint::fresh(dir, "replay");
    t.span("sched.checkpoint.record", || {
        for h in done {
            cp.record(h);
        }
    });
    if t.span("sched.checkpoint.save", || {
        cp.finish();
        std::fs::metadata(Checkpoint::path_for(dir, "replay"))
    })
    .is_err()
    {
        n.mismatches += 1;
    }
    t.exit();
    n
}

/// Fixed and marginal cost of one `Scheduler::run_jobs` call, from
/// batches of N and 2N distinct fresh jobs:
/// marginal = (t₂ₙ − tₙ) / N and fixed = tₙ − N · marginal.
#[derive(Debug, Default, Clone, Copy)]
pub struct Differential {
    pub fixed_us: f64,
    pub marginal_us: f64,
}

/// Jobs for the differential. `same_shape` gives one kernel at 2N
/// distinct (threads, blocks) points, which share a shape and take
/// the batch-primed path; otherwise every job has its own loop count,
/// so no two share a shape and none is primed.
pub fn differential_jobs(same_shape: bool, n2: usize, seed: u64) -> Vec<JobSpec> {
    let system = &SYSTEM3;
    let protocol = syncperf_bench::common::protocol();
    if same_shape {
        let k = kernel::cuda_atomic_add_scalar(DType::I32);
        let mut points: Vec<(u32, u32)> = (1..=32)
            .flat_map(|t| [1, 2, 4, 8].map(|b| (32 * t, b)))
            .collect();
        crate::stats::shuffle(&mut points, &mut syncperf_load::Rng::new(seed));
        points
            .into_iter()
            .take(n2)
            .map(|(threads, blocks)| {
                JobSpec::gpu_sim(
                    system,
                    k.clone(),
                    syncperf_bench::common::paper_loops(threads).with_blocks(blocks),
                    protocol,
                )
            })
            .collect()
    } else {
        (0..n2 as u32)
            .map(|i| {
                // Figure-sized loops, each count its own shape.
                let loops = |threads| ExecParams::new(threads).with_loops(1000 + i, 100);
                if i % 2 == 0 {
                    JobSpec::cpu_sim(
                        system,
                        kernel::omp_atomic_update_scalar(DType::I32),
                        loops(8),
                        protocol,
                    )
                } else {
                    JobSpec::gpu_sim(
                        system,
                        kernel::cuda_atomic_add_scalar(DType::I32),
                        loops(256),
                        protocol,
                    )
                }
            })
            .collect()
    }
}

/// Times `run_jobs` on every other job of `jobs` (N of them) and on
/// all 2N, each on a fresh scheduler over an empty cache, `reps` times
/// alternating; returns the differential over the medians.
pub fn differential(
    t: &mut Tracer,
    jobs: &[JobSpec],
    dir: &Path,
    reps: usize,
) -> Result<Differential, String> {
    let half: Vec<JobSpec> = jobs.iter().step_by(2).cloned().collect();
    let all = jobs.to_vec();
    let n = half.len() as f64;
    let (mut tn, mut t2n) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        for (set, out, name) in [
            (&half, &mut tn, "sched.run_jobs.n"),
            (&all, &mut t2n, "sched.run_jobs.2n"),
        ] {
            let cache = dir.join(format!("diff-{rep}-{}", set.len()));
            let _ = std::fs::remove_dir_all(&cache);
            let sched = Scheduler::new(
                SchedConfig::new(WORKERS)
                    .with_cache_dir(&cache)
                    .with_label("differential"),
            );
            let batch = set.clone();
            let start = Instant::now();
            let r = t.span(name, || sched.run_jobs(batch));
            out.push(start.elapsed().as_secs_f64() * 1e6);
            r.map_err(|e| format!("differential batch failed: {e}"))?;
            let _ = std::fs::remove_dir_all(&cache);
        }
    }
    let (a, b) = (crate::stats::median(&tn), crate::stats::median(&t2n));
    let marginal_us = (b - a) / n;
    Ok(Differential {
        fixed_us: a - n * marginal_us,
        marginal_us,
    })
}
