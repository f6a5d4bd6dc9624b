//! The `serve_mixed` workload: an open loop of mixed requests against
//! an in-process `syncperf_serve::Server` with the `serve` binary's
//! defaults, over a cache and results directory filled by one cold
//! figure sweep.
//!
//! Each of the [`CONNS`] keep-alive connections sends on its own fixed
//! schedule, and every request is timed from when it was due, so a
//! stall shows in the requests queued behind it. A nominal rate gives
//! the latency figures; a ladder of rising rates gives the goodput,
//! the highest rate whose p99 meets [`LIMIT_P99_MS`] with no failure
//! and no growing backlog.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use syncperf_bench::codes::{kernel_inventory, AnyKernel};
use syncperf_bench::serving;
use syncperf_core::obs::{self, Recorder};
use syncperf_load::Rng;
use syncperf_sched::{encode_measurement, hash::parse_hex16, Cache, SchedConfig, Scheduler};
use syncperf_serve::{ComputeRequest, Index, Query, Response, ServeConfig, ServeStats, Server};

use crate::http::{request_bytes, Conn};
use crate::span::Tracer;
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::sweep::{self, Reference};
use crate::{fresh_dir, Opts, Report};

/// Client connections: one per core of the reference machine.
const CONNS: usize = 2;
const SETUP_REPS: usize = 5;
/// The nominal rate, requests per second over all connections, and
/// the share of the run spent at it; the rest saturates the server.
const NOMINAL_RPS: f64 = 400.0;
const NOMINAL_SHARE: f64 = 0.5;
/// Shares of the traced run at the nominal rate with tracing off, then
/// on; the rest searches the ladder.
const TRACED_SHARE: f64 = 0.3;
/// The ladder: rung `k` offers `NOMINAL_RPS * LADDER_STEP^k`. The
/// search starts at rung [`LADDER_FIRST`], climbs [`LADDER_JUMP`] rungs
/// at a time until a rung fails, then bisects between the highest rung
/// that passed and the lowest that failed.
const LADDER_STEP: f64 = 1.08;
const LADDER_FIRST: i32 = 18;
const LADDER_JUMP: i32 = 8;
const RUNG_SECS: f64 = 1.0;
/// The latency limit a ladder rung's p99 must meet. It sits above the
/// stalls a lightly loaded server shows (index re-scans, compute
/// misses), so the rung that fails is the one the server cannot keep
/// up with.
const LIMIT_P99_MS: f64 = 50.0;
/// Compute-miss answers re-run through a fresh `Scheduler::measure`.
const MISS_CHECKS: usize = 16;
const WARMUP_REQUESTS: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ep {
    Job,
    Query,
    Figure,
    ComputeHit,
    ComputeMiss,
    Stats,
    Metrics,
}

/// The mix, in requests per thousand: `syncperf-load`'s profile (40%
/// hash lookups, 25% queries, 10% figures, 10% computes, 10% `/stats`,
/// 5% `/metrics`), with one compute in ten a miss.
const MIX: [(Ep, u32); 7] = [
    (Ep::Job, 400),
    (Ep::Query, 250),
    (Ep::Figure, 100),
    (Ep::ComputeHit, 90),
    (Ep::ComputeMiss, 10),
    (Ep::Stats, 100),
    (Ep::Metrics, 50),
];

impl Ep {
    const ALL: [Ep; 7] = [
        Ep::Job,
        Ep::Query,
        Ep::Figure,
        Ep::ComputeHit,
        Ep::ComputeMiss,
        Ep::Stats,
        Ep::Metrics,
    ];

    fn span(self) -> &'static str {
        match self {
            Ep::Job => "serve.job",
            Ep::Query => "serve.query",
            Ep::Figure => "serve.figure",
            Ep::ComputeHit => "serve.compute_hit",
            Ep::ComputeMiss => "serve.compute_miss",
            Ep::Stats => "serve.stats",
            Ep::Metrics => "serve.metrics",
        }
    }
}

/// Compute-miss points: every kernel of the inventory at small thread
/// counts and loop shapes no figure uses (figures run 1000 × 100), so
/// each is a cache miss; index `i` maps to a distinct point through a
/// seeded affine permutation.
#[derive(Debug)]
struct MissPoints {
    kernels: Vec<(&'static str, String)>,
    mul: usize,
    add: usize,
}

const MISS_THREADS_CPU: [u32; 6] = [2, 3, 4, 6, 8, 12];
const MISS_THREADS_GPU: [u32; 6] = [32, 64, 96, 128, 192, 256];
const MISS_LOOPS: usize = 4000;

fn miss_body(executor: &str, kernel: &str, t: usize, n_iter: usize, n_unroll: usize) -> String {
    if executor == "gpu-sim" {
        format!(
            "{{\"executor\": \"gpu-sim\", \"kernel\": \"{kernel}\", \"threads\": {}, \
             \"blocks\": 2, \"n_iter\": {n_iter}, \"n_unroll\": {n_unroll}}}",
            MISS_THREADS_GPU[t]
        )
    } else {
        format!(
            "{{\"executor\": \"cpu-sim\", \"kernel\": \"{kernel}\", \"threads\": {}, \
             \"n_iter\": {n_iter}, \"n_unroll\": {n_unroll}}}",
            MISS_THREADS_CPU[t]
        )
    }
}

fn accepted(body: &str) -> bool {
    ComputeRequest::from_json(body)
        .ok()
        .and_then(|r| serving::resolve(&r))
        .is_some()
}

impl MissPoints {
    fn new(seed: u64) -> Self {
        let mut kernels: Vec<(&'static str, String)> = kernel_inventory()
            .into_iter()
            .map(|k| {
                let executor = match k.kernel {
                    AnyKernel::Cpu(_) => "cpu-sim",
                    AnyKernel::Gpu(_) => "gpu-sim",
                };
                (executor, k.kernel.name().to_string())
            })
            .collect();
        kernels.sort();
        kernels.dedup();
        // Keep the kernels the service accepts at every thread count.
        kernels.retain(|(e, k)| {
            (0..MISS_THREADS_CPU.len()).all(|t| accepted(&miss_body(e, k, t, 20, 2)))
        });
        let mut rng = Rng::new(seed ^ 0x6d69_7373);
        let space = kernels.len() * MISS_THREADS_CPU.len() * MISS_LOOPS;
        let mul = loop {
            let m = 1 + rng.below(space - 1);
            if gcd(m, space) == 1 {
                break m;
            }
        };
        MissPoints {
            kernels,
            mul,
            add: rng.below(space),
        }
    }

    /// The request body of point `i`.
    fn body(&self, i: usize) -> String {
        let space = self.kernels.len() * MISS_THREADS_CPU.len() * MISS_LOOPS;
        let mut x = (i.wrapping_mul(self.mul) + self.add) % space;
        let loops = x % MISS_LOOPS;
        x /= MISS_LOOPS;
        let (executor, kernel) = &self.kernels[x / MISS_THREADS_CPU.len()];
        miss_body(
            executor,
            kernel,
            x % MISS_THREADS_CPU.len(),
            20 + loops % 1000,
            2 + loops / 1000,
        )
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The generated request set, drawn from what set-up emitted.
#[derive(Debug)]
struct Inputs {
    jobs: Vec<Vec<u8>>,
    queries: Vec<Vec<u8>>,
    figures: Vec<Vec<u8>>,
    hits: Vec<Vec<u8>>,
    misses: MissPoints,
    /// Next compute-miss point; shared so no point is asked twice.
    miss_next: AtomicUsize,
}

impl Inputs {
    fn build(cache: &Cache, ids: &[String], seed: u64) -> Result<Inputs, String> {
        let mut hashes = cache.hashes();
        hashes.sort_unstable();
        let mut queries = Vec::new();
        for &h in hashes.iter().step_by(7) {
            let m = cache.load(h).ok_or("unreadable cache entry")?;
            let mut q = format!(
                "/query?kernel={}&threads={}",
                m.kernel_name, m.params.threads
            );
            if m.params.blocks != 1 {
                q.push_str(&format!("&blocks={}", m.params.blocks));
            }
            queries.push(request_bytes("GET", &q, ""));
        }
        let present: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        let mut hits = Vec::new();
        for k in kernel_inventory() {
            let (executor, threads): (&str, Vec<u32>) = match &k.kernel {
                AnyKernel::Cpu(_) => ("cpu-sim", (1..=32).collect()),
                AnyKernel::Gpu(_) => ("gpu-sim", (0..=10).map(|p| 1 << p).collect()),
            };
            for t in threads {
                let body = format!(
                    "{{\"executor\": \"{executor}\", \"kernel\": \"{}\", \"threads\": {t}}}",
                    k.kernel.name()
                );
                let req = ComputeRequest::from_json(&body).map_err(|e| e.to_string())?;
                if let Some(job) = serving::resolve(&req) {
                    if present.contains(&syncperf_sched::job_hash_with_salt(&job, 0)) {
                        hits.push(request_bytes("POST", "/compute", &body));
                    }
                }
            }
        }
        if hits.is_empty() || queries.is_empty() || ids.is_empty() {
            return Err("set-up emitted nothing to ask for".into());
        }
        let figures = ids
            .iter()
            .flat_map(|id| {
                ["csv", "svg"].map(|ext| request_bytes("GET", &format!("/figure/{id}.{ext}"), ""))
            })
            .collect();
        Ok(Inputs {
            jobs: hashes
                .iter()
                .map(|h| {
                    request_bytes(
                        "GET",
                        &format!("/job/{}", syncperf_sched::hash::hex16(*h)),
                        "",
                    )
                })
                .collect(),
            queries,
            figures,
            hits,
            misses: MissPoints::new(seed),
            miss_next: AtomicUsize::new(0),
        })
    }

    /// The next request of the mix.
    fn next(&self, rng: &mut Rng) -> (Ep, Vec<u8>) {
        let mut roll = rng.below(1000) as u32;
        let ep = MIX
            .iter()
            .find(|(_, share)| {
                if roll < *share {
                    true
                } else {
                    roll -= share;
                    false
                }
            })
            .map_or(Ep::Job, |(ep, _)| *ep);
        let pick = |v: &Vec<Vec<u8>>, rng: &mut Rng| v[rng.below(v.len())].clone();
        let req = match ep {
            Ep::Job => pick(&self.jobs, rng),
            Ep::Query => pick(&self.queries, rng),
            Ep::Figure => pick(&self.figures, rng),
            Ep::ComputeHit => pick(&self.hits, rng),
            Ep::Stats => request_bytes("GET", "/stats", ""),
            Ep::Metrics => request_bytes("GET", "/metrics", ""),
            Ep::ComputeMiss => {
                let i = self.miss_next.fetch_add(1, Ordering::Relaxed);
                request_bytes("POST", "/compute", &self.misses.body(i))
            }
        };
        (ep, req)
    }
}

/// What one connection saw in one phase.
#[derive(Debug, Default)]
struct ConnOut {
    /// Latency from due time of each answered request, microseconds.
    samples: Vec<f64>,
    /// Requests still unsent when the phase ended, with how late each
    /// already was, microseconds.
    unsent_late_us: Vec<f64>,
    late_us: Vec<f64>,
    backlog_max: u64,
    /// User-mode CPU time of the connection's own thread.
    client_user_ns: u64,
    scheduled: u64,
    sent: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Answers kept for checking after the timed phases.
#[derive(Debug, Default)]
struct Seen {
    /// First answer per repeated request, by request bytes.
    first: HashMap<Vec<u8>, (Ep, Vec<u8>)>,
    /// Every distinct `/query` answer.
    queries: HashSet<Vec<u8>>,
    /// Every compute-miss (request body, answer).
    misses: Vec<(String, Vec<u8>)>,
    queue_depth_max: f64,
    mismatched: u64,
}

impl Seen {
    fn absorb(&mut self, other: Seen) {
        for (k, v) in other.first {
            match self.first.get(&k) {
                Some(prev) if prev.1 != v.1 => self.mismatched += 1,
                Some(_) => {}
                None => {
                    self.first.insert(k, v);
                }
            }
        }
        self.queries.extend(other.queries);
        self.misses.extend(other.misses);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.mismatched += other.mismatched;
    }

    /// Records a 200 answer; returns false when it differs from an
    /// earlier answer to the same request.
    fn record(&mut self, ep: Ep, req: &[u8], body: Vec<u8>) -> bool {
        match ep {
            Ep::ComputeMiss => {
                let text = String::from_utf8_lossy(req);
                let json = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
                self.misses.push((json, body));
                true
            }
            // A live counter snapshot: it must parse and count requests.
            Ep::Stats => std::str::from_utf8(&body)
                .ok()
                .and_then(|text| obs::json::parse(text).ok())
                .and_then(|v| v.get("serve")?.get("requests")?.as_f64())
                .is_some(),
            Ep::Metrics => {
                let snap = obs::metrics::parse(&String::from_utf8_lossy(&body));
                let depth = snap
                    .gauges
                    .get("sched_queue_depth")
                    .or_else(|| snap.gauges.get("sched.queue_depth"));
                match depth {
                    Some(&d) => {
                        self.queue_depth_max = self.queue_depth_max.max(d as f64);
                        true
                    }
                    None => false,
                }
            }
            // A growing cache may move a nearest-match answer: keep
            // each distinct answer, checked against its cache file.
            Ep::Query => {
                self.queries.insert(body);
                true
            }
            _ => match self.first.get(req) {
                Some((_, prev)) => *prev == body,
                None => {
                    self.first.insert(req.to_vec(), (ep, body));
                    true
                }
            },
        }
    }
}

/// The measurement an answer carries, and its hash.
fn answer_parts(body: &[u8]) -> Option<(u64, &[u8])> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find("\"hash\": \"")? + 9;
    let hash = parse_hex16(text.get(at..at + 16)?)?;
    let m = text.find("\"measurement\": ")? + 15;
    let end = text.strip_suffix("}\n")?.len();
    Some((hash, body.get(m..end)?))
}

/// One connection's loop from `start` to `end`. With a `rate` it is
/// open: requests are due every `1/rate` seconds, the schedule shifted
/// by `offset`, and timed from when they were due. Without one the
/// connection sends back to back, each request timed from its send.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut Conn,
    inputs: &Inputs,
    rng: &mut Rng,
    rate: Option<f64>,
    offset: Duration,
    start: Instant,
    end: Instant,
    t: &mut Tracer,
    seen: &mut Seen,
) -> ConnOut {
    let mut out = ConnOut::default();
    let cpu_start = crate::user_cpu_ns(crate::RUSAGE_THREAD);
    let interval = rate.map(|r| 1.0 / r);
    let first = start + offset;
    let span = end.saturating_duration_since(first).as_secs_f64();
    out.scheduled = interval.map_or(u64::MAX, |i| (span / i).ceil() as u64);
    let mut k = 0u64;
    while k < out.scheduled {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let due = match interval {
            Some(i) => first + Duration::from_secs_f64(k as f64 * i),
            None => now,
        };
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if let Some(i) = interval {
            let behind = (sent.saturating_duration_since(first).as_secs_f64() / i) as u64;
            out.backlog_max = out.backlog_max.max(behind.saturating_sub(k));
            out.late_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
        }
        let (ep, req) = inputs.next(rng);
        t.begin_trace(rng.next_u64());
        t.enter(ep.span());
        let r = conn.send(&req);
        t.exit();
        let done = Instant::now();
        out.sent += 1;
        k += 1;
        let ok = match r {
            Ok((200, body)) => {
                seen.record(ep, &req, body) || {
                    out.problems
                        .push(format!("{ep:?}: answer differs from the expected"));
                    false
                }
            }
            Ok((status, body)) => {
                out.problems.push(format!(
                    "{ep:?}: status {status}: {}",
                    String::from_utf8_lossy(&body).trim()
                ));
                false
            }
            Err(e) => {
                out.problems.push(format!("{ep:?}: {e}"));
                false
            }
        };
        if ok {
            out.samples
                .push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
        } else {
            out.failed += 1;
        }
    }
    out.client_user_ns = crate::user_cpu_ns(crate::RUSAGE_THREAD) - cpu_start;
    let Some(interval) = interval else {
        out.scheduled = out.sent;
        return out;
    };
    let stop = Instant::now().max(end);
    out.unsent_late_us = (k..out.scheduled)
        .map(|j| {
            let due = first + Duration::from_secs_f64(j as f64 * interval);
            stop.saturating_duration_since(due).as_secs_f64() * 1e6
        })
        .collect();
    out
}

/// The serving state: server, its scheduler and recorder, the tree.
struct Served {
    server: Server,
    sched: Arc<Scheduler>,
    recorder: Recorder,
    tree: PathBuf,
    inputs: Inputs,
    conns: Vec<Conn>,
    rngs: Vec<Rng>,
    seen: Seen,
}

impl Served {
    fn start(tree: &Path, ids: &[String], seed: u64) -> Result<Served, String> {
        let cache_dir = tree.join("results").join(".cache");
        let sched = Arc::new(Scheduler::new(
            SchedConfig::new(2)
                .with_cache_dir(&cache_dir)
                .with_label("serve"),
        ));
        let mut cfg = ServeConfig::new(Arc::clone(&sched), serving::default_resolver());
        cfg.results_dir = tree.join("results");
        cfg.cache_bytes = None;
        let recorder = cfg.recorder.clone();
        let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
        let inputs = Inputs::build(&Cache::new(&cache_dir), ids, seed)?;
        let addr: SocketAddr = server.addr();
        Ok(Served {
            server,
            sched,
            recorder,
            tree: tree.to_path_buf(),
            inputs,
            conns: (0..CONNS).map(|_| Conn::new(addr)).collect(),
            rngs: (0..CONNS as u64)
                .map(|c| Rng::new(seed.wrapping_add(c << 32)))
                .collect(),
            seen: Seen::default(),
        })
    }

    /// One phase over all connections: open at `rate` requests per
    /// second in all, or back to back without one.
    fn phase(&mut self, rate: Option<f64>, secs: f64, tracers: &mut [Tracer]) -> Vec<ConnOut> {
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(secs);
        let per_conn = rate.map(|r| r / CONNS as f64);
        let inputs = &self.inputs;
        let mut seens: Vec<Seen> = (0..CONNS).map(|_| Seen::default()).collect();
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(self.rngs.iter_mut())
                .zip(tracers.iter_mut())
                .zip(seens.iter_mut())
                .enumerate()
                .map(|(c, (((conn, rng), t), seen))| {
                    let offset =
                        rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(c as f64 / r));
                    s.spawn(move || drive(conn, inputs, rng, per_conn, offset, start, end, t, seen))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        for seen in seens {
            self.seen.absorb(seen);
        }
        outs
    }

    /// Closed-loop requests before timing starts.
    fn warm_up(&mut self) -> Result<(), String> {
        let conn = &mut self.conns[0];
        for _ in 0..WARMUP_REQUESTS {
            let (ep, req) = self.inputs.next(&mut self.rngs[0]);
            match conn.send(&req) {
                Ok((200, body)) => {
                    if !self.seen.record(ep, &req, body) {
                        return Err(format!("warm-up {ep:?}: unexpected answer"));
                    }
                }
                Ok((status, _)) => return Err(format!("warm-up {ep:?}: status {status}")),
                Err(e) => return Err(format!("warm-up {ep:?}: {e}")),
            }
        }
        Ok(())
    }

    /// Checks every kept answer: measurements byte-equal their cache
    /// files, figures match the reference, and a sample of compute
    /// misses equals a fresh scheduler's measurement. Each mismatched
    /// answer counts as a failed request.
    fn check(&self, reference: &Reference, scratch: &Path, report: &mut Report) {
        let cache = Cache::new(self.tree.join("results").join(".cache"));
        for _ in 0..self.seen.mismatched {
            report.fail("two answers to one request differ");
        }
        let mut note = |_: &mut (), msg: String| report.fail(msg);
        let mut bad = ();
        for (req, (ep, body)) in &self.seen.first {
            let ok = match ep {
                Ep::Figure => {
                    let text = String::from_utf8_lossy(req);
                    let file = text
                        .split_whitespace()
                        .nth(1)
                        .and_then(|p| p.strip_prefix("/figure/"))
                        .unwrap_or("");
                    reference.matches(file, body)
                }
                _ => answer_parts(body).is_some_and(|(h, m)| {
                    std::fs::read(cache.entry_path(h)).is_ok_and(|file| file == m)
                }),
            };
            if !ok {
                note(&mut bad, format!("{ep:?} answer does not match its source"));
            }
        }
        for body in &self.seen.queries {
            let ok = answer_parts(body).is_some_and(|(h, m)| {
                std::fs::read(cache.entry_path(h)).is_ok_and(|file| file == m)
            });
            if !ok {
                note(
                    &mut bad,
                    "Query answer does not match its cache file".into(),
                );
            }
        }
        let fresh_dir = scratch.join("fresh");
        for (i, (json, body)) in self.seen.misses.iter().enumerate() {
            let Some((h, m)) = answer_parts(body) else {
                note(&mut bad, "compute miss: malformed answer".into());
                continue;
            };
            if !std::fs::read(cache.entry_path(h)).is_ok_and(|file| file == m) {
                note(
                    &mut bad,
                    "compute miss: answer differs from its cache file".into(),
                );
            }
            if i % (self.seen.misses.len() / MISS_CHECKS).max(1) != 0 {
                continue;
            }
            let _ = std::fs::remove_dir_all(&fresh_dir);
            let fresh = Scheduler::new(SchedConfig::new(1).with_cache_dir(&fresh_dir));
            let job = ComputeRequest::from_json(json)
                .ok()
                .and_then(|r| serving::resolve(&r));
            let same = job.is_some_and(|job| {
                syncperf_sched::job_hash_with_salt(&job, 0) == h
                    && fresh
                        .measure(job)
                        .is_ok_and(|fm| encode_measurement(h, &fm).as_bytes() == m)
            });
            if !same {
                note(
                    &mut bad,
                    "compute miss: differs from a fresh Scheduler::measure".into(),
                );
            }
        }
        bad
    }
}

/// Latencies (from due time) of a phase.
struct PhaseSummary {
    lat_us: Vec<f64>,
    /// Also counting requests left unsent at the end as late by how
    /// overdue they were then: a growing backlog shows here.
    with_unsent_us: Vec<f64>,
    ok: u64,
    failed: u64,
}

fn summarize(outs: &[ConnOut], report: &mut Report) -> PhaseSummary {
    let mut s = PhaseSummary {
        lat_us: Vec::new(),
        with_unsent_us: Vec::new(),
        ok: 0,
        failed: 0,
    };
    for o in outs {
        report.attempted += o.sent;
        for p in &o.problems {
            report.fail(p.clone());
        }
        s.lat_us.extend(o.samples.iter().copied());
        s.ok += o.samples.len() as u64;
        s.failed += o.failed;
        s.with_unsent_us.extend(o.unsent_late_us.iter().copied());
    }
    s.with_unsent_us.extend(s.lat_us.iter().copied());
    s
}

pub fn run(opts: &Opts, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let reference = Reference::load();
    let mut off = Tracer::new(false, Instant::now());
    let mut setup = Vec::new();
    let mut served = None;
    for i in 0..SETUP_REPS {
        let start = Instant::now();
        let tree = fresh_dir(&scratch.join(format!("setup{i}")))?;
        let run = sweep::sweep(&mut off, &tree, true)?;
        reference.check(&tree.join("results"))?;
        let mut s = Served::start(&tree, &run.ids, opts.seed)?;
        s.warm_up()?;
        setup.push(start.elapsed().as_secs_f64());
        if let Some(prev) = served.replace(s) {
            prev.server.shutdown();
        }
    }
    let mut s = served.expect("set-up ran");
    report.e2e("setup_s", median(&setup));

    let origin = Instant::now();
    let mut offs: Vec<Tracer> = (0..CONNS).map(|_| Tracer::new(false, origin)).collect();
    let outcome = if opts.trace {
        traced(&mut s, opts, scratch, &mut offs, report)
    } else {
        untraced(&mut s, opts, &mut offs, report);
        Ok(())
    };
    s.check(&reference, scratch, report);
    s.server.shutdown();
    outcome
}

fn untraced(s: &mut Served, opts: &Opts, offs: &mut [Tracer], report: &mut Report) {
    let nominal = summarize(
        &s.phase(Some(NOMINAL_RPS), opts.seconds * NOMINAL_SHARE, offs),
        report,
    );
    let pct = tail_percentile(nominal.lat_us.len());
    let p50 = percentile(&nominal.lat_us, 50.0) / 1e3;
    report.mark_rss();
    report.note(format!(
        "req_us_p50 {:.1} us; req_us_p99 (tail p{pct}) {:.1} us over {} requests at {NOMINAL_RPS} rps",
        p50 * 1e3,
        percentile(&nominal.lat_us, pct),
        nominal.lat_us.len()
    ));
    let secs = opts.seconds * (1.0 - NOMINAL_SHARE);
    let began = Instant::now();
    let cpu_start = crate::user_cpu_ns(crate::RUSAGE_SELF);
    let outs = s.phase(None, secs, offs);
    // The server's user-mode CPU time: the process's, less the load
    // threads'. Kernel time is left out: on a shared host it grows with
    // the context switches the host's scheduling forces, not with the
    // server's work.
    let client: u64 = outs.iter().map(|o| o.client_user_ns).sum();
    let server_ms =
        (crate::user_cpu_ns(crate::RUSAGE_SELF) - cpu_start).saturating_sub(client) as f64 / 1e6;
    let saturated = summarize(&outs, report);
    let throughput = saturated.ok as f64 / began.elapsed().as_secs_f64();
    let per_answer = server_ms / saturated.ok.max(1) as f64;
    report.e2e("cpu_ms_per_op", per_answer);
    report.note(format!(
        "throughput {throughput:.1} answers/s with {CONNS} connections sending back to back; \
         server user cpu_us_per_answer {:.2} us",
        per_answer * 1e3
    ));
}

/// Searches the rate ladder for the goodput: the highest rate whose
/// p99, counting requests left unsent at a rung's end as late by how
/// overdue they were, meets [`LIMIT_P99_MS`] with no failure. Returns
/// the answered requests per second at that rung.
fn ladder(s: &mut Served, secs: f64, offs: &mut [Tracer], report: &mut Report) -> f64 {
    let ladder_end = Instant::now() + Duration::from_secs_f64(secs);
    let (mut best, mut worst): (Option<i32>, Option<i32>) = (None, None);
    let mut k = LADDER_FIRST;
    let mut goodput = 0.0;
    let mut rungs = Vec::new();
    while Instant::now() + Duration::from_secs_f64(RUNG_SECS) <= ladder_end {
        let rate = NOMINAL_RPS * LADDER_STEP.powi(k);
        let began = Instant::now();
        let rung = summarize(&s.phase(Some(rate), RUNG_SECS, offs), report);
        let achieved = rung.ok as f64 / began.elapsed().as_secs_f64();
        let p99_ms = percentile(&rung.with_unsent_us, 99.0) / 1e3;
        let pass = rung.failed == 0 && p99_ms <= LIMIT_P99_MS;
        rungs.push(format!(
            "{rate:.0}:{p99_ms:.2}ms{}",
            if pass { "" } else { "!" }
        ));
        if pass && best.is_none_or(|b| k > b) {
            best = Some(k);
            goodput = achieved;
        }
        if !pass && worst.is_none_or(|w| k < w) {
            worst = Some(k);
        }
        k = match (best, worst) {
            (_, None) => k + LADDER_JUMP,
            (None, Some(w)) => (w - LADDER_JUMP).max(0),
            (Some(b), Some(w)) if w - b > 1 => (b + w) / 2,
            _ => break,
        };
    }
    report.note(format!(
        "goodput_rps {goodput:.1} (p99 limit {LIMIT_P99_MS} ms, rungs x{LADDER_STEP}); ladder rate:p99 {}",
        rungs.join(" ")
    ));
    goodput
}

fn traced(
    s: &mut Served,
    opts: &Opts,
    scratch: &Path,
    offs: &mut [Tracer],
    report: &mut Report,
) -> Result<(), String> {
    let origin = Instant::now();
    let plain = summarize(
        &s.phase(Some(NOMINAL_RPS), opts.seconds * TRACED_SHARE, offs),
        report,
    );
    report.wall(&plain.lat_us, 1e-3);
    let mut tracers: Vec<Tracer> = (0..CONNS).map(|_| Tracer::new(true, origin)).collect();
    let outs = s.phase(Some(NOMINAL_RPS), opts.seconds * TRACED_SHARE, &mut tracers);
    let late: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.late_us.iter().copied())
        .collect();
    let backlog = outs.iter().map(|o| o.backlog_max).max().unwrap_or(0);
    let traced = summarize(&outs, report);
    let mut t = Tracer::new(true, origin);
    for other in tracers {
        t.absorb(other);
    }
    report.layer(
        "trace.overhead_ratio",
        median(&traced.lat_us) / median(&plain.lat_us) - 1.0,
    );
    report.layer("load.late_us_p99", percentile(&late, 99.0));
    report.layer("load.backlog_max", backlog as f64);
    for ep in Ep::ALL {
        let d: Vec<f64> = t
            .durations(ep.span())
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect();
        report.layer(&format!("{}.us_p50", ep.span()), percentile(&d, 50.0));
        report.layer(&format!("{}.us_p99", ep.span()), percentile(&d, 99.0));
    }

    let st = ServeStats::from_snapshot(&s.recorder.snapshot());
    report.layer("serve.dedup_waits", st.dedup_waits as f64);
    report.layer("sched.run_jobs_calls", st.computes as f64);
    report.layer("serve.errors", st.errors as f64);
    report.layer("serve.rejected", st.rejected as f64);
    report.layer("serve.timeouts", st.timeouts as f64);
    report.layer("serve.index.entries", s.server.index().len() as f64);
    report.layer("serve.sched_queue_depth_max", s.seen.queue_depth_max);

    let sched = s.sched.stats();
    report.layer("sched.jobs", sched.jobs as f64);
    report.layer("sched.executed", sched.executed as f64);
    report.layer("sched.retries", sched.retries as f64);
    report.layer(
        "sched.service_miss_us_p50",
        sched.service_miss_us_p50 as f64,
    );
    report.layer(
        "sched.service_miss_us_p99",
        sched.service_miss_us_p99 as f64,
    );
    report.layer("sched.pool.queue_depth_peak", sched.queue_depth_peak as f64);
    report.layer("sched.cache.hit_ratio", sched.hit_rate());
    report.layer("sched.cache.stores", sched.cache_stores as f64);
    let cache = Cache::new(s.tree.join("results").join(".cache"));
    report.layer("sched.cache.entries", cache.hashes().len() as f64);
    report.layer("sched.cache.bytes", cache.total_bytes() as f64);

    let goodput = ladder(s, opts.seconds * (1.0 - 2.0 * TRACED_SHARE), offs, report);
    report.layer("serve.goodput_rps", goodput);
    layer_replays(s, &mut t, scratch, opts.seed, report)?;
    t.write_jsonl(
        &scratch
            .parent()
            .unwrap_or(scratch)
            .join("spans-serve_mixed.jsonl"),
    )
    .map_err(|e| format!("write spans: {e}"))?;
    report.ledger = Some(t);
    Ok(())
}

/// Times the serve layers' public functions on the workload's own
/// inputs: request parsing and response rendering, index lookups,
/// queries, inserts and the periodic re-scan, and the engines on a
/// sample of the compute misses.
fn layer_replays(
    s: &Served,
    t: &mut Tracer,
    scratch: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    const REPS: usize = 2000;
    let mut rng = Rng::new(seed ^ 0x6c61_7965);
    t.begin_trace(0);
    let reqs: Vec<&Vec<u8>> = s.seen.first.keys().collect();
    let bodies: Vec<&Vec<u8>> = s.seen.first.values().map(|(_, b)| b).collect();
    if reqs.is_empty() {
        return Err("no answers to replay".into());
    }
    for _ in 0..REPS {
        let req = reqs[rng.below(reqs.len())];
        std::hint::black_box(
            t.span("serve.http.parse", || syncperf_serve::http::try_parse(req))
                .is_ok(),
        );
        let body = String::from_utf8_lossy(bodies[rng.below(bodies.len())]).into_owned();
        let resp = Response::json(200, body);
        std::hint::black_box(t.span("serve.http.render", || {
            syncperf_serve::http::render_response(&resp, true)
        }));
    }
    let index = s.server.index();
    let cache = Cache::new(s.tree.join("results").join(".cache"));
    let hashes = cache.hashes();
    for _ in 0..REPS {
        let h = hashes[rng.below(hashes.len())];
        std::hint::black_box(t.span("serve.index.get", || index.get(h)).is_some());
    }
    let queries: Vec<Query> = s
        .inputs
        .queries
        .iter()
        .filter_map(|q| {
            let text = String::from_utf8_lossy(q);
            let path = text.split_whitespace().nth(1)?;
            let params = syncperf_serve::http::parse_query(path.split_once('?')?.1);
            let get = |k: &str| params.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            Some(Query {
                kernel: get("kernel")?,
                dtype: None,
                threads: get("threads")?.parse().ok()?,
                blocks: get("blocks").and_then(|b| b.parse().ok()),
                exact: false,
            })
        })
        .collect();
    for q in queries.iter().cycle().take(REPS / 4) {
        std::hint::black_box(t.span("serve.index.query", || index.query(q)).is_some());
    }
    let private = Index::build(Cache::new(fresh_dir(&scratch.join("index"))?), None);
    let computed: Vec<(u64, syncperf_core::Measurement)> = s
        .seen
        .misses
        .iter()
        .filter_map(|(_, body)| {
            let (h, _) = answer_parts(body)?;
            Some((h, cache.load(h)?))
        })
        .collect();
    let stores = Cache::new(fresh_dir(&scratch.join("stores"))?);
    for (h, m) in &computed {
        t.span("serve.index.insert", || private.insert(*h, m));
        std::hint::black_box(t.span("sched.cache.encode", || encode_measurement(*h, m)));
        if t.span("sched.cache.store", || stores.store(*h, m)).is_err() {
            report.fail("cache store of a computed answer failed");
        }
    }
    let rescan = Index::build(cache.clone(), None);
    for _ in 0..3 {
        std::hint::black_box(t.span("serve.index.refresh", || rescan.refresh()));
    }
    for (json, _) in s
        .seen
        .misses
        .iter()
        .step_by((s.seen.misses.len() / MISS_CHECKS).max(1))
    {
        let Some(job) = ComputeRequest::from_json(json)
            .ok()
            .and_then(|r| serving::resolve(&r))
        else {
            continue;
        };
        let name = match job {
            syncperf_sched::JobSpec::CpuSim { .. } => "cpu_sim.single",
            syncperf_sched::JobSpec::GpuSim { .. } => "gpu_sim.single",
            syncperf_sched::JobSpec::RealOmp { .. } => continue,
        };
        let h = s.sched.job_hash(&job);
        std::hint::black_box(t.span(name, || job.execute(h)).is_ok());
    }

    let mean_of = |name: &str, scale: f64| {
        mean(
            &t.durations(name)
                .iter()
                .map(|&n| n as f64 / scale)
                .collect::<Vec<_>>(),
        )
    };
    report.layer("serve.http.parse_ns", mean_of("serve.http.parse", 1.0));
    report.layer("serve.http.render_ns", mean_of("serve.http.render", 1.0));
    report.layer("serve.index.get_ns", mean_of("serve.index.get", 1.0));
    report.layer("serve.index.query_us", mean_of("serve.index.query", 1e3));
    report.layer("serve.index.insert_us", mean_of("serve.index.insert", 1e3));
    report.layer("sched.cache.encode_us", mean_of("sched.cache.encode", 1e3));
    report.layer("sched.cache.store_us", mean_of("sched.cache.store", 1e3));
    report.layer(
        "serve.index.refresh_ms",
        mean_of("serve.index.refresh", 1e6),
    );
    report.layer("cpu_sim.single_us", mean_of("cpu_sim.single", 1e3));
    report.layer("gpu_sim.single_us", mean_of("gpu_sim.single", 1e3));
    Ok(())
}
