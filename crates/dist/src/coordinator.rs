//! The coordinator: partitions each batch of cache misses into
//! hash-range shards, streams them to workers, merges results
//! exactly-once, and reissues shards when workers die or go silent.
//!
//! ## Shard lifecycle
//!
//! ```text
//!   backlog ──(refill)──▶ assigned ──(results stream in)──▶ complete
//!      │                     │
//!      │ (coordinator idle)  │ (owner dies / times out)
//!      ▼                     ▼
//!   run locally           reissued (new shard, live worker;
//!                                   run locally once none is left)
//! ```
//!
//! Every transition preserves two invariants: a job's result is merged
//! **exactly once** (content-hash dedup — a duplicate completion is
//! counted and dropped), and every entry that reaches the cache passed
//! the same self-validating decode a local store would have (a corrupt
//! wire entry is counted, discarded, and recomputed locally).
//!
//! Whatever runs on the coordinator — unencodable or duplicate jobs,
//! backlog chunks it drains while idle, recomputes, and everything
//! once the fleet is gone — goes through one path that
//! batch-primes same-shape groups first, as the workers and the
//! scheduler pool do (`dist.coordinator_primed_jobs`).
//!
//! The coordinator plugs into the scheduler as a
//! [`syncperf_sched::ExecBackend`] (see [`Coordinator::attach`]):
//! cache consultation, checkpointing,
//! and the deterministic index-ordered merge stay in
//! `Scheduler::run_jobs`, so distributed output is byte-identical to
//! `--jobs N` serial output by construction.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use syncperf_core::obs::{json, Counter, Gauge, Histogram, Recorder, Snapshot};
use syncperf_core::Measurement;

use syncperf_sched::{
    decode_measurement, execute_job_with_retry_primed, BackendExec, Cache, JobSpec, Scheduler,
    SCHED_SALT,
};

use crate::codec::encode_job;
use crate::frame::{read_frame, read_handshake, write_frame, FrameType, PROTO_VERSION};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Addresses of the pre-started workers (`syncperf_dist worker
    /// --listen`) that [`Coordinator::start`] dials: the fleet.
    pub connect: Vec<String>,
    /// How long a worker may stay silent (no frames at all) before it
    /// is declared dead and its shards reissued.
    pub heartbeat_timeout: Duration,
    /// Extra hash salt, forwarded to workers in the handshake (must
    /// match the scheduler's `salt_extra`).
    pub salt_extra: u64,
    /// Chaos hook: after this many results have been received, sever
    /// the connection to one live worker (`None` = never).
    pub chaos_kill_one_after: Option<u64>,
}

impl DistConfig {
    /// A config for the workers at `connect`, with default timeouts.
    #[must_use]
    pub fn new(connect: Vec<String>) -> Self {
        DistConfig {
            connect,
            heartbeat_timeout: Duration::from_secs(10),
            salt_extra: 0,
            chaos_kill_one_after: None,
        }
    }

    /// Replaces the extra hash salt.
    #[must_use]
    pub fn with_salt_extra(mut self, salt: u64) -> Self {
        self.salt_extra = salt;
        self
    }

    /// Arms the kill-one-worker chaos hook.
    #[must_use]
    pub fn with_chaos_kill_one_after(mut self, results: u64) -> Self {
        self.chaos_kill_one_after = Some(results);
        self
    }

    /// Replaces the heartbeat timeout.
    #[must_use]
    pub fn with_heartbeat_timeout(mut self, t: Duration) -> Self {
        self.heartbeat_timeout = t;
        self
    }
}

/// Handles to every metric in a coordinator's registry, resolved once
/// at construction so the merge loop never looks a name up.
#[derive(Debug)]
struct Counters {
    batches_streamed: Counter,
    jobs_sent: Counter,
    results_received: Counter,
    shard_reissues: Counter,
    worker_deaths: Counter,
    corrupt_entries: Counter,
    duplicate_results: Counter,
    local_jobs: Counter,
    coordinator_jobs: Counter,
    coordinator_primed_jobs: Counter,
    worker_errors: Counter,
    retries: Counter,
    primed_jobs: Counter,
    bytes_sent: Counter,
    /// Cloned into every reader thread, so it keeps counting while a
    /// batch is idle.
    bytes_received: Counter,
    workers: Counter,
    workers_live: Gauge,
    /// Shards in flight plus backlog chunks of the running batch.
    batches_inflight: Gauge,
    wait_us: Histogram,
    service_us: Histogram,
}

impl Counters {
    fn new(rec: &Recorder) -> Self {
        Counters {
            batches_streamed: rec.counter("dist.batches_streamed"),
            jobs_sent: rec.counter("dist.jobs_sent"),
            results_received: rec.counter("dist.results_received"),
            shard_reissues: rec.counter("dist.shard_reissues"),
            worker_deaths: rec.counter("dist.worker_deaths"),
            corrupt_entries: rec.counter("dist.corrupt_entries"),
            duplicate_results: rec.counter("dist.duplicate_results"),
            local_jobs: rec.counter("dist.local_jobs"),
            coordinator_jobs: rec.counter("dist.coordinator_jobs"),
            coordinator_primed_jobs: rec.counter("dist.coordinator_primed_jobs"),
            worker_errors: rec.counter("dist.worker_errors"),
            retries: rec.counter("dist.retries"),
            primed_jobs: rec.counter("dist.primed_jobs"),
            bytes_sent: rec.counter("dist.bytes_sent"),
            bytes_received: rec.counter("dist.bytes_received"),
            workers: rec.counter("dist.workers"),
            workers_live: rec.gauge_set("dist.workers_live"),
            batches_inflight: rec.gauge_set("dist.batches_inflight"),
            wait_us: rec.histogram("dist.wait_us"),
            service_us: rec.histogram("dist.service_us"),
        }
    }
}

/// A point-in-time view of the coordinator's counters and latency
/// quantiles — the `dist.*` analog of `SchedStats`: its registry's
/// snapshot read back through [`DistStats::from_snapshot`], which works
/// on any snapshot [`Coordinator::export_into`] filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistStats {
    /// Batch frames streamed to workers (initial shards, refills and
    /// reissues).
    pub batches_streamed: u64,
    /// Jobs shipped over the wire (a reissued job counts again).
    pub jobs_sent: u64,
    /// Result frames received (before dedup/validation).
    pub results_received: u64,
    /// Shards reissued after a worker death or heartbeat timeout.
    pub shard_reissues: u64,
    /// Workers declared dead.
    pub worker_deaths: u64,
    /// Wire entries that failed the self-validating decode and were
    /// recomputed locally.
    pub corrupt_entries: u64,
    /// Results for an already-merged hash, dropped by the
    /// exactly-once dedup.
    pub duplicate_results: u64,
    /// Jobs not wire-serializable (real-thread / model-override),
    /// executed on the coordinator.
    pub local_jobs: u64,
    /// Backlog jobs the work-conserving coordinator executed inline
    /// while its event queue was idle (throughput self-balancing; see
    /// [`Coordinator::run_batch`]).
    pub coordinator_jobs: u64,
    /// Jobs the coordinator ran from batch-primed engine results, over
    /// every local path (see [`JobSpec::prime_groups`]).
    pub coordinator_primed_jobs: u64,
    /// Jobs a worker reported as failed (recomputed locally).
    pub worker_errors: u64,
    /// Worker-side retry attempts reported in result headers.
    pub retries: u64,
    /// Merged worker results run from batch-primed engine results.
    pub primed_jobs: u64,
    /// Payload bytes streamed to workers (batches and control).
    pub bytes_sent: u64,
    /// Payload bytes received from workers (results, control).
    pub bytes_received: u64,
    /// Configured worker count.
    pub workers: u64,
    /// Workers currently alive.
    pub workers_live: u64,
    /// Median coordinator-side queue wait (dispatch → result arrival,
    /// minus worker service time), microseconds.
    pub wait_us_p50: u64,
    /// p99 queue wait, microseconds.
    pub wait_us_p99: u64,
    /// Median worker service time per job, microseconds.
    pub service_us_p50: u64,
    /// p99 worker service time, microseconds.
    pub service_us_p99: u64,
}

impl DistStats {
    /// Extracts the `dist.*` counters, gauges, and histograms from an
    /// obs snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let wait = snap.histogram("dist.wait_us");
        let service = snap.histogram("dist.service_us");
        DistStats {
            batches_streamed: snap.counter("dist.batches_streamed"),
            jobs_sent: snap.counter("dist.jobs_sent"),
            results_received: snap.counter("dist.results_received"),
            shard_reissues: snap.counter("dist.shard_reissues"),
            worker_deaths: snap.counter("dist.worker_deaths"),
            corrupt_entries: snap.counter("dist.corrupt_entries"),
            duplicate_results: snap.counter("dist.duplicate_results"),
            local_jobs: snap.counter("dist.local_jobs"),
            coordinator_jobs: snap.counter("dist.coordinator_jobs"),
            coordinator_primed_jobs: snap.counter("dist.coordinator_primed_jobs"),
            worker_errors: snap.counter("dist.worker_errors"),
            retries: snap.counter("dist.retries"),
            primed_jobs: snap.counter("dist.primed_jobs"),
            bytes_sent: snap.counter("dist.bytes_sent"),
            bytes_received: snap.counter("dist.bytes_received"),
            workers: snap.counter("dist.workers"),
            workers_live: snap.gauge("dist.workers_live"),
            wait_us_p50: wait.quantile(0.50),
            wait_us_p99: wait.quantile(0.99),
            service_us_p50: service.quantile(0.50),
            service_us_p99: service.quantile(0.99),
        }
    }
}

/// One connected worker.
struct WorkerHandle {
    /// Send half (whole frames under the lock, so writers never
    /// interleave).
    writer: Mutex<TcpStream>,
    /// Cleared when the connection dies or is declared dead.
    alive: AtomicBool,
    /// Last instant any frame arrived (updated by the reader thread,
    /// so it stays fresh even between batches).
    last_seen: Mutex<Instant>,
}

/// Events funneled from all reader threads into the drain loop.
enum Event {
    Frame(usize, FrameType, Vec<u8>),
    /// A Result frame, already parsed and hash-verified by the reader
    /// thread so the single-threaded drain loop only does bookkeeping
    /// — with N workers the (comparatively expensive) JSON decode and
    /// content-hash check run N-way parallel.
    Result(usize, Box<DecodedResult>),
    Dead(usize),
}

/// A Result frame after reader-side parsing.
struct DecodedResult {
    shard: u64,
    hash: u64,
    /// Worker-side wall time, retry count and primed flag, from the header.
    micros: u64,
    retries: u64,
    primed: u64,
    /// The raw cache-entry bytes, ready for the store thread.
    entry: String,
    /// `Some` iff the entry passed the self-validating load against
    /// the expected content hash ([`decode_measurement`]).
    measurement: Option<Measurement>,
}

/// A shard in flight: who owns it and which hashes are still unmerged.
struct Shard {
    worker: usize,
    remaining: BTreeSet<u64>,
}

/// One pending (dispatched, unmerged) job.
struct Pending {
    index: usize,
    job: JobSpec,
    /// The `{"hash":..,"job":..}` batch item, kept for reissue.
    payload: String,
    dispatched: Instant,
}

/// One running batch's bookkeeping, threaded through the drain loop's
/// helpers.
#[derive(Default)]
struct Batch {
    /// Shards in flight, by shard id.
    shards: BTreeMap<u64, Shard>,
    /// Dispatched, unmerged jobs, by content hash.
    pending: BTreeMap<u64, Pending>,
    /// Hash-range chunks no worker holds yet: workers refill from the
    /// front, the idle coordinator drains the back.
    backlog: VecDeque<BTreeSet<u64>>,
    /// Jobs whose wire result was unusable, recomputed at the tail.
    redo: Vec<(usize, JobSpec, u64)>,
    out: Vec<BackendExec>,
}

impl Batch {
    /// Removes `hashes` from the pending map, returning the jobs that
    /// were still unmerged.
    fn take(&mut self, hashes: impl IntoIterator<Item = u64>) -> Vec<(usize, JobSpec, u64)> {
        hashes
            .into_iter()
            .filter_map(|h| self.pending.remove(&h).map(|p| (p.index, p.job, h)))
            .collect()
    }

    /// Moves `hash`, if still pending, to the tail recompute list.
    fn recompute(&mut self, hash: u64) {
        let jobs = self.take([hash]);
        self.redo.extend(jobs);
    }
}

/// The coordinator. Create with [`Coordinator::start`] (dials the
/// configured workers) or [`Coordinator::from_streams`] (connections
/// the caller already holds), then [`Coordinator::attach`] it to a
/// scheduler.
pub struct Coordinator {
    cfg: DistConfig,
    workers: Vec<Arc<WorkerHandle>>,
    /// Receiver end of the shared event channel. Locked for the whole
    /// of every batch — the lock doubles as the one-batch-at-a-time
    /// guard.
    events: Mutex<mpsc::Receiver<Event>>,
    /// This coordinator's own metrics registry: each `dist.*` number is
    /// counted here and nowhere else.
    registry: Recorder,
    counters: Counters,
    shard_counter: AtomicU64,
    chaos_armed: AtomicBool,
    /// Sender half of the persistent cache-writer thread (present iff
    /// a cache is configured). Validated entries are queued here so the
    /// merge loop never blocks on the filesystem; [`Coordinator::shutdown`]
    /// drops the sender and joins the writer, flushing every queued
    /// entry to disk.
    store_tx: Mutex<Option<mpsc::Sender<(u64, String)>>>,
    store_join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("cfg", &self.cfg)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Coordinator {
    /// Starts a coordinator over the fleet in `cfg.connect`: dials
    /// each address, then handshakes as [`Coordinator::from_streams`].
    ///
    /// # Errors
    ///
    /// Fails when a worker cannot be reached or refuses the handshake
    /// (version or salt skew).
    pub fn start(cfg: DistConfig, cache: Option<Cache>) -> io::Result<Arc<Coordinator>> {
        let streams = cfg
            .connect
            .iter()
            .map(TcpStream::connect)
            .collect::<io::Result<_>>()?;
        Self::from_streams(cfg, cache, streams)
    }

    /// Builds a coordinator over already-connected worker streams (the
    /// far ends run [`crate::worker::serve_stream`]).
    ///
    /// # Errors
    ///
    /// Fails when a handshake is refused.
    pub fn from_streams(
        cfg: DistConfig,
        cache: Option<Cache>,
        streams: Vec<TcpStream>,
    ) -> io::Result<Arc<Coordinator>> {
        let (tx, rx) = mpsc::channel();
        let registry = Recorder::enabled();
        let counters = Counters::new(&registry);
        let mut workers = Vec::new();
        for (i, stream) in streams.into_iter().enumerate() {
            stream.set_nodelay(true).ok();
            let mut writer = stream.try_clone()?;
            let hello = format!(
                "{{\"proto\":{PROTO_VERSION},\"salt\":\"{SCHED_SALT}\",\"salt_extra\":\"{:016x}\"}}",
                cfg.salt_extra
            );
            write_frame(&mut writer, FrameType::Hello, hello.as_bytes())?;
            // A worker busy with another peer must not hang the start:
            // the ack is due within the heartbeat timeout.
            let (ty, _) = read_handshake(
                &stream,
                cfg.heartbeat_timeout,
                &format!("HelloAck from worker {i}"),
            )?;
            if ty != FrameType::HelloAck {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "worker refused handshake",
                ));
            }
            let handle = Arc::new(WorkerHandle {
                writer: Mutex::new(writer),
                alive: AtomicBool::new(true),
                last_seen: Mutex::new(Instant::now()),
            });
            spawn_reader(
                i,
                stream,
                Arc::clone(&handle),
                tx.clone(),
                counters.bytes_received.clone(),
            );
            workers.push(handle);
        }
        // Persistent cache-writer thread: one per coordinator, not one
        // per batch, so batch completion never waits on fsync tails.
        let (store_tx, store_join) = match &cache {
            Some(c) => {
                let dir = c.dir().to_path_buf();
                let (stx, srx) = mpsc::channel::<(u64, String)>();
                let handle = std::thread::spawn(move || {
                    let cache = Cache::new(dir);
                    for (hash, text) in srx {
                        let _ = cache.store_raw(hash, &text);
                    }
                });
                (Some(stx), Some(handle))
            }
            None => (None, None),
        };
        counters.workers.add(workers.len() as u64);
        counters.workers_live.set(workers.len() as u64);
        Ok(Arc::new(Coordinator {
            cfg,
            workers,
            events: Mutex::new(rx),
            registry,
            counters,
            shard_counter: AtomicU64::new(0),
            chaos_armed: AtomicBool::new(true),
            store_tx: Mutex::new(store_tx),
            store_join: Mutex::new(store_join),
        }))
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DistConfig {
        &self.cfg
    }

    /// Workers currently alive.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    /// A point-in-time view of the counters and latency quantiles.
    #[must_use]
    pub fn stats(&self) -> DistStats {
        DistStats::from_snapshot(&self.registry.snapshot())
    }

    /// Merges the coordinator's registry — `dist.*` counters,
    /// live-worker/in-flight gauges, and wait/service histograms — into
    /// `snap`. Wired into `Scheduler::export_into` by
    /// [`Coordinator::attach`], so `--metrics`, `--metrics-addr`, and
    /// any `/metrics` endpoint pick it up automatically.
    pub fn export_into(&self, snap: &mut Snapshot) {
        snap.merge(&self.registry.snapshot());
    }

    /// Installs this coordinator as `sched`'s execution backend and
    /// telemetry export hook: every cache miss the scheduler sees is
    /// routed through [`Coordinator::run_batch`], and every telemetry
    /// export carries the `dist.*` metrics.
    pub fn attach(self: &Arc<Self>, sched: &Scheduler) {
        let c = Arc::clone(self);
        sched.set_exec_backend(move |todo| c.run_batch(todo));
        let c = Arc::clone(self);
        sched.set_export_hook(move |snap| c.export_into(snap));
    }

    /// Executes one batch of cache misses across the worker fleet.
    /// This is the [`syncperf_sched::ExecBackend`] entry point; see the
    /// module docs for the shard lifecycle.
    pub fn run_batch(&self, todo: &[(usize, JobSpec, u64)]) -> Vec<BackendExec> {
        let c = &self.counters;
        let events = self.events.lock().unwrap();
        // Absorb anything that happened between batches (worker deaths;
        // stray frames from a chaos-killed worker's last gasp).
        while let Ok(ev) = events.try_recv() {
            if let Event::Dead(w) = ev {
                self.mark_dead(w);
            }
        }

        let mut b = Batch::default();
        let mut local: Vec<(usize, JobSpec, u64)> = Vec::new();
        for (index, job, hash) in todo {
            // An identical job submitted twice in one batch (the
            // scheduler's own collision guard makes this unlikely) runs
            // locally rather than double-issue, as does a job with no
            // wire encoding.
            let encoded = if b.pending.contains_key(hash) {
                None
            } else {
                encode_job(job)
            };
            match encoded {
                Some(encoded) => {
                    let payload = format!("{{\"hash\":\"{hash:016x}\",\"job\":{encoded}}}");
                    b.pending.insert(
                        *hash,
                        Pending {
                            index: *index,
                            job: job.clone(),
                            payload,
                            dispatched: Instant::now(),
                        },
                    );
                }
                None => local.push((*index, job.clone(), *hash)),
            }
        }

        // Cache stores go to the coordinator-lifetime writer thread so
        // the merge loop never blocks on the filesystem (entries are
        // validated before they are queued; writes from this batch may
        // still be in flight when it returns — shutdown flushes them).
        let store_guard = self.store_tx.lock().unwrap();
        let store_tx = store_guard.as_ref();

        // Partition the serializable jobs into small contiguous
        // hash-range chunks (the pending map is hash-ordered). Each
        // live worker is primed with one chunk and kept double-buffered
        // by refills; the rest wait in a coordinator-side backlog that
        // workers drain from the front and the coordinator from the
        // back, so the split follows the fleet's real throughput
        // without re-sending a job.
        let live: Vec<usize> = (0..self.workers.len())
            .filter(|&w| self.workers[w].alive.load(Ordering::Relaxed))
            .collect();
        if live.is_empty() {
            // Total fleet loss: everything runs locally.
            let all: Vec<u64> = b.pending.keys().copied().collect();
            let jobs = b.take(all);
            b.out.extend(self.run_local(&jobs));
        } else {
            let hashes: Vec<u64> = b.pending.keys().copied().collect();
            let waves = 8;
            let ideal = hashes.len().div_ceil(live.len() * waves);
            // Small batches still amortize a round-trip over a few
            // jobs instead of paying one per job.
            let floor = 4usize.min(hashes.len().div_ceil(live.len()).max(1));
            for c in hashes.chunks(ideal.max(floor)) {
                b.backlog.push_back(c.iter().copied().collect());
            }
            // Prime workers with one chunk each; the refill path tops
            // them up as they make progress.
            for w in live {
                let Some(remaining) = b.backlog.pop_front() else {
                    break;
                };
                if let Some(unsent) = self.send_shard(w, remaining, &mut b) {
                    b.backlog.push_front(unsent);
                }
            }
        }
        c.batches_inflight
            .set((b.shards.len() + b.backlog.len()) as u64);

        // Unserializable jobs execute on the coordinator while workers
        // chew on their shards.
        c.local_jobs.add(local.len() as u64);
        b.out.extend(self.run_local(&local));

        // Drain until every dispatched job is merged.
        while !b.pending.is_empty() {
            // Reissue any shard whose owner died before this iteration.
            let orphaned: Vec<u64> = b
                .shards
                .iter()
                .filter(|(_, s)| !self.workers[s.worker].alive.load(Ordering::Relaxed))
                .map(|(&id, _)| id)
                .collect();
            for id in orphaned {
                let shard = b.shards.remove(&id).unwrap();
                self.reissue(shard.remaining, &mut b);
            }
            // A dead fleet can leave work stranded in the backlog with
            // no ShardDone ever coming: run it locally.
            if b.shards.is_empty()
                && !b.backlog.is_empty()
                && !self.workers.iter().any(|h| h.alive.load(Ordering::Relaxed))
            {
                let stranded: Vec<u64> = b.backlog.drain(..).flatten().collect();
                let jobs = b.take(stranded);
                b.out.extend(self.run_local(&jobs));
            }
            c.batches_inflight
                .set((b.shards.len() + b.backlog.len()) as u64);
            if b.pending.is_empty() {
                break;
            }

            // Work-conserving coordinator: when no worker traffic is
            // waiting, run the backlog's last chunk inline instead of
            // blocking. Workers drain the backlog from the front, the
            // coordinator from the back, so the split self-balances
            // with the fleet's real throughput: the faster the workers,
            // the more of the backlog they win.
            let mut ev = events.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => mpsc::RecvTimeoutError::Timeout,
                mpsc::TryRecvError::Disconnected => mpsc::RecvTimeoutError::Disconnected,
            });
            if matches!(ev, Err(mpsc::RecvTimeoutError::Timeout)) {
                if let Some(chunk) = b.backlog.pop_back() {
                    let jobs = b.take(chunk);
                    c.coordinator_jobs.add(jobs.len() as u64);
                    b.out.extend(self.run_local(&jobs));
                    continue;
                }
                ev = events.recv_timeout(Duration::from_millis(100));
            }
            match ev {
                Ok(Event::Dead(w)) => self.mark_dead(w),
                Ok(Event::Result(w, r)) => self.handle_result(w, *r, &mut b, store_tx),
                Ok(Event::Frame(w, ty, payload)) => {
                    self.handle_worker_frame(w, ty, &payload, &mut b);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => self.check_heartbeats(),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // All reader threads gone: finish locally.
                    for w in 0..self.workers.len() {
                        self.mark_dead(w);
                    }
                }
            }
        }
        // Every job whose wire result was unusable (corrupt entry or
        // worker error) is recomputed here, together, so a same-shape
        // set of them primes like any other local work.
        let redo = std::mem::take(&mut b.redo);
        b.out.extend(self.run_local(&redo));
        c.batches_inflight.set(0);
        b.out
    }

    /// Merges one reader-decoded Result: exactly-once dedup against the
    /// pending map, cross-check of the already-verified measurement
    /// against the expected job, then handoff to the store thread.
    fn handle_result(
        &self,
        w: usize,
        r: DecodedResult,
        b: &mut Batch,
        store_tx: Option<&mpsc::Sender<(u64, String)>>,
    ) {
        let c = &self.counters;
        c.results_received.inc();
        self.maybe_chaos_kill();
        if let Some(s) = b.shards.get_mut(&r.shard) {
            s.remaining.remove(&r.hash);
        }
        let Some(p) = b.pending.get(&r.hash) else {
            // Already merged (duplicate completion after a reissue
            // race): exactly-once dedup.
            c.duplicate_results.inc();
            return;
        };
        let validated = r
            .measurement
            .filter(|m| m.kernel_name == p.job.kernel_name() && m.params == *p.job.params());
        if let Some(m) = validated {
            c.retries.add(r.retries);
            c.primed_jobs.add(r.primed);
            let total_us = p.dispatched.elapsed().as_micros() as u64;
            c.service_us.observe(r.micros);
            c.wait_us.observe(total_us.saturating_sub(r.micros));
            let stored = store_tx.is_some_and(|tx| tx.send((r.hash, r.entry)).is_ok());
            let p = b.pending.remove(&r.hash).unwrap();
            b.out.push(BackendExec {
                index: p.index,
                hash: r.hash,
                result: Ok(m),
                stored,
            });
        } else {
            // The bytes failed the same self-validating load a local
            // cache read would apply (or named the wrong job): count,
            // discard, recompute.
            c.corrupt_entries.inc();
            b.recompute(r.hash);
        }
        self.refill(w, b);
    }

    /// Handles one worker control frame inside the drain loop.
    fn handle_worker_frame(&self, w: usize, ty: FrameType, payload: &[u8], b: &mut Batch) {
        let c = &self.counters;
        match ty {
            FrameType::Result => {
                // Only reached when the reader thread could not parse
                // the payload at all (no header line / bad hash): there
                // is nothing to attribute it to, so it is dropped and
                // the job completes via reissue or heartbeat timeout.
                c.results_received.inc();
                c.corrupt_entries.inc();
            }
            FrameType::JobError => {
                let Ok(doc) = json::parse(&String::from_utf8_lossy(payload)) else {
                    return;
                };
                let Some(hash) = get_hash(&doc) else { return };
                if let Some(s) = b.shards.get_mut(&get_shard(&doc)) {
                    s.remaining.remove(&hash);
                }
                c.worker_errors.inc();
                // Recompute locally so the error surfaced to the
                // scheduler (if it persists) is the exact local error,
                // not a stringified remote one.
                b.recompute(hash);
                self.refill(w, b);
            }
            FrameType::ShardDone => {
                let shard_id = shard_id_of(payload);
                if let Some(s) = b.shards.remove(&shard_id) {
                    // Frames from one worker arrive in order, so every
                    // result for this shard has already been merged;
                    // anything left produced no usable result (e.g. an
                    // unattributable corrupt frame) and is reissued.
                    if !s.remaining.is_empty() {
                        self.reissue(s.remaining, b);
                    }
                }
                self.refill(w, b);
            }
            // Heartbeats are consumed by the reader thread; anything
            // else is protocol chatter we can ignore.
            _ => {}
        }
    }

    /// After worker `w` made progress, tops it up from the front of the
    /// coordinator-side backlog (free — no job is re-sent). The worker
    /// stays double-buffered: one chunk executing, one queued behind
    /// it, so the refill round-trip hides behind execution instead of
    /// stalling the worker after every chunk.
    fn refill(&self, w: usize, b: &mut Batch) {
        if !self.workers[w].alive.load(Ordering::Relaxed) {
            return;
        }
        let outstanding = b
            .shards
            .values()
            .filter(|s| s.worker == w && !s.remaining.is_empty())
            .count();
        let mut need = 2usize.saturating_sub(outstanding);
        while need > 0 {
            let Some(chunk) = b.backlog.pop_front() else {
                return;
            };
            let remaining: BTreeSet<u64> = chunk
                .into_iter()
                .filter(|h| b.pending.contains_key(h))
                .collect();
            if remaining.is_empty() {
                continue;
            }
            if let Some(unsent) = self.send_shard(w, remaining, b) {
                // Worker just died mid-assignment; keep the chunk.
                b.backlog.push_front(unsent);
                return;
            }
            need -= 1;
        }
    }

    /// Reissues orphaned hashes (dead worker) as a fresh shard.
    fn reissue(&self, remaining: BTreeSet<u64>, b: &mut Batch) {
        let remaining: BTreeSet<u64> = remaining
            .into_iter()
            .filter(|h| b.pending.contains_key(h))
            .collect();
        if remaining.is_empty() {
            return;
        }
        self.counters.shard_reissues.inc();
        self.assign_shard(remaining, b);
    }

    /// Ships `remaining` as a new shard to the least-loaded live
    /// worker, or runs it locally when the fleet is gone.
    fn assign_shard(&self, mut remaining: BTreeSet<u64>, b: &mut Batch) {
        loop {
            let load = |w: usize| -> usize {
                b.shards
                    .values()
                    .filter(|s| s.worker == w)
                    .map(|s| s.remaining.len())
                    .sum()
            };
            let target = (0..self.workers.len())
                .filter(|&w| self.workers[w].alive.load(Ordering::Relaxed))
                .min_by_key(|&w| load(w));
            let Some(w) = target else {
                let jobs = b.take(remaining);
                b.out.extend(self.run_local(&jobs));
                return;
            };
            match self.send_shard(w, remaining, b) {
                None => return,
                // That worker died mid-send: try the next one.
                Some(unsent) => remaining = unsent,
            }
        }
    }

    /// Streams `remaining` to worker `w` as a fresh shard. Returns the
    /// set back when the send fails (the worker is then marked dead).
    fn send_shard(
        &self,
        w: usize,
        remaining: BTreeSet<u64>,
        b: &mut Batch,
    ) -> Option<BTreeSet<u64>> {
        let shard = self.shard_counter.fetch_add(1, Ordering::Relaxed);
        let items: Vec<&str> = remaining
            .iter()
            .filter_map(|h| b.pending.get(h).map(|p| p.payload.as_str()))
            .collect();
        let doc = format!("{{\"shard\":{shard},\"jobs\":[{}]}}", items.join(","));
        if self.send(w, FrameType::Batch, doc.as_bytes()) {
            self.counters.batches_streamed.inc();
            self.counters.jobs_sent.add(remaining.len() as u64);
            b.shards.insert(
                shard,
                Shard {
                    worker: w,
                    remaining,
                },
            );
            None
        } else {
            self.mark_dead(w);
            Some(remaining)
        }
    }

    /// Runs jobs on the coordinator: batch-primes their same-shape
    /// groups with the pool's and the workers' rule
    /// ([`JobSpec::prime_groups`]), then runs each under the standard
    /// retry ladder. Every coordinator-side execution goes through here.
    fn run_local(&self, jobs: &[(usize, JobSpec, u64)]) -> Vec<BackendExec> {
        let c = &self.counters;
        let refs: Vec<&JobSpec> = jobs.iter().map(|(_, job, _)| job).collect();
        let primed = JobSpec::prime_groups(&refs);
        c.coordinator_primed_jobs
            .add(primed.iter().flatten().count() as u64);
        jobs.iter()
            .zip(&primed)
            .map(|(&(index, ref job, hash), pe)| BackendExec {
                index,
                hash,
                result: execute_job_with_retry_primed(job, hash, pe.as_ref(), |_| c.retries.inc()),
                stored: false,
            })
            .collect()
    }
    /// Declares workers dead when they exceed the heartbeat timeout
    /// (the reader thread refreshes `last_seen` on every frame,
    /// heartbeats included).
    fn check_heartbeats(&self) {
        for w in 0..self.workers.len() {
            let h = &self.workers[w];
            if h.alive.load(Ordering::Relaxed)
                && h.last_seen.lock().unwrap().elapsed() > self.cfg.heartbeat_timeout
            {
                self.mark_dead(w);
            }
        }
    }

    /// Marks a worker dead: closes its socket (unblocking its reader)
    /// and counts the death. Idempotent.
    fn mark_dead(&self, w: usize) {
        let h = &self.workers[w];
        if !h.alive.swap(false, Ordering::Relaxed) {
            return;
        }
        self.counters.worker_deaths.inc();
        self.counters.workers_live.sub(1);
        if let Ok(s) = h.writer.lock() {
            s.shutdown(std::net::Shutdown::Both).ok();
        }
    }

    /// Fires the kill-one-worker chaos hook once the configured result
    /// count is reached.
    fn maybe_chaos_kill(&self) {
        let Some(after) = self.cfg.chaos_kill_one_after else {
            return;
        };
        if self.counters.results_received.get() < after {
            return;
        }
        if !self.chaos_armed.swap(false, Ordering::Relaxed) {
            return;
        }
        // Sever the first live worker's connection without marking it
        // dead — no goodbye frames, exactly the loss of a crashed or
        // unreachable host. Its reader sees EOF, and the `Dead` event
        // it sends drives the reissue path.
        if let Some(h) = self
            .workers
            .iter()
            .find(|h| h.alive.load(Ordering::Relaxed))
        {
            h.writer
                .lock()
                .unwrap()
                .shutdown(std::net::Shutdown::Both)
                .ok();
        }
    }

    /// Sends one frame to worker `w`; `false` means the connection is
    /// broken.
    fn send(&self, w: usize, ty: FrameType, payload: &[u8]) -> bool {
        self.counters.bytes_sent.add(payload.len() as u64 + 5);
        let mut stream = self.workers[w].writer.lock().unwrap();
        write_frame(&mut *stream, ty, payload).is_ok()
    }

    /// Graceful shutdown: flushes the cache-writer queue, then sends
    /// Shutdown frames to live workers. Idempotent.
    pub fn shutdown(&self) {
        drop(self.store_tx.lock().unwrap().take());
        if let Some(handle) = self.store_join.lock().unwrap().take() {
            let _ = handle.join();
        }
        for (w, h) in self.workers.iter().enumerate() {
            if h.alive.load(Ordering::Relaxed) {
                self.send(w, FrameType::Shutdown, b"{}");
            }
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reader thread: owns the receive half, refreshes liveness, forwards
/// semantic frames, reports death on EOF/error.
fn spawn_reader(
    id: usize,
    stream: TcpStream,
    handle: Arc<WorkerHandle>,
    tx: mpsc::Sender<Event>,
    bytes_received: Counter,
) {
    std::thread::spawn(move || {
        // Buffered: a worker's flush delivers several frames in one
        // recv; read_frame then costs no syscall for most of them.
        let mut r = io::BufReader::new(stream);
        loop {
            if let Ok((ty, payload)) = read_frame(&mut r) {
                *handle.last_seen.lock().unwrap() = Instant::now();
                bytes_received.add(payload.len() as u64 + 5);
                if ty == FrameType::Heartbeat {
                    continue;
                }
                let event = if ty == FrameType::Result {
                    // Decode and hash-verify here, off the drain loop's
                    // critical path; an unparseable payload falls
                    // through as a raw frame the drain loop discards.
                    match decode_result(&payload) {
                        Some(r) => Event::Result(id, Box::new(r)),
                        None => Event::Frame(id, ty, payload),
                    }
                } else {
                    Event::Frame(id, ty, payload)
                };
                if tx.send(event).is_err() {
                    return;
                }
            } else {
                let _ = tx.send(Event::Dead(id));
                return;
            }
        }
    });
}

/// Reader-side parse of a Result payload: header fields plus the
/// self-validating load of the entry against its expected hash.
fn decode_result(payload: &[u8]) -> Option<DecodedResult> {
    let (header, entry) = split_result(payload)?;
    let hash = get_hash(&header)?;
    let field = |name: &str| {
        header
            .get(name)
            .and_then(json::Value::as_f64)
            .map_or(0, |x| x as u64)
    };
    Some(DecodedResult {
        shard: get_shard(&header),
        hash,
        micros: field("micros"),
        retries: field("retries"),
        primed: field("primed"),
        measurement: decode_measurement(hash, entry),
        entry: entry.to_string(),
    })
}

/// Splits a Result payload into its parsed JSON header and the raw
/// entry text.
fn split_result(payload: &[u8]) -> Option<(json::Value, &str)> {
    let text = std::str::from_utf8(payload).ok()?;
    let (header, entry) = text.split_once('\n')?;
    Some((json::parse(header).ok()?, entry))
}

pub(crate) fn get_shard(doc: &json::Value) -> u64 {
    doc.get("shard")
        .and_then(json::Value::as_f64)
        .map_or(0, |s| s as u64)
}

pub(crate) fn get_hash(doc: &json::Value) -> Option<u64> {
    doc.get("hash")
        .and_then(json::Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
}

fn shard_id_of(payload: &[u8]) -> u64 {
    json::parse(&String::from_utf8_lossy(payload))
        .ok()
        .map_or(0, |d| get_shard(&d))
}
