//! The coordinator: partitions each batch of cache misses into
//! hash-range shards, POSTs each to a serve replica's `/batch`, merges
//! the answers exactly-once, and reissues the shards of replicas that
//! die (lifecycle, wire and failure matrix: docs/DISTRIBUTED.md).
//!
//! Two invariants hold through every path: a job's result is merged
//! **exactly once** (content-hash dedup — a duplicate completion is
//! counted and dropped), and every entry that reaches the cache passed
//! the same self-validating decode a local store would have (a corrupt
//! wire entry is counted, discarded, and recomputed locally).
//!
//! Each replica is one keep-alive connection, read with
//! `syncperf_serve::http`, that carries up to two shards — one
//! computing, one pipelined behind it — answered in order. A replica is
//! dead for the rest of the run after a refused or timed-out dial, a
//! connection error with shards in flight, or an answer later than
//! [`DistConfig::timeout`]; a `Connection: close` answer is not a
//! death, and the next send redials.
//!
//! Whatever runs on the coordinator goes through one path that
//! batch-primes same-shape groups first (`dist.coordinator_primed_jobs`).
//! Cache consultation, checkpointing, and the index-ordered merge stay
//! in `Scheduler::run_jobs`, so distributed output is byte-identical to
//! `--jobs N` serial output by construction.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use syncperf_core::obs::{Counter, Gauge, Recorder, Snapshot};
use syncperf_sched::{
    batch_records, decode_measurement, execute_job_with_retry_primed, shard_body, shard_item,
    BackendExec, Cache, JobSpec, Scheduler,
};
use syncperf_serve::http::MAX_BODY_BYTES;
use syncperf_serve::reactor::{Poller, RDHUP, READABLE};
use syncperf_serve::{try_parse_response, ClientResponse, ParseStep};

/// Shards in flight per replica: one computing, one queued behind it.
const DEPTH: usize = 2;

/// A batch's hash range is cut into about this many chunks per live
/// replica, so the backlog can follow the fleet's real throughput.
const WAVES: usize = 8;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Addresses of the serve replicas [`Coordinator::start`] dials:
    /// the fleet.
    pub connect: Vec<String>,
    /// The deadline of every dial and every answer: a replica that
    /// misses it is dead for the rest of the run, and its shards are
    /// reissued.
    pub timeout: Duration,
    /// Chaos hook: after this many results have been received, sever
    /// the connection to one replica with shards in flight (`None` =
    /// never).
    pub chaos_kill_one_after: Option<u64>,
}

impl DistConfig {
    /// A config for the replicas at `connect`, with a 10 s timeout.
    #[must_use]
    pub fn new(connect: Vec<String>) -> Self {
        DistConfig {
            connect,
            timeout: Duration::from_secs(10),
            chaos_kill_one_after: None,
        }
    }

    /// Arms the kill-one-replica chaos hook.
    #[must_use]
    pub fn with_chaos_kill_one_after(mut self, results: u64) -> Self {
        self.chaos_kill_one_after = Some(results);
        self
    }

    /// Replaces the dial and answer timeout.
    #[must_use]
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }
}

/// Handles to every metric in a coordinator's registry, resolved once
/// at construction so the merge loop never looks a name up.
#[derive(Debug)]
struct Counters {
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
    bytes_sent: Counter,
    bytes_received: Counter,
    workers: Counter,
    workers_live: Gauge,
}

impl Counters {
    fn new(rec: &Recorder) -> Self {
        Counters {
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
            bytes_sent: rec.counter("dist.bytes_sent"),
            bytes_received: rec.counter("dist.bytes_received"),
            workers: rec.counter("dist.workers"),
            workers_live: rec.gauge_set("dist.workers_live"),
        }
    }
}

/// A point-in-time view of the numbers the coordinator observes itself
/// — the `dist.*` analog of `SchedStats`: its registry's snapshot read
/// back through [`DistStats::from_snapshot`], which works on any
/// snapshot [`Coordinator::export_into`] filled. How a replica ran what
/// it received (priming, service time, retries) is counted once, in
/// that replica's own `sched.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistStats {
    /// Jobs shipped over the wire (a reissued or resent job counts again).
    pub jobs_sent: u64,
    /// Answer records received (before dedup/validation).
    pub results_received: u64,
    /// Shards reissued after a replica death or an incomplete answer.
    pub shard_reissues: u64,
    /// Replicas declared dead.
    pub worker_deaths: u64,
    /// Wire entries that failed the self-validating decode (recomputed).
    pub corrupt_entries: u64,
    /// Results for an already-merged hash, dropped by the dedup.
    pub duplicate_results: u64,
    /// Jobs that cannot travel, executed on the coordinator.
    pub local_jobs: u64,
    /// Backlog jobs the work-conserving coordinator executed inline.
    pub coordinator_jobs: u64,
    /// Jobs the coordinator ran batch-primed, over every local path.
    pub coordinator_primed_jobs: u64,
    /// Jobs a replica did not deliver, recomputed locally.
    pub worker_errors: u64,
    /// Request bytes sent to replicas.
    pub bytes_sent: u64,
    /// Answer bytes received from replicas.
    pub bytes_received: u64,
    /// Configured replica count.
    pub workers: u64,
    /// Replicas currently alive.
    pub workers_live: u64,
}

impl DistStats {
    /// Extracts the `dist.*` counters and gauges from an obs snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        DistStats {
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
            bytes_sent: snap.counter("dist.bytes_sent"),
            bytes_received: snap.counter("dist.bytes_received"),
            workers: snap.counter("dist.workers"),
            workers_live: snap.gauge("dist.workers_live"),
        }
    }
}

/// A shard on the wire: its hashes, and whether it is a reissue (jobs
/// a reissue's answer leaves out run locally rather than travel again).
struct Shard {
    hashes: Vec<u64>,
    reissue: bool,
}

/// One replica of the fleet.
struct Replica {
    addr: String,
    /// The keep-alive connection; `None` until dialed, and after the
    /// replica closed it.
    conn: Option<TcpStream>,
    /// Answer bytes not yet parsed.
    buf: Vec<u8>,
    /// Shards sent on `conn`, answered in this order.
    inflight: VecDeque<Shard>,
    /// When the replica last made progress: its next answer is due
    /// [`DistConfig::timeout`] later.
    since: Instant,
    alive: bool,
}

/// One pending (dispatched, unmerged) job.
struct Pending {
    index: usize,
    job: JobSpec,
    /// The job's [`shard_item`], kept for reissue.
    payload: String,
}

/// One running batch's bookkeeping, threaded through the drain loop's
/// helpers.
#[derive(Default)]
struct Batch {
    /// Dispatched, unmerged jobs, by content hash.
    pending: BTreeMap<u64, Pending>,
    /// Hash-range chunks no replica holds yet: replicas refill from the
    /// front, the idle coordinator drains the back.
    backlog: VecDeque<Vec<u64>>,
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
}

/// The coordinator. Create with [`Coordinator::start`], which dials the
/// configured replicas and attaches it to a scheduler.
pub struct Coordinator {
    cfg: DistConfig,
    /// The attached scheduler's salt, carried by every shard.
    salt: String,
    /// Locked for the whole of every batch — the lock doubles as the
    /// one-batch-at-a-time guard.
    replicas: Mutex<Vec<Replica>>,
    /// Readiness of every replica connection, token = replica index.
    poller: Poller,
    /// This coordinator's own metrics registry: each `dist.*` number is
    /// counted here and nowhere else.
    registry: Recorder,
    counters: Counters,
    chaos_armed: AtomicBool,
    /// Sender half of the persistent cache-writer thread (present iff
    /// the scheduler has a cache). Validated entries are queued here so
    /// the merge loop never blocks on the filesystem;
    /// [`Coordinator::shutdown`] drops the sender and joins the writer,
    /// flushing every queued entry to disk.
    store_tx: Mutex<Option<mpsc::Sender<(u64, String)>>>,
    store_join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("cfg", &self.cfg)
            .field("salt", &self.salt)
            .finish()
    }
}

impl Coordinator {
    /// Starts a coordinator over the replicas in `cfg.connect` and
    /// installs it as `sched`'s execution backend and telemetry export
    /// hook: every cache miss `sched` sees is routed through
    /// [`Coordinator::run_batch`], and every export carries the
    /// `dist.*` metrics. Each replica is dialed and posted an empty
    /// shard carrying `sched`'s salt; only a 200 admits it.
    ///
    /// # Errors
    ///
    /// Fails, naming the replica, when a dial is refused or times out,
    /// or a replica answers anything but 200 (a 409 names both salts).
    pub fn start(cfg: DistConfig, sched: &Scheduler) -> io::Result<Arc<Coordinator>> {
        let registry = Recorder::enabled();
        let counters = Counters::new(&registry);
        let replicas = cfg
            .connect
            .iter()
            .map(|addr| Replica {
                addr: addr.clone(),
                conn: None,
                buf: Vec::new(),
                inflight: VecDeque::new(),
                since: Instant::now(),
                alive: true,
            })
            .collect::<Vec<_>>();
        counters.workers.add(replicas.len() as u64);
        counters.workers_live.set(replicas.len() as u64);
        // Persistent cache-writer thread: one per coordinator, not one
        // per batch, so batch completion never waits on fsync tails.
        let (store_tx, store_join) = match sched.cache() {
            Some(c) => {
                let cache = Cache::new(c.dir());
                let (stx, srx) = mpsc::channel::<(u64, String)>();
                let handle = std::thread::spawn(move || {
                    for (hash, text) in srx {
                        let _ = cache.store_raw(hash, &text);
                    }
                });
                (Some(stx), Some(handle))
            }
            None => (None, None),
        };
        let coord = Arc::new(Coordinator {
            cfg,
            salt: sched.salt().to_string(),
            replicas: Mutex::new(replicas),
            poller: Poller::new()?,
            registry,
            counters,
            chaos_armed: AtomicBool::new(true),
            store_tx: Mutex::new(store_tx),
            store_join: Mutex::new(store_join),
        });
        {
            let mut reps = coord.replicas.lock().unwrap();
            for (r, rep) in reps.iter_mut().enumerate() {
                coord
                    .check_salt(r, rep)
                    .map_err(|e| io::Error::new(e.kind(), format!("replica {}: {e}", rep.addr)))?;
            }
        }
        let c = Arc::clone(&coord);
        sched.set_exec_backend(move |todo| c.run_batch(todo));
        let c = Arc::clone(&coord);
        sched.set_export_hook(move |snap| c.export_into(snap));
        Ok(coord)
    }

    /// Dials replica `r` and posts it an empty shard, blocking for the
    /// answer: the handshake, which only a 200 passes.
    fn check_salt(&self, r: usize, rep: &mut Replica) -> io::Result<()> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        self.dial(r, rep)?;
        self.post(rep, &shard_body(&self.salt, &[]))?;
        let resp = loop {
            match try_parse_response(&rep.buf).map_err(|e| invalid(e.message().into()))? {
                ParseStep::Complete(resp, _) => break resp,
                ParseStep::Incomplete => {}
            }
            let mut chunk = [0u8; 4096];
            match rep.conn.as_mut().expect("dialed above").read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => rep.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no answer in time"))
                }
                Err(e) => return Err(e),
            }
        };
        rep.buf.clear();
        if !resp.keep_alive {
            rep.conn = None;
        }
        match resp.status {
            200 => Ok(()),
            status => Err(invalid(format!("answered {status}: {}", resp.body.trim()))),
        }
    }

    /// Opens replica `r`'s connection within the timeout and registers
    /// it with the poller.
    fn dial(&self, r: usize, rep: &mut Replica) -> io::Result<()> {
        let addr =
            rep.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "resolves to no address")
            })?;
        let stream = TcpStream::connect_timeout(&addr, self.cfg.timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.timeout))?;
        stream.set_write_timeout(Some(self.cfg.timeout))?;
        self.poller
            .add(stream.as_raw_fd(), r as u64, READABLE | RDHUP)?;
        rep.conn = Some(stream);
        rep.buf.clear();
        Ok(())
    }

    /// Writes one `POST /batch` with `body` on `rep`'s connection.
    fn post(&self, rep: &mut Replica, body: &str) -> io::Result<()> {
        let conn = rep.conn.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        let request = format!(
            "POST /batch HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            rep.addr,
            body.len()
        );
        self.counters.bytes_sent.add(request.len() as u64);
        conn.write_all(request.as_bytes())
    }

    /// Replicas currently alive.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.stats().workers_live as usize
    }

    /// A point-in-time view of the counters.
    #[must_use]
    pub fn stats(&self) -> DistStats {
        DistStats::from_snapshot(&self.registry.snapshot())
    }

    /// Merges the coordinator's registry — `dist.*` counters and the
    /// live-replica gauge — into `snap`. Wired into
    /// `Scheduler::export_into` by [`Coordinator::start`], so
    /// `--metrics`, `--metrics-addr`, and any `/metrics` endpoint pick
    /// it up automatically.
    pub fn export_into(&self, snap: &mut Snapshot) {
        snap.merge(&self.registry.snapshot());
    }

    /// Executes one batch of cache misses across the fleet. This is the
    /// [`syncperf_sched::ExecBackend`] entry point; see the module docs
    /// for the shard lifecycle.
    pub fn run_batch(&self, todo: &[(usize, JobSpec, u64)]) -> Vec<BackendExec> {
        let c = &self.counters;
        let mut reps = self.replicas.lock().unwrap();
        // Validated entries go to the writer thread (shutdown flushes it).
        let store_guard = self.store_tx.lock().unwrap();
        let store = store_guard.as_ref();

        let budget = MAX_BODY_BYTES - shard_body(&self.salt, &[]).len();
        let mut b = Batch::default();
        // A replica may have closed an idle connection since the last
        // batch: reading its EOF now makes the next send redial.
        let mut events = Vec::new();
        let _ = self.poller.wait(&mut events, Some(Duration::ZERO));
        for ev in &events {
            self.on_readable(&mut reps, ev.token as usize, &mut b, store);
        }
        let mut local: Vec<(usize, JobSpec, u64)> = Vec::new();
        for (index, job, hash) in todo {
            // An identical job submitted twice in one batch runs locally
            // rather than double-issue, as does a job with no wire
            // encoding or one too large for any shard.
            let payload = (!b.pending.contains_key(hash))
                .then(|| shard_item(*hash, job))
                .flatten()
                .filter(|p| p.len() < budget);
            let Some(payload) = payload else {
                local.push((*index, job.clone(), *hash));
                continue;
            };
            let (index, job) = (*index, job.clone());
            b.pending.insert(
                *hash,
                Pending {
                    index,
                    job,
                    payload,
                },
            );
        }

        // Cut the pending map (hash-ordered) into small contiguous
        // chunks, each shard body within serve's request limit. Each
        // live replica gets one, then a second queued behind it; the
        // rest wait in a backlog that replicas drain from the front and
        // the coordinator from the back.
        let live = reps.iter().filter(|r| r.alive).count();
        let n = b.pending.len();
        let per = n
            .div_ceil(live.max(1) * WAVES)
            .max(4.min(n.div_ceil(live.max(1))));
        let (mut chunk, mut bytes) = (Vec::new(), 0);
        for (&hash, p) in &b.pending {
            if chunk.len() == per || bytes + p.payload.len() + 1 > budget {
                b.backlog.push_back(std::mem::take(&mut chunk));
                bytes = 0;
            }
            chunk.push(hash);
            bytes += p.payload.len() + 1;
        }
        if !chunk.is_empty() {
            b.backlog.push_back(chunk);
        }
        for depth in 1..=DEPTH {
            for r in 0..reps.len() {
                self.refill(&mut reps, r, &mut b, depth);
            }
        }

        // Jobs that cannot travel execute on the coordinator while the
        // replicas chew on their shards.
        c.local_jobs.add(local.len() as u64);
        b.out.extend(self.run_local(&local));

        // Drain until every dispatched job is merged.
        while !b.pending.is_empty() {
            // Reissue every shard a dead replica held.
            for r in 0..reps.len() {
                if !reps[r].alive {
                    let orphans: Vec<Shard> = reps[r].inflight.drain(..).collect();
                    for shard in orphans {
                        self.reissue(&mut reps, shard.hashes, &mut b);
                    }
                }
            }
            // A dead fleet leaves the backlog to the coordinator.
            if !reps.iter().any(|r| r.alive) {
                let stranded: Vec<u64> = b.backlog.drain(..).flatten().collect();
                let jobs = b.take(stranded);
                b.out.extend(self.run_local(&jobs));
            }
            if b.pending.is_empty() {
                break;
            }

            // Work-conserving coordinator: when no answer is waiting,
            // run the backlog's last chunk inline instead of blocking,
            // so the split self-balances with the fleet's throughput.
            events.clear();
            let _ = self.poller.wait(&mut events, Some(Duration::ZERO));
            if events.is_empty() {
                if let Some(chunk) = b.backlog.pop_back() {
                    let jobs = b.take(chunk);
                    c.coordinator_jobs.add(jobs.len() as u64);
                    b.out.extend(self.run_local(&jobs));
                    continue;
                }
                let _ = self
                    .poller
                    .wait(&mut events, Some(Duration::from_millis(100)));
            }
            for ev in &events {
                self.on_readable(&mut reps, ev.token as usize, &mut b, store);
            }
            // Shards in flight need their connection, and an answer in time.
            for rep in reps.iter_mut() {
                let lost = rep.conn.is_none() || rep.since.elapsed() > self.cfg.timeout;
                if rep.alive && !rep.inflight.is_empty() && lost {
                    self.mark_dead(rep);
                }
            }
        }
        // Every job whose wire result was unusable is recomputed here,
        // together, so a same-shape set of them primes like any other
        // local work.
        let redo = std::mem::take(&mut b.redo);
        b.out.extend(self.run_local(&redo));
        b.out
    }

    /// Reads what replica `r` sent and merges every complete answer.
    /// An EOF or error with shards in flight is a death; with none in
    /// flight the replica closed an idle connection, which the next
    /// send redials.
    fn on_readable(
        &self,
        reps: &mut [Replica],
        r: usize,
        b: &mut Batch,
        store: Option<&mpsc::Sender<(u64, String)>>,
    ) {
        let rep = &mut reps[r];
        let Some(conn) = rep.conn.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        match conn.read(&mut chunk) {
            Ok(n) if n > 0 => {
                self.counters.bytes_received.add(n as u64);
                rep.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
            _ if rep.inflight.is_empty() => {
                rep.conn = None;
                return;
            }
            _ => {
                self.mark_dead(rep);
                return;
            }
        }
        // Answers come back in request order. A stream that does not
        // parse makes no progress, and the timeout kills the replica.
        let mut answers: Vec<(Shard, ClientResponse)> = Vec::new();
        let mut closed = false;
        while !closed {
            let Ok(ParseStep::Complete(resp, used)) = try_parse_response(&rep.buf) else {
                break;
            };
            let Some(shard) = rep.inflight.pop_front() else {
                break;
            };
            rep.buf.drain(..used);
            rep.since = Instant::now();
            closed = !resp.keep_alive;
            answers.push((shard, resp));
        }
        // Not a death: what was queued behind a `Connection: close`
        // answer goes out again on a fresh connection.
        let resend: Vec<Shard> = if closed {
            rep.conn = None;
            rep.inflight.drain(..).collect()
        } else {
            Vec::new()
        };
        for (shard, resp) in answers {
            self.merge(reps, shard, &resp, b, store);
        }
        for shard in resend {
            self.send(reps, r, shard, b);
        }
        self.refill(reps, r, b, DEPTH);
        self.maybe_chaos_kill(reps);
    }

    /// Merges one answer to `shard`: exactly-once dedup against the
    /// pending map, the self-validating decode of every entry, then
    /// handoff to the store thread. Jobs a 200 leaves out are reissued
    /// (or, for a reissue, recomputed here); any other status means the
    /// replica ran none of the shard, and all of it is recomputed here.
    fn merge(
        &self,
        reps: &mut [Replica],
        shard: Shard,
        resp: &ClientResponse,
        b: &mut Batch,
        store: Option<&mpsc::Sender<(u64, String)>>,
    ) {
        let c = &self.counters;
        if resp.status == 200 {
            for (hash, entry) in batch_records(&resp.body) {
                c.results_received.inc();
                let Some(p) = b.pending.get(&hash) else {
                    // Already merged (an overlapping answer): dedup.
                    c.duplicate_results.inc();
                    continue;
                };
                let validated = decode_measurement(hash, entry).filter(|m| {
                    m.kernel_name == p.job.kernel_name() && m.params == *p.job.params()
                });
                let Some(m) = validated else {
                    // The bytes failed the same self-validating load a
                    // local cache read would apply (or named the wrong
                    // job): count, discard, recompute.
                    c.corrupt_entries.inc();
                    let jobs = b.take([hash]);
                    b.redo.extend(jobs);
                    continue;
                };
                let stored = store.is_some_and(|tx| tx.send((hash, entry.to_string())).is_ok());
                let p = b.pending.remove(&hash).expect("checked above");
                b.out.push(BackendExec {
                    index: p.index,
                    hash,
                    result: Ok(m),
                    stored,
                });
            }
        }
        let missing: Vec<u64> = shard
            .hashes
            .into_iter()
            .filter(|h| b.pending.contains_key(h))
            .collect();
        if resp.status == 200 && !shard.reissue {
            self.reissue(reps, missing, b);
        } else {
            let jobs = b.take(missing);
            c.worker_errors.add(jobs.len() as u64);
            b.redo.extend(jobs);
        }
    }

    /// Tops replica `r` up from the front of the backlog until it holds
    /// `depth` shards.
    fn refill(&self, reps: &mut [Replica], r: usize, b: &mut Batch, depth: usize) {
        while reps[r].alive && reps[r].inflight.len() < depth {
            let Some(hashes) = b.backlog.pop_front() else {
                return;
            };
            let reissue = false;
            self.send(reps, r, Shard { hashes, reissue }, b);
        }
    }

    /// Reissues `hashes`, those still unmerged, as a fresh shard to the
    /// least-loaded live replica, or runs them locally when the fleet
    /// is gone.
    fn reissue(&self, reps: &mut [Replica], mut hashes: Vec<u64>, b: &mut Batch) {
        hashes.retain(|h| b.pending.contains_key(h));
        if hashes.is_empty() {
            return;
        }
        self.counters.shard_reissues.inc();
        let load = |rep: &Replica| rep.inflight.iter().map(|s| s.hashes.len()).sum::<usize>();
        let target = (0..reps.len())
            .filter(|&r| reps[r].alive)
            .min_by_key(|&r| load(&reps[r]));
        let Some(r) = target else {
            let jobs = b.take(hashes);
            b.out.extend(self.run_local(&jobs));
            return;
        };
        let reissue = true;
        self.send(reps, r, Shard { hashes, reissue }, b);
    }

    /// Posts the unmerged part of `shard` to replica `r`, dialing first
    /// when it holds no connection. The shard joins the replica's queue
    /// either way: a failed dial or send kills the replica, and the next
    /// drain-loop pass reissues its queue.
    fn send(&self, reps: &mut [Replica], r: usize, mut shard: Shard, b: &Batch) {
        shard.hashes.retain(|h| b.pending.contains_key(h));
        if shard.hashes.is_empty() {
            return;
        }
        let items: Vec<&str> = shard
            .hashes
            .iter()
            .map(|h| b.pending[h].payload.as_str())
            .collect();
        let body = shard_body(&self.salt, &items);
        let rep = &mut reps[r];
        if rep.inflight.is_empty() {
            rep.since = Instant::now();
        }
        let sent = rep.alive
            && (rep.conn.is_some() || self.dial(r, rep).is_ok())
            && self.post(rep, &body).is_ok();
        self.counters.jobs_sent.add(shard.hashes.len() as u64);
        rep.inflight.push_back(shard);
        if !sent {
            self.mark_dead(rep);
        }
    }

    /// Runs jobs on the coordinator: batch-primes their same-shape
    /// groups with the pool's rule ([`JobSpec::prime_groups`]), then
    /// runs each under the standard retry ladder. Every
    /// coordinator-side execution goes through here.
    fn run_local(&self, jobs: &[(usize, JobSpec, u64)]) -> Vec<BackendExec> {
        let refs: Vec<&JobSpec> = jobs.iter().map(|(_, job, _)| job).collect();
        let primed = JobSpec::prime_groups(&refs);
        self.counters
            .coordinator_primed_jobs
            .add(primed.iter().flatten().count() as u64);
        jobs.iter()
            .zip(&primed)
            .map(|(&(index, ref job, hash), pe)| BackendExec {
                index,
                hash,
                result: execute_job_with_retry_primed(job, hash, pe.as_ref(), |_| {}),
                stored: false,
            })
            .collect()
    }

    /// Marks a replica dead for the rest of the run: closes its
    /// connection and counts the death. Its queued shards stay for the
    /// drain loop to reissue. Idempotent.
    fn mark_dead(&self, rep: &mut Replica) {
        if !std::mem::replace(&mut rep.alive, false) {
            return;
        }
        rep.conn = None;
        self.counters.worker_deaths.inc();
        self.counters.workers_live.sub(1);
    }

    /// Fires the kill-one-replica chaos hook once the configured result
    /// count is reached: the first replica with shards in flight loses
    /// its connection, exactly as to a crashed or unreachable host, and
    /// the drain loop counts the death and reissues the shards.
    fn maybe_chaos_kill(&self, reps: &mut [Replica]) {
        let Some(after) = self.cfg.chaos_kill_one_after else {
            return;
        };
        if self.counters.results_received.get() < after || !self.chaos_armed.load(Ordering::Relaxed)
        {
            return;
        }
        if let Some(rep) = reps
            .iter_mut()
            .find(|rep| rep.conn.is_some() && !rep.inflight.is_empty())
        {
            rep.conn = None;
            self.chaos_armed.store(false, Ordering::Relaxed);
        }
    }

    /// Graceful shutdown: flushes the cache-writer queue and closes
    /// every replica connection (the replicas outlive the coordinator).
    /// Idempotent.
    pub fn shutdown(&self) {
        drop(self.store_tx.lock().unwrap().take());
        if let Some(handle) = self.store_join.lock().unwrap().take() {
            let _ = handle.join();
        }
        for rep in self.replicas.lock().unwrap().iter_mut() {
            rep.conn = None;
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}
