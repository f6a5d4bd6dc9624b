//! The query service proper: a nonblocking `epoll` event loop over
//! `std::net::TcpListener` (see [`crate::reactor`] for why that
//! design), request routing, and the compute-on-miss path offloaded
//! to a bounded blocking worker pool.
//!
//! One reactor thread owns every connection: nonblocking accept,
//! incremental request parsing ([`crate::http::try_parse`]),
//! per-request read/write deadlines, and a connection cap that sheds
//! load with `503 + Retry-After` at accept time. Only `/compute` misses
//! and `/batch` shards leave the reactor — they are queued to one
//! compute thread per scheduler worker (measurements block for
//! milliseconds to seconds) and their responses return through a
//! completion queue + [`crate::reactor::Waker`].

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use syncperf_core::obs::{self, Counter, FlightRecorder, Histogram, Recorder, Snapshot};
use syncperf_core::Measurement;
use syncperf_sched::cache::encode_measurement;
use syncperf_sched::codec::{decode_shard, push_batch_record, ShardError};
use syncperf_sched::{hash::hex16, hash::parse_hex16, JobSpec, Scheduler};

use crate::http::{render_response, try_parse, ParseStep, Request, Response};
use crate::index::{Index, Query};
use crate::inflight::{Claim, Inflight};
use crate::reactor::{Event, Poller, Waker, RDHUP, READABLE, WRITABLE};

/// The fixed endpoint label set request counters and latency
/// histograms are split by (`other` absorbs unknown paths and parse
/// failures). Metric names embed these labels:
/// `serve.endpoint.<label>.requests` / `serve.endpoint.<label>.latency_us`.
pub const ENDPOINT_LABELS: [&str; 11] = [
    "healthz", "stats", "metrics", "events", "query", "job", "figure", "compute", "batch",
    "shutdown", "other",
];

/// Classifies a request path into one of [`ENDPOINT_LABELS`].
#[must_use]
pub fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "healthz",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/events" => "events",
        "/query" => "query",
        "/compute" => "compute",
        "/batch" => "batch",
        "/shutdown" => "shutdown",
        p if p.starts_with("/job/") => "job",
        p if p.starts_with("/figure/") => "figure",
        _ => "other",
    }
}

/// A parsed `POST /compute` request body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComputeRequest {
    /// Executor kind: `cpu-sim` or `gpu-sim` (real-thread jobs are
    /// host-scoped and not served remotely).
    pub executor: String,
    /// Full kernel name (e.g. `omp_atomicadd_scalar_int`).
    pub kernel: String,
    /// Thread count (CPU: team size; GPU: threads per block).
    pub threads: u32,
    /// Block count (GPU; ignored for CPU kernels).
    pub blocks: Option<u32>,
    /// Affinity label (`spread`, `close`, `system`).
    pub affinity: Option<String>,
    /// Measured loop iterations (resolver default when absent).
    pub n_iter: Option<u32>,
    /// Unrolled ops per iteration (resolver default when absent).
    pub n_unroll: Option<u32>,
}

impl ComputeRequest {
    /// Parses a request from its JSON body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed bodies.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let v = syncperf_core::obs::json::parse(body).map_err(|e| format!("bad JSON: {e:?}"))?;
        let get_str = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        let get_u32 = |k: &str| -> Result<Option<u32>, String> {
            match v.get(k) {
                None => Ok(None),
                Some(x) => {
                    let f = x
                        .as_f64()
                        .ok_or_else(|| format!("`{k}` must be a number"))?;
                    if f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f <= f64::from(u32::MAX) {
                        Ok(Some(f as u32))
                    } else {
                        Err(format!("`{k}` must be a non-negative integer"))
                    }
                }
            }
        };
        Ok(ComputeRequest {
            executor: get_str("executor").ok_or("missing `executor`")?,
            kernel: get_str("kernel").ok_or("missing `kernel`")?,
            threads: get_u32("threads")?.ok_or("missing `threads`")?,
            blocks: get_u32("blocks")?,
            affinity: get_str("affinity"),
            n_iter: get_u32("n_iter")?,
            n_unroll: get_u32("n_unroll")?,
        })
    }
}

/// Maps a [`ComputeRequest`] to a concrete [`JobSpec`], or `None`
/// when the kernel/executor combination is unknown. The bench crate
/// supplies a resolver over its kernel registry.
pub type Resolver = Box<dyn Fn(&ComputeRequest) -> Option<JobSpec> + Send + Sync>;

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Directory figure CSV/SVG files are served from.
    pub results_dir: PathBuf,
    /// On-disk cache size budget in bytes (`None` = unbounded).
    pub cache_bytes: Option<u64>,
    /// Per-request read/write deadline: a request whose bytes stall
    /// longer than this (slowloris included) is evicted, as is a
    /// response write the peer refuses to drain.
    pub request_timeout: Duration,
    /// How long a deduplicated `/compute` waits for the owning
    /// computation before answering 503.
    pub compute_patience: Duration,
    /// Connection cap: accepts beyond this are answered `503` with a
    /// `Retry-After` header and closed immediately.
    pub max_connections: usize,
    /// How often the reactor re-scans the cache directory for entries
    /// written (or evicted) by other replicas sharing it.
    pub index_refresh: Duration,
    /// The scheduler computes run on (its cache dir is the index's
    /// source of truth). The server runs one compute thread per
    /// scheduler worker, so its worker count is the one parallelism
    /// setting.
    pub scheduler: Arc<Scheduler>,
    /// Compute-request resolver.
    pub resolver: Resolver,
    /// Recorder the `serve.*` counters register in.
    pub recorder: Recorder,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("results_dir", &self.results_dir)
            .field("cache_bytes", &self.cache_bytes)
            .field("max_connections", &self.max_connections)
            .finish()
    }
}

impl ServeConfig {
    /// A config with sensible defaults: 10 s deadlines, 2048
    /// connections, a 500 ms replica re-scan, an unbounded cache,
    /// serving figures from `results_dir`.
    #[must_use]
    pub fn new(scheduler: Arc<Scheduler>, resolver: Resolver) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            results_dir: PathBuf::from("results"),
            cache_bytes: None,
            request_timeout: Duration::from_secs(10),
            compute_patience: Duration::from_secs(60),
            max_connections: 2048,
            index_refresh: Duration::from_millis(500),
            scheduler,
            resolver,
            // Not the process-global recorder: that one is disabled
            // unless tracing was installed, and /stats (plus the CI
            // smoke test) needs these counters live unconditionally.
            recorder: Recorder::enabled(),
        }
    }
}

/// The `serve.*` counter/histogram family.
#[derive(Debug, Clone)]
struct Counters {
    requests: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    computes: Counter,
    dedup_waits: Counter,
    evictions: Counter,
    errors: Counter,
    /// Connections rejected at accept time by the connection cap.
    rejected: Counter,
    /// Connections evicted by a read/write deadline.
    timeouts: Counter,
    /// All-endpoint request latency (`serve.latency_us`).
    latency_us: Histogram,
    /// Per-endpoint request counter + latency histogram, one row per
    /// [`ENDPOINT_LABELS`] entry.
    endpoints: Vec<(&'static str, Counter, Histogram)>,
}

impl Counters {
    fn new(rec: &Recorder) -> Self {
        Counters {
            requests: rec.counter("serve.requests"),
            cache_hits: rec.counter("serve.cache_hits"),
            cache_misses: rec.counter("serve.cache_misses"),
            computes: rec.counter("serve.computes"),
            dedup_waits: rec.counter("serve.dedup_waits"),
            evictions: rec.counter("serve.evictions"),
            errors: rec.counter("serve.errors"),
            rejected: rec.counter("serve.rejected"),
            timeouts: rec.counter("serve.timeouts"),
            latency_us: rec.histogram("serve.latency_us"),
            endpoints: ENDPOINT_LABELS
                .iter()
                .map(|&label| {
                    (
                        label,
                        rec.counter(&format!("serve.endpoint.{label}.requests")),
                        rec.histogram(&format!("serve.endpoint.{label}.latency_us")),
                    )
                })
                .collect(),
        }
    }

    /// Records one finished request against the overall and
    /// per-endpoint series.
    fn observe_request(&self, label: &str, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        self.latency_us.observe(us);
        if let Some((_, counter, hist)) = self.endpoints.iter().find(|(l, _, _)| *l == label) {
            counter.inc();
            hist.observe(us);
        }
    }
}

/// A point-in-time view of the `serve.*` counters, recoverable from
/// any obs [`Snapshot`] the way [`syncperf_sched::SchedStats`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests handled (all endpoints).
    pub requests: u64,
    /// `/job` + `/query` + `/compute` answers served from the index.
    pub cache_hits: u64,
    /// Lookups that found nothing cached.
    pub cache_misses: u64,
    /// Scheduler computations dispatched by `/compute`.
    pub computes: u64,
    /// `/compute` requests deduplicated onto another request's
    /// in-flight computation.
    pub dedup_waits: u64,
    /// Cache entries evicted by the size budget.
    pub evictions: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Connections shed by the connection cap (`503 + Retry-After`).
    pub rejected: u64,
    /// Connections evicted by a read/write deadline.
    pub timeouts: u64,
}

impl ServeStats {
    /// Extracts the `serve.*` counters from an obs snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        ServeStats {
            requests: snap.counter("serve.requests"),
            cache_hits: snap.counter("serve.cache_hits"),
            cache_misses: snap.counter("serve.cache_misses"),
            computes: snap.counter("serve.computes"),
            dedup_waits: snap.counter("serve.dedup_waits"),
            evictions: snap.counter("serve.evictions"),
            errors: snap.counter("serve.errors"),
            rejected: snap.counter("serve.rejected"),
            timeouts: snap.counter("serve.timeouts"),
        }
    }
}

/// Work that leaves the reactor for the blocking pool.
enum Work {
    /// A `/compute` miss: the job and its hash.
    Compute(Box<JobSpec>, u64),
    /// A `/batch` shard: its `(hash, job)` items, in request order.
    Batch(Vec<(u64, JobSpec)>),
}

/// A request's [`Work`], queued to the blocking pool.
struct ComputeTask {
    token: u64,
    work: Work,
    keep_alive: bool,
    line: String,
    start: Instant,
}

/// A finished compute, traveling back to the reactor.
struct Done {
    token: u64,
    resp: Response,
    keep_alive: bool,
    line: String,
    start: Instant,
}

struct Shared {
    index: Arc<Index>,
    inflight: Arc<Inflight>,
    scheduler: Arc<Scheduler>,
    resolver: Resolver,
    results_dir: PathBuf,
    counters: Counters,
    recorder: Recorder,
    flight: FlightRecorder,
    compute_patience: Duration,
    shutdown: AtomicBool,
    /// Live connection count (gauge `serve.connections`).
    connections: AtomicU64,
    /// Finished computes awaiting reactor pickup.
    completions: Mutex<Vec<Done>>,
    waker: Waker,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("results_dir", &self.results_dir)
            .finish()
    }
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGTERM.load(Ordering::SeqCst)
    }
}

/// SIGTERM sets this process-global flag; every running server polls
/// it alongside its own shutdown flag.
static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that requests graceful shutdown of all
/// servers in the process. Uses the libc `signal` symbol std already
/// links; a no-op on non-unix targets.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigterm(_sig: i32) {
            SIGTERM.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM_NO: i32 = 15;
        unsafe {
            signal(SIGTERM_NO, on_sigterm);
        }
    }
}

/// A running server: the bound address, the reactor thread, and the
/// compute pool.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Builds the index from the scheduler's cache, binds the
    /// listener, and starts the reactor + compute pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and poller-creation errors.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let cache = cfg.scheduler.cache().cloned().unwrap_or_else(|| {
            syncperf_sched::Cache::new(cfg.scheduler.config().cache_dir.clone())
        });
        let index = Index::build(cache, cfg.cache_bytes);
        let inflight = Inflight::new();
        let counters = Counters::new(&cfg.recorder);

        // Incremental index updates + eviction ride the scheduler's
        // store hook, so entries written by /compute (or by any other
        // user of this scheduler) become queryable immediately.
        {
            let index = Arc::clone(&index);
            let inflight = Arc::clone(&inflight);
            let evictions = counters.evictions.clone();
            cfg.scheduler.set_store_hook(move |hash, m| {
                index.insert(hash, m);
                let n = index.evict_to_budget(&|h| inflight.contains(h));
                evictions.add(n);
            });
        }
        // Enforce the budget over pre-existing entries right away.
        counters
            .evictions
            .add(index.evict_to_budget(&|h| inflight.contains(h)));

        // Always-on flight recorder: the last ~1k annotated events,
        // auto-dumped for post-mortems when the process panics (and by
        // [`Server::wait`] on SIGTERM).
        let flight = FlightRecorder::default();
        flight.install_panic_dump(
            cfg.results_dir
                .join(format!("flightrec-{}.jsonl", std::process::id())),
        );

        let shared = Arc::new(Shared {
            index,
            inflight,
            scheduler: cfg.scheduler,
            resolver: cfg.resolver,
            results_dir: cfg.results_dir,
            counters,
            recorder: cfg.recorder,
            flight,
            compute_patience: cfg.compute_patience,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        });

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        shared
            .flight
            .record("lifecycle", format!("listening on {addr}"));

        let (tx, rx) = mpsc::channel::<ComputeTask>();
        let rx = Arc::new(Mutex::new(rx));
        // Each compute thread runs one-job measurements, so each is
        // worker 0 of its own call and the scheduler's helpers never
        // start: the scheduler's worker count sizes this pool.
        let workers = (0..shared.scheduler.effective_workers())
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || compute_worker(&rx, &shared))
            })
            .collect();

        let loop_cfg = LoopConfig {
            request_timeout: cfg.request_timeout.max(Duration::from_millis(10)),
            compute_patience: cfg.compute_patience,
            max_connections: cfg.max_connections.max(1),
            index_refresh: cfg.index_refresh.max(Duration::from_millis(10)),
        };
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                if let Err(e) = event_loop(&listener, &shared, &loop_cfg, &tx) {
                    shared
                        .flight
                        .record("lifecycle", format!("reactor failed: {e}"));
                    shared.shutdown.store(true, Ordering::SeqCst);
                }
            })
        };
        Ok(Server {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound socket address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The measurement index (tests assert consistency through this;
    /// everything request-facing goes through the endpoints).
    #[must_use]
    pub fn index(&self) -> Arc<Index> {
        Arc::clone(&self.shared.index)
    }

    /// Whether shutdown has been requested (via [`Server::shutdown`],
    /// `/shutdown`, or SIGTERM).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Requests graceful shutdown and joins the reactor + compute
    /// pool: the reactor stops accepting and exits, workers finish
    /// their current measurement and exit.
    pub fn shutdown(mut self) {
        self.shared.flight.record("lifecycle", "shutdown");
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Blocks until shutdown is requested, then joins the workers. A
    /// SIGTERM-triggered exit also dumps every installed flight
    /// recorder to its `results/flightrec-<pid>.jsonl` post-mortem
    /// file, same as a panic would.
    pub fn wait(self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        if SIGTERM.load(Ordering::SeqCst) {
            self.shared.flight.record("lifecycle", "sigterm");
            obs::flight::dump_installed();
        }
        self.shutdown();
    }
}

/// Requests served per connection before the server forces a close — a
/// fairness bound so one chatty client cannot monopolize the loop, and
/// load-balancing churn for replica fleets behind a dumb balancer.
const MAX_REQUESTS_PER_CONNECTION: u32 = 128;

/// Reactor-internal configuration (the subset of [`ServeConfig`] the
/// event loop needs, with floors applied).
#[derive(Debug, Clone, Copy)]
struct LoopConfig {
    request_timeout: Duration,
    compute_patience: Duration,
    max_connections: usize,
    index_refresh: Duration,
}

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-connection state machine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// Draining a queued response.
    Writing,
    /// A compute worker owns the pending response.
    Computing,
}

/// One nonblocking connection.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (partial or pipelined requests).
    buf: Vec<u8>,
    /// Response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    out_pos: usize,
    /// Requests served on this connection.
    served: u32,
    /// Absolute deadline of the current phase; expiry evicts.
    deadline: Instant,
    state: ConnState,
    close_after_write: bool,
    /// Current epoll interest bits (to skip redundant `modify`s).
    interest: u32,
}

/// Whether a [`pump`] pass keeps the connection alive.
#[derive(Debug, PartialEq, Eq)]
enum Keep {
    Yes,
    /// Close and deregister the connection.
    No,
}

fn event_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    cfg: &LoopConfig,
    compute_tx: &mpsc::Sender<ComputeTask>,
) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, READABLE)?;
    poller.add(shared.waker.read_fd(), WAKER_TOKEN, READABLE)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut last_refresh = Instant::now();

    while !shared.shutting_down() {
        // Sleep until the next deadline (or a 50 ms tick for shutdown
        // responsiveness and the replica re-scan).
        let now = Instant::now();
        let mut timeout = Duration::from_millis(50);
        for c in conns.values() {
            timeout = timeout.min(c.deadline.saturating_duration_since(now));
        }
        events.clear();
        poller.wait(&mut events, Some(timeout))?;

        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => {
                    accept_ready(listener, &poller, &mut conns, &mut next_token, shared, cfg);
                }
                WAKER_TOKEN => shared.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let keep = on_conn_event(conn, ev, &poller, shared, cfg, compute_tx, token);
                    if keep == Keep::No {
                        drop_conn(&poller, &mut conns, token, shared);
                    }
                }
            }
        }

        deliver_completions(&poller, &mut conns, shared, cfg, compute_tx);
        sweep_deadlines(&poller, &mut conns, shared);

        if last_refresh.elapsed() >= cfg.index_refresh {
            last_refresh = Instant::now();
            let (added, removed) = shared.index.refresh();
            if added > 0 || removed > 0 {
                shared
                    .flight
                    .record("index", format!("replica re-scan: +{added} -{removed}"));
                let n = shared
                    .index
                    .evict_to_budget(&|h| shared.inflight.contains(h));
                shared.counters.evictions.add(n);
            }
        }
    }
    shared.connections.store(0, Ordering::Relaxed);
    Ok(())
}

/// Accepts until the listener would block; over-cap peers get an
/// immediate best-effort `503 + Retry-After` and a close.
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Arc<Shared>,
    cfg: &LoopConfig,
) {
    use std::os::fd::AsRawFd;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= cfg.max_connections {
                    shared.counters.rejected.inc();
                    shared.flight.record("http", "503 connection cap reached");
                    let resp =
                        Response::error(503, "server at connection capacity").with_retry_after(1);
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.write(&render_response(&resp, false));
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let interest = READABLE | RDHUP;
                if poller.add(stream.as_raw_fd(), token, interest).is_err() {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        served: 0,
                        deadline: Instant::now() + cfg.request_timeout,
                        state: ConnState::Reading,
                        close_after_write: false,
                        interest,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break, // WouldBlock or transient accept failure
        }
    }
    shared
        .connections
        .store(conns.len() as u64, Ordering::Relaxed);
}

fn drop_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64, shared: &Arc<Shared>) {
    use std::os::fd::AsRawFd;
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.delete(conn.stream.as_raw_fd());
    }
    shared
        .connections
        .store(conns.len() as u64, Ordering::Relaxed);
}

/// One readiness notification for an established connection.
fn on_conn_event(
    conn: &mut Conn,
    ev: &Event,
    poller: &Poller,
    shared: &Arc<Shared>,
    cfg: &LoopConfig,
    compute_tx: &mpsc::Sender<ComputeTask>,
    token: u64,
) -> Keep {
    match conn.state {
        ConnState::Reading if ev.readable() => {
            if read_some(conn) == Keep::No {
                return Keep::No;
            }
            pump(conn, poller, shared, cfg, compute_tx, token)
        }
        ConnState::Writing if ev.writable() => pump(conn, poller, shared, cfg, compute_tx, token),
        // While computing, only a peer hangup matters: the response
        // would be undeliverable, so free the slot early.
        ConnState::Computing if ev.closed() => Keep::No,
        _ => {
            if ev.closed() && conn.out.is_empty() {
                return Keep::No;
            }
            Keep::Yes
        }
    }
}

/// Drains the socket's readable bytes into the connection buffer.
fn read_some(conn: &mut Conn) -> Keep {
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: a peer that spoke and left gets no reply; a
                // half-open request dies with the connection.
                return Keep::No;
            }
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Keep::Yes,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Keep::No,
        }
    }
}

/// Outcome of one nonblocking flush attempt.
#[derive(Debug, PartialEq, Eq)]
enum Flush {
    Flushed,
    Partial,
    Dead,
}

fn try_flush(conn: &mut Conn) -> Flush {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Flush::Dead,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Partial,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Dead,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Flush::Flushed
}

/// Advances a connection's state machine as far as it can go without
/// blocking: parse buffered requests, route, queue + flush responses,
/// hand computes to the pool. Returns whether the connection stays.
fn pump(
    conn: &mut Conn,
    poller: &Poller,
    shared: &Arc<Shared>,
    cfg: &LoopConfig,
    compute_tx: &mpsc::Sender<ComputeTask>,
    token: u64,
) -> Keep {
    loop {
        match conn.state {
            ConnState::Writing => match try_flush(conn) {
                Flush::Dead => return Keep::No,
                Flush::Partial => {
                    conn.deadline = Instant::now() + cfg.request_timeout;
                    return set_interest(conn, poller, WRITABLE, token);
                }
                Flush::Flushed => {
                    if conn.close_after_write {
                        return Keep::No;
                    }
                    conn.state = ConnState::Reading;
                    conn.deadline = Instant::now() + cfg.request_timeout;
                }
            },
            ConnState::Reading => match try_parse(&conn.buf) {
                Ok(ParseStep::Incomplete) => {
                    return set_interest(conn, poller, READABLE | RDHUP, token);
                }
                Ok(ParseStep::Complete(req, consumed)) => {
                    conn.buf.drain(..consumed);
                    conn.served += 1;
                    shared.counters.requests.inc();
                    let start = Instant::now();
                    let line = format!("{} {}", req.method, req.path);
                    match route(&req, shared) {
                        Routed::Done(resp) => {
                            finish_request(conn, shared, &resp, req.keep_alive, &line, start);
                        }
                        Routed::Defer(work) => {
                            let task = ComputeTask {
                                token,
                                work,
                                keep_alive: req.keep_alive,
                                line,
                                start,
                            };
                            if compute_tx.send(task).is_err() {
                                // Pool gone (shutdown): shed the request.
                                let resp = Response::error(503, "shutting down");
                                finish_request(conn, shared, &resp, false, "shed", start);
                                continue;
                            }
                            conn.state = ConnState::Computing;
                            conn.deadline = Instant::now()
                                + cfg.compute_patience
                                + cfg.request_timeout
                                + Duration::from_secs(5);
                            return set_interest(conn, poller, RDHUP, token);
                        }
                    }
                }
                Err(failure) => {
                    shared.counters.requests.inc();
                    let resp = Response::error(failure.status(), failure.message());
                    let line = format!("unparseable request ({})", failure.message());
                    finish_request(conn, shared, &resp, false, &line, Instant::now());
                }
            },
            ConnState::Computing => return Keep::Yes,
        }
    }
}

/// Updates epoll interest if it changed; a failed `modify` drops the
/// connection.
fn set_interest(conn: &mut Conn, poller: &Poller, interest: u32, token: u64) -> Keep {
    use std::os::fd::AsRawFd;
    if conn.interest == interest {
        return Keep::Yes;
    }
    if poller
        .modify(conn.stream.as_raw_fd(), token, interest)
        .is_err()
    {
        return Keep::No;
    }
    conn.interest = interest;
    Keep::Yes
}

/// Counts, records, and queues one finished response. Leaves the
/// connection in `Writing` with the bytes queued (the caller's pump
/// loop flushes).
fn finish_request(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    resp: &Response,
    client_keep_alive: bool,
    line: &str,
    start: Instant,
) {
    if resp.status >= 400 {
        shared.counters.errors.inc();
    }
    // Clean error statuses (404 miss, 400 bad params) keep the
    // connection: framing stayed intact, so reuse is safe. Parse
    // failures arrive with `client_keep_alive == false` — the buffer
    // can no longer be trusted. Shutdown also stops reuse so the
    // reactor can drain and exit promptly.
    let keep_alive =
        client_keep_alive && conn.served < MAX_REQUESTS_PER_CONNECTION && !shared.shutting_down();
    let label = request_label(line);
    let elapsed = start.elapsed();
    shared.counters.observe_request(label, elapsed);
    shared.flight.record(
        "http",
        format!("{line} -> {} in {}us", resp.status, elapsed.as_micros()),
    );
    conn.out
        .extend_from_slice(&render_response(resp, keep_alive));
    conn.close_after_write = !keep_alive;
    conn.state = ConnState::Writing;
    conn.deadline = start + Duration::from_secs(10).max(elapsed);
}

/// Recovers the endpoint label from a recorded `METHOD /path` line.
fn request_label(line: &str) -> &'static str {
    line.split_ascii_whitespace()
        .nth(1)
        .map_or("other", endpoint_label)
}

/// Hands every queued compute completion back to its connection (if
/// it still exists — deadline eviction may have won the race).
fn deliver_completions(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    shared: &Arc<Shared>,
    cfg: &LoopConfig,
    compute_tx: &mpsc::Sender<ComputeTask>,
) {
    let done: Vec<Done> = std::mem::take(&mut *shared.completions.lock().unwrap());
    for d in done {
        let Some(conn) = conns.get_mut(&d.token) else {
            continue; // evicted or hung up while computing
        };
        if conn.state != ConnState::Computing {
            continue;
        }
        finish_request(conn, shared, &d.resp, d.keep_alive, &d.line, d.start);
        let keep = pump(conn, poller, shared, cfg, compute_tx, d.token);
        if keep == Keep::No {
            drop_conn(poller, conns, d.token, shared);
        }
    }
}

/// Evicts every connection whose phase deadline has passed.
fn sweep_deadlines(poller: &Poller, conns: &mut HashMap<u64, Conn>, shared: &Arc<Shared>) {
    let now = Instant::now();
    let expired: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| c.deadline <= now)
        .map(|(t, _)| *t)
        .collect();
    for token in expired {
        let Some(conn) = conns.get_mut(&token) else {
            continue;
        };
        let idle_keep_alive =
            conn.state == ConnState::Reading && conn.buf.is_empty() && conn.served > 0;
        if idle_keep_alive {
            // A keep-alive peer that finished its business: close
            // quietly, this is not an error.
            shared.flight.record("http", "idle keep-alive closed");
        } else {
            shared.counters.timeouts.inc();
            shared.flight.record(
                "http",
                format!(
                    "connection evicted by deadline ({:?}, {} buffered, {} served)",
                    conn.state,
                    conn.buf.len(),
                    conn.served
                ),
            );
            // A mid-request stall gets a best-effort 408; a slowloris
            // that never sent a byte gets a bare close.
            if conn.state == ConnState::Reading && !conn.buf.is_empty() {
                let resp = Response::error(408, "request timed out");
                let _ = conn.stream.write(&render_response(&resp, false));
            }
        }
        drop_conn(poller, conns, token, shared);
    }
}

/// The blocking compute-pool worker: pull a task, run the single-
/// writer claim protocol + measurement, queue the completion, wake
/// the reactor.
fn compute_worker(rx: &Arc<Mutex<mpsc::Receiver<ComputeTask>>>, shared: &Arc<Shared>) {
    loop {
        // Holding the lock across `recv` is fine: exactly one idle
        // worker sleeps in `recv` while the rest queue on the mutex,
        // and each task wakes exactly one of them.
        let task = {
            let rx = rx.lock().unwrap();
            rx.recv()
        };
        let Ok(task) = task else {
            return; // sender dropped: reactor exited
        };
        let resp = match task.work {
            Work::Compute(job, hash) => compute_response(shared, &job, hash),
            Work::Batch(shard) => batch_response(shared, shard),
        };
        shared.completions.lock().unwrap().push(Done {
            token: task.token,
            resp,
            keep_alive: task.keep_alive,
            line: task.line,
            start: task.start,
        });
        shared.waker.wake();
    }
}

/// How routing answered a request: inline, or deferred to the pool.
enum Routed {
    Done(Response),
    Defer(Work),
}

fn route(req: &Request, shared: &Arc<Shared>) -> Routed {
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/stats") => stats_response(shared),
        ("GET", "/metrics") => metrics_response(&telemetry_snapshot(shared)),
        ("GET", "/events") => events_response(req, shared),
        ("GET" | "POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, "{\"shutting_down\": true}\n")
        }
        ("GET", "/query") => handle_query(req, shared),
        ("POST", "/compute") => return handle_compute(req, shared),
        ("POST", "/batch") => {
            return parse_shard(&req.body, &shared.scheduler)
                .map_or_else(Routed::Done, Routed::Defer)
        }
        ("GET", path) if path.starts_with("/job/") => handle_job(&path[5..], shared),
        ("GET", path) if path.starts_with("/figure/") => handle_figure(&path[8..], shared),
        ("GET", _) => Response::error(404, "no such endpoint"),
        (_, "/query" | "/compute" | "/batch" | "/healthz" | "/stats" | "/metrics" | "/events") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such endpoint"),
    };
    Routed::Done(resp)
}

/// The full live snapshot behind `GET /metrics`: the server's own
/// recorder (request counters + endpoint histograms), the scheduler's
/// exported telemetry, and the index/inflight/connection gauges.
fn telemetry_snapshot(shared: &Arc<Shared>) -> Snapshot {
    use syncperf_core::obs::GaugeMode;
    let mut snap = shared.recorder.snapshot();
    shared.scheduler.export_into(&mut snap);
    for (name, v, mode) in [
        (
            "serve.index_entries",
            shared.index.len() as u64,
            GaugeMode::Set,
        ),
        (
            "serve.index_bytes",
            shared.index.total_bytes(),
            GaugeMode::Set,
        ),
        (
            "serve.inflight",
            shared.inflight.len() as u64,
            GaugeMode::Set,
        ),
        (
            "serve.connections",
            shared.connections.load(Ordering::Relaxed),
            GaugeMode::Set,
        ),
        (
            "serve.flight_events",
            shared.flight.recorded(),
            GaugeMode::Set,
        ),
    ] {
        snap.gauges.insert(name.to_string(), v);
        snap.gauge_modes.insert(name.to_string(), mode);
    }
    snap
}

/// `GET /metrics`: `snap` in Prometheus text exposition format.
fn metrics_response(snap: &Snapshot) -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: obs::metrics::render(snap),
        retry_after: None,
    }
}

/// Serves `GET /metrics` alone on `addr` from a detached thread, for a
/// process that is not a query server (`--metrics-addr` on the figure
/// binaries and `syncperf_dist`, which `syncperf_top` scrapes). Each
/// scrape answers with the response the server's own `/metrics` gives,
/// over a fresh snapshot from `make`; any other request gets the
/// server's 404 or 405. One request per connection. Returns the bound
/// address.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn metrics_endpoint(
    addr: &str,
    make: impl Fn() -> Snapshot + Send + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { continue };
            s.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let resp = match crate::http::read_request(&mut s) {
                Ok(req) => match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/metrics") => metrics_response(&make()),
                    (_, "/metrics") => Response::error(405, "method not allowed"),
                    _ => Response::error(404, "no such endpoint"),
                },
                Err(e) => Response::error(e.status(), e.message()),
            };
            let _ = s.write_all(&render_response(&resp, false));
        }
    });
    Ok(bound)
}

/// `GET /events?n=..`: the last `n` flight-recorder entries (default
/// 100) as JSONL, oldest first.
fn events_response(req: &Request, shared: &Arc<Shared>) -> Response {
    let n = match req.query_param("n") {
        None => 100,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "`n` must be a non-negative integer"),
        },
    };
    let body: String = shared
        .flight
        .tail(n)
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    Response {
        status: 200,
        content_type: "application/x-ndjson",
        body,
        retry_after: None,
    }
}

/// Renders a measurement answer. The measurement body is the cache
/// entry encoding itself, so a served answer is byte-identical to the
/// on-disk entry (and to what a scheduler recompute would produce) —
/// which is also why any replica sharing the cache directory serves
/// byte-identical responses for a cached hash.
fn measurement_response(
    hash: u64,
    m: &Measurement,
    source: &str,
    distance: Option<u32>,
) -> Response {
    let mut body = String::from("{\n");
    body.push_str(&format!("\"hash\": \"{}\",\n", hex16(hash)));
    body.push_str("\"source\": ");
    obs::json::push_string(&mut body, source);
    body.push_str(",\n");
    if let Some(d) = distance {
        body.push_str(&format!("\"distance\": {d},\n"));
    }
    body.push_str(&format!(
        "\"measurement\": {}}}\n",
        encode_measurement(hash, m)
    ));
    Response::json(200, body)
}

fn handle_job(hash_str: &str, shared: &Arc<Shared>) -> Response {
    let Some(hash) = parse_hex16(hash_str) else {
        return Response::error(400, "job hash must be 16 hex digits");
    };
    if let Some(pin) = shared.index.get(hash) {
        shared.counters.cache_hits.inc();
        measurement_response(hash, pin.measurement(), "cache", None)
    } else {
        shared.counters.cache_misses.inc();
        Response::error(404, "no cached measurement for that hash")
    }
}

fn handle_query(req: &Request, shared: &Arc<Shared>) -> Response {
    let Some(kernel) = req.query_param("kernel") else {
        return Response::error(400, "missing `kernel` parameter");
    };
    let Some(threads) = req.query_param("threads").and_then(|t| t.parse().ok()) else {
        return Response::error(400, "missing or non-numeric `threads` parameter");
    };
    let blocks = match req.query_param("blocks") {
        None => None,
        Some(b) => match b.parse() {
            Ok(b) => Some(b),
            Err(_) => return Response::error(400, "non-numeric `blocks` parameter"),
        },
    };
    let q = Query {
        kernel: kernel.to_string(),
        dtype: req.query_param("dtype").map(str::to_string),
        threads,
        blocks,
        exact: matches!(req.query_param("exact"), Some("1" | "true")),
    };
    if let Some(found) = shared.index.query(&q) {
        shared.counters.cache_hits.inc();
        measurement_response(
            found.hash,
            found.pin.measurement(),
            "cache",
            Some(found.distance),
        )
    } else {
        shared.counters.cache_misses.inc();
        Response::error(404, "no cached sweep point matches")
    }
}

fn handle_figure(name: &str, shared: &Arc<Shared>) -> Response {
    let (stem, svg) = match name.strip_suffix(".svg") {
        Some(stem) => (stem, true),
        None => (name.strip_suffix(".csv").unwrap_or(name), false),
    };
    // The allowlist is the charset: figure ids are [a-z0-9_] with no
    // separators, so nothing can escape the results directory.
    if stem.is_empty()
        || !stem
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Response::error(400, "figure names are alphanumeric/underscore only");
    }
    let ext = if svg { "svg" } else { "csv" };
    let path = shared.results_dir.join(format!("{stem}.{ext}"));
    match std::fs::read_to_string(&path) {
        Ok(body) => Response {
            status: 200,
            content_type: if svg { "image/svg+xml" } else { "text/csv" },
            body,
            retry_after: None,
        },
        Err(_) => Response::error(404, "no such figure output (regenerate it first)"),
    }
}

/// `POST /compute` routing: cache hits answer inline; misses resolve
/// to a [`JobSpec`] and defer to the compute pool.
fn handle_compute(req: &Request, shared: &Arc<Shared>) -> Routed {
    let spec = match ComputeRequest::from_json(&req.body) {
        Ok(spec) => spec,
        Err(msg) => return Routed::Done(Response::error(400, &msg)),
    };
    let Some(job) = (shared.resolver)(&spec) else {
        return Routed::Done(Response::error(
            422,
            "unknown kernel/executor combination (see /stats for counts, docs/SERVING.md for the spec format)",
        ));
    };
    let hash = shared.scheduler.job_hash(&job);

    // Fast path: already cached and indexed.
    if let Some(pin) = shared.index.get(hash) {
        shared.counters.cache_hits.inc();
        return Routed::Done(measurement_response(hash, pin.measurement(), "cache", None));
    }
    shared.counters.cache_misses.inc();
    Routed::Defer(Work::Compute(Box::new(job), hash))
}

/// The blocking half of `/compute`, run on a pool worker:
/// single-writer-per-entry via the inflight table, then the scheduler
/// measurement.
fn compute_response(shared: &Arc<Shared>, job: &JobSpec, hash: u64) -> Response {
    // The queue wait may have been long enough for someone else (or
    // another replica) to fill the cache.
    if let Some(pin) = shared.index.get(hash) {
        return measurement_response(hash, pin.measurement(), "cache", None);
    }
    loop {
        match shared.inflight.claim_or_wait(hash, shared.compute_patience) {
            Claim::Owner(guard) => {
                shared.counters.computes.inc();
                let result = shared.scheduler.measure(job.clone());
                guard.complete();
                return match result {
                    // The store hook has already indexed the entry.
                    Ok(m) => measurement_response(hash, &m, "computed", None),
                    Err(e) => Response::error(500, &format!("measurement failed: {e}")),
                };
            }
            Claim::Waited => {
                shared.counters.dedup_waits.inc();
                if let Some(pin) = shared.index.get(hash) {
                    return measurement_response(hash, pin.measurement(), "deduplicated", None);
                }
                // The owner failed (nothing landed in the index):
                // loop and claim ownership ourselves.
            }
            Claim::TimedOut => {
                return Response::error(503, "computation in flight; retry later")
                    .with_retry_after(1);
            }
        }
    }
}

/// `POST /batch` routing: decodes a dist coordinator's shard
/// ([`decode_shard`]) for the pool. Another salt is a 409 naming both,
/// a job that cannot travel a 422, and anything malformed — a job that
/// does not re-hash to its sent hash included — a 400, so no entry is
/// ever keyed by a hash its job does not have.
fn parse_shard(body: &str, sched: &Scheduler) -> Result<Work, Response> {
    let shard = decode_shard(body, sched.salt()).map_err(|e| match e {
        ShardError::Malformed(msg) => Response::error(400, msg),
        ShardError::Salt(theirs) => Response::error(
            409,
            &format!("salt mismatch: shard {theirs}, replica {}", sched.salt()),
        ),
        ShardError::CannotTravel => Response::error(422, "only model-free simulator jobs travel"),
    })?;
    for (hash, job) in &shard {
        let rehash = sched.job_hash(job);
        if rehash != *hash {
            let msg = format!("job {} re-hashes to {}", hex16(*hash), hex16(rehash));
            return Err(Response::error(400, &msg));
        }
    }
    Ok(Work::Batch(shard))
}

/// The blocking half of `/batch`, run on a pool worker: one
/// [`Scheduler::run_jobs`] call (cache, priming and stores included),
/// answered with one [`push_batch_record`] per job, in request order;
/// a failed call answers 500 for the whole shard.
fn batch_response(shared: &Arc<Shared>, shard: Vec<(u64, JobSpec)>) -> Response {
    let (hashes, jobs): (Vec<u64>, Vec<JobSpec>) = shard.into_iter().unzip();
    match shared.scheduler.run_jobs(jobs) {
        Ok(ms) => {
            let mut body = String::new();
            for (&hash, m) in hashes.iter().zip(&ms) {
                push_batch_record(&mut body, hash, &encode_measurement(hash, m));
            }
            Response::text(200, body)
        }
        Err(e) => Response::error(500, &format!("shard failed: {e}")),
    }
}

fn stats_response(shared: &Arc<Shared>) -> Response {
    let c = &shared.counters;
    let sched = shared.scheduler.stats();
    let mut body = String::from("{\n");
    body.push_str(&format!(
        "\"serve\": {{\"requests\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"computes\": {}, \"dedup_waits\": {}, \"evictions\": {}, \"errors\": {}, \
         \"rejected\": {}, \"timeouts\": {}, \"connections\": {}}},\n",
        c.requests.get(),
        c.cache_hits.get(),
        c.cache_misses.get(),
        c.computes.get(),
        c.dedup_waits.get(),
        c.evictions.get(),
        c.errors.get(),
        c.rejected.get(),
        c.timeouts.get(),
        shared.connections.load(Ordering::Relaxed),
    ));
    let lat = c.latency_us.snapshot();
    body.push_str(&format!(
        "\"latency_us\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},\n",
        lat.count(),
        lat.quantile(0.50),
        lat.quantile(0.90),
        lat.quantile(0.99),
        lat.max(),
    ));
    body.push_str(&format!(
        "\"index\": {{\"entries\": {}, \"bytes\": {}, \"budget_bytes\": {}, \"inflight\": {}}},\n",
        shared.index.len(),
        shared.index.total_bytes(),
        shared
            .index
            .budget()
            .map_or_else(|| "null".into(), |b| b.to_string()),
        shared.inflight.len(),
    ));
    body.push_str(&format!(
        "\"sched\": {{\"jobs\": {}, \"executed\": {}, \"cache_hits\": {}, \"cache_stores\": {}}}\n",
        sched.jobs, sched.executed, sched.cache_hits, sched.cache_stores,
    ));
    body.push('}');
    body.push('\n');
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_endpoint_serves_prometheus_exposition() {
        use std::io::Read as _;
        let rec = Recorder::enabled();
        rec.counter("dist.workers").add(3);
        rec.counter("dist.jobs_sent").add(42);
        let bound = metrics_endpoint("127.0.0.1:0", move || rec.snapshot()).unwrap();
        let fetch = |request: &[u8]| {
            let mut s = TcpStream::connect(bound).unwrap();
            s.write_all(request).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            reply
        };
        // Two sequential scrapes: the endpoint must survive its first client.
        for _ in 0..2 {
            let body = fetch(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body}");
            assert!(
                body.contains("Content-Type: text/plain; version=0.0.4\r\n"),
                "the server's /metrics content type, got: {body}"
            );
            assert!(body.contains("dist_workers 3"), "got: {body}");
            assert!(body.contains("dist_jobs_sent 42"), "got: {body}");
        }
        let missing = fetch(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            missing.starts_with("HTTP/1.1 404 Not Found"),
            "got: {missing}"
        );
        let wrong = fetch(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            wrong.starts_with("HTTP/1.1 405 Method Not Allowed"),
            "got: {wrong}"
        );
    }

    #[test]
    fn compute_request_parses_and_validates() {
        let spec = ComputeRequest::from_json(
            "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 8}",
        )
        .unwrap();
        assert_eq!(spec.executor, "cpu-sim");
        assert_eq!(spec.kernel, "omp_barrier");
        assert_eq!(spec.threads, 8);
        assert_eq!(spec.blocks, None);

        assert!(ComputeRequest::from_json("not json").is_err());
        assert!(ComputeRequest::from_json("{\"executor\": \"cpu-sim\"}").is_err());
        assert!(ComputeRequest::from_json(
            "{\"executor\": \"x\", \"kernel\": \"k\", \"threads\": -1}"
        )
        .is_err());
        assert!(ComputeRequest::from_json(
            "{\"executor\": \"x\", \"kernel\": \"k\", \"threads\": 1.5}"
        )
        .is_err());
    }

    #[test]
    fn serve_stats_mirror_snapshot() {
        let rec = Recorder::enabled();
        let c = Counters::new(&rec);
        c.requests.add(3);
        c.cache_hits.add(2);
        c.rejected.inc();
        c.timeouts.inc();
        c.observe_request("stats", Duration::from_micros(50));
        c.observe_request("query", Duration::from_millis(5));
        let snap = rec.snapshot();
        let stats = ServeStats::from_snapshot(&snap);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.timeouts, 1);
        assert_eq!(snap.histogram("serve.latency_us").count(), 2);
        assert_eq!(snap.histogram("serve.endpoint.stats.latency_us").count(), 1);
        assert_eq!(snap.histogram("serve.endpoint.query.latency_us").count(), 1);
        assert_eq!(snap.counter("serve.endpoint.stats.requests"), 1);
        assert_eq!(snap.counter("serve.endpoint.query.requests"), 1);
    }

    #[test]
    fn endpoint_labels_cover_every_route() {
        assert_eq!(endpoint_label("/healthz"), "healthz");
        assert_eq!(endpoint_label("/metrics"), "metrics");
        assert_eq!(endpoint_label("/events"), "events");
        assert_eq!(endpoint_label("/job/0011223344556677"), "job");
        assert_eq!(endpoint_label("/figure/fig01.csv"), "figure");
        assert_eq!(endpoint_label("/batch"), "batch");
        assert_eq!(endpoint_label("/manifest/all_figures"), "other");
        assert_eq!(endpoint_label("/nope"), "other");
        for label in [
            endpoint_label("/stats"),
            endpoint_label("/query"),
            endpoint_label("/compute"),
            endpoint_label("/batch"),
            endpoint_label("/shutdown"),
            endpoint_label("/"),
        ] {
            assert!(ENDPOINT_LABELS.contains(&label));
        }
    }

    #[test]
    fn request_labels_recover_from_flight_lines() {
        assert_eq!(request_label("GET /query"), "query");
        assert_eq!(request_label("POST /compute"), "compute");
        assert_eq!(request_label("GET /manifest/all_figures"), "other");
        assert_eq!(request_label("unparseable request (x)"), "other");
    }
}
