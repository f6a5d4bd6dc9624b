//! The scheduler proper: lowers a batch of [`JobSpec`]s onto the
//! work-stealing pool, consulting the content-addressed cache and the
//! checkpoint manifest first, and retrying faulty measurements with
//! backoff.
//!
//! The pool's unit of work is a same-shape chunk of the miss set, which
//! the worker that picks it up batch-primes and runs. Pool tasks and an
//! [`ExecBackend`] both return [`BackendExec`] records; one merge on the
//! calling thread stores them and places each by submission index.
//!
//! A process-global scheduler can be installed with [`install`]; the
//! bench sweep helpers branch on [`current`], so the serial legacy
//! path (no scheduler) stays byte-for-byte what it always was, while
//! any binary that installs a scheduler gets caching and parallelism
//! for every measurement it triggers.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use syncperf_core::obs::{Counter, Gauge, Histogram, Recorder, Snapshot};
use syncperf_core::{Measurement, Result, SyncPerfError};

use crate::cache::Cache;
use crate::checkpoint::Checkpoint;
use crate::hash::fnv1a;
use crate::job::{HeadMemo, JobSpec, PrimedEngine, Tails};
use crate::pool::{Pool, PoolWorkerStats};

/// Code-version salt folded into every job hash. Bump whenever a
/// change alters measurement semantics without changing any job field
/// (e.g. a simulator engine fix): every cached result is then invalid
/// at once.
pub const SCHED_SALT: &str = "syncperf-sched-v2";

/// Past this many entries a scheduler's head memo starts over, so a
/// long-lived server that meets ever new kernels or model overrides
/// holds a bounded memo (and bounded newest-first scans). A full paper
/// sweep fills about 200.
const HEAD_MEMO_CAP: usize = 1024;

/// Attempt budget per job: the initial execution plus up to two
/// reattempts (for transient errors or runs that exhausted the
/// protocol's own attempt budget), with exponential backoff between.
pub const MAX_EXECUTE_ATTEMPTS: u32 = 3;

/// The content hash of `job` under the scheduler's hashing scheme:
/// FNV-1a over the canonical form plus [`SCHED_SALT`] and
/// `salt_extra`. Exposed as a free function so distributed workers can
/// re-key a job received over the wire and verify it against the
/// coordinator's hash before executing it.
#[must_use]
pub fn job_hash_with_salt(job: &JobSpec, salt_extra: u64) -> u64 {
    let mut s = job.canonical();
    s.push_str(&format!("salt={SCHED_SALT}/{salt_extra}\n"));
    fnv1a(s.as_bytes())
}

/// [`execute_job_with_retry_primed`] without batch-primed engine
/// results.
///
/// # Errors
///
/// Returns the final attempt's error when the budget is exhausted.
pub fn execute_job_with_retry(
    job: &JobSpec,
    hash: u64,
    on_retry: impl FnMut(u32),
) -> Result<Measurement> {
    execute_job_with_retry_primed(job, hash, None, on_retry)
}

/// How long to wait before retrying `job` after failed attempt
/// `attempt`. A real-thread job backs off 1, 2, 4 ms … so a transient
/// disturbance of the host can pass; a simulator job retries at once,
/// because its fresh jitter seed is the whole remedy and there is
/// nothing to wait out.
fn retry_backoff(job: &JobSpec, attempt: u32) -> Option<Duration> {
    match job {
        JobSpec::RealOmp { .. } => Some(Duration::from_millis(1 << attempt)),
        JobSpec::CpuSim { .. } | JobSpec::GpuSim { .. } => None,
    }
}

/// Executes one job under the scheduler's retry policy: up to
/// [`MAX_EXECUTE_ATTEMPTS`] attempts, retrying when the result looks
/// faulty (exhausted protocol runs) or the error is transient, after
/// the job kind's backoff ([`retry_backoff`]). Attempt `k` perturbs the
/// jitter seed as `hash ^ k · 0x9E37_79B9_7F4A_7C15`, so the outcome
/// depends only on (hash, attempt) — never on which process or worker
/// ran it — which is what lets a distributed worker reproduce the
/// coordinator's results bit for bit. `on_retry` is called with the
/// failed attempt number before each retry. When `primed` is `Some`,
/// every attempt reuses the batch-evaluated engine results (they depend
/// only on the job, never on the seed), so retries stay bit-identical
/// to the unprimed path. The pool, the dist workers and the dist
/// coordinator all run jobs here.
///
/// # Errors
///
/// Returns the final attempt's error when the budget is exhausted.
pub fn execute_job_with_retry_primed(
    job: &JobSpec,
    hash: u64,
    primed: Option<&PrimedEngine>,
    mut on_retry: impl FnMut(u32),
) -> Result<Measurement> {
    let mut attempt = 0u32;
    loop {
        let seed = hash ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let run = match primed {
            Some(pe) => job.execute_primed(seed, pe),
            None => job.execute(seed),
        };
        let faulty = match &run {
            Ok(m) => m.exhausted_runs > 0,
            Err(e) => matches!(
                e,
                SyncPerfError::MeasurementUnstable { .. } | SyncPerfError::Io(_)
            ),
        };
        if !faulty || attempt + 1 >= MAX_EXECUTE_ATTEMPTS {
            return run;
        }
        on_retry(attempt);
        if let Some(wait) = retry_backoff(job, attempt) {
            std::thread::sleep(wait);
        }
        attempt += 1;
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Pool workers, the calling thread included (1 = serial on the
    /// calling thread). The `workers − 1` helper threads are kept for
    /// the scheduler's lifetime, not spawned per batch.
    pub workers: usize,
    /// Whether the on-disk result cache is consulted and filled.
    pub cache: bool,
    /// Cache directory (also holds checkpoint manifests).
    pub cache_dir: PathBuf,
    /// Run label for the checkpoint manifest (usually the binary
    /// name).
    pub label: String,
    /// Extra salt folded into every job hash on top of [`SCHED_SALT`]
    /// (test hook: bumping it must invalidate the whole cache).
    pub salt_extra: u64,
}

impl SchedConfig {
    /// A config with `workers` workers, caching on, under
    /// `<results>/.cache` — where `<results>` is `results/` or the
    /// `SYNCPERF_RESULTS` override, matching where the figure CSVs go.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let results = std::env::var_os("SYNCPERF_RESULTS")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from);
        SchedConfig {
            workers: workers.max(1),
            cache: true,
            cache_dir: results.join(".cache"),
            label: "run".to_string(),
            salt_extra: 0,
        }
    }

    /// Replaces the cache directory.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = dir.into();
        self
    }

    /// Disables the result cache (jobs always execute; nothing is
    /// stored).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache = false;
        self
    }

    /// Replaces the run label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Replaces the extra hash salt.
    #[must_use]
    pub fn with_salt_extra(mut self, salt: u64) -> Self {
        self.salt_extra = salt;
        self
    }
}

/// Handles to every metric in a scheduler's registry, resolved once at
/// construction so no hot path looks a name up.
#[derive(Debug)]
struct Counters {
    jobs: Counter,
    executed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_stores: Counter,
    steals: Counter,
    retries: Counter,
    plan_batches: Counter,
    plan_batch_points: Counter,
    plan_primed_jobs: Counter,
    plan_compile_us: Counter,
    /// Jobs per same-shape group, one observation per group.
    plan_batch_size: Histogram,
    /// Miss wait time: batch submission → a worker picking the job's
    /// chunk up (microseconds).
    wait_us: Histogram,
    /// Hit service time: how long the cache load took (microseconds).
    service_hit_us: Histogram,
    /// Miss service time: how long the execution took (microseconds).
    service_miss_us: Histogram,
    /// Jobs dispatched and not yet finished, across every overlapping
    /// [`Scheduler::run_jobs`] call.
    queue_depth: Gauge,
    /// High-water mark of `queue_depth`.
    queue_depth_peak: Gauge,
}

impl Counters {
    fn new(rec: &Recorder) -> Self {
        Counters {
            jobs: rec.counter("sched.jobs"),
            executed: rec.counter("sched.jobs_executed"),
            cache_hits: rec.counter("sched.cache_hits"),
            cache_misses: rec.counter("sched.cache_misses"),
            cache_stores: rec.counter("sched.cache_stores"),
            steals: rec.counter("sched.steals"),
            retries: rec.counter("sched.retries"),
            plan_batches: rec.counter("sched.plan_batches"),
            plan_batch_points: rec.counter("sched.plan_batch_points"),
            plan_primed_jobs: rec.counter("sched.plan_primed_jobs"),
            plan_compile_us: rec.counter("sched.plan_compile_us"),
            plan_batch_size: rec.histogram("plan.batch_size"),
            wait_us: rec.histogram("sched.wait_us"),
            service_hit_us: rec.histogram("sched.service_us.hit"),
            service_miss_us: rec.histogram("sched.service_us.miss"),
            queue_depth: rec.gauge_set("sched.queue_depth"),
            queue_depth_peak: rec.gauge("sched.queue_depth_peak"),
        }
    }
}

/// A point-in-time view of a scheduler's counters: its registry's
/// snapshot read back through [`SchedStats::from_snapshot`], which
/// works on any snapshot [`Scheduler::export_into`] filled, the way
/// `RetrySummary` reads the `protocol.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Jobs submitted (hits + misses when caching, else all executed).
    pub jobs: u64,
    /// Jobs actually executed (first attempts only).
    pub executed: u64,
    /// Jobs served from the cache.
    pub cache_hits: u64,
    /// Jobs that missed the cache (including corrupt entries).
    pub cache_misses: u64,
    /// Fresh results written to the cache.
    pub cache_stores: u64,
    /// Successful steals in the work-stealing pool.
    pub steals: u64,
    /// Reattempts after a transient error or an exhausted-run result.
    pub retries: u64,
    /// Median miss wait (batch submission → chunk pickup),
    /// microseconds.
    pub wait_us_p50: u64,
    /// p99 miss wait, microseconds.
    pub wait_us_p99: u64,
    /// Median cache-hit service time (cache load), microseconds.
    pub service_hit_us_p50: u64,
    /// p99 cache-hit service time, microseconds.
    pub service_hit_us_p99: u64,
    /// Median cache-miss service time (execution), microseconds.
    pub service_miss_us_p50: u64,
    /// p99 cache-miss service time, microseconds.
    pub service_miss_us_p99: u64,
    /// High-water mark of jobs pending in the pool at once.
    pub queue_depth_peak: u64,
    /// Same-shape parameter groups (≥ 2 jobs) detected in miss sets.
    pub plan_batches: u64,
    /// Jobs covered by those same-shape groups.
    pub plan_batch_points: u64,
    /// Jobs whose engine results were primed from a batched
    /// struct-of-arrays plan-table evaluation, whatever the recorder.
    pub plan_primed_jobs: u64,
    /// Time the pool tasks spent on batch priming (compile + evaluate)
    /// of their chunks, summed over tasks, microseconds: CPU plan-table
    /// compilation and evaluation and GPU batches alike. The
    /// compile-only number is the `plan.compile_us` histogram.
    pub plan_compile_us: u64,
}

impl SchedStats {
    /// Extracts the `sched.*` counters, histograms, and gauges from an
    /// obs snapshot.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let wait = snap.histogram("sched.wait_us");
        let hit = snap.histogram("sched.service_us.hit");
        let miss = snap.histogram("sched.service_us.miss");
        SchedStats {
            jobs: snap.counter("sched.jobs"),
            executed: snap.counter("sched.jobs_executed"),
            cache_hits: snap.counter("sched.cache_hits"),
            cache_misses: snap.counter("sched.cache_misses"),
            cache_stores: snap.counter("sched.cache_stores"),
            steals: snap.counter("sched.steals"),
            retries: snap.counter("sched.retries"),
            wait_us_p50: wait.quantile(0.50),
            wait_us_p99: wait.quantile(0.99),
            service_hit_us_p50: hit.quantile(0.50),
            service_hit_us_p99: hit.quantile(0.99),
            service_miss_us_p50: miss.quantile(0.50),
            service_miss_us_p99: miss.quantile(0.99),
            queue_depth_peak: snap.gauge("sched.queue_depth_peak"),
            plan_batches: snap.counter("sched.plan_batches"),
            plan_batch_points: snap.counter("sched.plan_batch_points"),
            plan_primed_jobs: snap.counter("sched.plan_primed_jobs"),
            plan_compile_us: snap.counter("sched.plan_compile_us"),
        }
    }

    /// Fraction of submitted jobs served from the cache (0 when no
    /// jobs ran).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

/// Callback invoked after every successful cache store, with the job's
/// content hash and the stored measurement. The serving layer uses it
/// to update its in-memory index incrementally and to trigger cache
/// eviction; it runs in [`Scheduler::run_jobs`]' merge, on the thread
/// that called it.
pub type StoreHook = Box<dyn Fn(u64, &Measurement) + Send + Sync>;

/// One job's outcome as reported by an [`ExecBackend`].
#[derive(Debug)]
pub struct BackendExec {
    /// Submission index of the job within the batch handed to the
    /// backend (positions results for the deterministic merge).
    pub index: usize,
    /// The job's content hash under the scheduler's salt.
    pub hash: u64,
    /// The measurement, or the error after the backend's own retry
    /// budget was exhausted.
    pub result: Result<Measurement>,
    /// Whether the backend already persisted the entry into this
    /// scheduler's cache directory (e.g. a coordinator storing raw
    /// wire bytes); when set the scheduler skips its own store but
    /// still counts it and fires the store hook.
    pub stored: bool,
}

/// Alternative execution strategy for cache misses: given the batch's
/// missing jobs as `(submission index, job, hash)` triples, produce one
/// [`BackendExec`] per job (in any order). The distributed coordinator
/// installs itself here; without a backend, misses run on the in-process
/// work-stealing pool.
pub type ExecBackend = Box<dyn Fn(&[(usize, JobSpec, u64)]) -> Vec<BackendExec> + Send + Sync>;

/// Extra telemetry exporter appended to [`Scheduler::export_into`]:
/// lets a subsystem attached to the scheduler (like the distributed
/// coordinator's `dist.*` metrics) ride along every `/metrics` and
/// `--metrics` export without the host knowing about it.
pub type ExportHook = Box<dyn Fn(&mut Snapshot) + Send + Sync>;

/// The sweep scheduler: cache consultation, work-stealing execution,
/// deterministic index-ordered merge, checkpointing.
pub struct Scheduler {
    cfg: SchedConfig,
    cache: Option<Cache>,
    /// Hashes known to be present in the cache directory: seeded by
    /// one directory scan on first consultation, then kept current by
    /// this scheduler's own stores. Probing a cold cache costs a
    /// failed `open()` per job otherwise — real kernel time at sweep
    /// scale. Entries added by *other* processes mid-run are simply
    /// recomputed (a conservative miss is always correct).
    present: Mutex<Option<std::collections::HashSet<u64>>>,
    /// The run label's progress manifest, held only when the cache is
    /// on: it lists the hashes of cache entries, so a cacheless run has
    /// nothing to list.
    checkpoint: Option<Mutex<Checkpoint>>,
    /// This scheduler's own metrics registry, live whatever the global
    /// recorder is: each `sched.*` number is counted here and nowhere
    /// else, and [`Scheduler::export_into`] hands it to every sink.
    registry: Recorder,
    /// Shared with the pool's chunk tasks: they may run on a helper
    /// thread, so they own or share everything they touch.
    counters: Arc<Counters>,
    /// The work-stealing pool, sized once by
    /// [`Scheduler::effective_workers`]; its helper threads live as
    /// long as the scheduler.
    pool: Pool,
    /// Per-worker tallies accumulated across batches (indexed by the
    /// pool's worker number; the serial path is worker 0).
    workers: Mutex<Vec<PoolWorkerStats>>,
    store_hook: RwLock<Option<StoreHook>>,
    backend: RwLock<Option<ExecBackend>>,
    export_hook: RwLock<Option<ExportHook>>,
    /// The `salt=…` line every job hash ends with.
    salt_line: String,
    /// Job-hash heads (system prefixes and kernel renders), kept for
    /// the scheduler's lifetime and shared by [`Scheduler::job_hash`]
    /// and [`Scheduler::run_jobs`]; bounded by [`HEAD_MEMO_CAP`].
    heads: Mutex<HeadMemo>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("cfg", &self.cfg)
            .field("cache", &self.cache)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// Builds a scheduler from `cfg`, starting a fresh checkpoint
    /// manifest for its label when the cache is on.
    #[must_use]
    pub fn new(cfg: SchedConfig) -> Self {
        let cache = cfg.cache.then(|| Cache::new(&cfg.cache_dir));
        let checkpoint = cfg
            .cache
            .then(|| Checkpoint::fresh(&cfg.cache_dir, &cfg.label));
        let registry = Recorder::enabled();
        let pool = Pool::new(effective_workers(cfg.workers));
        Scheduler {
            salt_line: format!("salt={SCHED_SALT}/{}\n", cfg.salt_extra),
            cfg,
            cache,
            present: Mutex::new(None),
            checkpoint: checkpoint.map(Mutex::new),
            counters: Arc::new(Counters::new(&registry)),
            registry,
            pool,
            workers: Mutex::new(Vec::new()),
            store_hook: RwLock::new(None),
            backend: RwLock::new(None),
            export_hook: RwLock::new(None),
            heads: Mutex::new(HeadMemo::default()),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// The salt every job hash folds in, `SCHED_SALT/salt_extra`: two
    /// schedulers agree on every hash exactly when their salts are
    /// equal (a dist coordinator and its serve replicas check this).
    #[must_use]
    pub fn salt(&self) -> &str {
        self.salt_line
            .strip_prefix("salt=")
            .and_then(|s| s.strip_suffix('\n'))
            .expect("salt_line is `salt=<salt>\\n`")
    }

    /// The pool's workers, kept for the scheduler's lifetime: the
    /// calling thread plus `effective_workers − 1` helper threads.
    /// See [`effective_workers`] for how the count is resolved, once,
    /// when the scheduler is built.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.pool.workers()
    }

    /// The content-addressed cache, when caching is enabled (the
    /// serving layer iterates/evicts through this handle).
    #[must_use]
    pub fn cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// Registers (or replaces) the post-store hook; see [`StoreHook`].
    pub fn set_store_hook(&self, hook: impl Fn(u64, &Measurement) + Send + Sync + 'static) {
        *self.store_hook.write().unwrap() = Some(Box::new(hook));
    }

    /// Registers (or replaces) the miss-execution backend; see
    /// [`ExecBackend`]. Pass-through telemetry (retry counts,
    /// wait/service histograms) becomes the backend's job.
    pub fn set_exec_backend(
        &self,
        backend: impl Fn(&[(usize, JobSpec, u64)]) -> Vec<BackendExec> + Send + Sync + 'static,
    ) {
        *self.backend.write().unwrap() = Some(Box::new(backend));
    }

    /// Removes the miss-execution backend; misses run on the pool
    /// again.
    pub fn clear_exec_backend(&self) {
        *self.backend.write().unwrap() = None;
    }

    /// Registers (or replaces) the extra telemetry exporter; see
    /// [`ExportHook`].
    pub fn set_export_hook(&self, hook: impl Fn(&mut Snapshot) + Send + Sync + 'static) {
        *self.export_hook.write().unwrap() = Some(Box::new(hook));
    }

    /// The content hash of `job` under this scheduler's salt: equal
    /// to [`job_hash_with_salt`], with the head read from the memo
    /// [`Scheduler::run_jobs`] fills.
    #[must_use]
    pub fn job_hash(&self, job: &JobSpec) -> u64 {
        self.hash_all([job])[0]
    }

    /// The hashes of `jobs`, in order, over the lifetime head memo
    /// and a tail memo of this call alone (so one-job calls with ever
    /// new parameter points leave nothing behind).
    fn hash_all<'a>(&self, jobs: impl IntoIterator<Item = &'a JobSpec>) -> Vec<u64> {
        let mut tails = Tails::default();
        // Every update of the memo leaves it valid (an entry is pushed
        // whole), so a panic elsewhere under the lock cannot corrupt it.
        let mut heads = self
            .heads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let hashes = jobs
            .into_iter()
            .map(|job| job.hash_with_heads(&mut heads, &mut tails, &self.salt_line))
            .collect();
        if heads.len() > HEAD_MEMO_CAP {
            *heads = HeadMemo::default();
        }
        hashes
    }

    /// A point-in-time view of the counters and latency quantiles.
    #[must_use]
    pub fn stats(&self) -> SchedStats {
        SchedStats::from_snapshot(&self.registry.snapshot())
    }

    /// Per-worker execution tallies accumulated across every batch
    /// this scheduler ran (index = pool worker number; the serial path
    /// accumulates onto worker 0).
    #[must_use]
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        self.workers.lock().unwrap().clone()
    }

    /// Merges this scheduler's registry — `sched.*` counters,
    /// queue-depth gauges, wait/service histograms, `plan.batch_size` —
    /// plus its per-worker tallies and the export hook's metrics into
    /// `snap`, so every sink (`--metrics`, `--metrics-addr`, `/metrics`)
    /// reads the same numbers, global recorder or not.
    pub fn export_into(&self, snap: &mut Snapshot) {
        snap.merge(&self.registry.snapshot());
        for (w, p) in self.worker_stats().iter().enumerate() {
            snap.counters
                .insert(format!("sched.worker.{w}.executed"), p.executed);
            snap.counters
                .insert(format!("sched.worker.{w}.stolen"), p.stolen);
            snap.counters
                .insert(format!("sched.worker.{w}.busy_us"), p.busy_ns / 1_000);
        }
        if let Some(hook) = self.export_hook.read().unwrap().as_ref() {
            hook(snap);
        }
    }

    /// Whether `hash` is plausibly on disk, per the presence set (one
    /// directory scan on first use, plus every store this scheduler
    /// made since). A `false` is authoritative for entries this
    /// process owns; entries racing in from other processes read as
    /// absent and are recomputed, which is always correct.
    fn cache_may_contain(&self, cache: &Cache, hash: u64) -> bool {
        let mut present = self.present.lock().unwrap();
        present
            .get_or_insert_with(|| cache.hashes().into_iter().collect())
            .contains(&hash)
    }

    /// Books a result that reached the cache: the presence set, the
    /// store count, and the store hook.
    fn stored(&self, hash: u64, m: &Measurement) {
        if let Some(set) = self.present.lock().unwrap().as_mut() {
            set.insert(hash);
        }
        self.counters.cache_stores.inc();
        if let Some(hook) = self.store_hook.read().unwrap().as_ref() {
            hook(hash, m);
        }
    }

    /// Runs a batch of jobs: cache hits are served immediately, misses
    /// run on the backend or the work-stealing pool, and the merged
    /// results come back in submission order — so N-worker output is
    /// byte-identical to 1-worker output.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index job error after the whole batch has
    /// been attempted (completed siblings are still cached, so a rerun
    /// only recomputes the failures).
    pub fn run_jobs(&self, jobs: Vec<JobSpec>) -> Result<Vec<Measurement>> {
        let n = jobs.len();
        let c = &self.counters;
        c.jobs.add(n as u64);

        let mut results: Vec<Option<Measurement>> = Vec::new();
        results.resize_with(n, || None);
        let mut todo: Vec<(usize, JobSpec, u64)> = Vec::new();
        let mut hits = 0u64;
        let hashes = self.hash_all(&jobs);
        for ((i, job), h) in jobs.into_iter().enumerate().zip(hashes) {
            if let Some(cache) = &self.cache {
                let load_start = Instant::now();
                let loaded = if self.cache_may_contain(cache, h) {
                    cache.load(h)
                } else {
                    None
                };
                if let Some(m) = loaded {
                    // Guard against a (vanishingly unlikely) hash
                    // collision: the entry must describe this job.
                    if m.kernel_name == job.kernel_name() && m.params == *job.params() {
                        c.service_hit_us
                            .observe(load_start.elapsed().as_micros() as u64);
                        hits += 1;
                        self.record(h);
                        results[i] = Some(m);
                        continue;
                    }
                }
            }
            todo.push((i, job, h));
        }
        c.cache_hits.add(hits);
        if self.cache.is_some() {
            c.cache_misses.add(todo.len() as u64);
        }

        // Misses run on the installed [`ExecBackend`] (the distributed
        // coordinator) or on the pool; either way they come back as
        // unordered [`BackendExec`] records that one loop merges by
        // submission index on this thread. The queue depth is shared
        // by every overlapping call.
        let pending = todo.len() as u64;
        c.executed.add(pending);
        c.queue_depth_peak.record(c.queue_depth.add(pending));
        let backend = self.backend.read().unwrap();
        let mut execs = if let Some(backend) = backend.as_ref() {
            backend(&todo)
        } else {
            drop(backend);
            self.run_on_pool(todo)
        };
        c.queue_depth.sub(pending);
        execs.sort_by_key(|e| e.index);
        let mut first_err: Option<SyncPerfError> = None;
        for e in execs {
            match e.result {
                Ok(m) => {
                    if let Some(cache) = &self.cache {
                        // `stored` means a pool task or the coordinator
                        // already wrote the entry; either way it counts
                        // and the store hook fires. A read-only cache
                        // directory must not fail the run; the result
                        // is simply not reusable.
                        if e.stored || cache.store(e.hash, &m).is_ok() {
                            self.stored(e.hash, &m);
                        }
                    }
                    self.record(e.hash);
                    results[e.index] = Some(m);
                }
                // The records are in index order, so the first error is
                // the lowest-index one — what the serial path returns.
                // Finish persisting siblings before failing, so a rerun
                // only recomputes the failures.
                Err(err) => first_err = first_err.or(Some(err)),
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        Ok(results
            .into_iter()
            .map(|m| m.expect("every job either hit the cache or executed"))
            .collect())
    }

    /// [`Scheduler::run_jobs`] for a single job.
    ///
    /// # Errors
    ///
    /// Propagates the job's error.
    pub fn measure(&self, job: JobSpec) -> Result<Measurement> {
        Ok(self
            .run_jobs(vec![job])?
            .pop()
            .expect("one job in, one measurement out"))
    }

    /// Runs the miss set on the work-stealing pool. Each same-shape
    /// group ([`JobSpec::shape_groups`]) splits into
    /// `clamp(len / 2, 1, workers)` contiguous chunks, so every chunk of
    /// a group of ≥ 2 jobs holds ≥ 2 points. A chunk is one pool task:
    /// its worker batch-evaluates the chunk's plan table
    /// ([`JobSpec::prime_groups`]), then runs each point from the primed
    /// memos and writes its cache entry. The `plan.*` counters count
    /// groups, not chunks; a chunk whose batch evaluation fails primes
    /// nothing, so the per-job path reproduces the exact error. A task
    /// owns its jobs and shares the counters and the cache handle, so
    /// any of the pool's threads can run it.
    fn run_on_pool(&self, todo: Vec<(usize, JobSpec, u64)>) -> Vec<BackendExec> {
        let c = &self.counters;
        let workers = self.effective_workers();
        let groups = JobSpec::shape_groups(&todo.iter().map(|(_, job, _)| job).collect::<Vec<_>>());
        let mut jobs: Vec<Option<(usize, JobSpec, u64)>> = todo.into_iter().map(Some).collect();
        let mut chunks: Vec<Vec<(usize, JobSpec, u64)>> = Vec::new();
        for group in groups {
            let len = group.len();
            if len >= 2 {
                c.plan_batches.inc();
                c.plan_batch_points.add(len as u64);
                c.plan_batch_size.observe(len as u64);
            }
            let k = (len / 2).clamp(1, workers);
            chunks.extend((0..k).map(|p| {
                group[len * p / k..len * (p + 1) / k]
                    .iter()
                    .map(|&m| jobs[m].take().expect("each job is in one group"))
                    .collect()
            }));
        }

        let dispatched = Instant::now();
        let counters = Arc::clone(c);
        let cache = self.cache.clone();
        let outcome = self.pool.run_chunks(chunks, move |chunk| {
            let c = &counters;
            let waited = dispatched.elapsed().as_micros() as u64;
            let start = Instant::now();
            let group: Vec<&JobSpec> = chunk.iter().map(|(_, job, _)| job).collect();
            let primed = JobSpec::prime_groups(&group);
            c.plan_primed_jobs
                .add(primed.iter().flatten().count() as u64);
            c.plan_compile_us.add(start.elapsed().as_micros() as u64);
            chunk
                .iter()
                .zip(&primed)
                .map(|(&(index, ref job, hash), pe)| {
                    c.wait_us.observe(waited);
                    let exec_start = Instant::now();
                    let result =
                        execute_job_with_retry_primed(job, hash, pe.as_ref(), |_| c.retries.inc());
                    c.service_miss_us
                        .observe(exec_start.elapsed().as_micros() as u64);
                    // Writing the entry here keeps the file I/O
                    // parallel; the merge books it.
                    let stored = match (&result, &cache) {
                        (Ok(m), Some(cache)) => cache.store(hash, m).is_ok(),
                        _ => false,
                    };
                    BackendExec {
                        index,
                        hash,
                        result,
                        stored,
                    }
                })
                .collect::<Vec<_>>()
        });
        c.steals.add(outcome.steals);
        let mut tallies = self.workers.lock().unwrap();
        if tallies.len() < outcome.per_worker.len() {
            tallies.resize_with(outcome.per_worker.len(), PoolWorkerStats::default);
        }
        for (acc, batch) in tallies.iter_mut().zip(&outcome.per_worker) {
            acc.absorb(batch);
        }
        outcome.results.into_iter().flatten().collect()
    }

    /// Records a completed job in the checkpoint manifest, if one is
    /// held.
    fn record(&self, hash: u64) {
        if let Some(cp) = &self.checkpoint {
            cp.lock().unwrap().record(hash);
        }
    }

    /// Marks the run's checkpoint complete and flushes it (a no-op
    /// without the cache, which keeps no checkpoint).
    pub fn finish(&self) {
        if let Some(cp) = &self.checkpoint {
            cp.lock().unwrap().finish();
        }
    }
}

/// The configured worker count clamped to the machine's available
/// parallelism. Results are worker-count independent (each job seeds
/// its own RNG from its content hash), so oversubscribing a small
/// machine only buys context-switch overhead — never throughput.
/// Reading the parallelism can mean reading cgroup files, so a
/// scheduler resolves it once, in [`Scheduler::new`].
fn effective_workers(configured: usize) -> usize {
    let avail =
        std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
    configured.min(avail).max(1)
}

static CURRENT: RwLock<Option<Arc<Scheduler>>> = RwLock::new(None);

/// Installs `s` as the process-global scheduler (replacing any earlier
/// one) and returns a handle to it.
pub fn install(s: Scheduler) -> Arc<Scheduler> {
    let arc = Arc::new(s);
    *CURRENT.write().unwrap() = Some(Arc::clone(&arc));
    arc
}

/// Removes the process-global scheduler; measurement helpers fall back
/// to the serial legacy path.
pub fn uninstall() {
    *CURRENT.write().unwrap() = None;
}

/// The process-global scheduler, if one is installed.
#[must_use]
pub fn current() -> Option<Arc<Scheduler>> {
    CURRENT.read().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::encode_measurement;
    use syncperf_core::{kernel, Affinity, DType, ExecParams, Protocol, SYSTEM1, SYSTEM3};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("syncperf-sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sim_jobs() -> Vec<JobSpec> {
        [2u32, 4, 8]
            .iter()
            .map(|&t| {
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::I32),
                    ExecParams::new(t).with_loops(50, 4),
                    Protocol::SIM,
                )
            })
            .collect()
    }

    #[test]
    fn only_real_thread_jobs_back_off_before_a_retry() {
        let p = ExecParams::new(2).with_loops(50, 4);
        let cpu = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, Protocol::SIM);
        let gpu = JobSpec::gpu_sim(&SYSTEM3, kernel::cuda_syncwarp(), p, Protocol::SIM);
        let real = JobSpec::real_omp(kernel::omp_barrier(), p, Protocol::SIM);
        for attempt in 0..MAX_EXECUTE_ATTEMPTS {
            assert_eq!(retry_backoff(&cpu, attempt), None);
            assert_eq!(retry_backoff(&gpu, attempt), None);
            assert_eq!(
                retry_backoff(&real, attempt),
                Some(Duration::from_millis(1 << attempt))
            );
        }
    }

    #[test]
    fn warm_cache_executes_nothing_and_matches_cold() {
        let dir = tmp_dir("warm");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        let cold = s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.jobs, st.executed, st.cache_hits), (3, 3, 0));
        assert_eq!(st.cache_stores, 3);

        let warm = s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.jobs, st.executed, st.cache_hits), (6, 3, 3));
        assert_eq!(warm, cold, "cached results must be bit-identical");
        assert!((s.stats().hit_rate() - 0.5).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // A 9-point same-shape group splits into a different number of
        // primed chunks per worker count; the lone GPU job rides alone.
        let mut jobs: Vec<JobSpec> = (1..=9)
            .map(|t| {
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::I32),
                    ExecParams::new(t).with_loops(50, 4),
                    Protocol::SIM,
                )
            })
            .collect();
        jobs.push(JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(64).with_blocks(2).with_loops(50, 4),
            Protocol::SIM,
        ));
        let runs: Vec<(Vec<Measurement>, SchedStats)> = [1, 2, 4]
            .iter()
            .map(|&w| {
                let dir = tmp_dir(&format!("w{w}"));
                let s = Scheduler::new(SchedConfig::new(w).with_cache_dir(&dir));
                let got = s.run_jobs(jobs.clone()).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                (got, s.stats())
            })
            .collect();
        let (serial, st1) = &runs[0];
        assert_eq!(
            (
                st1.plan_batches,
                st1.plan_batch_points,
                st1.plan_primed_jobs
            ),
            (1, 9, 9)
        );
        for (got, st) in &runs[1..] {
            assert_eq!(got, serial);
            for ((a, b), job) in got.iter().zip(serial).zip(&jobs) {
                let h = job_hash_with_salt(job, 0);
                assert_eq!(encode_measurement(h, a), encode_measurement(h, b));
            }
            assert_eq!(
                (st.plan_batches, st.plan_batch_points, st.plan_primed_jobs),
                (
                    st1.plan_batches,
                    st1.plan_batch_points,
                    st1.plan_primed_jobs
                ),
                "plan counters count groups and points, not chunks"
            );
        }
    }

    #[test]
    fn one_merge_keeps_the_lowest_index_error_and_persists_siblings() {
        // Invalid CPU jobs (blocks = 2) at indices 1 and 3 fail with
        // different messages; the pool and a backend that answers in
        // reverse order must both return index 1's error and store the
        // four valid siblings.
        let jobs: Vec<JobSpec> = (0..6u32)
            .map(|i| {
                let p = match i {
                    1 => ExecParams::new(2).with_blocks(2),
                    3 => ExecParams::new(1025).with_blocks(2),
                    _ => ExecParams::new(i + 1),
                };
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::I32),
                    p.with_loops(50, 4),
                    Protocol::SIM,
                )
            })
            .collect();
        let want = execute_job_with_retry(&jobs[1], 0, |_| {}).unwrap_err();
        for backend in [false, true] {
            let dir = tmp_dir(&format!("merge-{backend}"));
            let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
            if backend {
                s.set_exec_backend(|todo| {
                    todo.iter()
                        .rev()
                        .map(|(index, job, hash)| BackendExec {
                            index: *index,
                            hash: *hash,
                            result: execute_job_with_retry(job, *hash, |_| {}),
                            stored: false,
                        })
                        .collect()
                });
            }
            for run in 0..2 {
                let err = s.run_jobs(jobs.clone()).unwrap_err();
                assert_eq!(err, want, "backend={backend}: index 1's error wins");
                let st = s.stats();
                assert_eq!(st.cache_stores, 4, "backend={backend}: siblings stored");
                assert_eq!(
                    st.cache_hits,
                    4 * run,
                    "backend={backend}: a rerun hits them"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn salt_bump_invalidates_cache() {
        let dir = tmp_dir("salt");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        s.run_jobs(sim_jobs()).unwrap();
        assert_eq!(s.stats().cache_stores, 3);

        let bumped = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir).with_salt_extra(1));
        bumped.run_jobs(sim_jobs()).unwrap();
        let st = bumped.stats();
        assert_eq!((st.cache_hits, st.executed), (0, 3), "salt must invalidate");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_recomputes() {
        let dir = tmp_dir("corrupt");
        let s = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir));
        let jobs = sim_jobs();
        let good = s.run_jobs(jobs.clone()).unwrap();
        let victim = s.cache.as_ref().unwrap().entry_path(s.job_hash(&jobs[1]));
        std::fs::write(&victim, "garbage").unwrap();

        let again = s.run_jobs(jobs).unwrap();
        assert_eq!(again, good, "recomputed entry must match");
        let st = s.stats();
        assert_eq!(st.cache_hits, 2, "two intact entries hit");
        assert_eq!(st.executed, 4, "one recompute after the corruption");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_entries_recompute_to_the_cold_results() {
        // A store cut mid-flight leaves a prefix of the entry under its
        // final name. The next sweep must count it as a miss, recompute
        // it bit for bit, and write it whole again.
        let dir = tmp_dir("torn");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
        let jobs = sim_jobs();
        let cold = s.run_jobs(jobs.clone()).unwrap();
        let cache = s.cache().unwrap();
        let torn = [s.job_hash(&jobs[0]), s.job_hash(&jobs[2])];
        for (i, &h) in torn.iter().enumerate() {
            let full = std::fs::read_to_string(cache.entry_path(h)).unwrap();
            // All of one entry but its final newline; a third of the other.
            let cut = [full.len() - 1, full.len() / 3][i];
            cache.store_raw(h, &full[..cut]).unwrap();
        }

        let again = s.run_jobs(jobs).unwrap();
        let st = s.stats();
        assert_eq!(
            (st.executed, st.cache_hits),
            (3 + 2, 1),
            "torn entries miss"
        );
        assert_eq!(again, cold, "recomputed results match the cold run");
        for (a, c) in again.iter().zip(&cold) {
            assert_eq!(encode_measurement(0, a), encode_measurement(0, c));
        }
        for h in torn {
            assert!(cache.load(h).is_some(), "the recompute rewrote the entry");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_cache_always_executes() {
        let dir = tmp_dir("nocache");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir).without_cache());
        s.run_jobs(sim_jobs()).unwrap();
        s.run_jobs(sim_jobs()).unwrap();
        let st = s.stats();
        assert_eq!((st.executed, st.cache_hits, st.cache_misses), (6, 0, 0));
        s.finish();
        assert!(
            !Checkpoint::path_for(&dir, &s.config().label).exists(),
            "no checkpoint manifest without caching"
        );
        assert!(!dir.exists(), "no cache directory without caching");
    }

    #[test]
    fn profiling_tracks_service_split_and_workers() {
        let dir = tmp_dir("profile");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
        s.run_jobs(sim_jobs()).unwrap();
        let cold = s.stats();
        assert!(
            cold.service_miss_us_p99 >= cold.service_miss_us_p50,
            "miss service quantiles are ordered"
        );
        assert_eq!(cold.service_hit_us_p50, 0, "no hits yet");
        assert_eq!(cold.queue_depth_peak, 3, "all three jobs were pending");

        s.run_jobs(sim_jobs()).unwrap();
        let warm = s.stats();
        assert!(
            warm.service_hit_us_p99 >= warm.service_hit_us_p50,
            "hit service quantiles populated after the warm pass"
        );

        let workers = s.worker_stats();
        assert!(!workers.is_empty());
        let executed: u64 = workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 3, "only the cold batch executed jobs");

        let mut snap = Snapshot::default();
        s.export_into(&mut snap);
        assert_eq!(snap.counter("sched.jobs"), 6);
        assert_eq!(snap.counter("sched.cache_hits"), 3);
        assert_eq!(snap.gauge("sched.queue_depth"), 0, "nothing pending now");
        assert_eq!(snap.gauge("sched.queue_depth_peak"), 3);
        assert_eq!(snap.histogram("sched.service_us.miss").count(), 3);
        assert_eq!(snap.histogram("sched.service_us.hit").count(), 3);
        assert_eq!(snap.histogram("sched.wait_us").count(), 3);
        let per_worker_exec: u64 = (0..workers.len())
            .map(|w| snap.counter(&format!("sched.worker.{w}.executed")))
            .sum();
        assert_eq!(per_worker_exec, 3);
        // The exported snapshot round-trips through SchedStats.
        let st = SchedStats::from_snapshot(&snap);
        assert_eq!(st.jobs, 6);
        assert_eq!(st.queue_depth_peak, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_job_hash_matches_uncached() {
        let p = ExecParams::new(4).with_loops(50, 4);
        let proto = Protocol::SIM;
        let mut m = syncperf_cpu_sim::CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        m.line_transfer_ns *= 2.0;
        let jobs = [
            JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto),
            JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_barrier(),
                ExecParams { threads: 8, ..p },
                proto,
            ),
            JobSpec::cpu_sim_with_model(&SYSTEM3, m, kernel::omp_barrier(), p, proto),
            JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_atomic_update_scalar(DType::I32),
                p,
                Protocol::PAPER,
            ),
            JobSpec::gpu_sim(
                &SYSTEM3,
                kernel::cuda_syncthreads(),
                ExecParams::new(32).with_blocks(2).with_loops(50, 4),
                proto,
            ),
            JobSpec::real_omp(kernel::omp_barrier(), p, proto),
        ];
        // Many parameter points on shared heads, each seen twice in
        // one call, so memoized tails are reused across jobs.
        let jobs: Vec<JobSpec> = jobs
            .into_iter()
            .chain((0..2).flat_map(|_| {
                [1, 2, 3, 16, 64].into_iter().flat_map(move |threads| {
                    [
                        JobSpec::cpu_sim(
                            &SYSTEM3,
                            kernel::omp_barrier(),
                            ExecParams { threads, ..p }.with_affinity(Affinity::Spread),
                            proto,
                        ),
                        JobSpec::cpu_sim(
                            &SYSTEM3,
                            kernel::omp_barrier(),
                            ExecParams { threads, ..p }.with_loops(100, 10),
                            Protocol::PAPER,
                        ),
                        JobSpec::gpu_sim(
                            &SYSTEM3,
                            kernel::cuda_syncthreads(),
                            ExecParams::new(32).with_blocks(threads).with_loops(50, 4),
                            proto,
                        ),
                    ]
                })
            }))
            .collect();
        // Two salts on one cache: the second pass is served from the
        // memoized heads and tails, and the salt is folded in per call.
        let mut canon = crate::job::CanonicalCache::default();
        for salt in [0u64, 7] {
            let salt_line = format!("salt={SCHED_SALT}/{salt}\n");
            for job in &jobs {
                assert_eq!(
                    job.hash_with(&mut canon, &salt_line),
                    job_hash_with_salt(job, salt),
                    "memoized canonical text must hash identically"
                );
            }
        }
    }

    #[test]
    fn lifetime_head_memo_hashes_like_the_canonical_text() {
        let p = ExecParams::new(4).with_loops(50, 4);
        let mut tweaked = syncperf_cpu_sim::CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        tweaked.line_transfer_ns *= 2.0;
        let at = |threads| ExecParams { threads, ..p };
        let first: Vec<JobSpec> = [2u32, 8]
            .into_iter()
            .flat_map(|t| {
                [
                    JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), at(t), Protocol::SIM),
                    JobSpec::cpu_sim(&SYSTEM1, kernel::omp_barrier(), at(t), Protocol::SIM),
                    JobSpec::gpu_sim(
                        &SYSTEM3,
                        kernel::cuda_syncthreads(),
                        ExecParams::new(32).with_blocks(t).with_loops(50, 4),
                        Protocol::SIM,
                    ),
                ]
            })
            .collect();
        // The second call meets the first call's heads plus new ones:
        // a model override, another kernel, a real-thread job.
        let second: Vec<JobSpec> = first
            .iter()
            .cloned()
            .chain([
                JobSpec::cpu_sim_with_model(
                    &SYSTEM3,
                    tweaked,
                    kernel::omp_barrier(),
                    at(3),
                    Protocol::SIM,
                ),
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::F64),
                    at(16),
                    Protocol::PAPER,
                ),
                JobSpec::real_omp(kernel::omp_barrier(), at(2), Protocol::SIM),
            ])
            .collect();
        let s = Scheduler::new(SchedConfig::new(1).without_cache().with_salt_extra(7));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        s.set_exec_backend(move |todo| {
            sink.lock()
                .unwrap()
                .extend(todo.iter().map(|(_, job, hash)| (job.clone(), *hash)));
            todo.iter()
                .map(|(index, _, hash)| BackendExec {
                    index: *index,
                    hash: *hash,
                    result: Err(SyncPerfError::InvalidParams("hash only".into())),
                    stored: false,
                })
                .collect()
        });
        assert!(s.run_jobs(first.clone()).is_err());
        assert!(s.run_jobs(second.clone()).is_err());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), first.len() + second.len());
        for (job, hash) in seen.iter() {
            assert_eq!(*hash, job_hash_with_salt(job, 7), "run_jobs: {job:?}");
        }
        for job in &second {
            assert_eq!(
                s.job_hash(job),
                job_hash_with_salt(job, 7),
                "job_hash: {job:?}"
            );
        }
        assert_eq!(s.salt(), format!("{SCHED_SALT}/7"));
    }

    #[test]
    fn head_memo_is_bounded() {
        let s = Scheduler::new(SchedConfig::new(1).without_cache());
        let p = ExecParams::new(4).with_loops(50, 4);
        for stride in 0..=HEAD_MEMO_CAP as u32 {
            let k = kernel::omp_atomic_update_array(DType::I32, stride);
            let job = JobSpec::cpu_sim(&SYSTEM3, k, p, Protocol::SIM);
            assert_eq!(s.job_hash(&job), job_hash_with_salt(&job, 0));
            assert!(s.heads.lock().unwrap().len() <= HEAD_MEMO_CAP);
        }
    }

    #[test]
    fn batching_counts_groups_and_matches_direct_execution() {
        let dir = tmp_dir("batch");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir));
        let jobs = sim_jobs();
        let got = s.run_jobs(jobs.clone()).unwrap();
        let st = s.stats();
        assert_eq!(st.plan_batches, 1, "three same-shape jobs form one group");
        assert_eq!(st.plan_batch_points, 3);
        // Priming happens whatever recorder another test may have
        // installed in this process, and must be byte-identical to
        // direct execution.
        assert_eq!(st.plan_primed_jobs, 3);
        let direct: Vec<Measurement> = jobs
            .iter()
            .map(|j| execute_job_with_retry(j, s.job_hash(j), |_| {}).unwrap())
            .collect();
        assert_eq!(got, direct, "batched results must match the unprimed path");

        // A mixed-shape batch: the lone GPU job stays ungrouped.
        let mut mixed = sim_jobs();
        mixed.push(JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(64).with_blocks(2).with_loops(50, 4),
            Protocol::SIM,
        ));
        let dir2 = tmp_dir("batch2");
        let s2 = Scheduler::new(SchedConfig::new(1).with_cache_dir(&dir2));
        s2.run_jobs(mixed).unwrap();
        let st2 = s2.stats();
        assert_eq!((st2.plan_batches, st2.plan_batch_points), (1, 3));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn overlapping_run_jobs_keep_queue_depth_consistent() {
        // Concurrent callers (the serving layer's compute workers)
        // share one scheduler and one pending count: each batch must
        // add and retire only its own jobs.
        const CALLERS: usize = 8;
        const ROUNDS: usize = 4;
        let dir = tmp_dir("overlap");
        let s = Scheduler::new(SchedConfig::new(2).with_cache_dir(&dir).without_cache());
        let batch = |caller: usize, round: usize| -> Vec<JobSpec> {
            (0..=(caller + round) % 4)
                .map(|k| {
                    JobSpec::cpu_sim(
                        &SYSTEM3,
                        kernel::omp_atomic_update_scalar(DType::I32),
                        ExecParams::new(2 << (k % 3)).with_loops(20 + caller as u32, 2),
                        Protocol::SIM,
                    )
                })
                .collect()
        };
        let sizes: Vec<usize> = (0..CALLERS)
            .flat_map(|c| (0..ROUNDS).map(move |r| (c, r)))
            .map(|(c, r)| batch(c, r).len())
            .collect();
        let total: usize = sizes.iter().sum();
        let start = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let jobs = batch(caller, round);
                        let n = jobs.len();
                        assert_eq!(s.run_jobs(jobs).unwrap().len(), n);
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.jobs, total as u64);
        assert_eq!(st.executed, total as u64, "every job ran exactly once");
        let mut snap = Snapshot::default();
        s.export_into(&mut snap);
        assert_eq!(snap.gauge("sched.queue_depth"), 0, "pending returns to 0");
        let largest = *sizes.iter().max().unwrap() as u64;
        assert!(
            (largest..=total as u64).contains(&st.queue_depth_peak),
            "peak {} must lie in [{largest}, {total}]",
            st.queue_depth_peak
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlapping_multi_chunk_batches_match_one_worker_bytes() {
        // Callers overlapping on one 2-worker scheduler share its
        // helper; every batch splits into several chunks, and each
        // caller's measurements must be byte-identical to the same
        // batch on a 1-worker scheduler.
        const CALLERS: u32 = 4;
        const ROUNDS: u32 = 3;
        let batch = |caller: u32, round: u32| -> Vec<JobSpec> {
            let loops = 20 + 3 * caller + round;
            let cpu = (1..=6).map(|t| {
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_atomic_update_scalar(DType::I32),
                    ExecParams::new(t).with_loops(loops, 2),
                    Protocol::SIM,
                )
            });
            let gpu = (1..=4).map(|w| {
                JobSpec::gpu_sim(
                    &SYSTEM3,
                    kernel::cuda_syncthreads(),
                    ExecParams::new(32 * w).with_blocks(2).with_loops(loops, 2),
                    Protocol::SIM,
                )
            });
            cpu.chain(gpu).collect()
        };
        let bytes = |jobs: &[JobSpec], got: &[Measurement]| -> Vec<String> {
            jobs.iter()
                .zip(got)
                .map(|(job, m)| encode_measurement(job_hash_with_salt(job, 0), m))
                .collect()
        };
        let serial = Scheduler::new(SchedConfig::new(1).without_cache());
        let want: Vec<Vec<Vec<String>>> = (0..CALLERS)
            .map(|caller| {
                (0..ROUNDS)
                    .map(|round| {
                        let jobs = batch(caller, round);
                        bytes(&jobs, &serial.run_jobs(jobs.clone()).unwrap())
                    })
                    .collect()
            })
            .collect();
        let s = Scheduler::new(SchedConfig::new(2).without_cache());
        let start = std::sync::Barrier::new(CALLERS as usize);
        std::thread::scope(|scope| {
            for (caller, want) in (0..CALLERS).zip(&want) {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for (round, want) in (0..ROUNDS).zip(want) {
                        let jobs = batch(caller, round);
                        let got = s.run_jobs(jobs.clone()).unwrap();
                        assert_eq!(&bytes(&jobs, &got), want, "caller {caller} round {round}");
                    }
                });
            }
        });
        let st = s.stats();
        assert_eq!(st.executed, u64::from(CALLERS * ROUNDS) * 10);
        assert_eq!(st.plan_primed_jobs, st.executed, "every chunk primed");
        assert_eq!(
            s.pool.helpers_started(),
            s.effective_workers() - 1,
            "the callers shared one set of helpers"
        );
    }

    #[test]
    fn hit_rate_is_hits_over_jobs() {
        // Cache hits over submitted jobs, and 0 when nothing ran.
        let st = SchedStats {
            jobs: 10,
            cache_hits: 9,
            ..SchedStats::default()
        };
        assert!((st.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(SchedStats::default().hit_rate(), 0.0);
    }
}
