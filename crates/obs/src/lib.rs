//! # syncperf-obs
//!
//! Zero-dependency observability for the syncperf stack: structured
//! trace events, counters/gauges, and exportable sinks.
//!
//! The design centers on a cheap [`Recorder`] handle that every
//! instrumented component holds (or reaches via [`global()`]). A
//! disabled recorder is a `None` — every recording call is a single
//! branch and the instrumented hot paths cost nothing measurable.
//!
//! A live recorder has two planes:
//!
//! - the **metrics plane** ([`Recorder::enabled`]): shared
//!   [`Counter`]/[`Gauge`]/[`Histogram`] cells, cheap enough to leave
//!   on. It records no events, so instrumented code keeps the exact
//!   code path it runs unobserved ([`Recorder::is_enabled`] is true,
//!   [`Recorder::traces`] is false);
//! - the **event plane** ([`Recorder::tracing`], on top of the
//!   metrics): [`Event`]s written into per-thread ring buffers (each
//!   thread appends under its own uncontended mutex; buffers are
//!   bounded and count drops instead of blocking). Work done only to
//!   produce events is gated on [`Recorder::traces`]; it never changes
//!   which code path a run takes.
//!
//! At the end of a run, [`Recorder::drain_events`] merges the rings
//! into one time-ordered stream and [`Recorder::snapshot`] freezes the
//! counter registry; [`sink`] turns both into Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` or Perfetto), [`metrics`]
//! renders the snapshot as the Prometheus text exposition, and
//! `syncperf-core` renders it as an ASCII summary.
//!
//! ## Example
//!
//! ```
//! use syncperf_obs::{sink, Recorder};
//!
//! let rec = Recorder::tracing();
//! let attempts = rec.counter("protocol.attempts");
//! {
//!     let _span = rec.span("protocol", "measure");
//!     attempts.inc();
//!     rec.instant("protocol", "attempt_rejected");
//! }
//! let events = rec.drain_events();
//! assert_eq!(events.len(), 2);
//! let json = sink::chrome_trace_json(&events, &rec.snapshot());
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod sink;

pub use flight::{FlightEntry, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-thread event capacity (events beyond it are dropped and
/// counted, never blocking the instrumented thread).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(Cow<'static, str>),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::I64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// `Some(duration)` for a completed span, `None` for an instant.
    pub dur_ns: Option<u64>,
    /// Category (e.g. `"protocol"`, `"cpu_sim"`).
    pub cat: &'static str,
    /// Event name.
    pub name: Cow<'static, str>,
    /// Recorder-assigned thread id (dense, starting at 0).
    pub tid: u64,
    /// Structured arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Per-thread bounded event buffer.
#[derive(Debug)]
struct ThreadRing {
    tid: u64,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
    capacity: usize,
}

impl ThreadRing {
    fn push(&self, event: Event) {
        let mut buf = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if buf.len() < self.capacity {
            buf.push(event);
        } else {
            drop(buf);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The event plane's ring registry.
#[derive(Debug, Default)]
struct Rings {
    /// Rings of threads that may still record.
    live: Vec<Arc<ThreadRing>>,
    /// Drop counts (by tid) of rings retired once drained after their
    /// thread exited, so drop totals stay monotone.
    retired_drops: BTreeMap<u64, u64>,
}

impl Rings {
    /// Drop counts by tid, live and retired (nonzero only).
    fn drops_by_thread(&self) -> BTreeMap<u64, u64> {
        let mut out = self.retired_drops.clone();
        for ring in &self.live {
            let dropped = ring.dropped.load(Ordering::Relaxed);
            if dropped > 0 {
                out.insert(ring.tid, dropped);
            }
        }
        out
    }
}

/// Shared state behind an enabled recorder.
#[derive(Debug)]
struct Inner {
    /// Process-unique recorder id — the TLS ring-cache key. A pointer
    /// would be ambiguous: a new recorder's allocation can reuse a
    /// dropped recorder's address and inherit its stale cache entry.
    id: u64,
    start: Instant,
    /// Whether the event plane is on ([`Recorder::tracing`]).
    traces: bool,
    capacity: usize,
    next_tid: AtomicU64,
    rings: Mutex<Rings>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, (Arc<AtomicU64>, GaugeMode)>>,
    histograms: Mutex<BTreeMap<String, Arc<hist::HistCells>>>,
}

/// Source of process-unique recorder ids.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(0);

/// One TLS ring-cache entry: recorder id, liveness probe, ring.
type RingCacheEntry = (u64, std::sync::Weak<Inner>, Arc<ThreadRing>);

thread_local! {
    /// Cache of (recorder id → this thread's ring), so the hot path
    /// avoids the registry lock after the first event. Entries whose
    /// recorder has been dropped are pruned on the next cache miss.
    static TLS_RINGS: RefCell<Vec<RingCacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// A cheap, cloneable handle to a recording session.
///
/// `Recorder::disabled()` (also the `Default`) is a no-op whose every
/// method is one branch on a `None`; `Recorder::enabled()` records
/// metrics only; `Recorder::tracing()` records metrics and events.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The no-op recorder.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A metrics-plane recorder: counters, gauges and histograms.
    /// Events ([`Recorder::instant`], [`Recorder::span`]) are not
    /// recorded and no ring is ever allocated.
    #[must_use]
    pub fn enabled() -> Self {
        Self::build(false, 0)
    }

    /// A recorder with both planes: metrics plus events, in per-thread
    /// rings of the default capacity.
    #[must_use]
    pub fn tracing() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder with both planes whose per-thread rings hold
    /// `capacity` events (further events are dropped and counted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(true, capacity.max(1))
    }

    fn build(traces: bool, capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                traces,
                capacity,
                next_tid: AtomicU64::new(0),
                rings: Mutex::new(Rings::default()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether some plane is live: metrics handles record. Gate
    /// metric-only work on this.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the event plane is live. Gate event emission, and work
    /// done only to produce events, on this — never on
    /// [`Recorder::is_enabled`], so metrics alone cost no event work.
    /// No choice of code path (batching, memoization) may depend on it.
    #[must_use]
    pub fn traces(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.traces)
    }

    /// Nanoseconds since this recorder was created (0 when disabled).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// This thread's ring, creating and registering it on first use.
    fn ring(inner: &Arc<Inner>) -> Arc<ThreadRing> {
        let key = inner.id;
        TLS_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, _, ring)) = cache.iter().find(|(k, _, _)| *k == key) {
                return ring.clone();
            }
            cache.retain(|(_, weak, _)| weak.strong_count() > 0);
            let ring = Arc::new(ThreadRing {
                tid: inner.next_tid.fetch_add(1, Ordering::Relaxed),
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                capacity: inner.capacity,
            });
            inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .live
                .push(ring.clone());
            cache.push((key, Arc::downgrade(inner), ring.clone()));
            ring
        })
    }

    /// Records an instant event with no arguments.
    pub fn instant(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) {
        self.instant_args(cat, name, Vec::new());
    }

    /// Records an instant event with arguments.
    pub fn instant_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = self.inner.as_ref().filter(|inner| inner.traces) {
            let ring = Self::ring(inner);
            ring.push(Event {
                ts_ns: inner.start.elapsed().as_nanos() as u64,
                dur_ns: None,
                cat,
                name: name.into(),
                tid: ring.tid,
                args,
            });
        }
    }

    /// Opens a span; the event is recorded when the guard drops (only
    /// while the event plane is live).
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
        self.span_args(cat, name, Vec::new())
    }

    /// Opens a span with arguments attached up front.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span_args(
        &self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        if self.traces() {
            Span {
                rec: self.clone(),
                cat,
                name: name.into(),
                start_ns: self.now_ns(),
                args,
            }
        } else {
            Span {
                rec: Recorder::disabled(),
                cat,
                name: Cow::Borrowed(""),
                start_ns: 0,
                args: Vec::new(),
            }
        }
    }

    /// A handle to the named counter (a no-op handle when disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self
                .inner
                .as_ref()
                .map(|inner| lookup(&inner.counters, name, || Arc::new(AtomicU64::new(0)))),
        }
    }

    /// A handle to the named high-water-mark gauge (no-op when
    /// disabled). The first registration of a name fixes its mode;
    /// later handles inherit it.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with_mode(name, GaugeMode::Max)
    }

    /// A handle to the named current-value gauge (no-op when
    /// disabled): [`Gauge::set`] overwrites, [`Gauge::add`] /
    /// [`Gauge::sub`] adjust — for live quantities like queue depth
    /// or inflight requests, where the high-water mark is not enough.
    #[must_use]
    pub fn gauge_set(&self, name: &str) -> Gauge {
        self.gauge_with_mode(name, GaugeMode::Set)
    }

    fn gauge_with_mode(&self, name: &str, want: GaugeMode) -> Gauge {
        match &self.inner {
            Some(inner) => {
                let (cell, mode) =
                    lookup(&inner.gauges, name, || (Arc::new(AtomicU64::new(0)), want));
                Gauge {
                    cell: Some(cell),
                    mode,
                }
            }
            None => Gauge {
                cell: None,
                mode: want,
            },
        }
    }

    /// A handle to the named latency histogram (no-op when disabled).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cells: self
                .inner
                .as_ref()
                .map(|inner| lookup(&inner.histograms, name, || Arc::new(hist::HistCells::new()))),
        }
    }

    /// Freezes the current counter and gauge values.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.inner {
            for (name, cell) in inner
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                snap.counters
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
            }
            for (name, (cell, mode)) in inner
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                snap.gauges
                    .insert(name.clone(), cell.load(Ordering::Relaxed));
                snap.gauge_modes.insert(name.clone(), *mode);
            }
            for (name, cells) in inner
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
            {
                snap.histograms.insert(name.clone(), cells.snapshot());
            }
            snap.dropped_by_thread = inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drops_by_thread();
            snap.dropped_events = snap.dropped_by_thread.values().sum();
        }
        snap
    }

    /// Closes this thread's ring as if the thread had exited: the
    /// events it holds wait for the next drain, and the thread's next
    /// event opens a fresh ring under a new tid. A pool thread that
    /// outlives many batches closes its ring after each one, so the
    /// per-thread event bound applies per batch, as it would to a
    /// thread started per batch.
    pub fn close_thread_ring(&self) {
        if let Some(inner) = &self.inner {
            TLS_RINGS.with(|cache| cache.borrow_mut().retain(|(k, _, _)| *k != inner.id));
        }
    }

    /// Merges and clears every thread's ring, returning all events in
    /// timestamp order. Drained rings give their memory back, and the
    /// rings of threads that have exited are retired (their drop counts
    /// stay in [`Recorder::dropped_events`]), so a long-running traced
    /// process that keeps starting threads does not grow without bound.
    #[must_use]
    pub fn drain_events(&self) -> Vec<Event> {
        let mut all = Vec::new();
        if let Some(inner) = &self.inner {
            let mut rings = inner.rings.lock().unwrap_or_else(PoisonError::into_inner);
            let Rings {
                live,
                retired_drops,
            } = &mut *rings;
            live.retain(|ring| {
                let events = std::mem::take(
                    &mut *ring.events.lock().unwrap_or_else(PoisonError::into_inner),
                );
                all.extend(events);
                // The registry holds the only reference once the
                // thread's TLS cache entry is gone: nothing can record
                // into this ring again.
                let exited = Arc::strong_count(ring) == 1;
                if exited {
                    let dropped = ring.dropped.load(Ordering::Relaxed);
                    if dropped > 0 {
                        retired_drops.insert(ring.tid, dropped);
                    }
                }
                !exited
            });
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Total events dropped because a ring was full (monotone over the
    /// recorder's life).
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .rings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drops_by_thread()
                .values()
                .sum(),
            None => 0,
        }
    }
}

/// RAII guard recording a complete (`ph: "X"`) event on drop.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    cat: &'static str,
    name: Cow<'static, str>,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Attaches an argument to the span before it closes.
    pub fn push_arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.rec.traces() {
            self.args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.rec.inner {
            let end = inner.start.elapsed().as_nanos() as u64;
            let ring = Recorder::ring(inner);
            ring.push(Event {
                ts_ns: self.start_ns,
                dur_ns: Some(end.saturating_sub(self.start_ns)),
                cat: self.cat,
                name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
                tid: ring.tid,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// How a [`Gauge`] folds recorded values into its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugeMode {
    /// High-water mark: [`Gauge::record`] keeps the maximum.
    #[default]
    Max,
    /// Current value: [`Gauge::set`] overwrites; [`Gauge::add`] and
    /// [`Gauge::sub`] adjust (for queue depths, inflight counts).
    Set,
}

impl GaugeMode {
    /// Stable lowercase label (used in summaries and exposition).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GaugeMode::Max => "max",
            GaugeMode::Set => "set",
        }
    }
}

/// A gauge handle; semantics depend on its [`GaugeMode`] (the mode the
/// name was first registered with).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
    mode: GaugeMode,
}

impl Gauge {
    /// Records `v` per the gauge's mode: maximum for
    /// [`GaugeMode::Max`], overwrite for [`GaugeMode::Set`].
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            match self.mode {
                GaugeMode::Max => {
                    cell.fetch_max(v, Ordering::Relaxed);
                }
                GaugeMode::Set => cell.store(v, Ordering::Relaxed),
            }
        }
    }

    /// Overwrites the current value (any mode).
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the current value and returns the new value (0 when
    /// disabled).
    pub fn add(&self, n: u64) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.fetch_add(n, Ordering::Relaxed) + n)
    }

    /// Subtracts `n` from the current value (saturating at 0) and
    /// returns the new value (0 when disabled).
    pub fn sub(&self, n: u64) -> u64 {
        let Some(cell) = &self.cell else { return 0 };
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The mode this gauge was registered with.
    #[must_use]
    pub fn mode(&self) -> GaugeMode {
        self.mode
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Frozen counter/gauge/histogram values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (high-water mark or current value,
    /// depending on the mode in [`Snapshot::gauge_modes`]).
    pub gauges: BTreeMap<String, u64>,
    /// Each gauge's registered [`GaugeMode`].
    pub gauge_modes: BTreeMap<String, GaugeMode>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Events dropped because a per-thread ring filled up.
    pub dropped_events: u64,
    /// Drop counts by recorder-assigned thread id (only threads that
    /// dropped anything appear).
    pub dropped_by_thread: BTreeMap<u64, u64>,
}

/// Looks `name` up in `map`, or else under its exposition name: a
/// snapshot parsed back by [`metrics::parse`] holds the sanitized
/// names (`sched_jobs` for `sched.jobs`), so typed readers such as
/// `SchedStats::from_snapshot` read either kind of snapshot.
fn get_named<'a, V>(map: &'a BTreeMap<String, V>, name: &str) -> Option<&'a V> {
    map.get(name).or_else(|| {
        let exposed = metrics::sanitize_name(name);
        (exposed != name).then(|| map.get(&exposed)).flatten()
    })
}

impl Snapshot {
    /// Convenience lookup (0 when the counter never fired).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        get_named(&self.counters, name).copied().unwrap_or(0)
    }

    /// Convenience lookup (0 when the gauge never fired).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        get_named(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Convenience lookup (empty snapshot when the histogram never
    /// fired).
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        get_named(&self.histograms, name)
            .cloned()
            .unwrap_or_default()
    }

    /// Folds `other` into `self`: counters add, `Max` gauges take the
    /// maximum, `Set` gauges add (current values of distinct workers
    /// stack), histograms merge bucket-wise, drop counts add.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let mode = other.gauge_modes.get(name).copied().unwrap_or_default();
            let mode = *self.gauge_modes.entry(name.clone()).or_insert(mode);
            let cell = self.gauges.entry(name.clone()).or_insert(0);
            match mode {
                GaugeMode::Max => *cell = (*cell).max(*v),
                GaugeMode::Set => *cell += v,
            }
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        self.dropped_events += other.dropped_events;
        for (tid, v) in &other.dropped_by_thread {
            *self.dropped_by_thread.entry(*tid).or_insert(0) += v;
        }
    }
}

/// The registry cell named `name`, created with `make` on first use.
/// Existing names (the common case) are found without allocating.
fn lookup<T: Clone>(
    registry: &Mutex<BTreeMap<String, T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    let mut map = registry.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(cell) = map.get(name) {
        return cell.clone();
    }
    map.entry(name.to_string()).or_insert_with(make).clone()
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// Installs `rec` as the process-global recorder consulted by
/// components that were not handed an explicit one. Returns `false` if
/// a global recorder was already installed (the existing one stays).
pub fn install(rec: Recorder) -> bool {
    GLOBAL.set(rec).is_ok()
}

/// The process-global recorder (disabled unless [`install`]ed).
#[must_use]
pub fn global() -> &'static Recorder {
    static DISABLED: Recorder = Recorder { inner: None };
    GLOBAL.get().unwrap_or(&DISABLED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.instant("t", "x");
        let c = rec.counter("n");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = rec.gauge("g");
        g.record(9);
        assert_eq!(g.get(), 0);
        {
            let _s = rec.span("t", "s");
        }
        assert!(rec.drain_events().is_empty());
        assert_eq!(rec.snapshot(), Snapshot::default());
    }

    #[test]
    fn events_merge_in_timestamp_order() {
        let rec = Recorder::tracing();
        rec.instant("a", "first");
        {
            let mut s = rec.span("a", "mid");
            s.push_arg("k", 3u64);
            rec.instant("a", "inside");
        }
        let events = rec.drain_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let span = events.iter().find(|e| e.name == "mid").unwrap();
        assert!(span.dur_ns.is_some());
        assert_eq!(span.args, vec![("k", ArgValue::U64(3))]);
        // Draining clears the rings.
        assert!(rec.drain_events().is_empty());
    }

    #[test]
    fn counters_shared_across_handles_and_threads() {
        let rec = Recorder::enabled();
        let c = rec.counter("shared.count");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    let c = rec.counter("shared.count");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(rec.snapshot().counter("shared.count"), 4000);
    }

    #[test]
    fn gauge_keeps_maximum() {
        let rec = Recorder::enabled();
        let g = rec.gauge("depth");
        g.record(3);
        g.record(7);
        g.record(5);
        assert_eq!(g.get(), 7);
        assert_eq!(rec.snapshot().gauge("depth"), 7);
    }

    #[test]
    fn per_thread_rings_get_distinct_tids() {
        let rec = Recorder::tracing();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rec = rec.clone();
                s.spawn(move || rec.instant("t", "hello"));
            }
        });
        let events = rec.drain_events();
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread has its own tid");
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let rec = Recorder::with_capacity(8);
        for _ in 0..20 {
            rec.instant("t", "e");
        }
        assert_eq!(rec.drain_events().len(), 8);
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(rec.snapshot().dropped_events, 12);
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never install in this test binary; other tests rely on the
        // default too.
        assert!(!global().is_enabled());
    }

    #[test]
    fn successive_recorders_on_one_thread_each_capture_their_events() {
        // Regression: the TLS ring cache was keyed by the recorder's
        // allocation address, so a recorder allocated at a dropped
        // recorder's address inherited its stale (unregistered) ring
        // and silently lost every event.
        for i in 0..64 {
            let rec = Recorder::tracing();
            rec.instant("t", "e");
            assert_eq!(rec.drain_events().len(), 1, "iteration {i} lost its event");
        }
    }

    #[test]
    fn set_gauge_tracks_current_value() {
        let rec = Recorder::enabled();
        let g = rec.gauge_set("queue.depth");
        assert_eq!(g.add(5), 5, "add returns the new value");
        assert_eq!(g.sub(2), 3, "sub returns the new value");
        assert_eq!(g.get(), 3);
        g.record(9);
        g.record(1);
        assert_eq!(g.get(), 1, "set mode overwrites instead of keeping max");
        assert_eq!(g.sub(10), 0, "sub saturates at zero");
        assert_eq!(g.get(), 0);
        let snap = rec.snapshot();
        assert_eq!(snap.gauge("queue.depth"), 0);
        assert_eq!(snap.gauge_modes["queue.depth"], GaugeMode::Set);
    }

    #[test]
    fn gauge_mode_fixed_by_first_registration() {
        let rec = Recorder::enabled();
        let first = rec.gauge("depth");
        let second = rec.gauge_set("depth");
        assert_eq!(second.mode(), GaugeMode::Max, "first registration wins");
        first.record(7);
        second.record(3);
        assert_eq!(first.get(), 7);
    }

    #[test]
    fn histograms_appear_in_snapshot() {
        let rec = Recorder::enabled();
        let h = rec.histogram("lat_us");
        h.observe(10);
        h.observe(20);
        let snap = rec.snapshot();
        assert_eq!(snap.histogram("lat_us").count(), 2);
        assert_eq!(snap.histogram("lat_us").sum, 30);
        assert_eq!(snap.histogram("absent").count(), 0);
        // Disabled recorders hand out inert histograms.
        let off = Recorder::disabled().histogram("lat_us");
        off.observe(5);
        assert_eq!(off.snapshot().count(), 0);
    }

    #[test]
    fn snapshot_merge_folds_all_sections() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        a.counter("c").add(2);
        b.counter("c").add(3);
        a.gauge("hw").record(5);
        b.gauge("hw").record(9);
        a.gauge_set("depth").set(4);
        b.gauge_set("depth").set(6);
        a.histogram("h").observe(1);
        b.histogram("h").observe(100);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), 5);
        assert_eq!(merged.gauge("hw"), 9, "max gauges take the maximum");
        assert_eq!(merged.gauge("depth"), 10, "set gauges stack");
        assert_eq!(merged.histogram("h").count(), 2);
        assert_eq!(merged.histogram("h").max(), 100);
    }

    #[test]
    fn snapshot_reports_drops_per_thread() {
        let rec = Recorder::with_capacity(4);
        for _ in 0..10 {
            rec.instant("t", "e");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_events, 6);
        assert_eq!(snap.dropped_by_thread.values().sum::<u64>(), 6);
        assert_eq!(snap.dropped_by_thread.len(), 1);
    }

    #[test]
    fn two_recorders_do_not_share_state() {
        let a = Recorder::tracing();
        let b = Recorder::tracing();
        a.counter("x").inc();
        a.instant("t", "only-a");
        assert_eq!(b.snapshot().counter("x"), 0);
        assert!(b.drain_events().is_empty());
        assert_eq!(a.drain_events().len(), 1);
    }

    #[test]
    fn metrics_plane_records_no_events() {
        let rec = Recorder::enabled();
        assert!(rec.is_enabled());
        assert!(!rec.traces());
        rec.counter("c").inc();
        rec.histogram("h").observe(4);
        rec.instant("t", "x");
        {
            let mut s = rec.span("t", "s");
            s.push_arg("k", 1u64);
        }
        assert!(rec.drain_events().is_empty());
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(snap.histogram("h").count(), 1);
        let inner = rec.inner.as_ref().unwrap();
        assert!(
            inner.rings.lock().unwrap().live.is_empty(),
            "no ring is allocated without the event plane"
        );
        let traced = Recorder::tracing();
        assert!(traced.is_enabled() && traced.traces());
        assert!(!Recorder::disabled().traces());
    }

    #[test]
    fn a_closed_ring_is_bounded_and_retired_like_an_exited_thread() {
        let rec = Recorder::with_capacity(4);
        for _ in 0..3 {
            for _ in 0..4 {
                rec.instant("t", "e");
            }
            rec.close_thread_ring();
        }
        let events = rec.drain_events();
        assert_eq!(events.len(), 12, "each closed ring kept its 4 events");
        assert_eq!(rec.dropped_events(), 0);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "one tid per ring");
        let inner = rec.inner.as_ref().unwrap();
        assert!(
            inner.rings.lock().unwrap().live.is_empty(),
            "closed rings retire"
        );
        // Closing with no ring, or on a disabled recorder, does nothing.
        rec.close_thread_ring();
        Recorder::disabled().close_thread_ring();
    }

    #[test]
    fn drain_retires_rings_of_exited_threads() {
        let rec = Recorder::with_capacity(4);
        let live = |rec: &Recorder| rec.inner.as_ref().unwrap().rings.lock().unwrap().live.len();
        let mut last_dropped = 0;
        for round in 1..=5u64 {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let rec = rec.clone();
                    std::thread::spawn(move || {
                        for _ in 0..10 {
                            rec.instant("t", "e");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                live(&rec),
                3,
                "round {round}: exited rings wait for a drain"
            );
            assert_eq!(rec.drain_events().len(), 12, "4 kept per thread");
            assert_eq!(
                live(&rec),
                0,
                "round {round}: drained rings of exited threads retire"
            );
            let dropped = rec.dropped_events();
            assert_eq!(dropped, round * 18, "6 dropped per thread, never forgotten");
            assert!(dropped > last_dropped, "drop total is monotone");
            last_dropped = dropped;
            let snap = rec.snapshot();
            assert_eq!(snap.dropped_events, dropped);
            assert_eq!(snap.dropped_by_thread.len() as u64, round * 3);
        }
        // A live thread keeps its ring, emptied to zero capacity.
        rec.instant("t", "mine");
        assert_eq!(rec.drain_events().len(), 1);
        assert_eq!(live(&rec), 1);
        let inner = rec.inner.as_ref().unwrap();
        let rings = inner.rings.lock().unwrap();
        assert_eq!(rings.live[0].events.lock().unwrap().capacity(), 0);
    }
}
