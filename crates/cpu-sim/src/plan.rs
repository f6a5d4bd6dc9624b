//! Compiled per-run execution plan: integer fixed-point op costs.
//!
//! The engine used to recompute every op's latency (model lookups,
//! contention-map queries, SMT factors) on every repetition of every
//! thread. All of those inputs are constant for the duration of a run,
//! so the plan computes each `(thread, op)` cost exactly once and
//! quantizes it to an integer number of fixed-point time units.
//!
//! Quantization is what makes the steady-state fast path *bit-exact*:
//! integer addition is associative, so `delta × remaining_reps` (one
//! multiply) equals stepping `remaining_reps` more repetitions — which
//! is never true of repeated `f64` addition. A nanosecond is split into
//! 2²⁰ units; the worst-case run total stays far below 2⁵³ units, so
//! the single conversion back to `f64` at the end of a run is exact.
//!
//! A cost depends on the thread only through the op's line contention
//! and whether its core is SMT-loaded, so a cost is two steps: find the
//! `(thread, op)`'s contenders (`OpContention`), then turn `(op,
//! contenders, SMT)` into a quantized [`PlanOp`] (`cost_of`). The cost
//! function is the one place the model's latencies are combined: it
//! also returns the mechanism terms it added up, which
//! [`crate::explain`] reports, so an explained total is the charged
//! one.
//! Production compiles go straight into the evaluator's table
//! (`trace::PlanTable::compile`), finding contenders from runs of
//! threads on a line. The oracle takes the first step from a
//! [`ContentionMap`] instead: [`RunPlan::compile`], what the stepping
//! oracle ([`crate::engine::run_full_stepping`]) interprets, looks a
//! line up once per run of consecutive threads on it and calls the
//! cost function when the key changes from the previous thread's, and
//! [`op_cost`] is the same pair of steps for one `(thread, op)` with
//! nothing shared.

use syncperf_core::{CpuOp, DType, Target};

use crate::config::CpuModel;
use crate::memline::{classify, line_of, lock_line, Access, ContentionMap, LineId, LineStats};
use crate::topology::Placement;

/// log₂ of the number of fixed-point units per nanosecond.
pub const SCALE_BITS: u32 = 20;

/// Fixed-point units per nanosecond (2²⁰).
pub const SCALE: f64 = (1u64 << SCALE_BITS) as f64;

/// Quantizes a latency in nanoseconds to fixed-point units.
#[must_use]
pub fn quantize(ns: f64) -> u64 {
    debug_assert!(ns >= 0.0, "negative latency {ns}");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (ns * SCALE).round() as u64
    }
}

/// Converts fixed-point units back to nanoseconds. Exact for any total
/// below 2⁵³ units (≈ 8.6 × 10⁶ seconds of virtual time).
#[must_use]
pub fn units_to_ns(units: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        units as f64 / SCALE
    }
}

/// One precompiled op cost for a specific thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// State-independent cost: the thread clock advances by the units.
    Fixed(u64),
    /// A plain store: `visible` is charged to the clock, and the store
    /// buffer's drain horizon rises to `t + pending_extra`.
    Store {
        /// Cost visible to the issuing thread.
        visible: u64,
        /// Hidden coherence latency a later fence must pay.
        pending_extra: u64,
    },
    /// A fence: charges `base` plus whatever the store buffer still
    /// hides (`pending − t`), then drains the buffer.
    Flush {
        /// Fixed fence cost with an empty store buffer.
        base: u64,
    },
    /// Placeholder at a barrier position; never stepped — the engine
    /// rendezvouses instead.
    Barrier,
}

/// The fully compiled plan of one engine run: per-`(thread, op)` integer
/// costs, the barrier segmentation of the body, and the quantized
/// barrier constants.
#[derive(Debug, Clone)]
pub struct RunPlan {
    threads: usize,
    body_len: usize,
    /// `threads × body_len` cost table, thread-major.
    ops: Vec<PlanOp>,
    /// `[start, end)` op ranges between barriers; rendezvous happens
    /// after every segment except the last.
    segments: Vec<(usize, usize)>,
    /// Quantized release cost of one barrier episode.
    barrier_units: u64,
    /// Quantized release stagger between consecutive barrier leavers.
    stagger_units: u64,
}

impl RunPlan {
    /// Compiles `body` against a model, placement, and contention map.
    #[must_use]
    pub fn compile(
        model: &CpuModel,
        placement: &Placement,
        contention: &ContentionMap,
        body: &[CpuOp],
    ) -> Self {
        let n = placement.len();
        let mut ops = vec![PlanOp::Barrier; n * body.len()];
        let mut resolver = Resolver::new(contention);
        for (idx, op) in body.iter().enumerate() {
            // A cost depends on the op, not its position: a repeated op
            // (a test body is often its baseline's op twice) copies the
            // first occurrence's costs.
            if let Some(first) = body[..idx].iter().position(|o| o == op) {
                for tid in 0..n {
                    ops[tid * body.len() + idx] = ops[tid * body.len() + first];
                }
                continue;
            }
            let lines = OpLines::of(op);
            let mut last: Option<(OpContention, bool, PlanOp)> = None;
            for tid in 0..n {
                let c = resolver.resolve(lines, tid, placement.slot(tid).core);
                let smt_loaded = placement.core_is_smt_loaded(tid);
                let cost = match last {
                    Some((lc, ls, cost)) if lc == c && ls == smt_loaded => cost,
                    _ => {
                        let cost = cost_of(model, op, c, smt_loaded).0;
                        last = Some((c, smt_loaded, cost));
                        cost
                    }
                };
                ops[tid * body.len() + idx] = cost;
            }
        }

        let mut segments = Vec::new();
        let mut start = 0usize;
        for (i, op) in body.iter().enumerate() {
            if matches!(op, CpuOp::Barrier) {
                segments.push((start, i));
                start = i + 1;
            }
        }
        segments.push((start, body.len()));

        #[allow(clippy::cast_possible_truncation)]
        let barrier_units = quantize(model.barrier_ns(n as u32));
        RunPlan {
            threads: n,
            body_len: body.len(),
            ops,
            segments,
            barrier_units,
            stagger_units: quantize(model.release_stagger_ns),
        }
    }

    /// Number of placed threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The compiled cost of op `idx` for thread `tid`.
    #[must_use]
    pub fn op(&self, tid: usize, idx: usize) -> PlanOp {
        self.ops[tid * self.body_len + idx]
    }

    /// The barrier-free segments of the body, in execution order.
    #[must_use]
    pub fn segments(&self) -> &[(usize, usize)] {
        &self.segments
    }

    /// Barriers executed per repetition.
    #[must_use]
    pub fn barriers_per_rep(&self) -> u64 {
        self.segments.len() as u64 - 1
    }

    /// Quantized cost of one barrier release.
    #[must_use]
    pub fn barrier_units(&self) -> u64 {
        self.barrier_units
    }

    /// Quantized stagger between consecutive barrier leavers.
    #[must_use]
    pub fn stagger_units(&self) -> u64 {
        self.stagger_units
    }
}

/// The line contention one op meets for one thread: `(contenders,
/// cross_socket)` on its data line and on the critical-section lock
/// line, `(0, false)` for a line it does not touch. With the op and the
/// thread's SMT flag it is the whole key of the op's cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpContention {
    pub(crate) line: (u32, bool),
    pub(crate) lock: (u32, bool),
}

/// The lines an op touches, the same for every thread: the lock line
/// (always written) and its data line as `(dtype, target, is_write)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpLines {
    pub(crate) lock: bool,
    pub(crate) data: Option<(DType, Target, bool)>,
}

impl OpLines {
    pub(crate) fn of(op: &CpuOp) -> Self {
        let (lock, data) = match classify(op) {
            // The critical brackets carry no operand but take the lock.
            Access::None => (
                matches!(op, CpuOp::CriticalBegin { .. } | CpuOp::CriticalEnd { .. }),
                None,
            ),
            Access::Read(dtype, target) => (false, Some((dtype, target, false))),
            Access::Write(dtype, target) => (false, Some((dtype, target, true))),
            Access::CriticalWrite(dtype, target) => (true, Some((dtype, target, true))),
        };
        OpLines { lock, data }
    }
}

/// Finds each `(thread, op)`'s [`OpContention`]. Consecutive threads
/// mostly touch one data line, so the last line's stats are kept and
/// the map is probed only when the line changes; the lock line's stats
/// are looked up once.
#[derive(Debug)]
struct Resolver<'a> {
    contention: &'a ContentionMap,
    lock: Option<&'a LineStats>,
    run: Option<(LineId, Option<&'a LineStats>)>,
}

impl<'a> Resolver<'a> {
    fn new(contention: &'a ContentionMap) -> Self {
        Resolver {
            contention,
            lock: contention.line(lock_line()),
            run: None,
        }
    }

    fn resolve(&mut self, lines: OpLines, tid: usize, core: u32) -> OpContention {
        let lock = if lines.lock {
            self.lock.map_or((0, false), |s| s.contenders(core, true))
        } else {
            (0, false)
        };
        let line = match lines.data {
            None => (0, false),
            Some((dtype, target, is_write)) => {
                let id = line_of(dtype, target, tid, self.contention.line_bytes());
                let stats = match self.run {
                    Some((run_id, stats)) if run_id == id => stats,
                    _ => {
                        let stats = self.contention.line(id);
                        self.run = Some((id, stats));
                        stats
                    }
                };
                stats.map_or((0, false), |s| s.contenders(core, is_write))
            }
        };
        OpContention { line, lock }
    }
}

/// The compiled cost of `op` for thread `tid`, computed directly: the
/// plan's resolver and cost function with nothing shared between
/// threads or ops. [`RunPlan::compile`] must agree with it on every
/// `(thread, op)`.
#[must_use]
pub fn op_cost(
    model: &CpuModel,
    placement: &Placement,
    contention: &ContentionMap,
    op: &CpuOp,
    tid: usize,
) -> PlanOp {
    op_charge(model, placement, contention, op, tid).0
}

/// [`op_cost`] with the terms it was built from.
pub(crate) fn op_charge(
    model: &CpuModel,
    placement: &Placement,
    contention: &ContentionMap,
    op: &CpuOp,
    tid: usize,
) -> (PlanOp, CostTerms) {
    let c = Resolver::new(contention).resolve(OpLines::of(op), tid, placement.slot(tid).core);
    cost_of(model, op, c, placement.core_is_smt_loaded(tid))
}

/// One op's cost by mechanism, in nanoseconds: the terms [`cost_of`]
/// charges, before quantization. The data line's terms are what the
/// issuing thread sees; a plain store leaves the rest to a later fence.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CostTerms {
    /// SMT slowdown of the issuing core (1.0 = core not shared),
    /// already applied to the service, retry and lock terms.
    pub(crate) smt: f64,
    /// Core-local service time.
    pub(crate) service: f64,
    /// Cache-to-cache transfer of the data line.
    pub(crate) transfer: f64,
    /// Saturating arbitration queue on the data line.
    pub(crate) arbitration: f64,
    /// Unbounded per-sharer tax on the data line.
    pub(crate) sharer_tax: f64,
    /// Floating-point CAS-loop retries.
    pub(crate) fp_retry: f64,
    /// Lock overhead, acquire and release, with the lock line's
    /// contention.
    pub(crate) lock: f64,
    /// Contenders on the most contended line the op touches.
    pub(crate) contenders: u32,
    /// Whether any touched line's contenders span sockets.
    pub(crate) cross_socket: bool,
}

/// The cost function: one op's latency under contention `c`, on an
/// SMT-loaded core or not, quantized, and the terms it adds up. The
/// one place the model's latencies are combined into an op cost.
pub(crate) fn cost_of(
    model: &CpuModel,
    op: &CpuOp,
    c: OpContention,
    smt_loaded: bool,
) -> (PlanOp, CostTerms) {
    let smt = if smt_loaded {
        model.smt_service_factor
    } else {
        1.0
    };
    let lock_line = model.contention_ns(c.lock.0, c.lock.1);
    let [transfer, arbitration, sharer_tax] = model.contention_terms(c.line.0, c.line.1);
    let coherence = transfer + arbitration + sharer_tax;
    let mut t = CostTerms {
        smt,
        transfer,
        arbitration,
        sharer_tax,
        contenders: c.line.0.max(c.lock.0),
        cross_socket: c.line.1 || c.lock.1,
        ..CostTerms::default()
    };
    let plan = match *op {
        CpuOp::Barrier => PlanOp::Barrier,
        CpuOp::Flush => {
            t.service = model.fence_base_ns * smt;
            PlanOp::Flush {
                base: quantize(t.service),
            }
        }
        CpuOp::CriticalAdd { .. } => {
            // Lock acquire (RMW on the lock line), protected plain
            // update, lock release (store on the lock line).
            let acquire = model.rmw_int_ns * smt + lock_line;
            let release = model.store_ns * smt + lock_line;
            t.service = (model.l1_hit_ns + model.store_ns) * smt;
            t.lock = model.lock_overhead_ns * smt + acquire + release;
            PlanOp::Fixed(quantize(
                model.lock_overhead_ns * smt + acquire + (t.service + coherence) + release,
            ))
        }
        // The acquire half of the CriticalAdd cost split: lock overhead
        // plus an RMW on the contended lock line.
        CpuOp::CriticalBegin { .. } => {
            t.lock = model.lock_overhead_ns * smt + model.rmw_int_ns * smt + lock_line;
            PlanOp::Fixed(quantize(t.lock))
        }
        // The release half: a store on the lock line.
        CpuOp::CriticalEnd { .. } => {
            t.lock = model.store_ns * smt + lock_line;
            PlanOp::Fixed(quantize(t.lock))
        }
        CpuOp::Read { .. } | CpuOp::AtomicRead { .. } => {
            t.service = model.l1_hit_ns * smt;
            PlanOp::Fixed(quantize(t.service + coherence))
        }
        // The store buffer hides part of the coherence latency from the
        // issuing thread; a fence that drains the buffer pays the
        // hidden fraction.
        CpuOp::Update { .. } => {
            let seen = 1.0 - model.store_buffer_hiding;
            t.service = (model.l1_hit_ns + model.store_ns) * smt;
            t.transfer *= seen;
            t.arbitration *= seen;
            t.sharer_tax *= seen;
            PlanOp::Store {
                visible: quantize(t.service + seen * coherence),
                pending_extra: quantize(coherence * model.store_buffer_hiding),
            }
        }
        // No arithmetic: word size and type are irrelevant (Fig. 4) —
        // a 64-bit CPU stores ≤ 8 B in one go.
        CpuOp::AtomicWrite { .. } => {
            t.service = model.store_ns * smt;
            PlanOp::Fixed(quantize(t.service + coherence))
        }
        // Integers use one lock-prefixed instruction; floats run a
        // compare-exchange loop that retries under contention (hence
        // the integer/floating-point gap in Figs. 2 and 3).
        CpuOp::AtomicUpdate { dtype, .. } | CpuOp::AtomicCapture { dtype, .. } => {
            let (service, retry) = if dtype.is_integer() {
                (model.rmw_int_ns, 0.0)
            } else {
                (
                    model.rmw_int_ns + model.fp_cas_extra_ns,
                    model.fp_retry_ns * f64::from(c.line.0.min(model.contention_sat)),
                )
            };
            t.service = service * smt;
            t.fp_retry = retry * smt;
            PlanOp::Fixed(quantize((service + retry) * smt + coherence))
        }
    };
    (plan, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, Affinity, DType, SYSTEM3};

    #[test]
    fn quantization_round_trips_small_integers() {
        for ns in [0.0, 1.0, 6.5, 10.0, 150.0, 40.0] {
            assert!((units_to_ns(quantize(ns)) - ns).abs() < 1e-6);
        }
    }

    #[test]
    fn plan_segments_split_at_barriers() {
        let model = CpuModel::baseline();
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 4);
        let body = kernel::omp_barrier().test;
        let c = ContentionMap::analyze(&body, &p, 64);
        let plan = RunPlan::compile(&model, &p, &c, &body);
        let barriers = body
            .iter()
            .filter(|op| matches!(op, CpuOp::Barrier))
            .count() as u64;
        assert_eq!(plan.barriers_per_rep(), barriers);
        assert_eq!(plan.segments().len() as u64, barriers + 1);
        assert!(plan.barrier_units() > 0);
    }

    #[test]
    fn identical_costs_quantize_identically() {
        // The word-size-irrelevance claims (Fig. 4) rely on equal f64
        // costs staying equal after quantization.
        let model = CpuModel::baseline();
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 8);
        let bi = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let bu = kernel::omp_atomic_update_scalar(DType::U64).baseline;
        let ci = ContentionMap::analyze(&bi, &p, 64);
        let cu = ContentionMap::analyze(&bu, &p, 64);
        let pi = RunPlan::compile(&model, &p, &ci, &bi);
        let pu = RunPlan::compile(&model, &p, &cu, &bu);
        for tid in 0..8 {
            for idx in 0..bi.len() {
                assert_eq!(pi.op(tid, idx), pu.op(tid, idx));
            }
        }
    }
}
