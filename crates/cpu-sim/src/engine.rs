//! The CPU simulation engine: advances every thread through
//! `reps` repetitions of a kernel body, charging coherence-aware costs
//! per operation and rendezvousing at barriers.
//!
//! The model is *cycle-approximate, mechanism-faithful*: per-op latency
//! is `service + contention(line)` where the contention term saturates
//! (a bounded coherence-arbitration queue), store buffers hide part of
//! a store's coherence latency until a fence drains them, hyperthread
//! pairs share issue bandwidth and an L1, and barriers release all
//! arrivals together after a participant-count-dependent cost.
//!
//! Time is integer fixed-point (2²⁰ units per nanosecond, see
//! [`crate::plan`]): every `(thread, op)` cost is quantized once per run.
//! A run is a one-point `trace::PlanTable`, compiled and evaluated by
//! the same code that batched sweeps use (`trace::run_table`), which
//! detects the
//! per-thread *steady state* — consecutive repetitions with identical
//! per-thread deltas, barrier offsets, and store-buffer horizons — and
//! extrapolates the remaining repetitions with one exact integer
//! multiply. [`run_full_stepping`] is the oracle: it compiles a
//! [`RunPlan`] from a [`ContentionMap`], interprets it op by op and
//! never extrapolates; the evaluator is bit-exact against it
//! (property-tested in `tests/property_based.rs`).

use syncperf_core::obs::Recorder;
use syncperf_core::{CpuOp, Result, SyncPerfError};

use crate::config::CpuModel;
use crate::memline::ContentionMap;
use crate::plan::{units_to_ns, PlanOp, RunPlan};
use crate::topology::Placement;
use crate::trace::{rendezvous, run_batch};

/// With a tracing recorder the first `OBSERVED_REPS` repetitions of
/// every point are always stepped with per-op event emission (bounding
/// trace volume); steady-state extrapolation is only allowed past this
/// window.
pub const OBSERVED_REPS: u64 = 4;

/// Outcome of one engine run: per-thread virtual nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Elapsed virtual time per thread for the whole timed region.
    pub per_thread_ns: Vec<f64>,
    /// Number of barrier episodes executed.
    pub barrier_episodes: u64,
}

/// Runs `body` for `reps` repetitions on every placed thread.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
) -> Result<EngineResult> {
    run_observed(model, placement, body, reps, syncperf_core::obs::global())
}

/// [`run`] with an explicit [`Recorder`]: a one-point
/// [`crate::trace::run_batch`], which does all the recording (see its
/// docs for the counters and events).
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run_observed(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<EngineResult> {
    Ok(
        run_batch(model, body, std::slice::from_ref(placement), reps, rec)?
            .pop()
            .expect("one point in, one result out"),
    )
}

/// The stepping oracle: interprets the compiled plan's [`PlanOp`]s op
/// by op for every repetition, never extrapolating and never lowering
/// to a table. The property tests assert [`run_observed`] is bit-exact
/// against it.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero.
pub fn run_full_stepping(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    reps: u64,
) -> Result<EngineResult> {
    if reps == 0 {
        return Err(SyncPerfError::InvalidParams("reps must be > 0".into()));
    }
    let contention = ContentionMap::analyze(body, placement, 64);
    let plan = RunPlan::compile(model, placement, &contention, body);
    let n = plan.threads();
    let mut t = vec![0u64; n];
    let mut pending = vec![0u64; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..reps {
        for (seg_idx, &(start, end)) in plan.segments().iter().enumerate() {
            if seg_idx > 0 {
                rendezvous(
                    plan.barrier_units(),
                    plan.stagger_units(),
                    &mut t,
                    &mut order,
                );
            }
            for tid in 0..n {
                let (t, pending) = (&mut t[tid], &mut pending[tid]);
                for idx in start..end {
                    match plan.op(tid, idx) {
                        PlanOp::Barrier => unreachable!("barriers delimit segments"),
                        PlanOp::Fixed(cost) => *t += cost,
                        PlanOp::Store {
                            visible,
                            pending_extra,
                        } => {
                            *t += visible;
                            *pending = (*pending).max(*t + pending_extra);
                        }
                        PlanOp::Flush { base } => {
                            *t += base + pending.saturating_sub(*t);
                            *pending = *t;
                        }
                    }
                }
            }
        }
    }
    Ok(EngineResult {
        per_thread_ns: t.iter().map(|&u| units_to_ns(u)).collect(),
        barrier_episodes: plan.barriers_per_rep() * reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, Affinity, DType, SYSTEM3};

    fn setup(n: u32) -> (CpuModel, Placement) {
        (
            CpuModel::baseline(),
            Placement::new(&SYSTEM3.cpu, Affinity::Spread, n),
        )
    }

    fn per_op_ns(model: &CpuModel, placement: &Placement, body: &[CpuOp], reps: u64) -> f64 {
        let r = run(model, placement, body, reps).unwrap();
        r.per_thread_ns.iter().fold(f64::MIN, |a, &b| a.max(b)) / reps as f64
    }

    #[test]
    fn rejects_zero_reps() {
        let (m, p) = setup(2);
        assert!(run(&m, &p, &kernel::omp_barrier().baseline, 0).is_err());
    }

    #[test]
    fn barrier_cost_rises_then_plateaus() {
        let m = CpuModel::baseline();
        let body = kernel::omp_barrier().baseline;
        let mut costs = Vec::new();
        for n in [2u32, 4, 8, 16, 32] {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, n);
            costs.push(per_op_ns(&m, &p, &body, 50));
        }
        assert!(costs[1] > costs[0], "4 threads costlier than 2");
        assert!(costs[2] > costs[1], "8 threads costlier than 4");
        // Beyond saturation the growth is only the small tax+stagger.
        let growth_late = costs[4] / costs[3];
        let growth_early = costs[1] / costs[0];
        assert!(
            growth_late < growth_early,
            "plateau expected beyond ~8 threads"
        );
        assert!(growth_late < 1.25);
    }

    #[test]
    fn shared_atomic_int_beats_float() {
        let (m, p) = setup(8);
        let int_cost = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let f64_cost = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::F64).baseline,
            10,
        );
        assert!(f64_cost > int_cost, "float atomics must be slower (Fig. 2)");
    }

    #[test]
    fn word_size_irrelevant_for_integer_atomics() {
        let (m, p) = setup(8);
        let i = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let u = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::U64).baseline,
            10,
        );
        assert!(
            (i - u).abs() < 1e-9,
            "int and ull identical on a 64-bit CPU (Fig. 2)"
        );
    }

    #[test]
    fn padded_private_atomics_much_faster_than_shared() {
        let (m, p) = setup(16);
        let shared = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let padded = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 16).baseline,
            10,
        );
        assert!(
            shared > 4.0 * padded,
            "contended {shared} vs padded {padded}"
        );
    }

    #[test]
    fn false_sharing_vanishes_at_the_padding_stride() {
        let (m, p) = setup(16);
        // 64-bit types: stride 8 × 8 B = 64 B → conflict-free (Fig. 3c)
        let s4 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::F64, 4).baseline,
            10,
        );
        let s8 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::F64, 8).baseline,
            10,
        );
        assert!(
            s4 > 2.0 * s8,
            "stride 8 should be dramatically faster for doubles"
        );
        // 32-bit types need stride 16 (Fig. 3d)
        let i8 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 8).baseline,
            10,
        );
        let i16 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 16).baseline,
            10,
        );
        assert!(
            i8 > 2.0 * i16,
            "stride 16 should be dramatically faster for ints"
        );
    }

    #[test]
    fn four_byte_types_slightly_worse_at_stride_one() {
        let (m, p) = setup(16);
        let i1 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::I32, 1).baseline,
            10,
        );
        let u1 = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_array(DType::U64, 1).baseline,
            10,
        );
        assert!(i1 > u1, "twice the words per line → more sharers (Fig. 3a)");
    }

    #[test]
    fn critical_slower_than_atomic() {
        let (m, p) = setup(8);
        let atomic = per_op_ns(
            &m,
            &p,
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            10,
        );
        let critical = per_op_ns(&m, &p, &kernel::omp_critical_add(DType::I32).baseline, 10);
        assert!(
            critical > 1.5 * atomic,
            "critical {critical} vs atomic {atomic} (Fig. 5)"
        );
    }

    #[test]
    fn atomic_read_costs_same_as_plain_read() {
        let (m, p) = setup(8);
        let k = kernel::omp_atomic_read(DType::I32);
        let base = per_op_ns(&m, &p, &k.baseline, 10);
        let test = per_op_ns(&m, &p, &k.test, 10);
        // The test substitutes an atomic read for the plain read; the
        // atomicity overhead is zero (§V-A2).
        assert!(
            (test - base).abs() < 0.05 * base,
            "atomic reads are free (§V-A2)"
        );
    }

    #[test]
    fn flush_cheap_without_false_sharing_expensive_with() {
        let (m, p) = setup(16);
        let k1 = kernel::omp_flush(DType::I32, 1);
        let k16 = kernel::omp_flush(DType::I32, 16);
        let fl1 = per_op_ns(&m, &p, &k1.test, 10) - per_op_ns(&m, &p, &k1.baseline, 10);
        let fl16 = per_op_ns(&m, &p, &k16.test, 10) - per_op_ns(&m, &p, &k16.baseline, 10);
        assert!(
            fl1 > 3.0 * fl16,
            "flush with sharing {fl1} vs padded {fl16} (Fig. 6)"
        );
        assert!(
            fl16 < 2.5 * m.fence_base_ns,
            "padded flush ≈ fence base cost"
        );
    }

    #[test]
    fn atomic_write_dtype_independent() {
        let (m, p) = setup(8);
        let costs: Vec<f64> = DType::ALL
            .iter()
            .map(|&dt| per_op_ns(&m, &p, &kernel::omp_atomic_write(dt).baseline, 10))
            .collect();
        for w in costs.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "atomic write is size/type blind (Fig. 4)"
            );
        }
    }

    #[test]
    fn hyperthreads_mild_slowdown() {
        let m = CpuModel::baseline();
        let body = kernel::omp_atomic_update_array(DType::I32, 16).baseline;
        let at_cores = {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 16);
            per_op_ns(&m, &p, &body, 10)
        };
        let at_max = {
            let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 32);
            per_op_ns(&m, &p, &body, 10)
        };
        let ratio = at_max / at_cores;
        assert!(
            ratio > 1.0 && ratio < 1.3,
            "hyperthreading is mild: ratio {ratio}"
        );
    }

    #[test]
    fn barrier_episodes_counted() {
        let (m, p) = setup(4);
        let r = run(&m, &p, &kernel::omp_barrier().test, 10).unwrap();
        assert_eq!(r.barrier_episodes, 20);
    }

    #[test]
    fn deterministic() {
        let (m, p) = setup(8);
        let body = kernel::omp_atomic_update_scalar(DType::F32).test;
        let a = run(&m, &p, &body, 25).unwrap();
        let b = run(&m, &p, &body, 25).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fast_path_matches_full_stepping_bit_exactly() {
        for (name, body) in [
            ("barrier", kernel::omp_barrier().test),
            ("flush", kernel::omp_flush(DType::I32, 1).test),
            ("critical", kernel::omp_critical_add(DType::F64).test),
            (
                "atomic",
                kernel::omp_atomic_update_scalar(DType::F32).baseline,
            ),
        ] {
            let (m, p) = setup(8);
            let fast = run(&m, &p, &body, 500).unwrap();
            let full = run_full_stepping(&m, &p, &body, 500).unwrap();
            assert_eq!(fast, full, "{name}");
        }
    }

    #[test]
    fn recorder_does_not_change_results() {
        let (m, p) = setup(32); // SMT-loaded: differing per-thread deltas
        let body = kernel::omp_flush(DType::I32, 1).test;
        let quiet = run(&m, &p, &body, 200).unwrap();
        for rec in [Recorder::enabled(), Recorder::tracing()] {
            let observed = run_observed(&m, &p, &body, 200, &rec).unwrap();
            assert_eq!(quiet, observed);
        }
    }
}
