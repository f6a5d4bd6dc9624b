//! The GPU engine's one evaluator: struct-of-arrays evaluation of one
//! kernel body at many occupancy points.
//!
//! A GPU sweep varies `(blocks, threads)` while the body stays fixed;
//! the per-run work is the per-op cost sum over the body. The evaluator
//! flips the loop nest: for each op it fills one contiguous per-point
//! units row and accumulates it into the running per-point totals — a
//! flat `u64` pass over adjacent lanes, one row per op, the same layout
//! as the CPU engine's plan tables. Each point's accumulation visits
//! ops in body order, so the quantized sum is bit-identical to stepping
//! the point alone ([`crate::engine::run_full_stepping`]). The
//! scheduler's batched sweeps call it with a whole parameter group; a
//! single run ([`crate::engine::run_observed`]) is a batch of one. It
//! is also where every GPU engine run is recorded.

use syncperf_core::obs::{ArgValue, Recorder};
use syncperf_core::{GpuOp, Result, Scope, Target};

use crate::config::GpuModel;
use crate::cost;
use crate::engine::{op_cycles, quantize_cycles, GpuEngineResult};
use crate::occupancy::Occupancy;

/// Evaluates `body` at every occupancy point in one batched pass.
///
/// Returns one result per point, in order, each identical to a batch of
/// that point alone. Fails if any point rejects an op (unsupported
/// dtype or capability) — batched callers fall back to per-point runs,
/// which reproduce the exact error for the offending point.
///
/// Any live recorder counts, per point, `gpu_sim.launches`,
/// `gpu_sim.blocks_scheduled`, `gpu_sim.warps_scheduled` and
/// `gpu_sim.atomic_conflicts` (every thread RMW-ing the same address
/// serializes at the atomic unit: all but one of the launch's accesses
/// conflict, every repetition). With the event plane on it also emits,
/// under category `gpu_sim` and per point: a `kernel_launch` span
/// carrying the point's index and its block/warp scheduling arguments,
/// and inside it an `atomic_conflict` instant per device-wide-contended
/// atomic op in the body. The spans are recorded after the batched pass,
/// so their durations cover recording only. A disabled recorder costs
/// one branch per site.
///
/// # Errors
///
/// Rejects `reps == 0` and empty batches; propagates the first
/// unsupported-op error of any point.
pub fn run_batch(
    m: &GpuModel,
    occs: &[Occupancy],
    body: &[GpuOp],
    reps: u64,
    rec: &Recorder,
) -> Result<Vec<GpuEngineResult>> {
    if reps == 0 {
        return Err(syncperf_core::SyncPerfError::InvalidParams(
            "reps must be > 0".into(),
        ));
    }
    if occs.is_empty() {
        return Err(syncperf_core::SyncPerfError::InvalidParams(
            "batch needs at least one point".into(),
        ));
    }
    let n = occs.len();
    let mut units_per_rep = vec![0u64; n];
    let mut row = vec![0u64; n];
    let mut has_system_fence = false;
    for op in body {
        for (i, occ) in occs.iter().enumerate() {
            row[i] = quantize_cycles(op_cycles(m, occ, op)?);
        }
        for i in 0..n {
            units_per_rep[i] += row[i];
        }
        if matches!(
            op,
            GpuOp::ThreadFence {
                scope: Scope::System
            }
        ) {
            has_system_fence = true;
        }
    }
    let launches = rec.counter("gpu_sim.launches");
    let blocks = rec.counter("gpu_sim.blocks_scheduled");
    let warps = rec.counter("gpu_sim.warps_scheduled");
    let conflicts = rec.counter("gpu_sim.atomic_conflicts");
    let mut results = Vec::with_capacity(n);
    for (point, (occ, &upr)) in occs.iter().zip(&units_per_rep).enumerate() {
        let r = GpuEngineResult {
            total_units: upr * reps,
            units_per_rep: upr,
            total_threads: u64::from(occ.blocks) * u64::from(occ.threads_per_block),
            has_system_fence,
        };
        let mut span = rec.span("gpu_sim", "kernel_launch");
        span.push_arg("point", point);
        span.push_arg("blocks", u64::from(occ.blocks));
        span.push_arg("threads_per_block", u64::from(occ.threads_per_block));
        span.push_arg("resident_warps", u64::from(occ.total_resident_warps));
        span.push_arg("waves", u64::from(occ.waves));
        span.push_arg("cycles_per_rep", r.cycles_per_rep());
        launches.inc();
        blocks.add(u64::from(occ.blocks));
        warps.add(u64::from(occ.blocks) * u64::from(occ.warps_per_block));
        for (idx, op) in body.iter().enumerate() {
            let shared = matches!(
                cost::atomic_kind(op),
                Some((_, _, _, Target::SharedScalar(_)))
            );
            if shared && r.total_threads > 1 {
                conflicts.add((r.total_threads - 1) * reps);
                if rec.traces() {
                    rec.instant_args(
                        "gpu_sim",
                        "atomic_conflict",
                        vec![
                            ("op_idx", ArgValue::from(idx)),
                            ("threads", ArgValue::U64(r.total_threads)),
                            ("reps", ArgValue::U64(reps)),
                        ],
                    );
                }
            }
        }
        results.push(r);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_observed;
    use syncperf_core::{kernel, DType, SYSTEM1};

    fn occupancies(points: &[(u32, u32)]) -> Vec<Occupancy> {
        points
            .iter()
            .map(|&(b, t)| Occupancy::compute(&SYSTEM1.gpu, b, t).unwrap())
            .collect()
    }

    #[test]
    fn batch_matches_per_point_runs() {
        let m = GpuModel::for_spec(&SYSTEM1.gpu);
        let rec = Recorder::disabled();
        let points = [(1u32, 32u32), (2, 64), (8, 128), (64, 256), (160, 1024)];
        let occs = occupancies(&points);
        for body in [
            kernel::cuda_syncthreads().test,
            kernel::cuda_threadfence(Scope::System, DType::I32, 1).test,
            kernel::cuda_atomic_add_scalar(DType::F64).test,
        ] {
            let batch = run_batch(&m, &occs, &body, 1000, &rec).unwrap();
            for (occ, got) in occs.iter().zip(&batch) {
                let single = run_observed(&m, occ, &body, 1000, &rec).unwrap();
                assert_eq!(got, &single);
            }
        }
    }

    #[test]
    fn batch_propagates_unsupported_ops() {
        let m = GpuModel::for_spec(&SYSTEM1.gpu);
        let occs = occupancies(&[(2, 64), (4, 128)]);
        let body = kernel::cuda_atomic_cas_scalar(DType::F32).test;
        assert!(run_batch(&m, &occs, &body, 10, &Recorder::disabled()).is_err());
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let m = GpuModel::for_spec(&SYSTEM1.gpu);
        let occs = occupancies(&[(2, 64)]);
        let body = kernel::cuda_syncthreads().baseline;
        let rec = Recorder::disabled();
        assert!(run_batch(&m, &occs, &body, 0, &rec).is_err());
        assert!(run_batch(&m, &[], &body, 10, &rec).is_err());
    }

    #[test]
    fn batch_records_every_point() {
        let m = GpuModel::for_spec(&SYSTEM1.gpu);
        let occs = occupancies(&[(2, 64), (4, 128), (1, 1)]);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
        let rec = Recorder::tracing();
        run_batch(&m, &occs, &body, 10, &rec).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("gpu_sim.launches"), 3);
        assert_eq!(snap.counter("gpu_sim.blocks_scheduled"), 7);
        assert_eq!(snap.counter("gpu_sim.atomic_conflicts"), (127 + 511) * 10);
        let events = rec.drain_events();
        for point in 0..3usize {
            assert!(events
                .iter()
                .any(|e| e.name == "kernel_launch"
                    && e.args.contains(&("point", ArgValue::from(point)))));
        }
        let conflicts = events.iter().filter(|e| e.name == "atomic_conflict");
        assert_eq!(conflicts.count(), 2, "a one-thread launch has no conflict");
    }
}
