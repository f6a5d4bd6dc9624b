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
//! single run ([`crate::engine::run_observed`]) is a batch of one.

use syncperf_core::{GpuOp, Result, Scope};

use crate::config::GpuModel;
use crate::engine::{op_cycles, quantize_cycles, GpuEngineResult};
use crate::occupancy::Occupancy;

/// Evaluates `body` at every occupancy point in one batched pass.
///
/// Returns one result per point, in order, each identical to
/// [`crate::engine::run_observed`] at that point alone. Fails if any
/// point rejects an op (unsupported dtype or capability) — batched
/// callers fall back to per-point runs, which reproduce the exact
/// error for the offending point.
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
    Ok(occs
        .iter()
        .zip(&units_per_rep)
        .map(|(occ, &upr)| GpuEngineResult {
            total_units: upr * reps,
            units_per_rep: upr,
            total_threads: u64::from(occ.blocks) * u64::from(occ.threads_per_block),
            has_system_fence,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_observed;
    use syncperf_core::obs::Recorder;
    use syncperf_core::{kernel, DType, Scope, SYSTEM1};

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
            let batch = run_batch(&m, &occs, &body, 1000).unwrap();
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
        assert!(run_batch(&m, &occs, &body, 10).is_err());
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let m = GpuModel::for_spec(&SYSTEM1.gpu);
        let occs = occupancies(&[(2, 64)]);
        let body = kernel::cuda_syncthreads().baseline;
        assert!(run_batch(&m, &occs, &body, 0).is_err());
        assert!(run_batch(&m, &[], &body, 10).is_err());
    }
}
