//! Cost explanation for GPU operations: decompose one op's modeled
//! cycle count into its mechanism components — the terms
//! [`crate::cost::atomic`] returns and [`engine::op_cycles`] adds up,
//! and the issue slowdown [`engine::op_charge`] says it applied.

use syncperf_core::{GpuOp, Result};

use crate::config::GpuModel;
use crate::cost;
use crate::engine;
use crate::occupancy::Occupancy;

/// One GPU op's cycle count, split by mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCostBreakdown {
    /// Human-readable op description.
    pub op: String,
    /// Base service/issue cycles (dtype-dependent for atomics,
    /// instruction-count-dependent for shuffles).
    pub service_cy: f64,
    /// Warp-aggregation pre-reduction (aggregated atomics only).
    pub aggregation_cy: f64,
    /// Same-address queueing delay.
    pub same_addr_cy: f64,
    /// Per-SM atomic-issue queueing (private-array atomics).
    pub sm_queue_cy: f64,
    /// L2 line transactions + bandwidth queueing.
    pub l2_cy: f64,
    /// SM issue-bandwidth slowdown the engine folded into this op's
    /// cycles (1.0 = full speed, and for every op that pays none).
    pub issue_slowdown: f64,
    /// Concurrent same-address requests (atomics on shared scalars).
    pub requests: u32,
}

impl GpuCostBreakdown {
    /// Total modeled cycles.
    #[must_use]
    pub fn total_cy(&self) -> f64 {
        self.service_cy + self.aggregation_cy + self.same_addr_cy + self.sm_queue_cy + self.l2_cy
    }

    /// Renders one formatted line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{:<52} {:>8.1} cy = service {:>6.1} + agg {:>5.1} + same-addr {:>7.1} + sm-q \
             {:>5.1} + l2 {:>6.1}   [slowdown x{:.2}, {} request(s)]",
            self.op,
            self.total_cy(),
            self.service_cy,
            self.aggregation_cy,
            self.same_addr_cy,
            self.sm_queue_cy,
            self.l2_cy,
            self.issue_slowdown,
            self.requests
        )
    }
}

/// Explains one op's cost at the given occupancy: an atomic's terms
/// are [`cost::atomic`]'s, any other op is all service, at the
/// slowdown [`engine::op_charge`] reports.
///
/// # Errors
///
/// Same errors as [`engine::op_cycles`] (unsupported dtype or compute
/// capability).
pub fn explain_op(m: &GpuModel, occ: &Occupancy, op: &GpuOp) -> Result<GpuCostBreakdown> {
    // Cost through the engine first so explain rejects exactly what
    // execution rejects.
    let charge = engine::op_charge(m, occ, op)?;
    let mut b = GpuCostBreakdown {
        op: format!("{op:?}"),
        service_cy: charge.cycles,
        aggregation_cy: 0.0,
        same_addr_cy: 0.0,
        sm_queue_cy: 0.0,
        l2_cy: 0.0,
        issue_slowdown: charge.slowdown,
        requests: 0,
    };
    if let Some((kind, dtype, scope, target)) = cost::atomic_kind(op) {
        let c = cost::atomic(m, occ, kind, dtype, scope, target);
        b.service_cy = c.service;
        b.aggregation_cy = c.aggregation;
        b.same_addr_cy = c.same_addr;
        b.sm_queue_cy = c.sm_queue;
        b.l2_cy = c.l2_tx + c.l2_queue;
        b.requests = c.requests;
    }
    Ok(b)
}

/// Explains every op of a body and renders a report.
///
/// # Errors
///
/// Propagates [`explain_op`] errors.
pub fn explain_body(m: &GpuModel, occ: &Occupancy, body: &[GpuOp]) -> Result<String> {
    let mut out = format!(
        "cost breakdown at {} blocks x {} threads ({} resident warps/SM):\n",
        occ.blocks, occ.threads_per_block, occ.warps_per_sm
    );
    for op in body {
        out.push_str(&explain_op(m, occ, op)?.render());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, Scope, ShflVariant, SYSTEM3};

    fn occ(blocks: u32, threads: u32) -> Occupancy {
        Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap()
    }

    #[test]
    fn breakdown_consistent_with_engine_across_kernels() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let bodies = [
            kernel::cuda_syncthreads().baseline,
            kernel::cuda_syncwarp().baseline,
            kernel::cuda_atomic_add_scalar(DType::F32).baseline,
            kernel::cuda_atomic_add_array(DType::I32, 32).baseline,
            kernel::cuda_atomic_cas_scalar(DType::U64).baseline,
            kernel::cuda_shfl(DType::F64, ShflVariant::Xor).baseline,
        ];
        for body in &bodies {
            for (blocks, threads) in [(1u32, 32u32), (2, 64), (128, 1024)] {
                let o = occ(blocks, threads);
                let total: f64 = body
                    .iter()
                    .map(|op| explain_op(&m, &o, op).unwrap().total_cy())
                    .sum();
                let engine: f64 = body
                    .iter()
                    .map(|op| engine::op_cycles(&m, &o, op).unwrap())
                    .sum();
                assert!((total - engine).abs() < 1e-9 * engine.max(1.0), "{body:?}");
            }
        }
    }

    #[test]
    fn aggregated_add_shows_aggregation_component() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
        let b = explain_op(&m, &occ(2, 1024), &body[0]).unwrap();
        assert!(b.aggregation_cy > 0.0);
        assert_eq!(b.requests, 64, "2 blocks x 32 warps after aggregation");
        assert!(b.same_addr_cy > 0.0);
    }

    #[test]
    fn cas_shows_no_aggregation_and_thread_requests() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_atomic_cas_scalar(DType::I32).baseline;
        let b = explain_op(&m, &occ(1, 64), &body[0]).unwrap();
        assert_eq!(b.aggregation_cy, 0.0);
        assert_eq!(b.requests, 64, "one request per thread");
    }

    #[test]
    fn private_array_blames_l2_and_sm_queue() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_atomic_add_array(DType::I32, 32).baseline;
        let b = explain_op(&m, &occ(128, 1024), &body[0]).unwrap();
        assert!(b.l2_cy > 0.0);
        assert!(b.sm_queue_cy > 0.0);
        assert_eq!(
            b.same_addr_cy, 0.0,
            "distinct addresses never queue on one another"
        );
    }

    #[test]
    fn warp_local_ops_report_slowdown() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_syncwarp().baseline;
        let below = explain_op(&m, &occ(128, 256), &body[0]).unwrap();
        let above = explain_op(&m, &occ(128, 1024), &body[0]).unwrap();
        assert_eq!(below.issue_slowdown, 1.0);
        assert!(above.issue_slowdown > 1.0);
    }

    #[test]
    fn ops_that_pay_no_slowdown_report_none() {
        // A device fence, an update and a block barrier cost the same
        // at any SM load; a 64-bit shuffle at 256 threads/SM is already
        // slowed.
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let busy = occ(128, 1024);
        for body in [
            kernel::cuda_threadfence(Scope::Device, DType::I32, 1).test,
            kernel::cuda_syncthreads().baseline,
        ] {
            for op in &body {
                assert_eq!(
                    explain_op(&m, &busy, op).unwrap().issue_slowdown,
                    1.0,
                    "{op:?}"
                );
            }
        }
        let shfl = kernel::cuda_shfl(DType::F64, ShflVariant::Xor).baseline;
        let b = explain_op(&m, &occ(128, 256), &shfl[0]).unwrap();
        assert!(b.issue_slowdown > 1.0, "{b:?}");
    }

    #[test]
    fn explain_rejects_what_engine_rejects() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let bad = kernel::cuda_atomic_cas_scalar(DType::F64).baseline;
        assert!(explain_op(&m, &occ(1, 32), &bad[0]).is_err());
    }

    #[test]
    fn body_report_lists_each_op() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        let report = explain_body(&m, &occ(64, 256), &body).unwrap();
        assert_eq!(report.lines().count(), body.len() + 1);
        assert!(report.contains("AtomicAdd"));
    }
}
