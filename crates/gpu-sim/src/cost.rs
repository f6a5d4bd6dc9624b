//! Per-operation cost functions: one function per CUDA primitive,
//! combining the [`GpuModel`] constants with the launch [`Occupancy`].

use syncperf_core::{DType, GpuOp, Result, Scope, SyncPerfError, Target};

use crate::config::GpuModel;
use crate::occupancy::Occupancy;

/// Which atomic operation is being costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `atomicAdd()` — eligible for warp aggregation on a shared
    /// address.
    Add,
    /// `atomicCAS()` — never aggregated (the comparison outcome of one
    /// lane can change the result for the others, §V-B2).
    Cas,
    /// `atomicExch()` — never aggregated.
    Exch,
    /// `atomicMax()` — treated like CAS-class (used by Listing 1).
    Max,
}

/// 32-bit words moved per element of `dtype` (the GPU shuffle datapath
/// is 32 bits wide; 64-bit types issue two instructions — Fig. 15).
#[must_use]
pub fn words(dtype: DType) -> f64 {
    (dtype.size_bytes() / 4) as f64
}

/// One op's charge: its cycles and the SM issue-bandwidth slowdown
/// folded into them (only warp-local ops pay one), so a report prints
/// the factor the engine applied instead of re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCharge {
    /// Charged cycles.
    pub cycles: f64,
    /// The [`GpuModel::issue_slowdown`] factor folded into `cycles`
    /// (1.0 = full speed, and for every op that pays none).
    pub slowdown: f64,
}

impl OpCharge {
    /// A charge that pays no slowdown.
    #[must_use]
    pub fn flat(cycles: f64) -> Self {
        OpCharge {
            cycles,
            slowdown: 1.0,
        }
    }
}

/// `__syncthreads()` — Fig. 7: cost grows with the warps in the block
/// and is identical for every block count.
#[must_use]
pub fn syncthreads(m: &GpuModel, occ: &Occupancy) -> f64 {
    m.syncthreads_base_cy + m.syncthreads_per_warp_cy * f64::from(occ.warps_per_block - 1)
}

/// `__syncwarp()` — Fig. 8: constant until the SM's resident thread
/// count exceeds the device's full-speed threshold.
#[must_use]
pub fn syncwarp(m: &GpuModel, occ: &Occupancy) -> OpCharge {
    let slowdown = m.issue_slowdown(f64::from(occ.threads_per_sm));
    OpCharge {
        cycles: m.syncwarp_cy * slowdown,
        slowdown,
    }
}

/// Warp shuffle — Fig. 15: implies a `__syncwarp()`; 64-bit types cost
/// two 32-bit instructions and hit issue saturation at half the thread
/// count.
#[must_use]
pub fn shfl(m: &GpuModel, occ: &Occupancy, dtype: DType) -> OpCharge {
    let w = words(dtype);
    let slowdown = m.issue_slowdown(f64::from(occ.threads_per_sm) * w);
    OpCharge {
        cycles: m.shfl_cy * w * slowdown,
        slowdown,
    }
}

/// Warp vote — §V-B4: behaves like `__syncwarp()` at slightly lower
/// absolute throughput.
#[must_use]
pub fn vote(m: &GpuModel, occ: &Occupancy) -> OpCharge {
    let slowdown = m.issue_slowdown(f64::from(occ.threads_per_sm));
    OpCharge {
        cycles: m.vote_cy * slowdown,
        slowdown,
    }
}

/// `__syncthreads_count/and/or` — the block barrier plus a per-warp
/// predicate reduction folded into the release phase.
#[must_use]
pub fn syncthreads_reduce(m: &GpuModel, occ: &Occupancy) -> f64 {
    syncthreads(m, occ) + m.vote_cy + m.alu_cy * f64::from(occ.warps_per_block)
}

/// `__reduce_max_sync()` (compute capability ≥ 8.0).
///
/// # Errors
///
/// Returns [`SyncPerfError::UnsupportedOp`] below compute capability
/// 8.0.
pub fn warp_reduce(m: &GpuModel, occ: &Occupancy, dtype: DType) -> Result<OpCharge> {
    if !m.has_warp_reduce() {
        return Err(SyncPerfError::UnsupportedOp {
            op: "__reduce_max_sync".into(),
            platform: format!("gpu-sim cc {}", m.compute_capability),
        });
    }
    let w = words(dtype);
    let slowdown = m.issue_slowdown(f64::from(occ.threads_per_sm) * w);
    Ok(OpCharge {
        cycles: m.warp_reduce_cy * w * slowdown,
        slowdown,
    })
}

/// Thread fence of the given scope — Fig. 14 / §V-B3. The returned
/// cost is deterministic; the executor adds the system fence's PCIe
/// jitter on top.
#[must_use]
pub fn fence(m: &GpuModel, scope: Scope) -> f64 {
    match scope {
        Scope::Block => m.fence_block_cy,
        Scope::Device => m.fence_device_cy,
        Scope::System => m.fence_system_cy,
    }
}

/// Distinct 128-byte L2 lines one warp's atomic instruction touches
/// when lanes access a strided array.
#[must_use]
pub fn lines_per_warp(m: &GpuModel, occ: &Occupancy, dtype: DType, stride: u32) -> f64 {
    let lanes = occ.threads_per_block.min(m.warp_size);
    let span = u64::from(lanes) * u64::from(stride) * dtype.size_bytes() as u64;
    let lines = span.div_ceil(u64::from(m.l2_line_bytes));
    (lines.max(1) as f64).min(f64::from(lanes))
}

/// One atomic's cycles by mechanism, as [`atomic`] charges them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AtomicCost {
    /// Base service cycles (dtype- and scope-dependent, plus the CAS
    /// class's extra).
    pub service: f64,
    /// Warp-aggregation pre-reduction (aggregated shared-scalar adds).
    pub aggregation: f64,
    /// Same-address queueing (shared scalars).
    pub same_addr: f64,
    /// Per-SM atomic-issue queueing (private arrays).
    pub sm_queue: f64,
    /// L2 line transactions (private arrays).
    pub l2_tx: f64,
    /// Device-wide L2 bandwidth queueing (private arrays).
    pub l2_queue: f64,
    /// Concurrent same-address requests (shared scalars).
    pub requests: u32,
}

impl AtomicCost {
    /// The charged cycles: the terms added in the engine's order (a
    /// term a target does not pay is zero and adds exactly nothing).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.service
            + self.aggregation
            + self.same_addr
            + self.l2_tx
            + self.sm_queue
            + self.l2_queue
    }
}

/// An atomic operation.
///
/// * **Shared scalar, `atomicAdd`, aggregation on** — the driver's
///   warp-aggregated atomic: an in-warp reduction, then one request per
///   warp; queueing counts warps (Fig. 9's constant region to 64
///   threads at 2 blocks).
/// * **Shared scalar, CAS/Exch/Max** — one request per active thread;
///   the constant region ends at [`GpuModel::same_addr_free_requests`]
///   requests (Fig. 11: 4 threads at 1 block, 2 threads at 2 blocks).
/// * **Private strided** — no same-address queueing; instead pays L2
///   line transactions, per-SM atomic-issue queueing, and device-wide
///   L2 bandwidth pressure (Fig. 10/12).
///
/// Block-scoped atomics are serviced on the SM: cheaper service, and
/// only the block's own lanes contend.
#[must_use]
pub fn atomic(
    m: &GpuModel,
    occ: &Occupancy,
    kind: AtomicKind,
    dtype: DType,
    scope: Scope,
    target: Target,
) -> AtomicCost {
    let (service_base, arb_factor) = match scope {
        Scope::Block => (m.atomic_block.for_dtype(dtype), 0.4),
        _ => (m.atomic_device.for_dtype(dtype), 1.0),
    };
    let mut cost = AtomicCost {
        service: service_base
            + match kind {
                AtomicKind::Add => 0.0,
                AtomicKind::Cas | AtomicKind::Exch | AtomicKind::Max => m.cas_extra_cy,
            },
        ..AtomicCost::default()
    };
    match target {
        Target::SharedScalar(_) => {
            let aggregated = kind == AtomicKind::Add && m.warp_aggregation;
            cost.requests = match (scope, aggregated) {
                (Scope::Block, true) => occ.warps_per_block,
                (Scope::Block, false) => occ.threads_per_block,
                (_, true) => occ.total_resident_warps,
                (_, false) => occ.total_resident_threads,
            };
            if aggregated {
                cost.aggregation = m.warp_agg_reduce_cy;
            }
            cost.same_addr =
                m.same_addr_delay(cost.requests) * arb_factor * m.dtype_contention_factor(dtype);
        }
        Target::Private { array: _, stride } => {
            let k = lines_per_warp(m, occ, dtype, stride);
            cost.l2_tx = k * m.l2_tx_cy;
            cost.sm_queue = m.sm_atomic_queue_cy * f64::from(occ.warps_per_sm.saturating_sub(1));
            let pressure = f64::from(occ.total_resident_warps) * k;
            cost.l2_queue = m.l2_queue_delay(pressure) * arb_factor;
        }
    }
    cost
}

/// Maps a [`GpuOp`] atomic to its kind, if it is one. The further RMW
/// ops (`atomicSub/Min/And/Or/Xor`) are all commutative reductions and
/// share `atomicAdd`'s datapath, including warp aggregation.
#[must_use]
pub fn atomic_kind(op: &GpuOp) -> Option<(AtomicKind, DType, Scope, Target)> {
    match *op {
        GpuOp::AtomicAdd {
            dtype,
            scope,
            target,
        }
        | GpuOp::AtomicRmw {
            dtype,
            scope,
            target,
            ..
        } => Some((AtomicKind::Add, dtype, scope, target)),
        GpuOp::AtomicCas {
            dtype,
            scope,
            target,
        } => Some((AtomicKind::Cas, dtype, scope, target)),
        GpuOp::AtomicExch {
            dtype,
            scope,
            target,
        } => Some((AtomicKind::Exch, dtype, scope, target)),
        GpuOp::AtomicMax {
            dtype,
            scope,
            target,
        } => Some((AtomicKind::Max, dtype, scope, target)),
        _ => None,
    }
}

/// SIMT divergence: `paths` serialized path executions plus a constant
/// reconvergence penalty per extra path. The slowdown applies to the
/// path executions only.
#[must_use]
pub fn diverge(m: &GpuModel, occ: &Occupancy, dtype: DType, paths: u32) -> OpCharge {
    let effective = paths.min(m.warp_size).max(1);
    let w = words(dtype);
    let slowdown = m.issue_slowdown(f64::from(occ.threads_per_sm) * w);
    let per_path = m.alu_cy * w * slowdown;
    OpCharge {
        cycles: per_path * f64::from(effective)
            + m.divergence_penalty_cy * f64::from(effective - 1),
        slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{SYSTEM1, SYSTEM3};

    fn model() -> GpuModel {
        GpuModel::for_spec(&SYSTEM3.gpu)
    }

    fn occ(blocks: u32, threads: u32) -> Occupancy {
        Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap()
    }

    /// The charged cycles of [`super::atomic`].
    fn atomic(
        m: &GpuModel,
        occ: &Occupancy,
        kind: AtomicKind,
        dtype: DType,
        scope: Scope,
        target: Target,
    ) -> f64 {
        super::atomic(m, occ, kind, dtype, scope, target).total()
    }

    #[test]
    fn syncthreads_constant_within_a_warp_then_growing() {
        let m = model();
        let c32 = syncthreads(&m, &occ(1, 32));
        let c16 = syncthreads(&m, &occ(1, 16));
        assert_eq!(
            c32, c16,
            "whole warp runs regardless of lane count (Fig. 7)"
        );
        let c64 = syncthreads(&m, &occ(1, 64));
        let c1024 = syncthreads(&m, &occ(1, 1024));
        assert!(c64 > c32);
        assert!(c1024 > c64);
    }

    #[test]
    fn syncthreads_identical_across_block_counts() {
        let m = model();
        for t in [32, 256, 1024] {
            let a = syncthreads(&m, &occ(1, t));
            let b = syncthreads(&m, &occ(128, t));
            let c = syncthreads(&m, &occ(256, t));
            assert_eq!(a, b);
            assert_eq!(b, c);
        }
    }

    #[test]
    fn syncwarp_constant_until_sm_saturation() {
        let m = model();
        // Full config (128 blocks = #SMs on the 4090): 1 block/SM.
        let c64 = syncwarp(&m, &occ(128, 64)).cycles;
        let c256 = syncwarp(&m, &occ(128, 256)).cycles;
        assert_eq!(c64, c256, "flat up to 256 threads/SM on the 4090");
        let c512 = syncwarp(&m, &occ(128, 512)).cycles;
        assert!(c512 > c256, "drops beyond the full-speed threshold");
        // The drop is 'somewhat', not a collapse (y-axis non-zero).
        assert!(c512 / c256 < 1.5);
    }

    #[test]
    fn syncwarp_double_config_drops_one_step_earlier() {
        // Fig. 8: at 2 blocks/SM the same per-SM load is reached at
        // half the per-block thread count.
        let m = model();
        let full_256 = syncwarp(&m, &occ(128, 256)).cycles;
        let double_128 = syncwarp(&m, &occ(256, 128)).cycles;
        assert_eq!(
            full_256, double_128,
            "2 blocks × 128 = 1 block × 256 threads/SM"
        );
        let full_512 = syncwarp(&m, &occ(128, 512)).cycles;
        let double_256 = syncwarp(&m, &occ(256, 256)).cycles;
        assert_eq!(full_512, double_256);
        assert!(double_256 > double_128);
    }

    #[test]
    fn system1_holds_full_speed_longer() {
        // RTX 2070 SUPER: full speed to 512 threads/SM (Fig. 8b).
        let m1 = GpuModel::for_spec(&SYSTEM1.gpu);
        let o = |t| Occupancy::compute(&SYSTEM1.gpu, 40, t).unwrap();
        assert_eq!(syncwarp(&m1, &o(256)).cycles, syncwarp(&m1, &o(512)).cycles);
        assert!(syncwarp(&m1, &o(1024)).cycles > syncwarp(&m1, &o(512)).cycles);
    }

    #[test]
    fn shfl_64bit_double_cost_and_earlier_drop() {
        let m = model();
        let f32_128 = shfl(&m, &occ(128, 128), DType::F32).cycles;
        let f64_128 = shfl(&m, &occ(128, 128), DType::F64).cycles;
        assert!(
            (f64_128 - 2.0 * f32_128).abs() < 1e-9,
            "2 instructions for 64-bit"
        );
        // 64-bit demand saturates at half the thread count.
        let f64_256 = shfl(&m, &occ(128, 256), DType::F64).cycles;
        let f32_256 = shfl(&m, &occ(128, 256), DType::F32).cycles;
        assert!(f64_256 / f64_128 > 1.0, "64-bit already slowed at 256");
        assert!((f32_256 - f32_128).abs() < 1e-9, "32-bit still flat at 256");
    }

    #[test]
    fn vote_slightly_slower_than_syncwarp() {
        let m = model();
        let o = occ(128, 64);
        assert!(vote(&m, &o).cycles > syncwarp(&m, &o).cycles);
        assert!(vote(&m, &o).cycles < 2.0 * syncwarp(&m, &o).cycles);
    }

    #[test]
    fn warp_reduce_gated_by_cc() {
        let m1 = GpuModel::for_spec(&SYSTEM1.gpu); // cc 7.5
        let o = Occupancy::compute(&SYSTEM1.gpu, 1, 32).unwrap();
        assert!(warp_reduce(&m1, &o, DType::I32).is_err());
        assert!(warp_reduce(&model(), &occ(1, 32), DType::I32).is_ok());
    }

    #[test]
    fn warp_local_costs_report_the_slowdown_they_charge() {
        // Below the 4090's full-speed threshold nothing is slowed; past
        // it, 64-bit shuffles pay for twice the demand of 32-bit ones.
        let m = model();
        let (low, high) = (occ(128, 128), occ(128, 1024));
        for c in [
            syncwarp(&m, &low),
            vote(&m, &low),
            shfl(&m, &low, DType::F32),
            diverge(&m, &low, DType::I32, 4),
        ] {
            assert_eq!(c.slowdown, 1.0, "{c:?}");
        }
        assert_eq!(
            syncwarp(&m, &high).cycles,
            m.syncwarp_cy * syncwarp(&m, &high).slowdown
        );
        assert!(shfl(&m, &occ(128, 256), DType::F64).slowdown > 1.0);
        assert_eq!(shfl(&m, &occ(128, 256), DType::F32).slowdown, 1.0);
        assert!(shfl(&m, &high, DType::F64).slowdown > shfl(&m, &high, DType::F32).slowdown);
        assert_eq!(
            warp_reduce(&m, &high, DType::U64).unwrap().slowdown,
            shfl(&m, &high, DType::F64).slowdown
        );
    }

    #[test]
    fn fence_costs_ordered_by_scope() {
        let m = model();
        assert!(fence(&m, Scope::Block) < fence(&m, Scope::Device));
        assert!(fence(&m, Scope::Device) < fence(&m, Scope::System));
    }

    #[test]
    fn fence_independent_of_occupancy() {
        // Fig. 14: fairly constant regardless of thread count, block
        // count, or stride — the cost function takes no occupancy.
        let m = model();
        assert_eq!(fence(&m, Scope::Device), 250.0);
    }

    #[test]
    fn aggregated_add_constant_until_four_warps() {
        let m = model();
        // 2 blocks: 2 warps at t ≤ 32, 4 warps at t = 64.
        let t32 = atomic(
            &m,
            &occ(2, 32),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        let t64 = atomic(
            &m,
            &occ(2, 64),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        assert_eq!(t32, t64, "constant through 64 threads at 2 blocks (Fig. 9)");
        let t128 = atomic(
            &m,
            &occ(2, 128),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        assert!(t128 > t64, "drops beyond 2 warps per block");
    }

    #[test]
    fn cas_constant_region_ends_at_four_threads_one_block() {
        let m = model();
        let f = |t| {
            atomic(
                &m,
                &occ(1, t),
                AtomicKind::Cas,
                DType::I32,
                Scope::Device,
                Target::SHARED,
            )
        };
        assert_eq!(f(1), f(4), "constant to 4 threads at 1 block (Fig. 11)");
        assert!(f(8) > f(4), "drops beyond 4 threads");
        // 2 blocks: constant only to 2 threads per block.
        let g = |t| {
            atomic(
                &m,
                &occ(2, t),
                AtomicKind::Cas,
                DType::I32,
                Scope::Device,
                Target::SHARED,
            )
        };
        assert_eq!(g(1), g(2));
        assert!(g(4) > g(2));
    }

    #[test]
    fn ablation_no_aggregation_drops_much_earlier() {
        let mut m = model();
        m.warp_aggregation = false;
        let t4 = atomic(
            &m,
            &occ(1, 4),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        let t32 = atomic(
            &m,
            &occ(1, 32),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        assert!(
            t32 > t4,
            "without aggregation even one warp contends with itself"
        );
    }

    #[test]
    fn int_fastest_dtype_for_atomics() {
        let m = model();
        let o = occ(64, 256);
        let costs: Vec<f64> = DType::ALL
            .iter()
            .map(|&dt| atomic(&m, &o, AtomicKind::Add, dt, Scope::Device, Target::SHARED))
            .collect();
        assert!(costs[0] < costs[1], "int < ull");
        assert!(costs[1] < costs[2], "ull < float");
        assert!(costs[2] <= costs[3], "float ≤ double");
    }

    #[test]
    fn atomic_terms_name_their_mechanisms() {
        let m = model();
        let add = |target| {
            super::atomic(
                &m,
                &occ(2, 1024),
                AtomicKind::Add,
                DType::I32,
                Scope::Device,
                target,
            )
        };
        let shared = add(Target::SHARED);
        assert_eq!(shared.service, m.atomic_device.i32_cy);
        assert_eq!(shared.aggregation, m.warp_agg_reduce_cy);
        assert_eq!(shared.requests, 64, "2 blocks x 32 warps after aggregation");
        assert!(shared.same_addr > 0.0);
        assert_eq!(shared.sm_queue + shared.l2_tx + shared.l2_queue, 0.0);
        let private = add(Target::private(32));
        assert_eq!(private.aggregation + private.same_addr, 0.0);
        assert_eq!(private.requests, 0);
        assert_eq!(
            private.l2_tx,
            lines_per_warp(&m, &occ(2, 1024), DType::I32, 32) * m.l2_tx_cy
        );
        assert!(private.sm_queue > 0.0);
    }

    #[test]
    fn private_atomics_cheaper_than_shared_at_load() {
        let m = model();
        let o = occ(128, 256);
        let shared = atomic(
            &m,
            &o,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        let private = atomic(
            &m,
            &o,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(32),
        );
        assert!(
            shared > private,
            "same-location overlap hurts (recommendation 4)"
        );
    }

    #[test]
    fn private_stride_hurts_at_high_block_counts() {
        let m = model();
        let o128 = occ(128, 1024);
        let s1 = atomic(
            &m,
            &o128,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(1),
        );
        let s32 = atomic(
            &m,
            &o128,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(32),
        );
        assert!(
            s32 > s1,
            "32 lines per warp crush L2 bandwidth at 128 blocks (Fig. 10d)"
        );
        // At 1 block the two strides stay within a modest factor: the
        // trend is the same (Fig. 10a/b).
        let o1 = occ(1, 1024);
        let p1 = atomic(
            &m,
            &o1,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(1),
        );
        let p32 = atomic(
            &m,
            &o1,
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(32),
        );
        let ratio_1blk = p32 / p1;
        let ratio_128blk = s32 / s1;
        assert!(
            ratio_128blk > ratio_1blk,
            "stride matters far more at high block counts"
        );
    }

    #[test]
    fn more_blocks_lower_private_throughput() {
        let m = model();
        let t = 256;
        let one = atomic(
            &m,
            &occ(1, t),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(1),
        );
        let many = atomic(
            &m,
            &occ(128, t),
            AtomicKind::Add,
            DType::I32,
            Scope::Device,
            Target::private(1),
        );
        assert!(many > one, "128 blocks share the L2 (Fig. 10)");
    }

    #[test]
    fn block_scope_cheaper_than_device_scope() {
        let m = model();
        let o = occ(64, 256);
        for dt in DType::ALL {
            let dev = atomic(&m, &o, AtomicKind::Add, dt, Scope::Device, Target::SHARED);
            let blk = atomic(&m, &o, AtomicKind::Add, dt, Scope::Block, Target::SHARED);
            assert!(blk < dev, "{dt}");
        }
    }

    #[test]
    fn lines_per_warp_geometry() {
        let m = model();
        // 32 lanes × stride 1 × 4 B = 128 B = 1 line.
        assert_eq!(lines_per_warp(&m, &occ(1, 1024), DType::I32, 1), 1.0);
        // 32 lanes × stride 32 × 4 B: each lane 128 B apart → 32 lines.
        assert_eq!(lines_per_warp(&m, &occ(1, 1024), DType::I32, 32), 32.0);
        // 8-byte types at stride 32: still one line per lane.
        assert_eq!(lines_per_warp(&m, &occ(1, 1024), DType::F64, 32), 32.0);
        // Partial warp: 8 lanes stride 1 → 1 line.
        assert_eq!(lines_per_warp(&m, &occ(1, 8), DType::I32, 1), 1.0);
    }

    #[test]
    fn partial_warp_atomic_gain() {
        // Recommendation 8: one lane per warp performing the atomic
        // gives each *operation* a cheaper slot than a full warp of
        // operations — here via the request count at the same address.
        let m = model();
        // 32 warps of which only lane 0 does the CAS (threads=1 per
        // warp is modeled as a 1-thread block) vs one full warp.
        let one_lane = atomic(
            &m,
            &occ(1, 1),
            AtomicKind::Cas,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        let full_warp = atomic(
            &m,
            &occ(1, 32),
            AtomicKind::Cas,
            DType::I32,
            Scope::Device,
            Target::SHARED,
        );
        assert!(full_warp > one_lane);
    }
}
