//! Property-based tests over the GPU cost model: monotonicity,
//! scale-invariance, and dominance relations that must hold for every
//! launch geometry.

use proptest::prelude::*;
use syncperf_core::{kernel, DType, ExecParams, Protocol, Scope, ShflVariant, SYSTEM3};
use syncperf_gpu_sim::{cost, GpuModel, GpuSimExecutor, Occupancy};

fn occ(blocks: u32, threads: u32) -> Occupancy {
    Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap()
}

proptest! {
    /// __syncthreads cost is monotonically non-decreasing in block size
    /// and independent of block count.
    #[test]
    fn syncthreads_monotone_in_block_size(t1 in 1u32..=1024, t2 in 1u32..=1024,
                                          b1 in 1u32..256, b2 in 1u32..256) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(cost::syncthreads(&m, &occ(b1, lo)) <= cost::syncthreads(&m, &occ(b1, hi)));
        prop_assert_eq!(cost::syncthreads(&m, &occ(b1, lo)), cost::syncthreads(&m, &occ(b2, lo)));
    }

    /// Warp-local ops depend only on resident threads per SM: two
    /// launches with the same threads/SM cost the same.
    #[test]
    fn warp_local_ops_depend_only_on_sm_load(threads_exp in 0u32..=9) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let t = 1u32 << threads_exp; // 1..512
        // full config (sms blocks of 2t) vs double config (2*sms of t):
        let full = occ(SYSTEM3.gpu.sms, t * 2);
        let double = occ(SYSTEM3.gpu.sms * 2, t);
        prop_assert_eq!(full.threads_per_sm, double.threads_per_sm);
        prop_assert_eq!(cost::syncwarp(&m, &full), cost::syncwarp(&m, &double));
        prop_assert_eq!(cost::vote(&m, &full), cost::vote(&m, &double));
        prop_assert_eq!(
            cost::shfl(&m, &full, DType::F64),
            cost::shfl(&m, &double, DType::F64)
        );
    }

    /// Atomic cost on a shared scalar is non-decreasing in both block
    /// count and thread count.
    #[test]
    fn shared_atomic_monotone(b_exp in 0u32..8, t_exp in 0u32..=10) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let b = 1u32 << b_exp;
        let t = 1u32 << t_exp;
        let base = cost::atomic(
            &m, &occ(b, t), cost::AtomicKind::Add, DType::I32, Scope::Device,
            syncperf_core::Target::SHARED,
        ).total();
        for (b2, t2) in [(b * 2, t), (b, (t * 2).min(1024))] {
            let more = cost::atomic(
                &m, &occ(b2, t2), cost::AtomicKind::Add, DType::I32, Scope::Device,
                syncperf_core::Target::SHARED,
            ).total();
            prop_assert!(more >= base - 1e-9,
                "({b},{t}) -> ({b2},{t2}): {base} -> {more}");
        }
    }

    /// The dtype ordering int ≤ ull ≤ float ≤ double holds for shared
    /// atomics at every geometry.
    #[test]
    fn dtype_ordering_everywhere(b_exp in 0u32..8, t_exp in 0u32..=10) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let o = occ(1 << b_exp, 1 << t_exp);
        let c = |dt| cost::atomic(
            &m, &o, cost::AtomicKind::Add, dt, Scope::Device, syncperf_core::Target::SHARED,
        ).total();
        prop_assert!(c(DType::I32) <= c(DType::U64));
        prop_assert!(c(DType::U64) <= c(DType::F32));
        prop_assert!(c(DType::F32) <= c(DType::F64));
    }

    /// Under contention (once the same-address queue is past its free
    /// region), CAS costs at least as much as an aggregated add: it has
    /// no aggregation, so it queues one request per *thread*. (At
    /// trivial load the opposite can hold — the add pays its warp
    /// reduction while a lone CAS does not — which matches Fig. 9 vs
    /// Fig. 11's 1-thread values.)
    #[test]
    fn cas_never_cheaper_than_add_under_contention(b_exp in 1u32..8, t_exp in 6u32..=10) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let o = occ(1 << b_exp, 1 << t_exp);
        let add = cost::atomic(
            &m, &o, cost::AtomicKind::Add, DType::I32, Scope::Device,
            syncperf_core::Target::SHARED,
        ).total();
        let cas = cost::atomic(
            &m, &o, cost::AtomicKind::Cas, DType::I32, Scope::Device,
            syncperf_core::Target::SHARED,
        ).total();
        prop_assert!(cas >= add);
    }

    /// Block scope never costs more than device scope.
    #[test]
    fn block_scope_dominates(b_exp in 0u32..8, t_exp in 0u32..=10, dt_idx in 0usize..4) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let o = occ(1 << b_exp, 1 << t_exp);
        let dt = DType::ALL[dt_idx];
        for target in [syncperf_core::Target::SHARED, syncperf_core::Target::private(8)] {
            let dev = cost::atomic(&m, &o, cost::AtomicKind::Add, dt, Scope::Device, target).total();
            let blk = cost::atomic(&m, &o, cost::AtomicKind::Add, dt, Scope::Block, target).total();
            prop_assert!(blk <= dev, "{dt} {target:?}");
        }
    }

    /// lines_per_warp is between 1 and the active lane count, and
    /// non-decreasing in stride.
    #[test]
    fn lines_per_warp_bounds(threads in 1u32..=1024, s1 in 1u32..64, s2 in 1u32..64,
                             dt_idx in 0usize..4) {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let o = occ(1, threads);
        let dt = DType::ALL[dt_idx];
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let k_lo = cost::lines_per_warp(&m, &o, dt, lo);
        let k_hi = cost::lines_per_warp(&m, &o, dt, hi);
        let lanes = f64::from(threads.min(32));
        prop_assert!((1.0..=lanes).contains(&k_lo));
        prop_assert!(k_lo <= k_hi);
    }

    /// The full protocol yields finite, positive per-op costs across
    /// the whole launch grid for every always-supported kernel.
    #[test]
    fn protocol_total_over_launch_grid(b_exp in 0u32..8, t_exp in 0u32..=10) {
        let mut sim = GpuSimExecutor::new(&SYSTEM3);
        let p = ExecParams::new(1 << t_exp)
            .with_blocks(1 << b_exp)
            .with_loops(50, 10);
        for k in [
            kernel::cuda_syncthreads(),
            kernel::cuda_syncwarp(),
            kernel::cuda_atomic_add_scalar(DType::F32),
            kernel::cuda_shfl(DType::U64, ShflVariant::Down),
        ] {
            let m = Protocol::SIM.measure(&mut sim, &k, &p).unwrap();
            prop_assert!(m.per_op.is_finite() && m.per_op > 0.0, "{}", k.name);
        }
    }
}
