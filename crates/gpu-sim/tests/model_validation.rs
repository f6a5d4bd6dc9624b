//! Model-validation integration tests: the GPU simulator across full
//! sweeps, all three devices, validity matrices, and reduction edge
//! cases.

use syncperf_core::{
    kernel, DType, ExecParams, Executor, GpuOp, Protocol, RmwOp, Scope, ShflVariant, Target,
    VoteKind, SYSTEM1, SYSTEM2, SYSTEM3,
};
use syncperf_gpu_sim::{
    simulate_reduction, GpuModel, GpuSimExecutor, Occupancy, ReductionConfig, ReductionStrategy,
};

fn cycles(
    sim: &mut GpuSimExecutor,
    k: &syncperf_core::GpuKernel,
    blocks: u32,
    threads: u32,
) -> f64 {
    let p = ExecParams::new(threads)
        .with_blocks(blocks)
        .with_loops(500, 50);
    Protocol::PAPER.measure(sim, k, &p).unwrap().per_op
}

#[test]
fn full_paper_sweep_runs_on_all_three_gpus() {
    for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
        let mut sim = GpuSimExecutor::new(sys);
        let k = kernel::cuda_syncthreads();
        for blocks in sys.gpu.block_count_sweep() {
            for threads in sys.gpu.thread_count_sweep() {
                let m = Protocol::SIM
                    .measure(
                        &mut sim,
                        &k,
                        &ExecParams::new(threads)
                            .with_blocks(blocks)
                            .with_loops(50, 10),
                    )
                    .unwrap();
                assert!(m.per_op > 0.0, "{} b{blocks} t{threads}", sys);
            }
        }
    }
}

#[test]
fn dtype_validity_matrix() {
    // Which (op, dtype) pairs the simulated hardware accepts, matching
    // CUDA's actual intrinsics.
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    let p = ExecParams::new(32).with_loops(50, 10);
    let try_body = |sim: &mut GpuSimExecutor, body: Vec<GpuOp>| sim.execute(&body, &p).is_ok();

    for dt in DType::ALL {
        // atomicAdd: all four types.
        assert!(try_body(
            &mut sim,
            kernel::cuda_atomic_add_scalar(dt).baseline
        ));
        // shuffles: all four types.
        assert!(try_body(
            &mut sim,
            kernel::cuda_shfl(dt, ShflVariant::Idx).baseline
        ));
        // CAS / Exch / Sub / Min / And / Or / Xor: integers only.
        let expect = dt.is_integer();
        assert_eq!(
            try_body(&mut sim, kernel::cuda_atomic_cas_scalar(dt).baseline),
            expect
        );
        assert_eq!(
            try_body(&mut sim, kernel::cuda_atomic_exch(dt).baseline),
            expect
        );
        for op in RmwOp::ALL {
            assert_eq!(
                try_body(&mut sim, kernel::cuda_atomic_rmw_scalar(op, dt).baseline),
                expect,
                "{op:?} {dt}"
            );
        }
    }
}

#[test]
fn block_scoped_atomics_gated_and_cheaper() {
    let p = ExecParams::new(256).with_blocks(8).with_loops(50, 10);
    let block_atomic = vec![GpuOp::AtomicAdd {
        dtype: DType::I32,
        scope: Scope::Block,
        target: Target::SHARED,
    }];
    let device_atomic = vec![GpuOp::AtomicAdd {
        dtype: DType::I32,
        scope: Scope::Device,
        target: Target::SHARED,
    }];
    // Works and is cheaper on cc ≥ 6.0 devices.
    let mut s3 = GpuSimExecutor::new(&SYSTEM3);
    let b = s3.execute(&block_atomic, &p).unwrap();
    let d = s3.execute(&device_atomic, &p).unwrap();
    assert!(b < d, "block-scoped atomic must be cheaper ({b} vs {d})");
}

#[test]
fn waves_do_not_change_per_thread_cost() {
    // 256 blocks of 1024 threads on the 4090 run in two waves; each
    // thread's own clock64 window is unchanged (Fig. 8 discussion).
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    let k = kernel::cuda_syncwarp();
    let one_wave = cycles(&mut sim, &k, 128, 1024);
    let two_waves = cycles(&mut sim, &k, 256, 1024);
    assert_eq!(one_wave, two_waves);
}

#[test]
fn scalar_vs_private_crossover_under_load() {
    // At tiny thread counts the shared scalar (aggregated) is fine; at
    // full load the private array wins — recommendation 4.
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    let shared = kernel::cuda_atomic_add_scalar(DType::I32);
    let private = kernel::cuda_atomic_add_array(DType::I32, 32);
    let s_small = cycles(&mut sim, &shared, 1, 32);
    let p_small = cycles(&mut sim, &private, 1, 32);
    let s_big = cycles(&mut sim, &shared, 128, 1024);
    let p_big = cycles(&mut sim, &private, 128, 1024);
    assert!(s_small < p_small * 2.0, "little difference at small scale");
    assert!(s_big > p_big, "shared-location overlap loses at full load");
}

#[test]
fn vote_kinds_identical_to_each_other() {
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    let b = cycles(&mut sim, &kernel::cuda_vote(VoteKind::Ballot), 64, 128);
    let a = cycles(&mut sim, &kernel::cuda_vote(VoteKind::All), 64, 128);
    let n = cycles(&mut sim, &kernel::cuda_vote(VoteKind::Any), 64, 128);
    assert_eq!(b, a);
    assert_eq!(a, n);
}

#[test]
fn fence_scope_costs_strictly_ordered_on_all_gpus() {
    for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
        let m = GpuModel::for_spec(&sys.gpu);
        assert!(m.fence_block_cy < m.fence_device_cy);
        assert!(m.fence_device_cy < m.fence_system_cy);
    }
}

// ---- reduction edge cases ---------------------------------------------

#[test]
fn reduction_input_smaller_than_one_block() {
    let m = GpuModel::for_spec(&SYSTEM3.gpu);
    let cfg = ReductionConfig {
        size: 100,
        block_size: 256,
        persistent_grid_blocks: 4,
    };
    for s in ReductionStrategy::ALL {
        let r = simulate_reduction(&m, &SYSTEM3.gpu, s, &cfg).unwrap();
        assert!(r.total_cycles > 0.0, "{s:?}");
        assert!(
            r.global_atomics >= 1,
            "{s:?} must still combine to one result"
        );
    }
}

#[test]
fn reduction_scales_roughly_linearly_with_input() {
    let m = GpuModel::for_spec(&SYSTEM3.gpu);
    let small = ReductionConfig {
        size: 1 << 18,
        block_size: 256,
        persistent_grid_blocks: 256,
    };
    let large = ReductionConfig {
        size: 1 << 22,
        block_size: 256,
        persistent_grid_blocks: 256,
    };
    for s in ReductionStrategy::ALL {
        let a = simulate_reduction(&m, &SYSTEM3.gpu, s, &small)
            .unwrap()
            .total_cycles;
        let b = simulate_reduction(&m, &SYSTEM3.gpu, s, &large)
            .unwrap()
            .total_cycles;
        let ratio = b / a;
        assert!(
            (8.0..36.0).contains(&ratio),
            "{s:?}: 16x input gave {ratio}x time"
        );
    }
}

#[test]
fn reduction_block_size_sweep_preserves_ordering() {
    let m = GpuModel::for_spec(&SYSTEM3.gpu);
    for block_size in [64u32, 128, 256, 512, 1024] {
        let cfg = ReductionConfig {
            size: 1 << 20,
            block_size,
            persistent_grid_blocks: SYSTEM3.gpu.sms * 2,
        };
        let t = |s| {
            simulate_reduction(&m, &SYSTEM3.gpu, s, &cfg)
                .unwrap()
                .total_cycles
        };
        let (r1, r2, r3) = (
            t(ReductionStrategy::GlobalAtomic),
            t(ReductionStrategy::ShflThenGlobalAtomic),
            t(ReductionStrategy::BlockAtomicThenGlobal),
        );
        assert!(
            r3 < r1 && r1 < r2,
            "block_size {block_size}: {r3} {r1} {r2}"
        );
    }
}

#[test]
fn persistent_grid_size_tradeoff() {
    // Too few persistent blocks underutilize; the default 2×SMs is
    // near the sweet spot.
    let m = GpuModel::for_spec(&SYSTEM3.gpu);
    let time = |grid| {
        let cfg = ReductionConfig {
            size: 1 << 22,
            block_size: 256,
            persistent_grid_blocks: grid,
        };
        simulate_reduction(&m, &SYSTEM3.gpu, ReductionStrategy::PersistentThreads, &cfg)
            .unwrap()
            .total_cycles
    };
    let tiny = time(2);
    let good = time(SYSTEM3.gpu.sms * 2);
    assert!(
        tiny > good,
        "2 blocks ({tiny}) cannot beat a filled device ({good})"
    );
}

#[test]
fn aggregation_counts_exact() {
    let m = GpuModel::for_spec(&SYSTEM3.gpu);
    let cfg = ReductionConfig {
        size: 1 << 15,
        block_size: 128,
        persistent_grid_blocks: 64,
    };
    let r1 = simulate_reduction(&m, &SYSTEM3.gpu, ReductionStrategy::GlobalAtomic, &cfg).unwrap();
    assert_eq!(r1.global_atomics, (1 << 15) / 32);
    let r3 = simulate_reduction(
        &m,
        &SYSTEM3.gpu,
        ReductionStrategy::BlockAtomicThenGlobal,
        &cfg,
    )
    .unwrap();
    assert_eq!(r3.global_atomics, (1 << 15) / 128);
    assert_eq!(r3.block_atomics, (1 << 15) / 32);
    let r5 =
        simulate_reduction(&m, &SYSTEM3.gpu, ReductionStrategy::PersistentThreads, &cfg).unwrap();
    assert_eq!(r5.global_atomics, 64);
    assert_eq!(r5.block_atomics, 64 * 128 / 32);
}

#[test]
fn occupancy_matches_hand_computed_cases() {
    // 2070 SUPER: 40 SMs, 1024 threads/SM.
    let o = Occupancy::compute(&SYSTEM1.gpu, 80, 512).unwrap();
    assert_eq!(o.resident_blocks_per_sm, 2);
    assert_eq!(o.threads_per_sm, 1024);
    assert_eq!(o.waves, 1);
    // A100: 108 SMs, 2048 threads/SM → two 1024-blocks resident.
    let o = Occupancy::compute(&SYSTEM2.gpu, 216, 1024).unwrap();
    assert_eq!(o.resident_blocks_per_sm, 2);
    assert_eq!(o.waves, 1);
    // 4090: 1536/SM → only one 1024-block resident, so 256 blocks on
    // 128 SMs need two waves.
    let o = Occupancy::compute(&SYSTEM3.gpu, 256, 1024).unwrap();
    assert_eq!(o.waves, 2);
}

#[test]
fn divergence_interacts_with_issue_saturation() {
    // Divergent paths multiply ALU demand; at saturated SM load the
    // per-path cost rises with the issue slowdown.
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    let k = kernel::cuda_divergence(DType::I32, 8);
    let light = cycles(&mut sim, &k, 128, 64);
    let heavy = cycles(&mut sim, &k, 128, 1024);
    assert!(heavy > light, "saturated SM slows each divergent path");
}

#[test]
fn syncthreads_reduce_costs_a_little_more_than_plain() {
    let mut sim = GpuSimExecutor::new(&SYSTEM3);
    for kind in [VoteKind::Ballot, VoteKind::All, VoteKind::Any] {
        let k = kernel::cuda_syncthreads_vote(kind);
        for threads in [32u32, 256, 1024] {
            let p = ExecParams::new(threads).with_blocks(64).with_loops(100, 10);
            let m = Protocol::SIM.measure(&mut sim, &k, &p).unwrap();
            // The measured difference is the predicate-reduction part
            // only (baseline is a plain __syncthreads): positive, and
            // small relative to the barrier itself.
            assert!(m.per_op > 0.0, "{kind:?} at {threads}");
            let plain = Protocol::SIM
                .measure(&mut sim, &kernel::cuda_syncthreads(), &p)
                .unwrap();
            assert!(
                m.per_op < plain.median_baseline / p.timed_reps() as f64,
                "reduction part smaller than the whole barrier"
            );
        }
    }
}
