//! Property-based tests (proptest) over the core data structures and
//! simulator invariants.

use proptest::prelude::*;
use syncperf::core::stats;
use syncperf::cpu_sim::{CpuModel, Placement};
use syncperf::gpu_sim::Occupancy;
use syncperf::prelude::*;

fn finite_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9..1e9f64, 1..64)
}

proptest! {
    // ---- stats ------------------------------------------------------

    #[test]
    fn median_bounded_by_min_max(v in finite_vec()) {
        let m = stats::median(&v);
        prop_assert!(m >= stats::min(&v) && m <= stats::max(&v));
    }

    #[test]
    fn median_permutation_invariant(mut v in finite_vec(), seed in 0u64..1000) {
        let before = stats::median(&v);
        // Deterministic shuffle.
        let n = v.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            v.swap(i, j);
        }
        prop_assert_eq!(before, stats::median(&v));
    }

    #[test]
    fn mean_shift_equivariant(v in finite_vec(), c in -1e6..1e6f64) {
        let shifted: Vec<f64> = v.iter().map(|x| x + c).collect();
        prop_assert!((stats::mean(&shifted) - stats::mean(&v) - c).abs() < 1e-6 * (1.0 + c.abs()));
    }

    #[test]
    fn stddev_nonnegative_and_translation_invariant(v in finite_vec(), c in -1e6..1e6f64) {
        let s = stats::stddev(&v);
        prop_assert!(s >= 0.0);
        let shifted: Vec<f64> = v.iter().map(|x| x + c).collect();
        prop_assert!((stats::stddev(&shifted) - s).abs() < 1e-3);
    }

    #[test]
    fn percentile_monotonic_in_p(v in finite_vec(), p1 in 0.0..100.0f64, p2 in 0.0..100.0f64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(stats::percentile(&v, lo) <= stats::percentile(&v, hi) + 1e-9);
    }

    // ---- params -----------------------------------------------------

    #[test]
    fn valid_params_validate(threads in 1u32..=1024, blocks in 1u32..=65_535,
                             n_iter in 1u32..10_000, n_unroll in 1u32..1_000) {
        let p = ExecParams::new(threads).with_blocks(blocks).with_loops(n_iter, n_unroll);
        prop_assert!(p.validate().is_ok());
        prop_assert_eq!(p.timed_reps(), u64::from(n_iter) * u64::from(n_unroll));
        prop_assert_eq!(p.total_threads(), threads * blocks);
    }

    // ---- CPU placement ----------------------------------------------

    #[test]
    fn placement_within_topology(n in 1u32..128, aff_idx in 0usize..3) {
        let aff = [Affinity::Spread, Affinity::Close, Affinity::SystemChoice][aff_idx];
        let p = Placement::new(&SYSTEM3.cpu, aff, n);
        prop_assert_eq!(p.len(), n as usize);
        for t in 0..n as usize {
            let s = p.slot(t);
            prop_assert!(s.core < SYSTEM3.cpu.total_cores());
            prop_assert!(s.smt < SYSTEM3.cpu.threads_per_core);
            prop_assert_eq!(s.socket, s.core / SYSTEM3.cpu.cores_per_socket);
        }
    }

    #[test]
    fn no_core_sharing_below_core_count(n in 1u32..=16, aff_idx in 0usize..2) {
        let aff = [Affinity::Spread, Affinity::Close][aff_idx];
        let p = Placement::new(&SYSTEM3.cpu, aff, n);
        for t in 0..n as usize {
            prop_assert!(!p.core_is_smt_loaded(t), "thread {t} of {n} shares a core");
        }
    }

    // ---- CPU cost model ---------------------------------------------

    #[test]
    fn contention_monotonic_and_saturating(c1 in 0u32..64, c2 in 0u32..64) {
        let m = CpuModel::baseline();
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(m.contention_ns(lo, false) <= m.contention_ns(hi, false));
        // Marginal growth past saturation is just the sharer tax.
        if lo > m.contention_sat && hi > lo {
            let marginal = (m.contention_ns(hi, false) - m.contention_ns(lo, false))
                / f64::from(hi - lo);
            prop_assert!((marginal - m.sharer_tax_ns).abs() < 1e-9);
        }
    }

    // ---- GPU occupancy ----------------------------------------------

    #[test]
    fn occupancy_invariants(blocks in 1u32..512, threads in 1u32..=1024) {
        let o = Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap();
        prop_assert!(o.threads_per_sm <= SYSTEM3.gpu.max_threads_per_sm);
        prop_assert!(o.waves >= 1);
        prop_assert!(o.sms_used <= SYSTEM3.gpu.sms);
        prop_assert!(o.sms_used <= blocks);
        prop_assert_eq!(o.warps_per_block, threads.div_ceil(32));
        prop_assert!(o.total_resident_warps >= o.warps_per_block);
        prop_assert!(o.total_resident_threads <= blocks * threads);
        // Resident work never exceeds one wave's capacity.
        prop_assert!(o.resident_blocks_per_sm * threads <= SYSTEM3.gpu.max_threads_per_sm
            || o.resident_blocks_per_sm == 1);
    }

    // ---- kernels ----------------------------------------------------

    #[test]
    fn kernel_factories_well_formed(stride in 1u32..64, dt_idx in 0usize..4) {
        let dt = DType::ALL[dt_idx];
        for k in [
            kernel::omp_atomic_update_array(dt, stride),
            kernel::omp_flush(dt, stride),
        ] {
            prop_assert!(k.test.len() >= k.baseline.len());
            prop_assert!(k.extra_ops >= 1);
            prop_assert!(!k.name.is_empty());
        }
        let gk = kernel::cuda_atomic_add_array(dt, stride);
        prop_assert!(gk.test.len() > gk.baseline.len());
    }

    // ---- engine determinism & scaling --------------------------------

    #[test]
    fn cpu_engine_linear_in_reps(threads in 2u32..16, reps in 2u64..50) {
        let m = CpuModel::baseline();
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, threads);
        let body = kernel::omp_atomic_update_scalar(DType::I32).test;
        let r1 = syncperf::cpu_sim::engine::run(&m, &p, &body, reps).unwrap();
        let r2 = syncperf::cpu_sim::engine::run(&m, &p, &body, reps * 2).unwrap();
        for (a, b) in r1.per_thread_ns.iter().zip(&r2.per_thread_ns) {
            // Steady state: doubling reps doubles time (within the
            // warm-up rounding of the first rep).
            prop_assert!((b / a - 2.0).abs() < 0.05, "a={a} b={b}");
        }
    }

    #[test]
    fn gpu_engine_deterministic(blocks in 1u32..64, threads in 1u32..=256) {
        let m = syncperf::gpu_sim::GpuModel::for_spec(&SYSTEM3.gpu);
        let o = Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap();
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        let a = syncperf::gpu_sim::engine::run(&m, &o, &body, 10).unwrap();
        let b = syncperf::gpu_sim::engine::run(&m, &o, &body, 10).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gpu_atomic_cost_monotonic_in_blocks(threads in 32u32..=256) {
        let m = syncperf::gpu_sim::GpuModel::for_spec(&SYSTEM3.gpu);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
        let mut prev = 0.0;
        for blocks in [1u32, 2, 64, 128] {
            let o = Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap();
            let r = syncperf::gpu_sim::engine::run(&m, &o, &body, 1).unwrap();
            prop_assert!(r.cycles_per_rep() >= prev, "more blocks → more same-address contention");
            prev = r.cycles_per_rep();
        }
    }

    // ---- reports ----------------------------------------------------

    #[test]
    fn csv_row_count_matches_distinct_x(xs in prop::collection::btree_set(0u32..1000, 1..30)) {
        let points: Vec<(f64, f64)> = xs.iter().map(|&x| (f64::from(x), 1.0)).collect();
        let mut fig = FigureData::new("p", "prop", "x", "y");
        fig.push_series(Series::new("s", points));
        let csv = fig.to_csv();
        prop_assert_eq!(csv.lines().count(), xs.len() + 1);
    }
}

// ---- static/dynamic race-detector agreement -------------------------
//
// For ANY loop body assembled from the op pool below, the static sync
// linter's race verdict (syncperf::analyze::lint) must coincide with
// the vector-clock replay's (syncperf::analyze::vc) — per location, and
// for barrier divergence. See docs/ANALYSIS.md.

/// Every CPU op shape the linter distinguishes: barriers, fences, all
/// atomic kinds, plain accesses on shared / padded / stride-0 targets.
const CPU_OP_POOL: [CpuOp; 12] = [
    CpuOp::Barrier,
    CpuOp::Flush,
    CpuOp::AtomicUpdate {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    CpuOp::AtomicCapture {
        dtype: DType::U64,
        target: Target::SHARED2,
    },
    CpuOp::AtomicRead {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    CpuOp::AtomicWrite {
        dtype: DType::F64,
        target: Target::SHARED2,
    },
    CpuOp::Read {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    CpuOp::Update {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    CpuOp::Update {
        dtype: DType::F32,
        target: Target::private(8),
    },
    CpuOp::Update {
        dtype: DType::F64,
        target: Target::private(0),
    },
    CpuOp::CriticalAdd {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    // A second array, so the two nonzero strides never alias: the
    // analyzer models one stride per (dtype, array) pair, as every
    // built-in kernel does (docs/ANALYSIS.md, "modeled IR domain").
    CpuOp::Read {
        dtype: DType::F32,
        target: Target::Private {
            array: 1,
            stride: 4,
        },
    },
];

/// Every GPU op shape: block/device/system atomics, the three fence
/// widths, warp ops, block barriers, divergence, plain accesses.
const GPU_OP_POOL: [GpuOp; 16] = [
    GpuOp::SyncThreads,
    GpuOp::SyncWarp,
    GpuOp::SyncThreadsReduce {
        kind: VoteKind::Ballot,
    },
    GpuOp::AtomicAdd {
        dtype: DType::I32,
        scope: Scope::Device,
        target: Target::SHARED,
    },
    GpuOp::AtomicAdd {
        dtype: DType::I32,
        scope: Scope::Block,
        target: Target::SHARED,
    },
    GpuOp::AtomicCas {
        dtype: DType::U64,
        scope: Scope::System,
        target: Target::SHARED2,
    },
    GpuOp::AtomicMax {
        dtype: DType::F32,
        scope: Scope::Device,
        target: Target::SHARED,
    },
    GpuOp::ThreadFence {
        scope: Scope::Block,
    },
    GpuOp::ThreadFence {
        scope: Scope::Device,
    },
    GpuOp::Shfl {
        dtype: DType::I32,
        variant: ShflVariant::Idx,
    },
    GpuOp::Vote {
        kind: VoteKind::Any,
    },
    GpuOp::Update {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    GpuOp::Update {
        dtype: DType::I32,
        target: Target::private(32),
    },
    GpuOp::Read {
        dtype: DType::I32,
        target: Target::SHARED,
    },
    GpuOp::Alu { dtype: DType::I32 },
    GpuOp::Diverge {
        dtype: DType::I32,
        paths: 4,
    },
];

proptest! {
    #[test]
    fn cpu_static_and_dynamic_race_verdicts_agree(
        idxs in prop::collection::vec(0usize..CPU_OP_POOL.len(), 0..9),
    ) {
        let body: Vec<CpuOp> = idxs.iter().map(|&i| CPU_OP_POOL[i]).collect();
        let a = syncperf::analyze::check_cpu_body(&body);
        prop_assert!(a.holds(), "body {body:?}: {}", a.explain());
    }

    #[test]
    fn gpu_static_and_dynamic_race_verdicts_agree(
        idxs in prop::collection::vec(0usize..GPU_OP_POOL.len(), 0..9),
    ) {
        let body: Vec<GpuOp> = idxs.iter().map(|&i| GPU_OP_POOL[i]).collect();
        let a = syncperf::analyze::check_gpu_body(&body);
        prop_assert!(a.holds(), "body {body:?}: {}", a.explain());
    }
}

// ---- steady-state fast path ≡ full stepping -------------------------
//
// The engines extrapolate once a fixed point is reached; these
// properties pin the extrapolated result to the op-by-op stepping
// oracle, bit for bit, over random bodies drawn from the same op pools
// the race-detector properties use — with and without a live recorder.

proptest! {
    #[test]
    fn cpu_fast_path_bit_exact_vs_full_stepping(
        idxs in prop::collection::vec(0usize..CPU_OP_POOL.len(), 1..9),
        threads in 1u32..24,
        aff_idx in 0usize..3,
        reps in 1u64..200,
        observe in proptest::bool::ANY,
    ) {
        let aff = [Affinity::Spread, Affinity::Close, Affinity::SystemChoice][aff_idx];
        let m = CpuModel::baseline();
        let p = Placement::new(&SYSTEM3.cpu, aff, threads);
        let body: Vec<CpuOp> = idxs.iter().map(|&i| CPU_OP_POOL[i]).collect();
        let rec = if observe {
            syncperf::core::obs::Recorder::tracing()
        } else {
            syncperf::core::obs::Recorder::disabled()
        };
        let fast = syncperf::cpu_sim::engine::run_observed(&m, &p, &body, reps, &rec).unwrap();
        let full = syncperf::cpu_sim::run_full_stepping(&m, &p, &body, reps).unwrap();
        prop_assert_eq!(fast, full);
    }

    #[test]
    fn gpu_fast_path_bit_exact_vs_full_stepping(
        idxs in prop::collection::vec(0usize..GPU_OP_POOL.len(), 1..9),
        blocks in 1u32..64,
        threads in 1u32..=256,
        reps in 1u64..200,
        observe in proptest::bool::ANY,
    ) {
        let m = syncperf::gpu_sim::GpuModel::for_spec(&SYSTEM3.gpu);
        let o = Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap();
        let body: Vec<GpuOp> = idxs.iter().map(|&i| GPU_OP_POOL[i]).collect();
        let rec = if observe {
            syncperf::core::obs::Recorder::tracing()
        } else {
            syncperf::core::obs::Recorder::disabled()
        };
        let fast = syncperf::gpu_sim::engine::run_observed(&m, &o, &body, reps, &rec);
        let full = syncperf::gpu_sim::run_full_stepping(&m, &o, &body, reps);
        match (fast, full) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            // Unsupported op (e.g. a float atomicMax): both paths must
            // reject it the same way.
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }
}

// ---- batched plan tables ≡ single-point traces ≡ full stepping ------
//
// The scheduler's sweep batching compiles one struct-of-arrays plan
// table for a whole parameter grid and evaluates every point in one
// lockstep pass. These properties pin the batched results to the
// single-point engine AND to the op-by-op stepping oracle, bit for
// bit, over random bodies × parameter grids, with and without a live
// recorder.

proptest! {
    #[test]
    fn cpu_batched_plan_table_bit_exact(
        idxs in prop::collection::vec(0usize..CPU_OP_POOL.len(), 1..9),
        grid in prop::collection::vec(1u32..24, 1..6),
        affs in prop::collection::vec(0usize..3, 1..6),
        reps in 1u64..200,
        observe in proptest::bool::ANY,
    ) {
        let m = CpuModel::baseline();
        let body: Vec<CpuOp> = idxs.iter().map(|&i| CPU_OP_POOL[i]).collect();
        let placements: Vec<Placement> = grid
            .iter()
            .enumerate()
            .map(|(i, &threads)| {
                let aff = [Affinity::Spread, Affinity::Close, Affinity::SystemChoice]
                    [affs[i % affs.len()]];
                Placement::new(&SYSTEM3.cpu, aff, threads)
            })
            .collect();
        let rec = if observe {
            syncperf::core::obs::Recorder::tracing()
        } else {
            syncperf::core::obs::Recorder::disabled()
        };
        let batched =
            syncperf::cpu_sim::trace::run_batch(&m, &body, &placements, reps, &rec)
                .unwrap();
        prop_assert_eq!(batched.len(), placements.len());
        for (p, got) in placements.iter().zip(&batched) {
            let single =
                syncperf::cpu_sim::engine::run_observed(&m, p, &body, reps, &rec).unwrap();
            prop_assert_eq!(got, &single, "batched point diverges from single-point engine");
            let full = syncperf::cpu_sim::run_full_stepping(&m, p, &body, reps).unwrap();
            prop_assert_eq!(got, &full, "batched point diverges from the stepping oracle");
        }
    }

    #[test]
    fn gpu_batched_evaluation_bit_exact(
        idxs in prop::collection::vec(0usize..GPU_OP_POOL.len(), 1..9),
        blocks_grid in prop::collection::vec(1u32..64, 1..6),
        threads_grid in prop::collection::vec(1u32..=256, 1..6),
        reps in 1u64..200,
    ) {
        let m = syncperf::gpu_sim::GpuModel::for_spec(&SYSTEM3.gpu);
        let body: Vec<GpuOp> = idxs.iter().map(|&i| GPU_OP_POOL[i]).collect();
        let occs: Vec<Occupancy> = blocks_grid
            .iter()
            .enumerate()
            .map(|(i, &blocks)| {
                let threads = threads_grid[i % threads_grid.len()];
                Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap()
            })
            .collect();
        let rec = syncperf::core::obs::Recorder::disabled();
        let batched = syncperf::gpu_sim::batch::run_batch(&m, &occs, &body, reps, &rec);
        match batched {
            Ok(results) => {
                prop_assert_eq!(results.len(), occs.len());
                for (o, got) in occs.iter().zip(&results) {
                    let single =
                        syncperf::gpu_sim::engine::run_observed(&m, o, &body, reps, &rec)
                            .unwrap();
                    prop_assert_eq!(got, &single);
                }
            }
            // Unsupported op (e.g. a float atomicMax): every per-point
            // path must reject the body too.
            Err(_) => {
                for o in &occs {
                    prop_assert!(
                        syncperf::gpu_sim::engine::run_observed(&m, o, &body, reps, &rec)
                            .is_err(),
                        "batch rejected a body the single-point engine accepts"
                    );
                }
            }
        }
    }
}

// Real-atomics properties: concurrent updates never lose increments,
// for any thread/iteration mix (bounded for test time).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn real_atomic_updates_never_lost(threads in 2usize..6, per in 100u64..2000) {
        let cell = AtomicCell::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        cell.update(1);
                    }
                });
            }
        });
        prop_assert_eq!(cell.read(), threads as u64 * per);
    }

    #[test]
    fn real_team_barrier_phases_hold(threads in 2usize..6, rounds in 1u64..20) {
        use std::sync::atomic::{AtomicU64, Ordering};
        let counter = AtomicU64::new(0);
        Team::new(threads).parallel(|ctx| {
            for round in 1..=rounds {
                counter.fetch_add(1, Ordering::Relaxed);
                ctx.barrier();
                assert_eq!(counter.load(Ordering::Relaxed), round * threads as u64);
                ctx.barrier();
            }
        });
        prop_assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed),
                        rounds * threads as u64);
    }
}
