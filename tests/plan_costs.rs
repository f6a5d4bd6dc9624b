//! The compiled plan against its oracle: `RunPlan::compile` resolves
//! each line once per run of threads and calls the cost function once
//! per distinct (op, contention, SMT) key, and every cost it stores must
//! still equal a direct per-(thread, op) `plan::op_cost` call. `explain`
//! reports the terms of the same cost functions, so its totals are the
//! engines' charges: on the CPU to the fixed-point unit, on the GPU to
//! the bit, and the GPU issue slowdown it prints is the one the engine
//! charged.

use syncperf::cpu_sim::memline::ContentionMap;
use syncperf::cpu_sim::plan::{op_cost, quantize, PlanOp, RunPlan};
use syncperf::cpu_sim::{explain_op, CpuModel, Placement};
use syncperf::gpu_sim::{engine, explain_gpu_op, GpuModel, Occupancy};
use syncperf::prelude::*;
use syncperf_bench::codes::{kernel_inventory, AnyKernel};

#[test]
fn every_compiled_cost_equals_a_direct_cost_call() {
    let bodies: Vec<(String, Vec<CpuOp>)> = kernel_inventory()
        .into_iter()
        .filter_map(|inst| match inst.kernel {
            AnyKernel::Cpu(k) => Some(k),
            AnyKernel::Gpu(_) => None,
        })
        .flat_map(|k| {
            [
                (format!("{} baseline", k.name), k.baseline),
                (format!("{} test", k.name), k.test),
            ]
        })
        .collect();
    assert!(bodies.len() > 50, "the inventory lost its CPU kernels");

    let mut cells = 0usize;
    for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
        let model = CpuModel::for_system(&sys.cpu, sys.cpu_jitter);
        let cores = sys.cpu.total_cores();
        let hw = sys.cpu.total_threads();
        for aff in [Affinity::Close, Affinity::Spread, Affinity::SystemChoice] {
            // One thread, a pair, the last thread without an SMT
            // sibling and the first with one, every hardware thread,
            // and the first wrapped-around one.
            for threads in [1, 2, cores, cores + 1, hw, hw + 1] {
                let placement = Placement::new(&sys.cpu, aff, threads);
                for (name, body) in &bodies {
                    let contention = ContentionMap::analyze(body, &placement, 64);
                    let plan = RunPlan::compile(&model, &placement, &contention, body);
                    for tid in 0..placement.len() {
                        for (idx, op) in body.iter().enumerate() {
                            let at = || {
                                format!(
                                    "{sys} {aff:?} {threads} threads, {name}, tid {tid}, op {idx}"
                                )
                            };
                            let cost = plan.op(tid, idx);
                            assert_eq!(
                                cost,
                                op_cost(&model, &placement, &contention, op, tid),
                                "{}",
                                at()
                            );
                            let charged = match cost {
                                PlanOp::Fixed(units) => units,
                                PlanOp::Store { visible, .. } => visible,
                                PlanOp::Flush { base } => base,
                                PlanOp::Barrier => plan.barrier_units(),
                            };
                            let explained = explain_op(&model, &placement, body, tid, idx);
                            assert_eq!(
                                quantize(explained.total_ns()),
                                charged,
                                "{}: explain {explained:?}",
                                at()
                            );
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(cells > 100_000, "only {cells} (thread, op) cells compared");
}

#[test]
fn every_explained_gpu_total_is_the_engine_charge() {
    let mut ops = 0usize;
    let mut slowed = 0usize;
    for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
        let model = GpuModel::for_spec(&sys.gpu);
        // The same device with no issue-bandwidth limit: an op whose
        // charge it leaves unchanged paid no slowdown.
        let unlimited = GpuModel {
            full_speed_threads_per_sm: u32::MAX,
            ..model.clone()
        };
        for blocks in sys.gpu.block_count_sweep() {
            for threads in sys.gpu.thread_count_sweep() {
                let occ = Occupancy::compute(&sys.gpu, blocks, threads).unwrap();
                for inst in kernel_inventory() {
                    let AnyKernel::Gpu(k) = inst.kernel else {
                        continue;
                    };
                    for op in k.baseline.iter().chain(&k.test) {
                        let at = format!("{sys} {blocks}x{threads}, {}: {op:?}", k.name);
                        let Ok(charged) = engine::op_cycles(&model, &occ, op) else {
                            assert!(explain_gpu_op(&model, &occ, op).is_err(), "{at}");
                            continue;
                        };
                        let b = explain_gpu_op(&model, &occ, op).unwrap();
                        assert_eq!(b.total_cy().to_bits(), charged.to_bits(), "{at}: {b:?}");
                        // A slowed charge is `a·s + b` for a slowdown `s`
                        // and a, b ≥ 0 (b is divergence's penalty, 0
                        // elsewhere), so it exceeds the unlimited one by
                        // a ratio in (1, s], equal to s when b = 0.
                        let full_speed = engine::op_cycles(&unlimited, &occ, op).unwrap();
                        let s = b.issue_slowdown;
                        if charged == full_speed {
                            assert_eq!(s, 1.0, "{at}: no slowdown was charged");
                        } else {
                            let ratio = charged / full_speed;
                            assert!(ratio > 1.0 && ratio <= s * (1.0 + 1e-12), "{at}: {b:?}");
                            if !matches!(op, GpuOp::Diverge { .. }) {
                                assert!((ratio - s).abs() <= 1e-12 * s, "{at}: {b:?}");
                            }
                            slowed += 1;
                        }
                        ops += 1;
                    }
                }
            }
        }
    }
    assert!(ops > 10_000, "only {ops} GPU ops compared");
    assert!(slowed > 100, "only {slowed} slowed GPU ops compared");
}
