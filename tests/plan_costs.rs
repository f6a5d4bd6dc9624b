//! The compiled plan against its oracle: `RunPlan::compile` resolves
//! each line once per run of threads and calls the cost function once
//! per distinct (op, contention, SMT) key, and every cost it stores must
//! still equal a direct per-(thread, op) `plan::op_cost` call.

use syncperf::cpu_sim::memline::ContentionMap;
use syncperf::cpu_sim::plan::{op_cost, RunPlan};
use syncperf::cpu_sim::{CpuModel, Placement};
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
                            assert_eq!(
                                plan.op(tid, idx),
                                op_cost(&model, &placement, &contention, op, tid),
                                "{sys} {aff:?} {threads} threads, {name}, tid {tid}, op {idx}"
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
