//! Ablation: warp-aggregated atomics on/off (DESIGN.md §5).
//!
//! With aggregation off, the Fig. 9 constant-throughput region up to 64
//! threads at 2 blocks disappears, and Listing 1's Reduction 1 becomes
//! *slower* than Reduction 2 — evidence that the driver's JIT
//! aggregation is what makes R1 beat R2 on real hardware.

use syncperf_bench::common::{gpu_jobs, measure_series};
use syncperf_core::{kernel, DType, FigureData, SYSTEM3};
use syncperf_gpu_sim::{simulate_reduction, GpuModel, ReductionConfig, ReductionStrategy};

fn figures() -> syncperf_core::Result<Vec<syncperf_core::FigureData>> {
    let on = GpuModel::for_spec(&SYSTEM3.gpu);
    let mut off = on.clone();
    off.warp_aggregation = false;

    let mut fig = FigureData::new(
        "ablation_warp_agg",
        "atomicAdd() on 1 shared variable, 2 blocks: warp aggregation on/off",
        "threads per block",
        "ops/s/thread",
    )
    .with_log_x();
    let add = kernel::cuda_atomic_add_scalar(DType::I32);
    // Two models, so two executors, as the two legacy sweeps had.
    fig.series = measure_series(vec![
        (
            "aggregation on (paper shape)",
            gpu_jobs(&SYSTEM3, Some(&on), 2, &add),
        ),
        ("aggregation off", gpu_jobs(&SYSTEM3, Some(&off), 2, &add)),
    ])?;
    fig.annotate("with aggregation off the constant region up to 64 threads disappears");

    let cfg = ReductionConfig::megabyte_input(&SYSTEM3.gpu);
    for (label, model) in [("aggregation on", &on), ("aggregation off", &off)] {
        let r1 = simulate_reduction(model, &SYSTEM3.gpu, ReductionStrategy::GlobalAtomic, &cfg)?;
        let r2 = simulate_reduction(
            model,
            &SYSTEM3.gpu,
            ReductionStrategy::ShflThenGlobalAtomic,
            &cfg,
        )?;
        println!(
            "{label}: R1 = {:.0} cycles, R2 = {:.0} cycles → {}",
            r1.total_cycles,
            r2.total_cycles,
            if r1.total_cycles < r2.total_cycles {
                "R1 wins (paper)"
            } else {
                "R2 wins"
            }
        );
    }
    Ok(vec![fig])
}

fn main() -> syncperf_core::Result<()> {
    syncperf_bench::runner::run(figures)
}
