//! Extension: device-scope vs block-scope atomics — the property
//! Listing 1's Reduction 3 exploits (`atomicAdd_block` is serviced on
//! the SM rather than at the L2, compute capability ≥ 6.0).

use syncperf_bench::common::{gpu_jobs, measure_series};
use syncperf_core::{DType, FigureData, GpuOp, Kernel, Scope, Target, SYSTEM3};

fn scoped_kernel(scope: Scope) -> Kernel<GpuOp> {
    let op = GpuOp::AtomicAdd {
        dtype: DType::I32,
        scope,
        target: Target::SHARED,
    };
    Kernel::new(
        format!("cuda_atomicadd_{scope:?}_scalar"),
        vec![op],
        vec![op, op],
        1,
    )
}

fn main() -> syncperf_core::Result<()> {
    syncperf_bench::runner::run(|| {
        let mut fig = FigureData::new(
            "exp_atomic_scope",
            "atomicAdd() vs atomicAdd_block() on one shared int (System 3, 64 blocks)",
            "threads per block",
            "ops/s/thread",
        )
        .with_log_x();
        let jobs = |scope| gpu_jobs(&SYSTEM3, None, 64, &scoped_kernel(scope));
        // Both scopes share one executor, as the legacy sweep did.
        fig.series = measure_series(vec![
            ("device scope (atomicAdd)", jobs(Scope::Device)),
            ("block scope (atomicAdd_block)", jobs(Scope::Block)),
        ])?;
        fig.annotate(
            "block-scoped atomics are serviced on the SM: cheaper and contended only block-wide",
        );
        Ok(vec![fig])
    })
}
