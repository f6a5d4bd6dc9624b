//! Ablation: floating-point atomics as CAS loops vs "native" (DESIGN.md §5).
//!
//! Zeroing the CAS-loop surcharge makes the int/float gap of Fig. 2
//! vanish — the gap is entirely the compare-exchange lowering.

use syncperf_bench::common::{cpu_jobs, measure_series};
use syncperf_core::{kernel, Affinity, DType, FigureData, SYSTEM3};
use syncperf_cpu_sim::CpuModel;

fn figures() -> syncperf_core::Result<Vec<syncperf_core::FigureData>> {
    let cas_loop = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let mut native = cas_loop.clone();
    native.fp_cas_extra_ns = 0.0;
    native.fp_retry_ns = 0.0;

    let mut fig = FigureData::new(
        "ablation_fp_atomics",
        "OpenMP atomic update: float atomics as CAS loop vs hypothetical native",
        "threads",
        "ops/s/thread",
    );
    // One call per series: each gets a fresh executor, as each legacy
    // sweep did, even where two series share a model.
    for (label, dtype, model) in [
        ("int", DType::I32, &cas_loop),
        ("double (CAS loop, paper shape)", DType::F64, &cas_loop),
        ("double (native, gap gone)", DType::F64, &native),
    ] {
        let k = kernel::omp_atomic_update_scalar(dtype);
        let jobs = cpu_jobs(&SYSTEM3, Some(model), Affinity::SystemChoice, &k);
        fig.series.extend(measure_series(vec![(label, jobs)])?);
    }
    fig.annotate("the Fig. 2 integer/floating-point gap is the CAS-loop lowering");
    Ok(vec![fig])
}

fn main() -> syncperf_core::Result<()> {
    syncperf_bench::runner::run(figures)
}
