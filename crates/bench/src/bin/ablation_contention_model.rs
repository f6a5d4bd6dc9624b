//! Ablation: saturating vs linear coherence arbitration (DESIGN.md §5).
//!
//! The CPU model bounds the per-op arbitration delay at
//! `contention_sat` contenders. This ablation removes the bound
//! (linear growth) and regenerates the Fig. 1 barrier sweep: the
//! linear model keeps declining past 8 threads, failing to reproduce
//! the paper's plateau.

use syncperf_bench::common::{cpu_jobs, measure_series};
use syncperf_core::{kernel, Affinity, FigureData, SYSTEM3};
use syncperf_cpu_sim::CpuModel;

fn figures() -> syncperf_core::Result<Vec<syncperf_core::FigureData>> {
    let saturating = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let mut linear = saturating.clone();
    linear.contention_sat = u32::MAX; // never saturate
    let jobs = |model| {
        cpu_jobs(
            &SYSTEM3,
            Some(model),
            Affinity::Spread,
            &kernel::omp_barrier(),
        )
    };

    let mut fig = FigureData::new(
        "ablation_contention",
        "OpenMP barrier: saturating vs linear arbitration model",
        "threads",
        "barriers/s/thread",
    );
    // Two models, so two executors, as the two legacy sweeps had.
    fig.series = measure_series(vec![
        ("saturating (paper shape)", jobs(&saturating)),
        ("linear (no plateau)", jobs(&linear)),
    ])?;
    fig.annotate("the paper's Fig. 1 plateaus beyond ~8 threads; only the saturating model does");
    Ok(vec![fig])
}

fn main() -> syncperf_core::Result<()> {
    syncperf_bench::runner::run(figures)
}
