//! Ablation: centralized vs combining-tree barrier model (DESIGN.md §5).
//!
//! The paper's Fig. 1 shape — decline then plateau — matches a
//! centralized barrier built on a saturating contended counter. A
//! combining-tree barrier would instead step with log2(n); regenerating
//! Fig. 1 under both models shows which algorithm the measured OpenMP
//! runtime resembles.

use syncperf_bench::common::{cpu_jobs, measure_series};
use syncperf_core::{kernel, Affinity, FigureData, SYSTEM3};
use syncperf_cpu_sim::{BarrierKind, CpuModel};

fn figures() -> syncperf_core::Result<Vec<syncperf_core::FigureData>> {
    let jobs = |kind| {
        let mut model = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        model.barrier_kind = kind;
        cpu_jobs(
            &SYSTEM3,
            Some(&model),
            Affinity::Spread,
            &kernel::omp_barrier(),
        )
    };
    let mut fig = FigureData::new(
        "ablation_barrier_model",
        "OpenMP barrier: centralized (paper shape) vs combining tree",
        "threads",
        "barriers/s/thread",
    );
    // Two models, so two executors, as the two legacy sweeps had.
    fig.series = measure_series(vec![
        (
            "centralized (saturating counter)",
            jobs(BarrierKind::Centralized),
        ),
        (
            "combining tree, fan-in 4",
            jobs(BarrierKind::CombiningTree { fanin: 4 }),
        ),
    ])?;
    fig.annotate("the measured plateau beyond ~8 threads matches the centralized algorithm");
    Ok(vec![fig])
}

fn main() -> syncperf_core::Result<()> {
    syncperf_bench::runner::run(figures)
}
