//! Regenerates the CPU figures on *this machine's real threads* —
//! Fig. 1/2/5-style sweeps with genuine atomics, rendered like the
//! simulated figures (table + chart + CSV/SVG in `results/`).
//!
//! On a many-core machine the shapes approach the paper's; on a small
//! machine the sweep simply ends earlier. Use `--full` for the paper's
//! 9×7 protocol. The shared runner flags (`--jobs`, `--resume`,
//! `--cache-stats`, `--trace`, ...) apply; real-thread cache entries
//! are host-scoped, so results never leak across machines.

use syncperf_bench::common::{max_real_threads, real_series};
use syncperf_bench::runner::{self, RunOptions};
use syncperf_core::sweep::thread_sweep;
use syncperf_core::{kernel, DType, ExecParams, FigureData, Protocol, Result};

fn generate(full: bool) -> Result<Vec<FigureData>> {
    let protocol = if full { Protocol::PAPER } else { Protocol::SIM };
    let (n_iter, n_unroll) = if full { (1000, 100) } else { (100, 20) };
    let threads: Vec<u32> = (2..=max_real_threads().max(2)).collect();
    let base = ExecParams::new(2)
        .with_loops(n_iter, n_unroll)
        .with_warmup(2);

    let mut figs = Vec::new();

    let mut fig = FigureData::new(
        "real_barrier",
        "OpenMP-style barrier on this machine (real threads)",
        "threads",
        "barriers/s/thread",
    );
    fig.push_series(real_series(
        protocol,
        "barrier",
        thread_sweep(&threads, base, |_| kernel::omp_barrier()),
    )?);
    figs.push(fig);

    let mut fig = FigureData::new(
        "real_atomic_update",
        "Atomic update on one shared variable, this machine (real threads)",
        "threads",
        "ops/s/thread",
    );
    for dt in DType::ALL {
        fig.push_series(real_series(
            protocol,
            dt.label(),
            thread_sweep(&threads, base, |_| kernel::omp_atomic_update_scalar(dt)),
        )?);
    }
    figs.push(fig);

    let mut fig = FigureData::new(
        "real_critical",
        "Critical-section add, this machine (real threads)",
        "threads",
        "ops/s/thread",
    );
    fig.push_series(real_series(
        protocol,
        "critical",
        thread_sweep(&threads, base, |_| kernel::omp_critical_add(DType::I32)),
    )?);
    fig.push_series(real_series(
        protocol,
        "atomic (for comparison)",
        thread_sweep(&threads, base, |_| {
            kernel::omp_atomic_update_scalar(DType::I32)
        }),
    )?);
    figs.push(fig);

    Ok(figs)
}

fn main() -> Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    args.retain(|a| a != "--full");
    let mut opts = RunOptions::parse(args)?;
    // Full-protocol results answer different questions than quick ones;
    // keep their checkpoint manifests separate.
    opts.label = Some(if full {
        "real_figures_full".into()
    } else {
        "real_figures".into()
    });
    runner::session(&opts, || {
        generate(full).and_then(|figs| syncperf_bench::emit(&figs))
    })
}
