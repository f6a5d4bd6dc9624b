//! # syncperf-bench
//!
//! The figure/table regeneration harness: one function per table and
//! figure of the paper, plus Criterion micro-benches (under `benches/`)
//! and ablation binaries (under `src/bin/`).
//!
//! Each `figures_cpu::fig*` / `figures_gpu::fig*` function regenerates
//! one paper figure as [`syncperf_core::FigureData`]; the binaries
//! print the series as tables/ASCII charts and write CSVs into
//! `results/`.

#![warn(missing_docs)]

pub mod codes;
pub mod common;
pub mod figures_cpu;
pub mod figures_gpu;
pub mod runner;
pub mod sensitivity;
pub mod serving;
pub mod tables;
pub mod verify;

use syncperf_core::{FigureData, Result};

/// Prints a figure to stdout (table + ASCII chart) and writes its CSV
/// into [`common::results_dir`].
///
/// # Errors
///
/// Returns an error if the CSV cannot be written.
pub fn emit(figs: &[FigureData]) -> Result<()> {
    let dir = common::results_dir();
    for fig in figs {
        println!("{}", fig.render_table());
        println!("{}", fig.render_ascii(72, 14));
        fig.write_csv(&dir)?;
        fig.write_svg(&dir)?;
        println!(
            "(csv + svg: {})\n",
            dir.join(format!("{}.{{csv,svg}}", fig.id)).display()
        );
    }
    Ok(())
}

/// Every figure generator of [`runner::registry`] in paper order, for
/// the umbrella binary, `make_report` and `verify_experiments`.
///
/// # Errors
///
/// Propagates the first generator error.
pub fn all_figures() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for entry in runner::registry() {
        if entry.name != runner::ALL_FIGURES {
            figs.extend((entry.generate)()?);
        }
    }
    Ok(figs)
}
