//! Perturbs every load-bearing model constant across 0.5x-2x and
//! re-evaluates the paper's shape claims — showing which conclusions
//! follow from mechanisms rather than calibration.
//!
//! Runs as a `runner::session`, so every shared flag applies
//! (`--jobs`, `--connect`, `--no-cache`, `--metrics`, `--trace`, ...):
//! the grid is hundreds of perturbed-model
//! measurements, and every one is an independent cacheable job.

use syncperf_bench::runner::{self, RunOptions};
use syncperf_bench::sensitivity;

fn main() -> syncperf_core::Result<()> {
    let mut opts = RunOptions::parse(std::env::args().skip(1))?;
    opts.label = Some("sensitivity_analysis".into());
    let rows = runner::session(&opts, sensitivity::run_sensitivity)?;
    print!("{}", sensitivity::render(&rows));
    if rows.iter().any(|r| !r.robust()) {
        std::process::exit(1);
    }
    Ok(())
}
