//! Verifies every qualitative claim in EXPERIMENTS.md against one
//! freshly regenerated `all_figures` sweep. Exits nonzero if any claim
//! fails — the artifact-evaluation entry point.
//!
//! Runs as a `runner::session`, so every shared flag applies
//! (`--jobs`, `--connect`, `--no-cache`, `--resume`, `--cache-stats`,
//! `--metrics`, `--trace`, ...). The exit status is set after the
//! session has written its summary and stats.

use syncperf_bench::runner::{self, RunOptions};
use syncperf_bench::{all_figures, tables, verify};
use syncperf_core::SYSTEM3;

fn main() -> syncperf_core::Result<()> {
    let mut opts = RunOptions::parse(std::env::args().skip(1))?;
    opts.label = Some("verify_experiments".into());
    let passed = runner::session(&opts, || {
        let checks = verify::check(&all_figures()?, &tables::listing1(&SYSTEM3)?);
        print!("{}", verify::render(&checks));
        Ok(checks.iter().all(|c| c.passed))
    })?;
    if !passed {
        std::process::exit(1);
    }
    Ok(())
}
