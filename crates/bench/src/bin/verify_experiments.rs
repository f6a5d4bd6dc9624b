//! Verifies every qualitative claim in EXPERIMENTS.md against freshly
//! regenerated data. Exits nonzero if any claim fails — the
//! artifact-evaluation entry point.
//!
//! Runs as a `runner::session`, so every shared flag applies
//! (`--jobs`, `--workers`, `--no-cache`, `--resume`, `--cache-stats`,
//! `--metrics`, `--trace`, ...). The exit status is set after the
//! session has written its summary and stats.

use syncperf_bench::runner::{self, RunOptions};
use syncperf_bench::verify;

fn main() -> syncperf_core::Result<()> {
    let mut opts = RunOptions::parse(runner::args())?;
    opts.label = Some("verify_experiments".into());
    let passed = runner::session(&opts, || {
        let checks = verify::run_all_checks()?;
        print!("{}", verify::render(&checks));
        Ok(checks.iter().all(|c| c.passed))
    })?;
    if !passed {
        std::process::exit(1);
    }
    Ok(())
}
