//! Generates a self-contained markdown report (`results/REPORT.md`):
//! Table I, the Listing 1 study, every regenerated figure as a markdown
//! table, and the claim-verification summary. One `all_figures` sweep
//! and one Listing 1 run feed both the claim table and the figures.
//!
//! Runs as a `runner::session`, so every shared flag applies
//! (`--jobs`, `--connect`, `--no-cache`, `--resume`, `--cache-stats`,
//! `--metrics`, `--trace`, ...).

use std::fmt::Write as _;

use syncperf_bench::runner::{self, RunOptions};
use syncperf_bench::{all_figures, tables, verify};
use syncperf_core::SYSTEM3;

fn main() -> syncperf_core::Result<()> {
    let mut opts = RunOptions::parse(std::env::args().skip(1))?;
    opts.label = Some("make_report".into());
    runner::session(&opts, report)
}

fn report() -> syncperf_core::Result<()> {
    let mut md = String::new();
    let _ = writeln!(md, "# syncperf regenerated results\n");
    let _ = writeln!(
        md,
        "Auto-generated by `make_report`. Simulated systems parameterized by the\n\
         paper's Table I; see EXPERIMENTS.md for the per-figure comparison.\n"
    );

    let figs = all_figures()?;
    let listing1 = tables::listing1(&SYSTEM3)?;

    // Claim verification first — the headline.
    let checks = verify::check(&figs, &listing1);
    let passed = checks.iter().filter(|c| c.passed).count();
    let _ = writeln!(
        md,
        "## Claim verification: {passed}/{} PASS\n",
        checks.len()
    );
    let _ = writeln!(md, "| | id | claim | evidence |");
    let _ = writeln!(md, "|---|---|---|---|");
    for c in &checks {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} |",
            if c.passed { "✅" } else { "❌" },
            c.id,
            c.claim,
            c.detail
        );
    }

    let _ = writeln!(md, "\n## Table I\n\n```text\n{}```\n", tables::table1());
    let _ = writeln!(
        md,
        "## Listing 1 reductions\n\n```text\n{}```\n",
        tables::render_listing1(&SYSTEM3, &listing1)
    );

    let _ = writeln!(md, "## Figures\n");
    for fig in &figs {
        let _ = writeln!(md, "### {} — {}\n", fig.id, fig.title);
        // Markdown table: x column + one column per series.
        let _ = write!(md, "| {} |", fig.x_label);
        for s in &fig.series {
            let _ = write!(md, " {} |", s.label);
        }
        md.push('\n');
        let _ = write!(md, "|---|");
        for _ in &fig.series {
            let _ = write!(md, "---|");
        }
        md.push('\n');
        let mut xs: Vec<f64> = fig
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            let _ = write!(md, "| {x} |");
            for s in &fig.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(md, " {} |", syncperf_core::report::fmt_eng(y));
                    }
                    None => {
                        let _ = write!(md, " |");
                    }
                }
            }
            md.push('\n');
        }
        for note in &fig.annotations {
            let _ = writeln!(md, "\n> {note}");
        }
        md.push('\n');
    }

    let dir = syncperf_bench::common::results_dir();
    std::fs::create_dir_all(&dir).map_err(syncperf_core::SyncPerfError::from)?;
    let path = dir.join("REPORT.md");
    std::fs::write(&path, &md).map_err(syncperf_core::SyncPerfError::from)?;
    println!("wrote {} ({} KiB)", path.display(), md.len() / 1024);
    Ok(())
}
