//! Compares two artifact-style result trees (e.g. two model revisions,
//! or two simulated systems) by throughput ratio.
//!
//! ```console
//! $ compare_results results system3 system1 [tolerance]
//! ```

use std::io::{self, Write};

use syncperf_core::{DiffReport, ResultsStore};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!("usage: compare_results <dir> <baseline-host> <other-host> [tolerance]");
        std::process::exit(2);
    };
    if args.len() < 3 {
        usage();
    }
    let tolerance = match args.get(3).map(|t| t.parse::<f64>()) {
        None => 0.10,
        Some(Ok(t)) if t > 0.0 && t.is_finite() => t,
        Some(_) => usage(),
    };
    let load = |host: &str| match ResultsStore::load(&args[0], host) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error loading {host}: {e}");
            std::process::exit(1);
        }
    };
    let base = load(&args[1]);
    let other = load(&args[2]);
    let diff = base.diff(&other);
    // A reader that stops early (`| head`) closes the pipe: that ends
    // the report, it is not an error.
    match report(&mut io::stdout().lock(), &args, &diff, tolerance) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error writing the report: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// Writes the comparison of `args[1]` (baseline) and `args[2]`.
fn report(
    out: &mut impl Write,
    args: &[String],
    diff: &DiffReport,
    tolerance: f64,
) -> io::Result<()> {
    writeln!(
        out,
        "matched {} points ({} only in {}, {} only in {})",
        diff.entries.len(),
        diff.only_in_baseline,
        args[1],
        diff.missing_in_baseline,
        args[2]
    )?;
    if diff.entries.is_empty() {
        return Ok(());
    }
    writeln!(
        out,
        "geometric-mean throughput ratio {}/{}: {:.3}",
        args[2],
        args[1],
        diff.geomean_ratio()
    )?;
    let outliers = diff.outliers(tolerance);
    writeln!(
        out,
        "{} points deviate more than {:.0}%:",
        outliers.len(),
        tolerance * 100.0
    )?;
    for e in outliers.iter().take(20) {
        writeln!(out, "  {:<60} {:>7.2}x", e.key, e.ratio)?;
    }
    Ok(())
}
