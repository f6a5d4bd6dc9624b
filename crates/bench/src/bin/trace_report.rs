//! Runs any registered figure experiment with recording enabled and
//! prints/exports the trace.
//!
//! ```console
//! $ trace_report list
//! $ trace_report fig02_omp_atomic_update_scalar
//! $ trace_report fig09_cuda_atomicadd_scalar --format chrome --out fig09.json
//! $ trace_report all_figures --format jsonl --out all.jsonl --jobs 2
//! ```
//!
//! Without `--out`, the counter summary table is printed to stdout
//! (the figure tables themselves are suppressed — this tool is about
//! the trace). With `--out`, the trace is written to the file in the
//! `--format` (inferred from the extension by default) and the summary
//! is printed as well. `--out`/`--format` are `--trace`/`--trace-format`
//! under this tool's names; the run is a `runner::session`, so every
//! other shared flag (`--jobs`, `--workers`, `--resume`,
//! `--cache-stats`, `--metrics <path|->`, ...) applies too.

use std::path::PathBuf;

use syncperf_bench::runner::{self, RunOptions, TraceFormat};
use syncperf_core::Result;

fn usage() -> ! {
    eprintln!(
        "usage: trace_report <name|list> [--format chrome|jsonl|summary] [--out <path>] \
         [--show-figures] [shared runner flags]\n\nruns the named figure experiment with \
         recording enabled, prints the counter summary, and optionally exports the trace; \
         accepts every shared runner flag (--jobs, --workers, --no-cache, --resume, \
         --cache-stats, --metrics <path|->, ...)"
    );
    std::process::exit(2);
}

fn main() -> Result<()> {
    let (mut opts, rest) = RunOptions::parse_known(runner::args())?;
    let mut name = None;
    let mut show_figures = false;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => opts.trace = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--format" => match it.next().map(|v| TraceFormat::parse(&v)) {
                Some(Ok(f)) => opts.format = Some(f),
                _ => usage(),
            },
            "--show-figures" => show_figures = true,
            other if other.starts_with('-') || name.is_some() => usage(),
            _ => name = Some(a),
        }
    }
    let Some(name) = name else { usage() };
    if name == "list" {
        for e in runner::registry() {
            println!("{:<36} {}", e.name, e.about);
        }
        return Ok(());
    }
    let Some(entry) = runner::find(&name) else {
        eprintln!("unknown experiment `{name}` (try `trace_report list`)");
        std::process::exit(2);
    };

    if opts.trace.is_none() {
        // No file: the trace is the counter summary, on stdout.
        opts.trace = Some(PathBuf::from("-"));
        opts.format.get_or_insert(TraceFormat::Summary);
    }
    opts.label = Some(format!("trace_report-{}", entry.name));
    runner::session(&opts, || {
        let figs = (entry.generate)()?;
        if show_figures {
            syncperf_bench::emit(&figs)?;
        }
        Ok(())
    })
}
