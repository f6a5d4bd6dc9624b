//! Runs any registered figure experiment with recording enabled and
//! prints/exports the trace.
//!
//! ```console
//! $ trace_report list
//! $ trace_report fig02_omp_atomic_update_scalar
//! $ trace_report fig09_cuda_atomicadd_scalar --format chrome --out fig09.json
//! $ trace_report all_figures --format jsonl --out all.jsonl
//! ```
//!
//! Without `--out`, the counter summary table is printed to stdout
//! (the figure tables themselves are suppressed — this tool is about
//! the trace). With `--out`, the selected format (`chrome` by default)
//! is written to the file as well.

use std::path::PathBuf;

use syncperf_bench::runner::{self, TraceFormat};
use syncperf_core::obs::{self, Recorder};
use syncperf_core::report::render_obs_summary;
use syncperf_core::Result;

struct Cli {
    name: String,
    out: Option<PathBuf>,
    format: TraceFormat,
    quiet_figures: bool,
    jobs: Option<usize>,
    no_cache: bool,
    metrics: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace_report <name|list> [--format chrome|jsonl|summary] [--out <path>] \
         [--metrics <path|->] [--show-figures] [--jobs <n>] [--no-cache]\n\nruns the named \
         figure experiment with recording enabled, prints the counter summary, and optionally \
         exports the trace; --metrics renders the snapshot in Prometheus-style exposition \
         format (`-` for stdout)"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut name = None;
    let mut out = None;
    let mut format = None;
    let mut quiet_figures = true;
    let mut jobs = None;
    let mut no_cache = false;
    let mut metrics = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(|v| TraceFormat::parse(v)) {
                Some(Ok(f)) => format = Some(f),
                _ => usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs = Some(n.max(1)),
                None => usage(),
            },
            "--metrics" => match it.next() {
                Some(p) => metrics = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--no-cache" => no_cache = true,
            "--show-figures" => quiet_figures = false,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other if name.is_none() => name = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    let format = format.unwrap_or(TraceFormat::Chrome);
    Cli {
        name,
        out,
        format,
        quiet_figures,
        jobs,
        no_cache,
        metrics,
    }
}

fn main() -> Result<()> {
    let cli = parse_cli();
    if cli.name == "list" {
        for e in runner::registry() {
            println!("{:<36} {}", e.name, e.about);
        }
        return Ok(());
    }
    let Some(entry) = runner::find(&cli.name) else {
        eprintln!(
            "unknown experiment `{}` (try `trace_report list`)",
            cli.name
        );
        std::process::exit(2);
    };

    obs::install(Recorder::tracing());
    let rec = obs::global().clone();

    let sched = if cli.jobs.is_some() || cli.no_cache {
        let mut cfg = syncperf_sched::SchedConfig::new(cli.jobs.unwrap_or(1))
            .with_label(format!("trace_report-{}", entry.name));
        if cli.no_cache {
            cfg = cfg.without_cache();
        }
        Some(syncperf_sched::install(syncperf_sched::Scheduler::new(cfg)))
    } else {
        None
    };

    let outcome = (entry.generate)();
    if sched.is_some() {
        syncperf_sched::uninstall();
    }
    let figs = outcome?;
    if !cli.quiet_figures {
        syncperf_bench::emit(&figs)?;
    }

    let events = rec.drain_events();
    let snap = runner::process_snapshot(&rec, sched.as_deref());
    print!("{}", render_obs_summary(&snap));
    if let Some(s) = &sched {
        print!("{}", runner::render_sched_summary(&s.stats()));
    }
    println!("({} trace events)", events.len());
    let dropped = rec.dropped_events();
    if dropped > 0 {
        println!("({dropped} events dropped — per-thread breakdown in the summary above)");
    }
    if let Some(path) = &cli.metrics {
        let text = obs::metrics::render(&snap);
        if path.as_os_str() == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, text)?;
            println!("(metrics: {})", path.display());
        }
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, runner::render_trace(&events, &snap, cli.format))?;
        println!("(trace: {})", path.display());
    }
    Ok(())
}
