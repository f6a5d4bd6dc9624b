//! The artifact's `launch.py`, reproduced: run all test codes (or the
//! OpenMP/CUDA subset, or individual codes) across their full parameter
//! grids, writing `results/<host>/<test>/runtimes.csv`.
//!
//! ```console
//! $ launch all                 # everything (asks for confirmation)
//! $ launch openmp --yes        # OpenMP codes, no prompt
//! $ launch cuda --system 1     # CUDA codes on the System 1 model
//! $ launch omp_barrier cuda_shfl
//! $ launch list                # list available codes
//! $ launch openmp --yes --jobs 2 --metrics stats.prom
//! ```
//!
//! The sweeps route through `common::measure_jobs` inside a
//! `runner::session`, so every shared flag (`--jobs`, `--connect`,
//! `--no-cache`, `--metrics`, ...) turns each grid point into a
//! content-hashed cacheable job, as for the figure binaries.

use std::io::Write as _;

use syncperf_bench::codes::{self, Machine};
use syncperf_bench::runner::{self, RunOptions};
use syncperf_core::{SystemSpec, SYSTEM1, SYSTEM2, SYSTEM3};

fn usage() -> ! {
    eprintln!(
        "usage: launch <all|openmp|cuda|list|TEST...> [--yes] [--system 1|2|3] [--system-file PATH] [--out DIR] [shared runner flags: --jobs N, --no-cache, --metrics PATH, ...]"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let (mut opts, args) =
        RunOptions::parse_known(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    opts.label = Some("launch".into());

    let mut selectors = Vec::new();
    let mut yes = false;
    let mut custom: Option<SystemSpec> = None;
    let mut system: &SystemSpec = &SYSTEM3;
    let mut it = args.iter();
    let mut out = syncperf_bench::common::results_dir();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--yes" | "-y" => yes = true,
            "--system" => {
                system = match it.next().map(String::as_str) {
                    Some("1") => &SYSTEM1,
                    Some("2") => &SYSTEM2,
                    Some("3") => &SYSTEM3,
                    _ => usage(),
                }
            }
            "--system-file" => {
                let path = it.next().unwrap_or_else(|| usage());
                custom =
                    Some(syncperf_core::sysfile::load_system(path).unwrap_or_else(|e| fail(e)));
            }
            "--out" => out = it.next().unwrap_or_else(|| usage()).into(),
            other if other.starts_with('-') => usage(),
            other => selectors.push(other.to_string()),
        }
    }
    let system = custom.as_ref().unwrap_or(system);
    if selectors.is_empty() {
        usage();
    }

    if selectors.iter().any(|s| s == "list") {
        for code in codes::registry() {
            println!("{:?}\t{}", code.api, code.name);
        }
        return;
    }

    let mut picked = Vec::new();
    for sel in &selectors {
        picked.append(&mut codes::select(sel).unwrap_or_else(|e| fail(e)));
    }

    println!("The following codes will be run on the simulated {system}:");
    for c in &picked {
        println!("  {}", c.name);
    }
    if !yes {
        print!("Proceed? [y/N] ");
        std::io::stdout().flush().expect("stdout");
        let mut line = String::new();
        std::io::stdin().read_line(&mut line).expect("stdin");
        if !matches!(line.trim(), "y" | "Y" | "yes") {
            println!("aborted");
            return;
        }
    }

    let host = format!("system{}", system.id);
    let outcome = runner::session(&opts, || {
        codes::sweep(
            &picked,
            Machine::Simulated(system),
            &host,
            |code, points| {
                println!("running {:<28} {} points", code.name, points?);
                Ok(())
            },
        )
    });
    let store = match outcome {
        Ok(store) => store,
        Err(e) => {
            eprintln!("failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = store.write(&out) {
        eprintln!("error writing results: {e}");
        std::process::exit(1);
    }
    println!(
        "\nwrote {} records for {} tests under {}/{host}/",
        store.len(),
        store.tests().len(),
        out.display()
    );
}
