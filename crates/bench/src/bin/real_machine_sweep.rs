//! Runs the OpenMP test codes on *this machine's real threads* (the
//! artifact's original workflow) and writes artifact-style results
//! under `results/<hostname>/`.
//!
//! Trends depend on the host's core count; on a many-core machine this
//! reproduces the paper's CPU figures on genuine hardware. A reduced
//! protocol keeps the run short; pass `--full` for the paper's 9×7
//! protocol with full loop counts. Each code runs at the affinity
//! `launch` sweeps it at, so `compare_results` matches every point
//! against a simulated system. The shared runner flags (`--jobs`,
//! `--metrics`, `--trace`, ...) apply; real-thread cache entries are
//! host-scoped, so results never leak across machines.

use syncperf_bench::codes::{self, Machine};
use syncperf_bench::common::{max_real_threads, results_dir};
use syncperf_bench::runner::{self, RunOptions};
use syncperf_core::{ExecParams, Protocol};

fn main() -> syncperf_core::Result<()> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    args.retain(|a| a != "--full");
    let mut opts = RunOptions::parse(args)?;
    opts.label = Some(if full {
        "real_machine_sweep_full".into()
    } else {
        "real_machine_sweep".into()
    });
    let params = ExecParams::new(2).with_warmup(2);
    let (protocol, params) = if full {
        (Protocol::PAPER, params)
    } else {
        (Protocol::SIM, params.with_loops(100, 20))
    };
    println!(
        "real-thread sweep: up to {} threads, protocol {}x{} runs, {}x{} loops",
        max_real_threads().max(2),
        protocol.runs,
        protocol.max_attempts,
        params.n_iter,
        params.n_unroll
    );

    let hostname = std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".into());
    let openmp = codes::select("openmp")?;
    let host = Machine::Host { protocol, params };
    let store = runner::session(&opts, || {
        codes::sweep(&openmp, host, &hostname, |code, points| {
            if let Err(e) = points {
                eprintln!("{} failed: {e}", code.name);
            }
            Ok(())
        })
    })?;

    let out = results_dir();
    store.write(&out)?;
    println!(
        "wrote {} records for {} tests under {}/{hostname}/",
        store.len(),
        store.tests().len(),
        out.display()
    );
    println!(
        "compare against a simulated system with:\n  cargo run -p syncperf-bench --bin launch -- openmp --yes\n  cargo run -p syncperf-bench --bin compare_results -- {} system3 {hostname}",
        out.display()
    );
    Ok(())
}
