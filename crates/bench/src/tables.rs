//! Table I and the Listing 1 reduction study as printable reports.

use std::fmt::Write as _;

use syncperf_core::{all_systems, Result, SystemSpec};
use syncperf_gpu_sim::{
    simulate_reduction, GpuModel, ReductionConfig, ReductionReport, ReductionStrategy,
};

/// Renders Table I (system specifications) from the encoded specs.
#[must_use]
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "TABLE I: System Specifications");
    for sys in all_systems() {
        let _ = writeln!(
            out,
            "\n({}) System {}",
            (b'a' + (sys.id - 1) as u8) as char,
            sys.id
        );
        let c = &sys.cpu;
        let _ = writeln!(out, "  {}", c.name);
        let _ = writeln!(
            out,
            "    Base Clock Frequency   {:.2} GHz",
            c.base_clock_ghz
        );
        let _ = writeln!(out, "    Sockets                {}", c.sockets);
        let _ = writeln!(out, "    Cores Per Socket       {}", c.cores_per_socket);
        let _ = writeln!(out, "    Threads Per Core       {}", c.threads_per_core);
        let _ = writeln!(out, "    NUMA nodes             {}", c.numa_nodes);
        let _ = writeln!(out, "    Main memory            {} GB", c.memory_gb);
        let g = &sys.gpu;
        let _ = writeln!(out, "  {}", g.name);
        let _ = writeln!(
            out,
            "    Compute Capability     {}.{}",
            g.compute_capability.0, g.compute_capability.1
        );
        let _ = writeln!(out, "    Clock Frequency        {} GHz", g.clock_ghz);
        let _ = writeln!(out, "    SMs                    {}", g.sms);
        let _ = writeln!(out, "    Max Threads per SM     {}", g.max_threads_per_sm);
        let _ = writeln!(out, "    CUDA Cores per SM      {}", g.cuda_cores_per_sm);
        let _ = writeln!(out, "    Memory                 {} GB", g.memory_gb);
        let _ = writeln!(out, "    g++ Version            {}", sys.gxx_version);
        let _ = writeln!(out, "    nvcc Version           {}", sys.nvcc_version);
        let _ = writeln!(out, "    GPU Driver             {}", sys.gpu_driver);
    }
    out
}

/// Listing 1's five max-reductions on `system`'s GPU over a
/// one-million-element input, in R1–R5 ([`ReductionStrategy::ALL`]) order.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn listing1(system: &SystemSpec) -> Result<Vec<ReductionReport>> {
    let model = GpuModel::for_spec(&system.gpu);
    let cfg = ReductionConfig::megabyte_input(&system.gpu);
    ReductionStrategy::ALL
        .into_iter()
        .map(|s| simulate_reduction(&model, &system.gpu, s, &cfg))
        .collect()
}

/// Renders `system`'s [`listing1`] result as the comparison table
/// (runtime in cycles and µs, op counts, and the ordering statement
/// from Section II-C).
#[must_use]
pub fn render_listing1(system: &SystemSpec, reports: &[ReductionReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Listing 1: five max-reduction strategies, {} int elements on {}",
        ReductionConfig::megabyte_input(&system.gpu).size,
        system.gpu.name
    );
    let _ = writeln!(
        out,
        "{:<42} {:>12} {:>10} {:>12} {:>12}",
        "strategy", "cycles", "µs", "global atm", "block atm"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<42} {:>12.0} {:>10.1} {:>12} {:>12}",
            r.strategy.label(),
            r.total_cycles,
            r.total_cycles / (system.gpu.clock_ghz * 1e3),
            r.global_atomics,
            r.block_atomics
        );
    }
    // Reduction N is the Nth report.
    let mut by_time: Vec<usize> = (0..reports.len()).collect();
    by_time.sort_by(|&a, &b| reports[a].total_cycles.total_cmp(&reports[b].total_cycles));
    let order: Vec<String> = by_time.iter().map(|i| format!("R{}", i + 1)).collect();
    let _ = writeln!(out, "\nfastest to slowest: {}", order.join(" < "));
    let speedup = reports[1].total_cycles / reports[4].total_cycles;
    let _ = writeln!(out, "R5 speedup over R2: {speedup:.2}x (paper: ~2.5x)");
    out
}

/// Runs the Listing 1 reduction study on `system` and renders it.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn listing1_report(system: &SystemSpec) -> Result<String> {
    Ok(render_listing1(system, &listing1(system)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::SYSTEM3;

    #[test]
    fn table1_contains_all_specs() {
        let t = table1();
        for needle in [
            "Intel Xeon E5-2687 v3",
            "Intel Xeon Gold 6226R",
            "AMD Ryzen Threadripper 2950X",
            "RTX 2070 SUPER",
            "A100",
            "RTX 4090",
            "Compute Capability     8.9",
            "SMs                    128",
            "535.113.01",
        ] {
            assert!(t.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn listing1_reports_paper_ordering() {
        let r = listing1_report(&SYSTEM3).unwrap();
        assert!(
            r.contains("R5 < R3 < R4 < R1 < R2"),
            "ordering line missing:\n{r}"
        );
    }

    #[test]
    fn listing1_speedup_printed() {
        let r = listing1_report(&SYSTEM3).unwrap();
        assert!(r.contains("R5 speedup over R2"));
    }
}
