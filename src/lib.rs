//! # syncperf
//!
//! A reproduction of *"Characterizing CUDA and OpenMP Synchronization
//! Primitives"* (Burtchell & Burtscher, IISWC 2024): the paper's
//! differential measurement framework, an OpenMP-like runtime on real
//! threads, and cycle-approximate CPU and GPU simulators that
//! regenerate every table and figure of the paper's evaluation.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — the measurement framework (kernels, protocol, sweeps,
//!   reports, recommendations, Table I system specs).
//! * [`omp`] — real-thread teams, barriers, typed atomics, critical
//!   sections, flushes.
//! * [`cpu_sim`] — the multicore simulator behind Figs. 1-6.
//! * [`gpu_sim`] — the SIMT simulator behind Figs. 7-15 and Listing 1.
//! * [`analyze`] — static sync linter plus vector-clock race detector
//!   cross-checked against the simulators (see `docs/ANALYSIS.md`).
//!
//! ## Quickstart
//!
//! Measure one primitive on a simulated system:
//!
//! ```
//! use syncperf::core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
//! use syncperf::cpu_sim::CpuSimExecutor;
//!
//! # fn main() -> syncperf::core::Result<()> {
//! let mut sim = CpuSimExecutor::new(&SYSTEM3);
//! let m = Protocol::PAPER.measure(
//!     &mut sim,
//!     &kernel::omp_atomic_update_scalar(DType::I32),
//!     &ExecParams::new(16).with_loops(1000, 100),
//! )?;
//! println!("one atomic update: {:.1} ns", m.runtime_seconds() * 1e9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use syncperf_analyze as analyze;
pub use syncperf_core as core;
pub use syncperf_cpu_sim as cpu_sim;
pub use syncperf_gpu_sim as gpu_sim;
pub use syncperf_omp as omp;

/// Commonly used items in one import.
pub mod prelude {
    pub use syncperf_core::{
        kernel, Affinity, CpuKernel, CpuOp, DType, ExecParams, Executor, FigureData, GpuKernel,
        GpuOp, Kernel, Measurement, Protocol, Result, RmwOp, Scope, Series, ShflVariant,
        SyncPerfError, SystemSpec, Target, TimeUnit, VoteKind, SYSTEM1, SYSTEM2, SYSTEM3,
    };
    pub use syncperf_cpu_sim::CpuSimExecutor;
    pub use syncperf_gpu_sim::{GpuSimExecutor, ReductionConfig, ReductionStrategy};
    pub use syncperf_omp::{AtomicCell, Critical, OmpExecutor, SenseBarrier, Team};
}
