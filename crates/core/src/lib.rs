//! # syncperf-core
//!
//! The differential measurement framework from *"Characterizing CUDA and
//! OpenMP Synchronization Primitives"* (Burtchell & Burtscher, IISWC
//! 2024).
//!
//! The framework times a *baseline* loop body and a *test* loop body
//! that differ by exactly one occurrence of the measured
//! synchronization primitive; the median-of-runs difference, divided by
//! the loop trip count, is the cost of a single primitive
//! (see [`Protocol`]). Loop bodies are small op sequences ([`CpuOp`],
//! [`GpuOp`]) interpreted by pluggable [`Executor`]s: the real-thread
//! OpenMP-like runtime (`syncperf-omp`), the multicore CPU simulator
//! (`syncperf-cpu-sim`), and the SIMT GPU simulator
//! (`syncperf-gpu-sim`).
//!
//! ## Example
//!
//! Measuring a primitive needs an executor; here a trivial one that
//! charges a fixed cost per op:
//!
//! ```
//! use syncperf_core::{
//!     kernel, ExecParams, Executor, Protocol, Result, TimeUnit,
//! };
//!
//! struct FixedCost;
//!
//! impl Executor for FixedCost {
//!     type Op = syncperf_core::CpuOp;
//!     fn name(&self) -> &str { "fixed" }
//!     fn time_unit(&self) -> TimeUnit { TimeUnit::Seconds }
//!     fn execute(&mut self, body: &[Self::Op], p: &ExecParams) -> Result<f64> {
//!         Ok(body.len() as f64 * 20e-9 * p.timed_reps() as f64)
//!     }
//! }
//!
//! # fn main() -> Result<()> {
//! let m = Protocol::SIM.measure(
//!     &mut FixedCost,
//!     &kernel::omp_barrier(),
//!     &ExecParams::new(4).with_loops(100, 10),
//! )?;
//! assert!((m.per_op - 20e-9).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use syncperf_obs as obs;

pub mod artifact;
pub mod dtype;
pub mod error;
pub mod kernel;
mod numfmt;
pub mod params;
pub mod platform;
pub mod protocol;
pub mod recommend;
pub mod report;
pub mod rng;
pub mod stats;
pub mod svg;
pub mod sweep;
pub mod sysfile;
pub mod system;
pub mod wide;

pub use artifact::{DiffReport, ResultsStore, RunRecord};
pub use dtype::DType;
pub use error::{Result, SyncPerfError};
pub use kernel::{
    CpuKernel, CpuOp, GpuKernel, GpuOp, Kernel, RmwOp, Scope, ShflVariant, Target, VoteKind,
};
pub use params::{Affinity, ExecParams};
pub use platform::{Executor, TimeUnit};
pub use protocol::{Measurement, Protocol};
pub use report::{FigureData, Series};
pub use system::{all_systems, CpuSpec, GpuSpec, SystemSpec, SYSTEM1, SYSTEM2, SYSTEM3};
