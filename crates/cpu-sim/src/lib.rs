//! # syncperf-cpu-sim
//!
//! A cycle-approximate multicore CPU simulator: the hardware substrate
//! for regenerating the paper's OpenMP figures (Figs. 1-6) without the
//! paper's physical test systems.
//!
//! The model captures the mechanisms that drive every CPU-side result
//! in the paper:
//!
//! * **64-byte cache lines and false sharing** — private elements of a
//!   strided array map to lines; threads on distinct cores writing the
//!   same line pay transfer + arbitration ([`memline`], Fig. 3).
//! * **A saturating coherence-arbitration queue** — contended-line
//!   latency stops growing beyond ~8 contenders, producing the paper's
//!   throughput plateau ([`CpuModel::contention_ns`], Figs. 1-2).
//! * **Floating-point atomics as CAS loops** — the int/float gap
//!   (Fig. 2).
//! * **Store buffers drained by flushes** — flushes are nearly free
//!   without false sharing and expensive with it (Fig. 6).
//! * **SMT topology** — hyperthread siblings share an L1 (no false
//!   sharing between them) and issue bandwidth (mild slowdown), and add
//!   timing variability.
//! * **Per-system jitter** — System 3's AMD CPU is noisier (Fig. 4a).
//!
//! ## Example
//!
//! ```
//! use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
//! use syncperf_cpu_sim::CpuSimExecutor;
//!
//! # fn main() -> syncperf_core::Result<()> {
//! let mut sim = CpuSimExecutor::new(&SYSTEM3);
//! // False sharing: stride-1 atomics are far slower than stride-16.
//! let p = ExecParams::new(16).with_loops(50, 4);
//! let s1 = Protocol::SIM.measure(&mut sim, &kernel::omp_atomic_update_array(DType::I32, 1), &p)?;
//! let s16 = Protocol::SIM.measure(&mut sim, &kernel::omp_atomic_update_array(DType::I32, 16), &p)?;
//! assert!(s1.runtime_seconds() > 3.0 * s16.runtime_seconds());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod executor;
pub mod explain;
pub mod memline;
pub mod mesi;
pub mod plan;
pub mod program;
pub mod refengine;
pub mod topology;
pub mod trace;
pub mod trace_tap;

pub use config::{BarrierKind, CpuModel};
pub use engine::{run_full_stepping, EngineResult, OBSERVED_REPS};
pub use executor::{CpuSimExecutor, PrimedCpuSim};
pub use explain::{explain_body, explain_op, CpuCostBreakdown};
pub use mesi::{MesiDirectory, MesiState, Transaction};
pub use program::{simulate_cpu_reduction, CpuReductionReport, CpuReductionStrategy};
pub use refengine::{run_reference, RefEngineResult};
pub use topology::{Placement, Slot};
pub use trace_tap::{crosscheck_cpu_body, mesi_steady_traffic, MesiCrossCheck};
