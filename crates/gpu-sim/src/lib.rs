//! # syncperf-gpu-sim
//!
//! A SIMT GPU simulator: the hardware substrate for regenerating the
//! paper's CUDA figures (Figs. 7-15) and the Listing 1 reduction study
//! without an NVIDIA GPU.
//!
//! The model captures the mechanisms behind every GPU-side result:
//!
//! * **Warp granularity** — partial warps cost like full warps; costs
//!   are flat below 32 threads (Fig. 7).
//! * **Block/SM occupancy** — round-robin block scheduling, resident
//!   limits, waves; `__syncwarp`/shuffle throughput depends on resident
//!   threads per SM, not per block (Fig. 8).
//! * **Atomic units with per-dtype service rates** — `int` < `ull` <
//!   `float`/`double` (Fig. 9).
//! * **Warp-aggregated atomics** — same-address `atomicAdd`s combine
//!   into one request per warp; CAS/Exch cannot (Figs. 9 vs 11).
//! * **Bounded atomic/L2 bandwidth** — "a fixed number of atomics per
//!   time unit" (Figs. 10, 12).
//! * **Constant-cost fences** — with block scope ≈ free and system
//!   scope erratic (Fig. 14, §V-B3).
//! * **A 32-bit shuffle datapath** — 64-bit shuffles cost two
//!   instructions and saturate at half the thread count (Fig. 15).
//!
//! ## Example
//!
//! ```
//! use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
//! use syncperf_gpu_sim::GpuSimExecutor;
//!
//! # fn main() -> syncperf_core::Result<()> {
//! let mut gpu = GpuSimExecutor::new(&SYSTEM3);
//! let p = ExecParams::new(64).with_blocks(2).with_loops(50, 4);
//! // int atomicAdd beats double atomicAdd on a shared variable:
//! let i = Protocol::SIM.measure(&mut gpu, &kernel::cuda_atomic_add_scalar(DType::I32), &p)?;
//! let d = Protocol::SIM.measure(&mut gpu, &kernel::cuda_atomic_add_scalar(DType::F64), &p)?;
//! assert!(i.throughput().unwrap() > d.throughput().unwrap());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod config;
pub mod cost;
pub mod engine;
pub mod executor;
pub mod explain;
pub mod occupancy;
pub mod program;
pub mod trace_tap;

pub use config::{AtomicService, GpuModel};
pub use engine::{run_full_stepping, GpuEngineResult};
pub use executor::{GpuSimExecutor, PrimedGpuSim};
pub use explain::{explain_op as explain_gpu_op, GpuCostBreakdown};
pub use occupancy::Occupancy;
pub use program::{
    simulate_histogram, simulate_reduction, simulate_scan, HistogramConfig, HistogramReport,
    HistogramStrategy, ReductionConfig, ReductionReport, ReductionStrategy, ScanConfig, ScanReport,
    ScanStrategy,
};
pub use trace_tap::{audit_geometry, audit_launch, LaunchAudit};
