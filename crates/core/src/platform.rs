//! The [`Executor`] abstraction: anything that can run a kernel body
//! and report the slowest thread's elapsed time.
//!
//! Three executors implement this trait in the workspace:
//!
//! * `syncperf_omp::OmpExecutor` — real `std::thread` threads running
//!   real atomics (times in seconds, like the paper's `gettimeofday`).
//! * `syncperf_cpu_sim::CpuSimExecutor` — the multicore simulator
//!   (virtual nanoseconds).
//! * `syncperf_gpu_sim::GpuSimExecutor` — the SIMT simulator (virtual
//!   cycles, like the paper's `clock64()`).

use crate::error::Result;
use crate::params::ExecParams;

/// The unit in which an executor reports per-thread elapsed times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeUnit {
    /// Wall-clock seconds (OpenMP tests use `gettimeofday`).
    Seconds,
    /// Processor cycles at the given clock frequency (CUDA tests use
    /// `clock64()`; Section IV divides by the clock frequency).
    Cycles {
        /// Clock frequency in GHz used for the cycles → seconds
        /// conversion.
        clock_ghz: f64,
    },
}

impl TimeUnit {
    /// Converts a duration in this unit to seconds.
    ///
    /// ```
    /// use syncperf_core::TimeUnit;
    ///
    /// assert_eq!(TimeUnit::Seconds.to_seconds(2.5), 2.5);
    /// // 2 GHz: 4 cycles == 2 ns
    /// let ns = TimeUnit::Cycles { clock_ghz: 2.0 }.to_seconds(4.0);
    /// assert!((ns - 2e-9).abs() < 1e-18);
    /// ```
    #[must_use]
    pub fn to_seconds(self, value: f64) -> f64 {
        match self {
            TimeUnit::Seconds => value,
            TimeUnit::Cycles { clock_ghz } => value / (clock_ghz * 1e9),
        }
    }
}

/// A platform capable of executing kernel loop bodies.
///
/// Implementations interpret a body (slice of ops) `n_iter × N_UNROLL`
/// times per thread after `n_warmup × N_UNROLL` warmup repetitions and
/// time each thread's timed region only — exactly the structure of the
/// paper's Listings 2 and 3. An execution returns the one number the
/// protocol records per attempt: "the maximum runtime across the
/// running threads" (Section IV). How an executor reduces its threads
/// to that maximum is its own business.
pub trait Executor {
    /// The operation vocabulary this executor understands
    /// ([`crate::CpuOp`] or [`crate::GpuOp`]).
    type Op;

    /// Short platform name for error messages and reports.
    fn name(&self) -> &str;

    /// The unit of the returned times.
    fn time_unit(&self) -> TimeUnit;

    /// Executes `body` under `params` and returns the maximum elapsed
    /// time across the participating threads, in [`Self::time_unit`].
    ///
    /// # Errors
    ///
    /// Returns an error if the body contains an unsupported operation or
    /// the parameters are invalid for this platform.
    fn execute(&mut self, body: &[Self::Op], params: &ExecParams) -> Result<f64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_passthrough() {
        assert_eq!(TimeUnit::Seconds.to_seconds(0.125), 0.125);
    }

    #[test]
    fn cycles_conversion_uses_clock() {
        let tu = TimeUnit::Cycles { clock_ghz: 2.625 }; // RTX 4090
        let s = tu.to_seconds(2.625e9);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
