//! Parameter-sweep helpers: turn (x, kernel, params) grids into
//! [`Series`](crate::report::Series) ready for a figure.

use crate::error::Result;
use crate::kernel::Kernel;
use crate::params::ExecParams;
use crate::platform::Executor;
use crate::protocol::{Measurement, Protocol};
use crate::report::Series;

/// Timer floor used when converting near-zero runtimes to throughput
/// for plotting (100 ps — far below any real primitive).
pub const PLOT_FLOOR_SECONDS: f64 = 1e-10;

/// One point of a sweep: the x value to plot plus what to measure there.
#[derive(Debug, Clone)]
pub struct SweepPoint<Op> {
    /// X coordinate in the figure (usually the thread count).
    pub x: f64,
    /// The kernel to measure at this point.
    pub kernel: Kernel<Op>,
    /// The execution parameters at this point.
    pub params: ExecParams,
}

/// Measures a sequence of sweep points and returns a throughput series
/// (operations per second per thread, the paper's y axis).
///
/// # Errors
///
/// Propagates the first executor/protocol error.
pub fn throughput_series<E: Executor>(
    executor: &mut E,
    protocol: &Protocol,
    label: impl Into<String>,
    points: Vec<SweepPoint<E::Op>>,
) -> Result<Series> {
    let mut out = Vec::with_capacity(points.len());
    for p in points {
        let m = protocol.measure(executor, &p.kernel, &p.params)?;
        out.push((p.x, m.throughput_clamped(PLOT_FLOOR_SECONDS)));
    }
    Ok(Series::new(label, out))
}

/// Measures a sequence of sweep points and returns the raw
/// [`Measurement`]s (for tests and tables that need more than
/// throughput).
///
/// # Errors
///
/// Propagates the first executor/protocol error.
pub fn measure_points<E: Executor>(
    executor: &mut E,
    protocol: &Protocol,
    points: Vec<SweepPoint<E::Op>>,
) -> Result<Vec<(f64, Measurement)>> {
    let mut out = Vec::with_capacity(points.len());
    for p in points {
        let m = protocol.measure(executor, &p.kernel, &p.params)?;
        out.push((p.x, m));
    }
    Ok(out)
}

/// Builds a thread-count sweep over `thread_counts`, cloning `base`
/// parameters and substituting the thread count; `make_kernel` builds
/// the kernel (it receives the thread count for kernels that depend on
/// it).
pub fn thread_sweep<Op>(
    thread_counts: &[u32],
    base: ExecParams,
    mut make_kernel: impl FnMut(u32) -> Kernel<Op>,
) -> Vec<SweepPoint<Op>> {
    thread_counts
        .iter()
        .map(|&t| SweepPoint {
            x: f64::from(t),
            kernel: make_kernel(t),
            params: ExecParams { threads: t, ..base },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{omp_barrier, CpuOp};
    use crate::platform::TimeUnit;

    struct UnitExec;

    impl Executor for UnitExec {
        type Op = CpuOp;

        fn name(&self) -> &str {
            "unit"
        }

        fn time_unit(&self) -> TimeUnit {
            TimeUnit::Seconds
        }

        fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> crate::error::Result<f64> {
            // Cost grows with thread count: 1 ns per op per thread.
            let reps = params.timed_reps() as f64;
            let t = body.len() as f64 * 1e-9 * f64::from(params.threads) * reps;
            Ok(t)
        }
    }

    #[test]
    fn thread_sweep_builds_points() {
        let pts = thread_sweep(&[2, 4, 8], ExecParams::new(1).with_loops(10, 10), |_| {
            omp_barrier()
        });
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].params.threads, 2);
        assert_eq!(pts[2].x, 8.0);
        // loop config preserved
        assert_eq!(pts[1].params.n_iter, 10);
    }

    #[test]
    fn throughput_series_decreases_with_contention() {
        let pts = thread_sweep(&[2, 4, 8], ExecParams::new(1).with_loops(10, 10), |_| {
            omp_barrier()
        });
        let s = throughput_series(&mut UnitExec, &Protocol::SIM, "barrier", pts).unwrap();
        assert_eq!(s.points.len(), 3);
        // throughput per thread should fall as the per-op cost rises
        assert!(s.points[0].1 > s.points[1].1);
        assert!(s.points[1].1 > s.points[2].1);
    }

    #[test]
    fn measure_points_returns_measurements() {
        let pts = thread_sweep(&[2, 4], ExecParams::new(1).with_loops(10, 10), |_| {
            omp_barrier()
        });
        let ms = measure_points(&mut UnitExec, &Protocol::SIM, pts).unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].0, 2.0);
        assert!(ms[0].1.per_op > 0.0);
    }
}
