//! Shared helpers for the figure-regeneration harness.
//!
//! Every measurement this crate makes is a [`JobSpec`], and
//! [`measure_jobs`] runs them all: it is the one place that asks
//! whether a sweep scheduler is installed ([`syncperf_sched::current`]).
//! With one installed (the `--jobs`/`--connect`/`--no-cache` CLI
//! surface), each job is content-hashed,
//! cached and run on the work-stealing pool or the dist fleet. With
//! none (the default, and what every library unit test uses), the
//! legacy serial path is that function's other arm
//! ([`JobSpec::execute_serially`]): the jobs of one call that share an
//! executor configuration run in order on one executor with a
//! continuous jitter-RNG stream, byte-for-byte as the pre-scheduler
//! sweeps did. A caller therefore makes one call per executor the
//! legacy sweep shared. The sweep helpers below only lower sweeps to
//! jobs and fold the measurements back into series.

use syncperf_core::sweep::{SweepPoint, PLOT_FLOOR_SECONDS};
use syncperf_core::{
    Affinity, CpuKernel, DType, ExecParams, GpuKernel, Measurement, Protocol, Result, Series,
    SystemSpec,
};
use syncperf_cpu_sim::CpuModel;
use syncperf_gpu_sim::GpuModel;
use syncperf_sched::JobSpec;

/// The loop structure used for all regenerated figures (the paper's
/// `n_iter` = 1000, `N_UNROLL` = 100; the simulators reach steady state
/// regardless, so the paper values cost nothing extra).
#[must_use]
pub fn paper_loops(threads: u32) -> ExecParams {
    ExecParams::new(threads).with_loops(1000, 100)
}

/// The measurement protocol used for figures.
#[must_use]
pub fn protocol() -> Protocol {
    Protocol::PAPER
}

/// OpenMP thread counts for `system` (2 ..= max hyperthreads).
#[must_use]
pub fn omp_threads(system: &SystemSpec) -> Vec<u32> {
    system.cpu.omp_thread_counts()
}

/// GPU thread-per-block counts (1 .. 1024, powers of two).
#[must_use]
pub fn gpu_threads(system: &SystemSpec) -> Vec<u32> {
    system.gpu.thread_count_sweep()
}

/// Measures `jobs`, results in submission order: through the
/// installed scheduler, else serially on the legacy path (see the
/// module docs).
///
/// # Errors
///
/// Propagates the first job error.
pub fn measure_jobs(jobs: Vec<JobSpec>) -> Result<Vec<Measurement>> {
    match syncperf_sched::current() {
        Some(sched) => sched.run_jobs(jobs),
        None => JobSpec::execute_serially(&jobs),
    }
}

/// Measures labelled sweeps of `(x, job)` points in one
/// [`measure_jobs`] call and folds each into a throughput series
/// (ops/s/thread, the paper's y axis).
///
/// # Errors
///
/// Propagates the first job error.
pub fn measure_series(sweeps: Vec<(&str, Vec<(f64, JobSpec)>)>) -> Result<Vec<Series>> {
    let mut jobs = Vec::new();
    let xs: Vec<(&str, Vec<f64>)> = sweeps
        .into_iter()
        .map(|(label, points)| {
            let xs = points
                .into_iter()
                .map(|(x, job)| {
                    jobs.push(job);
                    x
                })
                .collect();
            (label, xs)
        })
        .collect();
    let mut ms = measure_jobs(jobs)?.into_iter();
    Ok(xs
        .into_iter()
        .map(|(label, xs)| {
            let points: Vec<(f64, f64)> = xs
                .into_iter()
                .zip(ms.by_ref())
                .map(|(x, m)| (x, m.throughput_clamped(PLOT_FLOOR_SECONDS)))
                .collect();
            Series::new(label, points)
        })
        .collect())
}

/// `kernel`'s OpenMP thread sweep on `system` as `(x, job)` points,
/// under `model` if one is given (else the system's calibrated model).
#[must_use]
pub fn cpu_jobs(
    system: &SystemSpec,
    model: Option<&CpuModel>,
    affinity: Affinity,
    kernel: &CpuKernel,
) -> Vec<(f64, JobSpec)> {
    let job = |t| JobSpec::CpuSim {
        system: system.clone(),
        model: model.cloned(),
        kernel: kernel.clone(),
        params: paper_loops(t).with_affinity(affinity),
        protocol: protocol(),
    };
    omp_threads(system)
        .into_iter()
        .map(|t| (f64::from(t), job(t)))
        .collect()
}

/// `kernel`'s thread-per-block sweep at `blocks` blocks as `(x, job)`
/// points, under `model` if one is given.
#[must_use]
pub fn gpu_jobs(
    system: &SystemSpec,
    model: Option<&GpuModel>,
    blocks: u32,
    kernel: &GpuKernel,
) -> Vec<(f64, JobSpec)> {
    let job = |t| JobSpec::GpuSim {
        system: system.clone(),
        model: model.cloned(),
        kernel: kernel.clone(),
        params: paper_loops(t).with_blocks(blocks),
        protocol: protocol(),
    };
    gpu_threads(system)
        .into_iter()
        .map(|t| (f64::from(t), job(t)))
        .collect()
}

/// Runs a CPU kernel family over the thread sweep, one series per data
/// type.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn cpu_dtype_series(
    system: &SystemSpec,
    affinity: Affinity,
    dtypes: &[DType],
    mut make_kernel: impl FnMut(DType) -> CpuKernel,
) -> Result<Vec<Series>> {
    measure_series(
        dtypes
            .iter()
            .map(|&dt| {
                (
                    dt.label(),
                    cpu_jobs(system, None, affinity, &make_kernel(dt)),
                )
            })
            .collect(),
    )
}

/// Runs a single CPU kernel over the thread sweep.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn cpu_series(
    system: &SystemSpec,
    affinity: Affinity,
    label: &str,
    kernel: &CpuKernel,
) -> Result<Series> {
    Ok(measure_series(vec![(label, cpu_jobs(system, None, affinity, kernel))])?.remove(0))
}

/// Runs a GPU kernel family over the thread-per-block sweep at a fixed
/// block count, one series per data type.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn gpu_dtype_series(
    system: &SystemSpec,
    blocks: u32,
    dtypes: &[DType],
    mut make_kernel: impl FnMut(DType) -> GpuKernel,
) -> Result<Vec<Series>> {
    measure_series(
        dtypes
            .iter()
            .map(|&dt| (dt.label(), gpu_jobs(system, None, blocks, &make_kernel(dt))))
            .collect(),
    )
}

/// Runs a single GPU kernel over the thread sweep at a fixed block
/// count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn gpu_series(
    system: &SystemSpec,
    blocks: u32,
    label: &str,
    kernel: &GpuKernel,
) -> Result<Series> {
    Ok(measure_series(vec![(label, gpu_jobs(system, None, blocks, kernel))])?.remove(0))
}

/// Runs a real-thread sweep as a throughput series. Its jobs are
/// host-scoped, so cached results never cross machines.
///
/// # Errors
///
/// Propagates executor errors.
pub fn real_series(
    protocol: Protocol,
    label: &str,
    points: Vec<SweepPoint<syncperf_core::CpuOp>>,
) -> Result<Series> {
    let jobs = points
        .into_iter()
        .map(|p| (p.x, JobSpec::real_omp(p.kernel, p.params, protocol)))
        .collect();
    Ok(measure_series(vec![(label, jobs)])?.remove(0))
}

/// Upper thread-count bound for real-thread sweeps on this host: twice
/// the available parallelism (the paper sweeps past the physical core
/// count into hyperthread oversubscription), floored at 4 so tiny
/// containers still sweep something.
#[must_use]
pub fn max_real_threads() -> u32 {
    std::thread::available_parallelism().map_or(4, |n| n.get() as u32 * 2)
}

/// Where figure CSVs land (`results/` at the workspace root, or the
/// `SYNCPERF_RESULTS` override).
#[must_use]
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("SYNCPERF_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, SYSTEM3};

    #[test]
    fn omp_threads_span_2_to_max() {
        let t = omp_threads(&SYSTEM3);
        assert_eq!((*t.first().unwrap(), *t.last().unwrap()), (2, 32));
    }

    #[test]
    fn gpu_threads_are_pow2() {
        let t = gpu_threads(&SYSTEM3);
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn cpu_series_has_one_point_per_thread_count() {
        let s = cpu_series(
            &SYSTEM3,
            Affinity::Spread,
            "barrier",
            &kernel::omp_barrier(),
        )
        .unwrap();
        assert_eq!(s.points.len(), 31);
    }

    #[test]
    fn gpu_series_has_eleven_points() {
        let s = gpu_series(&SYSTEM3, 2, "syncwarp", &kernel::cuda_syncwarp()).unwrap();
        assert_eq!(s.points.len(), 11);
    }

    #[test]
    fn one_call_continues_the_legacy_jitter_stream() {
        use syncperf_core::sweep::{thread_sweep, throughput_series};
        use syncperf_cpu_sim::CpuSimExecutor;

        assert!(syncperf_sched::current().is_none(), "the legacy arm runs");
        let bits = |s: &Series| -> Vec<(u64, u64)> {
            s.points
                .iter()
                .map(|&(x, y)| (x.to_bits(), y.to_bits()))
                .collect()
        };
        let dtypes = [DType::I32, DType::F64];
        let make = kernel::omp_atomic_update_scalar;
        let one_call = cpu_dtype_series(&SYSTEM3, Affinity::Spread, &dtypes, make).unwrap();
        // The pre-scheduler sweep: both dtypes on one shared executor.
        let mut exec = CpuSimExecutor::new(&SYSTEM3);
        let legacy: Vec<Series> = dtypes
            .iter()
            .map(|&dt| {
                let points = thread_sweep(
                    &omp_threads(&SYSTEM3),
                    paper_loops(2).with_affinity(Affinity::Spread),
                    |_| make(dt),
                );
                throughput_series(&mut exec, &protocol(), dt.label(), points).unwrap()
            })
            .collect();
        assert_eq!(one_call.len(), 2);
        for (new, old) in one_call.iter().zip(&legacy) {
            assert_eq!(new.label, old.label);
            assert_eq!(bits(new), bits(old), "{} differs", new.label);
        }
        // Two calls build two executors: the second series restarts
        // the stream, so it no longer matches the shared one.
        let split: Vec<Series> = dtypes
            .iter()
            .map(|&dt| cpu_series(&SYSTEM3, Affinity::Spread, dt.label(), &make(dt)).unwrap())
            .collect();
        assert_eq!(bits(&split[0]), bits(&legacy[0]));
        assert_ne!(bits(&split[1]), bits(&legacy[1]));
    }
}
