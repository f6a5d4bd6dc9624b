//! The artifact's test-code registry.
//!
//! The paper's artifact ships one source file per measured primitive
//! (`./codes/omp/omp_atomicadd_scalar.cpp`, …) and a `launch.py` that
//! compiles and runs them across all parameters, writing
//! `results/<host>/<test>/runtimes.csv`. This module is the equivalent:
//! a registry of named test codes, each sweeping its full parameter
//! grid on a simulated system and pushing [`RunRecord`]s.

use syncperf_core::{
    kernel, Affinity, CpuKernel, DType, ExecParams, GpuKernel, Protocol, Result, ResultsStore,
    RunRecord, Scope, ShflVariant, SystemSpec, VoteKind,
};
use syncperf_sched::JobSpec;

use crate::common::measure_jobs;

/// Which API a test code exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// OpenMP (CPU) codes.
    OpenMp,
    /// CUDA (GPU) codes.
    Cuda,
}

/// One runnable test code.
pub struct TestCode {
    /// Artifact-style name, e.g. `omp_atomicadd_scalar`.
    pub name: &'static str,
    /// Which API it belongs to.
    pub api: Api,
    /// Sweeps the full parameter grid and records results.
    pub run: fn(&SystemSpec, &mut ResultsStore) -> Result<()>,
}

impl std::fmt::Debug for TestCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestCode")
            .field("name", &self.name)
            .field("api", &self.api)
            .finish()
    }
}

/// The strides the paper sweeps for CPU array tests.
const CPU_STRIDES: [u32; 4] = [1, 4, 8, 16];
/// The strides the paper shows for GPU array tests.
const GPU_STRIDES: [u32; 2] = [1, 32];

/// Per-point sweep metadata, waiting to be zipped back with its
/// measurement.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    threads: u32,
    blocks: u32,
    stride: u32,
    dtype: Option<DType>,
    affinity: Affinity,
}

fn push_record(store: &mut ResultsStore, name: &str, g: GridPoint, m: &syncperf_core::Measurement) {
    store.push(RunRecord {
        test: name.to_string(),
        threads: g.threads,
        blocks: g.blocks,
        stride: g.stride,
        dtype: g.dtype,
        affinity: g.affinity,
        runtime_ns: m.runtime_seconds() * 1e9,
        throughput: m.throughput_clamped(1e-10),
    });
}

/// Measures an accumulated grid in one [`measure_jobs`] call and
/// records each point.
fn run_grid(
    store: &mut ResultsStore,
    name: &str,
    jobs: Vec<JobSpec>,
    grid: Vec<GridPoint>,
) -> Result<()> {
    for (g, m) in grid.into_iter().zip(measure_jobs(jobs)?) {
        push_record(store, name, g, &m);
    }
    Ok(())
}

fn cpu_job(sys: &SystemSpec, k: &CpuKernel, threads: u32, affinity: Affinity) -> JobSpec {
    let params = ExecParams::new(threads)
        .with_affinity(affinity)
        .with_loops(1000, 100);
    JobSpec::cpu_sim(sys, k.clone(), params, Protocol::PAPER)
}

fn cpu_scalar_code(
    sys: &SystemSpec,
    store: &mut ResultsStore,
    name: &str,
    affinity: Affinity,
    make: fn(DType) -> CpuKernel,
) -> Result<()> {
    let mut jobs = Vec::new();
    let mut grid = Vec::new();
    for dt in DType::ALL {
        let k = make(dt);
        for threads in sys.cpu.omp_thread_counts() {
            jobs.push(cpu_job(sys, &k, threads, affinity));
            grid.push(GridPoint {
                threads,
                blocks: 1,
                stride: 0,
                dtype: Some(dt),
                affinity,
            });
        }
    }
    run_grid(store, name, jobs, grid)
}

fn cpu_array_code(
    sys: &SystemSpec,
    store: &mut ResultsStore,
    name: &str,
    affinity: Affinity,
    make: fn(DType, u32) -> CpuKernel,
) -> Result<()> {
    let mut jobs = Vec::new();
    let mut grid = Vec::new();
    for stride in CPU_STRIDES {
        for dt in DType::ALL {
            let k = make(dt, stride);
            for threads in sys.cpu.omp_thread_counts() {
                jobs.push(cpu_job(sys, &k, threads, affinity));
                grid.push(GridPoint {
                    threads,
                    blocks: 1,
                    stride,
                    dtype: Some(dt),
                    affinity,
                });
            }
        }
    }
    run_grid(store, name, jobs, grid)
}

fn gpu_job(sys: &SystemSpec, k: &GpuKernel, blocks: u32, threads: u32) -> JobSpec {
    let params = ExecParams::new(threads)
        .with_blocks(blocks)
        .with_loops(1000, 100);
    JobSpec::gpu_sim(sys, k.clone(), params, Protocol::PAPER)
}

fn gpu_code(
    sys: &SystemSpec,
    store: &mut ResultsStore,
    name: &str,
    dtypes: &[Option<DType>],
    strides: &[u32],
    make: fn(Option<DType>, u32) -> GpuKernel,
) -> Result<()> {
    let mut jobs = Vec::new();
    let mut grid = Vec::new();
    for &stride in strides {
        for &dt in dtypes {
            let k = make(dt, stride);
            for blocks in sys.gpu.block_count_sweep() {
                for threads in sys.gpu.thread_count_sweep() {
                    jobs.push(gpu_job(sys, &k, blocks, threads));
                    grid.push(GridPoint {
                        threads,
                        blocks,
                        stride,
                        dtype: dt,
                        affinity: Affinity::SystemChoice,
                    });
                }
            }
        }
    }
    run_grid(store, name, jobs, grid)
}

const ALL_DT: [Option<DType>; 4] = [
    Some(DType::I32),
    Some(DType::U64),
    Some(DType::F32),
    Some(DType::F64),
];
const INT_DT: [Option<DType>; 2] = [Some(DType::I32), Some(DType::U64)];
const NO_DT: [Option<DType>; 1] = [None];

/// Every test code, in artifact order (OpenMP first, then CUDA).
#[must_use]
pub fn registry() -> Vec<TestCode> {
    vec![
        TestCode {
            name: "omp_barrier",
            api: Api::OpenMp,
            run: |sys, store| {
                let k = kernel::omp_barrier();
                let mut jobs = Vec::new();
                let mut grid = Vec::new();
                for threads in sys.cpu.omp_thread_counts() {
                    jobs.push(cpu_job(sys, &k, threads, Affinity::Spread));
                    grid.push(GridPoint {
                        threads,
                        blocks: 1,
                        stride: 0,
                        dtype: None,
                        affinity: Affinity::Spread,
                    });
                }
                run_grid(store, "omp_barrier", jobs, grid)
            },
        },
        TestCode {
            name: "omp_atomicadd_scalar",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_scalar_code(
                    sys,
                    store,
                    "omp_atomicadd_scalar",
                    Affinity::SystemChoice,
                    kernel::omp_atomic_update_scalar,
                )
            },
        },
        TestCode {
            name: "omp_atomicadd_array",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_array_code(
                    sys,
                    store,
                    "omp_atomicadd_array",
                    Affinity::SystemChoice,
                    kernel::omp_atomic_update_array,
                )
            },
        },
        TestCode {
            name: "omp_atomiccapture_scalar",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_scalar_code(
                    sys,
                    store,
                    "omp_atomiccapture_scalar",
                    Affinity::SystemChoice,
                    kernel::omp_atomic_capture_scalar,
                )
            },
        },
        TestCode {
            name: "omp_atomicwrite",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_scalar_code(
                    sys,
                    store,
                    "omp_atomicwrite",
                    Affinity::SystemChoice,
                    kernel::omp_atomic_write,
                )
            },
        },
        TestCode {
            name: "omp_atomicread",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_scalar_code(
                    sys,
                    store,
                    "omp_atomicread",
                    Affinity::SystemChoice,
                    kernel::omp_atomic_read,
                )
            },
        },
        TestCode {
            name: "omp_critical",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_scalar_code(
                    sys,
                    store,
                    "omp_critical",
                    Affinity::Spread,
                    kernel::omp_critical_add,
                )
            },
        },
        TestCode {
            name: "omp_flush",
            api: Api::OpenMp,
            run: |sys, store| {
                cpu_array_code(sys, store, "omp_flush", Affinity::Close, kernel::omp_flush)
            },
        },
        TestCode {
            name: "cuda_syncthreads",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(sys, store, "cuda_syncthreads", &NO_DT, &[0], |_, _| {
                    kernel::cuda_syncthreads()
                })
            },
        },
        TestCode {
            name: "cuda_syncwarp",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(sys, store, "cuda_syncwarp", &NO_DT, &[0], |_, _| {
                    kernel::cuda_syncwarp()
                })
            },
        },
        TestCode {
            name: "cuda_atomicadd_scalar",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_atomicadd_scalar",
                    &ALL_DT,
                    &[0],
                    |dt, _| kernel::cuda_atomic_add_scalar(dt.expect("dtype")),
                )
            },
        },
        TestCode {
            name: "cuda_atomicadd_array",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_atomicadd_array",
                    &ALL_DT,
                    &GPU_STRIDES,
                    |dt, s| kernel::cuda_atomic_add_array(dt.expect("dtype"), s),
                )
            },
        },
        TestCode {
            name: "cuda_atomiccas_scalar",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_atomiccas_scalar",
                    &INT_DT,
                    &[0],
                    |dt, _| kernel::cuda_atomic_cas_scalar(dt.expect("dtype")),
                )
            },
        },
        TestCode {
            name: "cuda_atomiccas_array",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_atomiccas_array",
                    &INT_DT,
                    &GPU_STRIDES,
                    |dt, s| kernel::cuda_atomic_cas_array(dt.expect("dtype"), s),
                )
            },
        },
        TestCode {
            name: "cuda_atomicexch",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(sys, store, "cuda_atomicexch", &INT_DT, &[0], |dt, _| {
                    kernel::cuda_atomic_exch(dt.expect("dtype"))
                })
            },
        },
        TestCode {
            name: "cuda_threadfence",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_threadfence",
                    &ALL_DT,
                    &GPU_STRIDES,
                    |dt, s| kernel::cuda_threadfence(Scope::Device, dt.expect("dtype"), s),
                )
            },
        },
        TestCode {
            name: "cuda_threadfence_block",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_threadfence_block",
                    &INT_DT,
                    &GPU_STRIDES,
                    |dt, s| kernel::cuda_threadfence(Scope::Block, dt.expect("dtype"), s),
                )
            },
        },
        TestCode {
            name: "cuda_threadfence_system",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(
                    sys,
                    store,
                    "cuda_threadfence_system",
                    &INT_DT,
                    &[1],
                    |dt, s| kernel::cuda_threadfence(Scope::System, dt.expect("dtype"), s),
                )
            },
        },
        TestCode {
            name: "cuda_shfl",
            api: Api::Cuda,
            run: |sys, store| {
                gpu_code(sys, store, "cuda_shfl", &ALL_DT, &[0], |dt, _| {
                    kernel::cuda_shfl(dt.expect("dtype"), ShflVariant::Idx)
                })
            },
        },
        TestCode {
            name: "cuda_vote",
            api: Api::Cuda,
            run: |sys, store| {
                let mut jobs = Vec::new();
                let mut grid = Vec::new();
                for kind in [VoteKind::Ballot, VoteKind::All, VoteKind::Any] {
                    let k = kernel::cuda_vote(kind);
                    for blocks in sys.gpu.block_count_sweep() {
                        for threads in sys.gpu.thread_count_sweep() {
                            jobs.push(gpu_job(sys, &k, blocks, threads));
                            grid.push(GridPoint {
                                threads,
                                blocks,
                                stride: 0,
                                dtype: None,
                                affinity: Affinity::SystemChoice,
                            });
                        }
                    }
                }
                run_grid(store, "cuda_vote", jobs, grid)
            },
        },
    ]
}

/// One concrete kernel a registry code sweeps (either API).
#[derive(Debug, Clone)]
pub enum AnyKernel {
    /// An OpenMP (CPU) kernel.
    Cpu(CpuKernel),
    /// A CUDA (GPU) kernel.
    Gpu(GpuKernel),
}

impl AnyKernel {
    /// The kernel's own name (e.g. `omp_atomicadd_scalar_int`).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            AnyKernel::Cpu(k) => &k.name,
            AnyKernel::Gpu(k) => &k.name,
        }
    }
}

/// One auditable kernel instance: which registry code sweeps it, plus
/// the kernel itself.
#[derive(Debug, Clone)]
pub struct KernelInstance {
    /// The owning registry code's name (e.g. `omp_atomicadd_scalar`).
    pub code: &'static str,
    /// The concrete kernel.
    pub kernel: AnyKernel,
}

/// Every concrete kernel the registry sweeps, one instance per
/// `(code, dtype, stride, variant)` grid point — the audit surface for
/// the `sync_lint` tool. Mirrors the grids in [`registry`] exactly.
#[must_use]
pub fn kernel_inventory() -> Vec<KernelInstance> {
    let mut inv = Vec::new();
    let mut cpu = |code: &'static str, k: CpuKernel| {
        inv.push(KernelInstance {
            code,
            kernel: AnyKernel::Cpu(k),
        });
    };
    cpu("omp_barrier", kernel::omp_barrier());
    for dt in DType::ALL {
        cpu("omp_atomicadd_scalar", kernel::omp_atomic_update_scalar(dt));
        cpu(
            "omp_atomiccapture_scalar",
            kernel::omp_atomic_capture_scalar(dt),
        );
        cpu("omp_atomicwrite", kernel::omp_atomic_write(dt));
        cpu("omp_atomicread", kernel::omp_atomic_read(dt));
        cpu("omp_critical", kernel::omp_critical_add(dt));
        for stride in CPU_STRIDES {
            cpu(
                "omp_atomicadd_array",
                kernel::omp_atomic_update_array(dt, stride),
            );
            cpu("omp_flush", kernel::omp_flush(dt, stride));
        }
    }
    let mut gpu = |code: &'static str, k: GpuKernel| {
        inv.push(KernelInstance {
            code,
            kernel: AnyKernel::Gpu(k),
        });
    };
    gpu("cuda_syncthreads", kernel::cuda_syncthreads());
    gpu("cuda_syncwarp", kernel::cuda_syncwarp());
    for dt in DType::ALL {
        gpu("cuda_atomicadd_scalar", kernel::cuda_atomic_add_scalar(dt));
        gpu("cuda_shfl", kernel::cuda_shfl(dt, ShflVariant::Idx));
        for stride in GPU_STRIDES {
            gpu(
                "cuda_atomicadd_array",
                kernel::cuda_atomic_add_array(dt, stride),
            );
            gpu(
                "cuda_threadfence",
                kernel::cuda_threadfence(Scope::Device, dt, stride),
            );
        }
    }
    for dt in [DType::I32, DType::U64] {
        gpu("cuda_atomiccas_scalar", kernel::cuda_atomic_cas_scalar(dt));
        gpu("cuda_atomicexch", kernel::cuda_atomic_exch(dt));
        for stride in GPU_STRIDES {
            gpu(
                "cuda_atomiccas_array",
                kernel::cuda_atomic_cas_array(dt, stride),
            );
            gpu(
                "cuda_threadfence_block",
                kernel::cuda_threadfence(Scope::Block, dt, stride),
            );
        }
        gpu(
            "cuda_threadfence_system",
            kernel::cuda_threadfence(Scope::System, dt, 1),
        );
    }
    for kind in [VoteKind::Ballot, VoteKind::All, VoteKind::Any] {
        gpu("cuda_vote", kernel::cuda_vote(kind));
    }
    inv
}

/// Looks up codes by selector: `all`, `openmp`, `cuda`, or an exact
/// test name.
///
/// # Errors
///
/// Returns [`syncperf_core::SyncPerfError::InvalidParams`] for an
/// unknown selector.
pub fn select(selector: &str) -> Result<Vec<TestCode>> {
    let all = registry();
    let picked: Vec<TestCode> = match selector {
        "all" => all,
        "openmp" => all.into_iter().filter(|c| c.api == Api::OpenMp).collect(),
        "cuda" => all.into_iter().filter(|c| c.api == Api::Cuda).collect(),
        name => {
            let picked: Vec<TestCode> = all.into_iter().filter(|c| c.name == name).collect();
            if picked.is_empty() {
                return Err(syncperf_core::SyncPerfError::InvalidParams(format!(
                    "unknown test code `{name}` (try `all`, `openmp`, `cuda`, or one of the \
                     names listed by `launch list`)"
                )));
            }
            picked
        }
    };
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::SYSTEM3;

    #[test]
    fn registry_covers_both_apis() {
        let all = registry();
        assert_eq!(all.len(), 20);
        assert_eq!(all.iter().filter(|c| c.api == Api::OpenMp).count(), 8);
        assert_eq!(all.iter().filter(|c| c.api == Api::Cuda).count(), 12);
        // Unique names.
        let mut names: Vec<_> = all.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn select_by_api_and_name() {
        assert_eq!(select("openmp").unwrap().len(), 8);
        assert_eq!(select("cuda").unwrap().len(), 12);
        assert_eq!(select("omp_barrier").unwrap().len(), 1);
        assert!(select("nonexistent_code").is_err());
    }

    #[test]
    fn barrier_code_populates_store() {
        let code = select("omp_barrier").unwrap().remove(0);
        let mut store = ResultsStore::new("test");
        (code.run)(&SYSTEM3, &mut store).unwrap();
        // One record per thread count 2..=32.
        assert_eq!(store.len(), 31);
        assert!(store.records().iter().all(|r| r.test == "omp_barrier"));
        assert!(store.records().iter().all(|r| r.throughput > 0.0));
    }

    #[test]
    fn inventory_covers_every_registry_code() {
        let inv = kernel_inventory();
        let mut inv_codes: Vec<&str> = inv.iter().map(|i| i.code).collect();
        inv_codes.sort_unstable();
        inv_codes.dedup();
        let mut reg: Vec<&str> = registry().iter().map(|c| c.name).collect();
        reg.sort_unstable();
        assert_eq!(
            inv_codes, reg,
            "inventory and registry must cover the same codes"
        );
        // Kernel names are unique across the whole inventory.
        let mut names: Vec<String> = inv.iter().map(|i| i.kernel.name().to_string()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate kernel instance");
    }

    #[test]
    fn cas_code_uses_integer_types_only() {
        let code = select("cuda_atomiccas_scalar").unwrap().remove(0);
        let mut store = ResultsStore::new("test");
        (code.run)(&SYSTEM3, &mut store).unwrap();
        assert!(store
            .records()
            .iter()
            .all(|r| matches!(r.dtype, Some(DType::I32 | DType::U64))));
        // 2 dtypes × 5 block counts × 11 thread counts.
        assert_eq!(store.len(), 110);
    }
}
