//! The artifact's test-code table.
//!
//! The paper's artifact ships one source file per measured primitive
//! (`./codes/omp/omp_atomicadd_scalar.cpp`, …) and a `launch.py` that
//! compiles and runs them across all parameters, writing
//! `results/<host>/<test>/runtimes.csv`. This module is the equivalent,
//! written as data: [`registry`] is one row per test code (its name,
//! API, the affinity the paper sweeps it at, and its kernel instances
//! in sweep order, each labelled with the dtype and stride its records
//! carry). [`TestCode::grid`] lowers a row to its parameter grid on a
//! [`Machine`], and [`sweep`] measures rows through [`measure_jobs`].
//! `launch`, `real_machine_sweep`, `explain`, [`kernel_inventory`] and
//! everything that reads the inventory (`sync_lint`, the serve
//! resolver) read this one table.

use std::sync::LazyLock;

use syncperf_core::{
    kernel, Affinity, CpuKernel, DType, ExecParams, GpuKernel, Protocol, Result, ResultsStore,
    RunRecord, Scope, ShflVariant, SyncPerfError, SystemSpec, VoteKind,
};
use syncperf_cpu_sim::{CpuModel, CpuSimExecutor, Placement};
use syncperf_gpu_sim::{GpuModel, Occupancy};
use syncperf_sched::JobSpec;

use crate::common::{max_real_threads, measure_jobs, paper_loops, protocol};

/// Which API a test code exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// OpenMP (CPU) codes.
    OpenMp,
    /// CUDA (GPU) codes.
    Cuda,
}

/// One test code: a row of the artifact table.
#[derive(Debug, Clone)]
pub struct TestCode {
    /// Artifact-style name, e.g. `omp_atomicadd_scalar`.
    pub name: &'static str,
    /// Which API it belongs to.
    pub api: Api,
    /// The thread placement the paper sweeps it at (`SystemChoice` for
    /// CUDA codes, where placement does not apply).
    pub affinity: Affinity,
    /// Its kernel instances, in sweep order.
    pub instances: Vec<KernelInstance>,
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

impl From<CpuKernel> for AnyKernel {
    fn from(k: CpuKernel) -> Self {
        AnyKernel::Cpu(k)
    }
}

impl From<GpuKernel> for AnyKernel {
    fn from(k: GpuKernel) -> Self {
        AnyKernel::Gpu(k)
    }
}

/// One kernel instance of a test code: the kernel plus the labels its
/// records carry.
#[derive(Debug, Clone)]
pub struct KernelInstance {
    /// The owning registry code's name (e.g. `omp_atomicadd_scalar`).
    pub code: &'static str,
    /// The data type (`None` for type-less primitives like barriers).
    pub dtype: Option<DType>,
    /// The array stride in elements (0 when not applicable).
    pub stride: u32,
    /// The concrete kernel.
    pub kernel: AnyKernel,
}

/// Where a code's grid is measured.
#[derive(Debug, Clone, Copy)]
pub enum Machine<'a> {
    /// The simulators for a system, at the paper's loops and protocol:
    /// OpenMP codes over the system's thread counts, CUDA codes over
    /// its block counts and then its thread-per-block counts.
    Simulated(&'a SystemSpec),
    /// This host's real threads, 2 ..= [`max_real_threads`]. Each point
    /// runs `params` with its thread count and the code's affinity.
    /// OpenMP codes only.
    Host {
        /// The measurement protocol.
        protocol: Protocol,
        /// Loop counts and warm-up for every point.
        params: ExecParams,
    },
}

/// A table row; its API follows from its kernels, and each instance
/// is stamped with its name.
fn code(name: &'static str, affinity: Affinity, mut instances: Vec<KernelInstance>) -> TestCode {
    let api = match instances[0].kernel {
        AnyKernel::Cpu(_) => Api::OpenMp,
        AnyKernel::Gpu(_) => Api::Cuda,
    };
    for inst in &mut instances {
        inst.code = name;
    }
    TestCode {
        name,
        api,
        affinity,
        instances,
    }
}

/// `make` over `strides` × `dtypes`, stride outermost: the artifact's
/// sweep order.
fn strided<K: Into<AnyKernel>>(
    strides: &[u32],
    dtypes: &[DType],
    make: impl Fn(DType, u32) -> K,
) -> Vec<KernelInstance> {
    let mut instances = Vec::with_capacity(strides.len() * dtypes.len());
    for &stride in strides {
        for &dt in dtypes {
            let kernel = make(dt, stride).into();
            instances.push(KernelInstance {
                code: "",
                dtype: Some(dt),
                stride,
                kernel,
            });
        }
    }
    instances
}

/// `make` over `dtypes`, at stride 0.
fn scalar<K: Into<AnyKernel>>(dtypes: &[DType], make: impl Fn(DType) -> K) -> Vec<KernelInstance> {
    strided(&[0], dtypes, |dt, _| make(dt))
}

/// Type-less, stride-less kernels.
fn untyped<K: Into<AnyKernel>>(kernels: impl IntoIterator<Item = K>) -> Vec<KernelInstance> {
    let instance = |k: K| KernelInstance {
        code: "",
        dtype: None,
        stride: 0,
        kernel: k.into(),
    };
    kernels.into_iter().map(instance).collect()
}

/// Every test code, in artifact order (OpenMP first, then CUDA). The
/// table is built once per process.
#[must_use]
pub fn registry() -> &'static [TestCode] {
    static TABLE: LazyLock<Vec<TestCode>> = LazyLock::new(table);
    &TABLE
}

/// The table's rows. CPU arrays sweep strides 1, 4, 8 and 16; GPU
/// arrays show 1 and 32.
fn table() -> Vec<TestCode> {
    use Affinity::{Close, Spread, SystemChoice as System};
    use VoteKind::{All, Any, Ballot};
    let (all, int) = (&DType::ALL, &[DType::I32, DType::U64]);
    let (cpu, gpu) = (&[1, 4, 8, 16], &[1, 32]);
    let fence = |scope| move |dt, s| kernel::cuda_threadfence(scope, dt, s);
    vec![
        code("omp_barrier", Spread, untyped([kernel::omp_barrier()])),
        code(
            "omp_atomicadd_scalar",
            System,
            scalar(all, kernel::omp_atomic_update_scalar),
        ),
        code(
            "omp_atomicadd_array",
            System,
            strided(cpu, all, kernel::omp_atomic_update_array),
        ),
        code(
            "omp_atomiccapture_scalar",
            System,
            scalar(all, kernel::omp_atomic_capture_scalar),
        ),
        code(
            "omp_atomicwrite",
            System,
            scalar(all, kernel::omp_atomic_write),
        ),
        code(
            "omp_atomicread",
            System,
            scalar(all, kernel::omp_atomic_read),
        ),
        code(
            "omp_critical",
            Spread,
            scalar(all, kernel::omp_critical_add),
        ),
        code("omp_flush", Close, strided(cpu, all, kernel::omp_flush)),
        code(
            "cuda_syncthreads",
            System,
            untyped([kernel::cuda_syncthreads()]),
        ),
        code("cuda_syncwarp", System, untyped([kernel::cuda_syncwarp()])),
        code(
            "cuda_atomicadd_scalar",
            System,
            scalar(all, kernel::cuda_atomic_add_scalar),
        ),
        code(
            "cuda_atomicadd_array",
            System,
            strided(gpu, all, kernel::cuda_atomic_add_array),
        ),
        code(
            "cuda_atomiccas_scalar",
            System,
            scalar(int, kernel::cuda_atomic_cas_scalar),
        ),
        code(
            "cuda_atomiccas_array",
            System,
            strided(gpu, int, kernel::cuda_atomic_cas_array),
        ),
        code(
            "cuda_atomicexch",
            System,
            scalar(int, kernel::cuda_atomic_exch),
        ),
        code(
            "cuda_threadfence",
            System,
            strided(gpu, all, fence(Scope::Device)),
        ),
        code(
            "cuda_threadfence_block",
            System,
            strided(gpu, int, fence(Scope::Block)),
        ),
        code(
            "cuda_threadfence_system",
            System,
            strided(&[1], int, fence(Scope::System)),
        ),
        code(
            "cuda_shfl",
            System,
            scalar(all, |dt| kernel::cuda_shfl(dt, ShflVariant::Idx)),
        ),
        code(
            "cuda_vote",
            System,
            untyped([Ballot, All, Any].map(kernel::cuda_vote)),
        ),
    ]
}

impl TestCode {
    /// Lowers the code to its grid on `machine`: every instance in
    /// sweep order, at every block count and then every thread count,
    /// with the job that measures it there.
    ///
    /// # Errors
    ///
    /// Returns [`SyncPerfError::InvalidParams`] for a CUDA code on the
    /// host, which has no real-GPU executor.
    pub fn grid(&self, machine: Machine<'_>) -> Result<Vec<(&KernelInstance, JobSpec)>> {
        let (blocks, threads, base) = match (machine, self.api) {
            (Machine::Simulated(sys), Api::OpenMp) => {
                (vec![1], sys.cpu.omp_thread_counts(), paper_loops(1))
            }
            (Machine::Simulated(sys), Api::Cuda) => {
                let (blocks, threads) = (sys.gpu.block_count_sweep(), sys.gpu.thread_count_sweep());
                (blocks, threads, paper_loops(1))
            }
            (Machine::Host { params, .. }, _) => {
                (vec![1], (2..=max_real_threads().max(2)).collect(), params)
            }
        };
        let mut grid = Vec::new();
        for inst in &self.instances {
            for &b in &blocks {
                for &t in &threads {
                    let params = ExecParams {
                        threads: t,
                        blocks: b,
                        affinity: self.affinity,
                        ..base
                    };
                    let job = match (machine, &inst.kernel) {
                        (Machine::Simulated(sys), AnyKernel::Cpu(k)) => {
                            JobSpec::cpu_sim(sys, k.clone(), params, protocol())
                        }
                        (Machine::Simulated(sys), AnyKernel::Gpu(k)) => {
                            JobSpec::gpu_sim(sys, k.clone(), params, protocol())
                        }
                        (Machine::Host { protocol, .. }, AnyKernel::Cpu(k)) => {
                            JobSpec::real_omp(k.clone(), params, protocol)
                        }
                        (Machine::Host { .. }, AnyKernel::Gpu(_)) => {
                            return Err(SyncPerfError::InvalidParams(format!(
                                "`{}` needs a GPU; the host runs OpenMP codes only",
                                self.name
                            )))
                        }
                    };
                    grid.push((inst, job));
                }
            }
        }
        Ok(grid)
    }

    /// Explains, op by op, where `inst`'s modeled test-body time goes
    /// on `system` at `threads` threads (per block, over `blocks`
    /// blocks for CUDA codes), placed at the code's affinity.
    ///
    /// # Errors
    ///
    /// Returns [`SyncPerfError::InvalidParams`] for parameters the
    /// code's simulator rejects (an OpenMP code runs one team, so
    /// `blocks` must be 1), and propagates the GPU explainer's errors.
    pub fn explain(
        &self,
        inst: &KernelInstance,
        system: &SystemSpec,
        threads: u32,
        blocks: u32,
    ) -> Result<String> {
        let params = ExecParams::new(threads).with_blocks(blocks);
        let (kernel, device, body) = match &inst.kernel {
            AnyKernel::Cpu(k) => {
                CpuSimExecutor::check(&params)?;
                let model = CpuModel::for_system(&system.cpu, system.cpu_jitter);
                let placement = Placement::new(&system.cpu, self.affinity, threads);
                let body = syncperf_cpu_sim::explain_body(&model, &placement, &k.test);
                (&k.name, &system.cpu.name, body)
            }
            AnyKernel::Gpu(k) => {
                params.validate()?;
                let occ = Occupancy::compute(&system.gpu, blocks, threads)?;
                let model = GpuModel::for_spec(&system.gpu);
                let body = syncperf_gpu_sim::explain::explain_body(&model, &occ, &k.test)?;
                (&k.name, &system.gpu.name, body)
            }
        };
        Ok(format!(
            "{kernel} (test body) on the simulated {device}:\n{body}"
        ))
    }
}

/// Sweeps each code's grid on `machine` in table order, one
/// [`measure_jobs`] call per code (so the flagless path continues one
/// jitter stream per code), into a store for `host` with one record
/// per point. `done` hears each code's point count, or the error that
/// stopped it; an error `done` returns ends the sweep.
///
/// # Errors
///
/// Returns the first error `done` returns.
pub fn sweep(
    codes: &[&TestCode],
    machine: Machine<'_>,
    host: &str,
    mut done: impl FnMut(&TestCode, Result<usize>) -> Result<()>,
) -> Result<ResultsStore> {
    let mut store = ResultsStore::new(host);
    for code in codes {
        let measured = code.grid(machine).and_then(|grid| {
            let (instances, jobs): (Vec<&KernelInstance>, Vec<JobSpec>) = grid.into_iter().unzip();
            let params: Vec<ExecParams> = jobs.iter().map(|job| *job.params()).collect();
            for ((inst, p), m) in instances.iter().zip(params).zip(measure_jobs(jobs)?) {
                store.push(RunRecord {
                    test: code.name.to_string(),
                    threads: p.threads,
                    blocks: p.blocks,
                    stride: inst.stride,
                    dtype: inst.dtype,
                    affinity: p.affinity,
                    runtime_ns: m.runtime_seconds() * 1e9,
                    throughput: m.throughput_clamped(1e-10),
                });
            }
            Ok(instances.len())
        });
        done(code, measured)?;
    }
    Ok(store)
}

/// Finds what `explain` reports on: the first instance, in table and
/// sweep order, of the code or kernel instance called `name` whose
/// labels match `dtype` and `stride` (`None` matches any).
#[must_use]
pub fn find_instance(
    name: &str,
    dtype: Option<DType>,
    stride: Option<u32>,
) -> Option<(&'static TestCode, &'static KernelInstance)> {
    registry().iter().find_map(|code| {
        let inst = code.instances.iter().find(|i| {
            (code.name == name || i.kernel.name() == name)
                && dtype.is_none_or(|d| i.dtype == Some(d))
                && stride.is_none_or(|s| i.stride == s)
        })?;
        Some((code, inst))
    })
}

/// Every kernel instance of the table, code by code in table order —
/// the audit surface for the `sync_lint` tool and the kernels the
/// serve resolver accepts.
#[must_use]
pub fn kernel_inventory() -> Vec<KernelInstance> {
    let instances = registry().iter().flat_map(|c| &c.instances);
    instances.cloned().collect()
}

/// Looks up codes by selector: `all`, `openmp`, `cuda`, or an exact
/// test name.
///
/// # Errors
///
/// Returns [`syncperf_core::SyncPerfError::InvalidParams`] for an
/// unknown selector.
pub fn select(selector: &str) -> Result<Vec<&'static TestCode>> {
    let picked: Vec<&TestCode> = registry()
        .iter()
        .filter(|c| match selector {
            "all" => true,
            "openmp" => c.api == Api::OpenMp,
            "cuda" => c.api == Api::Cuda,
            name => c.name == name,
        })
        .collect();
    if picked.is_empty() {
        return Err(SyncPerfError::InvalidParams(format!(
            "unknown test code `{selector}` (try `all`, `openmp`, `cuda`, or one of the \
             names listed by `launch list`)"
        )));
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::SYSTEM3;

    /// Sweeps one code on the simulated System 3.
    fn swept(name: &str) -> ResultsStore {
        let codes = select(name).unwrap();
        sweep(&codes, Machine::Simulated(&SYSTEM3), "test", |_, points| {
            points.map(drop)
        })
        .unwrap()
    }

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
        let store = swept("omp_barrier");
        // One record per thread count 2..=32.
        assert_eq!(store.len(), 31);
        assert!(store.records().iter().all(|r| r.test == "omp_barrier"));
        assert!(store.records().iter().all(|r| r.throughput > 0.0));
    }

    #[test]
    fn inventory_covers_every_registry_code() {
        let inv = kernel_inventory();
        assert_eq!(inv.len(), 96);
        // Kernel names are unique across the whole inventory.
        let mut names: Vec<String> = inv.iter().map(|i| i.kernel.name().to_string()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate kernel instance");
    }

    #[test]
    fn every_row_is_explainable() {
        for code in registry() {
            for inst in &code.instances {
                let by_name = find_instance(inst.kernel.name(), None, None).unwrap();
                assert_eq!(by_name.1.kernel.name(), inst.kernel.name());
                let (_, by_labels) =
                    find_instance(code.name, inst.dtype, Some(inst.stride)).unwrap();
                assert_eq!(
                    (by_labels.dtype, by_labels.stride),
                    (inst.dtype, inst.stride)
                );
                let blocks = match code.api {
                    Api::OpenMp => 1,
                    Api::Cuda => 2,
                };
                let report = code
                    .explain(inst, &SYSTEM3, 16, blocks)
                    .unwrap_or_else(|e| panic!("{}: {e}", inst.kernel.name()));
                assert!(report.starts_with(inst.kernel.name()), "{report}");
            }
        }
    }

    #[test]
    fn explain_rejects_zero_threads() {
        let code = &registry()[0];
        let err = code
            .explain(&code.instances[0], &SYSTEM3, 0, 2)
            .unwrap_err();
        assert!(err.to_string().contains("threads must be > 0"), "{err}");
        // An OpenMP code runs one team: blocks are the CUDA codes' axis.
        let omp = select("omp_barrier").unwrap()[0];
        let err = omp.explain(&omp.instances[0], &SYSTEM3, 16, 2).unwrap_err();
        assert!(err.to_string().contains("single team"), "{err}");
        assert!(omp.explain(&omp.instances[0], &SYSTEM3, 16, 1).is_ok());
    }

    #[test]
    fn host_machine_refuses_cuda_codes() {
        let code = select("cuda_shfl").unwrap()[0];
        let host = Machine::Host {
            protocol: Protocol::SIM,
            params: ExecParams::new(2),
        };
        assert!(code.grid(host).is_err());
        let omp = select("omp_flush").unwrap()[0];
        let grid = omp.grid(host).unwrap();
        assert!(grid
            .iter()
            .all(|(_, j)| j.params().affinity == Affinity::Close));
    }

    #[test]
    fn cas_code_uses_integer_types_only() {
        let store = swept("cuda_atomiccas_scalar");
        assert!(store
            .records()
            .iter()
            .all(|r| matches!(r.dtype, Some(DType::I32 | DType::U64))));
        // 2 dtypes × 5 block counts × 11 thread counts.
        assert_eq!(store.len(), 110);
    }
}
