//! Bridges the query service ([`syncperf_serve`]) to the bench-side
//! kernel registry: resolving a [`ComputeRequest`] into a concrete
//! [`JobSpec`] requires the kernel bodies and system specs, which live
//! here rather than in the serve crate (serve stays registry-agnostic
//! and dependency-light).

use syncperf_core::{Affinity, SystemSpec, SYSTEM1, SYSTEM2, SYSTEM3};
use syncperf_sched::JobSpec;
use syncperf_serve::{ComputeRequest, Resolver};

use crate::codes::{registry, AnyKernel};
use crate::common::{paper_loops, protocol};

/// Parses a paper-facing affinity label (`spread`, `close`, `system`).
#[must_use]
pub fn parse_affinity(label: &str) -> Option<Affinity> {
    match label {
        "spread" => Some(Affinity::Spread),
        "close" => Some(Affinity::Close),
        "system" => Some(Affinity::SystemChoice),
        _ => None,
    }
}

/// The system a serve-side compute runs against. The service is a
/// sweep-cache front-end, and the paper's figures display System 3
/// unless otherwise noted, so that is the default; `system=1|2|3` in
/// the request selects explicitly.
#[must_use]
pub fn system_for(id: Option<u32>) -> Option<&'static SystemSpec> {
    match id {
        None | Some(3) => Some(&SYSTEM3),
        Some(1) => Some(&SYSTEM1),
        Some(2) => Some(&SYSTEM2),
        _ => None,
    }
}

/// Resolves one compute request against the kernels of the static
/// [`registry`]. Returns `None` for unknown kernels, executors,
/// affinity labels or systems — the service answers 422 for those.
#[must_use]
pub fn resolve(req: &ComputeRequest) -> Option<JobSpec> {
    let kernel = &registry()
        .iter()
        .flat_map(|code| &code.instances)
        .find(|inst| inst.kernel.name() == req.kernel)?
        .kernel;
    let mut params = paper_loops(req.threads);
    if let (Some(n_iter), Some(n_unroll)) = (req.n_iter, req.n_unroll) {
        params = params.with_loops(n_iter, n_unroll);
    }
    if let Some(blocks) = req.blocks {
        params = params.with_blocks(blocks);
    }
    if let Some(label) = &req.affinity {
        params = params.with_affinity(parse_affinity(label)?);
    }
    params.validate().ok()?;
    let system = system_for(req.system)?;
    match (req.executor.as_str(), kernel) {
        ("cpu-sim", AnyKernel::Cpu(k)) => {
            Some(JobSpec::cpu_sim(system, k.clone(), params, protocol()))
        }
        ("gpu-sim", AnyKernel::Gpu(k)) => {
            Some(JobSpec::gpu_sim(system, k.clone(), params, protocol()))
        }
        // Real-thread jobs are host-scoped (their hash embeds the host
        // fingerprint); serving them remotely would hand out results
        // that no other host could reproduce, so the service refuses.
        _ => None,
    }
}

/// The resolver closure [`syncperf_serve::ServeConfig`] wants.
#[must_use]
pub fn default_resolver() -> Resolver {
    Box::new(resolve)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(executor: &str, kernel: &str, threads: u32) -> ComputeRequest {
        ComputeRequest {
            executor: executor.into(),
            kernel: kernel.into(),
            threads,
            ..ComputeRequest::default()
        }
    }

    #[test]
    fn cpu_and_gpu_kernels_resolve() {
        let job = resolve(&request("cpu-sim", "omp_barrier", 8)).unwrap();
        assert_eq!(job.kernel_name(), "omp_barrier");
        assert_eq!(job.params().threads, 8);

        let mut req = request("gpu-sim", "cuda_syncthreads", 256);
        req.blocks = Some(4);
        let job = resolve(&req).unwrap();
        assert_eq!(job.kernel_name(), "cuda_syncthreads");
        assert_eq!(job.params().blocks, 4);
    }

    #[test]
    fn executor_kernel_mismatch_is_refused() {
        assert!(resolve(&request("gpu-sim", "omp_barrier", 8)).is_none());
        assert!(resolve(&request("cpu-sim", "cuda_syncthreads", 8)).is_none());
        assert!(resolve(&request("real-omp", "omp_barrier", 8)).is_none());
        assert!(resolve(&request("cpu-sim", "no_such_kernel", 8)).is_none());
    }

    #[test]
    fn affinity_and_loops_flow_into_params() {
        let mut req = request("cpu-sim", "omp_atomicadd_scalar_int", 4);
        req.affinity = Some("spread".into());
        req.n_iter = Some(500);
        req.n_unroll = Some(50);
        let job = resolve(&req).unwrap();
        assert_eq!(job.params().affinity, Affinity::Spread);
        assert_eq!(job.params().n_iter, 500);
        assert_eq!(job.params().n_unroll, 50);

        req.affinity = Some("bogus".into());
        assert!(resolve(&req).is_none());
    }

    #[test]
    fn the_system_field_selects_the_simulated_system() {
        let mut req = request("cpu-sim", "omp_barrier", 8);
        for (id, spec) in [(None, &SYSTEM3), (Some(1), &SYSTEM1), (Some(2), &SYSTEM2)] {
            req.system = id;
            let Some(JobSpec::CpuSim { system, .. }) = resolve(&req) else {
                panic!("system {id:?} resolves");
            };
            assert_eq!(system, *spec);
        }
        for bad in [0, 4] {
            req.system = Some(bad);
            assert!(resolve(&req).is_none(), "system {bad}");
        }
    }

    #[test]
    fn every_inventory_kernel_resolves_to_its_paper_job() {
        // The registry lookup builds, for every audited kernel instance,
        // the job a scan of the cloned inventory built.
        let inventory = crate::codes::kernel_inventory();
        assert_eq!(inventory.len(), 96);
        for inst in &inventory {
            let (executor, blocks) = match inst.kernel {
                AnyKernel::Cpu(_) => ("cpu-sim", None),
                AnyKernel::Gpu(_) => ("gpu-sim", Some(2)),
            };
            let mut req = request(executor, inst.kernel.name(), 8);
            req.blocks = blocks;
            let mut params = paper_loops(8);
            if let Some(b) = blocks {
                params = params.with_blocks(b);
            }
            // The first instance of a name is the one a lookup finds.
            let first = inventory
                .iter()
                .find(|k| k.kernel.name() == inst.kernel.name())
                .unwrap();
            let expected = match first.kernel.clone() {
                AnyKernel::Cpu(k) => JobSpec::cpu_sim(&SYSTEM3, k, params, protocol()),
                AnyKernel::Gpu(k) => JobSpec::gpu_sim(&SYSTEM3, k, params, protocol()),
            };
            assert_eq!(resolve(&req), Some(expected), "{}", inst.kernel.name());
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let a = resolve(&request("cpu-sim", "omp_barrier", 8)).unwrap();
        let b = resolve(&request("cpu-sim", "omp_barrier", 8)).unwrap();
        assert_eq!(a.canonical(), b.canonical());
    }
}
