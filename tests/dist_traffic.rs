//! Which jobs of a cold `all_figures` a dist coordinator sends to its
//! fleet. A job travels as the `/compute` body that names it, so it
//! travels exactly when serve's resolver rebuilds it from that body;
//! the rest run on the coordinator (`dist.local_jobs`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use syncperf_bench::serving;
use syncperf_sched::{
    execute_job_with_retry_primed, install, job_hash_with_salt, uninstall, BackendExec, JobSpec,
    SchedConfig, Scheduler,
};
use syncperf_serve::{shard_item, ComputeRequest};

/// Every distinct job a cold `all_figures` run submits (its tables
/// included, as the binary prints them), by content hash under the
/// default salt. The jobs run on an execution backend that records
/// them and runs each batch as the coordinator runs its local work.
fn cold_all_figures_jobs() -> BTreeMap<u64, JobSpec> {
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let sched = install(Scheduler::new(SchedConfig::new(1).without_cache()));
    let log = Arc::clone(&seen);
    sched.set_exec_backend(move |todo: &[(usize, JobSpec, u64)]| {
        let mut log = log.lock().unwrap();
        for (_, job, hash) in todo {
            log.insert(*hash, job.clone());
        }
        let refs: Vec<&JobSpec> = todo.iter().map(|(_, job, _)| job).collect();
        let primed = JobSpec::prime_groups(&refs);
        todo.iter()
            .zip(&primed)
            .map(|(&(index, ref job, hash), pe)| BackendExec {
                index,
                hash,
                result: execute_job_with_retry_primed(job, hash, pe.as_ref(), |_| {}),
                stored: false,
            })
            .collect()
    });
    let outcome = syncperf_bench::tables::listing1_report(&syncperf_core::SYSTEM3)
        .and_then(|_| syncperf_bench::all_figures());
    uninstall();
    outcome.expect("every figure generates");
    let jobs = std::mem::take(&mut *seen.lock().unwrap());
    jobs
}

#[test]
fn a_cold_sweep_sends_exactly_the_jobs_the_resolver_rebuilds() {
    let jobs = cold_all_figures_jobs();
    let resolver = serving::default_resolver();
    let mut local: BTreeMap<String, usize> = BTreeMap::new();
    for (&hash, job) in &jobs {
        assert_eq!(hash, job_hash_with_salt(job, 0));
        let req = ComputeRequest::of(job);
        let rebuilt = serving::resolve(&req).map(|j| job_hash_with_salt(&j, 0));
        let Some(wire) = syncperf_dist::wire_request(job, &resolver) else {
            assert_ne!(
                rebuilt,
                Some(hash),
                "{req:?} rebuilds its job but stays local"
            );
            *local.entry(job.kernel_name().to_string()).or_default() += 1;
            continue;
        };
        assert_eq!(wire, req);
        assert_eq!(
            rebuilt,
            Some(hash),
            "{req:?} travels but rebuilds another job"
        );
        // The shard item's `job` is a `/compute` body.
        let item = shard_item(hash, &req);
        let body = item
            .split_once(",\"job\":")
            .and_then(|(_, rest)| rest.strip_suffix('}'))
            .expect("an item is {\"hash\":..,\"job\":..}");
        assert_eq!(ComputeRequest::from_json(body), Ok(req), "{item}");
    }

    // What stays local is the kernels outside the `/compute` registry:
    // the five scalar atomics `exp_cuda_atomic_ops` adds to the paper's
    // set, at each of its 11 points, and the six kernels of
    // `exp_cuda_divergence`, at one point each.
    let mut want: BTreeMap<String, usize> = ["And", "Min", "Or", "Sub", "Xor"]
        .iter()
        .map(|op| (format!("cuda_atomic{op}_scalar_int"), 11))
        .collect();
    for paths in [1, 2, 4, 8, 16, 32] {
        want.insert(format!("cuda_divergence_int_p{paths}"), 1);
    }
    assert_eq!(local, want);
    let stayed: usize = local.values().sum();
    assert_eq!(stayed, 61);
    assert_eq!(
        jobs.len() - stayed,
        3_105,
        "of {} distinct jobs",
        jobs.len()
    );
}
