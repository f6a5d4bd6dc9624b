//! # syncperf-sched
//!
//! Work-stealing sweep scheduler with a content-addressed result
//! cache and checkpoint manifests for the syncperf measurement harness.
//!
//! Three layers, bottom up:
//!
//! 1. **Job graph** ([`job`]): every sweep point (kernel × dtype ×
//!    thread/block count × affinity) is an independent [`JobSpec`]
//!    whose canonical form — executor kind, system, latency-model
//!    digest, full kernel body, parameters, protocol — is hashed with
//!    FNV-1a ([`hash`]) into a stable content hash.
//! 2. **Work-stealing pool** ([`pool`]): per-worker deques of
//!    same-shape job chunks, run by the calling thread plus helper
//!    threads kept for the pool's lifetime (`std::thread` only). Jobs
//!    seed their simulator's jitter RNG from their own content hash,
//!    so N-worker output is byte-identical to the 1-worker output.
//! 3. **Content-addressed cache** ([`cache`]) and **checkpoint
//!    manifests** ([`checkpoint`]): `results/.cache/<hash>.json`
//!    entries with bytes deterministic per hash, loaded
//!    corruption-tolerantly (a bad or torn entry is a miss, never a
//!    crash), plus per-run-label manifests of completed hashes. A
//!    rerun resumes from the cache itself.
//!
//! [`codec`] is a [`JobSpec`]'s wire form, the body of a `POST /batch`
//! shard a dist coordinator sends a serve replica.
//!
//! The [`scheduler`] module ties them together and exposes the
//! process-global [`install`]/[`current`] registry that the bench
//! crate's one measurement entry point reads; without an installed
//! scheduler it runs its jobs on the serial legacy path
//! ([`JobSpec::execute_serially`]), unchanged.
//!
//! The measurement protocol itself (Section IV of the paper: 9 runs ×
//! 7 attempts, median-of-medians differential timing) is untouched —
//! the scheduler only decides *which* jobs run, *where*, and *whether
//! a cached result already answers them*.

pub mod cache;
pub mod checkpoint;
pub mod codec;
pub mod hash;
pub mod job;
pub mod pool;
pub mod scheduler;

pub use cache::{decode_measurement, encode_measurement, Cache, EntryInfo};
pub use checkpoint::Checkpoint;
pub use codec::{
    batch_records, decode_job, decode_shard, encode_job, push_batch_record, shard_body, shard_item,
    ShardError,
};
pub use job::{host_fingerprint, JobSpec, PrimedEngine};
pub use pool::{Pool, PoolOutcome, PoolWorkerStats};
pub use scheduler::{
    current, execute_job_with_retry, execute_job_with_retry_primed, install, job_hash_with_salt,
    uninstall, BackendExec, ExecBackend, ExportHook, SchedConfig, SchedStats, Scheduler, StoreHook,
    MAX_EXECUTE_ATTEMPTS, SCHED_SALT,
};
