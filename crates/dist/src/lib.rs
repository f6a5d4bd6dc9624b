//! Distributed sweep execution for syncperf.
//!
//! A [`Coordinator`] runs a sweep's cache misses on a fleet of `serve`
//! replicas — typically on hosts whose cores the coordinator cannot
//! reach — while keeping the output **byte-identical** to a serial
//! `--jobs N` run. The fleet speaks the one network protocol the repo
//! has: each shard of misses travels as a `POST /batch` (see
//! `syncperf_serve`), its jobs in [`syncperf_sched::codec`]'s wire
//! form, and comes back as raw cache-entry bytes. Jobs that cannot
//! travel (real OpenMP threads, model overrides) stay on the
//! coordinator.
//!
//! The [`coordinator`] partitions cache misses into hash-range shards,
//! merges results exactly-once (content-hash dedup), feeds idle
//! replicas from a backlog it also drains itself, reissues the shards
//! of dead or silent replicas, and runs locally anything a replica
//! cannot deliver — every coordinator-side job through one
//! batch-primed path.
//!
//! Determinism is carried end to end: a job's content hash (salted,
//! see [`syncperf_sched::job_hash_with_salt`]) seeds its execution on
//! whichever process runs it, every shard carries the coordinator's
//! salt (a replica with another answers 409), the replica re-verifies
//! every hash before executing, and the coordinator re-validates every
//! returned entry with the same self-validating decode a local cache
//! load uses. The scheduler keeps ownership of cache consultation,
//! checkpointing, and the index-ordered merge, so a distributed run —
//! even one that lost a replica's connection mid-shard — converges to
//! the same bytes as an undisturbed serial run.

pub mod coordinator;

pub use coordinator::{Coordinator, DistConfig, DistStats};
