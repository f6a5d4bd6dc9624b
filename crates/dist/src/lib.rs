//! Distributed sweep execution for syncperf.
//!
//! This crate turns a single-process sweep into a coordinator plus N
//! worker processes connected over a length-prefixed TCP protocol
//! (std-only — no external dependencies), while keeping the output
//! **byte-identical** to a serial `--jobs N` run:
//!
//! - [`frame`] — the wire framing: one type byte, a little-endian u32
//!   length, and a payload; eight frame kinds cover handshake, batches,
//!   results, shard completion, and liveness.
//! - [`codec`] — a total JSON encoding of [`syncperf_sched::JobSpec`]
//!   for the simulator job families; jobs that cannot travel (real
//!   OpenMP threads, model overrides) stay on the coordinator.
//! - [`worker`] — batch-primes each same-shape group it receives, then
//!   executes assigned shards job-by-job, streaming each result back as
//!   raw cache-entry bytes, heartbeating while idle.
//! - [`coordinator`] — partitions cache misses into hash-range shards,
//!   merges results exactly-once (content-hash dedup), feeds idle
//!   workers from a backlog it also drains itself, reissues shards of
//!   dead or silent workers, and runs locally anything a worker cannot
//!   deliver — every coordinator-side job through one batch-primed path.
//!
//! Determinism is carried end to end: a job's content hash (salted,
//! see [`syncperf_sched::job_hash_with_salt`]) seeds its execution on
//! whichever process runs it, the worker re-verifies the hash before
//! executing, and the coordinator re-validates every returned entry
//! with the same self-validating decode a local cache load uses. The
//! scheduler keeps ownership of cache consultation, checkpointing, and
//! the index-ordered merge, so a distributed run — even one where a
//! worker was SIGKILLed mid-shard — converges to the same bytes as an
//! undisturbed serial run.

pub mod codec;
pub mod coordinator;
pub mod frame;
pub mod worker;

pub use codec::{decode_job, encode_job};
pub use coordinator::{Coordinator, DistConfig, DistStats};
pub use frame::{read_frame, write_frame, FrameType, MAX_FRAME, PROTO_VERSION};
pub use worker::{run_connect, run_listen, serve_stream};
