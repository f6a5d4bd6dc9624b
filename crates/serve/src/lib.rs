//! # syncperf-serve
//!
//! A long-lived measurement query service over the syncperf
//! content-addressed result cache. Zero external dependencies — the
//! front end is a nonblocking readiness-driven event loop (one
//! reactor thread over a std-only `epoll` poller, [`reactor`])
//! feeding a bounded blocking compute pool, matching the std-only
//! discipline of the obs, analyze, and sched crates.
//!
//! Endpoints:
//!
//! - `GET /job/<hash>` — the cached measurement for a 16-hex-digit
//!   content hash, byte-identical to the on-disk cache entry.
//! - `GET /query?kernel=..&threads=..[&dtype=..][&blocks=..][&exact=1]`
//!   — the exact or nearest cached sweep point, from an in-memory
//!   index rebuilt at startup and updated incrementally on every
//!   cache store.
//! - `GET /figure/<name>[.csv|.svg]` — generated figure outputs from
//!   the results directory.
//! - `POST /compute` — compute-on-miss: the request resolves to a
//!   [`JobSpec`](syncperf_sched::JobSpec), and concurrent identical
//!   requests deduplicate onto a single scheduler job
//!   (single-writer-per-entry, [`inflight`]).
//! - `POST /batch` — one shard of a dist coordinator's sweep
//!   ([`syncperf_sched::codec`]), salt-checked, hash-verified and run
//!   by one scheduler `run_jobs` call; answers the raw cache entries.
//! - `GET /metrics` — the live telemetry snapshot (request counters,
//!   per-endpoint latency histograms, scheduler profile, index
//!   gauges) in Prometheus-style text exposition format.
//! - `GET /events?n=..` — the tail of the always-on flight-recorder
//!   ring as JSONL, for post-mortems and live debugging.
//! - `GET /stats`, `GET /healthz`, `POST /shutdown` — operations.
//!
//! Every connection is nonblocking: requests are parsed
//! incrementally ([`http::try_parse`]), each read/write phase
//! carries a deadline (slowloris peers are evicted, oversized heads
//! answered `431`), and accepts beyond the connection cap shed load
//! with `503 + Retry-After`. Several serve processes (replicas) may
//! share one cache directory: every writer stores the same bytes for
//! a hash, the corruption-tolerant loader treats a torn read as a
//! miss, and each replica's index picks up foreign writes via
//! periodic re-scan ([`Index::refresh`]), so any cached hash serves
//! byte-identically from every replica.
//!
//! The on-disk cache honours an optional LRU size budget
//! ([`ServeConfig::cache_bytes`]): eviction never removes an entry with a
//! live reader pin or an in-flight writer ([`index`]). Every request
//! is counted under `serve.*` obs counters and observed into
//! per-endpoint `serve.endpoint.<label>.latency_us` histograms, and
//! shutdown is graceful on SIGTERM or `/shutdown` — the reactor
//! drains, compute workers finish their current measurement, and all
//! threads join. The flight recorder auto-dumps to
//! `results/flightrec-<pid>.jsonl` on panic or SIGTERM.

pub mod http;
pub mod index;
pub mod inflight;
pub mod reactor;
pub mod server;

pub use http::{try_parse_response, ClientResponse, ParseFailure, ParseStep, Request, Response};
pub use index::{Index, Pin, Query, QueryMatch};
pub use inflight::{Claim, Inflight, OwnerGuard};
pub use server::{
    endpoint_label, install_sigterm_handler, metrics_endpoint, ComputeRequest, Resolver,
    ServeConfig, ServeStats, Server, ENDPOINT_LABELS,
};
