//! Merge-correctness tests for the coordinator over `POST /batch`.
//!
//! Two rigs are used. The replica tests start in-process serve
//! replicas (`Server::start`) and drive them through
//! [`Coordinator::start`], as a figure binary's `--connect` does: a
//! fleet once plainly and once with a connection severed mid-batch, a
//! replica held by an idle peer, a replica that closes its connection
//! every 128 requests, a replica with another salt, and a dial that
//! cannot complete. The scripted tests answer the coordinator's
//! shards by hand, over plain HTTP, to force the merge edge cases a
//! healthy replica never produces: duplicate completion of the same
//! job hash, corrupt cache-entry bytes, an incomplete answer whose
//! reissue overlaps it, a replica that dies with a shard queued, and
//! failed shards the coordinator recomputes.

use std::collections::BTreeSet;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use syncperf_core::obs::{self, Snapshot};
use syncperf_core::{kernel, ExecParams, Protocol, SYSTEM3};
use syncperf_dist::{Coordinator, DistConfig, DistStats};
use syncperf_sched::{
    decode_shard, encode_measurement, execute_job_with_retry, job_hash_with_salt,
    push_batch_record, BackendExec, Cache, JobSpec, SchedConfig, Scheduler,
};
use syncperf_serve::http::{read_request, write_response};
use syncperf_serve::{Response, ServeConfig, Server};

/// `n` distinct simulator jobs, cheap enough to execute many times.
fn make_jobs(n: usize) -> Vec<(usize, JobSpec, u64)> {
    (0..n)
        .map(|i| {
            let job = JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_barrier(),
                ExecParams::new(i as u32 + 2).with_loops(20, 4),
                Protocol::SIM,
            );
            let hash = job_hash_with_salt(&job, 0);
            (i, job, hash)
        })
        .collect()
}

/// Nine same-shape CPU points plus one lone GPU job.
fn group_and_lone_gpu() -> Vec<(usize, JobSpec, u64)> {
    let mut todo = make_jobs(9);
    let gpu = JobSpec::gpu_sim(
        &SYSTEM3,
        kernel::cuda_syncthreads(),
        ExecParams::new(32).with_blocks(2).with_loops(20, 4),
        Protocol::SIM,
    );
    let hash = job_hash_with_salt(&gpu, 0);
    todo.push((9, gpu, hash));
    todo
}

/// Every index appears exactly once and every result is `Ok` — the
/// exactly-once merge invariant.
fn assert_exactly_once(out: &[BackendExec], n: usize) {
    assert_eq!(out.len(), n, "one BackendExec per submitted job");
    let indexes: BTreeSet<usize> = out.iter().map(|b| b.index).collect();
    assert_eq!(indexes.len(), n, "no index merged twice");
    for b in out {
        assert!(b.result.is_ok(), "job {} failed: {:?}", b.index, b.result);
    }
}

/// Executes the job exactly as a replica would and returns the
/// cache-entry bytes it would put on the wire.
fn real_entry(job: &JobSpec, hash: u64) -> String {
    let m = execute_job_with_retry(job, hash, |_| {}).unwrap();
    encode_measurement(hash, &m)
}

/// A fresh scratch directory.
fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "syncperf_dist_{tag}_{}_{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scheduler a coordinator attaches to: one worker, no cache, the
/// default salt.
fn coordinator_sched() -> Scheduler {
    Scheduler::new(SchedConfig::new(1).without_cache())
}

// ---- in-process replicas -------------------------------------------

/// One serve replica over its own results directory, as `serve --addr
/// 127.0.0.1:0` runs it, with `salt_extra` folded into its hashes.
/// Returns the server and its scheduler.
fn replica(dir: &std::path::Path, salt_extra: u64) -> (Server, Arc<Scheduler>) {
    replica_with(dir, salt_extra, |_| {})
}

/// [`replica`], with `tweak` applied to its serve config.
fn replica_with(
    dir: &std::path::Path,
    salt_extra: u64,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (Server, Arc<Scheduler>) {
    let sched = Arc::new(Scheduler::new(
        SchedConfig::new(1)
            .with_cache_dir(dir.join(".cache"))
            .with_salt_extra(salt_extra),
    ));
    let mut cfg = ServeConfig::new(Arc::clone(&sched), Box::new(|_| None));
    cfg.results_dir = dir.to_path_buf();
    tweak(&mut cfg);
    (Server::start(cfg).expect("replica starts"), sched)
}

/// `n` replicas under `dir`, with their addresses.
fn fleet(dir: &std::path::Path, n: usize) -> (Vec<Server>, Vec<Arc<Scheduler>>, Vec<String>) {
    let (servers, scheds): (Vec<_>, Vec<_>) = (0..n)
        .map(|i| replica(&dir.join(format!("r{i}")), 0))
        .unzip();
    let addrs = servers.iter().map(|s| s.addr().to_string()).collect();
    (servers, scheds, addrs)
}

/// Whether the replica at `addr` answers `GET /healthz`.
fn healthy(addr: &str) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut reply = String::new();
    let _ = s.read_to_string(&mut reply);
    reply.starts_with("HTTP/1.1 200")
}

#[test]
fn connect_fleet_merges_exactly_once_when_a_connection_is_severed() {
    // Sixty distinct jobs of at most 16 threads make fifteen 4-job
    // shards; each replica is sent two, so the first answer already
    // carries four results and the hook fires in the first batch.
    let todo: Vec<(usize, JobSpec, u64)> = (0..60)
        .map(|i| {
            let job = JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_barrier(),
                ExecParams::new(i as u32 % 15 + 2).with_loops(20 + i as u32 / 15, 4),
                Protocol::SIM,
            );
            let hash = job_hash_with_salt(&job, 0);
            (i, job, hash)
        })
        .collect();
    for chaos in [None, Some(3)] {
        let dir = tmp("fleet");
        let (servers, _, addrs) = fleet(&dir, 3);
        let mut cfg = DistConfig::new(addrs.clone());
        if let Some(k) = chaos {
            cfg = cfg.with_chaos_kill_one_after(k);
        }
        let sched = coordinator_sched();
        let coord = Coordinator::start(cfg, &sched).unwrap();
        // A sweep is many batches: the one after the death runs on the
        // two live replicas.
        for round in 0..2 {
            let out = coord.run_batch(&todo);
            assert_exactly_once(&out, todo.len());
            for (index, job, hash) in &todo {
                let got = out.iter().find(|b| b.index == *index).unwrap();
                assert_eq!(
                    encode_measurement(*hash, got.result.as_ref().unwrap()),
                    real_entry(job, *hash),
                    "job {index}, round {round}, chaos {chaos:?}"
                );
            }
        }
        let st = coord.stats();
        assert_eq!(st.workers, 3);
        assert!(st.results_received > 0, "the fleet returned no results");
        // The severed connection reads as exactly one death.
        assert_eq!(st.worker_deaths, u64::from(chaos.is_some()), "{st:?}");
        assert_eq!(coord.live_workers(), 3 - usize::from(chaos.is_some()));
        coord.shutdown();
        // A severed connection is not a killed replica.
        for addr in &addrs {
            assert!(healthy(addr), "replica {addr} died with its connection");
        }
        servers.into_iter().for_each(Server::shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_idle_peer_cannot_wedge_a_replica_or_its_coordinators() {
    let dir = tmp("idle");
    let (server, _) = replica(&dir, 0);
    let addr = server.addr().to_string();
    // An idle peer connects first and sends nothing.
    let idle = TcpStream::connect(&addr).unwrap();

    // The coordinator runs on its own thread and the test waits with a
    // deadline, so a wedged replica fails the test instead of hanging it.
    let todo = make_jobs(4);
    let (tx, rx) = mpsc::channel();
    let batch = todo.clone();
    let coordinator = thread::spawn(move || {
        let sched = coordinator_sched();
        let out = Coordinator::start(DistConfig::new(vec![addr]), &sched).map(|coord| {
            let out = coord.run_batch(&batch);
            let sent = coord.stats().jobs_sent;
            coord.shutdown();
            (out, sent)
        });
        let _ = tx.send(out);
    });
    let (out, sent) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the coordinator hung behind an idle peer")
        .expect("the replica passed the shard check");
    coordinator.join().unwrap();
    assert_exactly_once(&out, todo.len());
    assert_eq!(sent, 4, "the replica ran the batch");
    drop(idle);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_results_and_cache_entries_match_local_execution_bytes() {
    let dir = tmp("bytes");
    let (servers, scheds, addrs) = fleet(&dir, 2);
    let sched = Scheduler::new(SchedConfig::new(1).with_cache_dir(dir.join("coord")));
    let coord = Coordinator::start(DistConfig::new(addrs), &sched).unwrap();

    let todo = make_jobs(8);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    for (index, job, hash) in &todo {
        let got = out.iter().find(|b| b.index == *index).unwrap();
        let local = execute_job_with_retry(job, *hash, |_| {}).unwrap();
        // Byte-level determinism: the entry the replica shipped encodes
        // to exactly what a serial run would have written.
        assert_eq!(
            encode_measurement(*hash, got.result.as_ref().unwrap()),
            encode_measurement(*hash, &local),
        );
    }

    let st = coord.stats();
    assert_eq!(st.jobs_sent, 8, "both chunks travel the wire");
    assert_eq!(
        st.results_received + st.coordinator_jobs + st.local_jobs,
        8,
        "every job accounted to exactly one execution site"
    );
    assert_eq!(st.corrupt_entries, 0);
    assert_eq!(st.duplicate_results, 0);
    // The eight jobs share one shape: each replica batch-primes the
    // shard it receives (counted in its own sched.* metrics), and the
    // bytes above still match unprimed local runs.
    let primed: u64 = scheds.iter().map(|s| s.stats().plan_primed_jobs).sum();
    assert_eq!(primed, 8, "the replicas primed their same-shape shards");

    // Shutdown flushes the store thread; the persisted entries must be
    // the same bytes, and a restarted run must see them as cache hits.
    coord.shutdown();
    let resumed = Cache::new(dir.join("coord"));
    for (_, job, hash) in &todo {
        let entry = std::fs::read_to_string(resumed.entry_path(*hash)).unwrap();
        assert_eq!(entry, real_entry(job, *hash), "cache entry bytes differ");
        assert!(resumed.load(*hash).is_some(), "resume would miss {hash:x}");
    }
    servers.into_iter().for_each(Server::shutdown);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connection_close_is_not_a_death() {
    // Serve closes a connection after 128 requests. The handshake is
    // request 1 and each batch sends two pipelined shards, so request
    // 128 is answered `Connection: close` with request 129 queued
    // behind it: the coordinator redials and resends it. The replica
    // also closes a connection idle past its request timeout, which
    // the next batch redials.
    let dir = tmp("close");
    let idle = Duration::from_millis(300);
    let (server, _) = replica_with(&dir, 0, |cfg| cfg.request_timeout = idle);
    let sched = coordinator_sched();
    let coord =
        Coordinator::start(DistConfig::new(vec![server.addr().to_string()]), &sched).unwrap();
    let todo = make_jobs(8);
    for _ in 0..70 {
        assert_exactly_once(&coord.run_batch(&todo), todo.len());
    }
    thread::sleep(idle * 3);
    assert_exactly_once(&coord.run_batch(&todo), todo.len());
    let st = coord.stats();
    assert_eq!((st.worker_deaths, st.shard_reissues), (0, 0), "{st:?}");
    assert!(
        st.jobs_sent > st.results_received,
        "a queued shard was resent: {st:?}"
    );
    assert_eq!(coord.live_workers(), 1);
    coord.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn start_fails_by_name_on_another_salt_or_a_refused_dial() {
    let dir = tmp("salt");
    let (server, _) = replica(&dir, 1);
    let addr = server.addr().to_string();
    let err =
        Coordinator::start(DistConfig::new(vec![addr.clone()]), &coordinator_sched()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains(&addr) && msg.contains("409"), "{msg}");
    let salt = |extra: u64| format!("{}/{extra}", syncperf_sched::SCHED_SALT);
    assert!(msg.contains(&salt(0)) && msg.contains(&salt(1)), "{msg}");
    server.shutdown();

    // Nothing listens on a port just released.
    let free = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let err = Coordinator::start(
        DistConfig::new(vec![free.to_string()]),
        &coordinator_sched(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    assert!(err.to_string().contains(&free.to_string()), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dial_that_cannot_complete_times_out() {
    // A listener that never accepts: once its accept queue is full
    // (the kernel keeps about 128 connections there), the kernel drops
    // further SYNs and a bare `connect` would retry for minutes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut held = Vec::new();
    let hung = (0..200).any(|_| {
        TcpStream::connect_timeout(&addr, Duration::from_millis(200))
            .map(|s| held.push(s))
            .is_err()
    });
    if !hung {
        eprintln!(
            "note: {} dials all completed; no dial hangs on this host",
            held.len()
        );
        return;
    }
    let timeout = Duration::from_millis(500);
    let cfg = DistConfig::new(vec![addr.to_string()]).with_timeout(timeout);
    let start = Instant::now();
    let err = Coordinator::start(cfg, &coordinator_sched()).unwrap_err();
    let took = start.elapsed();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(took >= timeout && took < timeout * 4, "start took {took:?}");
    drop(held);
}

// ---- scripted replicas ---------------------------------------------

/// The far end of one coordinator connection, answering by hand.
struct Peer(TcpStream);

impl Peer {
    /// Reads the next `/batch` request and decodes its shard.
    fn next_shard(&mut self) -> Vec<(u64, JobSpec)> {
        let req = read_request(&mut self.0).expect("a shard request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/batch"));
        let salt = format!("{}/0", syncperf_sched::SCHED_SALT);
        decode_shard(&req.body, &salt).expect("a shard under the default salt")
    }

    /// Answers the oldest unanswered request.
    fn answer(&mut self, status: u16, body: String) {
        let resp = Response {
            status,
            content_type: "text/plain",
            body,
            retry_after: None,
        };
        write_response(&mut self.0, &resp, true);
    }

    /// Answers with one record per `(hash, entry)`.
    fn answer_records<'a>(&mut self, records: impl IntoIterator<Item = &'a (u64, String)>) {
        let mut body = String::new();
        for (hash, entry) in records {
            push_batch_record(&mut body, *hash, entry);
        }
        self.answer(200, body);
    }
}

/// The real entries for a decoded shard.
fn entries(jobs: &[(u64, JobSpec)]) -> Vec<(u64, String)> {
    jobs.iter().map(|(h, j)| (*h, real_entry(j, *h))).collect()
}

/// A one-connection scripted replica: it passes the coordinator's
/// empty-shard check, then runs `script`. Returns its address and
/// thread.
fn scripted(script: impl FnOnce(Peer) + Send + 'static) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let mut peer = Peer(listener.accept().unwrap().0);
        assert!(peer.next_shard().is_empty(), "the check is an empty shard");
        peer.answer(200, String::new());
        script(peer);
    });
    (addr, handle)
}

/// Reads until the coordinator closes the connection.
fn drain(mut peer: Peer) {
    let _ = io::copy(&mut peer.0, &mut io::sink());
}

#[test]
fn duplicate_completion_of_same_hash_merges_exactly_once() {
    let (addr, script) = scripted(|mut w| {
        let e = entries(&w.next_shard());
        // The first job completes twice.
        w.answer_records([&e[0], &e[0], &e[1], &e[2], &e[3]]);
        drain(w);
    });
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(vec![addr]), &sched).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    let st = coord.stats();
    assert_eq!(
        st.duplicate_results, 1,
        "second completion counted, dropped"
    );
    assert_eq!(st.results_received, 5, "all five records observed");
    coord.shutdown();
    script.join().unwrap();
}

#[test]
fn corrupt_wire_entry_is_counted_and_recomputed() {
    let (addr, script) = scripted(|mut w| {
        let mut e = entries(&w.next_shard());
        // The first job's entry bytes are garbage: the record header
        // attributes them, but the self-validating load rejects them.
        e[0].1 = "not a cache entry".into();
        w.answer_records(&e);
        drain(w);
    });
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(vec![addr]), &sched).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    // The corrupted job was recomputed locally and still matches.
    for (_, job, hash) in &todo {
        let got = out.iter().find(|b| b.hash == *hash).unwrap();
        assert_eq!(
            encode_measurement(*hash, got.result.as_ref().unwrap()),
            real_entry(job, *hash),
        );
    }
    assert_eq!(coord.stats().corrupt_entries, 1);
    coord.shutdown();
    script.join().unwrap();
}

#[test]
fn reissued_shard_with_overlapping_range_converges_exactly_once() {
    let (addr, script) = scripted(|mut w| {
        let first = w.next_shard();
        let e = entries(&first);
        // One result only: the coordinator must reissue the rest as a
        // fresh shard whose hash range overlaps the one just answered.
        w.answer_records([&e[0]]);
        let reissued: BTreeSet<u64> = w.next_shard().iter().map(|(h, _)| *h).collect();
        let original: BTreeSet<u64> = first.iter().map(|(h, _)| *h).collect();
        assert_eq!(reissued.len(), 3, "only the unanswered jobs travel again");
        assert!(reissued.is_subset(&original));
        // Answer the whole original range: one record overlaps.
        w.answer_records(&e);
        drain(w);
    });
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(vec![addr]), &sched).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    let st = coord.stats();
    assert_eq!(st.shard_reissues, 1);
    assert_eq!(st.duplicate_results, 1, "overlap deduped by content hash");
    coord.shutdown();
    script.join().unwrap();
}

#[test]
fn replica_death_mid_shard_reissues_and_finishes_locally() {
    let (addr, script) = scripted(|mut w| {
        // Eight jobs make two 4-job shards, both sent at once. Answer
        // the first, then vanish holding the second.
        let first = w.next_shard();
        let _second = w.next_shard();
        w.answer_records(&entries(&first));
        drop(w);
    });
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(vec![addr]), &sched).unwrap();
    let todo = make_jobs(8);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    let st = coord.stats();
    assert_eq!(st.worker_deaths, 1);
    assert_eq!(st.shard_reissues, 1, "the orphaned shard reissued");
    assert_eq!(st.results_received, 4, "only the pre-death answer arrived");
    assert_eq!(coord.live_workers(), 0);
    let mut snap = Snapshot::default();
    coord.export_into(&mut snap);
    assert_eq!(DistStats::from_snapshot(&snap), st);
    assert!(st.bytes_sent > 0 && st.bytes_received > 0);
    coord.shutdown();
    script.join().unwrap();
}

// ---- the coordinator's own executions ------------------------------

/// Checks a [`group_and_lone_gpu`] batch the coordinator ran itself:
/// every result encodes to the bytes a serial run writes, and the nine
/// same-shape points (never the lone GPU job) ran batch-primed, as the
/// stats, the exported snapshot and its exposition all report.
fn assert_ran_primed_locally(coord: &Coordinator, out: &[BackendExec]) {
    let todo = group_and_lone_gpu();
    assert_exactly_once(out, todo.len());
    for (index, job, hash) in &todo {
        let got = out.iter().find(|b| b.index == *index).unwrap();
        assert_eq!(
            encode_measurement(*hash, got.result.as_ref().unwrap()),
            real_entry(job, *hash),
        );
    }
    let mut snap = Snapshot::default();
    coord.export_into(&mut snap);
    assert_eq!(DistStats::from_snapshot(&snap), coord.stats());
    assert_eq!(coord.stats().coordinator_primed_jobs, 9);
    let exposition = obs::metrics::render(&snap);
    assert!(
        exposition.contains("\ndist_coordinator_primed_jobs 9\n"),
        "exposition:\n{exposition}"
    );
}

#[test]
fn coordinator_primes_a_batch_it_runs_after_losing_the_fleet() {
    let (addr, script) = scripted(|mut w| {
        // Die holding the first shard.
        let _ = w.next_shard();
        drop(w);
    });
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(vec![addr]), &sched).unwrap();
    // The only replica dies under a one-job batch, which finishes
    // locally.
    let lone = JobSpec::cpu_sim(
        &SYSTEM3,
        kernel::omp_barrier(),
        ExecParams::new(4).with_loops(30, 4),
        Protocol::SIM,
    );
    let hash = job_hash_with_salt(&lone, 0);
    assert_exactly_once(&coord.run_batch(&[(0, lone, hash)]), 1);
    script.join().unwrap();
    assert_eq!(coord.live_workers(), 0);
    assert_eq!(
        coord.stats().coordinator_primed_jobs,
        0,
        "one job is no group"
    );

    // Whole-fleet loss: the next batch runs on the coordinator, primed.
    let out = coord.run_batch(&group_and_lone_gpu());
    assert_ran_primed_locally(&coord, &out);
    assert_eq!(coord.stats().jobs_sent, 1, "nothing else touched the wire");
    coord.shutdown();
}

#[test]
fn coordinator_primes_the_jobs_it_recomputes() {
    // Three replicas, one shard each (chunks of 4, 4 and 2, so the
    // backlog is empty): the first fails its shard with a 500, the
    // others answer every job with corrupt entry bytes.
    let (addrs, scripts): (Vec<_>, Vec<_>) = (0..3)
        .map(|i| {
            scripted(move |mut w| {
                let jobs = w.next_shard();
                if i == 0 {
                    w.answer(500, "{\"error\": \"shard failed\"}\n".into());
                } else {
                    let garbage: Vec<(u64, String)> =
                        jobs.iter().map(|(h, _)| (*h, "{}".to_string())).collect();
                    w.answer_records(&garbage);
                }
                drain(w);
            })
        })
        .unzip();
    let sched = coordinator_sched();
    let coord = Coordinator::start(DistConfig::new(addrs), &sched).unwrap();
    let out = coord.run_batch(&group_and_lone_gpu());
    let st = coord.stats();
    assert_eq!(st.jobs_sent, 10, "every job went out on the wire");
    assert_eq!((st.worker_errors, st.corrupt_entries), (4, 6));
    assert_eq!(st.coordinator_jobs + st.local_jobs, 0);
    // The ten failures are recomputed together at the batch tail.
    assert_ran_primed_locally(&coord, &out);
    coord.shutdown();
    for s in scripts {
        s.join().unwrap();
    }
}
