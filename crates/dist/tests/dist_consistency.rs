//! Merge-correctness tests for the coordinator/worker protocol.
//!
//! Three rigs are used. The connect test starts a fleet of in-process
//! listening workers and drives it through [`Coordinator::start`], as
//! `syncperf_dist <entry> --connect` does, once plainly and once with
//! a connection severed mid-batch. Real-worker tests drive
//! [`serve_stream`] over a localhost socket pair and check the results
//! (and the persisted cache entries) are byte-identical to local
//! execution. Fake-worker tests
//! speak the wire protocol by hand to force the manifest-merge edge
//! cases that a healthy worker never produces: overlapping hash ranges
//! from a reissued shard, corrupt cache-entry bytes over the wire,
//! duplicate completion of the same job hash, and mid-shard death.

use std::collections::BTreeSet;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::thread;

use syncperf_core::obs::{self, json, Snapshot};
use syncperf_core::{kernel, ExecParams, Protocol, SYSTEM3};
use syncperf_dist::{
    decode_job, read_frame, serve_stream, write_frame, Coordinator, DistConfig, DistStats,
    FrameType, PROTO_VERSION,
};
use syncperf_sched::{
    encode_measurement, execute_job_with_retry, job_hash_with_salt, BackendExec, Cache, JobSpec,
    SCHED_SALT,
};

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

/// A connected localhost pair: (coordinator side, worker side).
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    (client, server)
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

// ---- fake-worker wire helpers -------------------------------------

fn handshake(stream: &TcpStream) {
    let (ty, _) = read_frame(&mut &*stream).unwrap();
    assert_eq!(ty, FrameType::Hello);
    write_frame(&mut &*stream, FrameType::HelloAck, b"{}").unwrap();
}

/// Skips protocol chatter until the next Batch frame, returning its
/// shard id and decoded `(hash, job)` list.
fn next_batch(stream: &TcpStream) -> (u64, Vec<(u64, JobSpec)>) {
    loop {
        let (ty, payload) = read_frame(&mut &*stream).unwrap();
        if ty != FrameType::Batch {
            continue;
        }
        let doc = json::parse(&String::from_utf8_lossy(&payload)).unwrap();
        let shard = doc
            .get("shard")
            .and_then(json::Value::as_f64)
            .map_or(0, |s| s as u64);
        let jobs = doc
            .get("jobs")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|entry| {
                let hash = entry
                    .get("hash")
                    .and_then(json::Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .unwrap();
                (hash, entry.get("job").and_then(decode_job).unwrap())
            })
            .collect();
        return (shard, jobs);
    }
}

/// A well-formed Result frame payload: header line + raw entry bytes.
fn result_payload(shard: u64, hash: u64, entry: &str) -> Vec<u8> {
    let header =
        format!("{{\"shard\":{shard},\"hash\":\"{hash:016x}\",\"micros\":5,\"retries\":0}}");
    let mut payload = header.into_bytes();
    payload.push(b'\n');
    payload.extend_from_slice(entry.as_bytes());
    payload
}

/// Executes the job exactly as a real worker would and returns the
/// cache-entry bytes it would put on the wire.
fn real_entry(job: &JobSpec, hash: u64) -> String {
    let m = execute_job_with_retry(job, hash, |_| {}).unwrap();
    encode_measurement(hash, &m)
}

fn send_result(stream: &TcpStream, shard: u64, hash: u64, entry: &str) {
    let payload = result_payload(shard, hash, entry);
    write_frame(&mut &*stream, FrameType::Result, &payload).unwrap();
}

fn send_job_error(stream: &TcpStream, shard: u64, hash: u64) {
    let doc = format!("{{\"shard\":{shard},\"hash\":\"{hash:016x}\",\"error\":\"injected\"}}");
    write_frame(&mut &*stream, FrameType::JobError, doc.as_bytes()).unwrap();
}

fn send_shard_done(stream: &TcpStream, shard: u64) {
    let doc = format!("{{\"shard\":{shard}}}");
    write_frame(&mut &*stream, FrameType::ShardDone, doc.as_bytes()).unwrap();
}

/// Absorbs coordinator frames until Shutdown (or the socket closes) so
/// the script thread exits cleanly.
fn drain_until_shutdown(stream: &TcpStream) {
    loop {
        match read_frame(&mut &*stream) {
            Ok((FrameType::Shutdown, _)) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

// ---- connect-mode test ---------------------------------------------

/// `n` in-process workers, each a loopback listener whose thread serves
/// the first connection it accepts, as `syncperf_dist worker --listen`
/// does. Returns their addresses and threads; a thread returns when
/// its connection ends.
fn listen_fleet(n: usize) -> (Vec<String>, Vec<thread::JoinHandle<io::Result<()>>>) {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let worker = thread::spawn(move || serve_stream(listener.accept()?.0));
            (addr, worker)
        })
        .unzip()
}

#[test]
fn connect_fleet_merges_exactly_once_when_a_connection_is_severed() {
    // Sixty distinct jobs of at most 16 threads make fifteen 4-job
    // shards; each worker is primed with one, so at least twelve
    // results reach the coordinator and the hook fires in the first
    // batch.
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
        let (addrs, workers) = listen_fleet(3);
        let mut cfg = DistConfig::new(addrs);
        if let Some(k) = chaos {
            cfg = cfg.with_chaos_kill_one_after(k);
        }
        let coord = Coordinator::start(cfg, None).unwrap();
        // A sweep is many batches. A worker severed after its last wire
        // job of one batch is found dead by the next (its EOF, or the
        // failed send of its next shard), so the batch goes out twice.
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
        for (w, worker) in workers.into_iter().enumerate() {
            // Every worker thread returns: the severed one (the first)
            // when its connection ends, the rest on the Shutdown frame.
            let served = worker.join().unwrap();
            if chaos.is_none() || w > 0 {
                served.unwrap();
            }
        }
    }
}

// ---- real-worker tests --------------------------------------------

#[test]
fn wire_results_and_cache_entries_match_local_execution_bytes() {
    let dir = std::env::temp_dir().join(format!(
        "syncperf_dist_bytes_{}_{:?}",
        std::process::id(),
        thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let (c0, w0) = socket_pair();
    let (c1, w1) = socket_pair();
    let h0 = thread::spawn(move || serve_stream(w0));
    let h1 = thread::spawn(move || serve_stream(w1));
    let coord = Coordinator::from_streams(
        DistConfig::new(Vec::new()),
        Some(Cache::new(&dir)),
        vec![c0, c1],
    )
    .unwrap();

    let todo = make_jobs(8);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    for (index, job, hash) in &todo {
        let got = out.iter().find(|b| b.index == *index).unwrap();
        let local = execute_job_with_retry(job, *hash, |_| {}).unwrap();
        // Byte-level determinism: the entry the worker shipped encodes
        // to exactly what a serial run would have written.
        assert_eq!(
            encode_measurement(*hash, got.result.as_ref().unwrap()),
            encode_measurement(*hash, &local),
        );
    }

    let st = coord.stats();
    assert_eq!(st.jobs_sent, 8, "both primed chunks travel the wire");
    assert_eq!(
        st.results_received + st.coordinator_jobs + st.local_jobs,
        8,
        "every job accounted to exactly one execution site"
    );
    assert_eq!(st.corrupt_entries, 0);
    assert_eq!(st.duplicate_results, 0);
    // The eight jobs share one shape: the workers batch-prime what they
    // receive, and the bytes above still match unprimed local runs.
    assert!(
        st.primed_jobs > 0,
        "workers primed none of the same-shape batch"
    );

    // Shutdown flushes the store thread; the persisted entries must be
    // the same bytes, and a restarted run must see them as cache hits.
    coord.shutdown();
    h0.join().unwrap().unwrap();
    h1.join().unwrap().unwrap();
    let resumed = Cache::new(&dir);
    for (_, job, hash) in &todo {
        let entry = std::fs::read_to_string(resumed.entry_path(*hash)).unwrap();
        assert_eq!(entry, real_entry(job, *hash), "cache entry bytes differ");
        assert!(resumed.load(*hash).is_some(), "resume would miss {hash:x}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- fake-worker edge-case tests ----------------------------------

#[test]
fn duplicate_completion_of_same_hash_merges_exactly_once() {
    let (c, w) = socket_pair();
    let script = thread::spawn(move || {
        handshake(&w);
        let (shard, jobs) = next_batch(&w);
        let entries: Vec<(u64, String)> =
            jobs.iter().map(|(h, j)| (*h, real_entry(j, *h))).collect();
        // First job completes twice — a reissue-race double send.
        send_result(&w, shard, entries[0].0, &entries[0].1);
        send_result(&w, shard, entries[0].0, &entries[0].1);
        for (h, e) in &entries[1..] {
            send_result(&w, shard, *h, e);
        }
        send_shard_done(&w, shard);
        drain_until_shutdown(&w);
    });

    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, vec![c]).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    let st = coord.stats();
    assert_eq!(
        st.duplicate_results, 1,
        "second completion counted, dropped"
    );
    assert_eq!(st.results_received, 5, "all five Result frames observed");
    coord.shutdown();
    script.join().unwrap();
}

#[test]
fn corrupt_wire_entry_is_counted_and_recomputed() {
    let (c, w) = socket_pair();
    let script = thread::spawn(move || {
        handshake(&w);
        let (shard, jobs) = next_batch(&w);
        // First job's entry bytes are garbage: the header attributes
        // it, but the self-validating load must reject the payload.
        send_result(&w, shard, jobs[0].0, "not a cache entry");
        for (h, j) in &jobs[1..] {
            send_result(&w, shard, *h, &real_entry(j, *h));
        }
        send_shard_done(&w, shard);
        drain_until_shutdown(&w);
    });

    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, vec![c]).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    // The corrupted job was recomputed locally and still matches.
    let (_, job, hash) = &todo[0];
    let got = out.iter().find(|b| b.hash == *hash).unwrap();
    assert_eq!(
        encode_measurement(*hash, got.result.as_ref().unwrap()),
        real_entry(job, *hash),
    );
    let st = coord.stats();
    assert_eq!(st.corrupt_entries, 1);
    coord.shutdown();
    script.join().unwrap();
}

#[test]
fn reissued_shard_with_overlapping_range_converges_exactly_once() {
    let (c, w) = socket_pair();
    let script = thread::spawn(move || {
        handshake(&w);
        let (first, jobs) = next_batch(&w);
        let entries: Vec<(u64, String)> =
            jobs.iter().map(|(h, j)| (*h, real_entry(j, *h))).collect();
        // One result, then a premature ShardDone: the coordinator must
        // reissue the unfinished remainder as a fresh shard whose hash
        // range overlaps the one it just retired.
        send_result(&w, first, entries[0].0, &entries[0].1);
        send_shard_done(&w, first);
        let (second, reissued) = next_batch(&w);
        assert_ne!(first, second, "reissue must mint a new shard id");
        let reissued_hashes: BTreeSet<u64> = reissued.iter().map(|(h, _)| *h).collect();
        let original: BTreeSet<u64> = entries.iter().map(|(h, _)| *h).collect();
        assert!(
            reissued_hashes.is_subset(&original),
            "reissued range lies inside the retired shard's range"
        );
        // Complete one overlapped job under BOTH shard ids (the old
        // attribution races the reissue), then finish the rest.
        send_result(&w, first, entries[1].0, &entries[1].1);
        send_result(&w, second, entries[1].0, &entries[1].1);
        for (h, e) in &entries[2..] {
            send_result(&w, second, *h, e);
        }
        send_shard_done(&w, second);
        drain_until_shutdown(&w);
    });

    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, vec![c]).unwrap();
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
fn worker_death_mid_shard_reissues_and_finishes_locally() {
    let (c, w) = socket_pair();
    let script = thread::spawn(move || {
        handshake(&w);
        let (shard, jobs) = next_batch(&w);
        // One result, then vanish without a manifest — the reader's
        // EOF is the death signal; no heartbeat timeout needed.
        send_result(&w, shard, jobs[0].0, &real_entry(&jobs[0].1, jobs[0].0));
        drop(w);
    });

    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, vec![c]).unwrap();
    let todo = make_jobs(4);
    let out = coord.run_batch(&todo);
    assert_exactly_once(&out, todo.len());
    let st = coord.stats();
    assert_eq!(st.worker_deaths, 1);
    assert_eq!(st.shard_reissues, 1, "orphaned remainder reissued");
    assert_eq!(st.results_received, 1, "only the pre-death result arrived");
    assert_eq!(coord.live_workers(), 0);
    // The reader thread is gone, so nothing moves between the two reads:
    // the exported snapshot reads back as the same stats.
    let mut snap = Snapshot::default();
    coord.export_into(&mut snap);
    assert_eq!(DistStats::from_snapshot(&snap), st);
    assert!(st.bytes_sent > 0);
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
    let (c, w) = socket_pair();
    let script = thread::spawn(move || {
        handshake(&w);
        // Die holding the first shard.
        let _ = next_batch(&w);
        drop(w);
    });
    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, vec![c]).unwrap();
    // The only worker dies under a one-job batch, which finishes locally.
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
    // Three workers, one shard each (chunks of 4, 4 and 2, so the
    // backlog is empty): each answers its first job with a JobError and
    // the rest with corrupt entry bytes.
    let mut ends = Vec::new();
    let mut scripts = Vec::new();
    for _ in 0..3 {
        let (c, w) = socket_pair();
        ends.push(c);
        scripts.push(thread::spawn(move || {
            handshake(&w);
            let (shard, jobs) = next_batch(&w);
            send_job_error(&w, shard, jobs[0].0);
            for (h, _) in &jobs[1..] {
                send_result(&w, shard, *h, "not a cache entry");
            }
            send_shard_done(&w, shard);
            drain_until_shutdown(&w);
        }));
    }
    let coord = Coordinator::from_streams(DistConfig::new(Vec::new()), None, ends).unwrap();
    let out = coord.run_batch(&group_and_lone_gpu());
    let st = coord.stats();
    assert_eq!(st.jobs_sent, 10, "every job went out on the wire");
    assert_eq!((st.worker_errors, st.corrupt_entries), (3, 7));
    assert_eq!(st.coordinator_jobs + st.local_jobs, 0);
    // The ten failures are recomputed together at the batch tail.
    assert_ran_primed_locally(&coord, &out);
    coord.shutdown();
    for s in scripts {
        s.join().unwrap();
    }
}

#[test]
fn worker_refuses_a_hello_from_another_protocol_revision() {
    let (c, w) = socket_pair();
    let worker = thread::spawn(move || serve_stream(w));
    let hello = format!(
        "{{\"proto\":{},\"salt\":\"{SCHED_SALT}\",\"salt_extra\":\"{:016x}\"}}",
        PROTO_VERSION - 1,
        0
    );
    write_frame(&mut &c, FrameType::Hello, hello.as_bytes()).unwrap();
    let (ty, _) = read_frame(&mut &c).unwrap();
    assert_eq!(ty, FrameType::Shutdown, "a skewed worker refuses loudly");
    let err = worker.join().unwrap().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}
