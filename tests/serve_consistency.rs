//! End-to-end query-service consistency (ROADMAP: the serving layer
//! must answer from the warm cache without recomputation, and a
//! compute-on-miss must be byte-identical to the serial runner).
//!
//! Each test starts a real server on an ephemeral port and talks to it
//! over plain TCP — the same path an external client takes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use syncperf_bench::serving;
use syncperf_sched::cache::encode_measurement;
use syncperf_sched::{SchedConfig, Scheduler};
use syncperf_serve::{ComputeRequest, ServeConfig, ServeStats, Server};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syncperf-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(results: &std::path::Path, cache_bytes: Option<u64>) -> Server {
    start_server_with(results, cache_bytes, |_| {})
}

fn start_server_with(
    results: &std::path::Path,
    cache_bytes: Option<u64>,
    tweak: impl FnOnce(&mut ServeConfig),
) -> Server {
    let cfg = SchedConfig::new(2)
        .with_cache_dir(results.join(".cache"))
        .with_label("serve-it");
    let mut serve_cfg =
        ServeConfig::new(Arc::new(Scheduler::new(cfg)), serving::default_resolver());
    serve_cfg.addr = "127.0.0.1:0".into();
    serve_cfg.results_dir = results.to_path_buf();
    serve_cfg.cache_bytes = cache_bytes;
    serve_cfg.recorder = syncperf_core::obs::Recorder::enabled();
    tweak(&mut serve_cfg);
    Server::start(serve_cfg).expect("server starts")
}

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    let status = reply
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The `"measurement"` object of a service answer, which is exactly
/// the cache-entry encoding (trailing `}` and newline of the envelope
/// stripped).
fn measurement_of(body: &str) -> String {
    body.split_once("\"measurement\": ")
        .expect("answer carries a measurement")
        .1
        .strip_suffix("}\n")
        .expect("envelope closes")
        .to_string()
}

fn field<'a>(body: &'a str, key: &str) -> &'a str {
    body.split_once(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("`{key}` in response: {body}"))
        .1
        .split('"')
        .next()
        .unwrap()
}

#[test]
fn cold_compute_is_byte_identical_to_the_serial_runner() {
    let results = tmp("cold");
    let server = start_server(&results, None);
    let addr = server.addr();

    let spec =
        "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_atomicadd_scalar_int\", \"threads\": 8}";
    let (status, body) = post(addr, "/compute", spec);
    assert_eq!(status, 200, "cold compute succeeds: {body}");
    assert_eq!(field(&body, "source"), "computed");
    let served = measurement_of(&body);

    // The reference: the same request resolved and measured on a
    // fresh serial (1-worker) scheduler with its own cold cache.
    let req = ComputeRequest {
        executor: "cpu-sim".into(),
        kernel: "omp_atomicadd_scalar_int".into(),
        threads: 8,
        ..ComputeRequest::default()
    };
    let job = serving::resolve(&req).expect("request resolves");
    let serial_dir = tmp("cold-serial");
    let serial = Scheduler::new(
        SchedConfig::new(1)
            .with_cache_dir(serial_dir.join(".cache"))
            .with_label("serve-it-serial"),
    );
    let hash = serial.job_hash(&job);
    let m = serial.measure(job).expect("serial measure");
    assert_eq!(
        served,
        encode_measurement(hash, &m),
        "served bytes must equal the serial runner's encoding"
    );
    assert_eq!(field(&body, "hash"), syncperf_sched::hash::hex16(hash));

    // The same request again is a pure cache answer: no new
    // computation, and /job serves the identical bytes.
    let (status, warm) = post(addr, "/compute", spec);
    assert_eq!(status, 200);
    assert_eq!(field(&warm, "source"), "cache");
    assert_eq!(measurement_of(&warm), served);
    let (status, by_hash) = get(addr, &format!("/job/{}", field(&body, "hash")));
    assert_eq!(status, 200);
    assert_eq!(measurement_of(&by_hash), served);

    let (_, stats) = get(addr, "/stats");
    assert!(
        stats.contains("\"computes\": 1"),
        "exactly one computation: {stats}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&serial_dir);
}

#[test]
fn warm_restart_answers_without_recomputation() {
    let results = tmp("warm");
    // First server computes and shuts down.
    let server = start_server(&results, None);
    let spec = "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 4}";
    let (status, body) = post(server.addr(), "/compute", spec);
    assert_eq!(status, 200);
    let hash = field(&body, "hash").to_string();
    let served = measurement_of(&body);
    server.shutdown();

    // A fresh server over the same results dir rebuilds its index from
    // disk and answers /job and /query without any computation.
    let server = start_server(&results, None);
    let addr = server.addr();
    let (status, by_hash) = get(addr, &format!("/job/{hash}"));
    assert_eq!(status, 200);
    assert_eq!(measurement_of(&by_hash), served);
    let (status, by_query) = get(addr, "/query?kernel=omp_barrier&threads=4&exact=1");
    assert_eq!(status, 200);
    assert_eq!(measurement_of(&by_query), served);
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"computes\": 0"), "no recompute: {stats}");
    assert!(
        stats.contains("\"cache_hits\": 2"),
        "both were hits: {stats}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn figure_endpoint_serves_results_files_and_rejects_traversal() {
    let results = tmp("figure");
    std::fs::create_dir_all(&results).unwrap();
    std::fs::write(results.join("fig99.csv"), "threads,ops\n1,1\n").unwrap();
    std::fs::write(results.join("fig99.svg"), "<svg></svg>").unwrap();
    let server = start_server(&results, None);
    let addr = server.addr();

    let (status, csv) = get(addr, "/figure/fig99");
    assert_eq!((status, csv.as_str()), (200, "threads,ops\n1,1\n"));
    let (status, svg) = get(addr, "/figure/fig99.svg");
    assert_eq!((status, svg.as_str()), (200, "<svg></svg>"));
    let (status, _) = get(addr, "/figure/no_such_figure");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/figure/..%2F..%2Fetc%2Fpasswd");
    assert_eq!(status, 400, "path traversal is rejected outright");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn concurrent_identical_computes_run_exactly_one_job() {
    let results = tmp("dedup");
    let server = start_server(&results, None);
    let addr = server.addr();
    let spec = "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_critical_int\", \"threads\": 16}";

    // 6 identical computes racing, while 6 more threads hammer /query
    // the whole time. Every /query answer must be a complete document
    // (404 before the entry lands, 200 with parseable JSON after) —
    // never a torn read.
    let computes: Vec<_> = (0..6)
        .map(|_| {
            let spec = spec.to_string();
            std::thread::spawn(move || post(addr, "/compute", &spec))
        })
        .collect();
    let queries: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut seen_hit = false;
                for _ in 0..30 {
                    let (status, body) = get(addr, "/query?kernel=omp_critical_int&threads=16");
                    match status {
                        200 => {
                            let m = measurement_of(&body);
                            syncperf_core::obs::json::parse(&m)
                                .expect("a served measurement is always complete JSON");
                            seen_hit = true;
                        }
                        404 => {}
                        other => panic!("unexpected status {other}: {body}"),
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                seen_hit
            })
        })
        .collect();

    let mut bodies = Vec::new();
    for c in computes {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "every racer gets an answer: {body}");
        bodies.push(measurement_of(&body));
    }
    for q in queries {
        let _ = q.join().unwrap();
    }
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "all racers see identical bytes"
    );

    // Exactly one scheduler job ran, no matter how the race resolved.
    let (_, stats) = get(addr, "/stats");
    assert!(
        stats.contains("\"computes\": 1"),
        "exactly one compute: {stats}"
    );
    assert!(
        stats.contains("\"executed\": 1"),
        "exactly one scheduler execution: {stats}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn eviction_keeps_the_cache_under_budget_and_the_index_consistent() {
    let results = tmp("evict");
    // Budget of ~2 entries (entries for these kernels run ~800 bytes).
    let server = start_server(&results, Some(2000));
    let addr = server.addr();

    for threads in [2u32, 4, 8, 16, 32] {
        let spec = format!(
            "{{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": {threads}}}"
        );
        let (status, body) = post(addr, "/compute", &spec);
        assert_eq!(status, 200, "compute at {threads} threads: {body}");
    }

    let index = server.index();
    assert!(index.is_consistent(), "index survives eviction churn");
    assert!(
        index.total_bytes() <= 2000,
        "on-disk cache respects the --cache-bytes budget: {} bytes",
        index.total_bytes()
    );
    assert!(!index.is_empty(), "eviction never empties a live cache");
    let (_, stats) = get(addr, "/stats");
    let evictions: u64 = stats
        .split_once("\"evictions\": ")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .expect("evictions counter in stats");
    assert!(evictions >= 3, "5 entries minus a 2-entry budget: {stats}");

    // What survives is still queryable, and what was evicted recomputes
    // cleanly rather than erroring.
    let (status, _) = get(addr, "/query?kernel=omp_barrier&threads=32");
    assert_eq!(status, 200);
    let (status, body) = post(
        addr,
        "/compute",
        "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 2}",
    );
    assert_eq!(status, 200);
    assert!(
        field(&body, "source") == "computed" || field(&body, "source") == "cache",
        "evicted entries come back on demand"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

/// Reads exactly one HTTP response off `stream` using Content-Length
/// framing (a keep-alive client can't read to EOF — the connection
/// stays open). Reads the head one byte at a time and the body with
/// `read_exact`, so it can never consume bytes belonging to the next
/// response when the server batches several into one segment.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut buf = Vec::new();
    while !buf.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8; 1];
        let n = stream.read(&mut byte).expect("read headers");
        assert!(n > 0, "connection closed before headers completed");
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).to_string();
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn keep_alive_serves_two_requests_on_one_socket() {
    let results = tmp("keepalive");
    let server = start_server(&results, None);
    let addr = server.addr();

    // One TCP connection, two sequential requests. HTTP/1.1 without
    // `Connection: close` defaults to keep-alive, so both answers must
    // arrive on this same socket.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send first");
    let (status, head, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "first request on the socket: {body}");
    assert!(
        head.contains("Connection: keep-alive\r\n"),
        "server advertises reuse: {head}"
    );

    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send second");
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "second request reuses the socket: {body}");
    assert!(
        body.contains("\"requests\": 2"),
        "both requests were counted: {body}"
    );

    // A third request that opts out is answered and then closed: the
    // next read sees EOF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send third");
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: close\r\n"),
        "close is honored and echoed: {head}"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain to EOF");
    assert!(rest.is_empty(), "server closed after Connection: close");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn metrics_counters_advance_across_keep_alive_requests() {
    let results = tmp("metrics");
    let server = start_server(&results, None);
    let addr = server.addr();

    // Two /metrics scrapes over one keep-alive socket. Each exposition
    // must parse losslessly, and the second must show the first scrape
    // counted — the counters advance while the connection stays open.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send first");
    let (status, head, body) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus exposition content type: {head}"
    );
    assert!(head.contains("Connection: keep-alive\r\n"));
    // Parsed snapshots carry the exposition names (dots sanitized to
    // underscores on the wire).
    let first = syncperf_core::obs::metrics::parse(&body);
    let first_requests = first.counter("serve_requests");
    let first_scrapes = first.counter("serve_endpoint_metrics_requests");

    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send second");
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    let second = syncperf_core::obs::metrics::parse(&body);
    assert_eq!(
        second.counter("serve_requests"),
        first_requests + 1,
        "the first scrape itself was counted"
    );
    assert_eq!(
        second.counter("serve_endpoint_metrics_requests"),
        first_scrapes + 1
    );
    assert!(
        second
            .histogram("serve_endpoint_metrics_latency_us")
            .count()
            >= 1,
        "scrape latency lands in the per-endpoint histogram"
    );
    // Exposition is well-formed: every sample line has a numeric value,
    // and the histogram families are typed.
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value parses: {line:?}"
        );
    }
    assert!(body.contains("# TYPE serve_latency_us histogram"));
    assert!(body.contains("serve_latency_us_bucket{le=\"+Inf\"}"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn events_endpoint_tails_the_flight_recorder_as_jsonl() {
    let results = tmp("events");
    let server = start_server(&results, None);
    let addr = server.addr();

    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/events?n=4");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "startup + requests were recorded");
    assert!(lines.len() <= 4, "n bounds the tail: {} lines", lines.len());
    let mut prev_seq = None;
    for line in &lines {
        let v = syncperf_core::obs::json::parse(line).expect("each line is one JSON object");
        let seq = v
            .get("seq")
            .and_then(syncperf_core::obs::json::Value::as_f64)
            .expect("entries carry a sequence number");
        if let Some(p) = prev_seq {
            assert!(seq > p, "tail is oldest-first by sequence");
        }
        prev_seq = Some(seq);
    }
    assert!(
        body.contains("\"cat\":\"http\""),
        "the /healthz request itself was recorded: {body}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn serve_stats_round_trip_through_snapshot() {
    let results = tmp("stats");
    let rec = syncperf_core::obs::Recorder::enabled();
    let cfg = SchedConfig::new(1)
        .with_cache_dir(results.join(".cache"))
        .with_label("serve-it-stats");
    let mut serve_cfg =
        ServeConfig::new(Arc::new(Scheduler::new(cfg)), serving::default_resolver());
    serve_cfg.addr = "127.0.0.1:0".into();
    serve_cfg.results_dir = results.clone();
    serve_cfg.recorder = rec.clone();
    let server = Server::start(serve_cfg).expect("server starts");
    let addr = server.addr();

    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _) = get(addr, "/job/0000000000000000");
    assert_eq!(status, 404);
    server.shutdown();

    let stats = ServeStats::from_snapshot(&rec.snapshot());
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.errors, 1);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn stalled_connection_is_evicted_without_blocking_others() {
    let results = tmp("slowloris");
    // A short read deadline so the test finishes quickly.
    let server = start_server_with(&results, None, |cfg| {
        cfg.request_timeout = Duration::from_millis(300);
    });
    let addr = server.addr();

    // The slowloris: connect and send nothing at all.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A second peer drip-feeds half a request and then stalls too.
    let mut half = TcpStream::connect(addr).expect("connect");
    half.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    half.write_all(b"GET /healthz HT").expect("partial head");

    // While both are stalled, other requests sail through.
    for _ in 0..3 {
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "stalled peers must not block the loop");
    }

    // The deadline evicts both: the silent one reads EOF, the
    // mid-request one gets a best-effort 408 first.
    let mut rest = Vec::new();
    stalled.read_to_end(&mut rest).expect("server closes");
    assert!(rest.is_empty(), "a peer that never spoke gets no bytes");
    let mut rest = String::new();
    half.read_to_string(&mut rest).expect("server closes");
    assert!(
        rest.starts_with("HTTP/1.1 408"),
        "a mid-request stall gets 408: {rest:?}"
    );

    let (_, stats) = get(addr, "/stats");
    let timeouts: u64 = stats
        .split_once("\"timeouts\": ")
        .and_then(|(_, rest)| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .expect("timeouts counter in stats");
    assert!(timeouts >= 2, "both stalls counted: {stats}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn oversized_heads_are_rejected_with_431() {
    let results = tmp("431");
    let server = start_server(&results, None);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 20 KiB of header without a terminator blows the 16 KiB head cap.
    let mut raw = b"GET /healthz HTTP/1.1\r\nX-Filler: ".to_vec();
    raw.resize(20 * 1024, b'a');
    stream.write_all(&raw).expect("send oversized head");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("recv");
    assert!(
        reply.starts_with("HTTP/1.1 431"),
        "oversized head answers 431 and closes: {reply:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn malformed_pipelining_answers_then_closes() {
    let results = tmp("pipeline");
    let server = start_server(&results, None);
    let addr = server.addr();

    // One write carrying a valid request pipelined with garbage. The
    // valid one is answered 200; the garbage gets 400 with
    // `Connection: close`, and the socket then reads EOF — the server
    // must not try to re-interpret bytes after a framing error.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nNONSENSE VERBIAGE\r\n\r\n")
        .expect("send pipelined");
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200, "the well-formed request is served");
    assert!(head.contains("Connection: keep-alive\r\n"));
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 400, "the garbage is rejected");
    assert!(head.contains("Connection: close\r\n"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain");
    assert!(rest.is_empty(), "connection closed after the parse error");

    // Well-formed pipelining, by contrast, answers both and stays open.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /stats HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send pipelined pair");
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: keep-alive\r\n"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn connection_cap_sheds_load_with_503_and_retry_after() {
    let results = tmp("cap");
    let server = start_server_with(&results, None, |cfg| {
        cfg.max_connections = 2;
    });
    let addr = server.addr();

    // Fill the cap with two keep-alive connections (a served request
    // guarantees each is registered, not just queued in the backlog).
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, _, _) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        held.push(stream);
    }

    // The third connection is shed at accept time.
    let mut extra = TcpStream::connect(addr).expect("connect");
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reply = String::new();
    extra.read_to_string(&mut reply).expect("recv rejection");
    assert!(
        reply.starts_with("HTTP/1.1 503"),
        "over-cap accept answers 503: {reply:?}"
    );
    assert!(
        reply.contains("Retry-After: 1\r\n"),
        "backpressure advertises a retry hint: {reply:?}"
    );

    // Releasing one held connection frees a slot for a newcomer.
    // Until the reactor notices the close, a probe may still be shed
    // (503, or a reset if its bytes arrive after the one-shot close)
    // — retry until one lands.
    drop(held.pop());
    let probe = |addr| -> std::io::Result<bool> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")?;
        let mut reply = String::new();
        stream.read_to_string(&mut reply)?;
        Ok(reply.starts_with("HTTP/1.1 200"))
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !probe(addr).unwrap_or(false) {
        assert!(
            std::time::Instant::now() < deadline,
            "a freed slot must become usable"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, stats) = get(addr, "/stats");
    let rejected: u64 = stats
        .split("\"rejected\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("stats carry the rejected counter");
    assert!(rejected >= 1, "the shed connection was counted: {stats}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn replica_pair_serves_byte_identical_answers_from_a_shared_cache() {
    let results = tmp("replicas");
    // Two replicas over one cache directory, re-scanning quickly. This
    // is the in-process equivalent of two `serve` processes started
    // with one `SYNCPERF_RESULTS` (each process runs exactly this
    // server).
    let replica_a = start_server_with(&results, None, |cfg| {
        cfg.index_refresh = Duration::from_millis(50);
    });
    let replica_b = start_server_with(&results, None, |cfg| {
        cfg.index_refresh = Duration::from_millis(50);
    });

    let spec =
        "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_atomicadd_scalar_int\", \"threads\": 4}";
    let (status, body) = post(replica_a.addr(), "/compute", spec);
    assert_eq!(status, 200, "compute on replica A: {body}");
    let hash = field(&body, "hash").to_string();
    let from_a = measurement_of(&body);

    // Replica B picks the foreign write up via re-scan and serves the
    // identical bytes — without computing anything itself.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let from_b = loop {
        let (status, body) = get(replica_b.addr(), &format!("/job/{hash}"));
        if status == 200 {
            break measurement_of(&body);
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replica B must index the foreign write"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(from_b, from_a, "replicas serve byte-identical answers");
    let (_, stats_b) = get(replica_b.addr(), "/stats");
    assert!(
        stats_b.contains("\"computes\": 0"),
        "B served from the shared cache: {stats_b}"
    );

    // The single-replica reference: a fresh server over the same
    // directory answers with the same bytes.
    replica_a.shutdown();
    replica_b.shutdown();
    let single = start_server(&results, None);
    let (status, body) = get(single.addr(), &format!("/job/{hash}"));
    assert_eq!(status, 200);
    assert_eq!(
        measurement_of(&body),
        from_a,
        "single-replica serving is byte-identical to the pair"
    );
    single.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn concurrent_multi_writer_computes_share_the_cache_without_tears() {
    let results = tmp("multiwriter");
    let replica_a = start_server_with(&results, None, |cfg| {
        cfg.index_refresh = Duration::from_millis(50);
    });
    let replica_b = start_server_with(&results, None, |cfg| {
        cfg.index_refresh = Duration::from_millis(50);
    });
    let addr_a = replica_a.addr();
    let addr_b = replica_b.addr();

    // Identical jobs race across both replicas (each may compute its
    // own copy — exactly-once cluster-wide is NOT guaranteed without
    // the dist coordinator), while distinct jobs land on each side.
    let identical = "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 8}";
    let racers: Vec<_> = (0..6)
        .map(|i| {
            let addr = if i % 2 == 0 { addr_a } else { addr_b };
            std::thread::spawn(move || post(addr, "/compute", identical))
        })
        .collect();
    let distinct: Vec<_> = [(addr_a, 2u32), (addr_b, 4), (addr_a, 16), (addr_b, 32)]
        .into_iter()
        .map(|(addr, threads)| {
            std::thread::spawn(move || {
                let spec = format!(
                    "{{\"executor\": \"cpu-sim\", \"kernel\": \"omp_critical_int\", \"threads\": {threads}}}"
                );
                post(addr, "/compute", &spec)
            })
        })
        .collect();

    let mut identical_bodies = Vec::new();
    for r in racers {
        let (status, body) = r.join().unwrap();
        assert_eq!(status, 200, "identical racer answered: {body}");
        identical_bodies.push(measurement_of(&body));
    }
    assert!(
        identical_bodies.windows(2).all(|w| w[0] == w[1]),
        "every answer for the identical job is byte-identical cluster-wide"
    );
    for d in distinct {
        let (status, body) = d.join().unwrap();
        assert_eq!(status, 200, "distinct job answered: {body}");
    }

    // No index tears: both indexes are internally consistent, and
    // every on-disk entry decodes with its embedded hash intact.
    assert!(replica_a.index().is_consistent());
    assert!(replica_b.index().is_consistent());
    let cache = syncperf_sched::Cache::new(results.join(".cache"));
    let entries = cache.entries();
    assert!(entries.len() >= 5, "identical + 4 distinct jobs stored");
    for info in &entries {
        let text = std::fs::read_to_string(cache.entry_path(info.hash)).expect("entry reads");
        syncperf_sched::cache::decode_measurement(info.hash, &text)
            .expect("every multi-writer entry decodes cleanly");
    }

    // Once both replicas settle, the identical job's bytes match
    // through either front end.
    std::thread::sleep(Duration::from_millis(200));
    let (status, via_a) = post(addr_a, "/compute", identical);
    assert_eq!(status, 200);
    let (status, via_b) = post(addr_b, "/compute", identical);
    assert_eq!(status, 200);
    assert_eq!(measurement_of(&via_a), identical_bodies[0]);
    assert_eq!(measurement_of(&via_b), identical_bodies[0]);

    replica_a.shutdown();
    replica_b.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn compute_resolves_the_system_it_names() {
    let results = tmp("system");
    let server = start_server(&results, None);
    let addr = server.addr();
    let body = |system: u32| {
        format!(
            "{{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 4, \
             \"n_iter\": 20, \"n_unroll\": 4, \"system\": {system}}}"
        )
    };
    let (status, answer) = post(addr, "/compute", &body(1));
    assert_eq!(status, 200, "{answer}");
    let job = syncperf_sched::JobSpec::cpu_sim(
        &syncperf_core::SYSTEM1,
        syncperf_core::kernel::omp_barrier(),
        syncperf_bench::common::paper_loops(4).with_loops(20, 4),
        syncperf_bench::common::protocol(),
    );
    let hash = syncperf_sched::job_hash_with_salt(&job, 0);
    assert_eq!(field(&answer, "hash"), syncperf_sched::hash::hex16(hash));
    let m = syncperf_sched::execute_job_with_retry(&job, hash, |_| {}).unwrap();
    assert_eq!(measurement_of(&answer), encode_measurement(hash, &m));
    let (status, answer) = post(addr, "/compute", &body(9));
    assert_eq!(status, 422, "{answer}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

/// A `/batch` shard body: `(hash, wire job)` items under `salt`.
fn shard(salt: &str, items: &[(u64, &str)]) -> String {
    let items: Vec<String> = items
        .iter()
        .map(|(hash, job)| format!("{{\"hash\":\"{hash:016x}\",\"job\":{job}}}"))
        .collect();
    let items: Vec<&str> = items.iter().map(String::as_str).collect();
    syncperf_serve::shard_body(salt, &items)
}

/// One small `omp_barrier` job at `threads` that the serve resolver
/// rebuilds, with its hash under the default salt and its wire form,
/// the `/compute` body that names it.
fn wire_job(threads: u32) -> (syncperf_sched::JobSpec, u64, String) {
    let req = ComputeRequest {
        executor: "cpu-sim".into(),
        kernel: "omp_barrier".into(),
        threads,
        n_iter: Some(20),
        n_unroll: Some(4),
        ..ComputeRequest::default()
    };
    let job = serving::resolve(&req).expect("the request resolves");
    let hash = syncperf_sched::job_hash_with_salt(&job, 0);
    let wire = ComputeRequest::of(&job).to_json();
    (job, hash, wire)
}

#[test]
fn batch_refuses_what_it_cannot_run_under_the_sent_hash() {
    let results = tmp("batch-refuse");
    let server = start_server(&results, None);
    let addr = server.addr();
    let salt = format!("{}/0", syncperf_sched::SCHED_SALT);

    // An empty shard is the coordinator's handshake: 200, no records.
    assert_eq!(
        post(addr, "/batch", &shard(&salt, &[])),
        (200, String::new())
    );

    // Another salt is a conflict that names both.
    let (status, body) = post(addr, "/batch", &shard("syncperf-sched-v0/7", &[]));
    assert_eq!(status, 409, "{body}");
    assert!(
        body.contains("syncperf-sched-v0/7") && body.contains(&salt),
        "{body}"
    );

    // Unparseable bodies, and shards without jobs, are bad requests.
    for garbage in [
        "not json",
        "{\"salt\": 3}",
        &format!("{{\"salt\":\"{salt}\"}}"),
    ] {
        assert_eq!(post(addr, "/batch", garbage).0, 400, "{garbage}");
    }

    // A job that does not re-hash to its sent hash is refused, and
    // nothing is ever stored under that hash.
    let (_, hash, wire) = wire_job(4);
    let wrong = hash ^ 1;
    let (status, body) = post(addr, "/batch", &shard(&salt, &[(wrong, &wire)]));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(&syncperf_sched::hash::hex16(wrong)), "{body}");
    let tampered = wire.replace("\"threads\":4", "\"threads\":5");
    assert_ne!(tampered, wire);
    assert_eq!(
        post(addr, "/batch", &shard(&salt, &[(hash, &tampered)])).0,
        400
    );
    for h in [wrong, hash] {
        assert_eq!(get(addr, &format!("/job/{h:016x}")).0, 404);
    }

    // An item that is not a `/compute` body is a bad request; one the
    // resolver refuses (real OpenMP threads, a kernel outside the
    // registry) is unprocessable.
    assert_eq!(post(addr, "/batch", &shard(&salt, &[(hash, "{}")])).0, 400);
    let real = wire.replace("\"executor\":\"cpu-sim\"", "\"executor\":\"real-omp\"");
    let unknown = wire.replace(
        "\"kernel\":\"omp_barrier\"",
        "\"kernel\":\"no_such_kernel\"",
    );
    for job in [&real, &unknown] {
        assert_ne!(job, &wire);
        let (status, body) = post(addr, "/batch", &shard(&salt, &[(hash, job)]));
        assert_eq!(status, 422, "{body}");
    }
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("\"cache_stores\": 0"), "{stats}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn batch_answers_the_entry_bytes_of_a_local_run() {
    let results = tmp("batch-bytes");
    let server = start_server(&results, None);
    let addr = server.addr();
    let salt = format!("{}/0", syncperf_sched::SCHED_SALT);
    let jobs: Vec<_> = (2..6).map(wire_job).collect();
    let items: Vec<(u64, &str)> = jobs.iter().map(|(_, h, w)| (*h, w.as_str())).collect();

    let (status, body) = post(addr, "/batch", &shard(&salt, &items));
    assert_eq!(status, 200, "{body}");
    let records = syncperf_serve::batch_records(&body);
    assert_eq!(records.len(), jobs.len(), "one record per job: {body}");
    for ((job, hash, _), (got, entry)) in jobs.iter().zip(&records) {
        assert_eq!(got, hash, "records come back in request order");
        let local = syncperf_sched::execute_job_with_retry(job, *hash, |_| {}).unwrap();
        assert_eq!(*entry, encode_measurement(*hash, &local));
        let (status, by_hash) = get(addr, &format!("/job/{hash:016x}"));
        assert_eq!(status, 200, "the replica cached what it ran");
        assert_eq!(measurement_of(&by_hash), *entry);
    }
    // The shard ran as one primed batch, and the endpoint has its own
    // latency histogram.
    let (_, metrics) = get(addr, "/metrics");
    let metric = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} "))?.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
    };
    assert_eq!(metric("sched_plan_primed_jobs"), jobs.len() as u64);
    assert_eq!(metric("serve_endpoint_batch_requests"), 1);
    assert!(metrics.contains("# TYPE serve_endpoint_batch_latency_us histogram"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&results);
}
