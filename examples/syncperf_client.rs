//! A complete round trip through the measurement query service: start
//! a server in-process on an ephemeral port, then exercise every
//! endpoint the way an external client would — over a single
//! keep-alive HTTP/1.1 connection, the same reuse path the
//! `syncperf_load` harness measures (its [`syncperf_load::ClientConn`]
//! is the client here).
//!
//! Run with: `cargo run --release --example syncperf_client`

use std::sync::Arc;
use std::time::Duration;

use syncperf_bench::serving;
use syncperf_core::Result;
use syncperf_load::ClientConn;
use syncperf_sched::{SchedConfig, Scheduler};
use syncperf_serve::{ServeConfig, ServeStats, Server};

fn field(body: &str, key: &str) -> String {
    body.split(&format!("\"{key}\": \""))
        .nth(1)
        .and_then(|s| s.split('"').next())
        .unwrap_or("?")
        .to_string()
}

fn main() -> Result<()> {
    // Keep the example hermetic: its own results/cache directory.
    let results = std::env::temp_dir().join(format!("syncperf-client-{}", std::process::id()));
    std::fs::create_dir_all(&results)?;
    std::fs::write(results.join("fig_demo.csv"), "threads,ops\n2,100\n4,180\n")?;

    let mut sched_cfg = SchedConfig::new(2).with_label("client-example");
    sched_cfg.cache_dir = results.join(".cache");
    let scheduler = Arc::new(Scheduler::new(sched_cfg));

    let mut cfg = ServeConfig::new(scheduler, serving::default_resolver());
    cfg.addr = "127.0.0.1:0".into();
    cfg.results_dir.clone_from(&results);
    let server = Server::start(cfg)?;
    let addr = server.addr();
    println!("serving on http://{addr}\n");

    // Every request below travels over this ONE keep-alive connection
    // — the server advertises `Connection: keep-alive` and the client
    // reuses the socket until told otherwise.
    let mut conn = ClientConn::new(&addr.to_string(), Duration::from_secs(120))
        .map_err(|e| syncperf_core::SyncPerfError::InvalidParams(e.to_string()))?;
    let mut http = |method: &str, path: &str, body: Option<&str>| {
        let reply = conn.request(method, path, body).expect("request");
        (reply.status, reply.body)
    };

    // 1. Liveness.
    let (status, body) = http("GET", "/healthz", None);
    println!("GET /healthz           -> {status}: {}", body.trim());

    // 2. Compute a measurement (cold: runs on the scheduler pool).
    let spec = "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 8}";
    let (status, body) = http("POST", "/compute", Some(spec));
    println!("POST /compute (cold)   -> {status}");
    let hash = field(&body, "hash");
    println!("    computed job {hash}");

    // 3. The same request again is answered from the cache.
    let (status, body) = http("POST", "/compute", Some(spec));
    println!(
        "POST /compute (warm)   -> {status} (source: {})",
        field(&body, "source")
    );

    // 4. Fetch it directly by content hash.
    let (status, _) = http("GET", &format!("/job/{hash}"), None);
    println!("GET /job/{hash} -> {status}");

    // 5. Parameter query: exact, then nearest-match.
    let (status, _) = http("GET", "/query?kernel=omp_barrier&threads=8&exact=1", None);
    println!("GET /query (exact)     -> {status}");
    let (status, body) = http("GET", "/query?kernel=omp_barrier&threads=6", None);
    let distance = body
        .split("\"distance\": ")
        .nth(1)
        .and_then(|s| s.split(',').next());
    println!(
        "GET /query (nearest)   -> {status} (distance: {})",
        distance.unwrap_or("?")
    );

    // 6. Figure outputs straight from the results directory.
    let (status, body) = http("GET", "/figure/fig_demo", None);
    println!(
        "GET /figure/fig_demo   -> {status} ({} bytes of CSV)",
        body.len()
    );

    // 7. A miss is a clean 404, not an error — and it does NOT cost
    //    the connection: the next request still reuses the socket.
    let (status, _) = http("GET", "/job/0000000000000000", None);
    println!("GET /job/<unknown>     -> {status}");

    // 8. Scrape /metrics and read the telemetry back: the per-request
    //    counters show everything above traveling one connection.
    let (status, body) = http("GET", "/metrics", None);
    let snap = syncperf_core::obs::metrics::parse(&body);
    println!(
        "GET /metrics           -> {status} ({} live connections, p99 {}us)\n{:#?}",
        snap.gauges.get("serve_connections").copied().unwrap_or(0),
        snap.histogram("serve_latency_us").quantile(0.99),
        ServeStats::from_snapshot(&snap),
    );

    // 9. Graceful shutdown over the wire.
    let (status, _) = http("POST", "/shutdown", Some(""));
    println!("POST /shutdown         -> {status}");
    println!("connection reconnects: {}", conn.reconnects);
    server.wait();
    println!("server exited cleanly");

    std::fs::remove_dir_all(&results)?;
    Ok(())
}
