//! `syncperf_top` — a one-screen live view of a running
//! `syncperf-serve` instance or `syncperf_dist` coordinator
//! (`--metrics-addr`), in the spirit of `top`.
//!
//! Polls `GET /metrics`, parses the Prometheus-style exposition back
//! into an [`obs::Snapshot`](syncperf_core::obs::Snapshot) with
//! `obs::metrics::parse`, and renders a refreshing table: request
//! rates (delta between polls), per-endpoint latency quantiles, cache
//! hit ratio, scheduler queue depth, and per-worker utilization.
//!
//! ```text
//! syncperf_top [--addr HOST:PORT] [--interval-ms N] [--once]
//! ```
//!
//! `--once` prints a single frame and exits (used by tests and CI —
//! no terminal control sequences are emitted in that mode).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use syncperf_core::obs::{self, Snapshot};
use syncperf_core::{Result, SyncPerfError};

struct Args {
    addr: String,
    interval: Duration,
    once: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args> {
    let mut args = Args {
        addr: "127.0.0.1:8642".into(),
        interval: Duration::from_millis(1000),
        once: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| SyncPerfError::InvalidParams(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms")?.parse().map_err(|_| {
                    SyncPerfError::InvalidParams("--interval-ms must be a number".into())
                })?;
                args.interval = Duration::from_millis(ms.max(100));
            }
            "--once" => args.once = true,
            other => {
                return Err(SyncPerfError::InvalidParams(format!(
                    "unknown flag {other} (syncperf_top takes --addr --interval-ms --once)"
                )));
            }
        }
    }
    Ok(args)
}

/// One `GET /metrics` round trip over a fresh connection.
fn scrape(addr: &str) -> Result<Snapshot> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| SyncPerfError::InvalidParams(format!("connect {addr}: {e}")))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| SyncPerfError::InvalidParams(format!("send: {e}")))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| SyncPerfError::InvalidParams(format!("read: {e}")))?;
    let body = raw.split_once("\r\n\r\n").map_or(raw.as_str(), |(_, b)| b);
    Ok(obs::metrics::parse(body))
}

/// Request counters keyed by endpoint label, extracted from
/// `serve.endpoint.<label>.requests`.
fn endpoint_requests(snap: &Snapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter_map(|(name, &v)| {
            let label = name
                .strip_prefix("serve_endpoint_")?
                .strip_suffix("_requests")?;
            Some((label.to_string(), v))
        })
        .collect()
}

/// Per-worker `(executed, stolen, busy_us)` rows from the
/// `sched.worker.<w>.*` counter family.
fn worker_rows(snap: &Snapshot) -> Vec<(u64, u64, u64, u64)> {
    let mut rows = Vec::new();
    for w in 0.. {
        let executed = format!("sched_worker_{w}_executed");
        if !snap.counters.contains_key(&executed) {
            break;
        }
        rows.push((
            w,
            snap.counter(&executed),
            snap.counter(&format!("sched_worker_{w}_stolen")),
            snap.counter(&format!("sched_worker_{w}_busy_us")),
        ));
    }
    rows
}

fn render_frame(snap: &Snapshot, prev: Option<&Snapshot>, dt: Duration, addr: &str) -> String {
    let mut out = String::new();
    let total = snap.counter("serve_requests");
    let rate = prev.map_or(0.0, |p| {
        let delta = total.saturating_sub(p.counter("serve_requests"));
        delta as f64 / dt.as_secs_f64().max(1e-9)
    });
    let hits = snap.counter("serve_cache_hits") + snap.counter("sched_cache_hits");
    let misses = snap.counter("serve_cache_misses") + snap.counter("sched_cache_misses");
    let looked = hits + misses;
    let hit_pct = if looked == 0 {
        0.0
    } else {
        100.0 * hits as f64 / looked as f64
    };
    let lat = snap.histogram("serve_latency_us");
    out.push_str(&format!(
        "syncperf-top — {addr}\n\
         requests {total} ({rate:.1}/s)   errors {}   cache hit {hit_pct:.1}% ({hits}/{looked})\n\
         conns {}   p50 {}us   p99 {}us   rejected {}   timeouts {}\n\
         index {} entries / {} bytes   inflight {}   queue depth {} (peak {})   events dropped {}\n",
        snap.counter("serve_errors"),
        snap.gauge("serve_connections"),
        lat.quantile(0.50),
        lat.quantile(0.99),
        snap.counter("serve_rejected"),
        snap.counter("serve_timeouts"),
        snap.gauge("serve_index_entries"),
        snap.gauge("serve_index_bytes"),
        snap.gauge("serve_inflight"),
        snap.gauge("sched_queue_depth"),
        snap.gauge("sched_queue_depth_peak"),
        snap.dropped_events,
    ));

    out.push_str(&format!(
        "\n{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "endpoint", "requests", "req/s", "p50us", "p99us", "maxus"
    ));
    out.push_str(&format!("{}\n", "-".repeat(64)));
    let prev_reqs = prev.map(endpoint_requests).unwrap_or_default();
    for (label, reqs) in endpoint_requests(snap) {
        if reqs == 0 {
            continue;
        }
        // Like the header rate: no previous poll means no rate yet
        // (dividing the lifetime count by the tiny first-frame dt
        // would print a nonsense spike).
        let eps = prev.map_or(0.0, |_| {
            let delta = reqs.saturating_sub(prev_reqs.get(&label).copied().unwrap_or(0));
            delta as f64 / dt.as_secs_f64().max(1e-9)
        });
        let h = snap.histogram(&format!("serve_endpoint_{label}_latency_us"));
        out.push_str(&format!(
            "{label:<12} {reqs:>9} {eps:>9.1} {:>9} {:>9} {:>9}\n",
            h.quantile(0.50),
            h.quantile(0.99),
            h.max(),
        ));
    }

    let workers = worker_rows(snap);
    if !workers.is_empty() {
        out.push_str(&format!(
            "\n{:<8} {:>9} {:>9} {:>12}\n",
            "worker", "executed", "stolen", "busy_us"
        ));
        out.push_str(&format!("{}\n", "-".repeat(42)));
        for (w, executed, stolen, busy_us) in workers {
            // Worker 0 is the thread that called `run_jobs`; the rest
            // are the scheduler's helper threads.
            let worker = if w == 0 {
                "0 caller".to_string()
            } else {
                w.to_string()
            };
            out.push_str(&format!(
                "{worker:<8} {executed:>9} {stolen:>9} {busy_us:>12}\n"
            ));
        }
    }

    // Distributed coordinator section: present when the scraped
    // endpoint belongs to (or exports) a `syncperf_dist` coordinator.
    if snap.counter("dist_workers") > 0 {
        out.push_str(&format!(
            "\ndist: {} workers ({} live)   in-flight {}   reissues {}   deaths {}\n\
             dist jobs: {} sent / {} results   coordinator {} ({} primed)   local {}   dup {}   corrupt {}\n",
            snap.counter("dist_workers"),
            snap.gauge("dist_workers_live"),
            snap.gauge("dist_batches_inflight"),
            snap.counter("dist_shard_reissues"),
            snap.counter("dist_worker_deaths"),
            snap.counter("dist_jobs_sent"),
            snap.counter("dist_results_received"),
            snap.counter("dist_coordinator_jobs"),
            snap.counter("dist_coordinator_primed_jobs"),
            snap.counter("dist_local_jobs"),
            snap.counter("dist_duplicate_results"),
            snap.counter("dist_corrupt_entries"),
        ));
    }

    // Plan-compilation section: present once the scheduler has
    // grouped at least one same-shape parameter sweep for batched
    // plan-table evaluation.
    let plan_batches = snap.counter("sched_plan_batches");
    if plan_batches > 0 {
        out.push_str(&format!(
            "\nplan: {plan_batches} batches   {} points   {} primed   batch priming (compile + evaluate) {}us   trace ops {}\n",
            snap.counter("sched_plan_batch_points"),
            snap.counter("sched_plan_primed_jobs"),
            snap.counter("sched_plan_compile_us"),
            snap.counter("plan_trace_ops"),
        ));
    }

    for (title, name) in [
        ("sched wait", "sched_wait_us"),
        ("sched hit svc", "sched_service_us_hit"),
        ("sched miss svc", "sched_service_us_miss"),
        ("plan compile", "plan_compile_us"),
        ("plan batch", "plan_batch_size"),
        ("dist wait", "dist_wait_us"),
        ("dist svc", "dist_service_us"),
    ] {
        let h = snap.histogram(name);
        if h.count() > 0 {
            out.push_str(&format!(
                "{title:<14} n={} p50={}us p99={}us max={}us\n",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max(),
            ));
        }
    }
    out
}

fn main() -> Result<()> {
    let args = parse_args(std::env::args().skip(1))?;
    let mut prev: Option<Snapshot> = None;
    let mut last = Instant::now();
    loop {
        let snap = scrape(&args.addr)?;
        let dt = last.elapsed().max(Duration::from_millis(1));
        last = Instant::now();
        let frame = render_frame(&snap, prev.as_ref(), dt, &args.addr);
        if args.once {
            print!("{frame}");
            return Ok(());
        }
        // Clear screen + home, then one frame — classic `top` refresh.
        print!("\x1b[2J\x1b[H{frame}");
        std::io::stdout().flush().ok();
        prev = Some(snap);
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let rec = obs::Recorder::enabled();
        let c = rec.counter("serve_requests");
        for _ in 0..5 {
            c.inc();
        }
        rec.counter("serve_endpoint_stats_requests").inc();
        let h = rec.histogram("serve_endpoint_stats_latency_us");
        h.observe(150);
        rec.histogram("serve_latency_us").observe(150);
        rec.gauge_set("serve_connections").set(3);
        rec.counter("serve_rejected").add(2);
        rec.counter("serve_timeouts").inc();
        rec.counter("sched_worker_0_executed").add(7);
        rec.counter("sched_worker_0_busy_us").add(1234);
        rec.gauge_set("sched_queue_depth").set(2);
        rec.snapshot()
    }

    #[test]
    fn frame_renders_requests_endpoints_and_workers() {
        let snap = sample_snapshot();
        let frame = render_frame(&snap, None, Duration::from_secs(1), "test:0");
        assert!(frame.contains("requests 5"));
        assert!(frame.contains("conns 3"));
        assert!(frame.contains("rejected 2"));
        assert!(frame.contains("timeouts 1"));
        assert!(frame.contains("stats"));
        assert!(frame.contains("worker"));
        assert!(frame.contains("0 caller"), "worker 0 is the calling thread");
        assert!(frame.contains("1234"));
        assert!(frame.contains("queue depth 2"));
    }

    #[test]
    fn frame_renders_dist_section_only_with_a_coordinator() {
        let snap = sample_snapshot();
        let frame = render_frame(&snap, None, Duration::from_secs(1), "test:0");
        assert!(!frame.contains("dist:"), "no dist section without dist_*");

        let rec = obs::Recorder::enabled();
        rec.counter("dist_workers").add(3);
        rec.gauge_set("dist_workers_live").set(2);
        rec.gauge_set("dist_batches_inflight").set(4);
        rec.counter("dist_shard_reissues").add(1);
        rec.counter("dist_jobs_sent").add(90);
        rec.counter("dist_results_received").add(88);
        rec.counter("dist_coordinator_jobs").add(11);
        rec.counter("dist_coordinator_primed_jobs").add(8);
        rec.histogram("dist_service_us").observe(42);
        let frame = render_frame(&rec.snapshot(), None, Duration::from_secs(1), "test:0");
        assert!(
            frame.contains("dist: 3 workers (2 live)"),
            "frame:\n{frame}"
        );
        assert!(frame.contains("in-flight 4"));
        assert!(frame.contains("reissues 1"));
        assert!(frame.contains("90 sent / 88 results"));
        assert!(frame.contains("coordinator 11 (8 primed)"));
        assert!(frame.contains("dist svc"));
    }

    #[test]
    fn frame_renders_plan_section_only_after_batching() {
        let snap = sample_snapshot();
        let frame = render_frame(&snap, None, Duration::from_secs(1), "test:0");
        assert!(!frame.contains("plan:"), "no plan section without batches");

        let rec = obs::Recorder::enabled();
        rec.counter("sched_plan_batches").add(2);
        rec.counter("sched_plan_batch_points").add(9);
        rec.counter("sched_plan_primed_jobs").add(9);
        rec.counter("sched_plan_compile_us").add(120);
        rec.counter("plan_trace_ops").add(340);
        rec.histogram("plan_batch_size").observe(4);
        rec.histogram("plan_batch_size").observe(5);
        let frame = render_frame(&rec.snapshot(), None, Duration::from_secs(1), "test:0");
        assert!(
            frame.contains(
                "plan: 2 batches   9 points   9 primed   batch priming (compile + evaluate) 120us   trace ops 340"
            ),
            "frame:\n{frame}"
        );
        assert!(frame.contains("plan batch"));
    }

    #[test]
    fn rates_are_deltas_between_polls() {
        let prev = sample_snapshot();
        let mut now = prev.clone();
        now.counters.insert("serve_requests".into(), 15);
        let frame = render_frame(&now, Some(&prev), Duration::from_secs(2), "test:0");
        // 10 new requests over 2 seconds.
        assert!(frame.contains("(5.0/s)"), "frame:\n{frame}");
    }

    #[test]
    fn endpoint_requests_strips_the_metric_affixes() {
        let snap = sample_snapshot();
        let reqs = endpoint_requests(&snap);
        assert_eq!(reqs.get("stats"), Some(&1));
        assert!(!reqs.contains_key("serve_requests"));
    }

    #[test]
    fn parse_args_handles_flags_and_rejects_unknown() {
        let a = parse_args(
            ["--addr", "h:1", "--interval-ms", "50", "--once"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(a.addr, "h:1");
        // Floor keeps the poll loop from busy-spinning.
        assert_eq!(a.interval, Duration::from_millis(100));
        assert!(a.once);
        assert!(parse_args(["--bogus".to_string()].into_iter()).is_err());
    }
}
