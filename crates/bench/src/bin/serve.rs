//! `serve` — the long-lived measurement query service.
//!
//! Serves the content-addressed result cache over HTTP: cached
//! measurements by hash (`/job/<hash>`), exact-or-nearest sweep-point
//! queries (`/query`), figure outputs (`/figure/<name>`), and
//! compute-on-miss (`POST /compute`) dispatched to the sweep scheduler
//! with per-hash deduplication. See `docs/SERVING.md`.
//!
//! ```text
//! serve [--addr HOST:PORT] [--jobs N] [--cache-bytes BYTES]
//!       [--timeout-secs SECS] [--max-conns N]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the bound address is
//! printed as `listening on http://...` once the service is up (the
//! CI smoke test scrapes it). `--jobs` sizes the scheduler, and the
//! server runs one compute thread per scheduler worker behind the
//! event loop. `--cache-bytes` bounds the on-disk cache; 0 or absent
//! means unbounded. `--max-conns` caps concurrent connections
//! (over-cap accepts are shed with `503 + Retry-After`). A bad flag
//! or value prints the usage line and exits 2.
//!
//! A replica is one `serve` process: start N of them with the same
//! `SYNCPERF_RESULTS`, each on its own `--addr`. They share the cache
//! directory, and every replica re-scans it for foreign writes.

use std::io::Write;
use std::time::Duration;

use syncperf_bench::{common, serving};
use syncperf_serve::{install_sigterm_handler, ServeConfig, Server};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--jobs N] [--cache-bytes BYTES] \
                     [--timeout-secs SECS] [--max-conns N]";

#[derive(Debug, PartialEq)]
struct Args {
    addr: String,
    jobs: usize,
    /// `None` is unbounded (`--cache-bytes 0` or no flag).
    cache_bytes: Option<u64>,
    timeout_secs: u64,
    max_conns: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8642".into(),
        jobs: 2,
        cache_bytes: None,
        timeout_secs: 10,
        max_conns: 2048,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value?,
            "--jobs" => args.jobs = number(&flag, value)?,
            "--cache-bytes" => args.cache_bytes = Some(number(&flag, value)?).filter(|&b| b > 0),
            "--timeout-secs" => args.timeout_secs = number(&flag, value)?,
            "--max-conns" => args.max_conns = number(&flag, value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(flag: &str, value: Result<String, String>) -> Result<T, String> {
    value?
        .parse()
        .map_err(|_| format!("{flag} must be a number"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    install_sigterm_handler();

    let sched_cfg = syncperf_sched::SchedConfig::new(args.jobs.max(1)).with_label("serve");
    let scheduler = std::sync::Arc::new(syncperf_sched::Scheduler::new(sched_cfg));

    let mut cfg = ServeConfig::new(scheduler, serving::default_resolver());
    cfg.addr = args.addr;
    cfg.results_dir = common::results_dir();
    cfg.cache_bytes = args.cache_bytes;
    cfg.request_timeout = Duration::from_secs(args.timeout_secs.max(1));
    cfg.max_connections = args.max_conns.max(1);

    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot start serve: {e}");
        std::process::exit(1);
    });
    println!("listening on http://{}", server.addr());
    // The CI smoke test (and anything else scripting us) scrapes that
    // line, so make sure it is out before we block.
    std::io::stdout().flush().ok();
    server.wait();
    println!("serve: shut down cleanly");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn cache_bytes_must_be_a_number_and_zero_is_unbounded() {
        assert!(parse(&["--cache-bytes", "garbage"]).is_err());
        assert!(parse(&["--cache-bytes"]).is_err());
        assert_eq!(parse(&["--cache-bytes", "0"]).unwrap().cache_bytes, None);
        assert_eq!(
            parse(&["--cache-bytes", "4096"]).unwrap().cache_bytes,
            Some(4096)
        );
        assert_eq!(parse(&[]).unwrap().cache_bytes, None);
    }

    #[test]
    fn jobs_is_the_one_parallelism_flag() {
        assert_eq!(parse(&["--jobs", "3"]).unwrap().jobs, 3);
        assert!(parse(&["--jobs", "two"]).is_err());
        for gone in [["--workers", "4"], ["--replicas", "2"]] {
            let err = parse(&gone).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{gone:?}: {err}");
        }
    }

    #[test]
    fn every_flag_sets_its_field() {
        let args = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--cache-bytes",
            "0",
            "--timeout-secs",
            "3",
            "--max-conns",
            "8",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                addr: "127.0.0.1:0".into(),
                jobs: 1,
                cache_bytes: None,
                timeout_secs: 3,
                max_conns: 8,
            }
        );
    }
}
