//! The worker side of the wire protocol.
//!
//! A worker serves one coordinator connection: it handshakes (a peer
//! that sends no `Hello` within a few seconds is dropped, so it cannot
//! hold the worker), then executes jobs from its assigned shards one
//! at a time, streaming each finished result back as raw cache-entry
//! bytes. Every same-shape group of ≥ 2 jobs in a received batch is
//! batch-primed on arrival ([`JobSpec::prime_groups`], the rule the
//! scheduler pool and the coordinator use). Between jobs it drains any
//! control frames that arrived (new batches, shutdown).
//!
//! The receive half of the socket is owned by a dedicated reader
//! thread feeding an in-process channel; the main loop never reads the
//! socket directly. This keeps frame reassembly trivially correct (no
//! read timeouts that could split a frame) while the executing thread
//! stays free to poll for control traffic between jobs.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use syncperf_core::obs::json;
use syncperf_sched::{
    encode_measurement, execute_job_with_retry_primed, job_hash_with_salt, JobSpec, PrimedEngine,
    SCHED_SALT,
};

use crate::codec::decode_job;
use crate::coordinator::{get_hash, get_shard};
use crate::frame::{read_frame, read_handshake, write_frame, FrameType, PROTO_VERSION};

/// How often an idle worker emits a heartbeat frame.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(250);

/// How long a new connection may take to send its `Hello`. A worker
/// serves one connection at a time, so a peer that connects and sends
/// nothing would otherwise hold it, and every coordinator dialing it,
/// forever. Shorter than the coordinator's default heartbeat timeout,
/// which bounds its wait for the `HelloAck`, so a coordinator queued
/// behind an idle peer still gets its answer.
const HELLO_TIMEOUT: Duration = Duration::from_secs(3);

/// One queued job: shard id, expected content hash, decoded spec (or
/// `None` when the payload failed to decode or hash-verify — reported
/// as a job error when its turn comes, preserving shard accounting),
/// and its batch-primed engine results, if its group was primed.
struct QueuedJob {
    shard: u64,
    hash: u64,
    job: Option<JobSpec>,
    primed: Option<PrimedEngine>,
}

/// Serves one coordinator connection until shutdown, EOF, or a fatal
/// I/O error. This is the whole worker: `syncperf_dist worker
/// --listen` runs it on each connection it accepts.
///
/// # Errors
///
/// Returns the underlying I/O error when the socket fails mid-protocol;
/// a clean shutdown (Shutdown frame or EOF) is `Ok`.
pub fn serve_stream(stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // Buffered so consecutive result frames coalesce into one syscall;
    // flushed explicitly at shard boundaries and before idling.
    let mut writer = BufWriter::new(stream.try_clone()?);

    // Handshake: the coordinator speaks first, within HELLO_TIMEOUT.
    let (ty, payload) = read_handshake(&stream, HELLO_TIMEOUT, "Hello")?;
    if ty != FrameType::Hello {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello frame",
        ));
    }
    let hello = json::parse(&String::from_utf8_lossy(&payload))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let proto = hello.get("proto").and_then(json::Value::as_f64);
    let salt = hello.get("salt").and_then(json::Value::as_str);
    if proto != Some(f64::from(PROTO_VERSION)) || salt != Some(SCHED_SALT) {
        // A version- or salt-skewed worker must refuse loudly rather
        // than compute wrongly-keyed entries.
        write_frame(&mut writer, FrameType::Shutdown, b"{}")?;
        writer.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "protocol/salt mismatch in Hello",
        ));
    }
    let salt_extra = hello
        .get("salt_extra")
        .and_then(json::Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0);
    write_frame(&mut writer, FrameType::HelloAck, b"{}")?;
    writer.flush()?;

    // Reader thread: owns the receive half, forwards whole frames.
    let (tx, rx) = mpsc::channel::<Option<(FrameType, Vec<u8>)>>();
    let read_half = stream.try_clone()?;
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(read_half);
        loop {
            if let Ok(frame) = read_frame(&mut r) {
                if tx.send(Some(frame)).is_err() {
                    return;
                }
            } else {
                let _ = tx.send(None);
                return;
            }
        }
    });

    let mut queue: VecDeque<QueuedJob> = VecDeque::new();
    let result = serve_loop(&rx, &mut writer, &mut queue, salt_extra);
    writer.flush().ok();
    // Unblock the reader by closing the socket in both directions.
    stream.shutdown(std::net::Shutdown::Both).ok();
    drop(rx);
    let _ = reader.join();
    result
}

fn serve_loop(
    rx: &mpsc::Receiver<Option<(FrameType, Vec<u8>)>>,
    writer: &mut BufWriter<TcpStream>,
    queue: &mut VecDeque<QueuedJob>,
    salt_extra: u64,
) -> io::Result<()> {
    loop {
        // Drain everything that has already arrived, then either work
        // or wait (heartbeating) for more.
        loop {
            match rx.try_recv() {
                Ok(Some(frame)) => {
                    if handle_frame(frame, queue, writer, salt_extra)? {
                        return Ok(());
                    }
                }
                Ok(None) | Err(mpsc::TryRecvError::Disconnected) => return Ok(()),
                Err(mpsc::TryRecvError::Empty) => break,
            }
        }

        if let Some(next) = queue.pop_front() {
            run_one(next, queue, writer)?;
        } else {
            // Nothing buffered may sit while we block on the channel.
            writer.flush()?;
            match rx.recv_timeout(HEARTBEAT_EVERY) {
                Ok(Some(frame)) => {
                    if handle_frame(frame, queue, writer, salt_extra)? {
                        return Ok(());
                    }
                }
                Ok(None) | Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    write_frame(writer, FrameType::Heartbeat, b"{}")?;
                    writer.flush()?;
                }
            }
        }
    }
}

/// Handles one control frame. Returns `true` on shutdown.
fn handle_frame(
    (ty, payload): (FrameType, Vec<u8>),
    queue: &mut VecDeque<QueuedJob>,
    writer: &mut BufWriter<TcpStream>,
    salt_extra: u64,
) -> io::Result<bool> {
    match ty {
        FrameType::Batch => {
            let text = String::from_utf8_lossy(&payload);
            let Ok(doc) = json::parse(&text) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unparseable Batch frame",
                ));
            };
            let shard = get_shard(&doc);
            let jobs = doc.get("jobs").and_then(json::Value::as_array);
            let start = queue.len();
            for entry in jobs.unwrap_or(&[]) {
                let Some(hash) = get_hash(entry) else {
                    continue;
                };
                // Verify: the decoded job must re-hash to exactly what
                // the coordinator asked for; corruption or version skew
                // becomes a JobError, never a wrongly-keyed result.
                let job = entry
                    .get("job")
                    .and_then(decode_job)
                    .filter(|j| job_hash_with_salt(j, salt_extra) == hash);
                queue.push_back(QueuedJob {
                    shard,
                    hash,
                    job,
                    primed: None,
                });
            }
            let batch = &mut queue.make_contiguous()[start..];
            let jobs: Vec<&JobSpec> = batch.iter().filter_map(|q| q.job.as_ref()).collect();
            let mut primed = JobSpec::prime_groups(&jobs).into_iter();
            for q in batch.iter_mut().filter(|q| q.job.is_some()) {
                q.primed = primed.next().flatten();
            }
            if queue.iter().all(|q| q.shard != shard) {
                // Empty (or fully invalid-and-reported) batch: tell the
                // coordinator the shard is already drained.
                write_frame(writer, FrameType::ShardDone, shard_doc(shard).as_bytes())?;
                writer.flush()?;
            }
            Ok(false)
        }
        FrameType::Shutdown => Ok(true),
        // Anything else from the coordinator is ignorable chatter.
        _ => Ok(false),
    }
}

fn run_one(
    q: QueuedJob,
    queue: &VecDeque<QueuedJob>,
    writer: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let (shard, hash) = (q.shard, q.hash);
    let mut retries = 0u32;
    let start = std::time::Instant::now();
    let result = match &q.job {
        Some(job) => execute_job_with_retry_primed(job, hash, q.primed.as_ref(), |_| retries += 1)
            .map_err(|e| e.to_string()),
        None => Err("job failed wire decode or hash verification".to_string()),
    };
    let micros = start.elapsed().as_micros() as u64;
    match result {
        Ok(m) => {
            // Header line, then the raw cache-entry bytes.
            let payload = format!(
                "{{\"shard\":{shard},\"hash\":\"{hash:016x}\",\"micros\":{micros},\"retries\":{retries},\"primed\":{}}}\n{}",
                u8::from(q.primed.is_some()),
                encode_measurement(hash, &m)
            );
            write_frame(writer, FrameType::Result, payload.as_bytes())?;
        }
        Err(e) => {
            let doc = format!(
                "{{\"shard\":{shard},\"hash\":\"{hash:016x}\",\"error\":{}}}",
                json::string(&e)
            );
            write_frame(writer, FrameType::JobError, doc.as_bytes())?;
        }
    }
    if queue.iter().all(|p| p.shard != shard) {
        // Shard boundary: everything buffered (this shard's results and
        // the ShardDone that triggers a refill) goes out in one write.
        write_frame(writer, FrameType::ShardDone, shard_doc(shard).as_bytes())?;
        writer.flush()?;
    }
    Ok(())
}

fn shard_doc(shard: u64) -> String {
    format!("{{\"shard\":{shard}}}")
}

/// Binds `addr`, prints the ready line (`worker listening on <addr>`)
/// to stdout, and serves coordinator connections one at a time: the
/// worker a `--connect` coordinator dials.
///
/// # Errors
///
/// Propagates bind/accept errors; per-connection protocol errors only
/// end that connection.
pub fn run_listen(addr: &str) -> io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    println!("worker listening on {}", listener.local_addr()?);
    io::stdout().flush().ok();
    for stream in listener.incoming() {
        match stream {
            Ok(s) => {
                if let Err(e) = serve_stream(s) {
                    eprintln!("worker: connection ended: {e}");
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_deadline_is_shorter_than_the_coordinators_ack_wait() {
        // A coordinator queued behind an idle peer outlasts it.
        assert!(HELLO_TIMEOUT < crate::DistConfig::new(Vec::new()).heartbeat_timeout);
    }
}
