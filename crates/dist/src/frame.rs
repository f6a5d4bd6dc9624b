//! The wire framing: every message between coordinator and worker is
//! one length-prefixed frame.
//!
//! ```text
//! +------+----------------+---------------------+
//! | type |    len (u32)   |  payload (len bytes)|
//! | u8   |  little-endian |                     |
//! +------+----------------+---------------------+
//! ```
//!
//! Payloads are small JSON documents (parsed with `obs::json`) except
//! for [`FrameType::Result`], whose payload is a one-line JSON header
//! followed by `\n` and the raw cache-entry bytes exactly as the worker
//! encoded them — the coordinator validates and stores those bytes
//! verbatim, which is what makes a distributed cache file byte-identical
//! to a locally stored one.
//!
//! Frames are never split or interleaved: each side writes a frame with
//! a single `write_all` and reads with `read_exact`, so a reader thread
//! can own the receive half of a socket without any reassembly state.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on a frame payload. A batch of a few hundred jobs with
/// full kernel bodies is a few hundred KiB; 64 MiB is comfortably
/// beyond anything legitimate, so a longer length prefix means a
/// desynchronized or corrupt peer and the connection is dropped.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Protocol revision, exchanged in the hello handshake. Bump on any
/// frame- or payload-shape change. Revision 2 retired type bytes 7 and
/// 8 (shard revocation); they are never reused.
pub const PROTO_VERSION: u32 = 2;

/// One frame kind. Numeric values are the on-wire type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Coordinator → worker: handshake (protocol version, salts).
    Hello = 1,
    /// Worker → coordinator: handshake accepted.
    HelloAck = 2,
    /// Coordinator → worker: a shard of jobs to execute.
    Batch = 3,
    /// Worker → coordinator: one finished job (header + entry bytes).
    Result = 4,
    /// Worker → coordinator: one job failed after the retry budget.
    JobError = 5,
    /// Worker → coordinator: a shard has no jobs left.
    ShardDone = 6,
    /// Worker → coordinator: liveness signal while idle.
    Heartbeat = 9,
    /// Coordinator → worker: drain and exit.
    Shutdown = 10,
}

impl FrameType {
    /// Decodes the on-wire type byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<FrameType> {
        Some(match b {
            1 => FrameType::Hello,
            2 => FrameType::HelloAck,
            3 => FrameType::Batch,
            4 => FrameType::Result,
            5 => FrameType::JobError,
            6 => FrameType::ShardDone,
            9 => FrameType::Heartbeat,
            10 => FrameType::Shutdown,
            _ => return None,
        })
    }
}

/// Writes one frame with a single `write_all` (type byte, length,
/// payload in one buffer) so concurrent writers guarded by a lock can
/// never interleave partial frames.
///
/// Does NOT flush: on a bare `TcpStream` the bytes hit the socket
/// immediately anyway, and a worker streaming results through a
/// `BufWriter` relies on that to coalesce several result frames into
/// one syscall — it flushes explicitly at shard boundaries and before
/// going idle.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame(w: &mut impl Write, ty: FrameType, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large"))?;
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.push(ty as u8);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Reads one complete frame, blocking until it arrives.
///
/// # Errors
///
/// Propagates I/O errors (including clean EOF as
/// [`io::ErrorKind::UnexpectedEof`]) and rejects unknown type bytes or
/// oversized lengths as [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<(FrameType, Vec<u8>)> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let ty = FrameType::from_byte(head[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown frame type"))?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((ty, payload))
}

/// Reads one handshake frame from `stream`, failing with
/// [`io::ErrorKind::TimedOut`] when none arrives within `deadline`, so
/// a silent peer cannot hold either side. The deadline is cleared
/// afterwards: past the handshake each side's reader thread relies on
/// blocking reads, and `try_clone`d halves share the socket's timeout.
///
/// # Errors
///
/// As [`read_frame`], plus the timeout, which names `what`.
pub(crate) fn read_handshake(
    stream: &TcpStream,
    deadline: Duration,
    what: &str,
) -> io::Result<(FrameType, Vec<u8>)> {
    stream.set_read_timeout(Some(deadline))?;
    let frame = read_frame(&mut &*stream).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
            io::ErrorKind::TimedOut,
            format!("no {what} within {deadline:?}"),
        ),
        _ => e,
    });
    stream.set_read_timeout(None)?;
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_each_type() {
        for (ty, payload) in [
            (FrameType::Hello, &b"{\"proto\":2}"[..]),
            (FrameType::Result, b"header\nraw bytes"),
            (FrameType::Heartbeat, b""),
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, ty, payload).unwrap();
            let (got_ty, got) = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(got_ty, ty);
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn back_to_back_frames_do_not_bleed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Batch, b"abc").unwrap();
        write_frame(&mut buf, FrameType::ShardDone, b"{}").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (FrameType::Batch, b"abc".to_vec())
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (FrameType::ShardDone, b"{}".to_vec())
        );
        assert!(read_frame(&mut r).is_err(), "EOF after the last frame");
    }

    #[test]
    fn rejects_unknown_type_and_oversize() {
        // 7 and 8 are retired codes (shard revocation, protocol 1).
        for ty in [0xEEu8, 7, 8] {
            let mut bogus = vec![ty];
            bogus.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(
                read_frame(&mut bogus.as_slice()).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        let mut huge = vec![FrameType::Batch as u8];
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut huge.as_slice()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_payload_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Batch, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert_eq!(
            read_frame(&mut buf.as_slice()).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
