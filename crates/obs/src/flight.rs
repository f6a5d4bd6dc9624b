//! Always-on flight recorder: a bounded ring of recent annotated
//! events kept for post-mortems.
//!
//! Unlike the trace [`Recorder`](crate::Recorder) — which is opt-in
//! and drains once — a [`FlightRecorder`] is cheap enough to leave on
//! in a long-running server: it holds the last `capacity` entries
//! (overwriting the oldest), can be sampled at any time via
//! [`FlightRecorder::tail`], and serializes to JSONL for
//! `GET /events` or a crash dump. [`FlightRecorder::install_panic_dump`]
//! registers a process-wide panic hook that writes every installed
//! ring to disk before the process dies, so the last seconds of
//! request history survive a crash.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default ring capacity (entries, not bytes).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Monotonically increasing sequence number (never reused, so
    /// consumers can detect how much the ring overwrote between
    /// polls).
    pub seq: u64,
    /// Microseconds since the Unix epoch at record time.
    pub unix_us: u64,
    /// Category (e.g. `"http"`, `"sched"`, `"lifecycle"`).
    pub cat: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl FlightEntry {
    /// This entry as one JSON object (one JSONL line without the
    /// trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"unix_us\":{},\"cat\":{},\"msg\":{}}}",
            self.seq,
            self.unix_us,
            crate::json::string(self.cat),
            crate::json::string(&self.msg)
        )
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    next_seq: AtomicU64,
    entries: Mutex<VecDeque<FlightEntry>>,
}

/// A bounded, overwriting ring of recent events (cheap to clone; all
/// clones share the ring).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

/// One panic-dump registration: where to write, and which ring (weak:
/// a dropped recorder just stops being dumped).
type DumpTarget = (PathBuf, Weak<FlightInner>);

/// Rings registered for the panic-hook dump.
static DUMP_REGISTRY: OnceLock<Mutex<Vec<DumpTarget>>> = OnceLock::new();
static PANIC_HOOK: Once = Once::new();

fn dump_registry() -> &'static Mutex<Vec<DumpTarget>> {
    DUMP_REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                capacity: capacity.max(1),
                next_seq: AtomicU64::new(0),
                entries: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn record(&self, cat: &'static str, msg: impl Into<String>) {
        let entry = FlightEntry {
            seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
            unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            cat,
            msg: msg.into(),
        };
        let mut entries = self
            .inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if entries.len() == self.inner.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The last `n` entries, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<FlightEntry> {
        let entries = self
            .inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        entries
            .iter()
            .skip(entries.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Entries recorded so far (including overwritten ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.next_seq.load(Ordering::Relaxed)
    }

    /// The whole ring as JSONL (one entry per line, oldest first).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.tail(usize::MAX) {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the ring to `path` as JSONL (creating parent
    /// directories).
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// Registers this ring to be dumped to `path` when the process
    /// panics (any thread). The hook chains onto the existing panic
    /// hook, fires once per registered ring, and skips rings already
    /// dropped. Call [`dump_installed`] from a signal handler path to
    /// trigger the same dump on e.g. SIGTERM.
    pub fn install_panic_dump(&self, path: impl Into<PathBuf>) {
        dump_registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((path.into(), Arc::downgrade(&self.inner)));
        PANIC_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                dump_installed();
                prev(info);
            }));
        });
    }
}

/// Dumps every ring registered via
/// [`FlightRecorder::install_panic_dump`] to its path now. Also what
/// the panic hook runs; call it from shutdown/SIGTERM paths to get the
/// same post-mortem artifact without a panic. Returns how many rings
/// were written.
pub fn dump_installed() -> usize {
    let mut written = 0;
    let registry = dump_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for (path, weak) in registry.iter() {
        if let Some(inner) = weak.upgrade() {
            let rec = FlightRecorder { inner };
            if rec.dump_to(path).is_ok() {
                written += 1;
            }
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_seq() {
        let fr = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            fr.record("t", format!("m{i}"));
        }
        let tail = fr.tail(10);
        assert_eq!(tail.len(), 3);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest entries evicted, sequence numbers preserved"
        );
        assert_eq!(fr.recorded(), 5);
        assert_eq!(fr.tail(2).len(), 2);
        assert_eq!(fr.tail(2)[0].msg, "m3");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let fr = FlightRecorder::with_capacity(8);
        fr.record("http", "GET /stats 200 in 42us");
        fr.record("lifecycle", "shutdown \"requested\"");
        let jsonl = fr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let obj = crate::json::parse(line).expect("valid JSON");
            assert!(obj.get("seq").is_some());
            assert!(obj.get("unix_us").is_some());
            assert!(obj.get("cat").is_some());
            assert!(obj.get("msg").is_some());
        }
    }

    #[test]
    fn dump_writes_file_and_registry_survives_drop() {
        let dir = std::env::temp_dir().join(format!("syncperf-flight-{}", std::process::id()));
        let path = dir.join("dump.jsonl");
        let fr = FlightRecorder::with_capacity(4);
        fr.record("t", "before dump");
        fr.install_panic_dump(&path);
        assert!(dump_installed() >= 1);
        let written = std::fs::read_to_string(&path).expect("dump exists");
        assert!(written.contains("before dump"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
