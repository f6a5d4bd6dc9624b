//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and end offset from the recorder's origin,
//! the span that caused it, and a trace id shared by every span of one
//! operation (one sweep, one request). Spans are recorded around the
//! benchmark's calls into each layer and written out once, at exit. A
//! span's self time is its duration minus the time its children cover.
//! When the recorder is off, `enter`/`exit` do nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. One per thread; [`Tracer::absorb`] merges another
/// thread's spans in.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new trace: later root spans carry this id.
    pub fn begin_trace(&mut self, id: u64) {
        self.trace = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Appends another recorder's (closed) spans, re-basing parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration of spans named `name` per trace id.
    pub fn per_trace_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.trace).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per-name rows of (calls, total ns, self ns), sorted by name.
    pub fn ledger(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += own;
        }
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("root");
        t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let rows = t.ledger();
        let (calls, total, own) = rows["root"];
        assert_eq!(calls, 1);
        assert_eq!(own + rows["child"].1, total);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("x", || ());
        assert!(t.ledger().is_empty());
    }
}
