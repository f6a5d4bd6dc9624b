//! The content-addressed on-disk result cache.
//!
//! One JSON file per job under `<results>/.cache/<hash16>.json`, where
//! the name is the job's content hash. Entries are written directly to
//! their final name: loads are corruption-tolerant — any parse or
//! validation failure (including a torn or half-written file) is
//! treated as a miss (recompute), never an error — and entry bytes are
//! a deterministic function of the hash, so concurrent writers of the
//! same entry produce identical bytes. A sweep stores thousands of
//! entries and each syscall is real kernel time, which is why the
//! write path doesn't pay for a temp file plus rename.
//!
//! As defense in depth, every entry also embeds its own hash (the
//! `"hash"` field); a load rejects any entry whose stored hash
//! disagrees with the file name it was loaded under, so a copied or
//! renamed entry file can never answer for a different job even when
//! its kernel/params happen to match.
//!
//! The entry layout is a fixed grammar. [`decode_measurement`] reads
//! it in one pass, in the encoder's field order with its literal
//! separators, and builds the [`Measurement`] directly; it accepts
//! exactly what [`encode_measurement`] writes, and anything else —
//! a torn prefix, or valid JSON in another layout — is a miss. The
//! encoder is the only writer (the distributed path ships its bytes
//! verbatim). The layout is pinned in both directions:
//! `encoder_bytes_are_stable` fails on any change to what the encoder
//! writes, and the round-trip tests fail if the decoder drifts from it.
//!
//! Floats are serialized with Rust's shortest round-trip formatting
//! (`{:?}`) and parsed back with `str::parse::<f64>`, which restores
//! the exact bit pattern. A cached [`Measurement`] is therefore
//! byte-identical to a recomputed one in every downstream rendering —
//! the property the warm-cache CSV tests pin down.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};
use std::time::SystemTime;

use syncperf_core::{Affinity, ExecParams, Measurement, TimeUnit};

use crate::hash::{hex16, parse_hex16};

/// On-disk facts about one cache entry, as reported by
/// [`Cache::entries`] — what an index or eviction policy needs without
/// decoding the entry body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryInfo {
    /// The entry's content hash (from its file name).
    pub hash: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Last modification time (the store time), when the filesystem
    /// reports one.
    pub modified: Option<SystemTime>,
}

/// Handle to one cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    /// Guards the one-time `create_dir_all` — a sweep stores thousands
    /// of entries and must not pay a directory-existence syscall per
    /// store. Shared across clones so the guard stays one-time.
    dir_ensured: Arc<Once>,
}

impl Cache {
    /// A cache rooted at `dir` (created lazily on first store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Cache {
            dir: dir.into(),
            dir_ensured: Arc::new(Once::new()),
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a job hash.
    #[must_use]
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{}.json", hex16(hash)))
    }

    /// Loads the entry for `hash`, or `None` on miss *or* on any kind
    /// of corruption (unreadable file, bad JSON, missing fields,
    /// non-finite or inconsistent values, or a stored hash that
    /// disagrees with the file name).
    #[must_use]
    pub fn load(&self, hash: u64) -> Option<Measurement> {
        let text = std::fs::read_to_string(self.entry_path(hash)).ok()?;
        decode_measurement(hash, &text)
    }

    /// Stores `m` as the entry for `hash`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the scheduler downgrades them to a
    /// warning — a read-only cache must not fail the run).
    pub fn store(&self, hash: u64, m: &Measurement) -> std::io::Result<()> {
        self.store_raw(hash, &encode_measurement(hash, m))
    }

    /// Stores already-encoded entry text under `hash`, writing the
    /// final name directly (see the module docs for why a reader
    /// racing the write stays correct). The distributed coordinator
    /// uses this to persist entry bytes exactly as a worker sent them
    /// (after validating with [`decode_measurement`]), so a
    /// distributed cache file is byte-identical to a locally stored
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn store_raw(&self, hash: u64, encoded: &str) -> std::io::Result<()> {
        self.dir_ensured
            .call_once(|| drop(std::fs::create_dir_all(&self.dir)));
        let path = self.entry_path(hash);
        if let Err(e) = std::fs::write(&path, encoded) {
            // The directory may have been removed since the one-time
            // guard ran (tests and eviction churn do this): recreate it
            // and retry once rather than failing every later store.
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e);
            }
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(&path, encoded)?;
        }
        Ok(())
    }

    /// Lists every entry currently on disk (files named
    /// `<hex16>.json`), with size and modification time. Temp files,
    /// checkpoint manifests, and anything else in the directory are
    /// skipped. A missing directory is an empty cache.
    #[must_use]
    pub fn entries(&self) -> Vec<EntryInfo> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for e in dir.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            let Some(hash) = parse_hex16(stem) else {
                continue;
            };
            let Ok(meta) = e.metadata() else { continue };
            out.push(EntryInfo {
                hash,
                bytes: meta.len(),
                modified: meta.modified().ok(),
            });
        }
        // Deterministic order for callers that seed recency from it.
        out.sort_by_key(|e| e.hash);
        out
    }

    /// Lists just the content hashes of the entries on disk — one
    /// directory scan, no per-file `stat`. The scheduler seeds its
    /// presence set from this so a cold sweep doesn't pay one failed
    /// `open()` per miss probe.
    #[must_use]
    pub fn hashes(&self) -> Vec<u64> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        dir.flatten()
            .filter_map(|e| {
                let name = e.file_name();
                parse_hex16(name.to_str()?.strip_suffix(".json")?)
            })
            .collect()
    }

    /// Removes the entry for `hash`, returning whether a file was
    /// actually deleted (`false` when it was already gone — another
    /// evictor may have raced us, which is fine).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `NotFound`.
    pub fn remove(&self, hash: u64) -> std::io::Result<bool> {
        match std::fs::remove_file(self.entry_path(hash)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Total bytes of all entries currently on disk.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries().iter().map(|e| e.bytes).sum()
    }
}

fn push_runs(out: &mut String, key: &str, runs: &[f64]) {
    use std::fmt::Write as _;
    out.push_str("  \"");
    out.push_str(key);
    out.push_str("\": [");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{r:?}");
    }
    out.push_str("],\n");
}

/// Renders a [`Measurement`] as the cache-entry JSON document for
/// `hash` (the hash is embedded so a misfiled copy is detectable).
///
/// Everything is written into one pre-sized buffer — a sweep stores
/// thousands of entries, and the per-field `format!` allocations the
/// old encoder paid were measurable in cold-run profiles. The emitted
/// bytes are unchanged (the distributed path depends on entry files
/// being byte-identical across encoders).
#[must_use]
pub fn encode_measurement(hash: u64, m: &Measurement) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512 + 24 * (m.baseline_runs.len() + m.test_runs.len()));
    out.push_str("{\n  \"schema\": 2,\n");
    let _ = writeln!(out, "  \"hash\": \"{}\",", hex16(hash));
    out.push_str("  \"kernel\": ");
    syncperf_core::obs::json::push_string(&mut out, &m.kernel_name);
    out.push_str(",\n");
    let p = &m.params;
    let _ = writeln!(
        out,
        "  \"params\": {{\"threads\": {}, \"blocks\": {}, \"affinity\": \"{}\", \
         \"n_iter\": {}, \"n_unroll\": {}, \"n_warmup\": {}}},",
        p.threads,
        p.blocks,
        p.affinity.label(),
        p.n_iter,
        p.n_unroll,
        p.n_warmup
    );
    match m.time_unit {
        TimeUnit::Seconds => out.push_str("  \"time_unit\": {\"kind\": \"seconds\"},\n"),
        TimeUnit::Cycles { clock_ghz } => {
            let _ = writeln!(
                out,
                "  \"time_unit\": {{\"kind\": \"cycles\", \"clock_ghz\": {clock_ghz:?}}},"
            );
        }
    }
    push_runs(&mut out, "baseline_runs", &m.baseline_runs);
    push_runs(&mut out, "test_runs", &m.test_runs);
    let _ = write!(
        out,
        "  \"median_baseline\": {:?},\n  \"median_test\": {:?},\n  \"per_op\": {:?},\n",
        m.median_baseline, m.median_test, m.per_op
    );
    let _ = write!(
        out,
        "  \"retries\": {},\n  \"exhausted_runs\": {}\n}}\n",
        m.retries, m.exhausted_runs
    );
    out
}

/// A cursor over one entry's text that reads exactly the layout
/// [`encode_measurement`] writes, in its field order with its literal
/// separators. Every read returns `None` the moment the text departs
/// from that layout.
struct EntryReader<'a> {
    rest: &'a str,
}

impl<'a> EntryReader<'a> {
    /// Consumes the literal `lit`.
    fn lit(&mut self, lit: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(lit)?;
        Some(())
    }

    /// Consumes the first label in `options` the text starts with and
    /// returns its value.
    fn label<T: Copy>(&mut self, options: &[(&str, T)]) -> Option<T> {
        options
            .iter()
            .find_map(|&(label, value)| self.lit(label).map(|()| value))
    }

    /// Splits off the next `len` bytes.
    fn take(&mut self, len: usize) -> Option<&'a str> {
        let tok = self.rest.get(..len)?;
        self.rest = &self.rest[len..];
        Some(tok)
    }

    /// A whole decimal `u32` as the encoder writes it: digits only.
    fn u32(&mut self) -> Option<u32> {
        let len = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        if len == 0 || len > 10 {
            return None;
        }
        let v = self
            .take(len)?
            .bytes()
            .fold(0u64, |v, d| v * 10 + u64::from(d - b'0'));
        u32::try_from(v).ok()
    }

    /// A finite `f64`. The token extent is the one `obs::json` scans
    /// (`-`? digits (`.` digits)? ([eE] [+-]? digits)?, starting with
    /// `-` or a digit), so a bare `str::parse` never sees — and never
    /// accepts — `.5`, `+5` or `inf`.
    fn f64(&mut self) -> Option<f64> {
        let b = self.rest.as_bytes();
        let digits = |i: usize| i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        let first = *b.first()?;
        if first != b'-' && !first.is_ascii_digit() {
            return None;
        }
        let mut len = digits(usize::from(first == b'-'));
        if b.get(len) == Some(&b'.') {
            len = digits(len + 1);
        }
        if matches!(b.get(len), Some(b'e' | b'E')) {
            len += 1;
            if matches!(b.get(len), Some(b'+' | b'-')) {
                len += 1;
            }
            len = digits(len);
        }
        let x: f64 = self.take(len)?.parse().ok()?;
        x.is_finite().then_some(x)
    }

    /// A non-empty run list `[x, y, ...]`, read into a vector sized
    /// exactly from its separator count.
    fn runs(&mut self) -> Option<Vec<f64>> {
        self.lit("[")?;
        let end = self.rest.find(']')?;
        let mut runs = Vec::with_capacity(self.rest[..end].matches(',').count() + 1);
        runs.push(self.f64()?);
        while self.lit(", ").is_some() {
            runs.push(self.f64()?);
        }
        self.lit("]")?;
        Some(runs)
    }

    /// `len` lowercase hex digits, as [`hex16`] and the `\u00xx`
    /// escapes write them.
    fn hex(&mut self, len: usize) -> Option<u64> {
        self.take(len)?.bytes().try_fold(0u64, |h, c| {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                _ => return None,
            };
            Some(h << 4 | u64::from(d))
        })
    }

    /// A quoted string with exactly the escapes `json::push_string`
    /// writes: `\"`, `\\`, `\n`, and `\u00xx` for the other control
    /// characters. Raw control characters are rejected.
    fn string(&mut self) -> Option<String> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            let run = self
                .rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
            out.push_str(self.take(run)?);
            if self.lit("\"").is_some() {
                return Some(out);
            }
            self.lit("\\")?;
            if let Some(c) = self.label(&[("\"", '"'), ("\\", '\\'), ("n", '\n')]) {
                out.push(c);
                continue;
            }
            self.lit("u00")?;
            let code = self.hex(2)?;
            if code >= 0x20 || code == u64::from(b'\n') {
                return None;
            }
            out.push(char::from(code as u8));
        }
    }
}

/// Parses the cache entry expected to belong to `expected_hash` back
/// into a [`Measurement`]; `None` on any departure from the layout
/// [`encode_measurement`] writes *or* when the entry's stored hash
/// disagrees with the expected one (the caller recomputes).
///
/// One pass over the text builds the measurement directly. It checks
/// the schema and embedded hash, the affinity and time-unit labels,
/// that every `u32` is whole and in range, that every float is finite,
/// and that the run lists are non-empty and of equal length. Valid
/// JSON in any other layout is a miss too: the encoder is the only
/// writer.
#[must_use]
pub fn decode_measurement(expected_hash: u64, text: &str) -> Option<Measurement> {
    let mut r = EntryReader { rest: text };
    r.lit("{\n  \"schema\": 2,\n  \"hash\": \"")?;
    if r.hex(16)? != expected_hash {
        return None;
    }
    r.lit("\",\n  \"kernel\": ")?;
    let kernel_name = r.string()?;
    r.lit(",\n  \"params\": {\"threads\": ")?;
    let threads = r.u32()?;
    r.lit(", \"blocks\": ")?;
    let blocks = r.u32()?;
    r.lit(", \"affinity\": \"")?;
    let affinity = r.label(&[
        ("spread", Affinity::Spread),
        ("close", Affinity::Close),
        ("system", Affinity::SystemChoice),
    ])?;
    r.lit("\", \"n_iter\": ")?;
    let n_iter = r.u32()?;
    r.lit(", \"n_unroll\": ")?;
    let n_unroll = r.u32()?;
    r.lit(", \"n_warmup\": ")?;
    let n_warmup = r.u32()?;
    r.lit("},\n  \"time_unit\": {\"kind\": \"")?;
    let time_unit = if r.lit("seconds\"").is_some() {
        TimeUnit::Seconds
    } else {
        r.lit("cycles\", \"clock_ghz\": ")?;
        TimeUnit::Cycles {
            clock_ghz: r.f64()?,
        }
    };
    r.lit("},\n  \"baseline_runs\": ")?;
    let baseline_runs = r.runs()?;
    r.lit(",\n  \"test_runs\": ")?;
    let test_runs = r.runs()?;
    if baseline_runs.len() != test_runs.len() {
        return None;
    }
    r.lit(",\n  \"median_baseline\": ")?;
    let median_baseline = r.f64()?;
    r.lit(",\n  \"median_test\": ")?;
    let median_test = r.f64()?;
    r.lit(",\n  \"per_op\": ")?;
    let per_op = r.f64()?;
    r.lit(",\n  \"retries\": ")?;
    let retries = r.u32()?;
    r.lit(",\n  \"exhausted_runs\": ")?;
    let exhausted_runs = r.u32()?;
    r.lit("\n}\n")?;
    if !r.rest.is_empty() {
        return None;
    }

    Some(Measurement {
        kernel_name,
        params: ExecParams {
            threads,
            blocks,
            affinity,
            n_iter,
            n_unroll,
            n_warmup,
        },
        time_unit,
        baseline_runs,
        test_runs,
        median_baseline,
        median_test,
        per_op,
        retries,
        exhausted_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use syncperf_core::obs::json::{self, Value};

    fn get_f64(v: &Value, key: &str) -> Option<f64> {
        let x = v.get(key)?.as_f64()?;
        x.is_finite().then_some(x)
    }

    fn get_u32(v: &Value, key: &str) -> Option<u32> {
        let x = v.get(key)?.as_f64()?;
        (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= f64::from(u32::MAX))
            .then_some(x as u32)
    }

    fn get_runs(v: &Value, key: &str) -> Option<Vec<f64>> {
        v.get(key)?
            .as_array()?
            .iter()
            .map(|x| {
                let x = x.as_f64()?;
                x.is_finite().then_some(x)
            })
            .collect()
    }

    /// The tree-based decoder: parse any JSON document with `obs::json`,
    /// then pick the fields out by key. It accepts every layout of the
    /// same fields, so [`decode_measurement`] must never accept a text
    /// this rejects, and must agree with it wherever both accept.
    fn oracle_decode(expected_hash: u64, text: &str) -> Option<Measurement> {
        let v = json::parse(text).ok()?;
        if get_u32(&v, "schema")? != 2 {
            return None;
        }
        if v.get("hash")?.as_str().and_then(parse_hex16)? != expected_hash {
            return None;
        }
        let kernel_name = v.get("kernel")?.as_str()?.to_string();

        let p = v.get("params")?;
        let affinity = match p.get("affinity")?.as_str()? {
            "spread" => Affinity::Spread,
            "close" => Affinity::Close,
            "system" => Affinity::SystemChoice,
            _ => return None,
        };
        let params = ExecParams {
            threads: get_u32(p, "threads")?,
            blocks: get_u32(p, "blocks")?,
            affinity,
            n_iter: get_u32(p, "n_iter")?,
            n_unroll: get_u32(p, "n_unroll")?,
            n_warmup: get_u32(p, "n_warmup")?,
        };

        let tu = v.get("time_unit")?;
        let time_unit = match tu.get("kind")?.as_str()? {
            "seconds" => TimeUnit::Seconds,
            "cycles" => TimeUnit::Cycles {
                clock_ghz: get_f64(tu, "clock_ghz")?,
            },
            _ => return None,
        };

        let baseline_runs = get_runs(&v, "baseline_runs")?;
        let test_runs = get_runs(&v, "test_runs")?;
        if baseline_runs.is_empty() || baseline_runs.len() != test_runs.len() {
            return None;
        }

        Some(Measurement {
            kernel_name,
            params,
            time_unit,
            baseline_runs,
            test_runs,
            median_baseline: get_f64(&v, "median_baseline")?,
            median_test: get_f64(&v, "median_test")?,
            per_op: get_f64(&v, "per_op")?,
            retries: get_u32(&v, "retries")?,
            exhausted_runs: get_u32(&v, "exhausted_runs")?,
        })
    }

    fn sample() -> Measurement {
        Measurement {
            kernel_name: "omp_barrier".into(),
            params: ExecParams::new(8).with_loops(1000, 100),
            time_unit: TimeUnit::Cycles { clock_ghz: 2.52 },
            baseline_runs: vec![1.25e-3, 0.1 + 0.2, 3.0_f64.sqrt()],
            test_runs: vec![2.5e-3, 2.5e-3, 2.6e-3],
            median_baseline: 1.25e-3,
            median_test: 2.5e-3,
            per_op: 1.25e-8,
            retries: 3,
            exhausted_runs: 1,
        }
    }

    /// Both time units, all three affinities, the `u32` and float
    /// extremes, and a kernel name that needs every escape the encoder
    /// writes (plus a non-ASCII character it passes through raw).
    fn samples() -> Vec<Measurement> {
        let mut seconds = sample();
        seconds.kernel_name = "k\"q\\b\u{1}\n\tz \u{e9}".into();
        seconds.params.affinity = Affinity::Spread;
        seconds.time_unit = TimeUnit::Seconds;
        let mut close = sample();
        close.params = ExecParams {
            threads: u32::MAX,
            blocks: 0,
            affinity: Affinity::Close,
            n_iter: 1,
            n_unroll: 0,
            n_warmup: 4_000_000_000,
        };
        close.time_unit = TimeUnit::Cycles { clock_ghz: 1e-3 };
        close.baseline_runs = vec![-0.0];
        close.test_runs = vec![5e-324];
        close.median_baseline = -1.5e300;
        close.per_op = f64::MAX;
        vec![sample(), seconds, close]
    }

    /// SplitMix64: a seeded generator, so every run tests the same
    /// mutants.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Bytes a mutation writes: the structural and numeric characters
    /// both decoders branch on, plus a few neither accepts there.
    const MUTATION_BYTES: &[u8] = b"0123456789abcdefABCDEF-+.eE \n\t\"\\,:[]{}unx#";

    /// One to three edits of `text`: truncate, substitute, insert or
    /// delete a byte.
    fn mutate(rng: &mut SplitMix, text: &[u8]) -> Vec<u8> {
        let mut b = text.to_vec();
        for _ in 0..=rng.below(3) {
            let at = rng.below(b.len() + 1);
            let byte = MUTATION_BYTES[rng.below(MUTATION_BYTES.len())];
            match rng.below(8) {
                0 => b.truncate(at),
                1..=3 if at < b.len() => b[at] = byte,
                4 | 5 => b.insert(at, byte),
                _ if at < b.len() => drop(b.remove(at)),
                _ => {}
            }
        }
        b
    }

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("syncperf-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(dir)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let m = sample();
        let back = decode_measurement(42, &encode_measurement(42, &m)).unwrap();
        // PartialEq on f64 fields: exact bit-pattern equality is the
        // byte-identical-CSV guarantee.
        assert_eq!(back, m);
    }

    #[test]
    fn reader_never_accepts_what_the_tree_oracle_rejects() {
        let mut rng = SplitMix(0x5eed_cafe);
        let (mut both, mut stricter, mut mutants) = (0u32, 0u32, 0u32);
        for m in samples() {
            let text = encode_measurement(42, &m);
            assert_eq!(decode_measurement(42, &text).as_ref(), Some(&m));
            assert_eq!(oracle_decode(42, &text).as_ref(), Some(&m));
            for _ in 0..2000 {
                let bytes = mutate(&mut rng, text.as_bytes());
                let Ok(mutant) = std::str::from_utf8(&bytes) else {
                    continue;
                };
                mutants += 1;
                match (decode_measurement(42, mutant), oracle_decode(42, mutant)) {
                    (Some(got), Some(want)) => {
                        // Bit-exact: the encodings of the two agree.
                        assert_eq!(
                            encode_measurement(42, &got),
                            encode_measurement(42, &want),
                            "decoders disagree on:\n{mutant}"
                        );
                        both += 1;
                    }
                    (Some(_), None) => panic!("accepted a text the oracle rejects:\n{mutant}"),
                    (None, Some(_)) => stricter += 1,
                    (None, None) => {}
                }
            }
        }
        assert!(mutants > 5000, "only {mutants} mutants were valid UTF-8");
        // Digit edits inside numbers keep the layout, so some mutants
        // must reach the equality check; whitespace and number
        // spellings the encoder never writes are where it is stricter.
        assert!(both > 0 && stricter > 0, "both {both}, stricter {stricter}");
    }

    #[test]
    fn valid_json_in_another_layout_is_a_miss() {
        // The oracle reads each of these as the same measurement; the
        // reader takes only the encoder's own layout. (Float tokens keep
        // the generic JSON number grammar, so `1.25E-8` still reads.)
        let text = encode_measurement(42, &sample());
        let respelled = [
            text.replacen("{\n", "{", 1),
            text.replace("\"threads\": 8", "\"threads\": 8.0"),
            text.replace("\"retries\": 3", "\"retries\": 3e0"),
            text.replace("omp_barrier", "omp\\u005fbarrier"),
            text.replace("omp_barrier", "omp\tbarrier"),
            text.replace(&hex16(42), &hex16(42).to_uppercase()),
            text.replace("[0.0025, ", "[0.0025,"),
            text.replace("\n}\n", "}"),
            text.replace(
                "\"median_test\": 0.0025,\n  \"per_op\": 1.25e-8,\n",
                "\"per_op\": 1.25e-8,\n  \"median_test\": 0.0025,\n",
            ),
        ];
        for alt in &respelled {
            assert_ne!(alt, &text);
            assert!(oracle_decode(42, alt).is_some(), "oracle rejects:\n{alt}");
            assert!(
                decode_measurement(42, alt).is_none(),
                "reader accepts:\n{alt}"
            );
        }
    }

    #[test]
    fn every_proper_prefix_is_a_miss() {
        for m in samples() {
            let text = encode_measurement(42, &m);
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert!(
                    decode_measurement(42, &text[..cut]).is_none(),
                    "a {cut}-byte prefix decoded"
                );
            }
        }
    }

    #[test]
    fn loads_racing_a_growing_write_see_a_miss_or_the_exact_entry() {
        // A direct-name write exposes every prefix of the entry to a
        // concurrent reader; none of them may decode to anything else.
        let cache = tmp_cache("race");
        let m = sample();
        let text = encode_measurement(42, &m);
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for _ in 0..3 {
                    for cut in 0..=text.len() {
                        cache.store_raw(42, &text[..cut]).unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            while !done.load(Ordering::Acquire) {
                if let Some(got) = cache.load(42) {
                    assert_eq!(got, m);
                }
            }
        });
        assert_eq!(cache.load(42), Some(m));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn encoder_bytes_are_stable() {
        // The distributed path stores worker-sent entry bytes verbatim,
        // so the encoder's exact layout is part of the wire contract.
        let text = encode_measurement(42, &sample());
        let head = format!("{{\n  \"schema\": 2,\n  \"hash\": \"{}\",\n", hex16(42));
        assert!(text.starts_with(&head), "text:\n{text}");
        assert!(text.contains("  \"kernel\": \"omp_barrier\",\n"));
        assert!(text.contains(
            "  \"params\": {\"threads\": 8, \"blocks\": 1, \"affinity\": \"system\", \
             \"n_iter\": 1000, \"n_unroll\": 100, \"n_warmup\": 10},\n"
        ));
        // Shortest round-trip float formatting (0.1 + 0.2).
        assert!(text.contains("0.30000000000000004"));
        assert!(text.ends_with("  \"retries\": 3,\n  \"exhausted_runs\": 1\n}\n"));
    }

    #[test]
    fn mismatched_hash_field_is_a_miss() {
        let cache = tmp_cache("hash-mismatch");
        let m = sample();
        cache.store(42, &m).unwrap();
        // A copied/renamed entry must never answer for another hash,
        // even though its body is perfectly valid.
        std::fs::copy(cache.entry_path(42), cache.entry_path(43)).unwrap();
        assert!(cache.load(42).is_some(), "original still loads");
        assert!(cache.load(43).is_none(), "misfiled copy must miss");
        // And a directly tampered hash field invalidates the original.
        let text = encode_measurement(42, &m);
        assert!(decode_measurement(43, &text).is_none());
        let tampered = text.replace(&hex16(42), &hex16(99));
        assert!(decode_measurement(42, &tampered).is_none());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn entries_lists_and_remove_deletes() {
        let cache = tmp_cache("entries");
        assert!(cache.entries().is_empty(), "missing dir is empty");
        let m = sample();
        cache.store(1, &m).unwrap();
        cache.store(2, &m).unwrap();
        // Non-entry files are ignored by the listing.
        std::fs::write(cache.dir().join("checkpoint-x.json"), "{}").unwrap();
        std::fs::write(cache.dir().join(".0000000000000001.tmp.1"), "x").unwrap();
        let entries = cache.entries();
        assert_eq!(
            entries.iter().map(|e| e.hash).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(entries.iter().all(|e| e.bytes > 0));
        assert_eq!(cache.total_bytes(), entries.iter().map(|e| e.bytes).sum());
        assert!(cache.remove(1).unwrap());
        assert!(!cache.remove(1).unwrap(), "second remove is a no-op");
        assert!(cache.load(1).is_none());
        assert!(cache.load(2).is_some());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn store_then_load() {
        let cache = tmp_cache("roundtrip");
        let m = sample();
        assert!(cache.load(42).is_none(), "cold cache misses");
        cache.store(42, &m).unwrap();
        assert_eq!(cache.load(42).unwrap(), m);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_and_garbled_entries_are_misses() {
        let cache = tmp_cache("corrupt");
        let m = sample();
        cache.store(7, &m).unwrap();
        let path = cache.entry_path(7);

        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(7).is_none(), "truncated entry must miss");

        std::fs::write(&path, "not json at all").unwrap();
        assert!(cache.load(7).is_none(), "garbled entry must miss");

        // Structurally valid JSON with broken content also misses.
        std::fs::write(&path, "{\"schema\": 1, \"kernel\": \"x\"}").unwrap();
        assert!(cache.load(7).is_none(), "incomplete entry must miss");

        // Mismatched run lengths are rejected.
        let bad = full.replace(
            "\"test_runs\": [0.0025, 0.0025, 0.0026]",
            "\"test_runs\": [0.0025]",
        );
        std::fs::write(&path, bad).unwrap();
        assert!(cache.load(7).is_none(), "inconsistent entry must miss");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        let m = sample();
        let text = encode_measurement(7, &m).replace("1.25e-8", "1e999");
        assert!(decode_measurement(7, &text).is_none());
    }

    #[test]
    fn seconds_unit_roundtrips() {
        let mut m = sample();
        m.time_unit = TimeUnit::Seconds;
        assert_eq!(
            decode_measurement(7, &encode_measurement(7, &m)).unwrap(),
            m
        );
    }
}
