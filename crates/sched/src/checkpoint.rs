//! Checkpoint manifests: which jobs of a labeled run completed, and
//! whether the run finished.
//!
//! A manifest lists content hashes, so it names cache entries: a client
//! that reads it (`syncperf-serve`'s `GET /manifest/<label>`) fetches
//! the done entries and computes only the remainder. Resuming a run in
//! process needs no manifest at all: a rerun re-keys every job and the
//! cache serves whatever already completed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::hash::hex16;

/// How many completions may accumulate before the manifest is
/// re-flushed to disk (the floor — see [`Checkpoint::record`]).
pub const FLUSH_EVERY: usize = 32;

/// The on-disk progress manifest of one labeled run.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    label: String,
    done: BTreeSet<u64>,
    complete: bool,
    dirty: usize,
}

/// Restricts a run label to filesystem-safe characters.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Checkpoint {
    /// The manifest path for `label` under `dir`.
    #[must_use]
    pub fn path_for(dir: &Path, label: &str) -> PathBuf {
        dir.join(format!("checkpoint-{}.json", sanitize(label)))
    }

    /// A fresh, empty manifest for `label` (ignores any on-disk
    /// state).
    #[must_use]
    pub fn fresh(dir: &Path, label: &str) -> Self {
        Checkpoint {
            path: Self::path_for(dir, label),
            label: label.to_string(),
            done: BTreeSet::new(),
            complete: false,
            dirty: 0,
        }
    }

    /// Records a completed job, flushing the manifest to disk after at
    /// least [`FLUSH_EVERY`] new completions — and, once the manifest
    /// grows past a few hundred entries, after an eighth of its size.
    /// Each save rewrites the whole hash list, so a fixed interval
    /// would make total save work quadratic in sweep size; scaling the
    /// interval keeps it linear while still bounding how much an
    /// interrupted sweep can lose to about 12%.
    pub fn record(&mut self, hash: u64) {
        if self.done.insert(hash) {
            self.dirty += 1;
            if self.dirty >= FLUSH_EVERY.max(self.done.len() / 8) {
                let _ = self.save();
            }
        }
    }

    /// Marks the run complete and flushes.
    pub fn finish(&mut self) {
        self.complete = true;
        let _ = self.save();
    }

    /// Writes the manifest (temp file + atomic rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers treat the manifest as advisory
    /// and may ignore them.
    pub fn save(&mut self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        use std::fmt::Write as _;
        // Pre-size for the hash list (20 bytes per `"hex16", ` entry):
        // a long sweep re-saves periodically (see `record`), so the
        // encoder runs often enough to care about reallocation churn.
        let mut out = String::with_capacity(96 + self.label.len() + 20 * self.done.len());
        out.push_str("{\n");
        let _ = writeln!(out, "  \"label\": \"{}\",", sanitize(&self.label));
        let _ = writeln!(out, "  \"complete\": {},", self.complete);
        out.push_str("  \"done\": [");
        for (i, h) in self.done.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", hex16(*h));
        }
        out.push_str("]\n}\n");
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, &self.path)?;
        self.dirty = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::obs::json;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("syncperf-cp-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The saved manifest at `dir` for `label`, parsed as JSON.
    fn saved(dir: &Path, label: &str) -> json::Value {
        json::parse(&std::fs::read_to_string(Checkpoint::path_for(dir, label)).unwrap()).unwrap()
    }

    #[test]
    fn saved_manifest_round_trips_through_json() {
        let dir = tmp_dir("roundtrip");
        let mut cp = Checkpoint::fresh(&dir, "all_figures");
        cp.record(1);
        cp.record(2);
        cp.record(2);
        cp.save().unwrap();

        let v = saved(&dir, "all_figures");
        assert_eq!(
            v.get("label").and_then(json::Value::as_str),
            Some("all_figures")
        );
        assert!(matches!(v.get("complete"), Some(json::Value::Bool(false))));
        let done: Vec<&str> = v
            .get("done")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(json::Value::as_str)
            .collect();
        assert_eq!(done, [hex16(1), hex16(2)]);

        cp.finish();
        let v = saved(&dir, "all_figures");
        assert!(matches!(v.get("complete"), Some(json::Value::Bool(true))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labels_are_sanitized() {
        let p = Checkpoint::path_for(Path::new("/x"), "a/b c");
        assert_eq!(p, PathBuf::from("/x/checkpoint-a_b_c.json"));
    }
}
