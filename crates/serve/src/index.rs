//! The in-memory measurement index over the content-addressed cache,
//! plus the LRU + size-budget eviction policy for its on-disk half.
//!
//! On startup the index scans `results/.cache`, decodes every valid
//! entry (misfiled or corrupt entries are skipped, exactly as the
//! scheduler would skip them), and keeps the decoded [`Measurement`]s
//! in memory keyed by content hash, with a secondary kernel-name map
//! for parameter queries. Incremental updates arrive through the
//! scheduler's store hook, so a `/compute` is visible to `/query` the
//! moment its cache entry lands on disk.
//!
//! Reads are served from the in-memory copies — a reader can never
//! observe a torn file — and each read hands the reader its own copy
//! of the measurement, rendered within the same request. Eviction
//! (`serve --cache-bytes`) walks entries in least-recently-used order
//! and deletes from disk *and* memory, but never touches an entry named
//! by an in-flight compute writer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use syncperf_core::Measurement;
use syncperf_sched::Cache;

/// One indexed cache entry.
#[derive(Debug, Clone)]
struct Entry {
    measurement: Measurement,
    bytes: u64,
    /// Monotonic touch tick; larger = more recently used.
    last_used: u64,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<u64, Entry>,
    /// kernel name -> hashes of entries for that kernel.
    by_kernel: HashMap<String, Vec<u64>>,
    tick: u64,
    total_bytes: u64,
}

/// The shared measurement index. All methods are safe to call from
/// any worker thread.
#[derive(Debug)]
pub struct Index {
    cache: Cache,
    /// On-disk size budget in bytes (`None` = unbounded).
    budget: Option<u64>,
    state: Mutex<State>,
}

/// An exact-or-nearest query against the index.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Kernel name, or a kernel-family prefix when `dtype` is given
    /// (the entry name is then `<kernel>_<dtype>`).
    pub kernel: String,
    /// Optional dtype label suffix (`int`, `ull`, `float`, `double`).
    pub dtype: Option<String>,
    /// Requested thread count.
    pub threads: u32,
    /// Optional block-count filter (GPU sweeps).
    pub blocks: Option<u32>,
    /// When true, only a distance-0 thread match answers.
    pub exact: bool,
}

/// A successful query: the matched entry and how far its thread count
/// is from the request.
#[derive(Debug)]
pub struct QueryMatch {
    /// The matched entry's content hash.
    pub hash: u64,
    /// Absolute thread-count distance (0 = exact).
    pub distance: u32,
    /// The matched measurement.
    pub measurement: Measurement,
}

impl Index {
    /// Builds the index by scanning and decoding every entry in
    /// `cache`. Initial recency is seeded from file modification
    /// times, so a restarted server evicts cold history first.
    #[must_use]
    pub fn build(cache: Cache, budget: Option<u64>) -> Arc<Self> {
        let mut infos = cache.entries();
        infos.sort_by_key(|e| e.modified);
        let index = Arc::new(Index {
            cache,
            budget,
            state: Mutex::new(State::default()),
        });
        for info in infos {
            let Some(m) = index.cache.load(info.hash) else {
                continue;
            };
            index.insert_entry(info.hash, m, info.bytes);
        }
        index
    }

    /// The underlying cache handle.
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The configured size budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total on-disk bytes of indexed entries.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().unwrap().total_bytes
    }

    fn insert_entry(&self, hash: u64, m: Measurement, bytes: u64) {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        let kernel = m.kernel_name.clone();
        let old = st.entries.insert(
            hash,
            Entry {
                measurement: m,
                bytes,
                last_used: tick,
            },
        );
        st.total_bytes += bytes;
        if let Some(old) = old {
            // Replaced in place (same hash, same kernel): only the
            // byte accounting changes.
            st.total_bytes -= old.bytes;
        } else {
            st.by_kernel.entry(kernel).or_default().push(hash);
        }
    }

    /// Incremental insert, as driven by the scheduler's store hook:
    /// the entry for `hash` was just written to disk.
    pub fn insert(&self, hash: u64, m: &Measurement) {
        let bytes = std::fs::metadata(self.cache.entry_path(hash)).map_or(0, |md| md.len());
        self.insert_entry(hash, m.clone(), bytes);
    }

    /// The measurement for `hash`, touching its recency.
    #[must_use]
    pub fn get(&self, hash: u64) -> Option<Measurement> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        let e = st.entries.get_mut(&hash)?;
        e.last_used = tick;
        Some(e.measurement.clone())
    }

    /// Answers `q` with the exact entry when one matches, else the
    /// nearest by thread count (ties broken toward fewer threads, then
    /// lower hash, so answers are deterministic).
    #[must_use]
    pub fn query(&self, q: &Query) -> Option<QueryMatch> {
        let target_name = q
            .dtype
            .as_ref()
            .map_or_else(|| q.kernel.clone(), |dt| format!("{}_{dt}", q.kernel));
        let best = {
            let st = self.state.lock().unwrap();
            // Exact kernel-name match first; with no dtype given, fall
            // back to the whole `<kernel>_*` family.
            let mut candidates: Vec<u64> =
                st.by_kernel.get(&target_name).cloned().unwrap_or_default();
            if candidates.is_empty() && q.dtype.is_none() {
                let prefix = format!("{}_", q.kernel);
                for (name, hashes) in &st.by_kernel {
                    if name.starts_with(&prefix) {
                        candidates.extend_from_slice(hashes);
                    }
                }
            }
            candidates
                .into_iter()
                .filter_map(|h| {
                    let e = st.entries.get(&h)?;
                    let p = &e.measurement.params;
                    if q.blocks.is_some_and(|b| b != p.blocks) {
                        return None;
                    }
                    let distance = p.threads.abs_diff(q.threads);
                    if q.exact && distance != 0 {
                        return None;
                    }
                    Some((distance, p.threads, h))
                })
                .min()
        };
        let (distance, _, hash) = best?;
        let measurement = self.get(hash)?;
        Some(QueryMatch {
            hash,
            distance,
            measurement,
        })
    }

    /// Reconciles the index with the on-disk cache directory: entries
    /// written by *other* processes sharing the directory (multi-
    /// replica serving) are decoded and indexed, and entries another
    /// replica evicted from disk are dropped from memory. Returns
    /// `(added, removed)`.
    ///
    /// The event loop calls this periodically (`ServeConfig::
    /// index_refresh`); the scan is one `readdir` plus a decode per
    /// *new* entry, so steady state costs microseconds.
    pub fn refresh(&self) -> (u64, u64) {
        // Snapshot the known set *before* the readdir: an entry our
        // own store hook inserts mid-scan is then absent from `known`
        // and can never be mistaken for a foreign eviction.
        let known: Vec<u64> = {
            let st = self.state.lock().unwrap();
            st.entries.keys().copied().collect()
        };
        let infos = self.cache.entries();
        let on_disk: std::collections::HashSet<u64> = infos.iter().map(|i| i.hash).collect();

        let mut added = 0u64;
        for info in infos {
            if self.state.lock().unwrap().entries.contains_key(&info.hash) {
                continue;
            }
            // Decode outside the lock; misfiled or torn entries are
            // skipped exactly as at startup.
            let Some(m) = self.cache.load(info.hash) else {
                continue;
            };
            self.insert_entry(info.hash, m, info.bytes);
            added += 1;
        }

        let mut removed = 0u64;
        let mut st = self.state.lock().unwrap();
        for hash in known {
            if on_disk.contains(&hash) {
                continue;
            }
            let Some(e) = st.entries.remove(&hash) else {
                continue;
            };
            st.total_bytes -= e.bytes;
            let kernel = e.measurement.kernel_name;
            if let Some(hs) = st.by_kernel.get_mut(&kernel) {
                hs.retain(|h| *h != hash);
                if hs.is_empty() {
                    st.by_kernel.remove(&kernel);
                }
            }
            removed += 1;
        }
        (added, removed)
    }

    /// Evicts least-recently-used entries (disk file + index entry)
    /// until the on-disk total fits the budget. Entries whose hash
    /// `writer_inflight` reports as having an in-flight writer are
    /// never evicted. Returns the number of entries evicted.
    pub fn evict_to_budget(&self, writer_inflight: &dyn Fn(u64) -> bool) -> u64 {
        let Some(budget) = self.budget else { return 0 };
        let mut evicted = 0u64;
        loop {
            let victim = {
                let st = self.state.lock().unwrap();
                if st.total_bytes <= budget {
                    return evicted;
                }
                st.entries
                    .iter()
                    .filter(|(h, _)| !writer_inflight(**h))
                    .min_by_key(|(h, e)| (e.last_used, **h))
                    .map(|(h, _)| *h)
            };
            let Some(hash) = victim else {
                // Everything over budget is being written;
                // try again after the next store.
                return evicted;
            };
            // Remove from disk first; a crash between the two steps
            // only costs an index rebuild.
            let _ = self.cache.remove(hash);
            let mut st = self.state.lock().unwrap();
            if let Some(e) = st.entries.remove(&hash) {
                st.total_bytes -= e.bytes;
                let kernel = e.measurement.kernel_name;
                if let Some(hs) = st.by_kernel.get_mut(&kernel) {
                    hs.retain(|h| *h != hash);
                    if hs.is_empty() {
                        st.by_kernel.remove(&kernel);
                    }
                }
            }
            evicted += 1;
        }
    }

    /// Internal consistency check (used by tests): the byte total
    /// matches the per-entry sum and every kernel-map hash exists.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let st = self.state.lock().unwrap();
        let sum: u64 = st.entries.values().map(|e| e.bytes).sum();
        sum == st.total_bytes
            && st
                .by_kernel
                .values()
                .flatten()
                .all(|h| st.entries.contains_key(h))
            && st.entries.len() == st.by_kernel.values().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{ExecParams, TimeUnit};

    fn measurement(kernel: &str, threads: u32) -> Measurement {
        Measurement {
            kernel_name: kernel.into(),
            params: ExecParams::new(threads).with_loops(100, 10),
            time_unit: TimeUnit::Seconds,
            baseline_runs: vec![1.0, 2.0, 3.0],
            test_runs: vec![2.0, 3.0, 4.0],
            median_baseline: 2.0,
            median_test: 3.0,
            per_op: 1e-9,
            retries: 0,
            exhausted_runs: 0,
        }
    }

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("syncperf-serve-index-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(dir)
    }

    #[test]
    fn build_indexes_valid_entries_and_skips_misfiled_ones() {
        let cache = tmp_cache("build");
        cache.store(1, &measurement("omp_barrier", 4)).unwrap();
        cache.store(2, &measurement("omp_barrier", 8)).unwrap();
        // A misfiled copy (hash mismatch) must not be indexed.
        std::fs::copy(cache.entry_path(1), cache.entry_path(3)).unwrap();
        std::fs::write(cache.entry_path(4), "garbage").unwrap();
        let dir = cache.dir().to_path_buf();
        let idx = Index::build(cache, None);
        assert_eq!(idx.len(), 2);
        assert!(idx.get(1).is_some() && idx.get(2).is_some());
        assert!(idx.get(3).is_none() && idx.get(4).is_none());
        assert!(idx.is_consistent());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn query_exact_and_nearest() {
        let cache = tmp_cache("query");
        cache
            .store(1, &measurement("omp_atomicadd_scalar_int", 2))
            .unwrap();
        cache
            .store(2, &measurement("omp_atomicadd_scalar_int", 8))
            .unwrap();
        cache
            .store(3, &measurement("omp_atomicadd_scalar_ull", 8))
            .unwrap();
        let dir = cache.dir().to_path_buf();
        let idx = Index::build(cache, None);

        // Exact thread hit on the fully-qualified name.
        let q = Query {
            kernel: "omp_atomicadd_scalar_int".into(),
            threads: 8,
            ..Query::default()
        };
        let m = idx.query(&q).unwrap();
        assert_eq!((m.hash, m.distance), (2, 0));

        // dtype spelled separately.
        let q = Query {
            kernel: "omp_atomicadd_scalar".into(),
            dtype: Some("ull".into()),
            threads: 6,
            ..Query::default()
        };
        let m = idx.query(&q).unwrap();
        assert_eq!((m.hash, m.distance), (3, 2));

        // Nearest across the family when no dtype is given.
        let q = Query {
            kernel: "omp_atomicadd_scalar".into(),
            threads: 3,
            ..Query::default()
        };
        let m = idx.query(&q).unwrap();
        assert_eq!((m.hash, m.distance), (1, 1));

        // exact=1 refuses a near miss.
        let q = Query {
            kernel: "omp_atomicadd_scalar_int".into(),
            threads: 5,
            exact: true,
            ..Query::default()
        };
        assert!(idx.query(&q).is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn eviction_respects_budget_lru_and_inflight_writers() {
        let cache = tmp_cache("evict");
        for (h, t) in [(1u64, 2u32), (2, 4), (3, 8), (4, 16)] {
            cache.store(h, &measurement("omp_barrier", t)).unwrap();
        }
        let dir = cache.dir().to_path_buf();
        let entry_bytes = Cache::new(&dir).entries()[0].bytes;
        // Budget for two entries.
        let idx = Index::build(Cache::new(&dir), Some(entry_bytes * 2 + 1));
        assert_eq!(idx.len(), 4);

        // Touch 3, then 1: the two least recently used are 2 and 4.
        assert!(idx.get(3).is_some() && idx.get(1).is_some());
        let evicted = idx.evict_to_budget(&|_| false);
        assert_eq!(evicted, 2, "two entries over budget");
        assert!(
            idx.get(1).is_some() && idx.get(3).is_some(),
            "recently used survive"
        );
        assert!(idx.get(2).is_none() && idx.get(4).is_none(), "LRU evicted");
        assert!(
            idx.total_bytes() <= entry_bytes * 2 + 1,
            "disk shrank to the budget"
        );
        let on_disk: Vec<u64> = Cache::new(&dir).entries().iter().map(|e| e.hash).collect();
        assert!(!on_disk.contains(&2) && !on_disk.contains(&4));
        assert!(idx.is_consistent());

        // With budget for none, eviction takes the least recently used
        // first and never an entry with an in-flight writer.
        let idx2 = Index::build(Cache::new(&dir), Some(1));
        assert!(idx2.get(1).is_some());
        let evicted = idx2.evict_to_budget(&|h| h == 1);
        assert_eq!(evicted, 1, "only the entry without a writer goes");
        assert!(idx2.get(1).is_some() && idx2.get(3).is_none());
        assert_eq!(idx2.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn refresh_picks_up_foreign_writes_and_evictions() {
        let cache = tmp_cache("refresh");
        cache.store(1, &measurement("omp_barrier", 4)).unwrap();
        let dir = cache.dir().to_path_buf();
        let idx = Index::build(cache, None);
        assert_eq!(idx.len(), 1);

        // A "foreign replica" (any other handle on the directory)
        // writes two entries and evicts one of ours.
        let foreign = Cache::new(&dir);
        foreign.store(2, &measurement("omp_critical", 8)).unwrap();
        foreign.store(3, &measurement("omp_barrier", 16)).unwrap();
        foreign.remove(1).unwrap();

        let (added, removed) = idx.refresh();
        assert_eq!((added, removed), (2, 1));
        assert!(idx.get(1).is_none(), "foreign eviction dropped");
        assert!(idx.get(2).is_some() && idx.get(3).is_some());
        assert!(idx.is_consistent());

        // A quiet directory refreshes to a no-op.
        assert_eq!(idx.refresh(), (0, 0));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let cache = tmp_cache("incremental");
        let dir = cache.dir().to_path_buf();
        let idx = Index::build(cache, None);
        assert!(idx.is_empty());
        let m = measurement("cuda_syncthreads", 64);
        idx.cache().store(9, &m).unwrap();
        idx.insert(9, &m);
        assert_eq!(idx.len(), 1);
        assert!(idx.total_bytes() > 0);
        let q = Query {
            kernel: "cuda_syncthreads".into(),
            threads: 64,
            ..Query::default()
        };
        assert_eq!(idx.query(&q).unwrap().hash, 9);
        assert!(idx.is_consistent());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
