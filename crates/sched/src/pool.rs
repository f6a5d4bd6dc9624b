//! The work-stealing thread pool.
//!
//! The unit of work is a *chunk*: a list of jobs one worker runs
//! start to finish (the scheduler hands it same-shape chunks, which
//! the worker batch-primes before running their points). Chunks are
//! distributed round-robin across per-worker deques up front (the
//! chunk set is static — there is no mid-run submission). Each worker
//! pops its own deque from the back (LIFO keeps its cache warm); an
//! idle worker steals a whole chunk from the *front* of a victim's
//! deque (FIFO minimizes contention with the owner). Results land in
//! per-chunk slots indexed by submission order, so the merged output
//! is independent of which worker ran what — the byte-identical
//! N-worker/serial guarantee reduces to each job being
//! order-independent, which [`crate::job::JobSpec::execute`]
//! guarantees by seeding per-job.
//!
//! Built on `std::thread::scope` only, like `crates/omp` — no external
//! dependencies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution profile for one pool run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// Jobs this worker executed (the lengths of the chunks it ran,
    /// own deque plus steals).
    pub executed: u64,
    /// Chunks this worker stole from another worker's deque.
    pub stolen: u64,
    /// Nanoseconds this worker spent inside job bodies (its
    /// utilization numerator; the denominator is the run's wall time).
    pub busy_ns: u64,
}

impl PoolWorkerStats {
    /// Adds `other`'s tallies into `self` (for accumulating across
    /// batches).
    pub fn absorb(&mut self, other: &PoolWorkerStats) {
        self.executed += other.executed;
        self.stolen += other.stolen;
        self.busy_ns += other.busy_ns;
    }
}

/// What a pool run produced: results in submission order, plus steal
/// statistics.
#[derive(Debug)]
pub struct PoolOutcome<R> {
    /// One result per input chunk, in submission order.
    pub results: Vec<R>,
    /// Successful steals (a worker taking a chunk from another
    /// worker's deque).
    pub steals: u64,
    /// One profile per worker thread (a single entry on the serial
    /// path).
    pub per_worker: Vec<PoolWorkerStats>,
}

/// Runs `f` over every chunk on `workers` threads, returning one
/// result per chunk in submission order. With `workers <= 1` (or one
/// chunk) the chunks run serially on the calling thread — the serial
/// reference path.
pub fn run_chunks<T, R, F>(workers: usize, chunks: Vec<Vec<T>>, f: F) -> PoolOutcome<R>
where
    T: Send,
    R: Send,
    F: Fn(Vec<T>) -> R + Sync,
{
    let n = chunks.len();
    if workers <= 1 || n <= 1 {
        let start = Instant::now();
        let jobs: usize = chunks.iter().map(Vec::len).sum();
        let results = chunks.into_iter().map(&f).collect();
        return PoolOutcome {
            results,
            steals: 0,
            per_worker: vec![PoolWorkerStats {
                executed: jobs as u64,
                stolen: 0,
                busy_ns: start.elapsed().as_nanos() as u64,
            }],
        };
    }

    let workers = workers.min(n);
    let deques: Vec<Mutex<VecDeque<_>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, chunk) in chunks.into_iter().enumerate() {
        deques[i % workers].lock().unwrap().push_back((i, chunk));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    let profiles: Vec<Mutex<PoolWorkerStats>> = (0..workers)
        .map(|_| Mutex::new(PoolWorkerStats::default()))
        .collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let steals = &steals;
            let profiles = &profiles;
            let f = &f;
            scope.spawn(move || {
                // Tally locally; publish once when the worker retires.
                let mut mine = PoolWorkerStats::default();
                loop {
                    // Own work first, newest chunk first.
                    let mut job = deques[w].lock().unwrap().pop_back();
                    if job.is_none() {
                        // Steal oldest-first from the other workers,
                        // scanning from our right-hand neighbour.
                        for off in 1..workers {
                            let v = (w + off) % workers;
                            if let Some(j) = deques[v].lock().unwrap().pop_front() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                mine.stolen += 1;
                                job = Some(j);
                                break;
                            }
                        }
                    }
                    match job {
                        Some((i, chunk)) => {
                            let started = Instant::now();
                            mine.executed += chunk.len() as u64;
                            let r = f(chunk);
                            mine.busy_ns += started.elapsed().as_nanos() as u64;
                            *slots[i].lock().unwrap() = Some(r);
                        }
                        // Every deque is empty and no new work can
                        // appear: the chunk set is static, so this
                        // worker is done.
                        None => break,
                    }
                }
                *profiles[w].lock().unwrap() = mine;
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every submitted chunk completes before the scope joins")
        })
        .collect();
    PoolOutcome {
        results,
        steals: steals.into_inner(),
        per_worker: profiles
            .into_iter()
            .map(|p| p.into_inner().unwrap())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// One chunk per item, each carrying its submission index.
    fn singletons<T>(items: Vec<T>) -> Vec<Vec<(usize, T)>> {
        items.into_iter().enumerate().map(|p| vec![p]).collect()
    }

    #[test]
    fn serial_path_preserves_order() {
        let out = run_chunks(1, singletons(vec![3u32, 1, 4, 1, 5]), |c| {
            let (i, x) = c[0];
            (i, x * 2)
        });
        assert_eq!(out.steals, 0);
        assert_eq!(out.results, vec![(0, 6), (1, 2), (2, 8), (3, 2), (4, 10)]);
    }

    #[test]
    fn parallel_results_match_serial_order() {
        let items: Vec<u64> = (0..100).collect();
        let f = |c: Vec<(usize, u64)>| c.iter().map(|&(i, x)| x * 3 + i as u64).sum::<u64>();
        let serial = run_chunks(1, singletons(items.clone()), f);
        let parallel = run_chunks(4, singletons(items), f);
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let count = AtomicUsize::new(0);
        let chunks: Vec<Vec<u32>> = (0..257).map(|x| vec![x; x as usize % 3 + 1]).collect();
        let jobs: usize = chunks.iter().map(Vec::len).sum();
        let out = run_chunks(8, chunks, |c| {
            count.fetch_add(c.len(), Ordering::Relaxed);
            c[0]
        });
        assert_eq!(count.into_inner(), jobs);
        assert_eq!(out.results, (0..257).collect::<Vec<u32>>());
    }

    #[test]
    fn imbalanced_load_triggers_steals() {
        // Worker 0 gets all the slow chunks (round-robin with 2 workers
        // puts even indices on worker 0); make even chunks slow so the
        // other worker runs dry and must steal.
        let out = run_chunks(2, singletons((0..32).collect::<Vec<u32>>()), |c| {
            let (i, x) = c[0];
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out.results, (0..32).collect::<Vec<u32>>());
        assert!(out.steals > 0, "idle worker must steal");
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = run_chunks(16, vec![vec![1], vec![2]], |c| c[0]);
        assert_eq!(out.results, vec![1, 2]);
    }

    #[test]
    fn per_worker_stats_account_for_every_job() {
        // 64 chunks of 1–3 jobs: `executed` counts jobs, not chunks.
        let chunks: Vec<Vec<u32>> = (0..64).map(|x| vec![x; x as usize % 3 + 1]).collect();
        let jobs: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let out = run_chunks(4, chunks, |c| c.len());
        assert_eq!(out.per_worker.len(), 4);
        let executed: u64 = out.per_worker.iter().map(|p| p.executed).sum();
        assert_eq!(executed, jobs, "every job attributed to some worker");
        let stolen: u64 = out.per_worker.iter().map(|p| p.stolen).sum();
        assert_eq!(stolen, out.steals, "per-worker steals sum to the total");
    }

    #[test]
    fn serial_path_reports_one_worker() {
        let out = run_chunks(1, vec![vec![1u32, 2], vec![3]], |c| c.len());
        assert_eq!(out.per_worker.len(), 1);
        assert_eq!(out.per_worker[0].executed, 3);
        assert_eq!(out.per_worker[0].stolen, 0);
    }

    #[test]
    fn busy_time_tracks_job_bodies() {
        let out = run_chunks(2, singletons((0..8).collect::<Vec<u32>>()), |c| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            c[0].1
        });
        for p in &out.per_worker {
            if p.executed > 0 {
                assert!(
                    p.busy_ns >= p.executed * 1_000_000,
                    "each 1ms job contributes at least 1ms of busy time"
                );
            }
        }
    }
}
