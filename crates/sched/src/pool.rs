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
//! A [`Pool`] keeps its workers for its lifetime, the way an OpenMP
//! runtime keeps its thread team across parallel regions, so a call
//! spawns no threads. The calling thread runs chunks as worker 0. The
//! `workers − 1` helper threads start on the first call with more
//! than one chunk, park on a condvar between calls, and are joined
//! when the pool drops. Overlapping callers share the helpers. Each
//! caller works its own chunk set, stealing from every deque of its
//! call, until no chunk is queued, so its queued chunks never wait for
//! a helper busy with another call; then it waits for the chunks
//! helpers are still running. A chunk that panics is caught where it
//! ran, and the panic resumes on its caller once the rest of the call
//! has finished. Each worker closes its trace ring
//! after a call ([`obs::Recorder::close_thread_ring`]), so the
//! per-thread event bound applies per call, as it would to threads
//! started per call.
//!
//! Built on `std::thread` and `std::sync` only, like `crates/omp` — no
//! external dependencies.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use syncperf_core::obs;

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
    /// One profile per worker (a single entry on the serial path);
    /// worker 0 is the calling thread.
    pub per_worker: Vec<PoolWorkerStats>,
}

/// A work-stealing pool of `workers` workers: the calling thread plus
/// `workers − 1` helper threads kept for the pool's lifetime.
pub struct Pool {
    workers: usize,
    shared: Arc<Shared>,
    /// The helpers' join handles, set on the first multi-chunk call.
    helpers: OnceLock<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("helpers_started", &self.helpers_started())
            .finish()
    }
}

/// What the helpers share with their pool.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a call is posted and at shutdown.
    wake: Condvar,
}

#[derive(Default)]
struct State {
    /// Calls whose chunks may still be queued.
    calls: Vec<Arc<dyn Work>>,
    shutdown: bool,
}

/// One `run_chunks` call as its workers see it, whatever its chunk and
/// result types.
trait Work: Send + Sync {
    /// Whether worker `w` takes part in this call and a chunk is still
    /// queued.
    fn wants(&self, w: usize) -> bool;
    /// Runs chunks as worker `w` until every deque is empty.
    fn work(&self, w: usize);
}

/// One worker's queue of `(submission index, chunk)` pairs.
type Deque<T> = Mutex<VecDeque<(usize, Vec<T>)>>;

/// The shared state of one call.
struct Call<T, R, F> {
    /// One deque per worker.
    deques: Vec<Deque<T>>,
    f: F,
    done: Mutex<Done<R>>,
    /// Signalled when the last chunk completes.
    finished: Condvar,
}

/// Completed chunks, published one chunk at a time, so a caller that
/// sees `pending == 0` also sees every result and every tally.
struct Done<R> {
    slots: Vec<Option<R>>,
    pending: usize,
    per_worker: Vec<PoolWorkerStats>,
    /// The first panic a chunk raised.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, R, F> Work for Call<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(Vec<T>) -> R + Send + Sync,
{
    fn wants(&self, w: usize) -> bool {
        w < self.deques.len() && self.deques.iter().any(|d| !d.lock().unwrap().is_empty())
    }

    fn work(&self, w: usize) {
        let workers = self.deques.len();
        loop {
            // Own work first, newest chunk first; else steal
            // oldest-first from the other workers, scanning from our
            // right-hand neighbour.
            let mut stolen = 0;
            let mut job = self.deques[w].lock().unwrap().pop_back();
            if job.is_none() {
                job = (1..workers)
                    .find_map(|off| self.deques[(w + off) % workers].lock().unwrap().pop_front());
                stolen = u64::from(job.is_some());
            }
            // Every deque is empty and no new work can appear: the
            // chunk set is static, so this worker is done with the call.
            let Some((i, chunk)) = job else { return };
            let executed = chunk.len() as u64;
            let started = Instant::now();
            let result = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(chunk)));
            let busy_ns = started.elapsed().as_nanos() as u64;
            let mut done = self.done.lock().unwrap();
            done.per_worker[w].absorb(&PoolWorkerStats {
                executed,
                stolen,
                busy_ns,
            });
            match result {
                Ok(r) => done.slots[i] = Some(r),
                Err(payload) => {
                    if done.panic.is_none() {
                        done.panic = Some(payload);
                    }
                }
            }
            done.pending -= 1;
            if done.pending == 0 {
                self.finished.notify_all();
            }
        }
    }
}

/// A helper's life: take part in every posted call it has a deque in
/// while chunks are queued, park in between, and exit at shutdown.
fn helper(shared: &Shared, w: usize) {
    loop {
        let call = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(call) = state.calls.iter().find(|c| c.wants(w)) {
                    break Arc::clone(call);
                }
                state = shared.wake.wait(state).unwrap();
            }
        };
        call.work(w);
        obs::global().close_thread_ring();
    }
}

impl Pool {
    /// A pool of `workers` workers (at least 1). No thread starts until
    /// the first call with more than one chunk.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
            }),
            helpers: OnceLock::new(),
        }
    }

    /// The worker count, the calling thread included.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Helper threads this pool has started over its lifetime: 0 before
    /// its first multi-chunk call, `workers − 1` after it.
    #[must_use]
    pub fn helpers_started(&self) -> usize {
        self.helpers.get().map_or(0, Vec::len)
    }

    /// Starts the helpers once.
    fn start_helpers(&self) {
        self.helpers.get_or_init(|| {
            (1..self.workers)
                .map(|w| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("syncperf-pool-{w}"))
                        .spawn(move || helper(&shared, w))
                        .expect("start a pool helper thread")
                })
                .collect()
        });
    }

    /// Runs `f` over every chunk, returning one result per chunk in
    /// submission order. The calling thread works as worker 0 beside
    /// the helpers; with one worker (or one chunk) the chunks run
    /// serially on the calling thread — the serial reference path.
    ///
    /// # Panics
    ///
    /// Resumes the first panic a chunk raised, after every other chunk
    /// of the call has run.
    pub fn run_chunks<T, R, F>(&self, chunks: Vec<Vec<T>>, f: F) -> PoolOutcome<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(Vec<T>) -> R + Send + Sync + 'static,
    {
        let n = chunks.len();
        if self.workers <= 1 || n <= 1 {
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
        self.start_helpers();

        let workers = self.workers.min(n);
        let mut deques: Vec<VecDeque<_>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, chunk) in chunks.into_iter().enumerate() {
            deques[i % workers].push_back((i, chunk));
        }
        let call = Arc::new(Call {
            deques: deques.into_iter().map(Mutex::new).collect(),
            f,
            done: Mutex::new(Done {
                slots: (0..n).map(|_| None).collect(),
                pending: n,
                per_worker: vec![PoolWorkerStats::default(); workers],
                panic: None,
            }),
            finished: Condvar::new(),
        });
        let posted: Arc<dyn Work> = call.clone();
        self.shared
            .state
            .lock()
            .unwrap()
            .calls
            .push(Arc::clone(&posted));
        self.shared.wake.notify_all();

        call.work(0);
        obs::global().close_thread_ring();
        // Nothing of this call is queued any more; chunks still running
        // on helpers finish below.
        self.shared
            .state
            .lock()
            .unwrap()
            .calls
            .retain(|c| !Arc::ptr_eq(c, &posted));
        let mut done = call.done.lock().unwrap();
        while done.pending > 0 {
            done = call.finished.wait(done).unwrap();
        }
        if let Some(payload) = done.panic.take() {
            drop(done);
            panic::resume_unwind(payload);
        }
        let per_worker = std::mem::take(&mut done.per_worker);
        PoolOutcome {
            results: done
                .slots
                .drain(..)
                .map(|slot| slot.expect("every chunk completes before its call returns"))
                .collect(),
            steals: per_worker.iter().map(|p| p.stolen).sum(),
            per_worker,
        }
    }
}

impl Drop for Pool {
    /// Wakes the parked helpers into shutdown and joins them.
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.helpers.take().into_iter().flatten() {
            // A helper catches every chunk's panic, so it cannot have
            // died of one.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    /// One chunk per item, each carrying its submission index.
    fn singletons<T>(items: Vec<T>) -> Vec<Vec<(usize, T)>> {
        items.into_iter().enumerate().map(|p| vec![p]).collect()
    }

    #[test]
    fn serial_path_preserves_order() {
        let out = Pool::new(1).run_chunks(singletons(vec![3u32, 1, 4, 1, 5]), |c| {
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
        let serial = Pool::new(1).run_chunks(singletons(items.clone()), f);
        let parallel = Pool::new(4).run_chunks(singletons(items), f);
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let chunks: Vec<Vec<u32>> = (0..257).map(|x| vec![x; x as usize % 3 + 1]).collect();
        let jobs: usize = chunks.iter().map(Vec::len).sum();
        let counted = Arc::clone(&count);
        let out = Pool::new(8).run_chunks(chunks, move |c| {
            counted.fetch_add(c.len(), Ordering::Relaxed);
            c[0]
        });
        assert_eq!(count.load(Ordering::Relaxed), jobs);
        assert_eq!(out.results, (0..257).collect::<Vec<u32>>());
    }

    #[test]
    fn imbalanced_load_triggers_steals() {
        // Worker 0 gets all the slow chunks (round-robin with 2 workers
        // puts even indices on worker 0); make even chunks slow so the
        // other worker runs dry and must steal.
        let out = Pool::new(2).run_chunks(singletons((0..32).collect::<Vec<u32>>()), |c| {
            let (i, x) = c[0];
            if i % 2 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out.results, (0..32).collect::<Vec<u32>>());
        assert!(out.steals > 0, "idle worker must steal");
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Pool::new(16).run_chunks(vec![vec![1], vec![2]], |c| c[0]);
        assert_eq!(out.results, vec![1, 2]);
    }

    #[test]
    fn per_worker_stats_account_for_every_job() {
        // 64 chunks of 1–3 jobs: `executed` counts jobs, not chunks.
        let chunks: Vec<Vec<u32>> = (0..64).map(|x| vec![x; x as usize % 3 + 1]).collect();
        let jobs: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let out = Pool::new(4).run_chunks(chunks, |c| c.len());
        assert_eq!(out.per_worker.len(), 4);
        let executed: u64 = out.per_worker.iter().map(|p| p.executed).sum();
        assert_eq!(executed, jobs, "every job attributed to some worker");
        let stolen: u64 = out.per_worker.iter().map(|p| p.stolen).sum();
        assert_eq!(stolen, out.steals, "per-worker steals sum to the total");
    }

    #[test]
    fn serial_path_reports_one_worker() {
        let out = Pool::new(1).run_chunks(vec![vec![1u32, 2], vec![3]], |c| c.len());
        assert_eq!(out.per_worker.len(), 1);
        assert_eq!(out.per_worker[0].executed, 3);
        assert_eq!(out.per_worker[0].stolen, 0);
    }

    #[test]
    fn busy_time_tracks_job_bodies() {
        let out = Pool::new(2).run_chunks(singletons((0..8).collect::<Vec<u32>>()), |c| {
            std::thread::sleep(Duration::from_millis(1));
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

    /// Two chunks on a 2-worker pool that meet at a barrier, so each
    /// runs on its own thread: chunk 0 on the caller (it pops its own
    /// deque first), chunk 1 on the helper. `on_helper` runs in chunk 1
    /// after the meeting.
    fn run_pair(pool: &Pool, on_helper: impl Fn() + Send + Sync + 'static) -> PoolOutcome<usize> {
        let meet = Arc::new(Barrier::new(2));
        pool.run_chunks(vec![vec![0usize], vec![1]], move |c| {
            meet.wait();
            if c[0] == 1 {
                on_helper();
            }
            c[0]
        })
    }

    #[test]
    fn successive_calls_start_one_helper_in_total() {
        // A cold sweep makes 57 multi-chunk calls; on a 2-worker pool
        // they all share the one helper started by the first.
        let pool = Pool::new(2);
        assert_eq!(pool.helpers_started(), 0, "no thread before the first call");
        let caller = std::thread::current().id();
        for _ in 0..57 {
            let out = run_pair(&pool, || {});
            assert_eq!(out.results, vec![0, 1]);
            assert_eq!(out.per_worker.len(), 2);
            assert!(out.per_worker.iter().all(|p| p.executed == 1));
        }
        assert_eq!(pool.helpers_started(), 1);
        // A one-chunk call runs on the caller and starts nothing.
        let single = Pool::new(2);
        let out = single.run_chunks(vec![vec![7u8]], move |c| {
            assert_eq!(std::thread::current().id(), caller);
            c[0]
        });
        assert_eq!(out.results, vec![7]);
        assert_eq!(single.helpers_started(), 0);
    }

    #[test]
    fn a_panic_on_a_helper_resumes_on_its_caller_and_the_helper_survives() {
        let pool = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_pair(&pool, || panic!("chunk 1 failed"))
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk 1 failed"));
        // The same helper runs the next call's chunk 1.
        let out = run_pair(&pool, || {});
        assert_eq!(out.results, vec![0, 1]);
        assert_eq!(out.per_worker[1].executed, 1, "the helper took part");
        assert_eq!(pool.helpers_started(), 1, "no replacement helper started");
    }

    /// Helper-held [`LateRelease`] values not yet dropped.
    static LIVE: AtomicUsize = AtomicUsize::new(0);

    /// Counts itself out of [`LIVE`] a little late, from the helper's
    /// thread-local storage as that thread exits.
    struct LateRelease;

    impl Drop for LateRelease {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(50));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static HELD: std::cell::RefCell<Option<LateRelease>> = const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        let pool = Pool::new(2);
        run_pair(&pool, || {
            LIVE.fetch_add(1, Ordering::SeqCst);
            HELD.with(|h| *h.borrow_mut() = Some(LateRelease));
        });
        assert_eq!(LIVE.load(Ordering::SeqCst), 1, "the helper holds one");
        drop(pool);
        // Only a joined helper has run its thread-local destructors.
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            0,
            "drop returned before the helper exited"
        );
    }

    #[test]
    fn overlapping_callers_share_the_helpers() {
        let pool = Pool::new(2);
        std::thread::scope(|scope| {
            for caller in 0..6u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..20u64 {
                        let chunks: Vec<Vec<u64>> =
                            (0..5).map(|k| vec![caller, round, k]).collect();
                        let out = pool.run_chunks(chunks, |c| c.iter().product::<u64>());
                        let want: Vec<u64> = (0..5).map(|k| caller * round * k).collect();
                        assert_eq!(out.results, want);
                        let executed: u64 = out.per_worker.iter().map(|p| p.executed).sum();
                        assert_eq!(executed, 15);
                    }
                });
            }
        });
        assert_eq!(pool.helpers_started(), 1);
    }
}
