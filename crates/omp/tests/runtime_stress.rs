//! Stress and correctness tests for the real-thread runtime: these run
//! genuine concurrency, so they double as a race-detection suite.

use std::sync::atomic::{AtomicUsize, Ordering};

use syncperf_core::{kernel, DType, ExecParams, Executor, Protocol};
use syncperf_omp::{
    flush, AtomicCell, BarrierToken, Critical, OmpExecutor, OmpLock, SenseBarrier, StridedArray,
    Team, TreeBarrier,
};

#[test]
fn interleaved_barriers_and_atomics_many_rounds() {
    let team = Team::new(6);
    let total = AtomicCell::new(0u64);
    let rounds = 20u64;
    team.parallel(|ctx| {
        for r in 1..=rounds {
            total.update(1);
            ctx.barrier();
            assert_eq!(total.read(), r * 6, "round {r}");
            ctx.barrier();
        }
    });
    assert_eq!(total.read(), rounds * 6);
}

#[test]
fn sequential_teams_reuse_globals() {
    // Multiple parallel regions in sequence, like an OpenMP program
    // with several `#pragma omp parallel` blocks.
    let counter = AtomicCell::new(0i32);
    for n in [1usize, 2, 4, 8, 3] {
        Team::new(n).parallel(|_| counter.update(1));
    }
    assert_eq!(counter.read(), 18);
}

#[test]
fn both_barrier_kinds_agree_under_stress() {
    let n = 5;
    let sense = SenseBarrier::new(n);
    let tree = TreeBarrier::new(n);
    let stage = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for tid in 0..n {
            let (sense, tree, stage) = (&sense, &tree, &stage);
            s.spawn(move || {
                let mut tok_s = BarrierToken::new();
                let mut tok_t = BarrierToken::new();
                for round in 1..=10 {
                    stage.fetch_add(1, Ordering::Relaxed);
                    sense.wait(&mut tok_s);
                    // Guarded read: a second barrier keeps any thread
                    // from starting the next increment before everyone
                    // has checked this phase.
                    assert_eq!(stage.load(Ordering::Relaxed), round * 2 * n - n);
                    sense.wait(&mut tok_s);
                    stage.fetch_add(1, Ordering::Relaxed);
                    tree.wait(tid, &mut tok_t);
                    assert_eq!(stage.load(Ordering::Relaxed), round * 2 * n);
                    tree.wait(tid, &mut tok_t);
                }
            });
        }
    });
}

#[test]
fn critical_and_lock_compose() {
    // A critical section nested inside an OmpLock region: no deadlock
    // (distinct locks) and full mutual exclusion.
    let lock = OmpLock::new();
    let critical = Critical::private();
    let unprotected = std::cell::UnsafeCell::new(0u64);
    struct Wrap(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Wrap {}
    let w = Wrap(unprotected);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (lock, critical, w) = (&lock, &critical, &w);
            s.spawn(move || {
                for _ in 0..500 {
                    lock.with(|| {
                        critical.with(|| {
                            // SAFETY: doubly protected.
                            unsafe { *w.0.get() += 1 };
                        });
                    });
                }
            });
        }
    });
    assert_eq!(unsafe { *w.0.get() }, 2_000);
}

#[test]
fn strided_array_private_elements_race_free_at_every_stride() {
    for stride in [1usize, 2, 4, 8, 16] {
        let arr = StridedArray::<u64>::new(6, stride);
        std::thread::scope(|s| {
            for t in 0..6 {
                let arr = &arr;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        arr.elem(t).update(1);
                    }
                });
            }
        });
        for t in 0..6 {
            assert_eq!(arr.elem(t).read(), 1_000, "stride {stride}, thread {t}");
        }
    }
}

#[test]
fn producer_consumer_with_flush_pipeline() {
    // A 3-stage pipeline passing tokens through flushed flags — the
    // memory-consistency scenario flushes exist for (Section II-A4).
    let data = AtomicCell::new(0u64);
    let stage1_done = AtomicCell::new(0i32);
    let stage2_done = AtomicCell::new(0i32);
    Team::new(3).parallel(|ctx| match ctx.tid {
        0 => {
            data.write(41);
            flush();
            stage1_done.write(1);
        }
        1 => {
            while stage1_done.read() == 0 {
                std::thread::yield_now();
            }
            flush();
            data.write(data.read() + 1);
            flush();
            stage2_done.write(1);
        }
        _ => {
            while stage2_done.read() == 0 {
                std::thread::yield_now();
            }
            flush();
            assert_eq!(data.read(), 42);
        }
    });
}

#[test]
fn executor_full_kernel_matrix() {
    // Every CPU kernel factory × every dtype actually executes on real
    // threads and yields plausible times.
    let mut exec = OmpExecutor::new();
    let p = ExecParams::new(3).with_loops(30, 10).with_warmup(1);
    for dt in DType::ALL {
        for k in [
            kernel::omp_atomic_update_scalar(dt),
            kernel::omp_atomic_update_array(dt, 8),
            kernel::omp_atomic_capture_scalar(dt),
            kernel::omp_atomic_write(dt),
            kernel::omp_atomic_read(dt),
            kernel::omp_critical_add(dt),
            kernel::omp_flush(dt, 4),
        ] {
            let m = Protocol::SIM.measure(&mut exec, &k, &p).unwrap();
            assert!(m.median_test > 0.0, "{} {dt}", k.name);
            assert!(m.median_test < 1.0, "{} {dt}: implausibly slow", k.name);
        }
    }
}

#[test]
fn barrier_synchronized_threads_time_alike() {
    // The executor's timed region, per thread: a start barrier, then
    // 200 barrier rounds. One time per team thread comes back, and
    // barrier-synchronized threads finish within a small factor of
    // each other.
    let team = Team::new(5);
    let times = team.parallel(|ctx| {
        ctx.barrier();
        let start = std::time::Instant::now();
        for _ in 0..200 {
            ctx.barrier();
        }
        start.elapsed().as_secs_f64()
    });
    assert_eq!(times.len(), 5);
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    let max = times.iter().copied().fold(f64::MIN, f64::max);
    assert!(min > 0.0, "a thread timed nothing: {times:?}");
    assert!(max / min < 50.0, "wildly uneven barrier exits: {times:?}");
}

#[test]
fn executor_reports_the_slowest_thread() {
    let mut exec = OmpExecutor::new();
    let body = kernel::omp_barrier().baseline;
    let t = exec
        .execute(&body, &ExecParams::new(5).with_loops(20, 10).with_warmup(1))
        .unwrap();
    assert!(t > 0.0 && t.is_finite(), "unreasonable max time {t}");
}

#[test]
fn capture_sums_are_exact_under_contention() {
    // capture returns unique pre-values: their set must be exactly
    // 0..N when N increments of 1 occur.
    let cell = AtomicCell::new(0u64);
    let seen: Vec<AtomicUsize> = (0..4_000).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (cell, seen) = (&cell, &seen);
            s.spawn(move || {
                for _ in 0..1_000 {
                    let prev = cell.capture(1) as usize;
                    seen[prev].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert!(
        seen.iter().all(|c| c.load(Ordering::Relaxed) == 1),
        "duplicate or missing pre-values"
    );
    assert_eq!(cell.read(), 4_000);
}
