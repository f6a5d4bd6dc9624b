//! Real-thread [`Executor`]: interprets CPU kernel bodies on actual
//! `std::thread` threads with actual atomics, following the paper's
//! Listing 2 structure (warmup loop, team barrier, timed loop,
//! per-thread `gettimeofday`-style timing). The joined thread times
//! reduce to their maximum, the one number the protocol records.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::cacheline::CachePadded;
use syncperf_core::{
    stats, CpuOp, DType, ExecParams, Executor, Result, SyncPerfError, Target, TimeUnit,
};

use crate::atomics::{AtomicCell, Primitive};
use crate::critical::Critical;
use crate::flush::flush;
use crate::lock::OmpLock;
use crate::padded::StridedArray;
use crate::team::{Team, ThreadCtx};

/// Shared memory for one data type: two cache-padded scalars plus the
/// (up to two) strided arrays the kernel bodies reference.
#[derive(Debug)]
struct TypedMem<T: Primitive> {
    scalars: [CachePadded<AtomicCell<T>>; 2],
    arrays: HashMap<u8, StridedArray<T>>,
}

impl<T: Primitive> TypedMem<T> {
    fn new() -> Self {
        TypedMem {
            scalars: [
                CachePadded::new(AtomicCell::new(T::zero())),
                CachePadded::new(AtomicCell::new(T::zero())),
            ],
            arrays: HashMap::new(),
        }
    }

    fn cell(&self, target: Target, tid: usize) -> &AtomicCell<T> {
        match target {
            Target::SharedScalar(i) => &self.scalars[usize::from(i) % 2],
            Target::Private { array, stride: _ } => self
                .arrays
                .get(&array)
                .expect("array allocated during memory planning")
                .elem(tid),
        }
    }
}

#[derive(Debug)]
struct Memory {
    i32s: TypedMem<i32>,
    u64s: TypedMem<u64>,
    f32s: TypedMem<f32>,
    f64s: TypedMem<f64>,
}

impl Memory {
    /// Scans the body and allocates every referenced array.
    fn plan(body: &[CpuOp], threads: usize) -> Result<Self> {
        let mut mem = Memory {
            i32s: TypedMem::new(),
            u64s: TypedMem::new(),
            f32s: TypedMem::new(),
            f64s: TypedMem::new(),
        };
        for op in body {
            let (dtype, target) = match *op {
                CpuOp::AtomicUpdate { dtype, target }
                | CpuOp::AtomicCapture { dtype, target }
                | CpuOp::AtomicRead { dtype, target }
                | CpuOp::AtomicWrite { dtype, target }
                | CpuOp::Read { dtype, target }
                | CpuOp::Update { dtype, target }
                | CpuOp::CriticalAdd { dtype, target } => (dtype, target),
                CpuOp::Barrier
                | CpuOp::Flush
                | CpuOp::CriticalBegin { .. }
                | CpuOp::CriticalEnd { .. } => continue,
            };
            if let Target::Private { array, stride } = target {
                if stride == 0 {
                    return Err(SyncPerfError::InvalidParams("stride must be > 0".into()));
                }
                let stride = stride as usize;
                match dtype {
                    DType::I32 => insert_array(&mut mem.i32s.arrays, array, threads, stride)?,
                    DType::U64 => insert_array(&mut mem.u64s.arrays, array, threads, stride)?,
                    DType::F32 => insert_array(&mut mem.f32s.arrays, array, threads, stride)?,
                    DType::F64 => insert_array(&mut mem.f64s.arrays, array, threads, stride)?,
                }
            }
        }
        Ok(mem)
    }
}

fn insert_array<T: Primitive>(
    arrays: &mut HashMap<u8, StridedArray<T>>,
    array: u8,
    threads: usize,
    stride: usize,
) -> Result<()> {
    if let Some(existing) = arrays.get(&array) {
        if existing.stride() != stride {
            return Err(SyncPerfError::InvalidParams(format!(
                "array {array} referenced with conflicting strides {} and {stride}",
                existing.stride()
            )));
        }
        return Ok(());
    }
    arrays.insert(array, StridedArray::new(threads, stride));
    Ok(())
}

/// Per-thread observation tallies, flushed into the recorder's
/// `omp.*` counters after the parallel region ends (so the hot loop
/// only touches thread-private memory).
#[derive(Debug, Default, Clone, Copy)]
struct OpTallies {
    fp_cas_retries: u64,
    critical_acquisitions: u64,
    critical_contended: u64,
}

/// The run's shared mutual-exclusion objects: the unnamed critical
/// section's lock and one real lock per named critical section.
struct SyncObjects<'a> {
    critical: &'a Critical,
    locks: &'a [OmpLock],
}

/// Executes one op for thread `tid`. `sink` accumulates read results
/// so the compiler cannot remove the loads as dead code. With `record`
/// false (the default measurement path) the op lowers to exactly the
/// uninstrumented primitives; with `record` true, atomic updates count
/// CAS retries and critical sections report lock contention into the
/// thread-private `tallies`.
#[inline]
fn run_op(
    op: &CpuOp,
    mem: &Memory,
    ctx: &ThreadCtx<'_>,
    sync: &SyncObjects<'_>,
    sink: &mut f64,
    record: bool,
    tallies: &mut OpTallies,
) {
    let tid = ctx.tid;
    let critical = sync.critical;
    match *op {
        CpuOp::Barrier => ctx.barrier(),
        CpuOp::Flush => flush(),
        // Named critical sections lower to the OpenMP lock routines,
        // exactly as the spec describes (§II-A3): one shared lock per
        // section name, set on entry, unset on exit.
        CpuOp::CriticalBegin { lock } => sync.locks[usize::from(lock)].set(),
        CpuOp::CriticalEnd { lock } => sync.locks[usize::from(lock)].unset(),
        CpuOp::AtomicUpdate { dtype, target } if record => {
            let retries = match dtype {
                DType::I32 => mem.i32s.cell(target, tid).update_counting(1),
                DType::U64 => mem.u64s.cell(target, tid).update_counting(1),
                DType::F32 => mem.f32s.cell(target, tid).update_counting(1.0),
                DType::F64 => mem.f64s.cell(target, tid).update_counting(1.0),
            };
            tallies.fp_cas_retries += u64::from(retries);
        }
        CpuOp::AtomicUpdate { dtype, target } => {
            dispatch(
                mem,
                dtype,
                target,
                tid,
                |c: &AtomicCell<i32>| c.update(1),
                |c| c.update(1),
                |c| c.update(1.0),
                |c| c.update(1.0),
            );
        }
        CpuOp::AtomicCapture { dtype, target } => match dtype {
            DType::I32 => *sink += f64::from(mem.i32s.cell(target, tid).capture(1)),
            DType::U64 => *sink += mem.u64s.cell(target, tid).capture(1) as f64,
            DType::F32 => *sink += f64::from(mem.f32s.cell(target, tid).capture(1.0)),
            DType::F64 => *sink += mem.f64s.cell(target, tid).capture(1.0),
        },
        CpuOp::AtomicRead { dtype, target } => match dtype {
            DType::I32 => *sink += f64::from(mem.i32s.cell(target, tid).read()),
            DType::U64 => *sink += mem.u64s.cell(target, tid).read() as f64,
            DType::F32 => *sink += f64::from(mem.f32s.cell(target, tid).read()),
            DType::F64 => *sink += mem.f64s.cell(target, tid).read(),
        },
        CpuOp::AtomicWrite { dtype, target } => {
            let v = tid as i32 + 1;
            dispatch(
                mem,
                dtype,
                target,
                tid,
                |c: &AtomicCell<i32>| c.write(v),
                |c| c.write(v as u64),
                |c| c.write(v as f32),
                |c| c.write(f64::from(v)),
            );
        }
        CpuOp::Read { dtype, target } => match dtype {
            DType::I32 => *sink += f64::from(mem.i32s.cell(target, tid).plain_read()),
            DType::U64 => *sink += mem.u64s.cell(target, tid).plain_read() as f64,
            DType::F32 => *sink += f64::from(mem.f32s.cell(target, tid).plain_read()),
            DType::F64 => *sink += mem.f64s.cell(target, tid).plain_read(),
        },
        CpuOp::Update { dtype, target } => {
            dispatch(
                mem,
                dtype,
                target,
                tid,
                |c: &AtomicCell<i32>| c.plain_update(1),
                |c| c.plain_update(1),
                |c| c.plain_update(1.0),
                |c| c.plain_update(1.0),
            );
        }
        CpuOp::CriticalAdd { dtype, target } if record => {
            let (guard, contended) = critical.enter_counted();
            dispatch(
                mem,
                dtype,
                target,
                tid,
                |c: &AtomicCell<i32>| c.plain_update(1),
                |c| c.plain_update(1),
                |c| c.plain_update(1.0),
                |c| c.plain_update(1.0),
            );
            drop(guard);
            tallies.critical_acquisitions += 1;
            tallies.critical_contended += u64::from(contended);
        }
        CpuOp::CriticalAdd { dtype, target } => critical.with(|| {
            dispatch(
                mem,
                dtype,
                target,
                tid,
                |c: &AtomicCell<i32>| c.plain_update(1),
                |c| c.plain_update(1),
                |c| c.plain_update(1.0),
                |c| c.plain_update(1.0),
            );
        }),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn dispatch(
    mem: &Memory,
    dtype: DType,
    target: Target,
    tid: usize,
    fi: impl FnOnce(&AtomicCell<i32>),
    fu: impl FnOnce(&AtomicCell<u64>),
    ff: impl FnOnce(&AtomicCell<f32>),
    fd: impl FnOnce(&AtomicCell<f64>),
) {
    match dtype {
        DType::I32 => fi(mem.i32s.cell(target, tid)),
        DType::U64 => fu(mem.u64s.cell(target, tid)),
        DType::F32 => ff(mem.f32s.cell(target, tid)),
        DType::F64 => fd(mem.f64s.cell(target, tid)),
    }
}

/// The real-thread executor.
///
/// Runs kernel bodies on genuine OS threads with genuine atomics. Times
/// are wall-clock seconds. Affinity is advisory (see
/// [`crate::affinity`]); block counts other than 1 are rejected since
/// CPUs have no thread-block concept.
///
/// # Examples
///
/// ```
/// use syncperf_core::{kernel, DType, ExecParams, Protocol};
/// use syncperf_omp::OmpExecutor;
///
/// # fn main() -> syncperf_core::Result<()> {
/// let mut exec = OmpExecutor::new();
/// let m = Protocol::SIM.measure(
///     &mut exec,
///     &kernel::omp_atomic_update_scalar(DType::I32),
///     &ExecParams::new(2).with_loops(20, 10).with_warmup(1),
/// )?;
/// assert!(m.median_test >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OmpExecutor {
    recorder: syncperf_core::obs::Recorder,
}

impl Default for OmpExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl OmpExecutor {
    /// Creates a real-thread executor.
    #[must_use]
    pub fn new() -> Self {
        OmpExecutor {
            recorder: syncperf_core::obs::Recorder::disabled(),
        }
    }

    /// Attaches a [`Recorder`](syncperf_core::obs::Recorder); runs then
    /// emit `omp.*` counters (barrier rounds, FP-CAS retries, critical
    /// contention) into it. Without one, the executor falls back to the
    /// globally installed recorder.
    #[must_use]
    pub fn with_recorder(mut self, rec: syncperf_core::obs::Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// The recorder runs observe into: this executor's own if enabled,
    /// otherwise the global one.
    fn effective_recorder(&self) -> &syncperf_core::obs::Recorder {
        if self.recorder.is_enabled() {
            &self.recorder
        } else {
            syncperf_core::obs::global()
        }
    }
}

impl Executor for OmpExecutor {
    type Op = CpuOp;

    fn name(&self) -> &str {
        "omp-real-threads"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Seconds
    }

    fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<f64> {
        params.validate()?;
        if params.blocks != 1 {
            return Err(SyncPerfError::InvalidParams(
                "the CPU executor runs a single team (blocks must be 1)".into(),
            ));
        }
        let threads = params.threads as usize;
        let mem = Memory::plan(body, threads)?;
        let critical = Critical::private();
        // One real lock per named critical section in the body.
        let max_lock = body
            .iter()
            .filter_map(|op| match op {
                CpuOp::CriticalBegin { lock } | CpuOp::CriticalEnd { lock } => Some(*lock),
                _ => None,
            })
            .max();
        let locks: Vec<OmpLock> = (0..max_lock.map_or(0, |m| usize::from(m) + 1))
            .map(|_| OmpLock::new())
            .collect();
        let sync = SyncObjects {
            critical: &critical,
            locks: &locks,
        };
        let team = Team::new(threads);
        let n_warmup = params.n_warmup;
        let n_iter = params.n_iter;
        let n_unroll = params.n_unroll;
        let rec = self.effective_recorder();
        let record = rec.is_enabled();
        let mut span = rec.span("omp", "execute");
        span.push_arg("threads", params.threads);
        span.push_arg("ops", body.len());

        let per_thread = team.parallel(|ctx| {
            let mut sink = 0.0f64;
            let mut tallies = OpTallies::default();
            for _ in 0..n_warmup {
                for _ in 0..n_unroll {
                    for op in body {
                        // Warmup runs uninstrumented so the recorded
                        // tallies describe the timed region only.
                        run_op(op, &mem, ctx, &sync, &mut sink, false, &mut tallies);
                    }
                }
            }

            ctx.barrier();
            let start = Instant::now();
            for _ in 0..n_iter {
                for _ in 0..n_unroll {
                    for op in body {
                        run_op(op, &mem, ctx, &sync, &mut sink, record, &mut tallies);
                    }
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            black_box(sink);
            if record {
                rec.counter("omp.fp_cas_retries")
                    .add(tallies.fp_cas_retries);
                rec.counter("omp.critical_acquisitions")
                    .add(tallies.critical_acquisitions);
                rec.counter("omp.critical_contended")
                    .add(tallies.critical_contended);
                rec.instant_args(
                    "omp",
                    "timed_region",
                    vec![
                        ("tid", syncperf_core::obs::ArgValue::from(ctx.tid)),
                        ("seconds", syncperf_core::obs::ArgValue::from(elapsed)),
                    ],
                );
            }
            elapsed
        });

        if record {
            // Every thread participates in each round, so rounds are
            // counted once per team: the explicit barrier before the
            // timed loop plus every `CpuOp::Barrier` in both loops.
            let barrier_ops = body
                .iter()
                .filter(|op| matches!(op, CpuOp::Barrier))
                .count() as u64;
            let loop_rounds =
                barrier_ops * u64::from(n_unroll) * (u64::from(n_warmup) + u64::from(n_iter));
            rec.counter("omp.barrier_rounds").add(loop_rounds + 1);
            rec.counter("omp.executions").inc();
        }

        // The maximum is only the attempt's runtime if every thread of
        // the team timed its region.
        let timed = per_thread.iter().filter(|&&t| t > 0.0).count();
        if per_thread.len() != threads || timed != threads {
            return Err(SyncPerfError::InvalidParams(format!(
                "{timed} of {threads} team threads reported a positive time \
                 (is the timed region shorter than the timer's resolution?)"
            )));
        }
        Ok(stats::max(&per_thread))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::kernel;

    fn quick_params(threads: u32) -> ExecParams {
        ExecParams::new(threads).with_loops(20, 10).with_warmup(1)
    }

    #[test]
    fn reports_a_positive_max_time() {
        let mut exec = OmpExecutor::new();
        let body = kernel::omp_barrier().baseline;
        let t = exec.execute(&body, &quick_params(4)).unwrap();
        assert!(t > 0.0 && t.is_finite(), "unreasonable max time {t}");
    }

    #[test]
    fn rejects_multi_block() {
        let mut exec = OmpExecutor::new();
        let body = kernel::omp_barrier().baseline;
        let err = exec
            .execute(&body, &quick_params(2).with_blocks(2))
            .unwrap_err();
        assert!(matches!(err, SyncPerfError::InvalidParams(_)));
    }

    #[test]
    fn every_cpu_op_kind_executes() {
        let mut exec = OmpExecutor::new();
        for k in [
            kernel::omp_barrier(),
            kernel::omp_atomic_update_scalar(DType::F32),
            kernel::omp_atomic_update_array(DType::U64, 8),
            kernel::omp_atomic_capture_scalar(DType::F64),
            kernel::omp_atomic_write(DType::I32),
            kernel::omp_atomic_read(DType::U64),
            kernel::omp_critical_add(DType::F64),
            kernel::omp_flush(DType::I32, 4),
        ] {
            let t = exec.execute(&k.test, &quick_params(2)).unwrap();
            assert!(t > 0.0, "{}: {t}", k.name);
        }
    }

    #[test]
    fn test_body_slower_than_baseline_for_critical() {
        // Critical sections are expensive enough that even on a noisy
        // machine the test body (2 lock pairs) beats the baseline
        // (1 lock pair) reliably in the median.
        let mut exec = OmpExecutor::new();
        let k = kernel::omp_critical_add(DType::I32);
        let p = quick_params(2);
        let mut wins = 0;
        for _ in 0..5 {
            let base = exec.execute(&k.baseline, &p).unwrap();
            let test = exec.execute(&k.test, &p).unwrap();
            if test > base {
                wins += 1;
            }
        }
        assert!(wins >= 3, "test body beat baseline only {wins}/5 times");
    }

    #[test]
    fn conflicting_strides_rejected() {
        let mut exec = OmpExecutor::new();
        let body = vec![
            CpuOp::Update {
                dtype: DType::I32,
                target: Target::Private {
                    array: 0,
                    stride: 1,
                },
            },
            CpuOp::Update {
                dtype: DType::I32,
                target: Target::Private {
                    array: 0,
                    stride: 2,
                },
            },
        ];
        assert!(exec.execute(&body, &quick_params(2)).is_err());
    }

    #[test]
    fn zero_stride_rejected() {
        let mut exec = OmpExecutor::new();
        let body = vec![CpuOp::Update {
            dtype: DType::I32,
            target: Target::Private {
                array: 0,
                stride: 0,
            },
        }];
        assert!(exec.execute(&body, &quick_params(2)).is_err());
    }

    #[test]
    fn attached_recorder_counts_barrier_rounds_exactly() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut exec = OmpExecutor::new().with_recorder(rec.clone());
        exec.execute(&kernel::omp_barrier().test, &quick_params(2))
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("omp.executions"), 1);
        // omp_barrier().test has 2 Barrier ops; with_loops(20, 10) and
        // 1 warmup iter: 2×10×(1+20) loop rounds + the start barrier.
        assert_eq!(snap.counter("omp.barrier_rounds"), 420 + 1);
    }

    #[test]
    fn attached_recorder_counts_fp_cas_retries() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut exec = OmpExecutor::new().with_recorder(rec.clone());
        // Hammer one f64 scalar from 8 threads until the float CAS loop
        // loses at least one race. Retrying many times guards against a
        // lightly loaded machine scheduling the threads serially (on a
        // single busy core a whole attempt can pass without one
        // preemption inside the load/compare-exchange window).
        let contended = ExecParams::new(8).with_loops(4000, 10).with_warmup(1);
        let update = kernel::omp_atomic_update_scalar(DType::F64);
        for _ in 0..100 {
            exec.execute(&update.test, &contended).unwrap();
            if rec.snapshot().counter("omp.fp_cas_retries") > 0 {
                break;
            }
        }
        assert!(
            rec.snapshot().counter("omp.fp_cas_retries") > 0,
            "contended f64 CAS must retry"
        );
    }

    #[test]
    fn attached_recorder_counts_critical_acquisitions() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut exec = OmpExecutor::new().with_recorder(rec.clone());
        exec.execute(&kernel::omp_critical_add(DType::I32).test, &quick_params(2))
            .unwrap();
        // critical_add test body holds 2 CriticalAdd ops: 2 threads ×
        // 20 iters × 10 unroll × 2 ops, lock taken exactly once per op.
        assert_eq!(rec.snapshot().counter("omp.critical_acquisitions"), 800);
    }

    #[test]
    fn disabled_recorder_leaves_no_trace_state() {
        let mut exec = OmpExecutor::new();
        exec.execute(&kernel::omp_barrier().test, &quick_params(2))
            .unwrap();
        let snap = syncperf_core::obs::global().snapshot();
        assert_eq!(snap.counter("omp.executions"), 0);
    }

    #[test]
    fn measurement_protocol_runs_end_to_end() {
        let mut exec = OmpExecutor::new();
        let m = syncperf_core::Protocol::SIM
            .measure(
                &mut exec,
                &kernel::omp_atomic_update_scalar(DType::I32),
                &quick_params(2),
            )
            .unwrap();
        // A real atomic add costs something; the exact value is
        // machine-dependent but must be positive and below 100 µs.
        assert!(m.median_test > 0.0);
        assert!(m.runtime_seconds() < 1e-4);
    }
}
