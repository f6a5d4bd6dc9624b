//! The GPU-simulator [`Executor`]: plugs the engine into the
//! measurement protocol with `clock64()`-style cycle reporting.
//!
//! Every launched thread finishes at the engine's one total, so an
//! execution returns that total — except for a system-fence body, whose
//! per-thread PCIe jitter scales the total by `1 + amp·u` with one draw
//! `u` per launched thread. That map is monotone in `u`, so the largest
//! jittered copy is the copy of the extreme draw, and the extreme draw
//! comes from integer maxima over the generator's raw words
//! ([`SplitMix64::max_symmetric`]). No per-thread value is built or
//! converted, even at 128 × 1024 threads, yet the result and the RNG
//! stream position are exactly those of jittering a vector of the total
//! and taking [`stats::max`] of it. The fold is pure `u64` arithmetic,
//! so on a CPU with AVX-512 it runs a vector-wide copy of the same
//! source ([`syncperf_core::wide`]), bit-identical to the portable one,
//! at about a fifth of the portable fold's time per word.
//!
//! A scheduler job that was batch-evaluated runs its protocol on a
//! [`PrimedGpuSim`], which lends the executor the job's two engine
//! results by reference instead of copying them into the memo.
//!
//! [`stats::max`]: syncperf_core::stats::max

use syncperf_core::rng::SplitMix64;
use syncperf_core::{ExecParams, Executor, GpuOp, Result, SystemSpec, TimeUnit};

use crate::config::GpuModel;
use crate::engine::{self, GpuEngineResult};
use crate::occupancy::Occupancy;

/// How many recent engine results the executor memoizes (mirrors the
/// CPU executor's memo: the protocol alternates between a kernel's two
/// bodies with identical parameters many times per measurement).
const ENGINE_CACHE_CAP: usize = 4;

/// One memoized deterministic engine run.
#[derive(Debug, Clone)]
struct CacheEntry {
    body: Vec<GpuOp>,
    blocks: u32,
    threads: u32,
    reps: u64,
    result: GpuEngineResult,
}

/// Simulates the GPU of one of the paper's systems.
///
/// Times are reported in cycles at the device's clock (the paper reads
/// the cycle counter and divides by the clock frequency). Runs are
/// exactly reproducible — like the paper's GPU measurements ("many of
/// the GPU tests yield the exact same runtime for all nine runs") —
/// except when the body contains a `__threadfence_system()`, whose
/// PCIe crossing makes it "more erratic" (§V-B3); those runs get
/// deterministic seeded jitter.
///
/// # Examples
///
/// ```
/// use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
/// use syncperf_gpu_sim::GpuSimExecutor;
///
/// # fn main() -> syncperf_core::Result<()> {
/// let mut gpu = GpuSimExecutor::new(&SYSTEM3);
/// let m = Protocol::SIM.measure(
///     &mut gpu,
///     &kernel::cuda_syncthreads(),
///     &ExecParams::new(256).with_blocks(64).with_loops(50, 4),
/// )?;
/// assert!(m.throughput().unwrap() > 1e6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpuSimExecutor {
    system: SystemSpec,
    model: GpuModel,
    rng: SplitMix64,
    recorder: syncperf_core::obs::Recorder,
    /// Most-recent-first memo of engine runs. The engine is fully
    /// deterministic given `(body, blocks, threads, reps)`, and the
    /// memo serves every recorder alike (launch telemetry describes
    /// engine evaluations, not protocol executions). The jitter RNG is
    /// only consumed for system-fence bodies and draws from the
    /// memoized result exactly as from a fresh run, so memoization
    /// never changes measurements.
    cache: Vec<CacheEntry>,
}

impl GpuSimExecutor {
    /// Default deterministic seed.
    pub const DEFAULT_SEED: u64 = 0x6E_0C_0D_E5;

    /// Creates a simulator for `system`'s GPU.
    #[must_use]
    pub fn new(system: &SystemSpec) -> Self {
        Self::with_seed(system, Self::DEFAULT_SEED)
    }

    /// Creates a simulator with an explicit seed for the system-fence
    /// jitter.
    #[must_use]
    pub fn with_seed(system: &SystemSpec, seed: u64) -> Self {
        GpuSimExecutor {
            system: system.clone(),
            model: GpuModel::for_spec(&system.gpu),
            rng: SplitMix64::seed_from_u64(seed),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Creates a simulator with a custom model (ablation benches).
    #[must_use]
    pub fn with_model(system: &SystemSpec, model: GpuModel) -> Self {
        GpuSimExecutor {
            system: system.clone(),
            model,
            rng: SplitMix64::seed_from_u64(Self::DEFAULT_SEED),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Replaces the jitter RNG seed, leaving system and model intact.
    /// The sweep scheduler seeds each job's executor from the job's
    /// content hash so a measurement depends only on its own identity,
    /// never on execution order.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.rng = SplitMix64::seed_from_u64(seed);
        self
    }

    /// The active model.
    #[must_use]
    pub fn model(&self) -> &GpuModel {
        &self.model
    }

    /// Mutable access to the model, for ablations.
    pub fn model_mut(&mut self) -> &mut GpuModel {
        &mut self.model
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Attaches a [`Recorder`](syncperf_core::obs::Recorder); engine
    /// runs then emit `gpu_sim.*` events/counters into it. Without one,
    /// the executor falls back to the globally installed recorder.
    #[must_use]
    pub fn with_recorder(mut self, rec: syncperf_core::obs::Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// The recorder engine runs observe into: this executor's own if
    /// enabled, otherwise the global one.
    fn effective_recorder(&self) -> &syncperf_core::obs::Recorder {
        if self.recorder.is_enabled() {
            &self.recorder
        } else {
            syncperf_core::obs::global()
        }
    }

    /// Returns the engine result for `(body, params)` from the memo
    /// cache, running the engine on a miss. Hits move to the front;
    /// misses evict the oldest entry beyond [`ENGINE_CACHE_CAP`].
    fn cached_run(&mut self, body: &[GpuOp], params: &ExecParams) -> Result<GpuEngineResult> {
        let reps = params.timed_reps();
        if let Some(pos) = self.cache.iter().position(|e| {
            e.blocks == params.blocks
                && e.threads == params.threads
                && e.reps == reps
                && e.body == body
        }) {
            self.cache[..=pos].rotate_right(1);
            return Ok(self.cache[0].result);
        }
        let occ = Occupancy::compute(&self.system.gpu, params.blocks, params.threads)?;
        let result =
            engine::run_observed(&self.model, &occ, body, reps, self.effective_recorder())?;
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                blocks: params.blocks,
                threads: params.threads,
                reps,
                result,
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
        Ok(result)
    }

    /// Lends this executor precomputed engine results for `params`,
    /// one per body. The scheduler's batched sweep evaluation computes
    /// many same-shape points in one struct-of-arrays pass
    /// ([`crate::batch::run_batch`]) and hands each job its slice; the
    /// protocol then runs on the returned executor, whose executions of
    /// a lent body (the same slice, compared by address) use its result
    /// instead of running the engine. Nothing is copied into the memo.
    /// Invisible to results for the same reasons the memo is (see the
    /// `cache` field docs).
    pub fn primed<'a>(
        &'a mut self,
        params: &ExecParams,
        lent: [(&'a [GpuOp], GpuEngineResult); 2],
    ) -> PrimedGpuSim<'a> {
        PrimedGpuSim {
            exec: self,
            key: (params.blocks, params.threads, params.timed_reps()),
            lent,
        }
    }

    /// One execution's reported time for an engine result: the total,
    /// or for a system-fence body the largest of one jittered copy of
    /// the total per launched thread. `total·(1 + amp·u)` never
    /// decreases in `u` for `amp ≥ 0` (the total is a non-negative
    /// cycle count), so that copy is the one of the largest draw, and
    /// of the smallest draw for a negative `amp`; either consumes one
    /// draw per thread, as the per-thread loop did.
    fn jittered(&mut self, result: &GpuEngineResult) -> f64 {
        let total = result.total_cycles();
        if !result.has_system_fence {
            return total;
        }
        let amp = self.model.fence_system_jitter;
        let u = if amp < 0.0 {
            self.rng.min_symmetric(result.total_threads)
        } else {
            self.rng.max_symmetric(result.total_threads)
        };
        total * (1.0 + amp * u)
    }
}

/// A [`GpuSimExecutor`] lent the batch-evaluated engine results of one
/// parameter point ([`GpuSimExecutor::primed`]). Any other execution
/// falls through to the executor itself.
#[derive(Debug)]
pub struct PrimedGpuSim<'a> {
    exec: &'a mut GpuSimExecutor,
    /// `(blocks, threads, reps)` the lent results were evaluated at.
    key: (u32, u32, u64),
    lent: [(&'a [GpuOp], GpuEngineResult); 2],
}

impl Executor for PrimedGpuSim<'_> {
    type Op = GpuOp;

    fn name(&self) -> &str {
        self.exec.name()
    }

    fn time_unit(&self) -> TimeUnit {
        self.exec.time_unit()
    }

    fn execute(&mut self, body: &[GpuOp], params: &ExecParams) -> Result<f64> {
        let lent = (params.blocks, params.threads, params.timed_reps()) == self.key;
        match self
            .lent
            .iter()
            .find(|(b, _)| lent && std::ptr::eq(*b, body))
        {
            Some((_, result)) => {
                params.validate()?;
                let result = *result;
                Ok(self.exec.jittered(&result))
            }
            None => self.exec.execute(body, params),
        }
    }
}

impl Executor for GpuSimExecutor {
    type Op = GpuOp;

    fn name(&self) -> &str {
        "gpu-sim"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Cycles {
            clock_ghz: self.system.gpu.clock_ghz,
        }
    }

    fn execute(&mut self, body: &[GpuOp], params: &ExecParams) -> Result<f64> {
        params.validate()?;
        let result = self.cached_run(body, params)?;
        Ok(self.jittered(&result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, stats, DType, Protocol, Scope, SYSTEM1, SYSTEM2, SYSTEM3};

    fn quick(blocks: u32, threads: u32) -> ExecParams {
        ExecParams::new(threads)
            .with_blocks(blocks)
            .with_loops(50, 4)
    }

    #[test]
    fn cycle_unit_uses_device_clock() {
        let gpu = GpuSimExecutor::new(&SYSTEM3);
        match gpu.time_unit() {
            TimeUnit::Cycles { clock_ghz } => assert_eq!(clock_ghz, 2.625),
            TimeUnit::Seconds => panic!("GPU must report cycles"),
        }
    }

    #[test]
    fn uniform_threads_report_the_engine_total() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let body = kernel::cuda_syncwarp().baseline;
        let params = quick(4, 64);
        let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
        let run = engine::run(gpu.model(), &occ, &body, params.timed_reps()).unwrap();
        assert_eq!(run.total_threads, 256);
        assert_eq!(
            gpu.execute(&body, &params).unwrap().to_bits(),
            run.total_cycles().to_bits()
        );
    }

    #[test]
    fn system_fence_is_the_max_of_the_jittered_thread_vector() {
        // The largest launch the sweeps make: 128 blocks × 1024 threads.
        // The oracle jitters a vector of one total per launched thread,
        // as the executor used to return, and takes its maximum. Three
        // executions pin the RNG stream position: a draw too many or
        // too few shifts every later result.
        // A negative amplitude turns the largest copy into the one of
        // the smallest draw.
        let body = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let params = quick(128, 1024);
        let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
        let default_amp = GpuSimExecutor::new(&SYSTEM3).model().fence_system_jitter;
        assert!(default_amp > 0.0);
        for amp in [default_amp, -default_amp] {
            let mut gpu = GpuSimExecutor::with_seed(&SYSTEM3, 11);
            gpu.model_mut().fence_system_jitter = amp;
            let run = engine::run(gpu.model(), &occ, &body, params.timed_reps()).unwrap();
            assert!(run.has_system_fence);
            let mut rng = SplitMix64::seed_from_u64(11);
            for _ in 0..3 {
                let per_thread: Vec<f64> = (0..128 * 1024)
                    .map(|_| run.total_cycles() * (1.0 + amp * rng.gen_symmetric()))
                    .collect();
                let expect = stats::max(&per_thread);
                assert_eq!(
                    gpu.execute(&body, &params).unwrap().to_bits(),
                    expect.to_bits(),
                    "amp {amp}"
                );
            }
        }
    }

    #[test]
    fn deterministic_without_system_fence() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        let a = gpu.execute(&body, &quick(2, 128)).unwrap();
        let b = gpu.execute(&body, &quick(2, 128)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn system_fence_is_erratic() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let body = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let a = gpu.execute(&body, &quick(1, 64)).unwrap();
        let b = gpu.execute(&body, &quick(1, 64)).unwrap();
        assert_ne!(a, b, "§V-B3: system fences involve the PCIe bus");
    }

    #[test]
    fn protocol_end_to_end_syncthreads() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::PAPER
            .measure(&mut gpu, &kernel::cuda_syncthreads(), &quick(64, 256))
            .unwrap();
        // 8 warps per block: base + 7×per-warp cycles.
        let expect = 25.0 + 9.0 * 7.0;
        assert!(
            (m.per_op - expect).abs() < 1e-6,
            "per_op {} vs {expect}",
            m.per_op
        );
    }

    #[test]
    fn all_three_gpus_run() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let mut gpu = GpuSimExecutor::new(sys);
            let m = Protocol::SIM
                .measure(&mut gpu, &kernel::cuda_syncwarp(), &quick(2, 64))
                .unwrap();
            assert!(m.per_op > 0.0, "{}", sys);
        }
    }

    #[test]
    fn throughput_conversion_uses_clock() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::SIM
            .measure(&mut gpu, &kernel::cuda_syncwarp(), &quick(1, 32))
            .unwrap();
        let expected = 2.625e9 / m.per_op;
        assert!((m.throughput().unwrap() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn attached_recorder_observes_scheduling_and_conflicts() {
        let rec = syncperf_core::obs::Recorder::enabled();
        let mut gpu = GpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
        gpu.execute(
            &kernel::cuda_atomic_add_scalar(DType::I32).baseline,
            &quick(4, 64),
        )
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("gpu_sim.launches"), 1);
        assert_eq!(snap.counter("gpu_sim.blocks_scheduled"), 4);
        assert_eq!(snap.counter("gpu_sim.warps_scheduled"), 8);
        assert!(
            snap.counter("gpu_sim.atomic_conflicts") > 0,
            "shared-scalar atomics conflict"
        );
    }

    #[test]
    fn engine_memo_is_invisible_to_results() {
        // A memo-hitting executor and a same-seed executor whose memo
        // is primed with the stepping oracle's results must agree
        // bit-for-bit — including for system-fence bodies, whose jitter
        // RNG draws from the memoized result exactly as from a fresh
        // run.
        let fenced = kernel::cuda_threadfence(Scope::System, DType::I32, 1).test;
        let plain = kernel::cuda_atomic_add_scalar(DType::I32).baseline;
        let params = quick(2, 64);
        let mut cached = GpuSimExecutor::with_seed(&SYSTEM3, 7);
        let mut exec = GpuSimExecutor::with_seed(&SYSTEM3, 7);
        let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
        let full = |body: &[GpuOp]| {
            engine::run_full_stepping(exec.model(), &occ, body, params.timed_reps()).unwrap()
        };
        let lent = [(&fenced[..], full(&fenced)), (&plain[..], full(&plain))];
        let mut oracle = exec.primed(&params, lent);
        for _ in 0..3 {
            for body in [&fenced, &plain] {
                assert_eq!(
                    cached.execute(body, &params).unwrap(),
                    oracle.execute(body, &params).unwrap()
                );
            }
        }
    }

    #[test]
    fn primed_engine_result_is_used_and_exact() {
        let body = kernel::cuda_syncthreads().test;
        let params = quick(8, 128);
        let mut fresh = GpuSimExecutor::new(&SYSTEM3);
        let expect = fresh.execute(&body, &params).unwrap();

        let mut primed = GpuSimExecutor::new(&SYSTEM3);
        let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
        let batch = crate::batch::run_batch(
            primed.model(),
            std::slice::from_ref(&occ),
            &body,
            params.timed_reps(),
            &syncperf_core::obs::Recorder::disabled(),
        )
        .unwrap();
        let baseline = kernel::cuda_syncthreads().baseline;
        let mut lent = primed.primed(&params, [(&body, batch[0]), (&baseline, batch[0])]);
        assert_eq!(lent.execute(&body, &params).unwrap(), expect);
        // An equal body at another address is not lent: it runs the
        // engine, and the result is the same.
        let copy = body.clone();
        assert_eq!(lent.execute(&copy, &params).unwrap(), expect);
        assert_eq!(primed.cache.len(), 1, "the copy ran the engine");
    }

    #[test]
    fn rejects_oversized_launches() {
        let mut gpu = GpuSimExecutor::new(&SYSTEM3);
        assert!(gpu
            .execute(&kernel::cuda_syncwarp().baseline, &quick(1, 2000))
            .is_err());
    }
}
