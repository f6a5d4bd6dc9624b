//! The CPU-simulator [`Executor`]: plugs the engine into the
//! measurement protocol, adding deterministic per-run timing jitter.
//!
//! Every engine result comes from the one evaluator,
//! [`crate::trace::run_batch`], which also records it: either the
//! scheduler evaluated a batched plan table and lends the job's two
//! results by reference ([`CpuSimExecutor::primed`]), or a memo miss
//! runs [`engine::run_observed`], a table of one point. The memo serves
//! every recorder alike, so events describe engine evaluations, not
//! protocol executions.
//!
//! An execution draws its jitter over the per-thread engine times in
//! place and keeps only their running maximum: no result is cloned and
//! no per-thread vector is built, yet the draws and the maximum are
//! exactly those of jittering a copy and taking [`stats::max`] of it.
//!
//! [`stats::max`]: syncperf_core::stats::max

use syncperf_core::rng::SplitMix64;
use syncperf_core::{
    Affinity, CpuOp, ExecParams, Executor, Result, SyncPerfError, SystemSpec, TimeUnit,
};

use crate::config::CpuModel;
use crate::engine::{self, EngineResult};
use crate::topology::Placement;

/// How many recent engine results the executor memoizes. The protocol
/// alternates between a kernel's baseline and test bodies 6–18 times
/// per measurement with identical parameters; two entries would
/// suffice, four absorbs interleaved kernels too.
const ENGINE_CACHE_CAP: usize = 4;

/// One memoized deterministic engine run.
#[derive(Debug, Clone)]
struct CacheEntry {
    body: Vec<CpuOp>,
    threads: u32,
    affinity: Affinity,
    reps: u64,
    result: EngineResult,
}

/// Simulates the CPU of one of the paper's systems.
///
/// Virtual times are reported in seconds (the engine's nanoseconds
/// divided by 10⁹), so measurements read exactly like the real-thread
/// executor's. Every run perturbs the result with the system's jitter
/// model — System 3's AMD CPU gets a visibly larger amplitude (Fig. 4a)
/// — deterministically from the constructor seed.
///
/// # Examples
///
/// ```
/// use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
/// use syncperf_cpu_sim::CpuSimExecutor;
///
/// # fn main() -> syncperf_core::Result<()> {
/// let mut sim = CpuSimExecutor::new(&SYSTEM3);
/// let m = Protocol::SIM.measure(
///     &mut sim,
///     &kernel::omp_atomic_update_scalar(DType::I32),
///     &ExecParams::new(16).with_loops(50, 4),
/// )?;
/// assert!(m.throughput().unwrap() > 1e5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CpuSimExecutor {
    system: SystemSpec,
    model: CpuModel,
    rng: SplitMix64,
    recorder: syncperf_core::obs::Recorder,
    /// Most-recent-first memo of engine runs. The engine is fully
    /// deterministic given `(body, threads, affinity, reps)` — the
    /// model and system are fixed at construction — so the protocol's
    /// repeated identical executions reuse one simulation.
    cache: Vec<CacheEntry>,
}

impl CpuSimExecutor {
    /// Default deterministic seed.
    pub const DEFAULT_SEED: u64 = 0x12345;

    /// Creates a simulator for `system`'s CPU with the default seed.
    #[must_use]
    pub fn new(system: &SystemSpec) -> Self {
        Self::with_seed(system, Self::DEFAULT_SEED)
    }

    /// Creates a simulator with an explicit jitter seed.
    #[must_use]
    pub fn with_seed(system: &SystemSpec, seed: u64) -> Self {
        CpuSimExecutor {
            system: system.clone(),
            model: CpuModel::for_system(&system.cpu, system.cpu_jitter),
            rng: SplitMix64::seed_from_u64(seed),
            recorder: syncperf_core::obs::Recorder::disabled(),
            cache: Vec::new(),
        }
    }

    /// Creates a simulator with a custom latency model (used by the
    /// ablation benches).
    #[must_use]
    pub fn with_model(system: &SystemSpec, model: CpuModel) -> Self {
        CpuSimExecutor {
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

    /// The active latency model.
    #[must_use]
    pub fn model(&self) -> &CpuModel {
        &self.model
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &SystemSpec {
        &self.system
    }

    /// Attaches a [`Recorder`](syncperf_core::obs::Recorder); engine
    /// runs then emit `cpu_sim.*` events/counters into it. Without one,
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

    /// Brings the engine result for `(body, params)` to the front of
    /// the memo cache, running the engine on a miss. Hits move to the
    /// front; misses evict the oldest entry beyond [`ENGINE_CACHE_CAP`].
    fn memo_to_front(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<()> {
        let reps = params.timed_reps();
        if let Some(pos) = self.cache.iter().position(|e| {
            e.threads == params.threads
                && e.affinity == params.affinity
                && e.reps == reps
                && e.body == body
        }) {
            self.cache[..=pos].rotate_right(1);
            return Ok(());
        }
        let placement = Placement::new(&self.system.cpu, params.affinity, params.threads);
        let result = engine::run_observed(
            &self.model,
            &placement,
            body,
            reps,
            self.effective_recorder(),
        )?;
        self.cache.insert(
            0,
            CacheEntry {
                body: body.to_vec(),
                threads: params.threads,
                affinity: params.affinity,
                reps,
                result,
            },
        );
        self.cache.truncate(ENGINE_CACHE_CAP);
        Ok(())
    }

    /// Lends this executor precomputed engine results for `params`,
    /// one per body. The scheduler's batched sweep evaluation computes
    /// many same-shape engine runs in one struct-of-arrays pass
    /// ([`crate::trace::run_batch`]) and hands each job its slice; the
    /// protocol then runs on the returned executor, whose executions of
    /// a lent body (the same slice, compared by address) jitter its
    /// result instead of re-simulating. Nothing is copied into the
    /// memo. Invisible to results: the engine is deterministic and
    /// jitter is drawn after the (possibly lent) run.
    pub fn primed<'a>(
        &'a mut self,
        params: &ExecParams,
        lent: [(&'a [CpuOp], &'a EngineResult); 2],
    ) -> PrimedCpuSim<'a> {
        PrimedCpuSim {
            exec: self,
            key: (params.threads, params.affinity, params.timed_reps()),
            lent,
        }
    }

    /// The parameter checks every execution makes before it looks for
    /// an engine result.
    ///
    /// # Errors
    ///
    /// Returns [`SyncPerfError::InvalidParams`] for parameters
    /// [`ExecParams::validate`] rejects and for more than one block:
    /// the simulated CPU runs a single team.
    pub fn check(params: &ExecParams) -> Result<()> {
        params.validate()?;
        if params.blocks != 1 {
            return Err(SyncPerfError::InvalidParams(
                "the CPU simulator runs a single team (blocks must be 1)".into(),
            ));
        }
        Ok(())
    }

    /// The jitter amplitude of a team of `threads`: hyperthreading
    /// adds variability (Section V-A2 observes exactly that).
    fn amplitude(&self, threads: u32) -> f64 {
        self.model.jitter_amplitude
            + if Placement::engages_smt(&self.system.cpu, threads) {
                self.model.smt_jitter_boost
            } else {
                0.0
            }
    }
}

/// One execution's reported time: the largest jittered copy of the
/// per-thread engine times, in seconds.
///
/// Timing jitter has one run-wide component (OS/system noise hits the
/// whole measurement — it survives the max-across-threads) plus a small
/// per-thread component, drawn in thread order. It is drawn after the
/// (possibly memoized) engine run, so the RNG sequence is independent
/// of cache hits. The per-thread amplitude `0.1·amp` is hoisted (the
/// product stays left-associative, so no bit moves), and the running
/// maximum lets a later equal value win, as [`stats::max`] does.
///
/// [`stats::max`]: syncperf_core::stats::max
fn jittered(rng: &mut SplitMix64, amp: f64, per_thread_ns: &[f64]) -> f64 {
    let run_noise: f64 = 1.0 + amp * rng.gen_symmetric();
    let thread_amp = 0.1 * amp;
    let mut max = f64::NEG_INFINITY;
    for &ns in per_thread_ns {
        let t = ns * 1e-9 * run_noise * (1.0 + thread_amp * rng.gen_symmetric());
        if t >= max {
            max = t;
        }
    }
    max
}

/// A [`CpuSimExecutor`] lent the batch-evaluated engine results of one
/// parameter point ([`CpuSimExecutor::primed`]). Any other execution
/// falls through to the executor itself.
#[derive(Debug)]
pub struct PrimedCpuSim<'a> {
    exec: &'a mut CpuSimExecutor,
    /// `(threads, affinity, reps)` the lent results were evaluated at.
    key: (u32, Affinity, u64),
    lent: [(&'a [CpuOp], &'a EngineResult); 2],
}

impl Executor for PrimedCpuSim<'_> {
    type Op = CpuOp;

    fn name(&self) -> &str {
        self.exec.name()
    }

    fn time_unit(&self) -> TimeUnit {
        self.exec.time_unit()
    }

    fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<f64> {
        let lent = (params.threads, params.affinity, params.timed_reps()) == self.key;
        match self
            .lent
            .iter()
            .find(|(b, _)| lent && std::ptr::eq(*b, body))
        {
            Some(&(_, result)) => {
                CpuSimExecutor::check(params)?;
                let amp = self.exec.amplitude(params.threads);
                Ok(jittered(&mut self.exec.rng, amp, &result.per_thread_ns))
            }
            None => self.exec.execute(body, params),
        }
    }
}

impl Executor for CpuSimExecutor {
    type Op = CpuOp;

    fn name(&self) -> &str {
        "cpu-sim"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Seconds
    }

    fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> Result<f64> {
        Self::check(params)?;
        self.memo_to_front(body, params)?;
        let amp = self.amplitude(params.threads);
        Ok(jittered(
            &mut self.rng,
            amp,
            &self.cache[0].result.per_thread_ns,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, stats, DType, Protocol, SYSTEM1, SYSTEM2, SYSTEM3};

    fn quick(threads: u32) -> ExecParams {
        ExecParams::new(threads).with_loops(50, 4)
    }

    #[test]
    fn reports_max_thread_seconds() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let t = sim
            .execute(&kernel::omp_barrier().baseline, &quick(8))
            .unwrap();
        assert!(t > 0.0 && t < 1.0, "unreasonable virtual time {t}");
    }

    /// The per-thread contract the executor used to return: jitter a
    /// copy of every thread's engine time, drawing from `rng` in
    /// thread order, and take the maximum of the vector.
    fn per_thread_vector_max(
        rng: &mut SplitMix64,
        model: &CpuModel,
        placement: &Placement,
        per_thread_ns: &[f64],
    ) -> f64 {
        let amp = model.jitter_amplitude
            + if placement.uses_hyperthreads() {
                model.smt_jitter_boost
            } else {
                0.0
            };
        let run_noise = 1.0 + amp * rng.gen_symmetric();
        let per_thread: Vec<f64> = per_thread_ns
            .iter()
            .map(|&ns| ns * 1e-9 * run_noise * (1.0 + 0.1 * amp * rng.gen_symmetric()))
            .collect();
        stats::max(&per_thread)
    }

    #[test]
    fn execution_is_the_max_of_the_jittered_thread_vector() {
        // 1 thread, one thread per core, the first SMT sibling, and a
        // wrapped-around team twice the hardware threads (System 3 has
        // 16 cores × 2 ways). Three executions per body pin the RNG
        // stream position: a draw too many or too few shifts every
        // later result.
        let bodies = [
            kernel::omp_atomic_update_array(DType::I32, 1).test,
            kernel::omp_flush(DType::F64, 4).test,
        ];
        for threads in [1u32, 16, 17, 64] {
            let params = quick(threads);
            let placement = Placement::new(&SYSTEM3.cpu, params.affinity, threads);
            let mut sim = CpuSimExecutor::with_seed(&SYSTEM3, 11);
            let mut rng = SplitMix64::seed_from_u64(11);
            for _ in 0..3 {
                for body in &bodies {
                    let ns = engine::run(sim.model(), &placement, body, params.timed_reps())
                        .unwrap()
                        .per_thread_ns;
                    assert_eq!(ns.len(), threads as usize);
                    let expect = per_thread_vector_max(&mut rng, sim.model(), &placement, &ns);
                    let got = sim.execute(body, &params).unwrap();
                    assert_eq!(got.to_bits(), expect.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn rejects_blocks() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        assert!(sim
            .execute(&kernel::omp_barrier().baseline, &quick(2).with_blocks(2))
            .is_err());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let mut a = CpuSimExecutor::with_seed(&SYSTEM3, 42);
        let mut b = CpuSimExecutor::with_seed(&SYSTEM3, 42);
        let body = kernel::omp_atomic_update_scalar(DType::F32).test;
        assert_eq!(
            a.execute(&body, &quick(8)).unwrap(),
            b.execute(&body, &quick(8)).unwrap()
        );
    }

    #[test]
    fn jitter_varies_between_runs() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let a = sim.execute(&body, &quick(4)).unwrap();
        let b = sim.execute(&body, &quick(4)).unwrap();
        assert_ne!(a, b, "jitter should perturb consecutive runs");
    }

    #[test]
    fn amd_system_noisier_than_intel() {
        let s3 = CpuSimExecutor::new(&SYSTEM3);
        let s2 = CpuSimExecutor::new(&SYSTEM2);
        assert!(s3.model().jitter_amplitude > s2.model().jitter_amplitude);
    }

    #[test]
    fn full_protocol_produces_positive_atomic_cost() {
        let mut sim = CpuSimExecutor::new(&SYSTEM3);
        let m = Protocol::PAPER
            .measure(
                &mut sim,
                &kernel::omp_atomic_update_scalar(DType::I32),
                &quick(8),
            )
            .unwrap();
        assert!(m.per_op > 0.0);
        // ~6.5 ns modeled base + contention; sanity-range check.
        let ns = m.runtime_seconds() * 1e9;
        assert!(ns > 10.0 && ns < 1000.0, "atomic cost {ns} ns out of range");
    }

    #[test]
    fn atomic_read_measures_negligible() {
        let mut sim = CpuSimExecutor::new(&SYSTEM2);
        let m = Protocol::PAPER
            .measure(&mut sim, &kernel::omp_atomic_read(DType::I32), &quick(8))
            .unwrap();
        assert!(
            m.is_negligible(),
            "atomic reads must be free (§V-A2): {}",
            m.per_op
        );
        assert!(m.throughput().is_none());
    }

    #[test]
    fn attached_recorder_observes_engine_counters() {
        let rec = syncperf_core::obs::Recorder::tracing();
        let mut sim = CpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
        sim.execute(&kernel::omp_barrier().test, &quick(4)).unwrap();
        sim.execute(
            &kernel::omp_atomic_update_scalar(DType::I32).baseline,
            &quick(8),
        )
        .unwrap();
        let snap = rec.snapshot();
        assert!(snap.counter("cpu_sim.engine_runs") >= 2);
        assert!(snap.counter("cpu_sim.barrier_rounds") > 0);
        assert!(
            snap.counter("cpu_sim.mesi_transitions") > 0,
            "contended atomics move lines"
        );
        assert!(snap.gauge("cpu_sim.arb_queue_depth_max") > 0);
    }

    #[test]
    fn engine_memo_is_invisible_to_results() {
        // A memo-hitting executor and a same-seed executor whose memo
        // is primed with the stepping oracle's results must agree
        // bit-for-bit, so the memo never stands in for a different
        // evaluation.
        let body_a = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let body_b = kernel::omp_atomic_update_scalar(DType::I32).test;
        let params = quick(8);
        let mut cached = CpuSimExecutor::with_seed(&SYSTEM3, 7);
        let mut exec = CpuSimExecutor::with_seed(&SYSTEM3, 7);
        let placement = Placement::new(&SYSTEM3.cpu, params.affinity, params.threads);
        let full = |body: &[CpuOp]| {
            engine::run_full_stepping(exec.model(), &placement, body, params.timed_reps()).unwrap()
        };
        let (full_a, full_b) = (full(&body_a), full(&body_b));
        let mut oracle = exec.primed(&params, [(&body_a, &full_a), (&body_b, &full_b)]);
        for _ in 0..3 {
            for body in [&body_a, &body_b] {
                assert_eq!(
                    cached.execute(body, &params).unwrap(),
                    oracle.execute(body, &params).unwrap()
                );
            }
        }
    }

    #[test]
    fn all_three_systems_run() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let mut sim = CpuSimExecutor::new(sys);
            let m = Protocol::SIM
                .measure(&mut sim, &kernel::omp_barrier(), &quick(4))
                .unwrap();
            assert!(m.per_op > 0.0, "{}", sys);
        }
    }
}
