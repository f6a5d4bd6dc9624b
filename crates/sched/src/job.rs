//! Job descriptions: one independent measurement per sweep point.
//!
//! A [`JobSpec`] captures everything that determines a measurement's
//! outcome — the executor kind, the simulated system, an optional
//! model override, the kernel (name *and* op bodies), the execution
//! parameters, and the protocol — so its canonical form can serve as a
//! content-addressed cache key. Anything not captured here must be
//! folded into the scheduler's version salt instead.

use std::collections::HashMap;
use std::fmt::Write as _;

use syncperf_core::{CpuKernel, ExecParams, GpuKernel, Measurement, Protocol, Result, SystemSpec};
use syncperf_cpu_sim::{CpuModel, CpuSimExecutor, EngineResult, Placement};
use syncperf_gpu_sim::{GpuEngineResult, GpuModel, GpuSimExecutor, Occupancy};
use syncperf_omp::OmpExecutor;

/// One independent measurement job: kernel × parameters × protocol on
/// a concrete executor configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A measurement on the CPU simulator.
    CpuSim {
        /// The simulated system.
        system: SystemSpec,
        /// Latency-model override (`None` = the system's calibrated
        /// model).
        model: Option<CpuModel>,
        /// The kernel to measure.
        kernel: CpuKernel,
        /// The parameter point.
        params: ExecParams,
        /// The measurement protocol.
        protocol: Protocol,
    },
    /// A measurement on the GPU simulator.
    GpuSim {
        /// The simulated system.
        system: SystemSpec,
        /// Latency-model override (`None` = the system's calibrated
        /// model).
        model: Option<GpuModel>,
        /// The kernel to measure.
        kernel: GpuKernel,
        /// The parameter point.
        params: ExecParams,
        /// The measurement protocol.
        protocol: Protocol,
    },
    /// A measurement on this machine's real threads. Results are only
    /// meaningful on the host that produced them, so the host identity
    /// is part of the job's content hash.
    RealOmp {
        /// Hostname × hardware-parallelism fingerprint.
        host: String,
        /// The kernel to measure.
        kernel: CpuKernel,
        /// The parameter point.
        params: ExecParams,
        /// The measurement protocol.
        protocol: Protocol,
    },
}

/// The host fingerprint used for [`JobSpec::RealOmp`] hashing: results
/// from one machine must never be served as another machine's.
#[must_use]
pub fn host_fingerprint() -> String {
    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".into());
    let par = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!("{host}/{par}")
}

impl JobSpec {
    /// A CPU-simulator job with the system's calibrated model.
    #[must_use]
    pub fn cpu_sim(
        system: &SystemSpec,
        kernel: CpuKernel,
        params: ExecParams,
        protocol: Protocol,
    ) -> Self {
        JobSpec::CpuSim {
            system: system.clone(),
            model: None,
            kernel,
            params,
            protocol,
        }
    }

    /// A CPU-simulator job with an explicit latency model (used by the
    /// sensitivity sweep's perturbed models).
    #[must_use]
    pub fn cpu_sim_with_model(
        system: &SystemSpec,
        model: CpuModel,
        kernel: CpuKernel,
        params: ExecParams,
        protocol: Protocol,
    ) -> Self {
        JobSpec::CpuSim {
            system: system.clone(),
            model: Some(model),
            kernel,
            params,
            protocol,
        }
    }

    /// A GPU-simulator job with the system's calibrated model.
    #[must_use]
    pub fn gpu_sim(
        system: &SystemSpec,
        kernel: GpuKernel,
        params: ExecParams,
        protocol: Protocol,
    ) -> Self {
        JobSpec::GpuSim {
            system: system.clone(),
            model: None,
            kernel,
            params,
            protocol,
        }
    }

    /// A GPU-simulator job with an explicit latency model.
    #[must_use]
    pub fn gpu_sim_with_model(
        system: &SystemSpec,
        model: GpuModel,
        kernel: GpuKernel,
        params: ExecParams,
        protocol: Protocol,
    ) -> Self {
        JobSpec::GpuSim {
            system: system.clone(),
            model: Some(model),
            kernel,
            params,
            protocol,
        }
    }

    /// A real-thread job on this host.
    #[must_use]
    pub fn real_omp(kernel: CpuKernel, params: ExecParams, protocol: Protocol) -> Self {
        JobSpec::RealOmp {
            host: host_fingerprint(),
            kernel,
            params,
            protocol,
        }
    }

    /// The measured kernel's name (stored in cache entries and checked
    /// against them on load).
    #[must_use]
    pub fn kernel_name(&self) -> &str {
        match self {
            JobSpec::CpuSim { kernel, .. } | JobSpec::RealOmp { kernel, .. } => &kernel.name,
            JobSpec::GpuSim { kernel, .. } => &kernel.name,
        }
    }

    /// The parameter point this job measures at.
    #[must_use]
    pub fn params(&self) -> &ExecParams {
        match self {
            JobSpec::CpuSim { params, .. }
            | JobSpec::GpuSim { params, .. }
            | JobSpec::RealOmp { params, .. } => params,
        }
    }

    /// The canonical string the content hash is computed over. Covers
    /// the executor kind, system spec, effective latency-model digest,
    /// full kernel (name, op bodies, extra-op count), parameters, and
    /// protocol — everything that determines the measurement.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        match self {
            JobSpec::CpuSim {
                system,
                model,
                kernel,
                params,
                protocol,
            } => {
                let model = model
                    .clone()
                    .unwrap_or_else(|| CpuModel::for_system(&system.cpu, system.cpu_jitter));
                let _ = write!(
                    s,
                    "exec=cpu-sim\nsystem={system:?}\nmodel={:016x}\n",
                    model.config_digest()
                );
                Self::push_tail(&mut s, &format!("{kernel:?}"), params, *protocol);
            }
            JobSpec::GpuSim {
                system,
                model,
                kernel,
                params,
                protocol,
            } => {
                let model = model
                    .clone()
                    .unwrap_or_else(|| GpuModel::for_spec(&system.gpu));
                let _ = write!(
                    s,
                    "exec=gpu-sim\nsystem={system:?}\nmodel={:016x}\n",
                    model.config_digest()
                );
                Self::push_tail(&mut s, &format!("{kernel:?}"), params, *protocol);
            }
            JobSpec::RealOmp {
                host,
                kernel,
                params,
                protocol,
            } => {
                let _ = write!(s, "exec=real-omp\nhost={host}\n");
                Self::push_tail(&mut s, &format!("{kernel:?}"), params, *protocol);
            }
        }
        s
    }

    fn push_tail(s: &mut String, kernel: &str, params: &ExecParams, protocol: Protocol) {
        let _ = writeln!(s, "kernel={kernel}");
        s.push_str(&Self::params_tail(params, protocol));
    }

    /// The canonical text's last lines: the parameter point and the
    /// protocol, in their derived `Debug` form (so a new field is
    /// hashed without touching this).
    fn params_tail(params: &ExecParams, protocol: Protocol) -> String {
        format!("params={params:?}\nprotocol={protocol:?}\n")
    }

    /// The FNV-1a hash of `canonical() + salt_line` without building
    /// the canonical string: the hash *state* over the shared
    /// prefix-plus-kernel head is memoized in `cache` (FNV-1a is a
    /// byte-sequential fold, so a cached state continues exactly —
    /// see [`crate::hash::fnv1a_continue`]), as is the text of each
    /// distinct `params`/`protocol` tail; per call the tail's bytes and
    /// then `salt_line` are folded in. Bit-identical to hashing the
    /// full canonical text. `RealOmp` jobs take the plain path —
    /// real-machine sweeps are a handful of jobs, not thousands.
    #[must_use]
    pub fn hash_with(&self, cache: &mut CanonicalCache, salt_line: &str) -> u64 {
        self.hash_with_heads(&mut cache.heads, &mut cache.tails, salt_line)
    }

    /// [`Self::hash_with`] over a head memo and a tail memo held
    /// apart, so a scheduler can keep its heads for its lifetime and
    /// its tails for one call.
    pub(crate) fn hash_with_heads(
        &self,
        heads: &mut HeadMemo,
        tails: &mut Tails,
        salt_line: &str,
    ) -> u64 {
        let (state, params, protocol) = match self {
            JobSpec::CpuSim {
                system,
                model,
                kernel,
                params,
                protocol,
            } => {
                let pi = heads.cpu_prefix_idx(system, model.as_ref());
                let ki = heads.cpu_kernel_idx(kernel);
                (heads.cpu_hash_state(pi, ki), params, *protocol)
            }
            JobSpec::GpuSim {
                system,
                model,
                kernel,
                params,
                protocol,
            } => {
                let pi = heads.gpu_prefix_idx(system, model.as_ref());
                let ki = heads.gpu_kernel_idx(kernel);
                (heads.gpu_hash_state(pi, ki), params, *protocol)
            }
            JobSpec::RealOmp { .. } => {
                let mut s = self.canonical();
                s.push_str(salt_line);
                return crate::hash::fnv1a(s.as_bytes());
            }
        };
        let tail = tails
            .entry((*params, protocol))
            .or_insert_with(|| Self::params_tail(params, protocol));
        let h = crate::hash::fnv1a_continue(state, tail.as_bytes());
        crate::hash::fnv1a_continue(h, salt_line.as_bytes())
    }

    /// Whether `self` and `other` are the same *measurement shape*:
    /// identical executor kind, system, model override, kernel, and
    /// protocol, with equal timed-rep counts — differing at most in the
    /// parameter point (threads, blocks, affinity). Same-shape jobs can
    /// be evaluated together by one batched struct-of-arrays pass.
    #[must_use]
    pub fn same_shape(&self, other: &JobSpec) -> bool {
        match (self, other) {
            (
                JobSpec::CpuSim {
                    system: s1,
                    model: m1,
                    kernel: k1,
                    params: p1,
                    protocol: pr1,
                },
                JobSpec::CpuSim {
                    system: s2,
                    model: m2,
                    kernel: k2,
                    params: p2,
                    protocol: pr2,
                },
            ) => {
                pr1 == pr2 && p1.timed_reps() == p2.timed_reps() && k1 == k2 && m1 == m2 && s1 == s2
            }
            (
                JobSpec::GpuSim {
                    system: s1,
                    model: m1,
                    kernel: k1,
                    params: p1,
                    protocol: pr1,
                },
                JobSpec::GpuSim {
                    system: s2,
                    model: m2,
                    kernel: k2,
                    params: p2,
                    protocol: pr2,
                },
            ) => {
                pr1 == pr2 && p1.timed_reps() == p2.timed_reps() && k1 == k2 && m1 == m2 && s1 == s2
            }
            _ => false,
        }
    }

    /// Partitions `jobs` into same-shape groups ([`JobSpec::same_shape`])
    /// by one scan over the group leads: indexes into `jobs`, groups in
    /// order of first appearance, members ascending. A sweep's miss set
    /// holds at most a handful of shapes, so the scan is cheap.
    #[must_use]
    pub fn shape_groups(jobs: &[&JobSpec]) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match groups.iter_mut().find(|g| jobs[g[0]].same_shape(job)) {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        groups
    }

    /// Batch-primes every same-shape group of ≥ 2 jobs in `jobs`
    /// ([`JobSpec::shape_groups`], [`JobSpec::batch_prime`]): one slot
    /// per job, in input order. A lone job, and every member of a group
    /// whose batch evaluation fails, stays `None`, so the per-job path
    /// runs it and reproduces any error exactly. The pool's chunk
    /// tasks, the dist workers and the dist coordinator all prime here.
    #[must_use]
    pub fn prime_groups(jobs: &[&JobSpec]) -> Vec<Option<PrimedEngine>> {
        let mut primed = vec![None; jobs.len()];
        for group in Self::shape_groups(jobs) {
            if group.len() < 2 {
                continue;
            }
            let members: Vec<&JobSpec> = group.iter().map(|&i| jobs[i]).collect();
            let engines = Self::batch_prime(&members).unwrap_or_default();
            for (i, pe) in group.into_iter().zip(engines) {
                primed[i] = Some(pe);
            }
        }
        primed
    }

    /// Evaluates a same-shape group of jobs in one batched
    /// struct-of-arrays pass per kernel body, returning one
    /// [`PrimedEngine`] per job (in group order). Returns `None` —
    /// priming nothing, so the per-job path runs unchanged and
    /// reproduces any per-point error — when the group is not
    /// batchable: mixed or real-thread executors, a point failing
    /// validation, or an unsupported op at any occupancy.
    #[must_use]
    pub fn batch_prime(group: &[&JobSpec]) -> Option<Vec<PrimedEngine>> {
        match group.first()? {
            JobSpec::CpuSim {
                system,
                model,
                kernel,
                params: first_params,
                ..
            } => {
                let reps = first_params.timed_reps();
                let mut placements = Vec::with_capacity(group.len());
                for job in group {
                    let JobSpec::CpuSim { params, .. } = job else {
                        return None;
                    };
                    if params.validate().is_err() || params.blocks != 1 {
                        return None;
                    }
                    placements.push(Placement::new(&system.cpu, params.affinity, params.threads));
                }
                let model = model
                    .clone()
                    .unwrap_or_else(|| CpuModel::for_system(&system.cpu, system.cpu_jitter));
                let rec = syncperf_core::obs::global();
                let baseline = syncperf_cpu_sim::trace::run_batch(
                    &model,
                    &kernel.baseline,
                    &placements,
                    reps,
                    rec,
                )
                .ok()?;
                let test = syncperf_cpu_sim::trace::run_batch(
                    &model,
                    &kernel.test,
                    &placements,
                    reps,
                    rec,
                )
                .ok()?;
                Some(
                    baseline
                        .into_iter()
                        .zip(test)
                        .map(|(baseline, test)| PrimedEngine::Cpu { baseline, test })
                        .collect(),
                )
            }
            JobSpec::GpuSim {
                system,
                model,
                kernel,
                params: first_params,
                ..
            } => {
                let reps = first_params.timed_reps();
                let mut occs = Vec::with_capacity(group.len());
                for job in group {
                    let JobSpec::GpuSim { params, .. } = job else {
                        return None;
                    };
                    if params.validate().is_err() {
                        return None;
                    }
                    occs.push(Occupancy::compute(&system.gpu, params.blocks, params.threads).ok()?);
                }
                let model = model
                    .clone()
                    .unwrap_or_else(|| GpuModel::for_spec(&system.gpu));
                let rec = syncperf_core::obs::global();
                let baseline =
                    syncperf_gpu_sim::batch::run_batch(&model, &occs, &kernel.baseline, reps, rec)
                        .ok()?;
                let test =
                    syncperf_gpu_sim::batch::run_batch(&model, &occs, &kernel.test, reps, rec)
                        .ok()?;
                Some(
                    baseline
                        .into_iter()
                        .zip(test)
                        .map(|(baseline, test)| PrimedEngine::Gpu { baseline, test })
                        .collect(),
                )
            }
            JobSpec::RealOmp { .. } => None,
        }
    }

    /// [`JobSpec::execute`] with batch-precomputed engine results: the
    /// executor is constructed exactly as in `execute` and is lent the
    /// kernel's two engine results by reference
    /// (`CpuSimExecutor::primed`, `GpuSimExecutor::primed`), so every
    /// execution uses them instead of re-simulating, and nothing is
    /// copied. Byte-identical to `execute(seed)` — a lent result is
    /// result-invisible (jitter is drawn after the engine run) and the
    /// engine results are seed-independent, so retries with different
    /// seeds lend the same primed results again. A kind-mismatched
    /// priming primes nothing.
    ///
    /// # Errors
    ///
    /// Propagates executor/protocol errors.
    pub fn execute_primed(&self, seed: u64, primed: &PrimedEngine) -> Result<Measurement> {
        match (self.executor().with_jitter_seed(seed), self, primed) {
            (
                JobExecutor::Cpu(mut e),
                JobSpec::CpuSim {
                    kernel,
                    params,
                    protocol,
                    ..
                },
                PrimedEngine::Cpu { baseline, test },
            ) => {
                let lent = [(&kernel.baseline[..], baseline), (&kernel.test[..], test)];
                protocol.measure(&mut e.primed(params, lent), kernel, params)
            }
            (
                JobExecutor::Gpu(mut e),
                JobSpec::GpuSim {
                    kernel,
                    params,
                    protocol,
                    ..
                },
                PrimedEngine::Gpu { baseline, test },
            ) => {
                let lent = [(&kernel.baseline[..], *baseline), (&kernel.test[..], *test)];
                protocol.measure(&mut e.primed(params, lent), kernel, params)
            }
            (mut exec, ..) => exec.measure(self),
        }
    }

    /// Executes the job. Simulator jobs get `seed` as their jitter
    /// seed, so a job's outcome depends only on its own identity —
    /// never on which worker ran it or what ran before it — which is
    /// what makes N-worker output byte-identical to 1-worker output.
    ///
    /// # Errors
    ///
    /// Propagates executor/protocol errors.
    pub fn execute(&self, seed: u64) -> Result<Measurement> {
        self.executor().with_jitter_seed(seed).measure(self)
    }

    /// Executes `jobs` serially, in order, without per-job seeds: the
    /// jobs that share an executor configuration (kind, system and
    /// model override) run on one executor, built on first use with
    /// its default jitter seed, so their measurements continue one
    /// jitter-RNG stream. This is the flagless legacy path; a caller
    /// that wants a fresh stream makes a separate call.
    ///
    /// # Errors
    ///
    /// Returns the first job's error, in order.
    pub fn execute_serially(jobs: &[JobSpec]) -> Result<Vec<Measurement>> {
        let mut execs: Vec<(&JobSpec, JobExecutor)> = Vec::new();
        jobs.iter()
            .map(|job| {
                let i = execs
                    .iter()
                    .position(|(lead, _)| lead.same_executor(job))
                    .unwrap_or_else(|| {
                        execs.push((job, job.executor()));
                        execs.len() - 1
                    });
                execs[i].1.measure(job)
            })
            .collect()
    }

    /// The executor this job runs on, built from its system and model
    /// override with the executor's default jitter seed.
    fn executor(&self) -> JobExecutor {
        match self {
            JobSpec::CpuSim { system, model, .. } => JobExecutor::Cpu(match model {
                Some(m) => CpuSimExecutor::with_model(system, m.clone()),
                None => CpuSimExecutor::new(system),
            }),
            JobSpec::GpuSim { system, model, .. } => JobExecutor::Gpu(match model {
                Some(m) => GpuSimExecutor::with_model(system, m.clone()),
                None => GpuSimExecutor::new(system),
            }),
            JobSpec::RealOmp { .. } => JobExecutor::Real(OmpExecutor::new()),
        }
    }

    /// Whether `self` and `other` build the same executor: same kind,
    /// system and model override.
    fn same_executor(&self, other: &JobSpec) -> bool {
        match (self, other) {
            (
                JobSpec::CpuSim {
                    system: s1,
                    model: m1,
                    ..
                },
                JobSpec::CpuSim {
                    system: s2,
                    model: m2,
                    ..
                },
            ) => m1 == m2 && s1 == s2,
            (
                JobSpec::GpuSim {
                    system: s1,
                    model: m1,
                    ..
                },
                JobSpec::GpuSim {
                    system: s2,
                    model: m2,
                    ..
                },
            ) => m1 == m2 && s1 == s2,
            (JobSpec::RealOmp { .. }, JobSpec::RealOmp { .. }) => true,
            _ => false,
        }
    }
}

/// A job's executor ([`JobSpec::executor`]).
enum JobExecutor {
    Cpu(CpuSimExecutor),
    Gpu(GpuSimExecutor),
    Real(OmpExecutor),
}

impl JobExecutor {
    fn with_jitter_seed(self, seed: u64) -> Self {
        match self {
            JobExecutor::Cpu(e) => JobExecutor::Cpu(e.with_jitter_seed(seed)),
            JobExecutor::Gpu(e) => JobExecutor::Gpu(e.with_jitter_seed(seed)),
            JobExecutor::Real(e) => JobExecutor::Real(e),
        }
    }

    /// Runs `job`'s protocol on this executor, which `job` built.
    fn measure(&mut self, job: &JobSpec) -> Result<Measurement> {
        match (self, job) {
            (
                JobExecutor::Cpu(e),
                JobSpec::CpuSim {
                    kernel,
                    params,
                    protocol,
                    ..
                },
            ) => protocol.measure(e, kernel, params),
            (
                JobExecutor::Gpu(e),
                JobSpec::GpuSim {
                    kernel,
                    params,
                    protocol,
                    ..
                },
            ) => protocol.measure(e, kernel, params),
            (
                JobExecutor::Real(e),
                JobSpec::RealOmp {
                    kernel,
                    params,
                    protocol,
                    ..
                },
            ) => protocol.measure(e, kernel, params),
            _ => unreachable!("a job runs on the executor it built"),
        }
    }
}

/// Batch-precomputed engine results for one job: the kernel's baseline
/// and test bodies evaluated at the job's parameter point by the
/// struct-of-arrays batch pass ([`JobSpec::batch_prime`]).
#[derive(Debug, Clone)]
pub enum PrimedEngine {
    /// CPU-simulator engine results.
    Cpu {
        /// Engine result for the kernel's baseline body.
        baseline: EngineResult,
        /// Engine result for the kernel's test body.
        test: EngineResult,
    },
    /// GPU-simulator engine results.
    Gpu {
        /// Engine result for the kernel's baseline body.
        baseline: GpuEngineResult,
        /// Engine result for the kernel's test body.
        test: GpuEngineResult,
    },
}

/// Memoizes the expensive repeated parts of [`JobSpec::canonical`]
/// for [`JobSpec::hash_with`]: the heads ([`HeadMemo`]) and the
/// `params=…\nprotocol=…\n` text of each distinct tail, all looked up
/// by value equality. Entries are never evicted; a cache is meant to
/// live for one batch of jobs.
#[derive(Debug, Default)]
pub struct CanonicalCache {
    heads: HeadMemo,
    tails: Tails,
}

/// `params=…\nprotocol=…\n` text per distinct pair.
pub(crate) type Tails = HashMap<(ExecParams, Protocol), String>;

/// The head half of a [`CanonicalCache`]: the executor/system/model
/// prefix (a full `Debug` render of the system spec plus a model
/// digest, kept as its hash state) and the kernel debug string. A
/// scheduler keeps one for its lifetime, so a sweep renders each head
/// once, not once per `run_jobs` call. Lookups scan newest first: the
/// heads a batch of jobs shares were added by its first job.
#[derive(Debug, Default)]
pub(crate) struct HeadMemo {
    /// FNV-1a state over each executor/system/model prefix.
    cpu_prefixes: Vec<(SystemSpec, Option<CpuModel>, u64)>,
    gpu_prefixes: Vec<(SystemSpec, Option<GpuModel>, u64)>,
    cpu_kernels: Vec<(CpuKernel, String)>,
    gpu_kernels: Vec<(GpuKernel, String)>,
    /// FNV-1a state over `prefix + "kernel={kernel}\n"`, keyed by
    /// `(prefix idx, kernel idx)` — [`JobSpec::hash_with`] continues it
    /// over each job's short params/protocol/salt tail.
    cpu_states: Vec<((usize, usize), u64)>,
    gpu_states: Vec<((usize, usize), u64)>,
}

impl HeadMemo {
    /// How many entries the memo holds.
    pub(crate) fn len(&self) -> usize {
        self.cpu_prefixes.len()
            + self.gpu_prefixes.len()
            + self.cpu_kernels.len()
            + self.gpu_kernels.len()
            + self.cpu_states.len()
            + self.gpu_states.len()
    }

    fn cpu_prefix_idx(&mut self, system: &SystemSpec, model: Option<&CpuModel>) -> usize {
        if let Some(i) = self
            .cpu_prefixes
            .iter()
            .rposition(|(s, m, _)| s == system && m.as_ref() == model)
        {
            return i;
        }
        let effective = model
            .cloned()
            .unwrap_or_else(|| CpuModel::for_system(&system.cpu, system.cpu_jitter));
        let mut s = String::new();
        let _ = write!(
            s,
            "exec=cpu-sim\nsystem={system:?}\nmodel={:016x}\n",
            effective.config_digest()
        );
        let st = crate::hash::fnv1a(s.as_bytes());
        self.cpu_prefixes.push((system.clone(), model.cloned(), st));
        self.cpu_prefixes.len() - 1
    }

    fn gpu_prefix_idx(&mut self, system: &SystemSpec, model: Option<&GpuModel>) -> usize {
        if let Some(i) = self
            .gpu_prefixes
            .iter()
            .rposition(|(s, m, _)| s == system && m.as_ref() == model)
        {
            return i;
        }
        let effective = model
            .cloned()
            .unwrap_or_else(|| GpuModel::for_spec(&system.gpu));
        let mut s = String::new();
        let _ = write!(
            s,
            "exec=gpu-sim\nsystem={system:?}\nmodel={:016x}\n",
            effective.config_digest()
        );
        let st = crate::hash::fnv1a(s.as_bytes());
        self.gpu_prefixes.push((system.clone(), model.cloned(), st));
        self.gpu_prefixes.len() - 1
    }

    fn cpu_kernel_idx(&mut self, kernel: &CpuKernel) -> usize {
        if let Some(i) = self.cpu_kernels.iter().rposition(|(k, _)| k == kernel) {
            return i;
        }
        self.cpu_kernels
            .push((kernel.clone(), format!("{kernel:?}")));
        self.cpu_kernels.len() - 1
    }

    fn gpu_kernel_idx(&mut self, kernel: &GpuKernel) -> usize {
        if let Some(i) = self.gpu_kernels.iter().rposition(|(k, _)| k == kernel) {
            return i;
        }
        self.gpu_kernels
            .push((kernel.clone(), format!("{kernel:?}")));
        self.gpu_kernels.len() - 1
    }

    fn cpu_hash_state(&mut self, pi: usize, ki: usize) -> u64 {
        if let Some(&(_, st)) = self
            .cpu_states
            .iter()
            .rev()
            .find(|&&(key, _)| key == (pi, ki))
        {
            return st;
        }
        let st = kernel_line_state(self.cpu_prefixes[pi].2, &self.cpu_kernels[ki].1);
        self.cpu_states.push(((pi, ki), st));
        st
    }

    fn gpu_hash_state(&mut self, pi: usize, ki: usize) -> u64 {
        if let Some(&(_, st)) = self
            .gpu_states
            .iter()
            .rev()
            .find(|&&(key, _)| key == (pi, ki))
        {
            return st;
        }
        let st = kernel_line_state(self.gpu_prefixes[pi].2, &self.gpu_kernels[ki].1);
        self.gpu_states.push(((pi, ki), st));
        st
    }
}

/// Continues a prefix's hash state over the line `kernel=<debug>\n`.
fn kernel_line_state(prefix: u64, kernel_debug: &str) -> u64 {
    let st = crate::hash::fnv1a_continue(prefix, b"kernel=");
    let st = crate::hash::fnv1a_continue(st, kernel_debug.as_bytes());
    crate::hash::fnv1a_continue(st, b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, DType, SYSTEM3};

    fn point() -> (ExecParams, Protocol) {
        (ExecParams::new(4).with_loops(50, 4), Protocol::SIM)
    }

    #[test]
    fn canonical_covers_kernel_params_and_protocol() {
        let (p, proto) = point();
        let a = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto);
        let b = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_atomic_update_scalar(DType::I32),
            p,
            proto,
        );
        let c = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p.with_loops(51, 4), proto);
        let d = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, Protocol::PAPER);
        assert_ne!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
        assert_ne!(a.canonical(), d.canonical());
        assert_eq!(
            a.canonical(),
            JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto).canonical()
        );
    }

    #[test]
    fn model_override_changes_canonical() {
        let (p, proto) = point();
        let base = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto);
        let mut m = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        m.line_transfer_ns *= 2.0;
        let tweaked = JobSpec::cpu_sim_with_model(&SYSTEM3, m, kernel::omp_barrier(), p, proto);
        assert_ne!(base.canonical(), tweaked.canonical());
    }

    #[test]
    fn execute_is_seed_deterministic() {
        let (p, proto) = point();
        let job = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_atomic_update_scalar(DType::I32),
            p,
            proto,
        );
        let a = job.execute(7).unwrap();
        let b = job.execute(7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gpu_job_executes() {
        let job = JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(32).with_blocks(2).with_loops(50, 4),
            Protocol::SIM,
        );
        assert_eq!(job.kernel_name(), "cuda_syncthreads");
        let m = job.execute(1).unwrap();
        assert_eq!(m.kernel_name, "cuda_syncthreads");
    }

    #[test]
    fn serial_execution_keeps_one_stream_per_executor_configuration() {
        let (p, proto) = point();
        let k = kernel::omp_atomic_update_scalar(DType::F64);
        let mut m = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        m.line_transfer_ns *= 2.0;
        let a = JobSpec::cpu_sim(&SYSTEM3, k.clone(), p, proto);
        let b = JobSpec::cpu_sim_with_model(&SYSTEM3, m, k, p, proto);
        let mixed = JobSpec::execute_serially(&[a.clone(), b.clone(), a.clone()]).unwrap();
        let alone = JobSpec::execute_serially(&[a.clone(), a]).unwrap();
        assert_ne!(alone[0], alone[1], "one executor continues its stream");
        assert_eq!((&mixed[0], &mixed[2]), (&alone[0], &alone[1]));
        assert_eq!(mixed[1], JobSpec::execute_serially(&[b]).unwrap()[0]);
    }

    #[test]
    fn real_job_hash_is_host_scoped() {
        let (p, proto) = point();
        let job = JobSpec::real_omp(kernel::omp_barrier(), p, proto);
        assert!(job.canonical().contains(&host_fingerprint()));
    }

    #[test]
    fn same_shape_groups_parameter_points_only() {
        let (p, proto) = point();
        let a = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto);
        let b = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_barrier(),
            ExecParams { threads: 16, ..p },
            proto,
        );
        let c = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p.with_loops(51, 4), proto);
        let d = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, Protocol::PAPER);
        let e = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_atomic_update_scalar(DType::I32),
            p,
            proto,
        );
        assert!(a.same_shape(&b), "threads vary within a shape");
        assert!(!a.same_shape(&c), "timed reps are part of the shape");
        assert!(!a.same_shape(&d), "protocol is part of the shape");
        assert!(!a.same_shape(&e), "kernel is part of the shape");
        let g = JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(32).with_blocks(2).with_loops(50, 4),
            proto,
        );
        assert!(!a.same_shape(&g), "executor kind is part of the shape");
        assert_eq!(
            JobSpec::shape_groups(&[&c, &a, &g, &b, &c, &a]),
            vec![vec![0, 4], vec![1, 3, 5], vec![2]],
            "groups in order of first appearance, members ascending"
        );
    }

    #[test]
    fn primed_execution_is_byte_identical_cpu() {
        let (p, proto) = point();
        let jobs: Vec<JobSpec> = [2u32, 4, 8, 16]
            .iter()
            .map(|&n| {
                JobSpec::cpu_sim(
                    &SYSTEM3,
                    kernel::omp_barrier(),
                    ExecParams { threads: n, ..p },
                    proto,
                )
            })
            .collect();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let primed = JobSpec::batch_prime(&refs).expect("cpu group batches");
        assert_eq!(primed.len(), jobs.len());
        for (job, pe) in jobs.iter().zip(&primed) {
            for seed in [1u64, 99] {
                assert_eq!(
                    job.execute_primed(seed, pe).unwrap(),
                    job.execute(seed).unwrap()
                );
            }
        }
    }

    #[test]
    fn primed_execution_is_byte_identical_gpu() {
        let proto = Protocol::SIM;
        let jobs: Vec<JobSpec> = [(1u32, 32u32), (2, 64), (8, 128)]
            .iter()
            .map(|&(b, t)| {
                JobSpec::gpu_sim(
                    &SYSTEM3,
                    kernel::cuda_syncthreads(),
                    ExecParams::new(t).with_blocks(b).with_loops(50, 4),
                    proto,
                )
            })
            .collect();
        let refs: Vec<&JobSpec> = jobs.iter().collect();
        let primed = JobSpec::batch_prime(&refs).expect("gpu group batches");
        for (job, pe) in jobs.iter().zip(&primed) {
            assert_eq!(job.execute_primed(5, pe).unwrap(), job.execute(5).unwrap());
        }
    }

    #[test]
    fn unbatchable_groups_prime_nothing() {
        let (p, proto) = point();
        let real = JobSpec::real_omp(kernel::omp_barrier(), p, proto);
        assert!(JobSpec::batch_prime(&[&real]).is_none());
        // A CPU job with blocks != 1 fails executor validation; the
        // group declines to prime so the per-job path reproduces the
        // error.
        let bad = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p.with_blocks(2), proto);
        let ok = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p, proto);
        assert!(JobSpec::batch_prime(&[&ok, &bad]).is_none());
    }

    #[test]
    fn prime_groups_fills_groups_of_two_or_more() {
        let (p, proto) = point();
        let at = |threads| {
            JobSpec::cpu_sim(
                &SYSTEM3,
                kernel::omp_barrier(),
                ExecParams { threads, ..p },
                proto,
            )
        };
        let (a, b) = (at(2), at(8));
        let lone = JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            ExecParams::new(32).with_blocks(2).with_loops(50, 4),
            proto,
        );
        let slots = JobSpec::prime_groups(&[&a, &lone, &b]);
        let filled: Vec<bool> = slots.iter().map(Option::is_some).collect();
        assert_eq!(filled, [true, false, true], "a lone job stays unprimed");
        assert_eq!(
            a.execute_primed(3, slots[0].as_ref().unwrap()).unwrap(),
            a.execute(3).unwrap()
        );
        // A group whose batch evaluation fails primes none of its members.
        let bad = JobSpec::cpu_sim(&SYSTEM3, kernel::omp_barrier(), p.with_blocks(2), proto);
        assert!(JobSpec::prime_groups(&[&a, &bad])
            .iter()
            .all(Option::is_none));
    }
}
