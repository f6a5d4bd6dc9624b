//! The `POST /batch` wire form, in one place: [`JobSpec`]s out as a
//! shard ([`shard_item`], [`shard_body`], [`decode_shard`]), cache
//! entries back ([`push_batch_record`], [`batch_records`]).
//!
//! Only machine-independent jobs travel: CPU/GPU *simulator* jobs on
//! one of the canonical [`all_systems`] specs with no latency-model
//! override. Real-thread jobs are host-scoped by construction and
//! model-override jobs would need the full float-laden model shipped
//! bit-exactly; both classes stay where they were submitted
//! ([`encode_job`] returns `None`).
//!
//! Decoding is *total* — it builds the [`Kernel`](syncperf_core::Kernel)
//! through its public fields without re-running construction-time
//! validation — because the receiver's real integrity check is
//! stronger: it recomputes the job's content hash under its own salt
//! and refuses the shard on any mismatch. A corrupted or version-skewed
//! job can therefore never produce a wrongly-keyed result.

use syncperf_core::{
    all_systems, Affinity, CpuOp, DType, ExecParams, GpuOp, Protocol, RmwOp, Scope, ShflVariant,
    SystemSpec, Target, VoteKind,
};

use syncperf_core::obs::json::{self, Value};

use crate::hash::{hex16, parse_hex16};
use crate::JobSpec;

/// Encodes `job` as a JSON object string, or `None` when the job is not
/// wire-serializable (real-thread, model override, or a system spec
/// that is not one of the canonical three).
#[must_use]
pub fn encode_job(job: &JobSpec) -> Option<String> {
    match job {
        JobSpec::CpuSim {
            system,
            model,
            kernel,
            params,
            protocol,
        } => {
            if model.is_some() {
                return None;
            }
            let sys = canonical_system_id(system)?;
            Some(format!(
                "{{\"exec\":\"cpu-sim\",\"system\":{sys},\"kernel\":{},\"params\":{},\"protocol\":{}}}",
                encode_kernel(kernel, encode_cpu_op),
                encode_params(params),
                encode_protocol(*protocol),
            ))
        }
        JobSpec::GpuSim {
            system,
            model,
            kernel,
            params,
            protocol,
        } => {
            if model.is_some() {
                return None;
            }
            let sys = canonical_system_id(system)?;
            Some(format!(
                "{{\"exec\":\"gpu-sim\",\"system\":{sys},\"kernel\":{},\"params\":{},\"protocol\":{}}}",
                encode_kernel(kernel, encode_gpu_op),
                encode_params(params),
                encode_protocol(*protocol),
            ))
        }
        JobSpec::RealOmp { .. } => None,
    }
}

/// Decodes a job encoded by [`encode_job`]. Any structural problem is
/// `None`; the caller treats that as a job error, never a panic.
#[must_use]
pub fn decode_job(v: &Value) -> Option<JobSpec> {
    let system = system_by_id(get_u32(v, "system")?)?;
    let params = decode_params(v.get("params")?)?;
    let protocol = decode_protocol(v.get("protocol")?)?;
    match v.get("exec")?.as_str()? {
        "cpu-sim" => Some(JobSpec::CpuSim {
            system,
            model: None,
            kernel: decode_kernel(v.get("kernel")?, decode_cpu_op)?,
            params,
            protocol,
        }),
        "gpu-sim" => Some(JobSpec::GpuSim {
            system,
            model: None,
            kernel: decode_kernel(v.get("kernel")?, decode_gpu_op)?,
            params,
            protocol,
        }),
        _ => None,
    }
}

/// The system's canonical id when it is bit-for-bit one of
/// [`all_systems`] (the full spec must match, not just the id — a
/// locally patched spec must not masquerade as the canonical one).
fn canonical_system_id(system: &SystemSpec) -> Option<u32> {
    all_systems().iter().find(|s| *s == system).map(|s| s.id)
}

fn system_by_id(id: u32) -> Option<SystemSpec> {
    all_systems().into_iter().find(|s| s.id == id)
}

fn encode_kernel<Op>(k: &syncperf_core::Kernel<Op>, enc: impl Fn(&Op) -> String) -> String {
    let body = |ops: &[Op]| {
        let items: Vec<String> = ops.iter().map(&enc).collect();
        format!("[{}]", items.join(","))
    };
    format!(
        "{{\"name\":{},\"extra_ops\":{},\"baseline\":{},\"test\":{}}}",
        json::string(&k.name),
        k.extra_ops,
        body(&k.baseline),
        body(&k.test),
    )
}

fn decode_kernel<Op>(
    v: &Value,
    dec: impl Fn(&Value) -> Option<Op>,
) -> Option<syncperf_core::Kernel<Op>> {
    let body =
        |key: &str| -> Option<Vec<Op>> { v.get(key)?.as_array()?.iter().map(&dec).collect() };
    Some(syncperf_core::Kernel {
        name: v.get("name")?.as_str()?.to_string(),
        baseline: body("baseline")?,
        test: body("test")?,
        extra_ops: get_u32(v, "extra_ops")?,
    })
}

fn encode_params(p: &ExecParams) -> String {
    format!(
        "{{\"threads\":{},\"blocks\":{},\"affinity\":\"{}\",\"n_iter\":{},\"n_unroll\":{},\"n_warmup\":{}}}",
        p.threads,
        p.blocks,
        p.affinity.label(),
        p.n_iter,
        p.n_unroll,
        p.n_warmup,
    )
}

fn decode_params(v: &Value) -> Option<ExecParams> {
    let affinity = match v.get("affinity")?.as_str()? {
        "spread" => Affinity::Spread,
        "close" => Affinity::Close,
        "system" => Affinity::SystemChoice,
        _ => return None,
    };
    Some(ExecParams {
        threads: get_u32(v, "threads")?,
        blocks: get_u32(v, "blocks")?,
        affinity,
        n_iter: get_u32(v, "n_iter")?,
        n_unroll: get_u32(v, "n_unroll")?,
        n_warmup: get_u32(v, "n_warmup")?,
    })
}

fn encode_protocol(p: Protocol) -> String {
    format!(
        "{{\"runs\":{},\"max_attempts\":{}}}",
        p.runs, p.max_attempts
    )
}

fn decode_protocol(v: &Value) -> Option<Protocol> {
    Some(Protocol {
        runs: get_u32(v, "runs")?,
        max_attempts: get_u32(v, "max_attempts")?,
    })
}

fn encode_dtype(d: DType) -> &'static str {
    match d {
        DType::I32 => "i32",
        DType::U64 => "u64",
        DType::F32 => "f32",
        DType::F64 => "f64",
    }
}

fn decode_dtype(s: &str) -> Option<DType> {
    Some(match s {
        "i32" => DType::I32,
        "u64" => DType::U64,
        "f32" => DType::F32,
        "f64" => DType::F64,
        _ => return None,
    })
}

fn encode_target(t: Target) -> String {
    match t {
        Target::SharedScalar(idx) => format!("{{\"kind\":\"shared\",\"idx\":{idx}}}"),
        Target::Private { array, stride } => {
            format!("{{\"kind\":\"private\",\"array\":{array},\"stride\":{stride}}}")
        }
    }
}

fn decode_target(v: &Value) -> Option<Target> {
    match v.get("kind")?.as_str()? {
        "shared" => Some(Target::SharedScalar(get_u8(v, "idx")?)),
        "private" => Some(Target::Private {
            array: get_u8(v, "array")?,
            stride: get_u32(v, "stride")?,
        }),
        _ => None,
    }
}

fn encode_scope(s: Scope) -> &'static str {
    match s {
        Scope::Block => "block",
        Scope::Device => "device",
        Scope::System => "system",
    }
}

fn decode_scope(s: &str) -> Option<Scope> {
    Some(match s {
        "block" => Scope::Block,
        "device" => Scope::Device,
        "system" => Scope::System,
        _ => return None,
    })
}

fn encode_vote(k: VoteKind) -> &'static str {
    match k {
        VoteKind::Ballot => "ballot",
        VoteKind::All => "all",
        VoteKind::Any => "any",
    }
}

fn decode_vote(s: &str) -> Option<VoteKind> {
    Some(match s {
        "ballot" => VoteKind::Ballot,
        "all" => VoteKind::All,
        "any" => VoteKind::Any,
        _ => return None,
    })
}

fn encode_shfl(v: ShflVariant) -> &'static str {
    match v {
        ShflVariant::Idx => "idx",
        ShflVariant::Up => "up",
        ShflVariant::Down => "down",
        ShflVariant::Xor => "xor",
    }
}

fn decode_shfl(s: &str) -> Option<ShflVariant> {
    Some(match s {
        "idx" => ShflVariant::Idx,
        "up" => ShflVariant::Up,
        "down" => ShflVariant::Down,
        "xor" => ShflVariant::Xor,
        _ => return None,
    })
}

fn encode_rmw(o: RmwOp) -> &'static str {
    match o {
        RmwOp::Sub => "sub",
        RmwOp::Min => "min",
        RmwOp::And => "and",
        RmwOp::Or => "or",
        RmwOp::Xor => "xor",
    }
}

fn decode_rmw(s: &str) -> Option<RmwOp> {
    Some(match s {
        "sub" => RmwOp::Sub,
        "min" => RmwOp::Min,
        "and" => RmwOp::And,
        "or" => RmwOp::Or,
        "xor" => RmwOp::Xor,
        _ => return None,
    })
}

fn op_dt(op: &str, dtype: DType, target: Target) -> String {
    format!(
        "{{\"op\":\"{op}\",\"dtype\":\"{}\",\"target\":{}}}",
        encode_dtype(dtype),
        encode_target(target)
    )
}

fn encode_cpu_op(op: &CpuOp) -> String {
    match *op {
        CpuOp::Barrier => "{\"op\":\"barrier\"}".to_string(),
        CpuOp::Flush => "{\"op\":\"flush\"}".to_string(),
        CpuOp::CriticalBegin { lock } => {
            format!("{{\"op\":\"critical_begin\",\"lock\":{lock}}}")
        }
        CpuOp::CriticalEnd { lock } => format!("{{\"op\":\"critical_end\",\"lock\":{lock}}}"),
        CpuOp::AtomicUpdate { dtype, target } => op_dt("atomic_update", dtype, target),
        CpuOp::AtomicCapture { dtype, target } => op_dt("atomic_capture", dtype, target),
        CpuOp::AtomicRead { dtype, target } => op_dt("atomic_read", dtype, target),
        CpuOp::AtomicWrite { dtype, target } => op_dt("atomic_write", dtype, target),
        CpuOp::Read { dtype, target } => op_dt("read", dtype, target),
        CpuOp::Update { dtype, target } => op_dt("update", dtype, target),
        CpuOp::CriticalAdd { dtype, target } => op_dt("critical_add", dtype, target),
    }
}

fn decode_cpu_op(v: &Value) -> Option<CpuOp> {
    let dt = |v: &Value| decode_dtype(v.get("dtype")?.as_str()?);
    let tg = |v: &Value| decode_target(v.get("target")?);
    Some(match v.get("op")?.as_str()? {
        "barrier" => CpuOp::Barrier,
        "flush" => CpuOp::Flush,
        "critical_begin" => CpuOp::CriticalBegin {
            lock: get_u8(v, "lock")?,
        },
        "critical_end" => CpuOp::CriticalEnd {
            lock: get_u8(v, "lock")?,
        },
        "atomic_update" => CpuOp::AtomicUpdate {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "atomic_capture" => CpuOp::AtomicCapture {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "atomic_read" => CpuOp::AtomicRead {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "atomic_write" => CpuOp::AtomicWrite {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "read" => CpuOp::Read {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "update" => CpuOp::Update {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "critical_add" => CpuOp::CriticalAdd {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        _ => return None,
    })
}

fn op_dst(op: &str, dtype: DType, scope: Scope, target: Target) -> String {
    format!(
        "{{\"op\":\"{op}\",\"dtype\":\"{}\",\"scope\":\"{}\",\"target\":{}}}",
        encode_dtype(dtype),
        encode_scope(scope),
        encode_target(target)
    )
}

fn encode_gpu_op(op: &GpuOp) -> String {
    match *op {
        GpuOp::SyncThreads => "{\"op\":\"sync_threads\"}".to_string(),
        GpuOp::SyncWarp => "{\"op\":\"sync_warp\"}".to_string(),
        GpuOp::SyncThreadsReduce { kind } => format!(
            "{{\"op\":\"sync_threads_reduce\",\"kind\":\"{}\"}}",
            encode_vote(kind)
        ),
        GpuOp::AtomicAdd {
            dtype,
            scope,
            target,
        } => op_dst("atomic_add", dtype, scope, target),
        GpuOp::AtomicCas {
            dtype,
            scope,
            target,
        } => op_dst("atomic_cas", dtype, scope, target),
        GpuOp::AtomicExch {
            dtype,
            scope,
            target,
        } => op_dst("atomic_exch", dtype, scope, target),
        GpuOp::AtomicMax {
            dtype,
            scope,
            target,
        } => op_dst("atomic_max", dtype, scope, target),
        GpuOp::ThreadFence { scope } => format!(
            "{{\"op\":\"thread_fence\",\"scope\":\"{}\"}}",
            encode_scope(scope)
        ),
        GpuOp::Shfl { dtype, variant } => format!(
            "{{\"op\":\"shfl\",\"dtype\":\"{}\",\"variant\":\"{}\"}}",
            encode_dtype(dtype),
            encode_shfl(variant)
        ),
        GpuOp::Vote { kind } => {
            format!("{{\"op\":\"vote\",\"kind\":\"{}\"}}", encode_vote(kind))
        }
        GpuOp::WarpReduce { dtype } => format!(
            "{{\"op\":\"warp_reduce\",\"dtype\":\"{}\"}}",
            encode_dtype(dtype)
        ),
        GpuOp::Update { dtype, target } => op_dt("update", dtype, target),
        GpuOp::AtomicRmw {
            op,
            dtype,
            scope,
            target,
        } => format!(
            "{{\"op\":\"atomic_rmw\",\"rmw\":\"{}\",\"dtype\":\"{}\",\"scope\":\"{}\",\"target\":{}}}",
            encode_rmw(op),
            encode_dtype(dtype),
            encode_scope(scope),
            encode_target(target)
        ),
        GpuOp::Read { dtype, target } => op_dt("read", dtype, target),
        GpuOp::Alu { dtype } => {
            format!("{{\"op\":\"alu\",\"dtype\":\"{}\"}}", encode_dtype(dtype))
        }
        GpuOp::Diverge { dtype, paths } => format!(
            "{{\"op\":\"diverge\",\"dtype\":\"{}\",\"paths\":{paths}}}",
            encode_dtype(dtype)
        ),
    }
}

fn decode_gpu_op(v: &Value) -> Option<GpuOp> {
    let dt = |v: &Value| decode_dtype(v.get("dtype")?.as_str()?);
    let sc = |v: &Value| decode_scope(v.get("scope")?.as_str()?);
    let tg = |v: &Value| decode_target(v.get("target")?);
    Some(match v.get("op")?.as_str()? {
        "sync_threads" => GpuOp::SyncThreads,
        "sync_warp" => GpuOp::SyncWarp,
        "sync_threads_reduce" => GpuOp::SyncThreadsReduce {
            kind: decode_vote(v.get("kind")?.as_str()?)?,
        },
        "atomic_add" => GpuOp::AtomicAdd {
            dtype: dt(v)?,
            scope: sc(v)?,
            target: tg(v)?,
        },
        "atomic_cas" => GpuOp::AtomicCas {
            dtype: dt(v)?,
            scope: sc(v)?,
            target: tg(v)?,
        },
        "atomic_exch" => GpuOp::AtomicExch {
            dtype: dt(v)?,
            scope: sc(v)?,
            target: tg(v)?,
        },
        "atomic_max" => GpuOp::AtomicMax {
            dtype: dt(v)?,
            scope: sc(v)?,
            target: tg(v)?,
        },
        "thread_fence" => GpuOp::ThreadFence { scope: sc(v)? },
        "shfl" => GpuOp::Shfl {
            dtype: dt(v)?,
            variant: decode_shfl(v.get("variant")?.as_str()?)?,
        },
        "vote" => GpuOp::Vote {
            kind: decode_vote(v.get("kind")?.as_str()?)?,
        },
        "warp_reduce" => GpuOp::WarpReduce { dtype: dt(v)? },
        "update" => GpuOp::Update {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "atomic_rmw" => GpuOp::AtomicRmw {
            op: decode_rmw(v.get("rmw")?.as_str()?)?,
            dtype: dt(v)?,
            scope: sc(v)?,
            target: tg(v)?,
        },
        "read" => GpuOp::Read {
            dtype: dt(v)?,
            target: tg(v)?,
        },
        "alu" => GpuOp::Alu { dtype: dt(v)? },
        "diverge" => GpuOp::Diverge {
            dtype: dt(v)?,
            paths: get_u32(v, "paths")?,
        },
        _ => return None,
    })
}

fn get_u32(v: &Value, key: &str) -> Option<u32> {
    let x = v.get(key)?.as_f64()?;
    (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= f64::from(u32::MAX)).then_some(x as u32)
}

fn get_u8(v: &Value, key: &str) -> Option<u8> {
    get_u32(v, key).and_then(|x| u8::try_from(x).ok())
}

/// One shard item, `{"hash": <16 hex digits>, "job": <encode_job>}`,
/// or `None` when the job cannot travel.
#[must_use]
pub fn shard_item(hash: u64, job: &JobSpec) -> Option<String> {
    encode_job(job).map(|e| format!("{{\"hash\":\"{}\",\"job\":{e}}}", hex16(hash)))
}

/// A shard body, `{"salt": .., "jobs": [..]}`, over [`shard_item`]s
/// under the sending scheduler's salt (`Scheduler::salt`).
#[must_use]
pub fn shard_body(salt: &str, items: &[&str]) -> String {
    let salt = json::string(salt);
    format!("{{\"salt\":{salt},\"jobs\":[{}]}}", items.join(","))
}

/// Why [`decode_shard`] refused a shard body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Not a shard: bad JSON, no `salt` or `jobs`, or a job without a
    /// 16-hex-digit hash or that does not decode.
    Malformed(&'static str),
    /// The shard's salt, which is not the receiver's.
    Salt(String),
    /// A job that cannot travel: not a simulator job, or one with a
    /// model override.
    CannotTravel,
}

/// Decodes a shard body for a receiver whose salt is `salt` into its
/// `(hash, job)` items, in order. The hashes are as sent: the receiver
/// re-hashes each job before it trusts one.
///
/// # Errors
///
/// The [`ShardError`] of the first check the body fails.
pub fn decode_shard(body: &str, salt: &str) -> Result<Vec<(u64, JobSpec)>, ShardError> {
    let doc = json::parse(body).map_err(|_| ShardError::Malformed("shard body is not JSON"))?;
    let theirs = doc.get("salt").and_then(Value::as_str);
    let (Some(theirs), Some(items)) = (theirs, doc.get("jobs").and_then(Value::as_array)) else {
        return Err(ShardError::Malformed(
            "a shard needs a `salt` and a `jobs` array",
        ));
    };
    if theirs != salt {
        return Err(ShardError::Salt(theirs.to_string()));
    }
    items
        .iter()
        .map(|item| {
            let hash = item
                .get("hash")
                .and_then(Value::as_str)
                .and_then(parse_hex16);
            let (Some(hash), Some(wire)) = (hash, item.get("job")) else {
                return Err(ShardError::Malformed(
                    "a shard job needs a `hash` and a `job`",
                ));
            };
            let exec = wire.get("exec").and_then(Value::as_str);
            if wire.get("model").is_some() || !matches!(exec, Some("cpu-sim" | "gpu-sim")) {
                return Err(ShardError::CannotTravel);
            }
            let job =
                decode_job(wire).ok_or(ShardError::Malformed("a shard job does not decode"))?;
            Ok((hash, job))
        })
        .collect()
}

/// Appends one `/batch` answer record to `body`: a `<hash> <length>`
/// line (16 hex digits, then the entry's byte length), then the cache
/// entry verbatim.
pub fn push_batch_record(body: &mut String, hash: u64, entry: &str) {
    body.push_str(&format!("{} {}\n", hex16(hash), entry.len()));
    body.push_str(entry);
}

/// The `(hash, entry)` records of a `/batch` answer, up to the first
/// one that is malformed or cut short.
#[must_use]
pub fn batch_records(mut body: &str) -> Vec<(u64, &str)> {
    let mut records = Vec::new();
    while let Some((line, rest)) = body.split_once('\n') {
        let Some((hash, len)) = line.split_once(' ') else {
            break;
        };
        let (Some(hash), Ok(len)) = (parse_hex16(hash), len.parse::<usize>()) else {
            break;
        };
        let Some(entry) = rest.get(..len) else { break };
        records.push((hash, entry));
        body = &rest[len..];
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job_hash_with_salt;
    use syncperf_core::obs::json;
    use syncperf_core::{kernel, SYSTEM1, SYSTEM3};

    fn round_trip(job: &JobSpec) {
        let encoded = encode_job(job).expect("sim job must encode");
        let parsed = json::parse(&encoded).expect("encoded job is valid JSON");
        let decoded = decode_job(&parsed).expect("decodes");
        assert_eq!(
            job_hash_with_salt(job, 7),
            job_hash_with_salt(&decoded, 7),
            "decoded job must hash identically: {encoded}"
        );
        assert_eq!(job.canonical(), decoded.canonical());
    }

    #[test]
    fn cpu_jobs_round_trip() {
        let p = ExecParams::new(8)
            .with_affinity(Affinity::Spread)
            .with_loops(50, 4);
        round_trip(&JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_barrier(),
            p,
            Protocol::SIM,
        ));
        round_trip(&JobSpec::cpu_sim(
            &SYSTEM1,
            kernel::omp_critical_section(DType::I32),
            ExecParams::new(4),
            Protocol::PAPER,
        ));
    }

    #[test]
    fn gpu_jobs_round_trip() {
        let p = ExecParams::new(64).with_blocks(4).with_loops(50, 4);
        round_trip(&JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_syncthreads(),
            p,
            Protocol::SIM,
        ));
        round_trip(&JobSpec::gpu_sim(
            &SYSTEM3,
            kernel::cuda_shfl(DType::F32, ShflVariant::Xor),
            p,
            Protocol::SIM,
        ));
    }

    #[test]
    fn real_and_model_jobs_stay_local() {
        let p = ExecParams::new(2).with_loops(10, 2);
        assert!(encode_job(&JobSpec::real_omp(kernel::omp_barrier(), p, Protocol::SIM)).is_none());
        let model = syncperf_cpu_sim::CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        assert!(encode_job(&JobSpec::cpu_sim_with_model(
            &SYSTEM3,
            model,
            kernel::omp_barrier(),
            p,
            Protocol::SIM,
        ))
        .is_none());
    }

    #[test]
    fn shards_round_trip_and_refuse_by_kind() {
        let job = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_barrier(),
            ExecParams::new(4).with_loops(50, 4),
            Protocol::SIM,
        );
        let hash = job_hash_with_salt(&job, 0);
        let item = shard_item(hash, &job).unwrap();
        let body = shard_body("s/0", &[&item, &item]);
        let decoded = decode_shard(&body, "s/0").unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, hash);
        assert_eq!(decoded[1].1.canonical(), job.canonical());
        assert!(decode_shard(&shard_body("s/0", &[]), "s/0")
            .unwrap()
            .is_empty());
        assert_eq!(
            decode_shard(&body, "s/1").unwrap_err(),
            ShardError::Salt("s/0".into())
        );
        let real = item.replace("\"exec\":\"cpu-sim\"", "\"exec\":\"real-omp\"");
        let body = shard_body("s/0", &[&real]);
        assert_eq!(
            decode_shard(&body, "s/0").unwrap_err(),
            ShardError::CannotTravel
        );
        for garbage in [
            "[]",
            "{\"salt\":\"s/0\"}",
            "{\"salt\":\"s/0\",\"jobs\":[{}]}",
        ] {
            assert!(matches!(
                decode_shard(garbage, "s/0"),
                Err(ShardError::Malformed(_))
            ));
        }
    }

    #[test]
    fn tampered_payload_decodes_to_different_hash_or_none() {
        let job = JobSpec::cpu_sim(
            &SYSTEM3,
            kernel::omp_barrier(),
            ExecParams::new(4).with_loops(50, 4),
            Protocol::SIM,
        );
        let encoded = encode_job(&job).unwrap();
        let tampered = encoded.replace("\"threads\":4", "\"threads\":8");
        let parsed = json::parse(&tampered).unwrap();
        let decoded = decode_job(&parsed).unwrap();
        assert_ne!(
            job_hash_with_salt(&job, 0),
            job_hash_with_salt(&decoded, 0),
            "tampering must change the content hash"
        );
    }
}
