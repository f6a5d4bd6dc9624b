//! The one job wire form. A `POST /compute` body ([`ComputeRequest`])
//! names a job the way the paper's artifact does: a kernel and a
//! parameter point, resolved against the kernel registry by the
//! server's [`Resolver`]. A `POST /batch` shard is a list of the same
//! bodies, each with the content hash its sender expects it to re-hash
//! to ([`shard_item`], [`shard_body`], [`decode_shard`]), and its
//! answer is the raw cache entries ([`push_batch_record`],
//! [`batch_records`]).

use syncperf_core::obs::json::{self, Value};
use syncperf_sched::hash::{hex16, parse_hex16};
use syncperf_sched::JobSpec;

/// A parsed `POST /compute` request body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComputeRequest {
    /// Executor kind: `cpu-sim` or `gpu-sim` (real-thread jobs are
    /// host-scoped and not served remotely).
    pub executor: String,
    /// Full kernel name (e.g. `omp_atomicadd_scalar_int`).
    pub kernel: String,
    /// Thread count (CPU: team size; GPU: threads per block).
    pub threads: u32,
    /// Block count (GPU; ignored for CPU kernels).
    pub blocks: Option<u32>,
    /// Affinity label (`spread`, `close`, `system`).
    pub affinity: Option<String>,
    /// Measured loop iterations (resolver default when absent).
    pub n_iter: Option<u32>,
    /// Unrolled ops per iteration (resolver default when absent).
    pub n_unroll: Option<u32>,
    /// The simulated system, 1, 2 or 3 (resolver default, System 3,
    /// when absent).
    pub system: Option<u32>,
}

impl ComputeRequest {
    /// Parses a request from its JSON body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed bodies.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let v = json::parse(body).map_err(|e| format!("bad JSON: {e:?}"))?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let get_str = |k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);
        let get_u32 = |k: &str| -> Result<Option<u32>, String> {
            match v.get(k) {
                None => Ok(None),
                Some(x) => {
                    let f = x
                        .as_f64()
                        .ok_or_else(|| format!("`{k}` must be a number"))?;
                    if f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f <= f64::from(u32::MAX) {
                        Ok(Some(f as u32))
                    } else {
                        Err(format!("`{k}` must be a non-negative integer"))
                    }
                }
            }
        };
        Ok(ComputeRequest {
            executor: get_str("executor").ok_or("missing `executor`")?,
            kernel: get_str("kernel").ok_or("missing `kernel`")?,
            threads: get_u32("threads")?.ok_or("missing `threads`")?,
            blocks: get_u32("blocks")?,
            affinity: get_str("affinity"),
            n_iter: get_u32("n_iter")?,
            n_unroll: get_u32("n_unroll")?,
            system: get_u32("system")?,
        })
    }

    /// The request that names `job`: its executor, kernel name, system
    /// id and every parameter a request can carry. A resolver may
    /// rebuild another job from it (a model override, a warmup count or
    /// a protocol the request cannot name), so a sender compares before
    /// it trusts the request to stand for the job.
    #[must_use]
    pub fn of(job: &JobSpec) -> Self {
        let (executor, system) = match job {
            JobSpec::CpuSim { system, .. } => ("cpu-sim", Some(system.id)),
            JobSpec::GpuSim { system, .. } => ("gpu-sim", Some(system.id)),
            JobSpec::RealOmp { .. } => ("real-omp", None),
        };
        let p = job.params();
        ComputeRequest {
            executor: executor.into(),
            kernel: job.kernel_name().into(),
            threads: p.threads,
            blocks: Some(p.blocks),
            affinity: Some(p.affinity.label().into()),
            n_iter: Some(p.n_iter),
            n_unroll: Some(p.n_unroll),
            system,
        }
    }

    /// The request as a JSON body that [`ComputeRequest::from_json`]
    /// reads back to an equal request.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"executor\":{},\"kernel\":{},\"threads\":{}",
            json::string(&self.executor),
            json::string(&self.kernel),
            self.threads
        );
        for (key, value) in [
            ("blocks", self.blocks),
            ("n_iter", self.n_iter),
            ("n_unroll", self.n_unroll),
            ("system", self.system),
        ] {
            if let Some(v) = value {
                s.push_str(&format!(",\"{key}\":{v}"));
            }
        }
        if let Some(a) = &self.affinity {
            s.push_str(&format!(",\"affinity\":{}", json::string(a)));
        }
        s.push('}');
        s
    }
}

/// Maps a [`ComputeRequest`] to a concrete [`JobSpec`], or `None`
/// when the kernel/executor combination is unknown. The bench crate
/// supplies a resolver over its kernel registry.
pub type Resolver = Box<dyn Fn(&ComputeRequest) -> Option<JobSpec> + Send + Sync>;

/// One shard item, `{"hash": <16 hex digits>, "job": <a /compute body>}`.
#[must_use]
pub fn shard_item(hash: u64, req: &ComputeRequest) -> String {
    format!("{{\"hash\":\"{}\",\"job\":{}}}", hex16(hash), req.to_json())
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
    /// Not a shard: bad JSON, no `salt` or `jobs`, or an item without a
    /// 16-hex-digit hash or whose job is not a `/compute` body.
    Malformed(String),
    /// The shard's salt, which is not the receiver's.
    Salt(String),
}

/// Decodes a shard body for a receiver whose salt is `salt` into its
/// `(hash, request)` items, in order. The hashes are as sent: the
/// receiver resolves and re-hashes each job before it trusts one.
///
/// # Errors
///
/// The [`ShardError`] of the first check the body fails.
pub fn decode_shard(body: &str, salt: &str) -> Result<Vec<(u64, ComputeRequest)>, ShardError> {
    let malformed = |msg: &str| ShardError::Malformed(msg.to_string());
    let doc = json::parse(body).map_err(|_| malformed("shard body is not JSON"))?;
    let theirs = doc.get("salt").and_then(Value::as_str);
    let (Some(theirs), Some(items)) = (theirs, doc.get("jobs").and_then(Value::as_array)) else {
        return Err(malformed("a shard needs a `salt` and a `jobs` array"));
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
            let (Some(hash), Some(job)) = (hash, item.get("job")) else {
                return Err(malformed("a shard job needs a `hash` and a `job`"));
            };
            let req = ComputeRequest::from_value(job)
                .map_err(|e| ShardError::Malformed(format!("shard job {}: {e}", hex16(hash))))?;
            Ok((hash, req))
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
    use syncperf_core::{kernel, ExecParams, Protocol, SYSTEM1};

    #[test]
    fn compute_request_parses_and_validates() {
        let spec = ComputeRequest::from_json(
            "{\"executor\": \"cpu-sim\", \"kernel\": \"omp_barrier\", \"threads\": 8}",
        )
        .unwrap();
        assert_eq!(spec.executor, "cpu-sim");
        assert_eq!(spec.kernel, "omp_barrier");
        assert_eq!(spec.threads, 8);
        assert_eq!((spec.blocks, spec.system), (None, None));

        assert!(ComputeRequest::from_json("not json").is_err());
        assert!(ComputeRequest::from_json("{\"executor\": \"cpu-sim\"}").is_err());
        for bad in ["-1", "1.5"] {
            let body = format!("{{\"executor\": \"x\", \"kernel\": \"k\", \"threads\": {bad}}}");
            assert!(ComputeRequest::from_json(&body).is_err(), "{body}");
        }
        let body = "{\"executor\": \"x\", \"kernel\": \"k\", \"threads\": 1, \"system\": \"3\"}";
        assert!(ComputeRequest::from_json(body).is_err());
    }

    #[test]
    fn a_job_request_round_trips_through_its_json() {
        let job = JobSpec::cpu_sim(
            &SYSTEM1,
            kernel::omp_barrier(),
            ExecParams::new(4).with_loops(50, 4),
            Protocol::SIM,
        );
        let req = ComputeRequest::of(&job);
        assert_eq!(req.system, Some(1));
        assert_eq!(req.affinity.as_deref(), Some("system"));
        assert_eq!((req.n_iter, req.n_unroll), (Some(50), Some(4)));
        assert_eq!(ComputeRequest::from_json(&req.to_json()), Ok(req.clone()));
        let sparse = ComputeRequest {
            executor: "gpu-sim".into(),
            kernel: "a \"quoted\" name".into(),
            threads: 32,
            ..ComputeRequest::default()
        };
        assert_eq!(ComputeRequest::from_json(&sparse.to_json()), Ok(sparse));
    }

    #[test]
    fn shards_round_trip_and_refuse_malformed_bodies() {
        let req = ComputeRequest {
            executor: "cpu-sim".into(),
            kernel: "omp_barrier".into(),
            threads: 4,
            ..ComputeRequest::default()
        };
        let item = shard_item(0xabc, &req);
        let body = shard_body("s/0", &[&item, &item]);
        assert_eq!(
            decode_shard(&body, "s/0").unwrap(),
            vec![(0xabc, req.clone()), (0xabc, req)]
        );
        assert!(decode_shard(&shard_body("s/0", &[]), "s/0")
            .unwrap()
            .is_empty());
        assert_eq!(
            decode_shard(&body, "s/1").unwrap_err(),
            ShardError::Salt("s/0".into())
        );
        for garbage in [
            "[]",
            "{\"salt\":\"s/0\"}",
            "{\"salt\":\"s/0\",\"jobs\":[{}]}",
            "{\"salt\":\"s/0\",\"jobs\":[{\"hash\":\"0000000000000abc\",\"job\":{}}]}",
        ] {
            assert!(
                matches!(decode_shard(garbage, "s/0"), Err(ShardError::Malformed(_))),
                "{garbage}"
            );
        }
    }

    #[test]
    fn batch_records_stop_at_the_first_short_record() {
        let mut body = String::new();
        push_batch_record(&mut body, 1, "{\n\"a\": 1\n}\n");
        push_batch_record(&mut body, 2, "");
        assert_eq!(batch_records(&body), vec![(1, "{\n\"a\": 1\n}\n"), (2, "")]);
        body.push_str("0000000000000003 99\nshort");
        assert_eq!(batch_records(&body).len(), 2);
    }
}
