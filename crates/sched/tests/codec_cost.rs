//! Ad-hoc codec cost probe (run with `--nocapture --ignored`): times
//! the per-job wire-path pieces over a representative job so the
//! coordinator's overhead budget is measurable, not guessed.

use std::time::Instant;

use syncperf_core::{kernel, Protocol, SYSTEM3};
use syncperf_sched::{
    decode_job, decode_measurement, encode_job, encode_measurement, job_hash_with_salt, JobSpec,
};

#[test]
#[ignore = "manual profiling aid"]
fn per_job_codec_costs() {
    let job = JobSpec::cpu_sim(
        &SYSTEM3,
        kernel::omp_barrier(),
        syncperf_core::ExecParams::new(8).with_loops(50, 4),
        Protocol::SIM,
    );
    let jobs: Vec<JobSpec> = (0..3000).map(|_| job.clone()).collect();
    let n = jobs.len() as f64;

    let t = Instant::now();
    let encoded: Vec<String> = jobs.iter().filter_map(encode_job).collect();
    println!(
        "encode_job:        {:6.1} us/job ({} bytes avg)",
        t.elapsed().as_secs_f64() * 1e6 / n,
        encoded.iter().map(String::len).sum::<usize>() / encoded.len()
    );

    let t = Instant::now();
    let docs: Vec<_> = encoded
        .iter()
        .map(|e| syncperf_core::obs::json::parse(e).unwrap())
        .collect();
    println!(
        "parse_job_json:    {:6.1} us/job",
        t.elapsed().as_secs_f64() * 1e6 / n
    );
    let t = Instant::now();
    let decoded: Vec<JobSpec> = docs.iter().filter_map(decode_job).collect();
    println!(
        "decode_job:        {:6.1} us/job ({} decoded)",
        t.elapsed().as_secs_f64() * 1e6 / n,
        decoded.len()
    );

    let hash = job_hash_with_salt(&job, 0);
    let m = job.execute(hash).unwrap();
    let t = Instant::now();
    let entries: Vec<String> = (0..3000).map(|_| encode_measurement(hash, &m)).collect();
    println!(
        "encode_measurement:{:6.1} us/job ({} bytes)",
        t.elapsed().as_secs_f64() * 1e6 / n,
        entries[0].len()
    );

    let t = Instant::now();
    let mut ok = 0;
    for e in &entries {
        if decode_measurement(hash, e).is_some() {
            ok += 1;
        }
    }
    println!(
        "decode_measurement:{:6.1} us/job ({} ok)",
        t.elapsed().as_secs_f64() * 1e6 / n,
        ok
    );

    let t = Instant::now();
    let mut total = 0u64;
    for j in &jobs {
        total = total.wrapping_add(job_hash_with_salt(j, 0));
    }
    println!(
        "job_hash:          {:6.1} us/job ({total:x})",
        t.elapsed().as_secs_f64() * 1e6 / n
    );

    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..3000 {
        sum = sum.wrapping_add(u64::from(job.execute(hash).unwrap().exhausted_runs));
    }
    println!(
        "execute:           {:6.1} us/job ({sum})",
        t.elapsed().as_secs_f64() * 1e6 / n
    );
}
