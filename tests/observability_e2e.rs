//! End-to-end observability: run real figure-style experiments with
//! recording enabled and assert the whole stack shows up in one
//! recorder — protocol retries, simulator coherence traffic, and the
//! real runtime's barrier rounds (ISSUE 1 acceptance criterion).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use syncperf_core::obs::{self, Recorder, Snapshot};
use syncperf_core::{kernel, DType, ExecParams, Protocol, SYSTEM3};
use syncperf_cpu_sim::CpuSimExecutor;
use syncperf_omp::OmpExecutor;
use syncperf_sched::{SchedConfig, SchedStats, Scheduler};

#[test]
fn figure_experiment_with_recording_fills_cross_layer_counters() {
    let rec = Recorder::tracing();

    // Layer 1+2 — protocol over the CPU simulator: a contended atomic
    // update produces MESI transitions, and measuring a near-zero-cost
    // primitive on the jittery System 3 produces attempt rejections.
    let mut sim = CpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
    let p = ExecParams::new(16).with_loops(1000, 100);
    Protocol::PAPER
        .measure_observed(
            &mut sim,
            &kernel::omp_atomic_update_scalar(DType::I32),
            &p,
            &rec,
        )
        .unwrap();
    for _ in 0..5 {
        Protocol::PAPER
            .measure_observed(&mut sim, &kernel::omp_atomic_read(DType::F64), &p, &rec)
            .unwrap();
    }

    // Layer 3 — the real-thread runtime: barrier rounds are counted
    // from an actual `std::thread` team.
    let mut omp = OmpExecutor::new().with_recorder(rec.clone());
    Protocol::SIM
        .measure_observed(
            &mut omp,
            &kernel::omp_barrier(),
            &ExecParams::new(2).with_loops(20, 10).with_warmup(1),
            &rec,
        )
        .unwrap();

    let snap = rec.snapshot();
    assert!(
        snap.counter("cpu_sim.mesi_transitions") > 0,
        "contended atomics must show coherence traffic: {snap:?}"
    );
    assert!(
        snap.counter("protocol.attempts_rejected") > 0,
        "System 3 jitter must reject some attempts: {snap:?}"
    );
    assert!(
        snap.counter("omp.barrier_rounds") > 0,
        "the real runtime must count barrier rounds: {snap:?}"
    );

    // The same run must export as valid Chrome trace JSON with the
    // protocol spans present.
    let events = rec.drain_events();
    assert!(events.iter().any(|e| e.cat == "protocol"));
    assert!(events.iter().any(|e| e.cat == "cpu_sim"));
    assert!(events.iter().any(|e| e.cat == "omp"));
    let json = syncperf_core::obs::sink::chrome_trace_json(&events, &snap);
    let parsed = syncperf_core::obs::json::parse(&json).expect("valid JSON");
    assert!(
        !parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap()
            .is_empty(),
        "trace must contain events"
    );
}

#[test]
fn retry_summary_reads_back_from_the_snapshot() {
    let rec = Recorder::enabled();
    let mut sim = CpuSimExecutor::new(&SYSTEM3).with_recorder(rec.clone());
    let p = ExecParams::new(16).with_loops(1000, 100);
    for _ in 0..5 {
        Protocol::PAPER
            .measure_observed(&mut sim, &kernel::omp_atomic_read(DType::F64), &p, &rec)
            .unwrap();
    }
    let s = syncperf_core::protocol::RetrySummary::from_snapshot(&rec.snapshot());
    assert_eq!(s.runs, 45, "5 measurements x 9 runs");
    assert!(s.attempts >= s.runs);
    assert_eq!(s.rejected, s.attempts - s.runs + s.exhausted_runs);
    assert!(s.rejection_rate() > 0.0 && s.rejection_rate() < 1.0);
}

/// The recorder planes a sweep can run under. The global recorder is
/// installed once per process, so each plane's sweep runs in a child
/// process: this test binary re-run on one of the `plane_sweep_*`
/// tests below.
const PLANES: [&str; 3] = ["off", "metrics", "tracing"];

/// Whether this process was started to run the `plane` child alone.
/// The children install process-global state, so under a plain
/// `--include-ignored` run (all tests in one process) they do nothing.
fn is_child(plane: &str) -> bool {
    let name = format!("plane_sweep_{plane}");
    let args: Vec<String> = std::env::args().collect();
    let alone = args.iter().any(|a| a == "--exact") && args.contains(&name);
    if !alone {
        eprintln!("{name} runs only as a child of planes_do_not_change_sweep_results");
    }
    alone
}

/// Runs a multi-figure sweep (CPU and GPU engines) on a 2-worker
/// cacheless scheduler under the already-installed global recorder,
/// writes every CSV/SVG into `SYNCPERF_RESULTS` (or a scratch
/// directory when run by hand) and returns the scheduler's stats with
/// the process snapshot the runner would write for `--metrics`.
fn sweep_into_results() -> (SchedStats, Snapshot) {
    let dir = std::env::var_os("SYNCPERF_RESULTS").map_or_else(
        || std::env::temp_dir().join(format!("syncperf-plane-{}", std::process::id())),
        PathBuf::from,
    );
    let sched = syncperf_sched::install(Scheduler::new(
        SchedConfig::new(2)
            .without_cache()
            .with_cache_dir(dir.join(".cache")),
    ));
    let mut figs = syncperf_bench::figures_cpu::fig01_barrier().unwrap();
    figs.extend(syncperf_bench::figures_cpu::fig02_atomic_update_scalar().unwrap());
    figs.extend(syncperf_bench::figures_gpu::fig07_syncthreads().unwrap());
    for fig in &figs {
        fig.write_csv(&dir).unwrap();
        fig.write_svg(&dir).unwrap();
    }
    sched.finish();
    syncperf_sched::uninstall();
    let snap = syncperf_bench::runner::process_snapshot(obs::global(), Some(&sched), None);
    (sched.stats(), snap)
}

#[test]
#[ignore = "child of planes_do_not_change_sweep_results"]
fn plane_sweep_off() {
    if !is_child("off") {
        return;
    }
    let (st, _) = sweep_into_results();
    assert!(st.plan_primed_jobs > 0, "unobserved sweeps batch: {st:?}");
}

#[test]
#[ignore = "child of planes_do_not_change_sweep_results"]
fn plane_sweep_metrics() {
    if !is_child("metrics") {
        return;
    }
    assert!(obs::install(Recorder::enabled()));
    let (st, snap) = sweep_into_results();
    assert!(
        st.plan_primed_jobs > 0,
        "the metrics plane keeps the batched path: {st:?}"
    );
    let rec = obs::global();
    // Each count is held once: the scheduler keeps its own registry,
    // and the global recorder holds no copy of it.
    let global = rec.snapshot();
    let copies: Vec<&String> = global
        .counters
        .keys()
        .chain(global.gauges.keys())
        .chain(global.histograms.keys())
        .filter(|n| n.starts_with("sched.") || n.starts_with("dist.") || *n == "plan.batch_size")
        .collect();
    assert!(copies.is_empty(), "counted twice: {copies:?}");
    // A dist coordinator's rows reach the process snapshot through the
    // runner alone: the scheduler's export carries none of them.
    let sched = Scheduler::new(SchedConfig::new(1).without_cache());
    let coord = syncperf_dist::Coordinator::start(
        syncperf_dist::DistConfig::new(Vec::new()),
        &sched,
        syncperf_bench::serving::default_resolver(),
    )
    .unwrap();
    let dist_rows = |snap: &Snapshot| {
        snap.counters
            .keys()
            .filter(|n| n.starts_with("dist."))
            .count()
    };
    let runner = syncperf_bench::runner::process_snapshot;
    assert_eq!(dist_rows(&runner(rec, Some(&sched), None)), 0);
    assert!(dist_rows(&runner(rec, Some(&sched), Some(&coord))) > 0);
    coord.shutdown();
    assert_eq!(snap.counter("sched.plan_primed_jobs"), st.plan_primed_jobs);
    for name in ["sched.wait_us", "sched.service_us.miss", "plan.batch_size"] {
        assert!(snap.histogram(name).count() > 0, "{name} missing: {snap:?}");
    }
    // The sweep batches CPU and GPU groups alike; each group is one
    // `plan.batch_size` observation, whichever engine evaluates it.
    assert_eq!(
        snap.histogram("plan.batch_size").count(),
        st.plan_batches,
        "one plan.batch_size observation per same-shape group"
    );
    assert!(snap.counter("sched.jobs") > 0);
    // Every executed job evaluates a baseline and a test body, primed
    // from a batch or run as one point; the evaluators count both.
    let engine_runs = snap.counter("cpu_sim.engine_runs") + snap.counter("gpu_sim.launches");
    assert!(
        engine_runs >= 2 * st.executed,
        "{engine_runs} engine runs recorded for {} executed jobs",
        st.executed
    );
    assert!(rec.drain_events().is_empty(), "metrics record no events");
    assert_eq!(rec.dropped_events(), 0);
}

#[test]
#[ignore = "child of planes_do_not_change_sweep_results"]
fn plane_sweep_tracing() {
    if !is_child("tracing") {
        return;
    }
    assert!(obs::install(Recorder::tracing()));
    let (st, _) = sweep_into_results();
    assert!(st.jobs > 0);
    assert!(
        st.plan_primed_jobs > 0,
        "the event plane keeps the batched path: {st:?}"
    );
    let events = obs::global().drain_events();
    assert!(!events.is_empty(), "tracing records events");
    for cat in ["protocol", "cpu_sim", "cpu_sim.op", "gpu_sim"] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no `{cat}` events in the trace"
        );
    }
    // Batched tables narrate every point, each event tagged with it.
    assert!(
        events.iter().any(|e| e.cat == "cpu_sim.op"
            && e.args
                .iter()
                .any(|(k, v)| *k == "point" && *v != obs::ArgValue::U64(0))),
        "no `cpu_sim.op` event from a batch point past the first"
    );
}

/// Every `.csv`/`.svg` in `dir`, by file name.
fn outputs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let ext = Path::new(&name).extension()?.to_str()?;
            matches!(ext, "csv" | "svg").then(|| (name, std::fs::read(e.path()).unwrap()))
        })
        .collect()
}

#[test]
fn planes_do_not_change_sweep_results() {
    let root = std::env::temp_dir().join(format!("syncperf-planes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let exe = std::env::current_exe().unwrap();
    let mut runs = Vec::new();
    for plane in PLANES {
        let dir = root.join(plane);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(&exe)
            .args(["--ignored", "--exact", &format!("plane_sweep_{plane}")])
            .env("SYNCPERF_RESULTS", &dir)
            .output()
            .unwrap();
        let log = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && log.contains("1 passed"),
            "{plane} sweep failed:\n{log}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        runs.push((plane, outputs(&dir)));
    }
    let (_, want) = &runs[0];
    assert!(want.len() >= 6, "csv + svg per figure: {:?}", want.keys());
    for (plane, got) in &runs[1..] {
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{plane}: same files"
        );
        for (name, bytes) in want {
            assert!(got[name] == *bytes, "{plane}: {name} differs");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
