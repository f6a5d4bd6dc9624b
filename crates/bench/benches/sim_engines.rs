//! Criterion benches of the simulator engines themselves: how fast the
//! CPU and GPU models evaluate kernels and full measurement protocols.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use syncperf_core::{kernel, Affinity, DType, ExecParams, Executor, Protocol, Scope, SYSTEM3};
use syncperf_cpu_sim::{CpuModel, CpuSimExecutor, Placement};
use syncperf_gpu_sim::{
    simulate_reduction, GpuModel, GpuSimExecutor, Occupancy, ReductionConfig, ReductionStrategy,
};

fn bench_cpu_engine(c: &mut Criterion) {
    let model = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let mut g = c.benchmark_group("cpu_engine");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);
    for &threads in &[4u32, 16, 32] {
        let placement = Placement::new(&SYSTEM3.cpu, Affinity::Spread, threads);
        let body = kernel::omp_atomic_update_array(DType::I32, 1).test;
        g.bench_with_input(
            BenchmarkId::new("atomic_array_run", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    syncperf_cpu_sim::engine::run(&model, &placement, &body, 100_000).unwrap()
                });
            },
        );
        let barrier_body = kernel::omp_barrier().test;
        g.bench_with_input(
            BenchmarkId::new("barrier_run", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    syncperf_cpu_sim::engine::run(&model, &placement, &barrier_body, 100_000)
                        .unwrap()
                });
            },
        );
    }
    g.finish();
}

fn bench_gpu_engine(c: &mut Criterion) {
    let model = GpuModel::for_spec(&SYSTEM3.gpu);
    let mut g = c.benchmark_group("gpu_engine");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);
    for &(blocks, threads) in &[(1u32, 32u32), (128, 1024)] {
        let occ = Occupancy::compute(&SYSTEM3.gpu, blocks, threads).unwrap();
        let body = kernel::cuda_atomic_add_scalar(DType::I32).test;
        g.bench_with_input(
            BenchmarkId::new("atomic_scalar_run", format!("{blocks}x{threads}")),
            &occ,
            |b, occ| {
                b.iter(|| syncperf_gpu_sim::engine::run(&model, occ, &body, 100_000).unwrap());
            },
        );
    }
    g.finish();
}

/// One primed `__threadfence_system()` execution at 128 × 1024, the
/// largest launch a sweep jitters: the engine result is lent, so the
/// time is the fold of one PCIe jitter word per launched thread
/// (131,072 words), dispatched to the AVX-512 copy where the CPU has
/// it. Divide by 131,072 for the per-word cost.
fn bench_fence_jitter(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_fence_jitter");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);
    let k = kernel::cuda_threadfence(Scope::System, DType::I32, 0);
    let params = ExecParams::new(1024).with_blocks(128).with_loops(50, 4);
    let mut exec = GpuSimExecutor::new(&SYSTEM3);
    let occ = Occupancy::compute(&SYSTEM3.gpu, params.blocks, params.threads).unwrap();
    let [baseline, test] = [&k.baseline, &k.test].map(|body| {
        syncperf_gpu_sim::engine::run(exec.model(), &occ, body, params.timed_reps()).unwrap()
    });
    let mut primed = exec.primed(&params, [(&k.baseline, baseline), (&k.test, test)]);
    g.bench_function("primed_system_fence_128x1024", |b| {
        b.iter(|| primed.execute(&k.test, &params).unwrap());
    });
    g.finish();
}

/// The tracked speedup: the steady-state fast path (what `run` uses)
/// against the full-stepping oracle at the paper's 100k-rep protocol
/// point. The ratio between these two groups is the whole point of the
/// fast path — `BENCH_syncperf.json` tracks it end-to-end.
fn bench_fast_vs_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_vs_full");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);

    let cpu_model = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let placement = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 16);
    let body = kernel::omp_atomic_update_scalar(DType::I32).test;
    g.bench_function("cpu_fast_100k", |b| {
        b.iter(|| syncperf_cpu_sim::engine::run(&cpu_model, &placement, &body, 100_000).unwrap());
    });
    g.bench_function("cpu_full_stepping_100k", |b| {
        b.iter(|| {
            syncperf_cpu_sim::run_full_stepping(&cpu_model, &placement, &body, 100_000).unwrap()
        });
    });

    let gpu_model = GpuModel::for_spec(&SYSTEM3.gpu);
    let occ = Occupancy::compute(&SYSTEM3.gpu, 64, 256).unwrap();
    let gpu_body = kernel::cuda_atomic_add_scalar(DType::I32).test;
    g.bench_function("gpu_fast_100k", |b| {
        b.iter(|| syncperf_gpu_sim::engine::run(&gpu_model, &occ, &gpu_body, 100_000).unwrap());
    });
    g.bench_function("gpu_full_stepping_100k", |b| {
        b.iter(|| {
            syncperf_gpu_sim::run_full_stepping(&gpu_model, &occ, &gpu_body, 100_000).unwrap()
        });
    });
    g.finish();
}

/// The trace-compilation speedup ladder on one representative kernel
/// point: the per-rep plan interpreter (full-stepping oracle), the
/// one evaluator on a one-point plan table (what a single engine run
/// pays, compilation included), and the same evaluator on an 8-point
/// table amortizing one pass over a whole parameter sweep. All three
/// produce bit-identical results; this group tracks what the lowering
/// and the batching buy in raw evaluation speed.
fn bench_trace_vs_interp(c: &mut Criterion) {
    let rec = syncperf_core::obs::Recorder::disabled();
    let model = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let body = kernel::omp_atomic_update_scalar(DType::I32).test;
    let reps = 10_000u64;
    let placement = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 16);

    let mut g = c.benchmark_group("trace_vs_interp");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);

    g.bench_function("interp_10k", |b| {
        b.iter(|| syncperf_cpu_sim::run_full_stepping(&model, &placement, &body, reps).unwrap());
    });

    let one = std::slice::from_ref(&placement);
    g.bench_function("table_1pt_10k", |b| {
        b.iter(|| syncperf_cpu_sim::trace::run_batch(&model, &body, one, reps, &rec).unwrap());
    });

    // The batched path evaluates an 8-point thread sweep in one pass;
    // Criterion reports the whole sweep, so divide by 8 to compare
    // per-point cost against the rows above.
    let sweep: Vec<Placement> = [2u32, 4, 6, 8, 12, 16, 24, 32]
        .iter()
        .map(|&t| Placement::new(&SYSTEM3.cpu, Affinity::Spread, t))
        .collect();
    g.bench_function("batched_8pt_10k", |b| {
        b.iter(|| syncperf_cpu_sim::trace::run_batch(&model, &body, &sweep, reps, &rec).unwrap());
    });
    g.finish();
}

/// Engine set-up, the layer a cold sweep pays per point before any
/// evaluation: the production compile of one 64-thread point (twice
/// System 3's hardware threads, so SMT-loaded cores and wrapped-around
/// threads are both in it) as a one-point table, and the plan table of
/// a 63-point thread sweep as batched priming builds it, each evaluated
/// for a single repetition so compilation dominates.
fn bench_plan_compile(c: &mut Criterion) {
    let rec = syncperf_core::obs::Recorder::disabled();
    let model = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
    let body = kernel::omp_flush(DType::I32, 16).test;

    let mut g = c.benchmark_group("plan_compile");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);

    let placement = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 64);
    let one = std::slice::from_ref(&placement);
    g.bench_function("omp_flush_64t", |b| {
        b.iter(|| syncperf_cpu_sim::trace::run_batch(&model, &body, one, 1, &rec).unwrap());
    });

    let sweep: Vec<Placement> = (1..=63u32)
        .map(|t| Placement::new(&SYSTEM3.cpu, Affinity::Spread, t))
        .collect();
    g.bench_function("omp_flush_table_63pt", |b| {
        b.iter(|| syncperf_cpu_sim::trace::run_batch(&model, &body, &sweep, 1, &rec).unwrap());
    });
    g.finish();
}

fn bench_full_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(10);
    g.bench_function("paper_protocol_cpu_point", |b| {
        let mut exec = CpuSimExecutor::new(&SYSTEM3);
        let k = kernel::omp_atomic_update_scalar(DType::I32);
        let p = ExecParams::new(16).with_loops(1000, 100);
        b.iter(|| Protocol::PAPER.measure(&mut exec, &k, &p).unwrap());
    });
    g.bench_function("paper_protocol_gpu_point", |b| {
        let mut exec = GpuSimExecutor::new(&SYSTEM3);
        let k = kernel::cuda_atomic_add_scalar(DType::I32);
        let p = ExecParams::new(256).with_blocks(64).with_loops(1000, 100);
        b.iter(|| Protocol::PAPER.measure(&mut exec, &k, &p).unwrap());
    });
    g.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let model = GpuModel::for_spec(&SYSTEM3.gpu);
    let cfg = ReductionConfig::megabyte_input(&SYSTEM3.gpu);
    let mut g = c.benchmark_group("listing1");
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(300));
    g.sample_size(20);
    for s in ReductionStrategy::ALL {
        g.bench_with_input(
            BenchmarkId::new("simulate", format!("{s:?}")),
            &s,
            |b, &s| {
                b.iter(|| simulate_reduction(&model, &SYSTEM3.gpu, s, &cfg).unwrap());
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cpu_engine,
    bench_gpu_engine,
    bench_fence_jitter,
    bench_fast_vs_full,
    bench_trace_vs_interp,
    bench_plan_compile,
    bench_full_protocol,
    bench_reductions
);
criterion_main!(benches);
