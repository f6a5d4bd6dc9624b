//! Property-based tests for syncperf-core's data structures: the
//! measurement protocol, report containers, and artifact store.

use proptest::prelude::*;
use syncperf_core::{
    kernel, Affinity, CpuOp, DType, ExecParams, Executor, FigureData, Kernel, Protocol,
    ResultsStore, RunRecord, Series, TimeUnit,
};

/// Deterministic executor whose per-op cost and per-call noise are
/// drawn from the test inputs.
struct ParamExec {
    op_cost: f64,
    noise_seq: Vec<f64>,
    call: usize,
}

impl Executor for ParamExec {
    type Op = CpuOp;

    fn name(&self) -> &str {
        "param"
    }

    fn time_unit(&self) -> TimeUnit {
        TimeUnit::Seconds
    }

    fn execute(&mut self, body: &[CpuOp], params: &ExecParams) -> syncperf_core::Result<f64> {
        let noise = self.noise_seq[self.call % self.noise_seq.len()];
        self.call += 1;
        let t = body.len() as f64 * self.op_cost * params.timed_reps() as f64 * (1.0 + noise);
        Ok(t)
    }
}

proptest! {
    /// Without noise, the protocol recovers the exact per-op cost for
    /// any loop structure and run counts.
    #[test]
    fn protocol_recovers_exact_cost(
        op_cost_ns in 1.0..1000.0f64,
        n_iter in 1u32..500,
        n_unroll in 1u32..200,
        runs in 1u32..12,
    ) {
        let mut exec = ParamExec { op_cost: op_cost_ns * 1e-9, noise_seq: vec![0.0], call: 0 };
        let protocol = Protocol { runs, max_attempts: 3 };
        let params = ExecParams::new(2).with_loops(n_iter, n_unroll);
        let m = protocol.measure(&mut exec, &kernel::omp_barrier(), &params).unwrap();
        let expect = op_cost_ns * 1e-9;
        prop_assert!((m.per_op - expect).abs() < 1e-9 * expect.max(1e-12) + 1e-18);
        prop_assert_eq!(m.retries, 0);
    }

    /// With bounded noise, the measured cost stays within the noise
    /// bound of the truth (the medians cannot leave the envelope).
    #[test]
    fn protocol_error_bounded_by_noise(
        noise in prop::collection::vec(-0.2..0.2f64, 4..24),
    ) {
        let op_cost = 100e-9;
        let mut exec = ParamExec { op_cost, noise_seq: noise, call: 0 };
        let params = ExecParams::new(2).with_loops(100, 10);
        let m = Protocol::PAPER.measure(&mut exec, &kernel::omp_barrier(), &params).unwrap();
        // test body = 2 ops, baseline = 1 op; each side's total is off
        // by ≤ 20%, so the difference is off by ≤ 2·20% of the test
        // body's cost → per-op error ≤ 60% of the op cost.
        prop_assert!((m.per_op - op_cost).abs() <= 0.6 * op_cost + 1e-15,
            "measured {} vs true {}", m.per_op, op_cost);
    }

    /// Throughput and runtime are consistent inverses.
    #[test]
    fn throughput_inverse_of_runtime(op_cost_ns in 1.0..10_000.0f64) {
        let mut exec = ParamExec { op_cost: op_cost_ns * 1e-9, noise_seq: vec![0.0], call: 0 };
        let params = ExecParams::new(2).with_loops(50, 10);
        let m = Protocol::SIM.measure(&mut exec, &kernel::omp_barrier(), &params).unwrap();
        if let Some(tp) = m.throughput() {
            prop_assert!((tp * m.runtime_seconds() - 1.0).abs() < 1e-9);
        }
    }

    /// Series lookup finds exactly the inserted points.
    #[test]
    fn series_y_at_total(points in prop::collection::btree_map(0u32..500, 0.0..1e9f64, 1..40)) {
        let series = Series::new(
            "s",
            points.iter().map(|(&x, &y)| (f64::from(x), y)).collect::<Vec<_>>(),
        );
        for (&x, &y) in &points {
            prop_assert_eq!(series.y_at(f64::from(x)), Some(y));
        }
        prop_assert_eq!(series.y_at(1e8), None);
        let ys: Vec<f64> = points.values().copied().collect();
        prop_assert_eq!(series.y_max(), ys.iter().copied().fold(f64::MIN, f64::max));
    }

    /// CSV output always has exactly one header plus one row per
    /// distinct x, and every row has `1 + n_series` fields.
    #[test]
    fn csv_always_rectangular(
        n_series in 1usize..5,
        xs in prop::collection::btree_set(0u32..200, 1..20),
    ) {
        let mut fig = FigureData::new("f", "t", "x", "y");
        for i in 0..n_series {
            fig.push_series(Series::new(
                format!("s{i}"),
                xs.iter().map(|&x| (f64::from(x), f64::from(x) * 2.0)).collect(),
            ));
        }
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(lines.len(), xs.len() + 1);
        for line in lines {
            prop_assert_eq!(line.split(',').count(), n_series + 1);
        }
    }

    /// Artifact records always survive a disk round trip.
    #[test]
    fn artifact_roundtrip(
        threads in 1u32..1024,
        blocks in 1u32..256,
        stride in 0u32..64,
        dt_idx in 0usize..5,
        aff_idx in 0usize..3,
        runtime_ns in 0.001..1e7f64,
    ) {
        let record = RunRecord {
            test: "prop_test".into(),
            threads,
            blocks,
            stride,
            dtype: if dt_idx == 4 { None } else { Some(DType::ALL[dt_idx]) },
            affinity: [Affinity::Spread, Affinity::Close, Affinity::SystemChoice][aff_idx],
            runtime_ns,
            throughput: 1e9 / runtime_ns,
        };
        let dir = std::env::temp_dir()
            .join(format!("syncperf_prop_{}_{threads}_{blocks}", std::process::id()));
        let mut store = ResultsStore::new("host");
        store.push(record.clone());
        store.write(&dir).unwrap();
        let loaded = ResultsStore::load(&dir, "host").unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(loaded.records(), &[record]);
    }

    /// Kernel construction is total over the factory parameter space.
    #[test]
    fn kernels_total_over_parameters(stride in 1u32..128, paths in 1u32..64, dt_idx in 0usize..4) {
        let dt = DType::ALL[dt_idx];
        let _ = kernel::omp_atomic_update_array(dt, stride);
        let _ = kernel::omp_flush(dt, stride);
        let _ = kernel::cuda_atomic_add_array(dt, stride);
        let _ = kernel::cuda_divergence(dt, paths);
        let k: Kernel<CpuOp> = kernel::omp_atomic_write(dt);
        prop_assert!(k.name.contains(dt.label()));
    }
}
