//! Cost explanation: decompose one operation's modeled latency into its
//! mechanism components — the "why is this slow" counterpart of the
//! engine's opaque totals.
//!
//! The breakdown is the engine's own: [`explain_op`] resolves the op's
//! contention as [`crate::plan::op_cost`] does and reports the terms the
//! plan's cost function added up, so its total is, to the fixed-point
//! unit, what [`crate::engine`] charges.

use syncperf_core::CpuOp;

use crate::config::CpuModel;
use crate::memline::ContentionMap;
use crate::plan::op_charge;
use crate::topology::Placement;

/// One op's latency, split by mechanism. All values in nanoseconds
/// except the dimensionless `smt_factor` (already applied to the
/// service, retry and lock terms) and the contention metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCostBreakdown {
    /// Human-readable op description.
    pub op: String,
    /// Core-local service time (includes the SMT factor).
    pub service_ns: f64,
    /// SMT slowdown applied to the core-local terms (1.0 = core not
    /// shared).
    pub smt_factor: f64,
    /// Cache-to-cache line transfer.
    pub transfer_ns: f64,
    /// Saturating arbitration queue.
    pub arbitration_ns: f64,
    /// Unbounded per-sharer tax.
    pub sharer_tax_ns: f64,
    /// Floating-point CAS-loop retries (includes the SMT factor).
    pub fp_retry_ns: f64,
    /// Lock acquire/release overhead (critical sections only).
    pub lock_ns: f64,
    /// Contending cores on the touched line.
    pub contenders: u32,
    /// Whether contenders span sockets.
    pub cross_socket: bool,
}

impl CpuCostBreakdown {
    /// Total modeled latency: what the plan charges, before it is
    /// quantized to fixed-point units.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.service_ns
            + self.transfer_ns
            + self.arbitration_ns
            + self.sharer_tax_ns
            + self.fp_retry_ns
            + self.lock_ns
    }

    /// Renders one formatted line.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{:<44} {:>8.1} ns = service {:>5.1} (x{:.2} SMT) + transfer {:>5.1} + arb {:>6.1} \
             + tax {:>5.1} + fp {:>5.1} + lock {:>5.1}   [{} contender(s){}]",
            self.op,
            self.total_ns(),
            self.service_ns,
            self.smt_factor,
            self.transfer_ns,
            self.arbitration_ns,
            self.sharer_tax_ns,
            self.fp_retry_ns,
            self.lock_ns,
            self.contenders,
            if self.cross_socket {
                ", cross-socket"
            } else {
                ""
            }
        )
    }
}

/// Explains the steady-state cost of `body[op_index]` for thread `tid`.
///
/// Barrier and flush costs depend on run-time state (arrival spread,
/// store-buffer fill) and are reported with their state-independent
/// parts only.
///
/// # Panics
///
/// Panics if `op_index` or `tid` are out of range.
#[must_use]
pub fn explain_op(
    model: &CpuModel,
    placement: &Placement,
    body: &[CpuOp],
    tid: usize,
    op_index: usize,
) -> CpuCostBreakdown {
    let op = &body[op_index];
    let contention = ContentionMap::analyze(body, placement, 64);
    let (_, t) = op_charge(model, placement, &contention, op, tid);
    let mut b = CpuCostBreakdown {
        op: format!("{op:?}"),
        service_ns: t.service,
        smt_factor: t.smt,
        transfer_ns: t.transfer,
        arbitration_ns: t.arbitration,
        sharer_tax_ns: t.sharer_tax,
        fp_retry_ns: t.fp_retry,
        lock_ns: t.lock,
        contenders: t.contenders,
        cross_socket: t.cross_socket,
    };
    if matches!(op, CpuOp::Barrier) {
        // The plan charges a barrier at the rendezvous, not per op.
        #[allow(clippy::cast_possible_truncation)]
        let n = placement.len() as u32;
        b.service_ns = model.barrier_ns(n);
        b.op.push_str(" (rendezvous cost; arrival wait excluded)");
    }
    b
}

/// Explains every op of `body` for thread 0 and renders a report.
#[must_use]
pub fn explain_body(model: &CpuModel, placement: &Placement, body: &[CpuOp]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cost breakdown for thread 0 of {} ({} threads):\n",
        placement.len(),
        placement.len()
    ));
    for i in 0..body.len() {
        let b = explain_op(model, placement, body, 0, i);
        out.push_str(&b.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use syncperf_core::{kernel, Affinity, DType, SYSTEM3};

    fn setup(threads: u32) -> (CpuModel, Placement) {
        (
            CpuModel::baseline(),
            Placement::new(&SYSTEM3.cpu, Affinity::Spread, threads),
        )
    }

    /// The breakdown must sum to exactly what the engine charges for
    /// barrier-free steady-state bodies.
    #[test]
    fn breakdown_consistent_with_engine() {
        let (model, placement) = setup(16);
        let bodies = [
            kernel::omp_atomic_update_scalar(DType::F64).baseline,
            kernel::omp_atomic_update_array(DType::I32, 1).baseline,
            kernel::omp_atomic_update_array(DType::I32, 16).baseline,
            kernel::omp_atomic_write(DType::F32).baseline,
            kernel::omp_critical_add(DType::I32).baseline,
            kernel::omp_critical_section(DType::I32).baseline,
            kernel::omp_critical_section(DType::I32).test,
            kernel::omp_atomic_read(DType::U64).baseline,
        ];
        for body in &bodies {
            let explained: f64 = (0..body.len())
                .map(|i| explain_op(&model, &placement, body, 0, i).total_ns())
                .sum();
            // Engine steady-state per-rep cost for thread 0.
            let r10 = engine::run(&model, &placement, body, 10)
                .unwrap()
                .per_thread_ns[0];
            let r20 = engine::run(&model, &placement, body, 20)
                .unwrap()
                .per_thread_ns[0];
            let per_rep = (r20 - r10) / 10.0;
            assert!(
                (explained - per_rep).abs() < 1e-6 * per_rep.max(1.0),
                "{body:?}: explained {explained} vs engine {per_rep}"
            );
        }
    }

    /// The breakdown must also agree, op by op, with the `cpu_sim.op`
    /// trace events the engine emits — the same program explained and
    /// traced gives one consistent story.
    #[test]
    fn breakdown_matches_engine_total_and_per_op_trace_events() {
        use syncperf_core::obs::{ArgValue, Event, Recorder};

        fn arg_u64(e: &Event, key: &str) -> Option<u64> {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::U64(u) if *k == key => Some(*u),
                _ => None,
            })
        }
        fn arg_f64(e: &Event, key: &str) -> Option<f64> {
            e.args.iter().find_map(|(k, v)| match v {
                ArgValue::F64(x) if *k == key => Some(*x),
                _ => None,
            })
        }

        let (model, placement) = setup(16);
        let bodies = [
            kernel::omp_atomic_update_scalar(DType::F64).test,
            kernel::omp_atomic_update_array(DType::I32, 1).baseline,
            kernel::omp_critical_add(DType::I32).baseline,
            kernel::omp_flush(DType::I32, 4).baseline,
        ];
        for body in &bodies {
            let explained: Vec<f64> = (0..body.len())
                .map(|i| explain_op(&model, &placement, body, 0, i).total_ns())
                .collect();

            let rec = Recorder::tracing();
            let r10 = engine::run_observed(&model, &placement, body, 10, &rec)
                .unwrap()
                .per_thread_ns[0];
            let r20 = engine::run(&model, &placement, body, 20)
                .unwrap()
                .per_thread_ns[0];
            let per_rep = (r20 - r10) / 10.0;
            let explained_total: f64 = explained.iter().sum();
            assert!(
                (explained_total - per_rep).abs() < 1e-6 * per_rep.max(1.0),
                "{body:?}: explained {explained_total} vs engine {per_rep}"
            );

            // The engine simulates warm reps 0..4 op by op; rep 3 is
            // steady state, so its per-op events must reproduce the
            // breakdown exactly.
            let events = rec.drain_events();
            let mut traced_total = 0.0;
            for (idx, &expect) in explained.iter().enumerate() {
                let ev = events
                    .iter()
                    .find(|e| {
                        e.cat == "cpu_sim.op"
                            && arg_u64(e, "tid") == Some(0)
                            && arg_u64(e, "rep") == Some(3)
                            && arg_u64(e, "idx") == Some(idx as u64)
                    })
                    .unwrap_or_else(|| panic!("{body:?}: no trace event for op {idx}"));
                let cost = arg_f64(ev, "cost_ns").expect("cost_ns argument");
                assert!(
                    (cost - expect).abs() < 1e-6 * expect.max(1.0),
                    "{body:?} op {idx}: traced {cost} vs explained {expect}"
                );
                traced_total += cost;
            }
            assert!(
                (traced_total - per_rep).abs() < 1e-6 * per_rep.max(1.0),
                "{body:?}: traced rep {traced_total} vs engine {per_rep}"
            );
        }
    }

    #[test]
    fn contended_atomic_blames_arbitration() {
        let (model, placement) = setup(16);
        let body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let b = explain_op(&model, &placement, &body, 0, 0);
        assert_eq!(b.contenders, 15);
        assert!(
            b.arbitration_ns > b.service_ns,
            "contention dominates: {b:?}"
        );
        assert!(b.transfer_ns > 0.0);
    }

    #[test]
    fn padded_atomic_blames_nothing_but_service() {
        let (model, placement) = setup(16);
        let body = kernel::omp_atomic_update_array(DType::I32, 16).baseline;
        let b = explain_op(&model, &placement, &body, 0, 0);
        assert_eq!(b.contenders, 0);
        assert_eq!(b.transfer_ns + b.arbitration_ns + b.sharer_tax_ns, 0.0);
        assert!(b.service_ns > 0.0);
        assert_eq!(b.total_ns(), b.service_ns);
        // Padding makes a team of 16 cost what a thread alone does.
        let (_, alone) = setup(1);
        assert_eq!(b, explain_op(&model, &alone, &body, 0, 0));
    }

    #[test]
    fn float_atomics_show_retry_component() {
        let (model, placement) = setup(8);
        let body = kernel::omp_atomic_update_scalar(DType::F64).baseline;
        let b = explain_op(&model, &placement, &body, 0, 0);
        assert!(b.fp_retry_ns > 0.0);
        let int_body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let bi = explain_op(&model, &placement, &int_body, 0, 0);
        assert_eq!(bi.fp_retry_ns, 0.0);
    }

    #[test]
    fn critical_shows_lock_component() {
        let (model, placement) = setup(8);
        let body = kernel::omp_critical_add(DType::I32).baseline;
        let b = explain_op(&model, &placement, &body, 0, 0);
        let (_, alone) = setup(1);
        let uncontended = explain_op(&model, &alone, &body, 0, 0);
        assert!(uncontended.lock_ns > 0.0);
        assert!(
            b.lock_ns > uncontended.lock_ns,
            "the lock line is contended"
        );
    }

    #[test]
    fn smt_factor_reported_when_core_shared() {
        let model = CpuModel::baseline();
        let body = kernel::omp_atomic_update_scalar(DType::F64).baseline;
        let shared = Placement::new(&SYSTEM3.cpu, Affinity::Close, 32);
        let b = explain_op(&model, &shared, &body, 0, 0);
        let (_, own_core) = setup(16);
        let unshared = explain_op(&model, &own_core, &body, 0, 0);
        assert!(b.smt_factor > 1.0);
        assert_eq!(unshared.smt_factor, 1.0);
        // The factor scales every core-local term, CAS retries too.
        assert_eq!(b.contenders, unshared.contenders);
        assert_eq!(b.service_ns, unshared.service_ns * b.smt_factor);
        assert_eq!(b.fp_retry_ns, unshared.fp_retry_ns * b.smt_factor);
    }

    #[test]
    fn report_renders_every_op() {
        let (model, placement) = setup(4);
        let body = kernel::omp_flush(DType::I32, 8).test;
        let report = explain_body(&model, &placement, &body);
        assert_eq!(report.lines().count(), body.len() + 1);
        assert!(report.contains("Flush"));
    }
}
