//! Cost explanation: decompose one operation's modeled latency into its
//! mechanism components — the "why is this slow" counterpart of the
//! engine's opaque totals.
//!
//! The breakdown is computed from the same model primitives the engine
//! uses; a consistency test asserts that the components sum to exactly
//! what [`crate::engine`] charges.

use syncperf_core::{CpuOp, DType};

use crate::config::CpuModel;
use crate::memline::{classify, line_of, lock_line, Access, ContentionMap};
use crate::topology::Placement;

/// One op's latency, split by mechanism. All values in nanoseconds
/// except the dimensionless `smt_factor` (already applied to the
/// service term) and the contention metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCostBreakdown {
    /// Human-readable op description.
    pub op: String,
    /// Core-local service time (includes the SMT factor).
    pub service_ns: f64,
    /// SMT slowdown applied to the service term (1.0 = core not
    /// shared).
    pub smt_factor: f64,
    /// Cache-to-cache line transfer.
    pub transfer_ns: f64,
    /// Saturating arbitration queue.
    pub arbitration_ns: f64,
    /// Unbounded per-sharer tax.
    pub sharer_tax_ns: f64,
    /// Floating-point CAS-loop retries.
    pub fp_retry_ns: f64,
    /// Lock acquire/release overhead (critical sections only).
    pub lock_ns: f64,
    /// Contending cores on the touched line.
    pub contenders: u32,
    /// Whether contenders span sockets.
    pub cross_socket: bool,
}

impl CpuCostBreakdown {
    /// Total modeled latency.
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

fn contention_parts(model: &CpuModel, contenders: u32, cross: bool) -> (f64, f64, f64) {
    if contenders == 0 {
        return (0.0, 0.0, 0.0);
    }
    let transfer = if cross {
        model.line_transfer_ns * model.cross_socket_factor
    } else {
        model.line_transfer_ns
    };
    (
        transfer,
        model.arbitration_ns * f64::from(contenders.min(model.contention_sat)),
        model.sharer_tax_ns * f64::from(contenders),
    )
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
    let slot = placement.slot(tid);
    let smt = if placement.core_is_smt_loaded(tid) {
        model.smt_service_factor
    } else {
        1.0
    };

    let mut b = CpuCostBreakdown {
        op: format!("{op:?}"),
        service_ns: 0.0,
        smt_factor: smt,
        transfer_ns: 0.0,
        arbitration_ns: 0.0,
        sharer_tax_ns: 0.0,
        fp_retry_ns: 0.0,
        lock_ns: 0.0,
        contenders: 0,
        cross_socket: false,
    };

    match classify(op) {
        Access::None => match op {
            CpuOp::Flush => b.service_ns = model.fence_base_ns * smt,
            CpuOp::Barrier => {
                b.service_ns = model.barrier_ns(placement.len() as u32);
                b.op.push_str(" (rendezvous cost; arrival wait excluded)");
            }
            // The two halves of a split critical section touch only the
            // lock line: the acquire pays the lock overhead and an RMW,
            // the release a store, each plus the lock line's contention.
            CpuOp::CriticalBegin { .. } | CpuOp::CriticalEnd { .. } => {
                let (lc, lcross) = contention.contenders(lock_line(), slot.core, true);
                let (lt, la, lx) = contention_parts(model, lc, lcross);
                let own = if matches!(op, CpuOp::CriticalBegin { .. }) {
                    model.lock_overhead_ns + model.rmw_int_ns
                } else {
                    model.store_ns
                };
                b.lock_ns = own * smt + lt + la + lx;
                (b.contenders, b.cross_socket) = (lc, lcross);
            }
            _ => {}
        },
        Access::Read(dtype, target) => {
            let line = line_of(dtype, target, tid, 64);
            let (c, cross) = contention.contenders(line, slot.core, false);
            let (t, a, x) = contention_parts(model, c, cross);
            b.service_ns = model.l1_hit_ns * smt;
            (b.transfer_ns, b.arbitration_ns, b.sharer_tax_ns) = (t, a, x);
            (b.contenders, b.cross_socket) = (c, cross);
        }
        Access::Write(dtype, target) => {
            let line = line_of(dtype, target, tid, 64);
            let (c, cross) = contention.contenders(line, slot.core, true);
            let (t, a, x) = contention_parts(model, c, cross);
            (b.contenders, b.cross_socket) = (c, cross);
            match op {
                CpuOp::Update { .. } => {
                    // Store-buffered: the thread sees only part of the
                    // coherence latency.
                    let visible = 1.0 - model.store_buffer_hiding;
                    b.service_ns = (model.l1_hit_ns + model.store_ns) * smt;
                    b.transfer_ns = t * visible;
                    b.arbitration_ns = a * visible;
                    b.sharer_tax_ns = x * visible;
                }
                CpuOp::AtomicWrite { .. } => {
                    b.service_ns = model.store_ns * smt;
                    (b.transfer_ns, b.arbitration_ns, b.sharer_tax_ns) = (t, a, x);
                }
                _ => {
                    b.service_ns = atomic_service(model, dtype) * smt;
                    if dtype.is_float() {
                        b.fp_retry_ns = model.fp_retry_ns * f64::from(c.min(model.contention_sat));
                    }
                    (b.transfer_ns, b.arbitration_ns, b.sharer_tax_ns) = (t, a, x);
                }
            }
        }
        Access::CriticalWrite(dtype, target) => {
            let (lc, lcross) = contention.contenders(lock_line(), slot.core, true);
            let (lt, la, lx) = contention_parts(model, lc, lcross);
            let line = line_of(dtype, target, tid, 64);
            let (c, cross) = contention.contenders(line, slot.core, true);
            let (t, a, x) = contention_parts(model, c, cross);
            b.lock_ns = model.lock_overhead_ns * smt
                + (model.rmw_int_ns + model.store_ns) * smt
                + 2.0 * (lt + la + lx);
            b.service_ns = (model.l1_hit_ns + model.store_ns) * smt;
            (b.transfer_ns, b.arbitration_ns, b.sharer_tax_ns) = (t, a, x);
            (b.contenders, b.cross_socket) = (lc.max(c), cross || lcross);
        }
    }
    b
}

fn atomic_service(model: &CpuModel, dtype: DType) -> f64 {
    if dtype.is_integer() {
        model.rmw_int_ns
    } else {
        model.rmw_int_ns + model.fp_cas_extra_ns
    }
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
    use syncperf_core::{kernel, Affinity, SYSTEM3};

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
        assert!((b.total_ns() - model.rmw_int_ns).abs() < 1e-9);
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
        assert!(b.lock_ns > model.lock_overhead_ns);
    }

    #[test]
    fn smt_factor_reported_when_core_shared() {
        let model = CpuModel::baseline();
        let placement = Placement::new(&SYSTEM3.cpu, Affinity::Close, 32);
        let body = kernel::omp_atomic_update_array(DType::I32, 16).baseline;
        let b = explain_op(&model, &placement, &body, 0, 0);
        assert_eq!(b.smt_factor, model.smt_service_factor);
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
