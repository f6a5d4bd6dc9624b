//! Bridge from analyzer findings to the observability layer.
//!
//! Every diagnostic (and every agreement failure) can be recorded
//! through an [`obs`] `Recorder` so that `--trace` runs of the bench
//! CLI and the `sync_lint` tool leave the findings in the same Chrome
//! trace / counter stream as everything else.

use syncperf_core::obs::{ArgValue, Recorder};

use crate::agree::Agreement;
use crate::diag::{BodyKind, Diagnostic};

/// Records one diagnostic as an instant event plus counters.
pub fn record_diagnostic(rec: &Recorder, kernel: &str, body: BodyKind, diag: &Diagnostic) {
    let mut args = vec![
        ("kernel", ArgValue::Str(kernel.to_string().into())),
        ("body", ArgValue::Str(body.to_string().into())),
        ("severity", ArgValue::Str(diag.severity.to_string().into())),
        ("message", ArgValue::Str(diag.message.clone().into())),
    ];
    if let Some(i) = diag.op_index {
        args.push(("op_index", ArgValue::U64(i as u64)));
    }
    rec.instant_args("analyze", diag.code.code(), args);
    rec.counter("analyze.diagnostics").inc();
    rec.counter(&format!("analyze.diagnostics.{}", diag.code.code()))
        .inc();
}

/// Records the outcome of a static↔dynamic cross-check.
pub fn record_agreement(rec: &Recorder, kernel: &str, body: BodyKind, agreement: &Agreement) {
    if agreement.holds() {
        rec.counter("analyze.crosscheck.agree").inc();
    } else {
        rec.instant_args(
            "analyze",
            "crosscheck-disagreement",
            vec![
                ("kernel", ArgValue::Str(kernel.to_string().into())),
                ("body", ArgValue::Str(body.to_string().into())),
                ("detail", ArgValue::Str(agreement.explain().into())),
            ],
        );
        rec.counter("analyze.crosscheck.disagree").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agree::check_cpu_body;
    use crate::diag::DiagCode;
    use syncperf_core::obs;

    #[test]
    fn diagnostics_land_in_the_recorder() {
        let rec = obs::Recorder::tracing();
        let d = Diagnostic::new(DiagCode::RedundantSync, Some(1), "x");
        record_diagnostic(&rec, "omp_barrier", BodyKind::Test, &d);
        record_agreement(&rec, "omp_barrier", BodyKind::Test, &check_cpu_body(&[]));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("analyze.diagnostics"), 1);
        assert_eq!(snap.counter("analyze.diagnostics.SL005"), 1);
        assert_eq!(snap.counter("analyze.crosscheck.agree"), 1);
        let events = rec.drain_events();
        assert!(events.iter().any(|e| e.name == "SL005"));
    }
}
