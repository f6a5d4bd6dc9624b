//! SARIF 2.1.0 rendering of linter/explorer findings.
//!
//! [Static Analysis Results Interchange Format] is what code hosts
//! ingest to annotate pull requests inline. One run is emitted, with
//! one reporting descriptor per stable [`DiagCode`] (title, long
//! explanation, default level) and one result per finding. Allowlisted
//! findings are carried as *suppressed* results (`kind: "external"`)
//! rather than dropped, so the annotation layer can show them greyed
//! out instead of losing them.
//!
//! The output is fully deterministic — no timestamps, no absolute
//! paths, no tool version beyond the crate version — so a report can
//! be golden-pinned byte-for-byte in tests.
//!
//! [Static Analysis Results Interchange Format]:
//!     https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use std::fmt::Write as _;

use syncperf_core::obs::json;

use crate::diag::{BodyKind, DiagCode, Diagnostic, Severity};

/// One finding to render: a diagnostic plus where it came from and
/// whether the allowlist suppresses it.
#[derive(Debug, Clone)]
pub struct SarifFinding {
    /// Registry kernel name (or synthetic body label).
    pub kernel: String,
    /// Which of the kernel's two bodies.
    pub body: BodyKind,
    /// The finding itself.
    pub diagnostic: Diagnostic,
    /// The allowlist justification, when the finding is allowlisted.
    pub allowed_reason: Option<String>,
}

const fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Renders `findings` as a SARIF 2.1.0 log with a single run.
///
/// Rules are emitted for every stable code (not just the ones that
/// fired) so `ruleIndex` is stable across reports.
#[must_use]
pub fn render_sarif(findings: &[SarifFinding]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \
         \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \
         \"name\": \"sync_lint\",\n          \"informationUri\": \
         \"https://example.invalid/syncperf/docs/ANALYSIS.md\",\n          \"rules\": [\n",
    );
    for (i, code) in DiagCode::ALL.iter().enumerate() {
        let comma = if i + 1 < DiagCode::ALL.len() { "," } else { "" };
        let _ = write!(
            s,
            "            {{\n              \"id\": \"{id}\",\n              \"name\": \
             \"{name:?}\",\n              \"shortDescription\": {{ \"text\": {title} \
             }},\n              \"fullDescription\": {{ \"text\": {full} }},\n              \
             \"defaultConfiguration\": {{ \"level\": \"{lvl}\" }}\n            }}{comma}\n",
            id = code.code(),
            name = code,
            title = json::string(code.title()),
            full = json::string(code.explain()),
            lvl = level(code.severity()),
        );
    }
    s.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let rule_index = DiagCode::ALL
            .iter()
            .position(|c| *c == f.diagnostic.code)
            .unwrap_or(0);
        let fq = match f.diagnostic.op_index {
            Some(op) => format!("{}.{}.op{op}", f.kernel, f.body),
            None => format!("{}.{}", f.kernel, f.body),
        };
        let suppressions = match &f.allowed_reason {
            Some(reason) => format!(
                "[\n            {{ \"kind\": \"external\", \"justification\": {} }}\n          \
                 ]",
                json::string(reason)
            ),
            None => "[]".to_string(),
        };
        let _ = write!(
            s,
            "        {{\n          \"ruleId\": \"{id}\",\n          \"ruleIndex\": \
             {rule_index},\n          \"level\": \"{lvl}\",\n          \"message\": {{ \"text\": \
             {msg} }},\n          \"locations\": [\n            {{\n              \
             \"logicalLocations\": [\n                {{ \"fullyQualifiedName\": {fq} \
             }}\n              ]\n            }}\n          ],\n          \"suppressions\": \
             {suppressions},\n          \"properties\": {{ \"kernel\": {kernel}, \"body\": \
             \"{body}\" }}\n        }}{comma}\n",
            id = f.diagnostic.code.code(),
            lvl = level(f.diagnostic.severity),
            msg = json::string(&f.diagnostic.message),
            fq = json::string(&fq),
            kernel = json::string(&f.kernel),
            body = f.body,
        );
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(code: DiagCode, allowed: Option<&str>) -> SarifFinding {
        SarifFinding {
            kernel: "omp_barrier".to_string(),
            body: BodyKind::Test,
            diagnostic: Diagnostic::new(code, Some(1), "evidence \"quoted\""),
            allowed_reason: allowed.map(str::to_string),
        }
    }

    #[test]
    fn report_is_schema_shaped_and_escaped() {
        let out = render_sarif(&[
            finding(
                DiagCode::RedundantSync,
                Some("intentional: measures the primitive"),
            ),
            finding(DiagCode::BarrierDeadlock, None),
        ]);
        assert!(out.contains("\"version\": \"2.1.0\""));
        assert!(out.contains("\"id\": \"SL010\""), "all rules present");
        assert!(out.contains("\"name\": \"BarrierDeadlock\""));
        assert!(out.contains("evidence \\\"quoted\\\""));
        assert!(out.contains("omp_barrier.test.op1"));
        assert!(out.contains("\"kind\": \"external\""));
        // One suppressed, one live result.
        assert_eq!(out.matches("\"justification\"").count(), 1);
    }

    #[test]
    fn empty_report_still_lists_every_rule() {
        let out = render_sarif(&[]);
        for code in DiagCode::ALL {
            assert!(out.contains(code.code()));
        }
        assert!(out.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn rule_indices_match_all_order() {
        let out = render_sarif(&[finding(DiagCode::DataRace, None)]);
        assert!(out.contains("\"ruleIndex\": 0"));
    }
}
