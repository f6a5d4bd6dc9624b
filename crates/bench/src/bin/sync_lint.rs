//! `sync_lint` — audit every registered kernel with the static sync
//! linter, the vector-clock race detector, the bounded exhaustive
//! explorer, and the simulator cross-checks.
//!
//! ```console
//! $ sync_lint all                      # audit the whole registry
//! $ sync_lint openmp --format json     # machine-readable report
//! $ sync_lint cuda_atomicadd_scalar    # one registry code
//! $ sync_lint all --engine explore     # model checker only
//! $ sync_lint all --format sarif --out report.sarif
//! $ sync_lint --explain SL007          # what does this code mean?
//! ```
//!
//! For every kernel instance (both bodies), depending on `--engine`:
//!
//! * **lint** — the static linter runs and each diagnostic is either
//!   matched by a `docs/ANALYSIS.md`-documented allowlist entry or
//!   counted as a **violation**; the static verdict is cross-checked
//!   against the dynamic replay (CPU bodies additionally against the
//!   MESI directory, GPU bodies under a scaled launch geometry).
//! * **explore** — the model checker exhaustively explores the body's
//!   interleavings / divergence assignments (SL007–SL010 findings go
//!   through the same allowlist) and its race verdict is cross-checked
//!   against the vector-clock replay's.
//! * **both** (default) — everything above.
//!
//! Any cross-check disagreement is fatal. Exit status: `0` clean, `1`
//! violations or disagreements, `2` usage.

use std::fmt::Write as _;
use std::time::Instant;

use syncperf_analyze::record::{record_agreement, record_diagnostic};
use syncperf_analyze::sarif::{render_sarif, SarifFinding};
use syncperf_analyze::{
    allowed_by, check_cpu_body, check_gpu_body, crosscheck_engines_cpu, crosscheck_engines_gpu,
    explore_cpu_body, explore_gpu_body, lint_cpu_body, lint_gpu_body, BodyKind, DiagCode,
    Diagnostic, ExploreStats,
};
use syncperf_bench::codes::{kernel_inventory, AnyKernel};
use syncperf_core::obs::{self, json};

fn usage() -> ! {
    eprintln!(
        "usage: sync_lint <all|openmp|cuda|CODE|KERNEL> [--engine lint|explore|both] \
         [--format text|json|sarif] [--out PATH]\n       sync_lint --explain SL00x"
    );
    std::process::exit(2);
}

/// One audited (kernel, body) finding, resolved against the allowlist.
struct Finding {
    kernel: String,
    code: &'static str,
    body: BodyKind,
    diag: Diagnostic,
    allowed_reason: Option<&'static str>,
}

/// Per-body exploration counters for the CI artifact.
struct Exploration {
    kernel: String,
    body: BodyKind,
    stats: ExploreStats,
    deadlock_free: bool,
    micros: u128,
}

fn render_json(
    findings: &[Finding],
    disagreements: &[String],
    explorations: &[Exploration],
) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": {}, \"registry_code\": \"{}\", \"body\": \"{}\", \
             \"code\": \"{}\", \"severity\": \"{}\", \"op_index\": {}, \"message\": {}, \
             \"allowed\": {}}}",
            json::string(&f.kernel),
            f.code,
            f.body,
            f.diag.code.code(),
            f.diag.severity,
            f.diag
                .op_index
                .map_or_else(|| "null".to_string(), |i| i.to_string()),
            json::string(&f.diag.message),
            f.allowed_reason.is_some(),
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"disagreements\": [\n");
    for (i, d) in disagreements.iter().enumerate() {
        out.push_str("    ");
        json::push_string(&mut out, d);
        out.push_str(if i + 1 < disagreements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"exploration\": [\n");
    for (i, e) in explorations.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": {}, \"body\": \"{}\", \"states\": {}, \"branches\": {}, \
             \"complete\": {}, \"deadlock_free\": {}, \"micros\": {}}}",
            json::string(&e.kernel),
            e.body,
            e.stats.states,
            e.stats.branches,
            e.stats.complete,
            e.deadlock_free,
            e.micros,
        );
        out.push_str(if i + 1 < explorations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn explain(code_str: &str) -> ! {
    if let Some(code) = DiagCode::ALL.iter().find(|c| c.code() == code_str) {
        println!(
            "{} [{}] — {}\n\n{}",
            code.code(),
            code.severity(),
            code.title(),
            code.explain()
        );
        std::process::exit(0);
    }
    eprintln!(
        "error: unknown diagnostic code `{code_str}` (known: SL001..SL{:03})",
        DiagCode::ALL.len()
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selector: Option<String> = None;
    let mut format = "text".to_string();
    let mut engine = "both".to_string();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("text" | "json" | "sarif")) => format = f.to_string(),
                _ => usage(),
            },
            "--engine" => match it.next().map(String::as_str) {
                Some(e @ ("lint" | "explore" | "both")) => engine = e.to_string(),
                _ => usage(),
            },
            "--explain" => match it.next() {
                Some(c) => explain(c),
                None => usage(),
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => usage(),
            },
            other if other.starts_with('-') => usage(),
            other if selector.is_none() => selector = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(selector) = selector else { usage() };
    let run_lint = engine != "explore";
    let run_explore = engine != "lint";

    // Record all findings through the observability layer too, so a
    // trace-enabled embedding sees them alongside engine events.
    obs::install(obs::Recorder::tracing());
    let rec = obs::global();

    let inventory: Vec<_> = kernel_inventory()
        .into_iter()
        .filter(|k| match selector.as_str() {
            "all" => true,
            "openmp" => matches!(k.kernel, AnyKernel::Cpu(_)),
            "cuda" => matches!(k.kernel, AnyKernel::Gpu(_)),
            name => k.code == name || k.kernel.name() == name,
        })
        .collect();
    if inventory.is_empty() {
        eprintln!(
            "error: selector `{selector}` matches no registered kernel \
             (try `all`, `openmp`, `cuda`, a registry code, or a kernel name)"
        );
        std::process::exit(2);
    }

    let mut findings = Vec::new();
    let mut disagreements = Vec::new();
    let mut explorations: Vec<Exploration> = Vec::new();
    let mut audited = 0usize;
    for inst in &inventory {
        let name = inst.kernel.name().to_string();
        audited += 1;
        for body in [BodyKind::Baseline, BodyKind::Test] {
            let mut diags: Vec<Diagnostic> = Vec::new();
            match &inst.kernel {
                AnyKernel::Cpu(k) => {
                    let b = if body == BodyKind::Baseline {
                        &k.baseline
                    } else {
                        &k.test
                    };
                    if run_lint {
                        diags.extend(lint_cpu_body(b));
                        record_agreement(rec, &name, body, &check_cpu_body(b));
                        if let Err(e) = syncperf_cpu_sim::crosscheck_cpu_body(b) {
                            disagreements.push(format!("{name} ({body}): {e}"));
                        }
                    }
                    if run_explore {
                        let started = Instant::now();
                        let report = explore_cpu_body(b);
                        let agreement = crosscheck_engines_cpu(b);
                        let micros = started.elapsed().as_micros();
                        if !agreement.holds() {
                            disagreements.push(format!(
                                "{name} ({body}): engine disagreement: {}",
                                agreement.explain()
                            ));
                        }
                        rec.counter("analyze.explore.states")
                            .add(report.stats.states);
                        explorations.push(Exploration {
                            kernel: name.clone(),
                            body,
                            stats: report.stats,
                            deadlock_free: report.deadlock_free,
                            micros,
                        });
                        diags.extend(report.diagnostics);
                    }
                }
                AnyKernel::Gpu(k) => {
                    let b = if body == BodyKind::Baseline {
                        &k.baseline
                    } else {
                        &k.test
                    };
                    if run_lint {
                        diags.extend(lint_gpu_body(b));
                        record_agreement(rec, &name, body, &check_gpu_body(b));
                        if let Err(e) = syncperf_gpu_sim::audit_launch(b, 160, 256, 32) {
                            disagreements.push(format!("{name} ({body}): {e}"));
                        }
                    }
                    if run_explore {
                        let started = Instant::now();
                        let report = explore_gpu_body(b);
                        let agreement = crosscheck_engines_gpu(b);
                        let micros = started.elapsed().as_micros();
                        if !agreement.holds() {
                            disagreements.push(format!(
                                "{name} ({body}): engine disagreement: {}",
                                agreement.explain()
                            ));
                        }
                        rec.counter("analyze.explore.states")
                            .add(report.stats.states);
                        explorations.push(Exploration {
                            kernel: name.clone(),
                            body,
                            stats: report.stats,
                            deadlock_free: report.deadlock_free,
                            micros,
                        });
                        diags.extend(report.diagnostics);
                    }
                }
            }
            for diag in diags {
                record_diagnostic(rec, &name, body, &diag);
                let allowed = allowed_by(&name, body, &diag).map(|e| e.reason);
                findings.push(Finding {
                    kernel: name.clone(),
                    code: inst.code,
                    body,
                    diag,
                    allowed_reason: allowed,
                });
            }
        }
    }

    let violations = findings
        .iter()
        .filter(|f| f.allowed_reason.is_none())
        .count();
    let report = match format.as_str() {
        "json" => render_json(&findings, &disagreements, &explorations),
        "sarif" => {
            let sarif: Vec<SarifFinding> = findings
                .iter()
                .map(|f| SarifFinding {
                    kernel: f.kernel.clone(),
                    body: f.body,
                    diagnostic: f.diag.clone(),
                    allowed_reason: f.allowed_reason.map(str::to_string),
                })
                .collect();
            render_sarif(&sarif)
        }
        _ => {
            let mut out = String::new();
            for f in &findings {
                let status = match f.allowed_reason {
                    Some(reason) => format!("allowed: {reason}"),
                    None => "VIOLATION".to_string(),
                };
                let _ = writeln!(out, "{}:{}: {} [{}]", f.kernel, f.body, f.diag, status);
            }
            for d in &disagreements {
                let _ = writeln!(out, "DISAGREEMENT: {d}");
            }
            if run_explore {
                let states: u64 = explorations.iter().map(|e| e.stats.states).sum();
                let micros: u128 = explorations.iter().map(|e| e.micros).sum();
                let wedged = explorations.iter().filter(|e| !e.deadlock_free).count();
                let _ = writeln!(
                    out,
                    "explored {} bodies: {states} states, {wedged} wedged, {:.1} ms total",
                    explorations.len(),
                    micros as f64 / 1000.0,
                );
            }
            let _ = writeln!(
                out,
                "audited {audited} kernels ({} bodies): {} findings, {} allowed, {violations} violations, {} disagreements",
                audited * 2,
                findings.len(),
                findings.len() - violations,
                disagreements.len(),
            );
            out
        }
    };

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    print!("{report}");

    if violations > 0 || !disagreements.is_empty() {
        std::process::exit(1);
    }
}
