//! Automated verification of every qualitative claim in EXPERIMENTS.md.
//!
//! [`check`] evaluates each paper claim against a regenerated figure
//! set (as [`crate::all_figures`] returns it) and the Listing 1 study,
//! finding each panel by id, and returns structured pass/fail results —
//! the artifact-evaluation counterpart of the test suite, runnable as
//! `cargo run --release -p syncperf-bench --bin verify_experiments`.

use syncperf_core::FigureData;
use syncperf_gpu_sim::ReductionReport;

/// One verified claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Experiment id (e.g. `fig03`).
    pub id: &'static str,
    /// The paper's claim being verified.
    pub claim: &'static str,
    /// Whether the regenerated data satisfies it.
    pub passed: bool,
    /// Measured evidence.
    pub detail: String,
}

fn y(fig: &FigureData, label: &str, x: f64) -> f64 {
    fig.series_by_label(label)
        .unwrap_or_else(|| panic!("{}: no series `{label}`", fig.id))
        .y_at(x)
        .unwrap_or_else(|| panic!("{}/{label}: no point at {x}", fig.id))
}

/// Checks every claim against `figs` and the Listing 1 study
/// ([`crate::tables::listing1`]).
///
/// # Panics
///
/// Panics if `figs` lacks a panel, series or point a claim reads, or
/// `listing1` has fewer than five reports: the inputs are not a full
/// regeneration.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check(figs: &[FigureData], listing1: &[ReductionReport]) -> Vec<Check> {
    let panel = |id: &str| {
        figs.iter()
            .find(|f| f.id == id)
            .unwrap_or_else(|| panic!("no panel `{id}` in the figure set"))
    };
    let mut out = Vec::new();

    // --- Fig. 1 -------------------------------------------------------
    let fig01 = panel("fig01");
    let b = &fig01.series[0];
    let (b2, b8, b32) = (
        y(fig01, "barrier", 2.0),
        y(fig01, "barrier", 8.0),
        y(fig01, "barrier", 32.0),
    );
    out.push(Check {
        id: "fig01",
        claim: "barrier throughput decreases then is largely stable beyond ~8 threads",
        passed: b2 > 1.5 * b8 && b8 / b32 < 2.0,
        detail: format!(
            "2t {:.2e}, 8t {:.2e}, 32t {:.2e} ({} points)",
            b2,
            b8,
            b32,
            b.points.len()
        ),
    });

    // --- Fig. 2 -------------------------------------------------------
    let fig02 = panel("fig02");
    let (i32_, u64_, f64_) = (
        y(fig02, "int", 32.0),
        y(fig02, "ull", 32.0),
        y(fig02, "double", 32.0),
    );
    out.push(Check {
        id: "fig02",
        claim: "integer atomics beat floating-point; word size irrelevant",
        passed: i32_ > f64_ && (i32_ / u64_ - 1.0).abs() < 0.15,
        detail: format!("int {i32_:.2e}, ull {u64_:.2e}, double {f64_:.2e} at 32 threads"),
    });

    // --- Fig. 3 -------------------------------------------------------
    let d4 = y(panel("fig03b"), "double", 16.0);
    let d8 = y(panel("fig03c"), "double", 16.0);
    let i8_ = y(panel("fig03c"), "int", 16.0);
    let i16_ = y(panel("fig03d"), "int", 16.0);
    out.push(Check {
        id: "fig03",
        claim: "64-bit types jump at stride 8, 32-bit at stride 16 (cache-line geometry)",
        passed: d8 > 3.0 * d4 && i16_ > 3.0 * i8_,
        detail: format!(
            "double s4→s8: {:.1}x; int s8→s16: {:.1}x",
            d8 / d4,
            i16_ / i8_
        ),
    });
    let s1_int = y(panel("fig03a"), "int", 32.0);
    let s1_ull = y(panel("fig03a"), "ull", 32.0);
    out.push(Check {
        id: "fig03a",
        claim: "at stride 1, 4-byte types slightly worse (twice the words per line)",
        passed: s1_int < s1_ull,
        detail: format!("int {s1_int:.2e} < ull {s1_ull:.2e}"),
    });

    // --- Fig. 4 -------------------------------------------------------
    let (fig04a, fig04b) = (panel("fig04a"), panel("fig04b"));
    let at32: Vec<f64> = fig04b
        .series
        .iter()
        .map(|s| s.y_at(32.0).expect("point"))
        .collect();
    let type_spread = syncperf_core::stats::relative_spread(&at32);
    let wobble = |fig: &FigureData| {
        let pts: Vec<f64> = fig
            .series_by_label("int")
            .expect("int series")
            .points
            .iter()
            .filter(|(x, _)| *x >= 20.0)
            .map(|(_, y)| *y)
            .collect();
        syncperf_core::stats::relative_spread(&pts)
    };
    out.push(Check {
        id: "fig04",
        claim: "atomic write is type/size blind; System 3 (AMD) is jittery, System 2 clean",
        passed: type_spread < 0.15 && wobble(fig04a) > wobble(fig04b),
        detail: format!(
            "type spread {:.1}%; tail wobble sys3 {:.1}% vs sys2 {:.1}%",
            type_spread * 100.0,
            wobble(fig04a) * 100.0,
            wobble(fig04b) * 100.0
        ),
    });

    // --- Fig. 5 -------------------------------------------------------
    let fig05 = panel("fig05");
    let crit = y(fig05, "int", 32.0);
    out.push(Check {
        id: "fig05",
        claim: "critical sections slower than atomics at every thread count",
        passed: fig05
            .series_by_label("int")
            .expect("int")
            .points
            .iter()
            .all(|&(x, v)| {
                v < fig02
                    .series_by_label("int")
                    .expect("int")
                    .y_at(x)
                    .unwrap_or(f64::MAX)
            }),
        detail: format!("critical {crit:.2e} vs atomic {i32_:.2e} at 32 threads"),
    });

    // --- Fig. 6 -------------------------------------------------------
    let f_s1 = y(panel("fig06a"), "int", 32.0);
    let f_s16 = y(panel("fig06d"), "int", 32.0);
    out.push(Check {
        id: "fig06",
        claim: "flush is expensive under false sharing (x10^7) and nearly free padded (x10^8)",
        passed: f_s16 > 4.0 * f_s1 && f_s1 > 1e6 && f_s16 > 5e7,
        detail: format!("stride 1: {f_s1:.2e}, stride 16: {f_s16:.2e}"),
    });

    // --- §V-A2 --------------------------------------------------------
    let rc = panel("exp_read_capture");
    let read_free = rc
        .series_by_label("atomic read negligible (1=yes)")
        .expect("flag series")
        .points
        .iter()
        .all(|&(_, f)| f == 1.0);
    let cap_ratio_ok = rc
        .series_by_label("capture/update runtime ratio")
        .expect("ratio series")
        .points
        .iter()
        .all(|&(_, r)| (r - 1.0).abs() < 0.2);
    out.push(Check {
        id: "sVA2",
        claim: "atomic read is free; atomic capture behaves like atomic update",
        passed: read_free && cap_ratio_ok,
        detail: format!(
            "read negligible at all thread counts: {read_free}; capture≈update: {cap_ratio_ok}"
        ),
    });

    // --- Fig. 7 -------------------------------------------------------
    let fig07 = panel("fig07");
    let first = &fig07.series[0];
    let flat = first.y_at(1.0) == first.y_at(32.0);
    let falling = first.y_at(1024.0).expect("1024") < first.y_at(64.0).expect("64");
    let block_invariant = fig07.series.iter().all(|s| s.points == first.points);
    out.push(Check {
        id: "fig07",
        claim: "__syncthreads flat through the warp size, dropping beyond; identical for all block counts",
        passed: flat && falling && block_invariant,
        detail: format!(
            "32t {:.2e} → 1024t {:.2e}; {} block counts identical",
            first.y_at(32.0).expect("32"),
            first.y_at(1024.0).expect("1024"),
            fig07.series.len()
        ),
    });

    // --- Fig. 8 -------------------------------------------------------
    let full3 = panel("fig08a")
        .series_by_label("full (1 block/SM)")
        .expect("full");
    let full1 = panel("fig08b")
        .series_by_label("full (1 block/SM)")
        .expect("full");
    out.push(Check {
        id: "fig08",
        claim: "RTX 4090 full speed to 256 threads/SM, RTX 2070 SUPER to 512; modest drop",
        passed: full3.y_at(128.0) == full3.y_at(256.0)
            && full3.y_at(512.0).expect("512") < full3.y_at(256.0).expect("256")
            && full1.y_at(256.0) == full1.y_at(512.0)
            && full1.y_at(1024.0).expect("1024") < full1.y_at(512.0).expect("512")
            && full3.y_at(256.0).expect("256") / full3.y_at(1024.0).expect("1024") < 2.0,
        detail: format!(
            "4090 knee after 256 ({:.2e}→{:.2e}); 2070S knee after 512",
            full3.y_at(256.0).expect("256"),
            full3.y_at(512.0).expect("512")
        ),
    });

    // --- Fig. 9 -------------------------------------------------------
    let fig09a = panel("fig09a");
    let int2 = fig09a.series_by_label("int").expect("int");
    out.push(Check {
        id: "fig09",
        claim: "warp aggregation: 2-block atomicAdd constant to 64 threads; int > ull > float",
        passed: int2.y_at(32.0) == int2.y_at(64.0)
            && int2.y_at(128.0).expect("128") < int2.y_at(64.0).expect("64")
            && y(fig09a, "int", 1024.0) > y(fig09a, "ull", 1024.0)
            && y(fig09a, "ull", 1024.0) > y(fig09a, "float", 1024.0),
        detail: format!(
            "flat to 64t at {:.2e}; at 1024t int {:.2e} > ull {:.2e} > float {:.2e}",
            int2.y_at(64.0).expect("64"),
            y(fig09a, "int", 1024.0),
            y(fig09a, "ull", 1024.0),
            y(fig09a, "float", 1024.0)
        ),
    });

    // --- Fig. 10 ------------------------------------------------------
    let ratio_1 = y(panel("fig10a"), "int", 1024.0) / y(panel("fig10b"), "int", 1024.0);
    let ratio_128 = y(panel("fig10c"), "int", 1024.0) / y(panel("fig10d"), "int", 1024.0);
    out.push(Check {
        id: "fig10",
        claim: "private atomics: more blocks → lower throughput; stride matters mainly at high block counts",
        passed: y(panel("fig10a"), "int", 256.0) > y(panel("fig10c"), "int", 256.0)
            && ratio_128 > ratio_1,
        detail: format!(
            "stride-1/stride-32 ratio: 1 block {ratio_1:.2}, 128 blocks {ratio_128:.2}"
        ),
    });

    // --- Fig. 11 ------------------------------------------------------
    let fig11a = panel("fig11a");
    let cas = fig11a.series_by_label("int").expect("int");
    out.push(Check {
        id: "fig11",
        claim: "atomicCAS (no aggregation) constant only to 4 threads at 1 block; integers only",
        passed: cas.y_at(1.0) == cas.y_at(4.0)
            && cas.y_at(8.0).expect("8") < cas.y_at(4.0).expect("4")
            && fig11a.series.len() == 2,
        detail: format!(
            "flat at {:.2e} to 4t, {:.2e} at 8t",
            cas.y_at(4.0).expect("4"),
            cas.y_at(8.0).expect("8")
        ),
    });

    // --- Fig. 13 ------------------------------------------------------
    let exch = panel("fig13a").series_by_label("int").expect("int");
    out.push(Check {
        id: "fig13",
        claim: "atomicExch follows the atomicCAS trend",
        passed: exch.y_at(1.0) == exch.y_at(4.0)
            && exch.y_at(8.0).expect("8") < exch.y_at(4.0).expect("4"),
        detail: format!("knee after 4 threads at {:.2e}", exch.y_at(4.0).expect("4")),
    });

    // --- Fig. 14 ------------------------------------------------------
    let fig14 = ["fig14a", "fig14b", "fig14c", "fig14d"].map(panel);
    let fence_flat = fig14.iter().all(|fig| {
        fig.series.iter().all(|s| {
            let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
            syncperf_core::stats::relative_spread(&ys) < 0.05
        })
    });
    out.push(Check {
        id: "fig14",
        claim: "__threadfence cost constant across thread count, block count, stride, and type",
        passed: fence_flat,
        detail: format!("all {} panels flat within 5%", fig14.len()),
    });

    // --- §V-B3 --------------------------------------------------------
    let scopes = panel("exp_fence_scopes");
    let block_free = scopes
        .series_by_label("block")
        .expect("block")
        .points
        .iter()
        .zip(&scopes.series_by_label("device").expect("device").points)
        .all(|(&(_, b), &(_, d))| b < 0.1 * d);
    out.push(Check {
        id: "sVB3",
        claim: "__threadfence_block ≈ free; __threadfence_system > device and erratic",
        passed: block_free
            && scopes.series_by_label("system").expect("system").y_min()
                > scopes.series_by_label("device").expect("device").y_max() * 0.9,
        detail: format!(
            "block {:.0} cy, device {:.0} cy, system {:.0} cy (per fence, median panel)",
            scopes.series_by_label("block").expect("block").y_max(),
            scopes.series_by_label("device").expect("device").y_max(),
            scopes.series_by_label("system").expect("system").y_max()
        ),
    });

    // --- Fig. 15 ------------------------------------------------------
    let fig15a = panel("fig15a");
    let r = y(fig15a, "float", 32.0) / y(fig15a, "double", 32.0);
    out.push(Check {
        id: "fig15",
        claim: "64-bit shuffles cost two 32-bit instructions and drop at half the thread count",
        passed: (r - 2.0).abs() < 0.1
            && fig15a.series_by_label("float").expect("f32").y_at(128.0)
                == fig15a.series_by_label("float").expect("f32").y_at(256.0)
            && y(fig15a, "double", 256.0) < y(fig15a, "double", 128.0),
        detail: format!("32-bit/64-bit ratio {r:.2}"),
    });

    // --- §V-B4 --------------------------------------------------------
    let vote = panel("exp_vote");
    let sw = vote.series_by_label("__syncwarp").expect("syncwarp");
    let votes_ok = ["__ballot_sync", "__all_sync", "__any_sync"]
        .iter()
        .all(|label| {
            vote.series_by_label(label)
                .expect("vote")
                .points
                .iter()
                .all(|&(x, v)| {
                    let s = sw.y_at(x).expect("syncwarp point");
                    v < s && v > 0.5 * s
                })
        });
    out.push(Check {
        id: "sVB4",
        claim: "warp votes behave like __syncwarp at slightly lower throughput",
        passed: votes_ok,
        detail: format!(
            "vote/syncwarp ratio {:.2} in the flat region",
            vote.series_by_label("__any_sync")
                .expect("any")
                .y_at(32.0)
                .expect("32")
                / sw.y_at(32.0).expect("32")
        ),
    });

    // --- Listing 1 ------------------------------------------------------
    let [r1, r2, r3, r4, r5]: [f64; 5] = std::array::from_fn(|i| listing1[i].total_cycles);
    out.push(Check {
        id: "listing1",
        claim: "reduction ordering R3 < R4 < R1 < R2, R5 fastest, R5/R2 speedup near the paper's ~2.5x",
        passed: r3 < r4
            && r4 < r1
            && r1 < r2
            && r5 < r3
            && (2.0..5.0).contains(&(r2 / r5)),
        detail: format!(
            "R1 {:.0}, R2 {:.0}, R3 {:.0}, R4 {:.0}, R5 {:.0} cycles; R5 speedup {:.2}x",
            r1,
            r2,
            r3,
            r4,
            r5,
            r2 / r5
        ),
    });

    out
}

/// Renders checks as a fixed-width report.
#[must_use]
pub fn render(checks: &[Check]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let passed = checks.iter().filter(|c| c.passed).count();
    let _ = writeln!(
        out,
        "verifying {} paper claims against regenerated data\n",
        checks.len()
    );
    for c in checks {
        let _ = writeln!(
            out,
            "[{}] {:<9} {}",
            if c.passed { "PASS" } else { "FAIL" },
            c.id,
            c.claim
        );
        let _ = writeln!(out, "                 {}", c.detail);
    }
    let _ = writeln!(out, "\n{passed}/{} claims verified", checks.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    use syncperf_core::SYSTEM3;

    use crate::tables;

    /// One flagless regeneration, shared by the tests that check it.
    fn sweep() -> &'static (Vec<FigureData>, Vec<ReductionReport>) {
        static SWEEP: OnceLock<(Vec<FigureData>, Vec<ReductionReport>)> = OnceLock::new();
        SWEEP.get_or_init(|| {
            (
                crate::all_figures().unwrap(),
                tables::listing1(&SYSTEM3).unwrap(),
            )
        })
    }

    #[test]
    fn all_claims_verify() {
        let (figs, listing1) = sweep();
        let checks = check(figs, listing1);
        assert_eq!(checks.len(), 19);
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.passed).collect();
        assert!(failed.is_empty(), "failing claims: {failed:#?}");
    }

    #[test]
    fn checks_read_the_figures_they_are_handed() {
        let (figs, listing1) = sweep();
        let honest = check(figs, listing1);

        // Lift the critical-section curve above every atomic-update point.
        let mut doctored = figs.clone();
        let atomic_max = doctored
            .iter()
            .find(|f| f.id == "fig02")
            .and_then(|f| f.series_by_label("int"))
            .unwrap()
            .y_max();
        let fig05 = doctored.iter_mut().find(|f| f.id == "fig05").unwrap();
        let int = fig05.series.iter_mut().find(|s| s.label == "int").unwrap();
        for p in &mut int.points {
            p.1 = 2.0 * atomic_max;
        }

        let after = check(&doctored, listing1);
        assert_eq!(after.len(), honest.len());
        for (h, d) in honest.iter().zip(&after) {
            if d.id == "fig05" {
                assert!(h.passed && !d.passed, "fig05 ignored its panel: {d:?}");
            } else {
                assert_eq!(h, d, "{} changed with only fig05 doctored", d.id);
            }
        }
    }

    #[test]
    fn render_contains_verdicts() {
        let checks = vec![
            Check {
                id: "x",
                claim: "c",
                passed: true,
                detail: "d".into(),
            },
            Check {
                id: "y",
                claim: "c2",
                passed: false,
                detail: "d2".into(),
            },
        ];
        let r = render(&checks);
        assert!(r.contains("[PASS]"));
        assert!(r.contains("[FAIL]"));
        assert!(r.contains("1/2 claims verified"));
    }
}
