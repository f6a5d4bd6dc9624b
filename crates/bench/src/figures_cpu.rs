//! Regeneration of the paper's OpenMP figures (Figs. 1-6, §V-A2's
//! no-figure findings) on the CPU simulator.

use syncperf_core::{kernel, Affinity, DType, FigureData, Protocol, Result, SYSTEM2, SYSTEM3};
use syncperf_sched::JobSpec;

use crate::common::{cpu_dtype_series, cpu_series, measure_jobs, paper_loops};

/// Fig. 1 — throughput of the OpenMP barrier (System 3, spread).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig01_barrier() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "fig01",
        "Throughput of OpenMP Barrier (System 3, spread)",
        "threads",
        "barriers/s/thread",
    );
    fig.push_series(cpu_series(
        &SYSTEM3,
        Affinity::Spread,
        "barrier",
        &kernel::omp_barrier(),
    )?);
    fig.annotate(format!(
        "dashed line at {} threads: hyperthreading to the right",
        SYSTEM3.cpu.total_cores()
    ));
    Ok(vec![fig])
}

/// Fig. 2 — OpenMP atomic update on a single shared variable
/// (System 3, four data types).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig02_atomic_update_scalar() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "fig02",
        "Throughput of OpenMP atomic update on a single shared variable (System 3)",
        "threads",
        "ops/s/thread",
    );
    for s in cpu_dtype_series(&SYSTEM3, Affinity::SystemChoice, &DType::ALL, |dt| {
        kernel::omp_atomic_update_scalar(dt)
    })? {
        fig.push_series(s);
    }
    Ok(vec![fig])
}

/// Fig. 3 — OpenMP atomic update on private elements of a shared array
/// at strides 1, 4, 8, 16 (System 3).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig03_atomic_update_array() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, stride) in [('a', 1u32), ('b', 4), ('c', 8), ('d', 16)] {
        let mut fig = FigureData::new(
            format!("fig03{panel}"),
            format!("OpenMP atomic update on private array elements, stride {stride} (System 3)"),
            "threads",
            "ops/s/thread",
        );
        for s in cpu_dtype_series(&SYSTEM3, Affinity::SystemChoice, &DType::ALL, |dt| {
            kernel::omp_atomic_update_array(dt, stride)
        })? {
            fig.push_series(s);
        }
        match stride {
            1 => fig.annotate("maximum false sharing: 4-byte types worst (16 words/line)"),
            8 => fig.annotate("8-byte types now conflict-free (stride x 8 B = 64 B line)"),
            16 => fig.annotate("all types conflict-free; integer > floating-point"),
            _ => {}
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 4 — OpenMP atomic write on Systems 3 and 2 (the AMD system
/// shows notable jitter).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig04_atomic_write() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, sys) in [('a', &SYSTEM3), ('b', &SYSTEM2)] {
        let mut fig = FigureData::new(
            format!("fig04{panel}"),
            format!("OpenMP atomic write ({sys})"),
            "threads",
            "ops/s/thread",
        );
        for s in cpu_dtype_series(
            sys,
            Affinity::SystemChoice,
            &DType::ALL,
            kernel::omp_atomic_write,
        )? {
            fig.push_series(s);
        }
        if sys.id == 3 {
            fig.annotate("jitter attributed to architectural qualities of the AMD chip");
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 5 — an addition protected by an OpenMP critical section
/// (System 3, spread).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig05_critical() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "fig05",
        "Throughput of an addition protected by an OpenMP critical section (System 3, spread)",
        "threads",
        "ops/s/thread",
    );
    for s in cpu_dtype_series(
        &SYSTEM3,
        Affinity::Spread,
        &DType::ALL,
        kernel::omp_critical_add,
    )? {
        fig.push_series(s);
    }
    fig.annotate("same trend as Fig. 2 but dropping faster and lower");
    Ok(vec![fig])
}

/// Fig. 6 — OpenMP flush at strides 1, 4, 8, 16 (System 2, close).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig06_flush() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, stride) in [('a', 1u32), ('b', 4), ('c', 8), ('d', 16)] {
        let mut fig = FigureData::new(
            format!("fig06{panel}"),
            format!("OpenMP flush, stride {stride} (System 2, close)"),
            "threads",
            "flushes/s/thread",
        );
        for s in cpu_dtype_series(&SYSTEM2, Affinity::Close, &DType::ALL, |dt| {
            kernel::omp_flush(dt, stride)
        })? {
            fig.push_series(s);
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// §V-A2 (no figure) — atomic read is free; atomic capture behaves like
/// atomic update. Returns a two-series figure: capture/update
/// throughput ratio and the atomic-read negligibility flag (1 = free).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_atomic_read_capture() -> Result<Vec<FigureData>> {
    let threads = [2u32, 4, 8, 16, 32];
    let jobs = threads
        .iter()
        .flat_map(|&t| {
            [
                kernel::omp_atomic_update_scalar(DType::I32),
                kernel::omp_atomic_capture_scalar(DType::I32),
                kernel::omp_atomic_read(DType::I32),
            ]
            .map(|k| JobSpec::cpu_sim(&SYSTEM3, k, paper_loops(t), Protocol::PAPER))
        })
        .collect();
    let ms = measure_jobs(jobs)?;
    let mut ratio_points = Vec::new();
    let mut free_points = Vec::new();
    for (i, &t) in threads.iter().enumerate() {
        let (upd, cap, read) = (&ms[3 * i], &ms[3 * i + 1], &ms[3 * i + 2]);
        ratio_points.push((f64::from(t), cap.runtime_seconds() / upd.runtime_seconds()));
        free_points.push((f64::from(t), if read.is_negligible() { 1.0 } else { 0.0 }));
    }
    let mut fig = FigureData::new(
        "exp_read_capture",
        "Atomic capture ≈ atomic update; atomic read is free (System 3, §V-A2)",
        "threads",
        "ratio / flag",
    );
    fig.push_series(syncperf_core::Series::new(
        "capture/update runtime ratio",
        ratio_points,
    ));
    fig.push_series(syncperf_core::Series::new(
        "atomic read negligible (1=yes)",
        free_points,
    ));
    Ok(vec![fig])
}

/// Extension (Section IV's affinity parameter, beyond the paper's
/// figures) — spread vs close placement on the two-socket System 1:
/// "close" keeps small teams on one socket, avoiding cross-socket line
/// transfers; "spread" pays them from 2 threads on.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_affinity() -> Result<Vec<FigureData>> {
    use syncperf_core::SYSTEM1;
    let mut fig = FigureData::new(
        "exp_affinity",
        "OpenMP atomic update on a shared int: spread vs close (System 1, 2 sockets)",
        "threads",
        "ops/s/thread",
    );
    for aff in [Affinity::Close, Affinity::Spread] {
        let series = cpu_series(
            &SYSTEM1,
            aff,
            aff.label(),
            &kernel::omp_atomic_update_scalar(DType::I32),
        )?;
        fig.push_series(series);
    }
    fig.annotate("close wins while the team fits one socket (<= 10 cores on System 1)");
    Ok(vec![fig])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_shape_decreases_then_plateaus() {
        let fig = &fig01_barrier().unwrap()[0];
        let s = &fig.series[0];
        let y2 = s.y_at(2.0).unwrap();
        let y8 = s.y_at(8.0).unwrap();
        let y16 = s.y_at(16.0).unwrap();
        let y32 = s.y_at(32.0).unwrap();
        assert!(y2 > 1.5 * y8, "initial decrease");
        assert!(y16 / y32 < 1.6, "largely stable beyond ~8 threads");
        assert!(y8 / y32 < 2.0, "plateau");
    }

    #[test]
    fn fig02_int_above_float() {
        let fig = &fig02_atomic_update_scalar().unwrap()[0];
        let int = fig.series_by_label("int").unwrap();
        let dbl = fig.series_by_label("double").unwrap();
        for &(x, y) in &int.points {
            let yd = dbl.y_at(x).unwrap();
            assert!(y > yd, "int must beat double at {x} threads");
        }
    }

    #[test]
    fn fig03_padding_jump_at_the_right_strides() {
        let figs = fig03_atomic_update_array().unwrap();
        let at = |panel: usize, label: &str, x: f64| {
            figs[panel].series_by_label(label).unwrap().y_at(x).unwrap()
        };
        // 64-bit types jump drastically at stride 8 (Fig. 3c).
        assert!(at(2, "double", 16.0) > 3.0 * at(1, "double", 16.0));
        // 32-bit types jump at stride 16 (Fig. 3d).
        assert!(at(3, "int", 16.0) > 3.0 * at(2, "int", 16.0));
        // At stride 16 everything is conflict-free and integers win.
        assert!(at(3, "int", 16.0) > at(3, "double", 16.0));
    }

    #[test]
    fn fig04_type_blind_and_amd_noisier() {
        let figs = fig04_atomic_write().unwrap();
        let s3 = &figs[0];
        let s2 = &figs[1];
        // Word size has no observable effect: all four series within a
        // band dominated by jitter.
        let at32: Vec<f64> = s2.series.iter().map(|s| s.y_at(32.0).unwrap()).collect();
        let spread = syncperf_core::stats::relative_spread(&at32);
        assert!(
            spread < 0.15,
            "types within noise on the Intel system: {spread}"
        );
        // The AMD panel wobbles more.
        let wobble = |fig: &FigureData| {
            let s = fig.series_by_label("int").unwrap();
            let tail: Vec<f64> = s
                .points
                .iter()
                .filter(|(x, _)| *x >= 20.0)
                .map(|(_, y)| *y)
                .collect();
            syncperf_core::stats::relative_spread(&tail)
        };
        assert!(
            wobble(s3) > wobble(s2),
            "System 3 shows the jitter (Fig. 4a)"
        );
    }

    #[test]
    fn fig05_critical_below_fig02_atomic() {
        let critical = &fig05_critical().unwrap()[0];
        let atomic = &fig02_atomic_update_scalar().unwrap()[0];
        let c = critical.series_by_label("int").unwrap();
        let a = atomic.series_by_label("int").unwrap();
        for &(x, y) in &c.points {
            assert!(y < a.y_at(x).unwrap(), "critical slower at {x} threads");
        }
    }

    #[test]
    fn fig06_padded_strides_much_faster() {
        let figs = fig06_flush().unwrap();
        // Stride 16 (panel d) ~10x the stride-1 (panel a) throughput:
        // the paper's x10^7 vs x10^8 scales.
        let a = figs[0].series_by_label("int").unwrap().y_at(32.0).unwrap();
        let d = figs[3].series_by_label("int").unwrap().y_at(32.0).unwrap();
        assert!(d > 4.0 * a, "padded flush {d:.3e} vs false-shared {a:.3e}");
    }

    #[test]
    fn read_capture_findings_hold() {
        let fig = &exp_atomic_read_capture().unwrap()[0];
        let ratio = fig.series_by_label("capture/update runtime ratio").unwrap();
        for &(_, r) in &ratio.points {
            assert!((r - 1.0).abs() < 0.2, "capture ≈ update, got ratio {r}");
        }
        let free = fig
            .series_by_label("atomic read negligible (1=yes)")
            .unwrap();
        assert!(
            free.points.iter().all(|&(_, f)| f == 1.0),
            "atomic read must be free"
        );
    }
}
