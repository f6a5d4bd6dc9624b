//! Regeneration of the paper's CUDA figures (Figs. 7-15, §V-B3/4's
//! no-figure findings) on the GPU simulator.

use crate::common::{gpu_dtype_series, gpu_jobs, gpu_series, measure_jobs, paper_loops};
use syncperf_core::{
    kernel, DType, FigureData, Protocol, Result, Scope, Series, ShflVariant, VoteKind, SYSTEM1,
    SYSTEM3,
};
use syncperf_sched::JobSpec;

/// Fig. 7 — `__syncthreads()` throughput (identical at any block
/// count).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig07_syncthreads() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "fig07",
        "__syncthreads() throughput at any block count (System 3)",
        "threads per block",
        "syncs/s/thread",
    )
    .with_log_x();
    for blocks in SYSTEM3.gpu.block_count_sweep() {
        fig.push_series(gpu_series(
            &SYSTEM3,
            blocks,
            &format!("{blocks} blocks"),
            &kernel::cuda_syncthreads(),
        )?);
    }
    fig.annotate("all block counts overlap exactly: the barrier is block-local");
    Ok(vec![fig])
}

/// Fig. 8 — `__syncwarp()` on Systems 3 and 1 at full and double block
/// configurations.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig08_syncwarp() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, sys) in [('a', &SYSTEM3), ('b', &SYSTEM1)] {
        let mut fig = FigureData::new(
            format!("fig08{panel}"),
            format!("__syncwarp() throughput ({})", sys.gpu.name),
            "threads per block",
            "syncs/s/thread",
        )
        .with_log_x();
        for (label, blocks) in [
            ("full (1 block/SM)", sys.gpu.sms),
            ("double (2 blocks/SM)", sys.gpu.sms * 2),
        ] {
            fig.push_series(gpu_series(sys, blocks, label, &kernel::cuda_syncwarp())?);
        }
        fig.annotate(format!(
            "full speed up to {} threads/SM on this device",
            syncperf_gpu_sim::GpuModel::for_spec(&sys.gpu).full_speed_threads_per_sm
        ));
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 9 — `atomicAdd()` on one shared variable at 2 and 64 blocks.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig09_atomicadd_scalar() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, blocks) in [('a', 2u32), ('b', 64)] {
        let mut fig = FigureData::new(
            format!("fig09{panel}"),
            format!("atomicAdd() on 1 shared variable, {blocks} blocks (System 3)"),
            "threads per block",
            "ops/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(
            &SYSTEM3,
            blocks,
            &DType::ALL,
            kernel::cuda_atomic_add_scalar,
        )? {
            fig.push_series(s);
        }
        if blocks == 2 {
            fig.annotate("warp aggregation keeps throughput constant up to 64 threads");
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 10 — `atomicAdd()` on private array elements at block counts
/// 1/128 and strides 1/32.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig10_atomicadd_array() -> Result<Vec<FigureData>> {
    array_atomic_fig(
        "fig10",
        "atomicAdd()",
        &DType::ALL,
        kernel::cuda_atomic_add_array,
    )
}

/// Fig. 11 — `atomicCAS()` on one shared variable at 1 and 128 blocks
/// (integer types only).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig11_atomiccas_scalar() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, blocks) in [('a', 1u32), ('b', 128)] {
        let mut fig = FigureData::new(
            format!("fig11{panel}"),
            format!("atomicCAS() on 1 shared variable, {blocks} blocks (System 3)"),
            "threads per block",
            "ops/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(
            &SYSTEM3,
            blocks,
            &DType::CAS_SUPPORTED,
            kernel::cuda_atomic_cas_scalar,
        )? {
            fig.push_series(s);
        }
        if blocks == 1 {
            fig.annotate("constant throughput up to 4 threads; no warp aggregation for CAS");
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 12 — `atomicCAS()` on private array elements.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig12_atomiccas_array() -> Result<Vec<FigureData>> {
    array_atomic_fig(
        "fig12",
        "atomicCAS()",
        &DType::CAS_SUPPORTED,
        kernel::cuda_atomic_cas_array,
    )
}

/// Fig. 13 — `atomicExch()` on one shared variable at 1 and 128 blocks.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig13_atomicexch() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, blocks) in [('a', 1u32), ('b', 128)] {
        let mut fig = FigureData::new(
            format!("fig13{panel}"),
            format!("atomicExch() on 1 shared variable, {blocks} blocks (System 3)"),
            "threads per block",
            "ops/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(
            &SYSTEM3,
            blocks,
            &DType::CAS_SUPPORTED,
            kernel::cuda_atomic_exch,
        )? {
            fig.push_series(s);
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 14 — `__threadfence()` at block counts 1/128 and strides 1/32.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig14_threadfence() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, blocks, stride) in [
        ('a', 1u32, 1u32),
        ('b', 1, 32),
        ('c', 128, 1),
        ('d', 128, 32),
    ] {
        let mut fig = FigureData::new(
            format!("fig14{panel}"),
            format!("__threadfence(), {blocks} blocks, stride {stride} (System 3)"),
            "threads per block",
            "fences/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(&SYSTEM3, blocks, &DType::ALL, |dt| {
            kernel::cuda_threadfence(Scope::Device, dt, stride)
        })? {
            fig.push_series(s);
        }
        fig.annotate("fairly constant regardless of thread count, block count, or stride");
        figs.push(fig);
    }
    Ok(figs)
}

/// Fig. 15 — `__shfl_sync()` at full and double block configurations.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig15_shfl() -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, label, blocks) in [
        ('a', "full (1 block/SM)", SYSTEM3.gpu.sms),
        ('b', "double (2 blocks/SM)", SYSTEM3.gpu.sms * 2),
    ] {
        let mut fig = FigureData::new(
            format!("fig15{panel}"),
            format!("__shfl_sync() throughput, {label} (System 3)"),
            "threads per block",
            "shuffles/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(&SYSTEM3, blocks, &DType::ALL, |dt| {
            kernel::cuda_shfl(dt, ShflVariant::Idx)
        })? {
            fig.push_series(s);
        }
        fig.annotate("64-bit types drop at half the thread count of 32-bit types");
        figs.push(fig);
    }
    Ok(figs)
}

/// §V-B3 (no figure) — fence scopes: `__threadfence_block()` is nearly
/// free, `__threadfence_system()` behaves like the device fence but is
/// erratic.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_fence_scopes() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "exp_fence_scopes",
        "Thread-fence scopes: per-fence cost in cycles (System 3, 128 blocks)",
        "threads per block",
        "cycles per fence",
    )
    .with_log_x();
    let threads = SYSTEM3.gpu.thread_count_sweep();
    let scopes = [
        ("block", Scope::Block),
        ("device", Scope::Device),
        ("system", Scope::System),
    ];
    let jobs = scopes
        .iter()
        .flat_map(|&(_, scope)| {
            let fence = kernel::cuda_threadfence(scope, DType::I32, 1);
            gpu_jobs(&SYSTEM3, None, 128, &fence)
                .into_iter()
                .map(|(_, job)| job)
        })
        .collect();
    let ms = measure_jobs(jobs)?;
    for (si, (label, _)) in scopes.iter().enumerate() {
        let points = threads
            .iter()
            .enumerate()
            .map(|(ti, &t)| (f64::from(t), ms[si * threads.len() + ti].per_op.max(0.0)))
            .collect();
        fig.push_series(Series::new(*label, points));
    }
    fig.annotate("block ≈ 0; system > device and erratic (PCIe)");
    Ok(vec![fig])
}

/// §V-B4 (no figure) — warp votes behave like `__syncwarp()` at
/// slightly lower throughput.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_vote() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "exp_vote",
        "Warp vote functions vs __syncwarp() (System 3, full blocks)",
        "threads per block",
        "ops/s/thread",
    )
    .with_log_x();
    let blocks = SYSTEM3.gpu.sms;
    fig.push_series(gpu_series(
        &SYSTEM3,
        blocks,
        "__syncwarp",
        &kernel::cuda_syncwarp(),
    )?);
    for (label, kind) in [
        ("__ballot_sync", VoteKind::Ballot),
        ("__all_sync", VoteKind::All),
        ("__any_sync", VoteKind::Any),
    ] {
        fig.push_series(gpu_series(
            &SYSTEM3,
            blocks,
            label,
            &kernel::cuda_vote(kind),
        )?);
    }
    fig.annotate("votes track __syncwarp at slightly lower absolute throughput");
    Ok(vec![fig])
}

fn array_atomic_fig(
    id: &str,
    title_op: &str,
    dtypes: &[DType],
    make: impl Fn(DType, u32) -> syncperf_core::GpuKernel + Copy,
) -> Result<Vec<FigureData>> {
    let mut figs = Vec::new();
    for (panel, blocks, stride) in [
        ('a', 1u32, 1u32),
        ('b', 1, 32),
        ('c', 128, 1),
        ('d', 128, 32),
    ] {
        let mut fig = FigureData::new(
            format!("{id}{panel}"),
            format!(
                "{title_op} on private array elements, {blocks} blocks, stride {stride} (System 3)"
            ),
            "threads per block",
            "ops/s/thread",
        )
        .with_log_x();
        for s in gpu_dtype_series(&SYSTEM3, blocks, dtypes, |dt| make(dt, stride))? {
            fig.push_series(s);
        }
        figs.push(fig);
    }
    Ok(figs)
}

/// Extension (§II-B2 lists the wider atomic family) — throughput of
/// `atomicAdd/Sub/Min/Max/And/Or/Xor` on one shared int variable: all
/// commutative RMW ops share the add datapath and aggregate per warp.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_atomic_ops() -> Result<Vec<FigureData>> {
    use syncperf_core::RmwOp;
    let mut fig = FigureData::new(
        "exp_atomic_ops",
        "The wider atomic-RMW family on one shared int (System 3, 2 blocks)",
        "threads per block",
        "ops/s/thread",
    )
    .with_log_x();
    fig.push_series(gpu_series(
        &SYSTEM3,
        2,
        "atomicAdd",
        &kernel::cuda_atomic_add_scalar(DType::I32),
    )?);
    for op in RmwOp::ALL {
        fig.push_series(gpu_series(
            &SYSTEM3,
            2,
            op.cuda_name(),
            &kernel::cuda_atomic_rmw_scalar(op, DType::I32),
        )?);
    }
    fig.annotate("all commutative RMW atomics share the add datapath (and warp aggregation)");
    Ok(vec![fig])
}

/// Extension (reference [10], the paper's methodological ancestor) —
/// the cost of warp divergence: marginal cost per serialized path is
/// constant.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn exp_divergence() -> Result<Vec<FigureData>> {
    let mut fig = FigureData::new(
        "exp_divergence",
        "Cost of warp divergence vs number of serialized paths (System 3)",
        "divergent paths",
        "cycles per divergent branch",
    );
    let paths = [1u32, 2, 4, 8, 16, 32];
    let jobs = paths
        .iter()
        .map(|&p| {
            JobSpec::gpu_sim(
                &SYSTEM3,
                kernel::cuda_divergence(DType::I32, p),
                paper_loops(32).with_blocks(1),
                Protocol::PAPER,
            )
        })
        .collect();
    let ms = measure_jobs(jobs)?;
    let points = paths
        .iter()
        .zip(&ms)
        .map(|(&p, m)| (f64::from(p), m.per_op.max(0.0)))
        .collect();
    fig.push_series(Series::new("extra cycles over uniform execution", points));
    fig.annotate("linear in paths: the per-branch divergence cost is constant (ref. [10])");
    Ok(vec![fig])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_flat_through_warp_then_falling_and_block_invariant() {
        let fig = &fig07_syncthreads().unwrap()[0];
        let first = &fig.series[0];
        assert_eq!(
            first.y_at(1.0),
            first.y_at(32.0),
            "constant through the warp size"
        );
        assert!(first.y_at(64.0).unwrap() < first.y_at(32.0).unwrap());
        assert!(first.y_at(1024.0).unwrap() < first.y_at(64.0).unwrap());
        for s in &fig.series[1..] {
            assert_eq!(s.points, first.points, "identical at all block counts");
        }
    }

    #[test]
    fn fig08_double_config_drops_one_step_earlier() {
        let figs = fig08_syncwarp().unwrap();
        let s3 = &figs[0];
        let full = s3.series_by_label("full (1 block/SM)").unwrap();
        let double = s3.series_by_label("double (2 blocks/SM)").unwrap();
        // 4090: full-speed to 256 threads/SM → full drops at 512,
        // double (2 blocks/SM) drops at 256.
        assert_eq!(full.y_at(128.0), full.y_at(256.0));
        assert!(full.y_at(512.0).unwrap() < full.y_at(256.0).unwrap());
        assert!(double.y_at(256.0).unwrap() < double.y_at(128.0).unwrap());
        // System 1 (2070 SUPER) holds to 512 threads/SM.
        let s1 = &figs[1];
        let full1 = s1.series_by_label("full (1 block/SM)").unwrap();
        assert_eq!(full1.y_at(256.0), full1.y_at(512.0));
        assert!(full1.y_at(1024.0).unwrap() < full1.y_at(512.0).unwrap());
    }

    #[test]
    fn fig09_constant_region_and_dtype_gap() {
        let figs = fig09_atomicadd_scalar().unwrap();
        let two_blocks = &figs[0];
        let int = two_blocks.series_by_label("int").unwrap();
        assert_eq!(
            int.y_at(32.0),
            int.y_at(64.0),
            "constant up to 64 threads at 2 blocks"
        );
        assert!(int.y_at(128.0).unwrap() < int.y_at(64.0).unwrap());
        // Gap between int and the other three types at high load.
        for other in ["ull", "float", "double"] {
            let s = two_blocks.series_by_label(other).unwrap();
            assert!(
                int.y_at(1024.0).unwrap() > s.y_at(1024.0).unwrap(),
                "{other}"
            );
        }
        // ull beats the floating-point types.
        let ull = two_blocks.series_by_label("ull").unwrap();
        let f32s = two_blocks.series_by_label("float").unwrap();
        assert!(ull.y_at(1024.0).unwrap() > f32s.y_at(1024.0).unwrap());
    }

    #[test]
    fn fig10_block_count_and_stride_effects() {
        let figs = fig10_atomicadd_array().unwrap();
        let y = |panel: usize, x: f64| figs[panel].series_by_label("int").unwrap().y_at(x).unwrap();
        // More blocks → lower per-thread throughput (L2 sharing).
        assert!(
            y(0, 256.0) > y(2, 256.0),
            "1 block beats 128 blocks at stride 1"
        );
        // Stride matters far more at 128 blocks than at 1 block.
        let ratio_1 = y(0, 1024.0) / y(1, 1024.0);
        let ratio_128 = y(2, 1024.0) / y(3, 1024.0);
        assert!(ratio_128 > ratio_1);
    }

    #[test]
    fn fig11_cas_constant_to_four_threads_at_one_block() {
        let figs = fig11_atomiccas_scalar().unwrap();
        let int = figs[0].series_by_label("int").unwrap();
        assert_eq!(int.y_at(1.0), int.y_at(4.0));
        assert!(int.y_at(8.0).unwrap() < int.y_at(4.0).unwrap());
        // Only integer types appear.
        assert_eq!(figs[0].series.len(), 2);
    }

    #[test]
    fn fig13_exch_tracks_cas_shape() {
        let exch = fig13_atomicexch().unwrap();
        let cas = fig11_atomiccas_scalar().unwrap();
        let e = exch[0].series_by_label("int").unwrap();
        let c = cas[0].series_by_label("int").unwrap();
        // Same knee location (both drop beyond 4 threads at 1 block).
        assert_eq!(e.y_at(1.0), e.y_at(4.0));
        assert!(e.y_at(8.0).unwrap() < e.y_at(4.0).unwrap());
        // And similar magnitude.
        let ratio = e.y_at(1024.0).unwrap() / c.y_at(1024.0).unwrap();
        assert!((0.5..2.0).contains(&ratio));
    }

    #[test]
    fn fig14_fence_constant_everywhere() {
        for fig in fig14_threadfence().unwrap() {
            for s in &fig.series {
                let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
                let spread = syncperf_core::stats::relative_spread(&ys);
                assert!(
                    spread < 0.05,
                    "{}/{}: fence must be flat, spread {spread}",
                    fig.id,
                    s.label
                );
            }
        }
    }

    #[test]
    fn fig15_64bit_half_throughput_and_earlier_drop() {
        let figs = fig15_shfl().unwrap();
        let full = &figs[0];
        let f32s = full.series_by_label("float").unwrap();
        let f64s = full.series_by_label("double").unwrap();
        // 64-bit = 2 instructions → half throughput in the flat region.
        let r = f32s.y_at(32.0).unwrap() / f64s.y_at(32.0).unwrap();
        assert!((r - 2.0).abs() < 0.05, "expected 2x, got {r}");
        // 64-bit drops at half the thread count: at 256 threads the
        // double already slowed while float is still flat.
        assert_eq!(f32s.y_at(128.0), f32s.y_at(256.0));
        assert!(f64s.y_at(256.0).unwrap() < f64s.y_at(128.0).unwrap());
    }

    #[test]
    fn fence_scope_findings() {
        let fig = &exp_fence_scopes().unwrap()[0];
        let block = fig.series_by_label("block").unwrap();
        let device = fig.series_by_label("device").unwrap();
        let system = fig.series_by_label("system").unwrap();
        for &(x, y) in &device.points {
            assert!(
                block.y_at(x).unwrap() < 0.1 * y,
                "block fence ≈ free at {x}"
            );
            assert!(system.y_at(x).unwrap() > y, "system fence > device at {x}");
        }
    }

    #[test]
    fn votes_slightly_below_syncwarp() {
        let fig = &exp_vote().unwrap()[0];
        let sw = fig.series_by_label("__syncwarp").unwrap();
        for label in ["__ballot_sync", "__all_sync", "__any_sync"] {
            let v = fig.series_by_label(label).unwrap();
            for &(x, y) in &v.points {
                let ysw = sw.y_at(x).unwrap();
                assert!(y < ysw && y > 0.5 * ysw, "{label} at {x}");
            }
        }
    }
}
