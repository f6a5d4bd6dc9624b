//! Whole-program simulation of the paper's Listing 1: five ways to
//! implement a maximum reduction in CUDA (Section II-C).
//!
//! Unlike the microbenchmark engine — which measures one primitive in
//! steady state — a whole reduction is a one-shot program whose cost
//! decomposes into:
//!
//! 1. a **streaming phase** (reading the input, bandwidth-bound),
//! 2. **per-wave overheads** (lead-in instructions, barriers, latency),
//! 3. **atomic serialization** — all same-address atomics drain through
//!    one atomic unit (`count × issue interval`); block-scoped atomics
//!    drain through per-SM units in parallel.
//!
//! This decomposition reproduces the paper's non-intuitive ordering:
//! R3 < R4 < R1 < R2 (runtime), with the persistent-thread R5 fastest.

use syncperf_core::{GpuSpec, Result, Scope, SyncPerfError};

use crate::config::GpuModel;
use crate::cost;
use crate::occupancy::Occupancy;

/// The five reduction implementations of Listing 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionStrategy {
    /// Reduction 1 (cc ≥ 1.3): every thread `atomicMax(&result, v)`.
    GlobalAtomic,
    /// Reduction 2 (cc ≥ 3.0): explicit `__shfl_xor_sync` tree, then
    /// one global atomic per warp.
    ShflThenGlobalAtomic,
    /// Reduction 3 (cc ≥ 6.0): block-scoped atomics into shared memory,
    /// then one global atomic per block.
    BlockAtomicThenGlobal,
    /// Reduction 4 (cc ≥ 8.0): `__reduce_max_sync`, block atomic per
    /// warp, then one global atomic per block.
    WarpReduceThenBlock,
    /// Reduction 5: persistent threads — a grid-stride loop computes
    /// thread-local results first, then Reduction 3's tail.
    PersistentThreads,
}

impl ReductionStrategy {
    /// All five strategies in Listing 1 order.
    pub const ALL: [ReductionStrategy; 5] = [
        ReductionStrategy::GlobalAtomic,
        ReductionStrategy::ShflThenGlobalAtomic,
        ReductionStrategy::BlockAtomicThenGlobal,
        ReductionStrategy::WarpReduceThenBlock,
        ReductionStrategy::PersistentThreads,
    ];

    /// Minimum compute capability (×10) required.
    #[must_use]
    pub fn min_cc(self) -> u32 {
        match self {
            ReductionStrategy::GlobalAtomic => 13,
            ReductionStrategy::ShflThenGlobalAtomic => 30,
            ReductionStrategy::BlockAtomicThenGlobal | ReductionStrategy::PersistentThreads => 60,
            ReductionStrategy::WarpReduceThenBlock => 80,
        }
    }

    /// Paper-facing label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReductionStrategy::GlobalAtomic => "R1: global atomics",
            ReductionStrategy::ShflThenGlobalAtomic => "R2: shfl + global atomic/warp",
            ReductionStrategy::BlockAtomicThenGlobal => "R3: block atomics + global/block",
            ReductionStrategy::WarpReduceThenBlock => "R4: reduce_max_sync + block + global",
            ReductionStrategy::PersistentThreads => "R5: persistent threads",
        }
    }
}

/// Launch configuration for a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionConfig {
    /// Input elements (4-byte ints, as in Listing 1).
    pub size: u64,
    /// Threads per block.
    pub block_size: u32,
    /// Grid blocks used by the persistent-thread variant (R1–R4 launch
    /// `size / block_size` blocks, one element per thread).
    pub persistent_grid_blocks: u32,
}

impl ReductionConfig {
    /// One-million-element input with the usual 256-thread blocks and a
    /// 2-blocks-per-SM persistent grid.
    #[must_use]
    pub fn megabyte_input(spec: &GpuSpec) -> Self {
        ReductionConfig {
            size: 1 << 20,
            block_size: 256,
            persistent_grid_blocks: spec.sms * 2,
        }
    }
}

/// Cost breakdown of one simulated reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionReport {
    /// Which strategy ran.
    pub strategy: ReductionStrategy,
    /// Total kernel cycles.
    pub total_cycles: f64,
    /// Bandwidth-bound streaming cycles.
    pub stream_cycles: f64,
    /// Same-address global-atomic serialization cycles.
    pub global_atomic_cycles: f64,
    /// Block-scoped atomic serialization cycles (per-SM units).
    pub block_atomic_cycles: f64,
    /// Per-wave overhead cycles (lead-ins, barriers, latencies).
    pub overhead_cycles: f64,
    /// Number of device-wide atomics issued (after aggregation).
    pub global_atomics: u64,
    /// Number of block-scoped atomics issued (after aggregation).
    pub block_atomics: u64,
    /// Block-wide barriers per block.
    pub barriers_per_block: u32,
}

/// Simulates one reduction strategy.
///
/// # Errors
///
/// Returns [`SyncPerfError::UnsupportedOp`] if the device's compute
/// capability is below the strategy's requirement, and
/// [`SyncPerfError::InvalidParams`] for degenerate configurations.
pub fn simulate_reduction(
    m: &GpuModel,
    spec: &GpuSpec,
    strategy: ReductionStrategy,
    cfg: &ReductionConfig,
) -> Result<ReductionReport> {
    if m.compute_capability < strategy.min_cc() {
        return Err(SyncPerfError::UnsupportedOp {
            op: strategy.label().into(),
            platform: format!("gpu-sim cc {}", m.compute_capability),
        });
    }
    if cfg.size == 0 || cfg.block_size == 0 || cfg.persistent_grid_blocks == 0 {
        return Err(SyncPerfError::InvalidParams(
            "empty reduction configuration".into(),
        ));
    }

    let elem_bytes = 4u64; // Listing 1 reduces `int` data
    let warp = u64::from(m.warp_size);
    let n = cfg.size;

    // Streaming phase: the input must cross the memory system once.
    let stream_cycles = (n * elem_bytes) as f64 / m.mem_bw_bytes_per_cy;

    let one_elem_blocks = n.div_ceil(u64::from(cfg.block_size)) as u32;
    let (blocks, elems_per_thread) = match strategy {
        ReductionStrategy::PersistentThreads => {
            let total_threads = u64::from(cfg.persistent_grid_blocks) * u64::from(cfg.block_size);
            (cfg.persistent_grid_blocks, n.div_ceil(total_threads))
        }
        _ => (one_elem_blocks, 1),
    };
    let occ = Occupancy::compute(spec, blocks.min(65_535), cfg.block_size)?;
    let waves =
        f64::from(occ.waves) * (f64::from(blocks) / f64::from(occ.blocks.min(blocks))).max(1.0);

    let warps_total = u64::from(blocks) * u64::from(occ.warps_per_block);

    // Atomic counts after hardware warp aggregation (adds/maxes to the
    // same address are combined within a warp — Fig. 9).
    let (global_atomics, block_atomics, barriers, lead_in_cy) = match strategy {
        ReductionStrategy::GlobalAtomic => {
            let ga = if m.warp_aggregation {
                n.div_ceil(warp)
            } else {
                n
            };
            (ga, 0, 0, m.warp_agg_reduce_cy)
        }
        ReductionStrategy::ShflThenGlobalAtomic => {
            // `__any_sync` guard, log2(32) = 5 explicit shuffles, then
            // one atomic per warp (Listing 1 lines 9-13).
            (warps_total, 0, 0, m.vote_cy + 5.0 * m.shfl_cy)
        }
        ReductionStrategy::BlockAtomicThenGlobal => {
            let ba = if m.warp_aggregation {
                n.div_ceil(warp)
            } else {
                n
            };
            (u64::from(blocks), ba, 2, m.warp_agg_reduce_cy)
        }
        ReductionStrategy::WarpReduceThenBlock => {
            // `__any_sync` guard plus the explicit `__reduce_max_sync`
            // (Listing 1 lines 26-29). The explicit path costs more
            // than R3's driver-side warp aggregation — which is why R3
            // beats R4 despite R4's "newer hardware capabilities".
            (
                u64::from(blocks),
                warps_total,
                2,
                m.vote_cy + m.warp_reduce_cy,
            )
        }
        ReductionStrategy::PersistentThreads => {
            let threads = u64::from(blocks) * u64::from(cfg.block_size);
            let ba = if m.warp_aggregation {
                threads.div_ceil(warp)
            } else {
                threads
            };
            (u64::from(blocks), ba, 2, m.warp_agg_reduce_cy)
        }
    };

    // Serialization through the atomic units.
    let global_atomic_cycles = global_atomics as f64 * m.atomic_unit_issue_cy;
    let block_atomic_cycles =
        block_atomics as f64 * m.block_atomic_unit_issue_cy / f64::from(occ.sms_used.max(1));

    // Per-wave overheads: lead-in + barriers + one atomic latency +
    // the thread-local loop of the persistent variant.
    let barrier_cy = f64::from(barriers) * cost::syncthreads(m, &occ);
    let local_work = elems_per_thread as f64 * (m.read_cy + m.alu_cy);
    let per_wave = local_work
        + lead_in_cy
        + barrier_cy
        + m.atomic_device.i32_cy
        + if barriers > 0 {
            m.atomic_block.i32_cy
        } else {
            0.0
        };
    let overhead_cycles = per_wave * waves;

    Ok(ReductionReport {
        strategy,
        total_cycles: stream_cycles + global_atomic_cycles + block_atomic_cycles + overhead_cycles,
        stream_cycles,
        global_atomic_cycles,
        block_atomic_cycles,
        overhead_cycles,
        global_atomics,
        block_atomics,
        barriers_per_block: barriers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{SYSTEM1, SYSTEM2, SYSTEM3};

    fn run_all() -> Vec<ReductionReport> {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let cfg = ReductionConfig::megabyte_input(&SYSTEM3.gpu);
        ReductionStrategy::ALL
            .iter()
            .map(|&s| simulate_reduction(&m, &SYSTEM3.gpu, s, &cfg).unwrap())
            .collect()
    }

    #[test]
    fn paper_ordering_r3_r4_r1_r2() {
        let r = run_all();
        let (r1, r2, r3, r4) = (&r[0], &r[1], &r[2], &r[3]);
        assert!(
            r3.total_cycles < r4.total_cycles,
            "R3 fastest of the first four"
        );
        assert!(r4.total_cycles < r1.total_cycles, "then R4");
        assert!(r1.total_cycles < r2.total_cycles, "then R1; R2 slowest");
    }

    #[test]
    fn persistent_threads_beat_everything() {
        let r = run_all();
        let r5 = &r[4];
        for other in &r[..4] {
            assert!(r5.total_cycles < other.total_cycles, "{:?}", other.strategy);
        }
    }

    #[test]
    fn r5_vs_r2_speedup_in_paper_ballpark() {
        // The paper reports ~2.5× on its input and GPU; accept 2–5×.
        let r = run_all();
        let speedup = r[1].total_cycles / r[4].total_cycles;
        assert!(
            (2.0..5.0).contains(&speedup),
            "R5 is {speedup:.2}x faster than R2"
        );
    }

    #[test]
    fn aggregation_reduces_global_atomics_32x() {
        let r = run_all();
        assert_eq!(r[0].global_atomics, (1 << 20) / 32);
        // R3 issues one global atomic per block.
        assert_eq!(r[2].global_atomics, (1 << 20) / 256);
    }

    #[test]
    fn r3_r4_r5_have_two_barriers() {
        let r = run_all();
        assert_eq!(r[0].barriers_per_block, 0);
        assert_eq!(r[1].barriers_per_block, 0);
        for rep in &r[2..] {
            assert_eq!(rep.barriers_per_block, 2, "{:?}", rep.strategy);
        }
    }

    #[test]
    fn cc_gating_matches_listing1_comments() {
        let m1 = GpuModel::for_spec(&SYSTEM1.gpu); // cc 7.5
        let cfg = ReductionConfig::megabyte_input(&SYSTEM1.gpu);
        assert!(simulate_reduction(
            &m1,
            &SYSTEM1.gpu,
            ReductionStrategy::WarpReduceThenBlock,
            &cfg
        )
        .is_err());
        assert!(simulate_reduction(
            &m1,
            &SYSTEM1.gpu,
            ReductionStrategy::BlockAtomicThenGlobal,
            &cfg
        )
        .is_ok());
    }

    #[test]
    fn ordering_holds_on_all_capable_gpus() {
        for sys in [&SYSTEM2, &SYSTEM3] {
            let m = GpuModel::for_spec(&sys.gpu);
            let cfg = ReductionConfig::megabyte_input(&sys.gpu);
            let t: Vec<f64> = ReductionStrategy::ALL
                .iter()
                .map(|&s| {
                    simulate_reduction(&m, &sys.gpu, s, &cfg)
                        .unwrap()
                        .total_cycles
                })
                .collect();
            assert!(
                t[2] < t[3] && t[3] < t[0] && t[0] < t[1] && t[4] < t[2],
                "{}",
                sys
            );
        }
    }

    #[test]
    fn ablation_without_aggregation_r1_explodes() {
        let mut m = GpuModel::for_spec(&SYSTEM3.gpu);
        m.warp_aggregation = false;
        let cfg = ReductionConfig::megabyte_input(&SYSTEM3.gpu);
        let r1 =
            simulate_reduction(&m, &SYSTEM3.gpu, ReductionStrategy::GlobalAtomic, &cfg).unwrap();
        let r2 = simulate_reduction(
            &m,
            &SYSTEM3.gpu,
            ReductionStrategy::ShflThenGlobalAtomic,
            &cfg,
        )
        .unwrap();
        assert!(
            r1.total_cycles > r2.total_cycles,
            "without driver aggregation the explicit shuffle version wins — evidence the \
             JIT optimization is what makes R1 beat R2"
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let bad = ReductionConfig {
            size: 0,
            block_size: 256,
            persistent_grid_blocks: 1,
        };
        assert!(
            simulate_reduction(&m, &SYSTEM3.gpu, ReductionStrategy::GlobalAtomic, &bad).is_err()
        );
    }

    #[test]
    fn stream_phase_identical_across_strategies() {
        let r = run_all();
        for rep in &r[1..] {
            assert_eq!(rep.stream_cycles, r[0].stream_cycles);
        }
    }
}

// ---------------------------------------------------------------------
// Case study: histogramming, the other classic atomic-bound kernel.
// ---------------------------------------------------------------------

/// How a GPU histogram synchronizes its bin updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistogramStrategy {
    /// Every element does a device-wide `atomicAdd` on its global bin
    /// (recommendations 4/5 warn about exactly this under skew).
    GlobalAtomics,
    /// Every block keeps private bins in shared memory (block-scoped
    /// atomics), then merges them into the global histogram.
    SharedPrivatized,
}

/// Histogram workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramConfig {
    /// Input elements.
    pub elements: u64,
    /// Number of bins.
    pub bins: u32,
    /// Fraction of all elements that fall into the single hottest bin
    /// (0.0 = uniform, 1.0 = everything collides on one address).
    pub hot_fraction: f64,
    /// Threads per block.
    pub block_size: u32,
    /// Launched blocks.
    pub blocks: u32,
}

/// Cost breakdown of one simulated histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramReport {
    /// Which strategy ran.
    pub strategy: HistogramStrategy,
    /// Total kernel cycles.
    pub total_cycles: f64,
    /// Input streaming cycles.
    pub stream_cycles: f64,
    /// Cycles serialized through atomic units (device or per-SM).
    pub atomic_cycles: f64,
    /// Merge-phase cycles (zero for the direct strategy).
    pub merge_cycles: f64,
}

/// Number of independent L2 atomic slices that can service different
/// addresses concurrently.
const L2_ATOMIC_SLICES: f64 = 64.0;
/// Same, for one SM's shared-memory atomic banks.
const SM_ATOMIC_BANKS: f64 = 32.0;

/// Simulates one histogram strategy.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] for empty workloads or a
/// `hot_fraction` outside `[0, 1]`.
pub fn simulate_histogram(
    m: &GpuModel,
    spec: &GpuSpec,
    strategy: HistogramStrategy,
    cfg: &HistogramConfig,
) -> Result<HistogramReport> {
    if cfg.elements == 0 || cfg.bins == 0 || cfg.block_size == 0 || cfg.blocks == 0 {
        return Err(SyncPerfError::InvalidParams(
            "empty histogram configuration".into(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.hot_fraction) {
        return Err(SyncPerfError::InvalidParams(format!(
            "hot_fraction {} outside [0, 1]",
            cfg.hot_fraction
        )));
    }
    let occ = Occupancy::compute(spec, cfg.blocks.min(65_535), cfg.block_size)?;
    let n = cfg.elements as f64;
    let bins = f64::from(cfg.bins);
    let stream_cycles = (cfg.elements * 4) as f64 / m.mem_bw_bytes_per_cy;

    let (atomic_cycles, merge_cycles) = match strategy {
        HistogramStrategy::GlobalAtomics => {
            // Hottest-bin requests serialize on one address; the rest
            // spread over min(bins, slices) parallel units.
            let hot = n * cfg.hot_fraction + n * (1.0 - cfg.hot_fraction) / bins;
            let hot_serial = hot * m.atomic_unit_issue_cy;
            let throughput = n * m.atomic_unit_issue_cy / bins.min(L2_ATOMIC_SLICES);
            (hot_serial.max(throughput), 0.0)
        }
        HistogramStrategy::SharedPrivatized => {
            // Per-block private bins: each block handles N/blocks
            // elements; blocks run in parallel across resident slots,
            // surplus in waves.
            let per_block = n / f64::from(cfg.blocks);
            let hot_local =
                per_block * cfg.hot_fraction + per_block * (1.0 - cfg.hot_fraction) / bins;
            let local_serial =
                hot_local.max(per_block / bins.min(SM_ATOMIC_BANKS)) * m.block_atomic_unit_issue_cy;
            let local = local_serial * f64::from(occ.waves);
            // Merge: every block adds each of its bins into the global
            // histogram — per global bin, `blocks` requests serialize;
            // different bins proceed on parallel slices.
            let merge_serial = f64::from(cfg.blocks) * m.atomic_unit_issue_cy;
            let merge_throughput =
                bins * f64::from(cfg.blocks) * m.atomic_unit_issue_cy / bins.min(L2_ATOMIC_SLICES);
            (local, merge_serial.max(merge_throughput))
        }
    };

    Ok(HistogramReport {
        strategy,
        total_cycles: stream_cycles + atomic_cycles + merge_cycles,
        stream_cycles,
        atomic_cycles,
        merge_cycles,
    })
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use syncperf_core::SYSTEM3;

    fn cfg(hot: f64, bins: u32) -> HistogramConfig {
        HistogramConfig {
            elements: 1 << 22,
            bins,
            hot_fraction: hot,
            block_size: 256,
            blocks: SYSTEM3.gpu.sms * 4,
        }
    }

    fn run(strategy: HistogramStrategy, c: &HistogramConfig) -> HistogramReport {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        simulate_histogram(&m, &SYSTEM3.gpu, strategy, c).unwrap()
    }

    #[test]
    fn privatization_wins_under_skew() {
        let c = cfg(0.5, 256);
        let global = run(HistogramStrategy::GlobalAtomics, &c);
        let private = run(HistogramStrategy::SharedPrivatized, &c);
        assert!(
            global.total_cycles > 3.0 * private.total_cycles,
            "skewed global {} vs privatized {}",
            global.total_cycles,
            private.total_cycles
        );
    }

    #[test]
    fn skew_hurts_global_roughly_linearly() {
        let t25 = run(HistogramStrategy::GlobalAtomics, &cfg(0.25, 256)).atomic_cycles;
        let t50 = run(HistogramStrategy::GlobalAtomics, &cfg(0.50, 256)).atomic_cycles;
        let t100 = run(HistogramStrategy::GlobalAtomics, &cfg(1.0, 256)).atomic_cycles;
        assert!((t50 / t25 - 2.0).abs() < 0.1);
        assert!((t100 / t50 - 2.0).abs() < 0.1);
    }

    #[test]
    fn skew_hurts_privatized_far_less() {
        let p0 = run(HistogramStrategy::SharedPrivatized, &cfg(0.0, 256)).total_cycles;
        let p100 = run(HistogramStrategy::SharedPrivatized, &cfg(1.0, 256)).total_cycles;
        let g0 = run(HistogramStrategy::GlobalAtomics, &cfg(0.0, 256)).total_cycles;
        let g100 = run(HistogramStrategy::GlobalAtomics, &cfg(1.0, 256)).total_cycles;
        assert!(
            (p100 / p0) < 0.1 * (g100 / g0),
            "blocks absorb the hot bin locally"
        );
    }

    #[test]
    fn merge_cost_grows_with_bins() {
        let few = run(HistogramStrategy::SharedPrivatized, &cfg(0.0, 64)).merge_cycles;
        let many = run(HistogramStrategy::SharedPrivatized, &cfg(0.0, 1 << 16)).merge_cycles;
        assert!(
            many > 10.0 * few,
            "wide histograms pay in the merge: {few} -> {many}"
        );
    }

    #[test]
    fn uniform_narrow_histogram_is_the_global_strategy_niche() {
        // With heavy skew absent and a merge that costs more than the
        // contention saved, global atomics can compete (tiny inputs,
        // huge bin count).
        let c = HistogramConfig {
            elements: 1 << 14,
            bins: 1 << 16,
            hot_fraction: 0.0,
            block_size: 256,
            blocks: SYSTEM3.gpu.sms * 4,
        };
        let global = run(HistogramStrategy::GlobalAtomics, &c);
        let private = run(HistogramStrategy::SharedPrivatized, &c);
        assert!(
            global.total_cycles < private.total_cycles,
            "merge-dominated regime favors global: {} vs {}",
            global.total_cycles,
            private.total_cycles
        );
    }

    #[test]
    fn rejects_bad_configs() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let mut c = cfg(0.5, 16);
        c.hot_fraction = 1.5;
        assert!(
            simulate_histogram(&m, &SYSTEM3.gpu, HistogramStrategy::GlobalAtomics, &c).is_err()
        );
        c.hot_fraction = 0.5;
        c.elements = 0;
        assert!(
            simulate_histogram(&m, &SYSTEM3.gpu, HistogramStrategy::GlobalAtomics, &c).is_err()
        );
    }
}

// ---------------------------------------------------------------------
// Case study: exclusive prefix scan — the workload that motivates
// device-wide fences and single-pass synchronization.
// ---------------------------------------------------------------------

/// How a device-wide exclusive scan synchronizes across blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanStrategy {
    /// Three kernels: scan each block, scan the block sums, add the
    /// offsets back — no inter-block synchronization, but the data
    /// crosses the memory system three times.
    TwoPass,
    /// Single-pass "decoupled look-back" (chained scan): each block
    /// publishes its partial sum with a `__threadfence()` + flag, and
    /// successor blocks spin on the flags — one data pass plus a
    /// serialized look-back chain built from fences and atomics.
    DecoupledLookback,
}

/// Scan workload description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Input elements (4-byte).
    pub elements: u64,
    /// Threads per block.
    pub block_size: u32,
}

/// Cost breakdown of one simulated scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Which strategy ran.
    pub strategy: ScanStrategy,
    /// Total cycles.
    pub total_cycles: f64,
    /// Memory-traffic cycles (the dominant term; the two-pass scan
    /// moves the data ~3x, the single-pass ~1x plus block sums).
    pub memory_cycles: f64,
    /// In-block scan work (log2(block) `__syncthreads` sweeps).
    pub block_scan_cycles: f64,
    /// Inter-block synchronization: kernel launches (two-pass) or the
    /// fence/flag look-back chain (single-pass).
    pub coordination_cycles: f64,
}

/// Cycles to launch one kernel from the host (dwarfed by big inputs,
/// decisive for small ones).
const KERNEL_LAUNCH_CY: f64 = 12_000.0;

/// Simulates one scan strategy.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] for empty configurations.
pub fn simulate_scan(
    m: &GpuModel,
    spec: &GpuSpec,
    strategy: ScanStrategy,
    cfg: &ScanConfig,
) -> Result<ScanReport> {
    if cfg.elements == 0 || cfg.block_size == 0 {
        return Err(SyncPerfError::InvalidParams(
            "empty scan configuration".into(),
        ));
    }
    let blocks = cfg.elements.div_ceil(u64::from(cfg.block_size));
    let occ = Occupancy::compute(spec, (blocks as u32).min(65_535), cfg.block_size)?;
    let n_bytes = (cfg.elements * 4) as f64;

    // In-block Blelloch scan: 2·log2(block) sweeps, each ending in a
    // `__syncthreads()`.
    let sweeps = 2.0 * f64::from(cfg.block_size.next_power_of_two().trailing_zeros());
    let per_wave_block_scan = sweeps * (cost::syncthreads(m, &occ) + m.alu_cy + m.update_cy);
    let waves = (blocks as f64 / f64::from(occ.resident_blocks_per_sm * occ.sms_used)).max(1.0);
    let block_scan_cycles = per_wave_block_scan * waves;

    let (memory_cycles, coordination_cycles) = match strategy {
        ScanStrategy::TwoPass => {
            // Pass 1 reads+writes N, pass 2 scans block sums, pass 3
            // reads+writes N again: ~3 full crossings plus two extra
            // kernel launches.
            let mem = 3.0 * 2.0 * n_bytes / m.mem_bw_bytes_per_cy;
            let sums = blocks as f64 * 2.0 * 4.0 / m.mem_bw_bytes_per_cy;
            (mem + sums, 3.0 * KERNEL_LAUNCH_CY)
        }
        ScanStrategy::DecoupledLookback => {
            // One read+write crossing; the look-back chain serializes
            // block publication: fence + flag store + successor's poll.
            let mem = 2.0 * n_bytes / m.mem_bw_bytes_per_cy;
            let link_cy =
                cost::fence(m, Scope::Device) + m.atomic_device.i32_cy + m.read_cy + m.update_cy;
            // Publications pipeline: while a wave of resident blocks
            // computes, its predecessors' prefixes arrive, so the
            // chain's critical path is ~one link per wave, not one per
            // block — that pipelining is the whole point of decoupled
            // look-back.
            let resident = f64::from(occ.resident_blocks_per_sm * occ.sms_used).max(1.0);
            let waves_chain = (blocks as f64 / resident).max(1.0);
            let chain = waves_chain * link_cy;
            (mem, KERNEL_LAUNCH_CY + chain)
        }
    };

    Ok(ScanReport {
        strategy,
        total_cycles: memory_cycles + block_scan_cycles + coordination_cycles,
        memory_cycles,
        block_scan_cycles,
        coordination_cycles,
    })
}

#[cfg(test)]
mod scan_tests {
    use super::*;
    use syncperf_core::SYSTEM3;

    fn run(strategy: ScanStrategy, elements: u64) -> ScanReport {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let cfg = ScanConfig {
            elements,
            block_size: 256,
        };
        simulate_scan(&m, &SYSTEM3.gpu, strategy, &cfg).unwrap()
    }

    #[test]
    fn lookback_wins_on_large_inputs() {
        // Big inputs are bandwidth-bound: saving two data passes beats
        // the serialized look-back chain (why CUB's scan is
        // single-pass).
        let two = run(ScanStrategy::TwoPass, 1 << 26);
        let look = run(ScanStrategy::DecoupledLookback, 1 << 26);
        assert!(
            look.total_cycles < 0.6 * two.total_cycles,
            "lookback {} vs two-pass {}",
            look.total_cycles,
            two.total_cycles
        );
    }

    #[test]
    fn memory_ratio_approaches_three() {
        let two = run(ScanStrategy::TwoPass, 1 << 26);
        let look = run(ScanStrategy::DecoupledLookback, 1 << 26);
        let r = two.memory_cycles / look.memory_cycles;
        assert!((2.8..3.2).contains(&r), "three crossings vs one: {r}");
    }

    #[test]
    fn coordination_is_fences_for_lookback_launches_for_twopass() {
        let two = run(ScanStrategy::TwoPass, 1 << 22);
        assert_eq!(two.coordination_cycles, 3.0 * KERNEL_LAUNCH_CY);
        let look = run(ScanStrategy::DecoupledLookback, 1 << 22);
        assert!(
            look.coordination_cycles > KERNEL_LAUNCH_CY,
            "chain cost present"
        );
    }

    #[test]
    fn block_scan_work_identical_across_strategies() {
        let two = run(ScanStrategy::TwoPass, 1 << 22);
        let look = run(ScanStrategy::DecoupledLookback, 1 << 22);
        assert_eq!(two.block_scan_cycles, look.block_scan_cycles);
    }

    #[test]
    fn rejects_empty() {
        let m = GpuModel::for_spec(&SYSTEM3.gpu);
        let cfg = ScanConfig {
            elements: 0,
            block_size: 256,
        };
        assert!(simulate_scan(&m, &SYSTEM3.gpu, ScanStrategy::TwoPass, &cfg).is_err());
    }
}
