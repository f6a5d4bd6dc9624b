//! Calibration-sensitivity analysis.
//!
//! The simulators' latency constants are calibrated, not measured
//! (DESIGN.md §1); the paper claims we reproduce are *shapes*. This
//! module perturbs each load-bearing constant across a wide range and
//! re-evaluates the shape claims, demonstrating which conclusions
//! depend on calibration and which follow from the modeled mechanisms.

use std::collections::HashMap;

use syncperf_core::{kernel, DType, ExecParams, Measurement, Protocol, Result, SYSTEM3};
use syncperf_cpu_sim::CpuModel;
use syncperf_gpu_sim::GpuModel;
use syncperf_sched::JobSpec;

use crate::common::measure_jobs;

/// Outcome of evaluating one claim under one perturbed constant.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// The perturbed model constant.
    pub constant: &'static str,
    /// The claim being re-evaluated.
    pub claim: &'static str,
    /// Scale factors at which the claim held.
    pub held_at: Vec<f64>,
    /// Scale factors at which it broke.
    pub broke_at: Vec<f64>,
}

impl SensitivityRow {
    /// Whether the claim survived every tested scale.
    #[must_use]
    pub fn robust(&self) -> bool {
        self.broke_at.is_empty()
    }
}

/// The scale factors applied to each constant (spanning 4× around the
/// calibration point).
pub const SCALES: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];

/// A shape claim: the points it reads, in order, and its test over
/// their values (runtime in seconds on the CPU, cycles per op on the
/// GPU).
struct Claim<K> {
    name: &'static str,
    points: Vec<(K, ExecParams)>,
    holds: fn(&[f64]) -> bool,
}

fn cpu_claims() -> Vec<Claim<syncperf_core::CpuKernel>> {
    let at = |threads: u32| ExecParams::new(threads).with_loops(500, 50);
    let int_add = kernel::omp_atomic_update_scalar(DType::I32);
    vec![
        Claim {
            name: "barrier plateaus beyond ~8 threads",
            points: [2, 8, 32].map(|t| (kernel::omp_barrier(), at(t))).into(),
            holds: |r| r[1] > 1.5 * r[0] && r[2] < 2.0 * r[1],
        },
        Claim {
            name: "int atomics beat doubles",
            points: vec![
                (int_add.clone(), at(16)),
                (kernel::omp_atomic_update_scalar(DType::F64), at(16)),
            ],
            holds: |r| r[1] > r[0],
        },
        Claim {
            name: "padding removes the false-sharing penalty",
            points: vec![
                (kernel::omp_atomic_update_array(DType::I32, 1), at(16)),
                (kernel::omp_atomic_update_array(DType::I32, 16), at(16)),
            ],
            holds: |r| r[0] > 2.0 * r[1],
        },
        Claim {
            name: "critical sections lose to atomics",
            points: vec![
                (kernel::omp_critical_add(DType::I32), at(16)),
                (int_add, at(16)),
            ],
            holds: |r| r[0] > r[1],
        },
    ]
}

fn gpu_claims() -> Vec<Claim<syncperf_core::GpuKernel>> {
    let at = |blocks: u32, threads: u32| {
        ExecParams::new(threads)
            .with_blocks(blocks)
            .with_loops(500, 50)
    };
    let add = kernel::cuda_atomic_add_scalar(DType::I32);
    let cas = kernel::cuda_atomic_cas_scalar(DType::I32);
    let fence = kernel::cuda_threadfence(syncperf_core::Scope::Device, DType::I32, 1);
    let shfl = |dt| kernel::cuda_shfl(dt, syncperf_core::ShflVariant::Idx);
    vec![
        Claim {
            name: "aggregated adds flat to 64 threads at 2 blocks",
            points: [32, 64, 128].map(|t| (add.clone(), at(2, t))).into(),
            holds: |c| (c[1] - c[0]).abs() < 1e-9 && c[2] > c[1],
        },
        Claim {
            name: "CAS knee at 4 threads for 1 block",
            points: vec![(cas.clone(), at(1, 4)), (cas, at(1, 8))],
            holds: |c| c[1] > c[0],
        },
        Claim {
            name: "fences cost the same at any occupancy",
            points: vec![(fence.clone(), at(1, 32)), (fence, at(128, 1024))],
            holds: |c| (c[0] / c[1] - 1.0).abs() < 0.05,
        },
        Claim {
            name: "64-bit shuffles cost twice 32-bit",
            points: vec![(shfl(DType::F32), at(2, 32)), (shfl(DType::F64), at(2, 32))],
            holds: |c| (c[1] / c[0] - 2.0).abs() < 0.1,
        },
    ]
}

/// A model constant's name and how to scale it.
type Knob<M> = (&'static str, fn(&mut M, f64));

fn cpu_knobs() -> Vec<Knob<CpuModel>> {
    vec![
        ("cpu.line_transfer_ns", |m, s| m.line_transfer_ns *= s),
        ("cpu.arbitration_ns", |m, s| m.arbitration_ns *= s),
        ("cpu.rmw_int_ns", |m, s| m.rmw_int_ns *= s),
        ("cpu.fp_cas_extra_ns", |m, s| m.fp_cas_extra_ns *= s),
        ("cpu.barrier_arb_ns", |m, s| m.barrier_arb_ns *= s),
        ("cpu.lock_overhead_ns", |m, s| m.lock_overhead_ns *= s),
    ]
}

fn gpu_knobs() -> Vec<Knob<GpuModel>> {
    vec![
        ("gpu.same_addr_arb_cy", |m, s| m.same_addr_arb_cy *= s),
        ("gpu.atomic_service(int)", |m, s| {
            m.atomic_device.i32_cy *= s;
        }),
        ("gpu.warp_agg_reduce_cy", |m, s| m.warp_agg_reduce_cy *= s),
        ("gpu.fence_device_cy", |m, s| m.fence_device_cy *= s),
        ("gpu.shfl_cy", |m, s| m.shfl_cy *= s),
    ]
}

/// The sweep's distinct jobs, in first-use order: a job two claims or
/// two knobs share (every knob at 1.0 is the unperturbed model) is
/// lowered once.
#[derive(Default)]
struct Grid {
    jobs: Vec<JobSpec>,
    index: HashMap<String, usize>,
}

/// A (constant, claim) row whose points are lowered but not yet
/// measured: the grid indexes of the claim's points at each scale.
struct PendingRow {
    constant: &'static str,
    claim: &'static str,
    holds: fn(&[f64]) -> bool,
    metric: fn(&Measurement) -> f64,
    at: Vec<(f64, Vec<usize>)>,
}

impl PendingRow {
    fn evaluate(self, ms: &[Measurement]) -> SensitivityRow {
        let (held, broke): (Vec<_>, Vec<_>) = self.at.into_iter().partition(|(_, idx)| {
            let values: Vec<f64> = idx.iter().map(|&i| (self.metric)(&ms[i])).collect();
            (self.holds)(&values)
        });
        SensitivityRow {
            constant: self.constant,
            claim: self.claim,
            held_at: held.into_iter().map(|(scale, _)| scale).collect(),
            broke_at: broke.into_iter().map(|(scale, _)| scale).collect(),
        }
    }
}

/// Lowers every (knob, claim) row of one simulator into `grid`: the
/// claims' points under `base` with each knob scaled by each of
/// [`SCALES`], model by model.
fn lower<M: Clone, K>(
    grid: &mut Grid,
    base: &M,
    knobs: Vec<Knob<M>>,
    claims: &[Claim<K>],
    metric: fn(&Measurement) -> f64,
    job: impl Fn(&M, &K, ExecParams) -> JobSpec,
) -> Vec<PendingRow> {
    let mut rows = Vec::new();
    for (constant, apply) in knobs {
        let first = rows.len();
        rows.extend(claims.iter().map(|c| PendingRow {
            constant,
            claim: c.name,
            holds: c.holds,
            metric,
            at: Vec::new(),
        }));
        for scale in SCALES {
            let mut model = base.clone();
            apply(&mut model, scale);
            for (row, claim) in rows[first..].iter_mut().zip(claims) {
                let idx = claim
                    .points
                    .iter()
                    .map(|(k, p)| {
                        let job = job(&model, k, *p);
                        let next = grid.jobs.len();
                        *grid.index.entry(job.canonical()).or_insert_with(|| {
                            grid.jobs.push(job);
                            next
                        })
                    })
                    .collect();
                row.at.push((scale, idx));
            }
        }
    }
    rows
}

/// Runs the full sensitivity sweep: every (constant, claim) pair across
/// [`SCALES`]. Every distinct point of every perturbed model is
/// measured in one [`measure_jobs`] call, then the claims are evaluated
/// from the results.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_sensitivity() -> Result<Vec<SensitivityRow>> {
    let mut grid = Grid::default();
    let mut rows = lower(
        &mut grid,
        &CpuModel::for_system(&SYSTEM3.cpu, 0.0),
        cpu_knobs(),
        &cpu_claims(),
        Measurement::runtime_seconds,
        |m, k, p| JobSpec::cpu_sim_with_model(&SYSTEM3, m.clone(), k.clone(), p, Protocol::SIM),
    );
    rows.extend(lower(
        &mut grid,
        &GpuModel::for_spec(&SYSTEM3.gpu),
        gpu_knobs(),
        &gpu_claims(),
        |m| m.per_op,
        |m, k, p| JobSpec::gpu_sim_with_model(&SYSTEM3, m.clone(), k.clone(), p, Protocol::SIM),
    ));
    let ms = measure_jobs(grid.jobs)?;
    Ok(rows.into_iter().map(|r| r.evaluate(&ms)).collect())
}

/// Renders the sweep as a table.
#[must_use]
pub fn render(rows: &[SensitivityRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let robust = rows.iter().filter(|r| r.robust()).count();
    let _ = writeln!(
        out,
        "calibration sensitivity: {robust}/{} (constant, claim) pairs robust across 0.5x-2x\n",
        rows.len()
    );
    for r in rows {
        let _ = writeln!(
            out,
            "[{}] {:<26} x {:<48} {}",
            if r.robust() { "ROBUST " } else { "FRAGILE" },
            r.constant,
            r.claim,
            if r.robust() {
                String::new()
            } else {
                format!("breaks at {:?}", r.broke_at)
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_claims_are_calibration_robust() {
        let rows = run_sensitivity().unwrap();
        assert_eq!(rows.len(), (6 * 4) + (5 * 4));
        let fragile: Vec<String> = rows
            .iter()
            .filter(|r| !r.robust())
            .map(|r| format!("{} x {} at {:?}", r.constant, r.claim, r.broke_at))
            .collect();
        assert!(
            fragile.is_empty(),
            "shape claims must not hinge on calibration constants:\n{}",
            fragile.join("\n")
        );
    }

    #[test]
    fn render_counts_pairs() {
        let rows = vec![SensitivityRow {
            constant: "c",
            claim: "x",
            held_at: vec![1.0],
            broke_at: vec![],
        }];
        assert!(render(&rows).contains("1/1"));
    }
}
