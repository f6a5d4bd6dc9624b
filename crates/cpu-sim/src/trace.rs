//! The CPU engine's one evaluator: compiled [`RunPlan`]s lowered into a
//! struct-of-arrays `PlanTable` and advanced by `run_table`.
//!
//! Every production engine run goes through this loop, and [`run_batch`]
//! is its one entry point and its one recording site. A batched sweep
//! (behind the scheduler's `JobSpec::batch_prime`) lowers many parameter
//! points of one kernel shape into one table; a single point
//! ([`crate::engine::run_observed`]) is a table of one.
//!
//! Lowering turns every `(thread, op)` [`PlanOp`] into a pre-resolved
//! `{advance, extra}` record plus a per-op drain mask, and the three
//! non-barrier op kinds collapse into one branchless update:
//!
//! ```text
//! drain   = saturating_sub(pending, t) & mask   // mask = !0 only at fences
//! t'      = t + advance + drain
//! pending = max(pending, t' + extra)            // extra = 0 except stores
//! ```
//!
//! This is bit-exact against the `PlanOp` interpreter that
//! [`crate::engine::run_full_stepping`] keeps as the oracle. For
//! `Fixed` and `Flush` the updates are literally the interpreter's (a
//! fence assigns `pending = t'`, and the max-clamp equals assignment
//! there because `t' ≥ pending` after the drain). For `Store` the
//! interpreter only raises `pending`, so the unified max is again
//! identical. The one subtlety is that the table applies
//! `pending = max(pending, t')` after `Fixed` ops where the interpreter
//! leaves `pending` alone — but `pending` is only ever *observed*
//! through `saturating_sub(pending, t)` (at fences and at the
//! steady-state detector's rep boundary), and clamping `pending` up to
//! the current clock does not change that difference. Barriers never
//! appear inside a segment; `rendezvous` runs between segments.
//!
//! Per segment and per op, the lanes of every point sit back-to-back,
//! so one contiguous pass advances a whole sweep group through that op
//! (the inner loop is a flat `u64` kernel over adjacent lanes — the
//! layout autovectorizes). Rendezvous, steady-state detection, and
//! extrapolation stay per point and bit-exact. With a tracing recorder
//! the first [`OBSERVED_REPS`] repetitions step lane by lane instead,
//! so each op of every point can be narrated as a `cpu_sim.op` event
//! (plus a `store_buffer_drain` event at draining fences) in point and
//! thread order.

use std::time::Instant;

use syncperf_core::obs::{ArgValue, Recorder};
use syncperf_core::{CpuOp, Result, SyncPerfError};

use crate::config::CpuModel;
use crate::engine::{EngineResult, OBSERVED_REPS};
use crate::memline::{classify, line_of, lock_line, Access, ContentionMap, LineId};
use crate::plan::{units_to_ns, PlanOp, RunPlan};
use crate::topology::Placement;

/// One barrier-free segment of a table, op-major: the records for op
/// `i` occupy lanes `i * lanes .. (i + 1) * lanes`.
#[derive(Debug, Clone)]
struct TraceSegment {
    /// Body index of the segment's first op.
    first: usize,
    /// Number of ops in this segment.
    ops: usize,
    /// Per-(op, lane) clock advance, fixed-point units.
    advance: Vec<u64>,
    /// Per-(op, lane) store-buffer horizon extension (0 except stores).
    extra: Vec<u64>,
    /// Per-op drain mask: `!0` at fences, `0` elsewhere. The op kind
    /// depends only on the body, so one scalar covers every lane.
    mask: Vec<u64>,
}

/// The branchless per-lane update from the module docs. Returns the
/// store-buffer drain the op paid (nonzero only at fences).
#[inline]
fn advance(t: &mut u64, pending: &mut u64, adv: u64, ext: u64, mask: u64) -> u64 {
    let drain = pending.saturating_sub(*t) & mask;
    *t += adv + drain;
    *pending = (*pending).max(*t + ext);
    drain
}

impl TraceSegment {
    /// Advances every lane through every op of this segment.
    #[inline]
    fn step(&self, t: &mut [u64], pending: &mut [u64]) {
        let lanes = t.len();
        for op in 0..self.ops {
            let base = op * lanes;
            let adv = &self.advance[base..base + lanes];
            let ext = &self.extra[base..base + lanes];
            let mask = self.mask[op];
            for lane in 0..lanes {
                advance(&mut t[lane], &mut pending[lane], adv[lane], ext[lane], mask);
            }
        }
    }

    /// [`Self::step`] for point `point` of the table, lane by lane,
    /// narrating every op of repetition `rep` into `nar`'s recorder.
    fn step_narrated(
        &self,
        t: &mut [u64],
        pending: &mut [u64],
        point: usize,
        p: &TablePoint,
        nar: &Narration,
        rep: u64,
    ) {
        let lanes = t.len();
        for tid in 0..p.lanes {
            let lane = p.start + tid;
            for op in 0..self.ops {
                let i = op * lanes + lane;
                let before = t[lane];
                let drain = advance(
                    &mut t[lane],
                    &mut pending[lane],
                    self.advance[i],
                    self.extra[i],
                    self.mask[op],
                );
                if drain > 0 {
                    nar.rec.counter("cpu_sim.store_buffer_drains").inc();
                    nar.rec.instant_args(
                        "cpu_sim",
                        "store_buffer_drain",
                        vec![
                            ("point", ArgValue::from(point)),
                            ("tid", ArgValue::from(tid)),
                            ("drain_ns", ArgValue::F64(units_to_ns(drain))),
                        ],
                    );
                }
                let idx = self.first + op;
                nar.rec.instant_args(
                    "cpu_sim.op",
                    format!("{:?}", nar.body[idx]),
                    vec![
                        ("point", ArgValue::from(point)),
                        ("tid", ArgValue::from(tid)),
                        ("rep", ArgValue::from(rep)),
                        ("idx", ArgValue::from(idx)),
                        ("cost_ns", ArgValue::F64(units_to_ns(t[lane] - before))),
                    ],
                );
            }
        }
    }
}

/// Releases a barrier: all arrivals leave at `max_arrival +
/// barrier_units`, staggered by arrival rank (stable: ties release in
/// lane order).
#[inline]
pub(crate) fn rendezvous(
    barrier_units: u64,
    stagger_units: u64,
    t: &mut [u64],
    order: &mut Vec<usize>,
) {
    let max_arrival = t.iter().copied().max().unwrap_or(0);
    let release = max_arrival + barrier_units;
    order.clear();
    order.extend(0..t.len());
    order.sort_by_key(|&tid| t[tid]);
    for (rank, &tid) in order.iter().enumerate() {
        t[tid] = release + rank as u64 * stagger_units;
    }
}

/// One parameter point inside a [`PlanTable`]: its lane range within
/// the concatenated arrays and its barrier constants (which depend on
/// the thread count and so differ per point).
#[derive(Debug, Clone)]
struct TablePoint {
    start: usize,
    lanes: usize,
    barrier_units: u64,
    stagger_units: u64,
}

/// Same-shape parameter points lowered into one struct-of-arrays
/// table: per segment, per op, the lanes of every point sit
/// back-to-back, so one contiguous pass advances the whole sweep group
/// through that op.
#[derive(Debug)]
struct PlanTable {
    segments: Vec<TraceSegment>,
    points: Vec<TablePoint>,
    total_lanes: usize,
    barriers_per_rep: u64,
}

impl PlanTable {
    /// Lowers one plan per point into a shared table. All plans must
    /// come from the same body (identical segment structure), as they
    /// do when [`Self::compile`] builds them.
    fn lower(plans: &[RunPlan]) -> Self {
        let total_lanes: usize = plans.iter().map(RunPlan::threads).sum();
        let segs = plans[0].segments();
        let mut segments = Vec::with_capacity(segs.len());
        for (seg_idx, &(start, end)) in segs.iter().enumerate() {
            let ops = end - start;
            let mut seg = TraceSegment {
                first: start,
                ops,
                advance: Vec::with_capacity(ops * total_lanes),
                extra: Vec::with_capacity(ops * total_lanes),
                mask: Vec::with_capacity(ops),
            };
            for idx in start..end {
                // The op kind is body-determined, so thread 0 of the
                // first point stands for every lane.
                let fence = matches!(plans[0].op(0, idx), PlanOp::Flush { .. });
                seg.mask.push(if fence { !0 } else { 0 });
                for plan in plans {
                    debug_assert_eq!(plan.segments()[seg_idx], (start, end));
                    for tid in 0..plan.threads() {
                        let (adv, ext) = match plan.op(tid, idx) {
                            PlanOp::Barrier => unreachable!("barriers delimit segments"),
                            PlanOp::Fixed(cost) => (cost, 0),
                            PlanOp::Store {
                                visible,
                                pending_extra,
                            } => (visible, pending_extra),
                            PlanOp::Flush { base } => (base, 0),
                        };
                        seg.advance.push(adv);
                        seg.extra.push(ext);
                    }
                }
            }
            segments.push(seg);
        }
        let mut points = Vec::with_capacity(plans.len());
        let mut at = 0usize;
        for plan in plans {
            points.push(TablePoint {
                start: at,
                lanes: plan.threads(),
                barrier_units: plan.barrier_units(),
                stagger_units: plan.stagger_units(),
            });
            at += plan.threads();
        }
        Self {
            segments,
            points,
            total_lanes,
            barriers_per_rep: segs.len() as u64 - 1,
        }
    }

    /// Contention analysis, plan compilation and lowering for `body` at
    /// each placement. `analyzed` is handed each placement's contention
    /// map as it is built, so a caller that needs the map too (the
    /// traced path's coherence profile) never analyzes a placement
    /// again. A live recorder gets the compile time in
    /// `plan.compile_us` (compilation and `analyzed`, never evaluation)
    /// and the table size in `plan.trace_ops`.
    fn compile(
        model: &CpuModel,
        body: &[CpuOp],
        placements: &[Placement],
        rec: &Recorder,
        mut analyzed: impl FnMut(&Placement, &ContentionMap),
    ) -> Self {
        let start = rec.is_enabled().then(Instant::now);
        let plans: Vec<RunPlan> = placements
            .iter()
            .map(|p| {
                let contention = ContentionMap::analyze(body, p, 64);
                analyzed(p, &contention);
                RunPlan::compile(model, p, &contention, body)
            })
            .collect();
        let table = Self::lower(&plans);
        if let Some(start) = start {
            rec.histogram("plan.compile_us")
                .observe(start.elapsed().as_micros() as u64);
            let records: usize = table.segments.iter().map(|s| s.advance.len()).sum();
            rec.counter("plan.trace_ops").add(records as u64);
        }
        table
    }
}

/// Per-op event narration for a traced run: the body the table was
/// compiled from (for op names) and the recorder that takes the events.
#[derive(Debug)]
struct Narration<'a> {
    body: &'a [CpuOp],
    rec: &'a Recorder,
}

/// Evaluates every placement point of one kernel body in a single
/// batched pass, returning one result per point, in order.
///
/// This is where every production CPU engine run is recorded. Any live
/// recorder counts `cpu_sim.engine_runs` (one per point) and
/// `cpu_sim.barrier_rounds`, and gets the table's `plan.compile_us`
/// and `plan.trace_ops`. With the event plane on ([`Recorder::traces`])
/// it also gets, under category `cpu_sim`: one `engine_run` span for
/// the table, one per-op instant (tagged `point`/`tid`/`rep`/`idx`/
/// `cost_ns`) for each of the first [`OBSERVED_REPS`] repetitions of
/// every point, and `store_buffer_drain` instants at fences — plus the
/// `cpu_sim.mesi_transitions` and `cpu_sim.store_buffer_drains`
/// counters and the `cpu_sim.arb_queue_depth_max` gauge. Recording
/// never changes the simulated times: the emit window steps exactly
/// what the op-major pass would, so recorded and unrecorded runs return
/// bit-identical results.
///
/// The lockstep rep loop keeps stepping a point that is already steady
/// until *every* point is steady — and stepping a steady repetition
/// then extrapolating from the later boundary is bit-identical to
/// extrapolating from the earlier one (a steady rep advances each clock
/// by exactly its repeating delta). Each result therefore equals a
/// one-point batch of that point alone.
///
/// # Errors
///
/// Returns [`SyncPerfError::InvalidParams`] if `reps` is zero or
/// `placements` is empty.
pub fn run_batch(
    model: &CpuModel,
    body: &[CpuOp],
    placements: &[Placement],
    reps: u64,
    rec: &Recorder,
) -> Result<Vec<EngineResult>> {
    if reps == 0 {
        return Err(SyncPerfError::InvalidParams("reps must be > 0".into()));
    }
    if placements.is_empty() {
        return Err(SyncPerfError::InvalidParams(
            "batch needs at least one point".into(),
        ));
    }
    let mut span = rec.span("cpu_sim", "engine_run");
    span.push_arg("points", placements.len());
    span.push_arg(
        "threads",
        placements.iter().map(Placement::len).sum::<usize>(),
    );
    span.push_arg("ops", body.len());
    span.push_arg("reps", reps);
    let narration = rec.traces().then_some(Narration { body, rec });
    let table = PlanTable::compile(model, body, placements, rec, |p, contention| {
        if narration.is_some() {
            record_coherence_profile(model, p, contention, body, reps, rec);
        }
    });
    let results = run_table(&table, reps, narration.as_ref());
    let points = placements.len() as u64;
    rec.counter("cpu_sim.engine_runs").add(points);
    rec.counter("cpu_sim.barrier_rounds")
        .add(table.barriers_per_rep * reps * points);
    Ok(results)
}

/// Records the analytic coherence profile of one point from its
/// contention map: the number of MESI-level coherence transactions the
/// map implies (every contended access misses locally and goes through
/// the directory) and the arbitration-queue depth high-water mark.
/// Called only while the event plane is on.
fn record_coherence_profile(
    model: &CpuModel,
    placement: &Placement,
    contention: &ContentionMap,
    body: &[CpuOp],
    reps: u64,
    rec: &Recorder,
) {
    let arb = rec.gauge("cpu_sim.arb_queue_depth_max");
    let mut transitions = 0u64;
    let mut lines: Vec<(LineId, bool)> = Vec::with_capacity(2);
    for tid in 0..placement.len() {
        let core = placement.slot(tid).core;
        for op in body {
            lines.clear();
            match classify(op) {
                Access::None => {}
                Access::Read(dtype, target) => {
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), false));
                }
                Access::Write(dtype, target) => {
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), true));
                }
                Access::CriticalWrite(dtype, target) => {
                    lines.push((lock_line(), true));
                    lines.push((line_of(dtype, target, tid, contention.line_bytes()), true));
                }
            }
            for &(line, write) in &lines {
                let (c, _) = contention.contenders(line, core, write);
                arb.record(u64::from(c.min(model.contention_sat)));
                if c > 0 {
                    transitions += reps;
                }
            }
        }
    }
    rec.counter("cpu_sim.mesi_transitions").add(transitions);
}

/// The rep loop over a compiled [`PlanTable`]. With a narration the
/// first [`OBSERVED_REPS`] repetitions of every point are stepped lane
/// by lane with per-op events, and steady-state extrapolation is only
/// allowed past that window. `reps` must be positive.
fn run_table(table: &PlanTable, reps: u64, narration: Option<&Narration>) -> Vec<EngineResult> {
    let n = table.total_lanes;
    let mut t = vec![0u64; n];
    let mut pending = vec![0u64; n];
    // The steady-state detector's previous rep boundary, per lane:
    // clock, clock delta, offset above the point's slowest lane, and
    // `pending − t` (saturating).
    let mut prev_t = vec![0u64; n];
    let mut prev_delta = vec![0u64; n];
    let mut prev_off = vec![0u64; n];
    let mut prev_pend = vec![0u64; n];
    let mut order = Vec::new();
    let emit_reps = if narration.is_some() {
        OBSERVED_REPS
    } else {
        0
    };
    let has_barriers = table.barriers_per_rep > 0;
    let last = table.segments.len() - 1;
    let mut have_prev = false;
    let mut rep = 0u64;
    let mut all_steady = false;
    while rep < reps && !all_steady {
        for (seg_idx, seg) in table.segments.iter().enumerate() {
            match narration {
                Some(nar) if rep < emit_reps => {
                    for (point, p) in table.points.iter().enumerate() {
                        seg.step_narrated(&mut t, &mut pending, point, p, nar, rep);
                    }
                }
                _ => seg.step(&mut t, &mut pending),
            }
            if seg_idx < last {
                for p in &table.points {
                    rendezvous(
                        p.barrier_units,
                        p.stagger_units,
                        &mut t[p.start..p.start + p.lanes],
                        &mut order,
                    );
                }
            }
        }
        rep += 1;
        // Steady-state detection at the rep boundary: the stepping
        // relation is invariant under a uniform clock shift, so if this
        // rep's per-lane deltas, store-buffer horizons, and (when
        // barriers couple the lanes) offsets within the point all match
        // the previous rep's, every later rep repeats exactly.
        let may_extrapolate = have_prev && rep >= emit_reps;
        all_steady = may_extrapolate;
        for p in &table.points {
            let range = p.start..p.start + p.lanes;
            let min_t = t[range.clone()].iter().copied().min().unwrap_or(0);
            let mut steady = may_extrapolate;
            for lane in range {
                let delta = t[lane] - prev_t[lane];
                let off = t[lane] - min_t;
                let pend = pending[lane].saturating_sub(t[lane]);
                if steady
                    && (delta != prev_delta[lane]
                        || pend != prev_pend[lane]
                        || (has_barriers && off != prev_off[lane]))
                {
                    steady = false;
                }
                prev_delta[lane] = delta;
                prev_off[lane] = off;
                prev_pend[lane] = pend;
                prev_t[lane] = t[lane];
            }
            all_steady &= steady;
        }
        have_prev = true;
    }
    if rep < reps {
        // Every point is steady: extrapolate the remaining reps with
        // one exact integer multiply per lane.
        let remaining = reps - rep;
        for lane in 0..n {
            t[lane] += prev_delta[lane] * remaining;
            pending[lane] = t[lane] + prev_pend[lane];
        }
    }
    table
        .points
        .iter()
        .map(|p| EngineResult {
            per_thread_ns: t[p.start..p.start + p.lanes]
                .iter()
                .map(|&u| units_to_ns(u))
                .collect(),
            barrier_episodes: table.barriers_per_rep * reps,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_full_stepping, run_observed};
    use syncperf_core::{kernel, Affinity, DType, SYSTEM3};

    fn bodies() -> Vec<(&'static str, Vec<CpuOp>)> {
        vec![
            ("barrier", kernel::omp_barrier().test),
            ("flush", kernel::omp_flush(DType::I32, 1).test),
            ("critical", kernel::omp_critical_add(DType::F64).test),
            (
                "atomic",
                kernel::omp_atomic_update_scalar(DType::F32).baseline,
            ),
        ]
    }

    #[test]
    fn one_point_table_matches_interpreter() {
        let model = CpuModel::baseline();
        let rec = Recorder::disabled();
        for (name, body) in bodies() {
            for threads in [1u32, 2, 7, 16, 32] {
                let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, threads);
                for reps in [1u64, 3, 37] {
                    let table = PlanTable::compile(
                        &model,
                        &body,
                        std::slice::from_ref(&p),
                        &rec,
                        |_, _| {},
                    );
                    let got = run_table(&table, reps, None).pop().unwrap();
                    let oracle = run_full_stepping(&model, &p, &body, reps).unwrap();
                    assert_eq!(got, oracle, "{name} x{threads} reps={reps}");
                }
            }
        }
    }

    #[test]
    fn batch_matches_per_point_runs() {
        let model = CpuModel::baseline();
        let rec = Recorder::disabled();
        for (name, body) in bodies() {
            let placements: Vec<Placement> = [1u32, 2, 3, 8, 16, 24, 32]
                .iter()
                .map(|&n| Placement::new(&SYSTEM3.cpu, Affinity::Spread, n))
                .collect();
            for reps in [1u64, 4, 500] {
                let batch = run_batch(&model, &body, &placements, reps, &rec).unwrap();
                for (p, got) in placements.iter().zip(&batch) {
                    let single = run_observed(&model, p, &body, reps, &rec).unwrap();
                    assert_eq!(got, &single, "{name} reps={reps} n={}", p.len());
                }
            }
        }
    }

    #[test]
    fn batch_mixes_affinities() {
        let model = CpuModel::baseline();
        let rec = Recorder::disabled();
        let body = kernel::omp_flush(DType::I32, 1).test;
        let placements = vec![
            Placement::new(&SYSTEM3.cpu, Affinity::Close, 16),
            Placement::new(&SYSTEM3.cpu, Affinity::Close, 32),
            Placement::new(&SYSTEM3.cpu, Affinity::Spread, 16),
        ];
        let batch = run_batch(&model, &body, &placements, 200, &rec).unwrap();
        for (p, got) in placements.iter().zip(&batch) {
            let single = run_observed(&model, p, &body, 200, &rec).unwrap();
            assert_eq!(got, &single);
        }
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let model = CpuModel::baseline();
        let rec = Recorder::disabled();
        let body = kernel::omp_barrier().baseline;
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, 2);
        assert!(run_batch(&model, &body, &[p], 0, &rec).is_err());
        assert!(run_batch(&model, &body, &[], 10, &rec).is_err());
    }

    #[test]
    fn compile_time_goes_to_the_callers_recorder() {
        let model = CpuModel::baseline();
        let body = kernel::omp_flush(DType::I32, 1).test;
        let placements: Vec<Placement> = [2u32, 4]
            .iter()
            .map(|&n| Placement::new(&SYSTEM3.cpu, Affinity::Spread, n))
            .collect();
        let rec = Recorder::enabled();
        run_batch(&model, &body, &placements, 50, &rec).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.histogram("plan.compile_us").count(), 1);
        assert_eq!(snap.counter("plan.trace_ops"), (body.len() * 6) as u64);
        assert_eq!(snap.counter("cpu_sim.engine_runs"), 2, "one run per point");
        assert_eq!(
            snap.histogram("plan.batch_size").count(),
            0,
            "group sizes are the scheduler's to record"
        );
    }

    #[test]
    fn traced_batch_narrates_every_point() {
        let model = CpuModel::baseline();
        let body = kernel::omp_flush(DType::I32, 1).test;
        let placements: Vec<Placement> = [2u32, 4, 8]
            .iter()
            .map(|&n| Placement::new(&SYSTEM3.cpu, Affinity::Spread, n))
            .collect();
        let quiet = run_batch(&model, &body, &placements, 50, &Recorder::disabled()).unwrap();
        let rec = Recorder::tracing();
        assert_eq!(
            run_batch(&model, &body, &placements, 50, &rec).unwrap(),
            quiet
        );
        let events = rec.drain_events();
        let spans = events.iter().filter(|e| e.name == "engine_run").count();
        assert_eq!(spans, 1, "one span per table");
        for (point, p) in placements.iter().enumerate() {
            let ops = events
                .iter()
                .filter(|e| e.cat == "cpu_sim.op")
                .filter(|e| e.args.contains(&("point", ArgValue::from(point))))
                .count();
            assert_eq!(
                ops,
                p.len() * body.len() * OBSERVED_REPS as usize,
                "point {point}"
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cpu_sim.engine_runs"), 3);
        assert!(snap.counter("cpu_sim.store_buffer_drains") > 0);
    }
}
