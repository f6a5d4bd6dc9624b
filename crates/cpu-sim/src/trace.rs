//! The CPU engine's one evaluator: each parameter point compiled in
//! one dense pass into a struct-of-arrays `PlanTable` and advanced by
//! `run_table`.
//!
//! Every production engine run goes through this loop, and [`run_batch`]
//! is its one entry point and its one recording site. A batched sweep
//! (behind the scheduler's `JobSpec::batch_prime`) compiles many
//! parameter points of one kernel shape into one table; a single point
//! ([`crate::engine::run_observed`]) is a table of one.
//!
//! **Compilation.** An op's cost depends on the thread only through the
//! contention on the lines it touches and whether its core is
//! SMT-loaded ([`crate::plan`]). Which threads share a line is
//! arithmetic, not a lookup: an operand's `Stripe` puts thread `tid`
//! on line `base + ⌊tid · step / 64⌋`, so a private element's line holds
//! a run of consecutive threads, and a shared scalar's line or the lock
//! line holds the whole team. Per point, the pass walks each line's
//! threads once, counts their distinct cores and sockets with stamp
//! arrays (no hash map, no per-line set), calls the cost function once
//! per run of threads with the same `(contention, SMT)` key, and writes
//! each cost into its table cell directly. Stripes of one memory region
//! that could meet on a line (two strides into one array) are merged by
//! line before counting. The cells equal [`crate::plan::op_cost`] —
//! the [`crate::memline::ContentionMap`]-based oracle — on every
//! `(thread, op)`.
//!
//! **Evaluation.** Every `(thread, op)` is a pre-resolved
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
//! Per op, the lanes of every point sit back-to-back, so one contiguous
//! pass advances a whole sweep group through that op (the inner loop is
//! a flat `u64` kernel over adjacent lanes — the layout
//! autovectorizes). Rendezvous, steady-state detection, and
//! extrapolation stay per point and bit-exact. With a tracing recorder
//! the first [`OBSERVED_REPS`] repetitions step lane by lane instead,
//! so each op of every point can be narrated as a `cpu_sim.op` event
//! (plus a `store_buffer_drain` event at draining fences) in point and
//! thread order.

use std::ops::Range;
use std::time::Instant;

use syncperf_core::obs::{ArgValue, Recorder};
use syncperf_core::{CpuOp, Result, SyncPerfError};

use crate::config::CpuModel;
use crate::engine::{EngineResult, OBSERVED_REPS};
use crate::memline::Stripe;
use crate::plan::{cost_of, quantize, units_to_ns, OpContention, OpLines, PlanOp};
use crate::topology::Placement;

/// Cache-line size of the production compile, in bytes.
const LINE_BYTES: usize = 64;

/// One barrier-free segment of a table: body ops `first ..` are table
/// rows `rows`.
#[derive(Debug, Clone)]
struct Segment {
    /// Body index of the segment's first op.
    first: usize,
    rows: Range<usize>,
}

/// The branchless per-lane update from the module docs. Returns the
/// store-buffer drain the op paid (nonzero only at fences).
#[allow(clippy::inline_always)] // the AVX-512 copy must contain it
#[inline(always)]
fn advance(t: &mut u64, pending: &mut u64, adv: u64, ext: u64, mask: u64) -> u64 {
    let drain = pending.saturating_sub(*t) & mask;
    *t += adv + drain;
    *pending = (*pending).max(*t + ext);
    drain
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

/// Same-shape parameter points compiled into one struct-of-arrays
/// table: one row per non-barrier body op, and in each row the lanes of
/// every point back-to-back, so one contiguous pass advances the whole
/// sweep group through that op.
#[derive(Debug)]
struct PlanTable {
    /// Per-(row, lane) clock advance, fixed-point units.
    advance: Vec<u64>,
    /// Per-(row, lane) store-buffer horizon extension (0 except stores).
    extra: Vec<u64>,
    /// Per-row drain mask: `!0` at fences, `0` elsewhere. The op kind
    /// depends only on the body, so one scalar covers every lane.
    mask: Vec<u64>,
    segments: Vec<Segment>,
    points: Vec<TablePoint>,
    total_lanes: usize,
    barriers_per_rep: u64,
    /// The coherence profile, compiled only for a tracing recorder.
    profile: Option<CoherenceProfile>,
}

/// The analytic coherence profile of a table: per repetition, the
/// contended line accesses (each a MESI-level transaction through the
/// directory), and the arbitration-queue high-water depth.
#[derive(Debug, Default, Clone, Copy)]
struct CoherenceProfile {
    transitions_per_rep: u64,
    arb_depth_max: u32,
}

impl CoherenceProfile {
    /// Counts one thread's accesses of an op that meets contention `c`
    /// on `stripes`, once per copy of the op in the body.
    fn count(&mut self, sat: u32, stripes: OpStripes, c: OpContention) {
        for (touched, (contenders, _)) in [
            (stripes.data.is_some(), c.line),
            (stripes.lock.is_some(), c.lock),
        ] {
            if touched {
                self.arb_depth_max = self.arb_depth_max.max(contenders.min(sat));
                self.transitions_per_rep += u64::from(contenders > 0) * stripes.copies;
            }
        }
    }
}

impl PlanTable {
    /// Compiles `body` at each placement into one table, one dense pass
    /// per point (see the module docs). A live recorder gets the
    /// compile time in `plan.compile_us` and the table size in
    /// `plan.trace_ops`; a tracing one also gets the table's
    /// [`CoherenceProfile`], counted in the same pass.
    fn compile(model: &CpuModel, body: &[CpuOp], placements: &[Placement], rec: &Recorder) -> Self {
        let start = rec.is_enabled().then(Instant::now);
        let lines = BodyLines::of(body);
        let total_lanes: usize = placements.iter().map(Placement::len).sum();
        let mut segments = Vec::new();
        let mut mask = Vec::with_capacity(body.len());
        let mut row_of = vec![usize::MAX; body.len()];
        let (mut first, mut first_row) = (0, 0);
        for (idx, op) in body.iter().enumerate() {
            if matches!(op, CpuOp::Barrier) {
                segments.push(Segment {
                    first,
                    rows: first_row..mask.len(),
                });
                (first, first_row) = (idx + 1, mask.len());
            } else {
                row_of[idx] = mask.len();
                mask.push(if matches!(op, CpuOp::Flush) { !0 } else { 0 });
            }
        }
        segments.push(Segment {
            first,
            rows: first_row..mask.len(),
        });
        let mut advance = vec![0u64; mask.len() * total_lanes];
        let mut extra = vec![0u64; mask.len() * total_lanes];

        let mut team = Team::default();
        let mut profile = rec.traces().then(CoherenceProfile::default);
        let mut points = Vec::with_capacity(placements.len());
        let mut at = 0usize;
        for p in placements {
            let n = p.len();
            team.place(p, &lines);
            for (idx, op) in body.iter().enumerate() {
                if let Some(stripes) = lines.ops[idx] {
                    let cells = row_of[idx] * total_lanes + at..row_of[idx] * total_lanes + at + n;
                    team.fill(
                        model,
                        op,
                        stripes,
                        &mut advance[cells.clone()],
                        &mut extra[cells],
                        profile.as_mut(),
                    );
                }
            }
            #[allow(clippy::cast_possible_truncation)]
            points.push(TablePoint {
                start: at,
                lanes: n,
                barrier_units: quantize(model.barrier_ns(n as u32)),
                stagger_units: quantize(model.release_stagger_ns),
            });
            at += n;
        }
        // A cost depends on the op, not its position: a repeated op (a
        // test body is often its baseline's op twice) copies the first
        // occurrence's row.
        for (idx, op) in body.iter().enumerate() {
            if row_of[idx] == usize::MAX || lines.ops[idx].is_some() {
                continue;
            }
            let from = row_of[body.iter().position(|o| o == op).expect("first occurrence")];
            let src = from * total_lanes..(from + 1) * total_lanes;
            advance.copy_within(src.clone(), row_of[idx] * total_lanes);
            extra.copy_within(src, row_of[idx] * total_lanes);
        }

        let table = Self {
            advance,
            extra,
            mask,
            barriers_per_rep: segments.len() as u64 - 1,
            segments,
            points,
            total_lanes,
            profile,
        };
        if let Some(start) = start {
            rec.histogram("plan.compile_us")
                .observe(start.elapsed().as_micros() as u64);
            rec.counter("plan.trace_ops")
                .add(table.advance.len() as u64);
        }
        table
    }

    /// Advances every lane through every op of `seg`.
    #[allow(clippy::inline_always)] // the AVX-512 copy must contain it
    #[inline(always)]
    fn step(&self, seg: &Segment, t: &mut [u64], pending: &mut [u64]) {
        let lanes = self.total_lanes;
        for row in seg.rows.clone() {
            let base = row * lanes;
            let adv = &self.advance[base..base + lanes];
            let ext = &self.extra[base..base + lanes];
            let mask = self.mask[row];
            for (((t, pending), &adv), &ext) in
                t.iter_mut().zip(pending.iter_mut()).zip(adv).zip(ext)
            {
                advance(t, pending, adv, ext, mask);
            }
        }
    }

    /// [`Self::step`] for point `point` of the table, lane by lane,
    /// narrating every op of repetition `rep` into `nar`'s recorder.
    fn step_narrated(
        &self,
        seg: &Segment,
        t: &mut [u64],
        pending: &mut [u64],
        point: usize,
        nar: &Narration,
        rep: u64,
    ) {
        let p = &self.points[point];
        for tid in 0..p.lanes {
            let lane = p.start + tid;
            for (op, row) in seg.rows.clone().enumerate() {
                let i = row * self.total_lanes + lane;
                let before = t[lane];
                let drain = advance(
                    &mut t[lane],
                    &mut pending[lane],
                    self.advance[i],
                    self.extra[i],
                    self.mask[row],
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
                let idx = seg.first + op;
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

/// The stripes one op touches, as indices into [`BodyLines::stripes`]:
/// its data stripe with whether the op writes it, and the lock stripe.
#[derive(Debug, Clone, Copy)]
struct OpStripes {
    data: Option<(usize, bool)>,
    lock: Option<usize>,
    /// How many times the op occurs in the body.
    copies: u64,
}

/// The line geometry of a body, the same at every point: its distinct
/// stripes, grouped by memory region (only stripes of one region can
/// meet on a line).
#[derive(Debug)]
struct BodyLines {
    stripes: Vec<Stripe>,
    /// Per stripe: whether any op writes through it.
    writes: Vec<bool>,
    /// Stripe indices, one group per region.
    regions: Vec<Vec<usize>>,
    /// Per body op: its stripes, for the first occurrence of each
    /// non-barrier op (`None` for barriers and repeats).
    ops: Vec<Option<OpStripes>>,
}

impl BodyLines {
    fn of(body: &[CpuOp]) -> Self {
        let mut lines = BodyLines {
            stripes: Vec::new(),
            writes: Vec::new(),
            regions: Vec::new(),
            ops: Vec::with_capacity(body.len()),
        };
        for (idx, op) in body.iter().enumerate() {
            if matches!(op, CpuOp::Barrier) || body[..idx].contains(op) {
                lines.ops.push(None);
                continue;
            }
            let touched = OpLines::of(op);
            let data = touched.data.map(|(dtype, target, is_write)| {
                (lines.intern(Stripe::of(dtype, target), is_write), is_write)
            });
            let lock = touched.lock.then(|| lines.intern(Stripe::lock(), true));
            let copies = body[idx..].iter().filter(|&o| o == op).count() as u64;
            lines.ops.push(Some(OpStripes { data, lock, copies }));
        }
        lines
    }

    /// The index of `stripe`, added on first sight; `write` marks it
    /// written.
    fn intern(&mut self, stripe: Stripe, write: bool) -> usize {
        let s = if let Some(s) = self.stripes.iter().position(|&x| x == stripe) {
            s
        } else {
            let s = self.stripes.len();
            self.stripes.push(stripe);
            self.writes.push(false);
            let stripes = &self.stripes;
            match self
                .regions
                .iter_mut()
                .find(|r| stripes[r[0]].region == stripe.region)
            {
                Some(r) => r.push(s),
                None => self.regions.push(vec![s]),
            }
            s
        };
        self.writes[s] |= write;
        s
    }
}

/// What one thread meets on the line one stripe puts it on.
#[derive(Debug, Clone, Copy, Default)]
struct LineFacts {
    /// Contenders of a write: the line's other accessing cores.
    write: u32,
    /// Contenders of a read: the line's other writing cores.
    read: u32,
    /// Whether the line's accessors span sockets.
    cross: bool,
}

impl LineFacts {
    fn contenders(self, is_write: bool) -> (u32, bool) {
        (if is_write { self.write } else { self.read }, self.cross)
    }
}

/// One point's team during compilation, reused across points: where
/// each thread runs and, per `(stripe, thread)`, the facts of its line.
#[derive(Debug, Default)]
struct Team {
    core: Vec<u32>,
    socket: Vec<u32>,
    smt: Vec<bool>,
    /// Stripe-major: `facts[stripe * threads + tid]`.
    facts: Vec<LineFacts>,
    /// `(line index, tid, stripe)` of one multi-stripe region, ordered
    /// by line.
    entries: Vec<(u64, usize, usize)>,
    /// Stamp arrays: the last line that counted a core, a writing core,
    /// a socket.
    core_seen: Vec<u32>,
    writer_seen: Vec<u32>,
    socket_seen: Vec<u32>,
    stamp: u32,
}

impl Team {
    /// Places the team of `p` and works out the facts of every line
    /// `lines` puts a thread on.
    fn place(&mut self, p: &Placement, lines: &BodyLines) {
        let n = p.len();
        self.core.clear();
        self.socket.clear();
        self.smt.clear();
        let (mut cores, mut sockets) = (0, 0);
        p.for_each_thread(|slot, smt| {
            self.core.push(slot.core);
            self.socket.push(slot.socket);
            self.smt.push(smt);
            cores = cores.max(slot.core as usize + 1);
            sockets = sockets.max(slot.socket as usize + 1);
        });
        for (seen, len) in [
            (&mut self.core_seen, cores),
            (&mut self.writer_seen, cores),
            (&mut self.socket_seen, sockets),
        ] {
            if seen.len() < len {
                seen.resize(len, 0);
            }
        }
        self.facts.clear();
        self.facts
            .resize(lines.stripes.len() * n, LineFacts::default());
        for region in &lines.regions {
            if let &[s] = region.as_slice() {
                // One stripe's lines rise with the thread id: each line
                // holds a run of consecutive threads.
                let stripe = lines.stripes[s];
                let mut tid = 0;
                while tid < n {
                    let line = stripe.index(tid, LINE_BYTES);
                    let end = (tid + 1..n)
                        .find(|&t| stripe.index(t, LINE_BYTES) != line)
                        .unwrap_or(n);
                    if end == tid + 1 {
                        // A thread alone on its line meets no one.
                        self.facts[s * n + tid] = LineFacts::default();
                    } else {
                        self.count_line((tid..end).map(|t| (t, s)), &lines.writes, n);
                    }
                    tid = end;
                }
                continue;
            }
            // Two stripes of a region interleave: merge them by line.
            let mut entries = std::mem::take(&mut self.entries);
            entries.clear();
            for &s in region {
                let stripe = lines.stripes[s];
                entries.extend((0..n).map(|tid| (stripe.index(tid, LINE_BYTES), tid, s)));
            }
            entries.sort_unstable_by_key(|e| e.0);
            for group in entries.chunk_by(|a, b| a.0 == b.0) {
                self.count_line(group.iter().map(|&(_, t, s)| (t, s)), &lines.writes, n);
            }
            self.entries = entries;
        }
    }

    /// Counts one line's distinct cores, writing cores and sockets over
    /// the `(tid, stripe)` accesses of `group`, and records each
    /// access's facts.
    fn count_line(
        &mut self,
        group: impl Iterator<Item = (usize, usize)> + Clone,
        writes: &[bool],
        n: usize,
    ) {
        self.stamp += 1;
        let stamp = self.stamp;
        let (mut cores, mut writers, mut sockets) = (0u32, 0u32, 0u32);
        for (tid, s) in group.clone() {
            let core = self.core[tid] as usize;
            let socket = self.socket[tid] as usize;
            if self.core_seen[core] != stamp {
                self.core_seen[core] = stamp;
                cores += 1;
            }
            if self.socket_seen[socket] != stamp {
                self.socket_seen[socket] = stamp;
                sockets += 1;
            }
            if writes[s] && self.writer_seen[core] != stamp {
                self.writer_seen[core] = stamp;
                writers += 1;
            }
        }
        for (tid, s) in group {
            let writes_here = self.writer_seen[self.core[tid] as usize] == stamp;
            self.facts[s * n + tid] = LineFacts {
                // The thread's own core accesses the line.
                write: cores - 1,
                read: writers - u32::from(writes_here),
                cross: sockets > 1,
            };
        }
    }

    /// Writes the cost of `op` for every thread of the placed team into
    /// `adv` and `ext`, calling the cost function once per run of
    /// threads with one `(contention, SMT)` key, and counts each
    /// thread's key into `profile`.
    fn fill(
        &self,
        model: &CpuModel,
        op: &CpuOp,
        stripes: OpStripes,
        adv: &mut [u64],
        ext: &mut [u64],
        mut profile: Option<&mut CoherenceProfile>,
    ) {
        let n = adv.len();
        let mut last: Option<(OpContention, bool, (u64, u64))> = None;
        for tid in 0..n {
            let c = OpContention {
                line: stripes.data.map_or((0, false), |(s, is_write)| {
                    self.facts[s * n + tid].contenders(is_write)
                }),
                lock: stripes
                    .lock
                    .map_or((0, false), |s| self.facts[s * n + tid].contenders(true)),
            };
            if let Some(profile) = profile.as_deref_mut() {
                profile.count(model.contention_sat, stripes, c);
            }
            let smt = self.smt[tid];
            let cell = match last {
                Some((lc, ls, cell)) if lc == c && ls == smt => cell,
                _ => {
                    let cell = cell_of(cost_of(model, op, c, smt).0);
                    last = Some((c, smt, cell));
                    cell
                }
            };
            adv[tid] = cell.0;
            ext[tid] = cell.1;
        }
    }
}

/// A compiled cost as its table cell `(advance, extra)`.
fn cell_of(cost: PlanOp) -> (u64, u64) {
    match cost {
        PlanOp::Barrier => unreachable!("barriers delimit segments"),
        PlanOp::Fixed(cost) => (cost, 0),
        PlanOp::Store {
            visible,
            pending_extra,
        } => (visible, pending_extra),
        PlanOp::Flush { base } => (base, 0),
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
    let table = PlanTable::compile(model, body, placements, rec);
    if let Some(profile) = table.profile {
        rec.gauge("cpu_sim.arb_queue_depth_max")
            .record(u64::from(profile.arb_depth_max));
        rec.counter("cpu_sim.mesi_transitions")
            .add(profile.transitions_per_rep * reps);
    }
    let results = run_table(&table, reps, narration.as_ref());
    let points = placements.len() as u64;
    rec.counter("cpu_sim.engine_runs").add(points);
    rec.counter("cpu_sim.barrier_rounds")
        .add(table.barriers_per_rep * reps * points);
    Ok(results)
}

/// The rep loop over a compiled [`PlanTable`], on the AVX-512 copy of
/// [`run_table_portable`] when the CPU has it
/// ([`syncperf_core::wide`]). `reps` must be positive.
fn run_table(table: &PlanTable, reps: u64, narration: Option<&Narration>) -> Vec<EngineResult> {
    #[cfg(target_arch = "x86_64")]
    if syncperf_core::wide::avx512() {
        // SAFETY: `avx512()` found every feature the copy enables.
        return unsafe { run_table_avx512(table, reps, narration) };
    }
    run_table_portable(table, reps, narration)
}

/// [`run_table_portable`] compiled for AVX-512, whose 64-bit vector
/// max/min and multiply let the lane loops of [`PlanTable::step`], the
/// steady-state check and the extrapolation vectorize.
///
/// # Safety
///
/// The CPU must have every enabled feature
/// ([`syncperf_core::wide::avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
unsafe fn run_table_avx512(
    table: &PlanTable,
    reps: u64,
    narration: Option<&Narration>,
) -> Vec<EngineResult> {
    run_table_portable(table, reps, narration)
}

/// The rep loop's one source body, pure `u64` arithmetic up to the
/// final conversion to nanoseconds. With a narration the first
/// [`OBSERVED_REPS`] repetitions of every point are stepped lane by
/// lane with per-op events, and steady-state extrapolation is only
/// allowed past that window.
#[allow(clippy::inline_always)] // the AVX-512 copy must contain it
#[inline(always)]
fn run_table_portable(
    table: &PlanTable,
    reps: u64,
    narration: Option<&Narration>,
) -> Vec<EngineResult> {
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
                    for point in 0..table.points.len() {
                        table.step_narrated(seg, &mut t, &mut pending, point, nar, rep);
                    }
                }
                _ => table.step(seg, &mut t, &mut pending),
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
            // Equal-length subslices, so the lane loop has no bounds
            // checks and vectorizes.
            let r = p.start..p.start + p.lanes;
            let (t, pending) = (&t[r.clone()], &pending[r.clone()]);
            let (prev_t, prev_delta) = (&mut prev_t[r.clone()], &mut prev_delta[r.clone()]);
            let (prev_off, prev_pend) = (&mut prev_off[r.clone()], &mut prev_pend[r]);
            let min_t = t.iter().copied().min().unwrap_or(0);
            let mut changed = false;
            for lane in 0..t.len() {
                let delta = t[lane] - prev_t[lane];
                let off = t[lane] - min_t;
                let pend = pending[lane].saturating_sub(t[lane]);
                changed |= delta != prev_delta[lane]
                    || pend != prev_pend[lane]
                    || (has_barriers && off != prev_off[lane]);
                prev_delta[lane] = delta;
                prev_off[lane] = off;
                prev_pend[lane] = pend;
                prev_t[lane] = t[lane];
            }
            all_steady &= !changed;
        }
        have_prev = true;
    }
    if rep < reps {
        // Every point is steady: extrapolate the remaining reps with
        // one exact integer multiply per lane.
        let remaining = reps - rep;
        for (((t, pending), &delta), &pend) in t
            .iter_mut()
            .zip(&mut pending)
            .zip(&prev_delta)
            .zip(&prev_pend)
        {
            *t += delta * remaining;
            *pending = *t + pend;
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
    use crate::memline::{line_of, lock_line, ContentionMap};
    use crate::plan::op_cost;
    use syncperf_core::{kernel, Affinity, DType, Target, SYSTEM1, SYSTEM2, SYSTEM3};

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

    /// Asserts every cell of one table compiled from `placements` is
    /// the oracle's [`op_cost`] of its `(thread, op)`, and every
    /// point's barrier constants are the model's.
    fn assert_table_is_the_oracle(
        model: &CpuModel,
        body: &[CpuOp],
        placements: &[Placement],
        what: &str,
    ) {
        let table = PlanTable::compile(model, body, placements, &Recorder::disabled());
        assert_eq!(table.points.len(), placements.len());
        for (p, point) in placements.iter().zip(&table.points) {
            assert_eq!(point.lanes, p.len());
            assert_eq!(
                point.barrier_units,
                quantize(model.barrier_ns(p.len() as u32))
            );
            assert_eq!(point.stagger_units, quantize(model.release_stagger_ns));
            let contention = ContentionMap::analyze(body, p, LINE_BYTES);
            for seg in &table.segments {
                for (op, row) in seg.rows.clone().enumerate() {
                    let idx = seg.first + op;
                    for tid in 0..p.len() {
                        let cell = row * table.total_lanes + point.start + tid;
                        let want = cell_of(op_cost(model, p, &contention, &body[idx], tid));
                        assert_eq!(
                            (table.advance[cell], table.extra[cell]),
                            want,
                            "{what}: {:?} tid {tid} of {:?}",
                            body[idx],
                            p
                        );
                    }
                }
            }
        }
        let ops = body
            .iter()
            .filter(|op| !matches!(op, CpuOp::Barrier))
            .count();
        assert_eq!(table.advance.len(), ops * table.total_lanes, "{what}");
    }

    /// Both bodies of every CPU kernel constructor, over every dtype
    /// and a spread of strides.
    fn every_kernel_body() -> Vec<(String, Vec<CpuOp>)> {
        let mut kernels = vec![kernel::omp_barrier()];
        for dt in DType::ALL {
            kernels.extend([
                kernel::omp_atomic_update_scalar(dt),
                kernel::omp_atomic_capture_scalar(dt),
                kernel::omp_atomic_write(dt),
                kernel::omp_atomic_read(dt),
                kernel::omp_critical_add(dt),
                kernel::omp_critical_section(dt),
            ]);
            for stride in [0u32, 1, 3, 8, 16, 64] {
                kernels.push(kernel::omp_atomic_update_array(dt, stride));
                kernels.push(kernel::omp_flush(dt, stride));
            }
        }
        kernels
            .into_iter()
            .flat_map(|k| {
                [
                    (format!("{} baseline", k.name), k.baseline),
                    (format!("{} test", k.name), k.test),
                ]
            })
            .collect()
    }

    #[test]
    fn every_cell_is_the_oracle_cost() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let model = CpuModel::for_system(&sys.cpu, sys.cpu_jitter);
            let cores = sys.cpu.total_cores();
            let hw = sys.cpu.total_threads();
            // One table per body mixing every thread count and
            // affinity, so points of different shapes share rows.
            let placements: Vec<Placement> = [1, 2, cores, cores + 1, hw, hw + 1]
                .into_iter()
                .flat_map(|n| {
                    [Affinity::Close, Affinity::Spread, Affinity::SystemChoice]
                        .map(|aff| Placement::new(&sys.cpu, aff, n))
                })
                .collect();
            for (name, body) in every_kernel_body() {
                assert_table_is_the_oracle(&model, &body, &placements, &format!("{sys} {name}"));
            }
        }
    }

    /// The coherence profile of `body` at `placements` from contention
    /// maps: per repetition, every line access of every op (the lock
    /// line of a critical bracket too) that meets a contender, and the
    /// deepest saturated arbitration queue.
    fn profile_oracle(model: &CpuModel, body: &[CpuOp], placements: &[Placement]) -> (u64, u32) {
        let (mut transitions, mut depth) = (0, 0);
        for p in placements {
            let contention = ContentionMap::analyze(body, p, LINE_BYTES);
            for tid in 0..p.len() {
                let core = p.slot(tid).core;
                for op in body {
                    let lines = OpLines::of(op);
                    let data = lines
                        .data
                        .map(|(dtype, target, w)| (line_of(dtype, target, tid, LINE_BYTES), w));
                    let lock = lines.lock.then(|| (lock_line(), true));
                    for (line, write) in data.into_iter().chain(lock) {
                        let (c, _) = contention.contenders(line, core, write);
                        depth = depth.max(c.min(model.contention_sat));
                        transitions += u64::from(c > 0);
                    }
                }
            }
        }
        (transitions, depth)
    }

    #[test]
    fn coherence_profile_is_the_oracles() {
        for sys in [&SYSTEM1, &SYSTEM3] {
            let model = CpuModel::for_system(&sys.cpu, sys.cpu_jitter);
            let placements: Vec<Placement> = [1, 4, sys.cpu.total_cores() + 1]
                .into_iter()
                .flat_map(|n| {
                    [Affinity::Close, Affinity::Spread].map(|aff| Placement::new(&sys.cpu, aff, n))
                })
                .collect();
            for (name, body) in every_kernel_body() {
                let table = PlanTable::compile(&model, &body, &placements, &Recorder::tracing());
                let profile = table.profile.expect("a tracing compile counts the profile");
                assert_eq!(
                    (profile.transitions_per_rep, profile.arb_depth_max),
                    profile_oracle(&model, &body, &placements),
                    "{sys} {name}"
                );
            }
        }
        let quiet = PlanTable::compile(
            &CpuModel::baseline(),
            &kernel::omp_barrier().test,
            &[Placement::new(&SYSTEM3.cpu, Affinity::Spread, 2)],
            &Recorder::enabled(),
        );
        assert!(quiet.profile.is_none(), "only tracing pays for the profile");
    }

    #[test]
    fn critical_brackets_count_their_lock_line() {
        let model = CpuModel::baseline();
        let p = [Placement::new(&SYSTEM3.cpu, Affinity::Spread, 4)];
        let transitions = |body: &[CpuOp]| {
            let rec = Recorder::tracing();
            run_batch(&model, body, &p, 10, &rec).unwrap();
            rec.snapshot().counter("cpu_sim.mesi_transitions")
        };
        let upd = CpuOp::Update {
            dtype: DType::I32,
            target: Target::SHARED,
        };
        let bracketed = [
            CpuOp::CriticalBegin { lock: 0 },
            upd,
            CpuOp::CriticalEnd { lock: 0 },
        ];
        let fused = CpuOp::CriticalAdd {
            dtype: DType::I32,
            target: Target::SHARED,
        };
        // 4 threads, each contended access once per rep for 10 reps.
        assert_eq!(transitions(&[upd]), 40);
        assert_eq!(transitions(&[fused]), 80, "data line and lock line");
        assert_eq!(transitions(&bracketed), 120, "acquire, update, release");
        assert_eq!(transitions(&[upd, upd]), 80, "a repeated op counts twice");
    }

    #[test]
    fn stripes_that_meet_on_a_line_are_merged() {
        // Bodies no kernel builds but the engine accepts: two strides
        // into one array, a read and a write of one private element,
        // and int array 16 sharing its region with u64 array 0.
        let upd = |dtype, array, stride| CpuOp::Update {
            dtype,
            target: Target::Private { array, stride },
        };
        let read = |dtype, array, stride| CpuOp::Read {
            dtype,
            target: Target::Private { array, stride },
        };
        let bodies = [
            vec![upd(DType::I32, 0, 1), upd(DType::I32, 0, 3)],
            vec![read(DType::I32, 0, 2), upd(DType::I32, 0, 5), CpuOp::Flush],
            vec![
                read(DType::F64, 1, 1),
                CpuOp::Barrier,
                upd(DType::F64, 1, 1),
            ],
            vec![upd(DType::I32, 16, 2), read(DType::U64, 0, 1), CpuOp::Flush],
            vec![
                read(DType::U64, 0, 0),
                read(DType::U64, 0, 9),
                upd(DType::U64, 0, 9),
            ],
        ];
        let model = CpuModel::baseline();
        let placements: Vec<Placement> = [1u32, 5, 16, 17, 33]
            .into_iter()
            .flat_map(|n| {
                [Affinity::Close, Affinity::Spread].map(|aff| Placement::new(&SYSTEM3.cpu, aff, n))
            })
            .collect();
        for (i, body) in bodies.iter().enumerate() {
            assert_table_is_the_oracle(&model, body, &placements, &format!("body {i}"));
        }
    }

    #[test]
    fn one_point_table_matches_interpreter() {
        let model = CpuModel::baseline();
        let rec = Recorder::disabled();
        for (name, body) in bodies() {
            for threads in [1u32, 2, 7, 16, 32] {
                let p = Placement::new(&SYSTEM3.cpu, Affinity::Spread, threads);
                for reps in [1u64, 3, 37] {
                    let table = PlanTable::compile(&model, &body, std::slice::from_ref(&p), &rec);
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_rep_loop_equals_portable() {
        if !syncperf_core::wide::avx512() {
            println!("note: no AVX-512 on this CPU; the rep loop has no wide copy to check");
            return;
        }
        let rec = Recorder::disabled();
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let model = CpuModel::for_system(&sys.cpu, sys.cpu_jitter);
            let placements: Vec<Placement> = (1..=64u32)
                .flat_map(|n| {
                    [Affinity::Close, Affinity::Spread, Affinity::SystemChoice]
                        .map(|aff| Placement::new(&sys.cpu, aff, n))
                })
                .collect();
            for (name, body) in every_kernel_body() {
                let table = PlanTable::compile(&model, &body, &placements, &rec);
                for reps in [1u64, 1000] {
                    let portable = run_table_portable(&table, reps, None);
                    // SAFETY: `avx512()` found every feature the copy enables.
                    let got = unsafe { run_table_avx512(&table, reps, None) };
                    assert_eq!(got, portable, "{sys} {name} reps={reps}");
                }
            }
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
