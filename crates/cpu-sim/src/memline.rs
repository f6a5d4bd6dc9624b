//! Address → cache-line mapping and static contention analysis.
//!
//! The measured workloads are regular: every thread touches the same
//! addresses every iteration. The sharing pattern of each 64-byte line
//! is therefore static and can be computed up front: which cores write
//! the line, which cores touch it, and whether those cores span
//! sockets. The engine turns this into per-op coherence costs.

use std::collections::{BTreeSet, HashMap};

use syncperf_core::{CpuOp, DType, Target};

use crate::topology::Placement;

/// Identifies one cache line of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId {
    /// Memory region: scalars and each (dtype, array) pair live in
    /// disjoint regions so they can never share a line.
    region: u32,
    /// Line index within the region.
    index: u64,
}

/// Region id of the critical-section lock word.
const REGION_LOCK: u32 = 0xFFFF_0000;

fn dtype_idx(dtype: DType) -> u32 {
    match dtype {
        DType::I32 => 0,
        DType::U64 => 1,
        DType::F32 => 2,
        DType::F64 => 3,
    }
}

/// How one `(dtype, target)` operand maps threads to lines: thread
/// `tid` touches line `base + ⌊tid · step / line_bytes⌋` of `region`.
/// A shared scalar has step 0, so the whole team touches one line; a
/// private element advances `stride × sizeof(dtype)` bytes per thread,
/// so consecutive threads share a line until their elements cross into
/// the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stripe {
    /// Memory region of every line of the stripe.
    pub(crate) region: u32,
    base: u64,
    step: u64,
}

impl Stripe {
    /// The stripe of `(dtype, target)`. Shared scalars each occupy
    /// their own line (the paper pads them to separate cache lines);
    /// private elements land at byte offset `tid × stride ×
    /// sizeof(dtype)` of their array.
    pub(crate) fn of(dtype: DType, target: Target) -> Self {
        match target {
            Target::SharedScalar(i) => Stripe {
                region: 0x1000 + u32::from(i),
                base: u64::from(dtype_idx(dtype)),
                step: 0,
            },
            Target::Private { array, stride } => Stripe {
                region: 0x2000 + dtype_idx(dtype) * 16 + u32::from(array),
                base: 0,
                step: u64::from(stride) * dtype.size_bytes() as u64,
            },
        }
    }

    /// The critical-section lock word's stripe: one line for the team.
    pub(crate) fn lock() -> Self {
        Stripe {
            region: REGION_LOCK,
            base: 0,
            step: 0,
        }
    }

    /// Index within [`Stripe::region`] of the line thread `tid` touches.
    pub(crate) fn index(self, tid: usize, line_bytes: usize) -> u64 {
        self.base + tid as u64 * self.step / line_bytes as u64
    }
}

/// The line touched by `(dtype, target)` for thread `tid`: line
/// `base + ⌊tid · step / line_bytes⌋` of the operand's region (its
/// `Stripe`).
#[must_use]
pub fn line_of(dtype: DType, target: Target, tid: usize, line_bytes: usize) -> LineId {
    let stripe = Stripe::of(dtype, target);
    LineId {
        region: stripe.region,
        index: stripe.index(tid, line_bytes),
    }
}

/// The line holding the (unnamed) critical-section lock.
#[must_use]
pub fn lock_line() -> LineId {
    LineId {
        region: REGION_LOCK,
        index: 0,
    }
}

/// Static per-line sharing facts.
#[derive(Debug, Default, Clone)]
pub struct LineStats {
    writer_cores: BTreeSet<u32>,
    accessor_cores: BTreeSet<u32>,
    sockets: BTreeSet<u32>,
}

impl LineStats {
    /// Records that `slot`'s core touches the line, writing it when
    /// `writes`.
    fn touch(&mut self, core: u32, socket: u32, writes: bool) {
        self.accessor_cores.insert(core);
        self.sockets.insert(socket);
        if writes {
            self.writer_cores.insert(core);
        }
    }

    /// [`ContentionMap::contenders`] for this line, already looked up
    /// with [`ContentionMap::line`].
    #[must_use]
    pub fn contenders(&self, my_core: u32, is_write: bool) -> (u32, bool) {
        let set = if is_write {
            &self.accessor_cores
        } else {
            &self.writer_cores
        };
        let others = (set.len() - usize::from(set.contains(&my_core))) as u32;
        (others, self.sockets.len() > 1)
    }
}

/// What one op does to memory, for analysis purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// No memory target (barrier, flush).
    None,
    /// Reads the target.
    Read(DType, Target),
    /// Writes (or read-modify-writes) the target.
    Write(DType, Target),
    /// Critical section around a write: also hammers the lock line.
    CriticalWrite(DType, Target),
}

/// Classifies a CPU op.
#[must_use]
pub fn classify(op: &CpuOp) -> Access {
    match *op {
        // CriticalBegin/End touch only the lock line, which
        // `ContentionMap::analyze` registers explicitly.
        CpuOp::Barrier | CpuOp::Flush | CpuOp::CriticalBegin { .. } | CpuOp::CriticalEnd { .. } => {
            Access::None
        }
        CpuOp::AtomicRead { dtype, target } | CpuOp::Read { dtype, target } => {
            Access::Read(dtype, target)
        }
        CpuOp::AtomicUpdate { dtype, target }
        | CpuOp::AtomicCapture { dtype, target }
        | CpuOp::AtomicWrite { dtype, target }
        | CpuOp::Update { dtype, target } => Access::Write(dtype, target),
        CpuOp::CriticalAdd { dtype, target } => Access::CriticalWrite(dtype, target),
    }
}

/// The static contention map of one (body, placement) combination.
#[derive(Debug, Clone)]
pub struct ContentionMap {
    lines: HashMap<LineId, LineStats>,
    line_bytes: usize,
}

impl ContentionMap {
    /// Analyzes which cores access/write every line when all placed
    /// threads execute `body`.
    #[must_use]
    pub fn analyze(body: &[CpuOp], placement: &Placement, line_bytes: usize) -> Self {
        let mut lines: HashMap<LineId, LineStats> = HashMap::new();
        for (i, op) in body.iter().enumerate() {
            // Touching is idempotent: a repeated op adds nothing.
            if body[..i].contains(op) {
                continue;
            }
            // Explicit critical brackets write the lock line even
            // though they carry no memory operand of their own.
            let (access, hits_lock) = match op {
                CpuOp::CriticalBegin { .. } | CpuOp::CriticalEnd { .. } => (Access::None, true),
                op => match classify(op) {
                    // The lock line is written by every participant.
                    Access::CriticalWrite(dt, tg) => (Access::Write(dt, tg), true),
                    a => (a, false),
                },
            };
            if hits_lock {
                let s = lines.entry(lock_line()).or_default();
                for tid in 0..placement.len() {
                    let slot = placement.slot(tid);
                    s.touch(slot.core, slot.socket, true);
                }
            }
            let (dt, tg, writes) = match access {
                Access::None => continue,
                Access::Read(dt, tg) => (dt, tg, false),
                Access::Write(dt, tg) | Access::CriticalWrite(dt, tg) => (dt, tg, true),
            };
            for tid in 0..placement.len() {
                let slot = placement.slot(tid);
                lines
                    .entry(line_of(dt, tg, tid, line_bytes))
                    .or_default()
                    .touch(slot.core, slot.socket, writes);
            }
        }
        ContentionMap { lines, line_bytes }
    }

    /// The configured cache-line size.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Returns `(contenders, cross_socket)` for an access to `line` by
    /// a thread on `my_core`:
    ///
    /// * For a **read**, contenders are *other* cores that write the
    ///   line (read-only sharing is free — every core keeps a Shared
    ///   copy).
    /// * For a **write**, contenders are *other* cores that access the
    ///   line at all (their copies must be invalidated).
    ///
    /// Hyperthread siblings run on the same core and share the L1, so
    /// they never count as contenders (Section V-A2).
    #[must_use]
    pub fn contenders(&self, line: LineId, my_core: u32, is_write: bool) -> (u32, bool) {
        self.line(line)
            .map_or((0, false), |s| s.contenders(my_core, is_write))
    }

    /// The sharing facts of `line`, or `None` when no thread touches
    /// it. A caller resolving many threads on one line looks it up once
    /// and asks [`LineStats::contenders`] per thread.
    #[must_use]
    pub fn line(&self, line: LineId) -> Option<&LineStats> {
        self.lines.get(&line)
    }

    /// Number of distinct lines with at least one inter-core writer
    /// conflict — a false-sharing indicator used in reports.
    #[must_use]
    pub fn contended_line_count(&self) -> usize {
        self.lines
            .values()
            .filter(|s| s.writer_cores.len() > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{kernel, Affinity, SYSTEM3};

    fn placement(n: u32) -> Placement {
        Placement::new(&SYSTEM3.cpu, Affinity::Spread, n)
    }

    #[test]
    fn scalars_on_distinct_lines() {
        let a = line_of(DType::I32, Target::SHARED, 0, 64);
        let b = line_of(DType::I32, Target::SHARED2, 0, 64);
        assert_ne!(a, b);
        // Same scalar from different threads: same line.
        assert_eq!(a, line_of(DType::I32, Target::SHARED, 7, 64));
    }

    #[test]
    fn dtypes_never_share_lines() {
        let a = line_of(DType::I32, Target::private(1), 0, 64);
        let b = line_of(DType::F32, Target::private(1), 0, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn stride_controls_line_sharing() {
        // int, stride 1: threads 0..15 share line 0.
        let l0 = line_of(DType::I32, Target::private(1), 0, 64);
        let l15 = line_of(DType::I32, Target::private(1), 15, 64);
        let l16 = line_of(DType::I32, Target::private(1), 16, 64);
        assert_eq!(l0, l15);
        assert_ne!(l0, l16);
        // int, stride 16: every thread its own line.
        let s0 = line_of(DType::I32, Target::private(16), 0, 64);
        let s1 = line_of(DType::I32, Target::private(16), 1, 64);
        assert_ne!(s0, s1);
        // double, stride 8 = 64 B: own line each (Fig. 3c).
        let d0 = line_of(DType::F64, Target::private(8), 0, 64);
        let d1 = line_of(DType::F64, Target::private(8), 1, 64);
        assert_ne!(d0, d1);
    }

    #[test]
    fn shared_scalar_contention_counts_other_cores() {
        let body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let p = placement(8);
        let m = ContentionMap::analyze(&body, &p, 64);
        let line = line_of(DType::I32, Target::SHARED, 0, 64);
        let (c, _) = m.contenders(line, p.slot(0).core, true);
        assert_eq!(c, 7);
    }

    #[test]
    fn private_strided_no_contention_when_padded() {
        let body = kernel::omp_atomic_update_array(DType::U64, 8).baseline;
        let p = placement(8);
        let m = ContentionMap::analyze(&body, &p, 64);
        for tid in 0..8 {
            let line = line_of(DType::U64, Target::private(8), tid, 64);
            let (c, _) = m.contenders(line, p.slot(tid).core, true);
            assert_eq!(c, 0, "tid {tid}");
        }
        assert_eq!(m.contended_line_count(), 0);
    }

    #[test]
    fn false_sharing_at_stride_one() {
        let body = kernel::omp_atomic_update_array(DType::I32, 1).baseline;
        let p = placement(8);
        let m = ContentionMap::analyze(&body, &p, 64);
        let line = line_of(DType::I32, Target::private(1), 0, 64);
        let (c, _) = m.contenders(line, p.slot(0).core, true);
        assert_eq!(c, 7); // 8 threads, 8 distinct cores, 1 line
        assert!(m.contended_line_count() >= 1);
    }

    #[test]
    fn smt_siblings_not_contenders() {
        // 17 threads close on System 3 (16 cores): thread 16 is the SMT
        // sibling of thread 0. With stride 1 + int they share line 0
        // *and* core 0 → not a contender of each other.
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 17);
        let body = kernel::omp_atomic_update_array(DType::I32, 1).baseline;
        let m = ContentionMap::analyze(&body, &p, 64);
        let line0 = line_of(DType::I32, Target::private(1), 0, 64);
        let (c, _) = m.contenders(line0, p.slot(0).core, true);
        // Threads 1..=15 are on line 0 too (ints, stride 1), on 15
        // other cores; thread 16 shares core 0 with thread 0.
        assert_eq!(c, 15);
    }

    #[test]
    fn read_only_sharing_is_free() {
        let body = kernel::omp_atomic_read(DType::I32).baseline; // plain read
        let p = placement(8);
        let m = ContentionMap::analyze(&body, &p, 64);
        let line = line_of(DType::I32, Target::SHARED, 0, 64);
        let (c, _) = m.contenders(line, p.slot(0).core, false);
        assert_eq!(c, 0, "no writers → no read contention");
    }

    #[test]
    fn critical_registers_lock_line() {
        let body = kernel::omp_critical_add(DType::I32).baseline;
        let p = placement(4);
        let m = ContentionMap::analyze(&body, &p, 64);
        let (c, _) = m.contenders(lock_line(), p.slot(0).core, true);
        assert_eq!(c, 3);
    }

    #[test]
    fn cross_socket_detected_on_two_socket_system() {
        use syncperf_core::SYSTEM1;
        let p = Placement::new(&SYSTEM1.cpu, Affinity::Spread, 2); // sockets 0 and 1
        let body = kernel::omp_atomic_update_scalar(DType::I32).baseline;
        let m = ContentionMap::analyze(&body, &p, 64);
        let line = line_of(DType::I32, Target::SHARED, 0, 64);
        let (_, cross) = m.contenders(line, p.slot(0).core, true);
        assert!(cross);
    }
}
