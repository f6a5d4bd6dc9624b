//! Thread placement over the simulated machine's sockets, cores, and
//! SMT ways.
//!
//! The placement decides which software threads are hyperthread
//! siblings (they share an L1 and cannot false-share with each other)
//! and which line contenders sit across a socket boundary (their
//! transfers cost more).

use syncperf_core::{Affinity, CpuSpec};

/// Where one software thread runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// Socket index.
    pub socket: u32,
    /// Global physical-core index (unique across sockets).
    pub core: u32,
    /// SMT way on the core.
    pub smt: u32,
}

/// A complete placement of `n` threads on a machine.
///
/// A placement is a closed form, not a table: every slot and SMT flag
/// is a few integer operations on the thread id, so building one
/// allocates nothing. Batched sweep compilation builds one per point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    affinity: Affinity,
    nthreads: u32,
    sockets: u32,
    cores_per_socket: u32,
    /// Hardware threads (`cores × SMT ways`); thread ids wrap around
    /// it.
    hw_threads: u32,
    /// Distinct hardware slots the team occupies: `min(n, hw)`.
    occupied: u32,
    uses_hyperthreads: bool,
}

impl Placement {
    /// Computes the placement of `nthreads` threads on `cpu` under the
    /// given affinity policy.
    ///
    /// * `Close` fills socket 0's cores (first SMT way) in order, then
    ///   socket 1's, then comes back for the second SMT ways — the
    ///   behavior of `OMP_PROC_BIND=close` with core places on a
    ///   standard Linux CPU enumeration.
    /// * `Spread` round-robins over sockets so consecutive threads land
    ///   on alternating sockets, using second SMT ways only after every
    ///   core has a thread.
    /// * `SystemChoice` behaves like `Spread` (load balancing).
    ///
    /// Threads beyond the hardware-thread count wrap around.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` is zero.
    #[must_use]
    pub fn new(cpu: &CpuSpec, affinity: Affinity, nthreads: u32) -> Self {
        assert!(nthreads > 0, "placement of zero threads");
        let hw_threads = cpu.total_cores() * cpu.threads_per_core;
        Placement {
            affinity,
            nthreads,
            sockets: cpu.sockets,
            cores_per_socket: cpu.cores_per_socket,
            hw_threads,
            occupied: nthreads.min(hw_threads),
            uses_hyperthreads: Self::engages_smt(cpu, nthreads),
        }
    }

    /// Number of placed threads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nthreads as usize
    }

    /// Whether the placement is empty (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nthreads == 0
    }

    fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Thread `tid`'s hardware slot: its SMT way and its index within
    /// the way, which both policies lay out way by way.
    fn way_and_index(&self, tid: usize) -> (u32, u32) {
        assert!(tid < self.len(), "thread {tid} of {}", self.nthreads);
        let slot = tid as u32 % self.hw_threads;
        (slot / self.total_cores(), slot % self.total_cores())
    }

    /// The slot of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn slot(&self, tid: usize) -> Slot {
        let (smt, within) = self.way_and_index(tid);
        let core = match self.affinity {
            Affinity::Close => within,
            // Alternate sockets: thread 0 → socket 0 core 0, thread 1 →
            // socket 1 core 0, …
            Affinity::Spread | Affinity::SystemChoice => {
                (within % self.sockets) * self.cores_per_socket + within / self.sockets
            }
        };
        Slot {
            socket: core / self.cores_per_socket,
            core,
            smt,
        }
    }

    /// Whether both SMT ways of `tid`'s core are occupied by team
    /// threads — when true the core's issue bandwidth is shared and
    /// service times rise by the SMT factor.
    ///
    /// Each policy maps a way's indices onto the cores one to one, the
    /// same way for every way, and the team occupies hardware slots
    /// `0 .. min(n, hw)`. So the core of index `i` carries a second way
    /// exactly when slot `cores + i` is occupied; wrapped-around
    /// duplicates of a way add nothing.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    #[must_use]
    pub fn core_is_smt_loaded(&self, tid: usize) -> bool {
        let (_, within) = self.way_and_index(tid);
        self.total_cores() + within < self.occupied
    }

    /// Calls `f` with every thread's [`Placement::slot`] and
    /// [`Placement::core_is_smt_loaded`], in thread order, stepping the
    /// slot from the previous thread's instead of dividing per thread.
    pub(crate) fn for_each_thread(&self, mut f: impl FnMut(Slot, bool)) {
        let cores = self.total_cores();
        // `Close` lays a way's indices out socket by socket, `Spread`
        // round-robins them over the sockets: index = q·d + r.
        let d = match self.affinity {
            Affinity::Close => self.cores_per_socket,
            Affinity::Spread | Affinity::SystemChoice => self.sockets,
        };
        let (mut smt, mut within, mut q, mut r) = (0, 0, 0, 0);
        for _ in 0..self.nthreads {
            let (socket, core) = match self.affinity {
                Affinity::Close => (q, within),
                Affinity::Spread | Affinity::SystemChoice => (r, r * self.cores_per_socket + q),
            };
            f(Slot { socket, core, smt }, cores + within < self.occupied);
            within += 1;
            r += 1;
            if r == d {
                (q, r) = (q + 1, 0);
            }
            if within == cores {
                (within, q, r) = (0, 0, 0);
                smt += 1;
                if smt * cores == self.hw_threads {
                    smt = 0;
                }
            }
        }
    }

    /// Whether any thread uses a second SMT way (hyperthreading region
    /// of the sweep, right of the dashed line in the paper's figures).
    #[must_use]
    pub fn uses_hyperthreads(&self) -> bool {
        self.uses_hyperthreads
    }

    /// Whether `nthreads` threads on `cpu` use a second SMT way, under
    /// any affinity — [`Placement::uses_hyperthreads`] without building
    /// the placement. Both policies fill every core's first way before
    /// any second one, so that happens exactly when the team outgrows
    /// the cores of an SMT machine.
    #[must_use]
    pub fn engages_smt(cpu: &CpuSpec, nthreads: u32) -> bool {
        cpu.threads_per_core > 1 && nthreads > cpu.total_cores()
    }

    /// Fraction of threads whose core is SMT-loaded.
    #[must_use]
    pub fn smt_loaded_fraction(&self) -> f64 {
        let loaded = (0..self.len())
            .filter(|&t| self.core_is_smt_loaded(t))
            .count();
        loaded as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{SYSTEM1, SYSTEM2, SYSTEM3};

    /// The brute-force team scan the O(1) flags replaced: another
    /// thread on the same core, on a different SMT way.
    fn scan_smt_loaded(p: &Placement, tid: usize) -> bool {
        let me = p.slot(tid);
        (0..p.len()).any(|i| {
            let s = p.slot(i);
            i != tid && s.core == me.core && s.smt != me.smt
        })
    }

    #[test]
    fn smt_flags_match_the_team_scan() {
        for sys in [&SYSTEM1, &SYSTEM2, &SYSTEM3] {
            let hw = sys.cpu.total_threads();
            for aff in [Affinity::Close, Affinity::Spread, Affinity::SystemChoice] {
                // Up to twice the hardware threads, so wrapped-around
                // duplicates of an occupied way are covered.
                for n in 1..=2 * hw {
                    let p = Placement::new(&sys.cpu, aff, n);
                    let scan: Vec<bool> = (0..p.len()).map(|t| scan_smt_loaded(&p, t)).collect();
                    for (t, &loaded) in scan.iter().enumerate() {
                        assert_eq!(p.core_is_smt_loaded(t), loaded, "{sys} {aff:?} n={n} t={t}");
                    }
                    let mut walked = Vec::new();
                    p.for_each_thread(|slot, loaded| walked.push((slot, loaded)));
                    let direct: Vec<(Slot, bool)> = (0..p.len())
                        .map(|t| (p.slot(t), p.core_is_smt_loaded(t)))
                        .collect();
                    assert_eq!(walked, direct, "{sys} {aff:?} n={n}");
                    let uses = (0..p.len()).any(|t| p.slot(t).smt > 0);
                    assert_eq!(p.uses_hyperthreads(), uses, "{sys} {aff:?} n={n}");
                    assert_eq!(
                        Placement::engages_smt(&sys.cpu, n),
                        uses,
                        "{sys} {aff:?} n={n}"
                    );
                    let fraction = scan.iter().filter(|&&l| l).count() as f64 / f64::from(n);
                    assert_eq!(p.smt_loaded_fraction(), fraction, "{sys} {aff:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn close_fills_socket0_first() {
        // System 1: 2 sockets × 10 cores × 2 SMT.
        let p = Placement::new(&SYSTEM1.cpu, Affinity::Close, 12);
        assert_eq!(
            p.slot(0),
            Slot {
                socket: 0,
                core: 0,
                smt: 0
            }
        );
        assert_eq!(
            p.slot(9),
            Slot {
                socket: 0,
                core: 9,
                smt: 0
            }
        );
        assert_eq!(
            p.slot(10),
            Slot {
                socket: 1,
                core: 10,
                smt: 0
            }
        );
    }

    #[test]
    fn spread_alternates_sockets() {
        let p = Placement::new(&SYSTEM1.cpu, Affinity::Spread, 4);
        assert_eq!(p.slot(0).socket, 0);
        assert_eq!(p.slot(1).socket, 1);
        assert_eq!(p.slot(2).socket, 0);
        assert_eq!(p.slot(3).socket, 1);
    }

    #[test]
    fn smt_engaged_only_beyond_core_count() {
        let cores = SYSTEM3.cpu.total_cores();
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, cores);
        assert!(!p.uses_hyperthreads());
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, cores + 1);
        assert!(p.uses_hyperthreads());
    }

    #[test]
    fn smt_sibling_detection() {
        let cores = SYSTEM3.cpu.total_cores(); // 16
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, cores + 1);
        // Thread `cores` is the second way of core 0; thread 0 shares.
        assert!(p.core_is_smt_loaded(0));
        assert!(p.core_is_smt_loaded(cores as usize));
        assert!(!p.core_is_smt_loaded(1));
    }

    #[test]
    fn all_threads_distinct_cores_below_core_count() {
        for aff in [Affinity::Spread, Affinity::Close] {
            let p = Placement::new(&SYSTEM3.cpu, aff, 16);
            let mut cores: Vec<u32> = (0..16).map(|t| p.slot(t).core).collect();
            cores.sort_unstable();
            cores.dedup();
            assert_eq!(cores.len(), 16, "{aff:?}");
        }
    }

    #[test]
    fn oversubscription_wraps() {
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 40);
        assert_eq!(p.slot(32), p.slot(0));
    }

    #[test]
    fn smt_fraction() {
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 16);
        assert_eq!(p.smt_loaded_fraction(), 0.0);
        let p = Placement::new(&SYSTEM3.cpu, Affinity::Close, 32);
        assert_eq!(p.smt_loaded_fraction(), 1.0);
    }

    #[test]
    fn socket_field_consistent_with_core() {
        let p = Placement::new(&SYSTEM1.cpu, Affinity::Close, 40);
        for t in 0..40 {
            let s = p.slot(t);
            assert_eq!(s.socket, s.core / SYSTEM1.cpu.cores_per_socket);
        }
    }
}
