//! The CPU latency/contention model and its per-system instantiation.
//!
//! All latencies are in nanoseconds of virtual time. The defaults are
//! calibrated so the regenerated figures land in the paper's reported
//! orders of magnitude (e.g. flush throughput ×10⁷ with false sharing,
//! ×10⁸ without — Fig. 6), but the *shapes* — knees, plateaus,
//! orderings — come from the modeled mechanisms, not the constants.

use syncperf_core::CpuSpec;

/// Which barrier algorithm the simulated OpenMP runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Centralized sense-reversing barrier: every arrival RMWs one
    /// shared counter line. Its cost follows the same saturating
    /// contention curve as a shared atomic — which is exactly the
    /// paper's observation that the barrier and atomic-update figures
    /// share a trend (Figs. 1-2).
    Centralized,
    /// Combining-tree barrier: arrivals combine in groups of `fanin`;
    /// cost grows with tree depth (log) instead of participant count.
    CombiningTree {
        /// Children per tree node.
        fanin: u32,
    },
}

/// Latency and contention parameters of the simulated multicore.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// L1 hit / plain ALU-visible load latency.
    pub l1_hit_ns: f64,
    /// Plain store issue latency (the store buffer absorbs the rest).
    pub store_ns: f64,
    /// Uncontended lock-prefixed integer read-modify-write.
    pub rmw_int_ns: f64,
    /// Extra service time of a floating-point atomic (compare-exchange
    /// loop: load, FP add, CAS) over the integer RMW.
    pub fp_cas_extra_ns: f64,
    /// Extra FP retry cost per contending core (CAS loops retry under
    /// contention), saturating like the arbitration term.
    pub fp_retry_ns: f64,
    /// Cache-to-cache line transfer within a socket.
    pub line_transfer_ns: f64,
    /// Multiplier on the transfer cost when contenders span sockets.
    pub cross_socket_factor: f64,
    /// Queuing/arbitration delay per contending core, up to
    /// [`CpuModel::contention_sat`] cores. The *saturation* is what
    /// produces the paper's throughput plateau beyond ~8 threads
    /// (Figs. 1, 2, 5) — see the `ablation_contention_model` bench.
    pub arbitration_ns: f64,
    /// Number of contenders after which arbitration stops growing.
    pub contention_sat: u32,
    /// Small unbounded per-sharer tax (directory bookkeeping). This is
    /// why 4-byte types, with twice as many words per line, are
    /// slightly worse than 8-byte types at stride 1 (Fig. 3a).
    pub sharer_tax_ns: f64,
    /// Barrier algorithm.
    pub barrier_kind: BarrierKind,
    /// Barrier fixed cost.
    pub barrier_base_ns: f64,
    /// Barrier per-participant cost, saturating at `contention_sat`.
    pub barrier_arb_ns: f64,
    /// Extra fixed cost of a critical section entry+exit beyond its two
    /// lock-line RMWs.
    pub lock_overhead_ns: f64,
    /// Fixed cost of a memory fence with an empty store buffer.
    pub fence_base_ns: f64,
    /// Fraction of a store's coherence latency that the store buffer
    /// hides from the issuing thread; a fence that drains the buffer
    /// pays this hidden fraction.
    pub store_buffer_hiding: f64,
    /// Service-time multiplier when both SMT ways of a core are busy.
    pub smt_service_factor: f64,
    /// Release stagger between threads leaving a barrier.
    pub release_stagger_ns: f64,
    /// Relative timing-noise amplitude (multiplicative, zero-mean).
    pub jitter_amplitude: f64,
    /// Additional jitter when hyperthreads are in use — the paper notes
    /// "hyperthreading yields more variability in thread timing".
    pub smt_jitter_boost: f64,
}

impl CpuModel {
    /// Baseline model constants (roughly a modern x86 server core).
    #[must_use]
    pub fn baseline() -> Self {
        CpuModel {
            l1_hit_ns: 1.0,
            store_ns: 1.0,
            rmw_int_ns: 6.5,
            fp_cas_extra_ns: 8.0,
            fp_retry_ns: 4.0,
            line_transfer_ns: 40.0,
            cross_socket_factor: 1.5,
            arbitration_ns: 18.0,
            contention_sat: 7,
            sharer_tax_ns: 2.0,
            barrier_kind: BarrierKind::Centralized,
            barrier_base_ns: 150.0,
            barrier_arb_ns: 140.0,
            lock_overhead_ns: 50.0,
            fence_base_ns: 10.0,
            store_buffer_hiding: 0.6,
            smt_service_factor: 1.15,
            release_stagger_ns: 3.0,
            jitter_amplitude: 0.01,
            smt_jitter_boost: 0.01,
        }
    }

    /// Scales time-like constants by the inverse clock ratio so faster
    /// parts finish ops sooner, and applies the system's jitter.
    #[must_use]
    pub fn for_system(cpu: &CpuSpec, cpu_jitter: f64) -> Self {
        let mut m = CpuModel::baseline();
        // Constants were calibrated at 3.5 GHz (System 3's CPU).
        let scale = 3.5 / cpu.base_clock_ghz;
        for v in [
            &mut m.l1_hit_ns,
            &mut m.store_ns,
            &mut m.rmw_int_ns,
            &mut m.fp_cas_extra_ns,
            &mut m.fp_retry_ns,
            &mut m.barrier_base_ns,
            &mut m.lock_overhead_ns,
            &mut m.fence_base_ns,
        ] {
            *v *= scale;
        }
        // Interconnect latencies scale much less with core clock.
        m.jitter_amplitude = (cpu_jitter * 0.4).min(0.06);
        m
    }

    /// A stable 64-bit digest of every model constant (FNV-1a over the
    /// canonical debug rendering). Two models agree on the digest iff
    /// they would produce identical simulations, which is what lets
    /// the sweep scheduler use it as part of a content-addressed cache
    /// key: recalibrating any constant invalidates cached results.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        // Local FNV-1a: the digest must be process- and
        // platform-independent, unlike `std::hash`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Contention-limited extra latency for `contenders` other cores
    /// fighting over a line (transfer + saturating arbitration +
    /// unbounded sharer tax), `cross_socket` marking whether the
    /// contenders span sockets.
    #[must_use]
    pub fn contention_ns(&self, contenders: u32, cross_socket: bool) -> f64 {
        let [transfer, arbitration, sharer_tax] = self.contention_terms(contenders, cross_socket);
        transfer + arbitration + sharer_tax
    }

    /// [`Self::contention_ns`] by mechanism: `[transfer, arbitration,
    /// sharer tax]`, all zero without contenders.
    #[must_use]
    pub(crate) fn contention_terms(&self, contenders: u32, cross_socket: bool) -> [f64; 3] {
        if contenders == 0 {
            return [0.0; 3];
        }
        let transfer = if cross_socket {
            self.line_transfer_ns * self.cross_socket_factor
        } else {
            self.line_transfer_ns
        };
        [
            transfer,
            self.arbitration_ns * f64::from(contenders.min(self.contention_sat)),
            self.sharer_tax_ns * f64::from(contenders),
        ]
    }

    /// Barrier cost for `n` participants, under the configured
    /// [`BarrierKind`].
    #[must_use]
    pub fn barrier_ns(&self, n: u32) -> f64 {
        match self.barrier_kind {
            BarrierKind::Centralized => {
                self.barrier_base_ns
                    + self.barrier_arb_ns
                        * f64::from((n.saturating_sub(1)).min(self.contention_sat))
                    + self.sharer_tax_ns * f64::from(n.saturating_sub(1))
            }
            BarrierKind::CombiningTree { fanin } => {
                let fanin = fanin.max(2);
                // Tree depth: arrivals combine level by level; the
                // release broadcast adds one more traversal.
                let mut levels = 0u32;
                let mut width = n.max(1);
                while width > 1 {
                    width = width.div_ceil(fanin);
                    levels += 1;
                }
                // Each tree node is contended only fan-in wide, so a
                // stage pays ordinary line arbitration, not the heavily
                // contended central-counter rate.
                let stage = self.arbitration_ns * f64::from(fanin - 1) + self.line_transfer_ns;
                self.barrier_base_ns + 2.0 * f64::from(levels) * stage
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncperf_core::{SYSTEM1, SYSTEM3};

    #[test]
    fn contention_zero_when_private() {
        let m = CpuModel::baseline();
        assert_eq!(m.contention_ns(0, false), 0.0);
    }

    #[test]
    fn contention_saturates() {
        let m = CpuModel::baseline();
        let at_sat = m.contention_ns(m.contention_sat, false);
        let beyond = m.contention_ns(m.contention_sat + 8, false);
        // Only the small sharer tax keeps growing past saturation.
        let tax_delta = m.sharer_tax_ns * 8.0;
        assert!((beyond - at_sat - tax_delta).abs() < 1e-9);
    }

    #[test]
    fn contention_monotonic() {
        let m = CpuModel::baseline();
        let mut prev = 0.0;
        for c in 1..20 {
            let v = m.contention_ns(c, false);
            assert!(v > prev, "c={c}");
            prev = v;
        }
    }

    #[test]
    fn cross_socket_costs_more() {
        let m = CpuModel::baseline();
        assert!(m.contention_ns(3, true) > m.contention_ns(3, false));
    }

    #[test]
    fn barrier_grows_then_saturates() {
        let m = CpuModel::baseline();
        assert!(m.barrier_ns(4) > m.barrier_ns(2));
        let d_small = m.barrier_ns(4) - m.barrier_ns(3);
        let d_large = m.barrier_ns(20) - m.barrier_ns(19);
        assert!(
            d_large < d_small,
            "barrier cost must flatten at high thread counts"
        );
    }

    #[test]
    fn tree_barrier_grows_logarithmically() {
        let mut m = CpuModel::baseline();
        m.barrier_kind = BarrierKind::CombiningTree { fanin: 4 };
        let b4 = m.barrier_ns(4);
        let b16 = m.barrier_ns(16);
        let b64 = m.barrier_ns(64);
        // Equal depth increments → equal cost increments (log growth).
        assert!((b16 - b4 - (b64 - b16)).abs() < 1e-9, "{b4} {b16} {b64}");
        // And flatter than the centralized barrier at mid scale.
        let central = CpuModel::baseline();
        assert!(m.barrier_ns(16) < central.barrier_ns(16));
    }

    #[test]
    fn tree_barrier_fanin_floor() {
        let mut m = CpuModel::baseline();
        m.barrier_kind = BarrierKind::CombiningTree { fanin: 0 };
        // Degenerate fan-in clamps to 2 rather than looping forever.
        assert!(m.barrier_ns(8).is_finite());
    }

    #[test]
    fn per_system_scaling() {
        let s3 = CpuModel::for_system(&SYSTEM3.cpu, SYSTEM3.cpu_jitter);
        let s1 = CpuModel::for_system(&SYSTEM1.cpu, SYSTEM1.cpu_jitter);
        // System 1 runs at 3.1 GHz < 3.5 GHz: core-bound ops take longer.
        assert!(s1.rmw_int_ns > s3.rmw_int_ns);
        // System 3 (AMD) is the jittery one (Fig. 4a).
        assert!(s3.jitter_amplitude > s1.jitter_amplitude);
    }
}
