//! Run-time selection of a vector-wide copy of an integer hot loop.
//!
//! The workspace builds for the baseline `x86_64` target, which has no
//! 64-bit vector multiply and no unsigned 64-bit vector max or min, so
//! a loop of `u64` multiplies and maxima stays scalar there. AVX-512
//! has both (`vpmullq` in DQ, `vpmaxuq`/`vpminuq` in F), and LLVM
//! vectorizes the same Rust fully once they may be used.
//!
//! A dispatched loop is therefore written once and compiled twice, as
//! a trio:
//!
//! - an `#[inline(always)]` portable body, the one source of the loop;
//! - on `x86_64` only, an `unsafe` copy marked
//!   `#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]`
//!   whose whole body is a call of the portable one, so the portable
//!   body is inlined into it and compiled with those features;
//! - a safe dispatcher that runs the copy when [`avx512`] is true and
//!   the portable body otherwise.
//!
//! Only integer loops are dispatched: integer arithmetic has one
//! result whatever instructions compute it, so the two copies are bit
//! identical by construction (the tests of each site check it on every
//! host that has the features). Other targets compile the portable body
//! alone.

/// Whether this CPU runs the AVX-512 copies: it has AVX-512 F, DQ, VL
/// and BW. Detected once per process; later calls are one load.
#[cfg(target_arch = "x86_64")]
#[must_use]
pub fn avx512() -> bool {
    static DETECTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512bw")
    })
}

/// Whether this CPU runs the AVX-512 copies: never, off `x86_64`.
#[cfg(not(target_arch = "x86_64"))]
#[must_use]
pub fn avx512() -> bool {
    false
}
