//! Exact renderings of `{:.1}` and `{:.3e}` that push into the
//! caller's buffer.
//!
//! Every SVG coordinate is rendered with `{:.1}` and every table cell
//! with `{:.3e}`, and std's exact-precision float paths (bignum
//! arithmetic) cost more than the rest of rendering a figure. Over the
//! ranges figures use, both roundings are done here in `u128` integer
//! arithmetic on the exact binary value, rounding half to even as std
//! does (`0.25` → `0.2`, `0.75` → `0.8`). Any other value — NaN,
//! infinities, negative coordinates, magnitudes out of range — goes
//! through `write!`, so the output equals `format!` for every `f64`.

use std::cmp::Ordering;
use std::fmt::Write as _;

/// `10^i` for `i` in `0..=17`: every decimal scale [`push_sci3`] needs.
const POW10: [u128; 18] = {
    let mut t = [1u128; 18];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Splits a finite `|v|` into `(m, e)` with `|v| = m · 2^e` exactly.
fn decompose(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    if exp == 0 {
        (frac, -1074)
    } else {
        (frac | (1 << 52), exp - 1075)
    }
}

/// Rounds `q + r/den` to an integer, ties to even.
fn round_even(q: u128, r: u128, den: u128) -> u128 {
    match (2 * r).cmp(&den) {
        Ordering::Greater => q + 1,
        Ordering::Equal => q + (q & 1),
        Ordering::Less => q,
    }
}

/// Pushes the decimal digits of `n`.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Pushes `v` exactly as `write!(out, "{v:.1}")` would.
pub(crate) fn push_fixed1(out: &mut String, v: f64) {
    if !(v.is_sign_positive() && v < 1e12) {
        let _ = write!(out, "{v:.1}");
        return;
    }
    // v · 10 = 10m · 2^e; 10m < 2^57, so e ≤ -58 leaves less than 0.5.
    let (m, e) = decompose(v);
    let tenths = if e >= 0 {
        (u128::from(m) * 10) << e
    } else if e > -58 {
        let num = u128::from(m) * 10;
        let sh = -e;
        round_even(num >> sh, num & ((1 << sh) - 1), 1 << sh)
    } else {
        0
    };
    push_u64(out, (tenths / 10) as u64);
    out.push('.');
    out.push(char::from(b'0' + (tenths % 10) as u8));
}

/// Pushes `v` exactly as `write!(out, "{v:.3e}")` would.
pub(crate) fn push_sci3(out: &mut String, v: f64) {
    let a = v.abs();
    if !(1e-12..1e15).contains(&a) {
        let _ = write!(out, "{v:.3e}");
        return;
    }
    let (m, e) = decompose(a);
    // The estimate may be one off next to a power of ten; the exact
    // comparison below settles it, so `a · 10^(3-k)` is in [1000, 10000).
    let mut k = a.log10().floor() as i32;
    let (num, den) = loop {
        // a · 10^(3-k) = num / den; both stay below 2^110 in range.
        let s = 3 - k;
        let (mut num, mut den) = (u128::from(m), 1u128);
        if s >= 0 {
            num *= POW10[s as usize];
        } else {
            den *= POW10[(-s) as usize];
        }
        if e >= 0 {
            num <<= e;
        } else {
            den <<= -e;
        }
        if num < 1000 * den {
            k -= 1;
        } else if num >= 10000 * den {
            k += 1;
        } else {
            break (num, den);
        }
    };
    let mut digits = round_even(num / den, num % den, den) as u64;
    if digits == 10000 {
        digits = 1000;
        k += 1;
    }
    if v < 0.0 {
        out.push('-');
    }
    out.push(char::from(b'0' + (digits / 1000) as u8));
    out.push('.');
    let tail = digits % 1000;
    for d in [tail / 100, tail / 10 % 10, tail % 10] {
        out.push(char::from(b'0' + d as u8));
    }
    out.push('e');
    if k < 0 {
        out.push('-');
    }
    push_u64(out, u64::from(k.unsigned_abs()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn fixed1(v: f64) -> String {
        let mut s = String::new();
        push_fixed1(&mut s, v);
        s
    }

    fn sci3(v: f64) -> String {
        let mut s = String::new();
        push_sci3(&mut s, v);
        s
    }

    fn check(v: f64) {
        assert_eq!(fixed1(v), format!("{v:.1}"), "{{:.1}} of {v:e}");
        assert_eq!(sci3(v), format!("{v:.3e}"), "{{:.3e}} of {v:e}");
    }

    /// `v` and its neighbours one ulp either side.
    fn check_around(v: f64) {
        check(v);
        check(v.next_up());
        check(v.next_down());
    }

    /// A seeded value whose decimal magnitude is spread evenly over
    /// `10^-14 .. 10^16`, so both fast paths and both fallback edges
    /// are hit: a mantissa in [1, 10) times a random power of ten.
    fn spread(rng: &mut SplitMix64) -> f64 {
        let mag = rng.gen_below(31) as i32 - 14;
        let v = (1.0 + 9.0 * rng.next_f64()) * 10f64.powi(mag);
        if rng.gen_below(4) == 0 {
            -v
        } else {
            v
        }
    }

    /// A pixel coordinate as `render_svg` computes one.
    fn pixel(rng: &mut SplitMix64) -> f64 {
        80.0 + rng.next_f64().clamp(0.0, 1.0) * 600.0
    }

    /// Random sign and mantissa bits under a binary exponent in
    /// `-45..55`, which spans both fast paths' ranges and their edges.
    fn raw_bits(rng: &mut SplitMix64) -> f64 {
        let exp = 1023 - 45 + rng.gen_below(100);
        f64::from_bits((rng.next_u64() & (1 << 63 | ((1 << 52) - 1))) | exp << 52)
    }

    #[test]
    fn examples() {
        assert_eq!(fixed1(0.25), "0.2");
        assert_eq!(fixed1(0.75), "0.8");
        assert_eq!(fixed1(0.0), "0.0");
        assert_eq!(fixed1(-0.0), "-0.0");
        assert_eq!(fixed1(-1.25), "-1.2");
        assert_eq!(sci3(123_456_789.0), "1.235e8");
        assert_eq!(sci3(9999.5e3), "1.000e7");
        assert_eq!(sci3(-0.001234), "-1.234e-3");
        let mut s = String::new();
        push_u64(&mut s, 0);
        push_u64(&mut s, u64::MAX);
        assert_eq!(s, format!("0{}", u64::MAX));
    }

    #[test]
    fn ties_boundaries_and_specials() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324,
            1e12,
            1e15,
            1e-12,
            9999.5e3,
        ] {
            check_around(v);
        }
        // {:.1} ties are n + 1/4 and n + 3/4.
        for n in (0..2000u32).chain([999_999, 1 << 30, 999_999_999]) {
            for q in [0.25, 0.75] {
                check_around(f64::from(n) + q);
                check_around(-(f64::from(n) + q));
            }
        }
        // {:.3e} ties: five significant digits ending in 5, as integers
        // at every scale and as halves.
        for d in 1000..10_000u64 {
            let tie = d * 10 + 5;
            for j in 0..11 {
                check_around((tie * 10u64.pow(j)) as f64);
            }
            check_around(d as f64 + 0.5);
            check_around(-(d as f64 + 0.5));
        }
        // Dyadic fractions: every odd numerator over 2^n.
        for n in 0..48 {
            for c in (1..400u64).step_by(2) {
                check_around(c as f64 / (1u64 << n) as f64);
            }
        }
        // Powers of ten, including just past both ends of each range.
        for k in -14..=16 {
            check_around(10f64.powi(k));
            check_around(-(10f64.powi(k)));
        }
    }

    #[test]
    fn matches_std_on_seeded_values() {
        let mut rng = SplitMix64::seed_from_u64(0x0f17_2024);
        for _ in 0..100_000 {
            check(spread(&mut rng));
            check(pixel(&mut rng));
        }
    }

    /// The long scan: `cargo test --release -p syncperf-core -- --ignored
    /// numfmt` (ci.sh runs it).
    #[test]
    #[ignore = "10^7-value scan; run in release"]
    fn matches_std_on_ten_million_values() {
        let mut rng = SplitMix64::seed_from_u64(0x5eed_0031);
        for i in 0..5_000_000u64 {
            check(spread(&mut rng));
            if i % 2 == 0 {
                check(pixel(&mut rng));
            } else {
                check(raw_bits(&mut rng));
            }
        }
    }
}
