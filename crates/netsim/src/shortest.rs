//! Shortest round-trip decimal text for `f64`, byte for byte as `{}`
//! (`Display`) writes it.
//!
//! `{}` prints the fewest significant digits that parse back to the same
//! `f64`, nearest the exact value when several are that short, and never an
//! exponent.  [`push_f64`] computes those digits with Ryū (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018) in place of core's Grisu/Dragon
//! path, with two departures:
//!
//! - **Tie rule.** When the exact value lies halfway between the two
//!   nearest shortest candidates, `{}` takes the upper one; reference Ryū
//!   takes the even one.  So the last removed digit alone decides the
//!   rounding (`>= 5` rounds up), and Ryū's tracking of whether the digits
//!   removed below it are all zero goes away.
//! - **A window instead of tables.** Below 2^61 no power of ten divides
//!   the scaled bounds (Ryū's `q` is 0), so they are plain shifts.  Down to
//!   2^-118 (≈ 3.0e-36) the multiplier is 5^i for i ≤ 53, which is below
//!   2^125 and so exact in a `u128` built at compile time.  Everything
//!   outside that window — zero, subnormals, NaN, ±inf and huge or tiny
//!   magnitudes — falls back to `write!("{}")`.  Chrome-trace timestamps
//!   (microseconds of virtual time) lie inside it.

use std::io::Write as _;

use crate::trace::push_int;

/// `POW5[i]` is 5^i shifted left to exactly 125 bits (Ryū's
/// `DOUBLE_POW5_SPLIT[i]`); exact because 5^53 < 2^125.
const POW5: [u128; 54] = {
    let mut table = [0; 54];
    let mut pow: u128 = 1;
    let mut i = 0;
    while i < table.len() {
        table[i] = pow << (pow.leading_zeros() - 3);
        pow *= 5;
        i += 1;
    }
    table
};

/// Append `v` to `buf` exactly as `write!(buf, "{v}")` would.
pub(crate) fn push_f64(buf: &mut Vec<u8>, v: f64) {
    let Some((digits, exp10)) = shortest(v.abs().to_bits()) else {
        write!(buf, "{v}").expect("writing to a Vec cannot fail");
        return;
    };
    if v.is_sign_negative() {
        buf.push(b'-');
    }
    // `v = digits · 10^exp10`; the decimal point goes `point` digits in.
    let len = digits.ilog10() as i32 + 1;
    let point = exp10 + len;
    if point <= 0 {
        buf.extend_from_slice(b"0.");
        buf.resize(buf.len() + (-point) as usize, b'0');
        push_int(buf, digits);
    } else {
        let start = buf.len();
        push_int(buf, digits);
        if point < len {
            buf.insert(start + point as usize, b'.');
        } else {
            buf.resize(start + point as usize, b'0');
        }
    }
}

/// The shortest round-trip digits of the positive `f64` with these bits, as
/// `(digits, exp10)` with `v = digits · 10^exp10`, or `None` outside the
/// window the module doc describes.
fn shortest(bits: u64) -> Option<(u64, i32)> {
    let exponent = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if exponent == 0 || exponent == 0x7ff {
        return None;
    }
    // `v = mv · 2^e2`; the values that round to `v` lie between `mm · 2^e2`
    // and `mp · 2^e2`, both included when the mantissa is even.  The lower
    // gap is half as wide at a power of two.
    let m2 = fraction | 1 << 52;
    let e2 = exponent - 1077;
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(fraction != 0);
    // The three scaled by 10^-e10 and floored, so each has ~17 digits; `q`
    // is the power of ten taken out of the binary part.
    let (mut vr, mut vp, mut vm, e10, q) = if e2 >= 0 {
        if e2 > 6 {
            return None;
        }
        (mv << e2, mp << e2, mm << e2, 0, 0)
    } else {
        let q = ((-e2 as u32 * 732_923) >> 20) as i32 - i32::from(e2 < -1);
        let i = -e2 - q;
        let pow5 = *POW5.get(i as usize)?;
        let pow5_bits = ((i as u32 * 1_217_359) >> 19) as i32 + 1;
        let shift = (q + 125 - pow5_bits) as u32;
        (mul_shift(mv, pow5, shift), mul_shift(mp, pow5, shift), mul_shift(mm, pow5, shift), e2 + q, q)
    };
    // For q <= 1 the upper bound is exact, so an excluded one steps down, and
    // an included lower bound may itself be the answer.  Where that lower
    // bound was floored it ends in a nonzero digit, so the first removal
    // clears the flag.
    let mut vm_trailing_zeros = q <= 1 && accept_bounds;
    if q <= 1 && !accept_bounds {
        vp -= 1;
    }
    // Drop digits while a shorter candidate still lies in [vm, vp]; then,
    // if the lower bound is exact and included, while it ends in zeros.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_trailing_zeros {
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round half up; step off an excluded lower bound.
    let round_up = (vr == vm && !vm_trailing_zeros) || last_removed >= 5;
    Some((vr + u64::from(round_up), e10 + removed))
}

/// `⌊m · mul / 2^shift⌋` for `64 <= shift < 192`.
fn mul_shift(m: u64, mul: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SplitMix64;

    /// Compare `push_f64` with `{}` by bytes; returns the fast path's
    /// digits, `None` where it falls back.
    fn check(v: f64) -> Option<(u64, i32)> {
        let (mut fast, mut std) = (Vec::with_capacity(32), Vec::with_capacity(32));
        push_f64(&mut fast, v);
        write!(std, "{v}").unwrap();
        if fast != std {
            panic!("{:#018x}: {} != {}", v.to_bits(), String::from_utf8_lossy(&fast), String::from_utf8_lossy(&std));
        }
        shortest(v.abs().to_bits())
    }

    fn check_bits(bits: u64) -> Option<(u64, i32)> {
        check(f64::from_bits(bits))
    }

    /// The biased exponents the fast path takes.
    fn window() -> std::ops::RangeInclusive<u64> {
        let inside: Vec<u64> = (0..0x7ff).filter(|&e| shortest(e << 52).is_some()).collect();
        let (lo, hi) = (inside[0], *inside.last().unwrap());
        assert_eq!(inside.len() as u64, hi - lo + 1, "the window is one run of exponents");
        lo..=hi
    }

    /// `count` random bit patterns, each as drawn and with its exponent
    /// moved into the fast window; returns how many as drawn took the fast
    /// path.
    fn random_sweep(seed: u64, count: usize) -> usize {
        let (w, mut rng) = (window(), SplitMix64::new(seed));
        let span = w.end() - w.start() + 1;
        let mut fast = 0;
        for _ in 0..count {
            let bits = rng.next_u64();
            fast += usize::from(check_bits(bits).is_some());
            let exponent = w.start() + (bits >> 52 & 0x7ff) % span;
            assert!(check_bits(bits & !(0x7ff << 52) | exponent << 52).is_some());
        }
        fast
    }

    /// `count` values `m / 2^k`, odd `m < 2^53`, `k <= 80`.  Each is exact,
    /// with k decimal places, the last a 5.  When the shortest text stops
    /// one place short of that (`exp10 == 1 - k`), its two candidates are
    /// exactly equally near: a tie.  Returns the number of ties; panics if a
    /// value missed the fast path.
    fn dyadic_sweep(seed: u64, count: usize) -> usize {
        let mut rng = SplitMix64::new(seed);
        let mut ties = 0;
        for _ in 0..count {
            let r = rng.next_u64();
            let m = (r >> (11 + r % 53)) | 1;
            let k = ((r >> 6) % 81) as i32;
            let (_, exp10) = check(m as f64 / 2f64.powi(k)).expect("dyadic values lie in the fast window");
            ties += usize::from(k > 0 && exp10 == 1 - k);
        }
        ties
    }

    #[test]
    fn ties_round_up_as_display_does() {
        // 2^-25 = 0.0000000298023223876953125 exactly: 18 significant
        // digits.  Both 17-digit neighbours …312 and …313 round-trip and lie
        // 5e-26 away; `{}` takes the upper, reference Ryū the even one.
        let mut buf = Vec::new();
        push_f64(&mut buf, 2f64.powi(-25));
        assert_eq!(buf, b"0.000000029802322387695313");
        assert!(check(2f64.powi(-25)).is_some(), "the pin must exercise the fast path");
    }

    #[test]
    fn matches_display_byte_for_byte() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            1e21,
            1e22,
            1e-7,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            ((1u64 << 53) + 1) as f64, // rounds to 2^53
            (1u64 << 63) as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        edges.into_iter().for_each(|v| _ = check(v));

        // Every power of two ±2 ulps, subnormal ones included.
        for e in -1074..=1023 {
            let bits = if e < -1022 { 1 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
            for d in [-2i64, -1, 0, 1, 2] {
                if let Some(b) = bits.checked_add_signed(d) {
                    check_bits(b);
                }
            }
        }
        // Every power of ten ±1 ulp.
        for e in -323..=308 {
            let bits = format!("1e{e}").parse::<f64>().unwrap().to_bits();
            (bits - 1..=bits + 1).for_each(|b| _ = check_bits(b));
        }
        // Both edges of the fast window, ±1 ulp.  It must span 1e-30 to 2^60,
        // far past any trace timestamp (microseconds of virtual time).
        let w = window();
        let (lo, hi) = (*w.start() << 52, (*w.end() + 1) << 52);
        let fast = |bits| check_bits(bits).is_some();
        assert_eq!([fast(lo - 1), fast(lo), fast(lo + 1)], [false, true, true]);
        assert_eq!([fast(hi - 1), fast(hi), fast(hi + 1)], [true, false, false]);
        assert!(lo <= 1e-30f64.to_bits() && 2f64.powi(60).to_bits() < hi);

        assert!(random_sweep(0x5EED, 200_000) > 10_000, "random bits reach the fast path");
        let ties = dyadic_sweep(0xD1AD, 200_000);
        assert!(ties > 1_000, "the dyadic sweep holds exact ties: {ties}");
    }

    /// The full-size sweep: run with `cargo test --release -p ec_netsim --
    /// --ignored shortest_digits_full_sweep`.
    #[test]
    #[ignore = "104 M comparisons; run in release"]
    fn shortest_digits_full_sweep() {
        let fast = random_sweep(0xC0FFEE, 20_000_000);
        let ties = dyadic_sweep(0xDEC1DE, 64_000_000);
        eprintln!("fast {fast} ties {ties}");
        assert!(ties > 300_000, "the dyadic sweep holds exact ties: {ties}");
    }
}
