//! Minimal 256-bit helpers for exact scale-and-round operations.
//!
//! BFV decoding computes `round(c · P / Q)` where `c < Q < 2^112` and
//! `P = 2^32`, whose intermediate product exceeds 128 bits. These helpers
//! provide the exact wide multiply/divide needed, with no external bignum
//! dependency.

/// Full 256-bit product of two `u128` values, returned as `(hi, lo)`.
pub fn mul_u128(a: u128, b: u128) -> (u128, u128) {
    let (a1, a0) = ((a >> 64) as u64, a as u64);
    let (b1, b0) = ((b >> 64) as u64, b as u64);
    let p00 = a0 as u128 * b0 as u128;
    let p01 = a0 as u128 * b1 as u128;
    let p10 = a1 as u128 * b0 as u128;
    let p11 = a1 as u128 * b1 as u128;
    let mid = (p00 >> 64) + (p01 & 0xFFFF_FFFF_FFFF_FFFF) + (p10 & 0xFFFF_FFFF_FFFF_FFFF);
    let lo = (p00 & 0xFFFF_FFFF_FFFF_FFFF) | (mid << 64);
    let hi = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (hi, lo)
}

/// Divides the 256-bit value `(hi, lo)` by `d`, returning
/// `(quotient, remainder)`: schoolbook long division in 64-bit limbs
/// (Knuth's algorithm D) — `d` normalized to its top bit, then two
/// quotient digits, each estimated from the top two limbs and corrected
/// at most twice.
///
/// # Panics
/// Panics if `d == 0`, if `d >= 2^127` (unsupported), or if the quotient
/// would not fit in a `u128` (i.e. `hi >= d`).
pub fn div_rem_wide(hi: u128, lo: u128, d: u128) -> (u128, u128) {
    assert!(d > 0, "division by zero");
    assert!(d < (1u128 << 127), "divisor too large");
    assert!(hi < d, "quotient overflow");
    // `d < 2^127`, so the shift is 1..=127 and `hi < d` stays true of the
    // shifted top half.
    let shift = d.leading_zeros();
    let d = d << shift;
    let mut top = (hi << shift) | (lo >> (128 - shift));
    let lo = lo << shift;
    let mut quot = 0u128;
    for limb in [(lo >> 64) as u64, lo as u64] {
        let (digit, rem) = div_3by2(top, limb, d);
        quot = (quot << 64) | u128::from(digit);
        top = rem;
    }
    (quot, top >> shift)
}

/// `(top·2^64 + limb) / d` for a normalized `d` (bit 127 set) and
/// `top < d`: the 64-bit quotient digit and the 128-bit remainder.
#[inline]
fn div_3by2(top: u128, limb: u64, d: u128) -> (u64, u128) {
    const BASE: u128 = 1 << 64;
    let (d1, d0) = ((d >> 64) as u64, d as u64);
    // Estimate from the top two limbs against `d1` (at most 2 too large),
    // refined against `d0` (then at most 1 too large).
    let mut qhat = (top / u128::from(d1)).min(BASE - 1);
    let mut rhat = top - qhat * u128::from(d1);
    while rhat < BASE && qhat * u128::from(d0) > ((rhat << 64) | u128::from(limb)) {
        qhat -= 1;
        rhat += u128::from(d1);
    }
    // `qhat·d` as 192 bits against the dividend; one add-back if over.
    let low = qhat * u128::from(d0);
    let high = qhat * u128::from(d1) + (low >> 64);
    if high > top || (high == top && (low as u64) > limb) {
        qhat -= 1;
    }
    // The true remainder lies in `[0, d)`, so it is exact mod 2^128.
    let rem = ((top << 64) | u128::from(limb)).wrapping_sub(qhat.wrapping_mul(d));
    (qhat as u64, rem)
}

/// Computes `round(a * b / d)` exactly.
///
/// # Panics
/// Panics under the same conditions as [`div_rem_wide`].
pub fn mul_div_round(a: u128, b: u128, d: u128) -> u128 {
    let (hi, lo) = mul_u128(a, b);
    let (q, r) = div_rem_wide(hi, lo, d);
    if 2 * r >= d {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_small_matches_native() {
        for (a, b) in [(0u128, 0u128), (1, u64::MAX as u128), (12345, 67890)] {
            let (hi, lo) = mul_u128(a, b);
            assert_eq!(hi, 0);
            assert_eq!(lo, a * b);
        }
    }

    #[test]
    fn mul_max() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let (hi, lo) = mul_u128(u128::MAX, u128::MAX);
        assert_eq!(lo, 1);
        assert_eq!(hi, u128::MAX - 1);
    }

    #[test]
    fn div_roundtrip() {
        let a: u128 = (1 << 109) - 12345;
        let b: u128 = 1 << 32;
        let d: u128 = (1 << 109) - 7;
        let (hi, lo) = mul_u128(a, b);
        let (q, r) = div_rem_wide(hi, lo, d);
        // Verify q*d + r == a*b.
        let (vh, vl) = mul_u128(q, d);
        let (sum_lo, carry) = vl.overflowing_add(r);
        let sum_hi = vh + u128::from(carry);
        assert_eq!((sum_hi, sum_lo), (hi, lo));
        assert!(r < d);
    }

    #[test]
    fn rounding_behaviour() {
        assert_eq!(mul_div_round(7, 1, 2), 4); // 3.5 rounds up
        assert_eq!(mul_div_round(5, 1, 2), 3); // 2.5 rounds up
        assert_eq!(mul_div_round(4, 1, 3), 1); // 1.33 rounds down
        assert_eq!(mul_div_round(0, 99, 17), 0);
    }

    /// The 128-step restoring division `div_rem_wide` replaced.
    fn div_rem_bits(hi: u128, lo: u128, d: u128) -> (u128, u128) {
        let mut rem = hi;
        let mut quot = 0u128;
        for i in (0..128).rev() {
            rem = (rem << 1) | ((lo >> i) & 1);
            if rem >= d {
                rem -= d;
                quot |= 1u128 << i;
            }
        }
        (quot, rem)
    }

    #[test]
    fn limb_division_matches_the_bit_loop_at_the_edges() {
        let divisors =
            [1, 2, 3, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 109) - 7, (1 << 127) - 1];
        for d in divisors {
            for hi in [0, 1, d / 2, d - 1].into_iter().filter(|&hi| hi < d) {
                for lo in [0, 1, u128::MAX, u128::MAX / 3, 1 << 64, (1 << 64) - 1] {
                    assert_eq!(div_rem_wide(hi, lo, d), div_rem_bits(hi, lo, d), "{hi} {lo} / {d}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn limb_division_matches_the_bit_loop(
            d in 1u128..(1u128 << 127),
            bits in 1u32..=127,
            hi in proptest::prelude::any::<u128>(),
            lo in proptest::prelude::any::<u128>(),
        ) {
            // Divisors of every width, each with a top half below it.
            let d = (d >> (127 - bits)).max(1);
            let hi = hi % d;
            proptest::prop_assert_eq!(div_rem_wide(hi, lo, d), div_rem_bits(hi, lo, d));
        }
    }

    #[test]
    #[should_panic(expected = "quotient overflow")]
    fn overflowing_quotient_panics() {
        let _ = div_rem_wide(10, 0, 5);
    }
}
