//! Scalar modular arithmetic primitives.
//!
//! Three reduction strategies coexist, mirroring the hardware discussion in
//! the paper (§IV-G):
//!
//! * generic 128-bit remainder (the software-reference path),
//! * Barrett reduction for arbitrary word-sized moduli (what prior HE
//!   accelerators such as F1 implement with `q ≡ 1 mod 2^14` primes), and
//! * Solinas-style shift/add folding for the paper's special primes
//!   `q = 2^27 + 2^k + 1`, which replaces multiplications by bit shifts and
//!   is the source of IVE's 9.1% modular-multiplier area reduction.
//!
//! All strategies are tested for pairwise equivalence.

/// Adds `a + b (mod q)`. Requires `a, b < q` and `q < 2^63`.
#[inline(always)]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    let s = a + b;
    if s >= q {
        s - q
    } else {
        s
    }
}

/// Subtracts `a - b (mod q)`. Requires `a, b < q`.
#[inline(always)]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q);
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Negates `a (mod q)`. Requires `a < q`.
#[inline(always)]
pub(crate) fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q);
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies `a * b (mod q)` through a 128-bit product.
#[inline(always)]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Computes `base^exp (mod q)` by square-and-multiply.
pub fn pow_mod(base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc: u64 = 1 % q;
    let mut b = base % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, b, q);
        }
        b = mul_mod(b, b, q);
        exp >>= 1;
    }
    acc
}

/// Computes the modular inverse of `a` modulo prime `q` via Fermat.
///
/// # Panics
/// Panics if `a == 0 (mod q)`.
pub fn inv_mod_prime(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "zero has no inverse");
    pow_mod(a, q - 2, q)
}

/// Extended-Euclid modular inverse over `u128`, for possibly composite
/// moduli (e.g. the full RNS product `Q`). Returns `None` when
/// `gcd(a, m) != 1`.
pub fn inv_mod_u128(a: u128, m: u128) -> Option<u128> {
    if m == 0 {
        return None;
    }
    let (mut old_r, mut r) = (a as i128 % m as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let qt = old_r / r;
        (old_r, r) = (r, old_r - qt * r);
        (old_s, s) = (s, old_s - qt * s);
    }
    if old_r != 1 {
        return None;
    }
    Some(old_s.rem_euclid(m as i128) as u128)
}

/// Precomputed Shoup multiplication by a fixed operand `w` modulo `q`.
///
/// This is the standard lazy-reduction trick used by NTT butterflies in both
/// software (SEAL, HEXL) and hardware (F1, ARK) implementations: a single
/// high multiply predicts the quotient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The fixed multiplicand, `< q`.
    pub value: u64,
    /// `floor(value * 2^64 / q)`.
    pub quotient: u64,
}

impl ShoupMul {
    /// Prepares multiplication by `value` modulo `q`.
    pub fn new(value: u64, q: u64) -> Self {
        debug_assert!(value < q);
        let quotient = (((value as u128) << 64) / q as u128) as u64;
        ShoupMul { value, quotient }
    }

    /// Computes `self.value * a (mod q)`. Requires `a < q`.
    #[inline(always)]
    pub fn mul(&self, a: u64, q: u64) -> u64 {
        let hi = ((self.quotient as u128 * a as u128) >> 64) as u64;
        let r = self.value.wrapping_mul(a).wrapping_sub(hi.wrapping_mul(q));
        if r >= q {
            r - q
        } else {
            r
        }
    }
}

/// Barrett reduction context for a fixed modulus `q < 2^62`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett {
    q: u64,
    /// `floor(2^128 / q)` split into two 64-bit limbs (hi, lo).
    ratio: (u64, u64),
}

impl Barrett {
    /// Prepares Barrett reduction by `q`.
    ///
    /// # Panics
    /// Panics if `q < 2` or `q >= 2^62`.
    pub fn new(q: u64) -> Self {
        assert!((2..1u64 << 62).contains(&q), "Barrett modulus out of range");
        // floor(2^128 / q) computed via 256/64 long division on two limbs.
        let hi = (u128::MAX / q as u128) as u64;
        // Remainder of 2^128 mod q: since 2^128 = (u128::MAX) + 1,
        // 2^128 mod q = (u128::MAX mod q + 1) mod q.
        let hi_full = u128::MAX / q as u128;
        let rem = u128::MAX - hi_full * q as u128; // u128::MAX mod q
        let _ = hi;
        // floor(2^128/q) = hi_full when rem+1 < q else hi_full+1 (rem+1==q).
        let ratio_full = if rem + 1 == q as u128 { hi_full + 1 } else { hi_full };
        Barrett { q, ratio: ((ratio_full >> 64) as u64, ratio_full as u64) }
    }

    /// Reduces a 128-bit value modulo `q`.
    #[inline(always)]
    pub fn reduce(&self, x: u128) -> u64 {
        let (x_hi, x_lo) = ((x >> 64) as u64, x as u64);
        let (r_hi, r_lo) = self.ratio;
        // Estimate the quotient: top 128 bits of x * ratio / 2^128.
        // q_est = floor(x * ratio / 2^128)
        let lo_lo = (x_lo as u128 * r_lo as u128) >> 64;
        let mid1 = x_lo as u128 * r_hi as u128;
        let mid2 = x_hi as u128 * r_lo as u128;
        let carry = (lo_lo + (mid1 & 0xFFFF_FFFF_FFFF_FFFF) + (mid2 & 0xFFFF_FFFF_FFFF_FFFF)) >> 64;
        let q_est = (x_hi as u128 * r_hi as u128) + (mid1 >> 64) + (mid2 >> 64) + carry;
        let r = x.wrapping_sub(q_est.wrapping_mul(self.q as u128)) as u64;
        // One conditional correction suffices for q < 2^62.
        let mut r = r;
        while r >= self.q {
            r -= self.q;
        }
        r
    }

    /// Multiplies `a * b (mod q)`.
    #[inline(always)]
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }
}

/// Solinas-style reduction for the paper's special primes
/// `q = 2^27 + 2^k + 1` (§IV-G).
///
/// Uses the congruence `2^27 ≡ -(2^k + 1) (mod q)` to fold the input with
/// shifts and adds only, modeling the multiplier-free hardware datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solinas {
    q: u64,
    k: u32,
}

impl Solinas {
    /// Prepares folding for `q = 2^27 + 2^k + 1`.
    ///
    /// Returns `None` when `q` is not of that shape.
    pub fn new(q: u64) -> Option<Self> {
        for k in 1..27 {
            if q == (1u64 << 27) + (1u64 << k) + 1 {
                return Some(Solinas { q, k });
            }
        }
        None
    }

    /// Reduces a 128-bit value modulo `q` with shift/add folding.
    #[inline]
    pub fn reduce(&self, x: u128) -> u64 {
        debug_assert!(x < (1u128 << 120));
        let mut r: i128 = x as i128;
        let fold_mul = (1i128 << self.k) + 1;
        // Each fold shrinks |r| (for |r| >= 2^28, |fold(r)| <= |r|/2 + |r|/16).
        while r.unsigned_abs() >= (1u128 << 28) {
            let neg = r < 0;
            let a = r.unsigned_abs();
            let lo = (a & ((1 << 27) - 1)) as i128;
            let hi = (a >> 27) as i128;
            let folded = lo - hi * fold_mul;
            r = if neg { -folded } else { folded };
        }
        r.rem_euclid(self.q as i128) as u64
    }

    /// Multiplies `a * b (mod q)`.
    #[inline]
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    const Q: u64 = (1 << 27) + (1 << 15) + 1;

    #[test]
    fn add_sub_neg_roundtrip() {
        for (a, b) in [(0, 0), (1, Q - 1), (Q - 1, Q - 1), (12345, 678)] {
            let s = add_mod(a, b, Q);
            assert_eq!(sub_mod(s, b, Q), a);
            assert_eq!(add_mod(a, neg_mod(a, Q), Q), 0);
        }
    }

    #[test]
    fn pow_and_inverse() {
        let x = 987_654_321 % Q;
        let inv = inv_mod_prime(x, Q);
        assert_eq!(mul_mod(x, inv, Q), 1);
        assert_eq!(pow_mod(x, 0, Q), 1);
        assert_eq!(pow_mod(x, 1, Q), x);
    }

    #[test]
    fn inv_mod_u128_composite() {
        let m: u128 = 15; // composite
        assert_eq!(inv_mod_u128(2, m), Some(8));
        assert_eq!(inv_mod_u128(3, m), None); // gcd 3
        let q_big: u128 = 134250497u128 * 134348801;
        let inv2 = inv_mod_u128(2, q_big).unwrap();
        assert_eq!((inv2 * 2) % q_big, 1);
    }

    #[test]
    fn shoup_matches_mul_mod() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let w = rng.gen_range(0..Q);
            let a = rng.gen_range(0..Q);
            let s = ShoupMul::new(w, Q);
            assert_eq!(s.mul(a, Q), mul_mod(w, a, Q));
        }
    }

    #[test]
    fn barrett_matches_rem() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for &q in &[Q, (1 << 27) + (1 << 22) + 1, 0x1000_0000_0000_003F] {
            let b = Barrett::new(q);
            for _ in 0..2000 {
                let x: u128 = (rng.gen::<u64>() as u128) * (rng.gen::<u64>() as u128);
                assert_eq!(b.reduce(x), (x % q as u128) as u64, "q={q} x={x}");
            }
            assert_eq!(b.reduce(0), 0);
            assert_eq!(b.reduce(q as u128), 0);
            assert_eq!(b.reduce(q as u128 - 1), q - 1);
        }
    }

    #[test]
    fn solinas_matches_rem_all_special_primes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for k in [15u32, 17, 21, 22] {
            let q = (1u64 << 27) + (1u64 << k) + 1;
            let s = Solinas::new(q).expect("special shape");
            assert_eq!(s.k, k);
            for _ in 0..2000 {
                let a = rng.gen_range(0..q);
                let b = rng.gen_range(0..q);
                assert_eq!(s.mul(a, b), mul_mod(a, b, q), "k={k}");
            }
            // Wide inputs (as produced by iCRT accumulations).
            for _ in 0..500 {
                let x: u128 = rng.gen::<u128>() >> 9; // < 2^119
                assert_eq!(s.reduce(x), (x % q as u128) as u64);
            }
        }
    }

    #[test]
    fn solinas_rejects_other_primes() {
        assert!(Solinas::new(0x1000_0000_0000_003F).is_none());
        assert!(Solinas::new((1 << 27) + 1).is_none());
    }
}
