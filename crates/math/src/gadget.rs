//! Base-`z` gadget (digit) decomposition — the `Dcp` operation of Fig. 3.
//!
//! A value `x < Q` is written as `x = Σ_j d_j z^j` with unsigned digits
//! `d_j ∈ [0, z)`, exactly as described in §II-D ("each coefficient
//! represents the k-th digit in base z ... falling within the range
//! [0, z−1]"). The external product and `Subs` both consume this.

use crate::MathError;

/// A power-of-two decomposition base `z = 2^base_bits` with `ell` digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gadget {
    base_bits: u32,
    ell: usize,
}

impl Gadget {
    /// Creates a gadget with explicit base and digit count.
    ///
    /// # Panics
    /// Panics if `base_bits` is zero or exceeds 27 (digits must stay below
    /// every 28-bit RNS prime), or if `ell == 0`.
    pub fn new(base_bits: u32, ell: usize) -> Self {
        assert!((1..=27).contains(&base_bits), "base 2^{base_bits} unsupported");
        assert!(ell >= 1);
        Gadget { base_bits, ell }
    }

    /// Derives the minimal digit count covering `q_big`
    /// (`z^ell >= Q`, Table I).
    pub fn for_modulus(q_big: u128, base_bits: u32) -> Self {
        let q_bits = 128 - q_big.leading_zeros();
        let ell = q_bits.div_ceil(base_bits) as usize;
        Gadget::new(base_bits, ell.max(1))
    }

    /// Checks that this gadget covers `q_big` (`z^ell >= Q`).
    ///
    /// # Errors
    /// Returns [`MathError::GadgetTooSmall`] otherwise.
    pub fn check_covers(&self, q_big: u128) -> Result<(), MathError> {
        let q_bits = 128 - q_big.leading_zeros();
        if (self.base_bits as usize) * self.ell >= q_bits as usize {
            Ok(())
        } else {
            Err(MathError::GadgetTooSmall { base_bits: self.base_bits, ell: self.ell, q_bits })
        }
    }

    /// The number of digits `ell`.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// `log2` of the base.
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// The base `z`.
    #[inline]
    pub fn base(&self) -> u128 {
        1u128 << self.base_bits
    }

    /// Extracts digit `j` of `x`; a digit that starts past bit 127 (a
    /// gadget with more than 128 bits of digits) is zero.
    ///
    /// # Panics
    /// Panics if `j >= ell`.
    #[inline]
    pub fn digit(&self, x: u128, j: usize) -> u64 {
        assert!(j < self.ell);
        // `ell · base_bits` can exceed 128; a shift by that much wraps in
        // release and panics in debug.
        let shift = self.base_bits as usize * j;
        if shift < 128 {
            ((x >> shift) & (self.base() - 1)) as u64
        } else {
            0
        }
    }

    /// Writes all `ell` digits of `x` into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != ell`.
    pub fn decompose_u128(&self, x: u128, out: &mut [u64]) {
        assert_eq!(out.len(), self.ell);
        let mask = self.base() - 1;
        let mut v = x;
        for d in out.iter_mut() {
            *d = (v & mask) as u64;
            v >>= self.base_bits;
        }
    }

    /// Recomposes `Σ_j d_j z^j`. Inverse of [`Gadget::decompose_u128`] for
    /// values that fit.
    pub fn recompose(&self, digits: &[u64]) -> u128 {
        assert_eq!(digits.len(), self.ell);
        let mut acc: u128 = 0;
        for (j, &d) in digits.iter().enumerate() {
            acc += (d as u128) << (self.base_bits as usize * j);
        }
        acc
    }

    /// The gadget powers `z^j` for `j in 0..ell`.
    pub fn powers(&self) -> Vec<u128> {
        (0..self.ell).map(|j| 1u128 << (self.base_bits as usize * j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn decompose_recompose_roundtrip() {
        let g = Gadget::new(14, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut digits = vec![0u64; g.ell()];
        for _ in 0..200 {
            let x: u128 = rng.gen::<u128>() >> (128 - 14 * 8);
            g.decompose_u128(x, &mut digits);
            assert_eq!(g.recompose(&digits), x);
            for &d in &digits {
                assert!((d as u128) < g.base());
            }
        }
    }

    #[test]
    fn for_modulus_covers() {
        let q_big: u128 = (1 << 109) - 1;
        for base_bits in [7u32, 14, 20, 22] {
            let g = Gadget::for_modulus(q_big, base_bits);
            assert!(g.check_covers(q_big).is_ok());
            // Minimal: one fewer digit must not cover.
            if g.ell() > 1 {
                let smaller = Gadget::new(base_bits, g.ell() - 1);
                assert!(smaller.check_covers(q_big).is_err());
            }
        }
    }

    #[test]
    fn paper_table1_ranges() {
        // Table I: z ∈ {2^14 .. 2^22}, ℓ ∈ {5..8}, z^ℓ >= Q (109-bit Q).
        let q_big: u128 = 134250497u128 * 134348801 * 136314881 * 138412033;
        let g14 = Gadget::for_modulus(q_big, 14);
        assert_eq!(g14.ell(), 8);
        let g22 = Gadget::for_modulus(q_big, 22);
        assert_eq!(g22.ell(), 5);
    }

    #[test]
    fn digit_matches_decompose() {
        let g = Gadget::new(5, 6);
        let x = 0x3_1759_ACEDu128 & ((1 << 30) - 1);
        let mut digits = vec![0u64; 6];
        g.decompose_u128(x, &mut digits);
        for (j, &d) in digits.iter().enumerate() {
            assert_eq!(g.digit(x, j), d);
        }
    }

    #[test]
    fn surplus_digits_past_bit_127_are_zero() {
        // 10 × 14 = 140 bits of digits: digit 9 straddles bit 127 and must
        // keep its two low bits; with 27-bit digits, digits 5.. start past
        // bit 127, where a plain `x >> (27·j)` wraps (release) or panics
        // (debug) — CI runs this test under both profiles.
        // `decompose_u128` shifts one digit at a time and never could.
        let x = u128::MAX;
        let g = Gadget::new(14, 10);
        assert_eq!(g.digit(x, 8), (1 << 14) - 1);
        assert_eq!(g.digit(x, 9), 0b11);
        let wide = Gadget::new(27, 12);
        let mut digits = vec![u64::MAX; 12];
        wide.decompose_u128(x, &mut digits);
        for (j, &d) in digits.iter().enumerate() {
            let want = match j {
                0..=3 => (1 << 27) - 1,
                4 => (1 << (128 - 4 * 27)) - 1,
                _ => 0,
            };
            assert_eq!((d, wide.digit(x, j)), (want, want), "digit {j}");
        }
    }

    #[test]
    fn powers_are_gadget_vector() {
        let g = Gadget::new(10, 3);
        assert_eq!(g.powers(), vec![1, 1 << 10, 1 << 20]);
    }
}
