//! Negacyclic number-theoretic transform over a prime field.
//!
//! The transform evaluates a polynomial of degree `< n` at the odd powers of
//! a primitive `2n`-th root of unity `ψ`, so that pointwise multiplication
//! corresponds to negacyclic convolution in `Z_q[X]/(X^n + 1)` (§II-B).
//!
//! The butterfly networks follow the fused-twist formulation (Longa–Naehrig,
//! as used by SEAL and hardware NTT units such as F1's): Cooley–Tukey
//! decimation-in-time forward, Gentleman–Sande decimation-in-frequency
//! inverse, with Shoup lazy multiplication on precomputed twiddles.

use crate::modulus::Modulus;
use crate::reduce::ShoupMul;
use crate::{bit_reverse, log2_exact, MathError};

/// A twiddle table as structure-of-arrays of 4-byte words, for the
/// sixteen-lane kernels: entry `i` of a `[ShoupMul]` table split into
/// `value[i]` and `quotient[i] = ⌊value[i]·2^32/q⌋` (the stored 64-bit
/// Shoup quotient `>> 32`), so a vector kernel fetches the twiddles of
/// consecutive butterfly blocks with one contiguous load per array.
#[derive(Debug, Clone)]
pub(crate) struct TwiddleWords {
    /// `ShoupMul::value` of every entry.
    pub(crate) value: Vec<u32>,
    /// `ShoupMul::quotient >> 32` of every entry.
    pub(crate) quotient: Vec<u32>,
}

/// Widest modulus an NTT table is built for, and so the widest limb a
/// ring can have: the 32-bit-lane transforms' lazy values ride in
/// `[0, 4q)`, and the truncated Shoup estimate keeps a product in
/// `[0, 2q)` only for an operand below `2^31`, so `4q < 2^31`.
pub(crate) const NARROW_NTT_MAX_BITS: u32 = 29;

impl TwiddleWords {
    fn new(table: &[ShoupMul]) -> Self {
        TwiddleWords {
            value: table.iter().map(|w| w.value as u32).collect(),
            quotient: table.iter().map(|w| (w.quotient >> 32) as u32).collect(),
        }
    }
}

/// Precomputed tables for an `n`-point negacyclic NTT modulo a fixed prime.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    modulus: Modulus,
    /// `ψ^{bitrev(i, log n)}` for the forward pass.
    psi_rev: Vec<ShoupMul>,
    /// `ψ^{-bitrev(i, log n)}` for the inverse pass.
    ipsi_rev: Vec<ShoupMul>,
    /// `n^{-1} (mod q)` for final inverse scaling.
    n_inv: ShoupMul,
    /// `psi_rev` as structure-of-arrays of 4-byte words.
    psi_words: TwiddleWords,
    /// `ipsi_rev` as structure-of-arrays of 4-byte words.
    ipsi_words: TwiddleWords,
    /// `n^{-1}·ipsi_rev[1]`: the last inverse level's twiddle with the
    /// scaling folded in.
    n_inv_ipsi1: ShoupMul,
}

impl NttTable {
    /// Builds tables for degree `n` (a power of two `>= 2`).
    ///
    /// # Errors
    /// Fails when `2n` does not divide `q - 1`, or when `q` is wider than
    /// 29 bits (`NARROW_NTT_MAX_BITS`), which no transform serves
    /// (the cap [`crate::rns::RnsBasis::new`] puts on a limb).
    pub fn new(modulus: &Modulus, n: usize) -> Result<Self, MathError> {
        let log_n = log2_exact(n)?;
        let q = modulus.value();
        if modulus.bits() > NARROW_NTT_MAX_BITS || !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(MathError::NotNttFriendly { q, n });
        }
        let psi = modulus.element_of_order(2 * n as u64)?;
        let ipsi = modulus.inv(psi);
        let mut psi_rev = vec![ShoupMul::new(1, q); n];
        let mut ipsi_rev = vec![ShoupMul::new(1, q); n];
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        let mut pows_f = vec![0u64; n];
        let mut pows_i = vec![0u64; n];
        for i in 0..n {
            pows_f[i] = pow_f;
            pows_i[i] = pow_i;
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, ipsi);
        }
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            psi_rev[i] = ShoupMul::new(pows_f[r], q);
            ipsi_rev[i] = ShoupMul::new(pows_i[r], q);
        }
        let n_inv = ShoupMul::new(modulus.inv(n as u64), q);
        let n_inv_ipsi1 = ShoupMul::new(modulus.mul(n_inv.value, ipsi_rev[1].value), q);
        let psi_words = TwiddleWords::new(&psi_rev);
        let ipsi_words = TwiddleWords::new(&ipsi_rev);
        Ok(NttTable {
            n,
            modulus: *modulus,
            psi_rev,
            ipsi_rev,
            n_inv,
            psi_words,
            ipsi_words,
            n_inv_ipsi1,
        })
    }

    /// The transform size.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The field modulus.
    #[inline]
    pub(crate) fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The forward twiddles `ψ^{bitrev(i)}` with their Shoup quotients —
    /// exposed so alternative butterfly implementations (the scalar
    /// reference backend of [`crate::kernel`]) share one table.
    #[inline]
    pub(crate) fn psi_rev(&self) -> &[ShoupMul] {
        &self.psi_rev
    }

    /// The inverse twiddles `ψ^{-bitrev(i)}`.
    #[inline]
    pub(crate) fn ipsi_rev(&self) -> &[ShoupMul] {
        &self.ipsi_rev
    }

    /// The final inverse scaling factor `n^{-1}`.
    #[inline]
    pub fn n_inv(&self) -> &ShoupMul {
        &self.n_inv
    }

    /// [`NttTable::psi_rev`] as structure-of-arrays of 4-byte words, for
    /// the vector kernels' contiguous twiddle loads.
    #[inline]
    pub(crate) fn psi_words(&self) -> &TwiddleWords {
        &self.psi_words
    }

    /// [`NttTable::ipsi_rev`] as structure-of-arrays of 4-byte words.
    #[inline]
    pub(crate) fn ipsi_words(&self) -> &TwiddleWords {
        &self.ipsi_words
    }

    /// `n^{-1}·ipsi_rev[1]`: the twiddle of the last inverse level (its
    /// one block) with the final scaling folded in, for kernels that
    /// scale inside their last pass.
    #[inline]
    pub(crate) fn n_inv_ipsi1(&self) -> &ShoupMul {
        &self.n_inv_ipsi1
    }

    /// In-place forward negacyclic NTT (coefficient order in, transform
    /// order out).
    ///
    /// # Panics
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = self.modulus.value();
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let w = self.psi_rev[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = w.mul(a[j + t], q);
                    a[j] = crate::reduce::add_mod(u, v, q);
                    a[j + t] = crate::reduce::sub_mod(u, v, q);
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (transform order in, coefficient
    /// order out), including the `n^{-1}` scaling.
    ///
    /// # Panics
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        let q = self.modulus.value();
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = self.ipsi_rev[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = crate::reduce::add_mod(u, v, q);
                    a[j + t] = w.mul(crate::reduce::sub_mod(u, v, q), q);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            *x = self.n_inv.mul(*x, q);
        }
    }

    /// Pointwise product `a ⊙ b` into `a` (both in transform order).
    ///
    /// # Panics
    /// Panics if slice lengths differ from `n`.
    pub fn pointwise_mul_assign(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.modulus.mul(*x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::negacyclic_mul_schoolbook;
    use rand::{Rng, SeedableRng};

    fn table(n: usize) -> NttTable {
        NttTable::new(&Modulus::special_primes()[0], n).unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        for n in [2usize, 8, 64, 256, 4096] {
            let t = table(n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.modulus().value())).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn matches_schoolbook_negacyclic_product() {
        let n = 128;
        let t = table(n);
        let q = t.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let expected = negacyclic_mul_schoolbook(&a, &b, q);
            let mut fa = a.clone();
            let mut fb = b.clone();
            t.forward(&mut fa);
            t.forward(&mut fb);
            t.pointwise_mul_assign(&mut fa, &fb);
            t.inverse(&mut fa);
            assert_eq!(fa, expected);
        }
    }

    #[test]
    fn x_times_x_pow_nminus1_is_minus_one() {
        // X * X^{n-1} = X^n = -1 in the negacyclic ring.
        let n = 64;
        let t = table(n);
        let q = t.modulus().value();
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        a[1] = 1;
        b[n - 1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        t.pointwise_mul_assign(&mut a, &b);
        t.inverse(&mut a);
        let mut expected = vec![0u64; n];
        expected[0] = q - 1;
        assert_eq!(a, expected);
    }

    #[test]
    fn linearity() {
        let n = 32;
        let t = table(n);
        let q = t.modulus().value();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let sum: Vec<u64> =
            a.iter().zip(&b).map(|(&x, &y)| crate::reduce::add_mod(x, y, q)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        for i in 0..n {
            assert_eq!(fs[i], crate::reduce::add_mod(fa[i], fb[i], q));
        }
    }

    #[test]
    fn narrow_soa_table_mirrors_psi_rev() {
        let widest = Modulus::new(crate::prime::find_ntt_prime_below(29, 4096).unwrap());
        for m in Modulus::special_primes().into_iter().chain([widest]) {
            for n in [2usize, 32, 256, 4096] {
                let t = NttTable::new(&m, n).unwrap();
                for (words, table) in [(t.psi_words(), t.psi_rev()), (t.ipsi_words(), t.ipsi_rev())]
                {
                    assert_eq!((words.value.len(), words.quotient.len()), (n, n));
                    for (i, w) in table.iter().enumerate() {
                        assert_eq!(u64::from(words.value[i]), w.value, "i={i}");
                        // The quotient the lazy product's bound is stated for.
                        let exact = (u128::from(w.value) << 32) / u128::from(m.value());
                        assert_eq!(u128::from(words.quotient[i]), exact, "i={i}");
                    }
                }
                let folded = m.mul(t.n_inv().value, t.ipsi_rev()[1].value);
                assert_eq!(*t.n_inv_ipsi1(), ShoupMul::new(folded, m.value()));
            }
        }
        // No table at all above the kernels' cap.
        let wide = Modulus::new(crate::prime::find_ntt_prime_below(30, 64).unwrap());
        let refused = NttTable::new(&wide, 64);
        assert!(matches!(refused, Err(MathError::NotNttFriendly { n: 64, .. })), "{refused:?}");
    }

    #[test]
    fn tables_stop_at_the_29_bit_cap() {
        // The widest 29-bit NTT prime builds a table; the first 30-bit
        // one (the least NTT prime at or above 2^29) is refused with the
        // typed error, as `RnsBasis::new` refuses the limb.
        let n = 4096;
        let widest = crate::prime::find_ntt_prime_below(29, n).unwrap();
        assert_eq!(64 - widest.leading_zeros(), NARROW_NTT_MAX_BITS);
        assert!(NttTable::new(&Modulus::new(widest), n).is_ok());
        let step = 2 * n as u64;
        let first = ((1u64 << 29) / step + 1..)
            .map(|j| j * step + 1)
            .find(|&q| crate::prime::is_prime(q))
            .unwrap();
        assert_eq!(64 - first.leading_zeros(), NARROW_NTT_MAX_BITS + 1);
        let refused = NttTable::new(&Modulus::new(first), n);
        assert!(matches!(refused, Err(MathError::NotNttFriendly { q, n: 4096 }) if q == first));
    }

    #[test]
    fn all_special_primes_support_degree_4096() {
        for m in Modulus::special_primes() {
            assert!(NttTable::new(&m, 4096).is_ok());
        }
    }

    #[test]
    fn unfriendly_modulus_rejected() {
        // 97 - 1 = 96 is not divisible by 2·64.
        let m = Modulus::new(97);
        assert!(matches!(NttTable::new(&m, 64), Err(MathError::NotNttFriendly { .. })));
    }
}
