//! The portable serving backend: Barrett per-limb constants, fused
//! lazy-reduction FMA, Harvey-style lazy NTT butterflies on Shoup
//! twiddles, 4×-unrolled flat loops.
//!
//! Both NTTs run in place on 4-byte rows (`4q < 2^31` keeps a lazy value
//! in a word); the vector backends hand their smallest rings to them.
//!
//! `fma` and `pointwise_mul` keep a scalar Barrett on `floor(2^64/q)`
//! (one `u128` high product per word): at the baseline target that beats
//! the vector backends' 32-bit-factor body (`barrett_words`), which only
//! pays where it vectorizes. The lazy MAC is the trait's portable default
//! (`mac2_words`), the fold, the `ExpandQuery` epilogue and `Dcp` the
//! portable bodies the vector backends compile for their ISA.

use crate::arena::KernelArena;
use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::rns::RingContext;

use super::{ShoupRow, VpeBackend};

/// The portable serving backend: Barrett per-limb constants, fused
/// lazy-reduction FMA, Harvey-style lazy NTT butterflies on Shoup
/// twiddles, 4×-unrolled flat loops.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizedBackend;

/// Branch-free conditional subtraction: `x - q` when `x >= q`, else `x`.
/// Written arithmetically so the compiler never lowers the hot loops to
/// a data-dependent (unpredictable) branch.
#[inline(always)]
pub(crate) fn cond_sub(x: u64, q: u64) -> u64 {
    x.wrapping_sub(q & 0u64.wrapping_sub(u64::from(x >= q)))
}

/// Lazy Shoup product `value·v mod q` left in `[0, 2q)`: one high
/// multiply predicts the quotient; the final correction is deferred to
/// the caller (the Harvey NTT trick). Exact for any `v < 2^64`.
#[inline(always)]
pub(crate) fn shoup_lazy(value: u64, quotient: u64, v: u64, q: u64) -> u64 {
    let hi = ((quotient as u128 * v as u128) >> 64) as u64;
    value.wrapping_mul(v).wrapping_sub(hi.wrapping_mul(q))
}

impl OptimizedBackend {
    /// One fused wide FMA element for moduli above 32 bits: the
    /// accumulate is folded into the Barrett reduction (`(a·b + acc)
    /// mod q` in one pass), exact because `(q-1)^2 + q < 2^124` fits the
    /// reducer.
    #[inline(always)]
    fn fma_one_wide(modulus: &Modulus, acc: u64, a: u64, b: u64) -> u64 {
        modulus.reduce_u128(a as u128 * b as u128 + acc as u128)
    }

    /// One fused narrow FMA element for word-sized moduli (`q < 2^32`,
    /// which covers the paper's 28-bit special primes): `a·b + acc`
    /// fits `u64`, so a single-limb Barrett with the precomputed
    /// `ratio = floor(2^64/q)` replaces the 128-bit path. The estimate
    /// undershoots by at most 2, corrected branch-free.
    #[inline(always)]
    pub(crate) fn fma_one_narrow(ratio: u64, q: u64, acc: u64, a: u64, b: u64) -> u64 {
        Self::reduce_word(ratio, q, a * b + acc)
    }

    /// `p mod q` for any `p < 2^64` by the single-limb Barrett, with
    /// `ratio = floor(2^64/q)` ([`Self::narrow_ratio`]): the estimate
    /// `floor(p·ratio / 2^64)` undershoots `floor(p/q)` by at most 2 for
    /// any modulus, corrected branch-free.
    #[inline(always)]
    pub(crate) fn reduce_word(ratio: u64, q: u64, p: u64) -> u64 {
        let hi = ((p as u128 * ratio as u128) >> 64) as u64;
        let r = p.wrapping_sub(hi.wrapping_mul(q));
        cond_sub(cond_sub(r, q), q)
    }

    /// `floor(2^64 / q)` for the single-limb Barrett (`q` is an odd prime, so it
    /// never divides `2^64` and the `u64::MAX` quotient is exact).
    #[inline(always)]
    pub(crate) fn narrow_ratio(q: u64) -> u64 {
        u64::MAX / q
    }
}

impl VpeBackend for OptimizedBackend {
    fn name(&self) -> &'static str {
        "optimized"
    }

    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        crate::metrics::count_pointwise_macs(acc.len() as u64);
        let q = modulus.value();
        if modulus.bits() <= 32 {
            let ratio = Self::narrow_ratio(q);
            let mut acc_it = acc.chunks_exact_mut(4);
            let mut a_it = a.chunks_exact(4);
            let mut b_it = b.chunks_exact(4);
            for ((x, ai), bi) in (&mut acc_it).zip(&mut a_it).zip(&mut b_it) {
                x[0] = Self::fma_one_narrow(ratio, q, x[0], ai[0], bi[0]);
                x[1] = Self::fma_one_narrow(ratio, q, x[1], ai[1], bi[1]);
                x[2] = Self::fma_one_narrow(ratio, q, x[2], ai[2], bi[2]);
                x[3] = Self::fma_one_narrow(ratio, q, x[3], ai[3], bi[3]);
            }
            for ((x, &ai), &bi) in
                acc_it.into_remainder().iter_mut().zip(a_it.remainder()).zip(b_it.remainder())
            {
                *x = Self::fma_one_narrow(ratio, q, *x, ai, bi);
            }
        } else {
            for ((x, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
                *x = Self::fma_one_wide(modulus, *x, ai, bi);
            }
        }
    }

    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        crate::metrics::count_pointwise_macs(a.len() as u64);
        let q = modulus.value();
        if modulus.bits() <= 32 {
            let ratio = Self::narrow_ratio(q);
            let mut a_it = a.chunks_exact_mut(4);
            let mut b_it = b.chunks_exact(4);
            for (x, bi) in (&mut a_it).zip(&mut b_it) {
                x[0] = Self::fma_one_narrow(ratio, q, 0, x[0], bi[0]);
                x[1] = Self::fma_one_narrow(ratio, q, 0, x[1], bi[1]);
                x[2] = Self::fma_one_narrow(ratio, q, 0, x[2], bi[2]);
                x[3] = Self::fma_one_narrow(ratio, q, 0, x[3], bi[3]);
            }
            for (x, &bi) in a_it.into_remainder().iter_mut().zip(b_it.remainder()) {
                *x = Self::fma_one_narrow(ratio, q, 0, *x, bi);
            }
        } else {
            for (x, &bi) in a.iter_mut().zip(b) {
                *x = modulus.mul(*x, bi);
            }
        }
    }

    fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
        super::fold_dispatch(modulus, acc, super::fold_words)
    }

    fn branch_lazy(
        &self,
        modulus: &Modulus,
        acc: &[u64],
        x: &mut [u32],
        odd: &mut [u32],
        monomial: ShoupRow<'_>,
    ) {
        let plan = super::check_branch_rows(modulus, acc, x, odd, monomial);
        super::branch_words(&plan, acc, x, odd, monomial)
    }

    fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        // Harvey lazy butterflies: values ride in [0, 4q) between levels
        // (q < 2^29, so 4q fits a 4-byte word), the twiddle product stays
        // lazily reduced in [0, 2q), and one branch-free pass at the end
        // restores [0, q) — bit-identical to the strict transform.
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
        let psi = table.psi_rev();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let w = psi[m + i];
                let (wv, wq) = (w.value, w.quotient);
                let j1 = 2 * i * t;
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = cond_sub(u64::from(*x), two_q);
                    let v = shoup_lazy(wv, wq, u64::from(*y), q);
                    *x = (u + v) as u32;
                    *y = (u + two_q - v) as u32;
                }
            }
            m <<= 1;
        }
        for x in a.iter_mut() {
            *x = cond_sub(cond_sub(u64::from(*x), two_q), q) as u32;
        }
    }

    fn ntt_inverse_narrow(&self, table: &NttTable, a: &mut [u32]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        // Gentleman–Sande with the same laziness: sums ride in [0, 2q),
        // differences go straight through a lazy Shoup twiddle, and the
        // final n^{-1} scaling pass restores [0, q).
        let n = table.n();
        let q = table.modulus().value();
        let two_q = 2 * q;
        let ipsi = table.ipsi_rev();
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = ipsi[h + i];
                let (wv, wq) = (w.value, w.quotient);
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (u, v) = (u64::from(*x), u64::from(*y));
                    *x = cond_sub(u + v, two_q) as u32;
                    *y = shoup_lazy(wv, wq, u + two_q - v, q) as u32;
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv();
        let (nv, nq) = (n_inv.value, n_inv.quotient);
        for x in a.iter_mut() {
            *x = cond_sub(shoup_lazy(nv, nq, u64::from(*x), q), q) as u32;
        }
    }

    fn icrt_decompose(
        &self,
        ring: &RingContext,
        coeff: &[u32],
        tau: Option<usize>,
        gadget: &Gadget,
        arena: &mut KernelArena,
        out: &mut [u32],
    ) {
        super::dcp_dispatch(ring, coeff, tau, gadget, arena, out, super::dcp_chunked)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{check_barrett_extremes, check_fma_mul_and_ntt};
    use super::super::ScalarBackend;
    use super::*;
    use crate::rns::RnsPoly;

    #[test]
    fn optimized_matches_scalar_on_every_kernel() {
        check_fma_mul_and_ntt(&OptimizedBackend, 53);
    }

    #[test]
    fn optimized_barrett_exact_at_extreme_operands() {
        check_barrett_extremes(&OptimizedBackend);
    }

    #[test]
    fn decompose_digit_major_layout() {
        let ring = RingContext::test_ring(8, 2);
        let (g, n) = (Gadget::new(14, 4), ring.n());
        let mut wide = [0u128; 8];
        wide[1] = (1 << 14) + 3;
        wide[2] = (1 << 50) + 5;
        let coeff = RnsPoly::from_coeffs_u128(&ring, &wide);
        let coeff: Vec<u32> = coeff.as_words().iter().map(|&w| w as u32).collect();
        let mut arena = KernelArena::new();
        let mut s = vec![0u32; 4 * n];
        let mut o = vec![0u32; 4 * n];
        ScalarBackend.icrt_decompose(&ring, &coeff, None, &g, &mut arena, &mut s);
        OptimizedBackend.icrt_decompose(&ring, &coeff, None, &g, &mut arena, &mut o);
        assert_eq!(s, o);
        assert_eq!(s[1], 3, "digit 0 of coefficient 1");
        assert_eq!(s[n + 1], 1, "digit 1 of coefficient 1");
        assert_eq!((s[2], s[3 * n + 2]), (5, 1 << 8), "digits 0 and 3 of coefficient 2");
    }
}
