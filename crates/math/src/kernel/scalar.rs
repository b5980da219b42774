//! The readable reference backend: one 128-bit remainder per product.
//!
//! [`ScalarBackend`] is deliberately the slowest implementation of
//! [`VpeBackend`]: every product goes through [`reduce::mul_mod`]'s
//! 128-bit remainder and every butterfly uses the raw (non-Shoup)
//! twiddle value. That makes it the differential-testing oracle the
//! optimized and SIMD backends are proven bit-identical against.

use crate::arena::KernelArena;
use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::reduce;
use crate::rns::RingContext;

use super::{MacTerm, ShoupRow, VpeBackend};

/// The readable reference backend: one 128-bit remainder per product.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl VpeBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        crate::metrics::count_pointwise_macs(acc.len() as u64);
        let q = modulus.value();
        for ((x, &ai), &bi) in acc.iter_mut().zip(a).zip(b) {
            *x = reduce::add_mod(*x, reduce::mul_mod(ai, bi, q), q);
        }
    }

    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        crate::metrics::count_pointwise_macs(a.len() as u64);
        let q = modulus.value();
        for (x, &bi) in a.iter_mut().zip(b) {
            *x = reduce::mul_mod(*x, bi, q);
        }
    }

    /// The oracle's dual MAC is never lazy: one 128-bit remainder per
    /// product keeps the accumulator canonical, which trivially satisfies
    /// the "congruent, never wraps" contract for any input word.
    fn mac2_lazy(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        terms: &[MacTerm<'_>],
    ) {
        super::check_mac_terms(modulus, acc_a.len(), acc_b, terms);
        let q = u128::from(modulus.value());
        let step =
            |x: u64, a: u32, b: u32| ((u128::from(x) + u128::from(a) * u128::from(b)) % q) as u64;
        for &(w, ea, eb) in terms {
            for (i, &wi) in w.iter().enumerate() {
                acc_a[i] = step(acc_a[i], wi, ea[i]);
                acc_b[i] = step(acc_b[i], wi, eb[i]);
            }
        }
    }

    fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
        let q = modulus.value();
        for x in acc.iter_mut() {
            *x %= q;
        }
    }

    fn branch_lazy(
        &self,
        modulus: &Modulus,
        acc: &[u64],
        x: &mut [u32],
        odd: &mut [u32],
        monomial: ShoupRow<'_>,
    ) {
        super::check_branch_rows(modulus, acc, x, odd, monomial);
        // The composition the fused kernels replace: fold, then even =
        // x + s and odd = (x − s)·w, ignoring the Shoup quotients.
        let q = modulus.value();
        for (i, &lazy) in acc.iter().enumerate() {
            let (s, v) = (lazy % q, u64::from(x[i]));
            x[i] = reduce::add_mod(v, s, q) as u32;
            let diff = reduce::sub_mod(v, s, q);
            odd[i] = reduce::mul_mod(diff, u64::from(monomial.value[i]), q) as u32;
        }
    }

    fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        let q = table.modulus().value();
        let psi = table.psi_rev();
        let n = table.n();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                // Reference path: plain 128-bit product on the raw
                // twiddle, ignoring the precomputed Shoup quotient.
                let w = psi[m + i].value;
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = u64::from(a[j]);
                    let v = reduce::mul_mod(w, u64::from(a[j + t]), q);
                    a[j] = reduce::add_mod(u, v, q) as u32;
                    a[j + t] = reduce::sub_mod(u, v, q) as u32;
                }
            }
            m <<= 1;
        }
    }

    fn ntt_inverse_narrow(&self, table: &NttTable, a: &mut [u32]) {
        assert_eq!(a.len(), table.n());
        crate::metrics::count_residue_ntts(1);
        let q = table.modulus().value();
        let ipsi = table.ipsi_rev();
        let n = table.n();
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = ipsi[h + i].value;
                for j in j1..j1 + t {
                    let (u, v) = (u64::from(a[j]), u64::from(a[j + t]));
                    a[j] = reduce::add_mod(u, v, q) as u32;
                    a[j + t] = reduce::mul_mod(w, reduce::sub_mod(u, v, q), q) as u32;
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv().value;
        for x in a.iter_mut() {
            *x = reduce::mul_mod(n_inv, u64::from(*x), q) as u32;
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
        dcp_wide(ring, coeff, tau, gadget, arena, out)
    }
}

/// `Dcp` by the wide route, the oracle of [`VpeBackend::icrt_decompose`]
/// and what every backend runs for a ring or gadget the chunked kernel
/// does not take ([`super::DcpPlan::new`]): reconstruct each coefficient
/// as a `u128` ([`RingContext::icrt_words_into`], which also composes
/// `τ_r` and charges the op counters), then split it digit by digit.
pub(super) fn dcp_wide(
    ring: &RingContext,
    coeff: &[u32],
    tau: Option<usize>,
    gadget: &Gadget,
    arena: &mut KernelArena,
    out: &mut [u32],
) {
    let n = ring.n();
    assert_eq!(out.len(), gadget.ell() * n);
    let mut wide = arena.take_u128_stale(n);
    ring.icrt_words_into(coeff, tau, &mut wide);
    for (i, &c) in wide.iter().enumerate() {
        for j in 0..gadget.ell() {
            // A digit is below `z ≤ 2^27`.
            out[j * n + i] = gadget.digit(c, j) as u32;
        }
    }
    arena.give_u128(wide);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ntt_matches_table() {
        use rand::{Rng, SeedableRng};
        let m = Modulus::special_primes()[0];
        let table = NttTable::new(&m, 64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(52);
        let orig: Vec<u64> = (0..64).map(|_| rng.gen_range(0..m.value())).collect();
        let mut via_backend = orig.clone();
        let mut via_table = orig.clone();
        let backend: &dyn VpeBackend = &ScalarBackend;
        backend.ntt_forward(&table, &mut via_backend);
        table.forward(&mut via_table);
        assert_eq!(via_backend, via_table);
        backend.ntt_inverse(&table, &mut via_backend);
        table.inverse(&mut via_table);
        assert_eq!(via_backend, via_table);
        assert_eq!(via_backend, orig);
    }
}
