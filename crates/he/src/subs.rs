//! The substitution operation `Subs(ct, r)` (§II-A, §II-D).
//!
//! `Subs` replaces `X` with `X^r` inside the encrypted polynomial: apply
//! the automorphism `τ_r` to both ciphertext polynomials — after which the
//! result decrypts under `τ_r(s)` — and key-switch back to `s` using the
//! evaluation key `evk_r`:
//!
//! ```text
//! Subs(ct, r) = evk_r · Dcp(a_τ) + (0, b_τ)
//! ```
//!
//! `ExpandQuery` invokes this with `r = N/2^j + 1` at tree depth `j`,
//! consuming one distinct `evk_r` per depth (Fig. 2-(1)).
//!
//! Only `a` ever leaves the NTT domain: it is inverse-transformed for
//! `Dcp` (with `τ_r` folded into the iCRT gather), while `τ_r(b)` is a
//! pure index permutation of `b`'s transform — `(1+ℓ)·k` residue NTTs
//! per `Subs`, exactly what the paper's model charges.

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};
use ive_math::poly::automorphism_ntt_map;
use ive_math::rns::{Form, RnsPoly};

use crate::bfv::BfvCiphertext;
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// The evaluation key `evk_r`: `ℓ` RLWE rows encrypting `-z^j·τ_r(s)`
/// under `s`, in NTT form (a `2 × ℓ` matrix of polynomials, §II-D).
#[derive(Debug, Clone)]
pub struct SubsKey {
    r: usize,
    rows: Vec<(RnsPoly, RnsPoly)>,
    /// `τ_r` as an NTT-domain index permutation, built once per key.
    ntt_map: Vec<u32>,
}

impl SubsKey {
    /// Generates `evk_r` for the automorphism exponent `r` (odd).
    ///
    /// # Panics
    /// Panics if `r` is even.
    pub fn generate<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        r: usize,
        rng: &mut R,
    ) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ring = params.ring();
        let ell = params.gadget().ell();
        let powers = params.gadget().powers();
        let s_tau = sk.automorphism_ntt(r);
        let mut rows = Vec::with_capacity(ell);
        for &zj in powers.iter().take(ell) {
            let k = RnsPoly::sample_uniform(ring, Form::Ntt, rng);
            let mut e = RnsPoly::sample_cbd(ring, params.eta(), rng);
            e.to_ntt();
            // b = k·s + e - z^j·s_τ
            let mut b = k.clone();
            b.mul_assign_pointwise(sk.ntt()).expect("forms match");
            b.add_assign(&e).expect("forms match");
            let mut term = s_tau.clone();
            term.mul_scalar_u128(zj);
            b.sub_assign(&term).expect("forms match");
            rows.push((k, b));
        }
        SubsKey::from_parts(r, rows)
    }

    /// Reassembles `evk_r` from its parts (wire deserialization).
    ///
    /// # Panics
    /// Panics if `r` is even — such a key could never have been generated.
    pub fn from_parts(r: usize, rows: Vec<(RnsPoly, RnsPoly)>) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ntt_map =
            rows.first().map_or_else(Vec::new, |(a, _)| automorphism_ntt_map(a.ctx().n(), r));
        SubsKey { r, rows, ntt_map }
    }

    /// The automorphism exponent this key serves.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The `ℓ` RLWE rows.
    #[inline]
    pub fn rows(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.rows
    }

    /// Applies `Subs(ct, r)`.
    ///
    /// # Errors
    /// Fails on ring mismatch.
    pub fn apply(&self, params: &HeParams, ct: &BfvCiphertext) -> Result<BfvCiphertext, HeError> {
        self.apply_with(params, ct, kernel::default_backend(), &mut KernelArena::new())
    }

    /// Applies `Subs(ct, r)` through an explicit kernel backend, with the
    /// `Dcp` scratch drawn from `arena` (the `ExpandQuery` serving path).
    ///
    /// # Errors
    /// Fails on ring mismatch.
    pub fn apply_with(
        &self,
        params: &HeParams,
        ct: &BfvCiphertext,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<BfvCiphertext, HeError> {
        crate::rgsw::check_param_ring(params, ct)?;
        let ct = ct.in_ntt_form(backend);
        let mut out = BfvCiphertext::zero(params);
        self.apply_words(
            params,
            (ct.a.as_words(), ct.b.as_words()),
            (out.a.as_words_mut(), out.b.as_words_mut()),
            backend,
            arena,
        )?;
        Ok(out)
    }

    /// `Subs` on flat NTT-form limb words (`k·n` per polynomial): reads
    /// the ciphertext `(a, b)` and overwrites `out` with `Subs(ct, r)` —
    /// the allocation-free core under [`SubsKey::apply_with`] that
    /// `ExpandQuery` drives directly on its expansion buffer.
    ///
    /// # Errors
    /// Fails when the key does not match `params` (row count or ring
    /// degree) or the gadget does not cover `Q`.
    ///
    /// # Panics
    /// Panics if a slice is not `k·n` words.
    pub fn apply_words(
        &self,
        params: &HeParams,
        (a, b): (&[u64], &[u64]),
        (out_a, out_b): (&mut [u64], &mut [u64]),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let gadget = params.gadget();
        let ring = params.ring();
        if self.rows.len() != gadget.ell() || self.ntt_map.len() != params.n() {
            return Err(HeError::MissingKey(format!(
                "evk_{} has {} rows over degree {}, parameters want {} over {}",
                self.r,
                self.rows.len(),
                self.ntt_map.len(),
                gadget.ell(),
                params.n()
            )));
        }
        // Dcp(τ_r(a)): k inverse NTTs, τ_r folded into the iCRT gather,
        // ℓ·k forward NTTs.
        let mut coeff = arena.take_u64_stale(a.len());
        coeff.copy_from_slice(a);
        ring.ntt_inverse_words(backend, &mut coeff);
        let mut digits = arena.take_u64_stale(gadget.ell() * a.len());
        ring.decompose_ntt_words(&coeff, Some(self.r), gadget, backend, arena, &mut digits)?;
        arena.give_u64(coeff);
        // (0, τ_r(b)) + evk_r · Dcp: the key-switch GEMM accumulates
        // lazily on top of the permuted body and folds once.
        out_a.fill(0);
        ring.automorphism_ntt_words(&self.ntt_map, b, out_b);
        let terms = digits
            .chunks_exact(a.len())
            .zip(&self.rows)
            .map(|(u, (ka, kb))| (u, ka.as_words(), kb.as_words()));
        kernel::gemm2_lazy_poly(backend, ring.basis().moduli(), out_a, out_b, terms);
        arena.give_u64(digits);
        Ok(())
    }

    /// Serialized size in the packed hardware layout (560KB for the paper
    /// ring with `ℓ = 5`, §II-D).
    pub fn byte_len(&self, params: &HeParams) -> usize {
        params.evk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::Plaintext;
    use rand::{Rng, SeedableRng};

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    #[test]
    fn subs_applies_automorphism_to_plaintext() {
        let (params, sk, mut rng) = setup();
        let n = params.n();
        for r in [3usize, 5, n + 1, n / 2 + 1] {
            let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..params.p())).collect();
            let m = Plaintext::new(&params, vals.clone()).unwrap();
            let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
            let key = SubsKey::generate(&params, &sk, r, &mut rng);
            let out = key.apply(&params, &ct).unwrap();
            let expect = ive_math::poly::automorphism(&vals, r, params.p());
            assert_eq!(out.decrypt(&params, &sk).values(), &expect[..], "r={r}");
        }
    }

    #[test]
    fn subs_n_plus_one_even_odd_split() {
        // The §II-A identity: ct + Subs(ct, N+1) keeps 2×even terms,
        // ct − Subs(ct, N+1) keeps 2×odd terms.
        let (params, sk, mut rng) = setup();
        let n = params.n();
        let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..params.p() / 4)).collect();
        let m = Plaintext::new(&params, vals.clone()).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let key = SubsKey::generate(&params, &sk, n + 1, &mut rng);
        let subbed = key.apply(&params, &ct).unwrap();

        let mut even = ct.clone();
        even.add_assign(&subbed).unwrap();
        let even_m = even.decrypt(&params, &sk);
        let p = params.p();
        for (i, &v) in vals.iter().enumerate() {
            let expect = if i % 2 == 0 { (2 * v) % p } else { 0 };
            assert_eq!(even_m.values()[i], expect, "even branch, coeff {i}");
        }

        let mut odd = ct.clone();
        odd.sub_assign(&subbed).unwrap();
        let odd_m = odd.decrypt(&params, &sk);
        for (i, &v) in vals.iter().enumerate() {
            let expect = if i % 2 == 1 { (2 * v) % p } else { 0 };
            assert_eq!(odd_m.values()[i], expect, "odd branch, coeff {i}");
        }
    }

    #[test]
    fn subs_key_size() {
        let (params, sk, mut rng) = setup();
        let key = SubsKey::generate(&params, &sk, 3, &mut rng);
        assert_eq!(key.rows().len(), params.gadget().ell());
        assert_eq!(key.byte_len(&params), params.evk_bytes());
        assert_eq!(key.r(), 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_exponent_rejected() {
        let (params, sk, mut rng) = setup();
        let _ = SubsKey::generate(&params, &sk, 4, &mut rng);
    }
}
