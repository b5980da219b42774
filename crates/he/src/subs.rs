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
//! consuming one distinct `evk_r` per depth (Fig. 2-(1)); the CPU server
//! runs its last depth once per database row instead, onto the row's
//! accumulator ([`SubsKey::add_into_words`]).
//!
//! Only `a` ever leaves the NTT domain: it is inverse-transformed for
//! `Dcp` (with `τ_r` folded into the iCRT gather), while `τ_r(b)` is a
//! pure index permutation of `b`'s transform — `(1+ℓ)·k` residue NTTs
//! per `Subs`, exactly what the paper's model charges. The `ℓ·k` forward
//! ones run inside [`kernel::dcp_tiles`], which multiplies each digit tile
//! into the key rows as soon as it is transformed.

use std::sync::Arc;

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::kernel::{self, Branch, GadgetRows, MacFinish, ShoupWords, TileSink, VpeBackend};
use ive_math::mask::MaskStream;
use ive_math::poly::automorphism_ntt_map;
use ive_math::rns::RnsPoly;
use ive_math::sample::Term;

use crate::bfv::BfvCiphertext;
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// The evaluation key `evk_r`: `ℓ` RLWE rows encrypting `-z^j·τ_r(s)`
/// under `s`, in NTT form (a `2 × ℓ` matrix of polynomials, §II-D).
///
/// The rows are one [`GadgetRows`] store, the format an RGSW ciphertext's
/// rows share: laid out for the one thing the server does with them — the
/// gadget GEMM of [`SubsKey::add_into_words`], which goes limb by limb and
/// digit by digit — and, on every serving ring (limbs below `2^29`), in
/// 4-byte words: a Table I key is 1 MiB, so the key of an `ExpandQuery`
/// level stays in a 2 MiB L2 while the level's nodes use it.
/// [`SubsKey::rows`] rebuilds the polynomials.
///
/// The rows and the map are reference-counted, so a clone is a handle
/// that allocates nothing — what an expanded query carries to `RowSel`.
#[derive(Debug, Clone)]
pub struct SubsKey {
    r: usize,
    rows: Arc<GadgetRows>,
    /// `τ_r` as an NTT-domain index permutation, built once per key.
    ntt_map: Arc<[u32]>,
}

impl SubsKey {
    /// Generates `evk_r` for the automorphism exponent `r` (odd), its
    /// masks from a stream under a fresh seed drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `r` is even.
    pub fn generate<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        r: usize,
        rng: &mut R,
    ) -> Self {
        Self::generate_seeded(params, sk, r, &mut MaskStream::fresh(rng), rng)
    }

    /// Generates `evk_r`: row `j` takes its mask `k` as the next draw of
    /// `masks`, its noise from `rng`, and `b = k·s + e − z^j·τ_r(s)` — one
    /// fresh sample written straight into the packed key words
    /// ([`GadgetRows::sample`]), with `τ_r(s)` permuted once, in the NTT
    /// domain, for all `ℓ` rows.
    ///
    /// # Panics
    /// Panics if `r` is even.
    pub fn generate_seeded<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        r: usize,
        masks: &mut MaskStream,
        rng: &mut R,
    ) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ring = params.ring();
        let ntt_map = automorphism_ntt_map(ring.n(), r);
        let mut s_tau = vec![0u64; sk.ntt().as_words().len()];
        ring.automorphism_ntt_words(&ntt_map, sk.ntt().as_words(), &mut s_tau);
        let q = params.q_big();
        let terms = params
            .evk_gadget()
            .powers()
            .into_iter()
            .map(|zj| Term::Ntt { scale: q - zj % q, row: Some(&s_tau) });
        let secret = (sk.ntt().as_words(), params.eta());
        let rows = Arc::new(GadgetRows::sample(ring, secret, terms, masks, rng));
        SubsKey { r, rows, ntt_map: ntt_map.into() }
    }

    /// Reassembles `evk_r` from its store of `ℓ ≥ 1` NTT-form rows (wire
    /// deserialization).
    ///
    /// # Panics
    /// Panics if `r` is even — such a key could never have been
    /// generated — or the store is empty.
    pub fn from_parts(r: usize, rows: GadgetRows) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        assert!(rows.terms() > 0, "evk_r needs at least one row");
        SubsKey {
            r,
            ntt_map: automorphism_ntt_map(rows.ring().n(), r).into(),
            rows: Arc::new(rows),
        }
    }

    /// The automorphism exponent this key serves.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The `ℓ` RLWE rows `(a, b)` as one store, in the key-switch's layout.
    #[inline]
    pub fn gadget_rows(&self) -> &GadgetRows {
        &self.rows
    }

    /// The `ℓ` RLWE rows `(a, b)`, rebuilt as NTT-form polynomials — for
    /// tests; the key-switch reads the packed words.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (RnsPoly, RnsPoly)> + '_ {
        self.rows.pairs()
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
        self.add_into_words(
            params,
            (ct.a.as_words(), ct.b.as_words()),
            (out.a.as_words_mut(), out.b.as_words_mut()),
            backend,
            arena,
        )?;
        Ok(out)
    }

    /// `acc += Subs(ct, r)` on flat NTT-form limb words (`k·n` per
    /// polynomial): reads the ciphertext `(a, b)`, adds `τ_r(b)` onto the
    /// body and lets the key-switch GEMM accumulate onto both halves
    /// ([`MacFinish::Fold`]), canonical `u64` words on entry and on
    /// return. The allocation-free core under [`SubsKey::apply_with`]
    /// (onto zeros), KsPIR's trace (onto the ciphertext itself) and the
    /// server's `RowSel` row finish (onto the row's accumulator).
    ///
    /// # Errors
    /// Fails when the key does not match `params` (row count or ring) or
    /// the gadget does not cover `Q`.
    ///
    /// # Panics
    /// Panics if a slice is not `k·n` words.
    pub fn add_into_words(
        &self,
        params: &HeParams,
        (a, b): (&[u64], &[u64]),
        (acc_a, acc_b): (&mut [u64], &mut [u64]),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        self.check_params(params)?;
        let ring = params.ring();
        let mut coeff = arena.take_u32_stale(a.len());
        for (c, &w) in coeff.iter_mut().zip(a) {
            *c = w as u32;
        }
        // (0, τ_r(b)) + evk_r · Dcp: the key-switch GEMM accumulates
        // lazily on top of the permuted body and folds once per limb.
        let mut tau_b = arena.take_u64_stale(b.len());
        ring.automorphism_ntt_words(&self.ntt_map, b, &mut tau_b);
        let limbs = acc_b.chunks_exact_mut(ring.n()).zip(tau_b.chunks_exact(ring.n()));
        for ((acc, tau), modulus) in limbs.zip(ring.basis().moduli()) {
            for (x, &t) in acc.iter_mut().zip(tau) {
                *x = modulus.add(*x, t);
            }
        }
        arena.give_u64(tau_b);
        let finish = MacFinish::Fold { acc_a, acc_b };
        self.key_switch(params, coeff, finish, backend, arena)
    }

    /// One `ExpandQuery` node in 4-byte words: with `s = Subs(node, r)`,
    /// overwrites `node` (`[a | b]`, `2·k·n` canonical NTT-form words) with
    /// the even child `node + s` and `odd` with the odd child
    /// `(node − s)·monomial` ([`MacFinish::Branch`]). `s` itself is never
    /// stored: each limb's sums go from the GEMM's two lazy rows straight
    /// into both children.
    ///
    /// # Errors
    /// As [`SubsKey::add_into_words`].
    ///
    /// # Panics
    /// Panics if `node` or `odd` is not `2·k·n` words.
    pub fn apply_branch(
        &self,
        params: &HeParams,
        node: &mut [u32],
        odd: &mut [u32],
        monomial: &ShoupWords,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        self.check_params(params)?;
        let kn = node.len() / 2;
        let mut coeff = arena.take_u32_stale(kn);
        coeff.copy_from_slice(&node[..kn]);
        let finish = MacFinish::Branch(Branch { node, odd, tau_map: &self.ntt_map, monomial });
        self.key_switch(params, coeff, finish, backend, arena)
    }

    /// Whether this key is one of `params`' (row count and ring).
    fn check_params(&self, params: &HeParams) -> Result<(), HeError> {
        let (gadget, ring, own) = (params.evk_gadget(), params.ring(), self.rows.ring());
        if self.rows.terms() == gadget.ell() && **own == **ring {
            return Ok(());
        }
        Err(HeError::MissingKey(format!(
            "evk_{} has {} rows over degree {} ({} limbs), parameters want {} over {} ({})",
            self.r,
            self.rows.terms(),
            own.n(),
            own.basis().len(),
            gadget.ell(),
            ring.n(),
            ring.basis().len()
        )))
    }

    /// `evk_r · Dcp(τ_r(a))` into `finish`, from `a`'s NTT-form words in
    /// `coeff` (a 4-byte arena checkout, returned here): `k` inverse NTTs
    /// in place, `τ_r` folded into the iCRT gather; the `ℓ·k` forward NTTs
    /// run tile by tile inside the GEMM.
    fn key_switch(
        &self,
        params: &HeParams,
        mut coeff: Vec<u32>,
        finish: MacFinish<'_>,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let (ring, gadget) = (params.ring(), params.evk_gadget());
        ring.ntt_inverse_narrow_words(backend, &mut coeff);
        let sink = TileSink::Mac { rows: &self.rows, finish };
        let done = kernel::dcp_tiles(ring, gadget, &[(&coeff, Some(self.r))], sink, backend, arena);
        arena.give_u32(coeff);
        Ok(done?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::Plaintext;
    use ive_math::rns::Form;
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
        assert_eq!(key.rows().len(), params.evk_gadget().ell());
        assert!(key.rows().all(|(a, b)| a.ctx() == params.ring() && b.form() == Form::Ntt));
        assert_eq!(key.r(), 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_exponent_rejected() {
        let (params, sk, mut rng) = setup();
        let _ = SubsKey::generate(&params, &sk, 4, &mut rng);
    }
}
