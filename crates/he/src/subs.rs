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
//! per `Subs`, exactly what the paper's model charges. The `ℓ·k` forward
//! ones run inside [`kernel::dcp_tiles`], which multiplies each digit tile
//! into the key rows as soon as it is transformed.

use std::sync::Arc;

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::kernel::{self, Branch, KeyRows, MacFinish, ShoupWords, TileSink, VpeBackend};
use ive_math::mask::MaskStream;
use ive_math::poly::automorphism_ntt_map;
use ive_math::rns::{Form, RingContext, RnsPoly};
use ive_math::sample::{fresh_sample, SampleRows, SampleWord, Term};

use crate::bfv::BfvCiphertext;
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// The words of an `evk_r`, in the order the key-switch walks them: limb,
/// then digit, then the digit's mask row and body row (`n` words each).
#[derive(Debug, Clone)]
enum KeyWords {
    /// 4-byte words, for a ring whose digit tiles are ([`kernel::narrow_tiles`]).
    Narrow(Vec<u32>),
    /// `u64` words, for a ring with a limb too wide for those.
    Wide(Vec<u64>),
}

/// The `(a, b)` rows of digit `j` in limb `m` of `words` (see [`KeyWords`]).
fn row_pair<W>(words: &[W], ell: usize, n: usize, j: usize, m: usize) -> (&[W], &[W]) {
    let (a, b) = words[(m * ell + j) * 2 * n..][..2 * n].split_at(n);
    (a, b)
}

/// Row `j` of a key's words (see [`KeyWords`]) as a sample's destination.
struct KeyRow<'a, W> {
    words: &'a mut [W],
    ell: usize,
    n: usize,
    j: usize,
}

impl<W: SampleWord> SampleRows for KeyRow<'_, W> {
    type Word = W;

    fn limb(&mut self, m: usize) -> (&mut [W], &mut [W]) {
        self.words[(m * self.ell + self.j) * 2 * self.n..][..2 * self.n].split_at_mut(self.n)
    }
}

/// The `ℓ` rows of `evk_r` in the order of [`KeyWords`]: row `j` is a
/// fresh sample carrying `−z^j·τ_r(s)`, `s_tau` being `τ_r(s)`.
fn sample_key_rows<W: SampleWord + Default + Clone, R: Rng + ?Sized>(
    params: &HeParams,
    sk: &SecretKey,
    s_tau: &[u64],
    masks: &mut MaskStream,
    rng: &mut R,
) -> Vec<W> {
    let ring = params.ring();
    let (n, ell, q) = (ring.n(), params.gadget().ell(), params.q_big());
    let mut words = vec![W::default(); 2 * ell * s_tau.len()];
    for (j, zj) in params.gadget().powers().into_iter().enumerate() {
        let term = Term::Ntt { scale: q - zj % q, row: Some(s_tau) };
        let mut out = KeyRow { words: &mut words, ell, n, j };
        fresh_sample(ring, sk.ntt().as_words(), params.eta(), term, masks, rng, &mut out);
    }
    words
}

/// Packs `rows` into the order of [`KeyWords`], each word through `word`.
fn pack<W>(rows: &[(RnsPoly, RnsPoly)], k: usize, word: impl Fn(u64) -> W) -> Vec<W> {
    let mut out = Vec::with_capacity(rows.len() * 2 * rows[0].0.as_words().len());
    for m in 0..k {
        for (a, b) in rows {
            out.extend(a.residue(m).iter().map(|&w| word(w)));
            out.extend(b.residue(m).iter().map(|&w| word(w)));
        }
    }
    out
}

/// The evaluation key `evk_r`: `ℓ` RLWE rows encrypting `-z^j·τ_r(s)`
/// under `s`, in NTT form (a `2 × ℓ` matrix of polynomials, §II-D).
///
/// The rows are held once, laid out for the one thing the server does with
/// them — the gadget GEMM of [`SubsKey::apply_words`], which goes limb by
/// limb and digit by digit — and, on every serving ring (limbs below
/// `2^29`), in 4-byte words: a Table I key is 1 MiB, so the key of an
/// `ExpandQuery` level stays in a 2 MiB L2 while the level's nodes use it.
/// [`SubsKey::rows`] rebuilds the polynomials for the wire codec.
#[derive(Debug, Clone)]
pub struct SubsKey {
    r: usize,
    ring: Arc<RingContext>,
    ell: usize,
    words: KeyWords,
    /// `τ_r` as an NTT-domain index permutation, built once per key.
    ntt_map: Vec<u32>,
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
    /// [`fresh_sample`] written straight into the packed key words, with
    /// `τ_r(s)` permuted once, in the NTT domain, for all `ℓ` rows.
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
        let words = if kernel::narrow_tiles(ring) {
            KeyWords::Narrow(sample_key_rows(params, sk, &s_tau, masks, rng))
        } else {
            KeyWords::Wide(sample_key_rows(params, sk, &s_tau, masks, rng))
        };
        SubsKey { r, ring: Arc::clone(ring), ell: params.gadget().ell(), words, ntt_map }
    }

    /// Reassembles `evk_r` from its `ℓ ≥ 1` rows, NTT-form polynomials of
    /// one ring (wire deserialization): one pass packs them into the
    /// key-switch order.
    ///
    /// # Panics
    /// Panics if `r` is even — such a key could never have been
    /// generated — or the rows are empty, not in NTT form, or from
    /// different rings.
    pub fn from_parts(r: usize, rows: Vec<(RnsPoly, RnsPoly)>) -> Self {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        let ring = Arc::clone(rows.first().expect("an evk has at least one row").0.ctx());
        let (n, k, ell) = (ring.n(), ring.basis().len(), rows.len());
        let polys = || rows.iter().flat_map(|(a, b)| [a, b]);
        assert!(
            polys().all(|p| p.ctx() == &ring && p.form() == Form::Ntt),
            "evk rows: one ring, NTT form"
        );
        let words = if kernel::narrow_tiles(&ring) {
            KeyWords::Narrow(pack(&rows, k, |w| w as u32))
        } else {
            KeyWords::Wide(pack(&rows, k, |w| w))
        };
        SubsKey { r, ell, words, ntt_map: automorphism_ntt_map(n, r), ring }
    }

    /// The automorphism exponent this key serves.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The `ℓ` RLWE rows `(a, b)`, rebuilt as NTT-form polynomials (what
    /// [`SubsKey::from_parts`] took) — for the wire codec and tests; the
    /// key-switch reads the packed words.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (RnsPoly, RnsPoly)> + '_ {
        let (n, k) = (self.ring.n(), self.ring.basis().len());
        let poly = move |j: usize, half: usize| {
            let mut words = Vec::with_capacity(k * n);
            for m in 0..k {
                let at = ((m * self.ell + j) * 2 + half) * n;
                match &self.words {
                    KeyWords::Narrow(w) => {
                        words.extend(w[at..at + n].iter().map(|&x| u64::from(x)))
                    }
                    KeyWords::Wide(w) => words.extend_from_slice(&w[at..at + n]),
                }
            }
            RnsPoly::from_words(&self.ring, Form::Ntt, words).expect("k·n words")
        };
        (0..self.ell).map(move |j| (poly(j, 0), poly(j, 1)))
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
    /// the ciphertext `(a, b)` and overwrites `out` with `Subs(ct, r)` in
    /// canonical `u64` words ([`MacFinish::Fold`]) — the allocation-free
    /// core under [`SubsKey::apply_with`], for a caller that goes on
    /// computing with the result (KsPIR's trace adds it back onto `ct`).
    ///
    /// # Errors
    /// Fails when the key does not match `params` (row count or ring) or
    /// the gadget does not cover `Q`.
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
        self.check_params(params)?;
        let ring = params.ring();
        let mut coeff = arena.take_u64_stale(a.len());
        coeff.copy_from_slice(a);
        // (0, τ_r(b)) + evk_r · Dcp: the key-switch GEMM accumulates
        // lazily on top of the permuted body and folds once per limb.
        out_a.fill(0);
        ring.automorphism_ntt_words(&self.ntt_map, b, out_b);
        let finish = MacFinish::Fold { acc_a: out_a, acc_b: out_b };
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
    /// As [`SubsKey::apply_words`].
    ///
    /// # Panics
    /// Panics if `node` or `odd` is not `2·k·n` words, or a limb of the
    /// ring is `2^32` or wider.
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
        let mut coeff = arena.take_u64_stale(kn);
        for (c, &w) in coeff.iter_mut().zip(&node[..kn]) {
            *c = u64::from(w);
        }
        let finish = MacFinish::Branch(Branch { node, odd, tau_map: &self.ntt_map, monomial });
        self.key_switch(params, coeff, finish, backend, arena)
    }

    /// Whether this key is one of `params`' (row count and ring).
    fn check_params(&self, params: &HeParams) -> Result<(), HeError> {
        let (gadget, ring) = (params.gadget(), params.ring());
        if self.ell == gadget.ell() && *self.ring == **ring {
            return Ok(());
        }
        Err(HeError::MissingKey(format!(
            "evk_{} has {} rows over degree {} ({} limbs), parameters want {} over {} ({})",
            self.r,
            self.ell,
            self.ring.n(),
            self.ring.basis().len(),
            gadget.ell(),
            ring.n(),
            ring.basis().len()
        )))
    }

    /// `evk_r · Dcp(τ_r(a))` into `finish`, from `a`'s NTT-form words in
    /// `coeff` (an arena checkout, returned here): `k` inverse NTTs, `τ_r`
    /// folded into the iCRT gather; the `ℓ·k` forward NTTs run tile by tile
    /// inside the GEMM.
    fn key_switch(
        &self,
        params: &HeParams,
        mut coeff: Vec<u64>,
        finish: MacFinish<'_>,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let (ring, gadget) = (params.ring(), params.gadget());
        let (n, ell) = (ring.n(), self.ell);
        ring.ntt_inverse_words(backend, &mut coeff);
        let (narrow, wide);
        let rows = match &self.words {
            KeyWords::Narrow(w) => {
                narrow = move |j, m| row_pair(w, ell, n, j, m);
                KeyRows::Narrow(&narrow)
            }
            KeyWords::Wide(w) => {
                wide = move |j, m| row_pair(w, ell, n, j, m);
                KeyRows::Wide(&wide)
            }
        };
        let sink = TileSink::Mac { rows, finish };
        let done = kernel::dcp_tiles(ring, gadget, &[(&coeff, Some(self.r))], sink, backend, arena);
        arena.give_u64(coeff);
        Ok(done?)
    }

    /// Resident size in the packed hardware layout, masks included (560KB
    /// for the paper ring with `ℓ = 5`, §II-D); a key-set frame carries
    /// the bodies only.
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
        assert!(key.rows().all(|(a, b)| a.ctx() == params.ring() && b.form() == Form::Ntt));
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
