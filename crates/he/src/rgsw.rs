//! RGSW ciphertexts and the external product `⊡` (§II-C, §II-D, Fig. 3).
//!
//! An RGSW ciphertext of `m` is the `2ℓ × 2` matrix `Z + m·G`, where every
//! row of `Z` is an RLWE encryption of zero and `G` is the gadget matrix
//! with blocks `(z^j, 0)` and `(0, z^j)`. The external product
//! `ct_RGSW ⊡ ct_BFV` gadget-decomposes `(a, b)` of the BFV ciphertext and
//! contracts the resulting length-`2ℓ` vector against the matrix:
//!
//! ```text
//! (Dcp(a) ‖ Dcp(b)) · (Z + m·G)  =  RLWE(0)_small + m·(a, b)
//! ```
//!
//! which encrypts `m · m_BFV` with only an *additive* noise increase —
//! the property that keeps ColTor's error logarithmic in the DB size
//! (§II-C error analysis).

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::kernel::{self, GadgetRows, MacFinish, TileSink, VpeBackend};
use ive_math::mask::MaskStream;
use ive_math::rns::RnsPoly;
use ive_math::sample::Term;

use crate::bfv::BfvCiphertext;
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// Rejects a ciphertext whose polynomials live in a different ring than
/// `params` — the flat gadget GEMM works on raw words, so the mismatch
/// the polynomial algebra used to catch must be checked up front.
pub(crate) fn check_param_ring(
    params: &HeParams,
    ct: &BfvCiphertext,
) -> Result<(), crate::HeError> {
    if **ct.a.ctx() != **params.ring() || **ct.b.ctx() != **params.ring() {
        return Err(ive_math::MathError::FormMismatch("operands from different rings").into());
    }
    Ok(())
}

/// An RGSW ciphertext: `2ℓ` RLWE rows of zero plus the gadget terms.
/// Row `j < ℓ` has phase `−m·z^j·s`, row `ℓ + j` has phase `m·z^j`: the
/// `(m·z^j, 0)` and `(0, m·z^j)` blocks of `Z + m·G`, written so that
/// every row's mask is a plain uniform draw (see
/// [`RgswCiphertext::encrypt_bit_seeded`]). The rows are one [`GadgetRows`]
/// store, the format a `Subs` key's rows share: on every serving ring
/// they are 4-byte words in the order the external product's GEMM reads
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgswCiphertext {
    rows: GadgetRows,
}

impl RgswCiphertext {
    /// Assembles an RGSW ciphertext from its store of NTT-form rows (see
    /// the type doc for the phase each row carries) — the wire decoder's
    /// constructor.
    ///
    /// # Panics
    /// Panics when the row count is odd or zero.
    pub fn from_rows(rows: GadgetRows) -> Self {
        assert!(rows.terms() > 0 && rows.terms().is_multiple_of(2), "RGSW needs 2*ell rows");
        RgswCiphertext { rows }
    }

    /// The `2ℓ` rows, row `j` one fresh sample carrying `term(j)`,
    /// sampled straight into the store.
    fn encrypt_rows<'t, R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        masks: &mut MaskStream,
        rng: &mut R,
        term: impl Fn(usize) -> Term<'t>,
    ) -> Self {
        let terms = (0..2 * params.rgsw_gadget().ell()).map(term);
        let secret = (sk.ntt().as_words(), params.eta());
        RgswCiphertext { rows: GadgetRows::sample(params.ring(), secret, terms, masks, rng) }
    }

    /// Encrypts the selection bit `m ∈ {0, 1}` — the `ct_RGSW,j*` of the
    /// ColTor tournament (§II-C) — its masks from a stream under a fresh
    /// seed drawn from `rng`.
    pub fn encrypt_bit<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        bit: bool,
        rng: &mut R,
    ) -> Self {
        Self::encrypt_bit_seeded(params, sk, bit, &mut MaskStream::fresh(rng), rng)
    }

    /// Encrypts the selection bit `m ∈ {0, 1}`, its `2ℓ` masks the next
    /// draws of `masks` and its noise from `rng`. Row `j`'s body is
    /// `a·s + e` plus the gadget term, which for `j < ℓ` goes on the body
    /// as `−m·z^j·s` rather than on the mask as `m·z^j`: the phase
    /// `b − a·s` is the same word for word, and the mask stays exactly the
    /// stream's draw — what lets the wire send the seed in its place.
    pub fn encrypt_bit_seeded<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        bit: bool,
        masks: &mut MaskStream,
        rng: &mut R,
    ) -> Self {
        // With `m = 1`, `m·s` is `s` and `m` the constant 1: no row to build.
        let (ell, q) = (params.rgsw_gadget().ell(), params.q_big());
        let powers = params.rgsw_gadget().powers();
        Self::encrypt_rows(params, sk, masks, rng, |j| match (bit, j.checked_sub(ell)) {
            (false, _) => Term::Zero,
            (true, None) => Term::Ntt { scale: q - powers[j] % q, row: Some(sk.ntt().as_words()) },
            (true, Some(j)) => Term::Ntt { scale: powers[j], row: None },
        })
    }

    /// The `2ℓ` rows as one store, in the external product's layout.
    #[inline]
    pub fn gadget_rows(&self) -> &GadgetRows {
        &self.rows
    }

    /// The `2ℓ` rows `(a, b)`, rebuilt as NTT-form polynomials — for
    /// tests; the external product reads the packed words.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (RnsPoly, RnsPoly)> + '_ {
        self.rows.pairs()
    }

    /// External product `self ⊡ ct` (Fig. 3): decompose, transform, and
    /// contract. The result encrypts `m_RGSW · m_ct` with additive noise.
    ///
    /// # Errors
    /// Fails on ring mismatch between the operands.
    pub fn external_product(
        &self,
        params: &HeParams,
        ct: &BfvCiphertext,
    ) -> Result<BfvCiphertext, HeError> {
        self.external_product_with(params, ct, kernel::default_backend(), &mut KernelArena::new())
    }

    /// External product through an explicit kernel backend, with all
    /// `Dcp` scratch (coefficient words, digit rows, NTT tiles) drawn from
    /// `arena` — the path serving workers use so repeated products reuse
    /// one warm buffer set.
    ///
    /// # Errors
    /// Fails on ring mismatch between the operands.
    pub fn external_product_with(
        &self,
        params: &HeParams,
        ct: &BfvCiphertext,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<BfvCiphertext, HeError> {
        check_param_ring(params, ct)?;
        let ct = ct.in_ntt_form(backend);
        let mut out = BfvCiphertext::zero(params);
        self.external_product_acc_words(
            params,
            (ct.a.as_words(), ct.b.as_words()),
            (out.a.as_words_mut(), out.b.as_words_mut()),
            backend,
            arena,
        )?;
        Ok(out)
    }

    /// `acc ← acc + self ⊡ ct` on flat NTT-form limb words (`k·n` per
    /// polynomial; `acc` canonical on entry and on return) — the
    /// allocation-free core under [`RgswCiphertext::external_product_with`]
    /// and the CMux. `Dcp(a)`, `Dcp(b)`: iNTT → iCRT → digit extraction
    /// (Fig. 3); then [`kernel::dcp_tiles`] forward-NTTs the `2ℓ·k` digit
    /// tiles one at a time and feeds each straight into the
    /// `(1×2ℓ)·(2ℓ×2)` gadget GEMM, which accumulates lazily on top of
    /// `acc` and folds once per limb.
    ///
    /// # Errors
    /// Fails when the row count does not match `params` or the gadget
    /// does not cover `Q`.
    ///
    /// # Panics
    /// Panics if a slice is not `k·n` words.
    pub(crate) fn external_product_acc_words(
        &self,
        params: &HeParams,
        (a, b): (&[u64], &[u64]),
        (acc_a, acc_b): (&mut [u64], &mut [u64]),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let gadget = params.rgsw_gadget();
        let ell = gadget.ell();
        let ring = params.ring();
        if self.rows.terms() != 2 * ell || **self.rows.ring() != **ring {
            return Err(HeError::InvalidParams(format!(
                "RGSW ciphertext has {} rows over degree {}, parameters want {} over {}",
                self.rows.terms(),
                self.rows.ring().n(),
                2 * ell,
                ring.n()
            )));
        }
        let kn = a.len();
        let mut coeff = arena.take_u32_stale(2 * kn);
        let (coeff_a, coeff_b) = coeff.split_at_mut(kn);
        for (src, dst) in [(a, &mut *coeff_a), (b, &mut *coeff_b)] {
            for (d, &w) in dst.iter_mut().zip(src) {
                *d = w as u32;
            }
            ring.ntt_inverse_narrow_words(backend, dst);
        }
        let sink = TileSink::Mac { rows: &self.rows, finish: MacFinish::Fold { acc_a, acc_b } };
        let sources = [(&*coeff_a, None), (&*coeff_b, None)];
        kernel::dcp_tiles(ring, gadget, &sources, sink, backend, arena)?;
        arena.give_u32(coeff);
        Ok(())
    }

    /// One tournament node in place on flat NTT-form limb words:
    /// `y ← self ⊡ (x − y) + y`. The winner lands in `y` — the external
    /// product accumulates straight onto it — and `x` is consumed (left
    /// holding `x − y`), so a ColTor level needs no ciphertext copies.
    ///
    /// # Errors
    /// As `RgswCiphertext::external_product_acc_words`.
    ///
    /// # Panics
    /// Panics if a slice is not `k·n` words.
    pub fn cmux_words(
        &self,
        params: &HeParams,
        (x_a, x_b): (&mut [u64], &mut [u64]),
        (y_a, y_b): (&mut [u64], &mut [u64]),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let ring = params.ring();
        let n = ring.n();
        for (x, y) in [(&mut *x_a, &*y_a), (&mut *x_b, &*y_b)] {
            assert_eq!(x.len(), y.len());
            for ((xs, ys), modulus) in
                x.chunks_exact_mut(n).zip(y.chunks_exact(n)).zip(ring.basis().moduli())
            {
                for (xi, &yi) in xs.iter_mut().zip(ys) {
                    *xi = modulus.sub(*xi, yi);
                }
            }
        }
        self.external_product_acc_words(params, (x_a, x_b), (y_a, y_b), backend, arena)
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    /// `RGSW(m)` of a message polynomial in NTT form, the gadget term on
    /// the body as [`RgswCiphertext::encrypt_bit`] places it.
    fn encrypt_poly(
        params: &HeParams,
        sk: &SecretKey,
        m_ntt: &RnsPoly,
        masks: &mut MaskStream,
        rng: &mut rand::rngs::StdRng,
    ) -> RgswCiphertext {
        let mut m_s = m_ntt.as_words().to_vec();
        let moduli = params.ring().basis().moduli();
        kernel::pointwise_mul_poly(
            kernel::default_backend(),
            moduli,
            &mut m_s,
            sk.ntt().as_words(),
        );
        let (ell, q) = (params.rgsw_gadget().ell(), params.q_big());
        let powers = params.rgsw_gadget().powers();
        RgswCiphertext::encrypt_rows(params, sk, masks, rng, |j| match j.checked_sub(ell) {
            None => Term::Ntt { scale: q - powers[j] % q, row: Some(&m_s) },
            Some(j) => Term::Ntt { scale: powers[j], row: Some(m_ntt.as_words()) },
        })
    }

    fn random_plaintext<R: Rng>(params: &HeParams, rng: &mut R) -> Plaintext {
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        Plaintext::new(params, vals).unwrap()
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let (params, sk, mut rng) = setup();
        let m = random_plaintext(&params, &mut rng);
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let one = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        let out = one.external_product(&params, &ct).unwrap();
        assert_eq!(out.decrypt(&params, &sk), m);
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (params, sk, mut rng) = setup();
        let m = random_plaintext(&params, &mut rng);
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let zero = RgswCiphertext::encrypt_bit(&params, &sk, false, &mut rng);
        let out = zero.external_product(&params, &ct).unwrap();
        assert_eq!(out.decrypt(&params, &sk), Plaintext::zero(&params));
    }

    #[test]
    fn external_product_by_monomial_rotates() {
        let (params, sk, mut rng) = setup();
        // RGSW(X^2) ⊡ BFV(m) should encrypt X^2·m.
        let m = random_plaintext(&params, &mut rng);
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let mono = Plaintext::monomial(&params, 2, 1).unwrap().to_ntt_poly(&params);
        let rg = encrypt_poly(&params, &sk, &mono, &mut MaskStream::fresh(&mut rng), &mut rng);
        let out = rg.external_product(&params, &ct).unwrap();
        let mut x2 = vec![0u64; params.n()];
        x2[2] = 1;
        let expect = ive_math::poly::negacyclic_mul_schoolbook(m.values(), &x2, params.p());
        assert_eq!(out.decrypt(&params, &sk).values(), &expect[..]);
    }

    #[test]
    fn noise_growth_is_additive_across_chained_products() {
        // Chains of ⊡ by RGSW(1) must keep noise bounded by depth·(per-op
        // additive term) — the §II-C invariant, not multiplicative blowup.
        let (params, sk, mut rng) = setup();
        let m = random_plaintext(&params, &mut rng);
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let one = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        // The first product jumps from the fresh-encryption noise to the
        // per-op gadget noise floor; after that, growth must be additive
        // (bounded by +1 per doubling of depth, not multiplicative).
        ct = one.external_product(&params, &ct).unwrap();
        let after_first = crate::noise::noise_bits(&params, &sk, &ct, &m);
        let mut last = after_first;
        for depth in 2..=8 {
            ct = one.external_product(&params, &ct).unwrap();
            assert_eq!(ct.decrypt(&params, &sk), m, "depth {depth}");
            let now = crate::noise::noise_bits(&params, &sk, &ct, &m);
            assert!(now < last + 2.0, "noise jumped {last} -> {now} at depth {depth}");
            last = now.max(last);
        }
        // Eight chained products stay within ~3 bits of a single one:
        // linear (additive), not exponential (multiplicative) error growth.
        assert!(last <= after_first + 3.5, "{after_first} -> {last}");
    }

    #[test]
    fn foreign_ring_operand_rejected() {
        // The flat gadget GEMM must refuse a ciphertext from another ring
        // instead of panicking or computing garbage.
        let (params, sk, mut rng) = setup();
        let one = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        let small_ring = ive_math::rns::RingContext::test_ring(128, 3);
        let gadget = ive_math::gadget::Gadget::for_modulus(small_ring.basis().q_big(), 14);
        let other = HeParams::new(small_ring, 16, gadget, gadget, 4).unwrap();
        let other_sk = SecretKey::generate(&other, &mut rng);
        let m = Plaintext::zero(&other);
        let foreign = BfvCiphertext::encrypt(&other, &other_sk, &m, &mut rng);
        assert!(one.external_product(&params, &foreign).is_err());
        // And an RGSW bit whose rows live in another ring.
        let foreign_bit = RgswCiphertext::encrypt_bit(&other, &other_sk, true, &mut rng);
        let ct = BfvCiphertext::encrypt(&params, &sk, &Plaintext::zero(&params), &mut rng);
        assert!(foreign_bit.external_product(&params, &ct).is_err());
    }

    /// The gadget term on the body gives every row the phase the old
    /// layout (term on the mask) gave, word for word, from the same masks
    /// and noise.
    #[test]
    fn gadget_term_on_body_keeps_every_phase() {
        let (params, sk, _) = setup();
        let ell = params.rgsw_gadget().ell();
        let powers = params.rgsw_gadget().powers();
        let ring = params.ring();
        let seed = [7u8; 32];
        for bit in [false, true] {
            let mut noise = rand::rngs::StdRng::seed_from_u64(5);
            let new = RgswCiphertext::encrypt_bit_seeded(
                &params,
                &sk,
                bit,
                &mut MaskStream::new(seed),
                &mut noise,
            );
            let mut m = RnsPoly::zero(ring, Form::Coeff);
            if bit {
                for limb in 0..ring.basis().len() {
                    m.residue_mut(limb)[0] = 1;
                }
            }
            m.to_ntt();
            // The old construction, drawing masks and noise in the same order.
            let (mut masks, mut noise) =
                (MaskStream::new(seed), rand::rngs::StdRng::seed_from_u64(5));
            for (j, (row_a, row_b)) in new.rows().enumerate() {
                let mut a = masks.next_poly(ring);
                assert_eq!(a, row_a, "row {j}: the mask is the stream's draw");
                let mut e = RnsPoly::sample_cbd(ring, params.eta(), &mut noise);
                e.to_ntt();
                let mut b = a.clone();
                b.mul_assign_pointwise(sk.ntt()).unwrap();
                b.add_assign(&e).unwrap();
                let mut term = m.clone();
                term.mul_scalar_u128(powers[j % ell]);
                if j < ell {
                    a.add_assign(&term).unwrap();
                } else {
                    b.add_assign(&term).unwrap();
                }
                let old = BfvCiphertext { a, b };
                let new_row = BfvCiphertext { a: row_a, b: row_b };
                assert_eq!(old.phase(&sk), new_row.phase(&sk), "bit {bit}, row {j}");
            }
        }
    }

    /// An RGSW bit on the toy ring, whose store is 4-byte words: both
    /// bits, then `⊡` and CMux on every backend, must decrypt right and
    /// equal the scalar backend's words. A ring with a 30-bit limb, past
    /// what a 4-byte store and tile serve, is refused before any key.
    #[test]
    fn rgsw_bits_match_the_scalar_backend() {
        use ive_math::modulus::Modulus;
        use ive_math::prime::find_ntt_prime_below;
        use ive_math::rns::RnsBasis;
        use ive_math::MathError;

        let [q0, q1, ..] = Modulus::special_primes();
        let q30 = Modulus::new(find_ntt_prime_below(30, 256).expect("prime exists"));
        let refused = RnsBasis::new(vec![q0, q1, q30]);
        assert!(matches!(refused, Err(MathError::InvalidBasis(_))), "{refused:?}");
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let sk = SecretKey::generate(&params, &mut rng);
        let (mx, my) = (random_plaintext(&params, &mut rng), random_plaintext(&params, &mut rng));
        let ntt = |m: &Plaintext, rng: &mut rand::rngs::StdRng| {
            let ct = BfvCiphertext::encrypt(&params, &sk, m, rng);
            ct.in_ntt_form(kernel::default_backend()).into_owned()
        };
        let (x, y) = (ntt(&mx, &mut rng), ntt(&my, &mut rng));
        for bit in [false, true] {
            let sel = RgswCiphertext::encrypt_bit(&params, &sk, bit, &mut rng);
            let case = format!("bit {bit}");
            let mut scalar = None;
            for kind in kernel::BACKEND_KINDS {
                let (backend, arena) = (kind.backend(), &mut KernelArena::new());
                let product = sel.external_product_with(&params, &x, backend, arena).unwrap();
                let want = if bit { mx.clone() } else { Plaintext::zero(&params) };
                assert_eq!(product.decrypt(&params, &sk), want, "⊡ on {kind}, {case}");
                let (mut xs, mut ys) = (x.clone(), y.clone());
                let xw = (xs.a.as_words_mut(), xs.b.as_words_mut());
                sel.cmux_words(
                    &params,
                    xw,
                    (ys.a.as_words_mut(), ys.b.as_words_mut()),
                    backend,
                    arena,
                )
                .unwrap();
                let want = if bit { &mx } else { &my };
                assert_eq!(&ys.decrypt(&params, &sk), want, "CMux on {kind}, {case}");
                let words = (product, ys);
                match &scalar {
                    None => scalar = Some(words),
                    Some(s) => assert!(*s == words, "{kind} diverged from scalar, {case}"),
                }
            }
        }
    }

    #[test]
    fn rgsw_row_count() {
        let (params, sk, mut rng) = setup();
        let rg = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        assert_eq!(rg.rows().len(), 2 * params.rgsw_gadget().ell());
    }
}
