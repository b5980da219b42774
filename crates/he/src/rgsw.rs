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
use ive_math::kernel::{self, KeyRows, MacFinish, TileSink, VpeBackend};
use ive_math::rns::{Form, RnsPoly};

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

/// One RLWE row `(a, b)` of an RGSW matrix, stored in NTT form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgswRow {
    /// Mask polynomial.
    pub a: RnsPoly,
    /// Body polynomial.
    pub b: RnsPoly,
}

/// An RGSW ciphertext: `2ℓ` rows (first `ℓ` carry `m·z^j` on the mask
/// component, last `ℓ` on the body component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgswCiphertext {
    rows: Vec<RgswRow>,
}

impl RgswCiphertext {
    /// Assembles an RGSW ciphertext from explicit rows (first `ℓ` rows
    /// carry phase `−m·z^j·s`, last `ℓ` carry `m·z^j`) — used by the
    /// BFV→RGSW conversion of [`crate::convert`].
    ///
    /// # Panics
    /// Panics when the row count is odd.
    pub fn from_rows(rows: Vec<RgswRow>) -> Self {
        assert!(rows.len().is_multiple_of(2), "RGSW needs 2*ell rows");
        RgswCiphertext { rows }
    }

    /// Encrypts a plaintext polynomial `m` (given in NTT form, unscaled —
    /// RGSW is scale-free).
    pub fn encrypt_poly<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        m_ntt: &RnsPoly,
        rng: &mut R,
    ) -> Self {
        let ring = params.ring();
        let ell = params.gadget().ell();
        let powers = params.gadget().powers();
        let mut rows = Vec::with_capacity(2 * ell);
        for j in 0..2 * ell {
            // Fresh RLWE(0): (a, a·s + e).
            let a = RnsPoly::sample_uniform(ring, Form::Ntt, rng);
            let mut e = RnsPoly::sample_cbd(ring, params.eta(), rng);
            e.to_ntt();
            let mut b = a.clone();
            b.mul_assign_pointwise(sk.ntt()).expect("forms match");
            b.add_assign(&e).expect("forms match");
            // Add m·z^j to the proper component.
            let mut gadget_term = m_ntt.clone();
            gadget_term.mul_scalar_u128(powers[j % ell]);
            let mut row = RgswRow { a, b };
            if j < ell {
                row.a.add_assign(&gadget_term).expect("forms match");
            } else {
                row.b.add_assign(&gadget_term).expect("forms match");
            }
            rows.push(row);
        }
        RgswCiphertext { rows }
    }

    /// Encrypts the selection bit `m ∈ {0, 1}` — the `ct_RGSW,j*` of the
    /// ColTor tournament (§II-C).
    pub fn encrypt_bit<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        bit: bool,
        rng: &mut R,
    ) -> Self {
        let mut m = RnsPoly::zero(params.ring(), Form::Coeff);
        if bit {
            for (idx, modulus) in params.ring().basis().moduli().iter().enumerate() {
                let _ = modulus;
                m.residue_mut(idx)[0] = 1;
            }
        }
        m.to_ntt();
        RgswCiphertext::encrypt_poly(params, sk, &m, rng)
    }

    /// The `2ℓ` rows.
    #[inline]
    pub fn rows(&self) -> &[RgswRow] {
        &self.rows
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
    pub fn external_product_acc_words(
        &self,
        params: &HeParams,
        (a, b): (&[u64], &[u64]),
        (acc_a, acc_b): (&mut [u64], &mut [u64]),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<(), HeError> {
        let gadget = params.gadget();
        let ell = gadget.ell();
        let ring = params.ring();
        if self.rows.len() != 2 * ell {
            return Err(HeError::InvalidParams(format!(
                "RGSW ciphertext has {} rows, parameters want {}",
                self.rows.len(),
                2 * ell
            )));
        }
        let kn = a.len();
        let mut coeff = arena.take_u64_stale(2 * kn);
        let (coeff_a, coeff_b) = coeff.split_at_mut(kn);
        for (src, dst) in [(a, &mut *coeff_a), (b, &mut *coeff_b)] {
            dst.copy_from_slice(src);
            ring.ntt_inverse_words(backend, dst);
        }
        let row = |t: usize, m: usize| (self.rows[t].a.residue(m), self.rows[t].b.residue(m));
        let sink =
            TileSink::Mac { rows: KeyRows::Wide(&row), finish: MacFinish::Fold { acc_a, acc_b } };
        let sources = [(&*coeff_a, None), (&*coeff_b, None)];
        kernel::dcp_tiles(ring, gadget, &sources, sink, backend, arena)?;
        arena.give_u64(coeff);
        Ok(())
    }

    /// The CMux selection `bit ⊡ (x − y) + y`, which returns an encryption
    /// of `x` when the RGSW bit is 1 and `y` when it is 0 — exactly one
    /// ColTor tournament node (§II-C).
    ///
    /// # Errors
    /// Fails on ring mismatch between operands.
    pub fn cmux(
        &self,
        params: &HeParams,
        x: &BfvCiphertext,
        y: &BfvCiphertext,
    ) -> Result<BfvCiphertext, HeError> {
        let (backend, arena) = (kernel::default_backend(), &mut KernelArena::new());
        check_param_ring(params, x)?;
        check_param_ring(params, y)?;
        let mut x = x.in_ntt_form(backend).into_owned();
        let mut y = y.in_ntt_form(backend).into_owned();
        self.cmux_words(
            params,
            (x.a.as_words_mut(), x.b.as_words_mut()),
            (y.a.as_words_mut(), y.b.as_words_mut()),
            backend,
            arena,
        )?;
        Ok(y)
    }

    /// One tournament node in place on flat NTT-form limb words:
    /// `y ← self ⊡ (x − y) + y`. The winner lands in `y` — the external
    /// product accumulates straight onto it — and `x` is consumed (left
    /// holding `x − y`), so a ColTor level needs no ciphertext copies.
    ///
    /// # Errors
    /// As [`RgswCiphertext::external_product_acc_words`].
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

    /// Serialized size in the packed hardware layout.
    pub fn byte_len(&self, params: &HeParams) -> usize {
        params.rgsw_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::Plaintext;
    use rand::{Rng, SeedableRng};

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
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
        let rg = RgswCiphertext::encrypt_poly(&params, &sk, &mono, &mut rng);
        let out = rg.external_product(&params, &ct).unwrap();
        let mut x2 = vec![0u64; params.n()];
        x2[2] = 1;
        let expect = ive_math::poly::negacyclic_mul_schoolbook(m.values(), &x2, params.p());
        assert_eq!(out.decrypt(&params, &sk).values(), &expect[..]);
    }

    #[test]
    fn cmux_selects() {
        let (params, sk, mut rng) = setup();
        let mx = random_plaintext(&params, &mut rng);
        let my = random_plaintext(&params, &mut rng);
        let x = BfvCiphertext::encrypt(&params, &sk, &mx, &mut rng);
        let y = BfvCiphertext::encrypt(&params, &sk, &my, &mut rng);
        let sel1 = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        let sel0 = RgswCiphertext::encrypt_bit(&params, &sk, false, &mut rng);
        assert_eq!(sel1.cmux(&params, &x, &y).unwrap().decrypt(&params, &sk), mx);
        assert_eq!(sel0.cmux(&params, &x, &y).unwrap().decrypt(&params, &sk), my);
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
        let other = HeParams::new(small_ring, 16, gadget, 4).unwrap();
        let other_sk = SecretKey::generate(&other, &mut rng);
        let m = Plaintext::zero(&other);
        let foreign = BfvCiphertext::encrypt(&other, &other_sk, &m, &mut rng);
        assert!(one.external_product(&params, &foreign).is_err());
        assert!(one.cmux(&params, &foreign, &foreign).is_err());
    }

    #[test]
    fn rgsw_row_count() {
        let (params, sk, mut rng) = setup();
        let rg = RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        assert_eq!(rg.rows().len(), 2 * params.gadget().ell());
        assert_eq!(rg.byte_len(&params), params.rgsw_bytes());
    }
}
