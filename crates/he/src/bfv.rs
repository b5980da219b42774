//! BFV ciphertexts and the linear operations of §II-D.
//!
//! A ciphertext is a pair `(a, b) ∈ R_Q^2` with phase
//! `φ(ct) = b − a·s = Δ·m + e`. All linear server-side PIR operations —
//! `p·ct + ct'`, additions, subtractions, monomial products — act
//! polynomial-wise and are implemented here; everything is kept in NTT
//! form on the hot path, exactly as preprocessed PIR databases are (§II-B).

use rand::Rng;

use ive_math::arena::KernelArena;
use ive_math::mask::MaskStream;
use ive_math::rns::{Form, RnsPoly};
use ive_math::sample::{fresh_sample, FlatRows, Term};
use ive_math::wide;

use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// A plaintext polynomial with coefficients in `[0, P)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    values: Vec<u64>,
}

impl Plaintext {
    /// Wraps coefficient values, validating the range.
    ///
    /// # Errors
    /// Fails when the length differs from `N` or a value is `>= P`.
    pub fn new(params: &HeParams, values: Vec<u64>) -> Result<Self, HeError> {
        if values.len() != params.n() {
            return Err(HeError::InvalidPlaintext(format!(
                "expected {} coefficients, got {}",
                params.n(),
                values.len()
            )));
        }
        let p = params.p();
        if let Some(v) = values.iter().find(|&&v| v >= p) {
            return Err(HeError::InvalidPlaintext(format!(
                "coefficient {v} exceeds plaintext modulus {p}"
            )));
        }
        Ok(Plaintext { values })
    }

    /// The all-zero plaintext.
    pub fn zero(params: &HeParams) -> Self {
        Plaintext { values: vec![0; params.n()] }
    }

    /// The monomial `c·X^i`.
    ///
    /// # Errors
    /// Fails when `i >= N` or `c >= P`.
    pub fn monomial(params: &HeParams, i: usize, c: u64) -> Result<Self, HeError> {
        if i >= params.n() {
            return Err(HeError::InvalidPlaintext(format!("degree {i} out of range")));
        }
        let mut values = vec![0; params.n()];
        values[i] = c;
        Plaintext::new(params, values)
    }

    /// Coefficient values in `[0, P)`.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Lifts the raw (un-scaled) plaintext into `R_Q` in NTT form — the DB
    /// preprocessing of §II-B (CRT then NTT, done once offline).
    pub fn to_ntt_poly(&self, params: &HeParams) -> RnsPoly {
        self.to_ntt_poly_with(params, ive_math::kernel::default_backend())
    }

    /// [`Plaintext::to_ntt_poly`] through an explicit kernel backend
    /// (backends are bit-identical; only speed differs): the shared
    /// [`lift_coeffs`](crate::lift::lift_coeffs), run in the polynomial's
    /// own `u64` words.
    pub fn to_ntt_poly_with(
        &self,
        params: &HeParams,
        backend: &dyn ive_math::kernel::VpeBackend,
    ) -> RnsPoly {
        let ring = params.ring();
        let mut words = vec![0u64; ring.basis().len() * ring.n()];
        words[..ring.n()].copy_from_slice(&self.values);
        crate::lift::lift_coeffs(params, &mut words, backend, &mut KernelArena::new());
        RnsPoly::from_words(ring, Form::Ntt, words).expect("the lift fills k·n words")
    }
}

/// A BFV ciphertext `(a, b)`; both polynomials share one representation
/// form (NTT on the hot path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfvCiphertext {
    /// The mask polynomial.
    pub a: RnsPoly,
    /// The body polynomial (`a·s + e + Δm`).
    pub b: RnsPoly,
}

impl BfvCiphertext {
    /// The transparent zero ciphertext (used as accumulator seed).
    pub fn zero(params: &HeParams) -> Self {
        BfvCiphertext {
            a: RnsPoly::zero(params.ring(), Form::Ntt),
            b: RnsPoly::zero(params.ring(), Form::Ntt),
        }
    }

    /// This ciphertext with both polynomials in NTT form — borrowed when
    /// they already are (the hot path), converted into a copy otherwise.
    pub(crate) fn in_ntt_form(
        &self,
        backend: &dyn ive_math::kernel::VpeBackend,
    ) -> std::borrow::Cow<'_, Self> {
        if self.a.form() == Form::Ntt && self.b.form() == Form::Ntt {
            return std::borrow::Cow::Borrowed(self);
        }
        let mut ct = self.clone();
        ct.a.to_ntt_with(backend);
        ct.b.to_ntt_with(backend);
        std::borrow::Cow::Owned(ct)
    }

    /// Symmetric-key encryption of `m` with scale `Δ` (fresh mask + noise),
    /// output in NTT form. The mask comes from a stream under a fresh seed
    /// drawn from `rng`.
    pub fn encrypt<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        m: &Plaintext,
        rng: &mut R,
    ) -> Self {
        Self::encrypt_scaled(params, sk, m, params.delta(), rng)
    }

    /// Encryption with an explicit encoding scale, its mask from a stream
    /// under a fresh seed drawn from `rng` (see
    /// [`BfvCiphertext::encrypt_seeded`]).
    pub fn encrypt_scaled<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        m: &Plaintext,
        scale: u128,
        rng: &mut R,
    ) -> Self {
        Self::encrypt_seeded(params, sk, m, scale, &mut MaskStream::fresh(rng), rng)
    }

    /// Encryption with an explicit encoding scale (the PIR client
    /// pre-scales the packed query by `Δ·2^{-d} mod Q`, §II-A): the mask
    /// `a` is the next draw of `masks`, the noise comes from `rng`, and
    /// `b = a·s + e + scale·m` — one [`fresh_sample`].
    pub fn encrypt_seeded<R: Rng + ?Sized>(
        params: &HeParams,
        sk: &SecretKey,
        m: &Plaintext,
        scale: u128,
        masks: &mut MaskStream,
        rng: &mut R,
    ) -> Self {
        let ring = params.ring();
        let (mut a, mut b) = (RnsPoly::zero(ring, Form::Ntt), RnsPoly::zero(ring, Form::Ntt));
        let term = Term::Coeff { scale, values: m.values() };
        let mut out = FlatRows::new(a.as_words_mut(), b.as_words_mut(), ring.n());
        fresh_sample(ring, sk.ntt().as_words(), params.eta(), term, masks, rng, &mut out);
        BfvCiphertext { a, b }
    }

    /// Decrypts and rounds: `m = round(P·φ(ct)/Q) mod P`.
    pub fn decrypt(&self, params: &HeParams, sk: &SecretKey) -> Plaintext {
        let phase = self.phase(sk);
        let q = params.q_big();
        let p = params.p() as u128;
        let values: Vec<u64> =
            phase.iter().map(|&c| (wide::mul_div_round(c, p, q) % p) as u64).collect();
        Plaintext { values }
    }

    /// The wide-coefficient phase `φ(ct) = b − a·s mod Q`.
    pub fn phase(&self, sk: &SecretKey) -> Vec<u128> {
        let mut a = self.a.clone();
        let mut b = self.b.clone();
        a.to_ntt();
        b.to_ntt();
        a.mul_assign_pointwise(sk.ntt()).expect("forms match");
        b.sub_assign(&a).expect("forms match");
        b.to_coeff();
        b.to_coeffs_u128().expect("coefficient form")
    }

    /// `self += other`.
    ///
    /// # Errors
    /// Fails on ring/form mismatch.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), HeError> {
        self.a.add_assign(&other.a)?;
        self.b.add_assign(&other.b)?;
        Ok(())
    }

    /// `self -= other`.
    ///
    /// # Errors
    /// Fails on ring/form mismatch.
    pub fn sub_assign(&mut self, other: &Self) -> Result<(), HeError> {
        self.a.sub_assign(&other.a)?;
        self.b.sub_assign(&other.b)?;
        Ok(())
    }

    /// Plaintext–ciphertext product `p ⊙ ct` (both in NTT form):
    /// the core `RowSel` operation.
    ///
    /// # Errors
    /// Fails when operands are not in NTT form.
    pub fn mul_plain_assign(&mut self, p_ntt: &RnsPoly) -> Result<(), HeError> {
        self.mul_plain_assign_with(p_ntt, ive_math::kernel::default_backend())
    }

    /// Plaintext–ciphertext product through an explicit kernel backend.
    ///
    /// # Errors
    /// Fails when operands are not in NTT form.
    pub fn mul_plain_assign_with(
        &mut self,
        p_ntt: &RnsPoly,
        backend: &dyn ive_math::kernel::VpeBackend,
    ) -> Result<(), HeError> {
        self.a.mul_assign_pointwise_with(p_ntt, backend)?;
        self.b.mul_assign_pointwise_with(p_ntt, backend)?;
        Ok(())
    }

    /// Fused `self += p ⊙ ct` — the `RowSel` accumulation
    /// (`Σ_i DB[i]·ct[i]`, Eq. 1) without temporaries.
    ///
    /// # Errors
    /// Fails when operands are not in NTT form.
    pub fn fma_plain(&mut self, p_ntt: &RnsPoly, ct: &Self) -> Result<(), HeError> {
        self.fma_plain_with(p_ntt, ct, ive_math::kernel::default_backend())
    }

    /// Fused `self += p ⊙ ct` through an explicit kernel backend.
    ///
    /// # Errors
    /// Fails when operands are not in NTT form.
    pub fn fma_plain_with(
        &mut self,
        p_ntt: &RnsPoly,
        ct: &Self,
        backend: &dyn ive_math::kernel::VpeBackend,
    ) -> Result<(), HeError> {
        self.a.fma_pointwise_with(&ct.a, p_ntt, backend)?;
        self.b.fma_pointwise_with(&ct.b, p_ntt, backend)?;
        Ok(())
    }

    /// Multiplies by the monomial `X^{-1}` (the `ExpandQuery` odd branch).
    ///
    /// # Errors
    /// Fails when the ciphertext is not in NTT form.
    pub fn mul_x_inverse_assign(&mut self, params: &HeParams) -> Result<(), HeError> {
        self.mul_plain_assign(params.x_inv_ntt())
    }

    /// Resident size in the packed hardware layout: both polynomials
    /// (what a computed ciphertext, such as a response, also costs on the
    /// wire; a fresh one travels as its `b` alone).
    pub fn byte_len(&self, params: &HeParams) -> usize {
        params.ct_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    fn random_plaintext<R: Rng>(params: &HeParams, rng: &mut R) -> Plaintext {
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        Plaintext::new(params, vals).unwrap()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (params, sk, mut rng) = setup();
        for _ in 0..5 {
            let m = random_plaintext(&params, &mut rng);
            let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
            assert_eq!(ct.decrypt(&params, &sk), m);
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (params, sk, mut rng) = setup();
        let m1 = random_plaintext(&params, &mut rng);
        let m2 = random_plaintext(&params, &mut rng);
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m1, &mut rng);
        let ct2 = BfvCiphertext::encrypt(&params, &sk, &m2, &mut rng);
        ct.add_assign(&ct2).unwrap();
        let sum = ct.decrypt(&params, &sk);
        let p = params.p();
        for i in 0..params.n() {
            assert_eq!(sum.values()[i], (m1.values()[i] + m2.values()[i]) % p);
        }
    }

    #[test]
    fn homomorphic_subtraction() {
        let (params, sk, mut rng) = setup();
        let m1 = random_plaintext(&params, &mut rng);
        let m2 = random_plaintext(&params, &mut rng);
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m1, &mut rng);
        let ct2 = BfvCiphertext::encrypt(&params, &sk, &m2, &mut rng);
        ct.sub_assign(&ct2).unwrap();
        let diff = ct.decrypt(&params, &sk);
        let p = params.p();
        for i in 0..params.n() {
            assert_eq!(diff.values()[i], (m1.values()[i] + p - m2.values()[i]) % p);
        }
    }

    #[test]
    fn plaintext_product_by_monomial_shifts() {
        let (params, sk, mut rng) = setup();
        // Encrypt X^0, multiply by plaintext X^3: expect X^3.
        let m = Plaintext::monomial(&params, 0, 1).unwrap();
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let shift = Plaintext::monomial(&params, 3, 1).unwrap().to_ntt_poly(&params);
        ct.mul_plain_assign(&shift).unwrap();
        let out = ct.decrypt(&params, &sk);
        assert_eq!(out.values()[3], 1);
        assert_eq!(out.values().iter().sum::<u64>(), 1);
    }

    #[test]
    fn plaintext_product_general() {
        let (params, sk, mut rng) = setup();
        // Multiply an encrypted message by a *small* plaintext polynomial
        // and verify against the schoolbook negacyclic product mod P.
        let m = random_plaintext(&params, &mut rng);
        let small: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..4)).collect();
        let mut sparse = vec![0u64; params.n()];
        for (i, v) in sparse.iter_mut().enumerate().take(8) {
            *v = small[i];
        }
        let pt = Plaintext::new(&params, sparse.clone()).unwrap();
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        ct.mul_plain_assign(&pt.to_ntt_poly(&params)).unwrap();
        let out = ct.decrypt(&params, &sk);
        let p = params.p();
        let expect = ive_math::poly::negacyclic_mul_schoolbook(m.values(), &sparse, p);
        assert_eq!(out.values(), &expect[..]);
    }

    #[test]
    fn fma_matches_separate_ops() {
        let (params, sk, mut rng) = setup();
        let m1 = random_plaintext(&params, &mut rng);
        let m2 = random_plaintext(&params, &mut rng);
        let ct1 = BfvCiphertext::encrypt(&params, &sk, &m1, &mut rng);
        let ct2 = BfvCiphertext::encrypt(&params, &sk, &m2, &mut rng);
        let p1 = Plaintext::monomial(&params, 1, 3).unwrap().to_ntt_poly(&params);
        let p2 = Plaintext::monomial(&params, 2, 5).unwrap().to_ntt_poly(&params);
        // acc = p1·ct1 + p2·ct2 via FMA.
        let mut acc = BfvCiphertext::zero(&params);
        acc.fma_plain(&p1, &ct1).unwrap();
        acc.fma_plain(&p2, &ct2).unwrap();
        // Reference.
        let mut r1 = ct1.clone();
        r1.mul_plain_assign(&p1).unwrap();
        let mut r2 = ct2.clone();
        r2.mul_plain_assign(&p2).unwrap();
        r1.add_assign(&r2).unwrap();
        assert_eq!(acc, r1);
    }

    #[test]
    fn x_inverse_undoes_x() {
        let (params, sk, mut rng) = setup();
        let m = random_plaintext(&params, &mut rng);
        let mut ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let x = Plaintext::monomial(&params, 1, 1).unwrap().to_ntt_poly(&params);
        ct.mul_plain_assign(&x).unwrap();
        ct.mul_x_inverse_assign(&params).unwrap();
        assert_eq!(ct.decrypt(&params, &sk), m);
    }

    #[test]
    fn plaintext_validation() {
        let params = HeParams::toy();
        assert!(Plaintext::new(&params, vec![0; 3]).is_err());
        assert!(Plaintext::new(&params, vec![params.p(); params.n()]).is_err());
        assert!(Plaintext::monomial(&params, params.n(), 1).is_err());
    }

    #[test]
    fn scaled_encryption_halves() {
        // Encrypting with Δ·2^{-1} then homomorphically doubling recovers m.
        let (params, sk, mut rng) = setup();
        let m = random_plaintext(&params, &mut rng);
        let q = params.q_big();
        let half = params.inv_two_pow(1);
        let (hi, lo) = ive_math::wide::mul_u128(params.delta(), half);
        let scale = ive_math::wide::div_rem_wide(hi, lo, q).1;
        let mut ct = BfvCiphertext::encrypt_scaled(&params, &sk, &m, scale, &mut rng);
        let ct2 = ct.clone();
        ct.add_assign(&ct2).unwrap();
        assert_eq!(ct.decrypt(&params, &sk), m);
    }
}
