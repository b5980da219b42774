//! Residue number system: CRT/iCRT (Eqs. 2–3) and the RNS polynomial.
//!
//! With RNS, a polynomial in `R_Q` becomes a `k × N` matrix of word-sized
//! residues (the paper's `4 × N` 28-bit structure, §II-B). Additions and
//! multiplications act independently per residue row; `iCRT` reconstructs
//! wide coefficients for gadget decomposition (Fig. 3) and decoding.

use std::sync::Arc;

use rand::Rng;

use crate::arena::KernelArena;
use crate::gadget::Gadget;
use crate::kernel::{self, OptimizedBackend, TileSink, VpeBackend};
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::poly;
use crate::reduce::ShoupMul;
use crate::{log2_exact, MathError};

/// An RNS basis `Q = q_0 q_1 ... q_{k-1}` with iCRT precomputations.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    q_big: u128,
    /// `Q / q_i`.
    qi_hat: Vec<u128>,
    /// `(Q / q_i)^{-1} mod q_i`, prepared for Shoup multiplication (the
    /// iCRT multiplies every residue by this one constant).
    qi_hat_inv: Vec<ShoupMul>,
}

impl RnsBasis {
    /// Most moduli a basis holds.
    pub(crate) const MAX_LIMBS: usize = 8;

    /// Builds a basis from distinct primes whose product stays below
    /// `2^120` (leaving headroom for the iCRT accumulation in `u128`).
    ///
    /// # Errors
    /// Fails on an empty basis, duplicate moduli, or an oversized product.
    pub fn new(moduli: Vec<Modulus>) -> Result<Self, MathError> {
        if moduli.is_empty() {
            return Err(MathError::InvalidBasis("empty basis".into()));
        }
        if moduli.len() > Self::MAX_LIMBS {
            return Err(MathError::InvalidBasis("more than 8 moduli unsupported".into()));
        }
        for (i, a) in moduli.iter().enumerate() {
            for b in &moduli[i + 1..] {
                if a.value() == b.value() {
                    return Err(MathError::InvalidBasis(format!(
                        "duplicate modulus {}",
                        a.value()
                    )));
                }
            }
        }
        let mut q_big: u128 = 1;
        for m in &moduli {
            q_big = q_big
                .checked_mul(m.value() as u128)
                .ok_or_else(|| MathError::InvalidBasis("modulus product overflows u128".into()))?;
        }
        if q_big >= (1u128 << 120) {
            return Err(MathError::InvalidBasis("modulus product exceeds 2^120".into()));
        }
        let qi_hat: Vec<u128> = moduli.iter().map(|m| q_big / m.value() as u128).collect();
        let qi_hat_inv: Vec<ShoupMul> = moduli
            .iter()
            .zip(&qi_hat)
            .map(|(m, &hat)| {
                let hat_mod = m.reduce_u128(hat);
                ShoupMul::new(m.inv(hat_mod), m.value())
            })
            .collect();
        Ok(RnsBasis { moduli, q_big, qi_hat, qi_hat_inv })
    }

    /// The paper's basis: four Solinas primes, `Q` = 109 bits (Table I).
    pub fn paper_basis() -> Self {
        RnsBasis::new(Modulus::special_primes().to_vec()).expect("paper basis is valid")
    }

    /// The moduli `q_i`.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of residues `k`.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The product `Q`.
    #[inline]
    pub fn q_big(&self) -> u128 {
        self.q_big
    }

    /// `q̂_i = Q / q_i`, in basis order.
    #[inline]
    pub(crate) fn qi_hat(&self) -> &[u128] {
        &self.qi_hat
    }

    /// `q̂_i⁻¹ mod q_i` with its Shoup quotient, in basis order.
    #[inline]
    pub(crate) fn qi_hat_inv(&self) -> &[ShoupMul] {
        &self.qi_hat_inv
    }

    /// CRT (Eq. 2): residues of a wide value.
    pub fn to_residues(&self, x: u128) -> Vec<u64> {
        self.moduli.iter().map(|m| m.reduce_u128(x)).collect()
    }

    /// iCRT (Eq. 3) of one coefficient gathered from a flat residue-major
    /// limb matrix: `words[m·n + i]` is the residue of coefficient `i`
    /// modulo `q_m`. Allocation-free.
    ///
    /// # Panics
    /// Panics if `words.len() != len() * n` or `i >= n`.
    pub fn from_residues_strided(&self, words: &[u64], n: usize, i: usize) -> u128 {
        assert_eq!(words.len(), self.len() * n);
        assert!(i < n);
        self.icrt((0..self.len()).map(|m| words[m * n + i]))
    }

    /// iCRT (Eq. 3): reconstructs `x mod Q` from its residues.
    ///
    /// # Panics
    /// Panics if `residues.len()` differs from the basis size.
    pub fn from_residues(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.len());
        self.icrt(residues.iter().copied())
    }

    /// `Σ_i [r_i·q̂_i⁻¹]_{q_i}·q̂_i mod Q` over residues in basis order.
    /// Each term is below `Q` by construction (`[·]_{q_i} < q_i` and
    /// `q_i·q̂_i = Q`), so one conditional subtraction per term keeps the
    /// running sum canonical — no wide remainder anywhere.
    #[inline]
    fn icrt(&self, residues: impl Iterator<Item = u64>) -> u128 {
        let mut acc: u128 = 0;
        for (i, r) in residues.enumerate() {
            let scaled = self.qi_hat_inv[i].mul(r, self.moduli[i].value());
            let term = u128::from(scaled) * self.qi_hat[i];
            debug_assert!(term < self.q_big, "iCRT term must stay below Q");
            acc += term;
            if acc >= self.q_big {
                acc -= self.q_big;
            }
        }
        acc
    }

    /// Residues of a signed value (e.g. centered noise).
    pub fn signed_to_residues(&self, x: i64) -> Vec<u64> {
        self.moduli.iter().map(|m| m.reduce_i128(x as i128)).collect()
    }

    /// Centers `x mod Q` into `(-Q/2, Q/2]`.
    pub fn center(&self, x: u128) -> i128 {
        if x > self.q_big / 2 {
            x as i128 - self.q_big as i128
        } else {
            x as i128
        }
    }
}

impl PartialEq for RnsBasis {
    fn eq(&self, other: &Self) -> bool {
        self.moduli.iter().map(Modulus::value).eq(other.moduli.iter().map(Modulus::value))
    }
}
impl Eq for RnsBasis {}

/// A negacyclic ring `R_Q = Z_Q[X]/(X^N + 1)` under RNS, with NTT tables
/// for every residue field.
#[derive(Debug)]
pub struct RingContext {
    n: usize,
    basis: RnsBasis,
    ntt: Vec<NttTable>,
}

impl RingContext {
    /// Builds a ring of degree `n` over `basis`.
    ///
    /// # Errors
    /// Fails when `n` is not a power of two or some modulus is not
    /// NTT-friendly at this degree.
    pub fn new(n: usize, basis: RnsBasis) -> Result<Arc<Self>, MathError> {
        log2_exact(n)?;
        let ntt =
            basis.moduli().iter().map(|m| NttTable::new(m, n)).collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(RingContext { n, basis, ntt }))
    }

    /// The paper's ring: `N = 2^12` over the four special primes.
    pub fn paper_ring() -> Arc<Self> {
        RingContext::new(1 << 12, RnsBasis::paper_basis()).expect("paper ring is valid")
    }

    /// A small ring for fast tests: degree `n` over the first `k` special
    /// primes.
    ///
    /// # Panics
    /// Panics if `k` is 0 or greater than 4, or `n` unsupported.
    pub fn test_ring(n: usize, k: usize) -> Arc<Self> {
        assert!((1..=4).contains(&k));
        let basis = RnsBasis::new(Modulus::special_primes()[..k].to_vec()).unwrap();
        RingContext::new(n, basis).unwrap()
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The RNS basis.
    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// NTT table for residue `m`.
    #[inline]
    pub fn ntt(&self, m: usize) -> &NttTable {
        &self.ntt[m]
    }

    /// Forward-NTTs every limb row of a flat `k × n` residue-major matrix
    /// in place — the kernel-layer form of [`RnsPoly::to_ntt_with`] for
    /// buffers that are not wrapped in a polynomial.
    ///
    /// # Panics
    /// Panics if `words.len() != k · n`.
    pub fn ntt_forward_words(&self, backend: &dyn VpeBackend, words: &mut [u64]) {
        assert_eq!(words.len(), self.ntt.len() * self.n);
        for (table, row) in self.ntt.iter().zip(words.chunks_exact_mut(self.n)) {
            backend.ntt_forward(table, row);
        }
    }

    /// Inverse-NTTs every limb row of a flat `k × n` matrix in place.
    ///
    /// # Panics
    /// Panics if `words.len() != k · n`.
    pub fn ntt_inverse_words(&self, backend: &dyn VpeBackend, words: &mut [u64]) {
        assert_eq!(words.len(), self.ntt.len() * self.n);
        for (table, row) in self.ntt.iter().zip(words.chunks_exact_mut(self.n)) {
            backend.ntt_inverse(table, row);
        }
    }

    /// Applies `τ_r` to a flat NTT-form `k × n` matrix as the index
    /// permutation `map` (from [`poly::automorphism_ntt_map`]; the same
    /// table serves every limb): `dst[m·n + i] = src[m·n + map[i]]`.
    ///
    /// # Panics
    /// Panics if `src`/`dst` are not `k · n` words or `map` is not `n`.
    pub fn automorphism_ntt_words(&self, map: &[u32], src: &[u64], dst: &mut [u64]) {
        assert_eq!(map.len(), self.n);
        assert_eq!(src.len(), self.ntt.len() * self.n);
        assert_eq!(dst.len(), src.len());
        crate::metrics::count_auto_coeffs(src.len() as u64);
        for (s, d) in src.chunks_exact(self.n).zip(dst.chunks_exact_mut(self.n)) {
            for (x, &j) in d.iter_mut().zip(map) {
                *x = s[j as usize];
            }
        }
    }

    /// iCRT of a flat coefficient-form `k × n` matrix into wide
    /// coefficients, optionally composed with the automorphism
    /// `τ_r : X → X^r`: coefficient `i` lands in slot `i·r mod n`,
    /// negated mod `Q` when `i·r mod 2n ≥ n` (`X^n = −1`). Folding `τ_r`
    /// into this gather is exact — `−x mod Q` has residues `−x_m mod q_m`
    /// — and saves the per-limb permutation pass.
    ///
    /// # Panics
    /// Panics on a shape mismatch or an even `r`.
    pub fn icrt_words_into(&self, coeff: &[u64], tau: Option<usize>, out: &mut [u128]) {
        let n = self.n;
        let k = self.basis.len();
        assert_eq!(coeff.len(), k * n);
        assert_eq!(out.len(), n);
        crate::metrics::count_icrt_coeffs(n as u64);
        let wide = |i: usize| self.basis.icrt((0..k).map(|m| coeff[m * n + i]));
        let Some(r) = tau else {
            for (i, dst) in out.iter_mut().enumerate() {
                *dst = wide(i);
            }
            return;
        };
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        crate::metrics::count_auto_coeffs((k * n) as u64);
        let q_big = self.basis.q_big();
        let r = r % (2 * n);
        for i in 0..n {
            let x = wide(i);
            let e = (i * r) % (2 * n);
            if e < n {
                out[e] = x;
            } else {
                out[e - n] = if x == 0 { 0 } else { q_big - x };
            }
        }
    }

    /// Gadget decomposition straight to the multiplication domain, on
    /// flat words: iCRT every coefficient of the coefficient-form matrix
    /// `coeff` (through `τ_r` when `tau` is set), split into `ℓ` base-`z`
    /// digits, lift each digit polynomial into every residue limb, and
    /// forward-NTT the rows — `ℓ·k` transforms. The result lands flat in
    /// `out` as `ℓ × k × n` (digit-major, then limb-major), overwritten in
    /// full. This is [`kernel::dcp_tiles`] with the sink that keeps every
    /// tile ([`TileSink::Matrix`]); `Subs` and `⊡` run the same pipeline
    /// with the sink that consumes each tile in their gadget GEMM, and
    /// never hold this matrix. All scratch comes from `arena`.
    ///
    /// # Errors
    /// Fails when the gadget does not cover `Q`.
    ///
    /// # Panics
    /// Panics if `coeff.len() != k · n`.
    pub fn decompose_ntt_words(
        &self,
        coeff: &[u64],
        tau: Option<usize>,
        gadget: &Gadget,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
        out: &mut Vec<u64>,
    ) -> Result<(), MathError> {
        out.resize(gadget.ell() * self.basis.len() * self.n, 0);
        kernel::dcp_tiles(self, gadget, &[(coeff, tau)], TileSink::Matrix(out), backend, arena)
    }

    /// Bytes of one `R_Q` polynomial in its hardware layout: residues are
    /// packed at their native width (28 bits for the special primes),
    /// giving the paper's 56KB figure for `N = 2^12` with four residues
    /// (§II-B).
    pub fn poly_bytes(&self) -> usize {
        let bits: usize = self.basis.moduli().iter().map(|m| self.n * m.bits() as usize).sum();
        bits.div_ceil(8)
    }
}

impl PartialEq for RingContext {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.basis == other.basis
    }
}

/// Representation form of an [`RnsPoly`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Coefficient (positional) representation.
    Coeff,
    /// Transform (NTT/evaluation) representation.
    Ntt,
}

/// A polynomial in `R_Q` stored residue-major (`coeffs[m * n + i]` is
/// coefficient `i` modulo `q_m`).
#[derive(Debug, Clone)]
pub struct RnsPoly {
    ctx: Arc<RingContext>,
    form: Form,
    coeffs: Vec<u64>,
}

impl PartialEq for RnsPoly {
    fn eq(&self, other: &Self) -> bool {
        self.form == other.form && self.ctx == other.ctx && self.coeffs == other.coeffs
    }
}
impl Eq for RnsPoly {}

impl RnsPoly {
    /// The zero polynomial in the given form.
    pub fn zero(ctx: &Arc<RingContext>, form: Form) -> Self {
        RnsPoly { ctx: Arc::clone(ctx), form, coeffs: vec![0; ctx.basis().len() * ctx.n()] }
    }

    /// Wraps a flat residue-major limb matrix (`words[m·n + i]` is
    /// coefficient `i` modulo `q_m`) as a polynomial in the given form —
    /// the bridge back from kernel-layer flat buffers (database slices,
    /// `RowSel` accumulators) to the polynomial algebra.
    ///
    /// # Errors
    /// Fails when the length is not `k · n`.
    pub fn from_words(
        ctx: &Arc<RingContext>,
        form: Form,
        words: Vec<u64>,
    ) -> Result<Self, MathError> {
        if words.len() != ctx.basis().len() * ctx.n() {
            return Err(MathError::InvalidBasis(format!(
                "flat polynomial has {} words, ring wants {}",
                words.len(),
                ctx.basis().len() * ctx.n()
            )));
        }
        Ok(RnsPoly { ctx: Arc::clone(ctx), form, coeffs: words })
    }

    /// Builds a polynomial from wide coefficients (reduced per residue).
    ///
    /// # Panics
    /// Panics if `coeffs.len() != n`.
    pub fn from_coeffs_u128(ctx: &Arc<RingContext>, coeffs: &[u128]) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        let mut p = RnsPoly::zero(ctx, Form::Coeff);
        for (m, modulus) in ctx.basis().moduli().iter().enumerate() {
            let row = &mut p.coeffs[m * ctx.n()..(m + 1) * ctx.n()];
            for (dst, &c) in row.iter_mut().zip(coeffs) {
                *dst = modulus.reduce_u128(c);
            }
        }
        p
    }

    /// Builds a polynomial from small signed coefficients (secrets, noise).
    ///
    /// # Panics
    /// Panics if `coeffs.len() != n`.
    pub fn from_signed_coeffs(ctx: &Arc<RingContext>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        let mut p = RnsPoly::zero(ctx, Form::Coeff);
        for (m, modulus) in ctx.basis().moduli().iter().enumerate() {
            let row = &mut p.coeffs[m * ctx.n()..(m + 1) * ctx.n()];
            let q = modulus.value();
            for (dst, &c) in row.iter_mut().zip(coeffs) {
                // Secrets and noise are far below any modulus: one compare
                // maps them, no signed 128-bit remainder.
                let magnitude = c.unsigned_abs();
                *dst = if magnitude >= q {
                    modulus.reduce_i128(i128::from(c))
                } else if c < 0 {
                    q - magnitude
                } else {
                    magnitude
                };
            }
        }
        p
    }

    /// Uniformly random polynomial in the given form (a fresh mask `a`).
    pub fn sample_uniform<R: Rng + ?Sized>(
        ctx: &Arc<RingContext>,
        form: Form,
        rng: &mut R,
    ) -> Self {
        let mut p = RnsPoly::zero(ctx, form);
        for (m, modulus) in ctx.basis().moduli().iter().enumerate() {
            let row = &mut p.coeffs[m * ctx.n()..(m + 1) * ctx.n()];
            // `gen_range(0..q)` word for word — reject a draw at or above
            // the largest multiple of `q`, reduce the rest — with the limit
            // and the Barrett ratio hoisted out of the `n` draws.
            let q = modulus.value();
            let (limit, ratio) = (u64::MAX - u64::MAX % q, OptimizedBackend::narrow_ratio(q));
            for dst in row.iter_mut() {
                *dst = loop {
                    let x = rng.next_u64();
                    if x < limit {
                        break OptimizedBackend::reduce_word(ratio, q, x);
                    }
                };
            }
        }
        p
    }

    /// Centered-binomial noise polynomial with parameter `eta`
    /// (variance `eta / 2`), in coefficient form.
    pub fn sample_cbd<R: Rng + ?Sized>(ctx: &Arc<RingContext>, eta: u32, rng: &mut R) -> Self {
        let mut signed = vec![0i64; ctx.n()];
        crate::sample::cbd(eta, rng, &mut signed);
        RnsPoly::from_signed_coeffs(ctx, &signed)
    }

    /// Uniform ternary polynomial (secret-key distribution), coefficient
    /// form.
    pub fn sample_ternary<R: Rng + ?Sized>(ctx: &Arc<RingContext>, rng: &mut R) -> Self {
        let n = ctx.n();
        let signed: Vec<i64> = (0..n).map(|_| rng.gen_range(-1i64..=1)).collect();
        RnsPoly::from_signed_coeffs(ctx, &signed)
    }

    /// The ring this polynomial lives in.
    #[inline]
    pub fn ctx(&self) -> &Arc<RingContext> {
        &self.ctx
    }

    /// Current representation form.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Residue row `m` (length `n`).
    #[inline]
    pub fn residue(&self, m: usize) -> &[u64] {
        &self.coeffs[m * self.ctx.n()..(m + 1) * self.ctx.n()]
    }

    /// Mutable residue row `m`.
    #[inline]
    pub fn residue_mut(&mut self, m: usize) -> &mut [u64] {
        let n = self.ctx.n();
        &mut self.coeffs[m * n..(m + 1) * n]
    }

    /// Raw residue-major storage.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutable raw residue-major storage — the kernel layer's window into
    /// the polynomial. The caller must keep values `< q_m` per limb row.
    #[inline]
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Consumes the polynomial into its raw residue-major storage —
    /// handing flat limb words to a kernel-layer buffer without a copy.
    #[inline]
    pub fn into_words(self) -> Vec<u64> {
        self.coeffs
    }

    /// Converts to NTT form (no-op when already there).
    pub fn to_ntt(&mut self) {
        self.to_ntt_with(kernel::default_backend());
    }

    /// Converts to NTT form through an explicit kernel backend.
    pub fn to_ntt_with(&mut self, backend: &dyn VpeBackend) {
        if self.form == Form::Ntt {
            return;
        }
        self.ctx.ntt_forward_words(backend, &mut self.coeffs);
        self.form = Form::Ntt;
    }

    /// Converts to coefficient form (no-op when already there).
    pub fn to_coeff(&mut self) {
        self.to_coeff_with(kernel::default_backend());
    }

    /// Converts to coefficient form through an explicit kernel backend.
    pub fn to_coeff_with(&mut self, backend: &dyn VpeBackend) {
        if self.form == Form::Coeff {
            return;
        }
        self.ctx.ntt_inverse_words(backend, &mut self.coeffs);
        self.form = Form::Coeff;
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MathError> {
        if self.ctx != other.ctx {
            return Err(MathError::FormMismatch("operands from different rings"));
        }
        if self.form != other.form {
            return Err(MathError::FormMismatch("operands in different forms"));
        }
        Ok(())
    }

    /// `self += other` (element-wise; both operands in the same form).
    ///
    /// # Errors
    /// Fails on ring or form mismatch.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), MathError> {
        self.check_compatible(other)?;
        let n = self.ctx.n();
        for (m, modulus) in self.ctx.basis().moduli().iter().enumerate() {
            let q = modulus.value();
            let a = &mut self.coeffs[m * n..(m + 1) * n];
            let b = &other.coeffs[m * n..(m + 1) * n];
            for (x, &y) in a.iter_mut().zip(b) {
                *x = crate::reduce::add_mod(*x, y, q);
            }
        }
        Ok(())
    }

    /// `self -= other`.
    ///
    /// # Errors
    /// Fails on ring or form mismatch.
    pub fn sub_assign(&mut self, other: &Self) -> Result<(), MathError> {
        self.check_compatible(other)?;
        let n = self.ctx.n();
        for (m, modulus) in self.ctx.basis().moduli().iter().enumerate() {
            let q = modulus.value();
            let a = &mut self.coeffs[m * n..(m + 1) * n];
            let b = &other.coeffs[m * n..(m + 1) * n];
            for (x, &y) in a.iter_mut().zip(b) {
                *x = crate::reduce::sub_mod(*x, y, q);
            }
        }
        Ok(())
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self) {
        let n = self.ctx.n();
        for (m, modulus) in self.ctx.basis().moduli().iter().enumerate() {
            let q = modulus.value();
            for x in self.coeffs[m * n..(m + 1) * n].iter_mut() {
                *x = crate::reduce::neg_mod(*x, q);
            }
        }
    }

    /// Pointwise product `self *= other`; both must be in NTT form.
    ///
    /// # Errors
    /// Fails on ring mismatch or when either operand is in coefficient form.
    pub fn mul_assign_pointwise(&mut self, other: &Self) -> Result<(), MathError> {
        self.mul_assign_pointwise_with(other, kernel::default_backend())
    }

    /// Pointwise product through an explicit kernel backend.
    ///
    /// # Errors
    /// Fails on ring mismatch or when either operand is in coefficient form.
    pub fn mul_assign_pointwise_with(
        &mut self,
        other: &Self,
        backend: &dyn VpeBackend,
    ) -> Result<(), MathError> {
        self.check_compatible(other)?;
        if self.form != Form::Ntt {
            return Err(MathError::FormMismatch("pointwise product requires NTT form"));
        }
        kernel::pointwise_mul_poly(
            backend,
            self.ctx.basis().moduli(),
            &mut self.coeffs,
            &other.coeffs,
        );
        Ok(())
    }

    /// `self += a ⊙ b` (fused multiply-accumulate; all in NTT form).
    ///
    /// # Errors
    /// Fails on ring mismatch or non-NTT operands.
    pub fn fma_pointwise(&mut self, a: &Self, b: &Self) -> Result<(), MathError> {
        self.fma_pointwise_with(a, b, kernel::default_backend())
    }

    /// Fused multiply-accumulate through an explicit kernel backend.
    ///
    /// # Errors
    /// Fails on ring mismatch or non-NTT operands.
    pub fn fma_pointwise_with(
        &mut self,
        a: &Self,
        b: &Self,
        backend: &dyn VpeBackend,
    ) -> Result<(), MathError> {
        self.check_compatible(a)?;
        self.check_compatible(b)?;
        if self.form != Form::Ntt {
            return Err(MathError::FormMismatch("pointwise FMA requires NTT form"));
        }
        kernel::fma_poly(
            backend,
            self.ctx.basis().moduli(),
            &mut self.coeffs,
            &a.coeffs,
            &b.coeffs,
        );
        Ok(())
    }

    /// Multiplies by a wide scalar (`x *= c mod Q`), any form.
    pub fn mul_scalar_u128(&mut self, c: u128) {
        let n = self.ctx.n();
        for (m, modulus) in self.ctx.basis().moduli().iter().enumerate() {
            let cm = modulus.reduce_u128(c);
            for x in self.coeffs[m * n..(m + 1) * n].iter_mut() {
                *x = modulus.mul(*x, cm);
            }
        }
    }

    /// Applies the automorphism `X -> X^r` (coefficient form only).
    ///
    /// # Errors
    /// Fails when the polynomial is in NTT form.
    pub fn automorphism(&self, r: usize) -> Result<Self, MathError> {
        if self.form != Form::Coeff {
            return Err(MathError::FormMismatch("automorphism requires coefficient form"));
        }
        let mut out = RnsPoly::zero(&self.ctx, Form::Coeff);
        for (m, modulus) in self.ctx.basis().moduli().iter().enumerate() {
            let row = poly::automorphism(self.residue(m), r, modulus.value());
            out.residue_mut(m).copy_from_slice(&row);
        }
        crate::metrics::count_auto_coeffs((self.ctx.basis().len() * self.ctx.n()) as u64);
        Ok(out)
    }

    /// Reconstructs wide coefficients via iCRT (coefficient form only).
    ///
    /// # Errors
    /// Fails when the polynomial is in NTT form.
    pub fn to_coeffs_u128(&self) -> Result<Vec<u128>, MathError> {
        let mut out = vec![0u128; self.ctx.n()];
        self.icrt_into(&mut out)?;
        Ok(out)
    }

    /// Reconstructs wide coefficients via iCRT into a caller-provided
    /// buffer — the allocation-free variant the kernel layer's `Dcp`
    /// pipeline uses (scratch from a [`KernelArena`]).
    ///
    /// # Errors
    /// Fails when the polynomial is in NTT form.
    ///
    /// # Panics
    /// Panics if `out.len() != n`.
    pub fn icrt_into(&self, out: &mut [u128]) -> Result<(), MathError> {
        if self.form != Form::Coeff {
            return Err(MathError::FormMismatch("iCRT requires coefficient form"));
        }
        self.ctx.icrt_words_into(&self.coeffs, None, out);
        Ok(())
    }

    /// Gadget decomposition straight to the multiplication domain (see
    /// [`RingContext::decompose_ntt_words`], which this wraps): the result
    /// lands flat in `out` as `ℓ × k × n` with no per-digit `RnsPoly`
    /// allocations; all scratch comes from `arena`.
    ///
    /// # Errors
    /// Fails when in NTT form or when the gadget does not cover `Q`.
    pub fn decompose_ntt_into(
        &self,
        gadget: &Gadget,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
        out: &mut Vec<u64>,
    ) -> Result<(), MathError> {
        if self.form != Form::Coeff {
            return Err(MathError::FormMismatch("decomposition requires coefficient form"));
        }
        self.ctx.decompose_ntt_words(&self.coeffs, None, gadget, backend, arena, out)
    }

    /// Gadget decomposition `Dcp` (Fig. 3): iCRT every coefficient, split
    /// into `ell` base-`z` digits, and return `ell` polynomials in
    /// coefficient form.
    ///
    /// # Errors
    /// Fails when in NTT form or when the gadget does not cover `Q`.
    pub fn decompose(&self, gadget: &Gadget) -> Result<Vec<RnsPoly>, MathError> {
        gadget.check_covers(self.ctx.basis().q_big())?;
        let wide = self.to_coeffs_u128()?;
        let n = self.ctx.n();
        let basis = self.ctx.basis();
        let mut out: Vec<RnsPoly> =
            (0..gadget.ell()).map(|_| RnsPoly::zero(&self.ctx, Form::Coeff)).collect();
        for (i, &c) in wide.iter().enumerate() {
            for (j, digit_poly) in out.iter_mut().enumerate() {
                let d = gadget.digit(c, j);
                for (m, modulus) in basis.moduli().iter().enumerate() {
                    digit_poly.coeffs[m * n + i] =
                        if d < modulus.value() { d } else { d % modulus.value() };
                }
            }
        }
        Ok(out)
    }

    /// Infinity norm of the centered wide coefficients (coefficient form).
    ///
    /// # Errors
    /// Fails when the polynomial is in NTT form.
    pub fn inf_norm(&self) -> Result<u128, MathError> {
        let wide = self.to_coeffs_u128()?;
        let q = self.ctx.basis().q_big();
        Ok(wide.iter().map(|&c| c.min(q - c)).max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> Arc<RingContext> {
        RingContext::test_ring(64, 3)
    }

    #[test]
    fn crt_icrt_roundtrip() {
        let basis = RnsBasis::paper_basis();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let x = rng.gen::<u128>() % basis.q_big();
            let rs = basis.to_residues(x);
            assert_eq!(basis.from_residues(&rs), x);
        }
        assert_eq!(basis.from_residues(&basis.to_residues(0)), 0);
        assert_eq!(basis.from_residues(&basis.to_residues(basis.q_big() - 1)), basis.q_big() - 1);
    }

    #[test]
    fn icrt_exact_at_extreme_residues() {
        // All-(q_i − 1) residues are −1 in every field, i.e. Q − 1: the
        // input that maximizes every `[r·q̂⁻¹]·q̂` term and the running
        // sum, with no wide remainder to hide an overshoot.
        for basis in [RnsBasis::paper_basis(), RingContext::test_ring(8, 3).basis().clone()] {
            let top: Vec<u64> = basis.moduli().iter().map(|m| m.value() - 1).collect();
            assert_eq!(basis.from_residues(&top), basis.q_big() - 1);
            for (i, m) in basis.moduli().iter().enumerate() {
                // One maximal residue, the rest zero: a single term.
                let mut one = vec![0u64; basis.len()];
                one[i] = m.value() - 1;
                let x = basis.from_residues(&one);
                assert!(x < basis.q_big());
                assert_eq!(basis.to_residues(x), one);
            }
        }
    }

    #[test]
    fn signed_residues_center_correctly() {
        let basis = RnsBasis::paper_basis();
        let rs = basis.signed_to_residues(-5);
        let x = basis.from_residues(&rs);
        assert_eq!(basis.center(x), -5);
    }

    #[test]
    fn duplicate_moduli_rejected() {
        let m = Modulus::special_primes()[0];
        assert!(RnsBasis::new(vec![m, m]).is_err());
    }

    #[test]
    fn poly_add_sub_neg() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let mut s = a.clone();
        s.add_assign(&b).unwrap();
        s.sub_assign(&b).unwrap();
        assert_eq!(s, a);
        let mut n = a.clone();
        n.neg_assign();
        n.add_assign(&a).unwrap();
        assert_eq!(n, RnsPoly::zero(&ctx, Form::Coeff));
    }

    #[test]
    fn ntt_pointwise_matches_wide_schoolbook() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        // Fast path.
        let mut fa = a.clone();
        let mut fb = b.clone();
        fa.to_ntt();
        fb.to_ntt();
        fa.mul_assign_pointwise(&fb).unwrap();
        fa.to_coeff();
        // Oracle per residue.
        for (m, modulus) in ctx.basis().moduli().iter().enumerate() {
            let expect =
                poly::negacyclic_mul_schoolbook(a.residue(m), b.residue(m), modulus.value());
            assert_eq!(fa.residue(m), &expect[..], "residue {m}");
        }
    }

    #[test]
    fn form_mismatch_rejected() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let mut b = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        b.to_ntt();
        let mut c = a.clone();
        assert!(c.add_assign(&b).is_err());
        assert!(c.clone().mul_assign_pointwise(&a).is_err());
        assert!(b.automorphism(3).is_err());
    }

    #[test]
    fn decompose_recomposes_via_gadget_powers() {
        let ctx = ctx();
        let gadget = Gadget::for_modulus(ctx.basis().q_big(), 14);
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let digits = a.decompose(&gadget).unwrap();
        assert_eq!(digits.len(), gadget.ell());
        // Σ_j digit_j · z^j == a  (mod Q), coefficient-wise.
        let mut acc = RnsPoly::zero(&ctx, Form::Coeff);
        for (j, d) in digits.iter().enumerate() {
            let mut term = d.clone();
            term.mul_scalar_u128(1u128 << (14 * j));
            acc.add_assign(&term).unwrap();
        }
        assert_eq!(acc, a);
    }

    #[test]
    fn scalar_mul_matches_wide() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        let c: u128 = 0xDEAD_BEEF_1234;
        let mut fast = a.clone();
        fast.mul_scalar_u128(c);
        let wide = a.to_coeffs_u128().unwrap();
        let q = ctx.basis().q_big();
        let expect: Vec<u128> = wide
            .iter()
            .map(|&x| {
                let (hi, lo) = crate::wide::mul_u128(x, c);
                crate::wide::div_rem_wide(hi, lo, q).1
            })
            .collect();
        assert_eq!(fast.to_coeffs_u128().unwrap(), expect);
    }

    #[test]
    fn fma_pointwise_accumulates() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut a = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let acc0 = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let mut acc = acc0.clone();
        acc.fma_pointwise(&a, &b).unwrap();
        a.mul_assign_pointwise(&b).unwrap();
        let mut expect = acc0;
        expect.add_assign(&a).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn from_words_roundtrips_raw_storage() {
        let ctx = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let a = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let rebuilt = RnsPoly::from_words(&ctx, Form::Ntt, a.as_words().to_vec()).unwrap();
        assert_eq!(rebuilt, a);
        assert!(RnsPoly::from_words(&ctx, Form::Ntt, vec![0; 5]).is_err());
    }

    #[test]
    fn decompose_ntt_into_matches_decompose_then_ntt() {
        let ctx = ctx();
        let gadget = Gadget::for_modulus(ctx.basis().q_big(), 14);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let a = RnsPoly::sample_uniform(&ctx, Form::Coeff, &mut rng);
        // Reference: per-digit polynomials, then NTT.
        let mut reference = a.decompose(&gadget).unwrap();
        for d in reference.iter_mut() {
            d.to_ntt();
        }
        // Flat kernel path.
        let mut arena = KernelArena::new();
        let mut flat = Vec::new();
        a.decompose_ntt_into(&gadget, kernel::default_backend(), &mut arena, &mut flat).unwrap();
        let k = ctx.basis().len();
        let n = ctx.n();
        assert_eq!(flat.len(), gadget.ell() * k * n);
        for (j, d) in reference.iter().enumerate() {
            assert_eq!(&flat[j * k * n..(j + 1) * k * n], d.as_words(), "digit {j}");
        }
        // NTT-form input must be rejected.
        let mut ntt = a.clone();
        ntt.to_ntt();
        assert!(ntt
            .decompose_ntt_into(&gadget, kernel::default_backend(), &mut arena, &mut flat)
            .is_err());
    }

    #[test]
    fn icrt_strided_matches_contiguous() {
        let basis = RnsBasis::paper_basis();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let n = 4;
        let values: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() % basis.q_big()).collect();
        // Build the flat residue-major matrix by hand.
        let mut words = vec![0u64; basis.len() * n];
        for (i, &v) in values.iter().enumerate() {
            for (m, r) in basis.to_residues(v).into_iter().enumerate() {
                words[m * n + i] = r;
            }
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(basis.from_residues_strided(&words, n, i), v);
        }
    }

    #[test]
    fn poly_bytes_matches_paper() {
        // 56KB per R_Q polynomial when N = 2^12 with 4 residues (§II-B).
        let ring = RingContext::paper_ring();
        assert_eq!(ring.poly_bytes(), 56 * 1024);
    }
}
