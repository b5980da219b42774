//! HE parameter sets (Table I).

use std::sync::Arc;

use ive_math::gadget::Gadget;
use ive_math::reduce::inv_mod_u128;
use ive_math::rns::RingContext;

use crate::HeError;

/// A complete BFV/RGSW parameter set over a shared ring context.
///
/// The paper's defaults (Table I): `N = 2^12`, four special 28-bit primes
/// (`Q` = 109 bits), `P = 2^32`, gadget base `z = 2^14..2^22` with
/// `ℓ = 5..8`, and narrow centered-binomial noise. A parameter set holds
/// two gadgets, one per role: the evaluation keys' (`Subs`, and so
/// `ExpandQuery`) and the RGSW selection bits' (ColTor's CMux tree and
/// KsPIR's chunk bits). Each reader names the one it decomposes under.
#[derive(Debug, Clone)]
pub struct HeParams {
    ring: Arc<RingContext>,
    p_bits: u32,
    evk_gadget: Gadget,
    rgsw_gadget: Gadget,
    eta: u32,
    delta: u128,
}

impl HeParams {
    /// Builds a parameter set.
    ///
    /// # Errors
    /// Fails when `p_bits` is out of `(0, 32]`, `P >= Q`, or either
    /// gadget does not cover `Q`.
    pub fn new(
        ring: Arc<RingContext>,
        p_bits: u32,
        evk_gadget: Gadget,
        rgsw_gadget: Gadget,
        eta: u32,
    ) -> Result<Self, HeError> {
        if p_bits == 0 || p_bits > 32 {
            return Err(HeError::InvalidParams(format!(
                "plaintext modulus 2^{p_bits} unsupported (need 1..=32 bits)"
            )));
        }
        let q_big = ring.basis().q_big();
        if (1u128 << p_bits) >= q_big {
            return Err(HeError::InvalidParams("plaintext modulus exceeds Q".into()));
        }
        evk_gadget.check_covers(q_big)?;
        rgsw_gadget.check_covers(q_big)?;
        let delta = q_big >> p_bits; // floor(Q / 2^p_bits)
        Ok(HeParams { ring, p_bits, evk_gadget, rgsw_gadget, eta, delta })
    }

    /// The paper's Table I parameter set: `N = 2^12`, `P = 2^32`, the
    /// evaluation keys at `z = 2^14, ℓ = 8` and the RGSW bits at the
    /// other end of Table I's range, `z = 2^22, ℓ = 5` — the RGSW size
    /// §II quotes (1120 KB), and what the accelerator model assumes. The
    /// keys stay at `ℓ = 8`: at `ℓ = 5` every `ExpandQuery` level adds
    /// its key-switch noise at `z = 2^22`, ≈ 7.5 bits of budget. RGSW
    /// bits at `ℓ = 5` cost none measurable, because the RowSel term
    /// dominates the answer's noise: 6.65 bits are left either way on a
    /// full random database (`tests/paper_scale.rs`).
    pub fn paper() -> Self {
        let ring = RingContext::paper_ring();
        let q = ring.basis().q_big();
        let (evk, rgsw) = (Gadget::for_modulus(q, 14), Gadget::for_modulus(q, 22));
        HeParams::new(ring, 32, evk, rgsw, 4).expect("paper parameters are valid")
    }

    /// Small parameters for fast tests: `N = 256`, three special primes
    /// (`Q` = 82 bits), `P = 2^16`, `z = 2^14` for both gadgets.
    pub fn toy() -> Self {
        let ring = RingContext::test_ring(256, 3);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
        HeParams::new(ring, 16, gadget, gadget, 4).expect("toy parameters are valid")
    }

    /// The ring context.
    #[inline]
    pub fn ring(&self) -> &Arc<RingContext> {
        &self.ring
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// Plaintext modulus `P = 2^p_bits`.
    #[inline]
    pub fn p(&self) -> u64 {
        if self.p_bits == 64 {
            0
        } else {
            1u64 << self.p_bits
        }
    }

    /// `log2(P)`.
    #[inline]
    pub fn p_bits(&self) -> u32 {
        self.p_bits
    }

    /// The ciphertext modulus `Q`.
    #[inline]
    pub fn q_big(&self) -> u128 {
        self.ring.basis().q_big()
    }

    /// The encoding scale `Δ = ⌊Q/P⌋`.
    #[inline]
    pub fn delta(&self) -> u128 {
        self.delta
    }

    /// The gadget (`z`, `ℓ`) of the evaluation keys: `Subs` and the
    /// `ExpandQuery` keys decompose under it.
    #[inline]
    pub fn evk_gadget(&self) -> &Gadget {
        &self.evk_gadget
    }

    /// The gadget (`z`, `ℓ`) of the RGSW ciphertexts: ColTor's selection
    /// bits and KsPIR's chunk bits, and the `Dcp` of every external
    /// product.
    #[inline]
    pub fn rgsw_gadget(&self) -> &Gadget {
        &self.rgsw_gadget
    }

    /// Centered-binomial noise parameter.
    #[inline]
    pub(crate) fn eta(&self) -> u32 {
        self.eta
    }

    /// `2^{-depth} mod Q` — the client-side pre-scaling that cancels the
    /// `×2` growth per `ExpandQuery` level (§II-A works over `R_Q`, where
    /// 2 is invertible even though `P` is a power of two).
    pub fn inv_two_pow(&self, depth: u32) -> u128 {
        let q = self.q_big();
        let inv2 = inv_mod_u128(2, q).expect("Q is odd");
        let mut acc: u128 = 1;
        for _ in 0..depth {
            // acc * inv2 mod q via the wide helpers (q can exceed 64 bits).
            let (hi, lo) = ive_math::wide::mul_u128(acc, inv2);
            acc = ive_math::wide::div_rem_wide(hi, lo, q).1;
        }
        acc
    }

    /// Bytes of one BFV ciphertext in the packed hardware layout
    /// (2 polynomials; 112KB for the paper ring, §II-B).
    pub fn ct_bytes(&self) -> usize {
        2 * self.ring.poly_bytes()
    }

    /// Bytes of one RGSW ciphertext (`2 × 2ℓ` polynomials at the RGSW
    /// gadget's `ℓ`; 1120 KB at [`HeParams::paper`]'s `ℓ = 5`, §II-C).
    pub fn rgsw_bytes(&self) -> usize {
        2 * 2 * self.rgsw_gadget.ell() * self.ring.poly_bytes()
    }

    /// Bytes of one `evk_r` (`2 × ℓ` polynomials at the evaluation-key
    /// gadget's `ℓ`; 896 KB at [`HeParams::paper`]'s `ℓ = 8`, where §II-D
    /// quotes 560 KB at `ℓ = 5`).
    pub fn evk_bytes(&self) -> usize {
        2 * self.evk_gadget.ell() * self.ring.poly_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_section_2() {
        // The Table I preset: ct 112KB and RGSW 1120KB (z = 2^22, ℓ = 5)
        // as §II quotes them; evk 896KB at its ℓ = 8 (z = 2^14).
        let p = HeParams::paper();
        assert_eq!((p.rgsw_gadget().base_bits(), p.rgsw_gadget().ell()), (22, 5));
        assert_eq!((p.evk_gadget().base_bits(), p.evk_gadget().ell()), (14, 8));
        assert_eq!(p.ct_bytes(), 112 * 1024);
        assert_eq!(p.rgsw_bytes(), 1120 * 1024);
        assert_eq!(p.evk_bytes(), 896 * 1024);
        // §II-D's 560KB evk is the same key at ℓ = 5.
        let g22 = *p.rgsw_gadget();
        let at_five = HeParams::new(Arc::clone(p.ring()), 32, g22, g22, 4).unwrap();
        assert_eq!(at_five.evk_bytes(), 560 * 1024);
    }

    #[test]
    fn every_preset_gadget_takes_the_chunked_dcp() {
        // A serving gadget must never fall to the `u128` route of `Dcp`.
        use ive_math::kernel::DcpPlan;
        for p in [HeParams::paper(), HeParams::toy()] {
            for gadget in [p.evk_gadget(), p.rgsw_gadget()] {
                assert!(DcpPlan::new(p.ring(), gadget).is_some(), "{gadget:?}");
            }
        }
    }

    #[test]
    fn delta_times_p_close_to_q() {
        let p = HeParams::toy();
        let q = p.q_big();
        assert!(p.delta() * (p.p() as u128) <= q);
        assert!((p.delta() + 1) * (p.p() as u128) > q);
    }

    #[test]
    fn inv_two_pow_inverts() {
        let p = HeParams::toy();
        let q = p.q_big();
        for d in [0u32, 1, 5, 8] {
            let inv = p.inv_two_pow(d);
            let (hi, lo) = ive_math::wide::mul_u128(inv, 1u128 << d);
            let r = ive_math::wide::div_rem_wide(hi, lo, q).1;
            assert_eq!(r, 1, "depth {d}");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let ring = RingContext::test_ring(64, 2);
        let g = Gadget::for_modulus(ring.basis().q_big(), 14);
        assert!(HeParams::new(Arc::clone(&ring), 0, g, g, 4).is_err());
        assert!(HeParams::new(Arc::clone(&ring), 33, g, g, 4).is_err());
        let tiny = Gadget::new(2, 2);
        assert!(HeParams::new(Arc::clone(&ring), 16, tiny, g, 4).is_err());
        assert!(HeParams::new(ring, 16, g, tiny, 4).is_err());
    }
}
