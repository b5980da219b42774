//! Modulus switching for response compression.
//!
//! OnionPIR-family schemes shrink the PIR *response* by rescaling the
//! final ciphertext from `R_Q` down to a prefix `Q' = q_0···q_{k'-1}` of
//! the RNS basis before shipping it (the "response efficient" part of
//! OnionPIR's name; the paper's §VII groups it under mitigating
//! "HE-induced data expansion"). Each coefficient is rescaled as
//! `round(Q'/Q · c)`, which preserves the phase up to a rounding error of
//! at most `(1 + ‖s‖_1)/2` — negligible against `Δ' = Q'/P`.
//!
//! The prefix must keep the plaintext decodable: `Q' / P` needs comfortable
//! headroom above the rounding error, so `P = 2^32` needs two 28-bit
//! primes (2× compression: 112KB → 56KB at Table I parameters) while the
//! toy ring's `P = 2^16` fits in one (3× compression).

use ive_math::wide;

use crate::bfv::{BfvCiphertext, Plaintext};
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::HeError;

/// Post-switch scale headroom: `Q'/P` must exceed `2^HEADROOM_BITS` so
/// the switching noise (rounding + scaled-down original error) stays far
/// below half the new scale.
pub(crate) const HEADROOM_BITS: u32 = 18;

/// A ciphertext rescaled to a prefix `Q' = q_0···q_{k'-1}` of the basis,
/// stored residue-major like [`ive_math::rns::RnsPoly`] but over fewer
/// rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchedCiphertext {
    /// Number of retained residues `k'`.
    pub primes: usize,
    /// Mask residues (`k' × N`, coefficient order).
    pub a: Vec<u64>,
    /// Body residues (`k' × N`, coefficient order).
    pub b: Vec<u64>,
}

impl SwitchedCiphertext {
    /// Serialized size (two `k' × N` matrices packed at the prime width).
    pub fn byte_len(&self, params: &HeParams) -> usize {
        let bits: usize =
            params.ring().basis().moduli()[..self.primes].iter().map(|m| m.bits() as usize).sum();
        (2 * params.n() * bits).div_ceil(8)
    }
}

/// The smallest residue-prefix length whose product gives the plaintext
/// at least [`HEADROOM_BITS`] bits of post-switch scale.
pub(crate) fn min_switch_primes(params: &HeParams) -> usize {
    let moduli = params.ring().basis().moduli();
    let mut q_prime: u128 = 1;
    for (count, m) in moduli.iter().enumerate() {
        q_prime *= m.value() as u128;
        if q_prime >> params.p_bits() >= (1u128 << HEADROOM_BITS) {
            return count + 1;
        }
    }
    moduli.len()
}

fn q_prefix(params: &HeParams, primes: usize) -> u128 {
    params.ring().basis().moduli()[..primes].iter().map(|m| m.value() as u128).product()
}

/// Rescales `ct` from `Q` to the minimal safe prefix `Q'`:
/// `c ↦ round(Q'·c/Q)` per coefficient of both polynomials.
///
/// # Errors
/// Propagates form conversions (none expected for well-formed inputs).
pub fn switch_to_first_prime(
    params: &HeParams,
    ct: &BfvCiphertext,
) -> Result<SwitchedCiphertext, HeError> {
    switch_to_primes(params, ct, min_switch_primes(params))
}

/// Rescales `ct` to an explicit prefix length.
///
/// # Errors
/// Fails when `primes` is zero or exceeds the basis.
pub fn switch_to_primes(
    params: &HeParams,
    ct: &BfvCiphertext,
    primes: usize,
) -> Result<SwitchedCiphertext, HeError> {
    let k = params.ring().basis().len();
    if primes == 0 || primes > k {
        return Err(HeError::InvalidParams(format!("cannot switch to {primes} of {k} primes")));
    }
    let q_big = params.q_big();
    let q_prime = q_prefix(params, primes);
    let moduli = &params.ring().basis().moduli()[..primes];
    let n = params.n();
    let rescale = |poly: &ive_math::rns::RnsPoly| -> Result<Vec<u64>, HeError> {
        let mut p = poly.clone();
        p.to_coeff();
        let wide_coeffs = p.to_coeffs_u128()?;
        let mut out = vec![0u64; primes * n];
        for (i, &c) in wide_coeffs.iter().enumerate() {
            let scaled = wide::mul_div_round(c, q_prime, q_big) % q_prime;
            for (row, m) in moduli.iter().enumerate() {
                out[row * n + i] = m.reduce_u128(scaled);
            }
        }
        Ok(out)
    };
    Ok(SwitchedCiphertext { primes, a: rescale(&ct.a)?, b: rescale(&ct.b)? })
}

/// Decrypts a switched ciphertext:
/// `m = round(P·(b − a·s mod Q')/Q') mod P`.
pub fn decrypt_switched(params: &HeParams, sk: &SecretKey, ct: &SwitchedCiphertext) -> Plaintext {
    let primes = ct.primes;
    let n = params.n();
    let basis = params.ring().basis();
    let q_prime = q_prefix(params, primes);
    // phase = b − a·s per retained residue, via that residue's NTT.
    let mut phase_rows = vec![0u64; primes * n];
    for row in 0..primes {
        let modulus = basis.moduli()[row];
        let table = params.ring().ntt(row);
        let mut a = ct.a[row * n..(row + 1) * n].to_vec();
        table.forward(&mut a);
        let mut s = sk.coeff().residue(row).to_vec();
        table.forward(&mut s);
        for (x, &sv) in a.iter_mut().zip(&s) {
            *x = modulus.mul(*x, sv);
        }
        table.inverse(&mut a);
        for i in 0..n {
            phase_rows[row * n + i] =
                ive_math::reduce::sub_mod(ct.b[row * n + i], a[i], modulus.value());
        }
    }
    // iCRT over the prefix basis, then round to the plaintext.
    let prefix =
        ive_math::rns::RnsBasis::new(basis.moduli()[..primes].to_vec()).expect("valid prefix");
    let p = params.p() as u128;
    let mut residues = vec![0u64; primes];
    let values: Vec<u64> = (0..n)
        .map(|i| {
            for row in 0..primes {
                residues[row] = phase_rows[row * n + i];
            }
            let phase = prefix.from_residues(&residues);
            (wide::mul_div_round(phase, p, q_prime) % p) as u64
        })
        .collect();
    Plaintext::new(params, values).expect("rounded into [0, P)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn setup() -> (HeParams, SecretKey, rand::rngs::StdRng) {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    #[test]
    fn switch_then_decrypt_roundtrip() {
        let (params, sk, mut rng) = setup();
        for _ in 0..5 {
            let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
            let m = Plaintext::new(&params, vals).unwrap();
            let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
            let switched = switch_to_first_prime(&params, &ct).unwrap();
            assert_eq!(decrypt_switched(&params, &sk, &switched), m);
        }
    }

    #[test]
    fn prefix_sizing_respects_plaintext_width() {
        // Toy ring: q0/P = 2^11 falls short of the 2^18 headroom, so two
        // of the three primes are kept.
        let toy = HeParams::toy();
        assert_eq!(min_switch_primes(&toy), 2);
        // Paper ring: P = 2^32 needs two of the four 28-bit primes.
        let paper = HeParams::paper();
        assert_eq!(min_switch_primes(&paper), 2);
    }

    #[test]
    fn compression_ratio_matches_residue_count() {
        // Toy ring has 3 residues and switches to 2: a 1.5x response.
        let (params, sk, mut rng) = setup();
        let m = Plaintext::zero(&params);
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let switched = switch_to_first_prime(&params, &ct).unwrap();
        assert_eq!(2 * params.ct_bytes(), 3 * switched.byte_len(&params));
    }

    #[test]
    fn survives_homomorphic_work_before_switching() {
        // Switch the output of an external product (a realistic PIR
        // response) and still decrypt correctly.
        let (params, sk, mut rng) = setup();
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        let m = Plaintext::new(&params, vals).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let one = crate::rgsw::RgswCiphertext::encrypt_bit(&params, &sk, true, &mut rng);
        let out = one.external_product(&params, &ct).unwrap();
        let switched = switch_to_first_prime(&params, &out).unwrap();
        assert_eq!(decrypt_switched(&params, &sk, &switched), m);
    }

    #[test]
    fn paper_ring_compression_is_2x() {
        // P = 2^32 retains two of four primes: 112KB -> 56KB.
        let params = HeParams::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sk = SecretKey::generate(&params, &mut rng);
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        let m = Plaintext::new(&params, vals).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let switched = switch_to_first_prime(&params, &ct).unwrap();
        assert_eq!(params.ct_bytes(), 112 * 1024);
        assert_eq!(switched.byte_len(&params), 56 * 1024);
        assert_eq!(decrypt_switched(&params, &sk, &switched), m);
    }

    #[test]
    fn invalid_prefix_rejected() {
        let (params, sk, mut rng) = setup();
        let ct = BfvCiphertext::encrypt(&params, &sk, &Plaintext::zero(&params), &mut rng);
        assert!(switch_to_primes(&params, &ct, 0).is_err());
        assert!(switch_to_primes(&params, &ct, 99).is_err());
    }

    #[test]
    fn undersized_prefix_loses_the_message() {
        // Deliberately switching the paper ring to ONE prime (Q' < P·2^18)
        // must corrupt decryption — the guard rail the sizing rule exists
        // for.
        let params = HeParams::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let sk = SecretKey::generate(&params, &mut rng);
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        let m = Plaintext::new(&params, vals).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let switched = switch_to_primes(&params, &ct, 1).unwrap();
        assert_ne!(decrypt_switched(&params, &sk, &switched), m);
    }
}
