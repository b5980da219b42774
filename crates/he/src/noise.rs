//! Exact noise measurement against a known secret key.
//!
//! The paper's correctness argument (§II-C) bounds the PIR response error
//! as `Err(ct_resp) ≤ Err(ct⁽⁰⁾) + O(d)·Err(ct_RGSW)` — additive in the
//! tournament depth. These helpers measure the actual noise of any
//! ciphertext so tests and examples can check that invariant numerically.

use ive_math::wide;

use crate::bfv::{BfvCiphertext, Plaintext};
use crate::keys::SecretKey;
use crate::params::HeParams;

/// The exact infinity-norm noise of `ct` with respect to the expected
/// plaintext `m`: `‖φ(ct) − Δ·m‖_∞` with centered representatives.
pub(crate) fn noise_inf_norm(
    params: &HeParams,
    sk: &SecretKey,
    ct: &BfvCiphertext,
    m: &Plaintext,
) -> u128 {
    let q = params.q_big();
    let delta = params.delta();
    let phase = ct.phase(sk);
    phase
        .iter()
        .zip(m.values())
        .map(|(&c, &mv)| {
            let (hi, lo) = wide::mul_u128(delta, mv as u128);
            let expect = wide::div_rem_wide(hi, lo, q).1;
            let diff = if c >= expect { c - expect } else { c + q - expect };
            diff.min(q - diff)
        })
        .max()
        .unwrap_or(0)
}

/// Noise magnitude in bits (`log2` of the infinity norm).
pub(crate) fn noise_bits(
    params: &HeParams,
    sk: &SecretKey,
    ct: &BfvCiphertext,
    m: &Plaintext,
) -> f64 {
    let norm = noise_inf_norm(params, sk, ct, m);
    if norm == 0 {
        0.0
    } else {
        (norm as f64).log2()
    }
}

/// Remaining noise budget in bits: decryption succeeds while the noise
/// stays below `Δ/2`, so the budget is `log2(Δ/2) − log2(noise)`.
pub fn noise_budget_bits(
    params: &HeParams,
    sk: &SecretKey,
    ct: &BfvCiphertext,
    m: &Plaintext,
) -> f64 {
    let half_delta_bits = ((params.delta() / 2) as f64).log2();
    half_delta_bits - noise_bits(params, sk, ct, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fresh_ciphertext_noise_is_small() {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sk = SecretKey::generate(&params, &mut rng);
        let vals: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        let m = Plaintext::new(&params, vals).unwrap();
        let ct = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        // CBD(eta=4) noise is at most eta + encoding round-off of P/2-ish.
        let norm = noise_inf_norm(&params, &sk, &ct, &m);
        assert!(norm > 0);
        assert!(norm < 1 << 20, "norm {norm}");
        assert!(noise_budget_bits(&params, &sk, &ct, &m) > 30.0);
    }

    #[test]
    fn zero_ciphertext_of_zero_has_zero_noise() {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&params, &mut rng);
        let ct = BfvCiphertext::zero(&params);
        let m = Plaintext::zero(&params);
        assert_eq!(noise_inf_norm(&params, &sk, &ct, &m), 0);
        assert_eq!(noise_bits(&params, &sk, &ct, &m), 0.0);
    }

    #[test]
    fn addition_grows_noise_subadditively() {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = SecretKey::generate(&params, &mut rng);
        let m = Plaintext::zero(&params);
        let ct1 = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let ct2 = BfvCiphertext::encrypt(&params, &sk, &m, &mut rng);
        let n1 = noise_inf_norm(&params, &sk, &ct1, &m);
        let n2 = noise_inf_norm(&params, &sk, &ct2, &m);
        let mut sum = ct1.clone();
        sum.add_assign(&ct2).unwrap();
        let ns = noise_inf_norm(&params, &sk, &sum, &m);
        assert!(ns <= n1 + n2);
    }
}
