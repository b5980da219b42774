//! Secret keys.

use rand::Rng;

use ive_math::rns::RnsPoly;

use crate::params::HeParams;

/// A ternary RLWE secret key, kept in both coefficient form (for
/// automorphisms during `Subs` key generation) and NTT form (for the hot
/// encryption/decryption path).
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeff: RnsPoly,
    ntt: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh uniform-ternary secret.
    pub fn generate<R: Rng + ?Sized>(params: &HeParams, rng: &mut R) -> Self {
        let coeff = RnsPoly::sample_ternary(params.ring(), rng);
        let mut ntt = coeff.clone();
        ntt.to_ntt();
        SecretKey { coeff, ntt }
    }

    /// The secret in coefficient form.
    #[inline]
    pub fn coeff(&self) -> &RnsPoly {
        &self.coeff
    }

    /// The secret in NTT form.
    #[inline]
    pub fn ntt(&self) -> &RnsPoly {
        &self.ntt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn secret_is_ternary() {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&params, &mut rng);
        let wide = sk.coeff().to_coeffs_u128().unwrap();
        let q = params.q_big();
        for c in wide {
            assert!(c == 0 || c == 1 || c == q - 1);
        }
    }

    #[test]
    fn ntt_and_coeff_agree() {
        let params = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&params, &mut rng);
        let mut back = sk.ntt().clone();
        back.to_coeff();
        assert_eq!(&back, sk.coeff());
    }
}
