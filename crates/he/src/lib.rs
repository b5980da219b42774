//! Homomorphic-encryption substrate for the IVE reproduction.
//!
//! Implements exactly the HE toolbox the paper's PIR pipeline consumes
//! (§II):
//!
//! * [`params`] — parameter sets tying a ring, plaintext modulus `P`,
//!   gadget base `z`/length `ℓ`, and noise distribution together
//!   (Table I defaults).
//! * [`keys`] — ternary secret keys.
//! * [`bfv`] — BFV ciphertexts with the linear operations of §II-D
//!   (`p·ct + ct'`), encoding with `Δ = ⌊Q/P⌋`, and the `2^{-d}` query
//!   pre-scaling that makes `ExpandQuery` exact for the even `P = 2^32`.
//! * [`lift`] — the §II-B preprocessing lift (payload bytes → CRT → NTT)
//!   that every producer of database words shares, in place and in the
//!   word the result is stored in.
//! * [`rgsw`] — RGSW ciphertexts and the external product `⊡` with its
//!   `Dcp` pipeline (iNTT → iCRT → bit-extraction → NTT → gadget GEMM,
//!   Fig. 3).
//! * [`subs`] — the substitution operation `Subs(ct, r)` built from a
//!   coefficient automorphism and gadget key-switching (§II-D).
//! * [`modswitch`] — modulus switching for 4× response compression.
//! * [`noise`] — exact noise measurement against a known secret key, used
//!   to validate the additive-error claims of §II-C.

#![forbid(unsafe_code)]

pub mod bfv;
pub mod keys;
pub mod lift;
pub mod modswitch;
pub mod noise;
pub mod params;
pub mod rgsw;
pub mod subs;

#[cfg(test)]
mod oracle;

pub use bfv::{BfvCiphertext, Plaintext};
pub use keys::SecretKey;
pub use params::HeParams;
pub use rgsw::RgswCiphertext;
pub use subs::SubsKey;

/// Errors produced by the HE layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum HeError {
    /// Underlying arithmetic error (ring/form mismatch and friends).
    Math(ive_math::MathError),
    /// Plaintext data does not fit the ring degree or plaintext modulus.
    InvalidPlaintext(String),
    /// A required evaluation key is missing.
    MissingKey(String),
    /// Parameters are inconsistent (e.g. gadget does not cover `Q`).
    InvalidParams(String),
}

impl From<ive_math::MathError> for HeError {
    fn from(e: ive_math::MathError) -> Self {
        HeError::Math(e)
    }
}

impl core::fmt::Display for HeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HeError::Math(e) => write!(f, "math error: {e}"),
            HeError::InvalidPlaintext(msg) => write!(f, "invalid plaintext: {msg}"),
            HeError::MissingKey(msg) => write!(f, "missing evaluation key: {msg}"),
            HeError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
        }
    }
}

impl std::error::Error for HeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeError::Math(e) => Some(e),
            _ => None,
        }
    }
}
