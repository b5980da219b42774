//! Arithmetic substrate for the IVE reproduction.
//!
//! Everything the HE and PIR layers need, built from scratch:
//!
//! * [`reduce`] — scalar modular arithmetic: Barrett- and Solinas-style
//!   reduction (the paper's §IV-G special primes `q = 2^27 + 2^k + 1`),
//!   Shoup multiplication for fixed operands.
//! * [`modulus`] — a prepared modulus with its reduction strategy and the
//!   four special primes used throughout the paper (Table I).
//! * [`prime`] — deterministic Miller–Rabin and NTT-friendly prime search.
//! * [`ntt`] — negacyclic number-theoretic transform over a prime field.
//! * [`rns`] — the residue number system: CRT/iCRT (Eqs. 2–3), the
//!   [`rns::RnsPoly`] residue-matrix polynomial (the `4 × N` structure of
//!   §II-B), and ring contexts.
//! * [`gadget`] — base-`z` digit decomposition (`Dcp`, Fig. 3).
//! * [`kernel`] — the VPE kernel layer: one [`kernel::VpeBackend`]
//!   executes every hot kernel (pointwise FMA, NTT dispatch, gadget
//!   decompose) over flat limb slices; a scalar reference backend, a
//!   Barrett/Shoup lazy-reduction backend, and a runtime-detected AVX2
//!   backend are bit-identical by construction and by differential
//!   property tests.
//! * [`mask`] — the seeded ChaCha8 mask stream: every fresh uniform `a`
//!   a client draws, regenerable from a 32-byte seed.
//! * [`sample`] — the fresh-sample kernel: mask, noise and body of every
//!   RLWE sample a client encrypts, in one pass per limb.
//! * [`arena`] — reusable scratch buffers ([`arena::KernelArena`]) that
//!   keep the allocator off the per-query hot path.
//! * [`poly`] — schoolbook negacyclic arithmetic used as a test oracle, and
//!   coefficient-domain automorphisms (`X -> X^r`).
//! * [`wide`] — minimal 256-bit helpers for exact BFV decoding.
//!
//! # Example
//!
//! ```
//! use ive_math::modulus::Modulus;
//! use ive_math::ntt::NttTable;
//!
//! # fn main() -> Result<(), ive_math::MathError> {
//! let q = Modulus::special_primes()[0];
//! let table = NttTable::new(&q, 64)?;
//! let mut a = vec![0u64; 64];
//! a[1] = 1; // X
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert_eq!(a[1], 1);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod gadget;
pub mod kernel;
pub mod mask;
pub mod metrics;
pub mod modulus;
pub mod ntt;
pub mod poly;
pub mod prime;
pub mod reduce;
pub mod rns;
pub mod sample;
pub mod wide;

/// Errors produced by the arithmetic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// The ring degree is not a power of two (or is zero / too small).
    InvalidDegree(usize),
    /// The modulus does not support an NTT of the requested size
    /// (`2n` must divide `q - 1`).
    NotNttFriendly { q: u64, n: usize },
    /// The RNS basis is empty, has duplicate moduli, or exceeds the
    /// supported product width.
    InvalidBasis(String),
    /// Two operands live in different rings or representation forms.
    FormMismatch(&'static str),
    /// A gadget/base decomposition cannot cover the requested modulus.
    GadgetTooSmall { base_bits: u32, ell: usize, q_bits: u32 },
}

impl core::fmt::Display for MathError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MathError::InvalidDegree(n) => {
                write!(f, "ring degree {n} is not a supported power of two")
            }
            MathError::NotNttFriendly { q, n } => {
                write!(f, "modulus {q} does not admit a {n}-point negacyclic NTT")
            }
            MathError::InvalidBasis(msg) => write!(f, "invalid RNS basis: {msg}"),
            MathError::FormMismatch(msg) => write!(f, "representation mismatch: {msg}"),
            MathError::GadgetTooSmall { base_bits, ell, q_bits } => write!(
                f,
                "gadget with base 2^{base_bits} and {ell} digits cannot cover a {q_bits}-bit modulus"
            ),
        }
    }
}

impl std::error::Error for MathError {}

/// Returns `log2(n)` for a power of two, or an error otherwise.
pub fn log2_exact(n: usize) -> Result<u32, MathError> {
    if n < 2 || !n.is_power_of_two() {
        return Err(MathError::InvalidDegree(n));
    }
    Ok(n.trailing_zeros())
}

/// Reverses the lowest `bits` bits of `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_exact_accepts_powers_of_two() {
        assert_eq!(log2_exact(2).unwrap(), 1);
        assert_eq!(log2_exact(4096).unwrap(), 12);
    }

    #[test]
    fn log2_exact_rejects_non_powers() {
        assert!(log2_exact(0).is_err());
        assert!(log2_exact(1).is_err());
        assert!(log2_exact(12).is_err());
    }

    #[test]
    fn bit_reverse_small() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 4), 10);
    }

    #[test]
    fn errors_display() {
        let e = MathError::NotNttFriendly { q: 17, n: 32 };
        assert!(e.to_string().contains("17"));
        let e = MathError::InvalidDegree(3);
        assert!(!e.to_string().is_empty());
    }
}
