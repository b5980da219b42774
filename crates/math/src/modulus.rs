//! A prepared word-sized modulus and the paper's special primes.

use crate::prime;
use crate::reduce::{self, Barrett};
use crate::MathError;

/// The `k` exponents of the paper's four special primes
/// `q = 2^27 + 2^k + 1` (§IV-G).
pub(crate) const SPECIAL_PRIME_KS: [u32; 4] = [15, 17, 21, 22];

/// A prime modulus prepared for Barrett reduction.
///
/// The paper's special primes `2^27 + 2^k + 1` take the same path: their
/// shift/add multiplier (§IV-G) saves area, not results, and is modelled
/// in `ive_accel::cost` (the special-prime ablation of Fig. 13e).
#[derive(Debug, Clone, Copy)]
pub struct Modulus {
    q: u64,
    barrett: Barrett,
}

impl PartialEq for Modulus {
    fn eq(&self, other: &Self) -> bool {
        self.q == other.q
    }
}
impl Eq for Modulus {}

impl core::fmt::Display for Modulus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.q)
    }
}

impl Modulus {
    /// Prepares a modulus. `q` must be an odd prime `< 2^62`.
    ///
    /// # Panics
    /// Panics if `q` is not prime (this type is only used for NTT fields).
    pub fn new(q: u64) -> Self {
        assert!(prime::is_prime(q), "modulus {q} must be prime");
        Modulus { q, barrett: Barrett::new(q) }
    }

    /// The four special primes of Table I, in ascending order.
    pub fn special_primes() -> [Modulus; 4] {
        SPECIAL_PRIME_KS.map(|k| Modulus::new((1 << 27) + (1 << k) + 1))
    }

    /// The raw modulus value.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of significant bits of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// How many unreduced products `a·b` (`a, b < q`) a `u64` accumulator
    /// can absorb on top of a canonical value before it must be folded:
    /// the largest `T` with `(q−1) + T·(q−1)² ≤ 2^64 − 1`, i.e.
    /// `⌊(2^64 − q)/(q−1)²⌋` — 962 to 1023 for the four 28-bit Table I
    /// primes, 64 at the 29-bit limb cap (see
    /// [`crate::kernel::VpeBackend::mac2_lazy`]). Moduli of `2^32` and
    /// above have no such headroom, and this returns 1.
    #[inline]
    pub fn lazy_terms(&self) -> usize {
        if self.bits() > 32 {
            return 1;
        }
        let top = u128::from(self.q - 1);
        let terms = u128::from(u64::MAX - (self.q - 1)) / (top * top);
        usize::try_from(terms).unwrap_or(usize::MAX)
    }

    /// `a + b (mod q)`.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        reduce::add_mod(a, b, self.q)
    }

    /// `a - b (mod q)`.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        reduce::sub_mod(a, b, self.q)
    }

    /// `-a (mod q)`.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        reduce::neg_mod(a, self.q)
    }

    /// `a * b (mod q)` through the Barrett path.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.barrett.mul(a, b)
    }

    /// Reduces an arbitrary 128-bit value.
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        self.barrett.reduce(x)
    }

    /// Reduces a signed 128-bit value into `[0, q)`.
    #[inline]
    pub fn reduce_i128(&self, x: i128) -> u64 {
        let m = self.q as i128;
        let r = x % m;
        (if r < 0 { r + m } else { r }) as u64
    }

    /// `base^exp (mod q)`.
    #[inline]
    pub(crate) fn pow(&self, base: u64, exp: u64) -> u64 {
        reduce::pow_mod(base, exp, self.q)
    }

    /// Inverse of `a` modulo the prime `q`.
    #[inline]
    pub(crate) fn inv(&self, a: u64) -> u64 {
        reduce::inv_mod_prime(a, self.q)
    }

    /// Finds an element of exact multiplicative order `order`
    /// (which must divide `q - 1`).
    pub(crate) fn element_of_order(&self, order: u64) -> Result<u64, MathError> {
        if order == 0 || !(self.q - 1).is_multiple_of(order) {
            return Err(MathError::NotNttFriendly { q: self.q, n: order as usize / 2 });
        }
        let cofactor = (self.q - 1) / order;
        for g in 2..self.q {
            let cand = self.pow(g, cofactor);
            // `cand` has order dividing `order`; it is exact iff
            // cand^(order/p) != 1 for each prime p | order. For power-of-two
            // orders (our only use) checking the square suffices.
            if order.is_power_of_two() {
                if order == 1 || self.pow(cand, order / 2) == self.q - 1 {
                    return Ok(cand);
                }
            } else if (1..order)
                .all(|d| !order.is_multiple_of(d) || d == 1 || self.pow(cand, d) != 1)
            {
                return Ok(cand);
            }
        }
        Err(MathError::NotNttFriendly { q: self.q, n: order as usize / 2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_terms_is_the_tight_overflow_bound() {
        let mut moduli = Modulus::special_primes().to_vec();
        for bits in [29u32, 30, 32] {
            moduli.push(Modulus::new(prime::find_ntt_prime_below(bits, 1024).expect("exists")));
        }
        for m in moduli {
            let (t, top) = (m.lazy_terms() as u128, u128::from(m.value() - 1));
            assert!(top + t * top * top <= u128::from(u64::MAX), "q={m}: {t} terms wrap");
            assert!(top + (t + 1) * top * top > u128::from(u64::MAX), "q={m}: bound is loose");
        }
        assert_eq!(Modulus::special_primes().map(|m| m.lazy_terms()), [1023, 1022, 992, 962]);
        let cap = Modulus::new(prime::find_ntt_prime_below(29, 1024).expect("exists"));
        assert_eq!(cap.lazy_terms(), 64);
        // No u64 headroom above 32 bits.
        for bits in [33u32, 40, 50] {
            let wide = Modulus::new(prime::find_ntt_prime_below(bits, 1024).expect("exists"));
            assert_eq!(wide.lazy_terms(), 1);
        }
    }

    #[test]
    fn special_primes_are_special() {
        let primes = Modulus::special_primes();
        assert_eq!(primes.len(), 4);
        for (m, k) in primes.iter().zip(SPECIAL_PRIME_KS) {
            assert_eq!(m.value(), (1 << 27) + (1 << k) + 1);
            assert_eq!(m.bits(), 28);
            // 2N | q - 1 for N = 2^12 (Table I degree).
            assert_eq!((m.value() - 1) % (2 * 4096), 0);
        }
        // Product fits the paper's Q < 2^112 budget.
        let q_big: u128 = primes.iter().map(|m| m.value() as u128).product();
        assert!(q_big < (1u128 << 112));
        assert_eq!(128 - q_big.leading_zeros(), 109);
    }

    #[test]
    fn element_of_order_roots() {
        let m = Modulus::special_primes()[0];
        let psi = m.element_of_order(8192).unwrap();
        assert_eq!(m.pow(psi, 4096), m.value() - 1); // psi^N = -1
        assert_eq!(m.pow(psi, 8192), 1);
    }

    #[test]
    fn reduce_i128_sign_handling() {
        let m = Modulus::special_primes()[1];
        assert_eq!(m.reduce_i128(-1), m.value() - 1);
        assert_eq!(m.reduce_i128(-(m.value() as i128)), 0);
        assert_eq!(m.reduce_i128(m.value() as i128 + 5), 5);
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_modulus_rejected() {
        let _ = Modulus::new(1 << 20);
    }
}
