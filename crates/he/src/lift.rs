//! The §II-B lift: a record's payload bytes → its `k·n` NTT-form limb
//! words, computed in the buffer the words will live in.
//!
//! Preprocessing reinterprets a record as `N` coefficients of `log P` bits
//! (Fig. 1-③), takes each coefficient modulo every limb of `Q` (CRT) and
//! transforms every limb row (NTT), once, offline, so that `RowSel` is a
//! pointwise multiply-accumulate. Every producer of such words — the
//! database load, an online update, a keyword chunk, a plaintext operand —
//! runs the three steps below, and none of them builds anything but the
//! words it was asked for:
//!
//! 1. [`coeffs_from_bytes`]: `log P / 8` payload bytes at a time, little
//!    endian, into the *first limb row* of the destination (a coefficient
//!    is below `P ≤ 2^32`, so it fits the narrowest stored word unreduced).
//! 2. [`lift_coeffs`], CRT: limb rows `1..k` are the first row reduced
//!    below their own `q` by a word Barrett (32×32→64 products only), then
//!    the first row is reduced in place.
//! 3. [`lift_coeffs`], NTT: each limb row is transformed where it stands,
//!    while it is still in L1 — [`VpeBackend::ntt_forward_narrow`] on
//!    4-byte words; a `u64` row goes through the same kernel by way of the
//!    backend's `u64` pair, which narrows it into a thread-local row.
//!
//! The result is the canonical residues of an exact transform, so it does
//! not depend on the backend or on the word it is stored in.

use ive_math::kernel::VpeBackend;
use ive_math::modulus::Modulus;
use ive_math::ntt::NttTable;

use crate::params::HeParams;
use crate::HeError;

/// A word a lifted limb row is stored in: `u32` — the preprocessed
/// database's — or `u64`, an [`RnsPoly`](ive_math::rns::RnsPoly)'s. Every
/// limb of a ring is below `2^29`, so either holds a residue.
pub trait LimbWord: Copy + From<u32> + Into<u64> {
    /// In-place forward NTT of one canonical limb row.
    fn ntt_forward(backend: &dyn VpeBackend, table: &NttTable, row: &mut [Self]);
}

impl LimbWord for u32 {
    fn ntt_forward(backend: &dyn VpeBackend, table: &NttTable, row: &mut [Self]) {
        backend.ntt_forward_narrow(table, row)
    }
}

impl LimbWord for u64 {
    fn ntt_forward(backend: &dyn VpeBackend, table: &NttTable, row: &mut [Self]) {
        backend.ntt_forward(table, row)
    }
}

/// Payload bytes per plaintext coefficient, `log P / 8`.
///
/// # Errors
/// Fails when `P` is not a whole number of bytes: such a ring encrypts,
/// but byte records do not pack into it.
pub fn coeff_bytes(params: &HeParams) -> Result<usize, HeError> {
    let bits = params.p_bits();
    if !bits.is_multiple_of(8) {
        return Err(HeError::InvalidParams(format!(
            "plaintext modulus 2^{bits} is not byte-aligned"
        )));
    }
    Ok(bits as usize / 8)
}

/// Runs `$body` with `C` bound to the constant `$chunk` (1 to 4), so
/// that the per-coefficient copies inside are fixed-width moves.
macro_rules! with_chunk {
    ($chunk:expr, $C:ident => $body:expr) => {
        match $chunk {
            1 => {
                const $C: usize = 1;
                $body
            }
            2 => {
                const $C: usize = 2;
                $body
            }
            3 => {
                const $C: usize = 3;
                $body
            }
            4 => {
                const $C: usize = 4;
                $body
            }
            other => unreachable!("P ≤ 2^32 packs 1 to 4 bytes per coefficient, not {other}"),
        }
    };
}

/// Step 1: packs `bytes` into coefficients, [`coeff_bytes`] bytes each,
/// little endian. A ragged last chunk is zero-extended and every
/// coefficient past the payload is zero, so `coeffs` is overwritten in
/// full.
///
/// # Panics
/// Panics if `P` is not byte-aligned or `bytes` exceeds
/// `coeffs.len() · coeff_bytes` (callers check both where the record
/// enters, to name the offending record).
pub fn coeffs_from_bytes<W: LimbWord>(params: &HeParams, bytes: &[u8], coeffs: &mut [W]) {
    let chunk = coeff_bytes(params).expect("byte records need a byte-aligned P");
    assert!(bytes.len() <= coeffs.len() * chunk, "payload exceeds the coefficient capacity");
    let coeff = |part: &[u8]| {
        let mut le = [0u8; 4];
        le[..part.len()].copy_from_slice(part);
        W::from(u32::from_le_bytes(le))
    };
    let (whole, rest) = coeffs.split_at_mut(bytes.len() / chunk);
    let tail = with_chunk!(chunk, C => {
        let (parts, tail) = bytes.as_chunks::<C>();
        for (dst, part) in whole.iter_mut().zip(parts) {
            *dst = coeff(part);
        }
        tail
    });
    let mut rest = rest.iter_mut();
    if !tail.is_empty() {
        *rest.next().expect("capacity checked above") = coeff(tail);
    }
    rest.for_each(|dst| *dst = W::from(0));
}

/// Inverse of [`coeffs_from_bytes`]: the low `⌊log P / 8⌋` bytes of every
/// coefficient, little endian.
pub fn coeffs_to_bytes(params: &HeParams, coeffs: &[u64]) -> Vec<u8> {
    let chunk = params.p_bits() as usize / 8;
    let mut out = vec![0u8; coeffs.len() * chunk];
    if chunk > 0 {
        with_chunk!(chunk, C => {
            for (dst, v) in out.as_chunks_mut::<C>().0.iter_mut().zip(coeffs) {
                dst.copy_from_slice(&v.to_le_bytes()[..C]);
            }
        });
    }
    out
}

/// `v mod q` for `q < 2^31` with `ratio = ⌊2^32 / q⌋`: the quotient
/// estimate `⌊v·ratio / 2^32⌋` is the true one or one short, so the
/// remainder `r` lands in `[0, 2q)` — within a word — and `r − q`'s sign
/// bit says whether to add `q` back. One 32×32 high product and 4-byte
/// lanes otherwise, so the row loops vectorise on any x86-64.
#[inline(always)]
fn reduce_word(v: u32, q: u32, ratio: u32) -> u32 {
    let est = ((u64::from(v) * u64::from(ratio)) >> 32) as u32;
    let t = v.wrapping_sub(est.wrapping_mul(q)).wrapping_sub(q);
    t.wrapping_add(q & ((t as i32 >> 31) as u32))
}

/// `value mod q` for a coefficient `value < 2^32` by [`reduce_word`]:
/// every limb is below `2^29`.
#[derive(Clone, Copy)]
struct CoeffReducer {
    q: u32,
    ratio: u32,
}

impl CoeffReducer {
    fn new(modulus: &Modulus) -> Self {
        let q = u32::try_from(modulus.value()).expect("limbs are below 2^29");
        // `q ≥ 3`, so the quotient fits a word.
        CoeffReducer { q, ratio: ((1u64 << 32) / u64::from(q)) as u32 }
    }

    /// One coefficient (below `2^32`, and so is its residue).
    #[inline(always)]
    fn reduce<W: LimbWord>(self, v: W) -> W {
        let v: u64 = v.into();
        W::from(reduce_word(v as u32, self.q, self.ratio))
    }

    /// `−v mod q` of a residue `v < q`: `q − v`, and 0 for 0.
    #[inline(always)]
    fn negate<W: LimbWord>(self, v: W) -> W {
        let t = self.q - v.into() as u32;
        W::from(t.min(t.wrapping_sub(self.q)))
    }
}

/// Steps 2 and 3: on entry `words[..n]` holds the `n` coefficients (each
/// below `P`) and the rest is scratch; on return `words` is the
/// polynomial's `k·n` canonical NTT-form words, limb-major — bit for bit
/// what `RnsPoly::from_coeffs_u128` followed by `to_ntt_with` computes,
/// with no buffer but `words` (and, for `u64` words, the thread's 4-byte
/// row the `u64` NTT runs in). Charges `k` residue NTTs.
///
/// # Panics
/// Panics if `words.len() != k · n`.
pub fn lift_coeffs<W: LimbWord>(params: &HeParams, words: &mut [W], backend: &dyn VpeBackend) {
    lift_coeffs_shifted(params, words, 0, backend);
}

/// [`lift_coeffs`] of the polynomial times `X^{-shift}`, the step under
/// [`lift_record_shifted`].
///
/// # Panics
/// Panics if `words.len() != k · n` or `shift ≥ n`.
pub fn lift_coeffs_shifted<W: LimbWord>(
    params: &HeParams,
    words: &mut [W],
    shift: usize,
    backend: &dyn VpeBackend,
) {
    let ring = params.ring();
    let (n, moduli) = (ring.n(), ring.basis().moduli());
    assert_eq!(words.len(), moduli.len() * n, "a lifted record is k·n words");
    assert!(shift < n, "a shift below the ring degree");
    debug_assert!(words[..n].iter().all(|&v| v.into() < params.p()), "coefficients are below P");
    let (coeffs, rest) = words.split_at_mut(n);
    for (m, row) in rest.chunks_exact_mut(n).enumerate() {
        let reducer = CoeffReducer::new(&moduli[m + 1]);
        let (kept, wrapped) = row.split_at_mut(n - shift);
        for (dst, &v) in kept.iter_mut().zip(&coeffs[shift..]) {
            *dst = reducer.reduce(v);
        }
        for (dst, &v) in wrapped.iter_mut().zip(&coeffs[..shift]) {
            *dst = reducer.negate(reducer.reduce(v));
        }
        W::ntt_forward(backend, ring.ntt(m + 1), row);
    }
    let reducer = CoeffReducer::new(&moduli[0]);
    for v in coeffs.iter_mut() {
        *v = reducer.reduce(*v);
    }
    coeffs.rotate_left(shift);
    for v in &mut coeffs[n - shift..] {
        *v = reducer.negate(*v);
    }
    W::ntt_forward(backend, ring.ntt(0), coeffs);
}

/// The whole lift: [`coeffs_from_bytes`] into `words[..n]`, then
/// [`lift_coeffs`]. `words` need not be zeroed.
///
/// # Panics
/// As the two steps: `P` byte-aligned, `bytes` within `n · coeff_bytes`,
/// `words.len() == k · n`.
pub fn lift_record<W: LimbWord>(
    params: &HeParams,
    bytes: &[u8],
    words: &mut [W],
    backend: &dyn VpeBackend,
) {
    lift_record_shifted(params, bytes, words, 0, backend);
}

/// [`lift_record`] of the record's polynomial times `X^{-shift}`
/// (`shift < n`): the negacyclic shift — coefficient `i` moves to
/// `i − shift`, negated where it wraps (`X^{-shift} = −X^{n−shift}`) —
/// rides the CRT pass as a change of index, so the product costs what
/// the plain lift does, where a product in the NTT domain costs a
/// multiply per word. The words are those of `x ⊙ lift` with
/// `x = NTT(X^{-shift})`, exactly.
///
/// # Panics
/// As [`lift_record`], and if `shift ≥ n`.
pub fn lift_record_shifted<W: LimbWord>(
    params: &HeParams,
    bytes: &[u8],
    words: &mut [W],
    shift: usize,
    backend: &dyn VpeBackend,
) {
    coeffs_from_bytes(params, bytes, &mut words[..params.n()]);
    lift_coeffs_shifted(params, words, shift, backend);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfv::Plaintext;
    use ive_math::gadget::Gadget;
    use ive_math::kernel::BACKEND_KINDS;
    use ive_math::prime::find_ntt_prime_below;
    use ive_math::rns::{RingContext, RnsBasis, RnsPoly};
    use ive_math::MathError;
    use rand::{Rng, SeedableRng};

    /// The formulation the lift replaced, step for step: one byte at a
    /// time into `u64` coefficients, a `Plaintext`, `u128` coefficients,
    /// `RnsPoly::from_coeffs_u128`, the `u64` NTT.
    fn wide_formulation(params: &HeParams, bytes: &[u8], backend: &dyn VpeBackend) -> Vec<u64> {
        let chunk = params.p_bits() as usize / 8;
        let mut vals = vec![0u64; params.n()];
        for (i, b) in bytes.iter().enumerate() {
            vals[i / chunk] |= u64::from(*b) << (8 * (i % chunk));
        }
        let pt = Plaintext::new(params, vals).expect("chunks are below P");
        let wide: Vec<u128> = pt.values().iter().map(|&v| u128::from(v)).collect();
        let mut poly = RnsPoly::from_coeffs_u128(params.ring(), &wide);
        poly.to_ntt_with(backend);
        poly.into_words()
    }

    /// One prime just below each of `limb_bits`.
    fn primes_below(limb_bits: &[u32]) -> Vec<Modulus> {
        limb_bits
            .iter()
            .map(|&bits| Modulus::new(find_ntt_prime_below(bits, 64).expect("a prime exists")))
            .collect()
    }

    /// A degree-64 ring over one prime just below each of `limb_bits`.
    fn params_over(limb_bits: &[u32], p_bits: u32) -> HeParams {
        let ring = RingContext::new(64, RnsBasis::new(primes_below(limb_bits)).unwrap()).unwrap();
        let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
        HeParams::new(ring, p_bits, gadget, gadget, 4).unwrap()
    }

    /// All-zero, all-`0xFF` and random payloads at every ragged length
    /// around a chunk and around the capacity.
    fn payloads(params: &HeParams) -> Vec<Vec<u8>> {
        let chunk = coeff_bytes(params).unwrap();
        let capacity = params.n() * chunk;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        let mut out = Vec::new();
        for len in [0, 1, chunk - 1, chunk, chunk + 1, capacity / 2 + 1, capacity - 1, capacity] {
            out.push(vec![0u8; len]);
            out.push(vec![0xFF; len]);
            out.push((0..len).map(|_| rng.gen()).collect());
        }
        out
    }

    /// `lift_record` in both words against the wide formulation, on
    /// every backend.
    fn check_lift(params: &HeParams) {
        let words = params.ring().basis().len() * params.n();
        for bytes in payloads(params) {
            for kind in BACKEND_KINDS {
                let backend = kind.backend();
                let expect = wide_formulation(params, &bytes, backend);
                // Stale destinations: the lift must overwrite every word.
                let mut wide = vec![u64::MAX; words];
                lift_record(params, &bytes, &mut wide, backend);
                assert_eq!(wide, expect, "u64, {kind}, {} bytes", bytes.len());
                let mut packed = vec![u32::MAX; words];
                lift_record(params, &bytes, &mut packed, backend);
                let widened: Vec<u64> = packed.iter().map(|&w| u64::from(w)).collect();
                assert_eq!(widened, expect, "u32, {kind}, {} bytes", bytes.len());
            }
        }
    }

    #[test]
    fn lift_matches_the_wide_formulation_on_the_toy_ring() {
        check_lift(&HeParams::toy());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "Table I ring on the scalar oracle; run with --release")]
    fn lift_matches_the_wide_formulation_on_the_paper_ring() {
        check_lift(&HeParams::paper());
    }

    #[test]
    fn lift_matches_the_wide_formulation_in_every_limb_regime() {
        // The word Barrett on a small limb and at the 29-bit cap; a ring
        // with a limb of 31, 32 or 40 bits is refused before any lift.
        for p_bits in [8, 16, 24, 32] {
            check_lift(&params_over(&[20, 29, 28], p_bits));
        }
        for wide in [31, 32, 40] {
            let moduli = primes_below(&[20, wide]);
            assert!(matches!(RnsBasis::new(moduli), Err(MathError::InvalidBasis(_))), "{wide}");
        }
    }

    /// The shifted lift against the product it stands for: the plain
    /// lift times `NTT(X^{-shift})`, word by word, in both word widths and
    /// on every backend, for shifts at both ends and inside.
    fn check_shifted_lift(params: &HeParams) {
        let (ring, n) = (params.ring(), params.n());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51f7);
        let coeffs: Vec<u32> = (0..n).map(|_| rng.gen_range(0..params.p()) as u32).collect();
        for shift in [0, 1, 7, n / 2, n - 1] {
            let mut x = RnsPoly::zero(ring, ive_math::rns::Form::Coeff);
            for (m, q) in ring.basis().moduli().iter().enumerate() {
                // X^{-shift} = −X^{n − shift}; X^0 = 1.
                x.residue_mut(m)[(n - shift) % n] = if shift == 0 { 1 } else { q.value() - 1 };
            }
            x.to_ntt();
            for kind in BACKEND_KINDS {
                let mut plain = vec![0u32; ring.basis().len() * n];
                plain[..n].copy_from_slice(&coeffs);
                let mut shifted = plain.clone();
                let mut wide: Vec<u64> = plain.iter().map(|&v| u64::from(v)).collect();
                lift_coeffs(params, &mut plain, kind.backend());
                lift_coeffs_shifted(params, &mut shifted, shift, kind.backend());
                lift_coeffs_shifted(params, &mut wide, shift, kind.backend());
                let moduli = ring.basis().moduli().iter().flat_map(|q| std::iter::repeat_n(q, n));
                let want: Vec<u32> = plain
                    .iter()
                    .zip(x.as_words())
                    .zip(moduli)
                    .map(|((&v, &x), q)| q.mul(u64::from(v), x) as u32)
                    .collect();
                assert_eq!(shifted, want, "{kind}, shift {shift}");
                assert!(wide.iter().map(|&w| w as u32).eq(want), "{kind}, shift {shift}, u64");
            }
        }
    }

    #[test]
    fn shifted_lift_is_the_product_by_the_monomial() {
        check_shifted_lift(&HeParams::toy());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "Table I ring on the scalar oracle; run with --release")]
    fn shifted_lift_is_the_product_by_the_monomial_paper_ring() {
        check_shifted_lift(&HeParams::paper());
    }

    #[test]
    fn plaintext_lift_is_the_same_lift() {
        let params = HeParams::toy();
        for bytes in payloads(&params) {
            let mut vals = vec![0u64; params.n()];
            coeffs_from_bytes(&params, &bytes, &mut vals);
            let pt = Plaintext::new(&params, vals).unwrap();
            for kind in BACKEND_KINDS {
                let expect = wide_formulation(&params, &bytes, kind.backend());
                assert_eq!(pt.to_ntt_poly_with(&params, kind.backend()).as_words(), expect);
            }
        }
    }

    #[test]
    fn byte_codec_matches_the_per_byte_walk() {
        for p_bits in [8, 16, 24, 32] {
            let params = params_over(&[28, 27], p_bits);
            let chunk = coeff_bytes(&params).unwrap();
            for bytes in payloads(&params) {
                let mut expect = vec![0u64; params.n()];
                for (i, b) in bytes.iter().enumerate() {
                    expect[i / chunk] |= u64::from(*b) << (8 * (i % chunk));
                }
                let mut coeffs = vec![u64::MAX; params.n()];
                coeffs_from_bytes(&params, &bytes, &mut coeffs);
                assert_eq!(coeffs, expect, "P = 2^{p_bits}, {} bytes", bytes.len());
                let mut per_byte = Vec::new();
                for &v in &expect {
                    per_byte.extend((0..chunk).map(|j| (v >> (8 * j)) as u8));
                }
                let back = coeffs_to_bytes(&params, &coeffs);
                assert_eq!(back, per_byte);
                assert_eq!(&back[..bytes.len()], &bytes[..]);
                assert!(back[bytes.len()..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn unaligned_plaintext_modulus_is_an_error() {
        assert!(matches!(coeff_bytes(&params_over(&[28, 27], 12)), Err(HeError::InvalidParams(_))));
    }

    #[test]
    #[should_panic(expected = "payload exceeds")]
    fn oversized_payload_panics() {
        let params = HeParams::toy();
        let mut coeffs = vec![0u32; params.n()];
        coeffs_from_bytes(&params, &vec![0u8; params.n() * 2 + 1], &mut coeffs);
    }
}
