//! The mask stream: every fresh uniform mask `a` a client draws, expanded
//! from one 32-byte seed so the wire can carry the seed instead of the
//! polynomials.
//!
//! Half of every fresh RLWE sample `(a, b = a·s + e + msg)` is the
//! uniform `a`. A [`MaskStream`] is ChaCha8 keyed by a [`MaskSeed`]
//! (nonce 0, block counter from 0 — the stream `ChaCha8Rng::from_seed`
//! gives), read as little-endian 64-bit words (the low word of a block
//! pair first). Each mask coefficient takes the next word `x`; a word at
//! or above `u64::MAX − u64::MAX mod q` is rejected and the next one
//! tried, any other becomes `x mod q` — exact-uniform, and word for word
//! what `rand`'s `gen_range(0..q)` draws. Coefficients go limb by limb
//! (all `n` residues of limb 0, then limb 1, …), masks one after another,
//! so a stream of masks is a pure function of the seed and the order in
//! which the masks are taken. Both sides take them in the frame's order:
//! the client while encrypting, the wire decoder while regenerating.
//!
//! The body is portable lane-parallel code — sixteen ChaCha blocks a
//! refill, `L` of them in flight as lanes, then the kernel layer's word
//! fold over each accepted run —
//! that is inlined into a `#[target_feature]` wrapper per vector width,
//! the way the kernel layer instantiates `dcp_chunked`.
//! [`MaskStream::new`] picks the widest one the CPU reports, once.
//!
//! A seed must never serve two encryptions: two samples sharing `a` under
//! one secret leak the difference of their messages.

use std::sync::{Arc, OnceLock};

use rand::RngCore;

use crate::kernel::{fold_words, FoldPlan, OptimizedBackend};
use crate::modulus::Modulus;
use crate::rns::{Form, RingContext, RnsPoly};

/// Bytes of a [`MaskSeed`].
pub const SEED_BYTES: usize = 32;

/// The key of one mask stream.
pub type MaskSeed = [u8; SEED_BYTES];

/// ChaCha blocks per refill (each yields eight 64-bit words).
const BLOCKS: usize = 16;

/// 64-bit words per refill.
const DRAWS: usize = 8 * BLOCKS;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The keystream position: key, next block, and the unread words of the
/// last refill.
#[derive(Clone)]
struct Keystream {
    key: [u32; 8],
    counter: u64,
    words: [u64; DRAWS],
    pos: usize,
}

/// One instantiation of the body: fills `out` (`k·n` words, limb-major)
/// with the next mask over `moduli`.
type Body = unsafe fn(&mut Keystream, &[Modulus], usize, &mut [u64]);

/// A uniform-mask generator keyed by a 32-byte seed (see the module doc
/// for the stream it produces).
#[derive(Clone)]
pub struct MaskStream {
    seed: MaskSeed,
    keystream: Keystream,
    /// Always one of [`bodies`]: the CPU has whatever feature it needs.
    body: Body,
}

impl core::fmt::Debug for MaskStream {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The seed is as secret as the masks it expands to, until sent.
        f.debug_struct("MaskStream").field("counter", &self.keystream.counter).finish()
    }
}

impl MaskStream {
    /// The stream keyed by `seed`, run by the widest body this CPU has.
    pub fn new(seed: MaskSeed) -> Self {
        static BEST: OnceLock<Body> = OnceLock::new();
        Self::with_body(seed, *BEST.get_or_init(|| bodies()[0].1))
    }

    /// A stream under a fresh seed drawn from `rng`.
    pub fn fresh<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; SEED_BYTES];
        rng.fill_bytes(&mut seed);
        Self::new(seed)
    }

    fn with_body(seed: MaskSeed, body: Body) -> Self {
        let key = core::array::from_fn(|i| {
            u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().expect("4 bytes"))
        });
        let keystream = Keystream { key, counter: 0, words: [0; DRAWS], pos: DRAWS };
        MaskStream { seed, keystream, body }
    }

    /// The seed this stream expands.
    #[inline]
    pub fn seed(&self) -> &MaskSeed {
        &self.seed
    }

    /// Overwrites `out` (a flat `k × n` limb matrix of `ring`) with the
    /// next mask, in the NTT domain (a uniform polynomial is uniform in
    /// either domain).
    ///
    /// # Panics
    /// Panics if `out.len() != k · n`.
    pub fn fill(&mut self, ring: &RingContext, out: &mut [u64]) {
        assert_eq!(out.len(), ring.basis().len() * ring.n());
        self.fill_words(ring.basis().moduli(), ring.n(), out);
    }

    /// The next mask as an NTT-form polynomial of `ring`.
    pub fn next_poly(&mut self, ring: &Arc<RingContext>) -> RnsPoly {
        let mut words = vec![0u64; ring.basis().len() * ring.n()];
        self.fill(ring, &mut words);
        RnsPoly::from_words(ring, Form::Ntt, words).expect("k·n words")
    }

    fn fill_words(&mut self, moduli: &[Modulus], n: usize, out: &mut [u64]) {
        // SAFETY: `self.body` comes from `bodies()`, which lists a
        // `#[target_feature]` instantiation only after the running CPU
        // reported that feature; the portable one needs none.
        unsafe { (self.body)(&mut self.keystream, moduli, n, out) }
    }
}

/// The instantiations of the body this CPU can run, widest first; the
/// last is the portable one.
fn bodies() -> Vec<(&'static str, Body)> {
    let mut found: Vec<(&'static str, Body)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push(("avx512", fill_avx512));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push(("avx2", fill_avx2));
        }
    }
    found.push(("portable", fill_portable));
    found
}

/// The body compiled for AVX-512: sixteen lanes, one 512-bit register a
/// state word, the blocks written out by a register transpose.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_avx512(ks: &mut Keystream, moduli: &[Modulus], n: usize, out: &mut [u64]) {
    fill_body::<16>(ks, moduli, n, out, |lanes, words| store_avx512(lanes, words))
}

/// The body compiled for AVX2: eight lanes, one 256-bit register a state
/// word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_avx2(ks: &mut Keystream, moduli: &[Modulus], n: usize, out: &mut [u64]) {
    fill_body::<8>(ks, moduli, n, out, store_lanes::<8>)
}

/// The body for the build's baseline target (SSE2 on x86-64): four lanes.
fn fill_portable(ks: &mut Keystream, moduli: &[Modulus], n: usize, out: &mut [u64]) {
    fill_body::<4>(ks, moduli, n, out, store_lanes::<4>)
}

/// Fills `out` limb by limb: each run of unread words that holds no
/// rejectable word is copied and reduced in one branch-free pass — the
/// kernel layer's word fold (`fold_words`, 32×32→64 products only) for
/// `q < 2^32`, the single-word Barrett above that; a run that does
/// (probability below `2^-30` a word for any modulus under `2^32`) is
/// stepped through a word at a time until the rejected word is behind.
#[inline(always)]
fn fill_body<const L: usize>(
    ks: &mut Keystream,
    moduli: &[Modulus],
    n: usize,
    out: &mut [u64],
    store: impl Fn(&[[u32; L]; 16], &mut [u64]) + Copy,
) {
    for (row, modulus) in out.chunks_exact_mut(n).zip(moduli) {
        let q = modulus.value();
        let (limit, ratio) = (u64::MAX - u64::MAX % q, OptimizedBackend::narrow_ratio(q));
        let plan = FoldPlan::new(modulus);
        let mut done = 0;
        while done < n {
            if ks.pos == DRAWS {
                refill::<L>(ks, store);
            }
            let take = (n - done).min(DRAWS - ks.pos);
            let src = &ks.words[ks.pos..ks.pos + take];
            if src.iter().fold(true, |ok, &x| ok & (x < limit)) {
                let dst = &mut row[done..done + take];
                dst.copy_from_slice(src);
                match &plan {
                    Some(plan) => fold_words(plan, dst),
                    None => dst
                        .iter_mut()
                        .for_each(|x| *x = OptimizedBackend::reduce_word(ratio, q, *x)),
                }
                ks.pos += take;
                done += take;
            } else {
                let x = src[0];
                ks.pos += 1;
                if x < limit {
                    row[done] = OptimizedBackend::reduce_word(ratio, q, x);
                    done += 1;
                }
            }
        }
    }
}

/// Refills `ks.words` with the next [`BLOCKS`] keystream blocks, in block
/// order. Each group of `L` blocks is one loop over lanes whose body is a
/// whole scalar block: the iterations are independent and their results
/// land lane-contiguous, so the loop vectorizes `L` blocks wide; `store`
/// then writes the group's blocks out one after another.
#[inline(always)]
fn refill<const L: usize>(ks: &mut Keystream, store: impl Fn(&[[u32; L]; 16], &mut [u64])) {
    for group in 0..BLOCKS / L {
        let mut lanes = [[0u32; L]; 16];
        for lane in 0..L {
            let block = ks.counter.wrapping_add(lane as u64);
            let mut x = [0u32; 16];
            x[..4].copy_from_slice(&CONSTANTS);
            x[4..12].copy_from_slice(&ks.key);
            (x[12], x[13]) = (block as u32, (block >> 32) as u32);
            let initial = x;
            // Four double rounds, written out: a loop here would be an
            // inner loop, and the lane loop would not vectorize around it.
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            double_round(&mut x);
            for (w, word) in lanes.iter_mut().enumerate() {
                word[lane] = x[w].wrapping_add(initial[w]);
            }
        }
        store(&lanes, &mut ks.words[group * 8 * L..][..8 * L]);
        ks.counter = ks.counter.wrapping_add(L as u64);
    }
    ks.pos = 0;
}

/// Writes `L` blocks held lane-wise (`lanes[w][b]` is state word `w` of
/// block `b`) into `out` block after block, each as eight little-endian
/// 64-bit words.
#[inline(always)]
fn store_lanes<const L: usize>(lanes: &[[u32; L]; 16], out: &mut [u64]) {
    for (lane, block) in out.chunks_exact_mut(8).enumerate() {
        for (j, word) in block.iter_mut().enumerate() {
            *word = u64::from(lanes[2 * j][lane]) | (u64::from(lanes[2 * j + 1][lane]) << 32);
        }
    }
}

/// [`store_lanes`] for sixteen blocks as a 16 × 16 transpose of 32-bit
/// words in registers (a block's sixteen words are its eight 64-bit
/// words): interleave rows by 32-bit then by 64-bit word, so vector
/// `u[4g + c]` holds, in 128-bit lane `k`, column `4k + c` of rows
/// `4g..4g + 4`; then gather lane `k` of `u[c]`, `u[4 + c]`, `u[8 + c]`,
/// `u[12 + c]` into block `4k + c`. 64 shuffles and 16 full stores, where
/// the compiler's lowering of the loop scatters.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn store_avx512(lanes: &[[u32; 16]; 16], out: &mut [u64]) {
    use core::arch::x86_64::*;
    assert_eq!(out.len(), 128);
    // SAFETY: each row of `lanes` is sixteen readable `u32`s; the load
    // has no alignment requirement.
    let r: [__m512i; 16] =
        core::array::from_fn(|w| unsafe { _mm512_loadu_si512(lanes[w].as_ptr().cast()) });
    let t: [__m512i; 16] = core::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(a, b)
        } else {
            _mm512_unpackhi_epi32(a, b)
        }
    });
    let u: [__m512i; 16] = core::array::from_fn(|i| {
        let (g, c) = (i / 4, i % 4);
        let (a, b) = (t[4 * g + c / 2], t[4 * g + 2 + c / 2]);
        if c % 2 == 0 {
            _mm512_unpacklo_epi64(a, b)
        } else {
            _mm512_unpackhi_epi64(a, b)
        }
    });
    for c in 0..4 {
        let low = _mm512_shuffle_i32x4::<0x44>(u[c], u[4 + c]);
        let high = _mm512_shuffle_i32x4::<0xEE>(u[c], u[4 + c]);
        let low2 = _mm512_shuffle_i32x4::<0x44>(u[8 + c], u[12 + c]);
        let high2 = _mm512_shuffle_i32x4::<0xEE>(u[8 + c], u[12 + c]);
        let blocks = [
            _mm512_shuffle_i32x4::<0x88>(low, low2),
            _mm512_shuffle_i32x4::<0xDD>(low, low2),
            _mm512_shuffle_i32x4::<0x88>(high, high2),
            _mm512_shuffle_i32x4::<0xDD>(high, high2),
        ];
        for (k, block) in blocks.into_iter().enumerate() {
            let at = 8 * (4 * k + c);
            // SAFETY: `at + 8 ≤ 128 = out.len()`; the store has no
            // alignment requirement.
            unsafe { _mm512_storeu_si512(out[at..at + 8].as_mut_ptr().cast(), block) };
        }
    }
}

/// A column round, then a diagonal round.
#[inline(always)]
fn double_round(x: &mut [u32; 16]) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
}

/// One ChaCha quarter round on state words `a, b, c, d`.
#[inline(always)]
fn quarter_round(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The reference: `gen_range(0..q)` over `ChaCha8Rng`, coefficient by
    /// coefficient, limb by limb.
    fn reference(rng: &mut ChaCha8Rng, moduli: &[Modulus], n: usize) -> Vec<u64> {
        moduli
            .iter()
            .flat_map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect::<Vec<_>>())
            .collect()
    }

    /// Every instantiation this CPU runs, on the toy and the Table I ring,
    /// over enough masks to cross many refills at both limb widths.
    #[test]
    fn every_body_matches_chacha8_and_gen_range() {
        let rings = [RingContext::test_ring(256, 3), RingContext::paper_ring()];
        let names: Vec<_> = bodies().iter().map(|(name, _)| *name).collect();
        assert_eq!(names.last(), Some(&"portable"));
        for ring in &rings {
            for seed in [[0u8; 32], [0xA5; 32], core::array::from_fn(|i| i as u8)] {
                let (moduli, n) = (ring.basis().moduli(), ring.n());
                let mut oracle = ChaCha8Rng::from_seed(seed);
                let want: Vec<Vec<u64>> =
                    (0..3).map(|_| reference(&mut oracle, moduli, n)).collect();
                for (name, body) in bodies() {
                    let mut stream = MaskStream::with_body(seed, body);
                    for (i, want) in want.iter().enumerate() {
                        let got = stream.next_poly(ring);
                        assert_eq!(got.form(), Form::Ntt);
                        assert!(got.as_words() == &want[..], "{name}, n = {n}, mask {i}");
                    }
                }
                // The convenience sampler over the same keystream agrees.
                let mut rng = ChaCha8Rng::from_seed(seed);
                assert_eq!(
                    RnsPoly::sample_uniform(ring, Form::Ntt, &mut rng),
                    MaskStream::new(seed).next_poly(ring)
                );
            }
        }
    }

    /// A modulus near `1.5 · 2^61` rejects about one word in sixteen, so
    /// the word-at-a-time path runs and must still track the reference.
    #[test]
    fn rejections_match_the_reference() {
        let q = ((3u64 << 60) + 1..).step_by(2).find(|&q| crate::prime::is_prime(q)).unwrap();
        let moduli = [Modulus::new(q), Modulus::special_primes()[0]];
        assert!(u64::MAX % q > u64::MAX / 32, "the test modulus must reject often");
        for (name, body) in bodies() {
            for n in [8usize, 64, 200] {
                let seed = [n as u8; 32];
                let mut oracle = ChaCha8Rng::from_seed(seed);
                let mut stream = MaskStream::with_body(seed, body);
                for _ in 0..4 {
                    let mut got = vec![0u64; 2 * n];
                    stream.fill_words(&moduli, n, &mut got);
                    assert_eq!(got, reference(&mut oracle, &moduli, n), "{name}, n = {n}");
                }
            }
        }
    }

    #[test]
    fn fresh_seeds_differ_and_streams_advance() {
        let ring = RingContext::test_ring(64, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (mut s1, s2) = (MaskStream::fresh(&mut rng), MaskStream::fresh(&mut rng));
        assert_ne!(s1.seed(), s2.seed());
        let (a, b) = (s1.next_poly(&ring), s1.next_poly(&ring));
        assert_ne!(a, b, "consecutive masks of one stream differ");
        assert_ne!(a, s2.clone().next_poly(&ring), "masks of two seeds differ");
        assert!(!format!("{s1:?}").contains("seed"), "Debug must not print the seed");
    }
}
