//! The VPE kernel layer: one backend executes every PIR hot kernel.
//!
//! IVE's central architectural claim is that a single set of *versatile*
//! processing elements runs every kernel the PIR pipeline needs — NTT
//! butterflies, pointwise multiply-accumulate, base conversion, and
//! automorphism address generation — over a memory-bandwidth-bound
//! database scan (§IV). This module is the software mirror of that shape:
//! a [`VpeBackend`] exposes the hot kernels as flat-slice operations
//! on one residue limb at a time, and everything above (RNS polynomials,
//! BFV/RGSW algebra, `RowSel`/`ColTor`) dispatches through it instead of
//! open-coding scalar loops.
//!
//! Four implementations exist, one per submodule:
//!
//! * [`ScalarBackend`] (`scalar`) — the readable reference: textbook
//!   loops over [`crate::reduce::mul_mod`] (a 128-bit remainder per
//!   product). Slow on purpose; it is the oracle every other backend is
//!   differentially tested against (`tests/kernel_props.rs`).
//! * `OptimizedBackend` (`optimized`) — the portable serving path:
//!   precomputed Barrett per-limb constants (carried by [`Modulus`]),
//!   Shoup lazy twiddles in the NTT dispatch, a fused lazy-reduction FMA
//!   (`acc·q` folded into one Barrett reduction per element instead of
//!   reduce-then-add), and 4×-unrolled flat-slice loops.
//! * `SimdBackend` (`simd`, `x86_64` only) — the wide-datapath path on
//!   AVX2: the 4-byte NTT pair in intrinsics, and every other kernel one
//!   of the portable bodies below (`barrett_words`, `mac2_words`,
//!   `fold_words`, `branch_words`, `dcp_chunked`) compiled under
//!   `#[target_feature(enable = "avx2")]` — products of factors below
//!   `2^32`, which auto-vectorize to `vpmuludq`. It is reached through
//!   **runtime detection**: [`BackendKind::Simd`] probes
//!   `is_x86_feature_detected!("avx2")` once (cached in a `OnceLock`)
//!   and falls back to `OptimizedBackend` when the host cannot run it,
//!   so no call site ever branches on the ISA.
//! * `Avx512Backend` (`avx512`, `x86_64` only) — the widest datapath: a
//!   stage-fused sixteen-lane NTT pair on 4-byte words (radix-4 passes,
//!   then the short `t ≤ 16` levels register-resident through `vpermt2d`
//!   shuffles) in intrinsics, and the same portable bodies compiled
//!   under `avx512f`. Same runtime-detection contract:
//!   [`BackendKind::Avx512`] falls back through AVX2 to the portable
//!   path, and [`BackendKind::Auto`] prefers it wherever `avx512f` is
//!   detected.
//!
//! **Limbs.** Every ring is built from limbs of at most 29 bits
//! ([`crate::rns::RnsBasis::new`] refuses wider ones, and
//! [`NttTable::new`] builds no table above that; Table I's primes are 28
//! bits), so a ring residue is one 4-byte word wherever it is stored in
//! bulk or transformed: a backend implements both NTTs on 4-byte rows
//! only, and an [`RnsPoly`]'s `u64` row takes the `u64` pair every backend
//! shares (`ntt_forward` / `ntt_inverse` on `dyn VpeBackend`: narrow into
//! a thread-local row, transform, widen). The modulus-level kernels
//! (`fma`, `pointwise_mul`, `fold_lazy`) still take any modulus on every
//! backend — the vector ones above 29 bits through `OptimizedBackend`'s
//! code — which the oracle tests use.
//!
//! **Lazy accumulation.** Every modular dot product of the pipeline —
//! `RowSel`'s `Σ_i DB[r][i] ⊙ ct[i]` and the gadget GEMMs of `Subs` and
//! `⊡` — runs through one kernel pair: [`VpeBackend::mac2_lazy`] adds
//! exact 64-bit products of 4-byte rows into plain `u64` accumulators and
//! [`VpeBackend::fold_lazy`] reduces them once at the end. The number of
//! products an accumulator can absorb is derived from the modulus
//! ([`Modulus::lazy_terms`], `⌊(2^64 − q)/(q−1)²⌋`: 962–1023 for the
//! 28-bit Table I primes, 64 at the 29-bit cap), so a `D0 = 256`
//! row or a `2ℓ`-term GEMM folds exactly once. Reduction mod `q` is a
//! ring homomorphism, so *when* it happens cannot change a canonical
//! result. A database row and the expanded query's `ea`/`eb` rows are
//! all stored one residue per 4-byte word, so a `RowSel` product reads
//! 4 + 4 + 4 bytes. Both halves are one portable body each, instantiated
//! under `#[target_feature]` by the vector backends like `dcp_chunked`:
//! the MAC (`mac2_words`) sums a chunk of accumulator words in arrays
//! across all the terms of a call, and the fold (`fold_words`, bounds in
//! `FoldPlan`) takes the word's high half times `2^32 mod q` by Shoup, the
//! low half added, one Barrett estimate on the sum's top bits — five
//! 32×32→64 products, no `u128`.
//!
//! **The key-switch pipeline.** The input of `Subs` and `⊡` is 4-byte
//! words from the node to the digits: the caller copies it into 4-byte
//! arena scratch (an `ExpandQuery` node's `a` half as it is, a `u64`
//! ciphertext narrowed as it is copied) and inverts it there
//! ([`RingContext::ntt_inverse_narrow_words`]), and
//! [`VpeBackend::icrt_decompose`] reads those words. `Subs` and `⊡` never
//! hold their digits in the multiplication domain as a matrix:
//! [`dcp_tiles`] walks the digit rows limb-outer, lifts each into an
//! L1-sized tile, forward-NTTs it there
//! ([`VpeBackend::ntt_forward_narrow`]) and lazy-MACs the tile straight
//! against its key rows
//! ([`VpeBackend::mac2_lazy`]), two tiles per pass over the limb's
//! accumulators. An evaluation key's rows and an RGSW bit's are one
//! [`GadgetRows`] store of 4-byte words, packed in the order the walk
//! reads them. What closes a
//! limb is the caller's [`MacFinish`]: a fold to canonical `u64`
//! ([`MacFinish::Fold`]), or — for an `ExpandQuery` node —
//! [`VpeBackend::branch_lazy`], which folds and writes the node's even
//! and odd children as 4-byte words in the same pass
//! ([`MacFinish::Branch`]); `Subs`' own output is then never stored.
//!
//! **`Dcp`.** Gadget decomposition goes from the `k × n` RNS words to the
//! `ℓ × n` digit rows in one kernel, [`VpeBackend::icrt_decompose`].
//! [`ScalarBackend`] reconstructs each coefficient as a `u128` and splits
//! it; the other backends run one portable chunked body
//! (`dcp_chunked`, bounds in [`DcpPlan`]) — 32×32→64 products and `S`
//! in `⌈bits(k·Q) / 2c⌉` words of `2c` bits per coefficient (two for the
//! `2^14` gadget on the Table I ring, three for its `2^22` one), no
//! `u128`, no branch — which the vector
//! backends instantiate under `#[target_feature]` instead of
//! hand-writing. Which route a call takes depends on the ring and the
//! gadget alone ([`DcpPlan::new`]).
//!
//! All backends are **bit-identical** on every input — the software
//! analogue of §IV-G's observation that hardware may swap modular
//! multiplier circuits without changing results. Backends are stateless
//! zero-sized types, so a `&'static dyn VpeBackend` threads through the
//! stack without reference counting; scratch space comes from a
//! [`crate::arena::KernelArena`] owned by the calling worker.
//!
//! Operation counting for the model-validation tests
//! (`tests/op_count_validation.rs` at the workspace root) happens *here*:
//! each FMA/pointwise call charges [`crate::metrics`] with one MAC per
//! element and each NTT dispatch with one residue transform, so counts
//! stay exact no matter which layer — or which backend — invoked the
//! kernel.

use std::cell::RefCell;
use std::sync::Arc;

use rand::RngCore;

use crate::arena::KernelArena;
use crate::gadget::Gadget;
use crate::mask::MaskStream;
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::rns::{Form, RingContext, RnsPoly};
use crate::sample::{fresh_sample, SampleRows, SampleWord, Term};
use crate::MathError;

use optimized::cond_sub;

pub(crate) mod avx512;
pub(crate) mod optimized;
pub(crate) mod scalar;
pub(crate) mod simd;

pub(crate) use optimized::OptimizedBackend;
pub use scalar::ScalarBackend;
#[cfg(target_arch = "x86_64")]
pub(crate) use simd::SimdBackend;

/// One term `(w, ea, eb)` of a lazy dual dot product (see
/// [`VpeBackend::mac2_lazy`]): the shared multiplicand row and the two
/// rows it multiplies, every one in 4-byte words — a database row against
/// the expanded query's `ea`/`eb` as `RowSel` streams them, or an NTT'd
/// digit tile against the rows of a [`GadgetRows`] store.
pub type MacTerm<'a> = (&'a [u32], &'a [u32], &'a [u32]);

/// One limb row of a fixed multiplier in 4-byte words, each word beside
/// its 32-bit Shoup quotient `⌊value·2^32/q⌋` (see [`ShoupWords`]).
#[derive(Debug, Clone, Copy)]
pub struct ShoupRow<'a> {
    /// The multiplier words, canonical.
    pub value: &'a [u32],
    /// Their Shoup quotients.
    pub quotient: &'a [u32],
}

/// A fixed NTT-form multiplier over a ring — `ExpandQuery`'s `X^{-2^j}` —
/// as flat `k × n` 4-byte words with their 32-bit Shoup quotients, so
/// multiplying a 4-byte row by it takes three 32×32→64 products per word
/// ([`VpeBackend::branch_lazy`]).
#[derive(Debug, Clone)]
pub struct ShoupWords {
    n: usize,
    value: Vec<u32>,
    quotient: Vec<u32>,
}

impl ShoupWords {
    /// The table of the flat `k × n` canonical `words` over `ring`.
    ///
    /// # Panics
    /// Panics if `words` is not `k·n` long.
    pub fn new(ring: &RingContext, words: &[u64]) -> Self {
        let n = ring.n();
        assert_eq!(words.len(), ring.basis().len() * n);
        let mut value = Vec::with_capacity(words.len());
        let mut quotient = Vec::with_capacity(words.len());
        for (modulus, row) in ring.basis().moduli().iter().zip(words.chunks_exact(n)) {
            value.extend(row.iter().map(|&w| w as u32));
            quotient.extend(row.iter().map(|&w| ((w << 32) / modulus.value()) as u32));
        }
        ShoupWords { n, value, quotient }
    }

    /// Limb row `m`.
    #[inline]
    pub(crate) fn limb(&self, m: usize) -> ShoupRow<'_> {
        let seg = m * self.n..(m + 1) * self.n;
        ShoupRow { value: &self.value[seg.clone()], quotient: &self.quotient[seg] }
    }
}

/// Terms the pipeline hands [`VpeBackend::mac2_lazy`] per call. The
/// accumulators are loaded and stored once per call, so their cache
/// traffic per product falls by this factor, while the operand rows
/// streamed concurrently (three per term) stay within what hardware
/// prefetchers track.
pub const MAC_FAN_IN: usize = 4;

/// Asserts the modulus fits 4-byte rows and every row of `terms` is
/// `len` words, and charges the MAC counter — the shared prologue of every
/// `mac2_lazy` implementation.
fn check_mac_terms(modulus: &Modulus, len: usize, acc_b: &[u64], terms: &[MacTerm<'_>]) {
    assert!(modulus.bits() <= 32, "a 4-byte multiplicand row needs q < 2^32");
    assert_eq!(acc_b.len(), len);
    for (w, ea, eb) in terms {
        assert_eq!(w.len(), len);
        assert_eq!(ea.len(), len);
        assert_eq!(eb.len(), len);
    }
    crate::metrics::count_pointwise_macs((2 * len * terms.len()) as u64);
}

/// The body of [`VpeBackend::mac2_lazy`] on every backend but the oracle,
/// `L` accumulator words at a time: both accumulators' words are loaded
/// into `[u64; L]` arrays, every term's products are added there and the
/// arrays are stored once; the last `n mod L` words take the same
/// formula. Operands are below `2^32`, so each product is exact in 64
/// bits, and the caller's `lazy_terms` fold cadence keeps the sums from
/// wrapping (plain `+`, so a debug build traps a broken one). Portable
/// code that the trait default runs at `L = 8` and the vector backends
/// instantiate under `#[target_feature]`, like [`fold_words`].
#[inline(always)]
fn mac2_words<const L: usize>(acc_a: &mut [u64], acc_b: &mut [u64], terms: &[MacTerm<'_>]) {
    let full = acc_a.len() / L * L;
    for at in (0..full).step_by(L) {
        let mut a: [u64; L] = acc_a[at..at + L].try_into().expect("L words");
        let mut b: [u64; L] = acc_b[at..at + L].try_into().expect("L words");
        for (w, ea, eb) in terms {
            mac2_lanes(&mut a, &mut b, (&w[at..at + L], &ea[at..at + L], &eb[at..at + L]));
        }
        acc_a[at..at + L].copy_from_slice(&a);
        acc_b[at..at + L].copy_from_slice(&b);
    }
    let (a, b) = (&mut acc_a[full..], &mut acc_b[full..]);
    for (w, ea, eb) in terms {
        mac2_lanes(a, b, (&w[full..], &ea[full..], &eb[full..]));
    }
}

/// `a[i] += w[i]·ea[i]`, `b[i] += w[i]·eb[i]` over one chunk of
/// [`mac2_words`].
#[inline(always)]
fn mac2_lanes(a: &mut [u64], b: &mut [u64], (w, ea, eb): MacTerm<'_>) {
    for ((a, b), ((&w, &ea), &eb)) in a.iter_mut().zip(b).zip(w.iter().zip(ea).zip(eb)) {
        let w = u64::from(w);
        *a += w * u64::from(ea);
        *b += w * u64::from(eb);
    }
}

/// Output slots [`dcp_chunked`] carries through its steps at once: its
/// working set (`k` residue rows, the words of `S` and a carry per slot:
/// 10 KiB at `k = 4` and two words, 12 KiB at three) stays in L1.
const DCP_TILE: usize = 256;

/// Limb rows the kernel's fixed-size tables hold: any basis.
const DCP_MAX_LIMBS: usize = crate::rns::RnsBasis::MAX_LIMBS;

/// Most `2c`-bit words `S < k·Q < 2^123` takes, at the narrowest chunk
/// (`c = 15`: `⌈123/30⌉`).
const DCP_MAX_WORDS: usize = 5;

/// Most radix-`2^c` chunks of `S`: two a word.
const DCP_MAX_CHUNKS: usize = 2 * DCP_MAX_WORDS;

/// The constants of the chunked iCRT→digit kernel `dcp_chunked` for
/// one ring and gadget, and the decision whether that kernel applies.
///
/// iCRT is `x = Σ_i y_i·q̂_i mod Q` with `y_i = [r_i·q̂_i⁻¹]_{q_i}`
/// (Eq. 3). With every limb below `2^32`, `y_i < 2^32`; writing each
/// `q̂_i` in radix `2^c` (`c ≤ 28`) makes every product `y_i·q̂_{i,j}` an
/// exact 32×32→64 one, and a chunk sum `Σ_i y_i·q̂_{i,j}` stays below
/// `k·2^60 ≤ 2^63` for `k ≤ 8`. Carrying the sums into `c`-bit chunks
/// gives `S = Σ_i y_i·q̂_i < k·Q` as `⌈bits(k·Q) / 2c⌉` words of `2c`
/// bits each — two at `c = 28` (the `2^14` gadget on the Table I ring),
/// three at `c = 22` (its `2^22` gadget), at most five (`c = 15`, `k = 8`,
/// `Q < 2^120`). `S` is brought below `Q` by subtracting `2^t·Q` where it
/// fits, for `t = ⌈log₂ k⌉ − 1 … 0` (each step halves the bound), and
/// since `c` is a multiple of the gadget's `base_bits`, so is `2c`: no
/// digit straddles two words, and digit `j` is one shift and mask of word
/// `⌊j·b / 2c⌋`.
#[derive(Debug)]
pub struct DcpPlan {
    /// Limb count `k`.
    limbs: usize,
    /// Chunk width `c = base_bits·⌊28/base_bits⌋`.
    chunk_bits: u32,
    /// `q_i`.
    q: [u32; DCP_MAX_LIMBS],
    /// `w_i = q̂_i⁻¹ mod q_i` and its 32-bit Shoup quotient
    /// `⌊w_i·2^32/q_i⌋`.
    hat_inv: [(u32, u32); DCP_MAX_LIMBS],
    /// `hat[j][i]`: chunk `j` of `q̂_i`.
    hat: [[u32; DCP_MAX_LIMBS]; DCP_MAX_CHUNKS],
    /// Chunks of the widest `q̂_i`.
    hat_chunks: usize,
    /// Chunks of `k·Q`, the bound on `S`.
    sum_chunks: usize,
    /// `2c`-bit words of `S`: `⌈sum_chunks / 2⌉`.
    words: usize,
    /// `2^t·Q` in `2c`-bit words (low first), `t` descending to 0.
    q_multiples: [[u64; DCP_MAX_WORDS]; 3],
    /// `⌈log₂ k⌉`, the entries of `q_multiples` in use.
    rounds: usize,
}

impl DcpPlan {
    /// The plan for `ring` and `gadget`, or `None` when the chunked
    /// kernel does not apply and `Dcp` takes the wide route:
    /// `base_bits > 28`. Every basis `RnsBasis` accepts (limbs below
    /// `2^29`) fits the kernel's words at every chunk width.
    pub fn new(ring: &RingContext, gadget: &Gadget) -> Option<Self> {
        let basis = ring.basis();
        let (k, b) = (basis.len(), gadget.base_bits());
        if b > 28 {
            return None;
        }
        let c = b * (28 / b);
        // k ≤ 8 and Q < 2^120: the product fits.
        let bound = k as u128 * basis.q_big();
        let bits = |x: u128| 128 - x.leading_zeros();
        let chunks = |x: u128| bits(x).div_ceil(c).max(1) as usize;
        let sum_chunks = chunks(bound);
        let mask = (1u128 << c) - 1;
        let mut plan = DcpPlan {
            limbs: k,
            chunk_bits: c,
            q: [0; DCP_MAX_LIMBS],
            hat_inv: [(0, 0); DCP_MAX_LIMBS],
            hat: [[0; DCP_MAX_LIMBS]; DCP_MAX_CHUNKS],
            hat_chunks: 1,
            sum_chunks,
            words: sum_chunks.div_ceil(2),
            q_multiples: [[0; DCP_MAX_WORDS]; 3],
            rounds: k.next_power_of_two().trailing_zeros() as usize,
        };
        assert!(plan.words <= DCP_MAX_WORDS, "k·Q < 2^123 fits five words of 30 bits");
        for (i, modulus) in basis.moduli().iter().enumerate() {
            let (hat, inv) = (basis.qi_hat()[i], basis.qi_hat_inv()[i]);
            plan.q[i] = modulus.value() as u32;
            plan.hat_inv[i] = (inv.value as u32, (inv.quotient >> 32) as u32);
            plan.hat_chunks = plan.hat_chunks.max(chunks(hat));
            for (j, row) in plan.hat.iter_mut().enumerate().take(chunks(hat)) {
                row[i] = ((hat >> (j as u32 * c)) & mask) as u32;
            }
        }
        let word_mask = (1u128 << (2 * c)) - 1;
        for (t, slot) in (0..plan.rounds).rev().zip(&mut plan.q_multiples) {
            let multiple = basis.q_big() << t;
            for (w, word) in slot.iter_mut().enumerate().take(plan.words) {
                *word = ((multiple >> (w as u32 * 2 * c)) & word_mask) as u64;
            }
        }
        Some(plan)
    }

    /// The `2c`-bit words the kernel carries `S` in: `⌈bits(k·Q) / 2c⌉`.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }
}

/// `r⁻¹ mod 2n` for odd `r` (`2n` a power of two): Newton's iteration
/// doubles the correct low bits from the three of `r·r ≡ 1 (mod 8)`.
fn inv_mod_two_n(r: usize, n: usize) -> usize {
    let mut inv = r;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2usize.wrapping_sub(r.wrapping_mul(inv)));
    }
    inv & (2 * n - 1)
}

/// The chunked iCRT→digit kernel (bounds in [`DcpPlan`]), the body every
/// non-oracle backend runs: portable code with no `u128` and no
/// data-dependent branch, in which every step is a plain loop over the
/// slots of an L1-sized tile — the shape the auto-vectorizer handles —
/// written to be inlined into a `#[target_feature]` wrapper so the
/// vector backends get it compiled for their ISA. Per tile of output
/// slots `e`:
///
/// 1. per limb, gather the residue `τ_r` puts there — `r_i` of source
///    coefficient `e·r⁻¹ mod 2n`, as `q_i − r_i` where that index is
///    `≥ n` (`X^n = −1`, and `−x mod Q` has residues `−x_i mod q_i`) —
///    and scale it by `q̂_i⁻¹` with the 32-bit Shoup quotient: the lazy
///    product is below `q_i·(1 + v/2^32) ≤ 2q_i` for any `v ≤ q_i`, so
///    the negated zero `q_i` needs no special case;
/// 2. accumulate the chunk sums and carry them into the `2c`-bit words
///    of `S` (`⌈bits(k·Q) / 2c⌉` of them: two at `c = 28`, three at
///    `c = 22` on the Table I ring);
/// 3. per multiple `2^t·Q`, run the borrow chain of `S − 2^t·Q` through
///    the words, and keep the difference where the chain ends without a
///    borrow;
/// 4. shift each digit row out of its word.
///
/// `coeff` is `k × n` canonical residues in 4-byte words, `out` is
/// `ℓ × n`, `tau` is odd; the caller ([`dcp_dispatch`]) has checked all
/// three.
#[inline(always)]
fn dcp_chunked(
    plan: &DcpPlan,
    gadget: &Gadget,
    coeff: &[u32],
    tau: Option<usize>,
    out: &mut [u32],
) {
    // The word count as a constant, so step 3's chain unrolls in
    // registers; words past the plan's are zero throughout.
    match plan.words {
        0..=2 => dcp_words::<2>(plan, gadget, coeff, tau, out),
        3 => dcp_words::<3>(plan, gadget, coeff, tau, out),
        4 => dcp_words::<4>(plan, gadget, coeff, tau, out),
        _ => dcp_words::<DCP_MAX_WORDS>(plan, gadget, coeff, tau, out),
    }
}

/// [`dcp_chunked`] carrying `S` in `W ≥ plan.words` words.
#[inline(always)]
fn dcp_words<const W: usize>(
    plan: &DcpPlan,
    gadget: &Gadget,
    coeff: &[u32],
    tau: Option<usize>,
    out: &mut [u32],
) {
    let k = plan.limbs;
    let n = coeff.len() / k;
    let c = plan.chunk_bits;
    let (chunk_mask, word_mask) = ((1u64 << c) - 1, (1u64 << (2 * c)) - 1);
    let digit_mask = (1u64 << gadget.base_bits()) - 1;
    // Output slot e reads source index (e·step) mod 2n; bit log n of
    // that is the sign.
    let step = tau.map_or(1, |r| inv_mod_two_n(r % (2 * n), n));
    let tile = n.min(DCP_TILE);
    let mut y = [[0u32; DCP_TILE]; DCP_MAX_LIMBS];
    let mut s = [[0u64; DCP_TILE]; W];
    let mut acc = [0u64; DCP_TILE];
    let acc = &mut acc[..tile];
    for e in (0..n).step_by(tile) {
        for (i, row) in coeff.chunks_exact(n).enumerate() {
            let (q, (w, w_quot)) = (plan.q[i], plan.hat_inv[i]);
            let mut walk = e.wrapping_mul(step);
            for y in &mut y[i][..tile] {
                let at = walk & (2 * n - 1);
                walk = walk.wrapping_add(step);
                let r = row[at & (n - 1)];
                let v = u64::from(if at >= n { q - r } else { r });
                let est = (v * u64::from(w_quot)) >> 32;
                let lazy = v * u64::from(w) - est * u64::from(q);
                *y = (lazy - if lazy >= u64::from(q) { u64::from(q) } else { 0 }) as u32;
            }
        }
        acc.fill(0);
        for word in &mut s {
            word.fill(0);
        }
        for j in 0..plan.sum_chunks {
            if j < plan.hat_chunks {
                for (yi, &h) in y[..k].iter().zip(&plan.hat[j]) {
                    for (acc, &y) in acc.iter_mut().zip(&yi[..tile]) {
                        *acc += u64::from(y) * u64::from(h);
                    }
                }
            }
            let shift = (j as u32 % 2) * c;
            for (word, acc) in s[j / 2][..tile].iter_mut().zip(acc.iter_mut()) {
                *word |= (*acc & chunk_mask) << shift;
                *acc >>= c;
            }
        }
        for multiple in &plan.q_multiples[..plan.rounds] {
            for slot in 0..tile {
                let (mut borrow, mut trial) = (0, [0u64; W]);
                for ((t, s), &m) in trial.iter_mut().zip(&s).zip(multiple) {
                    let d = s[slot].wrapping_sub(m).wrapping_sub(borrow);
                    (borrow, *t) = (d >> 63, d & word_mask);
                }
                // All ones where the chain borrowed: keep `S`.
                let keep = borrow.wrapping_neg();
                for (s, t) in s.iter_mut().zip(trial) {
                    s[slot] = (s[slot] & keep) | (t & !keep);
                }
            }
        }
        for (j, digits) in out.chunks_exact_mut(n).enumerate() {
            let at = j * gadget.base_bits() as usize;
            let (word, shift) = (at / (2 * c as usize), (at % (2 * c as usize)) as u32);
            let digits = &mut digits[e..e + tile];
            match s.get(word) {
                Some(word) => {
                    for (d, &word) in digits.iter_mut().zip(&word[..tile]) {
                        *d = ((word >> shift) & digit_mask) as u32;
                    }
                }
                None => digits.fill(0),
            }
        }
    }
}

/// `icrt_decompose` of every backend but the oracle: checks the shapes,
/// then runs `body` — the backend's instantiation of [`dcp_chunked`] —
/// where a [`DcpPlan`] exists, and [`scalar::dcp_wide`] elsewhere. The
/// choice depends on the ring and the gadget alone.
fn dcp_dispatch(
    ring: &RingContext,
    coeff: &[u32],
    tau: Option<usize>,
    gadget: &Gadget,
    arena: &mut KernelArena,
    out: &mut [u32],
    body: fn(&DcpPlan, &Gadget, &[u32], Option<usize>, &mut [u32]),
) {
    let Some(plan) = DcpPlan::new(ring, gadget) else {
        return scalar::dcp_wide(ring, coeff, tau, gadget, arena, out);
    };
    let (n, k) = (ring.n(), ring.basis().len());
    assert_eq!(coeff.len(), k * n);
    assert_eq!(out.len(), gadget.ell() * n);
    crate::metrics::count_icrt_coeffs(n as u64);
    if let Some(r) = tau {
        assert!(r % 2 == 1, "automorphism exponent must be odd");
        crate::metrics::count_auto_coeffs((k * n) as u64);
    }
    body(&plan, gadget, coeff, tau, out);
}

/// The constants of the portable word fold for one modulus `q < 2^32`,
/// every one below `2^32` so that each product of [`FoldPlan::fold`] is a
/// 32×32→64 one — the only multiplier AVX2 and AVX-512F have.
///
/// A lazy accumulator is any `x = hi·2^32 + lo < 2^64`. With
/// `c = 2^32 mod q`, `x ≡ hi·c + lo`; the product `hi·c` is taken by Shoup
/// with the 32-bit quotient `⌊c·2^32/q⌋` (`hi < 2^32`, so the estimate is
/// short by less than 2 and the lazy product lies in `[0, 2q)`), which
/// leaves `t = [hi·c] + lo < 2q + 2^32`. `t` is reduced by a Barrett
/// estimate on its top bits: with `s = bits(q) − 1` and
/// `μ = ⌊2^(s+32)/q⌋ ∈ [2^31, 2^32)`, `est = ⌊⌊t/2^s⌋·μ / 2^32⌋` satisfies
/// `⌊t/q⌋ − 2 ≤ est ≤ ⌊t/q⌋` — the truncations lose less than
/// `t/2^(s+32) + 2^s/q + 1 < 2.5 + 2^-30` — and `⌊t/2^s⌋ < 2^32`, so
/// `t − est·q < 3q` and two conditional subtractions finish the canonical
/// residue. Five products per word, no `u128`, no branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldPlan {
    q: u32,
    /// `c = 2^32 mod q`.
    c: u32,
    /// `⌊c·2^32/q⌋`.
    c_quot: u32,
    /// `s = bits(q) − 1`.
    shift: u32,
    /// `μ = ⌊2^(s+32)/q⌋`.
    mu: u32,
}

impl FoldPlan {
    /// The plan for `modulus`, or `None` for `q ≥ 2^32`, which has no lazy
    /// headroom in a `u64` ([`Modulus::lazy_terms`] is 1).
    pub(crate) fn new(modulus: &Modulus) -> Option<Self> {
        let q = modulus.value();
        if modulus.bits() > 32 {
            return None;
        }
        let (c, shift) = ((1u64 << 32) % q, modulus.bits() - 1);
        Some(FoldPlan {
            q: q as u32,
            c: c as u32,
            c_quot: ((c << 32) / q) as u32,
            shift,
            mu: ((1u64 << (shift + 32)) / q) as u32,
        })
    }

    /// `x mod q` for any `x`.
    #[inline(always)]
    pub(crate) fn fold(&self, x: u64) -> u64 {
        let q = u64::from(self.q);
        let (hi, lo) = (x >> 32, x & 0xffff_ffff);
        let est = (hi * u64::from(self.c_quot)) >> 32;
        let t = hi * u64::from(self.c) - est * q + lo;
        // `⌊t/2^s⌋ < 2^32`: the mask only tells the compiler so.
        let est = (((t >> self.shift) & 0xffff_ffff) * u64::from(self.mu)) >> 32;
        cond_sub(cond_sub(t - est * q, q), q)
    }
}

/// The body of [`VpeBackend::fold_lazy`] on every backend but the oracle
/// for `q < 2^32` ([`FoldPlan`]): portable code whose one loop the
/// auto-vectorizer handles, written to be inlined into a
/// `#[target_feature]` wrapper so the vector backends get it compiled for
/// their ISA.
#[inline(always)]
pub(crate) fn fold_words(plan: &FoldPlan, acc: &mut [u64]) {
    for x in acc.iter_mut() {
        *x = plan.fold(*x);
    }
}

/// The constants of the vector backends' Barrett for one modulus
/// `q < 2^29` — the reduction of [`barrett_words`], which serves
/// [`VpeBackend::fma`] and [`VpeBackend::pointwise_mul`] — every one below
/// `2^32` so that each product is a 32×32→64 one.
///
/// With `m = bits(q)` and `μ = ⌊2^(m+29)/q⌋ < 2^30`, a product
/// `p = a·b + acc < q²` (canonical operands) has the quotient estimate
/// `est = ⌊⌊p/2^(m−1)⌋·μ / 2^30⌋` with `Q − 2 ≤ est ≤ Q` for `Q = ⌊p/q⌋`:
/// the truncations lose less than `p/2^(m+29) + 2^(m−1)/q + 1`, which
/// stays below 3 while `p/2^(m+29) < 1` — what `p < 2^2m` gives exactly
/// up to `m = 29`, where the bound is tight, and why no modulus above 29
/// bits takes this route. `⌊p/2^(m−1)⌋ < 2^(m+1) ≤ 2^30` and `est ≤ Q < q`,
/// so all three products are exact 32×32→64 ones, `p − est·q < 3q`, and
/// two conditional subtractions finish the canonical residue.
#[derive(Debug)]
struct BarrettPlan {
    q: u64,
    /// `m − 1`.
    shift: u32,
    /// `μ = ⌊2^(m+29)/q⌋`.
    mu: u64,
}

impl BarrettPlan {
    /// The plan for `modulus`, or `None` above 29 bits, which the vector
    /// backends hand to [`OptimizedBackend`]'s code.
    fn new(modulus: &Modulus) -> Option<Self> {
        let (q, m) = (modulus.value(), modulus.bits());
        (m <= 29).then(|| BarrettPlan { q, shift: m - 1, mu: (1u64 << (m + 29)) / q })
    }

    /// `p mod q` for `p < q²`. Every multiplicand is masked to 32 bits —
    /// the loop-invariant `μ` and `q` too: that mask is what lets LLVM
    /// take each product as one `vpmuludq` lane multiply; an operand it
    /// cannot prove narrow turns the product into a 64×64 one.
    #[inline(always)]
    fn reduce(&self, p: u64) -> u64 {
        const LOW: u64 = 0xffff_ffff;
        let (q, mu) = (self.q & LOW, self.mu & LOW);
        let est = (((p >> self.shift) & LOW) * mu) >> 30;
        let r = p - (est & LOW) * q;
        csub63(csub63(r, q), q)
    }
}

/// `x − q` where `x ≥ q`, else `x`, for `x, q < 2^63`: a signed compare,
/// because AVX2 has one for 64-bit lanes and no unsigned one. The select
/// is marked unpredictable — a residue's high bits are data — so the
/// scalar tail of a row (its last `n mod L` words) compiles to `cmov`,
/// not to the branch LLVM otherwise makes of a select in a loop.
#[inline(always)]
fn csub63(x: u64, q: u64) -> u64 {
    std::hint::select_unpredictable((x as i64) < (q as i64), x, x.wrapping_sub(q))
}

/// The body of [`VpeBackend::fma`] (`a` set: `x[i] = x[i] + a[i]·b[i]`)
/// and of [`VpeBackend::pointwise_mul`] (`a` none: `x[i] = x[i]·b[i]`, a
/// zero accumulate) mod `q < 2^29` on the vector backends
/// ([`BarrettPlan`]): portable code whose loops the auto-vectorizer
/// handles, instantiated under `#[target_feature]` like [`fold_words`].
#[inline(always)]
fn barrett_words(plan: &BarrettPlan, x: &mut [u64], a: Option<&[u64]>, b: &[u64]) {
    const LOW: u64 = 0xffff_ffff;
    match a {
        Some(a) => {
            for ((x, &a), &b) in x.iter_mut().zip(a).zip(b) {
                *x = plan.reduce((a & LOW) * (b & LOW) + *x);
            }
        }
        None => {
            for (x, &b) in x.iter_mut().zip(b) {
                *x = plan.reduce((*x & LOW) * (b & LOW));
            }
        }
    }
}

/// A backend's instantiation of [`barrett_words`].
type BarrettBody = fn(&BarrettPlan, &mut [u64], Option<&[u64]>, &[u64]);

/// `fma` (`a` set) or `pointwise_mul` (`a` none) of a vector backend:
/// `body` — the backend's instantiation of [`barrett_words`] — where the
/// backend's CPU feature was `detected` and `q < 2^29`, after the shape
/// checks and the op-metrics charge; [`OptimizedBackend`]'s code (which
/// does both itself) elsewhere.
fn barrett_dispatch(
    detected: bool,
    modulus: &Modulus,
    x: &mut [u64],
    a: Option<&[u64]>,
    b: &[u64],
    body: BarrettBody,
) {
    match (BarrettPlan::new(modulus).filter(|_| detected), a) {
        (None, Some(a)) => OptimizedBackend.fma(modulus, x, a, b),
        (None, None) => OptimizedBackend.pointwise_mul(modulus, x, b),
        (Some(plan), a) => {
            assert_eq!(x.len(), b.len());
            assert!(a.is_none_or(|a| a.len() == x.len()), "row lengths differ");
            crate::metrics::count_pointwise_macs(x.len() as u64);
            body(&plan, x, a, b)
        }
    }
}

/// The body of [`VpeBackend::branch_lazy`] on every backend but the
/// oracle, in one pass over the limb row: fold the lazy word
/// ([`FoldPlan::fold`], the whole of [`fold_words`]), add and subtract it
/// from the node's word, and take the difference times the monomial by
/// Shoup with the 32-bit quotient (`d < q`, so the lazy product is below
/// `2q` for any `q < 2^32`). Instantiated per ISA like [`fold_words`].
#[inline(always)]
fn branch_words(
    plan: &FoldPlan,
    acc: &[u64],
    x: &mut [u32],
    odd: &mut [u32],
    monomial: ShoupRow<'_>,
) {
    let q = u64::from(plan.q);
    let rows = x.iter_mut().zip(odd.iter_mut()).zip(monomial.value.iter().zip(monomial.quotient));
    for (&lazy, ((x, odd), (&w, &w_quot))) in acc.iter().zip(rows) {
        let (s, v) = (plan.fold(lazy), u64::from(*x));
        let d = cond_sub(v + q - s, q) & 0xffff_ffff;
        let est = (d * u64::from(w_quot)) >> 32;
        *odd = cond_sub(d * u64::from(w) - est * q, q) as u32;
        *x = cond_sub(v + s, q) as u32;
    }
}

/// [`VpeBackend::fold_lazy`] of every backend but the oracle: `body` — the
/// backend's instantiation of [`fold_words`] — for `q < 2^32`; a wider
/// modulus (no ring has one) reduces each word by its remainder.
fn fold_dispatch(modulus: &Modulus, acc: &mut [u64], body: fn(&FoldPlan, &mut [u64])) {
    match FoldPlan::new(modulus) {
        Some(plan) => body(&plan, acc),
        None => {
            for x in acc.iter_mut().filter(|x| **x >= modulus.value()) {
                *x = modulus.reduce_u128(u128::from(*x));
            }
        }
    }
}

/// Asserts the rows of a [`VpeBackend::branch_lazy`] call are one length
/// and the modulus fits their 4-byte words, and charges the monomial
/// product (one MAC per element, as `pointwise_mul` does) — the shared
/// prologue of every implementation; the plan is what [`branch_words`]
/// runs on.
fn check_branch_rows(
    modulus: &Modulus,
    acc: &[u64],
    x: &[u32],
    odd: &[u32],
    monomial: ShoupRow<'_>,
) -> FoldPlan {
    let plan = FoldPlan::new(modulus).expect("a 4-byte ciphertext row needs q < 2^32");
    let len = acc.len();
    assert_eq!((x.len(), odd.len()), (len, len));
    assert_eq!((monomial.value.len(), monomial.quotient.len()), (len, len));
    crate::metrics::count_pointwise_macs(len as u64);
    plan
}

/// The hot kernels of the PIR pipeline, per residue limb.
///
/// All slices are flat limb rows of one length `n` with elements in
/// `[0, q)` — `u64` words for the modulus-level kernels and the
/// accumulators, 4-byte words for the transforms, `Dcp`'s input and the
/// MAC's operands; outputs are always fully reduced. Implementations must
/// be bit-identical to [`ScalarBackend`] (enforced by differential
/// property tests).
pub trait VpeBackend: Send + Sync + core::fmt::Debug {
    /// Backend name for configs, logs, and bench JSON.
    fn name(&self) -> &'static str;

    /// Fused multiply-accumulate `acc[i] = acc[i] + a[i]·b[i] (mod q)` —
    /// the `RowSel` inner loop and the gadget-GEMM contraction.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]);

    /// Pointwise product `a[i] = a[i]·b[i] (mod q)`.
    ///
    /// # Panics
    /// Panics if the slice lengths differ.
    fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]);

    /// In-place forward negacyclic NTT of one limb row in 4-byte words (a
    /// `u64` row takes the shared [`ntt_forward`](#method.ntt_forward)).
    /// Canonical residues in, canonical out; charges one residue NTT.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32]);

    /// In-place inverse negacyclic NTT of one limb row in 4-byte words,
    /// including the `n^{-1}` scaling (a `u64` row takes the shared
    /// [`ntt_inverse`](#method.ntt_inverse)). Canonical residues in,
    /// canonical out; charges one residue NTT.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_inverse_narrow(&self, table: &NttTable, a: &mut [u32]);

    /// Gadget decomposition `Dcp` (Fig. 3) from RNS words to digit rows:
    /// iCRT every coefficient of the coefficient-form `k × n` matrix
    /// `coeff` (canonical residues in 4-byte words) — through the
    /// automorphism `τ_r : X → X^r` when `tau` is set, exactly as
    /// [`RingContext::icrt_words_into`] composes it —
    /// and split it into `ℓ` base-`z` digits, written digit-major into
    /// `out` (`out[j·n + e]` is digit `j` of coefficient slot `e`; a digit
    /// is below `z ≤ 2^27`, so the rows are 4-byte words).
    /// Charges `n` iCRT coefficients and, with `tau`, `k·n` automorphism
    /// coefficients.
    ///
    /// [`ScalarBackend`] takes the wide route (`u128` coefficients from
    /// `arena`, then a coefficient-major digit split); the other
    /// backends run `dcp_chunked` wherever [`DcpPlan::new`] accepts the
    /// ring and gadget, and the wide route elsewhere.
    ///
    /// # Panics
    /// Panics if `coeff.len() != k·n`, `out.len() != ℓ·n`, or `tau` is
    /// even.
    fn icrt_decompose(
        &self,
        ring: &RingContext,
        coeff: &[u32],
        tau: Option<usize>,
        gadget: &Gadget,
        arena: &mut KernelArena,
        out: &mut [u32],
    );

    /// Lazy dual multiply-accumulate — the inner step of every modular
    /// dot product in the pipeline: `RowSel`'s scan (database word ×
    /// `ea`/`eb`, 4 + 4 + 4 bytes per product pair) and a digit tile
    /// against a [`GadgetRows`] store's rows (`Subs`, `⊡`, CMux). Each
    /// term `(w, ea, eb)` is one shared multiplicand row and the two rows
    /// it multiplies, all in 4-byte words; one pass over the accumulators
    /// absorbs **all** the terms handed in,
    /// `acc_a[i] ≡ acc_a[i] + Σ_t w_t[i]·ea_t[i]` and
    /// `acc_b[i] ≡ acc_b[i] + Σ_t w_t[i]·eb_t[i]` (mod `q`), **without
    /// reducing**: the accumulators are plain `u64` sums of exact 64-bit
    /// products, congruent to the dot product but not canonical until
    /// [`VpeBackend::fold_lazy`] runs, and they ride in registers across
    /// the terms of a call (hand in [`MAC_FAN_IN`] at a time). The caller
    /// owes a fold before more than [`Modulus::lazy_terms`] terms pile
    /// onto a folded (or zero) accumulator; that bound is what keeps the
    /// sums from wrapping. Operand rows are canonical (`< q`); charges two
    /// MACs per element per term. The default is the portable body
    /// `mac2_words` at eight words a chunk; the vector backends run it
    /// compiled under `#[target_feature]` at sixteen.
    ///
    /// # Panics
    /// Panics if `q ≥ 2^32` or any slice length differs from
    /// `acc_a.len()`.
    fn mac2_lazy(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        terms: &[MacTerm<'_>],
    ) {
        check_mac_terms(modulus, acc_a.len(), acc_b, terms);
        mac2_words::<8>(acc_a, acc_b, terms);
    }

    /// Folds lazy accumulators back to canonical form:
    /// `acc[i] = acc[i] mod q` for any `u64` input. The oracle takes a
    /// remainder per word; every other backend runs one portable body
    /// (`fold_words`: 32×32→64 products only, bounds in `FoldPlan`) for
    /// `q < 2^32`, which the vector backends instantiate under
    /// `#[target_feature]`.
    fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]);

    /// The `ExpandQuery` node epilogue on one limb row, while the lazy
    /// sums are hot: with `s = acc[i] mod q` (the fold of
    /// [`VpeBackend::fold_lazy`]) and `x[i]` the node's canonical word,
    /// `x[i] ← x[i] + s` (the even child, in place) and
    /// `odd[i] ← (x[i] − s)·monomial[i]` (the odd child), all mod `q`
    /// and canonical, in 4-byte words. `acc` is read, not written.
    /// Charges one MAC per element for the monomial product, as
    /// [`VpeBackend::pointwise_mul`] does. The oracle composes remainder,
    /// add, subtract and a 128-bit product per word; every other backend
    /// runs one portable body (`branch_words`) whose first third is the
    /// fold's.
    ///
    /// # Panics
    /// Panics if `q ≥ 2^32` or any row length differs from `acc.len()`.
    fn branch_lazy(
        &self,
        modulus: &Modulus,
        acc: &[u64],
        x: &mut [u32],
        odd: &mut [u32],
        monomial: ShoupRow<'_>,
    );
}

/// Best-effort estimate of the last-level cache size in bytes, probed
/// once per process (Linux sysfs `cpu0/cache`, highest level present)
/// with a conservative 32 MiB fallback when the hierarchy cannot be
/// read. Benchmarks size their DRAM probes and judge whether a database
/// is cache-resident against this.
pub fn effective_llc_bytes() -> usize {
    static LLC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| {
        const FALLBACK: usize = 32 << 20;
        let mut best: Option<(u32, usize)> = None;
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else { break };
            let Ok(level) = level.trim().parse::<u32>() else { continue };
            let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else { continue };
            let size = size.trim();
            let (digits, unit) =
                size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
            let Ok(value) = digits.parse::<usize>() else { continue };
            let bytes = match unit.trim() {
                "" => value,
                "K" | "KB" | "k" => value << 10,
                "M" | "MB" | "m" => value << 20,
                "G" | "GB" | "g" => value << 30,
                _ => continue,
            };
            if best.is_none_or(|(l, _)| level >= l) {
                best = Some((level, bytes));
            }
        }
        match best {
            Some((_, bytes)) if bytes > 0 => bytes,
            _ => FALLBACK,
        }
    })
}

/// The `u64` NTT pair, one definition for every backend: a limb row of
/// `u64` words (an [`RnsPoly`]'s) is narrowed into a thread-local 4-byte
/// row, transformed there by the backend's 4-byte kernel and widened back.
/// A residue is below `2^29`, so the round trip is exact; a warm call
/// allocates nothing.
impl dyn VpeBackend + '_ {
    /// In-place forward negacyclic NTT of one canonical limb row.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    pub fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
        through_narrow_row(a, |row| self.ntt_forward_narrow(table, row));
    }

    /// In-place inverse negacyclic NTT of one canonical limb row,
    /// including the `n^{-1}` scaling.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    pub fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
        through_narrow_row(a, |row| self.ntt_inverse_narrow(table, row));
    }
}

/// Runs `transform` on `a` narrowed into the thread's 4-byte row, and
/// widens the result back into `a`.
fn through_narrow_row(a: &mut [u64], transform: impl FnOnce(&mut [u32])) {
    thread_local!(static ROW: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) });
    ROW.with_borrow_mut(|row| {
        row.clear();
        row.extend(a.iter().map(|&x| x as u32));
        transform(row);
        for (x, &w) in a.iter_mut().zip(row.iter()) {
            *x = u64::from(w);
        }
    });
}

/// The gadget rows a client sends and the key-switch GEMM
/// ([`TileSink::Mac`]) multiplies digit tiles into: `T` NTT-form RLWE
/// rows `(a, b)` of one ring — the `ℓ` rows of an evaluation key `evk_r`,
/// or the `2ℓ` rows of an RGSW ciphertext (§II-C, §II-D). Both are held
/// once, in the order the GEMM walks them: limb, then term, then the
/// term's `a` row and `b` row, `n` words each — 4-byte words, the
/// digit tiles' word, one residue each.
#[derive(Debug, Clone, PartialEq)]
pub struct GadgetRows {
    ring: Arc<RingContext>,
    terms: usize,
    words: Vec<u32>,
}

impl Eq for GadgetRows {}

/// Term `t` of a store's words as a fresh sample's destination.
struct TermRows<'a> {
    words: &'a mut [u32],
    terms: usize,
    n: usize,
    t: usize,
}

impl SampleRows for TermRows<'_> {
    type Word = u32;

    fn limb(&mut self, m: usize) -> (&mut [u32], &mut [u32]) {
        self.words[(m * self.terms + self.t) * 2 * self.n..][..2 * self.n].split_at_mut(self.n)
    }
}

/// What writes a [`GadgetRows`] store's rows in place
/// ([`GadgetRows::try_fill`]): fresh samples, or the wire decoder's row
/// reader.
pub trait RowSource {
    /// Why a row could not be written.
    type Error;

    /// Writes row `t` (rows come in order) through `out`, whose
    /// [`SampleRows::limb`] are the row's mask and body words of limb
    /// `m`, canonical residues, `n` each.
    ///
    /// # Errors
    /// Whatever stops the source; the store is then dropped.
    fn row<O: SampleRows>(&mut self, t: usize, out: &mut O) -> Result<(), Self::Error>;
}

/// One fresh sample a row, row `t` carrying the `t`-th term, as a
/// [`RowSource`].
struct Fresh<'a, I, R: ?Sized> {
    ring: &'a RingContext,
    secret: (&'a [u64], u32),
    terms: I,
    masks: &'a mut MaskStream,
    rng: &'a mut R,
}

impl<'t, I, R> RowSource for Fresh<'_, I, R>
where
    I: Iterator<Item = Term<'t>>,
    R: RngCore + ?Sized,
{
    type Error = core::convert::Infallible;

    fn row<O: SampleRows>(&mut self, _: usize, out: &mut O) -> Result<(), Self::Error> {
        let term = self.terms.next().expect("one term a row");
        let (s, eta) = self.secret;
        fresh_sample(self.ring, s, eta, term, self.masks, self.rng, out);
        Ok(())
    }
}

/// Rows of NTT-form polynomials as a [`RowSource`].
struct Pairs<'a>(&'a [(RnsPoly, RnsPoly)]);

impl RowSource for Pairs<'_> {
    type Error = core::convert::Infallible;

    fn row<O: SampleRows>(&mut self, t: usize, out: &mut O) -> Result<(), Self::Error> {
        let (a, b) = &self.0[t];
        for m in 0..a.ctx().basis().len() {
            let (a_out, b_out) = out.limb(m);
            for (dst, src) in [(a_out, a.residue(m)), (b_out, b.residue(m))] {
                dst.iter_mut().zip(src).for_each(|(d, &w)| *d = SampleWord::from_residue(w));
            }
        }
        Ok(())
    }
}

impl GadgetRows {
    /// One fresh sample per item of `terms` under the NTT-form secret `s`
    /// (flat `k × n`) with noise parameter `eta`, written straight into the
    /// store's words: sample `t` takes its mask as the next draw of
    /// `masks`, its noise from `rng`, and carries the `t`-th term
    /// ([`fresh_sample`]).
    pub fn sample<'t, R: RngCore + ?Sized>(
        ring: &Arc<RingContext>,
        (s, eta): (&[u64], u32),
        terms: impl ExactSizeIterator<Item = Term<'t>>,
        masks: &mut MaskStream,
        rng: &mut R,
    ) -> Self {
        let count = terms.len();
        let mut source = Fresh { ring, secret: (s, eta), terms, masks, rng };
        let Ok(store) = Self::try_fill(ring, count, &mut source);
        store
    }

    /// Packs `rows` — NTT-form `(a, b)` polynomials of one ring, at least
    /// one — into a store.
    ///
    /// # Panics
    /// Panics if `rows` is empty, or its polynomials are not all in NTT
    /// form over one ring.
    pub fn from_pairs(rows: &[(RnsPoly, RnsPoly)]) -> Self {
        let ring = Arc::clone(rows.first().expect("a store has at least one row").0.ctx());
        assert!(
            rows.iter()
                .flat_map(|(a, b)| [a, b])
                .all(|p| p.ctx() == &ring && p.form() == Form::Ntt),
            "gadget rows: one ring, NTT form"
        );
        let Ok(store) = Self::try_fill(&ring, rows.len(), &mut Pairs(rows));
        store
    }

    /// A store of `terms` NTT-form rows of `ring` that `source` writes
    /// straight into the store's words, row by row (the wire decoder's
    /// constructor).
    ///
    /// # Errors
    /// The first error of `source`.
    pub fn try_fill<S: RowSource>(
        ring: &Arc<RingContext>,
        terms: usize,
        source: &mut S,
    ) -> Result<Self, S::Error> {
        let n = ring.n();
        let mut words = vec![0; 2 * terms * ring.basis().len() * n];
        for t in 0..terms {
            source.row(t, &mut TermRows { words: &mut words, terms, n, t })?;
        }
        Ok(GadgetRows { ring: Arc::clone(ring), terms, words })
    }

    /// The ring of every row.
    #[inline]
    pub fn ring(&self) -> &Arc<RingContext> {
        &self.ring
    }

    /// The number of rows `T`.
    #[inline]
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// Half `half` (0 the mask `a`, 1 the body `b`) of row `t`, rebuilt as
    /// an NTT-form polynomial.
    fn poly(&self, t: usize, half: usize) -> RnsPoly {
        assert!(t < self.terms, "row {t} of {}", self.terms);
        let (n, k) = (self.ring.n(), self.ring.basis().len());
        let mut words = Vec::with_capacity(k * n);
        for m in 0..k {
            let at = ((m * self.terms + t) * 2 + half) * n;
            words.extend(self.words[at..at + n].iter().map(|&x| u64::from(x)));
        }
        RnsPoly::from_words(&self.ring, Form::Ntt, words).expect("k·n words")
    }

    /// The body `b` of row `t`, rebuilt as an NTT-form polynomial — what
    /// the wire carries of a fresh row.
    ///
    /// # Panics
    /// Panics if `t` is not a row.
    pub fn body(&self, t: usize) -> RnsPoly {
        self.poly(t, 1)
    }

    /// The rows `(a, b)`, rebuilt as NTT-form polynomials (what
    /// [`GadgetRows::from_pairs`] took) — for tests and the client's own
    /// checks; the GEMM reads the packed words.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = (RnsPoly, RnsPoly)> + '_ {
        (0..self.terms).map(|t| (self.poly(t, 0), self.poly(t, 1)))
    }
}

/// What [`dcp_tiles`] does with each NTT'd digit tile.
pub enum TileSink<'a> {
    /// Widen it into its place in the flat `T × k × n` matrix (term-major,
    /// then limb-major), overwritten in full.
    Matrix(&'a mut [u64]),
    /// The gadget GEMM `(1 × T)·(T × 2)`: lazy-MAC it against its term's
    /// rows into the limb's two `u64` accumulator rows —
    /// `acc_a += Σ_t tile_t ⊙ a_t`, `acc_b += Σ_t tile_t ⊙ b_t`, folded
    /// whenever [`Modulus::lazy_terms`] would be exceeded — and close the
    /// limb as `finish` says while the two rows are still hot.
    Mac {
        /// The `T` rows the tiles meet.
        rows: &'a GadgetRows,
        /// Where the sums start and where they end up.
        finish: MacFinish<'a>,
    },
}

/// How [`TileSink::Mac`] closes a limb of the gadget GEMM. The caller's
/// kind of output decides: canonical `u64` words it goes on computing
/// with, or the two 4-byte children of an `ExpandQuery` node.
pub enum MacFinish<'a> {
    /// The sums land on two flat `k × n` accumulators, canonical on entry
    /// (zero, or a value the sum is added onto) and canonical on return:
    /// one [`VpeBackend::fold_lazy`] per row and limb at the end. `Subs`
    /// into `u64` words, `⊡`, KsPIR's trace.
    Fold {
        /// The mask accumulator.
        acc_a: &'a mut [u64],
        /// The body accumulator.
        acc_b: &'a mut [u64],
    },
    /// The `ExpandQuery` tree: the pipeline's source is `τ_r(a)` of `node`.
    Branch(Branch<'a>),
}

/// One `ExpandQuery` node and where its children go ([`MacFinish::Branch`]).
/// Per limb, the sums `s = (0, τ_r(b)) + evk_r·Dcp(τ_r(a))` — `Subs` of the
/// node — accumulate in two `n`-word rows from the arena, the body row
/// seeded with the limb's `τ_r(b)` gathered from `node` before that limb of
/// `node` is overwritten; then [`VpeBackend::branch_lazy`] writes the even
/// child `node + s` over the node's limb and the odd child
/// `(node − s)·monomial` into `odd`'s, as 4-byte words. No `Subs` output
/// buffer exists. Charges `k·n` automorphism coefficients for the gather.
pub struct Branch<'a> {
    /// The node `[a | b]`, `2·k·n` canonical NTT-form words; the even child
    /// on return.
    pub node: &'a mut [u32],
    /// The odd child's slot, `2·k·n` words overwritten in full.
    pub odd: &'a mut [u32],
    /// `τ_r` as an NTT-domain index permutation
    /// ([`crate::poly::automorphism_ntt_map`]), `n` entries.
    pub tau_map: &'a [u32],
    /// The odd branch's multiplier.
    pub monomial: &'a ShoupWords,
}

/// Digit tiles one pass over a limb's accumulators absorbs: the tiles and
/// the key rows they meet (six streams) stay within what the hardware
/// prefetchers track, and the accumulator traffic per product halves.
const TILE_FAN_IN: usize = 2;

/// The key-switch pipeline, from coefficient-form words to the sink:
/// `Dcp` every source — a flat `k × n` coefficient matrix of 4-byte
/// words, taken through
/// `τ_r` when its exponent is set ([`VpeBackend::icrt_decompose`]) — into
/// `ℓ` digit rows each, `T = sources.len()·ℓ` in source order; then, limb
/// by limb and row by row, lift the digit row into a tile of the limb
/// (reducing it where `z > q`), forward-NTT the tile while it is in L1 and
/// hand it to `sink`. The `T·k` transforms are those of a digit matrix in
/// the multiplication domain, but with [`TileSink::Mac`] that matrix never
/// exists: a tile is consumed by the gadget GEMM as soon as it is made,
/// and the limb-outer walk keeps a limb's two accumulator rows resident
/// across all `T` terms, until the sink's [`MacFinish`] closes the limb.
/// Tiles are 4-byte words, like the sink's [`GadgetRows`]. Digit rows,
/// tiles and a [`MacFinish::Branch`]'s two accumulator rows come from
/// `arena`.
///
/// # Errors
/// Fails when the gadget does not cover `Q`.
///
/// # Panics
/// Panics if a source is not `k·n` words, a sink buffer is not `T·k·n`
/// (matrix), `k·n` (accumulators) or `2·k·n` (a node and its odd child)
/// words, or the [`GadgetRows`] do not hold `T` rows of the ring's shape.
pub fn dcp_tiles(
    ring: &RingContext,
    gadget: &Gadget,
    sources: &[(&[u32], Option<usize>)],
    sink: TileSink<'_>,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<(), MathError> {
    gadget.check_covers(ring.basis().q_big())?;
    let rows = gadget.ell() * ring.n();
    let mut digits = arena.take_u32_stale(sources.len() * rows);
    for (&(coeff, tau), out) in sources.iter().zip(digits.chunks_exact_mut(rows)) {
        backend.icrt_decompose(ring, coeff, tau, gadget, arena, out);
    }
    sink_tiles(ring, gadget, &digits, sink, backend, arena);
    arena.give_u32(digits);
    Ok(())
}

/// The tile walk of [`dcp_tiles`] over the `T × n` digit rows.
fn sink_tiles(
    ring: &RingContext,
    gadget: &Gadget,
    digits: &[u32],
    mut sink: TileSink<'_>,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) {
    let (n, k) = (ring.n(), ring.basis().len());
    let (kn, terms) = (k * n, digits.len() / n);
    let mut lazy_rows = Vec::new();
    match &sink {
        TileSink::Matrix(out) => assert_eq!(out.len(), terms * kn),
        TileSink::Mac { rows, finish } => {
            assert_eq!(rows.words.len(), 2 * terms * kn, "the gadget rows are T rows of the ring");
            match finish {
                MacFinish::Fold { acc_a, acc_b } => {
                    assert_eq!((acc_a.len(), acc_b.len()), (kn, kn))
                }
                MacFinish::Branch(branch) => {
                    assert_eq!((branch.node.len(), branch.odd.len()), (2 * kn, 2 * kn));
                    assert_eq!(branch.tau_map.len(), n);
                    lazy_rows = arena.take_u64_stale(2 * n);
                }
            }
        }
    }
    let mut tiles = arena.take_u32_stale(TILE_FAN_IN * n);
    for (m, modulus) in ring.basis().moduli().iter().enumerate() {
        let (q, table) = (modulus.value(), ring.ntt(m));
        let tile_of = |tile: &mut [u32], row: &[u32]| {
            if gadget.base() <= u128::from(q) {
                // Digits are `< z ≤ 2^27 < q` for the special primes.
                tile.copy_from_slice(row);
            } else {
                for (t, &d) in tile.iter_mut().zip(row) {
                    *t = (u64::from(d) % q) as u32;
                }
            }
            backend.ntt_forward_narrow(table, tile);
        };
        let seg = m * n..(m + 1) * n;
        match &mut sink {
            TileSink::Matrix(out) => {
                for (t, row) in digits.chunks_exact(n).enumerate() {
                    let tile = &mut tiles[..n];
                    tile_of(tile, row);
                    let at = (t * k + m) * n;
                    for (dst, &x) in out[at..at + n].iter_mut().zip(tile.iter()) {
                        *dst = u64::from(x);
                    }
                }
            }
            TileSink::Mac { rows, finish } => {
                // The GEMM of limb `m` onto its two accumulator rows: tile
                // `i` of a pass meets term `first + i`'s rows of the limb.
                let row = |t: usize| rows.words[(m * terms + t) * 2 * n..][..2 * n].split_at(n);
                let mut gemm = |a: &mut [u64], b: &mut [u64]| {
                    let flush = modulus.lazy_terms();
                    let fan_in = TILE_FAN_IN.min(flush);
                    let mut pending = 0;
                    for first in (0..terms).step_by(fan_in) {
                        let len = fan_in.min(terms - first);
                        let group = digits[first * n..(first + len) * n].chunks_exact(n);
                        for (tile, row) in tiles.chunks_exact_mut(n).zip(group) {
                            tile_of(tile, row);
                        }
                        if pending + len > flush {
                            backend.fold_lazy(modulus, a);
                            backend.fold_lazy(modulus, b);
                            pending = 0;
                        }
                        let mut pass: [MacTerm<'_>; TILE_FAN_IN] = [(&[], &[], &[]); TILE_FAN_IN];
                        for (i, (slot, tile)) in
                            pass.iter_mut().zip(tiles.chunks_exact(n)).enumerate().take(len)
                        {
                            let (ra, rb) = row(first + i);
                            *slot = (tile, ra, rb);
                        }
                        backend.mac2_lazy(modulus, a, b, &pass[..len]);
                        pending += len;
                    }
                };
                match finish {
                    MacFinish::Fold { acc_a, acc_b } => {
                        let (a, b) = (&mut acc_a[seg.clone()], &mut acc_b[seg]);
                        gemm(a, b);
                        backend.fold_lazy(modulus, a);
                        backend.fold_lazy(modulus, b);
                    }
                    MacFinish::Branch(Branch { node, odd, tau_map, monomial }) => {
                        let (a, b) = lazy_rows.split_at_mut(n);
                        let (node_a, node_b) = node.split_at_mut(kn);
                        let (odd_a, odd_b) = odd.split_at_mut(kn);
                        let (node_b, monomial) = (&mut node_b[seg.clone()], monomial.limb(m));
                        a.fill(0);
                        crate::metrics::count_auto_coeffs(n as u64);
                        for (x, &j) in b.iter_mut().zip(tau_map.iter()) {
                            *x = u64::from(node_b[j as usize]);
                        }
                        gemm(a, b);
                        let node_a = &mut node_a[seg.clone()];
                        backend.branch_lazy(modulus, a, node_a, &mut odd_a[seg.clone()], monomial);
                        backend.branch_lazy(modulus, b, node_b, &mut odd_b[seg], monomial);
                    }
                }
            }
        }
    }
    arena.give_u32(tiles);
    arena.give_u64(lazy_rows);
}

/// Whether the SIMD backend can actually run on this machine (AVX2
/// present and the crate was built for `x86_64`). Probed once per
/// process; every later call is a cached load.
#[inline]
pub fn simd_available() -> bool {
    simd::available()
}

/// Whether the AVX-512 backend can actually run on this machine
/// (`avx512f` present and the crate was built for `x86_64`). Probed once
/// per process; every later call is a cached load.
#[inline]
pub fn avx512_available() -> bool {
    avx512::available()
}

/// Whether the host reports AVX-512 IFMA beside `avx512f` — a host
/// description the benchmarks print; no kernel uses the 52-bit
/// multiplier, since every limb is below `2^29`.
#[inline]
pub fn avx512_ifma_available() -> bool {
    avx512::ifma_available()
}

/// Which [`VpeBackend`] a configuration selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The scalar reference backend (slow, oracle).
    Scalar,
    /// The portable Barrett/Shoup lazy-reduction backend.
    Optimized,
    /// The AVX2 wide-datapath backend. Falls back to [`Optimized`]
    /// (resolved once, at selection time) on hosts without AVX2, so
    /// requesting it is always safe; check [`simd_available`] to learn
    /// what actually runs.
    ///
    /// [`Optimized`]: BackendKind::Optimized
    Simd,
    /// The AVX-512 wide-datapath backend: eight lanes, fully vectorized
    /// NTT levels, and a sixteen-lane forward NTT on 4-byte words. Falls
    /// back through [`Simd`] to [`Optimized`] (resolved once, at
    /// selection time) on hosts without `avx512f`, so requesting it is
    /// always safe; check [`avx512_available`] to learn what actually
    /// runs.
    ///
    /// [`Simd`]: BackendKind::Simd
    /// [`Optimized`]: BackendKind::Optimized
    Avx512,
    /// Picks the fastest backend the host supports (the serving
    /// default): [`Avx512`] where `avx512f` is detected, [`Simd`] where
    /// only AVX2 is, [`Optimized`] everywhere else.
    ///
    /// [`Avx512`]: BackendKind::Avx512
    /// [`Simd`]: BackendKind::Simd
    /// [`Optimized`]: BackendKind::Optimized
    #[default]
    Auto,
}

/// All selectable kinds, in `Display` order — the single source for
/// `FromStr` error messages and round-trip tests.
pub const BACKEND_KINDS: [BackendKind; 5] = [
    BackendKind::Scalar,
    BackendKind::Optimized,
    BackendKind::Simd,
    BackendKind::Avx512,
    BackendKind::Auto,
];

impl BackendKind {
    /// Resolves the selection to a backend instance. `Simd` and `Auto`
    /// resolve through the cached runtime feature probe, so the returned
    /// reference never needs a per-call ISA branch.
    pub fn backend(self) -> &'static dyn VpeBackend {
        match self {
            BackendKind::Scalar => &ScalarBackend,
            BackendKind::Optimized => &OptimizedBackend,
            BackendKind::Simd => simd::best_available(),
            BackendKind::Avx512 | BackendKind::Auto => avx512::best_available(),
        }
    }

    /// The canonical config-file / CLI name of this kind (what
    /// `Display` prints and `FromStr` parses). Distinct from
    /// [`VpeBackend::name`], which reports what actually *runs* — on a
    /// host without AVX2, `BackendKind::Simd.as_str()` is `"simd"` while
    /// `BackendKind::Simd.backend().name()` is `"optimized"`.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Optimized => "optimized",
            BackendKind::Simd => "simd",
            BackendKind::Avx512 => "avx512",
            BackendKind::Auto => "auto",
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown [`BackendKind`] name: names
/// every valid variant so configs fail loudly instead of silently
/// defaulting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendKindError {
    /// The rejected input.
    pub unknown: String,
}

impl core::fmt::Display for ParseBackendKindError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown backend {:?}; valid backends are", self.unknown)?;
        for (i, kind) in BACKEND_KINDS.iter().enumerate() {
            write!(f, "{} \"{kind}\"", if i == 0 { "" } else { "," })?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseBackendKindError {}

impl core::str::FromStr for BackendKind {
    type Err = ParseBackendKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BACKEND_KINDS
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| ParseBackendKindError { unknown: s.to_string() })
    }
}

/// The backend every layer uses unless told otherwise (the [`Auto`]
/// resolution: the widest vector datapath the host supports).
///
/// [`Auto`]: BackendKind::Auto
#[inline]
pub fn default_backend() -> &'static dyn VpeBackend {
    BackendKind::default().backend()
}

/// Whole-polynomial pointwise product over all residue limbs
/// (`a ⊙= b` on flat `k × n` limb matrices, `n` inferred from the
/// length).
///
/// # Panics
/// Panics if lengths differ or are not a multiple of `moduli.len()`.
pub fn pointwise_mul_poly(backend: &dyn VpeBackend, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len() % moduli.len(), 0, "flat poly not a multiple of the limb count");
    let n = a.len() / moduli.len();
    for (m, modulus) in moduli.iter().enumerate() {
        backend.pointwise_mul(modulus, &mut a[m * n..(m + 1) * n], &b[m * n..(m + 1) * n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::str::FromStr;
    use rand::{Rng, SeedableRng};

    fn modulus() -> Modulus {
        Modulus::special_primes()[0]
    }

    fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    /// The in-crate NTT differential of a vector backend under `m`: for
    /// `n = 2 … 2^10`, both 4-byte transforms against the oracle's and
    /// the round trip. A table is refused only above 29 bits or where `2n`
    /// does not divide `q − 1`.
    fn check_ntt_pair(backend: &dyn VpeBackend, m: &Modulus, rng: &mut impl Rng) {
        for n in (1..=10).map(|log_n| 1usize << log_n) {
            let q = m.value();
            let Ok(table) = NttTable::new(m, n) else {
                assert!(m.bits() > 29 || !(q - 1).is_multiple_of(2 * n as u64), "q={q} n={n}");
                continue;
            };
            assert!(m.bits() <= 29, "a table over the {}-bit q={q}", m.bits());
            let orig: Vec<u32> = rand_row(n, q, rng).into_iter().map(|x| x as u32).collect();
            let (mut s, mut v) = (orig.clone(), orig.clone());
            ScalarBackend.ntt_forward_narrow(&table, &mut s);
            backend.ntt_forward_narrow(&table, &mut v);
            assert_eq!(s, v, "{} forward q={q} n={n}", backend.name());
            ScalarBackend.ntt_inverse_narrow(&table, &mut s);
            backend.ntt_inverse_narrow(&table, &mut v);
            assert_eq!((&s, &v), (&orig, &orig), "{} inverse q={q} n={n}", backend.name());
        }
    }

    /// Every backend this CPU runs but the oracle: the optimized one (the
    /// build's baseline target) and each vector backend whose feature was
    /// detected.
    fn available_backends() -> Vec<&'static dyn VpeBackend> {
        let mut found: Vec<&'static dyn VpeBackend> = vec![&OptimizedBackend];
        #[cfg(target_arch = "x86_64")]
        {
            if simd_available() {
                found.push(&SimdBackend);
            }
            if avx512_available() {
                found.push(&avx512::Avx512Backend);
            }
        }
        found
    }

    /// The NTT prime below `2^bits` the boundary tests take.
    fn prime_below(bits: u32) -> Modulus {
        let q = crate::prime::find_ntt_prime_below(bits, 1024)
            .unwrap_or_else(|| panic!("an NTT prime below 2^{bits} exists"));
        Modulus::new(q)
    }

    /// The boundary-straddling modulus pool: the special primes, a tiny
    /// NTT-ready prime, the widest prime the Barrett of `barrett_words`
    /// takes (29 bits), and primes of 30–51 bits, which the modulus-level
    /// kernels take through the optimized backend's code.
    fn boundary_moduli() -> Vec<Modulus> {
        let mut moduli = Modulus::special_primes().to_vec();
        moduli.push(Modulus::new(257));
        moduli.extend([29u32, 30, 32, 40, 50, 51].map(prime_below));
        moduli
    }

    /// The in-crate differential of `backend` against the oracle (the
    /// heavy matrix lives in tests/kernel_props.rs): every
    /// dispatch-boundary modulus, lengths that stress the four-, eight-
    /// and sixteen-lane tails, and NTT sizes through the fused passes and
    /// the small-ring delegation. Each backend's module runs it on its
    /// own instantiation.
    pub(super) fn check_fma_mul_and_ntt(backend: &dyn VpeBackend, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for m in boundary_moduli() {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 130, 255] {
                let a = rand_row(n, m.value(), &mut rng);
                let b = rand_row(n, m.value(), &mut rng);
                let acc0 = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (acc0.clone(), acc0.clone());
                ScalarBackend.fma(&m, &mut s, &a, &b);
                backend.fma(&m, &mut v, &a, &b);
                assert_eq!(s, v, "{} fma q={} n={n}", backend.name(), m.value());
                let (mut s, mut v) = (acc0.clone(), acc0);
                ScalarBackend.pointwise_mul(&m, &mut s, &b);
                backend.pointwise_mul(&m, &mut v, &b);
                assert_eq!(s, v, "{} mul q={} n={n}", backend.name(), m.value());
            }
            check_ntt_pair(backend, &m, &mut rng);
        }
    }

    /// Whole-polynomial FMA over all residue limbs, one `fma` per limb:
    /// the term-by-term oracle of the lazy MAC sink.
    fn fma_poly(
        backend: &dyn VpeBackend,
        moduli: &[Modulus],
        acc: &mut [u64],
        a: &[u64],
        b: &[u64],
    ) {
        let n = acc.len() / moduli.len();
        for (m, modulus) in moduli.iter().enumerate() {
            let limb = m * n..(m + 1) * n;
            backend.fma(modulus, &mut acc[limb.clone()], &a[limb.clone()], &b[limb]);
        }
    }
    #[test]
    fn every_backend_lazy_mac_folds_bit_identically() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        // Every modulus a 4-byte row can be stored under.
        for m in boundary_moduli().into_iter().filter(|m| m.bits() <= 32) {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 257] {
                let a0 = rand_row(n, m.value(), &mut rng);
                let b0 = rand_row(n, m.value(), &mut rng);
                let mut row = || -> Vec<u32> {
                    rand_row(n, m.value(), &mut rng).into_iter().map(|x| x as u32).collect()
                };
                let rows: Vec<[Vec<u32>; 3]> =
                    (0..m.lazy_terms().min(5)).map(|_| [row(), row(), row()]).collect();
                let terms: Vec<MacTerm<'_>> =
                    rows.iter().map(|[w, ea, eb]| (&w[..], &ea[..], &eb[..])).collect();
                let lazy = |backend: &dyn VpeBackend, all: bool| {
                    let (mut a, mut b) = (a0.clone(), b0.clone());
                    if all {
                        backend.mac2_lazy(&m, &mut a, &mut b, &terms);
                    }
                    for term in terms.iter().filter(|_| !all) {
                        backend.mac2_lazy(&m, &mut a, &mut b, std::slice::from_ref(term));
                    }
                    backend.fold_lazy(&m, &mut a);
                    backend.fold_lazy(&m, &mut b);
                    (a, b)
                };
                let want = lazy(&ScalarBackend, false);
                for backend in available_backends() {
                    for all in [false, true] {
                        let got = lazy(backend, all);
                        assert_eq!(got, want, "{} q={} n={n} all={all}", backend.name(), m.value());
                    }
                }
            }
        }
    }

    /// The quotient estimates of `backend` must be exact at the corners,
    /// not just on random draws: all-(q-1) operands maximize p and
    /// boundary accumulators exercise est = Q-2..Q — for the 28-bit
    /// special primes, the 29-bit prime where the estimate's bound is
    /// tight, and the optimized code above it (30..50 bits).
    pub(super) fn check_barrett_extremes(backend: &dyn VpeBackend) {
        let mut moduli = Modulus::special_primes().to_vec();
        moduli.extend([29u32, 30, 32, 40, 50].map(prime_below));
        for m in &moduli {
            let q = m.value();
            for &(a, b, c) in &[
                (q - 1, q - 1, q - 1),
                (q - 1, q - 1, 0),
                (q - 1, 1, q - 1),
                (0, 0, 0),
                (1, 1, q - 1),
                (q - 2, q - 2, q - 3),
            ] {
                for n in [8, 16, 17] {
                    let (av, bv) = (vec![a; n], vec![b; n]);
                    let (mut s, mut v) = (vec![c; n], vec![c; n]);
                    ScalarBackend.fma(m, &mut s, &av, &bv);
                    backend.fma(m, &mut v, &av, &bv);
                    assert_eq!(s, v, "{} fma q={q} a={a} b={b} c={c}", backend.name());
                    let (mut s, mut v) = (av.clone(), av);
                    ScalarBackend.pointwise_mul(m, &mut s, &bv);
                    backend.pointwise_mul(m, &mut v, &bv);
                    assert_eq!(s, v, "{} mul q={q} a={a} b={b}", backend.name());
                }
            }
        }
    }

    #[test]
    fn backends_agree_on_fma_and_mul() {
        let m = modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(51);
        for n in [1usize, 3, 4, 7, 64, 255] {
            let a = rand_row(n, m.value(), &mut rng);
            let b = rand_row(n, m.value(), &mut rng);
            let acc0 = rand_row(n, m.value(), &mut rng);
            let (mut s, mut o) = (acc0.clone(), acc0.clone());
            ScalarBackend.fma(&m, &mut s, &a, &b);
            OptimizedBackend.fma(&m, &mut o, &a, &b);
            assert_eq!(s, o, "fma n={n}");
            let (mut s, mut o) = (acc0.clone(), acc0);
            ScalarBackend.pointwise_mul(&m, &mut s, &b);
            OptimizedBackend.pointwise_mul(&m, &mut o, &b);
            assert_eq!(s, o, "mul n={n}");
        }
    }

    #[test]
    fn kind_display_fromstr_roundtrip_all_variants() {
        for kind in BACKEND_KINDS {
            let name = kind.to_string();
            assert_eq!(BackendKind::from_str(&name), Ok(kind), "round-trip {name}");
        }
        assert_eq!(BackendKind::from_str("scalar"), Ok(BackendKind::Scalar));
        assert_eq!(BackendKind::from_str("optimized"), Ok(BackendKind::Optimized));
        assert_eq!(BackendKind::from_str("simd"), Ok(BackendKind::Simd));
        assert_eq!(BackendKind::from_str("avx512"), Ok(BackendKind::Avx512));
        assert_eq!(BackendKind::from_str("auto"), Ok(BackendKind::Auto));
    }

    #[test]
    fn unknown_kind_error_names_every_variant() {
        let err = BackendKind::from_str("sse9").expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains("\"sse9\""), "echoes the input: {msg}");
        for kind in BACKEND_KINDS {
            assert!(msg.contains(&format!("\"{kind}\"")), "names {kind}: {msg}");
        }
    }

    #[test]
    fn auto_resolves_to_best_available() {
        assert_eq!(BackendKind::default(), BackendKind::Auto);
        let auto = BackendKind::Auto.backend().name();
        let simd = BackendKind::Simd.backend().name();
        let avx512 = BackendKind::Avx512.backend().name();
        // Auto prefers avx512 → simd → optimized, per the cached probes.
        if avx512_available() {
            assert_eq!(auto, "avx512");
            assert_eq!(avx512, "avx512");
        } else if simd_available() {
            assert_eq!(auto, "simd");
            assert_eq!(avx512, "simd", "Avx512 must fall back to AVX2 when undetected");
        } else {
            assert_eq!(auto, "optimized");
            assert_eq!(avx512, "optimized", "Avx512 must fall back when undetected");
        }
        if simd_available() {
            assert_eq!(simd, "simd");
        } else {
            assert_eq!(simd, "optimized", "Simd must fall back when undetected");
        }
        assert!(!avx512_ifma_available() || avx512_available(), "IFMA implies AVX-512F");
        assert_eq!(BackendKind::Scalar.backend().name(), "scalar");
        assert_eq!(BackendKind::Optimized.backend().name(), "optimized");
        // Display reflects the *selection*, not the resolution.
        assert_eq!(BackendKind::Auto.to_string(), "auto");
        assert_eq!(BackendKind::Simd.to_string(), "simd");
        assert_eq!(BackendKind::Avx512.to_string(), "avx512");
    }

    #[test]
    fn lazy_mac_then_fold_matches_per_term_fma() {
        let m = modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        for n in [0usize, 1, 7, 8, 64, 255] {
            let rows: Vec<[Vec<u64>; 3]> =
                (0..5).map(|_| [0; 3].map(|_| rand_row(n, m.value(), &mut rng))).collect();
            let stored: Vec<[Vec<u32>; 3]> = rows
                .iter()
                .map(|r| r.each_ref().map(|w| w.iter().map(|&x| x as u32).collect()))
                .collect();
            let a0 = rand_row(n, m.value(), &mut rng);
            let b0 = rand_row(n, m.value(), &mut rng);
            for kind in BACKEND_KINDS {
                let backend = kind.backend();
                let (mut la, mut lb) = (a0.clone(), b0.clone());
                let (mut ua, mut ub) = (a0.clone(), b0.clone());
                let terms: Vec<MacTerm<'_>> =
                    stored.iter().map(|[w, ea, eb]| (&w[..], &ea[..], &eb[..])).collect();
                // Two ragged calls: the fan-in is the caller's choice.
                backend.mac2_lazy(&m, &mut la, &mut lb, &terms[..2]);
                backend.mac2_lazy(&m, &mut la, &mut lb, &terms[2..]);
                for [w, ea, eb] in &rows {
                    backend.fma(&m, &mut ua, w, ea);
                    backend.fma(&m, &mut ub, w, eb);
                }
                backend.fold_lazy(&m, &mut la);
                backend.fold_lazy(&m, &mut lb);
                assert_eq!(la, ua, "{kind} acc_a n={n}");
                assert_eq!(lb, ub, "{kind} acc_b n={n}");
            }
        }
    }

    #[test]
    fn llc_estimate_is_plausible() {
        let llc = effective_llc_bytes();
        assert!(llc >= 64 << 10, "LLC estimate below any real cache: {llc}");
        assert!(llc <= 4 << 30, "LLC estimate above any real socket: {llc}");
        assert_eq!(llc, effective_llc_bytes(), "probe must be cached and stable");
    }

    #[test]
    fn lazy_gemm_matches_fma_poly_accumulation() {
        // The MAC sink of the tile pipeline against the materialised
        // digit matrix contracted term by term through `fma_poly`.
        let ring = RingContext::test_ring(64, 3);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
        let (n, k, ell) = (ring.n(), ring.basis().len(), gadget.ell());
        let moduli = ring.basis().moduli();
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut flat = || -> Vec<u64> {
            moduli.iter().flat_map(|m| rand_row(n, m.value(), &mut rng)).collect()
        };
        let coeff: Vec<u32> = flat().into_iter().map(|w| w as u32).collect();
        let keys: Vec<[Vec<u64>; 2]> = (0..ell).map(|_| [flat(), flat()]).collect();
        let poly = |words: &[u64]| RnsPoly::from_words(&ring, Form::Ntt, words.to_vec()).unwrap();
        let pairs: Vec<_> = keys.iter().map(|[a, b]| (poly(a), poly(b))).collect();
        let rows = GadgetRows::from_pairs(&pairs);
        let (a0, b0) = (flat(), flat());
        let mut arena = KernelArena::new();
        for kind in BACKEND_KINDS {
            let backend = kind.backend();
            let mut matrix = vec![0u64; ell * k * n];
            let sources = [(&coeff[..], Some(n + 1))];
            dcp_tiles(&ring, &gadget, &sources, TileSink::Matrix(&mut matrix), backend, &mut arena)
                .unwrap();
            let (mut ra, mut rb) = (a0.clone(), b0.clone());
            for (u, [ka, kb]) in matrix.chunks_exact(k * n).zip(&keys) {
                fma_poly(backend, moduli, &mut ra, u, ka);
                fma_poly(backend, moduli, &mut rb, u, kb);
            }
            let (mut ga, mut gb) = (a0.clone(), b0.clone());
            let finish = MacFinish::Fold { acc_a: &mut ga, acc_b: &mut gb };
            let sink = TileSink::Mac { rows: &rows, finish };
            dcp_tiles(&ring, &gadget, &sources, sink, backend, &mut arena).unwrap();
            assert_eq!(ga, ra, "{kind} acc_a");
            assert_eq!(gb, rb, "{kind} acc_b");
        }
    }
}
