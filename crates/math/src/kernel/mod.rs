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
//! * [`ScalarBackend`] ([`scalar`]) — the readable reference: textbook
//!   loops over [`crate::reduce::mul_mod`] (a 128-bit remainder per
//!   product). Slow on purpose; it is the oracle every other backend is
//!   differentially tested against (`tests/kernel_props.rs`).
//! * [`OptimizedBackend`] ([`optimized`]) — the portable serving path:
//!   precomputed Barrett per-limb constants (carried by [`Modulus`]),
//!   Shoup lazy twiddles in the NTT dispatch, a fused lazy-reduction FMA
//!   (`acc·q` folded into one Barrett reduction per element instead of
//!   reduce-then-add), and 4×-unrolled flat-slice loops.
//! * `SimdBackend` ([`simd`], `x86_64` only) — the wide-datapath path:
//!   AVX2 four-lane versions of the same arithmetic (64-bit high/low
//!   products assembled from `_mm256_mul_epu32` splits, conditional
//!   subtractions as branch-free vector compare/mask/sub). It is reached
//!   through **runtime detection**: [`BackendKind::Simd`] probes
//!   `is_x86_feature_detected!("avx2")` once (cached in a `OnceLock`)
//!   and falls back to [`OptimizedBackend`] when the host cannot run it,
//!   so no call site ever branches on the ISA.
//! * `Avx512Backend` ([`avx512`], `x86_64` only) — the widest datapath:
//!   eight-lane AVX-512 versions of the Barrett/Shoup arithmetic, a
//!   stage-fused NTT (radix-4 passes, then the short `t ≤ 8` levels
//!   register-resident through `vpermt2q` shuffles) and — where the host
//!   reports `avx512ifma` —
//!   52-bit `vpmadd52` kernels that lift the 29-bit vector modulus cap
//!   to 50 bits. Same runtime-detection contract:
//!   [`BackendKind::Avx512`] falls back through AVX2 to the portable
//!   path, and [`BackendKind::Auto`] prefers it wherever `avx512f` is
//!   detected.
//!
//! **Lazy accumulation.** Every modular dot product of the pipeline —
//! `RowSel`'s `Σ_i DB[r][i] ⊙ ct[i]` and the gadget GEMMs of `Subs` and
//! `⊡` — runs through one kernel pair: [`VpeBackend::mac2_lazy`] adds
//! exact 64-bit products into plain `u64` accumulators and
//! [`VpeBackend::fold_lazy`] reduces them once at the end. The number of
//! products an accumulator can absorb is derived from the modulus
//! ([`Modulus::lazy_terms`], `⌊(2^64 − q)/(q−1)²⌋`: 962–1023 for the
//! 28-bit Table I primes, 64 at the 29-bit vector cap), so a `D0 = 256`
//! row or a `2ℓ`-term GEMM folds exactly once. Reduction mod `q` is a
//! ring homomorphism, so *when* it happens cannot change a canonical
//! result. `RowSel` calls the same kernel as
//! [`VpeBackend::mac2_lazy_packed`]: a database row and the expanded
//! query's `ea`/`eb` rows are all stored one residue per 4-byte word, so a
//! product reads 4 + 4 + 4 bytes. The fold itself is one portable body
//! (`fold_words`, bounds in `FoldPlan`): the word's high half times
//! `2^32 mod q` by Shoup, the low half added, one Barrett estimate on the
//! sum's top bits — five 32×32→64 products, no `u128` — instantiated under
//! `#[target_feature]` by the vector backends like `dcp_chunked`.
//!
//! **The key-switch pipeline.** `Subs` and `⊡` never hold their digits in
//! the multiplication domain as a matrix: [`dcp_tiles`] walks the digit
//! rows limb-outer, lifts each into an L1-sized tile, forward-NTTs it
//! there ([`VpeBackend::ntt_forward_narrow`] on 4-byte words wherever
//! [`narrow_tiles`] holds) and lazy-MACs the tile straight against its key
//! rows, two tiles per pass over the limb's accumulators. What closes a
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
//! (`dcp_chunked`, bounds in [`DcpPlan`]) — 32×32→64 products and two
//! 64-bit words per coefficient, no `u128`, no branch — which the vector
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

use crate::arena::KernelArena;
use crate::gadget::Gadget;
use crate::modulus::Modulus;
use crate::ntt::{NttTable, NARROW_NTT_MAX_BITS};
use crate::rns::RingContext;
use crate::MathError;

use optimized::cond_sub;

pub mod avx512;
pub mod optimized;
pub mod scalar;
pub mod simd;

#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512Backend;
pub use optimized::OptimizedBackend;
pub use scalar::ScalarBackend;
#[cfg(target_arch = "x86_64")]
pub use simd::SimdBackend;

/// One term `(w, ea, eb)` of a lazy dual dot product: the shared
/// multiplicand row and the two rows it multiplies (see
/// [`VpeBackend::mac2_lazy`]).
pub type MacTerm<'a> = (&'a [u64], &'a [u64], &'a [u64]);

/// One term of [`VpeBackend::mac2_lazy_narrow`]: as [`MacTerm`], but the
/// shared multiplicand row is stored in 4-byte words — an NTT'd digit tile
/// against RGSW rows, which arrive as `u64`.
pub type NarrowMacTerm<'a> = (&'a [u32], &'a [u64], &'a [u64]);

/// One term of [`VpeBackend::mac2_lazy_packed`]: every row in 4-byte
/// words — a database row against the expanded query's `ea`/`eb` as
/// `RowSel` streams them, or an NTT'd digit tile against a `Subs` key's
/// packed rows.
pub type PackedMacTerm<'a> = (&'a [u32], &'a [u32], &'a [u32]);

/// One limb row of a fixed multiplier in 4-byte words, each word beside
/// its 32-bit Shoup quotient `⌊value·2^32/q⌋` (see [`ShoupWords`]).
#[derive(Debug, Clone, Copy)]
pub struct ShoupRow<'a> {
    /// The multiplier words, canonical.
    pub value: &'a [u32],
    /// Their Shoup quotients.
    pub quotient: &'a [u32],
}

/// A fixed NTT-form multiplier over a ring whose limbs are below `2^32` —
/// `ExpandQuery`'s `X^{-2^j}` — as flat `k × n` 4-byte words with their
/// 32-bit Shoup quotients, so multiplying a 4-byte row by it takes three
/// 32×32→64 products per word ([`VpeBackend::branch_lazy`]).
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
    /// Panics if `words` is not `k·n` long or a limb is `2^32` or wider.
    pub fn new(ring: &RingContext, words: &[u64]) -> Self {
        let n = ring.n();
        assert_eq!(words.len(), ring.basis().len() * n);
        let mut value = Vec::with_capacity(words.len());
        let mut quotient = Vec::with_capacity(words.len());
        for (modulus, row) in ring.basis().moduli().iter().zip(words.chunks_exact(n)) {
            assert!(modulus.bits() <= 32, "a 4-byte multiplier row needs q < 2^32");
            value.extend(row.iter().map(|&w| w as u32));
            quotient.extend(row.iter().map(|&w| ((w << 32) / modulus.value()) as u32));
        }
        ShoupWords { n, value, quotient }
    }

    /// Limb row `m`.
    #[inline]
    pub fn limb(&self, m: usize) -> ShoupRow<'_> {
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

/// Asserts every row of `terms` is `len` words and charges the MAC
/// counter — the shared prologue of every `mac2_lazy*` implementation
/// (`W` is the multiplicand's word, `R` the word of the rows it meets).
fn check_mac_terms<W, R>(len: usize, acc_b: &[u64], terms: &[(&[W], &[R], &[R])]) {
    assert_eq!(acc_b.len(), len);
    for (w, ea, eb) in terms {
        assert_eq!(w.len(), len);
        assert_eq!(ea.len(), len);
        assert_eq!(eb.len(), len);
    }
    crate::metrics::count_pointwise_macs((2 * len * terms.len()) as u64);
}

/// [`check_mac_terms`] for a 4-byte multiplicand row, which only a
/// modulus below `2^32` can have.
fn check_narrow_mac_terms<R>(
    modulus: &Modulus,
    len: usize,
    acc_b: &[u64],
    terms: &[(&[u32], &[R], &[R])],
) {
    assert!(modulus.bits() <= 32, "a 4-byte multiplicand row needs q < 2^32");
    check_mac_terms(len, acc_b, terms);
}

/// The portable lazy dual MAC for `q < 2^32`, over either word for the
/// multiplicand and for the rows: operands are below `2^32`, so each
/// product is exact in 64 bits
/// and the caller's `lazy_terms` fold cadence keeps the sums from
/// wrapping (plain `+` so a debug build traps a broken one). Both sums
/// ride in registers across the terms; each `w[i]` is loaded once and
/// feeds both.
fn mac2_lazy_sums<W: Copy + Into<u64>, R: Copy + Into<u64>>(
    acc_a: &mut [u64],
    acc_b: &mut [u64],
    terms: &[(&[W], &[R], &[R])],
) {
    for (i, (xa, xb)) in acc_a.iter_mut().zip(acc_b.iter_mut()).enumerate() {
        let (mut a, mut b) = (*xa, *xb);
        for (w, ea, eb) in terms {
            let wi: u64 = w[i].into();
            a += wi * ea[i].into();
            b += wi * eb[i].into();
        }
        (*xa, *xb) = (a, b);
    }
}

/// Output slots [`dcp_chunked`] carries through its steps at once: its
/// working set (`k` residue rows and three words per slot, 10 KiB at
/// `k = 4`) stays in L1.
const DCP_TILE: usize = 256;

/// Limb rows the kernel's fixed-size tables hold: any basis.
const DCP_MAX_LIMBS: usize = crate::rns::RnsBasis::MAX_LIMBS;

/// Most radix-`2^c` chunks of `k·Q < 2^(2c+64)` at the narrowest chunk
/// (`c = 15`: `2 + ⌈64/15⌉`).
const DCP_MAX_CHUNKS: usize = 7;

/// The constants of the chunked iCRT→digit kernel `dcp_chunked` for
/// one ring and gadget, and the decision whether that kernel applies.
///
/// iCRT is `x = Σ_i y_i·q̂_i mod Q` with `y_i = [r_i·q̂_i⁻¹]_{q_i}`
/// (Eq. 3). With every limb below `2^32`, `y_i < 2^32`; writing each
/// `q̂_i` in radix `2^c` (`c ≤ 28`) makes every product `y_i·q̂_{i,j}` an
/// exact 32×32→64 one, and a chunk sum `Σ_i y_i·q̂_{i,j}` stays below
/// `k·2^60 ≤ 2^63` for `k ≤ 8`. Carrying the sums into `c`-bit chunks
/// gives `S = Σ_i y_i·q̂_i < k·Q` as two words split at bit `2c`; `S`
/// is brought below `Q` by subtracting `2^t·Q` where it fits, for
/// `t = ⌈log₂ k⌉ − 1 … 0` (each step halves the bound), and since `c`
/// is a multiple of the gadget's `base_bits`, no digit straddles the
/// split and every digit is one shift and mask of one word.
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
    /// `2^t·Q` as `(low 2c bits, rest)`, `t` descending to 0.
    q_multiples: [(u64, u64); 3],
    /// `⌈log₂ k⌉`, the entries of `q_multiples` in use.
    rounds: usize,
}

impl DcpPlan {
    /// The plan for `ring` and `gadget`, or `None` when the chunked
    /// kernel does not apply and `Dcp` takes the wide route: a limb of
    /// `2^32` or more, `base_bits > 28`, or `k·Q ≥ 2^(2c+64)`.
    pub fn new(ring: &RingContext, gadget: &Gadget) -> Option<Self> {
        let basis = ring.basis();
        let (k, b) = (basis.len(), gadget.base_bits());
        if b > 28 || basis.moduli().iter().any(|m| m.bits() > 32) {
            return None;
        }
        let c = b * (28 / b);
        // k ≤ 8 and Q < 2^120: the product fits.
        let bound = k as u128 * basis.q_big();
        if bound >> (2 * c + 64) != 0 {
            return None;
        }
        let bits = |x: u128| 128 - x.leading_zeros();
        let chunks = |x: u128| bits(x).div_ceil(c).max(1) as usize;
        let mask = (1u128 << c) - 1;
        let mut plan = DcpPlan {
            limbs: k,
            chunk_bits: c,
            q: [0; DCP_MAX_LIMBS],
            hat_inv: [(0, 0); DCP_MAX_LIMBS],
            hat: [[0; DCP_MAX_LIMBS]; DCP_MAX_CHUNKS],
            hat_chunks: 1,
            sum_chunks: chunks(bound),
            q_multiples: [(0, 0); 3],
            rounds: k.next_power_of_two().trailing_zeros() as usize,
        };
        for (i, modulus) in basis.moduli().iter().enumerate() {
            let (hat, inv) = (basis.qi_hat()[i], basis.qi_hat_inv()[i]);
            plan.q[i] = modulus.value() as u32;
            plan.hat_inv[i] = (inv.value as u32, (inv.quotient >> 32) as u32);
            plan.hat_chunks = plan.hat_chunks.max(chunks(hat));
            for (j, row) in plan.hat.iter_mut().enumerate() {
                row[i] = (hat.checked_shr(j as u32 * c).unwrap_or(0) & mask) as u32;
            }
        }
        for (t, slot) in (0..plan.rounds).rev().zip(&mut plan.q_multiples) {
            let multiple = basis.q_big() << t;
            *slot = ((multiple & ((1u128 << (2 * c)) - 1)) as u64, (multiple >> (2 * c)) as u64);
        }
        Some(plan)
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
/// 2. accumulate the chunk sums, carry them into the two-word `S`,
///    subtract the multiples of `Q`, and shift each digit row out.
///
/// `coeff` is `k × n` canonical residues, `out` is `ℓ × n`, `tau` is
/// odd; the caller ([`dcp_dispatch`]) has checked all three.
#[inline(always)]
fn dcp_chunked(
    plan: &DcpPlan,
    gadget: &Gadget,
    coeff: &[u64],
    tau: Option<usize>,
    out: &mut [u32],
) {
    let k = plan.limbs;
    let n = coeff.len() / k;
    let c = plan.chunk_bits;
    let (chunk_mask, low_mask) = ((1u64 << c) - 1, (1u64 << (2 * c)) - 1);
    let digit_mask = (1u64 << gadget.base_bits()) - 1;
    // Output slot e reads source index (e·step) mod 2n; bit log n of
    // that is the sign.
    let step = tau.map_or(1, |r| inv_mod_two_n(r % (2 * n), n));
    let tile = n.min(DCP_TILE);
    let mut y = [[0u32; DCP_TILE]; DCP_MAX_LIMBS];
    let (mut lo, mut hi, mut acc) = ([0u64; DCP_TILE], [0u64; DCP_TILE], [0u64; DCP_TILE]);
    let (lo, hi, acc) = (&mut lo[..tile], &mut hi[..tile], &mut acc[..tile]);
    for e in (0..n).step_by(tile) {
        for (i, row) in coeff.chunks_exact(n).enumerate() {
            let (q, (w, w_quot)) = (plan.q[i], plan.hat_inv[i]);
            let mut walk = e.wrapping_mul(step);
            for y in &mut y[i][..tile] {
                let at = walk & (2 * n - 1);
                walk = walk.wrapping_add(step);
                let r = row[at & (n - 1)] as u32;
                let v = u64::from(if at >= n { q - r } else { r });
                let est = (v * u64::from(w_quot)) >> 32;
                let lazy = v * u64::from(w) - est * u64::from(q);
                *y = (lazy - if lazy >= u64::from(q) { u64::from(q) } else { 0 }) as u32;
            }
        }
        lo.fill(0);
        hi.fill(0);
        acc.fill(0);
        for j in 0..plan.sum_chunks {
            if j < plan.hat_chunks {
                for (yi, &h) in y[..k].iter().zip(&plan.hat[j]) {
                    for (acc, &y) in acc.iter_mut().zip(&yi[..tile]) {
                        *acc += u64::from(y) * u64::from(h);
                    }
                }
            }
            let (word, shift) =
                if j < 2 { (&mut *lo, j as u32 * c) } else { (&mut *hi, (j as u32 - 2) * c) };
            for (word, acc) in word.iter_mut().zip(acc.iter_mut()) {
                *word |= (*acc & chunk_mask) << shift;
                *acc >>= c;
            }
        }
        for &(m_lo, m_hi) in &plan.q_multiples[..plan.rounds] {
            for (lo, hi) in lo.iter_mut().zip(hi.iter_mut()) {
                let d_lo = lo.wrapping_sub(m_lo);
                let borrow = d_lo >> 63;
                let fits = *hi > m_hi || (*hi == m_hi && borrow == 0);
                (*lo, *hi) = if fits { (d_lo & low_mask, *hi - m_hi - borrow) } else { (*lo, *hi) };
            }
        }
        for (j, digits) in out.chunks_exact_mut(n).enumerate() {
            let at = j as u32 * gadget.base_bits();
            let (word, shift) = if at < 2 * c { (&*lo, at) } else { (&*hi, at - 2 * c) };
            let digits = &mut digits[e..e + tile];
            if shift < 64 {
                for (d, &word) in digits.iter_mut().zip(word) {
                    *d = ((word >> shift) & digit_mask) as u32;
                }
            } else {
                digits.fill(0);
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
    coeff: &[u64],
    tau: Option<usize>,
    gadget: &Gadget,
    arena: &mut KernelArena,
    out: &mut [u32],
    body: fn(&DcpPlan, &Gadget, &[u64], Option<usize>, &mut [u32]),
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
/// modulus is reduced per term by `mac2_lazy`, and a stray non-canonical
/// word still folds correctly.
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
/// All slices are flat `u64` limb rows of one length `n` with elements in
/// `[0, q)`; outputs are always fully reduced. Implementations must be
/// bit-identical to [`ScalarBackend`] (enforced by differential property
/// tests).
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

    /// In-place forward negacyclic NTT of one limb row.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_forward(&self, table: &NttTable, a: &mut [u64]);

    /// In-place inverse negacyclic NTT of one limb row (including the
    /// `n^{-1}` scaling).
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()`.
    fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]);

    /// Gadget decomposition `Dcp` (Fig. 3) from RNS words to digit rows:
    /// iCRT every coefficient of the coefficient-form `k × n` matrix
    /// `coeff` — through the automorphism `τ_r : X → X^r` when `tau` is
    /// set, exactly as [`RingContext::icrt_words_into`] composes it —
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
        coeff: &[u64],
        tau: Option<usize>,
        gadget: &Gadget,
        arena: &mut KernelArena,
        out: &mut [u32],
    );

    /// [`VpeBackend::ntt_forward`] of one limb row held in 4-byte words —
    /// the transform of a digit tile in [`dcp_tiles`]. Canonical residues
    /// in, canonical out; charges one residue NTT. The default widens the
    /// row into `arena` scratch, runs [`VpeBackend::ntt_forward`] and
    /// narrows the result, so the `u64` transform is this one's definition;
    /// the AVX-512 backend overrides it with a sixteen-lane kernel for
    /// `q < 2^29`.
    ///
    /// # Panics
    /// Panics if `a.len() != table.n()` or `q ≥ 2^32`.
    fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32], arena: &mut KernelArena) {
        ntt_forward_widened(self, table, a, arena)
    }

    /// Lazy dual multiply-accumulate — the inner step of every modular
    /// dot product in the pipeline (`RowSel`'s scan and the gadget GEMMs
    /// of `Subs` and `⊡`). Each term `(w, ea, eb)` is one shared
    /// multiplicand row and the two rows it multiplies; one pass over
    /// the accumulators absorbs **all** the terms handed in,
    /// `acc_a[i] ≡ acc_a[i] + Σ_t w_t[i]·ea_t[i]` and
    /// `acc_b[i] ≡ acc_b[i] + Σ_t w_t[i]·eb_t[i]` (mod `q`), **without
    /// reducing**: for `q < 2^32` the accumulators are plain `u64` sums
    /// of exact 64-bit products, congruent to the dot product but not
    /// canonical until [`VpeBackend::fold_lazy`] runs, and they ride in
    /// registers across the terms of a call (hand in [`MAC_FAN_IN`] at a
    /// time). The caller owes a fold before more than
    /// [`Modulus::lazy_terms`] terms pile onto a folded (or zero)
    /// accumulator; that bound is what keeps the sums from wrapping.
    /// Moduli of `2^32` and above have no headroom (`lazy_terms` is 1)
    /// and are reduced per term here, so call sites never branch on the
    /// width. Operand rows are canonical (`< q`); charges two MACs per
    /// element per term.
    ///
    /// # Panics
    /// Panics if any slice length differs from `acc_a.len()`.
    fn mac2_lazy(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        terms: &[MacTerm<'_>],
    );

    /// [`VpeBackend::mac2_lazy`] over a multiplicand row stored in
    /// 4-byte words — a digit tile against `u64` rows (`⊡`'s RGSW rows).
    /// Same sums, same
    /// [`Modulus::lazy_terms`] contract, same [`VpeBackend::fold_lazy`];
    /// only `q < 2^32` can have such a row, so there is no per-term tier.
    /// The default is the portable plain-`u64` sum; the vector backends
    /// override it with a zero-extending load.
    ///
    /// # Panics
    /// Panics if `q ≥ 2^32` or any slice length differs from
    /// `acc_a.len()`.
    fn mac2_lazy_narrow(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        terms: &[NarrowMacTerm<'_>],
    ) {
        check_narrow_mac_terms(modulus, acc_a.len(), acc_b, terms);
        mac2_lazy_sums(acc_a, acc_b, terms);
    }

    /// [`VpeBackend::mac2_lazy`] with every operand row in 4-byte words —
    /// the `RowSel` scan's kernel (database word × `ea`/`eb`: 4 + 4 + 4
    /// bytes per product pair) and a digit tile against a `Subs` key's
    /// packed rows. Same sums, contract, fold and default as
    /// [`VpeBackend::mac2_lazy_narrow`].
    ///
    /// # Panics
    /// Panics if `q ≥ 2^32` or any slice length differs from
    /// `acc_a.len()`.
    fn mac2_lazy_packed(
        &self,
        modulus: &Modulus,
        acc_a: &mut [u64],
        acc_b: &mut [u64],
        terms: &[PackedMacTerm<'_>],
    ) {
        check_narrow_mac_terms(modulus, acc_a.len(), acc_b, terms);
        mac2_lazy_sums(acc_a, acc_b, terms);
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

/// [`VpeBackend::ntt_forward_narrow`] by way of the `u64` transform: widen
/// into `arena` scratch, [`VpeBackend::ntt_forward`], narrow back.
fn ntt_forward_widened<B: VpeBackend + ?Sized>(
    backend: &B,
    table: &NttTable,
    a: &mut [u32],
    arena: &mut KernelArena,
) {
    assert!(table.modulus().bits() <= 32, "a 4-byte limb row needs q < 2^32");
    let mut wide = arena.take_u64_stale(a.len());
    for (w, &x) in wide.iter_mut().zip(a.iter()) {
        *w = u64::from(x);
    }
    backend.ntt_forward(table, &mut wide);
    for (x, &w) in a.iter_mut().zip(&wide) {
        *x = w as u32;
    }
    arena.give_u64(wide);
}

/// Whether [`dcp_tiles`] holds `ring`'s NTT'd digit tiles — and a `Subs`
/// key its rows — in 4-byte words: every limb is within the sixteen-lane
/// NTT's 29 bits (a digit is below `2^27` under any gadget). Every serving
/// ring is; the others run the same pipeline on `u64` tiles.
pub fn narrow_tiles(ring: &RingContext) -> bool {
    ring.basis().moduli().iter().all(|m| m.bits() <= NARROW_NTT_MAX_BITS)
}

/// The key rows a [`TileSink::Mac`] multiplies the digit tiles by: a
/// lookup from `(term, limb)` to that term's `n`-word `(a, b)` rows of the
/// limb, in whichever word the owner stores them.
pub enum KeyRows<'r> {
    /// 4-byte rows — a `Subs` key over a [`narrow_tiles`] ring.
    Narrow(&'r dyn Fn(usize, usize) -> (&'r [u32], &'r [u32])),
    /// `u64` rows — RGSW rows as they arrive, and a `Subs` key over a
    /// ring with a limb too wide for 4-byte tiles.
    Wide(&'r dyn Fn(usize, usize) -> (&'r [u64], &'r [u64])),
}

/// What [`dcp_tiles`] does with each NTT'd digit tile.
pub enum TileSink<'a, 'r> {
    /// Widen it into its place in the flat `T × k × n` matrix (term-major,
    /// then limb-major), overwritten in full.
    Matrix(&'a mut [u64]),
    /// The gadget GEMM `(1 × T)·(T × 2)`: lazy-MAC it against its term's
    /// key rows into the limb's two `u64` accumulator rows —
    /// `acc_a += Σ_t tile_t ⊙ a_t`, `acc_b += Σ_t tile_t ⊙ b_t`, folded
    /// whenever [`Modulus::lazy_terms`] would be exceeded — and close the
    /// limb as `finish` says while the two rows are still hot.
    Mac {
        /// The key rows of every `(term, limb)`.
        rows: KeyRows<'r>,
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

/// The word [`dcp_tiles`] holds a limb's NTT'd digit tiles in.
trait TileWord: Copy + Into<u64> {
    /// A digit already reduced below the limb's modulus.
    fn lift(digit: u32) -> Self;
    /// Checks out `len` words with stale contents.
    fn take(arena: &mut KernelArena, len: usize) -> Vec<Self>;
    /// Returns a checkout.
    fn give(arena: &mut KernelArena, buf: Vec<Self>);
    /// In-place forward NTT of one tile.
    fn ntt(backend: &dyn VpeBackend, table: &NttTable, tile: &mut [Self], arena: &mut KernelArena);
    /// One lazy MAC pass: the tiles of `tiles` (`n` words each) are terms
    /// `first..` of limb `limb`.
    fn mac(
        backend: &dyn VpeBackend,
        modulus: &Modulus,
        acc: (&mut [u64], &mut [u64]),
        tiles: &[Self],
        rows: &KeyRows<'_>,
        limb: usize,
        first: usize,
    );
}

/// The terms of one MAC pass, the first `tiles.len() / n` in use: tile `i`
/// of `tiles` with the key rows `row(i)`.
type TileTerms<'a, W, R> = [(&'a [W], &'a [R], &'a [R]); TILE_FAN_IN];

fn tile_terms<'a, W, R>(
    tiles: &'a [W],
    n: usize,
    row: impl Fn(usize) -> (&'a [R], &'a [R]),
) -> TileTerms<'a, W, R> {
    let mut terms: TileTerms<'a, W, R> = [(&[], &[], &[]); TILE_FAN_IN];
    for (i, (slot, tile)) in terms.iter_mut().zip(tiles.chunks_exact(n)).enumerate() {
        let (a, b) = row(i);
        *slot = (tile, a, b);
    }
    terms
}

impl TileWord for u32 {
    fn lift(digit: u32) -> Self {
        digit
    }
    fn take(arena: &mut KernelArena, len: usize) -> Vec<Self> {
        arena.take_u32_stale(len)
    }
    fn give(arena: &mut KernelArena, buf: Vec<Self>) {
        arena.give_u32(buf)
    }
    fn ntt(backend: &dyn VpeBackend, table: &NttTable, tile: &mut [Self], arena: &mut KernelArena) {
        backend.ntt_forward_narrow(table, tile, arena)
    }
    fn mac(
        backend: &dyn VpeBackend,
        modulus: &Modulus,
        (acc_a, acc_b): (&mut [u64], &mut [u64]),
        tiles: &[Self],
        rows: &KeyRows<'_>,
        limb: usize,
        first: usize,
    ) {
        let n = acc_a.len();
        let len = tiles.len() / n;
        match rows {
            KeyRows::Narrow(row) => {
                let terms = tile_terms(tiles, n, |i| row(first + i, limb));
                backend.mac2_lazy_packed(modulus, acc_a, acc_b, &terms[..len]);
            }
            KeyRows::Wide(row) => {
                let terms = tile_terms(tiles, n, |i| row(first + i, limb));
                backend.mac2_lazy_narrow(modulus, acc_a, acc_b, &terms[..len]);
            }
        }
    }
}

impl TileWord for u64 {
    fn lift(digit: u32) -> Self {
        u64::from(digit)
    }
    fn take(arena: &mut KernelArena, len: usize) -> Vec<Self> {
        arena.take_u64_stale(len)
    }
    fn give(arena: &mut KernelArena, buf: Vec<Self>) {
        arena.give_u64(buf)
    }
    fn ntt(backend: &dyn VpeBackend, table: &NttTable, tile: &mut [Self], _: &mut KernelArena) {
        backend.ntt_forward(table, tile)
    }
    fn mac(
        backend: &dyn VpeBackend,
        modulus: &Modulus,
        (acc_a, acc_b): (&mut [u64], &mut [u64]),
        tiles: &[Self],
        rows: &KeyRows<'_>,
        limb: usize,
        first: usize,
    ) {
        let KeyRows::Wide(row) = rows else {
            panic!("4-byte key rows under a ring whose tiles are u64");
        };
        let n = acc_a.len();
        let terms = tile_terms(tiles, n, |i| row(first + i, limb));
        backend.mac2_lazy(modulus, acc_a, acc_b, &terms[..tiles.len() / n]);
    }
}

/// The key-switch pipeline, from coefficient-form words to the sink:
/// `Dcp` every source — a flat `k × n` coefficient matrix, taken through
/// `τ_r` when its exponent is set ([`VpeBackend::icrt_decompose`]) — into
/// `ℓ` digit rows each, `T = sources.len()·ℓ` in source order; then, limb
/// by limb and row by row, lift the digit row into a tile of the limb
/// (reducing it where `z > q`), forward-NTT the tile while it is in L1 and
/// hand it to `sink`. The `T·k` transforms are those of a digit matrix in
/// the multiplication domain, but with [`TileSink::Mac`] that matrix never
/// exists: a tile is consumed by the gadget GEMM as soon as it is made,
/// and the limb-outer walk keeps a limb's two accumulator rows resident
/// across all `T` terms, until the sink's [`MacFinish`] closes the limb.
/// Tiles are 4-byte words where [`narrow_tiles`] holds and `u64`
/// elsewhere — decided from the ring alone. Digit rows, tiles and a
/// [`MacFinish::Branch`]'s two accumulator rows come from `arena`.
///
/// # Errors
/// Fails when the gadget does not cover `Q`.
///
/// # Panics
/// Panics if a source is not `k·n` words, a sink buffer is not `T·k·n`
/// (matrix), `k·n` (accumulators) or `2·k·n` (a node and its odd child)
/// words, [`KeyRows::Narrow`] meets a ring whose tiles are `u64`, or
/// [`MacFinish::Branch`] meets a limb of `2^32` or more.
pub fn dcp_tiles(
    ring: &RingContext,
    gadget: &Gadget,
    sources: &[(&[u64], Option<usize>)],
    sink: TileSink<'_, '_>,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<(), MathError> {
    gadget.check_covers(ring.basis().q_big())?;
    let rows = gadget.ell() * ring.n();
    let mut digits = arena.take_u32_stale(sources.len() * rows);
    for (&(coeff, tau), out) in sources.iter().zip(digits.chunks_exact_mut(rows)) {
        backend.icrt_decompose(ring, coeff, tau, gadget, arena, out);
    }
    if narrow_tiles(ring) {
        sink_tiles::<u32>(ring, gadget, &digits, sink, backend, arena);
    } else {
        sink_tiles::<u64>(ring, gadget, &digits, sink, backend, arena);
    }
    arena.give_u32(digits);
    Ok(())
}

/// The tile walk of [`dcp_tiles`] over the `T × n` digit rows, at one
/// tile word.
fn sink_tiles<W: TileWord>(
    ring: &RingContext,
    gadget: &Gadget,
    digits: &[u32],
    mut sink: TileSink<'_, '_>,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) {
    let (n, k) = (ring.n(), ring.basis().len());
    let (kn, terms) = (k * n, digits.len() / n);
    let mut lazy_rows = Vec::new();
    match &sink {
        TileSink::Matrix(out) => assert_eq!(out.len(), terms * kn),
        TileSink::Mac { finish: MacFinish::Fold { acc_a, acc_b }, .. } => {
            assert_eq!((acc_a.len(), acc_b.len()), (kn, kn))
        }
        TileSink::Mac { finish: MacFinish::Branch(branch), .. } => {
            assert_eq!((branch.node.len(), branch.odd.len()), (2 * kn, 2 * kn));
            assert_eq!(branch.tau_map.len(), n);
            lazy_rows = arena.take_u64_stale(2 * n);
        }
    }
    let mut tiles = W::take(arena, TILE_FAN_IN * n);
    for (m, modulus) in ring.basis().moduli().iter().enumerate() {
        let (q, table) = (modulus.value(), ring.ntt(m));
        let tile_of = |tile: &mut [W], row: &[u32], arena: &mut KernelArena| {
            if gadget.base() <= u128::from(q) {
                // Digits are `< z ≤ 2^27 < q` for the special primes.
                for (t, &d) in tile.iter_mut().zip(row) {
                    *t = W::lift(d);
                }
            } else {
                for (t, &d) in tile.iter_mut().zip(row) {
                    *t = W::lift((u64::from(d) % q) as u32);
                }
            }
            W::ntt(backend, table, tile, arena);
        };
        let seg = m * n..(m + 1) * n;
        match &mut sink {
            TileSink::Matrix(out) => {
                for (t, row) in digits.chunks_exact(n).enumerate() {
                    let tile = &mut tiles[..n];
                    tile_of(tile, row, arena);
                    let at = (t * k + m) * n;
                    for (dst, &x) in out[at..at + n].iter_mut().zip(tile.iter()) {
                        *dst = x.into();
                    }
                }
            }
            TileSink::Mac { rows, finish } => {
                // The GEMM of limb `m` onto its two accumulator rows.
                let mut gemm = |a: &mut [u64], b: &mut [u64]| {
                    let flush = modulus.lazy_terms();
                    let fan_in = TILE_FAN_IN.min(flush);
                    let mut pending = 0;
                    for first in (0..terms).step_by(fan_in) {
                        let len = fan_in.min(terms - first);
                        let group = digits[first * n..(first + len) * n].chunks_exact(n);
                        for (tile, row) in tiles.chunks_exact_mut(n).zip(group) {
                            tile_of(tile, row, arena);
                        }
                        if pending + len > flush {
                            backend.fold_lazy(modulus, a);
                            backend.fold_lazy(modulus, b);
                            pending = 0;
                        }
                        W::mac(backend, modulus, (a, b), &tiles[..len * n], rows, m, first);
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
    W::give(arena, tiles);
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

/// Whether the AVX-512 backend's 52-bit IFMA tier can run here
/// (`avx512f` **and** `avx512ifma` detected): with it, vector kernels
/// cover moduli up to 50 bits; without it, moduli above 29 bits fall
/// back to the portable path.
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
    /// The AVX-512 (and, where detected, IFMA) wide-datapath backend:
    /// eight lanes, fully vectorized NTT levels, and a 52-bit vector
    /// multiplier tier on `avx512ifma` hosts. Falls back through [`Simd`]
    /// to [`Optimized`] (resolved once, at selection time) on hosts
    /// without `avx512f`, so
    /// requesting it is always safe; check [`avx512_available`] /
    /// [`avx512_ifma_available`] to learn what actually runs.
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

/// Whole-polynomial FMA over all residue limbs: `acc += a ⊙ b` where the
/// three slices are flat `k × n` limb matrices (`n` inferred from the
/// length). The helper the `RowSel` scan and gadget GEMMs build on.
///
/// # Panics
/// Panics if lengths differ or are not a multiple of `moduli.len()`.
pub fn fma_poly(
    backend: &dyn VpeBackend,
    moduli: &[Modulus],
    acc: &mut [u64],
    a: &[u64],
    b: &[u64],
) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(acc.len(), b.len());
    assert_eq!(acc.len() % moduli.len(), 0, "flat poly not a multiple of the limb count");
    let n = acc.len() / moduli.len();
    for (m, modulus) in moduli.iter().enumerate() {
        backend.fma(
            modulus,
            &mut acc[m * n..(m + 1) * n],
            &a[m * n..(m + 1) * n],
            &b[m * n..(m + 1) * n],
        );
    }
}

/// Whole-polynomial pointwise product over all residue limbs
/// (`a ⊙= b`, flat `k × n` layout as in [`fma_poly`]).
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
    fn fma_poly_spans_limbs() {
        let moduli = Modulus::special_primes()[..2].to_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let n = 16;
        let flat = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            moduli.iter().flat_map(|m| rand_row(n, m.value(), rng)).collect()
        };
        let a = flat(&mut rng);
        let b = flat(&mut rng);
        let mut acc = vec![0u64; 2 * n];
        fma_poly(default_backend(), &moduli, &mut acc, &a, &b);
        for (m, modulus) in moduli.iter().enumerate() {
            for i in 0..n {
                assert_eq!(acc[m * n + i], modulus.mul(a[m * n + i], b[m * n + i]));
            }
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
            let a0 = rand_row(n, m.value(), &mut rng);
            let b0 = rand_row(n, m.value(), &mut rng);
            for kind in BACKEND_KINDS {
                let backend = kind.backend();
                let (mut la, mut lb) = (a0.clone(), b0.clone());
                let (mut ua, mut ub) = (a0.clone(), b0.clone());
                let terms: Vec<MacTerm<'_>> =
                    rows.iter().map(|[w, ea, eb]| (&w[..], &ea[..], &eb[..])).collect();
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
        let coeff = flat();
        let keys: Vec<[Vec<u64>; 2]> = (0..ell).map(|_| [flat(), flat()]).collect();
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
            let row = |t: usize, m: usize| (&keys[t][0][m * n..][..n], &keys[t][1][m * n..][..n]);
            let finish = MacFinish::Fold { acc_a: &mut ga, acc_b: &mut gb };
            let sink = TileSink::Mac { rows: KeyRows::Wide(&row), finish };
            dcp_tiles(&ring, &gadget, &sources, sink, backend, &mut arena).unwrap();
            assert_eq!(ga, ra, "{kind} acc_a");
            assert_eq!(gb, rb, "{kind} acc_b");
        }
    }
}
