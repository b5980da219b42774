//! The AVX2 wide-datapath backend — the software analogue of IVE's wide
//! PE lanes.
//!
//! `SimdBackend` runs the hot kernels four 64-bit lanes at a time using
//! `std::arch::x86_64` AVX2 intrinsics. AVX2 has no 64-bit vector
//! multiplier, only the 32×32→64 `_mm256_mul_epu32` — and any attempt to
//! assemble a full 64×64 high product from four partial products gets
//! pattern-matched by LLVM back into *scalarized* 64-bit multiplies
//! (lane extracts + `mul` + reinserts), which is slower than not
//! vectorizing at all. So the vector paths are built to need **only**
//! 32-bit multiplier splits:
//!
//! * **FMA / pointwise mul** (`bits(q) ≤ 29`): a quotient-estimate
//!   Barrett. With `m = bits(q)`, precompute
//!   `μ = floor(2^(m+29) / q) < 2^30`; for `p = a·b + acc < q² ≤ 2^2m`,
//!   estimate `est = (((p >> (m-1)) · μ) >> 30)`. Three
//!   `_mm256_mul_epu32` per vector (product, estimate, `est·q`), every
//!   operand `< 2^32`. The estimate satisfies `Q-2 ≤ est ≤ Q` for the
//!   true quotient `Q = floor(p/q)` — the proof needs
//!   `(p >> (m-1)) < 2^30`, i.e. `m ≤ 29`, which is exactly why the
//!   fixed post-shift of 30 makes the 29-bit dispatch cap load-bearing
//!   — so `p - est·q < 3q` and two conditional subtractions finish the
//!   *exact* canonical residue.
//! * **Harvey NTT butterflies** on 4-byte rows (every NTT modulus is
//!   below `2^29`): the four `u64` lanes are loaded with `vpmovzxdq` and
//!   stored back narrowed by one `vpermd`, with the same lazy `[0, 4q)`
//!   level structure as the optimized backend, but with the Shoup
//!   twiddle quotient truncated to its high 32 bits
//!   (`w32 = floor(w·2^32/q)`, exactly `quotient >> 32` of the stored
//!   table entry). The truncated estimate undershoots by at most one,
//!   leaving the lazy product in `[0, 3q)`; one extra conditional
//!   subtraction restores the `[0, 2q)` butterfly invariant. Lazy
//!   intermediates may differ from the scalar path by a multiple of
//!   `q`, but every path reduces the final output to the canonical
//!   `[0, q)` representative, so the *results* stay bit-identical.
//! * **Conditional subtraction**: branch-free vector
//!   compare/mask/subtract (every intermediate is `< 2^63`, so the
//!   signed `_mm256_cmpgt_epi64` is exact).
//! * **`Dcp` (iCRT → digits)**: no intrinsics — the portable chunked
//!   kernel of [`super`] (`dcp_chunked`) is inlined into an
//!   `#[target_feature(enable = "avx2")]` wrapper and auto-vectorized.
//!
//! Kernel outputs are always canonically reduced, and canonical outputs
//! of exact algorithms are unique — so the backend is **bit-identical**
//! to the scalar oracle on every entry point, enforced by the
//! differential proptests in `crates/math/tests/kernel_props.rs`.
//!
//! **Runtime detection.** Nothing here assumes AVX2 at compile time: the
//! hot entry points are `#[target_feature(enable = "avx2")]` functions
//! reached only after `is_x86_feature_detected!("avx2")` succeeds. The
//! probe result is cached in a `OnceLock`
//! ([`simd_available`](super::simd_available)), and
//! [`BackendKind::Simd`](super::BackendKind::Simd) /
//! [`BackendKind::Auto`](super::BackendKind::Auto) resolve through it
//! *once* at selection time, so call sites never branch on the ISA. On
//! non-`x86_64` targets this module compiles to the fallback resolution
//! only, and the tree still builds and passes.
//!
//! **Scope of the vector paths.** The vector kernels cover moduli of at
//! most 29 bits (`q < 2^29`) — every limb a ring can have
//! ([`RnsBasis::new`](crate::rns::RnsBasis::new) refuses wider ones, and
//! no NTT table exists above it), including the paper's 28-bit
//! `2^27 + 2^k + 1` special primes (§IV-G). The modulus-level kernels
//! still take a wider modulus, as the oracle tests hand them, through
//! exactly the code the optimized backend runs.

use super::{OptimizedBackend, VpeBackend};

/// Whether the AVX2 backend can run here. First call probes the CPU
/// (`is_x86_feature_detected!("avx2")`); later calls are a cached load.
#[cfg(target_arch = "x86_64")]
pub(super) fn available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Non-`x86_64` targets never have the AVX2 backend.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn available() -> bool {
    false
}

/// The best backend this host supports: [`SimdBackend`] where AVX2 is
/// detected, [`OptimizedBackend`] everywhere else. Resolution of
/// `BackendKind::{Simd, Auto}` lands here.
pub(super) fn best_available() -> &'static dyn VpeBackend {
    #[cfg(target_arch = "x86_64")]
    if available() {
        return &SimdBackend;
    }
    &OptimizedBackend
}

#[cfg(target_arch = "x86_64")]
pub use x86::SimdBackend;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::super::{DcpPlan, FoldPlan, MacTerm, OptimizedBackend, ShoupRow, VpeBackend};
    use super::available;
    use crate::arena::KernelArena;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::{NttTable, TwiddleWords};
    use crate::rns::RingContext;

    /// Widest modulus the 32-bit-multiplier vector paths accept
    /// (`q < 2^29`): every lazy Harvey value (`< 4q`) and every Barrett
    /// operand fits 32 bits so `_mm256_mul_epu32` products are exact,
    /// and — the binding constraint — the Barrett quotient estimate's
    /// `Q-2 ≤ est ≤ Q` proof needs `bits(q) + 1` to stay within its
    /// fixed post-shift of 30. Raising this cap breaks the estimate
    /// bound *before* it breaks any 32-bit operand fit.
    const VECTOR_MAX_BITS: u32 = 29;

    /// The AVX2 wide-datapath backend (see the [module docs](super)).
    ///
    /// Constructing the type is always safe: every entry point re-checks
    /// the cached CPU probe and delegates to [`OptimizedBackend`] when
    /// AVX2 is absent, so a directly-instantiated `SimdBackend` on an
    /// old x86 machine degrades instead of faulting. Select it through
    /// [`BackendKind`](super::super::BackendKind) to make the fallback
    /// explicit in configs.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct SimdBackend;

    /// Branch-free conditional subtraction per lane: `r - q` where
    /// `r >= q`, else `r`. Both operands must be `< 2^63` so the signed
    /// compare agrees with the unsigned one — true throughout this
    /// module (`q < 2^29`, lazy values `< 4q`).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn csub(r: __m256i, q: __m256i) -> __m256i {
        let lt = _mm256_cmpgt_epi64(q, r);
        _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q))
    }

    /// Loads the four words at `p`.
    ///
    /// # Safety
    /// `p` must be valid for reading four `u64`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ld(p: *const u64) -> __m256i {
        // SAFETY: the caller guarantees 32 readable bytes at `p`; the
        // load has no alignment requirement.
        unsafe { _mm256_loadu_si256(p.cast()) }
    }

    /// Stores `v` to the four words at `p`.
    ///
    /// # Safety
    /// `p` must be valid for writing four `u64`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn st(p: *mut u64, v: __m256i) {
        // SAFETY: the caller guarantees 32 writable bytes at `p`; the
        // store has no alignment requirement.
        unsafe { _mm256_storeu_si256(p.cast(), v) }
    }

    /// Loads the four 4-byte words at `p`, zero-extended into the 64-bit
    /// lanes (`vpmovzxdq`).
    ///
    /// # Safety
    /// `p` must be valid for reading four `u32`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ld_narrow(p: *const u32) -> __m256i {
        // SAFETY: the caller guarantees 16 readable bytes at `p`; the
        // load has no alignment requirement.
        _mm256_cvtepu32_epi64(unsafe { _mm_loadu_si128(p.cast()) })
    }

    /// Per-modulus constants of the quotient-estimate Barrett
    /// (module docs): the pre-shift `m-1`, the scaled reciprocal
    /// `μ = floor(2^(m+29)/q) < 2^30`, and the post-shift fixed at 30.
    struct BarrettVec {
        shift_hi: i64,
        mu: u64,
    }

    impl BarrettVec {
        fn new(q: u64) -> Self {
            let m = 64 - q.leading_zeros();
            debug_assert!((2..=VECTOR_MAX_BITS).contains(&m));
            BarrettVec {
                shift_hi: i64::from(m) - 1,
                mu: ((1u128 << (m + 29)) / u128::from(q)) as u64,
            }
        }
    }

    /// `(p mod q)` per lane for `p < q²`, `q < 2^29`, via the
    /// quotient-estimate Barrett: `est ∈ [Q-2, Q]`, two conditional
    /// subtractions close the gap. All three multiplies are exact
    /// 32×32→64 `_mm256_mul_epu32` (operands `< 2^32` by the bounds in
    /// the module docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn barrett_vec(p: __m256i, bk_shift: __m128i, muv: __m256i, qv: __m256i) -> __m256i {
        let x = _mm256_srl_epi64(p, bk_shift);
        let est = _mm256_srli_epi64::<30>(_mm256_mul_epu32(x, muv));
        let r = _mm256_sub_epi64(p, _mm256_mul_epu32(est, qv));
        csub(csub(r, qv), qv)
    }

    /// Vectorized fused Barrett FMA over one limb row:
    /// `acc[i] = (acc[i] + a[i]·b[i]) mod q` for `q < 2^29`, four lanes
    /// at a time; the sub-lane tail reuses the scalar element formula
    /// (identical canonical output).
    ///
    /// # Safety
    /// Requires AVX2, and `a` and `b` as long as `acc`.
    #[target_feature(enable = "avx2")]
    unsafe fn fma_narrow(q: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        debug_assert!(a.len() == acc.len() && b.len() == acc.len());
        let bk = BarrettVec::new(q);
        let qv = _mm256_set1_epi64x(q as i64);
        let muv = _mm256_set1_epi64x(bk.mu as i64);
        let shift = _mm_cvtsi64_si128(bk.shift_hi);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = acc.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 ≤ n`, the length of all three rows.
            unsafe {
                // a, b < q < 2^29: one 32×32 partial product IS the full
                // 64-bit product, and adding acc < q cannot overflow.
                let ab = _mm256_mul_epu32(ld(a.as_ptr().add(i)), ld(b.as_ptr().add(i)));
                let p = _mm256_add_epi64(ab, ld(acc.as_ptr().add(i)));
                st(acc.as_mut_ptr().add(i), barrett_vec(p, shift, muv, qv));
            }
            i += 4;
        }
        for j in i..n {
            acc[j] = OptimizedBackend::fma_one_narrow(ratio, q, acc[j], a[j], b[j]);
        }
    }

    /// Vectorized pointwise product `a[i] = a[i]·b[i] mod q` for
    /// `q < 2^29` — the FMA datapath with a zero accumulate.
    ///
    /// # Safety
    /// Requires AVX2, and `b` as long as `a`.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_narrow(q: u64, a: &mut [u64], b: &[u64]) {
        debug_assert_eq!(a.len(), b.len());
        let bk = BarrettVec::new(q);
        let qv = _mm256_set1_epi64x(q as i64);
        let muv = _mm256_set1_epi64x(bk.mu as i64);
        let shift = _mm_cvtsi64_si128(bk.shift_hi);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = a.len();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 ≤ n`, the length of both rows.
            unsafe {
                let ab = _mm256_mul_epu32(ld(a.as_ptr().add(i)), ld(b.as_ptr().add(i)));
                st(a.as_mut_ptr().add(i), barrett_vec(ab, shift, muv, qv));
            }
            i += 4;
        }
        for j in i..n {
            a[j] = OptimizedBackend::fma_one_narrow(ratio, q, 0, a[j], b[j]);
        }
    }

    /// The vectorized lazy dual MAC over 4-byte rows — a database row
    /// against `ea`/`eb`, a digit tile against a `GadgetRows` store's rows
    /// (`vpmovzxdq` widens four on load): `acc_a[i] += Σ_t w_t[i]·ea_t[i]`,
    /// `acc_b[i] += Σ_t w_t[i]·eb_t[i]` as unreduced `u64` sums held in
    /// registers across the terms. Operands are below `2^32`, so one
    /// `_mm256_mul_epu32` partial product IS the full 64-bit product;
    /// the caller's fold cadence ([`Modulus::lazy_terms`]) keeps the
    /// sums from wrapping.
    ///
    /// # Safety
    /// Requires AVX2, and `acc_b` and every row of `terms` as long as
    /// `acc_a`.
    #[target_feature(enable = "avx2")]
    unsafe fn mac2_lazy_avx2(acc_a: &mut [u64], acc_b: &mut [u64], terms: &[MacTerm<'_>]) {
        let n = acc_a.len();
        debug_assert_eq!(acc_b.len(), n);
        debug_assert!(terms.iter().all(|t| (t.0.len(), t.1.len(), t.2.len()) == (n, n, n)));
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: `i + 4 ≤ n`, the length of both accumulators and of
            // every term row.
            unsafe {
                let mut ca = ld(acc_a.as_ptr().add(i));
                let mut cb = ld(acc_b.as_ptr().add(i));
                for (w, ea, eb) in terms {
                    let wv = ld_narrow(w.as_ptr().add(i));
                    let eav = ld_narrow(ea.as_ptr().add(i));
                    let ebv = ld_narrow(eb.as_ptr().add(i));
                    ca = _mm256_add_epi64(ca, _mm256_mul_epu32(wv, eav));
                    cb = _mm256_add_epi64(cb, _mm256_mul_epu32(wv, ebv));
                }
                st(acc_a.as_mut_ptr().add(i), ca);
                st(acc_b.as_mut_ptr().add(i), cb);
            }
            i += 4;
        }
        for j in i..n {
            for (w, ea, eb) in terms {
                acc_a[j] += u64::from(w[j]) * u64::from(ea[j]);
                acc_b[j] += u64::from(w[j]) * u64::from(eb[j]);
            }
        }
    }

    /// Lane-wise lazy Shoup product with the 32-bit truncated quotient:
    /// `w·v - floor((quotient>>32)·v / 2^32)·q`, in `[0, 3q)` (the
    /// truncation undershoots the true quotient by at most one); the
    /// caller's conditional subtraction restores `[0, 2q)`. Exact for
    /// `w < q < 2^29` and lazy `v < 4q < 2^32`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn shoup32_lazy(wv: __m256i, wq32: __m256i, v: __m256i, q: __m256i) -> __m256i {
        let est = _mm256_srli_epi64::<32>(_mm256_mul_epu32(wq32, v));
        _mm256_sub_epi64(_mm256_mul_epu32(wv, v), _mm256_mul_epu32(est, q))
    }

    /// The eight 4-byte words at `p` as two four-lane `u64` vectors, the
    /// even-indexed words and the odd-indexed ones: a lane permutation an
    /// element-wise kernel does not see, at no shuffle's cost.
    ///
    /// # Safety
    /// `p` must be valid for reading eight `u32`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn ld_pairs(p: *const u32) -> (__m256i, __m256i) {
        // SAFETY: the caller guarantees 32 readable bytes at `p`; the
        // load has no alignment requirement.
        let x = unsafe { _mm256_loadu_si256(p.cast()) };
        (_mm256_and_si256(x, _mm256_set1_epi64x(0xffff_ffff)), _mm256_srli_epi64::<32>(x))
    }

    /// Stores the even- and odd-indexed words of [`ld_pairs`], each below
    /// `2^32`, back to the eight words at `p`.
    ///
    /// # Safety
    /// `p` must be valid for writing eight `u32`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn st_pairs(p: *mut u32, even: __m256i, odd: __m256i) {
        let x = _mm256_or_si256(even, _mm256_slli_epi64::<32>(odd));
        // SAFETY: the caller guarantees 32 writable bytes at `p`; the
        // store has no alignment requirement.
        unsafe { _mm256_storeu_si256(p.cast(), x) }
    }

    /// One butterfly twiddle per lane (value and 32-bit Shoup quotient)
    /// beside `q` and `2q`, broadcast.
    struct Level {
        w: __m256i,
        wq: __m256i,
        q: __m256i,
        q2: __m256i,
    }

    impl Level {
        /// Twiddle `i` of `tw`, broadcast.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn broadcast(tw: &TwiddleWords, i: usize, q: __m256i, q2: __m256i) -> Self {
            let w = _mm256_set1_epi64x(i64::from(tw.value[i]));
            Level { w, wq: _mm256_set1_epi64x(i64::from(tw.quotient[i])), q, q2 }
        }
    }

    /// The Harvey butterfly on four lanes: Cooley–Tukey
    /// `(x, y) → (x + w·y, x − w·y)` with `[0, 4q)` in and out, or
    /// (`INV`) Gentleman–Sande `(x, y) → (x + y, w·(x − y))` with
    /// `[0, 2q)` in and out.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn butterfly<const INV: bool>(x: __m256i, y: __m256i, k: &Level) -> (__m256i, __m256i) {
        if INV {
            let diff = _mm256_add_epi64(x, _mm256_sub_epi64(k.q2, y));
            let prod = csub(shoup32_lazy(k.w, k.wq, diff, k.q), k.q2);
            (csub(_mm256_add_epi64(x, y), k.q2), prod)
        } else {
            let u = csub(x, k.q2);
            let v = csub(shoup32_lazy(k.w, k.wq, y, k.q), k.q2);
            (_mm256_add_epi64(u, v), _mm256_add_epi64(u, _mm256_sub_epi64(k.q2, v)))
        }
    }

    /// The butterflies between the half-blocks `lo` and `hi` of one level
    /// (`t ≥ 8` words each, `t` a power of two), eight words at a time
    /// through [`ld_pairs`].
    #[target_feature(enable = "avx2")]
    #[inline]
    fn half_blocks<const INV: bool>(lo: &mut [u32], hi: &mut [u32], k: &Level) {
        for (lo, hi) in lo.chunks_exact_mut(8).zip(hi.chunks_exact_mut(8)) {
            // SAFETY: both chunks are eight words.
            unsafe {
                let ((xe, xo), (ye, yo)) = (ld_pairs(lo.as_ptr()), ld_pairs(hi.as_ptr()));
                let ((ae, be), (ao, bo)) =
                    (butterfly::<INV>(xe, ye, k), butterfly::<INV>(xo, yo, k));
                st_pairs(lo.as_mut_ptr(), ae, ao);
                st_pairs(hi.as_mut_ptr(), be, bo);
            }
        }
    }

    /// The level with half-block length `t ∈ {1, 2, 4}` over the whole
    /// row, eight words — `4/t` blocks — at a time, block `b` on twiddle
    /// `first + b` of `tw`. The words of [`ld_pairs`] are the operands
    /// already at `t = 1` (even `x`, odd `y`); at `t = 2` one
    /// `vpunpck{l,h}qdq` pair each way re-pairs them, at `t = 4` one
    /// `vperm2i128` pair. The blocks' twiddles are zero-extended from the
    /// table's 4-byte words.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn short_level<const INV: bool>(
        a: &mut [u32],
        t: usize,
        tw: &TwiddleWords,
        first: usize,
        (q, q2): (__m256i, __m256i),
    ) {
        for (c, chunk) in a.chunks_exact_mut(8).enumerate() {
            let at = first + 4 * c / t;
            let spread = |words: &[u32]| {
                let words = &words[at..at + 4 / t];
                match t {
                    // SAFETY: `words` is the four blocks' twiddles.
                    1 => _mm256_cvtepu32_epi64(unsafe { _mm_loadu_si128(words.as_ptr().cast()) }),
                    2 => {
                        // SAFETY: `words` is the two blocks' twiddles.
                        let pair = unsafe { _mm_loadl_epi64(words.as_ptr().cast()) };
                        _mm256_cvtepu32_epi64(_mm_unpacklo_epi32(pair, pair))
                    }
                    _ => _mm256_set1_epi64x(i64::from(words[0])),
                }
            };
            let k = Level { w: spread(&tw.value), wq: spread(&tw.quotient), q, q2 };
            // SAFETY: the chunk is eight words.
            let (even, odd) = unsafe { ld_pairs(chunk.as_ptr()) };
            let (even, odd) = match t {
                1 => butterfly::<INV>(even, odd, &k),
                2 => {
                    let x = _mm256_unpacklo_epi64(even, odd);
                    let (x, y) = butterfly::<INV>(x, _mm256_unpackhi_epi64(even, odd), &k);
                    (_mm256_unpacklo_epi64(x, y), _mm256_unpackhi_epi64(x, y))
                }
                _ => {
                    let x = _mm256_permute2x128_si256::<0x20>(even, odd);
                    let (x, y) =
                        butterfly::<INV>(x, _mm256_permute2x128_si256::<0x31>(even, odd), &k);
                    (
                        _mm256_permute2x128_si256::<0x20>(x, y),
                        _mm256_permute2x128_si256::<0x31>(x, y),
                    )
                }
            };
            // SAFETY: as for the load.
            unsafe { st_pairs(chunk.as_mut_ptr(), even, odd) };
        }
    }

    /// `f` on every word of `a` (eight words or more), in four-lane `u64`
    /// vectors.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn each_word(a: &mut [u32], f: impl Fn(__m256i) -> __m256i) {
        for chunk in a.chunks_exact_mut(8) {
            // SAFETY: the chunk is eight words.
            unsafe {
                let (even, odd) = ld_pairs(chunk.as_ptr());
                st_pairs(chunk.as_mut_ptr(), f(even), f(odd));
            }
        }
    }

    /// Vectorized forward Harvey NTT of a 4-byte row of `n ≥ 8` words:
    /// the optimized backend's levels, with the butterflies on four-lane
    /// `u64` vectors — [`half_blocks`] while `t ≥ 8`, [`short_level`] for
    /// `t = 4, 2, 1` — and the final `[0, 4q) → [0, q)` pass.
    #[target_feature(enable = "avx2")]
    fn ntt_forward_f29(table: &NttTable, a: &mut [u32]) {
        let n = table.n();
        debug_assert!(a.len() == n && n >= 8);
        let q = table.modulus().value();
        let (qv, q2) = (_mm256_set1_epi64x(q as i64), _mm256_set1_epi64x(2 * q as i64));
        let tw = table.psi_words();
        let (mut t, mut m) = (n / 2, 1usize);
        while t >= 8 {
            for i in 0..m {
                let (lo, hi) = a[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                half_blocks::<false>(lo, hi, &Level::broadcast(tw, m + i, qv, q2));
            }
            (t, m) = (t / 2, 2 * m);
        }
        for t in [4, 2, 1] {
            short_level::<false>(a, t, tw, n / (2 * t), (qv, q2));
        }
        each_word(a, |x| csub(csub(x, q2), qv));
    }

    /// Vectorized inverse (Gentleman–Sande) Harvey NTT of a 4-byte row of
    /// `n ≥ 8` words, mirroring [`ntt_forward_f29`], plus the vectorized
    /// `n^{-1}` pass.
    #[target_feature(enable = "avx2")]
    fn ntt_inverse_f29(table: &NttTable, a: &mut [u32]) {
        let n = table.n();
        debug_assert!(a.len() == n && n >= 8);
        let q = table.modulus().value();
        let (qv, q2) = (_mm256_set1_epi64x(q as i64), _mm256_set1_epi64x(2 * q as i64));
        let tw = table.ipsi_words();
        for t in [1, 2, 4] {
            short_level::<true>(a, t, tw, n / (2 * t), (qv, q2));
        }
        let (mut t, mut h) = (8usize, n / 16);
        while h >= 1 {
            for i in 0..h {
                let (lo, hi) = a[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                half_blocks::<true>(lo, hi, &Level::broadcast(tw, h + i, qv, q2));
            }
            (t, h) = (2 * t, h / 2);
        }
        let n_inv = table.n_inv();
        let nv = _mm256_set1_epi64x(n_inv.value as i64);
        let nq = _mm256_set1_epi64x((n_inv.quotient >> 32) as i64);
        // [0, 3q) from the truncated Shoup estimate, then down to the
        // canonical [0, q).
        each_word(a, |x| csub(csub(shoup32_lazy(nv, nq, x, qv), q2), qv));
    }

    /// [`dcp_chunked`](super::super::dcp_chunked) compiled for AVX2: the
    /// portable lane body inlines here, so its eight-lane steps become
    /// pairs of 256-bit operations.
    #[target_feature(enable = "avx2")]
    fn dcp_chunked_avx2(
        plan: &DcpPlan,
        gadget: &Gadget,
        coeff: &[u32],
        tau: Option<usize>,
        out: &mut [u32],
    ) {
        super::super::dcp_chunked(plan, gadget, coeff, tau, out)
    }

    /// [`fold_words`](super::super::fold_words) compiled for AVX2.
    #[target_feature(enable = "avx2")]
    fn fold_words_avx2(plan: &FoldPlan, acc: &mut [u64]) {
        super::super::fold_words(plan, acc)
    }

    /// [`branch_words`](super::super::branch_words) compiled for AVX2.
    #[target_feature(enable = "avx2")]
    fn branch_words_avx2(
        plan: &FoldPlan,
        acc: &[u64],
        x: &mut [u32],
        odd: &mut [u32],
        monomial: ShoupRow<'_>,
    ) {
        super::super::branch_words(plan, acc, x, odd, monomial)
    }

    impl VpeBackend for SimdBackend {
        fn name(&self) -> &'static str {
            "simd"
        }

        fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
            if !available() || modulus.bits() > VECTOR_MAX_BITS {
                // Out-of-scope moduli and AVX2-less hosts take exactly
                // the optimized backend's code (which also does the
                // op-metrics charge).
                return OptimizedBackend.fma(modulus, acc, a, b);
            }
            assert_eq!(acc.len(), a.len());
            assert_eq!(acc.len(), b.len());
            crate::metrics::count_pointwise_macs(acc.len() as u64);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe, and the asserts above made the three rows
            // equally long.
            unsafe { fma_narrow(modulus.value(), acc, a, b) }
        }

        fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
            if !available() || modulus.bits() > VECTOR_MAX_BITS {
                return OptimizedBackend.pointwise_mul(modulus, a, b);
            }
            assert_eq!(a.len(), b.len());
            crate::metrics::count_pointwise_macs(a.len() as u64);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe, and the assert above made the two rows
            // equally long.
            unsafe { mul_narrow(modulus.value(), a, b) }
        }

        fn mac2_lazy(
            &self,
            modulus: &Modulus,
            acc_a: &mut [u64],
            acc_b: &mut [u64],
            terms: &[MacTerm<'_>],
        ) {
            if !available() {
                return OptimizedBackend.mac2_lazy(modulus, acc_a, acc_b, terms);
            }
            super::super::check_mac_terms(modulus, acc_a.len(), acc_b, terms);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe, and `check_mac_terms` asserted that every
            // row is as long as the accumulators.
            unsafe { mac2_lazy_avx2(acc_a, acc_b, terms) }
        }

        fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
            if !available() {
                return OptimizedBackend.fold_lazy(modulus, acc);
            }
            super::super::fold_dispatch(modulus, acc, |p, a| {
                // SAFETY: AVX2 presence was just verified via the cached
                // runtime probe; the body itself is safe code.
                unsafe { fold_words_avx2(p, a) }
            })
        }

        fn branch_lazy(
            &self,
            modulus: &Modulus,
            acc: &[u64],
            x: &mut [u32],
            odd: &mut [u32],
            monomial: ShoupRow<'_>,
        ) {
            if !available() {
                return OptimizedBackend.branch_lazy(modulus, acc, x, odd, monomial);
            }
            let plan = super::super::check_branch_rows(modulus, acc, x, odd, monomial);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe; the body itself is safe code.
            unsafe { branch_words_avx2(&plan, acc, x, odd, monomial) }
        }

        fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32]) {
            if !available() || table.n() < 8 {
                return OptimizedBackend.ntt_forward_narrow(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { ntt_forward_f29(table, a) }
        }

        fn ntt_inverse_narrow(&self, table: &NttTable, a: &mut [u32]) {
            if !available() || table.n() < 8 {
                return OptimizedBackend.ntt_inverse_narrow(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: AVX2 presence was just verified via the cached
            // runtime probe.
            unsafe { ntt_inverse_f29(table, a) }
        }

        fn icrt_decompose(
            &self,
            ring: &RingContext,
            coeff: &[u32],
            tau: Option<usize>,
            gadget: &Gadget,
            arena: &mut KernelArena,
            out: &mut [u32],
        ) {
            if !available() {
                return OptimizedBackend.icrt_decompose(ring, coeff, tau, gadget, arena, out);
            }
            super::super::dcp_dispatch(ring, coeff, tau, gadget, arena, out, |p, g, c, t, o| {
                // SAFETY: AVX2 presence was just verified via the cached
                // runtime probe; the body itself is safe code.
                unsafe { dcp_chunked_avx2(p, g, c, t, o) }
            })
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::super::{ScalarBackend, VpeBackend};
    use super::*;
    use crate::modulus::Modulus;
    use rand::{Rng, SeedableRng};

    fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn simd_matches_scalar_on_every_kernel() {
        // A quick in-crate differential (the heavy matrix lives in
        // tests/kernel_props.rs): special primes plus a tiny prime and a
        // 29/30-bit boundary pair straddling the vector-path cutoff (and
        // the NTT tables' cap), lengths that stress lane tails, NTT sizes
        // through the scalar levels.
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let mut moduli = Modulus::special_primes().to_vec();
        for q in [
            257,                                                           // tiny, still NTT-ready
            crate::prime::find_ntt_prime_below(29, 1024).expect("29-bit"), // widest vector-path q
            crate::prime::find_ntt_prime_below(30, 1024).expect("30-bit"), // first fallback q
        ] {
            moduli.push(Modulus::new(q));
        }
        for m in &moduli {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 64, 130, 255] {
                let a = rand_row(n, m.value(), &mut rng);
                let b = rand_row(n, m.value(), &mut rng);
                let acc0 = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (acc0.clone(), acc0.clone());
                ScalarBackend.fma(m, &mut s, &a, &b);
                SimdBackend.fma(m, &mut v, &a, &b);
                assert_eq!(s, v, "fma q={} n={n}", m.value());
                let (mut s, mut v) = (acc0.clone(), acc0);
                ScalarBackend.pointwise_mul(m, &mut s, &b);
                SimdBackend.pointwise_mul(m, &mut v, &b);
                assert_eq!(s, v, "mul q={} n={n}", m.value());
            }
            super::super::tests::check_ntt_pair(&SimdBackend, m, &mut rng);
        }
    }

    #[test]
    fn fma_exact_at_extreme_operands() {
        // The quotient-estimate Barrett must be exact at the corners,
        // not just on random draws: all-(q-1) operands maximize p, and
        // boundary accumulators exercise est = Q-2..Q.
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        for m in Modulus::special_primes() {
            let q = m.value();
            for &(a, b, c) in &[
                (q - 1, q - 1, q - 1),
                (q - 1, q - 1, 0),
                (q - 1, 1, q - 1),
                (0, 0, 0),
                (1, 1, q - 1),
                (q - 2, q - 2, q - 3),
            ] {
                let av = vec![a; 8];
                let bv = vec![b; 8];
                let mut scalar = vec![c; 8];
                let mut simd = vec![c; 8];
                ScalarBackend.fma(&m, &mut scalar, &av, &bv);
                SimdBackend.fma(&m, &mut simd, &av, &bv);
                assert_eq!(scalar, simd, "q={q} a={a} b={b} c={c}");
            }
        }
    }
}
