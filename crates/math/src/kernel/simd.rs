//! The AVX2 wide-datapath backend — the software analogue of IVE's wide
//! PE lanes.
//!
//! `SimdBackend` runs the hot kernels on 256-bit registers. AVX2's only
//! vector multiplier is the 32×32→64 `vpmuludq`, so every kernel here is
//! built from products whose factors fit 32 bits, and only the NTTs are
//! written in intrinsics:
//!
//! * **Harvey NTT butterflies** on 4-byte rows (every NTT modulus is
//!   below `2^29`): eight words are loaded as two four-lane `u64`
//!   vectors, the even-indexed words and the odd-indexed ones, with the
//!   same lazy `[0, 4q)` level structure as the optimized backend, but
//!   with the Shoup twiddle quotient truncated to its high 32 bits
//!   (`w32 = floor(w·2^32/q)`, exactly `quotient >> 32` of the stored
//!   table entry). The truncated estimate undershoots by at most one,
//!   leaving the lazy product in `[0, 3q)`; one extra conditional
//!   subtraction restores the `[0, 2q)` butterfly invariant — a signed
//!   `_mm256_cmpgt_epi64`, exact since every intermediate is `< 2^63`.
//!   Lazy intermediates may differ from the scalar path by a multiple of
//!   `q`, but every path reduces the final output to the canonical
//!   `[0, q)` representative, so the *results* stay bit-identical.
//! * **Everything else is a portable body of [`super`]** inlined into an
//!   `#[target_feature(enable = "avx2")]` wrapper and auto-vectorized:
//!   the Barrett of `fma` and `pointwise_mul` (`barrett_words`, bounds
//!   and the 29-bit cap in `BarrettPlan`), the lazy MAC (`mac2_words` at
//!   sixteen words a chunk), the fold and the `ExpandQuery` epilogue
//!   (`fold_words`, `branch_words`) and `Dcp` (`dcp_chunked`). What
//!   decides whether LLVM gives a product one `vpmuludq` is whether it
//!   can prove both factors below `2^32`: a factor zero-extended from a
//!   4-byte word, or masked with `0xffff_ffff` — the loop-invariant
//!   constants too. A factor it cannot prove narrow makes the product a
//!   64×64 one, which AVX2 assembles from three `vpmuludq` and shifts.
//!
//! Kernel outputs are always canonically reduced, and canonical outputs
//! of exact algorithms are unique — so the backend is **bit-identical**
//! to the scalar oracle on every entry point, enforced by the
//! differential tests in `kernel::tests` and the proptests in
//! `crates/math/tests/kernel_props.rs`.
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
//! `2^27 + 2^k + 1` special primes (§IV-G). `fma` and `pointwise_mul`
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

    use super::super::{
        BarrettPlan, DcpPlan, FoldPlan, MacTerm, OptimizedBackend, ShoupRow, VpeBackend,
    };
    use super::available;
    use crate::arena::KernelArena;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::{NttTable, TwiddleWords};
    use crate::rns::RingContext;

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

    /// [`barrett_words`](super::super::barrett_words) compiled for AVX2.
    #[target_feature(enable = "avx2")]
    fn barrett_words_avx2(plan: &BarrettPlan, x: &mut [u64], a: Option<&[u64]>, b: &[u64]) {
        super::super::barrett_words(plan, x, a, b)
    }

    /// [`mac2_words`](super::super::mac2_words) compiled for AVX2,
    /// sixteen accumulator words (four registers each) at a time: a
    /// four-term MAC on 4096-word rows took 0.87× the time it takes at
    /// eight words (two registers each).
    #[target_feature(enable = "avx2")]
    fn mac2_words_avx2(acc_a: &mut [u64], acc_b: &mut [u64], terms: &[MacTerm<'_>]) {
        super::super::mac2_words::<16>(acc_a, acc_b, terms)
    }

    /// `fma` (`a` set) and `pointwise_mul` (`a` none) through
    /// [`barrett_dispatch`](super::super::barrett_dispatch).
    fn barrett(modulus: &Modulus, x: &mut [u64], a: Option<&[u64]>, b: &[u64]) {
        super::super::barrett_dispatch(available(), modulus, x, a, b, |p, x, a, b| {
            // SAFETY: the dispatch runs the body only where the cached
            // runtime probe detected AVX2; the body itself is safe code.
            unsafe { barrett_words_avx2(p, x, a, b) }
        })
    }

    impl VpeBackend for SimdBackend {
        fn name(&self) -> &'static str {
            "simd"
        }

        fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
            barrett(modulus, acc, Some(a), b)
        }

        fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
            barrett(modulus, a, None, b)
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
            // runtime probe; the body itself is safe code.
            unsafe { mac2_words_avx2(acc_a, acc_b, terms) }
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
    use super::super::tests::{check_barrett_extremes, check_fma_mul_and_ntt};
    use super::*;

    #[test]
    fn simd_matches_scalar_on_every_kernel() {
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        check_fma_mul_and_ntt(&SimdBackend, 61);
    }

    #[test]
    fn fma_exact_at_extreme_operands() {
        if !available() {
            eprintln!("skipping: AVX2 not detected");
            return;
        }
        check_barrett_extremes(&SimdBackend);
    }
}
