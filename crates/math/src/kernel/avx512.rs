//! The AVX-512 wide-datapath backend — sixteen 32-bit lanes for both
//! NTTs, and the AVX2 backend's portable bodies at 512-bit width for
//! everything else.
//!
//! `Avx512Backend` serves every limb a ring can have (`bits(q) ≤ 29`:
//! [`RnsBasis::new`](crate::rns::RnsBasis::new) refuses wider ones),
//! including the paper's 28-bit specials. Only the NTT pair below is
//! written in intrinsics. The Barrett of `fma` and `pointwise_mul`
//! (`barrett_words`, bounds and the 29-bit cap in `BarrettPlan`), the
//! lazy MAC (`mac2_words`), the fold and the `ExpandQuery` epilogue
//! (`fold_words`, `branch_words`) and `Dcp` (`dcp_chunked`) are the
//! portable bodies of [`super`] inlined into
//! `#[target_feature(enable = "avx512f")]` wrappers and auto-vectorized:
//! each product becomes one `vpmuludq` on a zmm register where LLVM can
//! prove both factors below `2^32` (zero-extended from a 4-byte word, or
//! masked with `0xffff_ffff`, loop-invariant constants included), and a
//! 64×64 product assembled from three where it cannot. `fma` and
//! `pointwise_mul` still take a wider modulus, as the oracle tests hand
//! them, through exactly the optimized backend's code.
//!
//! **The sixteen-lane NTTs.** Every limb row a transform touches is held
//! in 4-byte words — a digit tile of the key-switch pipeline
//! ([`dcp_tiles`](super::dcp_tiles)), a key-switch input on its way to
//! `Dcp`, a fresh sample's noise, a record's limb, and an `RnsPoly` row
//! narrowed by the shared `u64` pair — and
//! [`VpeBackend::ntt_forward_narrow`] / [`VpeBackend::ntt_inverse_narrow`]
//! transform it in place at sixteen 32-bit lanes (`ntt_narrow`, `n ≥ 32`;
//! smaller rings delegate to the optimized backend). Harvey butterflies
//! on the 32-bit Shoup twiddles (`quotient >> 32` is exactly
//! `floor(w·2^32/q)`): lazy values ride in `[0, 4q)`, which `4q < 2^31`
//! keeps in a lane and under the lazy product's operand bound; the Shoup
//! estimate's high halves come from an even-lane and an odd-lane
//! `vpmuludq` merged by a masked `vpshufd`, the two low products from
//! `vpmulld`; the conditional subtraction is `min(x, x − m)`. Radix-4
//! passes run while a quarter-block fills a vector (`t ≥ 32`, one radix-2
//! pass when `log n` is even), and one register-resident pass runs
//! `t = 16, 8, 4, 2, 1` on thirty-two coefficients (`vpermt2d`, selectors
//! computed at compile time), with twiddles from the 4-byte
//! structure-of-arrays tables of [`NttTable`]. The forward transform ends
//! on that pass and its final reduction; the inverse starts on it, mirrors
//! the schedule and folds `n⁻¹` into its last pass. Five passes over a
//! 16 KiB row that stays in L1, 14 µops per sixteen butterflies.
//!
//! **The lazy MAC.** [`VpeBackend::mac2_lazy`] is `mac2_words` at
//! sixteen accumulator words a chunk: each cache line of the shared
//! multiplicand is loaded once, widened with `vpmovzxdq`, and its exact
//! 64-bit products are added into both ciphertext accumulators, held in
//! registers across the terms, with no reduction at all — the fold back
//! to `[0, q)` happens once per dot product. Every operand row is 4-byte
//! words (`RowSel`'s database row against `ea`/`eb`, a digit tile
//! against the rows of a `Subs` key or an RGSW bit).
//!
//! Kernel outputs are always canonically reduced, and canonical outputs
//! of exact algorithms are unique — so the backend is **bit-identical**
//! to the scalar oracle on every entry point, enforced by the
//! differential tests in `kernel::tests` and the proptests in
//! `crates/math/tests/kernel_props.rs`.
//!
//! **Runtime detection.** Nothing here assumes AVX-512 at compile time:
//! the tree builds with `-C target-feature=-avx2,-avx512f` (CI checks
//! it) and on non-x86 targets. The `avx512f` probe is cached in a
//! `OnceLock`, and [`BackendKind::Avx512`] / [`BackendKind::Auto`]
//! resolve through it once at selection time.
//!
//! [`BackendKind::Avx512`]: super::BackendKind::Avx512
//! [`BackendKind::Auto`]: super::BackendKind::Auto
//! [`VpeBackend::mac2_lazy`]: super::VpeBackend::mac2_lazy
//! [`NttTable`]: crate::ntt::NttTable

use super::{simd, VpeBackend};

/// Whether the AVX-512 backend can run here. First call probes the CPU
/// (`is_x86_feature_detected!("avx512f")`); later calls are cached loads.
#[cfg(target_arch = "x86_64")]
pub(super) fn available() -> bool {
    use std::sync::OnceLock;
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// Non-`x86_64` targets never have the AVX-512 backend.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn available() -> bool {
    false
}

/// Whether the host reports AVX-512 IFMA beside `avx512f` (a host
/// description only: no kernel here uses it).
#[cfg(target_arch = "x86_64")]
pub(super) fn ifma_available() -> bool {
    use std::sync::OnceLock;
    static IFMA: OnceLock<bool> = OnceLock::new();
    *IFMA.get_or_init(|| available() && std::arch::is_x86_feature_detected!("avx512ifma"))
}

/// Non-`x86_64` targets never have IFMA.
#[cfg(not(target_arch = "x86_64"))]
pub(super) fn ifma_available() -> bool {
    false
}

/// The best backend this host supports: [`Avx512Backend`] where AVX-512F
/// is detected, otherwise whatever the AVX2 probe picks
/// ([`simd::best_available`]). Resolution of `BackendKind::{Avx512,
/// Auto}` lands here.
pub(super) fn best_available() -> &'static dyn VpeBackend {
    #[cfg(target_arch = "x86_64")]
    if available() {
        return &Avx512Backend;
    }
    simd::best_available()
}

#[cfg(target_arch = "x86_64")]
pub use x86::Avx512Backend;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::super::{
        BarrettPlan, DcpPlan, FoldPlan, MacTerm, OptimizedBackend, ShoupRow, SimdBackend,
        VpeBackend,
    };
    use super::available;
    use crate::arena::KernelArena;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::NttTable;
    use crate::rns::RingContext;

    /// The AVX-512 wide-datapath backend (see the [module docs](super)).
    ///
    /// Constructing the type is always safe: every entry point re-checks
    /// the cached CPU probe and delegates to [`OptimizedBackend`] when
    /// AVX-512F is absent, so a directly-instantiated
    /// `Avx512Backend` on an AVX2-only machine degrades instead of
    /// faulting. Select it through
    /// [`BackendKind`](super::super::BackendKind) to make the fallback
    /// explicit in configs.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Avx512Backend;

    // ---------------------------------------------------------------
    // The sixteen-lane NTT pair on 4-byte words, bits(q) <= 29.
    // ---------------------------------------------------------------

    /// The forward/inverse Harvey NTT pair at sixteen 32-bit lanes, for a
    /// limb row held in 4-byte words (`q < 2^29`, so the lazy `[0, 4q)`
    /// values stay below `2^31`), its lazy product `lazy2q` on the 32-bit
    /// Shoup quotients of the 4-byte twiddle tables.
    ///
    /// **Pass schedule** (`log n − 5` levels with half-block length
    /// `t ≥ 32`, then five with `t ≤ 16`). Forward (Cooley–Tukey): one
    /// radix-2 pass over level `t = n/2` when `log n − 5` is odd; radix-4
    /// passes, each fusing levels `t` and `t/2` on four quarter-blocks of
    /// at least a vector each (three broadcast twiddles); a tail that runs
    /// `t = 16, 8, 4, 2, 1` and the final `[0, 4q) → [0, q)` reduction on
    /// thirty-two coefficients per iteration, operands re-paired between
    /// levels by `vpermt2d`. Inverse (Gentleman–Sande): the mirror image —
    /// the tail `t = 1 … 16` first, the odd radix-2 pass at `t = 32`,
    /// radix-4 passes — with the `n⁻¹` scaling folded into the twiddles of
    /// the last pass. Five load/store passes over a 4096-point row.
    ///
    /// **Invariants.** Forward values ride in `[0, 4q)` between levels
    /// and passes (`u = x − 2q·[x ≥ 2q] < 2q`, `v = lazy2q(w·y) < 2q`,
    /// outputs `u + v` and `u + 2q − v`); inverse values ride in `[0, 2q)`
    /// (sum folded once, difference `u + 2q − v < 4q` straight into the
    /// lazy product). Both need only that the lazy product maps any input
    /// below `4q` into `[0, 2q)`, which is its contract.
    mod ntt_narrow {
        use super::*;
        use crate::ntt::TwiddleWords;
        use crate::reduce::ShoupMul;

        /// Chunk position held by lane `lane` of the `lo` operand at the
        /// tail level of half-block length `t`: the positions of a
        /// 32-coefficient chunk with bit `log t` clear, in order (the `hi`
        /// operand holds the position `t` above).
        const fn lo_pos(t: usize, lane: usize) -> usize {
            let b = t.trailing_zeros();
            ((lane >> b) << (b + 1)) | (lane & (t - 1))
        }

        /// The `vpermt2d` selector (0–15 the first source, 16–31 the
        /// second) that builds operand `which` (0 `lo`, 1 `hi`) of level
        /// `to` out of the `(lo, hi)` pair of level `from`.
        const fn selector(from: usize, to: usize, which: usize) -> [i32; 16] {
            let b = from.trailing_zeros();
            let mut out = [0i32; 16];
            let mut lane = 0;
            while lane < 16 {
                let pos = lo_pos(to, lane) + which * to;
                let low = pos & !from;
                let rank = ((low >> (b + 1)) << b) | (low & (from - 1));
                out[lane] = (rank + if pos & from != 0 { 16 } else { 0 }) as i32;
                lane += 1;
            }
            out
        }

        /// The `vpermd` selector spreading the `16/t` block twiddles of a
        /// chunk's level `t` over the lanes of its operands.
        const fn twiddle_lanes(t: usize) -> [i32; 16] {
            let mut out = [0i32; 16];
            let mut lane = 0;
            while lane < 16 {
                out[lane] = (lo_pos(t, lane) / (2 * t)) as i32;
                lane += 1;
            }
            out
        }

        /// The selector pair from the layout of level `from` to that of
        /// level `to`; level 16 is coefficient order (`lo` the chunk's
        /// first half).
        const fn selectors(from: usize, to: usize) -> [[i32; 16]; 2] {
            [selector(from, to, 0), selector(from, to, 1)]
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn lanes16(map: &[i32; 16]) -> __m512i {
            // SAFETY: `map` is 64 readable bytes; the load has no
            // alignment requirement.
            unsafe { _mm512_loadu_si512(map.as_ptr().cast()) }
        }

        /// A `vpermt2d` selector pair.
        type Shuffle = (__m512i, __m512i);

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn shuffle_of(maps: &[[i32; 16]; 2]) -> Shuffle {
            (lanes16(&maps[0]), lanes16(&maps[1]))
        }

        /// The next level's (lo, hi) operands out of this level's.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn shuffle(lo: __m512i, hi: __m512i, by: Shuffle) -> (__m512i, __m512i) {
            (_mm512_permutex2var_epi32(lo, by.0, hi), _mm512_permutex2var_epi32(lo, by.1, hi))
        }

        /// Loads the sixteen words at `p`.
        ///
        /// # Safety
        /// `p` must be valid for reading sixteen `u32`s.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn ld(p: *const u32) -> __m512i {
            // SAFETY: the caller guarantees 64 readable bytes at `p`; the
            // load has no alignment requirement.
            unsafe { _mm512_loadu_si512(p.cast()) }
        }

        /// Stores `v` to the sixteen words at `p`.
        ///
        /// # Safety
        /// `p` must be valid for writing sixteen `u32`s.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn st(p: *mut u32, v: __m512i) {
            // SAFETY: the caller guarantees 64 writable bytes at `p`; the
            // store has no alignment requirement.
            unsafe { _mm512_storeu_si512(p.cast(), v) }
        }

        /// Loads the `N ∈ {2, 4, 8}` words at `p` into lanes `0..N` (other
        /// lanes unspecified), for a `vpermd` that reads only those.
        ///
        /// # Safety
        /// `p` must be valid for reading `N` `u32`s.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn ld_low<const N: usize>(p: *const u32) -> __m512i {
            // SAFETY: the caller guarantees `4N` readable bytes at `p`,
            // which is what each arm loads.
            unsafe {
                match N {
                    2 => _mm512_castsi128_si512(_mm_loadl_epi64(p.cast())),
                    4 => _mm512_castsi128_si512(_mm_loadu_si128(p.cast())),
                    8 => _mm512_castsi256_si512(_mm256_loadu_si256(p.cast())),
                    _ => unreachable!("a tail level has 2, 4 or 8 block twiddles per chunk"),
                }
            }
        }

        /// A twiddle as the butterfly reads it: the value, its 32-bit
        /// Shoup quotient, and that quotient with each odd lane moved down
        /// to the even lane `vpmuludq` multiplies.
        type Tw = (__m512i, __m512i, __m512i);

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn tw_of(value: __m512i, quotient: __m512i) -> Tw {
            (value, quotient, _mm512_srli_epi64::<32>(quotient))
        }

        /// Twiddle `i`, broadcast.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn tw1(tw: &TwiddleWords, i: usize) -> Tw {
            tw_of(_mm512_set1_epi32(tw.value[i] as i32), _mm512_set1_epi32(tw.quotient[i] as i32))
        }

        /// Twiddles `i..i+N`, spread over the lanes by `map`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn tw_spread<const N: usize>(tw: &TwiddleWords, i: usize, map: __m512i) -> Tw {
            let (v, q) = (&tw.value[i..i + N], &tw.quotient[i..i + N]);
            // SAFETY: both slices are exactly `N` words long.
            let (v, q) = unsafe { (ld_low::<N>(v.as_ptr()), ld_low::<N>(q.as_ptr())) };
            tw_of(_mm512_permutexvar_epi32(map, v), _mm512_permutexvar_epi32(map, q))
        }

        /// Twiddles `i..i+16`, one per lane.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn tw16(tw: &TwiddleWords, i: usize) -> Tw {
            let (v, q) = (&tw.value[i..i + 16], &tw.quotient[i..i + 16]);
            // SAFETY: both slices are exactly sixteen words long.
            unsafe { tw_of(ld(v.as_ptr()), ld(q.as_ptr())) }
        }

        /// Lane-wise lazy Shoup product on the 32-bit Shoup quotient
        /// `w' = ⌊w·2^32/q⌋`: `r = w·v − ⌊w'·v/2^32⌋·q`. With
        /// `w' > w·2^32/q − 1` and the floor losing less than one,
        /// `r < q·(1 + v/2^32)`, so any lazy `v < 4q < 2^31` lands in
        /// `[0, 3q/2) ⊂ [0, 2q)` with no correction. The estimate's high
        /// halves come from two `vpmuludq` (even lanes, then odd lanes
        /// moved down) merged by one masked `vpshufd`; the result is below
        /// `2q < 2^30`, so the two `vpmulld` low products give it exactly.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn lazy2q(w: Tw, v: __m512i, q: __m512i) -> __m512i {
            const ODD_DOWN: _MM_PERM_ENUM = 0b11_11_01_01;
            let even = _mm512_mul_epu32(w.1, v);
            let odd = _mm512_mul_epu32(w.2, _mm512_shuffle_epi32::<ODD_DOWN>(v));
            // Lane `i` of `est` is the high half of product `i`: in place
            // for odd `i`, one lane up in `even` for even `i`.
            let est = _mm512_mask_shuffle_epi32::<ODD_DOWN>(odd, 0x5555, even);
            _mm512_sub_epi32(_mm512_mullo_epi32(w.0, v), _mm512_mullo_epi32(est, q))
        }

        /// `x − m` where `x ≥ m`, else `x`, for `x, m < 2^31`: the
        /// wrapped difference of a smaller `x` is above `2^31`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn csub(x: __m512i, m: __m512i) -> __m512i {
            _mm512_min_epu32(x, _mm512_sub_epi32(x, m))
        }

        /// Cooley–Tukey butterfly `(x, y) → (x + w·y, x − w·y)`, `[0, 4q)`
        /// in and out.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn fwd(x: __m512i, y: __m512i, w: Tw, q: __m512i, q2: __m512i) -> (__m512i, __m512i) {
            let u = csub(x, q2);
            let v = lazy2q(w, y, q);
            (_mm512_add_epi32(u, v), _mm512_add_epi32(u, _mm512_sub_epi32(q2, v)))
        }

        /// In-place forward NTT of one limb row of 4-byte words.
        ///
        /// # Safety
        /// Requires AVX-512F (the caller checks the cached probe),
        /// `q < 2^29` (so the 4-byte twiddle tables exist),
        /// `a.len() == table.n()` and `n ≥ 32`.
        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn forward(table: &NttTable, a: &mut [u32]) {
            let n = table.n();
            let tw = table.psi_words();
            debug_assert!(n >= 32 && n.is_power_of_two());
            debug_assert_eq!(a.len(), n);
            debug_assert_eq!((tw.value.len(), tw.quotient.len()), (n, n));
            let q = _mm512_set1_epi32(table.modulus().value() as i32);
            let q2 = _mm512_add_epi32(q, q);
            let p = a.as_mut_ptr();
            let (mut m, mut t) = (1usize, n / 2);
            if n.trailing_zeros().is_multiple_of(2) {
                // An odd count of `t ≥ 32` levels: the first level (one
                // block, halves `t` apart) goes alone.
                let w = tw1(tw, 1);
                for j in (0..t).step_by(16) {
                    // SAFETY: `j + 16 ≤ t` and `t + j + 16 ≤ 2t = n =
                    // a.len()` (`t ≥ 32` is a multiple of 16).
                    unsafe {
                        let (x, y) = fwd(ld(p.add(j)), ld(p.add(t + j)), w, q, q2);
                        st(p.add(j), x);
                        st(p.add(t + j), y);
                    }
                }
                (m, t) = (2, t / 2);
            }
            while t >= 32 {
                // Levels `t` (m blocks, twiddle `m + i`) and `t/2` (2m
                // blocks, twiddles `2m + 2i`, `+ 1`) on the four quarters
                // of block `i`.
                let h = t / 2;
                for i in 0..m {
                    let w1 = tw1(tw, m + i);
                    let (w2, w3) = (tw1(tw, 2 * m + 2 * i), tw1(tw, 2 * m + 2 * i + 1));
                    for j in (2 * i * t..2 * i * t + h).step_by(16) {
                        // SAFETY: block `i` is `a[2it..2it + 2t]` with
                        // `2(i + 1)t ≤ 2mt = n`; `j + 16 ≤ 2it + h`, so
                        // the four loads and stores at `j + {0, 1, 2,
                        // 3}·h` stay inside it.
                        unsafe {
                            let (pa, pb) = (p.add(j), p.add(j + h));
                            let (pc, pd) = (p.add(j + 2 * h), p.add(j + 3 * h));
                            let (xa, xc) = fwd(ld(pa), ld(pc), w1, q, q2);
                            let (xb, xd) = fwd(ld(pb), ld(pd), w1, q, q2);
                            let (xa, xb) = fwd(xa, xb, w2, q, q2);
                            let (xc, xd) = fwd(xc, xd, w3, q, q2);
                            st(pa, xa);
                            st(pb, xb);
                            st(pc, xc);
                            st(pd, xd);
                        }
                    }
                }
                (m, t) = (4 * m, t / 4);
            }
            debug_assert_eq!((m, t), (n / 32, 16));
            let to8 = shuffle_of(&const { selectors(16, 8) });
            let to4 = shuffle_of(&const { selectors(8, 4) });
            let to2 = shuffle_of(&const { selectors(4, 2) });
            let to1 = shuffle_of(&const { selectors(2, 1) });
            let zip = shuffle_of(&const { selectors(1, 16) });
            let tw8 = lanes16(&const { twiddle_lanes(8) });
            let tw4 = lanes16(&const { twiddle_lanes(4) });
            let tw2 = lanes16(&const { twiddle_lanes(2) });
            for c in 0..n / 32 {
                // SAFETY: `32c + 32 ≤ n = a.len()`.
                let (lo, hi) = unsafe { (ld(p.add(32 * c)), ld(p.add(32 * c + 16))) };
                let (lo, hi) = fwd(lo, hi, tw1(tw, n / 32 + c), q, q2);
                let (lo, hi) = shuffle(lo, hi, to8);
                let (lo, hi) = fwd(lo, hi, tw_spread::<2>(tw, n / 16 + 2 * c, tw8), q, q2);
                let (lo, hi) = shuffle(lo, hi, to4);
                let (lo, hi) = fwd(lo, hi, tw_spread::<4>(tw, n / 8 + 4 * c, tw4), q, q2);
                let (lo, hi) = shuffle(lo, hi, to2);
                let (lo, hi) = fwd(lo, hi, tw_spread::<8>(tw, n / 4 + 8 * c, tw2), q, q2);
                let (lo, hi) = shuffle(lo, hi, to1);
                let (lo, hi) = fwd(lo, hi, tw16(tw, n / 2 + 16 * c), q, q2);
                let (lo, hi) = (csub(csub(lo, q2), q), csub(csub(hi, q2), q));
                let (lo, hi) = shuffle(lo, hi, zip);
                // SAFETY: as for the loads above.
                unsafe {
                    st(p.add(32 * c), lo);
                    st(p.add(32 * c + 16), hi);
                }
            }
        }

        /// Gentleman–Sande butterfly `(u, v) → (u + v, w·(u − v))`,
        /// `[0, 2q)` in and out.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn inv(u: __m512i, v: __m512i, w: Tw, q: __m512i, q2: __m512i) -> (__m512i, __m512i) {
            let diff = _mm512_add_epi32(u, _mm512_sub_epi32(q2, v));
            (csub(_mm512_add_epi32(u, v), q2), lazy2q(w, diff, q))
        }

        /// The last Gentleman–Sande butterfly with the scaling folded in:
        /// `(u, v) → (n⁻¹·(u + v), n⁻¹w·(u − v))`, `[0, 2q)` in, canonical
        /// out (`sn` is `n⁻¹`, `wn` is `n⁻¹·w`).
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn inv_last(
            u: __m512i,
            v: __m512i,
            sn: Tw,
            wn: Tw,
            q: __m512i,
            q2: __m512i,
        ) -> (__m512i, __m512i) {
            let diff = _mm512_add_epi32(u, _mm512_sub_epi32(q2, v));
            (csub(lazy2q(sn, _mm512_add_epi32(u, v), q), q), csub(lazy2q(wn, diff, q), q))
        }

        /// A scalar multiplier, broadcast.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn tw_scalar(w: &ShoupMul) -> Tw {
            let value = _mm512_set1_epi32(w.value as i32);
            tw_of(value, _mm512_set1_epi32((w.quotient >> 32) as i32))
        }

        /// One inverse radix-4 pass: levels `t` (`h` blocks, twiddles
        /// `h + i`) and `2t` (`h/2` blocks, twiddles `h/2 + i`), on the
        /// four `t`-word quarters of each `4t`-word block. `LAST` marks the
        /// pass that ends the transform (`h = 2`): its second level
        /// multiplies by `n⁻¹` as well and leaves canonical values.
        ///
        /// # Safety
        /// Requires AVX-512F, `p` valid for reading and writing `2ht = n`
        /// words, `t ≥ 32`, and `h ≥ 2` even.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn inverse_radix4<const LAST: bool>(
            table: &NttTable,
            p: *mut u32,
            (h, t): (usize, usize),
            q: __m512i,
            q2: __m512i,
        ) {
            let tw = table.ipsi_words();
            let (sn, wn) = (tw_scalar(table.n_inv()), tw_scalar(table.n_inv_ipsi1()));
            for i in 0..h / 2 {
                let (w1, w2) = (tw1(tw, h + 2 * i), tw1(tw, h + 2 * i + 1));
                let w3 = tw1(tw, h / 2 + i);
                for j in (4 * i * t..4 * i * t + t).step_by(16) {
                    // SAFETY: block `i` is the `4t` words from `4it`, with
                    // `4(i + 1)t ≤ 2ht`; `j + 16 ≤ 4it + t`, so the four
                    // loads and stores at `j + {0, 1, 2, 3}·t` stay inside.
                    unsafe {
                        let (pa, pb) = (p.add(j), p.add(j + t));
                        let (pc, pd) = (p.add(j + 2 * t), p.add(j + 3 * t));
                        let (xa, xb) = inv(ld(pa), ld(pb), w1, q, q2);
                        let (xc, xd) = inv(ld(pc), ld(pd), w2, q, q2);
                        let ((xa, xc), (xb, xd)) = if LAST {
                            (inv_last(xa, xc, sn, wn, q, q2), inv_last(xb, xd, sn, wn, q, q2))
                        } else {
                            (inv(xa, xc, w3, q, q2), inv(xb, xd, w3, q, q2))
                        };
                        st(pa, xa);
                        st(pb, xb);
                        st(pc, xc);
                        st(pd, xd);
                    }
                }
            }
        }

        /// In-place inverse NTT of one limb row of 4-byte words, including
        /// the `n⁻¹` scaling.
        ///
        /// # Safety
        /// Requires AVX-512F (the caller checks the cached probe),
        /// `a.len() == table.n()` and `n ≥ 32`.
        #[target_feature(enable = "avx512f")]
        pub(super) unsafe fn inverse(table: &NttTable, a: &mut [u32]) {
            let n = table.n();
            let tw = table.ipsi_words();
            debug_assert!(n >= 32 && n.is_power_of_two());
            debug_assert_eq!(a.len(), n);
            debug_assert_eq!((tw.value.len(), tw.quotient.len()), (n, n));
            let q = _mm512_set1_epi32(table.modulus().value() as i32);
            let q2 = _mm512_add_epi32(q, q);
            let p = a.as_mut_ptr();
            let to1 = shuffle_of(&const { selectors(16, 1) });
            let to2 = shuffle_of(&const { selectors(1, 2) });
            let to4 = shuffle_of(&const { selectors(2, 4) });
            let to8 = shuffle_of(&const { selectors(4, 8) });
            let to16 = shuffle_of(&const { selectors(8, 16) });
            let tw8 = lanes16(&const { twiddle_lanes(8) });
            let tw4 = lanes16(&const { twiddle_lanes(4) });
            let tw2 = lanes16(&const { twiddle_lanes(2) });
            for c in 0..n / 32 {
                // SAFETY: `32c + 32 ≤ n = a.len()`.
                let (lo, hi) = unsafe { (ld(p.add(32 * c)), ld(p.add(32 * c + 16))) };
                let (lo, hi) = shuffle(lo, hi, to1);
                let (lo, hi) = inv(lo, hi, tw16(tw, n / 2 + 16 * c), q, q2);
                let (lo, hi) = shuffle(lo, hi, to2);
                let (lo, hi) = inv(lo, hi, tw_spread::<8>(tw, n / 4 + 8 * c, tw2), q, q2);
                let (lo, hi) = shuffle(lo, hi, to4);
                let (lo, hi) = inv(lo, hi, tw_spread::<4>(tw, n / 8 + 4 * c, tw4), q, q2);
                let (lo, hi) = shuffle(lo, hi, to8);
                let (lo, hi) = inv(lo, hi, tw_spread::<2>(tw, n / 16 + 2 * c, tw8), q, q2);
                let (lo, hi) = shuffle(lo, hi, to16);
                let (lo, hi) = inv(lo, hi, tw1(tw, n / 32 + c), q, q2);
                // SAFETY: as for the loads above.
                unsafe {
                    st(p.add(32 * c), lo);
                    st(p.add(32 * c + 16), hi);
                }
            }
            let (mut h, mut t) = (n / 64, 32usize);
            if n.trailing_zeros().is_multiple_of(2) {
                // An odd count of `t ≥ 32` levels: level `t = 32` goes
                // alone.
                for i in 0..h {
                    let w = tw1(tw, h + i);
                    for j in (2 * i * t..2 * i * t + t).step_by(16) {
                        // SAFETY: `j + 16 ≤ 2it + t` and `j + t + 16 ≤
                        // 2(i + 1)t ≤ 2ht = n = a.len()`.
                        unsafe {
                            let (x, y) = inv(ld(p.add(j)), ld(p.add(j + t)), w, q, q2);
                            st(p.add(j), x);
                            st(p.add(j + t), y);
                        }
                    }
                }
                (h, t) = (h / 2, 2 * t);
            }
            while h > 2 {
                // SAFETY: `2ht = n = a.len()`, `t ≥ 32`, and `h` is an
                // even power of two above 2.
                unsafe { inverse_radix4::<false>(table, p, (h, t), q, q2) };
                (h, t) = (h / 4, 4 * t);
            }
            if h == 2 {
                // SAFETY: `2ht = n = a.len()` and `t ≥ 32`.
                unsafe { inverse_radix4::<true>(table, p, (h, t), q, q2) };
            } else {
                // n ∈ {32, 64}: no radix-4 pass to fold the scaling into.
                let sn = tw_scalar(table.n_inv());
                for j in (0..n).step_by(16) {
                    // SAFETY: `j + 16 ≤ n = a.len()`.
                    unsafe { st(p.add(j), csub(lazy2q(sn, ld(p.add(j)), q), q)) };
                }
            }
        }
    }

    /// [`dcp_chunked`](super::super::dcp_chunked) compiled for AVX-512:
    /// the portable lane body inlines here, so each of its eight-lane
    /// steps becomes one 512-bit operation.
    #[target_feature(enable = "avx512f")]
    fn dcp_chunked_avx512(
        plan: &DcpPlan,
        gadget: &Gadget,
        coeff: &[u32],
        tau: Option<usize>,
        out: &mut [u32],
    ) {
        super::super::dcp_chunked(plan, gadget, coeff, tau, out)
    }

    /// [`fold_words`](super::super::fold_words) compiled for AVX-512.
    #[target_feature(enable = "avx512f")]
    fn fold_words_avx512(plan: &FoldPlan, acc: &mut [u64]) {
        super::super::fold_words(plan, acc)
    }

    /// [`branch_words`](super::super::branch_words) compiled for AVX-512.
    #[target_feature(enable = "avx512f")]
    fn branch_words_avx512(
        plan: &FoldPlan,
        acc: &[u64],
        x: &mut [u32],
        odd: &mut [u32],
        monomial: ShoupRow<'_>,
    ) {
        super::super::branch_words(plan, acc, x, odd, monomial)
    }

    /// [`barrett_words`](super::super::barrett_words) compiled for
    /// AVX-512.
    #[target_feature(enable = "avx512f")]
    fn barrett_words_avx512(plan: &BarrettPlan, x: &mut [u64], a: Option<&[u64]>, b: &[u64]) {
        super::super::barrett_words(plan, x, a, b)
    }

    /// [`mac2_words`](super::super::mac2_words) compiled for AVX-512,
    /// sixteen accumulator words (two registers each) at a time.
    #[target_feature(enable = "avx512f")]
    fn mac2_words_avx512(acc_a: &mut [u64], acc_b: &mut [u64], terms: &[MacTerm<'_>]) {
        super::super::mac2_words::<16>(acc_a, acc_b, terms)
    }

    /// `fma` (`a` set) and `pointwise_mul` (`a` none) through
    /// [`barrett_dispatch`](super::super::barrett_dispatch).
    fn barrett(modulus: &Modulus, x: &mut [u64], a: Option<&[u64]>, b: &[u64]) {
        super::super::barrett_dispatch(available(), modulus, x, a, b, |p, x, a, b| {
            // SAFETY: the dispatch runs the body only where the cached
            // runtime probe detected AVX-512F; the body itself is safe
            // code.
            unsafe { barrett_words_avx512(p, x, a, b) }
        })
    }

    impl VpeBackend for Avx512Backend {
        fn name(&self) -> &'static str {
            "avx512"
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
            // SAFETY: AVX-512F presence was just verified via the cached
            // runtime probe; the body itself is safe code.
            unsafe { mac2_words_avx512(acc_a, acc_b, terms) }
        }

        fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
            if !available() {
                return SimdBackend.fold_lazy(modulus, acc);
            }
            super::super::fold_dispatch(modulus, acc, |p, a| {
                // SAFETY: AVX-512F presence was just verified via the
                // cached runtime probe; the body itself is safe code.
                unsafe { fold_words_avx512(p, a) }
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
                return SimdBackend.branch_lazy(modulus, acc, x, odd, monomial);
            }
            let plan = super::super::check_branch_rows(modulus, acc, x, odd, monomial);
            // SAFETY: AVX-512F presence was just verified via the cached
            // runtime probe; the body itself is safe code.
            unsafe { branch_words_avx512(&plan, acc, x, odd, monomial) }
        }

        fn ntt_forward_narrow(&self, table: &NttTable, a: &mut [u32]) {
            if !available() || table.n() < 32 {
                return OptimizedBackend.ntt_forward_narrow(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: AVX-512F presence was just verified via the cached
            // runtime probe; `n ≥ 32` by the delegation above, and `a` is
            // `n` words by the assert.
            unsafe { ntt_narrow::forward(table, a) }
        }

        fn ntt_inverse_narrow(&self, table: &NttTable, a: &mut [u32]) {
            if !available() || table.n() < 32 {
                return OptimizedBackend.ntt_inverse_narrow(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: as for the forward transform.
            unsafe { ntt_narrow::inverse(table, a) }
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
                return SimdBackend.icrt_decompose(ring, coeff, tau, gadget, arena, out);
            }
            super::super::dcp_dispatch(ring, coeff, tau, gadget, arena, out, |p, g, c, t, o| {
                // SAFETY: AVX-512F presence was just verified via the
                // cached runtime probe; the body itself is safe code.
                unsafe { dcp_chunked_avx512(p, g, c, t, o) }
            })
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::super::tests::{check_barrett_extremes, check_fma_mul_and_ntt};
    use super::*;

    #[test]
    fn avx512_matches_scalar_on_every_kernel() {
        if !available() {
            eprintln!("skipping: AVX-512F not detected");
            return;
        }
        check_fma_mul_and_ntt(&Avx512Backend, 67);
    }

    #[test]
    fn barrett_exact_at_extreme_operands_in_both_tiers() {
        // Both tiers: this backend's `barrett_words` below 2^29 and the
        // optimized code it dispatches to above.
        if !available() {
            eprintln!("skipping: AVX-512F not detected");
            return;
        }
        check_barrett_extremes(&Avx512Backend);
    }
}
