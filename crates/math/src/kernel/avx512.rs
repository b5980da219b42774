//! The AVX-512/IFMA wide-datapath backend — eight 64-bit lanes, and a
//! 52-bit vector multiplier where the host has one.
//!
//! `Avx512Backend` widens the AVX2 backend's four lanes to eight and, on
//! hosts with AVX-512 IFMA, replaces the 32-bit multiplier splits with
//! the 52×52→104 `vpmadd52{lo,hi}uq` fused multiply-adds. The two vector
//! tiers dispatch **per modulus width**:
//!
//! * **`bits(q) ≤ 29` — the AVX-512F tier** (every serving-path prime,
//!   including the paper's 28-bit specials): exactly the AVX2 backend's
//!   arithmetic at double width. Quotient-estimate Barrett FMA and
//!   pointwise mul (`μ = floor(2^(m+29)/q)`, `est ∈ [Q-2, Q]`, three
//!   `_mm512_mul_epu32` per 8 lanes), Harvey NTT butterflies on the
//!   32-bit-truncated Shoup twiddles (`quotient >> 32`, lazy product
//!   folded to `[0, 2q)` with one conditional subtraction). The 29-bit
//!   cap is load-bearing for the same reason as in [`super::simd`]: the
//!   Barrett estimate proof needs `(p >> (m-1)) < 2^30`.
//! * **`29 < bits(q) ≤ 50` — the IFMA tier**: the 52-bit multiplier
//!   lifts the cap that used to force 30–32-bit primes onto the scalar
//!   narrow loop. FMA/pointwise use a 52-bit quotient-estimate Barrett:
//!   with `m = bits(q)` and `μ = floor(2^(m+51)/q) < 2^52`, split
//!   `p = a·b + acc` into `(hi, lo)` via `vpmadd52hi/lo`, form
//!   `x = floor(p / 2^(m-1)) = (hi << (53-m)) + (lo >> (m-1)) < 2^(m+1)
//!   ≤ 2^51`, estimate `est = floor(x·μ / 2^52)` with one `vpmadd52hi`.
//!   The classic Barrett bound gives `Q-2 ≤ est ≤ Q` for any `m ≤ 51`
//!   (`x·μ/2^52 > p/q - p/2^(m+51) - 2^(m-1)/q - 1 > p/q - 3`), so
//!   `r = p - est·q < 3q < 2^52` is recovered **mod 2^52** from the low
//!   `vpmadd52lo` halves alone and two conditional subtractions finish
//!   the canonical residue. The NTT runs Harvey butterflies on *exact*
//!   52-bit Shoup quotients — `floor(w·2^52/q)` is precisely the stored
//!   64-bit quotient `>> 12` — so the lazy product lands in `[0, 2q)`
//!   with no correction, mirroring the scalar optimized path. The cap is
//!   50 bits so the lazy NTT values (`< 4q`) and the Barrett remainder
//!   (`< 3q`) both stay below `2^52`.
//! * Wider moduli (`bits(q) > 50`, or `> 29` without IFMA) take exactly
//!   the optimized backend's code — bit-identity without restricting the
//!   parameter space.
//!
//! **Shuffle-vectorized short NTT levels.** The AVX2 backend ran the
//! `t < 4` butterfly levels scalar (a named PR 5 follow-up); here *every*
//! level of the transform is vectorized: levels with half-block length
//! `t ≥ 8` tile directly onto the eight lanes, and the `t ∈ {1, 2, 4}`
//! levels process sixteen elements at a time by de-interleaving the
//! lo/hi butterfly operands with `_mm512_permutex2var_epi64`, applying
//! the eight-lane butterfly against a per-lane twiddle vector (each
//! block's twiddle repeated `t` times), and re-interleaving on the way
//! out. Rings with `n < 16` delegate to the optimized backend.
//!
//! **The lazy MAC.** [`VpeBackend::mac2_lazy`] loads each cache line of
//! the shared multiplicand once and adds its exact 64-bit products
//! (`_mm512_mul_epu32`, operands below `2^32`) into both ciphertext
//! accumulators with no reduction at all — two multiplies and two adds
//! per eight lanes where the per-term Barrett spent six multiplies; the
//! fold back to `[0, q)` happens once per dot product. Moduli above 32
//! bits have no `u64` headroom and go through the per-term FMA tiers.
//!
//! Kernel outputs are always canonically reduced, and canonical outputs
//! of exact algorithms are unique — so the backend is **bit-identical**
//! to the scalar oracle on every entry point, enforced by the
//! differential proptests in `crates/math/tests/kernel_props.rs`.
//!
//! **Runtime detection.** Nothing here assumes AVX-512 at compile time:
//! the tree builds with `-C target-feature=-avx2,-avx512f` (CI checks
//! it) and on non-x86 targets. Two probes are cached in `OnceLock`s —
//! `avx512f` gates the whole backend, `avx512ifma` additionally gates
//! the 52-bit tier — and [`BackendKind::Avx512`] /
//! [`BackendKind::Auto`] resolve through them once at selection time.
//!
//! [`BackendKind::Avx512`]: super::BackendKind::Avx512
//! [`BackendKind::Auto`]: super::BackendKind::Auto
//! [`VpeBackend::mac2_lazy`]: super::VpeBackend::mac2_lazy

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

/// Whether the 52-bit IFMA tier can run here (requires the base AVX-512
/// probe too, so a hypothetical inconsistent CPUID answer can never
/// enable IFMA kernels without the foundation ISA).
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

    use super::super::{MacTerm, NarrowMacTerm, OptimizedBackend, SimdBackend, VpeBackend};
    use super::{available, ifma_available};
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::NttTable;

    /// Widest modulus the AVX-512F (32-bit multiplier split) tier
    /// accepts — same bound, same proof as the AVX2 backend's cap.
    const F_MAX_BITS: u32 = 29;

    /// Widest modulus the IFMA (52-bit multiplier) tier accepts: lazy
    /// NTT values (`< 4q`) and the Barrett remainder (`< 3q`) must stay
    /// below `2^52` so low-half arithmetic recovers them exactly.
    const IFMA_MAX_BITS: u32 = 50;

    /// `2^52 - 1`: the IFMA multiplier's native word mask.
    const MASK52: u64 = (1 << 52) - 1;

    /// The AVX-512/IFMA wide-datapath backend (see the
    /// [module docs](super)).
    ///
    /// Constructing the type is always safe: every entry point re-checks
    /// the cached CPU probes and delegates to [`OptimizedBackend`] when
    /// the required ISA tier is absent, so a directly-instantiated
    /// `Avx512Backend` on an AVX2-only machine degrades instead of
    /// faulting. Select it through
    /// [`BackendKind`](super::super::BackendKind) to make the fallback
    /// explicit in configs.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Avx512Backend;

    /// Branch-free conditional subtraction per lane: `r - q` where
    /// `r >= q`, else `r`. AVX-512's unsigned compare masks make this
    /// exact for the full `u64` range (no signed-compare headroom
    /// constraint as in the AVX2 backend).
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn csub(r: __m512i, q: __m512i) -> __m512i {
        let ge = _mm512_cmpge_epu64_mask(r, q);
        _mm512_mask_sub_epi64(r, ge, r, q)
    }

    // ---------------------------------------------------------------
    // AVX-512F tier: 32-bit multiplier splits, bits(q) <= 29.
    // ---------------------------------------------------------------

    /// `(p mod q)` per lane for `p < q²`, `q < 2^29`, via the
    /// quotient-estimate Barrett (`est ∈ [Q-2, Q]`, two conditional
    /// subtractions). All three multiplies are exact 32×32→64
    /// `_mm512_mul_epu32` — identical math to the AVX2 backend, eight
    /// lanes wide.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn barrett_vec(p: __m512i, bk_shift: __m128i, muv: __m512i, qv: __m512i) -> __m512i {
        let x = _mm512_srl_epi64(p, bk_shift);
        let est = _mm512_srli_epi64::<30>(_mm512_mul_epu32(x, muv));
        let r = _mm512_sub_epi64(p, _mm512_mul_epu32(est, qv));
        csub(csub(r, qv), qv)
    }

    /// Vectorized fused Barrett FMA over one limb row:
    /// `acc[i] = (acc[i] + a[i]·b[i]) mod q` for `q < 2^29`, eight lanes
    /// at a time; the sub-lane tail reuses the scalar element formula.
    #[target_feature(enable = "avx512f")]
    unsafe fn fma_f29(q: u64, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let m = 64 - q.leading_zeros();
        let mu = ((1u128 << (m + 29)) / u128::from(q)) as u64;
        let qv = _mm512_set1_epi64(q as i64);
        let muv = _mm512_set1_epi64(mu as i64);
        let shift = _mm_cvtsi64_si128(i64::from(m) - 1);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = acc.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let av = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
            let bv = _mm512_loadu_epi64(b.as_ptr().add(i).cast());
            let cv = _mm512_loadu_epi64(acc.as_ptr().add(i).cast());
            // a, b < q < 2^29: one 32×32 partial product IS the full
            // product, and adding acc < q cannot overflow.
            let p = _mm512_add_epi64(_mm512_mul_epu32(av, bv), cv);
            let r = barrett_vec(p, shift, muv, qv);
            _mm512_storeu_epi64(acc.as_mut_ptr().add(i).cast(), r);
            i += 8;
        }
        for j in i..n {
            acc[j] = OptimizedBackend::fma_one_narrow(ratio, q, acc[j], a[j], b[j]);
        }
    }

    /// Vectorized pointwise product for `q < 2^29` — the FMA datapath
    /// with a zero accumulate.
    #[target_feature(enable = "avx512f")]
    unsafe fn mul_f29(q: u64, a: &mut [u64], b: &[u64]) {
        let m = 64 - q.leading_zeros();
        let mu = ((1u128 << (m + 29)) / u128::from(q)) as u64;
        let qv = _mm512_set1_epi64(q as i64);
        let muv = _mm512_set1_epi64(mu as i64);
        let shift = _mm_cvtsi64_si128(i64::from(m) - 1);
        let ratio = OptimizedBackend::narrow_ratio(q);
        let n = a.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let av = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
            let bv = _mm512_loadu_epi64(b.as_ptr().add(i).cast());
            let r = barrett_vec(_mm512_mul_epu32(av, bv), shift, muv, qv);
            _mm512_storeu_epi64(a.as_mut_ptr().add(i).cast(), r);
            i += 8;
        }
        for j in i..n {
            a[j] = OptimizedBackend::fma_one_narrow(ratio, q, 0, a[j], b[j]);
        }
    }

    /// Expands the lazy dual MAC for `q < 2^32` over one multiplicand
    /// word type (`$load` brings eight of them into 64-bit lanes): one
    /// pass over the accumulators adds the exact 64-bit products of every
    /// term, unreduced and held in registers across the terms (the
    /// caller's [`Modulus::lazy_terms`] fold cadence keeps the sums from
    /// wrapping).
    ///
    /// # Safety
    /// The expanded function requires AVX-512F, and every row of `terms`
    /// as long as `acc_a`/`acc_b`.
    macro_rules! mac2_lazy_flavor {
        ($name:ident, $word:ty, $load:expr) => {
            #[target_feature(enable = "avx512f")]
            unsafe fn $name(
                acc_a: &mut [u64],
                acc_b: &mut [u64],
                terms: &[(&[$word], &[u64], &[u64])],
            ) {
                let n = acc_a.len();
                let mut i = 0usize;
                while i + 8 <= n {
                    let mut ca = _mm512_loadu_epi64(acc_a.as_ptr().add(i).cast());
                    let mut cb = _mm512_loadu_epi64(acc_b.as_ptr().add(i).cast());
                    for (w, ea, eb) in terms {
                        let wv = $load(w.as_ptr().add(i));
                        let eav = _mm512_loadu_epi64(ea.as_ptr().add(i).cast());
                        let ebv = _mm512_loadu_epi64(eb.as_ptr().add(i).cast());
                        // w, e < q < 2^32: one 32×32 partial product IS
                        // the full product.
                        ca = _mm512_add_epi64(ca, _mm512_mul_epu32(wv, eav));
                        cb = _mm512_add_epi64(cb, _mm512_mul_epu32(wv, ebv));
                    }
                    _mm512_storeu_epi64(acc_a.as_mut_ptr().add(i).cast(), ca);
                    _mm512_storeu_epi64(acc_b.as_mut_ptr().add(i).cast(), cb);
                    i += 8;
                }
                for j in i..n {
                    for (w, ea, eb) in terms {
                        acc_a[j] += u64::from(w[j]) * ea[j];
                        acc_b[j] += u64::from(w[j]) * eb[j];
                    }
                }
            }
        };
    }

    mac2_lazy_flavor!(mac2_lazy_f, u64, |p: *const u64| _mm512_loadu_epi64(p.cast()));
    // The database's 4-byte words: `vpmovzxdq` widens eight on load.
    mac2_lazy_flavor!(mac2_lazy_narrow_f, u32, |p: *const u32| {
        _mm512_cvtepu32_epi64(_mm256_loadu_si256(p.cast()))
    });

    /// Lane-wise lazy Shoup product with the 32-bit truncated quotient,
    /// folded into `[0, 2q)`: the truncation undershoots the true
    /// quotient by at most one (product in `[0, 3q)`), and one
    /// conditional subtraction restores the butterfly invariant. Exact
    /// for `w < q < 2^29` and lazy `v < 4q < 2^31`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lazy2q_f29(wv: __m512i, wq32: __m512i, v: __m512i, qv: __m512i) -> __m512i {
        let est = _mm512_srli_epi64::<32>(_mm512_mul_epu32(wq32, v));
        let r = _mm512_sub_epi64(_mm512_mul_epu32(wv, v), _mm512_mul_epu32(est, qv));
        csub(r, _mm512_add_epi64(qv, qv))
    }

    // ---------------------------------------------------------------
    // IFMA tier: 52-bit multiplier, 29 < bits(q) <= 50.
    // ---------------------------------------------------------------

    /// One eight-lane 52-bit Barrett step: `(a·b + acc) mod q` for
    /// `q < 2^50` (bounds in the module docs). `shift_lo = m-1`,
    /// `shift_hi = 53-m`, `μ = floor(2^(m+51)/q)`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    unsafe fn barrett52(
        av: __m512i,
        bv: __m512i,
        cv: __m512i,
        sh_lo: __m128i,
        sh_hi: __m128i,
        muv: __m512i,
        qv: __m512i,
    ) -> __m512i {
        let zero = _mm512_setzero_si512();
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        // p = a·b + acc as (hi, lo): lo may exceed 2^52 (acc rides in
        // the same word), which the splitting shift below accounts for.
        let lo = _mm512_madd52lo_epu64(cv, av, bv);
        let hi = _mm512_madd52hi_epu64(zero, av, bv);
        // x = floor(p / 2^(m-1)) = hi·2^(53-m) + floor(lo / 2^(m-1)),
        // an ADD (not OR): the summands overlap at bit 53-m.
        let x = _mm512_add_epi64(_mm512_sll_epi64(hi, sh_hi), _mm512_srl_epi64(lo, sh_lo));
        let est = _mm512_madd52hi_epu64(zero, x, muv);
        // r = p - est·q < 3q < 2^52, recovered mod 2^52 from the low
        // halves alone.
        let eq = _mm512_madd52lo_epu64(zero, est, qv);
        let r = _mm512_and_si512(_mm512_sub_epi64(lo, eq), mask52);
        csub(csub(r, qv), qv)
    }

    /// One scalar element of the wide tail: the fused 128-bit Barrett
    /// the optimized backend uses above 32 bits (bit-identical canonical
    /// output for every modulus the IFMA tier serves).
    #[inline(always)]
    fn fma_one_tail(modulus: &Modulus, acc: u64, a: u64, b: u64) -> u64 {
        OptimizedBackend::fma_one_wide(modulus, acc, a, b)
    }

    /// Vectorized fused Barrett FMA for `29 < bits(q) <= 50` through the
    /// 52-bit multiplier.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn fma_ifma(modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let q = modulus.value();
        let m = 64 - q.leading_zeros();
        let mu = ((1u128 << (m + 51)) / u128::from(q)) as u64;
        let qv = _mm512_set1_epi64(q as i64);
        let muv = _mm512_set1_epi64(mu as i64);
        let sh_lo = _mm_cvtsi64_si128(i64::from(m) - 1);
        let sh_hi = _mm_cvtsi64_si128(53 - i64::from(m));
        let n = acc.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let av = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
            let bv = _mm512_loadu_epi64(b.as_ptr().add(i).cast());
            let cv = _mm512_loadu_epi64(acc.as_ptr().add(i).cast());
            let r = barrett52(av, bv, cv, sh_lo, sh_hi, muv, qv);
            _mm512_storeu_epi64(acc.as_mut_ptr().add(i).cast(), r);
            i += 8;
        }
        for j in i..n {
            acc[j] = fma_one_tail(modulus, acc[j], a[j], b[j]);
        }
    }

    /// Vectorized pointwise product for `29 < bits(q) <= 50`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn mul_ifma(modulus: &Modulus, a: &mut [u64], b: &[u64]) {
        let q = modulus.value();
        let m = 64 - q.leading_zeros();
        let mu = ((1u128 << (m + 51)) / u128::from(q)) as u64;
        let qv = _mm512_set1_epi64(q as i64);
        let muv = _mm512_set1_epi64(mu as i64);
        let sh_lo = _mm_cvtsi64_si128(i64::from(m) - 1);
        let sh_hi = _mm_cvtsi64_si128(53 - i64::from(m));
        let zero = _mm512_setzero_si512();
        let n = a.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let av = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
            let bv = _mm512_loadu_epi64(b.as_ptr().add(i).cast());
            let r = barrett52(av, bv, zero, sh_lo, sh_hi, muv, qv);
            _mm512_storeu_epi64(a.as_mut_ptr().add(i).cast(), r);
            i += 8;
        }
        for j in i..n {
            a[j] = fma_one_tail(modulus, 0, a[j], b[j]);
        }
    }

    /// Lane-wise lazy Shoup product on the *exact* 52-bit quotient
    /// (`floor(w·2^52/q)` = stored 64-bit quotient `>> 12`): the
    /// standard Shoup bound puts the result in `[0, 2q)` directly, no
    /// correction — recovered mod 2^52 from the low halves. Exact for
    /// `w < q < 2^50` and lazy `v < 4q < 2^52`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    #[inline]
    unsafe fn lazy2q_ifma(wv: __m512i, wq52: __m512i, v: __m512i, qv: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        let mask52 = _mm512_set1_epi64(MASK52 as i64);
        let est = _mm512_madd52hi_epu64(zero, wq52, v);
        let prod = _mm512_madd52lo_epu64(zero, wv, v);
        let eq = _mm512_madd52lo_epu64(zero, est, qv);
        _mm512_and_si512(_mm512_sub_epi64(prod, eq), mask52)
    }

    // ---------------------------------------------------------------
    // NTT: one skeleton, two lazy-multiplier flavors.
    // ---------------------------------------------------------------

    /// `permutex2var` index vectors for a shuffle level with half-block
    /// length `t ∈ {1, 2, 4}`: `(gather_lo, gather_hi, scatter_0,
    /// scatter_1)` mapping two consecutive 8-lane vectors to/from the
    /// de-interleaved lo/hi butterfly operands.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn shuffle_indices(t: usize) -> (__m512i, __m512i, __m512i, __m512i) {
        match t {
            4 => (
                _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
                _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
                _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
            ),
            2 => (
                _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
                _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
                _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
                _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
            ),
            _ => (
                _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
                _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
                _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
                _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
            ),
        }
    }

    /// Expands the forward/inverse Harvey NTT pair for one lazy-multiply
    /// flavor: `$qshift` truncates the stored 64-bit Shoup quotient to
    /// the flavor's precision and `$lazy` is the `[0, 2q)` lazy product.
    /// The skeleton assumes `n >= 16` (smaller rings delegate before
    /// dispatch): levels with `t >= 8` run eight straight lanes, levels
    /// with `t ∈ {1, 2, 4}` run the shuffle butterflies.
    macro_rules! ntt_flavor {
        ($fwd:ident, $inv:ident, $feat:literal, $qshift:literal, $lazy:ident) => {
            #[target_feature(enable = $feat)]
            unsafe fn $fwd(table: &NttTable, a: &mut [u64]) {
                let n = table.n();
                let q = table.modulus().value();
                let qv = _mm512_set1_epi64(q as i64);
                let two_qv = _mm512_add_epi64(qv, qv);
                let psi = table.psi_rev();
                let mut t = n;
                let mut m = 1usize;
                while m < n {
                    t >>= 1;
                    if t >= 8 {
                        for i in 0..m {
                            let w = psi[m + i];
                            let wvv = _mm512_set1_epi64(w.value as i64);
                            let wqv = _mm512_set1_epi64((w.quotient >> $qshift) as i64);
                            let j1 = 2 * i * t;
                            let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                            let mut j = 0usize;
                            while j < t {
                                let x = _mm512_loadu_epi64(lo.as_ptr().add(j).cast());
                                let y = _mm512_loadu_epi64(hi.as_ptr().add(j).cast());
                                let u = csub(x, two_qv);
                                let v = $lazy(wvv, wqv, y, qv);
                                _mm512_storeu_epi64(
                                    lo.as_mut_ptr().add(j).cast(),
                                    _mm512_add_epi64(u, v),
                                );
                                _mm512_storeu_epi64(
                                    hi.as_mut_ptr().add(j).cast(),
                                    _mm512_add_epi64(u, _mm512_sub_epi64(two_qv, v)),
                                );
                                j += 8;
                            }
                        }
                    } else {
                        let (gl, gh, s0, s1) = shuffle_indices(t);
                        let mut e = 0usize;
                        while e < n {
                            let b0 = e / (2 * t);
                            let mut wv = [0u64; 8];
                            let mut wq = [0u64; 8];
                            for (lane, (dv, dq)) in wv.iter_mut().zip(wq.iter_mut()).enumerate() {
                                let w = psi[m + b0 + lane / t];
                                *dv = w.value;
                                *dq = w.quotient >> $qshift;
                            }
                            let wvv = _mm512_loadu_epi64(wv.as_ptr().cast());
                            let wqv = _mm512_loadu_epi64(wq.as_ptr().cast());
                            let v0 = _mm512_loadu_epi64(a.as_ptr().add(e).cast());
                            let v1 = _mm512_loadu_epi64(a.as_ptr().add(e + 8).cast());
                            let lo = _mm512_permutex2var_epi64(v0, gl, v1);
                            let hi = _mm512_permutex2var_epi64(v0, gh, v1);
                            let u = csub(lo, two_qv);
                            let v = $lazy(wvv, wqv, hi, qv);
                            let nlo = _mm512_add_epi64(u, v);
                            let nhi = _mm512_add_epi64(u, _mm512_sub_epi64(two_qv, v));
                            _mm512_storeu_epi64(
                                a.as_mut_ptr().add(e).cast(),
                                _mm512_permutex2var_epi64(nlo, s0, nhi),
                            );
                            _mm512_storeu_epi64(
                                a.as_mut_ptr().add(e + 8).cast(),
                                _mm512_permutex2var_epi64(nlo, s1, nhi),
                            );
                            e += 16;
                        }
                    }
                    m <<= 1;
                }
                // Final reduction [0, 4q) -> [0, q); n is a multiple of
                // 16 here, so the vector loop covers everything.
                let mut i = 0usize;
                while i + 8 <= n {
                    let x = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
                    let r = csub(csub(x, two_qv), qv);
                    _mm512_storeu_epi64(a.as_mut_ptr().add(i).cast(), r);
                    i += 8;
                }
            }

            #[target_feature(enable = $feat)]
            unsafe fn $inv(table: &NttTable, a: &mut [u64]) {
                let n = table.n();
                let q = table.modulus().value();
                let qv = _mm512_set1_epi64(q as i64);
                let two_qv = _mm512_add_epi64(qv, qv);
                let ipsi = table.ipsi_rev();
                let mut t = 1usize;
                let mut m = n;
                while m > 1 {
                    let h = m >> 1;
                    if t >= 8 {
                        let mut j1 = 0usize;
                        for i in 0..h {
                            let w = ipsi[h + i];
                            let wvv = _mm512_set1_epi64(w.value as i64);
                            let wqv = _mm512_set1_epi64((w.quotient >> $qshift) as i64);
                            let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                            let mut j = 0usize;
                            while j < t {
                                let u = _mm512_loadu_epi64(lo.as_ptr().add(j).cast());
                                let v = _mm512_loadu_epi64(hi.as_ptr().add(j).cast());
                                let sum = csub(_mm512_add_epi64(u, v), two_qv);
                                let diff = _mm512_add_epi64(u, _mm512_sub_epi64(two_qv, v));
                                _mm512_storeu_epi64(lo.as_mut_ptr().add(j).cast(), sum);
                                _mm512_storeu_epi64(
                                    hi.as_mut_ptr().add(j).cast(),
                                    $lazy(wvv, wqv, diff, qv),
                                );
                                j += 8;
                            }
                            j1 += 2 * t;
                        }
                    } else {
                        let (gl, gh, s0, s1) = shuffle_indices(t);
                        let mut e = 0usize;
                        while e < n {
                            let b0 = e / (2 * t);
                            let mut wv = [0u64; 8];
                            let mut wq = [0u64; 8];
                            for (lane, (dv, dq)) in wv.iter_mut().zip(wq.iter_mut()).enumerate() {
                                let w = ipsi[h + b0 + lane / t];
                                *dv = w.value;
                                *dq = w.quotient >> $qshift;
                            }
                            let wvv = _mm512_loadu_epi64(wv.as_ptr().cast());
                            let wqv = _mm512_loadu_epi64(wq.as_ptr().cast());
                            let v0 = _mm512_loadu_epi64(a.as_ptr().add(e).cast());
                            let v1 = _mm512_loadu_epi64(a.as_ptr().add(e + 8).cast());
                            let u = _mm512_permutex2var_epi64(v0, gl, v1);
                            let v = _mm512_permutex2var_epi64(v0, gh, v1);
                            let sum = csub(_mm512_add_epi64(u, v), two_qv);
                            let diff = _mm512_add_epi64(u, _mm512_sub_epi64(two_qv, v));
                            let nhi = $lazy(wvv, wqv, diff, qv);
                            _mm512_storeu_epi64(
                                a.as_mut_ptr().add(e).cast(),
                                _mm512_permutex2var_epi64(sum, s0, nhi),
                            );
                            _mm512_storeu_epi64(
                                a.as_mut_ptr().add(e + 8).cast(),
                                _mm512_permutex2var_epi64(sum, s1, nhi),
                            );
                            e += 16;
                        }
                    }
                    t <<= 1;
                    m = h;
                }
                let n_inv = table.n_inv();
                let nvv = _mm512_set1_epi64(n_inv.value as i64);
                let nqv = _mm512_set1_epi64((n_inv.quotient >> $qshift) as i64);
                let mut i = 0usize;
                while i + 8 <= n {
                    let x = _mm512_loadu_epi64(a.as_ptr().add(i).cast());
                    let r = csub($lazy(nvv, nqv, x, qv), qv);
                    _mm512_storeu_epi64(a.as_mut_ptr().add(i).cast(), r);
                    i += 8;
                }
            }
        };
    }

    ntt_flavor!(ntt_forward_f29, ntt_inverse_f29, "avx512f", 32, lazy2q_f29);
    ntt_flavor!(ntt_forward_ifma, ntt_inverse_ifma, "avx512f,avx512ifma", 12, lazy2q_ifma);

    /// Which vector tier a modulus dispatches to (`None` = optimized
    /// fallback), after the cached CPU probes.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Tier {
        F29,
        Ifma,
    }

    #[inline]
    fn tier(bits: u32) -> Option<Tier> {
        if available() && bits <= F_MAX_BITS {
            Some(Tier::F29)
        } else if ifma_available() && bits <= IFMA_MAX_BITS {
            Some(Tier::Ifma)
        } else {
            None
        }
    }

    impl VpeBackend for Avx512Backend {
        fn name(&self) -> &'static str {
            "avx512"
        }

        fn fma(&self, modulus: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
            let Some(tier) = tier(modulus.bits()) else {
                // Out-of-scope moduli and AVX-512-less hosts take
                // exactly the optimized backend's code (which also does
                // the op-metrics charge).
                return OptimizedBackend.fma(modulus, acc, a, b);
            };
            assert_eq!(acc.len(), a.len());
            assert_eq!(acc.len(), b.len());
            crate::metrics::count_pointwise_macs(acc.len() as u64);
            // SAFETY: the required ISA tier was just verified via the
            // cached runtime probes.
            unsafe {
                match tier {
                    Tier::F29 => fma_f29(modulus.value(), acc, a, b),
                    Tier::Ifma => fma_ifma(modulus, acc, a, b),
                }
            }
        }

        fn pointwise_mul(&self, modulus: &Modulus, a: &mut [u64], b: &[u64]) {
            let Some(tier) = tier(modulus.bits()) else {
                return OptimizedBackend.pointwise_mul(modulus, a, b);
            };
            assert_eq!(a.len(), b.len());
            crate::metrics::count_pointwise_macs(a.len() as u64);
            // SAFETY: the required ISA tier was just verified via the
            // cached runtime probes.
            unsafe {
                match tier {
                    Tier::F29 => mul_f29(modulus.value(), a, b),
                    Tier::Ifma => mul_ifma(modulus, a, b),
                }
            }
        }

        fn mac2_lazy(
            &self,
            modulus: &Modulus,
            acc_a: &mut [u64],
            acc_b: &mut [u64],
            terms: &[MacTerm<'_>],
        ) {
            if modulus.bits() > 32 {
                // No u64 headroom: reduce per term through whichever
                // FMA tier serves this width.
                for (w, ea, eb) in terms {
                    self.fma(modulus, acc_a, w, ea);
                    self.fma(modulus, acc_b, w, eb);
                }
                return;
            }
            if !available() {
                return OptimizedBackend.mac2_lazy(modulus, acc_a, acc_b, terms);
            }
            super::super::check_mac_terms(acc_a.len(), acc_b, terms);
            // SAFETY: AVX-512F presence was just verified via the cached
            // runtime probe, and `check_mac_terms` asserted that every
            // row is as long as the accumulators.
            unsafe { mac2_lazy_f(acc_a, acc_b, terms) }
        }

        fn mac2_lazy_narrow(
            &self,
            modulus: &Modulus,
            acc_a: &mut [u64],
            acc_b: &mut [u64],
            terms: &[NarrowMacTerm<'_>],
        ) {
            if !available() {
                return OptimizedBackend.mac2_lazy_narrow(modulus, acc_a, acc_b, terms);
            }
            super::super::check_narrow_mac_terms(modulus, acc_a.len(), acc_b, terms);
            // SAFETY: AVX-512F presence was just verified via the cached
            // runtime probe, and `check_narrow_mac_terms` asserted that
            // every row is as long as the accumulators.
            unsafe { mac2_lazy_narrow_f(acc_a, acc_b, terms) }
        }

        fn fold_lazy(&self, modulus: &Modulus, acc: &mut [u64]) {
            // Reducing a full 64-bit word needs a 64×64 high product
            // that neither vector tier has; the fold runs once per ≥ ℓ
            // MACs, so the portable single-limb Barrett serves it.
            OptimizedBackend.fold_lazy(modulus, acc)
        }

        fn ntt_forward(&self, table: &NttTable, a: &mut [u64]) {
            let t = tier(table.modulus().bits());
            if t.is_none() || table.n() < 16 {
                return OptimizedBackend.ntt_forward(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: the required ISA tier was just verified via the
            // cached runtime probes.
            unsafe {
                match t.expect("checked above") {
                    Tier::F29 => ntt_forward_f29(table, a),
                    Tier::Ifma => ntt_forward_ifma(table, a),
                }
            }
        }

        fn ntt_inverse(&self, table: &NttTable, a: &mut [u64]) {
            let t = tier(table.modulus().bits());
            if t.is_none() || table.n() < 16 {
                return OptimizedBackend.ntt_inverse(table, a);
            }
            assert_eq!(a.len(), table.n());
            crate::metrics::count_residue_ntts(1);
            // SAFETY: the required ISA tier was just verified via the
            // cached runtime probes.
            unsafe {
                match t.expect("checked above") {
                    Tier::F29 => ntt_inverse_f29(table, a),
                    Tier::Ifma => ntt_inverse_ifma(table, a),
                }
            }
        }

        fn gadget_decompose(&self, gadget: &Gadget, wide: &[u128], out: &mut [u64]) {
            // Decomposition is shift/mask extraction — no modular
            // multiplies, nothing for the 512-bit or 52-bit datapaths to
            // add — so it reuses the AVX2 kernel (which carries its own
            // probe-or-fallback), keeping one vector implementation.
            SimdBackend.gadget_decompose(gadget, wide, out)
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::super::{ScalarBackend, VpeBackend};
    use super::*;
    use crate::gadget::Gadget;
    use crate::modulus::Modulus;
    use crate::ntt::NttTable;
    use rand::{Rng, SeedableRng};

    fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    /// The boundary-straddling modulus pool: the special primes (F tier),
    /// the widest F-tier prime, the first IFMA-tier prime, mid-tier
    /// widths, the widest IFMA prime, and the first fallback prime.
    fn boundary_moduli() -> Vec<Modulus> {
        let mut moduli = Modulus::special_primes().to_vec();
        for bits in [29u32, 30, 32, 40, 50, 51] {
            let q = crate::prime::find_ntt_prime_below(bits, 1024)
                .unwrap_or_else(|| panic!("an NTT prime below 2^{bits} exists"));
            moduli.push(Modulus::new(q));
        }
        moduli
    }

    #[test]
    fn avx512_matches_scalar_on_every_kernel() {
        // A quick in-crate differential (the heavy matrix lives in
        // tests/kernel_props.rs): every dispatch-boundary modulus,
        // lengths that stress the 8-lane tails, and NTT sizes through
        // the shuffle levels (n >= 16) and the small-ring delegation.
        if !available() {
            eprintln!("skipping: AVX-512F not detected");
            return;
        }
        if !ifma_available() {
            eprintln!("note: AVX-512 IFMA not detected — wide moduli test the fallback");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        for m in boundary_moduli() {
            for n in [1usize, 2, 5, 7, 8, 9, 15, 16, 17, 64, 130, 255] {
                let a = rand_row(n, m.value(), &mut rng);
                let b = rand_row(n, m.value(), &mut rng);
                let acc0 = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (acc0.clone(), acc0.clone());
                ScalarBackend.fma(&m, &mut s, &a, &b);
                Avx512Backend.fma(&m, &mut v, &a, &b);
                assert_eq!(s, v, "fma q={} n={n}", m.value());
                let (mut s, mut v) = (acc0.clone(), acc0);
                ScalarBackend.pointwise_mul(&m, &mut s, &b);
                Avx512Backend.pointwise_mul(&m, &mut v, &b);
                assert_eq!(s, v, "mul q={} n={n}", m.value());
            }
            for log_n in 1u32..=10 {
                let n = 1usize << log_n;
                let table = match NttTable::new(&m, n) {
                    Ok(t) => t,
                    Err(_) => continue,
                };
                let orig = rand_row(n, m.value(), &mut rng);
                let (mut s, mut v) = (orig.clone(), orig.clone());
                ScalarBackend.ntt_forward(&table, &mut s);
                Avx512Backend.ntt_forward(&table, &mut v);
                assert_eq!(s, v, "ntt fwd q={} n={n}", m.value());
                ScalarBackend.ntt_inverse(&table, &mut s);
                Avx512Backend.ntt_inverse(&table, &mut v);
                assert_eq!(s, v, "ntt inv q={} n={n}", m.value());
                assert_eq!(s, orig, "roundtrip q={} n={n}", m.value());
            }
        }
        for base_bits in [1u32, 7, 14, 20, 27] {
            let gadget = Gadget::for_modulus((1u128 << 109) - 1, base_bits);
            for n in [1usize, 3, 8, 9, 33] {
                let wide: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() >> 19).collect();
                let mut s = vec![0u64; gadget.ell() * n];
                let mut v = vec![0u64; gadget.ell() * n];
                ScalarBackend.gadget_decompose(&gadget, &wide, &mut s);
                Avx512Backend.gadget_decompose(&gadget, &wide, &mut v);
                assert_eq!(s, v, "decompose base=2^{base_bits} n={n}");
            }
        }
    }

    #[test]
    fn lazy_mac_folds_bit_identically() {
        if !available() {
            eprintln!("skipping: AVX-512F not detected");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for m in boundary_moduli() {
            for n in [1usize, 7, 8, 9, 64, 257] {
                let a0 = rand_row(n, m.value(), &mut rng);
                let b0 = rand_row(n, m.value(), &mut rng);
                let (mut sa, mut sb) = (a0.clone(), b0.clone());
                let (mut va, mut vb) = (a0, b0);
                for _ in 0..m.lazy_terms().min(5) {
                    let w = rand_row(n, m.value(), &mut rng);
                    let ea = rand_row(n, m.value(), &mut rng);
                    let eb = rand_row(n, m.value(), &mut rng);
                    ScalarBackend.mac2_lazy(&m, &mut sa, &mut sb, &[(&w, &ea, &eb)]);
                    Avx512Backend.mac2_lazy(&m, &mut va, &mut vb, &[(&w, &ea, &eb)]);
                }
                for (s, v) in [(&mut sa, &mut va), (&mut sb, &mut vb)] {
                    ScalarBackend.fold_lazy(&m, s);
                    Avx512Backend.fold_lazy(&m, v);
                }
                assert_eq!(sa, va, "lazy acc_a q={} n={n}", m.value());
                assert_eq!(sb, vb, "lazy acc_b q={} n={n}", m.value());
            }
        }
    }

    #[test]
    fn barrett_exact_at_extreme_operands_in_both_tiers() {
        // The quotient estimates must be exact at the corners, not just
        // on random draws: all-(q-1) operands maximize p and boundary
        // accumulators exercise est = Q-2..Q — for the 29-bit F tier
        // (special primes) and the 52-bit IFMA tier (30..50-bit primes).
        if !available() {
            eprintln!("skipping: AVX-512F not detected");
            return;
        }
        let mut moduli = Modulus::special_primes().to_vec();
        for bits in [30u32, 32, 40, 50] {
            moduli.push(Modulus::new(
                crate::prime::find_ntt_prime_below(bits, 1024).expect("prime exists"),
            ));
        }
        for m in moduli {
            let q = m.value();
            for &(a, b, c) in &[
                (q - 1, q - 1, q - 1),
                (q - 1, q - 1, 0),
                (q - 1, 1, q - 1),
                (0, 0, 0),
                (1, 1, q - 1),
                (q - 2, q - 2, q - 3),
            ] {
                let av = vec![a; 16];
                let bv = vec![b; 16];
                let mut scalar = vec![c; 16];
                let mut vector = vec![c; 16];
                ScalarBackend.fma(&m, &mut scalar, &av, &bv);
                Avx512Backend.fma(&m, &mut vector, &av, &bv);
                assert_eq!(scalar, vector, "q={q} a={a} b={b} c={c}");
            }
        }
    }
}
