//! Differential property tests for the VPE kernel layer: on random
//! inputs, every accelerated backend must be **bit-identical** to the
//! scalar reference backend for every hot kernel — the software
//! counterpart of §IV-G's claim that swapping modular multiplier
//! circuits never changes results.
//!
//! The tests run a backend-pair **matrix**: `scalar ≡ optimized` always,
//! `scalar ≡ simd` whenever the host's AVX2 is detected, and
//! `scalar ≡ avx512` whenever `avx512f` is (on other hosts the vector
//! pairs are skipped cleanly rather than silently testing the fallback
//! twice). The modulus pool straddles every dispatch boundary: the
//! paper's four 28-bit special primes, an NTT-friendly prime hugging
//! the 29-bit cutoff of the vector paths (and of a ring's limbs and an
//! NTT table's modulus) from below, one just above it (where every
//! backend runs the optimized code and no NTT table is built), one just
//! under 2^32 (the narrow scalar path's and the 4-byte rows' boundary),
//! and 40-, 50- and 51-bit primes, which the modulus-level kernels still
//! take though no ring or NTT table can have them.
//! Lengths are drawn from `1..300`, so non-multiples of the four- and
//! eight-lane vector widths and sub-lane rows are always in play.

use std::sync::Arc;

use ive_math::arena::KernelArena;
use ive_math::gadget::Gadget;
use ive_math::kernel::{
    avx512_available, dcp_tiles, simd_available, BackendKind, Branch, DcpPlan, GadgetRows,
    MacFinish, MacTerm, ScalarBackend, ShoupRow, ShoupWords, TileSink, VpeBackend, BACKEND_KINDS,
};
use ive_math::modulus::Modulus;
use ive_math::ntt::NttTable;
use ive_math::poly::automorphism_ntt_map;
use ive_math::prime::{find_ntt_prime_below, find_ntt_primes};
use ive_math::rns::{Form, RingContext, RnsBasis, RnsPoly};
use ive_math::MathError;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Every backend that must match the scalar oracle on this host:
/// `optimized` always, `simd` only when the runtime probe finds AVX2,
/// `avx512` only when it finds AVX-512F (the `BackendKind` fallbacks
/// would otherwise just re-test a lower backend under another label).
fn backends_under_test() -> Vec<&'static dyn VpeBackend> {
    let mut v: Vec<&'static dyn VpeBackend> = vec![BackendKind::Optimized.backend()];
    if simd_available() {
        let simd = BackendKind::Simd.backend();
        assert_eq!(simd.name(), "simd", "probe says AVX2 but Simd resolved to the fallback");
        v.push(simd);
    } else {
        eprintln!("kernel_props: AVX2 not detected, scalar≡simd pairs skipped");
    }
    if avx512_available() {
        let avx512 = BackendKind::Avx512.backend();
        assert_eq!(
            avx512.name(),
            "avx512",
            "probe says AVX-512F but Avx512 resolved to the fallback"
        );
        v.push(avx512);
    } else {
        eprintln!("kernel_props: AVX-512F not detected, scalar≡avx512 pairs skipped");
    }
    v
}

/// The modulus pool: four 28-bit special primes plus the largest
/// NTT-friendly primes below 2^29 (the widest the 32-bit-multiplier
/// vector paths accept, and the widest limb a ring can have), 2^30 (the
/// first the vector backends hand to the optimized code), 2^32 (narrow
/// scalar fallback boundary, the widest a 4-byte row can be stored
/// under), and 2^40, 2^50 and 2^51 (`u128` Barrett on every backend).
/// All are NTT-friendly to degree 512; an NTT table is built for the
/// first six and refused for the rest.
fn modulus_pool() -> Vec<Modulus> {
    let mut pool = Modulus::special_primes().to_vec();
    for bits in [29u32, 30, 32, 40, 50, 51] {
        let q = find_ntt_prime_below(bits, 512)
            .unwrap_or_else(|| panic!("an NTT-friendly prime below 2^{bits} exists"));
        pool.push(Modulus::new(q));
    }
    pool
}

fn pick_modulus(which: usize) -> Modulus {
    let pool = modulus_pool();
    pool[which % pool.len()]
}

fn rand_row(n: usize, q: u64, rng: &mut impl Rng) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

/// The oracle of the lazy-MAC tests, sharing no code with the kernels:
/// column `col` of the exact dot product `acc0 + Σ_t w_t ⊙ e_t` in
/// `u128`, one remainder at the end (`rows[t]` is `[w, ea, eb]`).
fn lazy_dot_oracle(rows: &[[Vec<u64>; 3]], acc0: &[u64], col: usize, q: u64) -> Vec<u64> {
    (0..acc0.len())
        .map(|i| {
            let dot: u128 = rows.iter().map(|r| u128::from(r[0][i]) * u128::from(r[col][i])).sum();
            ((u128::from(acc0[i]) + dot) % u128::from(q)) as u64
        })
        .collect()
}

/// `rows` as the 4-byte words the lazy MAC reads.
fn words_of(rows: &[[Vec<u64>; 3]]) -> Vec<[Vec<u32>; 3]> {
    rows.iter()
        .map(|r| {
            r.each_ref().map(|w| w.iter().map(|&x| u32::try_from(x).expect("q < 2^32")).collect())
        })
        .collect()
}

/// The oracle of the `Dcp` tests, sharing no code with the chunked
/// kernel: wide coefficients from `icrt_words_into` (which composes
/// `τ_r`), then the coefficient-major digit split.
fn dcp_oracle(ring: &RingContext, coeff: &[u32], tau: Option<usize>, gadget: &Gadget) -> Vec<u32> {
    let n = ring.n();
    let mut wide = vec![0u128; n];
    ring.icrt_words_into(coeff, tau, &mut wide);
    let mut out = vec![0u32; gadget.ell() * n];
    for (i, &c) in wide.iter().enumerate() {
        for j in 0..gadget.ell() {
            out[j * n + i] = u32::try_from(gadget.digit(c, j)).expect("a digit is below 2^27");
        }
    }
    out
}

/// `icrt_decompose` on every `BackendKind` against [`dcp_oracle`].
fn check_dcp(ring: &RingContext, coeff: &[u32], tau: Option<usize>, gadget: &Gadget, case: &str) {
    let want = dcp_oracle(ring, coeff, tau, gadget);
    let mut arena = KernelArena::new();
    for kind in BACKEND_KINDS {
        let mut got = vec![u32::MAX; want.len()];
        kind.backend().icrt_decompose(ring, coeff, tau, gadget, &mut arena, &mut got);
        assert!(got == want, "Dcp diverged on {kind}: {case} tau={tau:?} gadget={gadget:?}");
    }
}

/// A `k × n` coefficient matrix whose iCRT sum `Σ y_i·q̂_i` is pinned by
/// `pin` before any reduction: `0` all-zero residues (whose negation
/// under `τ_r` must stay 0, not become `Q`), `1` all `q_i − 1`, `2` every
/// `y_i = q_i − 1` (the sum is just under `k·Q`, so `k − 1` subtractions),
/// `3` the first two `y_i` maximal and the rest zero (between `Q` and
/// `2Q` for `k ≥ 2`), `4` a random mix of those with uniform residues.
fn pinned_coeff(ring: &RingContext, pin: usize, rng: &mut impl Rng) -> Vec<u32> {
    let (n, basis) = (ring.n(), ring.basis());
    let mut words = Vec::with_capacity(basis.len() * n);
    for (i, m) in basis.moduli().iter().enumerate() {
        let q = m.value();
        // r_i with y_i = [r_i·q̂_i⁻¹] = q_i − 1, i.e. r_i = −q̂_i mod q_i.
        let heavy = q - m.reduce_u128(basis.q_big() / u128::from(q));
        for _ in 0..n {
            let mode = if pin == 4 { rng.gen_range(0..5) } else { pin };
            let word = match mode {
                0 => 0,
                1 => q - 1,
                2 => heavy,
                3 if i < 2 => heavy,
                3 => 0,
                _ => rng.gen_range(0..q),
            };
            words.push(u32::try_from(word).expect("limbs are below 2^29"));
        }
    }
    words
}

/// A flat `k × n` matrix of uniform residues.
fn rand_flat(ring: &RingContext, rng: &mut impl Rng) -> Vec<u64> {
    ring.basis().moduli().iter().flat_map(|m| rand_row(ring.n(), m.value(), rng)).collect()
}

/// `words` as the 4-byte words a limb residue is stored in.
fn narrow(words: &[u64]) -> Vec<u32> {
    words.iter().map(|&w| u32::try_from(w).expect("limbs are below 2^29")).collect()
}

/// One case of the key-switch pipeline: on every `BackendKind`,
/// `dcp_tiles` with the MAC sink — over key rows held as a 4-byte
/// `GadgetRows` store — must equal the materialising sink followed by a
/// dot product built here in `u128` (one remainder at the end), and the
/// materialised matrix must equal the scalar oracle's. `sources`
/// coefficient matrices feed `sources·ℓ` terms; the first goes through
/// `tau`.
fn check_tile_pipeline(
    ring: &Arc<RingContext>,
    gadget: &Gadget,
    sources: usize,
    tau: Option<usize>,
    zero_acc: bool,
    seed: u64,
) {
    let (n, k, ell) = (ring.n(), ring.basis().len(), gadget.ell());
    let terms = sources * ell;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let coeffs: Vec<Vec<u32>> = (0..sources).map(|_| narrow(&rand_flat(ring, &mut rng))).collect();
    let taus = std::iter::once(tau).chain(std::iter::repeat(None));
    let srcs: Vec<(&[u32], Option<usize>)> = coeffs.iter().map(|c| &c[..]).zip(taus).collect();
    let keys: Vec<[Vec<u64>; 2]> =
        (0..terms).map(|_| [rand_flat(ring, &mut rng), rand_flat(ring, &mut rng)]).collect();
    let poly = |words: &[u64]| RnsPoly::from_words(ring, Form::Ntt, words.to_vec()).unwrap();
    let rows =
        GadgetRows::from_pairs(&keys.iter().map(|[a, b]| (poly(a), poly(b))).collect::<Vec<_>>());
    let acc0 = if zero_acc {
        [vec![0; k * n], vec![0; k * n]]
    } else {
        [rand_flat(ring, &mut rng), rand_flat(ring, &mut rng)]
    };

    let mut arena = KernelArena::new();
    let mut oracle = vec![0u64; terms * k * n];
    dcp_tiles(ring, gadget, &srcs, TileSink::Matrix(&mut oracle), &ScalarBackend, &mut arena)
        .expect("the gadget covers Q");
    let want: Vec<Vec<u64>> = (0..2)
        .map(|col| {
            (0..k * n)
                .map(|at| {
                    let q = u128::from(ring.basis().moduli()[at / n].value());
                    let dot: u128 = (0..terms)
                        .map(|t| u128::from(oracle[t * k * n + at]) * u128::from(keys[t][col][at]))
                        .sum();
                    ((u128::from(acc0[col][at]) + dot) % q) as u64
                })
                .collect()
        })
        .collect();

    let case = format!("k={k} n={n} gadget={gadget:?} sources={sources} tau={tau:?}");
    for kind in BACKEND_KINDS {
        let backend = kind.backend();
        let mut matrix = vec![u64::MAX; terms * k * n];
        dcp_tiles(ring, gadget, &srcs, TileSink::Matrix(&mut matrix), backend, &mut arena)
            .expect("the gadget covers Q");
        assert!(matrix == oracle, "digit tiles diverged on {kind}: {case}");
        let [mut acc_a, mut acc_b] = acc0.clone();
        let finish = MacFinish::Fold { acc_a: &mut acc_a, acc_b: &mut acc_b };
        let sink = TileSink::Mac { rows: &rows, finish };
        dcp_tiles(ring, gadget, &srcs, sink, backend, &mut arena).expect("the gadget covers Q");
        assert!(acc_a == want[0], "acc_a diverged on {kind}: {case}");
        assert!(acc_b == want[1], "acc_b diverged on {kind}: {case}");
    }

    // The tree's finish: one source through τ_r. The children `Branch`
    // writes must be those composed from the `Fold` finish started at
    // (0, τ_r(b)) — checked against the oracle above — with the ring's
    // add, subtract and multiply.
    let moduli = ring.basis().moduli();
    let (Some(r), 1) = (tau, sources) else {
        return;
    };
    let kn = k * n;
    let tau_map = automorphism_ntt_map(n, r);
    let node0 = narrow(&[rand_flat(ring, &mut rng), rand_flat(ring, &mut rng)].concat());
    let monomial = rand_flat(ring, &mut rng);
    let table = ShoupWords::new(ring, &monomial);
    let wide = |half: &[u32]| half.iter().map(|&w| u64::from(w)).collect::<Vec<u64>>();
    let mut subs = [vec![0u64; kn], vec![0u64; kn]];
    ring.automorphism_ntt_words(&tau_map, &wide(&node0[kn..]), &mut subs[1]);
    let [acc_a, acc_b] = &mut subs;
    let sink = TileSink::Mac { rows: &rows, finish: MacFinish::Fold { acc_a, acc_b } };
    dcp_tiles(ring, gadget, &srcs, sink, &ScalarBackend, &mut arena).expect("the gadget covers Q");
    let (mut even, mut odd) = (Vec::new(), Vec::new());
    for (half, s) in node0.chunks_exact(kn).zip(&subs) {
        for (at, (&x, &s)) in half.iter().zip(s).enumerate() {
            let modulus = &moduli[at / n];
            even.push(modulus.add(u64::from(x), s) as u32);
            odd.push(modulus.mul(modulus.sub(u64::from(x), s), monomial[at]) as u32);
        }
    }
    for kind in BACKEND_KINDS {
        let (mut node, mut child) = (node0.clone(), vec![u32::MAX; 2 * kn]);
        let branch =
            Branch { node: &mut node, odd: &mut child, tau_map: &tau_map, monomial: &table };
        let sink = TileSink::Mac { rows: &rows, finish: MacFinish::Branch(branch) };
        dcp_tiles(ring, gadget, &srcs, sink, kind.backend(), &mut arena)
            .expect("the gadget covers Q");
        assert!(node == even, "even child diverged on {kind}: {case}");
        assert!(child == odd, "odd child diverged on {kind}: {case}");
    }
}

/// One case of the fold and of the tree epilogue over one modulus: on
/// every `BackendKind`, `fold_lazy` must equal the remainder and
/// `branch_lazy` the scalar composition `fold_lazy` → add / subtract →
/// `pointwise_mul`. `lazy` are the accumulator words; the node's words
/// `x` and the monomial cycle through 0, `q − 1` and random; the
/// monomial's row is built here, word and Shoup quotient, so moduli no
/// ring takes (31 and 32 bits) run too.
fn check_fold_and_branch(m: &Modulus, lazy: &[u64], seed: u64) {
    let (q, n) = (m.value(), lazy.len());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut corner = |i: usize| [0, q - 1, rng.gen_range(0..q)][(i + seed as usize) % 3];
    let x0: Vec<u32> = (0..n).map(|i| corner(i) as u32).collect();
    let monomial: Vec<u64> = (0..n).map(|i| corner(i / 3)).collect();
    let value: Vec<u32> = monomial.iter().map(|&w| w as u32).collect();
    let quotient: Vec<u32> = monomial.iter().map(|&w| ((w << 32) / q) as u32).collect();
    let row = ShoupRow { value: &value, quotient: &quotient };

    let mut s = lazy.to_vec();
    ScalarBackend.fold_lazy(m, &mut s);
    assert!(s.iter().zip(lazy).all(|(&s, &x)| s == x % q), "the oracle fold is a remainder");
    let even: Vec<u32> = x0.iter().zip(&s).map(|(&x, &s)| m.add(u64::from(x), s) as u32).collect();
    let mut odd: Vec<u64> = x0.iter().zip(&s).map(|(&x, &s)| m.sub(u64::from(x), s)).collect();
    ScalarBackend.pointwise_mul(m, &mut odd, &monomial);

    for kind in BACKEND_KINDS {
        let backend = kind.backend();
        let mut folded = lazy.to_vec();
        backend.fold_lazy(m, &mut folded);
        assert!(folded == s, "fold diverged: {kind} q={q} n={n}");
        let (mut x, mut child) = (x0.clone(), vec![u32::MAX; n]);
        backend.branch_lazy(m, lazy, &mut x, &mut child, row);
        assert!(x == even, "even child diverged: {kind} q={q} n={n}");
        assert!(
            child.iter().zip(&odd).all(|(&c, &o)| u64::from(c) == o),
            "odd child: {kind} q={q} n={n}"
        );
    }
}

#[test]
fn fold_and_branch_match_the_scalar_composition() {
    // The four Table I primes, the widest prime of the 29-bit vector
    // tiers, and three the vector tiers never see but the portable body
    // must still get right: 31 and 32 bits, and a 17-bit one whose
    // quotients are wide.
    let mut moduli = Modulus::special_primes().to_vec();
    for bits in [29u32, 31, 32, 17] {
        moduli.push(Modulus::new(find_ntt_prime_below(bits, 4096).expect("prime exists")));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB7A9C4);
    let mut seed = 0u64;
    for m in &moduli {
        let top = m.value() - 1;
        // The documented worst case of a lazy word.
        let worst = u128::from(top) + m.lazy_terms() as u128 * u128::from(top) * u128::from(top);
        let worst = u64::try_from(worst).expect("lazy_terms keeps the sum in a word");
        for log_n in 4u32..=12 {
            let n = 1usize << log_n;
            let random: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut mixed = random.clone();
            for (i, w) in mixed.iter_mut().enumerate().take(n / 2) {
                *w = [0, u64::MAX, worst, top, m.value(), (1 << 32) - 1, 1 << 32][i % 7];
            }
            for lazy in [vec![0; n], vec![u64::MAX; n], vec![worst; n], random, mixed] {
                seed += 1;
                check_fold_and_branch(m, &lazy, seed);
            }
        }
    }
}

#[test]
#[should_panic(expected = "q < 2^32")]
fn branch_refuses_a_wide_modulus() {
    let m = Modulus::new(find_ntt_prime_below(40, 512).expect("prime exists"));
    let (w, mut x, mut odd) = ([1u32; 4], [1u32; 4], [0u32; 4]);
    let monomial = ShoupRow { value: &w, quotient: &w };
    BackendKind::Auto.backend().branch_lazy(&m, &[0u64; 4], &mut x, &mut odd, monomial);
}

/// `fma` and `pointwise_mul` on rows whose length is not a multiple of
/// any backend's lane count (4 words for AVX2, 8 for AVX-512), so every
/// vector body also runs its scalar tail, against the `u128` oracle
/// `(acc + a·b) mod q`. Operands at `q − 1` make every reduction take
/// its conditional subtractions; random ones the other branch.
#[test]
fn fma_and_mul_ragged_rows_match_the_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7a11);
    for m in modulus_pool() {
        let q = m.value();
        for n in [1usize, 3, 5, 7, 9, 13, 15, 17, 4093] {
            for extreme in [false, true] {
                let mut row = || if extreme { vec![q - 1; n] } else { rand_row(n, q, &mut rng) };
                let (a, b, acc0) = (row(), row(), row());
                let fma: Vec<u64> = (0..n)
                    .map(|i| {
                        let p = u128::from(a[i]) * u128::from(b[i]) + u128::from(acc0[i]);
                        (p % u128::from(q)) as u64
                    })
                    .collect();
                let mul: Vec<u64> = (0..n)
                    .map(|i| (u128::from(a[i]) * u128::from(b[i]) % u128::from(q)) as u64)
                    .collect();
                for backend in
                    backends_under_test().into_iter().chain([&ScalarBackend as &dyn VpeBackend])
                {
                    let mut out = acc0.clone();
                    backend.fma(&m, &mut out, &a, &b);
                    assert_eq!(out, fma, "fma: {} q={q} n={n}", backend.name());
                    let mut out = a.clone();
                    backend.pointwise_mul(&m, &mut out, &b);
                    assert_eq!(out, mul, "mul: {} q={q} n={n}", backend.name());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fma_is_bit_identical(seed in any::<u64>(), which in 0usize..10, n in 1usize..300) {
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_row(n, m.value(), &mut rng);
        let b = rand_row(n, m.value(), &mut rng);
        let acc0 = rand_row(n, m.value(), &mut rng);
        let mut scalar = acc0.clone();
        ScalarBackend.fma(&m, &mut scalar, &a, &b);
        for backend in backends_under_test() {
            let mut out = acc0.clone();
            backend.fma(&m, &mut out, &a, &b);
            prop_assert_eq!(&scalar, &out, "fma diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn pointwise_mul_is_bit_identical(seed in any::<u64>(), which in 0usize..10, n in 1usize..300) {
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = rand_row(n, m.value(), &mut rng);
        let a0 = rand_row(n, m.value(), &mut rng);
        let mut scalar = a0.clone();
        ScalarBackend.pointwise_mul(&m, &mut scalar, &b);
        for backend in backends_under_test() {
            let mut out = a0.clone();
            backend.pointwise_mul(&m, &mut out, &b);
            prop_assert_eq!(&scalar, &out, "mul diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn lazy_mac_fold_matches_wide_oracle(
        seed in any::<u64>(),
        which in 0usize..10,
        n in 1usize..40,
        shape in 0usize..5,
        fan_in in 1usize..6,
        extreme in any::<bool>(),
    ) {
        // The lazy kernel pair against an oracle that shares no code
        // with it: the exact dot product in u128, one remainder at the
        // end, over every pool modulus a 4-byte row can be stored under.
        // Term counts straddle the modulus-derived flush bound (962–1023
        // for the 28-bit primes, 64 at 29 bits, 15/1 at 30/32 bits), and
        // `extreme` pins every operand and the starting accumulator at
        // q−1 — the case the bound is derived for. The caller's cadence
        // is the one the pipeline uses: hand the kernel `fan_in` terms per
        // call, fold before `lazy_terms` would be exceeded, and once at
        // the end.
        let pool: Vec<Modulus> = modulus_pool().into_iter().filter(|m| m.bits() <= 32).collect();
        let m = pool[which % pool.len()];
        let q = m.value();
        let flush = m.lazy_terms();
        prop_assert!(flush >= 1);
        let count = [1, flush - 1, flush, flush + 1, 2 * flush + 3][shape].clamp(1, 2100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let row = |rng: &mut rand::rngs::StdRng| {
            if extreme { vec![q - 1; n] } else { rand_row(n, q, rng) }
        };
        let rows: Vec<[Vec<u64>; 3]> = (0..count).map(|_| [0; 3].map(|_| row(&mut rng))).collect();
        let stored = words_of(&rows);
        let terms: Vec<MacTerm<'_>> =
            stored.iter().map(|[w, ea, eb]| (&w[..], &ea[..], &eb[..])).collect();
        let (a0, b0) = (row(&mut rng), row(&mut rng));
        let (want_a, want_b) = (lazy_dot_oracle(&rows, &a0, 1, q), lazy_dot_oracle(&rows, &b0, 2, q));
        for kind in BACKEND_KINDS {
            let backend = kind.backend();
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let mut pending = 0;
            for group in terms.chunks(fan_in.min(flush)) {
                if pending + group.len() > flush {
                    backend.fold_lazy(&m, &mut a);
                    backend.fold_lazy(&m, &mut b);
                    pending = 0;
                }
                backend.mac2_lazy(&m, &mut a, &mut b, group);
                pending += group.len();
            }
            backend.fold_lazy(&m, &mut a);
            backend.fold_lazy(&m, &mut b);
            prop_assert_eq!(&want_a, &a, "lazy acc_a diverged: {} q={} terms={}", kind, q, count);
            prop_assert_eq!(&want_b, &b, "lazy acc_b diverged: {} q={} terms={}", kind, q, count);
        }
    }

    #[test]
    fn fold_reduces_any_word(seed in any::<u64>(), which in 0usize..10, n in 1usize..40) {
        let m = pick_modulus(which);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut words: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        words[0] = u64::MAX;
        let want: Vec<u64> = words.iter().map(|x| x % m.value()).collect();
        for kind in BACKEND_KINDS {
            let mut out = words.clone();
            kind.backend().fold_lazy(&m, &mut out);
            prop_assert_eq!(&want, &out, "fold diverged: {} q={}", kind, m.value());
        }
    }

    #[test]
    fn lazy_gemm_is_bit_identical(
        seed in any::<u64>(),
        k in 1usize..=4,
        log_n in 4u32..=8,
        base_bits in 7u32..=27,
        sources in 1usize..=2,
        tau_sel in 0usize..3,
        zero_acc in any::<bool>(),
    ) {
        // The gadget GEMM of `Subs` and `⊡` — the tile pipeline's MAC
        // sink — over the special-prime rings of every limb count, up to
        // 2·16 terms, 4-byte `GadgetRows`, `τ` absent and present, and
        // accumulators starting zero and canonical-nonzero.
        let n = 1usize << log_n;
        let ring = RingContext::test_ring(n, k);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), base_bits);
        let tau = [None, Some(n + 1), Some(3)][tau_sel];
        check_tile_pipeline(&ring, &gadget, sources, tau, zero_acc, seed);
    }

    #[test]
    fn ntt_dispatch_is_bit_identical(seed in any::<u64>(), which in 0usize..10, log_n in 1u32..10) {
        let m = pick_modulus(which);
        let n = 1usize << log_n;
        if m.bits() > 29 {
            // No NTT table above the 4-byte transforms' cap.
            let refused = matches!(NttTable::new(&m, n), Err(MathError::NotNttFriendly { .. }));
            prop_assert!(refused, "a table over the {}-bit q={}", m.bits(), m.value());
            return Ok(());
        }
        let table = NttTable::new(&m, n).expect("pool primes are NTT-friendly to 2^9");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let orig = rand_row(n, m.value(), &mut rng);

        let scalar: &dyn VpeBackend = &ScalarBackend;
        let mut scalar_f = orig.clone();
        scalar.ntt_forward(&table, &mut scalar_f);
        let mut scalar_i = scalar_f.clone();
        scalar.ntt_inverse(&table, &mut scalar_i);
        prop_assert_eq!(&scalar_i, &orig, "scalar roundtrip lost the input");

        for backend in backends_under_test() {
            let mut out = orig.clone();
            backend.ntt_forward(&table, &mut out);
            prop_assert_eq!(&scalar_f, &out, "forward diverged: {} q={}", backend.name(), m.value());
            backend.ntt_inverse(&table, &mut out);
            prop_assert_eq!(&scalar_i, &out, "inverse diverged: {} q={}", backend.name(), m.value());
        }
    }

    #[test]
    fn dcp_is_bit_identical(
        seed in any::<u64>(),
        k in 1usize..=4,
        log_n in 4u32..=12,
        base_bits in 1u32..=27,
        tau_sel in 0usize..5,
        pin in 0usize..5,
    ) {
        // iCRT → digits on every backend against the u128 oracle, over
        // the special-prime rings of every limb count, gadgets at every
        // chunk width and word count of the chunked kernel, the
        // expansion and trace exponents, and pinned reconstructions.
        let n = 1usize << log_n;
        let ring = RingContext::test_ring(n, k);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), base_bits);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let j = rng.gen_range(0..log_n);
        let tau = [None, Some(n + 1), Some(n / (1 << j) + 1), Some(3), Some(2 * n - 1)][tau_sel];
        let coeff = pinned_coeff(&ring, pin, &mut rng);
        check_dcp(&ring, &coeff, tau, &gadget, &format!("k={k} n={n} pin={pin}"));
    }
}

#[test]
fn dcp_pinned_sums_on_every_route() {
    // The corners the proptest only samples: every pinned sum × every
    // exponent kind × the serving gadgets, one at the chunk-width floor
    // (`base_bits = 15`, the most words), then the extreme rings.
    // `DcpPlan::new` is the route.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDC9);
    for k in 1..=4 {
        for n in [16usize, 256, 4096] {
            let ring = RingContext::test_ring(n, k);
            for base_bits in [4u32, 8, 14, 15, 22, 27] {
                let gadget = Gadget::for_modulus(ring.basis().q_big(), base_bits);
                // The documented bound: every gadget of at most 28 bits
                // on 32-bit limbs takes the kernel, `S < k·Q` carried in
                // ⌈bits(k·Q) / 2c⌉ words — at k = 4 two for the 14-bit
                // gadget (c = 28) and three for the 22-bit one (c = 22).
                let c = base_bits * (28 / base_bits);
                let bits = 128 - (k as u128 * ring.basis().q_big()).leading_zeros();
                let words = bits.div_ceil(2 * c) as usize;
                if k == 4 && [14, 22].contains(&base_bits) {
                    assert_eq!(words, if base_bits == 14 { 2 } else { 3 });
                }
                let plan = DcpPlan::new(&ring, &gadget);
                assert_eq!(plan.map(|p| p.words()), Some(words), "k={k} z=2^{base_bits}");
                for tau in [None, Some(n + 1), Some(n / 4 + 1), Some(3), Some(2 * n - 1)] {
                    for pin in 0..5 {
                        if n == 4096 && (pin, tau.is_some()) == (4, false) {
                            continue; // the proptest's ground; keeps a debug run short
                        }
                        let coeff = pinned_coeff(&ring, pin, &mut rng);
                        check_dcp(&ring, &coeff, tau, &gadget, &format!("k={k} n={n} pin={pin}"));
                    }
                }
            }
        }
    }
    // A limb of 2^32 or more has no 32-bit residues: no ring has one.
    let wide = Modulus::new(find_ntt_prime_below(40, 512).expect("prime exists"));
    let refused = RnsBasis::new(vec![Modulus::special_primes()[0], wide]);
    assert!(matches!(refused, Err(MathError::InvalidBasis(_))), "{refused:?}");
    // Eight 15-bit limbs under the 15-bit gadget: `k·Q` near `2^123` at
    // the narrowest chunk, the most words the kernel carries (five).
    let primes = find_ntt_primes(15, 64, 8).into_iter().map(Modulus::new).collect();
    let ring = RingContext::new(64, RnsBasis::new(primes).expect("distinct primes"))
        .expect("NTT-friendly to 2^7");
    let gadget = Gadget::for_modulus(ring.basis().q_big(), 15);
    assert_eq!(DcpPlan::new(&ring, &gadget).map(|p| p.words()), Some(5));
    for tau in [None, Some(65), Some(127)] {
        for pin in 0..5 {
            let coeff = pinned_coeff(&ring, pin, &mut rng);
            check_dcp(&ring, &coeff, tau, &gadget, &format!("eight limbs pin={pin}"));
        }
    }
    // More digits than Q has bits, the last ones past every word of the
    // kernel (bit 126 ≥ 2·28): the surplus rows are zero.
    let ring = RingContext::test_ring(16, 1);
    let coeff = pinned_coeff(&ring, 1, &mut rng);
    check_dcp(&ring, &coeff, Some(17), &Gadget::new(14, 10), "surplus digits");
    // … and digits that start past bit 127 of the oracle's `u128`, where
    // `Gadget::digit` used to shift out of range.
    check_dcp(&ring, &coeff, Some(17), &Gadget::new(14, 12), "digits past bit 127");
}

#[test]
fn ntt_every_size_tier_and_extreme_input() {
    // The sixteen-lane AVX-512 transforms change shape with `log n`: n =
    // 16 is below them, 32 is the register-resident tail alone, 64 adds
    // the odd radix-2 pass, 128 one radix-4 pass, and so on through both
    // parities to 2^13 — through the `u64` pair, on the Table I primes
    // and the widest prime of the vector tier, with the inputs that sit on
    // the lazy ranges' edges. A 50-bit prime gets no table.
    let mut moduli = Modulus::special_primes().to_vec();
    for bits in [29u32, 50] {
        moduli.push(Modulus::new(find_ntt_prime_below(bits, 1 << 13).expect("prime exists")));
    }
    let scalar: &dyn VpeBackend = &ScalarBackend;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2717);
    for m in &moduli {
        let q = m.value();
        for log_n in 4u32..=13 {
            let n = 1usize << log_n;
            if m.bits() > 29 {
                let refused = NttTable::new(m, n);
                assert!(matches!(refused, Err(MathError::NotNttFriendly { .. })), "{refused:?}");
                continue;
            }
            let table = NttTable::new(m, n).expect("NTT-friendly to 2^13");
            for orig in [vec![0; n], vec![q - 1; n], rand_row(n, q, &mut rng)] {
                let mut want = orig.clone();
                scalar.ntt_forward(&table, &mut want);
                for backend in backends_under_test() {
                    let mut got = orig.clone();
                    backend.ntt_forward(&table, &mut got);
                    assert!(got == want, "forward diverged: {} q={q} n={n}", backend.name());
                    backend.ntt_inverse(&table, &mut got);
                    assert!(got == orig, "inverse∘forward ≠ id: {} q={q} n={n}", backend.name());
                }
                // The inverse on its own edge: a non-spectrum input.
                let mut want = orig.clone();
                scalar.ntt_inverse(&table, &mut want);
                for backend in backends_under_test() {
                    let mut got = orig.clone();
                    backend.ntt_inverse(&table, &mut got);
                    assert!(got == want, "inverse diverged: {} q={q} n={n}", backend.name());
                }
            }
        }
    }
}

#[test]
fn ntt_narrow_pair_matches_the_table_oracle() {
    // Both 4-byte transforms on every `BackendKind`, and the `u64` pair
    // every backend shares, against the textbook `NttTable::forward` and
    // `inverse`. The sixteen-lane kernels change shape with `log n`:
    // below n = 32 they hand the row to the optimized body, 32 is their
    // register-resident tail alone, 64 adds the odd radix-2 pass, 128 one
    // radix-4 pass, and so on through both parities to 2^13 — on the
    // Table I primes and the widest 28- and 29-bit primes (the cap), with
    // inputs on the lazy ranges' edges and the digit-sized ones `Dcp`
    // feeds the forward transform.
    let mut moduli = Modulus::special_primes().to_vec();
    for bits in [28u32, 29] {
        moduli.push(Modulus::new(find_ntt_prime_below(bits, 1 << 13).expect("prime exists")));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3217);
    for m in &moduli {
        let q = m.value();
        for log_n in 1u32..=13 {
            let n = 1usize << log_n;
            let table = NttTable::new(m, n).expect("NTT-friendly to 2^13");
            let inputs = [
                vec![0; n],
                vec![q - 1; n],
                rand_row(n, 1 << 14, &mut rng),
                rand_row(n, q, &mut rng),
            ];
            for orig in inputs {
                let (mut fwd, mut inv) = (orig.clone(), orig.clone());
                table.forward(&mut fwd);
                table.inverse(&mut inv);
                let words = narrow(&orig);
                for kind in BACKEND_KINDS {
                    let backend = kind.backend();
                    let case = format!("{kind} q={q} n={n}");
                    let mut got = words.clone();
                    backend.ntt_forward_narrow(&table, &mut got);
                    assert!(got == narrow(&fwd), "narrow forward diverged: {case}");
                    backend.ntt_inverse_narrow(&table, &mut got);
                    assert!(got == words, "narrow inverse∘forward ≠ id: {case}");
                    // The inverse on its own edge: a non-spectrum input.
                    let mut got = words.clone();
                    backend.ntt_inverse_narrow(&table, &mut got);
                    assert!(got == narrow(&inv), "narrow inverse diverged: {case}");
                    let mut got = orig.clone();
                    backend.ntt_forward(&table, &mut got);
                    assert!(got == fwd, "u64 forward diverged: {case}");
                    let mut got = orig.clone();
                    backend.ntt_inverse(&table, &mut got);
                    assert!(got == inv, "u64 inverse diverged: {case}");
                }
            }
        }
    }
}

#[test]
fn tile_pipeline_past_the_fold_bound() {
    // The corners the proptest does not reach. A 29-bit limb absorbs 64
    // lazy terms: three sources of 29 one-bit digits make the pipeline
    // fold mid-limb. A 30-bit limb is past the sixteen-lane NTT's cap and
    // a 40-bit one past any 4-byte row: no ring takes either.
    let prime = |bits: u32| Modulus::new(find_ntt_prime_below(bits, 512).expect("prime exists"));
    let ring_of = |moduli: Vec<Modulus>, n: usize| {
        RingContext::new(n, RnsBasis::new(moduli).expect("distinct primes")).expect("NTT-friendly")
    };
    let [special, special_1, ..] = Modulus::special_primes();
    for bits in [30, 40] {
        let refused = RnsBasis::new(vec![special, prime(bits)]);
        assert!(matches!(refused, Err(MathError::InvalidBasis(_))), "{bits} bits: {refused:?}");
    }
    let cases = [
        (ring_of(vec![prime(29)], 64), 1, 3),
        // One source, so `τ_r` also takes the tree's `Branch` finish:
        // 85 one-bit digits fold mid-limb under the 29-bit prime.
        (ring_of(vec![special, special_1, prime(29)], 32), 1, 1),
    ];
    for (i, (ring, base_bits, sources)) in cases.into_iter().enumerate() {
        let gadget = Gadget::for_modulus(ring.basis().q_big(), base_bits);
        for tau in [None, Some(ring.n() + 1)] {
            for zero_acc in [false, true] {
                check_tile_pipeline(&ring, &gadget, sources, tau, zero_acc, 0x71E5 + i as u64);
            }
        }
    }
}

/// One case of the 4-byte-word MAC `mac2_lazy` (`RowSel`'s kernel — a
/// database row against `ea`/`eb` — and a digit tile against a
/// `GadgetRows` store's rows): on every `BackendKind`, at the pipeline's
/// cadence (`fan_in` terms per call, a fold before `lazy_terms` would be
/// exceeded and once at the end), it must equal [`lazy_dot_oracle`].
/// `extreme` pins the multiplicand, both operands and the starting
/// accumulators at `q − 1`, the case the bound is derived for.
fn check_narrow_mac(m: &Modulus, n: usize, count: usize, fan_in: usize, extreme: bool, seed: u64) {
    let q = m.value();
    let flush = m.lazy_terms();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let row =
        |rng: &mut rand::rngs::StdRng| if extreme { vec![q - 1; n] } else { rand_row(n, q, rng) };
    let rows: Vec<[Vec<u64>; 3]> = (0..count).map(|_| [0; 3].map(|_| row(&mut rng))).collect();
    let stored = words_of(&rows);
    let terms: Vec<MacTerm<'_>> =
        stored.iter().map(|[w, ea, eb]| (&w[..], &ea[..], &eb[..])).collect();
    let (a0, b0) = (row(&mut rng), row(&mut rng));
    let want = (lazy_dot_oracle(&rows, &a0, 1, q), lazy_dot_oracle(&rows, &b0, 2, q));
    for kind in BACKEND_KINDS {
        let backend = kind.backend();
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let mut pending = 0;
        for group in terms.chunks(fan_in.min(flush)) {
            if pending + group.len() > flush {
                backend.fold_lazy(m, &mut a);
                backend.fold_lazy(m, &mut b);
                pending = 0;
            }
            backend.mac2_lazy(m, &mut a, &mut b, group);
            pending += group.len();
        }
        backend.fold_lazy(m, &mut a);
        backend.fold_lazy(m, &mut b);
        let case = format!("{kind} q={q} n={n} terms={count} fan_in={fan_in} extreme={extreme}");
        assert_eq!((a, b), want, "MAC diverged from the u128 oracle: {case}");
    }
}

#[test]
fn narrow_mac_matches_the_u128_oracle() {
    // Every modulus a 4-byte row can be stored under: Table I's four
    // primes, the 29-bit vector cap and the last prime below 2^32
    // (`lazy_terms` 962–1023, 64 and 1). Lengths cover the eight- and
    // sixteen-word chunks and their tails, a second sixteen-word chunk
    // included; term counts straddle the fold bound. A Table I
    // prime's ~1000-term cases are kept off the 4096-word row, which
    // adds no tail the 256-word one lacks, so a debug run stays short.
    let mut moduli = Modulus::special_primes().to_vec();
    for bits in [29u32, 32] {
        moduli.push(Modulus::new(find_ntt_prime_below(bits, 512).expect("prime exists")));
    }
    let mut seed = 0x4E41_5252u64;
    for m in &moduli {
        let flush = m.lazy_terms();
        for count in [1, flush - 1, flush, flush + 1, 2 * flush + 3] {
            if count == 0 {
                continue;
            }
            for n in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 256, 4096] {
                if count * n > 600_000 {
                    continue;
                }
                // Every fan-in on the small cases, a rotating one beyond.
                let rotating = 1 + n % 5;
                let fan_ins = if count * n <= 20_000 { 1..=5 } else { rotating..=rotating };
                for fan_in in fan_ins {
                    for extreme in [false, true] {
                        seed += 1;
                        check_narrow_mac(m, n, count, fan_in, extreme, seed);
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "q < 2^32")]
fn narrow_mac_refuses_a_wide_modulus() {
    // A 4-byte row under a 40-bit modulus would need a per-term tier the
    // kernel does not carry; `RnsBasis::new` keeps such a ring out.
    let m = Modulus::new(find_ntt_prime_below(40, 512).expect("prime exists"));
    let w = [1u32; 4];
    let (mut a, mut b) = ([0u64; 4], [0u64; 4]);
    BackendKind::Auto.backend().mac2_lazy(&m, &mut a, &mut b, &[(&w, &w, &w)]);
}

/// `NTT(τ_r(a))` two ways on one ring: the NTT-domain index permutation
/// against `to_coeff → automorphism → to_ntt`, and the automorphism
/// folded into the iCRT gather against automorphism-then-iCRT.
fn check_automorphism_routes(ring: &std::sync::Arc<RingContext>, r: usize, seed: u64) {
    let n = ring.n();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = RnsPoly::sample_uniform(ring, Form::Ntt, &mut rng);
    let mut coeff = a.clone();
    coeff.to_coeff();
    let tau = coeff.automorphism(r).expect("coefficient form");
    let mut want = tau.clone();
    want.to_ntt();
    let mut got = vec![0u64; a.as_words().len()];
    ring.automorphism_ntt_words(&automorphism_ntt_map(n, r), a.as_words(), &mut got);
    assert_eq!(got, want.as_words(), "NTT-domain τ_{r} diverged at n={n}");

    let mut folded = vec![0u128; n];
    ring.icrt_words_into(coeff.as_words(), Some(r), &mut folded);
    assert_eq!(folded, tau.to_coeffs_u128().expect("coefficient form"), "iCRT∘τ_{r} at n={n}");
}

#[test]
fn ntt_domain_automorphism_matches_coefficient_route() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA070);
    for n in [8usize, 256, 4096] {
        let ring = RingContext::test_ring(n, 3);
        // Every ExpandQuery / trace exponent r = N/2^j + 1 …
        for j in 0..n.trailing_zeros() {
            check_automorphism_routes(&ring, n / (1 << j) + 1, 7 + u64::from(j));
        }
        // … and random odd exponents, reduced or not.
        for _ in 0..8 {
            check_automorphism_routes(&ring, rng.gen_range(0..4 * n) | 1, rng.gen());
        }
    }
}
