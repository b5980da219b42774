//! Property-based tests over the core invariants, spanning crates.

use ive::he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey};
use ive::math::gadget::Gadget;
use ive::math::modulus::Modulus;
use ive::math::ntt::NttTable;
use ive::math::poly;
use ive::math::rns::{Form, RingContext, RnsBasis, RnsPoly};
use ive::math::wide;
use ive::pir::db::{plaintext_from_bytes, plaintext_to_bytes};
use ive::pir::PirParams;
use proptest::prelude::*;
use rand::{Rng as _, SeedableRng};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ntt_roundtrip_any_input(seed in any::<u64>(), prime_idx in 0usize..4, log_n in 3u32..9) {
        let n = 1usize << log_n;
        let m = Modulus::special_primes()[prime_idx];
        let table = NttTable::new(&m, n).expect("NTT-friendly");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let mut a = orig.clone();
        table.forward(&mut a);
        table.inverse(&mut a);
        prop_assert_eq!(a, orig);
    }

    #[test]
    fn ntt_convolution_matches_schoolbook(seed in any::<u64>()) {
        let n = 32;
        let m = Modulus::special_primes()[1];
        let table = NttTable::new(&m, n).expect("NTT-friendly");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let expect = poly::negacyclic_mul_schoolbook(&a, &b, m.value());
        let mut fa = a;
        let mut fb = b;
        table.forward(&mut fa);
        table.forward(&mut fb);
        table.pointwise_mul_assign(&mut fa, &fb);
        table.inverse(&mut fa);
        prop_assert_eq!(fa, expect);
    }

    #[test]
    fn crt_icrt_bijective(x in any::<u128>()) {
        let basis = RnsBasis::paper_basis();
        let x = x % basis.q_big();
        prop_assert_eq!(basis.from_residues(&basis.to_residues(x)), x);
    }

    #[test]
    fn gadget_covers_all_values(x in any::<u128>(), base_bits in 4u32..23) {
        let g = Gadget::for_modulus(1u128 << 110, base_bits);
        let x = x & ((1u128 << 110) - 1);
        let mut digits = vec![0u64; g.ell()];
        g.decompose_u128(x, &mut digits);
        prop_assert_eq!(g.recompose(&digits), x);
        for &d in &digits {
            prop_assert!((d as u128) < g.base());
        }
    }

    #[test]
    fn wide_division_exact(a in any::<u128>(), b in any::<u128>(), d in 1u128..(1 << 100)) {
        let a = a >> 20; // keep the quotient within u128
        let (hi, lo) = wide::mul_u128(a, b % d.max(2));
        prop_assume!(hi < d);
        let (q, r) = wide::div_rem_wide(hi, lo, d);
        prop_assert!(r < d);
        // Verify q·d + r reassembles the product.
        let (vh, vl) = wide::mul_u128(q, d);
        let (sum_lo, carry) = vl.overflowing_add(r);
        prop_assert_eq!((vh + u128::from(carry), sum_lo), (hi, lo));
    }

    #[test]
    fn record_packing_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let params = PirParams::toy();
        let he = params.he();
        let pt = plaintext_from_bytes(he, &bytes).expect("fits capacity");
        let back = plaintext_to_bytes(he, &pt);
        prop_assert_eq!(&back[..bytes.len()], &bytes[..]);
    }
}

proptest! {
    // HE properties are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bfv_linear_homomorphism(seed in any::<u64>()) {
        let params = HeParams::toy();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&params, &mut rng);
        let p = params.p();
        let m1: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..p)).collect();
        let m2: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..p)).collect();
        let ct1 = BfvCiphertext::encrypt(
            &params, &sk, &Plaintext::new(&params, m1.clone()).expect("valid"), &mut rng);
        let ct2 = BfvCiphertext::encrypt(
            &params, &sk, &Plaintext::new(&params, m2.clone()).expect("valid"), &mut rng);
        let mut sum = ct1.clone();
        sum.add_assign(&ct2).expect("forms match");
        let got = sum.decrypt(&params, &sk);
        for i in 0..params.n() {
            prop_assert_eq!(got.values()[i], (m1[i] + m2[i]) % p);
        }
    }

    #[test]
    fn external_product_selects_by_bit(seed in any::<u64>(), bit in any::<bool>()) {
        let params = HeParams::toy();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let sk = SecretKey::generate(&params, &mut rng);
        let m: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
        let pt = Plaintext::new(&params, m).expect("valid");
        let ct = BfvCiphertext::encrypt(&params, &sk, &pt, &mut rng);
        let sel = RgswCiphertext::encrypt_bit(&params, &sk, bit, &mut rng);
        let out = sel.external_product(&params, &ct).expect("compatible");
        let got = out.decrypt(&params, &sk);
        if bit {
            prop_assert_eq!(got, pt);
        } else {
            prop_assert_eq!(got, Plaintext::zero(&params));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn treewalk_ops_and_floor_invariants(
        depth in 1u32..12,
        buffer_mb in 1u64..16,
        key_kb in 64u64..2048,
    ) {
        use ive::hw::treewalk::{coltor_traffic, TreeSchedule, TreeWalkConfig};
        let cfg = TreeWalkConfig {
            depth,
            ct_bytes: 112 << 10,
            key_bytes: key_kb << 10,
            temp_bytes: 112 << 10,
            buffer_bytes: buffer_mb << 20,
        };
        let expected_ops = (1u64 << depth) - 1;
        let floor = (1u64 << depth) * cfg.ct_bytes;
        for s in [
            TreeSchedule::Bfs,
            TreeSchedule::Dfs,
            TreeSchedule::Hs { subtree_depth: cfg.hs_auto_depth(false), inner_bfs: false },
        ] {
            let t = coltor_traffic(&cfg, s);
            // Same arithmetic regardless of schedule.
            prop_assert_eq!(t.ops, expected_ops);
            // Every leaf must cross DRAM at least once.
            prop_assert!(t.traffic.ct_load >= floor);
            // Every level's key must be loaded at least once.
            prop_assert!(t.traffic.key_load >= depth as u64 * cfg.key_bytes);
        }
    }

    #[test]
    fn engine_monotone_in_batch(gib in 1u64..32, batch_exp in 0u32..7) {
        use ive::accel::config::IveConfig;
        use ive::accel::engine::{simulate_batch, DbPlacement};
        use ive::baselines::complexity::Geometry;
        let cfg = IveConfig::paper_hbm_only();
        let geom = Geometry::paper_for_db_bytes(gib << 30);
        let b = 1usize << batch_exp;
        let r1 = simulate_batch(&cfg, &geom, b, DbPlacement::Hbm);
        let r2 = simulate_batch(&cfg, &geom, 2 * b, DbPlacement::Hbm);
        // Latency never decreases with batch; QPS never decreases either
        // (amortization is monotone in this regime).
        prop_assert!(r2.total_s >= r1.total_s * 0.999);
        prop_assert!(r2.qps >= r1.qps * 0.999);
    }
}

/// `sample_uniform` / `sample_cbd` hoist the rejection limit and reduce
/// with a Barrett estimate, and the fresh-sample kernel draws its noise
/// through `ive_math::sample::cbd`; they must still consume the RNG and
/// produce the words that the `gen_range` / `reduce_i128` formulation
/// does, or every seeded key, query and golden digest would move.
fn samplers_match_gen_range<R: rand::Rng + SeedableRng>(ring: &Arc<RingContext>, seed: u64) {
    let (n, moduli) = (ring.n(), ring.basis().moduli());
    for eta in [1u32, 4] {
        let (mut fast, mut reference) = (R::seed_from_u64(seed), R::seed_from_u64(seed));
        for form in [Form::Ntt, Form::Coeff] {
            let got = RnsPoly::sample_uniform(ring, form, &mut fast);
            let want: Vec<u64> = moduli
                .iter()
                .flat_map(|m| (0..n).map(|_| reference.gen_range(0..m.value())).collect::<Vec<_>>())
                .collect();
            assert_eq!(got.as_words(), &want[..], "uniform, n = {n}");
        }
        let mut reference_cbd = || -> Vec<i64> {
            (0..n)
                .map(|_| {
                    (0..eta)
                        .map(|_| {
                            reference.gen_range(0..2) as i64 - reference.gen_range(0..2) as i64
                        })
                        .sum()
                })
                .collect()
        };
        let got = RnsPoly::sample_cbd(ring, eta, &mut fast);
        let signed = reference_cbd();
        for (m, modulus) in moduli.iter().enumerate() {
            let want: Vec<u64> = signed.iter().map(|&c| modulus.reduce_i128(c as i128)).collect();
            assert_eq!(got.residue(m), &want[..], "cbd η = {eta}, n = {n}, limb {m}");
        }
        // The fresh-sample kernel's noise draw, next on the same stream.
        let mut kernel = vec![0i64; n];
        ive_math::sample::cbd(eta, &mut fast, &mut kernel);
        assert_eq!(kernel, reference_cbd(), "kernel cbd η = {eta}, n = {n}");
        // Both generators stand at the same point of the stream.
        assert_eq!(fast.next_u64(), reference.next_u64(), "η = {eta}, n = {n}");
    }
}

#[test]
fn samplers_draw_the_gen_range_stream() {
    for he in [HeParams::toy(), HeParams::paper()] {
        samplers_match_gen_range::<rand::rngs::StdRng>(he.ring(), 0x5eed);
        samplers_match_gen_range::<rand_chacha::ChaCha8Rng>(he.ring(), 0x5eed);
    }
}

#[test]
fn signed_coefficients_reduce_at_any_magnitude() {
    // The one-compare map of `from_signed_coeffs` and its wide fallback.
    let ring = RingContext::test_ring(256, 3);
    let q0 = ring.basis().moduli()[0].value() as i64;
    let mut coeffs = vec![0i64; ring.n()];
    coeffs[..8].copy_from_slice(&[0, 1, -1, q0 - 1, -(q0 - 1), q0, -q0, i64::MIN]);
    let poly = RnsPoly::from_signed_coeffs(&ring, &coeffs);
    for (m, modulus) in ring.basis().moduli().iter().enumerate() {
        for (i, &c) in coeffs.iter().enumerate() {
            assert_eq!(poly.residue(m)[i], modulus.reduce_i128(c as i128), "limb {m}, c = {c}");
        }
    }
}
