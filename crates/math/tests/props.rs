//! Property-based tests for the arithmetic substrate.

use ive_math::modulus::Modulus;
use ive_math::poly;
use ive_math::prime;
use ive_math::reduce::{self, Barrett, ShoupMul, Solinas};
use proptest::prelude::*;

fn special_primes() -> Vec<u64> {
    [15u32, 17, 21, 22].iter().map(|&k| (1u64 << 27) + (1 << k) + 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_reduction_paths_agree(x in any::<u128>(), which in 0usize..4) {
        // Solinas folding, Barrett, and the 128-bit remainder must agree
        // on every input — the §IV-G equivalence that lets hardware swap
        // multiplier circuits without changing results.
        let q = special_primes()[which];
        let x = x >> 8; // < 2^120, the documented Solinas input range
        let expect = (x % q as u128) as u64;
        prop_assert_eq!(Barrett::new(q).reduce(x), expect);
        prop_assert_eq!(Solinas::new(q).expect("special shape").reduce(x), expect);
    }

    #[test]
    fn shoup_multiplication_exact(w in any::<u64>(), a in any::<u64>(), which in 0usize..4) {
        let q = special_primes()[which];
        let w = w % q;
        let a = a % q;
        let s = ShoupMul::new(w, q);
        prop_assert_eq!(s.mul(a, q), reduce::mul_mod(w, a, q));
    }

    #[test]
    fn pow_mod_matches_iterated_mul(base in any::<u64>(), exp in 0u64..64, which in 0usize..4) {
        let q = special_primes()[which];
        let base = base % q;
        let mut acc = 1u64 % q;
        for _ in 0..exp {
            acc = reduce::mul_mod(acc, base, q);
        }
        prop_assert_eq!(reduce::pow_mod(base, exp, q), acc);
    }

    #[test]
    fn inverse_really_inverts(a in 1u64..u64::MAX, which in 0usize..4) {
        let q = special_primes()[which];
        let a = a % q;
        prop_assume!(a != 0);
        let inv = reduce::inv_mod_prime(a, q);
        prop_assert_eq!(reduce::mul_mod(a, inv, q), 1);
    }

    #[test]
    fn automorphism_inverse_composes_to_identity(
        seed in any::<u64>(),
        r_half in 0usize..64,
    ) {
        // τ_r is invertible with τ_{r^{-1} mod 2n}; applying both is the
        // identity — the algebra Subs key-switching relies on.
        use rand::{Rng, SeedableRng};
        let n = 64usize;
        let two_n = 2 * n;
        let r = 2 * r_half + 1; // odd
        let q = special_primes()[0];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        // Find r^{-1} in Z_{2n}.
        let r_inv = (1..two_n).step_by(2).find(|&s| (r * s) % two_n == 1).expect("odd r is a unit");
        let round_trip = poly::automorphism(&poly::automorphism(&a, r, q), r_inv, q);
        prop_assert_eq!(round_trip, a);
    }

    #[test]
    fn miller_rabin_agrees_with_trial_division(n in 2u64..100_000) {
        let trial = (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(prime::is_prime(n), trial, "n = {}", n);
    }

    #[test]
    fn modulus_ops_stay_in_range(a in any::<u64>(), b in any::<u64>(), which in 0usize..4) {
        let m = Modulus::special_primes()[which];
        let q = m.value();
        let (a, b) = (a % q, b % q);
        for v in [m.add(a, b), m.sub(a, b), m.neg(a), m.mul(a, b), m.mul_solinas(a, b)] {
            prop_assert!(v < q);
        }
        prop_assert_eq!(m.mul(a, b), m.mul_solinas(a, b));
    }
}

proptest! {
    // Heavier ring-level properties: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn negacyclic_product_commutes_and_distributes(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let n = 32usize;
        let q = special_primes()[1];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mk = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let c = mk(&mut rng);
        // ab = ba
        prop_assert_eq!(
            poly::negacyclic_mul_schoolbook(&a, &b, q),
            poly::negacyclic_mul_schoolbook(&b, &a, q)
        );
        // a(b + c) = ab + ac
        let bc: Vec<u64> =
            b.iter().zip(&c).map(|(&x, &y)| reduce::add_mod(x, y, q)).collect();
        let lhs = poly::negacyclic_mul_schoolbook(&a, &bc, q);
        let ab = poly::negacyclic_mul_schoolbook(&a, &b, q);
        let ac = poly::negacyclic_mul_schoolbook(&a, &c, q);
        let rhs: Vec<u64> =
            ab.iter().zip(&ac).map(|(&x, &y)| reduce::add_mod(x, y, q)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn rns_poly_ring_axioms(seed in any::<u64>()) {
        use ive_math::rns::{Form, RingContext, RnsPoly};
        use rand::SeedableRng;
        let ctx = RingContext::test_ring(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let b = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        let c = RnsPoly::sample_uniform(&ctx, Form::Ntt, &mut rng);
        // (a·b)·c == a·(b·c) pointwise in NTT form.
        let mut lhs = a.clone();
        lhs.mul_assign_pointwise(&b).expect("forms match");
        lhs.mul_assign_pointwise(&c).expect("forms match");
        let mut rhs = b.clone();
        rhs.mul_assign_pointwise(&c).expect("forms match");
        rhs.mul_assign_pointwise(&a).expect("forms match");
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn kernel_fma_accumulates_the_pointwise_product(seed in any::<u64>(), which in 0usize..4) {
        // `fma` is `acc + a·b` on every backend: a separate pointwise
        // product and a modular add reproduce it word for word.
        use ive_math::kernel::BACKEND_KINDS;
        use rand::{Rng, SeedableRng};
        let m = Modulus::special_primes()[which];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut row = || -> Vec<u64> { (0..67).map(|_| rng.gen_range(0..m.value())).collect() };
        let (acc0, a, b) = (row(), row(), row());
        for kind in BACKEND_KINDS {
            let backend = kind.backend();
            let mut acc = acc0.clone();
            backend.fma(&m, &mut acc, &a, &b);
            let mut ab = a.clone();
            backend.pointwise_mul(&m, &mut ab, &b);
            let want: Vec<u64> = acc0.iter().zip(&ab).map(|(&x, &y)| m.add(x, y)).collect();
            prop_assert_eq!(acc, want, "{}", kind);
        }
    }

    #[test]
    fn subtracting_from_zero_negates(seed in any::<u64>()) {
        // `0 − a` is the additive inverse of `a` in every limb, in both
        // forms, and subtraction undoes addition.
        use ive_math::rns::{Form, RingContext, RnsPoly};
        use rand::SeedableRng;
        let ctx = RingContext::test_ring(32, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for form in [Form::Coeff, Form::Ntt] {
            let a = RnsPoly::sample_uniform(&ctx, form, &mut rng);
            let b = RnsPoly::sample_uniform(&ctx, form, &mut rng);
            let mut neg = RnsPoly::zero(&ctx, form);
            neg.sub_assign(&a).expect("forms match");
            let mut sum = neg.clone();
            sum.add_assign(&a).expect("forms match");
            prop_assert_eq!(sum, RnsPoly::zero(&ctx, form));
            let mut back = a.clone();
            back.add_assign(&b).expect("forms match");
            back.sub_assign(&b).expect("forms match");
            prop_assert_eq!(&back, &a);
        }
    }
}
