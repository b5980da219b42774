//! Plain (single-modulus) negacyclic polynomial helpers.
//!
//! These are the reference oracles the NTT/RNS fast paths are validated
//! against, plus the coefficient-domain automorphism used by `Subs` (§II-D).

use crate::reduce::{add_mod, mul_mod, neg_mod, sub_mod};

/// Schoolbook negacyclic product in `Z_q[X]/(X^n + 1)`. `O(n^2)`; test
/// oracle only.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn negacyclic_mul_schoolbook(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = mul_mod(ai, bj, q);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], prod, q);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, q);
            }
        }
    }
    out
}

/// Applies the automorphism `τ_r : X -> X^r` to a coefficient vector in
/// `Z_q[X]/(X^n + 1)`. `r` must be odd (a unit of `Z_{2n}`).
///
/// Coefficient `a_i X^i` maps to `±a_i X^{ir mod n}` with the sign flipping
/// whenever `ir mod 2n >= n` (because `X^n = -1`).
///
/// # Panics
/// Panics if `r` is even or `n` is not a power of two.
pub fn automorphism(a: &[u64], r: usize, q: u64) -> Vec<u64> {
    let n = a.len();
    assert!(n.is_power_of_two());
    assert!(r % 2 == 1, "automorphism exponent must be odd");
    let two_n = 2 * n;
    let mut out = vec![0u64; n];
    for (i, &c) in a.iter().enumerate() {
        let e = (i * r) % two_n;
        if e < n {
            out[e] = c;
        } else {
            out[e - n] = neg_mod(c, q);
        }
    }
    out
}

/// The automorphism `τ_r` as an index permutation **in the NTT domain**:
/// `map[i]` is the transform slot that output slot `i` reads, so
/// `NTT(τ_r(a))[i] = NTT(a)[map[i]]` — no signs, no arithmetic.
///
/// The negacyclic transform of [`crate::ntt::NttTable`] leaves slot `i`
/// holding the evaluation `a(ψ^{2·brv(i)+1})` (bit-reversed order), and
/// `τ_r(a)(ψ^e) = a(ψ^{e·r})`; odd `r` permutes the odd exponents mod
/// `2n`, so the source slot is `brv(((2·brv(i)+1)·r mod 2n) >> 1)`. The
/// map depends only on `(n, r)`, never on the modulus, so one table
/// serves every residue limb.
///
/// # Panics
/// Panics if `r` is even or `n` is not a power of two in `[2, 2^32)`.
pub fn automorphism_ntt_map(n: usize, r: usize) -> Vec<u32> {
    assert!(n.is_power_of_two() && (2..1 << 32).contains(&n));
    assert!(r % 2 == 1, "automorphism exponent must be odd");
    let log_n = n.trailing_zeros();
    let r = r % (2 * n);
    (0..n)
        .map(|i| {
            let e = ((2 * crate::bit_reverse(i, log_n) + 1) * r) % (2 * n);
            crate::bit_reverse(e >> 1, log_n) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u64 = (1 << 27) + (1 << 15) + 1;

    #[test]
    fn schoolbook_wraps_negacyclically() {
        // (X^3) * (X^1) = X^4 = -1 for n = 4.
        let mut a = vec![0u64; 4];
        let mut b = vec![0u64; 4];
        a[3] = 1;
        b[1] = 1;
        let p = negacyclic_mul_schoolbook(&a, &b, Q);
        assert_eq!(p, vec![Q - 1, 0, 0, 0]);
    }

    #[test]
    fn automorphism_identity() {
        let a: Vec<u64> = (0..8).collect();
        assert_eq!(automorphism(&a, 1, Q), a);
    }

    #[test]
    fn automorphism_composes() {
        // τ_r ∘ τ_s = τ_{rs mod 2n}
        let n = 16;
        let a: Vec<u64> = (1..=n as u64).collect();
        let r = 5;
        let s = 7;
        let lhs = automorphism(&automorphism(&a, s, Q), r, Q);
        let rhs = automorphism(&a, (r * s) % (2 * n), Q);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorphism_n_plus_one_negates_odd_terms() {
        // τ_{n+1}(X^i) = X^{i(n+1)} = (-1)^i X^i — the ExpandQuery §II-A identity.
        let n = 8;
        let a: Vec<u64> = (1..=n as u64).collect();
        let t = automorphism(&a, n + 1, Q);
        for i in 0..n {
            if i % 2 == 0 {
                assert_eq!(t[i], a[i]);
            } else {
                assert_eq!(t[i], Q - a[i]);
            }
        }
    }

    #[test]
    fn automorphism_is_ring_homomorphism() {
        // τ_r(a · b) = τ_r(a) · τ_r(b)
        let n = 16;
        let a: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| 7 * i + 1).collect();
        let r = 9;
        let lhs = automorphism(&negacyclic_mul_schoolbook(&a, &b, Q), r, Q);
        let rhs = negacyclic_mul_schoolbook(&automorphism(&a, r, Q), &automorphism(&b, r, Q), Q);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ntt_map_matches_coefficient_route() {
        use crate::modulus::Modulus;
        use crate::ntt::NttTable;
        let m = Modulus::new(Q);
        let n = 32;
        let table = NttTable::new(&m, n).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i * 977 + 5) % Q).collect();
        let mut a_ntt = a.clone();
        table.forward(&mut a_ntt);
        for r in [1usize, 3, 17, 33, 63, 2 * n + 5] {
            let mut expect = automorphism(&a, r, Q);
            table.forward(&mut expect);
            let map = automorphism_ntt_map(n, r);
            let got: Vec<u64> = map.iter().map(|&j| a_ntt[j as usize]).collect();
            assert_eq!(got, expect, "r={r}");
        }
    }
}
