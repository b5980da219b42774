//! `ExpandQuery` — oblivious expansion of the packed query (§II-A, Fig. 2).
//!
//! From a single ciphertext encrypting `Δ·2^{-L}·X^{i*}` the server derives
//! `D0 = 2^L` ciphertexts forming the one-hot representation of `i*`.
//! Level `j` applies `Subs(·, N/2^j + 1)` to every ciphertext and splits it
//! into an even branch `ct + Subs(ct)` and an odd branch
//! `(ct − Subs(ct))·X^{-2^j}`; each level doubles the encoded value, which
//! the client's `2^{-L}` pre-scaling cancels exactly.
//!
//! **The last level can fold into `RowSel`.** With `h = D0/2`, the
//! level-`L−1` parents `c_p` (`p < h`), `r = N/h + 1` and
//! `x = NTT(X^{-h})`, a row's sum over the leaves regroups as
//!
//! ```text
//! Σ_i D_i ⊙ leaf_i = Σ_p A_p ⊙ c_p + Subs_r(Σ_p B'_p ⊙ c_p)
//! A_p = D_p + x·D_{p+h}        B'_p = τ_r^{-1}(D_p − x·D_{p+h})
//! ```
//!
//! because the key switch is linear (up to its fresh noise) and `τ_r` is
//! a ring automorphism (`τ_r(B')·Subs(c) ≈ Subs(B'·c)`). A folded query
//! costs `D0/2 − 1 + rows` `Subs` instead of the tree's `D0 − 1`, and one
//! key-switch noise term per row replaces the `h` the tree's last level
//! multiplied into the record polynomials. So a geometry with
//! `rows < D0/2` folds ([`PirParams::folds_last_level`](crate::PirParams)):
//! the database stores `(A_p, B'_p)` in place of `(D_p, D_{p+h})`
//! ([`crate::db`]), [`Expander`] grows only `L − 1` levels — `D0/2 − 1`
//! `Subs` and half the bytes — and hands `RowSel` the level-`L−1` key
//! inside the [`Expansion`], and `RowSel` runs that `Subs` once per
//! database row and query. Any other geometry (Table I's from `d = 7`,
//! the toy one) grows the whole tree and scans the `D0` leaves.

use std::sync::Arc;

use ive_he::{BfvCiphertext, HeParams, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::kernel::{ShoupWords, VpeBackend};
use ive_math::rns::{Form, RingContext, RnsPoly};

use crate::PirError;

/// The per-depth automorphism exponents used by `ExpandQuery`:
/// `r_j = N/2^j + 1` for `j = 0..levels` (§II-A).
pub(crate) fn expansion_exponents(n: usize, levels: u32) -> Vec<usize> {
    (0..levels).map(|j| expansion_exponent(n, j)).collect()
}

/// `r_j = N/2^j + 1`.
fn expansion_exponent(n: usize, j: u32) -> usize {
    n / (1usize << j) + 1
}

/// `NTT(X^{-2^j})` — the odd-branch monomial for level `j`.
///
/// `X^{-t} = -X^{N-t}` in the negacyclic ring.
pub(crate) fn x_neg_pow_ntt(he: &HeParams, t: usize) -> RnsPoly {
    let n = he.n();
    assert!(t >= 1 && t < n);
    let mut p = RnsPoly::zero(he.ring(), Form::Coeff);
    for (m, modulus) in he.ring().basis().moduli().iter().enumerate() {
        p.residue_mut(m)[n - t] = modulus.value() - 1;
    }
    p.to_ntt();
    p
}

/// An expanded query: the tree's `D0` leaves, or with the last level
/// folded its `D0/2` level-`L−1` parents, as NTT-form ciphertexts in one
/// flat buffer (`slots × 2·k·n` words, slot `i` = `[a | b]`), which is
/// what `RowSel` streams against the database, and for a folded tree a
/// handle to the level-`L−1` [`SubsKey`] that `RowSel` finishes every
/// row with (a reference-counted clone of the client's key: no
/// allocation). The words are 4-byte — a serving ring's residues are
/// 28-bit, and `RnsBasis::new` refuses a limb above 29 bits — so the tree
/// grows and the scan reads `ea`/`eb` at half the bytes of a `u64` layout
/// (16 MiB for Table I's 128 parents, re-read once per row block of the
/// scan). Only
/// `Expander::expand_into` fills one, so form, ring and canonical words
/// are invariants of the type, not per-query checks.
#[derive(Debug, Clone)]
pub struct Expansion {
    ring: Arc<RingContext>,
    words: Vec<u32>,
    /// The key of a folded last level, which `RowSel` applies per row.
    last_key: Option<SubsKey>,
}

impl Expansion {
    /// An empty expansion over `ring`; [`Expander::expand_into`] sizes it.
    pub(crate) fn empty(ring: &Arc<RingContext>) -> Self {
        Expansion { ring: Arc::clone(ring), words: Vec::new(), last_key: None }
    }

    /// Words per ciphertext slot (`2·k·n`).
    fn ct_words(&self) -> usize {
        2 * self.ring.basis().len() * self.ring.n()
    }

    /// Number of ciphertext slots (`D0`, or `D0/2` folded).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.ct_words()
    }

    /// The ring the ciphertexts live in.
    #[inline]
    pub(crate) fn ring(&self) -> &Arc<RingContext> {
        &self.ring
    }

    /// The level-`L−1` key `RowSel` finishes each row with (`None` for a
    /// whole tree, or an expansion never filled).
    #[inline]
    pub(crate) fn last_key(&self) -> Option<&SubsKey> {
        self.last_key.as_ref()
    }

    /// The `(a, b)` limb words of slot `i` (each `k·n`, NTT form,
    /// canonical).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub(crate) fn slot_words(&self, i: usize) -> (&[u32], &[u32]) {
        let ct_words = self.ct_words();
        self.words[i * ct_words..(i + 1) * ct_words].split_at(ct_words / 2)
    }

    /// Makes the buffer `2^levels` slots of `ring`, contents stale.
    /// Every slot is written by the expansion, so stale words need no
    /// clearing; a buffer that must grow is taken fresh from the
    /// allocator's zero pages rather than memset.
    pub(crate) fn reshape(&mut self, ring: &Arc<RingContext>, levels: u32) {
        self.ring = Arc::clone(ring);
        let len = self.ct_words() << levels;
        if self.words.capacity() < len {
            self.words = vec![0; len];
        } else {
            self.words.resize(len, 0);
        }
    }
}

/// `ExpandQuery` for one geometry: the parameters plus the per-level
/// odd-branch monomials `NTT(X^{-2^j})` of the levels it grows, as
/// 4-byte Shoup tables, built once so a query pays only for its `Subs`
/// calls. (The per-level automorphism tables live in the client's
/// [`SubsKey`]s, likewise built once per key; a folded last level's
/// monomial lives in the database, [`crate::db`].)
#[derive(Debug)]
pub(crate) struct Expander {
    he: HeParams,
    /// `L = log2(D0)`: the keys a query needs.
    log_d0: u32,
    /// Whether the last level is left to `RowSel`.
    fold_last: bool,
    x_neg_pows: Vec<ShoupWords>,
}

impl Expander {
    /// Tables for expanding towards `D0 = 2^log_d0` ciphertexts: the whole
    /// tree, or with `fold_last`
    /// ([`PirParams::folds_last_level`](crate::PirParams)) one level
    /// short, at the `D0/2` parents.
    ///
    /// # Panics
    /// Panics if `fold_last` with `log_d0 = 0`, or if `2^log_d0` exceeds
    /// the ring degree.
    pub(crate) fn new(he: &HeParams, log_d0: u32, fold_last: bool) -> Self {
        assert!(log_d0 >= 1 || !fold_last, "D0 = 1 has no last level to fold");
        let x_neg_pows = (0..log_d0 - u32::from(fold_last))
            .map(|j| ShoupWords::new(he.ring(), x_neg_pow_ntt(he, 1 << j).as_words()))
            .collect();
        Expander { he: he.clone(), log_d0, fold_last, x_neg_pows }
    }

    /// Expands the packed query into `out`, in place and in 4-byte words:
    /// the query is narrowed into slot 0 and the tree grows inside the flat
    /// buffer, each node's even child overwriting it and the odd child
    /// landing `2^j` slots further ([`SubsKey::apply_branch`] writes both
    /// in one pass), so bit `j` of a slot's index is its level-`j` branch
    /// and slot `i` ends up encrypting coefficient `i` — or, with the last
    /// level folded, slot `p` holding the level-`L−1` parent of leaves `p`
    /// and `p + D0/2` — with no reordering pass and no per-node ciphertext
    /// allocation. `keys[j]` must be the `SubsKey` for exponent
    /// `N/2^j + 1`; a folded level's key, `keys[L−1]`, is not applied here
    /// but carried in `out` for `RowSel`. `Dcp` scratch comes from `arena`.
    ///
    /// # Errors
    /// Fails when too few keys are supplied, a key exponent mismatches,
    /// or the query is not an NTT-form ciphertext of this ring.
    pub(crate) fn expand_into(
        &self,
        query: &BfvCiphertext,
        keys: &[SubsKey],
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
        out: &mut Expansion,
    ) -> Result<(), PirError> {
        let he = &self.he;
        let ring = he.ring();
        let levels = self.log_d0 as usize;
        if keys.len() < levels {
            return Err(PirError::MissingKeys { got: keys.len(), need: levels });
        }
        for (j, key) in keys.iter().enumerate().take(levels) {
            let r = expansion_exponent(he.n(), j as u32);
            if key.r() != r {
                return Err(PirError::InvalidParams(format!(
                    "expansion key {j} has exponent {}, expected {r}",
                    key.r()
                )));
            }
        }
        for poly in [&query.a, &query.b] {
            if poly.form() != Form::Ntt || **poly.ctx() != **ring {
                return Err(PirError::InvalidParams(
                    "ExpandQuery needs an NTT-form query ciphertext of the server's ring".into(),
                ));
            }
        }

        out.reshape(ring, self.x_neg_pows.len() as u32);
        out.last_key = self.fold_last.then(|| keys[levels - 1].clone());
        let ct_words = out.ct_words();
        let packed = query.a.as_words().iter().chain(query.b.as_words());
        for (dst, &w) in out.words.iter_mut().zip(packed) {
            *dst = w as u32;
        }
        for (j, (key, x_inv)) in keys.iter().zip(&self.x_neg_pows).enumerate() {
            let (nodes, children) = out.words.split_at_mut(ct_words << j);
            for (node, odd) in
                nodes.chunks_exact_mut(ct_words).zip(children.chunks_exact_mut(ct_words))
            {
                key.apply_branch(he, node, odd, x_inv, backend, arena)?;
            }
        }
        Ok(())
    }
}

/// `ExpandQuery` by its definition, from public primitives only: per
/// level, `Subs` every ciphertext, keep `ct + Subs(ct)` in place and
/// put `(ct − Subs(ct))·X^{-2^j}` `2^j` slots on — all `levels` of them,
/// the last one included.
#[cfg(test)]
pub(crate) fn reference_tree(
    he: &HeParams,
    query: &BfvCiphertext,
    keys: &[SubsKey],
    levels: u32,
) -> Vec<BfvCiphertext> {
    let backend = ive_math::kernel::BackendKind::Scalar.backend();
    let mut arena = KernelArena::new();
    let mut slots = vec![query.clone()];
    for (j, key) in keys.iter().enumerate().take(levels as usize) {
        let x_inv = x_neg_pow_ntt(he, 1 << j);
        let mut children = Vec::with_capacity(slots.len());
        for ct in &mut slots {
            let subbed = key.apply_with(he, ct, backend, &mut arena).unwrap();
            let mut odd = ct.clone();
            odd.sub_assign(&subbed).unwrap();
            odd.mul_plain_assign(&x_inv).unwrap();
            ct.add_assign(&subbed).unwrap();
            children.push(odd);
        }
        slots.append(&mut children);
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_he::{Plaintext, SecretKey};
    use ive_math::kernel::BACKEND_KINDS;
    use ive_math::wide;
    use rand::SeedableRng;

    /// Expands towards `2^levels` slots (`fold_last`: one level short)
    /// into a fresh buffer through `backend`, building the per-level
    /// tables for this one call (a server keeps an [`Expander`]).
    fn expand_query_with(
        he: &HeParams,
        query: &BfvCiphertext,
        keys: &[SubsKey],
        (levels, fold_last): (u32, bool),
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<Expansion, PirError> {
        let mut out = Expansion::empty(he.ring());
        Expander::new(he, levels, fold_last).expand_into(query, keys, backend, arena, &mut out)?;
        Ok(out)
    }

    fn expand_query(
        he: &HeParams,
        query: &BfvCiphertext,
        keys: &[SubsKey],
        shape: (u32, bool),
    ) -> Result<Expansion, PirError> {
        let backend = ive_math::kernel::default_backend();
        expand_query_with(he, query, keys, shape, backend, &mut KernelArena::new())
    }

    /// Slot `i` widened back into a ciphertext.
    fn ciphertext(e: &Expansion, i: usize) -> BfvCiphertext {
        let (a, b) = e.slot_words(i);
        let poly = |w: &[u32]| {
            let wide = w.iter().map(|&x| u64::from(x)).collect();
            RnsPoly::from_words(e.ring(), Form::Ntt, wide).unwrap()
        };
        BfvCiphertext { a: poly(a), b: poly(b) }
    }

    /// The tree's leaves: the slots of a whole tree, or for a folded one
    /// the last level the server runs inside `RowSel`, run here with
    /// public primitives on every parent and the key the expansion
    /// carries.
    fn leaves(he: &HeParams, e: &Expansion) -> Vec<BfvCiphertext> {
        let Some(key) = e.last_key() else {
            return (0..e.len()).map(|i| ciphertext(e, i)).collect();
        };
        let h = e.len();
        assert_eq!(key.r(), he.n() / h + 1);
        let x_inv = x_neg_pow_ntt(he, h);
        let mut even = Vec::with_capacity(2 * h);
        let mut odd = Vec::with_capacity(h);
        for p in 0..h {
            let parent = ciphertext(e, p);
            let subbed = key.apply(he, &parent).unwrap();
            let mut o = parent.clone();
            o.sub_assign(&subbed).unwrap();
            o.mul_plain_assign(&x_inv).unwrap();
            let mut ev = parent;
            ev.add_assign(&subbed).unwrap();
            even.push(ev);
            odd.push(o);
        }
        even.append(&mut odd);
        even
    }

    fn scaled_query(
        he: &HeParams,
        sk: &SecretKey,
        levels: u32,
        coeffs: &[u64],
        rng: &mut impl rand::Rng,
    ) -> BfvCiphertext {
        let m = Plaintext::new(he, coeffs.to_vec()).unwrap();
        let q = he.q_big();
        let inv = he.inv_two_pow(levels);
        let (hi, lo) = wide::mul_u128(he.delta(), inv);
        let scale = wide::div_rem_wide(hi, lo, q).1;
        BfvCiphertext::encrypt_scaled(he, sk, &m, scale, rng)
    }

    #[test]
    fn expansion_yields_one_hot() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&he, &mut rng);
        let levels = 3u32;
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), levels)
            .iter()
            .map(|&r| SubsKey::generate(&he, &sk, r, &mut rng))
            .collect();
        for (target, fold_last) in
            [0usize, 1, 5, 7].into_iter().flat_map(|t| [(t, false), (t, true)])
        {
            let mut coeffs = vec![0u64; he.n()];
            coeffs[target] = 1;
            let query = scaled_query(&he, &sk, levels, &coeffs, &mut rng);
            let expanded = expand_query(&he, &query, &keys, (levels, fold_last)).unwrap();
            assert_eq!(expanded.len(), 8 >> u32::from(fold_last), "a folded tree stops at D0/2");
            let leaves = leaves(&he, &expanded);
            assert_eq!(leaves.len(), 8);
            for (i, leaf) in leaves.iter().enumerate() {
                let m = leaf.decrypt(&he, &sk);
                let expect = u64::from(i == target);
                assert_eq!(m.values()[0], expect, "slot {i}, target {target}, {fold_last}");
                assert!(m.values()[1..].iter().all(|&v| v == 0), "slot {i} clean");
            }
        }
    }

    #[test]
    fn expansion_carries_arbitrary_values() {
        // Beyond one-hot: every slot receives its own packed coefficient.
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let sk = SecretKey::generate(&he, &mut rng);
        let levels = 2u32;
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), levels)
            .iter()
            .map(|&r| SubsKey::generate(&he, &sk, r, &mut rng))
            .collect();
        let mut coeffs = vec![0u64; he.n()];
        let payload = [11u64, 22, 33, 44];
        coeffs[..4].copy_from_slice(&payload);
        let query = scaled_query(&he, &sk, levels, &coeffs, &mut rng);
        for fold_last in [false, true] {
            let expanded = expand_query(&he, &query, &keys, (levels, fold_last)).unwrap();
            let leaves = leaves(&he, &expanded);
            for (i, &want) in payload.iter().enumerate() {
                let got = leaves[i].decrypt(&he, &sk).values()[0];
                assert_eq!(got, want, "slot {i}, {fold_last}");
            }
        }
    }

    #[test]
    fn missing_keys_detected() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let sk = SecretKey::generate(&he, &mut rng);
        let query = scaled_query(&he, &sk, 3, &vec![0u64; he.n()], &mut rng);
        let err = expand_query(&he, &query, &[], (3, true)).unwrap_err();
        assert!(matches!(err, PirError::MissingKeys { got: 0, need: 3 }));
    }

    #[test]
    fn wrong_key_exponent_detected() {
        let he = HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let sk = SecretKey::generate(&he, &mut rng);
        let query = scaled_query(&he, &sk, 1, &vec![0u64; he.n()], &mut rng);
        let bad = vec![SubsKey::generate(&he, &sk, 3, &mut rng)];
        assert!(expand_query(&he, &query, &bad, (1, false)).is_err());
    }

    /// The in-place 4-byte tree against [`reference_tree`], whole and one
    /// level short, slot by slot and word by word, on every backend, and
    /// the key a folded tree leaves for `RowSel`.
    fn check_tree(he: &HeParams, levels: std::ops::RangeInclusive<u32>, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(he, &mut rng);
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), *levels.end())
            .iter()
            .map(|&r| SubsKey::generate(he, &sk, r, &mut rng))
            .collect();
        let coeffs: Vec<u64> = (0..he.n() as u64).map(|i| (i * i + 1) % he.p()).collect();
        let query = scaled_query(he, &sk, *levels.end(), &coeffs, &mut rng);
        let mut arena = KernelArena::new();
        let shapes = levels.flat_map(|l| [(l, false), (l, true)]).filter(|&(l, f)| l > 0 || !f);
        for (levels, fold_last) in shapes {
            let want = reference_tree(he, &query, &keys, levels - u32::from(fold_last));
            for kind in BACKEND_KINDS {
                let shape = (levels, fold_last);
                let got = expand_query_with(he, &query, &keys, shape, kind.backend(), &mut arena);
                let got = got.unwrap();
                assert_eq!(got.len(), want.len(), "{kind}, {levels} levels");
                let last = fold_last.then(|| keys[levels as usize - 1].r());
                assert_eq!(got.last_key().map(SubsKey::r), last, "{kind}, {levels} levels");
                for (i, want) in want.iter().enumerate() {
                    let (a, b) = got.slot_words(i);
                    let same = |got: &[u32], want: &RnsPoly| {
                        got.iter().map(|&w| u64::from(w)).eq(want.as_words().iter().copied())
                    };
                    assert!(same(a, &want.a), "{kind}, {levels} levels: slot {i} mask");
                    assert!(same(b, &want.b), "{kind}, {levels} levels: slot {i} body");
                }
            }
        }
    }

    #[test]
    fn tree_matches_the_public_primitives_on_every_backend() {
        check_tree(&HeParams::toy(), 0..=4, 35);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn tree_matches_the_public_primitives_paper_ring() {
        check_tree(&HeParams::paper(), 3..=3, 36);
    }

    #[test]
    fn exponent_schedule_matches_paper() {
        // N+1, N/2+1, N/4+1, ... (§II-A).
        assert_eq!(expansion_exponents(4096, 3), vec![4097, 2049, 1025]);
    }
}
