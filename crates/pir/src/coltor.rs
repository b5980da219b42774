//! `ColTor` — the column tournament over RGSW external products (§II-C).
//!
//! After `RowSel`, `2^d` ciphertexts remain; each tournament level `t`
//! halves them with the CMux `sel_t ⊡ (X − Y) + Y`, where `X`/`Y` are the
//! entries whose row-index bit `t` is 1/0 and `sel_t` is the RGSW
//! encryption of bit `t` of the target row.
//!
//! Three traversal orders are provided — BFS, DFS, and the paper's
//! hierarchical search (HS, Fig. 7) — which perform *identical arithmetic*
//! (same CMux on the same operands) in different orders, so their outputs
//! are bit-identical; they differ only in working-set behaviour, which the
//! accelerator model in `ive-accel` charges for (Fig. 8).

use ive_he::{BfvCiphertext, HeParams, RgswCiphertext};
use ive_math::arena::KernelArena;
use ive_math::kernel::VpeBackend;
use ive_math::rns::Form;

use crate::PirError;

/// Traversal order for the tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TournamentOrder {
    /// Level-by-level (Fig. 7a): maximal `ct_RGSW` reuse, maximal
    /// intermediate traffic.
    Bfs,
    /// Depth-first (Fig. 7b): minimal intermediate traffic, poor
    /// `ct_RGSW` reuse.
    Dfs,
    /// Hierarchical search (Fig. 7c) with the given subtree depth:
    /// DFS within subtrees whose working set fits on-chip.
    Hs {
        /// Levels folded per subtree pass.
        subtree_depth: u32,
    },
}

/// Runs the tournament, consuming `entries` (length must be `2^d` with
/// `d == sel_bits.len()`), and returns the single surviving ciphertext.
/// `sel_bits[t]` encrypts bit `t` of the target row index.
///
/// Every CMux runs through `backend`, with its `Dcp` scratch drawn from
/// `arena` (the serving path: one warm buffer set serves all `2^d − 1`
/// tournament nodes). Each node's winner is written over its low
/// operand, so the tournament copies no ciphertext.
///
/// # Errors
/// Fails when the entry count is not a power of two matching the number of
/// selection bits, or an entry is not an NTT-form ciphertext of `he`'s
/// ring.
pub(crate) fn col_tor_with(
    he: &HeParams,
    mut entries: Vec<BfvCiphertext>,
    sel_bits: &[RgswCiphertext],
    order: TournamentOrder,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    let d = tournament_depth(entries.len(), sel_bits.len())?;
    for poly in entries.iter().flat_map(|ct| [&ct.a, &ct.b]) {
        if poly.form() != Form::Ntt || **poly.ctx() != **he.ring() {
            return Err(PirError::InvalidParams(
                "tournament entries must be NTT-form ciphertexts of the parameter ring".into(),
            ));
        }
    }
    for_each_node(d, order, |t, lo, hi| {
        let (head, tail) = entries.split_at_mut(hi);
        let (y, x) = (&mut head[lo], &mut tail[0]);
        Ok(sel_bits[t].cmux_words(
            he,
            (x.a.as_words_mut(), x.b.as_words_mut()),
            (y.a.as_words_mut(), y.b.as_words_mut()),
            backend,
            arena,
        )?)
    })?;
    Ok(entries.swap_remove(0))
}

/// The tournament in place over `2^d` flat NTT-form ciphertexts (`[a | b]`,
/// `ct_words` each) laid out `stride` words apart in `words` — the
/// `RowSel` accumulator rows of one query, with no ciphertext
/// materialized in between. The winner lands in the first entry; the
/// others are consumed.
pub(crate) fn col_tor_words(
    he: &HeParams,
    words: &mut [u64],
    (entries, stride, ct_words): (usize, usize, usize),
    sel_bits: &[RgswCiphertext],
    order: TournamentOrder,
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<(), PirError> {
    let d = tournament_depth(entries, sel_bits.len())?;
    for_each_node(d, order, |t, lo, hi| {
        let (head, tail) = words.split_at_mut(hi * stride);
        let (y_a, y_b) = head[lo * stride..lo * stride + ct_words].split_at_mut(ct_words / 2);
        let (x_a, x_b) = tail[..ct_words].split_at_mut(ct_words / 2);
        Ok(sel_bits[t].cmux_words(he, (x_a, x_b), (y_a, y_b), backend, arena)?)
    })
}

/// Validates the tournament shape and returns its depth `d`.
fn tournament_depth(entries: usize, bits: usize) -> Result<usize, PirError> {
    if entries == 0 || !entries.is_power_of_two() {
        return Err(PirError::InvalidParams(format!(
            "tournament over {entries} entries (need a power of two)"
        )));
    }
    let d = entries.trailing_zeros() as usize;
    if bits < d {
        return Err(PirError::MissingKeys { got: bits, need: d });
    }
    Ok(d)
}

/// Visits the `2^d − 1` tournament nodes in `order`. `node(t, lo, hi)`
/// plays entry `hi` against entry `lo = hi − 2^t` under selection bit `t`
/// (`sel_t ⊡ (hi − lo) + lo`, picking `hi` when the bit is 1) and must
/// leave the winner in `lo`.
///
/// All three orders are one schedule: hierarchical search folds
/// `subtree_depth` levels depth-first inside each subtree before moving
/// up (Fig. 7c); BFS is the fold-1 case (Fig. 7a) and DFS the fold-`d`
/// case (Fig. 7b).
fn for_each_node(
    d: usize,
    order: TournamentOrder,
    mut node: impl FnMut(usize, usize, usize) -> Result<(), PirError>,
) -> Result<(), PirError> {
    /// Depth-first over the subtree rooted at `base` spanning levels
    /// `[lo, hi)`; its winner lands at `base`.
    fn dfs(
        base: usize,
        lo: usize,
        hi: usize,
        node: &mut dyn FnMut(usize, usize, usize) -> Result<(), PirError>,
    ) -> Result<(), PirError> {
        if hi == lo {
            return Ok(());
        }
        let half = 1usize << (hi - 1);
        dfs(base, lo, hi - 1, node)?;
        dfs(base + half, lo, hi - 1, node)?;
        node(hi - 1, base, base + half)
    }
    let fold = match order {
        TournamentOrder::Bfs => 1,
        TournamentOrder::Dfs => d.max(1),
        TournamentOrder::Hs { subtree_depth } => subtree_depth.max(1) as usize,
    };
    let mut lo = 0;
    while lo < d {
        let hi = (lo + fold).min(d);
        for group in 0..1usize << (d - hi) {
            dfs(group << hi, lo, hi, &mut node)?;
        }
        lo = hi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_he::{Plaintext, SecretKey};
    use rand::{Rng, SeedableRng};

    /// The tournament on the default backend with a fresh arena.
    fn tournament(
        he: &HeParams,
        entries: Vec<BfvCiphertext>,
        sel_bits: &[RgswCiphertext],
        order: TournamentOrder,
    ) -> Result<BfvCiphertext, PirError> {
        let backend = ive_math::kernel::default_backend();
        col_tor_with(he, entries, sel_bits, order, backend, &mut KernelArena::new())
    }

    fn setup(
        d: usize,
    ) -> (ive_he::HeParams, SecretKey, Vec<BfvCiphertext>, Vec<Plaintext>, rand::rngs::StdRng) {
        let he = ive_he::HeParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(d as u64 + 100);
        let sk = SecretKey::generate(&he, &mut rng);
        let mut cts = Vec::new();
        let mut msgs = Vec::new();
        for _ in 0..1 << d {
            let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
            let m = Plaintext::new(&he, vals).unwrap();
            cts.push(BfvCiphertext::encrypt(&he, &sk, &m, &mut rng));
            msgs.push(m);
        }
        (he, sk, cts, msgs, rng)
    }

    fn bits_of(row: usize, d: usize) -> Vec<bool> {
        (0..d).map(|t| (row >> t) & 1 == 1).collect()
    }

    #[test]
    fn tournament_selects_every_row_bfs() {
        let d = 3;
        let (he, sk, cts, msgs, mut rng) = setup(d);
        for (target, msg) in msgs.iter().enumerate() {
            let sels: Vec<RgswCiphertext> = bits_of(target, d)
                .iter()
                .map(|&b| RgswCiphertext::encrypt_bit(&he, &sk, b, &mut rng))
                .collect();
            let out = tournament(&he, cts.clone(), &sels, TournamentOrder::Bfs).unwrap();
            assert_eq!(out.decrypt(&he, &sk), *msg, "target {target}");
        }
    }

    #[test]
    fn orders_produce_identical_ciphertexts() {
        let d = 3;
        let (he, sk, cts, _msgs, mut rng) = setup(d);
        let target = 5;
        let sels: Vec<RgswCiphertext> = bits_of(target, d)
            .iter()
            .map(|&b| RgswCiphertext::encrypt_bit(&he, &sk, b, &mut rng))
            .collect();
        let bfs = tournament(&he, cts.clone(), &sels, TournamentOrder::Bfs).unwrap();
        let dfs = tournament(&he, cts.clone(), &sels, TournamentOrder::Dfs).unwrap();
        for depth in 1..=3 {
            let hs =
                tournament(&he, cts.clone(), &sels, TournamentOrder::Hs { subtree_depth: depth })
                    .unwrap();
            assert_eq!(bfs, hs, "HS depth {depth} diverged");
        }
        // HS reorders scheduling only; the arithmetic is identical (§IV-A:
        // "it does not introduce any additional error growth").
        assert_eq!(bfs, dfs);
    }

    #[test]
    fn single_entry_passthrough() {
        let (he, sk, cts, msgs, _) = setup(0);
        let out = tournament(&he, cts, &[], TournamentOrder::Dfs).unwrap();
        assert_eq!(out.decrypt(&he, &sk), msgs[0]);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let (he, _, mut cts, _, _) = setup(2);
        cts.pop();
        assert!(tournament(&he, cts, &[], TournamentOrder::Bfs).is_err());
    }

    #[test]
    fn missing_bits_rejected() {
        let (he, sk, cts, _, mut rng) = setup(2);
        let one_bit = vec![RgswCiphertext::encrypt_bit(&he, &sk, false, &mut rng)];
        assert!(matches!(
            tournament(&he, cts, &one_bit, TournamentOrder::Bfs),
            Err(PirError::MissingKeys { got: 1, need: 2 })
        ));
    }
}
