//! End-to-end retrieval at the *paper's* HE parameters (Table I:
//! `N = 2^12`, the four Solinas primes, `P = 2^32`) over a 16MB database
//! slice — the full-width cryptography, not the toy ring.

use ive::he::modswitch::switch_to_first_prime;
use ive::he::noise;
use ive::he::{BfvCiphertext, HeParams, SubsKey};
use ive::math::rns::{Form, RnsPoly};
use ive::pir::db::plaintext_from_bytes;
use ive::pir::{Database, PirClient, PirParams, PirQuery, PirServer, QueryScratch};
use rand::{Rng, SeedableRng};

/// Table I HE parameters over a reduced record count (D0 = 256, d = 2:
/// 1024 records × 16KB = 16MB) so the test runs in seconds.
fn paper_slice_params() -> PirParams {
    PirParams::new(HeParams::paper(), 256, 2).expect("valid geometry")
}

#[test]
fn paper_parameters_end_to_end() {
    let params = paper_slice_params();
    assert_eq!(params.record_bytes(), 16 * 1024);
    assert_eq!(params.num_records(), 1024);

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20260609);
    // A few distinctive records; the rest default to zero.
    let mut records = vec![Vec::new(); params.num_records()];
    let targets = [0usize, 257, 1023];
    for &t in &targets {
        let mut payload = format!("table-one record {t}").into_bytes();
        payload.resize(4096, (t % 251) as u8);
        records[t] = payload;
    }
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client = PirClient::new(&params, &mut rng).expect("keygen");

    for &target in &targets {
        let query = client.query(target).expect("in range");
        let response = server.answer(client.public_keys(), &query).expect("pipeline");
        let plain = client.decode(&query, &response).expect("decrypts");
        assert_eq!(&plain[..records[target].len()], &records[target][..], "record {target}");

        // The §II-C error analysis at full parameters: the response must
        // retain a healthy noise budget (Δ ≈ 2^77 dwarfs the error).
        let expect = plaintext_from_bytes(params.he(), &records[target]).expect("packs");
        let budget = noise::noise_budget_bits(params.he(), client.secret_key(), &response, &expect);
        // The RowSel term (D0·N·P-scaled) dominates exactly as §II-C
        // predicts, and it scales with the records: on this mostly-zero
        // database ~15 bits of slack are left against the Δ/2 ≈ 2^76
        // decryption bound, on a full random one ≈ 7.4 (see
        // `paper_parameters_full_database_noise`).
        assert!(budget > 8.0, "noise budget {budget:.1} bits at full parameters");

        // Compressed (modulus-switched) responses decode identically and
        // are 2x smaller at Table I parameters (P = 2^32 retains two of
        // the four primes: 112KB -> 56KB).
        let compressed = switch_to_first_prime(params.he(), &response).expect("switches");
        assert_eq!(compressed.byte_len(params.he()) * 2, params.he().ct_bytes());
        let plain2 = client.decode_compressed(&query, &compressed).expect("decrypts");
        assert_eq!(&plain2[..records[target].len()], &records[target][..]);
    }
}

/// `ExpandQuery` as the paper's server runs it, from public primitives:
/// all `levels` of the tree, the last one included — per level, `Subs`
/// every ciphertext, keep `ct + Subs(ct)` in place and put
/// `(ct − Subs(ct))·X^{-2^j}` `2^j` slots on.
fn full_tree(he: &HeParams, query: &BfvCiphertext, keys: &[SubsKey]) -> Vec<BfvCiphertext> {
    let mut slots = vec![query.clone()];
    for (j, key) in keys.iter().enumerate() {
        // NTT(X^{-2^j}) = NTT(−X^{N − 2^j}).
        let mut x_inv = RnsPoly::zero(he.ring(), Form::Coeff);
        for (m, modulus) in he.ring().basis().moduli().iter().enumerate() {
            x_inv.residue_mut(m)[he.n() - (1 << j)] = modulus.value() - 1;
        }
        x_inv.to_ntt();
        let mut children = Vec::with_capacity(slots.len());
        for ct in &mut slots {
            let subbed = key.apply(he, ct).expect("key of this ring");
            let mut odd = ct.clone();
            odd.sub_assign(&subbed).expect("same ring");
            odd.mul_plain_assign(&x_inv).expect("NTT form");
            ct.add_assign(&subbed).expect("same ring");
            children.push(odd);
        }
        slots.append(&mut children);
    }
    slots
}

/// The response of the unfolded pipeline — [`full_tree`], then
/// `Σ_i D_i ⊙ leaf_i` per row over the lifted records, then the server's
/// own `ColTor` — the reference the folded last level is held to.
fn full_tree_response(
    params: &PirParams,
    server: &PirServer,
    client: &PirClient<impl Rng>,
    query: &PirQuery,
    lifted: &[RnsPoly],
) -> BfvCiphertext {
    let he = params.he();
    let keys = &client.public_keys().subs_keys()[..params.log_d0() as usize];
    let leaves = full_tree(he, query.packed(), keys);
    let rows = lifted
        .chunks_exact(params.d0())
        .map(|row| {
            let mut acc = BfvCiphertext::zero(he);
            for (record, leaf) in row.iter().zip(&leaves) {
                let mut term = leaf.clone();
                term.mul_plain_assign(record).expect("NTT form");
                acc.add_assign(&term).expect("same ring");
            }
            acc
        })
        .collect();
    server.col_tor_step_with(rows, query, &mut QueryScratch::new()).expect("bits ok")
}

/// The same slice with every record full of random bytes, the case the
/// RowSel term is largest in: every target decodes, and the worst budget
/// keeps a margin — measured 7.40 bits with `ExpandQuery`'s last level
/// folded into `RowSel`, where the full tree (`full_tree_response`, the
/// pipeline before the fold) leaves 6.65 on the same slice and queries:
/// the fold drops the `D0/2` key-switch noise terms the last level
/// multiplied into the records for one per row. The fold may only ever
/// keep at least the full tree's budget. A 16MB build: release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "16MB Table I database; run with --release")]
fn paper_parameters_full_database_noise() {
    let params = paper_slice_params();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20260609);
    let records: Vec<Vec<u8>> = (0..params.num_records())
        .map(|_| (0..params.record_bytes()).map(|_| rng.gen()).collect())
        .collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client = PirClient::new(&params, &mut rng).expect("keygen");
    let lifted: Vec<RnsPoly> = records
        .iter()
        .map(|r| plaintext_from_bytes(params.he(), r).expect("packs").to_ntt_poly(params.he()))
        .collect();
    let (mut worst, mut worst_full_tree) = (f64::INFINITY, f64::INFINITY);
    for target in [0usize, 257, 700, 1023] {
        let query = client.query(target).expect("in range");
        let response = server.answer(client.public_keys(), &query).expect("pipeline");
        let plain = client.decode(&query, &response).expect("decrypts");
        assert_eq!(plain, records[target], "record {target}");
        let expect = plaintext_from_bytes(params.he(), &records[target]).expect("packs");
        let budget = |ct: &BfvCiphertext| {
            noise::noise_budget_bits(params.he(), client.secret_key(), ct, &expect)
        };
        worst = worst.min(budget(&response));
        let reference = full_tree_response(&params, &server, &client, &query, &lifted);
        assert_eq!(client.decode(&query, &reference).expect("decrypts"), records[target]);
        worst_full_tree = worst_full_tree.min(budget(&reference));
    }
    println!(
        "full random database: worst noise budget {worst:.2} bits \
         (full tree {worst_full_tree:.2})"
    );
    assert!(worst > 4.0, "noise budget {worst:.1} bits on a full database");
    assert!(
        worst >= worst_full_tree,
        "folding the last level lost budget: {worst:.2} bits against the full tree's \
         {worst_full_tree:.2}"
    );
}

#[test]
fn paper_parameters_query_sizes_match_section_vi() {
    // §VI-C: "each query transfers only a few MBs of client-specific
    // data" — check the actual object sizes at Table I parameters.
    let params = paper_slice_params();
    let he = params.he();
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(1)).expect("keygen");
    let query = client.query(3).expect("in range");
    let mb = (1 << 20) as f64;
    let query_mb = query.byte_len(he) as f64 / mb;
    assert!(query_mb < 8.0, "query is {query_mb:.1}MB");
    // One-time key registration: log2(D0) evks.
    let keys_mb = client.public_keys().byte_len(he) as f64 / mb;
    assert!(keys_mb < 16.0, "keys are {keys_mb:.1}MB");
}
