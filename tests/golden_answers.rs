//! Golden digests of server responses, computed at the commit *before*
//! the lazy-reduction / in-place-expansion refactor of the answer path
//! (PR 12) and pinned here: every later implementation must reproduce
//! the old one's wire bytes exactly, without the old code staying alive
//! as a reference. All arithmetic in the pipeline is exact mod `q`, so a
//! digest moves only if a result changed — never because reductions
//! were reordered.
//!
//! The KsPIR digest is the exception: it was re-pinned when
//! `KsPirServer::answer` moved its trace after the tournament (PR 16),
//! which changes the response ciphertext, not the plaintext. The
//! flat-words rewrite under that move reproduced the pre-refactor digest
//! (`0x6088_2e16_c889_9242`) first, with the old order.
//!
//! All six digests were re-pinned once more, at wire v3, because the
//! client's randomness moved, not the server's arithmetic: every mask now
//! comes from the query's or key set's own seeded stream (drawn from the
//! ChaCha8 client rng) and RGSW rows carry their gadget term on the body,
//! so the same seed builds different queries and keys. Every response
//! frame also carries the version byte. The server files were untouched
//! by that change.
//!
//! The paper-ring digest was re-pinned alone (`0x0dc4_22df_9f8f_0b45` →
//! `0xc5ea_417c_21bd_9614`) when `HeParams::paper` moved its RGSW bits
//! to the `z = 2^22, ℓ = 5` gadget: the query carries five digit rows a
//! bit instead of eight, so ColTor's products and the response
//! ciphertext change; the record still decodes. The toy ring's gadgets
//! did not move, nor did its digests.
//!
//! The two `folded_*` digests pin geometries with fewer rows than
//! `D0/2`, where the server folds `ExpandQuery`'s last level into
//! `RowSel` (the database stores each record pair as `(A_p, B'_p)` and
//! every row finishes with one `Subs`); they were pinned when that fold
//! landed. The geometries above keep the whole tree, and their digests
//! did not move.
//!
//! Inputs are fully seeded (ChaCha8 clients, formula records); the
//! digest is 64-bit FNV-1a over the `wire::encode_response` frame, pinned
//! at wire v3.

use ive::he::HeParams;
use ive::pir::kspir::{KsPirClient, KsPirParams, KsPirServer};
use ive::pir::{wire, Database, PirClient, PirParams, PirServer, QueryScratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn records(params: &PirParams) -> Vec<Vec<u8>> {
    (0..params.num_records())
        .map(|i| {
            (0..params.record_bytes()).map(|j| (i * 131 + j * 7 + (i * j) % 251) as u8).collect()
        })
        .collect()
}

fn server(params: &PirParams) -> PirServer {
    let db = Database::from_records(params, &records(params)).expect("records fit");
    let mut server = PirServer::new(params, db).expect("geometry matches");
    server.set_rowsel_threads(1);
    server
}

fn answer_digest(params: &PirParams, seed: u64, index: usize) -> u64 {
    let server = server(params);
    let mut client = PirClient::new(params, ChaCha8Rng::seed_from_u64(seed)).expect("keygen");
    let query = client.query(index).expect("in range");
    let response = server
        .answer_with(client.public_keys(), &query, &mut QueryScratch::new())
        .expect("pipeline");
    let plain = client.decode(&query, &response).expect("decrypts");
    assert_eq!(plain[..], records(params)[index][..], "golden input no longer decodes");
    fnv1a(&wire::encode_response(&response))
}

#[test]
fn toy_answer_matches_pre_refactor_bytes() {
    assert_eq!(answer_digest(&PirParams::toy(), 12, 37), 0xa433_51f0_ba7b_e08a);
}

#[test]
fn paper_ring_answer_matches_pre_refactor_bytes() {
    let params = PirParams::new(HeParams::paper(), 8, 2).expect("valid geometry");
    assert_eq!(answer_digest(&params, 12, 21), 0xc5ea_417c_21bd_9614);
}

#[test]
fn folded_toy_answer_matches_pinned_bytes() {
    // 4 rows < D0/2 = 8; record 45 is the upper member of its pair.
    let params = PirParams::new(HeParams::toy(), 16, 2).expect("valid geometry");
    assert_eq!(answer_digest(&params, 12, 45), 0xf9d4_883a_b76f_14ca);
}

#[test]
fn folded_paper_ring_answer_matches_pinned_bytes() {
    // 2 rows < D0/2 = 4.
    let params = PirParams::new(HeParams::paper(), 8, 1).expect("valid geometry");
    assert_eq!(answer_digest(&params, 12, 13), 0x6b1b_1a23_72f6_73a0);
}

#[test]
fn batched_answers_match_pre_refactor_bytes() {
    let params = PirParams::toy();
    let server = server(&params);
    let mut clients: Vec<_> = (0..3)
        .map(|c| PirClient::new(&params, ChaCha8Rng::seed_from_u64(120 + c)).expect("keygen"))
        .collect();
    let queries: Vec<_> = clients
        .iter_mut()
        .zip([5usize, 41, 63])
        .map(|(c, i)| c.query(i).expect("in range"))
        .collect();
    let requests: Vec<_> =
        clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
    let responses =
        server.answer_batch_with(&requests, &mut QueryScratch::new()).expect("pipeline");
    let digests: Vec<u64> = responses.iter().map(|r| fnv1a(&wire::encode_response(r))).collect();
    assert_eq!(digests, [0x025e_dbb4_59a4_89fe, 0xaa78_dff3_5d91_7c0b, 0xfdcb_bf3c_c5b6_ac5c]);
}

#[test]
fn kspir_answer_matches_trace_after_tournament_bytes() {
    let params = KsPirParams::toy();
    let scalars: Vec<u64> =
        (0..params.num_scalars() as u64).map(|i| (i * 2_654_435_761) % params.he().p()).collect();
    let server = KsPirServer::new(params.clone(), &scalars).expect("scalars fit");
    let mut client = KsPirClient::new(&params, ChaCha8Rng::seed_from_u64(12)).expect("keygen");
    let query = client.query(777).expect("in range");
    let response = server.answer(client.public_keys(), &query).expect("pipeline");
    assert_eq!(client.decode(&response).expect("decrypts"), scalars[777]);
    assert_eq!(fnv1a(&wire::encode_response(&response)), 0x1d4b_9c11_ec79_8642);
}
