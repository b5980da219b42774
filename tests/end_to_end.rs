//! Workspace-level integration tests: the functional protocol stack at a
//! mid-sized geometry, cross-layer consistency between the functional
//! parameters and the performance-model geometry, and the full
//! client–server–accelerator story.

use ive::baselines::complexity::Geometry;
use ive::he::HeParams;
use ive::math::gadget::Gadget;
use ive::math::rns::RingContext;
use ive::pir::{Database, PirClient, PirParams, PirServer, TournamentOrder};
use rand::SeedableRng;

/// A mid-sized geometry: N = 1024, 3 residues, 256 records of 2KB.
fn mid_params() -> PirParams {
    let ring = RingContext::test_ring(1024, 3);
    let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
    let he = HeParams::new(ring, 16, gadget, gadget, 4).expect("valid parameters");
    PirParams::new(he, 16, 4).expect("valid geometry")
}

#[test]
fn mid_size_retrieval_round_trip() {
    let params = mid_params();
    assert_eq!(params.num_records(), 256);
    let records: Vec<Vec<u8>> = (0..params.num_records())
        .map(|i| {
            let mut r = format!("payload {i}").into_bytes();
            r.resize(64 + (i % 100), (i % 251) as u8);
            r
        })
        .collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(99)).expect("keygen");
    for target in [0usize, 1, 17, 100, 255] {
        let query = client.query(target).expect("in range");
        let response = server.answer(client.public_keys(), &query).expect("pipeline");
        let plain = client.decode(&query, &response).expect("decrypts");
        assert_eq!(&plain[..records[target].len()], &records[target][..], "record {target}");
    }
}

#[test]
fn responses_identical_across_schedules_mid_size() {
    let params = mid_params();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| vec![(i % 256) as u8; 32]).collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let mut server = PirServer::new(&params, db).expect("geometry matches");
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(7)).expect("keygen");
    let query = client.query(123).expect("in range");
    let mut outputs = Vec::new();
    for order in
        [TournamentOrder::Bfs, TournamentOrder::Dfs, TournamentOrder::Hs { subtree_depth: 2 }]
    {
        server.set_tournament_order(order);
        outputs.push(server.answer(client.public_keys(), &query).expect("pipeline"));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn functional_and_model_layers_agree_on_sizes() {
    // The performance model (Geometry) and the functional stack
    // (PirParams) must describe the same objects for Table I parameters.
    let pir = PirParams::paper_for_db_bytes(2 << 30).expect("paper geometry");
    let geom = Geometry::paper_for_db_bytes(2 << 30);
    assert_eq!(pir.he().ct_bytes() as u64, geom.ct_bytes());
    assert_eq!(pir.num_records() as u64, geom.num_records());
    assert_eq!(pir.d0(), geom.d0);
    assert_eq!(pir.dims(), geom.dims);
    assert_eq!(pir.preprocessed_db_bytes(), geom.preprocessed_db_bytes());
    assert_eq!(pir.record_bytes(), 16 * 1024);
    // Key-material sizes quoted in §II: evk 560KB, RGSW 1120KB (ℓ = 5).
    assert_eq!(geom.evk_bytes(), 560 * 1024);
    assert_eq!(geom.rgsw_bytes(), 1120 * 1024);
}

#[test]
fn query_is_fresh_per_request() {
    // Two queries for the same index must not be identical ciphertexts
    // (semantic security relies on fresh masks/noise).
    let params = PirParams::toy();
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(3)).expect("keygen");
    let q1 = client.query(5).expect("in range");
    let q2 = client.query(5).expect("in range");
    assert_ne!(q1.packed(), q2.packed());
}

#[test]
fn wrong_client_keys_do_not_decrypt() {
    // A response answered under client A's keys must be garbage for
    // client B (sanity check of key separation, not a security proof).
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("r{i:04}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut alice =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(1)).expect("keygen");
    let bob = PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(2)).expect("keygen");
    let query = alice.query(9).expect("in range");
    let response = server.answer(alice.public_keys(), &query).expect("pipeline");
    let alice_plain = alice.decode(&query, &response).expect("decrypts");
    assert_eq!(&alice_plain[..5], &records[9][..5]);
    let bob_plain = bob.decode(&query, &response).expect("decrypts to noise");
    assert_ne!(&bob_plain[..5], &records[9][..5]);
}
