//! End-to-end retrieval at the *paper's* HE parameters (Table I:
//! `N = 2^12`, the four Solinas primes, `P = 2^32`) over a 16MB database
//! slice — the full-width cryptography, not the toy ring.

use ive::he::modswitch::switch_to_first_prime;
use ive::he::noise;
use ive::he::HeParams;
use ive::pir::db::plaintext_from_bytes;
use ive::pir::{Database, PirClient, PirParams, PirServer};
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
        // decryption bound, on a full random one ≈ 6.6 (see
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

/// The same slice with every record full of random bytes, the case the
/// RowSel term is largest in: every target decodes, and the worst budget
/// keeps a margin (measured 6.65 bits with RGSW bits at `z = 2^22, ℓ = 5`, as at
/// `z = 2^14, ℓ = 8`). A 16MB build: release only.
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
    let mut worst = f64::INFINITY;
    for target in [0usize, 257, 700, 1023] {
        let query = client.query(target).expect("in range");
        let response = server.answer(client.public_keys(), &query).expect("pipeline");
        let plain = client.decode(&query, &response).expect("decrypts");
        assert_eq!(plain, records[target], "record {target}");
        let expect = plaintext_from_bytes(params.he(), &records[target]).expect("packs");
        let budget = noise::noise_budget_bits(params.he(), client.secret_key(), &response, &expect);
        worst = worst.min(budget);
    }
    println!("full random database: worst noise budget {worst:.2} bits");
    assert!(worst > 4.0, "noise budget {worst:.1} bits on a full database");
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
