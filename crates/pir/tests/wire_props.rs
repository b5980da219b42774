//! Property-based coverage for every wire frame: canonical round-trips
//! plus truncation / bad-magic / wrong-tag / wrong-version fuzzing.
//!
//! The round-trip properties pin the *canonical encoding* invariant the
//! serving runtime relies on: `encode(decode(bytes)) == bytes` for every
//! frame a decoder accepts, so a server can cache, re-frame, and forward
//! material without semantic drift.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

use ive_he::{BfvCiphertext, Plaintext, RgswCiphertext, SecretKey};
use ive_math::mask::MaskStream;
use ive_math::rns::{Form, RnsPoly};
use ive_pir::kspir::{KsPirClient, KsPirParams};
use ive_pir::wire;
use ive_pir::{KvSchema, PirClient, PirParams};

/// Shared fixtures, built once: toy parameters, a client, and one encoded
/// instance of each frame type.
struct Fixture {
    params: PirParams,
    sk: SecretKey,
    query_bytes: Bytes,
    keys_bytes: Bytes,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let params = PirParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x317E_57A7E);
        let sk = SecretKey::generate(params.he(), &mut rng);
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(99))
            .expect("toy keygen succeeds");
        let query = client.query(3).expect("in range");
        Fixture {
            query_bytes: wire::encode_query(&query),
            keys_bytes: wire::encode_client_keys(client.public_keys()),
            params,
            sk,
        }
    })
}

/// Keyword-side fixtures: toy `KsPirParams`, a registered client, and one
/// encoded instance of each keyword frame.
struct KsFixture {
    params: KsPirParams,
    hello_bytes: Bytes,
    query_bytes: Bytes,
    response_bytes: Bytes,
    compressed_bytes: Bytes,
    kv_update_bytes: Bytes,
}

fn ks_fixture() -> &'static KsFixture {
    static FIX: OnceLock<KsFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let params = KsPirParams::toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_CAFE);
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(11))
            .expect("toy keygen succeeds");
        let query = client.query(5).expect("in range");
        let he = params.he();
        let sk = SecretKey::generate(he, &mut rng);
        let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
        let ct =
            BfvCiphertext::encrypt(he, &sk, &Plaintext::new(he, vals).expect("below P"), &mut rng);
        let switched = ive_he::modswitch::switch_to_first_prime(he, &ct).expect("switches");
        KsFixture {
            hello_bytes: wire::encode_ks_hello(client.public_keys()),
            query_bytes: wire::encode_ks_query(3, 4, &query),
            response_bytes: wire::encode_ks_response(4, &ct),
            compressed_bytes: wire::encode_compressed_response(4, &switched),
            kv_update_bytes: wire::encode_kv_update(9, b"fixture-key", Some(77)).expect("valid"),
            params,
        }
    })
}

fn random_poly(rng: &mut rand::rngs::StdRng, form: Form) -> RnsPoly {
    let fix = fixture();
    RnsPoly::sample_uniform(fix.params.he().ring(), form, rng)
}

/// A seed-derived batch of valid row deltas (puts with random payloads
/// up to the record capacity, deletes, in-range indices).
fn random_updates(params: &PirParams, seed: u64) -> Vec<ive_pir::RecordUpdate> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let count = rng.gen_range(0..8usize);
    (0..count)
        .map(|_| {
            let index = rng.gen_range(0..params.num_records());
            if rng.gen_bool(0.7) {
                let len = rng.gen_range(0..=params.record_bytes().min(48));
                ive_pir::RecordUpdate::put(index, (0..len).map(|_| rng.gen()).collect())
            } else {
                ive_pir::RecordUpdate::delete(index)
            }
        })
        .collect()
}

/// A seed-derived arbitrary-but-valid [`wire::StatsReport`]: any counter
/// values, histogram lengths up to the wire caps.
fn random_stats_report(seed: u64) -> wire::StatsReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let latency_buckets = {
        let len = rng.gen_range(0..=wire::MAX_STATS_BUCKETS);
        (0..len).map(|_| rng.gen()).collect()
    };
    let stages = {
        let count = rng.gen_range(0..=wire::MAX_STATS_STAGES);
        (0..count)
            .map(|_| {
                let bucket_len = rng.gen_range(0..=wire::MAX_STATS_BUCKETS);
                wire::StageReport {
                    count: rng.gen(),
                    sum_us: rng.gen(),
                    max_us: rng.gen(),
                    buckets: (0..bucket_len).map(|_| rng.gen()).collect(),
                }
            })
            .collect()
    };
    wire::StatsReport {
        queries: rng.gen(),
        errors: rng.gen(),
        batches: rng.gen(),
        batch_query_sum: rng.gen(),
        batches_multi: rng.gen(),
        max_batch: rng.gen(),
        queue_depth: rng.gen(),
        queue_depth_max: rng.gen(),
        update_batches: rng.gen(),
        updates_applied: rng.gen(),
        epoch: rng.gen(),
        uptime_us: rng.gen(),
        latency_sum_us: rng.gen(),
        latency_max_us: rng.gen(),
        latency_buckets,
        stages,
        residue_ntts: rng.gen(),
        pointwise_macs: rng.gen(),
        icrt_coeffs: rng.gen(),
        auto_coeffs: rng.gen(),
        scan_bytes: rng.gen(),
        scan_ns: rng.gen(),
        slow_queries: rng.gen(),
        busy_rejections: rng.gen(),
        session_evictions: rng.gen(),
        timeouts: rng.gen(),
        retries: rng.gen(),
        reconnects: rng.gen(),
        worker_panics: rng.gen(),
        drained_jobs: rng.gen(),
    }
}

fn random_bfv(rng: &mut rand::rngs::StdRng) -> BfvCiphertext {
    let fix = fixture();
    let he = fix.params.he();
    let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
    let m = Plaintext::new(he, vals).expect("below P");
    BfvCiphertext::encrypt(he, &fix.sk, &m, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn poly_roundtrip_is_canonical(seed in any::<u64>(), ntt in any::<bool>()) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let poly = random_poly(&mut rng, if ntt { Form::Ntt } else { Form::Coeff });
        let mut buf = BytesMut::new();
        wire::write_poly(&mut buf, &poly);
        let bytes = buf.freeze();
        let mut cursor = bytes.clone();
        let back = wire::read_poly(fix.params.he(), &mut cursor).expect("own encoding decodes");
        prop_assert_eq!(&back, &poly);
        let mut again = BytesMut::new();
        wire::write_poly(&mut again, &back);
        prop_assert_eq!(&again.freeze()[..], &bytes[..], "encoding not canonical");
    }

    /// The bulk residue codec writes what one `put_u32` per word wrote:
    /// the header, then every residue as a big-endian 4-byte word, limb
    /// after limb.
    #[test]
    fn bulk_codec_matches_the_per_word_reference(seed in any::<u64>(), ntt in any::<bool>()) {
        use bytes::BufMut;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let poly = random_poly(&mut rng, if ntt { Form::Ntt } else { Form::Coeff });
        let mut got = BytesMut::new();
        wire::write_poly(&mut got, &poly);
        let mut want = BytesMut::new();
        want.put_u32(0x4956_4531); // "IVE1"
        want.put_u8(wire::VERSION);
        want.put_u8(wire::Tag::Poly as u8);
        want.put_u8(u8::from(ntt));
        want.put_u16(poly.ctx().basis().len() as u16);
        want.put_u32(poly.ctx().n() as u32);
        for &w in poly.as_words() {
            want.put_u32(w as u32);
        }
        prop_assert_eq!(&got[..], &want[..]);
    }

    #[test]
    fn bfv_and_response_roundtrip(seed in any::<u64>()) {
        let fix = fixture();
        let he = fix.params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = random_bfv(&mut rng);
        let bytes = wire::encode_response(&ct);
        let back = wire::decode_response(he, &bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &ct);
        prop_assert_eq!(&wire::encode_response(&back)[..], &bytes[..]);
    }

    #[test]
    fn rgsw_roundtrip(seed in any::<u64>(), bit in any::<bool>()) {
        // Only the bodies travel: the same stream regenerates the masks,
        // so the whole ciphertext comes back.
        let fix = fixture();
        let he = fix.params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mask_seed: [u8; 32] = std::array::from_fn(|_| rng.gen());
        let ct = RgswCiphertext::encrypt_bit_seeded(
            he, &fix.sk, bit, &mut MaskStream::new(mask_seed), &mut rng,
        );
        let mut buf = BytesMut::new();
        wire::write_rgsw(&mut buf, &ct);
        let bytes = buf.freeze();
        let mut cursor = bytes.clone();
        let back = wire::read_rgsw(he, &mut MaskStream::new(mask_seed), &mut cursor)
            .expect("own encoding decodes");
        prop_assert_eq!(&back, &ct);
        let mut again = BytesMut::new();
        wire::write_rgsw(&mut again, &back);
        prop_assert_eq!(&again.freeze()[..], &bytes[..], "encoding not canonical");
    }

    #[test]
    fn session_frame_ids_roundtrip(session in any::<u64>(), request in any::<u64>()) {
        let fix = fixture();
        let he = fix.params.he();
        let query = wire::decode_query(he, &fix.query_bytes).expect("fixture decodes");
        let sq = wire::encode_session_query(session, request, &query);
        let (s, r, q) = wire::decode_session_query(he, &sq).expect("own encoding decodes");
        prop_assert_eq!((s, r), (session, request));
        prop_assert_eq!(&wire::encode_session_query(s, r, &q)[..], &sq[..]);

        let welcome = wire::encode_welcome(session);
        prop_assert_eq!(wire::decode_welcome(&welcome).expect("decodes"), session);
    }

    #[test]
    fn error_frame_roundtrip(request in any::<u64>(), raw in collection::vec(any::<u8>(), 0..64)) {
        let message: String = raw.iter().map(|&b| char::from(b'a' + b % 26)).collect();
        let frame = wire::encode_error_frame(request, &message);
        let (r, m) = wire::decode_error_frame(&frame).expect("own encoding decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(m, message);
    }

    #[test]
    fn update_row_roundtrip_is_canonical(request in any::<u64>(), seed in any::<u64>()) {
        let fix = fixture();
        let params = &fix.params;
        let updates = random_updates(params, seed);
        let frame = wire::encode_update_rows(request, &updates).expect("within cap");
        let (r, back) = wire::decode_update_rows(params, &frame).expect("own encoding decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(&back, &updates);
        let again = wire::encode_update_rows(r, &back).expect("within cap");
        prop_assert_eq!(&again[..], &frame[..], "encoding not canonical");
    }

    #[test]
    fn update_ack_roundtrip(request in any::<u64>(), epoch in any::<u64>(), applied in any::<u32>()) {
        let ack = wire::encode_update_ack(request, epoch, applied);
        prop_assert_eq!(wire::decode_update_ack(&ack).expect("decodes"), (request, epoch, applied));
    }

    #[test]
    fn hello_and_client_keys_roundtrip_is_canonical(_tick in any::<bool>()) {
        // An `evk` is held packed for the key-switch, not as the
        // polynomials the frame carries: decode∘encode must still be the
        // identity on both key-upload frames.
        let fix = fixture();
        let he = fix.params.he();
        let keys = wire::decode_client_keys(he, &fix.keys_bytes).expect("own encoding decodes");
        prop_assert_eq!(&wire::encode_client_keys(&keys)[..], &fix.keys_bytes[..],
            "encoding not canonical");
        let hello = wire::encode_hello(&keys);
        let back = wire::decode_hello(he, &hello).expect("own encoding decodes");
        prop_assert_eq!(&wire::encode_hello(&back)[..], &hello[..], "encoding not canonical");
    }

    #[test]
    fn ks_hello_roundtrip_is_canonical(_tick in any::<bool>()) {
        let fix = ks_fixture();
        let keys = wire::decode_ks_hello(fix.params.he(), &fix.hello_bytes)
            .expect("own encoding decodes");
        prop_assert_eq!(&wire::encode_ks_hello(&keys)[..], &fix.hello_bytes[..],
            "encoding not canonical");
    }

    #[test]
    fn ks_welcome_roundtrip(session in any::<u64>(), seed in any::<u64>()) {
        let fix = ks_fixture();
        let schema = KvSchema::new(fix.params.clone(), seed).expect("any seed lays out");
        let frame = wire::encode_ks_welcome(session, &schema);
        let (s, back) = wire::decode_ks_welcome(&fix.params, &frame).expect("decodes");
        prop_assert_eq!(s, session);
        prop_assert_eq!(back.seed(), seed);
        prop_assert_eq!(back.buckets(), schema.buckets());
        prop_assert_eq!(&wire::encode_ks_welcome(s, &back)[..], &frame[..]);
    }

    #[test]
    fn ks_query_frame_ids_roundtrip(session in any::<u64>(), request in any::<u64>()) {
        let fix = ks_fixture();
        let (_, _, query) =
            wire::decode_ks_query(&fix.params, &fix.query_bytes).expect("fixture decodes");
        let frame = wire::encode_ks_query(session, request, &query);
        let (s, r, q) = wire::decode_ks_query(&fix.params, &frame).expect("own encoding decodes");
        prop_assert_eq!((s, r), (session, request));
        prop_assert_eq!(&wire::encode_ks_query(s, r, &q)[..], &frame[..], "not canonical");
    }

    #[test]
    fn ks_and_compressed_response_roundtrip(request in any::<u64>(), seed in any::<u64>()) {
        let fix = ks_fixture();
        let he = fix.params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(he, &mut rng);
        let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
        let ct = BfvCiphertext::encrypt(he, &sk, &Plaintext::new(he, vals).expect("below P"), &mut rng);
        let frame = wire::encode_ks_response(request, &ct);
        let (r, back) = wire::decode_ks_response(he, &frame).expect("own encoding decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(&back, &ct);
        prop_assert_eq!(&wire::encode_ks_response(r, &back)[..], &frame[..]);

        let switched = ive_he::modswitch::switch_to_first_prime(he, &ct).expect("switches");
        let frame = wire::encode_compressed_response(request, &switched);
        prop_assert!(frame.len() < wire::encode_ks_response(request, &ct).len(),
            "compression must shrink the frame");
        let (r, back) = wire::decode_compressed_response(he, &frame).expect("decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(back.primes, switched.primes);
        prop_assert_eq!(&back.a, &switched.a);
        prop_assert_eq!(&back.b, &switched.b);
        prop_assert_eq!(&wire::encode_compressed_response(r, &back)[..], &frame[..]);
    }

    #[test]
    fn stats_frames_roundtrip_is_canonical(
        request in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let report = random_stats_report(seed);
        let get = wire::encode_get_stats(request);
        prop_assert_eq!(wire::decode_get_stats(&get).expect("own encoding decodes"), request);
        prop_assert_eq!(&wire::encode_get_stats(request)[..], &get[..]);

        let frame = wire::encode_stats_response(request, &report).expect("within caps");
        let (r, back) = wire::decode_stats_response(&frame).expect("own encoding decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(&back, &report);
        let again = wire::encode_stats_response(r, &back).expect("within caps");
        prop_assert_eq!(&again[..], &frame[..], "encoding not canonical");
    }

    #[test]
    fn kv_update_roundtrip_and_key_caps(
        request in any::<u64>(),
        raw in collection::vec(any::<u8>(), 1..64),
        is_put in any::<bool>(),
        put_value in any::<u64>(),
    ) {
        let value = is_put.then_some(put_value);
        let frame = wire::encode_kv_update(request, &raw, value).expect("valid key");
        let (r, key, v) = wire::decode_kv_update(&frame).expect("own encoding decodes");
        prop_assert_eq!(r, request);
        prop_assert_eq!(&key[..], &raw[..]);
        prop_assert_eq!(v, value);
        prop_assert_eq!(&wire::encode_kv_update(r, &key, v).expect("valid")[..], &frame[..]);
        // Key bounds are enforced at encode time too, not just decode.
        prop_assert!(wire::encode_kv_update(request, b"", value).is_err());
        prop_assert!(
            wire::encode_kv_update(request, &vec![0u8; wire::MAX_KV_KEY_BYTES + 1], value).is_err()
        );
    }
}

/// Whether `result` is the typed wire error a truncated frame must get.
fn is_wire_err<T>(result: Result<T, ive_pir::PirError>) -> bool {
    matches!(result, Err(ive_pir::PirError::Wire(_)))
}

/// A decoder reduced to "did these bytes get the typed wire error".
type RefusesAsWireErr = Box<dyn Fn(&Bytes) -> bool + Send + Sync>;

/// One valid frame per tag, each with the decoder that accepts it, built
/// once. The nested objects (`Poly`, `Bfv`, `Rgsw`) go through their
/// `read_*`.
fn frame_per_tag() -> &'static [(Bytes, RefusesAsWireErr)] {
    static FRAMES: OnceLock<Vec<(Bytes, RefusesAsWireErr)>> = OnceLock::new();
    FRAMES.get_or_init(build_frame_per_tag)
}

fn build_frame_per_tag() -> Vec<(Bytes, RefusesAsWireErr)> {
    let fix = fixture();
    let ks = ks_fixture();
    let (params, he) = (&fix.params, fix.params.he());
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let ct = random_bfv(&mut rng);
    let query = wire::decode_query(he, &fix.query_bytes).expect("fixture decodes");
    let keys = wire::decode_client_keys(he, &fix.keys_bytes).expect("fixture decodes");
    let nested = |write: &dyn Fn(&mut BytesMut)| {
        let mut buf = BytesMut::new();
        write(&mut buf);
        buf.freeze()
    };
    let updates = random_updates(params, 5);
    let schema = KvSchema::new(ks.params.clone(), 7).expect("lays out");
    let report = random_stats_report(3);
    let ks_he = ks.params.he();
    vec![
        (
            nested(&|b| wire::write_poly(b, &ct.a)),
            Box::new(move |f| is_wire_err(wire::read_poly(he, &mut f.clone()))),
        ),
        (
            nested(&|b| wire::write_bfv(b, &ct)),
            Box::new(move |f| is_wire_err(wire::read_bfv(he, &mut f.clone()))),
        ),
        (
            nested(&|b| wire::write_rgsw(b, &query.row_bits()[0])),
            Box::new(move |f| {
                is_wire_err(wire::read_rgsw(he, &mut MaskStream::new([0; 32]), &mut f.clone()))
            }),
        ),
        (fix.query_bytes.clone(), Box::new(move |f| is_wire_err(wire::decode_query(he, f)))),
        (wire::encode_response(&ct), Box::new(move |f| is_wire_err(wire::decode_response(he, f)))),
        (fix.keys_bytes.clone(), Box::new(move |f| is_wire_err(wire::decode_client_keys(he, f)))),
        (wire::encode_hello(&keys), Box::new(move |f| is_wire_err(wire::decode_hello(he, f)))),
        (wire::encode_welcome(5), Box::new(|f| is_wire_err(wire::decode_welcome(f)))),
        (
            wire::encode_session_query(5, 6, &query),
            Box::new(move |f| is_wire_err(wire::decode_session_query(he, f))),
        ),
        (
            wire::encode_session_response(6, &ct),
            Box::new(move |f| is_wire_err(wire::decode_session_response(he, f))),
        ),
        (
            wire::encode_error_frame(6, "nope"),
            Box::new(|f| is_wire_err(wire::decode_error_frame(f))),
        ),
        (
            wire::encode_update_rows(7, &updates).expect("within cap"),
            Box::new(move |f| is_wire_err(wire::decode_update_rows(params, f))),
        ),
        (wire::encode_update_ack(7, 1, 1), Box::new(|f| is_wire_err(wire::decode_update_ack(f)))),
        (ks.hello_bytes.clone(), Box::new(move |f| is_wire_err(wire::decode_ks_hello(ks_he, f)))),
        (
            wire::encode_ks_welcome(1, &schema),
            Box::new(move |f| is_wire_err(wire::decode_ks_welcome(&ks.params, f))),
        ),
        (
            ks.query_bytes.clone(),
            Box::new(move |f| is_wire_err(wire::decode_ks_query(&ks.params, f))),
        ),
        (
            ks.response_bytes.clone(),
            Box::new(move |f| is_wire_err(wire::decode_ks_response(ks_he, f))),
        ),
        (
            ks.compressed_bytes.clone(),
            Box::new(move |f| is_wire_err(wire::decode_compressed_response(ks_he, f))),
        ),
        (ks.kv_update_bytes.clone(), Box::new(|f| is_wire_err(wire::decode_kv_update(f)))),
        (wire::encode_get_stats(8), Box::new(|f| is_wire_err(wire::decode_get_stats(f)))),
        (
            wire::encode_stats_response(8, &report).expect("within caps"),
            Box::new(|f| is_wire_err(wire::decode_stats_response(f))),
        ),
    ]
}

proptest! {
    // Fuzz cases are cheap (no crypto), so run more of them.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_strict_prefix_of_every_frame_is_a_typed_wire_error(cut_permille in 0u32..1000) {
        // The checked reader makes this one property of one type; the
        // list covers all 21 tags so no decoder escapes it.
        let frames = frame_per_tag();
        let tags: Vec<wire::Tag> = (0..=u8::MAX).filter_map(wire::Tag::from_byte).collect();
        prop_assert_eq!(tags.len(), 21);
        for (i, (frame, truncated_is_wire_err)) in frames.iter().enumerate() {
            prop_assert_eq!(wire::peek_tag(frame).expect("well-formed"), tags[i]);
            prop_assert!(!truncated_is_wire_err(frame), "{:?}: the whole frame decodes", tags[i]);
            let cut = (frame.len() as u64 * u64::from(cut_permille) / 1000) as usize;
            let short = frame.slice(..cut);
            prop_assert!(truncated_is_wire_err(&short), "{:?} cut at {}", tags[i], cut);
        }
    }

    #[test]
    fn truncation_never_panics_and_always_errs(cut_permille in 0u32..1000) {
        let fix = fixture();
        let he = fix.params.he();
        for bytes in [&fix.query_bytes, &fix.keys_bytes] {
            let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
            let short = bytes.slice(..cut.min(bytes.len() - 1));
            prop_assert!(wire::decode_query(he, &short).is_err());
            prop_assert!(wire::decode_client_keys(he, &short).is_err());
            prop_assert!(wire::decode_session_response(he, &short).is_err());
        }
    }

    #[test]
    fn update_frame_truncation_and_corruption_never_panic(
        cut_permille in 0u32..1000,
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let fix = fixture();
        let params = &fix.params;
        let updates = vec![
            ive_pir::RecordUpdate::put(1, b"truncate me".to_vec()),
            ive_pir::RecordUpdate::delete(2),
            ive_pir::RecordUpdate::put(params.num_records() - 1, vec![0xAB; 16]),
        ];
        let frame = wire::encode_update_rows(42, &updates).expect("within cap");
        // Every strict prefix must fail cleanly.
        let cut = (frame.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let short = frame.slice(..cut.min(frame.len() - 1));
        prop_assert!(wire::decode_update_rows(params, &short).is_err());
        let ack = wire::encode_update_ack(42, 7, 3);
        let ack_cut = (ack.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(wire::decode_update_ack(&ack.slice(..ack_cut.min(ack.len() - 1))).is_err());
        // A flipped body byte either errs or decodes to a frame that
        // re-encodes canonically — no panic, no third outcome.
        let mut bad = BytesMut::new();
        bad.extend_from_slice(&frame[..]);
        let idx = 6 + pos % (frame.len() - 6);
        bad[idx] ^= flip;
        let bad = bad.freeze();
        if let Ok((r, back)) = wire::decode_update_rows(params, &bad) {
            let again = wire::encode_update_rows(r, &back).expect("within cap");
            prop_assert_eq!(&again[..], &bad[..]);
        }
    }

    #[test]
    fn stats_frame_truncation_never_panics_and_always_errs(
        cut_permille in 0u32..1000,
        seed in any::<u64>(),
    ) {
        let report = random_stats_report(seed);
        let get = wire::encode_get_stats(9);
        let cut = (get.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(wire::decode_get_stats(&get.slice(..cut.min(get.len() - 1))).is_err());

        let frame = wire::encode_stats_response(9, &report).expect("within caps");
        let cut = (frame.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        prop_assert!(
            wire::decode_stats_response(&frame.slice(..cut.min(frame.len() - 1))).is_err()
        );
    }

    #[test]
    fn keyword_frame_truncation_never_panics_and_always_errs(cut_permille in 0u32..1000) {
        let fix = ks_fixture();
        let he = fix.params.he();
        let frames = [
            &fix.hello_bytes,
            &fix.query_bytes,
            &fix.response_bytes,
            &fix.compressed_bytes,
            &fix.kv_update_bytes,
            &wire::encode_ks_welcome(1, &KvSchema::new(fix.params.clone(), 7).expect("lays out")),
        ];
        for bytes in frames {
            let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
            let short = bytes.slice(..cut.min(bytes.len() - 1));
            prop_assert!(wire::decode_ks_hello(he, &short).is_err());
            prop_assert!(wire::decode_ks_welcome(&fix.params, &short).is_err());
            prop_assert!(wire::decode_ks_query(&fix.params, &short).is_err());
            prop_assert!(wire::decode_ks_response(he, &short).is_err());
            prop_assert!(wire::decode_compressed_response(he, &short).is_err());
            prop_assert!(wire::decode_kv_update(&short).is_err());
        }
    }

    #[test]
    fn keyword_body_corruption_errs_or_stays_canonical(seed in any::<u64>()) {
        // Same canonical-form invariant as the index frames: a flipped
        // body byte either fails to decode or re-encodes to exactly the
        // tampered bytes — no panic, no third outcome.
        let fix = ks_fixture();
        let he = fix.params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bytes in [&fix.query_bytes, &fix.compressed_bytes, &fix.kv_update_bytes] {
            let pos = rng.gen_range(6..bytes.len());
            let flip = rng.gen_range(1..=255) as u8;
            let mut bad = BytesMut::new();
            bad.extend_from_slice(&bytes[..]);
            bad[pos] ^= flip;
            let bad = bad.freeze();
            if let Ok((s, r, q)) = wire::decode_ks_query(&fix.params, &bad) {
                prop_assert_eq!(&wire::encode_ks_query(s, r, &q)[..], &bad[..]);
            }
            if let Ok((r, ct)) = wire::decode_compressed_response(he, &bad) {
                prop_assert_eq!(&wire::encode_compressed_response(r, &ct)[..], &bad[..]);
            }
            if let Ok((r, key, v)) = wire::decode_kv_update(&bad) {
                prop_assert_eq!(&wire::encode_kv_update(r, &key, v).expect("valid")[..], &bad[..]);
            }
        }
    }

    #[test]
    fn header_corruption_rejected(byte in 0usize..6, flip in 1u8..=255) {
        // Flipping any header byte (magic, version, or tag) must turn the
        // frame into a decode error, never a panic or a silent success.
        let fix = fixture();
        let he = fix.params.he();
        let mut bad = BytesMut::new();
        bad.extend_from_slice(&fix.query_bytes[..]);
        bad[byte] ^= flip;
        let bad = bad.freeze();
        prop_assert!(wire::decode_query(he, &bad).is_err());
    }

    #[test]
    fn body_corruption_errs_or_stays_canonical(seed in any::<u64>()) {
        // A flipped body byte either fails to decode or decodes to a frame
        // that re-encodes to exactly the tampered bytes (the canonical-form
        // invariant): no third outcome, no panic.
        let fix = fixture();
        let he = fix.params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pos = rng.gen_range(6..fix.query_bytes.len());
        let flip = rng.gen_range(1..=255) as u8;
        let mut bad = BytesMut::new();
        bad.extend_from_slice(&fix.query_bytes[..]);
        bad[pos] ^= flip;
        let bad = bad.freeze();
        if let Ok(query) = wire::decode_query(he, &bad) {
            prop_assert_eq!(&wire::encode_query(&query)[..], &bad[..]);
        }
    }
}

/// Every decoder fed every *other* frame type must name the mismatch.
/// A residue at or above its modulus — at the first, middle and last
/// word of every limb, in a polynomial and in a compressed response —
/// is a typed wire error, never a value.
#[test]
fn out_of_range_residue_at_every_limb_edge_is_a_wire_error() {
    let fix = fixture();
    let he = fix.params.he();
    let (n, moduli) = (he.n(), he.ring().basis().moduli());
    let poly = random_poly(&mut rand::rngs::StdRng::seed_from_u64(5), Form::Ntt);
    let mut buf = BytesMut::new();
    wire::write_poly(&mut buf, &poly);
    let body = buf.len() - 4 * moduli.len() * n;
    let ct = random_bfv(&mut rand::rngs::StdRng::seed_from_u64(6));
    let switched = ive_he::modswitch::switch_to_primes(he, &ct, moduli.len()).expect("switches");
    let compressed = wire::encode_compressed_response(1, &switched);
    let compressed_body = compressed.len() - 8 * moduli.len() * n;
    for (m, modulus) in moduli.iter().enumerate() {
        for i in [0, n / 2, n - 1] {
            for bad in [modulus.value() as u32, u32::MAX] {
                let at = body + 4 * (m * n + i);
                let mut frame = buf.clone();
                frame[at..at + 4].copy_from_slice(&bad.to_be_bytes());
                let err = wire::read_poly(he, &mut frame.freeze()).expect_err("out of range");
                assert!(matches!(err, ive_pir::PirError::Wire(_)), "limb {m}, word {i}: {err}");
                for half in [0, moduli.len() * n] {
                    let at = compressed_body + 4 * (half + m * n + i);
                    let mut frame = BytesMut::from(&compressed[..]);
                    frame[at..at + 4].copy_from_slice(&bad.to_be_bytes());
                    let err = wire::decode_compressed_response(he, &frame.freeze())
                        .expect_err("out of range");
                    assert!(matches!(err, ive_pir::PirError::Wire(_)), "limb {m}, word {i}");
                }
            }
        }
    }
}

#[test]
fn wrong_tag_errors_name_both_frames() {
    let fix = fixture();
    let he = fix.params.he();
    let err = wire::decode_client_keys(he, &fix.query_bytes).expect_err("tag mismatch");
    let msg = err.to_string();
    assert!(msg.contains("ClientKeys") && msg.contains("Query"), "unhelpful: {msg}");
    let err = wire::decode_query(he, &fix.keys_bytes).expect_err("tag mismatch");
    let msg = err.to_string();
    assert!(msg.contains("Query") && msg.contains("ClientKeys"), "unhelpful: {msg}");
    let err = wire::decode_welcome(&fix.query_bytes).expect_err("tag mismatch");
    assert!(err.to_string().contains("Welcome"), "unhelpful: {err}");
}

/// The stats-frame caps are enforced at encode time, mirroring decode.
#[test]
fn stats_report_caps_enforced_on_encode() {
    let report = wire::StatsReport {
        latency_buckets: vec![0; wire::MAX_STATS_BUCKETS + 1],
        ..Default::default()
    };
    assert!(wire::encode_stats_response(1, &report).is_err(), "bucket cap not enforced");
    let report = wire::StatsReport {
        stages: vec![wire::StageReport::default(); wire::MAX_STATS_STAGES + 1],
        ..Default::default()
    };
    assert!(wire::encode_stats_response(1, &report).is_err(), "stage cap not enforced");
}

/// `peek_tag` agrees with the decoder dispatch for every frame type.
#[test]
fn peek_tag_matches_frame_types() {
    let fix = fixture();
    let mut client =
        PirClient::new(&fix.params, rand::rngs::StdRng::seed_from_u64(7)).expect("keygen");
    let query = client.query(1).expect("in range");
    let cases = [
        (wire::encode_query(&query), wire::Tag::Query),
        (wire::encode_client_keys(client.public_keys()), wire::Tag::ClientKeys),
        (wire::encode_hello(client.public_keys()), wire::Tag::Hello),
        (wire::encode_welcome(5), wire::Tag::Welcome),
        (wire::encode_session_query(5, 6, &query), wire::Tag::SessionQuery),
        (wire::encode_error_frame(6, "nope"), wire::Tag::Error),
        (
            wire::encode_update_rows(7, &[ive_pir::RecordUpdate::delete(0)]).expect("within cap"),
            wire::Tag::UpdateRow,
        ),
        (wire::encode_update_ack(7, 1, 1), wire::Tag::UpdateAck),
        (ks_fixture().hello_bytes.clone(), wire::Tag::KsHello),
        (
            wire::encode_ks_welcome(
                1,
                &KvSchema::new(ks_fixture().params.clone(), 7).expect("lays out"),
            ),
            wire::Tag::KsWelcome,
        ),
        (ks_fixture().query_bytes.clone(), wire::Tag::KsQuery),
        (ks_fixture().response_bytes.clone(), wire::Tag::KsResponse),
        (ks_fixture().compressed_bytes.clone(), wire::Tag::CompressedResponse),
        (ks_fixture().kv_update_bytes.clone(), wire::Tag::KvUpdate),
        (wire::encode_get_stats(8), wire::Tag::GetStats),
        (
            wire::encode_stats_response(8, &wire::StatsReport::default()).expect("within caps"),
            wire::Tag::StatsResponse,
        ),
    ];
    for (bytes, want) in cases {
        assert_eq!(wire::peek_tag(&bytes).expect("well-formed"), want);
    }
}

/// The six client-sent frames — the ones that carry a mask seed — one
/// valid instance each, with the decoder that accepts it and the
/// re-encoding of what it decoded.
#[allow(clippy::type_complexity)]
fn seeded_frames(
) -> Vec<(&'static str, Bytes, Box<dyn Fn(&Bytes) -> Result<Bytes, ive_pir::PirError>>)> {
    let fix = fixture();
    let ks = ks_fixture();
    let he = fix.params.he();
    let ks_he = ks.params.he();
    let query = wire::decode_query(he, &fix.query_bytes).expect("fixture decodes");
    let keys = wire::decode_client_keys(he, &fix.keys_bytes).expect("fixture decodes");
    vec![
        (
            "Query",
            fix.query_bytes.clone(),
            Box::new(move |f| wire::decode_query(he, f).map(|q| wire::encode_query(&q))),
        ),
        (
            "SessionQuery",
            wire::encode_session_query(5, 6, &query),
            Box::new(move |f| {
                wire::decode_session_query(he, f)
                    .map(|(s, r, q)| wire::encode_session_query(s, r, &q))
            }),
        ),
        (
            "ClientKeys",
            fix.keys_bytes.clone(),
            Box::new(move |f| {
                wire::decode_client_keys(he, f).map(|k| wire::encode_client_keys(&k))
            }),
        ),
        (
            "Hello",
            wire::encode_hello(&keys),
            Box::new(move |f| wire::decode_hello(he, f).map(|k| wire::encode_hello(&k))),
        ),
        (
            "KsHello",
            ks.hello_bytes.clone(),
            Box::new(move |f| wire::decode_ks_hello(ks_he, f).map(|k| wire::encode_ks_hello(&k))),
        ),
        (
            "KsQuery",
            ks.query_bytes.clone(),
            Box::new(move |f| {
                wire::decode_ks_query(&ks.params, f)
                    .map(|(s, r, q)| wire::encode_ks_query(s, r, &q))
            }),
        ),
    ]
}

/// `encode(decode(f)) == f` for every seeded frame: the regenerated masks
/// are never re-sent, and the seed and bodies come back bit-exact.
#[test]
fn seeded_frames_roundtrip_canonically() {
    for (name, frame, reencode) in seeded_frames() {
        assert_eq!(&reencode(&frame).expect("own encoding decodes")[..], &frame[..], "{name}");
    }
}

/// A version-2 header (masks inline) gets the typed version error on
/// every seeded frame; so does version 1.
#[test]
fn seeded_frames_refuse_older_versions() {
    for (name, frame, reencode) in seeded_frames() {
        for old in [1u8, 2] {
            let mut stale = BytesMut::from(&frame[..]);
            stale[4] = old;
            match reencode(&stale.freeze()) {
                Err(ive_pir::PirError::Wire(msg)) => assert!(
                    msg.contains(&format!("unsupported wire version {old}")),
                    "{name}: {msg}"
                ),
                other => panic!("{name} v{old}: {:?}", other.map(|b| b.len())),
            }
        }
    }
}

/// A `b` residue at or above its modulus is still refused, in the first
/// body and the last; and a tampered seed decodes (the wire has no
/// integrity) to different masks, never to the original ciphertexts.
#[test]
fn seeded_frames_refuse_out_of_range_bodies() {
    let fix = fixture();
    let he = fix.params.he();
    for (name, frame, reencode) in seeded_frames() {
        let last = frame.len() - 4;
        let mut hot = BytesMut::from(&frame[..]);
        hot[last..].copy_from_slice(&[0xFF; 4]);
        let err = reencode(&hot.freeze()).expect_err(name).to_string();
        assert!(err.contains(">= modulus"), "{name}: {err}");
    }
    let query = wire::decode_query(he, &fix.query_bytes).expect("fixture decodes");
    let mut forged = BytesMut::from(&fix.query_bytes[..]);
    forged[6] ^= 1; // first seed byte
    let other = wire::decode_query(he, &forged.freeze()).expect("any seed decodes");
    assert_eq!(other.packed().b, query.packed().b);
    assert_ne!(other.packed().a, query.packed().a);
}
