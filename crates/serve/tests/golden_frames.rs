//! Golden digests of every kind of frame a server sends, computed at
//! the commit *before* the two serving pipelines became one generic
//! service (PR 14) and pinned here: the refactored tree must put the
//! same bytes on the wire, without the old code staying alive as a
//! reference.
//!
//! Three digests are younger: `kv.ks_response`, `kv.ks_response_epoch1`
//! and `kv.compressed_response` were re-pinned when `KsPirServer` moved
//! its trace after the tournament (PR 16) — same plaintext, same frame
//! layout and length, a different ciphertext. The flat-words rewrite
//! under that move reproduced the PR 14 digests first, with the old
//! order.
//!
//! One scripted exchange per plane speaks the raw wire protocol over the
//! in-process transport, one frame at a time, so the reply order is the
//! request order. Inputs are fully seeded (ChaCha8 clients, formula
//! records, fixed request ids); the digest is 64-bit FNV-1a over the
//! whole reply frame. `StatsResponse` carries wall-clock fields, so only
//! its tag, its length and the counters the script determines are pinned.
//!
//! The frames the scripted *clients* send (`Hello`, `SessionQuery`,
//! `UpdateRow`, `GetStats`, `KsHello`, `KsQuery`, `KvUpdate`) and one
//! `StatsResponse` encoded from a hand-built report whose scalars are all
//! distinct were pinned at the commit before the counters and the frame
//! reader were declared once (PR 17), the same way.
//!
//! Every digest below was re-pinned once, at wire v3: every frame
//! carries the version byte, and the client frames carry a mask seed in
//! place of their masks — with that, the clients' randomness, and so every
//! query, key set and response, moved. `index.stats` and `kv.stats` hash
//! a description of the stats frame (its length and the scripted
//! counters), not its bytes, so they did not move. All digests here are
//! pinned at wire v3.
//!
//! Four keyword digests were re-pinned once more when the keyword table
//! became two-entry buckets, each fetched whole by a partial trace:
//! `kv.ks_welcome` advertises the new bucket count, and `kv.ks_response`,
//! `kv.ks_response_epoch1` and `kv.compressed_response` answer over the
//! new scalar image (a response depends on every chunk through the
//! tournament). The slot session's client frames (`kv.ks_hello`, and
//! `kv.ks_query` at the fixed [`SLOT`]) did not move.
//!
//! Every exchange runs inside a single test on purpose: the `Busy` frame
//! needs the process-global failpoint registry (a compute delay that
//! fills the pipeline), which must not leak into a concurrently running
//! exchange. The stats-codec test beside it never opens a connection.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ive_pir::kspir::{KsPirClient, KsPirParams};
use ive_pir::{wire, Database, KvStore, PirClient, PirParams, RecordUpdate};
use ive_serve::config::ServeConfig;
use ive_serve::fault::{self, Action, Site};
use ive_serve::transport::{in_proc_pair, BoxedConn, Received};
use ive_serve::PirService;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A raw connection: send one frame, block for the next one back.
struct Raw(BoxedConn);

impl Raw {
    fn send(&mut self, frame: &Bytes) {
        self.0 .1.send(frame).expect("send");
    }

    fn recv(&mut self) -> Bytes {
        let started = Instant::now();
        loop {
            assert!(started.elapsed() < Duration::from_secs(60), "server never replied");
            match self.0 .0.recv().expect("recv") {
                Received::Frame(frame) => return frame,
                Received::Idle => {}
                Received::Closed => panic!("server closed mid-script"),
            }
        }
    }

    fn ask(&mut self, frame: &Bytes) -> Bytes {
        self.send(frame);
        self.recv()
    }
}

/// What a `StatsResponse` must say after a script: the frame's tag and
/// length plus the counters the script fully determines.
fn stats_digest(frame: &Bytes) -> u64 {
    assert_eq!(wire::peek_tag(frame).expect("tag"), wire::Tag::StatsResponse);
    let (request_id, r) = wire::decode_stats_response(frame).expect("stats decode");
    let pinned = format!(
        "len={} req={request_id} queries={} errors={} update_batches={} updates_applied={} \
         epoch={} retries={} reconnects={} busy={} evictions={}",
        frame.len(),
        r.queries,
        r.errors,
        r.update_batches,
        r.updates_applied,
        r.epoch,
        r.retries,
        r.reconnects,
        r.busy_rejections,
        r.session_evictions,
    );
    fnv1a(pinned.as_bytes())
}

type Digests = Vec<(&'static str, u64)>;

fn index_records(params: &PirParams) -> Vec<Vec<u8>> {
    (0..params.num_records())
        .map(|i| {
            (0..params.record_bytes()).map(|j| (i * 131 + j * 7 + (i * j) % 251) as u8).collect()
        })
        .collect()
}

/// The index plane: a read-write service for the main script, and a
/// read-only compressing one with a one-slot pipeline for the
/// `CompressedResponse`, read-only and `Busy` frames.
fn index_plane(got: &mut Digests, sent: &mut Digests) {
    let params = PirParams::toy();
    let he = params.he().clone();
    let db = Database::from_records(&params, &index_records(&params)).expect("records fit");
    let mut client = PirClient::new(&params, ChaCha8Rng::seed_from_u64(1401)).expect("keygen");

    let config = ServeConfig {
        window: Duration::from_millis(1),
        workers: 1,
        accept_updates: true,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db.clone(), Box::new(transport)).expect("starts");
    let mut raw = Raw(connector.connect().expect("dial"));

    let hello = wire::encode_hello(client.public_keys());
    sent.push(("index.hello", fnv1a(&hello)));
    let welcome = raw.ask(&hello);
    let session = wire::decode_welcome(&welcome).expect("welcome");
    got.push(("index.welcome", fnv1a(&welcome)));

    let query = client.query(37).expect("in range");
    let session_query = wire::encode_session_query(session, 7, &query);
    sent.push(("index.session_query", fnv1a(&session_query)));
    let response = raw.ask(&session_query);
    let (_, ct) = wire::decode_session_response(&he, &response).expect("response");
    assert_eq!(
        client.decode(&query, &ct).expect("decrypts")[..],
        index_records(&params)[37][..],
        "golden input no longer decodes"
    );
    got.push(("index.session_response", fnv1a(&response)));

    let updates = [RecordUpdate::put(3, b"golden frames".to_vec()), RecordUpdate::delete(9)];
    let update = wire::encode_update_rows(0x51, &updates).expect("encodes");
    sent.push(("index.update_row", fnv1a(&update)));
    got.push(("index.update_ack", fnv1a(&raw.ask(&update))));
    got.push(("index.update_reack", fnv1a(&raw.ask(&update))));

    let query = client.query(3).expect("in range");
    let response = raw.ask(&wire::encode_session_query(session, 8, &query));
    got.push(("index.session_response_epoch1", fnv1a(&response)));

    let unknown = raw.ask(&wire::encode_session_query(424_242, 10, &query));
    got.push(("index.err_unknown_session", fnv1a(&unknown)));
    got.push(("index.err_unexpected_welcome", fnv1a(&raw.ask(&wire::encode_welcome(1)))));
    let ks = KsPirParams::toy();
    let mut ks_client = KsPirClient::new(&ks, ChaCha8Rng::seed_from_u64(1402)).expect("keygen");
    let cross = wire::encode_ks_query(session, 11, &ks_client.query(5).expect("in range"));
    got.push(("index.err_unexpected_ks_query", fnv1a(&raw.ask(&cross))));
    let get_stats = wire::encode_get_stats(12);
    sent.push(("index.get_stats", fnv1a(&get_stats)));
    got.push(("index.stats", stats_digest(&raw.ask(&get_stats))));
    drop(raw);
    service.shutdown();

    // Read-only, compressing, and exactly four jobs deep (worker, batch
    // slot, dispatcher, queue). With compute slowed to half a second the
    // burst below is walked in one step at a time, so which requests are
    // shed does not depend on the dispatcher racing the handler.
    let config = ServeConfig {
        window: Duration::ZERO,
        max_batch: 1,
        workers: 1,
        queue_depth: 1,
        compress_responses: true,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service = PirService::start(config, &params, db, Box::new(transport)).expect("starts");
    let mut raw = Raw(connector.connect().expect("dial"));
    let session =
        wire::decode_welcome(&raw.ask(&wire::encode_hello(client.public_keys()))).expect("welcome");
    let query = client.query(21).expect("in range");
    let response = raw.ask(&wire::encode_session_query(session, 7, &query));
    got.push(("index.compressed_response", fnv1a(&response)));
    got.push(("index.err_read_only", fnv1a(&raw.ask(&update))));

    fault::arm(14);
    fault::set(Site::WorkerCompute, 1.0, Action::Delay(Duration::from_millis(500)));
    // 101 reaches the worker, 102 the batch slot, 103 the dispatcher's
    // hand: each is sent only once the scraped `queue_depth` shows the
    // dispatcher has taken its predecessor. 104 then fills the queue and
    // stays there, and 105..=108 find it full.
    for request_id in 101..=103 {
        raw.send(&wire::encode_session_query(session, request_id, &query));
        while wire::decode_stats_response(&raw.ask(&wire::encode_get_stats(request_id)))
            .expect("only stats replies arrive while 101 computes")
            .1
            .queue_depth
            > 0
        {}
    }
    for request_id in 104..=108 {
        raw.send(&wire::encode_session_query(session, request_id, &query));
    }
    let replies: Vec<Bytes> = (0..8).map(|_| raw.recv()).collect();
    fault::disarm();
    let shed: Vec<(u64, &Bytes)> = replies
        .iter()
        .filter(|f| wire::peek_tag(f).expect("tag") == wire::Tag::Error)
        .map(|f| (wire::decode_error_frame(f).expect("error frame").0, f))
        .collect();
    let shed_ids: Vec<u64> = shed.iter().map(|&(id, _)| id).collect();
    assert_eq!(shed_ids, [105, 106, 107, 108], "a four-deep pipeline sheds the rest of the burst");
    let busy = shed[3].1;
    got.push(("index.err_busy", fnv1a(busy)));
    drop(raw);
    service.shutdown();
}

/// The slot the keyword script's slot session queries first: a fixed
/// index, so `kv.ks_query` pins the query encoding whatever the table
/// layout (785 was golden:05's tag slot under the one-entry layout).
const SLOT: usize = 785;

/// The keyword plane: the same script over `Ks*` frames.
fn keyword_plane(got: &mut Digests, sent: &mut Digests) {
    let params = KsPirParams::toy();
    let he = params.he().clone();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..24u64).map(|i| (format!("golden:{i:02}").into_bytes(), 7000 + 13 * i)).collect();
    let mut client = KsPirClient::new(&params, ChaCha8Rng::seed_from_u64(1403)).expect("keygen");

    let config = ServeConfig { accept_updates: true, ..ServeConfig::default() };
    let (transport, connector) = in_proc_pair();
    let store = KvStore::build(&params, &entries).expect("table builds");
    let service =
        PirService::start_keyword(config, &params, store, Box::new(transport)).expect("starts");
    let mut raw = Raw(connector.connect().expect("dial"));

    let hello = wire::encode_ks_hello(client.public_keys());
    sent.push(("kv.ks_hello", fnv1a(&hello)));
    let welcome = raw.ask(&hello);
    let (session, schema) = wire::decode_ks_welcome(&params, &welcome).expect("welcome");
    got.push(("kv.ks_welcome", fnv1a(&welcome)));

    let ks_query = wire::encode_ks_query(session, 7, &client.query(SLOT).expect("in range"));
    sent.push(("kv.ks_query", fnv1a(&ks_query)));
    let response = raw.ask(&ks_query);
    let (_, ct) = wire::decode_ks_response(&he, &response).expect("response");
    client.decode(&ct).expect("decrypts");
    got.push(("kv.ks_response", fnv1a(&response)));

    let update = wire::encode_kv_update(0x61, b"golden:new", Some(4242)).expect("encodes");
    sent.push(("kv.kv_update", fnv1a(&update)));
    got.push(("kv.update_ack", fnv1a(&raw.ask(&update))));
    got.push(("kv.update_reack", fnv1a(&raw.ask(&update))));
    let absent = wire::encode_kv_update(0x62, b"never-there", None).expect("encodes");
    got.push(("kv.noop_delete_ack", fnv1a(&raw.ask(&absent))));

    let written = schema.slot_of(schema.candidates(b"golden:new")[0]);
    let query = client.query(written).expect("in range");
    let response = raw.ask(&wire::encode_ks_query(session, 8, &query));
    got.push(("kv.ks_response_epoch1", fnv1a(&response)));

    let unknown = raw.ask(&wire::encode_ks_query(424_242, 10, &query));
    got.push(("kv.err_unknown_session", fnv1a(&unknown)));
    got.push(("kv.err_unexpected_welcome", fnv1a(&raw.ask(&wire::encode_welcome(1)))));
    let index = PirParams::toy();
    let mut index_client = PirClient::new(&index, ChaCha8Rng::seed_from_u64(1404)).expect("keygen");
    let cross = wire::encode_session_query(session, 11, &index_client.query(5).expect("in range"));
    got.push(("kv.err_unexpected_session_query", fnv1a(&raw.ask(&cross))));
    got.push(("kv.stats", stats_digest(&raw.ask(&wire::encode_get_stats(12)))));
    drop(raw);
    service.shutdown();

    let config = ServeConfig { compress_responses: true, ..ServeConfig::default() };
    let (transport, connector) = in_proc_pair();
    let store = KvStore::build(&params, &entries).expect("table builds");
    let service =
        PirService::start_keyword(config, &params, store, Box::new(transport)).expect("starts");
    let mut raw = Raw(connector.connect().expect("dial"));
    let welcome = raw.ask(&wire::encode_ks_hello(client.public_keys()));
    let (session, _) = wire::decode_ks_welcome(&params, &welcome).expect("welcome");
    let response =
        raw.ask(&wire::encode_ks_query(session, 7, &client.query(SLOT).expect("in range")));
    got.push(("kv.compressed_response", fnv1a(&response)));
    got.push(("kv.err_read_only", fnv1a(&raw.ask(&update))));
    drop(raw);
    service.shutdown();
}

#[test]
fn server_frames_match_pre_refactor_bytes() {
    let (mut got, mut sent) = (Vec::new(), Vec::new());
    index_plane(&mut got, &mut sent);
    keyword_plane(&mut got, &mut sent);
    let want: &[(&str, u64)] = &[
        ("index.welcome", 0x7697_344a_dc35_7768),
        ("index.session_response", 0xe074_c237_15df_19ea),
        ("index.update_ack", 0xf19c_245f_d5d7_f5ea),
        ("index.update_reack", 0xf19c_245f_d5d7_f5ea),
        ("index.session_response_epoch1", 0x23d3_44bc_ba64_d74d),
        ("index.err_unknown_session", 0xb923_0e8d_c9b2_adde),
        ("index.err_unexpected_welcome", 0x9971_ec36_3a43_c221),
        ("index.err_unexpected_ks_query", 0x683d_64ed_8fc3_98e7),
        ("index.stats", 0x5431_96c7_6c9c_d9d7),
        ("index.compressed_response", 0x89b2_b626_82e5_5284),
        ("index.err_read_only", 0x6fbb_0193_6dd9_31e9),
        ("index.err_busy", 0xffb9_40bb_46cb_06d4),
        ("kv.ks_welcome", 0xc103_7e5d_bafc_1abf),
        ("kv.ks_response", 0xa16d_aab5_e793_3a1c),
        ("kv.update_ack", 0xeedd_1a4e_29c7_d8c7),
        ("kv.update_reack", 0xeedd_1a4e_29c7_d8c7),
        ("kv.noop_delete_ack", 0x982c_3a1d_70d1_009d),
        ("kv.ks_response_epoch1", 0x495e_ace9_2dd3_8ec6),
        ("kv.err_unknown_session", 0xb923_0e8d_c9b2_adde),
        ("kv.err_unexpected_welcome", 0x9971_ec36_3a43_c221),
        ("kv.err_unexpected_session_query", 0xc20b_443e_f755_a0c0),
        ("kv.stats", 0x4d38_a5ef_103e_9dd3),
        ("kv.compressed_response", 0x2bd7_a7de_728d_ca42),
        ("kv.err_read_only", 0x21b1_e949_145b_a299),
    ];
    let listing: String =
        got.iter().map(|(n, d)| format!("        (\"{n}\", {d:#018x}),\n")).collect();
    assert_eq!(got, want, "server-sent frames changed; observed digests:\n{listing}");

    let want_sent: &[(&str, u64)] = &[
        ("index.hello", 0xbf81_8976_915f_caf5),
        ("index.session_query", 0x8501_092d_f63f_9480),
        ("index.update_row", 0xbdf1_b049_7cd4_98ff),
        ("index.get_stats", 0xf248_8dfb_401a_466b),
        ("kv.ks_hello", 0xf8a7_3967_75e5_a1e0),
        ("kv.ks_query", 0xcb01_d916_2755_2d09),
        ("kv.kv_update", 0x8c71_9373_42bc_8b19),
    ];
    let listing: String =
        sent.iter().map(|(n, d)| format!("        (\"{n}\", {d:#018x}),\n")).collect();
    assert_eq!(sent, want_sent, "client-sent frames changed; observed digests:\n{listing}");
}

/// One `StatsResponse` over a report whose 28 scalars are all distinct
/// and named field by field: a counter that changes place on the wire
/// changes this digest.
#[test]
fn stats_response_matches_pre_refactor_bytes() {
    let stage = |k: u64| wire::StageReport {
        count: 29 + k,
        sum_us: 39 + k,
        max_us: 49 + k,
        buckets: (0..k).map(|i| 59 + 10 * k + i).collect(),
    };
    let report = wire::StatsReport {
        queries: 1,
        errors: 2,
        batches: 3,
        batch_query_sum: 4,
        batches_multi: 5,
        max_batch: 6,
        queue_depth: 7,
        queue_depth_max: 8,
        update_batches: 9,
        updates_applied: 10,
        epoch: 11,
        uptime_us: 12,
        latency_sum_us: 13,
        latency_max_us: 14,
        latency_buckets: vec![101, 102, 103, 104, 105],
        stages: vec![stage(0), stage(1), stage(2)],
        residue_ntts: 15,
        pointwise_macs: 16,
        icrt_coeffs: 17,
        auto_coeffs: 18,
        scan_bytes: 19,
        scan_ns: 20,
        slow_queries: 21,
        busy_rejections: 22,
        session_evictions: 23,
        timeouts: 24,
        retries: 25,
        reconnects: 26,
        worker_panics: 27,
        drained_jobs: 28,
    };
    let frame = wire::encode_stats_response(0x5747, &report).expect("within caps");
    assert_eq!(
        (frame.len(), fnv1a(&frame)),
        (384, 0x299b_c402_15fd_ac5e),
        "the StatsResponse encoding changed ({} bytes, digest {:#018x})",
        frame.len(),
        fnv1a(&frame)
    );
    assert_eq!(wire::decode_stats_response(&frame).expect("decodes"), (0x5747, report));
}
