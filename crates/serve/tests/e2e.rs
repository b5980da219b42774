//! End-to-end serving tests: concurrent clients over real transports,
//! keys registered once, queries coalesced by the waiting window, records
//! decoded exactly.

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;

use ive_pir::{Database, PirParams, TournamentOrder};
use ive_serve::config::{ServeConfig, ShardPlan};
use ive_serve::transport::in_proc_pair;
use ive_serve::{Connection, PirService, RetryPolicy, TcpTransport};

fn toy_db(params: &PirParams) -> (Database, Vec<Vec<u8>>) {
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("e2e record {i:04}").into_bytes()).collect();
    (Database::from_records(params, &records).expect("records fit"), records)
}

/// The acceptance-criteria test: ≥ 8 concurrent clients over the real TCP
/// transport, each registering keys once and issuing several queries
/// through a nonzero waiting window against a server whose rows split
/// into two aligned blocks. All records must decode exactly, and
/// saturating load must produce batches larger than 1.
#[test]
fn eight_tcp_clients_saturate_the_batcher_at_width_two() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 3;

    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let records = Arc::new(records);
    let config = ServeConfig {
        window: Duration::from_millis(120),
        max_batch: CLIENTS,
        workers: 2,
        queue_depth: 2 * CLIENTS,
        rowsel_threads: 2,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive_pir::BackendKind::Optimized,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        ..ServeConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let params = params.clone();
            let records = Arc::clone(&records);
            scope.spawn(move || {
                let conn = ive_serve::tcp::connect(addr).expect("dial");
                let rng = rand::rngs::StdRng::seed_from_u64(9000 + c as u64);
                // One handshake: the key upload happens exactly once.
                let mut client =
                    Connection::new(conn).into_serve_client(&params, rng).expect("handshake");
                for q in 0..QUERIES_PER_CLIENT {
                    let target = (7 * c + 13 * q) % records.len();
                    let got = client.retrieve(target).expect("retrieve");
                    assert_eq!(
                        &got[..records[target].len()],
                        &records[target][..],
                        "client {c} query {q} decoded the wrong record"
                    );
                }
            });
        }
    });

    let stats = service.shutdown();
    assert_eq!(stats.queries, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(stats.errors, 0, "no query may fail: {stats}");
    assert!(
        stats.max_batch > 1,
        "8 concurrent clients under a 120ms window must coalesce: {stats}"
    );
    assert!(stats.batches_multi >= 1, "expected multi-query batches: {stats}");
    assert!(stats.mean_latency_ms > 0.0 && stats.qps > 0.0);
}

/// Same flow over the in-process transport with a replicated database,
/// exercising session reuse across many sequential queries.
#[test]
fn in_proc_clients_reuse_sessions_and_decode_exactly() {
    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let records = Arc::new(records);
    let config = ServeConfig {
        window: Duration::from_millis(40),
        max_batch: 4,
        workers: 2,
        queue_depth: 16,
        shard: ShardPlan::Replicated,
        rowsel_threads: 1,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive_pir::BackendKind::Optimized,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    std::thread::scope(|scope| {
        for c in 0..4usize {
            let params = params.clone();
            let records = Arc::clone(&records);
            let connector = connector.clone();
            scope.spawn(move || {
                let conn = connector.connect().expect("dial");
                let rng = rand::rngs::StdRng::seed_from_u64(500 + c as u64);
                let mut client =
                    Connection::new(conn).into_serve_client(&params, rng).expect("handshake");
                let session = client.session_id();
                for q in 0..4usize {
                    let target = (c + 16 * q) % records.len();
                    let got = client.retrieve(target).expect("retrieve");
                    assert_eq!(&got[..records[target].len()], &records[target][..]);
                }
                assert_eq!(client.session_id(), session, "session must persist");
            });
        }
    });

    // Keys were uploaded once per client and stay cached.
    assert_eq!(service.sessions().len(), 4);
    assert!(service.sessions().cached_key_bytes() > 0);
    let stats = service.shutdown();
    assert_eq!(stats.queries, 16);
    assert_eq!(stats.errors, 0);
}

/// One served query is one pass over the database: the `scan_bytes`
/// counter advances by exactly the engine's `resident_bytes`, whether
/// one worker scans the rows or two aligned blocks split them.
#[test]
fn scan_bytes_advance_by_the_resident_database_per_pass() {
    let params = PirParams::toy();
    for rowsel_threads in [1usize, 2] {
        let (db, records) = toy_db(&params);
        let resident = db.resident_bytes();
        let config =
            ServeConfig { window: Duration::ZERO, rowsel_threads, ..ServeConfig::default() };
        let (transport, connector) = in_proc_pair();
        let service =
            PirService::start(config, &params, db, Box::new(transport)).expect("service starts");
        let rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut client = Connection::new(connector.connect().expect("dial"))
            .into_serve_client(&params, rng)
            .expect("handshake");
        let before = service.stats().scan_bytes;
        let got = client.retrieve(9).expect("retrieve");
        assert_eq!(&got[..records[9].len()], &records[9][..]);
        assert_eq!(service.stats().scan_bytes - before, resident, "width {rowsel_threads}");
        service.shutdown();
    }
}

/// Live updates over the wire, against a server whose rows split into two
/// aligned blocks, while query traffic keeps flowing: every acked update
/// must be visible to subsequent retrievals (including deltas on both
/// sides of the block boundary), the epoch must advance in the stats, and
/// no query may fail or decode stale-vs-new torn contents.
#[test]
fn updates_commit_under_concurrent_queries_across_row_blocks() {
    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let records = Arc::new(records);
    let config = ServeConfig {
        window: Duration::from_millis(5),
        max_batch: 4,
        workers: 2,
        queue_depth: 16,
        rowsel_threads: 2,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive_pir::BackendKind::Optimized,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    // One delta per row block, plus a delete: all must land atomically
    // per batch and be readable immediately after the ack.
    let half = params.num_records() / 2;
    let updated: Vec<(usize, Vec<u8>)> = vec![
        (1, b"low block updated".to_vec()),
        (half + 2, b"high block updated".to_vec()),
        (5, Vec::new()), // delete
    ];

    std::thread::scope(|scope| {
        // Background query traffic for the whole duration.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let served = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let traffic = {
            let params = params.clone();
            let connector = connector.clone();
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            scope.spawn(move || {
                let conn = connector.connect().expect("dial");
                let rng = rand::rngs::StdRng::seed_from_u64(600);
                let mut client =
                    Connection::new(conn).into_serve_client(&params, rng).expect("handshake");
                // Query an index no update touches: contents must stay
                // stable across every epoch swap.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = client.retrieve(40).expect("retrieve under churn");
                    assert_eq!(&got[..14], b"e2e record 004", "stable record torn by updates");
                    served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };

        let mut updater = Connection::new(connector.connect().expect("dial")).into_update_client();
        // Interleave for real: don't start committing epochs until the
        // query plane has demonstrably answered at least once.
        while served.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut last_epoch = 0;
        for (index, bytes) in &updated {
            let epoch = if bytes.is_empty() {
                updater.delete(*index).expect("delete")
            } else {
                updater.put(*index, bytes.clone()).expect("put")
            };
            assert!(epoch > last_epoch, "epochs must advance: {epoch} after {last_epoch}");
            last_epoch = epoch;
        }
        // A batched multi-delta frame commits as a single epoch.
        let (epoch, applied) = updater
            .apply(&[
                ive_pir::RecordUpdate::put(0, b"batched low".to_vec()),
                ive_pir::RecordUpdate::put(params.num_records() - 1, b"batched high".to_vec()),
            ])
            .expect("batch");
        assert_eq!(applied, 2);
        assert_eq!(epoch, last_epoch + 1);

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        traffic.join().expect("traffic thread");
        assert!(
            served.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "queries must keep answering while updates stream in"
        );
    });

    // Read-your-writes at the final epoch, from a fresh session.
    let conn = connector.connect().expect("dial");
    let mut reader = Connection::new(conn)
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(601))
        .expect("hs");
    for (index, bytes) in &updated {
        let got = reader.retrieve(*index).expect("retrieve updated");
        if bytes.is_empty() {
            assert!(got.iter().all(|&b| b == 0), "deleted record {index} not zeroed");
        } else {
            assert_eq!(&got[..bytes.len()], &bytes[..], "update to {index} not visible");
        }
    }
    let got = reader.retrieve(0).expect("retrieve batched");
    assert_eq!(&got[..11], b"batched low");
    let _ = records;

    let stats = service.shutdown();
    assert_eq!(stats.errors, 0, "no query may fail under churn: {stats}");
    assert_eq!(stats.update_batches, 4);
    assert_eq!(stats.updates_applied, 5);
    assert_eq!(stats.epoch, 4);
}

/// A read-only service — the **default**, since updates are
/// unauthenticated — refuses update frames with an error frame naming
/// the reason, and its epoch never moves.
#[test]
fn read_only_service_rejects_updates_by_default() {
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let (transport, connector) = in_proc_pair();
    let config = ServeConfig { window: Duration::from_millis(1), ..ServeConfig::default() };
    assert!(!config.accept_updates, "updates must be opt-in");
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");
    let mut updater = Connection::new(connector.connect().expect("dial")).into_update_client();
    let err = updater.put(0, b"nope".to_vec()).expect_err("read-only");
    assert!(err.to_string().contains("read-only"), "unhelpful: {err}");
    let stats = service.shutdown();
    assert_eq!(stats.epoch, 0);
    assert_eq!(stats.update_batches, 0);
}

/// Compressed responses over the wire: with
/// [`ServeConfig::compress_responses`] on, every answer arrives as a
/// [`ive_pir::wire::Tag::CompressedResponse`] frame carrying only the
/// retained RNS residues, and the client decodes it transparently to the
/// exact record.
#[test]
fn compressed_responses_decode_exactly() {
    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let config = ServeConfig {
        window: Duration::from_millis(1),
        compress_responses: true,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");
    let mut client = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(77))
        .expect("handshake");
    for target in [0usize, 17, 63] {
        let got = client.retrieve(target).expect("retrieve compressed");
        assert_eq!(&got[..records[target].len()], &records[target][..], "record {target} torn");
    }
    let stats = service.shutdown();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.errors, 0);
}

/// The keyword KV acceptance test, with and without compressed
/// responses: a [`ive_serve::KvClient`] over the real TCP transport
/// retrieves values *by key* while a writer commits live mutations —
/// every acked write is immediately readable (read-your-writes), absent
/// keys return `None`, a background reader never observes a torn value
/// of an untouched key nor a phantom value of an absent one across epoch
/// swaps, and a live `GetStats` scrape sees the counters the shutdown
/// reports.
#[test]
fn kv_client_gets_by_key_over_tcp_under_live_updates() {
    for compress_responses in [false, true] {
        kv_gets_under_live_updates(compress_responses);
    }
}

fn kv_gets_under_live_updates(compress_responses: bool) {
    let params = ive_pir::kspir::KsPirParams::toy();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..24u64).map(|i| (format!("user:{i:03}").into_bytes(), 1000 + i)).collect();
    let store = ive_pir::KvStore::build(&params, &entries).expect("table builds");
    let config = ServeConfig { accept_updates: true, compress_responses, ..ServeConfig::default() };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service = PirService::start_keyword(config, &params, store, Box::new(transport))
        .expect("keyword service starts");

    let scraped = std::thread::scope(|scope| {
        // A background reader hammers a key no mutation touches and a key
        // no mutation inserts: both must stay as they were across every
        // epoch the writer opens.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reads = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let reader = {
            let params = params.clone();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let conn = ive_serve::tcp::connect(addr).expect("dial");
                let mut kv = Connection::new(conn)
                    .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(41))
                    .expect("handshake");
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let got = kv.get(b"user:007").expect("get under churn");
                    assert_eq!(got, Some(1007), "stable key torn by live updates");
                    let ghost = kv.get(b"ghost:007").expect("absent get under churn");
                    assert_eq!(ghost, None, "phantom key appeared under live updates");
                    reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            })
        };

        let conn = ive_serve::tcp::connect(addr).expect("dial");
        let mut kv = Connection::new(conn)
            .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(42))
            .expect("handshake");
        assert_eq!(kv.get(b"user:003").expect("get"), Some(1003));
        assert_eq!(kv.get(b"user:999").expect("get absent"), None);

        // Don't start mutating until the reader has demonstrably served.
        while reads.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }

        // Read-your-writes: each acked mutation is visible immediately.
        let e1 = kv.put(b"user:003", 42).expect("overwrite");
        assert!(e1 >= 1, "a put must open an epoch");
        assert_eq!(kv.get(b"user:003").expect("get after put"), Some(42));
        let e2 = kv.put(b"fresh-key", 777).expect("insert");
        assert!(e2 > e1, "epochs must advance: {e2} after {e1}");
        assert_eq!(kv.get(b"fresh-key").expect("get fresh"), Some(777));
        let e3 = kv.delete(b"user:005").expect("delete");
        assert!(e3 > e2);
        assert_eq!(kv.get(b"user:005").expect("get deleted"), None);
        // Deleting an absent key acks without opening an epoch.
        let e4 = kv.delete(b"never-there").expect("no-op delete");
        assert_eq!(e4, e3, "a no-op delete must not open an epoch");

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().expect("reader thread");
        assert!(reads.load(std::sync::atomic::Ordering::Relaxed) > 0);

        // Scrape the still-running server over the wire, as a monitoring
        // exporter would, before shutting it down.
        let scraped = kv.stats().expect("live scrape");
        assert_eq!(scraped.epoch, 3, "the scrape sees the committed epoch");
        assert!(scraped.queries > 0, "the scrape sees the answered gets: {scraped}");
        scraped
    });

    let stats = service.shutdown();
    assert_eq!(
        stats.errors, 0,
        "no keyword query may fail (compress {compress_responses}): {stats}"
    );
    assert_eq!(stats.epoch, 3, "three mutations touched the table");
    assert!(scraped.queries <= stats.queries, "counters are monotone: {scraped} then {stats}");
    assert!(stats.queries > 0 && stats.p999_latency_ms >= stats.p50_latency_ms);
}

/// A keyword server explains its latency: each of the two bucket
/// queries of a `get` leaves one sample in each of the three compute
/// stages — products as `RowSel`, tournament as `ColTor`, trace as
/// `Expand` — and together they fit inside the latency the same queries
/// were charged.
#[test]
fn keyword_get_reports_its_three_compute_stages() {
    use ive_serve::Stage;

    let params = ive_pir::kspir::KsPirParams::toy();
    let store = ive_pir::KvStore::build(&params, &[(b"alpha".to_vec(), 11)]).expect("table builds");
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start_keyword(ServeConfig::default(), &params, store, Box::new(transport))
            .expect("keyword service starts");
    let mut kv = Connection::new(connector.connect().expect("dial"))
        .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(44))
        .expect("handshake");
    assert_eq!(kv.get(b"alpha").expect("get"), Some(11));
    let stats = service.stats();
    assert_eq!(stats.queries, 2, "one query per candidate bucket");
    let compute = [Stage::RowSel, Stage::ColTor, Stage::Expand];
    for stage in compute {
        assert_eq!(stats.stage(stage).count, 2, "stage {stage:?}");
    }
    let stage_us: u64 = compute.iter().map(|&s| stats.stage(s).sum_us).sum();
    let latency_us = stats.mean_latency_ms * stats.queries as f64 * 1000.0;
    assert!(stage_us > 0 && stage_us as f64 <= latency_us, "{stage_us} us of {latency_us} us");
    assert!(stats.scan_bytes > 0 && stats.scan_gbps > 0.0, "products not counted as a scan");
    drop(kv);
    assert_eq!(service.shutdown().errors, 0);
}

/// Crash recovery end to end: batches fsync'd to the journal but never
/// committed (the process died first) are replayed by the next
/// [`PirService::start`], become visible to clients, and the recovered
/// journal checkpoints back to empty.
#[test]
fn journal_replays_unflushed_updates_on_service_restart() {
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let path = std::env::temp_dir().join(format!("ive-e2e-journal-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Simulated crash: two batches reach the durable log, but the
    // process dies before either commits into the in-memory database.
    {
        let (mut journal, replayed) = ive_pir::Journal::open(&path, &params).expect("open");
        assert!(replayed.is_empty());
        journal
            .append(&[
                ive_pir::RecordUpdate::put(3, b"journaled delta".to_vec()),
                ive_pir::RecordUpdate::delete(9),
            ])
            .expect("append");
        journal.append(&[ive_pir::RecordUpdate::put(3, b"second wins".to_vec())]).expect("append");
        // Dropped without checkpoint — exactly what a kill leaves behind.
    }

    let config = ServeConfig {
        window: Duration::from_millis(1),
        accept_updates: true,
        journal: Some(path.clone()),
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service recovers");

    let mut client = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(91))
        .expect("handshake");
    let got = client.retrieve(3).expect("retrieve recovered");
    assert_eq!(&got[..11], b"second wins", "journal replay not visible to queries");
    let got = client.retrieve(9).expect("retrieve deleted");
    assert!(got.iter().all(|&b| b == 0), "journaled delete not replayed");

    // A live update keeps journaling/checkpointing against the same log.
    let mut updater = Connection::new(connector.connect().expect("dial")).into_update_client();
    let epoch = updater.put(7, b"post-recovery".to_vec()).expect("put");
    assert_eq!(epoch, 3, "two replayed epochs then one live epoch");
    let got = client.retrieve(7).expect("retrieve live");
    assert_eq!(&got[..13], b"post-recovery");

    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.epoch, 3);
    // Every batch committed, so the checkpointed log replays nothing.
    let (_, replayed) = ive_pir::Journal::open(&path, &params).expect("reopen");
    assert!(replayed.is_empty(), "committed batches must leave the journal");
    let _ = std::fs::remove_file(&path);
}

/// The observability acceptance test: a live TCP server answers a
/// [`ive_pir::wire::Tag::GetStats`] scrape on a query connection, and the
/// derived [`ive_serve::ServerStats`] carries per-stage log₂ histograms
/// for the whole pipeline (decode → queue → scan → tournament → encode),
/// kernel op counts, and a measured scan bandwidth — plus a Prometheus
/// exposition a scraper can parse.
#[test]
fn live_server_answers_stats_scrapes_with_stage_histograms() {
    use ive_serve::Stage;

    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let config = ServeConfig {
        window: Duration::from_millis(5),
        rowsel_threads: 2,
        compress_responses: true,
        // Threshold zero: every query leaves a slow-trace record, so the
        // scrape must report them.
        slow_threshold: Duration::ZERO,
        ..ServeConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    let conn = ive_serve::tcp::connect(addr).expect("dial");
    let mut client = Connection::new(conn)
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(321))
        .expect("handshake");
    for target in [3usize, 29, 55] {
        let got = client.retrieve(target).expect("retrieve");
        assert_eq!(&got[..records[target].len()], &records[target][..]);
    }

    // Scrape over the same connection the queries used.
    let stats = client.stats().expect("scrape");
    assert_eq!(stats.queries, 3, "scrape must see the served queries");
    assert_eq!(stats.errors, 0);
    assert!(stats.mean_latency_ms > 0.0);
    for stage in [Stage::Decode, Stage::QueueWait, Stage::RowSel, Stage::ColTor, Stage::Encode] {
        let st = stats.stage(stage);
        assert!(st.count >= 3, "stage {stage:?} missing samples: {st:?}");
        assert!(st.buckets.iter().sum::<u64>() == st.count, "stage {stage:?} histogram torn");
    }
    // Two row blocks still make one server: one sample per stage per batch.
    let expand = stats.stage(Stage::Expand).count;
    for stage in [Stage::RowSel, Stage::ColTor] {
        assert_eq!(stats.stage(stage).count, expand, "{stage:?} samples are not one per batch");
    }
    // Compression is on, so the modswitch stage must have fired.
    assert!(stats.stage(Stage::Compress).count >= 3);
    // Kernel counters and the scan accounting flow through the scrape.
    assert!(stats.residue_ntts > 0 && stats.pointwise_macs > 0, "kernel ops not counted");
    assert!(stats.scan_bytes > 0 && stats.scan_gbps > 0.0, "scan bandwidth not measured");
    assert_eq!(stats.slow_queries, 3, "zero threshold records every query as slow");
    assert!(stats.stage_sum_ms() > 0.0);

    // The exposition renders and every line parses.
    let text = stats.to_prometheus();
    assert!(text.contains("ive_queries_total 3\n"));
    assert!(text.contains("ive_stage_duration_us_bucket{stage=\"row_sel\""));
    for line in text.lines() {
        assert!(line.starts_with("# ") || line.splitn(2, ' ').count() == 2, "bad line: {line}");
    }

    // A second scrape sees monotonically consistent counters.
    let again = client.stats().expect("second scrape");
    assert!(again.uptime_s >= stats.uptime_s);
    assert_eq!(again.queries, 3);

    drop(client);
    let final_stats = service.shutdown();
    assert_eq!(final_stats.queries, 3);
    assert_eq!(final_stats.errors, 0, "scrapes must not disturb the query plane");
}

/// The admission-control acceptance test: a burst far beyond the
/// pipeline's bounded capacity (1 worker, queue depth 1) is shed with
/// **typed** `Busy` error frames — recognizable client-side via
/// [`ive_serve::ServeError::is_busy`] — while every accepted query still
/// decodes the exact record. Rejections are counted in
/// [`ive_serve::ServerStats::busy_rejections`], never as query errors,
/// and the latency quantiles only ever see admitted work, so overload
/// cannot smear the histogram with unbounded queueing delay.
#[test]
fn overload_sheds_typed_busy_rejections_and_answers_stay_exact() {
    use ive_pir::wire;
    use ive_serve::transport::Received;
    use ive_serve::ServeError;

    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let config = ServeConfig {
        window: Duration::ZERO,
        max_batch: 2,
        workers: 1,
        // The whole pipeline holds ~2 jobs (worker + this queue);
        // everything past that must bounce.
        queue_depth: 1,
        shard: ShardPlan::Replicated,
        rowsel_threads: 1,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive_pir::BackendKind::Optimized,
        max_sessions: 8,
        accept_updates: false,
        compress_responses: false,
        journal: None,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    // Speak the wire protocol directly and pre-encode the burst, so all
    // frames hit the server within microseconds — no client-side crypto
    // pacing the offered load below the admission ceiling.
    let (mut rx, mut tx) = connector.connect().expect("dial");
    let mut raw =
        ive_pir::PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(55)).expect("keygen");
    tx.send(&wire::encode_hello(raw.public_keys())).expect("hello");
    let session = loop {
        match rx.recv().expect("recv") {
            Received::Frame(f) => break wire::decode_welcome(&f).expect("welcome"),
            Received::Idle => continue,
            Received::Closed => panic!("server closed during handshake"),
        }
    };
    const BURST: usize = 12;
    let queries: Vec<_> =
        (0..BURST).map(|i| raw.query(i % records.len()).expect("in range")).collect();
    let frames: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| wire::encode_session_query(session, i as u64 + 1, q))
        .collect();
    for frame in &frames {
        tx.send(frame).expect("burst send");
    }

    let he = params.he().clone();
    let mut served = 0u64;
    let mut busy = 0u64;
    let drain_started = std::time::Instant::now();
    for _ in 0..BURST {
        let frame = loop {
            assert!(
                drain_started.elapsed() < Duration::from_secs(120),
                "drain stalled: {served} served, {busy} busy"
            );
            match rx.recv().expect("recv") {
                Received::Frame(f) => break f,
                Received::Idle => continue,
                Received::Closed => panic!("server closed mid-drain"),
            }
        };
        match wire::peek_tag(&frame).expect("tag") {
            wire::Tag::SessionResponse => {
                let (req, ct) = wire::decode_session_response(&he, &frame).expect("response");
                let idx = (req as usize - 1) % records.len();
                let plain = raw.decode(&queries[req as usize - 1], &ct).expect("decode");
                assert_eq!(
                    &plain[..records[idx].len()],
                    &records[idx][..],
                    "request {req} decoded the wrong record under overload"
                );
                served += 1;
            }
            wire::Tag::Error => {
                let (req, message) = wire::decode_error_frame(&frame).expect("error frame");
                assert!(req >= 1, "rejection must name the request it sheds: {message}");
                let err = ServeError::Remote { request_id: req, message: message.clone() };
                assert!(err.is_busy(), "only typed Busy rejections are acceptable: {message}");
                busy += 1;
            }
            tag => panic!("unexpected {} frame under overload", tag.name()),
        }
    }
    assert_eq!(served + busy, BURST as u64);
    assert!(served >= 1, "the pipeline must keep serving under overload");
    assert!(busy >= 1, "a 12-deep burst into a depth-1 queue must shed load");

    drop(tx);
    drop(rx);
    let stats = service.shutdown();
    assert_eq!(stats.queries, served, "only admitted queries may enter the latency histogram");
    assert_eq!(stats.busy_rejections, busy, "every shed request must be counted");
    assert_eq!(stats.errors, 0, "busy shedding is backpressure, not failure: {stats}");
    assert!(stats.p999_latency_ms < 120_000.0, "admitted-work latency must stay bounded: {stats}");
}

/// Session-cache eviction end to end (the bounded-cache counterpart of
/// the 100k-churn unit test in `ive_serve::session`): against a 2-slot
/// cache, a third Hello LRU-evicts the stalest session, whose next query
/// is refused with `unknown session`; the client recovers with a fresh
/// Hello, the most recent sessions keep serving, and the evictions are
/// counted in [`ive_serve::ServerStats::session_evictions`].
#[test]
fn evicted_sessions_recover_with_a_fresh_hello() {
    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let config =
        ServeConfig { window: Duration::from_millis(1), max_sessions: 2, ..ServeConfig::default() };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    let mut a = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(1))
        .expect("handshake a");
    let got = a.retrieve(5).expect("a serves while cached");
    assert_eq!(&got[..records[5].len()], &records[5][..]);

    // Two more registrations against the 2-slot cache: the second one
    // evicts `a` (the least recently used at that point).
    let _b = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(2))
        .expect("handshake b");
    let mut c = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(3))
        .expect("handshake c");

    let err = a.retrieve(5).expect_err("evicted session must be refused");
    assert!(err.to_string().contains("unknown session"), "unhelpful: {err}");

    // Recovery is a fresh Hello — the documented client protocol for an
    // LRU-managed cache (this in turn evicts `b`, now the LRU).
    let mut a2 = Connection::new(connector.connect().expect("dial"))
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(4))
        .expect("re-hello");
    let got = a2.retrieve(9).expect("recovered session serves");
    assert_eq!(&got[..records[9].len()], &records[9][..]);
    let got = c.retrieve(3).expect("recently used sessions survive");
    assert_eq!(&got[..records[3].len()], &records[3][..]);

    assert_eq!(service.sessions().len(), 2, "the cache never exceeds its cap");
    assert_eq!(service.sessions().evictions(), 2, "a then b were LRU-evicted");
    let stats = service.shutdown();
    assert_eq!(stats.session_evictions, 2, "evictions must surface in the stats plane");
    assert_eq!(stats.queries, 3, "three retrievals succeeded");
    assert_eq!(stats.errors, 1, "exactly the evicted session's refused query");
}

/// The keyword twin: the keyword plane shares the index plane's LRU
/// session table, so the `max_sessions + 1`-th `KsHello` evicts the
/// stalest session instead of being refused for the life of the process.
/// An evicted [`ive_serve::KvClient`] that can retry re-Hellos in place on
/// `unknown session` and its `get` succeeds; a malformed key set is still
/// refused with a typed error; and the evictions show in `GetStats`.
#[test]
fn evicted_keyword_sessions_are_lru_and_recover_in_place() {
    use ive_pir::kspir::{KsPirClient, KsPirParams};
    use ive_pir::wire;

    let params = KsPirParams::toy();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..8u64).map(|i| (format!("user:{i}").into_bytes(), 40 + i)).collect();
    let store = ive_pir::KvStore::build(&params, &entries).expect("table builds");
    let config = ServeConfig { max_sessions: 2, ..ServeConfig::default() };
    let (transport, connector) = in_proc_pair();
    let service = PirService::start_keyword(config, &params, store, Box::new(transport))
        .expect("keyword service starts");
    let kv = |seed| {
        Connection::dial(connector.clone())
            .expect("dial")
            .with_retry(RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..Default::default()
            })
            .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(seed))
            .expect("handshake")
    };

    let mut a = kv(1);
    assert_eq!(a.get(b"user:3").expect("a serves while cached"), Some(43));
    let first_session = a.session_id();
    // Two more registrations against the 2-slot cache: the second one
    // evicts `a`. At the parent commit it was refused ("session cache
    // full"), and so was every handshake after it.
    let _b = kv(2);
    let mut c = kv(3);
    assert_eq!(service.sessions().evictions(), 1, "a was LRU-evicted");

    // `a`'s slot queries are refused with `unknown session`; it registers
    // again on the same connection (evicting `b`) and the get completes.
    assert_eq!(a.get(b"user:5").expect("evicted client recovers in place"), Some(45));
    assert_ne!(a.session_id(), first_session, "recovery is a fresh session");
    assert_eq!(c.get(b"user:1").expect("recently used sessions survive"), Some(41));
    assert_eq!(service.sessions().len(), 2, "the cache never exceeds its cap");

    // A key set of the wrong size (a ring of half the degree: one trace
    // round short) never reaches the cache.
    let ring = ive_math::rns::RingContext::test_ring(params.he().n() / 2, 3);
    let gadget = ive_math::gadget::Gadget::for_modulus(ring.basis().q_big(), 14);
    let half =
        KsPirParams::new(ive_he::HeParams::new(ring, 16, gadget, gadget, 4).expect("valid"), 2);
    let short = KsPirClient::new(&half, rand::rngs::StdRng::seed_from_u64(4)).expect("keygen");
    let (mut rx, mut tx) = connector.connect().expect("dial");
    tx.send(&wire::encode_ks_hello(short.public_keys())).expect("send");
    let refusal = loop {
        match rx.recv().expect("recv") {
            ive_serve::transport::Received::Frame(f) => break f,
            ive_serve::transport::Received::Idle => continue,
            ive_serve::transport::Received::Closed => panic!("server closed unexpectedly"),
        }
    };
    let (request_id, message) = wire::decode_error_frame(&refusal).expect("typed refusal");
    assert_eq!(request_id, 0, "a refused handshake names no request: {message}");
    assert_eq!(service.sessions().len(), 2);

    let scraped = c.stats().expect("stats scrape");
    assert_eq!(scraped.session_evictions, 2, "evictions must be visible in GetStats");
    let stats = service.shutdown();
    assert_eq!(stats.session_evictions, 2, "a, then b");
    assert!(stats.errors >= 1, "the evicted session's refused slot queries are counted: {stats}");
}

/// Queries against unknown sessions are answered with error frames and
/// counted, without disturbing well-behaved traffic.
#[test]
fn unknown_session_reports_error_frame() {
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let (transport, connector) = in_proc_pair();
    let config = ServeConfig { window: Duration::from_millis(1), ..ServeConfig::default() };
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    // Speak the wire protocol manually: a query without a handshake.
    use ive_pir::wire;
    use ive_serve::transport::Received;
    let (mut rx, mut tx) = connector.connect().expect("dial");
    let mut raw_client =
        ive_pir::PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(1)).expect("keygen");
    let query = raw_client.query(0).expect("in range");
    tx.send(&wire::encode_session_query(424242, 7, &query)).expect("send");
    let frame = loop {
        match rx.recv().expect("recv") {
            Received::Frame(f) => break f,
            Received::Idle => continue,
            Received::Closed => panic!("server closed unexpectedly"),
        }
    };
    let (request_id, message) = wire::decode_error_frame(&frame).expect("error frame");
    assert_eq!(request_id, 7);
    assert!(message.contains("424242"), "unhelpful: {message}");

    let stats = service.shutdown();
    assert_eq!(stats.queries, 0);
    assert_eq!(stats.errors, 1);
}
