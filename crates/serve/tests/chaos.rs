//! Seeded chaos suite: mixed query/update/kv traffic driven through the
//! serving stack while the `ive_serve::fault` failpoints inject errors,
//! delays, torn frames, fsync failures, and worker panics.
//!
//! Invariants enforced here (the PR's robustness contract):
//! - every call a client completes is either **bit-correct** or a
//!   **typed** `ServeError` — never silent corruption, never a hang;
//! - every **acked** update is durable and visible once faults clear;
//! - an update **reported as failed** is applied nowhere: not by a later
//!   commit, not by a journal replay;
//! - journal replay after faulted appends is **word-identical** to the
//!   acked batches (a failed fsync leaves no replayable record);
//! - worker panics are isolated and counted, never fatal;
//! - graceful drain answers or typed-rejects everything and leaks no
//!   threads.
//!
//! The failpoint registry is process-global, so every test here
//! serializes on [`FAULT_LOCK`] and disarms on exit (panic included) —
//! this integration binary is its own process, so arming faults here
//! can never perturb the unit-test binaries.
//!
//! Reproducibility: the seed is pinned (override with `CHAOS_SEED=<n>`);
//! CI runs the suite once pinned and once with a random seed, printing
//! the seed so failures replay exactly.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rand::SeedableRng;

use ive_pir::kspir::KsPirParams;
use ive_pir::{
    wire, Database, Journal, KvStore, PirClient, PirParams, QueryScratch, RecordUpdate,
    TournamentOrder,
};
use ive_serve::config::{ServeConfig, ShardPlan};
use ive_serve::fault::{self, Action, Site};
use ive_serve::transport::in_proc_pair;
use ive_serve::{
    Connection, Engine, IndexEngine, KeywordEngine, KeywordHandle, KvClient, PirService,
    RetryPolicy, ServeClient, ServeError, ServiceHandle, TcpConnector, TcpTransport, Transport,
};

/// Serializes every fault-arming test body: the registry is global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the lock for the test's duration and disarms on drop, so a
/// panicking test cannot leave faults armed for its successor.
struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultSession {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn begin_faults(seed: u64) -> FaultSession {
    let guard = FAULT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::arm(seed);
    FaultSession(guard)
}

/// The suite seed: pinned by default, overridable for randomized CI runs.
fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.trim().parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0x17E_C4A05,
    }
}

/// Listed `ive-*` service threads of this process, by name prefix, each
/// with its task id and scheduler state (`/proc/self/task/<tid>/stat`).
fn ive_threads() -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
                let comm = comm.trim();
                if comm.starts_with("ive-") {
                    let stat =
                        std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
                    // The state letter follows the parenthesised name.
                    let state = stat.rsplit(") ").next().and_then(|rest| rest.get(..1));
                    let tid = task.file_name().to_string_lossy().into_owned();
                    names.push(format!("{comm} (tid {tid}, state {})", state.unwrap_or("?")));
                }
            }
        }
    }
    names
}

/// The leak check: once a shutdown has returned, no `ive-*` service
/// thread may remain. `ServiceHandle::stop` has joined them all, but the
/// kernel wakes a joiner before it unlists the exiting task, so a joined
/// thread can stay listed in `/proc/self/task` for a moment: the check
/// waits up to two seconds for the list to empty. A thread the service
/// never joined outlives that and is named in the failure.
fn assert_no_service_threads(after: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let leftover = ive_threads();
        if leftover.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "leaked service threads after {after}: {leftover:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ive-chaos-{tag}-{}", std::process::id()))
}

fn toy_db(params: &PirParams) -> (Database, Vec<Vec<u8>>) {
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("chaos record {i:04}").into_bytes()).collect();
    (Database::from_records(params, &records).expect("records fit"), records)
}

fn chaos_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        jitter_seed: seed,
    }
}

/// One failpoint profile of the mixed-traffic sweep.
struct Profile {
    site: Site,
    action: Action,
    probability: f64,
}

/// The tentpole test: one index service (journaled) and one keyword
/// service, both over real TCP, hammered by retrying clients while each
/// failpoint profile is armed in turn. Completed reads must be
/// bit-correct, acked updates must be visible once faults clear, and the
/// whole stack must shut down without leaking a thread. Writes the
/// per-site injection counters, each profile's client retry counters and
/// the final server stats as a JSON artifact (`CHAOS_STATS_JSON`, default
/// `target/chaos_stats.json`).
#[test]
fn mixed_traffic_survives_every_failpoint_profile() {
    let seed = chaos_seed();
    let session = begin_faults(seed);
    println!("chaos seed: {seed}");

    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let journal_path = tmp_path("mixed-journal");
    let _ = std::fs::remove_file(&journal_path);
    let config = ServeConfig {
        window: Duration::from_millis(10),
        max_batch: 4,
        workers: 1,
        queue_depth: 16,
        shard: ShardPlan::Replicated,
        rowsel_threads: 1,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive_pir::BackendKind::Optimized,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: Some(journal_path.clone()),
        idle_timeout: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service = PirService::start(config.clone(), &params, db, Box::new(transport))
        .expect("service starts");

    let ks_params = KsPirParams::toy();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..16u64).map(|i| (format!("key:{i:02}").into_bytes(), 500 + i)).collect();
    let store = KvStore::build(&ks_params, &entries).expect("table builds");
    let ks_transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let ks_addr = ks_transport.local_addr();
    let ks_config = ServeConfig { journal: None, ..config };
    let ks_service =
        PirService::start_keyword(ks_config, &ks_params, store, Box::new(ks_transport))
            .expect("keyword service starts");

    let profiles = [
        Profile { site: Site::IoRead, action: Action::Error, probability: 0.03 },
        Profile { site: Site::IoWrite, action: Action::Error, probability: 0.03 },
        Profile { site: Site::IoWrite, action: Action::Tear, probability: 0.03 },
        Profile {
            site: Site::WorkerCompute,
            action: Action::Delay(Duration::from_millis(10)),
            probability: 0.25,
        },
        Profile { site: Site::EpochCommit, action: Action::Error, probability: 0.3 },
        Profile { site: Site::Fsync, action: Action::Error, probability: 0.3 },
    ];

    // index → last acked value; every entry must be visible at the end.
    let mut acked: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut kv_acked: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut reads_ok = 0u64;
    let mut reads_err = 0u64;
    // Per profile, what each client's recovery machinery did, as JSON.
    let mut client_retries: Vec<String> = Vec::new();

    for (p, profile) in profiles.iter().enumerate() {
        // Re-arm per profile: same seed, exactly one site faulted.
        fault::arm(seed.wrapping_add(p as u64));
        fault::set(profile.site, profile.probability, profile.action);
        let retry = chaos_retry(seed ^ p as u64);
        let mut counters = Vec::new();
        let mut dial = |to, role| {
            let conn = TcpConnector::new(to)
                .and_then(Connection::dial)
                .map(|c| c.with_retry(retry).with_timeout(Duration::from_secs(5)))?;
            counters.push((role, conn.retry_counters()));
            Ok::<_, ServeError>(conn)
        };

        // --- private reads, self-healing ---
        match dial(addr, "reader").and_then(|c| {
            c.into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(seed ^ (p as u64)))
        }) {
            Ok(mut reader) => {
                for q in 0..4usize {
                    let target = (5 * p + 3 * q) % records.len();
                    // The oracle: the last acked update to this row, or
                    // the original record (reads and updates in one
                    // profile are sequential, so there is no race).
                    let want: &[u8] = acked.get(&target).map_or(&records[target][..], |v| &v[..]);
                    match reader.retrieve(target) {
                        Ok(got) => {
                            assert_eq!(
                                &got[..want.len()],
                                want,
                                "profile {p} ({}): completed read must be bit-correct",
                                profile.site.name()
                            );
                            reads_ok += 1;
                        }
                        // A typed failure after the retry budget is a
                        // legal outcome under injected faults.
                        Err(_) => reads_err += 1,
                    }
                }
            }
            Err(_) => reads_err += 4,
        }

        // --- row updates, idempotent ids + app-level retry on remote
        // rejections (injected commit/fsync failures reach the client as
        // typed remote errors; the content is index-idempotent) ---
        if let Ok(mut updater) = dial(addr, "updater").map(Connection::into_update_client) {
            for j in 0..3usize {
                let index = 10 + 3 * p + j;
                let value = format!("upd p{p} j{j} v{}", seed % 1000).into_bytes();
                for _attempt in 0..10 {
                    match updater.put(index, value.clone()) {
                        Ok(_epoch) => {
                            acked.insert(index, value.clone());
                            break;
                        }
                        Err(e) => {
                            assert!(
                                !e.to_string().is_empty(),
                                "errors must be typed and described"
                            );
                        }
                    }
                }
            }
        }

        // --- keyword gets and mutations ---
        if let Ok(mut kv) = dial(ks_addr, "kv").and_then(|c| {
            c.into_kv_client(&ks_params, rand::rngs::StdRng::seed_from_u64(seed ^ 0xA5 ^ p as u64))
        }) {
            match kv.get(b"key:03") {
                Ok(got) => {
                    let want = kv_acked.get(&b"key:03"[..]).copied().or(Some(503));
                    assert_eq!(got, want, "profile {p}: completed kv get must be exact");
                    reads_ok += 1;
                }
                Err(_) => reads_err += 1,
            }
            let fresh_key = format!("chaos:{p}").into_bytes();
            for _attempt in 0..10 {
                if kv.put(&fresh_key, 9000 + p as u64).is_ok() {
                    kv_acked.insert(fresh_key.clone(), 9000 + p as u64);
                    break;
                }
            }
        }
        let roles: Vec<String> = counters
            .iter()
            .map(|(role, c)| {
                format!(
                    "\"{role}\": {{ \"retries\": {}, \"reconnects\": {}, \"timeouts\": {} }}",
                    c.retries(),
                    c.reconnects(),
                    c.timeouts()
                )
            })
            .collect();
        client_retries.push(format!(
            "{{ \"site\": \"{}\", \"action\": \"{:?}\", {} }}",
            profile.site.name(),
            profile.action,
            roles.join(", ")
        ));
    }

    let injected: Vec<(String, u64)> =
        Site::ALL.iter().map(|s| (s.name().to_string(), fault::injected(*s))).collect();
    let injected_total = fault::injected_total();
    fault::disarm();

    // --- faults cleared: every acked write must now be visible ---
    let verify_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFACE);
    let mut verifier = Connection::new(ive_serve::tcp::connect(addr).expect("dial"))
        .into_serve_client(&params, verify_rng)
        .expect("clean handshake");
    for (&index, value) in &acked {
        let got = verifier.retrieve(index).expect("clean retrieve");
        assert_eq!(&got[..value.len()], &value[..], "acked update to row {index} was lost");
    }
    let mut kv_verifier = Connection::new(ive_serve::tcp::connect(ks_addr).expect("dial"))
        .into_kv_client(&ks_params, rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF))
        .expect("clean ks handshake");
    for (key, &value) in &kv_acked {
        assert_eq!(
            kv_verifier.get(key).expect("clean kv get"),
            Some(value),
            "acked kv write to {:?} was lost",
            String::from_utf8_lossy(key)
        );
    }
    drop(verifier);
    drop(kv_verifier);

    assert!(injected_total > 0, "the chaos sweep must actually inject faults");
    assert!(reads_ok > 0, "some reads must complete under chaos ({reads_err} typed failures)");
    assert!(!acked.is_empty(), "some updates must ack under chaos");

    let stats = service.shutdown_deadline(Duration::from_secs(10));
    let ks_stats = ks_service.shutdown();
    assert_no_service_threads("the mixed-traffic sweep");

    // Artifact for CI: what was injected and what the servers counted.
    let mut json = String::new();
    json.push_str(&format!(
        "{{\n  \"seed\": {seed},\n  \"injected_total\": {injected_total},\n  \"injected\": {{"
    ));
    for (i, (name, count)) in injected.iter().enumerate() {
        json.push_str(&format!("{}\"{name}\": {count}", if i == 0 { " " } else { ", " }));
    }
    json.push_str(&format!(
        " }},\n  \"reads_ok\": {reads_ok},\n  \"reads_typed_errors\": {reads_err},\n  \
         \"acked_updates\": {},\n  \"index\": {{ \"queries\": {}, \"errors\": {}, \
         \"timeouts\": {}, \"retries\": {}, \"reconnects\": {}, \"worker_panics\": {}, \
         \"drained_jobs\": {} }},\n  \"keyword\": {{ \"queries\": {}, \"errors\": {}, \
         \"retries\": {}, \"reconnects\": {} }},\n  \"client_retries\": [\n    {}\n  ]\n}}\n",
        acked.len() + kv_acked.len(),
        stats.queries,
        stats.errors,
        stats.timeouts,
        stats.retries,
        stats.reconnects,
        stats.worker_panics,
        stats.drained_jobs,
        ks_stats.queries,
        ks_stats.errors,
        ks_stats.retries,
        ks_stats.reconnects,
        client_retries.join(",\n    "),
    ));
    let out = std::env::var("CHAOS_STATS_JSON")
        .map_or_else(|_| PathBuf::from("target/chaos_stats.json"), PathBuf::from);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::File::create(&out) {
        let _ = f.write_all(json.as_bytes());
        println!("chaos stats written to {}", out.display());
    }
    let _ = std::fs::remove_file(&journal_path);
    drop(session);
}

/// A replicated toy engine, as the service would build it.
fn index_engine(params: &PirParams, db: Database) -> IndexEngine {
    IndexEngine::new(
        params,
        db,
        1,
        TournamentOrder::Hs { subtree_depth: 2 },
        ive_pir::BackendKind::Optimized,
    )
    .expect("engine builds")
}

/// Record `index` as the engine serves it now, retrieved privately.
fn served_record(engine: &IndexEngine, params: &PirParams, index: usize) -> Vec<u8> {
    let mut client =
        PirClient::new(params, rand::rngs::StdRng::seed_from_u64(index as u64)).expect("keygen");
    let query = client.query(index).expect("in range");
    let answers = engine
        .answer_batch_with(&[(client.public_keys(), &query)], &mut QueryScratch::new())
        .expect("clean answer");
    client.decode(&query, &answers[0]).expect("decrypts")
}

/// An injected fsync failure must leave the batch invisible *and*
/// unreplayable: the journal's contract is append-durable-then-visible,
/// so a batch whose record never reached disk must not exist anywhere.
#[test]
fn injected_fsync_failure_keeps_staged_batch_invisible_and_unreplayable() {
    let session = begin_faults(chaos_seed());
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let path = tmp_path("fsync-journal");
    let _ = std::fs::remove_file(&path);

    let engine = index_engine(&params, db);
    let (journal, replayed) = Journal::open(&path, &params).expect("journal opens");
    assert!(replayed.is_empty());
    engine.set_journal(journal);

    fault::set(Site::Fsync, 1.0, Action::Error);
    let update = RecordUpdate::put(3, b"must never be visible".to_vec());
    let err = engine
        .apply_updates(std::slice::from_ref(&update))
        .expect_err("fsync fault must fail the update");
    assert!(err.to_string().contains("injected"), "unhelpful: {err}");
    assert_eq!(engine.updates_applied(), 0, "failed append must not apply");
    assert_eq!(engine.epoch(), 0, "no epoch may open");

    // The un-synced record must not replay either.
    fault::disarm();
    let (journal, replayed) = Journal::open(&path, &params).expect("journal reopens");
    assert!(replayed.is_empty(), "failed append left a replayable record: {}", replayed.len());
    drop(journal);

    // And the same engine heals: the retry commits and is seen.
    let (journal, _) = Journal::open(&path, &params).expect("journal reopens");
    engine.set_journal(journal);
    let epoch = engine.apply_updates(&[update]).expect("clean commit");
    assert_eq!(epoch, 1);
    let _ = std::fs::remove_file(&path);
    drop(session);
}

/// A batch whose commit fails is reported as failed and must stay
/// applied nowhere: the next, unrelated commit must not carry it in.
#[test]
fn a_failed_commit_is_never_applied_by_a_later_one() {
    let session = begin_faults(chaos_seed());
    let params = PirParams::toy();
    let (db, records) = toy_db(&params);
    let engine = index_engine(&params, db);

    fault::set(Site::EpochCommit, 1.0, Action::Error);
    let err = engine
        .apply_updates(&[RecordUpdate::put(3, b"reported as failed".to_vec())])
        .expect_err("commit fault must fail the update");
    assert!(err.to_string().contains("injected"), "unhelpful: {err}");
    assert_eq!(engine.epoch(), 0, "no epoch may open");

    fault::disarm();
    let epoch = engine
        .apply_updates(&[RecordUpdate::put(4, b"a later batch".to_vec())])
        .expect("clean commit");
    assert_eq!(epoch, 1, "the later batch commits alone, as one epoch");
    let three = served_record(&engine, &params, 3);
    assert_eq!(
        String::from_utf8_lossy(&three[..records[3].len()]),
        String::from_utf8_lossy(&records[3]),
        "a batch reported as failed was applied"
    );
    assert_eq!(&served_record(&engine, &params, 4)[..13], b"a later batch");
    assert_eq!(engine.updates_applied(), 1, "only the later batch's delta was applied");
    drop(session);
}

/// The journal side of the same promise: a batch whose commit fails is
/// checkpointed out of the journal, so a restart cannot replay it.
#[test]
fn a_failed_commit_leaves_nothing_to_replay() {
    let session = begin_faults(chaos_seed());
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let path = tmp_path("commit-journal");
    let _ = std::fs::remove_file(&path);
    let engine = index_engine(&params, db);
    let (journal, replayed) = Journal::open(&path, &params).expect("journal opens");
    assert!(replayed.is_empty());
    engine.set_journal(journal);

    fault::set(Site::EpochCommit, 1.0, Action::Error);
    engine
        .apply_updates(&[RecordUpdate::put(3, b"reported as failed".to_vec())])
        .expect_err("commit fault must fail the update");
    fault::disarm();
    assert_eq!(engine.epoch(), 0, "no epoch may open");

    let (_, replayed) = Journal::open(&path, &params).expect("journal reopens");
    assert!(replayed.is_empty(), "a failed commit left {} replayable batch(es)", replayed.len());
    let _ = std::fs::remove_file(&path);
    drop(session);
}

/// Word-identical replay: append batches under a 60% fsync fault rate
/// with retries; after reopening, the replayed batches must be the acked
/// ones exactly — same count, same order, same canonical wire bytes.
#[test]
fn journal_replay_matches_acked_batches_word_for_word() {
    let seed = chaos_seed();
    let session = begin_faults(seed);
    let params = PirParams::toy();
    let path = tmp_path("replay-journal");
    let _ = std::fs::remove_file(&path);

    let (mut journal, replayed) = Journal::open(&path, &params).expect("journal opens");
    assert!(replayed.is_empty());
    fault::set(Site::Fsync, 0.6, Action::Error);

    let mut acked: Vec<Vec<RecordUpdate>> = Vec::new();
    let mut faulted = 0u32;
    for k in 0..16usize {
        let batch = vec![RecordUpdate::put(k % 8, format!("r{k} v{seed}").into_bytes())];
        // Bounded retry: each failed append must roll back cleanly, so
        // retrying the same batch never double-writes.
        let mut ok = false;
        for _attempt in 0..64 {
            match journal.append(&batch) {
                Ok(()) => {
                    ok = true;
                    break;
                }
                Err(_) => faulted += 1,
            }
        }
        assert!(ok, "p=0.6 must admit an append within 64 tries");
        acked.push(batch);
    }
    assert!(faulted > 0, "a 60% fault rate must fail some appends");
    assert_eq!(journal.pending_batches(), acked.len() as u64);
    drop(journal);
    fault::disarm();

    let (journal, replayed) = Journal::open(&path, &params).expect("journal reopens");
    assert_eq!(replayed.len(), acked.len(), "replay must carry exactly the acked batches");
    for (i, (got, want)) in replayed.iter().zip(&acked).enumerate() {
        // Canonical wire encoding is the word-identity oracle: identical
        // frames mean identical indices, lengths, and payload words.
        let got_frame = wire::encode_update_rows(7, got).expect("encodes");
        let want_frame = wire::encode_update_rows(7, want).expect("encodes");
        assert_eq!(got_frame, want_frame, "batch {i} replayed differently than acked");
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    drop(session);
}

/// One serving plane under test: how to start it, and how to read from
/// it. The robustness contract is the service's, not an engine's, so the
/// panic-isolation and drain tests below take the plane as their input.
trait Plane {
    type Engine: Engine;
    type Client: Send + 'static;

    fn start(config: ServeConfig, transport: Box<dyn Transport>) -> ServiceHandle<Self::Engine>;

    fn connect(conn: Connection) -> Self::Client;

    /// Reads item `i` and checks it bit for bit.
    fn read(client: &mut Self::Client, i: usize) -> Result<(), ServeError>;

    /// Puts reads of items `0..n` in flight; the returned closure waits
    /// for them and counts `(bit-correct answers, typed errors)`,
    /// panicking on an untyped failure.
    fn in_flight(client: Self::Client, n: usize) -> Box<dyn FnOnce() -> (u32, u32) + Send>;
}

fn typed(outcome: Result<(), ServeError>, counts: &mut (u32, u32)) {
    match outcome {
        Ok(()) => counts.0 += 1,
        Err(ServeError::Remote { .. } | ServeError::Closed | ServeError::Timeout) => counts.1 += 1,
        Err(e) => panic!("untyped failure: {e}"),
    }
}

struct IndexPlane;

impl Plane for IndexPlane {
    type Engine = IndexEngine;
    type Client = ServeClient;

    fn start(config: ServeConfig, transport: Box<dyn Transport>) -> ServiceHandle {
        let params = PirParams::toy();
        PirService::start(config, &params, toy_db(&params).0, transport).expect("service starts")
    }

    fn connect(conn: Connection) -> ServeClient {
        conn.into_serve_client(&PirParams::toy(), rand::rngs::StdRng::seed_from_u64(7))
            .expect("handshake")
    }

    fn read(client: &mut ServeClient, i: usize) -> Result<(), ServeError> {
        let want = &toy_db(&PirParams::toy()).1[i];
        client.retrieve(i).map(|got| assert_eq!(&got[..want.len()], &want[..]))
    }

    /// Pipelined: all `n` queries are submitted before the first answer
    /// is awaited, so they sit in the service's queue.
    fn in_flight(mut client: ServeClient, n: usize) -> Box<dyn FnOnce() -> (u32, u32) + Send> {
        for q in 0..n {
            client.submit(q).expect("submit");
        }
        Box::new(move || {
            let records = toy_db(&PirParams::toy()).1;
            let mut counts = (0, 0);
            while client.in_flight() > 0 && counts.0 + counts.1 < n as u32 {
                let outcome = client.next_record().map(|(request_id, got)| {
                    let want = &records[(request_id - 1) as usize];
                    assert_eq!(&got[..want.len()], &want[..]);
                });
                typed(outcome, &mut counts);
            }
            counts
        })
    }
}

struct KeywordPlane;

impl Plane for KeywordPlane {
    type Engine = KeywordEngine;
    type Client = KvClient;

    fn start(config: ServeConfig, transport: Box<dyn Transport>) -> KeywordHandle {
        let params = KsPirParams::toy();
        let entries: Vec<(Vec<u8>, u64)> =
            (0..16u64).map(|i| (format!("key:{i:02}").into_bytes(), 500 + i)).collect();
        let store = KvStore::build(&params, &entries).expect("table builds");
        PirService::start_keyword(config, &params, store, transport).expect("service starts")
    }

    fn connect(conn: Connection) -> KvClient {
        conn.into_kv_client(&KsPirParams::toy(), rand::rngs::StdRng::seed_from_u64(7))
            .expect("handshake")
    }

    fn read(client: &mut KvClient, i: usize) -> Result<(), ServeError> {
        let got = client.get(format!("key:{i:02}").as_bytes())?;
        assert_eq!(got, Some(500 + i as u64));
        Ok(())
    }

    /// A `get` blocks on its slot queries, so the reads run on a thread
    /// of their own, one after the other.
    fn in_flight(mut client: KvClient, n: usize) -> Box<dyn FnOnce() -> (u32, u32) + Send> {
        let reads = std::thread::spawn(move || {
            let mut counts = (0, 0);
            for i in 0..n {
                typed(Self::read(&mut client, i), &mut counts);
            }
            counts
        });
        Box::new(move || reads.join().expect("reader thread"))
    }
}

/// A worker panic (injected at the `worker_compute` site) must be
/// isolated: the client still gets the right record — through the
/// per-query fallback where a batch shares a database pass, so that one
/// poisonous query cannot take its companions with it — or, where a
/// batch shares nothing and there is nothing to fall back to, exactly a
/// typed error frame; the panic is counted; and the same connection
/// keeps being served afterwards.
fn worker_panics_are_isolated<P: Plane>() {
    let config = ServeConfig {
        window: Duration::from_millis(5),
        max_batch: 4,
        workers: 1,
        accept_updates: false,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service = P::start(config, Box::new(transport));
    let mut client = P::connect(Connection::new(connector.connect().expect("dial")));

    // Every batch answer panics.
    fault::set(Site::WorkerCompute, 1.0, Action::Error);
    let through_the_panic = P::read(&mut client, 5);
    if P::Engine::SHARED_PASS {
        through_the_panic.expect("fallback must answer through the panic");
    } else {
        let err = through_the_panic.expect_err("a panicking query cannot be answered");
        assert!(
            matches!(err, ServeError::Remote { .. }),
            "panics must reach the client typed: {err}"
        );
    }

    fault::clear(Site::WorkerCompute);
    P::read(&mut client, 6).expect("clean read on the same connection after the panic");

    drop(client);
    let stats = service.shutdown();
    assert!(stats.worker_panics >= 1, "panics must be counted: {stats}");
    if P::Engine::SHARED_PASS {
        assert_eq!(stats.errors, 0, "isolation must not fail queries: {stats}");
    }
    assert_no_service_threads("panic recovery");
}

#[test]
fn worker_panics_are_isolated_counted_and_survivable() {
    let session = begin_faults(chaos_seed());
    worker_panics_are_isolated::<IndexPlane>();
    worker_panics_are_isolated::<KeywordPlane>();
    drop(session);
}

/// Graceful drain under slowed compute: what the service admitted before
/// the drain finishes inside the deadline (counted as drained), the
/// handle returns promptly, and no `ive-*` thread survives. A second
/// round with compute slower than the deadline proves the abort path
/// answers what remains with typed errors instead of hanging.
fn graceful_drain_answers_everything<P: Plane>() {
    // Round 1: slow-but-finishable compute, generous deadline.
    let config = ServeConfig {
        window: Duration::from_millis(20),
        max_batch: 4,
        workers: 1,
        accept_updates: false,
        ..ServeConfig::default()
    };
    let (transport, connector) = in_proc_pair();
    let service = P::start(config.clone(), Box::new(transport));
    fault::set(Site::WorkerCompute, 1.0, Action::Delay(Duration::from_millis(100)));

    let client = P::connect(Connection::new(connector.connect().expect("dial")));
    let outcomes = P::in_flight(client, 3);
    // Let the reads reach the pipeline before the drain begins.
    std::thread::sleep(Duration::from_millis(60));
    let begun = Instant::now();
    let drained = std::thread::spawn(move || service.shutdown_deadline(Duration::from_secs(10)));
    let (correct, typed_errors) = outcomes();
    let stats = drained.join().expect("drain thread");
    assert!(begun.elapsed() < Duration::from_secs(10), "the drain outlived its deadline");
    if P::Engine::SHARED_PASS {
        // All three were queued when the drain began, and a queue drains.
        assert_eq!((correct, typed_errors), (3, 0), "a 10s deadline must drain 3 slow queries");
        assert!(stats.drained_jobs >= 1, "drained answers must be counted: {stats}");
    } else {
        // No queue: the query being computed finishes, and the frames the
        // handler never read fail typed at the client when it hangs up.
        assert_eq!(correct + typed_errors, 3, "every read must resolve: {stats}");
    }
    assert_no_service_threads("graceful drain");

    // Round 2: compute slower than the deadline — remaining jobs must be
    // answered with *typed* errors, and the handle must still return.
    let (transport, connector) = in_proc_pair();
    let service = P::start(config, Box::new(transport));
    fault::set(Site::WorkerCompute, 1.0, Action::Delay(Duration::from_millis(600)));
    let conn = Connection::new(connector.connect().expect("dial"));
    let client = P::connect(conn.with_timeout(Duration::from_secs(8)));
    let outcomes = P::in_flight(client, 4);
    std::thread::sleep(Duration::from_millis(50));
    let begun = Instant::now();
    let drained = std::thread::spawn(move || service.shutdown_deadline(Duration::from_millis(300)));
    let (correct, typed_errors) = outcomes();
    let stats = drained.join().expect("drain thread");
    assert!(
        begun.elapsed() < Duration::from_secs(8),
        "the abort path must not wait out 4 × 600ms of compute"
    );
    assert!(
        correct + typed_errors >= 1,
        "every in-flight query must resolve to an answer or a typed error"
    );
    assert_no_service_threads(&format!("deadline abort ({stats})"));
}

#[test]
fn graceful_drain_answers_everything_and_leaks_no_threads() {
    let session = begin_faults(chaos_seed());
    graceful_drain_answers_everything::<IndexPlane>();
    graceful_drain_answers_everything::<KeywordPlane>();
    drop(session);
}
