//! Fault-free recovery properties: frame-size hygiene, connection-death
//! self-healing on both serving planes, the one attempt budget per call,
//! update idempotency, and idle-connection reaping.
//!
//! Unlike `tests/chaos.rs`, nothing here arms the global failpoint
//! registry — failures are produced from the outside (oversized
//! prefixes, garbage frames, a proxy that severs the wire at frame
//! boundaries, duplicate update frames), so these tests run freely in
//! parallel within this binary.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bytes::Bytes;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use ive_pir::kspir::KsPirParams;
use ive_pir::{wire, Database, KvStore, PirParams, RecordUpdate};
use ive_serve::config::ServeConfig;
use ive_serve::transport::{in_proc_pair, BoxedConn, Connector, FrameRx, Received};
use ive_serve::{
    Connection, KeywordHandle, PirService, RetryPolicy, ServeError, ServiceHandle, TcpConnector,
    TcpTransport,
};

fn toy_db(params: &PirParams) -> (Database, Vec<Vec<u8>>) {
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("recov record {i:04}").into_bytes()).collect();
    (Database::from_records(params, &records).expect("records fit"), records)
}

/// The keyword store's entries: `kv:NN` → `700 + NN`.
fn kv_entries() -> Vec<(Vec<u8>, u64)> {
    (0..16u64).map(|i| (format!("kv:{i:02}").into_bytes(), 700 + i)).collect()
}

/// One read-only service per plane over real TCP, shared by every
/// property case in this binary (cases never mutate them and never shut
/// them down).
struct Shared {
    params: PirParams,
    records: Vec<Vec<u8>>,
    addr: SocketAddr,
    _service: ServiceHandle,
    ks_params: KsPirParams,
    ks_addr: SocketAddr,
    _ks_service: KeywordHandle,
}

fn shared() -> &'static Shared {
    static FIX: OnceLock<Shared> = OnceLock::new();
    FIX.get_or_init(|| {
        let params = PirParams::toy();
        let (db, records) = toy_db(&params);
        let config = ServeConfig {
            window: Duration::from_millis(5),
            max_batch: 8,
            workers: 2,
            accept_updates: false,
            ..ServeConfig::default()
        };
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = transport.local_addr();
        let service = PirService::start(config.clone(), &params, db, Box::new(transport))
            .expect("service starts");
        let ks_params = KsPirParams::toy();
        let store = KvStore::build(&ks_params, &kv_entries()).expect("table builds");
        let ks_transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
        let ks_addr = ks_transport.local_addr();
        let ks_service =
            PirService::start_keyword(config, &ks_params, store, Box::new(ks_transport))
                .expect("keyword service starts");
        Shared {
            params,
            records,
            addr,
            _service: service,
            ks_params,
            ks_addr,
            _ks_service: ks_service,
        }
    })
}

/// Receives the next frame from a boxed connection, tolerating idle
/// polls up to a deadline.
fn recv_frame(rx: &mut Box<dyn FrameRx>, deadline: Duration) -> Bytes {
    let begun = Instant::now();
    loop {
        match rx.recv().expect("recv") {
            Received::Frame(frame) => return frame,
            Received::Idle => assert!(begun.elapsed() < deadline, "no frame within {deadline:?}"),
            Received::Closed => panic!("peer closed while a frame was expected"),
        }
    }
}

/// Pumps whole length-prefixed frames from `from` to `to`; with a
/// budget, severs both sockets at the budget'th frame boundary instead
/// of forwarding it.
fn pump(mut from: TcpStream, mut to: TcpStream, budget: Option<u32>) {
    let mut forwarded = 0u32;
    loop {
        let mut len_buf = [0u8; 4];
        if from.read_exact(&mut len_buf).is_err() {
            break;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        let mut payload = vec![0u8; len];
        if from.read_exact(&mut payload).is_err() {
            break;
        }
        if budget.is_some_and(|b| forwarded >= b) {
            // Kill the whole connection at a clean frame boundary: the
            // peer sees an orderly close, never a torn frame.
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            break;
        }
        if to.write_all(&len_buf).is_err() || to.write_all(&payload).is_err() {
            break;
        }
        forwarded += 1;
    }
}

/// A frame-aware proxy in front of `upstream` that severs the FIRST
/// proxied connection after `sever_after` whole frames in the chosen
/// direction; every later connection is forwarded untouched. Returns the
/// address clients should dial.
fn severing_proxy(upstream: SocketAddr, sever_after: u32, sever_c2s: bool) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        for (n, client) in listener.incoming().take(8).enumerate() {
            let Ok(client) = client else { break };
            let Ok(server) = TcpStream::connect(upstream) else { break };
            let (c2s_budget, s2c_budget) = if n == 0 {
                if sever_c2s {
                    (Some(sever_after), None)
                } else {
                    (None, Some(sever_after))
                }
            } else {
                (None, None)
            };
            let (c2, s2) = (client.try_clone().expect("clone"), server.try_clone().expect("clone"));
            std::thread::spawn(move || pump(client, server, c2s_budget));
            std::thread::spawn(move || pump(s2, c2, s2c_budget));
        }
    });
    addr
}

/// A length prefix past `MAX_FRAME_BYTES` must surface as the typed
/// protocol error naming the cap — on the *client's* receive path too,
/// so a hostile or corrupted server cannot make a client allocate 4GB.
#[test]
fn oversized_frame_prefix_is_a_typed_error_on_the_client_side() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let feeder = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        peer.write_all(&u32::MAX.to_be_bytes()).expect("prefix");
        peer.write_all(b"irrelevant").expect("body");
        peer.flush().expect("flush");
        // Hold the socket open: the client must reject on the prefix
        // alone, not wait for 4GB that will never arrive.
        std::thread::sleep(Duration::from_millis(500));
    });

    let (mut rx, _tx) = ive_serve::tcp::connect(addr).expect("dial");
    let begun = Instant::now();
    let err = loop {
        match rx.recv() {
            Ok(Received::Frame(_)) => panic!("an oversized frame must not decode"),
            Ok(Received::Idle) => {
                assert!(begun.elapsed() < Duration::from_secs(5), "cap check must not hang")
            }
            Ok(Received::Closed) => panic!("cap violation must be typed, not a silent close"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("cap"), "unhelpful cap error: {err}");
    feeder.join().expect("feeder");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Garbage frames with in-range length prefixes must never hang or
    /// kill the server: within a bounded wait the connection either
    /// yields a typed error frame or closes, and the service goes on
    /// serving everyone else (the sever property below keeps using it).
    #[test]
    fn garbage_frames_get_a_typed_error_or_a_close_never_a_hang(
        seed in any::<u64>(),
        len in 1usize..2048,
    ) {
        let fix = shared();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut stream = TcpStream::connect(fix.addr).expect("dial");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        stream.write_all(&(len as u32).to_be_bytes()).expect("prefix");
        stream.write_all(&payload).expect("body");
        stream.flush().expect("flush");

        // The server replies with an error frame or closes; a read
        // timeout here means it hung.
        let mut len_buf = [0u8; 4];
        match stream.read_exact(&mut len_buf) {
            Err(_) => {} // closed without a reply: acceptable rejection
            Ok(()) => {
                let rlen = u32::from_be_bytes(len_buf) as usize;
                prop_assert!(rlen <= 1 << 20, "implausible reply length {rlen}");
                let mut reply = vec![0u8; rlen];
                stream.read_exact(&mut reply).expect("reply body");
                let frame = Bytes::from(reply);
                prop_assert_eq!(wire::peek_tag(&frame).expect("decodable reply"), wire::Tag::Error);
                let (_, message) = wire::decode_error_frame(&frame).expect("typed error");
                prop_assert!(!message.is_empty(), "error frames must carry a message");
            }
        }
    }


    /// Connection-death recovery, on both planes: a proxy severs the
    /// first connection at a random whole-frame boundary, in either
    /// direction — during the handshake, after a query went out, or
    /// before an answer came back. A retrying client must transparently
    /// re-dial, re-Hello, resubmit its pending queries (a keyword get's
    /// two bucket queries alike), and produce bit-identical answers.
    #[test]
    fn severed_connections_recover_to_bit_identical_answers(
        sever_after in 0u32..4,
        sever_c2s in any::<bool>(),
        case_seed in any::<u64>(),
    ) {
        for plane in [Plane::Index, Plane::Keyword] {
            severed_plane_recovers(plane, sever_after, sever_c2s, case_seed)?;
        }
    }
}

/// The two serving planes a retrieval client can speak.
#[derive(Debug, Clone, Copy)]
enum Plane {
    Index,
    Keyword,
}

/// One case of the severing property on `plane`: dial the plane's shared
/// service through a proxy that severs the first connection after
/// `sever_after` frames, then read three answers and check each against
/// what the service holds.
fn severed_plane_recovers(
    plane: Plane,
    sever_after: u32,
    sever_c2s: bool,
    case_seed: u64,
) -> Result<(), TestCaseError> {
    let fix = shared();
    let upstream = match plane {
        Plane::Index => fix.addr,
        Plane::Keyword => fix.ks_addr,
    };
    let proxy = severing_proxy(upstream, sever_after, sever_c2s);
    let retry = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        jitter_seed: case_seed,
    };
    let connector = TcpConnector::new(proxy).expect("resolve");
    let conn = Connection::dial(connector)
        .expect("dial through proxy")
        .with_retry(retry)
        .with_timeout(Duration::from_secs(10));
    let rng = rand::rngs::StdRng::seed_from_u64(case_seed);
    match plane {
        Plane::Index => {
            let mut client =
                conn.into_serve_client(&fix.params, rng).expect("handshake survives severing");
            for q in 0..3usize {
                let target = (case_seed as usize + 7 * q) % fix.records.len();
                let got = client.retrieve(target).expect("retrieve survives severing");
                prop_assert_eq!(
                    &got[..fix.records[target].len()],
                    &fix.records[target][..],
                    "record {} differs after recovery",
                    target
                );
            }
        }
        Plane::Keyword => {
            let mut client =
                conn.into_kv_client(&fix.ks_params, rng).expect("kv handshake survives severing");
            let entries = kv_entries();
            // Two stored keys, then one the store never held.
            for q in 0..3usize {
                let key = match q {
                    2 => b"kv:absent".to_vec(),
                    _ => entries[(case_seed as usize + 5 * q) % entries.len()].0.clone(),
                };
                let want = entries.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
                let got = client.get(&key).expect("get survives severing");
                prop_assert_eq!(
                    got,
                    want,
                    "key {} differs after recovery",
                    String::from_utf8_lossy(&key)
                );
            }
        }
    }
    Ok(())
}

/// A receive half that reports a close once it has passed `frames`
/// inbound frames: the connection dies there, whatever the server does.
struct DiesAfter {
    rx: Box<dyn FrameRx>,
    frames: u32,
}

impl FrameRx for DiesAfter {
    fn recv(&mut self) -> Result<Received, ServeError> {
        if self.frames == 0 {
            return Ok(Received::Closed);
        }
        let got = self.rx.recv()?;
        if matches!(got, Received::Frame(_)) {
            self.frames -= 1;
        }
        Ok(got)
    }
}

/// A connector whose first connection and every even re-dial die right
/// after their Welcome, and whose odd re-dials die before it: every
/// recovery either fails its re-Hello or loses the resubmitted query.
struct Flapping<C> {
    inner: C,
    dials: AtomicU32,
}

impl<C: Connector> Connector for Flapping<C> {
    fn dial(&self) -> Result<BoxedConn, ServeError> {
        let (rx, tx) = self.inner.dial()?;
        let frames = u32::from(self.dials.fetch_add(1, Ordering::Relaxed).is_multiple_of(2));
        Ok((Box::new(DiesAfter { rx, frames }), tx))
    }
}

/// `RetryPolicy::max_attempts` bounds a whole public call: however the
/// failures fall — a re-Hello that dies, then a resubmitted query that
/// does — `retrieve` and `get` each fail with a typed transport error
/// after at most `max_attempts − 1` counted retries.
#[test]
fn one_call_retries_at_most_max_attempts_minus_one_times() {
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 3,
    };
    let config = ServeConfig { accept_updates: false, ..ServeConfig::default() };
    let dial = |connector| {
        let conn = Connection::dial(Flapping { inner: connector, dials: AtomicU32::new(0) })
            .expect("dial")
            .with_retry(retry);
        let counters = conn.retry_counters();
        (conn, counters)
    };
    let check = |err: ServeError, retries: u64, call: &str| {
        assert!(matches!(err, ServeError::Closed), "{call} must fail typed: {err}");
        assert!(
            (1..=u64::from(retry.max_attempts - 1)).contains(&retries),
            "{call} took {retries} retries on a budget of {}",
            retry.max_attempts - 1
        );
    };

    let params = PirParams::toy();
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config.clone(), &params, toy_db(&params).0, Box::new(transport))
            .expect("service starts");
    let (conn, counters) = dial(connector);
    let mut client = conn
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(1))
        .expect("the first connection lives through its Welcome");
    let err = client.retrieve(3).expect_err("every connection dies");
    check(err, counters.retries(), "retrieve");
    drop(client);
    service.shutdown();

    let ks_params = KsPirParams::toy();
    let store = KvStore::build(&ks_params, &kv_entries()).expect("table builds");
    let (transport, connector) = in_proc_pair();
    let service = PirService::start_keyword(config, &ks_params, store, Box::new(transport))
        .expect("keyword service starts");
    let (conn, counters) = dial(connector);
    let mut client = conn
        .into_kv_client(&ks_params, rand::rngs::StdRng::seed_from_u64(2))
        .expect("the first connection lives through its Welcome");
    let err = client.get(b"kv:03").expect_err("every connection dies");
    check(err, counters.retries(), "get");
    drop(client);
    service.shutdown();
}

/// Update idempotency end to end: replaying the byte-identical
/// `UpdateRow` frame (same request id — exactly what a retrying client
/// sends after a lost ack) must hit the server's dedup cache, re-ack
/// with the *original* epoch, count a retry, and not re-apply.
#[test]
fn duplicate_update_frames_are_deduplicated_not_reapplied() {
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let config = ServeConfig { accept_updates: true, ..ServeConfig::default() };
    let (transport, connector) = in_proc_pair();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    let (mut rx, mut tx) = connector.connect().expect("dial");
    let frame = wire::encode_update_rows(42, &[RecordUpdate::put(5, b"dedup v1".to_vec())])
        .expect("encodes");
    tx.send(&frame).expect("send");
    let ack = recv_frame(&mut rx, Duration::from_secs(10));
    let (id, epoch, applied) = wire::decode_update_ack(&ack).expect("first ack");
    assert_eq!((id, applied), (42, 1));

    // The retry: same bytes, same id. The ack must be word-identical —
    // same epoch, same applied count — and nothing new may commit.
    tx.send(&frame).expect("resend");
    let ack2 = recv_frame(&mut rx, Duration::from_secs(10));
    assert_eq!(
        wire::decode_update_ack(&ack2).expect("replayed ack"),
        (42, epoch, 1),
        "a duplicate must be re-acked verbatim, not re-applied"
    );

    // A *distinct* update advances the epoch by exactly one from the
    // original — proof the duplicate never opened an epoch of its own.
    let frame2 = wire::encode_update_rows(43, &[RecordUpdate::put(6, b"dedup v2".to_vec())])
        .expect("encodes");
    tx.send(&frame2).expect("send distinct");
    let ack3 = recv_frame(&mut rx, Duration::from_secs(10));
    let (_, epoch3, _) = wire::decode_update_ack(&ack3).expect("third ack");
    assert_eq!(epoch3, epoch + 1, "the duplicate must not have consumed an epoch");

    drop((rx, tx));
    let stats = service.shutdown();
    assert_eq!(stats.retries, 1, "the dedup hit must be counted: {stats}");
}

/// A connection that goes silent is reaped at the idle deadline — the
/// server closes it and counts a timeout, so abandoned clients cannot
/// pin handler threads forever.
#[test]
fn idle_connections_are_reaped_and_counted() {
    let params = PirParams::toy();
    let (db, _records) = toy_db(&params);
    let config = ServeConfig {
        accept_updates: false,
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service =
        PirService::start(config, &params, db, Box::new(transport)).expect("service starts");

    let (mut rx, _tx) = ive_serve::tcp::connect(addr).expect("dial");
    let begun = Instant::now();
    loop {
        match rx.recv().expect("recv") {
            Received::Closed => break,
            Received::Idle => {
                assert!(
                    begun.elapsed() < Duration::from_secs(5),
                    "a silent connection must be reaped at the idle deadline"
                );
            }
            Received::Frame(_) => panic!("nothing was asked; nothing should arrive"),
        }
    }
    assert!(begun.elapsed() >= Duration::from_millis(250), "reaped before the deadline");

    let stats = service.shutdown();
    assert!(stats.timeouts >= 1, "the reap must be counted: {stats}");
}
