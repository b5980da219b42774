//! `kv_mix_tcp`: the keyword service over TCP. Thread 1: closed-loop
//! `KvClient::get`, 80 % keys that are present and 20 % that are not.
//! Thread 2: two `put`/`delete` a second on its own keys, each followed
//! by a `get` on the same connection that must read what was written.
//! The reader's keys are never mutated, so every expected value is exact.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ive_he::{BfvCiphertext, HeParams};
use ive_pir::{wire, KsPirClient, KsPirParams, KvStore};
use ive_serve::{Connection, KeywordHandle, KvClient, PirService, TcpTransport};
use rand::rngs::StdRng;
use rand::Rng;

use super::tcp_index::{recv_frame, stats_rtt_probe, RESPONSE_TIMEOUT};
use super::{every, finish, probes, repeat_setup, run_for, serve_config, Ctx, Outcomes, WARM_IDS};
use crate::json::Json;
use crate::report::Report;
use crate::{gen, stats};

pub const NAME: &str = "kv_mix_tcp";

/// Keys the reader asks for and nobody writes.
const STATIC_KEYS: u64 = 192;
/// Keys the writer owns; all present at start.
const WRITER_KEYS: u64 = 64;
const PRESENT_SHARE: f64 = 0.8;
/// The writer's own get runs beside the reader's on a second handler
/// thread and slows it. At one write every 500 ms that is a quarter of
/// the time: the reader's median is a get alone, its p90 a get beside
/// another. (At four writes a second the two cases split the time about
/// evenly and the median flipped between them from run to run.)
const WRITE_EVERY: Duration = Duration::from_millis(500);

fn params() -> KsPirParams {
    KsPirParams::new(HeParams::toy(), 4)
}

fn static_key(seed: u64, i: u64) -> Vec<u8> {
    format!("s-{seed:x}-{i}").into_bytes()
}

fn writer_key(seed: u64, i: u64) -> Vec<u8> {
    format!("w-{seed:x}-{i}").into_bytes()
}

/// The value key `i` holds after `version` writes.
fn value(seed: u64, i: u64, version: u64) -> u64 {
    gen::prf(seed, i, version)
}

struct KvService {
    handle: KeywordHandle,
    addr: SocketAddr,
}

fn start(ctx: &Ctx) -> Result<KvService, String> {
    let entries: Vec<(Vec<u8>, u64)> = (0..STATIC_KEYS)
        .map(|i| (static_key(ctx.seed, i), value(ctx.seed, i, 0)))
        .chain(
            (0..WRITER_KEYS)
                .map(|i| (writer_key(ctx.seed, i), value(ctx.seed, STATIC_KEYS + i, 0))),
        )
        .collect();
    let store = ctx
        .rec
        .span("pir.kv.build", 0, || KvStore::build(&params(), &entries))
        .map_err(|e| format!("store build: {e}"))?;
    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = transport.local_addr();
    let handle =
        PirService::start_keyword(serve_config(true, None), &params(), store, Box::new(transport))
            .map_err(|e| format!("service start: {e}"))?;
    Ok(KvService { handle, addr })
}

fn connect(ctx: &Ctx, svc: &KvService, lane: u64) -> Result<KvClient, String> {
    let conn = ive_serve::tcp::connect(svc.addr).map_err(|e| format!("dial: {e}"))?;
    Connection::new(conn)
        .into_kv_client(&params(), gen::rng(ctx.seed, gen::Stream::ClientKeys, lane))
        .map_err(|e| format!("handshake: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let ks = params();
    let geometry = Json::obj([
        ("ring_n", Json::from(ks.he().n())),
        ("chunks", Json::from(ks.chunks())),
        ("scalars", Json::from(ks.num_scalars())),
        ("entries", Json::from(STATIC_KEYS + WRITER_KEYS)),
    ]);
    let mut report = Report::new(NAME, geometry);
    let (svc, mut reader, mut writer) = repeat_setup(ctx, &mut report, || {
        let svc = start(ctx)?;
        let reader = connect(ctx, &svc, 0)?;
        let writer = connect(ctx, &svc, 1)?;
        Ok((svc, reader, writer))
    })?;

    // A get always fetches both candidate buckets, slot by slot.
    let slot_queries = 2 * reader.schema().group_slots();
    let mut sizing = KsPirClient::new(&ks, gen::rng(ctx.seed, gen::Stream::ClientKeys, 99))
        .map_err(|e| e.to_string())?;
    let query = sizing.query(0).map_err(|e| e.to_string())?;
    let query_bytes = wire::encode_ks_query(0, 0, &query).len();
    let response_bytes = wire::encode_ks_response(0, &BfvCiphertext::zero(ks.he())).len();
    report.set("query_bytes", (slot_queries * query_bytes) as f64, 1);
    report.set("response_bytes", (slot_queries * response_bytes) as f64, 1);

    if ctx.traced {
        report.set("pir.kv.slot_queries_per_get", slot_queries as f64, 1);
        probes::math(ctx, &mut report, false);
        let key = &sizing.public_keys().trace_keys()[0];
        probes::he(ctx, ks.he(), key, &query.chunk_bits()[0], query.ct());
        kspir_probes(ctx, &mut report, &svc, &mut sizing);
        serve_probes(ctx, &mut report, &svc, &sizing, &mut reader);
    }

    let stop = AtomicBool::new(false);
    let mut keys = gen::rng(ctx.seed, gen::Stream::Indices, 0);
    let (warm, gets, wall, (writes, own_reads)) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| write_loop(ctx, &mut writer, &stop));
        // Untimed gets first, beside the writer like the timed ones.
        let warm = read_loop(ctx, &mut reader, &mut keys, WARM_IDS, ctx.warm_up());
        let started = Instant::now();
        let gets = read_loop(ctx, &mut reader, &mut keys, 0, ctx.phase(1.0));
        let wall = started.elapsed().as_secs_f64();
        // Relaxed: the flag publishes nothing but itself.
        stop.store(true, Ordering::Relaxed);
        (warm, gets, wall, writer_thread.join().expect("the writer thread does not panic"))
    });

    report.set("throughput_qps", gets.verified() as f64 / wall, gets.verified());
    gets.set_latency(&mut report, "latency_ms_p50", "latency_ms_p90");
    if writes.verified() > 0 {
        report.set("write_ack_ms_p50", stats::median(&writes.latencies_ms), writes.verified());
    }
    for side in [&warm, &gets, &writes, &own_reads] {
        side.add_counts_to(&mut report);
    }

    drop((reader, writer));
    svc.handle.shutdown();
    finish(ctx, &mut report);
    Ok(report)
}

/// One verified get of a key the writer never touches.
fn verified_get(
    ctx: &Ctx,
    client: &mut KvClient,
    rng: &mut StdRng,
    request: u64,
    out: &mut Outcomes,
) {
    let (key, expected) = if rng.gen_bool(PRESENT_SHARE) {
        let i = rng.gen_range(0..STATIC_KEYS);
        (static_key(ctx.seed, i), Some(value(ctx.seed, i, 0)))
    } else {
        (format!("absent-{}", rng.gen_range(0..u64::MAX)).into_bytes(), None)
    };
    let started = Instant::now();
    let got = ctx.rec.span("serve.kv.get", request, || client.get(&key));
    out.record(started, got.is_ok_and(|v| v == expected));
}

fn read_loop(
    ctx: &Ctx,
    reader: &mut KvClient,
    rng: &mut StdRng,
    first_request: u64,
    duration: Duration,
) -> Outcomes {
    let mut gets = Outcomes::default();
    run_for(duration, 1, || {
        let request = first_request + gets.attempted + 1;
        verified_get(ctx, reader, rng, request, &mut gets);
    });
    gets
}

/// One put or delete per tick of a fixed schedule, then a get of the
/// same key on the same connection. Returns the writes (latency is send
/// → ack carrying the committed epoch) and the read-your-writes gets.
fn write_loop(ctx: &Ctx, writer: &mut KvClient, stop: &AtomicBool) -> (Outcomes, Outcomes) {
    let mut rng = gen::rng(ctx.seed, gen::Stream::Writes, 0);
    // What each writer key holds now: its version, and whether present.
    let mut model: HashMap<u64, (u64, bool)> = (0..WRITER_KEYS).map(|i| (i, (0, true))).collect();
    let (mut writes, mut own_reads) = (Outcomes::default(), Outcomes::default());
    every(WRITE_EVERY, stop, |tick| {
        let i = rng.gen_range(0..WRITER_KEYS);
        let key = writer_key(ctx.seed, i);
        let entry = model.get_mut(&i).expect("every writer key is modelled");
        let delete = entry.1 && rng.gen_bool(0.5);
        let started = Instant::now();
        let acked = ctx.rec.span("serve.kv.write", u64::from(tick), || {
            if delete {
                writer.delete(&key)
            } else {
                entry.0 += 1;
                writer.put(&key, value(ctx.seed, STATIC_KEYS + i, entry.0))
            }
        });
        writes.record(started, acked.is_ok());
        if acked.is_err() {
            // Counted as failed; whether it landed is unknown, so no
            // read-your-writes check follows it.
            return;
        }
        entry.1 = !delete;
        let expected = entry.1.then(|| value(ctx.seed, STATIC_KEYS + i, entry.0));
        let started = Instant::now();
        let got = writer.get(&key);
        own_reads.record(started, got.is_ok_and(|v| v == expected));
    });
    (writes, own_reads)
}

/// `ive_pir::kspir` called directly on the service's current snapshot:
/// one slot query, answered and decoded, checked against the scalar the
/// server holds at that slot.
fn kspir_probes(ctx: &Ctx, report: &mut Report, svc: &KvService, client: &mut KsPirClient<StdRng>) {
    let server = svc.handle.engine().snapshot();
    let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 1);
    let mut out = Outcomes::default();
    let (budget, min) = probes::probe_budget(ctx);
    run_for(budget, min, || {
        let slot = rng.gen_range(0..server.params().num_scalars());
        let started = Instant::now();
        let scalar = (|| {
            let query = ctx.rec.span("pir.kspir.query", 0, || client.query(slot)).ok()?;
            let response = ctx
                .rec
                .span("pir.kspir.answer", 0, || server.answer(client.public_keys(), &query))
                .ok()?;
            let direct = ctx.rec.span("pir.kspir.decode", 0, || client.decode(&response)).ok()?;
            let response = ctx.rec.span("serve.kv.engine_answer", 0, || {
                svc.handle.engine().answer(client.public_keys(), &query)
            });
            (client.decode(&response.ok()?).ok()? == direct).then_some(direct)
        })();
        out.record(started, scalar == Some(server.scalars()[slot]));
    });
    out.add_counts_to(report);
}

/// The keyword service's wire floor — `KsHello → KsWelcome` and a
/// `GetStats` round trip on a raw connection — and gets on the idle
/// service, traced and untraced alternately, for the tracing overhead.
fn serve_probes(
    ctx: &Ctx,
    report: &mut Report,
    svc: &KvService,
    keys: &KsPirClient<StdRng>,
    reader: &mut KvClient,
) {
    let (budget, min) = probes::probe_budget(ctx);
    let mut out = Outcomes::default();
    if let Ok((mut rx, mut tx)) = ive_serve::tcp::connect(svc.addr) {
        let started = Instant::now();
        let welcomed = ctx.rec.span("serve.hello", 0, || {
            tx.send(&wire::encode_ks_hello(keys.public_keys())).map_err(|e| e.to_string())?;
            let frame = recv_frame(rx.as_mut(), RESPONSE_TIMEOUT)?;
            wire::decode_ks_welcome(&params(), &frame).map_err(|e| e.to_string())
        });
        out.record(started, welcomed.is_ok());
        stats_rtt_probe(ctx, rx.as_mut(), tx.as_mut(), &mut out);
    }

    let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 2);
    let (mut off, mut on) = (Outcomes::default(), Outcomes::default());
    let mut request = 1 << 40;
    run_for(2 * budget, 2 * min, || {
        request += 1;
        let traced = request % 2 == 0;
        ctx.rec.set_enabled(traced);
        verified_get(ctx, reader, &mut rng, request, if traced { &mut on } else { &mut off });
    });
    ctx.rec.set_enabled(true);
    probes::set_trace_overhead(report, &on, &off);
    out.add_counts_to(report);
}
