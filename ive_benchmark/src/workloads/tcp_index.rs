//! The index service over real TCP, as `serve_open_tcp` and
//! `serve_update_mix` both run it: set-up, a client speaking
//! `ive_pir::wire` directly, and the `ive_serve` probes of a traced run.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ive_pir::{wire, PirClient, PirParams, PirQuery, PirServer, QueryScratch};
use ive_serve::transport::{FrameRx, FrameTx, Received};
use ive_serve::{PirService, ServiceHandle, TcpTransport};
use rand::rngs::StdRng;
use rand::Rng;

use super::probes::{self, probe_budget, BATCH};
use super::{build_database, run_for, serve_config, served_params, Ctx, Outcomes, BACKEND, ORDER};
use crate::gen;
use crate::report::Report;

/// How long a client waits for one response before counting the request
/// as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Pre-generated queries a raw client cycles through.
const POOL: usize = 64;

/// A running index service with every record at version 0.
pub struct IndexService {
    pub params: PirParams,
    pub handle: ServiceHandle,
    pub addr: SocketAddr,
    /// Traced runs only: a bare `PirServer` over the same pages, for the
    /// `ive_pir` probes. Drop it before measuring the service.
    pub twin: Option<PirServer>,
}

/// Generates the records, preprocesses them and starts the service on an
/// ephemeral loopback port.
pub fn start(
    ctx: &Ctx,
    accept_updates: bool,
    journal: Option<PathBuf>,
) -> Result<IndexService, String> {
    let params = served_params(ctx.quick);
    let db = build_database(ctx, &params)?;
    let twin = if ctx.traced {
        let mut server = PirServer::new(&params, db.clone()).map_err(|e| e.to_string())?;
        server.set_backend(BACKEND);
        server.set_rowsel_threads(1);
        server.set_tournament_order(ORDER);
        Some(server)
    } else {
        None
    };
    let transport = TcpTransport::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = transport.local_addr();
    let handle = ctx
        .rec
        .span("serve.start", 0, || {
            PirService::start(
                serve_config(accept_updates, journal),
                &params,
                db,
                Box::new(transport),
            )
        })
        .map_err(|e| format!("service start: {e}"))?;
    Ok(IndexService { params, handle, addr, twin })
}

/// Every probe of a traced run on an index service, before its phases:
/// `ive_math` and `ive_he` on the session's own key material, `ive_pir`
/// on the twin server (dropped here, before the service is touched), then
/// `ive_serve` on the idle service.
pub fn traced_probes(
    ctx: &Ctx,
    report: &mut Report,
    svc: &mut IndexService,
    raw: &mut RawSession,
) -> Result<(), String> {
    let Some(twin) = svc.twin.take() else { return Ok(()) };
    probes::math(ctx, report, false);
    let (_, query) = &raw.pool[0];
    let key = &raw.client.public_keys().subs_keys()[0];
    probes::he(ctx, svc.params.he(), key, &query.row_bits()[0], query.packed());
    // Four more clients' keys: what the batch probe answers for.
    let mut clients = (0..BATCH as u64)
        .map(|lane| {
            PirClient::new(&svc.params, gen::rng(ctx.seed, gen::Stream::ClientKeys, 100 + lane))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    probes::index_pipeline(ctx, report, &twin, &mut clients[0]);
    probes::batch_answer(ctx, report, &twin, &mut clients);
    drop(twin);
    serve_probes(ctx, report, svc, raw);
    Ok(())
}

/// Blocks for the next frame.
pub fn recv_frame(rx: &mut dyn FrameRx, timeout: Duration) -> Result<Bytes, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match rx.recv().map_err(|e| e.to_string())? {
            Received::Frame(frame) => return Ok(frame),
            Received::Idle if Instant::now() < deadline => {}
            Received::Idle => return Err("timed out waiting for a frame".into()),
            Received::Closed => return Err("server closed the connection".into()),
        }
    }
}

/// A registered session speaking the wire protocol directly, with its
/// pool of pre-generated queries: the load generator encodes and sends
/// without doing any cryptography while the server is being measured.
pub struct RawSession {
    pub rx: Box<dyn FrameRx>,
    pub tx: Box<dyn FrameTx>,
    pub client: PirClient<StdRng>,
    pub session: u64,
    /// `(record index, query for it)`.
    pub pool: Vec<(usize, PirQuery)>,
}

impl RawSession {
    /// Dials, generates keys, registers them (Hello → Welcome).
    pub fn open(ctx: &Ctx, svc: &IndexService) -> Result<Self, String> {
        let (mut rx, mut tx) =
            ive_serve::tcp::connect(svc.addr).map_err(|e| format!("dial: {e}"))?;
        let client = ctx
            .rec
            .span("pir.client.keygen", 0, || {
                PirClient::new(&svc.params, gen::rng(ctx.seed, gen::Stream::ClientKeys, 0))
            })
            .map_err(|e| e.to_string())?;
        let session = ctx.rec.span("serve.hello", 0, || {
            tx.send(&wire::encode_hello(client.public_keys())).map_err(|e| e.to_string())?;
            let frame = recv_frame(rx.as_mut(), RESPONSE_TIMEOUT)?;
            wire::decode_welcome(&frame).map_err(|e| format!("handshake: {e}"))
        })?;
        Ok(RawSession { rx, tx, client, session, pool: Vec::new() })
    }

    /// Fills the query pool (client-side cryptography, done before any
    /// measurement).
    pub fn fill_pool(&mut self, ctx: &Ctx) -> Result<(), String> {
        let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 0);
        for _ in 0..POOL {
            let index = rng.gen_range(0..self.client.params().num_records());
            let query = self.client.query(index).map_err(|e| e.to_string())?;
            self.pool.push((index, query));
        }
        Ok(())
    }

    /// The pool entry request `id` uses.
    pub fn pooled(&self, id: u64) -> &(usize, PirQuery) {
        &self.pool[id as usize % self.pool.len()]
    }

    pub fn encode(&self, id: u64) -> Bytes {
        wire::encode_session_query(self.session, id, &self.pooled(id).1)
    }
}

/// Wire bytes of one retrieval: a `SessionQuery` frame up, a
/// `SessionResponse` frame down. Both are fixed by the geometry.
pub fn set_wire_sizes(ctx: &Ctx, report: &mut Report, params: &PirParams) -> Result<(), String> {
    let mut client = PirClient::new(params, gen::rng(ctx.seed, gen::Stream::ClientKeys, 99))
        .map_err(|e| e.to_string())?;
    let query = client.query(0).map_err(|e| e.to_string())?;
    report.set("query_bytes", wire::encode_session_query(0, 0, &query).len() as f64, 1);
    let response = wire::encode_session_response(0, &ive_he::BfvCiphertext::zero(params.he()));
    report.set("response_bytes", response.len() as f64, 1);
    Ok(())
}

/// Decodes one response frame and checks the record against version 0.
/// Returns the request id and whether the record verified; an error
/// frame is an unverified answer to the request it names.
pub fn verify_response(
    seed: u64,
    client: &PirClient<StdRng>,
    pool: &[(usize, PirQuery)],
    frame: &Bytes,
) -> (u64, bool) {
    let he = client.params().he();
    match wire::peek_tag(frame) {
        Ok(wire::Tag::SessionResponse) => {
            let Ok((id, ct)) = wire::decode_session_response(he, frame) else { return (0, false) };
            let (index, query) = &pool[id as usize % pool.len()];
            let ok = client
                .decode(query, &ct)
                .is_ok_and(|record| record == gen::record_bytes(seed, *index, 0, record.len()));
            (id, ok)
        }
        Ok(wire::Tag::Error) => (wire::decode_error_frame(frame).map_or(0, |(id, _)| id), false),
        _ => (0, false),
    }
}

/// `GetStats` round trips on an otherwise idle connection: the floor the
/// transport and the handler loop put under every request.
pub fn stats_rtt_probe(ctx: &Ctx, rx: &mut dyn FrameRx, tx: &mut dyn FrameTx, out: &mut Outcomes) {
    let (budget, min) = probe_budget(ctx);
    let mut id = 1 << 50;
    run_for(budget / 2, min, || {
        id += 1;
        let started = Instant::now();
        let rtt = ctx.rec.span("serve.stats_rtt", id, || {
            tx.send(&wire::encode_get_stats(id)).map_err(|e| e.to_string())?;
            recv_frame(rx, RESPONSE_TIMEOUT)
        });
        let answered =
            rtt.is_ok_and(|f| wire::decode_stats_response(&f).is_ok_and(|(got, _)| got == id));
        out.record(started, answered);
    });
}

/// The `ive_serve` probes on an idle service: stats round trips, the
/// engine called in-process at batch 1 and 8, and the round trip of one
/// pre-encoded query with nothing else in flight — traced and untraced
/// alternately, which also gives the tracing overhead.
fn serve_probes(ctx: &Ctx, report: &mut Report, svc: &IndexService, raw: &mut RawSession) {
    let (budget, min) = probe_budget(ctx);
    let mut out = Outcomes::default();
    stats_rtt_probe(ctx, raw.rx.as_mut(), raw.tx.as_mut(), &mut out);

    let mut id = 1 << 40;

    let engine = svc.handle.engine();
    let mut scratch = QueryScratch::new();
    for (span, batch) in [("serve.engine.answer_b1", 1usize), ("serve.engine.answer_b8", 8)] {
        run_for(budget, min, || {
            id += batch as u64;
            let started = Instant::now();
            let picked: Vec<_> = (0..batch as u64).map(|k| raw.pooled(id + k)).collect();
            let requests: Vec<_> =
                picked.iter().map(|(_, q)| (raw.client.public_keys(), q)).collect();
            let answers =
                ctx.rec.span(span, id, || engine.answer_batch_with(&requests, &mut scratch));
            for (slot, (index, query)) in picked.iter().enumerate() {
                let ok = answers.as_ref().is_ok_and(|a| {
                    raw.client.decode(query, &a[slot]).is_ok_and(|record| {
                        record == gen::record_bytes(ctx.seed, *index, 0, record.len())
                    })
                });
                out.record(started, ok);
            }
        });
    }

    let (mut off, mut on) = (Outcomes::default(), Outcomes::default());
    run_for(2 * budget, 2 * min, || {
        id += 1;
        let traced = id % 2 == 0;
        ctx.rec.set_enabled(traced);
        let frame = raw.encode(id);
        let started = Instant::now();
        let response = ctx.rec.span("serve.unloaded_rtt", id, || {
            raw.tx.send(&frame).map_err(|e| e.to_string())?;
            recv_frame(raw.rx.as_mut(), RESPONSE_TIMEOUT)
        });
        let side = if traced { &mut on } else { &mut off };
        let ok = response
            .is_ok_and(|f| verify_response(ctx.seed, &raw.client, &raw.pool, &f) == (id, true));
        side.record(started, ok);
    });
    ctx.rec.set_enabled(true);
    probes::set_trace_overhead(report, &on, &off);
    out.add_counts_to(report);
}
