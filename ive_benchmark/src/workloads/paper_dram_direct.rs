//! `paper_dram_direct`: the functional stack with no network and no
//! serving layer, at the paper's Table I ring, on a database that does
//! not fit the last-level cache. One thread, warm `QueryScratch`.
//! Phase *single*: closed-loop `query → answer_with → decode`; all of an
//! untraced run. Phase *batch*, traced runs only: `answer_batch_with`
//! over one query from each of four clients.

use std::time::Instant;

use ive_he::HeParams;
use ive_pir::{wire, PirClient, PirParams, PirServer, QueryScratch};
use rand::rngs::StdRng;
use rand::Rng;

use super::probes::{self, BATCH};
use super::{
    build_database, finish, index_geometry, repeat_setup, run_for, Ctx, Outcomes, BACKEND, ORDER,
};
use crate::gen;
use crate::report::Report;

pub const NAME: &str = "paper_dram_direct";

/// Shares of a traced run's measured time.
const SINGLE_SHARE: f64 = 0.6;
const BATCH_SHARE: f64 = 0.4;

/// 8192 × 16 KiB records: 1 GiB of resident limb words, 3.9 times the
/// 260 MiB LLC of the host the benchmark was sized on, so `RowSel` is a
/// scan of DRAM.
fn geometry(quick: bool) -> PirParams {
    if quick {
        PirParams::new(HeParams::toy(), 64, 3)
    } else {
        PirParams::new(HeParams::paper(), 256, 5)
    }
    .expect("geometry is valid")
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let params = geometry(ctx.quick);
    let mut report = Report::new(NAME, index_geometry(&params));

    // Record generation, preprocessing, and the key generation of every
    // client ("registration" is handing the keys to the server per call).
    let (server, mut clients) = repeat_setup(ctx, &mut report, || {
        let db = build_database(ctx, &params)?;
        let mut server = PirServer::new(&params, db).map_err(|e| e.to_string())?;
        server.set_backend(BACKEND);
        server.set_rowsel_threads(1);
        server.set_tournament_order(ORDER);
        let clients = (0..BATCH as u64)
            .map(|lane| {
                ctx.rec.span("pir.client.keygen", 0, || {
                    PirClient::new(&params, gen::rng(ctx.seed, gen::Stream::ClientKeys, lane))
                })
            })
            .collect::<Result<Vec<PirClient<StdRng>>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((server, clients))
    })?;

    // One retrieval to warm the scratch, which also sizes the frames a
    // networked caller would exchange.
    let mut scratch = QueryScratch::new();
    let started = Instant::now();
    let query = clients[0].query(0).map_err(|e| e.to_string())?;
    report.set("query_bytes", wire::encode_query(&query).len() as f64, 1);
    let response = server
        .answer_with(clients[0].public_keys(), &query, &mut scratch)
        .map_err(|e| e.to_string())?;
    report.set("response_bytes", wire::encode_response(&response).len() as f64, 1);
    let record = clients[0].decode(&query, &response).map_err(|e| e.to_string())?;
    let mut warm = Outcomes::default();
    warm.record(started, record == gen::record_bytes(ctx.seed, 0, 0, record.len()));
    warm.add_counts_to(&mut report);

    if ctx.traced {
        probes::math(ctx, &mut report, true);
        let key = &clients[0].public_keys().subs_keys()[0];
        probes::he(ctx, params.he(), key, &query.row_bits()[0], query.packed());
        probes::index_pipeline(ctx, &mut report, &server, &mut clients[0]);
    }
    drop((query, response));

    let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 0);
    let mut request = 1;
    let mut single = Outcomes::default();
    let started = Instant::now();
    // An untraced run gives all its time to this phase, the one the
    // end-to-end metrics are taken from; the batch phase is per-layer.
    let single_share = if ctx.traced { SINGLE_SHARE } else { 1.0 };
    run_for(ctx.phase(single_share), 3, || {
        request += 1;
        let index = rng.gen_range(0..params.num_records());
        probes::retrieve_whole(
            ctx,
            &server,
            &mut clients[0],
            &mut scratch,
            index,
            request,
            &mut single,
        );
    });
    report.set(
        "throughput_qps",
        single.verified() as f64 / started.elapsed().as_secs_f64(),
        single.verified(),
    );
    single.set_latency(&mut report, "latency_ms_p50", "latency_ms_p90");
    single.add_counts_to(&mut report);

    if ctx.traced {
        let mut batched = Outcomes::default();
        let started = Instant::now();
        run_for(ctx.phase(BATCH_SHARE), 1, || {
            request += 1;
            let indices: Vec<usize> =
                (0..BATCH).map(|_| rng.gen_range(0..params.num_records())).collect();
            probes::retrieve_batch(
                ctx,
                &server,
                &mut clients,
                &mut scratch,
                &indices,
                request,
                &mut batched,
            );
        });
        let qps = batched.verified() as f64 / started.elapsed().as_secs_f64();
        report.set("batch_throughput_qps", qps, batched.verified());
        batched.add_counts_to(&mut report);
    }

    finish(ctx, &mut report);
    Ok(report)
}
