//! Layer probes of the traced run: timed calls into public functions of
//! `ive_math`, `ive_he` and `ive_pir`, one span per call. Every probe that
//! produces a record decodes and verifies it.

use std::time::{Duration, Instant};

use ive_baselines::roofline::measure_read_bandwidth;
use ive_he::{BfvCiphertext, HeParams, RgswCiphertext, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::gadget::Gadget;
use ive_math::kernel;
use ive_math::modulus::Modulus;
use ive_math::rns::{Form, RingContext, RnsPoly};
use ive_pir::{wire, PirClient, PirServer, QueryScratch, RecordUpdate, UpdateLog};
use rand::rngs::StdRng;
use rand::Rng;

use super::{run_for, Ctx, Outcomes, BACKEND};
use crate::report::Report;
use crate::{gen, stats};

/// Elements per `math.fma` call.
const FMA_ELEMS: usize = 1 << 16;

/// Queries per batch in the batch probes and the batch phase.
pub const BATCH: usize = 4;

/// Records per update batch, here and in the update workload.
pub const PUTS_PER_EPOCH: usize = 4;

/// Time a probe repeats its call for, and its minimum repetitions: long
/// enough for a median at toy geometry, two calls at paper geometry.
pub fn probe_budget(ctx: &Ctx) -> (Duration, usize) {
    (Duration::from_secs_f64(ctx.seconds * 0.03), 2)
}

/// `ive_math` at fixed sizes (Table I ring), whatever the workload: the
/// kernels under every stage. With `dram`, also the host's read bandwidth
/// — the ceiling of a scan that does not fit the LLC, so only the
/// workload that has one pays the seconds it takes to fault in 1 GiB.
pub fn math(ctx: &Ctx, report: &mut Report, dram: bool) {
    let backend = BACKEND.backend();
    let mut rng = gen::rng(ctx.seed, gen::Stream::Model, 1);
    let (budget, min) = probe_budget(ctx);

    let modulus = Modulus::special_primes()[0];
    let mut row =
        |n: usize| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..modulus.value())).collect() };
    let (a, b, mut acc) = (row(FMA_ELEMS), row(FMA_ELEMS), row(FMA_ELEMS));
    run_for(budget, min, || {
        ctx.rec.span("math.fma", 0, || backend.fma(&modulus, &mut acc, &a, &b))
    });
    std::hint::black_box(&acc);

    let ring = RingContext::paper_ring();
    let table = ring.ntt(0);
    let mut limb = row(ring.n());
    run_for(budget, min, || {
        ctx.rec.span("math.ntt_fwd", 0, || backend.ntt_forward(table, &mut limb));
        ctx.rec.span("math.ntt_inv", 0, || backend.ntt_inverse(table, &mut limb));
    });
    std::hint::black_box(&limb);

    let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
    let poly = RnsPoly::sample_uniform(&ring, Form::Coeff, &mut rng);
    let (mut arena, mut digits) = (KernelArena::new(), Vec::new());
    run_for(budget, min, || {
        ctx.rec
            .span("math.decompose", 0, || {
                poly.decompose_ntt_into(&gadget, backend, &mut arena, &mut digits)
            })
            .expect("a coefficient-form polynomial under a covering gadget decomposes");
    });

    if !dram {
        return;
    }
    // At least 4x the LLC so the sweep reads DRAM; a smoke run only
    // checks the plumbing.
    let buf = if ctx.quick { 64 << 20 } else { (4 * kernel::effective_llc_bytes()).max(1 << 30) };
    let gbps = ctx.rec.span("math.mem_read", 0, || measure_read_bandwidth(buf, 3)) / 1e9;
    report.set("math.mem_read_gbps", gbps, 3);
}

/// `ive_he` at the workload's ring, on key material the workload already
/// holds: one `Subs` and one external product per call.
pub fn he(ctx: &Ctx, he: &HeParams, key: &SubsKey, bit: &RgswCiphertext, ct: &BfvCiphertext) {
    let backend = BACKEND.backend();
    let mut arena = KernelArena::new();
    let (budget, min) = probe_budget(ctx);
    run_for(budget, min, || {
        let out = ctx.rec.span("he.subs", 0, || key.apply_with(he, ct, backend, &mut arena));
        std::hint::black_box(out.expect("the workload's own key and ciphertext share a ring"));
        let out = ctx.rec.span("he.external_product", 0, || {
            bit.external_product_with(he, ct, backend, &mut arena)
        });
        std::hint::black_box(out.expect("the workload's own bit and ciphertext share a ring"));
    });
}

/// One closed-loop retrieval through `answer_with`, as its caller sees
/// it: query, answer, decode, verified against the seeded record.
pub fn retrieve_whole(
    ctx: &Ctx,
    server: &PirServer,
    client: &mut PirClient<StdRng>,
    scratch: &mut QueryScratch,
    index: usize,
    request: u64,
    out: &mut Outcomes,
) {
    let started = Instant::now();
    let verified = ctx.rec.span("retrieval", request, || {
        let query = ctx.rec.span("pir.client.query", request, || client.query(index)).ok()?;
        let response = ctx
            .rec
            .span("pir.answer", request, || {
                server.answer_with(client.public_keys(), &query, scratch)
            })
            .ok()?;
        let record =
            ctx.rec.span("pir.client.decode", request, || client.decode(&query, &response)).ok()?;
        Some(record == gen::record_bytes(ctx.seed, index, 0, record.len()))
    });
    out.record(started, verified == Some(true));
}

/// One `answer_batch_with` over one query from each client, every record
/// verified.
pub fn retrieve_batch(
    ctx: &Ctx,
    server: &PirServer,
    clients: &mut [PirClient<StdRng>],
    scratch: &mut QueryScratch,
    indices: &[usize],
    request: u64,
    out: &mut Outcomes,
) {
    let started = Instant::now();
    let verified = ctx.rec.span("retrieval_batch", request, || {
        let queries: Vec<_> = clients
            .iter_mut()
            .zip(indices)
            .map(|(c, &i)| ctx.rec.span("pir.client.query", request, || c.query(i)))
            .collect::<Result<_, _>>()
            .ok()?;
        let requests: Vec<_> =
            clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
        let responses = ctx
            .rec
            .span("pir.answer_batch", request, || server.answer_batch_with(&requests, scratch))
            .ok()?;
        let mut ok = vec![false; indices.len()];
        for (slot, ((client, query), response)) in
            clients.iter().zip(&queries).zip(&responses).enumerate()
        {
            let record = ctx
                .rec
                .span("pir.client.decode", request, || client.decode(query, response))
                .ok()?;
            ok[slot] = record == gen::record_bytes(ctx.seed, indices[slot], 0, record.len());
        }
        Some(ok)
    });
    // The batch completes as one: each query waited for all of it.
    for slot in 0..indices.len() {
        out.record(started, verified.as_ref().is_some_and(|ok| ok[slot]));
    }
}

/// The `ive_pir` pipeline, data and wire probes at `server`'s geometry,
/// on a server holding every record at version 0.
pub fn index_pipeline(
    ctx: &Ctx,
    report: &mut Report,
    server: &PirServer,
    client: &mut PirClient<StdRng>,
) {
    let params = server.params().clone();
    let (budget, min) = probe_budget(ctx);
    let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 1);
    let mut next_index = move || rng.gen_range(0..params.num_records());
    let mut scratch = QueryScratch::new();
    let mut out = Outcomes::default();
    let mut request = 1 << 32;

    // In turn: the three stages called one by one, a whole retrieval
    // traced, the stages again, a whole retrieval untraced. Taking turns
    // keeps a drift of the host's speed out of the ratio of the stages'
    // sum to the whole; the traced and untraced wholes give the tracing
    // overhead. Four rounds of stages feed the batch scan below.
    let (mut off, mut on) = (Outcomes::default(), Outcomes::default());
    let mut expansions = std::collections::VecDeque::new();
    let mut turn = 0;
    run_for(3 * budget, 2 * BATCH, || {
        request += 1;
        turn += 1;
        let index = next_index();
        if turn % 2 == 0 {
            let traced = turn % 4 == 2;
            ctx.rec.set_enabled(traced);
            let side = if traced { &mut on } else { &mut off };
            retrieve_whole(ctx, server, client, &mut scratch, index, request, side);
            ctx.rec.set_enabled(true);
            return;
        }
        let started = Instant::now();
        let verified = (|| {
            let query = client.query(index).ok()?;
            let expanded = ctx
                .rec
                .span("pir.expand", request, || {
                    server.expand_with(client.public_keys(), &query, &mut scratch)
                })
                .ok()?;
            ctx.rec
                .span("pir.rowsel", request, || server.row_sel_into(&expanded, &mut scratch))
                .ok()?;
            let rows = scratch.row_ciphertexts(server.params().he().ring(), 0);
            let response = ctx
                .rec
                .span("pir.coltor", request, || {
                    server.col_tor_step_with(rows, &query, &mut scratch)
                })
                .ok()?;
            let record = client.decode(&query, &response).ok()?;
            expansions.push_back((index, query, expanded));
            if expansions.len() > BATCH {
                expansions.pop_front();
            }
            Some(record == gen::record_bytes(ctx.seed, index, 0, record.len()))
        })();
        out.record(started, verified == Some(true));
    });
    set_trace_overhead(report, &on, &off);

    // One scan for four queries against four scans for one: the last
    // four expansions above, re-scanned as one batch, each still decoded.
    // (All came from one client, so the probe needs no further Expand.)
    if expansions.len() == BATCH {
        let (batch, expanded): (Vec<_>, Vec<_>) =
            expansions.into_iter().map(|(i, q, e)| ((i, q), e)).unzip();
        run_for(budget, min, || {
            request += 1;
            let started = Instant::now();
            let scanned = ctx.rec.span("pir.rowsel_batch4", request, || {
                server.row_sel_batch_into(&expanded, &mut scratch)
            });
            for (slot, (index, query)) in batch.iter().enumerate() {
                let verified = scanned.as_ref().ok().and_then(|()| {
                    let rows = scratch.row_ciphertexts(server.params().he().ring(), slot);
                    let response = server.col_tor_step_with(rows, query, &mut scratch).ok()?;
                    let record = client.decode(query, &response).ok()?;
                    Some(record == gen::record_bytes(ctx.seed, *index, 0, record.len()))
                });
                out.record(started, verified == Some(true));
            }
        });
    }

    wire_codec(ctx, report, server, client, &mut scratch);
    updates(ctx, report, server);
    out.add_counts_to(report);
}

/// `answer_batch_with` over one query from each of [`BATCH`] clients, for
/// a workload that has no batch phase of its own.
pub fn batch_answer(
    ctx: &Ctx,
    report: &mut Report,
    server: &PirServer,
    clients: &mut [PirClient<StdRng>],
) {
    let mut rng = gen::rng(ctx.seed, gen::Stream::Indices, 2);
    let (mut scratch, mut out) = (QueryScratch::new(), Outcomes::default());
    let mut request = 1 << 33;
    run_for(probe_budget(ctx).0, 1, || {
        request += 1;
        let indices: Vec<usize> =
            clients.iter().map(|_| rng.gen_range(0..server.params().num_records())).collect();
        retrieve_batch(ctx, server, clients, &mut scratch, &indices, request, &mut out);
    });
    out.add_counts_to(report);
}

/// `ive_pir::wire` encode and decode of one query and its response.
fn wire_codec(
    ctx: &Ctx,
    report: &mut Report,
    server: &PirServer,
    client: &mut PirClient<StdRng>,
    scratch: &mut QueryScratch,
) {
    let he = server.params().he();
    let Ok(query) = client.query(0) else { return };
    let Ok(response) = server.answer_with(client.public_keys(), &query, scratch) else { return };
    let (budget, min) = probe_budget(ctx);
    run_for(budget / 2, min, || {
        let frame = ctx.rec.span("pir.wire.encode_query", 0, || wire::encode_query(&query));
        let back = ctx.rec.span("pir.wire.decode_query", 0, || wire::decode_query(he, &frame));
        std::hint::black_box(back.expect("a frame this program encoded decodes"));
        let frame =
            ctx.rec.span("pir.wire.encode_response", 0, || wire::encode_response(&response));
        let back =
            ctx.rec.span("pir.wire.decode_response", 0, || wire::decode_response(he, &frame));
        std::hint::black_box(back.expect("a frame this program encoded decodes"));
    });
    report.set("pir.wire.hello_bytes", wire::encode_hello(client.public_keys()).len() as f64, 1);
}

/// The update path below the serving layer: prepare four puts, commit
/// them as one epoch into a snapshot that shares every page with the
/// server's database, and count the words the commit copied.
fn updates(ctx: &Ctx, report: &mut Report, server: &PirServer) {
    let params = server.params();
    let log = UpdateLog::with_backend(params, BACKEND);
    let mut rng = gen::rng(ctx.seed, gen::Stream::Writes, 1);
    let (budget, min) = probe_budget(ctx);
    let mut copied = Vec::new();
    run_for(budget / 2, min, || {
        let puts: Vec<RecordUpdate> = (0..PUTS_PER_EPOCH)
            .map(|_| {
                let index = rng.gen_range(0..params.num_records());
                RecordUpdate::put(
                    index,
                    gen::record_bytes(ctx.seed, index, 1, params.record_bytes()),
                )
            })
            .collect();
        let prepared = ctx
            .rec
            .span("pir.update.prepare", 0, || log.prepare_all(&puts))
            .expect("an in-range put of record-sized bytes prepares");
        let mut snapshot = server.database().clone();
        let before = snapshot.cow_stats().words_copied;
        ctx.rec
            .span("pir.db.apply_updates", 0, || snapshot.apply_updates(&prepared))
            .expect("updates prepared for this geometry apply");
        copied.push((snapshot.cow_stats().words_copied - before) as f64);
    });
    report.set("pir.db.cow_words_per_epoch", stats::mean(&copied), copied.len());
}

/// Tracing overhead: how much longer a traced call took than the
/// untraced call made next to it, as a share; the median over the pairs.
pub fn set_trace_overhead(report: &mut Report, on: &Outcomes, off: &Outcomes) {
    let ratios: Vec<f64> =
        on.latencies_ms.iter().zip(&off.latencies_ms).map(|(on, off)| on / off - 1.0).collect();
    if !ratios.is_empty() {
        report.set("bench.trace_overhead_frac", stats::median(&ratios), ratios.len());
    }
    on.add_counts_to(report);
    off.add_counts_to(report);
}

/// Per-layer metrics that are the median duration of one span name:
/// `(metric, span, factor from milliseconds to the metric's unit)`.
const SPAN_METRICS: [(&str, &str, f64); 30] = [
    ("math.fma_ns_per_elem", "math.fma", 1e6 / FMA_ELEMS as f64),
    ("math.ntt_fwd_us", "math.ntt_fwd", 1e3),
    ("math.ntt_inv_us", "math.ntt_inv", 1e3),
    ("math.decompose_us", "math.decompose", 1e3),
    ("he.subs_ms", "he.subs", 1.0),
    ("he.external_product_ms", "he.external_product", 1.0),
    ("pir.client.keygen_ms", "pir.client.keygen", 1.0),
    ("pir.client.query_ms", "pir.client.query", 1.0),
    ("pir.client.decode_ms", "pir.client.decode", 1.0),
    ("pir.expand_ms", "pir.expand", 1.0),
    ("pir.rowsel_ms", "pir.rowsel", 1.0),
    ("pir.coltor_ms", "pir.coltor", 1.0),
    ("pir.answer_ms", "pir.answer", 1.0),
    ("pir.answer_batch4_ms_per_query", "pir.answer_batch", 1.0 / BATCH as f64),
    ("pir.update.prepare_us_per_record", "pir.update.prepare", 1e3 / PUTS_PER_EPOCH as f64),
    ("pir.db.apply_updates_ms", "pir.db.apply_updates", 1.0),
    ("pir.wire.encode_query_us", "pir.wire.encode_query", 1e3),
    ("pir.wire.decode_query_us", "pir.wire.decode_query", 1e3),
    ("pir.wire.encode_response_us", "pir.wire.encode_response", 1e3),
    ("pir.wire.decode_response_us", "pir.wire.decode_response", 1e3),
    ("pir.kspir.query_ms", "pir.kspir.query", 1.0),
    ("pir.kspir.answer_ms", "pir.kspir.answer", 1.0),
    ("pir.kspir.decode_ms", "pir.kspir.decode", 1.0),
    ("serve.hello_ms", "serve.hello", 1.0),
    ("serve.stats_rtt_us", "serve.stats_rtt", 1e3),
    ("serve.engine.answer_b1_ms", "serve.engine.answer_b1", 1.0),
    ("serve.engine.answer_b8_ms_per_query", "serve.engine.answer_b8", 1.0 / 8.0),
    ("serve.engine.commit_ms", "serve.engine.commit", 1.0),
    ("serve.kv.engine_answer_ms", "serve.kv.engine_answer", 1.0),
    ("serve.unloaded_rtt_ms", "serve.unloaded_rtt", 1.0),
];

/// Turns the recorded spans into the per-layer metrics, and the metrics
/// into the ratios that reconcile one layer with the next. Call it after
/// the last span a figure depends on; calling it again refreshes them.
pub fn derive(ctx: &Ctx, report: &mut Report) {
    for (metric, span, factor) in SPAN_METRICS {
        if let Some((ms, n)) = ctx.span_median_ms(span) {
            report.set(metric, ms * factor, n);
        }
    }
    let geometry = |key: &str| report.geometry.get(key).and_then(crate::json::Json::as_f64);
    let (records, resident) = (geometry("records"), geometry("resident_db_bytes"));
    if let (Some(records), Some((ms, n))) = (records, ctx.span_median_ms("pir.db.from_records")) {
        report.set("pir.db.preprocess_rec_per_s", records / (ms / 1e3), n);
    }
    // Stages against the whole, pair by pair: `index_pipeline` follows
    // request r's three stage calls with request r + 1's traced whole
    // retrieval, so each ratio compares calls made within a second of
    // each other, and the median of the ratios is free of host drift.
    let mut stage_sum = std::collections::BTreeMap::<u64, f64>::new();
    let mut whole = std::collections::BTreeMap::<u64, f64>::new();
    for s in ctx.rec.spans() {
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        match s.name {
            "pir.expand" | "pir.rowsel" | "pir.coltor" => {
                *stage_sum.entry(s.request).or_default() += ms
            }
            "pir.answer" => drop(whole.insert(s.request, ms)),
            _ => {}
        }
    }
    let ratios: Vec<f64> = stage_sum
        .iter()
        .filter_map(|(request, sum)| Some(sum / whole.get(&(request + 1))?))
        .collect();
    if !ratios.is_empty() {
        report.set("pir.stage_sum_over_answer", stats::median(&ratios), ratios.len());
    }
    if let (Some(r), Some(a)) = (report.get("pir.rowsel_ms"), report.get("pir.answer_ms")) {
        if let Some(resident) = resident {
            let gbps = resident / (r / 1e3) / 1e9;
            report.set("pir.rowsel_gbps", gbps, 1);
            if let Some(roof) = report.get("math.mem_read_gbps") {
                report.set("pir.rowsel_roofline_frac", gbps / roof, 1);
            }
        }
        if let Some((b4, n)) = ctx.span_median_ms("pir.rowsel_batch4") {
            report.set("pir.rowsel_batch4_over_single", b4 / r, n);
        }
        if let Some(rtt) = report.get("serve.unloaded_rtt_ms") {
            report.set("serve.overhead_ms", rtt - a, 1);
        }
    }
}
