//! `serve_open_tcp`: the index service over TCP under a generator that
//! does no cryptography while it is timed. One connection speaking
//! `ive_pir::wire` directly: `SessionQuery` frames encoded from
//! pre-generated queries, every response decoded and verified. An
//! untraced run is one segment, *sat* (closed loop, 16 in flight), which
//! the end-to-end metrics are taken from. A traced run has three on one
//! server: *lo* (Poisson 10 q/s) and *hi* (Poisson 30 q/s), sent by a
//! paced sender thread, then *sat*. Open-loop latency is timed from the
//! moment a request was due, not from when it was sent.

use std::time::{Duration, Instant};

use ive_accel::queue::{simulate_poisson, ServiceTable};
use ive_serve::transport::Received;
use ive_serve::ServerStats;

use super::tcp_index::{self, IndexService, RawSession, RESPONSE_TIMEOUT};
use super::{finish, index_geometry, probes, repeat_setup, serve_config, Ctx, Outcomes};
use crate::report::Report;
use crate::{gen, stats};

pub const NAME: &str = "serve_open_tcp";

const LO_QPS: f64 = 10.0;
const HI_QPS: f64 = 30.0;
const SAT_IN_FLIGHT: u64 = 16;

/// Shares of a traced run's measured time: the slow segment needs the
/// longest to collect its samples.
const LO_SHARE: f64 = 0.4;
const HI_SHARE: f64 = 0.3;
const SAT_SHARE: f64 = 0.3;

/// What one open-loop segment observed.
struct OpenSegment {
    outcomes: Outcomes,
    /// How late each send ran behind its due time, milliseconds.
    late_ms: Vec<f64>,
    stats: StatsDelta,
}

/// Server counters over one segment.
struct StatsDelta {
    avg_batch: f64,
    busy_rejections: u64,
}

impl StatsDelta {
    fn between(before: &ServerStats, after: &ServerStats) -> Self {
        let batches = after.batches - before.batches;
        StatsDelta {
            avg_batch: (after.queries - before.queries) as f64 / batches.max(1) as f64,
            busy_rejections: after.busy_rejections - before.busy_rejections,
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new(NAME, index_geometry(&super::served_params(ctx.quick)));
    let (mut svc, mut raw) = repeat_setup(ctx, &mut report, || {
        let svc = tcp_index::start(ctx, false, None)?;
        let raw = RawSession::open(ctx, &svc)?;
        Ok((svc, raw))
    })?;
    raw.fill_pool(ctx)?;
    tcp_index::set_wire_sizes(ctx, &mut report, &svc.params)?;

    tcp_index::traced_probes(ctx, &mut report, &mut svc, &mut raw)?;

    // An untraced run gives all its time to the saturated segment, the
    // one the end-to-end metrics are taken from; a traced run splits it
    // with the two open-loop segments, which are per-layer metrics.
    let open = ctx.traced.then(|| {
        let lo = open_segment(ctx, &svc, &mut raw, LO_QPS, ctx.phase(LO_SHARE), 1, &mut report);
        let hi = open_segment(ctx, &svc, &mut raw, HI_QPS, ctx.phase(HI_SHARE), 2, &mut report);
        (lo, hi)
    });
    let sat_share = if ctx.traced { SAT_SHARE } else { 1.0 };

    // Untimed: connection, scratch and caches warm.
    closed_segment(ctx, &svc, &mut raw, ctx.warm_up(), 3, &mut report);
    let (sat, sat_stats, sat_qps) =
        closed_segment(ctx, &svc, &mut raw, ctx.phase(sat_share), 4, &mut report);
    report.set("throughput_qps", sat_qps, sat.verified());
    // The bounded latency is the saturated one, send to verified record.
    // The open-loop segments do not repeat from run to run within any
    // bound the driver accepts (see README.md), so they are reported
    // with the per-layer metrics instead.
    sat.set_latency(&mut report, "latency_ms_p50", "latency_ms_p90");
    report.set("serve.avg_batch_sat", sat_stats.avg_batch, sat.verified());
    let mut busy = sat_stats.busy_rejections;

    probes::derive(ctx, &mut report);
    if let Some(answer_ms) = report.get("pir.answer_ms") {
        report.set("serve.sat_over_single", sat_qps * answer_ms / 1e3, 1);
    }
    if let Some((lo, hi)) = &open {
        lo.outcomes.set_latency(&mut report, "latency_lo_ms_p50", "latency_lo_ms_p90");
        hi.outcomes.set_latency(&mut report, "latency_hi_ms_p50", "latency_hi_ms_p90");
        report.set("serve.avg_batch_hi", hi.stats.avg_batch, hi.outcomes.verified());
        let mut late = lo.late_ms.clone();
        late.extend(&hi.late_ms);
        let late_p90 = stats::percentile(&stats::sorted(&late), 90.0);
        report.set("bench.gen_late_ms_p90", late_p90, late.len());
        busy += lo.stats.busy_rejections + hi.stats.busy_rejections;
        if let Some(unloaded) = report.get("serve.unloaded_rtt_ms") {
            for (metric, seg) in [("serve.queue_wait_lo_ms", lo), ("serve.queue_wait_hi_ms", hi)] {
                if seg.outcomes.verified() > 0 {
                    report.set(
                        metric,
                        stats::median(&seg.outcomes.latencies_ms) - unloaded,
                        seg.outcomes.verified(),
                    );
                }
            }
        }
        queue_model(ctx, &mut report, lo, hi);
    }
    report.set("serve.busy_rejections", busy as f64, 1);

    drop(raw);
    svc.handle.shutdown();
    finish(ctx, &mut report);
    Ok(report)
}

/// One Poisson segment: the sender thread paces and sends, this thread
/// receives and verifies. A request unanswered by the time the segment
/// has drained counts as failed.
fn open_segment(
    ctx: &Ctx,
    svc: &IndexService,
    raw: &mut RawSession,
    rate: f64,
    duration: Duration,
    lane: u64,
    report: &mut Report,
) -> OpenSegment {
    let schedule =
        gen::poisson_schedule(&mut gen::rng(ctx.seed, gen::Stream::Arrivals, lane), rate, duration);
    let base = lane << 48;
    let before = svc.handle.stats();
    let start = Instant::now() + Duration::from_millis(5);
    let mut outcomes = Outcomes::default();
    let mut answered = vec![false; schedule.len()];
    let RawSession { rx, tx, client, session, pool } = raw;
    let (session, pool, client) = (*session, &*pool, &*client);

    let late_ms = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late_ms = Vec::with_capacity(schedule.len());
            for (k, due) in schedule.iter().enumerate() {
                let due_at = start + *due;
                std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                late_ms.push(due_at.elapsed().as_secs_f64() * 1e3);
                let id = base + k as u64;
                let frame = ctx.rec.span("pir.wire.encode_session_query", id, || {
                    ive_pir::wire::encode_session_query(
                        session,
                        id,
                        &pool[id as usize % pool.len()].1,
                    )
                });
                if ctx.rec.span("serve.send", id, || tx.send(&frame)).is_err() {
                    break;
                }
            }
            late_ms
        });

        let mut pending = schedule.len();
        let give_up = start + duration + RESPONSE_TIMEOUT;
        while pending > 0 && Instant::now() < give_up {
            match rx.recv() {
                Ok(Received::Frame(frame)) => {
                    let arrived = Instant::now();
                    let (id, ok) = ctx.rec.span("serve.verify_response", 0, || {
                        tcp_index::verify_response(ctx.seed, client, pool, &frame)
                    });
                    let Some(k) =
                        id.checked_sub(base).map(|k| k as usize).filter(|&k| k < answered.len())
                    else {
                        continue;
                    };
                    if !std::mem::replace(&mut answered[k], true) {
                        pending -= 1;
                        outcomes.attempted += 1;
                        if ok {
                            let due_at = start + schedule[k];
                            outcomes.latencies_ms.push((arrived - due_at).as_secs_f64() * 1e3);
                        } else {
                            outcomes.failed += 1;
                        }
                    }
                }
                Ok(Received::Idle) => {}
                Ok(Received::Closed) | Err(_) => break,
            }
        }
        sender.join().expect("the sender thread does not panic")
    });
    outcomes.attempted += pending_count(&answered);
    outcomes.failed += pending_count(&answered);
    outcomes.add_counts_to(report);
    OpenSegment { outcomes, late_ms, stats: StatsDelta::between(&before, &svc.handle.stats()) }
}

fn pending_count(answered: &[bool]) -> u64 {
    answered.iter().filter(|a| !**a).count() as u64
}

/// The saturation segment: [`SAT_IN_FLIGHT`] requests outstanding on the
/// one connection, each response replaced by a new request until the
/// time is up. Returns verified retrievals per second of wall time.
fn closed_segment(
    ctx: &Ctx,
    svc: &IndexService,
    raw: &mut RawSession,
    duration: Duration,
    lane: u64,
    report: &mut Report,
) -> (Outcomes, StatsDelta, f64) {
    let before = svc.handle.stats();
    let base = lane << 48;
    let mut outcomes = Outcomes::default();
    let mut sent_at = std::collections::HashMap::new();
    let mut next = base;
    let start = Instant::now();
    let mut send = |raw: &mut RawSession, sent_at: &mut std::collections::HashMap<u64, Instant>| {
        let frame = raw.encode(next);
        sent_at.insert(next, Instant::now());
        next += 1;
        raw.tx.send(&frame).is_ok()
    };
    let mut alive = (0..SAT_IN_FLIGHT).all(|_| send(raw, &mut sent_at));
    while alive && !sent_at.is_empty() {
        let Ok(frame) = tcp_index::recv_frame(raw.rx.as_mut(), RESPONSE_TIMEOUT) else { break };
        let (id, ok) = tcp_index::verify_response(ctx.seed, &raw.client, &raw.pool, &frame);
        if let Some(started) = sent_at.remove(&id) {
            outcomes.record(started, ok);
        }
        if start.elapsed() < duration {
            alive = send(raw, &mut sent_at);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Whatever is still outstanding was sent and never answered.
    outcomes.attempted += sent_at.len() as u64;
    outcomes.failed += sent_at.len() as u64;
    outcomes.add_counts_to(report);
    let qps = outcomes.verified() as f64 / wall;
    (outcomes, StatsDelta::between(&before, &svc.handle.stats()), qps)
}

/// Fig. 14's waiting-window queue model, fed the engine's measured batch
/// latencies, against the mean latency the live server showed below
/// saturation.
fn queue_model(ctx: &Ctx, report: &mut Report, lo: &OpenSegment, hi: &OpenSegment) {
    let (Some(b1), Some(b8)) = (
        report.get("serve.engine.answer_b1_ms"),
        report.get("serve.engine.answer_b8_ms_per_query"),
    ) else {
        return;
    };
    let config = serve_config(false, None);
    // Linear between the two measured batch sizes.
    let table = ServiceTable::from_fn(config.max_batch, |b| {
        (b1 + (8.0 * b8 - b1) * (b as f64 - 1.0) / 7.0) / 1e3
    });
    let mut rng = gen::rng(ctx.seed, gen::Stream::Model, 0);
    for (metric, rate, seg) in
        [("accel.queue_model_lo_err", LO_QPS, lo), ("accel.queue_model_hi_err", HI_QPS, hi)]
    {
        if seg.outcomes.verified() == 0 {
            continue;
        }
        let predicted = simulate_poisson(
            &table,
            config.window.as_secs_f64(),
            config.max_batch,
            rate,
            20_000,
            &mut rng,
        );
        let observed = stats::mean(&seg.outcomes.latencies_ms) / 1e3;
        report.set(
            metric,
            (predicted.avg_latency_s - observed).abs() / observed,
            seg.outcomes.verified(),
        );
    }
}
