//! `serve_update_mix`: writes beside reads on one journaled engine.
//! Thread 1: closed-loop `ServeClient::retrieve`. Thread 2:
//! `UpdateClient::apply` of four puts every 200 ms (5 epochs/s), each
//! acked with its committed epoch. A read must decode to a version of
//! its record between the last one acked before the read was submitted
//! and the last one issued before its response arrived.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use ive_pir::RecordUpdate;
use ive_serve::{Connection, ServeClient, Stage, UpdateClient};
use rand::rngs::StdRng;
use rand::Rng;

use super::probes::{self, PUTS_PER_EPOCH};
use super::tcp_index::{self, IndexService, RawSession};
use super::{every, finish, index_geometry, repeat_setup, run_for, Ctx, Outcomes, WARM_IDS};
use crate::report::Report;
use crate::{gen, host, stats};

pub const NAME: &str = "serve_update_mix";

const EPOCH_EVERY: Duration = Duration::from_millis(200);

/// Per record: the newest version a writer has sent, and the newest the
/// server has acknowledged. One writer, so both only grow.
struct Versions {
    issued: Vec<AtomicU32>,
    acked: Vec<AtomicU32>,
}

impl Versions {
    fn new(records: usize) -> Self {
        let zeros = || (0..records).map(|_| AtomicU32::new(0)).collect();
        Versions { issued: zeros(), acked: zeros() }
    }

    /// The next batch of puts: distinct records, each at its next version,
    /// as `(record, version)`. Marks them issued; call [`Versions::ack`]
    /// once the server has acknowledged them.
    fn next_puts(&self, rng: &mut impl Rng) -> Vec<(usize, u32)> {
        let mut puts: Vec<(usize, u32)> = Vec::with_capacity(PUTS_PER_EPOCH);
        while puts.len() < PUTS_PER_EPOCH {
            let index = rng.gen_range(0..self.issued.len());
            if puts.iter().all(|(i, _)| *i != index) {
                // SeqCst: a reader that sees the new bytes must also see
                // the version that explains them.
                puts.push((index, self.issued[index].fetch_add(1, Ordering::SeqCst) + 1));
            }
        }
        puts
    }

    fn ack(&self, puts: &[(usize, u32)]) {
        for (index, version) in puts {
            self.acked[*index].store(*version, Ordering::SeqCst);
        }
    }
}

/// The wire form of `puts`: each record's seeded bytes at its version.
fn updates_for(seed: u64, puts: &[(usize, u32)], record_bytes: usize) -> Vec<RecordUpdate> {
    puts.iter()
        .map(|&(i, v)| RecordUpdate::put(i, gen::record_bytes(seed, i, v, record_bytes)))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let params = super::served_params(ctx.quick);
    let mut report = Report::new(NAME, index_geometry(&params));
    let dir = host::ScratchDir::create(NAME).map_err(|e| format!("scratch directory: {e}"))?;
    let mut setups = 0;
    let (mut svc, mut reader, mut writer) = repeat_setup(ctx, &mut report, || {
        setups += 1;
        let svc = tcp_index::start(ctx, true, Some(dir.path().join(format!("journal-{setups}"))))?;
        let dial = || {
            ive_serve::tcp::connect(svc.addr).map(Connection::new).map_err(|e| format!("dial: {e}"))
        };
        let reader = ctx.rec.span("serve.client.connect", 0, || {
            dial()?
                .into_serve_client(&params, gen::rng(ctx.seed, gen::Stream::ClientKeys, 1))
                .map_err(|e| format!("handshake: {e}"))
        })?;
        let writer = dial()?.into_update_client();
        Ok((svc, reader, writer))
    })?;
    let versions = Versions::new(params.num_records());

    if ctx.traced {
        let mut raw = RawSession::open(ctx, &svc)?;
        raw.fill_pool(ctx)?;
        tcp_index::traced_probes(ctx, &mut report, &mut svc, &mut raw)?;
        commit_probe(ctx, &mut report, &svc, &versions);
    }
    tcp_index::set_wire_sizes(ctx, &mut report, &params)?;

    let before = svc.handle.stats();
    let stop = AtomicBool::new(false);
    let mut indices = gen::rng(ctx.seed, gen::Stream::Indices, 0);
    let (warm, reads, wall, writes) = std::thread::scope(|scope| {
        let writer_thread =
            scope.spawn(|| write_loop(ctx, &mut writer, &versions, &stop, params.record_bytes()));
        // Untimed reads first, beside the writer like the timed ones.
        let warm = read_loop(ctx, &mut reader, &versions, &mut indices, WARM_IDS, ctx.warm_up());
        let started = Instant::now();
        let reads = read_loop(ctx, &mut reader, &versions, &mut indices, 0, ctx.phase(1.0));
        let wall = started.elapsed().as_secs_f64();
        // Relaxed: the flag publishes nothing but itself.
        stop.store(true, Ordering::Relaxed);
        (warm, reads, wall, writer_thread.join().expect("the writer thread does not panic"))
    });
    warm.add_counts_to(&mut report);
    let after = svc.handle.stats();

    report.set("throughput_qps", reads.verified() as f64 / wall, reads.verified());
    reads.set_latency(&mut report, "latency_ms_p50", "latency_ms_p90");
    reads.add_counts_to(&mut report);
    if writes.verified() > 0 {
        report.set("write_ack_ms_p50", stats::median(&writes.latencies_ms), writes.verified());
    }
    writes.add_counts_to(&mut report);
    let (f0, f1) = (before.stage(Stage::JournalFsync), after.stage(Stage::JournalFsync));
    if f1.count > f0.count {
        let mean_ms = (f1.sum_us - f0.sum_us) as f64 / (f1.count - f0.count) as f64 / 1e3;
        report.set("serve.journal_fsync_ms", mean_ms, (f1.count - f0.count) as usize);
    }
    report.set("serve.busy_rejections", (after.busy_rejections - before.busy_rejections) as f64, 1);

    drop((reader, writer));
    svc.handle.shutdown();
    finish(ctx, &mut report);
    Ok(report)
}

fn read_loop(
    ctx: &Ctx,
    reader: &mut ServeClient,
    versions: &Versions,
    rng: &mut StdRng,
    first_request: u64,
    duration: Duration,
) -> Outcomes {
    let mut reads = Outcomes::default();
    run_for(duration, 1, || {
        let request = first_request + reads.attempted + 1;
        let index = rng.gen_range(0..versions.acked.len());
        let oldest = versions.acked[index].load(Ordering::SeqCst);
        let started = Instant::now();
        let record = ctx.rec.span("serve.client.retrieve", request, || reader.retrieve(index));
        let newest = versions.issued[index].load(Ordering::SeqCst);
        let ok = record
            .is_ok_and(|r| gen::matching_version(ctx.seed, index, oldest, newest, &r).is_some());
        reads.record(started, ok);
    });
    reads
}

/// Applies one batch of puts per tick of a fixed schedule until told to
/// stop. The latency of a write is send → ack.
fn write_loop(
    ctx: &Ctx,
    writer: &mut UpdateClient,
    versions: &Versions,
    stop: &AtomicBool,
    record_bytes: usize,
) -> Outcomes {
    let mut rng = gen::rng(ctx.seed, gen::Stream::Writes, 0);
    let mut writes = Outcomes::default();
    every(EPOCH_EVERY, stop, |tick| {
        let puts = versions.next_puts(&mut rng);
        let updates = updates_for(ctx.seed, &puts, record_bytes);
        let started = Instant::now();
        let acked = ctx.rec.span("serve.update.apply", u64::from(tick), || writer.apply(&updates));
        let ok = acked.is_ok_and(|(_, applied)| applied as usize == updates.len());
        if ok {
            versions.ack(&puts);
        }
        writes.record(started, ok);
    });
    writes
}

/// `ShardedEngine::apply_updates` called in-process on the idle service:
/// the commit without the wire, the handler or the journal's client.
fn commit_probe(ctx: &Ctx, report: &mut Report, svc: &IndexService, versions: &Versions) {
    let mut rng = gen::rng(ctx.seed, gen::Stream::Writes, 1);
    let mut out = Outcomes::default();
    let (budget, min) = probes::probe_budget(ctx);
    run_for(budget, min, || {
        let puts = versions.next_puts(&mut rng);
        let updates = updates_for(ctx.seed, &puts, svc.params.record_bytes());
        let started = Instant::now();
        let committed =
            ctx.rec.span("serve.engine.commit", 0, || svc.handle.engine().apply_updates(&updates));
        if committed.is_ok() {
            versions.ack(&puts);
        }
        out.record(started, committed.is_ok());
    });
    out.add_counts_to(report);
}
