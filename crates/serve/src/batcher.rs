//! The waiting-window batch scheduler, live (§V, Fig. 14b): the analytic
//! model in `ive_accel::queue::simulate_poisson` made real.
//!
//! A window opens when the first query of a batch arrives; the dispatcher
//! keeps accumulating until the window closes or the batch is full, then
//! hands the batch to a bounded worker queue. Both queues are bounded
//! (`std::sync::mpsc::sync_channel`), so saturation propagates backwards
//! as blocking — connection handlers stall instead of the server
//! accumulating unbounded in-flight work.
//!
//! `process_batch` is the one place a batch is answered, for every
//! [`Engine`]: the workers here call it for engines whose batches share a
//! database pass, and the connection handlers call it directly, on a
//! one-job batch, for engines whose batches do not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_pir::{wire, QueryScratch};

use crate::engine::Engine;
use crate::service::Shared;
use crate::trace::{Span, Stage};

/// One query waiting to be answered, with everything needed to route its
/// response back to the right connection.
pub(crate) struct Job<E: Engine> {
    /// The session's cached key material.
    pub keys: Arc<E::Keys>,
    /// The per-query ciphertexts.
    pub query: E::Query,
    /// The client-chosen request id, echoed in the response frame.
    pub request_id: u64,
    /// The owning session, carried into slow-query trace records.
    pub session_id: u64,
    /// When the job was admitted (end-to-end latency origin). The
    /// `QueueWait` stage runs from here to the moment compute starts, so
    /// it covers the submission queue, the waiting window and any
    /// backlog in the bounded worker queue.
    pub enqueued: Instant,
    /// How long the handler spent decoding the query frame (the `Decode`
    /// stage of this job's span).
    pub decode: Duration,
    /// The owning connection's outgoing frame queue.
    pub reply: std::sync::mpsc::Sender<Bytes>,
}

/// Spawns the dispatcher and `config.workers` worker threads and returns
/// the submission queue with them. The pipeline owns no shutdown flag: it
/// drains and exits when the last submission handle (the returned sender
/// and its clones) is dropped, so no accepted query is ever silently
/// discarded — at worst (past the drain deadline) it is answered with a
/// typed error.
pub(crate) fn spawn<E: Engine>(
    shared: &Arc<Shared<E>>,
) -> (SyncSender<Job<E>>, Vec<JoinHandle<()>>) {
    let config = &shared.config;
    let (jobs_tx, jobs_rx) = sync_channel::<Job<E>>(config.queue_depth);
    // One slot per worker: a full pipeline blocks the dispatcher, which in
    // turn leaves jobs queued, which blocks submitters — backpressure.
    let (batch_tx, batch_rx) = sync_channel::<Vec<Job<E>>>(config.workers);
    let batch_rx = Arc::new(Mutex::new(batch_rx));

    let mut threads = Vec::with_capacity(config.workers + 1);
    let dispatcher = Arc::clone(shared);
    threads.push(
        std::thread::Builder::new()
            .name("ive-serve-dispatch".into())
            .spawn(move || dispatch_loop(&jobs_rx, &batch_tx, &dispatcher))
            .expect("spawn dispatcher"),
    );
    for i in 0..config.workers {
        let rx = Arc::clone(&batch_rx);
        let shared = Arc::clone(shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ive-serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared))
                .expect("spawn worker"),
        );
    }
    (jobs_tx, threads)
}

/// Collects jobs into waiting-window batches until every submitter hangs
/// up (service shutdown drops the last `SyncSender<Job>`).
fn dispatch_loop<E: Engine>(
    jobs: &Receiver<Job<E>>,
    batches: &SyncSender<Vec<Job<E>>>,
    shared: &Shared<E>,
) {
    let metrics = &shared.metrics;
    while let Ok(first) = jobs.recv() {
        metrics.job_dequeued();
        let deadline = Instant::now() + shared.config.window;
        let mut batch = vec![first];
        while batch.len() < shared.config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match jobs.recv_timeout(deadline - now) {
                Ok(job) => {
                    metrics.job_dequeued();
                    batch.push(job);
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        metrics.batch_dispatched(batch.len());
        if batches.send(batch).is_err() {
            return; // workers gone — shutting down
        }
    }
}

/// Consumes batches until the dispatcher hangs up. Exiting *only* on
/// disconnect (never on a timeout racing a shutdown flag) guarantees
/// every dispatched batch is answered before the pipeline stops.
///
/// Each worker owns one [`QueryScratch`] for its whole lifetime: the
/// kernel arena, expansion buffers and flat `RowSel` accumulators warm up
/// on the first batch and every later batch allocates only its responses.
fn worker_loop<E: Engine>(batches: &Mutex<Receiver<Vec<Job<E>>>>, shared: &Shared<E>) {
    let mut scratch = QueryScratch::new();
    loop {
        // Hold the lock only for the dequeue, never during the answer.
        let batch = {
            let rx = batches.lock().expect("batch queue lock poisoned");
            match rx.recv_timeout(crate::transport::POLL_INTERVAL) {
                Ok(batch) => batch,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        process_batch(&batch, shared, &mut scratch);
    }
}

/// Frames one answer, modulus-switching it first when compression is on
/// (Table VIII: only the minimum retained residues travel downlink).
/// The switch is the `Compress` stage, the wire serialization the
/// `Encode` stage; both land in the job's span and the shared histograms.
fn frame_response<E: Engine>(
    shared: &Shared<E>,
    request_id: u64,
    ct: &ive_he::BfvCiphertext,
    span: &mut Span,
) -> Result<Bytes, ive_pir::PirError> {
    let mut stamp = |stage: Stage, started: Instant| {
        let d = started.elapsed();
        span.add(stage, d);
        shared.metrics.trace().record(stage, d);
    };
    let t = Instant::now();
    if !shared.config.compress_responses {
        let frame = E::encode_response(request_id, ct);
        stamp(Stage::Encode, t);
        return Ok(frame);
    }
    let switched = ive_he::modswitch::switch_to_first_prime(shared.engine.he(), ct)?;
    stamp(Stage::Compress, t);
    let t = Instant::now();
    let frame = wire::encode_compressed_response(request_id, &switched);
    stamp(Stage::Encode, t);
    Ok(frame)
}

/// Answers one batch and sends every job its response or a typed error
/// frame. The engine fills one span with the batch's shared stage
/// durations; each job's trace record is that span plus the job's own
/// Decode, queue wait, and framing time — slow jobs land in the
/// slow-query ring.
///
/// Compute is **panic-isolated**: an unwinding engine (or an injected
/// `worker_compute` fault) is caught and counted in
/// `ServerStats.worker_panics`, and the warm scratch is rebuilt (its
/// arena state mid-unwind is unspecified). Where a batch shares a
/// database pass it also shares fate, so a failed batch is retried
/// query-by-query — each query itself isolated — and one poisonous query
/// turns into one typed error frame without taking its companions, or
/// the worker thread, with it.
pub(crate) fn process_batch<E: Engine>(
    batch: &[Job<E>],
    shared: &Shared<E>,
    scratch: &mut QueryScratch,
) {
    let (engine, metrics) = (&shared.engine, &shared.metrics);
    if shared.abort.load(Ordering::Relaxed) {
        // Past the drain deadline: answering with a typed shutdown error
        // (no compute) unblocks every waiting client immediately.
        for job in batch {
            metrics.query_failed();
            let _ = job.reply.send(crate::error_frame(job.request_id, &crate::ServeError::Closed));
        }
        return;
    }
    // `QueueWait` ends here — not at dispatcher dequeue — so it covers
    // the whole pre-compute wait. That keeps a query's stage sum
    // accountable to its measured end-to-end latency.
    let compute_started = Instant::now();
    let mut span = Span::new();
    let mut isolated = |jobs: &[Job<E>], span: &mut Span, inject: bool| {
        let requests: Vec<(&E::Keys, &E::Query)> =
            jobs.iter().map(|job| (job.keys.as_ref(), &job.query)).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                ive_pir::fault::maybe_panic(ive_pir::fault::Site::WorkerCompute);
            }
            engine.answer_batch(&requests, scratch, span)
        }));
        match outcome {
            Ok(answers) => answers.map_err(|e| e.to_string()),
            Err(_) => {
                metrics.bump(|c| &c.worker_panics);
                *scratch = QueryScratch::new();
                Err("query worker panicked; query aborted".to_string())
            }
        }
    };
    let per_query: Vec<Result<ive_he::BfvCiphertext, String>> =
        match isolated(batch, &mut span, true) {
            Ok(answers) => answers.into_iter().map(Ok).collect(),
            Err(_) if E::SHARED_PASS => batch
                .iter()
                .map(|job| {
                    let one = isolated(std::slice::from_ref(job), &mut Span::new(), false)?;
                    Ok(one.into_iter().next().expect("one request, one answer"))
                })
                .collect(),
            Err(e) => batch.iter().map(|_| Err(e.clone())).collect(),
        };
    let trace = metrics.trace();
    let epoch = engine.epoch();
    for (job, answer) in batch.iter().zip(per_query) {
        let mut jspan = span.clone();
        jspan.add(Stage::Decode, job.decode);
        let wait = compute_started.duration_since(job.enqueued);
        jspan.add(Stage::QueueWait, wait);
        trace.record(Stage::QueueWait, wait);
        let framed = answer.and_then(|ct| {
            frame_response(shared, job.request_id, &ct, &mut jspan).map_err(|e| e.to_string())
        });
        match framed {
            Ok(frame) => {
                let total = job.enqueued.elapsed();
                metrics.query_done(total);
                if shared.draining.load(Ordering::Relaxed) {
                    metrics.bump(|c| &c.drained_jobs);
                }
                trace.record_slow(&jspan, total, job.session_id, batch.len() as u32, epoch);
                let _ = job.reply.send(frame); // receiver gone: client left
            }
            Err(e) => {
                metrics.query_failed();
                let _ = job.reply.send(crate::error_frame(job.request_id, &e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::engine::IndexEngine;
    use crate::metrics::Metrics;
    use ive_pir::{Database, PirClient, PirParams, TournamentOrder};
    use rand::SeedableRng;
    use std::time::Duration;

    fn engine(params: &PirParams) -> IndexEngine {
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("batch {i}").into_bytes()).collect();
        let db = Database::from_records(params, &records).unwrap();
        IndexEngine::new(
            params,
            db,
            1,
            TournamentOrder::Hs { subtree_depth: 2 },
            ive_pir::BackendKind::default(),
        )
        .unwrap()
    }

    #[test]
    fn window_coalesces_jobs_into_one_batch() {
        let params = PirParams::toy();
        let config = ServeConfig {
            window: Duration::from_millis(150),
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::new(config, Metrics::new(), engine(&params)));
        let metrics = &shared.metrics;
        let (jobs, threads) = spawn(&shared);

        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let keys = Arc::new(client.public_keys().clone());
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        for request_id in 0..3u64 {
            let job = Job {
                keys: Arc::clone(&keys),
                query: client.query(request_id as usize).unwrap(),
                request_id,
                session_id: 7,
                enqueued: Instant::now(),
                decode: Duration::ZERO,
                reply: reply_tx.clone(),
            };
            metrics.job_enqueued();
            jobs.send(job).unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..3 {
            let frame = reply_rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let (req, ct) =
                wire::decode_session_response(params.he(), &frame).expect("response frame");
            // Request id r queried record r: routing is correct only if
            // the response decodes to exactly that record.
            let query = client.query(req as usize).unwrap();
            let plain = client.decode(&query, &ct).unwrap();
            let want = format!("batch {req}").into_bytes();
            assert_eq!(&plain[..want.len()], &want[..], "request {req} got the wrong record");
            seen.push(req);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        let stats = metrics.snapshot();
        assert_eq!(stats.batches, 1, "150ms window must coalesce 3 quick jobs");
        assert_eq!(stats.max_batch, 3);

        drop(jobs);
        for t in threads {
            t.join().unwrap();
        }
    }
}
