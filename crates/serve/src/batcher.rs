//! The waiting-window batch scheduler, live (§V, Fig. 14b): the analytic
//! model in `ive_accel::queue::simulate_poisson` made real.
//!
//! The workers share the bounded job queue and each forms its own
//! batches. A free worker takes the first waiting job; its window opens
//! at that job's admission, and the batch dispatches when the window
//! closes or the worker comes free, whichever is later, carrying every
//! job admitted by then up to `max_batch`. With one worker that is
//! `simulate_poisson`'s rule exactly. The queue is bounded
//! (`std::sync::mpsc::sync_channel`) and connection handlers only ever
//! `try_send` into it, so a full queue sheds the query with a typed
//! `Busy` instead of the server accumulating unbounded in-flight work.
//!
//! `process_batch` is the one place a batch is answered, for every
//! [`Engine`]: the workers here call it for engines whose batches share a
//! database pass, and the connection handlers call it directly, on a
//! one-job batch, for engines whose batches do not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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
    /// When the job was admitted: the end-to-end latency origin, and the
    /// moment its batch's window opens when it is the batch's first job.
    /// The `QueueWait` stage runs from here to the moment compute starts,
    /// so it covers the waiting window and any time spent queued behind
    /// busy workers.
    pub enqueued: Instant,
    /// How long the handler spent decoding the query frame (the `Decode`
    /// stage of this job's span).
    pub decode: Duration,
    /// The owning connection's outgoing frame queue.
    pub reply: std::sync::mpsc::Sender<Bytes>,
}

/// Spawns `config.workers` worker threads and returns the submission
/// queue with them. The pipeline owns no shutdown flag: it drains and
/// exits when the last submission handle (the returned sender and its
/// clones) is dropped, so no accepted query is ever silently discarded —
/// at worst (past the drain deadline) it is answered with a typed error.
pub(crate) fn spawn<E: Engine>(
    shared: &Arc<Shared<E>>,
) -> (SyncSender<Job<E>>, Vec<JoinHandle<()>>) {
    let config = &shared.config;
    let (jobs_tx, jobs_rx) = sync_channel::<Job<E>>(config.queue_depth);
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let threads = (0..config.workers)
        .map(|i| {
            let (rx, shared) = (Arc::clone(&jobs_rx), Arc::clone(shared));
            std::thread::Builder::new()
                .name(format!("ive-serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared))
                .expect("spawn worker")
        })
        .collect();
    (jobs_tx, threads)
}

/// Forms and answers batches until every submitter hangs up (service
/// shutdown drops the last `SyncSender<Job>`). Exiting *only* on
/// disconnect guarantees every admitted job is answered before the
/// pipeline stops.
///
/// A worker holds the queue while it forms a batch and releases it before
/// the answer, so the next free worker forms the next batch. Each worker
/// owns one [`QueryScratch`] for its whole lifetime: the kernel arena,
/// expansion buffers and flat `RowSel` accumulators warm up on the first
/// batch and every later batch allocates only its responses.
fn worker_loop<E: Engine>(jobs: &Mutex<Receiver<Job<E>>>, shared: &Shared<E>) {
    let (metrics, config) = (&shared.metrics, &shared.config);
    let mut scratch = QueryScratch::new();
    loop {
        let batch = {
            let rx = jobs.lock().expect("job queue lock poisoned");
            let Ok(first) = rx.recv() else { return };
            metrics.job_dequeued();
            // Fig. 14b: dispatch when the window closes or now, whichever
            // is later, with every job admitted by then.
            let close = (first.enqueued + config.window).max(Instant::now());
            let mut batch = vec![first];
            while batch.len() < config.max_batch {
                let Ok(job) = rx.recv_timeout(close.saturating_duration_since(Instant::now()))
                else {
                    break;
                };
                metrics.job_dequeued();
                batch.push(job);
            }
            batch
        };
        metrics.batch_dispatched(batch.len());
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
    // `QueueWait` ends here — not when a worker dequeues the job — so it
    // covers the whole pre-compute wait. That keeps a query's stage sum
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
    use crate::ServeError;
    use ive_he::{BfvCiphertext, HeParams};
    use ive_pir::{
        ClientKeys, Database, PirClient, PirError, PirParams, PirQuery, RecordUpdate,
        TournamentOrder,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc::{self, Sender};
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

    /// A job for `request_id` querying record `request_id`, admitted now.
    fn job<E: Engine<Keys = ClientKeys, Query = PirQuery>>(
        client: &mut PirClient<StdRng>,
        keys: &Arc<ClientKeys>,
        request_id: u64,
        reply: &Sender<Bytes>,
    ) -> Job<E> {
        Job {
            keys: Arc::clone(keys),
            query: client.query(request_id as usize).unwrap(),
            request_id,
            session_id: 7,
            enqueued: Instant::now(),
            decode: Duration::ZERO,
            reply: reply.clone(),
        }
    }

    /// Receives `n` responses and checks each decodes to the record its
    /// request id queried; returns the ids in arrival order.
    fn answers(
        params: &PirParams,
        client: &mut PirClient<StdRng>,
        replies: &mpsc::Receiver<Bytes>,
        n: usize,
    ) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let frame = replies.recv_timeout(Duration::from_secs(30)).unwrap();
                let (req, ct) =
                    wire::decode_session_response(params.he(), &frame).expect("response frame");
                // Request id r queried record r: routing is correct only
                // if the response decodes to exactly that record.
                let query = client.query(req as usize).unwrap();
                let plain = client.decode(&query, &ct).unwrap();
                let want = format!("batch {req}").into_bytes();
                assert_eq!(&plain[..want.len()], &want[..], "request {req} got the wrong record");
                req
            })
            .collect()
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

        let mut client = PirClient::new(&params, StdRng::seed_from_u64(1)).unwrap();
        let keys = Arc::new(client.public_keys().clone());
        let (reply_tx, reply_rx) = mpsc::channel();
        for request_id in 0..3u64 {
            metrics.job_enqueued();
            jobs.send(job(&mut client, &keys, request_id, &reply_tx)).unwrap();
        }
        let mut seen = answers(&params, &mut client, &reply_rx, 3);
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

    /// An [`IndexEngine`] whose every batch reports that it started, then
    /// waits for the test to open the gate (a dropped gate stays open).
    struct Gated {
        inner: IndexEngine,
        started: Sender<()>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl Engine for Gated {
        type Keys = ClientKeys;
        type Query = PirQuery;
        type Update = Vec<RecordUpdate>;
        type UpdateError = PirError;

        const SHARED_PASS: bool = true;
        const HELLO: wire::Tag = IndexEngine::HELLO;
        const QUERY: wire::Tag = IndexEngine::QUERY;
        const UPDATE: wire::Tag = IndexEngine::UPDATE;

        fn he(&self) -> &HeParams {
            self.inner.he()
        }
        fn decode_hello(&self, frame: &Bytes) -> Result<ClientKeys, PirError> {
            self.inner.decode_hello(frame)
        }
        fn check_keys(&self, keys: &ClientKeys) -> Result<usize, ServeError> {
            self.inner.check_keys(keys)
        }
        fn welcome(&self, session_id: u64) -> Bytes {
            self.inner.welcome(session_id)
        }
        fn decode_query(&self, frame: &Bytes) -> Result<(u64, u64, PirQuery), PirError> {
            self.inner.decode_query(frame)
        }
        fn encode_response(request_id: u64, answer: &BfvCiphertext) -> Bytes {
            IndexEngine::encode_response(request_id, answer)
        }
        fn decode_update(&self, frame: &Bytes) -> Result<(u64, Vec<RecordUpdate>), PirError> {
            self.inner.decode_update(frame)
        }
        fn apply_update(&self, update: Vec<RecordUpdate>) -> Result<(u64, u32), PirError> {
            self.inner.apply_update(update)
        }
        fn answer_batch(
            &self,
            requests: &[(&ClientKeys, &PirQuery)],
            scratch: &mut QueryScratch,
            span: &mut Span,
        ) -> Result<Vec<BfvCiphertext>, PirError> {
            let _ = self.started.send(());
            let _ = self.gate.lock().unwrap().recv();
            self.inner.answer_batch(requests, scratch, span)
        }
        fn epoch(&self) -> u64 {
            self.inner.epoch()
        }
    }

    /// Fig. 14b's dispatch rule: a batch dispatches when its window closes
    /// *or the worker comes free, whichever is later*, with every job
    /// admitted by then. Three jobs admitted further apart than the window
    /// while the worker is busy therefore ride one batch.
    #[test]
    fn busy_worker_dispatches_everything_admitted_by_the_time_it_is_free() {
        let params = PirParams::toy();
        let window = Duration::from_millis(20);
        let config = ServeConfig { window, max_batch: 8, workers: 1, ..ServeConfig::default() };
        let (started_tx, started) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel::<()>();
        let engine =
            Gated { inner: engine(&params), started: started_tx, gate: Mutex::new(gate_rx) };
        let shared = Arc::new(Shared::new(config, Metrics::new(), engine));
        let metrics = &shared.metrics;
        let (jobs, threads) = spawn(&shared);

        let mut client = PirClient::new(&params, StdRng::seed_from_u64(2)).unwrap();
        let keys = Arc::new(client.public_keys().clone());
        let (reply_tx, reply_rx) = mpsc::channel();
        metrics.job_enqueued();
        jobs.send(job(&mut client, &keys, 0, &reply_tx)).unwrap();
        // The worker is now computing job 0 and stays busy until the gate
        // opens.
        started.recv_timeout(Duration::from_secs(30)).unwrap();
        for request_id in 1..=3u64 {
            metrics.job_enqueued();
            jobs.send(job(&mut client, &keys, request_id, &reply_tx)).unwrap();
            std::thread::sleep(2 * window);
        }
        drop(gate);
        let mut seen = answers(&params, &mut client, &reply_rx, 4);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let stats = metrics.snapshot();
        assert_eq!(stats.batches, 2, "jobs 1..=3 were all admitted when the worker came free");
        assert_eq!(stats.max_batch, 3);

        drop(jobs);
        for t in threads {
            t.join().unwrap();
        }
    }
}
