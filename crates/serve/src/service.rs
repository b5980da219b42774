//! The assembled serving process: transport acceptor, per-connection
//! handlers, session registration, and the batching pipeline — one of
//! each, generic over the [`Engine`] behind them.
//!
//! Thread anatomy (all plain `std::thread`, no async runtime):
//!
//! ```text
//!                                  ┌─ E::SHARED_PASS ─► dispatcher ──batch──► workers ─┐
//! acceptor ──spawns──► handler ──Job                                                   ├─► process_batch
//!                      (1/conn)    └─ otherwise ──────── on the handler thread ────────┘        │
//!                         ▲                                                                     │
//!                      writer (1/conn) ◄──────────────── outgoing frames ◄──────────────────────┘
//! ```
//!
//! Every queue in the picture is bounded; a saturated worker pool blocks
//! the dispatcher, a full job queue sheds with a typed `Busy`, and the
//! TCP receive buffers absorb the rest — clients feel backpressure
//! instead of the server melting. An engine whose batches share no work
//! skips the queue (and with it `Busy` admission): its handler answers
//! each query itself, so a connection's own pipelined queries are its
//! only backlog.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_pir::kspir::KsPirParams;
use ive_pir::{wire, Database, Journal, KvStore, PirParams, QueryScratch};

use crate::batcher::{self, Job};
use crate::config::ServeConfig;
use crate::engine::{Engine, KeywordEngine, ShardedEngine};
use crate::error_frame;
use crate::metrics::{Metrics, ServerStats};
use crate::session::SessionManager;
use crate::trace::{Stage, TraceRecorder};
use crate::transport::{BoxedConn, FrameTx, Received, Transport};
use crate::ServeError;

/// The serving runtime entry point.
pub struct PirService;

impl PirService {
    /// Builds the index engine, spawns the pipeline, and starts accepting
    /// connections from `transport`. Returns immediately; the service
    /// runs on background threads until [`ServiceHandle::shutdown`].
    ///
    /// # Errors
    /// Fails on invalid configuration or a database/geometry mismatch.
    pub fn start(
        config: ServeConfig,
        params: &PirParams,
        db: Database,
        transport: Box<dyn Transport>,
    ) -> Result<ServiceHandle, ServeError> {
        let metrics = new_metrics(&config)?;
        let mut engine =
            ShardedEngine::new(params, db, config.rowsel_threads, config.order, config.backend)?;
        engine.set_trace(Arc::clone(metrics.trace()));
        // Crash recovery: batches a previous process journaled but never
        // committed are replayed (in append order) before the first
        // connection is accepted, then the journal attaches so every new
        // batch, prepared, journaled and committed in one call, is
        // durable before it is visible.
        if let Some(path) = &config.journal {
            let (mut journal, batches) = Journal::open(path, params)?;
            for batch in &batches {
                engine.apply_updates(batch)?;
            }
            journal.checkpoint()?;
            engine.set_journal(journal);
        }
        Ok(launch(config, metrics, engine, transport))
    }

    /// Starts a **keyword** (key-value) service: clients upload their
    /// trace keys once ([`wire::Tag::KsHello`]: `log N` for slots, a
    /// bucket query's `R` for whole buckets), learn the table layout from
    /// the [`wire::Tag::KsWelcome`] reply, and then retrieve privately
    /// with [`wire::Tag::KsQuery`] frames — the [`crate::KvClient`] turns
    /// two bucket queries into `get(key)`. With
    /// [`ServeConfig::accept_updates`] opted in, [`wire::Tag::KvUpdate`]
    /// frames put/delete keys; each mutation re-packs only the touched
    /// chunks and commits as one epoch with read-your-writes.
    ///
    /// It is the same service as [`PirService::start`] over a
    /// [`KeywordEngine`]. A keyword batch shares no database pass
    /// ([`Engine::SHARED_PASS`] is `false`: a `get` is a fixed pair of
    /// bucket queries, each with its own trace and tournament), so every
    /// query is answered on its connection's handler thread rather
    /// than waiting out a window for companions that would save it
    /// nothing; `window`, `max_batch`, `workers`, `queue_depth` and the
    /// index-only `shard`, `rowsel_threads`, `order` and `journal` are
    /// therefore unused here, and there is no `Busy` admission yet.
    ///
    /// [`wire::Tag::KsHello`]: ive_pir::wire::Tag::KsHello
    /// [`wire::Tag::KsWelcome`]: ive_pir::wire::Tag::KsWelcome
    /// [`wire::Tag::KsQuery`]: ive_pir::wire::Tag::KsQuery
    /// [`wire::Tag::KvUpdate`]: ive_pir::wire::Tag::KvUpdate
    ///
    /// # Errors
    /// Fails on invalid configuration or a store/geometry mismatch.
    pub fn start_keyword(
        config: ServeConfig,
        params: &KsPirParams,
        store: KvStore,
        transport: Box<dyn Transport>,
    ) -> Result<KeywordHandle, ServeError> {
        let metrics = new_metrics(&config)?;
        let mut engine = KeywordEngine::new(params, store, config.backend)?;
        engine.set_trace(Arc::clone(metrics.trace()));
        Ok(launch(config, metrics, engine, transport))
    }
}

/// Validates `config` and builds the metrics plane around one recorder
/// shared by every layer: handlers (Decode), `process_batch` (QueueWait,
/// Compress/Encode, the slow-query ring), and the engine (Expand/RowSel/
/// ColTor, journal/commit, scan bandwidth).
fn new_metrics(config: &ServeConfig) -> Result<Metrics, ServeError> {
    config.validate()?;
    Ok(Metrics::with_trace(Arc::new(TraceRecorder::with_limits(
        config.slow_threshold,
        config.trace_ring,
    ))))
}

/// Spawns the pipeline (when the engine batches) and the acceptor.
fn launch<E: Engine>(
    config: ServeConfig,
    metrics: Metrics,
    engine: E,
    mut transport: Box<dyn Transport>,
) -> ServiceHandle<E> {
    let endpoint = transport.endpoint();
    let shared = Arc::new(Shared::new(config, metrics, engine));
    let (jobs, mut threads) = if E::SHARED_PASS {
        let (jobs, threads) = batcher::spawn(&shared);
        (Some(jobs), threads)
    } else {
        (None, Vec::new())
    };
    // The acceptor owns the last submission handle: the dispatcher drains
    // and exits once the acceptor and every handler it joined are gone.
    let ctx = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("ive-serve-accept".into())
        .spawn(move || {
            let metrics = &ctx.metrics;
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !ctx.shutdown.load(Ordering::Relaxed) {
                // Reap finished handlers so a long-lived server with many
                // short connections doesn't accumulate join handles
                // without bound — and *join* them, counting (not
                // propagating) panics: one hostile or unlucky connection
                // must never take down the acceptor and with it the
                // whole service.
                let (done, live) = handlers.into_iter().partition(JoinHandle::is_finished);
                handlers = live;
                join_counting_panics(done, metrics);
                match transport.accept() {
                    Ok(Some(conn)) => {
                        let (ctx, jobs) = (Arc::clone(&ctx), jobs.clone());
                        handlers.push(
                            std::thread::Builder::new()
                                .name("ive-serve-conn".into())
                                .spawn(move || handle_connection(conn, &ctx, jobs.as_ref()))
                                .expect("spawn connection handler"),
                        );
                    }
                    Ok(None) => {}
                    Err(_) => break, // listener broke: stop accepting
                }
            }
            join_counting_panics(handlers, metrics);
        })
        .expect("spawn acceptor");
    threads.push(acceptor);
    ServiceHandle { shared, threads, endpoint }
}

/// Everything the service's threads share: the engine, the session
/// table, the metrics plane, the configuration, and the lifecycle flags.
pub(crate) struct Shared<E: Engine> {
    pub(crate) engine: E,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServeConfig,
    sessions: SessionManager<E::Keys>,
    /// Update idempotency cache, shared by every connection.
    dedup: UpdateDedup,
    /// Stop accepting connections and frames.
    shutdown: AtomicBool,
    /// Marks the drain phase: queries answered after this are counted in
    /// `ServerStats.drained_jobs`.
    pub(crate) draining: AtomicBool,
    /// Drain-deadline escape hatch: once set, every remaining job is
    /// answered with a typed shutdown error instead of computed.
    pub(crate) abort: AtomicBool,
}

impl<E: Engine> Shared<E> {
    pub(crate) fn new(config: ServeConfig, metrics: Metrics, engine: E) -> Self {
        // The session cache and the metrics plane share one eviction
        // counter, so LRU churn is visible in every stats scrape.
        let sessions = SessionManager::new(config.max_sessions, metrics.session_eviction_counter());
        Shared {
            engine,
            metrics,
            config,
            sessions,
            dedup: UpdateDedup::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            abort: AtomicBool::new(false),
        }
    }
}

/// Bound on remembered update request ids; old entries fall out FIFO.
/// Sized so a retry storm (seconds of acks lost in transit) still finds
/// its original ack, while the cache stays a few hundred KB at most.
const UPDATE_DEDUP_CAP: usize = 4096;

/// The server half of update idempotency: a bounded map from update
/// request id to the `(epoch, applied)` it originally acked with. A
/// retried batch whose first attempt *did* commit — the ack was lost, not
/// the work — hits this cache and is re-acked verbatim instead of applied
/// twice. Shared across connections, because a retry typically arrives on
/// a *fresh* connection after the first one died.
#[derive(Default)]
struct UpdateDedup {
    /// The id → ack map plus the FIFO insertion order used for eviction.
    inner: Mutex<(HashMap<u64, AckedUpdate>, VecDeque<u64>)>,
}

/// What an update batch was originally acked with: `(epoch, applied)`.
type AckedUpdate = (u64, u32);

impl UpdateDedup {
    /// The original ack for `request_id`, if this batch already committed.
    fn get(&self, request_id: u64) -> Option<(u64, u32)> {
        self.inner.lock().expect("dedup lock poisoned").0.get(&request_id).copied()
    }

    /// Remembers a committed batch's ack (id 0 is the protocol's
    /// connection-level sentinel and is never cached).
    fn insert(&self, request_id: u64, epoch: u64, applied: u32) {
        if request_id == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("dedup lock poisoned");
        let (map, order) = &mut *inner;
        if map.insert(request_id, (epoch, applied)).is_none() {
            order.push_back(request_id);
            while order.len() > UPDATE_DEDUP_CAP {
                if let Some(old) = order.pop_front() {
                    map.remove(&old);
                }
            }
        }
    }
}

/// Joins `threads`, tolerating — and counting — the ones that panicked.
fn join_counting_panics(threads: Vec<JoinHandle<()>>, metrics: &Metrics) {
    for t in threads {
        if t.join().is_err() {
            metrics.bump(|c| &c.worker_panics);
        }
    }
}

/// Serves one connection until the peer leaves, the idle deadline
/// expires, or shutdown is flagged. `jobs` is the submission queue when
/// the engine batches.
fn handle_connection<E: Engine>(
    conn: BoxedConn,
    shared: &Shared<E>,
    jobs: Option<&SyncSender<Job<E>>>,
) {
    let (mut rx, tx) = conn;
    // Responses arrive asynchronously from the workers; a dedicated
    // writer serializes them onto the socket.
    let (out_tx, out_rx) = mpsc::channel::<Bytes>();
    let writer = std::thread::Builder::new()
        .name("ive-serve-write".into())
        .spawn(move || {
            let mut tx: Box<dyn FrameTx> = tx;
            for frame in out_rx {
                if tx.send(&frame).is_err() {
                    break; // peer gone; drain and exit with the channel
                }
            }
        })
        .expect("spawn connection writer");

    // Whether this connection already registered a session: a second
    // Hello is a client recovering, counted as a reconnect.
    let mut registered = false;
    // Warm across this connection's queries when the engine answers on
    // the handler thread; never touched (and empty) when it batches.
    let mut scratch = QueryScratch::new();
    let mut last_activity = Instant::now();
    // The flag is checked every iteration (not only when idle) so a
    // client that streams frames continuously cannot pin the handler —
    // and with it the whole shutdown sequence — forever.
    while !shared.shutdown.load(Ordering::Relaxed) {
        match rx.recv() {
            Ok(Received::Frame(frame)) => {
                last_activity = Instant::now();
                let handled =
                    handle_frame(&frame, shared, jobs, &out_tx, &mut registered, &mut scratch);
                let reply = match handled {
                    Ok(None) => continue,
                    Ok(Some(reply)) => reply,
                    Err(Refusal(request_id, message)) => error_frame(request_id, &message),
                };
                if out_tx.send(reply).is_err() {
                    break; // outgoing channel gone: writer saw a dead peer
                }
            }
            Ok(Received::Idle) => {
                // A silent peer can pin this thread (and delay shutdown)
                // only until the idle deadline.
                let limit = shared.config.idle_timeout;
                if limit.is_some_and(|limit| last_activity.elapsed() >= limit) {
                    shared.metrics.bump(|c| &c.timeouts);
                    break;
                }
            }
            Ok(Received::Closed) | Err(_) => break,
        }
    }
    drop(out_tx);
    writer.join().expect("connection writer panicked");
}

/// Why a frame was refused: the request it belongs to and the message for
/// its error frame. `?` files a failure under request 0 — the frame could
/// not even be decoded, so it cannot be named.
struct Refusal(u64, String);

impl<T: core::fmt::Display> From<T> for Refusal {
    fn from(why: T) -> Self {
        Refusal(0, why.to_string())
    }
}

fn refuse(request_id: u64, why: impl core::fmt::Display) -> Refusal {
    Refusal(request_id, why.to_string())
}

/// Dispatches one inbound frame. `Ok(Some(frame))` is the immediate
/// reply; `Ok(None)` means a query was admitted and `process_batch` will
/// answer it through `out`.
fn handle_frame<E: Engine>(
    frame: &Bytes,
    shared: &Shared<E>,
    jobs: Option<&SyncSender<Job<E>>>,
    out: &mpsc::Sender<Bytes>,
    registered: &mut bool,
    scratch: &mut QueryScratch,
) -> Result<Option<Bytes>, Refusal> {
    let (engine, metrics) = (&shared.engine, &shared.metrics);
    match wire::peek_tag(frame)? {
        tag if tag == E::HELLO => {
            let keys = engine.decode_hello(frame)?;
            let bytes = engine.check_keys(&keys)?;
            let id = shared.sessions.register(Arc::new(keys), bytes)?;
            // A repeat Hello on one connection is a client recovering an
            // evicted session.
            if std::mem::replace(registered, true) {
                metrics.bump(|c| &c.reconnects);
            }
            Ok(Some(engine.welcome(id)))
        }
        tag if tag == E::QUERY => {
            let decode_started = Instant::now();
            let (session_id, request_id, query) = engine.decode_query(frame)?;
            let decode = decode_started.elapsed();
            metrics.trace().record(Stage::Decode, decode);
            let Some(keys) = shared.sessions.lookup(session_id) else {
                metrics.query_failed();
                return Err(refuse(request_id, ServeError::UnknownSession(session_id)));
            };
            let enqueued = Instant::now();
            let job =
                Job { keys, query, request_id, session_id, enqueued, decode, reply: out.clone() };
            let Some(jobs) = jobs else {
                batcher::process_batch(&[job], shared, scratch);
                return Ok(None);
            };
            // Admission control: never block the handler on a saturated
            // pipeline. A full queue means the service is at its ceiling,
            // and queueing further would only convert overload into
            // unbounded latency — shed with a typed, retryable rejection
            // instead.
            metrics.job_enqueued();
            jobs.try_send(job).map(|()| None).map_err(|e| {
                metrics.job_dequeued();
                match e {
                    mpsc::TrySendError::Full(_) => {
                        metrics.bump(|c| &c.busy_rejections);
                        let queue_depth = shared.config.queue_depth;
                        refuse(request_id, ServeError::Busy { queue_depth })
                    }
                    // Pipeline is shutting down.
                    mpsc::TrySendError::Disconnected(_) => refuse(request_id, ServeError::Closed),
                }
            })
        }
        tag if tag == E::UPDATE => {
            let (request_id, update) = engine.decode_update(frame)?;
            if !shared.config.accept_updates {
                let read_only = ServeError::Protocol("this service is read-only".into());
                return Err(refuse(request_id, read_only));
            }
            // Idempotency: an update whose ack was lost in transit is
            // retried under the same request id — re-ack the original
            // commit instead of applying it again.
            if let Some((epoch, applied)) = shared.dedup.get(request_id) {
                metrics.bump(|c| &c.retries);
                return Ok(Some(wire::encode_update_ack(request_id, epoch, applied)));
            }
            let (epoch, applied) =
                engine.apply_update(update).map_err(|e| refuse(request_id, e))?;
            metrics.update_committed(applied as usize, epoch);
            shared.dedup.insert(request_id, epoch, applied);
            Ok(Some(wire::encode_update_ack(request_id, epoch, applied)))
        }
        // Observability is unconditional: any connection may scrape the
        // live counters (they reveal aggregate load, never query contents).
        wire::Tag::GetStats => {
            let request_id = wire::decode_get_stats(frame)?;
            wire::encode_stats_response(request_id, &metrics.report())
                .map(Some)
                .map_err(|e| refuse(request_id, e))
        }
        tag => Err(ServeError::Protocol(format!("unexpected {} frame", tag.name())).into()),
    }
}

/// A running keyword service (see [`PirService::start_keyword`]).
pub type KeywordHandle = ServiceHandle<KeywordEngine>;

/// A running service: stats, session access, and shutdown.
pub struct ServiceHandle<E: Engine = ShardedEngine> {
    shared: Arc<Shared<E>>,
    threads: Vec<JoinHandle<()>>,
    endpoint: String,
}

impl<E: Engine> ServiceHandle<E> {
    /// The transport endpoint the service listens on.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.metrics.snapshot()
    }

    /// The session manager (e.g. to inspect or evict cached keys).
    pub fn sessions(&self) -> &SessionManager<E::Keys> {
        &self.shared.sessions
    }

    /// The query engine — e.g. to apply updates in-process (without a
    /// wire round-trip), to read the committed epoch, or to take a
    /// snapshot of what it serves.
    pub fn engine(&self) -> &E {
        &self.shared.engine
    }

    /// Stops accepting, drains in-flight work, and joins every thread.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop(None);
        self.stats()
    }

    /// Graceful drain with a ceiling: stops accepting, lets queued work
    /// finish for up to `deadline`, then flips the abort flag so every
    /// remaining job is answered with a typed shutdown error instead of
    /// computed — the caller gets the threads back either way (a query
    /// already computing finishes first). Queries answered during the
    /// drain are counted in `ServerStats.drained_jobs`. Every update
    /// batch was prepared, journaled and committed in the call that
    /// accepted it, so a clean shutdown leaves no replay work behind.
    pub fn shutdown_deadline(mut self, deadline: Duration) -> ServerStats {
        self.stop(Some(deadline));
        self.stats()
    }

    fn stop(&mut self, deadline: Option<Duration>) {
        // Order matters: the drain marker must be visible before any
        // worker can observe the shutdown flag, or a drained job could
        // go uncounted.
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(deadline) = deadline {
            let start = Instant::now();
            while start.elapsed() < deadline && self.threads.iter().any(|t| !t.is_finished()) {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Deadline passed with work still in flight: stop computing
            // and answer what remains with typed errors.
            self.shared.abort.store(true, Ordering::Relaxed);
        }
        join_counting_panics(std::mem::take(&mut self.threads), &self.shared.metrics);
    }
}

impl<E: Engine> Drop for ServiceHandle<E> {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop(None);
        }
    }
}
