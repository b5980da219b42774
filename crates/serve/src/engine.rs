//! The [`Engine`] seam and the two database planes behind it. Index PIR:
//! one replicated server, or a row-sharded ensemble recombined through
//! the high tournament bits — **epoch-versioned and mutable under
//! traffic**. Keyword PIR: KsPIR slots under a cuckoo table, versioned
//! the same way.
//!
//! Row sharding exploits that `ColTor` consumes row-index bits LSB first
//! (Fig. 7): an aligned block of `2^(d-k)` adjacent rows is exactly one
//! depth-`(d-k)` subtree of the tournament, so shard `s` can run
//! `RowSel` + the low levels over its own rows only, and the `2^k` shard
//! winners finish with the high `k` selection bits. The recombined
//! ciphertext is bit-identical to the monolithic server's answer (§IV-A:
//! traversal order does not change the arithmetic).
//!
//! # Live updates
//!
//! The engine keeps its shard servers behind one `RwLock<Arc<[Arc<…>]>>`
//! and serves every batch from a **snapshot**: a brief read-lock takes a
//! reference, then the whole scan runs lock-free on that consistent
//! set. Committing updates is the mirror image — deltas accumulate in an
//! [`UpdateLog`] (validated and NTT-transformed on the ingest thread,
//! never a query worker), and [`ShardedEngine::commit_updates`] clones
//! only the touched shards' databases, applies the deltas, and swaps the
//! new `Arc` slice in under a brief write-lock. Queries in flight keep
//! scanning their old snapshot; queries admitted after the swap see the
//! new epoch; no reader ever blocks on an apply and no answer ever mixes
//! epochs across shards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_he::{BfvCiphertext, HeParams};
use ive_pir::coltor::col_tor_with;
use ive_pir::db::CowStats;
use ive_pir::kspir::{KsPirKeys, KsPirParams, KsPirQuery, KsPirServer};
use ive_pir::{
    wire, BackendKind, ClientKeys, Database, Journal, KvSchema, KvStore, PirError, PirParams,
    PirQuery, PirServer, PreparedUpdate, QueryScratch, RecordUpdate, TournamentOrder, UpdateLog,
};

use crate::config::ShardPlan;
use crate::trace::{Span, Stage, TraceRecorder};
use crate::ServeError;

/// One PIR protocol behind the serving pipeline — the single seam between
/// [`crate::PirService`] (acceptor, connection loop, frame dispatch,
/// session table, batcher, handle: all generic over this trait) and what
/// is protocol-specific: which frames open a session, carry a query and
/// carry an update, how they decode, and how a batch is answered.
pub trait Engine: Send + Sync + 'static {
    /// Per-session key material the client uploads once.
    type Keys: Send + Sync + 'static;
    /// One decoded query.
    type Query: Send + 'static;
    /// One decoded update frame.
    type Update;
    /// Why an update was refused (shown to the client verbatim).
    type UpdateError: core::fmt::Display;

    /// Whether the queries of one batch share a database pass. When they
    /// do, queries go through the bounded queue and the waiting window to
    /// the worker pool, because a batch amortises the scan
    /// (`serve_open_tcp`, `serve_update_mix`). When they do not, waiting
    /// for companions only adds the window to every query, so each query
    /// is answered as a one-job batch on its connection's handler thread
    /// (`kv_mix_tcp`) — by the same code, minus queue admission.
    const SHARED_PASS: bool;
    /// The frame that registers a session.
    const HELLO: wire::Tag;
    /// The frame that carries a query.
    const QUERY: wire::Tag;
    /// The frame that carries an update.
    const UPDATE: wire::Tag;

    /// The HE parameters responses are compressed under.
    fn he(&self) -> &HeParams;

    /// Decodes a [`Engine::HELLO`] frame into the key set it uploads.
    fn decode_hello(&self, frame: &Bytes) -> Result<Self::Keys, PirError>;

    /// Checks a decoded key set against the geometry (a wrong key count
    /// is refused) and returns the bytes it will pin in the session table.
    fn check_keys(&self, keys: &Self::Keys) -> Result<usize, ServeError>;

    /// The handshake reply for a freshly registered session.
    fn welcome(&self, session_id: u64) -> Bytes;

    /// Decodes a [`Engine::QUERY`] frame into
    /// `(session_id, request_id, query)`.
    fn decode_query(&self, frame: &Bytes) -> Result<(u64, u64, Self::Query), PirError>;

    /// Frames one uncompressed answer.
    fn encode_response(request_id: u64, answer: &BfvCiphertext) -> Bytes;

    /// Decodes an [`Engine::UPDATE`] frame into `(request_id, update)`.
    fn decode_update(&self, frame: &Bytes) -> Result<(u64, Self::Update), PirError>;

    /// Applies one update as an epoch — all of it or, when it is invalid,
    /// none — and returns `(epoch, applied)` for the acknowledgement.
    fn apply_update(&self, update: Self::Update) -> Result<(u64, u32), Self::UpdateError>;

    /// Answers a batch of queries (possibly from different sessions)
    /// against one epoch snapshot, on the caller's warm `scratch`; fails
    /// when *any* query fails. The batch's stage durations are added to
    /// `span` and recorded in the engine's [`TraceRecorder`].
    fn answer_batch(
        &self,
        requests: &[(&Self::Keys, &Self::Query)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError>;

    /// The committed update epoch: how many update batches the engine has
    /// absorbed. Every answer reflects exactly one epoch's contents.
    fn epoch(&self) -> u64;

    /// Makes everything accepted so far durable and visible; called once
    /// at shutdown, after the last handler has exited.
    fn flush(&self) {}
}

/// The query-answering plane: replicated or row-sharded, epoch-versioned.
#[derive(Debug)]
pub struct ShardedEngine {
    params: PirParams,
    order: TournamentOrder,
    backend: BackendKind,
    /// The current epoch's servers: length 1 when replicated, `2^k` when
    /// row-sharded. Readers snapshot (brief read-lock and one reference
    /// count, then lock-free); commits swap the whole slice (brief
    /// write-lock).
    servers: RwLock<Arc<[Arc<PirServer>]>>,
    /// `k = log2(shards)` when row-sharded; `None` when replicated.
    shard_bits: Option<u32>,
    /// Per-shard kernel scratch pools for the internal scan threads of
    /// the row-sharded path (empty when replicated).
    scratch: Vec<ScratchPool>,
    /// Staged deltas awaiting the next epoch boundary.
    log: UpdateLog,
    /// Optional durable journal mirroring the staged deltas: batches are
    /// appended (fsync'd) when staged and the file truncates at each
    /// commit checkpoint, so a crash between stage and commit loses
    /// nothing (the service replays the journal on startup).
    journal: Mutex<Option<Journal>>,
    /// Serializes commits so concurrent updaters cannot interleave their
    /// clone-apply-swap sequences (readers are never blocked by this).
    commit: Mutex<()>,
    /// Committed epoch counter (mirrors every shard database's epoch).
    epoch: AtomicU64,
    /// Total row deltas committed over the engine's lifetime.
    updates_applied: AtomicU64,
    /// Per-stage duration recorder. A fresh engine gets its own; the
    /// service swaps in the shared metrics recorder via
    /// [`ShardedEngine::set_trace`] so engine samples (Expand/RowSel/
    /// ColTor/JournalFsync/EpochCommit, plus scan-bandwidth accounting)
    /// land in the same histograms the handlers and batcher feed.
    trace: Arc<TraceRecorder>,
}

/// A lock-briefly pool of warm [`QueryScratch`] instances. Checkout
/// holds the mutex only for a `Vec` pop/push, never across a scan, so
/// concurrent worker batches touching the same shard each get their own
/// scratch (the pool grows to the observed concurrency, then every
/// checkout is warm) instead of serializing on one buffer set.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<QueryScratch>>);

impl ScratchPool {
    /// Runs `f` on a scratch checked out of the pool.
    fn with<T>(&self, f: impl FnOnce(&mut QueryScratch) -> T) -> T {
        let mut scratch = self.0.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.0.lock().expect("scratch pool poisoned").push(scratch);
        out
    }
}

impl ShardedEngine {
    /// Builds the plane from a preprocessed database.
    ///
    /// # Errors
    /// Fails when the shard count exceeds the row dimension or the
    /// database does not match the geometry.
    pub fn new(
        params: &PirParams,
        db: Database,
        plan: ShardPlan,
        rowsel_threads: usize,
        order: TournamentOrder,
        backend: BackendKind,
    ) -> Result<Self, ServeError> {
        let configure = |mut server: PirServer| {
            server.set_tournament_order(order);
            server.set_rowsel_threads(rowsel_threads);
            server.set_backend(backend);
            Arc::new(server)
        };
        let (servers, shard_bits, scratch) = match plan {
            ShardPlan::Replicated => {
                (vec![configure(PirServer::new(params, db)?)], None, Vec::new())
            }
            ShardPlan::RowSharded { shards } => {
                let shard_bits = shards.trailing_zeros();
                if !shards.is_power_of_two() || shard_bits > params.dims() {
                    return Err(ServeError::InvalidConfig(format!(
                        "{} row shards do not divide 2^{} rows",
                        shards,
                        params.dims()
                    )));
                }
                let sub_params =
                    PirParams::new(params.he().clone(), params.d0(), params.dims() - shard_bits)?;
                let rows_per_shard = params.num_rows() / shards;
                let servers = (0..shards)
                    .map(|s| {
                        let shard_db = db.shard_rows(s * rows_per_shard, rows_per_shard)?;
                        Ok(configure(PirServer::new(&sub_params, shard_db)?))
                    })
                    .collect::<Result<Vec<_>, PirError>>()?;
                let scratch = (0..shards).map(|_| ScratchPool::default()).collect();
                (servers, Some(shard_bits), scratch)
            }
        };
        Ok(ShardedEngine {
            params: params.clone(),
            order,
            backend,
            servers: RwLock::new(servers.into()),
            shard_bits,
            scratch,
            log: UpdateLog::with_backend(params, backend),
            journal: Mutex::new(None),
            commit: Mutex::new(()),
            epoch: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// The stage recorder engine samples land in.
    pub fn trace(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// The scheme parameters.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// Number of database shards (1 when replicated).
    pub fn num_shards(&self) -> usize {
        self.servers.read().expect("server set poisoned").len()
    }

    /// Total row deltas committed over the engine's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }

    /// Number of staged deltas waiting for [`ShardedEngine::commit_updates`].
    pub fn staged_updates(&self) -> usize {
        self.log.len()
    }

    /// Attaches a durable journal (already opened and replayed by the
    /// caller): from now on every staged batch is appended before it is
    /// visible to a commit, and each commit checkpoint truncates the
    /// file.
    pub fn set_journal(&self, journal: Journal) {
        *self.journal.lock().expect("journal lock poisoned") = Some(journal);
    }

    /// Cumulative copy-on-write accounting, summed over every shard of
    /// the current epoch: how many row pages (and words) commits have
    /// actually duplicated. The complement — total pages minus copied —
    /// is what the CoW representation saved versus whole-shard clones.
    pub fn cow_stats(&self) -> CowStats {
        let mut total = CowStats::default();
        for server in self.snapshot().iter() {
            let s = server.database().cow_stats();
            total.pages_copied += s.pages_copied;
            total.words_copied += s.words_copied;
        }
        total
    }

    /// Appends one batch to the journal, if one is attached. Called
    /// *after* staging validation so the journal only ever holds batches
    /// that will replay cleanly.
    fn journal_append(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        if let Some(journal) = self.journal.lock().expect("journal lock poisoned").as_mut() {
            let t = Instant::now();
            journal.append(updates)?;
            self.trace.record(Stage::JournalFsync, t.elapsed());
        }
        Ok(())
    }

    /// The current epoch's server set: a consistent snapshot the caller
    /// can scan lock-free while commits proceed concurrently.
    fn snapshot(&self) -> Arc<[Arc<PirServer>]> {
        Arc::clone(&self.servers.read().expect("server set poisoned"))
    }

    /// Stages a whole batch for the next epoch, all-or-nothing: validate +
    /// NTT-prepare (through the engine backend, on the calling thread —
    /// the ingest path, never a query worker) first, then journal
    /// (durable before visible), then stage. The
    /// commit mutex is held so a concurrent commit's checkpoint can
    /// never truncate a batch it did not drain.
    ///
    /// # Errors
    /// Rejects the entire batch when any delta is invalid; a journal
    /// append failure leaves nothing staged.
    pub fn stage_updates(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        self.stage_locked(updates)
    }

    /// The staging body; the caller holds the commit mutex.
    fn stage_locked(&self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        let prepared = self.log.prepare_all(updates)?;
        self.journal_append(updates)?;
        self.log.stage_prepared(prepared);
        Ok(())
    }

    /// Commits every staged delta as one epoch: routes each delta to the
    /// shard that owns its row, clones only the touched shards'
    /// databases, applies, and swaps the new server set in. Queries in
    /// flight finish on their old snapshot; an empty log is a no-op that
    /// returns the current epoch.
    ///
    /// # Errors
    /// Propagates apply failures (unreachable for deltas that passed
    /// staging validation); the epoch is unchanged on error.
    pub fn commit_updates(&self) -> Result<u64, PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        self.commit_locked()
    }

    /// The commit body, journal checkpoint included; the caller holds the
    /// commit mutex.
    fn commit_locked(&self) -> Result<u64, PirError> {
        let epoch = self.swap_in_staged()?;
        // Everything staged is now durable in the database snapshot
        // itself: truncate the journal.
        if let Some(journal) = self.journal.lock().expect("journal lock poisoned").as_mut() {
            journal.checkpoint()?;
        }
        Ok(epoch)
    }

    /// Applies the staged deltas to a new server set and swaps it in.
    fn swap_in_staged(&self) -> Result<u64, PirError> {
        // Failpoint before the log drains: an injected commit failure
        // leaves the staged deltas (and their journal records) intact,
        // so a retry — or a restart's journal replay — still commits
        // them. Nothing is lost, only delayed.
        ive_pir::fault::fail_io(ive_pir::fault::Site::EpochCommit)?;
        let staged = self.log.drain();
        if staged.is_empty() {
            return Ok(self.epoch());
        }
        let commit_started = Instant::now();
        let current = self.snapshot();
        let next = match self.shard_bits {
            None => {
                let mut db = current[0].database().clone();
                db.apply_updates(&staged)?;
                vec![Arc::new(current[0].with_database(db)?)]
            }
            Some(shard_bits) => {
                let shards = 1usize << shard_bits;
                let rows_per_shard = self.params.num_rows() >> shard_bits;
                // Route each delta to the shard owning its row, rebased
                // to shard-local indices; untouched shards keep their
                // current (cheap `Arc`) server.
                let mut routed: Vec<Vec<PreparedUpdate>> = vec![Vec::new(); shards];
                for u in staged.iter() {
                    let row = u.index() / self.params.d0();
                    let shard = row / rows_per_shard;
                    routed[shard]
                        .push(u.clone().rebase_to_shard(shard * rows_per_shard, self.params.d0())?);
                }
                current
                    .iter()
                    .zip(routed)
                    .map(|(server, deltas)| {
                        if deltas.is_empty() {
                            // Untouched shards keep the old Arc (no
                            // clone); their per-database epoch may lag —
                            // the engine epoch is the authoritative one.
                            Ok(Arc::clone(server))
                        } else {
                            let mut db = server.database().clone();
                            db.apply_updates(&deltas)?;
                            Ok(Arc::new(server.with_database(db)?))
                        }
                    })
                    .collect::<Result<Vec<_>, PirError>>()?
            }
        };
        *self.servers.write().expect("server set poisoned") = next.into();
        self.updates_applied.fetch_add(staged.len() as u64, Ordering::Relaxed);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.trace.record(Stage::EpochCommit, commit_started.elapsed());
        Ok(epoch)
    }

    /// Stages and commits one batch in a single call — the serving
    /// runtime's handler path: each accepted [`wire::Tag::UpdateRow`]
    /// frame is an epoch boundary. The commit mutex is held across the
    /// stage *and* the commit, so concurrent `apply_updates` calls
    /// commit as distinct epochs instead of merging (deltas staged
    /// separately via [`ShardedEngine::stage_updates`] ride along with
    /// whichever commit drains them first, by design).
    ///
    /// [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
    ///
    /// # Errors
    /// Rejects invalid deltas before anything is staged or applied.
    pub fn apply_updates(&self, updates: &[RecordUpdate]) -> Result<u64, PirError> {
        let _guard = self.commit.lock().expect("commit lock poisoned");
        self.stage_locked(updates)?;
        self.commit_locked()
    }

    /// [`Engine::answer_batch`] without a span to fill — for callers that
    /// time the call themselves.
    ///
    /// # Errors
    /// Fails when *any* query in the batch fails.
    pub fn answer_batch_with(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.answer_batch(requests, scratch, &mut Span::new())
    }

    /// Adds one stage duration to the batch's span and the histograms.
    fn stamp(&self, span: &mut Span, stage: Stage, d: Duration) {
        span.add(stage, d);
        self.trace.record(stage, d);
    }

    /// Database bytes one batched `RowSel` pass over `servers` streams:
    /// every stored word is loaded exactly once per batch and shared
    /// across the batch's queries. On the sharded path the shards
    /// partition the rows, so the sum also covers one whole parallel pass.
    fn scan_bytes_per_pass(servers: &[Arc<PirServer>]) -> u64 {
        servers.iter().map(|s| s.database().resident_bytes()).sum()
    }

    fn answer_batch_sharded(
        &self,
        shards: &[Arc<PirServer>],
        shard_bits: u32,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        let he = self.params.he();
        let backend = self.backend.backend();
        let low_bits = (self.params.dims() - shard_bits) as usize;
        // Expansion is client-specific and shard-independent: do it once
        // and share the result with every shard.
        let t = Instant::now();
        let mut expanded = Vec::with_capacity(requests.len());
        for (keys, query) in requests {
            expanded.push(shards[0].expand_with(keys, query, scratch)?);
        }
        self.stamp(span, Stage::Expand, t.elapsed());
        // Each shard scans its rows once for the whole batch, then plays
        // the low tournament levels per query — on its own warm scratch.
        // Shards time their own RowSel/ColTor (the per-shard histogram
        // samples); the span gets the slowest shard's durations, which is
        // what the batch actually waited for.
        let mut winners: Vec<Vec<BfvCiphertext>> = Vec::new();
        let mut scan_max = Duration::ZERO;
        let mut low_max = Duration::ZERO;
        type ShardResult = Result<(Vec<BfvCiphertext>, Duration, Duration), PirError>;
        std::thread::scope(|scope| -> Result<(), PirError> {
            let mut handles = Vec::with_capacity(shards.len());
            for (shard, pool) in shards.iter().zip(&self.scratch) {
                let expanded = &expanded;
                handles.push(scope.spawn(move || {
                    pool.with(|s| -> ShardResult {
                        let t = Instant::now();
                        shard.row_sel_batch_into(expanded, s)?;
                        let row_sel = t.elapsed();
                        self.trace.record(Stage::RowSel, row_sel);
                        let ring = shard.params().he().ring().clone();
                        let t = Instant::now();
                        let winners = requests
                            .iter()
                            .enumerate()
                            .map(|(qi, (_, query))| {
                                let rows = s.row_ciphertexts(&ring, qi);
                                col_tor_with(
                                    he,
                                    rows,
                                    &query.row_bits()[..low_bits],
                                    self.order,
                                    shard.backend().backend(),
                                    &mut s.arena,
                                )
                            })
                            .collect::<Result<Vec<_>, PirError>>()?;
                        let col_tor = t.elapsed();
                        self.trace.record(Stage::ColTor, col_tor);
                        Ok((winners, row_sel, col_tor))
                    })
                }));
            }
            for h in handles {
                let (w, row_sel, col_tor) = h.join().expect("shard worker panicked")?;
                winners.push(w);
                scan_max = scan_max.max(row_sel);
                low_max = low_max.max(col_tor);
            }
            Ok(())
        })?;
        span.add(Stage::RowSel, scan_max);
        // The shards together streamed the whole database in parallel;
        // the effective scan bandwidth is total bytes over the slowest
        // shard's wall time.
        self.trace.record_scan(Self::scan_bytes_per_pass(shards), scan_max);
        // Recombine: query i's shard winners, ordered by shard (= high
        // bits of the row index), finish with the remaining bits.
        let t = Instant::now();
        let answers = (0..requests.len())
            .map(|i| {
                let entries: Vec<BfvCiphertext> =
                    winners.iter().map(|per_shard| per_shard[i].clone()).collect();
                col_tor_with(
                    he,
                    entries,
                    &requests[i].1.row_bits()[low_bits..],
                    self.order,
                    backend,
                    &mut scratch.arena,
                )
            })
            .collect::<Result<Vec<_>, PirError>>()?;
        let recombine = t.elapsed();
        self.trace.record(Stage::ColTor, recombine);
        span.add(Stage::ColTor, low_max + recombine);
        Ok(answers)
    }
}

impl Engine for ShardedEngine {
    type Keys = ClientKeys;
    type Query = PirQuery;
    type Update = Vec<RecordUpdate>;
    type UpdateError = PirError;

    const SHARED_PASS: bool = true;
    const HELLO: wire::Tag = wire::Tag::Hello;
    const QUERY: wire::Tag = wire::Tag::SessionQuery;
    const UPDATE: wire::Tag = wire::Tag::UpdateRow;

    fn he(&self) -> &HeParams {
        self.params.he()
    }

    fn decode_hello(&self, frame: &Bytes) -> Result<ClientKeys, PirError> {
        wire::decode_hello(self.params.he(), frame)
    }

    fn check_keys(&self, keys: &ClientKeys) -> Result<usize, ServeError> {
        let need = self.params.log_d0() as usize;
        if keys.subs_keys().len() != need {
            return Err(ServeError::Protocol(format!(
                "registered {} expansion keys where the geometry needs {need}",
                keys.subs_keys().len()
            )));
        }
        Ok(keys.byte_len(self.params.he()))
    }

    fn welcome(&self, session_id: u64) -> Bytes {
        wire::encode_welcome(session_id)
    }

    fn decode_query(&self, frame: &Bytes) -> Result<(u64, u64, PirQuery), PirError> {
        wire::decode_session_query(self.params.he(), frame)
    }

    fn encode_response(request_id: u64, answer: &BfvCiphertext) -> Bytes {
        wire::encode_session_response(request_id, answer)
    }

    fn decode_update(&self, frame: &Bytes) -> Result<(u64, Vec<RecordUpdate>), PirError> {
        wire::decode_update_rows(&self.params, frame)
    }

    /// Validation and the §II-B NTT lift run on the calling (connection
    /// handler) thread — the query workers never see an update until it
    /// is a memcpy-and-swap.
    fn apply_update(&self, updates: Vec<RecordUpdate>) -> Result<(u64, u32), PirError> {
        Ok((self.apply_updates(&updates)?, updates.len() as u32))
    }

    /// One database pass per shard serves the whole batch. Replicated,
    /// this is [`PirServer::answer_batch_with`] — expansions and the
    /// in-place tournament on the caller's scratch, so a warm batch
    /// allocates only its responses — with the step durations it left in
    /// the scratch stamped into `span`, the histograms and the
    /// scan-bandwidth accounting. Row-sharded engines additionally keep
    /// one warm scratch per shard for their internal scan threads.
    fn answer_batch(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let servers = self.snapshot();
        let Some(shard_bits) = self.shard_bits else {
            let answers = servers[0].answer_batch_with(requests, scratch)?;
            let times = scratch.stage_times();
            self.stamp(span, Stage::Expand, times.expand);
            self.stamp(span, Stage::RowSel, times.row_sel);
            self.trace.record_scan(Self::scan_bytes_per_pass(&servers), times.row_sel);
            self.stamp(span, Stage::ColTor, times.col_tor);
            return Ok(answers);
        };
        self.answer_batch_sharded(&servers, shard_bits, requests, scratch, span)
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Journal hygiene: anything staged but uncommitted commits now (and
    /// the checkpoint truncates the file), so a clean shutdown never
    /// leaves replay work behind. Failures are deliberately ignored — at
    /// teardown the journal on disk is still replayable.
    fn flush(&self) {
        let _ = self.commit_updates();
    }
}

/// The keyword (key-value) query plane: a cuckoo-hashed [`KvStore`]
/// whose scalar image is packed into a [`KsPirServer`], epoch-versioned
/// the same way as [`ShardedEngine`] — every answer comes from one
/// immutable `Arc` snapshot, and each mutation re-packs only the chunks
/// its slot writes touch before swapping a new snapshot in.
#[derive(Debug)]
pub struct KeywordEngine {
    params: KsPirParams,
    /// The kernel backend every slot query dispatches through.
    backend: BackendKind,
    /// The authoritative table; mutations hold this lock (serialized),
    /// lookups of the scalar image never need it.
    store: Mutex<KvStore>,
    /// The packed server snapshot answers are served from.
    server: RwLock<Arc<KsPirServer>>,
    /// Committed mutation epoch (one per accepted put/delete batch).
    epoch: AtomicU64,
    /// Total slot writes committed over the engine's lifetime.
    updates_applied: AtomicU64,
    /// Per-stage recorder: `RowSel` (+ scan bytes), `ColTor` and `Expand`
    /// for every slot query answered here, `EpochCommit` for mutations.
    /// Decode/encode of the surrounding frames are timed at the handler
    /// layer.
    trace: Arc<TraceRecorder>,
}

impl KeywordEngine {
    /// Packs the store's scalar image into a fresh server snapshot.
    ///
    /// # Errors
    /// Fails when the packing rejects the geometry.
    pub fn new(
        params: &KsPirParams,
        store: KvStore,
        backend: BackendKind,
    ) -> Result<Self, ServeError> {
        let server = KsPirServer::new(params.clone(), &store.scalars())?;
        Ok(KeywordEngine {
            params: params.clone(),
            backend,
            store: Mutex::new(store),
            server: RwLock::new(Arc::new(server)),
            epoch: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// The table layout clients need to map keys to slots.
    pub fn schema(&self) -> KvSchema {
        self.store.lock().expect("kv store poisoned").schema().clone()
    }

    /// Total slot writes committed over the engine's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.lock().expect("kv store poisoned").len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current epoch's packed server — a consistent snapshot the
    /// caller can answer from lock-free while mutations proceed.
    pub fn snapshot(&self) -> Arc<KsPirServer> {
        self.server.read().expect("kv server poisoned").clone()
    }

    /// Answers one slot-retrieval query against the current snapshot, on
    /// a cold scratch (serving threads call [`Engine::answer_batch`] with
    /// their warm one).
    ///
    /// # Errors
    /// Propagates trace-pipeline failures.
    pub fn answer(&self, keys: &KsPirKeys, query: &KsPirQuery) -> Result<BfvCiphertext, PirError> {
        let answers =
            self.answer_batch(&[(keys, query)], &mut QueryScratch::new(), &mut Span::new())?;
        Ok(answers.into_iter().next().expect("one request, one answer"))
    }

    /// Bytes of packed chunk polynomials streamed per slot query (RNS
    /// residue form; the chunks are `RnsPoly`s, 8 bytes per residue,
    /// not the index database's 4-byte stored words).
    fn scan_bytes_per_query(server: &KsPirServer) -> u64 {
        let he = server.params().he();
        let k = he.ring().basis().moduli().len() as u64;
        (server.params().chunks() as u64) * k * (he.n() as u64) * 8
    }

    /// Inserts or overwrites `key`, committing a new epoch. Only the
    /// scalar chunks covering the touched slots are re-packed.
    ///
    /// # Errors
    /// Fails when the cuckoo table cannot place the key (the table is
    /// rolled back — no epoch is opened) or the value exceeds `p`.
    pub fn put(&self, key: &[u8], value: u64) -> Result<u64, ServeError> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.insert(key, value)?;
        Ok(self.commit_writes(&writes))
    }

    /// Removes `key`; returns the new epoch, or `None` when the key was
    /// absent (no epoch is opened for a no-op).
    pub fn delete(&self, key: &[u8]) -> Option<u64> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.remove(key)?;
        Some(self.commit_writes(&writes))
    }

    /// Swaps in a snapshot with `writes` applied; the caller holds the
    /// store lock, so commits are serialized and every epoch's snapshot
    /// matches the table state that produced it.
    fn commit_writes(&self, writes: &[(usize, u64)]) -> u64 {
        if !writes.is_empty() {
            let t = Instant::now();
            let next = self
                .snapshot()
                .with_updates(writes)
                .expect("slot writes from the store are in range by construction");
            *self.server.write().expect("kv server poisoned") = Arc::new(next);
            self.trace.record(Stage::EpochCommit, t.elapsed());
        }
        self.updates_applied.fetch_add(writes.len() as u64, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl Engine for KeywordEngine {
    type Keys = KsPirKeys;
    type Query = KsPirQuery;
    /// `(key, Some(value))` puts, `(key, None)` deletes.
    type Update = (Vec<u8>, Option<u64>);
    type UpdateError = ServeError;

    /// Each slot query is 2^d products, a tournament over them and one
    /// `log N`-round trace of the winner, all on that query's own
    /// ciphertext: nothing is shared across queries, so a batch amortises
    /// nothing. What the keyword plane therefore still lacks is queue
    /// admission (`Busy`); it follows when keyword batches share work and
    /// this flips.
    const SHARED_PASS: bool = false;
    const HELLO: wire::Tag = wire::Tag::KsHello;
    const QUERY: wire::Tag = wire::Tag::KsQuery;
    const UPDATE: wire::Tag = wire::Tag::KvUpdate;

    fn he(&self) -> &HeParams {
        self.params.he()
    }

    fn decode_hello(&self, frame: &Bytes) -> Result<KsPirKeys, PirError> {
        wire::decode_ks_hello(self.params.he(), frame)
    }

    fn check_keys(&self, keys: &KsPirKeys) -> Result<usize, ServeError> {
        let he = self.params.he();
        // One trace round per bit of the (power-of-two) ring degree.
        let need = he.n().trailing_zeros() as usize;
        if keys.trace_keys().len() != need {
            return Err(ServeError::Protocol(format!(
                "registered {} trace keys where the ring needs {need}",
                keys.trace_keys().len()
            )));
        }
        Ok(need * he.evk_bytes())
    }

    fn welcome(&self, session_id: u64) -> Bytes {
        wire::encode_ks_welcome(session_id, &self.schema())
    }

    fn decode_query(&self, frame: &Bytes) -> Result<(u64, u64, KsPirQuery), PirError> {
        wire::decode_ks_query(&self.params, frame)
    }

    fn encode_response(request_id: u64, answer: &BfvCiphertext) -> Bytes {
        wire::encode_ks_response(request_id, answer)
    }

    fn decode_update(&self, frame: &Bytes) -> Result<(u64, Self::Update), PirError> {
        wire::decode_kv_update(frame).map(|(request_id, key, value)| (request_id, (key, value)))
    }

    fn apply_update(&self, (key, value): Self::Update) -> Result<(u64, u32), ServeError> {
        match value {
            Some(v) => Ok((self.put(&key, v)?, 1)),
            // Deleting an absent key is a no-op, acked with the current
            // epoch and zero applied mutations.
            None => Ok(self.delete(&key).map_or_else(|| (self.epoch(), 0), |e| (e, 1))),
        }
    }

    /// Each query is one [`KsPirServer::answer_with`] on the caller's
    /// scratch — 2^d plaintext products, 2^d − 1 CMux, `log N` `Subs` —
    /// with the three step durations it left there stamped like the
    /// index plane's: the products, which stream every packed chunk
    /// polynomial, as `RowSel` plus the scan bytes they covered; the
    /// tournament as `ColTor`; the trace as `Expand`.
    fn answer_batch(
        &self,
        requests: &[(&KsPirKeys, &KsPirQuery)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        let snapshot = self.snapshot();
        let backend = self.backend.backend();
        let mut answers = Vec::with_capacity(requests.len());
        for (keys, query) in requests {
            answers.push(snapshot.answer_with(keys, query, backend, scratch)?);
            let times = scratch.stage_times();
            for (stage, d) in [
                (Stage::RowSel, times.row_sel),
                (Stage::ColTor, times.col_tor),
                (Stage::Expand, times.expand),
            ] {
                span.add(stage, d);
                self.trace.record(stage, d);
            }
            self.trace.record_scan(Self::scan_bytes_per_query(&snapshot), times.row_sel);
        }
        Ok(answers)
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_pir::PirClient;
    use rand::SeedableRng;

    fn setup() -> (PirParams, Database, Vec<Vec<u8>>) {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("engine {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).unwrap();
        (params, db, records)
    }

    /// One query through the batch entry point, on a cold scratch.
    fn answer_one(engine: &ShardedEngine, keys: &ClientKeys, query: &PirQuery) -> BfvCiphertext {
        engine.answer_batch_with(&[(keys, query)], &mut QueryScratch::new()).unwrap().remove(0)
    }

    fn engine(params: &PirParams, db: Database, plan: ShardPlan) -> ShardedEngine {
        engine_with(params, db, plan, BackendKind::default())
    }

    fn engine_with(
        params: &PirParams,
        db: Database,
        plan: ShardPlan,
        backend: BackendKind,
    ) -> ShardedEngine {
        ShardedEngine::new(params, db, plan, 1, TournamentOrder::Hs { subtree_depth: 2 }, backend)
            .unwrap()
    }

    #[test]
    fn sharded_batches_match_replicated_batches() {
        // Cross-plan AND cross-backend: the replicated engine runs the
        // portable kernels while the sharded engines run the widest
        // vector backend the host has (Avx512 resolves through the
        // runtime-probe fallback chain elsewhere) — answers must still
        // be bit-identical.
        let (params, db, records) = setup();
        let replicated =
            engine_with(&params, db.clone(), ShardPlan::Replicated, BackendKind::Optimized);
        for shards in [2usize, 4] {
            let sharded = engine_with(
                &params,
                db.clone(),
                ShardPlan::RowSharded { shards },
                BackendKind::Avx512,
            );
            assert_eq!(sharded.num_shards(), shards);
            let mut clients: Vec<_> = (0..3)
                .map(|i| {
                    PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(300 + i)).unwrap()
                })
                .collect();
            let targets = [2usize, 33, 63];
            let queries: Vec<_> =
                clients.iter_mut().zip(targets).map(|(c, t)| c.query(t).unwrap()).collect();
            let requests: Vec<_> =
                clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
            let a = replicated.answer_batch_with(&requests, &mut QueryScratch::new()).unwrap();
            let b = sharded.answer_batch_with(&requests, &mut QueryScratch::new()).unwrap();
            assert_eq!(a, b, "{shards}-way sharding changed answers");
            for ((client, query), (ct, target)) in
                clients.iter().zip(&queries).zip(b.iter().zip(targets))
            {
                let plain = client.decode(query, ct).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    /// The acceptance differential: after any update sequence, both the
    /// replicated and every sharded engine must answer **bit-identically**
    /// to an engine freshly built from the same contents — including
    /// deltas that straddle shard boundaries.
    #[test]
    fn updates_are_bit_identical_to_cold_rebuild_across_shard_plans() {
        let (params, db, mut records) = setup();
        // Deltas spanning both halves (and both quarters) of the row
        // space, so every shard of every plan absorbs at least one.
        let rows = params.num_rows();
        let updates = vec![
            RecordUpdate::put(0, b"first row changed".to_vec()),
            RecordUpdate::delete(params.d0() * (rows / 4) + 1),
            RecordUpdate::put(params.d0() * (rows / 2) + 2, b"across the boundary".to_vec()),
            RecordUpdate::put(params.num_records() - 1, b"last record".to_vec()),
            RecordUpdate::put(0, b"first row changed again".to_vec()),
        ];
        for u in &updates {
            match u {
                RecordUpdate::Put { index, bytes } => records[*index] = bytes.clone(),
                RecordUpdate::Delete { index } => records[*index] = Vec::new(),
            }
        }
        let rebuilt_db = Database::from_records(&params, &records).unwrap();

        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(400)).unwrap();
        for plan in [
            ShardPlan::Replicated,
            ShardPlan::RowSharded { shards: 2 },
            ShardPlan::RowSharded { shards: 4 },
        ] {
            // Updates prepared and served on the widest vector backend
            // must match a cold rebuild answered on the portable one.
            let live = engine_with(&params, db.clone(), plan, BackendKind::Avx512);
            assert_eq!(live.epoch(), 0);
            let epoch = live.apply_updates(&updates).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(live.updates_applied(), updates.len() as u64);
            let fresh = engine_with(&params, rebuilt_db.clone(), plan, BackendKind::Optimized);
            for target in [0usize, params.d0() * (rows / 2) + 2, params.num_records() - 1] {
                let query = client.query(target).unwrap();
                let a = answer_one(&live, client.public_keys(), &query);
                let b = answer_one(&fresh, client.public_keys(), &query);
                assert_eq!(a, b, "{plan:?} diverged from cold rebuild at {target}");
                let plain = client.decode(&query, &a).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    #[test]
    fn staged_updates_invisible_until_commit() {
        let (params, db, records) = setup();
        let live = engine(&params, db, ShardPlan::RowSharded { shards: 2 });
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(401)).unwrap();
        let target = 11;
        live.stage_updates(&[RecordUpdate::put(target, b"pending".to_vec())]).unwrap();
        assert_eq!(live.staged_updates(), 1);
        let query = client.query(target).unwrap();
        let before = answer_one(&live, client.public_keys(), &query);
        let plain = client.decode(&query, &before).unwrap();
        assert_eq!(&plain[..records[target].len()], &records[target][..], "staged leak");
        assert_eq!(live.commit_updates().unwrap(), 1);
        assert_eq!(live.staged_updates(), 0);
        let after = answer_one(&live, client.public_keys(), &query);
        let plain = client.decode(&query, &after).unwrap();
        assert_eq!(&plain[..7], b"pending");
    }

    #[test]
    fn empty_commit_is_a_noop_and_bad_updates_leave_epoch_alone() {
        let (params, db, _) = setup();
        let live = engine(&params, db, ShardPlan::Replicated);
        assert_eq!(live.commit_updates().unwrap(), 0, "empty commit opened an epoch");
        assert!(matches!(
            live.apply_updates(&[RecordUpdate::delete(params.num_records())]),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.updates_applied(), 0);
    }

    #[test]
    fn too_many_shards_rejected() {
        let (params, db, _) = setup();
        let shards = 2 * params.num_rows();
        let err = ShardedEngine::new(
            &params,
            db,
            ShardPlan::RowSharded { shards },
            1,
            TournamentOrder::Bfs,
            BackendKind::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn wrong_key_count_rejected() {
        let (params, db, _) = setup();
        let engine = engine(&params, db, ShardPlan::Replicated);
        let client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        let he = params.he();
        assert_eq!(
            engine.check_keys(client.public_keys()).unwrap(),
            client.public_keys().byte_len(he)
        );
        // A well-formed key set for one expansion level fewer.
        let shallow = PirParams::new(he.clone(), params.d0() / 2, params.dims()).unwrap();
        let short = PirClient::new(&shallow, rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        assert!(engine.check_keys(short.public_keys()).is_err());

        let ks = KsPirParams::toy();
        let store = KvStore::build(&ks, &[]).unwrap();
        let keyword = KeywordEngine::new(&ks, store, BackendKind::default()).unwrap();
        let ks_client =
            ive_pir::KsPirClient::new(&ks, rand::rngs::StdRng::seed_from_u64(3)).unwrap();
        assert!(keyword.check_keys(ks_client.public_keys()).unwrap() > 0);
        // A well-formed key set for a ring of half the degree: one trace
        // round short.
        let ring = ive_math::rns::RingContext::test_ring(ks.he().n() / 2, 3);
        let gadget = ive_math::gadget::Gadget::for_modulus(ring.basis().q_big(), 14);
        let half = KsPirParams::new(HeParams::new(ring, 16, gadget, 4).unwrap(), 2);
        let short = ive_pir::KsPirClient::new(&half, rand::rngs::StdRng::seed_from_u64(3)).unwrap();
        assert!(keyword.check_keys(short.public_keys()).is_err());
    }

    #[test]
    fn empty_batch_is_empty() {
        let (params, db, _) = setup();
        let engine = engine(&params, db, ShardPlan::Replicated);
        assert!(engine.answer_batch_with(&[], &mut QueryScratch::new()).unwrap().is_empty());
    }

    /// Retrieves `key` through the full private path: one trace query per
    /// slot of each candidate bucket, decoded into a group and matched
    /// against the key's fingerprint.
    fn kv_get(
        engine: &KeywordEngine,
        client: &mut ive_pir::KsPirClient<rand::rngs::StdRng>,
        key: &[u8],
    ) -> Option<u64> {
        let schema = engine.schema();
        for bucket in schema.candidates(key) {
            let base = schema.slot_of(bucket);
            let group: Vec<u64> = (0..schema.group_slots())
                .map(|i| {
                    let query = client.query(base + i).unwrap();
                    let ct = engine.answer(client.public_keys(), &query).unwrap();
                    client.decode(&ct).unwrap()
                })
                .collect();
            if let Some(value) = schema.decode_group(key, &group) {
                return Some(value);
            }
        }
        None
    }

    #[test]
    fn keyword_engine_serves_and_mutates_by_key() {
        let params = KsPirParams::toy();
        let entries = vec![(b"alice".to_vec(), 7u64), (b"bob".to_vec(), 13)];
        let store = KvStore::build(&params, &entries).unwrap();
        let engine = KeywordEngine::new(&params, store, BackendKind::default()).unwrap();
        assert_eq!(engine.len(), 2);
        let mut client =
            ive_pir::KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(500)).unwrap();

        assert_eq!(kv_get(&engine, &mut client, b"alice"), Some(7));
        assert_eq!(kv_get(&engine, &mut client, b"nobody"), None);

        // Mutations open epochs and are immediately visible (read-your-
        // writes): the snapshot swaps before put/delete return.
        assert_eq!(engine.put(b"alice", 99).unwrap(), 1);
        assert_eq!(kv_get(&engine, &mut client, b"alice"), Some(99));
        assert!(engine.delete(b"nobody").is_none(), "no-op delete must not open an epoch");
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.delete(b"bob"), Some(2));
        assert_eq!(kv_get(&engine, &mut client, b"bob"), None);
        assert!(engine.updates_applied() > 0);
    }
}
