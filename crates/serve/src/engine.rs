//! The [`Engine`] seam and the two database planes behind it. Index PIR:
//! one [`PirServer`] per epoch — **epoch-versioned and mutable under
//! traffic**. Keyword PIR: KsPIR slots under a cuckoo table, versioned
//! the same way.
//!
//! The index plane's only knob on the partition is its width,
//! `rowsel_threads`: [`PirServer`] cuts the rows into the largest power
//! of two of aligned blocks no wider than that, scans each block on its
//! own worker, and plays `ColTor`'s low levels on the same blocks, whose
//! winners finish with the high row bits (the hierarchical split of
//! Fig. 7c). Every width therefore answers a batch through the same
//! [`PirServer::answer_batch_with`], with one histogram sample per stage
//! per batch.
//!
//! # Live updates
//!
//! The engine keeps its server behind one `RwLock<Arc<PirServer>>` and
//! serves every batch from a **snapshot**: a brief read-lock takes a
//! reference, then the whole scan runs lock-free on that consistent
//! epoch. Committing updates is the mirror image: each batch is
//! prepared, journaled and committed in one call,
//! [`IndexEngine::apply_updates`]. It validates and NTT-transforms the
//! deltas on the calling thread (never a query worker), appends them to
//! the journal when one is attached, clones the database (which shares
//! every row page), applies the deltas — only the touched pages are
//! copied — and swaps the new server in under a brief write-lock.
//! Queries in flight keep scanning their old snapshot; queries admitted
//! after the swap see the new epoch; no reader ever blocks on an apply
//! and no answer ever mixes epochs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_he::{BfvCiphertext, HeParams};
use ive_pir::kspir::{KsPirKeys, KsPirParams, KsPirQuery, KsPirServer};
use ive_pir::{
    wire, BackendKind, ClientKeys, Database, Journal, KvSchema, KvStore, PirError, PirParams,
    PirQuery, PirServer, PreparedUpdate, QueryScratch, RecordUpdate, TournamentOrder, UpdateLog,
};

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
}

/// The query-answering plane: one epoch-versioned [`PirServer`].
#[derive(Debug)]
pub struct IndexEngine {
    params: PirParams,
    /// The current epoch's server. Readers snapshot (brief read-lock and
    /// one reference count, then lock-free); commits swap it (brief
    /// write-lock).
    server: RwLock<Arc<PirServer>>,
    /// Validates and NTT-prepares each batch through the engine backend.
    log: UpdateLog,
    /// Serializes commits, so concurrent updaters cannot interleave their
    /// journal-clone-apply-swap sequences (readers are never blocked by
    /// this), and holds the optional durable journal: a batch is appended
    /// (fsync'd) before its commit and the file truncates after it, so a
    /// crash in between loses nothing (the service replays the journal
    /// on startup).
    commit: Mutex<Option<Journal>>,
    /// Total row deltas committed over the engine's lifetime.
    updates_applied: AtomicU64,
    /// Per-stage duration recorder. A fresh engine gets its own; the
    /// service swaps in the shared metrics recorder via
    /// [`IndexEngine::set_trace`] so engine samples (Expand/RowSel/
    /// ColTor/JournalFsync/EpochCommit, plus scan-bandwidth accounting)
    /// land in the same histograms the handlers and batcher feed.
    trace: Arc<TraceRecorder>,
}

impl IndexEngine {
    /// Builds the plane from a preprocessed database. The server's row
    /// partition is `rowsel_threads` wide: its rows split into the
    /// largest power of two of aligned blocks no wider than that, one
    /// worker each, for both `RowSel` and `ColTor`.
    ///
    /// # Errors
    /// Fails when the database does not match the geometry.
    pub fn new(
        params: &PirParams,
        db: Database,
        rowsel_threads: usize,
        order: TournamentOrder,
        backend: BackendKind,
    ) -> Result<Self, ServeError> {
        let mut server = PirServer::new(params, db)?;
        server.set_tournament_order(order);
        server.set_rowsel_threads(rowsel_threads);
        server.set_backend(backend);
        Ok(IndexEngine {
            params: params.clone(),
            server: RwLock::new(Arc::new(server)),
            log: UpdateLog::with_backend(params, backend),
            commit: Mutex::new(None),
            updates_applied: AtomicU64::new(0),
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub(crate) fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// Total row deltas committed over the engine's lifetime.
    #[inline]
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied.load(Ordering::Relaxed)
    }

    /// Attaches a durable journal (already opened and replayed by the
    /// caller): from now on every batch is appended before it commits,
    /// and the file truncates after each commit.
    pub fn set_journal(&self, journal: Journal) {
        *self.commit.lock().expect("commit lock poisoned") = Some(journal);
    }

    /// The current epoch's server: a consistent snapshot the caller can
    /// scan lock-free while commits proceed concurrently.
    fn snapshot(&self) -> Arc<PirServer> {
        Arc::clone(&self.server.read().expect("server poisoned"))
    }

    /// Prepares, journals and commits one batch as one epoch — the only
    /// way an update reaches the index plane, and the serving runtime's
    /// handler path for each accepted [`wire::Tag::UpdateRow`] frame.
    /// Under the commit mutex, in order:
    ///
    /// 1. validate and NTT-prepare every delta through the engine backend,
    ///    on the calling thread (never a query worker). An invalid or
    ///    empty batch returns here: nothing is journaled and no epoch
    ///    opens;
    /// 2. append the batch to the journal, if one is attached — durable
    ///    before visible;
    /// 3. clone the database (sharing every row page), apply the deltas —
    ///    copying only the touched pages — and swap the new server in.
    ///    Queries in flight finish on their old snapshot;
    /// 4. checkpoint the journal, whether step 3 succeeded or not, so
    ///    neither a later commit nor a restart's replay applies a batch
    ///    this call reported as failed. A checkpoint that itself fails
    ///    is left to the next commit's; the call reports the commit's
    ///    outcome.
    ///
    /// Returns the committed epoch (the current one for an empty batch).
    ///
    /// [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
    ///
    /// # Errors
    /// Rejects invalid deltas before anything is journaled or applied;
    /// a journal append or commit failure leaves the epoch unchanged and
    /// the batch applied nowhere.
    pub fn apply_updates(&self, updates: &[RecordUpdate]) -> Result<u64, PirError> {
        let mut commit = self.commit.lock().expect("commit lock poisoned");
        let prepared = self.log.prepare_all(updates)?;
        if prepared.is_empty() {
            return Ok(self.epoch());
        }
        if let Some(journal) = commit.as_mut() {
            let t = Instant::now();
            journal.append(updates)?;
            self.trace.record(Stage::JournalFsync, t.elapsed());
        }
        let committed = self.swap_in(&prepared);
        if let Some(journal) = commit.as_mut() {
            let _ = journal.checkpoint();
        }
        committed
    }

    /// Applies a prepared batch to a new server and swaps it in; the
    /// caller holds the commit mutex.
    fn swap_in(&self, prepared: &[PreparedUpdate]) -> Result<u64, PirError> {
        ive_pir::fault::fail_io(ive_pir::fault::Site::EpochCommit)?;
        let commit_started = Instant::now();
        let current = self.snapshot();
        let mut db = current.database().clone();
        let epoch = db.apply_updates(prepared)?;
        let next = Arc::new(current.with_database(db)?);
        *self.server.write().expect("server poisoned") = next;
        self.updates_applied.fetch_add(prepared.len() as u64, Ordering::Relaxed);
        self.trace.record(Stage::EpochCommit, commit_started.elapsed());
        Ok(epoch)
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
}

impl Engine for IndexEngine {
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

    /// [`PirServer::answer_batch_with`] on the current snapshot — one
    /// database pass serves the whole batch, and the expansions and the
    /// in-place tournament live on the caller's scratch, so a warm batch
    /// allocates only its responses — with the step durations it left in
    /// the scratch stamped into `span`, the histograms (one sample per
    /// stage) and the scan-bandwidth accounting (every stored word is
    /// loaded once per batch).
    fn answer_batch(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
        span: &mut Span,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let server = self.snapshot();
        let answers = server.answer_batch_with(requests, scratch)?;
        let times = scratch.stage_times();
        self.stamp(span, Stage::Expand, times.expand);
        self.stamp(span, Stage::RowSel, times.row_sel);
        self.trace.record_scan(server.database().resident_bytes(), times.row_sel);
        self.stamp(span, Stage::ColTor, times.col_tor);
        Ok(answers)
    }

    /// The epoch of the database answers come from.
    fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }
}

/// The keyword (key-value) query plane: a cuckoo-hashed [`KvStore`]
/// whose scalar image is packed into a [`KsPirServer`], epoch-versioned
/// the same way as [`IndexEngine`] — every answer comes from one
/// immutable `Arc` snapshot, and each mutation re-packs only the chunks
/// its slot writes touch before swapping a new snapshot in.
#[derive(Debug)]
pub struct KeywordEngine {
    params: KsPirParams,
    /// The kernel backend every query dispatches through.
    backend: BackendKind,
    /// The authoritative table; mutations hold this lock (serialized),
    /// lookups of the scalar image never need it.
    store: Mutex<KvStore>,
    /// The packed server snapshot answers are served from.
    server: RwLock<Arc<KsPirServer>>,
    /// Per-stage recorder: `RowSel` (+ scan bytes), `ColTor` and `Expand`
    /// for every query answered here, `EpochCommit` for mutations.
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
            trace: Arc::new(TraceRecorder::new()),
        })
    }

    /// Replaces the stage recorder (call before the engine is shared).
    pub(crate) fn set_trace(&mut self, trace: Arc<TraceRecorder>) {
        self.trace = trace;
    }

    /// The table layout clients need to map keys to slots.
    pub(crate) fn schema(&self) -> KvSchema {
        self.store.lock().expect("kv store poisoned").schema().clone()
    }

    /// The current epoch's packed server — a consistent snapshot the
    /// caller can answer from lock-free while mutations proceed.
    pub fn snapshot(&self) -> Arc<KsPirServer> {
        self.server.read().expect("kv server poisoned").clone()
    }

    /// Answers one query (slot or bucket) against the current snapshot, on
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

    /// Bytes of packed chunk polynomials streamed per query (RNS
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
    pub(crate) fn put(&self, key: &[u8], value: u64) -> Result<u64, ServeError> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.insert(key, value)?;
        Ok(self.commit_writes(&writes))
    }

    /// Removes `key`; returns the new epoch, or `None` when the key was
    /// absent (no epoch is opened for a no-op).
    pub(crate) fn delete(&self, key: &[u8]) -> Option<u64> {
        let mut store = self.store.lock().expect("kv store poisoned");
        let writes = store.remove(key)?;
        Some(self.commit_writes(&writes))
    }

    /// Swaps in a snapshot with `writes` applied and returns its epoch;
    /// the caller holds the store lock, so commits are serialized and
    /// every epoch's snapshot matches the table state that produced it.
    fn commit_writes(&self, writes: &[(usize, u64)]) -> u64 {
        let t = Instant::now();
        let next = self
            .snapshot()
            .with_updates(writes)
            .expect("slot writes from the store are in range by construction");
        let epoch = next.epoch();
        *self.server.write().expect("kv server poisoned") = Arc::new(next);
        self.trace.record(Stage::EpochCommit, t.elapsed());
        epoch
    }
}

impl Engine for KeywordEngine {
    type Keys = KsPirKeys;
    type Query = KsPirQuery;
    /// `(key, Some(value))` puts, `(key, None)` deletes.
    type Update = (Vec<u8>, Option<u64>);
    type UpdateError = ServeError;

    /// Each query is 2^d products, a tournament over them and one trace
    /// of the winner (one round per registered key), all on that query's own
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

    /// A slot session registers one trace key per bit of the ring degree
    /// (`log N`); a bucket session registers the bucket query's `R`.
    fn check_keys(&self, keys: &KsPirKeys) -> Result<usize, ServeError> {
        let he = self.params.he();
        let slot = he.n().trailing_zeros() as usize;
        let bucket = ive_pir::keyword::bucket_trace_rounds(he)? as usize;
        let got = keys.trace_keys().len();
        if got != slot && got != bucket {
            return Err(ServeError::Protocol(format!(
                "registered {got} trace keys where the ring needs {slot} (slot) or {bucket} \
                 (bucket)"
            )));
        }
        Ok(got * he.evk_bytes())
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
    /// scratch — 2^d plaintext products, 2^d − 1 CMux, one `Subs` per
    /// registered trace key —
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

    /// The epoch of the snapshot answers come from.
    fn epoch(&self) -> u64 {
        self.snapshot().epoch()
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
    fn answer_one(engine: &IndexEngine, keys: &ClientKeys, query: &PirQuery) -> BfvCiphertext {
        engine.answer_batch_with(&[(keys, query)], &mut QueryScratch::new()).unwrap().remove(0)
    }

    fn engine(params: &PirParams, db: Database, width: usize) -> IndexEngine {
        engine_with(params, db, width, BackendKind::default())
    }

    fn engine_with(
        params: &PirParams,
        db: Database,
        width: usize,
        backend: BackendKind,
    ) -> IndexEngine {
        IndexEngine::new(params, db, width, TournamentOrder::Hs { subtree_depth: 2 }, backend)
            .unwrap()
    }

    #[test]
    fn wide_batches_match_width_one_batches() {
        // Cross-width AND cross-backend: the width-1 engine runs the
        // portable kernels while the wide engines run the widest vector
        // backend the host has (Avx512 resolves through the runtime-probe
        // fallback chain elsewhere) — answers must still be
        // bit-identical. Width 3 rounds down to 2 blocks, and 16 is more
        // than the toy's 8 rows.
        let (params, db, records) = setup();
        let narrow = engine_with(&params, db.clone(), 1, BackendKind::Optimized);
        for width in [2usize, 3, 4, 16] {
            let wide = engine_with(&params, db.clone(), width, BackendKind::Avx512);
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
            let a = narrow.answer_batch_with(&requests, &mut QueryScratch::new()).unwrap();
            let b = wide.answer_batch_with(&requests, &mut QueryScratch::new()).unwrap();
            assert_eq!(a, b, "width {width} changed answers");
            for ((client, query), (ct, target)) in
                clients.iter().zip(&queries).zip(b.iter().zip(targets))
            {
                let plain = client.decode(query, ct).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    /// The acceptance differential: after any update sequence, an engine
    /// of every width must answer **bit-identically** to an engine freshly
    /// built from the same contents — including deltas that straddle row
    /// block boundaries.
    #[test]
    fn updates_are_bit_identical_to_cold_rebuild_at_every_width() {
        let (params, db, mut records) = setup();
        // Deltas spanning both halves (and both quarters) of the row
        // space, so every block of every width absorbs at least one.
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
        for width in [1usize, 2, 4] {
            // Updates prepared and served on the widest vector backend
            // must match a cold rebuild answered on the portable one.
            let live = engine_with(&params, db.clone(), width, BackendKind::Avx512);
            assert_eq!(live.epoch(), 0);
            let epoch = live.apply_updates(&updates).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(live.updates_applied(), updates.len() as u64);
            let fresh = engine_with(&params, rebuilt_db.clone(), width, BackendKind::Optimized);
            for target in [0usize, params.d0() * (rows / 2) + 2, params.num_records() - 1] {
                let query = client.query(target).unwrap();
                let a = answer_one(&live, client.public_keys(), &query);
                let b = answer_one(&fresh, client.public_keys(), &query);
                assert_eq!(a, b, "width {width} diverged from cold rebuild at {target}");
                let plain = client.decode(&query, &a).unwrap();
                assert_eq!(&plain[..records[target].len()], &records[target][..]);
            }
        }
    }

    #[test]
    fn every_width_records_one_sample_per_stage_per_batch() {
        let (params, db, _) = setup();
        let client = |seed| PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(seed));
        let mut clients: Vec<_> = (0..2).map(|i| client(450 + i).unwrap()).collect();
        for width in [2usize, 4] {
            let live = engine(&params, db.clone(), width);
            let batches = 3;
            for b in 0..batches {
                let queries: Vec<_> = clients.iter_mut().map(|c| c.query(b * 5).unwrap()).collect();
                let requests: Vec<_> =
                    clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
                live.answer_batch_with(&requests, &mut QueryScratch::new()).unwrap();
            }
            let stats = live.trace.stage_stats();
            for stage in [Stage::Expand, Stage::RowSel, Stage::ColTor] {
                assert_eq!(
                    stats[stage as usize].count, batches as u64,
                    "width {width}: {stage:?} samples are not one per batch"
                );
            }
        }
    }

    #[test]
    fn empty_commit_is_a_noop_and_bad_updates_leave_epoch_alone() {
        let (params, db, _) = setup();
        let live = engine(&params, db, 1);
        assert_eq!(live.apply_updates(&[]).unwrap(), 0, "empty commit opened an epoch");
        assert!(matches!(
            live.apply_updates(&[RecordUpdate::delete(params.num_records())]),
            Err(PirError::IndexOutOfRange { .. })
        ));
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.updates_applied(), 0);
    }

    #[test]
    fn wrong_key_count_rejected() {
        let (params, db, _) = setup();
        let engine = engine(&params, db, 1);
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
        let evk = ks.he().evk_bytes();
        assert_eq!(keyword.check_keys(ks_client.public_keys()).unwrap(), 8 * evk);
        // A bucket session: the bucket query's four trace keys.
        let rounds = keyword.schema().trace_rounds();
        let rng = rand::rngs::StdRng::seed_from_u64(3);
        let bucket = ive_pir::KsPirClient::with_trace_rounds(&ks, rounds, rng).unwrap();
        assert_eq!(keyword.check_keys(bucket.public_keys()).unwrap(), 4 * evk);
        let rng = rand::rngs::StdRng::seed_from_u64(3);
        let between = ive_pir::KsPirClient::with_trace_rounds(&ks, rounds + 1, rng).unwrap();
        assert!(keyword.check_keys(between.public_keys()).is_err());
        // A well-formed key set for a ring of half the degree: one trace
        // round short.
        let ring = ive_math::rns::RingContext::test_ring(ks.he().n() / 2, 3);
        let gadget = ive_math::gadget::Gadget::for_modulus(ring.basis().q_big(), 14);
        let half = KsPirParams::new(HeParams::new(ring, 16, gadget, gadget, 4).unwrap(), 2);
        let short = ive_pir::KsPirClient::new(&half, rand::rngs::StdRng::seed_from_u64(3)).unwrap();
        assert!(keyword.check_keys(short.public_keys()).is_err());
    }

    #[test]
    fn empty_batch_is_empty() {
        let (params, db, _) = setup();
        let engine = engine(&params, db, 1);
        assert!(engine.answer_batch_with(&[], &mut QueryScratch::new()).unwrap().is_empty());
    }

    /// Retrieves `key` through the full private path: one bucket query
    /// per candidate bucket, decoded into the bucket's scalars and matched
    /// against the key's fingerprint.
    fn kv_get(
        engine: &KeywordEngine,
        client: &mut ive_pir::KsPirClient<rand::rngs::StdRng>,
        key: &[u8],
    ) -> Option<u64> {
        let schema = engine.schema();
        schema.candidates(key).into_iter().find_map(|bucket| {
            let query = client.query(schema.slot_of(bucket)).unwrap();
            let ct = engine.answer(client.public_keys(), &query).unwrap();
            schema.decode_bucket(key, &client.decode_group(&ct).unwrap())
        })
    }

    #[test]
    fn keyword_engine_serves_and_mutates_by_key() {
        let params = KsPirParams::toy();
        let entries = vec![(b"alice".to_vec(), 7u64), (b"bob".to_vec(), 13)];
        let store = KvStore::build(&params, &entries).unwrap();
        let engine = KeywordEngine::new(&params, store, BackendKind::default()).unwrap();
        assert_eq!(engine.store.lock().unwrap().len(), 2);
        let rng = rand::rngs::StdRng::seed_from_u64(500);
        let rounds = engine.schema().trace_rounds();
        let mut client = ive_pir::KsPirClient::with_trace_rounds(&params, rounds, rng).unwrap();

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
    }
}
