//! Blocking clients for the serving runtime, all built from one
//! [`Connection`] entry point: [`ServeClient`] for private retrieval by
//! index (one handshake uploading the keys, then any number of
//! `retrieve` calls shipping only the small per-query payload),
//! [`KvClient`] for private retrieval **by key** over a keyword service,
//! and [`UpdateClient`] for content ingestion (row put/delete batches,
//! each acknowledged with the epoch it committed as — no keys, no
//! session).
//!
//! ## Self-healing
//!
//! A [`Connection`] built with [`Connection::dial`] keeps its
//! [`Connector`], so the typed clients can *recover* from transient
//! failures instead of surfacing them: a [`RetryPolicy`] bounds the
//! attempts and paces them with capped exponential backoff
//! (deterministically jittered), a dead transport is re-dialed and the
//! handshake replayed — key material is client-side, so an evicted or
//! lost session re-registers with one `Hello` — and in-flight queries
//! are resubmitted under the new session. Updates are made retry-safe
//! by idempotency: every batch carries a process-unique request id the
//! server remembers, so a retried already-acked batch is re-acked, never
//! re-applied. [`RetryCounters`] (shared via
//! [`Connection::retry_counters`]) expose what the recovery machinery
//! did.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_pir::kspir::{KsPirClient, KsPirParams};
use ive_pir::{wire, KvSchema, PirClient, PirParams, RecordUpdate};

use crate::metrics::ServerStats;
use crate::transport::{BoxedConn, Connector, FrameRx, FrameTx, Received};
use crate::ServeError;

/// How long a client waits for any single response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// How a client paces recovery: total attempt budget plus capped
/// exponential backoff between attempts, with deterministic jitter (the
/// jitter decorrelates a thundering herd without making test runs
/// unreproducible — same seed, same delays).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts for one operation, the first included; `1` means
    /// no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; attempt `n` waits up to
    /// `base_backoff << n`.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x17E_5EED,
        }
    }
}

impl RetryPolicy {
    /// The no-retry policy: every failure surfaces immediately (what
    /// [`Connection::new`] defaults to — a connection without a
    /// connector cannot re-dial anyway).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The pause before retry number `attempt` (0-based): capped
    /// exponential, jittered into `[d/2, d]` so concurrent clients
    /// spread out. Deterministic in `(jitter_seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let mix = mix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Duration::from_nanos(nanos / 2 + mix % (nanos / 2 + 1))
    }
}

/// What the recovery machinery did on a connection's behalf — shared
/// atomics ([`Connection::retry_counters`]) so callers can read them
/// while the typed client owns the connection.
#[derive(Debug, Default)]
pub struct RetryCounters {
    retries: AtomicU64,
    reconnects: AtomicU64,
    timeouts: AtomicU64,
}

impl RetryCounters {
    /// Operations retried after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fresh connections dialed (and handshakes replayed) to recover.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Response deadlines that expired.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// SplitMix64 finalizer: cheap deterministic mixing for jitter and
/// request-id bases (not cryptographic).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A process-unique update request id: a random per-process base
/// (time ⊕ pid, mixed) plus a counter. Uniqueness is what makes retried
/// updates idempotent — the server's dedup cache is keyed by these ids,
/// so two updaters in one process (or across processes) must never draw
/// the same id for different batches.
fn unique_request_id() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let base = *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        mix64(nanos ^ (u64::from(std::process::id()) << 32))
    });
    let id = base.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed));
    // 0 is the connection-level sentinel in error frames; skip it.
    id.max(1)
}

/// A raw framed connection, not yet committed to a protocol role. This
/// is the single client entry point: wrap the [`BoxedConn`] a transport
/// connector produced (or better, [`Connection::dial`] a [`Connector`]
/// so the client can transparently reconnect), then pick the role —
/// every `into_*` method runs that role's handshake (or none, for
/// updates) and returns the typed client.
///
/// ```no_run
/// # use ive_pir::PirParams;
/// # use ive_serve::{transport::in_proc_pair, Connection, RetryPolicy};
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let params = PirParams::toy();
/// # let (_t, connector) = in_proc_pair();
/// let rng = rand::rngs::StdRng::seed_from_u64(7);
/// // Self-healing reader: re-dials, re-Hellos, and resubmits on failure.
/// let mut reader = Connection::dial(connector.clone())?
///     .with_retry(RetryPolicy::default())
///     .into_serve_client(&params, rng)?;
/// // Bare writer: no connector, so failures surface immediately.
/// let mut writer = Connection::new(connector.connect()?).into_update_client();
/// # Ok(())
/// # }
/// ```
///
/// It stays the plumbing under the typed client it turns into: the live
/// frame pair plus everything needed to replace it — the connector, the
/// retry policy pacing recovery, the per-response deadline, and the
/// counters.
pub struct Connection {
    rx: Box<dyn FrameRx>,
    tx: Box<dyn FrameTx>,
    connector: Option<Box<dyn Connector>>,
    retry: RetryPolicy,
    timeout: Duration,
    counters: Arc<RetryCounters>,
}

impl Connection {
    /// Wraps a connected transport pair. Without a connector the
    /// connection cannot re-dial, so the policy defaults to
    /// [`RetryPolicy::none`].
    pub fn new((rx, tx): BoxedConn) -> Self {
        Connection {
            rx,
            tx,
            connector: None,
            retry: RetryPolicy::none(),
            timeout: RESPONSE_TIMEOUT,
            counters: Arc::default(),
        }
    }

    /// Dials a fresh connection through `connector` and keeps the
    /// connector for transparent reconnects; retry defaults to
    /// [`RetryPolicy::default`] (tune with [`Connection::with_retry`]).
    ///
    /// # Errors
    /// Fails when the initial dial fails (later dials are the retry
    /// machinery's problem).
    pub fn dial(connector: impl Connector + 'static) -> Result<Self, ServeError> {
        let mut conn = Connection::new(connector.dial()?);
        conn.connector = Some(Box::new(connector));
        Ok(conn.with_retry(RetryPolicy::default()))
    }

    /// Overrides the retry policy ([`RetryPolicy::none`] disables
    /// recovery entirely).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the per-response deadline (default 120 s).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The shared counters the recovery machinery writes — clone before
    /// converting into a typed client to observe retries from outside.
    pub fn retry_counters(&self) -> Arc<RetryCounters> {
        Arc::clone(&self.counters)
    }

    /// Runs the index-retrieval handshake — generates keys, uploads them
    /// ([`wire::Tag::Hello`]) and waits for the session id: the one-time
    /// expensive step (§V key registration) — and returns the registered
    /// [`ServeClient`].
    ///
    /// # Errors
    /// Fails on keygen, transport, or handshake-rejection errors.
    pub fn into_serve_client(
        mut self,
        params: &PirParams,
        rng: rand::rngs::StdRng,
    ) -> Result<ServeClient, ServeError> {
        let client = PirClient::new(params, rng)?;
        let hello = wire::encode_hello(client.public_keys());
        let session_id = self.handshake(&hello, wire::Tag::Welcome, wire::decode_welcome)?;
        Ok(ServeClient {
            link: self,
            session_id,
            next_request: 1,
            client,
            pending: std::collections::HashMap::new(),
            stash: std::collections::VecDeque::new(),
        })
    }

    /// Returns an [`UpdateClient`] (updates exchange no handshake).
    pub fn into_update_client(self) -> UpdateClient {
        UpdateClient { link: self }
    }

    /// Runs the keyword handshake ([`wire::Tag::KsHello`] upload of a
    /// bucket query's `R` trace keys → session id + table layout) against
    /// a keyword service and returns the registered [`KvClient`].
    ///
    /// # Errors
    /// Fails on keygen, transport, or handshake-rejection errors, or a
    /// server layout that contradicts `params`.
    pub fn into_kv_client(
        mut self,
        params: &KsPirParams,
        rng: rand::rngs::StdRng,
    ) -> Result<KvClient, ServeError> {
        let rounds = ive_pir::keyword::bucket_trace_rounds(params.he())?;
        let client = KsPirClient::with_trace_rounds(params, rounds, rng)?;
        let hello = wire::encode_ks_hello(client.public_keys());
        let (session_id, schema) =
            self.handshake(&hello, wire::Tag::KsWelcome, |f| wire::decode_ks_welcome(params, f))?;
        Ok(KvClient { link: self, session_id, next_request: 1, client, schema })
    }

    /// Blocks until one frame arrives, the peer closes, or the
    /// configured deadline passes.
    fn recv(&mut self) -> Result<Bytes, ServeError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            match self.rx.recv()? {
                Received::Frame(frame) => return Ok(frame),
                Received::Idle if Instant::now() >= deadline => return Err(ServeError::Timeout),
                Received::Idle => {}
                Received::Closed => return Err(ServeError::Closed),
            }
        }
    }

    /// Whether recovery is even possible: a connector to re-dial with
    /// and a retry budget beyond the first attempt.
    fn can_recover(&self) -> bool {
        self.connector.is_some() && self.retry.max_attempts > 1
    }

    /// Whether `err`, the outcome of 0-based attempt `attempt`, is worth
    /// another one: transient, recoverable, and inside the budget.
    fn may_retry(&self, err: &ServeError, attempt: u32) -> bool {
        err.is_transient() && self.can_recover() && attempt + 1 < self.retry.max_attempts
    }

    /// Replaces the frame pair with a freshly dialed connection.
    fn redial(&mut self) -> Result<(), ServeError> {
        let connector = self.connector.as_ref().ok_or(ServeError::Closed)?;
        let (rx, tx) = connector.dial()?;
        self.rx = rx;
        self.tx = tx;
        Ok(())
    }

    /// Books a failure into the counters (timeouts separately) and
    /// sleeps out the backoff for retry `attempt`.
    fn note_retry(&self, err: &ServeError, attempt: u32) {
        if matches!(err, ServeError::Timeout) {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        std::thread::sleep(self.retry.backoff(attempt));
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-dials after a failed attempt, counting the reconnect when it
    /// lands (when it does not, the next attempt fails fast and retries).
    fn redial_counted(&mut self) {
        if self.redial().is_ok() {
            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One handshake exchange on the current connection: ships `hello`
    /// and decodes the `welcome`-tagged reply. Frames that answer
    /// something else (queries still in flight on a connection that is
    /// re-registering, their failures included) go onto `stash` when
    /// there is one.
    fn hello_once<T>(
        &mut self,
        hello: &Bytes,
        welcome: wire::Tag,
        decode: impl FnOnce(&Bytes) -> Result<T, ive_pir::PirError>,
        mut stash: Option<&mut std::collections::VecDeque<Bytes>>,
    ) -> Result<T, ServeError> {
        self.tx.send(hello)?;
        loop {
            let frame = self.recv()?;
            match wire::peek_tag(&frame)? {
                tag if tag == welcome => return Ok(decode(&frame)?),
                wire::Tag::Error => {
                    // A refused handshake is filed under request 0; an
                    // error that names a request is that query's.
                    let (request_id, message) = wire::decode_error_frame(&frame)?;
                    if request_id == 0 || stash.is_none() {
                        return Err(ServeError::Remote { request_id, message });
                    }
                }
                tag if stash.is_none() => {
                    return Err(ServeError::Protocol(format!(
                        "expected {}, server sent {}",
                        welcome.name(),
                        tag.name()
                    )))
                }
                _ => {}
            }
            if let Some(stash) = &mut stash {
                stash.push_back(frame);
            }
        }
    }

    /// The handshake under `into_serve_client` and `into_kv_client`:
    /// [`Connection::hello_once`], retried (with re-dials) under the
    /// connection's policy.
    fn handshake<T>(
        &mut self,
        hello: &Bytes,
        welcome: wire::Tag,
        decode: impl Fn(&Bytes) -> Result<T, ive_pir::PirError>,
    ) -> Result<T, ServeError> {
        let mut attempt = 0u32;
        loop {
            match self.hello_once(hello, welcome, &decode, None) {
                Err(e) if self.may_retry(&e, attempt) => {
                    self.note_retry(&e, attempt);
                    attempt += 1;
                    self.redial_counted();
                }
                done => return done,
            }
        }
    }

    /// Ships one update frame and blocks for its acknowledgement,
    /// returning `(epoch, applied)`. Transient failures retry the *same*
    /// frame — same request id — so the server's idempotency cache
    /// guarantees at-most-once apply: remote rejections (busy) retry on
    /// the live connection, transport failures need a re-dial.
    fn acked(&mut self, frame: &Bytes, request_id: u64) -> Result<(u64, u32), ServeError> {
        let mut attempt = 0u32;
        loop {
            match self.acked_once(frame, request_id) {
                Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts => {
                    let needs_redial = !matches!(e, ServeError::Remote { .. });
                    if needs_redial && self.connector.is_none() {
                        return Err(e);
                    }
                    self.note_retry(&e, attempt);
                    attempt += 1;
                    if needs_redial {
                        self.redial_counted();
                    }
                }
                done => return done,
            }
        }
    }

    /// One send → ack exchange. Acks and errors for *other* request ids,
    /// and query responses, are stale leftovers of earlier timed-out
    /// attempts and are skipped.
    fn acked_once(&mut self, frame: &Bytes, request_id: u64) -> Result<(u64, u32), ServeError> {
        self.tx.send(frame)?;
        loop {
            let resp = self.recv()?;
            match wire::peek_tag(&resp)? {
                wire::Tag::UpdateAck => {
                    let (got, epoch, applied) = wire::decode_update_ack(&resp)?;
                    if got == request_id {
                        return Ok((epoch, applied));
                    }
                }
                wire::Tag::Error => {
                    let (got, message) = wire::decode_error_frame(&resp)?;
                    if got == request_id || got == 0 {
                        return Err(ServeError::Remote { request_id: got, message });
                    }
                }
                wire::Tag::KsResponse | wire::Tag::CompressedResponse => {}
                tag => {
                    return Err(ServeError::Protocol(format!(
                        "expected UpdateAck, server sent {}",
                        tag.name()
                    )))
                }
            }
        }
    }

    /// Scrapes the server's live counters: sends [`wire::Tag::GetStats`]
    /// under `request_id` and rebuilds [`ServerStats`] from the raw
    /// integer report. Frames that answer something else are pushed onto
    /// `stash` for their owner.
    fn stats(
        &mut self,
        request_id: u64,
        stash: &mut std::collections::VecDeque<Bytes>,
    ) -> Result<ServerStats, ServeError> {
        self.tx.send(&wire::encode_get_stats(request_id))?;
        loop {
            let frame = self.recv()?;
            match wire::peek_tag(&frame)? {
                wire::Tag::StatsResponse => {
                    let (got, report) = wire::decode_stats_response(&frame)?;
                    if got != request_id {
                        return Err(ServeError::Protocol(format!(
                            "stats for request {got} while {request_id} was in flight"
                        )));
                    }
                    return Ok(ServerStats::from_report(&report));
                }
                wire::Tag::Error => {
                    let (got, message) = wire::decode_error_frame(&frame)?;
                    if got == request_id || got == 0 {
                        return Err(ServeError::Remote { request_id: got, message });
                    }
                    // Another request's failure: its owner will want it.
                    stash.push_back(frame);
                }
                _ => stash.push_back(frame),
            }
        }
    }
}

/// A connected, registered PIR client. Supports both blocking
/// single-query use ([`ServeClient::retrieve`]) and pipelining several
/// in-flight queries ([`ServeClient::submit`] / [`ServeClient::next_record`])
/// so one connection can keep a batching server busy.
///
/// Built from a [`Connection::dial`], the client self-heals: transport
/// failures re-dial and re-Hello (the key material is local, so an
/// LRU-evicted session costs one handshake), and in-flight queries are
/// resubmitted under the recovered session — callers just see
/// `next_record` take a little longer.
pub struct ServeClient {
    link: Connection,
    session_id: u64,
    next_request: u64,
    client: PirClient<rand::rngs::StdRng>,
    /// Queries awaiting their response, keyed by request id (needed to
    /// decode the response that answers them — and to *resubmit* after a
    /// reconnect).
    pending: std::collections::HashMap<u64, ive_pir::PirQuery>,
    /// Frames received while waiting for a specific response (e.g. query
    /// responses arriving during a [`ServeClient::stats`] scrape), to be
    /// consumed by the next [`ServeClient::next_record`] call.
    stash: std::collections::VecDeque<Bytes>,
}

impl ServeClient {
    /// The session id the server assigned (may change after recovery).
    #[inline]
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Number of queries currently in flight.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Ships a query for record `index` without waiting for the answer;
    /// returns its request id. Collect results with
    /// [`ServeClient::next_record`].
    ///
    /// # Errors
    /// Fails on out-of-range indices or transport errors (after the
    /// retry budget, when recovery is configured).
    pub fn submit(&mut self, index: usize) -> Result<u64, ServeError> {
        let query = self.client.query(index)?;
        let request_id = self.next_request;
        self.next_request += 1;
        self.pending.insert(request_id, query);
        if let Err(e) = self.send_query(request_id) {
            // Recovery resubmits every pending query, this one included;
            // on failure the query is withdrawn so `pending` stays
            // truthful.
            if let Err(e) = self.recover(e) {
                self.pending.remove(&request_id);
                return Err(e);
            }
        }
        Ok(request_id)
    }

    /// Ships pending query `request_id` under the current session.
    fn send_query(&mut self, request_id: u64) -> Result<(), ServeError> {
        let query = &self.pending[&request_id];
        self.link.tx.send(&wire::encode_session_query(self.session_id, request_id, query))
    }

    /// Re-registers this client's keys on the *current* connection (an
    /// evicted session recovering in place) and adopts the new session
    /// id. Response frames arriving meanwhile are stashed.
    fn rehello(&mut self) -> Result<(), ServeError> {
        let hello = wire::encode_hello(self.client.public_keys());
        self.session_id = self.link.hello_once(
            &hello,
            wire::Tag::Welcome,
            wire::decode_welcome,
            Some(&mut self.stash),
        )?;
        Ok(())
    }

    /// Takes the pending query a response answers. A duplicate answer
    /// (query resubmitted while its first answer was in flight) is
    /// `None` — dropped, not an error — when recovery is on.
    fn settle(&mut self, request_id: u64) -> Result<Option<ive_pir::PirQuery>, ServeError> {
        match self.pending.remove(&request_id) {
            None if !self.link.can_recover() => {
                Err(ServeError::Protocol(format!("response for unknown request {request_id}")))
            }
            query => Ok(query),
        }
    }

    /// Full recovery after a transport failure: re-dial, re-Hello, and
    /// resubmit every pending query under the new session. Returns the
    /// original error when the budget is exhausted or recovery is not
    /// configured.
    fn recover(&mut self, err: ServeError) -> Result<(), ServeError> {
        if !self.link.can_recover() {
            return Err(err);
        }
        if matches!(err, ServeError::Timeout) {
            self.link.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        for attempt in 0..self.link.retry.max_attempts.saturating_sub(1) {
            std::thread::sleep(self.link.retry.backoff(attempt));
            self.link.counters.retries.fetch_add(1, Ordering::Relaxed);
            if self.link.redial().is_err() {
                continue;
            }
            // The old socket died with responses possibly unread; the
            // stash only holds frames already safely received, so it
            // stays valid.
            if self.rehello().is_err() {
                continue;
            }
            self.link.counters.reconnects.fetch_add(1, Ordering::Relaxed);
            let replay: Vec<u64> = self.pending.keys().copied().collect();
            if replay.into_iter().try_for_each(|id| self.send_query(id)).is_ok() {
                return Ok(());
            }
        }
        Err(err)
    }

    /// Waits for the next response to any in-flight query and decodes it.
    ///
    /// With recovery configured, transient failures (dead transport,
    /// timeouts, evicted sessions, overload rejections) are healed
    /// in-line — reconnect + re-Hello + resubmit — and only surface once
    /// the retry budget is spent.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors (a remote
    /// error consumes the in-flight request it names).
    pub fn next_record(&mut self) -> Result<(u64, Vec<u8>), ServeError> {
        if self.pending.is_empty() {
            return Err(ServeError::Protocol("no query in flight".into()));
        }
        let he = self.client.params().he().clone();
        let mut attempts = 0u32;
        loop {
            let frame = match self.stash.pop_front() {
                Some(frame) => frame,
                None => match self.link.recv() {
                    Ok(frame) => frame,
                    Err(e) if self.link.may_retry(&e, attempts) => {
                        attempts += 1;
                        self.recover(e)?;
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match wire::peek_tag(&frame)? {
                wire::Tag::SessionResponse => {
                    let (request_id, ct) = wire::decode_session_response(&he, &frame)?;
                    if let Some(query) = self.settle(request_id)? {
                        return Ok((request_id, self.client.decode(&query, &ct)?));
                    }
                }
                // A compress_responses server ships modulus-switched
                // answers; the client decodes either form transparently.
                wire::Tag::CompressedResponse => {
                    let (request_id, ct) = wire::decode_compressed_response(&he, &frame)?;
                    if let Some(query) = self.settle(request_id)? {
                        return Ok((request_id, self.client.decode_compressed(&query, &ct)?));
                    }
                }
                wire::Tag::Error => {
                    let (request_id, message) = wire::decode_error_frame(&frame)?;
                    let remote = ServeError::Remote { request_id, message };
                    let retryable = request_id != 0
                        && self.pending.contains_key(&request_id)
                        && attempts + 1 < self.link.retry.max_attempts;
                    if retryable && (remote.is_unknown_session() || remote.is_busy()) {
                        attempts += 1;
                        if remote.is_busy() {
                            // Overload shed: back off first.
                            self.link.note_retry(&remote, attempts - 1);
                        } else {
                            // LRU-evicted session: re-register on this
                            // very connection first.
                            self.link.counters.retries.fetch_add(1, Ordering::Relaxed);
                            self.rehello()?;
                        }
                        self.send_query(request_id)?;
                        continue;
                    }
                    if request_id == 0 {
                        // Connection-level failure (the server could not
                        // even decode the offending frame, so it cannot
                        // name it): every in-flight query is lost.
                        // Clearing them keeps the connection usable.
                        self.pending.clear();
                    } else {
                        self.pending.remove(&request_id);
                    }
                    return Err(remote);
                }
                tag => {
                    return Err(ServeError::Protocol(format!(
                        "expected SessionResponse, server sent {}",
                        tag.name()
                    )))
                }
            }
        }
    }

    /// Retrieves record `index` privately: builds the query, ships it
    /// under the session id, and decodes the matching response.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors, and when
    /// called with pipelined queries still in flight.
    pub fn retrieve(&mut self, index: usize) -> Result<Vec<u8>, ServeError> {
        if !self.pending.is_empty() {
            return Err(ServeError::Protocol(format!(
                "retrieve with {} pipelined queries in flight",
                self.pending.len()
            )));
        }
        // Nothing else is pending, so the one record that settles is ours.
        self.submit(index)?;
        Ok(self.next_record()?.1)
    }

    /// Scrapes the server's live counters over this connection: sends
    /// [`wire::Tag::GetStats`] and rebuilds [`ServerStats`] from the raw
    /// integer report — the same derivation the server runs in-process,
    /// so a remote observer sees identical quantiles, per-stage
    /// histograms, kernel op rates, and scan bandwidth. Query responses
    /// arriving in the meantime are stashed for
    /// [`ServeClient::next_record`], so polling a loaded connection loses
    /// nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.link.stats(request_id, &mut self.stash)
    }
}

/// A content-ingestion client: streams [`RecordUpdate`] batches to a
/// serving runtime and waits for each batch's [`wire::Tag::UpdateAck`].
/// Updates need no key material and no session — an updater is typically
/// a separate operational process, not a PIR client.
///
/// Each acknowledged batch is one committed epoch: queries admitted
/// after the ack observe the new contents, queries in flight finish on
/// the previous epoch, and nobody sees a torn batch.
///
/// Retried batches are **idempotent**: every `apply` draws a
/// process-unique request id the server's dedup cache remembers, so a
/// batch whose ack was lost in transit is re-acked on retry — with the
/// epoch it originally committed as — never applied twice.
///
/// # Example
///
/// ```
/// use ive_pir::{Database, PirParams};
/// use ive_serve::{config::ServeConfig, transport::in_proc_pair};
/// use ive_serve::{Connection, PirService};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = PirParams::toy();
/// let db = Database::from_records(&params, &[b"v1".to_vec()])?;
/// let (transport, connector) = in_proc_pair();
/// // Updates are off by default (they are unauthenticated); opt in.
/// let config = ServeConfig { accept_updates: true, ..ServeConfig::default() };
/// let service = PirService::start(config, &params, db, Box::new(transport))?;
///
/// let mut updater = Connection::new(connector.connect()?).into_update_client();
/// let epoch = updater.put(0, b"v2 - live".to_vec())?;
/// assert_eq!(epoch, 1);
///
/// let rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut reader = Connection::new(connector.connect()?).into_serve_client(&params, rng)?;
/// assert_eq!(&reader.retrieve(0)?[..9], b"v2 - live");
/// drop(reader);
/// service.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct UpdateClient {
    link: Connection,
}

impl UpdateClient {
    /// Ships one batch of deltas and blocks for its acknowledgement,
    /// returning `(epoch, applied)` — the epoch the batch committed as
    /// and the number of deltas the server confirmed. With recovery
    /// configured, transient failures retry the *same* request id, so
    /// the server's idempotency cache guarantees at-most-once apply.
    ///
    /// # Errors
    /// Fails on transport errors or a server-reported rejection (e.g. a
    /// read-only service or an out-of-range index).
    pub fn apply(&mut self, updates: &[RecordUpdate]) -> Result<(u64, u32), ServeError> {
        let request_id = unique_request_id();
        let frame = wire::encode_update_rows(request_id, updates).map_err(ServeError::Pir)?;
        self.link.acked(&frame, request_id)
    }

    /// Replaces record `index` with `bytes`; returns the committed epoch.
    ///
    /// # Errors
    /// See [`UpdateClient::apply`].
    pub fn put(&mut self, index: usize, bytes: Vec<u8>) -> Result<u64, ServeError> {
        Ok(self.apply(&[RecordUpdate::put(index, bytes)])?.0)
    }

    /// Resets record `index` to all-zero; returns the committed epoch.
    ///
    /// # Errors
    /// See [`UpdateClient::apply`].
    pub fn delete(&mut self, index: usize) -> Result<u64, ServeError> {
        Ok(self.apply(&[RecordUpdate::delete(index)])?.0)
    }
}

/// A connected, registered **keyword** client: private retrieval by key
/// over a keyword service ([`crate::PirService::start_keyword`]).
///
/// One `get(key)` privately fetches both cuckoo candidate buckets — two
/// KsPIR queries, both shipped before either response is awaited, each
/// answered by a partial trace that returns a whole bucket — and decodes
/// them locally: the server learns a fixed, key-independent access
/// pattern (always two bucket queries, each individually private), never
/// which key was looked up or whether it was present.
///
/// Built from a [`Connection::dial`], lookups and mutations self-heal
/// like the index client's: a dead transport re-dials and replays the
/// `KsHello`, interrupted bucket fetches restart whole, and mutations
/// ride the same idempotent request-id scheme as [`UpdateClient`].
pub struct KvClient {
    link: Connection,
    session_id: u64,
    next_request: u64,
    client: KsPirClient<rand::rngs::StdRng>,
    schema: KvSchema,
}

impl KvClient {
    /// Re-runs the keyword handshake on the current connection, adopting
    /// the new session id and (possibly refreshed) schema.
    fn rehello(&mut self) -> Result<(), ServeError> {
        let hello = wire::encode_ks_hello(self.client.public_keys());
        let params = self.schema.params().clone();
        // Whatever else arrives answers queries of an abandoned bucket
        // fetch (an evicted session fails all of them): drop it.
        let (session_id, schema) = self.link.hello_once(
            &hello,
            wire::Tag::KsWelcome,
            |f| wire::decode_ks_welcome(&params, f),
            Some(&mut std::collections::VecDeque::new()),
        )?;
        self.session_id = session_id;
        self.schema = schema;
        Ok(())
    }

    /// The session id the server assigned (may change after recovery).
    #[inline]
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The table layout negotiated at the handshake.
    #[inline]
    pub fn schema(&self) -> &KvSchema {
        &self.schema
    }

    /// Privately retrieves the value stored under `key`, or `None` when
    /// absent. Both candidate buckets are always fetched, in a fixed
    /// order, so presence and bucket choice leak nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<u64>, ServeError> {
        let buckets = self.fetch_buckets(self.schema.candidates(key))?;
        Ok(buckets.iter().find_map(|bucket| self.schema.decode_bucket(key, bucket)))
    }

    /// Inserts or overwrites `key` server-side; returns the committed
    /// epoch. Mutations identify the key in the clear — they are the
    /// content-owner's ingest path (gated by
    /// [`crate::ServeConfig::accept_updates`]), not a private operation.
    ///
    /// # Errors
    /// Fails on transport errors or a server-reported rejection (e.g. a
    /// read-only service or a full table).
    pub fn put(&mut self, key: &[u8], value: u64) -> Result<u64, ServeError> {
        self.mutate(key, Some(value))
    }

    /// Deletes `key` server-side; returns the epoch the delete committed
    /// as (unchanged when the key was already absent).
    ///
    /// # Errors
    /// See [`KvClient::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, ServeError> {
        self.mutate(key, None)
    }

    fn mutate(&mut self, key: &[u8], value: Option<u64>) -> Result<u64, ServeError> {
        let request_id = unique_request_id();
        let frame = wire::encode_kv_update(request_id, key, value).map_err(ServeError::Pir)?;
        Ok(self.link.acked(&frame, request_id)?.0)
    }

    /// Scrapes the keyword server's live counters (see
    /// [`ServeClient::stats`] for the index-PIR counterpart). Every other
    /// exchange on a keyword connection is synchronous, so anything that
    /// arrives meanwhile is a stale leftover of a timed-out attempt and
    /// is dropped.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.link.stats(request_id, &mut std::collections::VecDeque::new())
    }

    /// Fetches both candidate buckets, retrying the pair under the
    /// link's policy: a fetch interrupted mid-flight restarts from scratch
    /// (fresh request ids), so a recovered fetch can never mix responses
    /// from two attempts.
    fn fetch_buckets(&mut self, buckets: [usize; 2]) -> Result<[Vec<u64>; 2], ServeError> {
        let mut attempt = 0u32;
        loop {
            match self.fetch_buckets_once(buckets) {
                Err(e)
                    if (e.is_transient() || e.is_unknown_session())
                        && self.link.can_recover()
                        && attempt + 1 < self.link.retry.max_attempts =>
                {
                    self.link.note_retry(&e, attempt);
                    attempt += 1;
                    if e.is_unknown_session() {
                        // The session is gone but the transport is fine:
                        // re-register in place.
                        let _ = self.rehello();
                    } else if self.link.redial().is_ok() && self.rehello().is_ok() {
                        self.link.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                done => return done,
            }
        }
    }

    /// One pipelined fetch: both bucket queries ship before the first
    /// response is awaited, and responses are matched back by request id
    /// and decoded whole. Stale frames from earlier attempts are skipped.
    fn fetch_buckets_once(&mut self, buckets: [usize; 2]) -> Result<[Vec<u64>; 2], ServeError> {
        let he = self.schema.params().he().clone();
        let first = self.next_request;
        for bucket in buckets {
            let query = self.client.query(self.schema.slot_of(bucket))?;
            let request_id = self.next_request;
            self.next_request += 1;
            self.link.tx.send(&wire::encode_ks_query(self.session_id, request_id, &query))?;
        }
        let mut fetched: [Option<Vec<u64>>; 2] = [None, None];
        let which = |request_id: u64| request_id.checked_sub(first).filter(|&i| i < 2);
        while fetched.iter().any(Option::is_none) {
            let frame = self.link.recv()?;
            let (request_id, bucket) = match wire::peek_tag(&frame)? {
                wire::Tag::KsResponse => {
                    let (request_id, ct) = wire::decode_ks_response(&he, &frame)?;
                    (request_id, self.client.decode_group(&ct)?)
                }
                wire::Tag::CompressedResponse => {
                    let (request_id, ct) = wire::decode_compressed_response(&he, &frame)?;
                    (request_id, self.client.decode_group_switched(&ct)?)
                }
                wire::Tag::Error => {
                    let (request_id, message) = wire::decode_error_frame(&frame)?;
                    if request_id == 0 || which(request_id).is_some() {
                        return Err(ServeError::Remote { request_id, message });
                    }
                    continue; // stale error of an earlier attempt
                }
                wire::Tag::UpdateAck => continue, // stale ack of an earlier attempt
                tag => {
                    return Err(ServeError::Protocol(format!(
                        "expected KsResponse, server sent {}",
                        tag.name()
                    )))
                }
            };
            // Other ids are responses to an interrupted earlier fetch:
            // already restarted, safe to drop.
            if let Some(i) = which(request_id) {
                fetched[i as usize] = Some(bucket);
            }
        }
        Ok(fetched.map(|bucket| bucket.expect("both buckets arrived")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered_into_range() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 42,
        };
        for attempt in 0..8 {
            let a = policy.backoff(attempt);
            let b = policy.backoff(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same delay");
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(16))
                .min(Duration::from_millis(200));
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} outside [{:?}, {exp:?}]",
                exp / 2
            );
        }
        // Different seeds decorrelate.
        let other = RetryPolicy { jitter_seed: 43, ..policy };
        assert!(
            (0..8).any(|n| policy.backoff(n) != other.backoff(n)),
            "two seeds must not produce identical schedules"
        );
        // The cap holds far out.
        assert!(policy.backoff(31) <= Duration::from_millis(200));
    }

    #[test]
    fn no_retry_policy_has_one_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn unique_request_ids_never_repeat_or_hit_the_sentinel() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = unique_request_id();
            assert_ne!(id, 0, "0 is the connection-level sentinel");
            assert!(seen.insert(id), "request id {id} repeated");
        }
    }

    #[test]
    fn retry_counters_start_zeroed() {
        let c = RetryCounters::default();
        assert_eq!((c.retries(), c.reconnects(), c.timeouts()), (0, 0, 0));
    }
}
