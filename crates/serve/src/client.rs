//! Blocking clients for the serving runtime, all built from one
//! [`Connection`] entry point: [`ServeClient`] for private retrieval by
//! index (one handshake uploading the keys, then any number of
//! `retrieve` calls shipping only the small per-query payload),
//! [`KvClient`] for private retrieval **by key** over a keyword service,
//! and [`UpdateClient`] for content ingestion (row put/delete batches,
//! each acknowledged with the epoch it committed as — no keys, no
//! session). The two retrieval clients are one session core (pending
//! queries, answer matching, recovery) over two planes that differ only
//! in their handshake, query frame and answer decoding; a keyword `get`
//! submits its two bucket queries to that core, both shipped before
//! either answer is awaited.
//!
//! ## Self-healing
//!
//! A [`Connection`] built with [`Connection::dial`] keeps its
//! [`Connector`], so the typed clients can *recover* from transient
//! failures: a dead transport is re-dialed and the handshake replayed —
//! key material is client-side, so a lost session re-registers with one
//! `Hello`, in place when only the session was evicted — and every
//! pending query, an index query or a get's bucket query alike, is
//! resubmitted under the new session. Updates are retry-safe by
//! idempotency: every batch carries a process-unique request id the
//! server remembers, so a retried already-acked batch is re-acked, never
//! re-applied.
//!
//! Every retry — handshake, update ack, query recovery — draws on one
//! budget per public call: [`RetryPolicy::max_attempts`] caps the
//! attempts of a whole `retrieve`, `submit`, `next_record`, `get`,
//! update or handshake, so a call retries at most `max_attempts − 1`
//! times, each after a capped, jittered exponential backoff.
//! [`RetryCounters`] (shared via [`Connection::retry_counters`]) expose
//! what the recovery machinery did.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use ive_he::modswitch::SwitchedCiphertext;
use ive_he::{BfvCiphertext, HeParams};
use ive_pir::kspir::{KsPirClient, KsPirParams, KsPirQuery};
use ive_pir::{wire, KvSchema, PirClient, PirError, PirParams, PirQuery, RecordUpdate};
use rand::rngs::StdRng;

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
    /// Total attempts for one public call (a `retrieve`, `submit`,
    /// `next_record`, `get`, update or handshake, every re-dial and
    /// re-Hello inside it included), the first included; `1` means no
    /// retries.
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
    pub(crate) fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The pause before retry number `attempt` (0-based): capped
    /// exponential, jittered into `[d/2, d]` so concurrent clients
    /// spread out. Deterministic in `(jitter_seed, attempt)`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
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
    /// Attempts retried after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fresh connections dialed to recover.
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

/// The protocol error for a `got` frame where `want` was due.
fn unexpected(want: wire::Tag, got: wire::Tag) -> ServeError {
    ServeError::Protocol(format!("expected {}, server sent {}", want.name(), got.name()))
}

/// One public call's attempt budget: every retry the call takes —
/// handshake, update ack or query recovery — is drawn from here, so the
/// whole call makes at most [`RetryPolicy::max_attempts`] attempts.
struct Budget {
    policy: RetryPolicy,
    counters: Arc<RetryCounters>,
    /// Whether the connection keeps a connector to re-dial with.
    can_redial: bool,
    /// Retries this call has taken.
    spent: u32,
}

impl Budget {
    /// Whether `err` earns the call another attempt: a busy refusal or a
    /// lost session heals on the live connection, any other transient
    /// failure needs a re-dial, and the budget must not be spent.
    fn allows(&self, err: &ServeError) -> bool {
        let healable =
            err.is_busy() || err.is_unknown_session() || (self.can_redial && err.is_transient());
        healable && self.spent + 1 < self.policy.max_attempts
    }

    /// The one retry loop of the clients: runs `attempt` on `state` until
    /// it succeeds, fails for good, or the budget is spent. Each attempt
    /// after the first waits out the backoff and is handed the failure
    /// that ended the one before, so it can heal first (re-dial,
    /// re-Hello, resend).
    fn run<S, T>(
        &mut self,
        state: &mut S,
        mut attempt: impl FnMut(&mut S, Option<&ServeError>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut failed = None;
        loop {
            match attempt(state, failed.as_ref()) {
                Err(e) if self.allows(&e) => {
                    std::thread::sleep(self.policy.backoff(self.spent));
                    self.spent += 1;
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    failed = Some(e);
                }
                done => return done,
            }
        }
    }
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
    /// connection cannot re-dial, so the policy defaults to one attempt
    /// per call.
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

    /// Overrides the retry policy (`max_attempts: 1` disables recovery
    /// entirely).
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
        self,
        params: &PirParams,
        rng: StdRng,
    ) -> Result<ServeClient, ServeError> {
        let client = PirClient::new(params, rng)?;
        Session::open(self, Index(client)).map(ServeClient)
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
    pub fn into_kv_client(self, params: &KsPirParams, rng: StdRng) -> Result<KvClient, ServeError> {
        let rounds = ive_pir::keyword::bucket_trace_rounds(params.he())?;
        let client = KsPirClient::with_trace_rounds(params, rounds, rng)?;
        Session::open(self, Keyword { client, schema: None }).map(KvClient)
    }

    /// A fresh attempt budget for one public call.
    fn budget(&self) -> Budget {
        Budget {
            policy: self.retry,
            counters: Arc::clone(&self.counters),
            can_redial: self.connector.is_some(),
            spent: 0,
        }
    }

    /// Blocks until one frame arrives, the peer closes, or the
    /// configured deadline passes (counted as a timeout).
    fn recv(&mut self) -> Result<Bytes, ServeError> {
        let deadline = Instant::now() + self.timeout;
        loop {
            match self.rx.recv()? {
                Received::Frame(frame) => return Ok(frame),
                Received::Idle if Instant::now() >= deadline => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Timeout);
                }
                Received::Idle => {}
                Received::Closed => return Err(ServeError::Closed),
            }
        }
    }

    /// Replaces the frame pair with a freshly dialed connection and
    /// counts the reconnect.
    fn redial(&mut self) -> Result<(), ServeError> {
        let connector = self.connector.as_ref().ok_or(ServeError::Closed)?;
        (self.rx, self.tx) = connector.dial()?;
        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ships one update frame and blocks for its acknowledgement,
    /// returning `(epoch, applied)`. Every attempt sends the *same*
    /// frame — same request id — so the server's idempotency cache
    /// guarantees at-most-once apply: a busy refusal is resent on the
    /// live connection, a transport failure after a re-dial.
    fn acked(&mut self, frame: &Bytes, request_id: u64) -> Result<(u64, u32), ServeError> {
        self.budget().run(self, |link, failed| {
            if failed.is_some_and(|e| !e.is_busy()) {
                link.redial()?;
            }
            link.acked_once(frame, request_id)
        })
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
                tag => return Err(unexpected(wire::Tag::UpdateAck, tag)),
            }
        }
    }
}

/// An answer's ciphertext as it came off the wire.
enum Ciphertext {
    Plain(BfvCiphertext),
    /// Modulus-switched by a `compress_responses` server.
    Switched(SwitchedCiphertext),
}

/// Splits an uncompressed answer frame into `(request_id, ciphertext)`.
type ReadResponse = fn(&HeParams, &Bytes) -> Result<(u64, BfvCiphertext), PirError>;

/// One serving plane as the session core sees it: its handshake, its
/// query frame, and how its answers decode. Everything else — pending
/// queries, answer matching, recovery — is [`Session`]'s.
trait Plane {
    /// A query as kept until answered (and resubmitted as is).
    type Query;
    /// What a decoded answer yields.
    type Answer;
    /// The tag of the handshake reply.
    const WELCOME: wire::Tag;
    /// The tag of an uncompressed answer, and its decoder.
    const RESPONSE: wire::Tag;
    const READ_RESPONSE: ReadResponse;
    /// Frames `(session_id, request_id, query)`.
    const QUERY_FRAME: fn(u64, u64, &Self::Query) -> Bytes;

    fn hello(&self) -> Bytes;
    /// Builds a query for `target`: a record on the index plane, a slot
    /// on the keyword plane.
    fn query(&mut self, target: usize) -> Result<Self::Query, PirError>;
    /// Decodes the handshake reply into the session id.
    fn welcome(&mut self, frame: &Bytes) -> Result<u64, PirError>;
    fn he(&self) -> &HeParams;
    fn decode(&self, query: &Self::Query, ct: &Ciphertext) -> Result<Self::Answer, PirError>;
}

/// The index plane: `Hello` → `Welcome`, `SessionQuery` →
/// `SessionResponse`, and an answer is a record.
struct Index(PirClient<StdRng>);

impl Plane for Index {
    type Query = PirQuery;
    type Answer = Vec<u8>;
    const WELCOME: wire::Tag = wire::Tag::Welcome;
    const RESPONSE: wire::Tag = wire::Tag::SessionResponse;
    const READ_RESPONSE: ReadResponse = wire::decode_session_response;
    const QUERY_FRAME: fn(u64, u64, &PirQuery) -> Bytes = wire::encode_session_query;

    fn hello(&self) -> Bytes {
        wire::encode_hello(self.0.public_keys())
    }

    fn query(&mut self, index: usize) -> Result<PirQuery, PirError> {
        self.0.query(index)
    }

    fn welcome(&mut self, frame: &Bytes) -> Result<u64, PirError> {
        wire::decode_welcome(frame)
    }

    fn he(&self) -> &HeParams {
        self.0.params().he()
    }

    fn decode(&self, query: &PirQuery, ct: &Ciphertext) -> Result<Vec<u8>, PirError> {
        match ct {
            Ciphertext::Plain(ct) => self.0.decode(query, ct),
            Ciphertext::Switched(ct) => self.0.decode_compressed(query, ct),
        }
    }
}

/// The keyword plane: `KsHello` → `KsWelcome` (which also carries the
/// table layout), `KsQuery` → `KsResponse`, and an answer is a whole
/// bucket.
struct Keyword {
    client: KsPirClient<StdRng>,
    /// The layout the last `KsWelcome` advertised.
    schema: Option<KvSchema>,
}

impl Plane for Keyword {
    type Query = KsPirQuery;
    type Answer = Vec<u64>;
    const WELCOME: wire::Tag = wire::Tag::KsWelcome;
    const RESPONSE: wire::Tag = wire::Tag::KsResponse;
    const READ_RESPONSE: ReadResponse = wire::decode_ks_response;
    const QUERY_FRAME: fn(u64, u64, &KsPirQuery) -> Bytes = wire::encode_ks_query;

    fn hello(&self) -> Bytes {
        wire::encode_ks_hello(self.client.public_keys())
    }

    fn query(&mut self, slot: usize) -> Result<KsPirQuery, PirError> {
        self.client.query(slot)
    }

    fn welcome(&mut self, frame: &Bytes) -> Result<u64, PirError> {
        let (session_id, schema) = wire::decode_ks_welcome(self.client.params(), frame)?;
        self.schema = Some(schema);
        Ok(session_id)
    }

    fn he(&self) -> &HeParams {
        self.client.params().he()
    }

    fn decode(&self, _query: &KsPirQuery, ct: &Ciphertext) -> Result<Vec<u64>, PirError> {
        match ct {
            Ciphertext::Plain(ct) => self.client.decode_group(ct),
            Ciphertext::Switched(ct) => self.client.decode_group_switched(ct),
        }
    }
}

/// The session core both retrieval clients run on: one registered
/// session over one connection, and the queries in flight on it.
struct Session<P: Plane> {
    link: Connection,
    plane: P,
    /// The session id the server assigned (changes after recovery).
    session_id: u64,
    /// Next request id; queries and stats scrapes share the sequence.
    next_request: u64,
    /// Queries awaiting their answer, by request id: needed to decode
    /// the answer, and to resubmit after a recovery.
    pending: BTreeMap<u64, P::Query>,
    /// Frames received while waiting for something else (a `Welcome`, a
    /// stats report), for the next [`Session::next`] to consume.
    stash: VecDeque<Bytes>,
}

impl<P: Plane> Session<P> {
    /// Registers `plane`'s keys over `link`: the handshake of the
    /// `into_*` conversions, a public call with its own budget.
    fn open(link: Connection, plane: P) -> Result<Self, ServeError> {
        let mut session = Session {
            link,
            plane,
            session_id: 0,
            next_request: 1,
            pending: BTreeMap::new(),
            stash: VecDeque::new(),
        };
        session.link.budget().run(&mut session, |s, failed| match failed {
            Some(failed) => s.heal(failed),
            None => s.hello(),
        })?;
        Ok(session)
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Ships a query for `target` as a new request without waiting for
    /// the answer and returns its id. When even recovery fails the query
    /// is withdrawn, so `pending` stays truthful.
    fn submit(&mut self, target: usize, budget: &mut Budget) -> Result<u64, ServeError> {
        let query = self.plane.query(target)?;
        let request_id = self.next_id();
        self.pending.insert(request_id, query);
        let sent = budget.run(self, |s, failed| match failed {
            // Healing resubmits every pending query, this one included.
            Some(failed) => s.heal(failed),
            None => s.send(request_id),
        });
        sent.map(|()| request_id).inspect_err(|_| drop(self.pending.remove(&request_id)))
    }

    /// Ships pending request `request_id` under the current session (one
    /// no longer pending needs nothing).
    fn send(&mut self, request_id: u64) -> Result<(), ServeError> {
        match self.pending.get(&request_id) {
            Some(query) => self.link.tx.send(&P::QUERY_FRAME(self.session_id, request_id, query)),
            None => Ok(()),
        }
    }

    /// Registers the keys on the current connection and adopts the new
    /// session id. Answers arriving meanwhile are stashed for
    /// [`Session::next`]; refusals are dropped, because every pending
    /// query is resubmitted once the session is back.
    fn hello(&mut self) -> Result<(), ServeError> {
        self.link.tx.send(&self.plane.hello())?;
        loop {
            let frame = self.link.recv()?;
            match wire::peek_tag(&frame)? {
                tag if tag == P::WELCOME => {
                    self.session_id = self.plane.welcome(&frame)?;
                    return Ok(());
                }
                wire::Tag::Error => {
                    // A refused handshake is filed under request 0.
                    let (request_id, message) = wire::decode_error_frame(&frame)?;
                    if request_id == 0 {
                        return Err(ServeError::Remote { request_id, message });
                    }
                }
                tag if self.pending.is_empty() => return Err(unexpected(P::WELCOME, tag)),
                _ => self.stash.push_back(frame),
            }
        }
    }

    /// Readies the session for another attempt after `failed`. A busy
    /// refusal resends just the query it shed; anything else registers
    /// the keys again — on the live connection when only the session was
    /// lost, on a fresh one otherwise — and resubmits every pending
    /// query under the new session.
    fn heal(&mut self, failed: &ServeError) -> Result<(), ServeError> {
        match failed {
            ServeError::Remote { request_id, .. } if failed.is_busy() => {
                return self.send(*request_id)
            }
            _ if failed.is_unknown_session() => {}
            _ => self.link.redial()?,
        }
        self.hello()?;
        // The resubmission supersedes every refusal received before it.
        self.stash.retain(|frame| !matches!(wire::peek_tag(frame), Ok(wire::Tag::Error)));
        let replay: Vec<u64> = self.pending.keys().copied().collect();
        replay.into_iter().try_for_each(|id| self.send(id))
    }

    /// Waits for the next answer to any pending query and decodes it,
    /// healing transient failures under `budget`. A refusal that ends
    /// the call consumes the request it names; one filed under request
    /// 0 (the server could not even decode the offending frame, so it
    /// cannot name it) consumes them all, which keeps the connection
    /// usable.
    fn next(&mut self, budget: &mut Budget) -> Result<(u64, P::Answer), ServeError> {
        if self.pending.is_empty() {
            return Err(ServeError::Protocol("no query in flight".into()));
        }
        let outcome = budget.run(self, |s, failed| {
            if let Some(failed) = failed {
                s.heal(failed)?;
            }
            s.next_once()
        });
        match &outcome {
            Err(ServeError::Remote { request_id: 0, .. }) => self.pending.clear(),
            Err(ServeError::Remote { request_id, .. }) => drop(self.pending.remove(request_id)),
            _ => {}
        }
        outcome
    }

    /// Reads frames until one answers or refuses a pending query. Frames
    /// naming a request no longer pending — the second answer of a
    /// resubmitted query, the late answer of a withdrawn one — and late
    /// replies to calls that gave up are dropped.
    fn next_once(&mut self) -> Result<(u64, P::Answer), ServeError> {
        loop {
            let frame = match self.stash.pop_front() {
                Some(frame) => frame,
                None => self.link.recv()?,
            };
            let he = self.plane.he();
            let (request_id, ct) = match wire::peek_tag(&frame)? {
                tag if tag == P::RESPONSE => {
                    P::READ_RESPONSE(he, &frame).map(|(id, ct)| (id, Ciphertext::Plain(ct)))?
                }
                wire::Tag::CompressedResponse => wire::decode_compressed_response(he, &frame)
                    .map(|(id, ct)| (id, Ciphertext::Switched(ct)))?,
                wire::Tag::Error => {
                    let (request_id, message) = wire::decode_error_frame(&frame)?;
                    if request_id == 0 || self.pending.contains_key(&request_id) {
                        return Err(ServeError::Remote { request_id, message });
                    }
                    continue;
                }
                wire::Tag::UpdateAck | wire::Tag::StatsResponse => continue,
                tag => return Err(unexpected(P::RESPONSE, tag)),
            };
            if let Some(query) = self.pending.remove(&request_id) {
                return Ok((request_id, self.plane.decode(&query, &ct)?));
            }
        }
    }

    /// Submits a query for each of `targets`, each shipped as soon as it
    /// is built (the server answers one while the next is built), then
    /// collects their answers in order. Nothing else may be pending: on
    /// failure the fetch withdraws its queries.
    fn fetch(
        &mut self,
        targets: &[usize],
        budget: &mut Budget,
    ) -> Result<Vec<P::Answer>, ServeError> {
        debug_assert!(self.pending.is_empty(), "a fetch owns every pending query");
        let first = self.next_request;
        let mut answers: Vec<Option<P::Answer>> = targets.iter().map(|_| None).collect();
        let mut outcome = targets.iter().try_for_each(|&t| self.submit(t, budget).map(drop));
        while outcome.is_ok() && answers.iter().any(Option::is_none) {
            outcome =
                self.next(budget).map(|(id, answer)| answers[(id - first) as usize] = Some(answer));
        }
        if outcome.is_err() {
            self.pending.clear();
        }
        outcome.map(|()| answers.into_iter().flatten().collect())
    }

    /// Scrapes the server's live counters: sends [`wire::Tag::GetStats`]
    /// under a fresh request id and rebuilds [`ServerStats`] from the raw
    /// integer report. Frames that answer something else are stashed
    /// for [`Session::next`].
    fn stats(&mut self) -> Result<ServerStats, ServeError> {
        let request_id = self.next_id();
        self.link.tx.send(&wire::encode_get_stats(request_id))?;
        loop {
            let frame = self.link.recv()?;
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
                wire::Tag::Error => match wire::decode_error_frame(&frame)? {
                    (got, message) if got == request_id || got == 0 => {
                        return Err(ServeError::Remote { request_id: got, message })
                    }
                    // Another request's failure: its owner will want it.
                    _ => self.stash.push_back(frame),
                },
                _ => self.stash.push_back(frame),
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
pub struct ServeClient(Session<Index>);

impl ServeClient {
    /// The session id the server assigned (may change after recovery).
    pub fn session_id(&self) -> u64 {
        self.0.session_id
    }

    /// Number of queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.0.pending.len()
    }

    /// Ships a query for record `index` without waiting for the answer;
    /// returns its request id. Collect results with
    /// [`ServeClient::next_record`].
    ///
    /// # Errors
    /// Fails on out-of-range indices or transport errors (after the
    /// retry budget, when recovery is configured).
    pub fn submit(&mut self, index: usize) -> Result<u64, ServeError> {
        self.0.submit(index, &mut self.0.link.budget())
    }

    /// Waits for the next response to any in-flight query and decodes it.
    ///
    /// With recovery configured, transient failures (dead transport,
    /// timeouts, evicted sessions, overload rejections) are healed
    /// in-line — reconnect + re-Hello + resubmit — and only surface once
    /// the call's retry budget is spent.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors (a remote
    /// error consumes the in-flight request it names).
    pub fn next_record(&mut self) -> Result<(u64, Vec<u8>), ServeError> {
        self.0.next(&mut self.0.link.budget())
    }

    /// Retrieves record `index` privately: builds the query, ships it
    /// under the session id, and decodes the matching response — one
    /// public call, so submit and wait share one retry budget.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors, and when
    /// called with pipelined queries still in flight.
    pub fn retrieve(&mut self, index: usize) -> Result<Vec<u8>, ServeError> {
        if !self.0.pending.is_empty() {
            return Err(ServeError::Protocol(format!(
                "retrieve with {} pipelined queries in flight",
                self.0.pending.len()
            )));
        }
        let mut budget = self.0.link.budget();
        self.0.submit(index, &mut budget)?;
        // Nothing else is pending, so the one record that settles is ours.
        Ok(self.0.next(&mut budget)?.1)
    }

    /// Scrapes the server's live counters over this connection
    /// ([`wire::Tag::GetStats`]) and rebuilds [`ServerStats`] with the
    /// derivation the server runs in-process. Query responses arriving
    /// meanwhile are stashed for [`ServeClient::next_record`], so polling
    /// a loaded connection loses nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.0.stats()
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
/// It runs on the same session core as [`ServeClient`], so lookups heal
/// the same way: built from a [`Connection::dial`], a dead transport
/// re-dials and replays the `KsHello`, an evicted session re-registers
/// in place, and the get's pending bucket queries are resubmitted under
/// the new session. Mutations ride the same idempotent request-id
/// scheme as [`UpdateClient`].
pub struct KvClient(Session<Keyword>);

impl KvClient {
    /// The session id the server assigned (may change after recovery).
    pub fn session_id(&self) -> u64 {
        self.0.session_id
    }

    /// The table layout negotiated at the handshake.
    pub fn schema(&self) -> &KvSchema {
        self.0.plane.schema.as_ref().expect("the handshake advertised a layout")
    }

    /// Privately retrieves the value stored under `key`, or `None` when
    /// absent. Both candidate buckets are always fetched, in a fixed
    /// order, so presence and bucket choice leak nothing.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<u64>, ServeError> {
        let schema = self.schema();
        let slots = schema.candidates(key).map(|bucket| schema.slot_of(bucket));
        let buckets = self.0.fetch(&slots, &mut self.0.link.budget())?;
        Ok(buckets.iter().find_map(|bucket| self.schema().decode_bucket(key, bucket)))
    }

    /// Inserts or overwrites `key` server-side; returns the committed
    /// epoch. Mutations identify the key in the clear — they are the
    /// content-owner's ingest path (gated by
    /// [`crate::config::ServeConfig::accept_updates`]), not a private operation.
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
        Ok(self.0.link.acked(&frame, request_id)?.0)
    }

    /// Scrapes the keyword server's live counters, as
    /// [`ServeClient::stats`] does on the index plane.
    ///
    /// # Errors
    /// Fails on protocol, transport, or server-reported errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.0.stats()
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
