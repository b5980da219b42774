//! # `ive_serve` — a concurrent PIR serving runtime
//!
//! The functional protocol in `ive_pir` answers one query per synchronous
//! call; the paper's deployment analysis (§V, Fig. 14) assumes a *serving
//! layer* in front of it: clients register bulky key material once, the
//! online path ships only small queries, arrivals coalesce in a waiting
//! window, and batches dispatch to parallel workers over one shared
//! database. This crate is that layer, end to end over the real wire
//! format of [`ive_pir::wire`]:
//!
//! * `engine` — the [`Engine`] trait, the one protocol-specific seam,
//!   and its two implementations: [`IndexEngine`] (index PIR over one
//!   epoch-versioned server, whose rows split into
//!   [`config::ServeConfig::rowsel_threads`] aligned blocks, rounded down to a
//!   power of two, that both `RowSel` and `ColTor` run one per worker —
//!   the Fig. 7c hierarchy across workers) and [`KeywordEngine`] (KsPIR
//!   slots under a cuckoo table).
//! * `session` — the ARK-style key cache (§V), one LRU table for any
//!   engine's key type: one handshake upload per client, a `u64`
//!   session id thereafter.
//! * `batcher` — the waiting-window batch scheduler of `ive_accel::queue`,
//!   running live: a window opens at the first in-flight query, and the
//!   accumulated batch dispatches to a worker pool with bounded queues for
//!   backpressure. Its `process_batch` is the one place a batch is
//!   answered, on either plane.
//! * [`transport`] / [`tcp`] — one [`Transport`] trait, two carriers: an
//!   in-process channel pair for tests and benches, and a real
//!   `std::net::TcpListener` speaking length-delimited frames.
//! * [`metrics`] / `trace` — latency histogram, QPS, batch-size
//!   distribution, queue depth, per-stage log₂ histograms, kernel op
//!   rates, and a slow-query trace ring, snapshotted as [`ServerStats`]
//!   (scrapeable over any connection via [`wire::Tag::GetStats`], or as
//!   Prometheus text through [`ServerStats::to_prometheus`]).
//! * `service` / `client` — the assembled server, generic over the
//!   engine, and a blocking client; every client role ([`ServeClient`],
//!   [`UpdateClient`], [`KvClient`]) is built from one [`Connection`]
//!   handle.
//!
//! ## One pipeline, one seam
//!
//! ```text
//!                                  ┌─ E::SHARED_PASS ─► dispatcher ──batch──► workers ─┐
//! acceptor ──spawns──► handler ──Job                                                   ├─► process_batch
//!                      (1/conn)    └─ otherwise ──────── on the handler thread ────────┘        │
//!                         ▲                                                                     │
//!                      writer (1/conn) ◄──────────────── outgoing frames ◄──────────────────────┘
//! ```
//!
//! Acceptor, connection loop, frame dispatch (hello / query / update with
//! idempotent re-acks / `GetStats` / unexpected tag), session table,
//! `process_batch` (panic isolation, spans, the slow-query ring,
//! compress/encode, drain accounting) and [`ServiceHandle`] exist once
//! and are generic over [`Engine`]. Where compute runs is the engine's
//! own property, [`Engine::SHARED_PASS`] — an associated const, not
//! reachable from [`config::ServeConfig`]: when a batch shares one database pass
//! (index PIR; the `serve_open_tcp` and `serve_update_mix` benchmark
//! workloads) queries are admitted to the bounded queue, wait out the
//! window and are answered by a worker; when it does not (keyword PIR;
//! `kv_mix_tcp`) the handler thread answers each query as a one-job
//! batch on a scratch it keeps warm. The one thing the second side does
//! not get is queue admission: with no bounded queue in front of it a
//! keyword service never sheds `Busy`.
//!
//! ## Quickstart
//!
//! ```
//! use ive_pir::{Database, PirParams};
//! use ive_serve::config::ServeConfig;
//! use ive_serve::transport::in_proc_pair;
//! use ive_serve::{PirService, ServeClient};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = PirParams::toy();
//! let records: Vec<Vec<u8>> = (0..params.num_records())
//!     .map(|i| format!("record #{i}").into_bytes())
//!     .collect();
//! let db = Database::from_records(&params, &records)?;
//!
//! let (transport, connector) = in_proc_pair();
//! let service = PirService::start(ServeConfig::default(), &params, db, Box::new(transport))?;
//!
//! let rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut client =
//!     ive_serve::Connection::new(connector.connect()?).into_serve_client(&params, rng)?;
//! let record = client.retrieve(7)?;
//! assert_eq!(&record[..records[7].len()], &records[7][..]);
//!
//! drop(client);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! ## Live updates
//!
//! The database keeps serving while its contents change: with
//! [`config::ServeConfig::accept_updates`] opted in (updates carry no
//! authentication, so the default is read-only), a connection ships a
//! [`wire::Tag::UpdateRow`] batch (see [`UpdateClient`]), the handler
//! validates + NTT-preprocesses the deltas off the query
//! path, and the engine commits them as one epoch by swapping
//! epoch-versioned server snapshots — in-flight scans finish on the old
//! epoch, new queries see the new one, and answers stay bit-identical
//! to a cold rebuild at the same contents. Epoch and update counters
//! surface in [`ServerStats`].
//!
//! Three orthogonal hardening knobs layer onto that:
//!
//! * **Copy-on-write epochs** — a commit clones only the database pages
//!   its deltas touch ([`ive_pir::db::CowStats`] counts them), so commit
//!   cost is O(changed rows), not O(database).
//! * **A durable journal** — with [`config::ServeConfig::journal`] set, every
//!   accepted update batch is prepared, journaled and committed in one
//!   call: fsync'd to an on-disk log *before* it commits, and replayed by
//!   [`PirService::start`] after a crash that struck in between; the log
//!   truncates once the commit has run.
//! * **Response compression** — with [`config::ServeConfig::compress_responses`]
//!   set, answers modulus-switch down to one retained RNS prime before
//!   framing (Table VIII), shrinking the downlink severalfold.
//!
//! ## Private key-value store
//!
//! [`PirService::start_keyword`] serves *keyword* PIR through the same
//! pipeline: the database is a cuckoo-hashed [`ive_pir::KvStore`], the
//! handshake ships trace keys ([`wire::Tag::KsHello`]) and returns the
//! table schema, and [`KvClient::get`] privately retrieves a value *by
//! key* — the server never learns which key, or whether it was present.
//! Writers push [`wire::Tag::KvUpdate`] mutations that commit as CoW
//! epochs with read-your-writes visibility.
//!
//! ## Observability
//!
//! Every layer feeds one shared [`trace::TraceRecorder`]: connection
//! handlers time `Decode`, `process_batch` times `QueueWait` and
//! `Compress`/`Encode`, and the engine times `Expand`/`RowSel`/`ColTor`
//! (one sample each per batch) plus journal fsyncs and epoch commits. Queries over
//! [`config::ServeConfig::slow_threshold`] leave a full per-stage
//! [`trace::TraceRecord`] in a bounded ring. Any connection may send
//! [`wire::Tag::GetStats`] (see [`ServeClient::stats`]) and receives the
//! raw counters; [`ServerStats`] derives the rates, quantiles, and
//! roofline comparisons, identically in-process and over the wire.
//!
//! [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
//! [`wire::Tag::KsHello`]: ive_pir::wire::Tag::KsHello
//! [`wire::Tag::KvUpdate`]: ive_pir::wire::Tag::KvUpdate
//! [`wire::Tag::GetStats`]: ive_pir::wire::Tag::GetStats

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod client;
pub mod config;
mod engine;
pub mod metrics;
mod service;
mod session;
pub mod tcp;
mod trace;
pub mod transport;

pub use client::{Connection, KvClient, RetryCounters, RetryPolicy, ServeClient, UpdateClient};
pub use engine::{Engine, IndexEngine, KeywordEngine};
pub use metrics::{Metrics, ServerStats};
pub use service::{KeywordHandle, PirService, ServiceHandle};
pub use session::SessionManager;
pub use tcp::{TcpConnector, TcpTransport};
pub use trace::{Span, Stage, TraceRecord, TraceRecorder};
pub use transport::Transport;

/// Deterministic failpoints the chaos suite arms to inject transport
/// errors, torn frames, failed fsyncs, worker panics, and failed epoch
/// commits (re-exported from `ive_pir` so the whole stack shares one
/// registry). Disarmed — the default — every site check is one relaxed
/// atomic load.
pub use ive_pir::fault;

use ive_pir::{wire, PirError};

/// Errors produced by the serving runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Underlying protocol failure.
    Pir(PirError),
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The peer closed the connection.
    Closed,
    /// A blocking operation gave up waiting.
    Timeout,
    /// The server reported a per-request failure.
    Remote {
        /// The request the failure belongs to (0 for connection-level).
        request_id: u64,
        /// The server's error message.
        message: String,
    },
    /// The peer violated the session protocol.
    Protocol(String),
    /// The serving configuration is inconsistent.
    InvalidConfig(String),
    /// A query referenced a session id that was never registered.
    UnknownSession(u64),
    /// The admission queue is full: the service is running at its
    /// ceiling and sheds this request instead of queueing unbounded
    /// latency. A typed, retryable rejection — see [`ServeError::is_busy`].
    Busy {
        /// The admission queue bound that was hit.
        queue_depth: usize,
    },
}

impl From<PirError> for ServeError {
    fn from(e: PirError) -> Self {
        ServeError::Pir(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Pir(e) => write!(f, "protocol error: {e}"),
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Closed => write!(f, "connection closed by peer"),
            ServeError::Timeout => write!(f, "timed out"),
            ServeError::Remote { request_id, message } => {
                write!(f, "server error for request {request_id}: {message}")
            }
            ServeError::Protocol(msg) => write!(f, "session protocol violation: {msg}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serving config: {msg}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::Busy { queue_depth } => {
                write!(f, "{BUSY_MARKER} (admission queue of {queue_depth} is full; retry later)")
            }
        }
    }
}

/// The stable prefix of the [`ServeError::Busy`] wire message. Error
/// frames carry only a string, so clients recognize overload rejections
/// by this marker — keep it in sync with [`ServeError::is_busy`].
const BUSY_MARKER: &str = "server busy";

/// The stable prefix of the [`ServeError::UnknownSession`] wire message
/// (its `Display` form), used by the retrying client to recognize an
/// LRU-evicted session and re-Hello instead of failing the query.
const UNKNOWN_SESSION_MARKER: &str = "unknown session";

impl ServeError {
    /// Whether this error is an overload rejection — either a local
    /// [`ServeError::Busy`] or the remote wire form of one — so callers
    /// can back off and retry instead of treating it as a hard failure.
    pub fn is_busy(&self) -> bool {
        match self {
            ServeError::Busy { .. } => true,
            ServeError::Remote { message, .. } => message.contains(BUSY_MARKER),
            _ => false,
        }
    }

    /// Whether this error says the server no longer knows our session —
    /// either a local [`ServeError::UnknownSession`] or its remote wire
    /// form — so a client holding its key material can re-Hello and
    /// resume instead of surfacing the failure.
    pub(crate) fn is_unknown_session(&self) -> bool {
        match self {
            ServeError::UnknownSession(_) => true,
            ServeError::Remote { message, .. } => message.contains(UNKNOWN_SESSION_MARKER),
            _ => false,
        }
    }

    /// Whether this error is plausibly transient — a transport failure,
    /// timeout, or overload rejection a [`RetryPolicy`]-driven client
    /// may retry — as opposed to a protocol or configuration error
    /// retrying cannot fix.
    pub(crate) fn is_transient(&self) -> bool {
        match self {
            ServeError::Io(_) | ServeError::Closed | ServeError::Timeout => true,
            ServeError::Protocol(_) => true,
            other => other.is_busy(),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Pir(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Encodes a [`wire::Tag::Error`] frame from any [`ServeError`].
pub(crate) fn error_frame(request_id: u64, err: &dyn core::fmt::Display) -> bytes::Bytes {
    wire::encode_error_frame(request_id, &err.to_string())
}
