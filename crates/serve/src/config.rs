//! Serving configuration: waiting window, batch and queue bounds, worker
//! pool size, the width of the row partition, response compression, and the
//! durable update journal.

use std::path::PathBuf;
use std::time::Duration;

use ive_pir::{BackendKind, TournamentOrder};

use crate::ServeError;

/// How the database is laid out across the serving workers. It has one
/// value: one logical copy of the database (an `Arc`, not a byte copy)
/// is shared by every worker, workers take whole batches in parallel, and
/// the row partition's width is [`ServeConfig::rowsel_threads`] alone.
/// The type is kept only because `ive_benchmark`'s serving config names
/// it; it goes, with this field, once the width is the one knob there too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// One shared copy of the database.
    Replicated,
}

/// Configuration for [`crate::PirService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Waiting window (§V, Fig. 14b): a batch opens when its first query
    /// is admitted and dispatches once the window has closed and a worker
    /// is free, whichever is later (`0` disables batching delay).
    pub window: Duration,
    /// Largest batch one dispatch may carry.
    pub max_batch: usize,
    /// Worker threads, each forming its own batches from the job queue
    /// and answering them: the index plane's compute threads.
    pub workers: usize,
    /// Bound of the job queue of admitted queries no worker has taken
    /// yet; a query that finds it full is shed with a typed
    /// [`ServeError::Busy`].
    pub queue_depth: usize,
    /// Database layout; its one value is [`ShardPlan::Replicated`].
    pub shard: ShardPlan,
    /// Width of the server's row partition: every batch's rows split into
    /// the largest power of two of aligned blocks no wider than this, and
    /// both `RowSel` and `ColTor`'s low levels run one block per worker.
    /// Keep the width at 1 when `workers` already covers the machine; the
    /// pools multiply.
    pub rowsel_threads: usize,
    /// `ColTor` traversal order.
    pub order: TournamentOrder,
    /// Which VPE kernel backend every pipeline step dispatches through.
    /// Backends are bit-identical in output: `Auto` (the default) picks
    /// the fastest the host supports — the AVX-512 `Avx512`
    /// backend where runtime detection finds `avx512f`, the AVX2 `Simd`
    /// backend below that, the Barrett/Shoup `Optimized` path everywhere
    /// else; `Avx512` and `Simd` request their ISA tier explicitly (with
    /// the same safe fallback chain), and `Scalar` is the reference
    /// oracle. Config strings parse through [`BackendKind`]'s `FromStr`,
    /// whose error names every valid variant.
    pub backend: BackendKind,
    /// Upper bound on cached sessions: each registration pins hundreds
    /// of KB of key material server-side, so an uncapped cache is a
    /// remote memory-exhaustion vector. A registration beyond the cap
    /// evicts the least-recently-used session (on either plane), whose
    /// client re-registers with its next query.
    pub max_sessions: usize,
    /// Whether [`wire::Tag::UpdateRow`] frames are admitted. Updates
    /// carry no authentication, so **any** peer that can reach the
    /// transport could mutate the database; the default is therefore
    /// `false` (read-only — update frames are answered with an error
    /// frame). Opt in only on transports whose reachability *is* the
    /// admission control (an internal ingest port, an in-proc pair, a
    /// mutually-authenticated tunnel); each accepted batch then commits
    /// as one epoch.
    ///
    /// [`wire::Tag::UpdateRow`]: ive_pir::wire::Tag::UpdateRow
    pub accept_updates: bool,
    /// Ship responses modulus-switched to the minimum retained prime
    /// count (Table VIII's response compression): the worker runs
    /// `switch_to_first_prime` and the response travels as a
    /// [`wire::Tag::CompressedResponse`] frame carrying only the
    /// surviving residues. Decode cost is unchanged client-side; the
    /// downlink shrinks by `k / primes`. Off by default because
    /// compressed responses spend part of the noise budget — enable it
    /// where measured noise margins allow (they do for both the toy and
    /// paper parameter sets).
    ///
    /// [`wire::Tag::CompressedResponse`]: ive_pir::wire::Tag::CompressedResponse
    pub compress_responses: bool,
    /// Durable update journal: when set, every accepted update batch is
    /// prepared, journaled and committed in one call — appended (fsync'd)
    /// to this file *before* it commits, and the file is truncated once
    /// the commit has run. On startup the service replays any batches a
    /// crash left behind, so a batch journaled but not yet committed
    /// survives process death. That is all it recovers: the service
    /// starts from the `Database` its caller passes, and the truncated
    /// journal holds no committed batch, so every batch acknowledged
    /// before the crash is lost unless that database already holds it.
    /// `None` (default) keeps updates memory-only.
    pub journal: Option<PathBuf>,
    /// Queries whose end-to-end latency meets this threshold leave a
    /// [`TraceRecord`](crate::trace::TraceRecord) (per-stage durations,
    /// session, batch size, epoch) in the slow-query ring.
    pub slow_threshold: Duration,
    /// Capacity of the slow-query trace ring; `0` disables retention
    /// (the slow counter still counts).
    pub trace_ring: usize,
    /// Per-connection idle deadline: a connection that delivers no frame
    /// for this long is closed (counted in `ServerStats.timeouts`), so a
    /// silent or wedged peer can pin a handler thread only this long.
    /// `None` disables the deadline; the default is 60 s — generous for
    /// interactive clients, tight enough that handler threads of dead
    /// peers drain within a minute.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServeConfig {
            window: Duration::from_millis(4),
            max_batch: 8,
            workers: (cores / 2).max(1),
            queue_depth: 64,
            shard: ShardPlan::Replicated,
            rowsel_threads: 1,
            order: TournamentOrder::Hs { subtree_depth: 2 },
            backend: BackendKind::default(),
            max_sessions: 4096,
            accept_updates: false,
            compress_responses: false,
            journal: None,
            slow_threshold: Duration::from_millis(250),
            trace_ring: 64,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

impl ServeConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    /// Fails on zero-sized pools/bounds, an empty journal path or a zero
    /// idle timeout.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be >= 1".into()));
        }
        if self.rowsel_threads == 0 {
            return Err(ServeError::InvalidConfig("rowsel_threads must be >= 1".into()));
        }
        if self.max_sessions == 0 {
            return Err(ServeError::InvalidConfig("max_sessions must be >= 1".into()));
        }
        if let Some(path) = &self.journal {
            if path.as_os_str().is_empty() {
                return Err(ServeError::InvalidConfig("journal path must be non-empty".into()));
            }
        }
        if self.idle_timeout == Some(Duration::ZERO) {
            return Err(ServeError::InvalidConfig(
                "idle_timeout must be positive (use None to disable)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().expect("default must validate");
    }

    #[test]
    fn bad_configs_rejected() {
        for bad in [
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { workers: 0, ..ServeConfig::default() },
            ServeConfig { queue_depth: 0, ..ServeConfig::default() },
            ServeConfig { rowsel_threads: 0, ..ServeConfig::default() },
            ServeConfig { max_sessions: 0, ..ServeConfig::default() },
            ServeConfig { journal: Some(PathBuf::new()), ..ServeConfig::default() },
            ServeConfig { idle_timeout: Some(Duration::ZERO), ..ServeConfig::default() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
