//! The single-server PIR protocol layer of the IVE reproduction.
//!
//! Implements the paper's main scheme — an optimized OnionPIR variant with
//! the three-step server pipeline `ExpandQuery → RowSel → ColTor`
//! (Fig. 2) — plus the KsPIR-style scheme of Table IV:
//!
//! * [`params`] / [`db`] — multi-dimensional geometry (§II-C) and offline
//!   database preprocessing (§II-B).
//! * [`expand`] — oblivious query expansion (§II-A).
//! * [`coltor`] — the RGSW tournament with BFS/DFS/HS traversal orders
//!   (Fig. 7); orders are bit-identical in output.
//! * [`client`] / [`server`] — end-to-end protocol endpoints.
//! * [`kspir`] — a KsPIR-style scheme (trace-based coefficient extraction
//!   via automorphism key-switching + RGSW outer dimension).
//! * [`keyword`] — a private key-value layer over [`kspir`]: cuckoo-hashed
//!   keys map to two-entry buckets that one partial-trace query returns
//!   whole, so `get(key)` becomes a constant pair of bucket retrievals
//!   (no access-pattern leak).
//!
//! Databases are *live*: the [`update`] module prepares batches of row
//! put/delete deltas (validated and NTT-preprocessed off the query path),
//! [`Database::apply_updates`] commits each batch as a numbered epoch
//! whose contents are bit-identical to a cold rebuild — copying only the
//! row pages a batch touches (copy-on-write, see [`db::CowStats`]) — and
//! the [`update::Journal`] makes a batch that was journaled but whose
//! commit never ran survive a crash. A serving layer prepares, journals
//! and commits each batch in one call, and the journal truncates after
//! every commit, so it never holds a committed batch: a restart from the
//! original database gets back only the uncommitted batch, without any
//! batch acknowledged before the crash.
//!
//! # Example
//!
//! ```
//! use ive_pir::{PirParams, Database, PirClient, PirServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = PirParams::toy();
//! let records: Vec<Vec<u8>> = (0..params.num_records())
//!     .map(|i| format!("record #{i}").into_bytes())
//!     .collect();
//! let db = Database::from_records(&params, &records)?;
//! let server = PirServer::new(&params, db)?;
//! let mut client = PirClient::new(&params, rand::thread_rng())?;
//!
//! let query = client.query(7)?;
//! let response = server.answer(client.public_keys(), &query)?;
//! let record = client.decode(&query, &response)?;
//! assert_eq!(&record[..records[7].len()], &records[7][..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coltor;
pub mod db;
pub mod expand;
pub mod fault;
pub mod keyword;
pub mod kspir;
pub mod params;
pub mod scratch;
pub mod server;
pub mod update;
pub mod wire;

pub use client::{ClientKeys, PirClient, PirQuery};
pub use coltor::TournamentOrder;
pub use db::{CowStats, Database, DbWord};
pub use ive_math::kernel::BackendKind;
pub use keyword::{KvSchema, KvStore};
pub use kspir::{KsPirClient, KsPirKeys, KsPirParams, KsPirQuery, KsPirServer};
pub use params::PirParams;
pub use scratch::{QueryScratch, StageTimes};
pub use server::PirServer;
pub use update::{Journal, PreparedUpdate, RecordUpdate, UpdateLog};

/// Errors produced by the PIR layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum PirError {
    /// Underlying HE failure.
    He(ive_he::HeError),
    /// Underlying arithmetic failure.
    Math(ive_math::MathError),
    /// Scheme parameters are inconsistent.
    InvalidParams(String),
    /// A record exceeds the per-record capacity.
    RecordTooLarge {
        /// Which record.
        index: usize,
        /// Its length in bytes.
        len: usize,
        /// The per-record capacity in bytes.
        capacity: usize,
    },
    /// More records than the geometry can hold.
    TooManyRecords {
        /// Records supplied.
        got: usize,
        /// Geometry capacity.
        capacity: usize,
    },
    /// The requested record index is out of range.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// Number of records.
        records: usize,
    },
    /// Too few evaluation keys / selection bits supplied.
    MissingKeys {
        /// Keys supplied.
        got: usize,
        /// Keys required.
        need: usize,
    },
    /// A serialized frame is malformed (truncated, bad magic, shape or
    /// range violation).
    Wire(String),
    /// An I/O failure in the durable journal.
    Io(std::io::Error),
}

impl From<ive_he::HeError> for PirError {
    fn from(e: ive_he::HeError) -> Self {
        PirError::He(e)
    }
}

impl From<ive_math::MathError> for PirError {
    fn from(e: ive_math::MathError) -> Self {
        PirError::Math(e)
    }
}

impl From<std::io::Error> for PirError {
    fn from(e: std::io::Error) -> Self {
        PirError::Io(e)
    }
}

impl core::fmt::Display for PirError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PirError::He(e) => write!(f, "HE error: {e}"),
            PirError::Math(e) => write!(f, "math error: {e}"),
            PirError::InvalidParams(msg) => write!(f, "invalid PIR parameters: {msg}"),
            PirError::RecordTooLarge { index, len, capacity } => {
                write!(f, "record {index} is {len} bytes but the capacity is {capacity}")
            }
            PirError::TooManyRecords { got, capacity } => {
                write!(f, "{got} records exceed the database capacity {capacity}")
            }
            PirError::IndexOutOfRange { index, records } => {
                write!(f, "record index {index} out of range (database holds {records})")
            }
            PirError::MissingKeys { got, need } => {
                write!(f, "{got} keys supplied where {need} are required")
            }
            PirError::Wire(msg) => write!(f, "malformed wire data: {msg}"),
            PirError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for PirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PirError::He(e) => Some(e),
            PirError::Math(e) => Some(e),
            PirError::Io(e) => Some(e),
            _ => None,
        }
    }
}
