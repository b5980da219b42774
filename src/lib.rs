//! # IVE — single-server PIR acceleration, reproduced in Rust
//!
//! This facade crate re-exports the full reproduction of *IVE: An Accelerator
//! for Single-Server Private Information Retrieval Using Versatile Processing
//! Elements* (HPCA 2026):
//!
//! * [`math`] — modular arithmetic, NTT, RNS and gadget decomposition.
//! * [`he`] — BFV and RGSW homomorphic encryption, external products, `Subs`.
//! * [`pir`] — the OnionPIR-style protocol (ExpandQuery / RowSel / ColTor)
//!   plus SimplePIR and a KsPIR-style baseline.
//! * [`hw`] — hardware-modeling substrate (events, functional units, DRAM).
//! * [`accel`] — the IVE accelerator model: sysNTTU, HS/R.O. scheduling,
//!   cycle-level engine, area/energy model, scale-up/scale-out systems.
//! * [`baselines`] — CPU/GPU/ARK-like/INSPIRE performance models and the
//!   shared complexity/roofline models.
//! * [`serve`] — the concurrent serving runtime: session key cache,
//!   waiting-window batching, sharded workers, TCP + in-proc transports.
//!
//! ## Quickstart
//!
//! ```
//! use ive::pir::{PirParams, Database, PirClient, PirServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = PirParams::toy();
//! let records: Vec<Vec<u8>> = (0..params.num_records())
//!     .map(|i| format!("record #{i}").into_bytes())
//!     .collect();
//! let db = Database::from_records(&params, &records)?;
//! let server = PirServer::new(&params, db)?;
//!
//! let mut client = PirClient::new(&params, rand::thread_rng())?;
//! let target = 7;
//! let query = client.query(target)?;
//! let response = server.answer(client.public_keys(), &query)?;
//! let record = client.decode(&query, &response)?;
//! assert_eq!(&record[..records[target].len()], &records[target][..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ive_accel as accel;
pub use ive_baselines as baselines;
pub use ive_he as he;
pub use ive_hw as hw;
pub use ive_math as math;
pub use ive_pir as pir;
pub use ive_serve as serve;
