//! Performance models shared across the IVE evaluation.
//!
//! * [`complexity`] — the integer-multiplication and primitive-operation
//!   counting model behind Fig. 4 (complexity breakdowns), Fig. 6
//!   (arithmetic intensity) and Fig. 7d (per-step op-type mix).
//! * [`roofline`] — device ceilings and `max(compute, memory)` step
//!   timing (Fig. 6).
//! * [`cpu`] — the 32-core Xeon OnionPIRv2 baseline of Fig. 12 / Table IV.
//! * [`gpu`] — RTX 4090 / H100 models with single-query and multi-client
//!   batched modes (Fig. 6, Fig. 12).
//! * [`inspire`] — the INSPIRE in-storage accelerator model (storage-scan
//!   bound; Table III).
//! * [`reported`] — published QPS rows the paper compares against verbatim
//!   (CIP-PIR, DPF-PIR, INSPIRE; Table III ‡-entries).

#![forbid(unsafe_code)]

pub mod complexity;
pub mod cpu;
pub mod gpu;
pub mod inspire;
pub mod reported;
pub mod roofline;

pub use complexity::{Geometry, PirOps, StepOps};
pub use roofline::Device;
