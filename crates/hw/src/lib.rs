//! Hardware-modeling substrate for the IVE reproduction.
//!
//! The paper evaluates IVE with a cycle-level simulator over explicit
//! models of DRAM, on-chip SRAM, and pipelined functional units. This crate
//! provides those building blocks, independent of any specific
//! accelerator:
//!
//! * [`mem`] — DRAM/interconnect specifications (HBM stacks, LPDDR
//!   modules, DDR5 channels, PCIe links) with bandwidth/capacity math.
//! * [`traffic`] — byte-accurate traffic accounting per data class
//!   (ciphertext loads/stores, evaluation-key loads, database streaming) —
//!   the units of Fig. 8.
//! * `buffer` — an explicitly managed scratchpad model (capacity,
//!   residency, write-back) matching the paper's decoupled data
//!   orchestration (§VI-A): misses and evictions emit traffic.
//! * [`treewalk`] — traversal-order simulation of the binary-tree
//!   computations (`ExpandQuery` mirror-image and `ColTor`) under
//!   BFS / DFS / hierarchical-search schedules, producing the DRAM
//!   traffic the scheduling study of §IV-A reasons about.
//! * [`mod@unit`] — pipelined functional-unit occupancy arithmetic.

#![forbid(unsafe_code)]

mod buffer;
pub mod mem;
pub mod traffic;
pub mod treewalk;
pub mod unit;
