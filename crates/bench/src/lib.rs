//! Experiment harness: every table and figure of the paper's evaluation
//! (§VI) regenerated from the models and functional stack of this
//! workspace.
//!
//! Each module corresponds to one exhibit and returns *structured rows*
//! (so tests can assert on them); the `src/bin/` binaries print them.
//! Each module's unit tests hold its rows to the paper's values or trends.
//!
//! | Module | Paper exhibit |
//! |---|---|
//! | [`table1`] | Table I — parameters |
//! | [`fig4`] | Fig. 4 — complexity breakdowns |
//! | [`fig6`] | Fig. 6 — roofline + GPU batch scaling |
//! | [`fig7d`] | Fig. 7d — per-step op-type mix |
//! | [`fig8`] | Fig. 8 — DRAM traffic by schedule |
//! | [`table2`] | Table II — area and power |
//! | [`fig12`] | Fig. 12 — QPS/energy vs CPU and GPUs |
//! | [`table3`] | Table III — prior PIR hardware |
//! | [`fig13`] | Fig. 13 — sensitivity studies (a–e) |
//! | [`table4`] | Table IV — SimplePIR / KsPIR |
//! | [`fig14`] | Fig. 14 — ARK-like EDAP + load-latency |

#![forbid(unsafe_code)]

pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig4;
pub mod fig6;
pub mod fig7d;
pub mod fig8;
pub mod fmt;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

/// Bytes per GiB (binary units throughout, as in the paper).
pub const GIB: u64 = 1 << 30;
