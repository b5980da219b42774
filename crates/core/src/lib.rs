//! The IVE accelerator model — the paper's primary contribution.
//!
//! * [`config`] — the 32-core, 64-lane machine of Fig. 9 (two sysNTTUs,
//!   iCRTU, EWU, AutoU and 5MB managed SRAM per core), the ARK-like
//!   comparison machine, and the scheduling-policy knobs.
//! * [`engine`] — batched-PIR execution timing: operations mapped onto
//!   the functional units, DRAM traffic from the §IV-A schedules, and
//!   `max(compute, memory)` per step under decoupled orchestration.
//! * [`cost`] — Table II area/power, per-query energy, the Fig. 13e
//!   `Base`/`+Sp`/`+SysNTTU` ablation, and the Fig. 14a ARK-like EDAP
//!   comparison.
//! * [`system`] — the scale-up HBM+LPDDR system and the scale-out RLP
//!   cluster of §V (Table III, Fig. 13d).
//! * [`queue`] — the waiting-window batch scheduler under Poisson
//!   arrivals (Fig. 14b).
//!
//! # Example
//!
//! ```
//! use ive_accel::config::IveConfig;
//! use ive_accel::engine::{simulate_batch, DbPlacement};
//! use ive_baselines::complexity::Geometry;
//!
//! let cfg = IveConfig::paper_hbm_only();
//! let geom = Geometry::paper_for_db_bytes(2 << 30);
//! let report = simulate_batch(&cfg, &geom, 64, DbPlacement::Hbm);
//! assert!(report.qps > 1000.0); // thousands of queries per second
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod dataflow;
pub mod engine;
pub mod noc;
pub mod orchestration;
pub mod queue;
pub mod system;

pub use config::{IveConfig, SchedulePolicy};
pub use engine::{simulate_batch, DbPlacement, RunReport, StepTime};
pub use system::{IveCluster, IveSystem};
