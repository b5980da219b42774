//! The hierarchical NoC of Fig. 10: QLP ↔ CLP layout transposition.
//!
//! `ExpandQuery`/`ColTor` distribute *queries* across cores (QLP) while
//! `RowSel` distributes *coefficients* (CLP, §IV-D). Between adjacent
//! steps the layout is transposed in two stages: a **local transpose**
//! inside each core (CraterLake-style block transpose of
//! `(lanes/cores) × (lanes/cores)` tiles, Fig. 10-②) and a **global
//! exchange** over fixed point-to-point wires, each lane connected to
//! exactly one lane of one other core (Fig. 10-③). Both stages are fully
//! pipelined at one word per lane per cycle, so the transition cost is
//! bandwidth-shaped: the paper's claim that interconnect overhead "grows
//! linearly with the number of cores" while staying small is directly
//! checkable here.

use serde::{Deserialize, Serialize};

use crate::config::IveConfig;

/// Word size moved per lane per cycle (one 28-bit residue in a 4-byte
/// lane word).
pub(crate) const WORD_BYTES: u64 = 4;

/// The NoC timing model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct NocModel {
    /// Core count.
    pub cores: usize,
    /// Lanes per core.
    pub lanes: usize,
    /// Clock (Hz).
    pub freq_hz: f64,
}

impl NocModel {
    /// Extracts the NoC shape from an accelerator configuration.
    pub(crate) fn from_config(cfg: &IveConfig) -> Self {
        NocModel { cores: cfg.cores, lanes: cfg.lanes, freq_hz: cfg.freq_hz }
    }

    /// Words the whole chip moves per cycle (one per lane).
    #[inline]
    fn words_per_cycle(&self) -> f64 {
        (self.cores * self.lanes) as f64
    }

    /// Cycles for the in-core block transposes over `bytes` of data
    /// (Fig. 10-②).
    pub(crate) fn local_transpose_cycles(&self, bytes: u64) -> f64 {
        bytes as f64 / WORD_BYTES as f64 / self.words_per_cycle()
    }

    /// Cycles for the fixed-wire global exchange (Fig. 10-③): the
    /// `(cores−1)/cores` fraction of data whose destination is another
    /// core crosses exactly one wire.
    pub(crate) fn global_exchange_cycles(&self, bytes: u64) -> f64 {
        let crossing = bytes as f64 * (self.cores as f64 - 1.0) / self.cores as f64;
        crossing / WORD_BYTES as f64 / self.words_per_cycle()
    }

    /// Seconds for one full QLP↔CLP transition of `bytes`.
    pub(crate) fn transition_time_s(&self, bytes: u64) -> f64 {
        (self.local_transpose_cycles(bytes) + self.global_exchange_cycles(bytes)) / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_noc() -> NocModel {
        NocModel::from_config(&IveConfig::paper())
    }

    #[test]
    fn transition_is_small_versus_step_times() {
        // 64 queries' worth of expanded ciphertexts (the ExpandQuery ->
        // RowSel transition at 2GB): 64·256·112KB ≈ 1.8GB moves in well
        // under a millisecond — the §IV-E "small NoC overheads".
        let noc = paper_noc();
        let bytes = 64 * 256 * 112 * 1024;
        let t = noc.transition_time_s(bytes);
        assert!(t < 1e-3, "transition {t:.6}s");
        assert!(t > 1e-5, "suspiciously free");
    }

    #[test]
    fn global_fraction_approaches_one() {
        // With more cores, a larger fraction of the data crosses the
        // global wires; with one core, none does.
        let one = NocModel { cores: 1, lanes: 64, freq_hz: 1e9 };
        assert_eq!(one.global_exchange_cycles(1 << 20), 0.0);
        let many = paper_noc();
        let frac = many.global_exchange_cycles(1 << 20) / many.local_transpose_cycles(1 << 20);
        assert!((frac - 31.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn cost_scales_linearly_in_bytes() {
        let noc = paper_noc();
        let t1 = noc.transition_time_s(1 << 20);
        let t4 = noc.transition_time_s(4 << 20);
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
        assert_eq!(noc.transition_time_s(0), 0.0);
    }
}
