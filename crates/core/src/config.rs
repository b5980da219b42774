//! IVE hardware configuration (Fig. 9, Table II) and its derived rates.

use ive_hw::mem::MemSpec;
use ive_hw::treewalk::TreeSchedule;
use serde::{Deserialize, Serialize};

/// Operation-scheduling policy for the tree-shaped steps (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Breadth-first (Fig. 7a).
    Bfs,
    /// Depth-first (Fig. 7b).
    Dfs,
    /// Hierarchical search with BFS inside subtrees, auto-sized depth.
    HsBfs,
    /// Hierarchical search with DFS inside subtrees, auto-sized depth —
    /// the paper's preferred configuration.
    HsDfs,
}

/// The IVE accelerator configuration.
#[derive(Debug, Clone, Serialize)]
pub struct IveConfig {
    /// Vector cores (32 in the full configuration).
    pub cores: usize,
    /// Lanes per core (64).
    pub lanes: usize,
    /// sysNTTUs per core (2).
    pub sysnttu_per_core: usize,
    /// Modular MACs per cycle per core in GEMM mode (2 × 512 for IVE's
    /// sysNTTU pair; 2 × 64 for the ARK-like MADU pair).
    pub gemm_macs_per_cycle_core: f64,
    /// Coefficients per cycle each (i)NTT engine accepts (128 for the
    /// fully pipelined F1-style unit).
    pub ntt_coeffs_per_cycle_unit: f64,
    /// Clock (Hz).
    pub freq_hz: f64,
    /// Register file per core (bytes) — the tree-walk working buffer.
    pub rf_per_core: u64,
    /// DB buffer per core (bytes).
    pub db_buffer_per_core: u64,
    /// iCRT buffer per core (bytes).
    pub icrt_buffer_per_core: u64,
    /// Whether NTT and GEMM share the sysNTTU array (`false` models the
    /// `Base` split-unit configuration of Fig. 13e and the ARK-like
    /// system of Fig. 14a).
    pub shared_sysnttu: bool,
    /// Whether the §IV-G special primes are used (area/energy ablation).
    pub special_primes: bool,
    /// Tree-operation scheduling policy.
    pub policy: SchedulePolicy,
    /// Reduction overlapping for `Dcp` (§IV-A).
    pub reduction_overlap: bool,
    /// Pipeline efficiency on compute throughput (hazards, drain/fill —
    /// stands in for the cycle-level simulator's stall accounting;
    /// calibrated to the paper's Fig. 12 band).
    pub compute_efficiency: f64,
    /// On-package HBM.
    pub hbm: MemSpec,
    /// Optional LPDDR expander (scale-up system of §V).
    pub lpddr: Option<MemSpec>,
    /// Host link.
    pub pcie: MemSpec,
}

impl IveConfig {
    /// The full 32-core IVE of Table II with the scale-up LPDDR expander.
    pub fn paper() -> Self {
        IveConfig {
            cores: 32,
            lanes: 64,
            sysnttu_per_core: 2,
            gemm_macs_per_cycle_core: 1024.0,
            ntt_coeffs_per_cycle_unit: 128.0,
            freq_hz: 1e9,
            rf_per_core: 4 << 20,
            db_buffer_per_core: 448 << 10,
            icrt_buffer_per_core: 448 << 10,
            shared_sysnttu: true,
            special_primes: true,
            policy: SchedulePolicy::HsDfs,
            reduction_overlap: true,
            compute_efficiency: 0.8,
            hbm: MemSpec::hbm_chip(),
            lpddr: Some(MemSpec::lpddr_system()),
            pcie: MemSpec::pcie_gen5(),
        }
    }

    /// IVE without the LPDDR expander (HBM-only, 16GB-class DBs).
    pub fn paper_hbm_only() -> Self {
        IveConfig { lpddr: None, ..IveConfig::paper() }
    }

    /// The ARK-like comparison system of Fig. 14a: 64 cores, the same
    /// total NTT throughput, GEMM mapped onto two 64-lane MADUs per core,
    /// 2MB scratchpad per core, split units.
    pub fn ark_like() -> Self {
        IveConfig {
            cores: 64,
            sysnttu_per_core: 1, // one NTTU per core = 64 total, as IVE's 64 sysNTTUs
            gemm_macs_per_cycle_core: 128.0, // 2 MADUs × 64 lanes
            rf_per_core: 2 << 20,
            db_buffer_per_core: 0,
            icrt_buffer_per_core: 0,
            shared_sysnttu: false,
            ..IveConfig::paper()
        }
    }

    /// Chip-wide GEMM throughput (modular MACs per second).
    pub fn gemm_macs_per_s(&self) -> f64 {
        self.cores as f64 * self.gemm_macs_per_cycle_core * self.freq_hz
    }

    /// Cycles one residue-polynomial NTT occupies one engine.
    pub(crate) fn ntt_cycles_per_poly(&self, n: usize) -> f64 {
        n as f64 / self.ntt_coeffs_per_cycle_unit
    }

    /// Total SRAM per core (the Table II "5MB of managed SRAM").
    pub(crate) fn sram_per_core(&self) -> u64 {
        self.rf_per_core + self.db_buffer_per_core + self.icrt_buffer_per_core
    }

    /// The per-core tree-walk buffer (register file).
    pub(crate) fn walk_buffer(&self) -> u64 {
        self.rf_per_core
    }

    /// The tree schedule corresponding to the policy, auto-sizing HS
    /// subtree depths against the per-core buffer (§IV-A formulas).
    pub(crate) fn schedule_for(&self, cfg: &ive_hw::treewalk::TreeWalkConfig) -> TreeSchedule {
        match self.policy {
            SchedulePolicy::Bfs => TreeSchedule::Bfs,
            SchedulePolicy::Dfs => TreeSchedule::Dfs,
            SchedulePolicy::HsBfs => {
                TreeSchedule::Hs { subtree_depth: cfg.hs_auto_depth(true), inner_bfs: true }
            }
            SchedulePolicy::HsDfs => {
                TreeSchedule::Hs { subtree_depth: cfg.hs_auto_depth(false), inner_bfs: false }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_throughput_anchors() {
        let c = IveConfig::paper();
        // "Two sysNTTUs per core ... deliver 1TOPS of modular
        // multiply-and-add throughput" (§IV-C): 1024 MACs/cycle at 1GHz.
        assert_eq!(c.gemm_macs_per_cycle_core, 1024.0);
        assert!((c.gemm_macs_per_s() - 32.768e12).abs() < 1e9);
        // 5MB managed SRAM per core (Table II).
        assert_eq!(c.sram_per_core(), (4 << 20) + 2 * (448 << 10));
        // 4096-point NTT: 32 cycles per residue polynomial per engine.
        assert_eq!(c.ntt_cycles_per_poly(4096), 32.0);
    }

    #[test]
    fn ark_like_has_quarter_gemm_rate() {
        let ive = IveConfig::paper();
        let ark = IveConfig::ark_like();
        // 8192 vs 32768 MACs/cycle: the 4x RowSel gap behind Fig. 14a.
        assert_eq!(ive.gemm_macs_per_s() / ark.gemm_macs_per_s(), 4.0);
        // Same total NTT engine count.
        assert_eq!(ive.cores * ive.sysnttu_per_core, ark.cores * ark.sysnttu_per_core);
        assert!(!ark.shared_sysnttu);
    }

    #[test]
    fn memory_system_matches_fig11() {
        let c = IveConfig::paper();
        assert_eq!(c.hbm.capacity_bytes, 96 << 30);
        let lp = c.lpddr.expect("scale-up config has LPDDR");
        assert_eq!(lp.capacity_bytes, 512 << 30);
    }
}
