//! Area, power and energy models (Table II, Fig. 13e, Fig. 14a).
//!
//! Component area/power constants reproduce the paper's RTL-synthesis
//! results (ASAP7, 7nm; Table II). The ablation factors — special primes
//! saving 9.1% of the modular-multiplier circuit (4% chip-wide) and the
//! sysNTTU saving a separate GEMM unit (7% chip area) at a 1.1× compute
//! energy overhead — are applied structurally so Fig. 13e and the
//! ARK-like EDAP comparison of Fig. 14a are *derived* from the same
//! constants.

use ive_baselines::complexity::{per_query_ops, Geometry};
use serde::{Deserialize, Serialize};

use crate::config::IveConfig;
use crate::engine::RunReport;

/// Per-core component areas in mm² (7nm, Table II).
pub mod area_constants {
    /// Both sysNTTUs (includes the 1.4% GEMM-mux overhead, §VI-E).
    pub const SYSNTTU_PAIR: f64 = 0.77;
    /// A pure NTTU pair without the GEMM datapath.
    pub(crate) const NTTU_PAIR: f64 = 0.7594;
    /// A standalone GEMM systolic array pair of matching throughput
    /// (the `Base` configuration of Fig. 13e carries this in addition).
    pub(crate) const GEMM_UNIT_PAIR: f64 = 0.376;
    /// iCRT unit.
    pub const ICRTU: f64 = 0.05;
    /// Element-wise unit.
    pub const EWU: f64 = 0.10;
    /// Automorphism unit.
    pub const AUTOU: f64 = 0.07;
    /// Register file and buffers (5MB).
    pub(crate) const RF_BUFFERS: f64 = 1.38;
    /// Remaining per-core logic (control, NoC endpoints).
    pub(crate) const CORE_OTHER: f64 = 0.54;
    /// Chip-level NoC.
    pub(crate) const NOC: f64 = 2.6;
    /// HBM PHYs.
    pub(crate) const HBM_PHY: f64 = 59.6;
    /// Chip-area inflation when generic (non-Solinas) primes force full
    /// Montgomery multipliers (§IV-G: 9.1% per modmul, 4% chip-wide).
    pub(crate) const NO_SPECIAL_PRIMES_FACTOR: f64 = 1.0 / 0.96;
}

/// Per-core component peak power in W (Table II).
pub mod power_constants {
    /// Both sysNTTUs.
    pub const SYSNTTU_PAIR: f64 = 2.17;
    /// iCRT unit.
    pub const ICRTU: f64 = 0.13;
    /// Element-wise unit.
    pub const EWU: f64 = 0.37;
    /// Automorphism unit.
    pub const AUTOU: f64 = 0.11;
    /// Register file and buffers.
    pub(crate) const RF_BUFFERS: f64 = 1.63;
    /// Remaining per-core logic.
    pub(crate) const CORE_OTHER: f64 = 0.71;
    /// Chip-level NoC.
    pub(crate) const NOC: f64 = 6.7;
    /// HBM devices + PHY.
    pub(crate) const HBM: f64 = 68.6;
}

/// An area or power breakdown (mm² or W).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Breakdown {
    /// Compute units of one core (sysNTTU or NTTU+GEMM, iCRTU, EWU,
    /// AutoU).
    pub core_units: f64,
    /// One core's SRAM.
    pub core_sram: f64,
    /// One core, total.
    pub core_total: f64,
    /// All cores.
    pub cores_total: f64,
    /// NoC.
    pub noc: f64,
    /// HBM (PHY for area; devices + PHY for power).
    pub hbm: f64,
    /// Chip total.
    pub total: f64,
}

/// The Table II reference SRAM per core: 4MB RF + two 448KB buffers.
const REFERENCE_SRAM: f64 = (4 << 20) as f64 + 2.0 * (448 << 10) as f64;

/// Chip area for a configuration.
pub fn area_mm2(cfg: &IveConfig) -> Breakdown {
    use area_constants as a;
    let units_per_core = if cfg.shared_sysnttu {
        a::SYSNTTU_PAIR + a::ICRTU + a::EWU + a::AUTOU
    } else {
        a::NTTU_PAIR + a::GEMM_UNIT_PAIR + a::ICRTU + a::EWU + a::AUTOU
    };
    // The §IV-G saving is quoted chip-wide in Fig. 13e (4%); forgoing it
    // inflates every modular-arithmetic datapath.
    let sp = if cfg.special_primes { 1.0 } else { a::NO_SPECIAL_PRIMES_FACTOR };
    // SRAM scales with capacity relative to the Table II reference core.
    let sram = a::RF_BUFFERS * cfg.sram_per_core() as f64 / REFERENCE_SRAM;
    let core_units = units_per_core;
    let core_total = core_units + sram + a::CORE_OTHER;
    let cores_total = core_total * cfg.cores as f64;
    let total = (cores_total + a::NOC + a::HBM_PHY) * sp;
    Breakdown {
        core_units,
        core_sram: sram,
        core_total,
        cores_total: total - a::NOC - a::HBM_PHY,
        noc: a::NOC,
        hbm: a::HBM_PHY,
        total,
    }
}

/// Chip peak power for a configuration.
pub fn peak_power_w(cfg: &IveConfig) -> Breakdown {
    use power_constants as p;
    let sp = if cfg.special_primes { 1.0 } else { area_constants::NO_SPECIAL_PRIMES_FACTOR };
    let units = p::SYSNTTU_PAIR + p::ICRTU + p::EWU + p::AUTOU;
    let sram = p::RF_BUFFERS * cfg.sram_per_core() as f64 / REFERENCE_SRAM;
    let core_total = units + sram + p::CORE_OTHER;
    let cores_total = core_total * cfg.cores as f64;
    let total = (cores_total + p::NOC + p::HBM) * sp;
    Breakdown {
        core_units: units,
        core_sram: sram,
        core_total,
        cores_total: total - p::NOC - p::HBM,
        noc: p::NOC,
        hbm: p::HBM,
        total,
    }
}

/// Energy coefficients (7nm-class, calibrated against the paper's Table II
/// peak power and its Fig. 12 J/query rows).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnergyParams {
    /// pJ per modular MAC on the systolic array / butterfly.
    pub pj_per_mac: f64,
    /// pJ per modular MAC when GEMM runs on register-file-fed MADUs
    /// (the ARK-like system pays repeated RF access, §VI-E).
    pub pj_per_madu_mac: f64,
    /// pJ per HBM byte.
    pub pj_per_hbm_byte: f64,
    /// pJ per LPDDR byte.
    pub pj_per_lpddr_byte: f64,
    /// Static/leakage + idle power in W.
    pub static_w: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            pj_per_mac: 2.5,
            pj_per_madu_mac: 5.5,
            pj_per_hbm_byte: 34.0,
            pj_per_lpddr_byte: 22.0,
            static_w: 25.0,
        }
    }
}

/// Physical multiply count for energy accounting (butterflies counted at
/// `N/2·log N`, unlike the Fig. 4 convention).
fn physical_mults(geom: &Geometry) -> f64 {
    let ops = per_query_ops(geom);
    let n = geom.n as f64;
    let bfly = n / 2.0 * n.log2();
    [ops.expand, ops.rowsel, ops.coltor]
        .iter()
        .map(|s| {
            s.residue_ntts * bfly
                + s.gemm_macs
                + s.icrt_coeffs * ive_baselines::complexity::ICRT_MULTS_PER_COEFF
                + s.elem_macs
        })
        .sum()
}

/// Joules per query for a completed run.
pub fn energy_per_query_j(
    cfg: &IveConfig,
    geom: &Geometry,
    report: &RunReport,
    params: &EnergyParams,
) -> f64 {
    let mults = physical_mults(geom);
    let gemm_macs = per_query_ops(geom).rowsel.gemm_macs;
    let mac_pj = if cfg.shared_sysnttu { params.pj_per_mac * 1.1 } else { params.pj_per_mac };
    let sp = if cfg.special_primes { 1.0 } else { area_constants::NO_SPECIAL_PRIMES_FACTOR };
    let mut compute_pj = mults * mac_pj * sp;
    if !cfg.shared_sysnttu && cfg.gemm_macs_per_cycle_core < 512.0 {
        // MADU-mapped GEMM: replace the array cost of RowSel's MACs with
        // the RF-fed cost.
        compute_pj += gemm_macs * (params.pj_per_madu_mac - params.pj_per_mac) * sp;
    }
    let traffic = report.expand.traffic.total()
        + report.coltor.traffic.total()
        + report.rowsel.traffic.ct_load
        + report.rowsel.traffic.ct_store;
    let db = report.rowsel.traffic.db_stream as f64 / report.batch as f64;
    let db_pj = if cfg.lpddr.is_some() && geom.preprocessed_db_bytes() > cfg.hbm.capacity_bytes {
        params.pj_per_lpddr_byte
    } else {
        params.pj_per_hbm_byte
    };
    let dram_pj = traffic as f64 / report.batch as f64 * params.pj_per_hbm_byte + db * db_pj;
    let static_j = params.static_w * report.total_s / report.batch as f64;
    (compute_pj + dram_pj) * 1e-12 + static_j
}

/// One bar group of the Fig. 13e ablation, relative to the `Base`
/// configuration (split units, generic primes).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: &'static str,
    /// Relative energy.
    pub energy: f64,
    /// Relative delay.
    pub delay: f64,
    /// Relative area.
    pub area: f64,
}

/// The Fig. 13e ablation: `Base` → `+Sp` → `+SysNTTU` (= IVE).
pub fn fig13e_ablation(geom: &Geometry, batch: usize) -> Vec<AblationPoint> {
    use crate::engine::{simulate_batch, DbPlacement};
    let ep = EnergyParams::default();
    let mk = |shared: bool, special: bool| {
        let mut cfg = IveConfig::paper_hbm_only();
        cfg.shared_sysnttu = shared;
        cfg.special_primes = special;
        let rep = simulate_batch(&cfg, geom, batch, DbPlacement::Hbm);
        let e = energy_per_query_j(&cfg, geom, &rep, &ep);
        (e, rep.total_s, area_mm2(&cfg).total)
    };
    let base = mk(false, false);
    let sp = mk(false, true);
    let ive = mk(true, true);
    vec![
        AblationPoint { label: "Base", energy: 1.0, delay: 1.0, area: 1.0 },
        AblationPoint {
            label: "+Sp",
            energy: sp.0 / base.0,
            delay: sp.1 / base.1,
            area: sp.2 / base.2,
        },
        AblationPoint {
            label: "+SysNTTU",
            energy: ive.0 / base.0,
            delay: ive.1 / base.1,
            area: ive.2 / base.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_batch, DbPlacement};

    const GIB: u64 = 1 << 30;

    #[test]
    fn table2_area_reproduced() {
        let cfg = IveConfig::paper();
        let a = area_mm2(&cfg);
        // Table II: core 2.91, 32 cores 93.1, chip 155.3 mm².
        assert!((a.core_total - 2.91).abs() < 0.02, "core {:.3}", a.core_total);
        assert!((a.cores_total - 93.1).abs() < 0.6);
        assert!((a.total - 155.3).abs() < 0.7, "total {:.1}", a.total);
    }

    #[test]
    fn table2_power_reproduced() {
        let cfg = IveConfig::paper();
        let p = peak_power_w(&cfg);
        // Table II: core 5.12, 32 cores 163.8, chip 239.1 W.
        assert!((p.core_total - 5.12).abs() < 0.03);
        assert!((p.total - 239.1).abs() < 1.0, "total {:.1}", p.total);
    }

    #[test]
    fn fig12_energy_rows() {
        // Fig. 12: 0.03 / 0.05 / 0.09 J per query for 2/4/8GB.
        let cfg = IveConfig::paper_hbm_only();
        let ep = EnergyParams::default();
        for (gib, paper) in [(2u64, 0.03), (4, 0.05), (8, 0.09)] {
            let geom = Geometry::paper_for_db_bytes(gib * GIB);
            let rep = simulate_batch(&cfg, &geom, 64, DbPlacement::Hbm);
            let e = energy_per_query_j(&cfg, &geom, &rep, &ep);
            assert!((e / paper - 1.0).abs() < 0.4, "{gib}GB: model {e:.3} vs paper {paper}");
        }
    }

    #[test]
    fn fig13e_relative_bars() {
        // Fig. 13e: +Sp ≈ 0.96 area/energy; +SysNTTU ≈ 0.90 area with
        // ≈1.05 energy, no delay change.
        let geom = Geometry::paper_for_db_bytes(8 * GIB);
        let points = fig13e_ablation(&geom, 64);
        let sp = &points[1];
        assert!((sp.area - 0.96).abs() < 0.01, "sp area {:.3}", sp.area);
        assert!((sp.energy - 0.96).abs() < 0.03);
        let ive = &points[2];
        assert!((ive.area - 0.90).abs() < 0.02, "ive area {:.3}", ive.area);
        assert!(ive.energy > 1.0 && ive.energy < 1.15, "ive energy {:.3}", ive.energy);
        assert!((ive.delay - 1.0).abs() < 0.05, "ive delay {:.3}", ive.delay);
    }

    #[test]
    fn ark_like_edap_gap() {
        // Fig. 14a: IVE is ~4.2x faster, ~2.4x lower energy, comparable
        // area — a ~9.7x EDAP advantage over the ARK-like system (16GB).
        let geom = Geometry::paper_for_db_bytes(16 * GIB);
        let ep = EnergyParams::default();
        let ive_cfg = IveConfig::paper_hbm_only();
        let ark_cfg = IveConfig { lpddr: None, ..IveConfig::ark_like() };
        let ive = simulate_batch(&ive_cfg, &geom, 64, DbPlacement::Hbm);
        let ark = simulate_batch(&ark_cfg, &geom, 64, DbPlacement::Hbm);
        let delay_ratio = ark.total_s / ive.total_s;
        assert!((2.8..5.0).contains(&delay_ratio), "delay ratio {delay_ratio:.2}");
        let e_ive = energy_per_query_j(&ive_cfg, &geom, &ive, &ep);
        let e_ark = energy_per_query_j(&ark_cfg, &geom, &ark, &ep);
        let energy_ratio = e_ark / e_ive;
        assert!((1.6..3.5).contains(&energy_ratio), "energy ratio {energy_ratio:.2}");
        let area_ratio = area_mm2(&ark_cfg).total / area_mm2(&ive_cfg).total;
        assert!((0.8..1.6).contains(&area_ratio), "area ratio {area_ratio:.2}");
        let edap = delay_ratio * energy_ratio * area_ratio;
        assert!((5.0..16.0).contains(&edap), "EDAP ratio {edap:.1}");
    }
}
