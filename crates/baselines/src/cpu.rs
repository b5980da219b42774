//! The 32-core CPU baseline (OnionPIRv2 on a Xeon Max class host).
//!
//! A roofline model over the shared complexity counts: effective modular
//! multiply throughput calibrated to the paper's measured CPU QPS (§VI-B:
//! IVE achieves 687.6× the 32-core CPU in gmean over 2–8GB), DDR5-class
//! sustained bandwidth, and a package+DRAM power envelope for the RAPL
//! energy rows of Fig. 12.

use serde::{Deserialize, Serialize};

use crate::complexity::{per_query_ops, Geometry};
use crate::roofline::Device;

/// CPU model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuModel {
    /// Effective modular-mult throughput over 32 cores (ops/s).
    pub mult_per_s: f64,
    /// Sustained memory bandwidth (bytes/s).
    pub bytes_per_s: f64,
    /// Package + DRAM power under load (W), for RAPL-style energy.
    pub power_w: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        // 32 cores × ~1.5 G modmul/s/core (AVX-512, ~3 integer ops per
        // modular mult) — calibrated so the 2–8GB gmean speedup of IVE
        // lands at the paper's 687.6× (Fig. 12).
        CpuModel { mult_per_s: 47e9, bytes_per_s: 250e9, power_w: 400.0 }
    }
}

/// Per-query CPU execution estimate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CpuReport {
    /// Seconds per query.
    pub latency_s: f64,
    /// Queries per second (single query at a time; the CPU baseline does
    /// not batch).
    pub qps: f64,
    /// Joules per query.
    pub energy_j: f64,
}

impl CpuModel {
    /// The roofline device view of this CPU.
    pub(crate) fn device(&self) -> Device {
        Device {
            name: "CPU (32 cores)",
            mult_per_s: self.mult_per_s,
            bytes_per_s: self.bytes_per_s,
            mem_capacity: 1 << 40,
            cache_bytes: 112 << 20,
        }
    }

    /// Runs the model for one geometry.
    pub fn run(&self, geom: &Geometry) -> CpuReport {
        let ops = per_query_ops(geom);
        let d = self.device();
        // RowSel streams the preprocessed DB; the other steps stream the
        // client keys and the tournament working set (cache-resident for a
        // single query except the leaf pass).
        let expand_bytes =
            (geom.d0 as u64 * geom.ct_bytes() + geom.d0.ilog2() as u64 * geom.evk_bytes()) as f64;
        let rowsel_bytes = geom.preprocessed_db_bytes() as f64;
        let coltor_bytes =
            (geom.rows() * geom.ct_bytes() + geom.dims as u64 * geom.rgsw_bytes()) as f64;
        let t = d.time_s(ops.expand.mults(geom.n), expand_bytes)
            + d.time_s(ops.rowsel.mults(geom.n), rowsel_bytes)
            + d.time_s(ops.coltor.mults(geom.n), coltor_bytes);
        CpuReport { latency_s: t, qps: 1.0 / t, energy_j: self.power_w * t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn cpu_qps_scale_with_db_size() {
        let cpu = CpuModel::default();
        let q2 = cpu.run(&Geometry::paper_for_db_bytes(2 * GIB)).qps;
        let q4 = cpu.run(&Geometry::paper_for_db_bytes(4 * GIB)).qps;
        let q8 = cpu.run(&Geometry::paper_for_db_bytes(8 * GIB)).qps;
        assert!(q2 > q4 && q4 > q8);
        // Roughly inverse-linear in DB size (RowSel/ColTor dominate).
        assert!((q2 / q8) > 3.0 && (q2 / q8) < 5.0);
        // Single-digit QPS — the paper's "1.1–18.6 seconds" regime.
        assert!(q2 < 20.0 && q8 > 0.5);
    }

    #[test]
    fn cpu_energy_tracks_latency() {
        // Fig. 12: 72/107/176 J per query for 2/4/8GB — energy grows
        // with latency at fixed power.
        let cpu = CpuModel::default();
        let e2 = cpu.run(&Geometry::paper_for_db_bytes(2 * GIB)).energy_j;
        let e8 = cpu.run(&Geometry::paper_for_db_bytes(8 * GIB)).energy_j;
        assert!(e2 > 30.0 && e2 < 150.0, "2GB energy {e2:.0}J");
        assert!(e8 > 2.0 * e2);
    }
}
