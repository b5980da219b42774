//! GPU baselines: RTX 4090 and H100 running the OnionPIR pipeline with
//! CLP + QLP parallelization (§VI-A), in single-query and multi-client
//! batched modes (Fig. 6, Fig. 12).

use ive_hw::treewalk::{coltor_traffic, expand_traffic, TreeSchedule, TreeWalkConfig};
use serde::{Deserialize, Serialize};

use crate::complexity::{per_query_ops, Geometry};
use crate::roofline::Device;

/// GPU model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GpuModel {
    /// Device name.
    pub name: &'static str,
    /// Peak integer-mult throughput (ops/s) before derating.
    pub peak_mult_per_s: f64,
    /// Peak DRAM bandwidth (bytes/s) before derating.
    pub peak_bytes_per_s: f64,
    /// Device memory (bytes).
    pub mem_bytes: u64,
    /// L2 cache (bytes) — the per-query working-set budget divides this.
    pub l2_bytes: u64,
    /// Fraction of peak compute sustained by modular-arithmetic kernels.
    pub compute_eff: f64,
    /// Fraction of peak bandwidth sustained.
    pub bw_eff: f64,
    /// Board power for energy estimates (W).
    pub power_w: f64,
}

impl GpuModel {
    /// The RTX 4090 with the paper's Fig. 6 ceilings (41.3 TOPS, 939GB/s).
    ///
    /// The sustained efficiency of modular-arithmetic CUDA kernels is far
    /// below the IMAD peak (a Barrett multiply chains ~8 integer ops with
    /// limited ILP); `compute_eff` is calibrated so the batched-GPU gap
    /// to IVE lands in the paper's Fig. 12 band.
    pub fn rtx4090() -> Self {
        GpuModel {
            name: "RTX 4090",
            peak_mult_per_s: 41.3e12,
            peak_bytes_per_s: 939e9,
            mem_bytes: 24 << 30,
            l2_bytes: 72 << 20,
            compute_eff: 0.05,
            bw_eff: 0.70,
            power_w: 450.0,
        }
    }

    /// The H100 SXM (INT32 ceiling, HBM3).
    pub fn h100() -> Self {
        GpuModel {
            name: "H100",
            peak_mult_per_s: 66.9e12,
            peak_bytes_per_s: 3350e9,
            mem_bytes: 80 << 30,
            l2_bytes: 50 << 20,
            compute_eff: 0.05,
            bw_eff: 0.70,
            power_w: 700.0,
        }
    }

    /// The derated (sustained) roofline device used for execution-time
    /// estimates.
    pub(crate) fn device(&self) -> Device {
        Device {
            name: self.name,
            mult_per_s: self.peak_mult_per_s * self.compute_eff,
            bytes_per_s: self.peak_bytes_per_s * self.bw_eff,
            mem_capacity: self.mem_bytes,
            cache_bytes: self.l2_bytes,
        }
    }

    /// The peak-ceiling device — what the paper's Fig. 6 roofline plots.
    pub fn peak_device(&self) -> Device {
        Device {
            name: self.name,
            mult_per_s: self.peak_mult_per_s,
            bytes_per_s: self.peak_bytes_per_s,
            mem_capacity: self.mem_bytes,
            cache_bytes: self.l2_bytes,
        }
    }
}

/// A GPU execution estimate at one batch size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GpuReport {
    /// Batch size used.
    pub batch: usize,
    /// Seconds per batch, by step.
    pub expand_s: f64,
    /// `RowSel` seconds per batch.
    pub rowsel_s: f64,
    /// `ColTor` seconds per batch.
    pub coltor_s: f64,
    /// Total seconds per batch.
    pub total_s: f64,
    /// Queries per second.
    pub qps: f64,
    /// Joules per query.
    pub energy_j: f64,
}

impl GpuModel {
    /// Whether the preprocessed database plus per-query state fits in
    /// device memory at the given batch (Fig. 12 omits the 4090 at 8GB for
    /// exactly this reason: 28GB preprocessed exceeds 24GB).
    pub(crate) fn fits(&self, geom: &Geometry, batch: usize) -> bool {
        let per_query = geom.d0.ilog2() as u64 * geom.evk_bytes()
            + geom.dims as u64 * geom.rgsw_bytes()
            + (geom.rows() + geom.d0 as u64) * geom.ct_bytes();
        geom.preprocessed_db_bytes() + batch as u64 * per_query <= self.mem_bytes
    }

    /// Runs the model. Returns `None` when the workload does not fit.
    pub fn run(&self, geom: &Geometry, batch: usize) -> Option<GpuReport> {
        if batch == 0 || !self.fits(geom, batch) {
            return None;
        }
        let d = self.device();
        let ops = per_query_ops(geom);
        let b = batch as f64;

        // Per-query ExpandQuery/ColTor traffic from the tree walker with
        // an L2 share per concurrently resident query.
        let share = (self.l2_bytes / batch.max(1) as u64).max(2 << 20);
        let expand_cfg = TreeWalkConfig {
            depth: geom.d0.ilog2(),
            ct_bytes: geom.ct_bytes(),
            key_bytes: geom.evk_bytes(),
            temp_bytes: geom.ell as u64 * geom.ct_bytes() / 2,
            buffer_bytes: share,
        };
        let coltor_cfg =
            TreeWalkConfig { depth: geom.dims, key_bytes: geom.rgsw_bytes(), ..expand_cfg };
        // GPUs execute level-synchronous kernels: BFS order.
        let expand_bytes = expand_traffic(&expand_cfg, TreeSchedule::Bfs).traffic.total() as f64;
        let coltor_bytes = coltor_traffic(&coltor_cfg, TreeSchedule::Bfs).traffic.total() as f64;

        let expand_s = d.time_s(b * ops.expand.mults(geom.n), b * expand_bytes);
        let rowsel_s = d.time_s(
            b * ops.rowsel.mults(geom.n),
            geom.preprocessed_db_bytes() as f64 + b * geom.rows() as f64 * geom.ct_bytes() as f64,
        );
        let coltor_s = d.time_s(b * ops.coltor.mults(geom.n), b * coltor_bytes);
        let total_s = expand_s + rowsel_s + coltor_s;
        let qps = b / total_s;
        Some(GpuReport {
            batch,
            expand_s,
            rowsel_s,
            coltor_s,
            total_s,
            qps,
            energy_j: self.power_w / qps,
        })
    }

    /// The largest feasible batch not exceeding `cap` (the paper uses the
    /// maximum the device memory allows, §VI-A).
    pub fn max_batch(&self, geom: &Geometry, cap: usize) -> usize {
        (1..=cap).rev().find(|&b| self.fits(geom, b)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn batching_improves_gpu_qps() {
        let gpu = GpuModel::rtx4090();
        let g = Geometry::paper_for_db_bytes(2 * GIB);
        let single = gpu.run(&g, 1).expect("fits");
        let batched = gpu.run(&g, 64).expect("fits");
        assert!(batched.qps > 3.0 * single.qps, "{} vs {}", batched.qps, single.qps);
        // Fig. 6 right: at batch 1 RowSel dominates; its share falls with
        // batching while ColTor's grows.
        assert!(single.rowsel_s / single.total_s > 0.5);
        assert!(batched.rowsel_s / batched.total_s < single.rowsel_s / single.total_s);
    }

    #[test]
    fn rtx4090_cannot_hold_8gb_preprocessed() {
        // Fig. 12 omits the 4090 for the 8GB DB: 28GB preprocessed > 24GB.
        let gpu = GpuModel::rtx4090();
        let g = Geometry::paper_for_db_bytes(8 * GIB);
        assert!(!gpu.fits(&g, 1));
        assert!(gpu.run(&g, 1).is_none());
        assert!(GpuModel::h100().fits(&g, 1));
    }

    #[test]
    fn h100_outperforms_4090() {
        let g = Geometry::paper_for_db_bytes(2 * GIB);
        let a = GpuModel::rtx4090().run(&g, 64).expect("fits");
        let h = GpuModel::h100().run(&g, 64).expect("fits");
        assert!(h.qps > a.qps);
    }

    #[test]
    fn gpu_energy_far_below_cpu() {
        // §VI-B: batched GPU ≈ 43× lower energy than CPU.
        let g = Geometry::paper_for_db_bytes(2 * GIB);
        let gpu = GpuModel::rtx4090().run(&g, 64).expect("fits");
        let cpu = crate::cpu::CpuModel::default().run(&g);
        let ratio = cpu.energy_j / gpu.energy_j;
        assert!(ratio > 10.0, "only {ratio:.1}x");
    }
}
