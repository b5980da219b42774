//! Fig. 14 — (a) energy/delay/area versus an ARK-like HE accelerator and
//! (b) the load–latency curve under the waiting-window batch scheduler,
//! both on a 16GB database.

use ive_accel::config::IveConfig;
use ive_accel::cost::{area_mm2, energy_per_query_j, EnergyParams};
use ive_accel::engine::{simulate_batch, DbPlacement};
use ive_accel::queue::{simulate_poisson, QueuePoint, ServiceTable};
use ive_baselines::complexity::Geometry;
use rand::SeedableRng;

use crate::GIB;

/// Fig. 14a: one system's absolute numbers.
#[derive(Debug, Clone)]
pub struct ArkRow {
    /// System label.
    pub system: &'static str,
    /// Batch latency (s) at batch 64, 16GB.
    pub delay_s: f64,
    /// Joules per query.
    pub energy_j: f64,
    /// Chip area (mm²).
    pub area_mm2: f64,
    /// Energy–delay–area product, relative to IVE.
    pub edap_rel: f64,
}

/// Fig. 14a rows (IVE first, then the ARK-like system).
pub fn fig14a() -> Vec<ArkRow> {
    let geom = Geometry::paper_for_db_bytes(16 * GIB);
    let ep = EnergyParams::default();
    let mk = |label, cfg: IveConfig| {
        let r = simulate_batch(&cfg, &geom, 64, DbPlacement::Hbm);
        ArkRow {
            system: label,
            delay_s: r.total_s,
            energy_j: energy_per_query_j(&cfg, &geom, &r, &ep),
            area_mm2: area_mm2(&cfg).total,
            edap_rel: 0.0,
        }
    };
    let mut rows = vec![
        mk("IVE", IveConfig::paper_hbm_only()),
        mk("ARK-like", IveConfig { lpddr: None, ..IveConfig::ark_like() }),
    ];
    let ive_edap = rows[0].delay_s * rows[0].energy_j * rows[0].area_mm2;
    for r in rows.iter_mut() {
        r.edap_rel = (r.delay_s * r.energy_j * r.area_mm2) / ive_edap;
    }
    rows
}

/// Fig. 14b: load–latency curves with and without batching.
#[derive(Debug, Clone)]
pub struct LoadLatency {
    /// Offered load sweep with the waiting-window scheduler.
    pub batching: Vec<QueuePoint>,
    /// Offered load sweep without batching (FIFO, batch 1).
    pub no_batching: Vec<QueuePoint>,
    /// The waiting window used (s).
    pub window_s: f64,
    /// Single-query service latency (s).
    pub single_latency_s: f64,
}

/// Builds the service-latency table for the 16GB system.
pub(crate) fn service_table(max_batch: usize) -> ServiceTable {
    let cfg = IveConfig::paper_hbm_only();
    let geom = Geometry::paper_for_db_bytes(16 * GIB);
    ServiceTable::from_fn(max_batch, |b| simulate_batch(&cfg, &geom, b, DbPlacement::Hbm).total_s)
}

/// Runs the Fig. 14b sweep.
pub fn fig14b() -> LoadLatency {
    let table = service_table(64);
    let window_s = 0.032; // the paper's 32ms waiting window
    let loads = [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 420.0, 512.0];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
    let batching: Vec<QueuePoint> = loads
        .iter()
        .map(|&q| simulate_poisson(&table, window_s, 64, q, 30_000, &mut rng))
        .collect();
    // The no-batching server diverges past its limit; sweep below it.
    let single = table.latency(1);
    let nb_loads: Vec<f64> = loads.iter().copied().filter(|&q| q < 0.95 / single).collect();
    let no_batching: Vec<QueuePoint> =
        nb_loads.iter().map(|&q| simulate_poisson(&table, 0.0, 1, q, 30_000, &mut rng)).collect();
    LoadLatency { batching, no_batching, window_s, single_latency_s: single }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14a_ark_gap() {
        let rows = fig14a();
        let ive = &rows[0];
        let ark = &rows[1];
        // Paper: 4.2x delay, 2.4x energy, comparable area, 9.7x EDAP.
        let delay = ark.delay_s / ive.delay_s;
        let energy = ark.energy_j / ive.energy_j;
        assert!((2.8..5.5).contains(&delay), "delay {delay:.2}");
        assert!((1.5..3.5).contains(&energy), "energy {energy:.2}");
        assert!((0.8..1.6).contains(&(ark.area_mm2 / ive.area_mm2)));
        assert!((5.0..16.0).contains(&ark.edap_rel), "EDAP {:.1}", ark.edap_rel);
    }

    #[test]
    fn fig14b_batching_sustains_load() {
        let ll = fig14b();
        let nb_limit = 1.0 / ll.single_latency_s;
        // The batching curve stays sane at loads far past the
        // no-batching limit (paper: 44.2x throughput advantage).
        let high =
            ll.batching.iter().rfind(|p| p.offered_qps > 5.0 * nb_limit).expect("high-load point");
        assert!(
            high.avg_latency_s < 4.0 * (ll.single_latency_s + ll.window_s),
            "latency {:.3}s at {:.0} QPS",
            high.avg_latency_s,
            high.offered_qps
        );
        // At trivial load, batching costs at most the window (2x bound).
        let low = &ll.batching[0];
        assert!(low.avg_latency_s <= 2.0 * ll.single_latency_s + ll.window_s);
    }
}
