//! The paper's headline numbers, asserted end to end through the public
//! API.

use ive::accel::config::IveConfig;
use ive::accel::engine::{simulate_batch, DbPlacement};
use ive::accel::{IveCluster, IveSystem};
use ive::baselines::complexity::Geometry;
use ive::baselines::cpu::CpuModel;
use ive::baselines::gpu::GpuModel;
use ive::baselines::inspire::InspireModel;

const GIB: u64 = 1 << 30;

/// Relative tolerance against a paper value.
fn close(model: f64, paper: f64, tol: f64) -> bool {
    (model / paper - 1.0).abs() < tol
}

#[test]
fn headline_throughput_ladder() {
    // Fig. 12 @ 2GB: CPU (single digits) < GPU single < GPU batched < IVE
    // (thousands), with IVE within 10% of 4261 QPS.
    let geom = Geometry::paper_for_db_bytes(2 * GIB);
    let cpu = CpuModel::default().run(&geom).qps;
    let gpu_s = GpuModel::h100().run(&geom, 1).expect("fits").qps;
    let gpu_b = GpuModel::h100().run(&geom, 64).expect("fits").qps;
    let ive = simulate_batch(&IveConfig::paper_hbm_only(), &geom, 64, DbPlacement::Hbm).qps;
    assert!(cpu < 20.0 && cpu > 1.0, "cpu {cpu:.1}");
    assert!(cpu < gpu_s && gpu_s < gpu_b && gpu_b < ive);
    assert!(close(ive, 4261.0, 0.10), "ive {ive:.0}");
}

#[test]
fn abstract_claim_1275x_over_prior_hw() {
    // The abstract: "up to 1,275x higher throughput compared to prior PIR
    // hardware solutions" — Fsys per-system vs INSPIRE.
    let cluster = IveCluster::paper(16).expect("power of two");
    let geom = Geometry::paper_for_db_bytes(1280 * GIB);
    let r = cluster.run(&geom, 128).expect("fits");
    let inspire = InspireModel::default().qps(1280 * GIB);
    let advantage = r.qps_per_system / inspire;
    assert!(
        (900.0..1700.0).contains(&advantage),
        "per-system advantage {advantage:.0}x (paper: 1275x)"
    );
}

#[test]
fn comm_latency_150x_faster_than_inspire() {
    // §VI-B: 0.24s batch latency on Comm vs INSPIRE's 36s single query.
    let cluster = IveCluster::paper(16).expect("power of two");
    let geom = Geometry::paper_for_db_bytes(288 * GIB);
    let r = cluster.run(&geom, 128).expect("fits");
    let inspire_latency = InspireModel::default().latency_s(288 * GIB);
    assert!(close(inspire_latency, 36.0, 0.1));
    let speedup = inspire_latency / r.total_s;
    assert!((70.0..250.0).contains(&speedup), "{speedup:.0}x (paper: 150x)");
}

#[test]
fn scale_up_supports_128gb_per_system() {
    // §V: "an IVE system supports up to 128GB of DB".
    let sys = IveSystem::paper();
    assert!(sys.placement_for(&Geometry::paper_for_db_bytes(128 * GIB)).is_ok());
    assert!(sys.placement_for(&Geometry::paper_for_db_bytes(256 * GIB)).is_err());
}

#[test]
fn batching_amortizes_db_scan_18x() {
    // §VI-C: throughput gain 18.9x at 16GB from batch 1 to 64, with a
    // latency increase well under 4x.
    let cfg = IveConfig::paper_hbm_only();
    let geom = Geometry::paper_for_db_bytes(16 * GIB);
    let single = simulate_batch(&cfg, &geom, 1, DbPlacement::Hbm);
    let batched = simulate_batch(&cfg, &geom, 64, DbPlacement::Hbm);
    let gain = batched.qps / single.qps;
    assert!((12.0..30.0).contains(&gain), "gain {gain:.1}x (paper: 18.9x)");
    let latency_mult = batched.total_s / single.total_s;
    assert!(latency_mult < 4.0, "latency x{latency_mult:.2} (paper: 3.46x)");
}

#[test]
fn per_query_energy_two_orders_below_gpu() {
    // Fig. 12: IVE ~0.03J vs GPU ~1.6J at 2GB (51.3x lower on average).
    use ive::accel::cost::{energy_per_query_j, EnergyParams};
    let geom = Geometry::paper_for_db_bytes(2 * GIB);
    let cfg = IveConfig::paper_hbm_only();
    let rep = simulate_batch(&cfg, &geom, 64, DbPlacement::Hbm);
    let ive_e = energy_per_query_j(&cfg, &geom, &rep, &EnergyParams::default());
    let gpu_e = GpuModel::h100().run(&geom, 64).expect("fits").energy_j;
    let ratio = gpu_e / ive_e;
    assert!((15.0..120.0).contains(&ratio), "{ratio:.0}x (paper: 51.3x avg)");
}
