//! Table III — QPS of IVE versus prior PIR hardware (CIP-PIR, DPF-PIR,
//! INSPIRE) on synthesized databases and the three real workloads
//! (Vcall 384GB, Comm 288GB, Fsys 1.25TB; 16-system cluster, batch 128).

use ive_accel::system::{IveCluster, IveSystem};
use ive_baselines::complexity::Geometry;
use ive_baselines::inspire::InspireModel;
use ive_baselines::reported::{self, ReportedRow};

use crate::GIB;

/// The three real workloads: name, database GiB.
pub(crate) const WORKLOADS: [(&str, u64); 3] = [("Vcall", 384), ("Comm", 288), ("Fsys", 1280)];

/// IVE's side of Table III.
#[derive(Debug, Clone)]
pub struct IveRow {
    /// Workload or synthesized size label.
    pub workload: String,
    /// Database size (GiB).
    pub db_gib: u64,
    /// Cluster QPS (16 systems for workloads; 1 for synthesized).
    pub qps: f64,
    /// QPS per IVE system.
    pub qps_per_system: f64,
    /// Speedup over INSPIRE, where INSPIRE has a value.
    pub vs_inspire: Option<f64>,
}

/// Computes the IVE rows.
pub fn ive_rows() -> Vec<IveRow> {
    let mut out = Vec::new();
    // Synthesized DBs: single IVE, batch 64 (as in Fig. 12).
    let single = IveSystem::paper();
    for &gib in &[2u64, 4, 8] {
        let geom = Geometry::paper_for_db_bytes(gib * GIB);
        let r = single.run(&geom, 64).expect("fits");
        out.push(IveRow {
            workload: format!("{gib}GB"),
            db_gib: gib,
            qps: r.qps,
            qps_per_system: r.qps,
            vs_inspire: None,
        });
    }
    // Real workloads: 16-system cluster, batch 128.
    let cluster = IveCluster::paper(16).expect("16 is a power of two");
    let inspire = InspireModel::default();
    for &(name, gib) in &WORKLOADS {
        let geom = Geometry::paper_for_db_bytes(gib * GIB);
        let r = cluster.run(&geom, 128).expect("slices fit");
        out.push(IveRow {
            workload: name.into(),
            db_gib: gib,
            qps: r.qps,
            qps_per_system: r.qps_per_system,
            vs_inspire: Some(r.qps_per_system / inspire.qps(gib * GIB)),
        });
    }
    out
}

/// The prior-work rows (reported values, as the paper uses them).
pub fn prior_rows() -> Vec<ReportedRow> {
    reported::all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_qps_anchors() {
        // Table III: Vcall 413.0, Comm 544.6, Fsys 127.5 QPS.
        let rows = ive_rows();
        for (name, paper) in [("Vcall", 413.0), ("Comm", 544.6), ("Fsys", 127.5)] {
            let r = rows.iter().find(|r| r.workload == name).expect("row");
            assert!((r.qps / paper - 1.0).abs() < 0.25, "{name}: {:.1} vs {paper}", r.qps);
        }
    }

    #[test]
    fn per_system_advantage_over_inspire_is_three_orders() {
        // Table III: 1229x / 1225x / 1275x per system vs INSPIRE.
        let rows = ive_rows();
        for r in rows.iter().filter(|r| r.vs_inspire.is_some()) {
            let v = r.vs_inspire.expect("checked");
            assert!((600.0..2500.0).contains(&v), "{}: {v:.0}x vs INSPIRE", r.workload);
        }
    }

    #[test]
    fn ive_beats_dpf_pir_on_synthesized() {
        // §VI-B: 5.0x gmean over DPF-PIR.
        let ive = ive_rows();
        let dpf = reported::dpf_pir();
        for (i, &gib) in [2u64, 4, 8].iter().enumerate() {
            let ive_qps = ive.iter().find(|r| r.workload == format!("{gib}GB")).expect("row").qps;
            let dpf_qps = dpf.synth_qps[i].expect("reported");
            assert!(ive_qps > 2.0 * dpf_qps, "{gib}GB: {ive_qps:.0} vs {dpf_qps}");
        }
    }
}
