//! Published throughput rows the paper compares against verbatim
//! (Table III ‡-entries — "We used the reported values in the paper").

use serde::{Deserialize, Serialize};

/// A prior-work throughput row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReportedRow {
    /// System name.
    pub system: &'static str,
    /// Single- vs multi-server setting.
    pub multi_server: bool,
    /// Platform.
    pub platform: &'static str,
    /// QPS for the synthesized 2GB / 4GB / 8GB databases.
    pub synth_qps: [Option<f64>; 3],
    /// QPS for Vcall (384GB), Comm (288GB), Fsys (1.25TB).
    pub workload_qps: [Option<f64>; 3],
}

/// CIP-PIR (GPU-accelerated multi-server PIR) as reported.
pub(crate) fn cip_pir() -> ReportedRow {
    ReportedRow {
        system: "CIP-PIR",
        multi_server: true,
        platform: "GPU",
        synth_qps: [None, Some(33.2), Some(16.0)],
        workload_qps: [None, None, None],
    }
}

/// DPF-PIR (GPU distributed-point-function PIR) as measured by the paper
/// on an RTX 4090.
pub fn dpf_pir() -> ReportedRow {
    ReportedRow {
        system: "DPF-PIR",
        multi_server: true,
        platform: "GPU",
        synth_qps: [Some(956.0), Some(466.0), Some(225.0)],
        workload_qps: [None, None, None],
    }
}

/// INSPIRE (in-storage single-server HE PIR) as reported.
pub(crate) fn inspire() -> ReportedRow {
    ReportedRow {
        system: "INSPIRE",
        multi_server: false,
        platform: "ASIC",
        synth_qps: [None, None, None],
        workload_qps: [Some(0.021), Some(0.028), Some(0.006)],
    }
}

/// All prior-work rows of Table III.
pub fn all() -> Vec<ReportedRow> {
    vec![cip_pir(), dpf_pir(), inspire()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_present() {
        let rows = all();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r.system == "INSPIRE" && !r.multi_server));
        let dpf = dpf_pir();
        assert_eq!(dpf.synth_qps[0], Some(956.0));
    }

    #[test]
    fn inspire_model_matches_reported() {
        let model = crate::inspire::InspireModel::default();
        let rep = inspire();
        let dbs = [384u64 << 30, 288 << 30, 1280 << 30];
        for (i, db) in dbs.iter().enumerate() {
            let reported = rep.workload_qps[i].expect("present");
            let modeled = model.qps(*db);
            assert!(
                (modeled - reported).abs() / reported < 0.25,
                "workload {i}: model {modeled} vs reported {reported}"
            );
        }
    }
}
