//! Fig. 8 — DRAM traffic of `ExpandQuery` and `ColTor` for 32 batched
//! queries on an 8GB database, across scheduling methods and on-chip
//! capacities (64MB vs 128MB total SRAM = 2MB vs 4MB per core).

use ive_baselines::complexity::Geometry;
use ive_hw::traffic::Traffic;
use ive_hw::treewalk::{coltor_traffic, expand_traffic, TreeSchedule, TreeWalkConfig};

use crate::GIB;

/// Experiment constants (the paper's setup).
pub(crate) const BATCH: u64 = 32;

/// One bar of Fig. 8.
#[derive(Debug, Clone)]
pub struct TrafficRow {
    /// Schedule label (as in the figure).
    pub label: String,
    /// Total chip SRAM assumed (MB).
    pub chip_sram_mb: u64,
    /// Per-class traffic for the whole batch.
    pub traffic: Traffic,
    /// Reduction factor versus the 128MB BFS baseline.
    pub reduction_vs_bfs: f64,
}

fn walk_config(
    geom: &Geometry,
    expand: bool,
    per_core_bytes: u64,
    reduction_overlap: bool,
) -> TreeWalkConfig {
    let ell_key = 5u64; // key-material gadget (560KB evk / 1120KB RGSW)
    let decomposed_polys = if expand { 1 } else { 2 };
    let temp_polys = if reduction_overlap { decomposed_polys } else { decomposed_polys * ell_key };
    TreeWalkConfig {
        depth: if expand { geom.d0.ilog2() } else { geom.dims },
        ct_bytes: geom.ct_bytes(),
        key_bytes: if expand { geom.evk_bytes() } else { geom.rgsw_bytes() },
        temp_bytes: temp_polys * geom.ct_bytes() / 2,
        buffer_bytes: per_core_bytes,
    }
}

/// The schedule variants of Fig. 8, in figure order.
fn variants() -> Vec<(&'static str, u64, TreeSchedule, bool)> {
    vec![
        ("BFS (64MB)", 64, TreeSchedule::Bfs, false),
        ("BFS", 128, TreeSchedule::Bfs, false),
        ("DFS", 128, TreeSchedule::Dfs, false),
        ("HS (w/ BFS)", 128, TreeSchedule::Hs { subtree_depth: 0, inner_bfs: true }, false),
        ("HS (w/ DFS)", 128, TreeSchedule::Hs { subtree_depth: 0, inner_bfs: false }, false),
        ("HS+R.O. (w/ DFS)", 128, TreeSchedule::Hs { subtree_depth: 0, inner_bfs: false }, true),
    ]
}

fn run(expand: bool) -> Vec<TrafficRow> {
    let geom = Geometry::paper_for_db_bytes(8 * GIB);
    let cores = 32u64;
    let mut rows = Vec::new();
    let mut bfs128_total = 0u64;
    for (label, chip_mb, schedule, ro) in variants() {
        let per_core = (chip_mb << 20) / cores;
        let cfg = walk_config(&geom, expand, per_core, ro);
        // HS depths auto-size against the per-core capacity (§IV-A).
        let schedule = match schedule {
            TreeSchedule::Hs { inner_bfs, .. } => {
                TreeSchedule::Hs { subtree_depth: cfg.hs_auto_depth(inner_bfs), inner_bfs }
            }
            s => s,
        };
        let walk =
            if expand { expand_traffic(&cfg, schedule) } else { coltor_traffic(&cfg, schedule) };
        let traffic = walk.traffic.scaled(BATCH);
        if label == "BFS" {
            bfs128_total = traffic.total();
        }
        rows.push(TrafficRow {
            label: label.to_string(),
            chip_sram_mb: chip_mb,
            traffic,
            reduction_vs_bfs: 0.0,
        });
    }
    for r in rows.iter_mut() {
        r.reduction_vs_bfs = bfs128_total as f64 / r.traffic.total() as f64;
    }
    rows
}

/// Fig. 8a: `ExpandQuery` traffic.
pub fn expand_rows() -> Vec<TrafficRow> {
    run(true)
}

/// Fig. 8b: `ColTor` traffic.
pub fn coltor_rows() -> Vec<TrafficRow> {
    run(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by<'a>(rows: &'a [TrafficRow], label: &str) -> &'a TrafficRow {
        rows.iter().find(|r| r.label == label).expect("row exists")
    }

    #[test]
    fn coltor_bfs_magnitude_matches_paper_scale() {
        // Fig. 8b plots ~20GB for the BFS ColTor bar (32 queries, 8GB DB).
        let rows = coltor_rows();
        let bfs = by(&rows, "BFS");
        let total_gb = bfs.traffic.total() as f64 / 1e9;
        assert!((10.0..35.0).contains(&total_gb), "BFS ColTor {total_gb:.1}GB");
    }

    #[test]
    fn hs_and_ro_reduce_traffic_in_order() {
        for rows in [expand_rows(), coltor_rows()] {
            let bfs = by(&rows, "BFS").traffic.total();
            let hs_dfs = by(&rows, "HS (w/ DFS)").traffic.total();
            let hs_ro = by(&rows, "HS+R.O. (w/ DFS)").traffic.total();
            assert!(hs_dfs < bfs, "HS must beat BFS");
            assert!(hs_ro <= hs_dfs, "R.O. must not hurt");
            // The paper's overall reductions are 1.87x (ExpandQuery) and
            // 2.24x (ColTor); accept 1.3-3.5x from the mechanistic walker.
            let overall = bfs as f64 / hs_ro as f64;
            assert!((1.3..3.5).contains(&overall), "overall reduction {overall:.2}");
        }
    }

    #[test]
    fn smaller_cache_never_reduces_traffic() {
        for rows in [expand_rows(), coltor_rows()] {
            let small = by(&rows, "BFS (64MB)").traffic.total();
            let large = by(&rows, "BFS").traffic.total();
            assert!(small >= large);
        }
    }

    #[test]
    fn dfs_is_key_heavy_bfs_is_ct_heavy() {
        let rows = coltor_rows();
        let bfs = by(&rows, "BFS");
        let dfs = by(&rows, "DFS");
        assert!(dfs.traffic.key_load > bfs.traffic.key_load);
        assert!(bfs.traffic.ct_store > dfs.traffic.ct_store);
    }
}
