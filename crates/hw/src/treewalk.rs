//! Traversal-order traffic simulation for the PIR binary trees (§IV-A).
//!
//! `ExpandQuery` (one root expanding into `2^depth` leaves) and `ColTor`
//! (`2^depth` leaves reducing to one root) are binary-tree computations
//! whose DRAM traffic depends entirely on the operation *schedule*:
//!
//! * **BFS** reuses the per-level client key maximally but spills every
//!   intermediate level (Fig. 7a);
//! * **DFS** keeps intermediates on-chip but cycles through all per-level
//!   keys, thrashing them when they outsize the scratchpad (Fig. 7b);
//! * **HS** (hierarchical search, Fig. 7c) processes subtrees whose
//!   working set fits on-chip, bounding both effects.
//!
//! The walker executes the exact operation sequence of each schedule
//! against a `ManagedBuffer`, so the per-class traffic of Fig. 8 is
//! *derived*, not curve-fitted. Keys that fit permanently are pinned in
//! frequency order (lowest levels first), modeling the paper's
//! compiler-precomputed "decoupled data orchestration" (§VI-A).

use crate::buffer::ManagedBuffer;
use crate::traffic::{Traffic, TrafficClass};

/// Operation schedule for a tree walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeSchedule {
    /// Level-by-level.
    Bfs,
    /// Depth-first (post-order for reductions, pre-order for expansions).
    Dfs,
    /// Hierarchical search: subtrees of `subtree_depth` levels, each
    /// processed with BFS (`inner_bfs = true`) or DFS inside.
    Hs {
        /// Levels folded per subtree pass.
        subtree_depth: u32,
        /// Inner traversal: BFS (`true`) or DFS (`false`) — §IV-A
        /// compares both.
        inner_bfs: bool,
    },
}

/// Geometry and capacity inputs of a walk.
#[derive(Debug, Clone, Copy)]
pub struct TreeWalkConfig {
    /// Tree depth `d` (the walk touches `2^d` leaves).
    pub depth: u32,
    /// Bytes of one BFV ciphertext.
    pub ct_bytes: u64,
    /// Bytes of the per-level client key (`evk_r` or `ct_RGSW`).
    pub key_bytes: u64,
    /// Scratch bytes live during one operation (the `Dcp` expansion —
    /// `ℓ·ct` without reduction overlapping, ~`1·ct` with it, §IV-A).
    pub temp_bytes: u64,
    /// On-chip bytes available to this walk (per-core share).
    pub buffer_bytes: u64,
}

/// The result of a walk.
#[derive(Debug, Clone, Copy)]
pub struct TreeTraffic {
    /// DRAM traffic by class.
    pub traffic: Traffic,
    /// Number of tree operations executed (`2^d − 1` for a full tree).
    pub ops: u64,
}

impl TreeWalkConfig {
    fn effective_capacity(&self) -> u64 {
        self.buffer_bytes.saturating_sub(self.temp_bytes).max(self.ct_bytes)
    }

    /// The largest HS subtree depth whose working set fits on-chip,
    /// per the §IV-A formulas.
    ///
    /// * inner BFS: `ds·key + 2^{ds−1}·ct + temp ≤ capacity`
    /// * inner DFS: `ds·key + (ds+1)·ct + temp ≤ capacity`
    pub fn hs_auto_depth(&self, inner_bfs: bool) -> u32 {
        let cap = self.buffer_bytes;
        let mut best = 1;
        for ds in 1..=self.depth.max(1) {
            let ct_ws = if inner_bfs {
                (1u64 << (ds - 1)) * self.ct_bytes
            } else {
                (ds as u64 + 1) * self.ct_bytes
            };
            let ws = ds as u64 * self.key_bytes + ct_ws + self.temp_bytes;
            if ws <= cap {
                best = ds;
            } else {
                break;
            }
        }
        best
    }
}

// Node ids: level (from leaves) in the high bits, index in the low bits.
fn node_id(level: u32, index: u64) -> u64 {
    ((level as u64) << 48) | index
}
// Keys live in a separate id namespace.
fn key_id(level: u32) -> u64 {
    (1u64 << 60) | level as u64
}

/// Walker state shared by both tree directions.
struct Walker<'a> {
    cfg: &'a TreeWalkConfig,
    buf: ManagedBuffer,
    ops: u64,
}

impl<'a> Walker<'a> {
    fn new(cfg: &'a TreeWalkConfig) -> Self {
        let mut buf = ManagedBuffer::new(cfg.effective_capacity());
        // When the whole key set fits alongside a minimal ciphertext
        // workspace, pin it (the compiler-precomputed schedule would).
        // Pinning a *subset* would starve the remaining levels of
        // workspace, so otherwise leave key residency to recency: a hot
        // key (BFS reusing one level's key across the level) stays
        // resident, interleaved keys (DFS) thrash — exactly the §IV-A
        // trade-off.
        let ct_workspace = 4 * cfg.ct_bytes;
        let all_keys = cfg.depth as u64 * cfg.key_bytes;
        if all_keys + ct_workspace <= cfg.effective_capacity() {
            for level in 0..cfg.depth {
                buf.read(key_id(level), cfg.key_bytes, TrafficClass::KeyLoad);
                buf.pin(key_id(level));
            }
        }
        Walker { cfg, buf, ops: 0 }
    }

    fn use_key(&mut self, level: u32) {
        self.buf.read(key_id(level), self.cfg.key_bytes, TrafficClass::KeyLoad);
    }

    fn finish(self) -> TreeTraffic {
        TreeTraffic { traffic: self.buf.traffic(), ops: self.ops }
    }

    // --- reduction (ColTor): children at `level`, parent at `level+1` ---

    /// One CMux node: consume two children, produce the parent.
    fn reduce_op(&mut self, level: u32, parent_index: u64) {
        let c0 = node_id(level, 2 * parent_index);
        let c1 = node_id(level, 2 * parent_index + 1);
        self.buf.read(c0, self.cfg.ct_bytes, TrafficClass::CtLoad);
        self.buf.read(c1, self.cfg.ct_bytes, TrafficClass::CtLoad);
        self.use_key(level);
        self.buf.discard(c0);
        self.buf.discard(c1);
        self.buf.produce(node_id(level + 1, parent_index), self.cfg.ct_bytes);
        self.ops += 1;
    }

    fn reduce_bfs(&mut self, from_level: u32, levels: u32, base_index: u64) {
        for t in 0..levels {
            let level = from_level + t;
            let nodes = 1u64 << (levels - t - 1);
            for j in 0..nodes {
                self.reduce_op(level, base_index * nodes + j);
            }
        }
    }

    fn reduce_dfs(&mut self, from_level: u32, levels: u32, parent_index: u64) {
        if levels == 0 {
            return;
        }
        self.reduce_dfs(from_level, levels - 1, 2 * parent_index);
        self.reduce_dfs(from_level, levels - 1, 2 * parent_index + 1);
        self.reduce_op(from_level + levels - 1, parent_index);
    }

    // --- expansion (ExpandQuery): parent at `level+1`, children at `level`,
    //     with levels counted from the leaves so the mirror symmetry with
    //     the reduction is exact ---

    /// One Subs node: consume the parent, produce two children.
    fn expand_op(&mut self, level: u32, parent_index: u64) {
        let p = node_id(level + 1, parent_index);
        self.buf.read(p, self.cfg.ct_bytes, TrafficClass::CtLoad);
        self.use_key(level);
        self.buf.discard(p);
        self.buf.produce(node_id(level, 2 * parent_index), self.cfg.ct_bytes);
        self.buf.produce(node_id(level, 2 * parent_index + 1), self.cfg.ct_bytes);
        self.ops += 1;
    }

    fn expand_leaf_writeback(&mut self, index: u64) {
        let id = node_id(0, index);
        self.buf.writeback(id);
        self.buf.discard(id);
    }

    fn expand_bfs(&mut self, from_level: u32, levels: u32, base_index: u64) {
        for t in (0..levels).rev() {
            let level = from_level + t;
            let nodes = 1u64 << (levels - t - 1);
            for j in 0..nodes {
                self.expand_op(level, base_index * nodes + j);
            }
        }
    }

    fn expand_dfs(&mut self, from_level: u32, levels: u32, parent_index: u64) {
        if levels == 0 {
            return;
        }
        self.expand_op(from_level + levels - 1, parent_index);
        self.expand_dfs(from_level, levels - 1, 2 * parent_index);
        self.expand_dfs(from_level, levels - 1, 2 * parent_index + 1);
    }
}

/// Simulates one query's `ColTor` tournament (leaves start in DRAM, the
/// root is written back).
pub fn coltor_traffic(cfg: &TreeWalkConfig, schedule: TreeSchedule) -> TreeTraffic {
    let mut w = Walker::new(cfg);
    match schedule {
        TreeSchedule::Bfs => w.reduce_bfs(0, cfg.depth, 0),
        TreeSchedule::Dfs => w.reduce_dfs(0, cfg.depth, 0),
        TreeSchedule::Hs { subtree_depth, inner_bfs } => {
            let ds = subtree_depth.clamp(1, cfg.depth.max(1));
            let mut level = 0u32;
            while level < cfg.depth {
                let fold = ds.min(cfg.depth - level);
                let groups = 1u64 << (cfg.depth - level - fold);
                for g in 0..groups {
                    if inner_bfs {
                        w.reduce_bfs(level, fold, g);
                    } else {
                        w.reduce_dfs(level, fold, g);
                    }
                }
                level += fold;
            }
        }
    }
    let root = node_id(cfg.depth, 0);
    w.buf.writeback(root);
    w.buf.discard(root);
    w.finish()
}

/// Simulates one query's `ExpandQuery` (the root arrives from DRAM, all
/// `2^depth` leaves are written back for the step transition into
/// `RowSel` — the paper's no-pipelining design, §IV-C).
pub fn expand_traffic(cfg: &TreeWalkConfig, schedule: TreeSchedule) -> TreeTraffic {
    let mut w = Walker::new(cfg);
    match schedule {
        TreeSchedule::Bfs => {
            w.expand_bfs(0, cfg.depth, 0);
            for i in 0..1u64 << cfg.depth {
                w.expand_leaf_writeback(i);
            }
        }
        TreeSchedule::Dfs => {
            expand_dfs_with_writeback(&mut w, cfg.depth, 0);
        }
        TreeSchedule::Hs { subtree_depth, inner_bfs } => {
            // Mirror image of the reduction HS: subtrees from the top.
            let ds = subtree_depth.clamp(1, cfg.depth.max(1));
            let mut upper = cfg.depth;
            while upper > 0 {
                let fold = ds.min(upper);
                let level = upper - fold;
                let groups = 1u64 << (cfg.depth - upper);
                for g in 0..groups {
                    if inner_bfs {
                        w.expand_bfs(level, fold, g);
                    } else {
                        w.expand_dfs(level, fold, g);
                    }
                    // Subtree outputs spill unless this is the last stage;
                    // leaves always spill (step transition).
                    if level == 0 {
                        let leaves = 1u64 << fold;
                        for i in 0..leaves {
                            w.expand_leaf_writeback(g * leaves + i);
                        }
                    }
                }
                upper = level;
            }
        }
    }
    w.finish()
}

fn expand_dfs_with_writeback(w: &mut Walker<'_>, levels: u32, parent_index: u64) {
    if levels == 0 {
        w.expand_leaf_writeback(parent_index);
        return;
    }
    w.expand_op(levels - 1, parent_index);
    expand_dfs_with_writeback(w, levels - 1, 2 * parent_index);
    expand_dfs_with_writeback(w, levels - 1, 2 * parent_index + 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §II-C/§II-D shapes (ℓ = 5): ct 112KB, RGSW 1120KB.
    fn coltor_cfg(depth: u32, buffer_mb: u64) -> TreeWalkConfig {
        TreeWalkConfig {
            depth,
            ct_bytes: 112 * 1024,
            key_bytes: 1120 * 1024,
            temp_bytes: 5 * 112 * 1024,
            buffer_bytes: buffer_mb << 20,
        }
    }

    #[test]
    fn op_counts_are_schedule_independent() {
        let cfg = coltor_cfg(8, 4);
        let expected = (1u64 << 8) - 1;
        for s in [
            TreeSchedule::Bfs,
            TreeSchedule::Dfs,
            TreeSchedule::Hs { subtree_depth: 2, inner_bfs: false },
            TreeSchedule::Hs { subtree_depth: 3, inner_bfs: true },
        ] {
            assert_eq!(coltor_traffic(&cfg, s).ops, expected, "{s:?}");
            assert_eq!(expand_traffic(&cfg, s).ops, expected, "{s:?}");
        }
    }

    #[test]
    fn every_leaf_is_loaded_at_least_once() {
        let cfg = coltor_cfg(9, 4);
        let floor = (1u64 << 9) * cfg.ct_bytes;
        for s in [TreeSchedule::Bfs, TreeSchedule::Dfs] {
            let t = coltor_traffic(&cfg, s).traffic;
            assert!(t.ct_load >= floor, "{s:?}: {} < {floor}", t.ct_load);
        }
    }

    #[test]
    fn hs_reduces_coltor_traffic_over_bfs() {
        // The §IV-A claim: HS cuts ct traffic roughly
        // (3·2^ds − 3)/(2^ds + 1)× against BFS.
        let cfg = coltor_cfg(11, 4);
        let bfs = coltor_traffic(&cfg, TreeSchedule::Bfs).traffic;
        let ds = cfg.hs_auto_depth(false);
        let hs =
            coltor_traffic(&cfg, TreeSchedule::Hs { subtree_depth: ds, inner_bfs: false }).traffic;
        assert!(
            hs.total() * 14 < bfs.total() * 10,
            "HS {} vs BFS {} (expected >1.4x reduction)",
            hs.total(),
            bfs.total()
        );
        // BFS spills intermediates; HS must spill far less.
        assert!(hs.ct_store * 4 < bfs.ct_store.max(1) * 3);
    }

    #[test]
    fn dfs_thrashes_keys_bfs_does_not() {
        let cfg = coltor_cfg(11, 4);
        let bfs = coltor_traffic(&cfg, TreeSchedule::Bfs).traffic;
        let dfs = coltor_traffic(&cfg, TreeSchedule::Dfs).traffic;
        // BFS loads each level key about once; DFS cycles them (§IV-A:
        // "a separate ct_RGSW is required for each depth, its reuse
        // becomes severely limited").
        assert!(dfs.key_load > 2 * bfs.key_load, "dfs {} bfs {}", dfs.key_load, bfs.key_load);
        // DFS keeps intermediates on-chip.
        assert!(dfs.ct_store < bfs.ct_store / 2);
    }

    #[test]
    fn bigger_buffer_never_hurts() {
        let small = coltor_cfg(10, 2);
        let large = coltor_cfg(10, 16);
        for s in [TreeSchedule::Bfs, TreeSchedule::Dfs] {
            let ts = coltor_traffic(&small, s).traffic.total();
            let tl = coltor_traffic(&large, s).traffic.total();
            assert!(tl <= ts, "{s:?}: {tl} > {ts}");
        }
    }

    #[test]
    fn hs_auto_depth_matches_working_set_formulas() {
        let cfg = coltor_cfg(11, 4);
        let dfs_depth = cfg.hs_auto_depth(false);
        // ds·key + (ds+1)·ct + temp <= 4MB with key 1.09MB, ct 112KB, temp
        // 560KB: ds=2 gives 3.07MB (fits), ds=3 gives 4.27MB (does not).
        assert_eq!(dfs_depth, 2);
        // With reduction overlapping the temp shrinks and the subtree
        // deepens — the §IV-A mechanism behind the extra 1.23x.
        let ro = TreeWalkConfig { temp_bytes: 112 * 1024, ..cfg };
        assert_eq!(ro.hs_auto_depth(false), 3);
        // DFS-inner admits deeper subtrees than BFS-inner at equal capacity
        // for big trees (working set linear vs exponential in depth).
        let wide = TreeWalkConfig { key_bytes: 128 * 1024, ..cfg };
        assert!(wide.hs_auto_depth(false) >= wide.hs_auto_depth(true));
    }

    #[test]
    fn expansion_writes_all_leaves() {
        let cfg = coltor_cfg(6, 4);
        for s in [
            TreeSchedule::Bfs,
            TreeSchedule::Dfs,
            TreeSchedule::Hs { subtree_depth: 2, inner_bfs: false },
        ] {
            let t = expand_traffic(&cfg, s).traffic;
            assert!(
                t.ct_store >= (1 << 6) * cfg.ct_bytes,
                "{s:?} stored only {} bytes",
                t.ct_store
            );
        }
    }

    #[test]
    fn degenerate_depth_zero() {
        let cfg = coltor_cfg(0, 4);
        let t = coltor_traffic(&cfg, TreeSchedule::Bfs);
        assert_eq!(t.ops, 0);
    }
}
