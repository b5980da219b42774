//! The operation-counting model (Fig. 4, Fig. 6, Fig. 7d).
//!
//! Counts *primitive operations* per PIR step and query — residue-wise
//! NTTs, modular MACs, iCRT'd coefficients, element-wise ops — and derives
//! integer-multiplication totals from them.
//!
//! # Counting conventions (documented for reproducibility)
//!
//! * One residue-polynomial NTT is charged `N·log2(N)` integer
//!   multiplications (butterfly multiply plus on-the-fly twisting /
//!   lazy-reduction overhead). The physical butterfly count `N/2·log2(N)`
//!   is exposed separately for cycle accounting.
//! * One coefficient through iCRT + bit extraction costs 16 integer
//!   multiplications (4 per-residue scalings + 4 three-word wide products,
//!   Eq. 3 with `k = 4`).
//! * `ExpandQuery` includes the BFV→RGSW conversion of the packed query
//!   (\[34\]): `d·2ℓ` extra expansion leaves plus one key-switch per
//!   generated RGSW row.
//!
//! With these conventions the model reproduces the paper's Fig. 4a shares
//! (RowSel 58–66%, ColTor 29–32%, ExpandQuery 14%→2% as the DB grows) and
//! the Fig. 4b optimum at `D0` = 256–512 (asserted by the `fig4` module's
//! tests).

use serde::{Deserialize, Serialize};

/// Integer-mults charged per coefficient through iCRT (Eq. 3, `k = 4`).
pub const ICRT_MULTS_PER_COEFF: f64 = 16.0;

/// Geometry of one PIR configuration, in performance-model terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Geometry {
    /// Ring degree `N`.
    pub n: usize,
    /// RNS residue count `k`.
    pub k: usize,
    /// Gadget digits `ℓ`.
    pub ell: usize,
    /// First dimension size `D0`.
    pub d0: usize,
    /// Binary dimensions `d`.
    pub dims: u32,
    /// Fraction of the `D0·2^d` record slots actually populated (1.0 for
    /// power-of-two databases; the Table III workloads — 384GB, 288GB,
    /// 1.25TB — fill their padded tree partially).
    pub fill: f64,
    /// Whether `ExpandQuery` includes the packed-query BFV→RGSW
    /// conversion (\[34\]).
    pub rgsw_conversion: bool,
}

impl Geometry {
    /// Table I defaults (`N = 2^12`, `k = 4`, `ℓ = 8` i.e. `z = 2^14`)
    /// for a database of `db_bytes` with `D0 = 256`.
    pub fn paper_for_db_bytes(db_bytes: u64) -> Self {
        Geometry::paper_with_d0(db_bytes, 256)
    }

    /// Table I defaults with an explicit `D0` (Fig. 4b sweeps this).
    pub fn paper_with_d0(db_bytes: u64, d0: usize) -> Self {
        assert!(d0.is_power_of_two());
        let record_bytes = 16 * 1024; // N·logP/8
        let records = (db_bytes / record_bytes).max(d0 as u64);
        let dims = ((records as f64) / d0 as f64).log2().ceil().max(0.0) as u32;
        let fill = records as f64 / ((d0 as u64) << dims) as f64;
        Geometry { n: 1 << 12, k: 4, ell: 8, d0, dims, fill, rgsw_conversion: true }
    }

    /// Total records actually stored, `D = fill·D0·2^d`.
    #[inline]
    pub fn num_records(&self) -> u64 {
        (((self.d0 as u64) << self.dims) as f64 * self.fill).round() as u64
    }

    /// Padded `RowSel` rows `2^d` (the ColTor tree width).
    #[inline]
    pub fn rows(&self) -> u64 {
        1u64 << self.dims
    }

    /// Populated `RowSel` rows (`fill·2^d`) — empty rows are neither
    /// scanned nor produced.
    #[inline]
    pub fn rows_filled(&self) -> f64 {
        self.fill * self.rows() as f64
    }

    /// Bytes of one packed `R_Q` polynomial (28-bit residues).
    #[inline]
    pub(crate) fn poly_bytes(&self) -> u64 {
        (self.k * self.n) as u64 * 28 / 8
    }

    /// Preprocessed database bytes (records lifted to `R_Q`, §II-B).
    #[inline]
    pub fn preprocessed_db_bytes(&self) -> u64 {
        self.num_records() * self.poly_bytes()
    }

    /// Bytes of one BFV ciphertext (112KB for Table I).
    #[inline]
    pub fn ct_bytes(&self) -> u64 {
        2 * self.poly_bytes()
    }

    /// Bytes of one `evk_r` with the key-material gadget of §II-D
    /// (`ℓ_key = 5`, 560KB).
    #[inline]
    pub fn evk_bytes(&self) -> u64 {
        2 * 5 * self.poly_bytes()
    }

    /// Bytes of one RGSW ciphertext with the key-material gadget
    /// (`ℓ_key = 5`, 1120KB, §II-C).
    #[inline]
    pub fn rgsw_bytes(&self) -> u64 {
        4 * 5 * self.poly_bytes()
    }

    /// Per-query client-payload bytes over PCIe (packed query up,
    /// response down — §VI-C "each query transfers only a few MBs").
    #[inline]
    pub fn query_comm_bytes(&self) -> u64 {
        2 * self.ct_bytes()
    }
}

/// Primitive-operation counts for one PIR step of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepOps {
    /// Residue-polynomial (i)NTTs.
    pub residue_ntts: f64,
    /// Modular MACs in GEMM-shaped computation (pointwise products,
    /// gadget GEMMs, `RowSel` accumulation).
    pub gemm_macs: f64,
    /// Coefficients through iCRT + bit extraction.
    pub icrt_coeffs: f64,
    /// Element-wise MMADs outside GEMM (adds/subs, monomial products).
    pub elem_macs: f64,
    /// Coefficients through automorphism.
    pub auto_coeffs: f64,
}

impl StepOps {
    fn scaled(&self, f: f64) -> StepOps {
        StepOps {
            residue_ntts: self.residue_ntts * f,
            gemm_macs: self.gemm_macs * f,
            icrt_coeffs: self.icrt_coeffs * f,
            elem_macs: self.elem_macs * f,
            auto_coeffs: self.auto_coeffs * f,
        }
    }

    fn merged(&self, o: &StepOps) -> StepOps {
        StepOps {
            residue_ntts: self.residue_ntts + o.residue_ntts,
            gemm_macs: self.gemm_macs + o.gemm_macs,
            icrt_coeffs: self.icrt_coeffs + o.icrt_coeffs,
            elem_macs: self.elem_macs + o.elem_macs,
            auto_coeffs: self.auto_coeffs + o.auto_coeffs,
        }
    }

    /// Integer multiplications under the documented conventions
    /// (the Fig. 4 / Fig. 6 metric).
    pub fn mults(&self, n: usize) -> f64 {
        let ntt_mults = (n as f64) * (n as f64).log2();
        self.residue_ntts * ntt_mults
            + self.gemm_macs
            + self.icrt_coeffs * ICRT_MULTS_PER_COEFF
            + self.elem_macs
    }

    /// Share of each op type in the step's multiplications
    /// (Fig. 7d): `(ntt, gemm, icrt, elem)`.
    pub fn mult_shares(&self, n: usize) -> (f64, f64, f64, f64) {
        let total = self.mults(n).max(1.0);
        let ntt = self.residue_ntts * (n as f64) * (n as f64).log2() / total;
        let gemm = self.gemm_macs / total;
        let icrt = self.icrt_coeffs * ICRT_MULTS_PER_COEFF / total;
        let elem = self.elem_macs / total;
        (ntt, gemm, icrt, elem)
    }
}

/// Per-step operation counts for one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PirOps {
    /// `ExpandQuery` (including RGSW conversion when enabled).
    pub expand: StepOps,
    /// `RowSel`.
    pub rowsel: StepOps,
    /// `ColTor`.
    pub coltor: StepOps,
}

impl PirOps {
    /// Total multiplications across all steps.
    pub fn total_mults(&self, n: usize) -> f64 {
        self.expand.mults(n) + self.rowsel.mults(n) + self.coltor.mults(n)
    }
}

/// One `Subs` operation (§II-D): iNTT + automorphism + `Dcp` + `ℓ` NTTs +
/// key-switch GEMM, plus the even/odd branch arithmetic of `ExpandQuery`.
pub(crate) fn subs_ops(g: &Geometry) -> StepOps {
    let n = g.n as f64;
    let k = g.k as f64;
    let ell = g.ell as f64;
    StepOps {
        residue_ntts: k + ell * k,    // k iNTTs for Dcp, ℓ·k forward NTTs
        gemm_macs: 2.0 * ell * k * n, // evk_r (2×ℓ) · Dcp(a_τ)
        icrt_coeffs: n,
        elem_macs: 3.0 * k * n,   // even add, odd sub, odd X^{-1} product
        auto_coeffs: 2.0 * k * n, // a and b through τ_r
    }
}

/// One external product `⊡` (Fig. 3) plus the CMux add/sub around it.
pub fn external_product_ops(g: &Geometry) -> StepOps {
    let n = g.n as f64;
    let k = g.k as f64;
    let ell = g.ell as f64;
    StepOps {
        residue_ntts: 2.0 * k + 2.0 * ell * k, // Dcp on (a, b) + 2ℓ·k NTTs
        gemm_macs: 4.0 * ell * k * n,          // (1×2ℓ)·(2ℓ×2) GEMM
        icrt_coeffs: 2.0 * n,
        elem_macs: 4.0 * k * n, // X−Y and +Y on both polynomials
        auto_coeffs: 0.0,
    }
}

/// Per-query operation counts for the full pipeline.
pub fn per_query_ops(g: &Geometry) -> PirOps {
    let n = g.n as f64;
    let k = g.k as f64;

    // ExpandQuery: a binary tree over D0 leaves, extended by d·2ℓ leaves
    // for the RGSW conversion, plus one key-switch per generated RGSW row.
    let conversion_rows = if g.rgsw_conversion { g.dims as f64 * 2.0 * g.ell as f64 } else { 0.0 };
    let leaves = g.d0 as f64 + conversion_rows;
    let tree_subs = (leaves - 1.0).max(0.0);
    let mut expand = subs_ops(g).scaled(tree_subs);
    if g.rgsw_conversion {
        // Scale-free key-switch per RGSW row: Dcp + ℓ NTTs + GEMM.
        let ks = StepOps {
            residue_ntts: k + g.ell as f64 * k,
            gemm_macs: 2.0 * g.ell as f64 * k * n,
            icrt_coeffs: n,
            elem_macs: k * n,
            auto_coeffs: 0.0,
        };
        expand = expand.merged(&ks.scaled(conversion_rows));
    }

    // RowSel: D plaintext–ciphertext MACs over (a, b).
    let rowsel = StepOps { gemm_macs: g.num_records() as f64 * 2.0 * k * n, ..StepOps::default() };

    // ColTor: one external product per surviving tournament node
    // (`fill·2^d − 1`; empty subtrees of a partially filled tree are
    // skipped).
    let coltor = external_product_ops(g).scaled((g.rows_filled() - 1.0).max(0.0));

    PirOps { expand, rowsel, coltor }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn geometry_paper_2gb() {
        let g = Geometry::paper_for_db_bytes(2 * GIB);
        assert_eq!(g.num_records(), 1 << 17);
        assert_eq!(g.dims, 9);
        assert_eq!(g.ct_bytes(), 112 * 1024);
        assert_eq!(g.evk_bytes(), 560 * 1024);
        assert_eq!(g.rgsw_bytes(), 1120 * 1024);
        assert_eq!(g.preprocessed_db_bytes(), 7 * GIB);
    }

    #[test]
    fn fig4a_shares_match_paper_shape() {
        // Fig. 4a: ExpandQuery 14/7/4/2 %, RowSel 58/62/65/66 %,
        // ColTor 29/30/31/32 % for 2/4/8/16GB at D0 = 256.
        let expect = [
            (2u64, 0.14, 0.58, 0.29),
            (4, 0.07, 0.62, 0.30),
            (8, 0.04, 0.65, 0.31),
            (16, 0.02, 0.66, 0.32),
        ];
        for (gib, e_exp, e_row, e_col) in expect {
            let g = Geometry::paper_for_db_bytes(gib * GIB);
            let ops = per_query_ops(&g);
            let total = ops.total_mults(g.n);
            let s_exp = ops.expand.mults(g.n) / total;
            let s_row = ops.rowsel.mults(g.n) / total;
            let s_col = ops.coltor.mults(g.n) / total;
            // Within 5 percentage points of the paper's bars.
            assert!((s_exp - e_exp).abs() < 0.05, "{gib}GB expand {s_exp:.3} vs {e_exp}");
            assert!((s_row - e_row).abs() < 0.05, "{gib}GB rowsel {s_row:.3} vs {e_row}");
            assert!((s_col - e_col).abs() < 0.05, "{gib}GB coltor {s_col:.3} vs {e_col}");
        }
    }

    #[test]
    fn fig4b_d0_optimum_in_256_to_512() {
        // Fig. 4b: the preferable D0 minimizing total complexity is
        // 256–512 for a 2GB DB.
        let totals: Vec<(usize, f64)> = [128usize, 256, 512, 1024]
            .iter()
            .map(|&d0| {
                let g = Geometry::paper_with_d0(2 * GIB, d0);
                (d0, per_query_ops(&g).total_mults(g.n))
            })
            .collect();
        let best = totals
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0;
        assert!(best == 256 || best == 512, "optimum at D0 = {best}, totals {totals:?}");
        // And the sweep decreases from 128 to the optimum.
        assert!(totals[0].1 > totals[1].1);
    }

    #[test]
    fn fig7d_op_type_mix() {
        // Fig. 7d: RowSel is 100% GEMM; ExpandQuery and ColTor are
        // NTT-dominated (~90% and ~83%).
        let g = Geometry::paper_for_db_bytes(8 * GIB);
        let ops = per_query_ops(&g);
        let (_, row_gemm, _, _) = ops.rowsel.mult_shares(g.n);
        assert!((row_gemm - 1.0).abs() < 1e-9);
        let (exp_ntt, ..) = ops.expand.mult_shares(g.n);
        assert!(exp_ntt > 0.75, "expand NTT share {exp_ntt:.2}");
        let (col_ntt, ..) = ops.coltor.mult_shares(g.n);
        assert!(col_ntt > 0.75 && col_ntt < 0.95, "coltor NTT share {col_ntt:.2}");
    }

    #[test]
    fn rowsel_macs_match_closed_form() {
        let g = Geometry::paper_for_db_bytes(2 * GIB);
        let ops = per_query_ops(&g);
        // 8·N·D MACs per query (Fig. 5 with 2 output columns, 4N slices).
        assert_eq!(ops.rowsel.gemm_macs, 8.0 * 4096.0 * (1u64 << 17) as f64);
    }

    #[test]
    fn disabling_conversion_shrinks_expand_only() {
        let mut g = Geometry::paper_for_db_bytes(2 * GIB);
        let with = per_query_ops(&g);
        g.rgsw_conversion = false;
        let without = per_query_ops(&g);
        assert!(without.expand.mults(g.n) < with.expand.mults(g.n));
        assert_eq!(without.rowsel, with.rowsel);
        assert_eq!(without.coltor, with.coltor);
    }
}
