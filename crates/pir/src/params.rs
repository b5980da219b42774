//! PIR parameter sets: the multi-dimensional database geometry of §II-C
//! layered on top of the HE parameters of Table I.

use std::sync::Arc;

use ive_he::HeParams;

use crate::db::PairFold;
use crate::PirError;

/// Parameters of the multi-dimensional OnionPIR-style scheme.
///
/// The database holds `D = D0 · 2^d` records, viewed as a
/// `(d+1)`-dimensional structure `D0 × 2 × 2 × ... × 2`: `RowSel` resolves
/// the initial dimension of size `D0` with expanded BFV ciphertexts, and
/// `ColTor` resolves the `d` binary dimensions with RGSW external products
/// (§II-C, Fig. 2).
#[derive(Debug, Clone)]
pub struct PirParams {
    he: HeParams,
    log_d0: u32,
    dims: u32,
    /// The database's pair transform, on a geometry that folds
    /// ([`PirParams::folds_last_level`]).
    fold: Option<Arc<PairFold>>,
}

impl PirParams {
    /// Builds a parameter set with first-dimension size `d0` (a power of
    /// two, at most `N`) and `dims` subsequent binary dimensions.
    ///
    /// The preprocessed database keeps one residue per
    /// `DbWord`, which every limb fits:
    /// [`RnsBasis::new`](ive_math::rns::RnsBasis::new) refuses limbs
    /// above 29 bits (Table I's are 28).
    ///
    /// # Errors
    /// Fails when `d0` is not a power of two in `[2, N]`.
    pub fn new(he: HeParams, d0: usize, dims: u32) -> Result<Self, PirError> {
        if d0 < 2 || !d0.is_power_of_two() || d0 > he.n() {
            return Err(PirError::InvalidParams(format!(
                "D0 = {d0} must be a power of two in [2, N = {}]",
                he.n()
            )));
        }
        // `rows < D0/2`, without forming `2^dims`.
        let folds = (d0 / 2).checked_shr(dims).is_some_and(|q| q >= 2);
        let fold = folds.then(|| Arc::new(PairFold::new(he.ring(), d0 / 2)));
        Ok(PirParams { he, log_d0: d0.trailing_zeros(), dims, fold })
    }

    /// Small parameters for fast tests: `N = 256`, `D0 = 8`, `d = 3`
    /// (64 records of 512 bytes).
    pub fn toy() -> Self {
        PirParams::new(HeParams::toy(), 8, 3).expect("toy geometry is valid")
    }

    /// The paper's geometry for a given database size in bytes:
    /// `N = 2^12`, `P = 2^32`, `D0 = 256`, with `d` chosen so that
    /// `D0 · 2^d` 16KB records cover the database (Table I, §III-A).
    ///
    /// # Errors
    /// Fails when the size is smaller than `D0` records.
    pub fn paper_for_db_bytes(db_bytes: u64) -> Result<Self, PirError> {
        let he = HeParams::paper();
        let record = (he.n() as u64 * he.p_bits() as u64) / 8;
        let d0 = 256u64;
        let records = db_bytes.div_ceil(record).max(d0);
        let dims = (records.div_ceil(d0) as f64).log2().ceil() as u32;
        PirParams::new(he, d0 as usize, dims)
    }

    /// The HE layer parameters.
    #[inline]
    pub fn he(&self) -> &HeParams {
        &self.he
    }

    /// First-dimension size `D0`.
    #[inline]
    pub fn d0(&self) -> usize {
        1 << self.log_d0
    }

    /// `log2(D0)` — the `ExpandQuery` tree depth.
    #[inline]
    pub fn log_d0(&self) -> u32 {
        self.log_d0
    }

    /// Number of binary dimensions `d` — the `ColTor` tournament depth.
    #[inline]
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Total records `D = D0 · 2^d`.
    #[inline]
    pub fn num_records(&self) -> usize {
        self.d0() << self.dims
    }

    /// Rows of the `RowSel` matrix view, `D / D0 = 2^d`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        1 << self.dims
    }

    /// Whether the server folds `ExpandQuery`'s last level into `RowSel`
    /// (the `expand` module): a query then runs `D0/2 − 1 + rows` `Subs`
    /// instead of the tree's `D0 − 1`, so the geometry folds exactly when
    /// that is fewer, `rows < D0/2`. The database stores its pages, and
    /// the expander grows its tree, in the form this picks.
    #[inline]
    pub(crate) fn folds_last_level(&self) -> bool {
        self.fold.is_some()
    }

    /// The database's pair transform, where the geometry folds.
    #[inline]
    pub(crate) fn pair_fold(&self) -> Option<&Arc<PairFold>> {
        self.fold.as_ref()
    }

    /// Bytes of payload per record (`N · log P / 8`; 16KB for Table I).
    #[inline]
    pub fn record_bytes(&self) -> usize {
        self.he.n() * self.he.p_bits() as usize / 8
    }

    /// Bytes of the *preprocessed* database (records lifted to `R_Q`,
    /// §II-B: `log Q / log P` times larger).
    #[inline]
    pub fn preprocessed_db_bytes(&self) -> u64 {
        self.num_records() as u64 * self.he.ring().poly_bytes() as u64
    }

    /// Splits a record index into `(row, col)` for the matrix view
    /// (`col` resolved by `RowSel`, `row` bits by `ColTor`).
    ///
    /// # Panics
    /// Panics when the index is out of range.
    pub(crate) fn split_index(&self, index: usize) -> (usize, usize) {
        assert!(index < self.num_records(), "record index out of range");
        (index / self.d0(), index % self.d0())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_geometry() {
        let p = PirParams::toy();
        assert_eq!(p.d0(), 8);
        assert_eq!(p.dims(), 3);
        assert_eq!(p.num_records(), 64);
        assert_eq!(p.num_rows(), 8);
        assert_eq!(p.record_bytes(), 256 * 16 / 8);
    }

    #[test]
    fn paper_2gb_matches_motivation() {
        // 2GB DB with 16KB records: D = 2^17 = 256 · 2^9 (Fig. 4 setup).
        let p = PirParams::paper_for_db_bytes(2 << 30).unwrap();
        assert_eq!(p.d0(), 256);
        assert_eq!(p.dims(), 9);
        assert_eq!(p.record_bytes(), 16 * 1024);
        assert_eq!(p.num_records() * p.record_bytes(), 2 << 30);
        // Preprocessing expands by logQ/logP = 3.5x (< the paper's 3.5x cap).
        assert_eq!(p.preprocessed_db_bytes(), 7 << 30);
    }

    #[test]
    fn table1_dims_range() {
        // Table I: D = 2^16..2^24 → d = 8..16 at D0 = 2^8.
        let small = PirParams::paper_for_db_bytes((1u64 << 16) * 16 * 1024).unwrap();
        assert_eq!(small.dims(), 8);
        let big = PirParams::paper_for_db_bytes((1u64 << 24) * 16 * 1024).unwrap();
        assert_eq!(big.dims(), 16);
    }

    #[test]
    fn fold_only_where_it_saves_key_switches() {
        // D0/2 − 1 + rows `Subs` against D0 − 1: fewer iff rows < D0/2.
        let table1 = |d: u64| PirParams::paper_for_db_bytes((256 << d) * 16 * 1024).unwrap();
        for d in 0..=9 {
            let p = table1(d);
            assert_eq!(p.dims() as u64, d);
            let (folded, tree) = (p.d0() / 2 - 1 + p.num_rows(), p.d0() - 1);
            assert_eq!(p.folds_last_level(), folded < tree, "d = {d}");
            assert_eq!(p.folds_last_level(), d <= 6, "d = {d}");
        }
        assert!(!PirParams::toy().folds_last_level());
        assert!(PirParams::new(HeParams::toy(), 16, 2).unwrap().folds_last_level());
    }

    #[test]
    fn split_join_roundtrip() {
        let p = PirParams::toy();
        for i in 0..p.num_records() {
            let (r, c) = p.split_index(i);
            assert!(r < p.num_rows() && c < p.d0());
            assert_eq!(r * p.d0() + c, i);
        }
    }

    #[test]
    fn limb_wider_than_the_stored_word_rejected() {
        use crate::db::DbWord;
        use ive_math::modulus::Modulus;
        use ive_math::prime::find_ntt_prime_below;
        use ive_math::rns::RnsBasis;
        use ive_math::MathError;

        // A Table I prime beside a 40-bit NTT prime, which the 4-byte
        // database word cannot hold: no ring, so no `HeParams` or
        // `PirParams`, can be built over it.
        let wide = find_ntt_prime_below(40, 256).unwrap();
        assert!(u64::from(DbWord::MAX) < wide);
        let moduli = vec![Modulus::special_primes()[0], Modulus::new(wide)];
        match RnsBasis::new(moduli) {
            Err(MathError::InvalidBasis(msg)) => {
                assert!(msg.contains(&wide.to_string()), "names the limb: {msg}");
                assert!(msg.contains("29 bits"), "names the cap: {msg}");
            }
            other => panic!("a 40-bit limb must be refused, got {other:?}"),
        }
    }

    #[test]
    fn invalid_d0_rejected() {
        let he = HeParams::toy();
        assert!(PirParams::new(he.clone(), 3, 2).is_err());
        assert!(PirParams::new(he.clone(), 1, 2).is_err());
        assert!(PirParams::new(he, 512, 2).is_err()); // > N = 256
    }
}
