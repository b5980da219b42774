//! Database packing and preprocessing (§II-B).
//!
//! Every record is reinterpreted as `N` chunks of `log P` bits and packed
//! into one plaintext polynomial of `R_P` (Fig. 1-③). Preprocessing then
//! lifts each polynomial into `R_Q` with CRT and NTT applied *offline*, so
//! that `RowSel` becomes pure pointwise multiply-accumulate — the paper
//! measures this preprocessing to speed PIR by more than 3.9× on CPU.
//!
//! The preprocessed records live in **copy-on-write row pages**: one
//! contiguous limb-major block of `D0 × k × n` words per matrix row,
//! shared behind an `Arc`. Within a page, record `(r, i)` occupies `k·n`
//! consecutive words with its limb rows adjacent, so the `RowSel` scan
//! still walks each row as a single forward stream — the
//! memory-bandwidth-bound access pattern IVE's PEs are built around
//! (§IV-B). Across epochs the pages are what makes mutation cheap:
//! cloning a database (the engine's epoch snapshot) clones `Arc`s, not
//! words, and [`Database::apply_updates`] copies **only the pages it
//! touches** (`Arc::make_mut`), so commit cost is O(deltas), not O(DB).
//!
//! A stored word is a [`DbWord`] — one residue in 4 bytes. The database
//! is the one thing the server must hold in DRAM and stream per pass, so
//! its bytes per residue set both capacity and scan time: Table I's
//! 28-bit residues make the resident database 4× the raw records (the
//! paper's hardware packs them to 3.5×; a `u64` per residue would be 8×).
//! There is one layout and no way to select another: every limb fits
//! (`RnsBasis::new` refuses one above 29 bits), each
//! record is lifted ([`ive_he::lift`]: bytes → CRT → NTT) in 4-byte words
//! inside its slot of the page, and `RowSel` reads
//! the pages — and the expanded query beside them — through a kernel that
//! zero-extends on load
//! ([`VpeBackend::mac2_lazy`](ive_math::kernel::VpeBackend::mac2_lazy)).
//!
//! ```text
//! pages[r]: | rec(r,0): limb0[n] limb1[n] … | rec(r,1): … | … | rec(r,D0-1) |
//!             └── k·n DbWords (4 B each), NTT form ──┘
//! ```

use std::sync::{Arc, Mutex};

use rand::Rng;

use ive_he::{lift, HeParams, Plaintext};
use ive_math::kernel;
use ive_math::rns::{Form, RingContext, RnsPoly};

use crate::params::PirParams;
use crate::update::PreparedUpdate;
use crate::PirError;

/// The stored word: one residue of one preprocessed record polynomial.
/// Every limb of a ring is below `2^29` (checked by
/// [`RnsBasis::new`](ive_math::rns::RnsBasis::new)), so narrowing a
/// canonical NTT word is lossless.
/// `size_of::<DbWord>()` is the only place the width is written; every
/// byte figure derives from it ([`Database::resident_bytes`]).
pub type DbWord = u32;

/// Record words (`records · k · n`) below which
/// [`Database::from_records`] builds inline: 4 MiB of them lift in a few
/// milliseconds, which starting a thread does not repay.
const PARALLEL_BUILD_MIN_WORDS: usize = 1 << 20;

/// Cumulative copy-on-write accounting for one database lineage.
///
/// Counters are carried along by [`Clone`], so an engine that snapshots a
/// database per epoch can diff them across commits to prove how much was
/// *actually* copied (the acceptance metric for O(deltas) commits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Row pages that were physically duplicated because they were shared
    /// with another snapshot (or the shared all-zero tail page) at write
    /// time.
    pub pages_copied: u64,
    /// Total words those duplications copied.
    pub words_copied: u64,
}

/// A preprocessed PIR database: one NTT-form `R_Q` polynomial per record,
/// stored row-major over the `(D/D0) × D0` matrix view of Fig. 5 as
/// copy-on-write row pages (`Arc<Vec<DbWord>>`, one per row).
///
/// The pages are *mutable under version control*: committed
/// [`PreparedUpdate`] batches splice new record words into the touched
/// pages only (untouched pages stay shared with older snapshots) and bump
/// the [`Database::epoch`], so a long-running server ingests content
/// changes without a rebuild and without re-copying the cold bulk of the
/// database (see [`crate::update`]).
#[derive(Debug, Clone)]
pub struct Database {
    ctx: Arc<RingContext>,
    /// One limb-major page of `d0 · k · n` words per matrix row.
    pages: Vec<Arc<Vec<DbWord>>>,
    d0: usize,
    /// Words per record (`k · n`).
    rec_words: usize,
    /// Number of committed update batches absorbed since load.
    epoch: u64,
    /// Pages physically copied by [`Database::apply_updates`] (cumulative).
    cow_pages: u64,
    /// Words physically copied by [`Database::apply_updates`] (cumulative).
    cow_words: u64,
}

impl Database {
    /// Packs and preprocesses byte records: each record is lifted
    /// ([`ive_he::lift`]) straight into its slot of its row page, so a
    /// load allocates the pages and nothing per record.
    ///
    /// Records shorter than [`PirParams::record_bytes`] are zero-padded;
    /// missing trailing records are all-zero (trailing all-zero rows
    /// share one physical page). Supplying more records than `D`, or a
    /// record that exceeds the capacity, is an error.
    ///
    /// Row pages are independent, so a load of `PARALLEL_BUILD_MIN_WORDS`
    /// (4 MiB of record words) or more builds them on
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// scoped threads, the caller among them and never more than there
    /// are populated rows, each claiming the next unbuilt row until none
    /// is left. The words are the same on any number of threads.
    ///
    /// # Errors
    /// Returns [`PirError::TooManyRecords`], or
    /// [`PirError::RecordTooLarge`] naming the first oversized record;
    /// both before any record is lifted.
    pub fn from_records(params: &PirParams, records: &[Vec<u8>]) -> Result<Self, PirError> {
        let ring = params.he().ring();
        let width = if records.len() * ring.basis().len() * ring.n() < PARALLEL_BUILD_MIN_WORDS {
            1
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        };
        Self::from_records_on(params, records, width)
    }

    /// [`Database::from_records`] on up to `width` threads.
    fn from_records_on(
        params: &PirParams,
        records: &[Vec<u8>],
        width: usize,
    ) -> Result<Self, PirError> {
        if records.len() > params.num_records() {
            return Err(PirError::TooManyRecords {
                got: records.len(),
                capacity: params.num_records(),
            });
        }
        let he = params.he();
        lift::coeff_bytes(he)?;
        let capacity = params.record_bytes();
        if let Some(index) = records.iter().position(|rec| rec.len() > capacity) {
            return Err(PirError::RecordTooLarge { index, len: records[index].len(), capacity });
        }
        let (d0, rec_words) = (params.d0(), he.ring().basis().len() * he.n());
        let page_words = d0 * rec_words;
        let backend = kernel::default_backend();
        // Every page is sized here, once, by the caller: its first touch
        // (the page faults) is the worker's, but the allocation stays in
        // the caller's malloc arena, where a rebuilt database finds the
        // memory its predecessor freed. Slots past a partial trailing row
        // stay zero; NTT(0) = 0.
        let rows = records.len().div_ceil(d0);
        let mut built: Vec<Vec<DbWord>> = (0..rows).map(|_| vec![0; page_words]).collect();
        // A worker claims one row at a time: one that loses its core for
        // a while holds the build up by a row, not by its share.
        let unbuilt = Mutex::new(records.chunks(d0).zip(built.iter_mut()));
        let claim_row = || unbuilt.lock().expect("a row builder panicked").next();
        let build_rows = || {
            while let Some((row, page)) = claim_row() {
                for (rec, slot) in row.iter().zip(page.chunks_exact_mut(rec_words)) {
                    lift::lift_record(he, rec, slot, backend);
                }
            }
        };
        // A scoped-spawn site beside the server's row partition (its two
        // RowSel splits and the ColTor blocks): it moves onto the shared
        // worker pool of ROADMAP item 3(a) with them. The caller is one
        // of the workers, so width 1 spawns nothing.
        std::thread::scope(|s| {
            for _ in 1..width.min(rows) {
                s.spawn(build_rows);
            }
            build_rows();
        });
        let mut pages = Vec::with_capacity(params.num_rows());
        pages.extend(built.into_iter().map(Arc::new));
        if pages.len() < params.num_rows() {
            // Missing trailing rows are all-zero: one shared physical
            // page stands in for all of them until a write lands.
            let zero = Arc::new(vec![0; page_words]);
            pages.resize_with(params.num_rows(), || Arc::clone(&zero));
        }
        Ok(Database::from_pages(params, pages))
    }

    /// A uniformly random database (benchmarks and property tests):
    /// every coefficient drawn below `P`, then the same lift.
    pub fn random<R: Rng + ?Sized>(params: &PirParams, rng: &mut R) -> Self {
        let he = params.he();
        let rec_words = he.ring().basis().len() * he.n();
        let backend = kernel::default_backend();
        let pages = (0..params.num_rows())
            .map(|_| {
                let mut page = vec![0; params.d0() * rec_words];
                for slot in page.chunks_exact_mut(rec_words) {
                    for coeff in &mut slot[..he.n()] {
                        // `P ≤ 2^32`: a coefficient fits the stored word.
                        *coeff = rng.gen_range(0..he.p()) as DbWord;
                    }
                    lift::lift_coeffs(he, slot, backend);
                }
                Arc::new(page)
            })
            .collect();
        Database::from_pages(params, pages)
    }

    /// A fresh database (epoch 0, nothing copied) over `num_rows` pages.
    fn from_pages(params: &PirParams, pages: Vec<Arc<Vec<DbWord>>>) -> Self {
        let ctx = Arc::clone(params.he().ring());
        let rec_words = ctx.basis().len() * ctx.n();
        Database { ctx, pages, d0: params.d0(), rec_words, epoch: 0, cow_pages: 0, cow_words: 0 }
    }

    /// Number of record polynomials.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len() * self.d0
    }

    /// Whether the database holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The flat limb words (`k · n`, residue-major, NTT form) of record
    /// `(row, col)` — what the `RowSel` kernel scan consumes.
    #[inline]
    pub fn poly_words(&self, row: usize, col: usize) -> &[DbWord] {
        let start = col * self.rec_words;
        &self.pages[row][start..start + self.rec_words]
    }

    /// The flat limb words of flat record `index`.
    #[inline]
    pub fn poly_words_flat(&self, index: usize) -> &[DbWord] {
        self.poly_words(index / self.d0, index % self.d0)
    }

    /// The whole database concatenated into one buffer
    /// (`rows × D0 × k × n` words) — a copy; rebuild-equivalence tests
    /// only, hot paths scan per-row via [`Database::poly_words`].
    pub fn to_words(&self) -> Vec<DbWord> {
        let mut out = Vec::with_capacity(self.pages.len() * self.page_words());
        for page in &self.pages {
            out.extend_from_slice(page);
        }
        out
    }

    /// Words per record polynomial (`k · n`).
    #[inline]
    pub fn record_words(&self) -> usize {
        self.rec_words
    }

    /// Words per copy-on-write row page (`D0 · k · n`).
    #[inline]
    pub fn page_words(&self) -> usize {
        self.d0 * self.rec_words
    }

    /// Bytes of row pages one `RowSel` pass reads —
    /// `rows × D0 × k × n × size_of::<DbWord>()`, 4× the raw records at
    /// Table I. A logical figure: all-zero tail rows alias one physical
    /// page, and snapshots share pages.
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        (self.pages.len() * self.page_words() * std::mem::size_of::<DbWord>()) as u64
    }

    /// Cumulative copy-on-write accounting (see [`CowStats`]).
    #[inline]
    pub fn cow_stats(&self) -> CowStats {
        CowStats { pages_copied: self.cow_pages, words_copied: self.cow_words }
    }

    /// Number of row pages whose storage is currently shared with another
    /// snapshot (or the all-zero tail page) — i.e. pages a write would
    /// have to duplicate.
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// The ring the records are preprocessed into.
    #[inline]
    pub fn ring(&self) -> &Arc<RingContext> {
        &self.ctx
    }

    /// Materializes the preprocessed polynomial of record `(row, col)` —
    /// a copy; cold paths and tests only, the scan uses
    /// [`Database::poly_words`].
    pub fn poly(&self, row: usize, col: usize) -> RnsPoly {
        let words = self.poly_words(row, col).iter().map(|&w| u64::from(w)).collect();
        RnsPoly::from_words(&self.ctx, Form::Ntt, words).expect("record slice has ring shape")
    }

    /// Materializes the preprocessed polynomial of flat record `index`.
    pub fn poly_flat(&self, index: usize) -> RnsPoly {
        self.poly(index / self.d0, index % self.d0)
    }

    /// First-dimension width `D0`.
    #[inline]
    pub fn d0(&self) -> usize {
        self.d0
    }

    /// Number of rows (`D / D0`) in the matrix view.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.pages.len()
    }

    /// Number of committed update batches this database has absorbed
    /// (0 for a fresh load; a clone carries its original's epoch).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies one committed batch of prepared deltas and bumps the
    /// epoch, returning the new epoch. Deltas apply in order, so a later
    /// delta to the same record wins. Every delta is validated *before*
    /// anything is written: a bad batch leaves the database untouched (no
    /// partial epoch). An empty batch is a no-op and does not bump the
    /// epoch.
    ///
    /// Only the row pages the batch touches are written; a touched page
    /// whose storage is shared with an older snapshot is duplicated first
    /// (`Arc::make_mut`) and counted in [`Database::cow_stats`]. Commit
    /// cost is therefore O(deltas), independent of the database size.
    ///
    /// The written words are exactly what [`Database::from_records`]
    /// would have produced for the same contents, so the mutated
    /// database — and every answer computed from it — is bit-identical
    /// to a cold rebuild.
    ///
    /// # Errors
    /// Returns [`PirError::IndexOutOfRange`] for a delta beyond the
    /// record count and [`PirError::InvalidParams`] when the prepared
    /// words do not match this ring's `k·n` shape.
    pub fn apply_updates(&mut self, updates: &[PreparedUpdate]) -> Result<u64, PirError> {
        if updates.is_empty() {
            return Ok(self.epoch);
        }
        for u in updates {
            if u.index() >= self.len() {
                return Err(PirError::IndexOutOfRange { index: u.index(), records: self.len() });
            }
            if u.words().len() != self.rec_words {
                return Err(PirError::InvalidParams(format!(
                    "prepared update carries {} words, record slots hold {}",
                    u.words().len(),
                    self.rec_words
                )));
            }
        }
        for u in updates {
            let page = &mut self.pages[u.index() / self.d0];
            if Arc::strong_count(page) > 1 {
                self.cow_pages += 1;
                self.cow_words += page.len() as u64;
            }
            let start = (u.index() % self.d0) * self.rec_words;
            Arc::make_mut(page)[start..start + self.rec_words].copy_from_slice(u.words());
        }
        self.epoch += 1;
        Ok(self.epoch)
    }
}

/// Packs bytes into plaintext coefficients, `log P / 8` bytes per
/// coefficient, little-endian.
///
/// # Errors
/// Returns [`PirError::RecordTooLarge`] for more than `N · log P / 8`
/// bytes, and an error for a `P` that is not byte-aligned.
pub fn plaintext_from_bytes(he: &HeParams, bytes: &[u8]) -> Result<Plaintext, PirError> {
    let capacity = he.n() * lift::coeff_bytes(he)?;
    if bytes.len() > capacity {
        return Err(PirError::RecordTooLarge { index: 0, len: bytes.len(), capacity });
    }
    let mut vals = vec![0u64; he.n()];
    lift::coeffs_from_bytes(he, bytes, &mut vals);
    Ok(Plaintext::new(he, vals).expect("chunks below P by construction"))
}

/// Inverse of [`plaintext_from_bytes`]: recovers the byte payload of a
/// decoded plaintext.
pub fn plaintext_to_bytes(he: &HeParams, pt: &Plaintext) -> Vec<u8> {
    lift::coeffs_to_bytes(he, pt.values())
}

/// The test oracle for a record's stored words — the formulation the lift
/// replaced, step by step: bytes → `Plaintext` → `u128` coefficients →
/// `RnsPoly` → `u64` NTT → narrowed copy.
#[cfg(test)]
pub(crate) fn pack_record(he: &HeParams, record: &[u8]) -> Vec<DbWord> {
    let chunk = he.p_bits() as usize / 8;
    let mut vals = vec![0u64; he.n()];
    for (i, b) in record.iter().enumerate() {
        vals[i / chunk] |= u64::from(*b) << (8 * (i % chunk));
    }
    let wide: Vec<u128> =
        Plaintext::new(he, vals).unwrap().values().iter().map(|&v| u128::from(v)).collect();
    let mut poly = RnsPoly::from_coeffs_u128(he.ring(), &wide);
    poly.to_ntt();
    poly.as_words().iter().map(|&w| DbWord::try_from(w).unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pack_unpack_roundtrip() {
        let params = PirParams::toy();
        let he = params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for len in [0usize, 1, 17, params.record_bytes()] {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let pt = plaintext_from_bytes(he, &bytes).unwrap();
            let back = plaintext_to_bytes(he, &pt);
            assert_eq!(&back[..len], &bytes[..]);
            assert!(back[len..].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn byte_packing_at_every_plaintext_width_and_ragged_length() {
        use ive_math::gadget::Gadget;
        for p_bits in [8u32, 16, 32] {
            let ring = RingContext::test_ring(256, 3);
            let gadget = Gadget::for_modulus(ring.basis().q_big(), 14);
            let he = HeParams::new(ring, p_bits, gadget, gadget, 4).unwrap();
            let chunk = p_bits as usize / 8;
            let capacity = he.n() * chunk;
            let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(p_bits));
            for len in [0, 1, chunk - 1, chunk, capacity - 1, capacity] {
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                let pt = plaintext_from_bytes(&he, &bytes).unwrap();
                // The per-byte formulation this walk replaced.
                let mut vals = vec![0u64; he.n()];
                for (i, b) in bytes.iter().enumerate() {
                    vals[i / chunk] |= u64::from(*b) << (8 * (i % chunk));
                }
                assert_eq!(pt.values(), vals, "P = 2^{p_bits}, {len} bytes");
                let back = plaintext_to_bytes(&he, &pt);
                assert_eq!(back.len(), capacity);
                assert_eq!(&back[..len], &bytes[..]);
                assert!(back[len..].iter().all(|&b| b == 0));
            }
            assert!(matches!(
                plaintext_from_bytes(&he, &vec![0u8; capacity + 1]),
                Err(PirError::RecordTooLarge { index: 0, len, capacity: c })
                    if len == capacity + 1 && c == capacity
            ));
        }
    }

    /// Ragged records over every populated slot of `rows` rows but the
    /// last three of the final one.
    fn ragged_records(params: &PirParams, rows: usize) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        (0..rows * params.d0() - 3)
            .map(|i| {
                let len = params.record_bytes() - (i % 5) * (i % 3);
                (0..len).map(|_| rng.gen()).collect()
            })
            .collect()
    }

    #[test]
    fn build_is_the_same_on_any_number_of_threads() {
        let params = PirParams::toy();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        // A partial trailing row, then an all-missing tail.
        let records = ragged_records(&params, 5);
        let inline = Database::from_records_on(&params, &records, 1).unwrap();
        assert_eq!(
            inline.to_words(),
            Database::from_records(&params, &records).unwrap().to_words()
        );
        for (i, rec) in records.iter().enumerate() {
            let expect = pack_record(params.he(), rec);
            assert_eq!(inline.poly_words_flat(i), expect, "record {i}");
        }
        assert!(inline.to_words()[records.len() * inline.record_words()..].iter().all(|&w| w == 0));
        for width in [0, 2, 3, cores, 64] {
            let db = Database::from_records_on(&params, &records, width).unwrap();
            assert_eq!(db.to_words(), inline.to_words(), "{width} threads");
            assert_eq!((db.epoch(), db.cow_stats()), (0, CowStats::default()));
            assert_eq!(db.num_rows(), params.num_rows());
            // Rows 5.. were never supplied: one zero page stands in.
            for r in 6..db.num_rows() {
                assert!(Arc::ptr_eq(&db.pages[5], &db.pages[r]), "{width} threads, row {r}");
            }
            assert_eq!(db.shared_pages(), db.num_rows() - 5);
        }
    }

    #[test]
    fn errors_name_the_first_offender_on_any_number_of_threads() {
        let params = PirParams::toy();
        let mut records = ragged_records(&params, 4);
        let too_big = vec![0u8; params.record_bytes() + 1];
        records[19] = too_big.clone();
        records[7] = too_big;
        for width in [1, 2, 3] {
            match Database::from_records_on(&params, &records, width) {
                Err(PirError::RecordTooLarge { index: 7, len, capacity }) => {
                    assert_eq!((len, capacity), (params.record_bytes() + 1, params.record_bytes()))
                }
                other => panic!("{width} threads: expected record 7, got {other:?}"),
            }
            // Too many records outranks an oversized one.
            let many = vec![records[7].clone(); params.num_records() + 1];
            assert!(matches!(
                Database::from_records_on(&params, &many, width),
                Err(PirError::TooManyRecords { .. })
            ));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "Table I ring on the wide oracle; run with --release")]
    fn paper_ring_build_matches_the_wide_formulation() {
        let params = PirParams::new(HeParams::paper(), 4, 2).unwrap();
        let records = ragged_records(&params, 3);
        for width in [1, 2] {
            let db = Database::from_records_on(&params, &records, width).unwrap();
            for (i, rec) in records.iter().enumerate() {
                let expect = pack_record(params.he(), rec);
                assert_eq!(db.poly_words_flat(i), expect, "{width} threads, record {i}");
            }
        }
    }

    #[test]
    fn random_database_is_the_lift_of_its_draws() {
        let params = PirParams::toy();
        let he = params.he();
        let db = Database::random(&params, &mut rand::rngs::StdRng::seed_from_u64(5));
        assert_eq!(db.num_rows(), params.num_rows());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for i in 0..params.num_records() {
            let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
            let wide: Vec<u128> = vals.iter().map(|&v| u128::from(v)).collect();
            let mut expect = RnsPoly::from_coeffs_u128(he.ring(), &wide);
            expect.to_ntt();
            assert_eq!(db.poly_flat(i), expect, "record {i}");
        }
    }

    #[test]
    fn database_pads_missing_records() {
        let params = PirParams::toy();
        let db = Database::from_records(&params, &[b"only one".to_vec()]).unwrap();
        assert_eq!(db.len(), params.num_records());
        assert!(!db.is_empty());
    }

    #[test]
    fn oversized_record_rejected() {
        let params = PirParams::toy();
        let too_big = vec![0u8; params.record_bytes() + 1];
        assert!(matches!(
            Database::from_records(&params, &[too_big]),
            Err(PirError::RecordTooLarge { index: 0, .. })
        ));
    }

    #[test]
    fn too_many_records_rejected() {
        let params = PirParams::toy();
        let records = vec![vec![1u8]; params.num_records() + 1];
        assert!(matches!(
            Database::from_records(&params, &records),
            Err(PirError::TooManyRecords { .. })
        ));
    }

    #[test]
    fn matrix_view_indexing() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> = (0..params.num_records()).map(|i| vec![i as u8; 4]).collect();
        let db = Database::from_records(&params, &records).unwrap();
        for i in 0..params.num_records() {
            let (r, c) = params.split_index(i);
            assert_eq!(db.poly(r, c), db.poly_flat(i));
            assert_eq!(db.poly_words(r, c), db.poly_words_flat(i));
        }
    }

    #[test]
    fn pages_are_limb_major_and_row_contiguous() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("rec {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).unwrap();
        let he = params.he();
        let rec_words = he.ring().basis().len() * he.n();
        assert_eq!(db.record_words(), rec_words);
        assert_eq!(db.page_words(), params.d0() * rec_words);
        assert_eq!(db.to_words().len(), params.num_records() * rec_words);
        // Each record's slice is exactly its preprocessed polynomial's
        // residue-major storage; records of one row are packed back to
        // back inside the row page.
        for (i, rec) in records.iter().enumerate() {
            let stored = pack_record(he, rec);
            assert_eq!(db.poly_words_flat(i), stored, "record {i}");
            // Narrow-then-widen is the identity.
            let expect = plaintext_from_bytes(he, rec).unwrap().to_ntt_poly(he);
            assert_eq!(db.poly_flat(i), expect, "record {i}");
        }
        for r in 0..db.num_rows() {
            for c in 0..db.d0() - 1 {
                let a = db.poly_words(r, c).as_ptr();
                let b = db.poly_words(r, c + 1).as_ptr();
                // Record `c + 1` starts `rec_words` words after record `c`.
                assert_eq!(a.wrapping_add(rec_words), b, "row {r} not contiguous at col {c}");
            }
        }
    }

    #[test]
    fn resident_bytes_is_four_per_residue() {
        // Table I: 256 records × 4 limbs × 4096 residues, 4 B each —
        // 16 MiB for 4 MiB of raw records.
        let params = PirParams::new(HeParams::paper(), 256, 1).unwrap();
        let db = Database::from_records(&params, &[]).unwrap();
        let (k, n) = (params.he().ring().basis().len(), params.he().n());
        assert_eq!(db.resident_bytes(), (params.num_records() * k * n * 4) as u64);
        assert_eq!(db.resident_bytes(), 4 * params.db_bytes());
    }

    #[test]
    fn clone_shares_pages_with_the_original() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> = (0..params.num_records()).map(|i| vec![i as u8; 2]).collect();
        let db = Database::from_records(&params, &records).unwrap();
        let snapshot = db.clone();
        assert_eq!((snapshot.num_rows(), snapshot.d0()), (db.num_rows(), db.d0()));
        for r in 0..db.num_rows() {
            for c in 0..db.d0() {
                assert_eq!(snapshot.poly_words(r, c), db.poly_words(r, c));
            }
            // Zero-copy: the clone's page *is* the original's page.
            assert_eq!(snapshot.poly_words(r, 0).as_ptr(), db.poly_words(r, 0).as_ptr());
        }
    }

    #[test]
    fn writes_to_a_clone_do_not_leak_into_the_original() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> = (0..params.num_records()).map(|i| vec![i as u8; 2]).collect();
        let db = Database::from_records(&params, &records).unwrap();
        let mut next = db.clone();
        let before = db.to_words();
        let delta = crate::update::PreparedUpdate::prepare(
            &params,
            &crate::update::RecordUpdate::put(0, b"clone-local".to_vec()),
            crate::BackendKind::default(),
        )
        .unwrap();
        next.apply_updates(&[delta]).unwrap();
        assert_eq!(db.to_words(), before, "original must be isolated from clone writes");
        assert_eq!(next.cow_stats().pages_copied, 1, "shared page must be duplicated");
        assert_ne!(next.poly_words(0, 0), db.poly_words(0, 0));
    }

    #[test]
    fn apply_updates_matches_cold_rebuild() {
        let params = PirParams::toy();
        let mut records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("v0 rec {i}").into_bytes()).collect();
        let mut db = Database::from_records(&params, &records).unwrap();
        let log = crate::update::UpdateLog::new(&params);
        log.stage(crate::update::RecordUpdate::put(7, b"fresh".to_vec())).unwrap();
        log.stage(crate::update::RecordUpdate::delete(13)).unwrap();
        log.stage(crate::update::RecordUpdate::put(63, b"tail".to_vec())).unwrap();
        assert_eq!(db.apply_updates(&log.drain()).unwrap(), 1);
        assert_eq!(db.epoch(), 1);
        records[7] = b"fresh".to_vec();
        records[13] = Vec::new();
        records[63] = b"tail".to_vec();
        let rebuilt = Database::from_records(&params, &records).unwrap();
        assert_eq!(db.to_words(), rebuilt.to_words(), "update diverged from rebuild");
    }

    #[test]
    fn commit_copies_only_touched_pages() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("cow {i}").into_bytes()).collect();
        let snapshot = Database::from_records(&params, &records).unwrap();
        let mut next = snapshot.clone();
        assert_eq!(next.shared_pages(), next.num_rows(), "clone must share every page");
        let delta = crate::update::PreparedUpdate::prepare(
            &params,
            &crate::update::RecordUpdate::put(3, b"touched".to_vec()),
            crate::BackendKind::default(),
        )
        .unwrap();
        next.apply_updates(&[delta]).unwrap();
        let stats = next.cow_stats();
        assert_eq!(stats.pages_copied, 1, "one delta must duplicate exactly one page");
        assert_eq!(stats.words_copied, next.page_words() as u64);
        // Every untouched row still aliases the snapshot's storage.
        let touched_row = 3 / params.d0();
        for r in 0..next.num_rows() {
            let same = next.poly_words(r, 0).as_ptr() == snapshot.poly_words(r, 0).as_ptr();
            assert_eq!(same, r != touched_row, "row {r} sharing is wrong");
        }
    }

    #[test]
    fn trailing_zero_rows_share_one_page() {
        let params = PirParams::toy();
        let db = Database::from_records(&params, &[b"head".to_vec()]).unwrap();
        // Rows past the first are all-zero and alias one physical page.
        let tail = db.poly_words(1, 0).as_ptr();
        for r in 2..db.num_rows() {
            assert_eq!(db.poly_words(r, 0).as_ptr(), tail, "zero row {r} not shared");
        }
        assert_ne!(db.poly_words(0, 0).as_ptr(), tail);
    }

    #[test]
    fn empty_update_batch_is_a_noop() {
        let params = PirParams::toy();
        let mut db = Database::from_records(&params, &[b"x".to_vec()]).unwrap();
        let before = db.to_words();
        assert_eq!(db.apply_updates(&[]).unwrap(), 0);
        assert_eq!(db.epoch(), 0, "empty batch must not open an epoch");
        assert_eq!(db.to_words(), before);
    }

    #[test]
    fn out_of_range_update_is_an_error_not_a_panic() {
        let params = PirParams::toy();
        let mut db = Database::from_records(&params, &[]).unwrap();
        let before = db.to_words();
        let good = crate::update::PreparedUpdate::prepare(
            &params,
            &crate::update::RecordUpdate::put(0, b"ok".to_vec()),
            crate::BackendKind::default(),
        )
        .unwrap();
        // One index past the end fails the whole batch atomically: the
        // good delta in the same batch must not land either.
        let past = crate::update::PreparedUpdate::prepare(
            &params,
            &crate::update::RecordUpdate::delete(params.num_records() - 1),
            crate::BackendKind::default(),
        )
        .unwrap();
        let smaller = PirParams::new(params.he().clone(), params.d0(), 1).unwrap();
        let mut small = Database::from_records(&smaller, &[]).unwrap();
        let small_before = small.to_words();
        match small.apply_updates(&[good.clone(), past]) {
            Err(PirError::IndexOutOfRange { .. }) => {}
            other => panic!("expected IndexOutOfRange, got {other:?}"),
        }
        assert_eq!((small.epoch(), small.to_words()), (0, small_before));
        db.apply_updates(&[good]).unwrap();
        assert_ne!(db.to_words(), before);
    }
}
