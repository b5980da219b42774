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
//! A stored word is a `DbWord` — one residue in 4 bytes. The database
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
//!
//! **Stored pairs.** In a geometry with fewer rows than `D0/2`
//! (`PirParams::folds_last_level`) a page does not hold the lifted
//! records `D_i` themselves but `ExpandQuery`'s last level folded into
//! them (the algebra is in the `expand` module): with `h = D0/2`, slot
//! `p < h` holds `A_p = D_p + x·D_{p+h}` and slot `p + h` holds
//! `B'_p = τ_r^{-1}(D_p − x·D_{p+h})`, for `x = NTT(X^{-h})` and
//! `r = N/h + 1` (`PairFold`). The build folds each pair as soon as both
//! members are lifted, and an update recovers the pair from the stored
//! words by exact modular arithmetic before it folds it again, so an
//! updated page stays word for word what a rebuild writes. Any other
//! geometry stores the lifted records.

use std::sync::{Arc, Mutex};

use rand::Rng;

use ive_he::{lift, HeParams, Plaintext};
use ive_math::kernel;
use ive_math::poly::automorphism_ntt_map;
use ive_math::rns::RingContext;

use crate::params::PirParams;
use crate::update::PreparedUpdate;
use crate::PirError;

/// The stored word: one residue of one preprocessed record polynomial.
/// Every limb of a ring is below `2^29` (checked by
/// [`RnsBasis::new`](ive_math::rns::RnsBasis::new)), so narrowing a
/// canonical NTT word is lossless.
/// `size_of::<DbWord>()` is the only place the width is written; every
/// byte figure derives from it ([`Database::resident_bytes`]).
pub(crate) type DbWord = u32;

/// Record words (`records · k · n`) below which
/// [`Database::from_records`] builds inline: 4 MiB of them lift in a few
/// milliseconds, which starting a thread does not repay.
const PARALLEL_BUILD_MIN_WORDS: usize = 1 << 20;

/// The storage transform of a record pair (slots `p` and `p + h` of a
/// row, `h = D0/2`) in a geometry that folds `ExpandQuery`'s last level
/// ([`PirParams::folds_last_level`]): `(D_p, y) → (A_p, B'_p)` with
/// `y = x·D_{p+h}`, `A_p = D_p + y` and `B'_p = τ_r^{-1}(D_p − y)`, the
/// last level that `RowSel` finishes with one `Subs_r` per row
/// ([`crate::expand`]). The product `y` is never formed here: slot
/// `p + h` is lifted already times `x` ([`stored_shift`]). Every step is
/// exact mod each limb's `q`, so [`PairFold::unfold`] inverts it word for
/// word.
pub(crate) struct PairFold {
    ring: Arc<RingContext>,
    /// `h = D0/2`: slot `p` pairs with slot `p + h`.
    half: usize,
    /// `τ_r` as an NTT-domain index map: `τ_r(f)[i] = f[map[i]]`.
    map: Vec<u32>,
}

impl std::fmt::Debug for PairFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairFold").field("half", &self.half).finish_non_exhaustive()
    }
}

impl PairFold {
    /// The transform pairing slot `p` with slot `p + half` over `ring`;
    /// a folding [`PirParams`] builds its own once and every database of
    /// the geometry shares it.
    pub(crate) fn new(ring: &Arc<RingContext>, half: usize) -> Self {
        let map = automorphism_ntt_map(ring.n(), ring.n() / half + 1);
        PairFold { ring: Arc::clone(ring), half, map }
    }

    /// Each limb's modulus and `n`-word rows of `lo` and `hi`.
    fn limbs<'a>(
        &'a self,
        lo: &'a mut [DbWord],
        hi: &'a mut [DbWord],
    ) -> impl Iterator<Item = (u32, (&'a mut [DbWord], &'a mut [DbWord]))> + 'a {
        let n = self.ring.n();
        let moduli = self.ring.basis().moduli().iter().map(|q| q.value() as u32);
        moduli.zip(lo.chunks_exact_mut(n).zip(hi.chunks_exact_mut(n)))
    }

    /// Slots `p` and `p + h` of a row page, `k·n` words each.
    fn pair_mut<'a>(
        &self,
        page: &'a mut [DbWord],
        p: usize,
    ) -> (&'a mut [DbWord], &'a mut [DbWord]) {
        let rec_words = self.ring.basis().len() * self.ring.n();
        let (lo, hi) = page.split_at_mut(self.half * rec_words);
        (&mut lo[p * rec_words..][..rec_words], &mut hi[p * rec_words..][..rec_words])
    }

    /// `(D_p, x·D_{p+h}) → (A_p, B'_p)` in place; `tmp` is `n` words.
    fn fold(&self, lo: &mut [DbWord], hi: &mut [DbWord], tmp: &mut [DbWord]) {
        for (q, (lo, hi)) in self.limbs(lo, hi) {
            let tmp = &mut tmp[..lo.len()];
            for i in 0..lo.len() {
                let (d, y) = (lo[i], hi[i]);
                tmp[i] = csub(d + q - y, q);
                lo[i] = csub(d + y, q);
            }
            for (&e, &j) in tmp.iter().zip(&self.map) {
                hi[j as usize] = e;
            }
        }
    }

    /// Folds every pair of a row page whose slots hold their stored lifts.
    fn fold_page(&self, page: &mut [DbWord], tmp: &mut [DbWord]) {
        for p in 0..self.half {
            let (lo, hi) = self.pair_mut(page, p);
            self.fold(lo, hi, tmp);
        }
    }

    /// `(A_p, B'_p) → (D_p, x·D_{p+h})` in place: with `E = τ_r(B')`,
    /// `D_p = (A + E)/2` and `x·D_{p+h} = (A − E)/2`, halving exactly
    /// (`q` is odd).
    fn unfold(&self, lo: &mut [DbWord], hi: &mut [DbWord], tmp: &mut [DbWord]) {
        for (q, (lo, hi)) in self.limbs(lo, hi) {
            for (e, &j) in tmp.iter_mut().zip(&self.map) {
                *e = hi[j as usize];
            }
            let halve = |v: u32| (v + (q & (v & 1).wrapping_neg())) >> 1;
            for ((a, y), &e) in lo.iter_mut().zip(hi.iter_mut()).zip(tmp.iter()) {
                *y = halve(csub(*a + q - e, q));
                *a = halve(csub(*a + e, q));
            }
        }
    }
}

/// The stored lift of slot `col` of a row is the record's lift times
/// `X^{-shift}` for this shift: `D0/2` for the upper member of a folded
/// pair (`x·D_{p+h}`, [`PairFold`]) — a coefficient shift inside the
/// lift ([`lift::lift_record_shifted`]), where a product in the NTT
/// domain would cost a multiply per word — and 0 everywhere else.
pub(crate) fn stored_shift(params: &PirParams, col: usize) -> usize {
    let half = params.d0() / 2;
    if params.folds_last_level() && col >= half {
        half
    } else {
        0
    }
}

/// `v − q` when `v ≥ q`, else `v`, for `v < 2q < 2^31`: the sign of
/// `v − q` selects, in 4-byte lanes only, so the pair loops vectorise on
/// any x86-64 (a `u32` `min` needs SSE4.1).
#[inline(always)]
fn csub(v: u32, q: u32) -> u32 {
    let t = v.wrapping_sub(q);
    t.wrapping_add(q & ((t as i32 >> 31) as u32))
}

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
/// copy-on-write row pages (`Arc<Vec<DbWord>>`, one per row), each row's
/// record pairs folded with `ExpandQuery`'s last level (module doc).
///
/// The pages are *mutable under version control*: committed
/// [`PreparedUpdate`] batches splice new record words into the touched
/// pages only (untouched pages stay shared with older snapshots) and bump
/// the `Database::epoch`, so a long-running server ingests content
/// changes without a rebuild and without re-copying the cold bulk of the
/// database (see `crate::update`).
#[derive(Debug, Clone)]
pub struct Database {
    /// One limb-major page of `d0 · k · n` words per matrix row.
    pages: Vec<Arc<Vec<DbWord>>>,
    d0: usize,
    /// Words per record (`k · n`).
    rec_words: usize,
    /// The pair transform the pages are stored in, if the geometry folds.
    fold: Option<Arc<PairFold>>,
    /// Number of committed update batches absorbed since load.
    epoch: u64,
    /// Pages physically copied by [`Database::apply_updates`] (cumulative).
    cow_pages: u64,
    /// Words physically copied by [`Database::apply_updates`] (cumulative).
    cow_words: u64,
}

impl Database {
    /// Packs and preprocesses byte records: each record is lifted
    /// ([`ive_he::lift`]) straight into its slot of its row page and, in a
    /// folding geometry, each pair folded (module doc) as soon as both
    /// members are lifted, while their words are cache-hot, so a load
    /// allocates the pages and nothing per record.
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
        let fold = params.pair_fold();
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
            let mut tmp = vec![0; he.n()];
            while let Some((row, page)) = claim_row() {
                let Some(fold) = fold else {
                    for (rec, slot) in row.iter().zip(page.chunks_exact_mut(rec_words)) {
                        lift::lift_record(he, rec, slot, backend);
                    }
                    continue;
                };
                for p in 0..row.len().min(fold.half) {
                    let (lo, hi) = fold.pair_mut(page, p);
                    lift::lift_record(he, &row[p], lo, backend);
                    if let Some(rec) = row.get(p + fold.half) {
                        lift::lift_record_shifted(he, rec, hi, fold.half, backend);
                    }
                    fold.fold(lo, hi, &mut tmp);
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
        let mut tmp = vec![0; he.n()];
        let pages = (0..params.num_rows())
            .map(|_| {
                let mut page = vec![0; params.d0() * rec_words];
                for (col, slot) in page.chunks_exact_mut(rec_words).enumerate() {
                    for coeff in &mut slot[..he.n()] {
                        // `P ≤ 2^32`: a coefficient fits the stored word.
                        *coeff = rng.gen_range(0..he.p()) as DbWord;
                    }
                    lift::lift_coeffs_shifted(he, slot, stored_shift(params, col), backend);
                }
                if let Some(fold) = params.pair_fold() {
                    fold.fold_page(&mut page, &mut tmp);
                }
                Arc::new(page)
            })
            .collect();
        Database::from_pages(params, pages)
    }

    /// A fresh database (epoch 0, nothing copied) over `num_rows` pages
    /// stored in the geometry's form.
    fn from_pages(params: &PirParams, pages: Vec<Arc<Vec<DbWord>>>) -> Self {
        let ring = params.he().ring();
        let rec_words = ring.basis().len() * ring.n();
        let fold = params.pair_fold().cloned();
        Database { pages, d0: params.d0(), rec_words, fold, epoch: 0, cow_pages: 0, cow_words: 0 }
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

    /// The flat limb words (`k · n`, residue-major, NTT form) of slot
    /// `(row, col)` — in a folding geometry `A_col` for `col < D0/2` and
    /// `B'_{col − D0/2}` above (module doc) — what the `RowSel` kernel
    /// scan consumes.
    #[inline]
    pub(crate) fn poly_words(&self, row: usize, col: usize) -> &[DbWord] {
        let start = col * self.rec_words;
        &self.pages[row][start..start + self.rec_words]
    }

    /// The whole database concatenated into one buffer
    /// (`rows × D0 × k × n` words) — a copy; rebuild-equivalence tests
    /// only, hot paths scan per-row via `Database::poly_words`.
    pub fn to_words(&self) -> Vec<DbWord> {
        let mut out = Vec::with_capacity(self.pages.len() * self.page_words());
        for page in &self.pages {
            out.extend_from_slice(page);
        }
        out
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

    /// First-dimension width `D0`.
    #[inline]
    pub(crate) fn d0(&self) -> usize {
        self.d0
    }

    /// Number of committed update batches this database has absorbed
    /// (0 for a fresh load; a clone carries its original's epoch).
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
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
    /// In a folding geometry a delta rewrites both slots of its record's
    /// pair: the pair is unfolded from the stored words (exact modular
    /// arithmetic), the delta's member replaced, and the pair folded
    /// again. The written
    /// words are exactly what [`Database::from_records`] would have
    /// produced for the same contents, so the mutated database — and
    /// every answer computed from it — is bit-identical to a cold
    /// rebuild.
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
        let mut tmp = self.fold.as_ref().map_or_else(Vec::new, |fold| vec![0; fold.ring.n()]);
        for u in updates {
            let page = &mut self.pages[u.index() / self.d0];
            if Arc::strong_count(page) > 1 {
                self.cow_pages += 1;
                self.cow_words += page.len() as u64;
            }
            let (page, col) = (Arc::make_mut(page).as_mut_slice(), u.index() % self.d0);
            let Some(fold) = &self.fold else {
                page[col * self.rec_words..][..self.rec_words].copy_from_slice(u.words());
                continue;
            };
            let (lo, hi) = fold.pair_mut(page, col % fold.half);
            fold.unfold(lo, hi, &mut tmp);
            // The prepared words are the member's stored lift, the upper
            // member's already times `x` ([`stored_shift`]).
            if col < fold.half { &mut *lo } else { &mut *hi }.copy_from_slice(u.words());
            fold.fold(lo, hi, &mut tmp);
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
    let mut poly = ive_math::rns::RnsPoly::from_coeffs_u128(he.ring(), &wide);
    poly.to_ntt();
    poly.as_words().iter().map(|&w| DbWord::try_from(w).unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ive_math::rns::{Form, RingContext, RnsPoly};
    use rand::SeedableRng;

    /// The stored words of flat record `index`.
    fn words(db: &Database, index: usize) -> &[DbWord] {
        db.poly_words(index / db.d0, index % db.d0)
    }

    /// Flat record `index` widened back into its NTT-form polynomial.
    fn poly(db: &Database, params: &PirParams, index: usize) -> RnsPoly {
        let wide = words(db, index).iter().map(|&w| u64::from(w)).collect();
        RnsPoly::from_words(params.he().ring(), Form::Ntt, wide).unwrap()
    }

    /// Row pages whose storage another snapshot (or the zero tail) shares.
    fn shared_pages(db: &Database) -> usize {
        db.pages.iter().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// A small geometry that folds: 4 rows < D0/2 = 8.
    fn folded() -> PirParams {
        let params = PirParams::new(HeParams::toy(), 16, 2).unwrap();
        assert!(params.folds_last_level());
        params
    }

    /// The stored form of every slot, by the polynomial algebra rather
    /// than `PairFold`'s word loops: in a folding geometry, per row and
    /// pair, `A_p = D_p + x·D_{p+h}` and `B'_p = τ_{r'}(D_p − x·D_{p+h})`
    /// with `τ_{r'}` the coefficient-domain automorphism of
    /// `r' = r^{-1} mod 2N`; otherwise the lifts themselves. `lifted`
    /// holds the NTT-form `D_i` of every slot, in flat order.
    fn fold_oracle(params: &PirParams, lifted: &[RnsPoly]) -> Vec<RnsPoly> {
        if !params.folds_last_level() {
            return lifted.to_vec();
        }
        let he = params.he();
        let (n, d0, h) = (he.n(), params.d0(), params.d0() / 2);
        let r = n / h + 1;
        let r_inv = (1..2 * n).step_by(2).find(|&v| v * r % (2 * n) == 1).unwrap();
        let x = crate::expand::x_neg_pow_ntt(he, h);
        let mut out = lifted.to_vec();
        for row in 0..lifted.len() / d0 {
            for p in row * d0..row * d0 + h {
                let mut y = lifted[p + h].clone();
                y.mul_assign_pointwise(&x).unwrap();
                out[p].add_assign(&y).unwrap();
                let mut e = lifted[p].clone();
                e.sub_assign(&y).unwrap();
                e.to_coeff();
                let mut b = e.automorphism(r_inv).unwrap();
                b.to_ntt();
                out[p + h] = b;
            }
        }
        out
    }

    /// [`fold_oracle`] over byte records ([`pack_record`] for each; missing
    /// trailing records are zero), as stored words.
    fn stored_oracle(params: &PirParams, records: &[Vec<u8>]) -> Vec<Vec<DbWord>> {
        let he = params.he();
        let lifted: Vec<RnsPoly> = (0..params.num_records())
            .map(|i| {
                let rec = records.get(i).map_or(&[][..], Vec::as_slice);
                let wide = pack_record(he, rec).iter().map(|&w| u64::from(w)).collect();
                RnsPoly::from_words(he.ring(), Form::Ntt, wide).unwrap()
            })
            .collect();
        let narrow = |p: &RnsPoly| p.as_words().iter().map(|&w| w as DbWord).collect();
        fold_oracle(params, &lifted).iter().map(narrow).collect()
    }

    #[test]
    fn pair_fold_unfolds_to_its_pair() {
        assert!(PirParams::toy().pair_fold().is_none(), "8 rows = D0/2 do not fold");
        let params = folded();
        let he = params.he();
        let fold = params.pair_fold().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(98);
        let rec_words = he.ring().basis().len() * he.n();
        let mut draw = || {
            let mut w = vec![0; rec_words];
            for (row, q) in w.chunks_exact_mut(he.n()).zip(he.ring().basis().moduli()) {
                row.iter_mut().for_each(|v| *v = rng.gen_range(0..q.value()) as DbWord);
            }
            w
        };
        // `D_p` and `y = x·D_{p+h}`.
        let (d_lo, y) = (draw(), draw());
        let (mut lo, mut hi, mut tmp) = (d_lo.clone(), y.clone(), vec![0; he.n()]);
        fold.fold(&mut lo, &mut hi, &mut tmp);
        let stored = (lo.clone(), hi.clone());
        fold.unfold(&mut lo, &mut hi, &mut tmp);
        assert_eq!((&lo, &hi), (&d_lo, &y), "unfold recovers the pair");
        fold.fold(&mut lo, &mut hi, &mut tmp);
        assert_eq!((lo, hi), stored);
    }

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
        // The toy geometry's 8 rows, and 8 rows < D0/2 = 16 folded.
        let wide = PirParams::new(HeParams::toy(), 32, 3).unwrap();
        assert!(wide.folds_last_level());
        for params in [PirParams::toy(), wide] {
            check_build_on_any_number_of_threads(&params);
        }
    }

    fn check_build_on_any_number_of_threads(params: &PirParams) {
        let params = params.clone();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        // A partial trailing row, then an all-missing tail.
        let records = ragged_records(&params, 5);
        let inline = Database::from_records_on(&params, &records, 1).unwrap();
        assert_eq!(
            inline.to_words(),
            Database::from_records(&params, &records).unwrap().to_words()
        );
        for (i, expect) in stored_oracle(&params, &records).iter().enumerate() {
            assert_eq!(words(&inline, i), expect, "slot {i}");
        }
        // Rows past the partial one hold no record and store zero.
        let populated = records.len().div_ceil(params.d0()) * params.d0();
        assert!(inline.to_words()[populated * inline.rec_words..].iter().all(|&w| w == 0));
        for width in [0, 2, 3, cores, 64] {
            let db = Database::from_records_on(&params, &records, width).unwrap();
            assert_eq!(db.to_words(), inline.to_words(), "{width} threads");
            assert_eq!((db.epoch(), db.cow_stats()), (0, CowStats::default()));
            assert_eq!(db.pages.len(), params.num_rows());
            // Rows 5.. were never supplied: one zero page stands in.
            for r in 6..db.pages.len() {
                assert!(Arc::ptr_eq(&db.pages[5], &db.pages[r]), "{width} threads, row {r}");
            }
            assert_eq!(shared_pages(&db), db.pages.len() - 5);
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
        // Four rows of D0 = 4 (the lifts), two of D0 = 8 (folded).
        for (d0, dims, rows) in [(4, 2, 3), (8, 1, 2)] {
            let params = PirParams::new(HeParams::paper(), d0, dims).unwrap();
            let records = ragged_records(&params, rows);
            for width in [1, 2] {
                let db = Database::from_records_on(&params, &records, width).unwrap();
                for (i, expect) in stored_oracle(&params, &records).iter().enumerate() {
                    assert_eq!(words(&db, i), expect, "D0 = {d0}, {width} threads, slot {i}");
                }
            }
        }
    }

    #[test]
    fn random_database_is_the_lift_of_its_draws() {
        for params in [PirParams::toy(), folded()] {
            check_random_database(&params);
        }
    }

    fn check_random_database(params: &PirParams) {
        let he = params.he();
        let db = Database::random(params, &mut rand::rngs::StdRng::seed_from_u64(5));
        assert_eq!(db.pages.len(), params.num_rows());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let lifted: Vec<RnsPoly> = (0..params.num_records())
            .map(|_| {
                let vals: Vec<u64> = (0..he.n()).map(|_| rng.gen_range(0..he.p())).collect();
                let wide: Vec<u128> = vals.iter().map(|&v| u128::from(v)).collect();
                let mut lifted = RnsPoly::from_coeffs_u128(he.ring(), &wide);
                lifted.to_ntt();
                lifted
            })
            .collect();
        for (i, expect) in fold_oracle(params, &lifted).iter().enumerate() {
            assert_eq!(&poly(&db, params, i), expect, "slot {i}");
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
            assert_eq!(db.poly_words(r, c), words(&db, i));
        }
    }

    #[test]
    fn pages_are_limb_major_and_row_contiguous() {
        for params in [PirParams::toy(), folded()] {
            check_page_layout(&params);
        }
    }

    fn check_page_layout(params: &PirParams) {
        let params = params.clone();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("rec {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).unwrap();
        let he = params.he();
        let rec_words = he.ring().basis().len() * he.n();
        assert_eq!(db.rec_words, rec_words);
        assert_eq!(db.page_words(), params.d0() * rec_words);
        assert_eq!(db.to_words().len(), params.num_records() * rec_words);
        // Each slot's slice is exactly its stored polynomial's
        // residue-major storage (the lifted records, pair-folded where the
        // geometry folds); slots
        // of one row are packed back to back inside the row page.
        let lifted: Vec<RnsPoly> = records
            .iter()
            .map(|rec| plaintext_from_bytes(he, rec).unwrap().to_ntt_poly(he))
            .collect();
        let stored = stored_oracle(&params, &records);
        for (i, expect) in fold_oracle(&params, &lifted).iter().enumerate() {
            assert_eq!(words(&db, i), stored[i], "slot {i}");
            // Narrow-then-widen is the identity.
            assert_eq!(&poly(&db, &params, i), expect, "slot {i}");
        }
        for r in 0..db.pages.len() {
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
        assert_eq!(db.resident_bytes(), 4 * (params.num_records() * params.record_bytes()) as u64);
    }

    #[test]
    fn clone_shares_pages_with_the_original() {
        let params = PirParams::toy();
        let records: Vec<Vec<u8>> = (0..params.num_records()).map(|i| vec![i as u8; 2]).collect();
        let db = Database::from_records(&params, &records).unwrap();
        let snapshot = db.clone();
        assert_eq!((snapshot.pages.len(), snapshot.d0()), (db.pages.len(), db.d0()));
        for r in 0..db.pages.len() {
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
        use crate::update::RecordUpdate;
        let batch = [
            RecordUpdate::put(7, b"fresh".to_vec()),
            RecordUpdate::delete(13),
            RecordUpdate::put(63, b"tail".to_vec()),
        ];
        let prepared = crate::update::UpdateLog::new(&params).prepare_all(&batch).unwrap();
        assert_eq!(db.apply_updates(&prepared).unwrap(), 1);
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
        assert_eq!(shared_pages(&next), next.pages.len(), "clone must share every page");
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
        for r in 0..next.pages.len() {
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
        for r in 2..db.pages.len() {
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
