//! Per-worker query scratch: the arena-backed buffers behind the
//! zero-allocation `answer` hot path.
//!
//! A [`QueryScratch`] bundles everything one serving worker reuses across
//! queries: a [`KernelArena`] for the kernel layer's transient buffers
//! (`Dcp` digit rows and NTT tiles, wide iCRT coefficients), the flat
//! expansion buffers `ExpandQuery` grows its tree in, and the flat
//! `RowSel` accumulator matrix `ColTor` then plays its tournament on. After the
//! first queries at a given geometry the buffers are warm and
//! [`crate::PirServer::answer_with`] allocates **nothing but the response
//! ciphertext it returns** (enforced by the `rowsel_alloc` integration
//! test with a counting global allocator).
//!
//! Accumulator layout — row-major so workers can split disjoint aligned
//! row blocks with `chunks_mut`, query-minor so one streamed database
//! record serves every query of a batch before the next record is
//! touched:
//!
//! ```text
//! acc: | row 0: q0.a[k·n] q0.b[k·n] q1.a … | row 1: … | … | row R-1: … |
//!        └──────── queries × 2·k·n words ───────┘
//! ```

use std::sync::Arc;
use std::time::Duration;

use ive_he::BfvCiphertext;
use ive_math::arena::KernelArena;
use ive_math::rns::{Form, RingContext, RnsPoly};

use crate::expand::Expansion;

/// Wall time of the three pipeline steps of one `answer*` call, each
/// covering the whole batch (index plane) or the one slot query
/// (keyword plane).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    /// The automorphism/key-switch step: `ExpandQuery` over every query
    /// of the batch; the trace of a KsPIR slot query.
    pub expand: Duration,
    /// The one `RowSel` database pass the batch shares; the plaintext
    /// products of a KsPIR slot query.
    pub row_sel: Duration,
    /// Every query's `ColTor` tournament.
    pub col_tor: Duration,
}

/// Reusable per-worker buffers for the query pipeline.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Kernel-layer scratch (digit rows and tiles, wide coefficients, ColTor
    /// temporaries). Public so callers can thread it into HE helpers.
    pub arena: KernelArena,
    /// One arena per extra `ColTor` block worker (the caller's block uses
    /// `arena`); retained across calls.
    worker_arenas: Vec<KernelArena>,
    /// Flat `RowSel` accumulators: `rows × queries × 2 × k × n`.
    acc: Vec<u64>,
    rows: usize,
    queries: usize,
    /// Words per ciphertext accumulator (`2 · k · n`).
    ct_words: usize,
    /// Flat expansion buffers, one per query of the largest batch seen,
    /// retained so a warm `answer` expands into memory it already owns.
    expansions: Vec<Expansion>,
    /// Step durations of the last successful `answer*` call.
    pub(crate) stage_times: StageTimes,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Shapes and zeroes the accumulator matrix for a scan of `rows`
    /// database rows serving `queries` concurrent queries. Only grows the
    /// backing buffer when the geometry outgrows what is retained.
    pub(crate) fn reset_accumulators(&mut self, rows: usize, queries: usize, ct_words: usize) {
        let want = rows * queries * ct_words;
        self.acc.clear();
        self.acc.resize(want, 0);
        self.rows = rows;
        self.queries = queries;
        self.ct_words = ct_words;
    }

    /// The accumulator matrix, the caller's arena and `count` worker
    /// arenas — the buffers behind the partitioned `RowSel` and `ColTor`,
    /// where each block of rows is scanned, finished and plays its low
    /// tournament levels on its own arena.
    pub(crate) fn acc_and_arenas(
        &mut self,
        count: usize,
    ) -> (&mut [u64], &mut KernelArena, &mut [KernelArena]) {
        if self.worker_arenas.len() < count {
            self.worker_arenas.resize_with(count, KernelArena::new);
        }
        (&mut self.acc, &mut self.arena, &mut self.worker_arenas[..count])
    }

    /// Checks out `count` expansion buffers over `ring` (contents stale;
    /// `ExpandQuery` overwrites them). Return them with
    /// [`QueryScratch::give_expansions`] to keep them warm.
    pub(crate) fn take_expansions(
        &mut self,
        count: usize,
        ring: &Arc<RingContext>,
    ) -> Vec<Expansion> {
        let mut pool = std::mem::take(&mut self.expansions);
        while pool.len() < count {
            pool.push(Expansion::empty(ring));
        }
        pool
    }

    /// Returns the buffers checked out by [`QueryScratch::take_expansions`].
    pub(crate) fn give_expansions(&mut self, pool: Vec<Expansion>) {
        self.expansions = pool;
    }

    /// How long each step of the last successful
    /// [`crate::PirServer::answer_with`] /
    /// [`crate::PirServer::answer_batch_with`] /
    /// [`crate::KsPirServer::answer_with`] on this scratch took.
    #[inline]
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// Number of rows the accumulators currently hold.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of queries the accumulators currently hold.
    #[inline]
    pub(crate) fn queries(&self) -> usize {
        self.queries
    }

    /// The `(a, b)` accumulator words of query `query` at row `row`
    /// (each `k · n` words, NTT form).
    ///
    /// # Panics
    /// Panics when the indices exceed the last scan's shape.
    pub(crate) fn row_words(&self, query: usize, row: usize) -> (&[u64], &[u64]) {
        assert!(query < self.queries && row < self.rows, "accumulator index out of shape");
        let start = (row * self.queries + query) * self.ct_words;
        let half = self.ct_words / 2;
        (&self.acc[start..start + half], &self.acc[start + half..start + self.ct_words])
    }

    /// Materializes query `query`'s row accumulators as ciphertexts
    /// (allocating — the seam between the flat kernel world and the
    /// polynomial algebra, for callers that run `ColTor` as a separate
    /// step; [`crate::PirServer::answer_with`] plays the tournament on
    /// the accumulators directly).
    pub fn row_ciphertexts(&self, ctx: &Arc<RingContext>, query: usize) -> Vec<BfvCiphertext> {
        (0..self.rows).map(|r| self.row_ciphertext(ctx, query, r)).collect()
    }

    /// One accumulator row of query `query` copied out as a ciphertext.
    pub(crate) fn row_ciphertext(
        &self,
        ctx: &Arc<RingContext>,
        query: usize,
        row: usize,
    ) -> BfvCiphertext {
        let (a, b) = self.row_words(query, row);
        let poly = |w: &[u64]| {
            RnsPoly::from_words(ctx, Form::Ntt, w.to_vec()).expect("accumulator has ring shape")
        };
        BfvCiphertext { a: poly(a), b: poly(b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_shape_and_views() {
        let mut s = QueryScratch::new();
        s.reset_accumulators(4, 2, 6);
        assert_eq!(s.rows(), 4);
        assert_eq!(s.queries(), 2);
        assert_eq!(s.acc.len(), 4 * 2 * 6);
        let (a, b) = s.row_words(1, 3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        // Growing then shrinking keeps capacity (warm reuse).
        s.reset_accumulators(2, 1, 6);
        assert!(s.acc.capacity() >= 4 * 2 * 6);
    }

    #[test]
    fn warm_expansion_retains_four_bytes_per_word() {
        // Table I shape, sized but not filled: the D0/2 = 128 parents of
        // D0 = 256, 2·k·n 4-byte words each (16 MiB; a `u64` layout held
        // 32).
        let he = ive_he::HeParams::paper();
        let (ring, levels) = (he.ring(), 7u32);
        let mut s = QueryScratch::new();
        let mut pool = s.take_expansions(1, ring);
        pool[0].reshape(ring, levels);
        assert_eq!(pool[0].len(), 1 << levels);
        let (a, b) = pool[0].slot_words(0);
        let ct_words = 2 * ring.basis().len() * ring.n();
        assert_eq!(size_of_val(a) + size_of_val(b), 4 * ct_words);
        let words = a.as_ptr();
        s.give_expansions(pool);
        // A second checkout at the same shape reuses the buffer.
        let mut pool = s.take_expansions(1, ring);
        pool[0].reshape(ring, levels);
        assert_eq!(pool[0].slot_words(0).0.as_ptr(), words);
    }

    #[test]
    #[should_panic(expected = "out of shape")]
    fn out_of_shape_rejected() {
        let mut s = QueryScratch::new();
        s.reset_accumulators(2, 1, 4);
        let _ = s.row_words(0, 2);
    }
}
