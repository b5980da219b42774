//! The PIR server: `ExpandQuery → RowSel → ColTor` (Fig. 2).
//!
//! The hot path dispatches every kernel through a selected
//! [`VpeBackend`](ive_math::kernel::VpeBackend) and draws scratch from a
//! caller-owned [`QueryScratch`]: `ExpandQuery` grows its tree inside one
//! flat buffer, `RowSel` streams the database's limb-major pages against
//! it into flat lazy accumulators, and `ColTor` plays its tournament on
//! those accumulators in place — once warm, a query allocates only the
//! response ciphertext it returns.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ive_he::BfvCiphertext;
use ive_math::arena::KernelArena;
use ive_math::kernel::{BackendKind, MacTerm, MAC_FAN_IN};

use crate::client::{ClientKeys, PirQuery};
use crate::coltor::{col_tor, col_tor_with, col_tor_words, TournamentOrder};
use crate::db::Database;
use crate::expand::{Expander, Expansion};
use crate::params::PirParams;
use crate::scratch::{QueryScratch, StageTimes};
use crate::PirError;

/// Database rows the scan advances together. Each expanded ciphertext
/// limb `ct[i][m]` is fetched once per block and multiplied into every
/// row of the block while it is cache-hot, so the expansion's traffic
/// per database word drops from 16 B to `16/R` B; the block's
/// per-limb accumulators (`R · 2n` words per query — 512 KiB at the
/// Table I ring) must stay L2-resident beside it for the whole `D0`
/// sweep. Measured at 1 GiB (docs/ARCHITECTURE.md): 2 → 4 → 8 rows keeps
/// paying, 16 and 32 do not.
const ROWSEL_ROW_BLOCK: usize = 8;

/// Default `RowSel` parallelism: one worker per available core, so a lone
/// server saturates the machine without oversubscribing it.
fn default_rowsel_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// Rejects a database whose shape does not match the geometry.
fn check_geometry(params: &PirParams, db: &Database) -> Result<(), PirError> {
    if db.len() != params.num_records() || db.d0() != params.d0() {
        return Err(PirError::InvalidParams(format!(
            "database has {} records (D0 = {}), geometry wants {} (D0 = {})",
            db.len(),
            db.d0(),
            params.num_records(),
            params.d0()
        )));
    }
    Ok(())
}

/// A single-server PIR server holding one preprocessed database.
#[derive(Debug)]
pub struct PirServer {
    params: PirParams,
    db: Database,
    order: TournamentOrder,
    rowsel_threads: usize,
    backend: BackendKind,
    /// `ExpandQuery` tables for this geometry, shared across epochs.
    expander: Arc<Expander>,
}

impl PirServer {
    /// Wraps a preprocessed database.
    ///
    /// # Errors
    /// Fails when the database size does not match the geometry.
    pub fn new(params: &PirParams, db: Database) -> Result<Self, PirError> {
        check_geometry(params, &db)?;
        Ok(PirServer {
            params: params.clone(),
            db,
            order: TournamentOrder::Hs { subtree_depth: 2 },
            rowsel_threads: default_rowsel_threads(),
            backend: BackendKind::default(),
            expander: Arc::new(Expander::new(params.he(), params.log_d0())),
        })
    }

    /// Selects the kernel backend every pipeline step dispatches through
    /// (results are bit-identical across backends; only speed differs).
    pub fn set_backend(&mut self, backend: BackendKind) {
        self.backend = backend;
    }

    /// The kernel backend in effect.
    #[inline]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Selects the `ColTor` traversal order (results are bit-identical;
    /// only scheduling differs — §IV-A).
    pub fn set_tournament_order(&mut self, order: TournamentOrder) {
        self.order = order;
    }

    /// The `ColTor` traversal order in effect.
    #[inline]
    pub fn tournament_order(&self) -> TournamentOrder {
        self.order
    }

    /// Sets the width of the row partition to `threads` workers (clamped
    /// to ≥ 1): the rows split into the largest power of two of aligned
    /// blocks no wider than that (Fig. 7c), and both `RowSel` and `ColTor`
    /// run one block per worker. Answers are bit-identical at every width.
    ///
    /// Defaults to [`std::thread::available_parallelism`]; a serving
    /// runtime that already runs its own worker pool should set this to 1
    /// so the pools compose instead of oversubscribing cores.
    pub fn set_rowsel_threads(&mut self, threads: usize) {
        self.rowsel_threads = threads.max(1);
    }

    /// The width of the row partition in effect.
    #[inline]
    pub fn rowsel_threads(&self) -> usize {
        self.rowsel_threads
    }

    /// The one row partition of the server (Fig. 7c): the number `P` of
    /// aligned blocks the `rows` split into, the largest power of two no
    /// wider than [`PirServer::rowsel_threads`] or the row count. The
    /// tournament consumes row-index bits LSB first, so a block of
    /// `rows/P` adjacent rows is one depth-`(d − p)` subtree: `RowSel`
    /// scans block `b` on worker `b`, and `ColTor` plays the same blocks'
    /// low levels there. Block 0 runs on the caller, so at `P = 1`
    /// neither stage spawns a thread.
    fn row_blocks(&self, rows: usize) -> usize {
        1 << self.rowsel_threads.min(rows).max(1).ilog2()
    }

    /// The scheme parameters.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// The preprocessed database.
    #[inline]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The database's update epoch (see [`Database::epoch`]); answers
    /// from this server reflect exactly the contents at that epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// A new server over `db` inheriting this server's tuning (traversal
    /// order, `RowSel` threads, backend) — the epoch-swap constructor:
    /// the serving layer clones the current database, applies a prepared
    /// update batch, and swaps the result in behind an `Arc` while
    /// in-flight scans finish on the old snapshot.
    ///
    /// # Errors
    /// Fails when `db` does not match this server's geometry.
    pub fn with_database(&self, db: Database) -> Result<Self, PirError> {
        check_geometry(&self.params, &db)?;
        Ok(PirServer {
            params: self.params.clone(),
            db,
            order: self.order,
            rowsel_threads: self.rowsel_threads,
            backend: self.backend,
            expander: Arc::clone(&self.expander),
        })
    }

    /// Answers one query end to end.
    ///
    /// # Errors
    /// Propagates key/shape mismatches from the three pipeline steps.
    pub fn answer(&self, keys: &ClientKeys, query: &PirQuery) -> Result<BfvCiphertext, PirError> {
        self.answer_with(keys, query, &mut QueryScratch::new())
    }

    /// Answers one query end to end with caller-owned scratch — the
    /// serving path: a worker that reuses one [`QueryScratch`] across
    /// queries allocates nothing per query but the returned response.
    ///
    /// # Errors
    /// Propagates key/shape mismatches from the three pipeline steps.
    pub fn answer_with(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        let mut response = None;
        self.answer_each(&[(keys, query)], scratch, |ct| response = Some(ct))?;
        Ok(response.expect("one request, one response"))
    }

    /// Answers a batch of queries (possibly from different clients) with
    /// one database pass: all queries are expanded first, then `RowSel`
    /// touches each record polynomial once while accumulating for *every*
    /// query — the multi-client batching of §III-B, functionally.
    ///
    /// # Errors
    /// Propagates failures from any query's pipeline.
    pub fn answer_batch(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        self.answer_batch_with(requests, &mut QueryScratch::new())
    }

    /// Batched answering with caller-owned scratch (see
    /// [`PirServer::answer_with`]).
    ///
    /// # Errors
    /// Propagates failures from any query's pipeline.
    pub fn answer_batch_with(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<BfvCiphertext>, PirError> {
        let mut responses = Vec::with_capacity(requests.len());
        self.answer_each(requests, scratch, |ct| responses.push(ct))?;
        Ok(responses)
    }

    /// The pipeline under both answer entry points: expands every query
    /// into scratch-owned buffers, scans once, and hands each query's
    /// tournament winner to `emit` in request order. The wall time of
    /// each step is left in [`QueryScratch::stage_times`], so a serving
    /// layer can account for the stages without re-implementing them.
    fn answer_each(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
        mut emit: impl FnMut(BfvCiphertext),
    ) -> Result<(), PirError> {
        let mut expanded = scratch.take_expansions(requests.len(), self.params.he().ring());
        let result = (|| {
            // Step 1: per-query expansion (client-specific; not amortizable).
            let t = Instant::now();
            for ((keys, query), out) in requests.iter().zip(&mut expanded) {
                self.expand_into(keys, query, scratch, out)?;
            }
            let expand = t.elapsed();
            // Step 2: one scan of the database serving all queries.
            let t = Instant::now();
            self.row_sel_batch_into(&expanded[..requests.len()], scratch)?;
            let row_sel = t.elapsed();
            // Step 3: per-query tournaments, in place on the accumulators.
            let t = Instant::now();
            self.col_tor_in_place(requests, scratch)?;
            for slot in 0..requests.len() {
                emit(scratch.row_ciphertext(self.params.he().ring(), slot, 0));
            }
            scratch.stage_times = StageTimes { expand, row_sel, col_tor: t.elapsed() };
            Ok(())
        })();
        scratch.give_expansions(expanded);
        result
    }

    /// Batched `RowSel` into caller-owned scratch — the streaming scan at
    /// the heart of the server: one pass over the database's limb-major pages
    /// multiply-accumulates every query's row ciphertexts in flat reused
    /// buffers through the selected kernel backend (Fig. 5 right: the
    /// query matrix gains 2·batch columns), with no heap allocation once
    /// `scratch` is warm. The rows split into the server's aligned row
    /// blocks, one worker each (see [`PirServer::set_rowsel_threads`]).
    /// Results are read back with [`QueryScratch::row_words`] /
    /// [`QueryScratch::row_ciphertexts`].
    ///
    /// # Errors
    /// Fails when any query's expansion does not have `D0` ciphertexts.
    pub fn row_sel_batch_into(
        &self,
        expanded: &[Expansion],
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        let he = self.params.he();
        let ring = he.ring();
        for exp in expanded {
            if exp.len() != self.params.d0() {
                return Err(PirError::InvalidParams(format!(
                    "RowSel needs {} expanded ciphertexts, got {}",
                    self.params.d0(),
                    exp.len()
                )));
            }
            // The flat kernel scan trusts raw words; an expansion is
            // NTT-form by construction, but it must be of *this* ring.
            if **exp.ring() != **ring {
                return Err(PirError::InvalidParams(
                    "expanded ciphertext lives in a different ring than the database".into(),
                ));
            }
        }
        let backend = self.backend.backend();
        let moduli = ring.basis().moduli();
        let n = he.n();
        let k = moduli.len();
        let kn = k * n;
        let d0 = self.params.d0();
        let rows = self.params.num_rows();
        let ct_words = 2 * kn;
        let row_block = expanded.len() * ct_words;
        if expanded.is_empty() {
            // Nothing to accumulate; leave an explicitly empty result
            // shape instead of feeding a zero chunk size to the scan.
            scratch.reset_accumulators(0, 0, ct_words);
            return Ok(());
        }
        scratch.reset_accumulators(rows, expanded.len(), ct_words);

        // One block's share: its rows of the accumulator matrix, starting
        // at row `start`, over every record slot. The nest is row block →
        // limb → slot group → row → query: for one limb `m` of a block of
        // `ROWSEL_ROW_BLOCK` rows the whole slot range is swept before the
        // next limb starts, so the block's limb-`m` accumulators stay
        // cache-resident and unreduced from the first product to the
        // single fold (one per row and limb — every modulus' `lazy_terms`
        // permitting, as all of Table I's do for D0 = 256); slots advance
        // `MAC_FAN_IN` at a time, so each accumulator word is loaded and
        // stored once per four products; and each expanded limb `ct[i][m]`
        // crosses the cache hierarchy once per row block, not once per
        // row. The database is read as `n`-word limb rows of 4-byte stored
        // words (16 KiB at Table I), every word exactly once per scan.
        let scan = |start: usize, acc: &mut [u64]| {
            for (b, block) in acc.chunks_mut(ROWSEL_ROW_BLOCK * row_block).enumerate() {
                let first = start + b * ROWSEL_ROW_BLOCK;
                for (m, modulus) in moduli.iter().enumerate() {
                    let seg = m * n..(m + 1) * n;
                    let flush = modulus.lazy_terms();
                    let fold = |block: &mut [u64]| {
                        for acc_ct in block.chunks_exact_mut(ct_words) {
                            let (acc_a, acc_b) = acc_ct.split_at_mut(kn);
                            backend.fold_lazy(modulus, &mut acc_a[seg.clone()]);
                            backend.fold_lazy(modulus, &mut acc_b[seg.clone()]);
                        }
                    };
                    let fan_in = MAC_FAN_IN.min(flush);
                    let mut terms: [MacTerm<'_>; MAC_FAN_IN] = [(&[], &[], &[]); MAC_FAN_IN];
                    let mut pending = 0;
                    for lo in (0..d0).step_by(fan_in) {
                        let len = fan_in.min(d0 - lo);
                        if pending + len > flush {
                            fold(block);
                            pending = 0;
                        }
                        for (off, row_acc) in block.chunks_exact_mut(row_block).enumerate() {
                            for (exp, acc_ct) in
                                expanded.iter().zip(row_acc.chunks_exact_mut(ct_words))
                            {
                                for (t, term) in terms[..len].iter_mut().enumerate() {
                                    let w = self.db.poly_words(first + off, lo + t);
                                    let (ea, eb) = exp.slot_words(lo + t);
                                    *term = (&w[seg.clone()], &ea[seg.clone()], &eb[seg.clone()]);
                                }
                                let (acc_a, acc_b) = acc_ct.split_at_mut(kn);
                                backend.mac2_lazy(
                                    modulus,
                                    &mut acc_a[seg.clone()],
                                    &mut acc_b[seg.clone()],
                                    &terms[..len],
                                );
                            }
                        }
                        pending += len;
                    }
                    fold(block);
                }
            }
        };

        // Each aligned block owns a disjoint row range of the shared
        // accumulator matrix, so no reduction is needed and every word is
        // the same sum as in the sequential scan. Block 0 runs here.
        let acc = scratch.acc_mut();
        let blocks = self.row_blocks(rows);
        if blocks == 1 {
            scan(0, acc);
            return Ok(());
        }
        let block_rows = rows / blocks;
        std::thread::scope(|scope| {
            let mut chunks = acc.chunks_mut(block_rows * row_block).enumerate();
            let (_, first) = chunks.next().expect("at least one block");
            for (b, chunk) in chunks {
                let scan = &scan;
                scope.spawn(move || scan(b * block_rows, chunk));
            }
            scan(0, first);
        });
        Ok(())
    }

    /// Step (1): `ExpandQuery` — derive the `D0` one-hot ciphertexts.
    ///
    /// # Errors
    /// Fails when the client registered too few expansion keys.
    pub fn expand(&self, keys: &ClientKeys, query: &PirQuery) -> Result<Expansion, PirError> {
        self.expand_with(keys, query, &mut QueryScratch::new())
    }

    /// `ExpandQuery` with caller-owned scratch for the key-switch `Dcp`
    /// buffers; the returned expansion is the caller's to keep.
    ///
    /// # Errors
    /// Fails when the client registered too few expansion keys.
    pub fn expand_with(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<Expansion, PirError> {
        let mut out = Expansion::empty(self.params.he().ring());
        self.expand_into(keys, query, scratch, &mut out)?;
        Ok(out)
    }

    /// `ExpandQuery` into a buffer the caller already owns.
    fn expand_into(
        &self,
        keys: &ClientKeys,
        query: &PirQuery,
        scratch: &mut QueryScratch,
        out: &mut Expansion,
    ) -> Result<(), PirError> {
        self.expander.expand_into(
            query.packed(),
            keys.subs_keys(),
            self.backend.backend(),
            &mut scratch.arena,
            out,
        )
    }

    /// Step (2): `RowSel` — `ct⁽⁰⁾_r = Σ_{i<D0} DB[r][i] ⊙ ct[i]` for every
    /// row `r` (Eq. 1 / Fig. 5), one aligned row block per worker.
    ///
    /// # Errors
    /// Fails when `expanded.len() != D0`.
    pub fn row_sel(&self, expanded: &Expansion) -> Result<Vec<BfvCiphertext>, PirError> {
        let mut scratch = QueryScratch::new();
        self.row_sel_into(expanded, &mut scratch)?;
        Ok(scratch.row_ciphertexts(self.params.he().ring(), 0))
    }

    /// Single-query `RowSel` into caller-owned scratch (a batch of one;
    /// see [`PirServer::row_sel_batch_into`] for the scan itself).
    ///
    /// # Errors
    /// Fails when `expanded.len() != D0`.
    pub fn row_sel_into(
        &self,
        expanded: &Expansion,
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        self.row_sel_batch_into(std::slice::from_ref(expanded), scratch)
    }

    /// Step (3): `ColTor` — tournament over the row ciphertexts using the
    /// query's RGSW bits.
    ///
    /// # Errors
    /// Fails when the query carries too few selection bits.
    pub fn col_tor_step(
        &self,
        rows: Vec<BfvCiphertext>,
        query: &PirQuery,
    ) -> Result<BfvCiphertext, PirError> {
        col_tor(self.params.he(), rows, query.row_bits(), self.order)
    }

    /// `ColTor` through the selected backend with caller-owned scratch.
    ///
    /// # Errors
    /// Fails when the query carries too few selection bits.
    pub fn col_tor_step_with(
        &self,
        rows: Vec<BfvCiphertext>,
        query: &PirQuery,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        col_tor_with(
            self.params.he(),
            rows,
            query.row_bits(),
            self.order,
            self.backend.backend(),
            &mut scratch.arena,
        )
    }

    /// `ColTor` for every query of the last scan, played in place on its
    /// accumulator rows (which it consumes); each winner is left in row 0.
    ///
    /// On the `P` blocks of [`PirServer::row_blocks`], each block plays
    /// the low `d − p` levels of every query on its own worker and arena,
    /// and the caller finishes with the high `p` bits over the block
    /// winners, which sit `rows/P` rows apart. Every node is the same
    /// `CMux` on the same operands as in one tournament, so the winner is
    /// bit-identical at every width; at `P = 1` it *is* the one
    /// tournament.
    fn col_tor_in_place(
        &self,
        requests: &[(&ClientKeys, &PirQuery)],
        scratch: &mut QueryScratch,
    ) -> Result<(), PirError> {
        let he = self.params.he();
        let backend = self.backend.backend();
        let ct_words = 2 * he.ring().basis().len() * he.n();
        let (rows, stride) = (scratch.rows(), scratch.queries() * ct_words);
        let blocks = self.row_blocks(rows);
        let block_rows = rows / blocks;
        let low = block_rows.trailing_zeros() as usize;
        let d = rows.trailing_zeros() as usize;
        if let Some((_, query)) = requests.iter().find(|(_, q)| q.row_bits().len() < d) {
            return Err(PirError::MissingKeys { got: query.row_bits().len(), need: d });
        }
        // Levels `bits` of every query's tournament over `entries` rows of
        // `words`, `stride` words apart.
        let play = |words: &mut [u64],
                    (entries, stride): (usize, usize),
                    bits: Range<usize>,
                    arena: &mut KernelArena| {
            requests.iter().enumerate().try_for_each(|(slot, (_, query))| {
                col_tor_words(
                    he,
                    &mut words[slot * ct_words..],
                    (entries, stride, ct_words),
                    &query.row_bits()[bits.clone()],
                    self.order,
                    backend,
                    arena,
                )
            })
        };
        let (acc, arena, workers) = scratch.acc_and_arenas(blocks - 1);
        if blocks == 1 {
            return play(acc, (rows, stride), 0..d, arena);
        }
        std::thread::scope(|scope| {
            let mut chunks = acc.chunks_mut(block_rows * stride);
            let first = chunks.next().expect("at least one block");
            let handles: Vec<_> = chunks
                .zip(workers.iter_mut())
                .map(|(block, arena)| {
                    scope.spawn(move || play(block, (block_rows, stride), 0..low, arena))
                })
                .collect();
            let caller = play(first, (block_rows, stride), 0..low, &mut *arena);
            let joined = handles.into_iter().map(|h| h.join().expect("ColTor worker panicked"));
            joined.collect::<Result<(), PirError>>().and(caller)
        })?;
        play(acc, (blocks, block_rows * stride), low..d, arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::db::Database;
    use crate::expand::expand_query;
    use rand::SeedableRng;

    fn records(params: &PirParams) -> Vec<Vec<u8>> {
        (0..params.num_records()).map(|i| format!("record number {i:04}").into_bytes()).collect()
    }

    #[test]
    fn end_to_end_retrieval_every_index() {
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(71)).unwrap();
        // Exhaustive over all 64 records.
        for target in 0..params.num_records() {
            let query = client.query(target).unwrap();
            let response = server.answer(client.public_keys(), &query).unwrap();
            let got = client.decode(&query, &response).unwrap();
            assert_eq!(&got[..recs[target].len()], &recs[target][..], "record {target}");
        }
    }

    #[test]
    fn all_tournament_orders_agree_end_to_end() {
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let mut server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(72)).unwrap();
        let query = client.query(42).unwrap();
        let mut answers = Vec::new();
        for order in [
            TournamentOrder::Bfs,
            TournamentOrder::Dfs,
            TournamentOrder::Hs { subtree_depth: 1 },
            TournamentOrder::Hs { subtree_depth: 2 },
            TournamentOrder::Hs { subtree_depth: 3 },
        ] {
            server.set_tournament_order(order);
            answers.push(server.answer(client.public_keys(), &query).unwrap());
        }
        for a in &answers[1..] {
            assert_eq!(a, &answers[0]);
        }
    }

    #[test]
    fn batched_answers_match_individual_answers() {
        // §III-B functionally: one DB pass serves many clients, and each
        // response is bit-identical to the unbatched one.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut clients: Vec<_> = (0..3)
            .map(|i| PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(200 + i)).unwrap())
            .collect();
        let targets = [5usize, 41, 63];
        let queries: Vec<_> =
            clients.iter_mut().zip(targets).map(|(c, t)| c.query(t).unwrap()).collect();
        let requests: Vec<_> =
            clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
        let batched = server.answer_batch(&requests).unwrap();
        for ((client, query), (response, target)) in
            clients.iter().zip(&queries).zip(batched.iter().zip(targets))
        {
            let solo = server.answer(client.public_keys(), query).unwrap();
            assert_eq!(response, &solo, "batched response diverged");
            let plain = client.decode(query, response).unwrap();
            assert_eq!(&plain[..recs[target].len()], &recs[target][..]);
        }
    }

    #[test]
    fn rowsel_thread_count_does_not_change_answers() {
        // The one row partition — aligned blocks that RowSel scans and
        // ColTor finishes with the high row bits — must be invisible in
        // the answer: every width, tournament order and batch shape
        // reproduces the width-1 answer bit for bit.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let mut server = PirServer::new(&params, db).unwrap();
        assert!(server.rowsel_threads() >= 1);
        let mut clients: Vec<_> = (0..3)
            .map(|i| PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(74 + i)).unwrap())
            .collect();
        let targets = [17usize, 0, 63];
        let queries: Vec<_> =
            clients.iter_mut().zip(targets).map(|(c, t)| c.query(t).unwrap()).collect();
        let requests: Vec<_> =
            clients.iter().zip(&queries).map(|(c, q)| (c.public_keys(), q)).collect();
        for order in [TournamentOrder::Bfs, TournamentOrder::Hs { subtree_depth: 2 }] {
            server.set_tournament_order(order);
            let mut answers = Vec::new();
            // 2 and 4 split the 8 rows evenly, 7 rounds down to 4 aligned
            // blocks, and 64 exceeds the rows (the partition clamps to 8).
            for threads in [1usize, 2, 4, 7, 64] {
                server.set_rowsel_threads(threads);
                assert_eq!(server.rowsel_threads(), threads);
                let single = server.answer(requests[0].0, requests[0].1).unwrap();
                answers.push((single, server.answer_batch(&requests).unwrap()));
            }
            let (single, batch) = &answers[0];
            assert_eq!(single, &batch[0], "batched path diverged from single path");
            for (client, (query, (ct, target))) in
                clients.iter().zip(queries.iter().zip(batch.iter().zip(targets)))
            {
                let plain = client.decode(query, ct).unwrap();
                assert_eq!(&plain[..recs[target].len()], &recs[target][..]);
            }
            for (threads, other) in [2, 4, 7, 64].iter().zip(&answers[1..]) {
                assert_eq!(other, &answers[0], "width {threads} changed the {order:?} answers");
            }
        }
    }

    #[test]
    fn partitioned_tournament_rejects_missing_bits() {
        let params = PirParams::toy();
        let db = Database::from_records(&params, &records(&params)).unwrap();
        let mut server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(78)).unwrap();
        let query = client.query(5).unwrap();
        let bits = query.row_bits();
        let short = PirQuery::from_parts(query.packed().clone(), bits[..bits.len() - 1].to_vec());
        for threads in [1usize, 4] {
            server.set_rowsel_threads(threads);
            assert!(matches!(
                server.answer(client.public_keys(), &short),
                Err(PirError::MissingKeys { need: 3, .. })
            ));
        }
    }

    #[test]
    fn empty_batch_answers_empty() {
        let params = PirParams::toy();
        let db = Database::from_records(&params, &[]).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        assert!(server.answer_batch(&[]).unwrap().is_empty());
        let mut scratch = QueryScratch::new();
        server.row_sel_batch_into(&[], &mut scratch).unwrap();
        assert_eq!((scratch.rows(), scratch.queries()), (0, 0));
    }

    #[test]
    fn coefficient_form_expansion_rejected() {
        // The flat kernels trust raw words, so what the polynomial
        // algebra used to catch must be an error at the door, not a
        // silently wrong answer or a panic inside a scan worker: a
        // coefficient-form query cannot be expanded (and an `Expansion`
        // can only come from `ExpandQuery`, so it is NTT-form by
        // construction), and an expansion of the wrong width or from
        // another ring cannot be scanned.
        let params = PirParams::toy();
        let he = params.he();
        let db = Database::from_records(&params, &records(&params)).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(76)).unwrap();
        let query = client.query(3).unwrap();
        let keys = client.public_keys();

        let mut packed = query.packed().clone();
        packed.a.to_coeff();
        let in_coeff_form = PirQuery::from_parts(packed, query.row_bits().to_vec());
        assert!(matches!(server.expand(keys, &in_coeff_form), Err(PirError::InvalidParams(_))));
        assert!(server.answer(keys, &in_coeff_form).is_err());

        let short = expand_query(he, query.packed(), keys.subs_keys(), params.log_d0() - 1);
        assert!(matches!(server.row_sel(&short.unwrap()), Err(PirError::InvalidParams(_))));

        let ring = ive_math::rns::RingContext::test_ring(he.n(), 2);
        let gadget = ive_math::gadget::Gadget::for_modulus(ring.basis().q_big(), 14);
        let he2 = ive_he::HeParams::new(ring, 16, gadget, gadget, 4).unwrap();
        let other = PirParams::new(he2, params.d0(), params.dims()).unwrap();
        let mut stranger = PirClient::new(&other, rand::rngs::StdRng::seed_from_u64(77)).unwrap();
        let foreign = expand_query(
            other.he(),
            stranger.query(3).unwrap().packed(),
            stranger.public_keys().subs_keys(),
            other.log_d0(),
        )
        .unwrap();
        assert_eq!(foreign.len(), params.d0());
        assert!(matches!(server.row_sel(&foreign), Err(PirError::InvalidParams(_))));
    }

    #[test]
    fn wrong_geometry_rejected() {
        let params = PirParams::toy();
        let smaller = PirParams::new(params.he().clone(), 4, 2).unwrap();
        let db = Database::from_records(&smaller, &[]).unwrap();
        assert!(PirServer::new(&params, db).is_err());
    }

    #[test]
    fn response_noise_stays_within_budget() {
        // §II-C: response error ≈ RowSel error + O(d)·RGSW error, far below Δ/2.
        let params = PirParams::toy();
        let recs = records(&params);
        let db = Database::from_records(&params, &recs).unwrap();
        let server = PirServer::new(&params, db).unwrap();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(73)).unwrap();
        let target = 9;
        let query = client.query(target).unwrap();
        let response = server.answer(client.public_keys(), &query).unwrap();
        let he = params.he();
        let expect = crate::db::plaintext_from_bytes(he, &recs[target]).unwrap();
        let budget = ive_he::noise::noise_budget_bits(he, client.secret_key(), &response, &expect);
        assert!(budget > 5.0, "remaining noise budget only {budget:.1} bits");
    }
}
