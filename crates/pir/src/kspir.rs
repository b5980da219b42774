//! A KsPIR-style single-server scheme (Table IV's second baseline).
//!
//! KsPIR (Luo–Liu–Wang, CCS '24) avoids oblivious query expansion by
//! resolving the within-polynomial dimension with *key-switching*: the
//! server multiplies the query by a database chunk and applies the
//! homomorphic **trace** — `log N` automorphism + key-switch rounds that
//! project a ciphertext onto its constant coefficient (§VI-D: "KsPIR ...
//! relies on automorphism, key-switching, and external products"). The
//! across-chunk dimension is resolved with the same RGSW tournament as
//! OnionPIR.
//!
//! The client encrypts `X^{-pos}` pre-scaled by `Δ·N^{-1} mod Q`, so the
//! `×2` growth of every trace round cancels exactly — the same trick the
//! main scheme uses for `ExpandQuery`.
//!
//! # Schedule
//!
//! One slot query over `2^d` chunks is `2^d` plaintext products, then
//! `2^d − 1` CMux, then `log N` `Subs` — the trace runs **once, on the
//! tournament's winner**, not on every chunk. The two commute: each
//! product `ct ⊙ p_c` is a plain BFV encryption of `(Δ/N)·X^{-pos}·p_c`,
//! the selection bits are constants, so the winner is a plain BFV
//! encryption of `(Δ/N)·X^{-pos}·p_{c*}` for the selected chunk alone
//! and its trace is `Δ·p_{c*}[pos]`, as it would have been before the
//! tournament.
//!
//! What the order changes is the noise: the trace multiplies whatever
//! sits in coefficient 0 by `N`, and now that includes the tournament's
//! additive term `e_t` beside the product's `e_f = (e_fresh·p_c)₀`. With
//! unsigned gadget digits, `σ_t²/σ_f² ≈ d·2ℓ·z²/P²`: `10⁻⁹` at
//! [`HeParams::paper`] with 16 chunks and `3.0` at the toy ring, whose
//! gadget base (2^14) is close to its `P` (2^16). Worst-case budget over
//! 12 retrievals (`trace_after_tournament_matches_reference_*`, against
//! a trace-every-chunk reference built from public primitives):
//!
//! | ring, chunks | this schedule | trace every chunk | of |
//! |---|---|---|---|
//! | paper, 16 | 24.1 bits | 24.1 bits | 75.1 |
//! | toy, 1 | 35.0 | 35.0 | 64.0 |
//! | toy, 2 | 34.7 | 35.7 | 64.0 |
//! | toy, 4 | 33.9 | 35.0 | 64.0 |
//! | toy, 16 | 34.7 | 34.7 | 64.0 |
//!
//! (Expected loss at the toy ring `½·log₂(1 + σ_t²/σ_f²)` = 0.4 / 0.7 /
//! 1.0 bit at 2 / 4 / 16 chunks; a single retrieval's budget is one
//! sample of coefficient 0 and scatters ± 3 bits around that.)

use std::time::Instant;

use rand::Rng;

use ive_he::modswitch::{decrypt_switched, SwitchedCiphertext};
use ive_he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};
use ive_math::rns::{Form, RnsPoly};
use ive_math::wide;

use crate::coltor::{col_tor_words, TournamentOrder};
use crate::expand::expansion_exponents;
use crate::scratch::{QueryScratch, StageTimes};
use crate::PirError;

/// KsPIR-style geometry: `2^log_chunks` database polynomials, each packing
/// `N` scalars of `Z_P`.
#[derive(Debug, Clone)]
pub struct KsPirParams {
    he: HeParams,
    log_chunks: u32,
}

impl KsPirParams {
    /// Builds a geometry with `2^log_chunks` chunks.
    pub fn new(he: HeParams, log_chunks: u32) -> Self {
        KsPirParams { he, log_chunks }
    }

    /// Small parameters for tests (4 chunks of `N = 256` scalars).
    pub fn toy() -> Self {
        KsPirParams::new(HeParams::toy(), 2)
    }

    /// The HE parameters.
    #[inline]
    pub fn he(&self) -> &HeParams {
        &self.he
    }

    /// Number of chunks.
    #[inline]
    pub fn chunks(&self) -> usize {
        1 << self.log_chunks
    }

    /// Binary across-chunk dimensions.
    #[inline]
    pub fn log_chunks(&self) -> u32 {
        self.log_chunks
    }

    /// Total scalar capacity.
    #[inline]
    pub fn num_scalars(&self) -> usize {
        self.chunks() * self.he.n()
    }

    /// Splits a scalar index into `(chunk, position)`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn split_index(&self, index: usize) -> (usize, usize) {
        assert!(index < self.num_scalars());
        (index / self.he.n(), index % self.he.n())
    }
}

/// Client-held keys: trace keys (`log N` evks) shared with the server.
#[derive(Debug, Clone)]
pub struct KsPirKeys {
    trace: Vec<SubsKey>,
}

impl KsPirKeys {
    /// Reassembles a key set from its trace keys (the wire decoder's
    /// constructor; pair with [`KsPirKeys::trace_keys`]).
    pub fn from_parts(trace: Vec<SubsKey>) -> Self {
        KsPirKeys { trace }
    }

    /// The trace evaluation keys, ordered by round.
    #[inline]
    pub fn trace_keys(&self) -> &[SubsKey] {
        &self.trace
    }
}

/// A KsPIR-style query.
#[derive(Debug, Clone)]
pub struct KsPirQuery {
    ct: BfvCiphertext,
    chunk_bits: Vec<RgswCiphertext>,
}

impl KsPirQuery {
    /// Reassembles a query from its parts (the wire decoder's
    /// constructor).
    pub fn from_parts(ct: BfvCiphertext, chunk_bits: Vec<RgswCiphertext>) -> Self {
        KsPirQuery { ct, chunk_bits }
    }

    /// The pre-scaled monomial ciphertext.
    #[inline]
    pub fn ct(&self) -> &BfvCiphertext {
        &self.ct
    }

    /// The RGSW chunk-selection bits, LSB first.
    #[inline]
    pub fn chunk_bits(&self) -> &[RgswCiphertext] {
        &self.chunk_bits
    }
}

/// The server: preprocessed chunk polynomials, plus the raw scalars they
/// were packed from so a mutation can re-pack only the touched chunks.
#[derive(Debug)]
pub struct KsPirServer {
    params: KsPirParams,
    scalars: Vec<u64>,
    chunk_polys: Vec<RnsPoly>,
}

impl KsPirServer {
    /// Packs `Z_P` scalars into chunk polynomials (padded with zeros).
    ///
    /// # Errors
    /// Fails when a scalar is `>= P` or too many are supplied.
    pub fn new(params: KsPirParams, scalars: &[u64]) -> Result<Self, PirError> {
        if scalars.len() > params.num_scalars() {
            return Err(PirError::TooManyRecords {
                got: scalars.len(),
                capacity: params.num_scalars(),
            });
        }
        let he = params.he();
        let n = he.n();
        let mut padded = scalars.to_vec();
        padded.resize(params.num_scalars(), 0);
        let mut chunk_polys = Vec::with_capacity(params.chunks());
        for c in 0..params.chunks() {
            chunk_polys.push(pack_chunk(he, &padded[c * n..(c + 1) * n])?);
        }
        Ok(KsPirServer { params, scalars: padded, chunk_polys })
    }

    /// The geometry.
    #[inline]
    pub fn params(&self) -> &KsPirParams {
        &self.params
    }

    /// The raw scalars the chunk polynomials were packed from (padded to
    /// [`KsPirParams::num_scalars`]).
    #[inline]
    pub fn scalars(&self) -> &[u64] {
        &self.scalars
    }

    /// A new server with the given `(slot, value)` writes applied,
    /// re-packing **only the touched chunks** — the epoch-swap mutation
    /// path (O(touched chunks) NTTs, not O(database)). Writes apply in
    /// order, so a later write to the same slot wins.
    ///
    /// # Errors
    /// Fails on an out-of-range slot or a value `>= P`; nothing is
    /// applied on error.
    pub fn with_updates(&self, writes: &[(usize, u64)]) -> Result<KsPirServer, PirError> {
        let he = self.params.he();
        let n = he.n();
        for &(slot, value) in writes {
            if slot >= self.scalars.len() {
                return Err(PirError::IndexOutOfRange { index: slot, records: self.scalars.len() });
            }
            if value >= he.p() {
                return Err(PirError::InvalidParams(format!(
                    "scalar {value} is not below the plaintext modulus {}",
                    he.p()
                )));
            }
        }
        let mut scalars = self.scalars.clone();
        let mut touched: Vec<usize> = Vec::new();
        for &(slot, value) in writes {
            scalars[slot] = value;
            let chunk = slot / n;
            if !touched.contains(&chunk) {
                touched.push(chunk);
            }
        }
        let mut chunk_polys = self.chunk_polys.clone();
        for &c in &touched {
            chunk_polys[c] = pack_chunk(he, &scalars[c * n..(c + 1) * n])?;
        }
        Ok(KsPirServer { params: self.params.clone(), scalars, chunk_polys })
    }

    /// Answers a query on a cold scratch (see [`KsPirServer::answer_with`]
    /// for the schedule).
    ///
    /// # Errors
    /// Fails when keys or selection bits are missing.
    pub fn answer(&self, keys: &KsPirKeys, query: &KsPirQuery) -> Result<BfvCiphertext, PirError> {
        self.answer_with(keys, query, kernel::default_backend(), &mut QueryScratch::new())
    }

    /// Answers a query through an explicit kernel backend on the caller's
    /// scratch — the serving path. The module doc's schedule, on flat NTT
    /// words: (1) the `2^d` products `query.ct ⊙ chunk_c` into one
    /// `chunks × 2·k·n` arena buffer; (2) the tournament in place over
    /// that buffer; (3) the trace on the winner, every round's `Subs`
    /// landing in one ciphertext-sized arena buffer; (4) the response
    /// copied out of the winner — the only allocation once `scratch` is
    /// warm. The three step durations are left in
    /// [`QueryScratch::stage_times`]: products as `row_sel`, tournament as
    /// `col_tor`, trace as `expand`.
    ///
    /// # Errors
    /// Fails when keys or selection bits are missing, or the query
    /// ciphertext is not an NTT-form ciphertext of the server's ring.
    pub fn answer_with(
        &self,
        keys: &KsPirKeys,
        query: &KsPirQuery,
        backend: &dyn VpeBackend,
        scratch: &mut QueryScratch,
    ) -> Result<BfvCiphertext, PirError> {
        let he = self.params.he();
        let ring = he.ring();
        let rounds = ive_math::log2_exact(he.n())? as usize;
        if keys.trace.len() < rounds {
            return Err(PirError::MissingKeys { got: keys.trace.len(), need: rounds });
        }
        // The flat kernels below trust raw words.
        for poly in [&query.ct.a, &query.ct.b] {
            if poly.form() != Form::Ntt || **poly.ctx() != **ring {
                return Err(PirError::InvalidParams(
                    "KsPIR needs an NTT-form query ciphertext of the server's ring".into(),
                ));
            }
        }
        let moduli = ring.basis().moduli();
        let kn = moduli.len() * he.n();
        let ct_words = 2 * kn;
        let chunks = self.chunk_polys.len();
        let arena = &mut scratch.arena;

        // Step 1: the 2^d plaintext products, `[a ⊙ p_c | b ⊙ p_c]` per entry.
        let t = Instant::now();
        let mut products = arena.take_u64_stale(chunks * ct_words);
        for (entry, poly) in products.chunks_exact_mut(ct_words).zip(&self.chunk_polys) {
            let (a, b) = entry.split_at_mut(kn);
            a.copy_from_slice(query.ct.a.as_words());
            b.copy_from_slice(query.ct.b.as_words());
            kernel::pointwise_mul_poly(backend, moduli, a, poly.as_words());
            kernel::pointwise_mul_poly(backend, moduli, b, poly.as_words());
        }
        let row_sel = t.elapsed();

        // Step 2: the tournament in place; the winner lands in entry 0.
        let t = Instant::now();
        col_tor_words(
            he,
            &mut products,
            (chunks, ct_words, ct_words),
            &query.chunk_bits,
            TournamentOrder::Dfs,
            backend,
            arena,
        )?;
        let col_tor = t.elapsed();

        // Step 3: one trace, on the winner.
        let t = Instant::now();
        trace(he, &mut products[..ct_words], &keys.trace[..rounds], backend, arena)?;
        let expand = t.elapsed();

        // Step 4: the response — the only allocation of a warm call.
        let response = ciphertext_from_words(he, &products[..ct_words]);
        arena.give_u64(products);
        scratch.stage_times = StageTimes { expand, row_sel, col_tor };
        Ok(response)
    }
}

/// Packs one chunk of `N` scalars into an NTT-form plaintext polynomial.
fn pack_chunk(he: &HeParams, vals: &[u64]) -> Result<RnsPoly, PirError> {
    let pt =
        Plaintext::new(he, vals.to_vec()).map_err(|e| PirError::InvalidParams(e.to_string()))?;
    Ok(pt.to_ntt_poly(he))
}

/// Copies one flat NTT-form ciphertext (`[a | b]`, `k·n` words each) out
/// as a [`BfvCiphertext`].
fn ciphertext_from_words(he: &HeParams, ct: &[u64]) -> BfvCiphertext {
    let (a, b) = ct.split_at(ct.len() / 2);
    let poly = |w: &[u64]| {
        RnsPoly::from_words(he.ring(), Form::Ntt, w.to_vec()).expect("entry has ring shape")
    };
    BfvCiphertext { a: poly(a), b: poly(b) }
}

/// Homomorphic trace in place on one flat NTT-form ciphertext
/// (`[a | b]`, `k·n` words each): one round of `ct ← ct + Subs(ct, N/2^j + 1)`
/// per key, projecting onto the constant coefficient (scaled by `N`).
/// Every round's `Subs` lands in one ciphertext-sized `arena` buffer.
fn trace(
    he: &HeParams,
    ct: &mut [u64],
    keys: &[SubsKey],
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<(), PirError> {
    let moduli = he.ring().basis().moduli();
    let kn = ct.len() / 2;
    let mut sub = arena.take_u64_stale(ct.len());
    for key in keys {
        let (a, b) = ct.split_at(kn);
        let (sub_a, sub_b) = sub.split_at_mut(kn);
        key.apply_words(he, (a, b), (sub_a, sub_b), backend, arena)?;
        // The flat ciphertext cycles limb rows with period k.
        let limbs = ct.chunks_exact_mut(he.n()).zip(sub.chunks_exact(he.n()));
        for (c, (ct, sub)) in limbs.enumerate() {
            let modulus = &moduli[c % moduli.len()];
            for (x, &s) in ct.iter_mut().zip(sub) {
                *x = modulus.add(*x, s);
            }
        }
    }
    arena.give_u64(sub);
    Ok(())
}

/// The KsPIR-style client.
#[derive(Debug)]
pub struct KsPirClient<R: Rng> {
    params: KsPirParams,
    sk: SecretKey,
    keys: KsPirKeys,
    rng: R,
}

impl<R: Rng> KsPirClient<R> {
    /// Generates secret and trace keys.
    ///
    /// # Errors
    /// Infallible for valid parameters; fallible for API stability.
    pub fn new(params: &KsPirParams, mut rng: R) -> Result<Self, PirError> {
        let he = params.he();
        let sk = SecretKey::generate(he, &mut rng);
        let rounds = ive_math::log2_exact(he.n())?;
        let trace = expansion_exponents(he.n(), rounds)
            .into_iter()
            .map(|r| SubsKey::generate(he, &sk, r, &mut rng))
            .collect();
        Ok(KsPirClient { params: params.clone(), sk, keys: KsPirKeys { trace }, rng })
    }

    /// The public trace keys.
    #[inline]
    pub fn public_keys(&self) -> &KsPirKeys {
        &self.keys
    }

    /// Builds a query for scalar `index`.
    ///
    /// # Errors
    /// Fails when out of range.
    pub fn query(&mut self, index: usize) -> Result<KsPirQuery, PirError> {
        if index >= self.params.num_scalars() {
            return Err(PirError::IndexOutOfRange { index, records: self.params.num_scalars() });
        }
        let he = self.params.he();
        let (chunk, pos) = self.params.split_index(index);
        let n = he.n();
        let q = he.q_big();
        let rounds = ive_math::log2_exact(n)? as u32;
        // Scale Δ·N^{-1} mod Q; message X^{-pos} = −X^{N−pos} realized by
        // negating the scale for pos > 0.
        let inv_n = he.inv_two_pow(rounds);
        let (hi, lo) = wide::mul_u128(he.delta(), inv_n);
        let mut scale = wide::div_rem_wide(hi, lo, q).1;
        let degree = if pos == 0 {
            0
        } else {
            scale = q - scale;
            n - pos
        };
        let m = Plaintext::monomial(he, degree, 1)?;
        let ct = BfvCiphertext::encrypt_scaled(he, &self.sk, &m, scale, &mut self.rng);
        let chunk_bits = (0..self.params.log_chunks())
            .map(|t| {
                let bit = (chunk >> t) & 1 == 1;
                RgswCiphertext::encrypt_bit(he, &self.sk, bit, &mut self.rng)
            })
            .collect();
        Ok(KsPirQuery { ct, chunk_bits })
    }

    /// Decodes the response: the retrieved scalar sits in coefficient 0.
    ///
    /// # Errors
    /// Infallible today; fallible for API stability.
    pub fn decode(&self, response: &BfvCiphertext) -> Result<u64, PirError> {
        let he = self.params.he();
        let pt = response.decrypt(he, &self.sk);
        Ok(pt.values()[0])
    }

    /// Decodes a modulus-switched response (Table VIII's response
    /// compression): the same scalar, recovered from only the retained
    /// residues.
    ///
    /// # Errors
    /// Infallible today; fallible for API stability.
    pub fn decode_switched(&self, response: &SwitchedCiphertext) -> Result<u64, PirError> {
        let he = self.params.he();
        let pt = decrypt_switched(he, &self.sk, response);
        Ok(pt.values()[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coltor::col_tor;
    use ive_he::modswitch::switch_to_first_prime;
    use ive_he::noise::noise_budget_bits;
    use rand::SeedableRng;

    #[test]
    fn retrieves_scalars_across_chunks_and_positions() {
        let params = KsPirParams::toy();
        let total = params.num_scalars();
        let scalars: Vec<u64> = (0..total).map(|i| (i as u64 * 31 + 5) % params.he().p()).collect();
        let server = KsPirServer::new(params.clone(), &scalars).unwrap();
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(91)).unwrap();
        let n = params.he().n();
        for index in [0usize, 1, n - 1, n, n + 17, total - 1] {
            let query = client.query(index).unwrap();
            let response = server.answer(client.public_keys(), &query).unwrap();
            assert_eq!(client.decode(&response).unwrap(), scalars[index], "index {index}");
        }
    }

    #[test]
    fn trace_projects_constant_coefficient() {
        let params = KsPirParams::toy();
        let he = params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(92);
        let sk = SecretKey::generate(he, &mut rng);
        let rounds = ive_math::log2_exact(he.n()).unwrap();
        let keys: Vec<SubsKey> = expansion_exponents(he.n(), rounds)
            .into_iter()
            .map(|r| SubsKey::generate(he, &sk, r, &mut rng))
            .collect();
        // Message with every coefficient set; trace must keep N·m_0 — with
        // the 2^{-log N} pre-scaling, exactly m_0.
        let vals: Vec<u64> = (0..he.n()).map(|i| (i as u64 + 3) % he.p()).collect();
        let m = Plaintext::new(he, vals.clone()).unwrap();
        let q = he.q_big();
        let inv_n = he.inv_two_pow(rounds);
        let (hi, lo) = wide::mul_u128(he.delta(), inv_n);
        let scale = wide::div_rem_wide(hi, lo, q).1;
        let ct = BfvCiphertext::encrypt_scaled(he, &sk, &m, scale, &mut rng);
        let mut words = [ct.a.as_words(), ct.b.as_words()].concat();
        trace(he, &mut words, &keys, kernel::default_backend(), &mut KernelArena::new()).unwrap();
        let out = ciphertext_from_words(he, &words).decrypt(he, &sk);
        assert_eq!(out.values()[0], vals[0]);
        assert!(out.values()[1..].iter().all(|&v| v == 0));
    }

    /// The schedule `answer_with` replaced — trace every chunk's product,
    /// then play the tournament — from public primitives only.
    fn per_chunk_trace_reference(
        server: &KsPirServer,
        keys: &KsPirKeys,
        query: &KsPirQuery,
    ) -> BfvCiphertext {
        let he = server.params.he();
        let traced = server
            .chunk_polys
            .iter()
            .map(|poly| {
                let mut ct = query.ct.clone();
                ct.mul_plain_assign(poly).unwrap();
                for key in &keys.trace {
                    let sub = key.apply(he, &ct).unwrap();
                    ct.add_assign(&sub).unwrap();
                }
                ct
            })
            .collect();
        col_tor(he, traced, &query.chunk_bits, TournamentOrder::Dfs).unwrap()
    }

    /// `answer` against the per-chunk-trace reference over 12 retrievals
    /// at the edges of the first and last chunk: every pair decrypts to
    /// the same whole plaintext and the compressed answer still decodes;
    /// the worst-case noise budget is at least `min_budget` bits and at
    /// most `max_loss` bits below the reference's. (Worst case, not per
    /// retrieval: after a trace the budget is set by coefficient 0 alone,
    /// one sample, and single retrievals scatter ± 3 bits either way.)
    /// Returns the worst-case `(answer, reference)` budgets.
    fn assert_matches_reference(
        params: &KsPirParams,
        seed: u64,
        min_budget: f64,
        max_loss: f64,
    ) -> (f64, f64) {
        let he = params.he();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scalars: Vec<u64> =
            (0..params.num_scalars()).map(|_| rng.gen_range(0..he.p())).collect();
        let server = KsPirServer::new(params.clone(), &scalars).unwrap();
        let mut client = KsPirClient::new(params, rng).unwrap();
        let n = he.n();
        let last = (params.chunks() - 1) * n;
        // With one chunk, first and last coincide: still 12 retrievals.
        let indices = [0, 1, n - 1, last, last + 1, last + n - 1];
        let mut worst = (f64::INFINITY, f64::INFINITY);
        for index in indices.into_iter().cycle().take(12) {
            let query = client.query(index).unwrap();
            let got = server.answer(client.public_keys(), &query).unwrap();
            let reference = per_chunk_trace_reference(&server, client.public_keys(), &query);
            let mut vals = vec![0; n];
            vals[0] = scalars[index];
            let expect = Plaintext::new(he, vals).unwrap();
            assert_eq!(got.decrypt(he, &client.sk), expect, "answer, index {index}");
            assert_eq!(reference.decrypt(he, &client.sk), expect, "reference, index {index}");
            worst.0 = worst.0.min(noise_budget_bits(he, &client.sk, &got, &expect));
            worst.1 = worst.1.min(noise_budget_bits(he, &client.sk, &reference, &expect));
            let switched = switch_to_first_prime(he, &got).unwrap();
            assert_eq!(client.decode_switched(&switched).unwrap(), scalars[index]);
        }
        assert!(
            worst.0 >= min_budget && worst.0 >= worst.1 - max_loss,
            "{} chunks: {:.1} bits left, reference {:.1}; floor {min_budget}, loss allowed \
             {max_loss}",
            params.chunks(),
            worst.0,
            worst.1
        );
        worst
    }

    /// At the toy ring the gadget base (2^14) is close to `P` (2^16), so
    /// the tournament's noise is the same order as the product's and
    /// tracing it costs up to a bit at 16 chunks (see the module doc).
    #[test]
    fn trace_after_tournament_matches_reference_toy() {
        for d in [0, 1, 2, 4] {
            let params = KsPirParams::new(HeParams::toy(), d);
            let (got, reference) = assert_matches_reference(&params, 300 + u64::from(d), 30.0, 1.5);
            println!("toy ring, {} chunks: {got:.1} bits left, reference {reference:.1}", 1 << d);
        }
    }

    /// 16 chunks × 12 trace rounds per reference answer at `N = 4096`:
    /// release only.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn trace_after_tournament_matches_reference_paper_ring() {
        let params = KsPirParams::new(HeParams::paper(), 4);
        let (got, reference) = assert_matches_reference(&params, 304, 20.0, 1.0);
        println!("paper ring, 16 chunks: {got:.1} bits left, reference {reference:.1}");
    }

    #[test]
    fn with_updates_matches_cold_repack_and_touches_only_written_chunks() {
        let params = KsPirParams::toy();
        let he = params.he();
        let n = he.n();
        let mut scalars: Vec<u64> = (0..params.num_scalars()).map(|i| i as u64 % he.p()).collect();
        let server = KsPirServer::new(params.clone(), &scalars).unwrap();
        // Both writes land in chunk 1; later write to the same slot wins.
        let writes = [(n + 2, 77u64), (n + 2, 78), (n + 9, 5)];
        let updated = server.with_updates(&writes).unwrap();
        for &(slot, value) in &writes {
            scalars[slot] = value;
        }
        let rebuilt = KsPirServer::new(params.clone(), &scalars).unwrap();
        assert_eq!(updated.scalars(), rebuilt.scalars());
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(94)).unwrap();
        for index in [0usize, n + 2, n + 9, params.num_scalars() - 1] {
            let query = client.query(index).unwrap();
            let a = updated.answer(client.public_keys(), &query).unwrap();
            let b = rebuilt.answer(client.public_keys(), &query).unwrap();
            assert_eq!(a, b, "incremental repack diverged at index {index}");
        }
        // Validation is atomic: a bad write leaves the server untouched.
        assert!(server.with_updates(&[(0, he.p())]).is_err());
        assert!(server.with_updates(&[(params.num_scalars(), 0)]).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let params = KsPirParams::toy();
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(93)).unwrap();
        assert!(client.query(params.num_scalars()).is_err());
    }

    #[test]
    fn too_many_scalars_rejected() {
        let params = KsPirParams::toy();
        let scalars = vec![0u64; params.num_scalars() + 1];
        assert!(KsPirServer::new(params, &scalars).is_err());
    }
}
