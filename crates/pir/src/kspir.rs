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

use ive_he::modswitch::SwitchedCiphertext;
use ive_he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};
use ive_math::mask::{MaskSeed, MaskStream};
use ive_math::modulus::Modulus;
use ive_math::rns::{Form, RnsBasis, RnsPoly};
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

/// Client-held keys: trace keys (`log N` evks) shared with the server,
/// every row mask drawn from one stream under [`KsPirKeys::seed`] (key by
/// key, row by row).
#[derive(Debug, Clone)]
pub struct KsPirKeys {
    seed: MaskSeed,
    trace: Vec<SubsKey>,
}

impl KsPirKeys {
    /// The key set whose masks `seed` expands to — built only by the
    /// client and by the wire decoder.
    pub(crate) fn from_seeded(seed: MaskSeed, trace: Vec<SubsKey>) -> Self {
        KsPirKeys { seed, trace }
    }

    /// The seed of the set's mask stream.
    #[inline]
    pub fn seed(&self) -> &MaskSeed {
        &self.seed
    }

    /// The trace evaluation keys, ordered by round.
    #[inline]
    pub fn trace_keys(&self) -> &[SubsKey] {
        &self.trace
    }
}

/// A KsPIR-style query: one BFV ciphertext and `d` RGSW chunk bits, their
/// masks the consecutive draws of one stream under [`KsPirQuery::seed`]
/// (the ciphertext's first, then each bit's rows in order) — the same
/// layout, and the same v3 wire body, as a [`crate::PirQuery`].
#[derive(Debug, Clone)]
pub struct KsPirQuery {
    seed: MaskSeed,
    ct: BfvCiphertext,
    chunk_bits: Vec<RgswCiphertext>,
}

impl KsPirQuery {
    /// The query whose masks `seed` expands to — built only by the client
    /// and by the wire decoder.
    pub(crate) fn from_seeded(
        seed: MaskSeed,
        ct: BfvCiphertext,
        chunk_bits: Vec<RgswCiphertext>,
    ) -> Self {
        KsPirQuery { seed, ct, chunk_bits }
    }

    /// The seed of the query's mask stream.
    #[inline]
    pub fn seed(&self) -> &MaskSeed {
        &self.seed
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
        let mut masks = MaskStream::fresh(&mut rng);
        let trace = expansion_exponents(he.n(), rounds)
            .into_iter()
            .map(|r| SubsKey::generate_seeded(he, &sk, r, &mut masks, &mut rng))
            .collect();
        let keys = KsPirKeys::from_seeded(*masks.seed(), trace);
        Ok(KsPirClient { params: params.clone(), sk, keys, rng })
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
        // A fresh seed per query: every mask of it, and only of it.
        let mut masks = MaskStream::fresh(&mut self.rng);
        let ct = BfvCiphertext::encrypt_seeded(he, &self.sk, &m, scale, &mut masks, &mut self.rng);
        let chunk_bits = (0..self.params.log_chunks())
            .map(|t| {
                let bit = (chunk >> t) & 1 == 1;
                RgswCiphertext::encrypt_bit_seeded(he, &self.sk, bit, &mut masks, &mut self.rng)
            })
            .collect();
        Ok(KsPirQuery::from_seeded(*masks.seed(), ct, chunk_bits))
    }

    /// Decodes the response: the retrieved scalar sits in coefficient 0,
    /// and only coefficient 0 of the phase is computed — per limb, then
    /// one CRT and one rounding.
    ///
    /// # Errors
    /// Infallible today; fallible for API stability.
    pub fn decode(&self, response: &BfvCiphertext) -> Result<u64, PirError> {
        let he = self.params.he();
        let ring = he.ring();
        let (a, b) = (&response.a, &response.b);
        let s = match a.form() {
            Form::Ntt => self.sk.ntt(),
            Form::Coeff => self.sk.coeff(),
        };
        let residues = ring.basis().moduli().iter().enumerate().map(|(m, modulus)| {
            let n_inv = ring.ntt(m).n_inv().value;
            let b0 = limb_coeff0(modulus, n_inv, b.form(), b.residue(m), None);
            let as0 = limb_coeff0(modulus, n_inv, a.form(), a.residue(m), Some(s.residue(m)));
            modulus.sub(b0, as0)
        });
        Ok(decode_coeff0(he, ring.basis(), residues))
    }

    /// Decodes a modulus-switched response (Table VIII's response
    /// compression): the same scalar, recovered from only the retained
    /// residues — again coefficient 0 of the phase alone.
    ///
    /// # Errors
    /// Fails when the response retains no prime.
    pub fn decode_switched(&self, response: &SwitchedCiphertext) -> Result<u64, PirError> {
        let he = self.params.he();
        let (n, primes) = (he.n(), response.primes);
        let moduli = &he.ring().basis().moduli()[..primes];
        let prefix = RnsBasis::new(moduli.to_vec()).map_err(ive_he::HeError::from)?;
        let residues = moduli.iter().enumerate().map(|(m, modulus)| {
            let (a, b) = (&response.a[m * n..][..n], &response.b[m * n..][..n]);
            let as0 = limb_coeff0(modulus, 0, Form::Coeff, a, Some(self.sk.coeff().residue(m)));
            modulus.sub(b[0], as0)
        });
        Ok(decode_coeff0(he, &prefix, residues))
    }
}

/// Rounds coefficient 0 of a phase, given per limb of `basis`, to the
/// plaintext: one CRT and one `round(P·φ₀/Q) mod P` — the decrypt's
/// rounding for the one coefficient a KsPIR response carries.
fn decode_coeff0(he: &HeParams, basis: &RnsBasis, residues: impl Iterator<Item = u64>) -> u64 {
    let residues: Vec<u64> = residues.collect();
    let phase = basis.from_residues(&residues);
    let p = u128::from(he.p());
    (wide::mul_div_round(phase, p, basis.q_big()) % p) as u64
}

/// Coefficient 0, mod `q`, of one limb row `x` (`y = None`) or of the
/// product `x·y`, both in `form`: in the NTT domain `n⁻¹·Σ_j x_j·y_j`
/// (the sum of a polynomial's values at all `n` roots of `X^n + 1` is
/// `n` times its constant term); in the coefficient domain `x_0·y_0 −
/// Σ_{i≥1} x_i·y_{n−i}` (the negacyclic wrap). `n_inv` is `n⁻¹ mod q`.
fn limb_coeff0(modulus: &Modulus, n_inv: u64, form: Form, x: &[u64], y: Option<&[u64]>) -> u64 {
    match (form, y) {
        (Form::Ntt, None) => modulus.mul(n_inv, dot(modulus, x.iter().map(|&x| (x, 1)))),
        (Form::Ntt, Some(y)) => {
            modulus.mul(n_inv, dot(modulus, x.iter().copied().zip(y.iter().copied())))
        }
        (Form::Coeff, None) => x[0],
        (Form::Coeff, Some(y)) => {
            let wrap = x[1..].iter().copied().zip(y[1..].iter().rev().copied());
            modulus.sub(modulus.mul(x[0], y[0]), dot(modulus, wrap))
        }
    }
}

/// `Σ x·y mod q` over canonical pairs: plain `u64` sums folded every
/// [`Modulus::lazy_terms`] products for `q < 2^32`, a reduction per
/// product above.
fn dot(modulus: &Modulus, pairs: impl Iterator<Item = (u64, u64)>) -> u64 {
    if modulus.bits() > 32 {
        return pairs.fold(0, |acc, (x, y)| modulus.add(acc, modulus.mul(x, y)));
    }
    let (terms, mut acc, mut lazy, mut count) = (modulus.lazy_terms(), 0, 0u64, 0);
    for (x, y) in pairs {
        lazy += x * y;
        count += 1;
        if count == terms {
            acc = modulus.add(acc, modulus.reduce_u128(lazy.into()));
            (lazy, count) = (0, 0);
        }
    }
    modulus.add(acc, modulus.reduce_u128(lazy.into()))
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

    /// A ciphertext under `sk` whose phase is `phase` (coefficient form,
    /// wide), its mask uniform; both polynomials in `form`.
    fn with_phase(he: &HeParams, sk: &SecretKey, phase: &[u128], form: Form) -> BfvCiphertext {
        let mut rng = rand::rngs::StdRng::seed_from_u64(phase[0] as u64);
        let a = RnsPoly::sample_uniform(he.ring(), Form::Ntt, &mut rng);
        let mut b = a.clone();
        b.mul_assign_pointwise(sk.ntt()).unwrap();
        let mut phi = RnsPoly::from_coeffs_u128(he.ring(), phase);
        phi.to_ntt();
        b.add_assign(&phi).unwrap();
        let mut ct = BfvCiphertext { a, b };
        if form == Form::Coeff {
            ct.a.to_coeff();
            ct.b.to_coeff();
        }
        ct
    }

    /// Phases whose coefficient 0 is random, or within ±2 of a rounding
    /// boundary `(k + ½)·Q/P` (and of 0 and `Q − 1`), the rest random.
    fn phases(he: &HeParams, seed: u64) -> Vec<Vec<u128>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (q, p) = (he.q_big(), u128::from(he.p()));
        let mut zeros: Vec<u128> = (0..8).map(|_| rng.gen::<u128>() % q).collect();
        for k in [0, 1, p / 2, p - 1] {
            // ⌈(2k + 1)·Q / 2P⌉, the product taken wide.
            let (hi, lo) = wide::mul_u128(2 * k + 1, q);
            let (quot, rem) = wide::div_rem_wide(hi, lo, 2 * p);
            let boundary = quot + u128::from(rem > 0);
            zeros.extend((0..5).map(|d| (boundary + q - 2 + d) % q));
        }
        zeros.extend([0, 1, 2, q - 2, q - 1]);
        zeros
            .into_iter()
            .map(|c0| {
                let mut phase: Vec<u128> = (0..he.n()).map(|_| rng.gen::<u128>() % q).collect();
                phase[0] = c0;
                phase
            })
            .collect()
    }

    /// `decode` reads coefficient 0 of the phase alone; it equals the full
    /// decrypt's coefficient 0 on random ciphertexts in either form, at
    /// and beside every kind of rounding boundary.
    #[test]
    fn coefficient_zero_decode_matches_the_full_decrypt() {
        for he in [HeParams::toy(), HeParams::paper()] {
            let params = KsPirParams::new(he.clone(), 1);
            let client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(95)).unwrap();
            for (i, phase) in phases(&he, 96).iter().enumerate() {
                for form in [Form::Ntt, Form::Coeff] {
                    let ct = with_phase(&he, &client.sk, phase, form);
                    let want = ct.decrypt(&he, &client.sk).values()[0];
                    assert_eq!(client.decode(&ct).unwrap(), want, "n = {}, phase {i}", he.n());
                }
            }
        }
    }

    /// `decode_switched` against the full switched decrypt, on switched
    /// ciphertexts of random ones and of ones at rounding boundaries.
    #[test]
    fn coefficient_zero_switched_decode_matches_the_full_path() {
        for he in [HeParams::toy(), HeParams::paper()] {
            let params = KsPirParams::new(he.clone(), 1);
            let client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(97)).unwrap();
            for (i, phase) in phases(&he, 98).iter().enumerate() {
                let ct = with_phase(&he, &client.sk, phase, Form::Ntt);
                for primes in 1..=he.ring().basis().len() {
                    let switched = ive_he::modswitch::switch_to_primes(&he, &ct, primes).unwrap();
                    let want = ive_he::modswitch::decrypt_switched(&he, &client.sk, &switched);
                    let got = client.decode_switched(&switched).unwrap();
                    assert_eq!(got, want.values()[0], "n = {}, phase {i}, {primes} primes", he.n());
                }
            }
        }
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
