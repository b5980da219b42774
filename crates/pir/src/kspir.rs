//! A KsPIR-style single-server scheme (Table IV's second baseline).
//!
//! KsPIR (Luo–Liu–Wang, CCS '24) avoids oblivious query expansion by
//! resolving the within-polynomial dimension with *key-switching*: the
//! server multiplies the query by each database chunk and applies the
//! homomorphic **trace** — `log N` automorphism + key-switch rounds that
//! project a ciphertext onto its constant coefficient (§VI-D: "KsPIR ...
//! relies on automorphism, key-switching, and external products"). The
//! across-chunk dimension is resolved with the same RGSW tournament as
//! OnionPIR.
//!
//! The client encrypts `X^{-pos}` pre-scaled by `Δ·N^{-1} mod Q`, so the
//! `×2` growth of every trace round cancels exactly — the same trick the
//! main scheme uses for `ExpandQuery`.

use rand::Rng;

use ive_he::modswitch::{decrypt_switched, SwitchedCiphertext};
use ive_he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey, SubsKey};
use ive_math::arena::KernelArena;
use ive_math::kernel::{self, VpeBackend};
use ive_math::rns::RnsPoly;
use ive_math::wide;

use crate::coltor::{col_tor_with, TournamentOrder};
use crate::expand::expansion_exponents;
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

    /// Answers a query: per chunk, plaintext product + trace; then the
    /// RGSW tournament across chunks.
    ///
    /// # Errors
    /// Fails when keys or selection bits are missing.
    pub fn answer(&self, keys: &KsPirKeys, query: &KsPirQuery) -> Result<BfvCiphertext, PirError> {
        self.answer_with(keys, query, kernel::default_backend(), &mut KernelArena::new())
    }

    /// [`KsPirServer::answer`] through an explicit kernel backend, with
    /// every key-switch's and CMux's `Dcp` scratch drawn from `arena` —
    /// the serving path: one warm buffer set serves all
    /// `chunks · log N` trace rounds and the tournament.
    ///
    /// # Errors
    /// Fails when keys or selection bits are missing.
    pub fn answer_with(
        &self,
        keys: &KsPirKeys,
        query: &KsPirQuery,
        backend: &dyn VpeBackend,
        arena: &mut KernelArena,
    ) -> Result<BfvCiphertext, PirError> {
        let he = self.params.he();
        let rounds = ive_math::log2_exact(he.n())?;
        if keys.trace.len() < rounds as usize {
            return Err(PirError::MissingKeys { got: keys.trace.len(), need: rounds as usize });
        }
        let mut per_chunk = Vec::with_capacity(self.chunk_polys.len());
        for poly in &self.chunk_polys {
            let mut ct = query.ct.clone();
            ct.mul_plain_assign_with(poly, backend)?;
            per_chunk.push(trace(he, ct, &keys.trace, backend, arena)?);
        }
        col_tor_with(he, per_chunk, &query.chunk_bits, TournamentOrder::Dfs, backend, arena)
    }
}

/// Packs one chunk of `N` scalars into an NTT-form plaintext polynomial.
fn pack_chunk(he: &HeParams, vals: &[u64]) -> Result<RnsPoly, PirError> {
    let pt =
        Plaintext::new(he, vals.to_vec()).map_err(|e| PirError::InvalidParams(e.to_string()))?;
    Ok(pt.to_ntt_poly(he))
}

/// Homomorphic trace: `log N` rounds of `ct ← ct + Subs(ct, N/2^j + 1)`,
/// projecting onto the constant coefficient (scaled by `N`).
fn trace(
    he: &HeParams,
    mut ct: BfvCiphertext,
    keys: &[SubsKey],
    backend: &dyn VpeBackend,
    arena: &mut KernelArena,
) -> Result<BfvCiphertext, PirError> {
    for key in keys {
        let sub = key.apply_with(he, &ct, backend, arena)?;
        ct.add_assign(&sub)?;
    }
    Ok(ct)
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
        let traced =
            trace(he, ct, &keys, kernel::default_backend(), &mut KernelArena::new()).unwrap();
        let out = traced.decrypt(he, &sk);
        assert_eq!(out.values()[0], vals[0]);
        assert!(out.values()[1..].iter().all(|&v| v == 0));
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
