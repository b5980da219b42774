//! The PIR client: key generation, query construction, response decoding.

use rand::Rng;

use ive_he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey, SubsKey};
use ive_math::mask::{MaskSeed, MaskStream, SEED_BYTES};
use ive_math::wide;

use crate::db::plaintext_to_bytes;
use crate::expand::expansion_exponents;
use crate::params::PirParams;
use crate::PirError;

/// The client-specific public material held by the server: one `evk_r` per
/// `ExpandQuery` depth (§II-A — "up to log N evks in total"), every row
/// mask drawn from one stream under `ClientKeys::seed`.
#[derive(Debug, Clone)]
pub struct ClientKeys {
    seed: MaskSeed,
    subs: Vec<SubsKey>,
}

impl ClientKeys {
    /// The key set whose masks `seed` expands to, in key then row order —
    /// built only by the client and by the wire decoder.
    pub(crate) fn from_seeded(seed: MaskSeed, subs: Vec<SubsKey>) -> Self {
        ClientKeys { seed, subs }
    }

    /// The seed of the set's mask stream (what the wire carries in place
    /// of the masks).
    #[inline]
    pub(crate) fn seed(&self) -> &MaskSeed {
        &self.seed
    }

    /// The expansion keys, ordered by tree depth.
    #[inline]
    pub fn subs_keys(&self) -> &[SubsKey] {
        &self.subs
    }

    /// Resident size of the materialised keys in the packed hardware
    /// layout, masks included — the client-specific data a server holds
    /// per session and whose bandwidth demand motivates IVE's scratchpad
    /// (§III-B). The `Hello` frame carries about half of it.
    pub fn byte_len(&self, he: &HeParams) -> usize {
        self.subs.len() * he.evk_bytes()
    }
}

/// A PIR query: the packed BFV ciphertext (expanded server-side into the
/// `D0` one-hot ciphertexts) plus `d` RGSW selection bits for `ColTor`.
///
/// The RGSW ciphertexts are uploaded directly (Respire-style, §II-C "we
/// need only one RGSW ciphertext directly encrypting j*" per binary
/// dimension) rather than derived server-side from a second packed
/// ciphertext. Every one of the query's `1 + 2ℓ·d` RLWE samples is fresh,
/// and their masks are the consecutive draws of one stream under
/// `PirQuery::seed`: the packed ciphertext's first, then bit 0's rows in
/// order, then bit 1's, and so on. On the wire (v3) a query is that
/// 32-byte seed followed by the `b` polynomial of each sample in the same
/// order; the decoder regenerates every `a`.
#[derive(Debug, Clone)]
pub struct PirQuery {
    seed: MaskSeed,
    packed: BfvCiphertext,
    row_bits: Vec<RgswCiphertext>,
}

impl PirQuery {
    /// The query whose masks `seed` expands to, in the order of the type
    /// doc — built only by the client and by the wire decoder.
    pub(crate) fn from_seeded(
        seed: MaskSeed,
        packed: BfvCiphertext,
        row_bits: Vec<RgswCiphertext>,
    ) -> Self {
        PirQuery { seed, packed, row_bits }
    }

    /// A query from materialised parts that no stream describes (an
    /// all-zero seed): for tests that hand the server ciphertexts no
    /// client would send.
    #[cfg(test)]
    pub(crate) fn from_parts(packed: BfvCiphertext, row_bits: Vec<RgswCiphertext>) -> Self {
        PirQuery { seed: [0; ive_math::mask::SEED_BYTES], packed, row_bits }
    }

    /// The seed of the query's mask stream.
    #[inline]
    pub(crate) fn seed(&self) -> &MaskSeed {
        &self.seed
    }

    /// The packed first-dimension ciphertext.
    #[inline]
    pub fn packed(&self) -> &BfvCiphertext {
        &self.packed
    }

    /// The RGSW row-selection bits, LSB first.
    #[inline]
    pub fn row_bits(&self) -> &[RgswCiphertext] {
        &self.row_bits
    }

    /// Wire size in the packed hardware layout — the per-query PCIe
    /// payload of §VI-C: the seed plus one `b` polynomial per fresh
    /// sample, about half the resident size of the ciphertexts it
    /// expands to.
    pub fn byte_len(&self, he: &HeParams) -> usize {
        SEED_BYTES + (he.ct_bytes() + self.row_bits.len() * he.rgsw_bytes()) / 2
    }
}

/// A PIR client owning a secret key.
#[derive(Debug)]
pub struct PirClient<R: Rng> {
    params: PirParams,
    sk: SecretKey,
    keys: ClientKeys,
    rng: R,
}

impl<R: Rng> PirClient<R> {
    /// Generates a fresh secret key and the expansion keys for the given
    /// geometry.
    ///
    /// # Errors
    /// Currently infallible for valid [`PirParams`]; returns `Result` for
    /// forward compatibility with externally supplied randomness.
    pub fn new(params: &PirParams, mut rng: R) -> Result<Self, PirError> {
        let he = params.he();
        let sk = SecretKey::generate(he, &mut rng);
        let mut masks = MaskStream::fresh(&mut rng);
        let subs = expansion_exponents(he.n(), params.log_d0())
            .into_iter()
            .map(|r| SubsKey::generate_seeded(he, &sk, r, &mut masks, &mut rng))
            .collect();
        let keys = ClientKeys::from_seeded(*masks.seed(), subs);
        Ok(PirClient { params: params.clone(), sk, keys, rng })
    }

    /// The public evaluation keys to register with the server.
    #[inline]
    pub fn public_keys(&self) -> &ClientKeys {
        &self.keys
    }

    /// The scheme parameters.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// Builds the query for record `index`.
    ///
    /// # Errors
    /// Fails when `index` is out of range.
    pub fn query(&mut self, index: usize) -> Result<PirQuery, PirError> {
        if index >= self.params.num_records() {
            return Err(PirError::IndexOutOfRange { index, records: self.params.num_records() });
        }
        let he = self.params.he();
        let (row, col) = self.params.split_index(index);

        // Packed one-hot X^{col}, pre-scaled by Δ·2^{-log D0} mod Q so the
        // doubling per expansion level cancels (§II-A).
        let m = Plaintext::monomial(he, col, 1)?;
        let q = he.q_big();
        let inv = he.inv_two_pow(self.params.log_d0());
        let (hi, lo) = wide::mul_u128(he.delta(), inv);
        let scale = wide::div_rem_wide(hi, lo, q).1;
        // A fresh seed per query: every mask of it, and only of it.
        let mut masks = MaskStream::fresh(&mut self.rng);
        let packed =
            BfvCiphertext::encrypt_seeded(he, &self.sk, &m, scale, &mut masks, &mut self.rng);

        // RGSW bits of the row index, LSB first (one per binary dimension).
        let row_bits = (0..self.params.dims())
            .map(|t| {
                let bit = (row >> t) & 1 == 1;
                RgswCiphertext::encrypt_bit_seeded(he, &self.sk, bit, &mut masks, &mut self.rng)
            })
            .collect();
        Ok(PirQuery::from_seeded(*masks.seed(), packed, row_bits))
    }

    /// Decrypts a server response into the padded record payload
    /// ([`PirParams::record_bytes`] bytes).
    ///
    /// # Errors
    /// Currently infallible; kept fallible for API stability.
    pub fn decode(&self, _query: &PirQuery, response: &BfvCiphertext) -> Result<Vec<u8>, PirError> {
        let he = self.params.he();
        let pt = response.decrypt(he, &self.sk);
        Ok(plaintext_to_bytes(he, &pt))
    }

    /// Decodes a modulus-switched (compressed) response.
    ///
    /// # Errors
    /// Currently infallible; kept fallible for API stability.
    pub fn decode_compressed(
        &self,
        _query: &PirQuery,
        response: &ive_he::modswitch::SwitchedCiphertext,
    ) -> Result<Vec<u8>, PirError> {
        let he = self.params.he();
        let pt = ive_he::modswitch::decrypt_switched(he, &self.sk, response);
        Ok(plaintext_to_bytes(he, &pt))
    }

    /// The secret key (tests and noise diagnostics only).
    #[doc(hidden)]
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn query_shapes() {
        let params = PirParams::toy();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(61)).unwrap();
        let q = client.query(13).unwrap();
        assert_eq!(q.row_bits().len(), params.dims() as usize);
        assert_eq!(client.public_keys().subs_keys().len(), params.log_d0() as usize);
        let he = params.he();
        let resident = he.ct_bytes() + params.dims() as usize * he.rgsw_bytes();
        assert_eq!(q.byte_len(he), SEED_BYTES + resident / 2);
        assert_eq!(client.public_keys().byte_len(he), params.log_d0() as usize * he.evk_bytes());
    }

    #[test]
    fn no_two_queries_or_bits_share_a_mask() {
        // A mask reused under one secret leaks the difference of the two
        // messages: across queries, across bits and rows of one query,
        // and across the key set, every `a` is distinct.
        let params = PirParams::toy();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(63)).unwrap();
        let (q1, q2) = (client.query(5).unwrap(), client.query(5).unwrap());
        assert_ne!(q1.seed(), q2.seed());
        assert_ne!(q1.seed(), client.public_keys().seed());
        let masks = [&q1, &q2]
            .into_iter()
            .flat_map(|q| {
                let bits = q.row_bits().iter().flat_map(|b| b.rows().map(|(a, _)| a.into_words()));
                std::iter::once(q.packed().a.as_words().to_vec()).chain(bits)
            })
            .chain(
                client
                    .public_keys()
                    .subs_keys()
                    .iter()
                    .flat_map(|k| k.rows().map(|(a, _)| a.into_words())),
            );
        let mut seen = std::collections::HashSet::new();
        for (i, a) in masks.enumerate() {
            assert!(seen.insert(a), "mask {i} repeats an earlier one");
        }
        assert_eq!(
            seen.len(),
            2 * (1 + params.dims() as usize * 2 * params.he().rgsw_gadget().ell())
                + params.log_d0() as usize * params.he().evk_gadget().ell()
        );
    }

    #[test]
    fn out_of_range_query_rejected() {
        let params = PirParams::toy();
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(62)).unwrap();
        let err = client.query(params.num_records()).unwrap_err();
        assert!(matches!(err, PirError::IndexOutOfRange { .. }));
    }
}
