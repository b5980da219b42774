//! The fully packed query (§II-C): *all* selection data — the `D0`-ary
//! one-hot index and every RGSW gadget digit for the `d` binary
//! dimensions — travels in two BFV ciphertexts. The server expands both
//! trees with `Subs`, then assembles the RGSW selection bits with the
//! BFV→RGSW conversion key ([`ive_he::convert`]), so the per-query upload
//! is independent of `d` (two ciphertexts ≈ 224KB at Table I parameters,
//! versus one RGSW per dimension in the direct mode).
//!
//! This is the protocol variant the paper's performance model charges
//! `ExpandQuery` for ("minor additional computations", §II-C).

use rand::Rng;

use ive_he::convert::RgswConversionKey;
use ive_he::{BfvCiphertext, HeParams, Plaintext, RgswCiphertext, SecretKey, SubsKey};
use ive_math::rns::RnsPoly;
use ive_math::wide;

use crate::db::plaintext_to_bytes;
use crate::expand::{expand_query, expansion_exponents};
use crate::params::PirParams;
use crate::server::PirServer;
use crate::PirError;

/// A fully packed query: two ciphertexts.
#[derive(Debug, Clone)]
pub struct PackedQuery {
    /// Encrypts `Δ·2^{-L0}·X^{col}` (the first-dimension one-hot).
    onehot: BfvCiphertext,
    /// Encrypts the scale-1 digit payload `Σ_{t,j} b_t·z^j·2^{-L1}·X^{tℓ+j}`.
    digits: BfvCiphertext,
}

impl PackedQuery {
    /// Serialized size: exactly two ciphertexts, independent of `d`.
    pub fn byte_len(&self, he: &HeParams) -> usize {
        2 * he.ct_bytes()
    }
}

/// Client key material for the packed mode: expansion keys deep enough
/// for both trees, plus the conversion key.
#[derive(Debug, Clone)]
pub struct PackedClientKeys {
    expand: Vec<SubsKey>,
    conversion: RgswConversionKey,
}

impl PackedClientKeys {
    /// The expansion keys (shared by both trees).
    #[inline]
    pub fn subs_keys(&self) -> &[SubsKey] {
        &self.expand
    }

    /// The BFV→RGSW conversion key.
    #[inline]
    pub fn conversion_key(&self) -> &RgswConversionKey {
        &self.conversion
    }

    /// Total registered key bytes.
    pub fn byte_len(&self, he: &HeParams) -> usize {
        self.expand.len() * he.evk_bytes() + he.evk_bytes()
    }
}

/// Tree depth of the digit ciphertext: `2^L1 >= d·ℓ` slots.
fn digit_levels(params: &PirParams) -> u32 {
    let slots = (params.dims() as usize * params.he().gadget().ell()).max(1);
    (slots as f64).log2().ceil().max(1.0) as u32
}

/// A PIR client using the packed query mode.
#[derive(Debug)]
pub struct PackedPirClient<R: Rng> {
    params: PirParams,
    sk: SecretKey,
    keys: PackedClientKeys,
    rng: R,
}

impl<R: Rng> PackedPirClient<R> {
    /// Generates the secret, expansion and conversion keys.
    ///
    /// # Errors
    /// Fails when the digit payload does not fit the ring
    /// (`d·ℓ > N`).
    pub fn new(params: &PirParams, mut rng: R) -> Result<Self, PirError> {
        let he = params.he();
        let slots = params.dims() as usize * he.gadget().ell();
        if slots > he.n() {
            return Err(PirError::InvalidParams(format!(
                "digit payload of {slots} slots exceeds ring degree {}",
                he.n()
            )));
        }
        let sk = SecretKey::generate(he, &mut rng);
        let levels = params.log_d0().max(digit_levels(params));
        let expand = expansion_exponents(he.n(), levels)
            .into_iter()
            .map(|r| SubsKey::generate(he, &sk, r, &mut rng))
            .collect();
        let conversion = RgswConversionKey::generate(he, &sk, &mut rng);
        Ok(PackedPirClient {
            params: params.clone(),
            sk,
            keys: PackedClientKeys { expand, conversion },
            rng,
        })
    }

    /// The public key material to register with the server.
    #[inline]
    pub fn public_keys(&self) -> &PackedClientKeys {
        &self.keys
    }

    /// Builds the two-ciphertext query for `index`.
    ///
    /// # Errors
    /// Fails when `index` is out of range.
    pub fn query(&mut self, index: usize) -> Result<PackedQuery, PirError> {
        if index >= self.params.num_records() {
            return Err(PirError::IndexOutOfRange { index, records: self.params.num_records() });
        }
        let he = self.params.he();
        let q = he.q_big();
        let (row, col) = self.params.split_index(index);

        // Ciphertext 1: the one-hot, pre-scaled by Δ·2^{-log D0}.
        let inv0 = he.inv_two_pow(self.params.log_d0());
        let (hi, lo) = wide::mul_u128(he.delta(), inv0);
        let scale = wide::div_rem_wide(hi, lo, q).1;
        let m = Plaintext::monomial(he, col, 1)?;
        let onehot = BfvCiphertext::encrypt_scaled(he, &self.sk, &m, scale, &mut self.rng);

        // Ciphertext 2: gadget digits b_t·z^j at slot t·ℓ+j, pre-scaled
        // by 2^{-L1} so the expansion doubling cancels exactly.
        let ell = he.gadget().ell();
        let inv1 = he.inv_two_pow(digit_levels(&self.params));
        let powers = he.gadget().powers();
        let mut coeffs = vec![0u128; he.n()];
        for t in 0..self.params.dims() as usize {
            if (row >> t) & 1 == 1 {
                for (j, &zj) in powers.iter().take(ell).enumerate() {
                    let (hi, lo) = wide::mul_u128(zj % q, inv1);
                    coeffs[t * ell + j] = wide::div_rem_wide(hi, lo, q).1;
                }
            }
        }
        let mut msg = RnsPoly::from_coeffs_u128(he.ring(), &coeffs);
        msg.to_ntt();
        let digits = BfvCiphertext::encrypt_rns(he, &self.sk, &msg, &mut self.rng);

        Ok(PackedQuery { onehot, digits })
    }

    /// Decrypts a response into the padded record payload.
    ///
    /// # Errors
    /// Infallible today; fallible for API stability.
    pub fn decode(&self, response: &BfvCiphertext) -> Result<Vec<u8>, PirError> {
        let he = self.params.he();
        Ok(plaintext_to_bytes(he, &response.decrypt(he, &self.sk)))
    }
}

/// Server-side derivation of the RGSW selection bits from the digit
/// ciphertext (the "minor additional computations" of §II-C).
pub fn derive_row_bits(
    params: &PirParams,
    keys: &PackedClientKeys,
    digits_ct: &BfvCiphertext,
) -> Result<Vec<RgswCiphertext>, PirError> {
    let he = params.he();
    let ell = he.gadget().ell();
    let levels = digit_levels(params);
    let expanded = expand_query(he, digits_ct, keys.subs_keys(), levels)?;
    let mut bits = Vec::with_capacity(params.dims() as usize);
    for t in 0..params.dims() as usize {
        let digit_cts: Vec<_> = (t * ell..(t + 1) * ell).map(|i| expanded.ciphertext(i)).collect();
        bits.push(keys.conversion_key().convert(he, &digit_cts)?);
    }
    Ok(bits)
}

/// Answers a packed query end to end on an existing server.
///
/// # Errors
/// Propagates expansion/conversion/pipeline failures.
pub fn answer_packed(
    server: &PirServer,
    keys: &PackedClientKeys,
    query: &PackedQuery,
) -> Result<BfvCiphertext, PirError> {
    let params = server.params();
    let he = params.he();
    // Step 1a: expand the one-hot tree.
    let expanded = expand_query(he, &query.onehot, keys.subs_keys(), params.log_d0())?;
    // Step 1b: expand the digit tree and convert to RGSW.
    let row_bits = derive_row_bits(params, keys, &query.digits)?;
    // Steps 2-3: the standard pipeline.
    let rows = server.row_sel(&expanded)?;
    crate::coltor::col_tor(
        he,
        rows,
        &row_bits,
        crate::coltor::TournamentOrder::Hs { subtree_depth: 2 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use ive_he::HeParams;
    use ive_math::gadget::Gadget;
    use ive_math::rns::RingContext;
    use rand::SeedableRng;

    /// Packed-mode parameters with a narrow gadget (z = 2^8) so the
    /// conversion noise stays comfortably inside the budget at toy scale.
    fn packed_params() -> PirParams {
        let ring = RingContext::test_ring(256, 3);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), 8);
        let he = HeParams::new(ring, 16, gadget, 4).expect("valid parameters");
        PirParams::new(he, 8, 3).expect("valid geometry")
    }

    #[test]
    fn packed_retrieval_round_trip() {
        let params = packed_params();
        let records: Vec<Vec<u8>> = (0..params.num_records())
            .map(|i| format!("packed record {i:03}").into_bytes())
            .collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PackedPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(808)).expect("keygen");
        for target in [0usize, 7, 33, params.num_records() - 1] {
            let query = client.query(target).expect("in range");
            let response = answer_packed(&server, client.public_keys(), &query).expect("pipeline");
            let plain = client.decode(&response).expect("decrypts");
            assert_eq!(&plain[..records[target].len()], &records[target][..], "record {target}");
        }
    }

    #[test]
    fn packed_query_is_two_ciphertexts() {
        let params = packed_params();
        let he = params.he();
        let mut client =
            PackedPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(1)).expect("keygen");
        let q = client.query(3).expect("in range");
        assert_eq!(q.byte_len(he), 2 * he.ct_bytes());
        // Independent of d: the direct mode ships d RGSW ciphertexts.
        let direct_bytes = he.ct_bytes() + params.dims() as usize * he.rgsw_bytes();
        assert!(q.byte_len(he) < direct_bytes);
    }

    #[test]
    fn derived_bits_match_row_index() {
        // Expanding + converting, then using the bits in a plain CMux,
        // must select according to the row bits of the index.
        let params = packed_params();
        let he = params.he();
        let mut client =
            PackedPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(2)).expect("keygen");
        let index = params.join_index(5, 2); // row 5 = 101b
        let query = client.query(index).expect("in range");
        let bits =
            derive_row_bits(&params, client.public_keys(), &query.digits).expect("conversion");
        assert_eq!(bits.len(), params.dims() as usize);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mx = ive_he::Plaintext::monomial(he, 0, 11).expect("valid");
        let my = ive_he::Plaintext::monomial(he, 0, 22).expect("valid");
        let x = ive_he::BfvCiphertext::encrypt(he, &client.sk, &mx, &mut rng);
        let y = ive_he::BfvCiphertext::encrypt(he, &client.sk, &my, &mut rng);
        for (t, expect_bit) in [(0usize, true), (1, false), (2, true)] {
            let out = bits[t].cmux(he, &x, &y).expect("compatible");
            let got = out.decrypt(he, &client.sk);
            let expect = if expect_bit { &mx } else { &my };
            assert_eq!(&got, expect, "bit {t}");
        }
    }

    #[test]
    fn oversized_digit_payload_rejected() {
        // d·ℓ beyond N must be refused at keygen.
        let ring = RingContext::test_ring(64, 2);
        let gadget = Gadget::for_modulus(ring.basis().q_big(), 4); // ℓ = 14
        let he = HeParams::new(ring, 16, gadget, 4).expect("valid parameters");
        let params = PirParams::new(he, 8, 5).expect("valid geometry"); // 5·14 = 70 > 64
        assert!(PackedPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(4)).is_err());
    }
}
