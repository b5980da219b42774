//! The fresh-sample kernel against the composition it replaced.
//!
//! The oracle is the polynomial algebra every encryption used to run:
//! draw the mask, `sample_cbd` the noise and transform it, then
//! `b = a·s + e` by pointwise product and add, plus the message or gadget
//! term as a scaled polynomial. The kernel must give the same words, and
//! leave the mask stream and the noise rng at the same point.

use rand::{Rng, RngCore, SeedableRng};

use ive_math::mask::MaskStream;
use ive_math::rns::{Form, RnsPoly};

use crate::bfv::{BfvCiphertext, Plaintext};
use crate::keys::SecretKey;
use crate::params::HeParams;
use crate::rgsw::RgswCiphertext;
use crate::subs::SubsKey;

/// `(a, a·s + e)` — one fresh RLWE sample of zero, composed.
fn sample_zero<R: Rng>(
    params: &HeParams,
    sk: &SecretKey,
    masks: &mut MaskStream,
    rng: &mut R,
) -> (RnsPoly, RnsPoly) {
    let ring = params.ring();
    let a = masks.next_poly(ring);
    let mut e = RnsPoly::sample_cbd(ring, params.eta(), rng);
    e.to_ntt();
    let mut b = a.clone();
    b.mul_assign_pointwise(sk.ntt()).unwrap();
    b.add_assign(&e).unwrap();
    (a, b)
}

fn bfv<R: Rng>(
    params: &HeParams,
    sk: &SecretKey,
    m: &Plaintext,
    scale: u128,
    masks: &mut MaskStream,
    rng: &mut R,
) -> BfvCiphertext {
    let (a, mut b) = sample_zero(params, sk, masks, rng);
    let wide: Vec<u128> = m.values().iter().map(|&v| v as u128).collect();
    let mut msg = RnsPoly::from_coeffs_u128(params.ring(), &wide);
    msg.mul_scalar_u128(scale);
    msg.to_ntt();
    b.add_assign(&msg).unwrap();
    BfvCiphertext { a, b }
}

fn rgsw<R: Rng>(
    params: &HeParams,
    sk: &SecretKey,
    m_ntt: &RnsPoly,
    masks: &mut MaskStream,
    rng: &mut R,
) -> Vec<(RnsPoly, RnsPoly)> {
    let ell = params.gadget().ell();
    let powers = params.gadget().powers();
    let mut m_s = m_ntt.clone();
    m_s.mul_assign_pointwise(sk.ntt()).unwrap();
    (0..2 * ell)
        .map(|j| {
            let (a, mut b) = sample_zero(params, sk, masks, rng);
            let mut term = if j < ell { m_s.clone() } else { m_ntt.clone() };
            term.mul_scalar_u128(powers[j % ell]);
            if j < ell {
                b.sub_assign(&term).unwrap();
            } else {
                b.add_assign(&term).unwrap();
            }
            (a, b)
        })
        .collect()
}

fn bit_poly(params: &HeParams, bit: bool) -> RnsPoly {
    let mut m = RnsPoly::zero(params.ring(), Form::Coeff);
    if bit {
        for limb in 0..params.ring().basis().len() {
            m.residue_mut(limb)[0] = 1;
        }
    }
    m.to_ntt();
    m
}

fn subs_rows<R: Rng>(
    params: &HeParams,
    sk: &SecretKey,
    r: usize,
    masks: &mut MaskStream,
    rng: &mut R,
) -> Vec<(RnsPoly, RnsPoly)> {
    let s_tau = sk.automorphism_ntt(r);
    params
        .gadget()
        .powers()
        .into_iter()
        .map(|zj| {
            let (k, mut b) = sample_zero(params, sk, masks, rng);
            let mut term = s_tau.clone();
            term.mul_scalar_u128(zj);
            b.sub_assign(&term).unwrap();
            (k, b)
        })
        .collect()
}

/// Both streams of the kernel run and the oracle run stand at the same
/// point.
fn assert_streams_agree(
    params: &HeParams,
    got: (&mut MaskStream, &mut rand::rngs::StdRng),
    want: (&mut MaskStream, &mut rand::rngs::StdRng),
    what: &str,
) {
    let ring = params.ring();
    assert_eq!(got.0.next_poly(ring), want.0.next_poly(ring), "{what}: mask stream");
    assert_eq!(got.1.next_u64(), want.1.next_u64(), "{what}: noise rng");
}

/// BFV (random message, random scale), RGSW (both bits and a random NTT
/// message) and `Subs` key rows, word for word.
fn kernel_matches_composition(params: &HeParams, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(params, &mut rng);
    let streams =
        |i: u8| (MaskStream::new([i; 32]), rand::rngs::StdRng::seed_from_u64(u64::from(i)));

    let values: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.p())).collect();
    let m = Plaintext::new(params, values).unwrap();
    let scale = rng.gen::<u128>() % params.q_big();
    let ((mut gm, mut gr), (mut wm, mut wr)) = (streams(1), streams(1));
    let got = BfvCiphertext::encrypt_seeded(params, &sk, &m, scale, &mut gm, &mut gr);
    assert_eq!(got, bfv(params, &sk, &m, scale, &mut wm, &mut wr), "BFV");
    assert_streams_agree(params, (&mut gm, &mut gr), (&mut wm, &mut wr), "BFV");

    let message = RnsPoly::sample_uniform(params.ring(), Form::Ntt, &mut rng);
    let cases = [("bit 0", bit_poly(params, false)), ("bit 1", bit_poly(params, true))];
    for (what, m_ntt) in cases.into_iter().chain([("message", message)]) {
        let ((mut gm, mut gr), (mut wm, mut wr)) = (streams(2), streams(2));
        let got = match what {
            "bit 0" => RgswCiphertext::encrypt_bit_seeded(params, &sk, false, &mut gm, &mut gr),
            "bit 1" => RgswCiphertext::encrypt_bit_seeded(params, &sk, true, &mut gm, &mut gr),
            _ => RgswCiphertext::encrypt_poly(params, &sk, &m_ntt, &mut gm, &mut gr),
        };
        let want = rgsw(params, &sk, &m_ntt, &mut wm, &mut wr);
        assert_eq!(got.rows().len(), want.len());
        for (j, (row, (a, b))) in got.rows().iter().zip(&want).enumerate() {
            assert_eq!((&row.a, &row.b), (a, b), "RGSW {what}, row {j}");
        }
        assert_streams_agree(params, (&mut gm, &mut gr), (&mut wm, &mut wr), what);
    }

    for r in [3, params.n() + 1, 2 * params.n() - 1] {
        let ((mut gm, mut gr), (mut wm, mut wr)) = (streams(3), streams(3));
        let got = SubsKey::generate_seeded(params, &sk, r, &mut gm, &mut gr);
        let want = subs_rows(params, &sk, r, &mut wm, &mut wr);
        assert_eq!(got.rows().len(), want.len());
        for (j, (row, want)) in got.rows().zip(&want).enumerate() {
            assert_eq!(&row, want, "evk_{r}, row {j}");
        }
        assert_streams_agree(params, (&mut gm, &mut gr), (&mut wm, &mut wr), "evk");
    }
}

#[test]
fn fresh_samples_match_the_composition_toy() {
    kernel_matches_composition(&HeParams::toy(), 11);
}

/// Table I: `N = 4096`, `ℓ = 8` — release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fresh_samples_match_the_composition_table_i() {
    kernel_matches_composition(&HeParams::paper(), 12);
}
