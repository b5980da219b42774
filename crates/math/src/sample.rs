//! The fresh-sample kernel: every RLWE sample a client encrypts —
//! `(a, b = a·s + e + term)` for a BFV ciphertext, an RGSW row or a `Subs`
//! key row — built in one place, straight into the caller's words.
//!
//! One sample, in order:
//!
//! 1. the mask `a`: the next draw of the [`MaskStream`];
//! 2. the noise `e`: centered-binomial, drawn from the caller's rng by
//!    [`cbd`] exactly as [`RnsPoly::sample_cbd`](crate::rns::RnsPoly::sample_cbd)
//!    draws it (`η × (bit − bit)` per coefficient, one `next_u64` a bit);
//! 3. per limb, the noise lifted into reused 4-byte scratch — a BFV
//!    message `scale·m` added there too, since the transform is linear —
//!    and transformed by
//!    [`VpeBackend::ntt_forward_narrow`](crate::kernel::VpeBackend::ntt_forward_narrow), which is
//!    bit-identical to the `u64` NTT;
//! 4. per limb, one branch-free pass
//!    `b = a·s + e + c·t` ([`Term`]: `c` the term's scale mod `q`, `t` a
//!    row of the caller's or the constant 1) — two 32×32→64 products and
//!    the kernel layer's word fold (`FoldPlan`), written to the output
//!    rows as the output word. A gadget term `z^j·s` (or `z^j·τ_r(s)`) is
//!    formed here from the scalar, not read from a stored row.
//!
//! A limb above 32 bits, or without room for two products in a word,
//! takes the `u64` transform and one modular operation at a time instead.
//!
//! Every step is exact mod `q`, so the words are the ones the
//! polynomial composition (`next_poly`, `sample_cbd`, `to_ntt`,
//! `mul_assign_pointwise`, `add_assign`, `mul_scalar_u128`, …) gives, and
//! the rng and the mask stream advance by the same draws. The pass is
//! portable code instantiated per vector width, like the mask body. All
//! scratch is one thread-local set, warm after the first sample of a
//! ring: a warm sample allocates nothing.

use std::cell::RefCell;
use std::sync::OnceLock;

use rand::RngCore;

use crate::arena::KernelArena;
use crate::kernel::{self, FoldPlan};
use crate::mask::MaskStream;
use crate::modulus::Modulus;
use crate::rns::RingContext;

/// What a fresh sample adds to its body beside `a·s + e`.
#[derive(Debug, Clone, Copy)]
pub enum Term<'a> {
    /// Nothing: an encryption of zero.
    Zero,
    /// `scale·m` for the coefficient-form message `m` (`n` values, any
    /// size): a BFV plaintext, added to the noise before its transform.
    Coeff {
        /// The encoding scale, any `u128` (reduced per limb).
        scale: u128,
        /// The message coefficients.
        values: &'a [u64],
    },
    /// `scale·t` in the NTT domain, with `t` a flat `k × n` NTT-form
    /// matrix — `m·s`, `m`, or `τ_r(s)` for an RGSW or key row — or, for
    /// `None`, the constant polynomial 1 (whose transform is 1 in every
    /// slot). A gadget term `∓z^j·t` passes `scale = z^j` or `Q − z^j`.
    Ntt {
        /// The scale, any `u128` (reduced per limb).
        scale: u128,
        /// The multiplied matrix, canonical; `None` for 1.
        row: Option<&'a [u64]>,
    },
}

/// A word a sample's rows can be stored in.
pub trait SampleWord: Copy + Send {
    /// The word holding the canonical residue `x`.
    fn from_residue(x: u64) -> Self;
}

impl SampleWord for u64 {
    #[inline(always)]
    fn from_residue(x: u64) -> Self {
        x
    }
}

impl SampleWord for u32 {
    #[inline(always)]
    fn from_residue(x: u64) -> Self {
        x as u32
    }
}

/// Where the rows of one fresh sample land.
pub trait SampleRows {
    /// The stored word.
    type Word: SampleWord;

    /// The mask and body rows of limb `m`, `n` words each, which the
    /// sample overwrites in full.
    fn limb(&mut self, m: usize) -> (&mut [Self::Word], &mut [Self::Word]);
}

/// Two flat limb-major `k × n` matrices — a ciphertext's `(a, b)` words.
#[derive(Debug)]
pub struct FlatRows<'a, W> {
    a: &'a mut [W],
    b: &'a mut [W],
    n: usize,
}

impl<'a, W> FlatRows<'a, W> {
    /// The mask lands in `a`, the body in `b`, limb `m` at `m·n`.
    ///
    /// # Panics
    /// Panics if the two matrices differ in length.
    pub fn new(a: &'a mut [W], b: &'a mut [W], n: usize) -> Self {
        assert_eq!(a.len(), b.len());
        FlatRows { a, b, n }
    }
}

impl<W: SampleWord> SampleRows for FlatRows<'_, W> {
    type Word = W;

    fn limb(&mut self, m: usize) -> (&mut [W], &mut [W]) {
        let at = m * self.n..(m + 1) * self.n;
        (&mut self.a[at.clone()], &mut self.b[at])
    }
}

/// Centered-binomial noise with parameter `eta` into `out`: each entry is
/// `Σ_η (bit − bit)`, a bit being the low bit of the next draw below
/// `u64::MAX − 1` — `gen_range(0..2)` word for word.
pub fn cbd<R: RngCore + ?Sized>(eta: u32, rng: &mut R, out: &mut [i64]) {
    let mut bit = || loop {
        let x = rng.next_u64();
        if x < u64::MAX - 1 {
            break (x & 1) as i64;
        }
    };
    for s in out.iter_mut() {
        let mut acc = 0;
        for _ in 0..eta {
            acc += bit();
            acc -= bit();
        }
        *s = acc;
    }
}

/// The reused buffers of [`fresh_sample`].
#[derive(Default)]
struct Scratch {
    mask: Vec<u64>,
    noise: Vec<i64>,
    narrow: Vec<u32>,
    wide: Vec<u64>,
    arena: KernelArena,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// One fresh RLWE sample under the NTT-form secret `s` (flat `k × n`):
/// the mask is the next draw of `masks`, the noise comes from `rng`, and
/// limb `m` of `out` receives `a` and `b = a·s + e + term` (see the
/// module doc for the order of the draws and the pass).
///
/// # Panics
/// Panics if `s` (or a term's matrix) is not `k·n` words, a coefficient
/// term is not `n` values, or an output row is not `n` words.
pub fn fresh_sample<R, O>(
    ring: &RingContext,
    s: &[u64],
    eta: u32,
    term: Term<'_>,
    masks: &mut MaskStream,
    rng: &mut R,
    out: &mut O,
) where
    R: RngCore + ?Sized,
    O: SampleRows,
{
    sample_at(Width::best(), ring, s, eta, term, masks, rng, out)
}

/// [`fresh_sample`] with its pass at `width`.
#[allow(clippy::too_many_arguments)]
fn sample_at<R, O>(
    width: Width,
    ring: &RingContext,
    s: &[u64],
    eta: u32,
    term: Term<'_>,
    masks: &mut MaskStream,
    rng: &mut R,
    out: &mut O,
) where
    R: RngCore + ?Sized,
    O: SampleRows,
{
    let (n, moduli) = (ring.n(), ring.basis().moduli());
    let kn = moduli.len() * n;
    assert_eq!(s.len(), kn, "the secret is k·n words");
    match term {
        Term::Coeff { values, .. } => assert_eq!(values.len(), n, "a message is n values"),
        Term::Ntt { row: Some(row), .. } => assert_eq!(row.len(), kn, "a term row is k·n words"),
        _ => {}
    }
    let backend = kernel::default_backend();
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { mask, noise, narrow, wide, arena } = scratch;
        mask.resize(kn, 0);
        masks.fill(ring, mask);
        noise.resize(n, 0);
        cbd(eta, rng, noise);
        for (m, modulus) in moduli.iter().enumerate() {
            let limb = m * n..(m + 1) * n;
            let (a_out, b_out) = out.limb(m);
            assert_eq!((a_out.len(), b_out.len()), (n, n), "an output row is n words");
            let q = modulus.value();
            let (coeff, c, row) = match term {
                Term::Zero => (None, 0, None),
                Term::Coeff { scale, values } => {
                    (Some((modulus.reduce_u128(scale), values)), 0, None)
                }
                Term::Ntt { scale, row } => {
                    (None, modulus.reduce_u128(scale), row.map(|r| &r[limb.clone()]))
                }
            };
            let (a, s) = (&mask[limb.clone()], &s[limb]);
            match FoldPlan::new(modulus).filter(|_| modulus.lazy_terms() >= 2) {
                Some(plan) => {
                    narrow.resize(n, 0);
                    let lifted = narrow.iter_mut().zip(noise.iter());
                    match coeff {
                        Some((c, values)) => {
                            for ((x, &e), &v) in lifted.zip(values) {
                                *x = plan.fold(c * plan.fold(v) + lift(e, q)) as u32;
                            }
                        }
                        None => lifted.for_each(|(x, &e)| *x = lift(e, q) as u32),
                    }
                    backend.ntt_forward_narrow(ring.ntt(m), narrow, arena);
                    pass(width, &plan, PassRows { a, s, e: narrow, c, t: row, a_out, b_out });
                }
                None => {
                    wide.resize(n, 0);
                    for (i, (x, &e)) in wide.iter_mut().zip(noise.iter()).enumerate() {
                        *x = modulus.reduce_i128(i128::from(e));
                        if let Some((c, values)) = coeff {
                            let v = modulus.reduce_u128(values[i].into());
                            *x = modulus.add(*x, modulus.mul(c, v));
                        }
                    }
                    backend.ntt_forward(ring.ntt(m), wide);
                    wide_pass(modulus, a, s, wide, c, row, a_out, b_out);
                }
            }
        }
    });
}

/// `e mod q` for small signed noise (`|e| < q`), branch-free.
#[inline(always)]
fn lift(e: i64, q: u64) -> u64 {
    (e + ((e >> 63) & q as i64)) as u64
}

/// The rows of one limb's pass: inputs `a` (the mask), `s`, the NTT'd
/// noise `e`, the term's scale `c` and row `t` (`None`: the constant 1);
/// outputs the mask and body rows.
struct PassRows<'a, W> {
    a: &'a [u64],
    s: &'a [u64],
    e: &'a [u32],
    c: u64,
    t: Option<&'a [u64]>,
    a_out: &'a mut [W],
    b_out: &'a mut [W],
}

/// A vector width the pass is instantiated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

impl Width {
    /// Every width this CPU runs, widest first; the last is the build's
    /// baseline target.
    fn available() -> Vec<Width> {
        let mut found = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if kernel::avx512_available() {
                found.push(Width::Avx512);
            }
            if kernel::simd_available() {
                found.push(Width::Avx2);
            }
        }
        found.push(Width::Portable);
        found
    }

    /// The widest, probed once.
    fn best() -> Width {
        static BEST: OnceLock<Width> = OnceLock::new();
        *BEST.get_or_init(|| Width::available()[0])
    }
}

/// The pass at `width`, which [`Width::available`] listed.
fn pass<W: SampleWord>(width: Width, plan: &FoldPlan, rows: PassRows<'_, W>) {
    match width {
        // SAFETY: `Width::available` lists a width only after the running
        // CPU reported the feature its instantiation is compiled for.
        #[cfg(target_arch = "x86_64")]
        Width::Avx512 => unsafe { pass_avx512(plan, rows) },
        #[cfg(target_arch = "x86_64")]
        Width::Avx2 => unsafe { pass_avx2(plan, rows) },
        Width::Portable => pass_body(plan, rows),
    }
}

/// [`pass_body`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn pass_avx512<W: SampleWord>(plan: &FoldPlan, rows: PassRows<'_, W>) {
    pass_body(plan, rows)
}

/// [`pass_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pass_avx2<W: SampleWord>(plan: &FoldPlan, rows: PassRows<'_, W>) {
    pass_body(plan, rows)
}

/// `b = fold(a·s + e + c·t)`, `a` copied out beside it: every operand is
/// canonical and the modulus has room for two products in a word
/// (`lazy_terms ≥ 2`), so the sum cannot wrap; the masks only tell the
/// compiler the factors fit 32 bits.
#[inline(always)]
fn pass_body<W: SampleWord>(plan: &FoldPlan, rows: PassRows<'_, W>) {
    const LOW: u64 = 0xffff_ffff;
    let PassRows { a, s, e, c, t, a_out, b_out } = rows;
    let out = a_out.iter_mut().zip(b_out.iter_mut());
    let ins = a.iter().zip(s).zip(e);
    match t {
        Some(t) => {
            for ((ao, bo), (((&a, &s), &e), &t)) in out.zip(ins.zip(t)) {
                let x = (a & LOW) * (s & LOW) + u64::from(e) + (c & LOW) * (t & LOW);
                (*ao, *bo) = (W::from_residue(a), W::from_residue(plan.fold(x)));
            }
        }
        None => {
            for ((ao, bo), ((&a, &s), &e)) in out.zip(ins) {
                let x = (a & LOW) * (s & LOW) + u64::from(e) + c;
                (*ao, *bo) = (W::from_residue(a), W::from_residue(plan.fold(x)));
            }
        }
    }
}

/// The pass for a modulus without two products of headroom, one modular
/// operation at a time.
#[allow(clippy::too_many_arguments)]
fn wide_pass<W: SampleWord>(
    modulus: &Modulus,
    a: &[u64],
    s: &[u64],
    e: &[u64],
    c: u64,
    t: Option<&[u64]>,
    a_out: &mut [W],
    b_out: &mut [W],
) {
    for i in 0..a.len() {
        let term = modulus.mul(c, t.map_or(1, |t| t[i]));
        let b = modulus.add(modulus.add(modulus.mul(a[i], s[i]), e[i]), term);
        (a_out[i], b_out[i]) = (W::from_residue(a[i]), W::from_residue(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rns::{Form, RnsPoly};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The composition the kernel replaces, on one limb matrix.
    fn composed(
        ring: &std::sync::Arc<RingContext>,
        s: &RnsPoly,
        term: Term<'_>,
        masks: &mut MaskStream,
        rng: &mut StdRng,
    ) -> (RnsPoly, RnsPoly) {
        let a = masks.next_poly(ring);
        let mut e = RnsPoly::sample_cbd(ring, 2, rng);
        e.to_ntt();
        let mut b = a.clone();
        b.mul_assign_pointwise(s).unwrap();
        b.add_assign(&e).unwrap();
        let mut t = match term {
            Term::Zero => RnsPoly::zero(ring, Form::Ntt),
            Term::Coeff { values, .. } => {
                let wide: Vec<u128> = values.iter().map(|&v| v.into()).collect();
                let mut t = RnsPoly::from_coeffs_u128(ring, &wide);
                t.to_ntt();
                t
            }
            Term::Ntt { row: Some(row), .. } => {
                RnsPoly::from_words(ring, Form::Ntt, row.to_vec()).unwrap()
            }
            Term::Ntt { row: None, .. } => {
                let mut one = RnsPoly::zero(ring, Form::Coeff);
                for m in 0..ring.basis().len() {
                    one.residue_mut(m)[0] = 1;
                }
                one.to_ntt();
                one
            }
        };
        if let Term::Coeff { scale, .. } | Term::Ntt { scale, .. } = term {
            t.mul_scalar_u128(scale);
        }
        b.add_assign(&t).unwrap();
        (a, b)
    }

    /// A modulus above 32 bits takes the one-operation-at-a-time pass and
    /// the `u64` transform; narrow rings take the fold, at every width this
    /// CPU runs (the baseline target's included). All give the
    /// composition's words, for every kind of term, in both output words.
    #[test]
    fn every_term_matches_the_composition_on_narrow_and_wide_limbs() {
        let widths = Width::available();
        assert_eq!(widths.last(), Some(&Width::Portable));
        let wide_q = crate::prime::find_ntt_primes(40, 32, 1)[0];
        let wide_ring = RingContext::new(
            32,
            crate::rns::RnsBasis::new(vec![Modulus::special_primes()[0], Modulus::new(wide_q)])
                .unwrap(),
        )
        .unwrap();
        for ring in [RingContext::test_ring(64, 3), wide_ring] {
            let (n, kn) = (ring.n(), ring.basis().len() * ring.n());
            let mut rng = StdRng::seed_from_u64(3);
            let s = RnsPoly::sample_uniform(&ring, Form::Ntt, &mut rng);
            let row = RnsPoly::sample_uniform(&ring, Form::Ntt, &mut rng);
            let values: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a)).collect();
            let scale = ring.basis().q_big() - 12345;
            let terms = [
                Term::Zero,
                Term::Coeff { scale, values: &values },
                Term::Ntt { scale, row: Some(row.as_words()) },
                Term::Ntt { scale, row: None },
            ];
            let streams = |i: usize| (MaskStream::new([i as u8; 32]), StdRng::seed_from_u64(9));
            for (i, term) in terms.into_iter().enumerate() {
                let (mut masks, mut noise) = streams(i);
                let want = composed(&ring, &s, term, &mut masks, &mut noise);
                let want = (want.0.into_words(), want.1.into_words());
                for &width in &widths {
                    let (mut masks, mut noise) = streams(i);
                    let (mut a, mut b) = (vec![0u64; kn], vec![0u64; kn]);
                    let mut out = FlatRows::new(&mut a, &mut b, n);
                    sample_at(
                        width,
                        &ring,
                        s.as_words(),
                        2,
                        term,
                        &mut masks,
                        &mut noise,
                        &mut out,
                    );
                    assert_eq!((&a, &b), (&want.0, &want.1), "term {i}, {width:?}");
                    if ring.basis().moduli().iter().any(|m| m.bits() > 32) {
                        continue;
                    }
                    let (mut masks, mut noise) = streams(i);
                    let (mut a, mut b) = (vec![0u32; kn], vec![0u32; kn]);
                    let mut out = FlatRows::new(&mut a, &mut b, n);
                    sample_at(
                        width,
                        &ring,
                        s.as_words(),
                        2,
                        term,
                        &mut masks,
                        &mut noise,
                        &mut out,
                    );
                    let widen = |w: &[u32]| w.iter().map(|&x| u64::from(x)).collect::<Vec<_>>();
                    assert_eq!((widen(&a), widen(&b)), want, "term {i}, {width:?}, 4-byte words");
                }
            }
        }
    }
}
