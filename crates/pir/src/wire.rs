//! Wire serialization for queries, responses, client key material, and
//! the session frames the serving runtime (`ive_serve`) speaks.
//!
//! The paper's communication accounting (§VI-C: "each query transfers
//! only a few MBs ... through PCIe") is measured here on actual encodings
//! rather than estimated: residues are packed at 4 bytes/word (the
//! special primes are 28-bit), with a small self-describing header.
//!
//! Every frame starts with the same 6-byte header: a 4-byte magic, a
//! format version byte, and a tag byte identifying the frame type. The
//! session frames implement the paper's ARK key-reuse motif (§V): a
//! client uploads its bulky `ClientKeys` once in a [`Tag::Hello`]
//! handshake, receives a session id in a [`Tag::Welcome`], and every
//! subsequent [`Tag::SessionQuery`] carries only the small per-query
//! material plus that id.
//!
//! Client-sent RLWE samples are fresh, so half of each — the uniform mask
//! `a` — is the next draw of a seeded stream ([`ive_math::mask`]). A
//! query or key-set frame carries that stream's 32-byte seed, then only
//! the `b` polynomial of every sample, in the order the client drew the
//! masks; the decoder regenerates each `a` as it reads the `b` beside it
//! (the only place an `a` is rebuilt), so what a server holds is exactly
//! what the client built:
//!
//! ```text
//! Query         hdr | seed | u16 d | Bfv hdr, b | d × (Rgsw hdr | u16 2ℓ | 2ℓ × b)
//! SessionQuery  hdr | u64 session | u64 request | the Query body
//! KsQuery       hdr | u64 session | u64 request | the Query body
//! ClientKeys    hdr | seed | u16 count | count × (u32 r | u16 ℓ | ℓ × b)
//! Hello         as ClientKeys;  KsHello  as ClientKeys
//! ```
//!
//! Each `b` is a nested [`Tag::Poly`] in NTT form. Computed ciphertexts
//! (responses) have no seed and travel whole, `a` then `b`.
//!
//! Residues move through one bulk codec: a limb is written as 4-byte
//! big-endian words in one pass through a stack chunk, and read back in
//! one pass that folds the `< q` check into the unpacking.
//!
//! Two things are declared once here. The frame tags are one `tags!`
//! list behind [`Tag`], [`Tag::from_byte`] and [`Tag::name`]; every
//! encoder is a `frame(tag, |buf| …)` body and every decoder a
//! `decode(bytes, tag, |r| …)` body over one checked `FrameReader`, whose
//! accessors return [`PirError::Wire`] on under-run — received bytes
//! never reach a panicking `Buf::get_*`.
//! And every scalar of a [`StatsReport`] is one row of
//! [`stats_counters!`](crate::stats_counters): the struct field, its
//! place on the wire, its [`CounterDef`] (Prometheus series, `Display`
//! and bench-JSON key) and, in `ive_serve`, its atomic all come from that
//! row.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use ive_he::modswitch::SwitchedCiphertext;
use ive_he::{BfvCiphertext, HeParams, RgswCiphertext, SubsKey};
use ive_math::kernel::{GadgetRows, RowSource};
use ive_math::mask::{MaskSeed, MaskStream};
use ive_math::rns::{Form, RnsPoly};
use ive_math::sample::{SampleRows, SampleWord};

use crate::client::{ClientKeys, PirQuery};
use crate::keyword::{bucket_trace_rounds, KvSchema};
use crate::kspir::{KsPirKeys, KsPirParams, KsPirQuery};
use crate::update::RecordUpdate;
use crate::PirError;

/// Format magic (`"IVE1"`).
const MAGIC: u32 = 0x4956_4531;

/// Wire format version carried in every header. Version 2 added the
/// version byte itself plus the `Response`, `ClientKeys`, and session
/// frames; version 3 replaced every fresh sample's mask by the frame's
/// mask seed (see the module doc). Any other version is rejected.
pub const VERSION: u8 = 3;

/// Declares the frame tags: the enum, the byte → tag map and the names
/// used in error messages all come from the one list below.
macro_rules! tags {
    ($($(#[$doc:meta])* $name:ident = $byte:literal,)*) => {
        /// Tags for the framed object types.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Tag {
            $($(#[$doc])* $name = $byte,)*
        }

        impl Tag {
            /// The tag for a raw byte, if it names a known frame type.
            pub fn from_byte(b: u8) -> Option<Tag> {
                match b {
                    $($byte => Some(Tag::$name),)*
                    _ => None,
                }
            }

            /// The frame type's name, for error messages.
            pub fn name(self) -> &'static str {
                match self {
                    $(Tag::$name => stringify!($name),)*
                }
            }
        }
    };
}

tags! {
    /// One RNS polynomial.
    Poly = 1,
    /// A BFV ciphertext: both polynomials when computed (a response),
    /// the body alone when fresh (inside a query).
    Bfv = 2,
    /// A fresh RGSW ciphertext: the bodies of its `2ℓ` RLWE rows.
    Rgsw = 3,
    /// A full PIR query (packed ciphertext + RGSW selection bits).
    Query = 4,
    /// A server response (one BFV ciphertext).
    Response = 5,
    /// A client's full evaluation-key set (`log D0` `evk_r` keys).
    ClientKeys = 6,
    /// Session handshake, client → server: the one-time key upload.
    Hello = 7,
    /// Session handshake, server → client: the assigned session id.
    Welcome = 8,
    /// An online query bound to a session (session id + request id).
    SessionQuery = 9,
    /// The response to one [`Tag::SessionQuery`] (echoes the request id).
    SessionResponse = 10,
    /// A per-request server-side failure report.
    Error = 11,
    /// A batch of row put/delete deltas for the live database
    /// (client → server; see [`crate::update`]).
    UpdateRow = 12,
    /// The acknowledgement of one [`Tag::UpdateRow`] batch: the epoch it
    /// committed as and how many deltas it carried.
    UpdateAck = 13,
    /// Keyword-session handshake, client → server: the one-time upload
    /// of the client's `log N` trace keys (see [`crate::kspir`]).
    KsHello = 14,
    /// Keyword-session handshake reply: the session id plus the server's
    /// keyword schema (hash seed + table geometry, see
    /// [`crate::keyword::KvSchema`]).
    KsWelcome = 15,
    /// A keyword-PIR scalar query bound to a keyword session.
    KsQuery = 16,
    /// The response to one [`Tag::KsQuery`] (echoes the request id).
    KsResponse = 17,
    /// A modulus-switched session response (§VII response compression;
    /// see [`ive_he::modswitch`]).
    CompressedResponse = 18,
    /// A key→value put/delete for the live keyword store.
    KvUpdate = 19,
    /// A live-stats scrape request (client → server, any connection).
    GetStats = 20,
    /// The reply to one [`Tag::GetStats`]: the full [`StatsReport`].
    StatsResponse = 21,
}

fn put_header(buf: &mut BytesMut, tag: Tag) {
    buf.put_u32(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag as u8);
}

/// Builds one frame: the header for `tag`, then whatever `body` appends.
fn frame(tag: Tag, body: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, tag);
    body(&mut buf);
    buf.freeze()
}

/// Returns [`PirError::Wire`] with a formatted message — the one way a
/// decoder reports bytes it will not accept.
macro_rules! malformed {
    ($($message:tt)*) => {
        return Err(PirError::Wire(format!($($message)*)))
    };
}

/// A checked cursor over received bytes — the only way a decoder in this
/// module reads. Every accessor returns [`PirError::Wire`] when fewer
/// bytes remain than it needs, so "typed error, never a panic, on
/// hostile bytes" holds by construction. Whole frames go through
/// [`decode`], which adds the header and trailing-bytes checks.
struct FrameReader<'a> {
    rest: &'a [u8],
}

impl<'a> FrameReader<'a> {
    /// Consumes and validates the magic + version, returning the raw tag
    /// byte. The single header parser behind both [`peek_tag`] and the
    /// typed decoders, so they can never disagree on what a valid frame
    /// is.
    fn raw_header(&mut self) -> Result<u8, PirError> {
        if self.u32()? != MAGIC {
            malformed!("bad magic");
        }
        let version = self.u8()?;
        if version != VERSION {
            malformed!("unsupported wire version {version} (this build speaks {VERSION})");
        }
        self.u8()
    }

    /// Consumes one header — a frame's own, or that of a nested object —
    /// and requires it to carry `tag`.
    fn header(&mut self, tag: Tag) -> Result<(), PirError> {
        let got = self.raw_header()?;
        if got == tag as u8 {
            return Ok(());
        }
        let got = match Tag::from_byte(got) {
            Some(known) => format!("{} (tag {got})", known.name()),
            None => format!("unknown tag {got}"),
        };
        malformed!("expected {} frame (tag {}), got {got}", tag.name(), tag as u8)
    }

    /// The next `n` bytes, or the under-run error every accessor shares.
    fn take(&mut self, n: usize) -> Result<&'a [u8], PirError> {
        if self.rest.len() < n {
            malformed!("truncated frame: {n} bytes needed, {} left", self.rest.len());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PirError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }

    fn u8(&mut self) -> Result<u8, PirError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, PirError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, PirError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, PirError> {
        self.array().map(u64::from_be_bytes)
    }

    /// `len` raw bytes, owned. Nothing is allocated for a length the
    /// frame does not actually carry.
    fn bytes(&mut self, len: usize) -> Result<Vec<u8>, PirError> {
        self.take(len).map(<[u8]>::to_vec)
    }
}

/// Decodes one whole frame — the read-side twin of [`frame`]: requires
/// the header to carry `tag`, hands the body to `body`, and refuses
/// trailing bytes, so no decoder can forget either check.
fn decode<'a, T>(
    bytes: &'a [u8],
    tag: Tag,
    body: impl FnOnce(&mut FrameReader<'a>) -> Result<T, PirError>,
) -> Result<T, PirError> {
    let mut r = FrameReader { rest: bytes };
    r.header(tag)?;
    let out = body(&mut r)?;
    if !r.rest.is_empty() {
        malformed!("{} trailing bytes", r.rest.len());
    }
    Ok(out)
}

/// Reads the tag of a frame without consuming it — the dispatch point for
/// a server demultiplexing incoming session frames.
///
/// # Errors
/// Fails on truncation, bad magic, wrong version, or an unknown tag.
pub fn peek_tag(bytes: &Bytes) -> Result<Tag, PirError> {
    let raw = FrameReader { rest: bytes }.raw_header()?;
    Tag::from_byte(raw).ok_or_else(|| PirError::Wire(format!("unknown tag {raw}")))
}

/// Runs `read` over the unread bytes of `buf` through the checked reader
/// and advances `buf` past what it consumed — how the public `read_*`
/// functions keep their `impl Buf` signature.
fn read_through<T>(
    buf: &mut impl Buf,
    read: impl FnOnce(&mut FrameReader<'_>) -> Result<T, PirError>,
) -> Result<T, PirError> {
    let unread = buf.chunk();
    let mut r = FrameReader { rest: unread };
    let out = read(&mut r);
    let used = unread.len() - r.rest.len();
    buf.advance(used);
    out
}

/// The bulk residue codec, write side: appends `words` as 4-byte
/// big-endian words, a stack chunk at a time (one pass over a limb, no
/// per-word call).
fn put_residues(buf: &mut BytesMut, words: &[u64]) {
    const CHUNK: usize = 1024;
    let mut bytes = [0u8; 4 * CHUNK];
    for run in words.chunks(CHUNK) {
        let (out, _) = bytes[..4 * run.len()].as_chunks_mut::<4>();
        for (dst, &w) in out.iter_mut().zip(run) {
            debug_assert!(w <= u64::from(u32::MAX), "residue exceeds 4-byte packing");
            *dst = (w as u32).to_be_bytes();
        }
        buf.put_slice(out.as_flattened());
    }
}

/// The bulk residue codec, read side: unpacks one limb of 4-byte
/// big-endian residues into `out`, in whatever word it is stored, with
/// the `< q` check folded into the same pass (the offending word is
/// looked up only on failure). `raw` is exactly `4 * out.len()` bytes.
fn unpack_residues<W: SampleWord>(raw: &[u8], q: u64, out: &mut [W]) -> Result<(), PirError> {
    let words = raw.as_chunks::<4>().0;
    let mut bad = false;
    for (w, &word) in out.iter_mut().zip(words) {
        let v = u64::from(u32::from_be_bytes(word));
        bad |= v >= q;
        *w = W::from_residue(v);
    }
    if bad {
        let v = words.iter().map(|&w| u64::from(u32::from_be_bytes(w))).find(|&v| v >= q);
        malformed!("residue {} >= modulus {q}", v.expect("a residue failed the check"));
    }
    Ok(())
}

/// Serializes one polynomial (form byte + residue words).
pub fn write_poly(buf: &mut BytesMut, poly: &RnsPoly) {
    put_header(buf, Tag::Poly);
    buf.put_u8(match poly.form() {
        Form::Coeff => 0,
        Form::Ntt => 1,
    });
    buf.put_u16(poly.ctx().basis().len() as u16);
    buf.put_u32(poly.ctx().n() as u32);
    put_residues(buf, poly.as_words());
}

/// Serializes a BFV ciphertext.
pub fn write_bfv(buf: &mut BytesMut, ct: &BfvCiphertext) {
    put_header(buf, Tag::Bfv);
    write_poly(buf, &ct.a);
    write_poly(buf, &ct.b);
}

/// The fresh rows of an RGSW bit or an `evk_r`: the row count, then each
/// row's body (the masks are the enclosing frame's stream draws; see
/// `FrameReader::fresh_rows`).
fn write_fresh_rows(buf: &mut BytesMut, rows: &GadgetRows) {
    buf.put_u16(rows.terms() as u16);
    for t in 0..rows.terms() {
        write_poly(buf, &rows.body(t));
    }
}

/// Serializes a fresh RGSW ciphertext: its rows' bodies (see
/// [`read_rgsw`]).
pub fn write_rgsw(buf: &mut BytesMut, ct: &RgswCiphertext) {
    put_header(buf, Tag::Rgsw);
    write_fresh_rows(buf, ct.gadget_rows());
}

/// Serializes one `evk_r` entry of a key set: exponent, then its rows'
/// bodies.
fn write_subs_key(buf: &mut BytesMut, key: &SubsKey) {
    buf.put_u32(key.r() as u32);
    write_fresh_rows(buf, key.gadget_rows());
}

/// A seeded, counted key set: the body of [`Tag::ClientKeys`],
/// [`Tag::Hello`] and [`Tag::KsHello`].
fn write_subs_keys(buf: &mut BytesMut, seed: &MaskSeed, keys: &[SubsKey]) {
    buf.put_slice(seed);
    buf.put_u16(keys.len() as u16);
    for key in keys {
        write_subs_key(buf, key);
    }
}

/// A seed, then a fresh ciphertext and its counted RGSW selection bits:
/// the body of [`Tag::Query`] and [`Tag::SessionQuery`] (packed query +
/// row bits) and of [`Tag::KsQuery`] (coefficient selector + chunk bits).
fn write_selector(
    buf: &mut BytesMut,
    seed: &MaskSeed,
    ct: &BfvCiphertext,
    bits: &[RgswCiphertext],
) {
    buf.put_slice(seed);
    buf.put_u16(bits.len() as u16);
    put_header(buf, Tag::Bfv);
    write_poly(buf, &ct.b);
    for bit in bits {
        write_rgsw(buf, bit);
    }
}

/// The nested objects, read against `he`'s ring.
impl<'a> FrameReader<'a> {
    /// A polynomial's form and its `k·n` packed residues, limb by limb,
    /// unchecked.
    fn poly_raw(&mut self, he: &HeParams) -> Result<(Form, &'a [u8]), PirError> {
        self.header(Tag::Poly)?;
        let form = match self.u8()? {
            0 => Form::Coeff,
            1 => Form::Ntt,
            other => malformed!("unknown form {other}"),
        };
        let (k, n) = (self.u16()? as usize, self.u32()? as usize);
        let ring = he.ring();
        if k != ring.basis().len() || n != ring.n() {
            malformed!("shape {k}x{n} does not match ring {}x{}", ring.basis().len(), ring.n());
        }
        Ok((form, self.take(4 * k * n)?))
    }

    fn poly(&mut self, he: &HeParams) -> Result<RnsPoly, PirError> {
        let (form, raw) = self.poly_raw(he)?;
        let (ring, n) = (he.ring(), he.n());
        let mut poly = RnsPoly::zero(ring, form);
        for (m, limb) in raw.chunks_exact(4 * n).enumerate() {
            unpack_residues(limb, ring.basis().moduli()[m].value(), poly.residue_mut(m))?;
        }
        Ok(poly)
    }

    fn bfv(&mut self, he: &HeParams) -> Result<BfvCiphertext, PirError> {
        self.header(Tag::Bfv)?;
        Ok(BfvCiphertext { a: self.poly(he)?, b: self.poly(he)? })
    }

    fn seed(&mut self) -> Result<MaskSeed, PirError> {
        self.array()
    }

    /// One fresh sample: its body from the frame, its mask the next draw
    /// of `masks`.
    fn fresh(
        &mut self,
        he: &HeParams,
        masks: &mut MaskStream,
    ) -> Result<(RnsPoly, RnsPoly), PirError> {
        let b = self.poly(he)?;
        if b.form() != Form::Ntt {
            malformed!("fresh sample body not in NTT form");
        }
        Ok((masks.next_poly(he.ring()), b))
    }

    /// The fresh rows of an RGSW bit or an `evk_r` (`what`), which must
    /// number `want`: the count, then per row the frame's body and the
    /// next draw of `masks`, both written straight into the store (see
    /// [`write_fresh_rows`]).
    fn fresh_rows(
        &mut self,
        he: &HeParams,
        masks: &mut MaskStream,
        what: &str,
        want: usize,
    ) -> Result<GadgetRows, PirError> {
        let rows = self.u16()? as usize;
        if rows != want {
            malformed!("{what} with {rows} rows, expected {want}");
        }
        let mut source = FreshRows { reader: self, he, masks, mask: vec![0; he.n()] };
        GadgetRows::try_fill(he.ring(), rows, &mut source)
    }

    fn rgsw(&mut self, he: &HeParams, masks: &mut MaskStream) -> Result<RgswCiphertext, PirError> {
        self.header(Tag::Rgsw)?;
        let rows = self.fresh_rows(he, masks, "RGSW", 2 * he.rgsw_gadget().ell())?;
        Ok(RgswCiphertext::from_rows(rows))
    }

    /// One validated `evk_r` entry.
    fn subs_key(&mut self, he: &HeParams, masks: &mut MaskStream) -> Result<SubsKey, PirError> {
        let r = self.u32()? as usize;
        if r.is_multiple_of(2) || r >= 2 * he.n() {
            malformed!("automorphism exponent {r} not odd in [1, 2N = {})", 2 * he.n());
        }
        let rows = self.fresh_rows(he, masks, "evk", he.evk_gadget().ell())?;
        Ok(SubsKey::from_parts(r, rows))
    }

    /// The `count` keys that follow a key set's seed and count, which the
    /// caller has already read and bounded.
    fn subs_keys(
        &mut self,
        he: &HeParams,
        seed: MaskSeed,
        count: usize,
    ) -> Result<Vec<SubsKey>, PirError> {
        let mut masks = MaskStream::new(seed);
        (0..count).map(|_| self.subs_key(he, &mut masks)).collect()
    }

    /// The fresh ciphertext and `bits` RGSW bits that follow a selector's
    /// seed and bit count (see [`write_selector`]).
    fn selector(
        &mut self,
        he: &HeParams,
        seed: MaskSeed,
        bits: usize,
    ) -> Result<(BfvCiphertext, Vec<RgswCiphertext>), PirError> {
        let mut masks = MaskStream::new(seed);
        self.header(Tag::Bfv)?;
        let (a, b) = self.fresh(he, &mut masks)?;
        let bits = (0..bits).map(|_| self.rgsw(he, &mut masks)).collect::<Result<_, PirError>>()?;
        Ok((BfvCiphertext { a, b }, bits))
    }

    /// The body of [`Tag::Query`] and [`Tag::SessionQuery`].
    fn query_body(&mut self, he: &HeParams) -> Result<PirQuery, PirError> {
        let (seed, bits) = (self.seed()?, self.u16()? as usize);
        let (packed, row_bits) = self.selector(he, seed, bits)?;
        Ok(PirQuery::from_seeded(seed, packed, row_bits))
    }
}

/// The rows of one fresh RGSW bit or `evk_r` as the frame carries them:
/// per row a body polynomial, its mask the next draw of `masks`.
struct FreshRows<'r, 'a> {
    reader: &'r mut FrameReader<'a>,
    he: &'r HeParams,
    masks: &'r mut MaskStream,
    /// One limb of the mask, on its way into the store's word.
    mask: Vec<u64>,
}

impl RowSource for FreshRows<'_, '_> {
    type Error = PirError;

    fn row<O: SampleRows>(&mut self, _: usize, out: &mut O) -> Result<(), PirError> {
        let (form, raw) = self.reader.poly_raw(self.he)?;
        if form != Form::Ntt {
            malformed!("fresh sample body not in NTT form");
        }
        let moduli = self.he.ring().basis().moduli();
        for (m, (limb, modulus)) in raw.chunks_exact(4 * self.he.n()).zip(moduli).enumerate() {
            let (a, b) = out.limb(m);
            self.masks.fill_limb(modulus, &mut self.mask);
            a.iter_mut().zip(&self.mask).for_each(|(a, &x)| *a = SampleWord::from_residue(x));
            unpack_residues(limb, modulus.value(), b)?;
        }
        Ok(())
    }
}

/// Deserializes one polynomial against the given parameters.
///
/// # Errors
/// Fails on truncation, bad framing, or shape/value mismatch.
pub fn read_poly(he: &HeParams, buf: &mut impl Buf) -> Result<RnsPoly, PirError> {
    read_through(buf, |r| r.poly(he))
}

/// Deserializes a BFV ciphertext.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn read_bfv(he: &HeParams, buf: &mut impl Buf) -> Result<BfvCiphertext, PirError> {
    read_through(buf, |r| r.bfv(he))
}

/// Deserializes a fresh RGSW ciphertext, its row masks the next `2ℓ`
/// draws of `masks`.
///
/// # Errors
/// Fails on framing or shape errors, or a body not in NTT form.
pub fn read_rgsw(
    he: &HeParams,
    masks: &mut MaskStream,
    buf: &mut impl Buf,
) -> Result<RgswCiphertext, PirError> {
    read_through(buf, |r| r.rgsw(he, masks))
}

/// Serializes a full query (packed ciphertext + RGSW bits).
pub fn encode_query(query: &PirQuery) -> Bytes {
    frame(Tag::Query, |buf| write_selector(buf, query.seed(), query.packed(), query.row_bits()))
}

/// Deserializes a full query.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_query(he: &HeParams, bytes: &Bytes) -> Result<PirQuery, PirError> {
    decode(bytes, Tag::Query, |r| r.query_body(he))
}

/// Serializes a server response (one ciphertext) as a tagged frame.
pub fn encode_response(ct: &BfvCiphertext) -> Bytes {
    frame(Tag::Response, |buf| write_bfv(buf, ct))
}

/// Deserializes a server response.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_response(he: &HeParams, bytes: &Bytes) -> Result<BfvCiphertext, PirError> {
    decode(bytes, Tag::Response, |r| r.bfv(he))
}

/// Decodes the key-set frame `tag` ([`Tag::ClientKeys`] or [`Tag::Hello`]).
fn decode_keys(tag: Tag, he: &HeParams, bytes: &Bytes) -> Result<ClientKeys, PirError> {
    decode(bytes, tag, |r| {
        let (seed, count) = (r.seed()?, r.u16()? as usize);
        // A key per ExpandQuery level: log N bounds the legal count (§II-A).
        let max = usize::BITS as usize;
        if count > max {
            malformed!("{count} evaluation keys exceed the {max} cap");
        }
        r.subs_keys(he, seed, count).map(|keys| ClientKeys::from_seeded(seed, keys))
    })
}

/// Serializes a client's full evaluation-key set.
pub fn encode_client_keys(keys: &ClientKeys) -> Bytes {
    frame(Tag::ClientKeys, |buf| write_subs_keys(buf, keys.seed(), keys.subs_keys()))
}

/// Deserializes a client's full evaluation-key set.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_client_keys(he: &HeParams, bytes: &Bytes) -> Result<ClientKeys, PirError> {
    decode_keys(Tag::ClientKeys, he, bytes)
}

/// Serializes the session handshake: the one-time upload of the client's
/// evaluation keys (the paper's ARK key-registration step, §V).
pub fn encode_hello(keys: &ClientKeys) -> Bytes {
    frame(Tag::Hello, |buf| write_subs_keys(buf, keys.seed(), keys.subs_keys()))
}

/// Deserializes a session handshake into the uploaded key set.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_hello(he: &HeParams, bytes: &Bytes) -> Result<ClientKeys, PirError> {
    decode_keys(Tag::Hello, he, bytes)
}

/// Serializes the handshake reply: the session id under which the keys
/// were cached.
pub fn encode_welcome(session_id: u64) -> Bytes {
    frame(Tag::Welcome, |buf| buf.put_u64(session_id))
}

/// Deserializes a handshake reply into the session id.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_welcome(bytes: &Bytes) -> Result<u64, PirError> {
    decode(bytes, Tag::Welcome, FrameReader::u64)
}

/// Serializes an online query: session id, client-chosen request id, and
/// the per-query material only (the keys stay cached server-side).
pub fn encode_session_query(session_id: u64, request_id: u64, query: &PirQuery) -> Bytes {
    frame(Tag::SessionQuery, |buf| {
        buf.put_u64(session_id);
        buf.put_u64(request_id);
        write_selector(buf, query.seed(), query.packed(), query.row_bits());
    })
}

/// Deserializes an online query into `(session_id, request_id, query)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_session_query(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, u64, PirQuery), PirError> {
    decode(bytes, Tag::SessionQuery, |r| Ok((r.u64()?, r.u64()?, r.query_body(he)?)))
}

/// An answer frame — request id, then one ciphertext — under `tag`
/// ([`Tag::SessionResponse`] or [`Tag::KsResponse`]).
fn encode_answer(tag: Tag, request_id: u64, ct: &BfvCiphertext) -> Bytes {
    frame(tag, |buf| {
        buf.put_u64(request_id);
        write_bfv(buf, ct);
    })
}

fn decode_answer(tag: Tag, he: &HeParams, bytes: &Bytes) -> Result<(u64, BfvCiphertext), PirError> {
    decode(bytes, tag, |r| Ok((r.u64()?, r.bfv(he)?)))
}

/// Serializes the response to one session query.
pub fn encode_session_response(request_id: u64, ct: &BfvCiphertext) -> Bytes {
    encode_answer(Tag::SessionResponse, request_id, ct)
}

/// Deserializes a session response into `(request_id, ciphertext)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_session_response(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, BfvCiphertext), PirError> {
    decode_answer(Tag::SessionResponse, he, bytes)
}

/// Serializes a per-request failure report.
pub fn encode_error_frame(request_id: u64, message: &str) -> Bytes {
    frame(Tag::Error, |buf| {
        buf.put_u64(request_id);
        buf.put_u32(message.len() as u32);
        buf.put_slice(message.as_bytes());
    })
}

/// Deserializes a failure report into `(request_id, message)`.
///
/// # Errors
/// Fails on framing errors or a non-UTF-8 message.
pub fn decode_error_frame(bytes: &Bytes) -> Result<(u64, String), PirError> {
    decode(bytes, Tag::Error, |r| {
        let request = r.u64()?;
        let len = r.u32()? as usize;
        match String::from_utf8(r.bytes(len)?) {
            Ok(message) => Ok((request, message)),
            Err(_) => malformed!("error message not UTF-8"),
        }
    })
}

/// Delta kind bytes inside [`Tag::UpdateRow`] and [`Tag::KvUpdate`] frames.
const KIND_DELETE: u8 = 0;
const KIND_PUT: u8 = 1;

/// Serializes a batch of row deltas under a client-chosen request id.
/// Deltas travel as raw record bytes — the server runs the §II-B
/// preprocessing on its side, off the query hot path.
///
/// # Errors
/// Fails when the batch exceeds the `u16` per-frame delta count; chunk
/// larger ingests across frames (each frame is one epoch anyway).
pub fn encode_update_rows(request_id: u64, updates: &[RecordUpdate]) -> Result<Bytes, PirError> {
    if updates.len() > usize::from(u16::MAX) {
        return Err(PirError::InvalidParams(format!(
            "update batch of {} deltas exceeds the {} per-frame cap",
            updates.len(),
            u16::MAX
        )));
    }
    Ok(frame(Tag::UpdateRow, |buf| {
        buf.put_u64(request_id);
        buf.put_u16(updates.len() as u16);
        for u in updates {
            buf.put_u64(u.index() as u64);
            match u {
                RecordUpdate::Delete { .. } => buf.put_u8(KIND_DELETE),
                RecordUpdate::Put { bytes, .. } => {
                    buf.put_u8(KIND_PUT);
                    buf.put_u32(bytes.len() as u32);
                    buf.put_slice(bytes);
                }
            }
        }
    }))
}

/// Deserializes a row-delta batch into `(request_id, updates)`,
/// validating every index against the geometry and every payload against
/// the record capacity — a malformed frame is rejected here, before it
/// can reach the update path.
///
/// # Errors
/// Fails on framing errors, out-of-range indices, oversized payloads, or
/// an unknown delta kind.
pub fn decode_update_rows(
    params: &crate::PirParams,
    bytes: &Bytes,
) -> Result<(u64, Vec<RecordUpdate>), PirError> {
    decode(bytes, Tag::UpdateRow, |r| {
        let request_id = r.u64()?;
        let count = r.u16()? as usize;
        let mut updates = Vec::with_capacity(count);
        for _ in 0..count {
            let index = r.u64()? as usize;
            if index >= params.num_records() {
                malformed!(
                    "update index {index} out of range (database holds {})",
                    params.num_records()
                );
            }
            match r.u8()? {
                KIND_DELETE => updates.push(RecordUpdate::Delete { index }),
                KIND_PUT => {
                    let len = r.u32()? as usize;
                    if len > params.record_bytes() {
                        malformed!(
                            "update payload of {len} bytes exceeds the {}-byte record capacity",
                            params.record_bytes()
                        );
                    }
                    updates.push(RecordUpdate::Put { index, bytes: r.bytes(len)? });
                }
                other => malformed!("unknown update kind {other}"),
            }
        }
        Ok((request_id, updates))
    })
}

/// Serializes the acknowledgement of one committed update batch.
pub fn encode_update_ack(request_id: u64, epoch: u64, applied: u32) -> Bytes {
    frame(Tag::UpdateAck, |buf| {
        buf.put_u64(request_id);
        buf.put_u64(epoch);
        buf.put_u32(applied);
    })
}

/// Deserializes an update acknowledgement into
/// `(request_id, epoch, applied)`.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_update_ack(bytes: &Bytes) -> Result<(u64, u64, u32), PirError> {
    decode(bytes, Tag::UpdateAck, |r| Ok((r.u64()?, r.u64()?, r.u32()?)))
}

/// Serializes the keyword-session handshake: the one-time upload of the
/// client's trace key-switching keys (one per halving round: `log N` for
/// a slot session, a bucket query's `R` for a bucket session).
pub fn encode_ks_hello(keys: &KsPirKeys) -> Bytes {
    frame(Tag::KsHello, |buf| write_subs_keys(buf, keys.seed(), keys.trace_keys()))
}

/// Deserializes a keyword-session handshake into the uploaded key set.
///
/// A trace answers a slot with `log N` automorphism keys and a keyword
/// bucket with [`bucket_trace_rounds`]; any other count is rejected
/// before the keys reach the session cache.
///
/// # Errors
/// Fails on framing or shape errors, or a key count other than `log N`
/// or the bucket's `R`.
pub fn decode_ks_hello(he: &HeParams, bytes: &Bytes) -> Result<KsPirKeys, PirError> {
    let slot = ive_math::log2_exact(he.n())? as usize;
    let bucket = bucket_trace_rounds(he).map_or(slot, |r| r as usize);
    decode(bytes, Tag::KsHello, |r| {
        let (seed, count) = (r.seed()?, r.u16()? as usize);
        if count != slot && count != bucket {
            malformed!(
                "keyword hello carries {count} trace keys, a trace needs exactly {slot} (slot) \
                 or {bucket} (bucket)"
            );
        }
        r.subs_keys(he, seed, count).map(|keys| KsPirKeys::from_seeded(seed, keys))
    })
}

/// Serializes the keyword handshake reply: the session id plus the
/// server's table layout (hash seed, bucket count, slots per group) —
/// everything a client needs to map `key -> slot indices` locally.
pub fn encode_ks_welcome(session_id: u64, schema: &KvSchema) -> Bytes {
    frame(Tag::KsWelcome, |buf| {
        buf.put_u64(session_id);
        buf.put_u64(schema.seed());
        buf.put_u64(schema.buckets() as u64);
        buf.put_u16(schema.group_slots() as u16);
    })
}

/// Deserializes a keyword handshake reply into `(session_id, schema)`.
///
/// The schema is rebuilt locally from the advertised seed; the advertised
/// bucket count and group width must match what the client's own
/// parameters derive, otherwise the two sides disagree on geometry and
/// every retrieval would silently decode garbage.
///
/// # Errors
/// Fails on framing errors or a layout that contradicts `params`.
pub fn decode_ks_welcome(params: &KsPirParams, bytes: &Bytes) -> Result<(u64, KvSchema), PirError> {
    let (session, seed, buckets, group) = decode(bytes, Tag::KsWelcome, |r| {
        Ok((r.u64()?, r.u64()?, r.u64()? as usize, r.u16()? as usize))
    })?;
    let schema = KvSchema::new(params.clone(), seed)?;
    if buckets != schema.buckets() || group != schema.group_slots() {
        malformed!(
            "advertised layout {buckets}x{group} does not match the {}x{} \
             derived from the client parameters",
            schema.buckets(),
            schema.group_slots()
        );
    }
    Ok((session, schema))
}

/// Serializes one keyword retrieval query: session id, client-chosen
/// request id, and the per-slot query material (packed coefficient
/// selector + RGSW chunk bits).
pub fn encode_ks_query(session_id: u64, request_id: u64, query: &KsPirQuery) -> Bytes {
    frame(Tag::KsQuery, |buf| {
        buf.put_u64(session_id);
        buf.put_u64(request_id);
        write_selector(buf, query.seed(), query.ct(), query.chunk_bits());
    })
}

/// Deserializes a keyword query into `(session_id, request_id, query)`,
/// rejecting any chunk-bit count other than the tournament depth.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_ks_query(
    params: &KsPirParams,
    bytes: &Bytes,
) -> Result<(u64, u64, KsPirQuery), PirError> {
    decode(bytes, Tag::KsQuery, |r| {
        let (session, request, seed) = (r.u64()?, r.u64()?, r.seed()?);
        let bits = r.u16()? as usize;
        if bits != params.log_chunks() as usize {
            malformed!(
                "keyword query carries {bits} chunk bits, the tournament needs {}",
                params.log_chunks()
            );
        }
        let (ct, chunk_bits) = r.selector(params.he(), seed, bits)?;
        Ok((session, request, KsPirQuery::from_seeded(seed, ct, chunk_bits)))
    })
}

/// Serializes the response to one keyword query.
pub fn encode_ks_response(request_id: u64, ct: &BfvCiphertext) -> Bytes {
    encode_answer(Tag::KsResponse, request_id, ct)
}

/// Deserializes a keyword response into `(request_id, ciphertext)`.
///
/// # Errors
/// Fails on framing or shape errors.
pub fn decode_ks_response(he: &HeParams, bytes: &Bytes) -> Result<(u64, BfvCiphertext), PirError> {
    decode_answer(Tag::KsResponse, he, bytes)
}

/// Serializes a modulus-switched response: only the `primes` retained
/// residues travel, cutting downlink traffic by `k / primes` versus a
/// full [`Tag::SessionResponse`] (Table VIII's response compression).
pub fn encode_compressed_response(request_id: u64, ct: &SwitchedCiphertext) -> Bytes {
    let n = ct.a.len() / ct.primes;
    frame(Tag::CompressedResponse, |buf| {
        buf.put_u64(request_id);
        buf.put_u16(ct.primes as u16);
        buf.put_u32(n as u32);
        put_residues(buf, &ct.a);
        put_residues(buf, &ct.b);
    })
}

/// Deserializes a modulus-switched response into
/// `(request_id, ciphertext)`, validating the retained prime count
/// against the basis and every residue against its modulus.
///
/// # Errors
/// Fails on framing errors, a prime count outside `[1, k]`, a ring-size
/// mismatch, or an out-of-range residue.
pub fn decode_compressed_response(
    he: &HeParams,
    bytes: &Bytes,
) -> Result<(u64, SwitchedCiphertext), PirError> {
    let moduli = he.ring().basis().moduli();
    decode(bytes, Tag::CompressedResponse, |r| {
        let request = r.u64()?;
        let (primes, n) = (r.u16()? as usize, r.u32()? as usize);
        if primes == 0 || primes > moduli.len() {
            malformed!(
                "compressed response retains {primes} primes, the basis holds {}",
                moduli.len()
            );
        }
        if n != he.n() {
            malformed!("ring size {n} does not match N = {}", he.n());
        }
        let mut half = || -> Result<Vec<u64>, PirError> {
            let raw = r.take(4 * primes * n)?;
            let mut out = vec![0u64; primes * n];
            let limbs = raw.chunks_exact(4 * n).zip(out.chunks_exact_mut(n));
            for (modulus, (limb, words)) in moduli.iter().zip(limbs) {
                unpack_residues(limb, modulus.value(), words)?;
            }
            Ok(out)
        };
        let (a, b) = (half()?, half()?);
        Ok((request, SwitchedCiphertext { primes, a, b }))
    })
}

/// Largest key a [`Tag::KvUpdate`] frame accepts, in bytes.
pub const MAX_KV_KEY_BYTES: usize = 4096;

/// Serializes one keyword-store mutation (`value: Some` puts, `None`
/// deletes) under a client-chosen request id.
///
/// # Errors
/// Fails on an empty key or one longer than [`MAX_KV_KEY_BYTES`].
pub fn encode_kv_update(
    request_id: u64,
    key: &[u8],
    value: Option<u64>,
) -> Result<Bytes, PirError> {
    if key.is_empty() {
        return Err(PirError::InvalidParams("empty keyword-store key".into()));
    }
    if key.len() > MAX_KV_KEY_BYTES {
        return Err(PirError::InvalidParams(format!(
            "key of {} bytes exceeds the {MAX_KV_KEY_BYTES}-byte cap",
            key.len()
        )));
    }
    Ok(frame(Tag::KvUpdate, |buf| {
        buf.put_u64(request_id);
        match value {
            None => buf.put_u8(KIND_DELETE),
            Some(v) => {
                buf.put_u8(KIND_PUT);
                buf.put_u64(v);
            }
        }
        buf.put_u16(key.len() as u16);
        buf.put_slice(key);
    }))
}

/// Deserializes a keyword-store mutation into
/// `(request_id, key, value)` — `value` is `None` for a delete.
///
/// # Errors
/// Fails on framing errors, an unknown kind, or an empty/oversized key.
pub fn decode_kv_update(bytes: &Bytes) -> Result<(u64, Vec<u8>, Option<u64>), PirError> {
    decode(bytes, Tag::KvUpdate, |r| {
        let request = r.u64()?;
        let value = match r.u8()? {
            KIND_DELETE => None,
            KIND_PUT => Some(r.u64()?),
            other => malformed!("unknown kv update kind {other}"),
        };
        let len = r.u16()? as usize;
        if len == 0 {
            malformed!("empty keyword-store key");
        }
        if len > MAX_KV_KEY_BYTES {
            malformed!("key of {len} bytes exceeds the {MAX_KV_KEY_BYTES}-byte cap");
        }
        Ok((request, r.bytes(len)?, value))
    })
}

/// Largest log₂ histogram a [`Tag::StatsResponse`] frame accepts — wide
/// enough for any duration histogram (2^64 µs ≫ the age of the
/// universe), tight enough to bound a hostile frame.
pub const MAX_STATS_BUCKETS: usize = 64;

/// Largest per-stage histogram count in a [`Tag::StatsResponse`] frame:
/// room for the current stage taxonomy to grow without a wire bump.
pub const MAX_STATS_STAGES: usize = 16;

/// One pipeline stage's log₂ duration histogram — the one type behind
/// the recorder's snapshot, the [`StatsReport`] on the wire and the
/// serving layer's stats. Stages are positional: entry `i` is stage `i`
/// of the serving layer's fixed taxonomy (`ive_serve::trace::Stage`), so
/// the wire stays free of string labels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, µs.
    pub sum_us: u64,
    /// Largest sample, µs.
    pub max_us: u64,
    /// Log₂ bucket counts: bucket `i` holds samples in
    /// `[2^i, 2^(i+1))` µs.
    pub buckets: Vec<u64>,
}

impl StageReport {
    /// Mean sample duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1000.0
        }
    }
}

/// One row of [`stats_counters!`](crate::stats_counters) as data: what
/// the Prometheus exposition, `Display` and the bench JSON iterate
/// beside [`StatsReport::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDef {
    /// The [`StatsReport`] field — also the `Display` and JSON key.
    pub name: &'static str,
    /// The field's one-line meaning, and its Prometheus `HELP` text.
    pub help: &'static str,
    /// `(series name, "counter" | "gauge")` when the row is exposed to
    /// Prometheus as it stands; `None` for rows that only feed a
    /// derived figure or a histogram's `_sum`.
    pub series: Option<(&'static str, &'static str)>,
}

/// The one declaration of every scalar in a [`StatsReport`]. A row is
/// `field: source, [exposition], "meaning";` where `source` is `event`
/// (an atomic in `ive_serve::Metrics`, bumped where the event happens) or
/// `sampled` (read from its owner when a report is taken), and
/// `exposition` is `counter "series"`, `gauge "series"` or nothing. Rows
/// travel in this order: `head` before the histograms, `tail` after — a
/// new row goes at the end of `tail`, anything else moves wire bytes.
/// Invoke with the name of a macro to hand the table to.
#[macro_export]
macro_rules! stats_counters {
    ($emit:ident) => {
        $emit! {
            head {
                queries: event, [counter "ive_queries_total"], "Queries answered successfully.";
                errors: event, [counter "ive_errors_total"], "Queries failed server-side.";
                batches: event, [counter "ive_batches_total"], "Batches dispatched.";
                batch_query_sum: event, [],
                    "Sum of dispatched batch sizes (mean batch = this / batches).";
                batches_multi: event, [counter "ive_batches_multi_total"],
                    "Batches coalescing >1 query.";
                max_batch: event, [], "Largest dispatched batch.";
                queue_depth: event, [gauge "ive_queue_depth"], "Queries waiting for a window.";
                queue_depth_max: event, [gauge "ive_queue_depth_max"],
                    "Waiting-queue high-water mark.";
                update_batches: event, [counter "ive_update_batches_total"],
                    "Update batches committed.";
                updates_applied: event, [counter "ive_updates_applied_total"],
                    "Row deltas committed.";
                epoch: event, [gauge "ive_epoch"], "Committed database epoch.";
                uptime_us: sampled, [], "Microseconds since the server's metrics were created.";
                latency_sum_us: event, [], "Sum of end-to-end query latencies, µs.";
                latency_max_us: event, [], "Worst observed end-to-end latency, µs.";
            }
            tail {
                residue_ntts: sampled, [counter "ive_kernel_residue_ntts_total"],
                    "Residue-polynomial (i)NTTs.";
                pointwise_macs: sampled, [counter "ive_kernel_pointwise_macs_total"],
                    "Modular multiply-accumulates.";
                icrt_coeffs: sampled, [counter "ive_kernel_icrt_coeffs_total"],
                    "Coefficients through iCRT.";
                auto_coeffs: sampled, [counter "ive_kernel_auto_coeffs_total"],
                    "Coefficients through automorphisms.";
                scan_bytes: sampled, [counter "ive_scan_bytes_total"],
                    "Database bytes streamed by RowSel.";
                scan_ns: sampled, [],
                    "Wall nanoseconds those scans took (bytes/ns = effective GB/s).";
                slow_queries: sampled, [counter "ive_slow_queries_total"],
                    "Queries over the slow-trace threshold.";
                busy_rejections: event, [counter "ive_busy_rejections_total"],
                    "Queries shed at admission (queue full).";
                session_evictions: sampled, [counter "ive_session_evictions_total"],
                    "Session-cache LRU evictions.";
                timeouts: event, [counter "ive_timeouts_total"],
                    "Connections closed at their idle deadline.";
                retries: event, [counter "ive_retries_total"],
                    "Duplicate updates answered from the idempotency cache.";
                reconnects: event, [counter "ive_reconnects_total"],
                    "Hellos re-registering a live connection.";
                worker_panics: event, [counter "ive_worker_panics_total"],
                    "Worker panics caught and isolated.";
                drained_jobs: event, [counter "ive_drained_jobs_total"],
                    "Queries answered while draining.";
            }
        }
    };
}

/// Generates [`StatsReport`], [`COUNTERS`] and the positional accessors
/// the codec loops over from the rows of `stats_counters!`.
macro_rules! define_report {
    (@series) => { None };
    (@series $kind:ident $series:literal) => { Some(($series, stringify!($kind))) };
    (
        head { $($h:ident: $hsrc:ident, [$($hexp:tt)*], $hhelp:literal;)* }
        tail { $($t:ident: $tsrc:ident, [$($texp:tt)*], $thelp:literal;)* }
    ) => {
        /// The raw server statistics a [`Tag::StatsResponse`] frame
        /// carries: every field is an integer counter or histogram, so
        /// the encoding is canonical and the receiver derives
        /// rates/quantiles itself (exactly the arithmetic
        /// `ive_serve::ServerStats` applies in-process). The scalar
        /// fields are the rows of
        /// [`stats_counters!`](crate::stats_counters).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsReport {
            $(#[doc = $hhelp] pub $h: u64,)*
            /// End-to-end latency log₂ histogram (bucket `i` =
            /// `[2^i, 2^(i+1))` µs).
            pub latency_buckets: Vec<u64>,
            /// Per-stage histograms, positional by stage discriminant.
            pub stages: Vec<StageReport>,
            $(#[doc = $thelp] pub $t: u64,)*
        }

        /// Every scalar of a [`StatsReport`], in wire order.
        pub const COUNTERS: &[CounterDef] = &[
            $(CounterDef {
                name: stringify!($h),
                help: $hhelp,
                series: define_report!(@series $($hexp)*),
            },)*
            $(CounterDef {
                name: stringify!($t),
                help: $thelp,
                series: define_report!(@series $($texp)*),
            },)*
        ];

        /// How many of [`COUNTERS`] travel before the histograms.
        const HEAD_COUNTERS: usize = [$(stringify!($h)),*].len();

        impl StatsReport {
            /// The scalars' values, positionally matching [`COUNTERS`].
            pub fn counters(&self) -> [u64; COUNTERS.len()] {
                [$(self.$h,)* $(self.$t,)*]
            }

            /// The scalars themselves, positionally matching [`COUNTERS`].
            pub fn counters_mut(&mut self) -> [&mut u64; COUNTERS.len()] {
                [$(&mut self.$h,)* $(&mut self.$t,)*]
            }
        }
    };
}

stats_counters!(define_report);

/// Serializes a stats scrape request under a client-chosen request id.
pub fn encode_get_stats(request_id: u64) -> Bytes {
    frame(Tag::GetStats, |buf| buf.put_u64(request_id))
}

/// Deserializes a stats scrape request into its request id.
///
/// # Errors
/// Fails on framing errors.
pub fn decode_get_stats(bytes: &Bytes) -> Result<u64, PirError> {
    decode(bytes, Tag::GetStats, FrameReader::u64)
}

/// Writes one `u64` histogram with a `u16` length prefix.
fn write_buckets(buf: &mut BytesMut, buckets: &[u64]) {
    buf.put_u16(buckets.len() as u16);
    for &b in buckets {
        buf.put_u64(b);
    }
}

impl FrameReader<'_> {
    /// One length-prefixed `u64` histogram of at most
    /// [`MAX_STATS_BUCKETS`] buckets.
    fn buckets(&mut self) -> Result<Vec<u64>, PirError> {
        let len = self.u16()? as usize;
        if len > MAX_STATS_BUCKETS {
            malformed!("histogram of {len} buckets exceeds the {MAX_STATS_BUCKETS} cap");
        }
        (0..len).map(|_| self.u64()).collect()
    }
}

/// Serializes a stats reply: the request id it answers, then the report.
///
/// # Errors
/// Fails when a histogram exceeds [`MAX_STATS_BUCKETS`] buckets or the
/// report carries more than [`MAX_STATS_STAGES`] stages.
pub fn encode_stats_response(request_id: u64, report: &StatsReport) -> Result<Bytes, PirError> {
    let histograms =
        std::iter::once(&report.latency_buckets).chain(report.stages.iter().map(|s| &s.buckets));
    if let Some(fat) = histograms.map(Vec::len).find(|&len| len > MAX_STATS_BUCKETS) {
        return Err(PirError::InvalidParams(format!(
            "histogram of {fat} buckets exceeds the {MAX_STATS_BUCKETS} cap"
        )));
    }
    if report.stages.len() > MAX_STATS_STAGES {
        return Err(PirError::InvalidParams(format!(
            "{} stages exceed the {MAX_STATS_STAGES} cap",
            report.stages.len()
        )));
    }
    let counters = report.counters();
    let (head, tail) = counters.split_at(HEAD_COUNTERS);
    Ok(frame(Tag::StatsResponse, |buf| {
        buf.put_u64(request_id);
        head.iter().for_each(|&v| buf.put_u64(v));
        write_buckets(buf, &report.latency_buckets);
        buf.put_u16(report.stages.len() as u16);
        for stage in &report.stages {
            buf.put_u64(stage.count);
            buf.put_u64(stage.sum_us);
            buf.put_u64(stage.max_us);
            write_buckets(buf, &stage.buckets);
        }
        tail.iter().for_each(|&v| buf.put_u64(v));
    }))
}

/// Deserializes a stats reply into `(request_id, report)`.
///
/// # Errors
/// Fails on framing errors or oversized histograms/stage counts.
pub fn decode_stats_response(bytes: &Bytes) -> Result<(u64, StatsReport), PirError> {
    decode(bytes, Tag::StatsResponse, |r| {
        let request = r.u64()?;
        let mut report = StatsReport::default();
        for counter in report.counters_mut().into_iter().take(HEAD_COUNTERS) {
            *counter = r.u64()?;
        }
        report.latency_buckets = r.buckets()?;
        let stages = r.u16()? as usize;
        if stages > MAX_STATS_STAGES {
            malformed!("{stages} stages exceed the {MAX_STATS_STAGES} cap");
        }
        for _ in 0..stages {
            let (count, sum_us, max_us) = (r.u64()?, r.u64()?, r.u64()?);
            report.stages.push(StageReport { count, sum_us, max_us, buckets: r.buckets()? });
        }
        for counter in report.counters_mut().into_iter().skip(HEAD_COUNTERS) {
            *counter = r.u64()?;
        }
        Ok((request, report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::db::Database;
    use crate::params::PirParams;
    use crate::server::PirServer;
    use rand::SeedableRng;

    #[test]
    fn query_roundtrip_preserves_answers() {
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("wire {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(42)).expect("keygen");
        let query = client.query(11).expect("in range");
        // Over the wire and back: every regenerated mask is the client's.
        let encoded = encode_query(&query);
        let decoded = decode_query(he, &encoded).expect("well-formed");
        assert_eq!((decoded.packed(), decoded.row_bits()), (query.packed(), query.row_bits()));
        let r1 = server.answer(client.public_keys(), &query).expect("pipeline");
        let r2 = server.answer(client.public_keys(), &decoded).expect("pipeline");
        assert_eq!(r1, r2, "wire roundtrip changed the query");
        // Response over the wire.
        let resp_bytes = encode_response(&r1);
        let resp = decode_response(he, &resp_bytes).expect("well-formed");
        let plain = client.decode(&query, &resp).expect("decrypts");
        assert_eq!(&plain[..7], &records[11][..7]);
    }

    /// The query's wire size (the seed plus one `b` per fresh sample),
    /// at each ring.
    fn assert_query_size_matches_model(params: &PirParams) {
        let he = params.he();
        let mut client =
            PirClient::new(params, rand::rngs::StdRng::seed_from_u64(1)).expect("keygen");
        let query = client.query(0).expect("in range");
        let encoded = encode_query(&query);
        // Model counts packed residues (28-bit -> 3.5B); the wire uses
        // 4B words plus headers: ratio must stay below 1.25.
        let model = query.byte_len(he) as f64;
        let actual = encoded.len() as f64;
        let ratio = actual / model;
        assert!((1.0..1.25).contains(&ratio), "wire/model ratio {ratio:.3}");
        // Exactly: the v2 frame less one mask polynomial per fresh sample,
        // plus the seed.
        let samples = 1 + query.row_bits().len() * 2 * he.rgsw_gadget().ell();
        let poly_frame = 13 + 4 * he.ring().basis().len() * he.n();
        let v2 = 8
            + (6 + 2 * poly_frame)
            + query.row_bits().len() * (8 + 4 * he.rgsw_gadget().ell() * poly_frame);
        assert_eq!(encoded.len(), v2 - samples * poly_frame + ive_math::mask::SEED_BYTES);
        // The key set is charged at its resident size; the Hello frame
        // carries about half of it.
        let hello = encode_hello(client.public_keys()).len() as f64;
        let keys = client.public_keys().byte_len(he) as f64;
        assert!((0.5..0.625).contains(&(hello / keys)), "hello/resident {:.3}", hello / keys);
    }

    #[test]
    fn measured_sizes_match_model() {
        // The §VI-C communication model must agree with real encodings
        // to within the small framing overhead.
        assert_query_size_matches_model(&PirParams::toy());
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "Table I keygen; run with --release")]
    fn measured_sizes_match_model_at_table_one() {
        assert_query_size_matches_model(
            &PirParams::new(HeParams::paper(), 256, 5).expect("Table I geometry"),
        );
    }

    /// A Table I query built under the old one-gadget preset (RGSW bits
    /// at `z = 2^14`, sixteen rows) is a typed wire error against
    /// [`HeParams::paper`], whose bits have ten rows — not a panic.
    #[test]
    fn table_one_query_with_sixteen_row_bits_rejected() {
        let he = HeParams::paper();
        let g14 = *he.evk_gadget();
        let old = HeParams::new(he.ring().clone(), 32, g14, g14, 4).expect("valid");
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let sk = ive_he::SecretKey::generate(&old, &mut rng);
        let mut masks = MaskStream::fresh(&mut rng);
        let zero = ive_he::Plaintext::zero(&old);
        let ct = BfvCiphertext::encrypt_seeded(&old, &sk, &zero, 1, &mut masks, &mut rng);
        let bit = RgswCiphertext::encrypt_bit_seeded(&old, &sk, true, &mut masks, &mut rng);
        let query = PirQuery::from_seeded(*masks.seed(), ct, vec![bit]);
        let frame = encode_query(&query);
        assert_eq!(decode_query(&old, &frame).expect("its own preset").row_bits().len(), 1);
        match decode_query(&he, &frame) {
            Err(PirError::Wire(msg)) => {
                assert!(msg.contains("RGSW with 16 rows, expected 10"), "unhelpful: {msg}")
            }
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frames_rejected() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(2)).expect("keygen");
        let query = client.query(1).expect("in range");
        let good = encode_query(&query);
        // Truncation.
        let short = good.slice(..good.len() / 2);
        assert!(decode_query(he, &short).is_err());
        // Bad magic.
        let mut bad = BytesMut::from(&good[..]);
        bad[0] ^= 0xFF;
        assert!(decode_query(he, &bad.freeze()).is_err());
        // Out-of-range residue.
        let mut tampered = BytesMut::from(&good[..]);
        let idx = tampered.len() - 2;
        tampered[idx] = 0xFF;
        tampered[idx - 1] = 0xFF;
        tampered[idx - 2] = 0xFF;
        tampered[idx - 3] = 0xFF;
        assert!(decode_query(he, &tampered.freeze()).is_err());
    }

    #[test]
    fn wrong_version_and_tag_named_in_errors() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(5)).expect("keygen");
        let query = client.query(1).expect("in range");
        let good = encode_query(&query);
        // Version-1 framing (no version byte) and version-2 frames (masks
        // inline) must be rejected by name.
        for old in [1u8, 2] {
            let mut stale = BytesMut::from(&good[..]);
            stale[4] = old;
            let err = decode_query(he, &stale.freeze()).expect_err("old version").to_string();
            assert!(err.contains(&format!("unsupported wire version {old}")), "unhelpful: {err}");
        }
        // Feeding a Query frame to the response decoder names both tags.
        let err = decode_response(he, &good).expect_err("wrong tag").to_string();
        assert!(err.contains("Response") && err.contains("Query"), "unhelpful error: {err}");
        assert_eq!(peek_tag(&good).expect("well-formed"), Tag::Query);
    }

    #[test]
    fn wrong_ring_rejected() {
        let params = PirParams::toy();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(3)).expect("keygen");
        let query = client.query(1).expect("in range");
        let encoded = encode_query(&query);
        // Decode against a different ring.
        let other = ive_he::HeParams::new(
            ive_math::rns::RingContext::test_ring(128, 2),
            16,
            ive_math::gadget::Gadget::new(14, 4),
            ive_math::gadget::Gadget::new(14, 4),
            4,
        )
        .expect("valid");
        assert!(decode_query(&other, &encoded).is_err());
    }

    #[test]
    fn client_keys_roundtrip_still_expand() {
        // The cached-key path: keys that crossed the wire must drive the
        // full pipeline to the same answer as the originals.
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("key {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(6)).expect("keygen");
        let encoded = encode_client_keys(client.public_keys());
        let decoded = decode_client_keys(he, &encoded).expect("well-formed");
        let query = client.query(23).expect("in range");
        let r1 = server.answer(client.public_keys(), &query).expect("pipeline");
        let r2 = server.answer(&decoded, &query).expect("pipeline");
        assert_eq!(r1, r2, "wire roundtrip changed the keys");
        // The Hello frame carries the same body under its own tag.
        let hello = encode_hello(client.public_keys());
        assert_eq!(peek_tag(&hello).expect("well-formed"), Tag::Hello);
        let from_hello = decode_hello(he, &hello).expect("well-formed");
        assert_eq!(from_hello.subs_keys().len(), decoded.subs_keys().len());
    }

    #[test]
    fn session_frames_roundtrip() {
        let params = PirParams::toy();
        let he = params.he();
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(7)).expect("keygen");
        let query = client.query(9).expect("in range");
        let sq = encode_session_query(0xDEAD_BEEF, 17, &query);
        let (session, request, decoded) = decode_session_query(he, &sq).expect("well-formed");
        assert_eq!((session, request), (0xDEAD_BEEF, 17));
        assert_eq!(encode_query(&decoded), encode_query(&query));

        let welcome = encode_welcome(99);
        assert_eq!(decode_welcome(&welcome).expect("well-formed"), 99);

        let err = encode_error_frame(17, "unknown session 99");
        let (req, msg) = decode_error_frame(&err).expect("well-formed");
        assert_eq!(req, 17);
        assert_eq!(msg, "unknown session 99");
    }

    #[test]
    fn update_frames_roundtrip_and_validate() {
        let params = PirParams::toy();
        let updates = vec![
            RecordUpdate::put(3, b"new record".to_vec()),
            RecordUpdate::delete(9),
            RecordUpdate::put(63, vec![]),
        ];
        let frame = encode_update_rows(77, &updates).expect("within cap");
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::UpdateRow);
        let (req, back) = decode_update_rows(&params, &frame).expect("own encoding decodes");
        assert_eq!(req, 77);
        assert_eq!(back, updates);
        // Out-of-range index rejected at decode, before any preparation.
        let oob = encode_update_rows(1, &[RecordUpdate::delete(params.num_records())])
            .expect("within cap");
        let err = decode_update_rows(&params, &oob).expect_err("oob index").to_string();
        assert!(err.contains("out of range"), "unhelpful: {err}");
        // Oversized payload rejected by the declared capacity.
        let fat =
            encode_update_rows(1, &[RecordUpdate::put(0, vec![0; params.record_bytes() + 1])])
                .expect("within cap");
        let err = decode_update_rows(&params, &fat).expect_err("fat payload").to_string();
        assert!(err.contains("capacity"), "unhelpful: {err}");

        let ack = encode_update_ack(77, 4, 3);
        assert_eq!(peek_tag(&ack).expect("well-formed"), Tag::UpdateAck);
        assert_eq!(decode_update_ack(&ack).expect("well-formed"), (77, 4, 3));
    }

    #[test]
    fn ks_frames_roundtrip_preserve_answers() {
        use crate::kspir::{KsPirClient, KsPirServer};
        let params = KsPirParams::toy();
        let he = params.he();
        let scalars: Vec<u64> =
            (0..params.num_scalars() as u64).map(|i| (i * 31 + 5) % he.p()).collect();
        let server = KsPirServer::new(params.clone(), &scalars).expect("packs");
        let mut client =
            KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(11)).expect("keygen");

        // Hello: trace keys that crossed the wire drive the same answer.
        let hello = encode_ks_hello(client.public_keys());
        assert_eq!(peek_tag(&hello).expect("well-formed"), Tag::KsHello);
        let keys = decode_ks_hello(he, &hello).expect("well-formed");
        let query = client.query(137).expect("in range");
        let r1 = server.answer(client.public_keys(), &query).expect("trace");
        let r2 = server.answer(&keys, &query).expect("trace");
        assert_eq!(r1, r2, "wire roundtrip changed the keys");
        // The bucket query's R keys are a session too; they answer the
        // bucket a bucket client's query names.
        let rounds = bucket_trace_rounds(he).expect("the toy ring hosts buckets") as usize;
        let bucket = KsPirKeys::from_seeded(*keys.seed(), keys.trace_keys()[..rounds].to_vec());
        let bucket = decode_ks_hello(he, &encode_ks_hello(&bucket)).expect("a bucket session");
        assert_eq!(bucket.trace_keys().len(), rounds);
        // Any other key count is rejected before caching.
        let short = KsPirKeys::from_seeded(*keys.seed(), keys.trace_keys()[..3].to_vec());
        let err = decode_ks_hello(he, &encode_ks_hello(&short)).expect_err("short").to_string();
        assert!(err.contains("trace keys"), "unhelpful: {err}");

        // Welcome: the schema survives by seed, geometry is revalidated.
        let schema = KvSchema::new(params.clone(), 0xFEED).expect("valid");
        let welcome = encode_ks_welcome(42, &schema);
        assert_eq!(peek_tag(&welcome).expect("well-formed"), Tag::KsWelcome);
        let (session, back) = decode_ks_welcome(&params, &welcome).expect("well-formed");
        assert_eq!(session, 42);
        assert_eq!((back.seed(), back.buckets()), (0xFEED, schema.buckets()));
        let mut lying = BytesMut::from(&welcome[..]);
        let off = welcome.len() - 2; // group-slot field
        lying[off..].copy_from_slice(&[0xFF, 0xFF]);
        assert!(decode_ks_welcome(&params, &lying.freeze()).is_err());

        // Query and response frames round-trip to the same plaintext.
        let kq = encode_ks_query(42, 7, &query);
        assert_eq!(peek_tag(&kq).expect("well-formed"), Tag::KsQuery);
        let (s, r, decoded) = decode_ks_query(&params, &kq).expect("well-formed");
        assert_eq!((s, r), (42, 7));
        assert_eq!((decoded.ct(), decoded.chunk_bits()), (query.ct(), query.chunk_bits()));
        let r3 = server.answer(&keys, &decoded).expect("trace");
        assert_eq!(r1, r3, "wire roundtrip changed the query");
        let resp = encode_ks_response(7, &r1);
        assert_eq!(peek_tag(&resp).expect("well-formed"), Tag::KsResponse);
        let (req, ct) = decode_ks_response(he, &resp).expect("well-formed");
        assert_eq!(req, 7);
        assert_eq!(client.decode(&ct).expect("decrypts"), scalars[137]);
    }

    /// `answer(decode(encode(q))) == answer(q)` byte for byte for an index
    /// query and a KsPIR query at the Table I ring, keys over the wire too.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "Table I keygen and answers; run with --release")]
    fn table_one_frames_roundtrip_preserve_answers() {
        use crate::kspir::{KsPirClient, KsPirServer};
        let params = PirParams::new(HeParams::paper(), 4, 1).expect("Table I ring");
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("table one {i}").into_bytes()).collect();
        let server = PirServer::new(&params, Database::from_records(&params, &records).unwrap())
            .expect("geometry matches");
        let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(31)).unwrap();
        let keys = decode_hello(he, &encode_hello(client.public_keys())).expect("well-formed");
        let query = client.query(6).expect("in range");
        let sent = encode_session_query(1, 2, &query);
        let (_, _, decoded) = decode_session_query(he, &sent).expect("well-formed");
        let direct = server.answer(client.public_keys(), &query).expect("pipeline");
        let wired = server.answer(&keys, &decoded).expect("pipeline");
        assert_eq!(encode_response(&direct), encode_response(&wired));
        let plain = client.decode(&query, &wired).expect("decrypts");
        assert_eq!(&plain[..records[6].len()], &records[6][..]);

        let ks = KsPirParams::new(HeParams::paper(), 1);
        let scalars: Vec<u64> = (0..ks.num_scalars() as u64).map(|i| i * 7 + 1).collect();
        let ks_server = KsPirServer::new(ks.clone(), &scalars).expect("packs");
        let mut ks_client = KsPirClient::new(&ks, rand::rngs::StdRng::seed_from_u64(32)).unwrap();
        let ks_keys = decode_ks_hello(ks.he(), &encode_ks_hello(ks_client.public_keys())).unwrap();
        let query = ks_client.query(4097).expect("in range");
        let (_, _, decoded) = decode_ks_query(&ks, &encode_ks_query(1, 2, &query)).unwrap();
        let direct = ks_server.answer(ks_client.public_keys(), &query).expect("trace");
        let wired = ks_server.answer(&ks_keys, &decoded).expect("trace");
        assert_eq!(encode_ks_response(2, &direct), encode_ks_response(2, &wired));
        assert_eq!(ks_client.decode(&wired).expect("decrypts"), scalars[4097]);
    }

    #[test]
    fn compressed_response_roundtrip_and_validation() {
        let params = PirParams::toy();
        let he = params.he();
        let records: Vec<Vec<u8>> =
            (0..params.num_records()).map(|i| format!("switch {i}").into_bytes()).collect();
        let db = Database::from_records(&params, &records).expect("fits");
        let server = PirServer::new(&params, db).expect("geometry matches");
        let mut client =
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(13)).expect("keygen");
        let query = client.query(29).expect("in range");
        let full = server.answer(client.public_keys(), &query).expect("pipeline");
        let switched = ive_he::modswitch::switch_to_first_prime(he, &full).expect("switchable");

        let frame = encode_compressed_response(3, &switched);
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::CompressedResponse);
        // The dropped primes must show up as real traffic savings.
        assert!(frame.len() < encode_response(&full).len());
        let (req, back) = decode_compressed_response(he, &frame).expect("well-formed");
        assert_eq!(req, 3);
        assert_eq!((back.primes, &back.a, &back.b), (switched.primes, &switched.a, &switched.b));
        let plain = client.decode_compressed(&query, &back).expect("decrypts");
        assert_eq!(&plain[..9], &records[29][..9]);

        // Truncation, zero primes, and out-of-range residues are rejected.
        assert!(decode_compressed_response(he, &frame.slice(..frame.len() / 2)).is_err());
        let mut zeroed = BytesMut::from(&frame[..]);
        zeroed[14..16].copy_from_slice(&[0, 0]);
        assert!(decode_compressed_response(he, &zeroed.freeze()).is_err());
        let mut hot = BytesMut::from(&frame[..]);
        hot[20..24].copy_from_slice(&[0xFF; 4]);
        assert!(decode_compressed_response(he, &hot.freeze()).is_err());
    }

    #[test]
    fn kv_update_frames_roundtrip_and_validate() {
        let put = encode_kv_update(5, b"alice", Some(99)).expect("legal");
        assert_eq!(peek_tag(&put).expect("well-formed"), Tag::KvUpdate);
        assert_eq!(decode_kv_update(&put).expect("well-formed"), (5, b"alice".to_vec(), Some(99)));
        let del = encode_kv_update(6, b"bob", None).expect("legal");
        assert_eq!(decode_kv_update(&del).expect("well-formed"), (6, b"bob".to_vec(), None));

        // Illegal keys never leave the encoder.
        assert!(encode_kv_update(0, b"", Some(1)).is_err());
        assert!(encode_kv_update(0, &vec![0u8; MAX_KV_KEY_BYTES + 1], Some(1)).is_err());
        // Truncation and a forged zero-length key are rejected at decode.
        assert!(decode_kv_update(&put.slice(..put.len() - 1)).is_err());
        let mut empty = BytesMut::from(&del[..]);
        let off = del.len() - 2 - b"bob".len();
        empty[off..off + 2].copy_from_slice(&[0, 0]);
        let err = decode_kv_update(&empty.freeze().slice(..off + 2)).expect_err("empty key");
        assert!(err.to_string().contains("empty"), "unhelpful: {err}");
    }

    #[test]
    fn stats_frames_roundtrip_and_validate() {
        let req = encode_get_stats(77);
        assert_eq!(peek_tag(&req).expect("well-formed"), Tag::GetStats);
        assert_eq!(decode_get_stats(&req).expect("well-formed"), 77);
        assert!(decode_get_stats(&req.slice(..req.len() - 1)).is_err());

        // Walks the table: a distinct value in every declared scalar.
        let mut report = StatsReport {
            latency_buckets: vec![0, 0, 0, 5, 900, 90, 5],
            stages: vec![
                StageReport { count: 1000, sum_us: 900_000, max_us: 4000, buckets: vec![0, 1000] },
                StageReport::default(),
            ],
            ..StatsReport::default()
        };
        for (i, counter) in report.counters_mut().into_iter().enumerate() {
            *counter = 1000 + i as u64;
        }
        let frame = encode_stats_response(8, &report).expect("legal");
        assert_eq!(peek_tag(&frame).expect("well-formed"), Tag::StatsResponse);
        let (rid, back) = decode_stats_response(&frame).expect("well-formed");
        assert_eq!(rid, 8);
        assert_eq!(back, report, "stats report must survive the wire bit-exactly");
        for (i, def) in COUNTERS.iter().enumerate() {
            assert_eq!(back.counters()[i], 1000 + i as u64, "{} changed on the wire", def.name);
        }

        // Oversized histograms never leave the encoder and are rejected
        // at decode when forged.
        let fat = StatsReport {
            latency_buckets: vec![0; MAX_STATS_BUCKETS + 1],
            ..StatsReport::default()
        };
        assert!(encode_stats_response(0, &fat).is_err());
        let crowded = StatsReport {
            stages: vec![StageReport::default(); MAX_STATS_STAGES + 1],
            ..StatsReport::default()
        };
        assert!(encode_stats_response(0, &crowded).is_err());
        for cut in [5, 20, frame.len() / 2, frame.len() - 1] {
            assert!(decode_stats_response(&frame.slice(..cut)).is_err(), "cut at {cut}");
        }
        // A forged stage count past the cap is rejected before any
        // allocation-by-attacker-length.
        let mut forged = BytesMut::from(&frame[..]);
        let stage_count_off = 6 + 8 * (1 + HEAD_COUNTERS) + 2 + 8 * report.latency_buckets.len();
        forged[stage_count_off..stage_count_off + 2].copy_from_slice(&[0xFF, 0xFF]);
        assert!(decode_stats_response(&forged.freeze()).is_err());
    }
}
