//! Keyword PIR: a private key-value layer over the [`kspir`](crate::kspir)
//! scheme (the IM-PIR-style scenario — keyword queries over mutable
//! data).
//!
//! [`KsPirServer`](crate::KsPirServer) retrieves *scalars by index*; real
//! clients hold *keys*. This module closes the gap with cuckoo hashing:
//!
//! * An **entry** is a 64-bit fingerprint tag followed by the value, each
//!   split into `⌈64 / log P⌉` little-endian limbs of `log P` bits
//!   (`KvSchema::entry_slots` scalars). An empty entry is all zeros; a
//!   tag is never zero.
//! * A **bucket** holds two entries in `KvSchema::bucket_slots` = `g`
//!   scalars, the least power of two that fits them. It is exactly what
//!   one KsPIR query with `R = log N − log g` trace keys returns: bucket
//!   `b` of chunk `c = b / 2^R` sits at scalars `c·N + pos + m·2^R`,
//!   `pos = b mod 2^R`, `m < g` (see [`crate::kspir`]'s partial trace).
//!   `g`, and so `R` and the bucket count, follow from `P` and `N` alone
//!   ([`bucket_trace_rounds`]); nothing configures them.
//! * Two public hash functions (seeded, key-independent of the data) map
//!   every key to **two candidate buckets**. A build-time cuckoo
//!   insertion with eviction guarantees a present key occupies an entry
//!   of one of them; if an insertion chain runs too long the builder
//!   retries with a fresh seed.
//! * `get(key)` therefore always fetches the same shape of data — both
//!   candidate buckets, one KsPIR query each — regardless of whether or
//!   where the key is stored, so the access pattern leaks nothing about
//!   the key.
//!
//! Collision handling is two-layered: *build* collisions (both buckets
//! full) are resolved by cuckoo eviction and, in the limit, a seed
//! retry; *lookup* collisions (a foreign key's fingerprint matching one
//! of the up to four entries a get reads) are bounded by the `2^-64` tag
//! false-positive rate per entry and documented at
//! [`KvSchema::decode_bucket`].

use ive_he::HeParams;

use crate::kspir::KsPirParams;
use crate::PirError;

/// Entries per bucket.
const ENTRIES_PER_BUCKET: usize = 2;

/// Cuckoo insertion: evictions allowed per insert before the build
/// declares the table too full and retries with a new seed.
const MAX_KICKS: usize = 128;

/// Seeds tried by [`KvStore::build`] before giving up.
const MAX_SEED_TRIES: u64 = 16;

/// SplitMix64 finalizer: the avalanche behind both hash functions.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a key under a seed: FNV-1a over the bytes, SplitMix64 finish.
fn mix_key(seed: u64, key: &[u8]) -> u64 {
    let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
    for &b in key {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(h)
}

/// Limbs of `log P` bits that carry 64 bits.
fn limbs_per_u64(he: &HeParams) -> usize {
    64usize.div_ceil(he.p_bits() as usize)
}

/// The trace rounds `R = log N − log g` of a bucket query on this ring:
/// `g` is the least power of two that holds two entries of a 64-bit tag
/// and a 64-bit value in `log P`-bit limbs. A client with `R` trace keys
/// retrieves one whole bucket per query.
///
/// # Errors
/// Fails when `log P` is outside `2..=63` or a bucket would fill more
/// than half a chunk (`R` would be 0).
pub fn bucket_trace_rounds(he: &HeParams) -> Result<u32, PirError> {
    let p_bits = he.p_bits();
    if !(2..=63).contains(&p_bits) {
        return Err(PirError::InvalidParams(format!(
            "keyword store needs 2 <= log P <= 63, got {p_bits}"
        )));
    }
    let bucket = (ENTRIES_PER_BUCKET * 2 * limbs_per_u64(he)).next_power_of_two();
    let log_n = ive_math::log2_exact(he.n())?;
    match log_n.checked_sub(bucket.trailing_zeros()) {
        Some(rounds) if rounds > 0 => Ok(rounds),
        _ => Err(PirError::InvalidParams(format!(
            "a {bucket}-scalar bucket needs a ring of more than {bucket} coefficients, got {}",
            he.n()
        ))),
    }
}

/// The public layout of a keyword store: geometry, hash seed, and the
/// scalar encoding of entries. Client and server must agree on a schema
/// (the serving handshake ships the server's seed) for
/// [`KvSchema::candidates`] to point the client at the right buckets.
#[derive(Debug, Clone)]
pub struct KvSchema {
    params: KsPirParams,
    seed: u64,
    rounds: u32,
}

impl KvSchema {
    /// Builds the schema for the given geometry and hash seed.
    ///
    /// # Errors
    /// See [`bucket_trace_rounds`].
    pub fn new(params: KsPirParams, seed: u64) -> Result<Self, PirError> {
        let rounds = bucket_trace_rounds(params.he())?;
        Ok(KvSchema { params, seed, rounds })
    }

    /// The underlying KsPIR geometry.
    #[inline]
    pub(crate) fn params(&self) -> &KsPirParams {
        &self.params
    }

    /// The public hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Trace rounds of a bucket query: the trace keys a client needs.
    #[inline]
    pub fn trace_rounds(&self) -> u32 {
        self.rounds
    }

    /// Number of buckets: `2^R` per chunk.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.params.chunks() << self.rounds
    }

    /// Scalar slots per bucket, `g = N / 2^R`.
    #[inline]
    pub(crate) fn bucket_slots(&self) -> usize {
        self.params.he().n() >> self.rounds
    }

    /// Scalar slots per entry: the tag's limbs, then the value's.
    #[inline]
    pub(crate) fn entry_slots(&self) -> usize {
        2 * self.value_limbs()
    }

    /// `1 + value_limbs()`: one tag limb and the value limbs, the width
    /// of the slot group a get fetched per candidate, slot by slot, before
    /// a bucket became one query. The [`KsWelcome`](crate::wire::Tag::KsWelcome)
    /// frame still advertises it, and the handshake checks it.
    #[inline]
    pub fn group_slots(&self) -> usize {
        1 + self.value_limbs()
    }

    /// Limbs a `u64` value splits into (`⌈64 / log P⌉`).
    #[inline]
    pub(crate) fn value_limbs(&self) -> usize {
        limbs_per_u64(self.params.he())
    }

    /// The scalar index a query for `bucket` names: its first slot,
    /// `c·N + pos`.
    #[inline]
    pub fn slot_of(&self, bucket: usize) -> usize {
        let (chunk, pos) = (bucket >> self.rounds, bucket & ((1 << self.rounds) - 1));
        chunk * self.params.he().n() + pos
    }

    /// The scalar index of slot `m` of `bucket`: `slot_of(bucket) + m·2^R`.
    #[inline]
    pub(crate) fn bucket_slot(&self, bucket: usize, m: usize) -> usize {
        self.slot_of(bucket) + (m << self.rounds)
    }

    /// The two candidate buckets for a key, always distinct.
    pub fn candidates(&self, key: &[u8]) -> [usize; 2] {
        let b = self.buckets() as u64;
        let h1 = mix_key(self.seed ^ 0x4B56_3148, key) % b;
        let mut h2 = mix_key(self.seed ^ 0x4B56_3248, key) % b;
        if h2 == h1 {
            h2 = (h1 + 1) % b;
        }
        [h1 as usize, h2 as usize]
    }

    /// The nonzero 64-bit fingerprint tag of a key.
    pub(crate) fn fingerprint(&self, key: &[u8]) -> u64 {
        mix_key(self.seed ^ 0x4B56_4650, key).max(1)
    }

    /// Splits a value into its little-endian `log P`-bit limbs.
    pub(crate) fn encode_value(&self, value: u64) -> Vec<u64> {
        let p_bits = self.params.he().p_bits();
        let mask = (1u64 << p_bits) - 1;
        (0..self.value_limbs()).map(|i| (value >> (i as u32 * p_bits)) & mask).collect()
    }

    /// Reassembles a value from its limbs (inverse of
    /// [`KvSchema::encode_value`]).
    pub(crate) fn decode_value(&self, limbs: &[u64]) -> u64 {
        let p_bits = self.params.he().p_bits();
        // (limbs-1)·p_bits < 64 because limbs = ⌈64/p_bits⌉.
        limbs.iter().enumerate().fold(0u64, |acc, (i, &l)| acc | (l << (i as u32 * p_bits)))
    }

    /// Interprets one fetched bucket (its `KvSchema::bucket_slots`
    /// scalars in slot order) for `key`: `Some(value)` when an entry's
    /// tag matches, `None` otherwise. A foreign key colliding on the full
    /// 64-bit tag is a false positive with probability `2^-64` per
    /// occupied entry read — the standard cuckoo-filter trade-off.
    pub fn decode_bucket(&self, key: &[u8], bucket: &[u64]) -> Option<u64> {
        if bucket.len() != self.bucket_slots() {
            return None;
        }
        let (tag, limbs) = (self.fingerprint(key), self.value_limbs());
        bucket
            .chunks_exact(self.entry_slots())
            .take(ENTRIES_PER_BUCKET)
            .find(|entry| self.decode_value(&entry[..limbs]) == tag)
            .map(|entry| self.decode_value(&entry[limbs..]))
    }
}

/// One stored entry: the key (needed to re-hash on eviction) + value.
#[derive(Debug, Clone)]
struct KvEntry {
    key: Vec<u8>,
    value: u64,
}

/// A two-choice cuckoo-hashed key-value table with two-entry buckets,
/// materialized as KsPIR scalars.
///
/// The store is the *server-side* source of truth: [`KvStore::scalars`]
/// feeds [`KsPirServer::new`](crate::KsPirServer::new), and every
/// mutation reports the exact scalar writes it performed so the serving
/// layer can re-pack only the touched chunks
/// ([`KsPirServer::with_updates`](crate::KsPirServer::with_updates)).
#[derive(Debug, Clone)]
pub struct KvStore {
    schema: KvSchema,
    /// Entry cells, bucket by bucket: cell `b·E + e` is entry `e` of
    /// bucket `b`.
    cells: Vec<Option<KvEntry>>,
    len: usize,
}

impl KvStore {
    /// An empty store under the given schema.
    pub(crate) fn new(schema: KvSchema) -> Self {
        let cells = schema.buckets() * ENTRIES_PER_BUCKET;
        KvStore { schema, cells: vec![None; cells], len: 0 }
    }

    /// Builds a store holding `entries`, retrying with fresh hash seeds
    /// until the cuckoo insertion succeeds.
    ///
    /// # Errors
    /// Fails when no seed places every entry (the table is genuinely too
    /// full) or the geometry cannot host a keyword store at all.
    pub fn build(params: &KsPirParams, entries: &[(Vec<u8>, u64)]) -> Result<Self, PirError> {
        let mut last = None;
        for attempt in 0..MAX_SEED_TRIES {
            let schema = KvSchema::new(params.clone(), splitmix64(attempt))?;
            let mut store = KvStore::new(schema);
            match entries.iter().try_for_each(|(k, v)| store.insert(k, *v).map(|_| ())) {
                Ok(()) => return Ok(store),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            PirError::InvalidParams("keyword store build with no entries cannot fail".into())
        }))
    }

    /// The public layout (hash seed, geometry, encoding).
    #[inline]
    pub fn schema(&self) -> &KvSchema {
        &self.schema
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum entries the table can hold (two per bucket).
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The cell indices of `bucket`.
    fn cells_of(bucket: usize) -> std::ops::Range<usize> {
        bucket * ENTRIES_PER_BUCKET..(bucket + 1) * ENTRIES_PER_BUCKET
    }

    /// The cell holding `key`, if stored.
    fn find(&self, key: &[u8]) -> Option<usize> {
        self.schema
            .candidates(key)
            .into_iter()
            .flat_map(Self::cells_of)
            .find(|&c| self.cells[c].as_ref().is_some_and(|e| e.key == key))
    }

    /// Inserts or overwrites `key → value`, returning every
    /// `(scalar slot, scalar value)` write the mutation performed
    /// (eviction chains touch multiple buckets). Any `u64` value is valid.
    ///
    /// # Errors
    /// Fails with [`PirError::TooManyRecords`] when the eviction chain
    /// exceeds its cap — the table is too full for this seed; rebuild
    /// with [`KvStore::build`] to rehash.
    pub fn insert(&mut self, key: &[u8], value: u64) -> Result<Vec<(usize, u64)>, PirError> {
        // Overwrite in place when the key is already stored.
        if let Some(c) = self.find(key) {
            self.cells[c].as_mut().expect("found occupied").value = value;
            return Ok(self.bucket_writes(&[c / ENTRIES_PER_BUCKET]));
        }
        // Two-choice cuckoo: place in a free cell of either candidate or
        // kick an occupant of the target bucket to its other bucket, the
        // victim cell rotating with the kick count, remembering the chain
        // so a failed insert can be rolled back exactly (no half-applied
        // table).
        let mut chain: Vec<usize> = Vec::new();
        let mut entry = KvEntry { key: key.to_vec(), value };
        let mut target = self.schema.candidates(key)[0];
        for kick in 0..MAX_KICKS {
            let cands = self.schema.candidates(&entry.key);
            let free =
                cands.into_iter().flat_map(Self::cells_of).find(|&c| self.cells[c].is_none());
            if let Some(free) = free {
                self.cells[free] = Some(entry);
                self.len += 1;
                let mut touched = Vec::with_capacity(chain.len() + 1);
                for c in chain.into_iter().chain([free]) {
                    push_unique(&mut touched, c / ENTRIES_PER_BUCKET);
                }
                return Ok(self.bucket_writes(&touched));
            }
            let cell = self.victim(target, kick);
            let evicted = self.cells[cell].replace(entry).expect("bucket was full");
            chain.push(cell);
            // The evicted entry moves to its *other* candidate bucket.
            let alt = self.schema.candidates(&evicted.key);
            target = if alt[0] == target { alt[1] } else { alt[0] };
            entry = evicted;
        }
        // Rewind the displacement chain: each forward step was a
        // `replace`, so replaying the replaces in reverse restores every
        // entry to where it started.
        for &c in chain.iter().rev() {
            entry = self.cells[c].replace(entry).expect("chain cell occupied");
        }
        Err(PirError::TooManyRecords { got: self.len + 1, capacity: self.capacity() })
    }

    /// The cell of the full bucket `target` to evict into on kick `kick`:
    /// one whose occupant's other bucket has a free cell, so the chain
    /// ends next step, else the cell the kick count rotates to.
    fn victim(&self, target: usize, kick: usize) -> usize {
        let has_room = |c: usize| {
            let key = &self.cells[c].as_ref().expect("bucket was full").key;
            let alt = self.schema.candidates(key).into_iter().find(|&b| b != target);
            alt.into_iter().flat_map(Self::cells_of).any(|c| self.cells[c].is_none())
        };
        Self::cells_of(target)
            .find(|&c| has_room(c))
            .unwrap_or(target * ENTRIES_PER_BUCKET + kick % ENTRIES_PER_BUCKET)
    }

    /// Removes `key`, returning the scalar writes of its bucket (its
    /// entry zeroed), or `None` when the key is absent.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<(usize, u64)>> {
        let c = self.find(key)?;
        self.cells[c] = None;
        self.len -= 1;
        Some(self.bucket_writes(&[c / ENTRIES_PER_BUCKET]))
    }

    /// The scalar image of one bucket in slot order: each entry's tag and
    /// value limbs (zeros when empty), zero-padded to
    /// [`KvSchema::bucket_slots`].
    pub(crate) fn bucket_scalars(&self, bucket: usize) -> Vec<u64> {
        let schema = &self.schema;
        let mut image = Vec::with_capacity(schema.bucket_slots());
        for cell in &self.cells[Self::cells_of(bucket)] {
            match cell {
                Some(e) => {
                    image.extend(schema.encode_value(schema.fingerprint(&e.key)));
                    image.extend(schema.encode_value(e.value));
                }
                None => image.resize(image.len() + schema.entry_slots(), 0),
            }
        }
        image.resize(schema.bucket_slots(), 0);
        image
    }

    /// The full scalar image — what [`KsPirServer::new`](crate::KsPirServer::new)
    /// ingests: bucket `b`'s slot `m` at `KvSchema::bucket_slot``(b, m)`.
    pub fn scalars(&self) -> Vec<u64> {
        let mut out = vec![0; self.schema.params().num_scalars()];
        for (slot, v) in self.bucket_writes(&(0..self.schema.buckets()).collect::<Vec<_>>()) {
            out[slot] = v;
        }
        out
    }

    /// The `(slot, value)` writes covering the given buckets.
    fn bucket_writes(&self, buckets: &[usize]) -> Vec<(usize, u64)> {
        let mut writes = Vec::with_capacity(buckets.len() * self.schema.bucket_slots());
        for &b in buckets {
            let image = self.bucket_scalars(b).into_iter().enumerate();
            writes.extend(image.map(|(m, v)| (self.schema.bucket_slot(b, m), v)));
        }
        writes
    }
}

/// Appends `b` unless already present (tiny sets; no HashSet needed).
fn push_unique(v: &mut Vec<usize>, b: usize) {
    if !v.contains(&b) {
        v.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KsPirClient, KsPirServer};
    use rand::SeedableRng;

    fn sample_entries(count: usize) -> Vec<(Vec<u8>, u64)> {
        (0..count).map(|i| (format!("user:{i}").into_bytes(), i as u64 * 0x0101_0101 + 7)).collect()
    }

    /// The scalars of `bucket` read out of a full image.
    fn read_bucket(schema: &KvSchema, scalars: &[u64], bucket: usize) -> Vec<u64> {
        (0..schema.bucket_slots()).map(|m| scalars[schema.bucket_slot(bucket, m)]).collect()
    }

    /// `key`'s value as a get decodes it from a full image.
    fn image_get(schema: &KvSchema, scalars: &[u64], key: &[u8]) -> Option<u64> {
        let mut found = None;
        for b in schema.candidates(key) {
            found = found.or(schema.decode_bucket(key, &read_bucket(schema, scalars, b)));
        }
        found
    }

    /// Local (non-private) lookup — the reference the PIR path is tested
    /// against.
    fn get(store: &KvStore, key: &[u8]) -> Option<u64> {
        store.find(key).and_then(|c| store.cells[c].as_ref()).map(|e| e.value)
    }

    #[test]
    fn toy_ring_layout_is_two_entries_in_sixteen_slots() {
        let schema = KvSchema::new(KsPirParams::new(ive_he::HeParams::toy(), 4), 1).unwrap();
        assert_eq!((schema.entry_slots(), schema.bucket_slots()), (8, 16));
        assert_eq!((schema.trace_rounds(), schema.buckets()), (4, 256));
        assert_eq!(schema.group_slots(), 5);
        assert_eq!(KvStore::new(schema).capacity(), 512);
        let paper = KvSchema::new(KsPirParams::new(ive_he::HeParams::paper(), 4), 1).unwrap();
        assert_eq!((paper.bucket_slots(), paper.trace_rounds()), (8, 9));
        // Every slot of every bucket is a distinct scalar.
        let mut seen = vec![false; paper.params().num_scalars()];
        for b in 0..paper.buckets() {
            for m in 0..paper.bucket_slots() {
                let slot = paper.bucket_slot(b, m);
                assert!(!std::mem::replace(&mut seen[slot], true), "slot {slot} reused");
            }
        }
        assert!(seen.iter().all(|&s| s), "the buckets tile the scalar space");
    }

    #[test]
    fn build_get_roundtrip_under_half_load() {
        let params = KsPirParams::toy();
        let entries = sample_entries(60); // ~0.47 load over 128 entry cells
        let store = KvStore::build(&params, &entries).unwrap();
        assert_eq!(store.len(), entries.len());
        for (k, v) in &entries {
            assert_eq!(get(&store, k), Some(*v), "key {:?}", String::from_utf8_lossy(k));
        }
        assert_eq!(get(&store, b"user:absent"), None);
    }

    /// The keyword workload's shape: 192 read-only and 64 written keys at
    /// the toy ring over 16 chunks (load 0.5), for ten key sets.
    #[test]
    fn benchmark_shape_builds_for_ten_key_sets() {
        let params = KsPirParams::new(ive_he::HeParams::toy(), 4);
        for seed in 1..=10u64 {
            let entries: Vec<(Vec<u8>, u64)> = (0..192)
                .map(|i| format!("s-{seed:x}-{i}"))
                .chain((0..64).map(|i| format!("w-{seed:x}-{i}")))
                .enumerate()
                .map(|(i, k)| (k.into_bytes(), splitmix64(seed ^ i as u64)))
                .collect();
            let store = KvStore::build(&params, &entries).expect("the workload's table builds");
            let scalars = store.scalars();
            for (k, v) in &entries {
                assert_eq!(image_get(store.schema(), &scalars, k), Some(*v), "key set {seed}");
            }
        }
    }

    #[test]
    fn value_limbs_roundtrip_extremes() {
        let schema = KvSchema::new(KsPirParams::toy(), 1).unwrap();
        for v in [0u64, 1, 0xFFFF, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(schema.decode_value(&schema.encode_value(v)), v);
        }
    }

    #[test]
    fn scalar_image_matches_group_decode() {
        let params = KsPirParams::toy();
        let entries = sample_entries(40);
        let store = KvStore::build(&params, &entries).unwrap();
        let schema = store.schema();
        let scalars = store.scalars();
        assert_eq!(scalars.len(), params.num_scalars());
        for (k, v) in &entries {
            assert_eq!(image_get(schema, &scalars, k), Some(*v));
        }
        assert_eq!(image_get(schema, &scalars, b"user:absent"), None);
        // Every scalar must be a legal Z_P value for the packer.
        let p = params.he().p();
        assert!(scalars.iter().all(|&s| s < p));
        KsPirServer::new(params, &scalars).expect("image must pack");
    }

    #[test]
    fn mutations_report_exactly_the_touched_slots() {
        let params = KsPirParams::toy();
        let mut store = KvStore::build(&params, &sample_entries(30)).unwrap();
        let mut image = store.scalars();
        let apply = |image: &mut Vec<u64>, writes: &[(usize, u64)]| {
            for &(slot, v) in writes {
                image[slot] = v;
            }
        };
        let writes = store.insert(b"user:new", 424242).unwrap();
        assert_eq!(get(&store, b"user:new"), Some(424242));
        // Applying the reported writes to the old image gives the new one.
        apply(&mut image, &writes);
        assert_eq!(image, store.scalars(), "reported writes do not explain the image diff");
        // Overwrite and remove each rewrite the key's one bucket.
        let w2 = store.insert(b"user:new", 7).unwrap();
        assert_eq!(w2.len(), store.schema().bucket_slots());
        apply(&mut image, &w2);
        let w3 = store.remove(b"user:new").expect("present");
        assert_eq!(w3.len(), store.schema().bucket_slots());
        apply(&mut image, &w3);
        assert_eq!(image, store.scalars());
        assert_eq!(image_get(store.schema(), &image, b"user:new"), None);
        assert_eq!(store.remove(b"user:new"), None);
    }

    /// A one-chunk table (16 buckets, 32 cells) filled until inserts
    /// evict: every key stays readable from the image, and removing an
    /// evicted key leaves its bucket-mate in place.
    #[test]
    fn two_entry_eviction_and_remove() {
        let params = KsPirParams::new(ive_he::HeParams::toy(), 0);
        let mut store = KvStore::new(KvSchema::new(params, 11).unwrap());
        let mut stored: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut evictions = 0;
        for i in 0..24u64 {
            let key = format!("evict:{i}").into_bytes();
            let writes = store.insert(&key, i).expect("under capacity");
            evictions += usize::from(writes.len() > store.schema().bucket_slots());
            stored.push((key, i));
            let image = store.scalars();
            for (k, v) in &stored {
                assert_eq!(image_get(store.schema(), &image, k), Some(*v));
            }
        }
        assert!(evictions > 0, "24 keys in 16 two-entry buckets must evict");
        let full = (0..store.schema().buckets())
            .find(|&b| KvStore::cells_of(b).all(|c| store.cells[c].is_some()))
            .expect("some bucket holds two entries");
        let [gone, mate] = [0, 1].map(|e| {
            store.cells[full * ENTRIES_PER_BUCKET + e].as_ref().expect("full").key.clone()
        });
        store.remove(&gone).expect("present");
        let image = store.scalars();
        assert_eq!(image_get(store.schema(), &image, &gone), None);
        let mate_value = stored.iter().find(|(k, _)| *k == mate).expect("stored").1;
        assert_eq!(image_get(store.schema(), &image, &mate), Some(mate_value));
        assert_eq!(store.len(), stored.len() - 1);
    }

    /// Puts, overwrites and removes applied to a server through
    /// `with_updates` leave it equal to one packed from the final image:
    /// same scalars, same answer to a bucket query.
    #[test]
    fn with_updates_matches_a_rebuilt_server() {
        let params = KsPirParams::toy();
        let mut store = KvStore::build(&params, &sample_entries(40)).unwrap();
        let mut server = KsPirServer::new(params.clone(), &store.scalars()).unwrap();
        for step in 0..30u64 {
            let key = format!("user:{}", step * 7 % 50).into_bytes();
            let writes = match step % 3 {
                2 => store.remove(&key).unwrap_or_default(),
                _ => store.insert(&key, step).unwrap(),
            };
            server = server.with_updates(&writes).unwrap();
        }
        let rebuilt = KsPirServer::new(params.clone(), &store.scalars()).unwrap();
        assert_eq!(server.scalars(), rebuilt.scalars());
        let schema = store.schema();
        let rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut client =
            KsPirClient::with_trace_rounds(&params, schema.trace_rounds(), rng).unwrap();
        for bucket in [0, schema.buckets() - 1] {
            let query = client.query(schema.slot_of(bucket)).unwrap();
            let got = server.answer(client.public_keys(), &query).unwrap();
            assert_eq!(got, rebuilt.answer(client.public_keys(), &query).unwrap());
            assert_eq!(client.decode_group(&got).unwrap(), store.bucket_scalars(bucket));
        }
    }

    #[test]
    fn candidates_are_distinct_and_fingerprints_nonzero() {
        let schema = KvSchema::new(KsPirParams::toy(), 99).unwrap();
        for i in 0..200 {
            let key = format!("k{i}").into_bytes();
            let [a, b] = schema.candidates(&key);
            assert_ne!(a, b);
            assert!(a < schema.buckets() && b < schema.buckets());
            assert_ne!(schema.fingerprint(&key), 0);
        }
    }

    #[test]
    fn failed_insert_rolls_back_the_table() {
        let params = KsPirParams::toy();
        let schema = KvSchema::new(params, 5).unwrap();
        let mut store = KvStore::new(schema);
        let mut ok: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut i = 0u64;
        loop {
            let key = format!("fill:{i}").into_bytes();
            let before = store.scalars();
            match store.insert(&key, i) {
                Ok(_) => ok.push((key, i)),
                Err(_) => {
                    assert_eq!(store.scalars(), before, "failed insert mutated the table");
                    break;
                }
            }
            i += 1;
            assert!(i < 10_000, "table never saturated");
        }
        assert_eq!(store.len(), ok.len());
        for (k, v) in &ok {
            assert_eq!(get(&store, k), Some(*v), "rollback lost {:?}", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn overfull_table_rejected_not_looped() {
        let params = KsPirParams::toy();
        let store = KvStore::new(KvSchema::new(params.clone(), 3).unwrap());
        let entries = sample_entries(store.capacity() + 1);
        assert!(matches!(KvStore::build(&params, &entries), Err(PirError::TooManyRecords { .. })));
    }

    #[test]
    fn rings_too_small_for_a_bucket_are_refused() {
        // log P = 16 needs 16-scalar buckets: a 16-coefficient ring has no
        // trace round left.
        let ring = ive_math::rns::RingContext::test_ring(16, 3);
        let gadget = ive_math::gadget::Gadget::for_modulus(ring.basis().q_big(), 14);
        let he = ive_he::HeParams::new(ring, 16, gadget, gadget, 4).unwrap();
        assert!(bucket_trace_rounds(&he).is_err());
        assert!(KvSchema::new(KsPirParams::new(he, 1), 0).is_err());
    }
}
