//! Online database updates: row deltas prepared off the hot path, made
//! durable in an on-disk [`Journal`], and applied to the copy-on-write
//! row pages as one epoch each.
//!
//! The paper's deployment model (§V) assumes a long-running server, but a
//! frozen [`Database`](crate::Database) would force a full rebuild-and-restart for any
//! content change. This module makes the database *mutable under
//! traffic* without giving up the preprocessing invariant of §II-B:
//!
//! 1. A [`RecordUpdate`] (put or delete) arrives as raw bytes.
//! 2. [`UpdateLog::prepare_all`] validates a whole batch and runs the
//!    **same CRT + NTT preprocessing as the offline load** (through the
//!    selected [`VpeBackend`](ive_math::kernel::VpeBackend)) on the
//!    calling thread — never on a query worker. Each delta becomes a
//!    [`PreparedUpdate`]: the record's `k·n` NTT-form limb words,
//!    narrowed to the database's 4-byte [`DbWord`], ready to `memcpy`
//!    into a row page.
//! 3. The caller commits the prepared batch with
//!    [`Database::apply_updates`](crate::Database::apply_updates), which splices the prepared words into
//!    the touched row pages only (copy-on-write) and bumps the database
//!    [`Database::epoch`](crate::Database::epoch). A serving layer
//!    prepares, journals and commits each batch in one call; no batch
//!    waits in a queue.
//!
//! For durability, the raw deltas can additionally be appended to a
//! [`Journal`] *before* the commit: a length-delimited on-disk log of
//! canonical [`Tag::UpdateRow`](crate::wire::Tag::UpdateRow) frames,
//! truncated once the commit has run. After a crash,
//! [`Journal::open`] returns whatever was appended but never
//! checkpointed: normally one batch, journaled but never committed. The
//! file holds no batch that committed before it, so replaying it onto the
//! database a process started from (as `ive_serve::PirService::start`
//! does with its caller's [`Database`](crate::Database)) recovers that one
//! batch on a base that lacks every earlier acknowledged batch.
//!
//! Because a prepared put writes exactly the words
//! [`Database::from_records`](crate::Database::from_records) would have produced for the same bytes
//! (and a delete writes the all-zero record, `NTT(0) = 0`), a database
//! that has absorbed any sequence of committed updates is **word-for-word
//! identical** to one rebuilt from scratch at the same contents — so
//! answers are bit-identical too (pinned by `tests/update_props.rs`).
//!
//! Serving layers (see `ive_serve::ShardedEngine`) pair this with
//! epoch-versioned server handles: each epoch is one database, so a
//! commit applies every delta at its flat index with no routing; in-flight
//! `RowSel` scans keep their snapshot, new queries see the new epoch, and
//! nobody observes a torn write.
//!
//! # Example
//!
//! ```
//! use ive_pir::{Database, PirParams, RecordUpdate, UpdateLog};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = PirParams::toy();
//! let mut db = Database::from_records(&params, &[b"old".to_vec()])?;
//! assert_eq!(db.epoch(), 0);
//!
//! let log = UpdateLog::new(&params);
//! let batch = [RecordUpdate::put(0, b"new contents".to_vec()), RecordUpdate::delete(3)];
//! let epoch = db.apply_updates(&log.prepare_all(&batch)?)?;
//! assert_eq!(epoch, 1);
//!
//! // Identical to a cold rebuild at the same contents.
//! let rebuilt = Database::from_records(&params, &[b"new contents".to_vec()])?;
//! assert_eq!(db.to_words(), rebuilt.to_words());
//! # Ok(())
//! # }
//! ```

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use ive_he::lift;
use ive_math::kernel::BackendKind;

use crate::db::DbWord;
use crate::params::PirParams;
use crate::wire;
use crate::PirError;

/// One row-level content delta, as it arrives from the outside world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordUpdate {
    /// Replace record `index` with `bytes` (zero-padded to the record
    /// capacity, exactly like [`Database::from_records`](crate::Database::from_records)).
    Put {
        /// Flat record index in `[0, D)`.
        index: usize,
        /// New payload; at most [`PirParams::record_bytes`] bytes.
        bytes: Vec<u8>,
    },
    /// Reset record `index` to the all-zero record (the same state a
    /// never-supplied trailing record has).
    Delete {
        /// Flat record index in `[0, D)`.
        index: usize,
    },
}

impl RecordUpdate {
    /// A put delta.
    pub fn put(index: usize, bytes: Vec<u8>) -> Self {
        RecordUpdate::Put { index, bytes }
    }

    /// A delete delta.
    pub fn delete(index: usize) -> Self {
        RecordUpdate::Delete { index }
    }

    /// The flat record index the delta targets.
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            RecordUpdate::Put { index, .. } | RecordUpdate::Delete { index } => *index,
        }
    }
}

/// A delta after offline-style preprocessing: the record's `k·n`
/// NTT-form limb words as the database stores them, ready to splice
/// into a row page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedUpdate {
    index: usize,
    words: Vec<DbWord>,
}

impl PreparedUpdate {
    /// Validates and preprocesses one delta: range/size checks, then the
    /// CRT + NTT lift of §II-B through `backend` — the same
    /// transformation the offline load applies, so an applied put is
    /// indistinguishable from a rebuilt record.
    ///
    /// # Errors
    /// Returns [`PirError::IndexOutOfRange`] for an index beyond the
    /// geometry and [`PirError::RecordTooLarge`] for an oversized payload.
    pub fn prepare(
        params: &PirParams,
        update: &RecordUpdate,
        backend: BackendKind,
    ) -> Result<Self, PirError> {
        let index = update.index();
        if index >= params.num_records() {
            return Err(PirError::IndexOutOfRange { index, records: params.num_records() });
        }
        let he = params.he();
        let payload = match update {
            RecordUpdate::Delete { .. } => None,
            RecordUpdate::Put { bytes, .. } => {
                lift::coeff_bytes(he)?;
                if bytes.len() > params.record_bytes() {
                    return Err(PirError::RecordTooLarge {
                        index,
                        len: bytes.len(),
                        capacity: params.record_bytes(),
                    });
                }
                Some(bytes)
            }
        };
        // The one allocation of a warm call; a delete is done with it
        // (NTT(0) = 0), a put is lifted into it.
        let mut words = vec![0; he.ring().basis().len() * he.n()];
        if let Some(bytes) = payload {
            lift::lift_record(he, bytes, &mut words, backend.backend());
        }
        Ok(PreparedUpdate { index, words })
    }

    /// The flat record index the delta targets.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The preprocessed limb words (`k·n`, residue-major, NTT form).
    #[inline]
    pub fn words(&self) -> &[DbWord] {
        &self.words
    }
}

/// The preparer of row-delta batches: validation and the §II-B NTT lift
/// for one geometry through one kernel backend.
///
/// It holds no deltas and never touches a [`Database`](crate::Database);
/// it only guarantees that everything it returns is pre-validated and
/// pre-transformed, so the apply step is a pure memcpy and the epoch
/// swap stays cheap.
#[derive(Debug)]
pub struct UpdateLog {
    params: PirParams,
    backend: BackendKind,
}

impl UpdateLog {
    /// A preparer using the default kernel backend.
    pub fn new(params: &PirParams) -> Self {
        UpdateLog::with_backend(params, BackendKind::default())
    }

    /// A preparer using the given backend (backends are bit-identical;
    /// this is a speed knob like everywhere else).
    pub fn with_backend(params: &PirParams, backend: BackendKind) -> Self {
        UpdateLog { params: params.clone(), backend }
    }

    /// The geometry deltas are validated against.
    #[inline]
    pub fn params(&self) -> &PirParams {
        &self.params
    }

    /// Validates and NTT-transforms a whole batch, all-or-nothing, in
    /// batch order (so a later delta to the same record wins on apply).
    /// The NTT runs on *this* thread — the design point that keeps
    /// transforms off the query workers.
    ///
    /// # Errors
    /// Rejects the entire batch when any delta is out of range or
    /// oversized.
    pub fn prepare_all(&self, updates: &[RecordUpdate]) -> Result<Vec<PreparedUpdate>, PirError> {
        updates.iter().map(|u| PreparedUpdate::prepare(&self.params, u, self.backend)).collect()
    }
}

/// A durable write-ahead journal for row deltas: a length-delimited
/// on-disk log of canonical [`Tag::UpdateRow`](crate::wire::Tag::UpdateRow)
/// frames.
///
/// Protocol: [`append`](Journal::append) a batch (fsynced) *before*
/// committing it, [`checkpoint`](Journal::checkpoint) (truncate) once the
/// commit has run. A crash between the two leaves the batch on disk; the
/// next [`Journal::open`] replays it. Replayed deltas run through the
/// same `decode → prepare → apply` pipeline as live ones, so they land
/// word for word as they would have (pinned by `tests/update_props.rs`);
/// batches checkpointed before the crash are not in the file, and are
/// recovered only if the base the caller replays onto already holds them.
///
/// On-disk layout, repeated per appended batch:
///
/// ```text
/// | u32 (BE) frame length | canonical UpdateRow frame bytes |
/// ```
///
/// A torn tail — a partial record from a crash mid-append — is detected
/// by length, truncated away, and never replayed (the batch was never
/// acknowledged). A *complete* record that fails to decode is corruption
/// and surfaces as an error instead of being skipped.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    pending: u64,
    seq: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path` and replays every intact
    /// batch, in append order. Returns the journal positioned for
    /// appending plus the replayed batches the caller must re-commit.
    ///
    /// Those are only the batches appended since the last checkpoint —
    /// under a caller that checkpoints after every commit, at most the
    /// one whose commit never ran. Nothing committed earlier is returned:
    /// re-committing onto the database the process started from yields
    /// that database plus these batches, not the state before the crash.
    ///
    /// # Errors
    /// Fails on I/O errors or on a complete-but-undecodable record
    /// (corruption, as opposed to a torn tail, which is truncated).
    pub fn open(
        path: impl Into<PathBuf>,
        params: &PirParams,
    ) -> Result<(Journal, Vec<Vec<RecordUpdate>>), PirError> {
        let path = path.into();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        // A freshly created journal is only durable once its *directory
        // entry* is — fsync the parent so the file itself survives a
        // crash, not just its (empty) contents.
        sync_parent_dir(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut batches = Vec::new();
        let mut good = 0usize;
        while raw.len() - good >= 4 {
            let len = u32::from_be_bytes(raw[good..good + 4].try_into().expect("4 bytes")) as usize;
            if raw.len() - good - 4 < len {
                break; // torn tail: the append never finished
            }
            let frame = Bytes::copy_from_slice(&raw[good + 4..good + 4 + len]);
            let (_seq, updates) = wire::decode_update_rows(params, &frame)?;
            batches.push(updates);
            good += 4 + len;
        }
        if good < raw.len() {
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::Start(good as u64))?;
        let pending = batches.len() as u64;
        Ok((Journal { path, file, pending, seq: pending }, batches))
    }

    /// Appends one batch as a canonical `UpdateRow` frame and fsyncs it.
    /// An empty batch is a no-op (it would not open an epoch either).
    ///
    /// # Errors
    /// Fails on I/O errors or a batch over the per-frame delta cap.
    pub fn append(&mut self, updates: &[RecordUpdate]) -> Result<(), PirError> {
        if updates.is_empty() {
            return Ok(());
        }
        let frame = wire::encode_update_rows(self.seq, updates)?;
        let mut rec = Vec::with_capacity(4 + frame.len());
        rec.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        rec.extend_from_slice(&frame);
        let start = self.file.stream_position()?;
        let synced = self
            .file
            .write_all(&rec)
            .and_then(|()| crate::fault::fail_io(crate::fault::Site::Fsync))
            .and_then(|()| self.file.sync_data());
        if let Err(e) = synced {
            // The record's durability is unknown (write or fsync failed,
            // possibly ENOSPC): roll the file back to the pre-append
            // length so an unacknowledged batch can never replay, and
            // leave the cursor where the next append expects it.
            let _ = self.file.set_len(start);
            let _ = self.file.seek(SeekFrom::Start(start));
            return Err(e.into());
        }
        self.seq += 1;
        self.pending += 1;
        Ok(())
    }

    /// Truncates the journal after its batches have committed: the
    /// in-memory database now owns the state, so the log restarts empty.
    ///
    /// # Errors
    /// Fails on I/O errors.
    pub fn checkpoint(&mut self) -> Result<(), PirError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        // Truncation rewrites the inode; sync the directory too so the
        // checkpoint itself is durable and a crash cannot resurrect
        // already-committed batches through a stale directory entry.
        sync_parent_dir(&self.path)?;
        self.pending = 0;
        Ok(())
    }

    /// Batches appended but not yet checkpointed.
    #[inline]
    pub fn pending_batches(&self) -> u64 {
        self.pending
    }

    /// The on-disk location of the log.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Fsyncs `path`'s parent directory, so that metadata operations on the
/// file (creation, truncation) are durable — an fsync of the file alone
/// does not cover its directory entry. A pathless file (no parent) is a
/// no-op.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{pack_record, Database};

    #[test]
    fn prepared_put_matches_offline_preprocessing() {
        let params = PirParams::toy();
        let bytes = b"delta payload".to_vec();
        for backend in
            [BackendKind::Scalar, BackendKind::Optimized, BackendKind::Simd, BackendKind::Avx512]
        {
            let p = PreparedUpdate::prepare(&params, &RecordUpdate::put(5, bytes.clone()), backend)
                .unwrap();
            assert_eq!(p.index(), 5);
            let offline = pack_record(params.he(), &bytes);
            assert_eq!(p.words(), offline, "{backend:?} diverged from offline path");
        }
    }

    #[test]
    fn prepared_delete_is_all_zero() {
        let params = PirParams::toy();
        let p = PreparedUpdate::prepare(&params, &RecordUpdate::delete(0), BackendKind::default())
            .unwrap();
        assert!(p.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn out_of_range_and_oversized_rejected() {
        let params = PirParams::toy();
        let log = UpdateLog::new(&params);
        let oob = RecordUpdate::delete(params.num_records());
        assert!(matches!(log.prepare_all(&[oob]), Err(PirError::IndexOutOfRange { .. })));
        let fat = RecordUpdate::put(0, vec![0u8; params.record_bytes() + 1]);
        assert!(matches!(log.prepare_all(&[fat]), Err(PirError::RecordTooLarge { .. })));
    }

    #[test]
    fn prepare_all_is_atomic() {
        let params = PirParams::toy();
        let log = UpdateLog::new(&params);
        let batch = vec![
            RecordUpdate::put(1, b"ok".to_vec()),
            RecordUpdate::delete(params.num_records()), // invalid
        ];
        assert!(log.prepare_all(&batch).is_err(), "partial batch prepared");
    }

    #[test]
    fn a_later_delta_to_the_same_record_wins() {
        let params = PirParams::toy();
        let log = UpdateLog::new(&params);
        let prepared = log
            .prepare_all(&[
                RecordUpdate::put(2, b"a".to_vec()),
                RecordUpdate::put(2, b"b".to_vec()),
            ])
            .unwrap();
        assert_eq!(prepared.len(), 2);
        // The later delta to the same index comes later, so it wins on apply.
        let mut db = Database::from_records(&params, &[]).unwrap();
        db.apply_updates(&prepared).unwrap();
        let rebuilt = Database::from_records(&params, &[vec![], vec![], b"b".to_vec()]).unwrap();
        assert_eq!(db.to_words(), rebuilt.to_words());
    }

    /// A collision-free scratch file path (no tempfile dependency).
    fn temp_journal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ive-journal-{tag}-{}-{n}.log", std::process::id()))
    }

    #[test]
    fn journal_replays_batches_lost_before_commit() {
        let params = PirParams::toy();
        let path = temp_journal("crash");
        let batch1 = vec![RecordUpdate::put(2, b"first".to_vec()), RecordUpdate::delete(9)];
        let batch2 = vec![RecordUpdate::put(2, b"second wins".to_vec())];
        {
            let (mut journal, replayed) = Journal::open(&path, &params).unwrap();
            assert!(replayed.is_empty());
            journal.append(&batch1).unwrap();
            journal.append(&batch2).unwrap();
            assert_eq!(journal.pending_batches(), 2);
            // Simulated kill: dropped without checkpoint, commit never ran.
        }
        let (mut journal, replayed) = Journal::open(&path, &params).unwrap();
        assert_eq!(replayed, vec![batch1, batch2]);
        // Replay through the normal pipeline rebuilds the exact state.
        let mut db = Database::from_records(&params, &[]).unwrap();
        let log = UpdateLog::new(&params);
        for batch in &replayed {
            db.apply_updates(&log.prepare_all(batch).unwrap()).unwrap();
        }
        let rebuilt =
            Database::from_records(&params, &[vec![], vec![], b"second wins".to_vec()]).unwrap();
        assert_eq!(db.to_words(), rebuilt.to_words(), "replay diverged from rebuild");
        // After the recovered state commits, the checkpoint empties the log.
        journal.checkpoint().unwrap();
        let (_, replayed) = Journal::open(&path, &params).unwrap();
        assert!(replayed.is_empty(), "checkpoint must clear the journal");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let params = PirParams::toy();
        let path = temp_journal("torn");
        {
            let (mut journal, _) = Journal::open(&path, &params).unwrap();
            journal.append(&[RecordUpdate::put(0, b"intact".to_vec())]).unwrap();
        }
        // A crash mid-append: the length promises more bytes than follow.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&999u32.to_be_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let truncated_len = {
            let (mut journal, replayed) = Journal::open(&path, &params).unwrap();
            assert_eq!(replayed.len(), 1, "intact prefix must replay");
            assert_eq!(replayed[0], vec![RecordUpdate::put(0, b"intact".to_vec())]);
            // Appending after truncation lands cleanly after the prefix.
            journal.append(&[RecordUpdate::delete(1)]).unwrap();
            std::fs::metadata(&path).unwrap().len()
        };
        let (_, replayed) = Journal::open(&path, &params).unwrap();
        assert_eq!(replayed.len(), 2, "post-truncation append must be intact");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), truncated_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn complete_but_corrupt_record_is_an_error() {
        let params = PirParams::toy();
        let path = temp_journal("corrupt");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&path).unwrap();
            // Correct length prefix, garbage frame: corruption, not a torn
            // tail — replay must refuse rather than silently drop data.
            f.write_all(&8u32.to_be_bytes()).unwrap();
            f.write_all(b"garbage!").unwrap();
        }
        assert!(Journal::open(&path, &params).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
