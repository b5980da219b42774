//! The live-update correctness property: a database that absorbed any
//! random sequence of put/delete deltas must be **word-for-word and
//! answer-for-answer identical** to one rebuilt from scratch at the same
//! contents — the invariant that lets a serving runtime ingest updates
//! forever without drifting from what a restart would produce.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use ive_pir::{
    BackendKind, Database, Journal, PirClient, PirParams, PirServer, RecordUpdate, UpdateLog,
};

/// Seed-derived random delta batches (multiple epochs' worth), with the
/// materialized record list they should produce.
fn random_history(params: &PirParams, seed: u64) -> (Vec<Vec<RecordUpdate>>, Vec<Vec<u8>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("base record {i}").into_bytes()).collect();
    let batches = rng.gen_range(1..4usize);
    let history: Vec<Vec<RecordUpdate>> = (0..batches)
        .map(|_| {
            let deltas = rng.gen_range(1..6usize);
            (0..deltas)
                .map(|_| {
                    let index = rng.gen_range(0..params.num_records());
                    if rng.gen_bool(0.75) {
                        let len = rng.gen_range(0..=params.record_bytes().min(64));
                        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                        records[index] = bytes.clone();
                        RecordUpdate::put(index, bytes)
                    } else {
                        records[index] = Vec::new();
                        RecordUpdate::delete(index)
                    }
                })
                .collect()
        })
        .collect();
    (history, records)
}

proptest! {
    // Each case runs the full pipeline (keygen + answers), so keep the
    // case count modest; the delta space is still explored widely via
    // the seeded batch generator.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `apply_updates` then `answer` ≡ rebuild-from-scratch then
    /// `answer`, for every committed epoch in a random update history.
    #[test]
    fn updated_database_answers_like_a_cold_rebuild(seed in any::<u64>()) {
        let params = PirParams::toy();
        let (history, final_records) = random_history(&params, seed);
        let base: Vec<Vec<u8>> = (0..params.num_records())
            .map(|i| format!("base record {i}").into_bytes())
            .collect();
        let mut db = Database::from_records(&params, &base).expect("base fits");
        let log = UpdateLog::with_backend(
            &params,
            if seed.is_multiple_of(2) { BackendKind::Optimized } else { BackendKind::Scalar },
        );
        for (i, batch) in history.iter().enumerate() {
            let epoch = db
                .apply_updates(&log.prepare_all(batch).expect("valid by construction"))
                .expect("in range");
            prop_assert_eq!(epoch, i as u64 + 1);
        }
        let rebuilt = Database::from_records(&params, &final_records).expect("fits");
        // Word-identical buffers: the strongest form of the claim. The
        // updated database got here through copy-on-write pages; only
        // the touched rows may have been copied.
        prop_assert_eq!(db.to_words(), rebuilt.to_words(), "buffers diverged");

        // And answer-identical through the full pipeline, for a target
        // the history touched (when any) and one it may not have.
        let server = PirServer::new(&params, db).expect("geometry");
        let fresh = PirServer::new(&params, rebuilt).expect("geometry");
        let mut client = PirClient::new(
            &params,
            rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE),
        ).expect("keygen");
        let touched = history.iter().flatten().next().map_or(0, RecordUpdate::index);
        for target in [touched, (touched + 17) % params.num_records()] {
            let query = client.query(target).expect("in range");
            let a = server.answer(client.public_keys(), &query).expect("pipeline");
            let b = fresh.answer(client.public_keys(), &query).expect("pipeline");
            prop_assert_eq!(&a, &b, "answers diverged at {}", target);
            let plain = client.decode(&query, &a).expect("decrypts");
            let want = &final_records[target];
            prop_assert_eq!(&plain[..want.len()], &want[..], "wrong contents at {}", target);
        }
    }

    /// Copy-on-write commits: applying a random history against a live
    /// snapshot copies at most one page per delta (O(deltas), never
    /// O(database)), and the snapshot's contents stay frozen at the old
    /// epoch.
    #[test]
    fn cow_commits_copy_only_touched_pages(seed in any::<u64>()) {
        let params = PirParams::toy();
        let (history, final_records) = random_history(&params, seed);
        let base: Vec<Vec<u8>> = (0..params.num_records())
            .map(|i| format!("base record {i}").into_bytes())
            .collect();
        let mut db = Database::from_records(&params, &base).expect("base fits");
        let snapshot = db.clone(); // an epoch snapshot holding every page
        let log = UpdateLog::new(&params);
        for batch in &history {
            db.apply_updates(&log.prepare_all(batch).expect("valid by construction"))
                .expect("in range");
        }
        let deltas: usize = history.iter().map(Vec::len).sum();
        let cow = db.cow_stats();
        prop_assert!(cow.pages_copied >= 1, "a shared page must be duplicated before a write");
        prop_assert!(
            cow.pages_copied as usize <= deltas,
            "commit copied {} pages for {} deltas — not O(deltas)",
            cow.pages_copied, deltas
        );
        prop_assert_eq!(cow.words_copied, cow.pages_copied * db.page_words() as u64);
        // The snapshot still reads as the base contents (isolation), and
        // the mutated lineage as the final contents.
        let base_db = Database::from_records(&params, &base).expect("fits");
        prop_assert_eq!(snapshot.to_words(), base_db.to_words(), "snapshot mutated");
        let rebuilt = Database::from_records(&params, &final_records).expect("fits");
        prop_assert_eq!(db.to_words(), rebuilt.to_words(), "CoW lineage diverged");
    }

    /// Crash-recovery: a journal holding fsync'd-but-uncommitted batches
    /// replays through the normal pipeline into a database word-identical
    /// to one that never crashed.
    #[test]
    fn journal_replay_rebuilds_word_identical_state(seed in any::<u64>()) {
        let params = PirParams::toy();
        let (history, final_records) = random_history(&params, seed);
        let path = std::env::temp_dir().join(format!(
            "ive-props-journal-{}-{seed:016x}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, replayed) = Journal::open(&path, &params).expect("open fresh");
            prop_assert!(replayed.is_empty());
            for batch in &history {
                journal.append(batch).expect("append");
            }
            prop_assert_eq!(journal.pending_batches(), history.len() as u64);
            // Simulated kill: dropped before any batch committed.
        }
        let (mut journal, replayed) = Journal::open(&path, &params).expect("recover");
        prop_assert_eq!(&replayed, &history, "journal must replay exactly what was appended");
        let base: Vec<Vec<u8>> = (0..params.num_records())
            .map(|i| format!("base record {i}").into_bytes())
            .collect();
        let mut db = Database::from_records(&params, &base).expect("base fits");
        let log = UpdateLog::new(&params);
        for batch in &replayed {
            db.apply_updates(&log.prepare_all(batch).expect("journaled batches always re-prepare"))
                .expect("in range");
        }
        journal.checkpoint().expect("checkpoint after recovery");
        let rebuilt = Database::from_records(&params, &final_records).expect("fits");
        prop_assert_eq!(db.to_words(), rebuilt.to_words(), "replay diverged from rebuild");
        let (_, replayed) = Journal::open(&path, &params).expect("reopen");
        prop_assert!(replayed.is_empty(), "checkpoint must clear the journal");
        let _ = std::fs::remove_file(&path);
    }
}

/// Deltas that land on one stored pair — slots `p` and `p + D0/2` of a
/// row, which a geometry with fewer rows than `D0/2` keeps folded
/// together (`ive_pir::db`): each member alone, a put to the upper
/// member, both members in one batch in either order, and a member
/// written twice. Every batch leaves the database word-identical to a
/// rebuild, and both members answer like one.
#[test]
fn pair_members_update_like_a_cold_rebuild() {
    // 4 rows < D0/2 = 8.
    let params = PirParams::new(ive_he::HeParams::toy(), 16, 2).expect("geometry");
    let half = params.d0() / 2;
    let (lo, hi) = (2 * params.d0() + 1, 2 * params.d0() + 1 + half);
    let base: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("pair base {i}").into_bytes()).collect();
    let put = |index: usize, tag: &str| RecordUpdate::put(index, format!("{tag} {index}").into());
    let batches = [
        vec![put(lo, "lower alone")],
        vec![put(hi, "upper alone")],
        vec![RecordUpdate::delete(lo)],
        vec![RecordUpdate::delete(hi)],
        vec![put(lo, "both, lower first"), put(hi, "both, upper second")],
        vec![put(hi, "both, upper first"), put(lo, "both, lower second")],
        vec![put(lo, "twice, first"), RecordUpdate::delete(hi), put(lo, "twice, second")],
    ];
    let log = UpdateLog::new(&params);
    let mut client =
        PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(0x9a1)).expect("keygen");
    for batch in &batches {
        let mut records = base.clone();
        for update in batch {
            records[update.index()] = match update {
                RecordUpdate::Put { bytes, .. } => bytes.clone(),
                RecordUpdate::Delete { .. } => Vec::new(),
            };
        }
        let mut db = Database::from_records(&params, &base).expect("base fits");
        db.apply_updates(&log.prepare_all(batch).expect("valid")).expect("in range");
        let rebuilt = Database::from_records(&params, &records).expect("fits");
        assert_eq!(db.to_words(), rebuilt.to_words(), "{batch:?} diverged from a rebuild");
        let server = PirServer::new(&params, db).expect("geometry");
        let fresh = PirServer::new(&params, rebuilt).expect("geometry");
        for target in [lo, hi] {
            let query = client.query(target).expect("in range");
            let answer = server.answer(client.public_keys(), &query).expect("pipeline");
            let want = fresh.answer(client.public_keys(), &query).expect("pipeline");
            assert_eq!(answer, want, "{batch:?}: answers diverged at {target}");
            let plain = client.decode(&query, &answer).expect("decrypts");
            let record = &records[target];
            assert_eq!(&plain[..record.len()], &record[..], "{batch:?}: record {target}");
        }
    }
}
