//! Proof that building database words allocates the words and nothing
//! per record: [`Database::from_records`] lifts every record straight
//! into its slot of its row page, so a load performs `O(rows)` heap
//! allocations (a page and its `Arc` per row, the page list, the
//! builder's scratch) however many records a row holds, and a warm
//! [`PreparedUpdate::prepare`] performs exactly one — the delta's word
//! vector.
//!
//! A counting global allocator wraps the system allocator, as in
//! `rowsel_alloc.rs`; this file holds a single test for the same reason
//! (the counter is process-global, and Cargo gives each integration-test
//! binary its own process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ive_he::HeParams;
use ive_math::kernel::BACKEND_KINDS;
use ive_pir::{Database, PirParams, PreparedUpdate, RecordUpdate};

/// Counts every allocation and reallocation routed through the global
/// allocator (deallocations are free and not counted).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is an atomic
// add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const ROWS: u64 = 4;

/// Allocations of one full load of a 4-row toy database with `d0`
/// records to the row (small enough that the build runs inline).
fn load_allocations(d0: usize) -> u64 {
    let params = PirParams::new(HeParams::toy(), d0, 2).expect("valid geometry");
    assert_eq!(params.num_rows() as u64, ROWS);
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| vec![i as u8; params.record_bytes() - i % 7]).collect();
    // Warm the process-wide state a first lift sets up (backend probe,
    // twiddle tables) so that both geometries are counted alike.
    Database::from_records(&params, &records[..1]).expect("fits");
    let before = allocations();
    let db = Database::from_records(&params, &records).expect("fits");
    let during = allocations() - before;
    assert_eq!(db.len(), records.len());
    during
}

#[test]
fn building_database_words_allocates_nothing_per_record() {
    let (few, many) = (load_allocations(8), load_allocations(64));
    assert_eq!(few, many, "32 and 256 records over {ROWS} rows must allocate alike");
    assert!(many >= ROWS, "every row page is its own allocation");
    assert!(
        many <= 2 * ROWS + 8,
        "a {ROWS}-row load allocated {many} times; expected two per row page plus a constant"
    );

    let params = PirParams::toy();
    let put = RecordUpdate::put(3, vec![0xA5; params.record_bytes() - 1]);
    for kind in BACKEND_KINDS {
        // Warm-up: a backend that widens a 4-byte row to transform it
        // sizes this thread's staging scratch once.
        PreparedUpdate::prepare(&params, &put, kind).expect("valid delta");
        for update in [&put, &RecordUpdate::delete(5)] {
            let before = allocations();
            let prepared = PreparedUpdate::prepare(&params, update, kind).expect("valid delta");
            let during = allocations() - before;
            assert_eq!(during, 1, "warm prepare allocated {during} times on the {kind} backend");
            drop(prepared);
        }
    }
}
