//! Allocation bound on the client's side of a retrieval: once the
//! fresh-sample kernel's scratch is warm, a query allocates what it
//! returns — the two polynomials of its BFV ciphertext and one packed
//! row store per RGSW bit — and a constant beside them — per bit, its
//! gadget powers; per query, the plaintext and the bit vector — and
//! nothing per sample or per row. A slot decode reads coefficient 0 and
//! allocates at most one buffer (the CRT's residues); a keyword bucket's
//! group query is held to the slot query's bound, and its group decode
//! allocates the `g` scalars it returns and at most one buffer (the
//! phase).
//!
//! A counting global allocator wraps the system allocator, as in
//! `rowsel_alloc.rs`. This file holds a single test on purpose: the
//! counter is process-global and Cargo gives each integration-test binary
//! its own process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ive_pir::{KsPirClient, KsPirParams, KsPirServer, PirClient, PirParams};
use rand::SeedableRng;

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

/// Allocations made by `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The most a warm query of `bits` RGSW bits may allocate beside its
/// `outputs` buffers: per bit its gadget powers, per query the plaintext
/// and the bit vector.
fn bound(outputs: u64, bits: u64) -> u64 {
    outputs + bits + 2
}

/// The buffers a query of `bits` RGSW bits returns: the two polynomials
/// of its BFV ciphertext and one row store per bit.
fn outputs(bits: u64) -> u64 {
    2 + bits
}

#[test]
fn warm_client_queries_allocate_their_outputs_and_decode_at_most_one_buffer() {
    // Keyword plane, at two tournament depths: the bound tracks the bits,
    // so no per-sample or per-row allocation can hide in it.
    for log_chunks in [1, 4] {
        let params = KsPirParams::new(ive_he::HeParams::toy(), log_chunks);
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(7)).unwrap();
        client.query(1).expect("warm-up");
        let bits = u64::from(log_chunks);
        let buffers = outputs(bits);
        for index in [0, 3, params.num_scalars() - 1] {
            let (query, count) = allocations_of(|| client.query(index).expect("in range"));
            assert_eq!(query.chunk_bits().len() as u64, bits);
            assert!(
                count <= bound(buffers, bits),
                "KsPirClient::query at depth {log_chunks} allocated {count} times for {buffers} \
                 output buffers"
            );
        }

        let scalars: Vec<u64> = (0..params.num_scalars() as u64).collect();
        let server = KsPirServer::new(params.clone(), &scalars).unwrap();
        let query = client.query(5).unwrap();
        let response = server.answer(client.public_keys(), &query).unwrap();
        client.decode(&response).expect("warm-up");
        let (scalar, count) = allocations_of(|| client.decode(&response).unwrap());
        assert_eq!(scalar, 5);
        assert!(count <= 1, "KsPirClient::decode allocated {count} times");

        // The keyword bucket's group query and its whole-group decode.
        let rounds = ive_pir::keyword::bucket_trace_rounds(params.he()).unwrap();
        let rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut group = KsPirClient::with_trace_rounds(&params, rounds, rng).unwrap();
        group.query(1).expect("warm-up");
        let n = params.he().n();
        for index in [0, 15, (params.chunks() - 1) * n + 3] {
            let (_, count) = allocations_of(|| group.query(index).expect("a group head"));
            assert!(
                count <= bound(buffers, bits),
                "a group query at depth {log_chunks} allocated {count} times for {buffers} \
                 output buffers"
            );
        }
        let query = group.query(5).unwrap();
        let response = server.answer(group.public_keys(), &query).unwrap();
        group.decode_group(&response).expect("warm-up");
        let (scalars, count) = allocations_of(|| group.decode_group(&response).unwrap());
        let stride = 1 << rounds;
        let want: Vec<u64> = (0..group.group_len() as u64).map(|m| 5 + m * stride).collect();
        assert_eq!(scalars, want);
        assert!(count <= 2, "KsPirClient::decode_group allocated {count} times");
    }

    // Index plane.
    let params = PirParams::toy();
    let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(8)).unwrap();
    client.query(1).expect("warm-up");
    let bits = u64::from(params.dims());
    let buffers = outputs(bits);
    let (_, count) = allocations_of(|| client.query(2).expect("in range"));
    assert!(
        count <= bound(buffers, bits),
        "PirClient::query allocated {count} times for {buffers} output buffers"
    );
}
