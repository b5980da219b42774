//! Allocation bound on the client's side of a retrieval: once the
//! fresh-sample kernel's scratch is warm, a query allocates the
//! polynomials it returns and a constant beside them — per ciphertext, its
//! row vector and its gadget powers; per query, the plaintext and the bit
//! vector — and nothing per sample. A keyword decode reads coefficient 0
//! and allocates at most one buffer (the CRT's residues).
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
/// `polys` output polynomials: per bit its row vector and gadget powers,
/// per query the plaintext and the bit vector.
fn bound(polys: u64, bits: u64) -> u64 {
    polys + 2 * bits + 2
}

#[test]
fn warm_client_queries_allocate_their_outputs_and_decode_at_most_one_buffer() {
    // Keyword plane, at two tournament depths: the bound tracks the
    // samples' outputs, so no per-sample allocation can hide in it.
    for log_chunks in [1, 4] {
        let params = KsPirParams::new(ive_he::HeParams::toy(), log_chunks);
        let ell = params.he().gadget().ell() as u64;
        let mut client = KsPirClient::new(&params, rand::rngs::StdRng::seed_from_u64(7)).unwrap();
        client.query(1).expect("warm-up");
        let bits = u64::from(log_chunks);
        let polys = 2 * (1 + bits * 2 * ell);
        for index in [0, 3, params.num_scalars() - 1] {
            let (query, count) = allocations_of(|| client.query(index).expect("in range"));
            assert_eq!(query.chunk_bits().len() as u64, bits);
            assert!(
                count <= bound(polys, bits),
                "KsPirClient::query at depth {log_chunks} allocated {count} times for {polys} \
                 output polynomials"
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
    }

    // Index plane.
    let params = PirParams::toy();
    let ell = params.he().gadget().ell() as u64;
    let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(8)).unwrap();
    client.query(1).expect("warm-up");
    let bits = u64::from(params.dims());
    let polys = 2 * (1 + bits * 2 * ell);
    let (_, count) = allocations_of(|| client.query(2).expect("in range"));
    assert!(
        count <= bound(polys, bits),
        "PirClient::query allocated {count} times for {polys} output polynomials"
    );
}
