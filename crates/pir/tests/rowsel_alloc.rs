//! Proof of the zero-allocation hot path: once a worker's
//! [`QueryScratch`] is warm, `RowSel` — the per-query database scan, the
//! dominant cost at scale — performs **zero heap allocations**, and the
//! whole `answer_with` pipeline around it (ExpandQuery's tree, the scan,
//! ColTor's tournament) allocates nothing but the response ciphertext it
//! hands back — called directly, or as a served batch through
//! `ive_serve::ShardedEngine`. The keyword plane's
//! `KsPirServer::answer_with` (products, tournament, trace) and a served
//! `ive_serve::KeywordEngine` batch of bucket queries (the partial trace
//! a keyword get runs) are held to the same counts.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the scratch with two queries, then asserts that further scans allocate
//! nothing. This file holds a single test on purpose: the counter is
//! process-global and Cargo gives each integration-test binary its own
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ive_pir::{
    BackendKind, Database, KsPirClient, KsPirParams, KsPirServer, KvStore, PirClient, PirParams,
    PirServer, QueryScratch,
};
use ive_serve::{Engine, KeywordEngine, ShardedEngine, Span};
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_row_sel_performs_zero_heap_allocations() {
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("alloc-test record {i}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).expect("records fit");
    let mut server = PirServer::new(&params, db).expect("geometry matches");
    // Threads off: spawning workers allocates by definition; the claim
    // under test is about the scan itself (serving workers run with
    // rowsel_threads = 1 and parallelize across queries instead).
    server.set_rowsel_threads(1);

    let mut client =
        PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(4711)).expect("keygen");
    let query = client.query(23).expect("in range");
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let batch = vec![expanded.clone(), expanded.clone()];

    // `Simd` resolves to the AVX2 kernels where the host has them and to
    // the optimized fallback elsewhere; either way the warm scan must
    // stay allocation-free.
    for backend in
        [BackendKind::Optimized, BackendKind::Scalar, BackendKind::Simd, BackendKind::Avx512]
    {
        server.set_backend(backend);
        let mut scratch = QueryScratch::new();

        // Warm-up: the first scans size the flat accumulators.
        server.row_sel_into(&expanded, &mut scratch).expect("warm-up 1");
        server.row_sel_into(&expanded, &mut scratch).expect("warm-up 2");

        let before = allocations();
        for _ in 0..3 {
            server.row_sel_into(&expanded, &mut scratch).expect("warm scan");
        }
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "warm single-query RowSel allocated {during} times on the {backend} backend"
        );

        // The batched scan reuses the same scratch: one warm-up at the
        // new batch geometry, then allocation-free.
        server.row_sel_batch_into(&batch, &mut scratch).expect("batch warm-up");
        let before = allocations();
        server.row_sel_batch_into(&batch, &mut scratch).expect("warm batch scan");
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "warm batched RowSel allocated {during} times on the {backend} backend"
        );
    }

    // The *parallel* scan: spawning scoped workers allocates a fixed
    // per-spawn overhead, but the scan body itself must stay
    // allocation-free: every aligned row block accumulates in place in
    // the shared matrix. Two properties pin that down: repeated warm
    // scans allocate the same flat amount (no drift), and that amount is
    // bounded by a small per-thread constant (a per-record or
    // per-element allocation over the 64-record toy database would blow
    // far past it).
    server.set_backend(BackendKind::Optimized);
    for threads in [2usize, 4, 7] {
        server.set_rowsel_threads(threads);
        let mut scratch = QueryScratch::new();
        server.row_sel_into(&expanded, &mut scratch).expect("parallel warm-up 1");
        server.row_sel_into(&expanded, &mut scratch).expect("parallel warm-up 2");
        let per_run: Vec<u64> = (0..3)
            .map(|_| {
                let before = allocations();
                server.row_sel_into(&expanded, &mut scratch).expect("warm parallel scan");
                allocations() - before
            })
            .collect();
        assert!(
            per_run.windows(2).all(|w| w[0] == w[1]),
            "warm parallel scan allocation count drifts at {threads} threads: {per_run:?}"
        );
        assert!(
            per_run[0] <= 8 * threads as u64,
            "warm parallel scan at {threads} threads allocated {} times — more than spawn \
             overhead allows, so the scan body is allocating",
            per_run[0]
        );

        server.row_sel_batch_into(&batch, &mut scratch).expect("parallel batch warm-up");
        let before = allocations();
        server.row_sel_batch_into(&batch, &mut scratch).expect("warm parallel batch scan");
        let batch_run = allocations() - before;
        assert_eq!(
            batch_run, per_run[0],
            "doubling the queries changed the warm parallel scan's allocation count at \
             {threads} threads — a per-query allocation leaked into the hot path"
        );
    }

    // The whole pipeline: after two warm-up queries a third allocates
    // exactly the two limb vectors of the response ciphertext it returns
    // — no expansion ciphertexts, no row ciphertexts, no tournament
    // temporaries, no digit matrices. Queries are built up front (the
    // client side allocates freely) and differ, so nothing is cached.
    server.set_rowsel_threads(1);
    let mut others: Vec<_> = (0..2)
        .map(|c| {
            PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(4712 + c)).expect("keygen")
        })
        .collect();
    let singles: Vec<_> = [5usize, 40, 61].map(|i| client.query(i).expect("in range")).into();
    let rounds: Vec<Vec<_>> = (0..3usize)
        .map(|round| {
            let mut queries = vec![client.query(7 * round + 1).expect("in range")];
            queries.extend(others.iter_mut().map(|c| c.query(9 * round + 2).expect("in range")));
            queries
        })
        .collect();
    for backend in
        [BackendKind::Optimized, BackendKind::Scalar, BackendKind::Simd, BackendKind::Avx512]
    {
        server.set_backend(backend);
        let mut scratch = QueryScratch::new();
        let mut per_query = Vec::new();
        for query in &singles {
            let before = allocations();
            let response =
                server.answer_with(client.public_keys(), query, &mut scratch).expect("answer");
            per_query.push(allocations() - before);
            drop(response);
        }
        assert_eq!(
            per_query[2], 2,
            "warm answer_with allocated {per_query:?} times per query on the {backend} backend; \
             only the response's two limb vectors are allowed"
        );

        // Batched: the same, per query, plus the one result `Vec`.
        let keys: Vec<_> = std::iter::once(client.public_keys())
            .chain(others.iter().map(|c| c.public_keys()))
            .collect();
        let mut per_batch = Vec::new();
        for queries in &rounds {
            let requests: Vec<_> = keys.iter().copied().zip(queries).collect();
            let before = allocations();
            let responses = server.answer_batch_with(&requests, &mut scratch).expect("batch");
            per_batch.push(allocations() - before);
            drop(responses);
        }
        assert_eq!(
            per_batch[2],
            2 * keys.len() as u64 + 1,
            "warm answer_batch_with allocated {per_batch:?} times per batch on the {backend} \
             backend; only the responses and their Vec are allowed"
        );

        // Served: what a worker of the serving runtime runs for the same
        // batch — the replicated engine's epoch snapshot, the pipeline
        // above, and the span/histogram/scan-bandwidth stamps — adds no
        // allocation of its own.
        let engine = ShardedEngine::new(
            &params,
            server.database().clone(),
            1,
            server.tournament_order(),
            backend,
        )
        .expect("engine builds");
        let mut served = Vec::new();
        for queries in &rounds {
            let requests: Vec<_> = keys.iter().copied().zip(queries).collect();
            let mut span = Span::new();
            let before = allocations();
            let responses = engine.answer_batch(&requests, &mut scratch, &mut span).expect("batch");
            served.push(allocations() - before);
            assert!(span.total_us() > 0, "the served batch must report its stages");
            drop(responses);
        }
        assert_eq!(
            served[2],
            2 * keys.len() as u64 + 1,
            "a warm served batch allocated {served:?} times on the {backend} backend; only \
             the responses and their Vec are allowed"
        );
    }

    // Bit-identity across the full matrix: every backend × thread count
    // must produce the same answer ciphertext as the single-thread
    // scalar reference (7 does not divide the toy's 8 rows, so it rounds
    // down to 4 aligned blocks).
    server.set_backend(BackendKind::Scalar);
    server.set_rowsel_threads(1);
    let reference = server.answer(client.public_keys(), &query).expect("reference answer");
    for backend in [
        BackendKind::Scalar,
        BackendKind::Optimized,
        BackendKind::Simd,
        BackendKind::Avx512,
        BackendKind::Auto,
    ] {
        server.set_backend(backend);
        for threads in [1usize, 2, 4, 7] {
            server.set_rowsel_threads(threads);
            let got = server.answer(client.public_keys(), &query).expect("answer");
            assert_eq!(
                got, reference,
                "answer diverged from the scalar single-thread reference on the {backend} \
                 backend at {threads} RowSel threads"
            );
        }
    }

    // The keyword plane under the same two claims. A warm slot query —
    // 2^d products, the tournament, the trace — allocates exactly the
    // two limb vectors of its response; a warm served batch of B bucket
    // queries (the partial trace a keyword get runs) that × B plus the
    // result `Vec`.
    let ks_params = KsPirParams::toy();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..40u64).map(|i| (format!("alloc:{i}").into_bytes(), i * 0x0101_0101 + 3)).collect();
    let store = KvStore::build(&ks_params, &entries).expect("table builds");
    let ks_server = KsPirServer::new(ks_params.clone(), &store.scalars()).expect("image packs");
    let mut ks_client =
        KsPirClient::new(&ks_params, rand::rngs::StdRng::seed_from_u64(4720)).expect("keygen");
    let ks_singles: Vec<_> =
        [3usize, 300, 1000].map(|i| ks_client.query(i).expect("in range")).into();
    let schema = store.schema();
    let mut ks_group = KsPirClient::with_trace_rounds(
        &ks_params,
        schema.trace_rounds(),
        rand::rngs::StdRng::seed_from_u64(4721),
    )
    .expect("keygen");
    let ks_rounds: Vec<Vec<_>> = (0..3usize)
        .map(|round| {
            (0..3)
                .map(|j| {
                    let bucket = (17 * round + 5 * j) % schema.buckets();
                    ks_group.query(schema.slot_of(bucket)).expect("a bucket head")
                })
                .collect()
        })
        .collect();
    for backend in
        [BackendKind::Optimized, BackendKind::Scalar, BackendKind::Simd, BackendKind::Avx512]
    {
        let mut scratch = QueryScratch::new();
        let mut per_query = Vec::new();
        for query in &ks_singles {
            let before = allocations();
            let response = ks_server
                .answer_with(ks_client.public_keys(), query, backend.backend(), &mut scratch)
                .expect("answer");
            per_query.push(allocations() - before);
            drop(response);
        }
        assert_eq!(
            per_query[2], 2,
            "warm KsPirServer::answer_with allocated {per_query:?} times per query on the \
             {backend} backend; only the response's two limb vectors are allowed"
        );

        let engine = KeywordEngine::new(&ks_params, store.clone(), backend).expect("engine builds");
        let mut served = Vec::new();
        for queries in &ks_rounds {
            let requests: Vec<_> = queries.iter().map(|q| (ks_group.public_keys(), q)).collect();
            let mut span = Span::new();
            let before = allocations();
            let responses = engine.answer_batch(&requests, &mut scratch, &mut span).expect("batch");
            served.push(allocations() - before);
            assert!(span.total_us() > 0, "the served batch must report its stages");
            drop(responses);
        }
        assert_eq!(
            served[2],
            2 * ks_rounds[2].len() as u64 + 1,
            "a warm served keyword batch allocated {served:?} times on the {backend} backend; \
             only the responses and their Vec are allowed"
        );
    }
    let ks_reference = ks_server
        .answer_with(
            ks_client.public_keys(),
            &ks_singles[1],
            BackendKind::Scalar.backend(),
            &mut QueryScratch::new(),
        )
        .expect("reference answer");
    for backend in [
        BackendKind::Scalar,
        BackendKind::Optimized,
        BackendKind::Simd,
        BackendKind::Avx512,
        BackendKind::Auto,
    ] {
        let got = ks_server
            .answer_with(
                ks_client.public_keys(),
                &ks_singles[1],
                backend.backend(),
                &mut QueryScratch::new(),
            )
            .expect("answer");
        assert_eq!(
            got, ks_reference,
            "keyword answer diverged from the scalar reference on the {backend} backend"
        );
    }

    // Sanity: the accumulators hold a real answer — decode through the
    // normal pipeline and compare against the direct path.
    server.set_backend(BackendKind::Auto);
    server.set_rowsel_threads(1);
    let mut scratch = QueryScratch::new();
    let answer = server.answer_with(client.public_keys(), &query, &mut scratch).expect("pipeline");
    let plain = client.decode(&query, &answer).expect("decode");
    assert_eq!(&plain[..records[23].len()], &records[23][..]);
}
