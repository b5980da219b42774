//! Criterion benchmarks of the three PIR steps and the end-to-end answer
//! on the toy geometry.
use criterion::{criterion_group, criterion_main, Criterion};
use ive_pir::{Database, PirClient, PirParams, PirServer};
use rand::SeedableRng;

fn bench_pipeline(c: &mut Criterion) {
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("record {i}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("valid geometry");
    let mut client = PirClient::new(&params, rand::rngs::StdRng::seed_from_u64(4)).expect("keygen");
    let query = client.query(21).expect("in range");
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let rows = server.row_sel(&expanded).expect("shape ok");

    let mut group = c.benchmark_group("pir_toy");
    group.sample_size(10);
    group.bench_function("expand_query", |b| {
        b.iter(|| server.expand(client.public_keys(), &query).expect("keys ok"))
    });
    group.bench_function("row_sel", |b| b.iter(|| server.row_sel(&expanded).expect("shape ok")));
    group.bench_function("col_tor", |b| {
        b.iter(|| server.col_tor_step(rows.clone(), &query).expect("bits ok"))
    });
    group.bench_function("answer_end_to_end", |b| {
        b.iter(|| server.answer(client.public_keys(), &query).expect("pipeline ok"))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
