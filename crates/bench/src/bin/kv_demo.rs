//! `kv_demo` — drives the private key-value store end to end over the
//! real TCP transport: a keyword service (`PirService::start_keyword`)
//! answers `KvClient::get`s — private retrieval *by key* — while a
//! writer streams put/delete mutations that commit as copy-on-write
//! epochs. Records the numbers to `BENCH_kv.json`.
//!
//! What the run demonstrates:
//!
//! * **Keyword privacy, served** — every `get` privately fetches both
//!   cuckoo candidate buckets (a fixed, key-independent pair of bucket
//!   queries, each a partial trace that returns a whole bucket), and
//!   decodes the value locally.
//! * **Live mutation** — puts and deletes ack with their committed
//!   epoch, and a follow-up `get` on the same connection reads the
//!   written value (read-your-writes).
//! * **Response compression** — with `--compress`, answers travel as
//!   modulus-switched frames and must still decode identically.
//!
//! Usage: `kv_demo [--seconds 4] [--readers 2] [--writes-per-sec 5]
//! [--entries 24] [--compress]
//! [--backend auto|avx512|simd|optimized|scalar]
//! [--json-out BENCH_kv.json]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ive_bench::fmt;
use ive_pir::kspir::KsPirParams;
use ive_pir::{BackendKind, KvStore};
use ive_serve::config::ServeConfig;
use ive_serve::{Connection, PirService, Stage, TcpTransport};
use rand::{Rng, SeedableRng};

struct Args {
    seconds: f64,
    readers: usize,
    writes_per_sec: f64,
    entries: usize,
    compress: bool,
    backend: BackendKind,
    json_out: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        seconds: 4.0,
        readers: 2,
        writes_per_sec: 5.0,
        entries: 24,
        compress: false,
        backend: BackendKind::Auto,
        json_out: "BENCH_kv.json".into(),
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].strip_prefix("--").ok_or_else(|| format!("unexpected {:?}", argv[i]))?;
        if key == "compress" {
            args.compress = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).cloned().ok_or_else(|| format!("--{key} needs a value"))?;
        fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("--{key} got a malformed value {value:?}"))
        }
        match key {
            "seconds" => args.seconds = parsed(key, &value)?,
            "readers" => args.readers = parsed(key, &value)?,
            "writes-per-sec" => args.writes_per_sec = parsed(key, &value)?,
            "entries" => args.entries = parsed(key, &value)?,
            "backend" => args.backend = value.parse().map_err(|e| format!("{e}"))?,
            "json-out" => args.json_out = value,
            other => return Err(format!("unknown flag --{other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn key_of(i: usize) -> Vec<u8> {
    format!("user:{i:04}").into_bytes()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kv_demo: {e}");
            std::process::exit(2);
        }
    };
    let params = KsPirParams::toy();
    let entries: Vec<(Vec<u8>, u64)> =
        (0..args.entries).map(|i| (key_of(i), 1000 + i as u64)).collect();
    let store = KvStore::build(&params, &entries).expect("table builds");
    let schema = store.schema().clone();
    println!(
        "kv_demo: {} entries in {} buckets x {} slots ({} scalar slots), {} readers, \
         target {} writes/s, compression {}",
        entries.len(),
        schema.buckets(),
        schema.bucket_slots(),
        schema.buckets() * schema.bucket_slots(),
        args.readers,
        args.writes_per_sec,
        if args.compress { "on" } else { "off" },
    );

    let config = ServeConfig {
        accept_updates: true,
        compress_responses: args.compress,
        backend: args.backend,
        ..ServeConfig::default()
    };
    let transport = TcpTransport::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = transport.local_addr();
    let service = PirService::start_keyword(config, &params, store, Box::new(transport))
        .expect("keyword service starts");

    let stop = Arc::new(AtomicBool::new(false));
    let gets = Arc::new(AtomicU64::new(0));
    // Every `KvClient::get` call, retries and the writer's included.
    let gets_sent = Arc::new(AtomicU64::new(0));
    let writes_acked = Arc::new(AtomicU64::new(0));
    let final_epoch = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    std::thread::scope(|scope| {
        // Closed-loop readers: each gets pre-loaded keys (and the odd
        // absent one) as fast as the server answers, checking every
        // stable value exactly. Writers only touch indices >= entries,
        // so reader targets never change under them.
        for r in 0..args.readers {
            let params = params.clone();
            let stop = Arc::clone(&stop);
            let gets = Arc::clone(&gets);
            let gets_sent = Arc::clone(&gets_sent);
            let entries = args.entries;
            scope.spawn(move || {
                let conn = ive_serve::tcp::connect(addr).expect("dial");
                let mut kv = Connection::new(conn)
                    .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(7_000 + r as u64))
                    .expect("handshake");
                let mut rng = rand::rngs::StdRng::seed_from_u64(8_000 + r as u64);
                let mut get = |key: &[u8]| {
                    gets_sent.fetch_add(1, Ordering::Relaxed);
                    kv.get(key).expect("get")
                };
                while !stop.load(Ordering::Relaxed) {
                    let i = rng.gen_range(0..entries + 2);
                    if i < entries {
                        let mut got = get(&key_of(i));
                        if got != Some(1000 + i as u64) {
                            // One get spans both candidate buckets as two
                            // queries the server answers one after the
                            // other; an epoch committed between them can
                            // relocate the key from the not-yet-read
                            // bucket into the already-read one (cuckoo
                            // eviction). Transient by construction — a
                            // single retry settles it.
                            got = get(&key_of(i));
                        }
                        assert_eq!(got, Some(1000 + i as u64), "stable key {i} torn");
                    } else {
                        let ghost = format!("ghost:{i}").into_bytes();
                        assert_eq!(get(&ghost), None, "phantom key appeared");
                    }
                    gets.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The writer: paced puts/deletes on its own key range, each ack
        // one committed CoW epoch, read-your-writes checked in-line.
        {
            let params = params.clone();
            let stop = Arc::clone(&stop);
            let writes_acked = Arc::clone(&writes_acked);
            let final_epoch = Arc::clone(&final_epoch);
            let gets_sent = Arc::clone(&gets_sent);
            let base = args.entries;
            let per_sec = args.writes_per_sec.max(0.1);
            scope.spawn(move || {
                let conn = ive_serve::tcp::connect(addr).expect("dial");
                let mut kv = Connection::new(conn)
                    .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(9_000))
                    .expect("handshake");
                let t0 = Instant::now();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let due = Duration::from_secs_f64(seq as f64 / per_sec);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait.min(Duration::from_millis(20)));
                        if t0.elapsed() < due {
                            continue;
                        }
                    }
                    let key = key_of(base + (seq % 4) as usize);
                    let epoch = if seq % 5 == 4 {
                        kv.delete(&key).expect("delete acks")
                    } else {
                        let value = 50_000 + seq;
                        let epoch = kv.put(&key, value).expect("put acks");
                        gets_sent.fetch_add(1, Ordering::Relaxed);
                        let got = kv.get(&key).expect("get after put");
                        assert_eq!(got, Some(value), "read-your-writes broken at seq {seq}");
                        epoch
                    };
                    final_epoch.store(epoch, Ordering::Relaxed);
                    writes_acked.fetch_add(1, Ordering::Relaxed);
                    seq += 1;
                }
            });
        }

        std::thread::sleep(Duration::from_secs_f64(args.seconds));
        stop.store(true, Ordering::Relaxed);
    });
    let seconds = started.elapsed().as_secs_f64();

    // Scrape the still-running server over the wire — the same GetStats
    // frame a monitoring exporter would send — before shutting it down.
    let scraped = {
        let conn = ive_serve::tcp::connect(addr).expect("dial");
        let mut kv = Connection::new(conn)
            .into_kv_client(&params, rand::rngs::StdRng::seed_from_u64(10_000))
            .expect("handshake");
        kv.stats().expect("live scrape")
    };
    println!("[scrape] {scraped}");

    let stats = service.shutdown();
    println!("{stats}");
    assert!(scraped.queries <= stats.queries, "scrape saw the same monotone counters");
    let gets = gets.load(Ordering::Relaxed);
    let writes = writes_acked.load(Ordering::Relaxed);
    let epoch = final_epoch.load(Ordering::Relaxed);
    assert!(gets > 0, "readers must complete gets");
    assert!(writes > 0, "writer must commit mutations");
    assert_eq!(stats.errors, 0, "no keyword query may fail: {stats}");

    // What a get costs on the wire: the queries the server answered per
    // `KvClient::get` sent.
    let slot_queries_per_get = stats.queries as f64 / gets_sent.load(Ordering::Relaxed) as f64;
    fmt::print_table(
        "kv_demo: private gets under live writes (TCP)",
        &["gets", "gets/s", "queries/get", "p95 (ms)", "p999 (ms)", "writes", "epochs"],
        &[vec![
            gets.to_string(),
            fmt::f(gets as f64 / seconds),
            fmt::f(slot_queries_per_get),
            fmt::f(stats.p95_latency_ms),
            fmt::f(stats.p999_latency_ms),
            writes.to_string(),
            epoch.to_string(),
        ]],
    );

    // The keyword path answers on the connection handler, so its stage
    // histogram covers decode, (optional) compression, and encode plus
    // the engine's epoch commits; per-slot-query means from the shared
    // trace recorder.
    let stage_rows: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|&s| {
            let st = stats.stage(s);
            vec![
                s.name().into(),
                st.count.to_string(),
                fmt::f(st.mean_ms()),
                fmt::f(st.max_us as f64 / 1000.0),
            ]
        })
        .collect();
    fmt::print_table(
        "per-stage timings (keyword path, from the shared trace recorder)",
        &["stage", "samples", "mean (ms)", "max (ms)"],
        &stage_rows,
    );

    let stage_json: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("\"{}\": {:.4}", s.name(), stats.stage(s).mean_ms()))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"kv_demo\",\n",
            "  \"cores\": {},\n",
            "  \"backend\": \"{}\",\n",
            "  \"backend_resolved\": \"{}\",\n",
            "  \"compress_responses\": {},\n",
            "  \"schema\": {{ \"entries\": {}, \"buckets\": {}, \"bucket_slots\": {} }},\n",
            "  \"gets\": {},\n",
            "  \"gets_per_s\": {:.2},\n",
            "  \"slot_queries_per_get\": {:.2},\n",
            "  \"mean_latency_ms\": {:.3},\n",
            "  \"p95_latency_ms\": {:.3},\n",
            "  \"p999_latency_ms\": {:.3},\n",
            "  \"writes_acked\": {},\n",
            "  \"writes_per_s\": {:.2},\n",
            "  \"final_epoch\": {},\n",
            "  \"stage_ms\": {{ {} }},\n",
            "  \"epoch_commit_mean_ms\": {:.4},\n",
            "  \"scraped_queries\": {},\n",
            "  \"errors\": {}\n",
            "}}\n"
        ),
        cores,
        args.backend,
        args.backend.backend().name(),
        args.compress,
        args.entries,
        schema.buckets(),
        schema.bucket_slots(),
        gets,
        gets as f64 / seconds,
        slot_queries_per_get,
        stats.mean_latency_ms,
        stats.p95_latency_ms,
        stats.p999_latency_ms,
        writes,
        writes as f64 / seconds,
        epoch,
        stage_json.join(", "),
        stats.stage(Stage::EpochCommit).mean_ms(),
        scraped.queries,
        stats.errors,
    );
    std::fs::write(&args.json_out, &json).expect("write json");
    println!("wrote {}", args.json_out);
}
