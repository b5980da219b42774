//! Serving-stack quickstart: run a batching PIR service over TCP on
//! localhost, register two clients, retrieve records concurrently, then
//! push a live row update and retrieve the new contents — no restart.
//! Before shutting down, the live server is scraped over the same wire
//! (`ServeClient::stats`) and the snapshot is written out in the
//! Prometheus text exposition format (`pir_service_metrics.prom`).
//!
//! Run with: `cargo run --release --example pir_service`

use std::time::Duration;

use ive::pir::{Database, PirParams, TournamentOrder};
use ive::serve::config::{ServeConfig, ShardPlan};
use ive::serve::{Connection, PirService, TcpTransport};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Offline: pack and preprocess the database (§II-B).
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> = (0..params.num_records())
        .map(|i| format!("record #{i:03}: the answer is {}", 7 * i).into_bytes())
        .collect();
    let db = Database::from_records(&params, &records)?;

    // Start the service: a 20ms waiting window coalesces concurrent
    // queries into batches (§V), two workers drain them, and each batch's
    // rows split into two aligned blocks whose tournament winners finish
    // with the high row bit.
    let config = ServeConfig {
        window: Duration::from_millis(20),
        max_batch: 8,
        workers: 2,
        queue_depth: 32,
        shard: ShardPlan::Replicated,
        rowsel_threads: 2,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: ive::pir::BackendKind::Optimized,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        // Queries slower than this leave a per-stage trace record in a
        // bounded ring of this capacity (see `ive_serve::trace`).
        slow_threshold: Duration::from_millis(250),
        trace_ring: 64,
        // Connections silent for this long are closed (and counted).
        idle_timeout: Some(Duration::from_secs(60)),
    };
    let transport = TcpTransport::bind("127.0.0.1:0")?;
    let addr = transport.local_addr();
    let service = PirService::start(config, &params, db, Box::new(transport))?;
    println!("serving on {}", service.endpoint());

    // Online: each client uploads its keys once (the Hello handshake),
    // then ships only small queries under its session id.
    std::thread::scope(|scope| {
        for c in 0..2u64 {
            let params = params.clone();
            let records = &records;
            scope.spawn(move || {
                let conn = ive::serve::tcp::connect(addr).expect("dial");
                let rng = rand::rngs::StdRng::seed_from_u64(c);
                let mut client =
                    Connection::new(conn).into_serve_client(&params, rng).expect("handshake");
                println!("client {c}: session {}", client.session_id());
                for q in 0..3u64 {
                    let target = (17 * c + 5 * q) as usize % records.len();
                    let got = client.retrieve(target).expect("retrieve");
                    assert_eq!(&got[..records[target].len()], &records[target][..]);
                    println!("client {c}: record {target} retrieved privately");
                }
            });
        }
    });

    // Live update: an updater (no keys, no session) replaces a record;
    // the committed epoch comes back in the ack and the very next query
    // sees the new contents — the database never stopped serving.
    let mut updater = Connection::new(ive::serve::tcp::connect(addr)?).into_update_client();
    let target = 42;
    let fresh = b"record #042: revised while serving".to_vec();
    let epoch = updater.put(target, fresh.clone())?;
    println!("updater: record {target} replaced at epoch {epoch}");

    // A self-healing reader: Connection::dial keeps the connector, so a
    // dead transport re-dials, re-Hellos, and resubmits transparently
    // under the (default) bounded-backoff retry policy.
    let connector = ive::serve::TcpConnector::new(addr)?;
    let mut reader = Connection::dial(connector)?
        .into_serve_client(&params, rand::rngs::StdRng::seed_from_u64(9))?;
    let got = reader.retrieve(target)?;
    assert_eq!(&got[..fresh.len()], &fresh[..]);
    println!("reader: updated record {target} retrieved privately");

    // Observability: scrape the live server over the same connection the
    // queries used — per-stage latency histograms, kernel op counters,
    // and the measured scan bandwidth, no restart and no side channel.
    let live = reader.stats()?;
    println!("live scrape: {live}");
    let exposition = live.to_prometheus();
    std::fs::write("pir_service_metrics.prom", &exposition)?;
    println!(
        "wrote pir_service_metrics.prom ({} metrics lines, {} stages sampled)",
        exposition.lines().filter(|l| !l.starts_with('#')).count(),
        live.stages.iter().filter(|s| s.count > 0).count(),
    );
    // What CI counts the exposition's `# TYPE … counter|gauge` lines
    // against: a table row that fails to reach the file fails the build.
    println!(
        "table declares {} counter/gauge series",
        ive::pir::wire::COUNTERS.iter().filter(|c| c.series.is_some()).count()
            + ive::serve::metrics::DERIVED_GAUGES.len(),
    );

    // Graceful drain: in-flight queries get up to five seconds to finish
    // before anything still queued is answered with a typed error.
    let stats = service.shutdown_deadline(Duration::from_secs(5));
    println!("{stats}");
    Ok(())
}
