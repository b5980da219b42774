//! `serve_demo` — drives the live serving runtime (`ive_serve`) with a
//! multi-threaded Poisson load generator and compares what it observes
//! against the analytic waiting-window model (`ive_accel::queue`,
//! Fig. 14b), then records the numbers to `BENCH_serve.json`.
//!
//! Two phases on the same database and load:
//!
//! 1. **single** — no batching (window 0, batch 1, one worker): the
//!    throughput ceiling is the reciprocal of the single-query latency.
//! 2. **batched** — a nonzero waiting window and a worker pool over a
//!    row-sharded database: batches amortize the scan and the ceiling
//!    moves far past the single-thread limit.
//!
//! Clients pipeline up to `--depth` queries per connection, so the
//! offered Poisson load stays open-loop until the pipeline fills and the
//! server's bounded queues push back.
//!
//! Every query leaves a per-stage trace span (the server runs with a
//! zero slow threshold), so the exit report breaks the measured mean
//! latency into decode / queue-wait / expand / row-sel / col-tor /
//! encode and compares the effective scan bandwidth against the CPU
//! roofline ceiling. `--stats-interval N` additionally polls the live
//! server over [`ive_serve::ServeClient::stats`] every N seconds while
//! the load runs — the same scrape a Prometheus exporter would issue.
//!
//! Usage: `serve_demo [--seconds 4] [--clients 8] [--qps 0 (auto)]
//! [--window-ms 10] [--max-batch 16] [--workers 2] [--shards 2]
//! [--rowsel-threads 1] [--depth 4]
//! [--backend auto|avx512|simd|optimized|scalar]
//! [--stats-interval 0] [--json-out BENCH_serve.json] [--tcp]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ive_accel::queue::{simulate_poisson, ServiceTable};
use ive_bench::fmt;
use ive_math::kernel::BackendKind;
use ive_pir::{Database, PirClient, PirParams, PirServer, TournamentOrder};
use ive_serve::config::{ServeConfig, ShardPlan};
use ive_serve::transport::{in_proc_pair, BoxedConn, InProcConnector};
use ive_serve::{Connection, PirService, ServerStats, Stage, TcpTransport};
use rand::{Rng, SeedableRng};

struct Args {
    seconds: f64,
    clients: usize,
    qps: f64,
    window_ms: u64,
    max_batch: usize,
    workers: usize,
    shards: usize,
    rowsel_threads: usize,
    depth: usize,
    backend: BackendKind,
    stats_interval: f64,
    json_out: String,
    tcp: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        seconds: 4.0,
        clients: 8,
        qps: 0.0,
        window_ms: 10,
        max_batch: 16,
        workers: 2,
        shards: 2,
        rowsel_threads: 1,
        depth: 4,
        backend: BackendKind::Auto,
        stats_interval: 0.0,
        json_out: "BENCH_serve.json".into(),
        tcp: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].strip_prefix("--").ok_or_else(|| format!("unexpected {:?}", argv[i]))?;
        if key == "tcp" {
            args.tcp = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).cloned().ok_or_else(|| format!("--{key} needs a value"))?;
        fn parsed<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("--{key} got a malformed value {value:?}"))
        }
        match key {
            "seconds" => args.seconds = parsed(key, &value)?,
            "clients" => args.clients = parsed(key, &value)?,
            "qps" => args.qps = parsed(key, &value)?,
            "window-ms" => args.window_ms = parsed(key, &value)?,
            "max-batch" => args.max_batch = parsed(key, &value)?,
            "workers" => args.workers = parsed(key, &value)?,
            "shards" => args.shards = parsed(key, &value)?,
            "rowsel-threads" => args.rowsel_threads = parsed(key, &value)?,
            "depth" => args.depth = parsed(key, &value)?,
            // BackendKind's FromStr names every valid variant on error.
            "backend" => args.backend = value.parse().map_err(|e| format!("{e}"))?,
            "stats-interval" => args.stats_interval = parsed(key, &value)?,
            "json-out" => args.json_out = value,
            other => return Err(format!("unknown flag --{other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// How clients reach the service: dialer closures over either transport.
enum Dialer {
    InProc(InProcConnector),
    Tcp(std::net::SocketAddr),
}

impl Dialer {
    fn connect(&self) -> BoxedConn {
        match self {
            Dialer::InProc(c) => c.connect().expect("in-proc dial"),
            Dialer::Tcp(addr) => ive_serve::tcp::connect(*addr).expect("tcp dial"),
        }
    }
}

/// Measured outcome of one load phase.
struct PhaseResult {
    offered_qps: f64,
    completed: u64,
    client_seconds: f64,
    stats: ServerStats,
    /// Mean per-query stage durations (ms), in [`Stage::ALL`] order,
    /// reconstructed from the trace spans every query left behind (the
    /// server runs with a zero slow threshold). Unlike the aggregate
    /// stage histograms — where shards sample independently and a batch
    /// amortizes one scan over many queries — each span is one query's
    /// actual wall-clock decomposition, so these means sum to
    /// approximately the measured mean end-to-end latency.
    span_stage_ms: [f64; Stage::COUNT],
    /// Mean end-to-end latency (ms) over the same spans.
    span_total_ms: f64,
}

impl PhaseResult {
    fn observed_qps(&self) -> f64 {
        self.completed as f64 / self.client_seconds
    }

    fn span_sum_ms(&self) -> f64 {
        self.span_stage_ms.iter().sum()
    }
}

/// Runs one service configuration under Poisson load from `clients`
/// threads for ~`seconds`, returning observed stats.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    label: &str,
    params: &PirParams,
    db: &Database,
    config: ServeConfig,
    tcp: bool,
    clients: usize,
    depth: usize,
    offered_qps: f64,
    seconds: f64,
    stats_interval: f64,
) -> PhaseResult {
    let (service, dialer) = if tcp {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr();
        let service = PirService::start(config, params, db.clone(), Box::new(transport))
            .expect("service starts");
        (service, Dialer::Tcp(addr))
    } else {
        let (transport, connector) = in_proc_pair();
        let service = PirService::start(config, params, db.clone(), Box::new(transport))
            .expect("service starts");
        (service, Dialer::InProc(connector))
    };

    let completed = Arc::new(AtomicU64::new(0));
    let per_client_qps = offered_qps / clients as f64;
    let started = Instant::now();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Optional live scraper: a dedicated connection polls GetStats
        // while the load runs, exactly as an external exporter would.
        if stats_interval > 0.0 {
            let dialer = &dialer;
            let params = params.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let rng = rand::rngs::StdRng::seed_from_u64(88_000);
                let mut client = Connection::new(dialer.connect())
                    .into_serve_client(&params, rng)
                    .expect("scraper handshake");
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_secs_f64(stats_interval));
                    match client.stats() {
                        Ok(live) => println!("[{label}][live] {live}"),
                        Err(e) => {
                            eprintln!("[{label}][live] scrape failed: {e}");
                            break;
                        }
                    }
                }
            });
        }
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let dialer = &dialer;
                let completed = Arc::clone(&completed);
                let params = params.clone();
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(77_000 + c as u64);
                    let mut client = Connection::new(dialer.connect())
                        .into_serve_client(&params, rng.clone())
                        .expect("handshake");
                    // Open-loop Poisson schedule: arrival times are fixed up
                    // front, and up to `depth` queries pipeline per
                    // connection; a slow server makes us burst to catch up
                    // rather than silently thinning the offered load.
                    let mut next_arrival = 0.0f64;
                    let horizon = Duration::from_secs_f64(seconds);
                    loop {
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        next_arrival += -u.ln() / per_client_qps;
                        let due = Duration::from_secs_f64(next_arrival);
                        if due > horizon {
                            break;
                        }
                        if let Some(wait) = due.checked_sub(started.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        while client.in_flight() >= depth {
                            client.next_record().expect("response");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        let target = rng.gen_range(0..params.num_records());
                        client.submit(target).expect("submit");
                    }
                    while client.in_flight() > 0 {
                        client.next_record().expect("response");
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        stop.store(true, Ordering::Relaxed);
    });
    let client_seconds = started.elapsed().as_secs_f64();

    // Per-query stage decomposition from the trace spans (zero slow
    // threshold: every served query left one record, ring permitting).
    let spans = service.engine().trace().slow_records();
    let mut span_stage_ms = [0.0f64; Stage::COUNT];
    let mut span_total_ms = 0.0f64;
    if !spans.is_empty() {
        let n = spans.len() as f64;
        for r in &spans {
            for (acc, &us) in span_stage_ms.iter_mut().zip(r.stage_us.iter()) {
                *acc += us as f64 / 1000.0 / n;
            }
            span_total_ms += r.total_us as f64 / 1000.0 / n;
        }
    }

    let stats = service.shutdown();
    println!("[{label}] {stats}");
    PhaseResult {
        offered_qps,
        completed: completed.load(Ordering::Relaxed),
        client_seconds,
        stats,
        span_stage_ms,
        span_total_ms,
    }
}

/// Calibrates a [`ServiceTable`] from direct engine timings: the analytic
/// model's input, measured on this machine instead of the paper's.
fn calibrate(params: &PirParams, db: &Database, max_batch: usize) -> (ServiceTable, f64, f64) {
    let server = PirServer::new(params, db.clone()).expect("geometry matches");
    let mut client = PirClient::new(params, rand::rngs::StdRng::seed_from_u64(1)).expect("keygen");
    let queries: Vec<_> =
        (0..max_batch).map(|i| client.query(i % params.num_records()).expect("query")).collect();
    let requests: Vec<_> = queries.iter().map(|q| (client.public_keys(), q)).collect();

    let time_batch = |b: usize| -> f64 {
        let t0 = Instant::now();
        server.answer_batch(&requests[..b]).expect("pipeline");
        t0.elapsed().as_secs_f64()
    };
    time_batch(1); // warm-up
                   // Min over a few runs: the noise on a busy host is one-sided.
    let t1 = (0..3).map(|_| time_batch(1)).fold(f64::INFINITY, f64::min);
    let tb = (0..3).map(|_| time_batch(max_batch)).fold(f64::INFINITY, f64::min);
    // Linear interpolation between the measured endpoints — the same
    // shape `ive_accel::queue` assumes (scan amortizes, per-query
    // tournament does not).
    let slope = if max_batch > 1 { (tb - t1) / (max_batch - 1) as f64 } else { 0.0 };
    (ServiceTable::from_fn(max_batch, |b| t1 + slope * (b - 1) as f64), t1, tb)
}

/// The span-based per-stage breakdown as a JSON object, stage name →
/// mean ms per query.
fn json_stages(p: &PhaseResult) -> String {
    let fields: Vec<String> = Stage::ALL
        .iter()
        .map(|&s| format!("\"{}\": {:.4}", s.name(), p.span_stage_ms[s as usize]))
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

/// Every raw server counter as a JSON object, `StatsReport` field name →
/// value: the rows of the one counter table, so a new counter reaches
/// the bench artifact without an edit here. All-zero self-healing
/// counters (`timeouts`, `retries`, `reconnects`, `worker_panics`) are
/// what a fault-free run looks like; a nonzero one flags real trouble.
fn json_counters(p: &PhaseResult) -> String {
    let fields: Vec<String> = ive_pir::wire::COUNTERS
        .iter()
        .zip(p.stats.counters())
        .map(|(def, value)| format!("\"{}\": {value}", def.name))
        .collect();
    format!("{{ {} }}", fields.join(", "))
}

fn json_phase(
    label: &str,
    p: &PhaseResult,
    cfg: &ServeConfig,
    predicted_latency_ms: f64,
    predicted_qps: f64,
) -> String {
    let shards = match cfg.shard {
        ShardPlan::Replicated => 1,
        ShardPlan::RowSharded { shards } => shards,
    };
    format!(
        concat!(
            "  \"{}\": {{\n",
            "    \"offered_qps\": {:.2},\n",
            "    \"observed_qps\": {:.2},\n",
            "    \"completed\": {},\n",
            // The thread plan this phase actually ran — without it a
            // "batched loses to single" readout on a small host is
            // indistinguishable from a real regression.
            "    \"workers\": {},\n",
            "    \"rowsel_threads\": {},\n",
            "    \"shards\": {},\n",
            "    \"queue_depth\": {},\n",
            "    \"counters\": {},\n",
            "    \"mean_latency_ms\": {:.3},\n",
            "    \"p95_latency_ms\": {:.3},\n",
            "    \"p999_latency_ms\": {:.3},\n",
            "    \"avg_batch\": {:.3},\n",
            "    \"max_batch\": {},\n",
            "    \"stage_ms\": {},\n",
            "    \"stage_sum_ms\": {:.3},\n",
            "    \"span_mean_latency_ms\": {:.3},\n",
            "    \"scan_gbps\": {:.3},\n",
            "    \"mults_per_s\": {:.3e},\n",
            "    \"predicted_latency_ms\": {:.3},\n",
            "    \"predicted_qps\": {:.2}\n",
            "  }}"
        ),
        label,
        p.offered_qps,
        p.observed_qps(),
        p.completed,
        cfg.workers,
        cfg.rowsel_threads,
        shards,
        cfg.queue_depth,
        json_counters(p),
        p.stats.mean_latency_ms,
        p.stats.p95_latency_ms,
        p.stats.p999_latency_ms,
        p.stats.avg_batch,
        p.stats.max_batch,
        json_stages(p),
        p.span_sum_ms(),
        p.span_total_ms,
        p.stats.scan_gbps,
        p.stats.mults_per_s,
        predicted_latency_ms,
        predicted_qps,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve_demo: {e}");
            std::process::exit(2);
        }
    };
    let params = PirParams::toy();
    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("demo record {i:04}").into_bytes()).collect();
    let db = Database::from_records(&params, &records).expect("records fit");
    let db_bytes = db.resident_bytes() as usize;
    let llc = ive_math::kernel::effective_llc_bytes();
    if db_bytes <= llc {
        eprintln!(
            "serve_demo: WARNING — preprocessed database ({:.1} MiB) fits in the {:.1} MiB LLC, \
             so the scan replays cache instead of streaming DRAM and scan_gbps will exceed any \
             memory roofline; the batching comparison stands, the bandwidth numbers do not \
             generalize to paper-scale databases.",
            db_bytes as f64 / (1 << 20) as f64,
            llc as f64 / (1 << 20) as f64
        );
    }

    println!(
        "calibrating service table (toy geometry: {} records x {}B) ...",
        params.num_records(),
        params.record_bytes()
    );
    let (table, t1, tb) = calibrate(&params, &db, args.max_batch);
    let single_limit = 1.0 / t1;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "single-query latency {:.2}ms, batch-{} latency {:.2}ms -> no-batching limit {:.1} QPS, \
         batched ceiling {:.1} QPS ({cores} core(s) available)",
        1e3 * t1,
        args.max_batch,
        1e3 * tb,
        single_limit,
        table.max_throughput_qps()
    );
    if cores == 1 {
        eprintln!(
            "warning: only 1 core is available, so the single and batched phases share it and \
             their observed QPS will roughly tie — the batching win needs parallelism. The core \
             count is recorded in the JSON (\"cores\"); read the comparison accordingly."
        );
    }

    // Offered load: default to 2x the no-batching limit — a saturating
    // profile, so the phases measure *capacity*: the single phase pins at
    // its ceiling while the batched worker pool absorbs the excess.
    let offered = if args.qps > 0.0 { args.qps } else { 2.0 * single_limit };
    let window = Duration::from_millis(args.window_ms);

    let single_cfg = ServeConfig {
        window: Duration::ZERO,
        max_batch: 1,
        workers: 1,
        queue_depth: 4 * args.clients.max(1),
        shard: ShardPlan::Replicated,
        rowsel_threads: 1,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: args.backend,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        // Zero threshold: every query leaves a span in the trace ring,
        // which the exit report averages into the stage breakdown.
        slow_threshold: Duration::ZERO,
        trace_ring: 16_384,
        idle_timeout: Some(Duration::from_secs(60)),
    };
    let batched_cfg = ServeConfig {
        window,
        max_batch: args.max_batch,
        workers: args.workers,
        queue_depth: 4 * args.max_batch,
        shard: if args.shards > 1 {
            ShardPlan::RowSharded { shards: args.shards }
        } else {
            ShardPlan::Replicated
        },
        rowsel_threads: args.rowsel_threads,
        order: TournamentOrder::Hs { subtree_depth: 2 },
        backend: args.backend,
        max_sessions: 64,
        accept_updates: true,
        compress_responses: false,
        journal: None,
        slow_threshold: Duration::ZERO,
        trace_ring: 16_384,
        idle_timeout: Some(Duration::from_secs(60)),
    };

    let single = run_phase(
        "single",
        &params,
        &db,
        single_cfg.clone(),
        args.tcp,
        args.clients,
        args.depth,
        offered,
        args.seconds,
        args.stats_interval,
    );
    let batched = run_phase(
        "batched",
        &params,
        &db,
        batched_cfg.clone(),
        args.tcp,
        args.clients,
        args.depth,
        offered,
        args.seconds,
        args.stats_interval,
    );

    // Analytic predictions at the same operating points. The model knows
    // one accelerator; approximate the worker pool by dividing service
    // latency by the *effective* worker count — workers beyond the
    // machine's cores cannot overlap. Under a saturating load the
    // model's unbounded queue inflates latency without bound while the
    // live clients cap in-flight work at `clients x depth`, so compare
    // throughput tightly and latency loosely.
    let worker_table = {
        let w = args.workers.clamp(1, cores) as f64;
        ServiceTable::from_fn(args.max_batch, |b| table.latency(b) / w)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1414);
    let n_sim = 20_000;
    let pred_single = simulate_poisson(&table, 0.0, 1, offered, n_sim, &mut rng);
    let pred_batched = simulate_poisson(
        &worker_table,
        window.as_secs_f64(),
        args.max_batch,
        offered,
        n_sim,
        &mut rng,
    );

    fmt::print_table(
        &format!(
            "serve_demo: observed vs ServiceTable-predicted ({} clients, {:.1} QPS offered, \
             window {}ms)",
            args.clients, offered, args.window_ms
        ),
        &[
            "phase",
            "obs QPS",
            "pred QPS",
            "obs lat (ms)",
            "pred lat (ms)",
            "obs avg batch",
            "pred avg batch",
        ],
        &[
            vec![
                "single".into(),
                fmt::f(single.observed_qps()),
                fmt::f(pred_single.served_qps),
                fmt::f(single.stats.mean_latency_ms),
                fmt::f(1e3 * pred_single.avg_latency_s),
                fmt::f(single.stats.avg_batch),
                fmt::f(pred_single.avg_batch),
            ],
            vec![
                "batched".into(),
                fmt::f(batched.observed_qps()),
                fmt::f(pred_batched.served_qps),
                fmt::f(batched.stats.mean_latency_ms),
                fmt::f(1e3 * pred_batched.avg_latency_s),
                fmt::f(batched.stats.avg_batch),
                fmt::f(pred_batched.avg_batch),
            ],
        ],
    );

    // Where does a query's time actually go? Per-stage means from the
    // trace spans; both phases should sum to ≈ their measured mean
    // latency (the residue is inter-stage hand-off the spans don't tag).
    let stage_rows: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|&s| {
            vec![
                s.name().into(),
                fmt::f(single.span_stage_ms[s as usize]),
                fmt::f(batched.span_stage_ms[s as usize]),
            ]
        })
        .chain([
            vec!["stage sum".into(), fmt::f(single.span_sum_ms()), fmt::f(batched.span_sum_ms())],
            vec![
                "measured e2e".into(),
                fmt::f(single.stats.mean_latency_ms),
                fmt::f(batched.stats.mean_latency_ms),
            ],
        ])
        .collect();
    fmt::print_table(
        "per-stage mean latency breakdown (ms/query, from trace spans)",
        &["stage", "single", "batched"],
        &stage_rows,
    );
    let cpu_roofline = ive_baselines::cpu::CpuModel::default();
    println!(
        "scan bandwidth: single {:.2} GB/s, batched {:.2} GB/s (32-core CPU roofline ceiling \
         {:.0} GB/s); kernel MACs/s: single {:.2e}, batched {:.2e} (ceiling {:.1e})",
        single.stats.scan_gbps,
        batched.stats.scan_gbps,
        cpu_roofline.bytes_per_s / 1e9,
        single.stats.mults_per_s,
        batched.stats.mults_per_s,
        cpu_roofline.mult_per_s,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_demo\",\n",
            "  \"cores\": {},\n",
            "  \"backend\": \"{}\",\n",
            "  \"backend_resolved\": \"{}\",\n",
            "  \"transport\": \"{}\",\n",
            "  \"geometry\": {{ \"records\": {}, \"record_bytes\": {} }},\n",
            "  \"calibration\": {{ \"t1_ms\": {:.3}, \"t_batch_ms\": {:.3}, ",
            "\"max_batch\": {}, \"no_batching_limit_qps\": {:.2}, ",
            "\"batched_ceiling_qps\": {:.2} }},\n",
            "  \"roofline\": {{ \"cpu_scan_gbps\": {:.1}, \"cpu_mults_per_s\": {:.3e} }},\n",
            "{},\n",
            "{},\n",
            "  \"batched_over_single_qps\": {:.3}\n",
            "}}\n"
        ),
        cores,
        args.backend,
        args.backend.backend().name(),
        if args.tcp { "tcp" } else { "in-proc" },
        params.num_records(),
        params.record_bytes(),
        1e3 * t1,
        1e3 * tb,
        args.max_batch,
        single_limit,
        table.max_throughput_qps(),
        cpu_roofline.bytes_per_s / 1e9,
        cpu_roofline.mult_per_s,
        json_phase(
            "single",
            &single,
            &single_cfg,
            1e3 * pred_single.avg_latency_s,
            pred_single.served_qps
        ),
        json_phase(
            "batched",
            &batched,
            &batched_cfg,
            1e3 * pred_batched.avg_latency_s,
            pred_batched.served_qps
        ),
        batched.observed_qps() / single.observed_qps().max(f64::EPSILON),
    );
    println!(
        "note: under a saturating load the analytic queue is unbounded while live clients cap \
         in-flight work at clients x depth = {}; throughput is the tight comparison. Client \
         crypto shares the same {cores} core(s), so observed QPS includes query-gen/decode \
         cost the model does not charge.",
        args.clients * args.depth
    );
    std::fs::write(&args.json_out, &json).expect("write json");
    println!("wrote {}", args.json_out);
}
