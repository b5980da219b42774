//! The four workloads and what they share: the run context, the fixed
//! serving configuration, seeded database construction and latency
//! bookkeeping.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ive_math::kernel;
use ive_pir::{BackendKind, Database, PirParams, TournamentOrder};
use ive_serve::config::{ServeConfig, ShardPlan};

use crate::json::Json;
use crate::report::Report;
use crate::trace::Recorder;
use crate::{gen, stats};

mod kv_mix_tcp;
mod paper_dram_direct;
mod probes;
mod serve_open_tcp;
mod serve_update_mix;
mod tcp_index;

/// The kernel backend every server and probe runs (resolved per host).
pub const BACKEND: BackendKind = BackendKind::Auto;

/// The `ColTor` order every server runs.
pub const ORDER: TournamentOrder = TournamentOrder::Hs { subtree_depth: 2 };

/// Set-ups per untraced run, `setup_s` being their median: at least
/// three, and more of a cheap one (up to 101, while they have taken less
/// than [`SETUP_BUDGET`] together) so that a set-up of milliseconds is
/// not at the mercy of one scheduling hiccup.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=101;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Share of `--seconds` a traced run spends in the workload's phases; the
/// rest of its time goes to the layer probes.
const TRACED_PHASE_SHARE: f64 = 0.6;

/// How long a closed loop on a service runs before it is timed, so that
/// connections, scratch space and caches are warm when timing starts.
const WARM_UP: Duration = Duration::from_secs(1);

/// Request ids of the untimed requests start here, apart from the timed.
const WARM_IDS: u64 = 1 << 32;

/// One run's inputs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Seconds-not-minutes smoke run: toy geometry everywhere, one set-up.
    pub quick: bool,
    pub rec: Recorder,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool, quick: bool) -> Self {
        Ctx { seed, seconds, traced, quick, rec: Recorder::new(traced) }
    }

    /// Time for the phase that takes `share` of the measured time.
    fn phase(&self, share: f64) -> Duration {
        let scale = if self.traced { TRACED_PHASE_SHARE } else { 1.0 };
        Duration::from_secs_f64(self.seconds * scale * share)
    }

    fn warm_up(&self) -> Duration {
        if self.quick {
            WARM_UP / 10
        } else {
            WARM_UP
        }
    }

    /// Median duration in milliseconds of the spans named `name`, with
    /// their count; `None` when none were recorded (an untraced run).
    fn span_median_ms(&self, name: &str) -> Option<(f64, usize)> {
        let d = self.rec.durations_ms(name);
        (!d.is_empty()).then(|| (stats::median(&d), d.len()))
    }
}

/// Runs one workload by name.
///
/// # Errors
/// Fails on an unknown name or when the system under test cannot be set
/// up at all; a request that fails during measurement is counted in the
/// report instead.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        paper_dram_direct::NAME => paper_dram_direct::run(ctx),
        serve_open_tcp::NAME => serve_open_tcp::run(ctx),
        serve_update_mix::NAME => serve_update_mix::run(ctx),
        kv_mix_tcp::NAME => kv_mix_tcp::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The configuration of every server under test, field by field, so that
/// a changed `ServeConfig::default()` cannot move the benchmark.
pub fn serve_config(accept_updates: bool, journal: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        window: Duration::from_millis(4),
        max_batch: 8,
        workers: 1,
        queue_depth: 64,
        shard: ShardPlan::Replicated,
        rowsel_threads: 1,
        order: ORDER,
        backend: BACKEND,
        max_sessions: 4096,
        accept_updates,
        compress_responses: false,
        journal,
        slow_threshold: Duration::from_millis(250),
        trace_ring: 64,
        idle_timeout: Some(Duration::from_secs(60)),
    }
}

/// The served index geometry: toy ring, paper shape (4096 × 512 B,
/// 24 MiB resident); smaller still for `--quick`.
fn served_params(quick: bool) -> PirParams {
    let (d0, dims) = if quick { (64, 2) } else { (256, 4) };
    PirParams::new(ive_he::HeParams::toy(), d0, dims).expect("served geometry is valid")
}

/// Geometry, resident bytes and their ratio to the LLC.
fn index_geometry(params: &PirParams) -> Json {
    let ring = params.he().ring();
    // Limb words as they sit in memory and as RowSel scans them (the
    // packed hardware layout, `preprocessed_db_bytes`, is smaller).
    let resident = (params.num_records() * ring.basis().len() * ring.n() * 8) as u64;
    Json::obj([
        ("ring_n", Json::from(params.he().n())),
        ("rns_limbs", Json::from(params.he().ring().basis().len())),
        ("d0", Json::from(params.d0())),
        ("dims", Json::from(u64::from(params.dims()))),
        ("records", Json::from(params.num_records())),
        ("record_bytes", Json::from(params.record_bytes())),
        ("resident_db_bytes", Json::from(resident)),
        ("resident_over_llc", Json::Num(resident as f64 / kernel::effective_llc_bytes() as f64)),
    ])
}

/// Generates every record at version 0 and preprocesses the database.
fn build_database(ctx: &Ctx, params: &PirParams) -> Result<Database, String> {
    let records: Vec<Vec<u8>> = (0..params.num_records())
        .map(|i| gen::record_bytes(ctx.seed, i, 0, params.record_bytes()))
        .collect();
    ctx.rec
        .span("pir.db.from_records", 0, || Database::from_records(params, &records))
        .map_err(|e| format!("database build: {e}"))
}

/// Sets the system up repeatedly (see [`SETUP_REPEATS`]; once when traced
/// or quick), dropping each before the next so that peak memory is that
/// of one, and returns the last with the median set-up time.
fn repeat_setup<T>(
    ctx: &Ctx,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let once = ctx.traced || ctx.quick;
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    loop {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= *SETUP_REPEATS.start() && started.elapsed() >= SETUP_BUDGET;
        if once || enough || times.len() == *SETUP_REPEATS.end() {
            break;
        }
    }
    report.set("setup_s", stats::median(&times), times.len());
    Ok(last.expect("at least one set-up"))
}

/// Latencies of one request stream, in milliseconds, with its outcome
/// counts. A failed request has no latency and counts in `failed`.
#[derive(Default)]
struct Outcomes {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Outcomes {
    fn record(&mut self, started: Instant, verified: bool) {
        self.attempted += 1;
        if verified {
            self.latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }

    fn verified(&self) -> usize {
        self.latencies_ms.len()
    }

    fn add_counts_to(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
    }

    /// Sets the two metrics to the median and the p90. With no verified
    /// request they stay unset, and a run that needs them fails on that.
    fn set_latency(&self, report: &mut Report, p50: &'static str, p90: &'static str) {
        if self.latencies_ms.is_empty() {
            return;
        }
        let sorted = stats::sorted(&self.latencies_ms);
        report.set(p50, stats::percentile(&sorted, 50.0), sorted.len());
        report.set(p90, stats::percentile(&sorted, 90.0), sorted.len());
    }
}

/// Repeats `f` until `budget` has passed, and at least `min_iters` times.
fn run_for(budget: Duration, min_iters: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut iters = 0;
    while iters < min_iters || start.elapsed() < budget {
        f();
        iters += 1;
    }
}

/// Calls `f(tick)` at `start + tick × period` for tick 1, 2, … — a fixed
/// schedule, so a slow call does not push the later ones back — until
/// `stop` is set. The writer threads of the mixed workloads run on this.
fn every(period: Duration, stop: &std::sync::atomic::AtomicBool, mut f: impl FnMut(u32)) {
    let start = Instant::now();
    for tick in 1u32.. {
        let due = start + period * tick;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        // Relaxed: the flag publishes nothing but itself.
        if stop.load(std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        f(tick);
    }
}

/// Final figures every workload reports the same way.
fn finish(ctx: &Ctx, report: &mut Report) {
    probes::derive(ctx, report);
    if let Some(mib) = crate::host::peak_rss_mib() {
        report.set("peak_rss_mib", mib, 1);
    }
    report.set("failed_share", report.failed_share(), report.attempted as usize);
}
