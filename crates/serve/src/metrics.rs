//! Serving metrics: request latency histogram, QPS, batch-size
//! distribution, queue depth, per-stage timings, and kernel op rates —
//! the live counterpart of the analytic load–latency curves in
//! `ive_accel::queue` (Fig. 14b).
//!
//! [`Metrics`] owns the raw lock-free counters plus the shared
//! [`TraceRecorder`]; `Metrics::report` freezes everything into the
//! integer-only wire payload ([`StatsReport`]), and [`ServerStats`]
//! derives every rate and quantile from that payload — so a stats
//! snapshot computed in-process and one scraped over a
//! [`wire::Tag::GetStats`](ive_pir::wire::Tag::GetStats) round-trip run
//! the exact same arithmetic.
//!
//! No counter is declared here: the atomics behind [`Metrics`], the
//! Prometheus series and the `Display` rows are all generated from, or
//! iterate, the one table in
//! [`ive_pir::stats_counters!`](ive_pir::stats_counters).

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ive_math::metrics::OpSnapshot;
use ive_pir::wire::{StageReport, StatsReport, COUNTERS};

use crate::trace::{duration_us, Stage, TraceRecorder};

/// Number of log₂ latency buckets: bucket `i` counts requests whose
/// end-to-end latency lies in `[2^i, 2^(i+1))` microseconds; 40 buckets
/// reach ~12 days, far beyond any sane request.
const LATENCY_BUCKETS: usize = 40;

/// Generates [`EventCounters`] — one atomic per `event` row of the table
/// — by walking the rows and keeping those names.
macro_rules! event_counters {
    (head { $($head:tt)* } tail { $($tail:tt)* }) => {
        event_counters!(@rows [] $($head)* $($tail)*);
    };
    (@rows [$($kept:ident)*] $name:ident: event, $exp:tt, $help:literal; $($rest:tt)*) => {
        event_counters!(@rows [$($kept)* $name] $($rest)*);
    };
    (@rows [$($kept:ident)*] $name:ident: sampled, $exp:tt, $help:literal; $($rest:tt)*) => {
        event_counters!(@rows [$($kept)*] $($rest)*);
    };
    (@rows [$($name:ident)*]) => {
        /// The counters [`Metrics`] accumulates itself, named as in the
        /// [`StatsReport`] they are loaded into.
        #[derive(Debug, Default)]
        pub(crate) struct EventCounters {
            $(pub(crate) $name: AtomicU64,)*
        }

        impl EventCounters {
            /// Each counter beside its [`StatsReport`] field name.
            #[cfg(test)]
            fn each(&self) -> impl Iterator<Item = (&'static str, &AtomicU64)> {
                [$((stringify!($name), &self.$name)),*].into_iter()
            }

            fn load_into(&self, report: &mut StatsReport) {
                $(report.$name = self.$name.load(Relaxed);)*
            }
        }
    };
}

ive_pir::stats_counters!(event_counters);

/// Lock-free accumulation of serving statistics. One instance is shared
/// by the connection handlers, the batcher, and the workers; the
/// embedded [`TraceRecorder`] is additionally shared with the engine.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    events: EventCounters,
    latency: [AtomicU64; LATENCY_BUCKETS],
    /// LRU evictions in the session cache. Behind an `Arc` because the
    /// [`crate::SessionManager`] increments it directly (the cache does
    /// not otherwise know the metrics plane).
    session_evictions: Arc<AtomicU64>,
    /// Kernel op counters at creation: the process-global counters in
    /// [`ive_math::metrics`] may already carry preprocessing work, so
    /// snapshots report the delta attributable to this service.
    ops_base: OpSnapshot,
    trace: Arc<TraceRecorder>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters with a default [`TraceRecorder`]; the uptime clock
    /// starts now.
    pub(crate) fn new() -> Self {
        Self::with_trace(Arc::new(TraceRecorder::new()))
    }

    /// Fresh counters around an existing recorder — the service wires
    /// the same recorder into the engine so every layer's stage samples
    /// land in one place.
    pub fn with_trace(trace: Arc<TraceRecorder>) -> Self {
        Metrics {
            started: Instant::now(),
            events: EventCounters::default(),
            latency: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            session_evictions: Arc::default(),
            ops_base: ive_math::metrics::snapshot(),
            trace,
        }
    }

    /// The shared per-stage recorder.
    pub(crate) fn trace(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// Counts one occurrence of a single-counter event where it happens:
    /// `metrics.bump(|c| &c.retries)`. Events that move several counters
    /// together have their own methods below.
    pub(crate) fn bump(&self, counter: impl FnOnce(&EventCounters) -> &AtomicU64) {
        counter(&self.events).fetch_add(1, Relaxed);
    }

    /// One update batch of `applied` deltas committed as `epoch`.
    pub fn update_committed(&self, applied: usize, epoch: u64) {
        self.events.update_batches.fetch_add(1, Relaxed);
        self.events.updates_applied.fetch_add(applied as u64, Relaxed);
        self.events.epoch.fetch_max(epoch, Relaxed);
    }

    /// A query entered the waiting queue.
    pub fn job_enqueued(&self) {
        let depth = self.events.queue_depth.fetch_add(1, Relaxed) + 1;
        self.events.queue_depth_max.fetch_max(depth, Relaxed);
    }

    /// A query left the waiting queue (joined a batch).
    pub fn job_dequeued(&self) {
        self.events.queue_depth.fetch_sub(1, Relaxed);
    }

    /// The session-eviction counter, shared with the session cache: the
    /// service hands this to
    /// [`SessionManager::new`](crate::SessionManager::new)
    /// so LRU evictions surface in every stats snapshot.
    pub(crate) fn session_eviction_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.session_evictions)
    }

    /// A batch of `size` queries dispatched to a worker.
    pub fn batch_dispatched(&self, size: usize) {
        self.events.batches.fetch_add(1, Relaxed);
        self.events.batch_query_sum.fetch_add(size as u64, Relaxed);
        self.events.max_batch.fetch_max(size as u64, Relaxed);
        self.events.batches_multi.fetch_add(u64::from(size > 1), Relaxed);
    }

    /// One query finished successfully after the given end-to-end latency
    /// (enqueue → response frame handed to the transport).
    pub fn query_done(&self, latency: Duration) {
        self.events.queries.fetch_add(1, Relaxed);
        let us = duration_us(latency);
        let bucket = (us.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Relaxed);
        self.events.latency_sum_us.fetch_add(us, Relaxed);
        self.events.latency_max_us.fetch_max(us, Relaxed);
    }

    /// One query failed server-side.
    pub fn query_failed(&self) {
        self.bump(|c| &c.errors);
    }

    /// Freezes every counter — including the stage histograms, kernel op
    /// deltas, and scan accounting — into the integer-only wire payload
    /// a [`wire::Tag::StatsResponse`](ive_pir::wire::Tag::StatsResponse)
    /// frame carries: the `sampled` rows of the table are read from
    /// their owners here, the `event` rows from `EventCounters`.
    pub(crate) fn report(&self) -> StatsReport {
        let ops = ive_math::metrics::snapshot().delta_since(&self.ops_base);
        let mut report = StatsReport {
            uptime_us: duration_us(self.started.elapsed()),
            latency_buckets: self.latency.iter().map(|b| b.load(Relaxed)).collect(),
            stages: self.trace.stage_stats(),
            residue_ntts: ops.residue_ntts,
            pointwise_macs: ops.pointwise_macs,
            icrt_coeffs: ops.icrt_coeffs,
            auto_coeffs: ops.auto_coeffs,
            scan_bytes: self.trace.scan_bytes(),
            scan_ns: self.trace.scan_ns(),
            slow_queries: self.trace.slow_seen(),
            session_evictions: self.session_evictions.load(Relaxed),
            ..StatsReport::default()
        };
        self.events.load_into(&mut report);
        report
    }

    /// A consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats::from_report(&self.report())
    }
}

/// The value (ms) below which `q` of the histogram mass lies. Within the
/// matching log₂ bucket the quantile is resolved by *geometric*
/// interpolation — bucket `[2^i, 2^(i+1))` µs at rank fraction `f`
/// yields `2^i · 2^f` — instead of the bucket's upper edge (which
/// overstated the median by up to 2×). The clamp to the true observed
/// maximum stays: a coarse bucket's interpolated value can still exceed
/// every real sample.
fn quantile_from_log2_buckets(buckets: &[u64], q: f64, max_ms: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if seen + count >= target {
            let lo_us = (1u128 << i) as f64;
            let frac = (target - seen) as f64 / count as f64;
            return (lo_us * 2f64.powf(frac) / 1000.0).min(max_ms);
        }
        seen += count;
    }
    max_ms
}

/// `num / den`, or 0 while nothing has been counted yet.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A point-in-time view of the serving counters: the raw
/// [`StatsReport`] — whether read in-process or scraped over the wire —
/// plus every rate and quantile derived from it. The report's counters
/// and histograms read as fields of the snapshot (`stats.queries`,
/// `stats.busy_rejections`, `stats.stages`) through `Deref`, so a counter
/// added to the table is visible here without an edit.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    report: StatsReport,
    /// Mean dispatched batch size.
    pub avg_batch: f64,
    /// Served queries per second of uptime.
    pub qps: f64,
    /// Mean end-to-end latency (enqueue → response framed), ms.
    pub mean_latency_ms: f64,
    /// Median latency (log-interpolated within the matching bucket), ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile latency (log-interpolated), ms.
    pub p95_latency_ms: f64,
    /// 99th-percentile latency (log-interpolated), ms.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile latency (log-interpolated), ms — the tail the
    /// waiting-window analysis (Fig. 14b) trades mean latency for.
    pub p999_latency_ms: f64,
    /// Worst observed latency, ms.
    pub max_latency_ms: f64,
    /// High-water mark of the waiting queue (`queue_depth_max`).
    pub max_queue_depth: usize,
    /// Seconds since the metrics were created.
    pub uptime_s: f64,
    /// Modular multiply-accumulates per second of uptime — the measured
    /// counterpart of the roofline device's `mult_per_s` axis.
    pub mults_per_s: f64,
    /// Effective `RowSel` scan bandwidth, GB/s (bytes over the scans'
    /// wall time) — compare against the DRAM roofline ceiling.
    pub scan_gbps: f64,
}

impl Deref for ServerStats {
    type Target = StatsReport;

    fn deref(&self) -> &StatsReport {
        &self.report
    }
}

/// A gauge derived from a snapshot: series name, `HELP` text, value.
pub(crate) type DerivedGauge = (&'static str, &'static str, fn(&ServerStats) -> f64);

/// The gauges [`ServerStats::to_prometheus`] derives rather than reads
/// off a table row.
pub const DERIVED_GAUGES: [DerivedGauge; 4] = [
    ("ive_uptime_seconds", "Seconds since metrics creation.", |s| s.uptime_s),
    ("ive_qps", "Served queries per second of uptime.", |s| s.qps),
    ("ive_scan_gbps", "Effective RowSel scan bandwidth, GB/s.", |s| s.scan_gbps),
    ("ive_kernel_mults_per_s", "Modular MACs per second of uptime.", |s| s.mults_per_s),
];

impl ServerStats {
    /// Derives every rate and quantile from a raw report — the single
    /// arithmetic shared by in-process snapshots and wire scrapes. The
    /// stage vector is padded (or cut) to this build's [`Stage::COUNT`],
    /// so [`ServerStats::stage`] holds for a report from any peer.
    pub(crate) fn from_report(report: &StatsReport) -> ServerStats {
        let mut report = report.clone();
        report.stages.resize_with(Stage::COUNT, StageReport::default);
        let uptime_s = report.uptime_us as f64 / 1e6;
        let queries = report.queries as f64;
        let max_ms = report.latency_max_us as f64 / 1000.0;
        let quantile = |q| quantile_from_log2_buckets(&report.latency_buckets, q, max_ms);
        ServerStats {
            avg_batch: ratio(report.batch_query_sum as f64, report.batches as f64),
            qps: ratio(queries, uptime_s),
            mean_latency_ms: ratio(report.latency_sum_us as f64, queries) / 1000.0,
            p50_latency_ms: quantile(0.50),
            p95_latency_ms: quantile(0.95),
            p99_latency_ms: quantile(0.99),
            p999_latency_ms: quantile(0.999),
            max_latency_ms: max_ms,
            max_queue_depth: report.queue_depth_max as usize,
            uptime_s,
            mults_per_s: ratio(report.pointwise_macs as f64, uptime_s),
            scan_gbps: ratio(report.scan_bytes as f64, report.scan_ns as f64),
            report,
        }
    }

    /// The histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &StageReport {
        &self.stages[stage as usize]
    }

    /// Sum of the mean per-sample stage durations (ms) over the stages a
    /// served query passes through — the breakdown whose total should
    /// approximate the measured mean end-to-end latency.
    pub fn stage_sum_ms(&self) -> f64 {
        use Stage::{ColTor, Compress, Decode, Encode, Expand, QueueWait, RowSel};
        let served = [Decode, QueueWait, Expand, RowSel, ColTor, Compress, Encode];
        let sum_us: u64 = served.iter().map(|&s| self.stage(s).sum_us).sum();
        ratio(sum_us as f64, self.queries as f64) / 1000.0
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one counter or gauge per exposed row of the table, the
    /// [`DERIVED_GAUGES`], and the log₂ histograms as cumulative buckets
    /// (each `le` edge is a power-of-two µs).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut scalar = |name: &str, help: &str, kind: &str, value: &dyn core::fmt::Display| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"));
        };
        for (def, value) in COUNTERS.iter().zip(self.counters()) {
            if let Some((name, kind)) = def.series {
                scalar(name, def.help, kind, &value);
            }
        }
        for (name, help, value) in DERIVED_GAUGES {
            scalar(name, help, "gauge", &value(self));
        }
        out.push_str(
            "# HELP ive_latency_us End-to-end query latency, microseconds.\n\
             # TYPE ive_latency_us histogram\n",
        );
        // The end-to-end histogram, in the shape of a stage's.
        let latency = StageReport {
            count: self.latency_buckets.iter().sum(),
            sum_us: self.latency_sum_us,
            buckets: self.latency_buckets.clone(),
            ..StageReport::default()
        };
        write_histogram_series(&mut out, "ive_latency_us", None, &latency);
        out.push_str(
            "# HELP ive_stage_duration_us Per-stage pipeline duration, microseconds.\n\
             # TYPE ive_stage_duration_us histogram\n",
        );
        for (stage, hist) in Stage::ALL.iter().zip(&self.stages) {
            write_histogram_series(&mut out, "ive_stage_duration_us", Some(stage.name()), hist);
        }
        out
    }
}

/// Emits one histogram series: cumulative `_bucket` lines up to the last
/// occupied log₂ bucket, then `+Inf`, `_sum`, and `_count`.
fn write_histogram_series(out: &mut String, name: &str, stage: Option<&str>, hist: &StageReport) {
    let label = |le: &str| match stage {
        Some(s) => format!("{{stage=\"{s}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let plain = stage.map_or(String::new(), |s| format!("{{stage=\"{s}\"}}"));
    let last = hist.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &b) in hist.buckets.iter().take(last).enumerate() {
        cumulative += b;
        let edge = (1u128 << (i + 1)).to_string();
        out.push_str(&format!("{name}_bucket{} {cumulative}\n", label(&edge)));
    }
    out.push_str(&format!("{name}_bucket{} {}\n", label("+Inf"), hist.count));
    out.push_str(&format!("{name}_sum{plain} {}\n", hist.sum_us));
    out.push_str(&format!("{name}_count{plain} {}\n", hist.count));
}

/// The derived headline, then every row of the table as `name value`.
impl core::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} queries in {:.1}s = {:.1} QPS | avg batch {:.2} | latency ms: mean {:.1} \
             p50 {:.1} p95 {:.1} p99 {:.1} p999 {:.1} max {:.1} | scan {:.2} GB/s | {:.2e} MACs/s",
            self.queries,
            self.uptime_s,
            self.qps,
            self.avg_batch,
            self.mean_latency_ms,
            self.p50_latency_ms,
            self.p95_latency_ms,
            self.p99_latency_ms,
            self.p999_latency_ms,
            self.max_latency_ms,
            self.scan_gbps,
            self.mults_per_s,
        )?;
        COUNTERS.iter().zip(self.counters()).try_for_each(|(c, v)| write!(f, " | {} {v}", c.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value `report` carries for the table row called `name`.
    fn counter(report: &StatsReport, name: &str) -> u64 {
        let at = COUNTERS.iter().position(|c| c.name == name).expect("declared in the table");
        report.counters()[at]
    }

    #[test]
    fn every_event_counter_reaches_the_report_under_its_own_name() {
        let m = Metrics::new();
        for (i, (name, cell)) in m.events.each().enumerate() {
            assert_eq!(counter(&m.report(), name), 0, "{name} must start at zero");
            cell.fetch_add(i as u64 + 1, Relaxed);
        }
        let report = m.report();
        for (i, (name, _)) in m.events.each().enumerate() {
            assert_eq!(counter(&report, name), i as u64 + 1, "{name} is cross-wired");
        }
        // The rest of the table is sampled from its owner, not counted here.
        let sampled = COUNTERS.len() - m.events.each().count();
        assert_eq!(sampled, 9, "uptime, 4 kernel ops, 2 scan, slow queries, evictions");
        m.bump(|c| &c.retries);
        assert_eq!(m.report().retries, report.retries + 1);
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.job_enqueued();
        m.job_enqueued();
        m.job_dequeued();
        m.batch_dispatched(1);
        m.batch_dispatched(3);
        m.query_done(Duration::from_millis(2));
        m.query_done(Duration::from_millis(40));
        m.query_failed();
        m.session_eviction_counter().fetch_add(3, Relaxed);
        m.update_committed(5, 1);
        m.update_committed(2, 2);
        let s = m.snapshot();
        assert_eq!(s.session_evictions, 3);
        assert_eq!(s.queries, 2);
        assert_eq!(s.update_batches, 2);
        assert_eq!(s.updates_applied, 7);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.batches_multi, 1);
        assert!((s.avg_batch - 2.0).abs() < 1e-9);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.max_queue_depth, 2);
        assert!(s.mean_latency_ms > 1.0 && s.mean_latency_ms < 41.0);
        assert!(s.p50_latency_ms >= 2.0);
        assert!(s.p99_latency_ms >= s.p50_latency_ms);
        assert!(s.p999_latency_ms >= s.p99_latency_ms);
        assert!(s.max_latency_ms >= s.p999_latency_ms);
        assert!(s.max_latency_ms >= 40.0);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 2);
        // `Display` leads with the derived headline and lists every row.
        let text = s.to_string();
        assert!(text.starts_with("2 queries"), "{text}");
        for (def, value) in COUNTERS.iter().zip(s.counters()) {
            assert!(text.contains(&format!(" | {} {value}", def.name)), "{} missing", def.name);
        }
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.queries, 0);
        assert_eq!(s.avg_batch, 0.0);
        assert_eq!(s.p99_latency_ms, 0.0);
        assert_eq!(s.p999_latency_ms, 0.0);
        assert_eq!(s.scan_gbps, 0.0);
        assert_eq!(s.slow_queries, 0);
        assert_eq!(s.stages.len(), Stage::COUNT);
    }

    #[test]
    fn quantiles_log_interpolate_within_the_matching_bucket() {
        // Three samples, all landing in bucket 10 ([1024, 2048) µs): the
        // quantile must interpolate geometrically by rank fraction, not
        // snap to the 2048 µs upper edge.
        let m = Metrics::new();
        m.query_done(Duration::from_micros(1200));
        m.query_done(Duration::from_micros(1500));
        m.query_done(Duration::from_micros(2000));
        let s = m.snapshot();
        // p50: target rank 2 of 3 → fraction 2/3 → 1024·2^(2/3) µs.
        let expect_p50 = 1.024 * 2f64.powf(2.0 / 3.0);
        assert!(
            (s.p50_latency_ms - expect_p50).abs() < 1e-9,
            "p50 {} != interpolated {expect_p50}",
            s.p50_latency_ms
        );
        assert!(s.p50_latency_ms < 2.048, "must not report the bucket's upper edge");
        // The tail interpolates to the bucket edge (2.048 ms) but clamps
        // to the true observed maximum (2.0 ms), never past a real sample.
        assert!((s.p999_latency_ms - 2.0).abs() < 1e-9);
        assert!((s.max_latency_ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_match_exact_ranks_across_buckets() {
        // Ten samples spread over three buckets; every quantile resolves
        // inside the bucket holding its exact rank.
        let m = Metrics::new();
        for _ in 0..5 {
            m.query_done(Duration::from_micros(100)); // bucket 6 [64,128)
        }
        for _ in 0..4 {
            m.query_done(Duration::from_micros(1000)); // bucket 9 [512,1024)
        }
        m.query_done(Duration::from_micros(30_000)); // bucket 14 [16384,32768)
        let s = m.snapshot();
        // p50 → rank 5 of 10 → last of bucket 6 → 64·2^(5/5) = 128 µs.
        assert!((s.p50_latency_ms - 0.128).abs() < 1e-9, "p50 {}", s.p50_latency_ms);
        // p90 would be rank 9 → bucket 9's last → 1.024 ms; p95 → rank 10
        // → bucket 14 at fraction 1 → 32.768 ms, clamped to the 30 ms max.
        assert!((s.p95_latency_ms - 30.0).abs() < 1e-9, "p95 {}", s.p95_latency_ms);
        assert!(s.p50_latency_ms <= s.p95_latency_ms);
    }

    #[test]
    fn snapshot_round_trips_through_the_wire_report() {
        let m = Metrics::new();
        m.query_done(Duration::from_millis(3));
        m.batch_dispatched(1);
        m.trace().record(Stage::RowSel, Duration::from_micros(700));
        m.trace().record_scan(1 << 20, Duration::from_micros(500));
        let report = m.report();
        let direct = ServerStats::from_report(&report);
        // The wire carries the report bit-exactly (tested in ive_pir);
        // here: deriving twice from the same report is identical, and the
        // derived stage/scan numbers are faithful.
        assert_eq!(direct, ServerStats::from_report(&report));
        assert_eq!(direct.stage(Stage::RowSel).count, 1);
        assert_eq!(direct.stage(Stage::RowSel).sum_us, 700);
        assert_eq!(direct.scan_bytes, 1 << 20);
        // 1 MiB in 500 µs ≈ 2.097 GB/s.
        assert!((direct.scan_gbps - (1u64 << 20) as f64 / 500_000.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_exposition_golden_format() {
        // A hand-built snapshot with every derived field pinned, so the
        // exposition text is fully deterministic.
        let report = StatsReport {
            queries: 4,
            errors: 1,
            batches: 2,
            batch_query_sum: 4,
            batches_multi: 1,
            max_batch: 3,
            queue_depth: 1,
            queue_depth_max: 2,
            update_batches: 1,
            updates_applied: 5,
            epoch: 1,
            uptime_us: 2_000_000,
            latency_sum_us: 8_000,
            latency_max_us: 3_000,
            latency_buckets: {
                let mut b = vec![0u64; 40];
                b[10] = 3; // [1024, 2048) µs
                b[11] = 1; // [2048, 4096) µs
                b
            },
            stages: {
                let mut stages = vec![StageReport::default(); Stage::COUNT];
                stages[Stage::RowSel as usize] =
                    StageReport { count: 2, sum_us: 600, max_us: 400, buckets: vec![0; 32] };
                stages[Stage::RowSel as usize].buckets[8] = 2; // [256, 512) µs
                stages
            },
            residue_ntts: 10,
            pointwise_macs: 2_000_000,
            icrt_coeffs: 20,
            auto_coeffs: 30,
            scan_bytes: 4_000_000_000,
            scan_ns: 2_000_000_000,
            slow_queries: 1,
            busy_rejections: 6,
            session_evictions: 9,
            timeouts: 2,
            retries: 7,
            reconnects: 3,
            worker_panics: 1,
            drained_jobs: 8,
        };
        let text = ServerStats::from_report(&report).to_prometheus();
        // Every exposed row of the table, and every derived gauge, is
        // declared exactly once, with its kind; no series is declared
        // twice.
        let declared = COUNTERS.iter().filter_map(|c| c.series);
        let derived = DERIVED_GAUGES.iter().map(|&(name, _, _)| (name, "gauge"));
        for (name, kind) in declared.chain(derived) {
            let line = format!("# TYPE {name} {kind}\n");
            assert_eq!(text.matches(&line).count(), 1, "{name} must be declared once as a {kind}");
        }
        let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let total = types.len();
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), total, "a series is declared twice");
        for needle in [
            "# TYPE ive_queries_total counter\nive_queries_total 4\n",
            "# TYPE ive_errors_total counter\nive_errors_total 1\n",
            "ive_slow_queries_total 1\n",
            "ive_kernel_pointwise_macs_total 2000000\n",
            "ive_scan_bytes_total 4000000000\n",
            "# TYPE ive_busy_rejections_total counter\nive_busy_rejections_total 6\n",
            "# TYPE ive_session_evictions_total counter\nive_session_evictions_total 9\n",
            "# TYPE ive_timeouts_total counter\nive_timeouts_total 2\n",
            "# TYPE ive_retries_total counter\nive_retries_total 7\n",
            "# TYPE ive_reconnects_total counter\nive_reconnects_total 3\n",
            "# TYPE ive_worker_panics_total counter\nive_worker_panics_total 1\n",
            "# TYPE ive_drained_jobs_total counter\nive_drained_jobs_total 8\n",
            "# TYPE ive_queue_depth gauge\nive_queue_depth 1\n",
            "ive_uptime_seconds 2\n",
            "ive_qps 2\n",
            "ive_scan_gbps 2\n",
            "ive_kernel_mults_per_s 1000000\n",
            "# TYPE ive_latency_us histogram\n",
            "ive_latency_us_bucket{le=\"2048\"} 3\n",
            "ive_latency_us_bucket{le=\"4096\"} 4\n",
            "ive_latency_us_bucket{le=\"+Inf\"} 4\n",
            "ive_latency_us_sum 8000\n",
            "ive_latency_us_count 4\n",
            "# TYPE ive_stage_duration_us histogram\n",
            "ive_stage_duration_us_bucket{stage=\"row_sel\",le=\"512\"} 2\n",
            "ive_stage_duration_us_bucket{stage=\"row_sel\",le=\"+Inf\"} 2\n",
            "ive_stage_duration_us_sum{stage=\"row_sel\"} 600\n",
            "ive_stage_duration_us_count{stage=\"row_sel\"} 2\n",
            "ive_stage_duration_us_bucket{stage=\"decode\",le=\"+Inf\"} 0\n",
        ] {
            assert!(text.contains(needle), "exposition missing:\n{needle}\nfull text:\n{text}");
        }
        // The histogram's `_sum` is the raw microsecond sum, not the mean
        // multiplied back out: 1 003 µs over 7 queries stays 1 003.
        let odd = StatsReport { queries: 7, latency_sum_us: 1_003, ..report };
        let odd = ServerStats::from_report(&odd).to_prometheus();
        assert!(odd.contains("ive_latency_us_sum 1003\n"), "float round trip lost microseconds");
        // Cumulative buckets stop at the last occupied edge: no stray
        // empty-edge lines between the data and +Inf.
        assert!(!text.contains("le=\"8192\""));
        // Every line is a comment or `name[{labels}] value` — the format
        // a Prometheus scraper parses.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.splitn(2, ' ').count() == 2,
                "unparseable line: {line}"
            );
        }
    }
}
