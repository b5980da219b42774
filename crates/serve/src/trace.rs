//! Per-stage tracing: lock-free log₂ stage histograms, span timers, and
//! a bounded ring of recent slow-query trace records.
//!
//! The pipeline stages a query passes through are a fixed taxonomy
//! ([`Stage`]); every instrumentation point in the serving stack records
//! durations into one shared [`TraceRecorder`] — plain relaxed atomics,
//! so the hot path pays a clock read and a handful of `fetch_add`s per
//! stage, never a lock. A [`Span`] is the thread-local complement: a
//! plain per-query stage vector the batcher assembles so queries slower
//! than [`TraceRecorder::slow_threshold`] leave a full breakdown in the
//! slow-query ring.
//!
//! The recorder also accumulates the `RowSel` scan's byte traffic (the
//! scanned database's `Database::resident_bytes()`, 4 B per stored word,
//! per pass) against wall time, which is what [`crate::ServerStats`] divides
//! into the effective scan GB/s compared against the DRAM roofline in
//! the benches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ive_pir::wire::StageReport;

/// Number of log₂ buckets per stage histogram: bucket `i` counts
/// durations in `[2^i, 2^(i+1))` microseconds; 32 buckets reach ~71
/// minutes, far beyond any sane stage.
pub(crate) const STAGE_BUCKETS: usize = 32;

/// Default slow-query threshold: queries slower than this leave a trace
/// record in the ring.
pub(crate) const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// Default capacity of the slow-query ring.
pub(crate) const DEFAULT_SLOW_RING: usize = 64;

/// The fixed stage taxonomy of one query's life (and of the update
/// path's two durability stages). The discriminants index the recorder's
/// histogram array and the wire-level stage vector, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Wire-frame decode on the connection handler.
    Decode = 0,
    /// Waiting-window + queue time between enqueue and batch dispatch.
    QueueWait = 1,
    /// The automorphism/key-switch stage: `ExpandQuery` (deriving the
    /// `D0` one-hot ciphertexts) on the index plane, the trace on the
    /// keyword plane.
    Expand = 2,
    /// The streaming database scan (one pass per batch; on the keyword
    /// plane, one slot query's plaintext products).
    RowSel = 3,
    /// The selection-bit tournament of every query of the batch (on the
    /// keyword plane, of the one slot query).
    ColTor = 4,
    /// Response modulus-switch (`compress_responses` only).
    Compress = 5,
    /// Response wire-frame encode.
    Encode = 6,
    /// Journal append + fsync on the update ingest path.
    JournalFsync = 7,
    /// Epoch commit: clone-apply-swap of the touched row pages.
    EpochCommit = 8,
}

impl Stage {
    /// Number of stages in the taxonomy.
    pub(crate) const COUNT: usize = 9;

    /// Every stage, in discriminant order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Decode,
        Stage::QueueWait,
        Stage::Expand,
        Stage::RowSel,
        Stage::ColTor,
        Stage::Compress,
        Stage::Encode,
        Stage::JournalFsync,
        Stage::EpochCommit,
    ];

    /// The stage's snake_case name (stable — it is the Prometheus label
    /// value and the JSON key in the bench outputs).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Expand => "expand",
            Stage::RowSel => "row_sel",
            Stage::ColTor => "col_tor",
            Stage::Compress => "compress",
            Stage::Encode => "encode",
            Stage::JournalFsync => "journal_fsync",
            Stage::EpochCommit => "epoch_commit",
        }
    }
}

/// One stage's lock-free histogram.
#[derive(Debug)]
struct StageHist {
    buckets: [AtomicU64; STAGE_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl StageHist {
    const fn new() -> Self {
        StageHist {
            buckets: [const { AtomicU64::new(0) }; STAGE_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn record_us(&self, us: u64) {
        let bucket = (us.max(1).ilog2() as usize).min(STAGE_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }
}

/// One slow query's trace record: where its time went, who sent it, and
/// what the server looked like when it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The session that issued the query (0 for sessionless paths).
    pub session_id: u64,
    /// Size of the batch the query was answered in.
    pub batch_size: u32,
    /// The database epoch the answer reflected.
    pub epoch: u64,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Per-stage durations, µs, indexed by [`Stage`] discriminant.
    pub stage_us: [u64; Stage::COUNT],
}

/// A per-query (or per-batch) stage vector accumulated on one thread and
/// fed to [`TraceRecorder::record_slow`] at completion. Cloning a batch
/// span and adding the per-query stages (queue wait, encode) on top is
/// how the batcher shares the engine's batch-level timings across the
/// batch's queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    us: [u64; Stage::COUNT],
}

impl Span {
    /// An empty span.
    pub fn new() -> Self {
        Span::default()
    }

    /// Adds `d` to the span's accumulator for `stage`.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.us[stage as usize] = self.us[stage as usize].saturating_add(duration_us(d));
    }

    /// Sum over all stages, µs.
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// The raw stage vector, indexed by [`Stage`] discriminant.
    pub(crate) fn stages(&self) -> &[u64; Stage::COUNT] {
        &self.us
    }
}

/// Clamped µs conversion shared by every recording path.
pub(crate) fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The shared, lock-free per-stage recorder: one instance per service,
/// threaded through the handlers, the batcher, and the engine.
#[derive(Debug)]
pub struct TraceRecorder {
    stages: [StageHist; Stage::COUNT],
    scan_bytes: AtomicU64,
    scan_ns: AtomicU64,
    slow_threshold_us: u64,
    slow_capacity: usize,
    /// Total slow queries ever seen (the ring may have evicted them).
    slow_seen: AtomicU64,
    slow: Mutex<VecDeque<TraceRecord>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default slow threshold and ring capacity.
    pub(crate) fn new() -> Self {
        Self::with_limits(DEFAULT_SLOW_THRESHOLD, DEFAULT_SLOW_RING)
    }

    /// A recorder keeping the `capacity` most recent trace records of
    /// queries slower than `slow_threshold` (capacity 0 disables the
    /// ring; the slow counter still counts).
    pub fn with_limits(slow_threshold: Duration, capacity: usize) -> Self {
        TraceRecorder {
            stages: [const { StageHist::new() }; Stage::COUNT],
            scan_bytes: AtomicU64::new(0),
            scan_ns: AtomicU64::new(0),
            slow_threshold_us: duration_us(slow_threshold),
            slow_capacity: capacity,
            slow_seen: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one `stage` sample.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.stages[stage as usize].record_us(duration_us(d));
    }

    /// Accumulates one `RowSel` pass's traffic: `bytes` of database limbs
    /// streamed in `elapsed` wall time (for a scan split into row blocks:
    /// the byte sum over blocks against the slowest block, since they run
    /// in parallel). The ratio of the accumulators is the effective scan
    /// bandwidth the roofline comparison uses.
    pub fn record_scan(&self, bytes: u64, elapsed: Duration) {
        self.scan_bytes.fetch_add(bytes, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.scan_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Offers one completed query to the slow ring: queries at or above
    /// the threshold push a [`TraceRecord`], evicting the oldest once the
    /// ring is full.
    pub fn record_slow(
        &self,
        span: &Span,
        total: Duration,
        session_id: u64,
        batch_size: u32,
        epoch: u64,
    ) {
        let total_us = duration_us(total);
        if total_us < self.slow_threshold_us {
            return;
        }
        self.slow_seen.fetch_add(1, Ordering::Relaxed);
        if self.slow_capacity == 0 {
            return;
        }
        let record =
            TraceRecord { session_id, batch_size, epoch, total_us, stage_us: *span.stages() };
        let mut ring = self.slow.lock().expect("slow ring poisoned");
        if ring.len() >= self.slow_capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Total queries that crossed the slow threshold (including evicted).
    pub fn slow_seen(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    /// The current slow-ring contents, oldest first.
    pub fn slow_records(&self) -> Vec<TraceRecord> {
        self.slow.lock().expect("slow ring poisoned").iter().cloned().collect()
    }

    /// Total database bytes streamed by recorded `RowSel` passes.
    pub(crate) fn scan_bytes(&self) -> u64 {
        self.scan_bytes.load(Ordering::Relaxed)
    }

    /// Total wall nanoseconds those passes took.
    pub fn scan_ns(&self) -> u64 {
        self.scan_ns.load(Ordering::Relaxed)
    }

    /// A point-in-time view of every stage histogram, in [`Stage::ALL`]
    /// order.
    pub(crate) fn stage_stats(&self) -> Vec<StageReport> {
        self.stages
            .iter()
            .map(|h| StageReport {
                count: h.count.load(Ordering::Relaxed),
                sum_us: h.sum_us.load(Ordering::Relaxed),
                max_us: h.max_us.load(Ordering::Relaxed),
                buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_record_into_the_right_histograms() {
        let t = TraceRecorder::new();
        t.record(Stage::RowSel, Duration::from_micros(100));
        t.record(Stage::RowSel, Duration::from_micros(300));
        t.record(Stage::Encode, Duration::from_micros(7));
        let stats = t.stage_stats();
        assert_eq!(stats.len(), Stage::COUNT);
        let rowsel = &stats[Stage::RowSel as usize];
        assert_eq!(rowsel.count, 2);
        assert_eq!(rowsel.sum_us, 400);
        assert_eq!(rowsel.max_us, 300);
        assert_eq!(rowsel.buckets.iter().sum::<u64>(), 2);
        // 100µs → bucket 6 [64,128); 300µs → bucket 8 [256,512).
        assert_eq!(rowsel.buckets[6], 1);
        assert_eq!(rowsel.buckets[8], 1);
        let encode = &stats[Stage::Encode as usize];
        assert_eq!(encode.count, 1);
        assert_eq!(stats[Stage::Decode as usize].count, 0);
    }

    #[test]
    fn slow_ring_keeps_only_threshold_crossers_and_stays_bounded() {
        let t = TraceRecorder::with_limits(Duration::from_millis(10), 3);
        let mut span = Span::new();
        span.add(Stage::RowSel, Duration::from_millis(9));
        t.record_slow(&span, Duration::from_millis(9), 1, 1, 0); // under threshold
        assert_eq!(t.slow_seen(), 0);
        assert!(t.slow_records().is_empty());
        for i in 0..5u64 {
            t.record_slow(&span, Duration::from_millis(10 + i), i, 2, 7);
        }
        assert_eq!(t.slow_seen(), 5);
        let records = t.slow_records();
        assert_eq!(records.len(), 3, "ring must stay at its bound");
        // Oldest evicted: sessions 2, 3, 4 remain, oldest first.
        assert_eq!(records[0].session_id, 2);
        assert_eq!(records[2].session_id, 4);
        assert_eq!(records[0].batch_size, 2);
        assert_eq!(records[0].epoch, 7);
        assert_eq!(records[0].stage_us[Stage::RowSel as usize], 9000);
    }

    #[test]
    fn span_accumulates_and_totals() {
        let mut span = Span::new();
        span.add(Stage::Expand, Duration::from_micros(10));
        span.add(Stage::Expand, Duration::from_micros(5));
        span.add(Stage::ColTor, Duration::from_micros(20));
        assert_eq!(span.stages()[Stage::Expand as usize], 15);
        assert_eq!(span.total_us(), 35);
    }

    #[test]
    fn scan_accounting_accumulates() {
        let t = TraceRecorder::new();
        t.record_scan(1 << 20, Duration::from_millis(1));
        t.record_scan(1 << 20, Duration::from_millis(1));
        assert_eq!(t.scan_bytes(), 2 << 20);
        assert_eq!(t.scan_ns(), 2_000_000);
    }

    #[test]
    fn zero_capacity_ring_counts_but_stores_nothing() {
        let t = TraceRecorder::with_limits(Duration::ZERO, 0);
        t.record_slow(&Span::new(), Duration::from_micros(1), 0, 1, 0);
        assert_eq!(t.slow_seen(), 1);
        assert!(t.slow_records().is_empty());
    }
}
