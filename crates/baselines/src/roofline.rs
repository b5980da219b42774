//! Roofline device model (Fig. 6) and a measured host-bandwidth probe.
//!
//! The paper's Fig. 6 argues the database scan should sit on the DRAM
//! bandwidth slope; [`measure_read_bandwidth`] turns that ceiling from a
//! datasheet number into a **measured** one for the machine the benches
//! actually run on, so `BENCH_hotpath.json` can report the RowSel scan
//! as a fraction of what this host's memory system sustains.

use std::time::Instant;

use serde::{Deserialize, Serialize};

/// A compute/bandwidth ceiling pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable name.
    pub name: &'static str,
    /// Peak integer-multiply throughput (ops/s) after efficiency derating.
    pub mult_per_s: f64,
    /// Sustained DRAM bandwidth (bytes/s) after efficiency derating.
    pub bytes_per_s: f64,
    /// Device memory capacity in bytes.
    pub mem_capacity: u64,
    /// Last-level on-chip cache in bytes (per-query working-set budget).
    pub cache_bytes: u64,
}

impl Device {
    /// Attained throughput (mults/s) at arithmetic intensity `ai`
    /// — the roofline curve of Fig. 6 (left).
    pub(crate) fn attained_mult_per_s(&self, ai: f64) -> f64 {
        (ai * self.bytes_per_s).min(self.mult_per_s)
    }

    /// Time to execute `mults` operations moving `bytes` of DRAM traffic,
    /// with perfect compute/transfer overlap (decoupled orchestration).
    pub(crate) fn time_s(&self, mults: f64, bytes: f64) -> f64 {
        (mults / self.mult_per_s).max(bytes / self.bytes_per_s)
    }

    /// Whether execution at this `(mults, bytes)` point is memory bound.
    pub(crate) fn memory_bound(&self, mults: f64, bytes: f64) -> bool {
        bytes / self.bytes_per_s > mults / self.mult_per_s
    }
}

/// One point on the roofline plot: a PIR step at a given batch size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Step label.
    pub step: &'static str,
    /// Batch size.
    pub batch: usize,
    /// Arithmetic intensity in mults per DRAM byte.
    pub ai: f64,
    /// Attained throughput in mult-TOPS.
    pub tops: f64,
    /// Whether the point sits on the bandwidth slope.
    pub memory_bound: bool,
}

impl Device {
    /// Builds a roofline point for a step executing `mults` over `bytes`.
    pub fn point(&self, step: &'static str, batch: usize, mults: f64, bytes: f64) -> RooflinePoint {
        let ai = mults / bytes.max(1.0);
        RooflinePoint {
            step,
            batch,
            ai,
            tops: self.attained_mult_per_s(ai) / 1e12,
            memory_bound: self.memory_bound(mults, bytes),
        }
    }
}

/// Measures this host's sustained sequential read bandwidth in bytes/s:
/// one thread streaming a `u64` buffer of `buf_bytes` front to back,
/// best of `passes` timed sweeps (the first sweep doubles as the page
/// warm-up and is never counted). The reduction is a plain wrapping sum
/// the auto-vectorizer handles on every target, and the result rides
/// through [`std::hint::black_box`] so the sweep cannot be elided.
///
/// This is the *scan-shaped* ceiling — single-threaded, sequential,
/// cache-line granular — which is exactly the stream the `RowSel` scan
/// issues, so `scan GB/s ÷ this` is a meaningful fraction-of-roofline.
/// Pick `buf_bytes` several times the last-level cache to measure DRAM
/// rather than cache residency.
pub fn measure_read_bandwidth(buf_bytes: usize, passes: usize) -> f64 {
    let words = (buf_bytes / 8).max(1024);
    // A non-trivial fill so a smart allocator cannot hand back shared
    // zero pages that all alias the same physical frame.
    let buf: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let mut best = 0.0f64;
    let mut sink = 0u64;
    for pass in 0..passes.max(1) + 1 {
        let t = Instant::now();
        let mut acc = 0u64;
        for &w in &buf {
            acc = acc.wrapping_add(w);
        }
        sink = sink.wrapping_add(std::hint::black_box(acc));
        let dt = t.elapsed().as_secs_f64();
        if pass > 0 && dt > 0.0 {
            best = best.max((words * 8) as f64 / dt);
        }
    }
    std::hint::black_box(sink);
    best
}

/// Measures this host's sustained *aggregate* read bandwidth in bytes/s
/// with `threads` workers streaming disjoint slices of one shared buffer
/// — the socket-level ceiling the multi-threaded `RowSel` scan should
/// track, as opposed to [`measure_read_bandwidth`]'s single-core slope.
///
/// Each pass is barrier-aligned: every worker waits at a
/// [`std::sync::Barrier`], sweeps its slice, and the pass is charged the
/// *slowest* worker's wall time, so the figure is the bandwidth the
/// memory system sustains when all threads contend — not the sum of
/// solo runs. Best of `passes` counted sweeps (one uncounted warm-up),
/// `threads` clamped to ≥ 1; with `threads == 1` this degenerates to the
/// single-core probe.
pub fn measure_read_bandwidth_parallel(buf_bytes: usize, passes: usize, threads: usize) -> f64 {
    let threads = threads.max(1);
    if threads == 1 {
        return measure_read_bandwidth(buf_bytes, passes);
    }
    let words = (buf_bytes / 8).max(1024 * threads);
    let buf: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let chunk = words.div_ceil(threads);
    // Rounding can leave the last chunk empty; size the barrier by the
    // chunks that actually exist or the pass never leaves the barrier.
    let workers = words.div_ceil(chunk);
    let rounds = passes.max(1) + 1;
    let barrier = std::sync::Barrier::new(workers);
    // Per (round, worker) sweep time, flattened; each worker writes its
    // own column so no synchronization beyond the barriers is needed.
    let mut times = vec![0.0f64; rounds * workers];
    std::thread::scope(|scope| {
        for (t, (slice, times)) in buf.chunks(chunk).zip(times.chunks_mut(rounds)).enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut sink = 0u64;
                for round_times in times.iter_mut() {
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut acc = 0u64;
                    for &w in slice {
                        acc = acc.wrapping_add(w);
                    }
                    sink = sink.wrapping_add(std::hint::black_box(acc));
                    *round_times = t0.elapsed().as_secs_f64();
                }
                std::hint::black_box(sink);
                let _ = t;
            });
        }
    });
    let mut best = 0.0f64;
    for round in 1..rounds {
        // The pass ends when the slowest worker finishes its slice.
        let slowest = (0..workers).map(|t| times[t * rounds + round]).fold(0.0f64, f64::max);
        if slowest > 0.0 {
            best = best.max((words * 8) as f64 / slowest);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtx4090_paper() -> Device {
        // Fig. 6 ceilings: 41.3 TOPS, 939 GB/s.
        Device {
            name: "RTX 4090 (peak)",
            mult_per_s: 41.3e12,
            bytes_per_s: 939e9,
            mem_capacity: 24 << 30,
            cache_bytes: 72 << 20,
        }
    }

    #[test]
    fn ridge_matches_fig6() {
        let d = rtx4090_paper();
        // 41.3 TOPS / 939 GB/s = 44 mults/byte: the bound flips there.
        assert!(d.memory_bound(43.9, 1.0));
        assert!(!d.memory_bound(44.1, 1.0));
    }

    #[test]
    fn attained_saturates_at_peak() {
        let d = rtx4090_paper();
        assert!(d.attained_mult_per_s(1.0) < d.mult_per_s);
        assert_eq!(d.attained_mult_per_s(1000.0), d.mult_per_s);
    }

    #[test]
    fn time_is_max_of_bounds() {
        let d = rtx4090_paper();
        let t = d.time_s(41.3e12, 939e9); // 1s compute, 1s memory
        assert!((t - 1.0).abs() < 1e-9);
        assert!(d.memory_bound(1.0, 1e12));
        assert!(!d.memory_bound(1e15, 1.0));
    }

    #[test]
    fn measured_bandwidth_is_positive_and_finite() {
        // A small buffer (cache-resident, so fast and test-friendly);
        // the probe must still return a sane figure.
        let bw = measure_read_bandwidth(1 << 20, 2);
        assert!(bw.is_finite() && bw > 0.0, "bandwidth probe returned {bw}");
        // Anything below 100 MB/s or above 10 TB/s means the timer or
        // the sweep is broken, not the memory system.
        assert!(bw > 1e8 && bw < 1e13, "implausible bandwidth {bw}");
    }

    #[test]
    fn parallel_bandwidth_probe_is_sane_at_any_thread_count() {
        for threads in [0usize, 1, 2, 7] {
            let bw = measure_read_bandwidth_parallel(1 << 20, 2, threads);
            assert!(bw.is_finite() && bw > 0.0, "{threads} threads returned {bw}");
            assert!(bw > 1e8 && bw < 2e13, "{threads} threads: implausible bandwidth {bw}");
        }
    }

    #[test]
    fn batching_raises_rowsel_ai_only() {
        // The §III-B observation, as roofline points.
        let d = rtx4090_paper();
        let db_bytes = 7.0e9f64;
        let mults = 4.3e9f64;
        let p1 = d.point("RowSel", 1, mults, db_bytes);
        let p64 = d.point("RowSel", 64, 64.0 * mults, db_bytes);
        assert!(p64.ai > 60.0 * p1.ai);
        assert!(p1.memory_bound);
        // Fig. 6: the batch-64 RowSel point sits just below the ridge
        // (44 mults/byte on the 4090); batch 128 crosses into the
        // compute-bound region.
        let ridge = d.mult_per_s / d.bytes_per_s;
        assert!(p64.ai > 0.75 * ridge && p64.ai < ridge);
        let p128 = d.point("RowSel", 128, 128.0 * mults, db_bytes);
        assert!(!p128.memory_bound);
    }
}
