//! The waiting-window batch scheduler under random arrivals
//! (§V "Batch scheduler", §VI-F, Fig. 14b).
//!
//! Queries arrive as a Poisson process. The scheduler opens a *waiting
//! window* when the first query of a batch arrives; when the window
//! closes (and the accelerator is free) the accumulated queries dispatch
//! as one batch. The window is sized around the `RowSel` DB-access time so
//! the latency overhead stays below 2× while batching gains apply (§V).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Latency of a batch of the given size, in seconds.
///
/// Precomputed from the engine so queueing simulations don't re-run the
/// performance model per dispatch.
#[derive(Debug, Clone)]
pub struct ServiceTable {
    latencies: Vec<f64>,
}

impl ServiceTable {
    /// Builds from `f(batch)` for `batch = 1..=max_batch`.
    pub fn from_fn(max_batch: usize, f: impl FnMut(usize) -> f64) -> Self {
        assert!(max_batch >= 1);
        ServiceTable { latencies: (1..=max_batch).map(f).collect() }
    }

    /// Service latency for `batch` queries (clamped to the table).
    pub fn latency(&self, batch: usize) -> f64 {
        let b = batch.clamp(1, self.latencies.len());
        self.latencies[b - 1]
    }

    /// The saturation throughput of the largest batch.
    pub fn max_throughput_qps(&self) -> f64 {
        self.latencies.iter().enumerate().map(|(i, &t)| (i + 1) as f64 / t).fold(0.0, f64::max)
    }
}

/// Result of a queueing simulation at one offered load.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueuePoint {
    /// Offered arrival rate (queries/s).
    pub offered_qps: f64,
    /// Mean end-to-end latency (arrival → batch completion), seconds.
    pub avg_latency_s: f64,
    /// Achieved throughput over the simulated horizon (queries/s).
    pub served_qps: f64,
    /// Mean dispatched batch size.
    pub avg_batch: f64,
}

/// Simulates Poisson arrivals at `offered_qps` through a waiting-window
/// batch scheduler.
///
/// `window_s = 0` with `max_batch = 1` models the no-batching baseline.
///
/// # Panics
/// Panics if `n_queries == 0` or `offered_qps <= 0`.
pub fn simulate_poisson<R: Rng>(
    service: &ServiceTable,
    window_s: f64,
    max_batch: usize,
    offered_qps: f64,
    n_queries: usize,
    rng: &mut R,
) -> QueuePoint {
    assert!(n_queries > 0 && offered_qps > 0.0);
    // Poisson arrivals: exponential inter-arrival times.
    let mut arrivals = Vec::with_capacity(n_queries);
    let mut t = 0.0f64;
    for _ in 0..n_queries {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / offered_qps;
        arrivals.push(t);
    }

    let mut total_latency = 0.0f64;
    let mut server_free = 0.0f64;
    let mut batches = 0usize;
    let mut next = 0usize;
    let mut last_completion = 0.0f64;
    while next < arrivals.len() {
        let first = arrivals[next];
        // The batch dispatches when its window closes and the accelerator
        // is idle, whichever is later.
        let dispatch = (first + window_s).max(server_free);
        // All queries that arrived by the dispatch instant join, up to the
        // batch capacity.
        let mut end = next;
        while end < arrivals.len() && arrivals[end] <= dispatch && end - next < max_batch {
            end += 1;
        }
        let batch = end - next;
        let completion = dispatch + service.latency(batch);
        for &a in &arrivals[next..end] {
            total_latency += completion - a;
        }
        server_free = completion;
        last_completion = completion;
        batches += 1;
        next = end;
    }

    QueuePoint {
        offered_qps,
        avg_latency_s: total_latency / n_queries as f64,
        served_qps: n_queries as f64 / last_completion,
        avg_batch: n_queries as f64 / batches as f64,
    }
}

/// Finds the break-even load: the lowest offered QPS at which the
/// no-batching baseline's average latency exceeds the batching
/// scheduler's (Fig. 14b: 9.5 QPS for the 16GB DB).
pub fn break_even_qps<R: Rng>(
    service: &ServiceTable,
    window_s: f64,
    max_batch: usize,
    loads: &[f64],
    n_queries: usize,
    rng: &mut R,
) -> Option<f64> {
    for &qps in loads {
        let batched = simulate_poisson(service, window_s, max_batch, qps, n_queries, rng);
        let single = simulate_poisson(service, 0.0, 1, qps, n_queries, rng);
        if single.avg_latency_s > batched.avg_latency_s {
            return Some(qps);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A service table shaped like the 16GB IVE point: ~36ms single-query,
    /// amortization up to batch 64.
    fn table() -> ServiceTable {
        ServiceTable::from_fn(64, |b| 0.030 + 0.0012 * b as f64)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1414)
    }

    #[test]
    fn low_load_batching_costs_at_most_window() {
        let t = table();
        let mut r = rng();
        let batched = simulate_poisson(&t, 0.032, 64, 0.5, 4000, &mut r);
        let single = simulate_poisson(&t, 0.0, 1, 0.5, 4000, &mut r);
        // §V: "the latency overhead remains below 2x".
        assert!(batched.avg_latency_s < 2.0 * single.avg_latency_s + 0.032);
        assert!(batched.avg_latency_s > single.avg_latency_s);
    }

    #[test]
    fn no_batching_saturates_at_reciprocal_service() {
        // Fig. 14b: the non-batching limit is the reciprocal of the
        // single-query latency.
        let t = table();
        let limit = 1.0 / t.latency(1);
        let mut r = rng();
        let above = simulate_poisson(&t, 0.0, 1, 1.5 * limit, 6000, &mut r);
        assert!(above.avg_latency_s > 10.0 * t.latency(1), "queue must blow up");
        let below = simulate_poisson(&t, 0.0, 1, 0.5 * limit, 6000, &mut r);
        assert!(below.avg_latency_s < 3.0 * t.latency(1));
    }

    #[test]
    fn batching_sustains_high_load_within_2x() {
        // Fig. 14b: batching holds the 2x latency bound far beyond the
        // no-batching limit (420 vs 17.8 QPS in the paper's setup).
        let t = table();
        let mut r = rng();
        let high = 0.8 * t.max_throughput_qps();
        let p = simulate_poisson(&t, 0.032, 64, high, 20000, &mut r);
        assert!(
            p.avg_latency_s < 2.5 * (t.latency(64) + 0.032),
            "latency {:.3}s at {high:.0} QPS",
            p.avg_latency_s
        );
        assert!(p.avg_batch > 16.0);
    }

    #[test]
    fn break_even_exists_at_single_digit_load() {
        let t = table();
        let mut r = rng();
        let loads: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let be =
            break_even_qps(&t, 0.032, 64, &loads, 4000, &mut r).expect("break-even within 30 QPS");
        assert!((2.0..30.0).contains(&be), "break-even at {be}");
    }

    #[test]
    fn served_matches_offered_below_saturation() {
        let t = table();
        let mut r = rng();
        let p = simulate_poisson(&t, 0.032, 64, 100.0, 20000, &mut r);
        assert!((p.served_qps / 100.0 - 1.0).abs() < 0.1, "served {:.1}", p.served_qps);
    }
}
