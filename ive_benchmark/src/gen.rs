//! Everything the benchmark derives from `--seed`: record contents, query
//! indices, client key RNGs and Poisson arrival gaps. The program under
//! test sees only these generated inputs, never the seed.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `PRF(seed, a, b)`: the 64-bit value every derived stream starts from.
pub fn prf(seed: u64, a: u64, b: u64) -> u64 {
    mix64(mix64(mix64(seed) ^ a) ^ b)
}

/// Which independent random stream of a run an RNG feeds, so that adding
/// a consumer to one stream never shifts another.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Record indices (or keys) the readers ask for.
    Indices = 1,
    /// Key generation; the lane is the client.
    ClientKeys = 2,
    /// Poisson arrival gaps.
    Arrivals = 100,
    /// Which records (or keys) the writer mutates.
    Writes = 101,
    /// The queue-model simulation's own arrivals.
    Model = 102,
}

/// The RNG of one stream (`lane` separates clients or segments in it).
pub fn rng(seed: u64, stream: Stream, lane: u64) -> StdRng {
    StdRng::seed_from_u64(prf(seed, stream as u64, lane))
}

/// Contents of record `index` at `version`: a SplitMix64 stream keyed by
/// `PRF(seed, index, version)`, so a checker regenerates the expected
/// bytes on demand and never keeps a copy of the database.
pub fn record_bytes(seed: u64, index: usize, version: u32, len: usize) -> Vec<u8> {
    let mut state = prf(seed, index as u64, u64::from(version));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out.extend_from_slice(&mix64(state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The first version in `lo..=hi` of record `index` that `got` equals.
pub fn matching_version(seed: u64, index: usize, lo: u32, hi: u32, got: &[u8]) -> Option<u32> {
    (lo..=hi).find(|&v| record_bytes(seed, index, v, got.len()) == got)
}

/// Due times (offsets from the segment start) of a Poisson arrival
/// process at `rate_per_s` over `duration`.
pub fn poisson_schedule(rng: &mut StdRng, rate_per_s: f64, duration: Duration) -> Vec<Duration> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_per_s;
        if t >= duration.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_prf_is_deterministic_and_keyed() {
        let a = record_bytes(7, 3, 0, 513);
        assert_eq!(a.len(), 513);
        assert_eq!(a, record_bytes(7, 3, 0, 513));
        assert_ne!(a, record_bytes(8, 3, 0, 513), "seed must key the contents");
        assert_ne!(a, record_bytes(7, 4, 0, 513), "index must key the contents");
        assert_ne!(a, record_bytes(7, 3, 1, 513), "version must key the contents");
        assert_eq!(matching_version(7, 3, 0, 2, &record_bytes(7, 3, 2, 64)), Some(2));
        assert_eq!(matching_version(7, 3, 0, 1, &record_bytes(7, 3, 2, 64)), None);
    }

    #[test]
    fn poisson_schedule_is_deterministic_ordered_and_at_rate() {
        let sched = |seed| {
            poisson_schedule(&mut rng(seed, Stream::Arrivals, 0), 50.0, Duration::from_secs(40))
        };
        let a = sched(11);
        assert_eq!(a, sched(11));
        assert_ne!(a, sched(12));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < Duration::from_secs(40)));
        // 2000 expected arrivals; five standard deviations is ±224.
        assert!((1776..=2224).contains(&a.len()), "{} arrivals", a.len());
    }
}
