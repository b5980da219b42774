//! Reusable scratch buffers for the kernel layer.
//!
//! Every query through the PIR pipeline needs the same transient buffers:
//! wide iCRT coefficients, the digit rows and NTT tiles of `Dcp`, and the
//! row accumulators of the `RowSel` scan. Allocating them per query puts the
//! allocator on the hot path — exactly what the accelerator's fixed
//! on-chip buffers avoid (§IV-B). A [`KernelArena`] is the software
//! analogue: each serving worker owns one, checks buffers out for a
//! query, and returns them afterwards; after the first query at a given
//! geometry ("warm-up") the arena serves every subsequent checkout from
//! retained capacity and the hot path performs **zero heap allocations**
//! (verified by an allocation-counting test in `ive_pir`).
//!
//! Checkout hands back an owned `Vec`, so nested checkouts need no borrow
//! gymnastics; dropping a checked-out buffer instead of returning it is
//! safe (the arena simply re-allocates next time).

/// A pool of reusable `u32`/`u64`/`u128` scratch buffers.
#[derive(Debug, Default)]
pub struct KernelArena {
    u32_pool: Vec<Vec<u32>>,
    u64_pool: Vec<Vec<u64>>,
    u128_pool: Vec<Vec<u128>>,
}

/// Checks out a buffer of `len` elements from `pool`, reusing retained
/// capacity when any pooled buffer is large enough. Only growth is
/// zero-filled; the rest keeps whatever the previous checkout left (every
/// caller overwrites its buffer in full — a digit-row buffer is not worth
/// a memset).
fn take<T: Copy + Default>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    // Best fit: the smallest buffer that already holds `len`, so buffers
    // keep their size class across calls (a small request never strands a
    // large one, whose next use would then have to grow another buffer);
    // otherwise recycle the largest (a single resize re-warms it).
    let pick = pool
        .iter()
        .enumerate()
        .filter(|(_, b)| b.capacity() >= len)
        .min_by_key(|(_, b)| b.capacity())
        .or_else(|| pool.iter().enumerate().max_by_key(|(_, b)| b.capacity()))
        .map(|(i, _)| i);
    let mut buf = pick.map_or_else(Vec::new, |i| pool.swap_remove(i));
    buf.resize(len, T::default());
    buf
}

impl KernelArena {
    /// An empty arena; retains nothing until buffers are returned.
    pub const fn new() -> Self {
        KernelArena { u32_pool: Vec::new(), u64_pool: Vec::new(), u128_pool: Vec::new() }
    }

    /// Checks out a `u32` buffer of `len` words with unspecified (stale)
    /// contents — `Dcp`'s digit rows and 4-byte NTT tiles, which their
    /// producers overwrite in full.
    pub fn take_u32_stale(&mut self, len: usize) -> Vec<u32> {
        take(&mut self.u32_pool, len)
    }

    /// Returns a `u32` buffer to the pool for reuse.
    pub fn give_u32(&mut self, buf: Vec<u32>) {
        if buf.capacity() > 0 {
            self.u32_pool.push(buf);
        }
    }

    /// Checks out a `u64` buffer of `len` words with unspecified (stale)
    /// contents, for callers that overwrite every word.
    pub fn take_u64_stale(&mut self, len: usize) -> Vec<u64> {
        take(&mut self.u64_pool, len)
    }

    /// Returns a `u64` buffer to the pool for reuse.
    pub fn give_u64(&mut self, buf: Vec<u64>) {
        if buf.capacity() > 0 {
            self.u64_pool.push(buf);
        }
    }

    /// Checks out a `u128` buffer of `len` words with unspecified (stale)
    /// contents, for callers that overwrite every word.
    pub(crate) fn take_u128_stale(&mut self, len: usize) -> Vec<u128> {
        take(&mut self.u128_pool, len)
    }

    /// Returns a `u128` buffer to the pool for reuse.
    pub(crate) fn give_u128(&mut self, buf: Vec<u128>) {
        if buf.capacity() > 0 {
            self.u128_pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_checkout_skips_the_memset_and_keeps_size_classes() {
        let mut arena = KernelArena::new();
        let mut big = arena.take_u64_stale(1024);
        assert!(big.iter().all(|&x| x == 0), "fresh growth is still zero-filled");
        big.fill(7);
        let mut small = arena.take_u64_stale(16);
        small.fill(9);
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        arena.give_u64(big);
        arena.give_u64(small);
        // The small request must not strand the large buffer.
        let small = arena.take_u64_stale(16);
        let big = arena.take_u64_stale(1024);
        assert_eq!((big.as_ptr(), small.as_ptr()), (big_ptr, small_ptr));
        assert!(big.iter().all(|&x| x == 7), "stale contents are left as they were");
    }

    #[test]
    fn best_fit_prefers_existing_capacity() {
        let mut arena = KernelArena::new();
        arena.give_u64(Vec::with_capacity(16));
        arena.give_u64(Vec::with_capacity(1024));
        let big = arena.take_u64_stale(512); // must pick the 1024-capacity buffer
        assert!(big.capacity() >= 1024);
        assert_eq!(arena.u64_pool.iter().map(Vec::capacity).collect::<Vec<_>>(), [16]);
    }

    #[test]
    fn u128_pool_is_separate() {
        let mut arena = KernelArena::new();
        let w = arena.take_u128_stale(64);
        arena.give_u128(w);
        assert_eq!((arena.u128_pool.len(), arena.u64_pool.len()), (1, 0));
        let w2 = arena.take_u128_stale(64);
        assert_eq!(w2.len(), 64);
    }

    #[test]
    fn u32_pool_is_separate_and_reused() {
        let mut arena = KernelArena::new();
        arena.give_u64(Vec::with_capacity(64));
        let narrow = arena.take_u32_stale(64);
        let ptr = narrow.as_ptr();
        arena.give_u32(narrow);
        assert_eq!((arena.u64_pool.len(), arena.u32_pool.len()), (1, 1));
        let again = arena.take_u32_stale(48);
        assert_eq!(again.as_ptr(), ptr, "retained capacity must be reused");
    }
}
