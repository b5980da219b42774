//! An explicitly managed on-chip scratchpad model.
//!
//! IVE's SRAM is software-managed (register file + buffers, §IV-F) with a
//! compiler-precomputed schedule (§VI-A "decoupled data orchestration").
//! This model tracks which items are resident, charges DRAM traffic on
//! misses, and writes dirty items back on eviction. Eviction is LRU among
//! unpinned items, which is what a precomputed schedule achieves for the
//! tree traversals studied here (the walker pins its live working set).

use std::collections::HashMap;

use crate::traffic::{Traffic, TrafficClass};

/// Identifier for a cached item (caller-assigned).
pub(crate) type ItemId = u64;

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    dirty: bool,
    pinned: bool,
    last_touch: u64,
}

/// A capacity-limited scratchpad that meters DRAM traffic.
#[derive(Debug)]
pub(crate) struct ManagedBuffer {
    capacity: u64,
    used: u64,
    clock: u64,
    entries: HashMap<ItemId, Entry>,
    traffic: Traffic,
}

impl ManagedBuffer {
    /// Creates a scratchpad of `capacity` bytes.
    pub(crate) fn new(capacity: u64) -> Self {
        ManagedBuffer {
            capacity,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
            traffic: Traffic::zero(),
        }
    }

    /// The DRAM traffic charged so far.
    #[inline]
    pub(crate) fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Reads an item: charges a load of `bytes` in `class` unless already
    /// resident. Returns `true` on a hit.
    pub(crate) fn read(&mut self, id: ItemId, bytes: u64, class: TrafficClass) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_touch = self.clock;
            return true;
        }
        self.traffic.add(class, bytes);
        self.insert(id, bytes, false);
        false
    }

    /// Produces an item on-chip (no load): it becomes resident and dirty
    /// (must be written back if evicted before being dropped).
    pub(crate) fn produce(&mut self, id: ItemId, bytes: u64) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_touch = self.clock;
            e.dirty = true;
            return;
        }
        self.insert(id, bytes, true);
    }

    /// Pins an item (exempt from eviction). No-op when absent.
    pub(crate) fn pin(&mut self, id: ItemId) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.pinned = true;
        }
    }

    /// Drops an item without write-back (its value is dead).
    pub(crate) fn discard(&mut self, id: ItemId) {
        if let Some(e) = self.entries.remove(&id) {
            self.used -= e.bytes;
        }
    }

    /// Writes an item back to DRAM explicitly (e.g. a final result) and
    /// marks it clean; charges a `CtStore`.
    pub(crate) fn writeback(&mut self, id: ItemId) {
        if let Some(e) = self.entries.get_mut(&id) {
            self.traffic.add(TrafficClass::CtStore, e.bytes);
            e.dirty = false;
        }
    }

    fn insert(&mut self, id: ItemId, bytes: u64, dirty: bool) {
        while self.used + bytes > self.capacity {
            if !self.evict_one() {
                break; // everything pinned: allow transient over-subscription
            }
        }
        self.used += bytes;
        self.entries.insert(id, Entry { bytes, dirty, pinned: false, last_touch: self.clock });
    }

    fn evict_one(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(&id, _)| id);
        match victim {
            Some(id) => {
                let e = self.entries.remove(&id).expect("victim exists");
                self.used -= e.bytes;
                if e.dirty {
                    self.traffic.add(TrafficClass::CtStore, e.bytes);
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_load() {
        let mut b = ManagedBuffer::new(1000);
        assert!(!b.read(1, 400, TrafficClass::CtLoad));
        assert!(b.read(1, 400, TrafficClass::CtLoad));
        assert_eq!(b.traffic().ct_load, 400);
        assert_eq!(b.used, 400);
    }

    #[test]
    fn eviction_writes_back_dirty() {
        let mut b = ManagedBuffer::new(1000);
        b.produce(1, 600);
        b.read(2, 600, TrafficClass::CtLoad); // evicts item 1 (dirty)
        assert_eq!(b.traffic().ct_store, 600);
        assert!(!b.entries.contains_key(&1));
        assert!(b.entries.contains_key(&2));
    }

    #[test]
    fn clean_items_evict_silently() {
        let mut b = ManagedBuffer::new(1000);
        b.read(1, 600, TrafficClass::KeyLoad);
        b.read(2, 600, TrafficClass::KeyLoad);
        assert_eq!(b.traffic().ct_store, 0);
        assert_eq!(b.traffic().key_load, 1200);
    }

    #[test]
    fn pinned_items_survive() {
        let mut b = ManagedBuffer::new(1000);
        b.read(1, 600, TrafficClass::KeyLoad);
        b.pin(1);
        b.read(2, 600, TrafficClass::CtLoad);
        assert!(b.entries.contains_key(&1), "pinned item evicted");
    }

    #[test]
    fn lru_order() {
        let mut b = ManagedBuffer::new(900);
        b.read(1, 300, TrafficClass::CtLoad);
        b.read(2, 300, TrafficClass::CtLoad);
        b.read(3, 300, TrafficClass::CtLoad);
        b.read(1, 300, TrafficClass::CtLoad); // refresh 1
        b.read(4, 300, TrafficClass::CtLoad); // evicts 2 (oldest)
        assert!(b.entries.contains_key(&1));
        assert!(!b.entries.contains_key(&2));
        assert!(b.entries.contains_key(&3));
    }

    #[test]
    fn discard_frees_without_store() {
        let mut b = ManagedBuffer::new(500);
        b.produce(1, 400);
        b.discard(1);
        assert_eq!(b.used, 0);
        assert_eq!(b.traffic().total(), 0);
    }

    #[test]
    fn explicit_writeback() {
        let mut b = ManagedBuffer::new(500);
        b.produce(1, 100);
        b.writeback(1);
        assert_eq!(b.traffic().ct_store, 100);
        // Now clean: eviction does not double-charge.
        b.read(2, 500, TrafficClass::CtLoad);
        assert_eq!(b.traffic().ct_store, 100);
    }
}
