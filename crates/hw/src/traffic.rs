//! DRAM traffic accounting by data class — the units of Fig. 8.

use serde::{Deserialize, Serialize};

/// The data classes the paper's scheduling study distinguishes (Fig. 8
/// legend: "BFV Ciphertext load", "BFV Ciphertext store",
/// "Evk or RGSW load").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum TrafficClass {
    /// BFV ciphertext loads (intermediate tree values read back).
    CtLoad,
    /// BFV ciphertext stores (intermediate tree values spilled).
    CtStore,
    /// Evaluation-key (`evk_r`) or RGSW selection-bit loads.
    KeyLoad,
}

/// Byte counters per traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Traffic {
    /// BFV ciphertext load bytes.
    pub ct_load: u64,
    /// BFV ciphertext store bytes.
    pub ct_store: u64,
    /// evk/RGSW load bytes.
    pub key_load: u64,
    /// Database streaming bytes.
    pub db_stream: u64,
}

impl Traffic {
    /// The zero traffic vector.
    pub fn zero() -> Self {
        Traffic::default()
    }

    /// Adds `bytes` to one class.
    pub(crate) fn add(&mut self, class: TrafficClass, bytes: u64) {
        match class {
            TrafficClass::CtLoad => self.ct_load += bytes,
            TrafficClass::CtStore => self.ct_store += bytes,
            TrafficClass::KeyLoad => self.key_load += bytes,
        }
    }

    /// Total bytes over all classes.
    pub fn total(&self) -> u64 {
        self.ct_load + self.ct_store + self.key_load + self.db_stream
    }

    /// Component-wise sum.
    pub(crate) fn merged(&self, other: &Traffic) -> Traffic {
        Traffic {
            ct_load: self.ct_load + other.ct_load,
            ct_store: self.ct_store + other.ct_store,
            key_load: self.key_load + other.key_load,
            db_stream: self.db_stream + other.db_stream,
        }
    }

    /// Scales every class by an integer factor (e.g. batch size).
    pub fn scaled(&self, factor: u64) -> Traffic {
        Traffic {
            ct_load: self.ct_load * factor,
            ct_store: self.ct_store * factor,
            key_load: self.key_load * factor,
            db_stream: self.db_stream * factor,
        }
    }

    /// Scales every class by a real factor (e.g. batch × fill fraction).
    pub fn scaled_f(&self, factor: f64) -> Traffic {
        Traffic {
            ct_load: (self.ct_load as f64 * factor).round() as u64,
            ct_store: (self.ct_store as f64 * factor).round() as u64,
            key_load: (self.key_load as f64 * factor).round() as u64,
            db_stream: (self.db_stream as f64 * factor).round() as u64,
        }
    }
}

impl core::ops::Add for Traffic {
    type Output = Traffic;
    fn add(self, rhs: Traffic) -> Traffic {
        self.merged(&rhs)
    }
}

impl core::iter::Sum for Traffic {
    fn sum<I: Iterator<Item = Traffic>>(iter: I) -> Traffic {
        iter.fold(Traffic::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut t = Traffic::zero();
        t.add(TrafficClass::CtLoad, 100);
        t.add(TrafficClass::CtStore, 50);
        t.add(TrafficClass::KeyLoad, 25);
        assert_eq!((t.ct_load, t.ct_store, t.key_load, t.db_stream), (100, 50, 25, 0));
        assert_eq!(t.total(), 175);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Traffic::zero();
        a.add(TrafficClass::CtLoad, 7);
        let mut b = Traffic::zero();
        b.add(TrafficClass::KeyLoad, 3);
        let m = a.merged(&b);
        assert_eq!(m.total(), 10);
        assert_eq!(m.scaled(4).total(), 40);
        let s: Traffic = [a, b].into_iter().sum();
        assert_eq!(s, m);
    }
}
