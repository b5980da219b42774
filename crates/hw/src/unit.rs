//! Functional-unit occupancy arithmetic.
//!
//! Work is expressed in *unit-cycles* per functional-unit class. A step's
//! compute time is the maximum over classes that run in parallel and the
//! sum over classes that share a physical unit (IVE's sysNTTU runs NTT
//! *and* GEMM on the same array — the versatility trade-off of §IV-C).

use serde::{Deserialize, Serialize};

/// Functional-unit classes of the IVE core (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitClass {
    /// sysNTTU in NTT mode (butterfly network).
    NttMode,
    /// sysNTTU in GEMM mode (output-stationary systolic array).
    GemmMode,
    /// iCRT unit (iCRT + bit extraction).
    Icrtu,
    /// Element-wise unit (MMAD + small GEMMs).
    Ewu,
    /// Automorphism unit.
    Autou,
}

/// Cycle counts per unit class for some piece of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Work {
    /// sysNTTU NTT-mode cycles.
    pub ntt: f64,
    /// sysNTTU GEMM-mode cycles.
    pub gemm: f64,
    /// iCRTU cycles.
    pub icrt: f64,
    /// EWU cycles.
    pub ewu: f64,
    /// AutoU cycles.
    pub auto_u: f64,
}

impl Work {
    /// The zero work vector.
    pub(crate) fn zero() -> Self {
        Work::default()
    }

    /// Component-wise sum.
    pub(crate) fn merged(&self, other: &Work) -> Work {
        Work {
            ntt: self.ntt + other.ntt,
            gemm: self.gemm + other.gemm,
            icrt: self.icrt + other.icrt,
            ewu: self.ewu + other.ewu,
            auto_u: self.auto_u + other.auto_u,
        }
    }

    /// Critical-path cycles when the sysNTTU serves both NTT and GEMM
    /// (they serialize on the shared array) while iCRTU/EWU/AutoU overlap.
    pub fn cycles_shared_sysnttu(&self) -> f64 {
        (self.ntt + self.gemm).max(self.icrt).max(self.ewu).max(self.auto_u)
    }

    /// Critical-path cycles with *separate* NTT and GEMM units of the same
    /// per-unit throughput (the `Base` configuration of Fig. 13e and the
    /// ARK-like system of Fig. 14a).
    pub fn cycles_split_units(&self) -> f64 {
        self.ntt.max(self.gemm).max(self.icrt).max(self.ewu).max(self.auto_u)
    }
}

impl core::ops::Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        self.merged(&rhs)
    }
}

impl core::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_unit_serializes_ntt_and_gemm() {
        let w = Work { ntt: 10.0, gemm: 20.0, icrt: 25.0, ewu: 1.0, auto_u: 0.0 };
        assert_eq!(w.cycles_shared_sysnttu(), 30.0);
        assert_eq!(w.cycles_split_units(), 25.0);
    }

    #[test]
    fn merge_and_scale() {
        let a = Work { ntt: 1.0, gemm: 2.0, icrt: 3.0, ewu: 4.0, auto_u: 5.0 };
        let b = a + a;
        assert_eq!(b.gemm, 4.0);
        let c = a + b;
        assert_eq!(c.auto_u, 15.0);
        let s: Work = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn sequential_pir_steps_favor_shared_unit() {
        // The §IV-C argument: steps are sequential, so a GEMM-heavy step
        // (RowSel) and an NTT-heavy step (ColTor) never compete — the
        // shared unit costs nothing on the critical path of either.
        let rowsel = Work { gemm: 100.0, ..Work::zero() };
        let coltor = Work { ntt: 80.0, gemm: 10.0, ..Work::zero() };
        let shared = rowsel.cycles_shared_sysnttu() + coltor.cycles_shared_sysnttu();
        let split = rowsel.cycles_split_units() + coltor.cycles_split_units();
        // Only ColTor's small internal GEMM serializes: 10 extra cycles.
        assert!(shared - split <= 10.0 + 1e-9);
    }
}
