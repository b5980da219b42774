//! Memory and interconnect specifications.

use serde::{Deserialize, Serialize};

/// Bytes per gigabyte (the paper uses binary units: 1TB = 2^40 B).
pub(crate) const GIB: u64 = 1 << 30;

/// A bandwidth/capacity specification for a DRAM device or link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Peak bandwidth in bytes per second.
    pub bytes_per_s: f64,
    /// Capacity in bytes (`u64::MAX` for links).
    pub capacity_bytes: u64,
}

impl MemSpec {
    /// The chip-wide HBM system: four stacks (2TB/s, 96GB).
    pub fn hbm_chip() -> Self {
        MemSpec { name: "HBM x4", bytes_per_s: 4.0 * 512e9, capacity_bytes: 96 * GIB }
    }

    /// The scale-up LPDDR expander: four modules (512GB/s, 512GB).
    pub fn lpddr_system() -> Self {
        MemSpec { name: "LPDDR x4", bytes_per_s: 4.0 * 128e9, capacity_bytes: 512 * GIB }
    }

    /// The cluster PCIe switch: up to 128GB/s (§V scale-out).
    pub fn pcie_switch() -> Self {
        MemSpec { name: "PCIe switch", bytes_per_s: 128e9, capacity_bytes: u64::MAX }
    }

    /// Host-to-accelerator PCIe Gen5 x16 link.
    pub fn pcie_gen5() -> Self {
        MemSpec { name: "PCIe Gen5 x16", bytes_per_s: 64e9, capacity_bytes: u64::MAX }
    }

    /// Time to move `bytes` at peak bandwidth, in seconds.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bytes_per_s
    }

    /// Whether `bytes` fit in this device.
    #[inline]
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_memory_system() {
        let hbm = MemSpec::hbm_chip();
        assert_eq!(hbm.capacity_bytes, 96 * GIB);
        assert_eq!(hbm.bytes_per_s, 2048e9);
        let lp = MemSpec::lpddr_system();
        assert_eq!(lp.capacity_bytes, 512 * GIB);
        assert_eq!(lp.bytes_per_s, 512e9);
        // An IVE system supports up to 128GB of (raw) DB: preprocessed
        // 3.5x = 448GB fits the LPDDR expander.
        assert!(lp.fits(448 * GIB));
        assert!(!lp.fits(513 * GIB));
    }

    #[test]
    fn transfer_time_scales() {
        let hbm = MemSpec::hbm_chip();
        let t = hbm.transfer_time(2_048_000_000_000);
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(hbm.transfer_time(0), 0.0);
    }
}
