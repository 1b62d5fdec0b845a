//! Computational-efficiency accounting (GFLOPS/W) and the §6.3
//! Neural Cache comparison.

use serde::{Deserialize, Serialize};

/// Neural Cache's published efficiency on Inception-v3, GFLOPS/W,
/// **without modelling DRAM** (§6.3).
pub const NEURAL_CACHE_GFLOPS_PER_W: f64 = 22.90;

/// Operations per multiply-accumulate (one multiply + one add).
pub(crate) const OPS_PER_MAC: f64 = 2.0;

/// A computational-efficiency data point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Efficiency {
    /// Work performed, in MACs.
    pub macs: u64,
    /// Run time, seconds.
    pub seconds: f64,
    /// Energy spent, joules.
    pub joules: f64,
}

impl Efficiency {
    /// Throughput in GFLOPS (counting 2 ops per MAC).
    #[must_use]
    pub(crate) fn gflops(&self) -> f64 {
        self.macs as f64 * OPS_PER_MAC / self.seconds / 1e9
    }

    /// Average power, watts.
    #[must_use]
    pub(crate) fn watts(&self) -> f64 {
        self.joules / self.seconds
    }

    /// GFLOPS per watt.
    #[must_use]
    pub fn gflops_per_watt(&self) -> f64 {
        self.gflops() / self.watts()
    }

    /// Ratio to the published Neural Cache figure.
    #[must_use]
    pub fn vs_neural_cache(&self) -> f64 {
        self.gflops_per_watt() / NEURAL_CACHE_GFLOPS_PER_W
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let e = Efficiency {
            macs: 1_000_000_000,
            seconds: 1.0,
            joules: 10.0,
        };
        assert!((e.gflops() - 2.0).abs() < 1e-9);
        assert!((e.watts() - 10.0).abs() < 1e-9);
        assert!((e.gflops_per_watt() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn resnet_shaped_run_beats_neural_cache() {
        // ~1.7 GMAC in ~5.1 ms at ~7 W without DRAM → tens of GFLOPS/W
        let e = Efficiency {
            macs: 1_700_000_000,
            seconds: 5.1e-3,
            joules: 7.0 * 5.1e-3,
        };
        assert!(e.vs_neural_cache() > 1.0, "{}", e.gflops_per_watt());
    }

    #[test]
    fn faster_same_energy_is_more_efficient() {
        let slow = Efficiency {
            macs: 1_000_000,
            seconds: 2.0,
            joules: 1.0,
        };
        let fast = Efficiency {
            macs: 1_000_000,
            seconds: 1.0,
            joules: 1.0,
        };
        // same energy for the same work → same GFLOPS/W, higher GFLOPS
        assert!(fast.gflops() > slow.gflops());
        assert!((fast.gflops_per_watt() - slow.gflops_per_watt()).abs() < 1e-12);
    }
}
