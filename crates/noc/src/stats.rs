//! NoC statistics feeding the energy and performance models.

use serde::{Deserialize, Serialize};

/// Dynamic energy per flit per hop in picojoules (§5, measured with dsent).
pub(crate) const FLIT_HOP_PJ: f64 = 5.4;

/// Aggregate mesh statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Packets injected.
    pub packets_sent: u64,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Flit-hop events (each flit crossing one link).
    pub flit_hops: u64,
    /// Sum of per-packet latencies (inject → tail delivery), cycles.
    pub total_latency: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl NocStats {
    /// Mean packet latency in cycles.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.packets_delivered as f64
        }
    }

    /// Dynamic NoC energy in picojoules.
    #[must_use]
    pub fn dynamic_pj(&self) -> f64 {
        self.flit_hops as f64 * FLIT_HOP_PJ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_handles_zero() {
        assert_eq!(NocStats::default().mean_latency(), 0.0);
    }

    #[test]
    fn energy_scales_with_flit_hops() {
        let s = NocStats {
            flit_hops: 100,
            ..NocStats::default()
        };
        assert!((s.dynamic_pj() - 540.0).abs() < 1e-9);
    }
}
