//! Weight-tier load-cost model: what streaming a model's weight image out
//! of the LLC/DRAM hierarchy costs the fabric edge.
//!
//! MAICC's dataflow is weight-stationary, so the serving layer caches
//! model weight images in two tiers above the CMem-resident hot set: the
//! 32 edge-tile LLCs and the channel-interleaved DRAM behind them. The
//! functions here price a whole-image sequential line stream through each
//! tier by *replaying* it against the real [`crate::system::MemorySystem`]
//! timing/energy models — no new constants, no wall clock, and the same
//! byte count always yields the same cost, so cache decisions built on top
//! stay deterministic.

use crate::llc::{LLC_ACCESS_PJ, LLC_HIT_CYCLES};
use crate::system::MemorySystem;
use crate::LINE_BYTES;

/// Cycle and energy cost of streaming one weight image out of a tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LoadCost {
    /// Cycles until the last line has arrived at the fabric edge
    /// (serialized line stream; no overlap with compute is assumed).
    pub cycles: u64,
    /// Dynamic energy spent in the memory system, picojoules.
    pub energy_pj: f64,
}

impl LoadCost {
    /// Component-wise sum, for stacking the memory stream with the
    /// fabric-side write phase.
    #[must_use]
    pub fn plus(self, other: LoadCost) -> LoadCost {
        LoadCost {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
        }
    }
}

/// Number of 32-byte lines needed to hold `bytes`.
#[must_use]
pub(crate) fn lines_of(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(u64::from(LINE_BYTES))
}

/// Cost of a cold load: every line of the image misses the LLC and
/// streams from DRAM, paying activate/CAS/burst timing plus the LLC fill.
/// The replay walks sequential addresses from a cold `MemorySystem`, so
/// channel interleave and row-buffer locality are exactly what the
/// system model says they are.
#[must_use]
pub fn dram_load(bytes: usize) -> LoadCost {
    let lines = lines_of(bytes);
    let mut mem = MemorySystem::new_maicc();
    let mut t = 0u64;
    for i in 0..lines {
        // weight images are far smaller than the 64 MB channel stride
        // window, so u32 addressing cannot wrap
        t = mem.access(i as u32 * LINE_BYTES, false, t);
    }
    LoadCost {
        cycles: t,
        energy_pj: mem.stats().dynamic_pj(),
    }
}

/// Cost of a warm-tier load: the image is already resident in the edge
/// LLCs, so every line is a hit — `LLC_HIT_CYCLES` latency and one
/// array touch per line.
#[must_use]
pub fn llc_load(bytes: usize) -> LoadCost {
    let lines = lines_of(bytes);
    LoadCost {
        cycles: lines * LLC_HIT_CYCLES,
        energy_pj: lines as f64 * LLC_ACCESS_PJ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(dram_load(0), LoadCost::default());
        assert_eq!(llc_load(0), LoadCost::default());
    }

    #[test]
    fn llc_tier_is_cheaper_than_dram() {
        for bytes in [256usize, 9_216, 36_864] {
            let cold = dram_load(bytes);
            let warm = llc_load(bytes);
            assert!(warm.cycles < cold.cycles, "{bytes}: {warm:?} vs {cold:?}");
            assert!(warm.energy_pj < cold.energy_pj);
        }
    }

    #[test]
    fn costs_are_deterministic_and_monotone() {
        assert_eq!(dram_load(9_216), dram_load(9_216));
        assert!(dram_load(36_864).cycles > dram_load(9_216).cycles);
        assert!(llc_load(36_864).cycles > llc_load(9_216).cycles);
    }

    #[test]
    fn partial_line_rounds_up() {
        assert_eq!(lines_of(1), 1);
        assert_eq!(lines_of(32), 1);
        assert_eq!(lines_of(33), 2);
        assert_eq!(llc_load(1).cycles, LLC_HIT_CYCLES);
    }
}
