//! The combined 32-tile memory system: one LLC tile in front of each DRAM
//! channel, addressed through the Table-1 DRAM window.

use crate::dram::{Dram, DramStats};
use crate::llc::{CacheStats, Llc, LLC_HIT_CYCLES};
use crate::{CHANNELS, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Interleave granularity across channels (2 KB, matching
/// `maicc_core::mem_map`).
pub(crate) const CHANNEL_STRIDE: u32 = 2048;

/// Timing and traffic summary of a memory-system run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MemStats {
    /// Aggregated LLC statistics.
    pub llc: CacheStats,
    /// Aggregated DRAM statistics.
    pub dram: DramStats,
}

impl MemStats {
    /// Total dynamic energy, picojoules.
    #[must_use]
    pub fn dynamic_pj(&self) -> f64 {
        self.llc.dynamic_pj() + self.dram.dynamic_pj()
    }
}

/// The memory system the mesh's edge tiles implement.
#[derive(Debug)]
pub struct MemorySystem {
    tiles: Vec<Llc>,
    dram: Dram,
}

impl MemorySystem {
    /// The standard MAICC configuration: 32 channels, 64 KB 8-way LLC each
    /// (2 MB LLC total).
    #[must_use]
    pub fn new_maicc() -> Self {
        MemorySystem {
            tiles: (0..CHANNELS).map(|_| Llc::new_maicc_tile()).collect(),
            dram: Dram::new(CHANNELS),
        }
    }

    /// Creates a custom-sized system.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn new(channels: usize, llc_bytes: usize, ways: usize) -> Self {
        MemorySystem {
            tiles: (0..channels).map(|_| Llc::new(llc_bytes, ways)).collect(),
            dram: Dram::new(channels),
        }
    }

    /// Which channel a DRAM-window offset maps to.
    #[must_use]
    pub(crate) fn channel_of(&self, dram_offset: u32) -> usize {
        ((dram_offset / CHANNEL_STRIDE) as usize) % self.tiles.len()
    }

    /// Serves one 32-byte-line access at DRAM-window offset `dram_offset`;
    /// returns the completion cycle.
    pub fn access(&mut self, dram_offset: u32, is_write: bool, now: u64) -> u64 {
        let ch = self.channel_of(dram_offset);
        let line = dram_offset & !(LINE_BYTES - 1);
        let r = self.tiles[ch].access(line, is_write);
        let mut done = now + LLC_HIT_CYCLES;
        if !r.hit {
            done = self.dram.access(ch, line, false, done);
        }
        if let Some(victim) = r.writeback {
            // the write-back drains behind the fill on the same channel
            done = done.max(self.dram.access(ch, victim, true, done));
        }
        done
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut llc = CacheStats::default();
        for t in &self.tiles {
            llc.hits += t.stats().hits;
            llc.misses += t.stats().misses;
            llc.writebacks += t.stats().writebacks;
        }
        MemStats {
            llc,
            dram: self.dram.total_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_is_faster_than_miss() {
        let mut m = MemorySystem::new_maicc();
        let t1 = m.access(0x40, false, 0);
        let t2 = m.access(0x40, false, t1) - t1;
        assert!(t2 < t1);
        assert_eq!(t2, LLC_HIT_CYCLES);
    }

    #[test]
    fn addresses_interleave_across_channels() {
        let m = MemorySystem::new_maicc();
        assert_eq!(m.channel_of(0), 0);
        assert_eq!(m.channel_of(2048), 1);
        assert_eq!(m.channel_of(31 * 2048), 31);
        assert_eq!(m.channel_of(32 * 2048), 0);
    }

    #[test]
    fn writeback_traffic_reaches_dram() {
        let mut m = MemorySystem::new(1, 128, 2);
        let mut t = 0;
        // dirty lines that thrash the tiny cache
        for i in 0..32u32 {
            t = m.access(i * 64, true, t);
        }
        let s = m.stats();
        assert!(s.dram.writes > 0, "{s:?}");
        assert!(s.llc.writebacks > 0);
    }

    #[test]
    fn parallel_channels_outpace_single() {
        // same number of lines, spread vs single channel
        let mut spread = MemorySystem::new_maicc();
        let mut t_spread = 0;
        for i in 0..64u32 {
            let done = spread.access(i * CHANNEL_STRIDE, false, 0);
            t_spread = t_spread.max(done);
        }
        let mut single = MemorySystem::new_maicc();
        let mut t_single = 0;
        for i in 0..64u32 {
            t_single = single.access(i * LINE_BYTES, false, t_single).max(t_single);
        }
        assert!(t_spread < t_single);
    }

    #[test]
    fn stats_energy_accumulates() {
        let mut m = MemorySystem::new_maicc();
        m.access(0, false, 0);
        m.access(0, false, 100);
        assert!(m.stats().dynamic_pj() > 0.0);
        assert_eq!(m.stats().llc.hits, 1);
        assert_eq!(m.stats().llc.misses, 1);
    }
}
