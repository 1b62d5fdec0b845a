//! Banked DRAM channel timing with an open-page row-buffer policy.
//!
//! Each channel has eight banks; each bank keeps its last-activated row
//! open. A request pays:
//!
//! * **row hit**: `tCAS + tBURST`;
//! * **row miss (bank idle)**: `tRCD + tCAS + tBURST`;
//! * **row conflict (other row open)**: `tRP + tRCD + tCAS + tBURST`;
//!
//! all serialized behind the channel's data bus. Timing constants are in
//! core cycles at 1 GHz and sized like DDR4-2400; the evaluation consumes
//! relative behaviour (hit/miss ratios, bandwidth ceilings), not vendor
//! datasheet fidelity.

use serde::{Deserialize, Serialize};

/// Precharge latency (cycles).
pub(crate) const T_RP: u64 = 14;
/// Activate-to-read latency (cycles).
pub(crate) const T_RCD: u64 = 14;
/// Column access latency (cycles).
pub(crate) const T_CAS: u64 = 14;
/// Data burst occupancy of the channel per 32-byte line (cycles).
pub(crate) const T_BURST: u64 = 4;
/// Row-buffer size in bytes.
pub(crate) const ROW_BYTES: u32 = 2048;
/// Banks per channel.
pub(crate) const BANKS: usize = 8;
/// Refresh interval in cycles (DDR4 tREFI ≈ 7.8 µs at 1 GHz).
pub(crate) const T_REFI: u64 = 7800;
/// Refresh duration in cycles (tRFC ≈ 350 ns); all banks blocked and all
/// rows closed.
pub(crate) const T_RFC: u64 = 350;

/// Energy of one row activation (activate + precharge), pJ.
pub const ACTIVATE_PJ: f64 = 1800.0;
/// Energy of one 32-byte read burst, pJ.
pub const READ_PJ: f64 = 650.0;
/// Energy of one 32-byte write burst, pJ.
pub const WRITE_PJ: f64 = 700.0;
/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Read bursts served.
    pub reads: u64,
    /// Write bursts served.
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required activating a row.
    pub row_misses: u64,
    /// Requests that also required a precharge first.
    pub row_conflicts: u64,
    /// Requests delayed by a refresh window.
    pub refresh_stalls: u64,
}

impl DramStats {
    /// Row-buffer hit rate.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.reads + self.writes;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Dynamic energy in picojoules.
    #[must_use]
    pub(crate) fn dynamic_pj(&self) -> f64 {
        (self.row_misses + self.row_conflicts) as f64 * ACTIVATE_PJ
            + self.reads as f64 * READ_PJ
            + self.writes as f64 * WRITE_PJ
    }
}

/// One DRAM channel.
#[derive(Debug, Clone)]
pub(crate) struct DramChannel {
    /// Open row per bank (`None` = all precharged).
    open_row: [Option<u32>; BANKS],
    /// When the channel's bus frees.
    bus_free: u64,
    /// When each bank frees.
    bank_free: [u64; BANKS],
    /// The refresh epoch (`now / T_REFI`) last observed; crossing an epoch
    /// closes every row.
    refresh_epoch: u64,
    stats: DramStats,
}

impl Default for DramChannel {
    fn default() -> Self {
        Self::new()
    }
}

impl DramChannel {
    /// Creates an idle channel with all banks precharged.
    #[must_use]
    pub(crate) fn new() -> Self {
        DramChannel {
            open_row: [None; BANKS],
            bus_free: 0,
            bank_free: [0; BANKS],
            refresh_epoch: 0,
            stats: DramStats::default(),
        }
    }

    /// Statistics so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Serves one 32-byte access to channel-local address `addr` at time
    /// `now`; returns the completion cycle.
    pub(crate) fn access(&mut self, addr: u32, is_write: bool, now: u64) -> u64 {
        let row = addr / ROW_BYTES;
        let bank = ((addr / ROW_BYTES) as usize) % BANKS;
        let mut start = now.max(self.bank_free[bank]).max(self.bus_free);
        // refresh: every T_REFI the channel stalls T_RFC and closes rows
        let epoch = start / T_REFI;
        if epoch > self.refresh_epoch {
            self.refresh_epoch = epoch;
            self.open_row = [None; BANKS];
        }
        if start % T_REFI < T_RFC && epoch > 0 {
            start = epoch * T_REFI + T_RFC;
            self.stats.refresh_stalls += 1;
        }
        let core = match self.open_row[bank] {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                T_CAS
            }
            None => {
                self.stats.row_misses += 1;
                T_RCD + T_CAS
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                T_RP + T_RCD + T_CAS
            }
        };
        self.open_row[bank] = Some(row);
        let done = start + core + T_BURST;
        self.bank_free[bank] = done;
        // the data bus is held only for the burst
        self.bus_free = done;
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        done
    }
}

/// The full striped DRAM: one channel per LLC tile.
#[derive(Debug, Clone)]
pub(crate) struct Dram {
    channels: Vec<DramChannel>,
}

impl Dram {
    /// Creates `n` idle channels.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        Dram {
            channels: (0..n).map(|_| DramChannel::new()).collect(),
        }
    }

    /// Number of channels.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Serves an access on a specific channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub(crate) fn access(&mut self, channel: usize, addr: u32, is_write: bool, now: u64) -> u64 {
        self.channels[channel].access(addr, is_write, now)
    }

    /// Aggregated statistics over all channels.
    #[must_use]
    pub(crate) fn total_stats(&self) -> DramStats {
        let mut t = DramStats::default();
        for c in &self.channels {
            t.reads += c.stats.reads;
            t.writes += c.stats.writes;
            t.row_hits += c.stats.row_hits;
            t.row_misses += c.stats.row_misses;
            t.row_conflicts += c.stats.row_conflicts;
            t.refresh_stalls += c.stats.refresh_stalls;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_access_is_row_miss() {
        let mut ch = DramChannel::new();
        let done = ch.access(0, false, 0);
        assert_eq!(done, T_RCD + T_CAS + T_BURST);
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn sequential_same_row_hits() {
        let mut ch = DramChannel::new();
        let t1 = ch.access(0, false, 0);
        let t2 = ch.access(32, false, t1);
        assert_eq!(t2 - t1, T_CAS + T_BURST);
        assert_eq!(ch.stats().row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut ch = DramChannel::new();
        let t1 = ch.access(0, false, 0);
        // +8 rows lands in the same bank, different row
        let t2 = ch.access(ROW_BYTES * BANKS as u32, false, t1);
        assert_eq!(t2 - t1, T_RP + T_RCD + T_CAS + T_BURST);
        assert_eq!(ch.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_parallelism_beats_one_bank() {
        // interleaved banks: bus serializes only the bursts
        let mut multi = DramChannel::new();
        let mut t = 0;
        for b in 0..4u32 {
            t = multi.access(b * ROW_BYTES, false, 0);
        }
        let mut single = DramChannel::new();
        let mut t2 = 0;
        for r in 0..4u32 {
            t2 = single.access(r * ROW_BYTES * BANKS as u32, false, 0);
        }
        assert!(t < t2, "bank-parallel {t} vs serial {t2}");
    }

    #[test]
    fn writes_counted_separately() {
        let mut ch = DramChannel::new();
        ch.access(0, true, 0);
        ch.access(32, false, 100);
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 1);
    }

    #[test]
    fn hit_rate_and_energy() {
        let mut ch = DramChannel::new();
        let mut t = 0;
        for i in 0..10u32 {
            t = ch.access(i * 32, false, t);
        }
        assert!(ch.stats().hit_rate() > 0.8);
        assert!(ch.stats().dynamic_pj() > 0.0);
    }

    #[test]
    fn dram_aggregates_channels() {
        let mut d = Dram::new(4);
        d.access(0, 0, false, 0);
        d.access(3, 0, true, 0);
        let s = d.total_stats();
        assert_eq!(s.reads + s.writes, 2);
        assert_eq!(d.channels(), 4);
    }

    #[test]
    fn refresh_window_stalls_and_closes_rows() {
        let mut ch = DramChannel::new();
        // open a row well before the first refresh
        let t1 = ch.access(0, false, 100);
        assert_eq!(ch.stats().row_misses, 1);
        let _ = t1;
        // an access landing inside the first refresh window gets pushed out
        let t2 = ch.access(32, false, T_REFI + 10);
        assert!(t2 >= T_REFI + T_RFC, "t2 = {t2}");
        assert_eq!(ch.stats().refresh_stalls, 1);
        // and the previously open row was closed by the refresh
        assert_eq!(ch.stats().row_hits, 0);
        assert_eq!(ch.stats().row_misses, 2);
    }

    #[test]
    fn accesses_between_refreshes_unaffected() {
        let mut ch = DramChannel::new();
        let t = ch.access(0, false, T_RFC + 1);
        assert_eq!(t, T_RFC + 1 + T_RCD + T_CAS + T_BURST);
        assert_eq!(ch.stats().refresh_stalls, 0);
    }

    proptest! {
        #[test]
        fn prop_completion_monotonic(addrs in proptest::collection::vec(any::<u32>(), 1..50)) {
            let mut ch = DramChannel::new();
            let mut t = 0;
            for a in addrs {
                let done = ch.access(a & 0x0FFF_FFE0, false, t);
                prop_assert!(done > t);
                t = done;
            }
        }

        #[test]
        fn prop_latency_bounded(a in any::<u32>(), b in any::<u32>()) {
            let mut ch = DramChannel::new();
            let t1 = ch.access(a & !31, false, 0);
            let t2 = ch.access(b & !31, false, t1);
            let max = T_RP + T_RCD + T_CAS + T_BURST;
            prop_assert!(t2 - t1 <= max);
            prop_assert!(t2 - t1 >= T_CAS + T_BURST);
        }
    }
}
