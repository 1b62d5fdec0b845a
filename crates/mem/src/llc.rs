//! Set-associative write-back last-level cache with LRU replacement.
//!
//! One such cache sits in each of the 32 edge tiles (Figure 3(a)), caching
//! its DRAM channel. The model tracks tags, dirtiness and recency; data
//! values live in whatever backing store the simulator attaches (the LLC's
//! job in the evaluation is timing and filtering DRAM traffic).

use serde::{Deserialize, Serialize};

/// Cache access latency in cycles.
pub(crate) const LLC_HIT_CYCLES: u64 = 6;

/// Energy of one LLC access, pJ (McPAT-derived estimate for a 64 KB bank).
pub(crate) const LLC_ACCESS_PJ: f64 = 25.0;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim line's base address, if one was evicted.
    pub writeback: Option<u32>,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate over all lookups.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }

    /// Dynamic energy in picojoules (each lookup touches the array once;
    /// fills and writebacks touch it again).
    #[must_use]
    pub(crate) fn dynamic_pj(&self) -> f64 {
        (self.hits + 2 * self.misses + self.writebacks) as f64 * LLC_ACCESS_PJ
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// One LLC tile.
#[derive(Debug, Clone)]
pub(crate) struct Llc {
    sets: usize,
    ways: usize,
    line_bytes: u32,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// 32-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity not a
    /// multiple of `ways × 32`, or a non-power-of-two set count).
    #[must_use]
    pub(crate) fn new(capacity_bytes: usize, ways: usize) -> Self {
        let line_bytes = crate::LINE_BYTES;
        assert!(ways > 0, "need at least one way");
        let lines_total = capacity_bytes / line_bytes as usize;
        assert_eq!(
            lines_total % ways,
            0,
            "capacity must divide into whole sets"
        );
        let sets = lines_total / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Llc {
            sets,
            ways,
            line_bytes,
            lines: vec![Line::default(); lines_total],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The standard MAICC LLC tile: 64 KB, 8-way.
    #[must_use]
    pub(crate) fn new_maicc_tile() -> Self {
        Self::new(64 * 1024, 8)
    }

    /// Capacity in bytes.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.sets * self.ways * self.line_bytes as usize
    }

    /// Statistics so far.
    #[must_use]
    pub(crate) fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Looks up (and on miss, fills) the line containing `addr`; marks it
    /// dirty on writes. Returns hit/miss and any dirty victim.
    pub(crate) fn access(&mut self, addr: u32, is_write: bool) -> LookupResult {
        self.tick += 1;
        let line_addr = addr / self.line_bytes;
        let set = (line_addr as usize) % self.sets;
        let tag = line_addr / self.sets as u32;
        let base = set * self.ways;
        // hit?
        for i in 0..self.ways {
            let line = &mut self.lines[base + i];
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return LookupResult {
                    hit: true,
                    writeback: None,
                };
            }
        }
        // miss: choose LRU victim
        self.stats.misses += 1;
        let victim = (0..self.ways)
            .min_by_key(|&i| {
                let l = &self.lines[base + i];
                if l.valid {
                    l.lru + 1
                } else {
                    0
                }
            })
            .expect("ways > 0");
        let line = &mut self.lines[base + victim];
        let writeback = if line.valid && line.dirty {
            self.stats.writebacks += 1;
            Some((line.tag * self.sets as u32 + set as u32) * self.line_bytes)
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        LookupResult {
            hit: false,
            writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Llc::new(1024, 2);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x11F, false).hit, "same 32-byte line");
        assert!(!c.access(0x120, false).hit, "next line");
    }

    #[test]
    fn capacity_geometry() {
        let c = Llc::new_maicc_tile();
        assert_eq!(c.capacity(), 64 * 1024);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, tiny: lines mapping to the same set
        let mut c = Llc::new(128, 2); // 4 lines, 2 sets
        let set_stride = 2 * 32; // same set every 64 bytes
        c.access(0, false);
        c.access(set_stride as u32, false);
        c.access(0, false); // refresh line 0
        c.access(2 * set_stride as u32, false); // evicts set_stride line
        assert!(c.access(0, false).hit);
        assert!(!c.access(set_stride as u32, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Llc::new(128, 2);
        let set_stride = 64u32;
        c.access(0, true); // dirty
        c.access(set_stride, false);
        let r = c.access(2 * set_stride, false); // evicts addr 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Llc::new(128, 2);
        let set_stride = 64u32;
        c.access(0, false);
        c.access(set_stride, false);
        let r = c.access(2 * set_stride, false);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn streaming_larger_than_capacity_misses() {
        let mut c = Llc::new(1024, 4);
        for pass in 0..2 {
            for i in 0..64u32 {
                let r = c.access(i * 32, false);
                assert!(!r.hit, "pass {pass} line {i} should miss (thrashing)");
            }
        }
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = Llc::new_maicc_tile();
        for _ in 0..10 {
            for i in 0..16u32 {
                c.access(i * 32, false);
            }
        }
        assert!(c.stats().hit_rate() > 0.85);
    }

    proptest! {
        #[test]
        fn prop_second_access_always_hits(addr in any::<u32>()) {
            let mut c = Llc::new(4096, 4);
            c.access(addr, false);
            prop_assert!(c.access(addr, true).hit);
        }

        #[test]
        fn prop_writeback_address_maps_to_same_set(
            addrs in proptest::collection::vec(any::<u32>(), 1..100)
        ) {
            let mut c = Llc::new(1024, 2);
            let sets = 16u32; // 1024/32/2
            for a in addrs {
                let set = (a / 32) % sets;
                if let Some(wb) = c.access(a, true).writeback {
                    prop_assert_eq!((wb / 32) % sets, set);
                }
            }
        }
    }
}
