//! Host-speed reference.
//!
//! The benchmark runs on shared virtual machines whose speed drops by a
//! third or more, for seconds to minutes at a time, under other tenants'
//! load, with the thread on a CPU the whole time. A run that falls wholly
//! inside such a stretch has no fast pass at all, so even its fastest
//! pass reads slow. A fixed reference block, timed between the passes,
//! sees the same stretch: the fastest block of a run tells how fast the
//! host got during it, and `wall_s` restates the fastest pass at the
//! speed where the fastest block takes [`NOMINAL_BLOCK_S`]. The block is
//! the benchmark's own code, so no change to the simulator moves it.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the reference table: 64 KiB, which stays in a core's L2
/// cache.
const TABLE_LEN: usize = 1 << 13;
/// Table lookups per block.
const LOOKUPS: u32 = 300_000;
/// Seconds the fastest block of a run takes on the 2-core x86-64 VM the
/// benchmark was tuned on, when other tenants leave it alone.
pub const NOMINAL_BLOCK_S: f64 = 0.003;

pub struct Reference {
    table: Vec<u64>,
    blocks: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: (0..TABLE_LEN as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            blocks: Vec::new(),
        }
    }

    /// Times one block: integer mixing, popcounts, loads from the table
    /// and branches on what they load, as a simulator's inner loops do.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let table = black_box(&self.table);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..black_box(LOOKUPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = table[(x ^ acc) as usize % TABLE_LEN];
            acc = if v & 1 == 0 {
                acc.wrapping_add(u64::from((v & x).count_ones()))
            } else {
                acc.rotate_left(5) ^ v
            };
        }
        black_box(acc);
        self.blocks.push(start.elapsed().as_secs_f64());
    }

    /// Blocks timed so far.
    pub fn samples(&self) -> usize {
        self.blocks.len()
    }

    /// The fastest block so far, seconds; infinite before the first.
    pub fn fastest(&self) -> f64 {
        self.blocks.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// `seconds` measured during this run, restated at the host speed
    /// where the fastest block takes [`NOMINAL_BLOCK_S`].
    pub fn restate(&self, seconds: f64) -> f64 {
        seconds * NOMINAL_BLOCK_S / self.fastest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restates_at_the_fastest_block() {
        let mut r = Reference::new();
        r.blocks = vec![0.006, 0.004, 0.009];
        assert_eq!(r.samples(), 3);
        assert_eq!(r.fastest(), 0.004);
        assert!((r.restate(2.0) - 2.0 * NOMINAL_BLOCK_S / 0.004).abs() < 1e-12);
        r.sample();
        assert_eq!(r.samples(), 4);
        assert!(r.fastest() > 0.0 && r.fastest() <= 0.004);
    }
}
