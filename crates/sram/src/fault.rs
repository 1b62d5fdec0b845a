//! Fault injection for the CMem model: transient bit upsets, stuck-at
//! cells, and dead slices.
//!
//! A [`FaultPlan`] is a *declarative, seeded* description of what is wrong
//! with one node's computing memory. Attaching a plan to a
//! [`Cmem`](crate::cmem::Cmem) makes every read/MAC-class primitive consult
//! it:
//!
//! * **transient upsets** — with probability [`FaultPlan::transient_flip_rate`]
//!   per operation, one bit of the value being read or produced flips
//!   (the array itself is untouched — a soft error in the sense-amp /
//!   adder-tree path);
//! * **stuck-at cells** — enforced *at write time*: a cell that is stuck
//!   cannot hold the written value, so every later read (byte load, MAC,
//!   row transfer) consistently observes the stuck value;
//! * **dead slices** — every access to a listed slice fails with the typed
//!   error [`SramError::SliceFailed`], which is how the surrounding fabric
//!   *detects* the fault and can remap around the node.
//!
//! All paths are off by default: a CMem without a plan — or with
//! [`FaultPlan::none`] attached — performs **zero** extra RNG draws and is
//! bit- and cycle-identical to the unfaulted model (regression-tested here
//! and in `maicc-sim`).
//!
//! Injected events are tallied twice: in the plan-local [`FaultStats`]
//! (what happened, by kind) and in the existing
//! [`EnergyMeter`](crate::energy::EnergyMeter) via its `fault_events`
//! counter, so chip-level energy reports carry fault counts alongside the
//! per-primitive energy totals they already aggregate.

use serde::{Deserialize, Serialize};

use crate::{BITLINES, NUM_SLICES, SLICE_ROWS};

/// Deterministic splitmix64 stream used for fault scheduling.
///
/// Self-contained so the fault model needs no external RNG crate and a
/// given `(seed, workload)` pair always injects the same faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a stream from a seed.
    #[must_use]
    pub(crate) fn new(seed: u64) -> Self {
        FaultRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next pseudo-random 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Bernoulli draw.
    ///
    /// `p <= 0` returns `false` **without consuming the stream** — this is
    /// what makes a quiet plan bit-identical to no plan at all.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 uniform mantissa bits: plenty of resolution for fault rates.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// The value a faulty cell is stuck at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StuckAt {
    /// Cell always reads 0.
    Zero,
    /// Cell always reads 1.
    One,
}

/// One permanently faulty SRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StuckCell {
    /// Slice holding the cell (`0..NUM_SLICES`).
    pub slice: usize,
    /// Word-line of the cell (`0..SLICE_ROWS`).
    pub row: usize,
    /// Bit-line of the cell (`0..BITLINES`).
    pub col: usize,
    /// Which value the cell is stuck at.
    pub value: StuckAt,
}

/// Declarative fault schedule for one CMem.
///
/// Build with the fluent constructors and attach via
/// [`Cmem::attach_fault_plan`](crate::cmem::Cmem::attach_fault_plan):
///
/// ```
/// use maicc_sram::fault::{FaultPlan, StuckAt};
///
/// let plan = FaultPlan::with_seed(7)
///     .transient(1e-3)
///     .stuck(3, 8, 17, StuckAt::One)
///     .dead_slice(6);
/// assert!(!plan.is_quiet());
/// assert!(FaultPlan::none().is_quiet());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Per-operation probability of a single-bit transient upset.
    pub transient_flip_rate: f64,
    /// Permanently faulty cells, enforced at write time.
    pub stuck_cells: Vec<StuckCell>,
    /// Slices whose every access fails with [`SramError::SliceFailed`].
    ///
    /// [`SramError::SliceFailed`]: crate::SramError::SliceFailed
    pub dead_slices: Vec<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: attaching it changes nothing, bit for bit.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_flip_rate: 0.0,
            stuck_cells: Vec::new(),
            dead_slices: Vec::new(),
        }
    }

    /// Starts an otherwise-empty plan with an RNG seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// Sets the per-operation transient single-bit-flip probability.
    #[must_use]
    pub fn transient(mut self, rate: f64) -> Self {
        self.transient_flip_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds one stuck-at cell.
    #[must_use]
    pub fn stuck(mut self, slice: usize, row: usize, col: usize, value: StuckAt) -> Self {
        self.stuck_cells.push(StuckCell {
            slice,
            row,
            col,
            value,
        });
        self
    }

    /// Marks one slice dead.
    #[must_use]
    pub fn dead_slice(mut self, slice: usize) -> Self {
        if !self.dead_slices.contains(&slice) {
            self.dead_slices.push(slice);
        }
        self
    }

    /// Scatters `count` stuck cells uniformly over the whole CMem,
    /// deterministically from this plan's seed (campaign helper).
    #[must_use]
    pub fn scatter_stuck(mut self, count: usize) -> Self {
        let mut rng = FaultRng::new(self.seed.wrapping_mul(0xA24B_AED4_963E_E407));
        for _ in 0..count {
            let slice = rng.below(NUM_SLICES as u64) as usize;
            let row = rng.below(SLICE_ROWS as u64) as usize;
            let col = rng.below(BITLINES as u64) as usize;
            let value = if rng.next_u64() & 1 == 1 {
                StuckAt::One
            } else {
                StuckAt::Zero
            };
            self.stuck_cells.push(StuckCell {
                slice,
                row,
                col,
                value,
            });
        }
        self
    }

    /// `true` when the plan can never inject anything.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.transient_flip_rate <= 0.0 && self.stuck_cells.is_empty() && self.dead_slices.is_empty()
    }
}

/// Tally of injected fault events, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Transient single-bit upsets applied to read/MAC results.
    pub transient_flips: u64,
    /// Bits forced by stuck-at enforcement after writes.
    pub stuck_bits_forced: u64,
    /// Accesses rejected because they targeted a dead slice.
    pub dead_slice_hits: u64,
}

impl FaultStats {
    /// Total number of fault events of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transient_flips + self.stuck_bits_forced + self.dead_slice_hits
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.transient_flips += other.transient_flips;
        self.stuck_bits_forced += other.stuck_bits_forced;
        self.dead_slice_hits += other.dead_slice_hits;
    }
}

/// Live injection state owned by a [`Cmem`](crate::cmem::Cmem) once a plan
/// is attached: the plan, its private RNG stream, and the running tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct FaultState {
    /// The attached plan.
    pub plan: FaultPlan,
    /// Private RNG stream, seeded from the plan.
    pub rng: FaultRng,
    /// Events injected so far.
    pub stats: FaultStats,
}

impl FaultState {
    /// Builds the live state for a plan.
    #[must_use]
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// `true` if `slice` is configured dead.
    #[must_use]
    pub(crate) fn is_dead(&self, slice: usize) -> bool {
        self.plan.dead_slices.contains(&slice)
    }

    /// Draws a transient upset: `Some(bit)` with the plan's flip rate,
    /// where `bit < width`. Consumes no RNG when the rate is zero.
    pub(crate) fn draw_flip(&mut self, width: u64) -> Option<u64> {
        if self.rng.chance(self.plan.transient_flip_rate) {
            self.stats.transient_flips += 1;
            Some(self.rng.below(width))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_quiet_at_zero_rate() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        // chance(0) must not consume the stream
        let before = a.clone();
        assert!(!a.chance(0.0));
        assert_eq!(a, before);
        assert!(a.chance(1.0));
        assert_eq!(a, before, "certain outcomes must not consume either");
    }

    #[test]
    fn chance_tracks_probability_roughly() {
        let mut rng = FaultRng::new(3);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn builder_accumulates_and_quietness_detects() {
        let p = FaultPlan::with_seed(1)
            .transient(0.5)
            .stuck(2, 3, 4, StuckAt::Zero)
            .dead_slice(7)
            .dead_slice(7);
        assert_eq!(p.dead_slices, vec![7]);
        assert_eq!(p.stuck_cells.len(), 1);
        assert!(!p.is_quiet());
        assert!(FaultPlan::none().is_quiet());
        assert!(FaultPlan::with_seed(9).is_quiet());
    }

    #[test]
    fn scatter_is_deterministic_and_in_bounds() {
        let a = FaultPlan::with_seed(11).scatter_stuck(100);
        let b = FaultPlan::with_seed(11).scatter_stuck(100);
        assert_eq!(a, b);
        for c in &a.stuck_cells {
            assert!(c.slice < NUM_SLICES && c.row < SLICE_ROWS && c.col < BITLINES);
        }
        let c = FaultPlan::with_seed(12).scatter_stuck(100);
        assert_ne!(a, c);
    }

    #[test]
    fn draw_flip_counts_and_bounds() {
        let mut st = FaultState::new(FaultPlan::with_seed(5).transient(1.0));
        for _ in 0..100 {
            let bit = st.draw_flip(8).expect("rate 1.0 always flips");
            assert!(bit < 8);
        }
        assert_eq!(st.stats.transient_flips, 100);

        let mut quiet = FaultState::new(FaultPlan::none());
        let before = quiet.clone();
        assert!(quiet.draw_flip(8).is_none());
        assert_eq!(quiet, before, "quiet plan must not consume RNG");
    }

    #[test]
    fn stats_merge_and_total() {
        let mut a = FaultStats {
            transient_flips: 1,
            stuck_bits_forced: 2,
            dead_slice_hits: 3,
        };
        let b = FaultStats {
            transient_flips: 10,
            stuck_bits_forced: 20,
            dead_slice_hits: 30,
        };
        a.merge(&b);
        assert_eq!(a.total(), 66);
    }
}
