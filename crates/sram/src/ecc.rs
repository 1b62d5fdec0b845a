//! SECDED-style per-row parity protection for CMem slices.
//!
//! Every 256-bit row conceptually carries a (64,57)-Hamming-per-word check
//! field: parity is regenerated whenever a row is (re)written (`Move.C`,
//! `SetRow.C`, vertical byte stores, remote row loads) and checked on every
//! bit-line activation that reads the row (byte loads, `MAC.C` operand
//! activation, `Move.C` source reads, remote row stores).
//!
//! The model does not simulate the check bits themselves; it tracks, per
//! row, the set of cells whose stored value *disagrees* with the parity
//! computed at write time (stuck-at cells forced after a write, transient
//! upsets latched on the move path). On activation:
//!
//! * [`EccMode::DetectOnly`] — any mismatched cell in an activated row
//!   raises [`SramError::EccUncorrectable`]; the operation does not
//!   produce a value. This is the detection trigger for checkpoint/replay.
//! * [`EccMode::Correct`] — a row with exactly **one** mismatched cell is
//!   corrected on the fly (the operation observes the intended value; the
//!   array keeps the faulty one, as real correct-on-read does); two or
//!   more mismatches in one row are detected-uncorrectable.
//! * Transient upsets drawn on read/MAC paths are single-bit by
//!   construction, so `Correct` always absorbs them and `DetectOnly`
//!   always surfaces them.
//!
//! [`EccMode::Off`] (the default) keeps the entire layer out of the way:
//! no bookkeeping, no counters, no cycle or energy surcharge — bit- and
//! cycle-identical to the unprotected model.
//!
//! The cycle surcharge is analytic (`crate::timing::ecc_check_cycles`
//! and friends) and accumulated in [`EccStats::cycle_surcharge`]; the
//! energy surcharge flows through the existing
//! [`EnergyMeter`](crate::energy::EnergyMeter) via its ECC counters.
//!
//! [`SramError::EccUncorrectable`]: crate::SramError::EccUncorrectable

use crate::{NUM_SLICES, SLICE_ROWS};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

// `EccState::recorded` keeps one bit per row of a slice in a `u64`.
const _: () = assert!(SLICE_ROWS <= u64::BITS as usize);

/// ECC protection level of a [`Cmem`](crate::cmem::Cmem).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccMode {
    /// No protection: zero bookkeeping, zero surcharge, bit-identical to
    /// the unprotected model.
    #[default]
    Off,
    /// Parity is checked on activation; any mismatch raises
    /// [`SramError::EccUncorrectable`](crate::SramError::EccUncorrectable).
    DetectOnly,
    /// Single-bit errors per row are corrected on the fly; multi-bit
    /// errors are detected-uncorrectable.
    Correct,
}

impl EccMode {
    /// `true` for any mode that performs checks.
    #[must_use]
    pub fn is_on(self) -> bool {
        self != EccMode::Off
    }
}

/// Counters of ECC activity on one CMem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccStats {
    /// Read-class operations whose activated rows were checked.
    pub checks: u64,
    /// Write-class operations whose rows had parity regenerated.
    pub encodes: u64,
    /// Single-bit errors corrected on the fly (Correct mode only).
    pub corrected: u64,
    /// Errors detected but not correctable (every detection in DetectOnly
    /// mode; multi-bit-per-row errors in Correct mode).
    pub detected_uncorrectable: u64,
    /// Analytic extra cycles spent encoding/checking/correcting.
    pub cycle_surcharge: u64,
}

impl EccStats {
    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &EccStats) {
        self.checks += other.checks;
        self.encodes += other.encodes;
        self.corrected += other.corrected;
        self.detected_uncorrectable += other.detected_uncorrectable;
        self.cycle_surcharge += other.cycle_surcharge;
    }
}

/// Live ECC state owned by a [`Cmem`](crate::cmem::Cmem) when protection
/// is enabled. `Off` mode keeps the owning `Option` empty so the guard is
/// a single null check on every primitive.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EccState {
    /// Active protection level (never [`EccMode::Off`] while this exists).
    pub(crate) mode: EccMode,
    /// Running counters.
    pub(crate) stats: EccStats,
    /// Per `(slice, row)`: cells whose stored bit disagrees with the
    /// parity computed at the row's last write, as `(col, intended)`.
    pub(crate) mismatches: HashMap<(usize, usize), Vec<(usize, bool)>>,
    /// Per slice, bit `row` is set while `(slice, row)` has an entry in
    /// `mismatches`, so a row range without records costs one bit test
    /// instead of a lookup per row.
    recorded: [u64; NUM_SLICES],
    /// No fault had changed the array when this state was created, so
    /// `mismatches` lists every cell a fault has changed since.
    pub(crate) complete: bool,
}

impl EccState {
    /// A state with no records; `complete` says whether the array holds
    /// no fault-changed cell at this moment.
    pub(crate) fn new(mode: EccMode, complete: bool) -> Self {
        debug_assert!(mode.is_on());
        EccState {
            mode,
            stats: EccStats::default(),
            mismatches: HashMap::new(),
            recorded: [0; NUM_SLICES],
            complete,
        }
    }

    /// The rows of `rows` (clamped to the slice) in `slice` that have a
    /// record, ascending.
    pub(crate) fn recorded_rows(
        &self,
        slice: usize,
        rows: Range<usize>,
    ) -> impl Iterator<Item = usize> {
        let (lo, hi) = (rows.start.min(SLICE_ROWS), rows.end.min(SLICE_ROWS));
        let span = if lo < hi {
            (u64::MAX >> (64 - (hi - lo))) << lo
        } else {
            0
        };
        let mut bits = self.recorded[slice] & span;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let row = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                row
            })
        })
    }

    /// Records that `(slice, row, col)` holds a value the row parity does
    /// not cover; keeps the first record if the cell is already listed.
    pub(crate) fn note_mismatch(&mut self, slice: usize, row: usize, col: usize, intended: bool) {
        self.recorded[slice] |= 1 << row;
        let entry = self.mismatches.entry((slice, row)).or_default();
        if !entry.iter().any(|&(c, _)| c == col) {
            entry.push((col, intended));
        }
    }

    /// Parity regenerated over (part of) a row: forget mismatches the
    /// write covered. `col` restricts the clear to one bit-line (vertical
    /// byte stores rewrite a single column of eight rows).
    pub(crate) fn clear_row(&mut self, slice: usize, row: usize, col: Option<usize>) {
        let keep = col.is_some_and(|c| {
            self.mismatches.get_mut(&(slice, row)).is_some_and(|v| {
                v.retain(|&(col0, _)| col0 != c);
                !v.is_empty()
            })
        });
        if !keep {
            self.mismatches.remove(&(slice, row));
            self.recorded[slice] &= !(1 << row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_and_default() {
        assert_eq!(EccMode::default(), EccMode::Off);
        assert!(!EccMode::Off.is_on());
        assert!(EccMode::DetectOnly.is_on());
    }

    #[test]
    fn stats_merge_adds_every_field() {
        let mut a = EccStats {
            checks: 1,
            encodes: 2,
            corrected: 3,
            detected_uncorrectable: 4,
            cycle_surcharge: 5,
        };
        a.merge(&EccStats {
            checks: 10,
            encodes: 20,
            corrected: 30,
            detected_uncorrectable: 40,
            cycle_surcharge: 50,
        });
        assert_eq!(a.checks, 11);
        assert_eq!(a.encodes, 22);
        assert_eq!(a.corrected, 33);
        assert_eq!(a.detected_uncorrectable, 44);
        assert_eq!(a.cycle_surcharge, 55);
    }

    /// The row bitmask marks exactly the rows that have records.
    fn assert_mask_agrees(st: &EccState) {
        for slice in 0..NUM_SLICES {
            for row in 0..SLICE_ROWS {
                let marked = (st.recorded[slice] >> row) & 1 == 1;
                let listed = st.mismatches.contains_key(&(slice, row));
                assert_eq!(marked, listed, "slice {slice} row {row}");
            }
            let rows: Vec<usize> = st.recorded_rows(slice, 0..SLICE_ROWS + 8).collect();
            let mut listed: Vec<usize> = (0..SLICE_ROWS)
                .filter(|&row| st.mismatches.contains_key(&(slice, row)))
                .collect();
            assert_eq!(rows, listed);
            listed.retain(|row| (3..9).contains(row));
            assert_eq!(st.recorded_rows(slice, 3..9).collect::<Vec<_>>(), listed);
        }
    }

    #[test]
    fn mismatch_bookkeeping_first_record_wins_and_clears() {
        let mut st = EccState::new(EccMode::Correct, true);
        st.note_mismatch(1, 2, 3, true);
        st.note_mismatch(1, 2, 3, false); // duplicate cell: first wins
        assert_eq!(st.mismatches[&(1, 2)], vec![(3, true)]);
        st.note_mismatch(1, 2, 9, false);
        assert_eq!(st.mismatches[&(1, 2)].len(), 2);
        st.note_mismatch(1, 63, 0, true);
        st.note_mismatch(7, 8, 4, false);
        assert_mask_agrees(&st);
        // column-restricted clear removes only the covered cell
        st.clear_row(1, 2, Some(3));
        assert_eq!(st.mismatches[&(1, 2)], vec![(9, false)]);
        assert_mask_agrees(&st);
        // removing the row's last record clears its bit
        st.clear_row(1, 2, Some(9));
        assert!(!st.mismatches.contains_key(&(1, 2)));
        assert_mask_agrees(&st);
        // full-row clear forgets the row
        st.note_mismatch(1, 2, 9, false);
        st.clear_row(1, 2, None);
        assert!(!st.mismatches.contains_key(&(1, 2)));
        assert_mask_agrees(&st);
        // clearing an unknown row is a no-op
        st.clear_row(5, 5, None);
        st.clear_row(5, 5, Some(1));
        st.clear_row(7, 8, Some(5));
        assert_eq!(st.mismatches[&(7, 8)], vec![(4, false)]);
        assert_mask_agrees(&st);
        assert_eq!(st.recorded_rows(1, 60..60).count(), 0);
        assert_eq!(st.recorded_rows(1, 64..72).count(), 0);
    }
}
