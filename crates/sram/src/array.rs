//! Word-line / bit-line accurate SRAM array model.
//!
//! An [`SramArray`] is a grid of 6T (or 8T, for CMem slice 0) bit cells
//! addressed by horizontal *word-lines* (rows) and vertical *bit-lines*
//! (columns). Beyond the ordinary single-row read/write, the model exposes
//! the **multi-row activation** of bit-line computing: activating two
//! word-lines at once makes every bit-line settle to the `AND` of the two
//! stored bits while the bit-line-bar pair yields their `NOR`
//! (Jeloka et al., JSSC 2016; Figure 2(a) of the MAICC paper).
//!
//! Rows are stored bit-packed in `u64` lanes so a 256-column row is four
//! words; all row-level logic is word-parallel.

use crate::SramError;

/// Number of bits per storage lane.
const LANE_BITS: usize = 64;

/// Number of lanes a [`LaneVec`] stores inline (256 bit-lines) before
/// spilling to the heap. Every CMem slice and Neural Cache array in the
/// model is 256 columns wide, so in practice the readout path never
/// allocates.
pub(crate) const INLINE_LANES: usize = 4;

/// A small fixed-capacity lane buffer: up to [`INLINE_LANES`] `u64` words
/// inline, heap spill only for wider arrays.
///
/// Dereferences to `[u64]`, so it drops into every place a packed row
/// slice is expected. Unused inline words are kept zeroed.
#[derive(Debug, Clone, Eq)]
pub(crate) struct LaneVec {
    inline: [u64; INLINE_LANES],
    len: usize,
    /// Used only when `len > INLINE_LANES`.
    spill: Vec<u64>,
}

impl LaneVec {
    /// A zeroed buffer of `len` lanes.
    #[must_use]
    #[inline]
    pub(crate) fn zeroed(len: usize) -> Self {
        LaneVec {
            inline: [0; INLINE_LANES],
            len,
            spill: if len > INLINE_LANES {
                vec![0; len]
            } else {
                Vec::new()
            },
        }
    }

    /// The stored lanes.
    #[must_use]
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u64] {
        if self.len > INLINE_LANES {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// The stored lanes, mutably.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        if self.len > INLINE_LANES {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    /// Resizes to `len` lanes, reusing the buffers (no allocation unless
    /// growing past both the inline capacity and any previous spill).
    #[inline]
    pub(crate) fn reset(&mut self, len: usize) {
        if len > INLINE_LANES {
            self.spill.clear();
            self.spill.resize(len, 0);
        } else {
            self.inline = [0; INLINE_LANES];
        }
        self.len = len;
    }
}

impl std::ops::Deref for LaneVec {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for LaneVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl PartialEq for LaneVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a LaneVec {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The result of simultaneously activating two word-lines: per-bit-line
/// `AND` (read from BL) and `NOR` (read from BLB) of the two stored bits.
///
/// Backed by [`LaneVec`], so for the model's 256-column arrays a readout
/// lives entirely on the stack — the multi-row activation hot loop is
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitlineReadout {
    /// `AND` of the two activated rows, one bit per bit-line.
    pub and: LaneVec,
    /// `NOR` of the two activated rows, one bit per bit-line.
    pub nor: LaneVec,
}

impl BitlineReadout {
    /// An empty readout sized for `lanes` lanes, for use as a reusable
    /// scratch buffer with [`SramArray::activate_pair_into`].
    #[must_use]
    #[inline]
    pub(crate) fn scratch(lanes: usize) -> Self {
        BitlineReadout {
            and: LaneVec::zeroed(lanes),
            nor: LaneVec::zeroed(lanes),
        }
    }

    /// `XOR` of the two activated rows, derived as `NOT(AND) AND NOT(NOR)`.
    ///
    /// This is how bit-serial adders obtain the sum bit from a single
    /// activation: `xor = !(and | nor)` per bit-line. Allocation-free for
    /// arrays of up to `64 × INLINE_LANES` columns.
    #[cfg(test)]
    #[must_use]
    #[inline]
    pub(crate) fn xor(&self) -> LaneVec {
        let mut out = LaneVec::zeroed(self.and.len());
        self.xor_into(&mut out);
        out
    }

    /// Writes the `XOR` readout into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the readout.
    #[cfg(test)]
    #[inline]
    pub(crate) fn xor_into(&self, out: &mut [u64]) {
        for (o, (&a, &n)) in out.iter_mut().zip(self.and.iter().zip(self.nor.iter())) {
            *o = !(a | n);
        }
    }
}

/// A bit-accurate SRAM array of `rows` word-lines by `cols` bit-lines.
///
/// # Example
///
/// ```
/// use maicc_sram::array::SramArray;
///
/// # fn main() -> Result<(), maicc_sram::SramError> {
/// let mut arr = SramArray::new(64, 256);
/// arr.write_bit(3, 17, true)?;
/// assert!(arr.read_bit(3, 17)?);
/// assert!(!arr.read_bit(3, 18)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SramArray {
    rows: usize,
    cols: usize,
    lanes: usize,
    /// `rows * lanes` packed words; row r occupies `data[r*lanes .. (r+1)*lanes]`.
    data: Vec<u64>,
}

impl SramArray {
    /// Creates a zero-initialised array of `rows` word-lines × `cols` bit-lines.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        let lanes = cols.div_ceil(LANE_BITS);
        SramArray {
            rows,
            cols,
            lanes,
            data: vec![0; rows * lanes],
        }
    }

    /// Number of word-lines.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit-lines.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of `u64` lanes per row.
    #[must_use]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    fn check_row(&self, row: usize) -> Result<(), SramError> {
        if row < self.rows {
            Ok(())
        } else {
            Err(SramError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        }
    }

    /// Mask covering the valid bits of the last lane.
    fn tail_mask(&self) -> u64 {
        let rem = self.cols % LANE_BITS;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Reads one whole word-line as packed lanes.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn read_row(&self, row: usize) -> Result<&[u64], SramError> {
        self.check_row(row)?;
        Ok(&self.data[row * self.lanes..(row + 1) * self.lanes])
    }

    /// Reads word-lines `rows` as one packed slice: row `rows.start + i`
    /// occupies words `i * lanes .. (i + 1) * lanes`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if the range runs past the
    /// last word-line.
    pub(crate) fn read_rows(&self, rows: std::ops::Range<usize>) -> Result<&[u64], SramError> {
        if rows.end > self.rows {
            return Err(SramError::RowOutOfRange {
                row: rows.end - 1,
                rows: self.rows,
            });
        }
        Ok(&self.data[rows.start * self.lanes..rows.end * self.lanes])
    }

    /// Overwrites one whole word-line with packed lanes.
    ///
    /// Bits beyond `cols` in the final lane are masked off so the stored
    /// state never contains phantom bits.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len()` differs from `Self::lanes`.
    pub fn write_row(&mut self, row: usize, lanes: &[u64]) -> Result<(), SramError> {
        self.check_row(row)?;
        assert_eq!(lanes.len(), self.lanes, "lane count mismatch");
        let tail = self.tail_mask();
        let dst = &mut self.data[row * self.lanes..(row + 1) * self.lanes];
        dst.copy_from_slice(lanes);
        if let Some(last) = dst.last_mut() {
            *last &= tail;
        }
        Ok(())
    }

    /// Reads the bit at (`row`, `col`).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if either index is out of range.
    pub fn read_bit(&self, row: usize, col: usize) -> Result<bool, SramError> {
        self.check_row(row)?;
        if col >= self.cols {
            return Err(SramError::RowOutOfRange {
                row: col,
                rows: self.cols,
            });
        }
        let lane = self.data[row * self.lanes + col / LANE_BITS];
        Ok((lane >> (col % LANE_BITS)) & 1 == 1)
    }

    /// Writes the bit at (`row`, `col`).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if either index is out of range.
    pub fn write_bit(&mut self, row: usize, col: usize, value: bool) -> Result<(), SramError> {
        self.check_row(row)?;
        if col >= self.cols {
            return Err(SramError::RowOutOfRange {
                row: col,
                rows: self.cols,
            });
        }
        let lane = &mut self.data[row * self.lanes + col / LANE_BITS];
        let bit = 1u64 << (col % LANE_BITS);
        if value {
            *lane |= bit;
        } else {
            *lane &= !bit;
        }
        Ok(())
    }

    /// Sets every bit of a word-line to `value` (the `SetRow.C` primitive).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub(crate) fn fill_row(&mut self, row: usize, value: bool) -> Result<(), SramError> {
        self.check_row(row)?;
        let fill = if value { u64::MAX } else { 0 };
        let tail = self.tail_mask();
        let dst = &mut self.data[row * self.lanes..(row + 1) * self.lanes];
        for lane in dst.iter_mut() {
            *lane = fill;
        }
        if let Some(last) = dst.last_mut() {
            *last &= tail;
        }
        Ok(())
    }

    /// Activates word-lines `row_a` and `row_b` simultaneously and returns
    /// what the sense amplifiers observe on each bit-line pair: the `AND`
    /// (from BL) and `NOR` (from BLB) of the two stored bits.
    ///
    /// The word-line voltage is lowered during multi-row access so the read
    /// is non-destructive — the model therefore leaves the array unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if either row is out of range,
    /// or [`SramError::OperandOverlap`] if `row_a == row_b` (activating the
    /// same word-line twice is an ordinary read, not a computation).
    #[cfg(test)]
    pub(crate) fn activate_pair(
        &self,
        row_a: usize,
        row_b: usize,
    ) -> Result<BitlineReadout, SramError> {
        let mut out = BitlineReadout::scratch(self.lanes);
        self.activate_pair_into(row_a, row_b, &mut out)?;
        Ok(out)
    }

    /// Activates two word-lines simultaneously and writes into `out` what
    /// the sense amplifiers observe on each bit-line pair: the `AND` (from
    /// BL) and `NOR` (from BLB) of the two stored bits. The buffer is the
    /// caller's, so repeated activations (the MAC inner loop performs
    /// `bits²` of them) never allocate.
    ///
    /// The word-line voltage is lowered during multi-row access so the read
    /// is non-destructive — the model therefore leaves the array unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if either row is out of range,
    /// or [`SramError::OperandOverlap`] if `row_a == row_b` (activating the
    /// same word-line twice is an ordinary read, not a computation).
    #[inline]
    pub(crate) fn activate_pair_into(
        &self,
        row_a: usize,
        row_b: usize,
        out: &mut BitlineReadout,
    ) -> Result<(), SramError> {
        self.check_row(row_a)?;
        self.check_row(row_b)?;
        if row_a == row_b {
            return Err(SramError::OperandOverlap {
                a: row_a,
                b: row_b,
                bits: 1,
            });
        }
        let tail = self.tail_mask();
        let a = &self.data[row_a * self.lanes..(row_a + 1) * self.lanes];
        let b = &self.data[row_b * self.lanes..(row_b + 1) * self.lanes];
        out.and.reset(self.lanes);
        out.nor.reset(self.lanes);
        let and = out.and.as_mut_slice();
        let nor = out.nor.as_mut_slice();
        for i in 0..self.lanes {
            let mask = if i + 1 == self.lanes { tail } else { u64::MAX };
            and[i] = a[i] & b[i] & mask;
            nor[i] = !(a[i] | b[i]) & mask;
        }
        Ok(())
    }

    /// Population count of a packed row restricted to the first `cols` bits,
    /// with an optional per-bit-line mask applied first.
    ///
    /// This is the model of the **adder tree** at the bottom of a computing
    /// slice (Figure 4(b) step 2): it sums the 256 bit-line values in one
    /// pipelined step.
    #[must_use]
    #[inline]
    pub(crate) fn popcount_lanes(lanes: &[u64], mask: Option<&[u64]>) -> u32 {
        match mask {
            Some(m) => lanes
                .iter()
                .zip(m)
                .map(|(&l, &mm)| (l & mm).count_ones())
                .sum(),
            None => lanes.iter().map(|&l| l.count_ones()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let arr = SramArray::new(4, 128);
        for r in 0..4 {
            assert!(arr.read_row(r).unwrap().iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn rows_cols_lanes() {
        let arr = SramArray::new(64, 256);
        assert_eq!(arr.rows(), 64);
        assert_eq!(arr.cols(), 256);
        assert_eq!(arr.lanes(), 4);
    }

    #[test]
    fn odd_width_lanes() {
        let arr = SramArray::new(2, 100);
        assert_eq!(arr.lanes(), 2);
    }

    #[test]
    fn bit_roundtrip() {
        let mut arr = SramArray::new(8, 70);
        arr.write_bit(5, 69, true).unwrap();
        assert!(arr.read_bit(5, 69).unwrap());
        arr.write_bit(5, 69, false).unwrap();
        assert!(!arr.read_bit(5, 69).unwrap());
    }

    #[test]
    fn row_write_masks_tail() {
        let mut arr = SramArray::new(2, 65);
        arr.write_row(0, &[u64::MAX, u64::MAX]).unwrap();
        let row = arr.read_row(0).unwrap();
        assert_eq!(row[0], u64::MAX);
        assert_eq!(row[1], 1, "only one valid bit in the tail lane");
    }

    #[test]
    fn fill_row_sets_and_clears() {
        let mut arr = SramArray::new(4, 256);
        arr.fill_row(2, true).unwrap();
        assert_eq!(
            SramArray::popcount_lanes(arr.read_row(2).unwrap(), None),
            256
        );
        arr.fill_row(2, false).unwrap();
        assert_eq!(SramArray::popcount_lanes(arr.read_row(2).unwrap(), None), 0);
    }

    #[test]
    fn activate_pair_computes_and_nor() {
        let mut arr = SramArray::new(4, 4);
        // row 0 = 0b0011, row 1 = 0b0101 (bit k at column k)
        arr.write_row(0, &[0b0011]).unwrap();
        arr.write_row(1, &[0b0101]).unwrap();
        let out = arr.activate_pair(0, 1).unwrap();
        assert_eq!(out.and[0], 0b0001);
        assert_eq!(out.nor[0], 0b1000);
        assert_eq!(out.xor()[0] & 0b1111, 0b0110);
    }

    #[test]
    fn activate_pair_nondestructive() {
        let mut arr = SramArray::new(4, 64);
        arr.write_row(0, &[0xDEAD_BEEF]).unwrap();
        arr.write_row(3, &[0x1234_5678]).unwrap();
        let before = arr.clone();
        let _ = arr.activate_pair(0, 3).unwrap();
        assert_eq!(arr, before);
    }

    #[test]
    fn activate_same_row_rejected() {
        let arr = SramArray::new(4, 64);
        assert!(matches!(
            arr.activate_pair(1, 1),
            Err(SramError::OperandOverlap { .. })
        ));
    }

    #[test]
    fn out_of_range_row_rejected() {
        let arr = SramArray::new(4, 64);
        assert!(matches!(
            arr.read_row(4),
            Err(SramError::RowOutOfRange { row: 4, rows: 4 })
        ));
    }

    #[test]
    fn popcount_with_mask() {
        let lanes = [u64::MAX, u64::MAX];
        let mask = [0xFF, 0x0F];
        assert_eq!(SramArray::popcount_lanes(&lanes, Some(&mask)), 12);
        assert_eq!(SramArray::popcount_lanes(&lanes, None), 128);
    }
}
