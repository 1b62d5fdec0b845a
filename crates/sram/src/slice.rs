//! One CMem slice: a 64×256 SRAM array with computing peripherals.
//!
//! Figure 3(c) of the paper partitions the 16 KB CMem into eight slender
//! 2 KB slices so operations in different slices can proceed in parallel.
//! Each slice carries the peripheral circuits of Figure 8: the row decoder
//! able to activate two word-lines at once, a 256-input **adder tree**, a
//! shift/accumulate **Res register**, and an 8-bit **mask CSR** whose bit
//! `g` enables bit-lines `32g..32g+32` (§3.3 — 32 matches the channel
//! granularity of convolutional layers).

use crate::array::{BitlineReadout, SramArray};
use crate::transpose;
use crate::{Row, SramError, BITLINES, MASK_GRANULE, SLICE_ROWS};

/// `u64` words in one [`Row`].
const ROW_WORDS: usize = BITLINES / 64;

/// Direction of a `ShiftRow.C` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDir {
    /// Towards lower bit-line indices.
    Left,
    /// Towards higher bit-line indices.
    Right,
}

/// A single 64-row × 256-bit-line computing slice.
///
/// # Example
///
/// ```
/// use maicc_sram::slice::CmemSlice;
///
/// # fn main() -> Result<(), maicc_sram::SramError> {
/// let mut s = CmemSlice::new();
/// s.write_vector(0, &[3, 4, 5], 8)?;
/// s.write_vector(8, &[10, 20, 30], 8)?;
/// assert_eq!(s.mac(0, 8, 8, false)?, 3 * 10 + 4 * 20 + 5 * 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmemSlice {
    array: SramArray,
    mask: u8,
}

impl Default for CmemSlice {
    fn default() -> Self {
        Self::new()
    }
}

impl CmemSlice {
    /// Creates a zeroed slice with all bit-lines enabled (`mask = 0xFF`).
    #[must_use]
    pub fn new() -> Self {
        CmemSlice {
            array: SramArray::new(SLICE_ROWS, BITLINES),
            mask: 0xFF,
        }
    }

    /// The slice's mask CSR. Bit `g` enables bit-lines `32g..32g+32`.
    #[must_use]
    pub(crate) fn mask(&self) -> u8 {
        self.mask
    }

    /// Writes the mask CSR.
    pub fn set_mask(&mut self, mask: u8) {
        self.mask = mask;
    }

    /// Expands the mask CSR into per-bit-line lanes.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn mask_lanes(&self) -> Vec<u64> {
        self.mask_words().to_vec()
    }

    /// Expands the mask CSR into per-bit-line lanes without allocating.
    #[must_use]
    #[inline]
    pub(crate) fn mask_words(&self) -> Row {
        let mut lanes = [0u64; ROW_WORDS];
        for g in 0..8 {
            if (self.mask >> g) & 1 == 1 {
                let start = g * MASK_GRANULE;
                lanes[start / 64] |= 0xFFFF_FFFFu64 << (start % 64);
            }
        }
        lanes
    }

    /// Read-only access to the underlying array (for inter-slice moves).
    #[must_use]
    pub fn array(&self) -> &SramArray {
        &self.array
    }

    /// Mutable access to the underlying array.
    pub fn array_mut(&mut self) -> &mut SramArray {
        &mut self.array
    }

    /// Copies word-line `row` out as one [`Row`].
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub(crate) fn row(&self, row: usize) -> Result<Row, SramError> {
        let mut out = [0u64; ROW_WORDS];
        out.copy_from_slice(self.array.read_row(row)?);
        Ok(out)
    }

    /// Word-lines `base..base + bits` as rows, without copying.
    fn rows(&self, base: usize, bits: usize) -> Result<&[Row], SramError> {
        let (rows, rest) = self
            .array
            .read_rows(base..base + bits)?
            .as_chunks::<ROW_WORDS>();
        debug_assert!(rest.is_empty(), "a slice row is {ROW_WORDS} words");
        Ok(rows)
    }

    fn check_vector(&self, base: usize, bits: usize) -> Result<(), SramError> {
        if !(1..=16).contains(&bits) {
            return Err(SramError::UnsupportedWidth { bits });
        }
        if base + bits > SLICE_ROWS {
            return Err(SramError::VectorOverflow {
                base,
                bits,
                rows: SLICE_ROWS,
            });
        }
        Ok(())
    }

    /// Writes a transposed n-bit vector starting at word-line `base`
    /// (bit `i` of element `k` lands at row `base + i`, bit-line `k`).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::VectorOverflow`] if the vector spills past row 63
    /// or [`SramError::UnsupportedWidth`] for widths outside `1..=16`.
    pub fn write_vector(&mut self, base: usize, words: &[u16], bits: usize) -> Result<(), SramError> {
        self.check_vector(base, bits)?;
        for (i, plane) in transpose::pack_words(words, bits, BITLINES)
            .iter()
            .enumerate()
        {
            self.array.write_row(base + i, plane)?;
        }
        Ok(())
    }

    /// Reads back `count` elements of the transposed n-bit vector at `base`.
    ///
    /// # Errors
    ///
    /// Same domain as [`Self::write_vector`].
    pub fn read_vector(&self, base: usize, bits: usize, count: usize) -> Result<Vec<u16>, SramError> {
        self.check_vector(base, bits)?;
        let planes: Result<Vec<Row>, _> = (0..bits).map(|i| self.row(base + i)).collect();
        Ok(transpose::unpack_words(&planes?, bits, count))
    }

    /// `SetRow.C`: fills word-line `row` with all zeros or all ones.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub(crate) fn set_row(&mut self, row: usize, value: bool) -> Result<(), SramError> {
        self.array.fill_row(row, value)
    }

    /// `ShiftRow.C`: shifts word-line `row` by `granules × 32` bit-lines.
    ///
    /// Vacated positions fill with zero; bits shifted out are lost. Used for
    /// aligning sub-vectors when the channel count is below 256 (§4.1).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn shift_row(&mut self, row: usize, dir: ShiftDir, granules: usize) -> Result<(), SramError> {
        let lanes = self.array.read_row(row)?.to_vec();
        let n = lanes.len();
        let words32: Vec<u32> = lanes
            .iter()
            .flat_map(|&l| [l as u32, (l >> 32) as u32])
            .collect();
        let total = words32.len();
        let mut shifted = vec![0u32; total];
        for (idx, w) in words32.iter().enumerate() {
            let dst = match dir {
                ShiftDir::Left => idx.checked_sub(granules),
                ShiftDir::Right => {
                    let d = idx + granules;
                    (d < total).then_some(d)
                }
            };
            if let Some(d) = dst {
                shifted[d] = *w;
            }
        }
        let mut out = vec![0u64; n];
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = shifted[2 * i] as u64 | ((shifted[2 * i + 1] as u64) << 32);
        }
        self.array.write_row(row, &out)
    }

    /// The hardware **vector MAC primitive** of Figure 4(b).
    ///
    /// Computes the inner product of the n-bit vectors stored transposed at
    /// word-lines `base_a..base_a+bits` and `base_b..base_b+bits`, restricted
    /// to the bit-lines enabled by the mask CSR. For every row pair `(i, j)`
    /// the slice activates both word-lines, the adder tree sums the 256
    /// bit-line `AND`s, and the partial sum enters the Res register shifted
    /// by `i + j`. When `signed` is true the operands are two's complement
    /// and the most significant bit-plane carries weight `−2^(n−1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::OperandOverlap`] if the two operand row ranges
    /// intersect, plus the domain errors of [`Self::write_vector`].
    pub fn mac(&self, base_a: usize, base_b: usize, bits: usize, signed: bool) -> Result<i64, SramError> {
        self.check_vector(base_a, bits)?;
        self.check_vector(base_b, bits)?;
        let (lo, hi) = if base_a <= base_b {
            (base_a, base_b)
        } else {
            (base_b, base_a)
        };
        if lo + bits > hi {
            return Err(SramError::OperandOverlap {
                a: base_a,
                b: base_b,
                bits,
            });
        }
        let mask = self.mask_words();
        let mut readout = BitlineReadout::scratch(self.array.lanes());
        let mut res: i64 = 0;
        for i in 0..bits {
            for j in 0..bits {
                self.array
                    .activate_pair_into(base_a + i, base_b + j, &mut readout)?;
                let psum = SramArray::popcount_lanes(&readout.and, Some(&mask)) as i64;
                let negative = signed && ((i == bits - 1) ^ (j == bits - 1));
                let term = psum << (i + j);
                res += if negative { -term } else { term };
            }
        }
        Ok(res)
    }

    /// Word-parallel fast path for [`Self::mac`].
    ///
    /// Computes the identical dot product (same validation, same masking,
    /// same signed MSB-plane weighting) by reading each operand bit-plane
    /// once and AND-popcounting whole `u64` words, instead of modelling the
    /// `bits²` individual word-line activations. The slice state observed
    /// is the same state the sense amplifiers would observe, so the result
    /// is bit-identical to the bit-serial path by construction.
    ///
    /// Only *live* words cost anything: a word of 64 bit-lines where
    /// either operand (A after the mask) holds no set bit in any plane
    /// adds zero to every `(i, j)` term, so the loop skips it. The live
    /// set is read from the array itself, so a stuck cell or a latched
    /// flip in an otherwise empty lane still counts.
    ///
    /// Note this is a *host-side* shortcut only: latency and energy are
    /// charged analytically by the caller (see `maicc_sram::timing` and
    /// `Cmem::mac`), so accounting is unchanged. `Cmem::mac` calls it
    /// under fault plans too: no fault is drawn per activation — stuck
    /// cells are forced into the array when it is written and transient
    /// flips land on the MAC result — so there is nothing per activation
    /// for the bit-serial [`Self::mac`] to observe. That loop stays as the
    /// reference the property tests check this one against.
    ///
    /// # Errors
    ///
    /// Identical error domain to [`Self::mac`].
    pub fn mac_fast(
        &self,
        base_a: usize,
        base_b: usize,
        bits: usize,
        signed: bool,
    ) -> Result<i64, SramError> {
        self.check_vector(base_a, bits)?;
        self.check_vector(base_b, bits)?;
        let (lo, hi) = if base_a <= base_b {
            (base_a, base_b)
        } else {
            (base_b, base_a)
        };
        if lo + bits > hi {
            return Err(SramError::OperandOverlap {
                a: base_a,
                b: base_b,
                bits,
            });
        }
        let mask = self.mask_words();
        let (ra, rb) = (self.rows(base_a, bits)?, self.rows(base_b, bits)?);
        let mut live_a = [0u64; ROW_WORDS];
        let mut live_b = [0u64; ROW_WORDS];
        for (pa, pb) in ra.iter().zip(rb) {
            for w in 0..ROW_WORDS {
                live_a[w] |= pa[w] & mask[w];
                live_b[w] |= pb[w];
            }
        }
        let msb = bits - 1;
        let mut res: i64 = 0;
        for w in 0..ROW_WORDS {
            if live_a[w] == 0 || live_b[w] == 0 {
                continue;
            }
            // word `w` of every plane, A masked
            let (mut a, mut b) = ([0u64; 16], [0u64; 16]);
            for i in 0..bits {
                a[i] = ra[i][w] & mask[w];
                b[i] = rb[i][w];
            }
            let (a, b) = (&a[..bits], &b[..bits]);
            for (i, &pa) in a.iter().enumerate() {
                let mut row: i64 = 0;
                for (j, &pb) in b.iter().enumerate() {
                    row += i64::from((pa & pb).count_ones()) << j;
                }
                if signed {
                    // the MSB plane of B weighs −2^msb, not the +2^msb
                    // added above
                    row -= i64::from((pa & b[msb]).count_ones()) << (msb + 1);
                }
                let term = row << i;
                res += if signed && i == msb { -term } else { term };
            }
        }
        Ok(res)
    }

    /// Number of row-pair activations a `mac` of this width performs
    /// (the dominant term of its `n²`-cycle latency).
    #[cfg(test)]
    #[must_use]
    pub(crate) const fn mac_activations(bits: usize) -> u64 {
        (bits * bits) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn vector_roundtrip() {
        let mut s = CmemSlice::new();
        let v: Vec<u16> = (0..256).map(|i| (i * 7 % 256) as u16).collect();
        s.write_vector(16, &v, 8).unwrap();
        assert_eq!(s.read_vector(16, 8, 256).unwrap(), v);
    }

    #[test]
    fn vector_overflow_rejected() {
        let mut s = CmemSlice::new();
        assert!(matches!(
            s.write_vector(60, &[1, 2], 8),
            Err(SramError::VectorOverflow { .. })
        ));
    }

    #[test]
    fn width_zero_and_too_wide_rejected() {
        let s = CmemSlice::new();
        assert!(matches!(
            s.read_vector(0, 0, 1),
            Err(SramError::UnsupportedWidth { bits: 0 })
        ));
        assert!(matches!(
            s.read_vector(0, 17, 1),
            Err(SramError::UnsupportedWidth { bits: 17 })
        ));
    }

    #[test]
    fn mac_unsigned_dot_product() {
        let mut s = CmemSlice::new();
        let a: Vec<u16> = (0..256).map(|i| (i % 16) as u16).collect();
        let b: Vec<u16> = (0..256).map(|i| ((i * 3) % 16) as u16).collect();
        s.write_vector(0, &a, 8).unwrap();
        s.write_vector(8, &b, 8).unwrap();
        let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert_eq!(s.mac(0, 8, 8, false).unwrap(), expect);
    }

    #[test]
    fn mac_signed_dot_product() {
        let mut s = CmemSlice::new();
        // values in [-128, 127] encoded two's complement in 8 bits
        let a_signed: Vec<i8> = (0..256).map(|i: i32| (i - 128) as i8).collect();
        let b_signed: Vec<i8> = (0..256).map(|i| ((i * 5) % 256) as u8 as i8).collect();
        let a: Vec<u16> = a_signed.iter().map(|&x| x as u8 as u16).collect();
        let b: Vec<u16> = b_signed.iter().map(|&x| x as u8 as u16).collect();
        s.write_vector(0, &a, 8).unwrap();
        s.write_vector(8, &b, 8).unwrap();
        let expect: i64 = a_signed
            .iter()
            .zip(&b_signed)
            .map(|(&x, &y)| x as i64 * y as i64)
            .sum();
        assert_eq!(s.mac(0, 8, 8, true).unwrap(), expect);
    }

    #[test]
    fn mac_respects_mask() {
        let mut s = CmemSlice::new();
        let a = vec![1u16; 256];
        let b = vec![1u16; 256];
        s.write_vector(0, &a, 8).unwrap();
        s.write_vector(8, &b, 8).unwrap();
        s.set_mask(0b0000_0011); // only bit-lines 0..64
        assert_eq!(s.mac(0, 8, 8, false).unwrap(), 64);
        s.set_mask(0xFF);
        assert_eq!(s.mac(0, 8, 8, false).unwrap(), 256);
    }

    #[test]
    fn mac_overlapping_operands_rejected() {
        let s = CmemSlice::new();
        assert!(matches!(
            s.mac(0, 4, 8, false),
            Err(SramError::OperandOverlap { .. })
        ));
    }

    #[test]
    fn mac_adjacent_operands_allowed() {
        let mut s = CmemSlice::new();
        s.write_vector(0, &[2], 8).unwrap();
        s.write_vector(8, &[21], 8).unwrap();
        assert_eq!(s.mac(0, 8, 8, false).unwrap(), 42);
    }

    #[test]
    fn set_row_then_mac_of_ones() {
        let mut s = CmemSlice::new();
        // vector of all-ones via SetRow on the LSB plane only → value 1 each
        s.set_row(0, true).unwrap();
        for r in 1..8 {
            s.set_row(r, false).unwrap();
        }
        s.write_vector(8, &vec![3u16; 256], 8).unwrap();
        assert_eq!(s.mac(0, 8, 8, false).unwrap(), 3 * 256);
    }

    #[test]
    fn shift_row_right_then_left_roundtrip_loses_edges() {
        let mut s = CmemSlice::new();
        let v: Vec<u16> = (0..256).map(|i| (i % 2) as u16).collect();
        s.write_vector(0, &v, 1).unwrap();
        s.shift_row(0, ShiftDir::Right, 1).unwrap();
        // columns 0..32 now zero
        let shifted = s.read_vector(0, 1, 256).unwrap();
        assert!(shifted[..32].iter().all(|&x| x == 0));
        assert_eq!(shifted[32..64], v[0..32]);
        s.shift_row(0, ShiftDir::Left, 1).unwrap();
        let back = s.read_vector(0, 1, 256).unwrap();
        assert_eq!(back[..224], v[..224]);
        assert!(back[224..].iter().all(|&x| x == 0));
    }

    #[test]
    fn mask_lanes_expansion() {
        let mut s = CmemSlice::new();
        s.set_mask(0b1000_0001);
        let lanes = s.mask_lanes();
        assert_eq!(lanes[0], 0xFFFF_FFFF);
        assert_eq!(lanes[1], 0);
        assert_eq!(lanes[2], 0);
        assert_eq!(lanes[3], 0xFFFF_FFFF_0000_0000);
    }

    #[test]
    fn mac_activations_is_n_squared() {
        assert_eq!(CmemSlice::mac_activations(8), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_mac_unsigned_matches_reference(
            a in proptest::collection::vec(0u16..256, 256),
            b in proptest::collection::vec(0u16..256, 256),
        ) {
            let mut s = CmemSlice::new();
            s.write_vector(0, &a, 8).unwrap();
            s.write_vector(8, &b, 8).unwrap();
            let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            prop_assert_eq!(s.mac(0, 8, 8, false).unwrap(), expect);
        }

        #[test]
        fn prop_mac_signed_matches_reference(
            a in proptest::collection::vec(any::<i8>(), 256),
            b in proptest::collection::vec(any::<i8>(), 256),
        ) {
            let mut s = CmemSlice::new();
            let au: Vec<u16> = a.iter().map(|&x| x as u8 as u16).collect();
            let bu: Vec<u16> = b.iter().map(|&x| x as u8 as u16).collect();
            s.write_vector(0, &au, 8).unwrap();
            s.write_vector(8, &bu, 8).unwrap();
            let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            prop_assert_eq!(s.mac(0, 8, 8, true).unwrap(), expect);
        }

        #[test]
        fn prop_mac_4bit(
            a in proptest::collection::vec(0u16..16, 256),
            b in proptest::collection::vec(0u16..16, 256),
        ) {
            let mut s = CmemSlice::new();
            s.write_vector(0, &a, 4).unwrap();
            s.write_vector(4, &b, 4).unwrap();
            let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
            prop_assert_eq!(s.mac(0, 4, 4, false).unwrap(), expect);
        }

        #[test]
        fn prop_mac_fast_matches_bit_serial(
            bits in 1usize..=16,
            signed in any::<bool>(),
            mask in any::<u8>(),
            a in proptest::collection::vec(any::<u16>(), 256),
            b in proptest::collection::vec(any::<u16>(), 256),
        ) {
            // The fast path must agree with the activation-accurate loop for
            // every width, signedness, mask, and operand pattern.
            let mut s = CmemSlice::new();
            let trunc = |v: &[u16]| -> Vec<u16> {
                v.iter().map(|&x| x & ((1u32 << bits) - 1) as u16).collect()
            };
            s.write_vector(0, &trunc(&a), bits).unwrap();
            s.write_vector(bits, &trunc(&b), bits).unwrap();
            s.set_mask(mask);
            prop_assert_eq!(
                s.mac_fast(0, bits, bits, signed).unwrap(),
                s.mac(0, bits, bits, signed).unwrap()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_mac_fast_matches_bit_serial_on_sparse_operands(
            bits in 1usize..=16,
            signed in any::<bool>(),
            mask in any::<u8>(),
            shape_a in (0usize..5, 0usize..256, 1usize..=32),
            shape_b in (0usize..5, 0usize..256, 1usize..=32),
            a in proptest::collection::vec(any::<u16>(), 256),
            b in proptest::collection::vec(any::<u16>(), 256),
        ) {
            // Operands that leave whole 64-lane words empty, so the
            // live-word skip is taken: it must not change the sum.
            let a = sparse(shape_a, mask, bits, &a);
            let b = sparse(shape_b, mask, bits, &b);
            let mut s = CmemSlice::new();
            s.write_vector(0, &a, bits).unwrap();
            s.write_vector(bits, &b, bits).unwrap();
            s.set_mask(mask);
            for (x, y) in [(0, bits), (bits, 0)] {
                prop_assert_eq!(
                    s.mac_fast(x, y, bits, signed).unwrap(),
                    s.mac(x, y, bits, signed).unwrap()
                );
            }
        }
    }

    /// A sparse `bits`-wide operand drawn from `vals`. `kind` picks which
    /// lanes may be non-zero: none, the one lane `lane`, the 64-lane word
    /// holding `lane`, `2·half` lanes straddling a word boundary, or the
    /// lanes `mask` disables. Every kept lane is non-zero.
    fn sparse(
        (kind, lane, half): (usize, usize, usize),
        mask: u8,
        bits: usize,
        vals: &[u16],
    ) -> Vec<u16> {
        let edge = 64 * (1 + lane % 3);
        let keep = |k: usize| match kind {
            0 => false,
            1 => k == lane,
            2 => k / 64 == lane / 64,
            3 => (edge - half..edge + half).contains(&k),
            _ => (mask >> (k / MASK_GRANULE)) & 1 == 0,
        };
        let width = ((1u32 << bits) - 1) as u16;
        (0..BITLINES)
            .map(|k| match vals[k] & width {
                _ if !keep(k) => 0,
                0 => 1 << (k % bits),
                v => v,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn prop_mask_partitions_sum(
            a in proptest::collection::vec(0u16..256, 256),
            b in proptest::collection::vec(0u16..256, 256),
        ) {
            // MAC over complementary masks must sum to the unmasked MAC.
            let mut s = CmemSlice::new();
            s.write_vector(0, &a, 8).unwrap();
            s.write_vector(8, &b, 8).unwrap();
            s.set_mask(0xFF);
            let full = s.mac(0, 8, 8, false).unwrap();
            s.set_mask(0x0F);
            let lo = s.mac(0, 8, 8, false).unwrap();
            s.set_mask(0xF0);
            let hi = s.mac(0, 8, 8, false).unwrap();
            prop_assert_eq!(lo + hi, full);
        }
    }
}
