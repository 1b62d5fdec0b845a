//! Transposed (bit-serial) data layout helpers.
//!
//! Bit-serial in-SRAM computing stores vectors **transposed**: bit `i` of
//! word `k` lives at word-line `base + i`, bit-line `k` (Figure 2(b)). A
//! whole n-bit vector of up to 256 elements therefore occupies `n`
//! consecutive word-lines, and one multi-row activation touches the same bit
//! position of *all* elements at once.
//!
//! These helpers convert between ordinary `&[u16]`/`&[u8]` element slices and
//! packed row lanes, and are used both by the CMem model and by the Neural
//! Cache baseline.

use crate::{Row, BITLINES};

/// Extracts bit-line `col`'s bit from packed row lanes.
#[must_use]
pub(crate) fn lane_bit(lanes: &[u64], col: usize) -> bool {
    (lanes[col / 64] >> (col % 64)) & 1 == 1
}

/// Reassembles `count` n-bit words from `bits` bit-plane rows
/// (`planes[i]` holds bit `i` of every word).
///
/// # Panics
///
/// Panics if `planes.len()` is smaller than `bits`.
#[must_use]
pub(crate) fn unpack_words(planes: &[Row], bits: usize, count: usize) -> Vec<u16> {
    assert!(planes.len() >= bits, "missing bit planes");
    let mut out = vec![0u16; count];
    for (i, plane) in planes.iter().take(bits).enumerate() {
        for (k, word) in out.iter_mut().enumerate() {
            if lane_bit(plane, k) {
                *word |= 1 << i;
            }
        }
    }
    out
}

/// Packs the low `bits` bit-planes of `words` into rows: `result[i]` is
/// the row holding bit `i`, with element `k` at bit-line `k`.
///
/// One pass over the elements scatters each element's set bits below
/// `bits` into their planes, so zero elements cost nothing. Bits at or
/// above `bits` are ignored, elements at or beyond `cols` bit-lines are
/// ignored, and missing elements read as zero.
///
/// # Example
///
/// ```
/// let planes = maicc_sram::transpose::pack_words(&[1, 2, 3], 2, 64);
/// // bit 1 of 1,2,3 is 0,1,1 → bit-lines 1 and 2 set
/// assert_eq!(planes[1][0], 0b110);
/// assert_eq!(planes[0][0], 0b101);
/// ```
///
/// # Panics
///
/// Panics if `bits` exceeds 16 or `cols` exceeds the 256 bit-lines of a
/// [`Row`].
#[must_use]
pub fn pack_words(words: &[u16], bits: usize, cols: usize) -> Vec<Row> {
    assert!(bits <= 16, "a u16 element has 16 bit-planes, not {bits}");
    assert!(
        cols <= BITLINES,
        "a row has {BITLINES} bit-lines, not {cols}"
    );
    let keep = ((1u32 << bits) - 1) as u16;
    let mut planes = vec![[0u64; BITLINES / 64]; bits];
    for (k, &w) in words.iter().take(cols).enumerate() {
        let (word, lane) = (k / 64, 1u64 << (k % 64));
        let mut w = w & keep;
        while w != 0 {
            planes[w.trailing_zeros() as usize][word] |= lane;
            w &= w - 1;
        }
    }
    planes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Plane by plane, element by element: the layout `pack_words` must
    /// produce, written without its single-pass scatter.
    fn reference_planes(words: &[u16], bits: usize, cols: usize) -> Vec<Row> {
        (0..bits)
            .map(|i| {
                let mut row = [0u64; BITLINES / 64];
                for (k, &w) in words.iter().enumerate().take(cols) {
                    if (w >> i) & 1 == 1 {
                        row[k / 64] |= 1 << (k % 64);
                    }
                }
                row
            })
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrip_small() {
        let words: Vec<u16> = vec![0, 1, 2, 3, 250, 255];
        let planes = pack_words(&words, 8, 64);
        assert_eq!(unpack_words(&planes, 8, words.len()), words);
    }

    #[test]
    fn missing_elements_read_zero() {
        let planes = pack_words(&[7], 4, 64);
        let out = unpack_words(&planes, 4, 3);
        assert_eq!(out, vec![7, 0, 0]);
    }

    #[test]
    fn elements_beyond_cols_ignored() {
        let words = vec![1u16; 300];
        let planes = pack_words(&words, 1, 256);
        let total: u32 = planes[0].iter().map(|l| l.count_ones()).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn bits_above_the_width_are_dropped() {
        let planes = pack_words(&[0xFFFF, 0x0100], 8, 256);
        assert_eq!(planes.len(), 8);
        assert!(planes.iter().all(|p| p == &[1, 0, 0, 0]));
    }

    #[test]
    fn lane_bit_addresses_across_lanes() {
        let mut lanes = vec![0u64; 4];
        lanes[2] |= 1 << 5; // column 133
        assert!(lane_bit(&lanes, 133));
        assert!(!lane_bit(&lanes, 134));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_u8(words in proptest::collection::vec(0u16..256, 1..256)) {
            let planes = pack_words(&words, 8, 256);
            prop_assert_eq!(unpack_words(&planes, 8, words.len()), words);
        }

        #[test]
        fn prop_roundtrip_u16(words in proptest::collection::vec(any::<u16>(), 1..256)) {
            let planes = pack_words(&words, 16, 256);
            prop_assert_eq!(unpack_words(&planes, 16, words.len()), words);
        }

        #[test]
        fn prop_bitplane_popcount_matches(words in proptest::collection::vec(0u16..256, 1..256), bit in 0usize..8) {
            let planes = pack_words(&words, 8, 256);
            let expect = words.iter().filter(|&&w| (w >> bit) & 1 == 1).count() as u32;
            let got: u32 = planes[bit].iter().map(|l| l.count_ones()).sum();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_pack_words_matches_per_plane_reference(
            bits in 1usize..=16,
            cols in 0usize..=256,
            // full-range values set bits above every width below 16, and
            // lengths from empty to past 256 cover short inputs and
            // `cols` below the input length
            words in proptest::collection::vec(any::<u16>(), 0..320),
        ) {
            prop_assert_eq!(
                pack_words(&words, bits, cols),
                reference_planes(&words, bits, cols)
            );
        }

        #[test]
        fn prop_pack_words_off_word_cols(
            bits in 1usize..=16,
            lanes in 0usize..4,
            rem in 1usize..64,
            words in proptest::collection::vec(any::<u16>(), 256),
        ) {
            // `cols` strictly below the input and never a multiple of 64
            let cols = lanes * 64 + rem;
            prop_assert_eq!(
                pack_words(&words, bits, cols),
                reference_planes(&words, bits, cols)
            );
        }
    }
}
