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

/// Packs bit `bit` of every element of `words` into row lanes: element `k`
/// contributes its chosen bit at bit-line `k`.
///
/// `cols` is the number of bit-lines (elements beyond `cols` are ignored,
/// missing elements read as zero).
///
/// # Example
///
/// ```
/// let row = maicc_sram::transpose::pack_bitplane(&[1, 2, 3], 1, 64);
/// // bit 1 of 1,2,3 is 0,1,1 → columns 1 and 2 set
/// assert_eq!(row[0], 0b110);
/// ```
#[must_use]
pub fn pack_bitplane(words: &[u16], bit: usize, cols: usize) -> Vec<u64> {
    let lanes = cols.div_ceil(64);
    let mut out = vec![0u64; lanes];
    for (k, &w) in words.iter().take(cols).enumerate() {
        if (w >> bit) & 1 == 1 {
            out[k / 64] |= 1u64 << (k % 64);
        }
    }
    out
}

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
pub(crate) fn unpack_words(planes: &[Vec<u64>], bits: usize, count: usize) -> Vec<u16> {
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

/// Convenience: packs all `bits` bit-planes of `words` at once
/// (`result[i]` is the row holding bit `i`).
#[must_use]
pub fn pack_words(words: &[u16], bits: usize, cols: usize) -> Vec<Vec<u64>> {
    (0..bits).map(|i| pack_bitplane(words, i, cols)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let plane = pack_bitplane(&words, 0, 256);
        let total: u32 = plane.iter().map(|l| l.count_ones()).sum();
        assert_eq!(total, 256);
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
            let plane = pack_bitplane(&words, bit, 256);
            let expect = words.iter().filter(|&&w| (w >> bit) & 1 == 1).count() as u32;
            let got: u32 = plane.iter().map(|l| l.count_ones()).sum();
            prop_assert_eq!(got, expect);
        }
    }
}
