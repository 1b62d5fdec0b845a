//! Cycle-cost model for every CMem and Neural Cache primitive.
//!
//! The costs come straight from the paper: Table 2 for the CMem extension
//! instructions and §2.2 for the Neural Cache element-wise primitives. All
//! functions are `const` so the scheduler in `maicc-core` can evaluate them
//! at compile time of a kernel.

/// Cycles for `MAC.C` on two n-bit vectors in one slice (Table 2: `n²`).
///
/// The three pipeline stages of Figure 4(b) (activate → adder tree →
/// shift/accumulate) overlap, so the `n²` row-pair activations dominate and
/// two cycles drain the pipeline.
#[must_use]
pub const fn mac_cycles(bits: usize) -> u64 {
    (bits * bits) as u64
}

/// Extra cycles to regenerate a row's SECDED check bits on a write-class
/// operation (the encoder sits beside the write drivers; one pipeline
/// stage regardless of how many rows the operation touches).
#[must_use]
pub(crate) const fn ecc_encode_cycles() -> u64 {
    1
}

/// Extra cycles to compute syndromes for a read-class operation's
/// activated rows (checked in parallel across lanes, one stage).
#[must_use]
pub(crate) const fn ecc_check_cycles() -> u64 {
    1
}

/// Extra cycles to steer one corrected bit through the correction mux and
/// re-issue the affected activation.
#[must_use]
pub(crate) const fn ecc_correct_cycles() -> u64 {
    2
}

/// Cycles for a Neural Cache bit-serial **addition** of two n-bit vectors
/// (§2.2: `n + 1`).
#[must_use]
pub(crate) const fn nc_add_cycles(bits: usize) -> u64 {
    (bits + 1) as u64
}

/// Cycles for a Neural Cache bit-serial **multiplication** of two n-bit
/// vectors (§2.2: `n² + 5n − 2`).
#[must_use]
pub const fn nc_mul_cycles(bits: usize) -> u64 {
    (bits * bits + 5 * bits - 2) as u64
}

/// Cycles for a Neural Cache **reduction** of a 256-element vector of
/// `bits`-wide partial products down to one scalar.
///
/// Neural Cache reduces by `log2(256) = 8` iterations of shift + add
/// (Figure 4(a)). Each iteration shifts one operand into alignment (a
/// word-width copy) and performs a bit-serial add; the operand width grows
/// by one bit per step to hold the carry.
#[must_use]
pub const fn nc_reduce_cycles(bits: usize, elems: usize) -> u64 {
    let mut total = 0u64;
    let mut width = bits;
    let mut remaining = elems;
    while remaining > 1 {
        // shift/copy of `width` rows, then an add of `width`-bit vectors
        total += width as u64 + nc_add_cycles(width);
        width += 1;
        remaining = remaining.div_ceil(2);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_costs() {
        assert_eq!(mac_cycles(8), 64);
        assert_eq!(mac_cycles(16), 256);
    }

    #[test]
    fn neural_cache_costs_match_paper_formulas() {
        assert_eq!(nc_add_cycles(8), 9);
        assert_eq!(nc_mul_cycles(8), 64 + 40 - 2);
        assert_eq!(nc_mul_cycles(4), 16 + 20 - 2);
    }

    #[test]
    fn reduction_takes_eight_iterations_for_256() {
        // 8 shift+add iterations, widths 8..=15 for 8-bit inputs
        let mut expect = 0u64;
        for w in 8..16u64 {
            expect += w + (w + 1);
        }
        assert_eq!(nc_reduce_cycles(8, 256), expect);
    }

    #[test]
    fn reduction_of_single_element_is_free() {
        assert_eq!(nc_reduce_cycles(8, 1), 0);
    }

    #[test]
    fn mac_beats_elementwise_plus_reduction() {
        // The headline claim of §3.2: the spatial MAC primitive eliminates
        // the ~23% reduction overhead of Neural Cache.
        let maicc = mac_cycles(8);
        let nc = nc_mul_cycles(8) + nc_reduce_cycles(8, 256);
        assert!(maicc < nc);
    }
}
