//! 28 nm area model (§5) and the Figure-10(a) breakdown.
//!
//! The constants reproduce the paper's published figures and compose
//! consistently: one node = core + CMem + node SRAM = 0.114 mm² (Table 4),
//! and 210 nodes + NoC + LLC ≈ 28 mm² with CMem ≈ 65 % of the chip
//! (Figure 10(a)).

use serde::{Deserialize, Serialize};

/// Lightweight RV32IMA core area, mm² (§5: 0.014 mm² at 28 nm).
pub(crate) const CORE_MM2: f64 = 0.014;
/// CMem slice 0 (8T, transposing) area, mm² (§5).
pub const SLICE0_MM2: f64 = 0.014;
/// One computing slice (1–7) including its adder tree, mm².
///
/// §5 reports the synthesized peripheral+array estimate; the value here is
/// the per-slice share that makes the published node total (0.114 mm²)
/// and chip share (65 % CMem) consistent.
pub const COMPUTE_SLICE_MM2: f64 = 0.0104;
/// Fraction of a computing slice that is the adder tree / shift-accumulate
/// logic rather than memory cells (Figure 10(a): "about one-third").
pub const SLICE_LOGIC_FRACTION: f64 = 1.0 / 3.0;
/// Node instruction cache + data memory (2 × 4 KB), mm².
pub(crate) const NODE_SRAM_MM2: f64 = 0.0133;
/// Whole-mesh NoC area, mm² (§5, dsent).
pub(crate) const NOC_MM2: f64 = 2.61;
/// One LLC tile (64 KB), mm².
pub(crate) const LLC_TILE_MM2: f64 = 0.0437;

/// Table-4 node-area reference points, mm².
pub const SCALAR_NODE_MM2: f64 = 0.052;
/// Neural Cache node (40 KB of compute-capable 8 KB arrays + host share).
pub const NEURAL_CACHE_NODE_MM2: f64 = 0.158;

/// Area of one MAICC node (core + CMem + node SRAM), mm².
#[must_use]
pub fn maicc_node_mm2() -> f64 {
    CORE_MM2 + SLICE0_MM2 + 7.0 * COMPUTE_SLICE_MM2 + NODE_SRAM_MM2
}

/// The Figure-10(a) chip area breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// All CMems (memory cells + adder trees), mm².
    pub cmem: f64,
    /// All scalar cores, mm².
    pub core: f64,
    /// Node instruction caches and data memories, mm².
    pub node_sram: f64,
    /// Mesh network, mm².
    pub noc: f64,
    /// Last-level cache tiles, mm².
    pub llc: f64,
}

impl AreaBreakdown {
    /// Breakdown for a chip of `cores` compute nodes and `llc_tiles` LLC
    /// tiles.
    #[must_use]
    pub fn for_chip(cores: usize, llc_tiles: usize) -> Self {
        AreaBreakdown {
            cmem: cores as f64 * (SLICE0_MM2 + 7.0 * COMPUTE_SLICE_MM2),
            core: cores as f64 * CORE_MM2,
            node_sram: cores as f64 * NODE_SRAM_MM2,
            noc: NOC_MM2,
            llc: llc_tiles as f64 * LLC_TILE_MM2,
        }
    }

    /// Total chip area, mm².
    #[must_use]
    pub fn total(&self) -> f64 {
        self.cmem + self.core + self.node_sram + self.noc + self.llc
    }

    /// Component fractions in Figure-10 order
    /// (cmem, core, node SRAM, NoC, LLC).
    #[must_use]
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total();
        [
            self.cmem / t,
            self.core / t,
            self.node_sram / t,
            self.noc / t,
            self.llc / t,
        ]
    }

    /// Area of the CMem adder trees alone, mm² (the "computing logic"
    /// third of Figure 10(a)).
    #[must_use]
    pub fn cmem_logic(&self) -> f64 {
        // slice 0 has no adder tree; the logic share applies to slices 1–7
        let compute = self.cmem * (7.0 * COMPUTE_SLICE_MM2)
            / (SLICE0_MM2 + 7.0 * COMPUTE_SLICE_MM2);
        compute * SLICE_LOGIC_FRACTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_area_matches_table4() {
        let a = maicc_node_mm2();
        assert!((a - 0.114).abs() < 0.002, "node area {a}");
    }

    #[test]
    fn chip_area_near_28mm2() {
        let b = AreaBreakdown::for_chip(210, 32);
        let t = b.total();
        assert!((26.0..30.0).contains(&t), "chip area {t}");
    }

    #[test]
    fn cmem_dominates_at_65_percent() {
        let b = AreaBreakdown::for_chip(210, 32);
        let f = b.fractions();
        assert!((0.60..0.70).contains(&f[0]), "cmem share {}", f[0]);
        assert!((0.08..0.14).contains(&f[1]), "core share {}", f[1]);
        assert!((0.07..0.13).contains(&f[2]), "sram share {}", f[2]);
        assert!((0.06..0.12).contains(&f[3]), "noc share {}", f[3]);
        assert!((0.03..0.08).contains(&f[4]), "llc share {}", f[4]);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = AreaBreakdown::for_chip(210, 32);
        let s: f64 = b.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cmem_logic_is_about_a_third() {
        let b = AreaBreakdown::for_chip(210, 32);
        let ratio = b.cmem_logic() / b.cmem;
        assert!((0.25..0.35).contains(&ratio), "{ratio}");
    }

    #[test]
    fn table4_node_ordering() {
        assert!(SCALAR_NODE_MM2 < maicc_node_mm2());
        assert!(maicc_node_mm2() < NEURAL_CACHE_NODE_MM2);
    }
}
