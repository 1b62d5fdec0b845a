//! Support library for the benchmark harness.
//!
//! Each `maicc_bench` section regenerates one table, figure or ablation
//! of the MAICC paper: it prints the same rows/series the paper reports,
//! with the paper's published values ([`paper`], which perfbench also
//! reads) alongside for comparison. [`row`] and [`header`] keep the
//! printed output uniform.

/// Paper-published reference values, for side-by-side printing.
pub mod paper {
    /// Table 4 cycles: scalar core, MAICC node, Neural Cache.
    pub const TABLE4_CYCLES: [f64; 3] = [1.24e7, 59_141.0, 136_416.0];
    /// Table 4 energy (J): scalar, MAICC, Neural Cache.
    pub const TABLE4_ENERGY: [f64; 3] = [1.03e-4, 3.96e-6, 4.03e-6];
    /// Table 5 cycles without static scheduling, one WB port,
    /// queue = 0, 1, 2, 4.
    pub const TABLE5_DYNAMIC: [f64; 4] = [61_895.0, 60_761.0, 59_141.0, 59_141.0];
    /// Table 5 cycles with static scheduling, one WB port, queue 0–4.
    pub const TABLE5_STATIC: [f64; 4] = [52_098.0, 50_802.0, 50_154.0, 50_154.0];
    /// Table 6 total latency (ms): single-layer, greedy, heuristic.
    pub const TABLE6_TOTAL_MS: [f64; 3] = [24.078, 10.410, 5.138];
    /// Table 7: latency ms for CPU, GPU, MAICC.
    pub const TABLE7_LATENCY_MS: [f64; 3] = [22.3, 1.02, 5.13];
    /// Table 7: throughput/W for CPU, GPU, MAICC.
    pub const TABLE7_TPW: [f64; 3] = [0.25, 4.29, 7.90];
    /// §6.3 GFLOPS/W: Neural Cache published, MAICC reported.
    pub const GFLOPS_PER_W: [f64; 2] = [22.90, 50.03];
    /// Figure 10(a) area fractions: CMem, core, node SRAM, NoC, LLC.
    pub const FIG10_AREA: [f64; 5] = [0.65, 0.11, 0.10, 0.09, 0.05];
    /// Figure 10(b) energy fractions: DRAM, CMem, NoC (others < 10 %).
    pub const FIG10_ENERGY_TOP3: [f64; 3] = [0.71, 0.11, 0.11];
}

/// Wall-clock reference points for the self-timed harness
/// (`cargo run --release -p maicc-bench --bin maicc_bench`), measured on
/// the build immediately preceding the fast-path/parallel-simulation work.
pub mod pre_pr {
    /// Median of 5 release-mode runs of `StreamSim::run` over
    /// `StreamConfig::resnet18_segment()` (bit-serial MACs, sequential
    /// stepping), in nanoseconds.
    pub const RESNET18_SEGMENT_NS: u64 = 1_356_117_893;
}

/// Prints a `measured vs paper` row with the deviation factor.
pub fn row(label: &str, measured: f64, paper: f64, unit: &str) {
    let ratio = if paper != 0.0 { measured / paper } else { f64::NAN };
    println!("{label:<34} measured {measured:>12.4} {unit:<10} paper {paper:>12.4}  (x{ratio:.2})");
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n===== {title} =====");
}

#[cfg(test)]
mod tests {
    #[test]
    fn paper_constants_are_positive() {
        for v in super::paper::TABLE4_CYCLES {
            assert!(v > 0.0);
        }
        let t6 = super::paper::TABLE6_TOTAL_MS;
        assert!(t6.windows(2).all(|w| w[0] > w[1]));
    }
}
