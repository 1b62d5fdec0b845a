//! Power/energy model and the Figure-10(b) energy breakdown.
//!
//! Static power comes from documented per-component constants; dynamic
//! energy comes from the counters the simulators emit (CMem ops, NoC
//! flit-hops, DRAM accesses, retired instructions). The dominant term at
//! chip level is the many-core DRAM's background power — with only 24.7 W
//! of total chip+memory power, the 2 GB, 32-channel DRAM's standby/refresh
//! floor is what makes DRAM 71 % of the energy pie (Figure 10(b)).

use serde::{Deserialize, Serialize};

/// One lightweight core's power, W (§5: 8 mW at 28 nm / 1 GHz).
pub const CORE_W: f64 = 0.008;
/// One node's CMem leakage/peripheral static power, W. 16 KB of
/// compute-capable SRAM with eight adder trees leaks roughly 10 mW at
/// 28 nm; this is what makes the CMem ≈11 % of chip energy in
/// Figure 10(b) even though each MAC.C costs only 28 pJ.
pub const CMEM_STATIC_W: f64 = 0.010;
/// Node SRAM (icache + data memory) static power, W.
pub(crate) const NODE_SRAM_W: f64 = 0.002;
/// NoC static power, W (§5: 2.20 W, dsent).
pub(crate) const NOC_STATIC_W: f64 = 2.20;
/// One LLC tile's static power, W.
pub(crate) const LLC_TILE_W: f64 = 0.010;
/// Many-core DRAM background power (standby + refresh + PHY) across all
/// 32 channels of the 2 GB device, W.
pub(crate) const DRAM_STATIC_W: f64 = 17.2;
/// Dynamic energy per retired scalar instruction, pJ (8 mW / 1 GHz core,
/// roughly half static, half activity-dependent).
pub(crate) const CORE_INST_PJ: f64 = 4.0;

/// Dynamic-activity counters a simulation produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// CMem dynamic energy already integrated by `maicc-sram`'s meters, pJ.
    pub cmem_pj: f64,
    /// NoC flit-hops.
    pub noc_flit_hops: u64,
    /// DRAM + LLC dynamic energy from `maicc-mem`, pJ.
    pub mem_pj: f64,
    /// Total instructions retired across all cores.
    pub instructions: u64,
    /// Cores that were powered during the run.
    pub active_cores: usize,
    /// LLC tiles powered.
    pub llc_tiles: usize,
    /// Run length in seconds.
    pub seconds: f64,
}

/// The Figure-10(b) energy breakdown, joules per component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Many-core DRAM (static + dynamic).
    pub dram: f64,
    /// CMem operations.
    pub cmem: f64,
    /// Mesh network (static + per-flit-hop dynamic).
    pub noc: f64,
    /// Scalar cores (static + per-instruction dynamic).
    pub core: f64,
    /// Node SRAMs.
    pub node_sram: f64,
    /// LLC tiles.
    pub llc: f64,
}

impl EnergyBreakdown {
    /// Integrates the power model over one run.
    #[must_use]
    pub fn from_counters(c: &ActivityCounters) -> Self {
        let t = c.seconds;
        EnergyBreakdown {
            dram: DRAM_STATIC_W * t + c.mem_pj * 1e-12,
            cmem: c.active_cores as f64 * CMEM_STATIC_W * t + c.cmem_pj * 1e-12,
            noc: NOC_STATIC_W * t + c.noc_flit_hops as f64 * maicc_noc_flit_pj() * 1e-12,
            core: c.active_cores as f64 * CORE_W * t + c.instructions as f64 * CORE_INST_PJ * 1e-12,
            node_sram: c.active_cores as f64 * NODE_SRAM_W * t,
            llc: c.llc_tiles as f64 * LLC_TILE_W * t,
        }
    }

    /// Total energy, joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dram + self.cmem + self.noc + self.core + self.node_sram + self.llc
    }

    /// Average power over the run, watts.
    #[must_use]
    pub fn average_power(&self, seconds: f64) -> f64 {
        self.total() / seconds
    }

    /// Fractions in Figure-10 order (dram, cmem, noc, core, node SRAM, LLC).
    #[must_use]
    pub fn fractions(&self) -> [f64; 6] {
        let t = self.total();
        [
            self.dram / t,
            self.cmem / t,
            self.noc / t,
            self.core / t,
            self.node_sram / t,
            self.llc / t,
        ]
    }

    /// Total excluding DRAM (for the §6.3 GFLOPS/W comparison, which
    /// excludes DRAM like Neural Cache's published number does).
    #[must_use]
    pub fn total_without_dram(&self) -> f64 {
        self.total() - self.dram
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fr = self.fractions();
        write!(
            f,
            "{:.2} mJ (dram {:.0}%, cmem {:.0}%, noc {:.0}%, core {:.0}%, \
             sram {:.0}%, llc {:.0}%)",
            self.total() * 1e3,
            fr[0] * 100.0,
            fr[1] * 100.0,
            fr[2] * 100.0,
            fr[3] * 100.0,
            fr[4] * 100.0,
            fr[5] * 100.0
        )
    }
}

/// Re-exported NoC flit-hop energy (pJ) so callers need only this crate.
#[must_use]
pub(crate) fn maicc_noc_flit_pj() -> f64 {
    5.4
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters shaped like a heuristic-mapped ResNet-18 run: ~5 ms,
    /// ~3 mJ of CMem activity, modest NoC/DRAM dynamic traffic.
    fn resnet_like() -> ActivityCounters {
        ActivityCounters {
            cmem_pj: 1.3e9,        // ≈1.3 mJ of MAC/Move activity
            noc_flit_hops: 60_000_000,
            mem_pj: 1.5e9,
            instructions: 400_000_000,
            active_cores: 210,
            llc_tiles: 32,
            seconds: 5.1e-3,
        }
    }

    #[test]
    fn dram_dominates_like_fig10b() {
        let e = EnergyBreakdown::from_counters(&resnet_like());
        let f = e.fractions();
        assert!((0.60..0.80).contains(&f[0]), "dram share {}", f[0]);
        assert!(f[1] > 0.05, "cmem share {}", f[1]);
        assert!(f[2] > 0.05, "noc share {}", f[2]);
        assert!(f[3] < 0.10, "core share {}", f[3]);
    }

    #[test]
    fn average_power_near_25w() {
        let c = resnet_like();
        let e = EnergyBreakdown::from_counters(&c);
        let p = e.average_power(c.seconds);
        assert!((20.0..30.0).contains(&p), "power {p}");
    }

    #[test]
    fn fractions_sum_to_one() {
        let e = EnergyBreakdown::from_counters(&resnet_like());
        let s: f64 = e.fractions().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn without_dram_strictly_smaller() {
        let e = EnergyBreakdown::from_counters(&resnet_like());
        assert!(e.total_without_dram() < e.total());
        assert!(e.total_without_dram() > 0.0);
    }

    #[test]
    fn zero_time_is_pure_dynamic() {
        let c = ActivityCounters {
            cmem_pj: 1e6,
            seconds: 0.0,
            ..ActivityCounters::default()
        };
        let e = EnergyBreakdown::from_counters(&c);
        assert!((e.total() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes_breakdown() {
        let e = EnergyBreakdown::from_counters(&resnet_like());
        let s = e.to_string();
        assert!(s.contains("mJ"));
        assert!(s.contains("dram"));
    }

    #[test]
    fn cmem_share_near_paper_11_percent() {
        let c = resnet_like();
        let e = EnergyBreakdown::from_counters(&c);
        let f = e.fractions();
        assert!((0.05..0.18).contains(&f[1]), "cmem share {}", f[1]);
    }
}
