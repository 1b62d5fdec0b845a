//! Per-layer CMem capacity and iteration-time math (§4.1).
//!
//! A computing core's seven slices hold `7Q = 49` vector slots of 256
//! bit-lines each (8-bit precision, 8 rows reserved for the ifmap). A
//! filter of `R×S×C` therefore occupies `R·S·min(C,256)` bit-line-slots
//! per 256-channel group, and layers with `C > 256` split filters into
//! `⌈C/256⌉` channel groups whose partial sums the scalar core combines —
//! so the number a core holds is
//! `⌊49·256 / (R·S·min(C,256))⌋` sub-filters.
//!
//! This formula reproduces the paper's greedy node counts exactly for
//! every Table-6 layer with `C ≤ 256` (5, 8, 14, 27, 53, 2, 4, 12 …).

use crate::config::ExecConfig;
use crate::ExecError;
use maicc_nn::graph::LayerShape;
use serde::{Deserialize, Serialize};

/// Bit-lines per slot.
pub(crate) const SLOT_BITS: usize = 256;

/// Vector slots per core at an arbitrary precision: each slice holds
/// `Q = 64/n − 1` transposed n-bit vectors (§4.1), seven slices compute.
#[must_use]
pub(crate) fn slots_per_core(n_bits: usize) -> usize {
    7 * (64 / n_bits.max(1)).saturating_sub(1)
}

/// Static capacity facts for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerCapacity {
    /// Channel groups (`⌈C/256⌉`).
    pub groups: usize,
    /// Sub-filters in total (`M × groups`, or `M` for the streamed linear
    /// layer).
    pub sub_filters: usize,
    /// Maximum sub-filters one core can hold.
    pub per_core_max: usize,
}

impl LayerCapacity {
    /// Computes the capacity facts for a layer at 8-bit precision.
    #[must_use]
    pub fn of(shape: &LayerShape) -> Self {
        Self::of_bits(shape, 8)
    }

    /// Computes the capacity facts at an explicit element precision: lower
    /// precision packs more vectors per slice (`Q = 64/n − 1`) so layers
    /// need fewer cores, at `n²` CMem cycles per MAC.
    #[must_use]
    pub(crate) fn of_bits(shape: &LayerShape, n_bits: usize) -> Self {
        let slots = slots_per_core(n_bits);
        if shape.is_linear {
            // weight-stationary is pointless at batch 1: each core anchors
            // one slot's worth of output neurons and streams weight groups
            return LayerCapacity {
                groups: shape.in_c.div_ceil(SLOT_BITS),
                sub_filters: shape.out_c,
                per_core_max: slots,
            };
        }
        let cpv = shape.in_c.min(SLOT_BITS);
        let groups = shape.in_c.div_ceil(SLOT_BITS);
        let bits_per_sub = shape.kernel_h * shape.kernel_w * cpv;
        let per_core_max = (slots * SLOT_BITS) / bits_per_sub;
        LayerCapacity {
            groups,
            sub_filters: shape.out_c * groups,
            per_core_max,
        }
    }

    /// Minimum computing cores that can hold the whole layer.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::LayerTooLarge`] if one sub-filter exceeds a
    /// core's CMem.
    pub fn min_cores(&self, name: &str) -> Result<usize, ExecError> {
        if self.per_core_max == 0 {
            return Err(ExecError::LayerTooLarge {
                layer: name.to_string(),
                needed: usize::MAX,
                available: 0,
            });
        }
        Ok(self.sub_filters.div_ceil(self.per_core_max))
    }

    /// Computing cores beyond which extra cores hold nothing.
    #[must_use]
    pub fn max_useful_cores(&self) -> usize {
        self.sub_filters
    }
}

/// One layer's node-group allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerAlloc {
    /// The layer's static shape.
    pub shape: LayerShape,
    /// Capacity facts.
    pub capacity: LayerCapacity,
    /// Computing cores assigned (excludes the data-collection core).
    pub computing_cores: usize,
    /// Whether this layer's DC reads its ifmap from DRAM (segment entry)
    /// rather than from the previous layer's cores.
    pub fed_from_dram: bool,
    /// Whether this layer's ofmap leaves to DRAM (segment exit).
    pub drains_to_dram: bool,
}

/// Per-iteration timing of one allocated layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Ifmap vectors streamed (one per input pixel).
    pub iterations: u64,
    /// CMem occupancy per iteration on the busiest core.
    pub t_cmem: f64,
    /// Scalar-pipeline work per iteration on the busiest core.
    pub t_core: f64,
    /// Computing-core period (`max(t_cmem, t_core)` — Equation (1)).
    pub t_cc: f64,
    /// Data-collection period.
    pub t_dc: f64,
    /// The streaming period of the whole node group.
    pub period: f64,
    /// Vector MACs per core per iteration (average).
    pub macs_per_iter: f64,
    /// Row receive+send cycles per iteration (for Figure 9's breakdown).
    pub t_recv: f64,
    /// Row forward cycles per iteration.
    pub t_send_ifmap: f64,
    /// Ofmap store cycles per iteration.
    pub t_send_ofmap: f64,
}

impl LayerAlloc {
    /// Creates an allocation with `computing_cores` cores (8-bit layout).
    #[must_use]
    pub fn new(shape: LayerShape, computing_cores: usize) -> Self {
        Self::with_bits(shape, computing_cores, 8)
    }

    /// Creates an allocation at an explicit precision.
    #[must_use]
    pub(crate) fn with_bits(shape: LayerShape, computing_cores: usize, n_bits: usize) -> Self {
        let capacity = LayerCapacity::of_bits(&shape, n_bits);
        LayerAlloc {
            shape,
            capacity,
            computing_cores,
            fed_from_dram: false,
            drains_to_dram: false,
        }
    }

    /// Total nodes including the data-collection core.
    #[must_use]
    pub(crate) fn nodes(&self) -> usize {
        self.computing_cores + 1
    }

    /// Average sub-filters per computing core.
    #[must_use]
    pub(crate) fn sub_filters_per_core(&self) -> f64 {
        self.capacity.sub_filters as f64 / self.computing_cores as f64
    }

    /// Evaluates the per-iteration timing under `cfg`.
    #[must_use]
    pub fn timing(&self, cfg: &ExecConfig) -> LayerTiming {
        let s = &self.shape;
        let n = cfg.n_bits as f64;
        let g = self.capacity.groups as f64;
        let iterations = (s.in_h * s.in_w) as u64;
        if s.is_linear {
            return self.linear_timing(cfg);
        }
        let spc = self.sub_filters_per_core().ceil();
        // average useful MACs per arriving vector (margins and stride
        // discounted): every ofmap value needs R·S MACs per group
        let useful = (s.out_h * s.out_w * s.kernel_h * s.kernel_w) as f64
            / (s.in_h * s.in_w) as f64;
        let macs_per_iter = spc * useful;
        let t_cmem = g * 7.0 * n + (macs_per_iter / 7.0).ceil() * n * n;
        // ofmap values finished per core per iteration
        let vals = (spc / g) * (s.out_h * s.out_w) as f64 / (s.in_h * s.in_w) as f64;
        let rows = g * n;
        let t_recv = rows * cfg.row_recv_cycles;
        let t_send_ifmap = rows * cfg.row_send_cycles + cfg.handshake_cycles;
        let t_send_ofmap = vals * cfg.aux_per_value;
        let t_core = t_recv
            + macs_per_iter * cfg.accumulate_per_mac
            + t_send_ofmap
            + t_send_ifmap;
        let t_cc = t_cmem.max(t_core);
        // the data-collection core: receive/fetch C bytes, transpose them
        // vertically into slice 0, send the rows on
        let c = s.in_c as f64;
        let fetch = if self.fed_from_dram {
            // blocking word loads with growing memory-level parallelism:
            // larger transfers overlap more round trips (scoreboard +
            // channel interleave), so the per-word cost shrinks as C^-1/4
            (c / 4.0) * cfg.dram_load_cycles * (64.0 / c).powf(0.25)
                + c * cfg.transpose_per_byte * 0.5
        } else {
            c * cfg.transpose_per_byte
        };
        let t_dc = fetch + rows * cfg.row_send_cycles + cfg.handshake_cycles;
        let period = t_cc.max(t_dc);
        LayerTiming {
            iterations,
            t_cmem,
            t_core,
            t_cc,
            t_dc,
            period,
            macs_per_iter,
            t_recv,
            t_send_ifmap,
            t_send_ofmap,
        }
    }

    fn linear_timing(&self, cfg: &ExecConfig) -> LayerTiming {
        let s = &self.shape;
        let n = cfg.n_bits as f64;
        let g = self.capacity.groups as f64;
        let spc = self.sub_filters_per_core().ceil();
        // per input group: one MAC per resident output neuron, plus the
        // weight restream for groups past the first — the first group's
        // load is the segment pre-load the pipeline model already charges
        // as `filter_load`, so a single-group layer restreams nothing
        let weight_bytes = (s.in_c * s.out_c) as f64 / self.computing_cores as f64;
        let restream_bytes = weight_bytes * (g - 1.0) / g;
        let t_cmem = g * (7.0 * n + (spc / 7.0).ceil() * n * n);
        let t_core = spc * cfg.accumulate_per_mac * g
            + spc * cfg.aux_per_value
            + restream_bytes / (cfg.filter_load_bw / self.computing_cores as f64);
        let t_cc = t_cmem.max(t_core);
        let t_dc = s.in_c as f64 * cfg.transpose_per_byte + g * n * cfg.row_send_cycles;
        LayerTiming {
            iterations: 1,
            t_cmem,
            t_core,
            t_cc,
            t_dc,
            period: t_cc.max(t_dc),
            macs_per_iter: spc * g,
            t_recv: g * n * cfg.row_recv_cycles,
            t_send_ifmap: 0.0,
            t_send_ofmap: spc * cfg.aux_per_value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_nn::resnet::resnet18;

    fn shapes() -> Vec<LayerShape> {
        resnet18(1000).shapes([64, 56, 56]).unwrap()
    }

    #[test]
    fn greedy_min_cores_match_paper_table6() {
        // paper's greedy column (computing cores = column minus the DC):
        // conv1_1: 5 → 4 CC, conv2_1: 8 → 7, conv2_2: 14 → 13,
        // shortcut1: 2 → 1, shortcut2: 4 → 3, conv3_1: 27 → 26,
        // conv3_2: 53 → 52, shortcut3: 12 → 11
        let expect = [
            ("conv1_1", 4),
            ("shortcut1", 1),
            ("conv2_1", 7),
            ("conv2_2", 13),
            ("shortcut2", 3),
            ("conv3_1", 26),
            ("conv3_2", 52),
            ("shortcut3", 11),
        ];
        let shapes = shapes();
        for (name, cc) in expect {
            let s = shapes.iter().find(|s| s.name == name).unwrap();
            let cap = LayerCapacity::of(s);
            assert_eq!(
                cap.min_cores(name).unwrap(),
                cc,
                "{name}: groups={} sub={} max/core={}",
                cap.groups,
                cap.sub_filters,
                cap.per_core_max
            );
        }
    }

    #[test]
    fn conv4_layers_split_channels() {
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.name == "conv4_2").unwrap();
        let cap = LayerCapacity::of(s);
        assert_eq!(cap.groups, 2);
        assert_eq!(cap.sub_filters, 1024);
        assert_eq!(cap.per_core_max, 5);
        // 205 computing cores — the paper reports 208 nodes total
        assert_eq!(cap.min_cores("conv4_2").unwrap(), 205);
    }

    #[test]
    fn linear_layer_matches_paper_22_nodes() {
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.is_linear).unwrap();
        let cap = LayerCapacity::of(s);
        // 1000 outputs / 49 per core = 21 computing cores (+1 DC = 22)
        assert_eq!(cap.min_cores("linear").unwrap(), 21);
    }

    #[test]
    fn single_group_linear_charges_no_restream() {
        let cfg = ExecConfig::default();
        // resnet18's classifier: 512 inputs → two 256-channel groups
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.is_linear).unwrap();
        let cores = LayerCapacity::of(s).min_cores("linear").unwrap();
        let a = LayerAlloc::new(s.clone(), cores);
        let spc = a.sub_filters_per_core().ceil();
        let g = a.capacity.groups as f64;
        assert_eq!(a.capacity.groups, 2);
        // groups past the first restream their slice; the first load is
        // the pipeline model's per-segment filter_load
        let wb = (s.in_c * s.out_c) as f64 / a.computing_cores as f64;
        let expect = spc * cfg.accumulate_per_mac * g
            + spc * cfg.aux_per_value
            + wb * (g - 1.0) / g / (cfg.filter_load_bw / a.computing_cores as f64);
        assert!((a.timing(&cfg).t_core - expect).abs() < 1e-9);

        // a single-group variant charges no restream at all: t_core is
        // purely MAC + aux (this used to double-count the initial load)
        let mut s1 = s.clone();
        s1.in_c = 256;
        let a1 = LayerAlloc::new(s1, cores);
        let spc1 = a1.sub_filters_per_core().ceil();
        assert_eq!(a1.capacity.groups, 1);
        let expect1 = spc1 * cfg.accumulate_per_mac + spc1 * cfg.aux_per_value;
        assert!((a1.timing(&cfg).t_core - expect1).abs() < 1e-9);
    }

    #[test]
    fn precision_scales_capacity() {
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.name == "conv3_2").unwrap();
        let c4 = LayerCapacity::of_bits(s, 4);
        let c8 = LayerCapacity::of_bits(s, 8);
        let c16 = LayerCapacity::of_bits(s, 16);
        // Q = 15 / 7 / 3 slots per slice
        assert!(c4.per_core_max > c8.per_core_max);
        assert!(c8.per_core_max > c16.per_core_max);
        assert_eq!(c8.per_core_max, 5);
        assert_eq!(slots_per_core(4), 105);
        assert_eq!(slots_per_core(8), 49);
        assert_eq!(slots_per_core(16), 21);
    }

    #[test]
    fn table4_node_holds_five_filters() {
        // 3×3×256 filters: ⌊49·256/(9·256)⌋ = 5, exactly Figure 6's claim
        let s = LayerShape {
            name: "t4".into(),
            in_c: 256,
            in_h: 9,
            in_w: 9,
            out_c: 5,
            out_h: 7,
            out_w: 7,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            macs: 0,
            is_linear: false,
        };
        assert_eq!(LayerCapacity::of(&s).per_core_max, 5);
    }

    #[test]
    fn timing_period_is_max_of_stages() {
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.name == "conv2_2").unwrap();
        let mut a = LayerAlloc::new(s.clone(), 13);
        let cfg = ExecConfig::default();
        let t = a.timing(&cfg);
        assert_eq!(t.iterations, 28 * 28);
        assert!((t.period - t.t_cc.max(t.t_dc)).abs() < 1e-9);
        assert!(t.t_cc >= t.t_cmem && t.t_cc >= t.t_core);
        // DRAM-fed DC is slower
        a.fed_from_dram = true;
        let t2 = a.timing(&cfg);
        assert!(t2.t_dc > t.t_dc);
    }

    #[test]
    fn more_cores_reduce_compute_period() {
        let shapes = shapes();
        let s = shapes.iter().find(|s| s.name == "conv3_2").unwrap();
        let cfg = ExecConfig::default();
        let few = LayerAlloc::new(s.clone(), 52).timing(&cfg);
        let many = LayerAlloc::new(s.clone(), 150).timing(&cfg);
        assert!(many.t_cmem < few.t_cmem);
        assert!(many.t_cc <= few.t_cc);
    }

    #[test]
    fn stride_two_reduces_average_macs() {
        let shapes = shapes();
        let s1 = shapes.iter().find(|s| s.name == "conv2_2").unwrap();
        let s2 = shapes.iter().find(|s| s.name == "conv2_1").unwrap();
        let cfg = ExecConfig::default();
        let a1 = LayerAlloc::new(s1.clone(), 13).timing(&cfg);
        let a2 = LayerAlloc::new(s2.clone(), 7).timing(&cfg);
        // same filters per core, but the stride-2 layer MACs only a quarter
        // of the windows per arriving vector
        assert!(a2.macs_per_iter < a1.macs_per_iter);
    }

    #[test]
    fn oversized_filter_rejected() {
        let s = LayerShape {
            name: "huge".into(),
            in_c: 256,
            in_h: 14,
            in_w: 14,
            out_c: 64,
            out_h: 8,
            out_w: 8,
            kernel_h: 7,
            kernel_w: 7,
            stride: 1,
            macs: 0,
            is_linear: false,
        };
        let cap = LayerCapacity::of(&s);
        assert_eq!(cap.per_core_max, 1); // 49·256/(49·256) = 1, still fits
        let s9 = LayerShape {
            kernel_h: 9,
            kernel_w: 9,
            ..s
        };
        assert!(LayerCapacity::of(&s9).min_cores("huge").is_err());
    }
}
