//! Vector-granularity pipeline model of multi-layer execution (§4.2).
//!
//! Every layer is a two-stage pipeline — data-collection core, then the
//! computing-core chain — streaming one ifmap vector (pixel) per
//! iteration. Layers mapped in the same segment overlap: an ofmap pixel
//! becomes available to the next layer the moment its window completes
//! ("with a delay of R rows", Figure 7(a)). Segments execute in sequence
//! through DRAM.
//!
//! The model produces Table 6 (per-layer nodes and per-segment latency),
//! Figure 9 (per-iteration breakdowns), and the activity counters that
//! drive Table 7 / Figure 10(b) through `maicc-model`.

use crate::alloc::LayerTiming;
use crate::config::ExecConfig;
use crate::segment::{segment, Segment, Strategy};
use crate::ExecError;
use maicc_model::power::ActivityCounters;
use maicc_nn::graph::{Network, NodeInput};
use serde::{Deserialize, Serialize};

/// Per-layer outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name (Table-6 row).
    pub name: String,
    /// Nodes assigned (computing cores + data-collection core).
    pub nodes: usize,
    /// Segment index.
    pub segment: usize,
    /// Static per-iteration timing.
    pub timing: LayerTiming,
    /// Achieved period (cycles per iteration, including waiting).
    pub effective_period: f64,
    /// Cycle the layer produced its first output.
    pub start: f64,
    /// Cycle the layer produced its last output.
    pub end: f64,
}

/// Per-segment outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Cycle the segment's filter load began.
    pub start: f64,
    /// Cycle the segment's last layer finished.
    pub end: f64,
    /// Cycles spent pre-loading filters from DRAM.
    pub filter_load: f64,
}

impl SegmentReport {
    /// Segment latency in cycles.
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.end - self.start
    }
}

/// Whole-network outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The strategy that produced this mapping.
    pub strategy: Strategy,
    /// Per-layer reports in topological order.
    pub layers: Vec<LayerReport>,
    /// Per-segment reports.
    pub segments: Vec<SegmentReport>,
    /// End-to-end latency in cycles.
    pub total_cycles: f64,
    /// Activity counters for the energy model.
    pub counters: ActivityCounters,
}

impl RunReport {
    /// End-to-end latency in milliseconds.
    #[must_use]
    pub fn total_ms(&self, cfg: &ExecConfig) -> f64 {
        cfg.cycles_to_ms(self.total_cycles)
    }

    /// Throughput in samples per second at the configured clock.
    #[must_use]
    pub fn throughput(&self, cfg: &ExecConfig) -> f64 {
        cfg.freq_hz / self.total_cycles
    }
}

/// The Figure-9 per-iteration cycle breakdown of one layer's computing
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterBreakdown {
    /// Cycles waiting for the next ifmap vector.
    pub wait: f64,
    /// CMem compute cycles.
    pub compute: f64,
    /// Receiving the ifmap rows.
    pub recv: f64,
    /// Forwarding the ifmap rows to the next core.
    pub send_ifmap: f64,
    /// Auxiliary functions + ofmap stores.
    pub send_ofmap: f64,
    /// The achieved iteration period (sum of the above).
    pub effective_period: f64,
}

impl IterBreakdown {
    /// Derives the breakdown from a layer report.
    #[must_use]
    pub fn of(layer: &LayerReport) -> Self {
        let t = &layer.timing;
        let busy = t.t_cmem + t.t_recv + t.t_send_ifmap + t.t_send_ofmap;
        let period = layer.effective_period.max(busy);
        IterBreakdown {
            wait: (period - busy).max(0.0),
            compute: t.t_cmem,
            recv: t.t_recv,
            send_ifmap: t.t_send_ifmap,
            send_ofmap: t.t_send_ofmap,
            effective_period: period,
        }
    }
}

/// Maps and "runs" a network under a strategy.
///
/// # Errors
///
/// Propagates shape-propagation and capacity errors.
pub fn run_network(
    net: &Network,
    input: [usize; 3],
    strategy: Strategy,
    cfg: &ExecConfig,
) -> Result<RunReport, ExecError> {
    let shapes = net.shapes(input)?;
    let segments = segment(&shapes, strategy, cfg)?;
    run_segments(net, &segments, cfg, strategy)
}

/// Runs an explicit segmentation (used by ablations that bypass the
/// built-in strategies).
///
/// # Errors
///
/// Returns [`ExecError::BadShapes`] if segment indices are inconsistent
/// with the network.
pub(crate) fn run_segments(
    net: &Network,
    segments: &[Segment],
    cfg: &ExecConfig,
    strategy: Strategy,
) -> Result<RunReport, ExecError> {
    let nodes = net.layers();
    let n_layers = nodes.len();
    // out_times[layer] = availability time of each output pixel
    let mut out_times: Vec<Vec<f64>> = vec![Vec::new(); n_layers];
    let mut layer_reports: Vec<Option<LayerReport>> = (0..n_layers).map(|_| None).collect();
    let mut segment_reports = Vec::with_capacity(segments.len());
    let mut counters = ActivityCounters {
        active_cores: cfg.cores,
        llc_tiles: 32,
        ..ActivityCounters::default()
    };
    let mut clock = 0.0f64;

    for (seg_idx, seg) in segments.iter().enumerate() {
        // filter pre-load from DRAM (§6.2: batched, <10 % of segment time)
        let weight_bytes: f64 = seg
            .allocs
            .iter()
            .map(|a| {
                let s = &a.shape;
                (s.out_c * s.in_c * s.kernel_h * s.kernel_w) as f64
            })
            .sum();
        let filter_load = weight_bytes / cfg.filter_load_bw;
        let seg_start = clock;
        let data_start = clock + filter_load;
        let in_segment: std::collections::HashSet<usize> =
            seg.layer_indices.iter().copied().collect();
        let mut seg_end = data_start;

        for (pos, &li) in seg.layer_indices.iter().enumerate() {
            let mut alloc = seg.allocs[pos].clone();
            let node = &nodes[li];
            // a producer outside this segment means the ifmap is staged in
            // DRAM regardless of what the strategy marked
            let producer = match node.input {
                NodeInput::External => None,
                NodeInput::Node(p) => Some(p),
            };
            if producer.is_none_or(|p| !in_segment.contains(&p)) {
                alloc.fed_from_dram = true;
            }
            let timing = alloc.timing(cfg);
            let s = &alloc.shape;
            let iters = timing.iterations as usize;

            // input availability per ifmap pixel
            let in_time = |t: usize| -> f64 {
                match producer {
                    Some(p) if in_segment.contains(&p) => {
                        let prod = &out_times[p];
                        if prod.len() == iters {
                            prod[t]
                        } else {
                            // pooled/reshaped producer: conservatively wait
                            // for its final value
                            *prod.last().expect("producer already run")
                        }
                    }
                    _ => data_start,
                }
            };

            // stage 1: data collection, stage 2: computing-core chain
            let mut dc_done = vec![0.0f64; iters];
            let mut cc_done = vec![0.0f64; iters];
            let mut prev_dc = data_start;
            let mut prev_cc = data_start;
            for t in 0..iters {
                let d = in_time(t).max(prev_dc) + timing.t_dc;
                prev_dc = d;
                dc_done[t] = d;
                let c = (d + cfg.hop_cycles).max(prev_cc) + timing.t_cc;
                prev_cc = c;
                cc_done[t] = c;
            }

            // output pixels: ready when the window's last ifmap pixel has
            // been processed, plus the chain tail and aux
            let tail = cfg.hop_cycles * 2.0 + cfg.aux_per_value;
            let out_n = s.out_h * s.out_w;
            let mut outs = vec![0.0f64; out_n.max(1)];
            let res_producer = match node.residual {
                Some(NodeInput::Node(p)) => Some(p),
                _ => None,
            };
            for oy in 0..s.out_h {
                for ox in 0..s.out_w {
                    let iy = (oy * s.stride + s.kernel_h - 1).min(s.in_h - 1);
                    let ix = (ox * s.stride + s.kernel_w - 1).min(s.in_w - 1);
                    let t_last = iy * s.in_w + ix;
                    let mut ready = cc_done[t_last] + tail;
                    if let Some(p) = res_producer {
                        let r = if in_segment.contains(&p) {
                            let prod = &out_times[p];
                            prod.get(oy * s.out_w + ox)
                                .or(prod.last())
                                .copied()
                                .unwrap_or(data_start)
                        } else {
                            data_start
                        };
                        ready = ready.max(r);
                    }
                    outs[oy * s.out_w + ox] = ready;
                }
            }
            if s.is_linear {
                outs = vec![cc_done[iters - 1] + tail];
            }
            let start = outs.first().copied().unwrap_or(data_start);
            let end = outs.last().copied().unwrap_or(data_start);
            seg_end = seg_end.max(end);

            let effective_period = (cc_done[iters - 1] - data_start) / iters as f64;
            accumulate_counters(&mut counters, &alloc, &timing, cfg, weight_bytes);
            out_times[li] = outs;
            layer_reports[li] = Some(LayerReport {
                name: s.name.clone(),
                nodes: alloc.nodes(),
                segment: seg_idx,
                timing,
                effective_period,
                start,
                end,
            });
        }

        segment_reports.push(SegmentReport {
            start: seg_start,
            end: seg_end,
            filter_load,
        });
        clock = seg_end;
    }

    let layers: Vec<LayerReport> = layer_reports
        .into_iter()
        .map(|r| {
            r.ok_or(ExecError::BadShapes {
                reason: "segmentation did not cover every layer".into(),
            })
        })
        .collect::<Result<_, _>>()?;
    counters.seconds = clock / cfg.freq_hz;
    Ok(RunReport {
        strategy,
        layers,
        segments: segment_reports,
        total_cycles: clock,
        counters,
    })
}

fn accumulate_counters(
    counters: &mut ActivityCounters,
    alloc: &crate::alloc::LayerAlloc,
    timing: &LayerTiming,
    cfg: &ExecConfig,
    _weight_bytes: f64,
) {
    use maicc_mem::dram::{ACTIVATE_PJ, READ_PJ, WRITE_PJ};
    use maicc_sram::energy::{MAC_PJ, MOVE_PJ, REMOTE_ROW_PJ, VERTICAL_WRITE_PJ};
    let s = &alloc.shape;
    let iters = timing.iterations as f64;
    let cores = alloc.computing_cores as f64;
    let groups = alloc.capacity.groups as f64;
    let rows = groups * cfg.n_bits as f64;
    // CMem dynamic energy
    let total_macs = iters * timing.macs_per_iter * cores;
    let moves = iters * 7.0 * groups * cores;
    let vertical = iters * s.in_c as f64; // DC transposes every byte once
    let remote_rows = iters * rows * (cores + 1.0); // receive at each core
    counters.cmem_pj += total_macs * MAC_PJ
        + moves * MOVE_PJ
        + vertical * VERTICAL_WRITE_PJ
        + remote_rows * REMOTE_ROW_PJ;
    // NoC: each ifmap row forwarded once per core, 9 flits, ~1 hop (zig-zag
    // adjacency); ofmap values converge on the next DC over a few hops
    let ofmap_words = (s.out_h * s.out_w * s.out_c) as f64 / 4.0;
    counters.noc_flit_hops +=
        (iters * rows * 9.0 * (cores + 1.0) + ofmap_words * 2.0 * 3.0) as u64;
    // DRAM dynamic: weights always; boundary tensors when staged
    let mut dram_lines = (s.out_c * s.in_c * s.kernel_h * s.kernel_w) as f64 / 32.0;
    if alloc.fed_from_dram {
        dram_lines += iters * s.in_c as f64 / 32.0;
    }
    if alloc.drains_to_dram {
        dram_lines += (s.out_h * s.out_w * s.out_c) as f64 / 32.0;
    }
    counters.mem_pj += dram_lines * (READ_PJ.max(WRITE_PJ) + 0.3 * ACTIVATE_PJ);
    // scalar instruction estimate: the core's busy share of each iteration
    counters.instructions += (iters * (timing.t_core * cores + timing.t_dc)) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_nn::resnet::{resnet18, tinynet};

    fn cfg() -> ExecConfig {
        ExecConfig::default()
    }

    #[test]
    fn strategies_reproduce_table6_ordering() {
        let net = resnet18(1000);
        let h = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg()).unwrap();
        let g = run_network(&net, [64, 56, 56], Strategy::Greedy, &cfg()).unwrap();
        let s = run_network(&net, [64, 56, 56], Strategy::SingleLayer, &cfg()).unwrap();
        assert!(
            h.total_cycles < g.total_cycles,
            "heuristic {} vs greedy {}",
            h.total_cycles,
            g.total_cycles
        );
        assert!(
            g.total_cycles < s.total_cycles,
            "greedy {} vs single {}",
            g.total_cycles,
            s.total_cycles
        );
    }

    #[test]
    fn heuristic_lands_in_table7_latency_band() {
        let net = resnet18(1000);
        let c = cfg();
        let h = run_network(&net, [64, 56, 56], Strategy::Heuristic, &c).unwrap();
        let ms = h.total_ms(&c);
        // paper: 5.13 ms; accept the band around it
        assert!((2.0..12.0).contains(&ms), "heuristic latency {ms} ms");
    }

    #[test]
    fn single_layer_latency_band() {
        let net = resnet18(1000);
        let c = cfg();
        let s = run_network(&net, [64, 56, 56], Strategy::SingleLayer, &c).unwrap();
        let ms = s.total_ms(&c);
        // paper: 24.1 ms
        assert!((10.0..45.0).contains(&ms), "single-layer latency {ms} ms");
    }

    #[test]
    fn every_layer_reported_once() {
        let net = resnet18(1000);
        let r = run_network(&net, [64, 56, 56], Strategy::Greedy, &cfg()).unwrap();
        assert_eq!(r.layers.len(), 20);
        assert_eq!(r.layers[0].name, "conv1_1");
        assert_eq!(r.layers[19].name, "linear");
    }

    #[test]
    fn pipelined_layers_overlap_in_time() {
        let net = resnet18(1000);
        let r = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg()).unwrap();
        // layers 0 and 1 share segment 0: layer 1 must start before layer 0
        // ends (inter-layer pipelining)
        let l0 = &r.layers[0];
        let l1 = &r.layers[1];
        assert_eq!(l0.segment, l1.segment);
        assert!(
            l1.start < l0.end,
            "no overlap: l1.start {} vs l0.end {}",
            l1.start,
            l0.end
        );
    }

    #[test]
    fn single_layer_does_not_overlap_segments() {
        let net = resnet18(1000);
        let r = run_network(&net, [64, 56, 56], Strategy::SingleLayer, &cfg()).unwrap();
        for w in r.segments.windows(2) {
            assert!(w[1].start >= w[0].end - 1e-9);
        }
    }

    #[test]
    fn fig9_breakdown_wait_dominates_single_layer() {
        let net = resnet18(1000);
        let c = cfg();
        let s = run_network(&net, [64, 56, 56], Strategy::SingleLayer, &c).unwrap();
        let h = run_network(&net, [64, 56, 56], Strategy::Heuristic, &c).unwrap();
        // layer index 8 = conv2_4 (the paper's layer 9)
        let bs = IterBreakdown::of(&s.layers[8]);
        let bh = IterBreakdown::of(&h.layers[8]);
        assert!(
            bs.wait > bh.wait,
            "single-layer should wait more: {bs:?} vs {bh:?}"
        );
        assert!(bs.wait > bs.compute, "waiting dominates single-layer: {bs:?}");
    }

    #[test]
    fn counters_are_populated() {
        let net = resnet18(1000);
        let r = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg()).unwrap();
        assert!(r.counters.cmem_pj > 0.0);
        assert!(r.counters.noc_flit_hops > 0);
        assert!(r.counters.mem_pj > 0.0);
        assert!(r.counters.instructions > 0);
        assert!(r.counters.seconds > 0.0);
    }

    /// §6.2: filter pre-loads take under 10 % of the run, the paper's
    /// bound, under every strategy.
    #[test]
    fn filter_load_is_small_fraction() {
        let net = resnet18(1000);
        for strategy in Strategy::ALL {
            let r = run_network(&net, [64, 56, 56], strategy, &cfg()).unwrap();
            let load: f64 = r.segments.iter().map(|s| s.filter_load).sum();
            let share = load / r.total_cycles;
            assert!(share < 0.10, "{strategy:?}: filter load share {share}");
        }
    }

    #[test]
    fn vgg11_maps_and_orders_strategies() {
        use maicc_nn::resnet::vgg11;
        let net = vgg11(10);
        let c = cfg();
        let h = run_network(&net, [64, 32, 32], Strategy::Heuristic, &c).unwrap();
        let s = run_network(&net, [64, 32, 32], Strategy::SingleLayer, &c).unwrap();
        assert!(h.total_cycles <= s.total_cycles);
        assert_eq!(h.layers.len(), 8);
        // pooling propagates: v_conv2 sees the halved resolution
        assert_eq!(h.layers[1].timing.iterations, 16 * 16);
    }

    #[test]
    fn mlp_maps_as_streamed_linears() {
        use maicc_nn::resnet::mlp;
        let net = mlp(512, 256, 64);
        let c = cfg();
        for strat in Strategy::ALL {
            let r = run_network(&net, [512, 1, 1], strat, &c).unwrap();
            assert_eq!(r.layers.len(), 3);
            assert!(r.total_cycles > 0.0);
            for l in &r.layers {
                assert_eq!(l.timing.iterations, 1, "{}", l.name);
            }
        }
    }

    #[test]
    fn tinynet_runs_all_strategies() {
        let net = tinynet(10);
        for strat in Strategy::ALL {
            let r = run_network(&net, [32, 16, 16], strat, &cfg()).unwrap();
            assert!(r.total_cycles > 0.0);
            assert_eq!(r.layers.len(), 5);
        }
    }

    #[test]
    fn throughput_matches_latency() {
        let net = resnet18(1000);
        let c = cfg();
        let r = run_network(&net, [64, 56, 56], Strategy::Heuristic, &c).unwrap();
        let t = r.throughput(&c);
        assert!((t * r.total_cycles / c.freq_hz - 1.0).abs() < 1e-9);
    }
}
