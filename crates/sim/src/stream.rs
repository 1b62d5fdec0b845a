//! Behaviour-level many-core streaming simulation of §4.2.
//!
//! Every structural element of Figure 7 exists here:
//!
//! * a **data-collection core** per layer that assembles ifmap pixels,
//!   transposes them (charged at the measured per-byte cost) and injects
//!   the 8 transposed rows as 9-flit packets into the *real* `maicc-noc`
//!   mesh;
//! * a chain of **computing cores**, each owning a *real bit-level*
//!   [`maicc_sram::cmem::Cmem`] with resident filter vectors; an arriving
//!   vector is written into slice 0, broadcast with `Move.C`, MAC-ed
//!   against every resident filter vector, and forwarded to the next core;
//! * **window flow control**: the first computing core credits the DC per
//!   consumed pixel — Algorithm 1's `p`/`nextp` flags;
//! * **inter-layer pipelining**: an ofmap value is requantized and sent to
//!   the next layer's DC the moment its window completes, so the next
//!   layer starts long before this one finishes.
//!
//! The final ofmap must equal the golden `maicc-nn` reference bit-exactly,
//! for any number of chained layers.
//!
//! Two execution engines drive the same model (see [`Engine`]): the
//! **event-driven** default jumps the clock across cycles in which nothing
//! can happen (mesh drained, every node with pending work still busy),
//! while the **cycle-accurate** oracle ticks every cycle. Both produce
//! bit-identical [`StreamResult`]s, cycle counts, energy, and fault
//! observations — regression- and proptest-enforced below.

use crate::{ComponentError, SimError};
use maicc_exec::mapping::{place_groups_avoiding, Tile};
use maicc_nn::layer::ConvLayer;
use maicc_nn::tensor::Tensor;
use maicc_noc::{
    Coord, Delivered, Mesh, NocError, NocFaultPlan, NocFaultStats, NocStats, Packet, RetryPolicy,
    ROW_PACKET_FLITS, WORD_PACKET_FLITS,
};
use maicc_sram::cmem::{Cmem, MacPath};
use maicc_sram::ecc::{EccMode, EccStats};
use maicc_sram::fault::{FaultPlan, FaultStats};
use maicc_sram::{timing, transpose, Row, SramError};
use std::collections::{HashMap, VecDeque};

/// Per-pixel transpose cost at the DC, cycles per byte.
const TRANSPOSE_PER_BYTE: u64 = 3;
/// Row send issue cost, cycles per row.
const ROW_SEND: u64 = 3;
/// Accumulate cost per vector MAC in the scalar pipeline.
const ACCUM_PER_MAC: u64 = 4;
/// Auxiliary cost per completed ofmap value (ReLU + requantize + store).
const AUX_PER_VALUE: u64 = 8;
/// Pixels the DC may have in flight before waiting for credits.
const CREDIT_WINDOW: usize = 2;
/// Credit-stall age beyond which a budget exhaustion is blamed on the
/// wedged router instead of reported as a bare timeout. Larger than any
/// transient congestion the streaming protocol produces.
const WEDGE_STALL_AGE: u64 = 1024;

/// A multi-layer streaming workload (valid convolutions, fused ReLU +
/// requantization as in the golden model).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// The chained convolution layers (padding must be 0).
    pub layers: Vec<ConvLayer>,
    /// The external input, `[C, H, W]`.
    pub input: Tensor<i8>,
}

impl StreamConfig {
    /// A one-layer test: 4 filters of 3×3×16 on a 6×6×16 ifmap.
    #[must_use]
    pub fn small_test() -> Self {
        StreamConfig {
            layers: vec![test_layer(16, 4, 0)],
            input: test_input(16, 6, 6),
        }
    }

    /// A two-layer pipeline: 8 filters of 3×3×16, then 4 of 3×3×8.
    #[must_use]
    pub fn two_layer_test() -> Self {
        StreamConfig {
            layers: vec![test_layer(16, 8, 0), test_layer(8, 4, 1)],
            input: test_input(16, 8, 8),
        }
    }

    /// A downscaled ResNet-18 stage segment: the stride-2 head of a stage
    /// followed by a stride-1 conv — the `conv3_1`/`conv3_2` pattern at
    /// reduced channel count so the bit-level simulation stays tractable.
    /// This is the default fault-campaign workload.
    #[must_use]
    pub fn resnet18_segment() -> Self {
        let mut head = test_layer(16, 8, 9);
        head.shape.stride = 2;
        StreamConfig {
            layers: vec![head, test_layer(8, 8, 10)],
            input: test_input(16, 11, 11),
        }
    }

    /// Golden reference: the chained mixed layers, flattened `[M, OH, OW]`.
    ///
    /// # Panics
    ///
    /// Panics if the layer chain is shape-inconsistent (a configuration
    /// bug, not a data condition).
    #[must_use]
    pub fn golden(&self) -> Vec<i8> {
        let mut t = self.input.clone();
        for l in &self.layers {
            t = golden_mixed(&t, l);
        }
        t.data().to_vec()
    }

    /// How each layer's filters spread over computing cores, in layer
    /// order. A filter takes `kernel_h · kernel_w · ⌈C/256⌉` of a core's
    /// 49 resident vector slots, so a core holds
    /// `per_core = 49 / that` filters and a layer of `M` filters takes
    /// `⌈M / per_core⌉` cores.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DoesNotFit`] if one filter needs more slots
    /// than a CMem has.
    pub fn core_split(&self) -> Result<Vec<CoreSplit>, SimError> {
        self.layers
            .iter()
            .map(|l| {
                let s = &l.shape;
                let groups = s.in_channels.div_ceil(256);
                let per_core = SLOTS_PER_CORE / (s.kernel_h * s.kernel_w * groups);
                if per_core == 0 {
                    return Err(SimError::DoesNotFit {
                        reason: format!("filter {}x{} exceeds one CMem", s.kernel_h, s.kernel_w),
                    });
                }
                Ok(CoreSplit {
                    groups,
                    per_core,
                    cores: s.out_channels.div_ceil(per_core),
                })
            })
            .collect()
    }
}

/// Resident filter-vector slots on one computing core: 7 compute slices
/// × 7 rows of 8-bit vectors.
const SLOTS_PER_CORE: usize = 49;

/// One layer's share of computing cores ([`StreamConfig::core_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSplit {
    /// 256-channel groups per filter, `⌈C/256⌉`.
    pub groups: usize,
    /// Filters each computing core holds; the last core may hold fewer.
    pub per_core: usize,
    /// Computing cores the layer takes.
    pub cores: usize,
}

impl CoreSplit {
    /// The filters computing core `core` holds, of `out_channels`.
    fn filters(self, core: usize, out_channels: usize) -> std::ops::Range<usize> {
        core * self.per_core..((core + 1) * self.per_core).min(out_channels)
    }
}

/// The filter vectors computing core `core` of layer `l` holds, in the
/// order they stream into its CMem (filter, 256-channel group, `ky`,
/// `kx`), each zero-padded to 256 channels and paired with its slot.
/// [`StreamSim::new_avoiding`] writes exactly these, and
/// [`StreamSim::weight_image`] lists them.
fn core_vectors(l: &ConvLayer, split: CoreSplit, core: usize) -> Vec<(Resident, Vec<i8>)> {
    let s = &l.shape;
    let filters = split.filters(core, s.out_channels);
    let mut out = Vec::new();
    for f in filters.clone() {
        for q in 0..split.groups {
            for ky in 0..s.kernel_h {
                for kx in 0..s.kernel_w {
                    let v = out.len();
                    let filt = (0..256)
                        .map(|c| {
                            let ch = q * 256 + c;
                            if ch < s.in_channels {
                                l.weights.get(&[f, ch, ky, kx])
                            } else {
                                0
                            }
                        })
                        .collect();
                    let resident = Resident {
                        local_filter: f - filters.start,
                        global_filter: f,
                        group: q,
                        ky,
                        kx,
                        slice: 1 + (v % 7),
                        row: 8 + 8 * (v / 7),
                    };
                    out.push((resident, filt));
                }
            }
        }
    }
    out
}

pub(crate) fn test_layer(in_c: usize, out_c: usize, salt: usize) -> ConvLayer {
    use maicc_nn::quant::Requantizer;
    use maicc_nn::tensor::ConvShape;
    ConvLayer {
        shape: ConvShape {
            out_channels: out_c,
            in_channels: in_c,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
        },
        weights: Tensor::from_fn(&[out_c, in_c, 3, 3], |i| {
            (((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3] * 3 + salt * 7) % 7) as i8) - 3
        }),
        bias: (0..out_c).map(|m| ((m * 13 + salt) % 9) as i32 - 4).collect(),
        requant: Requantizer::from_real_multiplier(0.05, 0),
        relu: true,
        pool: None,
    }
}

pub(crate) fn test_input(c: usize, h: usize, w: usize) -> Tensor<i8> {
    Tensor::from_fn(&[c, h, w], |i| (((i[0] * 7 + i[1] * 3 + i[2]) % 11) as i8) - 5)
}

/// Golden mixed layer (conv → ReLU → requantize), matching the CC's
/// per-value auxiliary path.
fn golden_mixed(input: &Tensor<i8>, layer: &ConvLayer) -> Tensor<i8> {
    use maicc_nn::layer::{conv2d_i8, relu_i32, requantize};
    let acc = conv2d_i8(input, layer).expect("consistent layer chain");
    let acc = if layer.relu { relu_i32(&acc) } else { acc };
    requantize(&acc, &layer.requant)
}

/// Messages flowing through the mesh.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    /// One transposed ifmap row (9 flits).
    Row {
        layer: usize,
        pixel: usize,
        row: u8,
        lanes: Row,
    },
    /// One completed ofmap value (2 flits).
    Value { layer: usize, idx: usize, value: i8 },
    /// Flow-control credit back to the DC (1 flit).
    Credit { layer: usize },
}

/// `(channels, height, width)` of a layer's ifmap and ofmap.
type LayerDims = ((usize, usize, usize), (usize, usize, usize));

/// Which simulation core drives [`StreamSim::run`] (and everything built
/// on it: fault campaigns, streamed multi-DNN deployments).
///
/// Both engines execute the *same* model and produce bit-identical
/// [`StreamResult`]s, cycle counts, energy meters, and fault-plan
/// observations; the event-driven engine merely refuses to spend host
/// time on cycles in which nothing can happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Next-event skip-ahead (the default): whenever the mesh is drained
    /// and every node with pending work is still busy, the clock jumps
    /// straight to the earliest `busy_until` expiry instead of ticking
    /// through the idle gap one cycle at a time.
    #[default]
    EventDriven,
    /// The original per-cycle loop, kept as the equivalence oracle.
    CycleAccurate,
}

impl Engine {
    /// Stable lower-snake-case label (used in bench JSON headers).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::EventDriven => "event_driven",
            Engine::CycleAccurate => "cycle_accurate",
        }
    }
}

/// Checkpoint/replay re-execution policy: how [`StreamSim::run`] reacts
/// when a *detected* fault surfaces — an uncorrectable ECC error, a dead
/// CMem slice, or NoC traffic lost after exhausting retransmissions.
///
/// Recovery is strictly opt-in: with no policy attached the simulator
/// behaves exactly as before (detected faults propagate as typed errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total rollback/rebuild attempts before the error propagates.
    pub max_replays: u32,
    /// On a *hard* fault (a dead CMem slice), rebuild the whole fabric
    /// with [`place_groups_avoiding`] steering around the failed tile.
    pub remap: bool,
    /// Checkpoint cadence: snapshot architectural state every time this
    /// many more ofmap values have reached the sink. The trigger counts
    /// *logical* progress, so both [`Engine`]s checkpoint at identical
    /// points.
    pub checkpoint_values: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_replays: 16,
            remap: true,
            checkpoint_values: 16,
        }
    }
}

/// Counters of recovery activity on one [`StreamSim`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Checkpoints taken (including the initial one).
    pub checkpoints: u64,
    /// Rollback/rebuild attempts performed.
    pub replays: u32,
    /// Replays that rebuilt the fabric on a remapped placement.
    pub remaps: u32,
    /// Cycles of discarded work re-executed after rollbacks: the final
    /// [`StreamResult::cycles`] includes them.
    pub replayed_cycles: u64,
    /// CMem energy of discarded work, pJ: included in
    /// [`StreamResult::cmem_pj`].
    pub replayed_pj: f64,
}

/// A snapshot of everything a rollback must restore.
struct Checkpoint {
    nodes: Vec<SimNode>,
    mesh: Mesh<Msg>,
    fault: Option<(usize, usize)>,
    /// `sink values / checkpoint_values` when the snapshot was taken.
    mark: usize,
    /// NoC packets lost at snapshot time; a snapshot is only replaced
    /// while this count is unchanged, so rollbacks always land *before*
    /// an unrecoverable loss.
    lost: u64,
}

fn node_pending(n: &SimNode) -> bool {
    match &n.role {
        Role::Cc { .. } | Role::Sink { .. } => !n.inbox.is_empty(),
        Role::Dc {
            staged,
            next_pixel,
            total_pixels,
            in_flight,
            ..
        } => {
            !n.inbox.is_empty()
                || (*next_pixel < *total_pixels
                    && *in_flight < CREDIT_WINDOW
                    && staged.contains_key(next_pixel))
        }
    }
}

/// A resident filter vector on one CC.
#[derive(Debug, Clone, Copy)]
struct Resident {
    local_filter: usize,
    global_filter: usize,
    /// 256-channel group index (for layers with C > 256).
    group: usize,
    ky: usize,
    kx: usize,
    slice: usize,
    row: usize,
}

#[derive(Clone)]
enum Role {
    Dc {
        layer: usize,
        /// pixels of the layer's ifmap, staged as complete channel vectors
        staged: HashMap<usize, Vec<i8>>,
        /// received channel counts per pixel (layers > 0)
        partial: HashMap<usize, (Vec<i8>, usize)>,
        next_pixel: usize,
        total_pixels: usize,
        in_flight: usize,
        first_cc: Coord,
    },
    Cc {
        layer: usize,
        cmem: Box<Cmem>,
        residents: Vec<Resident>,
        /// Byte-form shadow of each resident filter vector (same index as
        /// `residents`, truncated to the group's live channel span). The
        /// partitioned engine uses these to compute the dot product
        /// host-side whenever [`Cmem::mac_path`] certifies the byte
        /// product equals the bit-plane MAC's; the CMem arrays stay the
        /// architectural source of truth and every other operation
        /// (ingest, broadcast, energy) still runs on them.
        shadow_w: Vec<Vec<i8>>,
        /// MACs this core ran through [`Cmem::mac_with_product`].
        #[cfg(test)]
        checked_macs: u64,
        /// The slices `residents` occupy, ascending and deduplicated: the
        /// broadcast stops at the first failed move, so its order is
        /// observable (energy accounting, abort point).
        used: Vec<usize>,
        /// Indices into `residents`, stably sorted by channel group: the
        /// MAC order, one broadcast per group.
        group_order: Vec<usize>,
        /// `(local, global)` filter of each resident that finishes a
        /// window, the `(ky, kx, group) == (0, 0, 0)` ones, in `residents`
        /// order.
        completes: Vec<(usize, usize)>,
        /// rows collected for the pixel currently arriving
        arriving: HashMap<usize, Vec<Option<Row>>>,
        /// i32 partial sums, `[local filters × OH × OW]`
        psums: Vec<i32>,
        next_hop: Option<Coord>,
        value_target: Coord,
        is_first: bool,
        dc: Coord,
    },
    Sink {
        values: HashMap<usize, i8>,
        expected: usize,
    },
}

#[derive(Clone)]
struct SimNode {
    coord: Coord,
    busy_until: u64,
    inbox: VecDeque<Msg>,
    role: Role,
}

/// Aggregate result of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// The final layer's ofmap, `[M, OH, OW]` flattened, i8.
    pub ofmap: Vec<i8>,
    /// Total cycles until everything drained.
    pub cycles: u64,
    /// Mesh statistics (packets, flit-hops for the energy model).
    pub noc: NocStats,
    /// Total CMem dynamic energy, pJ (from the real CMem meters).
    pub cmem_pj: f64,
}

/// The streaming simulator.
pub struct StreamSim {
    cfg: StreamConfig,
    mesh: Mesh<Msg>,
    nodes: Vec<SimNode>,
    /// The node on each mesh tile, at [`tile_slot`].
    tile_of: Vec<Option<usize>>,
    /// Each layer's `(in, out)` `(channels, height, width)`, derived once
    /// while [`StreamSim::new`] validates the chain.
    dims: Vec<LayerDims>,
    /// Fault injection: flip one bit of (layer, pixel)'s first row in
    /// flight.
    fault: Option<(usize, usize)>,
    /// Which simulation core drives `run`.
    engine: Engine,
    /// Checkpoint/replay policy; `None` (default) = detected faults
    /// propagate as typed errors exactly as before.
    recovery: Option<RecoveryPolicy>,
    recovery_stats: RecoveryStats,
    checkpoint: Option<Box<Checkpoint>>,
    /// Last `sink values / checkpoint_values` quotient a snapshot covered.
    checkpoint_mark: usize,
    /// Coordinates of the node whose step raised the last typed error.
    fault_coord: Option<Coord>,
    /// Cycles at which checkpoints of the current run were taken, in
    /// order. Rollbacks truncate past entries; a remap rebuild clears it.
    ckpt_log: Vec<u64>,
    /// Tiles the placement must skip (grows as remap-recovery retires
    /// tiles with hard faults).
    avoid: Vec<Tile>,
    /// Remembered fabric configuration, re-applied after a remap rebuild.
    cmem_plan: Option<FaultPlan>,
    targeted_plans: Vec<(Coord, FaultPlan)>,
    noc_plan: Option<NocFaultPlan>,
    ecc_mode: EccMode,
}

impl std::fmt::Debug for StreamSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSim")
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

fn to_coord(t: Tile) -> Coord {
    Coord::new(t.x, t.y)
}

/// Tiles per side of the simulated mesh.
const MESH_SIDE: u8 = 16;

/// A tile's index in row-major order over the mesh.
fn tile_slot(c: Coord) -> usize {
    usize::from(c.y) * usize::from(MESH_SIDE) + usize::from(c.x)
}

impl StreamSim {
    /// Builds node groups for every layer, places them zig-zag, and loads
    /// the filters into the computing cores' CMems.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DoesNotFit`] if a layer needs more vector slots
    /// than the chain's cores provide or the placement overflows the array.
    pub fn new(cfg: &StreamConfig) -> Result<Self, SimError> {
        Self::new_avoiding(cfg, &[])
    }

    /// Like [`StreamSim::new`], but remaps every node group around the
    /// given failed tiles: the zig-zag placement skips the holes, so a
    /// marked-dead tile hosts neither a DC, a computing core, nor the
    /// sink. The simulation then runs on the degraded placement.
    ///
    /// # Errors
    ///
    /// As for [`StreamSim::new`], plus a typed
    /// [`maicc_exec::ExecError::PlacementOverflow`] (chained through
    /// [`SimError::Component`]) when too few healthy tiles remain.
    pub fn new_avoiding(cfg: &StreamConfig, failed: &[Tile]) -> Result<Self, SimError> {
        Self::build(cfg, failed, None)
    }

    /// [`StreamSim::new_avoiding`], checking each filter vector it writes
    /// against the next vector of `warm` when one is given, and `warm`'s
    /// length once every core is loaded.
    fn build(
        cfg: &StreamConfig,
        failed: &[Tile],
        warm: Option<&[Vec<i8>]>,
    ) -> Result<Self, SimError> {
        let warm_mismatch = || SimError::DoesNotFit {
            reason: "warm start: resident weight image does not match the model".into(),
        };
        let mut warm = warm.map(<[Vec<i8>]>::iter);
        if cfg.layers.is_empty() {
            return Err(SimError::DoesNotFit {
                reason: "streaming workload has no layers".into(),
            });
        }
        // shapes along the chain
        let mut dims = Vec::new();
        let mut cur = (cfg.input.shape()[0], cfg.input.shape()[1], cfg.input.shape()[2]);
        for l in &cfg.layers {
            let s = &l.shape;
            if s.padding != 0 || s.stride == 0 || s.stride > 2 {
                return Err(SimError::DoesNotFit {
                    reason: "streaming sim supports valid convolutions with stride 1 or 2".into(),
                });
            }
            if s.in_channels != cur.0 {
                return Err(SimError::DoesNotFit {
                    reason: format!("channel mismatch: {} vs {}", s.in_channels, cur.0),
                });
            }
            let oh = (cur.1 - s.kernel_h) / s.stride + 1;
            let ow = (cur.2 - s.kernel_w) / s.stride + 1;
            dims.push((cur, (s.out_channels, oh, ow)));
            cur = (s.out_channels, oh, ow);
        }

        let splits = cfg.core_split()?;
        // one extra tile for the sink: its "group" is just its DC tile
        let sizes_with_sink: Vec<usize> = splits.iter().map(|sp| sp.cores).chain([0]).collect();
        let placed = place_groups_avoiding(&sizes_with_sink, failed)?;

        let mut nodes = Vec::new();
        let mut tile_of = vec![None; usize::from(MESH_SIDE) * usize::from(MESH_SIDE)];
        let sink_coord = to_coord(placed.last().expect("sink placed").dc);

        for (li, l) in cfg.layers.iter().enumerate() {
            let g = &placed[li];
            let (in_dim, out_dim) = dims[li];
            let s = &l.shape;
            let first_cc = to_coord(g.computing[0]);
            // the DC
            let dc_coord = to_coord(g.dc);
            let mut staged = HashMap::new();
            if li == 0 {
                for y in 0..in_dim.1 {
                    for x in 0..in_dim.2 {
                        let v: Vec<i8> = (0..in_dim.0)
                            .map(|c| cfg.input.get(&[c, y, x]))
                            .collect();
                        staged.insert(y * in_dim.2 + x, v);
                    }
                }
            }
            nodes.push(SimNode {
                coord: dc_coord,
                busy_until: 0,
                inbox: VecDeque::new(),
                role: Role::Dc {
                    layer: li,
                    staged,
                    partial: HashMap::new(),
                    next_pixel: 0,
                    total_pixels: in_dim.1 * in_dim.2,
                    in_flight: 0,
                    first_cc,
                },
            });
            tile_of[tile_slot(dc_coord)] = Some(nodes.len() - 1);

            // the CCs
            let next_dc = if li + 1 < cfg.layers.len() {
                to_coord(placed[li + 1].dc)
            } else {
                sink_coord
            };
            for (k, tile) in g.computing.iter().enumerate() {
                let coord = to_coord(*tile);
                let mut cmem = Box::new(Cmem::new());
                let mut residents = Vec::new();
                let mut shadow_w = Vec::new();
                for (resident, filt) in core_vectors(l, splits[li], k) {
                    if warm.as_mut().is_some_and(|w| w.next() != Some(&filt)) {
                        return Err(warm_mismatch());
                    }
                    cmem.write_vector_i8(resident.slice, resident.row, &filt)?;
                    // channels past the layer's span are zero in both
                    // operands, so the shadow keeps only the live prefix
                    let span = (s.in_channels - resident.group * 256).min(256);
                    shadow_w.push(filt[..span].to_vec());
                    residents.push(resident);
                }
                let psums: Vec<i32> = splits[li]
                    .filters(k, s.out_channels)
                    .flat_map(|f| std::iter::repeat_n(l.bias[f], out_dim.1 * out_dim.2))
                    .collect();
                let next_hop = g.computing.get(k + 1).map(|t| to_coord(*t));
                let mut used: Vec<usize> = residents.iter().map(|r| r.slice).collect();
                used.sort_unstable();
                used.dedup();
                let mut group_order: Vec<usize> = (0..residents.len()).collect();
                group_order.sort_by_key(|&ri| residents[ri].group);
                let completes = residents
                    .iter()
                    .filter(|r| (r.ky, r.kx, r.group) == (0, 0, 0))
                    .map(|r| (r.local_filter, r.global_filter))
                    .collect();
                nodes.push(SimNode {
                    coord,
                    busy_until: 0,
                    inbox: VecDeque::new(),
                    role: Role::Cc {
                        layer: li,
                        cmem,
                        residents,
                        shadow_w,
                        #[cfg(test)]
                        checked_macs: 0,
                        used,
                        group_order,
                        completes,
                        arriving: HashMap::new(),
                        psums,
                        next_hop,
                        value_target: next_dc,
                        is_first: k == 0,
                        dc: dc_coord,
                    },
                });
                tile_of[tile_slot(coord)] = Some(nodes.len() - 1);
            }
        }

        // the sink
        let last_out = dims.last().expect("at least one layer").1;
        nodes.push(SimNode {
            coord: sink_coord,
            busy_until: 0,
            inbox: VecDeque::new(),
            role: Role::Sink {
                values: HashMap::new(),
                expected: last_out.0 * last_out.1 * last_out.2,
            },
        });
        tile_of[tile_slot(sink_coord)] = Some(nodes.len() - 1);
        if warm.is_some_and(|mut w| w.next().is_some()) {
            return Err(warm_mismatch());
        }

        Ok(StreamSim {
            cfg: cfg.clone(),
            mesh: Mesh::new(MESH_SIDE, MESH_SIDE),
            nodes,
            tile_of,
            dims,
            fault: None,
            engine: Engine::default(),
            recovery: None,
            recovery_stats: RecoveryStats::default(),
            checkpoint: None,
            checkpoint_mark: 0,
            fault_coord: None,
            ckpt_log: Vec::new(),
            avoid: failed.to_vec(),
            cmem_plan: None,
            targeted_plans: Vec::new(),
            noc_plan: None,
            ecc_mode: EccMode::Off,
        })
    }

    /// The model's weight image: every 256-byte zero-padded filter vector
    /// in the exact order [`StreamSim::new_avoiding`] streams them into
    /// the computing cores' CMems (layer-major, then core, then resident
    /// slot). The order is a function of the [`StreamConfig`] alone —
    /// placement never enters — so a registry can build it once per model
    /// and hand it to every warm start. It is empty for a config whose
    /// filters do not fit a CMem, which construction rejects outright.
    #[must_use]
    pub fn weight_image(cfg: &StreamConfig) -> Vec<Vec<i8>> {
        let Ok(splits) = cfg.core_split() else {
            return Vec::new();
        };
        let mut image = Vec::new();
        for (l, split) in cfg.layers.iter().zip(splits) {
            for k in 0..split.cores {
                image.extend(core_vectors(l, split, k).into_iter().map(|(_, filt)| filt));
            }
        }
        image
    }

    /// Like [`StreamSim::new_avoiding`], but warm-starts on weights the
    /// caller asserts are already resident in CMem: the passed image must
    /// equal this config's own stream order ([`StreamSim::weight_image`])
    /// byte-for-byte, or the build is refused. Construction compares each
    /// vector as it writes it, so the check walks the image once. The
    /// simulation then proceeds exactly as a cold build would —
    /// [`StreamResult::cycles`] and [`StreamResult::cmem_pj`] never
    /// included a weight-load phase (bulk weight DMA is priced by the
    /// serving layer's memory-tier model, not the compute meter), so the
    /// warm entry point's job is the correctness gate: a hit on stale or
    /// foreign resident bytes fails loudly instead of computing with the
    /// wrong weights.
    ///
    /// # Errors
    ///
    /// As for [`StreamSim::new_avoiding`], plus [`SimError::DoesNotFit`]
    /// when `resident` differs from the config's weight image. Shape and
    /// placement errors come first: they are found before any vector is
    /// written.
    pub fn new_avoiding_warm(
        cfg: &StreamConfig,
        failed: &[Tile],
        resident: &[Vec<i8>],
    ) -> Result<Self, SimError> {
        Self::build(cfg, failed, Some(resident))
    }

    /// Ignored: [`StreamSim::run`] steps every node on the calling thread,
    /// in index order. Kept only for perfbench, which still calls it.
    pub fn set_parallelism(&mut self, _threads: usize) {}

    /// Selects the simulation engine (default: [`Engine::EventDriven`]).
    ///
    /// [`Engine::CycleAccurate`] is the original per-cycle loop, kept as
    /// the oracle: both engines produce bit-identical results.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The currently selected simulation engine.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn engine(&self) -> Engine {
        self.engine
    }

    /// Arms a single-bit fault: the sign bit-plane of `pixel`'s vector at
    /// `layer` is corrupted in flight. Used to demonstrate that the
    /// golden-model comparison detects transport errors.
    #[cfg(test)]
    pub(crate) fn inject_row_fault(&mut self, layer: usize, pixel: usize) {
        self.fault = Some((layer, pixel));
    }

    /// Attaches a CMem fault plan to every computing core. Each core's
    /// copy gets a distinct RNG stream derived from the plan's seed, so
    /// cores fault independently but the whole run stays deterministic. A
    /// quiet plan leaves behaviour bit-identical.
    pub fn attach_cmem_fault_plan(&mut self, plan: &FaultPlan) {
        self.cmem_plan = Some(plan.clone());
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Role::Cc { cmem, .. } = &mut node.role {
                let mut p = plan.clone();
                p.seed = plan
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                cmem.attach_fault_plan(p);
            }
        }
    }

    /// Attaches a CMem fault plan to the `cc_index`-th computing core
    /// only (in placement order) — modelling a single defective *tile*
    /// rather than a fabric-wide condition. The plan is pinned to the
    /// tile the core currently occupies: if recovery later rebuilds the
    /// fabric around that tile, the defect is retired with it.
    ///
    /// # Panics
    ///
    /// Panics if `cc_index` is not a valid computing-core index.
    pub fn attach_cmem_fault_plan_to(&mut self, cc_index: usize, plan: &FaultPlan) {
        let mut seen = 0;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Role::Cc { cmem, .. } = &mut node.role {
                if seen == cc_index {
                    let mut p = plan.clone();
                    p.seed = plan
                        .seed
                        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    cmem.attach_fault_plan(p);
                    self.targeted_plans.push((node.coord, plan.clone()));
                    return;
                }
                seen += 1;
            }
        }
        panic!("cc_index {cc_index} out of range ({seen} computing cores)");
    }

    /// Attaches a NoC fault plan to the underlying mesh.
    pub fn attach_noc_fault_plan(&mut self, plan: NocFaultPlan) {
        self.noc_plan = Some(plan.clone());
        self.mesh.attach_fault_plan(plan);
    }

    /// Sets the ECC protection level of every computing core's CMem (see
    /// [`EccMode`]). [`EccMode::Off`] (the default) is bit-identical to
    /// the unprotected fabric.
    pub fn set_ecc_mode(&mut self, mode: EccMode) {
        self.ecc_mode = mode;
        for node in &mut self.nodes {
            if let Role::Cc { cmem, .. } = &mut node.role {
                cmem.set_ecc_mode(mode);
            }
        }
    }

    /// Merged ECC statistics across all computing cores.
    #[must_use]
    pub fn ecc_stats(&self) -> EccStats {
        let mut total = EccStats::default();
        for node in &self.nodes {
            if let Role::Cc { cmem, .. } = &node.role {
                total.merge(&cmem.ecc_stats());
            }
        }
        total
    }

    /// Enables (or disables, with `None`) CRC-checked ACK/NACK
    /// retransmission on the mesh (see [`RetryPolicy`]).
    pub fn set_noc_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.mesh.set_retry_policy(policy);
    }

    /// Arms (or disarms, with `None`) checkpoint/replay recovery.
    pub fn set_recovery_policy(&mut self, policy: Option<RecoveryPolicy>) {
        self.recovery = policy;
    }

    /// Recovery activity of the last [`StreamSim::run`] (all zeros when
    /// no [`RecoveryPolicy`] is attached).
    #[must_use]
    pub(crate) fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Cycles at which the last [`StreamSim::run`] took sink-progress
    /// checkpoints, ascending (empty with no [`RecoveryPolicy`]). The
    /// trigger counts *logical* progress at the sink, so the log is
    /// bit-identical across [`Engine`]s and both loops — a serving
    /// layer preempting a run mid-flight uses it to find the latest
    /// architectural state the victim can resume from instead of
    /// restarting.
    #[must_use]
    pub fn checkpoint_log(&self) -> &[u64] {
        &self.ckpt_log
    }

    /// Every tile this simulation currently steers around: the initial
    /// avoid set passed to [`StreamSim::new_avoiding`] plus any tile
    /// remap recovery has since retired. Serving layers diff this
    /// against the set they supplied to learn which tiles went bad
    /// during a run.
    #[must_use]
    pub fn retired_tiles(&self) -> &[Tile] {
        &self.avoid
    }

    /// MACs the computing cores ran through [`Cmem::mac_with_product`].
    #[cfg(test)]
    pub(crate) fn checked_macs(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.role {
                Role::Cc { checked_macs, .. } => *checked_macs,
                _ => 0,
            })
            .sum()
    }

    /// Merged CMem fault statistics across all computing cores.
    #[must_use]
    pub(crate) fn cmem_fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for node in &self.nodes {
            if let Role::Cc { cmem, .. } = &node.role {
                total.merge(&cmem.fault_stats());
            }
        }
        total
    }

    /// NoC fault statistics (zero when no plan is attached).
    #[must_use]
    pub fn noc_fault_stats(&self) -> NocFaultStats {
        self.mesh.fault_stats()
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the workload does not drain within
    /// `budget` cycles, or [`SimError::Degraded`] if injected NoC faults
    /// lost traffic the workload cannot complete without — the degraded
    /// alternative to burning the whole budget on a hang. Typed component
    /// errors (e.g. a dead CMem slice detected as [`SimError::Fault`])
    /// propagate from the computing cores.
    ///
    /// With a [`RecoveryPolicy`] attached, detected faults roll the
    /// simulation back to the latest checkpoint (or rebuild it on a
    /// remapped placement for hard faults) and re-execute; the errors
    /// above then only surface once `max_replays` is exhausted.
    /// [`StreamResult::cycles`] and [`StreamResult::cmem_pj`] include the
    /// re-executed work.
    pub fn run(&mut self, budget: u64) -> Result<StreamResult, SimError> {
        self.run_with(budget, false)
    }

    /// Runs to completion on the sequential reference loop: the full-scan
    /// mesh tick, every free node stepped every cycle, and every MAC
    /// executed on the bit-plane arrays. Same result, statistics and
    /// errors as [`StreamSim::run`], since both loops step the nodes in
    /// index order; it has no production caller and is kept as the oracle
    /// the partitioned loop is tested against and as the baseline of the
    /// wall-clock harness.
    ///
    /// # Errors
    ///
    /// As for [`StreamSim::run`].
    pub fn run_reference(&mut self, budget: u64) -> Result<StreamResult, SimError> {
        self.run_with(budget, true)
    }

    fn run_with(&mut self, budget: u64, reference: bool) -> Result<StreamResult, SimError> {
        self.ckpt_log.clear();
        if self.recovery.is_some() && self.checkpoint.is_none() {
            self.take_checkpoint();
        }
        loop {
            let res = if reference {
                self.run_loop(budget)
            } else {
                self.run_loop_partitioned(budget)
            };
            match res {
                Ok(()) => break,
                Err(e) => {
                    if !self.try_recover(&e) {
                        return Err(e);
                    }
                }
            }
        }
        let cycles = self.mesh.cycle() + self.recovery_stats.replayed_cycles;
        let (out_c, oh, ow) = self.dims.last().expect("non-empty").1;
        let mut ofmap = vec![0i8; out_c * oh * ow];
        let mut cmem_pj = self.recovery_stats.replayed_pj;
        for n in &self.nodes {
            match &n.role {
                Role::Sink { values, .. } => {
                    for (&idx, &v) in values {
                        ofmap[idx] = v;
                    }
                }
                Role::Cc { cmem, .. } => cmem_pj += cmem.energy().total_pj(),
                Role::Dc { .. } => {}
            }
        }
        Ok(StreamResult {
            ofmap,
            cycles,
            noc: *self.mesh.stats(),
            cmem_pj,
        })
    }

    /// Live CMem energy across all computing cores, pJ.
    fn live_cmem_pj(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| match &n.role {
                Role::Cc { cmem, .. } => cmem.energy().total_pj(),
                _ => 0.0,
            })
            .sum()
    }

    /// Ofmap values the sink has received so far.
    fn sink_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.role {
                Role::Sink { values, .. } => values.len(),
                _ => 0,
            })
            .sum()
    }

    /// Snapshots the full architectural state (nodes, mesh, pending
    /// one-shot fault) for a later rollback. A later snapshot overwrites
    /// the previous one in place, reusing its buffers.
    fn take_checkpoint(&mut self) {
        self.recovery_stats.checkpoints += 1;
        self.ckpt_log.push(self.mesh.cycle());
        let lost = self.mesh.fault_stats().packets_lost;
        match self.checkpoint.as_deref_mut() {
            Some(Checkpoint {
                nodes,
                mesh,
                fault,
                mark,
                lost: ck_lost,
            }) => {
                nodes.clone_from(&self.nodes);
                mesh.clone_from(&self.mesh);
                *fault = self.fault;
                *mark = self.checkpoint_mark;
                *ck_lost = lost;
            }
            None => {
                self.checkpoint = Some(Box::new(Checkpoint {
                    nodes: self.nodes.clone(),
                    mesh: self.mesh.clone(),
                    fault: self.fault,
                    mark: self.checkpoint_mark,
                    lost,
                }));
            }
        }
    }

    /// Dispatches a detected fault to the matching recovery action.
    /// Returns `false` when recovery is off, exhausted, or impossible —
    /// the caller then propagates the error unchanged.
    fn try_recover(&mut self, err: &SimError) -> bool {
        let Some(policy) = self.recovery else {
            return false;
        };
        if self.recovery_stats.replays >= policy.max_replays {
            return false;
        }
        match err {
            // a dead slice is permanent: replaying onto the same tile
            // can only fail again, so retire the tile and rebuild
            SimError::Fault {
                source: ComponentError::Sram(SramError::SliceFailed { .. }),
            } => policy.remap && self.rebuild_remapped(),
            // everything else detected is transient (an uncorrectable
            // ECC word, lost NoC traffic, a wedged router): roll back
            // and re-execute on fresh fault-RNG streams
            SimError::Fault { .. } | SimError::Degraded { .. } => self.rollback(),
            _ => false,
        }
    }

    /// Rolls the simulation back to the latest checkpoint, charging the
    /// discarded cycles/energy, and reseeds every fault RNG so the replay
    /// draws a fresh transient schedule.
    fn rollback(&mut self) -> bool {
        let Some(ck) = self.checkpoint.as_deref() else {
            return false;
        };
        let wasted_cycles = self.mesh.cycle().saturating_sub(ck.mesh.cycle());
        let ck_cycle = ck.mesh.cycle();
        let pj_before = self.live_cmem_pj();
        self.ckpt_log.retain(|&c| c <= ck_cycle);
        self.nodes = ck.nodes.clone();
        self.mesh = ck.mesh.clone();
        self.fault = ck.fault;
        self.checkpoint_mark = ck.mark;
        self.recovery_stats.replays += 1;
        self.recovery_stats.replayed_cycles += wasted_cycles;
        self.recovery_stats.replayed_pj += (pj_before - self.live_cmem_pj()).max(0.0);
        self.reseed_fault_rngs(u64::from(self.recovery_stats.replays));
        true
    }

    /// Rebuilds the whole fabric with the faulty tile added to the avoid
    /// list, restores the attached fault/ECC/retry configuration on the
    /// new placement, and restarts from a fresh initial checkpoint.
    fn rebuild_remapped(&mut self) -> bool {
        let Some(c) = self.fault_coord.take() else {
            return false;
        };
        let wasted_cycles = self.mesh.cycle();
        let wasted_pj = self.live_cmem_pj();
        self.avoid.push(Tile { x: c.x, y: c.y });
        let Ok(fresh) = Self::new_avoiding(&self.cfg, &self.avoid) else {
            return false; // too few healthy tiles left: not recoverable
        };
        let retry = self.mesh.retry_policy();
        self.nodes = fresh.nodes;
        self.mesh = fresh.mesh;
        self.tile_of = fresh.tile_of;
        self.recovery_stats.replays += 1;
        self.recovery_stats.remaps += 1;
        self.recovery_stats.replayed_cycles += wasted_cycles;
        self.recovery_stats.replayed_pj += wasted_pj;
        // restore the fabric configuration on the rebuilt placement
        if let Some(plan) = self.cmem_plan.clone() {
            self.attach_cmem_fault_plan(&plan);
        }
        let targeted = std::mem::take(&mut self.targeted_plans);
        for (coord, plan) in targeted {
            if self.avoid.iter().any(|t| t.x == coord.x && t.y == coord.y) {
                continue; // the defective tile is out of the fabric now
            }
            // the defect stays with its tile: re-pin the plan to whatever
            // computing core occupies it after the remap, if any
            if let Some(idx) = self.tile_of[tile_slot(coord)] {
                if let Role::Cc { cmem, .. } = &mut self.nodes[idx].role {
                    let mut p = plan.clone();
                    p.seed = plan
                        .seed
                        .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    cmem.attach_fault_plan(p);
                }
            }
            self.targeted_plans.push((coord, plan));
        }
        if self.ecc_mode.is_on() {
            let mode = self.ecc_mode;
            self.set_ecc_mode(mode);
        }
        if let Some(plan) = self.noc_plan.clone() {
            self.mesh.attach_fault_plan(plan);
        }
        self.mesh.set_retry_policy(retry);
        self.reseed_fault_rngs(u64::from(self.recovery_stats.replays));
        self.checkpoint_mark = 0;
        self.checkpoint = None;
        self.ckpt_log.clear();
        self.take_checkpoint();
        true
    }

    /// Reseeds every fault RNG (mesh + all CMems) with the given salt;
    /// per-node seed offsets keep the streams distinct.
    fn reseed_fault_rngs(&mut self, salt: u64) {
        self.mesh.reseed_fault_rng(salt);
        for node in &mut self.nodes {
            if let Role::Cc { cmem, .. } = &mut node.role {
                cmem.reseed_fault_rng(salt);
            }
        }
    }

    /// Reports a budget exhaustion with the most actionable error: lost
    /// traffic degrades, a long-wedged router is named for remap
    /// recovery, anything else is a bare timeout.
    fn budget_exhausted(&self, budget: u64, now: u64) -> SimError {
        let lost = self.mesh.fault_stats().packets_lost;
        if lost > 0 {
            return SimError::Degraded {
                lost_packets: lost,
                cycles: now,
            };
        }
        // a router wedged for thousands of cycles is more actionable
        // than a bare timeout: name it, so campaign reports (and remap
        // recovery) can localize the failure
        if !self.mesh.is_idle() {
            if let w @ NocError::Wedged { stalled_for, .. } = self.mesh.wedge_report() {
                if stalled_for >= WEDGE_STALL_AGE {
                    return SimError::Fault {
                        source: ComponentError::Noc(w),
                    };
                }
            }
        }
        SimError::Timeout { budget }
    }

    /// Routes one delivered packet into its destination node's inbox,
    /// applying the armed in-flight row fault if this is its packet. A
    /// packet whose CRC failed (NoC corruption without a retry policy)
    /// is a detected [`NocError::Corrupted`] fault, never consumed.
    fn deliver(&mut self, d: Delivered<Msg>) -> Result<(), SimError> {
        if d.corrupted {
            return Err(SimError::Fault {
                source: ComponentError::Noc(NocError::Corrupted {
                    src: d.packet.src,
                    dst: d.packet.dst,
                }),
            });
        }
        // the mesh refuses endpoints outside it, so the slot is in range
        let idx = self.tile_of[tile_slot(d.packet.dst)].ok_or_else(|| SimError::Protocol {
            reason: format!("delivery to unknown tile {}", d.packet.dst),
        })?;
        let mut payload = d.packet.payload;
        if let (Some((fl, fp)), Msg::Row { layer, pixel, row, lanes }) =
            (self.fault, &mut payload)
        {
            if *layer == fl && *pixel == fp && *row == 7 {
                // single-event upset on bit-line 0 of the sign plane:
                // channel 0's value shifts by ±128
                lanes[0] ^= 1;
                self.fault = None;
            }
        }
        self.nodes[idx].inbox.push_back(payload);
        Ok(())
    }

    /// The sequential simulation loop behind [`StreamSim::run_reference`],
    /// kept as the naive reference the partitioned engine is verified
    /// against: full active-set mesh scans, every free node stepped every
    /// cycle, every MAC executed on the bit-plane arrays. Returns when the
    /// workload has drained (`Ok`) or with the same typed errors as
    /// [`StreamSim::run`].
    fn run_loop(&mut self, budget: u64) -> Result<(), SimError> {
        // the full-scan tick neither needs nor maintains the partitioned
        // engine's active-router tracking (a rollback may have restored a
        // mesh that carried it)
        self.mesh.disable_partitioned_stepping();
        // reused across cycles so steady-state iterations never allocate
        let mut outgoing: Vec<Packet<Msg>> = Vec::new();
        loop {
            let now = self.mesh.cycle();
            if now >= budget {
                return Err(self.budget_exhausted(budget, now));
            }
            // deliver mesh traffic
            for d in self.mesh.tick() {
                self.deliver(d)?;
            }
            // let every free node take one step
            let now = self.mesh.cycle();
            let failed: Option<(Coord, SimError)> = {
                let mut first = None;
                for node in &mut self.nodes {
                    if node.busy_until > now {
                        continue;
                    }
                    let coord = node.coord;
                    if let Err(e) =
                        step_node(node, now, &self.dims, &self.cfg, &mut outgoing, false)
                    {
                        first = Some((coord, e));
                        break;
                    }
                }
                first
            };
            if let Some((coord, e)) = failed {
                self.fault_coord = Some(coord);
                return Err(e);
            }
            let injected = !outgoing.is_empty();
            for p in outgoing.drain(..) {
                self.mesh.send(p);
            }
            // recovery: snapshot architectural state whenever enough new
            // ofmap values have reached the sink — a logical-progress
            // trigger, so both engines checkpoint at identical points.
            // A snapshot is skipped while the mesh has unrecoverably
            // lost packets beyond the held checkpoint's count: rollbacks
            // must land *before* the loss.
            if let Some(policy) = self.recovery {
                let mark = self.sink_count() / policy.checkpoint_values.max(1);
                if mark > self.checkpoint_mark
                    && self.mesh.fault_stats().packets_lost
                        == self.checkpoint.as_ref().map_or(0, |c| c.lost)
                {
                    self.checkpoint_mark = mark;
                    self.take_checkpoint();
                }
            }
            // completion check
            if self.finished() && self.mesh.is_idle() {
                return Ok(());
            }
            // quiescence: nothing in flight, nothing queued, nobody busy —
            // no future event can occur, so don't burn the rest of the
            // budget
            if !injected
                && self.mesh.is_idle()
                && self
                    .nodes
                    .iter()
                    .all(|n| n.inbox.is_empty() && n.busy_until <= now)
            {
                let lost = self.mesh.fault_stats().packets_lost;
                if lost > 0 {
                    return Err(SimError::Degraded {
                        lost_packets: lost,
                        cycles: self.mesh.cycle(),
                    });
                }
                return Err(SimError::Protocol {
                    reason: "simulation quiesced before completion".into(),
                });
            }
            // skip-ahead: with the mesh drained, ticking through the gap
            // until the next node event is pure no-op work — every free
            // node's step is empty (that is what `next_node_event`
            // certifies), so batch-apply the idle cycles. `wake - 1`
            // because the loop ticks once before stepping, and the budget
            // cap reproduces the cycle-accurate timeout cycle exactly.
            if self.engine == Engine::EventDriven && self.mesh.is_idle() {
                if let Some(wake) = self.next_node_event(now) {
                    if wake > now + 1 {
                        self.mesh.advance_to((wake - 1).min(budget));
                    }
                }
            }
        }
    }

    /// The partitioned simulation loop behind every [`StreamSim::run`],
    /// bit-identical to [`StreamSim::run_loop`]: both step nodes in index
    /// order and send the packets they emit in that order. The name is
    /// kept from the node-shard worker pool the loop once fed (DESIGN.md
    /// §14); every node now steps on the calling thread.
    ///
    /// Per cycle: the mesh ticks over its tracked active-router set (a
    /// maintained superset of routers with queued work, fault plans
    /// included — every phase of the full-scan tick is predicate-guarded,
    /// so a superset scan is byte-identical, proptest-enforced in
    /// `maicc-noc`); the node phase runs only when a delivery landed or
    /// the precomputed wake cycle arrived (`next_node_event` certifies
    /// every skipped step a no-op), and in it only free nodes with pending
    /// work step (`node_pending` certifies the others' steps no-ops).
    ///
    /// Completion, quiescence, checkpoint, and budget checks reuse values
    /// cached at the last node phase: nodes only change state in a phase
    /// (deliveries force one), so the cached `finished`/`wake` are exact
    /// on phase-skipped cycles and every exit fires on the same cycle as
    /// the sequential loop.
    fn run_loop_partitioned(&mut self, budget: u64) -> Result<(), SimError> {
        // (re)build the tracked active-router set — exact after a
        // rollback restored an older mesh or a remap rebuilt a fresh one
        self.mesh.enable_partitioned_stepping();
        let mut outgoing: Vec<Packet<Msg>> = Vec::new();
        let mut delivered: Vec<Delivered<Msg>> = Vec::new();
        // phase-cached state; `wake = Some(0)` forces the first phase
        let mut wake: Option<u64> = Some(0);
        let mut finished = self.finished();
        loop {
            let now = self.mesh.cycle();
            if now >= budget {
                return Err(self.budget_exhausted(budget, now));
            }
            delivered.clear();
            self.mesh.tick_partitioned(&mut delivered);
            let now = self.mesh.cycle();
            let mut injected = false;
            if !delivered.is_empty() || wake.is_some_and(|w| w <= now) {
                for d in delivered.drain(..) {
                    self.deliver(d)?;
                }
                let mut failed = None;
                for node in &mut self.nodes {
                    if node.busy_until > now || !node_pending(node) {
                        continue;
                    }
                    let coord = node.coord;
                    if let Err(e) =
                        step_node(node, now, &self.dims, &self.cfg, &mut outgoing, true)
                    {
                        failed = Some((coord, e));
                        break;
                    }
                }
                injected = !outgoing.is_empty();
                for p in outgoing.drain(..) {
                    self.mesh.send(p);
                }
                if let Some((coord, e)) = failed {
                    self.fault_coord = Some(coord);
                    return Err(e);
                }
                finished = self.finished();
                // recovery snapshot on sink progress — identical trigger
                // and cycle as the sequential loop (sink counts only move
                // in a phase, and a lost-packet mismatch can never heal,
                // so evaluating on phase cycles alone is exact)
                if let Some(policy) = self.recovery {
                    let mark = self.sink_count() / policy.checkpoint_values.max(1);
                    if mark > self.checkpoint_mark
                        && self.mesh.fault_stats().packets_lost
                            == self.checkpoint.as_ref().map_or(0, |c| c.lost)
                    {
                        self.checkpoint_mark = mark;
                        self.take_checkpoint();
                    }
                }
                wake = self.next_node_event(now);
            }
            let idle = self.mesh.is_idle();
            if finished && idle {
                return Ok(());
            }
            // quiescence: `wake == None` certifies no node is busy or
            // pending (so all inboxes are empty), unchanged since the
            // last phase
            if !injected && idle && wake.is_none() {
                let lost = self.mesh.fault_stats().packets_lost;
                if lost > 0 {
                    return Err(SimError::Degraded {
                        lost_packets: lost,
                        cycles: self.mesh.cycle(),
                    });
                }
                return Err(SimError::Protocol {
                    reason: "simulation quiesced before completion".into(),
                });
            }
            if self.engine == Engine::EventDriven && idle {
                if let Some(w) = wake {
                    if w > now + 1 {
                        self.mesh.advance_to((w - 1).min(budget));
                    }
                }
            }
        }
    }

    /// The next cycle at which any node can act, given a drained mesh:
    /// the earliest `busy_until` expiry among nodes with pending work
    /// (a queued inbox message, or a DC with a staged pixel and credit
    /// window headroom) — or, when no node has pending work, the latest
    /// `busy_until`, which is when the run provably quiesces. `None`
    /// means quiescence has already been reached (the caller errors out
    /// before asking).
    fn next_node_event(&self, now: u64) -> Option<u64> {
        let mut earliest_pending: Option<u64> = None;
        let mut latest_busy: Option<u64> = None;
        for n in &self.nodes {
            if n.busy_until > now {
                latest_busy = Some(latest_busy.map_or(n.busy_until, |m| m.max(n.busy_until)));
            }
            if node_pending(n) {
                // a free node with pending work acts on the very next
                // cycle (it steps once per cycle, e.g. one inbox message)
                let at = n.busy_until.max(now + 1);
                earliest_pending = Some(earliest_pending.map_or(at, |m| m.min(at)));
            }
        }
        earliest_pending.or(latest_busy)
    }

    fn finished(&self) -> bool {
        self.nodes.iter().all(|n| match &n.role {
            Role::Sink { values, expected } => values.len() == *expected,
            Role::Dc {
                next_pixel,
                total_pixels,
                ..
            } => next_pixel >= total_pixels,
            Role::Cc { arriving, .. } => arriving.is_empty(),
        })
    }
}

/// Steps one node at cycle `now`, appending emitted packets to `out`.
///
/// `fast` selects the partitioned engine's host-side MAC shortcut: when
/// [`Cmem::mac_path`] allows it on every slice a pixel's MACs touch, the
/// dot products are computed from the byte-form shadows instead of the
/// bit-plane arrays — the identical value by the signed bit-plane MAC
/// theorem (`prop_mac_signed_matches_reference` in `maicc-sram`). With no
/// fault plan and no ECC ([`MacPath::Pure`]) the pixel's MACs are
/// charged at once via [`Cmem::charge_macs`]; under ECC whose records
/// cover every fault-changed cell ([`MacPath::Checked`]) each product
/// goes through [`Cmem::mac_with_product`], which runs the checks, fault
/// draw and counts of the array MAC. The sequential reference loop
/// passes `false` and always runs the arrays.
#[allow(clippy::too_many_lines)]
fn step_node(
    node: &mut SimNode,
    now: u64,
    dims: &[LayerDims],
    cfg: &StreamConfig,
    out: &mut Vec<Packet<Msg>>,
    fast: bool,
) -> Result<(), SimError> {
    let coord = node.coord;
    match &mut node.role {
        Role::Dc {
            layer,
            staged,
            partial,
            next_pixel,
            total_pixels,
            in_flight,
            first_cc,
        } => {
            // absorb arriving ofmap values from the previous layer
            while let Some(msg) = node.inbox.pop_front() {
                match msg {
                    Msg::Value { idx, value, .. } => {
                        let (in_dim, _) = dims[*layer];
                        let per_pixel = in_dim.0;
                        let pixels = in_dim.1 * in_dim.2;
                        // idx is [C, H, W]-flat of this layer's ifmap
                        let pixel = idx % pixels;
                        let channel = idx / pixels;
                        let e = partial
                            .entry(pixel)
                            .or_insert_with(|| (vec![0i8; per_pixel], 0));
                        e.0[channel] = value;
                        e.1 += 1;
                        if e.1 == per_pixel {
                            let (v, _) = partial.remove(&pixel).expect("just inserted");
                            staged.insert(pixel, v);
                        }
                    }
                    Msg::Credit { .. } => {
                        *in_flight = in_flight.saturating_sub(1);
                    }
                    Msg::Row { .. } => {
                        return Err(SimError::Protocol {
                            reason: "row delivered to a DC".into(),
                        })
                    }
                }
            }
            // inject the next pixel if the window allows
            if *next_pixel < *total_pixels && *in_flight < CREDIT_WINDOW {
                if let Some(v) = staged.remove(next_pixel) {
                    // one transposed 256-wide sub-vector per channel group
                    let groups = v.len().div_ceil(256);
                    for (q, group) in v.chunks(256).enumerate() {
                        let words: Vec<u16> = group.iter().map(|&b| b as u8 as u16).collect();
                        for (r, lanes) in transpose::pack_words(&words, 8, 256)
                            .into_iter()
                            .enumerate()
                        {
                            out.push(Packet::new(
                                coord,
                                *first_cc,
                                ROW_PACKET_FLITS,
                                Msg::Row {
                                    layer: *layer,
                                    pixel: *next_pixel,
                                    row: (q * 8 + r) as u8,
                                    lanes,
                                },
                            ));
                        }
                    }
                    node.busy_until = now
                        + v.len() as u64 * TRANSPOSE_PER_BYTE
                        + groups as u64 * 8 * ROW_SEND;
                    *next_pixel += 1;
                    *in_flight += 1;
                }
            }
        }
        Role::Cc {
            layer,
            cmem,
            residents,
            shadow_w,
            #[cfg(test)]
            checked_macs,
            used,
            group_order,
            completes,
            arriving,
            psums,
            next_hop,
            value_target,
            is_first,
            dc,
        } => {
            let Some(msg) = node.inbox.pop_front() else {
                return Ok(());
            };
            let Msg::Row { pixel, row, lanes, .. } = msg else {
                return Err(SimError::Protocol {
                    reason: "cc received a non-row message".into(),
                });
            };
            let (in_dim, out_dim) = dims[*layer];
            let l = &cfg.layers[*layer];
            let groups = in_dim.0.div_ceil(256);
            let slot = arriving
                .entry(pixel)
                .or_insert_with(|| vec![None; groups * 8]);
            slot[row as usize] = Some(lanes);
            if !slot.iter().all(Option::is_some) {
                return Ok(());
            }
            let rows: Vec<Row> = arriving
                .remove(&pixel)
                .expect("checked complete")
                .into_iter()
                .map(|r| r.expect("all rows present"))
                .collect();
            let (y, x) = (pixel / in_dim.2, pixel % in_dim.2);
            // ingest all sub-vectors into slice 0 (group q at rows 8q..8q+8)
            for (r, lanes) in rows.iter().enumerate() {
                cmem.write_row_remote(0, r, lanes)?;
            }
            // per group: broadcast its sub-vector, MAC its residents,
            // partial sums accumulating across groups in data memory
            let stride = l.shape.stride;
            let mut macs = 0u64;
            // Host-side MAC shortcut (partitioned engine only): the path
            // every touched slice allows. The ingest and broadcast below
            // still run on the real arrays either way.
            let path = if fast {
                used.iter()
                    .map(|&s| cmem.mac_path(s))
                    .min()
                    .unwrap_or(MacPath::Array)
            } else {
                MacPath::Array
            };
            let shadow = path != MacPath::Array;
            // the arriving pixel, untransposed back to bytes per group
            // (only the live channel span — the rest is zero in both
            // operands and contributes nothing to the dot)
            let shadow_a: Vec<Vec<i8>> = if shadow {
                (0..groups)
                    .map(|q| {
                        let span = (in_dim.0 - q * 256).min(256);
                        let planes = &rows[q * 8..q * 8 + 8];
                        (0..span)
                            .map(|c| {
                                let (w, b) = (c / 64, c % 64);
                                let mut byte = 0u8;
                                for (r, lanes) in planes.iter().enumerate() {
                                    byte |= (((lanes[w] >> b) & 1) as u8) << r;
                                }
                                byte as i8
                            })
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut current_group = usize::MAX;
            for &ri in group_order.iter() {
                let r = &residents[ri];
                if r.group != current_group {
                    current_group = r.group;
                    for &s in used.iter() {
                        cmem.move_vector(0, r.group * 8, s, 0, 8)?;
                    }
                }
                let dot = if shadow {
                    let full: i64 = shadow_a[r.group]
                        .iter()
                        .zip(&shadow_w[ri])
                        .map(|(&a, &w)| i64::from(a) * i64::from(w))
                        .sum();
                    if path == MacPath::Checked {
                        // the call cross-checks `full` in debug builds
                        let dot = cmem.mac_with_product(r.slice, 0, r.row, 8, true, full)?;
                        #[cfg(test)]
                        {
                            *checked_macs += 1;
                        }
                        dot as i32
                    } else {
                        debug_assert_eq!(
                            full,
                            cmem.slice(r.slice)
                                .and_then(|s| s.mac_fast(0, r.row, 8, true))
                                .expect("shortcut-certified MAC"),
                            "shadow dot diverged from the bit-plane MAC"
                        );
                        full as i32
                    }
                } else {
                    cmem.mac_i8(r.slice, 0, r.row)? as i32
                };
                macs += 1;
                let (wy, wx) = (y as isize - r.ky as isize, x as isize - r.kx as isize);
                if wy >= 0
                    && wx >= 0
                    && (wy as usize).is_multiple_of(stride)
                    && (wx as usize).is_multiple_of(stride)
                {
                    let (oy, ox) = (wy as usize / stride, wx as usize / stride);
                    if oy < out_dim.1 && ox < out_dim.2 {
                        let o = (r.local_filter * out_dim.1 + oy) * out_dim.2 + ox;
                        psums[o] += dot;
                    }
                }
            }
            if path == MacPath::Pure {
                // identical energy accounting to `macs` array MAC.C ops
                cmem.charge_macs(macs);
            }
            // windows whose bottom-right corner this pixel was are done
            let mut values = 0u64;
            if y + 1 >= l.shape.kernel_h
                && x + 1 >= l.shape.kernel_w
                && (y + 1 - l.shape.kernel_h).is_multiple_of(stride)
                && (x + 1 - l.shape.kernel_w).is_multiple_of(stride)
            {
                let (oy, ox) = (
                    (y + 1 - l.shape.kernel_h) / stride,
                    (x + 1 - l.shape.kernel_w) / stride,
                );
                if oy < out_dim.1 && ox < out_dim.2 {
                    values = completes.len() as u64;
                    for (local, global) in completes.iter() {
                        let o = (local * out_dim.1 + oy) * out_dim.2 + ox;
                        let mut acc = psums[o];
                        if l.relu {
                            acc = acc.max(0);
                        }
                        let q = l.requant.apply(acc);
                        // [C, H, W]-flat index in the next layer's ifmap
                        let idx = (global * out_dim.1 + oy) * out_dim.2 + ox;
                        out.push(Packet::new(
                            coord,
                            *value_target,
                            WORD_PACKET_FLITS,
                            Msg::Value {
                                layer: *layer,
                                idx,
                                value: q,
                            },
                        ));
                    }
                }
            }
            // forward the vector and credit the DC
            if let Some(nh) = next_hop {
                for (r, &lanes) in rows.iter().enumerate() {
                    out.push(Packet::new(
                        coord,
                        *nh,
                        ROW_PACKET_FLITS,
                        Msg::Row {
                            layer: *layer,
                            pixel,
                            row: r as u8,
                            lanes,
                        },
                    ));
                }
            }
            if *is_first {
                out.push(Packet::new(coord, *dc, 1, Msg::Credit { layer: *layer }));
            }
            let compute = groups as u64 * 7 * 8 + macs.div_ceil(7) * timing::mac_cycles(8);
            node.busy_until = now
                + compute
                + macs * ACCUM_PER_MAC
                + values * AUX_PER_VALUE
                + if next_hop.is_some() {
                    groups as u64 * 8 * ROW_SEND
                } else {
                    0
                };
        }
        Role::Sink { values, .. } => {
            while let Some(msg) = node.inbox.pop_front() {
                if let Msg::Value { idx, value, .. } = msg {
                    values.insert(idx, value);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_layer_matches_golden() {
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
        assert!(r.cycles > 0);
        assert!(r.cmem_pj > 0.0);
        assert!(r.noc.packets_delivered > 0);
    }

    #[test]
    fn warm_start_matches_cold_bit_for_bit() {
        let cfg = StreamConfig::small_test();
        let mut cold = StreamSim::new(&cfg).unwrap();
        let rc = cold.run(5_000_000).unwrap();
        let image = StreamSim::weight_image(&cfg);
        let mut warm = StreamSim::new_avoiding_warm(&cfg, &[], &image).unwrap();
        let rw = warm.run(5_000_000).unwrap();
        assert_eq!(rw, rc);
    }

    #[test]
    fn warm_start_rejects_mismatched_image() {
        let cfg = StreamConfig::small_test();
        let mut image = StreamSim::weight_image(&cfg);
        image[0][0] = image[0][0].wrapping_add(1);
        let err = StreamSim::new_avoiding_warm(&cfg, &[], &image).unwrap_err();
        assert!(matches!(err, SimError::DoesNotFit { .. }), "{err:?}");
        // an image truncated to the wrong length is rejected too
        let short = StreamSim::weight_image(&cfg)[1..].to_vec();
        assert!(StreamSim::new_avoiding_warm(&cfg, &[], &short).is_err());
    }

    #[test]
    fn warm_start_rejects_a_mismatch_in_the_last_vector() {
        for cfg in [StreamConfig::small_test(), StreamConfig::two_layer_test()] {
            let mut image = StreamSim::weight_image(&cfg);
            let last = image.last_mut().expect("a model has weights");
            last[255] = last[255].wrapping_add(1);
            let err = StreamSim::new_avoiding_warm(&cfg, &[], &image).unwrap_err();
            assert_eq!(err, warm_mismatch(), "{err:?}");
        }
    }

    #[test]
    fn warm_start_rejects_an_image_with_one_vector_too_many() {
        let cfg = StreamConfig::small_test();
        let mut image = StreamSim::weight_image(&cfg);
        image.push(image[0].clone());
        let err = StreamSim::new_avoiding_warm(&cfg, &[], &image).unwrap_err();
        assert_eq!(err, warm_mismatch(), "{err:?}");
    }

    fn warm_mismatch() -> SimError {
        SimError::DoesNotFit {
            reason: "warm start: resident weight image does not match the model".into(),
        }
    }

    #[test]
    fn weight_image_matches_what_construction_writes() {
        // the image must enumerate exactly the vectors construction
        // streams into CMem, in order: count them, and check each vector's
        // live prefix against the core's shadow copy of the written bytes
        for cfg in [StreamConfig::small_test(), StreamConfig::two_layer_test()] {
            let sim = StreamSim::new(&cfg).unwrap();
            let image = StreamSim::weight_image(&cfg);
            let mut it = image.iter();
            let mut written = 0usize;
            for n in &sim.nodes {
                if let Role::Cc { shadow_w, .. } = &n.role {
                    for shadow in shadow_w {
                        let vec = it.next().expect("image shorter than writes");
                        assert_eq!(&vec[..shadow.len()], &shadow[..]);
                        assert!(vec[shadow.len()..].iter().all(|&b| b == 0));
                        written += 1;
                    }
                }
            }
            assert_eq!(image.len(), written);
        }
    }

    #[test]
    fn two_layer_pipeline_matches_golden() {
        let cfg = StreamConfig::two_layer_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(10_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn multi_core_chain_matches_golden() {
        // 12 filters → 3 computing cores at 5 filters max each (3×3)
        let cfg = StreamConfig {
            layers: vec![test_layer(16, 12, 2)],
            input: test_input(16, 6, 6),
        };
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
        // forwarding between three cores tripled the row traffic
        assert!(r.noc.flit_hops > 0);
    }

    #[test]
    fn three_layer_chain_matches_golden() {
        let cfg = StreamConfig {
            layers: vec![
                test_layer(16, 8, 0),
                test_layer(8, 8, 1),
                test_layer(8, 2, 2),
            ],
            input: test_input(16, 10, 10),
        };
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(20_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn wide_channel_layer_splits_into_groups() {
        // 320 input channels → two 256-wide groups per filter, partial
        // sums combined in the core (the conv4-class shape)
        let cfg = StreamConfig {
            layers: vec![test_layer(320, 2, 6)],
            input: test_input(320, 5, 5),
        };
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(20_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn wide_channel_pipeline_matches_golden() {
        let cfg = StreamConfig {
            layers: vec![test_layer(300, 8, 7), test_layer(8, 3, 8)],
            input: test_input(300, 6, 6),
        };
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(40_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    /// The plan seed of the matrix's stuck-cell scenarios: under Correct
    /// its runs roll back twice, to the fifth and the sixteenth checkpoint.
    const STUCK_SEED: u64 = 22;

    #[test]
    fn parallel_matches_sequential_matrix() {
        // the partitioned-engine matrix: `run()` on both engines × {clean,
        // CMem transient plan + replay, NoC drop plan + replay, dead tile +
        // remap, the serving fault config, stuck cells + transients under
        // each ECC mode} against `run_reference`, the sequential loop,
        // whose MACs all run on the arrays. The partitioned engine must
        // reproduce the reference byte-for-byte:
        // the result or error, recovery stats, fault and ECC
        // observations, and the retired-tile set. Under ECC its MACs take
        // the checked byte-shadow path; without ECC none does.
        #[derive(Clone, Copy, Debug)]
        enum Scenario {
            Clean,
            CmemPlan,
            NocPlan,
            Retire,
            /// The shape of a serving run under perfbench's
            /// `overload_faults`: NoC corruption NACKed and retransmitted
            /// under the default policy, CMem transients that ECC
            /// corrects, and remap recovery.
            Serving,
            /// Stuck cells, some in weight rows, and transients under
            /// Correct with rollback recovery: ECC records in weight rows,
            /// rollbacks to a checkpoint overwritten in place.
            StuckCorrect,
            /// The same plan under DetectOnly: a stuck cell recorded in an
            /// operand row fails the first pixel's MAC before its product
            /// on every replay, so the run ends in the same error on both
            /// loops.
            StuckDetect,
        }
        let build = |sc: Scenario, engine: Engine| {
            let cfg = match sc {
                Scenario::Clean => StreamConfig::two_layer_test(),
                _ => StreamConfig::small_test(),
            };
            let mut sim = StreamSim::new(&cfg).unwrap();
            sim.set_engine(engine);
            match sc {
                Scenario::Clean => {}
                Scenario::CmemPlan => {
                    sim.attach_cmem_fault_plan(&FaultPlan::with_seed(8).transient(1e-4));
                    sim.set_ecc_mode(EccMode::DetectOnly);
                    sim.set_recovery_policy(Some(RecoveryPolicy {
                        max_replays: 64,
                        remap: false,
                        checkpoint_values: 8,
                    }));
                }
                Scenario::NocPlan => {
                    sim.attach_noc_fault_plan(
                        NocFaultPlan::with_seed(3)
                            .drop_rate(0.02)
                            .retry_after(64)
                            .max_retries(1),
                    );
                    sim.set_recovery_policy(Some(RecoveryPolicy {
                        max_replays: 32,
                        remap: false,
                        checkpoint_values: 8,
                    }));
                }
                Scenario::Retire => {
                    sim.attach_cmem_fault_plan_to(0, &FaultPlan::none().dead_slice(2));
                    sim.set_recovery_policy(Some(RecoveryPolicy::default()));
                }
                Scenario::Serving => {
                    sim.attach_noc_fault_plan(NocFaultPlan::with_seed(9).corrupt_rate(0.01));
                    sim.set_noc_retry_policy(Some(RetryPolicy::default()));
                    sim.attach_cmem_fault_plan(&FaultPlan::with_seed(10).transient(1e-3));
                    sim.set_ecc_mode(EccMode::Correct);
                    sim.set_recovery_policy(Some(RecoveryPolicy {
                        max_replays: 8,
                        remap: true,
                        checkpoint_values: 8,
                    }));
                }
                Scenario::StuckCorrect | Scenario::StuckDetect => {
                    sim.attach_cmem_fault_plan(
                        &FaultPlan::with_seed(STUCK_SEED)
                            .scatter_stuck(24)
                            .transient(0.1),
                    );
                    sim.set_ecc_mode(if let Scenario::StuckCorrect = sc {
                        EccMode::Correct
                    } else {
                        EccMode::DetectOnly
                    });
                    sim.set_recovery_policy(Some(RecoveryPolicy {
                        max_replays: 8,
                        remap: false,
                        checkpoint_values: 4,
                    }));
                }
            }
            (cfg, sim)
        };
        for sc in [
            Scenario::Clean,
            Scenario::CmemPlan,
            Scenario::NocPlan,
            Scenario::Retire,
            Scenario::Serving,
            Scenario::StuckCorrect,
            Scenario::StuckDetect,
        ] {
            let ecc = matches!(
                sc,
                Scenario::CmemPlan
                    | Scenario::Serving
                    | Scenario::StuckCorrect
                    | Scenario::StuckDetect
            );
            for engine in [Engine::EventDriven, Engine::CycleAccurate] {
                let (cfg, mut base) = build(sc, engine);
                let seq = base.run_reference(20_000_000);
                assert_eq!(
                    base.checked_macs(),
                    0,
                    "{sc:?}: the reference ran a shortcut"
                );
                match sc {
                    Scenario::StuckDetect => {
                        assert!(seq.is_err(), "{sc:?} baseline fails");
                        assert_eq!(base.recovery_stats().replays, 8, "{sc:?}");
                    }
                    _ => assert_eq!(
                        seq.as_ref().map(|r| &r.ofmap),
                        Ok(&cfg.golden()),
                        "{sc:?} baseline converges"
                    ),
                }
                match sc {
                    Scenario::Serving => {
                        // the NACK, backoff and release path runs
                        assert!(base.noc_fault_stats().crc_rejects > 0, "{sc:?}");
                        assert!(base.ecc_stats().corrected > 0, "{sc:?}");
                    }
                    Scenario::StuckCorrect => {
                        // stuck cells corrected, and a rollback replayed
                        assert!(base.ecc_stats().corrected > 0, "{sc:?}");
                        assert!(base.recovery_stats().replays > 0, "{sc:?}");
                        assert!(base.recovery_stats().checkpoints > 2, "{sc:?}");
                    }
                    _ => {}
                }
                let (_, mut sim) = build(sc, engine);
                let par = sim.run(20_000_000);
                let tag = format!("{sc:?}/{engine:?}");
                assert_eq!(par, seq, "StreamResult diverged: {tag}");
                assert_eq!(
                    sim.checked_macs() > 0,
                    ecc,
                    "checked MACs {} under ECC {ecc}: {tag}",
                    sim.checked_macs()
                );
                assert_eq!(
                    sim.recovery_stats(),
                    base.recovery_stats(),
                    "recovery stats diverged: {tag}"
                );
                assert_eq!(
                    sim.cmem_fault_stats(),
                    base.cmem_fault_stats(),
                    "CMem fault stats diverged: {tag}"
                );
                assert_eq!(
                    sim.noc_fault_stats(),
                    base.noc_fault_stats(),
                    "NoC fault stats diverged: {tag}"
                );
                assert_eq!(sim.ecc_stats(), base.ecc_stats(), "ECC stats diverged: {tag}");
                assert_eq!(
                    sim.retired_tiles(),
                    base.retired_tiles(),
                    "retired tiles diverged: {tag}"
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_canned_configs() {
        // the oracle check on every canned workload, including the
        // stride-2 ResNet segment whose modelled latency is pinned below
        for (cfg, budget) in [
            (StreamConfig::small_test(), 5_000_000u64),
            (StreamConfig::two_layer_test(), 10_000_000),
            (StreamConfig::resnet18_segment(), 5_000_000),
        ] {
            let mut fast = StreamSim::new(&cfg).unwrap();
            assert_eq!(fast.engine(), Engine::EventDriven, "default engine");
            let f = fast.run(budget).unwrap();
            let mut oracle = StreamSim::new(&cfg).unwrap();
            oracle.set_engine(Engine::CycleAccurate);
            let o = oracle.run(budget).unwrap();
            assert_eq!(f, o, "engines diverged");
            assert_eq!(f.ofmap, cfg.golden());
        }
    }

    #[test]
    fn resnet18_segment_modelled_cycles_pinned() {
        // the modelled latency is part of the paper reproduction: the
        // engine change must not move it by a single cycle
        let cfg = StreamConfig::resnet18_segment();
        let r = StreamSim::new(&cfg).unwrap().run(5_000_000).unwrap();
        assert_eq!(r.cycles, 87_087);
    }

    #[test]
    fn event_engine_reproduces_timeout_cycle() {
        // a budget that expires mid-gap: the skip-ahead must cap at the
        // budget so the timeout fires at the same cycle as the oracle
        let cfg = StreamConfig::small_test();
        for budget in [10u64, 97, 1_000] {
            let mut fast = StreamSim::new(&cfg).unwrap();
            let mut oracle = StreamSim::new(&cfg).unwrap();
            oracle.set_engine(Engine::CycleAccurate);
            let (f, o) = (fast.run(budget), oracle.run(budget));
            match (f, o) {
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("expected two timeouts, got {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn injected_bit_flip_is_caught_by_golden_check() {
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.inject_row_fault(0, 0);
        let r = sim.run(5_000_000).unwrap();
        // the corrupted bit-plane perturbs at most the windows touching
        // pixel (0,0) — the run completes but the result must differ
        assert_ne!(r.ofmap, cfg.golden(), "fault must be observable");
        // and a clean re-run still matches (the fault is one-shot)
        let mut clean = StreamSim::new(&cfg).unwrap();
        assert_eq!(clean.run(5_000_000).unwrap().ofmap, cfg.golden());
    }

    #[test]
    fn timeout_is_reported() {
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        assert!(matches!(sim.run(10), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn stride_two_matches_golden() {
        let mut cfg = StreamConfig {
            layers: vec![test_layer(16, 4, 3)],
            input: test_input(16, 9, 9),
        };
        cfg.layers[0].shape.stride = 2; // 9 → 4 spatial
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn downsampling_pipeline_matches_golden() {
        // stride-2 layer feeding a stride-1 layer — the ResNet stage shape
        let mut l1 = test_layer(16, 8, 4);
        l1.shape.stride = 2;
        let cfg = StreamConfig {
            layers: vec![l1, test_layer(8, 4, 5)],
            input: test_input(16, 11, 11),
        };
        let mut sim = StreamSim::new(&cfg).unwrap();
        let r = sim.run(20_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn stride_three_rejected() {
        let mut cfg = StreamConfig::small_test();
        cfg.layers[0].shape.stride = 3;
        assert!(matches!(
            StreamSim::new(&cfg),
            Err(SimError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn channel_mismatch_rejected() {
        let cfg = StreamConfig {
            layers: vec![test_layer(16, 4, 0), test_layer(16, 4, 1)],
            input: test_input(16, 6, 6),
        };
        assert!(matches!(
            StreamSim::new(&cfg),
            Err(SimError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn empty_workload_rejected() {
        let cfg = StreamConfig {
            layers: vec![],
            input: test_input(4, 4, 4),
        };
        assert!(matches!(
            StreamSim::new(&cfg),
            Err(SimError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn remapped_placement_avoids_failed_tiles_and_matches_golden() {
        // kill two tiles the default placement would have used: the
        // groups remap around them and the result stays bit-exact
        let cfg = StreamConfig::small_test();
        let failed = [Tile { x: 1, y: 0 }, Tile { x: 3, y: 0 }];
        let mut sim = StreamSim::new_avoiding(&cfg, &failed).unwrap();
        for t in &failed {
            assert!(
                sim.tile_of[tile_slot(Coord::new(t.x, t.y))].is_none(),
                "dead tile ({}, {}) still hosts a node",
                t.x,
                t.y
            );
        }
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
        // the remapped chain is longer than the clean one
        let clean = StreamSim::new(&cfg).unwrap().run(5_000_000).unwrap();
        assert!(
            r.noc.flit_hops >= clean.noc.flit_hops,
            "degraded placement cannot shorten routes: {} vs {}",
            r.noc.flit_hops,
            clean.noc.flit_hops
        );
    }

    #[test]
    fn lost_traffic_degrades_instead_of_hanging() {
        // certain flit loss with retries exhausted: the run must end in a
        // typed Degraded error well before the budget
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.attach_noc_fault_plan(
            NocFaultPlan::with_seed(5)
                .drop_rate(1.0)
                .retry_after(32)
                .max_retries(1),
        );
        let err = sim.run(5_000_000).unwrap_err();
        assert!(
            matches!(err, SimError::Degraded { lost_packets, .. } if lost_packets > 0),
            "{err:?}"
        );
        assert!(sim.noc_fault_stats().packets_lost > 0);
    }

    #[test]
    fn recovery_is_inert_without_faults() {
        // an armed policy on a clean run takes checkpoints but never
        // replays: the result stays bit-, cycle-, and energy-identical
        let cfg = StreamConfig::small_test();
        let clean = StreamSim::new(&cfg).unwrap().run(5_000_000).unwrap();
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.set_recovery_policy(Some(RecoveryPolicy::default()));
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r, clean);
        let rec = sim.recovery_stats();
        assert!(rec.checkpoints > 1, "{rec:?}");
        assert_eq!(rec.replays, 0);
        assert_eq!(rec.replayed_cycles, 0);
        assert_eq!(rec.replayed_pj, 0.0);
    }

    #[test]
    fn replay_recovers_detected_transient_upsets() {
        // DetectOnly ECC turns every transient upset into a typed error;
        // checkpoint/replay re-executes the poisoned segment on a fresh
        // RNG stream until the run converges to the golden output
        let cfg = StreamConfig::small_test();
        let plan = FaultPlan::with_seed(8).transient(1e-4);
        let mut bare = StreamSim::new(&cfg).unwrap();
        bare.attach_cmem_fault_plan(&plan);
        bare.set_ecc_mode(EccMode::DetectOnly);
        assert!(
            matches!(bare.run(5_000_000), Err(SimError::Fault { .. })),
            "without recovery the detected upset must propagate"
        );
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.attach_cmem_fault_plan(&plan);
        sim.set_ecc_mode(EccMode::DetectOnly);
        sim.set_recovery_policy(Some(RecoveryPolicy {
            max_replays: 64,
            remap: false,
            checkpoint_values: 8,
        }));
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden(), "replayed run must converge");
        let rec = sim.recovery_stats();
        assert!(rec.replays > 0, "{rec:?}");
        assert_eq!(rec.remaps, 0);
        assert!(rec.replayed_cycles > 0, "{rec:?}");
        assert!(rec.replayed_pj > 0.0, "{rec:?}");
        // the re-executed work is charged to the final bill
        let clean = StreamSim::new(&cfg).unwrap().run(5_000_000).unwrap();
        assert!(r.cycles > clean.cycles, "{} vs {}", r.cycles, clean.cycles);
        assert!(r.cmem_pj > clean.cmem_pj);
    }

    #[test]
    fn remap_replay_survives_a_dead_tile() {
        // a dead slice pinned to one tile: recovery retires the tile,
        // rebuilds the placement around it, and re-executes to golden
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.attach_cmem_fault_plan_to(0, &FaultPlan::none().dead_slice(2));
        sim.set_recovery_policy(Some(RecoveryPolicy::default()));
        let r = sim.run(20_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
        let rec = sim.recovery_stats();
        assert!(rec.remaps >= 1, "{rec:?}");
        assert!(rec.replayed_cycles > 0, "{rec:?}");
        // the retired tile hosts no node on the rebuilt placement
        let dead = *sim.avoid.last().unwrap();
        assert!(sim.tile_of[tile_slot(Coord::new(dead.x, dead.y))].is_none());
        // and without remap permission the hard fault propagates
        let mut stuck = StreamSim::new(&cfg).unwrap();
        stuck.attach_cmem_fault_plan_to(0, &FaultPlan::none().dead_slice(2));
        stuck.set_recovery_policy(Some(RecoveryPolicy {
            remap: false,
            ..RecoveryPolicy::default()
        }));
        assert!(matches!(stuck.run(20_000_000), Err(SimError::Fault { .. })));
    }

    #[test]
    fn replay_reclaims_lost_noc_traffic() {
        // a drop schedule that exhausts the plan's retries: without
        // recovery the run degrades; with it, the rollback reseeds the
        // drop RNG and the replay carries the traffic through
        let cfg = StreamConfig::small_test();
        let noc_plan = || {
            NocFaultPlan::with_seed(3)
                .drop_rate(0.02)
                .retry_after(64)
                .max_retries(1)
        };
        let mut bare = StreamSim::new(&cfg).unwrap();
        bare.attach_noc_fault_plan(noc_plan());
        let err = bare.run(5_000_000).unwrap_err();
        assert!(matches!(err, SimError::Degraded { .. }), "{err:?}");
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.attach_noc_fault_plan(noc_plan());
        sim.set_recovery_policy(Some(RecoveryPolicy {
            max_replays: 32,
            remap: false,
            checkpoint_values: 8,
        }));
        let r = sim.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, cfg.golden());
        assert!(sim.recovery_stats().replays > 0, "{:?}", sim.recovery_stats());
    }

    #[test]
    fn crc_failed_packets_are_faults_not_payloads() {
        // without a retry policy the mesh hands over packets whose CRC
        // failed; consuming one would pass suspect data on, so it is a
        // typed fault, the same on every engine
        let cfg = StreamConfig::small_test();
        let run = |engine: Engine, retry: Option<RetryPolicy>| {
            let mut sim = StreamSim::new(&cfg).unwrap();
            sim.set_engine(engine);
            sim.attach_noc_fault_plan(NocFaultPlan::with_seed(7).corrupt_rate(0.01));
            sim.set_noc_retry_policy(retry);
            (sim.run(5_000_000), sim.noc_fault_stats())
        };
        let (bare, _) = run(Engine::EventDriven, None);
        let err = bare.unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Fault {
                    source: ComponentError::Noc(NocError::Corrupted { .. })
                }
            ),
            "{err:?}"
        );
        for engine in [Engine::EventDriven, Engine::CycleAccurate] {
            assert_eq!(run(engine, None).0, Err(err.clone()), "{engine:?}");
        }
        // a retry policy NACKs each damaged packet and resends it
        let (r, stats) = run(Engine::EventDriven, Some(RetryPolicy::default()));
        assert_eq!(r.unwrap().ofmap, cfg.golden());
        assert!(stats.crc_rejects > 0, "{stats:?}");
    }

    #[test]
    fn engines_agree_under_recovery() {
        // rollback, reseed, and checkpoint cadence are all driven by
        // logical progress, so the two engines replay identically
        let cfg = StreamConfig::small_test();
        let run = |engine: Engine| {
            let mut sim = StreamSim::new(&cfg).unwrap();
            sim.set_engine(engine);
            sim.attach_cmem_fault_plan(&FaultPlan::with_seed(8).transient(1e-4));
            sim.set_ecc_mode(EccMode::DetectOnly);
            sim.set_noc_retry_policy(Some(RetryPolicy::default()));
            sim.set_recovery_policy(Some(RecoveryPolicy {
                max_replays: 64,
                remap: false,
                checkpoint_values: 8,
            }));
            let r = sim.run(5_000_000).unwrap();
            (r, sim.recovery_stats(), sim.ecc_stats())
        };
        let fast = run(Engine::EventDriven);
        let oracle = run(Engine::CycleAccurate);
        assert_eq!(fast.0, oracle.0, "results diverged");
        assert_eq!(fast.1, oracle.1, "recovery stats diverged");
        assert_eq!(fast.2, oracle.2, "ECC stats diverged");
    }

    #[test]
    fn dead_slice_surfaces_as_typed_fault() {
        let cfg = StreamConfig::small_test();
        let mut sim = StreamSim::new(&cfg).unwrap();
        sim.attach_cmem_fault_plan(&FaultPlan::none().dead_slice(1));
        let err = sim.run(5_000_000).unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "{err:?}");
        assert!(sim.cmem_fault_stats().dead_slice_hits > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The tentpole equivalence: for random small workloads — layer
        /// dims, chain length, stride, fault plans on/off — the
        /// event-driven and cycle-accurate engines produce identical
        /// `StreamResult`s (ofmap, cycles, NoC stats, energy), identical
        /// typed errors, and identical fault-plan observations.
        #[test]
        fn prop_engines_identical(
            in_c in 4usize..12,
            out_c in 1usize..4,
            hw in 5usize..7,
            salt in 0usize..8,
            two_layers in any::<bool>(),
            stride2 in any::<bool>(),
            cmem_faults in any::<bool>(),
            noc_faults in any::<bool>(),
            recovery in any::<bool>(),
        ) {
            let mut head = test_layer(in_c, out_c, salt);
            // a stride-2 head shrinks the ofmap below a second 3×3 layer,
            // so the chain is either strided or deep, not both
            let layers = if two_layers {
                vec![head, test_layer(out_c, 2, salt + 1)]
            } else {
                if stride2 {
                    head.shape.stride = 2;
                }
                vec![head]
            };
            let cfg = StreamConfig {
                layers,
                input: test_input(in_c, hw, hw),
            };
            let run_with = |engine: Engine| {
                let mut sim = StreamSim::new(&cfg).unwrap();
                sim.set_engine(engine);
                if cmem_faults {
                    sim.attach_cmem_fault_plan(
                        &FaultPlan::with_seed(salt as u64 + 17).transient(1e-4),
                    );
                }
                if noc_faults {
                    sim.attach_noc_fault_plan(
                        NocFaultPlan::with_seed(salt as u64 ^ 0xBEEF)
                            .drop_rate(0.01)
                            .retry_after(64)
                            .max_retries(3),
                    );
                }
                if recovery {
                    sim.set_ecc_mode(EccMode::Correct);
                    sim.set_noc_retry_policy(Some(RetryPolicy::default()));
                    sim.set_recovery_policy(Some(RecoveryPolicy::default()));
                }
                let r = sim.run(2_000_000);
                (
                    r,
                    sim.cmem_fault_stats(),
                    sim.noc_fault_stats(),
                    sim.recovery_stats(),
                    sim.ecc_stats(),
                )
            };
            let (fr, fc, fn_, frec, fecc) = run_with(Engine::EventDriven);
            let (or, oc, on, orec, oecc) = run_with(Engine::CycleAccurate);
            match (fr, or) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "results diverged"),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "engines disagree: {:?} vs {:?}", a, b),
            }
            prop_assert_eq!(fc, oc, "CMem fault stats diverged");
            prop_assert_eq!(fn_, on, "NoC fault stats diverged");
            prop_assert_eq!(frec, orec, "recovery stats diverged");
            prop_assert_eq!(fecc, oecc, "ECC stats diverged");
        }

        /// Loop equivalence on random workloads: `run()` reproduces the
        /// sequential reference loop (`run_reference`) bit-for-bit, on
        /// both engines, clean or under the fault shape of a
        /// fault-injected serving run — a CMem transient plan, NoC
        /// corruption with CRC retransmission, ECC correction, remap
        /// recovery and, optionally, a dead slice on the first computing
        /// core. Both loops step nodes and send their packets in index
        /// order, and this proptest keeps that honest: results or typed
        /// errors, and every fault, ECC and recovery statistic, must
        /// match.
        #[test]
        fn prop_parallel_matches_sequential(
            in_c in 4usize..=16,
            out_c in 1usize..=8,
            hw in 5usize..=7,
            salt in 0usize..8,
            cycle_accurate in any::<bool>(),
            two_layers in any::<bool>(),
            faults in any::<bool>(),
            dead_tile in any::<bool>(),
        ) {
            let layers = if two_layers {
                vec![test_layer(in_c, out_c, salt), test_layer(out_c, 2, salt + 1)]
            } else {
                vec![test_layer(in_c, out_c, salt)]
            };
            let cfg = StreamConfig {
                layers,
                input: test_input(in_c, hw, hw),
            };
            let engine = if cycle_accurate {
                Engine::CycleAccurate
            } else {
                Engine::EventDriven
            };
            let build = || {
                let mut sim = StreamSim::new(&cfg).unwrap();
                sim.set_engine(engine);
                if faults {
                    let seed = salt as u64;
                    sim.attach_cmem_fault_plan(&FaultPlan::with_seed(seed + 41).transient(1e-2));
                    sim.attach_noc_fault_plan(
                        NocFaultPlan::with_seed(seed ^ 0x5EED).corrupt_rate(1e-2),
                    );
                    sim.set_ecc_mode(EccMode::Correct);
                    sim.set_noc_retry_policy(Some(RetryPolicy::default()));
                    sim.set_recovery_policy(Some(RecoveryPolicy {
                        max_replays: 8,
                        remap: true,
                        checkpoint_values: 8,
                    }));
                    if dead_tile {
                        sim.attach_cmem_fault_plan_to(0, &FaultPlan::none().dead_slice(1));
                    }
                }
                sim
            };
            let observe = |sim: &StreamSim| {
                (
                    sim.cmem_fault_stats(),
                    sim.noc_fault_stats(),
                    sim.recovery_stats(),
                    sim.ecc_stats(),
                    sim.retired_tiles().to_vec(),
                )
            };
            let mut seq = build();
            let s = seq.run_reference(4_000_000).map_err(|e| e.to_string());
            let s_obs = observe(&seq);
            if !faults {
                prop_assert_eq!(s.as_ref().map(|r| &r.ofmap), Ok(&cfg.golden()));
            }
            let mut par = build();
            let p = par.run(4_000_000).map_err(|e| e.to_string());
            prop_assert_eq!(&p, &s, "{:?}", engine);
            prop_assert_eq!(observe(&par), s_obs, "{:?}", engine);
        }

        /// Satellite regression: with empty fault plans attached, the
        /// fabric stream output and total cycle count are identical to the
        /// no-injection path for random small CONV workloads.
        #[test]
        fn prop_quiet_fault_plans_never_diverge(
            in_c in 4usize..12,
            out_c in 1usize..4,
            hw in 4usize..6,
            salt in 0usize..8,
        ) {
            let cfg = StreamConfig {
                layers: vec![test_layer(in_c, out_c, salt)],
                input: test_input(in_c, hw, hw),
            };
            let clean = StreamSim::new(&cfg).unwrap().run(2_000_000).unwrap();
            let mut quiet = StreamSim::new_avoiding(&cfg, &[]).unwrap();
            quiet.attach_cmem_fault_plan(&FaultPlan::none());
            quiet.attach_noc_fault_plan(NocFaultPlan::none());
            let r = quiet.run(2_000_000).unwrap();
            prop_assert_eq!(&r.ofmap, &clean.ofmap);
            prop_assert_eq!(r.cycles, clean.cycles);
            prop_assert_eq!(&r.ofmap, &cfg.golden());
        }
    }
}
