//! The model registry: what a request's `model` name resolves to.
//!
//! Each entry binds a name to a streamed workload
//! ([`StreamConfig`] — chained `maicc-nn` conv layers, the form the
//! bit-level fabric simulator executes), plus two facts the scheduler
//! needs *before* running anything:
//!
//! * **footprint** — the number of fabric tiles one instance occupies
//!   (data-collection core + computing cores per layer + the sink),
//!   mirroring `StreamSim`'s own capacity math and verified against it by
//!   construction in the tests;
//! * **estimated service cycles** — an analytic job-size estimate from
//!   the execution framework: the layer chain is rebuilt as a
//!   [`maicc_nn::graph::Network`] and pushed through
//!   [`maicc_exec::segment`]'s equal-ifmap-size grouping heuristic
//!   (`Strategy::Heuristic`, the paper's Equation-(1) allocator), so
//!   shortest-job-first ordering reuses the same cost model the offline
//!   mapper trusts rather than inventing a second one.

use crate::overload::{OverloadConfig, Tier};
use crate::ServeError;
use maicc_exec::config::ExecConfig;
use maicc_exec::pipeline_model::run_network;
use maicc_exec::segment::Strategy;
use maicc_nn::graph::{Network, Node, NodeInput, NodeOp};
use maicc_sim::stream::{StreamConfig, StreamSim};
use crate::trace::TenantLoad;

/// Filter-vector slots one computing core offers (7 slices × 7 rows of
/// resident vectors — the capacity constant `StreamSim` places with).
const SLOTS_PER_CORE: usize = 49;

/// One registered model.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// The name requests use.
    pub name: String,
    /// The streamed workload an admitted request executes.
    pub stream: StreamConfig,
    /// Fabric tiles one running instance occupies (DCs + CCs + sink).
    pub tiles: usize,
    /// Analytic service-time estimate, cycles (heuristic segmentation of
    /// the layer chain; used for SJF ordering, not billing).
    pub est_cycles: u64,
    /// Golden reference ofmap, precomputed once so every completed run
    /// can be checked without re-deriving it.
    pub golden: Vec<i8>,
    /// Total weight-image bytes streamed into CMem on a cold start (the
    /// unit the weight cache's memory-tier costs are priced in).
    pub weight_bytes: usize,
    /// Weight bytes on the busiest computing core — the serialized
    /// vertical-write phase the fabric edge pays after the memory stream.
    pub max_tile_weight_bytes: usize,
    /// The canonical weight image ([`StreamSim::weight_image`]): the
    /// warm-start entry point asserts resident weights equal this before
    /// skipping the load phase.
    pub weight_image: Vec<Vec<i8>>,
}

/// A name → model map with deterministic iteration order (registration
/// order).
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
}

/// Fabric tiles a streamed workload occupies, mirroring the placement
/// math in `StreamSim::new`: per layer one data-collection core plus
/// `ceil(out_channels / per_core)` computing cores, plus one sink tile.
///
/// # Errors
///
/// Returns [`ServeError::BadModel`] if the workload has no layers or a
/// filter exceeds one CMem (`kernel_h × kernel_w × ceil(C/256) > 49`).
pub(crate) fn footprint(cfg: &StreamConfig) -> Result<usize, ServeError> {
    if cfg.layers.is_empty() {
        return Err(ServeError::BadModel {
            reason: "workload has no layers".into(),
        });
    }
    let mut tiles = 1; // the sink
    for l in &cfg.layers {
        let s = &l.shape;
        let groups = s.in_channels.div_ceil(256);
        let vec_per_filter = s.kernel_h * s.kernel_w * groups;
        let per_core = SLOTS_PER_CORE / vec_per_filter;
        if per_core == 0 {
            return Err(ServeError::BadModel {
                reason: format!("filter {}x{} exceeds one CMem", s.kernel_h, s.kernel_w),
            });
        }
        tiles += 1 + s.out_channels.div_ceil(per_core);
    }
    Ok(tiles)
}

/// Weight bytes on the busiest computing core: per layer the first CC
/// holds `min(per_core, out_channels)` filters of
/// `kernel_h × kernel_w × groups` 256-byte filter vectors each, and the
/// serialized vertical-write phase is bounded by the fullest core.
#[must_use]
pub(crate) fn max_tile_weight_bytes(cfg: &StreamConfig) -> usize {
    cfg.layers
        .iter()
        .map(|l| {
            let s = &l.shape;
            let groups = s.in_channels.div_ceil(256);
            let vec_per_filter = s.kernel_h * s.kernel_w * groups;
            let per_core = SLOTS_PER_CORE / vec_per_filter.max(1);
            per_core.min(s.out_channels) * vec_per_filter * 256
        })
        .max()
        .unwrap_or(0)
}

/// Rebuilds the streamed layer chain as a `maicc-nn` network (the layers
/// *are* `maicc-nn` conv layers; this just restores the graph form the
/// offline execution framework consumes).
fn as_network(name: &str, cfg: &StreamConfig) -> Result<Network, ServeError> {
    let nodes = cfg
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| Node {
            name: format!("{name}_l{i}"),
            op: NodeOp::Conv(l.clone()),
            input: if i == 0 {
                NodeInput::External
            } else {
                NodeInput::Node(i - 1)
            },
            residual: None,
        })
        .collect();
    Network::new(name, nodes).map_err(|e| ServeError::BadModel {
        reason: e.to_string(),
    })
}

/// Analytic service-cycle estimate for a streamed workload: the layer
/// chain is segmented with the paper's equal-ifmap-size heuristic and run
/// through the pipelined execution model on a default array.
///
/// # Errors
///
/// Returns [`ServeError::BadModel`] if the chain cannot be segmented
/// (inconsistent shapes, layer too large for the array).
pub(crate) fn estimate_service_cycles(name: &str, cfg: &StreamConfig) -> Result<u64, ServeError> {
    let net = as_network(name, cfg)?;
    let input = [
        cfg.input.shape()[0],
        cfg.input.shape()[1],
        cfg.input.shape()[2],
    ];
    let exec = ExecConfig::default();
    let run = run_network(&net, input, Strategy::Heuristic, &exec).map_err(|e| {
        ServeError::BadModel {
            reason: format!("{name}: {e}"),
        }
    })?;
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    Ok(run.total_cycles.max(1.0) as u64)
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers a streamed workload under a name, deriving its tile
    /// footprint, analytic service estimate, and golden reference.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadModel`] for an invalid layer chain or a
    /// duplicate name.
    pub(crate) fn register(&mut self, name: &str, stream: StreamConfig) -> Result<(), ServeError> {
        if self.get(name).is_some() {
            return Err(ServeError::BadModel {
                reason: format!("model `{name}` registered twice"),
            });
        }
        let tiles = footprint(&stream)?;
        let est_cycles = estimate_service_cycles(name, &stream)?;
        let golden = stream.golden();
        let weight_image = StreamSim::weight_image(&stream);
        let weight_bytes = weight_image.len() * 256;
        let max_tile = max_tile_weight_bytes(&stream);
        self.entries.push(ModelEntry {
            name: name.to_string(),
            stream,
            tiles,
            est_cycles,
            golden,
            weight_bytes,
            max_tile_weight_bytes: max_tile,
            weight_image,
        });
        Ok(())
    }

    /// Inserts a pre-built entry without re-deriving its footprint,
    /// estimate, or golden — an escape hatch for replaying recorded
    /// registries and for tests that need a deliberately inconsistent
    /// entry. `serve()` re-validates the facts it relies on (notably a
    /// non-zero tile footprint) before scheduling anything.
    pub fn insert_raw(&mut self, entry: ModelEntry) {
        self.entries.push(entry);
    }

    /// Looks a model up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// All entries, in registration order.
    #[must_use]
    pub fn entries(&self) -> &[ModelEntry] {
        &self.entries
    }
}

/// The standard three-model serving mix the CLI, bench, and CI smoke all
/// use: the downscaled ResNet-18 stage segment (a heavy "vision" tenant),
/// the two-layer pipeline (a mid-weight "assist" tenant), and the small
/// one-layer net (a latency-sensitive "keyword" tenant) — heterogeneous
/// enough that scheduler policies visibly diverge at the tail.
///
/// Returns the registry plus the tenants' offered loads for the trace
/// generators.
///
/// # Panics
///
/// Panics if the built-in workloads fail to register — a programming
/// error, not a data condition.
#[must_use]
pub fn three_model_mix() -> (ModelRegistry, Vec<TenantLoad>) {
    let mut reg = ModelRegistry::new();
    reg.register("resnet18_segment", StreamConfig::resnet18_segment())
        .expect("built-in workload registers");
    reg.register("two_layer", StreamConfig::two_layer_test())
        .expect("built-in workload registers");
    reg.register("small", StreamConfig::small_test())
        .expect("built-in workload registers");
    let loads = vec![
        TenantLoad {
            tenant: "vision".into(),
            model: "resnet18_segment".into(),
            mean_gap: 250_000,
            deadline: Some(600_000),
        },
        TenantLoad {
            tenant: "assist".into(),
            model: "two_layer".into(),
            mean_gap: 150_000,
            deadline: Some(400_000),
        },
        TenantLoad {
            tenant: "keyword".into(),
            model: "small".into(),
            mean_gap: 60_000,
            deadline: Some(150_000),
        },
    ];
    (reg, loads)
}

/// The overload-scenario mix: the same three models as
/// [`three_model_mix`], offered at **twice** the rate (halved mean
/// gaps), plus the tier map the overload campaign uses — `vision` is
/// latency-critical ([`Tier::Hard`]), `assist` ordinary
/// ([`Tier::Soft`]), and `keyword` a scavenger ([`Tier::BestEffort`]).
/// On the 8-tile contended pool the CLI/bench/CI overload runs use,
/// this offers roughly 2× the fabric's sustainable load.
///
/// # Panics
///
/// Panics if the built-in workloads fail to register — a programming
/// error, not a data condition.
#[must_use]
pub fn overload_mix() -> (ModelRegistry, Vec<TenantLoad>, OverloadConfig) {
    let (reg, mut loads) = three_model_mix();
    for load in &mut loads {
        load.mean_gap /= 2;
    }
    let overload = OverloadConfig {
        tiers: vec![
            ("vision".into(), Tier::Hard),
            ("assist".into(), Tier::Soft),
            ("keyword".into(), Tier::BestEffort),
        ],
        ..OverloadConfig::default()
    };
    (reg, loads, overload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_exec::mapping::{zigzag_order, Tile};
    use maicc_sim::stream::StreamSim;

    /// `footprint` must match the simulator's real appetite: confining
    /// the placement to exactly that many healthy tiles succeeds, one
    /// fewer overflows.
    #[test]
    fn footprint_matches_stream_sim_placement() {
        for cfg in [
            StreamConfig::small_test(),
            StreamConfig::two_layer_test(),
            StreamConfig::resnet18_segment(),
        ] {
            let tiles = footprint(&cfg).unwrap();
            let order = zigzag_order();
            let mask_all_but = |n: usize| -> Vec<Tile> { order[n..].to_vec() };
            assert!(
                StreamSim::new_avoiding(&cfg, &mask_all_but(tiles)).is_ok(),
                "{tiles} tiles must suffice"
            );
            assert!(
                StreamSim::new_avoiding(&cfg, &mask_all_but(tiles - 1)).is_err(),
                "{} tiles must overflow",
                tiles - 1
            );
        }
    }

    #[test]
    fn footprints_are_small_and_ordered() {
        let small = footprint(&StreamConfig::small_test()).unwrap();
        let two = footprint(&StreamConfig::two_layer_test()).unwrap();
        let seg = footprint(&StreamConfig::resnet18_segment()).unwrap();
        assert!(small < two && two < seg, "{small} {two} {seg}");
        assert_eq!(small, 3);
        assert_eq!(seg, 7);
    }

    #[test]
    fn estimate_orders_models_by_size() {
        let small = estimate_service_cycles("small", &StreamConfig::small_test()).unwrap();
        let seg =
            estimate_service_cycles("seg", &StreamConfig::resnet18_segment()).unwrap();
        assert!(small > 0);
        assert!(seg > small, "resnet segment {seg} vs small {small}");
    }

    #[test]
    fn registry_rejects_duplicates_and_resolves_names() {
        let (reg, loads) = three_model_mix();
        assert_eq!(reg.entries().len(), 3);
        for load in &loads {
            assert!(reg.get(&load.model).is_some(), "{} unresolved", load.model);
        }
        assert!(reg.get("nope").is_none());
        let mut reg = reg;
        match reg.register("small", StreamConfig::small_test()) {
            Err(ServeError::BadModel { reason }) => assert!(reason.contains("twice")),
            other => panic!("expected duplicate rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_chain_is_rejected() {
        let cfg = StreamConfig {
            layers: vec![],
            input: maicc_nn::tensor::Tensor::from_fn(&[1, 1, 1], |_| 0),
        };
        assert!(matches!(footprint(&cfg), Err(ServeError::BadModel { .. })));
    }
}
