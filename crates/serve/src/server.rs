//! Serving configuration and the entry points for one fabric.
//!
//! [`serve`] runs a trace on a single 15×14 fabric. It is the one-fabric
//! case of the cluster loop ([`crate::cluster`]): one fabric, no fabric
//! faults, and a zero failover budget, so a request the fabric cannot
//! serve is recorded lost instead of re-dispatched. Every policy, the
//! overload hardening, the weight cache and interval telemetry go
//! through that one event loop.
//!
//! An admitted request is executed immediately through the real
//! bit-level [`StreamSim`] on exactly the tiles the scheduler granted
//! (placement is confined by passing the complement as the avoid set),
//! so service times, energy, and golden checks all come from the
//! simulator, not a model of it.
//!
//! Faults flow through the same machinery as offline runs: a
//! [`FaultConfig`] arms CMem/NoC fault plans (optionally targeted at
//! specific request ids), and when an attached
//! [`RecoveryPolicy`](maicc_sim::RecoveryPolicy) remaps around a hard
//! fault mid-run, the loop diffs [`StreamSim::retired_tiles`] against
//! the avoid set it supplied and permanently shrinks the schedulable
//! pool — later admissions steer around the casualty.

use std::collections::BTreeMap;

use maicc_exec::mapping::{healthy_order, Tile};
use maicc_noc::{NocFaultPlan, RetryPolicy};
use maicc_sim::stream::{Engine, StreamSim};
use maicc_sim::RecoveryPolicy;
use maicc_sram::ecc::EccMode;
use maicc_sram::fault::FaultPlan;

use crate::cache::WeightCacheConfig;
use crate::cluster::{serve_cluster, serve_cluster_with_obs, ClusterConfig};
use crate::overload::{OverloadConfig, RetryBudget};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::slo::ServeReport;
use crate::trace::Trace;
use crate::ServeError;

/// How the scheduler shares the fabric between queued requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served: one FIFO queue, head-blocking — the
    /// oldest request admits as soon as its footprint fits.
    Fcfs,
    /// Shortest job first: the queued request with the smallest analytic
    /// service estimate (from the segmentation heuristic) admits next.
    Sjf,
    /// Static spatial partitioning: each tenant owns a fixed region of
    /// tiles sized for its largest model; tenants never contend, at the
    /// cost of idle regions.
    Partitioned,
    /// Temporal time-slicing: the whole pool is granted to one request
    /// at a time, round-robin across tenants.
    TimeShared,
}

impl Policy {
    /// All policies, in a stable order.
    pub const ALL: [Policy; 4] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Partitioned,
        Policy::TimeShared,
    ];

    /// The label used in reports and on the CLI.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Sjf => "sjf",
            Policy::Partitioned => "partitioned",
            Policy::TimeShared => "time_shared",
        }
    }

    /// Parses a CLI label (accepts `-` for `_`).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Policy> {
        match s.replace('-', "_").as_str() {
            "fcfs" => Some(Policy::Fcfs),
            "sjf" => Some(Policy::Sjf),
            "partitioned" => Some(Policy::Partitioned),
            "time_shared" => Some(Policy::TimeShared),
            _ => None,
        }
    }
}

/// Fault-injection knobs for a serving run, mirroring the offline
/// campaign's layers.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// CMem fault plan attached to every computing core of every run
    /// (seed re-salted per request so runs fault independently but
    /// deterministically).
    pub cmem: Option<FaultPlan>,
    /// NoC fault plan attached to every run's mesh.
    pub noc: Option<NocFaultPlan>,
    /// ECC protection level for all CMems.
    pub ecc: EccMode,
    /// CRC-checked ACK/NACK retransmission on the mesh.
    pub retry: Option<RetryPolicy>,
    /// Request ids whose run gets a dead CMem slice on its first
    /// computing core — a hard fault that (with remap recovery) retires
    /// a tile from the pool mid-service. Fires only on a request's
    /// first attempt: a retry re-runs on clean hardware.
    pub fail_at_requests: Vec<u64>,
}

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scheduling policy.
    pub policy: Policy,
    /// Simulation engine driving each admitted request (does not affect
    /// results — engines are bit-identical).
    pub engine: Engine,
    /// Ignored: every admitted request's simulation steps its nodes on
    /// the serving thread. Kept only for perfbench, which still sets it.
    pub threads: usize,
    /// Schedulable pool size in tiles, carved from the start of the
    /// serpentine order; `0` means the whole healthy array.
    pub pool_tiles: usize,
    /// Cycle budget per admitted request's simulation.
    pub run_budget: u64,
    /// Checkpoint/replay recovery attached to every run.
    pub recovery: Option<RecoveryPolicy>,
    /// Fault injection, if any.
    pub fault: Option<FaultConfig>,
    /// Tiles already known-bad before serving starts.
    pub initial_failed: Vec<Tile>,
    /// Overload hardening (bounded admission, tiers, preemption,
    /// brownout, deadline shedding) in the admission step; `None` queues
    /// every arrival and treats all tenants alike. Only [`Policy::Fcfs`]
    /// and [`Policy::Sjf`] support it.
    pub overload: Option<OverloadConfig>,
    /// Retry of unrecoverable runs with bounded exponential backoff on
    /// the run's own fabric, under any policy. `None` hands an
    /// unrecoverable run straight to the router, which records it lost
    /// once the failover budget is spent (at once for [`serve`]).
    pub retry_budget: Option<RetryBudget>,
    /// Two-tier model-weight cache ([`crate::cache`]). `None` keeps the
    /// historical loop with no weight-load modeling at all (reports are
    /// byte-identical to pre-cache serving); `Some` models every load
    /// through the LLC/DRAM tier — with `enabled: false` nothing is ever
    /// retained (the "cache off" measurement arm), with `enabled: true`
    /// completed requests pin their weights for warm admissions. Only
    /// [`Policy::Fcfs`] and [`Policy::Sjf`] support it, with or without
    /// overload hardening.
    pub weight_cache: Option<WeightCacheConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            policy: Policy::Fcfs,
            engine: Engine::EventDriven,
            threads: 1,
            pool_tiles: 0,
            run_budget: 5_000_000,
            recovery: None,
            fault: None,
            initial_failed: Vec::new(),
            overload: None,
            retry_budget: None,
            weight_cache: None,
        }
    }
}

/// What one simulated request run produced.
pub(crate) struct RunOutput {
    pub(crate) cycles: u64,
    pub(crate) energy_pj: f64,
    pub(crate) ok: bool,
    pub(crate) newly_retired: Vec<Tile>,
    /// Cycles at which the run took sink-progress checkpoints (empty
    /// without a [`RecoveryPolicy`]); a preempted or stranded run resumes
    /// from the last of these.
    pub(crate) ckpt_log: Vec<u64>,
    /// ECC single-bit corrections the run's CMems performed. Memoized
    /// replays report 0 — only fault-free runs are memoized, and a
    /// fault-free run corrects nothing.
    pub(crate) ecc_corrected: u64,
    /// NoC ACK/NACK retransmissions the run's mesh performed (same
    /// memoization argument).
    pub(crate) noc_retransmits: u64,
}

/// Key for memoizing fault-free runs: model name plus the exact tiles
/// the run was placed on (placement fully determines the simulation).
pub(crate) type RunKey = (String, Vec<(u8, u8)>);

/// The memo table [`run_request`] reads and writes: fault-free results
/// keyed by [`RunKey`]. The cluster router shares one table across all
/// fabrics — every fabric has the same 15×14 geometry, so identical
/// placements replay identically wherever they land.
pub(crate) type RunMemo = BTreeMap<RunKey, (u64, f64, bool, Vec<u64>)>;

/// Runs a trace against a registry under a config and returns the SLO
/// report.
///
/// # Errors
///
/// * [`ServeError::UnknownModel`] — a request names an unregistered
///   model.
/// * [`ServeError::BadTrace`] — arrivals decrease, ids are not dense
///   in trace order, or an arrival or deadline lies past
///   [`HORIZON_CYCLES`].
/// * [`ServeError::PoolTooSmall`] — the pool cannot fit a requested
///   model (or, under [`Policy::Partitioned`], the per-tenant regions)
///   at start. A request whose model no longer fits a pool that fault
///   recovery shrank is recorded lost, not an error.
/// * [`ServeError::BadModel`] — a trace model resolves to a registry
///   entry with a zero-tile footprint (an inconsistent entry that would
///   otherwise underflow placement).
/// * [`ServeError::BadRequest`] — a request carries an impossible
///   deadline (`0`, or at/earlier than its own arrival), or, admitted,
///   would finish past cycle `u64::MAX`.
/// * [`ServeError::BadConfig`] — overload hardening or the weight cache
///   combined with [`Policy::Partitioned`] or [`Policy::TimeShared`],
///   which cannot honor cross-tenant priority or cache placement.
/// * [`ServeError::Sim`] — a simulation failed in a way the serving
///   layer cannot attribute to a single request.
pub fn serve(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    serve_cluster(registry, trace, &one_fabric(cfg)).map(|r| r.serve)
}

/// Like [`serve`], but additionally threads a [`maicc_obs::Recorder`]
/// through the event loop and returns its JSONL telemetry stream: one
/// record per `interval_cycles` of simulated time (see the `maicc-obs`
/// crate docs for the schema and determinism argument). The report is
/// byte-identical to what plain [`serve`] returns on the same inputs.
///
/// # Errors
///
/// Everything [`serve`] raises.
pub fn serve_with_obs(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ServeConfig,
    interval_cycles: u64,
) -> Result<(ServeReport, String), ServeError> {
    serve_cluster_with_obs(registry, trace, &one_fabric(cfg), interval_cycles)
        .map(|(report, jsonl)| (report.serve, jsonl))
}

/// The cluster a single-fabric run is: one fabric, no fabric faults,
/// and no re-dispatch.
fn one_fabric(cfg: &ServeConfig) -> ClusterConfig {
    ClusterConfig {
        failover_budget: 0,
        base: cfg.clone(),
        ..ClusterConfig::default()
    }
}

/// The latest cycle a trace arrival or deadline, or a scheduled fabric
/// fault, may name: 2^53, the range of integers every JSON reader holds
/// exactly. A brownout may stretch the run budget only up to it too, so
/// one run moves the serving clock by little more than the horizon.
pub const HORIZON_CYCLES: u64 = 1 << 53;

/// Per-request trace validation: arrivals must not decrease, ids must be
/// dense in trace order (the [`Trace`] invariant), arrivals and deadlines
/// must lie within [`HORIZON_CYCLES`], and every model must resolve, have
/// a non-zero footprint, and carry a possible deadline.
pub(crate) fn validate_requests(registry: &ModelRegistry, trace: &Trace) -> Result<(), ServeError> {
    for (i, r) in trace.requests.iter().enumerate() {
        if r.id != i as u64 {
            return Err(ServeError::BadTrace {
                reason: format!(
                    "request {i} has id {}; ids must be dense in trace order",
                    r.id
                ),
            });
        }
        if let Some(prev) = i.checked_sub(1).map(|p| &trace.requests[p]) {
            if r.arrival < prev.arrival {
                return Err(ServeError::BadTrace {
                    reason: format!(
                        "request {} arrives at {}, before request {} at {}",
                        r.id, r.arrival, prev.id, prev.arrival
                    ),
                });
            }
        }
        let latest = r.deadline.map_or(r.arrival, |d| d.max(r.arrival));
        if latest > HORIZON_CYCLES {
            return Err(ServeError::BadTrace {
                reason: format!(
                    "request {} names cycle {latest}, past the horizon {HORIZON_CYCLES}",
                    r.id
                ),
            });
        }
        let Some(entry) = registry.get(&r.model) else {
            return Err(ServeError::UnknownModel {
                model: r.model.clone(),
            });
        };
        if entry.tiles == 0 {
            return Err(ServeError::BadModel {
                reason: format!("model `{}` has a zero-tile footprint", entry.name),
            });
        }
        if let Some(d) = r.deadline {
            if d == 0 {
                return Err(ServeError::BadRequest {
                    id: r.id,
                    reason: "deadline is 0".into(),
                });
            }
            if d <= r.arrival {
                return Err(ServeError::BadRequest {
                    id: r.id,
                    reason: format!("deadline {d} is at or before arrival {}", r.arrival),
                });
            }
        }
    }
    Ok(())
}

/// Where the simulator would place a model of `tiles` tiles given an
/// avoid set: the first `tiles` tiles of the healthy serpentine, the rule
/// `StreamSim::new_avoiding` applies. `None` if fewer remain.
pub(crate) fn placement_for(tiles: usize, avoid: &[Tile]) -> Option<Vec<Tile>> {
    let mut order = healthy_order(avoid);
    if order.len() < tiles {
        return None;
    }
    order.truncate(tiles);
    Some(order)
}

/// Executes one admitted request on the fabric, confined to the tiles
/// outside `avoid`. `attempt` is 0 for a request's first run; retries
/// pass higher values so their fault plans draw fresh seeds. `warm`
/// asserts the placement's CMems already hold the model's weight image
/// (a weight-cache hit) and takes `StreamSim`'s warm-start entry point,
/// which verifies the image bit-for-bit. Fault-free results land in
/// `memo`.
pub(crate) fn run_request(
    cfg: &ServeConfig,
    memo: &mut RunMemo,
    entry: &ModelEntry,
    avoid: &[Tile],
    req_id: u64,
    attempt: u32,
    warm: bool,
) -> Result<RunOutput, ServeError> {
    let placement = placement_for(entry.tiles, avoid).expect("caller checked fit before running");
    let key: RunKey = (
        entry.name.clone(),
        placement.iter().map(|t| (t.x, t.y)).collect(),
    );
    // A run is memoizable when nothing request-specific can perturb
    // it: no fabric-wide fault plans, and no targeted dead slice for
    // this request. Config-constant knobs (ECC mode, NoC retry) are
    // fine — the memo lives inside one serve() call.
    let fault_free = match &cfg.fault {
        None => true,
        Some(f) => {
            f.cmem.is_none()
                && f.noc.is_none()
                && !(attempt == 0 && f.fail_at_requests.contains(&req_id))
        }
    };
    if fault_free {
        if let Some((cycles, energy_pj, ok, ckpt_log)) = memo.get(&key) {
            return Ok(RunOutput {
                cycles: *cycles,
                energy_pj: *energy_pj,
                ok: *ok,
                newly_retired: Vec::new(),
                ckpt_log: ckpt_log.clone(),
                ecc_corrected: 0,
                noc_retransmits: 0,
            });
        }
    }

    let mut sim = if warm {
        StreamSim::new_avoiding_warm(&entry.stream, avoid, &entry.weight_image)
    } else {
        StreamSim::new_avoiding(&entry.stream, avoid)
    }
    .map_err(|e| ServeError::PoolTooSmall {
        reason: format!("placement of `{}` failed: {e}", entry.name),
    })?;
    sim.set_engine(cfg.engine);
    if let Some(recovery) = cfg.recovery {
        sim.set_recovery_policy(Some(recovery));
    }
    if let Some(fault) = &cfg.fault {
        // Fault-plan seeds are salted per request (runs fault
        // independently but deterministically) and, additively, per
        // attempt — a retry must not replay the exact fault draw
        // that killed attempt 0. Attempt 0 preserves the historical
        // seeds bit-for-bit.
        let attempt_salt = u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407);
        if let Some(plan) = &fault.cmem {
            let mut p = plan.clone();
            p.seed = plan
                .seed
                .wrapping_add(req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(attempt_salt);
            sim.attach_cmem_fault_plan(&p);
        }
        if let Some(plan) = &fault.noc {
            let mut p = plan.clone();
            if attempt > 0 {
                p.seed = plan
                    .seed
                    .wrapping_add(req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(attempt_salt);
            }
            sim.attach_noc_fault_plan(p);
        }
        sim.set_ecc_mode(fault.ecc);
        sim.set_noc_retry_policy(fault.retry);
        if attempt == 0 && fault.fail_at_requests.contains(&req_id) {
            sim.attach_cmem_fault_plan_to(
                0,
                &FaultPlan {
                    seed: req_id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    transient_flip_rate: 0.0,
                    stuck_cells: Vec::new(),
                    dead_slices: vec![0],
                },
            );
        }
    }

    match sim.run(cfg.run_budget) {
        Ok(result) => {
            let ok = result.ofmap == entry.golden;
            let energy_pj = result.cmem_pj + result.noc.dynamic_pj();
            let newly_retired: Vec<Tile> = sim
                .retired_tiles()
                .iter()
                .filter(|t| !avoid.contains(t))
                .copied()
                .collect();
            let ckpt_log = sim.checkpoint_log().to_vec();
            if fault_free {
                memo.insert(key, (result.cycles, energy_pj, ok, ckpt_log.clone()));
            }
            Ok(RunOutput {
                cycles: result.cycles,
                energy_pj,
                ok,
                newly_retired,
                ckpt_log,
                ecc_corrected: sim.ecc_stats().corrected,
                noc_retransmits: sim.noc_fault_stats().retries,
            })
        }
        Err(e) => Err(ServeError::Sim(e)),
    }
}
