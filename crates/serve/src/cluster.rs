//! The serving loop: one discrete-event scheduler over N fabrics
//! (DESIGN.md §12, §13, §16). [`crate::server::serve`] is its one-fabric
//! case.
//!
//! One fabric is one fault domain. The router dispatches every arrival
//! to exactly one fabric; each fabric has its own queue, pool carve,
//! degradation history and weight cache, and runs admitted requests
//! through [`run_request`]. Time is fabric cycles; the loop jumps between
//! events, and at each event it runs these phases in order:
//!
//! 1. **Completions** — every run finishing now retires (per fabric, in
//!    request-id order), then in-flight prefetches settle.
//! 2. **Fabric faults** — scheduled outages, slow-fabric brownouts and
//!    tile-bank losses fire ([`ClusterFaultPlan`]). A tile-bank loss
//!    strands overlapping runs and re-dispatches them at once.
//! 3. **Heartbeat drains** — a dead fabric keeps *receiving* work until
//!    the router misses enough heartbeats; at the detection edge its
//!    queued and stranded (checkpointed) requests are re-dispatched to
//!    surviving replicas at elevated priority, under a bounded failover
//!    budget, and its weight-cache warm state dies.
//! 4. **Rejoins** — repaired fabrics come back empty and cache-cold.
//! 5. **Arrivals** — cluster-level shedding (when believed-healthy
//!    capacity is low, best-effort and optionally deadline-hopeless soft
//!    arrivals are shed; Hard arrivals never are), then the target pick
//!    (a believed-alive fabric with capacity, preferring replica homes —
//!    model `m` is home on fabrics `(m + j) mod N` for `j < replicas` —
//!    then full-speed fabrics, then the shortest backlog), then the
//!    overload queue cap of that fabric. An arrival no fabric can host
//!    is lost.
//! 6. **Brownout sample** — with overload hardening, each fabric's
//!    occupancy feeds the brownout streak once per event.
//! 7. **Admission** — per fabric: re-carve a partition the fabric's
//!    losses invalidated, let a blocked Hard head preempt best-effort
//!    runs, admit the policy's picks while they fit (a head that does not
//!    fit blocks the pass; brownout caps best-effort grants on a busy
//!    fabric), shed queued work whose deadline is already hopeless, and
//!    prefetch. A pick that cannot be placed on an idle fabric never
//!    will be: it goes back to the router, which re-dispatches it or
//!    records it lost. An unrecoverable run retries on its own fabric
//!    under the retry budget, then goes to the router. The sweep repeats
//!    while re-dispatches land work on a fabric whose pass already ran.
//! 8. **Telemetry** — queue depth and cache counters reach the recorder,
//!    and debug builds check the loop's invariants.
//!
//! Determinism carries the same bar as every other subsystem: all
//! routing and failover decisions key on integer tuples (request id,
//! fabric index, cycle), so the report is byte-identical across engines
//! and node-stepping thread counts.

use std::collections::BTreeMap;

use maicc_exec::mapping::{healthy_order, zigzag_order, Tile};
use maicc_obs::{CacheSample, Recorder};

use crate::cache::{AdmissionPlan, CacheCounters, WeightCache};
use crate::overload::{Tier, PER_TENANT_RETRIES};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::server::{placement_for, run_request, validate_requests, Policy, RunMemo, ServeConfig};
use crate::slo::{percentile, CacheReport, RequestOutcome, ServeReport};
use crate::trace::Trace;
use crate::ServeError;

/// What happens to one fabric at one scheduled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricFaultKind {
    /// The whole fabric goes dark: running work is stranded at its last
    /// checkpoint, queued work sits until the heartbeat detector fires.
    /// With a `duration` the fabric rejoins (empty and cache-cold) at
    /// the first heartbeat edge after the outage ends; `None` is a
    /// permanent kill.
    Outage {
        /// Cycles until repair; `None` is a permanent kill.
        duration: Option<u64>,
    },
    /// The fabric keeps serving but every admission in the window runs
    /// `factor`× slower (thermal throttling, a flaky power rail). The
    /// router deprioritizes it while the window lasts.
    Brownout {
        /// Service-time multiplier while the window lasts (>= 1).
        factor: u64,
        /// Window length, fabric cycles.
        duration: u64,
    },
    /// A tile bank dies: the first `tiles` tiles of the fabric's
    /// remaining healthy pool retire permanently. Overlapping runs are
    /// stranded and re-dispatched immediately — the fabric itself
    /// observes the loss, no heartbeat needed.
    TileLoss {
        /// How many tiles of the remaining healthy pool retire.
        tiles: usize,
    },
}

/// One scheduled fabric-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricFault {
    /// Target fabric index.
    pub fabric: usize,
    /// Fabric cycle at which the fault fires.
    pub at: u64,
    /// What happens.
    pub kind: FabricFaultKind,
}

/// The cluster's fault schedule (empty by default).
#[derive(Debug, Clone, Default)]
pub struct ClusterFaultPlan {
    /// Scheduled events; ties on `at` apply in schedule order.
    pub events: Vec<FabricFault>,
}

impl ClusterFaultPlan {
    /// A seeded rotation of continuous fault churn for soak runs:
    /// repairable outages, brownout waves, and rolling single-tile bank
    /// losses cycle across fabrics roughly every `period` cycles until
    /// `horizon`. Every outage carries a repair duration (no permanent
    /// kills) and tile losses are capped at two per fabric, so the
    /// cluster keeps recovering instead of grinding to a halt.
    #[must_use]
    pub fn churn(fabrics: usize, horizon: u64, period: u64, seed: u64) -> Self {
        let mut events = Vec::new();
        if fabrics == 0 || period == 0 {
            return ClusterFaultPlan { events };
        }
        let mut rng = crate::rng::Rng::new(seed.wrapping_add(0x5EED_C1DE_50A6_2026));
        let half = (period / 2).max(1);
        let mut tile_losses = vec![0u32; fabrics];
        let mut k = 0u64;
        let mut at = period;
        while at < horizon {
            #[allow(clippy::cast_possible_truncation)]
            let fabric = (k % fabrics as u64) as usize;
            let brownout = FabricFaultKind::Brownout {
                factor: 2 + rng.next_u64() % 2,
                duration: half,
            };
            let kind = match k % 3 {
                0 => FabricFaultKind::Outage {
                    duration: Some(half),
                },
                1 => brownout,
                _ if tile_losses[fabric] < 2 => {
                    tile_losses[fabric] += 1;
                    FabricFaultKind::TileLoss { tiles: 1 }
                }
                // This fabric already lost its quota of banks: another
                // brownout wave keeps the churn cadence instead.
                _ => brownout,
            };
            events.push(FabricFault { fabric, at, kind });
            k += 1;
            at += period + rng.next_u64() % half;
        }
        ClusterFaultPlan { events }
    }
}

/// Cluster-level shedding: active while believed-healthy capacity is
/// below `capacity_fraction` of nominal.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShedConfig {
    /// Healthy-capacity fraction below which the router starts shedding
    /// best-effort arrivals; must be in `(0, 1]`.
    pub capacity_fraction: f64,
    /// Also shed non-Hard arrivals whose deadline is already hopeless
    /// at arrival (by the analytic estimate).
    pub shed_late: bool,
}

impl Default for ClusterShedConfig {
    fn default() -> Self {
        ClusterShedConfig {
            capacity_fraction: 0.5,
            shed_late: true,
        }
    }
}

/// Configuration of a cluster serving run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent fabrics (fault domains).
    pub fabrics: usize,
    /// Replica factor: model `m` is home on fabrics `(m + j) mod
    /// fabrics` for `j < replicas`. Must be in `1..=fabrics`.
    pub replicas: usize,
    /// Heartbeat period in fabric cycles; health checks land on
    /// multiples of this.
    pub heartbeat_interval: u64,
    /// Consecutive missed heartbeats before a fabric is declared dead
    /// and drained.
    pub missed_heartbeats: u32,
    /// How many times one request may be re-dispatched (failover,
    /// capacity bounce, or an unrecoverable run past its retry budget)
    /// before it is lost.
    pub failover_budget: u32,
    /// Pin each home model's weights on its replica fabrics before
    /// serving starts (weight cache only). Off by default so an N=1
    /// cluster reproduces the single-fabric report bit-for-bit.
    pub prewarm_replicas: bool,
    /// Per-tenant tiers for cluster shedding and loss accounting;
    /// unlisted tenants are [`Tier::Soft`]. Empty leaves outcome tiers
    /// unset unless overload hardening is on. When both this and the
    /// overload config list tiers, the lists must be equal.
    pub tiers: Vec<(String, Tier)>,
    /// Cluster-level shedding; `None` routes everything.
    pub shed: Option<ClusterShedConfig>,
    /// Scheduled fabric-level faults.
    pub faults: ClusterFaultPlan,
    /// The per-fabric serving config (policy, engine, pool carve,
    /// recovery, per-request fault churn, overload hardening, retry
    /// budget, weight cache). Applies to every fabric. Partitioned and
    /// time-shared scheduling need a single fabric.
    pub base: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            fabrics: 1,
            replicas: 1,
            heartbeat_interval: 50_000,
            missed_heartbeats: 2,
            failover_budget: 3,
            prewarm_replicas: false,
            tiers: Vec::new(),
            shed: None,
            faults: ClusterFaultPlan::default(),
            base: ServeConfig::default(),
        }
    }
}

/// Per-fabric activity counters for the cluster report.
#[derive(Debug, Clone)]
pub struct FabricSummary {
    /// Fabric index.
    pub fabric: usize,
    /// Requests routed here (arrivals plus received re-dispatches).
    pub dispatched: u64,
    /// Requests that completed here.
    pub completed: u64,
    /// Requests drained away by failover detection.
    pub drained: u64,
    /// Tiles this fabric lost (recovery remap plus tile-bank loss).
    pub degraded_tiles: usize,
    /// Outage events that hit this fabric.
    pub outages: u32,
    /// Brownout events that hit this fabric.
    pub brownouts: u32,
    /// Tile-bank-loss events that hit this fabric.
    pub tile_losses: u32,
    /// Whether an outage ever hit this fabric.
    pub killed: bool,
}

/// The cluster-level report: failover accounting wrapped around the
/// merged single-namespace [`ServeReport`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Fabric count the cluster ran with.
    pub fabrics: usize,
    /// Replica factor the router placed by.
    pub replicas: usize,
    /// Heartbeat period, fabric cycles.
    pub heartbeat_interval: u64,
    /// Missed-heartbeat threshold for declaring a fabric dead.
    pub missed_heartbeats: u32,
    /// Scheduled fabric-level fault events.
    pub faults_injected: usize,
    /// Successful re-dispatches (failover, capacity bounce, retry).
    pub failovers: u64,
    /// Requests dropped by the cluster layer or unrecoverable on every
    /// fabric they were offered to (equals the merged report's
    /// unrecoverable count).
    pub requests_lost: u64,
    /// The subset of `requests_lost` from Hard-tier tenants — the
    /// number the failover machinery exists to hold at zero.
    pub hard_requests_lost: u64,
    /// Arrivals shed at the router by cluster-level capacity shedding.
    pub cluster_shed: u64,
    /// Outage-to-detection latency, p50 over all detections.
    pub detect_p50_cycles: u64,
    /// Outage-to-detection latency, worst case.
    pub detect_max_cycles: u64,
    /// p99 end-to-end latency of completed requests that survived at
    /// least one re-dispatch — the failover-recovery tail.
    pub failover_p99_cycles: u64,
    /// Per-fabric activity breakdown, fabric order.
    pub per_fabric: Vec<FabricSummary>,
    /// The merged report over every outcome in the cluster, in the
    /// single-fabric format (pool/degraded/busy summed across fabrics).
    pub serve: ServeReport,
}

impl ClusterReport {
    /// Renders the report as a deterministic JSON document: a
    /// `"cluster"` block followed by the embedded merged `"serve"`
    /// report (byte-identical to [`ServeReport::to_json`] content).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"cluster\": {\n");
        s.push_str(&format!("    \"fabrics\": {},\n", self.fabrics));
        s.push_str(&format!("    \"replicas\": {},\n", self.replicas));
        s.push_str(&format!(
            "    \"heartbeat_interval_cycles\": {},\n",
            self.heartbeat_interval
        ));
        s.push_str(&format!(
            "    \"missed_heartbeat_threshold\": {},\n",
            self.missed_heartbeats
        ));
        s.push_str(&format!(
            "    \"faults_injected\": {},\n",
            self.faults_injected
        ));
        s.push_str(&format!("    \"failovers\": {},\n", self.failovers));
        s.push_str(&format!("    \"requests_lost\": {},\n", self.requests_lost));
        s.push_str(&format!(
            "    \"hard_requests_lost\": {},\n",
            self.hard_requests_lost
        ));
        s.push_str(&format!("    \"cluster_shed\": {},\n", self.cluster_shed));
        s.push_str(&format!(
            "    \"detect_latency_cycles\": {{\"p50\": {}, \"max\": {}}},\n",
            self.detect_p50_cycles, self.detect_max_cycles
        ));
        s.push_str(&format!(
            "    \"failover_latency_cycles\": {{\"p99\": {}}},\n",
            self.failover_p99_cycles
        ));
        s.push_str("    \"per_fabric\": [\n");
        for (i, f) in self.per_fabric.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"fabric\": {}, \"dispatched\": {}, \"completed\": {}, \
                 \"drained\": {}, \"degraded_tiles\": {}, \"outages\": {}, \
                 \"brownouts\": {}, \"tile_losses\": {}, \"killed\": {}}}{}\n",
                f.fabric,
                f.dispatched,
                f.completed,
                f.drained,
                f.degraded_tiles,
                f.outages,
                f.brownouts,
                f.tile_losses,
                f.killed,
                if i + 1 < self.per_fabric.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("    ]\n");
        s.push_str("  },\n");
        s.push_str("  \"serve\": ");
        s.push_str(self.serve.to_json().trim_end());
        s.push_str("\n}\n");
        s
    }
}

/// A request waiting for admission on one fabric: a fresh arrival, a
/// preempted or stranded run carrying checkpoint progress, or a retry or
/// re-dispatch of an unrecoverable run.
#[derive(Debug, Clone)]
struct Pending {
    idx: usize,
    /// Admission tier; a retry moves one tier up.
    tier: Tier,
    /// Failover survivors admit ahead of fresh work within a tier.
    elevated: bool,
    /// Service cycles banked at the last checkpoint of an interrupted run.
    progress: u64,
    /// Fabric cycles burned in earlier interrupted partial runs.
    executed: u64,
    /// Fault-salt attempt counter (retries and re-dispatches draw fresh
    /// seeds).
    attempt: u32,
    retries: u32,
    preemptions: u32,
    /// Re-dispatches consumed so far (bounded by the failover budget).
    failovers: u32,
    /// Earliest cycle admission may consider this entry (retry backoff).
    available_at: u64,
}

/// A request holding tiles on one fabric.
struct Running {
    /// The queue entry it was admitted from.
    queued: Pending,
    admitted: u64,
    done_at: u64,
    tiles: Vec<Tile>,
    ok: bool,
    energy_pj: f64,
    ckpt_log: Vec<u64>,
    /// Brownout stretch in effect at admission (1 = full speed); maps
    /// elapsed wall cycles back to checkpoint-space progress.
    stretch: u64,
    warm: bool,
    load_cycles: u64,
}

/// One fault domain: a full fabric with its own pool carve, queue,
/// degradation history, and weight cache.
struct Fabric {
    mask: Vec<Tile>,
    degraded: Vec<Tile>,
    queue: Vec<Pending>,
    running: Vec<Running>,
    /// Runs stranded by an undetected outage, awaiting the drain.
    stranded: Vec<Pending>,
    cache: Option<WeightCache>,
    /// Ground truth: the fabric is actually alive.
    up: bool,
    /// The router's belief: heartbeats have not yet declared it dead.
    routable: bool,
    down_at: u64,
    detect_at: Option<u64>,
    rejoin_at: Option<u64>,
    slow_factor: u64,
    slow_until: u64,
    /// Overload brownout: when occupancy last rose to the high-water
    /// mark, and whether the streak covers the window at this event.
    above_since: Option<u64>,
    browned: bool,
    dispatched: u64,
    completed: u64,
    drained: u64,
    outages: u32,
    brownouts: u32,
    tile_losses: u32,
    killed: bool,
}

/// The serving loop's state across every fabric.
struct Cluster<'a> {
    registry: &'a ModelRegistry,
    trace: &'a Trace,
    cfg: &'a ClusterConfig,
    pool_size: usize,
    fabrics: Vec<Fabric>,
    /// Tenant → tier assignments: the overload tiers if set, else the
    /// cluster tiers.
    tiers: &'a [(String, Tier)],
    /// Whether outcomes carry a tier label (overload or cluster tiers).
    labels: bool,
    /// Trace tenants, sorted: the round-robin order of
    /// [`Policy::TimeShared`] and the region order of
    /// [`Policy::Partitioned`].
    tenants: Vec<String>,
    /// Partitioned only: each tenant's region size (its largest model),
    /// its current region, and the degraded count it was carved at.
    need: Vec<usize>,
    regions: Vec<Vec<Tile>>,
    carved_at: usize,
    /// Where the next time-shared or partitioned scan starts.
    cursor: usize,
    /// Retries consumed per tenant under the retry budget.
    tenant_retries: BTreeMap<String, u32>,
    /// Registry position per model name, for replica-home routing.
    model_index: BTreeMap<String, usize>,
    faults: Vec<FabricFault>,
    next_fault: usize,
    /// The cycle of the last event processed.
    now: u64,
    /// One memo table shared by every fabric: identical geometry means
    /// identical placements replay identically wherever they land.
    memo: RunMemo,
    outcomes: Vec<RequestOutcome>,
    busy_tile_cycles: u64,
    failovers: u64,
    cluster_shed: u64,
    detect_latencies: Vec<u64>,
    /// Request ids that survived at least one re-dispatch, sorted.
    failover_ids: Vec<u64>,
    /// Set when a re-dispatch landed in some queue mid-pass: the
    /// admission sweep repeats so a bounce to an earlier fabric index
    /// is not stranded until the next event.
    bounced: bool,
    /// Interval telemetry recorder, when the caller asked for one.
    obs: Option<Recorder>,
}

/// Runs a trace against a cluster of identical fabrics and returns the
/// cluster report.
///
/// # Errors
///
/// Everything [`crate::server::serve`] rejects, plus
/// [`ServeError::BadConfig`] for inconsistent cluster parameters: zero
/// fabrics, a replica factor of zero or above the fabric count, a zero
/// heartbeat interval or missed-heartbeat threshold, partitioned or
/// time-shared scheduling over more than one fabric, cluster tiers that
/// disagree with the overload tiers, a fault targeting a fabric outside
/// the cluster, a zero brownout factor or tile-loss count, or a shed
/// fraction outside `(0, 1]`.
pub fn serve_cluster(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ServeError> {
    serve_cluster_impl(registry, trace, cfg, None).map(|(report, _)| report)
}

/// Runs [`serve_cluster`] with an interval telemetry recorder attached
/// and returns the report alongside the JSONL stream (one line per
/// `interval_cycles` of simulated time; see the `maicc-obs` crate for
/// the schema). The stream is byte-identical across engines and
/// stepping thread counts, exactly like the report.
///
/// # Errors
///
/// Everything [`serve_cluster`] rejects.
pub fn serve_cluster_with_obs(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ClusterConfig,
    interval_cycles: u64,
) -> Result<(ClusterReport, String), ServeError> {
    let obs = Recorder::new(interval_cycles, cfg.fabrics.max(1));
    serve_cluster_impl(registry, trace, cfg, Some(obs))
        .map(|(report, jsonl)| (report, jsonl.expect("recorder was attached")))
}

fn serve_cluster_impl(
    registry: &ModelRegistry,
    trace: &Trace,
    cfg: &ClusterConfig,
    obs: Option<Recorder>,
) -> Result<(ClusterReport, Option<String>), ServeError> {
    validate_cluster(cfg)?;
    validate_requests(registry, trace)?;

    let healthy = healthy_order(&cfg.base.initial_failed);
    let pool_size = if cfg.base.pool_tiles == 0 {
        healthy.len()
    } else {
        cfg.base.pool_tiles.min(healthy.len())
    };
    let pool: Vec<Tile> = healthy[..pool_size].to_vec();
    let mask = healthy_order(&pool);
    for r in &trace.requests {
        let entry = registry.get(&r.model).expect("validated above");
        if entry.tiles > pool_size {
            return Err(ServeError::PoolTooSmall {
                reason: format!(
                    "model `{}` needs {} tiles, pool holds {pool_size}",
                    entry.name, entry.tiles
                ),
            });
        }
    }
    let mut tenants: Vec<String> = trace.requests.iter().map(|r| r.tenant.clone()).collect();
    tenants.sort();
    tenants.dedup();
    let need: Vec<usize> = if cfg.base.policy == Policy::Partitioned {
        tenants
            .iter()
            .map(|t| {
                trace
                    .requests
                    .iter()
                    .filter(|r| &r.tenant == t)
                    .map(|r| registry.get(&r.model).expect("validated").tiles)
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    } else {
        Vec::new()
    };
    let total: usize = need.iter().sum();
    if total > pool_size {
        return Err(ServeError::PoolTooSmall {
            reason: format!(
                "static partition needs {total} tiles for {} tenants, pool holds {pool_size}",
                tenants.len()
            ),
        });
    }

    let fabrics: Vec<Fabric> = (0..cfg.fabrics)
        .map(|_| Fabric {
            mask: mask.clone(),
            degraded: Vec::new(),
            queue: Vec::new(),
            running: Vec::new(),
            stranded: Vec::new(),
            cache: cfg.base.weight_cache.clone().map(WeightCache::new),
            up: true,
            routable: true,
            down_at: 0,
            detect_at: None,
            rejoin_at: None,
            slow_factor: 1,
            slow_until: 0,
            above_since: None,
            browned: false,
            dispatched: 0,
            completed: 0,
            drained: 0,
            outages: 0,
            brownouts: 0,
            tile_losses: 0,
            killed: false,
        })
        .collect();
    let model_index: BTreeMap<String, usize> = registry
        .entries()
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.clone(), i))
        .collect();
    let mut faults = cfg.faults.events.clone();
    faults.sort_by_key(|f| f.at); // stable: ties keep schedule order
    let overload_tiers = cfg.base.overload.as_ref().map_or(&[][..], |o| &o.tiers[..]);

    let mut cluster = Cluster {
        registry,
        trace,
        cfg,
        pool_size,
        fabrics,
        tiers: if overload_tiers.is_empty() {
            &cfg.tiers
        } else {
            overload_tiers
        },
        labels: cfg.base.overload.is_some() || !cfg.tiers.is_empty(),
        tenants,
        need,
        regions: Vec::new(),
        carved_at: 0,
        cursor: 0,
        tenant_retries: BTreeMap::new(),
        model_index,
        faults,
        next_fault: 0,
        now: 0,
        memo: BTreeMap::new(),
        outcomes: Vec::new(),
        busy_tile_cycles: 0,
        failovers: 0,
        cluster_shed: 0,
        detect_latencies: Vec::new(),
        failover_ids: Vec::new(),
        bounced: false,
        obs,
    };
    if let Some(regions) = cluster.carve(0) {
        cluster.regions = regions;
    }
    cluster.prewarm();
    cluster.run()?;
    let end = cluster
        .outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .unwrap_or(0);
    let jsonl = cluster.obs.take().map(|o| o.finish(end));
    Ok((cluster.finish(), jsonl))
}

fn validate_cluster(cfg: &ClusterConfig) -> Result<(), ServeError> {
    let bad = |reason: String| Err(ServeError::BadConfig { reason });
    if cfg.fabrics == 0 {
        return bad("cluster needs at least one fabric".into());
    }
    if cfg.replicas == 0 {
        return bad("replica factor must be at least 1".into());
    }
    if cfg.replicas > cfg.fabrics {
        return bad(format!(
            "replica factor {} exceeds fabric count {}",
            cfg.replicas, cfg.fabrics
        ));
    }
    if cfg.heartbeat_interval == 0 {
        return bad("heartbeat interval must be non-zero".into());
    }
    if cfg.missed_heartbeats == 0 {
        return bad("missed-heartbeat threshold must be non-zero".into());
    }
    let policy = cfg.base.policy;
    if matches!(policy, Policy::Partitioned | Policy::TimeShared) {
        let conflict = if cfg.fabrics > 1 {
            Some("the cluster router")
        } else if cfg.base.overload.is_some() {
            Some("overload hardening")
        } else if cfg.base.weight_cache.is_some() {
            Some("the weight cache")
        } else {
            None
        };
        if let Some(what) = conflict {
            return bad(format!(
                "{what} requires fcfs or sjf, not {}",
                policy.label()
            ));
        }
    }
    if let Some(ov) = &cfg.base.overload {
        if !ov.tiers.is_empty() && !cfg.tiers.is_empty() && ov.tiers != cfg.tiers {
            return bad("cluster tiers and overload tiers disagree".into());
        }
    }
    for ev in &cfg.faults.events {
        if ev.fabric >= cfg.fabrics {
            return bad(format!(
                "fault at cycle {} targets fabric {}, cluster has {}",
                ev.at, ev.fabric, cfg.fabrics
            ));
        }
        match ev.kind {
            FabricFaultKind::Brownout { factor: 0, .. } => {
                return bad(format!(
                    "brownout at cycle {} has slow factor 0 (must be >= 1)",
                    ev.at
                ));
            }
            FabricFaultKind::TileLoss { tiles: 0 } => {
                return bad(format!(
                    "tile-loss at cycle {} retires 0 tiles (must be >= 1)",
                    ev.at
                ));
            }
            _ => {}
        }
    }
    if let Some(shed) = &cfg.shed {
        if !(shed.capacity_fraction > 0.0 && shed.capacity_fraction <= 1.0) {
            return bad(format!(
                "cluster shed capacity fraction {} must be in (0, 1]",
                shed.capacity_fraction
            ));
        }
    }
    Ok(())
}

/// The weight cache's placement probe on top of the busy set `base`:
/// [`placement_for`] outside `base` and `extra`.
fn placer(base: &[Tile]) -> impl Fn(usize, &[Tile]) -> Option<Vec<Tile>> + '_ {
    move |need, extra| placement_for(need, &[base, extra].concat())
}

/// Converts the weight cache's counters into the recorder's snapshot
/// form (integer activity counters only).
fn cache_sample(c: &CacheCounters) -> CacheSample {
    CacheSample {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        llc_hits: c.llc_hits,
        prefetch_issued: c.prefetch_issued,
        prefetch_used: c.prefetch_used,
        prefetch_canceled: c.prefetch_canceled,
    }
}

impl<'a> Cluster<'a> {
    /// The tier assigned to a tenant ([`Tier::Soft`] when unlisted).
    fn tier_of(&self, tenant: &str) -> Tier {
        self.tiers
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(Tier::Soft, |(_, tier)| *tier)
    }

    /// Whether fabric `g` is a replica home for registry model `mi`.
    fn is_replica(&self, mi: usize, g: usize) -> bool {
        let n = self.cfg.fabrics;
        (g + n - (mi % n)) % n < self.cfg.replicas
    }

    fn entry(&self, idx: usize) -> &'a ModelEntry {
        let registry: &'a ModelRegistry = self.registry;
        registry
            .get(&self.trace.requests[idx].model)
            .expect("validated")
    }

    /// Pins each home model's weights on its replica fabrics before
    /// serving starts, so failover traffic admits warm where possible.
    fn prewarm(&mut self) {
        if !self.cfg.prewarm_replicas
            || !self
                .cfg
                .base
                .weight_cache
                .as_ref()
                .is_some_and(|c| c.enabled)
        {
            return;
        }
        let registry = self.registry;
        for fi in 0..self.cfg.fabrics {
            let mut used = self.fabrics[fi].mask.clone();
            for (mi, entry) in registry.entries().iter().enumerate() {
                if !self.is_replica(mi, fi) {
                    continue;
                }
                let Some(tiles) = placement_for(entry.tiles, &used) else {
                    continue; // fabric full: later homes stay cold
                };
                let cache = self.fabrics[fi].cache.as_mut().expect("checked");
                cache.on_release(entry, &tiles, 0);
                used.extend_from_slice(&tiles);
            }
        }
    }

    /// The earliest upcoming event: an arrival, a scheduled fault, a
    /// completion on a live fabric, a heartbeat detection or rejoin, or
    /// a retry whose backoff expires.
    fn next_event(&self, next_arrival: Option<u64>) -> Option<u64> {
        let mut t = next_arrival;
        let mut fold = |v: Option<u64>| {
            if let Some(v) = v {
                t = Some(t.map_or(v, |a| a.min(v)));
            }
        };
        fold(self.faults.get(self.next_fault).map(|f| f.at));
        for f in &self.fabrics {
            if f.up {
                fold(f.running.iter().map(|r| r.done_at).min());
            }
            fold(f.detect_at);
            fold(f.rejoin_at);
            let backoff = f.queue.iter().map(|e| e.available_at);
            fold(backoff.filter(|&a| a > self.now).min());
        }
        t
    }

    /// The one serving loop. Phase order at every event:
    /// completions → fabric faults → heartbeat drains → rejoins →
    /// arrivals → brownout sample → per-fabric admission (repeated while
    /// re-dispatches land) → telemetry.
    fn run(&mut self) -> Result<(), ServeError> {
        let mut next = 0usize;
        loop {
            let arrival = self.trace.requests.get(next).map(|r| r.arrival);
            let Some(now) = self.next_event(arrival) else {
                break;
            };
            // Completions and prefetch settlement, fabric order.
            for fi in 0..self.cfg.fabrics {
                if self.fabrics[fi].up {
                    self.complete_at(fi, now);
                    if let Some(c) = self.fabrics[fi].cache.as_mut() {
                        c.settle_prefetch(now);
                    }
                }
            }
            // Scheduled fabric faults.
            while self.next_fault < self.faults.len() && self.faults[self.next_fault].at == now {
                let ev = self.faults[self.next_fault];
                self.next_fault += 1;
                self.apply_fault(ev, now);
            }
            // Heartbeat detections drain dead fabrics.
            for fi in 0..self.cfg.fabrics {
                if self.fabrics[fi].detect_at == Some(now) {
                    self.drain(fi, now);
                }
            }
            // Repaired fabrics rejoin (empty, cache-cold).
            for fi in 0..self.cfg.fabrics {
                if self.fabrics[fi].rejoin_at == Some(now) {
                    let f = &mut self.fabrics[fi];
                    f.rejoin_at = None;
                    f.up = true;
                    f.routable = true;
                    f.detect_at = None;
                    if let Some(o) = self.obs.as_mut() {
                        o.rejoin(now, fi);
                    }
                }
            }
            // Fresh arrivals.
            while next < self.trace.requests.len() && self.trace.requests[next].arrival == now {
                self.route_arrival(next, now);
                next += 1;
            }
            // Brownout occupancy, sampled once per event.
            for fi in 0..self.cfg.fabrics {
                self.sample_brownout(fi, now);
            }
            // Per-fabric admission and prefetch. The sweep repeats while
            // re-dispatches land work on fabrics whose pass already ran.
            loop {
                self.bounced = false;
                for fi in 0..self.cfg.fabrics {
                    if self.fabrics[fi].up {
                        self.admit_pass(fi, now)?;
                        self.try_prefetch(fi, now);
                    }
                }
                if !self.bounced {
                    break;
                }
            }
            if self.obs.is_some() {
                self.obs_sync(now);
            }
            if cfg!(debug_assertions) {
                self.check_invariants(now);
            }
            self.now = now;
        }
        if cfg!(debug_assertions) {
            let mut ids: Vec<u64> = self.outcomes.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0..self.trace.requests.len() as u64).collect();
            assert_eq!(ids, expected, "every request has exactly one outcome");
        }
        Ok(())
    }

    /// Debug-build checks after every event: time never runs backwards,
    /// and on every fabric the running requests hold disjoint tiles
    /// inside the pool and off the retired set, and the weight cache
    /// holds weights only on healthy tiles.
    fn check_invariants(&self, now: u64) {
        assert!(now >= self.now, "time ran backwards: {} -> {now}", self.now);
        for (fi, f) in self.fabrics.iter().enumerate() {
            let mut held: Vec<Tile> = Vec::new();
            for r in &f.running {
                for t in &r.tiles {
                    assert!(
                        !held.contains(t) && !f.mask.contains(t) && !f.degraded.contains(t),
                        "fabric {fi}: tile {t:?} double-booked, outside the pool, or retired"
                    );
                    held.push(*t);
                }
            }
            if let Some(c) = &f.cache {
                let cached = c.residents().iter().flat_map(|s| s.tiles.iter());
                for t in cached.chain(c.prefetch_tiles().unwrap_or(&[])) {
                    assert!(
                        !f.degraded.contains(t),
                        "fabric {fi}: weights on retired {t:?}"
                    );
                }
            }
        }
    }

    /// Feeds the recorder the sampled state at the close of one event:
    /// queue depth per tier summed over every fabric's eligible queued
    /// and stranded work, and the cache counters merged across fabrics.
    fn obs_sync(&mut self, now: u64) {
        let mut depth = [0u64; 3];
        for f in &self.fabrics {
            let waiting = f.queue.iter().filter(|e| e.available_at <= now);
            for e in waiting.chain(f.stranded.iter()) {
                depth[e.tier.rank() as usize] += 1;
            }
        }
        let merged = self.cfg.base.weight_cache.is_some().then(|| {
            let mut total = CacheSample::default();
            for f in &self.fabrics {
                let c = f.cache.as_ref().expect("configured").counters();
                total.add(cache_sample(c));
            }
            total
        });
        if let Some(o) = self.obs.as_mut() {
            o.queue_depth(now, depth[0], depth[1], depth[2]);
            if let Some(total) = merged {
                o.cache_sync(now, total);
            }
        }
    }

    fn apply_fault(&mut self, ev: FabricFault, now: u64) {
        let h = self.cfg.heartbeat_interval;
        match ev.kind {
            FabricFaultKind::Outage { duration } => {
                if let Some(o) = self.obs.as_mut() {
                    o.fault(now, ev.fabric, true);
                }
                let missed = u64::from(self.cfg.missed_heartbeats);
                // The first heartbeat the dead fabric misses is the
                // next multiple of the interval; the router declares it
                // dead after `missed` consecutive silent edges.
                let detect = (now / h + 1).saturating_add(missed - 1).saturating_mul(h);
                let f = &mut self.fabrics[ev.fabric];
                f.outages += 1;
                f.killed = true;
                if f.up {
                    f.up = false;
                    f.down_at = now;
                    f.detect_at = Some(detect);
                    let runs: Vec<Running> = f.running.drain(..).collect();
                    for r in runs {
                        self.strand(ev.fabric, r, now);
                    }
                }
                let f = &mut self.fabrics[ev.fabric];
                if let Some(d) = duration {
                    // Repairs report in on a heartbeat edge, never
                    // before the outage was even detected.
                    let back = now.saturating_add(d).div_ceil(h).saturating_mul(h);
                    let back = back.max(f.detect_at.unwrap_or(back));
                    f.rejoin_at = Some(f.rejoin_at.map_or(back, |r| r.max(back)));
                } else {
                    f.rejoin_at = None;
                }
            }
            FabricFaultKind::Brownout { factor, duration } => {
                if let Some(o) = self.obs.as_mut() {
                    o.fault(now, ev.fabric, false);
                }
                let f = &mut self.fabrics[ev.fabric];
                f.brownouts += 1;
                f.slow_factor = factor.max(1);
                f.slow_until = now.saturating_add(duration);
            }
            FabricFaultKind::TileLoss { tiles } => {
                let f = &mut self.fabrics[ev.fabric];
                f.tile_losses += 1;
                let mut avoid = f.mask.clone();
                avoid.extend_from_slice(&f.degraded);
                let order = healthy_order(&avoid);
                let n = tiles.min(order.len());
                // The bank at the head of the serpentine dies: exactly
                // the tiles placements prefer, so running work is hit.
                let lost: Vec<Tile> = order[..n].to_vec();
                let mut newly = 0u64;
                for t in &lost {
                    if !f.degraded.contains(t) {
                        f.degraded.push(*t);
                        newly += 1;
                    }
                }
                if let Some(o) = self.obs.as_mut() {
                    o.fault(now, ev.fabric, false);
                    o.retired(now, newly);
                }
                f.degraded.sort_unstable_by_key(|t| (t.y, t.x));
                if let Some(c) = f.cache.as_mut() {
                    c.retire_tiles(&f.degraded);
                }
                // Strand overlapping runs; the fabric observes its own
                // bank loss, so re-dispatch is immediate (no heartbeat).
                let hit: Vec<usize> = (0..f.running.len())
                    .filter(|&i| f.running[i].tiles.iter().any(|t| lost.contains(t)))
                    .collect();
                let mut victims = Vec::with_capacity(hit.len());
                for &i in hit.iter().rev() {
                    victims.push(f.running.remove(i));
                }
                victims.sort_by_key(|r| self.trace.requests[r.queued.idx].id);
                for r in victims {
                    self.strand(ev.fabric, r, now);
                }
                let pend: Vec<Pending> = self.fabrics[ev.fabric].stranded.drain(..).collect();
                for e in pend {
                    self.redispatch(e, now);
                }
            }
        }
    }

    /// Cuts a run at `now`: bills the tile-cycles it used and returns the
    /// queue entry it goes back to, resuming from the latest checkpoint
    /// at or before the cut.
    fn interrupt(&mut self, r: Running, now: u64) -> Pending {
        let elapsed = now - r.admitted;
        self.busy_tile_cycles += elapsed * r.tiles.len() as u64;
        let position = r.queued.progress + elapsed / r.stretch;
        let kept = r
            .ckpt_log
            .iter()
            .copied()
            .filter(|&c| c <= position)
            .max()
            .unwrap_or(0);
        Pending {
            progress: kept,
            executed: r.queued.executed + elapsed,
            ..r.queued
        }
    }

    /// Converts a run on a failed fabric into a stranded entry awaiting
    /// re-dispatch.
    fn strand(&mut self, fi: usize, r: Running, now: u64) {
        let e = self.interrupt(r, now);
        self.fabrics[fi].stranded.push(Pending {
            elevated: true,
            ..e
        });
    }

    /// The heartbeat detector declares fabric `fi` dead: its queue and
    /// stranded runs re-dispatch to survivors, its warm state dies.
    fn drain(&mut self, fi: usize, now: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.detection(now, fi);
        }
        let f = &mut self.fabrics[fi];
        f.detect_at = None;
        f.routable = false;
        self.detect_latencies.push(now - f.down_at);
        if let Some(c) = f.cache.as_mut() {
            c.invalidate();
        }
        let mut entries: Vec<Pending> = f.queue.drain(..).collect();
        let mut stranded: Vec<Pending> = f.stranded.drain(..).collect();
        stranded.sort_by_key(|e| self.trace.requests[e.idx].id);
        entries.extend(stranded);
        f.drained += entries.len() as u64;
        for e in entries {
            self.redispatch(e, now);
        }
    }

    /// Picks the surviving fabric a request should land on: a believed-
    /// alive fabric with capacity for the model, preferring replica
    /// homes, then full-speed fabrics, then the shortest backlog, with
    /// the fabric index as the deterministic tiebreak.
    fn pick_target(&self, entry: &ModelEntry, now: u64) -> Option<usize> {
        let mi = self.model_index.get(&entry.name).copied().unwrap_or(0);
        (0..self.cfg.fabrics)
            .filter(|&g| {
                let f = &self.fabrics[g];
                f.routable && entry.tiles <= self.pool_size - f.degraded.len()
            })
            .min_by_key(|&g| {
                let f = &self.fabrics[g];
                let not_replica = u8::from(!self.is_replica(mi, g));
                let slow = u8::from(f.slow_factor > 1 && now < f.slow_until);
                (not_replica, slow, f.queue.len() + f.running.len(), g)
            })
    }

    /// Re-dispatches an entry its fabric cannot serve (drained, stranded,
    /// bounced, or unrecoverable past its retry budget) to a surviving
    /// fabric at elevated priority, or records it lost when the failover
    /// budget is spent or nothing can host it.
    fn redispatch(&mut self, mut e: Pending, now: u64) {
        if e.failovers >= self.cfg.failover_budget {
            self.record_drop(&e, now, false);
            return;
        }
        let Some(gi) = self.pick_target(self.entry(e.idx), now) else {
            self.record_drop(&e, now, false);
            return;
        };
        let id = self.trace.requests[e.idx].id;
        e.elevated = true;
        e.failovers += 1;
        e.retries += 1;
        e.attempt += 1;
        self.failovers += 1;
        if let Some(o) = self.obs.as_mut() {
            o.failover(now);
        }
        if let Err(pos) = self.failover_ids.binary_search(&id) {
            self.failover_ids.insert(pos, id);
        }
        let g = &mut self.fabrics[gi];
        g.dispatched += 1;
        g.queue.push(e);
        self.bounced = true;
    }

    /// Records a request that leaves without a result: shed by admission
    /// control, or lost for good.
    fn record_drop(&mut self, e: &Pending, now: u64, shed: bool) {
        if let Some(o) = self.obs.as_mut() {
            if shed {
                o.shed(now);
            } else {
                o.lost(now);
            }
        }
        let req = &self.trace.requests[e.idx];
        let latency = now - req.arrival;
        self.outcomes.push(RequestOutcome {
            id: req.id,
            tenant: req.tenant.clone(),
            model: req.model.clone(),
            arrival: req.arrival,
            admitted: now,
            finished: now,
            deadline: req.deadline,
            tier: self.labels.then_some(e.tier),
            ok: false,
            dropped: true,
            shed,
            service_cycles: e.executed,
            queue_cycles: latency.saturating_sub(e.executed),
            latency_cycles: latency,
            energy_pj: 0.0,
            preemptions: e.preemptions,
            retries: e.retries,
            warm: None,
            load_cycles: 0,
        });
    }

    /// Routes one fresh arrival: cluster-level shedding, then target
    /// selection, then the overload queue cap of the target fabric.
    fn route_arrival(&mut self, idx: usize, now: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.arrival(now);
        }
        let req = &self.trace.requests[idx];
        let fresh = Pending {
            idx,
            tier: self.tier_of(&req.tenant),
            elevated: false,
            progress: 0,
            executed: 0,
            attempt: 0,
            retries: 0,
            preemptions: 0,
            failovers: 0,
            available_at: now,
        };
        let entry = self.entry(idx);
        if let Some(shed) = &self.cfg.shed {
            let nominal = self.pool_size * self.cfg.fabrics;
            let healthy: usize = self
                .fabrics
                .iter()
                .filter(|f| f.routable)
                .map(|f| self.pool_size - f.degraded.len())
                .sum();
            #[allow(clippy::cast_precision_loss)]
            let browned = (healthy as f64) < shed.capacity_fraction * nominal as f64;
            let hopeless = shed.shed_late
                && fresh.tier != Tier::Hard
                && req.deadline.is_some_and(|d| now + entry.est_cycles > d);
            if browned && (fresh.tier == Tier::BestEffort || hopeless) {
                self.cluster_shed += 1;
                self.record_drop(&fresh, now, true);
                return;
            }
        }
        let Some(gi) = self.pick_target(entry, now) else {
            self.record_drop(&fresh, now, false);
            return;
        };
        let cap = self.cfg.base.overload.as_ref().map_or(0, |o| o.queue_cap);
        let g = &mut self.fabrics[gi];
        if let Some(c) = g.cache.as_mut() {
            c.record_arrival(&req.model, now);
        }
        g.dispatched += 1;
        let waiting =
            |e: &&Pending| e.available_at <= now && self.trace.requests[e.idx].tenant == req.tenant;
        if cap > 0 && g.queue.iter().filter(waiting).count() >= cap {
            self.record_drop(&fresh, now, true);
        } else {
            g.queue.push(fresh);
        }
    }

    /// The avoid set for a fresh placement on fabric `fi`: everything
    /// outside the pool, every retired tile, every tile a run holds.
    fn avoid_now(&self, fi: usize) -> Vec<Tile> {
        let f = &self.fabrics[fi];
        let mut avoid = f.mask.clone();
        avoid.extend_from_slice(&f.degraded);
        for r in &f.running {
            avoid.extend_from_slice(&r.tiles);
        }
        avoid
    }

    /// The analytic service estimate on fabric `fi`: the pipeline-model
    /// cycles plus, with the weight cache, the load this model would pay
    /// right now.
    fn est_for(&self, fi: usize, entry: &ModelEntry) -> u64 {
        let load = self.fabrics[fi]
            .cache
            .as_ref()
            .map_or(0, |c| c.load_estimate(entry));
        entry.est_cycles.saturating_add(load)
    }

    /// The admission order of a queued entry: overload tier, failover
    /// survivors first, the SJF estimate of what remains, then arrival
    /// and id.
    fn admission_key(&self, fi: usize, e: &Pending) -> (u8, u8, u64, u64, u64) {
        let req = &self.trace.requests[e.idx];
        let rank = if self.cfg.base.overload.is_some() {
            e.tier.rank()
        } else {
            0
        };
        let est = match self.cfg.base.policy {
            Policy::Sjf => self
                .est_for(fi, self.entry(e.idx))
                .saturating_sub(e.progress),
            _ => 0,
        };
        (rank, u8::from(!e.elevated), est, req.arrival, req.id)
    }

    /// The first eligible entry in admission order among those `keep`
    /// accepts.
    fn head(&self, fi: usize, now: u64, keep: impl Fn(&Pending) -> bool) -> Option<usize> {
        let q = &self.fabrics[fi].queue;
        (0..q.len())
            .filter(|&p| q[p].available_at <= now && keep(&q[p]))
            .min_by_key(|&p| self.admission_key(fi, &q[p]))
    }

    /// The entry fabric `fi` should admit next and the avoid set its run
    /// is confined by. FCFS and SJF take the head of the admission order
    /// on the free pool. Time-sharing grants the idle pool round-robin
    /// across tenants. Partitioning takes each idle tenant's head onto
    /// that tenant's region, skipping heads that do not fit while other
    /// work runs.
    fn pick(&mut self, fi: usize, now: u64) -> Option<(usize, Vec<Tile>)> {
        let policy = self.cfg.base.policy;
        if matches!(policy, Policy::Fcfs | Policy::Sjf) {
            return self
                .head(fi, now, |_| true)
                .map(|p| (p, self.avoid_now(fi)));
        }
        let f = &self.fabrics[fi];
        let idle = f.running.is_empty();
        if policy == Policy::TimeShared && !idle {
            return None;
        }
        let n = self.tenants.len();
        for step in 0..n {
            let ti = (self.cursor + step) % n;
            let tenant = &self.tenants[ti];
            let of_tenant = |e: &Pending| &self.trace.requests[e.idx].tenant == tenant;
            if policy == Policy::Partitioned && f.running.iter().any(|r| of_tenant(&r.queued)) {
                continue;
            }
            let Some(pos) = self.head(fi, now, of_tenant) else {
                continue;
            };
            let avoid = if policy == Policy::Partitioned {
                let region = &self.regions[ti];
                zigzag_order()
                    .into_iter()
                    .filter(|t| !region.contains(t) || f.degraded.contains(t))
                    .collect()
            } else {
                self.avoid_now(fi)
            };
            if !idle && placement_for(self.entry(f.queue[pos].idx).tiles, &avoid).is_none() {
                continue; // the region shrank; wait for a re-carve
            }
            self.cursor = (ti + 1) % n;
            return Some((pos, avoid));
        }
        None
    }

    /// Carves consecutive per-tenant regions from the free healthy
    /// serpentine of fabric `fi`, or `None` when it cannot hold them all.
    fn carve(&self, fi: usize) -> Option<Vec<Vec<Tile>>> {
        let order = healthy_order(&self.avoid_now(fi));
        let total: usize = self.need.iter().sum();
        if self.need.is_empty() || order.len() < total {
            return None;
        }
        let mut offset = 0;
        let regions = self
            .need
            .iter()
            .map(|&n| {
                offset += n;
                order[offset - n..offset].to_vec()
            })
            .collect();
        Some(regions)
    }

    /// Samples fabric `fi`'s occupancy for the overload brownout: the
    /// streak starts when occupancy reaches the high-water mark, brownout
    /// engages once the streak covers the window, and both reset the
    /// first sample below the mark.
    fn sample_brownout(&mut self, fi: usize, now: u64) {
        let Some(b) = self.cfg.base.overload.as_ref().and_then(|o| o.brownout) else {
            return;
        };
        let f = &mut self.fabrics[fi];
        if !f.up {
            return;
        }
        let pool_now = self.pool_size.saturating_sub(f.degraded.len());
        let occupied: usize = f.running.iter().map(|r| r.tiles.len()).sum();
        #[allow(clippy::cast_precision_loss)]
        let high = pool_now > 0 && occupied as f64 / pool_now as f64 >= b.high_water;
        if high {
            f.above_since.get_or_insert(now);
        } else {
            f.above_since = None;
        }
        f.browned = f.above_since.is_some_and(|s| now - s >= b.window_cycles);
    }

    /// Whether brownout caps this best-effort admission on fabric `fi`:
    /// aggregate best-effort occupancy may not exceed the configured
    /// fraction of the healthy pool.
    fn browned_out(&self, fi: usize, e: &Pending, entry: &ModelEntry) -> bool {
        let f = &self.fabrics[fi];
        let Some(b) = self.cfg.base.overload.as_ref().and_then(|o| o.brownout) else {
            return false;
        };
        if !f.browned || e.tier != Tier::BestEffort {
            return false;
        }
        let be_occupied: usize = f
            .running
            .iter()
            .filter(|r| r.queued.tier == Tier::BestEffort)
            .map(|r| r.tiles.len())
            .sum();
        let pool_now = self.pool_size.saturating_sub(f.degraded.len());
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let cap = (pool_now as f64 * b.best_effort_fraction).floor() as usize;
        be_occupied + entry.tiles > cap
    }

    /// If the admission head is a blocked `Hard` request, evicts running
    /// `BestEffort` work (most recently admitted first) until the head
    /// fits — but only when eviction can actually make it fit. A victim
    /// resumes from the latest sink-progress checkpoint of its current
    /// run at or before the preemption point (restarting from zero when
    /// no recovery policy armed the checkpoint machinery), and re-enters
    /// the queue with its original seniority.
    fn preempt_for_hard(&mut self, fi: usize, now: u64) {
        let Some(pos) = self.head(fi, now, |_| true) else {
            return;
        };
        let f = &self.fabrics[fi];
        if f.queue[pos].tier != Tier::Hard {
            return;
        }
        let entry = self.entry(f.queue[pos].idx);
        if placement_for(entry.tiles, &self.avoid_now(fi)).is_some() {
            return; // fits without violence
        }
        // Pointless-eviction guard: would it fit even with every
        // best-effort runner gone?
        let mut avoid_no_be = f.mask.clone();
        avoid_no_be.extend_from_slice(&f.degraded);
        for r in f
            .running
            .iter()
            .filter(|r| r.queued.tier != Tier::BestEffort)
        {
            avoid_no_be.extend_from_slice(&r.tiles);
        }
        if placement_for(entry.tiles, &avoid_no_be).is_none() {
            return;
        }
        while placement_for(entry.tiles, &self.avoid_now(fi)).is_none() {
            let running = &self.fabrics[fi].running;
            let Some(vi) = (0..running.len())
                .filter(|&i| running[i].queued.tier == Tier::BestEffort)
                .max_by_key(|&i| {
                    (
                        running[i].admitted,
                        self.trace.requests[running[i].queued.idx].id,
                    )
                })
            else {
                break;
            };
            let v = self.fabrics[fi].running.remove(vi);
            let victim_entry = self.entry(v.queued.idx);
            if let Some(cache) = self.fabrics[fi].cache.as_mut() {
                // The victim's weights stay on the vacated tiles so a
                // resume there is warm; the preemptor's placement evicts
                // the set only if it actually overlaps those tiles.
                cache.on_release(victim_entry, &v.tiles, now);
            }
            let e = self.interrupt(v, now);
            self.fabrics[fi].queue.push(Pending {
                preemptions: e.preemptions + 1,
                available_at: now,
                ..e
            });
        }
    }

    /// Lets fabric `fi`'s cache stream a predicted model into free tiles.
    fn try_prefetch(&mut self, fi: usize, now: u64) {
        if self.fabrics[fi].cache.is_none() {
            return;
        }
        let base = self.avoid_now(fi);
        let registry = self.registry;
        let f = &mut self.fabrics[fi];
        let running: Vec<&str> = f
            .running
            .iter()
            .map(|r| self.trace.requests[r.queued.idx].model.as_str())
            .collect();
        let cache = f.cache.as_mut().expect("checked above");
        cache.maybe_prefetch(now, &running, registry, placer(&base));
    }

    /// Fabric `fi`'s admission step: re-carve a partition the fabric's
    /// losses invalidated, let a blocked Hard head preempt, admit picks
    /// while they fit (the head blocks the pass otherwise, and brownout
    /// caps best-effort grants on a busy fabric), then shed queued work
    /// whose deadline is already hopeless. A pick that cannot be placed
    /// on an idle fabric never will be: it goes back to the router.
    fn admit_pass(&mut self, fi: usize, now: u64) -> Result<(), ServeError> {
        if self.cfg.base.policy == Policy::Partitioned {
            self.cursor = 0;
            if self.fabrics[fi].degraded.len() > self.carved_at {
                if let Some(regions) = self.carve(fi) {
                    self.regions = regions;
                    self.carved_at = self.fabrics[fi].degraded.len();
                }
            }
        }
        let overload = self.cfg.base.overload.clone();
        if overload.as_ref().is_some_and(|o| o.preempt) {
            self.preempt_for_hard(fi, now);
        }
        while let Some((pos, avoid)) = self.pick(fi, now) {
            let idle = self.fabrics[fi].running.is_empty();
            let e = &self.fabrics[fi].queue[pos];
            let entry = self.entry(e.idx);
            // With the weight cache the fit probe is the cache's pure
            // admission plan, which exists exactly when the model fits.
            let plan = (self.fabrics[fi].cache.as_ref())
                .map(|c| c.plan(entry, now, &avoid, placer(&avoid)));
            let fits = match &plan {
                Some(plan) => plan.is_some(),
                None => placement_for(entry.tiles, &avoid).is_some(),
            };
            if !fits {
                if !idle {
                    break;
                }
                let e = self.fabrics[fi].queue.remove(pos);
                self.redispatch(e, now);
                continue;
            }
            if !idle && self.browned_out(fi, e, entry) {
                break;
            }
            let e = self.fabrics[fi].queue.remove(pos);
            self.admit(fi, e, now, avoid, plan.flatten())?;
        }
        // Deadline-aware shedding of the remaining backlog. Retries and
        // re-dispatches are exempt — they exist to deliver a result,
        // late or not.
        if overload.is_some_and(|o| o.shed_late) {
            let mut i = 0;
            while i < self.fabrics[fi].queue.len() {
                let e = &self.fabrics[fi].queue[i];
                let req = &self.trace.requests[e.idx];
                let est = self.est_for(fi, self.entry(e.idx));
                let hopeless = e.attempt == 0
                    && req
                        .deadline
                        .is_some_and(|d| now + est.saturating_sub(e.progress) > d);
                if hopeless {
                    let e = self.fabrics[fi].queue.remove(i);
                    self.record_drop(&e, now, true);
                } else {
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Admits one entry on fabric `fi` through [`run_request`], confined
    /// to the tiles outside `avoid` (or, with the weight cache, to
    /// exactly the tiles of the cache's `plan`, which it commits), and
    /// folds casualties into the fabric's pool. The run completes after the cycles its carried
    /// checkpoint progress still owes plus any weight load, stretched by
    /// a fabric brownout in effect at admission. An unrecoverable run
    /// retries on this fabric while the retry budget lasts, then goes
    /// back to the router.
    fn admit(
        &mut self,
        fi: usize,
        e: Pending,
        now: u64,
        avoid: Vec<Tile>,
        plan: Option<AdmissionPlan>,
    ) -> Result<(), ServeError> {
        let entry = self.entry(e.idx);
        let (avoid, warm, load) = match plan {
            Some(plan) => {
                let cache = self.fabrics[fi]
                    .cache
                    .as_mut()
                    .expect("a plan needs a cache");
                cache.commit(&plan, entry, now);
                (healthy_order(&plan.tiles), plan.warm, plan.load)
            }
            None => (avoid, false, maicc_mem::tier::LoadCost::default()),
        };
        let tiles =
            placement_for(entry.tiles, &avoid).expect("caller checked fit before admitting");
        let req_id = self.trace.requests[e.idx].id;
        let out = match run_request(
            &self.cfg.base,
            &mut self.memo,
            entry,
            &avoid,
            req_id,
            e.attempt,
            warm,
        ) {
            Ok(out) => out,
            Err(ServeError::Sim(_)) => {
                self.unrecoverable(fi, e, now);
                return Ok(());
            }
            Err(err) => return Err(err),
        };
        let f = &mut self.fabrics[fi];
        let mut newly_degraded = 0u64;
        for t in out.newly_retired {
            if !f.degraded.contains(&t) {
                f.degraded.push(t);
                newly_degraded += 1;
            }
        }
        f.degraded.sort_unstable_by_key(|t| (t.y, t.x));
        if let Some(c) = f.cache.as_mut() {
            c.retire_tiles(&f.degraded);
        }
        // Remap may have shifted the run onto other tiles: recompute
        // occupancy from the final avoid set. If retirement shrank the
        // free set below the footprint, keep the grant minus casualties
        // so occupancy never counts a retired tile.
        let occupied = if f.degraded.is_empty() {
            tiles
        } else {
            let mut post = avoid;
            post.extend(f.degraded.iter().copied());
            placement_for(entry.tiles, &post).unwrap_or_else(|| {
                tiles
                    .into_iter()
                    .filter(|t| !f.degraded.contains(t))
                    .collect()
            })
        };
        let compute = if e.progress == 0 {
            out.cycles
        } else {
            out.cycles.saturating_sub(e.progress).max(1)
        };
        let stretch = if f.slow_factor > 1 && now < f.slow_until {
            f.slow_factor
        } else {
            1
        };
        let total = (compute + load.cycles).saturating_mul(stretch);
        f.running.push(Running {
            queued: e,
            admitted: now,
            done_at: now + total,
            tiles: occupied,
            ok: out.ok,
            energy_pj: out.energy_pj + load.energy_pj,
            ckpt_log: out.ckpt_log,
            stretch,
            warm,
            load_cycles: load.cycles,
        });
        if let Some(o) = self.obs.as_mut() {
            o.admission(now, out.ecc_corrected, out.noc_retransmits, newly_degraded);
        }
        Ok(())
    }

    /// An admitted run died past every replay and remap. It re-enters
    /// this fabric's queue after a bounded backoff, one tier up, while
    /// the retry budget lasts; after that it goes back to the router
    /// under the failover budget.
    fn unrecoverable(&mut self, fi: usize, e: Pending, now: u64) {
        let e = Pending { progress: 0, ..e };
        if let Some(budget) = self.cfg.base.retry_budget {
            let tenant = &self.trace.requests[e.idx].tenant;
            let used = self.tenant_retries.get(tenant).copied().unwrap_or(0);
            if e.attempt < budget.max_retries_per_request && used < PER_TENANT_RETRIES {
                self.tenant_retries.insert(tenant.clone(), used + 1);
                self.fabrics[fi].queue.push(Pending {
                    tier: e.tier.elevated(),
                    attempt: e.attempt + 1,
                    retries: e.retries + 1,
                    available_at: now + budget.backoff_cycles(e.attempt),
                    ..e
                });
                return;
            }
        }
        self.redispatch(e, now);
    }

    /// Retires every run on fabric `fi` finishing exactly at `now` (in
    /// request-id order) and records its outcome.
    fn complete_at(&mut self, fi: usize, now: u64) {
        let f = &mut self.fabrics[fi];
        let mut finished: Vec<Running> = Vec::new();
        let mut i = 0;
        while i < f.running.len() {
            if f.running[i].done_at == now {
                finished.push(f.running.remove(i));
            } else {
                i += 1;
            }
        }
        finished.sort_by_key(|run| self.trace.requests[run.queued.idx].id);
        for run in finished {
            let req = &self.trace.requests[run.queued.idx];
            let entry = self.entry(run.queued.idx);
            let f = &mut self.fabrics[fi];
            if let Some(cache) = f.cache.as_mut() {
                // The completed run's weights stay on its tiles: a later
                // request for the same model admits warm.
                cache.on_release(entry, &run.tiles, now);
            }
            f.completed += 1;
            let segment = run.done_at - run.admitted;
            self.busy_tile_cycles += segment * run.tiles.len() as u64;
            let service = run.queued.executed + segment;
            let latency = now - req.arrival;
            self.outcomes.push(RequestOutcome {
                id: req.id,
                tenant: req.tenant.clone(),
                model: req.model.clone(),
                arrival: req.arrival,
                admitted: run.admitted,
                finished: now,
                deadline: req.deadline,
                tier: self.labels.then_some(run.queued.tier),
                ok: run.ok,
                dropped: false,
                shed: false,
                service_cycles: service,
                queue_cycles: latency.saturating_sub(service),
                latency_cycles: latency,
                energy_pj: run.energy_pj,
                preemptions: run.queued.preemptions,
                retries: run.queued.retries,
                warm: f.cache.is_some().then_some(run.warm),
                load_cycles: run.load_cycles,
            });
            if let Some(o) = self.obs.as_mut() {
                o.completion(now, latency);
            }
        }
    }

    /// Builds the final cluster report: failover accounting plus the
    /// merged serve report over every outcome.
    fn finish(self) -> ClusterReport {
        let requests_lost = self.outcomes.iter().filter(|o| o.unrecoverable()).count() as u64;
        let hard_requests_lost = self
            .outcomes
            .iter()
            .filter(|o| o.unrecoverable() && o.tier == Some(Tier::Hard))
            .count() as u64;
        let mut detect = self.detect_latencies.clone();
        detect.sort_unstable();
        let mut failover_lat: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| !o.dropped && self.failover_ids.binary_search(&o.id).is_ok())
            .map(|o| o.latency_cycles)
            .collect();
        failover_lat.sort_unstable();

        let cache_report = self.cfg.base.weight_cache.is_some().then(|| {
            let mut total = CacheCounters::default();
            for f in &self.fabrics {
                let c = f.cache.as_ref().expect("configured").counters();
                total.hits += c.hits;
                total.misses += c.misses;
                total.evictions += c.evictions;
                total.llc_hits += c.llc_hits;
                total.prefetch_issued += c.prefetch_issued;
                total.prefetch_used += c.prefetch_used;
                total.prefetch_canceled += c.prefetch_canceled;
                total.prefetch_pj += c.prefetch_pj;
            }
            CacheReport::build(&total, &self.outcomes)
        });
        let per_fabric: Vec<FabricSummary> = self
            .fabrics
            .iter()
            .enumerate()
            .map(|(i, f)| FabricSummary {
                fabric: i,
                dispatched: f.dispatched,
                completed: f.completed,
                drained: f.drained,
                degraded_tiles: f.degraded.len(),
                outages: f.outages,
                brownouts: f.brownouts,
                tile_losses: f.tile_losses,
                killed: f.killed,
            })
            .collect();
        let degraded_total: usize = self.fabrics.iter().map(|f| f.degraded.len()).sum();
        let mut serve = ServeReport::from_outcomes(
            self.cfg.base.policy.label(),
            self.pool_size * self.cfg.fabrics,
            degraded_total,
            self.busy_tile_cycles,
            self.outcomes,
        );
        serve.cache = cache_report;
        ClusterReport {
            fabrics: self.cfg.fabrics,
            replicas: self.cfg.replicas,
            heartbeat_interval: self.cfg.heartbeat_interval,
            missed_heartbeats: self.cfg.missed_heartbeats,
            faults_injected: self.cfg.faults.events.len(),
            failovers: self.failovers,
            requests_lost,
            hard_requests_lost,
            cluster_shed: self.cluster_shed,
            detect_p50_cycles: percentile(&detect, 50.0),
            detect_max_cycles: detect.last().copied().unwrap_or(0),
            failover_p99_cycles: percentile(&failover_lat, 99.0),
            per_fabric,
            serve,
        }
    }
}
