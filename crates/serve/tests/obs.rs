//! Soak-run observability tests: the interval telemetry stream is a
//! pure function of the workload (byte-identical across engines and
//! thread counts, churn included), its per-interval counters sum
//! exactly to the final report totals, degenerate horizons still emit a
//! well-formed window, and the quick-soak stream is pinned to a
//! committed fixture.

use maicc_serve::cache::WeightCacheConfig;
use maicc_serve::cluster::{
    serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan, ClusterShedConfig,
};
use maicc_serve::json;
use maicc_serve::overload::Tier;
use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve_with_obs, Policy, ServeConfig};
use maicc_serve::trace::Trace;
use maicc_sim::stream::Engine;
use proptest::prelude::*;

/// The `maicc soak --quick` shape: 4 fabrics with 2-way replicas, a
/// diurnal keyword-headed Zipf day, and seeded fault churn.
fn soak_cfg(engine: Engine, horizon: u64, seed: u64) -> ClusterConfig {
    ClusterConfig {
        fabrics: 4,
        replicas: 2,
        heartbeat_interval: 20_000,
        prewarm_replicas: true,
        tiers: vec![
            ("vision".into(), Tier::Hard),
            ("assist".into(), Tier::Soft),
            ("keyword".into(), Tier::BestEffort),
        ],
        shed: Some(ClusterShedConfig::default()),
        faults: ClusterFaultPlan::churn(4, horizon, 150_000, seed),
        base: ServeConfig {
            policy: Policy::Sjf,
            engine,
            pool_tiles: 16,
            weight_cache: Some(WeightCacheConfig::default()),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

fn soak_trace(horizon: u64, seed: u64) -> Trace {
    let (_, loads) = three_model_mix();
    let mut ranked = loads;
    ranked.reverse(); // small (keyword) first — the Zipf head
    Trace::diurnal(&ranked, horizon, 12_000, 1.1, 200_000, seed)
}

/// Reads the integer at `path`, keys joined by dots (`cache.hits`), on
/// one JSONL line.
fn field(line: &str, path: &str) -> u64 {
    let doc = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    path.split('.')
        .try_fold(&doc, |v, key| v.get(key))
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("no integer at {path} in {line}"))
}

fn sum(jsonl: &str, key: &str) -> u64 {
    jsonl.lines().map(|l| field(l, key)).sum()
}

// ----------------------------------------------------------- determinism

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// The telemetry stream of a churning cluster run is byte-identical
    /// across both engines — the same bar the reports meet, now holding
    /// per-interval.
    #[test]
    fn prop_soak_jsonl_invariant_across_engines_and_threads(
        seed in 0u64..10_000,
    ) {
        let horizon = 300_000;
        let (registry, _) = three_model_mix();
        let trace = soak_trace(horizon, seed);
        let mut baseline: Option<String> = None;
        for engine in [Engine::EventDriven, Engine::CycleAccurate] {
            let cfg = soak_cfg(engine, horizon, seed);
            let (_, jsonl) =
                serve_cluster_with_obs(&registry, &trace, &cfg, 50_000).unwrap();
            match &baseline {
                None => baseline = Some(jsonl),
                Some(b) => prop_assert_eq!(
                    b, &jsonl,
                    "soak stream diverged under {:?}",
                    engine
                ),
            }
        }
    }
}

// -------------------------------------------------------- reconciliation

/// Every per-interval counter in the cluster soak stream sums exactly
/// to the corresponding final `ClusterReport` total — the stream is the
/// report, sliced by time, with nothing double-counted or dropped.
#[test]
fn soak_interval_counters_sum_to_cluster_report_totals() {
    let horizon = 600_000;
    let (registry, _) = three_model_mix();
    let trace = soak_trace(horizon, 42);
    let cfg = soak_cfg(Engine::EventDriven, horizon, 42);
    let (report, jsonl) =
        serve_cluster_with_obs(&registry, &trace, &cfg, 50_000).unwrap();
    assert!(report.failovers > 0, "churn produced no failovers");
    assert_eq!(sum(&jsonl, "arrivals"), report.serve.requests);
    assert_eq!(sum(&jsonl, "completions"), report.serve.completed);
    assert_eq!(sum(&jsonl, "sheds"), report.cluster_shed);
    assert_eq!(sum(&jsonl, "lost"), report.requests_lost);
    assert_eq!(sum(&jsonl, "failovers"), report.failovers);
    let cache = report.serve.cache.as_ref().expect("soak runs cached");
    assert_eq!(sum(&jsonl, "cache.hits"), cache.hits);
    assert_eq!(sum(&jsonl, "cache.misses"), cache.misses);
    assert_eq!(sum(&jsonl, "cache.evictions"), cache.evictions);
    assert_eq!(sum(&jsonl, "cache.llc_hits"), cache.llc_hits);
    assert_eq!(sum(&jsonl, "cache.prefetch_issued"), cache.prefetch_issued);
    // Tile retirements across the stream match the per-fabric totals.
    let degraded: u64 = report
        .per_fabric
        .iter()
        .map(|f| f.degraded_tiles as u64)
        .sum();
    assert_eq!(sum(&jsonl, "retired_tiles"), degraded);
}

/// The single-fabric stream reconciles with its `ServeReport` the same
/// way under every policy, including the ECC/NoC counters the admission
/// hook attributes and (for FCFS/SJF) the weight cache.
#[test]
fn single_fabric_interval_counters_sum_to_serve_report_totals() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    for policy in Policy::ALL {
        let cached = matches!(policy, Policy::Fcfs | Policy::Sjf);
        let cfg = ServeConfig {
            policy,
            pool_tiles: if policy == Policy::Partitioned { 16 } else { 8 },
            weight_cache: cached.then(WeightCacheConfig::default),
            ..ServeConfig::default()
        };
        let (report, jsonl) = serve_with_obs(&registry, &trace, &cfg, 60_000).unwrap();
        assert_eq!(sum(&jsonl, "arrivals"), report.requests, "{policy:?}");
        assert_eq!(sum(&jsonl, "admissions"), report.completed, "{policy:?}");
        assert_eq!(sum(&jsonl, "completions"), report.completed, "{policy:?}");
        assert_eq!(sum(&jsonl, "sheds"), report.shed, "{policy:?}");
        assert_eq!(sum(&jsonl, "lost"), report.unrecoverable, "{policy:?}");
        if cached {
            let cache = report.cache.as_ref().expect("run was cached");
            assert_eq!(sum(&jsonl, "cache.hits"), cache.hits, "{policy:?}");
            assert_eq!(sum(&jsonl, "cache.misses"), cache.misses, "{policy:?}");
        }
        // The stream does not perturb the report.
        let plain = maicc_serve::server::serve(&registry, &trace, &cfg).unwrap();
        assert_eq!(plain.to_json(), report.to_json(), "{policy:?}");
        // Windows tile the run: consecutive, starting at zero, each one
        // interval wide.
        for (k, line) in jsonl.lines().enumerate() {
            assert_eq!(field(line, "interval"), k as u64);
            assert_eq!(field(line, "start"), k as u64 * 60_000);
            assert_eq!(field(line, "end"), (k as u64 + 1) * 60_000);
        }
    }
}

// ------------------------------------------------------------ edge cases

/// A horizon shorter than one interval still yields exactly one
/// well-formed window holding the whole run.
#[test]
fn horizon_shorter_than_one_interval_yields_a_single_window() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 50_000, 7);
    let cfg = ServeConfig {
        pool_tiles: 16,
        ..ServeConfig::default()
    };
    let (report, jsonl) =
        serve_with_obs(&registry, &trace, &cfg, 10_000_000).unwrap();
    assert_eq!(jsonl.lines().count(), 1, "expected one window: {jsonl}");
    let line = jsonl.lines().next().unwrap();
    assert_eq!(field(line, "interval"), 0);
    assert_eq!(field(line, "start"), 0);
    assert_eq!(field(line, "arrivals"), report.requests);
    assert_eq!(field(line, "completions"), report.completed);
}

/// An empty trace still emits one (all-zero) window rather than an
/// empty stream — downstream analyzers never see zero lines.
#[test]
fn empty_trace_emits_one_zero_window() {
    let (registry, _) = three_model_mix();
    let trace = Trace::poisson(&[], 100_000, 7);
    let cfg = ServeConfig::default();
    let (report, jsonl) = serve_with_obs(&registry, &trace, &cfg, 50_000).unwrap();
    assert_eq!(report.requests, 0);
    assert_eq!(jsonl.lines().count(), 1);
    let line = jsonl.lines().next().unwrap();
    assert_eq!(field(line, "arrivals"), 0);
    assert_eq!(field(line, "completions"), 0);
}

// --------------------------------------------------------------- fixture

/// The quick-soak stream is pinned byte-for-byte to a committed
/// fixture, so any change to the recorder's schema, the diurnal
/// generator, the churn plan, or the cluster loop shows up as a
/// reviewable fixture diff (`tests/pinned.rs` regenerates it). CI feeds
/// the same fixture to `soak_diff` against a fresh run and expects zero
/// drifts.
#[test]
fn quick_soak_stream_matches_pinned_fixture() {
    let horizon = 600_000;
    let (registry, _) = three_model_mix();
    let trace = soak_trace(horizon, 42);
    let cfg = soak_cfg(Engine::EventDriven, horizon, 42);
    let (_, jsonl) = serve_cluster_with_obs(&registry, &trace, &cfg, 50_000).unwrap();
    assert_eq!(jsonl, include_str!("fixtures/soak_clean.jsonl"));
}
