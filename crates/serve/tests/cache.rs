//! Weight-cache integration tests (DESIGN.md §15).
//!
//! Four guarantees the cache must not erode:
//!
//! 1. **Determinism** — with the cache enabled, a serving report's JSON
//!    bytes are invariant across simulation engines, exactly like the
//!    pre-cache loop.
//! 2. **Byte-exact fallback** — `weight_cache: None` reproduces the
//!    pre-cache serving report bit-for-bit (pinned fixture), so the
//!    cache is a pure opt-in.
//! 3. **Warm resume after preemption** — a preempted best-effort victim
//!    whose tiles survive the preemptor's placement resumes *warm*: no
//!    reload cycles, no eviction of its resident set.
//! 4. **Estimate fidelity** — the registry's analytic service estimate
//!    used for SJF ordering and deadline shedding brackets a measured
//!    run and preserves the measured ordering across the model mix.

use maicc_serve::cache::WeightCacheConfig;
use maicc_serve::overload::{OverloadConfig, Tier};
use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, Policy, ServeConfig};
use maicc_serve::trace::{Request, Trace};
use maicc_sim::stream::{Engine, StreamSim};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Cache-enabled serving stays a pure function of (trace, config):
    /// identical JSON bytes under both engines, on the repeat-heavy Zipf
    /// mix the cache is built for.
    #[test]
    fn prop_cached_report_bytes_invariant_across_engines_and_threads(
        seed in 0u64..10_000,
        policy_idx in 0usize..2,
    ) {
        let (registry, loads) = three_model_mix();
        let trace = Trace::zipf(&loads, 150_000, 14_000, 2.0, seed);
        let policy = [Policy::Fcfs, Policy::Sjf][policy_idx];
        let mut baseline: Option<String> = None;
        for engine in [Engine::EventDriven, Engine::CycleAccurate] {
            let cfg = ServeConfig {
                policy,
                engine,
                pool_tiles: 8,
                weight_cache: Some(WeightCacheConfig::default()),
                ..ServeConfig::default()
            };
            let json = serve(&registry, &trace, &cfg).unwrap().to_json();
            match &baseline {
                None => baseline = Some(json),
                Some(b) => prop_assert_eq!(
                    b,
                    &json,
                    "seed {} policy {:?} diverged under {:?}",
                    seed,
                    policy,
                    engine
                ),
            }
        }
    }
}

/// `weight_cache: None` is the pre-cache serving loop, byte for byte:
/// the report matches the fixture pinned before the cache existed, so
/// enabling the feature in the codebase changes nothing for configs
/// that don't ask for it. `tests/pinned.rs` regenerates the fixture.
#[test]
fn cache_disabled_reproduces_pre_cache_baseline_exactly() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 600_000, 200_000, 42);
    let cfg = ServeConfig {
        policy: Policy::Sjf,
        pool_tiles: 8,
        weight_cache: None,
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &cfg).unwrap();
    assert_eq!(
        report.to_json(),
        include_str!("fixtures/pr7_baseline.json"),
        "weight_cache: None must serialize byte-identically to the \
         pre-cache serving loop"
    );
}

/// Preemption must not cost the victim its resident weights: a
/// best-effort request evicted by a hard arrival whose placement does
/// not claim the victim's tiles resumes warm — zero reload cycles —
/// instead of silently paying a second cold load.
///
/// Geometry (16-tile pool, serpentine prefix placement):
///
/// * t=0     `beB`  two_layer (6 tiles)          → z0..z5
/// * t=1000  `beA`  small (3 tiles)              → z6..z8
/// * t=2000  `soft` resnet18_segment (7 tiles)   → z9..z15
/// * t=3000  `hard` two_layer (6 tiles)          → no free tiles
///
/// The hard arrival preempts best-effort runners latest-admitted first
/// (`beA`, then `beB`) until it fits. Both victims' weights stay
/// resident on their vacated tiles. The hard request lands on z0..z5;
/// `beA` resumes in the same scheduling pass on its own z6..z8 — warm.
#[test]
fn preempted_victim_resumes_warm_on_its_surviving_tiles() {
    let (registry, _) = three_model_mix();
    let req = |tenant: &str, model: &str, arrival: u64| Request {
        id: 0, // reassigned by from_requests
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    };
    let trace = Trace::from_requests(vec![
        req("beB", "two_layer", 0),
        req("beA", "small", 1_000),
        req("soft", "resnet18_segment", 2_000),
        req("hard", "two_layer", 3_000),
    ]);
    let cfg = ServeConfig {
        policy: Policy::Sjf,
        pool_tiles: 16,
        overload: Some(OverloadConfig {
            tiers: vec![
                ("hard".into(), Tier::Hard),
                ("soft".into(), Tier::Soft),
                ("beA".into(), Tier::BestEffort),
                ("beB".into(), Tier::BestEffort),
            ],
            ..OverloadConfig::default()
        }),
        weight_cache: Some(WeightCacheConfig::default()),
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &cfg).unwrap();
    assert_eq!(report.completed, 4, "nothing sheds: no deadlines, deep queue");
    assert_eq!(report.dropped, 0);
    assert_eq!(report.preemptions, 2, "hard evicts both best-effort runners");

    let by_tenant = |t: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.tenant == t)
            .unwrap_or_else(|| panic!("tenant {t} missing from outcomes"))
    };
    let be_a = by_tenant("beA");
    assert_eq!(be_a.preemptions, 1);
    assert!(!be_a.dropped);
    assert_eq!(
        be_a.warm,
        Some(true),
        "the victim's weights survived on z6..z8, so its resume is warm"
    );
    assert_eq!(
        be_a.load_cycles, 0,
        "a warm resume pays no reload: got {} cycles",
        be_a.load_cycles
    );

    let be_b = by_tenant("beB");
    assert_eq!(be_b.preemptions, 1);
    assert!(!be_b.dropped, "the deeper victim still completes eventually");

    let hard = by_tenant("hard");
    assert!(!hard.dropped);
    assert_eq!(hard.preemptions, 0, "hard tier is never preempted");

    let cache = report.cache.as_ref().expect("cache-enabled run reports");
    assert!(
        cache.hits >= 1,
        "at least the warm resume must count as a hit (got {})",
        cache.hits
    );
}

/// The analytic estimate that orders SJF admission and prices deadline
/// shedding must track reality: for every model in the built-in mix it
/// stays below the measured fabric run (optimistic, so SJF never
/// starves a genuinely short job) but within 2.5× of it, and ranking
/// models by estimate gives the same order as ranking by measurement.
#[test]
fn analytic_estimate_brackets_and_orders_measured_runs() {
    let (registry, _) = three_model_mix();
    let mut pairs: Vec<(String, u64, u64)> = Vec::new();
    for name in ["small", "two_layer", "resnet18_segment"] {
        let entry = registry.get(name).expect("built-in model");
        let measured = StreamSim::new(&entry.stream)
            .expect("placement on a healthy array")
            .run(5_000_000)
            .expect("run completes")
            .cycles;
        let est = entry.est_cycles;
        assert!(
            est < measured,
            "{name}: estimate {est} should be optimistic vs measured {measured}"
        );
        assert!(
            measured < est * 5 / 2,
            "{name}: measured {measured} exceeds 2.5x the estimate {est} — \
             the SJF/shedding estimate has drifted from the cost model"
        );
        pairs.push((name.to_string(), est, measured));
    }
    let mut by_est = pairs.clone();
    by_est.sort_by_key(|p| p.1);
    let mut by_measured = pairs;
    by_measured.sort_by_key(|p| p.2);
    let est_order: Vec<&str> = by_est.iter().map(|p| p.0.as_str()).collect();
    let measured_order: Vec<&str> =
        by_measured.iter().map(|p| p.0.as_str()).collect();
    assert_eq!(
        est_order, measured_order,
        "estimate must rank the mix the same way measured service does"
    );
}
