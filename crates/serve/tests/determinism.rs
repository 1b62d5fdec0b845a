//! Property test: a serving run is a pure function of its trace seed and
//! config — the report's JSON bytes are identical whichever simulation
//! engine drives the fabric.

use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, Policy, ServeConfig};
use maicc_serve::trace::Trace;
use maicc_sim::stream::Engine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_report_bytes_invariant_across_engines_and_threads(
        seed in 0u64..10_000,
        policy_idx in 0usize..2,
        bursty in any::<bool>(),
    ) {
        let (registry, loads) = three_model_mix();
        let trace = if bursty {
            Trace::bursty(&loads, 150_000, 60_000, seed)
        } else {
            Trace::poisson(&loads, 150_000, seed)
        };
        let policy = [Policy::Fcfs, Policy::Sjf][policy_idx];
        let mut baseline: Option<String> = None;
        for engine in [Engine::EventDriven, Engine::CycleAccurate] {
            let cfg = ServeConfig {
                policy,
                engine,
                pool_tiles: 16,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The overload-hardened loop keeps the same guarantee under the
    /// full stress kit — bounded queues, shedding, tiers, preemption,
    /// retries, brownout, and mid-run tile retirement all engaged.
    #[test]
    fn prop_overload_report_bytes_invariant(
        seed in 0u64..10_000,
        policy_idx in 0usize..2,
    ) {
        use maicc_serve::overload::RetryBudget;
        use maicc_serve::registry::overload_mix;
        use maicc_serve::server::FaultConfig;
        use maicc_sim::stream::RecoveryPolicy;

        let (registry, loads, overload) = overload_mix();
        let trace = Trace::bursty(&loads, 150_000, 60_000, seed);
        // Hard-fault the first arrival so remap recovery churns the pool
        // while the overload machinery runs.
        let fail_at: Vec<u64> =
            trace.requests.first().map(|r| r.id).into_iter().collect();
        let policy = [Policy::Fcfs, Policy::Sjf][policy_idx];
        let mut baseline: Option<String> = None;
        for engine in [Engine::EventDriven, Engine::CycleAccurate] {
            let cfg = ServeConfig {
                policy,
                engine,
                pool_tiles: 10,
                recovery: Some(RecoveryPolicy {
                    max_replays: 8,
                    remap: true,
                    checkpoint_values: 8,
                }),
                fault: Some(FaultConfig {
                    fail_at_requests: fail_at.clone(),
                    ..FaultConfig::default()
                }),
                overload: Some(overload.clone()),
                retry_budget: Some(RetryBudget::default()),
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
