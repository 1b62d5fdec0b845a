//! Mid-run tile retirement under every scheduling policy: a hard fault
//! retires a tile from the pool while later requests are still queued,
//! and the loop must keep every invariant — the pool shrinks, no
//! completion is double-counted, and the SLO report stays byte-identical
//! across simulation engines.

use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, FaultConfig, Policy, ServeConfig};
use maicc_serve::trace::{Request, Trace};
use maicc_sim::stream::{Engine, RecoveryPolicy};
use std::collections::BTreeSet;

/// The PR 5 re-carve trace: the faulted 3-tile run retires a tile while
/// the 7-tile segment is still to come, so every policy has to schedule
/// around the casualty.
fn churn_trace() -> Trace {
    let mk = |tenant: &str, model: &str, arrival: u64| Request {
        id: 0,
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    };
    Trace::from_requests(vec![
        mk("vision", "small", 0), // id 0: the faulted run
        mk("keyword", "small", 50_000),
        mk("vision", "resnet18_segment", 100_000),
        mk("keyword", "small", 150_000),
    ])
}

fn churn_cfg(policy: Policy) -> ServeConfig {
    ServeConfig {
        policy,
        pool_tiles: 16,
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: true,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        ..ServeConfig::default()
    }
}

#[test]
fn retirement_holds_invariants_under_every_policy() {
    let (registry, _) = three_model_mix();
    let trace = churn_trace();
    for policy in [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Partitioned,
        Policy::TimeShared,
    ] {
        let config = churn_cfg(policy);
        let report = serve(&registry, &trace, &config).unwrap();

        // The pool shrank: remap recovery retired at least one tile.
        assert!(
            report.degraded_tiles >= 1,
            "{policy:?}: fault should retire a tile"
        );
        // Every request got exactly one outcome — no double-counted
        // completions, no silently vanished requests.
        assert_eq!(
            report.completed + report.dropped,
            report.requests,
            "{policy:?}: outcome conservation"
        );
        assert_eq!(report.outcomes.len(), trace.requests.len());
        let ids: BTreeSet<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), trace.requests.len(), "{policy:?}: duplicate ids");
        // On the 16-tile pool one retirement never strands the segment.
        assert_eq!(report.completed, report.requests, "{policy:?}: all drain");
        let victim = report.outcomes.iter().find(|o| o.id == 0).unwrap();
        assert!(victim.ok, "{policy:?}: faulted run replays to a correct result");

        // Byte-identical across engines even with the retirement mid-run.
        let json = report.to_json();
        for engine in [Engine::CycleAccurate, Engine::EventDriven] {
            let alt = ServeConfig {
                engine,
                ..churn_cfg(policy)
            };
            let alt_json = serve(&registry, &trace, &alt).unwrap().to_json();
            assert_eq!(json, alt_json, "{policy:?}: {engine:?} diverged");
        }
    }
}

/// The same churn through the overload-hardened loop (Fcfs/Sjf only —
/// the other two reject overload configs): retirement composes with
/// admission control and the report still drains conserving outcomes.
#[test]
fn retirement_holds_invariants_under_overload_loop() {
    use maicc_serve::overload::OverloadConfig;
    let (registry, _) = three_model_mix();
    let trace = churn_trace();
    for policy in [Policy::Fcfs, Policy::Sjf] {
        let config = ServeConfig {
            overload: Some(OverloadConfig::default()),
            ..churn_cfg(policy)
        };
        let report = serve(&registry, &trace, &config).unwrap();
        assert!(report.degraded_tiles >= 1, "{policy:?}: tile retires");
        assert_eq!(report.completed, report.requests, "{policy:?}: all drain");
        let ids: BTreeSet<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids.len(), trace.requests.len(), "{policy:?}: duplicate ids");

        let json = report.to_json();
        let alt = ServeConfig {
            engine: Engine::CycleAccurate,
            overload: Some(OverloadConfig::default()),
            ..churn_cfg(policy)
        };
        let alt_json = serve(&registry, &trace, &alt).unwrap().to_json();
        assert_eq!(json, alt_json, "{policy:?}: engine divergence");
    }
}
