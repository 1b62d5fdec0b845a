//! Overload-hardening integration tests: the 2×-overload acceptance
//! scenario under continuous fault churn, retry of unrecoverable runs,
//! retry-budget exhaustion, Hard-over-BestEffort preemption with
//! checkpoint resume, and the brownout best-effort cap.

use maicc_serve::overload::{BrownoutConfig, OverloadConfig, RetryBudget, Tier};
use maicc_serve::registry::{overload_mix, three_model_mix};
use maicc_serve::server::{serve, FaultConfig, Policy, ServeConfig};
use maicc_serve::trace::{Request, Trace};
use maicc_sim::stream::{Engine, RecoveryPolicy};

fn req(tenant: &str, model: &str, arrival: u64, deadline: Option<u64>) -> Request {
    Request {
        id: 0, // re-assigned by `from_requests`
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline,
    }
}

/// The PR's acceptance scenario: a seeded bursty trace offering ~2× the
/// 10-tile pool's sustainable load, with hard faults injected into early
/// assist requests so remap recovery keeps retiring tiles mid-service.
/// The Hard tenant (`vision`) must come through unscathed: zero
/// unrecoverable requests and p99 within its deadline, while the
/// overload machinery visibly sheds other work — and the whole report
/// must stay byte-identical across engines and thread counts.
#[test]
fn acceptance_two_x_overload_with_fault_churn() {
    let (registry, loads, overload) = overload_mix();
    let trace = Trace::bursty(&loads, 1_200_000, 200_000, 42);
    // Fault the two earliest vision arrivals: the Hard tier is always
    // admitted (lower tiers queue and shed under 2x overload), so the
    // dead slices reliably reach the fabric — and remap recovery is
    // exactly how Hard traffic rides out hardware churn: the tile
    // retires, the run replays and completes.
    let fail_at: Vec<u64> = trace
        .requests
        .iter()
        .filter(|r| r.tenant == "vision")
        .take(2)
        .map(|r| r.id)
        .collect();
    assert_eq!(fail_at.len(), 2, "trace must offer vision requests");
    let config = ServeConfig {
        policy: Policy::Sjf,
        pool_tiles: 10,
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: true,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: fail_at,
            ..FaultConfig::default()
        }),
        overload: Some(overload),
        retry_budget: Some(RetryBudget::default()),
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &config).unwrap();

    assert_eq!(report.completed + report.dropped, report.requests);
    assert!(
        report.degraded_tiles >= 1,
        "remap recovery should retire at least one tile"
    );
    assert!(report.shed > 0, "2x overload must shed something");

    let vision = report
        .tenants
        .iter()
        .find(|t| t.tenant == "vision")
        .expect("vision tenant present");
    assert_eq!(
        vision.unrecoverable, 0,
        "no Hard-tenant request may be dropped unrecoverably"
    );
    assert!(
        vision.p99_latency_cycles <= 600_000,
        "Hard-tenant p99 {} busts its 600k deadline",
        vision.p99_latency_cycles
    );

    // The new counters surface in the SLO JSON at fleet, tenant, and
    // per-request level.
    let json = report.to_json();
    for key in ["\"shed\"", "\"unrecoverable\"", "\"preemptions\"", "\"retries\""] {
        assert!(json.contains(key), "SLO JSON missing {key}");
    }
    assert!(json.contains("\"tier\": \"hard\""), "tier labels in JSON");

    // Byte-identical across engines (the proptest in tests/determinism.rs
    // sweeps seeds; this pins the acceptance seed).
    let alt = ServeConfig {
        engine: Engine::CycleAccurate,
        ..config.clone()
    };
    let alt_json = serve(&registry, &trace, &alt).unwrap().to_json();
    assert_eq!(json, alt_json, "report must not depend on the engine");
}

/// An unrecoverable run (dead slice, remap disabled) re-enters admission
/// after backoff at elevated priority and completes on clean hardware.
#[test]
fn unrecoverable_run_is_retried_and_completes() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![req("solo", "small", 0, None)]);
    let config = ServeConfig {
        pool_tiles: 10,
        // remap off: a dead slice is permanent, so the attempt errors out
        // instead of retiring the tile.
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: false,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        overload: Some(OverloadConfig::default()),
        retry_budget: Some(RetryBudget::default()),
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert_eq!(report.completed, 1);
    assert_eq!(report.retries, 1, "exactly one retry");
    assert_eq!(report.unrecoverable, 0);
    let o = &report.outcomes[0];
    assert!(o.ok && !o.dropped);
    assert_eq!(o.retries, 1);
    // The retry re-entered above its original (unlisted → Soft) tier.
    assert_eq!(o.tier, Some(Tier::Hard));
    // Backoff delay is visible as queueing: the failed attempt burned no
    // fabric time but the request waited out base_backoff_cycles.
    assert!(
        o.queue_cycles >= RetryBudget::default().base_backoff_cycles,
        "queue {} should include the backoff wait",
        o.queue_cycles
    );
}

/// Without a retry budget the same unrecoverable run drops — and the
/// drop is counted as `unrecoverable`, not `shed`.
#[test]
fn without_retry_budget_unrecoverable_run_drops() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![req("solo", "small", 0, None)]);
    let config = ServeConfig {
        pool_tiles: 10,
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: false,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        overload: Some(OverloadConfig::default()),
        retry_budget: None,
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert_eq!(report.completed, 0);
    assert_eq!(report.dropped, 1);
    assert_eq!(report.shed, 0);
    assert_eq!(report.unrecoverable, 1);
    let o = &report.outcomes[0];
    assert!(o.dropped && !o.shed && o.unrecoverable());
}

/// A per-request retry cap of zero exhausts immediately even when a
/// budget object is present.
#[test]
fn zero_retry_cap_exhausts_immediately() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![req("solo", "small", 0, None)]);
    let config = ServeConfig {
        pool_tiles: 10,
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: false,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        overload: Some(OverloadConfig::default()),
        retry_budget: Some(RetryBudget {
            max_retries_per_request: 0,
            ..RetryBudget::default()
        }),
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert_eq!(report.unrecoverable, 1);
    assert_eq!(report.retries, 0);
}

/// A Hard arrival that cannot place evicts the most recent BestEffort
/// runner; the victim resumes from its checkpoint and still completes.
#[test]
fn hard_arrival_preempts_best_effort_and_victim_resumes() {
    let (registry, _) = three_model_mix();
    // 10-tile pool: the 6-tile best-effort run leaves only 4 free, so
    // the 7-tile Hard arrival at 10k cycles cannot place without
    // eviction.
    let trace = Trace::from_requests(vec![
        req("bg", "two_layer", 0, None),
        req("fg", "resnet18_segment", 10_000, None),
    ]);
    let config = ServeConfig {
        pool_tiles: 10,
        // Recovery arms the checkpoint machinery the victim resumes from.
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: true,
            checkpoint_values: 8,
        }),
        overload: Some(OverloadConfig {
            tiers: vec![("fg".into(), Tier::Hard), ("bg".into(), Tier::BestEffort)],
            ..OverloadConfig::default()
        }),
        ..ServeConfig::default()
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert_eq!(report.completed, 2, "both requests complete");
    assert_eq!(report.preemptions, 1);

    let fg = report.outcomes.iter().find(|o| o.tenant == "fg").unwrap();
    let bg = report.outcomes.iter().find(|o| o.tenant == "bg").unwrap();
    assert!(fg.ok && bg.ok);
    assert_eq!(fg.queue_cycles, 0, "the Hard request admits on arrival");
    assert_eq!(bg.preemptions, 1);
    // The victim's service time spans both segments: the 10k cycles it
    // executed before eviction plus the resumed remainder.
    assert!(
        bg.service_cycles > 10_000,
        "victim service {} must cover both segments",
        bg.service_cycles
    );
    assert!(bg.finished > fg.finished, "victim resumes after the Hard run");

    // With preemption disabled the Hard request head-blocks instead.
    let no_preempt = ServeConfig {
        overload: Some(OverloadConfig {
            preempt: false,
            tiers: vec![("fg".into(), Tier::Hard), ("bg".into(), Tier::BestEffort)],
            ..OverloadConfig::default()
        }),
        ..config
    };
    let rep2 = serve(&registry, &trace, &no_preempt).unwrap();
    assert_eq!(rep2.preemptions, 0);
    let fg2 = rep2.outcomes.iter().find(|o| o.tenant == "fg").unwrap();
    assert!(
        fg2.queue_cycles > 0,
        "without preemption the Hard request waits for the best-effort run"
    );
}

/// Sustained occupancy above the high-water mark for a full window
/// shrinks best-effort grants: the scavenger waits out the brownout even
/// though free tiles exist, and admits promptly once brownout is off.
#[test]
fn brownout_caps_best_effort_grants() {
    let (registry, _) = three_model_mix();
    // Staggered Soft two_layer runs keep 16-tile pool occupancy at or
    // above 6/16 = 0.375 continuously from cycle 0; the best-effort
    // 3-tile request arrives with 4 tiles free either way.
    let trace = Trace::from_requests(vec![
        req("s", "two_layer", 0, None),
        req("s", "two_layer", 20_000, None),
        req("s", "two_layer", 40_000, None),
        req("s", "two_layer", 60_000, None),
        req("b", "small", 70_000, None),
    ]);
    let brownout_cfg = ServeConfig {
        pool_tiles: 16,
        overload: Some(OverloadConfig {
            tiers: vec![("b".into(), Tier::BestEffort)],
            brownout: Some(BrownoutConfig {
                high_water: 0.3,
                window_cycles: 50_000,
                // floor(16 × 0.15) = 2 tiles: below the small net's 3.
                best_effort_fraction: 0.15,
            }),
            ..OverloadConfig::default()
        }),
        ..ServeConfig::default()
    };
    let control_cfg = ServeConfig {
        overload: Some(OverloadConfig {
            tiers: vec![("b".into(), Tier::BestEffort)],
            brownout: None,
            ..OverloadConfig::default()
        }),
        ..brownout_cfg.clone()
    };
    let browned = serve(&registry, &trace, &brownout_cfg).unwrap();
    let control = serve(&registry, &trace, &control_cfg).unwrap();
    assert_eq!(browned.completed, 5, "brownout delays, never drops");
    assert_eq!(control.completed, 5);
    let bb = browned.outcomes.iter().find(|o| o.tenant == "b").unwrap();
    let cb = control.outcomes.iter().find(|o| o.tenant == "b").unwrap();
    assert_eq!(cb.queue_cycles, 0, "control admits the scavenger on arrival");
    assert!(
        bb.queue_cycles > 0,
        "brownout must hold the best-effort request back"
    );
    // Soft traffic is untouched by the brownout cap.
    for (x, y) in browned.outcomes.iter().zip(control.outcomes.iter()) {
        if x.tenant == "s" {
            assert_eq!(x.latency_cycles, y.latency_cycles);
        }
    }
}
