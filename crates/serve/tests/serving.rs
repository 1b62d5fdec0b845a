//! End-to-end serving tests: policies, SLO accounting, error paths, and
//! fault-driven pool degradation.

use maicc_exec::mapping::{zigzag_order, Tile};
use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, FaultConfig, Policy, ServeConfig, HORIZON_CYCLES};
use maicc_serve::trace::{Request, Trace};
use maicc_serve::ServeError;
use maicc_sim::stream::Engine;
use maicc_sim::RecoveryPolicy;

fn cfg(policy: Policy, pool_tiles: usize) -> ServeConfig {
    ServeConfig {
        policy,
        pool_tiles,
        ..ServeConfig::default()
    }
}

#[test]
fn fcfs_completes_everything_and_matches_golden() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 400_000, 7);
    assert!(trace.requests.len() >= 5, "trace too sparse to be interesting");
    let report = serve(&registry, &trace, &cfg(Policy::Fcfs, 16)).unwrap();
    assert_eq!(report.requests, trace.requests.len() as u64);
    assert_eq!(report.completed, report.requests);
    assert_eq!(report.dropped, 0);
    assert!(report.outcomes.iter().all(|o| o.ok), "every ofmap matches golden");
    assert!(report.makespan_cycles > 0);
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.energy_pj_per_request > 0.0);
    // Latency decomposes: queue + service = latency for completed runs.
    for o in &report.outcomes {
        assert_eq!(o.queue_cycles + o.service_cycles, o.latency_cycles, "req {}", o.id);
        assert!(o.admitted >= o.arrival);
        assert_eq!(o.finished, o.admitted + o.service_cycles);
    }
    // All three tenants are represented.
    let names: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(names, ["assist", "keyword", "vision"]);
}

#[test]
fn report_bytes_identical_across_engines_and_threads() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 250_000, 11);
    let mut baseline: Option<String> = None;
    for engine in [Engine::EventDriven, Engine::CycleAccurate] {
        let config = ServeConfig {
            engine,
            ..cfg(Policy::Fcfs, 16)
        };
        let json = serve(&registry, &trace, &config).unwrap().to_json();
        match &baseline {
            None => baseline = Some(json),
            Some(b) => assert_eq!(b, &json, "report diverged under {engine:?}"),
        }
    }
}

#[test]
fn sjf_and_fcfs_tail_latency_diverge_on_bursty_trace() {
    let (registry, loads) = three_model_mix();
    // A tight pool (8 tiles: only one medium/large model at a time)
    // under bursty load builds real queues, so admission order shows up
    // at the tail.
    let trace = Trace::bursty(&loads, 600_000, 200_000, 13);
    let fcfs = serve(&registry, &trace, &cfg(Policy::Fcfs, 8)).unwrap();
    let sjf = serve(&registry, &trace, &cfg(Policy::Sjf, 8)).unwrap();
    assert_eq!(fcfs.requests, sjf.requests);
    assert_ne!(
        fcfs.p99_latency_cycles, sjf.p99_latency_cycles,
        "policies should reorder the tail under contention"
    );
    // SJF favours the short keyword jobs over FCFS.
    let kw = |r: &maicc_serve::slo::ServeReport| {
        r.tenants
            .iter()
            .find(|t| t.tenant == "keyword")
            .unwrap()
            .p99_latency_cycles
    };
    assert!(
        kw(&sjf) <= kw(&fcfs),
        "SJF keyword p99 {} should not exceed FCFS {}",
        kw(&sjf),
        kw(&fcfs)
    );
}

#[test]
fn partitioned_and_time_shared_complete_the_mix() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 400_000, 7);
    // 16 tiles = exactly the sum of the three footprints (7 + 6 + 3).
    let part = serve(&registry, &trace, &cfg(Policy::Partitioned, 16)).unwrap();
    assert_eq!(part.completed, part.requests);
    assert_eq!(part.policy, "partitioned");
    let ts = serve(&registry, &trace, &cfg(Policy::TimeShared, 16)).unwrap();
    assert_eq!(ts.completed, ts.requests);
    assert_eq!(ts.policy, "time_shared");
    // Time-sharing serialises the fabric: requests never overlap, so its
    // makespan is at least every other policy's.
    assert!(ts.makespan_cycles >= part.makespan_cycles);
}

#[test]
fn partitioned_rejects_a_pool_that_cannot_hold_all_tenants() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 400_000, 7);
    match serve(&registry, &trace, &cfg(Policy::Partitioned, 10)) {
        Err(ServeError::PoolTooSmall { reason }) => {
            assert!(reason.contains("partition"), "{reason}");
        }
        other => panic!("expected PoolTooSmall, got {other:?}"),
    }
}

#[test]
fn model_wider_than_pool_is_rejected_up_front() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 400_000, 7);
    match serve(&registry, &trace, &cfg(Policy::Fcfs, 3)) {
        Err(ServeError::PoolTooSmall { reason }) => {
            assert!(reason.contains("resnet18_segment"), "{reason}");
        }
        other => panic!("expected PoolTooSmall, got {other:?}"),
    }
}

fn tile(x: u8, y: u8) -> Tile {
    Tile { x, y }
}

#[test]
fn initial_failed_ignores_repeats_and_off_array_tiles() {
    // With `pool_tiles: 0` the pool is every healthy tile, so its size,
    // and through it `utilization`, depends on each excluded tile.
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 150_000, 7);
    let report = |failed: Vec<Tile>| {
        let config = ServeConfig {
            initial_failed: failed,
            ..cfg(Policy::Fcfs, 0)
        };
        serve(&registry, &trace, &config).unwrap().to_json()
    };
    let one = report(vec![tile(3, 0)]);
    assert_ne!(one, report(Vec::new()), "the excluded tile must show");
    // A repeat excludes nothing more, and neither do tiles outside the
    // 15×14 array; (15, 0) must not alias (0, 1).
    let noisy = report(vec![
        tile(3, 0),
        tile(3, 0),
        tile(15, 0),
        tile(0, 14),
        tile(255, 255),
    ]);
    assert_eq!(one, noisy);
}

#[test]
fn initial_failed_leaving_too_few_tiles_is_rejected_up_front() {
    let (registry, _) = three_model_mix();
    let healthy = [
        tile(0, 0),
        tile(14, 0),
        tile(7, 6),
        tile(0, 13),
        tile(14, 13),
    ];
    let failed: Vec<Tile> = zigzag_order()
        .into_iter()
        .filter(|t| !healthy.contains(t))
        .collect();
    let request = |tenant: &str, model: &str, arrival| Request {
        id: 0,
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    };
    // `small` (3 tiles) fits the 5 healthy tiles; `resnet18_segment`
    // (7 tiles) does not.
    let trace = Trace::from_requests(vec![
        request("keyword", "small", 0),
        request("vision", "resnet18_segment", 10),
    ]);
    let config = ServeConfig {
        initial_failed: failed,
        ..cfg(Policy::Fcfs, 0)
    };
    match serve(&registry, &trace, &config) {
        Err(ServeError::PoolTooSmall { reason }) => {
            assert!(reason.contains("resnet18_segment"), "{reason}");
            assert!(reason.contains("needs 7 tiles, pool holds 5"), "{reason}");
        }
        other => panic!("expected PoolTooSmall, got {other:?}"),
    }
}

#[test]
fn unknown_model_is_rejected_up_front() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "ghost".into(),
        model: "nope".into(),
        arrival: 0,
        deadline: None,
    }]);
    match serve(&registry, &trace, &cfg(Policy::Fcfs, 16)) {
        Err(ServeError::UnknownModel { model }) => assert_eq!(model, "nope"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
}

#[test]
fn hard_fault_mid_run_retires_a_tile_from_the_pool() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 7);
    let first_id = trace.requests[0].id;
    let config = ServeConfig {
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: true,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![first_id],
            ..FaultConfig::default()
        }),
        ..cfg(Policy::Fcfs, 16)
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert!(
        report.degraded_tiles >= 1,
        "remap recovery should retire the faulted tile"
    );
    assert_eq!(report.completed + report.dropped, report.requests);
    // The faulted request itself still completed correctly via replay.
    let victim = report.outcomes.iter().find(|o| o.id == first_id).unwrap();
    assert!(victim.ok && !victim.dropped);
}

#[test]
fn partitioned_recarves_after_mid_run_retirement() {
    let (registry, _) = three_model_mix();
    // The vision tenant mixes the 7-tile segment with the 3-tile small
    // net, so its region (carved for the segment) has slack for remap
    // recovery to retire a tile while the small net runs. The later
    // segment request only fits if the partition then re-carves around
    // the casualty — under the pre-fix scheduler it head-blocked on the
    // shrunken region and serve() errored with PoolTooSmall.
    let mk = |tenant: &str, model: &str, arrival: u64| Request {
        id: 0,
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    };
    let trace = Trace::from_requests(vec![
        mk("vision", "small", 0), // id 0: the faulted run
        mk("keyword", "small", 50_000),
        mk("vision", "resnet18_segment", 100_000),
        mk("keyword", "small", 150_000),
    ]);
    assert_eq!(trace.requests[0].model, "small");
    let config = ServeConfig {
        recovery: Some(RecoveryPolicy {
            max_replays: 8,
            remap: true,
            checkpoint_values: 8,
        }),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        ..cfg(Policy::Partitioned, 16)
    };
    let report = serve(&registry, &trace, &config).unwrap();
    assert!(
        report.degraded_tiles >= 1,
        "remap recovery should retire the faulted tile"
    );
    // The re-carve keeps every tenant schedulable: nothing head-blocks
    // on the shrunken region and the whole trace drains.
    assert_eq!(report.completed, report.requests);
    assert_eq!(report.dropped, 0);
    let victim = report.outcomes.iter().find(|o| o.id == 0).unwrap();
    assert!(victim.ok && !victim.dropped, "faulted run replays to a correct result");
}

#[test]
fn deadline_misses_show_up_under_contention() {
    let (registry, loads) = three_model_mix();
    // Serialise everything through a tight pool so the latency-sensitive
    // tenant's 150k-cycle deadline is hard to hold during bursts.
    let trace = Trace::bursty(&loads, 600_000, 200_000, 13);
    let report = serve(&registry, &trace, &cfg(Policy::TimeShared, 8)).unwrap();
    let misses: u64 = report.tenants.iter().map(|t| t.deadline_misses).sum();
    assert!(misses > 0, "expected at least one miss on a bursty tight pool");
    assert!(report.deadline_miss_rate > 0.0);
}

// ----- typed error variants for untrusted input ----------------------
//
// Everything a trace file or a replayed registry can feed the server
// must come back as a typed `ServeError`, never a panic.

#[test]
fn zero_tile_registry_entry_is_rejected() {
    use maicc_serve::registry::ModelEntry;
    let (mut registry, _) = three_model_mix();
    let stream = registry.get("small").unwrap().stream.clone();
    registry.insert_raw(ModelEntry {
        name: "hollow".into(),
        stream,
        tiles: 0, // a corrupt recorded registry
        est_cycles: 1,
        golden: vec![],
        weight_bytes: 0,
        max_tile_weight_bytes: 0,
        weight_image: vec![],
    });
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "t".into(),
        model: "hollow".into(),
        arrival: 0,
        deadline: None,
    }]);
    match serve(&registry, &trace, &ServeConfig::default()) {
        Err(ServeError::BadModel { reason }) => {
            assert!(reason.contains("zero-tile"), "{reason}")
        }
        other => panic!("expected BadModel, got {other:?}"),
    }
}

#[test]
fn zero_deadline_is_rejected() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "t".into(),
        model: "small".into(),
        arrival: 0,
        deadline: Some(0),
    }]);
    match serve(&registry, &trace, &ServeConfig::default()) {
        Err(ServeError::BadRequest { id: 0, reason }) => {
            assert!(reason.contains("deadline is 0"), "{reason}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn deadline_at_or_before_arrival_is_rejected() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "t".into(),
        model: "small".into(),
        arrival: 5_000,
        deadline: Some(5_000), // absolute deadline at the arrival instant
    }]);
    match serve(&registry, &trace, &ServeConfig::default()) {
        Err(ServeError::BadRequest { id: 0, reason }) => {
            assert!(reason.contains("at or before arrival"), "{reason}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn overload_rejects_unsupported_policies() {
    use maicc_serve::overload::OverloadConfig;
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 100_000, 7);
    for policy in [Policy::Partitioned, Policy::TimeShared] {
        let config = ServeConfig {
            overload: Some(OverloadConfig::default()),
            ..cfg(policy, 16)
        };
        match serve(&registry, &trace, &config) {
            Err(ServeError::BadConfig { reason }) => {
                assert!(reason.contains("fcfs or sjf"), "{reason}")
            }
            other => panic!("expected BadConfig for {policy:?}, got {other:?}"),
        }
    }
}

#[test]
fn malformed_trace_json_is_a_typed_error() {
    for text in [
        "",                                     // empty
        "{",                                    // truncated
        "[1, 2",                                // not an object
        r#"{"requests": [{"id": "x"}]}"#,       // wrong field type
        r#"{"requests": [{"tenant": "t"}]}"#,   // missing fields
        "{\"requests\": [{\"id\": 0, \"tenant\": \"t\", \"model\": \"m\", \"arrival\": 1e999}]}",
    ] {
        match Trace::from_json(text) {
            Err(ServeError::BadTrace { .. }) => {}
            other => panic!("{text:?}: expected BadTrace, got {other:?}"),
        }
    }
}

/// `Trace.requests` is public, so a caller can hand the loop a trace
/// that breaks its invariant. Arrivals that run backwards (which would
/// move simulated time backwards) and ids that are not dense in trace
/// order are typed errors.
#[test]
fn trace_out_of_arrival_order_or_with_sparse_ids_is_rejected() {
    let (registry, _) = three_model_mix();
    let req = |id: u64, arrival: u64| Request {
        id,
        tenant: "t".into(),
        model: "small".into(),
        arrival,
        deadline: None,
    };
    let cases = [
        (vec![req(0, 500_000), req(1, 100)], "before request 0"),
        (vec![req(0, 100), req(2, 500_000)], "dense"),
    ];
    for (requests, needle) in cases {
        let trace = Trace { requests };
        match serve(&registry, &trace, &cfg(Policy::Fcfs, 3)) {
            Err(ServeError::BadTrace { reason }) => {
                assert!(reason.contains(needle), "{reason}")
            }
            other => panic!("expected BadTrace, got {other:?}"),
        }
    }
}

/// A trace cycle past the horizon is refused before any work: near
/// `u64::MAX` the completion sum would overflow (a panic in debug, a
/// wrapped makespan below the request's own latency in release).
#[test]
fn a_trace_cycle_past_the_horizon_is_rejected() {
    let (registry, _) = three_model_mix();
    let one = |arrival: u64, deadline: Option<u64>| {
        Trace::from_requests(vec![Request {
            id: 0,
            tenant: "vision".into(),
            model: "small".into(),
            arrival,
            deadline,
        }])
    };
    let cfg = ServeConfig::default();
    for trace in [
        one(18_446_744_073_709_551_000, None),
        one(0, Some(HORIZON_CYCLES + 1)),
    ] {
        match serve(&registry, &trace, &cfg) {
            Err(ServeError::BadTrace { reason }) => assert!(
                reason.contains("request 0") && reason.contains("past the horizon"),
                "{reason}"
            ),
            other => panic!("expected BadTrace, got {other:?}"),
        }
    }
}

/// A retry budget applies under every policy, not only with overload
/// hardening: the unrecoverable first attempt re-runs after its backoff
/// on clean hardware and completes.
#[test]
fn retry_budget_applies_without_overload_hardening() {
    use maicc_serve::overload::RetryBudget;
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "solo".into(),
        model: "small".into(),
        arrival: 0,
        deadline: None,
    }]);
    for policy in Policy::ALL {
        let config = ServeConfig {
            recovery: Some(RecoveryPolicy {
                max_replays: 8,
                remap: false,
                checkpoint_values: 8,
            }),
            fault: Some(FaultConfig {
                fail_at_requests: vec![0],
                ..FaultConfig::default()
            }),
            retry_budget: Some(RetryBudget::default()),
            ..cfg(policy, 10)
        };
        let report = serve(&registry, &trace, &config).unwrap();
        assert_eq!(report.completed, 1, "{policy:?}");
        assert_eq!(report.retries, 1, "{policy:?}");
        let o = &report.outcomes[0];
        assert!(o.ok && o.tier.is_none(), "{policy:?}");
        assert_eq!(o.admitted, RetryBudget::default().base_backoff_cycles, "{policy:?}");
    }
}
