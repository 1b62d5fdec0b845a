//! Cluster serving tests: single-fabric parity, fault-domain failover,
//! deterministic re-dispatch, overload hardening across fabrics, and
//! cluster config validation.

use maicc_serve::cluster::{
    serve_cluster, ClusterConfig, ClusterFaultPlan, ClusterShedConfig,
    FabricFault, FabricFaultKind,
};
use maicc_serve::overload::{OverloadConfig, RetryBudget, Tier};
use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, Policy, ServeConfig, HORIZON_CYCLES};
use maicc_serve::trace::{Request, Trace};
use maicc_serve::ServeError;
use maicc_sim::stream::Engine;

fn base(policy: Policy, pool_tiles: usize) -> ServeConfig {
    ServeConfig {
        policy,
        pool_tiles,
        ..ServeConfig::default()
    }
}

fn kill(fabric: usize, at: u64) -> ClusterFaultPlan {
    ClusterFaultPlan {
        events: vec![FabricFault {
            fabric,
            at,
            kind: FabricFaultKind::Outage { duration: None },
        }],
    }
}

// ---------------------------------------------------------------- parity

/// A zero-fault N=1 cluster IS the single fabric: `serve()` and an
/// explicit one-fabric cluster give the same bytes, and both match the
/// fixture the separate single-fabric loop wrote before `serve()` became
/// the one-fabric case of the cluster loop. Both policies, with and
/// without the weight cache.
#[test]
fn n1_zero_fault_cluster_matches_single_fabric_byte_for_byte() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    for policy in [Policy::Fcfs, Policy::Sjf] {
        for cache in [false, true] {
            let fixture = match (policy, cache) {
                (Policy::Fcfs, false) => include_str!("fixtures/parity_fcfs.json"),
                (Policy::Fcfs, true) => include_str!("fixtures/parity_fcfs_cache.json"),
                (Policy::Sjf, false) => include_str!("fixtures/parity_sjf.json"),
                _ => include_str!("fixtures/parity_sjf_cache.json"),
            };
            let mut cfg = base(policy, 8);
            if cache {
                cfg.weight_cache = Some(maicc_serve::cache::WeightCacheConfig::default());
            }
            let single = serve(&registry, &trace, &cfg).unwrap().to_json();
            let cluster = ClusterConfig {
                fabrics: 1,
                base: cfg,
                ..ClusterConfig::default()
            };
            let report = serve_cluster(&registry, &trace, &cluster).unwrap();
            assert_eq!(
                single,
                report.serve.to_json(),
                "N=1 drifted from serve() under {policy:?} cache={cache}"
            );
            assert_eq!(
                single, fixture,
                "serve() drifted from its pinned fixture under {policy:?} cache={cache}"
            );
            assert_eq!(report.failovers, 0);
            assert_eq!(report.requests_lost, 0);
        }
    }
}

/// The N=1 serve report is pinned to a committed fixture, so a byte
/// change to either entry point is a conscious decision (`tests/pinned.rs`
/// regenerates the fixture).
#[test]
fn n1_cluster_report_matches_pinned_fixture() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 7);
    let cluster = ClusterConfig {
        fabrics: 1,
        base: base(Policy::Fcfs, 16),
        ..ClusterConfig::default()
    };
    let report = serve_cluster(&registry, &trace, &cluster).unwrap();
    let fixture = include_str!("fixtures/cluster_n1_baseline.json");
    assert_eq!(report.serve.to_json(), fixture);
    // And the fixture is exactly what serve() itself says.
    let single = serve(&registry, &trace, &cluster.base).unwrap();
    assert_eq!(single.to_json(), fixture);
}

// ------------------------------------------------------------- failover

fn failover_cluster(engine: Engine) -> ClusterConfig {
    ClusterConfig {
        fabrics: 8,
        replicas: 2,
        heartbeat_interval: 20_000,
        missed_heartbeats: 2,
        failover_budget: 3,
        prewarm_replicas: true,
        tiers: vec![
            ("vision".into(), Tier::Hard),
            ("assist".into(), Tier::Soft),
            ("keyword".into(), Tier::BestEffort),
        ],
        shed: Some(ClusterShedConfig {
            capacity_fraction: 0.95,
            shed_late: false,
        }),
        faults: kill(0, 120_000),
        base: ServeConfig {
            engine,
            weight_cache: Some(maicc_serve::cache::WeightCacheConfig::default()),
            ..base(Policy::Sjf, 8)
        },
    }
}

/// A mid-run fabric kill over 8 fabrics: the dead fabric is detected on
/// a heartbeat edge, drained, and its requests land elsewhere. Nothing
/// Hard is lost, and the cluster keeps completing work.
#[test]
fn fabric_kill_fails_over_without_losing_hard_requests() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    let cfg = failover_cluster(Engine::EventDriven);
    let report = serve_cluster(&registry, &trace, &cfg).unwrap();
    assert_eq!(report.fabrics, 8);
    assert!(report.per_fabric[0].killed);
    assert_eq!(report.hard_requests_lost, 0, "Hard tier must survive");
    assert!(report.serve.completed > 0);
    // The kill at 120k silences the 140k and 160k heartbeat edges; the
    // second miss declares the fabric dead, 40k after the outage.
    assert_eq!(report.detect_max_cycles, 40_000);
    // Anything the dead fabric held or queued was re-dispatched or was
    // never routed there; drained + failovers agree with the counters.
    assert_eq!(
        report.failovers,
        report
            .per_fabric
            .iter()
            .map(|f| f.drained)
            .sum::<u64>()
            .saturating_sub(report.requests_lost),
        "every drained request either re-dispatched or was lost"
    );
    // Fabric 0 receives nothing after detection.
    assert!(report.per_fabric[0].completed <= report.per_fabric[0].dispatched);
}

/// The full cluster report (routing, failover, shedding, cache merge)
/// is byte-identical across both engines — the same bar every
/// single-fabric report meets.
#[test]
fn cluster_failover_report_is_engine_and_thread_invariant() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 300_000, 150_000, 13);
    let mut baseline: Option<String> = None;
    for engine in [Engine::EventDriven, Engine::CycleAccurate] {
        let cfg = failover_cluster(engine);
        let json = serve_cluster(&registry, &trace, &cfg)
            .unwrap()
            .to_json();
        match &baseline {
            None => baseline = Some(json),
            Some(b) => assert_eq!(b, &json, "cluster report diverged under {engine:?}"),
        }
    }
}

/// A temporary outage rejoins on a heartbeat edge after repair: the
/// fabric comes back routable (and cold), and later work can land on it
/// again.
#[test]
fn outage_with_duration_rejoins_on_a_heartbeat_edge() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    let cfg = ClusterConfig {
        fabrics: 2,
        replicas: 2,
        heartbeat_interval: 20_000,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                at: 50_000,
                kind: FabricFaultKind::Outage {
                    duration: Some(60_000),
                },
            }],
        },
        base: base(Policy::Fcfs, 8),
        ..ClusterConfig::default()
    };
    let report = serve_cluster(&registry, &trace, &cfg).unwrap();
    assert!(report.per_fabric[0].killed);
    assert_eq!(report.hard_requests_lost, 0);
    // Down 50k-110k, rejoins at the 120k heartbeat edge; bursts keep
    // arriving until 400k, so the rejoined fabric serves again.
    assert!(
        report.per_fabric[0].completed > 0,
        "rejoined fabric never served: {:?}",
        report.per_fabric[0]
    );
    assert_eq!(report.requests_lost, 0, "a 2-fabric cluster absorbs one outage");
}

/// Losing a tile bank strands overlapping runs and re-dispatches them
/// immediately (the fabric observes its own fault — no heartbeat wait),
/// and the lost tiles never host again.
#[test]
fn tile_bank_loss_redispatches_overlapping_runs() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    let cfg = ClusterConfig {
        fabrics: 2,
        replicas: 2,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                // Mid-burst: something is running on the serpentine head.
                at: 20_000,
                kind: FabricFaultKind::TileLoss { tiles: 4 },
            }],
        },
        base: base(Policy::Fcfs, 8),
        ..ClusterConfig::default()
    };
    let report = serve_cluster(&registry, &trace, &cfg).unwrap();
    assert_eq!(report.per_fabric[0].degraded_tiles, 4);
    assert_eq!(report.per_fabric[0].tile_losses, 1);
    assert!(!report.per_fabric[0].killed, "tile loss is not an outage");
    // 8-tile pool minus 4 lost tiles still fits the small models but the
    // cluster as a whole drops nothing.
    assert_eq!(report.requests_lost, 0);
    assert_eq!(report.serve.completed, report.serve.requests);
}

/// A brownout stretches service on the slowed fabric; the run is
/// deterministic and nothing is lost, the tail just grows.
#[test]
fn brownout_stretches_service_but_loses_nothing() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    let mut cfg = ClusterConfig {
        fabrics: 2,
        replicas: 2,
        base: base(Policy::Fcfs, 8),
        ..ClusterConfig::default()
    };
    let clean = serve_cluster(&registry, &trace, &cfg).unwrap();
    cfg.faults = ClusterFaultPlan {
        events: vec![FabricFault {
            fabric: 0,
            at: 0,
            kind: FabricFaultKind::Brownout {
                factor: 4,
                duration: 400_000,
            },
        }],
    };
    let browned = serve_cluster(&registry, &trace, &cfg).unwrap();
    assert_eq!(browned.requests_lost, 0);
    assert_eq!(browned.serve.requests, clean.serve.requests);
    assert!(
        browned.serve.p99_latency_cycles > clean.serve.p99_latency_cycles,
        "a 4x brownout must show up at the tail: {} vs {}",
        browned.serve.p99_latency_cycles,
        clean.serve.p99_latency_cycles
    );
}

/// A brownout factor that stretches the run budget past the horizon is
/// refused before any work, as is a fault past the horizon: at
/// `u64::MAX` the stretched run's completion sum would overflow (a panic
/// in debug, fleet p50 = p99 = `u64::MAX` in release).
#[test]
fn a_brownout_past_the_horizon_is_rejected() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 42);
    let fault = |at: u64, factor: u64| ClusterConfig {
        fabrics: 2,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                at,
                kind: FabricFaultKind::Brownout {
                    factor,
                    duration: u64::MAX,
                },
            }],
        },
        ..ClusterConfig::default()
    };
    let budget = ServeConfig::default().run_budget;
    for (cfg, needle) in [
        (fault(100, u64::MAX), "slow factor 18446744073709551615"),
        (fault(100, HORIZON_CYCLES / budget + 1), "past the horizon"),
        (fault(HORIZON_CYCLES + 1, 2), "past the horizon"),
    ] {
        match serve_cluster(&registry, &trace, &cfg) {
            Err(ServeError::BadConfig { reason }) => assert!(
                reason.contains(needle) && reason.contains("at cycle"),
                "{reason}"
            ),
            other => panic!("expected BadConfig for `{needle}`, got {other:?}"),
        }
    }
    let report = serve_cluster(&registry, &trace, &fault(100, HORIZON_CYCLES / budget));
    assert_eq!(report.unwrap().requests_lost, 0);
}

/// A request at the horizon itself is served, on the widest cluster
/// too: the fleet's capacity of 16 fabrics × 210 tiles × 2^53 cycles
/// passes `u64::MAX` tile-cycles, so utilization must not be computed as
/// that integer product.
#[test]
fn a_request_at_the_horizon_is_served_on_a_wide_cluster() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![Request {
        id: 0,
        tenant: "t".into(),
        model: "small".into(),
        arrival: HORIZON_CYCLES,
        deadline: None,
    }]);
    let cfg = ClusterConfig {
        fabrics: 16,
        ..ClusterConfig::default()
    };
    let report = serve_cluster(&registry, &trace, &cfg).unwrap();
    assert_eq!(report.serve.completed, 1);
    assert!(report.serve.utilization > 0.0);
}

/// The horizon bounds how far one stretched run reaches, not how many
/// run back to back: on a fabric browned out for good, with room for one
/// run at a time and each run stretched to the horizon, about 2^11 runs
/// carry the clock to `u64::MAX`. The loop refuses that admission with a
/// typed error instead of wrapping.
#[test]
fn a_run_finishing_past_the_clock_range_is_a_typed_error() {
    let (registry, _) = three_model_mix();
    let small = registry.get("small").unwrap();
    let trace = |n: usize| {
        let one = Request {
            id: 0,
            tenant: "t".into(),
            model: "small".into(),
            arrival: 0,
            deadline: None,
        };
        Trace::from_requests(vec![one; n])
    };
    let base = base(Policy::Fcfs, small.tiles);
    let cycles = serve(&registry, &trace(1), &base).unwrap().outcomes[0].service_cycles;
    let cfg = ClusterConfig {
        fabrics: 1,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                at: 0,
                kind: FabricFaultKind::Brownout {
                    factor: HORIZON_CYCLES / cycles,
                    duration: u64::MAX,
                },
            }],
        },
        base: ServeConfig {
            run_budget: cycles,
            ..base
        },
        ..ClusterConfig::default()
    };
    match serve_cluster(&registry, &trace(2100), &cfg) {
        Err(ServeError::BadRequest { reason, .. }) => {
            assert!(reason.contains("past u64::MAX"), "{reason}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

// ------------------------------------------------------------- overload

/// Overload hardening composes with failover: on a 2-fabric cluster
/// running the overload mix, a permanent kill of one fabric mid-run
/// drains it onto the survivor, every request still ends with exactly
/// one outcome, and the report is byte-identical across engines.
#[test]
fn overload_cluster_survives_a_fabric_kill() {
    let (registry, loads, overload) = maicc_serve::registry::overload_mix();
    let trace = Trace::bursty(&loads, 300_000, 200_000, 42);
    let cfg = |engine: Engine| ClusterConfig {
        fabrics: 2,
        replicas: 2,
        heartbeat_interval: 20_000,
        faults: kill(0, 60_000),
        base: ServeConfig {
            engine,
            overload: Some(overload.clone()),
            retry_budget: Some(RetryBudget::default()),
            ..base(Policy::Sjf, 10)
        },
        ..ClusterConfig::default()
    };
    let report = serve_cluster(&registry, &trace, &cfg(Engine::EventDriven)).unwrap();
    assert!(report.per_fabric[0].killed);
    assert!(report.failovers > 0, "the kill strands or drains work");
    let mut ids: Vec<u64> = report.serve.outcomes.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    let all: Vec<u64> = (0..trace.requests.len() as u64).collect();
    assert_eq!(ids, all, "every request has exactly one outcome");
    assert!(report.serve.outcomes.iter().all(|o| o.tier.is_some()));
    let json = report.to_json();
    for engine in [Engine::EventDriven, Engine::CycleAccurate] {
        let alt = serve_cluster(&registry, &trace, &cfg(engine)).unwrap();
        assert_eq!(json, alt.to_json(), "{engine:?} diverged");
    }
}

// ----------------------------------------------------------- validation

#[test]
fn cluster_validation_rejects_inconsistent_configs_with_typed_errors() {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 100_000, 7);
    let check = |cfg: ClusterConfig, needle: &str| {
        match serve_cluster(&registry, &trace, &cfg) {
            Err(ServeError::BadConfig { reason }) => assert!(
                reason.contains(needle),
                "reason `{reason}` should mention `{needle}`"
            ),
            other => panic!("expected BadConfig for `{needle}`, got {other:?}"),
        }
    };
    let ok = ClusterConfig {
        fabrics: 4,
        replicas: 2,
        base: base(Policy::Fcfs, 16),
        ..ClusterConfig::default()
    };
    check(
        ClusterConfig {
            fabrics: 0,
            ..ok.clone()
        },
        "at least one fabric",
    );
    check(
        ClusterConfig {
            replicas: 0,
            ..ok.clone()
        },
        "replica factor",
    );
    check(
        ClusterConfig {
            replicas: 5,
            ..ok.clone()
        },
        "exceeds fabric count",
    );
    check(
        ClusterConfig {
            heartbeat_interval: 0,
            ..ok.clone()
        },
        "heartbeat interval",
    );
    check(
        ClusterConfig {
            missed_heartbeats: 0,
            ..ok.clone()
        },
        "missed-heartbeat",
    );
    check(
        ClusterConfig {
            base: base(Policy::Partitioned, 16),
            ..ok.clone()
        },
        "fcfs or sjf",
    );
    check(
        ClusterConfig {
            tiers: vec![("vision".into(), Tier::Hard)],
            base: ServeConfig {
                overload: Some(OverloadConfig {
                    tiers: vec![("vision".into(), Tier::Soft)],
                    ..OverloadConfig::default()
                }),
                ..base(Policy::Fcfs, 16)
            },
            ..ok.clone()
        },
        "tiers disagree",
    );
    check(
        ClusterConfig {
            faults: kill(4, 0),
            ..ok.clone()
        },
        "targets fabric 4",
    );
    check(
        ClusterConfig {
            faults: ClusterFaultPlan {
                events: vec![FabricFault {
                    fabric: 0,
                    at: 10,
                    kind: FabricFaultKind::Brownout {
                        factor: 0,
                        duration: 100,
                    },
                }],
            },
            ..ok.clone()
        },
        "slow factor 0",
    );
    check(
        ClusterConfig {
            faults: ClusterFaultPlan {
                events: vec![FabricFault {
                    fabric: 0,
                    at: 10,
                    kind: FabricFaultKind::TileLoss { tiles: 0 },
                }],
            },
            ..ok.clone()
        },
        "retires 0 tiles",
    );
    check(
        ClusterConfig {
            shed: Some(ClusterShedConfig {
                capacity_fraction: 0.0,
                shed_late: false,
            }),
            ..ok.clone()
        },
        "capacity fraction",
    );
    check(
        ClusterConfig {
            shed: Some(ClusterShedConfig {
                capacity_fraction: 1.5,
                shed_late: false,
            }),
            ..ok
        },
        "capacity fraction",
    );
}
