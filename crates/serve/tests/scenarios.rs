//! Hand-built scenarios, one per serving branch that no other test, CI
//! command, or bench reaches: queue-cap shedding, best-effort work on a
//! browned-out idle fabric, dropped and re-dispatched unrecoverable runs,
//! a queued head that outgrows its degraded pool or region, a bounce to
//! another fabric, an arrival nothing can host, an exhausted failover
//! budget, and a checkpoint resume after an outage. Each test asserts the
//! exact outcome of every request.

use maicc_serve::cache::WeightCacheConfig;
use maicc_serve::cluster::{
    serve_cluster, ClusterConfig, ClusterFaultPlan, ClusterReport, FabricFault, FabricFaultKind,
};
use maicc_serve::overload::{BrownoutConfig, OverloadConfig, Tier};
use maicc_serve::registry::three_model_mix;
use maicc_serve::server::{serve, FaultConfig, Policy, ServeConfig};
use maicc_serve::slo::ServeReport;
use maicc_serve::trace::{Request, Trace};
use maicc_serve::ServeError;
use maicc_sim::stream::RecoveryPolicy;

fn mk(tenant: &str, model: &str, arrival: u64) -> Request {
    Request {
        id: 0, // reassigned by `from_requests`
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    }
}

fn recovery(remap: bool) -> Option<RecoveryPolicy> {
    Some(RecoveryPolicy {
        max_replays: 8,
        remap,
        checkpoint_values: 8,
    })
}

fn fail_at(ids: &[u64]) -> Option<FaultConfig> {
    Some(FaultConfig {
        fail_at_requests: ids.to_vec(),
        ..FaultConfig::default()
    })
}

/// Every outcome as `id:status@admitted-finished`, plus retries (`rN`)
/// and preemptions (`pN`) when non-zero, then the degraded tile count.
fn summary(report: &ServeReport) -> String {
    let mut s: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            let status = match (o.dropped, o.shed, o.ok) {
                (true, true, _) => "shed",
                (true, false, _) => "lost",
                (false, _, true) => "ok",
                (false, _, false) => "bad",
            };
            let mut e = format!("{}:{status}@{}-{}", o.id, o.admitted, o.finished);
            if o.retries > 0 {
                e.push_str(&format!(" r{}", o.retries));
            }
            if o.preemptions > 0 {
                e.push_str(&format!(" p{}", o.preemptions));
            }
            e
        })
        .collect();
    s.push(format!("deg={}", report.degraded_tiles));
    s.join(" | ")
}

fn cluster_summary(report: &ClusterReport) -> String {
    format!(
        "fo={} lost={} | {}",
        report.failovers,
        report.requests_lost,
        summary(&report.serve)
    )
}

/// Asserts a run's summary (or its error) equals `want`.
fn check(name: &str, got: Result<String, ServeError>, want: &str) {
    let text = match got {
        Ok(s) => s,
        Err(e) => format!("ERR({e})"),
    };
    assert_eq!(text, want, "{name}");
}

// ------------------------------------------------------------ overload

/// An arrival past its tenant's queue cap is shed on the spot.
#[test]
fn queue_cap_sheds_the_arrival_past_the_cap() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![
        mk("t", "two_layer", 0),
        mk("t", "two_layer", 1_000),
        mk("t", "two_layer", 2_000),
    ]);
    let cfg = ServeConfig {
        pool_tiles: 8,
        overload: Some(OverloadConfig {
            queue_cap: 1,
            ..OverloadConfig::default()
        }),
        ..ServeConfig::default()
    };
    check(
        "queue cap",
        serve(&registry, &trace, &cfg).map(|r| summary(&r)),
        "0:ok@0-46692 | 1:ok@46692-93384 | 2:shed@2000-2000 | deg=0",
    );
}

/// A Hard arrival evicts both best-effort runners under an active
/// brownout, then dies unrecoverably, leaving the fabric idle with only
/// brownout-capped best-effort work queued: the first victim is
/// admitted anyway, since an idle fabric has nothing to protect.
#[test]
fn brownout_never_blocks_an_idle_fabric() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![
        mk("x", "two_layer", 0),
        mk("y", "small", 1_000),
        mk("h", "resnet18_segment", 5_000),
    ]);
    let h = trace.requests.iter().find(|r| r.tenant == "h").unwrap().id;
    let cfg = ServeConfig {
        pool_tiles: 10,
        recovery: recovery(false),
        fault: fail_at(&[h]),
        overload: Some(OverloadConfig {
            tiers: vec![
                ("h".into(), Tier::Hard),
                ("x".into(), Tier::BestEffort),
                ("y".into(), Tier::BestEffort),
            ],
            brownout: Some(BrownoutConfig {
                high_water: 0.5,
                window_cycles: 1_000,
                best_effort_fraction: 0.2,
            }),
            ..OverloadConfig::default()
        }),
        ..ServeConfig::default()
    };
    check(
        "idle brownout",
        serve(&registry, &trace, &cfg).map(|r| summary(&r)),
        "0:ok@5000-51692 p1 | 1:ok@51692-72941 p1 | 2:lost@5000-5000 | deg=0",
    );
}

// ------------------------------------------------------- static policies

/// Without a retry budget an unrecoverable run is recorded lost and the
/// fabric moves on.
#[test]
fn unrecoverable_run_without_retry_budget_is_lost() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![mk("a", "small", 0), mk("b", "small", 10_000)]);
    for policy in Policy::ALL {
        let cfg = ServeConfig {
            policy,
            pool_tiles: 10,
            recovery: recovery(false),
            fault: fail_at(&[0]),
            ..ServeConfig::default()
        };
        check(
            &format!("{policy:?}"),
            serve(&registry, &trace, &cfg).map(|r| summary(&r)),
            "0:lost@0-0 | 1:ok@10000-31249 | deg=0",
        );
    }
}

/// Two faulted runs retire two tiles of an 8-tile pool while a 7-tile
/// segment waits behind them; once the fabric is idle the segment can
/// never fit again, under any policy, with or without overload
/// hardening.
#[test]
fn queued_head_that_outgrows_the_degraded_pool() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![
        mk("a", "small", 0),
        mk("b", "small", 0),
        mk("c", "resnet18_segment", 0),
    ]);
    // Once the fabric is idle the segment can never be placed again:
    // the router has nowhere else to send it, so it is recorded lost.
    let outgrown = "0:ok@0-21325 | 1:ok@0-21325 | 2:lost@21325-21325 | deg=2";
    let confined = "0:lost@0-0 | 1:lost@0-0 | 2:ok@0-150607 | deg=0";
    let rows: [(Policy, bool, bool, u64, &str); 8] = [
        (Policy::Fcfs, false, false, 8, outgrown),
        (Policy::Sjf, false, false, 8, outgrown),
        (Policy::Fcfs, false, true, 8, outgrown),
        (Policy::Sjf, false, true, 8, outgrown),
        (Policy::Fcfs, true, false, 8, confined),
        (Policy::Sjf, true, true, 8, confined),
        // Time-sharing runs the two faulted requests one after the other.
        (
            Policy::TimeShared,
            false,
            false,
            8,
            "0:ok@0-21325 | 1:ok@21325-42653 | 2:lost@42653-42653 | deg=2",
        ),
        // Exact-size regions leave remap no spare either.
        (
            Policy::Partitioned,
            false,
            false,
            13,
            "0:lost@0-0 | 1:lost@0-0 | 2:ok@0-87087 | deg=0",
        ),
    ];
    for (policy, cache, overload, pool, want) in rows {
        let cfg = ServeConfig {
            policy,
            pool_tiles: pool as usize,
            recovery: recovery(true),
            fault: fail_at(&[0, 1]),
            overload: overload.then(OverloadConfig::default),
            weight_cache: cache.then(WeightCacheConfig::default),
            ..ServeConfig::default()
        };
        check(
            &format!("{policy:?} cache={cache} overload={overload}"),
            serve(&registry, &trace, &cfg).map(|r| summary(&r)),
            want,
        );
    }
}

/// The same shrinking pool, but the segment arrives after the faulted
/// runs retired their tiles: no fabric can host it any more, so it is
/// recorded lost on arrival rather than queued.
#[test]
fn arrival_that_outgrows_the_degraded_pool_is_lost() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![
        mk("a", "small", 0),
        mk("b", "small", 0),
        mk("c", "resnet18_segment", 10),
    ]);
    for overload in [false, true] {
        let cfg = ServeConfig {
            pool_tiles: 8,
            recovery: recovery(true),
            fault: fail_at(&[0, 1]),
            overload: overload.then(OverloadConfig::default),
            ..ServeConfig::default()
        };
        check(
            &format!("overload={overload}"),
            serve(&registry, &trace, &cfg).map(|r| summary(&r)),
            "0:ok@0-21325 | 1:ok@0-21325 | 2:lost@10-10 | deg=2",
        );
    }
}

/// Under partitioning a faulted run retires a tile of its tenant's
/// region and the partition can no longer be re-carved from the healthy
/// pool, so the regions stay as they were. The tenant's next 7-tile
/// request no longer fits its region on the idle fabric and is recorded
/// lost; the other tenant keeps being served.
#[test]
fn partitioned_head_that_outgrows_its_degraded_region() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![
        mk("v", "small", 0),
        mk("k", "small", 0),
        mk("v", "resnet18_segment", 50_000),
        mk("k", "small", 60_000),
    ]);
    let cfg = ServeConfig {
        policy: Policy::Partitioned,
        pool_tiles: 10,
        recovery: recovery(true),
        fault: fail_at(&[1]),
        ..ServeConfig::default()
    };
    check(
        "partitioned",
        serve(&registry, &trace, &cfg).map(|r| summary(&r)),
        "0:ok@0-21249 | 1:ok@0-21325 | 2:lost@50000-50000 | 3:ok@60000-81249 | deg=1",
    );
}

// --------------------------------------------------------------- cluster

fn two_fabrics(base: ServeConfig, events: Vec<FabricFault>) -> ClusterConfig {
    ClusterConfig {
        fabrics: 2,
        heartbeat_interval: 20_000,
        faults: ClusterFaultPlan { events },
        base,
        ..ClusterConfig::default()
    }
}

/// A tile-bank loss strands the small run ahead of a queued segment;
/// the small run re-admits on its home fabric, and when that fabric is
/// idle again the segment no longer fits it and bounces to the other,
/// with the weight cache off and on.
#[test]
fn head_that_no_longer_fits_an_idle_fabric_bounces() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![mk("a", "small", 0), mk("b", "resnet18_segment", 10)]);
    for (cache, want) in [
        (
            false,
            "fo=2 lost=0 | 0:ok@100-21349 r1 | 1:ok@21349-108436 r1 | deg=2",
        ),
        (
            true,
            "fo=2 lost=0 | 0:ok@100-50725 r1 | 1:ok@50725-201332 r1 | deg=2",
        ),
    ] {
        let cfg = two_fabrics(
            ServeConfig {
                pool_tiles: 8,
                weight_cache: cache.then(WeightCacheConfig::default),
                ..ServeConfig::default()
            },
            vec![FabricFault {
                fabric: 0,
                at: 100,
                kind: FabricFaultKind::TileLoss { tiles: 2 },
            }],
        );
        check(
            &format!("cache={cache}"),
            serve_cluster(&registry, &trace, &cfg).map(|r| cluster_summary(&r)),
            want,
        );
    }
}

/// After a tile-bank loss no fabric can host the segment: its arrival
/// is recorded lost at once.
#[test]
fn arrival_no_fabric_can_host_is_lost() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![mk("a", "small", 0), mk("b", "resnet18_segment", 10)]);
    let cfg = ClusterConfig {
        fabrics: 1,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                at: 5,
                kind: FabricFaultKind::TileLoss { tiles: 2 },
            }],
        },
        base: ServeConfig {
            pool_tiles: 8,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    check(
        "arrival",
        serve_cluster(&registry, &trace, &cfg).map(|r| cluster_summary(&r)),
        "fo=1 lost=1 | 0:ok@5-21254 r1 | 1:lost@10-10 | deg=2",
    );
}

/// An unrecoverable run is re-dispatched under the failover budget and
/// completes on its second attempt; with a zero budget it is lost.
#[test]
fn unrecoverable_run_redispatches_until_the_budget_runs_out() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![mk("a", "small", 0), mk("b", "two_layer", 0)]);
    for (budget, want) in [
        (3, "fo=1 lost=0 | 0:ok@0-21249 r1 | 1:ok@0-46692 | deg=0"),
        (0, "fo=0 lost=1 | 0:lost@0-0 | 1:ok@0-46692 | deg=0"),
    ] {
        let mut cfg = two_fabrics(
            ServeConfig {
                pool_tiles: 8,
                recovery: recovery(false),
                fault: fail_at(&[0]),
                ..ServeConfig::default()
            },
            Vec::new(),
        );
        cfg.failover_budget = budget;
        check(
            &format!("budget {budget}"),
            serve_cluster(&registry, &trace, &cfg).map(|r| cluster_summary(&r)),
            want,
        );
    }
}

/// An outage strands a checkpointed run; after detection it resumes on
/// the surviving fabric from its last checkpoint instead of from zero.
#[test]
fn stranded_run_resumes_from_its_checkpoint() {
    let (registry, _) = three_model_mix();
    let trace = Trace::from_requests(vec![mk("a", "resnet18_segment", 0)]);
    let cfg = two_fabrics(
        ServeConfig {
            pool_tiles: 8,
            recovery: recovery(true),
            ..ServeConfig::default()
        },
        vec![FabricFault {
            fabric: 0,
            at: 60_000,
            kind: FabricFaultKind::Outage { duration: None },
        }],
    );
    check(
        "resume",
        serve_cluster(&registry, &trace, &cfg).map(|r| cluster_summary(&r)),
        "fo=1 lost=0 | 0:ok@100000-131860 r1 | deg=0",
    );
}
