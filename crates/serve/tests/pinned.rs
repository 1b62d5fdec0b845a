//! Pinned serving behaviour: every row below renders one serving run to
//! text and compares it byte-for-byte with a committed fixture. A change
//! to any report, cluster report, or telemetry stream therefore shows up
//! as a reviewable fixture diff instead of drifting silently.
//!
//! Regenerate every fixture after a deliberate change with
//! `cargo test -p maicc-serve --test pinned -- --ignored regenerate`,
//! then review and commit the diff.

use maicc_noc::{NocFaultPlan, RetryPolicy};
use maicc_serve::cache::WeightCacheConfig;
use maicc_serve::cluster::{
    serve_cluster, serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan, ClusterShedConfig,
    FabricFault, FabricFaultKind,
};
use maicc_serve::overload::{RetryBudget, Tier};
use maicc_serve::registry::{overload_mix, three_model_mix, ModelRegistry};
use maicc_serve::server::{serve, serve_with_obs, FaultConfig, Policy, ServeConfig};
use maicc_serve::trace::{Request, Trace};
use maicc_sim::stream::{Engine, RecoveryPolicy};
use maicc_sram::ecc::EccMode;
use maicc_sram::fault::FaultPlan;

/// One pinned output: the fixture file (under `tests/fixtures/`) and the
/// run that must reproduce it.
type Row = (&'static str, fn() -> String);

const ROWS: &[Row] = &[
    // The three fixtures pinned before this table existed. Their named
    // tests in cache.rs, cluster.rs and obs.rs still check them; the rows
    // here keep `regenerate` the one writer of every fixture.
    ("pr7_baseline.json", pr7_baseline),
    ("cluster_n1_baseline.json", n1_baseline_serve),
    ("cluster_n1_baseline.json", n1_baseline_cluster),
    ("soak_clean.jsonl", soak_clean),
    // `maicc serve --quick --json` (CI compares the CLI against this).
    ("serve_quick.json", serve_quick_cli),
    // `maicc serve --overload --quick`: report and telemetry stream.
    ("overload_quick.json", overload_quick_report),
    ("overload_quick_obs.jsonl", overload_quick_obs),
    // The same run under the fleet fault config of perfbench's
    // `overload_faults`: ECC-corrected CMem flips and CRC-retried NoC
    // corruption on every run.
    ("overload_quick_faults.json", overload_quick_faults),
    // The static policies on the retirement churn trace and on Poisson.
    ("partitioned_churn.json", partitioned_churn),
    ("time_shared_churn.json", time_shared_churn),
    ("partitioned_poisson.json", partitioned_poisson),
    ("time_shared_poisson.json", time_shared_poisson),
    // FCFS and SJF with the weight cache on the cache-smoke Zipf mix.
    ("fcfs_cache_zipf.json", fcfs_cache_zipf),
    ("sjf_cache_zipf.json", sjf_cache_zipf),
    // FCFS with a targeted hard fault and remap recovery.
    ("fcfs_fail_at_remap.json", fcfs_fail_at_remap),
    // The 8-fabric failover cluster of cluster-smoke.
    ("cluster_failover_8.json", cluster_failover_8),
    // The single-fabric parity configs: FCFS/SJF × weight cache off/on,
    // through serve() and through a zero-fault one-fabric cluster (also
    // checked by cluster.rs's
    // `n1_zero_fault_cluster_matches_single_fabric_byte_for_byte`).
    ("parity_fcfs.json", parity_fcfs),
    ("parity_fcfs.json", parity_fcfs_cluster),
    ("parity_sjf.json", parity_sjf),
    ("parity_sjf.json", parity_sjf_cluster),
    ("parity_fcfs_cache.json", parity_fcfs_cache),
    ("parity_fcfs_cache.json", parity_fcfs_cache_cluster),
    ("parity_sjf_cache.json", parity_sjf_cache),
    ("parity_sjf_cache.json", parity_sjf_cache_cluster),
];

fn fixture_path(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_pinned_row_matches_its_fixture() {
    let mut drifted = Vec::new();
    for &(fixture, render) in ROWS {
        let want = std::fs::read_to_string(fixture_path(fixture))
            .unwrap_or_else(|e| panic!("{fixture}: {e}"));
        if render() != want {
            drifted.push(fixture);
        }
    }
    assert!(
        drifted.is_empty(),
        "outputs drifted from fixtures: {drifted:?}"
    );
}

/// Rewrites every fixture from the current code. Rows sharing a fixture
/// must agree; the first one writes it.
#[test]
#[ignore = "rewrites tests/fixtures/"]
fn regenerate() {
    let mut written: Vec<(&str, String)> = Vec::new();
    for &(fixture, render) in ROWS {
        let text = render();
        match written.iter().find(|(f, _)| *f == fixture) {
            Some((_, first)) => assert_eq!(first, &text, "rows of {fixture} disagree"),
            None => {
                std::fs::write(fixture_path(fixture), &text).unwrap();
                written.push((fixture, text));
            }
        }
    }
}

// ------------------------------------------------------------- helpers

fn base(policy: Policy, pool_tiles: usize) -> ServeConfig {
    ServeConfig {
        policy,
        pool_tiles,
        ..ServeConfig::default()
    }
}

fn remap() -> Option<RecoveryPolicy> {
    Some(RecoveryPolicy {
        max_replays: 8,
        remap: true,
        checkpoint_values: 8,
    })
}

fn report(registry: &ModelRegistry, trace: &Trace, cfg: &ServeConfig) -> String {
    serve(registry, trace, cfg).unwrap().to_json()
}

/// The serve report a zero-fault one-fabric cluster embeds.
fn n1_report(registry: &ModelRegistry, trace: &Trace, cfg: &ServeConfig) -> String {
    let cluster = ClusterConfig {
        fabrics: 1,
        base: cfg.clone(),
        ..ClusterConfig::default()
    };
    serve_cluster(registry, trace, &cluster)
        .unwrap()
        .serve
        .to_json()
}

// ----------------------------------------------------------------- rows

fn pr7_baseline() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 600_000, 200_000, 42);
    report(&registry, &trace, &base(Policy::Sjf, 8))
}

fn n1_baseline_serve() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 7);
    report(&registry, &trace, &base(Policy::Fcfs, 16))
}

fn n1_baseline_cluster() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 7);
    n1_report(&registry, &trace, &base(Policy::Fcfs, 16))
}

/// The `maicc soak --quick` run.
fn soak_clean() -> String {
    let horizon = 600_000;
    let (registry, loads) = three_model_mix();
    let mut ranked = loads;
    ranked.reverse();
    let trace = Trace::diurnal(&ranked, horizon, 12_000, 1.1, 200_000, 42);
    let cfg = ClusterConfig {
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
        faults: ClusterFaultPlan::churn(4, horizon, 150_000, 42),
        base: ServeConfig {
            policy: Policy::Sjf,
            engine: Engine::EventDriven,
            pool_tiles: 16,
            weight_cache: Some(WeightCacheConfig::default()),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    serve_cluster_with_obs(&registry, &trace, &cfg, 50_000)
        .unwrap()
        .1
}

fn serve_quick_cli() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 42);
    format!("{}\n", report(&registry, &trace, &base(Policy::Fcfs, 16)))
}

/// The `maicc serve --overload --quick` config.
fn overload_quick() -> (ModelRegistry, Trace, ServeConfig) {
    let (registry, loads, overload) = overload_mix();
    let trace = Trace::bursty(&loads, 300_000, 200_000, 42);
    let fail_at = trace
        .requests
        .iter()
        .filter(|r| r.tenant == "vision")
        .take(2)
        .map(|r| r.id)
        .collect();
    let cfg = ServeConfig {
        recovery: remap(),
        fault: Some(FaultConfig {
            fail_at_requests: fail_at,
            ..FaultConfig::default()
        }),
        overload: Some(overload),
        retry_budget: Some(RetryBudget::default()),
        ..base(Policy::Sjf, 10)
    };
    (registry, trace, cfg)
}

fn overload_quick_report() -> String {
    let (registry, trace, cfg) = overload_quick();
    report(&registry, &trace, &cfg)
}

fn overload_quick_obs() -> String {
    let (registry, trace, cfg) = overload_quick();
    serve_with_obs(&registry, &trace, &cfg, 50_000).unwrap().1
}

/// `overload_quick` with CMem transients at 1e-4 under ECC correction,
/// NoC corruption at 1e-3 under the default retransmission policy, and
/// the dead slice on the first two vision requests kept.
fn overload_quick_faults() -> String {
    let (registry, trace, mut cfg) = overload_quick();
    let fault = cfg
        .fault
        .as_mut()
        .expect("overload_quick has a fault config");
    fault.cmem = Some(FaultPlan::with_seed(1).transient(1e-4));
    fault.noc = Some(NocFaultPlan::with_seed(2).corrupt_rate(1e-3));
    fault.ecc = EccMode::Correct;
    fault.retry = Some(RetryPolicy::default());
    report(&registry, &trace, &cfg)
}

/// The retirement churn trace: a faulted 3-tile run retires a tile while
/// a 7-tile segment is still to come.
fn churn(policy: Policy) -> String {
    let (registry, _) = three_model_mix();
    let mk = |tenant: &str, model: &str, arrival: u64| Request {
        id: 0,
        tenant: tenant.into(),
        model: model.into(),
        arrival,
        deadline: None,
    };
    let trace = Trace::from_requests(vec![
        mk("vision", "small", 0),
        mk("keyword", "small", 50_000),
        mk("vision", "resnet18_segment", 100_000),
        mk("keyword", "small", 150_000),
    ]);
    let cfg = ServeConfig {
        recovery: remap(),
        fault: Some(FaultConfig {
            fail_at_requests: vec![0],
            ..FaultConfig::default()
        }),
        ..base(policy, 16)
    };
    report(&registry, &trace, &cfg)
}

fn partitioned_churn() -> String {
    churn(Policy::Partitioned)
}

fn time_shared_churn() -> String {
    churn(Policy::TimeShared)
}

fn poisson_mix(policy: Policy) -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 400_000, 7);
    report(&registry, &trace, &base(policy, 16))
}

fn partitioned_poisson() -> String {
    poisson_mix(Policy::Partitioned)
}

fn time_shared_poisson() -> String {
    poisson_mix(Policy::TimeShared)
}

/// `maicc serve --quick --zipf 2.0 --weight-cache` under `policy`.
fn cache_zipf(policy: Policy) -> String {
    let (registry, loads) = three_model_mix();
    let mut ranked = loads;
    ranked.reverse();
    let trace = Trace::zipf(&ranked, 300_000, 14_000, 2.0, 42);
    let cfg = ServeConfig {
        weight_cache: Some(WeightCacheConfig::default()),
        ..base(policy, 16)
    };
    report(&registry, &trace, &cfg)
}

fn fcfs_cache_zipf() -> String {
    cache_zipf(Policy::Fcfs)
}

fn sjf_cache_zipf() -> String {
    cache_zipf(Policy::Sjf)
}

fn fcfs_fail_at_remap() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::poisson(&loads, 300_000, 7);
    let cfg = ServeConfig {
        recovery: remap(),
        fault: Some(FaultConfig {
            fail_at_requests: vec![trace.requests[0].id, trace.requests[2].id],
            ..FaultConfig::default()
        }),
        ..base(Policy::Fcfs, 16)
    };
    report(&registry, &trace, &cfg)
}

/// `maicc serve --quick --bursty --policy sjf --weight-cache --fabrics 8
/// --replicas 2 --heartbeat 20000 --pool 8 --fabric-fault
/// outage:0:120000 --json`.
fn cluster_failover_8() -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 300_000, 200_000, 42);
    let cfg = ClusterConfig {
        fabrics: 8,
        replicas: 2,
        heartbeat_interval: 20_000,
        faults: ClusterFaultPlan {
            events: vec![FabricFault {
                fabric: 0,
                at: 120_000,
                kind: FabricFaultKind::Outage { duration: None },
            }],
        },
        base: ServeConfig {
            weight_cache: Some(WeightCacheConfig::default()),
            ..base(Policy::Sjf, 8)
        },
        ..ClusterConfig::default()
    };
    serve_cluster(&registry, &trace, &cfg).unwrap().to_json()
}

fn parity(policy: Policy, cache: bool, cluster: bool) -> String {
    let (registry, loads) = three_model_mix();
    let trace = Trace::bursty(&loads, 400_000, 150_000, 13);
    let cfg = ServeConfig {
        weight_cache: cache.then(WeightCacheConfig::default),
        ..base(policy, 8)
    };
    if cluster {
        n1_report(&registry, &trace, &cfg)
    } else {
        report(&registry, &trace, &cfg)
    }
}

fn parity_fcfs() -> String {
    parity(Policy::Fcfs, false, false)
}

fn parity_fcfs_cluster() -> String {
    parity(Policy::Fcfs, false, true)
}

fn parity_sjf() -> String {
    parity(Policy::Sjf, false, false)
}

fn parity_sjf_cluster() -> String {
    parity(Policy::Sjf, false, true)
}

fn parity_fcfs_cache() -> String {
    parity(Policy::Fcfs, true, false)
}

fn parity_fcfs_cache_cluster() -> String {
    parity(Policy::Fcfs, true, true)
}

fn parity_sjf_cache() -> String {
    parity(Policy::Sjf, true, false)
}

fn parity_sjf_cache_cluster() -> String {
    parity(Policy::Sjf, true, true)
}
