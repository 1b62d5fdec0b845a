//! `soak_cluster`: the `maicc soak` shape over thirty diurnal days: four
//! fabrics, two replicas per model, seeded fault churn, the weight cache,
//! SJF, two stepping workers and the interval telemetry recorder. The
//! memo of fault-free runs absorbs almost every simulation, so the
//! cluster router, admission, cache, failover and obs bookkeeping do a
//! larger share of the host work than in any other workload; the traced
//! run estimates that share from the worker count.

use crate::inputs::SOAK_FABRICS;
use crate::metrics::{median, Checks, Sheet};
use crate::serving::{self, ObsTotals};
use crate::spans::{Profile, Tracer};
use crate::Workload;
use maicc::exec::mapping::{healthy_order, zigzag_order, Tile};
use maicc::serve::cache::{WeightCache, WeightCacheConfig};
use maicc::serve::cluster::{
    serve_cluster, serve_cluster_with_obs, ClusterConfig, ClusterFaultPlan, ClusterReport,
    ClusterShedConfig,
};
use maicc::serve::overload::Tier;
use maicc::serve::registry::ModelRegistry;
use maicc::serve::server::{Policy, ServeConfig};
use maicc::serve::slo::{CacheReport, ServeReport};
use maicc::serve::trace::Trace;
use maicc::sim::stream::StreamSim;
use std::time::Instant;

/// Stepping workers per simulation.
const WORKERS: usize = 2;
const POOL_TILES: usize = 16;
/// Obs window, fabric cycles.
const OBS_INTERVAL: u64 = 50_000;
/// Rounds of the traced run's obs and worker arms.
const ARM_ROUNDS: usize = 5;
/// Rounds of each model's standalone one-against-two-worker timing.
const EXCHANGE_ROUNDS: usize = 7;
/// Below this speed-up from the second worker (a host with one core),
/// the worker-count estimate of the simulator's share is not made.
const MIN_EXCHANGE: f64 = 1.2;
/// Cycle budget of a standalone simulation.
const BUDGET: u64 = 5_000_000;

pub struct Soak {
    registry: ModelRegistry,
    /// One trace and its cluster config (with its fault churn) per input.
    cases: Vec<(Trace, ClusterConfig)>,
    last: Vec<(ClusterReport, String)>,
}

impl Soak {
    pub fn new(registry: ModelRegistry, inputs: Vec<(Trace, ClusterFaultPlan)>) -> Self {
        let cases = inputs
            .into_iter()
            .map(|(trace, faults)| {
                let cfg = ClusterConfig {
                    fabrics: SOAK_FABRICS,
                    replicas: 2,
                    heartbeat_interval: 20_000,
                    prewarm_replicas: true,
                    tiers: vec![
                        ("vision".into(), Tier::Hard),
                        ("assist".into(), Tier::Soft),
                        ("keyword".into(), Tier::BestEffort),
                    ],
                    shed: Some(ClusterShedConfig::default()),
                    faults,
                    base: ServeConfig {
                        policy: Policy::Sjf,
                        threads: WORKERS,
                        pool_tiles: POOL_TILES,
                        weight_cache: Some(WeightCacheConfig::default()),
                        ..ServeConfig::default()
                    },
                    ..ClusterConfig::default()
                };
                (trace, cfg)
            })
            .collect();
        Soak {
            registry,
            cases,
            last: Vec::new(),
        }
    }

    /// Host seconds of each case under one arm: obs on or off, and the
    /// stepping workers per simulation. Each report must match the timed
    /// passes' byte for byte.
    fn arm(&self, obs: bool, workers: usize, checks: &mut Checks) -> Vec<f64> {
        let mut seconds = Vec::new();
        for ((trace, cfg), (report, _)) in self.cases.iter().zip(&self.last) {
            let mut cfg = cfg.clone();
            cfg.base.threads = workers;
            let start = Instant::now();
            let got = if obs {
                serve_cluster_with_obs(&self.registry, trace, &cfg, OBS_INTERVAL).map(|(r, _)| r)
            } else {
                serve_cluster(&self.registry, trace, &cfg)
            };
            seconds.push(start.elapsed().as_secs_f64());
            checks.check(got.is_ok_and(|r| r.to_json() == report.to_json()), || {
                format!("cluster report differs with obs {obs} and {workers} workers")
            });
        }
        seconds
    }

    /// How many times as long the registry's models take at one stepping
    /// worker as at `WORKERS`, each simulated once (`new` plus `run`,
    /// placed in a soak pool): the sum of their median times at one
    /// worker over the sum at `WORKERS`.
    fn exchange(&self, checks: &mut Checks) -> f64 {
        let mut pool = healthy_order(&[]);
        pool.truncate(POOL_TILES);
        let mask: Vec<Tile> = zigzag_order()
            .into_iter()
            .filter(|t| !pool.contains(t))
            .collect();
        let (mut one, mut many) = (0.0, 0.0);
        for entry in self.registry.entries() {
            let mut times = [Vec::new(), Vec::new()];
            let mut cycles = Vec::new();
            for _ in 0..EXCHANGE_ROUNDS {
                for (workers, t) in [WORKERS, 1].into_iter().zip(&mut times) {
                    let start = Instant::now();
                    let run = StreamSim::new_avoiding(&entry.stream, &mask).and_then(|mut sim| {
                        sim.set_parallelism(workers);
                        sim.run(BUDGET)
                    });
                    t.push(start.elapsed().as_secs_f64());
                    match run {
                        Ok(r) => cycles.push(r.cycles),
                        Err(e) => checks.check(false, || format!("{}: {e}", entry.name)),
                    }
                }
            }
            checks.check(cycles.windows(2).all(|w| w[0] == w[1]), || {
                format!(
                    "{} modelled other cycles at 1 and {WORKERS} workers",
                    entry.name
                )
            });
            many += median(&times[0]);
            one += median(&times[1]);
        }
        one / many.max(1e-12)
    }
}

impl Workload for Soak {
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> String {
        self.last.clear();
        let mut bytes = String::new();
        for (trace, cfg) in &self.cases {
            let run = tr.span("serve.call", || {
                serve_cluster_with_obs(&self.registry, trace, cfg, OBS_INTERVAL)
            });
            match run {
                Ok((report, jsonl)) => {
                    checks.check(report.hard_requests_lost == 0, || {
                        format!("{} Hard-tier requests lost", report.hard_requests_lost)
                    });
                    serving::check_outcomes(&report.serve.outcomes, checks);
                    bytes.push_str(&report.to_json());
                    bytes.push_str(&jsonl);
                    self.last.push((report, jsonl));
                }
                Err(e) => checks.check(false, || format!("serve_cluster_with_obs: {e}")),
            }
        }
        bytes
    }

    fn finish(&mut self, checks: &mut Checks, sheet: &mut Sheet) {
        let n = self.last.len();
        let makespans: u64 = self.last.iter().map(|(r, _)| r.serve.makespan_cycles).sum();
        sheet.set(
            "makespan_cycles",
            makespans as f64 / n.max(1) as f64,
            "cycles",
            n,
        );
        let outcomes: Vec<_> = self
            .last
            .iter()
            .flat_map(|(r, _)| r.serve.outcomes.iter().cloned())
            .collect();
        serving::record_outcomes(&outcomes, makespans, sheet);
        let (mut obs, mut totals) = (ObsTotals::default(), ObsTotals::default());
        for ((trace, cfg), (report, jsonl)) in self.cases.iter().zip(&self.last) {
            match serve_cluster(&self.registry, trace, cfg) {
                Ok(plain) => checks.check(plain.to_json() == report.to_json(), || {
                    "cluster report bytes differ with obs off".into()
                }),
                Err(e) => checks.check(false, || format!("serve_cluster: {e}")),
            }
            match serving::obs_totals(jsonl) {
                Ok(o) => obs.add(&o),
                Err(e) => checks.check(false, || e),
            }
            totals.add(&ObsTotals {
                completions: report.serve.completed,
                sheds: report.cluster_shed,
                lost: report.requests_lost,
                failovers: report.failovers,
                ..ObsTotals::default()
            });
        }
        serving::record_obs(&obs, &totals, sheet);
    }

    fn layers(&mut self, profile: &Profile, checks: &mut Checks, sheet: &mut Sheet) {
        let reports: Vec<&ClusterReport> = self.last.iter().map(|(r, _)| r).collect();
        let serves: Vec<&ServeReport> = reports.iter().map(|r| &r.serve).collect();
        serving::record_serve_layers(&serves, profile, sheet);
        let caches: Vec<&CacheReport> = serves.iter().filter_map(|r| r.cache.as_ref()).collect();
        let sum = |f: fn(&CacheReport) -> u64| caches.iter().map(|&c| f(c)).sum::<u64>();
        let (hits, admissions) = (sum(|c| c.hits), sum(|c| c.hits + c.misses));
        let (used, issued) = (sum(|c| c.prefetch_used), sum(|c| c.prefetch_issued));
        sheet.set(
            "cache.hit_rate",
            hits as f64 / admissions.max(1) as f64,
            "ratio",
            admissions as usize,
        );
        sheet.set("cache.evictions", sum(|c| c.evictions) as f64, "count", 1);
        sheet.set("cache.llc_hits", sum(|c| c.llc_hits) as f64, "count", 1);
        sheet.set(
            "cache.prefetch_accuracy",
            used as f64 / issued.max(1) as f64,
            "ratio",
            issued as usize,
        );
        for entry in self.registry.entries() {
            let cycles = WeightCache::write_phase(entry).cycles;
            sheet.set(
                &format!("mem.write_phase_cycles.{}", entry.name),
                cycles as f64,
                "cycles",
                1,
            );
        }
        let n = reports.len();
        let total =
            |f: fn(&ClusterReport) -> u64| reports.iter().map(|&r| f(r)).sum::<u64>() as f64;
        sheet.set("cluster.failovers", total(|r| r.failovers), "count", 1);
        sheet.set("cluster.lost", total(|r| r.requests_lost), "count", 1);
        sheet.set("cluster.shed", total(|r| r.cluster_shed), "count", 1);
        // tail figures are per run, so report their mean over the runs
        let mean = |f: fn(&ClusterReport) -> u64| total(f) / n.max(1) as f64;
        sheet.set(
            "cluster.detect_p50_cycles",
            mean(|r| r.detect_p50_cycles),
            "cycles",
            n,
        );
        sheet.set(
            "cluster.failover_p99_cycles",
            mean(|r| r.failover_p99_cycles),
            "cycles",
            n,
        );

        // Three arms on the same inputs, rounds interleaved: obs on,
        // obs off, and obs off at one stepping worker. Each arm's figure
        // is the sum over the cases of each case's median.
        let mut times = [vec![], vec![], vec![]];
        for _ in 0..ARM_ROUNDS {
            for ((obs, workers), t) in [(true, WORKERS), (false, WORKERS), (false, 1)]
                .into_iter()
                .zip(&mut times)
            {
                t.push(self.arm(obs, workers, checks));
            }
        }
        let [on, off, one] = times.map(|rounds: Vec<Vec<f64>>| {
            (0..self.last.len())
                .map(|c| median(&rounds.iter().map(|r| r[c]).collect::<Vec<_>>()))
                .sum::<f64>()
        });
        sheet.set("obs.overhead_s", on - off, "s", ARM_ROUNDS);

        // Spans cannot split the simulator from the cluster bookkeeping
        // inside one serve_cluster call, but the worker count can: it
        // changes only how fast the simulations step, while the reports,
        // and with them the memo misses and every bookkeeping step, stay
        // the same. With the simulations taking S at WORKERS workers and
        // e times as long at one, `one - off = S * (e - 1)`.
        let e = self.exchange(checks);
        sheet.set("soak.exchange_speedup", e, "ratio", EXCHANGE_ROUNDS);
        sheet.set("soak.one_worker_s", one, "s", ARM_ROUNDS);
        sheet.set("soak.workers_s", off, "s", ARM_ROUNDS);
        let share = if e > MIN_EXCHANGE {
            (one - off) / (e - 1.0) / off.max(1e-9)
        } else {
            0.0
        };
        sheet.set("sim.worker_share", share, "ratio", ARM_ROUNDS);
    }
}
