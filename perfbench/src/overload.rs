//! `overload_faults`: `serve()` on the overload loop (the `overload_mix`
//! tiers, preemption and retry budget) under a fleet-wide seeded fault
//! plan: CMem transient flips that ECC corrects, NoC corruption that CRC
//! catches and retransmits, and dead slices on the first two Hard-tier
//! requests that remap recovery routes around. Any fault plan turns off
//! the memo of fault-free runs, so every admission runs bit-level, every
//! MAC takes the bit-serial path and sharded stepping stays off; one
//! stepping worker is used. No other workload runs the overload loop.

use crate::inputs::OverloadInputs;
use crate::metrics::{median, Checks, Sheet};
use crate::serving::{self, ObsTotals};
use crate::spans::{Profile, Tracer};
use crate::Workload;
use maicc::exec::mapping::{healthy_order, zigzag_order, Tile};
use maicc::serve::overload::{OverloadConfig, RetryBudget};
use maicc::serve::registry::ModelRegistry;
use maicc::serve::server::{serve, serve_with_obs, Policy, ServeConfig};
use maicc::serve::slo::ServeReport;
use maicc::serve::trace::Trace;
use maicc::sim::stream::{RecoveryPolicy, StreamSim};
use maicc::sram::fault::FaultPlan;
use std::time::Instant;

/// Schedulable tiles: the contended pool of the overload scenario.
const POOL_TILES: usize = 10;
/// Obs window, fabric cycles.
const OBS_INTERVAL: u64 = 100_000;

pub struct Overload {
    registry: ModelRegistry,
    /// One trace and its serving config (with its fault plan) per input.
    cases: Vec<(Trace, ServeConfig)>,
    last: Vec<ServeReport>,
}

impl Overload {
    pub fn new(
        registry: ModelRegistry,
        overload: OverloadConfig,
        inputs: Vec<OverloadInputs>,
    ) -> Self {
        let cases = inputs
            .into_iter()
            .map(|input| {
                let cfg = ServeConfig {
                    policy: Policy::Sjf,
                    threads: 1,
                    pool_tiles: POOL_TILES,
                    recovery: Some(RecoveryPolicy {
                        max_replays: 8,
                        remap: true,
                        checkpoint_values: 8,
                    }),
                    fault: Some(input.fault),
                    overload: Some(overload.clone()),
                    retry_budget: Some(RetryBudget::default()),
                    ..ServeConfig::default()
                };
                (input.trace, cfg)
            })
            .collect();
        Overload {
            registry,
            cases,
            last: Vec::new(),
        }
    }

    /// Re-runs, outside `serve()`, every simulation a report's outcomes
    /// imply, and returns how many ran. Their host time over
    /// `serve.call_s` estimates the simulator's share of a serving pass.
    ///
    /// A fault plan turns the run memo off and this config has no weight
    /// cache, so every admission of `serve()` is one cold bit-level run,
    /// and a preemption resume is a full run from cycle 0 whose finished
    /// cycles are discounted by the checkpoint afterwards. An outcome
    /// with `r` retries and `p` preemptions therefore ran attempts `0` to
    /// `r - 1` once each (all failed), and attempt `r` `p` times (runs a
    /// higher tier preempted) plus once more unless it was shed. Each
    /// replayed run is built the way `run_request` builds it: the same
    /// per-request and per-attempt fault-plan seeds, the NoC plan reseeded
    /// on retries only, the dead slice on attempt 0 of a targeted request,
    /// the same engine, workers and recovery. One thing differs: every
    /// replay is placed at the head of the pool, while `serve()` places
    /// a run on whatever pool tiles are free and healthy at admission.
    fn replay(&self, cfg: &ServeConfig, report: &ServeReport, checks: &mut Checks) -> usize {
        let Some(fault) = &cfg.fault else {
            return 0;
        };
        let mut pool = healthy_order(&cfg.initial_failed);
        if cfg.pool_tiles > 0 {
            pool.truncate(cfg.pool_tiles);
        }
        let mask: Vec<Tile> = zigzag_order()
            .into_iter()
            .filter(|t| !pool.contains(t))
            .collect();
        let mut runs = 0;
        for o in &report.outcomes {
            let Some(entry) = self.registry.get(&o.model) else {
                checks.check(false, || format!("replay: unknown model `{}`", o.model));
                continue;
            };
            let last = o.preemptions + u32::from(!o.shed);
            let attempts = (0..o.retries).chain(std::iter::repeat_n(o.retries, last as usize));
            for attempt in attempts {
                let mut sim = match StreamSim::new_avoiding(&entry.stream, &mask) {
                    Ok(sim) => sim,
                    Err(e) => {
                        checks.check(false, || format!("replay of request {}: {e}", o.id));
                        continue;
                    }
                };
                sim.set_engine(cfg.engine);
                sim.set_parallelism(cfg.threads);
                sim.set_recovery_policy(cfg.recovery);
                let salt = |seed: u64| {
                    seed.wrapping_add(o.id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add(u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407))
                };
                if let Some(plan) = &fault.cmem {
                    let mut plan = plan.clone();
                    plan.seed = salt(plan.seed);
                    sim.attach_cmem_fault_plan(&plan);
                }
                if let Some(plan) = &fault.noc {
                    let mut plan = plan.clone();
                    if attempt > 0 {
                        plan.seed = salt(plan.seed);
                    }
                    sim.attach_noc_fault_plan(plan);
                }
                sim.set_ecc_mode(fault.ecc);
                sim.set_noc_retry_policy(fault.retry);
                if attempt == 0 && fault.fail_at_requests.contains(&o.id) {
                    sim.attach_cmem_fault_plan_to(
                        0,
                        &FaultPlan {
                            seed: o.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            transient_flip_rate: 0.0,
                            stuck_cells: Vec::new(),
                            dead_slices: vec![0],
                        },
                    );
                }
                // only the host time counts; serve() already checked results
                let _ = sim.run(cfg.run_budget);
                runs += 1;
            }
        }
        runs
    }
}

impl Workload for Overload {
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> String {
        self.last.clear();
        let mut bytes = String::new();
        for (trace, cfg) in &self.cases {
            match tr.span("serve.call", || serve(&self.registry, trace, cfg)) {
                Ok(report) => {
                    serving::check_outcomes(&report.outcomes, checks);
                    bytes.push_str(&report.to_json());
                    self.last.push(report);
                }
                Err(e) => checks.check(false, || format!("serve: {e}")),
            }
        }
        bytes
    }

    fn finish(&mut self, checks: &mut Checks, sheet: &mut Sheet) {
        let n = self.last.len();
        let makespans: u64 = self.last.iter().map(|r| r.makespan_cycles).sum();
        sheet.set(
            "makespan_cycles",
            makespans as f64 / n.max(1) as f64,
            "cycles",
            n,
        );
        let outcomes: Vec<_> = self
            .last
            .iter()
            .flat_map(|r| r.outcomes.iter().cloned())
            .collect();
        serving::record_outcomes(&outcomes, makespans, sheet);
        let (mut obs, mut totals) = (ObsTotals::default(), ObsTotals::default());
        for ((trace, cfg), report) in self.cases.iter().zip(&self.last) {
            match serve_with_obs(&self.registry, trace, cfg, OBS_INTERVAL) {
                Ok((observed, jsonl)) => {
                    checks.check(observed.to_json() == report.to_json(), || {
                        "serve report bytes differ with obs on".into()
                    });
                    match serving::obs_totals(&jsonl) {
                        Ok(o) => obs.add(&o),
                        Err(e) => checks.check(false, || e),
                    }
                }
                Err(e) => checks.check(false, || format!("serve_with_obs: {e}")),
            }
            totals.add(&ObsTotals {
                completions: report.completed,
                sheds: report.shed,
                lost: report.unrecoverable,
                ..ObsTotals::default()
            });
        }
        serving::record_obs(&obs, &totals, sheet);
    }

    fn layers(&mut self, profile: &Profile, checks: &mut Checks, sheet: &mut Sheet) {
        let reports: Vec<&ServeReport> = self.last.iter().collect();
        serving::record_serve_layers(&reports, profile, sheet);
        // each case's serve() call and its replay back to back, so that
        // host drift hits both alike; the median case's ratio
        let (mut ratios, mut runs) = (Vec::new(), 0);
        for ((trace, cfg), report) in self.cases.iter().zip(&self.last) {
            let start = Instant::now();
            let again = serve(&self.registry, trace, cfg);
            let served = start.elapsed().as_secs_f64();
            checks.check(again.is_ok_and(|r| r.to_json() == report.to_json()), || {
                "a second serve() call produced other report bytes".into()
            });
            let start = Instant::now();
            runs += self.replay(cfg, report, checks);
            ratios.push(start.elapsed().as_secs_f64() / served.max(1e-9));
        }
        sheet.set("sim.replay_share", median(&ratios), "ratio", runs);
    }
}
