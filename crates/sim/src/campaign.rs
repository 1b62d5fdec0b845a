//! Fault-injection campaigns over the streaming simulator.
//!
//! A [`FaultCampaign`] sweeps fault rates over one workload — by default a
//! downscaled ResNet-18 segment ([`StreamConfig::resnet18_segment`]) —
//! running the full bit-level streaming simulation once per
//! [`CampaignPoint`] and comparing every completed run against the golden
//! `maicc-nn` reference. Each run is classified:
//!
//! * **masked** — the run completed and the output is bit-identical to the
//!   golden model (the injected faults were architecturally absorbed);
//! * **SDC** — silent data corruption: the run completed but the output
//!   differs;
//! * **detected** — a component reported the fault as a typed error (a
//!   dead CMem slice answering a read, or the cycle-budget watchdog);
//! * **degraded** — injected NoC faults lost traffic, so the workload
//!   quiesced early with a typed [`SimError::Degraded`] instead of
//!   hanging.
//!
//! The report is serde-serialisable and additionally renders itself as
//! JSON via [`CampaignReport::to_json`]. A zero-fault point is guaranteed
//! bit- and cycle-identical to the clean baseline.

use crate::stream::{Engine, RecoveryPolicy, StreamConfig, StreamSim};
use crate::SimError;
use maicc_exec::mapping::Tile;
use maicc_noc::{NocFaultPlan, RetryPolicy};
use maicc_sram::ecc::EccMode;
use maicc_sram::fault::FaultPlan;
use serde::{Deserialize, Serialize};

/// One point of a fault-rate sweep. All rates default to zero: the
/// default point reproduces the clean run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignPoint {
    /// Seed for every RNG-driven fault source at this point.
    pub seed: u64,
    /// Per-read/MAC transient bit-flip probability in the CMems.
    pub transient_flip_rate: f64,
    /// Stuck-at cells scattered over each CC's CMem.
    pub stuck_cells: usize,
    /// A dead CMem slice (1–7), if any.
    pub dead_slice: Option<usize>,
    /// Per-hop transient flit-drop probability in the mesh.
    pub noc_drop_rate: f64,
    /// Compute tiles marked failed before placement (remapped around).
    pub failed_tiles: usize,
}

impl CampaignPoint {
    /// The zero-fault point: running it must be bit- and cycle-identical
    /// to the clean baseline.
    #[must_use]
    pub(crate) fn clean(seed: u64) -> Self {
        CampaignPoint {
            seed,
            transient_flip_rate: 0.0,
            stuck_cells: 0,
            dead_slice: None,
            noc_drop_rate: 0.0,
            failed_tiles: 0,
        }
    }
}

/// The recovery stack applied to every swept run: ECC on the CMems, an
/// ACK/NACK retransmission policy on the mesh, and checkpoint/replay in
/// the streaming simulator. `None` on a [`FaultCampaign`] reproduces the
/// detection-only campaigns bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// ECC mode applied to every CC's CMem.
    pub ecc: EccMode,
    /// Mesh-level retransmission policy, if any.
    pub noc_retry: Option<RetryPolicy>,
    /// Checkpoint/replay policy of the streaming simulator.
    pub policy: RecoveryPolicy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            ecc: EccMode::Correct,
            noc_retry: Some(RetryPolicy::default()),
            policy: RecoveryPolicy::default(),
        }
    }
}

/// Classification of one campaign run against the golden model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Run completed, output bit-identical to golden.
    Masked,
    /// Run completed, output differs — silent data corruption.
    Sdc,
    /// A typed error reported the fault (component or watchdog).
    Detected,
    /// Lost traffic forced early, typed quiescence.
    Degraded,
    /// Faults occurred but were corrected in place (ECC single-bit
    /// corrections, CRC-rejected flits retransmitted); golden output.
    Corrected,
    /// Detected faults forced at least one checkpoint rollback or tile
    /// remap, after which the run converged to the golden output.
    Replayed,
    /// Recovery was armed but the run still failed — replays exhausted or
    /// an unrecoverable hard fault.
    Unrecoverable,
}

impl Outcome {
    /// Stable lower-case label (used in the JSON report).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Detected => "detected",
            Outcome::Degraded => "degraded",
            Outcome::Corrected => "corrected",
            Outcome::Replayed => "replayed",
            Outcome::Unrecoverable => "unrecoverable",
        }
    }
}

/// One run's record in the campaign report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// The sweep point that produced this run.
    pub point: CampaignPoint,
    /// Golden-comparison classification.
    pub outcome: Outcome,
    /// Fault events actually injected (CMem flips + stuck bits forced +
    /// dead-slice hits + NoC drops + lost packets).
    pub faults_injected: u64,
    /// Total cycles, for runs that completed.
    pub cycles: Option<u64>,
    /// Degraded-latency factor vs the clean baseline, for completed runs.
    pub latency_penalty: Option<f64>,
    /// The typed error's message, for detected/degraded runs.
    pub detail: String,
    /// Checkpoint rollbacks plus tile remaps the run needed (recovery on).
    pub replays: u32,
    /// Faults corrected in place: ECC single-bit corrections plus
    /// CRC-rejected flits that were retransmitted.
    pub corrected: u64,
    /// Re-executed cycles plus the analytic ECC cycle surcharge.
    pub recovery_overhead_cycles: u64,
    /// CMem energy spent on discarded (replayed) work, in pJ.
    pub recovery_overhead_pj: f64,
}

/// Aggregate result of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cycles of the clean (fault-free) baseline run.
    pub clean_cycles: u64,
    /// One record per sweep point, in input order.
    pub runs: Vec<RunRecord>,
}

impl CampaignReport {
    /// Runs with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: Outcome) -> usize {
        self.runs.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Renders the report as a JSON document (hand-written so it works
    /// without a serde backend).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"clean_cycles\":{},\"masked\":{},\"sdc\":{},\"detected\":{},\"degraded\":{},\
             \"corrected\":{},\"replayed\":{},\"unrecoverable\":{},\"runs\":[",
            self.clean_cycles,
            self.count(Outcome::Masked),
            self.count(Outcome::Sdc),
            self.count(Outcome::Detected),
            self.count(Outcome::Degraded),
            self.count(Outcome::Corrected),
            self.count(Outcome::Replayed),
            self.count(Outcome::Unrecoverable),
        ));
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let p = &r.point;
            s.push_str(&format!(
                "{{\"seed\":{},\"transient_flip_rate\":{},\"stuck_cells\":{},\
                 \"dead_slice\":{},\"noc_drop_rate\":{},\"failed_tiles\":{},\
                 \"outcome\":\"{}\",\"faults_injected\":{},\"cycles\":{},\
                 \"latency_penalty\":{},\"detail\":{:?},\"replays\":{},\
                 \"corrected\":{},\"recovery_overhead_cycles\":{},\
                 \"recovery_overhead_pj\":{:.2}}}",
                p.seed,
                p.transient_flip_rate,
                p.stuck_cells,
                p.dead_slice.map_or("null".to_string(), |d| d.to_string()),
                p.noc_drop_rate,
                p.failed_tiles,
                r.outcome.label(),
                r.faults_injected,
                r.cycles.map_or("null".to_string(), |c| c.to_string()),
                r.latency_penalty
                    .map_or("null".to_string(), |l| format!("{l:.4}")),
                r.detail,
                r.replays,
                r.corrected,
                r.recovery_overhead_cycles,
                r.recovery_overhead_pj,
            ));
        }
        s.push_str("]}");
        s
    }
}

/// A fault-injection campaign: one workload, a list of sweep points, a
/// cycle budget per run.
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// The workload every point runs.
    pub workload: StreamConfig,
    /// The sweep points.
    pub points: Vec<CampaignPoint>,
    /// Cycle budget per run.
    pub budget: u64,
    /// Worker threads for the point sweep: `0` = one per available core,
    /// `1` = sequential, `n` = exactly `n`. Points are fully independent
    /// simulations and the report keeps input order, so the result is
    /// identical for every setting.
    pub threads: usize,
    /// Simulation engine for every run in the sweep (clean baseline and
    /// all points). Both engines are observationally identical, so the
    /// report is byte-for-byte the same; [`Engine::EventDriven`] just
    /// finishes sooner.
    pub engine: Engine,
    /// The recovery stack applied to every swept run; `None` (the
    /// constructors' default) reproduces detection-only campaigns exactly.
    pub recovery: Option<RecoveryConfig>,
}

impl FaultCampaign {
    /// A default sweep over the ResNet-18 segment: clean, rising transient
    /// rates, stuck cells, a dead slice, NoC drops, and failed tiles.
    #[must_use]
    pub fn resnet18_default(seed: u64) -> Self {
        let mut points = vec![CampaignPoint::clean(seed)];
        points.push(CampaignPoint {
            transient_flip_rate: 1e-5,
            ..CampaignPoint::clean(seed.wrapping_add(1))
        });
        points.push(CampaignPoint {
            transient_flip_rate: 1e-3,
            ..CampaignPoint::clean(seed.wrapping_add(2))
        });
        points.push(CampaignPoint {
            stuck_cells: 6,
            ..CampaignPoint::clean(seed.wrapping_add(3))
        });
        points.push(CampaignPoint {
            dead_slice: Some(3),
            ..CampaignPoint::clean(seed.wrapping_add(4))
        });
        points.push(CampaignPoint {
            noc_drop_rate: 0.02,
            ..CampaignPoint::clean(seed.wrapping_add(5))
        });
        points.push(CampaignPoint {
            failed_tiles: 2,
            ..CampaignPoint::clean(seed.wrapping_add(6))
        });
        FaultCampaign {
            workload: StreamConfig::resnet18_segment(),
            points,
            budget: 40_000_000,
            threads: 0,
            engine: Engine::default(),
            recovery: None,
        }
    }

    /// A small smoke sweep over [`StreamConfig::small_test`] at the same
    /// reference fault rates as [`Self::resnet18_default`] — cheap enough
    /// for CI gating.
    #[must_use]
    pub fn small_default(seed: u64) -> Self {
        let mut points = vec![CampaignPoint::clean(seed)];
        points.push(CampaignPoint {
            transient_flip_rate: 1e-3,
            ..CampaignPoint::clean(seed.wrapping_add(1))
        });
        points.push(CampaignPoint {
            stuck_cells: 3,
            ..CampaignPoint::clean(seed.wrapping_add(2))
        });
        points.push(CampaignPoint {
            dead_slice: Some(2),
            ..CampaignPoint::clean(seed.wrapping_add(3))
        });
        points.push(CampaignPoint {
            noc_drop_rate: 0.02,
            ..CampaignPoint::clean(seed.wrapping_add(4))
        });
        FaultCampaign {
            workload: StreamConfig::small_test(),
            points,
            budget: 5_000_000,
            threads: 0,
            engine: Engine::default(),
            recovery: None,
        }
    }

    /// Runs every point and classifies each run against the golden model.
    ///
    /// Points are swept in parallel according to [`Self::threads`]; each
    /// point is an independent simulation with its own seeded RNG streams,
    /// and records are merged back in input order, so the report is
    /// bit-identical to a sequential sweep.
    ///
    /// # Errors
    ///
    /// Propagates errors of the *clean* baseline (which must succeed) and
    /// genuine non-fault errors of the swept runs; typed fault outcomes
    /// ([`SimError::Fault`], [`SimError::Degraded`], timeouts) are
    /// recorded, not propagated.
    pub fn run(&self) -> Result<CampaignReport, SimError> {
        let golden = self.workload.golden();
        let mut clean_sim = StreamSim::new(&self.workload)?;
        clean_sim.set_engine(self.engine);
        let clean = clean_sim.run(self.budget)?;
        let workers = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        }
        .min(self.points.len().max(1));
        let records: Vec<Result<RunRecord, SimError>> = if workers > 1 {
            let golden = &golden;
            let mut slots: Vec<Option<Result<RunRecord, SimError>>> =
                (0..self.points.len()).map(|_| None).collect();
            let chunk = self.points.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (points, outs) in self.points.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (point, out) in points.iter().zip(outs) {
                            *out = Some(self.run_point(point, golden, clean.cycles));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|r| r.expect("sweep worker filled its slot"))
                .collect()
        } else {
            self.points
                .iter()
                .map(|p| self.run_point(p, &golden, clean.cycles))
                .collect()
        };
        let mut runs = Vec::with_capacity(records.len());
        for r in records {
            runs.push(r?);
        }
        Ok(CampaignReport {
            clean_cycles: clean.cycles,
            runs,
        })
    }

    /// Builds, faults, runs, and classifies one sweep point.
    fn run_point(
        &self,
        point: &CampaignPoint,
        golden: &[i8],
        clean_cycles: u64,
    ) -> Result<RunRecord, SimError> {
        // deterministic scatter of dead tiles over the first rows
        let failed: Vec<Tile> = (0..point.failed_tiles)
            .map(|i| Tile {
                x: (2 + 3 * (i % 4)) as u8,
                y: (i / 4) as u8,
            })
            .collect();
        let mut sim = StreamSim::new_avoiding(&self.workload, &failed)?;
        sim.set_engine(self.engine);
        let mut plan = FaultPlan::with_seed(point.seed).transient(point.transient_flip_rate);
        if point.stuck_cells > 0 {
            plan = plan.scatter_stuck(point.stuck_cells);
        }
        sim.attach_cmem_fault_plan(&plan);
        if let Some(s) = point.dead_slice {
            // pinned to one physical tile (CC 0) rather than broadcast, so
            // a remap-capable recovery stack can retire the tile and
            // re-place the workload around it
            sim.attach_cmem_fault_plan_to(0, &plan.clone().dead_slice(s));
        }
        if point.noc_drop_rate > 0.0 {
            sim.attach_noc_fault_plan(
                NocFaultPlan::with_seed(point.seed ^ 0xD1F7_31AB)
                    .drop_rate(point.noc_drop_rate)
                    .retry_after(256)
                    .max_retries(4),
            );
        }
        if let Some(rc) = &self.recovery {
            sim.set_ecc_mode(rc.ecc);
            sim.set_noc_retry_policy(rc.noc_retry);
            sim.set_recovery_policy(Some(rc.policy));
        }
        let res = sim.run(self.budget);
        let rec = sim.recovery_stats();
        let ecc = sim.ecc_stats();
        let corrected = ecc.corrected + sim.noc_fault_stats().crc_rejects;
        let (outcome, cycles, detail) = match res {
            Ok(r) => {
                let outcome = if r.ofmap != golden {
                    Outcome::Sdc
                } else if rec.replays > 0 {
                    Outcome::Replayed
                } else if corrected > 0 {
                    Outcome::Corrected
                } else {
                    Outcome::Masked
                };
                (outcome, Some(r.cycles), String::new())
            }
            Err(
                e @ (SimError::Fault { .. } | SimError::Timeout { .. } | SimError::Degraded { .. }),
            ) => {
                let outcome = if self.recovery.is_some() {
                    Outcome::Unrecoverable
                } else if matches!(e, SimError::Degraded { .. }) {
                    Outcome::Degraded
                } else {
                    Outcome::Detected
                };
                (outcome, None, e.to_string())
            }
            Err(e) => return Err(e),
        };
        let noc = sim.noc_fault_stats();
        let faults_injected =
            sim.cmem_fault_stats().total() + noc.flits_dropped + noc.packets_lost;
        Ok(RunRecord {
            point: point.clone(),
            outcome,
            faults_injected,
            cycles,
            latency_penalty: cycles.map(|c| c as f64 / clean_cycles as f64),
            detail,
            replays: rec.replays,
            corrected,
            recovery_overhead_cycles: rec.replayed_cycles + ecc.cycle_surcharge,
            recovery_overhead_pj: rec.replayed_pj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_point_is_bit_and_cycle_identical() {
        // the FaultPlan::none() regression: quiet plans attached at every
        // level must leave the run bit- and cycle-identical
        let cfg = StreamConfig::small_test();
        let clean = StreamSim::new(&cfg).unwrap().run(5_000_000).unwrap();
        let mut quiet = StreamSim::new_avoiding(&cfg, &[]).unwrap();
        quiet.attach_cmem_fault_plan(&FaultPlan::none());
        quiet.attach_noc_fault_plan(NocFaultPlan::none());
        let r = quiet.run(5_000_000).unwrap();
        assert_eq!(r.ofmap, clean.ofmap, "bit-identity");
        assert_eq!(r.cycles, clean.cycles, "cycle-identity");
        assert_eq!(r.noc, clean.noc, "NoC statistics identity");
        assert_eq!(r.ofmap, cfg.golden());
    }

    #[test]
    fn dead_slice_point_is_detected() {
        let cfg = StreamConfig::small_test();
        let campaign = FaultCampaign {
            workload: cfg,
            points: vec![CampaignPoint {
                dead_slice: Some(2),
                ..CampaignPoint::clean(11)
            }],
            budget: 5_000_000,
            threads: 1,
            engine: Engine::default(),
            recovery: None,
        };
        let report = campaign.run().unwrap();
        assert_eq!(report.runs[0].outcome, Outcome::Detected);
        assert!(report.runs[0].detail.contains("slice 2"), "{}", report.runs[0].detail);
        assert!(report.runs[0].faults_injected > 0);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        // point-level parallelism must not change a single byte of the
        // report — every point carries its own seeded RNG streams
        let base = FaultCampaign {
            workload: StreamConfig::small_test(),
            points: vec![
                CampaignPoint::clean(7),
                CampaignPoint {
                    transient_flip_rate: 1e-3,
                    ..CampaignPoint::clean(8)
                },
                CampaignPoint {
                    stuck_cells: 3,
                    ..CampaignPoint::clean(9)
                },
            ],
            budget: 5_000_000,
            threads: 1,
            engine: Engine::default(),
            recovery: None,
        };
        let sequential = base.run().unwrap();
        let mut parallel = base.clone();
        parallel.threads = 3;
        assert_eq!(parallel.run().unwrap(), sequential);
        // the cycle-accurate oracle produces the very same report
        let mut oracle = base.clone();
        oracle.engine = Engine::CycleAccurate;
        assert_eq!(oracle.run().unwrap(), sequential);
    }

    #[test]
    fn recovery_reclassifies_bad_outcomes() {
        // the ISSUE 4 acceptance gate: at the reference fault rates, at
        // least 90% of the previously-SDC/detected/degraded points must be
        // reclaimed (corrected, replayed, or fully masked) once the
        // recovery stack is armed, and none may end unrecoverable
        let mut campaign = FaultCampaign::small_default(33);
        let before = campaign.run().unwrap();
        campaign.recovery = Some(RecoveryConfig::default());
        let after = campaign.run().unwrap();
        let bad: Vec<usize> = before
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(
                    r.outcome,
                    Outcome::Sdc | Outcome::Detected | Outcome::Degraded
                )
            })
            .map(|(i, _)| i)
            .collect();
        assert!(!bad.is_empty(), "sweep must produce bad outcomes to reclaim");
        let reclaimed = bad
            .iter()
            .filter(|&&i| {
                matches!(
                    after.runs[i].outcome,
                    Outcome::Corrected | Outcome::Replayed | Outcome::Masked
                )
            })
            .count();
        assert!(
            reclaimed * 10 >= bad.len() * 9,
            "reclaimed {reclaimed}/{} bad points: {:?}",
            bad.len(),
            after.runs.iter().map(|r| r.outcome).collect::<Vec<_>>()
        );
        assert_eq!(after.count(Outcome::Unrecoverable), 0);
        // recovery work is visible in the report
        let recovered = after
            .runs
            .iter()
            .find(|r| r.outcome == Outcome::Replayed)
            .expect("at least one replayed point");
        assert!(recovered.recovery_overhead_cycles > 0);
        let json = after.to_json();
        assert!(json.contains("\"recovery_overhead_cycles\""), "{json}");
        assert!(json.contains("\"replayed\""), "{json}");
    }

    #[test]
    fn campaign_over_resnet18_segment_completes() {
        let campaign = FaultCampaign::resnet18_default(42);
        let report = campaign.run().expect("campaign must not panic or fail");
        assert_eq!(report.runs.len(), campaign.points.len());
        // the clean point is masked at exactly the baseline latency
        let clean = &report.runs[0];
        assert_eq!(clean.outcome, Outcome::Masked);
        assert_eq!(clean.cycles, Some(report.clean_cycles));
        assert_eq!(clean.faults_injected, 0);
        assert!((clean.latency_penalty.unwrap() - 1.0).abs() < 1e-12);
        // the dead-slice point is detected with a typed message
        let dead = &report.runs[4];
        assert_eq!(dead.outcome, Outcome::Detected);
        // remapping around failed tiles still completes correctly
        let remapped = &report.runs[6];
        assert_eq!(remapped.outcome, Outcome::Masked);
        // every outcome is accounted for
        let total = report.count(Outcome::Masked)
            + report.count(Outcome::Sdc)
            + report.count(Outcome::Detected)
            + report.count(Outcome::Degraded);
        assert_eq!(total, report.runs.len());
        let json = report.to_json();
        assert!(json.contains("\"clean_cycles\""), "{json}");
        assert!(json.contains("\"outcome\":\"masked\""), "{json}");
    }
}
