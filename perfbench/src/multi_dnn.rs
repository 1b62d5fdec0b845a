//! `multi_dnn_stream`: the paper's headline scenario. Each of the three
//! built-in segments streams a seeded ifmap through `StreamSim::new` and
//! `run` with two stepping workers, so the fast MAC path in `sram`, the
//! mesh in `noc` and sharded stepping in `sim` do the work and the
//! serving layers do none.

use crate::metrics::{median, Checks, Sheet};
use crate::spans::{Profile, Tracer};
use crate::Workload;
use maicc::sim::stream::{Engine, StreamConfig, StreamResult, StreamSim};
use maicc::sram::fault::FaultPlan;
use std::time::Instant;

/// Stepping workers per simulation.
const WORKERS: usize = 2;
/// Cycle budget per run; the largest segment drains in under 100,000.
const BUDGET: u64 = 5_000_000;
/// Modelled cycles of the built-in `resnet18_segment` input.
const RESNET18_SEGMENT_CYCLES: u64 = 87_087;
/// Rounds of the traced run's side measurements.
const ARM_ROUNDS: usize = 5;

struct Model {
    name: &'static str,
    cfg: StreamConfig,
    golden: Vec<i8>,
}

pub struct MultiDnn {
    models: Vec<Model>,
    last: Vec<StreamResult>,
}

impl MultiDnn {
    pub fn new(inputs: Vec<(&'static str, StreamConfig)>, tr: &mut Tracer) -> Self {
        let models = inputs
            .into_iter()
            .map(|(name, cfg)| {
                let golden = tr.span("nn.golden", || cfg.golden());
                Model { name, cfg, golden }
            })
            .collect();
        MultiDnn {
            models,
            last: Vec::new(),
        }
    }
}

/// One simulation outside the timed passes.
fn stream(
    cfg: &StreamConfig,
    engine: Engine,
    workers: usize,
    slow_path: bool,
) -> Result<StreamResult, String> {
    let mut sim = StreamSim::new(cfg).map_err(|e| e.to_string())?;
    sim.set_engine(engine);
    sim.set_parallelism(workers);
    if slow_path {
        // a quiet plan injects nothing but forces the bit-serial MAC path
        sim.attach_cmem_fault_plan(&FaultPlan::none());
    }
    sim.run(BUDGET).map_err(|e| e.to_string())
}

impl Workload for MultiDnn {
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> String {
        self.last.clear();
        let mut bytes = String::new();
        for m in &self.models {
            let result = match tr.span("sim.new", || StreamSim::new(&m.cfg)) {
                Ok(mut sim) => {
                    sim.set_parallelism(WORKERS);
                    tr.span("sim.run", || sim.run(BUDGET))
                        .map_err(|e| e.to_string())
                }
                Err(e) => Err(e.to_string()),
            };
            match result {
                Ok(r) => {
                    checks.check(r.ofmap == m.golden, || {
                        format!("{}: ofmap differs from the golden model", m.name)
                    });
                    bytes.push_str(&format!(
                        "{} {} {} {} {} {} {:?}\n",
                        m.name,
                        r.cycles,
                        r.cmem_pj.to_bits(),
                        r.noc.packets_delivered,
                        r.noc.flit_hops,
                        r.noc.total_latency,
                        r.ofmap
                    ));
                    self.last.push(r);
                }
                Err(e) => checks.check(false, || format!("{}: {e}", m.name)),
            }
        }
        bytes
    }

    fn finish(&mut self, checks: &mut Checks, sheet: &mut Sheet) {
        let builtin = StreamConfig::resnet18_segment();
        match stream(&builtin, Engine::EventDriven, WORKERS, false) {
            Ok(r) => {
                checks.check(r.cycles == RESNET18_SEGMENT_CYCLES, || {
                    format!(
                        "built-in resnet18_segment took {} cycles, pinned at {RESNET18_SEGMENT_CYCLES}",
                        r.cycles
                    )
                });
                checks.check(r.ofmap == builtin.golden(), || {
                    "built-in resnet18_segment ofmap differs from the golden model".into()
                });
            }
            Err(e) => checks.check(false, || format!("built-in resnet18_segment: {e}")),
        }
        let n = self.last.len();
        // the multi-DNN parallel makespan: side by side, the slowest
        // segment decides when all three are done
        let makespan = self.last.iter().map(|r| r.cycles).max().unwrap_or(0);
        sheet.set("makespan_cycles", makespan as f64, "cycles", n);
        let energy: f64 = self
            .last
            .iter()
            .map(|r| r.cmem_pj + r.noc.dynamic_pj())
            .sum();
        sheet.set("energy_pj_per_inference", energy / n.max(1) as f64, "pJ", n);
        let matching = self
            .models
            .iter()
            .zip(&self.last)
            .filter(|(m, r)| r.ofmap == m.golden)
            .count();
        let attempted = self.models.len();
        sheet.set(
            "failed_share",
            (attempted - matching) as f64 / attempted as f64,
            "ratio",
            attempted,
        );
    }

    fn layers(&mut self, profile: &Profile, checks: &mut Checks, sheet: &mut Sheet) {
        let (mut cycles, mut packets, mut hops, mut latency, mut cmem_pj) = (0, 0, 0, 0, 0.0);
        for (m, r) in self.models.iter().zip(&self.last) {
            sheet.set(
                &format!("sim.cycles.{}", m.name),
                r.cycles as f64,
                "cycles",
                1,
            );
            cycles += r.cycles;
            packets += r.noc.packets_delivered;
            hops += r.noc.flit_hops;
            latency += r.noc.total_latency;
            cmem_pj += r.cmem_pj;
        }
        let passes = profile.passes();
        let run_ns = profile.per_pass_s("sim.run") * 1e9;
        sheet.set(
            "sim.host_ns_per_cycle",
            run_ns / cycles.max(1) as f64,
            "ns",
            passes,
        );
        sheet.set("sram.cmem_pj", cmem_pj, "pJ", 1);
        sheet.set("noc.packets_delivered", packets as f64, "count", 1);
        sheet.set("noc.flit_hops", hops as f64, "count", 1);
        sheet.set(
            "noc.mean_latency_cycles",
            latency as f64 / packets.max(1) as f64,
            "cycles",
            packets as usize,
        );
        sheet.set(
            "noc.host_ns_per_flit_hop",
            run_ns / hops.max(1) as f64,
            "ns",
            passes,
        );

        // Side measurements on the seeded resnet18_segment, rounds
        // interleaved so host drift hits every arm alike: two workers
        // against one, both engines, and the bit-serial MAC path. Every
        // arm must model the same cycles.
        let Some((seg, reference)) = self.models.first().zip(self.last.first()) else {
            return;
        };
        let arms = [
            (Engine::EventDriven, 2, false),
            (Engine::EventDriven, 1, false),
            (Engine::CycleAccurate, 1, false),
            (Engine::EventDriven, 1, true),
        ];
        let mut times = vec![Vec::new(); arms.len()];
        for _ in 0..ARM_ROUNDS {
            for (&(engine, workers, slow), t) in arms.iter().zip(&mut times) {
                let start = Instant::now();
                let r = stream(&seg.cfg, engine, workers, slow);
                t.push(start.elapsed().as_secs_f64());
                match r {
                    Ok(r) => checks.check(
                        r.cycles == reference.cycles && r.ofmap == seg.golden,
                        || {
                            format!(
                                "{engine:?} x {workers} workers (bit-serial {slow}): {} cycles, \
                                 expected {}",
                                r.cycles, reference.cycles
                            )
                        },
                    ),
                    Err(e) => checks.check(false, || format!("{engine:?} x {workers}: {e}")),
                }
            }
        }
        let t: Vec<f64> = times.iter().map(|s| median(s)).collect();
        sheet.set("sim.exchange_speedup", t[1] / t[0], "ratio", ARM_ROUNDS);
        sheet.set("sim.skip_ahead_speedup", t[2] / t[1], "ratio", ARM_ROUNDS);
        sheet.set("sram.fast_path_speedup", t[3] / t[1], "ratio", ARM_ROUNDS);
    }
}
