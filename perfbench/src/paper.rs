//! `paper_tables`: Table 4 (the scalar node and the MAICC node), the
//! Table 5 queue x write-back x static-scheduling sweep, and Table 6,
//! Fig. 9 and Table 7 under all three mapping strategies. It is the only
//! workload that runs the node pipeline (`core`), kernel code generation
//! and the static scheduler (`isa`), and the analytic execution model
//! (`exec`); it uses neither `noc` nor `serve`. Its inputs are the
//! paper's, so it ignores the seed.

use crate::metrics::{Checks, Sheet};
use crate::spans::{Profile, Tracer};
use crate::Workload;
use maicc::core::kernels::{CmemConvKernel, ConvWorkload, ScalarConvKernel};
use maicc::core::pipeline::{PipelineConfig, Timing, TimingReport};
use maicc::core::CoreError;
use maicc::exec::config::ExecConfig;
use maicc::exec::pipeline_model::{run_network, IterBreakdown, RunReport};
use maicc::exec::segment::Strategy;
use maicc::isa::inst::Instruction;
use maicc::nn::graph::Network;
use maicc::nn::resnet::resnet18;
use maicc_bench::paper;

/// Pinned check values, in cycles.
const TABLE4_MAICC_CYCLES: u64 = 60_072;
const TABLE6_HEURISTIC_CYCLES: u64 = 5_900_119;
/// ResNet-18 conv2_4, the paper's layer 9 in Fig. 9.
const FIG9_LAYER: usize = 8;
const STEP_LIMIT: u64 = 200_000_000;
const RESNET_INPUT: [usize; 3] = [64, 56, 56];
/// Table 5 sweep: write-back ports and CMem queue depths.
const WB_PORTS: [usize; 2] = [1, 2];
const QUEUES: [usize; 4] = [0, 1, 2, 4];

/// What one pass measured.
struct Tables {
    scalar: TimingReport,
    maicc: TimingReport,
    /// Table 5, queue 2, one write-back port, static scheduling.
    table5_q2_wb1_static: u64,
    instructions: u64,
    /// Single-layer, greedy and heuristic, in `Strategy::ALL` order.
    mappings: Vec<RunReport>,
}

pub struct Paper {
    ifmap: Vec<i8>,
    weights: Vec<i8>,
    golden: Vec<i32>,
    kernel: CmemConvKernel,
    scalar: ScalarConvKernel,
    net: Network,
    exec: ExecConfig,
    last: Option<Tables>,
}

type NodeRun = Result<(Vec<i32>, TimingReport), CoreError>;

impl Paper {
    pub fn new(tr: &mut Tracer) -> Result<Self, String> {
        let wl = ConvWorkload::table4();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let golden = tr.span("nn.golden", || wl.golden(&ifmap, &weights));
        let kernel = tr
            .span("isa.codegen", || CmemConvKernel::new(wl))
            .map_err(|e| format!("Table 4 kernel: {e}"))?;
        let scalar = tr.span("isa.codegen", || ScalarConvKernel::new(wl));
        Ok(Paper {
            ifmap,
            weights,
            golden,
            kernel,
            scalar,
            net: resnet18(1000),
            exec: ExecConfig::default(),
            last: None,
        })
    }

    /// Replays a CMem kernel program under `cfg` on a node loaded with the
    /// Table 4 inputs.
    fn cmem_node(
        &self,
        tr: &mut Tracer,
        program: Vec<Instruction>,
        cfg: PipelineConfig,
    ) -> NodeRun {
        let kernel = self.kernel.with_program(program);
        let mut node = tr.span("core.prepare", || {
            kernel.prepare(&self.ifmap, &self.weights, 4)
        })?;
        let mut timing = Timing::new(cfg);
        tr.span("core.node_run", || {
            node.run_with(STEP_LIMIT, |e| timing.on_retire(e))
        })?;
        Ok((kernel.read_ofmap(&node)?, timing.finish()))
    }

    fn scalar_node(&self, tr: &mut Tracer) -> NodeRun {
        let mut node = tr.span("core.prepare", || {
            self.scalar.prepare(&self.ifmap, &self.weights)
        })?;
        let mut timing = Timing::new(PipelineConfig::default());
        tr.span("core.node_run", || {
            node.run_with(STEP_LIMIT, |e| timing.on_retire(e))
        })?;
        Ok((self.scalar.read_ofmap(&node)?, timing.finish()))
    }

    fn tables(&self, tr: &mut Tracer, checks: &mut Checks) -> Result<Tables, String> {
        let golden = &self.golden;
        let mut checked = |what: String, run: NodeRun| -> Result<TimingReport, String> {
            let (ofmap, timing) = run.map_err(|e| format!("{what}: {e}"))?;
            checks.check(&ofmap == golden, || {
                format!("{what}: ofmap differs from the golden convolution")
            });
            Ok(timing)
        };
        let scalar = checked("Table 4 scalar node".into(), self.scalar_node(tr))?;
        let scheduled = tr.span("isa.codegen", || self.kernel.scheduled_program());
        let maicc = self.cmem_node(tr, scheduled, PipelineConfig::default());
        let maicc = checked("Table 4 MAICC node".into(), maicc)?;
        let mut instructions = scalar.instructions + maicc.instructions;
        let mut table5_q2_wb1_static = 0;
        for wb_ports in WB_PORTS {
            for cmem_queue in QUEUES {
                let cfg = PipelineConfig {
                    cmem_queue,
                    wb_ports,
                    ..PipelineConfig::default()
                };
                let what = format!("Table 5 queue {cmem_queue}, {wb_ports} WB");
                let dynamic = self.cmem_node(tr, self.kernel.program().to_vec(), cfg);
                let dynamic = checked(what.clone(), dynamic)?;
                let scheduled = tr.span("isa.codegen", || self.kernel.scheduled_program());
                let fixed = checked(
                    format!("{what}, static"),
                    self.cmem_node(tr, scheduled, cfg),
                )?;
                instructions += dynamic.instructions + fixed.instructions;
                if (cmem_queue, wb_ports) == (2, 1) {
                    table5_q2_wb1_static = fixed.total_cycles;
                }
            }
        }
        let mappings = Strategy::ALL
            .iter()
            .map(|&s| {
                tr.span("exec.map", || {
                    run_network(&self.net, RESNET_INPUT, s, &self.exec)
                })
                .map_err(|e| format!("{s:?} mapping: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Tables {
            scalar,
            maicc,
            table5_q2_wb1_static,
            instructions,
            mappings,
        })
    }
}

impl Workload for Paper {
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> String {
        match self.tables(tr, checks) {
            Ok(t) => {
                checks.check(t.maicc.total_cycles == TABLE4_MAICC_CYCLES, || {
                    format!(
                        "Table 4 MAICC node took {} cycles, pinned at {TABLE4_MAICC_CYCLES}",
                        t.maicc.total_cycles
                    )
                });
                let heuristic = t.mappings[2].total_cycles as u64;
                checks.check(heuristic == TABLE6_HEURISTIC_CYCLES, || {
                    format!("Table 6 heuristic took {heuristic} cycles, pinned at {TABLE6_HEURISTIC_CYCLES}")
                });
                let totals: Vec<u64> = t
                    .mappings
                    .iter()
                    .map(|m| m.total_cycles.to_bits())
                    .collect();
                let bytes = format!(
                    "{:?}\n{:?}\n{} {}\n{totals:?}\n",
                    t.scalar, t.maicc, t.table5_q2_wb1_static, t.instructions
                );
                self.last = Some(t);
                bytes
            }
            Err(e) => {
                checks.check(false, || e);
                String::new()
            }
        }
    }

    fn finish(&mut self, checks: &mut Checks, sheet: &mut Sheet) {
        sheet.set(
            "failed_share",
            checks.failures.len() as f64 / checks.attempted.max(1) as f64,
            "ratio",
            checks.attempted as usize,
        );
        let Some(t) = &self.last else {
            return;
        };
        let heuristic = &t.mappings[2];
        sheet.set("makespan_cycles", heuristic.total_cycles, "cycles", 1);
        let ms = |r: &RunReport| r.total_ms(&self.exec);
        let against_paper = [
            (t.maicc.total_cycles as f64, paper::TABLE4_CYCLES[1]),
            (t.table5_q2_wb1_static as f64, paper::TABLE5_STATIC[2]),
            (ms(&t.mappings[0]), paper::TABLE6_TOTAL_MS[0]),
            (ms(&t.mappings[1]), paper::TABLE6_TOTAL_MS[1]),
            (ms(heuristic), paper::TABLE6_TOTAL_MS[2]),
            (ms(heuristic), paper::TABLE7_LATENCY_MS[2]),
        ];
        let error: f64 = against_paper
            .iter()
            .map(|(measured, published)| (measured - published).abs() / published)
            .sum::<f64>()
            / against_paper.len() as f64;
        sheet.set("paper_error_pct", error * 100.0, "%", against_paper.len());
    }

    fn layers(&mut self, profile: &Profile, _checks: &mut Checks, sheet: &mut Sheet) {
        let Some(t) = &self.last else {
            return;
        };
        sheet.set("core.instructions", t.instructions as f64, "count", 1);
        sheet.set(
            "core.host_ns_per_instruction",
            profile.per_pass_s("core.node_run") * 1e9 / t.instructions.max(1) as f64,
            "ns",
            profile.passes(),
        );
        // stall attribution of the Table 4 MAICC node
        for (name, cycles) in [
            ("core.stall.queue", t.maicc.queue_stall_cycles),
            ("core.stall.raw", t.maicc.raw_stall_cycles),
            ("core.stall.wb", t.maicc.wb_conflict_cycles),
            ("core.stall.branch", t.maicc.branch_flush_cycles),
        ] {
            sheet.set(name, cycles as f64, "cycles", 1);
        }
        let heuristic = &t.mappings[2];
        if let Some(layer) = heuristic.layers.get(FIG9_LAYER) {
            let b = IterBreakdown::of(layer);
            for (name, cycles) in [
                ("exec.fig9.wait", b.wait),
                ("exec.fig9.compute", b.compute),
                ("exec.fig9.recv", b.recv),
                ("exec.fig9.send_ifmap", b.send_ifmap),
                ("exec.fig9.send_ofmap", b.send_ofmap),
            ] {
                sheet.set(name, cycles, "cycles", 1);
            }
        }
        let loads: f64 = heuristic.segments.iter().map(|s| s.filter_load).sum();
        sheet.set(
            "exec.filter_load_share",
            loads / heuristic.total_cycles.max(1.0),
            "ratio",
            heuristic.segments.len(),
        );
    }
}
