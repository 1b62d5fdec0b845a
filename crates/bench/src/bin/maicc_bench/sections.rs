//! The paper's tables, figures and ablations, one `--bench` section each.
//!
//! A section prints the rows EXPERIMENTS.md quotes, with the paper's
//! published values beside them, and asserts the paper's claims, so a
//! broken claim aborts the harness. Sections print modelled numbers only;
//! the timed rows that follow them measure host speed.

use std::cell::OnceCell;

use maicc::core::kernels::{CmemConvKernel, ConvWorkload, ScalarConvKernel};
use maicc::core::pipeline::{PipelineConfig, Timing};
use maicc::exec::config::ExecConfig;
use maicc::exec::dataflow::{evaluate, Dataflow};
use maicc::exec::pipeline_model::{run_network, IterBreakdown, RunReport};
use maicc::exec::segment::Strategy;
use maicc::isa::inst::Instruction;
use maicc::model::area::{self, AreaBreakdown, COMPUTE_SLICE_MM2, SLICE0_MM2, SLICE_LOGIC_FRACTION};
use maicc::model::baselines::{DeviceModel, RESNET18_FULL_MACS};
use maicc::model::efficiency::{Efficiency, NEURAL_CACHE_GFLOPS_PER_W};
use maicc::model::power::{self, EnergyBreakdown};
use maicc::nn::graph::Network;
use maicc::nn::resnet::resnet18;
use maicc::noc::{Coord, Mesh, Packet};
use maicc::sram::neural_cache::{NcArray, NcConvCost};
use maicc::sram::slice::CmemSlice;
use maicc::sram::timing;
use maicc_bench::{header, paper, row};

/// ResNet-18's first-layer input shape.
const RESNET18_IN: [usize; 3] = [64, 56, 56];

/// Inputs that sections and timed rows share, built once per run.
pub(crate) struct Inputs {
    /// The Table 4 convolution and its synthetic operands.
    pub(crate) wl: ConvWorkload,
    pub(crate) ifmap: Vec<i8>,
    pub(crate) weights: Vec<i8>,
    pub(crate) golden: Vec<i32>,
    pub(crate) kernel: CmemConvKernel,
    net: Network,
    exec: ExecConfig,
    /// `net` mapped under each strategy, in `Strategy::ALL` order; mapped
    /// on first use, so filters that select no mapping section skip it.
    runs: OnceCell<[RunReport; 3]>,
}

impl Inputs {
    pub(crate) fn new() -> Self {
        let wl = ConvWorkload::table4();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let golden = wl.golden(&ifmap, &weights);
        Inputs {
            wl,
            ifmap,
            weights,
            golden,
            kernel: CmemConvKernel::new(wl).expect("table4 workload fits"),
            net: resnet18(1000),
            exec: ExecConfig::default(),
            runs: OnceCell::new(),
        }
    }

    /// ResNet-18 under `strategy` on the analytic pipeline model.
    pub(crate) fn map(&self, strategy: Strategy) -> RunReport {
        run_network(&self.net, RESNET18_IN, strategy, &self.exec).expect("resnet maps")
    }

    fn runs(&self) -> &[RunReport; 3] {
        self.runs.get_or_init(|| Strategy::ALL.map(|s| self.map(s)))
    }
}

/// A section: prints its rows and asserts its claims.
type Section = fn(&Inputs);

/// Every section under its `--bench` name, in print order.
pub(crate) const ALL: [(&str, Section); 12] = [
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablation_slices", ablation_slices),
    ("ablation_reduction", ablation_reduction),
    ("ablation_precision", ablation_precision),
    ("ablation_dataflow", ablation_dataflow),
    ("micro_noc", micro_noc),
    ("micro_pipeline", micro_pipeline),
];

/// The Table 4 MAICC node: the statically scheduled conv on the
/// cycle-accurate pipeline, checked against `golden`. Returns its cycles
/// and energy: CMem dynamic activity plus the node's static power (8 mW
/// core + 10 mW CMem leakage) over the run.
pub(crate) fn maicc_node_conv(
    wl: ConvWorkload,
    ifmap: &[i8],
    weights: &[i8],
    golden: &[i32],
) -> (u64, f64) {
    let kernel = CmemConvKernel::new(wl).expect("table4 workload fits");
    let sched = kernel.with_program(kernel.scheduled_program());
    let mut node = sched.prepare(ifmap, weights, 4).expect("prepared");
    let mut t = Timing::new(PipelineConfig::default());
    node.run_with(100_000_000, |e| t.on_retire(e)).expect("halts");
    assert_eq!(sched.read_ofmap(&node).expect("ofmap"), golden, "table4 functional mismatch");
    let cycles = t.finish().total_cycles;
    let energy = node.cmem().energy().total_joules()
        + cycles as f64 * (power::CORE_W + power::CMEM_STATIC_W) / 1e9;
    (cycles, energy)
}

/// Cycles of `kernel` running `prog` on the pipeline configured by `cfg`.
pub(crate) fn replay(
    kernel: &CmemConvKernel,
    prog: Vec<Instruction>,
    cfg: PipelineConfig,
    ifmap: &[i8],
    weights: &[i8],
) -> u64 {
    let k = kernel.with_program(prog);
    let mut node = k.prepare(ifmap, weights, 4).expect("prepared");
    let mut t = Timing::new(cfg);
    node.run_with(100_000_000, |e| t.on_retire(e)).expect("halts");
    t.finish().total_cycles
}

/// Table 4: scalar core vs MAICC node vs Neural Cache on the 5×(3×3×256)
/// filters / 9×9×256 ifmap convolution, 8-bit.
fn table4(inp: &Inputs) {
    let scalar = ScalarConvKernel::new(inp.wl);
    let mut node = scalar.prepare(&inp.ifmap, &inp.weights).expect("prepared");
    let mut t = Timing::new(PipelineConfig::default());
    node.run_with(200_000_000, |e| t.on_retire(e)).expect("halts");
    assert_eq!(scalar.read_ofmap(&node).expect("ofmap"), inp.golden);
    let scalar_cycles = t.finish().total_cycles;
    // the scalar node burns its 8 mW for the whole (much longer) run
    let scalar_j = scalar_cycles as f64 * 8e-3 / 1e9;
    let (maicc_cycles, maicc_j) = maicc_node_conv(inp.wl, &inp.ifmap, &inp.weights, &inp.golden);
    let nc = NcConvCost::evaluate(5, 3, 3, 256, 9, 9, 8, 5);
    // Neural Cache node: bit-serial activations, the host-CPU assistance
    // share, and twice the SRAM leakage (40 KB of compute arrays)
    let nc_j = nc.total() as f64 * 0.44e-12 * 32.0
        + nc.total() as f64 * (power::CORE_W + 2.0 * power::CMEM_STATIC_W) / 1e9;

    header("Table 4 — node comparison");
    row("scalar core cycles", scalar_cycles as f64, paper::TABLE4_CYCLES[0], "cycles");
    row("MAICC node cycles", maicc_cycles as f64, paper::TABLE4_CYCLES[1], "cycles");
    row("Neural Cache cycles", nc.total() as f64, paper::TABLE4_CYCLES[2], "cycles");
    // in µJ: `row`'s four decimals would print joules as 0.0000
    let uj = |j: f64| j * 1e6;
    row("scalar core energy", uj(scalar_j), uj(paper::TABLE4_ENERGY[0]), "µJ");
    row("MAICC node energy", uj(maicc_j), uj(paper::TABLE4_ENERGY[1]), "µJ");
    row("Neural Cache energy", uj(nc_j), uj(paper::TABLE4_ENERGY[2]), "µJ");
    println!(
        "areas (mm²): scalar {:.3}, MAICC {:.3}, Neural Cache {:.3} (paper: 0.052 / 0.114 / 0.158)",
        area::SCALAR_NODE_MM2,
        area::maicc_node_mm2(),
        area::NEURAL_CACHE_NODE_MM2
    );
    println!(
        "MAICC vs Neural Cache: {:.2}x faster (paper: 2.3x)",
        nc.total() as f64 / maicc_cycles as f64
    );
    assert!(maicc_cycles < nc.total(), "MAICC must beat Neural Cache");
    assert!(nc.total() < scalar_cycles, "Neural Cache must beat scalar");
}

/// Table 5: the Table 4 conv under queue depths 0/1/2/4 × one or two
/// write-back ports × with and without compile-time reordering.
fn table5(inp: &Inputs) {
    let kernel = &inp.kernel;
    header("Table 5 — dynamic and static scheduling");
    println!("{:<28}{:>12}{:>12}", "configuration", "w/o static", "with static");
    let mut q2_naive = 0u64;
    let mut q2_sched = 0u64;
    for wb in [1usize, 2] {
        for q in [0usize, 1, 2, 4] {
            let cfg = PipelineConfig {
                cmem_queue: q,
                wb_ports: wb,
                ..PipelineConfig::default()
            };
            let naive = replay(kernel, kernel.program().to_vec(), cfg, &inp.ifmap, &inp.weights);
            let sched = replay(kernel, kernel.scheduled_program(), cfg, &inp.ifmap, &inp.weights);
            println!("queue {q}, {wb} WB port(s){naive:>12}{sched:>12}");
            if q == 2 && wb == 1 {
                q2_naive = naive;
                q2_sched = sched;
            }
        }
    }
    row("queue=2 wb=1 w/o static", q2_naive as f64, paper::TABLE5_DYNAMIC[2], "cycles");
    row("queue=2 wb=1 with static", q2_sched as f64, paper::TABLE5_STATIC[2], "cycles");
    println!(
        "static scheduling gain: {:.1}% (paper: 16%)",
        (1.0 - q2_sched as f64 / q2_naive as f64) * 100.0
    );
    assert!(q2_sched < q2_naive, "static scheduling must help");
}

/// Table 6: ResNet-18's per-layer node counts, per-segment latency and
/// total inference latency under the three mapping strategies.
fn table6(inp: &Inputs) {
    let cfg = &inp.exec;
    let [single, greedy, heuristic] = inp.runs();
    header("Table 6 — layer mapping strategies");
    println!(
        "{:<4}{:<11}{:>8}{:>8}{:>10}",
        "#", "layer", "single", "greedy", "heuristic"
    );
    for i in 0..single.layers.len() {
        println!(
            "{:<4}{:<11}{:>8}{:>8}{:>10}",
            i + 1,
            single.layers[i].name,
            single.layers[i].nodes,
            greedy.layers[i].nodes,
            heuristic.layers[i].nodes
        );
    }
    println!("\nper-segment latency (ms):");
    for (name, r) in [
        ("single-layer", single),
        ("greedy", greedy),
        ("heuristic", heuristic),
    ] {
        let segs: Vec<String> = r
            .segments
            .iter()
            .map(|s| format!("{:.3}", cfg.cycles_to_ms(s.latency())))
            .collect();
        println!("  {:<13} {}", name, segs.join(" / "));
    }
    println!();
    row("single-layer total", single.total_ms(cfg), paper::TABLE6_TOTAL_MS[0], "ms");
    row("greedy total", greedy.total_ms(cfg), paper::TABLE6_TOTAL_MS[1], "ms");
    row("heuristic total", heuristic.total_ms(cfg), paper::TABLE6_TOTAL_MS[2], "ms");
    assert!(heuristic.total_cycles < greedy.total_cycles);
    assert!(greedy.total_cycles < single.total_cycles);
}

/// Table 7: MAICC vs CPU (i9-13900K) and GPU (RTX 4090) on ResNet-18,
/// plus §6.3's GFLOPS/W against Neural Cache.
fn table7(inp: &Inputs) {
    let cfg = &inp.exec;
    let run = &inp.runs()[2];
    let energy = EnergyBreakdown::from_counters(&run.counters);
    let maicc_ms = run.total_ms(cfg);
    let maicc_tp = run.throughput(cfg);
    let maicc_w = energy.average_power(run.counters.seconds);
    let maicc_tpw = maicc_tp / maicc_w;

    let cpu = DeviceModel::cpu_i9_13900k();
    let gpu = DeviceModel::gpu_rtx_4090();

    header("Table 7 — overall performance on ResNet-18 (batch 1)");
    println!("{:<24}{:>12}{:>12}{:>12}", "", "CPU", "GPU", "MAICC");
    println!(
        "{:<24}{:>12.2}{:>12.2}{:>12.2}",
        "latency (ms)",
        cpu.latency_s(RESNET18_FULL_MACS) * 1e3,
        gpu.latency_s(RESNET18_FULL_MACS) * 1e3,
        maicc_ms
    );
    println!(
        "{:<24}{:>12.1}{:>12.1}{:>12.1}",
        "throughput (samples/s)",
        cpu.throughput(RESNET18_FULL_MACS),
        gpu.throughput(RESNET18_FULL_MACS),
        maicc_tp
    );
    println!(
        "{:<24}{:>12.1}{:>12.1}{:>12.1}",
        "average power (W)", cpu.average_power_w, gpu.average_power_w, maicc_w
    );
    println!(
        "{:<24}{:>12.2}{:>12.2}{:>12.2}",
        "throughput per watt",
        cpu.throughput_per_watt(RESNET18_FULL_MACS),
        gpu.throughput_per_watt(RESNET18_FULL_MACS),
        maicc_tpw
    );
    println!();
    row("MAICC latency", maicc_ms, paper::TABLE7_LATENCY_MS[2], "ms");
    row("MAICC throughput/W", maicc_tpw, paper::TABLE7_TPW[2], "s/s/W");
    println!(
        "speedup over CPU: {:.1}x (paper: 4.3x); efficiency over CPU: {:.1}x (paper: 31.6x); over GPU: {:.1}x (paper: 1.8x)",
        maicc_tp / cpu.throughput(RESNET18_FULL_MACS),
        maicc_tpw / cpu.throughput_per_watt(RESNET18_FULL_MACS),
        maicc_tpw / gpu.throughput_per_watt(RESNET18_FULL_MACS)
    );
    assert!(maicc_tpw > gpu.throughput_per_watt(RESNET18_FULL_MACS));
    assert!(maicc_tp > cpu.throughput(RESNET18_FULL_MACS));
    assert!(maicc_tp < gpu.throughput(RESNET18_FULL_MACS));

    // §6.3: GFLOPS/W without DRAM, vs Neural Cache's published 22.90
    let eff = Efficiency {
        macs: inp.net.total_macs(RESNET18_IN).expect("shapes"),
        seconds: run.counters.seconds,
        joules: energy.total_without_dram(),
    };
    header("§6.3 — computational efficiency (DRAM excluded)");
    row("MAICC GFLOPS/W", eff.gflops_per_watt(), paper::GFLOPS_PER_W[1], "GFLOPS/W");
    println!(
        "vs Neural Cache's published {NEURAL_CACHE_GFLOPS_PER_W}: {:.2}x (paper: 2.2x)",
        eff.vs_neural_cache()
    );
    assert!(eff.vs_neural_cache() > 1.0);
}

/// Figure 9: the per-iteration cycle breakdown of layer 9's (conv2_4)
/// computing core under the three mapping strategies.
fn fig9(inp: &Inputs) {
    const LAYER: usize = 8; // conv2_4, the paper's layer index 9
    header("Figure 9 — time breakdown per iteration of layer conv2_4");
    println!(
        "{:<14}{:>8}{:>10}{:>8}{:>12}{:>12}{:>10}",
        "strategy", "wait", "compute", "recv", "send-ifmap", "send-ofmap", "period"
    );
    let mut waits = Vec::new();
    for (strat, r) in Strategy::ALL.into_iter().zip(inp.runs()) {
        let b = IterBreakdown::of(&r.layers[LAYER]);
        println!(
            "{:<14}{:>8.0}{:>10.0}{:>8.0}{:>12.0}{:>12.0}{:>10.0}",
            format!("{strat:?}"),
            b.wait,
            b.compute,
            b.recv,
            b.send_ifmap,
            b.send_ofmap,
            b.effective_period
        );
        waits.push(b.wait);
    }
    println!(
        "\npaper's reading: waiting dominates single-layer and greedy; compute\n\
         scales inversely with allocated nodes; send costs stay stable."
    );
    // the paper's qualitative claim: single-layer waits longer than heuristic
    assert!(waits[0] > waits[2]);
}

/// Figure 10: the area and energy breakdown of the 210-core chip.
fn fig10(inp: &Inputs) {
    // (a) area
    let area = AreaBreakdown::for_chip(210, 32);
    let f = area.fractions();
    header("Figure 10(a) — area breakdown");
    println!("total chip area: {:.1} mm² (paper: 28 mm²)", area.total());
    let labels = ["CMem", "core", "node SRAM", "NoC", "LL cache"];
    for i in 0..5 {
        row(labels[i], f[i] * 100.0, paper::FIG10_AREA[i] * 100.0, "%");
    }
    println!(
        "CMem computing logic (adder trees): {:.1} mm² — about one-third of the CMem",
        area.cmem_logic()
    );
    assert!(f[0] > 0.55, "CMem must dominate area");

    // (b) energy, from the heuristic ResNet-18 run
    let run = &inp.runs()[2];
    let e = EnergyBreakdown::from_counters(&run.counters);
    let ef = e.fractions();
    header("Figure 10(b) — energy breakdown (heuristic ResNet-18 run)");
    println!(
        "total energy {:.2} mJ over {:.2} ms → {:.1} W average",
        e.total() * 1e3,
        run.counters.seconds * 1e3,
        e.average_power(run.counters.seconds)
    );
    let elabels = ["DRAM", "CMem", "NoC", "core", "node SRAM", "LL cache"];
    let epaper = [0.71, 0.11, 0.11, 0.03, 0.02, 0.02];
    for i in 0..6 {
        row(elabels[i], ef[i] * 100.0, epaper[i] * 100.0, "%");
    }
    assert!(ef[0] > 0.5, "DRAM must dominate energy: {ef:?}");
    assert!(ef[0] > paper::FIG10_ENERGY_TOP3[1], "dram above cmem band");
}

/// Ablation of §3.2's CMem slicing: per-iteration latency and CMem area
/// of the Table 4 workload as the compute-slice count varies.
fn ablation_slices(_: &Inputs) {
    // 45 filter vectors, one arriving ifmap vector: the broadcast
    // serializes on slice 0 (`k·N`) while the MACs spread over the
    // slices (`⌈45/k⌉·N²`)
    let iteration_cycles = |k: u64| {
        let n = 8u64;
        k * n + 45u64.div_ceil(k) * n * n
    };
    // slice 0 plus `k` slices whose cell area shrinks with 1/k (fixed
    // capacity) but whose adder-tree logic replicates per slice
    let cmem_area = |k: f64| {
        let cells_total = 7.0 * COMPUTE_SLICE_MM2 * (1.0 - SLICE_LOGIC_FRACTION);
        let logic_each = 7.0 * COMPUTE_SLICE_MM2 * SLICE_LOGIC_FRACTION / 7.0;
        SLICE0_MM2 + cells_total + k * logic_each
    };
    header("Ablation — slice count vs per-iteration latency and area");
    println!(
        "{:>8}{:>16}{:>14}{:>18}",
        "slices", "cycles/iter", "CMem mm²", "vectors/slice"
    );
    let mut prev_cycles = u64::MAX;
    for k in [1u64, 2, 4, 7, 8, 14, 16] {
        let cy = iteration_cycles(k);
        println!(
            "{:>8}{:>16}{:>14.4}{:>18.1}",
            k,
            cy,
            cmem_area(k as f64),
            45.0 / k as f64
        );
        if k <= 8 {
            assert!(cy <= prev_cycles, "more slices must not slow compute");
            prev_cycles = cy;
        }
    }
    println!(
        "\nthe paper's pick (7 compute slices): {} cycles/iter — within 15% of the\n\
         16-slice point at half the adder-tree area; fewer slices serialize MACs.",
        iteration_cycles(7)
    );
    assert!(iteration_cycles(7) < iteration_cycles(1) / 4);
    assert!(cmem_area(16.0) > cmem_area(7.0));
}

/// Ablation of §3.2's MAC primitive (Figure 4): the same 256-element dot
/// product as MAICC's spatial `MAC.C` (`n²` cycles) and as Neural Cache's
/// bit-serial multiply plus log-step reduction, cross-checked on the
/// bit-level arrays.
fn ablation_reduction(_: &Inputs) {
    header("Ablation — MAC primitive vs element-wise + reduction");
    println!(
        "{:>6}{:>14}{:>22}{:>12}",
        "bits", "MAC.C cycles", "elementwise+reduce", "speedup"
    );
    for bits in [2usize, 4, 8, 16] {
        let mac = timing::mac_cycles(bits);
        let ew = timing::nc_mul_cycles(bits) + timing::nc_reduce_cycles(2 * bits, 256);
        println!("{:>6}{:>14}{:>22}{:>12.2}", bits, mac, ew, ew as f64 / mac as f64);
        assert!(mac < ew, "the MAC primitive must win at {bits} bits");
    }

    let a: Vec<u16> = (0..256).map(|i| (i * 3 % 251) as u16 % 256).collect();
    let b: Vec<u16> = (0..256).map(|i| (i * 7 % 241) as u16 % 256).collect();
    let mut slice = CmemSlice::new();
    slice.write_vector(0, &a, 8).expect("fits");
    slice.write_vector(8, &b, 8).expect("fits");
    let spatial = slice.mac(0, 8, 8, false).expect("in range") as u64;

    let mut nc = NcArray::new();
    let a64: Vec<u64> = a.iter().map(|&x| x as u64).collect();
    let b64: Vec<u64> = b.iter().map(|&x| x as u64).collect();
    nc.write_vector(0, &a64, 8).expect("fits");
    nc.write_vector(8, &b64, 8).expect("fits");
    let temporal = nc.dot(0, 8, 32, 8).expect("in range");
    assert_eq!(spatial, temporal, "both paths compute the same dot product");
    println!("\nfunctional cross-check at 8 bits: both paths give {spatial} ✓");
    println!(
        "Neural Cache spends {:.0}% of those cycles in the reduction tail (paper: 23%)",
        timing::nc_reduce_cycles(16, 256) as f64
            / (timing::nc_mul_cycles(8) + timing::nc_reduce_cycles(16, 256)) as f64
            * 100.0
    );
}

/// Ablation of §2.2's precision: ResNet-18 mapped heuristically at 4, 8
/// and 16 bits. A `MAC.C` costs `n²` cycles and a slice holds `64/n − 1`
/// vectors, so halving the precision quadruples MAC speed and doubles
/// the filters per core.
fn ablation_precision(inp: &Inputs) {
    header("Ablation — precision vs latency (ResNet-18, heuristic, 210 cores)");
    println!(
        "{:>6}{:>14}{:>16}{:>18}",
        "bits", "latency (ms)", "min conv4 nodes", "throughput (s/s)"
    );
    let mut results = Vec::new();
    for bits in [4usize, 8, 16] {
        let cfg = ExecConfig {
            n_bits: bits,
            ..ExecConfig::default()
        };
        match run_network(&inp.net, RESNET18_IN, Strategy::Heuristic, &cfg) {
            Ok(r) => {
                let conv4 = r
                    .layers
                    .iter()
                    .filter(|l| l.name.starts_with("conv4"))
                    .map(|l| l.nodes)
                    .min()
                    .unwrap_or(0);
                println!(
                    "{:>6}{:>14.3}{:>16}{:>18.1}",
                    bits,
                    r.total_ms(&cfg),
                    conv4,
                    r.throughput(&cfg)
                );
                results.push((bits, r.total_ms(&cfg)));
            }
            Err(e) => println!("{bits:>6}  does not map: {e}"),
        }
    }
    // 4-bit must beat 8-bit; 16-bit must be the slowest mapping that fits
    if results.len() >= 2 {
        assert!(
            results[0].1 < results[1].1,
            "4-bit should be faster: {results:?}"
        );
    }
    if results.len() == 3 {
        assert!(results[1].1 < results[2].1, "{results:?}");
    }
    println!(
        "\nprecision is why in-SRAM bit-serial computing targets quantized\n\
         inference: the same array is a faster, larger machine at low n."
    );
}

/// Ablation of §4.2's dataflow choice at vector granularity: the
/// alternatives to weight-stationary either explode inter-node traffic
/// (OS re-streams weights) or give a core too few consecutive MACs to
/// cover the 64-cycle MAC latency (RS, OS).
fn ablation_dataflow(inp: &Inputs) {
    let shapes = inp.net.shapes(RESNET18_IN).expect("shapes");
    header("Ablation — dataflows on ResNet-18 layers (per node group)");
    for name in ["conv1_2", "conv2_2", "conv3_2", "conv4_2"] {
        let s = shapes.iter().find(|s| s.name == name).expect("layer");
        println!("\n{name} (C={} M={}):", s.in_c, s.out_c);
        println!(
            "{:>20}{:>16}{:>16}{:>12}{:>10}",
            "dataflow", "traffic (KB)", "weights (KB)", "depth", "busy?"
        );
        let cores = (s.out_c / 5).max(4);
        for df in Dataflow::ALL {
            let cost = evaluate(s, df, cores);
            println!(
                "{:>20}{:>16.0}{:>16.0}{:>12.1}{:>10}",
                format!("{df:?}"),
                cost.total_traffic() / 1024.0,
                cost.weight_traffic / 1024.0,
                cost.pipeline_depth,
                if cost.saturates_cmem() { "yes" } else { "no" }
            );
        }
        let ws = evaluate(s, Dataflow::WeightStationary, cores);
        assert!(ws.saturates_cmem(), "{name}");
    }
    println!(
        "\nonly weight-stationary keeps the seven slices busy while moving\n\
         weights exactly once — the paper's §4.2 conclusion."
    );
}

/// Drains `n` 9-flit row packets of spread uniform traffic through the
/// 16×16 mesh; returns the cycles the drain took.
pub(crate) fn uniform_traffic(n: u32) -> u64 {
    let mut mesh: Mesh<u32> = Mesh::new(16, 16);
    for i in 0..n {
        let s = Coord::new((i % 15) as u8, ((i / 15) % 14) as u8);
        let d = Coord::new(((i * 7) % 15) as u8, (((i * 11) / 15) % 14) as u8);
        mesh.send(Packet::new(s, d, 9, i));
    }
    let delivered = mesh.run_until_idle(1_000_000);
    assert_eq!(delivered.len(), n as usize);
    mesh.cycle()
}

/// The mesh alone: drain cycles under uniform load and the zero-load
/// corner-to-corner latency on the 16×16 MAICC geometry.
fn micro_noc(_: &Inputs) {
    header("NoC characterization (16×16 mesh, 9-flit row packets)");
    println!("{:>10}{:>14}{:>18}", "packets", "drain cycles", "pkts/kcycle");
    for n in [32u32, 128, 512] {
        let cy = uniform_traffic(n);
        println!("{:>10}{:>14}{:>18.1}", n, cy, n as f64 / cy as f64 * 1e3);
    }
    let one = Mesh::<u32>::zero_load_latency(Coord::new(0, 0), Coord::new(15, 15), 9);
    println!("corner-to-corner 9-flit zero-load latency: {one} cycles");
}

/// The node simulator's host speed: the `micro_pipeline_*` rows time the
/// interpreter alone and with the timing replay on the tiny conv.
fn micro_pipeline(_: &Inputs) {
    header("simulator speed");
}
