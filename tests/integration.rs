//! Cross-crate integration tests: every seam between subsystems.

use maicc::core::kernels::{CmemConvKernel, ConvWorkload};
use maicc::core::node::{Node, NullPort};
use maicc::core::pipeline::{PipelineConfig, Timing};
use maicc::exec::config::ExecConfig;
use maicc::exec::pipeline_model::run_network;
use maicc::exec::segment::Strategy;
use maicc::isa::decode::decode;
use maicc::isa::encode::encode;
use maicc::model::power::EnergyBreakdown;
use maicc::nn::resnet::resnet18;

/// A program survives encode → decode → execution: binary round-tripping
/// composes with the interpreter.
#[test]
fn encoded_program_executes_identically() {
    use maicc::isa::asm::Assembler;
    use maicc::isa::inst::{BranchKind, Instruction as I};
    use maicc::isa::reg::Reg;

    let mut a = Assembler::new();
    a.inst(I::li(Reg::A0, 12));
    a.inst(I::li(Reg::A1, 0));
    a.label("loop");
    a.inst(I::add(Reg::A1, Reg::A1, Reg::A0));
    a.inst(I::addi(Reg::A0, Reg::A0, -1));
    a.branch(BranchKind::Bne, Reg::A0, Reg::Zero, "loop");
    a.inst(I::Ebreak);
    let program = a.assemble().unwrap();

    // round-trip through the binary encoding
    let recoded: Vec<_> = program
        .iter()
        .map(|i| decode(encode(i)).expect("every emitted instruction encodes legally"))
        .collect();
    assert_eq!(program, recoded);

    let mut n1 = Node::new(program, NullPort::default());
    let mut n2 = Node::new(recoded, NullPort::default());
    n1.run(10_000).unwrap();
    n2.run(10_000).unwrap();
    assert_eq!(n1.reg(Reg::A1), n2.reg(Reg::A1));
    assert_eq!(n1.reg(Reg::A1), (1..=12).sum::<u32>());
}

/// The CMem conv kernel agrees with the golden `maicc-nn` convolution on a
/// non-trivial workload (cross-checking isa + core + sram + nn).
#[test]
fn cmem_kernel_agrees_with_golden_conv() {
    let wl = ConvWorkload {
        filters: 3,
        r: 3,
        s: 3,
        c: 64,
        h: 7,
        w: 7,
    };
    let kernel = CmemConvKernel::new(wl).unwrap();
    let ifmap = wl.synthetic_ifmap();
    let weights = wl.synthetic_weights();
    let mut node = kernel.prepare(&ifmap, &weights, 4).unwrap();
    node.run(50_000_000).unwrap();
    assert_eq!(kernel.read_ofmap(&node).unwrap(), wl.golden(&ifmap, &weights));
}

/// Static scheduling never changes results and never makes timing worse,
/// across several workload shapes.
#[test]
fn scheduling_is_sound_and_profitable_across_shapes() {
    for wl in [
        ConvWorkload::tiny(),
        ConvWorkload {
            filters: 4,
            r: 1,
            s: 1,
            c: 128,
            h: 6,
            w: 6,
        },
        ConvWorkload {
            filters: 2,
            r: 3,
            s: 3,
            c: 32,
            h: 6,
            w: 6,
        },
    ] {
        let kernel = CmemConvKernel::new(wl).unwrap();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let run = |prog: Vec<maicc::isa::inst::Instruction>| {
            let k = kernel.with_program(prog);
            let mut node = k.prepare(&ifmap, &weights, 4).unwrap();
            let mut t = Timing::new(PipelineConfig::default());
            node.run_with(50_000_000, |e| t.on_retire(e)).unwrap();
            (k.read_ofmap(&node).unwrap(), t.finish().total_cycles)
        };
        let (o1, c1) = run(kernel.program().to_vec());
        let (o2, c2) = run(kernel.scheduled_program());
        assert_eq!(o1, o2, "{wl:?}");
        assert!(c2 <= c1, "{wl:?}: scheduled {c2} vs naive {c1}");
        assert_eq!(o1, wl.golden(&ifmap, &weights), "{wl:?}");
    }
}

/// The execution model's counters drive the energy model into the
/// Figure-10(b) regime: DRAM-dominated, ~25 W.
#[test]
fn exec_counters_compose_with_energy_model() {
    let net = resnet18(1000);
    let cfg = ExecConfig::default();
    let run = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg).unwrap();
    let e = EnergyBreakdown::from_counters(&run.counters);
    let power = e.average_power(run.counters.seconds);
    assert!((15.0..40.0).contains(&power), "chip power {power} W");
    let f = e.fractions();
    assert!(f[0] > 0.5, "DRAM should dominate: {f:?}");
}

/// Table 7's headline: MAICC beats the CPU on throughput and both
/// baselines on throughput/W.
#[test]
fn table7_shape_holds() {
    use maicc::model::baselines::{DeviceModel, RESNET18_FULL_MACS};
    let net = resnet18(1000);
    let cfg = ExecConfig::default();
    let run = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg).unwrap();
    let e = EnergyBreakdown::from_counters(&run.counters);
    let maicc_tp = run.throughput(&cfg);
    let maicc_tpw = maicc_tp / e.average_power(run.counters.seconds);

    let cpu = DeviceModel::cpu_i9_13900k();
    let gpu = DeviceModel::gpu_rtx_4090();
    let cpu_tp = cpu.throughput(RESNET18_FULL_MACS);
    let gpu_tp = gpu.throughput(RESNET18_FULL_MACS);

    assert!(maicc_tp > 2.0 * cpu_tp, "MAICC {maicc_tp} vs CPU {cpu_tp}");
    assert!(maicc_tp < gpu_tp, "GPU wins raw throughput in the paper too");
    assert!(
        maicc_tpw > gpu.throughput_per_watt(RESNET18_FULL_MACS),
        "MAICC must win throughput/W: {maicc_tpw} vs GPU {}",
        gpu.throughput_per_watt(RESNET18_FULL_MACS)
    );
    assert!(maicc_tpw > 10.0 * cpu.throughput_per_watt(RESNET18_FULL_MACS));
}

/// The NoC, memory system and mapping compose: a zig-zag chain's traffic
/// fits through the mesh with bounded latency.
#[test]
fn mapping_traffic_fits_mesh() {
    use maicc::exec::mapping::place_groups;
    use maicc::noc::{Coord, Mesh, Packet};
    let groups = place_groups(&[13]).unwrap();
    let g = &groups[0];
    let mut mesh: Mesh<u32> = Mesh::new(16, 16);
    // one pixel: 8 row packets DC → first CC, then forwarded down the chain
    let mut prev = Coord::new(g.dc.x, g.dc.y);
    for t in std::iter::once(&g.computing[0]).chain(&g.computing[1..]) {
        let next = Coord::new(t.x, t.y);
        for _ in 0..8 {
            mesh.send(Packet::new(prev, next, 9, 0));
        }
        prev = next;
    }
    let delivered = mesh.run_until_idle(100_000);
    assert_eq!(delivered.len(), 8 * 13);
    // adjacent hops: mean latency stays near the serialization bound
    assert!(mesh.stats().mean_latency() < 200.0);
}

/// Memory system feeds the model constants used by exec counters.
#[test]
fn memory_energy_constants_are_consistent() {
    use maicc::mem::dram::{ACTIVATE_PJ, READ_PJ};
    use maicc::mem::system::MemorySystem;
    let mut m = MemorySystem::new_maicc();
    let mut t = 0;
    for i in 0..1000u32 {
        t = m.access(i * 32, false, t);
    }
    let s = m.stats();
    let pj = s.dynamic_pj();
    // bounded by the per-access constants
    assert!(pj > 1000.0 * 0.5 * READ_PJ);
    assert!(pj < 1000.0 * (READ_PJ + ACTIVATE_PJ) + 1e6);
}

/// The auxiliary-function codegen agrees with the golden requantizer on
/// random accumulators and multipliers — the scalar half of a mixed layer
/// is exactly what the golden model computes.
#[test]
fn requantize_codegen_matches_golden_requantizer() {
    use maicc::core::aux_codegen::{requantize_program, RequantParams};
    use maicc::isa::reg::Reg;
    use maicc::nn::quant::Requantizer;

    let mut mismatches = Vec::new();
    // deterministic pseudo-random sweep over multipliers and accumulators
    let mut x = 0x1234_5678u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..60 {
        let m = (next() % 9_000) as f64 / 10_000.0 + 0.05; // [0.05, 0.95)
        let zp = (next() % 21) as i32 - 10;
        let golden = Requantizer::from_real_multiplier(m, zp);
        let params = RequantParams {
            multiplier: golden.multiplier,
            shift: golden.shift,
            zero_point: golden.zero_point,
        };
        let program = requantize_program(params, false);
        for _ in 0..20 {
            let acc = (next() as i64 % 2_000_000 - 1_000_000) as i32;
            let mut node = Node::new(program.clone(), NullPort::default());
            node.set_reg(Reg::A0, acc as u32);
            node.run(10_000).unwrap();
            let hw = node.reg(Reg::A0) as i32 as i8;
            let sw = golden.apply(acc);
            if hw != sw {
                mismatches.push((m, acc, hw, sw));
            }
        }
    }
    assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
}
