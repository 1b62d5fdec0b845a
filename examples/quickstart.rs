//! Quickstart: the three layers of the MAICC stack in one file.
//!
//! 1. compute a dot product *inside the SRAM* with the raw CMem;
//! 2. run a RISC-V program that uses the CMem extension instructions on
//!    the cycle-accurate node;
//! 3. map ResNet-18 onto the 210-core array and print the headline
//!    latency.
//!
//! Run with: `cargo run --example quickstart`

use maicc::core::node::{Node, NullPort};
use maicc::core::pipeline::{PipelineConfig, Timing};
use maicc::exec::config::ExecConfig;
use maicc::exec::pipeline_model::run_network;
use maicc::exec::segment::Strategy;
use maicc::isa::asm::Assembler;
use maicc::isa::inst::{Instruction, VecWidth};
use maicc::isa::reg::Reg;
use maicc::nn::resnet::resnet18;
use maicc::sram::cmem::Cmem;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. in-SRAM computing -------------------------------------------
    let mut cmem = Cmem::new();
    let a: Vec<i8> = (0..256).map(|i| (i % 11) as i8 - 5).collect();
    let b: Vec<i8> = (0..256).map(|i| (i % 7) as i8 - 3).collect();
    cmem.write_vector_i8(1, 0, &a)?;
    cmem.write_vector_i8(1, 8, &b)?;
    let dot = cmem.mac_i8(1, 0, 8)?;
    let expect: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
    println!("in-SRAM dot product: {dot} (reference {expect})");
    println!("  energy so far: {:.1} pJ", cmem.energy().total_pj());
    assert_eq!(dot, expect);

    // --- 2. a program on the node ---------------------------------------
    let mut asm = Assembler::new();
    // two MACs on different slices run in parallel; the core sums them
    asm.inst(Instruction::MacC {
        rd: Reg::A0,
        slice: 1,
        row_a: 0,
        row_b: 8,
        width: VecWidth::W8,
    });
    asm.inst(Instruction::MacC {
        rd: Reg::A1,
        slice: 2,
        row_a: 0,
        row_b: 8,
        width: VecWidth::W8,
    });
    asm.inst(Instruction::add(Reg::A2, Reg::A0, Reg::A1));
    asm.inst(Instruction::Ebreak);
    let mut node = Node::new(asm.assemble()?, NullPort::default());
    for s in 1..=2 {
        node.cmem_mut().write_vector_i8(s, 0, &a)?;
        node.cmem_mut().write_vector_i8(s, 8, &b)?;
    }
    let trace = node.run(10_000)?;
    let report = Timing::new(PipelineConfig::default()).replay(&trace);
    println!(
        "node program: a2 = {} in {} cycles (two 64-cycle MACs overlapped)",
        node.reg(Reg::A2) as i32,
        report.total_cycles
    );

    // --- 3. the whole chip ----------------------------------------------
    let net = resnet18(1000);
    let cfg = ExecConfig::default();
    let run = run_network(&net, [64, 56, 56], Strategy::Heuristic, &cfg)?;
    println!(
        "ResNet-18 on 210 cores (heuristic mapping): {:.2} ms, {:.0} samples/s",
        run.total_ms(&cfg),
        run.throughput(&cfg)
    );
    Ok(())
}
