#![warn(missing_docs)]

//! # maicc-core — the MAICC node: RV32IMA core tightly coupled with CMem
//!
//! This crate models one node of the many-core array (Figure 3(b)): a
//! lightweight five-stage RISC-V pipeline with in-order issue and
//! out-of-order completion, whose 16 KB data scratchpad is the computing
//! memory of `maicc-sram`.
//!
//! The model is split in two cooperating halves:
//!
//! * **Functional** ([`node`]) — a bit-exact RV32IMA interpreter over the
//!   Table-1 address map ([`mem_map`]), including the CMem extension
//!   semantics (every `MAC.C` really activates word-line pairs and pops
//!   the adder tree). Execution produces a retired-instruction
//!   [`node::Trace`].
//! * **Timing** ([`pipeline`]) — a cycle-accurate replay of a trace through
//!   the scoreboarded pipeline: multi-cycle units, the CMem FIFO issue
//!   queue (§3.3), one or two register-file write ports, and branch-flush
//!   penalties. Table 5's knobs are [`pipeline::PipelineConfig`] fields.
//!
//! [`sched`] implements the compile-time instruction reordering the paper
//! calls *static scheduling*; [`kernels`] generates the Algorithm-1
//! convolution programs (CMem version and the scalar baseline) that Tables
//! 4 and 5 measure; [`aux_codegen`] emits
//! the auxiliary functions (ReLU, integer-only requantization) as RV32IM
//! code for the scalar half of a mixed layer.
//!
//! ## Example — run a program functionally and time it
//!
//! ```
//! use maicc_core::node::{Node, NullPort};
//! use maicc_core::pipeline::{PipelineConfig, Timing};
//! use maicc_isa::asm::Assembler;
//! use maicc_isa::inst::Instruction;
//! use maicc_isa::reg::Reg;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new();
//! a.inst(Instruction::li(Reg::A0, 21));
//! a.inst(Instruction::add(Reg::A0, Reg::A0, Reg::A0));
//! a.inst(Instruction::Ebreak);
//! let program = a.assemble()?;
//!
//! let mut node = Node::new(program, NullPort::default());
//! let trace = node.run(1_000)?;
//! assert_eq!(node.reg(Reg::A0), 42);
//!
//! let cycles = Timing::new(PipelineConfig::default()).replay(&trace).total_cycles;
//! assert!(cycles >= 3);
//! # Ok(())
//! # }
//! ```

pub mod aux_codegen;
pub mod kernels;
pub mod mem_map;
pub mod node;
pub mod pipeline;
pub mod sched;

mod error;

pub use error::CoreError;
