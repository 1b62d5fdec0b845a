#![warn(missing_docs)]

//! # maicc-isa — RV32IMA instruction set with the CMem extension
//!
//! Every MAICC node is a lightweight RISC-V core with the **RV32IMA** base
//! ISA (§3.1) extended by the six computing-memory instructions of Table 2:
//! `MAC.C`, `Move.C`, `SetRow.C`, `ShiftRow.C`, `LoadRow.RC`, `StoreRow.RC`,
//! plus a mask-CSR write. This crate defines:
//!
//! * [`reg`] — the integer register file names (x0–x31 / ABI);
//! * [`inst`] — the [`inst::Instruction`] enum with dataflow metadata
//!   (defs/uses, latency class) consumed by the scoreboard and the static
//!   scheduler in `maicc-core`;
//! * [`encode`]/[`decode`] — bit-exact 32-bit encodings; the CMem extension
//!   lives in the *custom-0* major opcode (0x0B), the slot the RISC-V spec
//!   reserves for vendor extensions;
//! * [`asm`] — a small two-pass assembler with label support, used by the
//!   kernels, tests and examples;
//! * [`parse`] — a textual assembly front end over the same builder, which
//!   reads back every instruction's `Display` text.
//!
//! One table per RV32IMA operation kind gives each operation's mnemonic
//! and encoding bits; encoding, decoding, parsing and printing all read it.
//!
//! ## Example
//!
//! ```
//! use maicc_isa::inst::Instruction;
//! use maicc_isa::reg::Reg;
//! use maicc_isa::{decode, encode};
//!
//! let add = Instruction::add(Reg::A0, Reg::A1, Reg::A2);
//! let word = encode::encode(&add);
//! assert_eq!(decode::decode(word).unwrap(), add);
//! ```

pub mod asm;
pub mod decode;
pub mod encode;
pub mod inst;
pub mod parse;
pub mod reg;

mod error;

pub use error::IsaError;

/// Major opcode used by the CMem extension instructions (RISC-V *custom-0*).
pub(crate) const CUSTOM0: u32 = 0x0B;
