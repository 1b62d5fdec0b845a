//! A small two-pass assembler with label resolution.
//!
//! Kernels and tests build instruction sequences programmatically; labels
//! spare them from computing branch displacements by hand. A target that
//! reads as a number is a byte offset, as `Instruction`'s `Display` prints
//! it. The assembler checks every displacement against the B-type
//! (±4 KiB) and J-type (±1 MiB) immediate fields, which hold even offsets.
//!
//! # Example
//!
//! ```
//! use maicc_isa::asm::Assembler;
//! use maicc_isa::inst::{BranchKind, Instruction};
//! use maicc_isa::reg::Reg;
//!
//! # fn main() -> Result<(), maicc_isa::IsaError> {
//! let mut a = Assembler::new();
//! a.inst(Instruction::li(Reg::A0, 10));
//! a.inst(Instruction::li(Reg::A1, 0));
//! a.label("loop");
//! a.inst(Instruction::add(Reg::A1, Reg::A1, Reg::A0));
//! a.inst(Instruction::addi(Reg::A0, Reg::A0, -1));
//! a.branch(BranchKind::Bne, Reg::A0, Reg::Zero, "loop");
//! a.inst(Instruction::Ebreak);
//! let program = a.assemble()?;
//! assert_eq!(program.len(), 6);
//! # Ok(())
//! # }
//! ```

use crate::inst::{BranchKind, Instruction};
use crate::reg::Reg;
use crate::IsaError;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Item {
    Inst(Instruction),
    Branch {
        kind: BranchKind,
        rs1: Reg,
        rs2: Reg,
        label: String,
    },
    Jal {
        rd: Reg,
        label: String,
    },
}

/// Programmatic two-pass assembler.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    items: Vec<Item>,
    labels: HashMap<String, usize>,
}

impl Assembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fully resolved instruction.
    pub fn inst(&mut self, i: Instruction) -> &mut Self {
        self.items.push(Item::Inst(i));
        self
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (a programming error in the
    /// kernel generator).
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.items.len());
        assert!(prev.is_none(), "label `{name}` defined twice");
        self
    }

    /// Appends a conditional branch to a label.
    pub fn branch(&mut self, kind: BranchKind, rs1: Reg, rs2: Reg, label: impl Into<String>) -> &mut Self {
        self.items.push(Item::Branch {
            kind,
            rs1,
            rs2,
            label: label.into(),
        });
        self
    }

    /// Appends a `jal` to a label.
    pub(crate) fn jal(&mut self, rd: Reg, label: impl Into<String>) -> &mut Self {
        self.items.push(Item::Jal {
            rd,
            label: label.into(),
        });
        self
    }

    /// Appends an unconditional jump (`jal x0`) to a label.
    pub fn jump(&mut self, label: impl Into<String>) -> &mut Self {
        self.jal(Reg::Zero, label)
    }

    /// Loads an arbitrary 32-bit constant with `lui` + `addi`.
    pub fn li32(&mut self, rd: Reg, value: i32) -> &mut Self {
        let lo = (value << 20) >> 20; // sign-extended low 12 bits
        let hi = value.wrapping_sub(lo);
        if hi != 0 {
            self.inst(Instruction::Lui { rd, imm: hi });
            if lo != 0 {
                self.inst(Instruction::addi(rd, rd, lo));
            }
        } else {
            self.inst(Instruction::li(rd, lo));
        }
        self
    }

    /// Resolves labels and returns the instruction sequence.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] for a dangling reference or
    /// [`IsaError::OffsetOutOfRange`] for an unreachable or odd displacement.
    pub fn assemble(&self) -> Result<Vec<Instruction>, IsaError> {
        let resolve = |label: &str, from: usize, bits: u32| -> Result<i32, IsaError> {
            let offset = match (label.parse::<i64>(), self.labels.get(label)) {
                (Ok(offset), _) => offset,
                (Err(_), Some(&target)) => (target as i64 - from as i64) * 4,
                (Err(_), None) => {
                    let label = label.to_string();
                    return Err(IsaError::UndefinedLabel { label });
                }
            };
            let max = (1i64 << (bits - 1)) - 1;
            let min = -(1i64 << (bits - 1));
            if offset < min || offset > max || offset % 2 != 0 {
                return Err(IsaError::OffsetOutOfRange { offset, bits });
            }
            Ok(offset as i32)
        };
        self.items
            .iter()
            .enumerate()
            .map(|(pc, item)| match item {
                Item::Inst(i) => Ok(*i),
                Item::Branch {
                    kind,
                    rs1,
                    rs2,
                    label,
                } => Ok(Instruction::Branch {
                    kind: *kind,
                    rs1: *rs1,
                    rs2: *rs2,
                    offset: resolve(label, pc, 13)?,
                }),
                Item::Jal { rd, label } => Ok(Instruction::Jal {
                    rd: *rd,
                    offset: resolve(label, pc, 21)?,
                }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction as I;

    #[test]
    fn backward_branch_resolves_negative() {
        let mut a = Assembler::new();
        a.label("top");
        a.inst(I::nop());
        a.branch(BranchKind::Bne, Reg::A0, Reg::Zero, "top");
        let p = a.assemble().unwrap();
        match p[1] {
            I::Branch { offset, .. } => assert_eq!(offset, -4),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forward_jump_resolves_positive() {
        let mut a = Assembler::new();
        a.jump("end");
        a.inst(I::nop());
        a.inst(I::nop());
        a.label("end");
        a.inst(I::Ebreak);
        let p = a.assemble().unwrap();
        match p[0] {
            I::Jal { offset, .. } => assert_eq!(offset, 12),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.jump("nowhere");
        assert!(matches!(
            a.assemble(),
            Err(IsaError::UndefinedLabel { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new();
        a.label("x");
        a.label("x");
    }

    #[test]
    fn li32_small_uses_single_addi() {
        let mut a = Assembler::new();
        a.li32(Reg::A0, 42);
        assert_eq!(a.assemble().unwrap(), vec![I::li(Reg::A0, 42)]);
    }

    #[test]
    fn li32_large_uses_lui_pair() {
        let mut a = Assembler::new();
        a.li32(Reg::A0, 0x1234_5678);
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 2);
        // semantics check: lui imm + addi low == value
        match (p[0], p[1]) {
            (I::Lui { imm, .. }, I::OpImm { imm: lo, .. }) => {
                assert_eq!(imm.wrapping_add(lo), 0x1234_5678);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn li32_negative_low_carries() {
        let mut a = Assembler::new();
        a.li32(Reg::A0, 0x0000_0FFF); // low 12 bits sign-extend negative
        let p = a.assemble().unwrap();
        match (p[0], p[1]) {
            (I::Lui { imm, .. }, I::OpImm { imm: lo, .. }) => {
                assert_eq!(imm.wrapping_add(lo), 0xFFF);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let mut a = Assembler::new();
        a.label("top");
        for _ in 0..2000 {
            a.inst(I::nop());
        }
        a.branch(BranchKind::Beq, Reg::Zero, Reg::Zero, "top");
        assert!(matches!(
            a.assemble(),
            Err(IsaError::OffsetOutOfRange { .. })
        ));
    }
}
