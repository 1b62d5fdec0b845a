//! Instruction definitions with dataflow metadata.
//!
//! The enum covers the full RV32IMA base ISA plus the CMem extension of
//! Table 2. Beyond representing instructions, it answers the questions the
//! pipeline model asks: which register does this define, which does it use,
//! which CMem slice does it occupy, and how many cycles does its execution
//! unit need.

use crate::reg::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BranchKind {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

/// Load widths/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum LoadKind {
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum StoreKind {
    Sb,
    Sh,
    Sw,
}

/// Register–immediate ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OpImmKind {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
}

/// Register–register ALU/M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OpKind {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    // M extension
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl OpKind {
    /// Whether this is an M-extension multiply.
    #[must_use]
    pub(crate) fn is_mul(self) -> bool {
        matches!(self, OpKind::Mul | OpKind::Mulh | OpKind::Mulhsu | OpKind::Mulhu)
    }

    /// Whether this is an M-extension divide/remainder.
    #[must_use]
    pub fn is_div(self) -> bool {
        matches!(self, OpKind::Div | OpKind::Divu | OpKind::Rem | OpKind::Remu)
    }
}

/// A-extension atomic memory operations (all word-width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AmoKind {
    LrW,
    ScW,
    Swap,
    Add,
    Xor,
    And,
    Or,
    Min,
    Max,
    Minu,
    Maxu,
}

/// An RV32IMA operation kind's table: one row per operation, giving its
/// assembler mnemonic and its encoding bits. `encode`, `decode`, the text
/// parser and `Display` all read the rows, so adding an operation to a
/// kind is one row.
///
/// The bits are `funct3` for branches, loads and stores,
/// `funct7 << 3 | funct3` for `Op` and `OpImm` (a shift's `funct7` is the
/// top of its immediate field), and `funct5` for AMOs.
pub(crate) trait OpTable: Copy + PartialEq + 'static {
    /// (operation, mnemonic, bits), one row per operation of the kind.
    const ROWS: &'static [(Self, &'static str, u32)];

    /// This operation's row.
    fn row(self) -> &'static (Self, &'static str, u32) {
        Self::ROWS
            .iter()
            .find(|row| row.0 == self)
            .expect("every operation has a row")
    }

    /// The assembler mnemonic.
    fn mnemonic(self) -> &'static str {
        self.row().1
    }

    /// The encoding bits.
    fn code(self) -> u32 {
        self.row().2
    }

    /// The operation whose encoding bits are `code`.
    fn from_code(code: u32) -> Option<Self> {
        Self::ROWS.iter().find(|row| row.2 == code).map(|row| row.0)
    }

    /// The operation spelt `mnemonic` (lower case).
    fn from_mnemonic(mnemonic: &str) -> Option<Self> {
        Self::ROWS
            .iter()
            .find(|row| row.1 == mnemonic)
            .map(|row| row.0)
    }
}

impl OpTable for BranchKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (BranchKind::Beq, "beq", 0),
        (BranchKind::Bne, "bne", 1),
        (BranchKind::Blt, "blt", 4),
        (BranchKind::Bge, "bge", 5),
        (BranchKind::Bltu, "bltu", 6),
        (BranchKind::Bgeu, "bgeu", 7),
    ];
}

impl OpTable for LoadKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (LoadKind::Lb, "lb", 0),
        (LoadKind::Lh, "lh", 1),
        (LoadKind::Lw, "lw", 2),
        (LoadKind::Lbu, "lbu", 4),
        (LoadKind::Lhu, "lhu", 5),
    ];
}

impl OpTable for StoreKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (StoreKind::Sb, "sb", 0),
        (StoreKind::Sh, "sh", 1),
        (StoreKind::Sw, "sw", 2),
    ];
}

impl OpTable for OpImmKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (OpImmKind::Addi, "addi", 0),
        (OpImmKind::Slti, "slti", 2),
        (OpImmKind::Sltiu, "sltiu", 3),
        (OpImmKind::Xori, "xori", 4),
        (OpImmKind::Ori, "ori", 6),
        (OpImmKind::Andi, "andi", 7),
        (OpImmKind::Slli, "slli", 1),
        (OpImmKind::Srli, "srli", 5),
        (OpImmKind::Srai, "srai", 0x20 << 3 | 5),
    ];
}

impl OpImmKind {
    /// Whether `OpImm` encoding bits (or a bare `funct3`) name a shift:
    /// `funct3` 001 or 101, whose immediate field holds `funct7` above a
    /// 5-bit shift amount.
    pub(crate) fn is_shift(code: u32) -> bool {
        code & 3 == 1
    }
}

impl OpTable for OpKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (OpKind::Add, "add", 0),
        (OpKind::Sub, "sub", 0x20 << 3),
        (OpKind::Sll, "sll", 1),
        (OpKind::Slt, "slt", 2),
        (OpKind::Sltu, "sltu", 3),
        (OpKind::Xor, "xor", 4),
        (OpKind::Srl, "srl", 5),
        (OpKind::Sra, "sra", 0x20 << 3 | 5),
        (OpKind::Or, "or", 6),
        (OpKind::And, "and", 7),
        (OpKind::Mul, "mul", 1 << 3),
        (OpKind::Mulh, "mulh", 1 << 3 | 1),
        (OpKind::Mulhsu, "mulhsu", 1 << 3 | 2),
        (OpKind::Mulhu, "mulhu", 1 << 3 | 3),
        (OpKind::Div, "div", 1 << 3 | 4),
        (OpKind::Divu, "divu", 1 << 3 | 5),
        (OpKind::Rem, "rem", 1 << 3 | 6),
        (OpKind::Remu, "remu", 1 << 3 | 7),
    ];
}

impl OpTable for AmoKind {
    const ROWS: &'static [(Self, &'static str, u32)] = &[
        (AmoKind::LrW, "lr.w", 0b00010),
        (AmoKind::ScW, "sc.w", 0b00011),
        (AmoKind::Swap, "amoswap.w", 0b00001),
        (AmoKind::Add, "amoadd.w", 0b00000),
        (AmoKind::Xor, "amoxor.w", 0b00100),
        (AmoKind::And, "amoand.w", 0b01100),
        (AmoKind::Or, "amoor.w", 0b01000),
        (AmoKind::Min, "amomin.w", 0b10000),
        (AmoKind::Max, "amomax.w", 0b10100),
        (AmoKind::Minu, "amominu.w", 0b11000),
        (AmoKind::Maxu, "amomaxu.w", 0b11100),
    ];
}

/// Vector element widths the CMem supports (§2.2: 16/8/4/2-bit fixed point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VecWidth {
    /// 2-bit elements.
    W2,
    /// 4-bit elements.
    W4,
    /// 8-bit elements (the evaluation's precision).
    W8,
    /// 16-bit elements.
    W16,
}

impl VecWidth {
    /// Element width in bits.
    #[must_use]
    pub fn bits(self) -> usize {
        match self {
            VecWidth::W2 => 2,
            VecWidth::W4 => 4,
            VecWidth::W8 => 8,
            VecWidth::W16 => 16,
        }
    }

    /// 2-bit encoding field.
    #[must_use]
    pub(crate) fn code(self) -> u32 {
        match self {
            VecWidth::W2 => 0,
            VecWidth::W4 => 1,
            VecWidth::W8 => 2,
            VecWidth::W16 => 3,
        }
    }

    /// Width from its 2-bit encoding field.
    #[must_use]
    pub(crate) fn from_code(c: u32) -> VecWidth {
        match c & 3 {
            0 => VecWidth::W2,
            1 => VecWidth::W4,
            2 => VecWidth::W8,
            _ => VecWidth::W16,
        }
    }
}

/// One RV32IMA + CMem instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// Load upper immediate (`imm` is the full 32-bit value with low 12 bits zero).
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper-immediate value (low 12 bits zero).
        imm: i32,
    },
    /// Add upper immediate to PC.
    Auipc {
        /// Destination.
        rd: Reg,
        /// Upper-immediate value (low 12 bits zero).
        imm: i32,
    },
    /// Jump and link.
    Jal {
        /// Destination for the return address.
        rd: Reg,
        /// Byte displacement from this instruction.
        offset: i32,
    },
    /// Indirect jump and link.
    Jalr {
        /// Destination for the return address.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte displacement added to `rs1`.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison kind.
        kind: BranchKind,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Byte displacement from this instruction.
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Width/signedness.
        kind: LoadKind,
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte displacement.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        kind: StoreKind,
        /// Base register.
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Byte displacement.
        offset: i32,
    },
    /// Register–immediate ALU operation.
    OpImm {
        /// Operation.
        kind: OpImmKind,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate (shift amount for shifts).
        imm: i32,
    },
    /// Register–register ALU / M-extension operation.
    Op {
        /// Operation.
        kind: OpKind,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// A-extension atomic (word).
    Amo {
        /// Operation.
        kind: AmoKind,
        /// Destination (old memory value).
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Operand register (x0 for `LrW`).
        rs2: Reg,
    },
    /// Memory fence (modelled as a pipeline drain).
    Fence,
    /// Environment call (the simulator's service trap).
    Ecall,
    /// Breakpoint (halts the simulated core).
    Ebreak,

    // ----- CMem extension (Table 2), custom-0 major opcode -----
    /// `MAC.C` — inner product of two transposed vectors in one slice,
    /// result written to `rd`. Takes `n²` CMem cycles.
    MacC {
        /// Destination register for the scalar result.
        rd: Reg,
        /// Slice index 0–7.
        slice: u8,
        /// First word-line of operand A.
        row_a: u8,
        /// First word-line of operand B.
        row_b: u8,
        /// Element width.
        width: VecWidth,
    },
    /// `Move.C` — copy an n-bit vector between slices. Takes `n` cycles.
    MoveC {
        /// Source slice.
        src_slice: u8,
        /// Source word-line.
        src_row: u8,
        /// Destination slice.
        dst_slice: u8,
        /// Destination word-line.
        dst_row: u8,
        /// Element width.
        width: VecWidth,
    },
    /// `SetRow.C` — set one row to all zeros or all ones. One cycle.
    SetRowC {
        /// Slice index.
        slice: u8,
        /// Word-line.
        row: u8,
        /// Fill value.
        value: bool,
    },
    /// `ShiftRow.C` — shift one row by a multiple of 32 bit-lines. Two cycles.
    ShiftRowC {
        /// Slice index.
        slice: u8,
        /// Word-line.
        row: u8,
        /// Shift towards lower bit-line indices.
        left: bool,
        /// Number of 32-bit-line granules.
        granules: u8,
    },
    /// `LoadRow.RC` — load one row from a remote node's CMem (address in
    /// `rs1`) into the local (slice, row).
    LoadRowRC {
        /// Remote address register.
        rs1: Reg,
        /// Local destination slice.
        slice: u8,
        /// Local destination word-line.
        row: u8,
    },
    /// `StoreRow.RC` — store the local (slice, row) to a remote node's CMem
    /// (address in `rs1`).
    StoreRowRC {
        /// Remote address register.
        rs1: Reg,
        /// Local source slice.
        slice: u8,
        /// Local source word-line.
        row: u8,
    },
    /// Write a slice's 8-bit mask CSR from `rs1`.
    SetMaskC {
        /// Value register (low 8 bits used).
        rs1: Reg,
        /// Slice index.
        slice: u8,
    },
}

impl Instruction {
    /// Convenience `addi rd, rs1, imm`.
    #[must_use]
    pub fn addi(rd: Reg, rs1: Reg, imm: i32) -> Self {
        Instruction::OpImm {
            kind: OpImmKind::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// Convenience `add rd, rs1, rs2`.
    #[must_use]
    pub fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Instruction::Op {
            kind: OpKind::Add,
            rd,
            rs1,
            rs2,
        }
    }

    /// Convenience `li rd, imm` for 12-bit immediates (`addi rd, x0, imm`).
    #[must_use]
    pub fn li(rd: Reg, imm: i32) -> Self {
        Instruction::addi(rd, Reg::Zero, imm)
    }

    /// Convenience `nop` (`addi x0, x0, 0`).
    #[must_use]
    pub fn nop() -> Self {
        Instruction::addi(Reg::Zero, Reg::Zero, 0)
    }

    /// Convenience `lw rd, offset(rs1)`.
    #[must_use]
    pub fn lw(rd: Reg, rs1: Reg, offset: i32) -> Self {
        Instruction::Load {
            kind: LoadKind::Lw,
            rd,
            rs1,
            offset,
        }
    }

    /// Convenience `sw rs2, offset(rs1)`.
    #[must_use]
    pub fn sw(rs2: Reg, rs1: Reg, offset: i32) -> Self {
        Instruction::Store {
            kind: StoreKind::Sw,
            rs1,
            rs2,
            offset,
        }
    }

    /// The register this instruction defines, if any (never `x0`).
    #[must_use]
    pub fn def(&self) -> Option<Reg> {
        let rd = match *self {
            Instruction::Lui { rd, .. }
            | Instruction::Auipc { rd, .. }
            | Instruction::Jal { rd, .. }
            | Instruction::Jalr { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::OpImm { rd, .. }
            | Instruction::Op { rd, .. }
            | Instruction::Amo { rd, .. }
            | Instruction::MacC { rd, .. } => rd,
            _ => return None,
        };
        (rd != Reg::Zero).then_some(rd)
    }

    /// The registers this instruction reads, `rs1` before `rs2`, x0
    /// excluded. At most two; nothing is allocated.
    pub fn uses(&self) -> impl Iterator<Item = Reg> {
        let (rs1, rs2) = match *self {
            Instruction::Jalr { rs1, .. }
            | Instruction::Load { rs1, .. }
            | Instruction::OpImm { rs1, .. }
            | Instruction::LoadRowRC { rs1, .. }
            | Instruction::StoreRowRC { rs1, .. }
            | Instruction::SetMaskC { rs1, .. } => (rs1, Reg::Zero),
            Instruction::Branch { rs1, rs2, .. }
            | Instruction::Store { rs1, rs2, .. }
            | Instruction::Op { rs1, rs2, .. }
            | Instruction::Amo { rs1, rs2, .. } => (rs1, rs2),
            _ => (Reg::Zero, Reg::Zero),
        };
        [rs1, rs2].into_iter().filter(|&r| r != Reg::Zero)
    }

    /// Whether this is one of the CMem extension instructions.
    #[must_use]
    pub fn is_cmem(&self) -> bool {
        matches!(
            self,
            Instruction::MacC { .. }
                | Instruction::MoveC { .. }
                | Instruction::SetRowC { .. }
                | Instruction::ShiftRowC { .. }
                | Instruction::LoadRowRC { .. }
                | Instruction::StoreRowRC { .. }
                | Instruction::SetMaskC { .. }
        )
    }

    /// The CMem slices this instruction occupies while executing: at most
    /// two, each once (a `Move.C` within one slice yields it once), source
    /// before destination. Nothing is allocated.
    pub fn cmem_slices(&self) -> impl Iterator<Item = u8> {
        let (first, second) = match *self {
            Instruction::MacC { slice, .. }
            | Instruction::SetRowC { slice, .. }
            | Instruction::ShiftRowC { slice, .. }
            | Instruction::LoadRowRC { slice, .. }
            | Instruction::StoreRowRC { slice, .. }
            | Instruction::SetMaskC { slice, .. } => (Some(slice), None),
            Instruction::MoveC {
                src_slice,
                dst_slice,
                ..
            } => (
                Some(src_slice),
                (dst_slice != src_slice).then_some(dst_slice),
            ),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Occupancy of the instruction's execution unit, in cycles
    /// (Table 2 for CMem ops; conventional latencies otherwise).
    #[must_use]
    pub fn exec_cycles(&self) -> u32 {
        match *self {
            Instruction::MacC { width, .. } => (width.bits() * width.bits()) as u32,
            Instruction::MoveC { width, .. } => width.bits() as u32,
            Instruction::SetRowC { .. } => 1,
            Instruction::ShiftRowC { .. } => 2,
            Instruction::LoadRowRC { .. } | Instruction::StoreRowRC { .. } => 1,
            Instruction::SetMaskC { .. } => 1,
            Instruction::Op { kind, .. } if kind.is_mul() => 3,
            Instruction::Op { kind, .. } if kind.is_div() => 34,
            Instruction::Load { .. } | Instruction::Store { .. } | Instruction::Amo { .. } => 1,
            _ => 1,
        }
    }

    /// Whether this instruction changes control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instruction::Jal { .. } | Instruction::Jalr { .. } | Instruction::Branch { .. }
        )
    }

    /// Whether this instruction touches data memory (loads/stores/AMOs).
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instruction::Load { .. } | Instruction::Store { .. } | Instruction::Amo { .. }
        )
    }
}

impl fmt::Display for Instruction {
    /// The text the parser reads back to this instruction; branch and
    /// `jal` targets print as byte offsets.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (imm as u32) >> 12),
            Instruction::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", (imm as u32) >> 12),
            Instruction::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instruction::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instruction::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", kind.mnemonic()),
            Instruction::Load {
                kind,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", kind.mnemonic()),
            Instruction::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", kind.mnemonic()),
            Instruction::OpImm { kind, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", kind.mnemonic())
            }
            Instruction::Op { kind, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", kind.mnemonic())
            }
            Instruction::Amo { kind, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, ", kind.mnemonic())?;
                // `lr.w` has no `rs2` operand
                if kind != AmoKind::LrW {
                    write!(f, "{rs2}, ")?;
                }
                write!(f, "({rs1})")
            }
            Instruction::Fence => write!(f, "fence"),
            Instruction::Ecall => write!(f, "ecall"),
            Instruction::Ebreak => write!(f, "ebreak"),
            Instruction::MacC {
                rd,
                slice,
                row_a,
                row_b,
                width,
            } => write!(
                f,
                "mac.c {rd}, s{slice}[{row_a}], s{slice}[{row_b}], n{}",
                width.bits()
            ),
            Instruction::MoveC {
                src_slice,
                src_row,
                dst_slice,
                dst_row,
                width,
            } => write!(
                f,
                "move.c s{dst_slice}[{dst_row}], s{src_slice}[{src_row}], n{}",
                width.bits()
            ),
            Instruction::SetRowC { slice, row, value } => {
                write!(f, "setrow.c s{slice}[{row}], {}", u8::from(value))
            }
            Instruction::ShiftRowC {
                slice,
                row,
                left,
                granules,
            } => write!(
                f,
                "shiftrow.c s{slice}[{row}], {}{granules}",
                if left { "-" } else { "+" }
            ),
            Instruction::LoadRowRC { rs1, slice, row } => {
                write!(f, "loadrow.rc s{slice}[{row}], ({rs1})")
            }
            Instruction::StoreRowRC { rs1, slice, row } => {
                write!(f, "storerow.rc s{slice}[{row}], ({rs1})")
            }
            Instruction::SetMaskC { rs1, slice } => write!(f, "setmask.c s{slice}, {rs1}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_excludes_x0() {
        assert_eq!(Instruction::nop().def(), None);
        assert_eq!(
            Instruction::add(Reg::A0, Reg::A1, Reg::A2).def(),
            Some(Reg::A0)
        );
    }

    #[test]
    fn uses_exclude_x0() {
        let i = Instruction::add(Reg::A0, Reg::Zero, Reg::A2);
        assert_eq!(i.uses().collect::<Vec<_>>(), [Reg::A2]);
        // rs1 before rs2
        let st = Instruction::sw(Reg::A1, Reg::Sp, 0);
        assert_eq!(st.uses().collect::<Vec<_>>(), [Reg::Sp, Reg::A1]);
    }

    #[test]
    fn mac_defines_rd_and_occupies_slice() {
        let m = Instruction::MacC {
            rd: Reg::T0,
            slice: 3,
            row_a: 0,
            row_b: 8,
            width: VecWidth::W8,
        };
        assert!(m.is_cmem());
        assert_eq!(m.def(), Some(Reg::T0));
        assert_eq!(m.cmem_slices().collect::<Vec<_>>(), [3]);
        assert_eq!(m.exec_cycles(), 64);
    }

    #[test]
    fn move_occupies_both_slices() {
        let mv = Instruction::MoveC {
            src_slice: 0,
            src_row: 0,
            dst_slice: 5,
            dst_row: 8,
            width: VecWidth::W8,
        };
        assert_eq!(mv.cmem_slices().collect::<Vec<_>>(), [0, 5]);
        assert_eq!(mv.exec_cycles(), 8);
        // within one slice, the slice is occupied once
        let within = Instruction::MoveC {
            src_slice: 5,
            src_row: 0,
            dst_slice: 5,
            dst_row: 8,
            width: VecWidth::W8,
        };
        assert_eq!(within.cmem_slices().collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn latency_classes() {
        assert_eq!(
            Instruction::Op {
                kind: OpKind::Div,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .exec_cycles(),
            34
        );
        assert_eq!(
            Instruction::Op {
                kind: OpKind::Mul,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
            .exec_cycles(),
            3
        );
        assert_eq!(Instruction::nop().exec_cycles(), 1);
    }

    #[test]
    fn width_codes_roundtrip() {
        for w in [VecWidth::W2, VecWidth::W4, VecWidth::W8, VecWidth::W16] {
            assert_eq!(VecWidth::from_code(w.code()), w);
        }
    }

    #[test]
    fn control_and_mem_classification() {
        assert!(Instruction::Jal {
            rd: Reg::Zero,
            offset: 8
        }
        .is_control());
        assert!(Instruction::lw(Reg::A0, Reg::Sp, 0).is_mem());
        assert!(!Instruction::nop().is_mem());
    }

    #[test]
    fn display_is_readable() {
        let m = Instruction::MacC {
            rd: Reg::T0,
            slice: 1,
            row_a: 0,
            row_b: 8,
            width: VecWidth::W8,
        };
        assert_eq!(m.to_string(), "mac.c t0, s1[0], s1[8], n8");
    }
}
