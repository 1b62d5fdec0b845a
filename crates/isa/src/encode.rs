//! Bit-exact 32-bit instruction encoding.
//!
//! RV32IMA encodings follow the unprivileged spec; the CMem extension packs
//! its operands into the *custom-0* major opcode (0x0B) with `funct3`
//! selecting the operation:
//!
//! | funct3 | op |
//! |---|---|
//! | 000 | `MAC.C` — slice\[17:15\], row_a\[23:18\], row_b\[29:24\], width\[31:30\] |
//! | 001 | `Move.C` — src_slice\[9:7\], width\[11:10\], src_row\[20:15\], dst_slice\[23:21\], dst_row\[29:24\] |
//! | 010 | `SetRow.C` — slice\[9:7\], value\[10\], row\[20:15\] |
//! | 011 | `ShiftRow.C` — slice\[9:7\], left\[10\], granules\[17:15\], row\[25:20\] |
//! | 100 | `LoadRow.RC` — slice\[9:7\], rs1\[19:15\], row\[25:20\] |
//! | 101 | `StoreRow.RC` — slice\[9:7\], rs1\[19:15\], row\[25:20\] |
//! | 110 | `SetMask.C` — slice\[9:7\], rs1\[19:15\] |

use crate::inst::{Instruction, OpImmKind, OpTable};
use crate::reg::Reg;
use crate::CUSTOM0;

fn r(reg: Reg) -> u32 {
    reg.index() as u32
}

fn rtype(op: u32, rd: Reg, f3: u32, rs1: Reg, rs2: Reg, f7: u32) -> u32 {
    op | (r(rd) << 7) | (f3 << 12) | (r(rs1) << 15) | (r(rs2) << 20) | (f7 << 25)
}

fn itype(op: u32, rd: Reg, f3: u32, rs1: Reg, imm: i32) -> u32 {
    op | (r(rd) << 7) | (f3 << 12) | (r(rs1) << 15) | (((imm as u32) & 0xFFF) << 20)
}

fn stype(op: u32, f3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    op | ((imm & 0x1F) << 7)
        | (f3 << 12)
        | (r(rs1) << 15)
        | (r(rs2) << 20)
        | (((imm >> 5) & 0x7F) << 25)
}

fn btype(op: u32, f3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    op | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xF) << 8)
        | (f3 << 12)
        | (r(rs1) << 15)
        | (r(rs2) << 20)
        | (((imm >> 5) & 0x3F) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn jtype(op: u32, rd: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    op | (r(rd) << 7)
        | (((imm >> 12) & 0xFF) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 20) & 1) << 31)
}

/// Encodes an instruction to its 32-bit word.
///
/// Field overflow (e.g. a branch offset beyond ±4 KiB) silently truncates,
/// matching what an assembler emitting raw fields would produce. The
/// [`crate::asm::Assembler`] range-checks branch and jump displacements,
/// and the text parser refuses an instruction whose word does not decode
/// back to it.
#[must_use]
pub fn encode(inst: &Instruction) -> u32 {
    match *inst {
        Instruction::Lui { rd, imm } => 0x37 | (r(rd) << 7) | ((imm as u32) & 0xFFFF_F000),
        Instruction::Auipc { rd, imm } => 0x17 | (r(rd) << 7) | ((imm as u32) & 0xFFFF_F000),
        Instruction::Jal { rd, offset } => jtype(0x6F, rd, offset),
        Instruction::Jalr { rd, rs1, offset } => itype(0x67, rd, 0, rs1, offset),
        Instruction::Branch {
            kind,
            rs1,
            rs2,
            offset,
        } => btype(0x63, kind.code(), rs1, rs2, offset),
        Instruction::Load {
            kind,
            rd,
            rs1,
            offset,
        } => itype(0x03, rd, kind.code(), rs1, offset),
        Instruction::Store {
            kind,
            rs1,
            rs2,
            offset,
        } => stype(0x23, kind.code(), rs1, rs2, offset),
        Instruction::OpImm { kind, rd, rs1, imm } => {
            let code = kind.code();
            let imm = if OpImmKind::is_shift(code) {
                ((code >> 3) << 5) as i32 | (imm & 0x1F)
            } else {
                imm
            };
            itype(0x13, rd, code & 7, rs1, imm)
        }
        Instruction::Op { kind, rd, rs1, rs2 } => {
            rtype(0x33, rd, kind.code() & 7, rs1, rs2, kind.code() >> 3)
        }
        Instruction::Amo { kind, rd, rs1, rs2 } => rtype(0x2F, rd, 2, rs1, rs2, kind.code() << 2),
        Instruction::Fence => 0x0F,
        Instruction::Ecall => 0x73,
        Instruction::Ebreak => 0x0010_0073,
        Instruction::MacC {
            rd,
            slice,
            row_a,
            row_b,
            width,
        } => {
            CUSTOM0
                | (r(rd) << 7)
                | ((slice as u32 & 7) << 15)
                | ((row_a as u32 & 0x3F) << 18)
                | ((row_b as u32 & 0x3F) << 24)
                | (width.code() << 30)
        }
        Instruction::MoveC {
            src_slice,
            src_row,
            dst_slice,
            dst_row,
            width,
        } => {
            CUSTOM0
                | (1 << 12)
                | ((src_slice as u32 & 7) << 7)
                | (width.code() << 10)
                | ((src_row as u32 & 0x3F) << 15)
                | ((dst_slice as u32 & 7) << 21)
                | ((dst_row as u32 & 0x3F) << 24)
        }
        Instruction::SetRowC { slice, row, value } => {
            CUSTOM0
                | (2 << 12)
                | ((slice as u32 & 7) << 7)
                | (u32::from(value) << 10)
                | ((row as u32 & 0x3F) << 15)
        }
        Instruction::ShiftRowC {
            slice,
            row,
            left,
            granules,
        } => {
            CUSTOM0
                | (3 << 12)
                | ((slice as u32 & 7) << 7)
                | (u32::from(left) << 10)
                | ((granules as u32 & 7) << 15)
                | ((row as u32 & 0x3F) << 20)
        }
        Instruction::LoadRowRC { rs1, slice, row } => {
            CUSTOM0
                | (4 << 12)
                | ((slice as u32 & 7) << 7)
                | (r(rs1) << 15)
                | ((row as u32 & 0x3F) << 20)
        }
        Instruction::StoreRowRC { rs1, slice, row } => {
            CUSTOM0
                | (5 << 12)
                | ((slice as u32 & 7) << 7)
                | (r(rs1) << 15)
                | ((row as u32 & 0x3F) << 20)
        }
        Instruction::SetMaskC { rs1, slice } => {
            CUSTOM0 | (6 << 12) | ((slice as u32 & 7) << 7) | (r(rs1) << 15)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::OpKind;

    #[test]
    fn canonical_nop_encoding() {
        assert_eq!(encode(&Instruction::nop()), 0x0000_0013);
    }

    #[test]
    fn known_encodings_from_spec() {
        // addi a0, a0, 1  →  0x00150513
        assert_eq!(encode(&Instruction::addi(Reg::A0, Reg::A0, 1)), 0x0015_0513);
        // add a0, a1, a2  →  0x00C58533
        assert_eq!(
            encode(&Instruction::add(Reg::A0, Reg::A1, Reg::A2)),
            0x00C5_8533
        );
        // lw a0, 4(sp)  →  0x00412503
        assert_eq!(encode(&Instruction::lw(Reg::A0, Reg::Sp, 4)), 0x0041_2503);
        // sw a0, 4(sp)  →  0x00A12223
        assert_eq!(encode(&Instruction::sw(Reg::A0, Reg::Sp, 4)), 0x00A1_2223);
        // ecall / ebreak
        assert_eq!(encode(&Instruction::Ecall), 0x0000_0073);
        assert_eq!(encode(&Instruction::Ebreak), 0x0010_0073);
    }

    #[test]
    fn mul_uses_m_funct7() {
        let w = encode(&Instruction::Op {
            kind: OpKind::Mul,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        assert_eq!(w >> 25, 0x01);
        assert_eq!(w & 0x7F, 0x33);
    }

    #[test]
    fn cmem_ops_use_custom0() {
        let m = Instruction::MacC {
            rd: Reg::T0,
            slice: 7,
            row_a: 63,
            row_b: 0,
            width: crate::inst::VecWidth::W16,
        };
        assert_eq!(encode(&m) & 0x7F, CUSTOM0);
    }
}
