//! Bit-exact 32-bit instruction decoding (inverse of [`crate::encode`]).

use crate::encode::encode;
use crate::inst::{
    AmoKind, BranchKind, Instruction, LoadKind, OpImmKind, OpKind, OpTable, StoreKind, VecWidth,
};
use crate::reg::Reg;
use crate::{IsaError, CUSTOM0};

fn reg(word: u32, lsb: u32) -> Reg {
    Reg::from_index((word >> lsb) & 0x1F).expect("5-bit field is always a valid register")
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn i_imm(w: u32) -> i32 {
    sext(w >> 20, 12)
}

fn s_imm(w: u32) -> i32 {
    sext(((w >> 25) << 5) | ((w >> 7) & 0x1F), 12)
}

fn b_imm(w: u32) -> i32 {
    let imm = (((w >> 31) & 1) << 12)
        | (((w >> 7) & 1) << 11)
        | (((w >> 25) & 0x3F) << 5)
        | (((w >> 8) & 0xF) << 1);
    sext(imm, 13)
}

fn j_imm(w: u32) -> i32 {
    let imm = (((w >> 31) & 1) << 20)
        | (((w >> 12) & 0xFF) << 12)
        | (((w >> 20) & 1) << 11)
        | (((w >> 21) & 0x3FF) << 1);
    sext(imm, 21)
}

/// Decodes a 32-bit word into an instruction.
///
/// # Errors
///
/// Returns [`IsaError::IllegalInstruction`] for any word that is not a
/// supported RV32IMA or CMem-extension encoding: every word it accepts
/// is the one [`encode`] writes for the result, so no field is ignored.
pub fn decode(word: u32) -> Result<Instruction, IsaError> {
    let opcode = word & 0x7F;
    let f3 = (word >> 12) & 7;
    let f7 = word >> 25;
    let illegal = || IsaError::IllegalInstruction { word };
    let inst = match opcode {
        0x37 => Instruction::Lui {
            rd: reg(word, 7),
            imm: (word & 0xFFFF_F000) as i32,
        },
        0x17 => Instruction::Auipc {
            rd: reg(word, 7),
            imm: (word & 0xFFFF_F000) as i32,
        },
        0x6F => Instruction::Jal {
            rd: reg(word, 7),
            offset: j_imm(word),
        },
        0x67 => Instruction::Jalr {
            rd: reg(word, 7),
            rs1: reg(word, 15),
            offset: i_imm(word),
        },
        0x63 => Instruction::Branch {
            kind: BranchKind::from_code(f3).ok_or_else(illegal)?,
            rs1: reg(word, 15),
            rs2: reg(word, 20),
            offset: b_imm(word),
        },
        0x03 => Instruction::Load {
            kind: LoadKind::from_code(f3).ok_or_else(illegal)?,
            rd: reg(word, 7),
            rs1: reg(word, 15),
            offset: i_imm(word),
        },
        0x23 => Instruction::Store {
            kind: StoreKind::from_code(f3).ok_or_else(illegal)?,
            rs1: reg(word, 15),
            rs2: reg(word, 20),
            offset: s_imm(word),
        },
        0x13 => {
            let (code, imm) = if OpImmKind::is_shift(f3) {
                (f7 << 3 | f3, ((word >> 20) & 0x1F) as i32)
            } else {
                (f3, i_imm(word))
            };
            Instruction::OpImm {
                kind: OpImmKind::from_code(code).ok_or_else(illegal)?,
                rd: reg(word, 7),
                rs1: reg(word, 15),
                imm,
            }
        }
        0x33 => Instruction::Op {
            kind: OpKind::from_code(f7 << 3 | f3).ok_or_else(illegal)?,
            rd: reg(word, 7),
            rs1: reg(word, 15),
            rs2: reg(word, 20),
        },
        0x2F => {
            let kind = AmoKind::from_code(f7 >> 2).ok_or_else(illegal)?;
            let rs2 = reg(word, 20);
            // `lr.w` has no `rs2` operand; its field must be zero
            if kind == AmoKind::LrW && rs2 != Reg::Zero {
                return Err(illegal());
            }
            Instruction::Amo {
                kind,
                rd: reg(word, 7),
                rs1: reg(word, 15),
                rs2,
            }
        }
        0x0F => Instruction::Fence,
        0x73 => match word >> 20 {
            0 => Instruction::Ecall,
            1 => Instruction::Ebreak,
            _ => return Err(illegal()),
        },
        CUSTOM0 => match f3 {
            0 => Instruction::MacC {
                rd: reg(word, 7),
                slice: ((word >> 15) & 7) as u8,
                row_a: ((word >> 18) & 0x3F) as u8,
                row_b: ((word >> 24) & 0x3F) as u8,
                width: VecWidth::from_code(word >> 30),
            },
            1 => Instruction::MoveC {
                src_slice: ((word >> 7) & 7) as u8,
                width: VecWidth::from_code(word >> 10),
                src_row: ((word >> 15) & 0x3F) as u8,
                dst_slice: ((word >> 21) & 7) as u8,
                dst_row: ((word >> 24) & 0x3F) as u8,
            },
            2 => Instruction::SetRowC {
                slice: ((word >> 7) & 7) as u8,
                value: (word >> 10) & 1 == 1,
                row: ((word >> 15) & 0x3F) as u8,
            },
            3 => Instruction::ShiftRowC {
                slice: ((word >> 7) & 7) as u8,
                left: (word >> 10) & 1 == 1,
                granules: ((word >> 15) & 7) as u8,
                row: ((word >> 20) & 0x3F) as u8,
            },
            4 => Instruction::LoadRowRC {
                slice: ((word >> 7) & 7) as u8,
                rs1: reg(word, 15),
                row: ((word >> 20) & 0x3F) as u8,
            },
            5 => Instruction::StoreRowRC {
                slice: ((word >> 7) & 7) as u8,
                rs1: reg(word, 15),
                row: ((word >> 20) & 0x3F) as u8,
            },
            6 => Instruction::SetMaskC {
                slice: ((word >> 7) & 7) as u8,
                rs1: reg(word, 15),
            },
            _ => return Err(illegal()),
        },
        _ => return Err(illegal()),
    };
    if encode(&inst) != word {
        return Err(illegal());
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn illegal_word_rejected() {
        assert!(decode(0xFFFF_FFFF).is_err());
        assert!(decode(0).is_err());
    }

    #[test]
    fn negative_immediates_roundtrip() {
        for imm in [-1, -2048, 2047, 0, 1] {
            let i = Instruction::addi(Reg::A0, Reg::A1, imm);
            assert_eq!(decode(encode(&i)).unwrap(), i);
        }
    }

    #[test]
    fn branch_offsets_roundtrip() {
        for off in [-4096, -2, 0, 2, 4094] {
            let i = Instruction::Branch {
                kind: BranchKind::Bne,
                rs1: Reg::T0,
                rs2: Reg::T1,
                offset: off,
            };
            assert_eq!(decode(encode(&i)).unwrap(), i);
        }
    }

    #[test]
    fn jal_offsets_roundtrip() {
        for off in [-1_048_576, -2, 0, 2, 1_048_574] {
            let i = Instruction::Jal {
                rd: Reg::Ra,
                offset: off,
            };
            assert_eq!(decode(encode(&i)).unwrap(), i);
        }
    }

    #[test]
    fn lr_w_with_a_nonzero_rs2_is_illegal() {
        let lr = Instruction::Amo {
            kind: AmoKind::LrW,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::Zero,
        };
        let word = encode(&lr);
        assert_eq!(decode(word), Ok(lr));
        assert!(decode(word | (Reg::A2.index() as u32) << 20).is_err());
    }

    #[test]
    fn a_word_with_a_field_encode_never_writes_is_illegal() {
        for word in [
            0x0000_9073, // csrrw zero, 0, ra
            0x0000_0573, // ecall's fields with rd = a0
            0x0010_9073, // ebreak's fields with funct3 = 1, rs1 = ra
            0x0000_100F, // fence.i
            0xFFFF_F00F, // fence with every other bit set
        ] {
            assert_eq!(decode(word), Err(IsaError::IllegalInstruction { word }));
        }
        for inst in [Instruction::Ecall, Instruction::Ebreak, Instruction::Fence] {
            assert_eq!(decode(encode(&inst)), Ok(inst));
        }
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u32..32).prop_map(|i| Reg::from_index(i).unwrap())
    }

    /// An operation drawn from the kind's table.
    fn arb_kind<K: OpTable>() -> impl Strategy<Value = K> {
        (0..K::ROWS.len()).prop_map(|k| K::ROWS[k].0)
    }

    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        prop_oneof![
            (arb_reg(), any::<i32>()).prop_map(|(rd, v)| Instruction::Lui {
                rd,
                imm: v & 0xFFFF_F000u32 as i32
            }),
            (arb_reg(), any::<i32>()).prop_map(|(rd, v)| Instruction::Auipc {
                rd,
                imm: v & 0xFFFF_F000u32 as i32
            }),
            (arb_reg(), -(1i32 << 19)..1 << 19).prop_map(|(rd, half)| Instruction::Jal {
                rd,
                offset: half * 2
            }),
            (arb_reg(), arb_reg(), -2048i32..2048)
                .prop_map(|(rd, rs1, offset)| Instruction::Jalr { rd, rs1, offset }),
            (arb_kind(), arb_reg(), arb_reg(), -2048i32..2048).prop_map(
                |(kind, rs1, rs2, half)| Instruction::Branch {
                    kind,
                    rs1,
                    rs2,
                    offset: half * 2
                }
            ),
            (arb_kind(), arb_reg(), arb_reg(), -2048i32..2048).prop_map(
                |(kind, rd, rs1, offset)| Instruction::Load {
                    kind,
                    rd,
                    rs1,
                    offset
                }
            ),
            (arb_kind(), arb_reg(), arb_reg(), -2048i32..2048).prop_map(
                |(kind, rs1, rs2, offset)| Instruction::Store {
                    kind,
                    rs1,
                    rs2,
                    offset
                }
            ),
            (arb_kind(), arb_reg(), arb_reg(), -2048i32..2048).prop_map(
                |(kind, rd, rs1, imm): (OpImmKind, _, _, i32)| Instruction::OpImm {
                    kind,
                    rd,
                    rs1,
                    imm: if OpImmKind::is_shift(kind.code()) {
                        imm & 0x1F
                    } else {
                        imm
                    },
                }
            ),
            (arb_kind(), arb_reg(), arb_reg(), arb_reg())
                .prop_map(|(kind, rd, rs1, rs2)| Instruction::Op { kind, rd, rs1, rs2 }),
            (arb_kind(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(kind, rd, rs1, rs2)| {
                Instruction::Amo {
                    kind,
                    rd,
                    rs1,
                    rs2: if kind == AmoKind::LrW { Reg::Zero } else { rs2 },
                }
            }),
            Just(Instruction::Fence),
            Just(Instruction::Ecall),
            Just(Instruction::Ebreak),
            (arb_reg(), 0u8..8, 0u8..64, 0u8..64, 0u32..4).prop_map(
                |(rd, slice, row_a, row_b, w)| Instruction::MacC {
                    rd,
                    slice,
                    row_a,
                    row_b,
                    width: VecWidth::from_code(w),
                }
            ),
            (0u8..8, 0u8..64, 0u8..8, 0u8..64, 0u32..4).prop_map(
                |(ss, sr, ds, dr, w)| Instruction::MoveC {
                    src_slice: ss,
                    src_row: sr,
                    dst_slice: ds,
                    dst_row: dr,
                    width: VecWidth::from_code(w),
                }
            ),
            (0u8..8, 0u8..64, any::<bool>()).prop_map(|(slice, row, value)| {
                Instruction::SetRowC { slice, row, value }
            }),
            (0u8..8, 0u8..64, any::<bool>(), 0u8..8).prop_map(|(slice, row, left, g)| {
                Instruction::ShiftRowC {
                    slice,
                    row,
                    left,
                    granules: g,
                }
            }),
            (arb_reg(), 0u8..8, 0u8..64).prop_map(|(rs1, slice, row)| Instruction::LoadRowRC {
                rs1,
                slice,
                row
            }),
            (arb_reg(), 0u8..8, 0u8..64).prop_map(|(rs1, slice, row)| Instruction::StoreRowRC {
                rs1,
                slice,
                row
            }),
            (arb_reg(), 0u8..8).prop_map(|(rs1, slice)| Instruction::SetMaskC { rs1, slice }),
        ]
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(inst in arb_instruction()) {
            prop_assert_eq!(decode(encode(&inst)).unwrap(), inst);
        }

        #[test]
        fn prop_decode_never_panics(word in any::<u32>()) {
            let _ = decode(word);
        }

        #[test]
        fn prop_decoded_reencodes_identically(bits in any::<u32>(), op in 0usize..13) {
            // random bits under each decodable opcode, so every major
            // opcode's ignored fields get probed
            let opcodes = [
                0x37, 0x17, 0x6F, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x2F, 0x0F, 0x73, CUSTOM0,
            ];
            let word = bits & !0x7F | opcodes[op];
            if let Ok(inst) = decode(word) {
                prop_assert_eq!(encode(&inst), word);
            }
        }
    }
}
