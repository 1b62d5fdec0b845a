//! Auxiliary-function code generation — the scalar half of a mixed layer.
//!
//! §4.1 assigns "activation, pooling, normalization, and quantization" to
//! the RISC-V pipeline. The heavy one is integer-only **requantization**
//! (Jacob et al. 2018): the i32 accumulator leaving the CMem is scaled by
//! a fixed-point multiplier `m0·2⁻ⁿ` via a saturating rounding doubling
//! high-multiply, rounding-shifted, offset and clamped. This module emits
//! that exact arithmetic as RV32IM code (`mulh` does the heavy lifting),
//! plus ReLU; `tests/integration.rs` proves the emitted code agrees with
//! `maicc_nn::quant::Requantizer` on random accumulators.

use maicc_isa::asm::Assembler;
use maicc_isa::inst::{BranchKind, Instruction as I, OpImmKind, OpKind};
use maicc_isa::reg::Reg;

/// Parameters of an integer-only requantization (mirrors
/// `maicc_nn::quant::Requantizer`, which `maicc-core` cannot name without
/// a dependency cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequantParams {
    /// Fixed-point multiplier in `[2³⁰, 2³¹)`, or 0.
    pub multiplier: i32,
    /// Rounding right shift after the high multiply.
    pub shift: u32,
    /// Output zero point.
    pub zero_point: i32,
}

/// Emits code computing `acc = requantize(acc)` in place, clobbering
/// `T0–T4`. `unique` disambiguates internal labels so the sequence can be
/// emitted several times in one program.
///
/// The sequence is branch-light: one branch selects the rounding nudge's
/// sign (gemmlowp's `SaturatingRoundingDoublingHighMul`), everything else
/// is straight-line RV32IM.
pub(crate) fn emit_requantize(a: &mut Assembler, acc: Reg, p: RequantParams, unique: usize) {
    if p.multiplier == 0 {
        a.li32(acc, p.zero_point.clamp(-128, 127));
        return;
    }
    // t0:t1 = acc * m0 (hi:lo)
    a.li32(Reg::T0, p.multiplier);
    a.inst(I::Op {
        kind: OpKind::Mulh,
        rd: Reg::T1,
        rs1: acc,
        rs2: Reg::T0,
    });
    a.inst(I::Op {
        kind: OpKind::Mul,
        rd: Reg::T2,
        rs1: acc,
        rs2: Reg::T0,
    });
    // nudge = ab >= 0 ? 1<<30 : 1 - (1<<30); add as a 64-bit quantity
    let pos = format!("rq_pos_{unique}");
    let done = format!("rq_nudged_{unique}");
    a.li32(Reg::T3, 1 << 30);
    a.inst(I::li(Reg::T4, 0));
    a.branch(BranchKind::Bge, Reg::T1, Reg::Zero, &pos);
    a.li32(Reg::T3, 1 - (1 << 30));
    a.inst(I::li(Reg::T4, -1));
    a.label(&pos);
    // 64-bit add: lo += nudge_lo, hi += nudge_hi + carry
    a.inst(I::add(Reg::T2, Reg::T2, Reg::T3));
    a.inst(I::Op {
        kind: OpKind::Sltu,
        rd: Reg::T3,
        rs1: Reg::T2,
        rs2: Reg::T3,
    });
    a.inst(I::add(Reg::T1, Reg::T1, Reg::T4));
    a.inst(I::add(Reg::T1, Reg::T1, Reg::T3));
    a.label(&done);
    // truncating (ab + nudge) / 2³¹: the floor is (hi << 1) | (lo >>> 31),
    // corrected by +1 when the value is negative with a nonzero remainder
    a.inst(I::OpImm {
        kind: OpImmKind::Slli,
        rd: Reg::T3,
        rs1: Reg::T2,
        imm: 1,
    }); // low 31 remainder bits, shifted up
    a.inst(I::Op {
        kind: OpKind::Sltu,
        rd: Reg::T3,
        rs1: Reg::Zero,
        rs2: Reg::T3,
    }); // remainder != 0
    a.inst(I::OpImm {
        kind: OpImmKind::Slti,
        rd: Reg::T4,
        rs1: Reg::T1,
        imm: 0,
    }); // value negative
    a.inst(I::Op {
        kind: OpKind::And,
        rd: Reg::T3,
        rs1: Reg::T3,
        rs2: Reg::T4,
    });
    a.inst(I::OpImm {
        kind: OpImmKind::Slli,
        rd: Reg::T1,
        rs1: Reg::T1,
        imm: 1,
    });
    a.inst(I::OpImm {
        kind: OpImmKind::Srli,
        rd: Reg::T2,
        rs1: Reg::T2,
        imm: 31,
    });
    a.inst(I::Op {
        kind: OpKind::Or,
        rd: acc,
        rs1: Reg::T1,
        rs2: Reg::T2,
    });
    a.inst(I::add(acc, acc, Reg::T3));
    // rounding right shift by `shift`
    if p.shift > 0 {
        let mask = (1i64 << p.shift) - 1;
        a.li32(Reg::T0, mask as i32);
        a.inst(I::Op {
            kind: OpKind::And,
            rd: Reg::T1,
            rs1: acc,
            rs2: Reg::T0,
        }); // remainder
        // threshold = (mask >> 1) + (acc < 0)
        a.inst(I::OpImm {
            kind: OpImmKind::Slti,
            rd: Reg::T2,
            rs1: acc,
            imm: 0,
        });
        a.li32(Reg::T3, (mask >> 1) as i32);
        a.inst(I::add(Reg::T2, Reg::T2, Reg::T3));
        a.inst(I::OpImm {
            kind: OpImmKind::Srai,
            rd: acc,
            rs1: acc,
            imm: p.shift as i32,
        });
        // acc += (remainder > threshold)
        a.inst(I::Op {
            kind: OpKind::Slt,
            rd: Reg::T1,
            rs1: Reg::T2,
            rs2: Reg::T1,
        });
        a.inst(I::add(acc, acc, Reg::T1));
    }
    // + zero point, clamp to i8
    if p.zero_point != 0 {
        a.li32(Reg::T0, p.zero_point);
        a.inst(I::add(acc, acc, Reg::T0));
    }
    emit_clamp_i8(a, acc, unique);
}

/// Emits `acc = clamp(acc, -128, 127)` using two compare-and-branches.
pub(crate) fn emit_clamp_i8(a: &mut Assembler, acc: Reg, unique: usize) {
    let hi_ok = format!("cl_hi_{unique}");
    let lo_ok = format!("cl_lo_{unique}");
    a.inst(I::li(Reg::T0, 127));
    a.branch(BranchKind::Bge, Reg::T0, acc, &hi_ok);
    a.inst(I::li(acc, 127));
    a.label(&hi_ok);
    a.inst(I::li(Reg::T0, -128));
    a.branch(BranchKind::Bge, acc, Reg::T0, &lo_ok);
    a.inst(I::li(acc, -128));
    a.label(&lo_ok);
}

/// Emits `acc = max(acc, 0)` (ReLU) branchlessly: `acc &= ~(acc >> 31)`.
pub(crate) fn emit_relu(a: &mut Assembler, acc: Reg) {
    a.inst(I::OpImm {
        kind: OpImmKind::Srai,
        rd: Reg::T0,
        rs1: acc,
        imm: 31,
    });
    a.inst(I::OpImm {
        kind: OpImmKind::Xori,
        rd: Reg::T0,
        rs1: Reg::T0,
        imm: -1,
    });
    a.inst(I::Op {
        kind: OpKind::And,
        rd: acc,
        rs1: acc,
        rs2: Reg::T0,
    });
}

/// Builds a standalone program: read the accumulator from `a0`, apply
/// ReLU (optionally) then requantization, halt with the i8 result in `a0`.
#[must_use]
pub fn requantize_program(p: RequantParams, relu: bool) -> Vec<I> {
    let mut a = Assembler::new();
    if relu {
        emit_relu(&mut a, Reg::A0);
    }
    emit_requantize(&mut a, Reg::A0, p, 0);
    a.inst(I::Ebreak);
    a.assemble().expect("requantize program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NullPort};

    fn run(p: RequantParams, relu: bool, acc: i32) -> i32 {
        let mut node = Node::new(requantize_program(p, relu), NullPort::default());
        node.set_reg(Reg::A0, acc as u32);
        node.run(10_000).unwrap();
        node.reg(Reg::A0) as i32
    }

    #[test]
    fn half_multiplier_divides_by_two() {
        // m = 0.5 → multiplier 1<<30, shift 0
        let p = RequantParams {
            multiplier: 1 << 30,
            shift: 0,
            zero_point: 0,
        };
        assert_eq!(run(p, false, 100), 50);
        assert_eq!(run(p, false, -100), -50);
        assert_eq!(run(p, false, 101), 51, "rounds to nearest");
    }

    #[test]
    fn clamping_saturates() {
        let p = RequantParams {
            multiplier: 1 << 30,
            shift: 0,
            zero_point: 0,
        };
        assert_eq!(run(p, false, 10_000), 127);
        assert_eq!(run(p, false, -10_000), -128);
    }

    #[test]
    fn relu_zeroes_negatives_before_requant() {
        let p = RequantParams {
            multiplier: 1 << 30,
            shift: 0,
            zero_point: 3,
        };
        assert_eq!(run(p, true, -500), 3);
        assert_eq!(run(p, true, 10), 8);
    }

    #[test]
    fn zero_multiplier_emits_constant() {
        let p = RequantParams {
            multiplier: 0,
            shift: 0,
            zero_point: 5,
        };
        assert_eq!(run(p, false, 123_456), 5);
    }

    #[test]
    fn shift_path_rounds() {
        // m = 0.5 with an explicit shift: multiplier 1<<30, shift 2 → /8
        let p = RequantParams {
            multiplier: 1 << 30,
            shift: 2,
            zero_point: 0,
        };
        assert_eq!(run(p, false, 80), 10);
        assert_eq!(run(p, false, 84), 11, "rounds 10.5 up");
        assert_eq!(run(p, false, -84), -11, "rounds -10.5 away from zero");
    }
}
