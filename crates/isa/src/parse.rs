//! Textual assembly parser.
//!
//! Parses a human-readable assembly dialect — the same one
//! [`crate::inst::Instruction`]'s `Display` emits for the CMem extension,
//! plus conventional RISC-V mnemonics — into an [`Assembler`] program.
//! Labels end with `:`; comments start with `#` or `;`.
//!
//! ```text
//!     li    a0, 10
//!     li    a1, 0
//! loop:
//!     add   a1, a1, a0
//!     addi  a0, a0, -1
//!     bne   a0, zero, loop
//!     mac.c t0, s1[0], s1[8], n8
//!     ebreak
//! ```

use crate::asm::Assembler;
use crate::inst::{
    AmoKind, BranchKind, Instruction, LoadKind, OpImmKind, OpKind, StoreKind, VecWidth,
};
use crate::reg::Reg;
use crate::IsaError;
use std::fmt;

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let tok = tok.trim();
    for r in Reg::ALL {
        if r.to_string() == tok {
            return Ok(r);
        }
    }
    // also accept x0..x31
    if let Some(idx) = tok.strip_prefix('x').and_then(|n| n.parse::<u32>().ok()) {
        if let Some(r) = Reg::from_index(idx) {
            return Ok(r);
        }
    }
    Err(err(line, format!("unknown register `{tok}`")))
}

fn parse_imm(tok: &str, line: usize) -> Result<i32, ParseError> {
    let tok = tok.trim();
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| err(line, format!("bad immediate `{tok}`")))?;
    let v = if neg { -v } else { v };
    i32::try_from(v).map_err(|_| err(line, format!("immediate `{tok}` out of 32-bit range")))
}

/// Parses `imm(reg)` address syntax.
fn parse_mem_operand(tok: &str, line: usize) -> Result<(Reg, i32), ParseError> {
    let tok = tok.trim();
    let open = tok
        .find('(')
        .ok_or_else(|| err(line, format!("expected `imm(reg)`, got `{tok}`")))?;
    if !tok.ends_with(')') {
        return Err(err(line, format!("unterminated address `{tok}`")));
    }
    let imm = if open == 0 {
        0
    } else {
        parse_imm(&tok[..open], line)?
    };
    let reg = parse_reg(&tok[open + 1..tok.len() - 1], line)?;
    Ok((reg, imm))
}

/// Parses `s3[12]` slice-row syntax.
fn parse_slice_row(tok: &str, line: usize) -> Result<(u8, u8), ParseError> {
    let tok = tok.trim();
    let rest = tok
        .strip_prefix('s')
        .ok_or_else(|| err(line, format!("expected `s<slice>[<row>]`, got `{tok}`")))?;
    let open = rest
        .find('[')
        .ok_or_else(|| err(line, format!("expected `[row]` in `{tok}`")))?;
    let slice: u8 = rest[..open]
        .parse()
        .map_err(|_| err(line, format!("bad slice in `{tok}`")))?;
    let row: u8 = rest[open + 1..]
        .strip_suffix(']')
        .ok_or_else(|| err(line, format!("unterminated `{tok}`")))?
        .parse()
        .map_err(|_| err(line, format!("bad row in `{tok}`")))?;
    if slice > 7 || row > 63 {
        return Err(err(line, format!("slice/row out of range in `{tok}`")));
    }
    Ok((slice, row))
}

fn parse_width(tok: &str, line: usize) -> Result<VecWidth, ParseError> {
    match tok.trim() {
        "n2" => Ok(VecWidth::W2),
        "n4" => Ok(VecWidth::W4),
        "n8" => Ok(VecWidth::W8),
        "n16" => Ok(VecWidth::W16),
        other => Err(err(line, format!("bad width `{other}` (n2/n4/n8/n16)"))),
    }
}

/// Parses a whole program into an [`Assembler`] (labels unresolved until
/// [`Assembler::assemble`]).
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered.
pub(crate) fn parse_program(src: &str) -> Result<Assembler, ParseError> {
    let mut asm = Assembler::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let text = raw.split(['#', ';']).next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                return Err(err(line, format!("bad label `{text}`")));
            }
            asm.label(label);
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let need = |n: usize| -> Result<(), ParseError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(err(
                    line,
                    format!("`{mnemonic}` takes {n} operands, got {}", ops.len()),
                ))
            }
        };
        match mnemonic.to_ascii_lowercase().as_str() {
            "nop" => {
                need(0)?;
                asm.inst(Instruction::nop());
            }
            "ebreak" => {
                need(0)?;
                asm.inst(Instruction::Ebreak);
            }
            "ecall" => {
                need(0)?;
                asm.inst(Instruction::Ecall);
            }
            "fence" => {
                need(0)?;
                asm.inst(Instruction::Fence);
            }
            "li" => {
                need(2)?;
                asm.li32(parse_reg(ops[0], line)?, parse_imm(ops[1], line)?);
            }
            "mv" => {
                need(2)?;
                asm.inst(Instruction::addi(
                    parse_reg(ops[0], line)?,
                    parse_reg(ops[1], line)?,
                    0,
                ));
            }
            "lui" => {
                need(2)?;
                asm.inst(Instruction::Lui {
                    rd: parse_reg(ops[0], line)?,
                    imm: parse_imm(ops[1], line)?.wrapping_shl(12),
                });
            }
            "j" => {
                need(1)?;
                asm.jump(ops[0]);
            }
            "jal" => {
                need(2)?;
                asm.jal(parse_reg(ops[0], line)?, ops[1]);
            }
            "jalr" => {
                need(2)?;
                let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                asm.inst(Instruction::Jalr {
                    rd: parse_reg(ops[0], line)?,
                    rs1,
                    offset,
                });
            }
            b @ ("beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu") => {
                need(3)?;
                let kind = match b {
                    "beq" => BranchKind::Beq,
                    "bne" => BranchKind::Bne,
                    "blt" => BranchKind::Blt,
                    "bge" => BranchKind::Bge,
                    "bltu" => BranchKind::Bltu,
                    _ => BranchKind::Bgeu,
                };
                asm.branch(
                    kind,
                    parse_reg(ops[0], line)?,
                    parse_reg(ops[1], line)?,
                    ops[2],
                );
            }
            l @ ("lb" | "lh" | "lw" | "lbu" | "lhu") => {
                need(2)?;
                let kind = match l {
                    "lb" => LoadKind::Lb,
                    "lh" => LoadKind::Lh,
                    "lw" => LoadKind::Lw,
                    "lbu" => LoadKind::Lbu,
                    _ => LoadKind::Lhu,
                };
                let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                asm.inst(Instruction::Load {
                    kind,
                    rd: parse_reg(ops[0], line)?,
                    rs1,
                    offset,
                });
            }
            st @ ("sb" | "sh" | "sw") => {
                need(2)?;
                let kind = match st {
                    "sb" => StoreKind::Sb,
                    "sh" => StoreKind::Sh,
                    _ => StoreKind::Sw,
                };
                let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                asm.inst(Instruction::Store {
                    kind,
                    rs1,
                    rs2: parse_reg(ops[0], line)?,
                    offset,
                });
            }
            oi @ ("addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" | "slli" | "srli"
            | "srai") => {
                need(3)?;
                let kind = match oi {
                    "addi" => OpImmKind::Addi,
                    "slti" => OpImmKind::Slti,
                    "sltiu" => OpImmKind::Sltiu,
                    "xori" => OpImmKind::Xori,
                    "ori" => OpImmKind::Ori,
                    "andi" => OpImmKind::Andi,
                    "slli" => OpImmKind::Slli,
                    "srli" => OpImmKind::Srli,
                    _ => OpImmKind::Srai,
                };
                asm.inst(Instruction::OpImm {
                    kind,
                    rd: parse_reg(ops[0], line)?,
                    rs1: parse_reg(ops[1], line)?,
                    imm: parse_imm(ops[2], line)?,
                });
            }
            op @ ("add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or"
            | "and" | "mul" | "mulh" | "mulhsu" | "mulhu" | "div" | "divu" | "rem"
            | "remu") => {
                need(3)?;
                let kind = match op {
                    "add" => OpKind::Add,
                    "sub" => OpKind::Sub,
                    "sll" => OpKind::Sll,
                    "slt" => OpKind::Slt,
                    "sltu" => OpKind::Sltu,
                    "xor" => OpKind::Xor,
                    "srl" => OpKind::Srl,
                    "sra" => OpKind::Sra,
                    "or" => OpKind::Or,
                    "and" => OpKind::And,
                    "mul" => OpKind::Mul,
                    "mulh" => OpKind::Mulh,
                    "mulhsu" => OpKind::Mulhsu,
                    "mulhu" => OpKind::Mulhu,
                    "div" => OpKind::Div,
                    "divu" => OpKind::Divu,
                    "rem" => OpKind::Rem,
                    _ => OpKind::Remu,
                };
                asm.inst(Instruction::Op {
                    kind,
                    rd: parse_reg(ops[0], line)?,
                    rs1: parse_reg(ops[1], line)?,
                    rs2: parse_reg(ops[2], line)?,
                });
            }
            am @ ("amoswap.w" | "amoadd.w" | "amoxor.w" | "amoand.w" | "amoor.w"
            | "amomin.w" | "amomax.w" | "amominu.w" | "amomaxu.w" | "lr.w" | "sc.w") => {
                let kind = match am {
                    "amoswap.w" => AmoKind::Swap,
                    "amoadd.w" => AmoKind::Add,
                    "amoxor.w" => AmoKind::Xor,
                    "amoand.w" => AmoKind::And,
                    "amoor.w" => AmoKind::Or,
                    "amomin.w" => AmoKind::Min,
                    "amomax.w" => AmoKind::Max,
                    "amominu.w" => AmoKind::Minu,
                    "amomaxu.w" => AmoKind::Maxu,
                    "lr.w" => AmoKind::LrW,
                    _ => AmoKind::ScW,
                };
                if kind == AmoKind::LrW {
                    need(2)?;
                    let (rs1, _) = parse_mem_operand(ops[1], line)?;
                    asm.inst(Instruction::Amo {
                        kind,
                        rd: parse_reg(ops[0], line)?,
                        rs1,
                        rs2: Reg::Zero,
                    });
                } else {
                    need(3)?;
                    let (rs1, _) = parse_mem_operand(ops[2], line)?;
                    asm.inst(Instruction::Amo {
                        kind,
                        rd: parse_reg(ops[0], line)?,
                        rs1,
                        rs2: parse_reg(ops[1], line)?,
                    });
                }
            }
            "mac.c" => {
                need(4)?;
                let rd = parse_reg(ops[0], line)?;
                let (slice, row_a) = parse_slice_row(ops[1], line)?;
                let (slice_b, row_b) = parse_slice_row(ops[2], line)?;
                if slice != slice_b {
                    return Err(err(line, "mac.c operands must share a slice"));
                }
                asm.inst(Instruction::MacC {
                    rd,
                    slice,
                    row_a,
                    row_b,
                    width: parse_width(ops[3], line)?,
                });
            }
            "move.c" => {
                need(3)?;
                let (dst_slice, dst_row) = parse_slice_row(ops[0], line)?;
                let (src_slice, src_row) = parse_slice_row(ops[1], line)?;
                asm.inst(Instruction::MoveC {
                    src_slice,
                    src_row,
                    dst_slice,
                    dst_row,
                    width: parse_width(ops[2], line)?,
                });
            }
            "setrow.c" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let value = match ops[1] {
                    "0" => false,
                    "1" => true,
                    other => return Err(err(line, format!("setrow.c value `{other}`"))),
                };
                asm.inst(Instruction::SetRowC { slice, row, value });
            }
            "shiftrow.c" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let spec = ops[1];
                let (left, g) = if let Some(g) = spec.strip_prefix('-') {
                    (true, g)
                } else if let Some(g) = spec.strip_prefix('+') {
                    (false, g)
                } else {
                    (false, spec)
                };
                let granules: u8 = g
                    .parse()
                    .map_err(|_| err(line, format!("bad shift `{spec}`")))?;
                asm.inst(Instruction::ShiftRowC {
                    slice,
                    row,
                    left,
                    granules,
                });
            }
            "loadrow.rc" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let (rs1, _) = parse_mem_operand(ops[1], line)?;
                asm.inst(Instruction::LoadRowRC { rs1, slice, row });
            }
            "storerow.rc" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let (rs1, _) = parse_mem_operand(ops[1], line)?;
                asm.inst(Instruction::StoreRowRC { rs1, slice, row });
            }
            "setmask.c" => {
                need(2)?;
                let rest = ops[0].trim();
                let slice: u8 = rest
                    .strip_prefix('s')
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| err(line, format!("bad slice `{rest}`")))?;
                asm.inst(Instruction::SetMaskC {
                    rs1: parse_reg(ops[1], line)?,
                    slice,
                });
            }
            other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
        }
    }
    Ok(asm)
}

/// Convenience: parse, resolve labels, return instructions.
///
/// # Errors
///
/// Returns [`ParseError`] for syntax errors; label-resolution failures are
/// wrapped with line 0.
pub fn assemble_text(src: &str) -> Result<Vec<Instruction>, ParseError> {
    parse_program(src)?.assemble().map_err(|e: IsaError| err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Instruction as I;

    #[test]
    fn loop_program_parses_and_runs_shape() {
        let prog = assemble_text(
            "
            # sum 1..=10
            li   a0, 10
            li   a1, 0
        loop:
            add  a1, a1, a0
            addi a0, a0, -1
            bne  a0, zero, loop
            ebreak
            ",
        )
        .unwrap();
        assert_eq!(prog.len(), 6);
        assert!(matches!(prog[4], I::Branch { offset: -8, .. }));
    }

    #[test]
    fn memory_and_amo_syntax() {
        let prog = assemble_text(
            "
            lw   a0, 4(sp)
            sb   a1, -1(a0)
            amoadd.w a2, a3, (a0)
            lr.w a4, (a0)
            ",
        )
        .unwrap();
        assert!(matches!(
            prog[0],
            I::Load {
                kind: LoadKind::Lw,
                offset: 4,
                ..
            }
        ));
        assert!(matches!(prog[1], I::Store { offset: -1, .. }));
        assert!(matches!(
            prog[2],
            I::Amo {
                kind: AmoKind::Add,
                ..
            }
        ));
    }

    #[test]
    fn cmem_extension_syntax() {
        let prog = assemble_text(
            "
            mac.c      t0, s1[0], s1[8], n8
            move.c     s2[0], s0[0], n8
            setrow.c   s3[5], 1
            shiftrow.c s3[5], -2
            loadrow.rc s0[0], (a0)
            storerow.rc s1[8], (a1)
            setmask.c  s4, a2
            ",
        )
        .unwrap();
        assert_eq!(
            prog[0],
            I::MacC {
                rd: Reg::T0,
                slice: 1,
                row_a: 0,
                row_b: 8,
                width: VecWidth::W8
            }
        );
        assert_eq!(
            prog[1],
            I::MoveC {
                src_slice: 0,
                src_row: 0,
                dst_slice: 2,
                dst_row: 0,
                width: VecWidth::W8
            }
        );
        assert!(matches!(prog[2], I::SetRowC { value: true, .. }));
        assert!(matches!(
            prog[3],
            I::ShiftRowC {
                left: true,
                granules: 2,
                ..
            }
        ));
        assert!(matches!(prog[6], I::SetMaskC { slice: 4, .. }));
    }

    #[test]
    fn display_roundtrip_for_cmem_ops() {
        // the Display form of CMem instructions parses back to itself
        let insts = [
            I::MacC {
                rd: Reg::A0,
                slice: 3,
                row_a: 0,
                row_b: 16,
                width: VecWidth::W4,
            },
            I::MoveC {
                src_slice: 0,
                src_row: 2,
                dst_slice: 5,
                dst_row: 40,
                width: VecWidth::W16,
            },
            I::SetRowC {
                slice: 6,
                row: 63,
                value: false,
            },
        ];
        for i in insts {
            let text = i.to_string();
            let parsed = assemble_text(&text).unwrap();
            assert_eq!(parsed, vec![i], "{text}");
        }
    }

    #[test]
    fn hex_immediates_and_x_registers() {
        let prog = assemble_text("addi x10, x0, 0x7f").unwrap();
        assert_eq!(prog, vec![I::addi(Reg::A0, Reg::Zero, 0x7F)]);
    }

    #[test]
    fn li_expands_large_constants() {
        let prog = assemble_text("li a0, 0x12345678").unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble_text("nop\nbogus a0, a1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble_text("addi a0, a1").unwrap_err();
        assert!(e.message.contains("3 operands"));
        let e = assemble_text("lw a0, 4[sp]").unwrap_err();
        assert!(e.message.contains("imm(reg)"));
    }

    #[test]
    fn undefined_label_reported() {
        let e = assemble_text("j nowhere").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let prog = assemble_text("\n  # comment\n ; other\nnop # trailing\n").unwrap();
        assert_eq!(prog, vec![I::nop()]);
    }

    #[test]
    fn parsed_program_executes_like_builder_program() {
        // end-to-end: text → instructions → the same encodings as a
        // builder-constructed program
        use crate::encode::encode;
        let text = assemble_text(
            "
            li a0, 5
            li a1, 7
            mul a2, a0, a1
            ebreak
            ",
        )
        .unwrap();
        let mut b = Assembler::new();
        b.li32(Reg::A0, 5);
        b.li32(Reg::A1, 7);
        b.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::A2,
            rs1: Reg::A0,
            rs2: Reg::A1,
        });
        b.inst(I::Ebreak);
        let built = b.assemble().unwrap();
        assert_eq!(
            text.iter().map(encode).collect::<Vec<_>>(),
            built.iter().map(encode).collect::<Vec<_>>()
        );
    }
}
