//! Textual assembly parser.
//!
//! Parses a human-readable assembly dialect — the one
//! [`crate::inst::Instruction`]'s `Display` emits, plus the pseudo
//! instructions `nop`, `li`, `mv` and `j` — into an [`Assembler`] program.
//! Labels end with `:`; comments start with `#` or `;`. A branch or jump
//! target is a label or, as `Display` prints it, a byte offset.
//!
//! Every instruction a line builds must decode back from its encoding,
//! so an operand that does not fit its field is an error, not a
//! truncated word; so are a displacement on a `(reg)` operand and a label
//! defined twice.
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
use crate::decode::decode;
use crate::encode::encode;
use crate::inst::{
    AmoKind, BranchKind, Instruction, LoadKind, OpImmKind, OpKind, OpTable, StoreKind, VecWidth,
};
use crate::reg::Reg;
use crate::IsaError;
use std::collections::HashMap;
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
        u64::from_str_radix(hex, 16)
    } else {
        body.parse::<u64>()
    }
    .map_err(|_| err(line, format!("bad immediate `{tok}`")))?;
    let v = if neg { -i128::from(v) } else { i128::from(v) };
    i32::try_from(v).map_err(|_| err(line, format!("immediate `{tok}` out of 32-bit range")))
}

/// Parses an upper immediate (`lui`, `auipc`): the 20-bit field's value.
fn parse_upper(tok: &str, line: usize) -> Result<i32, ParseError> {
    match parse_imm(tok, line)? {
        v @ 0..=0xF_FFFF => Ok(v << 12),
        _ => Err(err(
            line,
            format!("upper immediate `{tok}` out of range 0..=0xfffff"),
        )),
    }
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

/// Parses a `(reg)` address, which has no displacement field.
fn parse_base(tok: &str, line: usize) -> Result<Reg, ParseError> {
    match parse_mem_operand(tok, line)? {
        (reg, 0) => Ok(reg),
        _ => Err(err(
            line,
            format!("`{}` takes no offset: expected `(reg)`", tok.trim()),
        )),
    }
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
    let mut labels = HashMap::new();
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
            // `Assembler::assemble` reads such a target as a byte offset
            if label.parse::<i64>().is_ok() {
                return Err(err(line, format!("label `{label}` reads as a number")));
            }
            if let Some(first) = labels.insert(label, line) {
                return Err(err(
                    line,
                    format!("label `{label}` already defined on line {first}"),
                ));
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
        let lower = mnemonic.to_ascii_lowercase();
        let inst = match lower.as_str() {
            "nop" => {
                need(0)?;
                Instruction::nop()
            }
            "ebreak" => {
                need(0)?;
                Instruction::Ebreak
            }
            "ecall" => {
                need(0)?;
                Instruction::Ecall
            }
            "fence" => {
                need(0)?;
                Instruction::Fence
            }
            "li" => {
                need(2)?;
                asm.li32(parse_reg(ops[0], line)?, parse_imm(ops[1], line)?);
                continue;
            }
            "mv" => {
                need(2)?;
                Instruction::addi(parse_reg(ops[0], line)?, parse_reg(ops[1], line)?, 0)
            }
            "lui" => {
                need(2)?;
                Instruction::Lui {
                    rd: parse_reg(ops[0], line)?,
                    imm: parse_upper(ops[1], line)?,
                }
            }
            "auipc" => {
                need(2)?;
                Instruction::Auipc {
                    rd: parse_reg(ops[0], line)?,
                    imm: parse_upper(ops[1], line)?,
                }
            }
            "j" => {
                need(1)?;
                asm.jump(ops[0]);
                continue;
            }
            "jal" => {
                need(2)?;
                asm.jal(parse_reg(ops[0], line)?, ops[1]);
                continue;
            }
            "jalr" => {
                need(2)?;
                let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                Instruction::Jalr {
                    rd: parse_reg(ops[0], line)?,
                    rs1,
                    offset,
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
                Instruction::MacC {
                    rd,
                    slice,
                    row_a,
                    row_b,
                    width: parse_width(ops[3], line)?,
                }
            }
            "move.c" => {
                need(3)?;
                let (dst_slice, dst_row) = parse_slice_row(ops[0], line)?;
                let (src_slice, src_row) = parse_slice_row(ops[1], line)?;
                Instruction::MoveC {
                    src_slice,
                    src_row,
                    dst_slice,
                    dst_row,
                    width: parse_width(ops[2], line)?,
                }
            }
            "setrow.c" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let value = match ops[1] {
                    "0" => false,
                    "1" => true,
                    other => return Err(err(line, format!("setrow.c value `{other}`"))),
                };
                Instruction::SetRowC { slice, row, value }
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
                Instruction::ShiftRowC {
                    slice,
                    row,
                    left,
                    granules,
                }
            }
            "loadrow.rc" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let rs1 = parse_base(ops[1], line)?;
                Instruction::LoadRowRC { rs1, slice, row }
            }
            "storerow.rc" => {
                need(2)?;
                let (slice, row) = parse_slice_row(ops[0], line)?;
                let rs1 = parse_base(ops[1], line)?;
                Instruction::StoreRowRC { rs1, slice, row }
            }
            "setmask.c" => {
                need(2)?;
                let rest = ops[0].trim();
                let slice: u8 = rest
                    .strip_prefix('s')
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| err(line, format!("bad slice `{rest}`")))?;
                Instruction::SetMaskC {
                    rs1: parse_reg(ops[1], line)?,
                    slice,
                }
            }
            // every other mnemonic names a table row
            other => {
                let reg = |k: usize| parse_reg(ops[k], line);
                if let Some(kind) = BranchKind::from_mnemonic(other) {
                    need(3)?;
                    asm.branch(kind, reg(0)?, reg(1)?, ops[2]);
                    continue;
                } else if let Some(kind) = LoadKind::from_mnemonic(other) {
                    need(2)?;
                    let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                    Instruction::Load {
                        kind,
                        rd: reg(0)?,
                        rs1,
                        offset,
                    }
                } else if let Some(kind) = StoreKind::from_mnemonic(other) {
                    need(2)?;
                    let (rs1, offset) = parse_mem_operand(ops[1], line)?;
                    Instruction::Store {
                        kind,
                        rs1,
                        rs2: reg(0)?,
                        offset,
                    }
                } else if let Some(kind) = OpImmKind::from_mnemonic(other) {
                    need(3)?;
                    let (rd, rs1, imm) = (reg(0)?, reg(1)?, parse_imm(ops[2], line)?);
                    Instruction::OpImm { kind, rd, rs1, imm }
                } else if let Some(kind) = OpKind::from_mnemonic(other) {
                    need(3)?;
                    let (rd, rs1, rs2) = (reg(0)?, reg(1)?, reg(2)?);
                    Instruction::Op { kind, rd, rs1, rs2 }
                } else if let Some(kind) = AmoKind::from_mnemonic(other) {
                    // `lr.w rd, (rs1)` has no `rs2` operand
                    let rs2 = if kind == AmoKind::LrW {
                        need(2)?;
                        Reg::Zero
                    } else {
                        need(3)?;
                        reg(1)?
                    };
                    let (rd, rs1) = (reg(0)?, parse_base(ops[ops.len() - 1], line)?);
                    Instruction::Amo { kind, rd, rs1, rs2 }
                } else {
                    return Err(err(line, format!("unknown mnemonic `{other}`")));
                }
            }
        };
        // an operand that does not fit its field does not decode back
        if decode(encode(&inst)) != Ok(inst) {
            return Err(err(
                line,
                format!("an operand of `{inst}` does not fit its field"),
            ));
        }
        asm.inst(inst);
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
    use proptest::prelude::*;

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

    fn kinds<K: OpTable>() -> impl Iterator<Item = K> {
        K::ROWS.iter().map(|row| row.0)
    }

    /// Every row of every table, and every other instruction shape, at
    /// edge operand values.
    fn every_shape() -> Vec<I> {
        let mut all = Vec::new();
        for kind in kinds::<BranchKind>() {
            for offset in [-4096, 4094] {
                all.push(I::Branch {
                    kind,
                    rs1: Reg::T6,
                    rs2: Reg::Zero,
                    offset,
                });
            }
        }
        for offset in [-2048, 2047] {
            for kind in kinds::<LoadKind>() {
                let (rd, rs1) = (Reg::A0, Reg::Sp);
                all.push(I::Load {
                    kind,
                    rd,
                    rs1,
                    offset,
                });
            }
            for kind in kinds::<StoreKind>() {
                let (rs1, rs2) = (Reg::S11, Reg::Zero);
                all.push(I::Store {
                    kind,
                    rs1,
                    rs2,
                    offset,
                });
            }
            all.push(I::Jalr {
                rd: Reg::Ra,
                rs1: Reg::T6,
                offset,
            });
        }
        for kind in kinds::<OpImmKind>() {
            let imms = if OpImmKind::is_shift(kind.code()) {
                [0, 31]
            } else {
                [-2048, 2047]
            };
            for imm in imms {
                let (rd, rs1) = (Reg::T6, Reg::Zero);
                all.push(I::OpImm { kind, rd, rs1, imm });
            }
        }
        for kind in kinds::<OpKind>() {
            let (rd, rs1, rs2) = (Reg::T6, Reg::Zero, Reg::Ra);
            all.push(I::Op { kind, rd, rs1, rs2 });
        }
        for kind in kinds::<AmoKind>() {
            let rs2 = if kind == AmoKind::LrW {
                Reg::Zero
            } else {
                Reg::T6
            };
            let (rd, rs1) = (Reg::Zero, Reg::S11);
            all.push(I::Amo { kind, rd, rs1, rs2 });
        }
        for imm in [0, 0xFFFF_F000u32 as i32] {
            all.push(I::Lui { rd: Reg::T6, imm });
            all.push(I::Auipc { rd: Reg::Zero, imm });
        }
        for offset in [-1_048_576, 1_048_574] {
            all.push(I::Jal {
                rd: Reg::Ra,
                offset,
            });
        }
        all.extend([I::Fence, I::Ecall, I::Ebreak]);
        for (width, edge) in [(VecWidth::W2, false), (VecWidth::W16, true)] {
            let (slice, row) = if edge { (7, 63) } else { (0, 0) };
            all.extend([
                I::MacC {
                    rd: Reg::T6,
                    slice,
                    row_a: row,
                    row_b: 63 - row,
                    width,
                },
                I::MoveC {
                    src_slice: slice,
                    src_row: row,
                    dst_slice: 7 - slice,
                    dst_row: 63 - row,
                    width,
                },
                I::SetRowC {
                    slice,
                    row,
                    value: edge,
                },
                I::ShiftRowC {
                    slice,
                    row,
                    left: edge,
                    granules: 7 * u8::from(edge),
                },
                I::LoadRowRC {
                    rs1: Reg::T6,
                    slice,
                    row,
                },
                I::StoreRowRC {
                    rs1: Reg::Zero,
                    slice,
                    row,
                },
                I::SetMaskC {
                    rs1: Reg::T6,
                    slice,
                },
            ]);
        }
        all
    }

    #[test]
    fn every_operation_prints_as_text_that_reads_back() {
        let rows = BranchKind::ROWS.len()
            + LoadKind::ROWS.len()
            + StoreKind::ROWS.len()
            + OpImmKind::ROWS.len()
            + OpKind::ROWS.len()
            + AmoKind::ROWS.len();
        assert_eq!(rows, 52);
        for i in every_shape() {
            assert_eq!(decode(encode(&i)), Ok(i), "{i}");
            assert_eq!(assemble_text(&i.to_string()), Ok(vec![i]), "{i}");
        }
    }

    #[test]
    fn amos_print_their_assembler_mnemonics() {
        let amo = |kind, rs2| I::Amo {
            kind,
            rd: Reg::A0,
            rs1: Reg::A2,
            rs2,
        };
        for (i, text) in [
            (amo(AmoKind::Add, Reg::A1), "amoadd.w a0, a1, (a2)"),
            (amo(AmoKind::LrW, Reg::Zero), "lr.w a0, (a2)"),
            (amo(AmoKind::ScW, Reg::A1), "sc.w a0, a1, (a2)"),
        ] {
            assert_eq!(i.to_string(), text);
            assert_eq!(assemble_text(text), Ok(vec![i]));
        }
    }

    #[test]
    fn rv32_operations_print_in_lower_case() {
        let srai = I::OpImm {
            kind: OpImmKind::Srai,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(srai.to_string(), "srai a0, a0, 1");
        assert_eq!(I::li(Reg::A7, 1).to_string(), "addi a7, zero, 1");
    }

    #[test]
    fn auipc_parses() {
        let prog = assemble_text("auipc a0, 0x1").unwrap();
        assert_eq!(
            prog,
            vec![I::Auipc {
                rd: Reg::A0,
                imm: 0x1000
            }]
        );
    }

    #[test]
    fn numeric_targets_are_byte_offsets() {
        let prog = assemble_text("bne a0, zero, -8\njal ra, 16\nj -4").unwrap();
        assert!(matches!(prog[0], I::Branch { offset: -8, .. }));
        assert_eq!(
            prog[1..],
            [
                I::Jal {
                    rd: Reg::Ra,
                    offset: 16
                },
                I::Jal {
                    rd: Reg::Zero,
                    offset: -4
                }
            ]
        );
        // out of range, or odd: the fields hold only even offsets
        for text in [
            "beq a0, a1, 4096",
            "beq a0, a1, -4098",
            "beq a0, a1, 5",
            "jal ra, 3",
        ] {
            let e = assemble_text(text).unwrap_err();
            assert!(e.message.contains("does not fit"), "{text}: {e}");
        }
        assert!(assemble_text("beq a0, a1, 6").is_ok());
    }

    #[test]
    fn a_displacement_without_a_field_is_refused() {
        for text in [
            "amoadd.w a0, a1, 8(a2)",
            "lr.w a0, -4(a2)",
            "loadrow.rc s0[1], 8(a0)",
            "storerow.rc s0[1], 12(a0)",
        ] {
            let e = assemble_text(&format!("nop\n{text}")).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(e.message.contains("takes no offset"), "{text}: {e}");
        }
        assert!(assemble_text("lr.w a0, 0(a2)").is_ok());
    }

    #[test]
    fn an_operand_that_does_not_fit_its_field_is_refused() {
        for text in [
            "addi a0, zero, 5000",
            "slli a1, a0, 40",
            "lui a2, 0x100001",
            "auipc a2, -1",
            "sw a0, 2048(sp)",
            "jalr ra, -2049(a0)",
            "shiftrow.c s0[0], -8",
            "setmask.c s8, a0",
        ] {
            let e = assemble_text(&format!("nop\nnop\n{text}")).unwrap_err();
            assert_eq!(e.line, 3, "{text}: {e}");
        }
    }

    #[test]
    fn a_sign_inside_an_immediate_is_refused() {
        for imm in ["--5", "--9223372036854775808", "0x-5"] {
            assert!(
                assemble_text(&format!("addi a0, a0, {imm}")).is_err(),
                "{imm}"
            );
        }
        let prog = assemble_text("addi a0, a0, -0x800").unwrap();
        assert_eq!(prog, vec![I::addi(Reg::A0, Reg::A0, -2048)]);
    }

    #[test]
    fn a_label_defined_twice_is_an_error() {
        let e = assemble_text("x:\nnop\nx:\nj x").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("line 1"), "{e}");
    }

    #[test]
    fn a_label_that_reads_as_a_number_is_refused() {
        let e = assemble_text("nop\n-8:\nj -8").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("number"), "{e}");
    }

    /// A source line from known mnemonics, registers, immediates, labels
    /// and junk tokens.
    fn arb_line() -> impl Strategy<Value = String> {
        const MNEMONICS: &[&str] = &[
            "beq",
            "bgeu",
            "lw",
            "lhu",
            "sb",
            "addi",
            "slli",
            "srai",
            "add",
            "mulhsu",
            "amoadd.w",
            "lr.w",
            "sc.w",
            "lui",
            "auipc",
            "jal",
            "jalr",
            "j",
            "li",
            "mv",
            "nop",
            "fence",
            "ecall",
            "ebreak",
            "mac.c",
            "move.c",
            "setrow.c",
            "shiftrow.c",
            "loadrow.rc",
            "storerow.rc",
            "setmask.c",
            "bogus",
            "",
        ];
        const TOKENS: &[&str] = &[
            "a0",
            "zero",
            "x0",
            "x31",
            "x32",
            "t6",
            "s11",
            "-8",
            "7",
            "0x7ff",
            "-2048",
            "4096",
            "0xfffff",
            "-0x80000000",
            "4294967296",
            "--5",
            "loop",
            "end",
            "8",
            "(a0)",
            "4(sp)",
            "-4(a2)",
            "(",
            "a0)",
            "()",
            "s7[63]",
            "s0[0]",
            "s8[0]",
            "s0[64]",
            "s7",
            "s300",
            "n8",
            "n3",
            "-7",
            "+0",
            "1",
            "",
            ":",
            "é",
            "0x",
            "-",
        ];
        const LABELS: &[&str] = &["loop", "end", "8", "-8", "a b", "é", ""];
        (
            0..MNEMONICS.len(),
            proptest::collection::vec(0..TOKENS.len(), 0..5),
            0u8..4,
        )
            .prop_map(|(m, ops, shape)| {
                let ops: Vec<&str> = ops.iter().map(|&k| TOKENS[k]).collect();
                match shape {
                    0 | 1 => format!("{}:", LABELS[m % LABELS.len()]),
                    2 => ops.join(" "),
                    _ => format!("{} {}", MNEMONICS[m], ops.join(", ")),
                }
            })
    }

    proptest! {
        #[test]
        fn prop_decoded_words_read_back_from_their_text(bits in any::<u32>(), op in 0usize..13) {
            let opcodes = [
                0x37, 0x17, 0x6F, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x2F, 0x0F, 0x73,
                crate::CUSTOM0,
            ];
            let decoded = decode(bits & !0x7F | opcodes[op]);
            prop_assume!(decoded.is_ok());
            let inst = decoded.unwrap();
            prop_assert_eq!(assemble_text(&inst.to_string()), Ok(vec![inst]));
        }

        #[test]
        fn prop_text_assembly_never_panics(lines in proptest::collection::vec(arb_line(), 1..12)) {
            // each line alone too, since a program stops at its first error
            for line in &lines {
                let _ = assemble_text(line);
            }
            let _ = assemble_text(&lines.join("\n"));
        }
    }
}
