//! Functional model of one MAICC node: a bit-exact RV32IMA interpreter over
//! the Table-1 address space, with the CMem extension executing against the
//! real bit-level computing memory of `maicc-sram`.
//!
//! The interpreter retires one instruction per `Node::step` and emits a
//! [`TraceEntry`] carrying exactly what the timing model needs: the
//! instruction, whether a branch was taken, and the external latency of any
//! remote access. Semantics and timing stay decoupled this way — the same
//! trace replays under every pipeline configuration of Table 5.

use crate::mem_map::{classify, Region, RowPtr};
use crate::CoreError;
use maicc_isa::inst::{AmoKind, BranchKind, Instruction, LoadKind, OpImmKind, OpKind, StoreKind};
use maicc_isa::reg::Reg;
use maicc_sram::cmem::Cmem;
use maicc_sram::slice::ShiftDir;
use maicc_sram::Row;
use std::collections::HashMap;

/// What the node sees beyond its own address space: other cores' windows
/// and the many-core DRAM. This stand-alone port backs remote addresses
/// with a private sparse memory and charges a fixed latency, so the timing
/// model can charge remote time without the functional model knowing the
/// NoC or DRAM. Used for single-node experiments where the paper excludes
/// communication (Table 5) or treats the feeder as ideal.
#[derive(Debug, Clone)]
pub struct NullPort {
    latency: u32,
    words: HashMap<u32, u32>,
    rows: HashMap<u32, Row>,
}

impl Default for NullPort {
    fn default() -> Self {
        NullPort {
            latency: 20,
            words: HashMap::new(),
            rows: HashMap::new(),
        }
    }
}

impl NullPort {
    /// Creates a port with the given fixed round-trip latency.
    #[must_use]
    pub(crate) fn with_latency(latency: u32) -> Self {
        NullPort {
            latency,
            ..Self::default()
        }
    }

    /// Pre-loads a row so `LoadRow.RC` finds data (the "feeder" of the
    /// single-node workloads).
    pub(crate) fn preload_row(&mut self, ptr: RowPtr, lanes: Row) {
        self.rows.insert(ptr.pack(), lanes);
    }

    /// Loads `size` bytes (1, 2 or 4) from a remote address; returns
    /// (value, latency).
    fn load(&mut self, addr: u32, size: u8) -> (u32, u32) {
        let word = self.words.get(&(addr & !3)).copied().unwrap_or(0);
        let sh = (addr & 3) * 8;
        let v = match size {
            1 => (word >> sh) & 0xFF,
            2 => (word >> sh) & 0xFFFF,
            _ => word,
        };
        (v, self.latency)
    }

    /// Stores `size` bytes to a remote address; returns latency.
    fn store(&mut self, addr: u32, value: u32, size: u8) -> u32 {
        let aligned = addr & !3;
        let word = self.words.entry(aligned).or_insert(0);
        let sh = (addr & 3) * 8;
        match size {
            1 => *word = (*word & !(0xFF << sh)) | ((value & 0xFF) << sh),
            2 => *word = (*word & !(0xFFFF << sh)) | ((value & 0xFFFF) << sh),
            _ => *word = value,
        }
        self.latency
    }

    /// Atomic read-modify-write on a remote word; returns (old value,
    /// latency).
    fn amo(&mut self, kind: AmoKind, addr: u32, value: u32) -> (u32, u32) {
        let old = self.words.get(&(addr & !3)).copied().unwrap_or(0);
        let new = amo_result(kind, old, value);
        if kind != AmoKind::LrW {
            self.words.insert(addr & !3, new);
        }
        (old, self.latency)
    }

    /// Fetches one 256-bit row; returns (lanes, latency).
    fn load_row(&mut self, ptr: RowPtr) -> (Row, u32) {
        (
            self.rows.get(&ptr.pack()).copied().unwrap_or_default(),
            self.latency,
        )
    }

    /// Sends one 256-bit row; returns latency.
    fn store_row(&mut self, ptr: RowPtr, lanes: &Row) -> u32 {
        self.rows.insert(ptr.pack(), *lanes);
        self.latency
    }
}

/// Applies an AMO's arithmetic (also used by the NoC receiver in `maicc-sim`).
#[must_use]
pub(crate) fn amo_result(kind: AmoKind, old: u32, value: u32) -> u32 {
    match kind {
        AmoKind::LrW => old,
        AmoKind::ScW | AmoKind::Swap => value,
        AmoKind::Add => old.wrapping_add(value),
        AmoKind::Xor => old ^ value,
        AmoKind::And => old & value,
        AmoKind::Or => old | value,
        AmoKind::Min => (old as i32).min(value as i32) as u32,
        AmoKind::Max => (old as i32).max(value as i32) as u32,
        AmoKind::Minu => old.min(value),
        AmoKind::Maxu => old.max(value),
    }
}

/// One retired instruction, as the timing model consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// The retired instruction.
    pub inst: Instruction,
    /// For control instructions: whether the branch/jump redirected fetch.
    pub taken: bool,
    /// Latency charged by the remote port (0 for local accesses).
    pub ext_latency: u32,
}

/// A retired-instruction trace plus retirement statistics.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The retired instructions in order.
    pub entries: Vec<TraceEntry>,
    /// Values printed via `ecall` service 1.
    pub output: Vec<u32>,
}

/// The functional node.
pub struct Node {
    regs: [u32; 32],
    pc: u32,
    program: Vec<Instruction>,
    data_mem: Vec<u8>,
    cmem: Cmem,
    port: NullPort,
    halted: bool,
    reservation: Option<u32>,
    output: Vec<u32>,
    instret: u64,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("pc", &self.pc)
            .field("instret", &self.instret)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Creates a node with the standard 4 KB data memory.
    #[must_use]
    pub fn new(program: Vec<Instruction>, port: NullPort) -> Self {
        Self::with_data_mem(program, port, 4096)
    }

    /// Creates a node with a non-standard data memory size — used by the
    /// Table-4 *scalar baseline*, which has no CMem and needs its 20 KB of
    /// SRAM as plain memory to hold the conv workload.
    #[must_use]
    pub(crate) fn with_data_mem(program: Vec<Instruction>, port: NullPort, bytes: usize) -> Self {
        Node {
            regs: [0; 32],
            pc: 0,
            program,
            data_mem: vec![0; bytes],
            cmem: Cmem::new(),
            port,
            halted: false,
            reservation: None,
            output: Vec::new(),
            instret: 0,
        }
    }

    /// Reads a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (x0 writes are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r.index()] = v;
        }
    }

    /// The node's CMem.
    #[must_use]
    pub fn cmem(&self) -> &Cmem {
        &self.cmem
    }

    /// Mutable access to the CMem (for pre-loading filters).
    pub fn cmem_mut(&mut self) -> &mut Cmem {
        &mut self.cmem
    }

    /// Retired instruction count.
    #[must_use]
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Values printed through `ecall` service 1 so far.
    #[must_use]
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// Reads `size` bytes from the data memory (for test inspection).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AccessFault`] outside the data memory.
    pub(crate) fn read_local(&self, addr: u32, size: u8) -> Result<u32, CoreError> {
        if addr as usize + size as usize > self.data_mem.len() {
            return Err(CoreError::AccessFault { addr, what: "read" });
        }
        let mut v = 0u32;
        for i in 0..size {
            v |= (self.data_mem[(addr + i as u32) as usize] as u32) << (8 * i);
        }
        Ok(v)
    }

    /// Writes `size` bytes into the data memory (for test setup).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AccessFault`] outside the data memory.
    pub(crate) fn write_local(&mut self, addr: u32, value: u32, size: u8) -> Result<(), CoreError> {
        if addr as usize + size as usize > self.data_mem.len() {
            return Err(CoreError::AccessFault { addr, what: "write" });
        }
        for i in 0..size {
            self.data_mem[(addr + i as u32) as usize] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn load(&mut self, addr: u32, size: u8, signed: bool) -> Result<(u32, u32), CoreError> {
        // an enlarged data memory (the scalar baseline's whole SRAM) shadows
        // the map above 4 KB — such nodes have no CMem traffic
        if self.data_mem.len() > 4096 && addr as usize + size as usize <= self.data_mem.len() {
            let v = self.read_local(addr, size)?;
            let v = if signed {
                match size {
                    1 => v as u8 as i8 as i32 as u32,
                    2 => v as u16 as i16 as i32 as u32,
                    _ => v,
                }
            } else {
                v
            };
            return Ok((v, 0));
        }
        let (raw, lat) = match classify(addr) {
            Region::LocalData(off) if (off + size as u32) as usize <= self.data_mem.len() => {
                (self.read_local(off, size)?, 0)
            }
            Region::Slice0(off) => {
                let mut v = 0u32;
                for i in 0..size {
                    v |= (self.cmem.load_byte((off + i as u32) as usize)? as u32) << (8 * i);
                }
                (v, 1)
            }
            Region::RemoteCore { .. } | Region::Dram { .. } => self.port.load(addr, size),
            _ => return Err(CoreError::AccessFault { addr, what: "load" }),
        };
        let v = if signed {
            match size {
                1 => raw as u8 as i8 as i32 as u32,
                2 => raw as u16 as i16 as i32 as u32,
                _ => raw,
            }
        } else {
            raw
        };
        Ok((v, lat))
    }

    fn store(&mut self, addr: u32, value: u32, size: u8) -> Result<u32, CoreError> {
        if self.data_mem.len() > 4096 && addr as usize + size as usize <= self.data_mem.len() {
            self.write_local(addr, value, size)?;
            return Ok(0);
        }
        match classify(addr) {
            Region::LocalData(off) if (off + size as u32) as usize <= self.data_mem.len() => {
                self.write_local(off, value, size)?;
                Ok(0)
            }
            Region::Slice0(off) => {
                for i in 0..size {
                    self.cmem
                        .store_byte((off + i as u32) as usize, (value >> (8 * i)) as u8)?;
                }
                Ok(1)
            }
            Region::RemoteCore { .. } | Region::Dram { .. } => {
                Ok(self.port.store(addr, value, size))
            }
            _ => Err(CoreError::AccessFault { addr, what: "store" }),
        }
    }

    /// Executes one instruction; returns `None` once halted.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] for PC escapes, access faults, CMem domain
    /// errors and unknown ecalls.
    pub(crate) fn step(&mut self) -> Result<Option<TraceEntry>, CoreError> {
        if self.halted {
            return Ok(None);
        }
        let idx = (self.pc / 4) as usize;
        let inst = *self
            .program
            .get(idx)
            .ok_or(CoreError::PcOutOfRange { pc: self.pc })?;
        let mut next_pc = self.pc.wrapping_add(4);
        let mut taken = false;
        let mut ext_latency = 0u32;

        match inst {
            Instruction::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instruction::Auipc { rd, imm } => {
                self.set_reg(rd, self.pc.wrapping_add(imm as u32));
            }
            Instruction::Jal { rd, offset } => {
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(offset as u32);
                taken = true;
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = target;
                taken = true;
            }
            Instruction::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let cond = match kind {
                    BranchKind::Beq => a == b,
                    BranchKind::Bne => a != b,
                    BranchKind::Blt => (a as i32) < (b as i32),
                    BranchKind::Bge => (a as i32) >= (b as i32),
                    BranchKind::Bltu => a < b,
                    BranchKind::Bgeu => a >= b,
                };
                if cond {
                    next_pc = self.pc.wrapping_add(offset as u32);
                    taken = true;
                }
            }
            Instruction::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let (size, signed) = match kind {
                    LoadKind::Lb => (1, true),
                    LoadKind::Lh => (2, true),
                    LoadKind::Lw => (4, false),
                    LoadKind::Lbu => (1, false),
                    LoadKind::Lhu => (2, false),
                };
                let (v, lat) = self.load(addr, size, signed)?;
                ext_latency = lat;
                self.set_reg(rd, v);
            }
            Instruction::Store {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let size = match kind {
                    StoreKind::Sb => 1,
                    StoreKind::Sh => 2,
                    StoreKind::Sw => 4,
                };
                ext_latency = self.store(addr, self.reg(rs2), size)?;
            }
            Instruction::OpImm { kind, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let v = match kind {
                    OpImmKind::Addi => a.wrapping_add(imm as u32),
                    OpImmKind::Slti => u32::from((a as i32) < imm),
                    OpImmKind::Sltiu => u32::from(a < imm as u32),
                    OpImmKind::Xori => a ^ imm as u32,
                    OpImmKind::Ori => a | imm as u32,
                    OpImmKind::Andi => a & imm as u32,
                    OpImmKind::Slli => a << (imm & 31),
                    OpImmKind::Srli => a >> (imm & 31),
                    OpImmKind::Srai => ((a as i32) >> (imm & 31)) as u32,
                };
                self.set_reg(rd, v);
            }
            Instruction::Op { kind, rd, rs1, rs2 } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let v = match kind {
                    OpKind::Add => a.wrapping_add(b),
                    OpKind::Sub => a.wrapping_sub(b),
                    OpKind::Sll => a << (b & 31),
                    OpKind::Slt => u32::from((a as i32) < (b as i32)),
                    OpKind::Sltu => u32::from(a < b),
                    OpKind::Xor => a ^ b,
                    OpKind::Srl => a >> (b & 31),
                    OpKind::Sra => ((a as i32) >> (b & 31)) as u32,
                    OpKind::Or => a | b,
                    OpKind::And => a & b,
                    OpKind::Mul => a.wrapping_mul(b),
                    OpKind::Mulh => ((a as i32 as i64 * b as i32 as i64) >> 32) as u32,
                    OpKind::Mulhsu => ((a as i32 as i64 * b as u64 as i64) >> 32) as u32,
                    OpKind::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
                    OpKind::Div => {
                        if b == 0 {
                            u32::MAX
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            a
                        } else {
                            ((a as i32) / (b as i32)) as u32
                        }
                    }
                    OpKind::Divu => a.checked_div(b).unwrap_or(u32::MAX),
                    OpKind::Rem => {
                        if b == 0 {
                            a
                        } else if a == 0x8000_0000 && b == u32::MAX {
                            0
                        } else {
                            ((a as i32) % (b as i32)) as u32
                        }
                    }
                    OpKind::Remu => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                };
                self.set_reg(rd, v);
            }
            Instruction::Amo { kind, rd, rs1, rs2 } => {
                let addr = self.reg(rs1);
                let val = self.reg(rs2);
                match classify(addr) {
                    Region::LocalData(off) => {
                        let old = self.read_local(off, 4)?;
                        match kind {
                            AmoKind::LrW => {
                                self.reservation = Some(addr);
                                self.set_reg(rd, old);
                            }
                            AmoKind::ScW => {
                                if self.reservation == Some(addr) {
                                    self.write_local(off, val, 4)?;
                                    self.set_reg(rd, 0);
                                } else {
                                    self.set_reg(rd, 1);
                                }
                                self.reservation = None;
                            }
                            _ => {
                                self.write_local(off, amo_result(kind, old, val), 4)?;
                                self.set_reg(rd, old);
                            }
                        }
                    }
                    Region::RemoteCore { .. } | Region::Dram { .. } => {
                        let (old, lat) = self.port.amo(kind, addr, val);
                        ext_latency = lat;
                        match kind {
                            AmoKind::LrW => {
                                self.reservation = Some(addr);
                                self.set_reg(rd, old);
                            }
                            AmoKind::ScW => {
                                // remote SC always succeeds in this model:
                                // the NoC serialises row-level atomics (§3.3)
                                self.set_reg(rd, 0);
                                self.reservation = None;
                            }
                            _ => self.set_reg(rd, old),
                        }
                    }
                    _ => return Err(CoreError::AccessFault { addr, what: "amo" }),
                }
            }
            Instruction::Fence => {}
            Instruction::Ecall => {
                let service = self.reg(Reg::A7);
                match service {
                    1 => {
                        let v = self.reg(Reg::A0);
                        self.output.push(v);
                    }
                    _ => return Err(CoreError::UnknownEcall { service }),
                }
            }
            Instruction::Ebreak => {
                self.halted = true;
            }
            Instruction::MacC {
                rd,
                slice,
                row_a,
                row_b,
                width,
            } => {
                let r = self.cmem.mac(
                    slice as usize,
                    row_a as usize,
                    row_b as usize,
                    width.bits(),
                    true,
                )?;
                self.set_reg(rd, r as i32 as u32);
            }
            Instruction::MoveC {
                src_slice,
                src_row,
                dst_slice,
                dst_row,
                width,
            } => {
                self.cmem.move_vector(
                    src_slice as usize,
                    src_row as usize,
                    dst_slice as usize,
                    dst_row as usize,
                    width.bits(),
                )?;
            }
            Instruction::SetRowC { slice, row, value } => {
                self.cmem.set_row(slice as usize, row as usize, value)?;
            }
            Instruction::ShiftRowC {
                slice,
                row,
                left,
                granules,
            } => {
                let dir = if left { ShiftDir::Left } else { ShiftDir::Right };
                self.cmem
                    .shift_row(slice as usize, row as usize, dir, granules as usize)?;
            }
            Instruction::LoadRowRC { rs1, slice, row } => {
                let ptr = RowPtr::unpack(self.reg(rs1)).ok_or(CoreError::AccessFault {
                    addr: self.reg(rs1),
                    what: "loadrow",
                })?;
                let (lanes, lat) = self.port.load_row(ptr);
                ext_latency = lat;
                self.cmem
                    .write_row_remote(slice as usize, row as usize, &lanes)?;
            }
            Instruction::StoreRowRC { rs1, slice, row } => {
                let ptr = RowPtr::unpack(self.reg(rs1)).ok_or(CoreError::AccessFault {
                    addr: self.reg(rs1),
                    what: "storerow",
                })?;
                let lanes = self.cmem.read_row_remote(slice as usize, row as usize)?;
                ext_latency = self.port.store_row(ptr, &lanes);
            }
            Instruction::SetMaskC { rs1, slice } => {
                let m = (self.reg(rs1) & 0xFF) as u8;
                self.cmem.slice_mut(slice as usize)?.set_mask(m);
            }
        }

        self.pc = next_pc;
        self.instret += 1;
        Ok(Some(TraceEntry {
            inst,
            taken,
            ext_latency,
        }))
    }

    /// Runs until `ebreak`, collecting the full trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StepLimit`] if the program does not halt within
    /// `max_steps`, or any execution error.
    pub fn run(&mut self, max_steps: u64) -> Result<Trace, CoreError> {
        let mut trace = Trace::default();
        for _ in 0..max_steps {
            match self.step()? {
                Some(e) => trace.entries.push(e),
                None => {
                    trace.output = self.output.clone();
                    return Ok(trace);
                }
            }
        }
        if self.halted {
            trace.output = self.output.clone();
            Ok(trace)
        } else {
            Err(CoreError::StepLimit { max_steps })
        }
    }

    /// Runs until `ebreak`, streaming each retired instruction into `sink`
    /// instead of storing the trace (for multi-million-instruction runs).
    ///
    /// # Errors
    ///
    /// As for [`Self::run`].
    pub fn run_with(
        &mut self,
        max_steps: u64,
        mut sink: impl FnMut(&TraceEntry),
    ) -> Result<(), CoreError> {
        for _ in 0..max_steps {
            match self.step()? {
                Some(e) => sink(&e),
                None => return Ok(()),
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(CoreError::StepLimit { max_steps })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_isa::asm::Assembler;
    use maicc_isa::inst::{Instruction as I, VecWidth};

    fn run_asm(build: impl FnOnce(&mut Assembler)) -> Node {
        let mut a = Assembler::new();
        build(&mut a);
        a.inst(I::Ebreak);
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        node.run(1_000_000).unwrap();
        node
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10 = 55
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, 10));
            a.inst(I::li(Reg::A1, 0));
            a.label("loop");
            a.inst(I::add(Reg::A1, Reg::A1, Reg::A0));
            a.inst(I::addi(Reg::A0, Reg::A0, -1));
            a.branch(BranchKind::Bne, Reg::A0, Reg::Zero, "loop");
        });
        assert_eq!(node.reg(Reg::A1), 55);
    }

    #[test]
    fn mul_div_rem_semantics() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, -7));
            a.inst(I::li(Reg::A1, 3));
            a.inst(I::Op {
                kind: OpKind::Mul,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            a.inst(I::Op {
                kind: OpKind::Div,
                rd: Reg::A3,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            a.inst(I::Op {
                kind: OpKind::Rem,
                rd: Reg::A4,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
        });
        assert_eq!(node.reg(Reg::A2) as i32, -21);
        assert_eq!(node.reg(Reg::A3) as i32, -2);
        assert_eq!(node.reg(Reg::A4) as i32, -1);
    }

    #[test]
    fn div_by_zero_follows_spec() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, 5));
            a.inst(I::Op {
                kind: OpKind::Div,
                rd: Reg::A1,
                rs1: Reg::A0,
                rs2: Reg::Zero,
            });
            a.inst(I::Op {
                kind: OpKind::Rem,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::Zero,
            });
        });
        assert_eq!(node.reg(Reg::A1), u32::MAX);
        assert_eq!(node.reg(Reg::A2), 5);
    }

    #[test]
    fn local_memory_roundtrip_with_bytes() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, 0x123));
            a.inst(I::li(Reg::A1, -2));
            a.inst(I::Store {
                kind: StoreKind::Sb,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 0,
            });
            a.inst(I::Load {
                kind: LoadKind::Lb,
                rd: Reg::A2,
                rs1: Reg::A0,
                offset: 0,
            });
            a.inst(I::Load {
                kind: LoadKind::Lbu,
                rd: Reg::A3,
                rs1: Reg::A0,
                offset: 0,
            });
        });
        assert_eq!(node.reg(Reg::A2) as i32, -2);
        assert_eq!(node.reg(Reg::A3), 0xFE);
    }

    #[test]
    fn slice0_stores_transpose_and_mac_works_end_to_end() {
        // Store 4 ifmap bytes to slice0 via the Figure-5 window, preload a
        // filter into slice 1 directly, Move.C + MAC.C, check dot product.
        let mut a = Assembler::new();
        // bytes 2,3,4,5 at slice0 addresses 0..4 (columns 0..4, rows 0..8)
        for (k, v) in [2i32, 3, 4, 5].iter().enumerate() {
            a.inst(I::li(Reg::A1, *v));
            a.li32(Reg::A0, 0x1000 + k as i32);
            a.inst(I::Store {
                kind: StoreKind::Sb,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 0,
            });
        }
        a.inst(I::MoveC {
            src_slice: 0,
            src_row: 0,
            dst_slice: 1,
            dst_row: 0,
            width: VecWidth::W8,
        });
        a.inst(I::MacC {
            rd: Reg::A5,
            slice: 1,
            row_a: 0,
            row_b: 8,
            width: VecWidth::W8,
        });
        a.inst(I::Ebreak);
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        // filter vector: 1 at the first four columns
        node.cmem_mut()
            .write_vector_i8(1, 8, &{
                let mut f = vec![0i8; 256];
                f[..4].copy_from_slice(&[10, 20, 30, 40]);
                f
            })
            .unwrap();
        node.run(1000).unwrap();
        assert_eq!(node.reg(Reg::A5), (2 * 10 + 3 * 20 + 4 * 30 + 5 * 40) as u32);
    }

    #[test]
    fn remote_store_and_load_roundtrip_through_port() {
        let mut a = Assembler::new();
        a.li32(Reg::A0, crate::mem_map::remote_addr(3, 4, 0x100) as i32);
        a.inst(I::li(Reg::A1, 77));
        a.inst(I::sw(Reg::A1, Reg::A0, 0));
        a.inst(I::lw(Reg::A2, Reg::A0, 0));
        a.inst(I::Ebreak);
        let mut node = Node::new(a.assemble().unwrap(), NullPort::with_latency(9));
        let trace = node.run(1000).unwrap();
        assert_eq!(node.reg(Reg::A2), 77);
        // both the store and the load carried the port latency
        let lats: Vec<u32> = trace
            .entries
            .iter()
            .filter(|e| e.ext_latency > 0)
            .map(|e| e.ext_latency)
            .collect();
        assert_eq!(lats, vec![9, 9]);
    }

    #[test]
    fn storerow_loadrow_roundtrip() {
        let ptr = RowPtr::Remote {
            x: 1,
            y: 2,
            slice: 0,
            row: 5,
        };
        let mut a = Assembler::new();
        a.li32(Reg::A0, ptr.pack() as i32);
        a.inst(I::StoreRowRC {
            rs1: Reg::A0,
            slice: 2,
            row: 7,
        });
        a.inst(I::LoadRowRC {
            rs1: Reg::A0,
            slice: 3,
            row: 9,
        });
        a.inst(I::Ebreak);
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        node.cmem_mut()
            .slice_mut(2)
            .unwrap()
            .array_mut()
            .write_row(7, &[0xAA, 0xBB, 0xCC, 0xDD])
            .unwrap();
        node.run(1000).unwrap();
        assert_eq!(
            node.cmem().slice(3).unwrap().array().read_row(9).unwrap(),
            &[0xAA, 0xBB, 0xCC, 0xDD]
        );
    }

    #[test]
    fn amo_add_local() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, 0x40));
            a.inst(I::li(Reg::A1, 5));
            a.inst(I::sw(Reg::A1, Reg::A0, 0));
            a.inst(I::li(Reg::A2, 3));
            a.inst(I::Amo {
                kind: AmoKind::Add,
                rd: Reg::A3,
                rs1: Reg::A0,
                rs2: Reg::A2,
            });
            a.inst(I::lw(Reg::A4, Reg::A0, 0));
        });
        assert_eq!(node.reg(Reg::A3), 5); // old value
        assert_eq!(node.reg(Reg::A4), 8); // new value
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A0, 0x40));
            a.inst(I::Amo {
                kind: AmoKind::LrW,
                rd: Reg::A1,
                rs1: Reg::A0,
                rs2: Reg::Zero,
            });
            a.inst(I::li(Reg::A2, 9));
            a.inst(I::Amo {
                kind: AmoKind::ScW,
                rd: Reg::A3,
                rs1: Reg::A0,
                rs2: Reg::A2,
            });
            // second SC without reservation must fail
            a.inst(I::Amo {
                kind: AmoKind::ScW,
                rd: Reg::A4,
                rs1: Reg::A0,
                rs2: Reg::A2,
            });
        });
        assert_eq!(node.reg(Reg::A3), 0, "first sc succeeds");
        assert_eq!(node.reg(Reg::A4), 1, "second sc fails");
    }

    #[test]
    fn ecall_prints_and_unknown_service_errors() {
        let node = run_asm(|a| {
            a.inst(I::li(Reg::A7, 1));
            a.inst(I::li(Reg::A0, 42));
            a.inst(I::Ecall);
        });
        assert_eq!(node.output(), &[42]);

        let mut a = Assembler::new();
        a.inst(I::li(Reg::A7, 99));
        a.inst(I::Ecall);
        let mut bad = Node::new(a.assemble().unwrap(), NullPort::default());
        assert!(matches!(
            bad.run(10),
            Err(CoreError::UnknownEcall { service: 99 })
        ));
    }

    #[test]
    fn step_limit_detected() {
        let mut a = Assembler::new();
        a.label("spin");
        a.jump("spin");
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        assert!(matches!(
            node.run(100),
            Err(CoreError::StepLimit { max_steps: 100 })
        ));
    }

    #[test]
    fn pc_escape_detected() {
        let mut node = Node::new(vec![I::nop()], NullPort::default());
        node.step().unwrap();
        assert!(matches!(node.step(), Err(CoreError::PcOutOfRange { .. })));
    }

    #[test]
    fn unmapped_access_faults() {
        let mut a = Assembler::new();
        a.li32(Reg::A0, 0x2000);
        a.inst(I::lw(Reg::A1, Reg::A0, 0));
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        assert!(matches!(
            node.run(10),
            Err(CoreError::AccessFault { .. })
        ));
    }

    #[test]
    fn run_with_streams_without_storing() {
        let mut a = Assembler::new();
        for _ in 0..10 {
            a.inst(I::nop());
        }
        a.inst(I::Ebreak);
        let mut node = Node::new(a.assemble().unwrap(), NullPort::default());
        let mut count = 0;
        node.run_with(1000, |_| count += 1).unwrap();
        assert_eq!(count, 11);
    }
}
