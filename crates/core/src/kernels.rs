//! Kernel generators for the single-node convolution workloads of
//! Tables 4 and 5.
//!
//! Two programs compute the same convolution:
//!
//! * [`CmemConvKernel`] — the Algorithm-1 flow: ifmap vectors stream into
//!   slice 0 (`LoadRow.RC`), broadcast to the seven computing slices
//!   (`Move.C`), `MAC.C` against the resident filters, and the scalar core
//!   accumulates partial sums into the ofmap with branch-free masked
//!   updates (margins contribute zero). MACs are emitted **round-robin
//!   across slices** — the manual scheduling §5 describes — so the seven
//!   slices compute in parallel and one iteration costs `7N + QN²` CMem
//!   cycles (§4.1).
//! * [`ScalarConvKernel`] — the RV32IM baseline: a plain six-deep loop nest
//!   of byte loads, `mul` and `add`, the best a lightweight scalar core can
//!   do without the CMem.
//!
//! Both load their data deterministically and both are validated against
//! the golden `maicc-nn` convolution in the crate tests.

use crate::mem_map::RowPtr;
use crate::node::{Node, NullPort};
use crate::sched::schedule_program;
use crate::CoreError;
use maicc_isa::asm::Assembler;
use maicc_isa::inst::{BranchKind, Instruction as I, LoadKind, OpImmKind, OpKind, VecWidth};
use maicc_isa::reg::Reg;
use maicc_sram::transpose;

/// Geometry of a single-node convolution workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvWorkload {
    /// Number of filters `M`.
    pub filters: usize,
    /// Filter height `R`.
    pub r: usize,
    /// Filter width `S`.
    pub s: usize,
    /// Channels `C` (≤ 256).
    pub c: usize,
    /// Ifmap height `H`.
    pub h: usize,
    /// Ifmap width `W`.
    pub w: usize,
}

impl ConvWorkload {
    /// The Table-4 workload: five 3×3×256 filters on a 9×9×256 ifmap.
    #[must_use]
    pub fn table4() -> Self {
        ConvWorkload {
            filters: 5,
            r: 3,
            s: 3,
            c: 256,
            h: 9,
            w: 9,
        }
    }

    /// A small workload for fast functional tests.
    #[must_use]
    pub fn tiny() -> Self {
        ConvWorkload {
            filters: 2,
            r: 3,
            s: 3,
            c: 16,
            h: 5,
            w: 5,
        }
    }

    /// Valid-convolution output height.
    #[must_use]
    pub(crate) fn out_h(&self) -> usize {
        self.h - self.r + 1
    }

    /// Valid-convolution output width.
    #[must_use]
    pub(crate) fn out_w(&self) -> usize {
        self.w - self.s + 1
    }

    /// Total multiply-accumulates.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn macs(&self) -> u64 {
        (self.out_h() * self.out_w() * self.filters * self.r * self.s * self.c) as u64
    }

    /// Deterministic synthetic ifmap, `[C, H, W]` flat, values in [-5, 5].
    #[must_use]
    pub fn synthetic_ifmap(&self) -> Vec<i8> {
        (0..self.c * self.h * self.w)
            .map(|i| ((i * 7 + 3) % 11) as i8 - 5)
            .collect()
    }

    /// Deterministic synthetic weights, `[M, C, R, S]` flat, values in [-3, 3].
    #[must_use]
    pub fn synthetic_weights(&self) -> Vec<i8> {
        (0..self.filters * self.c * self.r * self.s)
            .map(|i| ((i * 5 + 1) % 7) as i8 - 3)
            .collect()
    }

    /// Golden convolution (valid padding, i32 accumulation), `[M, OH, OW]`.
    #[must_use]
    pub fn golden(&self, ifmap: &[i8], weights: &[i8]) -> Vec<i32> {
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![0i32; self.filters * oh * ow];
        for m in 0..self.filters {
            for t in 0..oh {
                for u in 0..ow {
                    let mut acc = 0i32;
                    for ch in 0..self.c {
                        for ky in 0..self.r {
                            for kx in 0..self.s {
                                let iv = ifmap[(ch * self.h + t + ky) * self.w + u + kx] as i32;
                                let wv = weights
                                    [((m * self.c + ch) * self.r + ky) * self.s + kx]
                                    as i32;
                                acc += iv * wv;
                            }
                        }
                    }
                    out[(m * oh + t) * ow + u] = acc;
                }
            }
        }
        out
    }
}

/// Placement of one filter vector in the CMem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FilterVec {
    /// Filter index.
    pub filter: usize,
    /// Filter-pixel row `ky`.
    pub ky: usize,
    /// Filter-pixel column `kx`.
    pub kx: usize,
    /// Computing slice (1–7).
    pub slice: u8,
    /// First word-line of the vector.
    pub row: u8,
}

/// The CMem convolution kernel (Algorithm 1).
#[derive(Debug, Clone)]
pub struct CmemConvKernel {
    workload: ConvWorkload,
    width: VecWidth,
    placement: Vec<FilterVec>,
    program: Vec<I>,
    ofmap_base: u32,
    guard_elems: u32,
}


impl CmemConvKernel {
    /// Builds the 8-bit kernel for a workload (the evaluation's precision).
    ///
    /// # Errors
    ///
    /// As for [`Self::with_width`].
    pub fn new(workload: ConvWorkload) -> Result<Self, CoreError> {
        Self::with_width(workload, VecWidth::W8)
    }

    /// Builds the kernel at an explicit precision. A slice holds
    /// `Q = 64/n − 1` vectors of `n`-bit elements (§4.1), so lower
    /// precision fits more filters and each `MAC.C` costs `n²` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::AccessFault`] if the filters exceed the CMem's
    /// `7Q` vector slots, `C > 256`, more than 5 filters (the kernel's
    /// per-filter base registers), or a 2-bit width (too narrow for the
    /// signed synthetic data).
    pub fn with_width(workload: ConvWorkload, width: VecWidth) -> Result<Self, CoreError> {
        let n = width.bits();
        let slots = 7 * (64 / n - 1);
        let vectors = workload.filters * workload.r * workload.s;
        if vectors > slots || workload.c > 256 || workload.filters > 5 || n < 4 {
            return Err(CoreError::AccessFault {
                addr: vectors as u32,
                what: "cmem capacity",
            });
        }
        // round-robin placement: vector v → slice 1 + v%7, slot v/7
        let mut placement = Vec::with_capacity(vectors);
        for v in 0..vectors {
            let filter = v / (workload.r * workload.s);
            let p = v % (workload.r * workload.s);
            placement.push(FilterVec {
                filter,
                ky: p / workload.s,
                kx: p % workload.s,
                slice: 1 + (v % 7) as u8,
                row: (n + n * (v / 7)) as u8,
            });
        }
        // data-memory layout: [guard | ofmap | guard]
        let guard_elems = (workload.r * workload.w + workload.s + 8) as u32;
        let ofmap_base = guard_elems * 4;
        let kernel = CmemConvKernel {
            workload,
            width,
            placement,
            program: Vec::new(),
            ofmap_base,
            guard_elems,
        };
        let program = kernel.emit()?;
        Ok(CmemConvKernel { program, ..kernel })
    }

    /// Filter-vector placement (for inspecting the layout).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn placement(&self) -> &[FilterVec] {
        &self.placement
    }

    /// The program in Algorithm-1 emission order.
    #[must_use]
    pub fn program(&self) -> &[I] {
        &self.program
    }

    /// The statically scheduled program (§3.3's compile-time reordering).
    #[must_use]
    pub fn scheduled_program(&self) -> Vec<I> {
        schedule_program(&self.program)
    }

    /// Data-memory bytes the kernel needs.
    #[must_use]
    pub(crate) fn data_mem_bytes(&self) -> usize {
        let ofmap = self.workload.filters * self.workload.out_h() * self.workload.out_w();
        ((2 * self.guard_elems as usize + ofmap) * 4).max(4096)
    }

    fn emit(&self) -> Result<Vec<I>, CoreError> {
        let w = &self.workload;
        let (oh, ow) = (w.out_h(), w.out_w());
        let mut a = Assembler::new();
        // S0 = x, S1 = y, S2 = ofmap base (bytes), S3 = feeder row pointer,
        // S4 = OW, S5 = W, S6 = H
        a.li32(Reg::S2, self.ofmap_base as i32);
        a.li32(
            Reg::S3,
            RowPtr::Dram { offset: 0 }.pack() as i32,
        );
        a.inst(I::li(Reg::S4, ow as i32));
        a.inst(I::li(Reg::S5, w.w as i32));
        a.inst(I::li(Reg::S6, w.h as i32));
        a.inst(I::li(Reg::S1, 0));
        a.label("y_loop");
        a.inst(I::li(Reg::S0, 0));
        a.label("x_loop");
        // receive the transposed ifmap vector: n rows into slice 0
        for row in 0..self.width.bits() as u8 {
            a.inst(I::LoadRowRC {
                rs1: Reg::S3,
                slice: 0,
                row,
            });
            a.inst(I::addi(Reg::S3, Reg::S3, 32));
        }
        // broadcast to the computing slices that hold filters
        let used: Vec<u8> = {
            let mut s: Vec<u8> = self.placement.iter().map(|p| p.slice).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for &slice in &used {
            a.inst(I::MoveC {
                src_slice: 0,
                src_row: 0,
                dst_slice: slice,
                dst_row: 0,
                width: self.width,
            });
        }
        // per-iteration ofmap base pointers: Bf = base + 4*(f*OH*OW + y*OW + x)
        // held in A1..A5 (one per filter, hence the 5-filter kernel limit)
        let bregs = [Reg::A1, Reg::A2, Reg::A3, Reg::A4, Reg::A5];
        a.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::T0,
            rs1: Reg::S1,
            rs2: Reg::S4,
        });
        a.inst(I::add(Reg::T0, Reg::T0, Reg::S0));
        a.inst(I::OpImm {
            kind: OpImmKind::Slli,
            rd: Reg::T0,
            rs1: Reg::T0,
            imm: 2,
        });
        a.inst(I::add(bregs[0], Reg::T0, Reg::S2));
        let foff = (4 * oh * ow) as i32;
        for f in 1..w.filters {
            if foff < 2048 {
                a.inst(I::addi(bregs[f], bregs[f - 1], foff));
            } else {
                a.li32(Reg::T0, foff);
                a.inst(I::add(bregs[f], bregs[f - 1], Reg::T0));
            }
        }
        // MACs in placement order (round-robin across slices), software
        // pipelined DEPTH deep: each MAC's masked accumulation runs while
        // later MACs occupy the slices — Algorithm 1's "process the ofmap
        // pixels completed in the previous iteration" within one iteration.
        // Results rotate through five registers so accumulates of older
        // MACs never serialize younger ones.
        const DEPTH: usize = 3;
        let rot = [Reg::A0, Reg::A7, Reg::S7, Reg::S8, Reg::S9];
        let emit_acc = |a: &mut Assembler, v: usize, fv: &FilterVec| {
            // valid iff 0 <= y-ky < OH and 0 <= x-kx < OW (unsigned trick)
            a.inst(I::addi(Reg::T1, Reg::S1, -(fv.ky as i32)));
            a.inst(I::OpImm {
                kind: OpImmKind::Sltiu,
                rd: Reg::T3,
                rs1: Reg::T1,
                imm: oh as i32,
            });
            a.inst(I::addi(Reg::T2, Reg::S0, -(fv.kx as i32)));
            a.inst(I::OpImm {
                kind: OpImmKind::Sltiu,
                rd: Reg::T4,
                rs1: Reg::T2,
                imm: ow as i32,
            });
            a.inst(I::Op {
                kind: OpKind::And,
                rd: Reg::T3,
                rs1: Reg::T3,
                rs2: Reg::T4,
            });
            // masked partial sum: margins contribute zero into the guard zone
            a.inst(I::Op {
                kind: OpKind::Mul,
                rd: Reg::T6,
                rs1: rot[v % rot.len()],
                rs2: Reg::T3,
            });
            let imm = -((fv.ky * ow + fv.kx) as i32) * 4;
            debug_assert!(imm > -2048, "window offset exceeds the lw immediate");
            a.inst(I::lw(Reg::T5, bregs[fv.filter], imm));
            a.inst(I::add(Reg::T5, Reg::T5, Reg::T6));
            a.inst(I::sw(Reg::T5, bregs[fv.filter], imm));
        };
        for (v, fv) in self.placement.iter().enumerate() {
            a.inst(I::MacC {
                rd: rot[v % rot.len()],
                slice: fv.slice,
                row_a: 0,
                row_b: fv.row,
                width: self.width,
            });
            if v >= DEPTH {
                emit_acc(&mut a, v - DEPTH, &self.placement[v - DEPTH]);
            }
        }
        let n = self.placement.len();
        for v in n.saturating_sub(DEPTH)..n {
            emit_acc(&mut a, v, &self.placement[v]);
        }
        // advance the pixel loops
        a.inst(I::addi(Reg::S0, Reg::S0, 1));
        a.branch(BranchKind::Bge, Reg::S0, Reg::S5, "x_done");
        a.jump("x_loop");
        a.label("x_done");
        a.inst(I::addi(Reg::S1, Reg::S1, 1));
        a.branch(BranchKind::Bge, Reg::S1, Reg::S6, "y_done");
        a.jump("y_loop");
        a.label("y_done");
        a.inst(I::Ebreak);
        a.assemble().map_err(|_| CoreError::AccessFault {
            addr: 0,
            what: "assemble",
        })
    }

    /// Prepares a node: loads filter vectors (transposed, two's complement)
    /// into the computing slices and builds the feeder port holding every
    /// transposed ifmap vector in pixel order.
    ///
    /// # Errors
    ///
    /// Propagates CMem range errors.
    pub fn prepare(
        &self,
        ifmap: &[i8],
        weights: &[i8],
        port_latency: u32,
    ) -> Result<Node, CoreError> {
        let w = &self.workload;
        assert_eq!(ifmap.len(), w.c * w.h * w.w, "ifmap size mismatch");
        assert_eq!(
            weights.len(),
            w.filters * w.c * w.r * w.s,
            "weights size mismatch"
        );
        let n = self.width.bits();
        let mut port = NullPort::with_latency(port_latency);
        // feeder rows: pixel (y, x) → n transposed rows at offset 32·n·p;
        // the transpose keeps the low n bits of each sign-extended value
        for y in 0..w.h {
            for x in 0..w.w {
                let p = y * w.w + x;
                let vec: Vec<u16> = (0..w.c)
                    .map(|ch| ifmap[(ch * w.h + y) * w.w + x] as i16 as u16)
                    .collect();
                for (i, plane) in transpose::pack_words(&vec, n, 256).into_iter().enumerate() {
                    port.preload_row(
                        RowPtr::Dram {
                            offset: (p * n * 32 + i * 32) as u32,
                        },
                        plane,
                    );
                }
            }
        }
        let program = self.program.clone();
        let mut node = Node::with_data_mem(program, port, self.data_mem_bytes());
        self.load_filters(&mut node, weights)?;
        Ok(node)
    }

    /// Loads the filter vectors into a node's CMem.
    ///
    /// # Errors
    ///
    /// Propagates CMem range errors.
    pub(crate) fn load_filters(&self, node: &mut Node, weights: &[i8]) -> Result<(), CoreError> {
        let w = &self.workload;
        let n = self.width.bits();
        for fv in &self.placement {
            let vec: Vec<u16> = (0..w.c)
                .map(|ch| {
                    weights[((fv.filter * w.c + ch) * w.r + fv.ky) * w.s + fv.kx] as i16 as u16
                })
                .collect();
            node.cmem_mut()
                .slice_mut(fv.slice as usize)?
                .write_vector(fv.row as usize, &vec, n)?;
        }
        Ok(())
    }

    /// Rebuilds this kernel with a different (semantically equivalent)
    /// program, e.g. the statically scheduled one.
    #[must_use]
    pub fn with_program(&self, program: Vec<I>) -> CmemConvKernel {
        CmemConvKernel {
            program,
            ..self.clone()
        }
    }

    /// Reads the accumulated ofmap (`[M, OH, OW]` as i32) from a halted node.
    ///
    /// # Errors
    ///
    /// Propagates local-memory range errors.
    pub fn read_ofmap(&self, node: &Node) -> Result<Vec<i32>, CoreError> {
        let w = &self.workload;
        let n = w.filters * w.out_h() * w.out_w();
        (0..n)
            .map(|i| {
                node.read_local(self.ofmap_base + (i * 4) as u32, 4)
                    .map(|v| v as i32)
            })
            .collect()
    }
}

/// The scalar RV32IM baseline kernel.
#[derive(Debug, Clone)]
pub struct ScalarConvKernel {
    workload: ConvWorkload,
    program: Vec<I>,
    ifmap_base: u32,
    weights_base: u32,
    ofmap_base: u32,
    mem_bytes: usize,
}

impl ScalarConvKernel {
    /// Builds the scalar kernel. The baseline node maps its whole SRAM as
    /// plain data memory (it has no CMem), so ifmap, weights and ofmap all
    /// live locally.
    #[must_use]
    pub fn new(workload: ConvWorkload) -> Self {
        let ifmap_bytes = workload.c * workload.h * workload.w;
        let weight_bytes = workload.filters * workload.c * workload.r * workload.s;
        let ofmap_bytes = workload.filters * workload.out_h() * workload.out_w() * 4;
        let ifmap_base = 0u32;
        let weights_base = ifmap_bytes as u32;
        let ofmap_base = (ifmap_bytes + weight_bytes).next_multiple_of(4) as u32;
        let mem_bytes = (ofmap_base as usize + ofmap_bytes).next_multiple_of(4096);
        let mut k = ScalarConvKernel {
            workload,
            program: Vec::new(),
            ifmap_base,
            weights_base,
            ofmap_base,
            mem_bytes,
        };
        k.program = k.emit();
        k
    }

    fn emit(&self) -> Vec<I> {
        let w = &self.workload;
        let (oh, ow) = (w.out_h(), w.out_w());
        let mut a = Assembler::new();
        // S0=m S1=oy S2=ox S3=acc S4=ky S5=kx S6=c counter
        // A0=ifmap ptr A1=weight ptr A2=ofmap ptr T*=temps
        a.li32(Reg::A2, self.ofmap_base as i32);
        a.inst(I::li(Reg::S0, 0));
        a.label("m_loop");
        a.inst(I::li(Reg::S1, 0));
        a.label("oy_loop");
        a.inst(I::li(Reg::S2, 0));
        a.label("ox_loop");
        a.inst(I::li(Reg::S3, 0)); // acc = 0
        a.inst(I::li(Reg::S4, 0));
        a.label("ky_loop");
        a.inst(I::li(Reg::S5, 0));
        a.label("kx_loop");
        // ifmap ptr = base + ((oy+ky)*W + ox+kx)   (channel 0)
        a.inst(I::add(Reg::T0, Reg::S1, Reg::S4));
        a.inst(I::li(Reg::T1, w.w as i32));
        a.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::T0,
            rs1: Reg::T0,
            rs2: Reg::T1,
        });
        a.inst(I::add(Reg::T0, Reg::T0, Reg::S2));
        a.inst(I::add(Reg::T0, Reg::T0, Reg::S5));
        a.li32(Reg::T1, self.ifmap_base as i32);
        a.inst(I::add(Reg::A0, Reg::T0, Reg::T1));
        // weight ptr = base + ((m*C)*R + ky)*S + kx   (channel 0)
        a.inst(I::li(Reg::T1, (w.c * w.r * w.s) as i32));
        a.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::T0,
            rs1: Reg::S0,
            rs2: Reg::T1,
        });
        a.inst(I::li(Reg::T1, w.s as i32));
        a.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::T2,
            rs1: Reg::S4,
            rs2: Reg::T1,
        });
        a.inst(I::add(Reg::T0, Reg::T0, Reg::T2));
        a.inst(I::add(Reg::T0, Reg::T0, Reg::S5));
        a.li32(Reg::T1, self.weights_base as i32);
        a.inst(I::add(Reg::A1, Reg::T0, Reg::T1));
        // channel loop: acc += ifmap[c] * weight[c]
        a.inst(I::li(Reg::S6, w.c as i32));
        a.label("c_loop");
        a.inst(I::Load {
            kind: LoadKind::Lb,
            rd: Reg::T0,
            rs1: Reg::A0,
            offset: 0,
        });
        a.inst(I::Load {
            kind: LoadKind::Lb,
            rd: Reg::T1,
            rs1: Reg::A1,
            offset: 0,
        });
        a.inst(I::Op {
            kind: OpKind::Mul,
            rd: Reg::T2,
            rs1: Reg::T0,
            rs2: Reg::T1,
        });
        a.inst(I::add(Reg::S3, Reg::S3, Reg::T2));
        a.inst(I::addi(Reg::A0, Reg::A0, (w.h * w.w) as i32));
        a.inst(I::addi(Reg::A1, Reg::A1, (w.r * w.s) as i32));
        a.inst(I::addi(Reg::S6, Reg::S6, -1));
        a.branch(BranchKind::Bne, Reg::S6, Reg::Zero, "c_loop");
        // kx / ky advance
        a.inst(I::addi(Reg::S5, Reg::S5, 1));
        a.inst(I::li(Reg::T0, w.s as i32));
        a.branch(BranchKind::Blt, Reg::S5, Reg::T0, "kx_loop");
        a.inst(I::addi(Reg::S4, Reg::S4, 1));
        a.inst(I::li(Reg::T0, w.r as i32));
        a.branch(BranchKind::Blt, Reg::S4, Reg::T0, "ky_loop");
        // store ofmap[m][oy][ox]
        a.inst(I::sw(Reg::S3, Reg::A2, 0));
        a.inst(I::addi(Reg::A2, Reg::A2, 4));
        // ox / oy / m advance
        a.inst(I::addi(Reg::S2, Reg::S2, 1));
        a.inst(I::li(Reg::T0, ow as i32));
        a.branch(BranchKind::Blt, Reg::S2, Reg::T0, "ox_loop");
        a.inst(I::addi(Reg::S1, Reg::S1, 1));
        a.inst(I::li(Reg::T0, oh as i32));
        a.branch(BranchKind::Blt, Reg::S1, Reg::T0, "oy_loop");
        a.inst(I::addi(Reg::S0, Reg::S0, 1));
        a.inst(I::li(Reg::T0, w.filters as i32));
        a.branch(BranchKind::Blt, Reg::S0, Reg::T0, "m_loop");
        a.inst(I::Ebreak);
        a.assemble().expect("scalar kernel assembles")
    }

    /// Creates the baseline node with ifmap and weights resident in its
    /// (enlarged) local memory.
    ///
    /// # Errors
    ///
    /// Propagates local-memory write errors.
    pub fn prepare(&self, ifmap: &[i8], weights: &[i8]) -> Result<Node, CoreError> {
        let mut node =
            Node::with_data_mem(self.program.clone(), NullPort::default(), self.mem_bytes);
        for (i, &b) in ifmap.iter().enumerate() {
            node.write_local(self.ifmap_base + i as u32, b as u8 as u32, 1)?;
        }
        for (i, &b) in weights.iter().enumerate() {
            node.write_local(self.weights_base + i as u32, b as u8 as u32, 1)?;
        }
        Ok(node)
    }

    /// Reads the ofmap back from a halted node.
    ///
    /// # Errors
    ///
    /// Propagates local-memory range errors.
    pub fn read_ofmap(&self, node: &Node) -> Result<Vec<i32>, CoreError> {
        let w = &self.workload;
        let n = w.filters * w.out_h() * w.out_w();
        (0..n)
            .map(|i| {
                node.read_local(self.ofmap_base + (i * 4) as u32, 4)
                    .map(|v| v as i32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, Timing};

    #[test]
    fn cmem_kernel_matches_golden_conv() {
        let wl = ConvWorkload::tiny();
        let kernel = CmemConvKernel::new(wl).unwrap();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let mut node = kernel.prepare(&ifmap, &weights, 4).unwrap();
        node.run(10_000_000).unwrap();
        assert_eq!(
            kernel.read_ofmap(&node).unwrap(),
            wl.golden(&ifmap, &weights)
        );
    }

    #[test]
    fn scheduled_program_same_results() {
        let wl = ConvWorkload::tiny();
        let kernel = CmemConvKernel::new(wl).unwrap();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();

        let mut base = kernel.prepare(&ifmap, &weights, 4).unwrap();
        base.run(10_000_000).unwrap();

        let mut alt = CmemConvKernel::new(wl).unwrap();
        alt.program = kernel.scheduled_program();
        let mut node = alt.prepare(&ifmap, &weights, 4).unwrap();
        node.run(10_000_000).unwrap();

        assert_eq!(
            kernel.read_ofmap(&base).unwrap(),
            alt.read_ofmap(&node).unwrap()
        );
    }

    #[test]
    fn scheduled_program_is_faster() {
        let wl = ConvWorkload::tiny();
        let kernel = CmemConvKernel::new(wl).unwrap();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();

        let time = |prog: Vec<I>| {
            let mut alt = CmemConvKernel::new(wl).unwrap();
            alt.program = prog;
            let mut node = alt.prepare(&ifmap, &weights, 4).unwrap();
            let mut t = Timing::new(PipelineConfig::default());
            node.run_with(10_000_000, |e| t.on_retire(e)).unwrap();
            t.finish().total_cycles
        };
        let naive = time(kernel.program().to_vec());
        let sched = time(kernel.scheduled_program());
        assert!(sched < naive, "scheduled {sched} >= naive {naive}");
    }

    #[test]
    fn scalar_kernel_matches_golden_conv() {
        let wl = ConvWorkload::tiny();
        let kernel = ScalarConvKernel::new(wl);
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let mut node = kernel.prepare(&ifmap, &weights).unwrap();
        node.run(50_000_000).unwrap();
        assert_eq!(
            kernel.read_ofmap(&node).unwrap(),
            wl.golden(&ifmap, &weights)
        );
    }

    #[test]
    fn scalar_is_much_slower_than_cmem() {
        // the CMem advantage needs full 256-wide vectors; a narrow channel
        // count wastes most of each MAC's bit-lines
        let wl = ConvWorkload {
            filters: 2,
            r: 3,
            s: 3,
            c: 256,
            h: 5,
            w: 5,
        };
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();

        let ck = CmemConvKernel::new(wl).unwrap();
        let mut cn = ck.prepare(&ifmap, &weights, 4).unwrap();
        let mut ct = Timing::new(PipelineConfig::default());
        cn.run_with(10_000_000, |e| ct.on_retire(e)).unwrap();
        let cmem_cycles = ct.finish().total_cycles;

        let sk = ScalarConvKernel::new(wl);
        let mut sn = sk.prepare(&ifmap, &weights).unwrap();
        let mut st = Timing::new(PipelineConfig::default());
        sn.run_with(50_000_000, |e| st.on_retire(e)).unwrap();
        let scalar_cycles = st.finish().total_cycles;

        assert!(
            scalar_cycles > 3 * cmem_cycles,
            "scalar {scalar_cycles} vs cmem {cmem_cycles}"
        );
    }

    #[test]
    fn table4_capacity_is_exactly_45_vectors() {
        let k = CmemConvKernel::new(ConvWorkload::table4()).unwrap();
        assert_eq!(k.placement().len(), 45);
        // five filters of nine vectors, spread over slices 1..=7
        let max_row = k.placement().iter().map(|p| p.row).max().unwrap();
        assert!(max_row + 8 <= 64, "placement fits the 64-row slices");
    }

    #[test]
    fn four_bit_kernel_matches_golden() {
        // lower precision: Q = 15 slots per slice, MAC.C in 16 cycles
        let wl = ConvWorkload::tiny();
        let kernel = CmemConvKernel::with_width(wl, VecWidth::W4).unwrap();
        let ifmap = wl.synthetic_ifmap(); // values in [-5, 5] fit 4 bits
        let weights = wl.synthetic_weights(); // [-3, 3]
        let mut node = kernel.prepare(&ifmap, &weights, 4).unwrap();
        node.run(10_000_000).unwrap();
        assert_eq!(
            kernel.read_ofmap(&node).unwrap(),
            wl.golden(&ifmap, &weights)
        );
    }

    #[test]
    fn sixteen_bit_kernel_matches_golden() {
        // higher precision: Q = 3 slots per slice, MAC.C in 256 cycles
        let wl = ConvWorkload::tiny(); // 18 vectors ≤ 21 slots
        let kernel = CmemConvKernel::with_width(wl, VecWidth::W16).unwrap();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let mut node = kernel.prepare(&ifmap, &weights, 4).unwrap();
        node.run(20_000_000).unwrap();
        assert_eq!(
            kernel.read_ofmap(&node).unwrap(),
            wl.golden(&ifmap, &weights)
        );
    }

    #[test]
    fn lower_precision_is_faster() {
        use crate::pipeline::{PipelineConfig, Timing};
        let wl = ConvWorkload::tiny();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let time = |width| {
            let kernel = CmemConvKernel::with_width(wl, width).unwrap();
            let sched = kernel.with_program(kernel.scheduled_program());
            let mut node = sched.prepare(&ifmap, &weights, 4).unwrap();
            let mut t = Timing::new(PipelineConfig::default());
            node.run_with(20_000_000, |e| t.on_retire(e)).unwrap();
            t.finish().total_cycles
        };
        let w4 = time(VecWidth::W4);
        let w8 = time(VecWidth::W8);
        let w16 = time(VecWidth::W16);
        assert!(w4 < w8, "4-bit {w4} vs 8-bit {w8}");
        assert!(w8 < w16, "8-bit {w8} vs 16-bit {w16}");
    }

    #[test]
    fn two_bit_width_rejected() {
        assert!(CmemConvKernel::with_width(ConvWorkload::tiny(), VecWidth::W2).is_err());
    }

    #[test]
    fn sixteen_bit_capacity_is_tighter() {
        // table4's 45 vectors exceed the 21 sixteen-bit slots
        assert!(CmemConvKernel::with_width(ConvWorkload::table4(), VecWidth::W16).is_err());
        assert!(CmemConvKernel::with_width(ConvWorkload::table4(), VecWidth::W8).is_ok());
    }

    #[test]
    fn oversized_workload_rejected() {
        let too_big = ConvWorkload {
            filters: 6,
            ..ConvWorkload::table4()
        };
        assert!(CmemConvKernel::new(too_big).is_err());
    }

    #[test]
    fn workload_macs_formula() {
        let wl = ConvWorkload::table4();
        assert_eq!(wl.macs(), 7 * 7 * 5 * 3 * 3 * 256);
        assert_eq!(wl.out_h(), 7);
    }
}

#[cfg(test)]
mod table4_smoke {
    use super::*;
    use crate::pipeline::{PipelineConfig, Timing, TimingReport};

    /// A Table-4 kernel replay: the instruction counts are fixed by the
    /// program, so only the cycles and stalls vary across Table 5's cells.
    fn cmem_report(total: u64, queue: u64, raw: u64, wb: u64) -> TimingReport {
        TimingReport {
            total_cycles: total,
            instructions: 39_237,
            cmem_instructions: 4_860,
            queue_stall_cycles: queue,
            raw_stall_cycles: raw,
            wb_conflict_cycles: wb,
            branch_flush_cycles: 180,
        }
    }

    /// Full Table-4 workload under every Table-5 cell, emission order and
    /// statically scheduled, pinned to the whole report.
    #[test]
    fn table4_cycle_bands() {
        let wl = ConvWorkload::table4();
        let ifmap = wl.synthetic_ifmap();
        let weights = wl.synthetic_weights();
        let kernel = CmemConvKernel::new(wl).unwrap();

        let time = |prog: Vec<I>, cfg: PipelineConfig| {
            let alt = kernel.with_program(prog);
            let mut node = alt.prepare(&ifmap, &weights, 4).unwrap();
            let mut t = Timing::new(cfg);
            node.run_with(100_000_000, |e| t.on_retire(e)).unwrap();
            let out = alt.read_ofmap(&node).unwrap();
            assert_eq!(out, wl.golden(&ifmap, &weights), "functional mismatch");
            t.finish()
        };
        // (queue, WB ports) → (cycles, queue, raw, wb stalls) for the
        // program and for the scheduled program
        #[rustfmt::skip]
        let cells = [
            ((0, 1), (75_705, 5_346, 30_942, 567), (60_720, 4_536, 16_767, 19_845)),
            ((1, 1), (75_057, 4_698, 30_942, 567), (60_720, 4_455, 16_848, 19_845)),
            ((2, 1), (74_895, 4_374, 31_104, 567), (60_720, 3_888, 17_415, 19_845)),
            ((4, 1), (74_895, 4_212, 31_266, 567), (60_720, 3_321, 17_982, 19_845)),
            ((0, 2), (75_543, 5_346, 30_780, 0), (60_072, 4_617, 16_038, 0)),
            ((1, 2), (74_895, 4_698, 30_780, 0), (60_072, 4_455, 16_200, 0)),
            ((2, 2), (74_733, 4_374, 30_942, 0), (60_072, 3_888, 16_767, 0)),
            ((4, 2), (74_733, 4_212, 31_104, 0), (60_072, 3_321, 17_334, 0)),
        ];
        for ((q, p), naive, sched) in cells {
            let cfg = PipelineConfig {
                cmem_queue: q,
                wb_ports: p,
                ..PipelineConfig::default()
            };
            assert_eq!(
                time(kernel.program().to_vec(), cfg),
                cmem_report(naive.0, naive.1, naive.2, naive.3),
                "queue {q}, {p} WB"
            );
            assert_eq!(
                time(kernel.scheduled_program(), cfg),
                cmem_report(sched.0, sched.1, sched.2, sched.3),
                "queue {q}, {p} WB, scheduled"
            );
        }
    }
}

#[cfg(test)]
mod table4_scalar_smoke {
    use super::*;
    use crate::pipeline::{PipelineConfig, Timing, TimingReport};

    /// The Table-4 scalar baseline, pinned to the whole report.
    #[test]
    fn table4_scalar_cycles() {
        let wl = ConvWorkload::table4();
        let k = ScalarConvKernel::new(wl);
        let mut node = k
            .prepare(&wl.synthetic_ifmap(), &wl.synthetic_weights())
            .unwrap();
        let mut t = Timing::new(PipelineConfig::default());
        node.run_with(200_000_000, |e| t.on_retire(e)).unwrap();
        assert_eq!(
            k.read_ofmap(&node).unwrap(),
            wl.golden(&wl.synthetic_ifmap(), &wl.synthetic_weights())
        );
        assert_eq!(
            t.finish(),
            TimingReport {
                total_cycles: 6_831_497,
                instructions: 4_564_759,
                cmem_instructions: 0,
                queue_stall_cycles: 0,
                raw_stall_cycles: 1_137_780,
                wb_conflict_cycles: 0,
                branch_flush_cycles: 1_128_958,
            }
        );
    }
}
