//! Compile-time instruction reordering — the paper's *static scheduling*.
//!
//! "After compilation, the latency and data dependency of each CMem
//! instruction is determined. Therefore, we can potentially fill the delay
//! slots of CMem instructions by inserting data-independent instructions"
//! (§3.3). This module implements that as classic **list scheduling** over
//! basic blocks: build the dependence DAG, rank by critical path, and emit
//! ready instructions longest-path-first so multi-cycle CMem operations
//! issue early and independent ALU work fills their shadows.
//!
//! Reordering never crosses basic-block boundaries and control transfers
//! stay at block ends, so branch displacements remain valid (blocks keep
//! their sizes and leaders their addresses).

use maicc_isa::inst::Instruction;

/// Whether two instructions must stay ordered (`a` before `b`, given `a`
/// precedes `b` in program order).
///
/// Ordinary memory ops are ordered among themselves (loads may pass
/// loads), and CMem ops among themselves when they share a slice, but an
/// ordinary memory op and a CMem op are left unordered. That relies on a
/// contract the generated kernels keep: they never write slice 0, the
/// byte-addressable slice, with ordinary stores, so ordinary memory and
/// the rows the CMem ops touch never alias.
fn depends(a: &Instruction, b: &Instruction) -> bool {
    // full barriers
    let barrier = |i: &Instruction| {
        matches!(
            i,
            Instruction::Fence | Instruction::Ecall | Instruction::Ebreak
        ) || i.is_control()
    };
    if barrier(a) || barrier(b) {
        return true;
    }
    // register dependences
    if let Some(d) = a.def() {
        if b.uses().any(|r| r == d) || b.def() == Some(d) {
            return true; // RAW or WAW
        }
    }
    if let Some(d) = b.def() {
        if a.uses().any(|r| r == d) {
            return true; // WAR
        }
    }
    // memory dependences: conservative unless both are loads
    let is_load = |i: &Instruction| matches!(i, Instruction::Load { .. });
    if a.is_mem() && b.is_mem() && !(is_load(a) && is_load(b)) {
        return true;
    }
    // CMem structural/data dependences: a shared slice ⇒ ordered (row-level
    // RAW/WAW cannot be tracked per-row without value analysis)
    a.is_cmem() && b.is_cmem() && a.cmem_slices().any(|s| b.cmem_slices().any(|u| u == s))
}

/// Schedules one basic block (no internal control flow). The relative order
/// of dependent instructions is preserved; independent instructions are
/// emitted critical-path-first.
#[must_use]
pub(crate) fn schedule_block(block: &[Instruction]) -> Vec<Instruction> {
    let n = block.len();
    if n <= 2 {
        return block.to_vec();
    }
    // dependence edges i -> j (i must precede j)
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if depends(&block[i], &block[j]) {
                succs[i].push(j);
                pred_count[j] += 1;
            }
        }
    }
    // critical-path priority (latency-weighted longest path to a sink)
    let mut prio = vec![0u64; n];
    for i in (0..n).rev() {
        let tail = succs[i]
            .iter()
            .map(|&j| prio[j])
            .max()
            .unwrap_or(0);
        prio[i] = u64::from(block[i].exec_cycles()) + tail;
    }
    // list scheduling: among ready nodes pick max priority, tie-break on
    // original order for determinism
    let mut ready: Vec<usize> = (0..n).filter(|&i| pred_count[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(pos) = ready
        .iter()
        .enumerate()
        .max_by_key(|&(_, &i)| (prio[i], std::cmp::Reverse(i)))
        .map(|(p, _)| p)
    {
        let i = ready.swap_remove(pos);
        out.push(block[i]);
        for &j in &succs[i] {
            pred_count[j] -= 1;
            if pred_count[j] == 0 {
                ready.push(j);
            }
        }
    }
    debug_assert_eq!(out.len(), n, "dependence graph must be acyclic");
    out
}

/// Schedules a whole program by splitting it into basic blocks at control
/// instructions and branch targets, scheduling each block independently.
#[must_use]
pub(crate) fn schedule_program(program: &[Instruction]) -> Vec<Instruction> {
    let n = program.len();
    // leaders: block entry points — successors of control transfers and
    // every branch/jump target
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for (i, inst) in program.iter().enumerate() {
        match *inst {
            Instruction::Jal { offset, .. } => {
                let t = (i as i64 + offset as i64 / 4) as usize;
                if t < n {
                    leader[t] = true;
                }
                if i + 1 < n {
                    leader[i + 1] = true;
                }
            }
            Instruction::Branch { offset, .. } => {
                let t = (i as i64 + offset as i64 / 4) as usize;
                if t < n {
                    leader[t] = true;
                }
                if i + 1 < n {
                    leader[i + 1] = true;
                }
            }
            Instruction::Jalr { .. } if i + 1 < n => {
                leader[i + 1] = true;
            }
            _ => {}
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..=n {
        let boundary = i == n || (i > start && leader[i]);
        if boundary {
            // the block may end with a control instruction; keep it last
            let block = &program[start..i];
            if let Some((last, body)) = block.split_last() {
                if last.is_control()
                    || matches!(
                        last,
                        Instruction::Ebreak | Instruction::Ecall | Instruction::Fence
                    )
                {
                    out.extend(schedule_block(body));
                    out.push(*last);
                } else {
                    out.extend(schedule_block(block));
                }
            }
            start = i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NullPort};
    use crate::pipeline::{PipelineConfig, Timing};
    use maicc_isa::inst::{BranchKind, Instruction as I, VecWidth};
    use maicc_isa::reg::Reg;

    fn mac(rd: Reg, slice: u8) -> I {
        I::MacC {
            rd,
            slice,
            row_a: 0,
            row_b: 8,
            width: VecWidth::W8,
        }
    }

    #[test]
    fn preserves_instruction_multiset() {
        let block = vec![
            mac(Reg::A0, 1),
            I::add(Reg::A1, Reg::A0, Reg::A0),
            I::li(Reg::A2, 5),
            I::li(Reg::A3, 6),
            mac(Reg::A4, 2),
        ];
        let sched = schedule_block(&block);
        assert_eq!(sched.len(), block.len());
        for i in &block {
            assert!(sched.contains(i));
        }
    }

    #[test]
    fn raw_order_preserved() {
        let block = vec![mac(Reg::A0, 1), I::add(Reg::A1, Reg::A0, Reg::A0)];
        let sched = schedule_block(&block);
        let mac_pos = sched.iter().position(|i| i.is_cmem()).unwrap();
        let add_pos = sched
            .iter()
            .position(|i| matches!(i, I::Op { .. }))
            .unwrap();
        assert!(mac_pos < add_pos);
    }

    #[test]
    fn hoists_independent_mac_above_alu_chain() {
        // ALU chain first, independent MAC last → scheduler should lift the
        // MAC to the front (longest critical path).
        let block = vec![
            I::li(Reg::A1, 1),
            I::add(Reg::A2, Reg::A1, Reg::A1),
            I::add(Reg::A3, Reg::A2, Reg::A2),
            mac(Reg::A0, 1),
        ];
        let sched = schedule_block(&block);
        assert!(sched[0].is_cmem(), "{sched:?}");
    }

    #[test]
    fn stores_stay_ordered() {
        let block = vec![
            I::sw(Reg::A0, Reg::Sp, 0),
            I::sw(Reg::A1, Reg::Sp, 0),
        ];
        assert_eq!(schedule_block(&block), block);
    }

    #[test]
    fn loads_may_pass_loads_but_not_stores() {
        let block = vec![
            I::sw(Reg::A0, Reg::Sp, 0),
            I::lw(Reg::A1, Reg::Sp, 4),
        ];
        // the load must not move above the store
        assert_eq!(schedule_block(&block), block);
    }

    #[test]
    fn same_slice_cmem_ops_stay_ordered() {
        let block = vec![
            I::MoveC {
                src_slice: 0,
                src_row: 0,
                dst_slice: 1,
                dst_row: 0,
                width: VecWidth::W8,
            },
            mac(Reg::A0, 1),
        ];
        assert_eq!(schedule_block(&block), block);
    }

    #[test]
    fn control_instruction_stays_at_block_end() {
        let prog = vec![
            I::li(Reg::A0, 3),
            mac(Reg::A1, 1),
            I::Branch {
                kind: BranchKind::Bne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -8,
            },
            I::Ebreak,
        ];
        let sched = schedule_program(&prog);
        assert!(matches!(sched[2], I::Branch { .. }));
        assert!(matches!(sched[3], I::Ebreak));
    }

    #[test]
    fn scheduling_preserves_semantics_and_helps_timing() {
        // dependent accumulation after each MAC, three slices — scheduler
        // should interleave and reduce cycles while results stay identical
        let mut prog = Vec::new();
        prog.push(I::li(Reg::S0, 0));
        for s in 1..=3u8 {
            prog.push(mac(Reg::A0, s));
            prog.push(I::add(Reg::S0, Reg::S0, Reg::A0));
        }
        prog.push(I::Ebreak);
        let sched = schedule_program(&prog);
        assert_eq!(sched.len(), prog.len());

        let run = |p: Vec<I>| {
            let mut node = Node::new(p, NullPort::default());
            for s in 1..=3 {
                node.cmem_mut().write_vector_i8(s, 0, &[1i8; 256]).unwrap();
                node.cmem_mut()
                    .write_vector_i8(s, 8, &[s as i8; 256])
                    .unwrap();
            }
            let trace = node.run(10_000).unwrap();
            let cycles = Timing::new(PipelineConfig::default())
                .replay(&trace)
                .total_cycles;
            (node.reg(Reg::S0), cycles)
        };
        let (v1, c1) = run(prog);
        let (v2, c2) = run(sched);
        assert_eq!(v1, v2, "scheduling must not change results");
        assert_eq!(v1, 256 * (1 + 2 + 3));
        assert!(c2 <= c1, "scheduled {c2} vs original {c1}");
    }
}
