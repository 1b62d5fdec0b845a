//! Cycle-accurate timing model of the five-stage MAICC pipeline.
//!
//! The core is **in-order issue, out-of-order completion** (§3.1): a
//! scoreboard lets multi-cycle instructions (`idiv`, remote requests, CMem
//! extension ops) complete out of order without blocking younger,
//! independent instructions. The structures Table 5 sweeps are modelled
//! explicitly:
//!
//! * the **CMem issue queue** — a small FIFO in front of the CMem
//!   (§3.3). A CMem instruction whose target slice is busy parks in the
//!   queue; only when the queue is full does the ID stage stall. Depth 0
//!   means no queue: ID blocks until the slice is free.
//! * **register-file write ports** — completions compete for 1 or 2 WB
//!   slots per cycle.
//! * the **per-slice busy time** of the CMem: a `MAC.C` occupies its slice
//!   for `n²` cycles, a `Move.C` both slices for `n` cycles (Table 2).
//!
//! The model replays a retired-instruction trace from [`crate::node`]; the
//! same trace under different [`PipelineConfig`]s regenerates Table 5.

use crate::node::{Trace, TraceEntry};
use maicc_isa::inst::{Instruction, OpKind};
use serde::{Deserialize, Serialize};

/// Structural parameters of the pipeline (the Table-5 knobs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// CMem issue-queue depth (0, 1, 2, 4 in the paper's sweep).
    pub cmem_queue: usize,
    /// Register-file write-back ports (1 or 2 in the paper; at least 1).
    pub wb_ports: usize,
    /// Cycles lost on a taken branch (branches resolve in EX).
    pub branch_penalty: u32,
    /// Core clock in GHz (the paper's conservative 1 GHz).
    pub frequency_ghz: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cmem_queue: 2,
            wb_ports: 2,
            branch_penalty: 2,
            frequency_ghz: 1.0,
        }
    }
}

/// Cycle counts and stall attribution from one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Total cycles from first issue to last completion.
    pub total_cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// CMem extension instructions retired.
    pub cmem_instructions: u64,
    /// Cycles ID stalled waiting for a CMem queue slot / free slice.
    pub queue_stall_cycles: u64,
    /// Cycles issue waited on operand (RAW) hazards.
    pub raw_stall_cycles: u64,
    /// Extra cycles completions waited for a free write-back port.
    pub wb_conflict_cycles: u64,
    /// Cycles lost to taken-branch redirects.
    pub branch_flush_cycles: u64,
}

impl TimingReport {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles as f64
        }
    }
}

impl std::fmt::Display for TimingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles for {} instructions (IPC {:.2}; {} CMem ops; stalls: \
             queue {}, raw {}, wb {}, flush {})",
            self.total_cycles,
            self.instructions,
            self.ipc(),
            self.cmem_instructions,
            self.queue_stall_cycles,
            self.raw_stall_cycles,
            self.wb_conflict_cycles,
            self.branch_flush_cycles
        )
    }
}

/// Write-back port use per cycle, exact for every cycle that can still
/// be claimed.
///
/// Each claim lands at or after the claiming instruction's completion,
/// which is after its issue cycle `t`, and `t` never decreases, so no
/// cycle below the current `t` is claimed again. The window is a
/// power-of-two ring of `(cycle, used)` slots that keeps each cycle of
/// `t..t + len` in a slot of its own: a slot tagged with another cycle is
/// one the pipeline has left behind, and counts as free. A claim one ring
/// length or more ahead of `t` first doubles the ring, so memory is
/// bounded by the furthest-ahead write-back, not by the trace length.
#[derive(Debug)]
struct WbWindow {
    /// `(cycle, ports used)`; cycle 0 never holds a write-back, so a
    /// zeroed slot is free.
    slots: Vec<(u64, usize)>,
}

impl WbWindow {
    fn new() -> Self {
        WbWindow {
            slots: vec![(0, 0); 64],
        }
    }

    /// Claims the first cycle at or after `earliest` with fewer than
    /// `ports` write-backs, given that no instruction issues before `t`.
    fn claim(&mut self, earliest: u64, t: u64, ports: usize) -> u64 {
        let mut c = earliest;
        loop {
            if c - t >= self.slots.len() as u64 {
                self.grow(c, t);
            }
            let mask = self.slots.len() - 1;
            let slot = &mut self.slots[c as usize & mask];
            if slot.0 != c {
                *slot = (c, 0);
            }
            if slot.1 < ports {
                slot.1 += 1;
                return c;
            }
            c += 1;
        }
    }

    /// Doubles the ring until `t..=c` fits and re-places the slots still
    /// at or after `t`.
    fn grow(&mut self, c: u64, t: u64) {
        let mut len = self.slots.len() * 2;
        while c - t >= len as u64 {
            len *= 2;
        }
        let mut slots = vec![(0, 0); len];
        for &(cycle, used) in &self.slots {
            if cycle >= t && used > 0 {
                slots[cycle as usize & (len - 1)] = (cycle, used);
            }
        }
        self.slots = slots;
    }
}

/// The replaying timing model. Feed it retired instructions in order via
/// [`Timing::on_retire`], then read [`Timing::finish`].
#[derive(Debug)]
pub struct Timing {
    cfg: PipelineConfig,
    /// Cycle at which the next instruction may issue.
    next_issue: u64,
    /// Cycle each register's value becomes readable.
    reg_ready: [u64; 32],
    /// Per-slice CMem busy horizon.
    slice_busy: [u64; 8],
    /// Dispatch times of CMem instructions currently parked in the queue.
    queue: Vec<u64>,
    /// FIFO order: a CMem op cannot dispatch before its predecessor.
    last_cmem_dispatch: u64,
    /// The (unpipelined) divider's busy horizon.
    div_busy: u64,
    /// WB-port usage per cycle.
    wb_used: WbWindow,
    /// Latest completion seen.
    horizon: u64,
    report: TimingReport,
}

impl Timing {
    /// Creates a timing model with the given configuration.
    ///
    /// # Panics
    ///
    /// If `cfg.wb_ports` is 0: no instruction could ever write back.
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(
            cfg.wb_ports > 0,
            "PipelineConfig::wb_ports must be at least 1"
        );
        Timing {
            cfg,
            next_issue: 0,
            reg_ready: [0; 32],
            slice_busy: [0; 8],
            queue: Vec::new(),
            last_cmem_dispatch: 0,
            div_busy: 0,
            wb_used: WbWindow::new(),
            horizon: 0,
            report: TimingReport::default(),
        }
    }

    /// Accounts one retired instruction.
    pub fn on_retire(&mut self, e: &TraceEntry) {
        self.report.instructions += 1;
        let inst = &e.inst;

        // in-order issue: one instruction per cycle from ID
        let mut t = self.next_issue;

        // RAW hazards: issue waits until source operands are readable
        let raw_ready = inst
            .uses()
            .fold(t, |ready, r| ready.max(self.reg_ready[r.index()]));
        if raw_ready > t {
            self.report.raw_stall_cycles += raw_ready - t;
            t = raw_ready;
        }

        let completion;
        if inst.is_cmem() {
            self.report.cmem_instructions += 1;
            // when the target slice(s) free up
            let slices_free = inst
                .cmem_slices()
                .map(|s| self.slice_busy[usize::from(s)])
                .max()
                .unwrap_or(0);
            // free queue slots whose occupants have dispatched
            self.queue.retain(|&d| d > t);
            if self.cfg.cmem_queue == 0 {
                // no queue: ID blocks until the op can start
                let start = t.max(slices_free).max(self.last_cmem_dispatch + 1);
                if start > t {
                    self.report.queue_stall_cycles += start - t;
                    t = start;
                }
            } else if self.queue.len() >= self.cfg.cmem_queue {
                // queue full: stall until the earliest parked op dispatches
                let free_at = *self.queue.iter().min().expect("non-empty queue");
                if free_at > t {
                    self.report.queue_stall_cycles += free_at - t;
                    t = free_at;
                }
                self.queue.retain(|&d| d > t);
            }
            // dispatch: FIFO order, after the target slice(s) free up
            let dispatch = t.max(self.last_cmem_dispatch + 1).max(slices_free);
            self.last_cmem_dispatch = dispatch;
            if dispatch > t && self.cfg.cmem_queue > 0 {
                self.queue.push(dispatch);
            }
            let busy = u64::from(inst.exec_cycles()) + u64::from(e.ext_latency);
            completion = dispatch + busy;
            for s in inst.cmem_slices() {
                self.slice_busy[usize::from(s)] = completion;
            }
        } else {
            match inst {
                Instruction::Op { kind, .. } if kind.is_div() => {
                    // the divider is unpipelined
                    let start = t.max(self.div_busy);
                    completion = start + u64::from(inst.exec_cycles());
                    self.div_busy = completion;
                }
                Instruction::Load { .. } | Instruction::Store { .. } | Instruction::Amo { .. } => {
                    // local: 1-cycle MEM stage; remote: scoreboard tracks the
                    // in-flight request so independent work continues
                    completion = t + 1 + u64::from(e.ext_latency);
                }
                Instruction::Op {
                    kind: OpKind::Mul | OpKind::Mulh | OpKind::Mulhsu | OpKind::Mulhu,
                    ..
                } => {
                    completion = t + u64::from(inst.exec_cycles());
                }
                _ => {
                    completion = t + 1;
                }
            }
        }

        // write-back port arbitration for instructions producing a value
        if let Some(rd) = inst.def() {
            let wb = self.wb_used.claim(completion, t, self.cfg.wb_ports);
            self.report.wb_conflict_cycles += wb - completion;
            self.reg_ready[rd.index()] = wb;
            self.horizon = self.horizon.max(wb);
        } else {
            self.horizon = self.horizon.max(completion);
        }

        // next instruction issues the following cycle; taken control flow
        // redirects fetch and pays the flush penalty
        self.next_issue = t + 1;
        if inst.is_control() && e.taken {
            self.next_issue += u64::from(self.cfg.branch_penalty);
            self.report.branch_flush_cycles += u64::from(self.cfg.branch_penalty);
        }
    }

    /// Finalises and returns the report.
    #[must_use]
    pub fn finish(mut self) -> TimingReport {
        self.report.total_cycles = self.horizon.max(self.next_issue);
        self.report
    }

    /// Convenience: replays a stored trace.
    #[must_use]
    pub fn replay(mut self, trace: &Trace) -> TimingReport {
        for e in &trace.entries {
            self.on_retire(e);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_isa::inst::{Instruction as I, VecWidth};
    use maicc_isa::reg::Reg;

    fn entry(inst: I) -> TraceEntry {
        TraceEntry {
            inst,
            taken: false,
            ext_latency: 0,
        }
    }

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
    fn straight_line_alu_is_one_per_cycle() {
        let mut t = Timing::new(PipelineConfig::default());
        for _ in 0..100 {
            t.on_retire(&entry(I::add(Reg::A0, Reg::A1, Reg::A2)));
        }
        let r = t.finish();
        assert!(r.total_cycles >= 100 && r.total_cycles <= 102, "{r:?}");
        assert!((r.ipc() - 1.0).abs() < 0.05);
    }

    #[test]
    fn raw_hazard_on_mac_result_stalls() {
        let mut t = Timing::new(PipelineConfig::default());
        t.on_retire(&entry(mac(Reg::A0, 1)));
        // dependent add must wait ~64 cycles for the MAC
        t.on_retire(&entry(I::add(Reg::A1, Reg::A0, Reg::A0)));
        let r = t.finish();
        assert!(r.total_cycles >= 64, "{r:?}");
        assert!(r.raw_stall_cycles >= 60, "{r:?}");
    }

    #[test]
    fn independent_macs_to_different_slices_overlap() {
        let mut t = Timing::new(PipelineConfig::default());
        for s in 1..=4u8 {
            t.on_retire(&entry(mac(Reg::from_index(9 + s as u32).unwrap(), s)));
        }
        let r = t.finish();
        // four 64-cycle MACs on four slices ≈ 64 + dispatch skew, not 256
        assert!(r.total_cycles < 100, "{r:?}");
    }

    #[test]
    fn same_slice_macs_serialize() {
        let mut t = Timing::new(PipelineConfig::default());
        for i in 0..4u32 {
            t.on_retire(&entry(mac(Reg::from_index(10 + i).unwrap(), 1)));
        }
        let r = t.finish();
        assert!(r.total_cycles >= 256, "{r:?}");
    }

    #[test]
    fn queue_zero_blocks_id_queue_two_overlaps() {
        // MAC(s1), MAC(s1), then 200 independent adds: with no queue the
        // adds wait behind the second MAC; with a 2-entry queue they overlap
        // and the issue stream finishes sooner.
        let make = |queue| {
            let mut t = Timing::new(PipelineConfig {
                cmem_queue: queue,
                ..PipelineConfig::default()
            });
            t.on_retire(&entry(mac(Reg::A0, 1)));
            t.on_retire(&entry(mac(Reg::A1, 1)));
            for _ in 0..200 {
                t.on_retire(&entry(I::add(Reg::A2, Reg::A3, Reg::A4)));
            }
            t.finish()
        };
        let q0 = make(0);
        let q2 = make(2);
        assert!(
            q2.total_cycles < q0.total_cycles,
            "queue should help: {q0:?} vs {q2:?}"
        );
        assert!(q0.queue_stall_cycles > 0);
    }

    #[test]
    fn deeper_queue_has_diminishing_returns() {
        let run = |queue| {
            let mut t = Timing::new(PipelineConfig {
                cmem_queue: queue,
                ..PipelineConfig::default()
            });
            // round-robin MACs over 7 slices with sporadic ALU work — the
            // Algorithm-1 shape
            for round in 0..8u32 {
                for s in 1..=7u8 {
                    t.on_retire(&entry(mac(Reg::from_index(10 + (s as u32 % 4)).unwrap(), s)));
                    let _ = round;
                }
                for _ in 0..10 {
                    t.on_retire(&entry(I::add(Reg::T0, Reg::T1, Reg::T2)));
                }
            }
            t.finish().total_cycles
        };
        let c0 = run(0);
        let c2 = run(2);
        let c4 = run(4);
        assert!(c2 <= c0);
        // paper: "adding more entries brings no more latency benefits"
        assert!(c4 as f64 >= c2 as f64 * 0.95, "{c2} vs {c4}");
    }

    #[test]
    fn second_wb_port_reduces_conflicts() {
        let run = |ports| {
            let mut t = Timing::new(PipelineConfig {
                wb_ports: ports,
                ..PipelineConfig::default()
            });
            // MACs completing together with a stream of ALU writers
            for s in 1..=7u8 {
                t.on_retire(&entry(mac(Reg::from_index(10 + s as u32).unwrap(), s)));
            }
            for _ in 0..70 {
                t.on_retire(&entry(I::add(Reg::T0, Reg::T1, Reg::T2)));
            }
            t.finish()
        };
        let one = run(1);
        let two = run(2);
        assert!(two.wb_conflict_cycles <= one.wb_conflict_cycles);
        assert!(two.total_cycles <= one.total_cycles);
    }

    #[test]
    fn taken_branches_cost_flush_cycles() {
        let mut t = Timing::new(PipelineConfig::default());
        for _ in 0..10 {
            t.on_retire(&TraceEntry {
                inst: I::Jal {
                    rd: Reg::Zero,
                    offset: 8,
                },
                taken: true,
                ext_latency: 0,
            });
        }
        let r = t.finish();
        assert_eq!(r.branch_flush_cycles, 20);
        assert!(r.total_cycles >= 30);
    }

    #[test]
    fn remote_latency_hides_behind_independent_work() {
        // a remote load with 50-cycle latency followed by 60 independent
        // adds: the scoreboard hides the latency
        let mut t = Timing::new(PipelineConfig::default());
        t.on_retire(&TraceEntry {
            inst: I::lw(Reg::A0, Reg::S0, 0),
            taken: false,
            ext_latency: 50,
        });
        for _ in 0..60 {
            t.on_retire(&entry(I::add(Reg::T0, Reg::T1, Reg::T2)));
        }
        let r = t.finish();
        assert!(r.total_cycles < 70, "{r:?}");
    }

    #[test]
    fn divider_is_unpipelined() {
        let mut t = Timing::new(PipelineConfig::default());
        let div = I::Op {
            kind: OpKind::Div,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        t.on_retire(&entry(div));
        let div2 = I::Op {
            kind: OpKind::Div,
            rd: Reg::A3,
            rs1: Reg::A4,
            rs2: Reg::A5,
        };
        t.on_retire(&entry(div2));
        let r = t.finish();
        assert!(r.total_cycles >= 68, "{r:?}");
    }

    #[test]
    fn write_backs_far_past_the_first_window_still_conflict() {
        // two loads whose results land on the same cycle 1,001, with a
        // hundred ALU write-backs in between: one port makes the second
        // wait a cycle, however far ahead the shared cycle lies
        let load = |rd, ext_latency| TraceEntry {
            inst: I::lw(rd, Reg::S0, 0),
            taken: false,
            ext_latency,
        };
        let mut t = Timing::new(PipelineConfig {
            wb_ports: 1,
            ..PipelineConfig::default()
        });
        t.on_retire(&load(Reg::A0, 1_000));
        for _ in 0..100 {
            t.on_retire(&entry(I::add(Reg::T0, Reg::T1, Reg::T2)));
        }
        t.on_retire(&load(Reg::A1, 899));
        let r = t.finish();
        assert_eq!(r.wb_conflict_cycles, 1, "{r:?}");
        assert_eq!(r.total_cycles, 1_002, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "wb_ports must be at least 1")]
    fn zero_write_back_ports_are_rejected() {
        let _ = Timing::new(PipelineConfig {
            wb_ports: 0,
            ..PipelineConfig::default()
        });
    }

    #[test]
    fn report_display_is_informative() {
        let r = TimingReport {
            total_cycles: 100,
            instructions: 50,
            cmem_instructions: 3,
            ..TimingReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("100 cycles"));
        assert!(s.contains("IPC 0.50"));
        assert!(s.contains("3 CMem"));
    }
}
