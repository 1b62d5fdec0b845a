//! Pinned timing replay: seeded retired-instruction traces that cover
//! every timing class `Timing::on_retire` distinguishes, each replayed at
//! CMem queue depth {0, 1, 2, 4} × write-back ports {1, 2, 3}, plus the
//! tiny kernel's real traces and the statically scheduled programs of the
//! Table 4 kernel at W4 and W8 and of the tiny kernel at W16. Every full
//! `TimingReport` of a trace, and every instruction of a scheduled
//! program, is hashed into one digest per fixture line. The lines must
//! match the committed fixture, which prints each trace's report at the
//! default configuration beside its digest so a diff names the trace
//! that moved.
//!
//! Regenerate the fixture after a deliberate change with
//! `cargo test -p maicc-core --test timing_pinned -- --ignored regenerate`,
//! then review and commit the diff.

use maicc_core::kernels::{CmemConvKernel, ConvWorkload};
use maicc_core::node::TraceEntry;
use maicc_core::pipeline::{PipelineConfig, Timing, TimingReport};
use maicc_isa::inst::{
    AmoKind, BranchKind, Instruction as I, LoadKind, OpImmKind, OpKind, StoreKind, VecWidth,
};
use maicc_isa::reg::Reg;

const QUEUES: [usize; 4] = [0, 1, 2, 4];
const WB_PORTS: [usize; 3] = [1, 2, 3];

/// The timing classes of `Timing::on_retire`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    /// Single-cycle ALU ops, `lui`/`auipc` and `fence`.
    Alu,
    /// The pipelined multiplier.
    Mul,
    /// The unpipelined divider (div and rem).
    Div,
    /// Loads, stores and AMOs, with a remote latency.
    Mem,
    /// `MAC.C` at W4/W8/W16 on the computing slices.
    Mac,
    /// `Move.C` within one slice or across two.
    Move,
    /// `SetRow.C`, `ShiftRow.C`, `LoadRow.RC`, `StoreRow.RC`, `SetMask.C`.
    CmemShort,
    /// Taken and untaken jumps and branches.
    Control,
}

const ALL: &[Class] = &[
    Class::Alu,
    Class::Mul,
    Class::Div,
    Class::Mem,
    Class::Mac,
    Class::Move,
    Class::CmemShort,
    Class::Control,
];

/// One pinned random trace.
struct Scenario {
    name: &'static str,
    seed: u64,
    len: usize,
    classes: &'static [Class],
    /// Remote latencies are drawn up to this bound.
    max_latency: u64,
}

fn scenarios() -> Vec<Scenario> {
    let s = |name, seed, len, classes, max_latency| Scenario {
        name,
        seed,
        len,
        classes,
        max_latency,
    };
    vec![
        s(
            "alu_mul_div_chains",
            1,
            400,
            &[Class::Alu, Class::Mul, Class::Div],
            0,
        ),
        s("mem_near", 2, 400, &[Class::Alu, Class::Mem], 40),
        s("mem_far", 3, 400, &[Class::Alu, Class::Mem], 2_000),
        s("mac_widths", 4, 300, &[Class::Alu, Class::Mac], 0),
        s(
            "move_and_short_cmem",
            5,
            400,
            &[Class::Alu, Class::Move, Class::CmemShort],
            60,
        ),
        s(
            "cmem_mix",
            6,
            500,
            &[Class::Alu, Class::Mac, Class::Move, Class::CmemShort],
            300,
        ),
        s(
            "control",
            7,
            400,
            &[Class::Alu, Class::Mul, Class::Control],
            0,
        ),
        s("everything_a", 8, 600, ALL, 2_000),
        s("everything_b", 9, 600, ALL, 100),
        s("everything_c", 10, 800, ALL, 2_000),
        s("everything_d", 11, 800, ALL, 700),
    ]
}

/// Splitmix64: the trace generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// A small register pool, x0 included, so that hazards are frequent and
/// x0 shows up as both source and destination.
const REGS: [Reg; 8] = [
    Reg::Zero,
    Reg::T0,
    Reg::T1,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::S0,
    Reg::S1,
];

const WIDTHS: [VecWidth; 3] = [VecWidth::W4, VecWidth::W8, VecWidth::W16];

/// Mostly short remote latencies, now and then one up to `max`.
fn latency(rng: &mut Rng, max: u64) -> u32 {
    let bound = if rng.below(4) == 0 { max } else { max.min(15) };
    rng.below(bound + 1) as u32
}

fn entry(rng: &mut Rng, class: Class, max_latency: u64) -> TraceEntry {
    let r = |rng: &mut Rng| rng.pick(&REGS);
    let mut ext_latency = 0;
    let mut taken = false;
    let inst = match class {
        Class::Alu => match rng.below(5) {
            0 => I::Op {
                kind: rng.pick(&[
                    OpKind::Add,
                    OpKind::Sub,
                    OpKind::Sltu,
                    OpKind::Xor,
                    OpKind::Sra,
                ]),
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            },
            1 => I::OpImm {
                kind: rng.pick(&[OpImmKind::Addi, OpImmKind::Slli, OpImmKind::Sltiu]),
                rd: r(rng),
                rs1: r(rng),
                imm: 3,
            },
            2 => I::Lui {
                rd: r(rng),
                imm: 0x1000,
            },
            3 => I::Auipc { rd: r(rng), imm: 0 },
            _ => I::Fence,
        },
        Class::Mul => I::Op {
            kind: rng.pick(&[OpKind::Mul, OpKind::Mulh, OpKind::Mulhsu, OpKind::Mulhu]),
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        Class::Div => I::Op {
            kind: rng.pick(&[OpKind::Div, OpKind::Divu, OpKind::Rem, OpKind::Remu]),
            rd: r(rng),
            rs1: r(rng),
            rs2: r(rng),
        },
        Class::Mem => {
            ext_latency = latency(rng, max_latency);
            match rng.below(3) {
                0 => I::Load {
                    kind: rng.pick(&[LoadKind::Lw, LoadKind::Lb, LoadKind::Lhu]),
                    rd: r(rng),
                    rs1: r(rng),
                    offset: 0,
                },
                1 => I::Store {
                    kind: rng.pick(&[StoreKind::Sw, StoreKind::Sb]),
                    rs1: r(rng),
                    rs2: r(rng),
                    offset: 0,
                },
                _ => I::Amo {
                    kind: rng.pick(&[AmoKind::Add, AmoKind::Swap, AmoKind::LrW]),
                    rd: r(rng),
                    rs1: r(rng),
                    rs2: r(rng),
                },
            }
        }
        Class::Mac => I::MacC {
            rd: r(rng),
            slice: 1 + rng.below(7) as u8,
            row_a: 0,
            row_b: 16,
            width: rng.pick(&WIDTHS),
        },
        Class::Move => {
            let src_slice = rng.below(8) as u8;
            let dst_slice = if rng.coin() {
                src_slice
            } else {
                rng.below(8) as u8
            };
            I::MoveC {
                src_slice,
                src_row: 0,
                dst_slice,
                dst_row: 16,
                width: rng.pick(&WIDTHS),
            }
        }
        Class::CmemShort => {
            let slice = rng.below(8) as u8;
            match rng.below(5) {
                0 => I::SetRowC {
                    slice,
                    row: 3,
                    value: true,
                },
                1 => I::ShiftRowC {
                    slice,
                    row: 3,
                    left: false,
                    granules: 1,
                },
                2 => {
                    ext_latency = latency(rng, max_latency);
                    I::LoadRowRC {
                        rs1: r(rng),
                        slice,
                        row: 3,
                    }
                }
                3 => {
                    ext_latency = latency(rng, max_latency);
                    I::StoreRowRC {
                        rs1: r(rng),
                        slice,
                        row: 3,
                    }
                }
                _ => I::SetMaskC { rs1: r(rng), slice },
            }
        }
        Class::Control => {
            taken = rng.coin();
            match rng.below(3) {
                0 => I::Jal {
                    rd: r(rng),
                    offset: 8,
                },
                1 => I::Jalr {
                    rd: r(rng),
                    rs1: r(rng),
                    offset: 0,
                },
                _ => I::Branch {
                    kind: BranchKind::Bne,
                    rs1: r(rng),
                    rs2: r(rng),
                    offset: -8,
                },
            }
        }
    };
    TraceEntry {
        inst,
        taken,
        ext_latency,
    }
}

fn trace(s: &Scenario) -> Vec<TraceEntry> {
    let mut rng = Rng(s.seed);
    (0..s.len)
        .map(|_| {
            let class = rng.pick(s.classes);
            entry(&mut rng, class, s.max_latency)
        })
        .collect()
}

/// 300 loads whose remote latencies shrink as they issue, so every
/// write-back lands on one cycle about a thousand cycles ahead and the
/// ports then drain them one cycle after another.
fn converging_loads() -> Vec<TraceEntry> {
    (0..300u32)
        .map(|i| TraceEntry {
            inst: I::lw(REGS[1 + i as usize % 7], Reg::Sp, 0),
            taken: false,
            ext_latency: 1_000 - i,
        })
        .collect()
}

/// The tiny kernel's retired trace at `width`, as emitted or scheduled.
fn tiny_kernel_trace(width: VecWidth, scheduled: bool) -> Vec<TraceEntry> {
    let wl = ConvWorkload::tiny();
    let kernel = CmemConvKernel::with_width(wl, width).unwrap();
    let kernel = if scheduled {
        kernel.with_program(kernel.scheduled_program())
    } else {
        kernel
    };
    let mut node = kernel
        .prepare(&wl.synthetic_ifmap(), &wl.synthetic_weights(), 4)
        .unwrap();
    node.run(20_000_000).unwrap().entries
}

/// FNV-1a.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn replay(entries: &[TraceEntry], cmem_queue: usize, wb_ports: usize) -> TimingReport {
    let mut t = Timing::new(PipelineConfig {
        cmem_queue,
        wb_ports,
        ..PipelineConfig::default()
    });
    for e in entries {
        t.on_retire(e);
    }
    t.finish()
}

/// A trace's fixture line: the digest of its reports at every
/// configuration, then its report at the default one.
fn render_trace(name: &str, entries: &[TraceEntry]) -> String {
    let mut digest = FNV_BASIS;
    for q in QUEUES {
        for wb in WB_PORTS {
            let r = replay(entries, q, wb);
            digest = fnv(digest, format!("q{q} wb{wb} {r:?};").as_bytes());
        }
    }
    let d = PipelineConfig::default();
    let r = replay(entries, d.cmem_queue, d.wb_ports);
    format!(
        "{name} entries={} digest={digest:016x} cycles={} cmem={} queue={} raw={} wb={} flush={}\n",
        entries.len(),
        r.total_cycles,
        r.cmem_instructions,
        r.queue_stall_cycles,
        r.raw_stall_cycles,
        r.wb_conflict_cycles,
        r.branch_flush_cycles
    )
}

/// A scheduled program's fixture line.
fn render_schedule(name: &str, wl: ConvWorkload, width: VecWidth) -> String {
    let program = CmemConvKernel::with_width(wl, width)
        .unwrap()
        .scheduled_program();
    let digest = program
        .iter()
        .fold(FNV_BASIS, |h, i| fnv(h, format!("{i:?};").as_bytes()));
    format!("{name} len={} digest={digest:016x}\n", program.len())
}

fn render_all() -> String {
    let mut out = String::new();
    for s in scenarios() {
        out += &render_trace(s.name, &trace(&s));
    }
    out += &render_trace("converging_loads", &converging_loads());
    for (w, width) in [
        ("w4", VecWidth::W4),
        ("w8", VecWidth::W8),
        ("w16", VecWidth::W16),
    ] {
        out += &render_trace(
            &format!("tiny_{w}_program"),
            &tiny_kernel_trace(width, false),
        );
        out += &render_trace(
            &format!("tiny_{w}_scheduled"),
            &tiny_kernel_trace(width, true),
        );
    }
    out += &render_schedule("schedule_table4_w4", ConvWorkload::table4(), VecWidth::W4);
    out += &render_schedule("schedule_table4_w8", ConvWorkload::table4(), VecWidth::W8);
    out += &render_schedule("schedule_tiny_w16", ConvWorkload::tiny(), VecWidth::W16);
    out
}

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/timing_pinned.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn every_trace_and_schedule_matches_its_pinned_digest() {
    let want = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    let got = render_all();
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    if got != want {
        let drifted: Vec<String> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("got  {g}\nwant {w}"))
            .collect();
        panic!(
            "timing digests drifted from the fixture:\n{}",
            drifted.join("\n")
        );
    }
}

/// The random traces reach what the fixture is meant to pin: every class,
/// x0 on both sides, far write-backs, and stalls of every kind.
#[test]
fn scenarios_cover_every_timing_class() {
    let scenarios = scenarios();
    let traces: Vec<Vec<TraceEntry>> = scenarios.iter().map(trace).collect();
    let all: Vec<&TraceEntry> = traces.iter().flatten().collect();
    let has = |f: &dyn Fn(&TraceEntry) -> bool| all.iter().any(|e| f(e));
    assert!(has(&|e| matches!(e.inst, I::Op { rd: Reg::Zero, .. })));
    assert!(has(&|e| matches!(e.inst, I::Op { rs1: Reg::Zero, .. })));
    assert!(has(&|e| e.ext_latency >= 1_000 && e.inst.def().is_some()));
    for width in WIDTHS {
        assert!(has(
            &|e| matches!(e.inst, I::MacC { width: w, .. } if w == width)
        ));
    }
    assert!(has(
        &|e| matches!(e.inst, I::MoveC { src_slice, dst_slice, .. } if src_slice == dst_slice)
    ));
    assert!(has(
        &|e| matches!(e.inst, I::MoveC { src_slice, dst_slice, .. } if src_slice != dst_slice)
    ));
    assert!(has(&|e| e.inst.is_control() && e.taken));
    assert!(has(&|e| e.inst.is_control() && !e.taken));
    let mut stalls = TimingReport::default();
    for entries in &traces {
        for q in QUEUES {
            for wb in WB_PORTS {
                let r = replay(entries, q, wb);
                stalls.queue_stall_cycles += r.queue_stall_cycles;
                stalls.raw_stall_cycles += r.raw_stall_cycles;
                stalls.wb_conflict_cycles += r.wb_conflict_cycles;
                stalls.branch_flush_cycles += r.branch_flush_cycles;
            }
        }
    }
    assert!(stalls.queue_stall_cycles > 0, "{stalls:?}");
    assert!(stalls.raw_stall_cycles > 0, "{stalls:?}");
    assert!(stalls.wb_conflict_cycles > 0, "{stalls:?}");
    assert!(stalls.branch_flush_cycles > 0, "{stalls:?}");
}

/// Rewrites the fixture from the current code.
#[test]
#[ignore = "rewrites tests/fixtures/timing_pinned.txt"]
fn regenerate() {
    std::fs::create_dir_all(format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))).unwrap();
    std::fs::write(fixture_path(), render_all()).unwrap();
}
