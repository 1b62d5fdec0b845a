//! Pinned mesh tick: a seeded table of traffic scenarios, each run on the
//! full-scan `Mesh::tick` and the tracked `Mesh::tick_partitioned`. The
//! train scenarios at the end send most of their packets in one burst at
//! cycle 0 between a few fixed endpoint pairs, the steady wormhole trains
//! that a data-collection core streams to its computing cores. Every
//! cycle's observables — deliveries (order, payload, `sent_at`,
//! `arrived_at`, `corrupted`), `stats()`, `fault_stats()`,
//! `take_errors()`, `wedge_report()` and `link_loads()` — are hashed into
//! one digest per cycle. The two ticks must agree on every cycle, and the
//! digests, folded over the run, must match the committed fixture, which
//! prints each scenario's final `stats()` beside its digest so a diff
//! names the scenario that moved.
//!
//! Regenerate the fixture after a deliberate change with
//! `cargo test -p maicc-noc --test tick_pinned -- --ignored regenerate`,
//! then review and commit the diff.

use maicc_noc::{Coord, Delivered, Direction, Mesh, NocFaultPlan, Packet, RetryPolicy};
use std::fmt::Write as _;

/// Cycle budget per scenario; every scenario drains well before it.
const MAX_CYCLES: u64 = 50_000;

/// How a scenario picks destinations.
#[derive(Clone, Copy)]
enum Pattern {
    /// Uniform random source and destination.
    Uniform,
    /// Every packet targets one tile.
    Hotspot(Coord),
    /// Each packet takes one of these (source, destination) pairs. Seven
    /// of every eight packets are sent at cycle 0, so each pair carries a
    /// train of back-to-back packets; the eighth is sent at a cycle drawn
    /// from `0..stagger`.
    Trains(&'static [Pair]),
}

/// A train's endpoints, `((sx, sy), (dx, dy))`.
type Pair = ((u8, u8), (u8, u8));

/// One pinned run.
struct Scenario {
    name: &'static str,
    width: u8,
    height: u8,
    buffer_cap: usize,
    /// Seed of the traffic generator.
    seed: u64,
    packets: usize,
    pattern: Pattern,
    /// Flits per packet, drawn from `min_flits..=max_flits`.
    min_flits: usize,
    max_flits: usize,
    /// Injection cycles are drawn from `0..stagger`.
    stagger: u64,
    plan: Option<NocFaultPlan>,
    retry: Option<RetryPolicy>,
}

fn c(x: u8, y: u8) -> Coord {
    Coord::new(x, y)
}

fn retry() -> Option<RetryPolicy> {
    Some(RetryPolicy {
        max_retries: 2,
        base_delay: 4,
    })
}

#[allow(clippy::too_many_lines)]
fn scenarios() -> Vec<Scenario> {
    let base = |name, width, height, buffer_cap, seed| Scenario {
        name,
        width,
        height,
        buffer_cap,
        seed,
        packets: 60,
        pattern: Pattern::Uniform,
        min_flits: 1,
        max_flits: 3,
        stagger: 40,
        plan: None,
        retry: None,
    };
    vec![
        Scenario {
            packets: 400,
            ..base("uniform_16x16_cap4", 16, 16, 4, 1)
        },
        Scenario {
            packets: 200,
            max_flits: 9,
            ..base("wormhole_16x16_cap1", 16, 16, 1, 2)
        },
        Scenario {
            packets: 150,
            pattern: Pattern::Hotspot(c(7, 9)),
            ..base("hotspot_16x16_cap4", 16, 16, 4, 3)
        },
        Scenario {
            pattern: Pattern::Hotspot(c(5, 5)),
            max_flits: 9,
            ..base("hotspot_wormhole_6x6_cap1", 6, 6, 1, 4)
        },
        Scenario {
            max_flits: 9,
            stagger: 10,
            ..base("wormhole_6x6_cap4", 6, 6, 4, 5)
        },
        Scenario {
            pattern: Pattern::Hotspot(c(0, 0)),
            ..base("hotspot_6x6_cap4", 6, 6, 4, 6)
        },
        Scenario {
            plan: Some(NocFaultPlan::with_seed(11).drop_rate(0.03).retry_after(24)),
            ..base("drop_6x6_cap4", 6, 6, 4, 7)
        },
        Scenario {
            max_flits: 6,
            plan: Some(NocFaultPlan::with_seed(12).drop_rate(0.03).retry_after(24)),
            retry: retry(),
            ..base("drop_retry_6x6_cap1", 6, 6, 1, 8)
        },
        Scenario {
            plan: Some(NocFaultPlan::with_seed(13).corrupt_rate(0.04)),
            ..base("corrupt_6x6_cap4", 6, 6, 4, 9)
        },
        Scenario {
            plan: Some(NocFaultPlan::with_seed(14).corrupt_rate(0.04)),
            retry: retry(),
            ..base("corrupt_retry_6x6_cap4", 6, 6, 4, 10)
        },
        Scenario {
            packets: 150,
            max_flits: 6,
            plan: Some(
                NocFaultPlan::with_seed(15)
                    .drop_rate(0.01)
                    .corrupt_rate(0.01)
                    .retry_after(32),
            ),
            retry: retry(),
            ..base("drop_corrupt_retry_16x16_cap4", 16, 16, 4, 11)
        },
        Scenario {
            plan: Some(
                NocFaultPlan::with_seed(16)
                    .fail_router(c(2, 2))
                    .fail_router(c(4, 1))
                    .retry_after(20)
                    .max_retries(2),
            ),
            ..base("dead_routers_6x6_cap4", 6, 6, 4, 12)
        },
        Scenario {
            packets: 120,
            plan: Some(
                NocFaultPlan::with_seed(17)
                    .fail_router(c(8, 8))
                    .fail_router(c(3, 12))
                    .retry_after(40),
            ),
            retry: retry(),
            ..base("dead_routers_retry_16x16_cap1", 16, 16, 1, 13)
        },
        Scenario {
            max_flits: 5,
            plan: Some(
                NocFaultPlan::with_seed(18)
                    .fail_link(c(1, 1), Direction::East)
                    .fail_link(c(3, 2), Direction::South)
                    .fail_link(c(4, 4), Direction::West)
                    .retry_after(20)
                    .max_retries(2),
            ),
            ..base("cut_links_6x6_cap1", 6, 6, 1, 14)
        },
        Scenario {
            packets: 120,
            pattern: Pattern::Hotspot(c(10, 4)),
            plan: Some(
                NocFaultPlan::with_seed(19)
                    .fail_link(c(9, 4), Direction::East)
                    .fail_link(c(10, 3), Direction::South)
                    .retry_after(30),
            ),
            retry: retry(),
            ..base("cut_links_retry_hotspot_16x16_cap4", 16, 16, 4, 15)
        },
        Scenario {
            max_flits: 9,
            plan: Some(
                NocFaultPlan::with_seed(20)
                    .drop_rate(0.02)
                    .corrupt_rate(0.02)
                    .fail_router(c(3, 3))
                    .fail_link(c(0, 2), Direction::East)
                    .fail_link(c(5, 0), Direction::South)
                    .retry_after(24)
                    .max_retries(3),
            ),
            ..base("everything_6x6_cap1", 6, 6, 1, 16)
        },
        Scenario {
            max_flits: 9,
            plan: Some(
                NocFaultPlan::with_seed(21)
                    .drop_rate(0.02)
                    .corrupt_rate(0.02)
                    .fail_router(c(1, 4))
                    .fail_link(c(2, 2), Direction::North)
                    .fail_link(c(4, 3), Direction::West)
                    .retry_after(24),
            ),
            retry: Some(RetryPolicy {
                max_retries: 3,
                base_delay: 2,
            }),
            ..base("everything_retry_6x6_cap4", 6, 6, 4, 17)
        },
        Scenario {
            packets: 40,
            plan: Some(NocFaultPlan::with_seed(22)),
            ..base("quiet_plan_6x6_cap1", 6, 6, 1, 18)
        },
        Scenario {
            // one-hop rows along a zig-zag chain, data-collection core to
            // first computing core and on to the next
            pattern: Pattern::Trains(&[
                ((1, 0), (2, 0)),
                ((2, 0), (3, 0)),
                ((9, 4), (9, 5)),
                ((12, 7), (11, 7)),
            ]),
            min_flits: 9,
            max_flits: 9,
            stagger: 400,
            ..base("trains_one_hop_16x16_cap4", 16, 16, 4, 19)
        },
        Scenario {
            pattern: Pattern::Trains(&[((0, 0), (15, 12)), ((15, 1), (2, 14)), ((3, 15), (12, 0))]),
            max_flits: 9,
            stagger: 300,
            ..base("trains_long_xy_16x16_cap2", 16, 16, 2, 20)
        },
        Scenario {
            // both trains want router (4, 1)'s South output
            pattern: Pattern::Trains(&[((0, 1), (4, 3)), ((4, 0), (4, 3))]),
            max_flits: 9,
            stagger: 200,
            ..base("trains_merge_6x6_cap1", 6, 6, 1, 21)
        },
        Scenario {
            pattern: Pattern::Trains(&[
                ((0, 0), (4, 4)),
                ((5, 0), (4, 4)),
                ((0, 5), (4, 4)),
                ((2, 4), (4, 4)),
            ]),
            min_flits: 5,
            max_flits: 9,
            stagger: 300,
            ..base("trains_hotspot_6x6_cap3", 6, 6, 3, 22)
        },
        Scenario {
            // CRC corruption NACKed under the default policy, the shape of
            // a serving run's NoC fault config
            pattern: Pattern::Trains(&[((0, 0), (15, 12)), ((15, 1), (2, 14)), ((3, 15), (12, 0))]),
            min_flits: 9,
            max_flits: 9,
            stagger: 300,
            plan: Some(NocFaultPlan::with_seed(23).corrupt_rate(0.003)),
            retry: Some(RetryPolicy::default()),
            ..base("trains_corrupt_retry_16x16_cap2", 16, 16, 2, 23)
        },
        Scenario {
            // dropped flits recalled onto the Y-X route, no policy
            pattern: Pattern::Trains(&[((0, 0), (15, 12)), ((15, 1), (2, 14)), ((3, 15), (12, 0))]),
            min_flits: 9,
            max_flits: 9,
            stagger: 300,
            plan: Some(
                NocFaultPlan::with_seed(24)
                    .drop_rate(0.003)
                    .retry_after(200)
                    .max_retries(3),
            ),
            ..base("trains_drop_recall_16x16_cap2", 16, 16, 2, 24)
        },
        Scenario {
            // the first train's X-Y route crosses the cut link (2, 0) East;
            // its recall takes the Y-X route round it
            pattern: Pattern::Trains(&[((0, 0), (4, 3)), ((1, 1), (5, 1)), ((5, 5), (1, 5))]),
            max_flits: 9,
            stagger: 200,
            plan: Some(
                NocFaultPlan::with_seed(25)
                    .fail_link(c(2, 0), Direction::East)
                    .retry_after(120)
                    .max_retries(2),
            ),
            ..base("trains_cut_link_6x6_cap2", 6, 6, 2, 25)
        },
        Scenario {
            // the merge of `trains_merge_6x6_cap1` beside the dead router
            // (5, 1): the third train's X-Y route runs through the merge
            // router into it and blocks the merge until its recall
            pattern: Pattern::Trains(&[((0, 1), (4, 3)), ((4, 0), (4, 3)), ((2, 1), (5, 2))]),
            max_flits: 9,
            stagger: 200,
            plan: Some(
                NocFaultPlan::with_seed(26)
                    .fail_router(c(5, 1))
                    .retry_after(120)
                    .max_retries(2),
            ),
            ..base("trains_dead_router_merge_6x6_cap1", 6, 6, 1, 26)
        },
    ]
}

/// Splitmix64: the traffic generator.
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
}

/// The scenario's packets with their injection cycles, in injection order
/// (ties keep generation order).
fn traffic(s: &Scenario) -> Vec<(u64, Packet<u64>)> {
    let mut rng = Rng(s.seed);
    let tile = |rng: &mut Rng| {
        c(
            rng.below(u64::from(s.width)) as u8,
            rng.below(u64::from(s.height)) as u8,
        )
    };
    let mut out: Vec<(u64, Packet<u64>)> = (0..s.packets as u64)
        .map(|k| {
            let (src, dst) = match s.pattern {
                Pattern::Uniform => (tile(&mut rng), tile(&mut rng)),
                Pattern::Hotspot(at) => (tile(&mut rng), at),
                Pattern::Trains(pairs) => {
                    let ((sx, sy), (dx, dy)) = pairs[rng.below(pairs.len() as u64) as usize];
                    (c(sx, sy), c(dx, dy))
                }
            };
            let spread = (s.max_flits - s.min_flits + 1) as u64;
            let flits = s.min_flits + rng.below(spread) as usize;
            let mut at = rng.below(s.stagger);
            if matches!(s.pattern, Pattern::Trains(_)) && k % 8 != 7 {
                at = 0;
            }
            (at, Packet::new(src, dst, flits, k))
        })
        .collect();
    out.sort_by_key(|&(at, _)| at);
    out
}

/// FNV-1a over the bytes of a cycle's rendering.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One cycle's observables, rendered and hashed.
fn cycle_digest(mesh: &mut Mesh<u64>, delivered: &[Delivered<u64>], buf: &mut String) -> u64 {
    buf.clear();
    for d in delivered {
        let p = &d.packet;
        let _ = write!(
            buf,
            "d{} {:?}>{:?} f{} s{} a{} c{};",
            p.payload, p.src, p.dst, p.flits, d.sent_at, d.arrived_at, d.corrupted
        );
    }
    let errors = mesh.take_errors();
    let _ = write!(
        buf,
        "|{:?}|{:?}|{errors:?}|{:?}|{:?}",
        mesh.stats(),
        mesh.fault_stats(),
        mesh.wedge_report(),
        mesh.link_loads()
    );
    fnv(buf.as_bytes())
}

fn mesh_for(s: &Scenario) -> Mesh<u64> {
    let mut mesh = Mesh::with_buffer(s.width, s.height, s.buffer_cap);
    if let Some(plan) = &s.plan {
        mesh.attach_fault_plan(plan.clone());
    }
    mesh.set_retry_policy(s.retry);
    mesh
}

/// Runs one scenario on both ticks and renders its fixture line.
fn render(s: &Scenario) -> String {
    let mut full = mesh_for(s);
    let mut part = mesh_for(s);
    part.enable_partitioned_stepping();
    let mut queue = traffic(s).into_iter().peekable();
    let (mut out, mut buf) = (Vec::new(), String::new());
    let mut digest = 0u64;
    let mut cycle = 0;
    while cycle < MAX_CYCLES {
        while let Some((_, p)) = queue.next_if(|&(at, _)| at <= cycle) {
            full.send(p.clone());
            part.send(p);
        }
        let df = full.tick();
        out.clear();
        part.tick_partitioned(&mut out);
        let a = cycle_digest(&mut full, &df, &mut buf);
        let b = cycle_digest(&mut part, &out, &mut buf);
        assert_eq!(a, b, "{}: the two ticks diverge at cycle {cycle}", s.name);
        digest = fnv(&[digest.to_le_bytes(), a.to_le_bytes()].concat());
        cycle += 1;
        if queue.peek().is_none() && full.is_idle() {
            break;
        }
    }
    let st = full.stats();
    let fs = full.fault_stats();
    format!(
        "{} cycles={cycle} digest={digest:016x} sent={} delivered={} flit_hops={} \
         total_latency={} dropped={} corrupted={} retries={} crc_rejects={} lost={}\n",
        s.name,
        st.packets_sent,
        st.packets_delivered,
        st.flit_hops,
        st.total_latency,
        fs.flits_dropped,
        fs.flits_corrupted,
        fs.retries,
        fs.crc_rejects,
        fs.packets_lost
    )
}

fn render_all() -> String {
    scenarios().iter().map(render).collect()
}

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/tick_pinned.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn every_scenario_matches_its_pinned_digest() {
    let want = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    let got = render_all();
    assert_eq!(got.lines().count(), want.lines().count(), "scenario count");
    if got != want {
        let drifted: Vec<&str> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, _)| g)
            .collect();
        panic!(
            "tick digests drifted from the fixture:\n{}",
            drifted.join("\n")
        );
    }
}

/// Reads the committed lines, which the test above ties to the tick.
#[test]
fn scenarios_drain_and_exercise_their_faults() {
    let pinned = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    let scenarios = scenarios();
    assert_eq!(pinned.lines().count(), scenarios.len(), "scenario count");
    for (s, line) in scenarios.iter().zip(pinned.lines()) {
        assert_eq!(line.split_whitespace().next(), Some(s.name), "{line}");
        let field = |key: &str| -> u64 {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{line}: no {key}"))
        };
        assert!(
            field("cycles") < MAX_CYCLES,
            "{} must drain: {line}",
            s.name
        );
        assert_eq!(
            field("delivered") + field("lost"),
            s.packets as u64,
            "{line}"
        );
        let plan = s.plan.as_ref();
        if plan.is_some_and(|p| p.drop_rate > 0.0) {
            assert!(field("dropped") > 0, "{line}");
        }
        if plan.is_some_and(|p| p.corrupt_rate > 0.0) {
            assert!(field("corrupted") > 0, "{line}");
        }
        if plan.is_some_and(|p| !p.failed_routers.is_empty() || !p.failed_links.is_empty()) {
            assert!(field("retries") > 0, "{line}");
        }
    }
}

/// Rewrites the fixture from the current code.
#[test]
#[ignore = "rewrites tests/fixtures/tick_pinned.txt"]
fn regenerate() {
    std::fs::create_dir_all(format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))).unwrap();
    std::fs::write(fixture_path(), render_all()).unwrap();
}
