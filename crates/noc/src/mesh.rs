//! The cycle-stepped wormhole mesh.
//!
//! Movement is evaluated in two steps per cycle — arbitration and move
//! planning, then a simultaneous move of at most one flit per link — so
//! every move of a tick sees the same start-of-tick queues. Backpressure
//! is buffer-credit: a flit advances only if the downstream input FIFO
//! had space at the start of the tick. No other move can claim that
//! space in the same tick: every non-local input port has exactly one
//! upstream link, and every output moves at most one flit per tick.
//!
//! Wormhole trains repeat themselves: while one streams at a flit per link
//! per cycle, each tick drains and moves exactly what the last one did.
//! The tracked tick detects such a tick and replays its plan on the next
//! one instead of arbitrating again (see [`Mesh::tick_partitioned`]). It
//! does so under a fault plan too: moves are planned from queue state
//! alone, and a replay makes each move's fault draws in plan order, as a
//! planned tick does. A tick whose move was dropped or NACKed, a due
//! retransmission release and a recall each make the next tick plan
//! afresh.
//!
//! Under a fault plan, the retransmission release and the recall of
//! stalled packets each look for work in the whole flight table. The
//! tracked tick keeps a lower bound for each and scans only once it is
//! reached: the earliest backoff deadline, and the oldest progress stamp
//! of a packet not in backoff plus the plan's recall horizon. A dropped
//! flit forces the next recall scan. The full-scan [`Mesh::tick`] scans on
//! every tick.

use crate::fault::{DropRng, NocError, NocFaultPlan, NocFaultState, NocFaultStats, RetryPolicy};
use crate::router::{route, Coord, Direction, Flit, Router};
use crate::stats::NocStats;
use crate::DEFAULT_BUFFER;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// Stall-trace slots per router: the five input ports plus the injection
/// queue.
const STALL_SLOTS: usize = 6;
/// Stall-trace slot of the injection queue.
const INJECT_SLOT: usize = 5;
/// Port index of the local input and output.
const LOCAL: usize = 4;

/// A move planned in phase 2: (router, input port, output port, downstream
/// router). The downstream router of a local move is the router itself.
type Move = (usize, usize, usize, usize);

/// A message travelling through the mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<T> {
    /// Source tile.
    pub src: Coord,
    /// Destination tile.
    pub dst: Coord,
    /// Length in flits (≥ 1).
    pub flits: usize,
    /// The carried payload (delivered with the tail flit).
    pub payload: T,
}

impl<T> Packet<T> {
    /// Creates a packet.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[must_use]
    pub fn new(src: Coord, dst: Coord, flits: usize, payload: T) -> Self {
        assert!(flits >= 1, "packets have at least one flit");
        Packet {
            src,
            dst,
            flits,
            payload,
        }
    }
}

/// A packet that reached its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<T> {
    /// The packet, payload included.
    pub packet: Packet<T>,
    /// Cycle the packet was injected.
    pub sent_at: u64,
    /// Cycle the tail flit left the destination router.
    pub arrived_at: u64,
    /// The destination's CRC check failed (a flit was corrupted in
    /// transit) and no [`RetryPolicy`] was attached to retransmit it —
    /// the payload is suspect. Always `false` with a policy attached.
    pub corrupted: bool,
}

#[derive(Clone)]
struct InFlight<T> {
    packet: Packet<T>,
    sent_at: u64,
    delivered_flits: usize,
    /// Last cycle any flit of this packet moved (fault-retry bookkeeping).
    last_progress: u64,
    /// Recalls performed so far.
    retries: u32,
    /// Dimension order of the current attempt (false = X-Y).
    yx: bool,
    /// A flit of this packet was lost in transit; recall at the next
    /// maintenance step.
    damaged: bool,
    /// A flit of this packet was corrupted in transit; the destination's
    /// CRC will reject the packet on arrival.
    crc_damaged: bool,
    /// Backoff deadline: the packet's flits re-enter the injection queue
    /// once the mesh reaches this cycle (retransmission in progress).
    release_at: Option<u64>,
}

/// Deterministic multiply-mix hasher for the flight table. Keys are the
/// mesh's own monotonically increasing packet ids, so a single Fibonacci
/// multiply spreads them perfectly well and every lookup happens on the
/// per-flit hot path where SipHash's setup cost is measurable. All
/// iteration over the table sorts by id first, so the (stable,
/// unseeded) bucket order never leaks into behaviour.
#[derive(Default, Clone)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdBuild = BuildHasherDefault<IdHasher>;

/// Per-tick working buffers, kept across ticks so the cycle loop never
/// allocates. All contents are cleared (capacity retained) at tick end.
#[derive(Default)]
struct TickScratch {
    /// Packet ids that made progress this tick (recorded only with a
    /// fault plan attached: the retry horizon is their one reader).
    progressed: Vec<u64>,
    /// Routers holding buffered flits or pending injections, ascending;
    /// then the routers a move first occupied this tick.
    active: Vec<usize>,
    /// Parallel to `active`: the stall slots whose queue moved a flit
    /// this tick (bit `port` for an input, bit `INJECT_SLOT` for an
    /// injection drain).
    moved: Vec<u8>,
    /// Membership bitmap for `active`.
    is_active: Vec<bool>,
    /// Per router, the input ports a move or an injection drain fed this
    /// tick (bit `port`), recorded only while the tick may still be
    /// replayed; the stall pass reads and zeroes it.
    fed: Vec<u8>,
    /// The moves planned this tick.
    moves: Vec<Move>,
}

impl TickScratch {
    fn begin(&mut self, n: usize) {
        if self.is_active.len() != n {
            self.is_active = vec![false; n];
            self.fed = vec![0; n];
        }
    }

    fn end(&mut self) {
        for &i in &self.active {
            self.is_active[i] = false;
        }
        self.progressed.clear();
        self.active.clear();
        self.moved.clear();
        self.moves.clear();
    }
}

/// The last tracked tick's plan, kept while the next tick provably plans
/// the same (the rule is on [`Mesh::tick_partitioned`]). The buffers keep
/// their capacity across ticks.
#[derive(Default)]
struct Replay {
    /// The next tracked tick replays this plan instead of planning.
    armed: bool,
    /// Routers whose injection queue drains one flit into the local port
    /// (the tick that recorded them may have drained more: see rule 2).
    drains: Vec<usize>,
    /// Outputs a moving tail released, with the one input whose head
    /// requests each next: (router, output port, input port, packet).
    rearm: Vec<(usize, usize, usize, u64)>,
    /// The moves, in plan order.
    moves: Vec<Move>,
    /// Stall slots (`router * STALL_SLOTS + slot`) whose head waits.
    stuck: Vec<usize>,
    /// Replayed ticks, outputs re-armed, re-arms refused by rule 3,
    /// replays under a fault plan, arms refused because a move did not
    /// land, armed plans set aside because a release was due, and armed
    /// plans dropped by a recall.
    #[cfg(test)]
    counts: [u64; 7],
}

/// Lower bounds that let the tracked tick skip the flight-table scans of
/// fault mode. Every write of a packet's `last_progress` stores the
/// current cycle, so a bound lowered on each write that can lower it,
/// and recomputed by each scan, stays a lower bound.
#[derive(Clone, Copy)]
struct RetryBounds {
    /// Earliest `release_at` of a packet in backoff: no release is due
    /// before it. Lowered by a NACK or a recall that sets a deadline.
    release: u64,
    /// Earliest `last_progress` of a packet not in backoff: none is stale
    /// before the plan's `retry_after` has passed since. Lowered by a
    /// send and a release.
    progress: u64,
    /// A flit was dropped since the last recall scan: its packet is
    /// recalled at the next one.
    dropped: bool,
}

impl RetryBounds {
    /// The bounds of a mesh without flights.
    const NONE: RetryBounds = RetryBounds {
        release: u64::MAX,
        progress: u64::MAX,
        dropped: false,
    };
}

/// The mesh network.
pub struct Mesh<T> {
    width: u8,
    height: u8,
    buffer_cap: usize,
    routers: Vec<Router>,
    /// Per-tile injection queues (unbounded; drain into local input ports).
    inject: Vec<VecDeque<Flit>>,
    flights: HashMap<u64, InFlight<T>, IdBuild>,
    next_id: u64,
    cycle: u64,
    stats: NocStats,
    /// Flits carried per output-port slot (`router * 5 + port`).
    link_load: Vec<u64>,
    /// Fault-injection state; `None` (the default) is the zero-overhead,
    /// bit-identical path.
    fault: Option<NocFaultState>,
    /// Link-level ACK/NACK retransmission policy; `None` keeps the
    /// recall-then-drop behaviour.
    retry_policy: Option<RetryPolicy>,
    /// Cycles each queue's head has been unable to move, per
    /// `router * STALL_SLOTS + slot` (credit-stall tracing for the
    /// watchdog).
    stall: Vec<u64>,
    /// Typed failures observed so far (lost packets); drained by
    /// [`Mesh::take_errors`].
    errors: Vec<NocError>,
    /// Buffered flits per router, maintained incrementally so quiet
    /// routers can be skipped without scanning their queues.
    occ: Vec<usize>,
    /// Reusable per-tick buffers.
    scratch: TickScratch,
    /// Candidate routers for [`Mesh::tick_partitioned`]: when `Some`, a
    /// superset of the routers with buffered flits or pending injections,
    /// maintained incrementally — with or without a fault plan attached —
    /// so the tick arbitrates in time proportional to the *live* traffic
    /// instead of scanning the whole port table. Every path that can fill
    /// an injection queue or an input port (send, move, retransmission
    /// release, no-policy recall) pushes its router; purges only remove
    /// flits, so the superset holds. `None` (the default, and what the
    /// sequential reference loop uses) keeps the full-scan [`Mesh::tick`].
    tracked: Option<Vec<usize>>,
    /// The last tracked tick's plan, for [`Mesh::tick_partitioned`] to
    /// replay. Every call that could change what the next tick plans
    /// disarms it: a send, attaching a fault plan, arming or disarming the
    /// tracking, a full-scan tick, and a recall.
    replay: Replay,
    /// When the fault-mode release and recall scans can next find work.
    bounds: RetryBounds,
}

impl<T: Clone> Clone for Mesh<T> {
    /// Deep-copies the architectural state (routers, queues, flights,
    /// stats, fault RNG position). The per-tick scratch buffers are empty
    /// between ticks, so the clone starts with fresh ones — checkpointing
    /// a mesh mid-simulation and resuming from the copy is exact. The clone
    /// plans its first tick afresh.
    fn clone(&self) -> Self {
        Mesh {
            width: self.width,
            height: self.height,
            buffer_cap: self.buffer_cap,
            routers: self.routers.clone(),
            inject: self.inject.clone(),
            flights: self.flights.clone(),
            next_id: self.next_id,
            cycle: self.cycle,
            stats: self.stats,
            link_load: self.link_load.clone(),
            fault: self.fault.clone(),
            retry_policy: self.retry_policy,
            stall: self.stall.clone(),
            errors: self.errors.clone(),
            occ: self.occ.clone(),
            scratch: TickScratch::default(),
            tracked: self.tracked.clone(),
            replay: Replay::default(),
            bounds: self.bounds,
        }
    }

    /// Overwrites `self` with what [`Clone::clone`] of `source` would
    /// give, keeping `self`'s buffers: the input and injection queues,
    /// the flight table and the per-router tables. A checkpoint taken
    /// over an earlier one allocates nothing for them. `source` is
    /// destructured in full, so a field added to `Mesh` must be handled
    /// here too.
    fn clone_from(&mut self, source: &Self) {
        let Mesh {
            width,
            height,
            buffer_cap,
            routers,
            inject,
            flights,
            next_id,
            cycle,
            stats,
            link_load,
            fault,
            retry_policy,
            stall,
            errors,
            occ,
            scratch: _,
            tracked,
            replay: _,
            bounds,
        } = source;
        self.width = *width;
        self.height = *height;
        self.buffer_cap = *buffer_cap;
        self.routers.clone_from(routers);
        self.inject.clone_from(inject);
        self.flights.clone_from(flights);
        self.next_id = *next_id;
        self.cycle = *cycle;
        self.stats = *stats;
        self.link_load.clone_from(link_load);
        self.fault.clone_from(fault);
        self.retry_policy = *retry_policy;
        self.stall.clone_from(stall);
        self.errors.clone_from(errors);
        self.occ.clone_from(occ);
        self.scratch = TickScratch::default();
        self.tracked.clone_from(tracked);
        self.replay = Replay::default();
        self.bounds = *bounds;
    }
}

impl<T> std::fmt::Debug for Mesh<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mesh")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("cycle", &self.cycle)
            .field("in_flight", &self.flights.len())
            .finish_non_exhaustive()
    }
}

impl<T> Mesh<T> {
    /// Creates a `width × height` mesh with the default buffer depth.
    #[must_use]
    pub fn new(width: u8, height: u8) -> Self {
        Self::with_buffer(width, height, DEFAULT_BUFFER)
    }

    /// Creates a mesh with an explicit per-port buffer depth.
    ///
    /// A `buffer_cap` of zero is legal but starves every router of
    /// credits: nothing can ever be injected, and the watchdog
    /// ([`Mesh::run_guarded`]) reports the first sender's injection queue
    /// as wedged. Useful for exercising deadlock detection.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn with_buffer(width: u8, height: u8, buffer_cap: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        let mut routers = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                routers.push(Router::new(Coord::new(x, y)));
            }
        }
        let n = routers.len();
        Mesh {
            width,
            height,
            buffer_cap,
            routers,
            inject: vec![VecDeque::new(); n],
            flights: HashMap::default(),
            next_id: 0,
            cycle: 0,
            stats: NocStats::default(),
            link_load: vec![0; n * 5],
            fault: None,
            retry_policy: None,
            stall: vec![0; n * STALL_SLOTS],
            errors: Vec::new(),
            occ: vec![0; n],
            scratch: TickScratch::default(),
            tracked: None,
            replay: Replay::default(),
            bounds: RetryBounds::NONE,
        }
    }

    /// Attaches (or replaces) a fault plan; injection starts immediately.
    ///
    /// Attaching [`NocFaultPlan::none`] is equivalent to no plan at all.
    pub fn attach_fault_plan(&mut self, plan: NocFaultPlan) {
        self.fault = Some(NocFaultState::new(plan));
        self.replay.armed = false;
    }

    /// Fault events observed so far (zero when no plan is attached).
    #[must_use]
    pub fn fault_stats(&self) -> NocFaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Attaches (or removes) the link-level retransmission policy.
    ///
    /// Without a fault plan the policy is inert: nothing is ever dropped,
    /// corrupted, or recalled, so the zero-overhead identity holds.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry_policy = policy;
    }

    /// The attached retransmission policy, if any.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry_policy
    }

    /// Re-seeds the attached fault plan's RNG with a replay salt so a
    /// rolled-back re-execution draws a fresh (still deterministic)
    /// drop/corruption schedule. No-op without a plan.
    pub fn reseed_fault_rng(&mut self, salt: u64) {
        if let Some(f) = self.fault.as_mut() {
            f.rng = DropRng::new(f.plan.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }

    /// Whether any packet is waiting out a retransmission backoff. While
    /// this holds, a lack of visible progress is the backoff itself — the
    /// watchdog in [`Mesh::run_guarded`] does not count it as a stall.
    #[must_use]
    pub(crate) fn has_pending_retx(&self) -> bool {
        self.flights.values().any(|fl| fl.release_at.is_some())
    }

    /// Drains the typed failures (lost packets) recorded since the last
    /// call.
    pub fn take_errors(&mut self) -> Vec<NocError> {
        std::mem::take(&mut self.errors)
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    fn idx(&self, c: Coord) -> usize {
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Injects a packet; flits enter the network as buffer space allows.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn send(&mut self, packet: Packet<T>) {
        assert!(
            packet.src.x < self.width
                && packet.src.y < self.height
                && packet.dst.x < self.width
                && packet.dst.y < self.height,
            "endpoint outside the mesh"
        );
        let id = self.next_id;
        self.next_id += 1;
        let src = self.idx(packet.src);
        for i in 0..packet.flits {
            self.inject[src].push_back(Flit {
                packet: id,
                dst: packet.dst,
                is_head: i == 0,
                is_tail: i + 1 == packet.flits,
                yx: false,
            });
        }
        self.flights.insert(
            id,
            InFlight {
                packet,
                sent_at: self.cycle,
                delivered_flits: 0,
                last_progress: self.cycle,
                retries: 0,
                yx: false,
                damaged: false,
                crc_damaged: false,
                release_at: None,
            },
        );
        if let Some(cand) = self.tracked.as_mut() {
            cand.push(src);
        }
        self.replay.armed = false;
        self.bounds.progress = self.bounds.progress.min(self.cycle);
        self.stats.packets_sent += 1;
    }

    /// Arms incremental active-router tracking for
    /// [`Mesh::tick_partitioned`]. The candidate set is (re)built from the
    /// current queues, so arming mid-flight — e.g. after a checkpoint
    /// rollback restored an older mesh — is exact. Idempotent.
    pub fn enable_partitioned_stepping(&mut self) {
        let cand: Vec<usize> = (0..self.routers.len())
            .filter(|&i| self.occ[i] > 0 || !self.inject[i].is_empty())
            .collect();
        self.tracked = Some(cand);
        self.replay.armed = false;
    }

    /// Disarms active-router tracking (the full-scan [`Mesh::tick`]
    /// neither needs nor maintains it).
    pub fn disable_partitioned_stepping(&mut self) {
        self.tracked = None;
        self.replay.armed = false;
    }

    /// Whether any flit is buffered or awaiting injection.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        if !self.flights.is_empty() {
            return false;
        }
        // the candidate set is a superset of every router with queued
        // work, so checking it alone is exact — and proportional to live
        // traffic, not the port table
        if let Some(cand) = self.tracked.as_ref() {
            return cand
                .iter()
                .all(|&i| self.occ[i] == 0 && self.inject[i].is_empty());
        }
        self.inject.iter().all(VecDeque::is_empty) && self.occ.iter().all(|&o| o == 0)
    }

    /// The next cycle at which the mesh itself can produce an event, or
    /// `None` if it never will again.
    ///
    /// Arbitration, flit movement, credit releases, and the fault-retry
    /// watchdog are all re-evaluated every tick, so whenever any flit is
    /// buffered or awaiting injection the next event is simply
    /// `cycle() + 1`. A fully drained mesh produces no events at all:
    /// ticking it only advances the clock (the fast path in
    /// [`Mesh::tick`]), which is exactly what [`Mesh::advance_to`]
    /// batch-applies.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn next_event_cycle(&self) -> Option<u64> {
        if self.is_idle() {
            None
        } else {
            Some(self.cycle + 1)
        }
    }

    /// Batch-applies idle cycles: advances the clock straight to `cycle`.
    ///
    /// Equivalent to `cycle - self.cycle()` calls to [`Mesh::tick`] on a
    /// drained mesh — each such tick takes the idle fast path, which
    /// delivers nothing, moves nothing, ages no stall trace, and performs
    /// no fault maintenance (there are no in-flight packets to retry), so
    /// the only observable effect is the clock itself. Cycles in the past
    /// are a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is not idle — skipping over cycles in which
    /// flits could have moved would change delivery order and statistics.
    pub fn advance_to(&mut self, cycle: u64) {
        assert!(
            self.is_idle(),
            "advance_to requires a drained mesh (flits could still move)"
        );
        if cycle > self.cycle {
            self.cycle = cycle;
            self.stats.cycles = cycle;
        }
    }

    /// Advances one cycle; returns packets fully delivered this cycle.
    ///
    /// This full-scan tick plans every cycle afresh and never replays: it
    /// is the oracle the tracked tick is tested against.
    pub fn tick(&mut self) -> Vec<Delivered<T>> {
        let mut delivered = Vec::new();
        self.tick_core(false, &mut delivered);
        delivered
    }

    /// Advances one cycle using the incrementally tracked candidate set
    /// instead of scanning every router, appending deliveries to `out`
    /// (capacity reused across calls). Byte-identical to [`Mesh::tick`]:
    /// the candidate set is a superset of the true active set, and every
    /// per-router phase is predicate-guarded, so extra (idle) candidates
    /// arbitrate nothing, move nothing, and age no stall slot. This holds
    /// under a fault plan too: a retransmission release or a no-policy
    /// recall pushes its source router into the set, and a purge only
    /// removes flits (zeroing the stall slots of the queues it empties,
    /// as the full scan would).
    ///
    /// A tick that proves the next one plans the same is replayed instead
    /// of planned: the next tick applies the same injection drains, then
    /// the same moves in plan order, and ages the same stall slots. A tick
    /// proves it when
    ///
    /// 1. every router whose injection queue drained still has a flit
    ///    queued there;
    /// 2. the input queues that a move or drain fed are exactly those a
    ///    move drained. Each non-local input has one upstream link and one
    ///    head, so equal sets mean a one-to-one match and its length did
    ///    not change. A local input that its injection queue fed filled up
    ///    (rule 1 left a flit queued) and then lost one flit to a move, so
    ///    the next tick drains exactly one flit into it; and
    /// 3. every output a moving tail released is requested next by exactly
    ///    one head: the one now at the front of the tail's input, heading
    ///    a packet routed to that output. An empty local input's next head
    ///    is its injection queue's front, which phase 0 drains first.
    ///
    /// The replay re-arms each such output as phase 1 would (owner that
    /// packet, round-robin pointer past its input) and then checks rules
    /// 1 and 3 again for the tick after. A send, attaching a fault plan,
    /// re-arming or disarming the tracking and a full-scan tick drop the
    /// plan, and a clone plans its first tick afresh.
    ///
    /// Under a fault plan the replay calls the same per-move fault step in
    /// plan order, so it makes exactly the drop and corruption draws, CRC
    /// checks and progress stamps a planned tick would. Dead routers and
    /// cut links do not change while a plan lives, and planning already
    /// left the moves they block out of it. Three more rules hold:
    ///
    /// 4. a tick arms a replay only if every one of its moves landed: a
    ///    dropped flit or a NACKed tail leaves queues the plan did not
    ///    foresee;
    /// 5. a tick at which a retransmission release is due plans afresh,
    ///    since the release refills an injection queue;
    /// 6. a recall during retry maintenance purges flits, so it drops the
    ///    plan.
    ///
    /// Fault mode's release and recall look through every flight. This
    /// tick skips each scan until a lower bound says it can find work: the
    /// earliest backoff deadline for the release, and for the recall the
    /// oldest progress stamp of a packet not in backoff plus the plan's
    /// `retry_after`, or a dropped flit.
    ///
    /// # Panics
    ///
    /// Panics if [`Mesh::enable_partitioned_stepping`] was not called.
    pub fn tick_partitioned(&mut self, out: &mut Vec<Delivered<T>>) {
        assert!(
            self.tracked.is_some(),
            "partitioned stepping is not armed (call enable_partitioned_stepping)"
        );
        // rule 5
        let release_due = self.retry_policy.is_some()
            && self.fault.is_some()
            && self.bounds.release <= self.cycle + 1;
        if self.replay.armed && !release_due {
            self.replay_tick(out);
        } else {
            #[cfg(test)]
            if self.replay.armed {
                self.replay.counts[5] += 1;
            }
            self.tick_core(true, out);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn tick_core(&mut self, sparse: bool, delivered: &mut Vec<Delivered<T>>) {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        let n = self.routers.len();

        // fast path: a fully drained fabric has nothing to arbitrate,
        // move, or age (every flit belongs to a flight, so no flights and
        // no pending injections means every buffer is empty and every
        // stall slot is already zero) — advancing the clock is the cycle
        if self.flights.is_empty() {
            let drained = if let (true, Some(cand)) = (sparse, self.tracked.as_ref()) {
                cand.iter().all(|&i| self.inject[i].is_empty())
            } else {
                self.inject.iter().all(VecDeque::is_empty)
            };
            if drained {
                debug_assert!(self.occ.iter().all(|&o| o == 0));
                // a tick that arms a replay leaves flits queued
                debug_assert!(!self.replay.armed);
                return;
            }
        }

        // retransmission release: packets whose backoff elapsed re-enter
        // their source injection queue (ascending id keeps this
        // deterministic regardless of HashMap order). The tracked tick
        // scans only once the earliest deadline has come.
        if self.retry_policy.is_some()
            && self.fault.is_some()
            && (!sparse || self.bounds.release <= self.cycle)
        {
            let mut due = Vec::new();
            let mut next = u64::MAX;
            for (&id, fl) in &self.flights {
                match fl.release_at {
                    Some(r) if r <= self.cycle => due.push(id),
                    Some(r) => next = next.min(r),
                    None => {}
                }
            }
            self.bounds.release = next;
            if !due.is_empty() {
                // a released packet leaves backoff with a fresh stamp
                self.bounds.progress = self.bounds.progress.min(self.cycle);
            }
            due.sort_unstable();
            for id in due {
                let fl = self.flights.get_mut(&id).expect("due id is live");
                fl.release_at = None;
                fl.last_progress = self.cycle;
                let (src, dst, flits, yx) = (fl.packet.src, fl.packet.dst, fl.packet.flits, fl.yx);
                let src_i = self.idx(src);
                for k in 0..flits {
                    self.inject[src_i].push_back(Flit {
                        packet: id,
                        dst,
                        is_head: k == 0,
                        is_tail: k + 1 == flits,
                        yx,
                    });
                }
                if let Some(cand) = self.tracked.as_mut() {
                    cand.push(src_i);
                }
            }
        }

        let mut s = std::mem::take(&mut self.scratch);
        s.begin(n);
        // The plan is recorded for a replay while rules 1, 2 and 4 hold;
        // only the tracked tick replays.
        let mut plan = std::mem::take(&mut self.replay);
        plan.drains.clear();
        plan.rearm.clear();
        plan.stuck.clear();
        let mut steady = sparse;
        // Routers that can possibly act this cycle: those holding buffered
        // flits or pending injections, in ascending index order — moves,
        // deliveries and fault-RNG draws are applied in that order.
        if sparse {
            let mut cand = self.tracked.take().expect("sparse tick is armed");
            cand.sort_unstable();
            cand.dedup();
            for &i in &cand {
                if self.occ[i] > 0 || !self.inject[i].is_empty() {
                    s.active.push(i);
                    s.is_active[i] = true;
                }
            }
            self.tracked = Some(cand);
        } else {
            for i in 0..n {
                if self.occ[i] > 0 || !self.inject[i].is_empty() {
                    s.active.push(i);
                    s.is_active[i] = true;
                }
            }
        }

        // One pass per active router: phase 0 (drain the injection queue),
        // the input-head read, phase 1 (arbitration) and phase 2 (move
        // planning). Fusing them equals running each phase over all
        // routers in turn, because a router's phases read only its own
        // queues and output owners plus its neighbours' non-local input
        // lengths; phase 0 writes only the router's own local port, and
        // planning writes only the move list.
        let fault = self.fault.as_ref();
        let width = self.width as usize;
        for &i in &s.active {
            let here = self.routers[i].coord;
            let dead = fault.is_some_and(|f| f.router_failed(here));
            let mut moved = 0u8;
            // phase 0: drain the injection queue into the local input port
            let local = &mut self.routers[i].inputs[LOCAL];
            while !dead && local.len() < self.buffer_cap {
                let Some(f) = self.inject[i].pop_front() else {
                    break;
                };
                if fault.is_some() {
                    s.progressed.push(f.packet);
                }
                moved |= 1 << INJECT_SLOT;
                self.occ[i] += 1;
                local.push_back(f);
            }
            if steady && moved != 0 {
                // rule 1
                steady = !self.inject[i].is_empty();
                s.fed[i] |= 1 << LOCAL;
                plan.drains.push(i);
            }
            // a router without buffered flits has no input heads
            if self.occ[i] > 0 {
                // input heads: per output, the inputs whose head flit
                // routes there (`wants`) and those that head a packet
                // (`requests`)
                let router = &mut self.routers[i];
                let mut packet = [0u64; 5];
                let mut wants = [0u8; 5];
                let mut requests = [0u8; 5];
                for (p, q) in router.inputs.iter().enumerate() {
                    if let Some(f) = q.front() {
                        let o = f.route_from(here).index();
                        packet[p] = f.packet;
                        wants[o] |= 1 << p;
                        if f.is_head {
                            requests[o] |= 1 << p;
                        }
                    }
                }
                // phase 1: wormhole allocation of each free output to the
                // first requesting input at or after its round-robin
                // pointer
                for (o, out) in router.outputs.iter_mut().enumerate() {
                    if out.owner.is_none() && requests[o] != 0 {
                        let m = u32::from(requests[o]);
                        let rotated = (m >> out.rr | m << (5 - out.rr)) & 0x1f;
                        let ii = (out.rr + rotated.trailing_zeros() as usize) % 5;
                        out.owner = Some(packet[ii]);
                        out.rr = (ii + 1) % 5;
                    }
                }
                // phase 2: plan at most one flit move per output port; a
                // dead router forwards nothing
                for (o, want) in wants.into_iter().enumerate() {
                    let Some(owner) = self.routers[i].outputs[o].owner.filter(|_| !dead) else {
                        continue;
                    };
                    // the owning packet's next flit must be at an input head
                    let Some(ii) = (0..5).find(|&p| want & 1 << p != 0 && packet[p] == owner)
                    else {
                        continue;
                    };
                    let out = Direction::ALL[o];
                    let nbi = neighbour(i, width, out);
                    if out != Direction::Local {
                        debug_assert_eq!(
                            here.hops_to(self.routers[nbi].coord),
                            1,
                            "routing stays in mesh"
                        );
                        // a cut link or dead neighbour blocks the move; so
                        // does a full downstream port (its one upstream
                        // link is this output, so its length is still the
                        // start-of-tick one). The flit waits and the stall
                        // trace ages. Ports facing each other across a link
                        // are index pairs: North 0 / South 1, East 2 / West 3.
                        if fault.is_some_and(|f| {
                            f.link_failed(here, out) || f.router_failed(self.routers[nbi].coord)
                        }) || self.routers[nbi].inputs[o ^ 1].len() >= self.buffer_cap
                        {
                            continue;
                        }
                    }
                    moved |= 1 << ii;
                    s.moves.push((i, ii, o, nbi));
                }
            }
            s.moved.push(moved);
        }

        // phase 3: apply moves simultaneously
        for mi in 0..s.moves.len() {
            let mv @ (i, ii, o, nbi) = s.moves[mi];
            let lands = self.fault.is_none() || self.fault_move(mv, &mut s.progressed);
            if steady && !lands {
                // rule 4
                steady = false;
                #[cfg(test)]
                {
                    plan.counts[4] += 1;
                }
            }
            if lands && o != LOCAL {
                if !s.is_active[nbi] {
                    s.is_active[nbi] = true;
                    s.active.push(nbi);
                    s.moved.push(0);
                }
                if steady {
                    s.fed[nbi] |= 1 << (o ^ 1);
                }
            }
            // a tail releases its output; `arm` finds who requests it next
            if self.move_flit(mv, lands, delivered).is_tail && steady {
                plan.rearm.push((i, o, ii, 0));
            }
        }

        // One pass ages the credit-stall trace and refreshes the candidate
        // set. A non-empty queue whose head could not move ages; every
        // other slot resets. Routers outside `active` have empty queues,
        // whose slots were zeroed when they drained. The candidates for the
        // next tick are the routers still holding work: `active` held every
        // router with work this tick plus every router a move reached, so
        // this stays a superset, and the retry maintenance below only adds
        // the sources it re-injects at (its purges only remove flits).
        if let Some(cand) = self.tracked.as_mut() {
            cand.clear();
        }
        for (&i, &moved) in s.active.iter().zip(&s.moved) {
            // rule 2: the inputs fed are the inputs drained by a move (a
            // router a move first reached was fed but drained nothing)
            steady &= s.fed[i] == moved & !(1 << INJECT_SLOT);
            s.fed[i] = 0;
            for p in 0..STALL_SLOTS {
                let empty = if p == INJECT_SLOT {
                    self.inject[i].is_empty()
                } else {
                    self.routers[i].inputs[p].is_empty()
                };
                let stuck = !empty && moved & 1 << p == 0;
                let age = &mut self.stall[i * STALL_SLOTS + p];
                *age = if stuck { *age + 1 } else { 0 };
                if stuck && steady {
                    plan.stuck.push(i * STALL_SLOTS + p);
                }
            }
            if let Some(cand) = self.tracked.as_mut() {
                if self.occ[i] > 0 || !self.inject[i].is_empty() {
                    cand.push(i);
                }
            }
        }
        if steady {
            std::mem::swap(&mut plan.moves, &mut s.moves);
        }
        self.arm(&mut plan, steady);
        self.replay = plan;

        // phase 4 (fault mode only): recall packets that lost a flit or
        // made no progress for the plan's retry horizon
        self.stamp_progress(&s.progressed);
        s.end();
        self.scratch = s;
        if self.fault.is_some() {
            self.retry_maintenance(sparse);
        }
    }

    /// Replays the plan the last tracked tick armed: its drains, the
    /// outputs its tails released, its moves in plan order and its stuck
    /// stall slots. Under a fault plan each move takes its fault step
    /// first, and the tick ends with phase 4 as a planned one does. The
    /// candidate set stays as it is, a superset: the same routers hold
    /// work, or fewer where a flit did not land.
    fn replay_tick(&mut self, delivered: &mut Vec<Delivered<T>>) {
        self.cycle += 1;
        self.stats.cycles = self.cycle;
        let mut plan = std::mem::take(&mut self.replay);
        let faulty = self.fault.is_some();
        for &i in &plan.drains {
            let f = self.inject[i]
                .pop_front()
                .expect("rule 1 left a flit queued");
            if faulty {
                self.scratch.progressed.push(f.packet);
            }
            self.routers[i].inputs[LOCAL].push_back(f);
            self.occ[i] += 1;
        }
        for &(i, o, ii, packet) in &plan.rearm {
            let out = &mut self.routers[i].outputs[o];
            out.owner = Some(packet);
            out.rr = (ii + 1) % 5;
        }
        #[cfg(test)]
        {
            plan.counts[0] += 1;
            plan.counts[1] += plan.rearm.len() as u64;
            plan.counts[3] += u64::from(faulty);
        }
        plan.rearm.clear();
        // rule 2 holds again if every move lands: the same moves and
        // drains fed and drained the same queues
        let landed = if faulty {
            self.replay_faulted_moves(&mut plan, delivered)
        } else {
            for &mv @ (i, ii, o, _) in &plan.moves {
                if self.move_flit(mv, true, delivered).is_tail {
                    plan.rearm.push((i, o, ii, 0));
                }
            }
            true
        };
        for &k in &plan.stuck {
            self.stall[k] += 1;
        }
        let steady = landed && plan.drains.iter().all(|&i| !self.inject[i].is_empty());
        self.arm(&mut plan, steady);
        self.replay = plan;
        if faulty {
            self.retry_maintenance(true);
        }
    }

    /// A replayed tick's moves under a fault plan: each takes its fault
    /// step first, as in phase 3, and the packets that progressed, the
    /// drained ones included, get phase 4's stamp. Returns whether every
    /// move landed.
    fn replay_faulted_moves(
        &mut self,
        plan: &mut Replay,
        delivered: &mut Vec<Delivered<T>>,
    ) -> bool {
        let mut progressed = std::mem::take(&mut self.scratch.progressed);
        let mut landed = true;
        for &mv @ (i, ii, o, _) in &plan.moves {
            let lands = self.fault_move(mv, &mut progressed);
            #[cfg(test)]
            if landed && !lands {
                plan.counts[4] += 1;
            }
            landed &= lands;
            if self.move_flit(mv, lands, delivered).is_tail {
                plan.rearm.push((i, o, ii, 0));
            }
        }
        self.stamp_progress(&progressed);
        progressed.clear();
        self.scratch.progressed = progressed;
        landed
    }

    /// Phase 4's progress stamp: every packet that drained or moved a flit
    /// this tick made progress now.
    fn stamp_progress(&mut self, progressed: &[u64]) {
        for &id in progressed {
            if let Some(fl) = self.flights.get_mut(&id) {
                fl.last_progress = self.cycle;
            }
        }
    }

    /// Arms `plan` for the next tick if rules 1 and 2 held (`steady`) and
    /// rule 3 holds: each output in `plan.rearm` is requested next by
    /// exactly one head, at the front of the released tail's input. Fills
    /// in the packet each output goes to.
    fn arm(&self, plan: &mut Replay, steady: bool) {
        plan.armed = steady
            && plan.rearm.iter_mut().all(|(i, o, ii, packet)| {
                let r = &self.routers[*i];
                let mut heads = (0..5).filter_map(|p| {
                    // phase 0 refills an empty local input first
                    let f = r.inputs[p]
                        .front()
                        .or_else(|| self.inject[*i].front().filter(|_| p == LOCAL))?;
                    (f.is_head && f.route_from(r.coord).index() == *o).then_some((p, f.packet))
                });
                match (heads.next(), heads.next()) {
                    (Some((p, id)), None) if p == *ii => {
                        *packet = id;
                        true
                    }
                    _ => false,
                }
            });
        #[cfg(test)]
        if steady && !plan.armed {
            plan.counts[2] += 1;
        }
    }

    /// Phase 3's move of one planned flit, shared by the planned and the
    /// replayed tick: pops the flit, releasing the output on a tail; then,
    /// if it `lands`, delivers it at a local output or hops it into the
    /// downstream input. A flit a fault dropped or a CRC check rejected
    /// lands nowhere.
    fn move_flit(
        &mut self,
        (i, ii, o, nbi): Move,
        lands: bool,
        delivered: &mut Vec<Delivered<T>>,
    ) -> Flit {
        let f = self.routers[i].inputs[ii]
            .pop_front()
            .expect("planned move has a flit");
        self.occ[i] -= 1;
        if f.is_tail {
            self.routers[i].outputs[o].owner = None;
        }
        if !lands {
            return f;
        }
        if o == LOCAL {
            let fl = self
                .flights
                .get_mut(&f.packet)
                .expect("flit belongs to a live packet");
            fl.delivered_flits += 1;
            if f.is_tail {
                let fl = self.flights.remove(&f.packet).expect("present");
                debug_assert_eq!(fl.delivered_flits, fl.packet.flits);
                self.stats.packets_delivered += 1;
                self.stats.total_latency += self.cycle - fl.sent_at;
                delivered.push(Delivered {
                    packet: fl.packet,
                    sent_at: fl.sent_at,
                    arrived_at: self.cycle,
                    corrupted: fl.crc_damaged,
                });
            }
        } else {
            self.routers[nbi].inputs[o ^ 1].push_back(f);
            self.occ[nbi] += 1;
            self.stats.flit_hops += 1;
            self.link_load[i * 5 + o] += 1;
        }
        f
    }

    /// Phase 3's fault handling for one planned move, in plan order and
    /// before the flit leaves its queue: progress tracking, the
    /// destination's CRC check on a tail, and a hop's drop and corruption
    /// draws. Returns whether the flit lands.
    fn fault_move(&mut self, (i, ii, o, _): Move, progressed: &mut Vec<u64>) -> bool {
        let f = *self.routers[i].inputs[ii]
            .front()
            .expect("planned move has a flit");
        let fs = self.fault.as_mut().expect("a fault plan is attached");
        if o == LOCAL {
            progressed.push(f.packet);
            // packet CRC check at the receiver: a corrupted wormhole is
            // NACKed back for retransmission when a policy is attached,
            // delivered flagged when not
            let Some(policy) = self.retry_policy.filter(|_| f.is_tail) else {
                return true;
            };
            let fl = self
                .flights
                .get_mut(&f.packet)
                .expect("flit belongs to a live packet");
            if !fl.crc_damaged {
                return true;
            }
            if fl.retries < policy.max_retries {
                fl.retries += 1;
                fl.crc_damaged = false;
                fl.damaged = false;
                fl.delivered_flits = 0;
                fl.yx = !fl.yx;
                fl.last_progress = self.cycle;
                let release = self.cycle + policy.backoff(fl.retries - 1);
                fl.release_at = Some(release);
                self.bounds.release = self.bounds.release.min(release);
                fs.stats.crc_rejects += 1;
            } else {
                let fl = self.flights.remove(&f.packet).expect("present");
                fs.stats.packets_lost += 1;
                self.errors.push(NocError::PacketLost {
                    packet: f.packet,
                    src: fl.packet.src,
                    dst: fl.packet.dst,
                    retries: fl.retries,
                });
            }
            return false;
        }
        // transient link fault: the flit vanishes in transit and the
        // wormhole is recalled at maintenance time
        if fs.rng.chance(fs.plan.drop_rate) {
            fs.stats.flits_dropped += 1;
            if let Some(fl) = self.flights.get_mut(&f.packet) {
                fl.damaged = true;
                self.bounds.dropped = true;
            }
            return false;
        }
        // a corrupted flit keeps moving; the destination's packet CRC
        // rejects the wormhole on arrival
        if fs.rng.chance(fs.plan.corrupt_rate) {
            fs.stats.flits_corrupted += 1;
            if let Some(fl) = self.flights.get_mut(&f.packet) {
                fl.crc_damaged = true;
            }
        }
        progressed.push(f.packet);
        true
    }

    /// Recalls stalled/damaged packets: purge, then retry on the alternate
    /// dimension order or retire as [`NocError::PacketLost`]. When
    /// `bounded`, the flight table is scanned only if a flit was dropped
    /// or the oldest progress stamp has reached the recall horizon.
    fn retry_maintenance(&mut self, bounded: bool) {
        let Some(fs) = self.fault.as_ref() else {
            return;
        };
        // a quiet plan can never lose a flit, so a long stall is ordinary
        // congestion — recalling would break the identity guarantee
        if fs.plan.is_quiet() {
            return;
        }
        let retry_after = fs.plan.retry_after;
        let cycle = self.cycle;
        if bounded
            && !self.bounds.dropped
            && cycle.saturating_sub(self.bounds.progress) < retry_after
        {
            return;
        }
        let max_retries = self
            .retry_policy
            .map_or(fs.plan.max_retries, |p| p.max_retries);
        let mut stale = Vec::new();
        let mut oldest = u64::MAX;
        for (&id, fl) in &self.flights {
            if fl.release_at.is_some() {
                continue;
            }
            if fl.damaged || cycle.saturating_sub(fl.last_progress) >= retry_after {
                stale.push(id);
            } else {
                oldest = oldest.min(fl.last_progress);
            }
        }
        self.bounds.dropped = false;
        if stale.is_empty() {
            self.bounds.progress = oldest;
            return;
        }
        // a recall without a policy stamps its packet now
        self.bounds.progress = oldest.min(cycle);
        // rule 6
        #[cfg(test)]
        if self.replay.armed {
            self.replay.counts[6] += 1;
        }
        self.replay.armed = false;
        // HashMap iteration order is arbitrary; recall in ascending id
        // order so re-injection order (and everything downstream of it)
        // is deterministic
        stale.sort_unstable();
        for id in stale {
            self.purge_packet(id);
            let fl = self.flights.get(&id).expect("stale id is live");
            let (src, dst, flits, retries) =
                (fl.packet.src, fl.packet.dst, fl.packet.flits, fl.retries);
            if retries < max_retries {
                let src_i = self.idx(src);
                let policy = self.retry_policy;
                let fl = self.flights.get_mut(&id).expect("present");
                fl.retries += 1;
                fl.damaged = false;
                fl.crc_damaged = false;
                fl.delivered_flits = 0;
                fl.last_progress = cycle;
                fl.yx = !fl.yx;
                let yx = fl.yx;
                if let Some(policy) = policy {
                    // with a retransmission policy the recall waits out an
                    // exponential backoff before re-entering the network
                    let release = cycle + policy.backoff(fl.retries - 1);
                    fl.release_at = Some(release);
                    self.bounds.release = self.bounds.release.min(release);
                } else {
                    for k in 0..flits {
                        self.inject[src_i].push_back(Flit {
                            packet: id,
                            dst,
                            is_head: k == 0,
                            is_tail: k + 1 == flits,
                            yx,
                        });
                    }
                    if let Some(cand) = self.tracked.as_mut() {
                        cand.push(src_i);
                    }
                }
                if let Some(fs) = self.fault.as_mut() {
                    fs.stats.retries += 1;
                }
            } else {
                let fl = self.flights.remove(&id).expect("present");
                if let Some(fs) = self.fault.as_mut() {
                    fs.stats.packets_lost += 1;
                }
                self.errors.push(NocError::PacketLost {
                    packet: id,
                    src: fl.packet.src,
                    dst: fl.packet.dst,
                    retries: fl.retries,
                });
            }
        }
    }

    /// Removes every buffered flit of packet `id` and releases its
    /// wormhole ownerships. They lie only on the route of the packet's
    /// current attempt, source and destination included, and in its
    /// source's injection queue: a recall purges before it flips the
    /// dimension order, and a CRC NACK comes only once every flit was
    /// delivered. Routers off the route keep their queues, and their empty
    /// queues already hold zeroed stall slots.
    fn purge_packet(&mut self, id: u64) {
        let fl = &self.flights[&id];
        let (src, dst, yx) = (fl.packet.src, fl.packet.dst, fl.yx);
        let width = self.width as usize;
        let mut i = self.idx(src);
        loop {
            let r = &mut self.routers[i];
            let mut occ = 0;
            for (p, q) in r.inputs.iter_mut().enumerate() {
                q.retain(|f| f.packet != id);
                occ += q.len();
                if q.is_empty() {
                    // inactive routers are skipped by the stall pass, so a
                    // queue emptied here must hand back a zeroed slot
                    self.stall[i * STALL_SLOTS + p] = 0;
                }
            }
            self.occ[i] = occ;
            for o in &mut r.outputs {
                if o.owner == Some(id) {
                    o.owner = None;
                }
            }
            let out = route(r.coord, dst, yx);
            if out == Direction::Local {
                break;
            }
            i = neighbour(i, width, out);
        }
        let i = self.idx(src);
        self.inject[i].retain(|f| f.packet != id);
        if self.inject[i].is_empty() {
            self.stall[i * STALL_SLOTS + INJECT_SLOT] = 0;
        }
    }

    /// Ticks until the mesh drains or `max_cycles` elapse, collecting all
    /// deliveries.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Delivered<T>> {
        let mut all = Vec::new();
        for _ in 0..max_cycles {
            all.extend(self.tick());
            if self.is_idle() {
                break;
            }
        }
        all
    }

    /// Runs with a cycle budget and a no-progress watchdog.
    ///
    /// Delivers like [`Mesh::run_until_idle`], but instead of silently
    /// spinning on a deadlock or livelock it returns a typed [`NocError`]:
    ///
    /// * [`NocError::Wedged`] after `horizon` consecutive cycles with zero
    ///   progress (no flit movement, injection, delivery, retry or
    ///   retirement) — the credit-stall trace names the router and port
    ///   whose queue has waited longest;
    /// * [`NocError::Budget`] when `max_cycles` elapse while the mesh is
    ///   still (slowly) making progress.
    ///
    /// Lost packets are *not* errors here: they are degraded outcomes
    /// recorded in [`Mesh::fault_stats`] and drained via
    /// [`Mesh::take_errors`]. When using fault retries, pick a `horizon`
    /// larger than the plan's `retry_after` so recalls count as progress
    /// before the watchdog fires.
    ///
    /// # Errors
    ///
    /// [`NocError::Wedged`] on stall, [`NocError::Budget`] on timeout.
    pub fn run_guarded(
        &mut self,
        max_cycles: u64,
        horizon: u64,
    ) -> Result<Vec<Delivered<T>>, NocError> {
        let mut all = Vec::new();
        let mut last = self.progress_metric();
        let mut stalled = 0u64;
        for _ in 0..max_cycles {
            all.extend(self.tick());
            if self.is_idle() {
                return Ok(all);
            }
            let now = self.progress_metric();
            if now == last {
                // a retransmission backoff is deliberate silence, not a
                // wedge — the release is already scheduled
                if self.has_pending_retx() {
                    stalled = 0;
                } else {
                    stalled += 1;
                    if stalled >= horizon {
                        return Err(self.wedge_report());
                    }
                }
            } else {
                stalled = 0;
                last = now;
            }
        }
        Err(NocError::Budget {
            budget: max_cycles,
            in_flight: self.flights.len(),
        })
    }

    /// Snapshot of everything that changes when the mesh makes progress.
    #[allow(clippy::type_complexity)]
    fn progress_metric(&self) -> (u64, u64, u64, u64, u64, usize, usize) {
        let (retries, rejects, lost) = self.fault.as_ref().map_or((0, 0, 0), |f| {
            (f.stats.retries, f.stats.crc_rejects, f.stats.packets_lost)
        });
        (
            self.stats.flit_hops,
            self.stats.packets_delivered,
            retries,
            rejects,
            lost,
            self.occ.iter().sum(),
            self.inject.iter().map(VecDeque::len).sum(),
        )
    }

    /// Names the router/port whose queue has stalled longest — the
    /// credit-stall trace behind [`NocError::Wedged`]. Public so fabric
    /// layers that give up on a stuck mesh (budget exhaustion with zero
    /// progress) can localize the culprit in their own reports.
    #[must_use]
    pub fn wedge_report(&self) -> NocError {
        let (slot, &age) = self
            .stall
            .iter()
            .enumerate()
            .max_by_key(|&(_, &a)| a)
            .expect("mesh has routers");
        let i = slot / STALL_SLOTS;
        let p = slot % STALL_SLOTS;
        let (port, occupancy) = if p == INJECT_SLOT {
            (Direction::Local, self.inject[i].len())
        } else {
            (Direction::ALL[p], self.routers[i].inputs[p].len())
        };
        NocError::Wedged {
            router: self.routers[i].coord,
            port,
            stalled_for: age,
            occupancy,
        }
    }

    /// The most heavily used link's flit count — the congestion hotspot.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn max_link_load(&self) -> u64 {
        self.link_load.iter().copied().max().unwrap_or(0)
    }

    /// Flit counts per link, as ((router coord), output port index).
    #[must_use]
    pub fn link_loads(&self) -> Vec<(Coord, usize, u64)> {
        let mut v: Vec<(Coord, usize, u64)> = self
            .link_load
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(k, &n)| (self.routers[k / 5].coord, k % 5, n))
            .collect();
        v.sort_by_key(|&(c, p, _)| (c.y, c.x, p));
        v
    }

    /// Analytic zero-load latency: one cycle per hop, one ejection cycle,
    /// plus tail serialization (`hops + flits` in total).
    #[must_use]
    pub fn zero_load_latency(src: Coord, dst: Coord, flits: usize) -> u64 {
        u64::from(src.hops_to(dst)) + 1 + (flits as u64 - 1)
    }
}

/// The router one hop from router `i` through output `out` on a mesh
/// `width` routers wide; `i` itself for `Local`.
fn neighbour(i: usize, width: usize, out: Direction) -> usize {
    match out {
        Direction::North => i - width,
        Direction::South => i + width,
        Direction::East => i + 1,
        Direction::West => i - 1,
        Direction::Local => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_packet_zero_load_latency() {
        let mut mesh: Mesh<u32> = Mesh::new(8, 8);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(5, 3), 1, 7));
        let d = mesh.run_until_idle(100);
        assert_eq!(d.len(), 1);
        let lat = d[0].arrived_at - d[0].sent_at;
        assert_eq!(lat, Mesh::<u32>::zero_load_latency(Coord::new(0, 0), Coord::new(5, 3), 1));
    }

    #[test]
    fn multi_flit_serialization_adds_latency() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 4);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 0), 9, 0));
        let d = mesh.run_until_idle(100);
        let lat = d[0].arrived_at - d[0].sent_at;
        assert_eq!(lat, 3 + 1 + 8);
    }

    #[test]
    fn local_delivery_same_tile() {
        let mut mesh: Mesh<u32> = Mesh::new(2, 2);
        mesh.send(Packet::new(Coord::new(1, 1), Coord::new(1, 1), 1, 5));
        let d = mesh.run_until_idle(10);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn wormhole_packets_do_not_interleave() {
        // two 9-flit packets fight for the same link; both must arrive whole
        let mut mesh: Mesh<u32> = Mesh::new(4, 1);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 0), 9, 1));
        mesh.send(Packet::new(Coord::new(1, 0), Coord::new(3, 0), 9, 2));
        let d = mesh.run_until_idle(200);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn contention_slows_but_delivers() {
        // all tiles fire at one hotspot
        let mut mesh: Mesh<u32> = Mesh::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                if (x, y) != (3, 3) {
                    mesh.send(Packet::new(Coord::new(x, y), Coord::new(3, 3), 2, 0));
                }
            }
        }
        let d = mesh.run_until_idle(1000);
        assert_eq!(d.len(), 15);
        assert!(mesh.stats().mean_latency() > 5.0);
    }

    #[test]
    fn stats_count_flit_hops() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 1);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 0), 2, 0));
        mesh.run_until_idle(100);
        // 2 flits × 3 hops
        assert_eq!(mesh.stats().flit_hops, 6);
        assert!(mesh.stats().dynamic_pj() > 0.0);
    }

    #[test]
    fn is_idle_after_drain() {
        let mut mesh: Mesh<u32> = Mesh::new(3, 3);
        assert!(mesh.is_idle());
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(2, 2), 3, 0));
        assert!(!mesh.is_idle());
        mesh.run_until_idle(100);
        assert!(mesh.is_idle());
    }

    #[test]
    #[should_panic(expected = "outside the mesh")]
    fn endpoint_bounds_checked() {
        let mut mesh: Mesh<u32> = Mesh::new(2, 2);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(5, 5), 1, 0));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut mesh: Mesh<u32> = Mesh::new(4, 4);
            for i in 0..10u32 {
                mesh.send(Packet::new(
                    Coord::new((i % 4) as u8, (i / 4) as u8),
                    Coord::new(3, 3),
                    3,
                    i,
                ));
            }
            let mut d = mesh.run_until_idle(1000);
            d.sort_by_key(|x| (x.arrived_at, x.packet.payload));
            d.iter()
                .map(|x| (x.packet.payload, x.arrived_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bisection_traffic_loads_the_cut_evenly() {
        // every west-half tile sends one packet straight east: under X-Y
        // routing each row's middle link carries exactly its row's traffic
        let mut mesh: Mesh<u32> = Mesh::new(8, 8);
        for y in 0..8u8 {
            for x in 0..4u8 {
                mesh.send(Packet::new(Coord::new(x, y), Coord::new(x + 4, y), 2, 0));
            }
        }
        let d = mesh.run_until_idle(10_000);
        assert_eq!(d.len(), 32);
        // links crossing the bisection: column 3 → 4, one per row
        let crossing: Vec<u64> = mesh
            .link_loads()
            .into_iter()
            .filter(|&(c, p, _)| c.x == 3 && p == Direction::East.index())
            .map(|(_, _, n)| n)
            .collect();
        assert_eq!(crossing.len(), 8);
        // each row's cut link carries its 4 packets × 2 flits = 8 flits
        assert!(crossing.iter().all(|&n| n == 8), "{crossing:?}");
        assert_eq!(mesh.max_link_load(), 8);
    }

    #[test]
    fn advance_to_equals_explicit_ticks() {
        // two identical meshes run identical traffic; across the idle gap
        // one ticks N times and the other jumps — every later observable
        // (clock, stats, next delivery) must agree
        let drive = |mesh: &mut Mesh<u32>| {
            mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 2), 4, 9));
            mesh.run_until_idle(1_000);
        };
        let mut ticked: Mesh<u32> = Mesh::new(4, 4);
        let mut jumped: Mesh<u32> = Mesh::new(4, 4);
        drive(&mut ticked);
        drive(&mut jumped);
        assert_eq!(ticked.cycle(), jumped.cycle());
        let target = ticked.cycle() + 1_234;
        for _ in 0..1_234 {
            assert!(ticked.tick().is_empty());
        }
        jumped.advance_to(target);
        assert_eq!(ticked.cycle(), jumped.cycle());
        assert_eq!(ticked.stats(), jumped.stats());
        // traffic after the gap behaves identically
        let after = |mesh: &mut Mesh<u32>| {
            mesh.send(Packet::new(Coord::new(1, 3), Coord::new(2, 0), 2, 4));
            mesh.run_until_idle(1_000)
        };
        let a = after(&mut ticked);
        let b = after(&mut jumped);
        assert_eq!(a, b);
        assert_eq!(ticked.stats(), jumped.stats());
    }

    #[test]
    fn next_event_cycle_tracks_idleness() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 4);
        assert_eq!(mesh.next_event_cycle(), None);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 3), 2, 0));
        assert_eq!(mesh.next_event_cycle(), Some(mesh.cycle() + 1));
        mesh.run_until_idle(1_000);
        assert_eq!(mesh.next_event_cycle(), None);
        // a past target is a no-op, not a rewind
        let now = mesh.cycle();
        mesh.advance_to(now.saturating_sub(3));
        assert_eq!(mesh.cycle(), now);
    }

    #[test]
    #[should_panic(expected = "drained")]
    fn advance_to_rejects_busy_mesh() {
        let mut mesh: Mesh<u32> = Mesh::new(4, 4);
        mesh.send(Packet::new(Coord::new(0, 0), Coord::new(3, 3), 2, 0));
        mesh.advance_to(100);
    }

    #[test]
    fn hotspot_concentrates_link_load() {
        let mut mesh: Mesh<u32> = Mesh::new(8, 1);
        for x in 0..7u8 {
            mesh.send(Packet::new(Coord::new(x, 0), Coord::new(7, 0), 1, 0));
        }
        mesh.run_until_idle(10_000);
        // the last link before the hotspot carries all seven flits
        assert_eq!(mesh.max_link_load(), 7);
    }

    /// No plan, or a plan with drop and corrupt rates, 0–2 dead routers,
    /// 0–3 cut links and a short recall horizon.
    fn fault_plans() -> impl Strategy<Value = Option<NocFaultPlan>> {
        let tile = || (0u8..6, 0u8..6);
        prop_oneof![
            Just(None),
            (
                any::<u64>(),
                0.0f64..0.05,
                0.0f64..0.05,
                8u64..64,
                0u32..3,
                proptest::collection::vec(tile(), 0..3),
                proptest::collection::vec((tile(), 0usize..4), 0..4),
            )
                .prop_map(|(seed, drop, corrupt, after, retries, routers, links)| {
                    let mut plan = NocFaultPlan::with_seed(seed)
                        .drop_rate(drop)
                        .corrupt_rate(corrupt)
                        .retry_after(after)
                        .max_retries(retries);
                    for (x, y) in routers {
                        plan = plan.fail_router(Coord::new(x, y));
                    }
                    for ((x, y), d) in links {
                        plan = plan.fail_link(Coord::new(x, y), Direction::ALL[d]);
                    }
                    Some(plan)
                }),
        ]
    }

    /// No retransmission policy, or one with a random budget and backoff.
    fn retry_policies() -> impl Strategy<Value = Option<RetryPolicy>> {
        prop_oneof![
            Just(None),
            (0u32..4, 1u64..16).prop_map(|(max_retries, base_delay)| {
                Some(RetryPolicy {
                    max_retries,
                    base_delay,
                })
            }),
        ]
    }

    /// Arms tracking on `part`, sends each packet of `queue` to both
    /// meshes at its cycle, ticks `full` with the full scan and `part` with
    /// the tracked tick, and compares every observable on every cycle
    /// until the traffic drains. The stall trace is compared too: it
    /// reaches users through the wedge report.
    fn lockstep(
        full: &mut Mesh<usize>,
        part: &mut Mesh<usize>,
        mut queue: Vec<(u64, Packet<usize>)>,
    ) -> Result<(), TestCaseError> {
        part.enable_partitioned_stepping();
        queue.sort_by_key(|&(at, _)| at);
        let mut out = Vec::new();
        for cycle in 0..50_000u64 {
            while queue.first().is_some_and(|&(at, _)| at <= cycle) {
                let (_, p) = queue.remove(0);
                full.send(p.clone());
                part.send(p);
            }
            let df = full.tick();
            out.clear();
            part.tick_partitioned(&mut out);
            prop_assert_eq!(&df, &out, "delivery divergence at cycle {}", cycle);
            prop_assert_eq!(full.stats(), part.stats());
            prop_assert_eq!(full.fault_stats(), part.fault_stats());
            prop_assert_eq!(full.take_errors(), part.take_errors());
            prop_assert_eq!(full.wedge_report(), part.wedge_report());
            prop_assert_eq!(full.link_loads(), part.link_loads());
            prop_assert_eq!(full.is_idle(), part.is_idle());
            if queue.is_empty() && full.is_idle() {
                break;
            }
        }
        prop_assert!(full.is_idle() && queue.is_empty(), "traffic must drain");
        Ok(())
    }

    /// A train's endpoints, `((sx, sy), (dx, dy))`.
    type Pair = ((u8, u8), (u8, u8));

    /// Endpoint pairs of wormhole trains on a 6×6 mesh: one-hop streams
    /// like a data-collection core's rows to its first computing core,
    /// long X-Y routes, two trains merging onto router (3, 1)'s South
    /// output, and four trains into a hotspot.
    const TRAINS: [&[Pair]; 4] = [
        &[((0, 0), (1, 0)), ((1, 0), (2, 0)), ((4, 3), (4, 4))],
        &[((0, 0), (5, 5)), ((5, 0), (0, 5)), ((2, 5), (4, 0))],
        &[((0, 1), (3, 3)), ((3, 0), (3, 3))],
        &[
            ((0, 0), (4, 4)),
            ((5, 1), (4, 4)),
            ((1, 5), (4, 4)),
            ((4, 0), (4, 4)),
        ],
    ];

    /// One train case: a shape from [`TRAINS`], bursts of back-to-back
    /// packets of 1–9 flits on its pairs (burst `b` is sent at cycle
    /// `60 b`), a few uniform sends mid-run, and a buffer depth of 1–4.
    fn train_traffic(rng: &mut TestRng) -> (Vec<(u64, Packet<usize>)>, usize) {
        let (shape, bursts, late, cap) = (
            0usize..TRAINS.len(),
            proptest::collection::vec((0usize..4, 1usize..10, 0u64..3), 4..40),
            proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..6, 0u8..6, 1usize..10, 1u64..200),
                0..4,
            ),
            1usize..=4,
        )
            .generate(rng);
        let pairs = TRAINS[shape];
        let mut queue: Vec<_> = bursts
            .iter()
            .enumerate()
            .map(|(k, &(pair, flits, burst))| {
                let ((sx, sy), (dx, dy)) = pairs[pair % pairs.len()];
                let p = Packet::new(Coord::new(sx, sy), Coord::new(dx, dy), flits, k);
                (60 * burst, p)
            })
            .collect();
        queue.extend(
            late.iter()
                .enumerate()
                .map(|(k, &(sx, sy, dx, dy, flits, at))| {
                    let p = Packet::new(
                        Coord::new(sx, sy),
                        Coord::new(dx, dy),
                        flits,
                        bursts.len() + k,
                    );
                    (at, p)
                }),
        );
        (queue, cap)
    }

    /// Wormhole trains are what the tracked tick replays, so this compares
    /// it with the full scan on train traffic, and checks that the cases
    /// replayed ticks, re-armed outputs and refused re-arms.
    #[test]
    fn trains_replay_matches_full_scan() {
        let mut rng = TestRng::from_name("mesh::tests::trains_replay_matches_full_scan");
        let mut counts = [0u64; 7];
        for case in 0..32 {
            let (queue, cap) = train_traffic(&mut rng);
            let mut full: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            let mut part: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            if let Err(e) = lockstep(&mut full, &mut part, queue) {
                panic!("case {case}: {e:?}");
            }
            for (total, n) in counts.iter_mut().zip(part.replay.counts) {
                *total += n;
            }
        }
        let [replayed, rearmed, refused, ..] = counts;
        assert!(replayed > 0 && rearmed > 0 && refused > 0, "{counts:?}");
    }

    /// The train lockstep under fault plans and retransmission policies,
    /// attached to both meshes alike. The cases must replay under a plan,
    /// refuse to arm because a move did not land, set an armed plan aside
    /// because a release was due, and drop an armed plan on a recall.
    #[test]
    fn faulted_trains_replay_matches_full_scan() {
        let mut rng = TestRng::from_name("mesh::tests::faulted_trains_replay_matches_full_scan");
        let mut counts = [0u64; 7];
        for case in 0..64 {
            let (queue, cap) = train_traffic(&mut rng);
            let (plan, retry) = (fault_plans(), retry_policies()).generate(&mut rng);
            let mut full: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            let mut part: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            for mesh in [&mut full, &mut part] {
                if let Some(plan) = &plan {
                    mesh.attach_fault_plan(plan.clone());
                }
                mesh.set_retry_policy(retry);
            }
            if let Err(e) = lockstep(&mut full, &mut part, queue) {
                panic!("case {case} ({plan:?}, {retry:?}): {e:?}");
            }
            for (total, n) in counts.iter_mut().zip(part.replay.counts) {
                *total += n;
            }
        }
        let [.., faulted, unlanded, released, recalled] = counts;
        assert!(
            faulted > 0 && unlanded > 0 && released > 0 && recalled > 0,
            "{counts:?}"
        );
    }

    /// A clone taken while the tracked tick replays, as a checkpoint
    /// would, plans its first tick afresh and then ticks in step with the
    /// original.
    #[test]
    fn clone_during_replay_ticks_in_step() {
        let mut mesh: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        mesh.enable_partitioned_stepping();
        for k in 0..12 {
            mesh.send(Packet::new(Coord::new(0, 1), Coord::new(7, 6), 9, k));
            mesh.send(Packet::new(
                Coord::new(2, 0),
                Coord::new(2, 5),
                1 + k % 9,
                100 + k,
            ));
        }
        let mut out = Vec::new();
        while !mesh.replay.armed {
            mesh.tick_partitioned(&mut out);
        }
        mesh.tick_partitioned(&mut out);
        assert!(mesh.replay.armed, "the trains replay");
        let mut copy = mesh.clone();
        assert!(!copy.replay.armed);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while !mesh.is_idle() {
            a.clear();
            b.clear();
            mesh.tick_partitioned(&mut a);
            copy.tick_partitioned(&mut b);
            assert_eq!(a, b, "cycle {}", mesh.cycle());
            assert_eq!(mesh.stats(), copy.stats());
            assert_eq!(mesh.wedge_report(), copy.wedge_report());
            assert_eq!(mesh.link_loads(), copy.link_loads());
        }
        assert!(copy.is_idle());
        assert_eq!(mesh.stats().packets_delivered, 24);
        assert!(copy.replay.counts[0] > 0, "the clone replays too");
    }

    /// `clone_from` over a mesh that has diverged from the source (other
    /// traffic, size, fault plan and tracking, or mid-replay) gives the
    /// mesh a fresh `clone` gives: the two tick to idle in lockstep.
    #[test]
    fn clone_from_over_a_diverged_mesh_ticks_like_a_clone() {
        let trains = |mesh: &mut Mesh<usize>, from: Coord, to: Coord, n: usize| {
            for k in 0..n {
                mesh.send(Packet::new(from, to, 9, k));
                mesh.send(Packet::new(to, from, 1 + k % 9, 100 + k));
            }
        };
        // the source: tracked, under drops and corruption with a retry
        // policy, caught in the middle of a replay with a retransmission
        // pending
        let mut src: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        src.attach_fault_plan(
            NocFaultPlan::with_seed(11)
                .drop_rate(0.002)
                .corrupt_rate(0.004)
                .retry_after(48)
                .max_retries(6),
        );
        src.set_retry_policy(Some(RetryPolicy::default()));
        src.enable_partitioned_stepping();
        trains(&mut src, Coord::new(0, 1), Coord::new(7, 6), 12);
        trains(&mut src, Coord::new(2, 0), Coord::new(2, 7), 6);
        let mut out = Vec::new();
        while !(src.replay.armed && src.bounds.release < u64::MAX) {
            assert!(!src.is_idle(), "the source drained before the clone");
            src.tick_partitioned(&mut out);
        }
        // the diverged targets: untracked with other traffic; smaller,
        // deeper, with another plan and a dead router; mid-replay; larger
        // and idle
        let mut untracked: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        trains(&mut untracked, Coord::new(5, 5), Coord::new(0, 0), 5);
        for _ in 0..40 {
            untracked.tick();
        }
        let mut small: Mesh<usize> = Mesh::with_buffer(6, 6, 3);
        small.attach_fault_plan(
            NocFaultPlan::with_seed(3)
                .drop_rate(0.05)
                .fail_router(Coord::new(3, 3)),
        );
        small.enable_partitioned_stepping();
        trains(&mut small, Coord::new(0, 0), Coord::new(5, 5), 4);
        for _ in 0..30 {
            small.tick_partitioned(&mut out);
        }
        let mut replaying: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        replaying.enable_partitioned_stepping();
        trains(&mut replaying, Coord::new(0, 1), Coord::new(7, 6), 12);
        while !replaying.replay.armed {
            replaying.tick_partitioned(&mut out);
        }
        let large: Mesh<usize> = Mesh::new(16, 16);
        for mut target in [untracked, small, replaying, large] {
            target.clone_from(&src);
            let mut fresh = src.clone();
            assert!(!target.replay.armed);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            while !fresh.is_idle() {
                a.clear();
                b.clear();
                target.tick_partitioned(&mut a);
                fresh.tick_partitioned(&mut b);
                assert_eq!(a, b, "cycle {}", fresh.cycle());
                assert_eq!(target.stats(), fresh.stats());
                assert_eq!(target.fault_stats(), fresh.fault_stats());
                assert_eq!(target.take_errors(), fresh.take_errors());
                assert_eq!(target.wedge_report(), fresh.wedge_report());
                assert_eq!(target.link_loads(), fresh.link_loads());
            }
            assert!(target.is_idle());
            assert_eq!(target.replay.counts, fresh.replay.counts);
            assert!(fresh.replay.counts[0] > 0, "the copies replay");
            assert!(fresh.fault_stats().crc_rejects > 0, "the plan fires");
        }
    }

    /// A full-scan tick and a fault plan attached mid-replay each drop the
    /// current plan, so the tracked mesh keeps matching one ticked by full
    /// scan: a stale plan would move flits twice, or into the router the
    /// fault plan kills. The fault plan does not turn the replay off: the
    /// tracked mesh replays again under it, with the same drop draws as
    /// the full scan.
    #[test]
    fn full_scan_tick_and_fault_plan_drop_the_replay() {
        let mut full: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        let mut part: Mesh<usize> = Mesh::with_buffer(8, 8, 2);
        part.enable_partitioned_stepping();
        for mesh in [&mut full, &mut part] {
            for k in 0..12 {
                mesh.send(Packet::new(Coord::new(0, 1), Coord::new(7, 6), 9, k));
            }
        }
        let step = |full: &mut Mesh<usize>, part: &mut Mesh<usize>, scan: bool| {
            let a = full.tick();
            let mut b = Vec::new();
            if scan {
                b = part.tick();
            } else {
                part.tick_partitioned(&mut b);
            }
            assert_eq!(a, b, "cycle {}", full.cycle());
            assert_eq!(full.stats(), part.stats());
            assert_eq!(full.fault_stats(), part.fault_stats());
            assert_eq!(full.wedge_report(), part.wedge_report());
        };
        while !part.replay.armed {
            step(&mut full, &mut part, false);
        }
        step(&mut full, &mut part, true);
        assert!(!part.replay.armed);
        while !part.replay.armed {
            step(&mut full, &mut part, false);
        }
        let plan = NocFaultPlan::with_seed(5)
            .drop_rate(0.02)
            .fail_router(Coord::new(7, 3))
            .retry_after(16);
        full.attach_fault_plan(plan.clone());
        part.attach_fault_plan(plan);
        assert!(!part.replay.armed);
        while !full.is_idle() {
            step(&mut full, &mut part, false);
        }
        assert!(part.is_idle());
        assert!(full.fault_stats().flits_dropped > 0);
        assert!(part.replay.counts[3] > 0, "the replay runs under the plan");
    }

    /// A NACKed packet waits out its backoff while the recall scan finds
    /// every packet in backoff and so drops its bound. Released onto the
    /// Y-X route, the packet stalls at a cut link: the tracked tick must
    /// recall it on the same cycle as the full scan, so the release has
    /// to lower the recall bound.
    #[test]
    fn released_packet_that_stalls_again_is_recalled() {
        let plan = NocFaultPlan::with_seed(1)
            .corrupt_rate(1.0)
            .fail_link(Coord::new(0, 0), Direction::South)
            .retry_after(8);
        let policy = Some(RetryPolicy {
            max_retries: 3,
            base_delay: 16,
        });
        let mut full: Mesh<usize> = Mesh::with_buffer(3, 3, 2);
        let mut part: Mesh<usize> = Mesh::with_buffer(3, 3, 2);
        for mesh in [&mut full, &mut part] {
            mesh.attach_fault_plan(plan.clone());
            mesh.set_retry_policy(policy);
        }
        let queue = vec![(0, Packet::new(Coord::new(0, 0), Coord::new(2, 2), 1, 0))];
        lockstep(&mut full, &mut part, queue).unwrap();
        let stats = full.fault_stats();
        assert!(stats.crc_rejects > 0 && stats.retries > 0, "{stats:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_all_packets_delivered(
            seeds in proptest::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..6, 1usize..10), 1..30)
        ) {
            let mut mesh: Mesh<usize> = Mesh::new(6, 6);
            for (i, &(sx, sy, dx, dy, flits)) in seeds.iter().enumerate() {
                mesh.send(Packet::new(Coord::new(sx, sy), Coord::new(dx, dy), flits, i));
            }
            let d = mesh.run_until_idle(50_000);
            prop_assert_eq!(d.len(), seeds.len(), "every packet must arrive");
            prop_assert!(mesh.is_idle());
            // payloads intact
            let mut got: Vec<usize> = d.iter().map(|x| x.packet.payload).collect();
            got.sort_unstable();
            prop_assert_eq!(got, (0..seeds.len()).collect::<Vec<_>>());
        }

        #[test]
        fn prop_latency_at_least_zero_load(
            sx in 0u8..8, sy in 0u8..8, dx in 0u8..8, dy in 0u8..8, flits in 1usize..9
        ) {
            let mut mesh: Mesh<u32> = Mesh::new(8, 8);
            let (s, t) = (Coord::new(sx, sy), Coord::new(dx, dy));
            mesh.send(Packet::new(s, t, flits, 0));
            let d = mesh.run_until_idle(10_000);
            let lat = d[0].arrived_at - d[0].sent_at;
            prop_assert!(lat >= Mesh::<u32>::zero_load_latency(s, t, flits));
        }

        /// The candidate-tracked partitioned tick must be byte-identical
        /// to the full-scan oracle tick, cycle by cycle, under randomized
        /// staggered traffic (including same-destination contention and
        /// multi-flit wormholes) at buffer depths 1–4 — with and without a
        /// fault plan (drops, corruption, dead routers, cut links) and a
        /// retransmission policy, attached to both meshes alike, so
        /// recalls, releases and purges run under tracking. The stall
        /// trace is compared too: it reaches users through the wedge
        /// report.
        #[test]
        fn prop_partitioned_tick_matches_full_scan(
            seeds in proptest::collection::vec(
                (0u8..6, 0u8..6, 0u8..6, 0u8..6, 1usize..10, 0u64..40), 1..30),
            plan in fault_plans(),
            retry in retry_policies(),
            cap in 1usize..=4,
        ) {
            let mut full: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            let mut part: Mesh<usize> = Mesh::with_buffer(6, 6, cap);
            for mesh in [&mut full, &mut part] {
                if let Some(plan) = &plan {
                    mesh.attach_fault_plan(plan.clone());
                }
                mesh.set_retry_policy(retry);
            }
            let queue = seeds.iter().enumerate().map(|(i, &(sx, sy, dx, dy, flits, at))| {
                (at, Packet::new(Coord::new(sx, sy), Coord::new(dx, dy), flits, i))
            }).collect();
            lockstep(&mut full, &mut part, queue)?;
            let delivered = full.stats().packets_delivered;
            if plan.is_none() {
                prop_assert_eq!(delivered, seeds.len() as u64);
            } else {
                // every packet ends delivered (possibly flagged corrupt)
                // or abandoned as lost once its retries run out
                prop_assert_eq!(delivered + full.fault_stats().packets_lost, seeds.len() as u64);
            }
        }
    }
}
