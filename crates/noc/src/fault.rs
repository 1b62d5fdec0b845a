//! Link/router fault injection, typed NoC errors, and the watchdog
//! vocabulary for deadlock/livelock reports.
//!
//! A [`NocFaultPlan`] describes what is broken in the mesh:
//!
//! * **failed routers** — the tile's router is dead: nothing can be
//!   injected there, traverse it, or be delivered to it;
//! * **failed links** — one directed output port is cut;
//! * **transient flit drops** — with a seeded per-hop probability, a flit
//!   vanishes on a link crossing.
//!
//! The mesh degrades instead of hanging: a packet that makes no progress
//! for [`NocFaultPlan::retry_after`] cycles (or whose wormhole lost a
//! flit) is *recalled* — every buffered flit is purged — and re-injected
//! on the alternate Y-X route. After [`NocFaultPlan::max_retries`]
//! recalls the packet is dropped and reported as a typed
//! [`NocError::PacketLost`], so callers observe a delivery failure rather
//! than an infinite stall.
//!
//! Everything is off by default: a mesh without a plan performs no RNG
//! draws and behaves bit- and cycle-identically to the seed model.

use crate::router::{Coord, Direction};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Declarative fault schedule for one mesh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocFaultPlan {
    /// Seed for the plan's private RNG stream (transient drops).
    pub seed: u64,
    /// Per-link-crossing probability that a flit is lost.
    pub drop_rate: f64,
    /// Per-link-crossing probability that a flit is *corrupted* in
    /// transit: it keeps moving, but the destination's CRC check rejects
    /// the packet on arrival.
    pub corrupt_rate: f64,
    /// Routers that are completely dead.
    pub failed_routers: Vec<Coord>,
    /// Directed links that are cut: flits cannot leave `Coord` via
    /// `Direction`.
    pub failed_links: Vec<(Coord, Direction)>,
    /// Cycles without progress before a packet is recalled and retried.
    pub retry_after: u64,
    /// Recalls before the packet is abandoned as [`NocError::PacketLost`].
    pub max_retries: u32,
}

impl Default for NocFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl NocFaultPlan {
    /// The empty plan: attaching it changes nothing.
    #[must_use]
    pub fn none() -> Self {
        NocFaultPlan {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            failed_routers: Vec::new(),
            failed_links: Vec::new(),
            retry_after: 64,
            max_retries: 1,
        }
    }

    /// Starts an otherwise-empty plan with an RNG seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        NocFaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// Sets the per-hop transient flit-drop probability.
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-hop transient flit-corruption probability (caught by
    /// the destination's packet CRC instead of vanishing silently).
    #[must_use]
    pub fn corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Marks one router dead.
    #[must_use]
    pub fn fail_router(mut self, at: Coord) -> Self {
        if !self.failed_routers.contains(&at) {
            self.failed_routers.push(at);
        }
        self
    }

    /// Cuts one directed link.
    #[must_use]
    pub fn fail_link(mut self, from: Coord, dir: Direction) -> Self {
        if !self.failed_links.contains(&(from, dir)) {
            self.failed_links.push((from, dir));
        }
        self
    }

    /// Sets the no-progress horizon before a packet recall.
    #[must_use]
    pub fn retry_after(mut self, cycles: u64) -> Self {
        self.retry_after = cycles.max(1);
        self
    }

    /// Sets how many recalls a packet gets before it is abandoned.
    #[must_use]
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// `true` when the plan can never inject anything.
    #[must_use]
    pub(crate) fn is_quiet(&self) -> bool {
        self.drop_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.failed_routers.is_empty()
            && self.failed_links.is_empty()
    }
}

/// Link-level retransmission policy (the ACK/NACK protocol of a mesh with
/// per-packet CRC).
///
/// Attached to a mesh via [`Mesh::set_retry_policy`](crate::Mesh); without
/// it the mesh keeps the PR-1 behaviour: damaged or stalled wormholes are
/// recalled [`NocFaultPlan::max_retries`] times on the alternate dimension
/// order and then dropped as [`NocError::PacketLost`]. With a policy:
///
/// * the policy's [`max_retries`](RetryPolicy::max_retries) replaces the
///   plan's;
/// * every recall (lost flit, stalled wormhole, or CRC reject at the
///   destination) waits out a bounded exponential backoff —
///   `base_delay << min(retries, 16)` cycles — before re-injecting, so
///   retransmissions do not re-collide with the burst that damaged them;
/// * corrupted packets are NACKed by the receiver and retransmitted
///   instead of being delivered flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retransmissions per packet before it is abandoned.
    pub max_retries: u32,
    /// Backoff before the first retransmission, in cycles; doubles per
    /// retry (shift capped at 16).
    pub base_delay: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: 8,
        }
    }
}

impl RetryPolicy {
    /// Backoff delay before retransmission number `retries + 1`.
    #[must_use]
    pub(crate) fn backoff(&self, retries: u32) -> u64 {
        self.base_delay << retries.min(16)
    }
}

/// Typed NoC failure, the degraded alternative to a hang.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NocError {
    /// A packet was abandoned after exhausting its retries.
    PacketLost {
        /// Mesh-assigned packet id.
        packet: u64,
        /// Source tile.
        src: Coord,
        /// Destination tile.
        dst: Coord,
        /// Recalls attempted before giving up.
        retries: u32,
    },
    /// The watchdog saw no progress: credit-stall tracing names the single
    /// most wedged router and port.
    Wedged {
        /// The router whose buffered traffic has waited longest.
        router: Coord,
        /// The wedged port (`Local` = the tile's injection queue).
        port: Direction,
        /// Cycles the head of that queue has been unable to move.
        stalled_for: u64,
        /// Flits queued behind the stalled head.
        occupancy: usize,
    },
    /// The cycle budget elapsed with traffic still in flight but the mesh
    /// still making (slow) progress.
    Budget {
        /// The exhausted budget in cycles.
        budget: u64,
        /// Packets still in flight when the budget ran out.
        in_flight: usize,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::PacketLost {
                packet,
                src,
                dst,
                retries,
            } => write!(
                f,
                "packet {packet} ({src} -> {dst}) lost after {retries} retries"
            ),
            NocError::Wedged {
                router,
                port,
                stalled_for,
                occupancy,
            } => write!(
                f,
                "no NoC progress: router {router} {} wedged for {stalled_for} cycles \
                 ({occupancy} flits queued)",
                match port {
                    Direction::Local => "injection queue".to_string(),
                    d => format!("{d:?}-input"),
                }
            ),
            NocError::Budget { budget, in_flight } => write!(
                f,
                "cycle budget of {budget} elapsed with {in_flight} packets in flight"
            ),
        }
    }
}

impl std::error::Error for NocError {}

/// Tally of injected/observed NoC fault events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocFaultStats {
    /// Flits lost to transient drops.
    pub flits_dropped: u64,
    /// Flits corrupted in transit (caught later by the packet CRC).
    pub flits_corrupted: u64,
    /// Packet recalls (purge + alternate-route re-injection).
    pub retries: u64,
    /// Packets the destination's CRC rejected and NACKed back for
    /// retransmission (requires a [`RetryPolicy`]).
    pub crc_rejects: u64,
    /// Packets abandoned after exhausting retries.
    pub packets_lost: u64,
}

/// Deterministic splitmix64 stream for transient drops.
///
/// Private to the NoC so the crate stays dependency-free; the same
/// generator exists in `maicc-sram`'s fault model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct DropRng {
    state: u64,
}

impl DropRng {
    pub(crate) fn new(seed: u64) -> Self {
        DropRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw; `p <= 0` consumes nothing (identity guarantee).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// Live fault state owned by a mesh once a plan is attached.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NocFaultState {
    pub(crate) plan: NocFaultPlan,
    pub(crate) rng: DropRng,
    pub(crate) stats: NocFaultStats,
}

impl NocFaultState {
    pub(crate) fn new(plan: NocFaultPlan) -> Self {
        let rng = DropRng::new(plan.seed);
        NocFaultState {
            plan,
            rng,
            stats: NocFaultStats::default(),
        }
    }

    pub(crate) fn router_failed(&self, at: Coord) -> bool {
        self.plan.failed_routers.contains(&at)
    }

    pub(crate) fn link_failed(&self, from: Coord, dir: Direction) -> bool {
        self.plan.failed_links.contains(&(from, dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedupes_and_detects_quiet() {
        let p = NocFaultPlan::none()
            .fail_router(Coord::new(1, 1))
            .fail_router(Coord::new(1, 1))
            .fail_link(Coord::new(0, 0), Direction::East)
            .fail_link(Coord::new(0, 0), Direction::East);
        assert_eq!(p.failed_routers.len(), 1);
        assert_eq!(p.failed_links.len(), 1);
        assert!(!p.is_quiet());
        assert!(NocFaultPlan::none().is_quiet());
        assert!(NocFaultPlan::with_seed(3).is_quiet());
    }

    #[test]
    fn drop_rng_quiet_at_zero() {
        let mut rng = DropRng::new(1);
        let before = rng.clone();
        assert!(!rng.chance(0.0));
        assert_eq!(rng, before);
        let hits = (0..10_000).filter(|_| rng.chance(0.5)).count();
        assert!((4000..6000).contains(&hits), "{hits}");
    }

    #[test]
    fn errors_display_name_the_culprit() {
        let e = NocError::Wedged {
            router: Coord::new(3, 7),
            port: Direction::East,
            stalled_for: 99,
            occupancy: 4,
        };
        let s = e.to_string();
        assert!(s.contains("(3, 7)") && s.contains("East") && s.contains("99"), "{s}");

        let lost = NocError::PacketLost {
            packet: 12,
            src: Coord::new(0, 0),
            dst: Coord::new(1, 1),
            retries: 2,
        }
        .to_string();
        assert!(lost.contains("12") && lost.contains("2 retries"), "{lost}");

        let inj = NocError::Wedged {
            router: Coord::new(0, 0),
            port: Direction::Local,
            stalled_for: 10,
            occupancy: 1,
        }
        .to_string();
        assert!(inj.contains("injection queue"), "{inj}");
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), p.base_delay);
        assert_eq!(p.backoff(1), p.base_delay * 2);
        assert_eq!(p.backoff(3), p.base_delay * 8);
        // the shift is capped so huge retry counts cannot overflow
        assert_eq!(p.backoff(200), p.base_delay << 16);
        assert!(!NocFaultPlan::none().corrupt_rate(0.1).is_quiet());
    }
}
