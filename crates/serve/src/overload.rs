//! Overload-robustness configuration: admission control, priority tiers,
//! preemption, request retry, and brownout.
//!
//! Without hardening the serving loop queues every arrival forever and
//! treats all tenants alike; under sustained overload (offered
//! tile-demand above pool capacity) its queues grow without bound and
//! every tenant's tail collapses together. Attaching an [`OverloadConfig`]
//! to a [`ServeConfig`](crate::server::ServeConfig) turns on the overload
//! phases of the loop ([`crate::cluster`]): the queue cap when an arrival
//! reaches its fabric, a brownout sample once per event, and in each
//! fabric's admission step **preempt → admit → shed** (documented in
//! DESIGN.md §13). They apply on every fabric of a cluster, alongside
//! failover:
//!
//! * **bounded admission queues** — each tenant's queue holds at most
//!   [`OverloadConfig::queue_cap`] waiting requests; an arrival past the
//!   cap is shed immediately rather than queued into a latency it can
//!   never meet;
//! * **deadline-aware shedding** — after every admission pass, a queued
//!   request whose analytic SJF estimate already busts its deadline
//!   (`now + est_remaining > deadline`) is shed, with a per-tenant `shed`
//!   counter in the SLO report;
//! * **priority tiers** — tenants map to [`Tier::Hard`], [`Tier::Soft`],
//!   or [`Tier::BestEffort`]; admission is strict-priority across tiers
//!   (policy order within a tier), and a blocked `Hard` arrival may
//!   preempt running `BestEffort` requests. Preemption reuses the
//!   `StreamSim` checkpoint/replay machinery: the victim's sink-progress
//!   [checkpoint log](maicc_sim::stream::StreamSim::checkpoint_log)
//!   gives the latest architectural state at or before the preemption
//!   cycle, and the victim re-enters its tenant queue carrying that much
//!   progress instead of restarting from zero;
//! * **request retry** — a run that ends unrecoverable re-enters
//!   admission on its fabric after a bounded exponential backoff
//!   ([`RetryBudget`], honored with or without the rest of this
//!   config), at one tier above its own so churned requests drain
//!   instead of starving, counted against a per-tenant budget; once the
//!   budget is spent the cluster router takes over;
//! * **brownout** — when pool occupancy stays at or above a high-water
//!   mark for a configured window ([`BrownoutConfig`]), aggregate
//!   `BestEffort` tile grants on a busy fabric are capped at a fraction
//!   of the pool, so degradation lands on the best-effort tier before
//!   `Soft`/`Hard` tenants feel it.
//!
//! Everything here is deterministic in fabric cycles: the same trace,
//! registry, and config produce byte-identical SLO JSON regardless of
//! simulation engine (proptest-enforced).

/// A tenant's priority tier under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Tier {
    /// Latency-critical: admitted first, may preempt `BestEffort` work.
    Hard,
    /// The default tier: ordinary priority, never preempted.
    #[default]
    Soft,
    /// Scavenger tier: admitted last, preemptible, first to brown out.
    BestEffort,
}

impl Tier {
    /// All tiers, highest priority first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 3] = [Tier::Hard, Tier::Soft, Tier::BestEffort];

    /// Stable label used in reports and on the CLI.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Tier::Hard => "hard",
            Tier::Soft => "soft",
            Tier::BestEffort => "best_effort",
        }
    }

    /// Parses a CLI/report label (accepts `-` for `_`).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn from_label(s: &str) -> Option<Tier> {
        match s.replace('-', "_").as_str() {
            "hard" => Some(Tier::Hard),
            "soft" => Some(Tier::Soft),
            "best_effort" => Some(Tier::BestEffort),
            _ => None,
        }
    }

    /// Admission rank: lower admits first.
    #[must_use]
    pub(crate) fn rank(self) -> u8 {
        match self {
            Tier::Hard => 0,
            Tier::Soft => 1,
            Tier::BestEffort => 2,
        }
    }

    /// The tier one step more urgent (retries re-enter admission here).
    #[must_use]
    pub(crate) fn elevated(self) -> Tier {
        match self {
            Tier::Hard | Tier::Soft => Tier::Hard,
            Tier::BestEffort => Tier::Soft,
        }
    }
}

/// Total retries one tenant may spend across a whole run.
pub(crate) const PER_TENANT_RETRIES: u32 = 16;

/// Bounded-exponential-backoff retry for requests whose run ends
/// unrecoverable (the simulation failed past every replay/remap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Retries allowed per request (0 disables retry). Each tenant may
    /// spend at most 16 across the whole run.
    pub max_retries_per_request: u32,
    /// Backoff before the first retry, cycles; attempt `n` waits
    /// `base << n`, capped at [`RetryBudget::max_backoff_cycles`].
    pub base_backoff_cycles: u64,
    /// Upper bound on any single backoff, cycles.
    pub max_backoff_cycles: u64,
}

impl Default for RetryBudget {
    fn default() -> Self {
        RetryBudget {
            max_retries_per_request: 3,
            base_backoff_cycles: 10_000,
            max_backoff_cycles: 160_000,
        }
    }
}

impl RetryBudget {
    /// The backoff before retry attempt `attempt` (0-based): bounded
    /// exponential, saturating.
    #[must_use]
    pub(crate) fn backoff_cycles(&self, attempt: u32) -> u64 {
        let shifted = if attempt >= 63 {
            u64::MAX
        } else {
            self.base_backoff_cycles.saturating_mul(1u64 << attempt)
        };
        shifted.min(self.max_backoff_cycles)
    }
}

/// Brownout: sustained high occupancy shrinks `BestEffort` tile grants
/// before touching `Soft`/`Hard` tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Pool-occupancy fraction at or above which the overload streak
    /// accumulates.
    pub high_water: f64,
    /// Cycles the occupancy must stay at or above the high-water mark
    /// before brownout engages; it disengages the first event occupancy
    /// drops below the mark.
    pub window_cycles: u64,
    /// Fraction of the pool `BestEffort` requests may occupy in
    /// aggregate while brownout is active.
    pub best_effort_fraction: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            high_water: 0.8,
            window_cycles: 100_000,
            best_effort_fraction: 0.25,
        }
    }
}

/// The full overload-hardening configuration; attach to
/// [`ServeConfig::overload`](crate::server::ServeConfig) to turn on the
/// overload phases of the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Per-tenant admission-queue bound (0 = unbounded).
    pub queue_cap: usize,
    /// Shed queued requests whose analytic estimate busts their deadline.
    pub shed_late: bool,
    /// Allow a blocked `Hard` request to preempt running `BestEffort`
    /// work.
    pub preempt: bool,
    /// Tenant → tier assignments; unlisted tenants default to
    /// [`Tier::Soft`].
    pub tiers: Vec<(String, Tier)>,
    /// Brownout behaviour, if any.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_cap: 32,
            shed_late: true,
            preempt: true,
            tiers: Vec::new(),
            brownout: Some(BrownoutConfig::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_round_trip_and_rank_orders() {
        for t in Tier::ALL {
            assert_eq!(Tier::from_label(t.label()), Some(t));
        }
        assert_eq!(Tier::from_label("best-effort"), Some(Tier::BestEffort));
        assert_eq!(Tier::from_label("nope"), None);
        assert!(Tier::Hard.rank() < Tier::Soft.rank());
        assert!(Tier::Soft.rank() < Tier::BestEffort.rank());
    }

    #[test]
    fn elevation_moves_toward_hard_and_stops() {
        assert_eq!(Tier::BestEffort.elevated(), Tier::Soft);
        assert_eq!(Tier::Soft.elevated(), Tier::Hard);
        assert_eq!(Tier::Hard.elevated(), Tier::Hard);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let b = RetryBudget {
            base_backoff_cycles: 1_000,
            max_backoff_cycles: 6_000,
            ..RetryBudget::default()
        };
        assert_eq!(b.backoff_cycles(0), 1_000);
        assert_eq!(b.backoff_cycles(1), 2_000);
        assert_eq!(b.backoff_cycles(2), 4_000);
        assert_eq!(b.backoff_cycles(3), 6_000); // capped
        assert_eq!(b.backoff_cycles(200), 6_000); // no shift overflow
    }
}
