#![warn(missing_docs)]

//! # maicc-serve — online multi-tenant inference serving
//!
//! Everything below `maicc-sim` answers "how long does one inference
//! take"; this crate answers the question the paper's motivation actually
//! poses — *multi-DNN parallel inference* under live traffic. Requests
//! arrive over time (seeded synthetic [Poisson/bursty](trace) generators
//! or a JSON trace file), each names a model registered in a
//! [`registry::ModelRegistry`], and carries an optional deadline. A
//! pluggable [fabric scheduler](server::Policy) admits requests onto the
//! 15×14 compute array, every admitted request runs through the *real*
//! bit-level [`maicc_sim::stream::StreamSim`] on the tiles it was granted,
//! and an [SLO accountant](slo) folds the outcomes into per-tenant
//! p50/p95/p99 latency, queueing delay, deadline misses, fabric
//! utilization, and energy per request. Attaching an
//! [`overload::OverloadConfig`] hardens admission for sustained overload:
//! bounded per-tenant admission queues, deadline-aware shedding, priority
//! tiers with checkpoint-based preemption, bounded-backoff retry of
//! unrecoverable runs, and a brownout mode that squeezes best-effort
//! tile grants first.
//!
//! There is one serving loop, in [`cluster`]: a discrete-event
//! simulation in *fabric cycles* over N fabrics (fault domains) behind a
//! health-checked router. [`server::serve`] is its one-fabric case. At
//! each event the loop retires finished runs, applies fabric faults,
//! drains and rejoins, routes arrivals, samples brownout occupancy, and
//! runs each fabric's admission step (preemption, policy picks, deadline
//! shedding, prefetch); every policy, the overload hardening, the weight
//! [`cache`] and interval telemetry are parts of that step. The loop
//! jumps between events, so its determinism reduces to [`StreamSim`]'s —
//! which is proven bit-identical across
//! [`Engine`](maicc_sim::stream::Engine)s. A serving report is therefore
//! byte-identical for a fixed trace
//! seed no matter how the underlying simulations are driven
//! (regression- and proptest-enforced in `tests/`).
//!
//! ## Example — a three-model mix under FCFS
//!
//! ```
//! use maicc_serve::registry::three_model_mix;
//! use maicc_serve::server::{serve, Policy, ServeConfig};
//! use maicc_serve::trace::Trace;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (registry, loads) = three_model_mix();
//! let trace = Trace::poisson(&loads, 200_000, 7);
//! let cfg = ServeConfig { policy: Policy::Fcfs, ..ServeConfig::default() };
//! let report = serve(&registry, &trace, &cfg)?;
//! assert_eq!(report.completed + report.dropped, report.requests);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod cluster;
pub mod overload;
pub mod registry;
pub mod rng;
pub mod server;
pub mod slo;
pub mod trace;

/// The workspace's one JSON reader and string quoting, from `maicc-obs`.
pub use maicc_obs::json;

use std::fmt;

/// Errors raised by the serving layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A request names a model the registry does not hold.
    UnknownModel {
        /// The offending model name.
        model: String,
    },
    /// A trace file (or trace JSON text) could not be parsed.
    BadTrace {
        /// What went wrong, with position information where available.
        reason: String,
    },
    /// The configuration cannot serve: a model (or the partition of all
    /// tenants) needs more tiles than the schedulable pool holds.
    PoolTooSmall {
        /// Human-readable description.
        reason: String,
    },
    /// A model could not be registered (e.g. its layer chain is invalid
    /// or exceeds one CMem).
    BadModel {
        /// Human-readable description.
        reason: String,
    },
    /// A request in the trace is self-contradictory (e.g. `deadline: 0`
    /// or a deadline at/earlier than its own arrival).
    BadRequest {
        /// The offending request's id.
        id: u64,
        /// Human-readable description.
        reason: String,
    },
    /// The serving configuration is self-contradictory (e.g. overload
    /// hardening combined with a scheduler that cannot honor it).
    BadConfig {
        /// Human-readable description.
        reason: String,
    },
    /// An underlying simulation failed in a way serving cannot absorb.
    Sim(maicc_sim::SimError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel { model } => {
                write!(f, "request names unregistered model `{model}`")
            }
            ServeError::BadTrace { reason } => write!(f, "bad trace: {reason}"),
            ServeError::PoolTooSmall { reason } => write!(f, "pool too small: {reason}"),
            ServeError::BadModel { reason } => write!(f, "bad model: {reason}"),
            ServeError::BadRequest { id, reason } => {
                write!(f, "bad request {id}: {reason}")
            }
            ServeError::BadConfig { reason } => write!(f, "bad config: {reason}"),
            ServeError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<maicc_sim::SimError> for ServeError {
    fn from(e: maicc_sim::SimError) -> Self {
        ServeError::Sim(e)
    }
}
