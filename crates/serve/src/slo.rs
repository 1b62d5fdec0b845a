//! SLO accounting: folding per-request outcomes into a serving report.
//!
//! All latency figures are in fabric cycles. Percentiles are
//! nearest-rank over the completed requests' end-to-end latencies
//! (queueing + service), computed on integers so the report is exactly
//! reproducible. Floats that do appear (utilization, rates, energy) are
//! serialized with fixed precision for the same reason: a serving run
//! with a fixed trace must emit byte-identical JSON regardless of how
//! the underlying simulations were driven.

use crate::cache::CacheCounters;
use crate::json::quote;
use crate::overload::Tier;
pub use maicc_obs::percentile;

/// What happened to one request, after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Trace-assigned request id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Model served.
    pub model: String,
    /// Arrival time, cycles.
    pub arrival: u64,
    /// When the scheduler granted tiles (equals `finished` for drops).
    pub admitted: u64,
    /// When the last ofmap byte drained (drop time for drops).
    pub finished: u64,
    /// Absolute deadline, if the request carried one.
    pub deadline: Option<u64>,
    /// The request's priority tier, present when overload hardening or
    /// cluster tiers are configured (`None` otherwise). Under overload
    /// hardening it is the tier the request last queued at, so a retry
    /// shows the tier it was elevated to.
    pub tier: Option<Tier>,
    /// Whether the ofmap matched the golden reference.
    pub ok: bool,
    /// True if the request never produced a result (its simulation
    /// failed in a way recovery could not absorb, or it was shed).
    pub dropped: bool,
    /// True if admission control dropped the request without running it
    /// (queue overflow or a deadline its analytic estimate already
    /// busts). Always implies `dropped`; a drop that is *not* a shed is
    /// unrecoverable.
    pub shed: bool,
    /// Cycles spent executing on the fabric (including partial runs a
    /// preemption later discarded back to a checkpoint).
    pub service_cycles: u64,
    /// Cycles spent waiting for admission.
    pub queue_cycles: u64,
    /// End-to-end latency (`finished - arrival`).
    pub latency_cycles: u64,
    /// CMem + NoC dynamic energy of the run, picojoules.
    pub energy_pj: f64,
    /// Times this request was preempted by a higher tier.
    pub preemptions: u32,
    /// Times this request was retried after an unrecoverable run.
    pub retries: u32,
    /// Whether the admission found the model's weights already resident
    /// in CMem. `None` when the run had no weight cache, or the request
    /// never held tiles (drops and sheds).
    pub warm: Option<bool>,
    /// Weight-load cycles the request paid before compute started
    /// (always 0 without a weight cache).
    pub load_cycles: u64,
}

impl RequestOutcome {
    /// Whether this request was dropped without ever producing a result
    /// *and* was not a deliberate shed — the failure mode overload
    /// hardening exists to eliminate for `Hard` tenants.
    #[must_use]
    pub fn unrecoverable(&self) -> bool {
        self.dropped && !self.shed
    }

    /// Whether this request missed its SLO: it carried a deadline and
    /// either dropped or finished past it.
    #[must_use]
    pub fn missed_deadline(&self) -> bool {
        match self.deadline {
            Some(d) => self.dropped || self.finished > d,
            None => false,
        }
    }
}

/// Aggregated SLO figures for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// Requests the tenant issued.
    pub requests: u64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests dropped without a result.
    pub dropped: u64,
    /// Drops that were deliberate load sheds (admission control).
    pub shed: u64,
    /// Drops that were *not* sheds: the simulation failed past every
    /// replay, remap, and retry.
    pub unrecoverable: u64,
    /// Preemption events suffered by this tenant's requests.
    pub preemptions: u64,
    /// Retry attempts consumed by this tenant's requests.
    pub retries: u64,
    /// Median end-to-end latency, cycles (nearest rank; 0 if nothing
    /// completed).
    pub p50_latency_cycles: u64,
    /// 95th-percentile latency, cycles.
    pub p95_latency_cycles: u64,
    /// 99th-percentile latency, cycles.
    pub p99_latency_cycles: u64,
    /// Mean admission queueing delay over all requests, cycles.
    pub mean_queue_cycles: f64,
    /// Mean fabric service time over completed requests, cycles.
    pub mean_service_cycles: f64,
    /// Requests that carried a deadline and missed it (drops count).
    pub deadline_misses: u64,
    /// `deadline_misses` over requests that carried a deadline (0 when
    /// none did).
    pub miss_rate: f64,
    /// Mean CMem + NoC energy per completed request, picojoules.
    pub energy_pj_per_request: f64,
}

/// The full serving report: fleet-level figures plus per-tenant SLOs and
/// the raw per-request outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scheduler policy label (`fcfs`, `sjf`, ...).
    pub policy: String,
    /// Tiles the scheduler was allowed to place on.
    pub pool_tiles: usize,
    /// Tiles retired from the pool by fault recovery during the run.
    pub degraded_tiles: usize,
    /// Total requests in the trace.
    pub requests: u64,
    /// Requests that completed with a result.
    pub completed: u64,
    /// Requests dropped without a result.
    pub dropped: u64,
    /// Fleet-wide deliberate load sheds (subset of `dropped`).
    pub shed: u64,
    /// Fleet-wide unrecoverable drops (`dropped - shed`).
    pub unrecoverable: u64,
    /// Fleet-wide preemption events.
    pub preemptions: u64,
    /// Fleet-wide retry attempts consumed.
    pub retries: u64,
    /// Cycle at which the last request finished (0 for an empty trace).
    pub makespan_cycles: u64,
    /// Busy tile-cycles over `pool_tiles × makespan` — the fraction of
    /// the schedulable fabric that was actually computing.
    pub utilization: f64,
    /// Fleet median latency, cycles.
    pub p50_latency_cycles: u64,
    /// Fleet 95th-percentile latency, cycles.
    pub p95_latency_cycles: u64,
    /// Fleet 99th-percentile latency, cycles.
    pub p99_latency_cycles: u64,
    /// Fleet deadline-miss rate (over requests that carried deadlines).
    pub deadline_miss_rate: f64,
    /// Mean energy per completed request, picojoules.
    pub energy_pj_per_request: f64,
    /// Per-tenant SLO breakdowns, sorted by tenant name.
    pub tenants: Vec<TenantSlo>,
    /// Weight-cache accounting; `None` when the run had no weight cache
    /// (the report then serializes byte-identically to pre-cache
    /// serving).
    pub cache: Option<CacheReport>,
    /// Raw outcomes, sorted by request id.
    pub outcomes: Vec<RequestOutcome>,
}

/// Warm-vs-cold latency split for one tenant under the weight cache.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCacheSlo {
    /// Tenant name.
    pub tenant: String,
    /// Completed requests admitted warm.
    pub warm_completed: u64,
    /// Completed requests admitted cold.
    pub cold_completed: u64,
    /// Median end-to-end latency of warm completions, cycles.
    pub warm_p50_latency_cycles: u64,
    /// 99th-percentile latency of warm completions, cycles.
    pub warm_p99_latency_cycles: u64,
    /// Median end-to-end latency of cold completions, cycles.
    pub cold_p50_latency_cycles: u64,
    /// 99th-percentile latency of cold completions, cycles.
    pub cold_p99_latency_cycles: u64,
}

/// Weight-cache section of the serving report: activity counters plus
/// the warm-vs-cold latency split the cache exists to create.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheReport {
    /// Admissions that found the weights resident.
    pub hits: u64,
    /// Admissions that paid a tier load.
    pub misses: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// Resident sets displaced by cold placements or tile retirement.
    pub evictions: u64,
    /// Cold loads served from the modeled LLC tier instead of DRAM.
    pub llc_hits: u64,
    /// Speculative streams issued.
    pub prefetch_issued: u64,
    /// Speculative streams whose model was then actually requested.
    pub prefetch_used: u64,
    /// Speculative streams cancelled by a competing cold placement.
    pub prefetch_canceled: u64,
    /// `prefetch_used / prefetch_issued`.
    pub prefetch_accuracy: f64,
    /// Energy spent on speculative streams, picojoules.
    pub prefetch_pj: f64,
    /// Fleet median latency of warm completions, cycles.
    pub warm_p50_latency_cycles: u64,
    /// Fleet 99th-percentile latency of warm completions, cycles.
    pub warm_p99_latency_cycles: u64,
    /// Fleet median latency of cold completions, cycles.
    pub cold_p50_latency_cycles: u64,
    /// Fleet 99th-percentile latency of cold completions, cycles.
    pub cold_p99_latency_cycles: u64,
    /// Per-tenant warm/cold splits, sorted by tenant name.
    pub tenants: Vec<TenantCacheSlo>,
}

/// (warm p50, warm p99, cold p50, cold p99) over completed outcomes.
fn warm_cold_split(outcomes: &[&RequestOutcome]) -> (u64, u64, u64, u64) {
    let lat = |want_warm: bool| -> Vec<u64> {
        let mut v: Vec<u64> = outcomes
            .iter()
            .filter(|o| !o.dropped && o.warm == Some(want_warm))
            .map(|o| o.latency_cycles)
            .collect();
        v.sort_unstable();
        v
    };
    let (w, c) = (lat(true), lat(false));
    (
        percentile(&w, 50.0),
        percentile(&w, 99.0),
        percentile(&c, 50.0),
        percentile(&c, 99.0),
    )
}

impl CacheReport {
    /// Folds cache counters and stamped outcomes into the report section.
    #[must_use]
    pub(crate) fn build(counters: &CacheCounters, outcomes: &[RequestOutcome]) -> Self {
        let all: Vec<&RequestOutcome> = outcomes.iter().collect();
        let (warm_p50, warm_p99, cold_p50, cold_p99) = warm_cold_split(&all);
        let mut names: Vec<&str> = outcomes.iter().map(|o| o.tenant.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let tenants = names
            .iter()
            .map(|name| {
                let subset: Vec<&RequestOutcome> =
                    outcomes.iter().filter(|o| o.tenant == *name).collect();
                let (wp50, wp99, cp50, cp99) = warm_cold_split(&subset);
                TenantCacheSlo {
                    tenant: (*name).to_string(),
                    warm_completed: subset
                        .iter()
                        .filter(|o| !o.dropped && o.warm == Some(true))
                        .count() as u64,
                    cold_completed: subset
                        .iter()
                        .filter(|o| !o.dropped && o.warm == Some(false))
                        .count() as u64,
                    warm_p50_latency_cycles: wp50,
                    warm_p99_latency_cycles: wp99,
                    cold_p50_latency_cycles: cp50,
                    cold_p99_latency_cycles: cp99,
                }
            })
            .collect();
        CacheReport {
            hits: counters.hits,
            misses: counters.misses,
            hit_rate: counters.hit_rate(),
            evictions: counters.evictions,
            llc_hits: counters.llc_hits,
            prefetch_issued: counters.prefetch_issued,
            prefetch_used: counters.prefetch_used,
            prefetch_canceled: counters.prefetch_canceled,
            prefetch_accuracy: counters.prefetch_accuracy(),
            prefetch_pj: counters.prefetch_pj,
            warm_p50_latency_cycles: warm_p50,
            warm_p99_latency_cycles: warm_p99,
            cold_p50_latency_cycles: cold_p50,
            cold_p99_latency_cycles: cold_p99,
            tenants,
        }
    }
}

struct Aggregate {
    requests: u64,
    completed: u64,
    dropped: u64,
    shed: u64,
    unrecoverable: u64,
    preemptions: u64,
    retries: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    mean_queue: f64,
    mean_service: f64,
    misses: u64,
    miss_rate: f64,
    energy_per_req: f64,
}

fn aggregate(outcomes: &[&RequestOutcome]) -> Aggregate {
    let requests = outcomes.len() as u64;
    let completed: Vec<&&RequestOutcome> = outcomes.iter().filter(|o| !o.dropped).collect();
    let mut latencies: Vec<u64> = completed.iter().map(|o| o.latency_cycles).collect();
    latencies.sort_unstable();
    let with_deadline = outcomes.iter().filter(|o| o.deadline.is_some()).count() as u64;
    let misses = outcomes.iter().filter(|o| o.missed_deadline()).count() as u64;
    #[allow(clippy::cast_precision_loss)]
    let div = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    #[allow(clippy::cast_precision_loss)]
    Aggregate {
        requests,
        completed: completed.len() as u64,
        dropped: requests - completed.len() as u64,
        shed: outcomes.iter().filter(|o| o.shed).count() as u64,
        unrecoverable: outcomes.iter().filter(|o| o.unrecoverable()).count() as u64,
        preemptions: outcomes.iter().map(|o| u64::from(o.preemptions)).sum(),
        retries: outcomes.iter().map(|o| u64::from(o.retries)).sum(),
        p50: percentile(&latencies, 50.0),
        p95: percentile(&latencies, 95.0),
        p99: percentile(&latencies, 99.0),
        mean_queue: div(
            outcomes.iter().map(|o| o.queue_cycles as f64).sum(),
            requests,
        ),
        mean_service: div(
            completed.iter().map(|o| o.service_cycles as f64).sum(),
            completed.len() as u64,
        ),
        misses,
        miss_rate: div(misses as f64, with_deadline),
        energy_per_req: div(
            completed.iter().map(|o| o.energy_pj).sum(),
            completed.len() as u64,
        ),
    }
}

impl ServeReport {
    /// Builds the report from raw outcomes.
    ///
    /// `busy_tile_cycles` is Σ over completed requests of
    /// `service_cycles × tiles occupied`; utilization divides it by the
    /// pool's total capacity over the makespan.
    #[must_use]
    pub(crate) fn from_outcomes(
        policy: &str,
        pool_tiles: usize,
        degraded_tiles: usize,
        busy_tile_cycles: u64,
        mut outcomes: Vec<RequestOutcome>,
    ) -> Self {
        outcomes.sort_by_key(|o| o.id);
        let all: Vec<&RequestOutcome> = outcomes.iter().collect();
        let fleet = aggregate(&all);
        let makespan = outcomes.iter().map(|o| o.finished).max().unwrap_or(0);
        #[allow(clippy::cast_precision_loss)]
        let capacity = (pool_tiles as u64 * makespan) as f64;
        #[allow(clippy::cast_precision_loss)]
        let utilization = if capacity > 0.0 {
            busy_tile_cycles as f64 / capacity
        } else {
            0.0
        };

        let mut names: Vec<&str> = outcomes.iter().map(|o| o.tenant.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        let tenants = names
            .iter()
            .map(|name| {
                let subset: Vec<&RequestOutcome> =
                    outcomes.iter().filter(|o| o.tenant == *name).collect();
                let a = aggregate(&subset);
                TenantSlo {
                    tenant: (*name).to_string(),
                    requests: a.requests,
                    completed: a.completed,
                    dropped: a.dropped,
                    shed: a.shed,
                    unrecoverable: a.unrecoverable,
                    preemptions: a.preemptions,
                    retries: a.retries,
                    p50_latency_cycles: a.p50,
                    p95_latency_cycles: a.p95,
                    p99_latency_cycles: a.p99,
                    mean_queue_cycles: a.mean_queue,
                    mean_service_cycles: a.mean_service,
                    deadline_misses: a.misses,
                    miss_rate: a.miss_rate,
                    energy_pj_per_request: a.energy_per_req,
                }
            })
            .collect();

        ServeReport {
            policy: policy.to_string(),
            pool_tiles,
            degraded_tiles,
            requests: fleet.requests,
            completed: fleet.completed,
            dropped: fleet.dropped,
            shed: fleet.shed,
            unrecoverable: fleet.unrecoverable,
            preemptions: fleet.preemptions,
            retries: fleet.retries,
            makespan_cycles: makespan,
            utilization,
            p50_latency_cycles: fleet.p50,
            p95_latency_cycles: fleet.p95,
            p99_latency_cycles: fleet.p99,
            deadline_miss_rate: fleet.miss_rate,
            energy_pj_per_request: fleet.energy_per_req,
            tenants,
            cache: None,
            outcomes,
        }
    }

    /// Serializes the report as deterministic JSON.
    ///
    /// Engine and thread count are deliberately absent: for a fixed
    /// trace the bytes must be identical however the simulations were
    /// driven, and including them would make that property untestable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048 + 256 * self.outcomes.len());
        s.push_str("{\n");
        s.push_str(&format!("  \"policy\": {},\n", quote(&self.policy)));
        s.push_str(&format!("  \"pool_tiles\": {},\n", self.pool_tiles));
        s.push_str(&format!("  \"degraded_tiles\": {},\n", self.degraded_tiles));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!("  \"unrecoverable\": {},\n", self.unrecoverable));
        s.push_str(&format!("  \"preemptions\": {},\n", self.preemptions));
        s.push_str(&format!("  \"retries\": {},\n", self.retries));
        s.push_str(&format!("  \"makespan_cycles\": {},\n", self.makespan_cycles));
        s.push_str(&format!("  \"utilization\": {:.4},\n", self.utilization));
        s.push_str(&format!(
            "  \"latency_cycles\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n",
            self.p50_latency_cycles, self.p95_latency_cycles, self.p99_latency_cycles
        ));
        s.push_str(&format!(
            "  \"deadline_miss_rate\": {:.4},\n",
            self.deadline_miss_rate
        ));
        s.push_str(&format!(
            "  \"energy_pj_per_request\": {:.1},\n",
            self.energy_pj_per_request
        ));
        if let Some(c) = &self.cache {
            s.push_str("  \"cache\": {\n");
            s.push_str(&format!(
                "    \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
                 \"evictions\": {}, \"llc_hits\": {},\n",
                c.hits, c.misses, c.hit_rate, c.evictions, c.llc_hits
            ));
            s.push_str(&format!(
                "    \"prefetch\": {{\"issued\": {}, \"used\": {}, \
                 \"canceled\": {}, \"accuracy\": {:.4}, \"energy_pj\": {:.1}}},\n",
                c.prefetch_issued,
                c.prefetch_used,
                c.prefetch_canceled,
                c.prefetch_accuracy,
                c.prefetch_pj
            ));
            s.push_str(&format!(
                "    \"warm_latency_cycles\": {{\"p50\": {}, \"p99\": {}}},\n",
                c.warm_p50_latency_cycles, c.warm_p99_latency_cycles
            ));
            s.push_str(&format!(
                "    \"cold_latency_cycles\": {{\"p50\": {}, \"p99\": {}}},\n",
                c.cold_p50_latency_cycles, c.cold_p99_latency_cycles
            ));
            s.push_str("    \"tenants\": [\n");
            for (i, t) in c.tenants.iter().enumerate() {
                s.push_str("      {");
                s.push_str(&format!("\"tenant\": {}, ", quote(&t.tenant)));
                s.push_str(&format!("\"warm_completed\": {}, ", t.warm_completed));
                s.push_str(&format!("\"cold_completed\": {}, ", t.cold_completed));
                s.push_str(&format!(
                    "\"warm_latency_cycles\": {{\"p50\": {}, \"p99\": {}}}, ",
                    t.warm_p50_latency_cycles, t.warm_p99_latency_cycles
                ));
                s.push_str(&format!(
                    "\"cold_latency_cycles\": {{\"p50\": {}, \"p99\": {}}}}}{}\n",
                    t.cold_p50_latency_cycles,
                    t.cold_p99_latency_cycles,
                    if i + 1 < c.tenants.len() { "," } else { "" }
                ));
            }
            s.push_str("    ]\n  },\n");
        }
        s.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"tenant\": {}, ", quote(&t.tenant)));
            s.push_str(&format!("\"requests\": {}, ", t.requests));
            s.push_str(&format!("\"completed\": {}, ", t.completed));
            s.push_str(&format!("\"dropped\": {}, ", t.dropped));
            s.push_str(&format!("\"shed\": {}, ", t.shed));
            s.push_str(&format!("\"unrecoverable\": {}, ", t.unrecoverable));
            s.push_str(&format!("\"preemptions\": {}, ", t.preemptions));
            s.push_str(&format!("\"retries\": {}, ", t.retries));
            s.push_str(&format!(
                "\"latency_cycles\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}, ",
                t.p50_latency_cycles, t.p95_latency_cycles, t.p99_latency_cycles
            ));
            s.push_str(&format!("\"mean_queue_cycles\": {:.1}, ", t.mean_queue_cycles));
            s.push_str(&format!(
                "\"mean_service_cycles\": {:.1}, ",
                t.mean_service_cycles
            ));
            s.push_str(&format!("\"deadline_misses\": {}, ", t.deadline_misses));
            s.push_str(&format!("\"miss_rate\": {:.4}, ", t.miss_rate));
            s.push_str(&format!(
                "\"energy_pj_per_request\": {:.1}}}{}\n",
                t.energy_pj_per_request,
                if i + 1 < self.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"id\": {}, ", o.id));
            s.push_str(&format!("\"tenant\": {}, ", quote(&o.tenant)));
            s.push_str(&format!("\"model\": {}, ", quote(&o.model)));
            s.push_str(&format!("\"arrival\": {}, ", o.arrival));
            s.push_str(&format!("\"admitted\": {}, ", o.admitted));
            s.push_str(&format!("\"finished\": {}, ", o.finished));
            match o.deadline {
                Some(d) => s.push_str(&format!("\"deadline\": {d}, ")),
                None => s.push_str("\"deadline\": null, "),
            }
            match o.tier {
                Some(t) => s.push_str(&format!("\"tier\": {}, ", quote(t.label()))),
                None => s.push_str("\"tier\": null, "),
            }
            s.push_str(&format!("\"ok\": {}, ", o.ok));
            s.push_str(&format!("\"dropped\": {}, ", o.dropped));
            s.push_str(&format!("\"shed\": {}, ", o.shed));
            s.push_str(&format!("\"preemptions\": {}, ", o.preemptions));
            s.push_str(&format!("\"retries\": {}, ", o.retries));
            s.push_str(&format!("\"service_cycles\": {}, ", o.service_cycles));
            s.push_str(&format!("\"queue_cycles\": {}, ", o.queue_cycles));
            s.push_str(&format!("\"latency_cycles\": {}, ", o.latency_cycles));
            // Per-outcome cache fields appear only when a weight cache
            // ran, so cache-less reports stay byte-identical to the
            // pre-cache format.
            if self.cache.is_some() {
                match o.warm {
                    Some(w) => s.push_str(&format!("\"warm\": {w}, ")),
                    None => s.push_str("\"warm\": null, "),
                }
                s.push_str(&format!("\"load_cycles\": {}, ", o.load_cycles));
            }
            s.push_str(&format!(
                "\"energy_pj\": {:.1}}}{}\n",
                o.energy_pj,
                if i + 1 < self.outcomes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, tenant: &str, arrival: u64, latency: u64) -> RequestOutcome {
        RequestOutcome {
            id,
            tenant: tenant.into(),
            model: "m".into(),
            arrival,
            admitted: arrival,
            finished: arrival + latency,
            deadline: None,
            tier: None,
            ok: true,
            dropped: false,
            shed: false,
            service_cycles: latency,
            queue_cycles: 0,
            latency_cycles: latency,
            energy_pj: 10.0,
            preemptions: 0,
            retries: 0,
            warm: None,
            load_cycles: 0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tenants_sorted_and_fleet_counts_add_up() {
        let outcomes = vec![
            outcome(2, "zeta", 100, 50),
            outcome(0, "alpha", 0, 10),
            outcome(1, "zeta", 50, 30),
        ];
        let r = ServeReport::from_outcomes("fcfs", 16, 0, 0, outcomes);
        assert_eq!(r.requests, 3);
        assert_eq!(r.completed, 3);
        let names: Vec<&str> = r.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        let ids: Vec<u64> = r.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(r.makespan_cycles, 150);
    }

    #[test]
    fn deadline_misses_count_drops() {
        let mut hit = outcome(0, "a", 0, 10);
        hit.deadline = Some(100);
        let mut late = outcome(1, "a", 0, 200);
        late.deadline = Some(100);
        let mut drop = outcome(2, "a", 0, 0);
        drop.deadline = Some(100);
        drop.dropped = true;
        let free = outcome(3, "a", 0, 999); // no deadline: can't miss
        let r = ServeReport::from_outcomes("fcfs", 16, 0, 0, vec![hit, late, drop, free]);
        assert_eq!(r.tenants[0].deadline_misses, 2);
        assert!((r.deadline_miss_rate - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let r = ServeReport::from_outcomes("fcfs", 10, 0, 500, vec![outcome(0, "a", 0, 100)]);
        // capacity = 10 tiles * 100 cycles
        assert!((r.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn json_is_parseable_shape_and_escapes() {
        let mut o = outcome(0, "ten\"ant", 0, 10);
        o.deadline = Some(42);
        let r = ServeReport::from_outcomes("sjf", 16, 1, 0, vec![o]);
        let j = r.to_json();
        assert!(j.contains("\"policy\": \"sjf\""));
        assert!(j.contains("\"ten\\\"ant\""));
        assert!(j.contains("\"deadline\": 42"));
        assert!(j.contains("\"degraded_tiles\": 1"));
        assert!(!j.contains("engine"), "engine must not leak into report");
        assert!(!j.contains("threads"), "threads must not leak into report");
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
    }
}
