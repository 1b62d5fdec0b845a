//! Outcome arithmetic shared by the two serving workloads.

use crate::metrics::{Checks, Sheet};
use crate::spans::Profile;
use maicc::serve::slo::{percentile, RequestOutcome, ServeReport};

/// Every completed request must carry a golden-matching result.
pub fn check_outcomes(outcomes: &[RequestOutcome], checks: &mut Checks) {
    for o in outcomes.iter().filter(|o| !o.dropped) {
        checks.check(o.ok, || {
            format!(
                "request {} ({}) completed with an ofmap that differs from the golden model",
                o.id, o.model
            )
        });
    }
}

/// The serving figures of a pass's pooled outcomes: results that are not
/// golden-matching (shed, unrecoverable, lost or mismatched) over
/// attempted, energy per completed inference, latency percentiles next to
/// the completion count (p90 from 100 completions, p99 from 1000),
/// deadline misses with drops counted as misses, and goodput over the
/// simulated makespans, summed.
pub fn record_outcomes(outcomes: &[RequestOutcome], makespan: u64, sheet: &mut Sheet) {
    let attempted = outcomes.len();
    let done: Vec<&RequestOutcome> = outcomes.iter().filter(|o| !o.dropped && o.ok).collect();
    let mut latency: Vec<u64> = done.iter().map(|o| o.latency_cycles).collect();
    latency.sort_unstable();
    let n = latency.len();
    sheet.set(
        "failed_share",
        (attempted - n) as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    );
    sheet.set("completions", n as f64, "count", n);
    let energy: f64 = done.iter().map(|o| o.energy_pj).sum();
    sheet.set("energy_pj_per_inference", energy / n.max(1) as f64, "pJ", n);
    for (name, p, needs) in [
        ("p50_latency_cycles", 50.0, 1),
        ("p90_latency_cycles", 90.0, 100),
        ("p99_latency_cycles", 99.0, 1000),
    ] {
        if n >= needs {
            sheet.set(name, percentile(&latency, p) as f64, "cycles", n);
        }
    }
    let with_deadline = outcomes.iter().filter(|o| o.deadline.is_some()).count();
    let missed = outcomes.iter().filter(|o| o.missed_deadline()).count();
    sheet.set(
        "deadline_miss_rate",
        missed as f64 / with_deadline.max(1) as f64,
        "ratio",
        with_deadline,
    );
    let good = done.iter().filter(|o| !o.missed_deadline()).count();
    sheet.set(
        "goodput_per_mcycle",
        good as f64 * 1e6 / makespan.max(1) as f64,
        "req/Mcycle",
        good,
    );
}

/// Per-layer figures of a pass's serving reports: host time per request,
/// the overload counters, and means over completed requests of queue
/// wait, weight load and service, with the latency queue and service
/// leave unexplained. A request's service cycles run from admission to
/// its last ofmap byte, so they already hold its weight load.
pub fn record_serve_layers(reports: &[&ServeReport], profile: &Profile, sheet: &mut Sheet) {
    let total = |f: fn(&ServeReport) -> u64| reports.iter().map(|&r| f(r)).sum::<u64>() as f64;
    sheet.set(
        "serve.host_us_per_request",
        profile.per_pass_s("serve.call") * 1e6 / total(|r| r.requests).max(1.0),
        "us",
        profile.passes(),
    );
    sheet.set("serve.shed", total(|r| r.shed), "count", 1);
    sheet.set("serve.preemptions", total(|r| r.preemptions), "count", 1);
    sheet.set("serve.retries", total(|r| r.retries), "count", 1);
    sheet.set(
        "serve.degraded_tiles",
        total(|r| r.degraded_tiles as u64),
        "count",
        1,
    );
    let done: Vec<&RequestOutcome> = reports
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| !o.dropped)
        .collect();
    let n = done.len();
    let mean = |f: &dyn Fn(&RequestOutcome) -> f64| {
        done.iter().map(|&o| f(o)).sum::<f64>() / n.max(1) as f64
    };
    sheet.set(
        "serve.queue_cycles_mean",
        mean(&|o| o.queue_cycles as f64),
        "cycles",
        n,
    );
    sheet.set(
        "mem.load_cycles_mean",
        mean(&|o| o.load_cycles as f64),
        "cycles",
        n,
    );
    sheet.set(
        "sim.service_cycles_mean",
        mean(&|o| o.service_cycles as f64),
        "cycles",
        n,
    );
    sheet.set(
        "serve.latency_residual_cycles",
        mean(&|o| o.latency_cycles as f64 - (o.queue_cycles + o.service_cycles) as f64),
        "cycles",
        n,
    );
}

/// Interval counters summed over an obs JSONL stream. The same shape
/// carries a report's totals for comparison, where `windows` and the
/// fault counters are not read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ObsTotals {
    pub windows: u64,
    pub completions: u64,
    pub sheds: u64,
    pub lost: u64,
    pub failovers: u64,
    pub ecc_corrected: u64,
    pub noc_retransmits: u64,
}

impl ObsTotals {
    /// Adds another run's totals.
    pub fn add(&mut self, o: &ObsTotals) {
        self.windows += o.windows;
        self.completions += o.completions;
        self.sheds += o.sheds;
        self.lost += o.lost;
        self.failovers += o.failovers;
        self.ecc_corrected += o.ecc_corrected;
        self.noc_retransmits += o.noc_retransmits;
    }
}

/// Sums the counters of every window of an obs stream.
pub fn obs_totals(jsonl: &str) -> Result<ObsTotals, String> {
    let mut t = ObsTotals::default();
    for line in jsonl.lines() {
        t.windows += 1;
        t.completions += field(line, "completions")?;
        t.sheds += field(line, "sheds")?;
        t.lost += field(line, "lost")?;
        t.failovers += field(line, "failovers")?;
        t.ecc_corrected += field(line, "ecc_corrected")?;
        t.noc_retransmits += field(line, "noc_retransmits")?;
    }
    Ok(t)
}

/// The count after `"key": ` on one line; the leading quote keeps a key
/// from matching inside a longer one.
fn field(line: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .ok_or_else(|| format!("obs window without `{key}`: {line}"))?;
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("obs `{key}` is not a count: {line}"))
}

/// Records the obs stream next to the report's own totals: each
/// residual (stream minus report, 0 when they reconcile) and the fault
/// counters only the stream carries.
pub fn record_obs(obs: &ObsTotals, report: &ObsTotals, sheet: &mut Sheet) {
    let residual = |o: u64, r: u64| o as f64 - r as f64;
    sheet.set("obs.windows", obs.windows as f64, "count", 1);
    for (name, o, r) in [
        (
            "obs.residual.completions",
            obs.completions,
            report.completions,
        ),
        ("obs.residual.sheds", obs.sheds, report.sheds),
        ("obs.residual.lost", obs.lost, report.lost),
        ("obs.residual.failovers", obs.failovers, report.failovers),
    ] {
        sheet.set(name, residual(o, r), "count", 1);
    }
    sheet.set("sram.ecc_corrected", obs.ecc_corrected as f64, "count", 1);
    sheet.set("noc.retransmits", obs.noc_retransmits as f64, "count", 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_totals_sum_every_window() {
        let jsonl = "{\"completions\": 2, \"sheds\": 1, \"lost\": 0, \"failovers\": 3, \
                     \"cache\": {\"llc_hits\": 9}, \"ecc_corrected\": 4, \"noc_retransmits\": 0}\n\
                     {\"completions\": 5, \"sheds\": 0, \"lost\": 1, \"failovers\": 0, \
                     \"ecc_corrected\": 1, \"noc_retransmits\": 2}\n";
        let want = ObsTotals {
            windows: 2,
            completions: 7,
            sheds: 1,
            lost: 1,
            failovers: 3,
            ecc_corrected: 5,
            noc_retransmits: 2,
        };
        assert_eq!(obs_totals(jsonl), Ok(want));
        assert!(obs_totals("{\"completions\": x}").is_err());
        assert!(obs_totals("{\"arrivals\": 1}").is_err());
    }
}
