//! Request-arrival traces: seeded synthetic generators and a JSON loader.
//!
//! A [`Trace`] is the serving layer's input: a time-sorted list of
//! [`Request`]s, each naming a tenant, a registered model, an arrival
//! cycle, and an optional absolute deadline. Traces come from five
//! seeded generators, which share one arrival loop, and from a file:
//!
//! * [`Trace::poisson`] — per-tenant Poisson processes (exponential
//!   inter-arrival gaps) merged into one stream;
//! * [`Trace::bursty`] — per-tenant on/off-modulated Poisson: arrivals
//!   cluster inside periodic burst windows, the adversarial shape for
//!   tail-latency comparisons between scheduler policies;
//! * [`Trace::zipf`] — one merged Poisson stream whose requests pick a
//!   model by Zipf-skewed popularity rank, the repeat-heavy mix that
//!   exercises the serving layer's weight cache;
//! * [`Trace::diurnal`] — the Zipf mix modulated by a repeating
//!   day-shaped rate curve (quiet night through midday peak), the
//!   long-horizon soak-run shape;
//! * [`Trace::from_json`] — a trace file, so recorded or hand-written
//!   workloads replay exactly.
//!
//! All generation is driven by `crate::rng::Rng`: a fixed seed yields a
//! byte-identical trace (and, downstream, a byte-identical serving
//! report) on every run.

use crate::json::{self, Value};
use crate::rng::Rng;
use crate::ServeError;
use serde::{Deserialize, Serialize};

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Dense index in arrival order (assigned by the trace constructor).
    pub id: u64,
    /// The tenant the request belongs to (SLOs are tracked per tenant).
    pub tenant: String,
    /// The registered model the request wants to run.
    pub model: String,
    /// Arrival time, fabric cycles.
    pub arrival: u64,
    /// Absolute completion deadline in fabric cycles, if the tenant has a
    /// latency SLO.
    pub deadline: Option<u64>,
}

/// One tenant's offered load, input to the synthetic generators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantLoad {
    /// Tenant name.
    pub tenant: String,
    /// Registered model every request of this tenant runs.
    pub model: String,
    /// Mean inter-arrival gap, fabric cycles.
    pub mean_gap: u64,
    /// Relative deadline granted to each request (absolute deadline =
    /// arrival + this), if the tenant has one.
    pub deadline: Option<u64>,
}

/// A time-sorted request stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Requests in non-decreasing arrival order; ids are dense in this
    /// order.
    pub requests: Vec<Request>,
}

/// Fraction of the burst period that is "on" in [`Trace::bursty`]. The
/// in-burst rate is boosted by the reciprocal (4×) so the long-run
/// offered load matches the Poisson generator's.
const BURST_DUTY: f64 = 0.25;

/// RNG salt of the merged Zipf streams ([`Trace::zipf`],
/// [`Trace::zipf_bursty`]).
const ZIPF_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A generator's arrival rate at one cycle.
enum Rate {
    /// Arrivals come with this mean gap, cycles.
    Gap(f64),
    /// No arrivals until this cycle.
    PausedUntil(u64),
}

/// The arrival loop of every generator. From cycle 0 it draws an
/// exponential gap with the mean `rate` gives at the current cycle,
/// rounded and at least one cycle, and pushes a request for the load
/// `pick` then chooses, until the horizon. Where `rate` pauses it jumps
/// to the pause's end without a draw; a gap that lands inside a pause is
/// dropped, and the stream resumes after that pause.
fn arrivals<'a>(
    requests: &mut Vec<Request>,
    rng: &mut Rng,
    horizon: u64,
    rate: impl Fn(u64) -> Rate,
    mut pick: impl FnMut(&mut Rng) -> &'a TenantLoad,
) {
    let mut t = 0u64;
    while t < horizon {
        match rate(t) {
            Rate::PausedUntil(end) => t = end,
            Rate::Gap(mean) => {
                t = t.saturating_add(rng.next_exp(mean).round().max(1.0) as u64);
                if t < horizon && matches!(rate(t), Rate::Gap(_)) {
                    let load = pick(rng);
                    requests.push(Request {
                        id: 0,
                        tenant: load.tenant.clone(),
                        model: load.model.clone(),
                        arrival: t,
                        deadline: load.deadline.map(|d| t + d),
                    });
                }
            }
        }
    }
}

/// The on/off rate of the bursty generators: the first quarter of every
/// `burst_period` cycles (at least 4) carries the whole load at a gap of
/// `mean_gap × BURST_DUTY`, and the rest pauses until the next period.
fn bursts(mean_gap: u64, burst_period: u64) -> impl Fn(u64) -> Rate {
    let period = burst_period.max(4);
    let on = ((period as f64 * BURST_DUTY) as u64).max(1);
    let gap = mean_gap as f64 * BURST_DUTY;
    move |t| {
        if t % period < on {
            Rate::Gap(gap)
        } else {
            // saturating: a huge period must clamp at the horizon, not
            // overflow the window arithmetic
            Rate::PausedUntil((t / period).saturating_add(1).saturating_mul(period))
        }
    }
}

/// One merged stream over `loads` at `rate`, each request picking its
/// load by Zipf rank after its gap: the `i`-th entry has weight
/// `1 / (i + 1)^exponent`. Empty `loads` or `mean_gap == 0` offers no
/// load.
fn zipf_stream(
    loads: &[TenantLoad],
    horizon: u64,
    mean_gap: u64,
    exponent: f64,
    mut rng: Rng,
    rate: impl Fn(u64) -> Rate,
) -> Trace {
    let mut requests = Vec::new();
    if !loads.is_empty() && mean_gap > 0 {
        let weights: Vec<f64> = (0..loads.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        arrivals(&mut requests, &mut rng, horizon, rate, |rng| {
            let mut pick = rng.next_f64() * total;
            let mut idx = 0usize;
            while idx + 1 < loads.len() && pick >= weights[idx] {
                pick -= weights[idx];
                idx += 1;
            }
            &loads[idx]
        });
    }
    Trace::from_requests(requests)
}

impl Trace {
    /// Builds a trace from raw requests: sorts by `(arrival, tenant,
    /// model)` and reassigns dense ids, so equal inputs give identical
    /// traces regardless of input order.
    #[must_use]
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        requests.sort_by(|a, b| {
            (a.arrival, &a.tenant, &a.model, a.deadline)
                .cmp(&(b.arrival, &b.tenant, &b.model, b.deadline))
        });
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        Trace { requests }
    }

    /// Merged per-tenant Poisson streams over `[0, horizon)` cycles.
    /// Each tenant draws from its own seeded RNG sub-stream, so adding a
    /// tenant never perturbs the others' arrivals. A tenant with
    /// `mean_gap == 0` offers no load (an empty stream) rather than
    /// degenerating into an arrival every cycle.
    #[must_use]
    pub fn poisson(loads: &[TenantLoad], horizon: u64, seed: u64) -> Self {
        let mut requests = Vec::new();
        for (ti, load) in loads.iter().enumerate().filter(|(_, l)| l.mean_gap > 0) {
            let mut rng = Rng::new(seed.wrapping_add((ti as u64).wrapping_mul(0x9E37)));
            let gap = load.mean_gap as f64;
            let rate = |_| Rate::Gap(gap);
            arrivals(&mut requests, &mut rng, horizon, rate, |_| load);
        }
        Trace::from_requests(requests)
    }

    /// On/off-modulated Poisson streams: each tenant's arrivals are
    /// confined to burst windows covering the first quarter of every
    /// `burst_period` cycles, where the instantaneous rate is boosted 4×
    /// over the tenant's mean. The long-run offered load matches
    /// [`Trace::poisson`]; only the clustering changes — which is exactly
    /// what separates scheduler policies at the tail.
    ///
    /// A `burst_period` longer than the horizon clamps: arrivals simply
    /// land in the single partial on-window the horizon covers. A tenant
    /// with `mean_gap == 0` offers no load, as in [`Trace::poisson`].
    #[must_use]
    pub fn bursty(loads: &[TenantLoad], horizon: u64, burst_period: u64, seed: u64) -> Self {
        let mut requests = Vec::new();
        for (ti, load) in loads.iter().enumerate().filter(|(_, l)| l.mean_gap > 0) {
            let mut rng = Rng::new(seed.wrapping_add((ti as u64).wrapping_mul(0xB5E7)));
            let rate = bursts(load.mean_gap, burst_period);
            arrivals(&mut requests, &mut rng, horizon, rate, |_| load);
        }
        Trace::from_requests(requests)
    }

    /// One merged Poisson arrival stream with Zipf-skewed model
    /// popularity: every `mean_gap` cycles on average a request arrives
    /// and picks its tenant/model by rank — the `i`-th entry of `loads`
    /// is drawn with weight `1 / (i + 1)^exponent`. With `exponent`
    /// around 1 the head entry dominates (the classic repeat-heavy
    /// serving mix a weight cache exists for); `exponent == 0.0` is a
    /// uniform pick. The per-tenant `mean_gap` fields are ignored — the
    /// stream's rate is the `mean_gap` argument; per-tenant deadlines
    /// still apply. Empty `loads` or `mean_gap == 0` yields an empty
    /// trace.
    #[must_use]
    pub fn zipf(
        loads: &[TenantLoad],
        horizon: u64,
        mean_gap: u64,
        exponent: f64,
        seed: u64,
    ) -> Self {
        let rng = Rng::new(seed.wrapping_add(ZIPF_SALT));
        let gap = mean_gap as f64;
        zipf_stream(loads, horizon, mean_gap, exponent, rng, |_| Rate::Gap(gap))
    }

    /// [`Trace::zipf`]'s popularity skew with [`Trace::bursty`]'s on/off
    /// arrival clustering: one merged stream whose arrivals are confined
    /// to burst windows (first quarter of every `burst_period`, rate
    /// boosted 4× inside so the long-run offered load stays
    /// `1/mean_gap`), each request picking its tenant/model by Zipf rank
    /// over `loads`. This is the cluster failover demo's trace shape —
    /// bursty multi-tenant traffic with a repeat-heavy model mix. Empty
    /// `loads` or `mean_gap == 0` yields an empty trace.
    #[must_use]
    pub fn zipf_bursty(
        loads: &[TenantLoad],
        horizon: u64,
        mean_gap: u64,
        exponent: f64,
        burst_period: u64,
        seed: u64,
    ) -> Self {
        let rng = Rng::new(seed.wrapping_add(ZIPF_SALT));
        let rate = bursts(mean_gap, burst_period);
        zipf_stream(loads, horizon, mean_gap, exponent, rng, rate)
    }

    /// Diurnal Zipf traffic for soak runs: one merged arrival stream
    /// whose rate follows a repeating day-shaped curve — a dead-quiet
    /// night, a morning ramp, a midday peak, an evening fade — while
    /// every request picks its tenant/model by Zipf rank over `loads`
    /// exactly as in [`Trace::zipf`].
    ///
    /// The day is split into eight equal phases with rate multipliers
    /// `[0, 1, 2, 5, 8, 5, 2, 1]` over the base rate `1/mean_gap`
    /// (`day` is rounded down to a multiple of eight phases, minimum
    /// one cycle each). The first phase offers *zero* load: no
    /// arrivals are generated there at all — the generator jumps to
    /// the next phase boundary instead of panicking on or spinning at
    /// an infinite gap, and an arrival whose gap lands inside a later
    /// night is likewise suppressed. A horizon that ends inside the
    /// opening night yields an empty trace. Empty `loads` or
    /// `mean_gap == 0` yields an empty trace, as in [`Trace::zipf`].
    #[must_use]
    pub fn diurnal(
        loads: &[TenantLoad],
        horizon: u64,
        mean_gap: u64,
        exponent: f64,
        day: u64,
        seed: u64,
    ) -> Self {
        const PHASES: [u64; 8] = [0, 1, 2, 5, 8, 5, 2, 1];
        let phase_len = (day / 8).max(1);
        let day = phase_len * 8; // phases tile the absolute cycle grid
        let rate = |t: u64| match PHASES[((t % day) / phase_len) as usize] {
            0 => Rate::PausedUntil((t / phase_len).saturating_add(1).saturating_mul(phase_len)),
            m => Rate::Gap(mean_gap as f64 / m as f64),
        };
        let rng = Rng::new(seed.wrapping_add(0xD1AB_4A1D_27D4_EB4F));
        zipf_stream(loads, horizon, mean_gap, exponent, rng, rate)
    }

    /// Renders the trace as a JSON document ([`Trace::from_json`] reads
    /// it back verbatim).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"tenant\":{},\"model\":{},\"arrival\":{},\"deadline\":{}}}",
                json::quote(&r.tenant),
                json::quote(&r.model),
                r.arrival,
                r.deadline.map_or("null".to_string(), |d| d.to_string()),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a trace from its JSON form:
    ///
    /// ```json
    /// {"requests": [
    ///   {"tenant": "vision", "model": "resnet18_segment",
    ///    "arrival": 0, "deadline": 500000},
    ///   {"tenant": "keyword", "model": "small", "arrival": 1200}
    /// ]}
    /// ```
    ///
    /// The text must be one JSON document (see [`crate::json`]): an
    /// object whose `requests` member is an array of objects. In each
    /// request `model` is a required string, `tenant` a string that
    /// defaults to the model, `arrival` a required non-negative integer,
    /// and `deadline` a non-negative integer, `null`, or absent. Keys
    /// this loader does not know are ignored whatever they hold, and a
    /// repeated key takes its last value. Requests are re-sorted and
    /// re-numbered, so hand-edited files need no care about ordering or
    /// ids.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadTrace`] for text that is not JSON (with
    /// the byte offset) and for a document that breaks the rules above
    /// (with the request's index).
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        let bad = |reason: String| ServeError::BadTrace { reason };
        let doc = json::parse(text).map_err(|e| bad(e.to_string()))?;
        let items = doc
            .get("requests")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("expected an object with a `requests` array".into()))?;
        let mut requests = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let field = |key: &str, want: &str| bad(format!("request {i}: `{key}` must be {want}"));
            if !matches!(item, Value::Object(_)) {
                return Err(bad(format!("request {i} is not an object")));
            }
            let model = item
                .get("model")
                .and_then(Value::as_str)
                .ok_or_else(|| field("model", "a string"))?;
            let tenant = match item.get("tenant") {
                None => model,
                Some(v) => v.as_str().ok_or_else(|| field("tenant", "a string"))?,
            };
            let arrival = item
                .get("arrival")
                .and_then(Value::as_u64)
                .ok_or_else(|| field("arrival", "a non-negative integer"))?;
            let deadline = match item.get("deadline") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| field("deadline", "a non-negative integer or null"))?,
                ),
            };
            requests.push(Request {
                id: 0,
                tenant: tenant.to_string(),
                model: model.to_string(),
                arrival,
                deadline,
            });
        }
        Ok(Trace::from_requests(requests))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> Vec<TenantLoad> {
        vec![
            TenantLoad {
                tenant: "vision".into(),
                model: "resnet18_segment".into(),
                mean_gap: 50_000,
                deadline: Some(400_000),
            },
            TenantLoad {
                tenant: "keyword".into(),
                model: "small".into(),
                mean_gap: 10_000,
                deadline: None,
            },
        ]
    }

    #[test]
    fn poisson_is_sorted_dense_and_deterministic() {
        let a = Trace::poisson(&loads(), 500_000, 42);
        let b = Trace::poisson(&loads(), 500_000, 42);
        assert_eq!(a, b);
        assert!(!a.requests.is_empty());
        for (i, r) in a.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival < 500_000);
            if i > 0 {
                assert!(r.arrival >= a.requests[i - 1].arrival);
            }
        }
        // both tenants show up, deadlines only where configured
        assert!(a.requests.iter().any(|r| r.tenant == "vision"));
        assert!(a.requests.iter().any(|r| r.tenant == "keyword"));
        for r in &a.requests {
            match r.tenant.as_str() {
                "vision" => assert_eq!(r.deadline, Some(r.arrival + 400_000)),
                _ => assert_eq!(r.deadline, None),
            }
        }
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let t = Trace::poisson(&loads(), 2_000_000, 1);
        let keyword = t.requests.iter().filter(|r| r.tenant == "keyword").count();
        // mean gap 10_000 over 2M cycles → ~200 expected
        assert!((120..=280).contains(&keyword), "{keyword}");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            Trace::poisson(&loads(), 500_000, 1),
            Trace::poisson(&loads(), 500_000, 2)
        );
    }

    #[test]
    fn bursty_clusters_arrivals() {
        let period = 100_000u64;
        let t = Trace::bursty(&loads(), 2_000_000, period, 42);
        assert!(!t.requests.is_empty());
        let on = (period as f64 * BURST_DUTY) as u64;
        for r in &t.requests {
            assert!(r.arrival % period < on, "arrival outside burst window");
        }
    }

    #[test]
    fn bursty_is_deterministic() {
        let a = Trace::bursty(&loads(), 1_000_000, 100_000, 9);
        let b = Trace::bursty(&loads(), 1_000_000, 100_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let a = Trace::zipf(&loads(), 2_000_000, 10_000, 1.2, 42);
        let b = Trace::zipf(&loads(), 2_000_000, 10_000, 1.2, 42);
        assert_eq!(a, b);
        assert!(!a.requests.is_empty());
        // rank 0 ("vision") must dominate rank 1 under exponent > 1
        let head = a.requests.iter().filter(|r| r.tenant == "vision").count();
        let tail = a.requests.len() - head;
        assert!(head > tail, "head {head} vs tail {tail}");
        for r in &a.requests {
            match r.tenant.as_str() {
                "vision" => assert_eq!(r.deadline, Some(r.arrival + 400_000)),
                _ => assert_eq!(r.deadline, None),
            }
        }
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let t = Trace::zipf(&loads(), 4_000_000, 5_000, 0.0, 7);
        let head = t.requests.iter().filter(|r| r.tenant == "vision").count();
        let frac = head as f64 / t.requests.len() as f64;
        assert!((0.4..0.6).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn zipf_degenerate_inputs_are_empty() {
        assert!(Trace::zipf(&[], 1_000_000, 100, 1.0, 1).requests.is_empty());
        assert!(Trace::zipf(&loads(), 1_000_000, 0, 1.0, 1).requests.is_empty());
    }

    #[test]
    fn diurnal_is_deterministic_and_sorted() {
        let a = Trace::diurnal(&loads(), 2_000_000, 5_000, 1.1, 200_000, 42);
        let b = Trace::diurnal(&loads(), 2_000_000, 5_000, 1.1, 200_000, 42);
        assert_eq!(a, b);
        assert!(!a.requests.is_empty());
        for (i, r) in a.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival < 2_000_000);
            if i > 0 {
                assert!(r.arrival >= a.requests[i - 1].arrival);
            }
        }
    }

    #[test]
    fn diurnal_zero_rate_phase_emits_no_arrivals() {
        // phase 0 of every day is dead air: no arrival may land there
        let day = 160_000u64;
        let phase_len = day / 8;
        let t = Trace::diurnal(&loads(), 4_000_000, 2_000, 1.1, day, 7);
        assert!(!t.requests.is_empty());
        for r in &t.requests {
            assert!(
                r.arrival % day >= phase_len,
                "arrival {} inside the zero-rate night",
                r.arrival
            );
        }
    }

    #[test]
    fn diurnal_peak_outdraws_shoulder() {
        // the 8x midday phase (index 4) must carry more arrivals than
        // the 1x morning phase (index 1) over many days
        let day = 80_000u64;
        let phase_len = day / 8;
        let t = Trace::diurnal(&loads(), 8_000_000, 2_000, 1.1, day, 3);
        let in_phase = |p: u64| {
            t.requests
                .iter()
                .filter(|r| (r.arrival % day) / phase_len == p)
                .count()
        };
        assert!(in_phase(4) > 2 * in_phase(1), "peak should dominate");
    }

    #[test]
    fn diurnal_degenerate_inputs_are_empty() {
        // no tenants / zero rate, as the other generators
        assert!(Trace::diurnal(&[], 1_000_000, 100, 1.0, 8_000, 1)
            .requests
            .is_empty());
        assert!(Trace::diurnal(&loads(), 1_000_000, 0, 1.0, 8_000, 1)
            .requests
            .is_empty());
        // a horizon that ends inside the opening night emits nothing
        // (and must terminate rather than spin on the zero-rate phase)
        assert!(Trace::diurnal(&loads(), 500, 100, 1.0, 80_000, 1)
            .requests
            .is_empty());
        // a degenerate one-cycle day still terminates and stays sorted
        let t = Trace::diurnal(&loads(), 100_000, 1_000, 1.0, 0, 5);
        for w in t.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::poisson(&loads(), 300_000, 13);
        let parsed = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn json_round_trip_escapes_hostile_names() {
        // Control chars (incl. ESC, the {:?}-formatting trap), quotes,
        // backslashes, DEL, and non-ASCII must all survive the
        // to_json/from_json round trip as valid JSON.
        let t = Trace::from_requests(vec![
            Request {
                id: 0,
                tenant: "esc\u{1b}[31m\"quoted\"\\back".into(),
                model: "tab\there\nnewline".into(),
                arrival: 5,
                deadline: Some(100),
            },
            Request {
                id: 0,
                tenant: "del\u{7f}süß-日本語".into(),
                model: "\u{1}\u{1f}".into(),
                arrival: 9,
                deadline: None,
            },
        ]);
        let json = t.to_json();
        assert!(!json.contains("\\u{"), "Rust Debug escapes are not JSON: {json}");
        assert_eq!(Trace::from_json(&json).unwrap(), t);
    }

    #[test]
    fn json_parses_standard_escapes() {
        let t = Trace::from_json(
            r#"{"requests": [{"tenant": "aA\n\t\r\b\f\u001b\u00e9\ud83d\ude00",
                             "model": "m", "arrival": 1}]}"#,
        )
        .unwrap();
        assert_eq!(
            t.requests[0].tenant,
            "aA\n\t\r\u{8}\u{c}\u{1b}\u{e9}\u{1f600}"
        );
        for bad in [
            r#"{"requests": [{"tenant": "\u12", "model": "m", "arrival": 1}]}"#,
            r#"{"requests": [{"tenant": "\ud800x", "model": "m", "arrival": 1}]}"#,
            r#"{"requests": [{"tenant": "\ud800\u0041", "model": "m", "arrival": 1}]}"#,
        ] {
            assert!(Trace::from_json(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn json_accepts_sparse_requests() {
        let t = Trace::from_json(
            r#"{ "requests": [
                {"model": "small", "arrival": 10, "offset": -3, "weight": 0.5},
                {"tenant": "v", "model": "big", "arrival": 5,
                 "deadline": 500, "note": "ignored", "extra": [1, {"a": true}],
                 "scale": 1e3, "pinned": true, "meta": {"b": {"c": [-1.5e-2]}}}
            ], "version": -3, "ratio": 0.5, "limit": 1e3, "strict": true,
               "origin": {"tool": "hand", "n": [0]} }"#,
        )
        .unwrap();
        assert_eq!(t.requests.len(), 2);
        // sorted by arrival, tenant defaults to the model name
        assert_eq!(t.requests[0].tenant, "v");
        assert_eq!(t.requests[0].deadline, Some(500));
        assert_eq!(t.requests[1].tenant, "small");
        assert_eq!(t.requests[1].deadline, None);
    }

    #[test]
    fn json_errors_are_typed() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"requests": [{"arrival": 1}]}"#,
            r#"{"requests": [{"model": "m"}]}"#,
            r#"{"requests": [{"model": "m", "arrival": -4}]}"#,
            r#"{"requests": []} trailing"#,
        ] {
            match Trace::from_json(bad) {
                Err(ServeError::BadTrace { .. }) => {}
                other => panic!("`{bad}` should fail as BadTrace, got {other:?}"),
            }
        }
        // the empty list itself is fine
        assert!(Trace::from_json(r#"{"requests": []}"#).unwrap().requests.is_empty());
    }
}
