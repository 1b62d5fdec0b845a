//! Trace-generator edge cases: a rate-0 tenant offers no load (instead
//! of an arrival every cycle), burst windows longer than the horizon
//! clamp instead of overflowing or escaping `[0, horizon)`, and a digest
//! over a grid of edge values pins every generator's output.

use maicc_serve::trace::{TenantLoad, Trace};
use proptest::prelude::*;

fn load(tenant: &str, mean_gap: u64) -> TenantLoad {
    TenantLoad {
        tenant: tenant.into(),
        model: "small".into(),
        mean_gap,
        deadline: Some(150_000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `mean_gap: 0` means "this tenant offers no load": its stream is
    /// empty under both generators, and other tenants are unaffected.
    #[test]
    fn prop_rate_zero_tenant_yields_empty_stream(
        seed in 0u64..100_000,
        horizon in 1u64..500_000,
        bursty in any::<bool>(),
    ) {
        let loads = [load("idle", 0), load("busy", 40_000)];
        let trace = if bursty {
            Trace::bursty(&loads, horizon, 60_000, seed)
        } else {
            Trace::poisson(&loads, horizon, seed)
        };
        prop_assert!(
            trace.requests.iter().all(|r| r.tenant != "idle"),
            "a rate-0 tenant must generate nothing"
        );
        // Sub-streams are independent: waking the idle tenant up must
        // not perturb the busy tenant's arrivals.
        let woken = [load("idle", 50_000), load("busy", 40_000)];
        let with_idle_load = if bursty {
            Trace::bursty(&woken, horizon, 60_000, seed)
        } else {
            Trace::poisson(&woken, horizon, seed)
        };
        let busy = |t: &Trace| -> Vec<u64> {
            t.requests
                .iter()
                .filter(|r| r.tenant == "busy")
                .map(|r| r.arrival)
                .collect()
        };
        prop_assert_eq!(busy(&trace), busy(&with_idle_load));
    }

    /// A burst period longer than the horizon (up to u64::MAX) clamps:
    /// every arrival stays inside `[0, horizon)` and generation
    /// terminates without overflow.
    #[test]
    fn prop_burst_window_longer_than_horizon_clamps(
        seed in 0u64..100_000,
        horizon in 1u64..200_000,
        period_excess in 0u64..3,
    ) {
        // Periods at and beyond the horizon, including near-overflow.
        let period = match period_excess {
            0 => horizon,
            1 => horizon.saturating_mul(7),
            _ => u64::MAX - 1,
        };
        let loads = [load("a", 10_000), load("b", 25_000)];
        let trace = Trace::bursty(&loads, horizon, period, seed);
        prop_assert!(
            trace.requests.iter().all(|r| r.arrival < horizon),
            "arrivals must stay inside the horizon"
        );
        // Ids are dense and orderings canonical.
        for (i, r) in trace.requests.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64);
        }
    }
}

/// The degenerate all-tenants-idle trace is simply empty.
#[test]
fn all_rate_zero_is_empty() {
    let loads = [load("x", 0), load("y", 0)];
    assert!(Trace::poisson(&loads, 1_000_000, 9).requests.is_empty());
    assert!(Trace::bursty(&loads, 1_000_000, 50_000, 9).requests.is_empty());
}

/// A burst period of `u64::MAX` with a long horizon: the on-window is
/// `duty × period`, so generation lives entirely in one on-phase and
/// still terminates inside the horizon.
#[test]
fn max_burst_period_terminates() {
    let loads = [load("a", 5_000)];
    let trace = Trace::bursty(&loads, 300_000, u64::MAX, 3);
    assert!(!trace.requests.is_empty(), "one giant on-phase still admits load");
    assert!(trace.requests.iter().all(|r| r.arrival < 300_000));
}

/// FNV-1a over every generator's JSON on a grid of seeds, horizons,
/// burst periods, mean gaps, exponents and day lengths, edge values
/// included, plus empty `loads`: a change to any draw, salt, clamp or
/// skip moves the digest.
#[test]
fn generators_match_the_pinned_digest() {
    let tenant = |name: &str, model: &str, mean_gap: u64, deadline: Option<u64>| TenantLoad {
        tenant: name.into(),
        model: model.into(),
        mean_gap,
        deadline,
    };
    let load_sets = [
        vec![],
        vec![tenant("solo", "small", 1, None)],
        vec![
            tenant("vision", "resnet18_segment", 25_000, Some(60_000)),
            tenant("idle", "two_layer", 0, Some(1)),
            tenant("keyword", "small", 3_000, None),
        ],
    ];
    let seeds = [0, 42, u64::MAX];
    let horizons = [0, 1, 97, 5_003, 600_000];
    let bursts = [0, 3, 4, 5, 1_000, 200_000, u64::MAX];
    let gaps = [0, 1, 313, 12_000];
    let exponents = [0.0, 1.1, 2.0];
    let days = [0, 7, 8, 9, 800, 200_000];
    // skip grid points that would generate more than ~1,000 arrivals
    let small = |horizon: u64, gap: u64| horizon / gap.max(1) <= 1_000;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut traces = 0;
    let mut feed = |t: Trace| {
        for b in t.to_json().bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        traces += 1;
    };
    for loads in &load_sets {
        let min_gap = loads
            .iter()
            .map(|l| l.mean_gap)
            .filter(|&g| g > 0)
            .min()
            .unwrap_or(1);
        for &seed in &seeds {
            for &horizon in &horizons {
                if small(horizon, min_gap) {
                    feed(Trace::poisson(loads, horizon, seed));
                    for &burst in &bursts {
                        feed(Trace::bursty(loads, horizon, burst, seed));
                    }
                }
                for &gap in gaps.iter().filter(|&&g| small(horizon, g)) {
                    for &exponent in &exponents {
                        feed(Trace::zipf(loads, horizon, gap, exponent, seed));
                        for &burst in &bursts {
                            feed(Trace::zipf_bursty(
                                loads, horizon, gap, exponent, burst, seed,
                            ));
                        }
                        for &day in &days {
                            feed(Trace::diurnal(loads, horizon, gap, exponent, day, seed));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        (traces, format!("{hash:016x}")),
        (5934, "32090507de19f32d".into())
    );
}
