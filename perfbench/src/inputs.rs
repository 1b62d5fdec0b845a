//! Seeded inputs. Every input the workloads consume is generated here
//! from `--seed`; the workload code receives only the result.

use maicc::nn::tensor::Tensor;
use maicc::noc::{NocFaultPlan, RetryPolicy};
use maicc::serve::cluster::{ClusterFaultPlan, FabricFaultKind};
use maicc::serve::server::FaultConfig;
use maicc::serve::trace::{Request, TenantLoad, Trace};
use maicc::sim::stream::StreamConfig;
use maicc::sram::ecc::EccMode;
use maicc::sram::fault::FaultPlan;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Independent overload traces per run. Their pooled outcomes reach 100
/// completions, and summing several traces keeps the host work of a pass
/// from swinging with one trace's model mix.
const OVERLOAD_TRACES: u64 = 6;
/// Horizon of one overload trace, fabric cycles.
const OVERLOAD_HORIZON: u64 = 1_200_000;
/// Burst period of the overload trace, fabric cycles.
const OVERLOAD_BURST: u64 = 200_000;
/// Rate curve of one burst period: all of it in the first quarter, at
/// four times the mean rate.
const BURST_CURVE: [u64; 4] = [4, 0, 0, 0];
/// Per-access probability of a transient CMem bit flip; flips are single
/// bit, so ECC corrects every one.
const CMEM_FLIP_RATE: f64 = 1e-4;
/// Per-flit probability of NoC corruption; CRC rejects the packet and it
/// is retransmitted.
const NOC_CORRUPT_RATE: f64 = 1e-3;

/// Independent soak runs per pass, ten diurnal days each: thirty days in
/// all. Three shorter runs average out what one long run leaves to the
/// seed.
const SOAK_RUNS: u64 = 3;
/// Horizon of one soak run: ten days of `SOAK_DAY` cycles.
const SOAK_HORIZON: u64 = 2_000_000;
const SOAK_DAY: u64 = 200_000;
/// Mean gap of the soak stream at rate multiplier 1, fabric cycles: three
/// quarters of the `maicc soak` rate, which keeps the churned cluster
/// below capacity. Above it the backlog, and with it the makespan and
/// the host work, swings with the seed.
const SOAK_GAP: u64 = 16_000;
/// Zipf exponent of the soak model popularity.
const SOAK_ZIPF: f64 = 1.1;
/// Rate multipliers of the eight phases of a diurnal day: a quiet night,
/// a morning ramp, a midday peak and an evening fade.
const DIURNAL_CURVE: [u64; 8] = [0, 1, 2, 5, 8, 5, 2, 1];
/// Fabrics of the soak cluster, which the fault churn rotates over.
pub const SOAK_FABRICS: usize = 4;
const SOAK_CHURN_PERIOD: u64 = 150_000;

/// A uniform draw in `[0, 1)` per `(seed, index)`.
fn unit(seed: u64, index: u64) -> f64 {
    (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Arrival cycles in `[0, horizon)` of a stream whose rate follows a
/// repeating curve: `curve[i]` multiplies the base rate `1 / gap` over
/// the `i`-th of the curve's equal phases of `period`. Arrival `k` sits
/// at a uniformly jittered point of the `k`-th slot of `gap` units of
/// rate-weighted time. The seed moves every arrival but not how many
/// there are, so the offered load, and with it the work of a pass, does
/// not swing with the seed the way a Poisson count does.
fn stratified(seed: u64, horizon: u64, gap: u64, period: u64, curve: &[u64]) -> Vec<u64> {
    let phase = period / curve.len() as u64;
    let per_period: u64 = curve.iter().sum::<u64>() * phase;
    // rate-weighted time -> cycles
    let cycle_at = |x: f64| -> u64 {
        let periods = (x / per_period as f64).floor();
        let mut rest = x - periods * per_period as f64;
        let mut t = periods as u64 * period;
        for &w in curve {
            let width = (w * phase) as f64;
            if rest < width {
                return t + (rest / w as f64) as u64;
            }
            rest -= width;
            t += phase;
        }
        t
    };
    (0u64..)
        .map(|k| cycle_at((k as f64 + unit(seed, k)) * gap as f64))
        .take_while(|&t| t < horizon)
        .collect()
}

/// A request of `load` at cycle `t`.
fn request(load: &TenantLoad, t: u64) -> Request {
    Request {
        id: 0,
        tenant: load.tenant.clone(),
        model: load.model.clone(),
        arrival: t,
        deadline: load.deadline.map(|d| t + d),
    }
}

/// splitmix64: a well-mixed value per `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The three built-in segments, each with a seeded ifmap in the built-in
/// inputs' range `[-5, 5]`.
pub fn multi_dnn(seed: u64) -> Vec<(&'static str, StreamConfig)> {
    [
        ("resnet18_segment", StreamConfig::resnet18_segment()),
        ("two_layer", StreamConfig::two_layer_test()),
        ("small", StreamConfig::small_test()),
    ]
    .into_iter()
    .zip(0u64..)
    .map(|((name, mut cfg), m)| {
        let salt = mix(seed, m);
        let shape = cfg.input.shape().to_vec();
        let mut k = 0u64;
        cfg.input = Tensor::from_fn(&shape, |_| {
            k += 1;
            (mix(salt, k) % 11) as i8 - 5
        });
        (name, cfg)
    })
    .collect()
}

/// Inputs of `overload_faults`.
pub struct OverloadInputs {
    pub trace: Trace,
    pub fault: FaultConfig,
}

/// Independent overload inputs, each a bursty trace over the overload
/// mix, a fleet-wide fault plan, and a dead CMem slice on the trace's
/// first two Hard-tier (`vision`) requests.
pub fn overload(seed: u64, loads: &[TenantLoad]) -> Vec<OverloadInputs> {
    (0..OVERLOAD_TRACES)
        .map(|k| overload_trace(mix(seed, 100 + k), loads))
        .collect()
}

/// Each tenant's stream confined to the first quarter of every burst
/// period, at four times its mean rate there.
fn overload_trace(seed: u64, loads: &[TenantLoad]) -> OverloadInputs {
    let requests = loads
        .iter()
        .zip(0u64..)
        .flat_map(|(load, i)| {
            stratified(
                mix(seed, 10 + i),
                OVERLOAD_HORIZON,
                load.mean_gap,
                OVERLOAD_BURST,
                &BURST_CURVE,
            )
            .into_iter()
            .map(move |t| request(load, t))
        })
        .collect();
    let trace = Trace::from_requests(requests);
    let fail_at_requests = trace
        .requests
        .iter()
        .filter(|r| r.tenant == "vision")
        .take(2)
        .map(|r| r.id)
        .collect();
    let fault = FaultConfig {
        cmem: Some(FaultPlan::with_seed(mix(seed, 1)).transient(CMEM_FLIP_RATE)),
        noc: Some(NocFaultPlan::with_seed(mix(seed, 2)).corrupt_rate(NOC_CORRUPT_RATE)),
        ecc: EccMode::Correct,
        retry: Some(RetryPolicy::default()),
        fail_at_requests,
    };
    OverloadInputs { trace, fault }
}

/// Independent soak inputs, each a trace of the `maicc soak` shape and
/// its seeded fault churn: outages and brownouts. Tile-bank losses are
/// left out; each one forces fresh bit-level runs on new placements, and
/// how many depends on the seed more than anything else in the workload.
pub fn soak(seed: u64, loads: &[TenantLoad]) -> Vec<(Trace, ClusterFaultPlan)> {
    (0..SOAK_RUNS)
        .map(|k| {
            let s = mix(seed, 200 + k);
            let mut churn =
                ClusterFaultPlan::churn(SOAK_FABRICS, SOAK_HORIZON, SOAK_CHURN_PERIOD, s);
            churn
                .events
                .retain(|f| !matches!(f.kind, FabricFaultKind::TileLoss { .. }));
            (soak_trace(s, loads), churn)
        })
        .collect()
}

/// One merged stream over the diurnal curve whose requests take their
/// tenant by Zipf rank, the lightest model first, as `maicc soak` does.
/// Each tenant gets its Zipf share of the arrivals (largest remainders
/// round), dealt out in seeded order.
fn soak_trace(seed: u64, loads: &[TenantLoad]) -> Trace {
    let arrivals = stratified(seed, SOAK_HORIZON, SOAK_GAP, SOAK_DAY, &DIURNAL_CURVE);
    let weights: Vec<f64> = (1..=loads.len())
        .map(|rank| 1.0 / (rank as f64).powf(SOAK_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| w / total * arrivals.len() as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..loads.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder
        .iter()
        .cycle()
        .take(arrivals.len() - counts.iter().sum::<usize>())
    {
        counts[i] += 1;
    }
    // ranked lightest first: `loads` lists the heaviest model first
    let mut picks: Vec<&TenantLoad> = loads
        .iter()
        .rev()
        .zip(&counts)
        .flat_map(|(load, &n)| std::iter::repeat_n(load, n))
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(
            i,
            (mix(seed, 1_000_000 + i as u64) % (i as u64 + 1)) as usize,
        );
    }
    Trace::from_requests(
        arrivals
            .iter()
            .zip(picks)
            .map(|(&t, load)| request(load, t))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc::serve::registry::overload_mix;

    #[test]
    fn stratified_arrivals_follow_the_rate_curve() {
        // mean rate 1/100 over 10 bursts of 1,000 cycles: 100 arrivals, all
        // in the first quarter of each burst
        let t = stratified(7, 10_000, 100, 1_000, &BURST_CURVE);
        assert_eq!(t.len(), 100);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.iter().all(|&c| c % 1_000 < 250), "{t:?}");
        assert_ne!(t, stratified(8, 10_000, 100, 1_000, &BURST_CURVE));
        // the diurnal curve offers three times the base rate on average
        // and nothing in its first phase
        let d = stratified(7, 8_000, 10, 800, &DIURNAL_CURVE);
        assert_eq!(d.len(), 2_400);
        assert!(d.iter().all(|&c| c % 800 >= 100));
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let (a, b, c) = (multi_dnn(1), multi_dnn(1), multi_dnn(2));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.1.input.data(), y.1.input.data());
            assert_ne!(x.1.input.data(), z.1.input.data());
            assert_eq!(x.1.input.shape(), z.1.input.shape());
            assert!(x.1.input.data().iter().all(|v| (-5..=5).contains(v)));
        }
        let (_, loads, _) = overload_mix();
        let (o1, o2) = (overload(1, &loads), overload(2, &loads));
        assert_eq!(o1.len(), OVERLOAD_TRACES as usize);
        assert_eq!(o1[0].trace, overload(1, &loads)[0].trace);
        assert_ne!(o1[0].trace, o1[1].trace);
        assert_ne!(o1[0].trace, o2[0].trace);
        assert!(o1.iter().all(|i| i.fault.fail_at_requests.len() == 2));
        let (s1, s2) = (soak(1, &loads), soak(2, &loads));
        assert_eq!(
            s1[0].0.requests.len(),
            s2[0].0.requests.len(),
            "the seed moves arrivals, not their count"
        );
        assert_eq!(s1[0].0, soak(1, &loads)[0].0);
        assert_ne!(s1[0].0, s1[1].0);
        assert_ne!(s1[0].0, s2[0].0);
    }
}
