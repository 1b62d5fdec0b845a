//! Multi-DNN parallel inference on one MAICC array.
//!
//! The paper's motivation (§1) and future work (§8): the MIMD many-core
//! can host several networks at once, each on its own region of the array
//! with its own control flow. This module partitions the 210 cores among
//! models (proportionally to their work) and runs each partition's
//! heuristic mapping independently — the partitions share nothing but the
//! DRAM channels, so their latencies compose in parallel.

use crate::SimError;
use maicc_exec::config::ExecConfig;
use maicc_exec::pipeline_model::{run_network, RunReport};
use maicc_exec::segment::Strategy;
use maicc_nn::graph::Network;
use serde::{Deserialize, Serialize};

/// One model's outcome in a parallel deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// The network's name.
    pub name: String,
    /// Cores assigned to this model's partition.
    pub cores: usize,
    /// Batch-1 latency, milliseconds.
    pub latency_ms: f64,
    /// Sustained throughput, samples/s (the partition re-runs back to
    /// back).
    pub throughput: f64,
}

/// The combined outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDnnReport {
    /// Per-model reports.
    pub models: Vec<ModelReport>,
    /// Sum of per-model throughputs, samples/s.
    pub combined_throughput: f64,
}

/// Partitions `total_cores` among the models proportionally to their MAC
/// counts (minimum: each model's largest layer must fit) and maps each
/// with the heuristic strategy.
///
/// # Errors
///
/// Returns [`SimError::DoesNotFit`] if some model cannot fit its share.
pub fn parallel_inference(
    models: &[(&Network, [usize; 3])],
    total_cores: usize,
    base: &ExecConfig,
) -> Result<MultiDnnReport, SimError> {
    if models.is_empty() {
        return Err(SimError::DoesNotFit {
            reason: "no models given".into(),
        });
    }
    let macs: Vec<u64> = models
        .iter()
        .map(|(net, input)| net.total_macs(*input).map_err(SimError::from))
        .collect::<Result<_, _>>()?;
    let total_macs: u64 = macs.iter().sum();
    // each model needs at least its largest layer's node group
    let minima: Vec<usize> = models
        .iter()
        .map(|(net, input)| {
            let shapes = net.shapes(*input).map_err(SimError::from)?;
            let mut need = 2usize;
            for s in &shapes {
                let cap = maicc_exec::alloc::LayerCapacity::of(s);
                let min = cap.min_cores(&s.name).map_err(SimError::from)?;
                need = need.max(min + 1);
            }
            Ok(need)
        })
        .collect::<Result<_, SimError>>()?;
    let reserved: usize = minima.iter().sum();
    if reserved > total_cores {
        return Err(SimError::DoesNotFit {
            reason: format!(
                "models need {reserved} cores at minimum, array has {total_cores}"
            ),
        });
    }
    // distribute the remainder proportionally to work
    let spare = total_cores - reserved;
    let mut shares: Vec<usize> = minima
        .iter()
        .zip(&macs)
        .map(|(&min, &m)| min + ((m as f64 / total_macs as f64) * spare as f64).floor() as usize)
        .collect();
    let mut left = total_cores - shares.iter().sum::<usize>();
    let n_models = shares.len();
    let mut i = 0;
    while left > 0 {
        shares[i % n_models] += 1;
        left -= 1;
        i += 1;
    }

    let mut reports = Vec::with_capacity(models.len());
    let mut combined = 0.0;
    for ((net, input), cores) in models.iter().zip(&shares) {
        let cfg = ExecConfig {
            cores: *cores,
            ..*base
        };
        let run: RunReport =
            run_network(net, *input, Strategy::Heuristic, &cfg).map_err(|e| {
                SimError::DoesNotFit {
                    reason: format!("{}: {e}", net.name()),
                }
            })?;
        let latency_ms = run.total_ms(&cfg);
        let throughput = run.throughput(&cfg);
        combined += throughput;
        reports.push(ModelReport {
            name: net.name().to_string(),
            cores: *cores,
            latency_ms,
            throughput,
        });
    }
    Ok(MultiDnnReport {
        models: reports,
        combined_throughput: combined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maicc_nn::resnet::{resnet18, tinynet};

    #[test]
    fn two_models_share_the_array() {
        let big = resnet18(1000);
        let small = tinynet(10);
        let cfg = ExecConfig::default();
        // ResNet-18's conv4 layers alone occupy 206 nodes, so sharing an
        // array with a second model needs more than 210 cores — the
        // scaled-up deployment §6.3 argues for
        let r = parallel_inference(
            &[(&big, [64, 56, 56]), (&small, [32, 32, 32])],
            256,
            &cfg,
        )
        .unwrap();
        assert_eq!(r.models.len(), 2);
        let total: usize = r.models.iter().map(|m| m.cores).sum();
        assert_eq!(total, 256);
        // the big model gets the lion's share
        assert!(r.models[0].cores > r.models[1].cores);
        assert!(r.combined_throughput > 0.0);
    }

    #[test]
    fn small_model_latency_barely_suffers() {
        // running tinynet beside resnet costs it cores but it still beats
        // resnet's latency by a wide margin (independent MIMD partitions)
        let big = resnet18(1000);
        let small = tinynet(10);
        let cfg = ExecConfig::default();
        let r = parallel_inference(
            &[(&big, [64, 56, 56]), (&small, [32, 32, 32])],
            256,
            &cfg,
        )
        .unwrap();
        let rn = &r.models[0];
        let tn = &r.models[1];
        assert!(tn.latency_ms < rn.latency_ms / 2.0, "{tn:?} vs {rn:?}");
    }

    #[test]
    fn three_identical_models_split_evenly() {
        let a = tinynet(10);
        let cfg = ExecConfig::default();
        let r = parallel_inference(
            &[
                (&a, [32, 16, 16]),
                (&a, [32, 16, 16]),
                (&a, [32, 16, 16]),
            ],
            210,
            &cfg,
        )
        .unwrap();
        let cores: Vec<usize> = r.models.iter().map(|m| m.cores).collect();
        assert_eq!(cores.iter().sum::<usize>(), 210);
        assert!(cores.iter().all(|&c| (68..=72).contains(&c)), "{cores:?}");
        // near-identical throughputs
        let t0 = r.models[0].throughput;
        for m in &r.models {
            assert!((m.throughput - t0).abs() / t0 < 0.05);
        }
    }

    #[test]
    fn impossible_partition_reported() {
        let big = resnet18(1000);
        let cfg = ExecConfig::default();
        // conv4 layers need ~206 cores; 50 won't do
        let r = parallel_inference(&[(&big, [64, 56, 56])], 50, &cfg);
        assert!(matches!(r, Err(SimError::DoesNotFit { .. })));
    }

    #[test]
    fn empty_model_list_rejected() {
        let cfg = ExecConfig::default();
        assert!(parallel_inference(&[], 210, &cfg).is_err());
    }
}
