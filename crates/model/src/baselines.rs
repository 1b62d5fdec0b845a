//! Analytical CPU and GPU baselines for Table 7.
//!
//! The paper measures an Intel i9-13900K (PyTorch + RAPL) and an NVIDIA
//! RTX 4090 (PyTorch + nvidia-smi) running unquantized ResNet-18 at batch
//! 1 (§5). We do not own the devices, so each baseline is a roofline-style
//! model: `latency = macs / (peak_macs_per_s × batch1_efficiency)`, with
//! the peak taken from the public Table-3 specs and the batch-1 efficiency
//! calibrated once so the model reproduces the paper's measured operating
//! point (22.3 ms / 176.4 W for the CPU, 1.02 ms / 228.6 W for the GPU).
//! The calibration is a single scalar per device — model *shape* (how
//! latency scales with work) is preserved for other networks.

use serde::{Deserialize, Serialize};

/// A batch-1 inference device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Display name.
    pub name: String,
    /// Execution lanes (CPU cores × SIMD lanes, or CUDA cores).
    pub lanes: f64,
    /// Clock, Hz.
    pub freq_hz: f64,
    /// Fused multiply-adds per lane per cycle at peak.
    pub macs_per_lane_cycle: f64,
    /// Fraction of peak achieved on batch-1 CNN inference (calibrated).
    pub batch1_efficiency: f64,
    /// Average board/package power during inference, W (measured value
    /// from the paper; RAPL / nvidia-smi).
    pub average_power_w: f64,
}

impl DeviceModel {
    /// The Table-3 CPU: Intel Core i9-13900K (24 cores, AVX2 ≈ 32 int8
    /// MACs per core-cycle effective).
    #[must_use]
    pub fn cpu_i9_13900k() -> Self {
        DeviceModel {
            name: "Intel i9-13900K".into(),
            lanes: 24.0,
            freq_hz: 3.0e9,
            macs_per_lane_cycle: 32.0,
            // calibrated so resnet18 (≈1.86 GMAC) lands at 22.3 ms
            batch1_efficiency: 0.0362,
            average_power_w: 176.4,
        }
    }

    /// The Table-3 GPU: NVIDIA RTX 4090 (16384 CUDA cores at 2.235 GHz,
    /// 2 FLOPs/core/cycle fused).
    #[must_use]
    pub fn gpu_rtx_4090() -> Self {
        DeviceModel {
            name: "NVIDIA RTX 4090".into(),
            lanes: 16384.0,
            freq_hz: 2.235e9,
            macs_per_lane_cycle: 1.0,
            // calibrated so resnet18 lands at 1.02 ms — batch-1 inference
            // leaves most of a 16k-core GPU idle
            batch1_efficiency: 0.0498,
            average_power_w: 228.6,
        }
    }

    /// Peak MAC rate, MACs/s.
    #[must_use]
    pub(crate) fn peak_macs_per_s(&self) -> f64 {
        self.lanes * self.freq_hz * self.macs_per_lane_cycle
    }

    /// Predicted batch-1 latency for a network of `macs`
    /// multiply-accumulates, seconds.
    #[must_use]
    pub fn latency_s(&self, macs: u64) -> f64 {
        macs as f64 / (self.peak_macs_per_s() * self.batch1_efficiency)
    }

    /// Predicted throughput, samples/s.
    #[must_use]
    pub fn throughput(&self, macs: u64) -> f64 {
        1.0 / self.latency_s(macs)
    }

    /// Throughput per watt, samples/s/W (Table 7's last row).
    #[must_use]
    pub fn throughput_per_watt(&self, macs: u64) -> f64 {
        self.throughput(macs) / self.average_power_w
    }
}

/// MAC count of the evaluation network *as the baselines run it*: full
/// ResNet-18 at 224×224 including the stem (the devices cannot skip it).
pub const RESNET18_FULL_MACS: u64 = 1_860_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_calibrated_to_paper_latency() {
        let cpu = DeviceModel::cpu_i9_13900k();
        let ms = cpu.latency_s(RESNET18_FULL_MACS) * 1e3;
        assert!((ms - 22.3).abs() < 1.0, "cpu latency {ms} ms");
    }

    #[test]
    fn gpu_calibrated_to_paper_latency() {
        let gpu = DeviceModel::gpu_rtx_4090();
        let ms = gpu.latency_s(RESNET18_FULL_MACS) * 1e3;
        assert!((ms - 1.02).abs() < 0.1, "gpu latency {ms} ms");
    }

    #[test]
    fn table7_throughput_shape() {
        let cpu = DeviceModel::cpu_i9_13900k();
        let gpu = DeviceModel::gpu_rtx_4090();
        let tc = cpu.throughput(RESNET18_FULL_MACS);
        let tg = gpu.throughput(RESNET18_FULL_MACS);
        assert!((tc - 44.8).abs() < 3.0, "cpu {tc}");
        assert!((tg - 980.0).abs() < 80.0, "gpu {tg}");
        // Table 7 throughput/W: CPU 0.25, GPU 4.29
        assert!((cpu.throughput_per_watt(RESNET18_FULL_MACS) - 0.25).abs() < 0.05);
        assert!((gpu.throughput_per_watt(RESNET18_FULL_MACS) - 4.29).abs() < 0.5);
    }

    #[test]
    fn latency_scales_with_work() {
        let cpu = DeviceModel::cpu_i9_13900k();
        assert!(
            (cpu.latency_s(2 * RESNET18_FULL_MACS) / cpu.latency_s(RESNET18_FULL_MACS) - 2.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn gpu_peak_far_above_cpu() {
        assert!(
            DeviceModel::gpu_rtx_4090().peak_macs_per_s()
                > 10.0 * DeviceModel::cpu_i9_13900k().peak_macs_per_s()
        );
    }
}
