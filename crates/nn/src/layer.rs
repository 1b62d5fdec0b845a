//! Quantized computation layers and auxiliary functions (§2.1).
//!
//! The paper splits DNN layers in two classes: **computational layers**
//! (CONV, FC) that dominate MACs and map onto CMem, and **auxiliary
//! function layers** (activation, pooling, batch normalization,
//! quantization) that run on the RISC-V pipeline. This module provides
//! golden integer implementations of CONV, FC, ReLU, pooling, residual add
//! and requantization; every hardware model in the workspace validates
//! against these.
//!
//! Activations are `i8` tensors in `[C, H, W]` layout (channel-major,
//! Figure 1), accumulators are `i32`, weights are `i8` in `[M, C, R, S]`.

use crate::quant::Requantizer;
use crate::tensor::{ConvShape, Tensor};
use crate::NnError;
use serde::{Deserialize, Serialize};

/// Pooling variants the auxiliary phase supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolKind {
    /// Maximum pooling with square window `k` and stride `k`.
    Max {
        /// Window size and stride.
        k: usize,
    },
    /// Global average pooling down to 1×1.
    GlobalAvg,
}

/// A convolution layer with its fused auxiliary functions — the paper's
/// "mixed layer" (§4.1): CONV plus bias, optional residual add, batch-norm
/// (folded into the requantizer), ReLU, optional pooling, requantization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Geometry of the convolution.
    pub shape: ConvShape,
    /// Weights `[M, C, R, S]`, 8-bit.
    pub weights: Tensor<i8>,
    /// Per-filter bias added to the accumulator.
    pub bias: Vec<i32>,
    /// Integer-only requantization back to i8.
    pub requant: Requantizer,
    /// Apply ReLU before requantization.
    pub relu: bool,
    /// Optional pooling applied after requantization.
    pub pool: Option<PoolKind>,
}

impl ConvLayer {
    /// Validates the weight/bias shapes against the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on any inconsistency.
    pub(crate) fn validate(&self) -> Result<(), NnError> {
        let s = &self.shape;
        let expect = [s.out_channels, s.in_channels, s.kernel_h, s.kernel_w];
        if self.weights.shape() != expect {
            return Err(NnError::BadInput {
                layer: "conv".into(),
                reason: format!(
                    "weights {:?} do not match geometry {:?}",
                    self.weights.shape(),
                    expect
                ),
            });
        }
        if self.bias.len() != s.out_channels {
            return Err(NnError::BadInput {
                layer: "conv".into(),
                reason: format!(
                    "bias length {} != out_channels {}",
                    self.bias.len(),
                    s.out_channels
                ),
            });
        }
        Ok(())
    }
}

/// A fully connected layer with fused auxiliaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearLayer {
    /// Weights `[out, in]`, 8-bit.
    pub weights: Tensor<i8>,
    /// Per-output bias.
    pub bias: Vec<i32>,
    /// Integer-only requantization back to i8.
    pub requant: Requantizer,
    /// Apply ReLU before requantization.
    pub relu: bool,
}

impl LinearLayer {
    /// Output feature count.
    #[must_use]
    pub(crate) fn out_features(&self) -> usize {
        self.weights.shape()[0]
    }

    /// Input feature count.
    #[must_use]
    pub(crate) fn in_features(&self) -> usize {
        self.weights.shape()[1]
    }
}

/// Raw convolution: `i8 × i8 → i32` accumulation with zero padding.
///
/// Input `[C, H, W]`, output `[M, OH, OW]`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if the input rank or channel count is wrong.
pub fn conv2d_i8(input: &Tensor<i8>, layer: &ConvLayer) -> Result<Tensor<i32>, NnError> {
    layer.validate()?;
    let s = &layer.shape;
    if input.shape().len() != 3 || input.shape()[0] != s.in_channels {
        return Err(NnError::BadInput {
            layer: "conv".into(),
            reason: format!(
                "input {:?} incompatible with {} input channels",
                input.shape(),
                s.in_channels
            ),
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oh, ow) = s.output_hw(h, w);
    let (kh, kw, stride, pad) = (s.kernel_h, s.kernel_w, s.stride, s.padding);
    let in_data = input.data();
    let w_data = layer.weights.data();
    // Each weight is broadcast over its filter's output plane: per channel
    // and tap, one pass adds weight × input along every output row, so the
    // inner loop walks contiguous rows. The order of the sum differs from a
    // per-output loop, but i8 × i8 products summed in i32 are exact.
    let mut out = Vec::with_capacity(s.out_channels * oh * ow);
    for (m, &bias) in layer.bias.iter().enumerate() {
        let start = out.len();
        out.resize(start + oh * ow, bias);
        let plane = &mut out[start..];
        for ch in 0..c {
            let channel = &in_data[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let wv = i32::from(w_data[((m * c + ch) * kh + ky) * kw + kx]);
                    // the output columns whose tap lands inside the row:
                    // 0 <= ox * stride + kx - pad < w
                    let ox_lo = pad.saturating_sub(kx).div_ceil(stride);
                    let ox_hi = (w + pad).saturating_sub(kx).div_ceil(stride).min(ow);
                    if ox_lo >= ox_hi {
                        continue;
                    }
                    let ix_lo = ox_lo * stride + kx - pad;
                    for (oy, out_row) in plane.chunks_exact_mut(ow).enumerate() {
                        let Some(iy) = (oy * stride + ky).checked_sub(pad).filter(|&y| y < h)
                        else {
                            continue;
                        };
                        let row = &channel[iy * w + ix_lo..(iy + 1) * w];
                        for (acc, &x) in out_row[ox_lo..ox_hi]
                            .iter_mut()
                            .zip(row.iter().step_by(stride))
                        {
                            *acc += wv * i32::from(x);
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[s.out_channels, oh, ow], out)
}

/// Raw fully-connected layer: `i8 × i8 → i32`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if the input length mismatches.
pub(crate) fn linear_i8(input: &Tensor<i8>, layer: &LinearLayer) -> Result<Tensor<i32>, NnError> {
    let (out_f, in_f) = (layer.out_features(), layer.in_features());
    if input.len() != in_f {
        return Err(NnError::BadInput {
            layer: "linear".into(),
            reason: format!("input length {} != in_features {in_f}", input.len()),
        });
    }
    let mut out = Tensor::<i32>::zeros(&[out_f]);
    let x = input.data();
    let w = layer.weights.data();
    for o in 0..out_f {
        let mut acc = layer.bias[o];
        let row = &w[o * in_f..(o + 1) * in_f];
        for (xi, wi) in x.iter().zip(row) {
            acc += *xi as i32 * *wi as i32;
        }
        out.set(&[o], acc);
    }
    Ok(out)
}

/// Element-wise ReLU on an i32 accumulator tensor.
#[must_use]
pub fn relu_i32(t: &Tensor<i32>) -> Tensor<i32> {
    t.map(|x| x.max(0))
}

/// Saturating element-wise add of two i8 tensors (residual connection).
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] on differing shapes.
pub(crate) fn add_i8(a: &Tensor<i8>, b: &Tensor<i8>) -> Result<Tensor<i8>, NnError> {
    if a.shape() != b.shape() {
        return Err(NnError::ShapeMismatch {
            expected: a.shape().to_vec(),
            got: b.shape().to_vec(),
        });
    }
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x as i16 + y as i16).clamp(-128, 127) as i8)
        .collect();
    Tensor::from_vec(a.shape(), data)
}

/// Requantizes an i32 accumulator tensor to i8.
#[must_use]
pub fn requantize(t: &Tensor<i32>, r: &Requantizer) -> Tensor<i8> {
    t.map(|x| r.apply(x))
}

/// Max pooling with window `k`, stride `k`, on a `[C, H, W]` i8 tensor.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if the spatial dims are not divisible by `k`.
pub fn maxpool_i8(input: &Tensor<i8>, k: usize) -> Result<Tensor<i8>, NnError> {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    if h % k != 0 || w % k != 0 {
        return Err(NnError::BadInput {
            layer: "maxpool".into(),
            reason: format!("spatial {h}x{w} not divisible by window {k}"),
        });
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::<i8>::filled(&[c, oh, ow], i8::MIN);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = i8::MIN;
                for ky in 0..k {
                    for kx in 0..k {
                        m = m.max(input.get(&[ch, oy * k + ky, ox * k + kx]));
                    }
                }
                out.set(&[ch, oy, ox], m);
            }
        }
    }
    Ok(out)
}

/// Global average pooling: `[C, H, W] → [C]` (rounding to nearest).
#[must_use]
pub fn global_avgpool_i8(input: &Tensor<i8>) -> Tensor<i8> {
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let area = (h * w) as i32;
    let mut out = Tensor::<i8>::zeros(&[c]);
    for ch in 0..c {
        let mut sum = 0i32;
        for y in 0..h {
            for x in 0..w {
                sum += input.get(&[ch, y, x]) as i32;
            }
        }
        let avg = (sum + area.div_euclid(2) * sum.signum()) / area;
        out.set(&[ch], avg.clamp(-128, 127) as i8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::Requantizer;
    use proptest::prelude::*;

    fn unit_conv(m: usize, c: usize, k: usize, stride: usize, padding: usize) -> ConvLayer {
        ConvLayer {
            shape: ConvShape {
                out_channels: m,
                in_channels: c,
                kernel_h: k,
                kernel_w: k,
                stride,
                padding,
            },
            weights: Tensor::filled(&[m, c, k, k], 1),
            bias: vec![0; m],
            requant: Requantizer::from_real_multiplier(0.5, 0),
            relu: false,
            pool: None,
        }
    }

    #[test]
    fn conv_identity_1x1() {
        let mut l = unit_conv(1, 1, 1, 1, 0);
        l.weights = Tensor::filled(&[1, 1, 1, 1], 2);
        let input = Tensor::from_fn(&[1, 3, 3], |i| (i[1] * 3 + i[2]) as i8);
        let out = conv2d_i8(&input, &l).unwrap();
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(out.get(&[0, y, x]), 2 * (y * 3 + x) as i32);
            }
        }
    }

    #[test]
    fn conv_sum_window_3x3() {
        let l = unit_conv(1, 1, 3, 1, 0);
        let input = Tensor::filled(&[1, 5, 5], 1i8);
        let out = conv2d_i8(&input, &l).unwrap();
        assert_eq!(out.shape(), &[1, 3, 3]);
        assert!(out.data().iter().all(|&x| x == 9));
    }

    #[test]
    fn conv_padding_shrinks_border_sums() {
        let l = unit_conv(1, 1, 3, 1, 1);
        let input = Tensor::filled(&[1, 4, 4], 1i8);
        let out = conv2d_i8(&input, &l).unwrap();
        assert_eq!(out.shape(), &[1, 4, 4]);
        assert_eq!(out.get(&[0, 0, 0]), 4); // corner sees 2x2
        assert_eq!(out.get(&[0, 0, 1]), 6); // edge sees 2x3
        assert_eq!(out.get(&[0, 1, 1]), 9); // interior sees 3x3
    }

    #[test]
    fn conv_stride_two() {
        let l = unit_conv(1, 1, 1, 2, 0);
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as i8);
        let out = conv2d_i8(&input, &l).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.get(&[0, 0, 0]), 0);
        assert_eq!(out.get(&[0, 0, 1]), 2);
        assert_eq!(out.get(&[0, 1, 0]), 8);
        assert_eq!(out.get(&[0, 1, 1]), 10);
    }

    #[test]
    fn conv_accumulates_channels_and_bias() {
        let mut l = unit_conv(2, 3, 1, 1, 0);
        l.bias = vec![100, -100];
        let input = Tensor::filled(&[3, 2, 2], 5i8);
        let out = conv2d_i8(&input, &l).unwrap();
        assert!(out
            .data()
            .iter()
            .take(4)
            .all(|&x| x == 100 + 3 * 5));
        assert!(out.data().iter().skip(4).all(|&x| x == -100 + 3 * 5));
    }

    #[test]
    fn conv_rejects_bad_channel_count() {
        let l = unit_conv(1, 2, 1, 1, 0);
        let input = Tensor::filled(&[3, 2, 2], 0i8);
        assert!(conv2d_i8(&input, &l).is_err());
    }

    #[test]
    fn conv_validate_catches_weight_shape() {
        let mut l = unit_conv(2, 2, 3, 1, 1);
        l.weights = Tensor::filled(&[2, 2, 2, 2], 1);
        assert!(l.validate().is_err());
        l.weights = Tensor::filled(&[2, 2, 3, 3], 1);
        l.bias = vec![0];
        assert!(l.validate().is_err());
    }

    #[test]
    fn linear_matches_reference() {
        let l = LinearLayer {
            weights: Tensor::from_vec(&[2, 3], vec![1, 2, 3, -1, -2, -3]).unwrap(),
            bias: vec![10, 20],
            requant: Requantizer::from_real_multiplier(0.5, 0),
            relu: false,
        };
        let x = Tensor::from_vec(&[3], vec![1i8, 1, 1]).unwrap();
        let out = linear_i8(&x, &l).unwrap();
        assert_eq!(out.data(), &[16, 14]);
    }

    #[test]
    fn linear_rejects_wrong_len() {
        let l = LinearLayer {
            weights: Tensor::filled(&[2, 3], 1),
            bias: vec![0, 0],
            requant: Requantizer::from_real_multiplier(0.5, 0),
            relu: false,
        };
        assert!(linear_i8(&Tensor::filled(&[4], 1i8), &l).is_err());
    }

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(&[4], vec![-5, 0, 5, -1]).unwrap();
        assert_eq!(relu_i32(&t).data(), &[0, 0, 5, 0]);
    }

    #[test]
    fn add_saturates() {
        let a = Tensor::from_vec(&[3], vec![100i8, -100, 1]).unwrap();
        let b = Tensor::from_vec(&[3], vec![100i8, -100, 2]).unwrap();
        assert_eq!(add_i8(&a, &b).unwrap().data(), &[127, -128, 3]);
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let a = Tensor::filled(&[3], 0i8);
        let b = Tensor::filled(&[4], 0i8);
        assert!(add_i8(&a, &b).is_err());
    }

    #[test]
    fn maxpool_takes_window_max() {
        let input = Tensor::from_fn(&[1, 4, 4], |i| (i[1] * 4 + i[2]) as i8);
        let out = maxpool_i8(&input, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.get(&[0, 0, 0]), 5);
        assert_eq!(out.get(&[0, 1, 1]), 15);
    }

    #[test]
    fn maxpool_rejects_indivisible() {
        let input = Tensor::filled(&[1, 5, 5], 0i8);
        assert!(maxpool_i8(&input, 2).is_err());
    }

    #[test]
    fn global_avgpool_rounds() {
        let input = Tensor::from_vec(&[1, 2, 2], vec![1i8, 2, 3, 4]).unwrap();
        // mean 2.5 → rounds away from zero to 3
        assert_eq!(global_avgpool_i8(&input).data(), &[3]);
        let neg = Tensor::from_vec(&[1, 2, 2], vec![-1i8, -2, -3, -4]).unwrap();
        assert_eq!(global_avgpool_i8(&neg).data(), &[-3]);
    }

    #[test]
    fn requantize_applies_elementwise() {
        let t = Tensor::from_vec(&[3], vec![100, 200, -300]).unwrap();
        let r = Requantizer::from_real_multiplier(0.5, 0);
        assert_eq!(requantize(&t, &r).data(), &[50, 100, -128]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_conv_1x1_is_channel_mix(
            input in proptest::collection::vec(any::<i8>(), 3 * 4 * 4),
            weights in proptest::collection::vec(any::<i8>(), 2 * 3),
        ) {
            let l = ConvLayer {
                shape: ConvShape { out_channels: 2, in_channels: 3, kernel_h: 1, kernel_w: 1, stride: 1, padding: 0 },
                weights: Tensor::from_vec(&[2, 3, 1, 1], weights.clone()).unwrap(),
                bias: vec![0, 0],
                requant: Requantizer::from_real_multiplier(0.5, 0),
                relu: false,
                pool: None,
            };
            let x = Tensor::from_vec(&[3, 4, 4], input.clone()).unwrap();
            let out = conv2d_i8(&x, &l).unwrap();
            for y in 0..4 {
                for xx in 0..4 {
                    for m in 0..2 {
                        let expect: i32 = (0..3)
                            .map(|c| input[c * 16 + y * 4 + xx] as i32 * weights[m * 3 + c] as i32)
                            .sum();
                        prop_assert_eq!(out.get(&[m, y, xx]), expect);
                    }
                }
            }
        }

        #[test]
        fn prop_linear_matches_dot(
            x in proptest::collection::vec(any::<i8>(), 16),
            w in proptest::collection::vec(any::<i8>(), 16),
        ) {
            let l = LinearLayer {
                weights: Tensor::from_vec(&[1, 16], w.clone()).unwrap(),
                bias: vec![0],
                requant: Requantizer::from_real_multiplier(0.5, 0),
                relu: false,
            };
            let xt = Tensor::from_vec(&[16], x.clone()).unwrap();
            let out = linear_i8(&xt, &l).unwrap();
            let expect: i32 = x.iter().zip(&w).map(|(&a, &b)| a as i32 * b as i32).sum();
            prop_assert_eq!(out.data()[0], expect);
        }
    }
}
