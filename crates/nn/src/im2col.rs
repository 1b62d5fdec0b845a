//! An independent convolution path: im2col + matrix multiply.
//!
//! CPUs and GPUs (the paper's baselines) execute convolutions by lowering
//! them to GEMM. Implementing that lowering here serves two purposes: it
//! documents what the baseline devices actually compute, and it gives the
//! workspace a structurally *different* implementation to differentially
//! test the direct convolution against — two independent paths agreeing
//! bit-for-bit is much stronger evidence than either alone.

use crate::layer::ConvLayer;
use crate::tensor::Tensor;
use crate::NnError;

/// Lowers a `[C, H, W]` input to the im2col matrix: one row per output
/// position, one column per (channel, ky, kx) weight, with zero padding
/// materialized.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] on rank/channel mismatch.
pub(crate) fn im2col(input: &Tensor<i8>, layer: &ConvLayer) -> Result<Tensor<i8>, NnError> {
    let s = &layer.shape;
    if input.shape().len() != 3 || input.shape()[0] != s.in_channels {
        return Err(NnError::BadInput {
            layer: "im2col".into(),
            reason: format!("input {:?}", input.shape()),
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (oh, ow) = s.output_hw(h, w);
    let k = c * s.kernel_h * s.kernel_w;
    let mut m = Tensor::<i8>::zeros(&[oh * ow, k]);
    let pad = s.padding as isize;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            for ch in 0..c {
                for ky in 0..s.kernel_h {
                    for kx in 0..s.kernel_w {
                        let iy = (oy * s.stride) as isize - pad + ky as isize;
                        let ix = (ox * s.stride) as isize - pad + kx as isize;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            input.get(&[ch, iy as usize, ix as usize])
                        } else {
                            0
                        };
                        m.set(&[row, (ch * s.kernel_h + ky) * s.kernel_w + kx], v);
                    }
                }
            }
        }
    }
    Ok(m)
}

/// Convolution by im2col + GEMM: returns the same `[M, OH, OW]` i32
/// accumulator tensor as [`crate::layer::conv2d_i8`].
///
/// # Errors
///
/// Propagates [`im2col`]'s and shape errors.
pub(crate) fn conv2d_im2col(input: &Tensor<i8>, layer: &ConvLayer) -> Result<Tensor<i32>, NnError> {
    layer.validate()?;
    let s = &layer.shape;
    let (oh, ow) = s.output_hw(input.shape()[1], input.shape()[2]);
    let cols = im2col(input, layer)?;
    let k = s.in_channels * s.kernel_h * s.kernel_w;
    let w = layer.weights.data(); // [M, k] row-major already
    let mut out = Tensor::<i32>::zeros(&[s.out_channels, oh, ow]);
    for m in 0..s.out_channels {
        let wrow = &w[m * k..(m + 1) * k];
        for p in 0..oh * ow {
            let xrow = &cols.data()[p * k..(p + 1) * k];
            let mut acc = layer.bias[m];
            for (xi, wi) in xrow.iter().zip(wrow) {
                acc += *xi as i32 * *wi as i32;
            }
            out.set(&[m, p / ow, p % ow], acc);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::conv2d_i8;
    use crate::quant::Requantizer;
    use crate::tensor::ConvShape;
    use proptest::prelude::*;

    fn layer(m: usize, c: usize, k: usize, stride: usize, padding: usize, w: Vec<i8>) -> ConvLayer {
        ConvLayer {
            shape: ConvShape {
                out_channels: m,
                in_channels: c,
                kernel_h: k,
                kernel_w: k,
                stride,
                padding,
            },
            weights: Tensor::from_vec(&[m, c, k, k], w).unwrap(),
            bias: vec![0; m],
            requant: Requantizer::from_real_multiplier(0.5, 0),
            relu: false,
            pool: None,
        }
    }

    #[test]
    fn im2col_matrix_shape() {
        let l = layer(2, 3, 3, 1, 1, vec![1; 2 * 3 * 9]);
        let x = Tensor::filled(&[3, 5, 5], 1i8);
        let m = im2col(&x, &l).unwrap();
        assert_eq!(m.shape(), &[25, 27]);
    }

    #[test]
    fn padding_materializes_zeros() {
        let l = layer(1, 1, 3, 1, 1, vec![1; 9]);
        let x = Tensor::filled(&[1, 3, 3], 7i8);
        let m = im2col(&x, &l).unwrap();
        // the corner output row has zeros where the window hangs off
        let first_row = &m.data()[..9];
        assert_eq!(first_row[0], 0, "top-left of padded window");
        assert_eq!(first_row[8], 7, "centre of image");
    }

    #[test]
    fn matches_direct_conv_on_fixed_case() {
        let w: Vec<i8> = (0..2 * 3 * 9).map(|i| (i % 7) as i8 - 3).collect();
        let l = layer(2, 3, 3, 2, 1, w);
        let x = Tensor::from_fn(&[3, 7, 7], |i| ((i[0] * 5 + i[1] * 3 + i[2]) % 11) as i8 - 5);
        assert_eq!(
            conv2d_im2col(&x, &l).unwrap(),
            conv2d_i8(&x, &l).unwrap()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_differential_direct_vs_im2col(
            m in 1usize..4,
            c in 1usize..4,
            k in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..2,
            hw in 4usize..8,
            seed in any::<u32>(),
        ) {
            prop_assume!(hw + 2 * padding >= k);
            let n_w = m * c * k * k;
            let w: Vec<i8> = (0..n_w)
                .map(|i| ((i as u32).wrapping_mul(seed | 1) % 15) as i8 - 7)
                .collect();
            let l = layer(m, c, k, stride, padding, w);
            let x = Tensor::from_fn(&[c, hw, hw], |i| {
                (((i[0] * 31 + i[1] * 7 + i[2]) as u32 ^ seed) % 19) as i8 - 9
            });
            prop_assert_eq!(conv2d_im2col(&x, &l).unwrap(), conv2d_i8(&x, &l).unwrap());
        }
    }
}
