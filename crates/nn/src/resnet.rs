//! ResNet-18 exactly as the paper's Table 6 lists it, plus small companion
//! networks for multi-DNN scenarios.
//!
//! The evaluation benchmarks ResNet-18 (He et al. 2016) with 8-bit
//! quantization, batch 1, **excluding the first layer** ("because it has
//! very low parallelism with only 3 ifmap channels", §5). What remains is
//! the 20-row table the paper reports: four stages of four 3×3 convolutions
//! (64/128/256/512 channels at 56/28/14/7 spatial resolution), three 1×1
//! projection shortcuts at the stage boundaries, and the final linear layer
//! fed by global average pooling (fused into `conv4_4` as an auxiliary).
//!
//! Weights are synthetic but **deterministic** — the evaluation metrics are
//! latency and energy, which depend only on shapes, while correctness of
//! every hardware model is judged against golden inference on these exact
//! weights.

use crate::graph::{Network, Node, NodeInput, NodeOp};
use crate::layer::{ConvLayer, LinearLayer, PoolKind};
use crate::quant::Requantizer;
use crate::tensor::{ConvShape, Tensor};

/// Deterministic synthetic weight at a 4-D weight coordinate: small signed
/// values in `[-3, 3]` with no shift bias.
#[must_use]
pub(crate) fn synthetic_weight(m: usize, c: usize, ky: usize, kx: usize) -> i8 {
    let h = m
        .wrapping_mul(31)
        .wrapping_add(c.wrapping_mul(17))
        .wrapping_add(ky.wrapping_mul(5))
        .wrapping_add(kx.wrapping_mul(3));
    ((h % 7) as i8) - 3
}

/// The `[out_c, in_c, k, k]` tensor of [`synthetic_weight`]s. A weight
/// depends on its filter `m` and channel `c` only through `(m + c) mod 7`,
/// since 31 and 17 are both 3 mod 7, so the fill copies one of seven
/// k×k blocks per (filter, channel) pair.
fn synthetic_weights(out_c: usize, in_c: usize, k: usize) -> Tensor<i8> {
    let taps = k * k;
    let blocks: Vec<i8> = (0..7)
        .flat_map(|j| (0..taps).map(move |t| synthetic_weight(j, 0, t / k, t % k)))
        .collect();
    let mut data = Vec::with_capacity(out_c * in_c * taps);
    for m in 0..out_c {
        for c in 0..in_c {
            let j = (m + c) % 7;
            data.extend_from_slice(&blocks[j * taps..(j + 1) * taps]);
        }
    }
    Tensor::from_vec(&[out_c, in_c, k, k], data).expect("one block per filter and channel")
}

/// Deterministic synthetic bias for filter `m`.
#[must_use]
pub(crate) fn synthetic_bias(m: usize) -> i32 {
    (((m * 13) % 9) as i32 - 4) * 8
}

#[allow(clippy::too_many_arguments)] // mirrors the paper's layer tuple
fn conv(
    name: &str,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    relu: bool,
    input: NodeInput,
    residual: Option<NodeInput>,
    pool: Option<PoolKind>,
) -> Node {
    let weights = synthetic_weights(out_c, in_c, k);
    let bias: Vec<i32> = (0..out_c).map(synthetic_bias).collect();
    // keep activation variance roughly unit through the stack: accumulator
    // noise grows with the square root of the receptive volume, so the
    // requantizer divides that back out
    let multiplier = (0.5 / ((in_c * k * k) as f64).sqrt()).min(0.99);
    Node {
        name: name.into(),
        op: NodeOp::Conv(ConvLayer {
            shape: ConvShape {
                out_channels: out_c,
                in_channels: in_c,
                kernel_h: k,
                kernel_w: k,
                stride,
                padding: k / 2,
            },
            weights,
            bias,
            requant: Requantizer::from_real_multiplier(multiplier, 0),
            relu,
            pool,
        }),
        input,
        residual,
    }
}

/// Builds the paper's 20-layer ResNet-18 (Table 6 rows 1–20).
///
/// The external input is the `[64, H, W]` tensor the (excluded) stem would
/// have produced — `[64, 56, 56]` for ImageNet-sized inputs, though the
/// graph adapts to any spatial size that survives three stride-2 stages.
///
/// # Example
///
/// ```
/// let net = maicc_nn::resnet::resnet18(1000);
/// let names: Vec<&str> = net.layers().iter().map(|l| l.name.as_str()).collect();
/// assert_eq!(names[0], "conv1_1");
/// assert_eq!(names[4], "shortcut1");
/// assert_eq!(names[19], "linear");
/// ```
#[must_use]
pub fn resnet18(num_classes: usize) -> Network {
    use NodeInput::{External, Node as N};
    let nodes = vec![
        // stage 1: 64 channels at 56×56
        conv("conv1_1", 64, 64, 3, 1, true, External, None, None),
        conv("conv1_2", 64, 64, 3, 1, true, N(0), Some(External), None),
        conv("conv1_3", 64, 64, 3, 1, true, N(1), None, None),
        conv("conv1_4", 64, 64, 3, 1, true, N(2), Some(N(1)), None),
        // stage 1→2 projection shortcut + stage 2: 128 channels at 28×28
        conv("shortcut1", 64, 128, 1, 2, false, N(3), None, None),
        conv("conv2_1", 64, 128, 3, 2, true, N(3), None, None),
        conv("conv2_2", 128, 128, 3, 1, true, N(5), Some(N(4)), None),
        conv("conv2_3", 128, 128, 3, 1, true, N(6), None, None),
        conv("conv2_4", 128, 128, 3, 1, true, N(7), Some(N(6)), None),
        // stage 2→3 shortcut + stage 3: 256 channels at 14×14
        conv("shortcut2", 128, 256, 1, 2, false, N(8), None, None),
        conv("conv3_1", 128, 256, 3, 2, true, N(8), None, None),
        conv("conv3_2", 256, 256, 3, 1, true, N(10), Some(N(9)), None),
        conv("conv3_3", 256, 256, 3, 1, true, N(11), None, None),
        conv("conv3_4", 256, 256, 3, 1, true, N(12), Some(N(11)), None),
        // stage 3→4 shortcut + stage 4: 512 channels at 7×7
        conv("shortcut3", 256, 512, 1, 2, false, N(13), None, None),
        conv("conv4_1", 256, 512, 3, 2, true, N(13), None, None),
        conv("conv4_2", 512, 512, 3, 1, true, N(15), Some(N(14)), None),
        conv("conv4_3", 512, 512, 3, 1, true, N(16), None, None),
        conv(
            "conv4_4",
            512,
            512,
            3,
            1,
            true,
            N(17),
            Some(N(16)),
            Some(PoolKind::GlobalAvg),
        ),
        // classifier
        Node {
            name: "linear".into(),
            op: NodeOp::Linear(LinearLayer {
                weights: Tensor::from_fn(&[num_classes, 512], |i| {
                    synthetic_weight(i[0], i[1], 0, 0)
                }),
                bias: (0..num_classes).map(synthetic_bias).collect(),
                requant: Requantizer::from_real_multiplier(0.5 / (512.0f64).sqrt(), 0),
                relu: false,
            }),
            input: N(18),
            residual: None,
        },
    ];
    Network::new("resnet18", nodes).expect("resnet18 graph is well-formed")
}

/// A small 5-layer CNN used as the *second* model in multi-DNN parallel
/// inference scenarios (§1 motivates autonomous-driving stacks running many
/// networks of different sizes side by side).
#[must_use]
pub fn tinynet(num_classes: usize) -> Network {
    use NodeInput::{External, Node as N};
    let nodes = vec![
        conv("t_conv1", 32, 32, 3, 1, true, External, None, None),
        conv("t_conv2", 32, 64, 3, 2, true, N(0), None, None),
        conv("t_conv3", 64, 64, 3, 1, true, N(1), Some(N(1)), None),
        conv(
            "t_conv4",
            64,
            128,
            3,
            2,
            true,
            N(2),
            None,
            Some(PoolKind::GlobalAvg),
        ),
        Node {
            name: "t_linear".into(),
            op: NodeOp::Linear(LinearLayer {
                weights: Tensor::from_fn(&[num_classes, 128], |i| {
                    synthetic_weight(i[0], i[1], 1, 1)
                }),
                bias: (0..num_classes).map(synthetic_bias).collect(),
                requant: Requantizer::from_real_multiplier(0.5 / (128.0f64).sqrt(), 0),
                relu: false,
            }),
            input: N(3),
            residual: None,
        },
    ];
    Network::new("tinynet", nodes).expect("tinynet graph is well-formed")
}

/// A VGG-11-style body (Simonyan & Zisserman 2014), starting — like
/// [`resnet18`] — from the post-stem `[64, H, W]` tensor: straight 3×3
/// convolutions with fused max-pooling at the stage boundaries and a
/// classifier head. Exercises pooling auxiliaries and very wide
/// (512-channel) layers without residual edges.
#[must_use]
pub fn vgg11(num_classes: usize) -> Network {
    use NodeInput::{External, Node as N};
    let pool = Some(PoolKind::Max { k: 2 });
    let nodes = vec![
        conv("v_conv1", 64, 128, 3, 1, true, External, None, pool),
        conv("v_conv2", 128, 256, 3, 1, true, N(0), None, None),
        conv("v_conv3", 256, 256, 3, 1, true, N(1), None, pool),
        conv("v_conv4", 256, 512, 3, 1, true, N(2), None, None),
        conv("v_conv5", 512, 512, 3, 1, true, N(3), None, pool),
        conv("v_conv6", 512, 512, 3, 1, true, N(4), None, None),
        conv(
            "v_conv7",
            512,
            512,
            3,
            1,
            true,
            N(5),
            None,
            Some(PoolKind::GlobalAvg),
        ),
        Node {
            name: "v_linear".into(),
            op: NodeOp::Linear(LinearLayer {
                weights: Tensor::from_fn(&[num_classes, 512], |i| {
                    synthetic_weight(i[0], i[1], 2, 1)
                }),
                bias: (0..num_classes).map(synthetic_bias).collect(),
                requant: Requantizer::from_real_multiplier(0.5 / (512.0f64).sqrt(), 0),
                relu: false,
            }),
            input: N(6),
            residual: None,
        },
    ];
    Network::new("vgg11", nodes).expect("vgg11 graph is well-formed")
}

/// A three-layer perceptron — the FC-only shape that LSTM cells and
/// Transformer blocks reduce to (§2.1: "they are essentially composed of
/// fully connected layers and the auxiliary functions").
#[must_use]
pub fn mlp(inputs: usize, hidden: usize, outputs: usize) -> Network {
    use NodeInput::{External, Node as N};
    let linear = |name: &str, in_f: usize, out_f: usize, relu: bool, input| Node {
        name: name.into(),
        op: NodeOp::Linear(LinearLayer {
            weights: Tensor::from_fn(&[out_f, in_f], |i| synthetic_weight(i[0], i[1], 0, 1)),
            bias: (0..out_f).map(synthetic_bias).collect(),
            requant: Requantizer::from_real_multiplier(
                (0.5 / (in_f as f64).sqrt()).min(0.99),
                0,
            ),
            relu,
        }),
        input,
        residual: None,
    };
    let nodes = vec![
        linear("fc1", inputs, hidden, true, External),
        linear("fc2", hidden, hidden, true, N(0)),
        linear("fc3", hidden, outputs, false, N(1)),
    ];
    Network::new("mlp", nodes).expect("mlp graph is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn twenty_rows_matching_table6() {
        let net = resnet18(1000);
        let names: Vec<&str> = net.layers().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "conv1_1", "conv1_2", "conv1_3", "conv1_4", "shortcut1", "conv2_1", "conv2_2",
                "conv2_3", "conv2_4", "shortcut2", "conv3_1", "conv3_2", "conv3_3", "conv3_4",
                "shortcut3", "conv4_1", "conv4_2", "conv4_3", "conv4_4", "linear",
            ]
        );
    }

    #[test]
    fn shapes_match_imagenet_resnet18() {
        let net = resnet18(1000);
        let shapes = net.shapes([64, 56, 56]).unwrap();
        // stage resolutions: 56 → 28 → 14 → 7
        assert_eq!((shapes[0].in_h, shapes[0].out_h), (56, 56));
        assert_eq!((shapes[5].in_h, shapes[5].out_h), (56, 28));
        assert_eq!((shapes[10].in_h, shapes[10].out_h), (28, 14));
        assert_eq!((shapes[15].in_h, shapes[15].out_h), (14, 7));
        // channel progression
        assert_eq!(shapes[0].out_c, 64);
        assert_eq!(shapes[8].out_c, 128);
        assert_eq!(shapes[13].out_c, 256);
        assert_eq!(shapes[18].out_c, 512);
        assert!(shapes[19].is_linear);
        assert_eq!(shapes[19].out_c, 1000);
    }

    #[test]
    fn total_macs_close_to_published_resnet18() {
        // ResNet-18 (without stem/fc stem) is ~1.7 GMACs at 224×224 input;
        // our 20 rows at 56×56 post-stem should land in that band.
        let net = resnet18(1000);
        let macs = net.total_macs([64, 56, 56]).unwrap();
        assert!(macs > 1_400_000_000, "{macs}");
        assert!(macs < 2_000_000_000, "{macs}");
    }

    #[test]
    fn small_input_inference_runs_end_to_end() {
        let net = resnet18(10);
        let input = Tensor::from_fn(&[64, 8, 8], |i| ((i[0] + i[1] * 3 + i[2] * 7) % 11) as i8 - 5);
        let out = net.infer(&input).unwrap();
        assert_eq!(out.shape(), &[10]);
        // deterministic: same input gives same logits
        let out2 = net.infer(&input).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn inference_is_input_sensitive() {
        let net = resnet18(10);
        let a = Tensor::filled(&[64, 8, 8], 3i8);
        let b = Tensor::filled(&[64, 8, 8], -3i8);
        assert_ne!(net.infer(&a).unwrap(), net.infer(&b).unwrap());
    }

    #[test]
    fn tinynet_runs() {
        let net = tinynet(5);
        let out = net.infer(&Tensor::filled(&[32, 16, 16], 1)).unwrap();
        assert_eq!(out.shape(), &[5]);
    }

    #[test]
    fn vgg11_shapes_and_inference() {
        let net = vgg11(10);
        let shapes = net.shapes([64, 32, 32]).unwrap();
        assert_eq!(shapes.len(), 8);
        // pooling halves the resolution at each stage boundary
        assert_eq!(shapes[1].in_h, 16);
        assert_eq!(shapes[3].in_h, 8);
        assert_eq!(shapes[5].in_h, 4);
        let out = net.infer(&Tensor::filled(&[64, 16, 16], 2)).unwrap();
        assert_eq!(out.shape(), &[10]);
    }

    #[test]
    fn mlp_runs_end_to_end() {
        let net = mlp(256, 128, 16);
        let input = Tensor::from_fn(&[256], |i| ((i[0] * 3) % 13) as i8 - 6);
        let out = net.infer(&input).unwrap();
        assert_eq!(out.shape(), &[16]);
        // determinism and sensitivity
        assert_eq!(out, net.infer(&input).unwrap());
        let other = net.infer(&Tensor::filled(&[256], 1)).unwrap();
        assert_ne!(out, other);
    }

    #[test]
    fn block_fill_matches_synthetic_weight() {
        for (out_c, in_c, k) in [(1, 1, 1), (3, 5, 1), (8, 13, 3), (64, 64, 3), (128, 64, 1)] {
            let direct = Tensor::from_fn(&[out_c, in_c, k, k], |i| {
                synthetic_weight(i[0], i[1], i[2], i[3])
            });
            assert_eq!(
                synthetic_weights(out_c, in_c, k),
                direct,
                "{out_c}x{in_c}x{k}"
            );
        }
    }

    #[test]
    fn synthetic_weights_are_small_and_varied() {
        let mut seen = std::collections::HashSet::new();
        for m in 0..8 {
            for c in 0..8 {
                let w = synthetic_weight(m, c, 1, 2);
                assert!((-3..=3).contains(&w));
                seen.insert(w);
            }
        }
        assert!(seen.len() > 3, "weights should not be constant");
    }
}
