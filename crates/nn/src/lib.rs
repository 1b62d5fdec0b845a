#![warn(missing_docs)]

//! # maicc-nn — DNN substrate: tensors, quantized layers, graphs, ResNet-18
//!
//! MAICC's evaluation runs the inference of 8-bit-quantized ResNet-18
//! (He et al. 2016; quantization per Jacob et al. 2018). This crate provides
//! everything that workload needs, independent of any hardware model:
//!
//! * [`tensor`] — dense n-dimensional tensors over `f32`, `i8`, `i32`;
//! * [`quant`] — per-tensor affine quantization (scale + zero-point) and the
//!   integer-only requantization multiplier;
//! * [`layer`] — CONV / FC computation layers and the auxiliary-function
//!   layers (§2.1): ReLU, max/avg pooling, requantize;
//! * [`graph`] — a layer DAG with residual (shortcut) edges and a golden
//!   reference executor, used to validate every hardware simulation;
//! * [`resnet`] — the 20-row ResNet-18 layer table of the paper's Table 6.
//!
//! ## Example
//!
//! ```
//! use maicc_nn::resnet::resnet18;
//! use maicc_nn::tensor::Tensor;
//!
//! let net = resnet18(1000);
//! assert_eq!(net.layers().len(), 20);
//! let input = Tensor::<i8>::filled(&[64, 8, 8], 1);
//! let logits = net.infer(&input).unwrap();
//! assert_eq!(logits.shape(), &[1000]);
//! ```

pub mod graph;
pub mod layer;
pub mod quant;
pub mod resnet;
pub mod tensor;

mod error;
// The GEMM-lowered convolution the CPU/GPU baselines execute: a test-only
// differential oracle for the direct golden convolution.
#[cfg(test)]
mod im2col;

pub use error::NnError;
