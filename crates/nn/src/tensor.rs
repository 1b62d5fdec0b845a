//! Dense n-dimensional tensors.
//!
//! Feature maps in the paper are 3-D `[C, H, W]` (channel-major, matching
//! Figure 1), convolution weights 4-D `[M, C, R, S]`, and vectors 1-D. The
//! [`Tensor`] type is generic over the element so the same structure serves
//! float reference models (`f32`), quantized activations (`i8`) and
//! accumulators (`i32`).

use crate::NnError;
use serde::{Deserialize, Serialize};

/// A dense row-major n-dimensional tensor.
///
/// # Example
///
/// ```
/// use maicc_nn::tensor::Tensor;
///
/// let mut t = Tensor::<i32>::zeros(&[2, 3]);
/// t.set(&[1, 2], 42);
/// assert_eq!(t.get(&[1, 2]), 42);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<T> {
    shape: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor of the given shape filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any dimension is zero.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, T::default())
    }

    /// Creates a tensor of the given shape filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty or any dimension is zero.
    #[must_use]
    pub fn filled(shape: &[usize], value: T) -> Self {
        assert!(!shape.is_empty(), "tensor must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "zero-sized dimension");
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<T>) -> Result<Self, NnError> {
        let len: usize = shape.iter().product();
        if data.len() != len {
            return Err(NnError::ShapeMismatch {
                expected: shape.to_vec(),
                got: vec![data.len()],
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    #[must_use]
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let mut t = Self::zeros(shape);
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..t.data.len() {
            t.data[flat] = f(&idx);
            // odometer increment
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        t
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    #[must_use]
    pub(crate) fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "rank mismatch");
        let mut off = 0;
        for (d, (&i, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < dim, "index {i} out of bounds for dim {d} ({dim})");
            off = off * dim + i;
        }
        off
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[must_use]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.offset(idx)]
    }

    /// Writes an element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// The raw row-major data.
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the element counts differ.
    pub(crate) fn reshape(&self, shape: &[usize]) -> Result<Tensor<T>, NnError> {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Applies `f` to every element, producing a new tensor of type `U`.
    #[must_use]
    pub(crate) fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl<T: Copy + Default> Default for Tensor<T> {
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

/// Convolution geometry shared by layers and mapping models.
///
/// Stride and padding apply symmetrically in both spatial dimensions,
/// matching every layer the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShape {
    /// Number of output channels (filters), `M` in Figure 1.
    pub out_channels: usize,
    /// Number of input channels, `C`.
    pub in_channels: usize,
    /// Filter height, `R`.
    pub kernel_h: usize,
    /// Filter width, `S`.
    pub kernel_w: usize,
    /// Spatial stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
}

impl ConvShape {
    /// Spatial output size for an `in_h × in_w` input.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub(crate) fn output_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        let eff_h = in_h + 2 * self.padding;
        let eff_w = in_w + 2 * self.padding;
        assert!(
            eff_h >= self.kernel_h && eff_w >= self.kernel_w,
            "kernel larger than padded input"
        );
        (
            (eff_h - self.kernel_h) / self.stride + 1,
            (eff_w - self.kernel_w) / self.stride + 1,
        )
    }

    /// Multiply-accumulate count for an `in_h × in_w` input.
    #[must_use]
    pub(crate) fn macs(&self, in_h: usize, in_w: usize) -> u64 {
        let (oh, ow) = self.output_hw(in_h, in_w);
        (oh * ow * self.out_channels * self.in_channels * self.kernel_h * self.kernel_w) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_len() {
        let t = Tensor::<i8>::zeros(&[4, 5, 6]);
        assert_eq!(t.len(), 120);
        assert!(t.data().iter().all(|&x| x == 0));
        assert!(!t.is_empty());
    }

    #[test]
    fn offset_row_major() {
        let t = Tensor::<i32>::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        let t = Tensor::<i32>::zeros(&[2, 3]);
        let _ = t.offset(&[2, 0]);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(&[2, 2], vec![1i8; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![1i8; 4]).is_ok());
    }

    #[test]
    fn from_fn_visits_every_index() {
        let t = Tensor::<i32>::from_fn(&[3, 4], |idx| (idx[0] * 10 + idx[1]) as i32);
        assert_eq!(t.get(&[2, 3]), 23);
        assert_eq!(t.get(&[0, 0]), 0);
        assert_eq!(t.get(&[1, 2]), 12);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).collect::<Vec<i32>>()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.get(&[2, 1]), 5);
        assert!(t.reshape(&[7]).is_err());
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor::from_vec(&[3], vec![-1i8, 0, 1]).unwrap();
        let u: Tensor<i32> = t.map(|x| x as i32 * 100);
        assert_eq!(u.data(), &[-100, 0, 100]);
    }

    #[test]
    fn conv_shape_output() {
        let cs = ConvShape {
            out_channels: 128,
            in_channels: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(cs.output_hw(56, 56), (28, 28));
        let unit = ConvShape {
            out_channels: 1,
            in_channels: 1,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
        };
        assert_eq!(unit.output_hw(7, 7), (7, 7));
    }

    #[test]
    fn conv_macs() {
        let cs = ConvShape {
            out_channels: 2,
            in_channels: 3,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 0,
        };
        // 9x9 -> 7x7 out; 7*7*2*3*3*3
        assert_eq!(cs.macs(9, 9), 49 * 2 * 27);
    }

    proptest! {
        #[test]
        fn prop_set_get_roundtrip(
            dims in proptest::collection::vec(1usize..6, 1..4),
            v in any::<i32>(),
        ) {
            let mut t = Tensor::<i32>::zeros(&dims);
            let idx: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
            t.set(&idx, v);
            prop_assert_eq!(t.get(&idx), v);
        }

        #[test]
        fn prop_offsets_unique(dims in proptest::collection::vec(1usize..5, 2..4)) {
            let t = Tensor::<i8>::zeros(&dims);
            let mut seen = std::collections::HashSet::new();
            let total: usize = dims.iter().product();
            let probe = Tensor::<i8>::from_fn(&dims, |idx| {
                seen.insert(t.offset(idx));
                0
            });
            let _ = probe;
            prop_assert_eq!(seen.len(), total);
        }
    }
}
