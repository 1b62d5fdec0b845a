//! Per-tensor affine quantization (Jacob et al., CVPR 2018).
//!
//! The paper's benchmark is ResNet-18 with 8-bit quantization (§5). Real
//! values map to 8-bit integers as `r ≈ scale · (q − zero_point)`. A layer's
//! i32 accumulator is brought back to i8 with the **integer-only
//! requantization multiplier**: the combined scale `s_in·s_w/s_out` is
//! represented as a fixed-point multiplier `m ∈ [2³⁰, 2³¹)` and a right
//! shift, exactly the arithmetic a RISC-V core performs in the auxiliary
//! phase of a mixed layer.

use serde::{Deserialize, Serialize};

/// Per-tensor affine quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Real-valued step size (> 0).
    pub scale: f32,
    /// Integer the real value 0.0 maps to.
    pub zero_point: i32,
}

impl QuantParams {
    /// Derives parameters covering the real interval `[min, max]`
    /// (widened to include 0, as the scheme requires).
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is not finite.
    #[must_use]
    pub fn from_range(min: f32, max: f32) -> Self {
        assert!(min.is_finite() && max.is_finite() && min <= max);
        let min = min.min(0.0);
        let max = max.max(0.0);
        let scale = ((max - min) / 255.0).max(f32::EPSILON);
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Quantizes one real value to i8.
    #[must_use]
    pub fn quantize(&self, r: f32) -> i8 {
        ((r / self.scale).round() as i32 + self.zero_point).clamp(-128, 127) as i8
    }

    /// Dequantizes one i8 back to a real value.
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        QuantParams {
            scale: 1.0,
            zero_point: 0,
        }
    }
}

/// Integer-only requantization of an i32 accumulator to i8.
///
/// Represents a real multiplier `m0 · 2^(−shift)` with `m0` a 32-bit
/// fixed-point value in `[2³⁰, 2³¹)`, applied by a rounding doubling
/// high-multiply followed by a rounding right shift — the gemmlowp
/// formulation that integer-only inference uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requantizer {
    /// Fixed-point multiplier in `[2³⁰, 2³¹)` (or 0 for a zero multiplier).
    pub multiplier: i32,
    /// Right shift applied after the high multiply (≥ 0).
    pub shift: u32,
    /// Output zero point added at the end.
    pub zero_point: i32,
}

impl Requantizer {
    /// Builds a requantizer for the real multiplier `m` (must satisfy
    /// `0 <= m < 1`, which holds for all practical scale ratios).
    ///
    /// # Panics
    ///
    /// Panics if `m` is negative, NaN, or ≥ 1.
    #[must_use]
    pub fn from_real_multiplier(m: f64, zero_point: i32) -> Self {
        assert!((0.0..1.0).contains(&m), "real multiplier out of [0,1): {m}");
        if m == 0.0 {
            return Requantizer {
                multiplier: 0,
                shift: 0,
                zero_point,
            };
        }
        let mut shift = 0u32;
        let mut mm = m;
        while mm < 0.5 {
            mm *= 2.0;
            shift += 1;
        }
        let q = (mm * (1i64 << 31) as f64).round() as i64;
        let (q, shift) = if q == (1i64 << 31) {
            (1i64 << 30, shift.saturating_sub(1))
        } else {
            (q, shift)
        };
        Requantizer {
            multiplier: q as i32,
            shift,
            zero_point,
        }
    }

    /// Saturating rounding doubling high multiply (gemmlowp
    /// `SaturatingRoundingDoublingHighMul`).
    #[must_use]
    fn sat_rounding_doubling_high_mul(a: i32, b: i32) -> i32 {
        if a == i32::MIN && b == i32::MIN {
            return i32::MAX;
        }
        let ab = a as i64 * b as i64;
        let nudge = if ab >= 0 { 1i64 << 30 } else { 1 - (1i64 << 30) };
        // gemmlowp divides (truncating toward zero), it does not shift
        ((ab + nudge) / (1i64 << 31)) as i32
    }

    /// Rounding right shift.
    #[must_use]
    fn rounding_shift_right(x: i32, shift: u32) -> i32 {
        if shift == 0 {
            return x;
        }
        let mask = (1i64 << shift) - 1;
        let remainder = x as i64 & mask;
        let threshold = (mask >> 1) + i64::from(x < 0);
        (x >> shift) + i32::from(remainder > threshold)
    }

    /// Requantizes one accumulator value to i8 with saturation.
    #[must_use]
    pub fn apply(&self, acc: i32) -> i8 {
        let x = Self::sat_rounding_doubling_high_mul(acc, self.multiplier);
        let x = Self::rounding_shift_right(x, self.shift);
        (x + self.zero_point).clamp(-128, 127) as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_includes_zero() {
        let q = QuantParams::from_range(2.0, 10.0);
        // min widened to 0 → zero maps inside the i8 range
        let z = q.quantize(0.0);
        assert!((-128..=127).contains(&(z as i32)));
        assert!(q.dequantize(z).abs() < q.scale);
    }

    #[test]
    fn quantize_dequantize_error_below_scale() {
        let q = QuantParams::from_range(-4.0, 4.0);
        for i in -40..=40 {
            let r = i as f32 / 10.0;
            let err = (q.dequantize(q.quantize(r)) - r).abs();
            assert!(err <= q.scale * 0.5 + 1e-6, "r={r} err={err}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let q = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(q.quantize(100.0), 127);
        assert_eq!(q.quantize(-100.0), -128);
    }

    #[test]
    fn requantizer_matches_float_reference() {
        let m = 0.0023;
        let r = Requantizer::from_real_multiplier(m, 0);
        for acc in [-100_000i32, -1234, -1, 0, 1, 999, 54_321, 1_000_000] {
            let expect = ((acc as f64 * m).round() as i32).clamp(-128, 127) as i8;
            let got = r.apply(acc);
            assert!(
                (got as i32 - expect as i32).abs() <= 1,
                "acc={acc} got={got} expect={expect}"
            );
        }
    }

    #[test]
    fn requantizer_zero_multiplier() {
        let r = Requantizer::from_real_multiplier(0.0, 5);
        assert_eq!(r.apply(123_456), 5);
    }

    #[test]
    fn requantizer_zero_point_offsets() {
        let r = Requantizer::from_real_multiplier(0.5, 10);
        assert_eq!(r.apply(4), 12);
    }

    proptest! {
        #[test]
        fn prop_requantizer_close_to_float(
            m in 1e-6f64..0.99,
            acc in -1_000_000i32..1_000_000,
        ) {
            let r = Requantizer::from_real_multiplier(m, 0);
            let expect = (acc as f64 * m).round().clamp(-128.0, 127.0) as i32;
            let got = r.apply(acc) as i32;
            prop_assert!((got - expect).abs() <= 1, "m={} acc={} got={} expect={}", m, acc, got, expect);
        }

        #[test]
        fn prop_quantize_monotone(a in -100.0f32..100.0, b in -100.0f32..100.0) {
            let q = QuantParams::from_range(-100.0, 100.0);
            if a <= b {
                prop_assert!(q.quantize(a) <= q.quantize(b));
            }
        }
    }
}
