//! Rounding modes and low-precision float formats.
//!
//! Two Table III special cases live here: **stochastic rounding** (Wang et
//! al. 2018 require it for FP8 training; the paper's Table IX notes their
//! hardware does not implement the RNG — ours models it faithfully) and
//! the **FP8 (e5m2) format** itself, so the Wang-2018 row of the algorithm
//! registry is executable rather than descriptive.

use cq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// How real values map to representable grid points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Round to nearest, ties away from zero (the hardware default).
    #[default]
    Nearest,
    /// Stochastic rounding: round up with probability equal to the
    /// fractional distance. Unbiased in expectation, which is what keeps
    /// tiny gradient contributions from vanishing (Wang et al. 2018).
    Stochastic,
    /// Truncation toward zero (the cheapest hardware, worst bias).
    TowardZero,
}

impl RoundingMode {
    /// Rounds `x` (in units of the quantization step) to an integer.
    pub fn round(&self, x: f32, rng: &mut StdRng) -> i64 {
        match self {
            RoundingMode::Nearest => x.round() as i64,
            RoundingMode::TowardZero => x.trunc() as i64,
            RoundingMode::Stochastic => {
                let floor = x.floor();
                let frac = x - floor;
                floor as i64 + (rng.gen::<f32>() < frac) as i64
            }
        }
    }
}

impl fmt::Display for RoundingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoundingMode::Nearest => "nearest",
            RoundingMode::Stochastic => "stochastic",
            RoundingMode::TowardZero => "toward-zero",
        };
        f.write_str(s)
    }
}

/// A miniature floating-point format: 1 sign bit, `exp_bits` exponent
/// bits, `mant_bits` mantissa bits (IEEE-style, with subnormals).
///
/// # Examples
///
/// ```
/// use cq_quant::rounding::MiniFloat;
///
/// let fp8 = MiniFloat::fp8_e5m2();
/// let x = fp8.quantize(3.1415927);
/// assert!((x - 3.0).abs() < 0.26); // 2 mantissa bits
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MiniFloat {
    /// Exponent bits.
    pub exp_bits: u32,
    /// Mantissa bits.
    pub mant_bits: u32,
}

impl MiniFloat {
    /// FP8 in the e5m2 flavour used by Wang et al. 2018.
    pub fn fp8_e5m2() -> Self {
        MiniFloat {
            exp_bits: 5,
            mant_bits: 2,
        }
    }

    /// FP16 (IEEE half).
    pub fn fp16() -> Self {
        MiniFloat {
            exp_bits: 5,
            mant_bits: 10,
        }
    }

    /// Exponent bias.
    pub fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Largest finite magnitude.
    pub fn max_value(&self) -> f32 {
        let max_exp = (1 << self.exp_bits) - 2; // all-ones is inf/nan
        let mant = 2.0 - 2f32.powi(-(self.mant_bits as i32));
        mant * 2f32.powi(max_exp - self.bias())
    }

    /// Quantizes one value to the nearest representable number (round to
    /// nearest, saturating at ±max).
    pub fn quantize(&self, x: f32) -> f32 {
        self.quantize_with(x, RoundingMode::Nearest, &mut StdRng::seed_from_u64(0))
    }

    /// Quantizes one value with an explicit rounding mode.
    pub fn quantize_with(&self, x: f32, mode: RoundingMode, rng: &mut StdRng) -> f32 {
        if x == 0.0 || !x.is_finite() {
            return if x.is_finite() {
                0.0
            } else {
                x.signum() * self.max_value()
            };
        }
        let sign = x.signum();
        let mag = x.abs().min(self.max_value());
        // Exponent of the enclosing binade, clamped at the subnormal floor.
        let exp = mag.log2().floor().max(1.0 - self.bias() as f32) as i32;
        let step = 2f32.powi(exp - self.mant_bits as i32);
        let q = mode.round(mag / step, rng);
        sign * (q as f32 * step).min(self.max_value())
    }

    /// Quantizes a whole tensor.
    pub fn quantize_tensor(&self, x: &Tensor, mode: RoundingMode, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = x
            .data()
            .iter()
            .map(|&v| self.quantize_with(v, mode, &mut rng))
            .collect();
        Tensor::from_vec(data, x.dims()).expect("same shape")
    }
}

impl fmt::Display for MiniFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}m{}", self.exp_bits, self.mant_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::init;

    #[test]
    fn nearest_and_trunc() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(RoundingMode::Nearest.round(2.5, &mut rng), 3);
        assert_eq!(RoundingMode::Nearest.round(-2.5, &mut rng), -3);
        assert_eq!(RoundingMode::TowardZero.round(2.9, &mut rng), 2);
        assert_eq!(RoundingMode::TowardZero.round(-2.9, &mut rng), -2);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = 2.3f32;
        let n = 20_000;
        let sum: i64 = (0..n)
            .map(|_| RoundingMode::Stochastic.round(x, &mut rng))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn stochastic_preserves_tiny_updates_in_expectation() {
        // The Wang-2018 motivation: g = 0.1 quantization steps vanishes
        // under nearest rounding but survives stochastically.
        let mut rng = StdRng::seed_from_u64(9);
        let tiny = 0.1f32;
        let nearest: i64 = (0..1000)
            .map(|_| RoundingMode::Nearest.round(tiny, &mut rng))
            .sum();
        assert_eq!(nearest, 0);
        let stochastic: i64 = (0..1000)
            .map(|_| RoundingMode::Stochastic.round(tiny, &mut rng))
            .sum();
        assert!((stochastic - 100).abs() < 40, "sum {stochastic}");
    }

    #[test]
    fn fp8_range_and_precision() {
        let fp8 = MiniFloat::fp8_e5m2();
        assert_eq!(fp8.bias(), 15);
        assert!((fp8.max_value() - 57344.0).abs() < 1.0);
        // Exact powers of two survive.
        assert_eq!(fp8.quantize(4.0), 4.0);
        assert_eq!(fp8.quantize(-0.5), -0.5);
        // 2 mantissa bits: step at [2,4) is 0.5.
        assert_eq!(fp8.quantize(3.3), 3.5);
        // Saturation.
        assert_eq!(fp8.quantize(1e9), fp8.max_value());
    }

    #[test]
    fn fp16_is_much_finer_than_fp8() {
        let x = init::normal(&[1000], 0.0, 1.0, 3);
        let e8 = x
            .l1_distance(&MiniFloat::fp8_e5m2().quantize_tensor(&x, RoundingMode::Nearest, 0))
            .unwrap();
        let e16 = x
            .l1_distance(&MiniFloat::fp16().quantize_tensor(&x, RoundingMode::Nearest, 0))
            .unwrap();
        assert!(e8 > e16 * 50.0, "fp8 {e8} vs fp16 {e16}");
    }

    #[test]
    fn zero_and_nonfinite() {
        let fp8 = MiniFloat::fp8_e5m2();
        assert_eq!(fp8.quantize(0.0), 0.0);
        assert_eq!(fp8.quantize(f32::INFINITY), fp8.max_value());
        assert_eq!(fp8.quantize(f32::NEG_INFINITY), -fp8.max_value());
    }

    #[test]
    fn display() {
        assert_eq!(MiniFloat::fp8_e5m2().to_string(), "e5m2");
        assert_eq!(RoundingMode::Stochastic.to_string(), "stochastic");
    }
}
