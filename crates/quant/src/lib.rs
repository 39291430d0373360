//! Fixed-point quantization substrate.
//!
//! The paper deploys CTVC-Net with **FXP16 weights** and **FXP12
//! activations** (Table II: "Precision (A-W): FXP 12-16"). This crate
//! provides the two ingredients needed to evaluate that configuration in
//! software:
//!
//! * [`QFormat`] — a signed two's-complement `Qm.n` fixed-point format
//!   (total bits, fractional bits) with saturating round-to-nearest
//!   quantization ([`QFormat::weights16`] is the paper's weight format),
//!   and
//! * [`fake_quantize_dynamic_inplace`] — tensor-level quantize-then-
//!   dequantize with automatic per-tensor format selection
//!   ([`QFormat::for_range`]), which is how the accelerator's per-layer
//!   scaling registers are modelled.
//!
//! "Fake quantization" (quantize then immediately dequantize, computing in
//! `f32`) reproduces the *numerics* of fixed-point inference — every value
//! is restricted to the representable grid — without re-implementing
//! integer arithmetic inside every operator; this is the standard software
//! evaluation methodology for accelerator precision studies and is
//! recorded as a substitution in `nvc_model`'s crate docs
//! ("Substitutions").
//!
//! # Example
//!
//! ```
//! use nvc_quant::QFormat;
//! # fn main() -> Result<(), nvc_quant::QuantError> {
//! let fmt = QFormat::new(12, 8)?; // Q4.8: activations
//! let q = fmt.quantize(1.2345);
//! let back = fmt.dequantize(q);
//! assert!((back - 1.2345).abs() <= fmt.step() / 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use nvc_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Error type for fixed-point format construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// The requested format is not representable (zero width, too wide,
    /// or more fractional than total bits).
    InvalidFormat {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidFormat { reason } => {
                write!(f, "invalid fixed-point format: {reason}")
            }
        }
    }
}

impl Error for QuantError {}

/// Signed two's-complement fixed-point format `Q(total−frac−1).(frac)`.
///
/// Values are stored as `i32`; the representable range is
/// `[−2^(total−1), 2^(total−1) − 1]` codes, i.e.
/// `[−2^(total−1), 2^(total−1) − 1] · 2^(−frac)` in real value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `total_bits` total width (including sign) and
    /// `frac_bits` fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidFormat`] if `total_bits` is 0 or
    /// exceeds 31, or `frac_bits >= total_bits`.
    pub fn new(total_bits: u32, frac_bits: u32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 31 {
            return Err(QuantError::InvalidFormat {
                reason: format!("total bits {total_bits} outside 1..=31"),
            });
        }
        if frac_bits >= total_bits {
            return Err(QuantError::InvalidFormat {
                reason: format!("frac bits {frac_bits} must be < total bits {total_bits}"),
            });
        }
        Ok(QFormat {
            total_bits,
            frac_bits,
        })
    }

    /// The paper's weight format: 16-bit fixed point. Integer bits are
    /// chosen for a ±2 weight range (Q1.14).
    pub fn weights16() -> Self {
        QFormat {
            total_bits: 16,
            frac_bits: 14,
        }
    }

    /// Picks the format with `total_bits` width whose range just covers
    /// `max_abs` — the per-layer dynamic scaling the accelerator applies.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidFormat`] if `total_bits` is invalid.
    pub fn for_range(total_bits: u32, max_abs: f32) -> Result<Self, QuantError> {
        if total_bits == 0 || total_bits > 31 {
            return Err(QuantError::InvalidFormat {
                reason: format!("total bits {total_bits} outside 1..=31"),
            });
        }
        let max_abs = max_abs.abs().max(1e-12);
        // Smallest integer-bit count i with 2^i > max_abs.
        let int_bits = max_abs.log2().floor() as i32 + 1;
        let int_bits = int_bits.clamp(0, total_bits as i32 - 1) as u32;
        QFormat::new(total_bits, total_bits - 1 - int_bits)
    }

    /// Quantization step (one least-significant bit), `2^(−frac)`.
    pub fn step(&self) -> f32 {
        (2.0_f32).powi(-(self.frac_bits as i32))
    }

    /// Quantizes a real value to the nearest representable code,
    /// saturating at the format bounds. Rounds half away from zero
    /// (matching typical DSP hardware).
    pub fn quantize(&self, v: f32) -> i32 {
        let scaled = (v / self.step()) as f64;
        let rounded = if scaled >= 0.0 {
            (scaled + 0.5).floor()
        } else {
            (scaled - 0.5).ceil()
        };
        let lo = -(1_i64 << (self.total_bits - 1));
        let hi = (1_i64 << (self.total_bits - 1)) - 1;
        (rounded as i64).clamp(lo, hi) as i32
    }

    /// Converts a code back to its real value.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.step()
    }

    /// Quantize-then-dequantize: projects `v` onto the representable grid.
    pub fn roundtrip(&self, v: f32) -> f32 {
        self.dequantize(self.quantize(v))
    }

    /// [`QFormat::roundtrip`] over a whole buffer, in place and bit for
    /// bit the same, in float arithmetic that vectorizes: the format
    /// constants are hoisted out of the element loop, dividing by the
    /// power-of-two step becomes an exact multiply, and
    /// round-half-away-from-zero is the add-and-subtract-`1.5·2²³`
    /// rounding (nearest, ties to even — exact below `2²²`) with the ties
    /// pushed outward by comparing the exactly representable remainder,
    /// instead of `f64` `floor`/`ceil` calls and an integer clamp.
    fn roundtrip_slice(&self, data: &mut [f32]) {
        /// Adding then subtracting this rounds `|x| ≤ 2²²` to an integer.
        const ROUND: f32 = 12_582_912.0;
        if self.total_bits > 23 {
            // Codes beyond 2²² are outside the trick's exact range.
            data.iter_mut().for_each(|v| *v = self.roundtrip(*v));
            return;
        }
        let bound = (1_u32 << (self.total_bits - 1)) as f32;
        let scale = (1_u32 << self.frac_bits) as f32;
        let step = self.step();
        for v in data {
            // Everything at or beyond ±bound saturates anyway; NaN
            // quantizes to code 0, as in `quantize`.
            let scaled = (*v * scale).clamp(-bound, bound);
            let scaled = if scaled.is_nan() { 0.0 } else { scaled };
            let even = (scaled + ROUND) - ROUND;
            let rest = scaled - even;
            let up = f32::from(u8::from(rest == 0.5 && scaled > 0.0));
            let down = f32::from(u8::from(rest == -0.5 && scaled < 0.0));
            *v = (even + up - down).clamp(-bound, bound - 1.0) * step;
        }
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}.{} ({}b)",
            self.total_bits - 1 - self.frac_bits,
            self.frac_bits,
            self.total_bits
        )
    }
}

/// Projects a tensor onto the best `total_bits`-wide format for its own
/// dynamic range, returning the tensor and the chosen format.
///
/// # Errors
///
/// Returns [`QuantError::InvalidFormat`] if `total_bits` is invalid.
pub fn fake_quantize_dynamic(t: &Tensor, total_bits: u32) -> Result<(Tensor, QFormat), QuantError> {
    let mut q = t.clone();
    let fmt = fake_quantize_dynamic_inplace(&mut q, total_bits)?;
    Ok((q, fmt))
}

/// [`fake_quantize_dynamic`] on a tensor the caller owns: one pass for
/// the range, one in-place pass for the projection, no allocation. This
/// is what runs after every operator of a fixed-point network.
///
/// # Errors
///
/// Returns [`QuantError::InvalidFormat`] if `total_bits` is invalid; `t`
/// is then left untouched.
pub fn fake_quantize_dynamic_inplace(
    t: &mut Tensor,
    total_bits: u32,
) -> Result<QFormat, QuantError> {
    let fmt = QFormat::for_range(total_bits, t.max_abs())?;
    fmt.roundtrip_slice(t.as_mut_slice());
    Ok(fmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::Shape;

    /// The smallest and largest representable real values.
    fn range(fmt: QFormat) -> (f32, f32) {
        let half = 1_i32 << (fmt.total_bits - 1);
        (fmt.dequantize(-half), fmt.dequantize(half - 1))
    }

    #[test]
    fn format_validation() {
        assert!(QFormat::new(0, 0).is_err());
        assert!(QFormat::new(32, 8).is_err());
        assert!(QFormat::new(8, 8).is_err());
        assert!(QFormat::new(16, 14).is_ok());
    }

    #[test]
    fn representable_values_roundtrip_exactly() {
        let fmt = QFormat::new(12, 8).unwrap();
        for code in [-2048_i32, -1000, -1, 0, 1, 577, 2047] {
            let v = fmt.dequantize(code);
            assert_eq!(fmt.quantize(v), code);
        }
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let fmt = QFormat::new(12, 8).unwrap();
        for i in 0..1000 {
            let v = (i as f32 - 500.0) * 0.0137;
            let (min, max) = range(fmt);
            if v > max || v < min {
                continue;
            }
            let err = (fmt.roundtrip(v) - v).abs();
            assert!(err <= fmt.step() / 2.0 + 1e-7, "v={v} err={err}");
        }
    }

    #[test]
    fn saturation_at_bounds() {
        let fmt = QFormat::new(8, 4).unwrap(); // range [-8, 7.9375]
        assert_eq!(fmt.quantize(100.0), 127);
        assert_eq!(fmt.quantize(-100.0), -128);
        assert!((fmt.dequantize(127) - 7.9375).abs() < 1e-6);
        assert!((range(fmt).0 + 8.0).abs() < 1e-6);
    }

    #[test]
    fn rounding_is_half_away_from_zero() {
        let fmt = QFormat::new(8, 0).unwrap();
        assert_eq!(fmt.quantize(0.5), 1);
        assert_eq!(fmt.quantize(-0.5), -1);
        assert_eq!(fmt.quantize(0.49), 0);
        assert_eq!(fmt.quantize(-0.49), 0);
    }

    #[test]
    fn for_range_covers_max_abs() {
        for max_abs in [0.3_f32, 1.0, 1.7, 5.0, 100.0] {
            let fmt = QFormat::for_range(12, max_abs).unwrap();
            assert!(
                range(fmt).1 >= max_abs * 0.999 || fmt.frac_bits == 0,
                "{fmt} does not cover {max_abs}"
            );
        }
        // Tiny ranges use maximum fractional precision.
        let fmt = QFormat::for_range(12, 1e-9).unwrap();
        assert_eq!(fmt.frac_bits, 11);
    }

    #[test]
    fn paper_formats() {
        assert_eq!(QFormat::weights16().total_bits, 16);
        assert_eq!(QFormat::weights16().to_string(), "Q1.14 (16b)");
    }

    #[test]
    fn roundtrip_slice_is_idempotent() {
        let fmt = QFormat::new(12, 8).unwrap();
        let mut once: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        fmt.roundtrip_slice(&mut once);
        let mut twice = once.clone();
        fmt.roundtrip_slice(&mut twice);
        assert_eq!(once, twice);
    }

    #[test]
    fn dynamic_quantization_picks_format() {
        let t = Tensor::filled(Shape::new(1, 1, 2, 2), 3.7);
        let (q, fmt) = fake_quantize_dynamic(&t, 12).unwrap();
        assert!(range(fmt).1 >= 3.7);
        assert!((q.at(0, 0, 0, 0) - 3.7).abs() <= fmt.step());
    }

    /// Asserts the buffer path projects every value in `values` onto
    /// exactly the bit pattern the scalar [`QFormat::roundtrip`] does.
    fn assert_slice_matches_scalar(fmt: QFormat, values: Vec<f32>) {
        let mut q = values.clone();
        fmt.roundtrip_slice(&mut q);
        for (&v, &got) in values.iter().zip(&q) {
            let want = fmt.roundtrip(v);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{fmt}: {v:e} ({:#010x}) -> {got:e}, scalar says {want:e}",
                v.to_bits()
            );
        }
    }

    /// `v` and the two adjacent bit patterns (its neighbouring floats,
    /// except across zero, where wrapping gives a NaN — also worth
    /// checking).
    fn with_neighbours(v: f32) -> [f32; 3] {
        let bits = v.to_bits();
        [bits.wrapping_sub(1), bits, bits.wrapping_add(1)].map(f32::from_bits)
    }

    /// Narrow and wide formats on both sides of the buffer path's
    /// float-rounding limit (23 bits), plus the paper's two.
    fn formats_under_test() -> Vec<QFormat> {
        [
            (12, 8),
            (16, 14),
            (8, 0),
            (8, 7),
            (2, 0),
            (1, 0),
            (23, 3),
            (24, 3),
            (31, 30),
            (31, 0),
        ]
        .into_iter()
        .map(|(total, frac)| QFormat::new(total, frac).unwrap())
        .collect()
    }

    #[test]
    fn buffer_rounding_matches_scalar_on_every_tie() {
        for fmt in formats_under_test() {
            let half_range = 1_i64 << (fmt.total_bits - 1);
            // Every half-way point between adjacent codes (strided for
            // the wide formats), one ulp to either side, both signs, and
            // one code beyond each saturation edge.
            let stride = (half_range / 4096).max(1) as usize;
            let mut values = Vec::new();
            for code in (-half_range - 2..=half_range + 1).step_by(stride) {
                let tie = (code as f64 + 0.5) * fmt.step() as f64;
                values.extend(with_neighbours(tie as f32));
                values.extend(with_neighbours(fmt.dequantize(code as i32)));
            }
            assert_slice_matches_scalar(fmt, values);
        }
    }

    #[test]
    fn buffer_rounding_matches_scalar_on_edges_and_specials() {
        for fmt in formats_under_test() {
            let mut values = vec![
                0.0,
                -0.0,
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN,
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::from_bits(1),
                -f32::from_bits(1),
            ];
            let (min, max) = range(fmt);
            for edge in [min, max] {
                for scale in [1.0, 1.0 + f32::EPSILON, 2.0, 1e9] {
                    values.extend(with_neighbours(edge * scale));
                    values.extend(with_neighbours(edge * scale + fmt.step() / 2.0));
                    values.extend(with_neighbours(edge * scale - fmt.step() / 2.0));
                }
            }
            assert_slice_matches_scalar(fmt, values);
        }
    }

    #[test]
    fn buffer_rounding_matches_scalar_across_all_exponents() {
        // Every f32 exponent (subnormals, normals, inf/NaN space), a
        // strided walk of the mantissa, both signs.
        let mut values = Vec::new();
        for exponent in 0..=255_u32 {
            for mantissa in (0..1_u32 << 23).step_by(104_729) {
                let bits = exponent << 23 | mantissa;
                values.push(f32::from_bits(bits));
                values.push(f32::from_bits(bits | 1 << 31));
            }
        }
        for fmt in formats_under_test() {
            assert_slice_matches_scalar(fmt, values.clone());
        }
    }

    #[test]
    fn inplace_dynamic_quantization_matches_the_copying_one() {
        let t = Tensor::from_fn(Shape::new(1, 3, 5, 7), |_, c, h, w| {
            ((c * 35 + h * 7 + w) as f32 * 0.61).sin() * 5.3
        });
        let (copied, fmt) = fake_quantize_dynamic(&t, 12).unwrap();
        let mut owned = t.clone();
        assert_eq!(fake_quantize_dynamic_inplace(&mut owned, 12).unwrap(), fmt);
        assert_eq!(owned, copied);
        assert_eq!(fmt, QFormat::for_range(12, t.max_abs()).unwrap());
        // An invalid width fails before touching the tensor.
        assert!(fake_quantize_dynamic_inplace(&mut owned, 0).is_err());
        assert_eq!(owned, copied);
    }

    #[test]
    fn error_display() {
        let err = QFormat::new(0, 0).unwrap_err();
        assert!(err.to_string().contains("invalid fixed-point format"));
    }
}
