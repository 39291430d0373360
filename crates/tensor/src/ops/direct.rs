//! The one definition of the direct layers' data: weights, biases and
//! geometry, their validation, their constructors and their accessors.
//! [`Conv2d`](super::Conv2d) and [`DeConv2d`](super::DeConv2d) are its
//! two names; what tells them apart (output size, execution, MAC count)
//! lives in `conv.rs` and `deconv.rs`.

use crate::init::{he_std, Gaussian};
use crate::TensorError;

/// A direct convolution (`TRANSPOSED = false`, named
/// [`Conv2d`](super::Conv2d)) or transposed convolution (`TRANSPOSED =
/// true`, named [`DeConv2d`](super::DeConv2d)) with a square kernel, one
/// stride and one padding for both axes, and one bias per output channel.
///
/// Weights are stored row-major with the layout's *leading pair* first:
/// `[c_out][c_in][k][k]` for a convolution, `[c_in][c_out][k][k]` for a
/// transposed one (PyTorch's `ConvTranspose2d` order). [`from_fn`] is
/// called with that pair and [`kernel_slice`] takes it.
///
/// [`from_fn`]: DirectLayer::from_fn
/// [`kernel_slice`]: DirectLayer::kernel_slice
#[derive(Debug, Clone, PartialEq)]
pub struct DirectLayer<const TRANSPOSED: bool> {
    pub(super) weight: Vec<f32>,
    pub(super) bias: Vec<f32>,
    pub(super) c_out: usize,
    pub(super) c_in: usize,
    pub(super) k: usize,
    pub(super) stride: usize,
    pub(super) padding: usize,
}

impl<const TRANSPOSED: bool> DirectLayer<TRANSPOSED> {
    /// Creates a layer from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0` or `stride == 0`, if a transposed
    /// layer's padding breaks `k ≥ 2·padding + 1`, or if the buffer
    /// lengths are not `c_out · c_in · k · k` and `c_out`.
    pub fn new(
        weight: Vec<f32>,
        bias: Vec<f32>,
        c_out: usize,
        c_in: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        if k == 0 || stride == 0 {
            return Err(TensorError::invalid(
                "kernel size and stride must be non-zero",
            ));
        }
        if TRANSPOSED && k < 2 * padding + 1 {
            return Err(TensorError::invalid(format!(
                "padding {padding} too large for kernel {k}"
            )));
        }
        if weight.len() != c_out * c_in * k * k {
            return Err(TensorError::LengthMismatch {
                expected: c_out * c_in * k * k,
                actual: weight.len(),
            });
        }
        if bias.len() != c_out {
            return Err(TensorError::LengthMismatch {
                expected: c_out,
                actual: bias.len(),
            });
        }
        Ok(DirectLayer {
            weight,
            bias,
            c_out,
            c_in,
            k,
            stride,
            padding,
        })
    }

    /// Creates a layer with He-initialised Gaussian weights and zero
    /// biases, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// As [`DirectLayer::new`] for the geometry.
    pub fn randn(
        c_out: usize,
        c_in: usize,
        k: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Result<Self, TensorError> {
        let mut g = Gaussian::new(seed);
        let mut weight = vec![0.0; c_out * c_in * k * k];
        g.fill(&mut weight, he_std(c_in * k * k));
        Self::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
    }

    /// Creates a layer whose weight at `(a, b, kh, kw)` is produced by
    /// `f`, with zero biases; `(a, b)` is the leading pair, `(co, ci)` for
    /// a convolution and `(ci, co)` for a transposed one.
    ///
    /// # Errors
    ///
    /// As [`DirectLayer::new`] for the geometry.
    pub fn from_fn(
        c_out: usize,
        c_in: usize,
        k: usize,
        stride: usize,
        padding: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let (lead, second) = Self::leading_pair(c_out, c_in);
        let mut weight = Vec::with_capacity(c_out * c_in * k * k);
        for a in 0..lead {
            for b in 0..second {
                for kh in 0..k {
                    for kw in 0..k {
                        weight.push(f(a, b, kh, kw));
                    }
                }
            }
        }
        Self::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
    }

    /// The extents of the weight layout's two leading axes.
    fn leading_pair(c_out: usize, c_in: usize) -> (usize, usize) {
        if TRANSPOSED {
            (c_in, c_out)
        } else {
            (c_out, c_in)
        }
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Stride (the upsampling factor of a transposed layer).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each spatial border (in transposed-convolution
    /// convention for a transposed layer).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Read-only weight buffer, in the layout's leading-pair order.
    pub fn weight(&self) -> &[f32] {
        &self.weight
    }

    /// Mutable weight buffer (used by the pruning pass).
    pub fn weight_mut(&mut self) -> &mut [f32] {
        &mut self.weight
    }

    /// Read-only bias buffer.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias buffer.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The `k × k` kernel at leading pair `(a, b)`: output channel `a`,
    /// input channel `b` for a convolution; input channel `a`, output
    /// channel `b` for a transposed one.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn kernel_slice(&self, a: usize, b: usize) -> &[f32] {
        let (lead, second) = Self::leading_pair(self.c_out, self.c_in);
        assert!(a < lead && b < second, "kernel ({a},{b}) out of range");
        let kk = self.k * self.k;
        let base = (a * second + b) * kk;
        &self.weight[base..base + kk]
    }
}
