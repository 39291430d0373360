//! Neural-network operators used by CTVC-Net.
//!
//! Every operator validates its configuration at construction time and its
//! input shape when it runs, returning [`TensorError`](crate::TensorError)
//! on mismatch. All operators are deterministic: the convolutions'
//! `forward_ctx` fans disjoint output regions (channel planes, rows)
//! across an [`nvc_core::ExecCtx`] worker pool (`ExecCtx::serial()` runs
//! on the caller's thread) while keeping every accumulation's summation
//! order fixed, so the result is bit-identical for every worker count.
//! The hardware simulator reasons about operator cost analytically and is
//! unaffected by the software execution strategy.
//!
//! [`Conv2d`] and [`DeConv2d`] are one type with two names,
//! [`DirectLayer`], and one direct kernel: both stage their input with
//! the one routine and reduce it with the one register-resident loop of
//! the private `staged` module, a convolution once per output plane, a
//! transposed convolution once per output phase.

mod conv;
mod deconv;
mod deform;
mod direct;
mod linear;
mod pool;
mod staged;

pub use conv::Conv2d;
pub use deconv::DeConv2d;
pub use deform::DeformConv2d;
pub use direct::DirectLayer;
pub use linear::Linear;
pub use pool::MaxPool2d;

use crate::Tensor;

/// Helpers shared by the kernels' bit-exactness tests.
#[cfg(test)]
mod test_util {
    use crate::init::SplitMix64;
    use crate::Tensor;

    pub fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Signed values in `(-1, 1)` with a share of exact zeros of either
    /// sign.
    pub fn sparse_values(rng: &mut SplitMix64, len: usize, zero_share: f32) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = rng.next_f32() * 2.0 - 1.0;
                if rng.next_f32() < zero_share {
                    0.0_f32.copysign(v)
                } else {
                    v
                }
            })
            .collect()
    }
}

/// Rectified linear unit, `max(0, x)`, applied elementwise.
pub fn relu(t: &Tensor) -> Tensor {
    t.map(|v| v.max(0.0))
}

/// Leaky ReLU with negative slope `alpha`.
pub fn leaky_relu(t: &Tensor, alpha: f32) -> Tensor {
    t.map(move |v| if v >= 0.0 { v } else { alpha * v })
}

/// Logistic sigmoid, `1 / (1 + e^(-x))`, applied elementwise.
pub fn sigmoid(t: &Tensor) -> Tensor {
    t.map(|v| 1.0 / (1.0 + (-v).exp()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn activations_behave() {
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 4), vec![-2.0, -0.5, 0.0, 3.0]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 0.0, 3.0]);
        assert_eq!(leaky_relu(&t, 0.1).as_slice(), &[-0.2, -0.05, 0.0, 3.0]);
        let s = sigmoid(&t);
        assert!((s.at(0, 0, 0, 2) - 0.5).abs() < 1e-6);
        assert!(s.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
