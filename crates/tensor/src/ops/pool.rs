use crate::{Shape, Tensor, TensorError};

/// Max pooling with square window and equal stride (`Maxpooling` in paper
/// Fig. 2(a), used once in feature extraction to halve resolution).
///
/// # Example
///
/// ```
/// use nvc_tensor::{Shape, Tensor, ops::MaxPool2d};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let pool = MaxPool2d::new(2)?;
/// let x = Tensor::zeros(Shape::new(1, 4, 8, 8));
/// assert_eq!(pool.forward(&x)?.shape().dims(), (1, 4, 4, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2d {
    k: usize,
}

impl MaxPool2d {
    /// Creates a pooling operator with window and stride `k`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0`.
    pub fn new(k: usize) -> Result<Self, TensorError> {
        if k == 0 {
            return Err(TensorError::invalid("pool window must be non-zero"));
        }
        Ok(MaxPool2d { k })
    }

    /// Window/stride size.
    pub fn window(&self) -> usize {
        self.k
    }

    /// Runs the pooling operator. Output size is `floor(h/k) × floor(w/k)`;
    /// trailing rows/columns that do not fill a window are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input is smaller than
    /// one window.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = input.shape().dims();
        if h < self.k || w < self.k {
            return Err(TensorError::incompatible(format!(
                "input {h}x{w} smaller than pool window {}",
                self.k
            )));
        }
        let (k, oh, ow) = (self.k, h / self.k, w / self.k);
        let mut out = Tensor::zeros(Shape::new(n, c, oh, ow));
        let planes = out.as_mut_slice().chunks_exact_mut(oh * ow);
        for (out_plane, in_plane) in planes.zip(input.as_slice().chunks_exact(h * w)) {
            for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
                // The window's `k` input rows; fold order is `dy`, then
                // `dx`, ascending.
                let rows = &in_plane[oy * k * w..][..k * w];
                for (ox, o) in out_row.iter_mut().enumerate() {
                    let mut m = f32::NEG_INFINITY;
                    for row in rows.chunks_exact(w) {
                        for &v in &row[ox * k..][..k] {
                            m = m.max(v);
                        }
                    }
                    *o = m;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;
    use crate::ops::test_util::{bits, sparse_values};

    /// The four-index `Tensor::at` loop `forward` replaced, kept as the
    /// bit-exact reference: same fold, same order.
    fn at_reference(pool: &MaxPool2d, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape().dims();
        let (k, oh, ow) = (pool.k, h / pool.k, w / pool.k);
        let mut out = Tensor::zeros(Shape::new(n, c, oh, ow));
        for nn in 0..n {
            for cc in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut m = f32::NEG_INFINITY;
                        for dy in 0..k {
                            for dx in 0..k {
                                m = m.max(input.at(nn, cc, oy * k + dy, ox * k + dx));
                            }
                        }
                        *out.at_mut(nn, cc, oy, ox) = m;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn row_slices_match_the_at_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0x9001);
        for k in 1..=3 {
            for (h, w) in [(3, 3), (4, 6), (7, 11), (9, 8)] {
                let mut values = sparse_values(&mut rng, 2 * 3 * h * w, 0.4);
                // NaNs lose every `f32::max`; an all-NaN window stays `-inf`.
                for v in values.iter_mut().step_by(5) {
                    *v = f32::NAN;
                }
                values[..w * k].fill(f32::NAN);
                let x = Tensor::from_vec(Shape::new(2, 3, h, w), values).unwrap();
                let pool = MaxPool2d::new(k).unwrap();
                let got = pool.forward(&x).unwrap();
                assert_eq!(got.shape().dims(), (2, 3, h / k, w / k));
                assert_eq!(bits(&got), bits(&at_reference(&pool, &x)), "k={k} {h}x{w}");
            }
        }
    }

    #[test]
    fn picks_window_maximum() {
        let pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(
            Shape::new(1, 1, 2, 4),
            vec![1.0, 5.0, -1.0, 0.0, 2.0, 3.0, 7.0, -2.0],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn drops_partial_windows() {
        let pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::zeros(Shape::new(1, 1, 5, 7));
        assert_eq!(pool.forward(&x).unwrap().shape().dims(), (1, 1, 2, 3));
    }

    #[test]
    fn validation() {
        assert!(MaxPool2d::new(0).is_err());
        let pool = MaxPool2d::new(4).unwrap();
        assert!(pool
            .forward(&Tensor::zeros(Shape::new(1, 1, 2, 8)))
            .is_err());
    }
}
