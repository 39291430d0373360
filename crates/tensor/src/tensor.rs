use crate::{Shape, TensorError};

/// Dense, row-major NCHW tensor of `f32` values.
///
/// This is the single data type flowing through every layer of CTVC-Net.
/// It intentionally stays small: a shape plus a flat `Vec<f32>`. Elementwise
/// arithmetic validates shapes and returns [`TensorError`] on mismatch;
/// single-element accessors panic on out-of-range indices (documented on
/// each method) because they sit in inner loops.
///
/// # Example
///
/// ```
/// use nvc_tensor::{Shape, Tensor};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let a = Tensor::filled(Shape::new(1, 2, 2, 2), 1.5);
/// let b = Tensor::filled(Shape::new(1, 2, 2, 2), 0.5);
/// let c = a.add(&b)?;
/// assert_eq!(c.at(0, 1, 1, 1), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.volume()],
        }
    }

    /// Creates a tensor where every element equals `value`.
    pub fn filled(shape: Shape, value: f32) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.volume()],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f(n, c, h, w)` at every coordinate.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.volume());
        for n in 0..shape.n() {
            for c in 0..shape.c() {
                for h in 0..shape.h() {
                    for w in 0..shape.w() {
                        data.push(f(n, c, h, w));
                    }
                }
            }
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Read-only view of the underlying buffer in NCHW row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer in NCHW row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any coordinate is out of range.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any coordinate is out of range.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let idx = self.shape.index(n, c, h, w);
        &mut self.data[idx]
    }

    /// Element at `(n, c, h, w)` treating coordinates outside the spatial
    /// extent as zero padding. `h` and `w` are signed for this reason.
    #[inline]
    pub fn at_padded(&self, n: usize, c: usize, h: isize, w: isize) -> f32 {
        if h < 0 || w < 0 || h as usize >= self.shape.h() || w as usize >= self.shape.w() {
            0.0
        } else {
            self.at(n, c, h as usize, w as usize)
        }
    }

    /// Bilinearly samples channel `c` at fractional coordinates `(y, x)`,
    /// with zero padding outside the frame. Used by deformable convolution.
    pub fn sample_bilinear(&self, n: usize, c: usize, y: f32, x: f32) -> f32 {
        let y0 = y.floor();
        let x0 = x.floor();
        let dy = y - y0;
        let dx = x - x0;
        let (y0, x0) = (y0 as isize, x0 as isize);
        let v00 = self.at_padded(n, c, y0, x0);
        let v01 = self.at_padded(n, c, y0, x0 + 1);
        let v10 = self.at_padded(n, c, y0 + 1, x0);
        let v11 = self.at_padded(n, c, y0 + 1, x0 + 1);
        v00 * (1.0 - dy) * (1.0 - dx)
            + v01 * (1.0 - dy) * dx
            + v10 * dy * (1.0 - dx)
            + v11 * dy * dx
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims(),
                right: other.shape.dims(),
            });
        }
        Ok(Tensor {
            shape: self.shape,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute value (0.0 for an empty tensor; NaNs are
    /// ignored).
    pub fn max_abs(&self) -> f32 {
        // Eight independent running maxima, so the scan vectorizes
        // instead of serialising on one accumulator; a maximum does not
        // depend on the order it is taken in.
        let mut lanes = [0.0_f32; 8];
        let mut chunks = self.data.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (m, &v) in lanes.iter_mut().zip(chunk) {
                if v.abs() > *m {
                    *m = v.abs();
                }
            }
        }
        let tail = chunks.remainder().iter().chain(&lanes);
        tail.fold(0.0_f32, |m, &v| m.max(v.abs()))
    }

    /// Mean squared error between two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f64, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims(),
                right: other.shape.dims(),
            });
        }
        let mut acc = 0.0_f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            let d = (a - b) as f64;
            acc += d * d;
        }
        Ok(acc / self.data.len().max(1) as f64)
    }

    /// Concatenates tensors along the channel axis. All inputs must share
    /// batch and spatial dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if `tensors` is empty or the
    /// non-channel dimensions disagree.
    pub fn concat_channels(tensors: &[&Tensor]) -> Result<Tensor, TensorError> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::incompatible("concat of zero tensors"))?;
        let (n, _, h, w) = first.shape.dims();
        let mut c_total = 0;
        for t in tensors {
            let (tn, tc, th, tw) = t.shape.dims();
            if (tn, th, tw) != (n, h, w) {
                return Err(TensorError::ShapeMismatch {
                    left: first.shape.dims(),
                    right: t.shape.dims(),
                });
            }
            c_total += tc;
        }
        let out_shape = Shape::new(n, c_total, h, w);
        let mut out = Tensor::zeros(out_shape);
        let plane = h * w;
        for nn in 0..n {
            let mut c_off = 0;
            for t in tensors {
                let tc = t.shape.c();
                for c in 0..tc {
                    let src_base = t.shape.index(nn, c, 0, 0);
                    let dst_base = out_shape.index(nn, c_off + c, 0, 0);
                    out.data[dst_base..dst_base + plane]
                        .copy_from_slice(&t.data[src_base..src_base + plane]);
                }
                c_off += tc;
            }
        }
        Ok(out)
    }

    /// Extracts channels `[start, start + count)` into a new tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the range exceeds the
    /// channel count.
    pub fn slice_channels(&self, start: usize, count: usize) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = self.shape.dims();
        if start + count > c {
            return Err(TensorError::incompatible(format!(
                "channel slice {start}..{} out of range for {c} channels",
                start + count
            )));
        }
        let out_shape = Shape::new(n, count, h, w);
        let mut out = Tensor::zeros(out_shape);
        let plane = h * w;
        for nn in 0..n {
            for cc in 0..count {
                let src = self.shape.index(nn, start + cc, 0, 0);
                let dst = out_shape.index(nn, cc, 0, 0);
                out.data[dst..dst + plane].copy_from_slice(&self.data[src..src + plane]);
            }
        }
        Ok(out)
    }

    /// Crops the spatial extent to `[0, h) × [0, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the requested size exceeds
    /// the current size.
    pub fn crop(&self, h: usize, w: usize) -> Result<Tensor, TensorError> {
        let (n, c, sh, sw) = self.shape.dims();
        if h > sh || w > sw {
            return Err(TensorError::incompatible(format!(
                "crop to {h}x{w} larger than {sh}x{sw}"
            )));
        }
        let out_shape = Shape::new(n, c, h, w);
        let mut out = Tensor::zeros(out_shape);
        for nn in 0..n {
            for cc in 0..c {
                for hh in 0..h {
                    let src = self.shape.index(nn, cc, hh, 0);
                    let dst = out_shape.index(nn, cc, hh, 0);
                    out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
                }
            }
        }
        Ok(out)
    }

    /// Crops the spatial region `[y0, y0 + h) × [x0, x0 + w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the region exceeds the
    /// tensor extent.
    pub fn crop_region(
        &self,
        y0: usize,
        x0: usize,
        h: usize,
        w: usize,
    ) -> Result<Tensor, TensorError> {
        let (n, c, sh, sw) = self.shape.dims();
        if y0 + h > sh || x0 + w > sw {
            return Err(TensorError::incompatible(format!(
                "crop [{y0}+{h}, {x0}+{w}] exceeds {sh}x{sw}"
            )));
        }
        let out_shape = Shape::new(n, c, h, w);
        let mut out = Tensor::zeros(out_shape);
        for nn in 0..n {
            for cc in 0..c {
                for hh in 0..h {
                    let src = self.shape.index(nn, cc, y0 + hh, x0);
                    let dst = out_shape.index(nn, cc, hh, 0);
                    out.data[dst..dst + w].copy_from_slice(&self.data[src..src + w]);
                }
            }
        }
        Ok(out)
    }

    /// Pads the spatial extent by `p` on every side, replicating edge
    /// samples (clamp-to-edge).
    pub fn replicate_pad(&self, p: usize) -> Tensor {
        let (n, c, h, w) = self.shape.dims();
        Tensor::from_fn(Shape::new(n, c, h + 2 * p, w + 2 * p), |nn, cc, y, x| {
            let sy = (y as isize - p as isize).clamp(0, h as isize - 1) as usize;
            let sx = (x as isize - p as isize).clamp(0, w as isize - 1) as usize;
            self.at(nn, cc, sy, sx)
        })
    }

    /// Zero-pads the spatial extent on the bottom/right to `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the requested size is
    /// smaller than the current size.
    pub fn pad_to(&self, h: usize, w: usize) -> Result<Tensor, TensorError> {
        let (n, c, sh, sw) = self.shape.dims();
        if h < sh || w < sw {
            return Err(TensorError::incompatible(format!(
                "pad to {h}x{w} smaller than {sh}x{sw}"
            )));
        }
        let out_shape = Shape::new(n, c, h, w);
        let mut out = Tensor::zeros(out_shape);
        for nn in 0..n {
            for cc in 0..c {
                for hh in 0..sh {
                    let src = self.shape.index(nn, cc, hh, 0);
                    let dst = out_shape.index(nn, cc, hh, 0);
                    out.data[dst..dst + sw].copy_from_slice(&self.data[src..src + sw]);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: Shape) -> Tensor {
        let mut i = 0.0;
        Tensor::from_fn(shape, |_, _, _, _| {
            i += 1.0;
            i
        })
    }

    #[test]
    fn from_vec_validates_length() {
        let err = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![0.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert!(Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn elementwise_ops() {
        let a = seq(Shape::new(1, 1, 2, 2));
        let b = a.scale(2.0);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[3.0, 6.0, 9.0, 12.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.hadamard(&a).unwrap().as_slice(), &[1.0, 4.0, 9.0, 16.0]);
        let c = seq(Shape::new(1, 1, 1, 4));
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn padded_access_is_zero_outside() {
        let a = seq(Shape::new(1, 1, 2, 2));
        assert_eq!(a.at_padded(0, 0, -1, 0), 0.0);
        assert_eq!(a.at_padded(0, 0, 0, 2), 0.0);
        assert_eq!(a.at_padded(0, 0, 1, 1), 4.0);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let a = Tensor::from_vec(Shape::new(1, 1, 2, 2), vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        assert!((a.sample_bilinear(0, 0, 0.5, 0.5) - 1.5).abs() < 1e-6);
        assert_eq!(a.sample_bilinear(0, 0, 0.0, 1.0), 1.0);
        // Exactly on the last pixel.
        assert_eq!(a.sample_bilinear(0, 0, 1.0, 1.0), 3.0);
    }

    #[test]
    fn concat_and_slice_channels_roundtrip() {
        let a = seq(Shape::new(1, 2, 2, 2));
        let b = seq(Shape::new(1, 3, 2, 2));
        let cat = Tensor::concat_channels(&[&a, &b]).unwrap();
        assert_eq!(cat.shape().dims(), (1, 5, 2, 2));
        assert_eq!(cat.slice_channels(0, 2).unwrap(), a);
        assert_eq!(cat.slice_channels(2, 3).unwrap(), b);
        assert!(cat.slice_channels(4, 2).is_err());
    }

    #[test]
    fn crop_and_pad_roundtrip() {
        let a = seq(Shape::new(1, 2, 3, 5));
        let padded = a.pad_to(4, 8).unwrap();
        assert_eq!(padded.shape().dims(), (1, 2, 4, 8));
        assert_eq!(padded.at(0, 1, 2, 4), a.at(0, 1, 2, 4));
        assert_eq!(padded.at(0, 1, 3, 7), 0.0);
        assert_eq!(padded.crop(3, 5).unwrap(), a);
        assert!(a.crop(4, 4).is_err());
        assert!(a.pad_to(2, 8).is_err());
    }

    #[test]
    fn crop_region_and_replicate_pad() {
        let a = seq(Shape::new(1, 2, 4, 5));
        let r = a.crop_region(1, 2, 2, 3).unwrap();
        assert_eq!(r.shape().dims(), (1, 2, 2, 3));
        assert_eq!(r.at(0, 0, 0, 0), a.at(0, 0, 1, 2));
        assert_eq!(r.at(0, 1, 1, 2), a.at(0, 1, 2, 4));
        assert!(a.crop_region(3, 0, 2, 5).is_err());
        let p = a.replicate_pad(2);
        assert_eq!(p.shape().dims(), (1, 2, 8, 9));
        assert_eq!(p.at(0, 0, 0, 0), a.at(0, 0, 0, 0));
        assert_eq!(p.at(0, 1, 7, 8), a.at(0, 1, 3, 4));
        assert_eq!(p.crop_region(2, 2, 4, 5).unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = seq(Shape::new(1, 1, 2, 2)); // 1 2 3 4
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.mse(&a).unwrap(), 0.0);
        let b = a.map(|v| v + 2.0);
        assert_eq!(a.mse(&b).unwrap(), 4.0);
    }

    #[test]
    fn from_fn_matches_at() {
        let t = Tensor::from_fn(Shape::new(2, 3, 4, 5), |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        });
        assert_eq!(t.at(1, 2, 3, 4), 1234.0);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }
}
