//! Small dense row-major matrix type used by the attention blocks and by
//! the fast-transform algebra.
//!
//! The Winograd/FTA transform matrices (`A`, `B`, `G` in Eq. (1) of the
//! paper) and the per-window `Q/K/V` projections of the Swin attention
//! module are all small dense matrices; [`Mat`] gives them an explicit type
//! with checked multiplication rather than ad-hoc nested `Vec`s.

use crate::TensorError;
use std::fmt;

/// Dense row-major `rows × cols` matrix of `f32`.
///
/// # Example
///
/// ```
/// use nvc_tensor::mat::Mat;
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let i = Mat::identity(2);
/// assert_eq!(a.matmul(&i)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if rows have unequal lengths
    /// or no rows are given.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, TensorError> {
        let r = rows.len();
        let c = rows
            .first()
            .map(|r| r.len())
            .ok_or_else(|| TensorError::incompatible("matrix must have at least one row"))?;
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(TensorError::incompatible("ragged rows"));
            }
            data.extend_from_slice(row);
        }
        Ok(Mat {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read-only flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of range for {self}"
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of range for {self}"
        );
        &mut self.data[r * self.cols + c]
    }

    /// Matrix product `self * rhs`.
    ///
    /// Implemented by transposing `rhs` once and dispatching to the
    /// cache-blocked [`Mat::matmul_transposed`] inner kernel.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat, TensorError> {
        if self.cols != rhs.rows {
            return Err(TensorError::incompatible(format!(
                "matmul {}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        self.matmul_transposed(&rhs.transpose())
    }

    /// Matrix product `self * rhs_tᵀ` where `rhs_t` is already transposed
    /// (`n × k` for a `k × n` logical right-hand side).
    ///
    /// This is the hot inner kernel feeding the Swin attention
    /// projections: both operands are traversed row-major, every dot
    /// product runs over two contiguous slices, and output columns are
    /// visited in cache-sized blocks so the active `rhs_t` rows stay in
    /// L1 across the `i` loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the inner dimensions
    /// (`self.cols` vs `rhs_t.cols`) differ.
    pub fn matmul_transposed(&self, rhs_t: &Mat) -> Result<Mat, TensorError> {
        if self.cols != rhs_t.cols {
            return Err(TensorError::incompatible(format!(
                "matmul_transposed {}x{} * ({}x{})^T",
                self.rows, self.cols, rhs_t.rows, rhs_t.cols
            )));
        }
        let (m, n, k) = (self.rows, rhs_t.rows, self.cols);
        let mut out = Mat::zeros(m, n);
        // Column-block size: 32 rows of rhs_t at k ≤ 128 stay within L1.
        const JB: usize = 32;
        let mut jb = 0;
        while jb < n {
            let jend = (jb + JB).min(n);
            for i in 0..m {
                let a_row = &self.data[i * k..][..k];
                let out_block = &mut out.data[i * n + jb..i * n + jend];
                for (o, j) in out_block.iter_mut().zip(jb..jend) {
                    *o = dot(a_row, &rhs_t.data[j * k..][..k]);
                }
            }
            jb = jend;
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Mat) -> Result<Mat, TensorError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::incompatible("hadamard shape mismatch"));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }
}

/// Row-wise softmax over a row-major buffer of `cols`-wide rows, in
/// place. Each row is max-shifted for stability; a row whose shifted
/// exponentials sum to zero (possible only for `-inf`/NaN inputs) is
/// left unnormalized.
pub fn softmax_rows_inplace(data: &mut [f32], cols: usize) {
    for row in data.chunks_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Four-lane unrolled dot product of two equal-length slices. The fixed
/// lane structure gives a deterministic summation order independent of
/// the caller's blocking.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0_f32; 4];
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let rem_a = chunks_a.remainder();
    let rem_b = chunks_b.remainder();
    for (ca, cb) in chunks_a.zip(chunks_b) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&x, &y) in rem_a.iter().zip(rem_b) {
        acc += x * y;
    }
    acc
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mat{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul(&Mat::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let mut s = [0.0, 1.0, 2.0, 10.0, 10.0, 10.0];
        softmax_rows_inplace(&mut s, 3);
        for row in s.chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!((s[3] - 1.0 / 3.0).abs() < 1e-6);
        assert!(s[2] > s[0]);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Mat::from_rows(&[]).is_err());
        let ragged: [&[f32]; 2] = [&[1.0], &[1.0, 2.0]];
        assert!(Mat::from_rows(&ragged).is_err());
        assert!(Mat::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn matmul_transposed_matches_matmul() {
        // Odd sizes exercise the dot-product remainder lanes and the
        // column blocking together.
        let mut a = Mat::zeros(7, 13);
        let mut b = Mat::zeros(13, 37);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 7919) % 23) as f32 * 0.25 - 2.0;
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 104_729) % 19) as f32 * 0.5 - 4.0;
        }
        let via_t = a.matmul_transposed(&b.transpose()).unwrap();
        assert_eq!(a.matmul(&b).unwrap(), via_t);
        assert_eq!(via_t.rows(), 7);
        assert_eq!(via_t.cols(), 37);
        assert!(a.matmul_transposed(&Mat::zeros(4, 5)).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]).unwrap();
        assert_eq!(Mat::identity(2).matmul(&a).unwrap(), a);
        assert_eq!(a.matmul(&Mat::identity(2)).unwrap(), a);
    }
}
