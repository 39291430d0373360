use nvc_tensor::mat::Mat;
use nvc_tensor::TensorError;

/// Largest input patch side supported by any transform (`p` of T3).
pub const MAX_PATCH: usize = 5;
/// Largest transform-domain side supported (`µ` of T3).
pub const MAX_MU: usize = 8;
/// Largest output tile side supported (`m` of T3).
pub const MAX_TILE: usize = 6;

/// A complete set of fast-algorithm transform matrices for Eq. (1) of the
/// paper, together with the tiling geometry that makes a whole-layer
/// computation out of per-tile transforms.
///
/// | field | meaning |
/// |---|---|
/// | `bt` (µ×p) | input transform, `Y = Bᵀ X B` |
/// | `g` (µ×k) | kernel transform, `E = G W Gᵀ` |
/// | `at` (m×µ) | output inverse transform, `V = Aᵀ U A` |
/// | `p` | input patch side |
/// | `m` | output tile side |
/// | `in_step` | input rows consumed per tile step |
/// | `in_offset` | left/top zero padding applied before tiling |
///
/// Use [`winograd_f2x2_3x3`] or [`fta_t3_6x6_4x4`] to obtain the two
/// instances the paper (and the NVCA hardware) supports.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPair {
    name: &'static str,
    bt: Mat,
    g: Mat,
    at: Mat,
    /// Non-zero terms of each `Bᵀ` row, for the lane-parallel bodies.
    bt_terms: RowTerms,
    /// Non-zero terms of each `Aᵀ` row.
    at_terms: RowTerms,
    p: usize,
    m: usize,
    k: usize,
    mu: usize,
    in_step: usize,
    in_offset: usize,
}

/// The non-zero `(column, coefficient)` terms of every row of a
/// transform matrix, columns ascending. `Bᵀ` and `Aᵀ` are mostly zeros
/// (two or three `±1` per row), so the lane-parallel transforms walk
/// these lists instead of multiplying through the zeros.
type RowTerms = Vec<Vec<(usize, f32)>>;

fn row_terms(m: &Mat) -> RowTerms {
    (0..m.rows())
        .map(|i| {
            (0..m.cols())
                .map(|k| (k, m.at(i, k)))
                .filter(|&(_, a)| a != 0.0)
                .collect()
        })
        .collect()
}

/// `dst[lane] = Σ terms a · src(k)[lane]`, accumulated from `+0.0` in
/// term order — one element of a matrix product, for `L` tiles at once.
#[inline]
fn combine_lanes<'a, const L: usize>(
    terms: &[(usize, f32)],
    src: impl Fn(usize) -> &'a [f32],
    dst: &mut [f32],
) {
    let mut acc = [0.0_f32; L];
    for &(k, a) in terms {
        let s = &src(k)[..L];
        if a == 1.0 {
            for (t, &v) in acc.iter_mut().zip(s) {
                *t += v;
            }
        } else if a == -1.0 {
            for (t, &v) in acc.iter_mut().zip(s) {
                *t -= v;
            }
        } else {
            for (t, &v) in acc.iter_mut().zip(s) {
                *t += a * v;
            }
        }
    }
    dst[..L].copy_from_slice(&acc);
}

/// `out = T · X · Tᵀ` for `L` lane-major `c × c` matrices `X` at once,
/// `T` (`r × c`) given by its row terms: `tmp` (`r·c·L` floats) receives
/// `T · X`, and element `(i, j)` of the result lands as one `L`-wide row
/// at `out[(i·r + j) · out_stride..]`. Both fast transforms are this
/// product — `Bᵀ X B` with `T = Bᵀ`, `Aᵀ U A` with `T = Aᵀ`.
fn sandwich_lanes<const L: usize>(
    t: &RowTerms,
    c: usize,
    x: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    out_stride: usize,
) {
    let r = t.len();
    for (i, terms) in t.iter().enumerate() {
        for j in 0..c {
            let dst = &mut tmp[(i * c + j) * L..];
            combine_lanes::<L>(terms, |k| &x[(k * c + j) * L..], dst);
        }
    }
    // (T·X)·Tᵀ: element (i, j) = Σ_k tmp[i][k] · T[j][k].
    for i in 0..r {
        for (j, terms) in t.iter().enumerate() {
            let dst = &mut out[(i * r + j) * out_stride..];
            combine_lanes::<L>(terms, |k| &tmp[(i * c + k) * L..], dst);
        }
    }
}

impl TransformPair {
    /// Human-readable algorithm name (`"F(2x2,3x3)"` or `"T3(6x6,4x4)"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Input patch side length `p`.
    pub fn patch(&self) -> usize {
        self.p
    }

    /// Output tile side length `m`.
    pub fn tile(&self) -> usize {
        self.m
    }

    /// Kernel side length `k`.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Transform-domain side length `µ`; each tile costs `µ²`
    /// multiplications when dense.
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Dense multiplications per tile, `µ²`.
    pub fn mults_per_tile(&self) -> usize {
        self.mu * self.mu
    }

    /// Multiplications per tile a *direct* implementation would need
    /// (`m²·k²` for convolution-like operators).
    pub fn direct_mults_per_tile(&self) -> usize {
        self.m * self.m * self.k * self.k
    }

    /// Input rows/cols consumed per tile step.
    pub fn in_step(&self) -> usize {
        self.in_step
    }

    /// Output samples per input sample along each axis: 1 for the
    /// convolution transform, 2 for the stride-2 deconvolution one.
    pub fn out_scale(&self) -> usize {
        self.m / self.in_step
    }

    /// Zero padding applied to the top/left of the input before tiling.
    pub fn in_offset(&self) -> usize {
        self.in_offset
    }

    /// The `Bᵀ` matrix (µ×p).
    pub fn bt(&self) -> &Mat {
        &self.bt
    }

    /// The `G` matrix (µ×k).
    pub fn g(&self) -> &Mat {
        &self.g
    }

    /// The `Aᵀ` matrix (m×µ).
    pub fn at(&self) -> &Mat {
        &self.at
    }

    /// Kernel transform `E = G W Gᵀ` for a `k × k` spatial kernel.
    ///
    /// # Errors
    ///
    /// Returns an error if `w` is not `k × k`.
    pub fn transform_kernel(&self, w: &Mat) -> Result<Mat, TensorError> {
        if w.rows() != self.k || w.cols() != self.k {
            return Err(TensorError::incompatible(format!(
                "kernel must be {0}x{0}, got {1}x{2}",
                self.k,
                w.rows(),
                w.cols()
            )));
        }
        self.g.matmul(w)?.matmul(&self.g.transpose())
    }

    /// Input transform `Y = Bᵀ X B` for a `p × p` input patch.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` is not `p × p`.
    pub fn transform_input(&self, x: &Mat) -> Result<Mat, TensorError> {
        if x.rows() != self.p || x.cols() != self.p {
            return Err(TensorError::incompatible(format!(
                "input patch must be {0}x{0}, got {1}x{2}",
                self.p,
                x.rows(),
                x.cols()
            )));
        }
        let mut out = Mat::zeros(self.mu, self.mu);
        self.transform_input_slice(x.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Allocation-free input transform: reads a `p × p` row-major patch
    /// from `x`, writes the `µ × µ` row-major result to `out`. This is
    /// the per-tile hot kernel; all intermediates live on the stack, and
    /// the two supported geometries dispatch to const-sized bodies so the
    /// inner loops fully unroll (identical arithmetic order — the
    /// results are bit-identical to the generic body).
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert!`/indexing) if the slices are shorter
    /// than `p²` / `µ²`.
    #[inline]
    pub fn transform_input_slice(&self, x: &[f32], out: &mut [f32]) {
        debug_assert!(x.len() >= self.p * self.p && out.len() >= self.mu * self.mu);
        match (self.p, self.mu) {
            (4, 4) => self.input_fixed::<4, 4>(x, out),
            (5, 8) => self.input_fixed::<5, 8>(x, out),
            _ => self.input_fixed_generic(self.p, self.mu, x, out),
        }
    }

    /// Input-transform body with const dimensions (see
    /// [`TransformPair::transform_input_slice`]).
    #[inline]
    fn input_fixed<const P: usize, const MU: usize>(&self, x: &[f32], out: &mut [f32]) {
        let bt = self.bt.as_slice(); // µ × p
        let x = &x[..P * P];
        // tmp = Bᵀ · X  (µ × p); Bᵀ rows are sparse (±1, ±0.5).
        let mut tmp = [0.0_f32; MAX_MU * MAX_PATCH];
        for i in 0..MU {
            for k in 0..P {
                let a = bt[i * P + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..P {
                    tmp[i * P + j] += a * x[k * P + j];
                }
            }
        }
        // out = tmp · B = tmp · (Bᵀ)ᵀ: out[i][j] = Σ_k tmp[i][k]·Bᵀ[j][k].
        for i in 0..MU {
            for j in 0..MU {
                let mut acc = 0.0;
                for k in 0..P {
                    acc += tmp[i * P + k] * bt[j * P + k];
                }
                out[i * MU + j] = acc;
            }
        }
    }

    /// Fallback input-transform body with runtime dimensions — the same
    /// loops as [`TransformPair::input_fixed`], in the same order.
    fn input_fixed_generic(&self, p: usize, mu: usize, x: &[f32], out: &mut [f32]) {
        let bt = self.bt.as_slice();
        let mut tmp = [0.0_f32; MAX_MU * MAX_PATCH];
        for i in 0..mu {
            let row = &mut tmp[i * p..][..p];
            for (k, &a) in bt[i * p..][..p].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (t, &xv) in row.iter_mut().zip(&x[k * p..][..p]) {
                    *t += a * xv;
                }
            }
        }
        for i in 0..mu {
            let trow = &tmp[i * p..][..p];
            for j in 0..mu {
                let brow = &bt[j * p..][..p];
                let mut acc = 0.0;
                for (&t, &b) in trow.iter().zip(brow) {
                    acc += t * b;
                }
                out[i * mu + j] = acc;
            }
        }
    }

    /// Inverse transform `V = Aᵀ U A` for a `µ × µ` transform-domain tile.
    ///
    /// # Errors
    ///
    /// Returns an error if `u` is not `µ × µ`.
    pub fn inverse(&self, u: &Mat) -> Result<Mat, TensorError> {
        if u.rows() != self.mu || u.cols() != self.mu {
            return Err(TensorError::incompatible(format!(
                "transform tile must be {0}x{0}, got {1}x{2}",
                self.mu,
                u.rows(),
                u.cols()
            )));
        }
        let mut out = Mat::zeros(self.m, self.m);
        self.inverse_slice(u.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Allocation-free inverse transform: reads a `µ × µ` row-major tile
    /// from `u`, writes the `m × m` row-major result to `out`. The two
    /// supported geometries dispatch to const-sized bodies (identical
    /// arithmetic order, bit-identical results — see
    /// [`TransformPair::transform_input_slice`]).
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert!`/indexing) if the slices are shorter
    /// than `µ²` / `m²`.
    #[inline]
    pub fn inverse_slice(&self, u: &[f32], out: &mut [f32]) {
        debug_assert!(u.len() >= self.mu * self.mu && out.len() >= self.m * self.m);
        match (self.m, self.mu) {
            (2, 4) => self.inverse_fixed::<2, 4>(u, out),
            (6, 8) => self.inverse_fixed::<6, 8>(u, out),
            _ => self.inverse_fixed_generic(self.m, self.mu, u, out),
        }
    }

    /// Inverse-transform body with const dimensions.
    #[inline]
    fn inverse_fixed<const M: usize, const MU: usize>(&self, u: &[f32], out: &mut [f32]) {
        let at = self.at.as_slice(); // m × µ
        let u = &u[..MU * MU];
        // tmp = Aᵀ · U  (m × µ); Aᵀ rows are sparse (0, ±1).
        let mut tmp = [0.0_f32; MAX_TILE * MAX_MU];
        for i in 0..M {
            for k in 0..MU {
                let a = at[i * MU + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..MU {
                    tmp[i * MU + j] += a * u[k * MU + j];
                }
            }
        }
        // out = tmp · A = tmp · (Aᵀ)ᵀ: out[i][j] = Σ_k tmp[i][k]·Aᵀ[j][k].
        for i in 0..M {
            for j in 0..M {
                let mut acc = 0.0;
                for k in 0..MU {
                    acc += tmp[i * MU + k] * at[j * MU + k];
                }
                out[i * M + j] = acc;
            }
        }
    }

    /// Fallback inverse-transform body with runtime dimensions — the
    /// same loops as [`TransformPair::inverse_fixed`], in the same order.
    fn inverse_fixed_generic(&self, m: usize, mu: usize, u: &[f32], out: &mut [f32]) {
        let at = self.at.as_slice();
        let mut tmp = [0.0_f32; MAX_TILE * MAX_MU];
        for i in 0..m {
            let row = &mut tmp[i * mu..][..mu];
            row.fill(0.0);
            for (k, &a) in at[i * mu..][..mu].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (t, &uv) in row.iter_mut().zip(&u[k * mu..][..mu]) {
                    *t += a * uv;
                }
            }
        }
        for i in 0..m {
            let trow = &tmp[i * mu..][..mu];
            for j in 0..m {
                let arow = &at[j * mu..][..mu];
                let mut acc = 0.0;
                for (&t, &a) in trow.iter().zip(arow) {
                    acc += t * a;
                }
                out[i * m + j] = acc;
            }
        }
    }

    /// Lane-parallel [`TransformPair::transform_input_slice`]: transforms
    /// `L` patches at once. `x` holds them lane-major
    /// (`x[(k·p + j)·L + lane]`), `tmp` is `µ·p·L` floats of scratch, and
    /// coefficient `c = i·µ + j` of every lane lands as one `L`-wide row
    /// at `out[c · row_stride..]` — the tiled executor's
    /// `[coeff][c_in][lane]` staging, written in place.
    ///
    /// Each lane's result is bit-identical to the scalar body: the first
    /// product accumulates the same non-zero `Bᵀ` terms in the same
    /// (ascending `k`) order, and the second skips exactly the terms the
    /// scalar loop multiplies by a zero coefficient, which for finite
    /// data add `±0.0` to an accumulator seeded with `+0.0` — no change.
    pub(crate) fn transform_input_lanes<const L: usize>(
        &self,
        x: &[f32],
        tmp: &mut [f32],
        out: &mut [f32],
        row_stride: usize,
    ) {
        sandwich_lanes::<L>(&self.bt_terms, self.p, x, tmp, out, row_stride);
    }

    /// Lane-parallel [`TransformPair::inverse_slice`]: `u` holds `L`
    /// transform-domain tiles lane-major (`u[(k·µ + j)·L + lane]`), `tmp`
    /// is `m·µ·L` floats of scratch, and `v[(i·m + j)·L + lane]` receives
    /// the `m × m` outputs. Bit-identical per lane to the scalar body,
    /// by the argument of [`TransformPair::transform_input_lanes`].
    pub(crate) fn inverse_lanes<const L: usize>(&self, u: &[f32], tmp: &mut [f32], v: &mut [f32]) {
        sandwich_lanes::<L>(&self.at_terms, self.mu, u, tmp, v, L);
    }

    /// Whole-tile reference evaluation of Eq. (1):
    /// `V = Aᵀ [(G W Gᵀ) ⊙ (Bᵀ X B)] A`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the component transforms.
    pub fn fast_tile(&self, w: &Mat, x: &Mat) -> Result<Mat, TensorError> {
        let e = self.transform_kernel(w)?;
        let y = self.transform_input(x)?;
        self.inverse(&e.hadamard(&y)?)
    }

    /// The importance factor matrix `Q` of Eq. (6).
    ///
    /// Because `H_{c,d,i,j,q,v} = A_{i,c}·A_{j,d}·B_{q,i}·B_{v,j}`
    /// factorises, `Q_{i,j} = α_i·α_j·β_i·β_j` where `α_i` is the L2 norm
    /// of row `i` of `A` (column `i` of `Aᵀ`) and `β_i` the L2 norm of
    /// column `i` of `B` (row `i` of `Bᵀ`).
    pub fn importance(&self) -> Mat {
        let mut alpha = vec![0.0_f32; self.mu];
        let mut beta = vec![0.0_f32; self.mu];
        for i in 0..self.mu {
            let mut a2 = 0.0;
            for c in 0..self.m {
                a2 += self.at.at(c, i) * self.at.at(c, i);
            }
            alpha[i] = a2.sqrt();
            let mut b2 = 0.0;
            for q in 0..self.p {
                b2 += self.bt.at(i, q) * self.bt.at(i, q);
            }
            beta[i] = b2.sqrt();
        }
        let mut q = Mat::zeros(self.mu, self.mu);
        for i in 0..self.mu {
            for j in 0..self.mu {
                *q.at_mut(i, j) = alpha[i] * alpha[j] * beta[i] * beta[j];
            }
        }
        q
    }
}

/// Winograd fast convolution `F(2×2, 3×3)` (Eqs. (2)–(3) of the paper):
/// 4×4 input patch, 3×3 kernel, 2×2 output tile, 16 multiplications.
///
/// Tiles step 2 in the input; the canonical same-padding convolution pads
/// the input by 1 on every border, expressed here as `in_offset = 1`.
pub fn winograd_f2x2_3x3() -> TransformPair {
    let bt = Mat::from_rows(&[
        &[1.0, 0.0, -1.0, 0.0],
        &[0.0, 1.0, 1.0, 0.0],
        &[0.0, -1.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, -1.0],
    ])
    .expect("static matrix");
    let g = Mat::from_rows(&[
        &[1.0, 0.0, 0.0],
        &[0.5, 0.5, 0.5],
        &[0.5, -0.5, 0.5],
        &[0.0, 0.0, 1.0],
    ])
    .expect("static matrix");
    let at =
        Mat::from_rows(&[&[1.0, 1.0, 1.0, 0.0], &[0.0, 1.0, -1.0, -1.0]]).expect("static matrix");
    TransformPair {
        name: "F(2x2,3x3)",
        bt_terms: row_terms(&bt),
        at_terms: row_terms(&at),
        bt,
        g,
        at,
        p: 4,
        m: 2,
        k: 3,
        mu: 4,
        in_step: 2,
        in_offset: 1,
    }
}

/// FTA fast deconvolution `T3(6×6, 4×4)`, stride 2 (Eqs. (4)–(5) of the
/// paper): 5×5 input patch, 4×4 kernel, 6×6 output tile, 64
/// multiplications.
///
/// The transform decomposes the stride-2 transposed convolution into its
/// two output phases, each a Winograd `F(3, 2)` over the even/odd kernel
/// taps. Tiles step 3 in the input and 6 in the output; with the PyTorch
/// `padding = 1` convention the input is pre-padded by one zero row/column
/// (`in_offset = 1`).
pub fn fta_t3_6x6_4x4() -> TransformPair {
    let bt = Mat::from_rows(&[
        &[1.0, 0.0, -1.0, 0.0, 0.0],
        &[0.0, 1.0, 1.0, 0.0, 0.0],
        &[0.0, -1.0, 1.0, 0.0, 0.0],
        &[0.0, -1.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, -1.0, 0.0],
        &[0.0, 0.0, 1.0, 1.0, 0.0],
        &[0.0, 0.0, -1.0, 1.0, 0.0],
        &[0.0, 0.0, -1.0, 0.0, 1.0],
    ])
    .expect("static matrix");
    let g = Mat::from_rows(&[
        &[0.0, 0.0, 0.0, 1.0],
        &[0.0, 0.5, 0.0, 0.5],
        &[0.0, -0.5, 0.0, 0.5],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.5, 0.0, 0.5, 0.0],
        &[-0.5, 0.0, 0.5, 0.0],
        &[1.0, 0.0, 0.0, 0.0],
    ])
    .expect("static matrix");
    let at = Mat::from_rows(&[
        &[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0],
        &[0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 0.0],
        &[0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    ])
    .expect("static matrix");
    TransformPair {
        name: "T3(6x6,4x4)",
        bt_terms: row_terms(&bt),
        at_terms: row_terms(&at),
        bt,
        g,
        at,
        p: 5,
        m: 6,
        k: 4,
        mu: 8,
        in_step: 3,
        in_offset: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::init::Gaussian;

    fn randmat(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut g = Gaussian::new(seed);
        let mut data = vec![0.0; rows * cols];
        g.fill(&mut data, 1.0);
        Mat::from_vec(rows, cols, data).unwrap()
    }

    /// Direct 1-D slide of a 3-tap filter for the Winograd check.
    fn direct_conv1d(x: &[f32], w: &[f32]) -> Vec<f32> {
        (0..x.len() - w.len() + 1)
            .map(|o| (0..w.len()).map(|t| x[o + t] * w[t]).sum())
            .collect()
    }

    #[test]
    fn winograd_dimensions() {
        let t = winograd_f2x2_3x3();
        assert_eq!((t.patch(), t.tile(), t.kernel(), t.mu()), (4, 2, 3, 4));
        assert_eq!(t.mults_per_tile(), 16);
        assert_eq!(t.direct_mults_per_tile(), 36);
        assert_eq!(t.bt().rows(), 4);
        assert_eq!(t.bt().cols(), 4);
        assert_eq!(t.g().rows(), 4);
        assert_eq!(t.g().cols(), 3);
        assert_eq!(t.at().rows(), 2);
        assert_eq!(t.at().cols(), 4);
    }

    #[test]
    fn fta_dimensions() {
        let t = fta_t3_6x6_4x4();
        assert_eq!((t.patch(), t.tile(), t.kernel(), t.mu()), (5, 6, 4, 8));
        assert_eq!(t.mults_per_tile(), 64);
        assert_eq!(t.bt().rows(), 8);
        assert_eq!(t.bt().cols(), 5);
        assert_eq!(t.g().rows(), 8);
        assert_eq!(t.g().cols(), 4);
        assert_eq!(t.at().rows(), 6);
        assert_eq!(t.at().cols(), 8);
    }

    /// The 2-D Winograd tile must equal direct 2-D correlation of the 4×4
    /// patch with the 3×3 kernel (valid positions only).
    #[test]
    fn winograd_tile_matches_direct() {
        let t = winograd_f2x2_3x3();
        let w = randmat(3, 3, 1);
        let x = randmat(4, 4, 2);
        let v = t.fast_tile(&w, &x).unwrap();
        for oy in 0..2 {
            for ox in 0..2 {
                let mut acc = 0.0;
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc += x.at(oy + ky, ox + kx) * w.at(ky, kx);
                    }
                }
                assert!(
                    (v.at(oy, ox) - acc).abs() < 1e-4,
                    "({oy},{ox}): {} vs {acc}",
                    v.at(oy, ox)
                );
            }
        }
    }

    /// 1-D sanity check of the Winograd factors: F(2,3) along one axis.
    #[test]
    fn winograd_1d_f2_3() {
        let t = winograd_f2x2_3x3();
        let x = [0.3, -1.2, 0.7, 2.0];
        let w = [0.5, -0.25, 1.0];
        // y = A^T ((G w) .* (B^T x))
        let mut gw = [0.0_f32; 4];
        let mut btx = [0.0_f32; 4];
        for i in 0..4 {
            gw[i] = (0..3).map(|j| t.g().at(i, j) * w[j]).sum();
            btx[i] = (0..4).map(|j| t.bt().at(i, j) * x[j]).sum();
        }
        let prod: Vec<f32> = gw.iter().zip(&btx).map(|(a, b)| a * b).collect();
        let y: Vec<f32> = (0..2)
            .map(|r| (0..4).map(|i| t.at().at(r, i) * prod[i]).sum())
            .collect();
        let direct = direct_conv1d(&x, &w);
        for (a, b) in y.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// 1-D FTA check: the 6 outputs of a tile must match the stride-2
    /// transposed convolution `out_full[j] = Σ_i x[i]·w[j−2i]` at offsets
    /// `j = 3..9` (see crate docs for the alignment derivation).
    #[test]
    fn fta_1d_t3_matches_direct_deconv() {
        let t = fta_t3_6x6_4x4();
        let x = [0.4, -0.9, 1.3, 0.2, -0.6];
        let w = [0.7, -0.3, 0.5, 1.1];
        let mut gw = [0.0_f32; 8];
        let mut btx = [0.0_f32; 8];
        for i in 0..8 {
            gw[i] = (0..4).map(|j| t.g().at(i, j) * w[j]).sum();
            btx[i] = (0..5).map(|j| t.bt().at(i, j) * x[j]).sum();
        }
        let prod: Vec<f32> = gw.iter().zip(&btx).map(|(a, b)| a * b).collect();
        let y: Vec<f32> = (0..6)
            .map(|r| (0..8).map(|i| t.at().at(r, i) * prod[i]).sum())
            .collect();
        // Direct scatter: out_full[j] = Σ_i x[i] * w[j - 2i].
        let mut out_full = vec![0.0_f32; 2 * x.len() + 2];
        for (i, &xv) in x.iter().enumerate() {
            for (j, &wv) in w.iter().enumerate() {
                out_full[2 * i + j] += xv * wv;
            }
        }
        for (o, &yo) in y.iter().enumerate() {
            assert!(
                (yo - out_full[o + 3]).abs() < 1e-5,
                "output {o}: {yo} vs {}",
                out_full[o + 3]
            );
        }
    }

    /// Importance factors are strictly positive and symmetric in (i, j).
    #[test]
    fn importance_is_positive_and_symmetric() {
        for t in [winograd_f2x2_3x3(), fta_t3_6x6_4x4()] {
            let q = t.importance();
            for i in 0..t.mu() {
                for j in 0..t.mu() {
                    assert!(q.at(i, j) > 0.0, "{} Q[{i}][{j}]", t.name());
                    assert!((q.at(i, j) - q.at(j, i)).abs() < 1e-6);
                }
            }
        }
    }

    /// For Winograd F(2x2,3x3) the analytic importance factors are known:
    /// α = (1, 1, 1, 1)·√m-pattern and β from the Bᵀ rows.
    #[test]
    fn importance_winograd_known_values() {
        let t = winograd_f2x2_3x3();
        let q = t.importance();
        // α = [1, √2, √2, 1], β = [√2, √2, √2, √2]
        let alpha = [1.0_f32, 2.0_f32.sqrt(), 2.0_f32.sqrt(), 1.0];
        let beta = [2.0_f32.sqrt(); 4];
        for i in 0..4 {
            for j in 0..4 {
                let expect = alpha[i] * alpha[j] * beta[i] * beta[j];
                assert!((q.at(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    /// The lane-parallel transforms are the scalar ones, lane by lane,
    /// bit for bit — including patches with zeros, negative zeros and
    /// cancelling values, where a skipped `±0.0` term could show.
    #[test]
    fn lane_transforms_match_scalar_bit_for_bit() {
        const L: usize = 8;
        for t in [winograd_f2x2_3x3(), fta_t3_6x6_4x4()] {
            let (p, m, mu) = (t.patch(), t.tile(), t.mu());
            let special = [0.0_f32, -0.0, 1.0, -1.0, 0.5, -0.5];
            let mut g = Gaussian::new(77);
            // Lane 0 is all special values, the rest mix them in.
            let mut patches = vec![0.0_f32; L * p * p];
            g.fill(&mut patches, 1.0);
            for (i, v) in patches.iter_mut().enumerate() {
                if i < p * p || i % 5 == 0 {
                    *v = special[i % special.len()];
                }
            }
            let mut x = vec![0.0_f32; p * p * L];
            for lane in 0..L {
                for e in 0..p * p {
                    x[e * L + lane] = patches[lane * p * p + e];
                }
            }
            // Staged with a row stride wider than the lanes, as the
            // executor's [coeff][c_in][lane] layout is.
            let stride = 3 * L;
            let mut tmp = vec![0.0_f32; MAX_TILE * MAX_MU * L];
            let mut staged = vec![f32::NAN; mu * mu * stride];
            t.transform_input_lanes::<L>(&x, &mut tmp, &mut staged[L..], stride);
            let mut u = vec![0.0_f32; mu * mu * L];
            for lane in 0..L {
                let mut want = vec![0.0_f32; mu * mu];
                t.transform_input_slice(&patches[lane * p * p..][..p * p], &mut want);
                for (c, want) in want.iter().enumerate() {
                    let got = staged[c * stride + L + lane];
                    assert_eq!(got.to_bits(), want.to_bits(), "{} Y[{c}]", t.name());
                    u[c * L + lane] = got;
                }
            }
            let mut v = vec![0.0_f32; m * m * L];
            t.inverse_lanes::<L>(&u, &mut tmp, &mut v);
            for lane in 0..L {
                let tile: Vec<f32> = (0..mu * mu).map(|c| u[c * L + lane]).collect();
                let mut want = vec![0.0_f32; m * m];
                t.inverse_slice(&tile, &mut want);
                for (e, want) in want.iter().enumerate() {
                    let got = v[e * L + lane];
                    assert_eq!(got.to_bits(), want.to_bits(), "{} V[{e}]", t.name());
                }
            }
        }
    }

    #[test]
    fn shape_validation() {
        let t = winograd_f2x2_3x3();
        assert!(t.transform_kernel(&Mat::zeros(4, 4)).is_err());
        assert!(t.transform_input(&Mat::zeros(5, 5)).is_err());
        assert!(t.inverse(&Mat::zeros(3, 3)).is_err());
    }
}
