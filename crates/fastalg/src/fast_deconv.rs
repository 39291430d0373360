use crate::sparse::{pack_co_streams, prune, CoStream, SparseKernel, Sparsity};
use crate::tile_exec::{forward_tiled, KernelFamily, TileProblem};
use crate::transforms::{fta_t3_6x6_4x4, TransformPair};
use nvc_core::ExecCtx;
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::DeConv2d;
use nvc_tensor::{Tensor, TensorError};

/// A 4×4 stride-2 transposed convolution executed through the FTA
/// `T3(6×6, 4×4)` transform pipeline, optionally pruned — the software
/// model of what the SFTC computes for DeConvs.
///
/// Tiling geometry (derived in [`crate::transforms`]): the input is
/// logically pre-padded with one zero row/column; each tile reads a 5×5
/// input patch stepping by 3, and produces a 6×6 output tile stepping by
/// 6. A transposed convolution with `k = 4, s = 2, p = 1` doubles the
/// spatial resolution, so an `h × w` input yields `2h × 2w` output.
///
/// # Example
///
/// ```
/// use nvc_fastalg::FastDeConv2d;
/// use nvc_tensor::{ops::DeConv2d, Shape, Tensor};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let deconv = DeConv2d::randn(4, 8, 4, 2, 1, 21)?;
/// let fast = FastDeConv2d::from_deconv(&deconv)?;
/// let y = fast.forward(&Tensor::zeros(Shape::new(1, 8, 6, 9)))?;
/// assert_eq!(y.shape().dims(), (1, 4, 12, 18));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FastDeConv2d {
    transform: TransformPair,
    /// Compressed transform-domain kernels, indexed `[co * c_in + ci]`.
    kernels: Vec<SparseKernel>,
    /// Packed per-output-channel reduction streams, built once at
    /// construction — what the tiled executor consumes.
    streams: Vec<CoStream>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    sparsity: Sparsity,
}

impl FastDeConv2d {
    /// Builds the dense fast deconvolution from a direct [`DeConv2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] unless the deconvolution is
    /// 4×4, stride 2, padding 1 (the `T3(6×6, 4×4)` configuration).
    pub fn from_deconv(deconv: &DeConv2d) -> Result<Self, TensorError> {
        Self::from_deconv_pruned(deconv, Sparsity::dense())
    }

    /// Builds the fast deconvolution with transform-domain pruning at
    /// sparsity `rho`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastDeConv2d::from_deconv`].
    pub fn from_deconv_pruned(deconv: &DeConv2d, rho: Sparsity) -> Result<Self, TensorError> {
        if deconv.kernel() != 4 || deconv.stride() != 2 || deconv.padding() != 1 {
            return Err(TensorError::incompatible(format!(
                "T3(6x6,4x4) requires k=4 s=2 p=1 deconvolutions, got k={} s={} p={}",
                deconv.kernel(),
                deconv.stride(),
                deconv.padding()
            )));
        }
        let transform = fta_t3_6x6_4x4();
        let mut kernels = Vec::with_capacity(deconv.c_out() * deconv.c_in());
        for co in 0..deconv.c_out() {
            for ci in 0..deconv.c_in() {
                let w = Mat::from_vec(4, 4, deconv.kernel_slice(ci, co).to_vec())?;
                let e = transform.transform_kernel(&w)?;
                let masked = if rho.ratio() > 0.0 {
                    prune(&transform, &e, rho)?.masked
                } else {
                    e
                };
                kernels.push(SparseKernel::from_dense(&masked)?);
            }
        }
        let streams = pack_co_streams(&kernels, deconv.c_in());
        Ok(FastDeConv2d {
            transform,
            kernels,
            streams,
            bias: deconv.bias().to_vec(),
            c_out: deconv.c_out(),
            c_in: deconv.c_in(),
            sparsity: rho,
        })
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Sparsity the kernels were pruned to.
    pub fn sparsity(&self) -> Sparsity {
        self.sparsity
    }

    /// The underlying transform pair.
    pub fn transform(&self) -> &TransformPair {
        &self.transform
    }

    /// The compressed kernel for `(co, ci)`.
    ///
    /// # Panics
    ///
    /// Panics if `co` or `ci` is out of range.
    pub fn kernel(&self, co: usize, ci: usize) -> &SparseKernel {
        assert!(co < self.c_out && ci < self.c_in);
        &self.kernels[co * self.c_in + ci]
    }

    /// Total non-zero transform-domain weights across all kernels.
    pub fn nnz_total(&self) -> usize {
        self.kernels.iter().map(|k| k.nnz()).sum()
    }

    /// Number of tiles needed to cover an `h × w` input (output is
    /// `2h × 2w`).
    pub fn tile_count(&self, h: usize, w: usize) -> (usize, usize) {
        let m = self.transform.tile();
        ((2 * h).div_ceil(m), (2 * w).div_ceil(m))
    }

    /// Hadamard multiplications to process an `h × w` input with the
    /// current (possibly pruned) kernels.
    pub fn hadamard_mults(&self, h: usize, w: usize) -> u64 {
        let (ty, tx) = self.tile_count(h, w);
        (ty * tx) as u64 * self.nnz_total() as u64
    }

    /// Runs the fast deconvolution single-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count
    /// differs from `c_in`.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_ctx(input, &ExecCtx::serial())
    }

    /// Runs the fast deconvolution through the tiled executor (a stripe
    /// of tile rows per worker, cache-sized staging bands,
    /// allocation-free hot loops, kernels consumed in compressed
    /// `(value, index)` form — see
    /// [`FastConv2d::forward_ctx`](crate::FastConv2d::forward_ctx)).
    /// Results are bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastDeConv2d::forward`].
    pub fn forward_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Result<Tensor, TensorError> {
        let (_, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "fast deconv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        forward_tiled(
            &TileProblem {
                family: KernelFamily::Fta,
                transform: &self.transform,
                streams: &self.streams,
                bias: &self.bias,
                c_in: self.c_in,
                out_h: 2 * h,
                out_w: 2 * w,
            },
            input,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::Shape;

    fn ramp(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, c, h, w), |_, ci, y, x| {
            ((ci + 1) as f32) * 0.07 * (((y * 3 + x * 5) % 11) as f32 - 5.0)
        })
    }

    #[test]
    fn dense_fast_deconv_matches_direct() {
        let deconv = DeConv2d::randn(3, 2, 4, 2, 1, 31).unwrap();
        let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
        let x = ramp(2, 9, 6);
        let direct = deconv.forward(&x).unwrap();
        let fastv = fast.forward(&x).unwrap();
        assert_eq!(direct.shape(), fastv.shape());
        let diff = direct.sub(&fastv).unwrap().max_abs();
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn sizes_not_multiple_of_three_are_cropped() {
        let deconv = DeConv2d::randn(2, 2, 4, 2, 1, 32).unwrap();
        let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
        for (h, w) in [(4, 5), (7, 8), (3, 10)] {
            let x = ramp(2, h, w);
            let direct = deconv.forward(&x).unwrap();
            let fastv = fast.forward(&x).unwrap();
            assert_eq!(fastv.shape().dims(), (1, 2, 2 * h, 2 * w));
            let diff = direct.sub(&fastv).unwrap().max_abs();
            assert!(diff < 1e-4, "{h}x{w}: max diff {diff}");
        }
    }

    #[test]
    fn bias_is_preserved() {
        let mut weight = vec![0.0; 2 * 16];
        weight.iter_mut().for_each(|v| *v = 0.0);
        let deconv = DeConv2d::new(weight, vec![0.75, -2.0], 2, 1, 4, 2, 1).unwrap();
        let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
        let y = fast
            .forward(&Tensor::zeros(Shape::new(1, 1, 3, 3)))
            .unwrap();
        assert!((y.at(0, 0, 3, 3) - 0.75).abs() < 1e-6);
        assert!((y.at(0, 1, 0, 0) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn pruned_deconv_keeps_half_the_weights() {
        // Smooth, bilinear-like upsampling kernels (outer([1,3,3,1]/4))
        // concentrate transform energy, like a real codec's synthesis
        // filters do.
        let tap = [1.0_f32, 3.0, 3.0, 1.0];
        let deconv = DeConv2d::from_fn(4, 4, 4, 2, 1, |ci, co, kh, kw| {
            let scale = if co == ci { 1.0 } else { 0.05 };
            scale * tap[kh] * tap[kw] / 16.0
        })
        .unwrap();
        let dense = FastDeConv2d::from_deconv(&deconv).unwrap();
        let sparse =
            FastDeConv2d::from_deconv_pruned(&deconv, Sparsity::new(0.5).unwrap()).unwrap();
        assert_eq!(dense.nnz_total(), 16 * 64);
        assert!(sparse.nnz_total() <= 16 * 32);
        // Smooth, natural-feature-like input (see fast_conv tests).
        let x = Tensor::from_fn(Shape::new(1, 4, 6, 6), |_, c, y, xx| {
            1.0 + 0.5 * ((y as f32 * 0.5 + xx as f32 * 0.35 + c as f32).sin())
        });
        let yd = dense.forward(&x).unwrap();
        let ys = sparse.forward(&x).unwrap();
        let rel = ys.sub(&yd).unwrap().max_abs() / yd.max_abs().max(1e-6);
        assert!(
            rel < 0.6,
            "pruning must keep smooth kernels close, rel={rel}"
        );
    }

    #[test]
    fn rejects_unsupported_configurations() {
        let k3 = DeConv2d::randn(2, 2, 3, 2, 1, 0).unwrap();
        assert!(FastDeConv2d::from_deconv(&k3).is_err());
        let s1 = DeConv2d::randn(2, 2, 4, 1, 1, 0).unwrap();
        assert!(FastDeConv2d::from_deconv(&s1).is_err());
        let deconv = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
        let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
        assert!(fast
            .forward(&Tensor::zeros(Shape::new(1, 2, 4, 4)))
            .is_err());
    }

    #[test]
    fn mult_counts_match_paper() {
        // One 6x6 output tile of a dense fast deconv costs 64 muls per
        // kernel — the number quoted in §IV-B of the paper.
        let deconv = DeConv2d::randn(1, 1, 4, 2, 1, 0).unwrap();
        let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
        assert_eq!(fast.transform().mults_per_tile(), 64);
        assert_eq!(fast.tile_count(3, 3), (1, 1));
        assert_eq!(fast.hadamard_mults(3, 3), 64);
    }
}
