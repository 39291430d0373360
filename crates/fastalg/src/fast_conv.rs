use crate::sparse::{pack_co_streams, prune, CoStream, SparseKernel, Sparsity};
use crate::tile_exec::{forward_tiled, TileProblem};
use crate::transforms::{fta_t3_6x6_4x4, winograd_f2x2_3x3, TransformPair};
use nvc_core::ExecCtx;
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_tensor::{Tensor, TensorError};

/// A layer executed through a fast transform pipeline, optionally with
/// transform-domain pruning — the software model of what the SFTC
/// computes, for convolutions and deconvolutions alike (Eq. (1)).
///
/// Construction transforms every `(c_out, c_in)` kernel once
/// (`E = G W Gᵀ`); `forward_ctx` then per input tile computes `Y = Bᵀ X B`,
/// accumulates `Σ_ci E ⊙ Y` over input channels *in the transform domain*
/// (exactly like the SCU array, which reduces channels before the single
/// inverse transform), and applies `V = Aᵀ U A`. The [`TransformPair`] is
/// all that tells the two families apart.
#[derive(Debug, Clone)]
pub struct FastLayer {
    transform: TransformPair,
    /// Compressed transform-domain kernels, indexed `[co * c_in + ci]`.
    kernels: Vec<SparseKernel>,
    /// Packed per-output-channel reduction streams, built once at
    /// construction — what the tiled executor consumes.
    streams: Vec<CoStream>,
    /// One per output channel.
    bias: Vec<f32>,
    c_in: usize,
}

/// A [`FastLayer`] built by [`FastLayer::from_conv`]: a 3×3 stride-1
/// convolution on the Winograd `F(2×2, 3×3)` pipeline.
///
/// # Example
///
/// ```
/// use nvc_core::ExecCtx;
/// use nvc_fastalg::{FastConv2d, Sparsity};
/// use nvc_tensor::{ops::Conv2d, Shape, Tensor};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let conv = Conv2d::randn(8, 4, 3, 1, 1, 42)?;
/// let sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5)?)?;
/// let x = Tensor::zeros(Shape::new(1, 4, 16, 16));
/// let y = sparse.forward_ctx(&x, &ExecCtx::serial())?;
/// assert_eq!(y.shape().dims(), (1, 8, 16, 16));
/// # Ok(())
/// # }
/// ```
pub type FastConv2d = FastLayer;

/// A [`FastLayer`] built by [`FastLayer::from_deconv`]: a 4×4 stride-2
/// transposed convolution on the FTA `T3(6×6, 4×4)` pipeline. Each tile
/// reads a 5×5 patch of the once-padded input stepping by 3 and produces
/// a 6×6 output tile, so an `h × w` input yields `2h × 2w` output.
///
/// # Example
///
/// ```
/// use nvc_core::ExecCtx;
/// use nvc_fastalg::FastDeConv2d;
/// use nvc_tensor::{ops::DeConv2d, Shape, Tensor};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let deconv = DeConv2d::randn(4, 8, 4, 2, 1, 21)?;
/// let fast = FastDeConv2d::from_deconv(&deconv)?;
/// let x = Tensor::zeros(Shape::new(1, 8, 6, 9));
/// let y = fast.forward_ctx(&x, &ExecCtx::serial())?;
/// assert_eq!(y.shape().dims(), (1, 4, 12, 18));
/// # Ok(())
/// # }
/// ```
pub type FastDeConv2d = FastLayer;

impl FastLayer {
    /// Builds the dense fast convolution from a direct [`Conv2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] unless the convolution is
    /// 3×3, stride 1, padding 1 (the configuration `F(2×2, 3×3)` and the
    /// NVCA hardware support) — the only way construction fails.
    pub fn from_conv(conv: &Conv2d) -> Result<Self, TensorError> {
        Self::from_conv_pruned(conv, Sparsity::dense())
    }

    /// Builds the fast convolution and prunes every transform-domain
    /// kernel to sparsity `rho` per Eqs. (6)–(8).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastLayer::from_conv`].
    pub fn from_conv_pruned(conv: &Conv2d, rho: Sparsity) -> Result<Self, TensorError> {
        let ksp = (conv.kernel(), conv.stride(), conv.padding());
        let dims = (conv.c_out(), conv.c_in());
        let kernel = |co, ci| conv.kernel_slice(co, ci);
        let shape = ("convolutions", ksp);
        Self::build(winograd_f2x2_3x3(), shape, dims, conv.bias(), rho, kernel)
    }

    /// Builds the dense fast deconvolution from a direct [`DeConv2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] unless the deconvolution is
    /// 4×4, stride 2, padding 1 (the `T3(6×6, 4×4)` configuration) — the
    /// only way construction fails.
    pub fn from_deconv(deconv: &DeConv2d) -> Result<Self, TensorError> {
        Self::from_deconv_pruned(deconv, Sparsity::dense())
    }

    /// Builds the fast deconvolution with transform-domain pruning at
    /// sparsity `rho`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastLayer::from_deconv`].
    pub fn from_deconv_pruned(deconv: &DeConv2d, rho: Sparsity) -> Result<Self, TensorError> {
        let ksp = (deconv.kernel(), deconv.stride(), deconv.padding());
        let dims = (deconv.c_out(), deconv.c_in());
        let kernel = |co, ci| deconv.kernel_slice(ci, co);
        let shape = ("deconvolutions", ksp);
        Self::build(fta_t3_6x6_4x4(), shape, dims, deconv.bias(), rho, kernel)
    }

    /// Transforms, prunes and packs the `k × k` kernels `kernel(co, ci)`
    /// of a layer of shape `(k, s, p)`. A transform executes one shape:
    /// its kernel size, its output scale as the stride, its pre-padding
    /// as the padding.
    fn build<'a>(
        transform: TransformPair,
        (what, (k, s, p)): (&str, (usize, usize, usize)),
        (c_out, c_in): (usize, usize),
        bias: &[f32],
        rho: Sparsity,
        kernel: impl Fn(usize, usize) -> &'a [f32],
    ) -> Result<Self, TensorError> {
        let t = &transform;
        let want = (t.kernel(), t.out_scale(), t.in_offset());
        if (k, s, p) != want {
            return Err(TensorError::incompatible(format!(
                "{} requires k={} s={} p={} {what}, got k={k} s={s} p={p}",
                t.name(),
                want.0,
                want.1,
                want.2
            )));
        }
        let mut kernels = Vec::with_capacity(c_out * c_in);
        for co in 0..c_out {
            for ci in 0..c_in {
                let w = Mat::from_vec(k, k, kernel(co, ci).to_vec())?;
                let e = transform.transform_kernel(&w)?;
                let masked = if rho.ratio() > 0.0 {
                    prune(&transform, &e, rho)?.masked
                } else {
                    e
                };
                kernels.push(SparseKernel::from_dense(&masked)?);
            }
        }
        let streams = pack_co_streams(&kernels, c_in);
        Ok(FastLayer {
            transform,
            kernels,
            streams,
            bias: bias.to_vec(),
            c_in,
        })
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.bias.len()
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
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
        assert!(co < self.c_out() && ci < self.c_in);
        &self.kernels[co * self.c_in + ci]
    }

    /// Total non-zero transform-domain weights across all kernels.
    pub fn nnz_total(&self) -> usize {
        self.kernels.iter().map(|k| k.nnz()).sum()
    }

    /// Number of tiles needed to cover the output of an `h × w` input
    /// (the same size for a convolution, `2h × 2w` for a deconvolution).
    pub fn tile_count(&self, h: usize, w: usize) -> (usize, usize) {
        let (m, scale) = (self.transform.tile(), self.transform.out_scale());
        ((scale * h).div_ceil(m), (scale * w).div_ceil(m))
    }

    /// Hadamard multiplications to process an `h × w` input with the
    /// current (possibly pruned) kernels. Compare with
    /// `c_out · c_in · k² · h · w` for the direct algorithm.
    pub fn hadamard_mults(&self, h: usize, w: usize) -> u64 {
        let (ty, tx) = self.tile_count(h, w);
        (ty * tx) as u64 * self.nnz_total() as u64
    }

    /// Runs the layer through the tiled executor — a stripe of tile rows
    /// per worker, cache-sized staging bands, allocation-free hot loops,
    /// kernels consumed in compressed `(value, index)` form so sparsity ρ
    /// cuts the reduction work by ρ (see [`crate::tile_exec`]'s module
    /// docs in the source). Results are bit-identical for every worker
    /// count; `ExecCtx::serial()` runs on the caller's thread.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count
    /// differs from `c_in` or the input is empty, as the direct operators
    /// do.
    pub fn forward_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Result<Tensor, TensorError> {
        let (_, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "{} expects {} input channels, got {c}",
                self.transform.name(),
                self.c_in
            )));
        }
        if h == 0 || w == 0 {
            return Err(TensorError::incompatible("empty input"));
        }
        forward_tiled(
            &TileProblem {
                transform: &self.transform,
                streams: &self.streams,
                bias: &self.bias,
                c_in: self.c_in,
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
            ((ci + 1) as f32) * 0.1 * ((y * w + x) as f32 % 7.0 - 3.0)
        })
    }

    #[test]
    fn dense_fast_conv_matches_direct() {
        let conv = Conv2d::randn(5, 3, 3, 1, 1, 11).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = ramp(3, 10, 12);
        let direct = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let fastv = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let diff = direct.sub(&fastv).unwrap().max_abs();
        assert!(diff < 1e-4, "max diff {diff}");
    }

    #[test]
    fn odd_sizes_are_cropped_correctly() {
        let conv = Conv2d::randn(2, 2, 3, 1, 1, 12).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = ramp(2, 7, 9); // odd dimensions force partial tiles
        let direct = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let fastv = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(fastv.shape().dims(), (1, 2, 7, 9));
        assert!(direct.sub(&fastv).unwrap().max_abs() < 1e-4);
    }

    #[test]
    fn bias_is_preserved() {
        let mut conv = Conv2d::randn(2, 2, 3, 1, 1, 13).unwrap();
        conv.bias_mut()[0] = 1.25;
        conv.bias_mut()[1] = -0.5;
        let fast = FastConv2d::from_conv(&conv).unwrap();
        let x = Tensor::zeros(Shape::new(1, 2, 4, 4));
        let y = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert!((y.at(0, 0, 2, 2) - 1.25).abs() < 1e-6);
        assert!((y.at(0, 1, 1, 3) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn pruned_conv_is_close_for_smooth_kernels() {
        // Real codec kernels are smooth (low-pass-like); their transform
        // energy concentrates in a few positions, which is what makes 50 %
        // transform-domain pruning viable. Build Gaussian-blur-like
        // kernels rather than white-noise ones.
        let gauss = [1.0_f32, 2.0, 1.0];
        let conv = Conv2d::from_fn(4, 4, 3, 1, 1, |co, ci, kh, kw| {
            let scale = if co == ci { 1.0 } else { 0.1 };
            scale * gauss[kh] * gauss[kw] / 16.0
        })
        .unwrap();
        let dense = FastConv2d::from_conv(&conv).unwrap();
        let sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).unwrap()).unwrap();
        // The separable Gaussian kernel has structural zeros in the
        // Winograd domain (9 of 16 positions non-zero per kernel).
        assert_eq!(dense.nnz_total(), 4 * 4 * 9);
        assert!(sparse.nnz_total() <= 4 * 4 * 8);
        // Smooth, natural-image-like input: low-frequency sinusoid. A
        // high-frequency input would sit in the blur kernel's null space
        // and make relative error meaningless.
        let x = Tensor::from_fn(Shape::new(1, 4, 8, 8), |_, c, y, xx| {
            1.0 + 0.5 * ((y as f32 * 0.4 + xx as f32 * 0.3 + c as f32).sin())
        });
        let yd = dense.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let ys = sparse.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let rel = ys.sub(&yd).unwrap().max_abs() / yd.max_abs().max(1e-6);
        assert!(rel > 0.0, "pruning at 50% must change something");
        assert!(
            rel < 0.5,
            "pruning must keep smooth kernels close, rel={rel}"
        );
    }

    #[test]
    fn rejects_unsupported_configurations() {
        let k5 = Conv2d::randn(2, 2, 5, 1, 2, 0).unwrap();
        assert!(FastConv2d::from_conv(&k5).is_err());
        let s2 = Conv2d::randn(2, 2, 3, 2, 1, 0).unwrap();
        assert!(FastConv2d::from_conv(&s2).is_err());
        let conv = Conv2d::randn(2, 3, 3, 1, 1, 0).unwrap();
        let fast = FastConv2d::from_conv(&conv).unwrap();
        assert!(fast
            .forward_ctx(&Tensor::zeros(Shape::new(1, 2, 4, 4)), &ExecCtx::serial())
            .is_err());
    }

    #[test]
    fn mult_counts() {
        let conv = Conv2d::randn(2, 2, 3, 1, 1, 0).unwrap();
        let dense = FastConv2d::from_conv(&conv).unwrap();
        // 8x8 input: 4x4 tiles of 2x2 outputs; 4 kernels * 16 positions.
        assert_eq!(dense.tile_count(8, 8), (4, 4));
        assert_eq!(dense.hadamard_mults(8, 8), 16 * 4 * 16);
        let direct_mults = conv.macs(8, 8);
        assert!(dense.hadamard_mults(8, 8) < direct_mults);
    }
}
