//! CTVC-Net modules (paper Fig. 2a–e) with analytic weights.

use crate::config::CtvcConfig;
use crate::layers::{conv_sim_op, push_sim, LayerOp, NumericCtx, ResBlock, SwinAm};
use crate::weights;
use nvc_core::ExecCtx;
use nvc_sim::{SimLayer, SimOp};
use nvc_tensor::ops::{relu, Conv2d, DeformConv2d, MaxPool2d};
use nvc_tensor::{Tensor, TensorError};
use std::borrow::Cow;

/// Runs a stride-2 deconvolution with edge-replicated input padding so the
/// upsampled output has no zero-padding falloff at the borders (standard
/// edge handling; the operator itself is unchanged).
fn padded_deconv(op: &LayerOp, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
    let (_, _, h, w) = x.shape().dims();
    let y = op.forward_ctx(&x.replicate_pad(1), exec)?;
    y.crop_region(2, 2, 2 * h, 2 * w)
}

/// Feature extraction (Fig. 2a): `Conv(N,3,1) → MaxPool(2) → ResBlock`.
///
/// Channel plan (the analytic substitute for learned features):
/// `0..3` = +RGB passthrough, `3..6` = −RGB passthrough (so max-pooling
/// keeps both envelope extremes and reconstruction can form the unbiased
/// midpoint), `6..9` = blurred RGB (motion-search robustness), the rest
/// small seeded texture kernels.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    conv1: LayerOp,
    pool: MaxPool2d,
    res: ResBlock,
    ctx: NumericCtx,
}

impl FeatureExtractor {
    /// Builds the module from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn new(cfg: &CtvcConfig) -> Result<Self, TensorError> {
        let n = cfg.n;
        let mut g = nvc_tensor::init::Gaussian::new(cfg.seed ^ 0xFE);
        let conv1 = Conv2d::from_fn(n, 3, 3, 1, 1, |co, ci, kh, kw| {
            let centre = kh == 1 && kw == 1;
            if co < 3 {
                if centre && ci == co {
                    1.0
                } else {
                    0.0
                }
            } else if co < 6 {
                if centre && ci == co - 3 {
                    -1.0
                } else {
                    0.0
                }
            } else if co < 9 && co - 6 < 3 {
                // Low-gain blurred RGB: exercises compute without bloating
                // the intra-coded feature entropy.
                if ci == co - 6 {
                    0.25 * weights::GAUSS3[kh] * weights::GAUSS3[kw]
                } else {
                    0.0
                }
            } else {
                g.sample(0.0, 0.03)
            }
        })?;
        Ok(FeatureExtractor {
            conv1: LayerOp::build(LayerOp::Conv(conv1), cfg.precision, cfg.sparsity)?,
            pool: MaxPool2d::new(2)?,
            res: ResBlock::near_identity(n, cfg.precision, cfg.sparsity, cfg.seed ^ 0xFE01)?,
            ctx: NumericCtx::new(cfg.precision),
        })
    }

    /// Maps a `3 × H × W` frame tensor to `N × H/2 × W/2` features on
    /// `exec`'s worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (H, W must be even).
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let a = self.ctx.actq(self.conv1.forward_ctx(x, exec)?);
        let p = self.pool.forward(&a)?;
        let out = self.res.forward_ctx(&p, exec)?;
        Ok(self.ctx.actq(out))
    }

    /// Describes the module on an `h × w` frame as layers
    /// `feature_extraction.*`.
    pub(crate) fn describe(&self, out: &mut Vec<SimLayer>, (h, w): (usize, usize)) {
        const MODULE: &str = "feature_extraction";
        let conv1 = self.conv1.sim_op(h, w);
        let (c, h, w) = conv1.output_dims();
        push_sim(out, MODULE, "conv1", conv1);
        let k = self.pool.window();
        let (h_out, w_out) = (h / k, w / k);
        push_sim(out, MODULE, "maxpool", SimOp::Pool { c, h_out, w_out, k });
        self.res.describe(out, MODULE, "res", (h_out, w_out));
    }
}

/// Frame reconstruction (Fig. 2b): `ResBlock → DeConv(3,4,2)`.
#[derive(Debug, Clone)]
pub struct FrameReconstructor {
    res: ResBlock,
    deconv: LayerOp,
    ctx: NumericCtx,
}

impl FrameReconstructor {
    /// Builds the module.
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn new(cfg: &CtvcConfig) -> Result<Self, TensorError> {
        Ok(FrameReconstructor {
            res: ResBlock::near_identity(cfg.n, cfg.precision, cfg.sparsity, cfg.seed ^ 0xF4)?,
            deconv: LayerOp::build(
                LayerOp::Deconv(weights::rgb_synthesis_deconv(cfg.n)?),
                cfg.precision,
                cfg.sparsity,
            )?,
            ctx: NumericCtx::new(cfg.precision),
        })
    }

    /// Maps `N × H/2 × W/2` features back to a `3 × H × W` frame tensor
    /// on `exec`'s worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(&self, f: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let a = self.ctx.actq(self.res.forward_ctx(f, exec)?);
        padded_deconv(&self.deconv, &a, exec)
    }

    /// Describes the module on `h × w` features as layers
    /// `frame_reconstruction.*`.
    pub(crate) fn describe(&self, out: &mut Vec<SimLayer>, (h, w): (usize, usize)) {
        const MODULE: &str = "frame_reconstruction";
        self.res.describe(out, MODULE, "res", (h, w));
        push_sim(out, MODULE, "up", self.deconv.sim_op(h, w));
    }
}

/// Deformable motion compensation (Fig. 2d): offset conv → `DfConv(N,3,1,
/// G=2)` → two refinement convs with a skip from the warped features.
#[derive(Debug, Clone)]
pub struct DeformableCompensation {
    offset_conv: Conv2d,
    dfconv: DeformConv2d,
    refine1: LayerOp,
    refine2: LayerOp,
    ctx: NumericCtx,
}

/// Scale by which the motion field is stored in the `Ô_t` tensor
/// (channel 0 = dy / SCALE, channel 1 = dx / SCALE).
pub const MOTION_SCALE: f32 = 4.0;

impl DeformableCompensation {
    /// Builds the module: the offset conv broadcasts the reconstructed
    /// motion channels to all `2·G·k²` deformable taps, and the DfConv
    /// kernels are centre-tap identities, so the module computes a true
    /// bilinear warp plus a learned-style refinement.
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn new(cfg: &CtvcConfig) -> Result<Self, TensorError> {
        let n = cfg.n;
        let groups = 2;
        let offset_channels = 2 * groups * 9;
        let offset_conv = Conv2d::from_fn(offset_channels, n, 3, 1, 1, |co, ci, kh, kw| {
            let centre = kh == 1 && kw == 1;
            // Even offset channels = dy (from Ô_t ch 0), odd = dx (ch 1).
            if centre && ci == co % 2 {
                MOTION_SCALE
            } else {
                0.0
            }
        })?;
        let mut df_weight = vec![0.0_f32; n * n * 9];
        for c in 0..n {
            df_weight[(c * n + c) * 9 + 4] = 1.0; // centre tap identity
        }
        let dfconv = DeformConv2d::new(df_weight, vec![0.0; n], n, n, 3, 1, groups)?;
        Ok(DeformableCompensation {
            offset_conv,
            dfconv,
            refine1: LayerOp::build(
                LayerOp::Conv(weights::small_random_conv(n, n, 0.003, cfg.seed ^ 0xDC)?),
                cfg.precision,
                cfg.sparsity,
            )?,
            refine2: LayerOp::build(
                LayerOp::Conv(weights::small_random_conv(n, n, 0.003, cfg.seed ^ 0xDC02)?),
                cfg.precision,
                cfg.sparsity,
            )?,
            ctx: NumericCtx::new(cfg.precision),
        })
    }

    /// Warps the reference features by the reconstructed motion `ô_t` and
    /// refines, on `exec`'s worker pool: returns the predicted features
    /// `F̄_t`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(
        &self,
        reference: &Tensor,
        o_hat: &Tensor,
        exec: &ExecCtx,
    ) -> Result<Tensor, TensorError> {
        let offsets = self.offset_conv.forward_ctx(o_hat, exec)?;
        let warped = self
            .ctx
            .actq(self.dfconv.forward_ctx(reference, &offsets, exec)?);
        let r = self
            .ctx
            .actq(self.refine1.forward_ctx(&relu(&warped), exec)?);
        let r = self.refine2.forward_ctx(&relu(&r), exec)?;
        warped.add(&r)
    }

    /// Describes the module on `h × w` features as layers
    /// `deformable_compensation.*`.
    pub(crate) fn describe(&self, out: &mut Vec<SimLayer>, (h, w): (usize, usize)) {
        const MODULE: &str = "deformable_compensation";
        push_sim(out, MODULE, "offset", conv_sim_op(&self.offset_conv, h, w));
        let df = &self.dfconv;
        let dfconv = SimOp::DfConv3x3 {
            c_in: df.c_in(),
            c_out: df.c_out(),
            h_out: h,
            w_out: w,
            groups: df.groups(),
        };
        push_sim(out, MODULE, "dfconv", dfconv);
        push_sim(out, MODULE, "refine1", self.refine1.sim_op(h, w));
        push_sim(out, MODULE, "refine2", self.refine2.sim_op(h, w));
    }
}

/// Analysis transform of the compression autoencoders (Fig. 2e, left):
/// three stride-2 stages with ResBlocks and two Swin-AMs, then a channel
/// selection conv to the `N`-channel latent.
#[derive(Debug, Clone)]
pub struct Analysis {
    down1: Conv2d,
    res: Vec<ResBlock>,
    down2: Conv2d,
    swin1: SwinAm,
    down3: Conv2d,
    swin2: SwinAm,
    select: Conv2d,
    ctx: NumericCtx,
    use_attention: bool,
}

impl Analysis {
    fn new(cfg: &CtvcConfig, seed: u64) -> Result<Self, TensorError> {
        let n = cfg.n;
        let heads = 2;
        Ok(Analysis {
            down1: weights::pyramid_down_conv(2 * n, n, n, seed ^ 0xA1)?,
            res: (0..3)
                .map(|i| {
                    ResBlock::near_identity(
                        2 * n,
                        cfg.precision,
                        cfg.sparsity,
                        seed ^ (0xA2 + i as u64),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?,
            down2: weights::pyramid_down_conv(2 * n, 2 * n, n, seed ^ 0xA3)?,
            swin1: SwinAm::new(2 * n, 3, 0, heads, cfg.precision, cfg.sparsity, seed ^ 0xA4)?,
            down3: weights::pyramid_down_conv(2 * n, 2 * n, n, seed ^ 0xA5)?,
            swin2: SwinAm::new(2 * n, 3, 2, heads, cfg.precision, cfg.sparsity, seed ^ 0xA6)?,
            select: weights::dirac_conv(n, 2 * n, |co| vec![(co, 1.0)])?,
            ctx: NumericCtx::new(cfg.precision),
            use_attention: cfg.attention,
        })
    }

    /// Maps `N × h × w` input to the `N × h/8 × w/8` latent on `exec`'s
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (h, w must be divisible by 8).
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let mut t = self.ctx.actq(self.down1.forward_ctx(x, exec)?);
        for rb in &self.res {
            t = self.ctx.actq(rb.forward_ctx(&t, exec)?);
        }
        t = self.ctx.actq(self.down2.forward_ctx(&t, exec)?);
        if self.use_attention {
            t = self.ctx.actq(self.swin1.forward_ctx(&t, exec)?);
        }
        t = self.ctx.actq(self.down3.forward_ctx(&t, exec)?);
        if self.use_attention {
            t = self.ctx.actq(self.swin2.forward_ctx(&t, exec)?);
        }
        self.select.forward_ctx(&t, exec)
    }
}

/// Synthesis transform (Fig. 2e, right): three `ResBlock → DeConv(N,4,2)`
/// stages.
#[derive(Debug, Clone)]
pub struct Synthesis {
    stages: Vec<(ResBlock, LayerOp)>,
    ctx: NumericCtx,
}

impl Synthesis {
    fn new(cfg: &CtvcConfig, seed: u64) -> Result<Self, TensorError> {
        let n = cfg.n;
        let stages = (0..3)
            .map(|i| {
                let rb = ResBlock::near_identity(
                    n,
                    cfg.precision,
                    cfg.sparsity,
                    seed ^ (0x51 + i as u64),
                )?;
                let up = LayerOp::build(
                    LayerOp::Deconv(weights::bilinear_up_deconv(n, n, n, 1.0)?),
                    cfg.precision,
                    cfg.sparsity,
                )?;
                Ok((rb, up))
            })
            .collect::<Result<Vec<_>, TensorError>>()?;
        Ok(Synthesis {
            stages,
            ctx: NumericCtx::new(cfg.precision),
        })
    }

    /// Maps the `N × h/8 × w/8` latent back to `N × h × w` on `exec`'s
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(&self, z: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let mut t = Cow::Borrowed(z);
        for (rb, up) in &self.stages {
            let a = self.ctx.actq(rb.forward_ctx(&t, exec)?);
            t = Cow::Owned(self.ctx.actq(padded_deconv(up, &a, exec)?));
        }
        Ok(t.into_owned())
    }

    /// Describes the transform on an `h × w` latent as layers
    /// `module.stage{i}.*`.
    fn describe(&self, out: &mut Vec<SimLayer>, module: &'static str, hw: (usize, usize)) {
        let (mut h, mut w) = hw;
        for (i, (rb, up)) in self.stages.iter().enumerate() {
            rb.describe(out, module, &format!("stage{i}.res"), (h, w));
            let op = up.sim_op(h, w);
            (_, h, w) = op.output_dims();
            push_sim(out, module, &format!("stage{i}.up"), op);
        }
    }
}

/// One compression autoencoder (motion or residual): analysis + synthesis
/// plus access to the final Swin-AM mask for adaptive quantization.
#[derive(Debug, Clone)]
pub struct CompressionAutoencoder {
    /// The analysis (encoder-side) transform.
    pub analysis: Analysis,
    /// The synthesis (decoder-side) transform.
    pub synthesis: Synthesis,
    /// Swin-AM used to derive the quantization gain mask from the latent.
    mask_am: SwinAm,
}

impl CompressionAutoencoder {
    /// Builds both transforms for a module (seed-disambiguated).
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn new(cfg: &CtvcConfig, seed: u64) -> Result<Self, TensorError> {
        Ok(CompressionAutoencoder {
            analysis: Analysis::new(cfg, seed)?,
            synthesis: Synthesis::new(cfg, seed ^ 0x5EED)?,
            mask_am: SwinAm::new(
                2 * cfg.n,
                3,
                2,
                2,
                cfg.precision,
                cfg.sparsity,
                seed ^ 0x3A5C,
            )?,
        })
    }

    /// The quantization gain mask in `(0, 1)` for a latent, on `exec`'s
    /// worker pool: the Swin-AM mask evaluated on the ±latent pair
    /// (channels `j` and `j + N` carry `z` and `−z`), truncated to the
    /// first `N` channels.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn latent_mask_ctx(&self, z: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let neg = z.scale(-1.0);
        let paired = Tensor::concat_channels(&[z, &neg])?;
        let mask = self.mask_am.mask_ctx(&paired, exec)?;
        mask.slice_channels(0, z.shape().c())
    }

    /// Describes the decoder side on an `h × w` latent as layers
    /// `module.*`: the latent mask when `attention` is on, then synthesis.
    pub(crate) fn describe_decoder(
        &self,
        out: &mut Vec<SimLayer>,
        module: &'static str,
        attention: bool,
        hw: (usize, usize),
    ) {
        if attention {
            self.mask_am.describe_mask(out, module, hw);
        }
        self.synthesis.describe(out, module, hw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CtvcConfig;
    use nvc_tensor::Shape;

    fn cfg() -> CtvcConfig {
        CtvcConfig::ctvc_fp(8)
    }

    fn frame_tensor(h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, 3, h, w), |_, c, y, x| {
            0.5 + 0.3 * ((y as f32 * 0.3 + x as f32 * 0.2 + c as f32).sin())
        })
    }

    /// The last described layer's output is the tensor the module returns.
    fn assert_describes(layers: &[SimLayer], out: &Tensor) {
        let (c, h, w) = layers.last().expect("a described layer").op.output_dims();
        assert_eq!(out.shape().dims(), (1, c, h, w));
    }

    fn features(h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, 8, h, w), |_, c, y, x| {
            0.2 * ((c + 2 * y + 3 * x) as f32 * 0.1).sin()
        })
    }

    #[test]
    fn feature_extractor_describes_its_output() {
        let fe = FeatureExtractor::new(&CtvcConfig::ctvc_sparse(8)).unwrap();
        let mut layers = Vec::new();
        fe.describe(&mut layers, (32, 48));
        assert_describes(
            &layers,
            &fe.forward_ctx(&frame_tensor(32, 48), &ExecCtx::serial())
                .unwrap(),
        );
    }

    #[test]
    fn frame_reconstructor_describes_its_output() {
        let fr = FrameReconstructor::new(&CtvcConfig::ctvc_sparse(8)).unwrap();
        let mut layers = Vec::new();
        fr.describe(&mut layers, (16, 24));
        assert_describes(
            &layers,
            &fr.forward_ctx(&features(16, 24), &ExecCtx::serial())
                .unwrap(),
        );
    }

    #[test]
    fn compensation_describes_its_output() {
        let dc = DeformableCompensation::new(&CtvcConfig::ctvc_sparse(8)).unwrap();
        let mut layers = Vec::new();
        dc.describe(&mut layers, (16, 24));
        let out = dc
            .forward_ctx(&features(16, 24), &features(16, 24), &ExecCtx::serial())
            .unwrap();
        assert_describes(&layers, &out);
    }

    #[test]
    fn synthesis_describes_its_output() {
        let ae = CompressionAutoencoder::new(&CtvcConfig::ctvc_sparse(8), 79).unwrap();
        let mut layers = Vec::new();
        ae.synthesis.describe(&mut layers, "m", (2, 3));
        assert_describes(
            &layers,
            &ae.synthesis
                .forward_ctx(&features(2, 3), &ExecCtx::serial())
                .unwrap(),
        );
    }

    #[test]
    fn feature_roundtrip_is_faithful() {
        let cfg = cfg();
        let fe = FeatureExtractor::new(&cfg).unwrap();
        let fr = FrameReconstructor::new(&cfg).unwrap();
        let x = frame_tensor(32, 48);
        let f = fe.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(f.shape().dims(), (1, 8, 16, 24));
        let rec = fr.forward_ctx(&f, &ExecCtx::serial()).unwrap();
        assert_eq!(rec.shape().dims(), (1, 3, 32, 48));
        // Down-up roundtrip of smooth content stays close (this bounds
        // the codec's quality ceiling).
        let mse = rec.mse(&x).unwrap();
        let psnr = 10.0 * (1.0 / mse).log10();
        assert!(psnr > 28.0, "feature roundtrip PSNR too low: {psnr:.2} dB");
    }

    #[test]
    fn compensation_performs_exact_integer_warp() {
        let cfg = cfg();
        let dc = DeformableCompensation::new(&cfg).unwrap();
        let reference = Tensor::from_fn(Shape::new(1, 8, 12, 12), |_, c, y, x| {
            (c * 100 + y * 12 + x) as f32 * 0.01
        });
        // Motion (dy, dx) = (1, 2) everywhere, stored scaled by 1/4.
        let mut o_hat = Tensor::zeros(Shape::new(1, 8, 12, 12));
        for y in 0..12 {
            for x in 0..12 {
                *o_hat.at_mut(0, 0, y, x) = 1.0 / MOTION_SCALE;
                *o_hat.at_mut(0, 1, y, x) = 2.0 / MOTION_SCALE;
            }
        }
        let out = dc
            .forward_ctx(&reference, &o_hat, &ExecCtx::serial())
            .unwrap();
        // Interior samples: out(y,x) ≈ ref(y+1, x+2) up to the small
        // refinement perturbation.
        for c in 0..8 {
            for y in 2..9 {
                for x in 2..8 {
                    let want = reference.at(0, c, y + 1, x + 2);
                    let got = out.at(0, c, y, x);
                    assert!(
                        (want - got).abs() < 0.05 * want.abs().max(1.0),
                        "({c},{y},{x}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn autoencoder_roundtrip_preserves_smooth_signals() {
        let cfg = cfg();
        let ae = CompressionAutoencoder::new(&cfg, 77).unwrap();
        // Very smooth feature-like input (the 8× pyramid can only keep
        // wavelengths longer than ~16 px).
        let x = Tensor::from_fn(Shape::new(1, 8, 16, 24), |_, c, y, xx| {
            0.4 * ((y as f32 * 0.08 + xx as f32 * 0.06 + c as f32 * 0.5).sin())
        });
        let z = ae.analysis.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(z.shape().dims(), (1, 8, 2, 3));
        let rec = ae.synthesis.forward_ctx(&z, &ExecCtx::serial()).unwrap();
        assert_eq!(rec.shape().dims(), (1, 8, 16, 24));
        // The 8× pyramid keeps the low-frequency trend: correlation with
        // the input should be strongly positive even if detail is lost.
        let mut dot = 0.0;
        let mut nx = 0.0;
        let mut nr = 0.0;
        for (a, b) in x.as_slice().iter().zip(rec.as_slice()) {
            dot += (a * b) as f64;
            nx += (a * a) as f64;
            nr += (b * b) as f64;
        }
        let corr = dot / (nx.sqrt() * nr.sqrt()).max(1e-12);
        assert!(corr > 0.6, "roundtrip correlation too low: {corr:.3}");
    }

    #[test]
    fn latent_mask_shape_and_range() {
        let cfg = cfg();
        let ae = CompressionAutoencoder::new(&cfg, 78).unwrap();
        let z = Tensor::from_fn(Shape::new(1, 8, 3, 6), |_, c, y, x| {
            0.5 * ((c + y + x) as f32 * 0.3).sin()
        });
        let mask = ae.latent_mask_ctx(&z, &ExecCtx::serial()).unwrap();
        assert_eq!(mask.shape(), z.shape());
        for v in mask.as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
