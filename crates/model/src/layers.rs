//! Composite layers: numeric context, fast/direct operator wrappers,
//! residual blocks and the Swin attention machinery.

use crate::config::Precision;
use nvc_core::ExecCtx;
use nvc_fastalg::{FastLayer, Sparsity};
use nvc_quant::{fake_quantize_dynamic_inplace, QFormat};
use nvc_sim::{SimLayer, SimOp};
use nvc_tensor::mat::{softmax_rows_inplace, Mat};
use nvc_tensor::ops::{relu, Conv2d, DeConv2d, Linear};
use nvc_tensor::{Shape, Tensor, TensorError};

/// Numeric execution context: applies the configured activation
/// quantization after every operator (FXP12 in the paper's deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericCtx {
    act_bits: Option<u32>,
}

impl NumericCtx {
    /// Context for a precision setting.
    pub fn new(precision: Precision) -> Self {
        NumericCtx {
            act_bits: match precision {
                Precision::Fp32 => None,
                Precision::Fxp => Some(12),
            },
        }
    }

    /// Quantizes activations, in place, if the context is fixed-point.
    pub fn actq(&self, mut t: Tensor) -> Tensor {
        if let Some(bits) = self.act_bits {
            // An invalid width leaves `t` as it was; 12 is valid.
            let _ = fake_quantize_dynamic_inplace(&mut t, bits);
        }
        t
    }
}

/// Quantizes an operator's weights in place for FXP deployment.
fn quantize_weights(weights: &mut [f32], precision: Precision) {
    if precision == Precision::Fxp {
        let fmt = QFormat::weights16();
        for w in weights {
            *w = fmt.roundtrip(*w);
        }
    }
}

/// A convolution or deconvolution that executes either directly or
/// through the (optionally pruned) fast-transform pipeline — the software
/// switch mirroring the SFTC's reconfigurability: one operator, both
/// layer kinds, both algorithms.
#[derive(Debug, Clone)]
pub enum LayerOp {
    /// Direct convolution.
    Conv(Conv2d),
    /// Direct transposed convolution.
    Deconv(DeConv2d),
    /// Transform-domain execution, Winograd or FTA, dense or pruned.
    Fast(Box<FastLayer>),
}

impl LayerOp {
    /// Builds the operator from a direct one: FXP weight quantization
    /// first, then, with sparsity requested, the pruned fast path if the
    /// layer has the shape its transform executes — the fast
    /// constructors' rule, and their only way to fail.
    ///
    /// # Errors
    ///
    /// Returns an error if `sparsity` is outside `[0, 1)`.
    pub fn build(
        mut direct: LayerOp,
        precision: Precision,
        sparsity: Option<f64>,
    ) -> Result<Self, TensorError> {
        let rho = sparsity.map(Sparsity::new).transpose()?;
        let fast = match &mut direct {
            LayerOp::Conv(conv) => {
                quantize_weights(conv.weight_mut(), precision);
                rho.and_then(|rho| FastLayer::from_conv_pruned(conv, rho).ok())
            }
            LayerOp::Deconv(deconv) => {
                quantize_weights(deconv.weight_mut(), precision);
                rho.and_then(|rho| FastLayer::from_deconv_pruned(deconv, rho).ok())
            }
            LayerOp::Fast(_) => None,
        };
        Ok(fast.map_or(direct, |f| LayerOp::Fast(Box::new(f))))
    }

    /// Runs the operator on `exec`'s worker pool (bit-identical for
    /// every worker count).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        match self {
            LayerOp::Conv(c) => c.forward_ctx(x, exec),
            LayerOp::Deconv(d) => d.forward_ctx(x, exec),
            LayerOp::Fast(f) => f.forward_ctx(x, exec),
        }
    }

    /// The simulator operator this layer is on an `h × w` input, read
    /// from whichever arm executes it.
    pub(crate) fn sim_op(&self, h: usize, w: usize) -> SimOp {
        match self {
            LayerOp::Conv(c) => conv_sim_op(c, h, w),
            LayerOp::Deconv(d) => {
                let shape = (d.c_in(), d.c_out(), d.kernel(), d.stride());
                sim_op(true, shape, h, w)
            }
            // A transform executes one shape: its kernel, with its output
            // scale as the stride; an upscaling one is a deconvolution.
            LayerOp::Fast(f) => {
                let t = f.transform();
                let shape = (f.c_in(), f.c_out(), t.kernel(), t.out_scale());
                sim_op(t.out_scale() > 1, shape, h, w)
            }
        }
    }
}

/// The simulator operator of a direct convolution on an `h × w` input.
pub(crate) fn conv_sim_op(c: &Conv2d, h: usize, w: usize) -> SimOp {
    sim_op(false, (c.c_in(), c.c_out(), c.kernel(), c.stride()), h, w)
}

/// The simulator operator of a (transposed, if `transposed`) convolution
/// of shape `(c_in, c_out, kernel, stride)` on an `h × w` input.
///
/// # Panics
///
/// Panics on a shape the simulator has no operator for; no decoder layer
/// has one.
fn sim_op(transposed: bool, shape: (usize, usize, usize, usize), h: usize, w: usize) -> SimOp {
    match (transposed, shape) {
        (false, (c_in, c_out, 3, stride)) => SimOp::Conv3x3 {
            c_in,
            c_out,
            h_out: h / stride,
            w_out: w / stride,
            stride,
        },
        (false, (c_in, c_out, 1, 1)) => SimOp::Conv1x1 {
            c_in,
            c_out,
            h_out: h,
            w_out: w,
        },
        (true, (c_in, c_out, 4, 2)) => SimOp::Deconv4x4 {
            c_in,
            c_out,
            h_out: 2 * h,
            w_out: 2 * w,
        },
        (_, (_, _, k, s)) => panic!("no simulator operator for a {k}x{k} stride-{s} layer"),
    }
}

/// Appends layer `module.name` to a simulator layer list.
pub(crate) fn push_sim(out: &mut Vec<SimLayer>, module: &'static str, name: &str, op: SimOp) {
    out.push(SimLayer::new(format!("{module}.{name}"), module, op));
}

/// Residual block (paper Fig. 2f): `x + Conv(ReLU(Conv(ReLU(x))))`.
#[derive(Debug, Clone)]
pub struct ResBlock {
    conv1: LayerOp,
    conv2: LayerOp,
    ctx: NumericCtx,
}

impl ResBlock {
    /// Builds a residual block from two convolutions.
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn new(
        conv1: Conv2d,
        conv2: Conv2d,
        precision: Precision,
        sparsity: Option<f64>,
    ) -> Result<Self, TensorError> {
        Ok(ResBlock {
            conv1: LayerOp::build(LayerOp::Conv(conv1), precision, sparsity)?,
            conv2: LayerOp::build(LayerOp::Conv(conv2), precision, sparsity)?,
            ctx: NumericCtx::new(precision),
        })
    }

    /// Near-identity block with seeded perturbations, the analytic stand-in
    /// for a trained refinement block.
    ///
    /// # Errors
    ///
    /// Propagates operator construction errors.
    pub fn near_identity(
        c: usize,
        precision: Precision,
        sparsity: Option<f64>,
        seed: u64,
    ) -> Result<Self, TensorError> {
        // Perturbation scale trades "the block does something" against
        // the codec's reconstruction ceiling; these blocks sit in the
        // critical signal path of every frame.
        let conv1 = crate::weights::near_identity_conv(c, 0.001, seed)?;
        let conv2 = crate::weights::small_random_conv(c, c, 0.001, seed ^ 0x5a5a)?;
        ResBlock::new(conv1, conv2, precision, sparsity)
    }

    /// Runs the block on `exec`'s worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let a = self.ctx.actq(self.conv1.forward_ctx(&relu(x), exec)?);
        let b = self.ctx.actq(self.conv2.forward_ctx(&relu(&a), exec)?);
        x.add(&b)
    }

    /// Describes the block on an `h × w` input as layers
    /// `module.prefix.conv1` and `module.prefix.conv2`.
    pub(crate) fn describe(
        &self,
        out: &mut Vec<SimLayer>,
        module: &'static str,
        prefix: &str,
        (h, w): (usize, usize),
    ) {
        for (name, conv) in [("conv1", &self.conv1), ("conv2", &self.conv2)] {
            push_sim(out, module, &format!("{prefix}.{name}"), conv.sim_op(h, w));
        }
    }
}

/// Shift-window multi-head self-attention (SwinAtten of paper Fig. 3b).
///
/// The `V` and output projections are identity so channel pairing survives
/// the attention (see crate docs); `Q`/`K` are seeded random projections
/// that shape the window attention pattern.
#[derive(Debug, Clone)]
pub struct SwinAttention {
    c: usize,
    window: usize,
    shift: usize,
    heads: usize,
    wq: Linear,
    wk: Linear,
}

impl SwinAttention {
    /// Creates the attention with `c` channels, window size `window`,
    /// cyclic shift `shift` and `heads` heads.
    ///
    /// # Errors
    ///
    /// Returns an error unless `heads` divides `c` and `shift < window`.
    pub fn new(
        c: usize,
        window: usize,
        shift: usize,
        heads: usize,
        seed: u64,
    ) -> Result<Self, TensorError> {
        if heads == 0 || !c.is_multiple_of(heads) {
            return Err(TensorError::invalid(format!(
                "heads {heads} must divide channels {c}"
            )));
        }
        if window == 0 || shift >= window {
            return Err(TensorError::invalid(format!(
                "shift {shift} must be < window {window}"
            )));
        }
        let scale = (1.0 / (c as f32)).sqrt();
        // Rows r and r + c/2 of the Q/K projections are identical, so the
        // per-head attention scores agree across heads and the ±channel
        // pairing of the Swin-AM input survives attention exactly.
        let head_sym = |seed: u64| -> Result<Mat, TensorError> {
            let half = c / 2;
            let base = nvc_tensor::init::randn_vec(half.max(1) * c, scale, seed);
            let mut data = vec![0.0_f32; c * c];
            for r in 0..c {
                let src = r % half.max(1);
                data[r * c..(r + 1) * c].copy_from_slice(&base[src * c..(src + 1) * c]);
            }
            Mat::from_vec(c, c, data)
        };
        let wq = Linear::new(head_sym(seed)?, vec![0.0; c])?;
        let wk = Linear::new(head_sym(seed ^ 0x1234)?, vec![0.0; c])?;
        Ok(SwinAttention {
            c,
            window,
            shift,
            heads,
            wq,
            wk,
        })
    }

    /// Window size `R`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Cyclic shift `Shf`.
    pub fn shift(&self) -> usize {
        self.shift
    }

    /// Head count `P`.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Runs windowed attention, fanning windows across `exec`'s worker
    /// pool (VCT-style block parallelism: every window is independent);
    /// output shape equals input shape.
    /// Per-window results land in disjoint chunks of a staging buffer,
    /// so the output is bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns an error if the channel count differs from construction.
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = x.shape().dims();
        if c != self.c {
            return Err(TensorError::incompatible(format!(
                "attention expects {} channels, got {c}",
                self.c
            )));
        }
        let r = self.window;
        // Pad to window multiples.
        let ph = h.div_ceil(r) * r;
        let pw = w.div_ceil(r) * r;
        let padded = x.pad_to(ph, pw)?;
        // Cyclic shift.
        let shifted = roll(&padded, self.shift as isize, self.shift as isize);
        let mut out = Tensor::zeros(shifted.shape());

        let d = self.c / self.heads;
        let inv_sqrt_d = 1.0 / (d as f32).sqrt();
        let t = r * r;
        let wins_x = pw / r;
        let windows = (ph / r) * wins_x;

        // Staging layout: [window][token][channel].
        let mut win_out = exec.scratch().take(windows * t * self.c);
        for nn in 0..n {
            if nn > 0 {
                win_out.fill(0.0);
            }
            // Work-size gated: tiny latent planes (a handful of windows)
            // run serially rather than paying worker spawn overhead.
            let attn_work = self.macs(h, w);
            let window = |widx: usize, result: &mut [f32]| {
                let wy = (widx / wins_x) * r;
                let wx = (widx % wins_x) * r;
                // Gather window tokens: r² × c.
                let mut tokens = Mat::zeros(t, self.c);
                for ty in 0..r {
                    for tx in 0..r {
                        let row = &mut tokens.as_mut_slice()[(ty * r + tx) * self.c..][..self.c];
                        for (ch, v) in row.iter_mut().enumerate() {
                            *v = shifted.at(nn, ch, wy + ty, wx + tx);
                        }
                    }
                }
                let q = self.wq.forward(&tokens).expect("channel count validated");
                let k = self.wk.forward(&tokens).expect("channel count validated");
                let (q, k, tok) = (q.as_slice(), k.as_slice(), tokens.as_slice());
                // Per-head attention; V = identity(tokens).
                let mut scores = vec![0.0_f32; t * t];
                for head in 0..self.heads {
                    let c0 = head * d;
                    // scores = Qh Khᵀ / √d.
                    for i in 0..t {
                        let q_row = &q[i * self.c + c0..][..d];
                        for j in 0..t {
                            let k_row = &k[j * self.c + c0..][..d];
                            let mut acc = 0.0;
                            for (&a, &b) in q_row.iter().zip(k_row) {
                                acc += a * b;
                            }
                            scores[i * t + j] = acc * inv_sqrt_d;
                        }
                    }
                    softmax_rows_inplace(&mut scores, t);
                    for i in 0..t {
                        let attn_row = &scores[i * t..][..t];
                        let out_row = &mut result[i * self.c + c0..][..d];
                        for (j, &a) in attn_row.iter().enumerate() {
                            let tok_row = &tok[j * self.c + c0..][..d];
                            for (o, &v) in out_row.iter_mut().zip(tok_row) {
                                *o += a * v;
                            }
                        }
                    }
                }
            };
            let len = win_out.len();
            exec.par_stripes_mut(&mut win_out, len, t * self.c, attn_work, |wins, stripe| {
                for (j, result) in stripe[0].chunks_mut(t * self.c).enumerate() {
                    window(wins.start + j, result);
                }
            });
            // Scatter staged windows back into spatial layout.
            for widx in 0..windows {
                let wy = (widx / wins_x) * r;
                let wx = (widx % wins_x) * r;
                let result = &win_out[widx * t * self.c..][..t * self.c];
                for ty in 0..r {
                    for tx in 0..r {
                        let row = &result[(ty * r + tx) * self.c..][..self.c];
                        for (ch, &v) in row.iter().enumerate() {
                            *out.at_mut(nn, ch, wy + ty, wx + tx) = v;
                        }
                    }
                }
            }
        }
        exec.scratch().put(win_out);
        // Unshift and crop.
        let unshifted = roll(&out, -(self.shift as isize), -(self.shift as isize));
        unshifted.crop(h, w)
    }

    /// Multiply–accumulate count for an `h × w` input (projections +
    /// attention matrix + aggregation).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let r = self.window;
        let ph = h.div_ceil(r) * r;
        let pw = w.div_ceil(r) * r;
        let windows = (ph / r) * (pw / r);
        let t = (r * r) as u64;
        let c = self.c as u64;
        let d = (self.c / self.heads) as u64;
        // Q,K projections + P·(T²·d scores + T²·d aggregation).
        windows as u64 * (2 * t * c * c + self.heads as u64 * (2 * t * t * d))
    }
}

/// Cyclic roll of the spatial dimensions by `(dy, dx)` (negative = down/right).
fn roll(t: &Tensor, dy: isize, dx: isize) -> Tensor {
    let (n, c, h, w) = t.shape().dims();
    Tensor::from_fn(Shape::new(n, c, h, w), |nn, ch, y, x| {
        let sy = (y as isize + dy).rem_euclid(h as isize) as usize;
        let sx = (x as isize + dx).rem_euclid(w as isize) as usize;
        t.at(nn, ch, sy, sx)
    })
}

/// Swin-Transformer-based Attention Module (paper Fig. 3a).
///
/// Branch 1: SwinAtten → ResBlock → Conv(2N,1,1) → Sigmoid produces the
/// spatial-channel mask. Branch 2: stacked ResBlocks. Branch 3: identity.
/// `forward_ctx` composes them (`x + mask ⊙ branch2(x)`); `mask_ctx`
/// exposes the attention mask alone, which the codec uses as its
/// backward-adaptive quantization gain (see crate docs).
#[derive(Debug, Clone)]
pub struct SwinAm {
    attn: SwinAttention,
    // Branch-1 ResBlock is built for |·| extraction over (z, −z) pairs.
    abs_conv1: LayerOp,
    abs_conv2: LayerOp,
    mask_conv: Conv2d,
    branch2: Vec<ResBlock>,
    ctx: NumericCtx,
    half: usize,
}

impl SwinAm {
    /// Creates a Swin-AM over `c` channels (must be even: the module pairs
    /// channel `j` with `j + c/2`).
    ///
    /// # Errors
    ///
    /// Returns an error if `c` is odd or attention parameters are invalid.
    pub fn new(
        c: usize,
        window: usize,
        shift: usize,
        heads: usize,
        precision: Precision,
        sparsity: Option<f64>,
        seed: u64,
    ) -> Result<Self, TensorError> {
        if !c.is_multiple_of(2) {
            return Err(TensorError::invalid("Swin-AM channel count must be even"));
        }
        let half = c / 2;
        let attn = SwinAttention::new(c, window, shift, heads, seed)?;
        // Branch-1 ResBlock: conv1 = identity passthrough, conv2 sums the
        // (j, j+half) pair so that with paired ±input the ReLU'd halves
        // combine to |u|.
        let abs_conv1 = crate::weights::dirac_conv(c, c, |co| vec![(co, 1.0)])?;
        let abs_conv2 = crate::weights::dirac_conv(c, c, move |co| {
            let j = co % half;
            vec![(j, 2.0), (j + half, 2.0)]
        })?;
        // Mask head: 1×1 conv reading the |·| features with a negative
        // bias so flat regions map below 0.5.
        let mut mask_conv = Conv2d::from_fn(
            c,
            c,
            1,
            1,
            0,
            |co, ci, _, _| {
                if co == ci {
                    1.2
                } else {
                    0.0
                }
            },
        )?;
        for b in mask_conv.bias_mut() {
            *b = -0.9;
        }
        let branch2 = (0..3)
            .map(|i| ResBlock::near_identity(c, precision, sparsity, seed ^ (0xB2 + i as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SwinAm {
            attn,
            abs_conv1: LayerOp::build(LayerOp::Conv(abs_conv1), precision, sparsity)?,
            abs_conv2: LayerOp::build(LayerOp::Conv(abs_conv2), precision, sparsity)?,
            mask_conv,
            branch2,
            ctx: NumericCtx::new(precision),
            half,
        })
    }

    /// The underlying attention.
    pub fn attention(&self) -> &SwinAttention {
        &self.attn
    }

    /// Computes the branch-1 attention mask in `(0, 1)`, same shape as the
    /// input, on `exec`'s worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn mask_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let u = self.ctx.actq(self.attn.forward_ctx(x, exec)?);
        // ResBlock with |·| pairing: u + conv2(ReLU(conv1(ReLU(u)))).
        let a = self.abs_conv1.forward_ctx(&relu(&u), exec)?;
        let b = self.abs_conv2.forward_ctx(&relu(&a), exec)?;
        let res = self.ctx.actq(u.add(&b)?);
        let logits = self.mask_conv.forward_ctx(&res, exec)?;
        Ok(nvc_tensor::ops::sigmoid(&logits))
    }

    /// Describes the mask branch ([`SwinAm::mask_ctx`]) on an `h × w`
    /// input as layers `module.swin_am.*`.
    pub(crate) fn describe_mask(
        &self,
        out: &mut Vec<SimLayer>,
        module: &'static str,
        (h, w): (usize, usize),
    ) {
        let a = &self.attn;
        let (c, window, heads) = (a.c, a.window, a.heads);
        let attn = SimOp::Attention {
            c,
            h,
            w,
            window,
            heads,
        };
        push_sim(out, module, "swin_am.attn", attn);
        let res = [
            ("res.conv1", &self.abs_conv1),
            ("res.conv2", &self.abs_conv2),
        ];
        for (name, conv) in res {
            push_sim(out, module, &format!("swin_am.{name}"), conv.sim_op(h, w));
        }
        let mask = conv_sim_op(&self.mask_conv, h, w);
        push_sim(out, module, "swin_am.mask", mask);
    }

    /// Full Swin-AM composition, `x + mask(x) ⊙ branch2(x)`, on `exec`'s
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward_ctx(&self, x: &Tensor, exec: &ExecCtx) -> Result<Tensor, TensorError> {
        let mask = self.mask_ctx(x, exec)?;
        let mut f2 = x.clone();
        for rb in &self.branch2 {
            f2 = self.ctx.actq(rb.forward_ctx(&f2, exec)?);
        }
        // Branch-2 output enters as a *correction*; keep it residual-scaled
        // so the analytic network stays near-identity.
        let delta = f2.sub(x)?;
        x.add(&mask.hadamard(&delta)?)
    }

    /// Pairs channel `j` with `j + c/2` (used by the codec to build the
    /// ±latent input).
    pub fn half(&self) -> usize {
        self.half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(Shape::new(1, c, h, w), |_, ch, y, x| {
            0.3 * ((y as f32 * 0.7 + x as f32 * 0.5 + ch as f32).sin())
        })
    }

    /// The last described layer's output is the tensor the module returns.
    fn assert_describes(layers: &[SimLayer], out: &Tensor) {
        let (c, h, w) = layers.last().expect("a described layer").op.output_dims();
        assert_eq!(out.shape().dims(), (1, c, h, w));
    }

    #[test]
    fn layer_op_describes_its_output() {
        let conv3 = Conv2d::randn(4, 2, 3, 1, 1, 5).unwrap();
        let conv1 = Conv2d::randn(4, 2, 1, 1, 0, 6).unwrap();
        let deconv = DeConv2d::randn(4, 2, 4, 2, 1, 7).unwrap();
        for sparsity in [None, Some(0.5)] {
            for op in [
                LayerOp::Conv(conv3.clone()),
                LayerOp::Conv(conv1.clone()),
                LayerOp::Deconv(deconv.clone()),
            ] {
                let op = LayerOp::build(op, Precision::Fp32, sparsity).unwrap();
                let layer = SimLayer::new("op", "m", op.sim_op(6, 10));
                assert_describes(
                    &[layer],
                    &op.forward_ctx(&smooth(2, 6, 10), &ExecCtx::serial())
                        .unwrap(),
                );
            }
        }
    }

    #[test]
    fn resblock_describes_its_output() {
        let rb = ResBlock::near_identity(4, Precision::Fp32, Some(0.5), 7).unwrap();
        let mut layers = Vec::new();
        rb.describe(&mut layers, "m", "res", (6, 10));
        assert_describes(
            &layers,
            &rb.forward_ctx(&smooth(4, 6, 10), &ExecCtx::serial())
                .unwrap(),
        );
    }

    #[test]
    fn swin_am_describes_its_mask() {
        let am = SwinAm::new(8, 3, 2, 2, Precision::Fp32, Some(0.5), 9).unwrap();
        let mut layers = Vec::new();
        am.describe_mask(&mut layers, "m", (5, 7));
        assert_describes(
            &layers,
            &am.mask_ctx(&smooth(8, 5, 7), &ExecCtx::serial()).unwrap(),
        );
    }

    #[test]
    fn direct_and_fast_arms_agree_on_tiny_and_empty_planes() {
        let conv = Conv2d::randn(2, 2, 3, 1, 1, 5).unwrap();
        let deconv = DeConv2d::randn(2, 2, 4, 2, 1, 6).unwrap();
        let arms = |sparsity| {
            [
                LayerOp::build(LayerOp::Conv(conv.clone()), Precision::Fp32, sparsity).unwrap(),
                LayerOp::build(LayerOp::Deconv(deconv.clone()), Precision::Fp32, sparsity).unwrap(),
            ]
        };
        for (direct, fast) in arms(None).into_iter().zip(arms(Some(0.0))) {
            assert!(!matches!(direct, LayerOp::Fast(_)) && matches!(fast, LayerOp::Fast(_)));
            for (h, w) in [(0, 0), (0, 3), (3, 0)] {
                let empty = Tensor::zeros(Shape::new(1, 2, h, w));
                assert!(
                    direct.forward_ctx(&empty, &ExecCtx::serial()).is_err(),
                    "direct {h}x{w}"
                );
                assert!(
                    fast.forward_ctx(&empty, &ExecCtx::serial()).is_err(),
                    "fast {h}x{w}"
                );
            }
            let x = smooth(2, 1, 1);
            let (d, f) = (
                direct.forward_ctx(&x, &ExecCtx::serial()).unwrap(),
                fast.forward_ctx(&x, &ExecCtx::serial()).unwrap(),
            );
            assert_eq!(d.shape(), f.shape());
            assert!(d.sub(&f).unwrap().max_abs() < 1e-5);
        }
        // A shape the transforms do not execute runs direct whatever the
        // sparsity; an invalid sparsity is an error whatever the shape.
        let strided = LayerOp::Conv(Conv2d::randn(2, 2, 3, 2, 1, 7).unwrap());
        let op = LayerOp::build(strided.clone(), Precision::Fp32, Some(0.5)).unwrap();
        assert!(matches!(op, LayerOp::Conv(_)));
        assert!(LayerOp::build(strided, Precision::Fp32, Some(1.5)).is_err());
    }

    #[test]
    fn resblock_is_near_identity() {
        let rb = ResBlock::near_identity(4, Precision::Fp32, None, 7).unwrap();
        let x = smooth(4, 8, 8);
        let y = rb.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape(), x.shape());
        let rel = y.sub(&x).unwrap().max_abs() / x.max_abs();
        assert!(rel < 0.3, "{rel}");
        assert!(rel > 0.0, "block must not be a pure no-op");
    }

    #[test]
    fn attention_preserves_shape_and_pairing() {
        let c = 8;
        let attn = SwinAttention::new(c, 3, 0, 2, 11).unwrap();
        // Paired input: ch j+4 = -ch j.
        let base = smooth(4, 7, 5);
        let x = Tensor::from_fn(Shape::new(1, c, 7, 5), |_, ch, y, xx| {
            let v = base.at(0, ch % 4, y, xx);
            if ch < 4 {
                v
            } else {
                -v
            }
        });
        let y = attn.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape(), x.shape());
        // Identity V preserves the ± pairing exactly.
        for ch in 0..4 {
            for yy in 0..7 {
                for xx in 0..5 {
                    let d = (y.at(0, ch, yy, xx) + y.at(0, ch + 4, yy, xx)).abs();
                    assert!(d < 1e-4, "pairing broken at ({ch},{yy},{xx}): {d}");
                }
            }
        }
    }

    #[test]
    fn attention_output_is_window_convex_combination() {
        // With softmax weights, each output is a convex combination of
        // window inputs: bounded by window min/max. Use shift 0 and an
        // exact multiple of the window so windows are clean.
        let attn = SwinAttention::new(4, 3, 0, 2, 3).unwrap();
        let x = smooth(4, 6, 6);
        let y = attn.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        for ch in 0..4 {
            for wy in (0..6).step_by(3) {
                for wx in (0..6).step_by(3) {
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    for ty in 0..3 {
                        for tx in 0..3 {
                            let v = x.at(0, ch, wy + ty, wx + tx);
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                    }
                    for ty in 0..3 {
                        for tx in 0..3 {
                            let v = y.at(0, ch, wy + ty, wx + tx);
                            assert!(
                                v >= lo - 1e-4 && v <= hi + 1e-4,
                                "({ch},{},{}) out of hull: {v} not in [{lo},{hi}]",
                                wy + ty,
                                wx + tx
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shifted_attention_differs_from_unshifted() {
        let a0 = SwinAttention::new(4, 3, 0, 2, 5).unwrap();
        let a2 = SwinAttention::new(4, 3, 2, 2, 5).unwrap();
        let x = smooth(4, 9, 9);
        let y0 = a0.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let y2 = a2.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert!(
            y0.sub(&y2).unwrap().max_abs() > 1e-4,
            "shift must change windows"
        );
    }

    #[test]
    fn swin_am_mask_tracks_activity() {
        let am = SwinAm::new(8, 3, 0, 2, Precision::Fp32, None, 9).unwrap();
        // Active region: strong ± pair in the left half, zeros right.
        let x = Tensor::from_fn(Shape::new(1, 8, 6, 12), |_, ch, _, xx| {
            let v = if xx < 6 { 0.8 } else { 0.0 };
            match ch {
                0..=3 => v,
                _ => -v,
            }
        });
        let mask = am.mask_ctx(&x, &ExecCtx::serial()).unwrap();
        let mut active = 0.0;
        let mut flat = 0.0;
        for y in 0..6 {
            for ch in 0..8 {
                active += mask.at(0, ch, y, 1);
                flat += mask.at(0, ch, y, 10);
            }
        }
        assert!(
            active > flat + 1.0,
            "mask must be higher in active regions: {active} vs {flat}"
        );
        // Masks stay in (0, 1).
        for v in mask.as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn swin_am_forward_is_gentle() {
        let am = SwinAm::new(8, 3, 2, 2, Precision::Fp32, None, 13).unwrap();
        let x = smooth(8, 9, 9);
        let y = am.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape(), x.shape());
        let rel = y.sub(&x).unwrap().max_abs() / x.max_abs();
        assert!(rel < 0.5, "Swin-AM must perturb, not destroy: {rel}");
    }

    #[test]
    fn validation() {
        assert!(SwinAttention::new(8, 3, 3, 2, 0).is_err()); // shift >= window
        assert!(SwinAttention::new(8, 3, 0, 3, 0).is_err()); // heads ∤ c
        assert!(SwinAttention::new(8, 0, 0, 2, 0).is_err());
        assert!(SwinAm::new(7, 3, 0, 1, Precision::Fp32, None, 0).is_err());
    }

    #[test]
    fn fxp_context_quantizes() {
        let ctx = NumericCtx::new(Precision::Fxp);
        let x = smooth(2, 4, 4);
        let q = ctx.actq(x.clone());
        assert!(q.sub(&x).unwrap().max_abs() > 0.0);
        let ctx_fp = NumericCtx::new(Precision::Fp32);
        assert_eq!(ctx_fp.actq(x.clone()), x);
    }
}
