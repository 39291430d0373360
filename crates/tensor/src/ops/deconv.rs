use crate::init::{he_std, Gaussian};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// 2-D transposed convolution ("deconvolution", `DeConv(N, k, s)` in paper
/// Fig. 2), executed polyphase: each of the `s × s` output phases is a
/// unit-stride correlation of the input with the taps `k[py + s·a][px + s·b]`,
/// accumulated in contiguous phase runs and interleaved into the output row.
///
/// For input size `h × w`, output size is `(h-1)·s − 2p + k` per dimension.
/// CTVC-Net uses `DeConv(·, 4, 2)` with padding 1, which exactly doubles
/// the resolution — the configuration the FTA fast algorithm `T3(6×6, 4×4)`
/// targets.
///
/// Weight layout is `[c_in][c_out][k][k]` row-major (PyTorch convention for
/// `ConvTranspose2d`), one bias per output channel.
///
/// # Example
///
/// ```
/// use nvc_tensor::{Shape, Tensor, ops::DeConv2d};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let up = DeConv2d::randn(8, 16, 4, 2, 1, 7)?;
/// let x = Tensor::zeros(Shape::new(1, 16, 6, 5));
/// assert_eq!(up.forward(&x)?.shape().dims(), (1, 8, 12, 10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeConv2d {
    weight: Vec<f32>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    k: usize,
    stride: usize,
    padding: usize,
}

impl DeConv2d {
    /// Creates a transposed convolution from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns an error on zero kernel/stride or mismatched buffer lengths.
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
        if k < 2 * padding + 1 {
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
        Ok(DeConv2d {
            weight,
            bias,
            c_out,
            c_in,
            k,
            stride,
            padding,
        })
    }

    /// Creates a transposed convolution with He-initialised Gaussian
    /// weights and zero biases, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error on zero kernel/stride.
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
        DeConv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
    }

    /// Creates a transposed convolution whose weight at
    /// `(c_in, c_out, kh, kw)` is produced by `f`, with zero biases.
    ///
    /// # Errors
    ///
    /// Returns an error on zero kernel/stride.
    pub fn from_fn(
        c_out: usize,
        c_in: usize,
        k: usize,
        stride: usize,
        padding: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut weight = Vec::with_capacity(c_out * c_in * k * k);
        for ci in 0..c_in {
            for co in 0..c_out {
                for kh in 0..k {
                    for kw in 0..k {
                        weight.push(f(ci, co, kh, kw));
                    }
                }
            }
        }
        DeConv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
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

    /// Stride (upsampling factor).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding (in transposed-convolution convention).
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Read-only weight buffer, `[c_in][c_out][k][k]` row-major.
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

    /// The `k × k` kernel connecting input channel `ci` to output channel
    /// `co`.
    ///
    /// # Panics
    ///
    /// Panics if `ci` or `co` is out of range.
    pub fn kernel_slice(&self, ci: usize, co: usize) -> &[f32] {
        assert!(
            ci < self.c_in && co < self.c_out,
            "kernel ({ci},{co}) out of range"
        );
        let kk = self.k * self.k;
        let base = (ci * self.c_out + co) * kk;
        &self.weight[base..base + kk]
    }

    /// Spatial output size for an `h × w` input; an empty dimension stays
    /// empty.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        // `new` guarantees k ≥ 2p + 1, so the subtraction cannot underflow.
        let dim = |d: usize| match d {
            0 => 0,
            d => (d - 1) * self.stride + self.k - 2 * self.padding,
        };
        (dim(h), dim(w))
    }

    /// Runs the transposed convolution single-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count
    /// differs from `c_in` or the input is empty.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_ctx(input, &ExecCtx::serial())
    }

    /// Runs the transposed convolution, fanning output channels across
    /// `ctx`'s worker pool. Each output element accumulates its
    /// contributions in a fixed order (`c_in` ascending, then input rows
    /// ascending, then input columns ascending), so the result is
    /// bit-identical for every worker count. The fan-out is work-size
    /// gated (small planes run serially).
    ///
    /// Zero products are not accumulated: a zero input contributes the
    /// additive identity `-0.0` and a zero-weight tap is skipped. Adding
    /// `±0.0` can only change an accumulator that is itself `-0.0`, which
    /// takes a `-0.0` bias; for such a channel zero-weight taps are kept,
    /// so in every case the sum is that of the products of the non-zero
    /// inputs. Inputs are assumed finite.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeConv2d::forward`].
    pub fn forward_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "deconv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        if h == 0 || w == 0 {
            return Err(TensorError::incompatible("empty input"));
        }
        let (oh, ow) = self.output_hw(h, w);
        let out_shape = Shape::new(n, self.c_out, oh, ow);
        let mut out = Tensor::zeros(out_shape);
        let in_data = input.as_slice();
        let (k, s, p) = (self.k, self.stride, self.padding);
        // Output column `ox` is element `(ox + p) / s` of phase run
        // `(ox + p) % s`; rows split the same way.
        let run_len = (ow - 1 + p) / s + 1;
        let live: Vec<bool> = self
            .weight
            .chunks_exact(k * k)
            .map(|kernel| kernel.iter().any(|&v| v != 0.0))
            .collect();
        let work = n as u64 * self.macs(h, w);
        ctx.par_chunks_mut_gated(out.as_mut_slice(), oh * ow, work, |plane_idx, out_plane| {
            let nn = plane_idx / self.c_out;
            let co = plane_idx % self.c_out;
            let bias = self.bias[co];
            let keep_zero_taps = bias.to_bits() == (-0.0_f32).to_bits();
            let mut runs = ctx.scratch().take_stale(s * run_len);
            for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
                let (py, qy) = ((oy + p) % s, (oy + p) / s);
                runs.fill(bias);
                for ci in 0..self.c_in {
                    if !(live[ci * self.c_out + co] || keep_zero_taps) {
                        continue;
                    }
                    let in_plane = &in_data[(nn * self.c_in + ci) * h * w..][..h * w];
                    let kernel = self.kernel_slice(ci, co);
                    // Taps descend so that input rows ascend.
                    for a in (0..k.saturating_sub(py).div_ceil(s)).rev() {
                        if let Some(iy) = qy.checked_sub(a).filter(|&iy| iy < h) {
                            let in_row = &in_plane[iy * w..][..w];
                            let k_row = &kernel[(py + s * a) * k..][..k];
                            accumulate_phases(&mut runs, s, in_row, k_row, keep_zero_taps);
                        }
                    }
                }
                for (px, run) in runs.chunks_exact(run_len).enumerate() {
                    let q_lo = p.saturating_sub(px).div_ceil(s);
                    let ox_lo = q_lo * s + px - p;
                    let phase = out_row.iter_mut().skip(ox_lo).step_by(s);
                    for (o, &v) in phase.zip(&run[q_lo..]) {
                        *o = v;
                    }
                }
            }
            ctx.scratch().put(runs);
        });
        Ok(out)
    }

    /// Number of multiply–accumulate operations for an `h × w` input.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.c_out * self.c_in * self.k * self.k) as u64 * (h * w) as u64
    }
}

/// Adds one input row, weighted by one kernel row, into the `s`
/// equal-length phase runs of an output row: tap `kw = px + s·b` moves
/// input column `ix` to element `ix + b` of run `px`, a contiguous axpy.
/// Taps descend so that each element receives its input columns in
/// ascending order.
fn accumulate_phases(
    runs: &mut [f32],
    s: usize,
    in_row: &[f32],
    k_row: &[f32],
    keep_zero_taps: bool,
) {
    let run_len = runs.len() / s;
    for (px, run) in runs.chunks_exact_mut(run_len).enumerate() {
        for b in (0..k_row.len().saturating_sub(px).div_ceil(s)).rev() {
            let kv = k_row[px + s * b];
            if kv == 0.0 && !keep_zero_taps {
                continue;
            }
            // Elements past the run's end belong to no output column.
            let Some(dst) = run.get_mut(b..) else {
                continue;
            };
            for (o, &x) in dst.iter_mut().zip(in_row) {
                *o += if x != 0.0 { x * kv } else { -0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;
    use crate::ops::test_util::{bits, sparse_values};

    /// The input-driven scatter [`DeConv2d::forward_ctx`] replaced, kept
    /// as the bit-exact reference: one `k × k` kernel scattered per
    /// non-zero input pixel, `c_in` ascending, pixels row-major.
    fn scatter_reference(d: &DeConv2d, input: &Tensor) -> Tensor {
        let (n, _, h, w) = input.shape().dims();
        let (oh, ow) = d.output_hw(h, w);
        let mut out = Tensor::zeros(Shape::new(n, d.c_out, oh, ow));
        let in_data = input.as_slice();
        let (k, s, pad) = (d.k, d.stride, d.padding as isize);
        for (plane_idx, out_plane) in out.as_mut_slice().chunks_mut(oh * ow).enumerate() {
            let nn = plane_idx / d.c_out;
            let co = plane_idx % d.c_out;
            out_plane.fill(d.bias[co]);
            for ci in 0..d.c_in {
                let in_plane = &in_data[(nn * d.c_in + ci) * h * w..][..h * w];
                let kernel = d.kernel_slice(ci, co);
                for iy in 0..h {
                    for ix in 0..w {
                        let x = in_plane[iy * w + ix];
                        if x == 0.0 {
                            continue;
                        }
                        for kh in 0..k {
                            for kw in 0..k {
                                let oy = (iy * s) as isize - pad + kh as isize;
                                let ox = (ix * s) as isize - pad + kw as isize;
                                if oy < 0 || oy as usize >= oh || ox < 0 || ox as usize >= ow {
                                    continue;
                                }
                                out_plane[oy as usize * ow + ox as usize] +=
                                    x * kernel[kh * k + kw];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn random_deconv(
        rng: &mut SplitMix64,
        c_out: usize,
        c_in: usize,
        ksp: (usize, usize, usize),
    ) -> DeConv2d {
        let (k, s, p) = ksp;
        let weight = sparse_values(rng, c_in * c_out * k * k, 0.2);
        let bias = sparse_values(rng, c_out, 0.0);
        DeConv2d::new(weight, bias, c_out, c_in, k, s, p).unwrap()
    }

    const SIZES: [(usize, usize); 4] = [(1, 1), (3, 5), (17, 9), (34, 50)];

    #[test]
    fn polyphase_matches_scatter_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5EED_DEC0);
        let mut cases = 0;
        for k in 2..=5 {
            for s in 1..=4 {
                for p in 0..=(k - 1) / 2 {
                    for (h, w) in SIZES {
                        let d = random_deconv(&mut rng, 3, 2, (k, s, p));
                        let x = Tensor::from_vec(
                            Shape::new(2, 2, h, w),
                            sparse_values(&mut rng, 2 * 2 * h * w, 0.25),
                        )
                        .unwrap();
                        let want = scatter_reference(&d, &x);
                        let got = d.forward(&x).unwrap();
                        assert_eq!(got.shape(), want.shape());
                        assert_eq!(bits(&got), bits(&want), "k={k} s={s} p={p} {h}x{w}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 4 * 4 * 4);
    }

    #[test]
    fn zero_weights_and_zero_inputs_match_reference() {
        let mut rng = SplitMix64::new(7);
        let x = Tensor::from_vec(Shape::new(1, 2, 5, 6), sparse_values(&mut rng, 60, 0.3)).unwrap();
        let zeros = Tensor::zeros(Shape::new(1, 2, 5, 6));
        for bias in [0.0, -0.0, 1.5] {
            let all_zero =
                DeConv2d::new(vec![0.0; 2 * 3 * 16], vec![bias; 3], 3, 2, 4, 2, 1).unwrap();
            assert_eq!(
                bits(&all_zero.forward(&x).unwrap()),
                bits(&scatter_reference(&all_zero, &x))
            );
            let mut d = random_deconv(&mut rng, 3, 2, (4, 2, 1));
            d.bias.fill(bias);
            assert_eq!(
                bits(&d.forward(&zeros).unwrap()),
                bits(&scatter_reference(&d, &zeros))
            );
        }
    }

    /// A `±0.0` product changes a sum only when the accumulator is
    /// `-0.0`, which takes a `-0.0` bias. The scatter skipped zero
    /// *inputs* and added zero-*weight* products; the output sign of a
    /// zero must still be the one that produces.
    #[test]
    fn negative_zero_bias_keeps_reference_zero_signs() {
        let neg_zero = (-0.0_f32).to_bits();
        // Zero inputs under non-zero taps: nothing is added, -0.0 stays.
        let ones = DeConv2d::new(vec![1.0; 16], vec![-0.0], 1, 1, 4, 2, 1).unwrap();
        let zeros = Tensor::zeros(Shape::new(1, 1, 2, 3));
        let y = ones.forward(&zeros).unwrap();
        assert!(bits(&y).iter().all(|&b| b == neg_zero));
        assert_eq!(bits(&y), bits(&scatter_reference(&ones, &zeros)));
        // Positive inputs under +0.0 taps: +0.0 products flip -0.0 to +0.0.
        let zero_taps = DeConv2d::new(vec![0.0; 16], vec![-0.0], 1, 1, 4, 2, 1).unwrap();
        let pos = Tensor::filled(Shape::new(1, 1, 2, 3), 2.0);
        let y = zero_taps.forward(&pos).unwrap();
        assert!(bits(&y).iter().all(|&b| b == 0));
        assert_eq!(bits(&y), bits(&scatter_reference(&zero_taps, &pos)));
        // Mixed signs, zeros of both signs in inputs and weights.
        let mut rng = SplitMix64::new(99);
        for (k, s, p) in [(4, 2, 1), (3, 2, 0), (5, 3, 2), (2, 1, 0)] {
            let weight = sparse_values(&mut rng, 2 * 2 * k * k, 0.5);
            let d = DeConv2d::new(weight, vec![-0.0, -0.0], 2, 2, k, s, p).unwrap();
            let x =
                Tensor::from_vec(Shape::new(1, 2, 4, 7), sparse_values(&mut rng, 56, 0.5)).unwrap();
            assert_eq!(
                bits(&d.forward(&x).unwrap()),
                bits(&scatter_reference(&d, &x)),
                "k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn every_thread_count_matches_above_the_work_gate() {
        let mut rng = SplitMix64::new(3);
        let d = random_deconv(&mut rng, 7, 6, (4, 2, 1));
        let x = Tensor::from_vec(
            Shape::new(2, 6, 34, 50),
            sparse_values(&mut rng, 2 * 6 * 34 * 50, 0.1),
        )
        .unwrap();
        assert!(2 * d.macs(34, 50) >= nvc_core::PAR_MIN_WORK);
        let want = bits(&scatter_reference(&d, &x));
        for threads in [1, 2, 3, 7] {
            let got = d.forward_ctx(&x, &ExecCtx::with_threads(threads)).unwrap();
            assert_eq!(bits(&got), want, "threads={threads}");
        }
    }

    #[test]
    fn poisoned_recycled_phase_runs_are_never_read() {
        let mut rng = SplitMix64::new(4);
        let d = random_deconv(&mut rng, 2, 3, (5, 3, 1));
        let x =
            Tensor::from_vec(Shape::new(1, 3, 6, 7), sparse_values(&mut rng, 126, 0.2)).unwrap();
        let ctx = ExecCtx::serial();
        ctx.scratch().put(vec![f32::NAN; 4096]);
        let got = d.forward_ctx(&x, &ctx).unwrap();
        assert_eq!(bits(&got), bits(&scatter_reference(&d, &x)));
        assert_eq!(
            ctx.scratch().cached(),
            1,
            "the run buffer goes back to the pool"
        );
    }

    #[test]
    fn output_hw_is_total() {
        let d = DeConv2d::randn(1, 1, 4, 2, 1, 0).unwrap();
        assert_eq!(d.output_hw(0, 0), (0, 0));
        assert_eq!(d.output_hw(0, 3), (0, 6));
        assert_eq!(d.output_hw(1, 1), (2, 2));
        assert!(d.forward(&Tensor::zeros(Shape::new(1, 1, 0, 3))).is_err());
    }

    #[test]
    fn output_size_doubles_for_k4_s2_p1() {
        let d = DeConv2d::randn(3, 5, 4, 2, 1, 0).unwrap();
        assert_eq!(d.output_hw(6, 7), (12, 14));
        let x = Tensor::zeros(Shape::new(1, 5, 6, 7));
        assert_eq!(d.forward(&x).unwrap().shape().dims(), (1, 3, 12, 14));
    }

    #[test]
    fn single_impulse_scatters_kernel() {
        // k=4, s=2, p=1, single input pixel at (1,1); kernel values are
        // (kh*4+kw) so the scatter pattern is directly visible.
        let d = DeConv2d::from_fn(1, 1, 4, 2, 1, |_, _, kh, kw| (kh * 4 + kw) as f32).unwrap();
        let mut x = Tensor::zeros(Shape::new(1, 1, 3, 3));
        *x.at_mut(0, 0, 1, 1) = 1.0;
        let y = d.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), (1, 1, 6, 6));
        // Output pixel (oy, ox) = (iy*2 - 1 + kh, ix*2 - 1 + kw) = (1 + kh, 1 + kw).
        for kh in 0..4 {
            for kw in 0..4 {
                assert_eq!(y.at(0, 0, 1 + kh, 1 + kw), (kh * 4 + kw) as f32);
            }
        }
        assert_eq!(y.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn matches_manual_overlap_sum() {
        // Two adjacent impulses: overlapping scatter regions must sum.
        let d = DeConv2d::from_fn(1, 1, 4, 2, 1, |_, _, _, _| 1.0).unwrap();
        let mut x = Tensor::zeros(Shape::new(1, 1, 1, 2));
        *x.at_mut(0, 0, 0, 0) = 1.0;
        *x.at_mut(0, 0, 0, 1) = 1.0;
        let y = d.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), (1, 1, 2, 4));
        // Columns where both kernels overlap get 2.0.
        // impulse0 covers ox in [-1..2] clipped, impulse1 covers ox in [1..4] clipped.
        assert_eq!(y.at(0, 0, 0, 1), 2.0);
        assert_eq!(y.at(0, 0, 0, 2), 2.0);
        assert_eq!(y.at(0, 0, 0, 0), 1.0);
        assert_eq!(y.at(0, 0, 0, 3), 1.0);
    }

    #[test]
    fn bias_fills_output() {
        let d = DeConv2d::new(vec![0.0; 16], vec![2.5], 1, 1, 4, 2, 1).unwrap();
        let x = Tensor::zeros(Shape::new(1, 1, 2, 2));
        let y = d.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn validation_rejects_bad_config() {
        assert!(DeConv2d::new(vec![0.0; 15], vec![0.0], 1, 1, 4, 2, 1).is_err());
        assert!(DeConv2d::randn(1, 1, 4, 0, 1, 0).is_err());
        assert!(DeConv2d::randn(1, 1, 3, 2, 2, 0).is_err()); // pad too big
        let d = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
        assert!(d.forward(&Tensor::zeros(Shape::new(1, 4, 4, 4))).is_err());
    }

    #[test]
    fn macs_scale_with_input_area() {
        let d = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
        assert_eq!(d.macs(5, 5), (2 * 3 * 16 * 25) as u64);
    }
}
