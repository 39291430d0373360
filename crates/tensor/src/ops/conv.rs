use super::direct::DirectLayer;
use super::staged::{accumulate, stage};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// 2-D convolution with square kernel, symmetric zero padding and uniform
/// stride — the workhorse of CTVC-Net (`Conv(N, k, s)` in paper Fig. 2).
///
/// Weight layout is `[c_out][c_in][k][k]` row-major; one bias per output
/// channel. Construction, validation and accessors are
/// [`DirectLayer`]'s, shared with [`DeConv2d`](super::DeConv2d).
///
/// Every stride runs one kernel over one staged layout (zero-padded
/// polyphase planes, outputs accumulated in registers); see
/// [`Conv2d::forward_ctx`] for it and for the one bias value, `-0.0`,
/// that bypasses it.
///
/// # Example
///
/// ```
/// use nvc_core::ExecCtx;
/// use nvc_tensor::{Shape, Tensor, ops::Conv2d};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// // 3x3 box filter that preserves resolution.
/// let conv = Conv2d::from_fn(1, 1, 3, 1, 1, |_, _, _, _| 1.0 / 9.0)?;
/// let x = Tensor::filled(Shape::new(1, 1, 5, 5), 9.0);
/// let y = conv.forward_ctx(&x, &ExecCtx::serial())?;
/// assert_eq!(y.at(0, 0, 2, 2), 9.0); // interior average of a constant
/// # Ok(())
/// # }
/// ```
pub type Conv2d = DirectLayer<false>;

impl Conv2d {
    /// Spatial output size for an `h × w` input; `(0, 0)` when the padded
    /// input is smaller than the kernel along either axis.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let dim = |d: usize| Some((d + 2 * self.padding).checked_sub(self.k)? / self.stride + 1);
        dim(h).zip(dim(w)).unwrap_or((0, 0))
    }

    /// Runs the convolution, fanning output channels across `ctx`'s worker
    /// pool. Each output plane is computed independently with a fixed
    /// accumulation order (bias, then `c_in` ascending, then kernel taps
    /// row-major, zero weights skipped), so the result is bit-identical
    /// for every worker count. The fan-out is work-size gated: small
    /// planes (decode-side latent shapes) run serially because worker
    /// spawn overhead would dominate.
    ///
    /// **Layout.** With `reach = (k − 1) / s`, every input channel is
    /// first staged, once per call, as `s · s` phase planes of
    /// `(oh + reach)` rows at one pitch `P = ow + reach`: plane
    /// `(rp, cp)[j][i] = padded[j·s + rp][i·s + cp]`, where `padded` is
    /// the input with `padding` explicit `+0.0` cells on every side.
    /// Stride 1 is the one-plane case, a padded copy.
    ///
    /// **Flat index.** Output `(oy, ox)` at flat index `i = oy·P + ox`
    /// reads tap `(kh, kw)` at `phase(kh % s, kw % s)[i + (kh/s)·P + kw/s]`
    /// — a constant offset per tap. One output plane is therefore
    /// `flat[i] = bias + Σ kv · staged[off(ci, kh, kw) + i]` over
    /// `i < (oh − 1)·P + ow` with no row or column clipping; blocks of 32
    /// flat elements stay in registers across the whole tap walk and are
    /// stored once. The `reach` junk elements that end each flat row are
    /// computed and dropped.
    ///
    /// **Why a `-0.0` bias is special.** A padded tap adds `kv · (+0.0) =
    /// ±0.0` where the definition adds nothing. `x + y` is `-0.0` only
    /// when both are, so an accumulator seeded with any other bias is
    /// never `-0.0` and adding `±0.0` to it is the identity. A channel
    /// whose bias *is* `-0.0` (and a plane of fewer than 4 flat
    /// elements) takes a per-element loop that skips padded taps instead.
    /// Weights are assumed finite.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count is
    /// not `c_in` or the padded input is smaller than the kernel.
    pub fn forward_ctx(&self, input: &Tensor, ctx: &ExecCtx) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "conv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        if h + 2 * self.padding < self.k || w + 2 * self.padding < self.k {
            return Err(TensorError::incompatible(format!(
                "input {h}x{w} (pad {}) smaller than kernel {}",
                self.padding, self.k
            )));
        }
        let (oh, ow) = self.output_hw(h, w);
        let mut out = Tensor::zeros(Shape::new(n, self.c_out, oh, ow));
        let (k, s) = (self.k, self.stride);
        let reach = (k - 1) / s;
        let pitch = ow + reach;
        let phase_len = (oh + reach) * pitch;
        let image_len = self.c_in * s * s * phase_len;
        let staged = stage(input, (s, self.padding), (oh + reach, pitch), ctx);
        let taps = self.c_in * k * k;
        let offsets: Vec<usize> = (0..taps)
            .map(|t| {
                let (ci, kh, kw) = (t / (k * k), t / k % k, t % k);
                ((ci * s + kh % s) * s + kw % s) * phase_len + kh / s * pitch + kw / s
            })
            .collect();
        let flat_len = (oh - 1) * pitch + ow;
        let work = n as u64 * self.macs(h, w);
        let plane = |plane_idx: usize, out_plane: &mut [f32]| {
            let (nn, co) = (plane_idx / self.c_out, plane_idx % self.c_out);
            let bias = self.bias[co];
            let kernel = &self.weight[co * taps..][..taps];
            if bias.to_bits() == (-0.0_f32).to_bits() || flat_len < 4 {
                let in_planes = &input.as_slice()[nn * self.c_in * h * w..][..self.c_in * h * w];
                self.scalar_plane(in_planes, (h, w), kernel, bias, ow, out_plane);
                return;
            }
            let live: Vec<(f32, usize)> = kernel
                .iter()
                .zip(&offsets)
                .filter(|(&kv, _)| kv != 0.0)
                .map(|(&kv, &off)| (kv, off))
                .collect();
            let image = &staged[nn * image_len..][..image_len];
            if reach == 0 {
                accumulate(image, &live, bias, out_plane);
                return;
            }
            let mut flat = vec![0.0; flat_len];
            accumulate(image, &live, bias, &mut flat);
            for (out_row, flat_row) in out_plane.chunks_exact_mut(ow).zip(flat.chunks(pitch)) {
                out_row.copy_from_slice(&flat_row[..ow]);
            }
        };
        let planes = out.as_mut_slice();
        let len = planes.len();
        ctx.par_stripes_mut(planes, len, oh * ow, work, |rows, stripe| {
            for (j, out_plane) in stripe[0].chunks_mut(oh * ow).enumerate() {
                plane(rows.start + j, out_plane);
            }
        });
        ctx.scratch().put(staged);
        Ok(out)
    }

    /// One output plane straight from the definition — per element: bias,
    /// then every in-range non-zero tap, `c_in` ascending and row-major —
    /// for the planes the staged path cannot take.
    fn scalar_plane(
        &self,
        in_planes: &[f32],
        hw: (usize, usize),
        kernel: &[f32],
        bias: f32,
        ow: usize,
        out_plane: &mut [f32],
    ) {
        let ((h, w), k, s, p) = (hw, self.k, self.stride, self.padding);
        for (i, o) in out_plane.iter_mut().enumerate() {
            let mut acc = bias;
            for (t, &kv) in kernel.iter().enumerate() {
                let (ci, kh, kw) = (t / (k * k), t / k % k, t % k);
                let iy = (i / ow * s + kh).checked_sub(p).filter(|&iy| iy < h);
                let ix = (i % ow * s + kw).checked_sub(p).filter(|&ix| ix < w);
                if let (Some(iy), Some(ix), true) = (iy, ix, kv != 0.0) {
                    acc += kv * in_planes[(ci * h + iy) * w + ix];
                }
            }
            *o = acc;
        }
    }

    /// Number of multiply–accumulate operations for an `h × w` input, used
    /// by the performance model; `0` when the input is smaller than the
    /// kernel.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        (self.c_out * self.c_in * self.k * self.k) as u64 * (oh * ow) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;
    use crate::ops::test_util::{bits, sparse_values};

    /// The convolution straight off the unstaged input, one axpy per tap
    /// with a strided gather (`ix += s` per output column) and clipped
    /// borders, kept as the bit-exact reference: same taps, same order.
    fn strided_reference(c: &Conv2d, input: &Tensor) -> Tensor {
        let (n, _, h, w) = input.shape().dims();
        let (oh, ow) = c.output_hw(h, w);
        let mut out = Tensor::zeros(Shape::new(n, c.c_out, oh, ow));
        let (k, s, pad) = (c.k, c.stride, c.padding as isize);
        for (plane_idx, out_plane) in out.as_mut_slice().chunks_mut(oh * ow).enumerate() {
            let nn = plane_idx / c.c_out;
            let co = plane_idx % c.c_out;
            out_plane.fill(c.bias[co]);
            for ci in 0..c.c_in {
                let in_plane = &input.as_slice()[(nn * c.c_in + ci) * h * w..][..h * w];
                for (ki, &kv) in c.kernel_slice(co, ci).iter().enumerate() {
                    if kv == 0.0 {
                        continue;
                    }
                    for oy in 0..oh {
                        let iy = (oy * s) as isize - pad + (ki / k) as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let mut ix = (ki % k) as isize - pad;
                        for o in &mut out_plane[oy * ow..][..ow] {
                            if ix >= 0 && (ix as usize) < w {
                                *o += kv * in_plane[iy as usize * w + ix as usize];
                            }
                            ix += s as isize;
                        }
                    }
                }
            }
        }
        out
    }

    fn random_conv(
        rng: &mut SplitMix64,
        c_out: usize,
        c_in: usize,
        ksp: (usize, usize, usize),
    ) -> Conv2d {
        let (k, s, p) = ksp;
        let weight = sparse_values(rng, c_out * c_in * k * k, 0.2);
        let bias = sparse_values(rng, c_out, 0.0);
        Conv2d::new(weight, bias, c_out, c_in, k, s, p).unwrap()
    }

    fn random_input(rng: &mut SplitMix64, dims: (usize, usize, usize, usize)) -> Tensor {
        let (n, c, h, w) = dims;
        let values = sparse_values(rng, n * c * h * w, 0.25);
        Tensor::from_vec(Shape::new(n, c, h, w), values).unwrap()
    }

    #[test]
    fn phase_split_matches_strided_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5EED_C0DE);
        let mut cases = 0;
        for k in 1..=5 {
            for s in 1..=4 {
                for p in 0..k.max(2) {
                    for (h, w) in [(1, 1), (3, 5), (17, 9), (34, 50)] {
                        if h + 2 * p < k || w + 2 * p < k {
                            continue;
                        }
                        let c = random_conv(&mut rng, 3, 2, (k, s, p));
                        let x = random_input(&mut rng, (2, 2, h, w));
                        let want = strided_reference(&c, &x);
                        let got = c.forward_ctx(&x, &ExecCtx::serial()).unwrap();
                        assert_eq!(got.shape(), want.shape());
                        assert_eq!(bits(&got), bits(&want), "k={k} s={s} p={p} {h}x{w}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 4 * 4 * 8);
    }

    #[test]
    fn every_flat_length_and_block_width_matches_reference() {
        // One-row planes put the flat length at exactly `ow`; the
        // multi-row ones add junk columns inside a block.
        let shapes = (1..=70)
            .map(|w| (1, w))
            .chain((2..=6).flat_map(|h| (1..=12).map(move |w| (h, w))));
        let mut rng = SplitMix64::new(0xF1A7);
        let mut seen = std::collections::BTreeSet::new();
        for (h, w) in shapes {
            for ksp in [(3, 1, 1), (3, 2, 1), (1, 1, 0), (4, 3, 2)] {
                let c = random_conv(&mut rng, 2, 2, ksp);
                let x = random_input(&mut rng, (1, 2, h, w));
                let got = c.forward_ctx(&x, &ExecCtx::serial()).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&strided_reference(&c, &x)),
                    "{ksp:?} {h}x{w}"
                );
                let (oh, ow) = c.output_hw(h, w);
                seen.insert((oh - 1) * (ow + (c.k - 1) / c.stride) + ow);
            }
        }
        // Scalar planes, each block width, exact fits and overlapped tails.
        assert!((1..=70).all(|len| seen.contains(&len)));
    }

    #[test]
    fn mixed_bias_signs_take_the_fallback_per_channel() {
        let mut rng = SplitMix64::new(0xB1A5);
        for ksp in [(3, 1, 1), (3, 2, 1), (5, 2, 2), (1, 1, 0)] {
            let mut c = random_conv(&mut rng, 5, 3, ksp);
            c.bias.copy_from_slice(&[-0.0, 0.0, 1.5, -0.0, -2.25]);
            // Zero taps of both signs over zero inputs of both signs.
            for zero_share in [0.3, 1.0] {
                let values = sparse_values(&mut rng, 2 * 3 * 9 * 11, zero_share);
                let x = Tensor::from_vec(Shape::new(2, 3, 9, 11), values).unwrap();
                let got = c.forward_ctx(&x, &ExecCtx::serial()).unwrap();
                assert_eq!(bits(&got), bits(&strided_reference(&c, &x)), "{ksp:?}");
            }
        }
    }

    #[test]
    fn output_hw_and_macs_are_total() {
        let c = Conv2d::randn(2, 3, 5, 2, 1, 0).unwrap();
        // h + 2p = k − 1, = k, and an empty input.
        assert_eq!(c.output_hw(2, 9), (0, 0));
        assert_eq!(c.output_hw(9, 2), (0, 0));
        assert_eq!(c.output_hw(3, 3), (1, 1));
        assert_eq!(c.output_hw(0, 0), (0, 0));
        assert_eq!(c.macs(2, 9), 0);
        assert_eq!(c.macs(0, 0), 0);
        assert_eq!(c.macs(3, 3), 2 * 3 * 25);
        assert!(c
            .forward_ctx(&Tensor::zeros(Shape::new(1, 3, 2, 9)), &ExecCtx::serial())
            .is_err());
    }

    #[test]
    fn zero_weights_zero_inputs_and_negative_zero_bias_match_reference() {
        let mut rng = SplitMix64::new(8);
        let x = Tensor::from_vec(Shape::new(1, 2, 6, 7), sparse_values(&mut rng, 84, 0.3)).unwrap();
        let zeros = Tensor::zeros(Shape::new(1, 2, 6, 7));
        for bias in [0.0, -0.0, 1.5] {
            let all_zero = Conv2d::new(vec![0.0; 3 * 2 * 9], vec![bias; 3], 3, 2, 3, 2, 1).unwrap();
            let y = all_zero.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            assert_eq!(bits(&y), bits(&strided_reference(&all_zero, &x)));
            assert!(bits(&y).iter().all(|&b| b == bias.to_bits()));
            let mut c = random_conv(&mut rng, 3, 2, (3, 2, 1));
            c.bias.fill(bias);
            assert_eq!(
                bits(&c.forward_ctx(&zeros, &ExecCtx::serial()).unwrap()),
                bits(&strided_reference(&c, &zeros))
            );
            assert_eq!(
                bits(&c.forward_ctx(&x, &ExecCtx::serial()).unwrap()),
                bits(&strided_reference(&c, &x))
            );
        }
    }

    #[test]
    fn every_thread_count_matches_above_the_work_gate() {
        let mut rng = SplitMix64::new(5);
        for s in [1, 2] {
            let mut c = random_conv(&mut rng, 7, 6, (3, s, 1));
            c.bias[3] = -0.0;
            let x = random_input(&mut rng, (2, 6, 34, 50));
            assert!(2 * c.macs(34, 50) >= nvc_core::PAR_MIN_WORK);
            let want = bits(&strided_reference(&c, &x));
            for threads in [1, 2, 3, 7] {
                let got = c.forward_ctx(&x, &ExecCtx::with_threads(threads)).unwrap();
                assert_eq!(bits(&got), want, "s={s} threads={threads}");
            }
        }
    }

    #[test]
    fn poisoned_recycled_staging_is_never_read() {
        // Padding cells, phases the input never reaches (7 columns at
        // stride 3 over a 5-tap kernel) and the junk columns of the flat
        // row all start out as recycled NaNs; none may reach an output.
        let mut rng = SplitMix64::new(6);
        for ksp in [(5, 3, 2), (3, 1, 1), (3, 2, 1), (2, 4, 1), (1, 1, 0)] {
            let mut c = random_conv(&mut rng, 3, 3, ksp);
            c.bias[1] = -0.0;
            let x = random_input(&mut rng, (2, 3, 6, 7));
            let ctx = ExecCtx::serial();
            ctx.scratch().put(vec![f32::NAN; 4096]);
            let got = c.forward_ctx(&x, &ctx).unwrap();
            assert_eq!(bits(&got), bits(&strided_reference(&c, &x)), "{ksp:?}");
            assert_eq!(ctx.scratch().cached(), 1, "staging goes back to the pool");
        }
        // A padded empty input has nothing to stage.
        let wide = Conv2d::randn(1, 1, 2, 2, 1, 0).unwrap();
        let y = wide
            .forward_ctx(&Tensor::zeros(Shape::new(1, 1, 0, 0)), &ExecCtx::serial())
            .unwrap();
        assert_eq!(y.shape().dims(), (1, 1, 1, 1));
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 3x3 Dirac kernel.
        let conv = Conv2d::from_fn(
            1,
            1,
            3,
            1,
            1,
            |_, _, kh, kw| {
                if kh == 1 && kw == 1 {
                    1.0
                } else {
                    0.0
                }
            },
        )
        .unwrap();
        let x = Tensor::from_fn(Shape::new(1, 1, 4, 5), |_, _, h, w| (h * 5 + w) as f32);
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_convolution_value() {
        // All-ones kernel on a ramp; interior output = sum of 3x3 patch.
        let conv = Conv2d::from_fn(1, 1, 3, 1, 1, |_, _, _, _| 1.0).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        // Centre: sum 0..=8 = 36.
        assert_eq!(y.at(0, 0, 1, 1), 36.0);
        // Corner (0,0): only pixels (0,0),(0,1),(1,0),(1,1) = 0+1+3+4 = 8.
        assert_eq!(y.at(0, 0, 0, 0), 8.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let conv = Conv2d::from_fn(2, 3, 3, 2, 1, |_, _, _, _| 0.1).unwrap();
        let x = Tensor::zeros(Shape::new(1, 3, 8, 10));
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape().dims(), (1, 2, 4, 5));
    }

    #[test]
    fn one_by_one_conv_mixes_channels() {
        let conv = Conv2d::new(
            vec![1.0, 2.0], // out0 = in0 + 2*in1
            vec![0.5],
            1,
            2,
            1,
            1,
            0,
        )
        .unwrap();
        let x =
            Tensor::from_vec(Shape::new(1, 2, 1, 2), vec![1.0, 2.0, /* ch1 */ 10.0, 20.0]).unwrap();
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.as_slice(), &[21.5, 42.5]);
    }

    #[test]
    fn bias_is_applied_per_channel() {
        let conv = Conv2d::new(vec![0.0; 2 * 9], vec![3.0, -1.0], 2, 1, 3, 1, 1).unwrap();
        let x = Tensor::zeros(Shape::new(1, 1, 2, 2));
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), 3.0);
        assert_eq!(y.at(0, 1, 1, 1), -1.0);
    }

    #[test]
    fn validation_rejects_bad_config() {
        // Construction is validated once for both kinds, in
        // `tests/direct_constructors.rs`; these are the input checks.
        let conv = Conv2d::randn(4, 3, 3, 1, 1, 0).unwrap();
        let bad = Tensor::zeros(Shape::new(1, 2, 8, 8));
        assert!(conv.forward_ctx(&bad, &ExecCtx::serial()).is_err());
        let tiny = Tensor::zeros(Shape::new(1, 3, 1, 1));
        let nopad = Conv2d::randn(4, 3, 3, 1, 0, 0).unwrap();
        assert!(nopad.forward_ctx(&tiny, &ExecCtx::serial()).is_err());
    }

    #[test]
    fn macs_counts_match_shape() {
        let conv = Conv2d::randn(8, 4, 3, 1, 1, 0).unwrap();
        assert_eq!(conv.macs(10, 10), 8 * 4 * 9 * 100);
        let s2 = Conv2d::randn(8, 4, 3, 2, 1, 0).unwrap();
        assert_eq!(s2.macs(10, 10), 8 * 4 * 9 * 25);
    }
}
