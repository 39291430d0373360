use super::direct::DirectLayer;
use super::staged::{accumulate, stage};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// 2-D transposed convolution ("deconvolution", `DeConv(N, k, s)` in paper
/// Fig. 2), executed polyphase: each of the `s × s` output phases is a
/// unit-stride correlation of the input with the taps `k[py + s·a][px + s·b]`,
/// run on the staged layout and accumulate loop [`Conv2d`](super::Conv2d)
/// uses and interleaved into the output; see [`DeConv2d::forward_ctx`] for
/// the layout and for the one bias value, `-0.0`, that bypasses it.
///
/// For input size `h × w`, output size is `(h-1)·s − 2p + k` per dimension.
/// CTVC-Net uses `DeConv(·, 4, 2)` with padding 1, which exactly doubles
/// the resolution — the configuration the FTA fast algorithm `T3(6×6, 4×4)`
/// targets.
///
/// Weight layout is `[c_in][c_out][k][k]` row-major (PyTorch convention for
/// `ConvTranspose2d`), one bias per output channel. Construction,
/// validation and accessors are [`DirectLayer`]'s, shared with
/// [`Conv2d`](super::Conv2d); only this kind requires `k ≥ 2·padding + 1`.
///
/// # Example
///
/// ```
/// use nvc_core::ExecCtx;
/// use nvc_tensor::{Shape, Tensor, ops::DeConv2d};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// let up = DeConv2d::randn(8, 16, 4, 2, 1, 7)?;
/// let x = Tensor::zeros(Shape::new(1, 16, 6, 5));
/// let y = up.forward_ctx(&x, &ExecCtx::serial())?;
/// assert_eq!(y.shape().dims(), (1, 8, 12, 10));
/// # Ok(())
/// # }
/// ```
pub type DeConv2d = DirectLayer<true>;

impl DeConv2d {
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

    /// Runs the transposed convolution, fanning output channels across
    /// `ctx`'s worker pool. Each output element accumulates its
    /// contributions in a fixed order (bias, then `c_in` ascending, then
    /// input rows ascending, then input columns ascending, zero weights
    /// skipped), so the result is bit-identical for every worker count.
    /// The fan-out is work-size gated (small planes run serially).
    ///
    /// **Layout.** Output `(oy, ox)` is element `(qy, qx) = ((oy + p) / s,
    /// (ox + p) / s)` of phase `(py, px) = ((oy + p) % s, (ox + p) % s)`,
    /// and tap `(py + s·a, px + s·b)` brings it input `(qy − a, qx − b)`.
    /// A phase has `qh = (oh − 1 + p) / s + 1` rows, `qw` columns likewise,
    /// and `reach = (k − 1) / s` is the largest `a`. Every input channel is
    /// staged once per call as the stride-1 case of the layout of
    /// [`Conv2d::forward_ctx`](super::Conv2d::forward_ctx): `qh + reach`
    /// rows at pitch `P = qw + reach`, `plane[j][i] = input[j − reach][i −
    /// reach]`, explicit `+0.0` outside the input.
    ///
    /// **Flat index.** Phase element `(qy, qx)` at flat index
    /// `i = qy·P + qx` reads tap `(a, b)` at `plane[(reach − a)·P + reach −
    /// b + i]`, a constant offset per tap, so a phase of an output plane
    /// is the `flat[i] = bias + Σ kv · staged[off + i]` that `Conv2d`
    /// computes, by the same loop, and `flat[qy·P + qx]` is stored to
    /// `out[qy·s + py − p][qx·s + px − p]`. Junk row ends and elements
    /// that land outside the output are computed and dropped.
    ///
    /// **A `-0.0` bias** is special for `Conv2d`'s reason: padded cells,
    /// zero inputs and dropped zero weights move `±0.0` terms in or out of
    /// a sum, the identity unless the accumulator is `-0.0`. Such a
    /// channel (and a plane of fewer than 4 flat elements) takes a
    /// per-element loop that follows the definition: zero inputs skipped,
    /// zero-weight taps kept. Inputs and weights are assumed finite.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count
    /// differs from `c_in` or the input is empty.
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
        let mut out = Tensor::zeros(Shape::new(n, self.c_out, oh, ow));
        let (k, s, p) = (self.k, self.stride, self.padding);
        let reach = (k - 1) / s;
        let (qh, qw) = ((oh - 1 + p) / s + 1, (ow - 1 + p) / s + 1);
        let pitch = qw + reach;
        let plane_len = (qh + reach) * pitch;
        let image_len = self.c_in * plane_len;
        let staged = stage(input, (1, reach), (qh + reach, pitch), ctx);
        let flat_len = (qh - 1) * pitch + qw;
        // Per phase, its taps as (index into a `k × k` kernel, staged
        // offset), descending so that input rows, then columns, ascend.
        let phase_taps: Vec<Vec<(usize, usize)>> = (0..s * s)
            .map(|phase| {
                (0..k * k)
                    .rev()
                    .filter(|t| (t / k % s, t % k % s) == (phase / s, phase % s))
                    .map(|t| (t, (reach - t / k / s) * pitch + reach - t % k / s))
                    .collect()
            })
            .collect();
        let work = n as u64 * self.macs(h, w);
        let plane = |plane_idx: usize, out_plane: &mut [f32]| {
            let (nn, co) = (plane_idx / self.c_out, plane_idx % self.c_out);
            let bias = self.bias[co];
            if bias.to_bits() == (-0.0_f32).to_bits() || flat_len < 4 {
                let in_planes = &input.as_slice()[nn * self.c_in * h * w..][..self.c_in * h * w];
                self.scalar_plane(in_planes, (h, w), co, ow, out_plane);
                return;
            }
            let image = &staged[nn * image_len..][..image_len];
            let mut flat = vec![0.0; flat_len];
            let mut taps = Vec::new();
            for (phase, kernel_taps) in phase_taps.iter().enumerate() {
                let (py, px) = (phase / s, phase % s);
                taps.clear();
                for ci in 0..self.c_in {
                    let kernel = self.kernel_slice(ci, co);
                    let live = kernel_taps.iter().filter(|&&(t, _)| kernel[t] != 0.0);
                    taps.extend(live.map(|&(t, off)| (kernel[t], ci * plane_len + off)));
                }
                accumulate(image, &taps, bias, &mut flat);
                // The phase's first row and column inside the output.
                let first = |rem: usize| p.saturating_sub(rem).div_ceil(s);
                let (qy0, qx0) = (first(py), first(px));
                let out_rows = out_plane.chunks_exact_mut(ow);
                let out_rows = out_rows.skip(qy0 * s + py - p).step_by(s);
                for (out_row, flat_row) in out_rows.zip(flat.chunks(pitch).skip(qy0)) {
                    let cells = out_row.iter_mut().skip(qx0 * s + px - p).step_by(s);
                    for (o, &v) in cells.zip(&flat_row[qx0..]) {
                        *o = v;
                    }
                }
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
    /// then every non-zero input that reaches it, `c_in` ascending and
    /// row-major — for the planes the staged path cannot take.
    fn scalar_plane(
        &self,
        in_planes: &[f32],
        (h, w): (usize, usize),
        co: usize,
        ow: usize,
        out_plane: &mut [f32],
    ) {
        let (k, s, p) = (self.k, self.stride, self.padding);
        // Output coordinate `o` takes tap `t` from input `(o + p − t) / s`.
        let source = |o: usize, t: usize, len: usize| {
            let d = (o + p).checked_sub(t).filter(|d| d % s == 0)?;
            Some(d / s).filter(|&i| i < len)
        };
        for (i, o) in out_plane.iter_mut().enumerate() {
            let mut acc = self.bias[co];
            for ci in 0..self.c_in {
                let kernel = self.kernel_slice(ci, co);
                // Taps descend so that input rows, then columns, ascend.
                for (kh, kw) in (0..k * k).rev().map(|t| (t / k, t % k)) {
                    if let (Some(iy), Some(ix)) = (source(i / ow, kh, h), source(i % ow, kw, w)) {
                        let x = in_planes[(ci * h + iy) * w + ix];
                        if x != 0.0 {
                            acc += x * kernel[kh * k + kw];
                        }
                    }
                }
            }
            *o = acc;
        }
    }

    /// Number of multiply–accumulate operations for an `h × w` input.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.c_out * self.c_in * self.k * self.k) as u64 * (h * w) as u64
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
                        let got = d.forward_ctx(&x, &ExecCtx::serial()).unwrap();
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
    fn every_flat_length_and_block_width_matches_reference() {
        // One-row inputs under `k − p − 1 < s` put the flat length at
        // exactly `w`; the other shapes add junk columns inside a block.
        let shapes = (1..=70)
            .map(|w| (1, w))
            .chain((2..=6).flat_map(|h| (1..=12).map(move |w| (h, w))));
        let mut rng = SplitMix64::new(0xF1A7_DEC0);
        let mut seen = std::collections::BTreeSet::new();
        for (h, w) in shapes {
            for ksp in [(4, 2, 1), (3, 2, 1), (2, 2, 0), (5, 3, 2)] {
                let d = random_deconv(&mut rng, 2, 2, ksp);
                let x = Tensor::from_vec(
                    Shape::new(1, 2, h, w),
                    sparse_values(&mut rng, 2 * h * w, 0.25),
                )
                .unwrap();
                let got = d.forward_ctx(&x, &ExecCtx::serial()).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&scatter_reference(&d, &x)),
                    "{ksp:?} {h}x{w}"
                );
                let (k, s, p) = ksp;
                let (oh, ow) = d.output_hw(h, w);
                let (qh, qw) = ((oh - 1 + p) / s + 1, (ow - 1 + p) / s + 1);
                seen.insert((qh - 1) * (qw + (k - 1) / s) + qw);
            }
        }
        // Scalar planes, each block width, exact fits and overlapped tails.
        assert!((1..=70).all(|len| seen.contains(&len)));
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
                bits(&all_zero.forward_ctx(&x, &ExecCtx::serial()).unwrap()),
                bits(&scatter_reference(&all_zero, &x))
            );
            let mut d = random_deconv(&mut rng, 3, 2, (4, 2, 1));
            d.bias.fill(bias);
            assert_eq!(
                bits(&d.forward_ctx(&zeros, &ExecCtx::serial()).unwrap()),
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
        let y = ones.forward_ctx(&zeros, &ExecCtx::serial()).unwrap();
        assert!(bits(&y).iter().all(|&b| b == neg_zero));
        assert_eq!(bits(&y), bits(&scatter_reference(&ones, &zeros)));
        // Positive inputs under +0.0 taps: +0.0 products flip -0.0 to +0.0.
        let zero_taps = DeConv2d::new(vec![0.0; 16], vec![-0.0], 1, 1, 4, 2, 1).unwrap();
        let pos = Tensor::filled(Shape::new(1, 1, 2, 3), 2.0);
        let y = zero_taps.forward_ctx(&pos, &ExecCtx::serial()).unwrap();
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
                bits(&d.forward_ctx(&x, &ExecCtx::serial()).unwrap()),
                bits(&scatter_reference(&d, &x)),
                "k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn every_thread_count_matches_above_the_work_gate() {
        let mut rng = SplitMix64::new(3);
        let mut d = random_deconv(&mut rng, 7, 6, (4, 2, 1));
        d.bias[3] = -0.0;
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
        // Padding rows and columns, the junk columns of each phase's flat
        // row and a phase with no taps at all (`k < s`) all start out as
        // recycled NaNs; none may reach an output.
        let mut rng = SplitMix64::new(4);
        for ksp in [(5, 3, 1), (4, 2, 1), (3, 1, 1), (2, 4, 0), (2, 1, 0)] {
            let mut d = random_deconv(&mut rng, 2, 3, ksp);
            d.bias[1] = -0.0;
            let x = Tensor::from_vec(Shape::new(2, 3, 6, 7), sparse_values(&mut rng, 252, 0.2))
                .unwrap();
            let ctx = ExecCtx::serial();
            ctx.scratch().put(vec![f32::NAN; 4096]);
            let got = d.forward_ctx(&x, &ctx).unwrap();
            assert_eq!(bits(&got), bits(&scatter_reference(&d, &x)), "{ksp:?}");
            assert_eq!(ctx.scratch().cached(), 1, "staging goes back to the pool");
        }
    }

    #[test]
    fn output_hw_is_total() {
        let d = DeConv2d::randn(1, 1, 4, 2, 1, 0).unwrap();
        assert_eq!(d.output_hw(0, 0), (0, 0));
        assert_eq!(d.output_hw(0, 3), (0, 6));
        assert_eq!(d.output_hw(1, 1), (2, 2));
        assert!(d
            .forward_ctx(&Tensor::zeros(Shape::new(1, 1, 0, 3)), &ExecCtx::serial())
            .is_err());
    }

    #[test]
    fn output_size_doubles_for_k4_s2_p1() {
        let d = DeConv2d::randn(3, 5, 4, 2, 1, 0).unwrap();
        assert_eq!(d.output_hw(6, 7), (12, 14));
        let x = Tensor::zeros(Shape::new(1, 5, 6, 7));
        assert_eq!(
            d.forward_ctx(&x, &ExecCtx::serial())
                .unwrap()
                .shape()
                .dims(),
            (1, 3, 12, 14)
        );
    }

    #[test]
    fn single_impulse_scatters_kernel() {
        // k=4, s=2, p=1, single input pixel at (1,1); kernel values are
        // (kh*4+kw) so the scatter pattern is directly visible.
        let d = DeConv2d::from_fn(1, 1, 4, 2, 1, |_, _, kh, kw| (kh * 4 + kw) as f32).unwrap();
        let mut x = Tensor::zeros(Shape::new(1, 1, 3, 3));
        *x.at_mut(0, 0, 1, 1) = 1.0;
        let y = d.forward_ctx(&x, &ExecCtx::serial()).unwrap();
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
        let y = d.forward_ctx(&x, &ExecCtx::serial()).unwrap();
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
        let y = d.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn validation_rejects_bad_config() {
        // Construction is validated once for both kinds, in
        // `tests/direct_constructors.rs`; this is the input check.
        let d = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
        assert!(d
            .forward_ctx(&Tensor::zeros(Shape::new(1, 4, 4, 4)), &ExecCtx::serial())
            .is_err());
    }

    #[test]
    fn macs_scale_with_input_area() {
        let d = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
        assert_eq!(d.macs(5, 5), (2 * 3 * 16 * 25) as u64);
    }
}
