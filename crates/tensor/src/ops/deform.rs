use crate::init::{he_std, Gaussian};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// Deformable convolution v1 (`DfConv(N, k, s, G)` in paper Fig. 2(d)).
///
/// A regular convolution samples input pixels on a fixed grid; a deformable
/// convolution adds a per-position, per-kernel-tap fractional offset
/// `(Δy, Δx)` and samples bilinearly. CTVC-Net uses it for motion
/// compensation in the feature domain: the reconstructed motion field
/// provides the offsets, so the same machinery performs warping.
///
/// The input channels are split into `groups` deformable groups; each group
/// has its own offset field. The offset tensor therefore carries
/// `2 · groups · k · k` channels, ordered `(group, tap, [dy, dx])`, with the
/// same spatial size as the output.
///
/// Only stride 1 is supported (the paper only instantiates stride-1
/// deformable convolutions).
#[derive(Debug, Clone, PartialEq)]
pub struct DeformConv2d {
    weight: Vec<f32>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    k: usize,
    padding: usize,
    groups: usize,
    /// Non-zero `(ci · k² + tap, weight)` terms of each output channel,
    /// index ascending — the dense dot product minus its exact-zero
    /// terms, in the same order.
    nz: Vec<Vec<(u32, f32)>>,
    /// The `(group, tap)` pairs some output channel has a non-zero
    /// weight for. Only these are ever sampled: a warp kernel that is a
    /// centre-tap Dirac reads 1 tap of 9.
    live: Vec<(usize, usize)>,
}

/// One bilinear sampling position, resolved once and applied to every
/// channel of a deformable group: the four neighbours' plane offsets
/// (`None` = zero padding outside the frame) and the interpolation
/// fractions. [`BilinearTap::sample`] evaluates exactly the expression
/// of [`Tensor::sample_bilinear`], so results are bit-identical to it.
struct BilinearTap {
    corners: [Option<usize>; 4],
    dy: f32,
    dx: f32,
}

impl BilinearTap {
    fn at(y: f32, x: f32, h: usize, w: usize) -> Self {
        let (y0, x0) = (y.floor(), x.floor());
        let (dy, dx) = (y - y0, x - x0);
        let (y0, x0) = (y0 as isize, x0 as isize);
        let inside = |v: isize, n: usize| (v >= 0 && (v as usize) < n).then_some(v as usize);
        let rows = [inside(y0, h), inside(y0.saturating_add(1), h)];
        let cols = [inside(x0, w), inside(x0.saturating_add(1), w)];
        let corner = |r: usize, c: usize| Some(rows[r]? * w + cols[c]?);
        BilinearTap {
            corners: [corner(0, 0), corner(0, 1), corner(1, 0), corner(1, 1)],
            dy,
            dx,
        }
    }

    #[inline]
    fn sample(&self, plane: &[f32]) -> f32 {
        let [v00, v01, v10, v11] = self.corners.map(|c| c.map_or(0.0, |i| plane[i]));
        let (dy, dx) = (self.dy, self.dx);
        v00 * (1.0 - dy) * (1.0 - dx)
            + v01 * (1.0 - dy) * dx
            + v10 * dy * (1.0 - dx)
            + v11 * dy * dx
    }
}

impl DeformConv2d {
    /// Creates a deformable convolution from explicit weights.
    ///
    /// # Errors
    ///
    /// Returns an error if buffer lengths mismatch, `k == 0`, or
    /// `c_in` is not divisible by `groups`.
    pub fn new(
        weight: Vec<f32>,
        bias: Vec<f32>,
        c_out: usize,
        c_in: usize,
        k: usize,
        padding: usize,
        groups: usize,
    ) -> Result<Self, TensorError> {
        if k == 0 {
            return Err(TensorError::invalid("kernel size must be non-zero"));
        }
        if groups == 0 || !c_in.is_multiple_of(groups) {
            return Err(TensorError::invalid(format!(
                "groups {groups} must divide input channels {c_in}"
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
        let kk = k * k;
        let nz: Vec<Vec<(u32, f32)>> = (0..c_out)
            .map(|co| {
                let taps = weight[co * c_in * kk..][..c_in * kk].iter().enumerate();
                let nonzero = taps.filter(|(_, &v)| v != 0.0);
                nonzero.map(|(i, &v)| (i as u32, v)).collect()
            })
            .collect();
        let ch_per_group = c_in / groups;
        let mut live: Vec<(usize, usize)> = nz
            .iter()
            .flatten()
            .map(|&(i, _)| (i as usize / kk / ch_per_group, i as usize % kk))
            .collect();
        live.sort_unstable();
        live.dedup();
        Ok(DeformConv2d {
            weight,
            bias,
            c_out,
            c_in,
            k,
            padding,
            groups,
            nz,
            live,
        })
    }

    /// Creates a deformable convolution with He-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns an error if `k == 0` or `groups` does not divide `c_in`.
    pub fn randn(
        c_out: usize,
        c_in: usize,
        k: usize,
        padding: usize,
        groups: usize,
        seed: u64,
    ) -> Result<Self, TensorError> {
        let mut g = Gaussian::new(seed);
        let mut weight = vec![0.0; c_out * c_in * k * k];
        g.fill(&mut weight, he_std(c_in * k * k));
        DeformConv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, padding, groups)
    }

    /// Number of deformable groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.c_in
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Channel count the offset tensor must have: `2 · groups · k · k`.
    pub fn offset_channels(&self) -> usize {
        2 * self.groups * self.k * self.k
    }

    /// Runs the deformable convolution, fanning stripes of output rows
    /// across `exec`'s worker pool. Per pixel, each live `(group, tap)`
    /// position is resolved once (floor, fractions, clipped neighbours)
    /// and sampled for the group's channels; taps no output channel
    /// weights are never sampled, and the reduction skips the
    /// structurally zero weights — which for the codec's Dirac-style
    /// compensation kernels removes almost the entire operator. Results
    /// are bit-identical for every worker count, and to sampling every
    /// tap with [`Tensor::sample_bilinear`].
    ///
    /// `offsets` must have [`offset_channels`](Self::offset_channels)
    /// channels and the same spatial size as `input` (stride is 1, padding
    /// preserves resolution when `padding == k / 2`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] on channel or spatial-size
    /// mismatch.
    pub fn forward_ctx(
        &self,
        input: &Tensor,
        offsets: &Tensor,
        exec: &ExecCtx,
    ) -> Result<Tensor, TensorError> {
        let (n, c, h, w) = input.shape().dims();
        if c != self.c_in {
            return Err(TensorError::incompatible(format!(
                "dfconv expects {} input channels, got {c}",
                self.c_in
            )));
        }
        let (on, oc, ooh, oow) = offsets.shape().dims();
        let out_h = h + 2 * self.padding - self.k + 1;
        let out_w = w + 2 * self.padding - self.k + 1;
        if on != n || oc != self.offset_channels() || ooh != out_h || oow != out_w {
            return Err(TensorError::incompatible(format!(
                "offset tensor {:?} incompatible (want ({n}, {}, {out_h}, {out_w}))",
                offsets.shape().dims(),
                self.offset_channels()
            )));
        }
        let mut out = Tensor::zeros(Shape::new(n, self.c_out, out_h, out_w));
        let out_plane = out_h * out_w;
        if out_plane == 0 || self.c_out == 0 {
            return Ok(out);
        }
        let ch_per_group = self.c_in / self.groups;
        let kk = self.k * self.k;
        let pad = self.padding as f32;
        // Sampling (4-tap bilinear per position) dominates the dot
        // product here, so gate on it rather than the MAC count.
        let work = (out_plane * self.live.len() * ch_per_group) as u64 * 4;

        for (nn, out_item) in out
            .as_mut_slice()
            .chunks_mut(self.c_out * out_plane)
            .enumerate()
        {
            let in_item = &input.as_slice()[nn * self.c_in * h * w..][..self.c_in * h * w];
            let off_item = &offsets.as_slice()[nn * oc * out_plane..][..oc * out_plane];
            exec.par_stripes_mut(out_item, out_plane, out_w, work, |rows, planes| {
                // The deformed patch of one pixel, `[ci][tap]`; dead
                // taps are never written and never read.
                let mut sampled = vec![0.0_f32; self.c_in * kk];
                for (local, oy) in rows.enumerate() {
                    for ox in 0..out_w {
                        let pixel = oy * out_w + ox;
                        for &(g, tap) in &self.live {
                            let kh = (tap / self.k) as f32;
                            let kw = (tap % self.k) as f32;
                            let dy = off_item[(g * kk + tap) * 2 * out_plane + pixel];
                            let dx = off_item[((g * kk + tap) * 2 + 1) * out_plane + pixel];
                            let at = BilinearTap::at(
                                oy as f32 - pad + kh + dy,
                                ox as f32 - pad + kw + dx,
                                h,
                                w,
                            );
                            for ci in g * ch_per_group..(g + 1) * ch_per_group {
                                sampled[ci * kk + tap] = at.sample(&in_item[ci * h * w..][..h * w]);
                            }
                        }
                        for ((taps, &bias), plane) in
                            self.nz.iter().zip(&self.bias).zip(&mut *planes)
                        {
                            let mut acc = bias;
                            for &(i, wv) in taps {
                                acc += sampled[i as usize] * wv;
                            }
                            plane[local * out_w + ox] = acc;
                        }
                    }
                }
            });
        }
        Ok(out)
    }

    /// Number of multiply–accumulate operations for an `h × w` input
    /// (excluding the bilinear-sampling interpolation arithmetic).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let oh = h + 2 * self.padding - self.k + 1;
        let ow = w + 2 * self.padding - self.k + 1;
        (self.c_out * self.c_in * self.k * self.k) as u64 * (oh * ow) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With all offsets zero, a deformable conv must equal a regular conv.
    #[test]
    fn zero_offsets_match_regular_conv() {
        use crate::ops::Conv2d;
        let c_out = 3;
        let c_in = 4;
        let k = 3;
        let dconv = DeformConv2d::randn(c_out, c_in, k, 1, 2, 99).unwrap();
        let conv = Conv2d::new(
            dconv.weight.clone(),
            dconv.bias.clone(),
            c_out,
            c_in,
            k,
            1,
            1,
        )
        .unwrap();
        let x = Tensor::from_fn(Shape::new(1, c_in, 6, 7), |_, c, h, w| {
            ((c + 1) * (h + 2) + w) as f32 * 0.1
        });
        let offsets = Tensor::zeros(Shape::new(1, dconv.offset_channels(), 6, 7));
        let yd = dconv.forward_ctx(&x, &offsets, &ExecCtx::serial()).unwrap();
        let yc = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let diff = yd.sub(&yc).unwrap().max_abs();
        assert!(diff < 1e-4, "max diff {diff}");
    }

    /// Integer offsets shift the sampling grid exactly.
    #[test]
    fn integer_offset_translates_sampling() {
        // 1x1 kernel, no padding: output(o) = input(o + offset).
        let dconv = DeformConv2d::new(vec![1.0], vec![0.0], 1, 1, 1, 0, 1).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 1, 4, 4), |_, _, h, w| (h * 4 + w) as f32);
        let mut off = Tensor::zeros(Shape::new(1, 2, 4, 4));
        // dy = 1 everywhere.
        for h in 0..4 {
            for w in 0..4 {
                *off.at_mut(0, 0, h, w) = 1.0;
            }
        }
        let y = dconv.forward_ctx(&x, &off, &ExecCtx::serial()).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), x.at(0, 0, 1, 0));
        assert_eq!(y.at(0, 0, 2, 3), x.at(0, 0, 3, 3));
        // Row beyond the frame samples zero padding.
        assert_eq!(y.at(0, 0, 3, 0), 0.0);
    }

    /// Fractional offsets interpolate bilinearly.
    #[test]
    fn fractional_offset_interpolates() {
        let dconv = DeformConv2d::new(vec![1.0], vec![0.0], 1, 1, 1, 0, 1).unwrap();
        let x = Tensor::from_vec(Shape::new(1, 1, 1, 2), vec![0.0, 10.0]).unwrap();
        let mut off = Tensor::zeros(Shape::new(1, 2, 1, 2));
        *off.at_mut(0, 1, 0, 0) = 0.5; // dx = 0.5 at the first pixel
        let y = dconv.forward_ctx(&x, &off, &ExecCtx::serial()).unwrap();
        assert!((y.at(0, 0, 0, 0) - 5.0).abs() < 1e-6);
    }

    /// Groups get independent offset fields.
    #[test]
    fn groups_use_independent_offsets() {
        // 2 channels, 2 groups, 1x1 kernel, weights sum both channels.
        let dconv = DeformConv2d::new(vec![1.0, 1.0], vec![0.0], 1, 2, 1, 0, 2).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 2, 1, 3), |_, c, _, w| {
            if c == 0 {
                w as f32
            } else {
                100.0 * w as f32
            }
        });
        let mut off = Tensor::zeros(Shape::new(1, 4, 1, 3));
        // Group 0: dx = +1; group 1: dx = 0.
        for w in 0..3 {
            *off.at_mut(0, 1, 0, w) = 1.0;
        }
        let y = dconv.forward_ctx(&x, &off, &ExecCtx::serial()).unwrap();
        // Pixel 0: group0 samples x0[1] = 1, group1 samples x1[0] = 0.
        assert!((y.at(0, 0, 0, 0) - 1.0).abs() < 1e-6);
        // Pixel 1: group0 samples x0[2] = 2, group1 samples x1[1] = 100.
        assert!((y.at(0, 0, 0, 1) - 102.0).abs() < 1e-6);
    }

    /// The operator as its definition reads: every tap of every channel
    /// sampled with [`Tensor::sample_bilinear`], then the dot product in
    /// ascending weight order (exact-zero weights contribute nothing).
    fn reference_forward(d: &DeformConv2d, x: &Tensor, off: &Tensor) -> Tensor {
        let (_, _, h, w) = x.shape().dims();
        let kk = d.k * d.k;
        let pad = d.padding as f32;
        Tensor::from_fn(Shape::new(1, d.c_out, h, w), |_, co, oy, ox| {
            let mut acc = d.bias[co];
            for ci in 0..d.c_in {
                let g = ci / (d.c_in / d.groups);
                for tap in 0..kk {
                    let wv = d.weight[(co * d.c_in + ci) * kk + tap];
                    if wv == 0.0 {
                        continue;
                    }
                    let dy = off.at(0, (g * kk + tap) * 2, oy, ox);
                    let dx = off.at(0, (g * kk + tap) * 2 + 1, oy, ox);
                    let sy = oy as f32 - pad + (tap / d.k) as f32 + dy;
                    let sx = ox as f32 - pad + (tap % d.k) as f32 + dx;
                    acc += x.sample_bilinear(0, ci, sy, sx) * wv;
                }
            }
            acc
        })
    }

    /// Live-tap sampling must equal the definition bit for bit — for
    /// dense kernels (every tap live), the codec's centre-tap Dirac
    /// kernels (1 live tap of 9), and mixtures — including offsets that
    /// throw samples far outside the frame, at every worker count.
    #[test]
    fn live_tap_sampling_matches_sampling_every_tap() {
        let (c_out, c_in, k, groups) = (5, 8, 3, 2);
        let kk = k * k;
        let dense = DeformConv2d::randn(c_out, c_in, k, 1, groups, 41).unwrap();
        let mut dirac = vec![0.0_f32; c_out * c_in * kk];
        for co in 0..c_out {
            dirac[(co * c_in + co % c_in) * kk + 4] = 1.0;
        }
        // Group 0 keeps taps {0, 4}, group 1 keeps tap 7 only, and one
        // output channel has no weights at all.
        let mut mixed = dense.weight.clone();
        for (i, wv) in mixed.iter_mut().enumerate() {
            let (co, ci, tap) = (i / (c_in * kk), i / kk % c_in, i % kk);
            let keep = if ci < 4 {
                tap == 0 || tap == 4
            } else {
                tap == 7
            };
            if !keep || co == 3 {
                *wv = 0.0;
            }
        }
        let bias = vec![0.25, -0.5, 0.0, 1.5, -0.0];
        let build = |weight: Vec<f32>| {
            DeformConv2d::new(weight, bias.clone(), c_out, c_in, k, 1, groups).unwrap()
        };
        let (dirac, mixed) = (build(dirac), build(mixed));
        assert_eq!(dense.live.len(), groups * kk);
        assert_eq!(dirac.live, vec![(0, 4), (1, 4)]);
        assert_eq!(mixed.live, vec![(0, 0), (0, 4), (1, 7)]);

        let (h, w) = (96, 112);
        let x = Tensor::from_fn(Shape::new(1, c_in, h, w), |_, c, y, xx| {
            ((c * 63 + y * 9 + xx) as f32 * 0.77).sin()
        });
        // Offsets from sub-pixel up to several frame sizes, both signs:
        // partially and wholly outside the frame.
        let off = Tensor::from_fn(
            Shape::new(1, dense.offset_channels(), h, w),
            |_, c, y, xx| {
                let t = ((c * 131 + y * 17 + xx * 5) as f32 * 0.37).sin();
                t * [0.4, 2.5, 12.0, 40.0][(c + y + xx) % 4]
            },
        );
        for (name, d) in [("dense", &dense), ("dirac", &dirac), ("mixed", &mixed)] {
            let want = reference_forward(d, &x, &off);
            // The frame is sized so even one live tap per group clears
            // the work gate and the stripes really fan out.
            let work = h * w * d.live.len() * (c_in / groups) * 4;
            assert!(work as u64 >= nvc_core::PAR_MIN_WORK, "{name}");
            for threads in [1, 2, 4] {
                let got = d
                    .forward_ctx(&x, &off, &ExecCtx::with_threads(threads))
                    .unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "{name}, {threads} threads");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_config() {
        assert!(DeformConv2d::randn(4, 3, 3, 1, 2, 0).is_err()); // 2 ∤ 3
        assert!(DeformConv2d::randn(4, 4, 0, 0, 2, 0).is_err());
        let d = DeformConv2d::randn(4, 4, 3, 1, 2, 0).unwrap();
        let x = Tensor::zeros(Shape::new(1, 4, 5, 5));
        let bad_off = Tensor::zeros(Shape::new(1, 7, 5, 5));
        assert!(d.forward_ctx(&x, &bad_off, &ExecCtx::serial()).is_err());
        let bad_spatial = Tensor::zeros(Shape::new(1, d.offset_channels(), 4, 5));
        assert!(d.forward_ctx(&x, &bad_spatial, &ExecCtx::serial()).is_err());
    }
}
