use crate::init::{he_std, Gaussian};
use crate::{Shape, Tensor, TensorError};
use nvc_core::ExecCtx;

/// 2-D convolution with square kernel, symmetric zero padding and uniform
/// stride — the workhorse of CTVC-Net (`Conv(N, k, s)` in paper Fig. 2).
///
/// Weight layout is `[c_out][c_in][k][k]` row-major; one bias per output
/// channel.
///
/// # Example
///
/// ```
/// use nvc_tensor::{Shape, Tensor, ops::Conv2d};
/// # fn main() -> Result<(), nvc_tensor::TensorError> {
/// // 3x3 box filter that preserves resolution.
/// let conv = Conv2d::from_fn(1, 1, 3, 1, 1, |_, _, _, _| 1.0 / 9.0)?;
/// let x = Tensor::filled(Shape::new(1, 1, 5, 5), 9.0);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.at(0, 0, 2, 2), 9.0); // interior average of a constant
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Vec<f32>,
    bias: Vec<f32>,
    c_out: usize,
    c_in: usize,
    k: usize,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a convolution from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer lengths do not match
    /// `c_out * c_in * k * k` / `c_out`, or if `stride == 0` or `k == 0`.
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
        Ok(Conv2d {
            weight,
            bias,
            c_out,
            c_in,
            k,
            stride,
            padding,
        })
    }

    /// Creates a convolution with He-initialised Gaussian weights and zero
    /// biases, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if `stride == 0` or `k == 0`.
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
        Conv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
    }

    /// Creates a convolution whose weight at `(c_out, c_in, kh, kw)` is
    /// produced by `f`, with zero biases.
    ///
    /// # Errors
    ///
    /// Returns an error if `stride == 0` or `k == 0`.
    pub fn from_fn(
        c_out: usize,
        c_in: usize,
        k: usize,
        stride: usize,
        padding: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut weight = Vec::with_capacity(c_out * c_in * k * k);
        for co in 0..c_out {
            for ci in 0..c_in {
                for kh in 0..k {
                    for kw in 0..k {
                        weight.push(f(co, ci, kh, kw));
                    }
                }
            }
        }
        Conv2d::new(weight, vec![0.0; c_out], c_out, c_in, k, stride, padding)
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

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding applied on each spatial border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Read-only weight buffer, `[c_out][c_in][k][k]` row-major.
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

    /// Mutable bias buffer.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The `k × k` kernel for output channel `co`, input channel `ci`.
    ///
    /// # Panics
    ///
    /// Panics if `co` or `ci` is out of range.
    pub fn kernel_slice(&self, co: usize, ci: usize) -> &[f32] {
        assert!(
            co < self.c_out && ci < self.c_in,
            "kernel ({co},{ci}) out of range"
        );
        let kk = self.k * self.k;
        let base = (co * self.c_in + ci) * kk;
        &self.weight[base..base + kk]
    }

    /// Spatial output size for an `h × w` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.k) / self.stride + 1,
            (w + 2 * self.padding - self.k) / self.stride + 1,
        )
    }

    /// Runs the convolution single-threaded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Incompatible`] if the input channel count is
    /// not `c_in` or the padded input is smaller than the kernel.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_ctx(input, &ExecCtx::serial())
    }

    /// Runs the convolution, fanning output channels across `ctx`'s worker
    /// pool. Each output plane is computed independently with a fixed
    /// accumulation order (`c_in` ascending, then kernel taps row-major),
    /// so the result is bit-identical for every worker count. The fan-out
    /// is work-size gated: small planes (decode-side latent shapes) run
    /// serially because worker spawn overhead would dominate.
    ///
    /// A strided convolution first de-interleaves every input row into
    /// its `stride` column phases, so each tap reads one phase at unit
    /// stride like the `stride == 1` case does.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Conv2d::forward`].
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
        let out_shape = Shape::new(n, self.c_out, oh, ow);
        let mut out = Tensor::zeros(out_shape);
        let s = self.stride;
        // Column `ix` of a row is element `ix / s` of its phase run
        // `ix % s`; runs are `run_len` apart, padded where `s ∤ w`.
        let run_len = w.div_ceil(s);
        // Unit stride reads the input as it is, and so does an empty row.
        let staged = (s > 1 && w > 0).then(|| {
            let mut staged = ctx.scratch().take_stale(n * c * h * s * run_len);
            for (runs, row) in staged
                .chunks_exact_mut(s * run_len)
                .zip(input.as_slice().chunks_exact(w))
            {
                for (r, run) in runs.chunks_exact_mut(run_len).enumerate() {
                    for (d, &v) in run.iter_mut().zip(row.iter().skip(r).step_by(s)) {
                        *d = v;
                    }
                }
            }
            staged
        });
        let in_data = staged.as_deref().unwrap_or(input.as_slice());
        let pad = self.padding as isize;
        let spans = |len: usize, out_len: usize| -> Vec<TapSpan> {
            (0..self.k)
                .map(|kk| TapSpan::new(kk as isize - pad, s, len, out_len))
                .collect()
        };
        let (rows, cols) = (spans(h, oh), spans(w, ow));
        let plane_len = h * s * run_len;
        let work = n as u64 * self.macs(h, w);
        ctx.par_chunks_mut_gated(out.as_mut_slice(), oh * ow, work, |plane_idx, out_plane| {
            let nn = plane_idx / self.c_out;
            let co = plane_idx % self.c_out;
            let in_planes = &in_data[nn * self.c_in * plane_len..][..self.c_in * plane_len];
            self.forward_plane(in_planes, run_len, &rows, &cols, co, ow, out_plane);
        });
        if let Some(staged) = staged {
            ctx.scratch().put(staged);
        }
        Ok(out)
    }

    /// Computes one output-channel plane from phase-split input rows
    /// (`stride` runs of `run_len` elements each). Every tap's rows and
    /// columns are clipped up front (`rows[kh]`, `cols[kw]`), so the loops
    /// carry no bounds or padding checks.
    #[allow(clippy::too_many_arguments)]
    fn forward_plane(
        &self,
        in_planes: &[f32],
        run_len: usize,
        rows: &[TapSpan],
        cols: &[TapSpan],
        co: usize,
        ow: usize,
        out_plane: &mut [f32],
    ) {
        out_plane.fill(self.bias[co]);
        let s = self.stride;
        let plane_len = in_planes.len().checked_div(self.c_in).unwrap_or(0);
        for ci in 0..self.c_in {
            let in_plane = &in_planes[ci * plane_len..][..plane_len];
            let kernel = self.kernel_slice(co, ci);
            for (k_row, rows) in kernel.chunks_exact(self.k).zip(rows) {
                for (&kv, cols) in k_row.iter().zip(cols) {
                    if kv == 0.0 || rows.count == 0 || cols.count == 0 {
                        continue;
                    }
                    // Input row `iy = (rows.first + j)·s + rows.run` starts
                    // at `iy · s · run_len`; its phase `cols.run` follows.
                    let first_run = (rows.first * s + rows.run) * s + cols.run;
                    let in_rows = in_plane[first_run * run_len..].chunks(s * s * run_len);
                    let out_rows = out_plane[rows.out_min * ow..].chunks_exact_mut(ow);
                    for (out_row, run) in out_rows.zip(in_rows).take(rows.count) {
                        for (o, &v) in out_row[cols.out_min..][..cols.count]
                            .iter_mut()
                            .zip(&run[cols.first..][..cols.count])
                        {
                            *o += kv * v;
                        }
                    }
                }
            }
        }
    }

    /// Number of multiply–accumulate operations for an `h × w` input, used
    /// by the performance model.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        (self.c_out * self.c_in * self.k * self.k) as u64 * (oh * ow) as u64
    }
}

/// Where one kernel row or column reads and writes along its axis:
/// outputs `out_min..out_min + count` take elements
/// `first..first + count` of input phase `run`, because input index
/// `i = o·s + shift = (o + q)·s + run`.
struct TapSpan {
    out_min: usize,
    count: usize,
    run: usize,
    first: usize,
}

impl TapSpan {
    /// Clips `0 ≤ o·s + shift < len` to `0 ≤ o < out_len`; `shift` is the
    /// tap's kernel index minus the padding.
    fn new(shift: isize, s: usize, len: usize, out_len: usize) -> Self {
        let out_min = ((-shift).max(0) as usize).div_ceil(s);
        let out_end = match usize::try_from(len as isize - shift) {
            Ok(lim) if lim > 0 => ((lim - 1) / s + 1).min(out_len),
            _ => 0,
        };
        TapSpan {
            out_min,
            count: out_end.saturating_sub(out_min),
            run: shift.rem_euclid(s as isize) as usize,
            // Non-negative whenever the span is non-empty.
            first: (out_min as isize + shift.div_euclid(s as isize)).max(0) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;
    use crate::ops::test_util::{bits, sparse_values};

    /// The strided gather loop (`ix += s` per output column, straight
    /// off the unstaged input) that the phase-split path replaced, kept
    /// as the bit-exact reference: same taps, same order.
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

    #[test]
    fn phase_split_matches_strided_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5EED_C0DE);
        let mut cases = 0;
        for k in 2..=5 {
            for s in 1..=4 {
                for p in 0..k {
                    for (h, w) in [(1, 1), (3, 5), (17, 9), (34, 50)] {
                        if h + 2 * p < k || w + 2 * p < k {
                            continue;
                        }
                        let c = random_conv(&mut rng, 3, 2, (k, s, p));
                        let x = Tensor::from_vec(
                            Shape::new(2, 2, h, w),
                            sparse_values(&mut rng, 2 * 2 * h * w, 0.25),
                        )
                        .unwrap();
                        let want = strided_reference(&c, &x);
                        let got = c.forward(&x).unwrap();
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
    fn zero_weights_zero_inputs_and_negative_zero_bias_match_reference() {
        let mut rng = SplitMix64::new(8);
        let x = Tensor::from_vec(Shape::new(1, 2, 6, 7), sparse_values(&mut rng, 84, 0.3)).unwrap();
        let zeros = Tensor::zeros(Shape::new(1, 2, 6, 7));
        for bias in [0.0, -0.0, 1.5] {
            let all_zero = Conv2d::new(vec![0.0; 3 * 2 * 9], vec![bias; 3], 3, 2, 3, 2, 1).unwrap();
            let y = all_zero.forward(&x).unwrap();
            assert_eq!(bits(&y), bits(&strided_reference(&all_zero, &x)));
            assert!(bits(&y).iter().all(|&b| b == bias.to_bits()));
            let mut c = random_conv(&mut rng, 3, 2, (3, 2, 1));
            c.bias.fill(bias);
            assert_eq!(
                bits(&c.forward(&zeros).unwrap()),
                bits(&strided_reference(&c, &zeros))
            );
            assert_eq!(
                bits(&c.forward(&x).unwrap()),
                bits(&strided_reference(&c, &x))
            );
        }
    }

    #[test]
    fn every_thread_count_matches_above_the_work_gate() {
        let mut rng = SplitMix64::new(5);
        let c = random_conv(&mut rng, 7, 6, (3, 2, 1));
        let x = Tensor::from_vec(
            Shape::new(2, 6, 34, 50),
            sparse_values(&mut rng, 2 * 6 * 34 * 50, 0.1),
        )
        .unwrap();
        assert!(2 * c.macs(34, 50) >= nvc_core::PAR_MIN_WORK);
        let want = bits(&strided_reference(&c, &x));
        for threads in [1, 2, 3, 7] {
            let got = c.forward_ctx(&x, &ExecCtx::with_threads(threads)).unwrap();
            assert_eq!(bits(&got), want, "threads={threads}");
        }
    }

    #[test]
    fn poisoned_recycled_staging_is_never_read() {
        // 7 columns at stride 3: runs of 3, 2 and 2 in slots of 3, so the
        // staging buffer has pad elements that keep the recycled NaNs.
        let mut rng = SplitMix64::new(6);
        let c = random_conv(&mut rng, 2, 3, (5, 3, 2));
        let x =
            Tensor::from_vec(Shape::new(1, 3, 6, 7), sparse_values(&mut rng, 126, 0.2)).unwrap();
        let ctx = ExecCtx::serial();
        ctx.scratch().put(vec![f32::NAN; 4096]);
        let got = c.forward_ctx(&x, &ctx).unwrap();
        assert_eq!(bits(&got), bits(&strided_reference(&c, &x)));
        assert_eq!(ctx.scratch().cached(), 1, "staging goes back to the pool");
        // A padded empty input has nothing to stage.
        let wide = Conv2d::randn(1, 1, 2, 2, 1, 0).unwrap();
        let y = wide
            .forward(&Tensor::zeros(Shape::new(1, 1, 0, 0)))
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
        let y = conv.forward(&x).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn known_3x3_convolution_value() {
        // All-ones kernel on a ramp; interior output = sum of 3x3 patch.
        let conv = Conv2d::from_fn(1, 1, 3, 1, 1, |_, _, _, _| 1.0).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 1, 3, 3), |_, _, h, w| (h * 3 + w) as f32);
        let y = conv.forward(&x).unwrap();
        // Centre: sum 0..=8 = 36.
        assert_eq!(y.at(0, 0, 1, 1), 36.0);
        // Corner (0,0): only pixels (0,0),(0,1),(1,0),(1,1) = 0+1+3+4 = 8.
        assert_eq!(y.at(0, 0, 0, 0), 8.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let conv = Conv2d::from_fn(2, 3, 3, 2, 1, |_, _, _, _| 0.1).unwrap();
        let x = Tensor::zeros(Shape::new(1, 3, 8, 10));
        let y = conv.forward(&x).unwrap();
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
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[21.5, 42.5]);
    }

    #[test]
    fn bias_is_applied_per_channel() {
        let conv = Conv2d::new(vec![0.0; 2 * 9], vec![3.0, -1.0], 2, 1, 3, 1, 1).unwrap();
        let x = Tensor::zeros(Shape::new(1, 1, 2, 2));
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), 3.0);
        assert_eq!(y.at(0, 1, 1, 1), -1.0);
    }

    #[test]
    fn validation_rejects_bad_config() {
        assert!(Conv2d::new(vec![0.0; 8], vec![0.0], 1, 1, 3, 1, 1).is_err());
        assert!(Conv2d::new(vec![0.0; 9], vec![0.0; 2], 1, 1, 3, 1, 1).is_err());
        assert!(Conv2d::randn(1, 1, 0, 1, 0, 0).is_err());
        assert!(Conv2d::randn(1, 1, 3, 0, 1, 0).is_err());
        let conv = Conv2d::randn(4, 3, 3, 1, 1, 0).unwrap();
        let bad = Tensor::zeros(Shape::new(1, 2, 8, 8));
        assert!(conv.forward(&bad).is_err());
        let tiny = Tensor::zeros(Shape::new(1, 3, 1, 1));
        let nopad = Conv2d::randn(4, 3, 3, 1, 0, 0).unwrap();
        assert!(nopad.forward(&tiny).is_err());
    }

    #[test]
    fn macs_counts_match_shape() {
        let conv = Conv2d::randn(8, 4, 3, 1, 1, 0).unwrap();
        assert_eq!(conv.macs(10, 10), 8 * 4 * 9 * 100);
        let s2 = Conv2d::randn(8, 4, 3, 2, 1, 0).unwrap();
        assert_eq!(s2.macs(10, 10), 8 * 4 * 9 * 25);
    }
}
