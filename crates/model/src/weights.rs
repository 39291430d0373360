//! Analytic weight constructions — the reproduction's substitute for
//! trained parameters (see the crate docs, "Substitutions").

use nvc_tensor::init::Gaussian;
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_tensor::TensorError;

/// 1-D binomial low-pass taps `[1, 2, 1] / 4`.
pub const GAUSS3: [f32; 3] = [0.25, 0.5, 0.25];

/// 1-D bilinear synthesis taps for `DeConv(·, 4, 2)`: each output phase
/// sums to 1, so upsampling preserves DC exactly.
pub const BILINEAR4: [f32; 4] = [0.25, 0.75, 0.75, 0.25];

/// Builds a 3×3 convolution whose output channel `co` is a weighted sum of
/// center-tap (Dirac) contributions given by `taps(co) -> Vec<(ci, gain)>`.
pub fn dirac_conv(
    c_out: usize,
    c_in: usize,
    taps: impl Fn(usize) -> Vec<(usize, f32)>,
) -> Result<Conv2d, TensorError> {
    Conv2d::from_fn(c_out, c_in, 3, 1, 1, |co, ci, kh, kw| {
        if kh == 1 && kw == 1 {
            taps(co)
                .iter()
                .find(|(i, _)| *i == ci)
                .map(|&(_, g)| g)
                .unwrap_or(0.0)
        } else {
            0.0
        }
    })
}

/// Anti-aliased stride-2 downsampling convolution (`Conv(c_out, 3, 2)`):
/// channel `j < keep` low-pass filters channel `j`; channels `>= keep` are
/// small seeded kernels so the layer still exercises the full array.
pub fn pyramid_down_conv(
    c_out: usize,
    c_in: usize,
    keep: usize,
    seed: u64,
) -> Result<Conv2d, TensorError> {
    let mut g = Gaussian::new(seed);
    Conv2d::from_fn(c_out, c_in, 3, 2, 1, |co, ci, kh, kw| {
        if co < keep && co < c_in && ci == co {
            GAUSS3[kh] * GAUSS3[kw]
        } else if co >= keep {
            g.sample(0.0, 0.01)
        } else {
            0.0
        }
    })
}

/// Bilinear upsampling deconvolution (`DeConv(c_out, 4, 2)`): channel
/// `j < keep` bilinearly upsamples channel `j` with gain `gain`.
pub fn bilinear_up_deconv(
    c_out: usize,
    c_in: usize,
    keep: usize,
    gain: f32,
) -> Result<DeConv2d, TensorError> {
    DeConv2d::from_fn(c_out, c_in, 4, 2, 1, |ci, co, kh, kw| {
        if co < keep && ci == co {
            gain * BILINEAR4[kh] * BILINEAR4[kw]
        } else {
            0.0
        }
    })
}

/// Bilinear RGB synthesis deconvolution for frame reconstruction: output
/// channel `c ∈ {0,1,2}` = `0.5 · up(ch c) − 0.5 · up(ch c+3)`, combining
/// the max-pooled `+x` and `−x` polyphase channels into an unbiased
/// midpoint estimate.
pub fn rgb_synthesis_deconv(c_in: usize) -> Result<DeConv2d, TensorError> {
    DeConv2d::from_fn(3, c_in, 4, 2, 1, |ci, co, kh, kw| {
        let tap = BILINEAR4[kh] * BILINEAR4[kw];
        if ci == co {
            0.5 * tap
        } else if ci == co + 3 {
            -0.5 * tap
        } else {
            0.0
        }
    })
}

/// Near-identity 3×3 convolution: Dirac + small seeded perturbation. Used
/// inside residual blocks so they perturb rather than destroy the signal
/// while still exercising dense compute.
pub fn near_identity_conv(c: usize, std: f32, seed: u64) -> Result<Conv2d, TensorError> {
    let mut g = Gaussian::new(seed);
    Conv2d::from_fn(c, c, 3, 1, 1, |co, ci, kh, kw| {
        let base = if co == ci && kh == 1 && kw == 1 {
            1.0
        } else {
            0.0
        };
        base + g.sample(0.0, std)
    })
}

/// Small random 3×3 convolution (residual-branch second conv).
pub fn small_random_conv(
    c_out: usize,
    c_in: usize,
    std: f32,
    seed: u64,
) -> Result<Conv2d, TensorError> {
    let mut g = Gaussian::new(seed);
    Conv2d::from_fn(c_out, c_in, 3, 1, 1, |_, _, _, _| g.sample(0.0, std))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_core::ExecCtx;
    use nvc_tensor::{Shape, Tensor};

    #[test]
    fn bilinear_taps_preserve_dc() {
        // Each stride-2 phase of the 1-D taps sums to 1.
        assert!((BILINEAR4[0] + BILINEAR4[2] - 1.0).abs() < 1e-6);
        assert!((BILINEAR4[1] + BILINEAR4[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bilinear_up_deconv_preserves_constants() {
        let up = bilinear_up_deconv(2, 2, 2, 1.0).unwrap();
        let x = Tensor::filled(Shape::new(1, 2, 4, 4), 0.7);
        let y = up.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape().dims(), (1, 2, 8, 8));
        // Interior samples equal the constant (borders lose mass to the
        // zero padding).
        assert!((y.at(0, 0, 4, 4) - 0.7).abs() < 1e-5);
        assert!((y.at(0, 1, 3, 5) - 0.7).abs() < 1e-5);
    }

    #[test]
    fn pyramid_down_preserves_constants() {
        let down = pyramid_down_conv(4, 2, 2, 1).unwrap();
        let x = Tensor::filled(Shape::new(1, 2, 8, 8), 0.3);
        let y = down.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape().dims(), (1, 4, 4, 4));
        assert!((y.at(0, 0, 2, 2) - 0.3).abs() < 1e-5);
        assert!((y.at(0, 1, 1, 2) - 0.3).abs() < 1e-5);
        // Non-kept channels are near zero.
        assert!(y.at(0, 2, 2, 2).abs() < 0.1);
    }

    #[test]
    fn dirac_conv_routes_channels() {
        let conv = dirac_conv(2, 3, |co| vec![(co + 1, 2.0)]).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 3, 2, 2), |_, c, _, _| c as f32);
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.at(0, 0, 0, 0), 2.0); // 2 * ch1
        assert_eq!(y.at(0, 1, 1, 1), 4.0); // 2 * ch2
    }

    #[test]
    fn near_identity_is_close_to_identity() {
        let conv = near_identity_conv(3, 0.01, 5).unwrap();
        let x = Tensor::from_fn(Shape::new(1, 3, 6, 6), |_, c, h, w| {
            (c as f32 + 1.0) * 0.1 + (h + w) as f32 * 0.01
        });
        let y = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let rel = y.sub(&x).unwrap().max_abs() / x.max_abs();
        assert!(rel < 0.2, "perturbation too large: {rel}");
    }

    #[test]
    fn rgb_synthesis_combines_plus_minus() {
        let up = rgb_synthesis_deconv(8).unwrap();
        // +x channels constant 0.6, -x channels hold -0.6 → recon 0.6.
        let x = Tensor::from_fn(Shape::new(1, 8, 4, 4), |_, c, _, _| match c {
            0..=2 => 0.6,
            3..=5 => -0.6,
            _ => 9.9, // unused channels must not leak
        });
        let y = up.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(y.shape().dims(), (1, 3, 8, 8));
        assert!((y.at(0, 0, 4, 4) - 0.6).abs() < 1e-5);
        assert!((y.at(0, 2, 3, 3) - 0.6).abs() < 1e-5);
    }
}
