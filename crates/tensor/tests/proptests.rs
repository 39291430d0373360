//! Randomized-but-deterministic tests for the tensor substrate.
//!
//! The key invariant here is the adjoint relationship between convolution
//! and transposed convolution — the mathematical fact the FTA fast
//! deconvolution algorithm in `nvc-fastalg` relies on. Case generation is
//! driven by the in-tree [`SplitMix64`] PRNG, so no external test
//! dependencies are needed.

use nvc_core::ExecCtx;
use nvc_tensor::init::SplitMix64;
use nvc_tensor::ops::{Conv2d, DeConv2d, MaxPool2d};
use nvc_tensor::{Shape, Tensor};

const CASES: usize = 48;

fn small_tensor(rng: &mut SplitMix64, c: usize, h: usize, w: usize) -> Tensor {
    let data: Vec<f32> = (0..c * h * w).map(|_| rng.next_f32() * 8.0 - 4.0).collect();
    Tensor::from_vec(Shape::new(1, c, h, w), data).unwrap()
}

fn dot(a: &Tensor, b: &Tensor) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// <Conv(x), y> == <x, ConvT(y)> for stride-1 3x3 convolution.
#[test]
fn conv_deconv_are_adjoint_stride1() {
    let mut rng = SplitMix64::new(0xADD_0001);
    for _ in 0..CASES {
        let x = small_tensor(&mut rng, 2, 6, 6);
        let y = small_tensor(&mut rng, 3, 6, 6);
        let seed = rng.next_u64() % 1000;
        let conv = Conv2d::randn(3, 2, 3, 1, 1, seed).unwrap();
        // Build the adjoint deconv: swap channel roles, same kernels.
        let deconv = DeConv2d::from_fn(2, 3, 3, 1, 1, |ci, co, kh, kw| {
            conv.kernel_slice(ci, co)[kh * 3 + kw]
        })
        .unwrap();
        let cx = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let dy = deconv.forward_ctx(&y, &ExecCtx::serial()).unwrap();
        let lhs = dot(&cx, &y);
        let rhs = dot(&x, &dy);
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }
}

/// Same adjoint identity for the stride-2 4x4 configuration the paper's
/// fast deconvolution targets.
#[test]
fn conv_deconv_are_adjoint_stride2() {
    let mut rng = SplitMix64::new(0xADD_0002);
    for _ in 0..CASES {
        let x = small_tensor(&mut rng, 2, 8, 8);
        let y = small_tensor(&mut rng, 2, 4, 4);
        let seed = rng.next_u64() % 1000;
        // Conv k=4 s=2 p=1 maps 8x8 -> 4x4; its adjoint maps 4x4 -> 8x8.
        let conv = Conv2d::randn(2, 2, 4, 2, 1, seed).unwrap();
        let deconv = DeConv2d::from_fn(2, 2, 4, 2, 1, |ci, co, kh, kw| {
            conv.kernel_slice(ci, co)[kh * 4 + kw]
        })
        .unwrap();
        let cx = conv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let dy = deconv.forward_ctx(&y, &ExecCtx::serial()).unwrap();
        assert_eq!(cx.shape().dims(), (1, 2, 4, 4));
        assert_eq!(dy.shape().dims(), (1, 2, 8, 8));
        let lhs = dot(&cx, &y);
        let rhs = dot(&x, &dy);
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }
}

/// Convolution is linear in its input (zero bias).
#[test]
fn conv_is_linear() {
    let mut rng = SplitMix64::new(0xADD_0003);
    for _ in 0..CASES {
        let x = small_tensor(&mut rng, 2, 5, 5);
        let y = small_tensor(&mut rng, 2, 5, 5);
        let a = rng.next_f32() * 4.0 - 2.0;
        let seed = rng.next_u64() % 1000;
        let conv = Conv2d::randn(3, 2, 3, 1, 1, seed).unwrap();
        let lhs = conv
            .forward_ctx(&x.scale(a).add(&y).unwrap(), &ExecCtx::serial())
            .unwrap();
        let rhs = conv
            .forward_ctx(&x, &ExecCtx::serial())
            .unwrap()
            .scale(a)
            .add(&conv.forward_ctx(&y, &ExecCtx::serial()).unwrap())
            .unwrap();
        assert!(lhs.sub(&rhs).unwrap().max_abs() < 1e-3);
    }
}

/// Channel concat followed by slicing returns the original tensors.
#[test]
fn concat_slice_roundtrip() {
    let mut rng = SplitMix64::new(0xADD_0004);
    for _ in 0..CASES {
        let a = small_tensor(&mut rng, 1, 4, 4);
        let b = small_tensor(&mut rng, 3, 4, 4);
        let c = small_tensor(&mut rng, 2, 4, 4);
        let cat = Tensor::concat_channels(&[&a, &b, &c]).unwrap();
        assert_eq!(cat.slice_channels(0, 1).unwrap(), a);
        assert_eq!(cat.slice_channels(1, 3).unwrap(), b);
        assert_eq!(cat.slice_channels(4, 2).unwrap(), c);
    }
}

/// Bilinear sampling at integer coordinates equals direct indexing.
#[test]
fn bilinear_at_integers_is_exact() {
    let mut rng = SplitMix64::new(0xADD_0005);
    for _ in 0..CASES {
        let t = small_tensor(&mut rng, 1, 5, 5);
        for h in 0..5usize {
            for w in 0..5usize {
                let s = t.sample_bilinear(0, 0, h as f32, w as f32);
                assert!((s - t.at(0, 0, h, w)).abs() < 1e-6);
            }
        }
    }
}

/// Max pooling returns the true maximum of each window.
#[test]
fn maxpool_matches_bruteforce() {
    let mut rng = SplitMix64::new(0xADD_0006);
    for _ in 0..CASES {
        let t = small_tensor(&mut rng, 2, 6, 6);
        let pool = MaxPool2d::new(2).unwrap();
        let y = pool.forward(&t).unwrap();
        for c in 0..2usize {
            for oy in 0..3usize {
                for ox in 0..3usize {
                    let m = (0..2)
                        .flat_map(|dy| (0..2).map(move |dx| (dy, dx)))
                        .map(|(dy, dx)| t.at(0, c, oy * 2 + dy, ox * 2 + dx))
                        .fold(f32::NEG_INFINITY, f32::max);
                    assert_eq!(y.at(0, c, oy, ox), m);
                }
            }
        }
    }
}

/// MSE is zero iff tensors are equal, symmetric, and scales quadratically.
#[test]
fn mse_properties() {
    let mut rng = SplitMix64::new(0xADD_0007);
    for _ in 0..CASES {
        let t = small_tensor(&mut rng, 1, 4, 4);
        let off = 0.1 + rng.next_f32() * 2.9;
        assert_eq!(t.mse(&t).unwrap(), 0.0);
        let shifted = t.map(|v| v + off);
        let fwd = t.mse(&shifted).unwrap();
        let bwd = shifted.mse(&t).unwrap();
        assert!((fwd - bwd).abs() < 1e-9);
        assert!((fwd - (off as f64).powi(2)).abs() < 1e-3);
    }
}
