//! The FTA family's unit tests of [`FastLayer`](crate::FastLayer), under
//! the module path they have had since the family had a file of its own.

use crate::{FastDeConv2d, Sparsity};
use nvc_core::ExecCtx;
use nvc_tensor::ops::DeConv2d;
use nvc_tensor::{Shape, Tensor};

fn ramp(c: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn(Shape::new(1, c, h, w), |_, ci, y, x| {
        ((ci + 1) as f32) * 0.07 * (((y * 3 + x * 5) % 11) as f32 - 5.0)
    })
}

#[test]
fn dense_fast_deconv_matches_direct() {
    let deconv = DeConv2d::randn(3, 2, 4, 2, 1, 31).unwrap();
    let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
    let x = ramp(2, 9, 6);
    let direct = deconv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
    let fastv = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
    assert_eq!(direct.shape(), fastv.shape());
    let diff = direct.sub(&fastv).unwrap().max_abs();
    assert!(diff < 1e-4, "max diff {diff}");
}

#[test]
fn sizes_not_multiple_of_three_are_cropped() {
    let deconv = DeConv2d::randn(2, 2, 4, 2, 1, 32).unwrap();
    let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
    for (h, w) in [(4, 5), (7, 8), (3, 10)] {
        let x = ramp(2, h, w);
        let direct = deconv.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let fastv = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(fastv.shape().dims(), (1, 2, 2 * h, 2 * w));
        let diff = direct.sub(&fastv).unwrap().max_abs();
        assert!(diff < 1e-4, "{h}x{w}: max diff {diff}");
    }
}

#[test]
fn bias_is_preserved() {
    let mut weight = vec![0.0; 2 * 16];
    weight.iter_mut().for_each(|v| *v = 0.0);
    let deconv = DeConv2d::new(weight, vec![0.75, -2.0], 2, 1, 4, 2, 1).unwrap();
    let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
    let y = fast
        .forward_ctx(&Tensor::zeros(Shape::new(1, 1, 3, 3)), &ExecCtx::serial())
        .unwrap();
    assert!((y.at(0, 0, 3, 3) - 0.75).abs() < 1e-6);
    assert!((y.at(0, 1, 0, 0) + 2.0).abs() < 1e-6);
}

#[test]
fn pruned_deconv_keeps_half_the_weights() {
    // Smooth, bilinear-like upsampling kernels (outer([1,3,3,1]/4))
    // concentrate transform energy, like a real codec's synthesis
    // filters do.
    let tap = [1.0_f32, 3.0, 3.0, 1.0];
    let deconv = DeConv2d::from_fn(4, 4, 4, 2, 1, |ci, co, kh, kw| {
        let scale = if co == ci { 1.0 } else { 0.05 };
        scale * tap[kh] * tap[kw] / 16.0
    })
    .unwrap();
    let dense = FastDeConv2d::from_deconv(&deconv).unwrap();
    let sparse = FastDeConv2d::from_deconv_pruned(&deconv, Sparsity::new(0.5).unwrap()).unwrap();
    assert_eq!(dense.nnz_total(), 16 * 64);
    assert!(sparse.nnz_total() <= 16 * 32);
    // Smooth, natural-feature-like input (see fast_conv tests).
    let x = Tensor::from_fn(Shape::new(1, 4, 6, 6), |_, c, y, xx| {
        1.0 + 0.5 * ((y as f32 * 0.5 + xx as f32 * 0.35 + c as f32).sin())
    });
    let yd = dense.forward_ctx(&x, &ExecCtx::serial()).unwrap();
    let ys = sparse.forward_ctx(&x, &ExecCtx::serial()).unwrap();
    let rel = ys.sub(&yd).unwrap().max_abs() / yd.max_abs().max(1e-6);
    assert!(
        rel < 0.6,
        "pruning must keep smooth kernels close, rel={rel}"
    );
}

#[test]
fn rejects_unsupported_configurations() {
    let k3 = DeConv2d::randn(2, 2, 3, 2, 1, 0).unwrap();
    assert!(FastDeConv2d::from_deconv(&k3).is_err());
    let s1 = DeConv2d::randn(2, 2, 4, 1, 1, 0).unwrap();
    assert!(FastDeConv2d::from_deconv(&s1).is_err());
    let deconv = DeConv2d::randn(2, 3, 4, 2, 1, 0).unwrap();
    let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
    assert!(fast
        .forward_ctx(&Tensor::zeros(Shape::new(1, 2, 4, 4)), &ExecCtx::serial())
        .is_err());
}

#[test]
fn mult_counts_match_paper() {
    // One 6x6 output tile of a dense fast deconv costs 64 muls per
    // kernel — the number quoted in §IV-B of the paper.
    let deconv = DeConv2d::randn(1, 1, 4, 2, 1, 0).unwrap();
    let fast = FastDeConv2d::from_deconv(&deconv).unwrap();
    assert_eq!(fast.transform().mults_per_tile(), 64);
    assert_eq!(fast.tile_count(3, 3), (1, 1));
    assert_eq!(fast.hadamard_mults(3, 3), 64);
}
