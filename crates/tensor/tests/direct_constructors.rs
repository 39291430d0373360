//! The constructors of the two direct layers, pinned over both names:
//! where `from_fn` puts each weight, what each kind validates.
//!
//! `Conv2d` stores its weights `[c_out][c_in][k][k]` and `DeConv2d`
//! `[c_in][c_out][k][k]`; `from_fn` is called with the layout's leading
//! index pair and `kernel_slice` takes the same pair. The forward checks
//! tie that pair to what the layer computes, so swapping it for one kind
//! fails here even where `from_fn` and `kernel_slice` swap together.

use nvc_core::ExecCtx;
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_tensor::{Shape, Tensor};

const C_OUT: usize = 2;
const C_IN: usize = 3;
const K: usize = 2;

/// A distinct, exactly representable value per index tuple.
fn value(a: usize, b: usize, kh: usize, kw: usize) -> f32 {
    (1000 * a + 100 * b + 10 * kh + kw) as f32
}

#[test]
fn from_fn_places_each_value_in_the_kinds_own_index_order() {
    let serial = ExecCtx::serial();
    let conv = Conv2d::from_fn(C_OUT, C_IN, K, 1, 0, value).unwrap();
    let deconv = DeConv2d::from_fn(C_OUT, C_IN, K, 1, 0, value).unwrap();
    for co in 0..C_OUT {
        for ci in 0..C_IN {
            for (kh, kw) in (0..K * K).map(|t| (t / K, t % K)) {
                let t = kh * K + kw;
                assert_eq!(conv.kernel_slice(co, ci)[t], value(co, ci, kh, kw));
                assert_eq!(deconv.kernel_slice(ci, co)[t], value(ci, co, kh, kw));
                assert_eq!(
                    conv.weight()[(co * C_IN + ci) * K * K + t],
                    value(co, ci, kh, kw)
                );
                assert_eq!(
                    deconv.weight()[(ci * C_OUT + co) * K * K + t],
                    value(ci, co, kh, kw)
                );
            }
        }
    }
    // A one-hot input reads one kernel tap back out of each layer.
    for ci in 0..C_IN {
        for (kh, kw) in (0..K * K).map(|t| (t / K, t % K)) {
            let x = Tensor::from_fn(Shape::new(1, C_IN, K, K), |_, c, h, w| {
                f32::from(u8::from((c, h, w) == (ci, kh, kw)))
            });
            let y = conv.forward_ctx(&x, &serial).unwrap();
            for co in 0..C_OUT {
                assert_eq!(y.at(0, co, 0, 0), value(co, ci, kh, kw));
            }
        }
        let x = Tensor::from_fn(Shape::new(1, C_IN, 1, 1), |_, c, _, _| {
            f32::from(u8::from(c == ci))
        });
        let y = deconv.forward_ctx(&x, &serial).unwrap();
        assert_eq!(y.shape().dims(), (1, C_OUT, K, K));
        for co in 0..C_OUT {
            for (kh, kw) in (0..K * K).map(|t| (t / K, t % K)) {
                assert_eq!(y.at(0, co, kh, kw), value(ci, co, kh, kw));
            }
        }
    }
}

const FULL3: usize = C_OUT * C_IN * 9;

/// `[weight len, bias len, k, stride, padding]` for a `C_OUT × C_IN`
/// layer, and whether `Conv2d` and `DeConv2d` accept it.
const VALIDATION: [(&str, [usize; 5], bool, bool); 9] = [
    ("k = 3, s = 1, p = 1", [FULL3, C_OUT, 3, 1, 1], true, true),
    ("k = 0", [0, C_OUT, 0, 1, 0], false, false),
    ("stride = 0", [FULL3, C_OUT, 3, 0, 1], false, false),
    (
        "weight one short",
        [FULL3 - 1, C_OUT, 3, 1, 1],
        false,
        false,
    ),
    ("weight one long", [FULL3 + 1, C_OUT, 3, 1, 1], false, false),
    ("bias one short", [FULL3, C_OUT - 1, 3, 1, 1], false, false),
    ("bias one long", [FULL3, C_OUT + 1, 3, 1, 1], false, false),
    ("k = 3, p = 2", [FULL3, C_OUT, 3, 2, 2], true, false),
    (
        "k = 4, s = 2, p = 1",
        [C_OUT * C_IN * 16, C_OUT, 4, 2, 1],
        true,
        true,
    ),
];

#[test]
fn both_kinds_validate_one_table() {
    for (case, [weights, biases, k, s, p], conv_ok, deconv_ok) in VALIDATION {
        let (w, b) = (vec![0.5; weights], vec![0.0; biases]);
        let conv = Conv2d::new(w.clone(), b.clone(), C_OUT, C_IN, k, s, p);
        let deconv = DeConv2d::new(w, b, C_OUT, C_IN, k, s, p);
        assert_eq!(conv.is_ok(), conv_ok, "Conv2d::new, {case}");
        assert_eq!(deconv.is_ok(), deconv_ok, "DeConv2d::new, {case}");
        // The other constructors size their own buffers and share `new`'s
        // checks of the geometry.
        if (weights, biases) == (C_OUT * C_IN * k * k, C_OUT) {
            let conv_rand = Conv2d::randn(C_OUT, C_IN, k, s, p, 7);
            let deconv_rand = DeConv2d::randn(C_OUT, C_IN, k, s, p, 7);
            let conv_fn = Conv2d::from_fn(C_OUT, C_IN, k, s, p, value);
            let deconv_fn = DeConv2d::from_fn(C_OUT, C_IN, k, s, p, value);
            assert_eq!(conv_rand.is_ok(), conv_ok, "Conv2d::randn, {case}");
            assert_eq!(deconv_rand.is_ok(), deconv_ok, "DeConv2d::randn, {case}");
            assert_eq!(conv_fn.is_ok(), conv_ok, "Conv2d::from_fn, {case}");
            assert_eq!(deconv_fn.is_ok(), deconv_ok, "DeConv2d::from_fn, {case}");
        }
    }
}
