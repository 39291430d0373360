//! Parallel determinism: the codec's worker-pool execution must be
//! bit-exact with serial execution — same packets, same reconstructions —
//! because parallel splits are over output channels, tiles and attention
//! windows only, never over accumulation order.

use nvc_core::ExecCtx;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint, SwinAttention};
use nvc_tensor::{Shape, Tensor};
use nvc_video::codec::encode_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;

fn seq(frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(48, 32, frames)).generate()
}

/// Encodes with an explicit thread count and returns the serialized
/// packets plus the closed-loop reconstructions.
fn encode_with_threads(
    cfg: CtvcConfig,
    threads: usize,
    s: &Sequence,
) -> (Vec<Vec<u8>>, Vec<Vec<f32>>) {
    let codec = CtvcCodec::new(cfg.with_threads(threads)).unwrap();
    let coded = encode_sequence(&codec, s, RatePoint::new(1)).unwrap();
    let packets = coded.packets.iter().map(|p| p.to_bytes()).collect();
    let recon = coded
        .decoded
        .frames()
        .iter()
        .map(|f| f.tensor().as_slice().to_vec())
        .collect();
    (packets, recon)
}

/// Full encode + decode streams are bit-identical across thread counts,
/// for both the direct (FP) and the fast/sparse operator paths.
#[test]
fn encode_decode_streams_are_thread_count_invariant() {
    let s = seq(3);
    for cfg in [CtvcConfig::ctvc_fp(8), CtvcConfig::ctvc_sparse(8)] {
        let name = cfg.name;
        let (ref_packets, ref_recon) = encode_with_threads(cfg.clone(), 1, &s);
        for threads in [2, 4, 0] {
            let (packets, recon) = encode_with_threads(cfg.clone(), threads, &s);
            assert_eq!(
                packets, ref_packets,
                "{name}: packets diverged at {threads} threads"
            );
            assert_eq!(
                recon, ref_recon,
                "{name}: reconstructions diverged at {threads} threads"
            );
        }
        // Decoding the serial stream with a parallel decoder is also
        // bit-exact.
        let parallel = CtvcCodec::new(cfg.clone().with_threads(4)).unwrap();
        let bitstream: Vec<u8> = ref_packets.concat();
        let decoded = parallel.decode(&bitstream).unwrap();
        for (frame, reference) in decoded.frames().iter().zip(&ref_recon) {
            assert_eq!(
                frame.tensor().as_slice(),
                &reference[..],
                "{name}: parallel decode diverged"
            );
        }
    }
}

/// The compressed-kernel (sparse) execution path is bit-exact across
/// worker counts at every pruning level — the grouped lane reduction
/// partitions over output planes and tile groups only, never over
/// accumulation order.
#[test]
fn sparse_operators_are_thread_count_invariant() {
    use nvc_fastalg::{FastConv2d, FastDeConv2d, Sparsity};
    use nvc_tensor::ops::{Conv2d, DeConv2d};
    let x = Tensor::from_fn(Shape::new(1, 3, 11, 13), |_, c, y, xx| {
        0.5 * ((c as f32 * 1.3 + y as f32 * 0.41 + xx as f32 * 0.23).sin())
    });
    for rho in [0.25, 0.5, 0.75, 0.9] {
        let conv = Conv2d::randn(5, 3, 3, 1, 1, 1234).unwrap();
        let fast = FastConv2d::from_conv_pruned(&conv, Sparsity::new(rho).unwrap()).unwrap();
        let deconv = DeConv2d::randn(4, 3, 4, 2, 1, 777).unwrap();
        let fast_de =
            FastDeConv2d::from_deconv_pruned(&deconv, Sparsity::new(rho).unwrap()).unwrap();
        let conv_ref = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let deconv_ref = fast_de.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        for threads in [2, 5, 16] {
            let ctx = ExecCtx::with_threads(threads);
            assert_eq!(
                fast.forward_ctx(&x, &ctx).unwrap().as_slice(),
                conv_ref.as_slice(),
                "sparse FastConv2d rho={rho} diverged at {threads} threads"
            );
            assert_eq!(
                fast_de.forward_ctx(&x, &ctx).unwrap().as_slice(),
                deconv_ref.as_slice(),
                "sparse FastDeConv2d rho={rho} diverged at {threads} threads"
            );
        }
    }
}

/// End-to-end determinism of the sparse codec at a pruning level other
/// than the stock 50 % (the config knob feeds every `LayerOp`):
/// packets and reconstructions must not depend on the worker count.
#[test]
fn sparse_codec_at_custom_rho_is_thread_count_invariant() {
    let s = seq(2);
    let mut cfg = CtvcConfig::ctvc_sparse(8);
    cfg.sparsity = Some(0.75);
    let (ref_packets, ref_recon) = encode_with_threads(cfg.clone(), 1, &s);
    for threads in [2, 4] {
        let (packets, recon) = encode_with_threads(cfg.clone(), threads, &s);
        assert_eq!(packets, ref_packets, "rho=0.75 packets diverged");
        assert_eq!(recon, ref_recon, "rho=0.75 reconstructions diverged");
    }
}

/// The window-parallel Swin attention is bit-exact across worker counts,
/// including shifted windows and non-multiple spatial sizes.
#[test]
fn swin_attention_is_thread_count_invariant() {
    let x = Tensor::from_fn(Shape::new(1, 8, 11, 13), |_, c, y, xx| {
        0.4 * ((c as f32 * 0.9 + y as f32 * 0.31 + xx as f32 * 0.17).sin())
    });
    for shift in [0, 2] {
        let attn = SwinAttention::new(8, 3, shift, 2, 77).unwrap();
        let reference = attn.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        for threads in [2, 3, 8] {
            let got = attn
                .forward_ctx(&x, &ExecCtx::with_threads(threads))
                .unwrap();
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "shift {shift} diverged at {threads} threads"
            );
        }
    }
}

/// The thread knob is carried by the configuration and surfaces on the
/// codec's execution context.
#[test]
fn thread_config_reaches_the_codec() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8).with_threads(3)).unwrap();
    assert_eq!(codec.exec().threads(), 3);
    let auto = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    assert!(auto.exec().threads() >= 1);
}
