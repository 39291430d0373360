//! Codec shoot-out: the Table I ladder on one sequence — classical
//! profiles vs the learned variants, at comparable rates. Every codec
//! runs through the *same* generic streaming-session path (the
//! [`VideoCodec`] trait), so the harness is one function regardless of
//! codec family.
//!
//! Run with: `cargo run --release --example codec_shootout`

#![forbid(unsafe_code)]

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{stream_roundtrip, VideoCodec};
use nvc_video::metrics::psnr_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;

/// Encode + streaming-decode `seq` with any codec and print one ladder row.
fn run<C: VideoCodec>(name: &str, codec: &C, rate: C::Rate, seq: &Sequence) {
    let (coded, drift) = stream_roundtrip(codec, seq, rate).expect("stream roundtrip");
    assert_eq!(drift, 0.0, "{name}: streaming decode drifted");
    let pairs: Vec<_> = seq.frames().iter().zip(coded.decoded.frames()).collect();
    println!(
        "{name:<22} {:>8.4} bpp  {:>6.2} dB  ({} packets)",
        coded.stats.bpp(seq.pixels_per_frame()),
        psnr_sequence(&pairs).expect("matched sequences"),
        coded.packets.len(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A realistic GOP: with only a few frames the (expensive) intra frame
    // dominates the learned codecs' rate.
    let seq = Synthesizer::new(SceneConfig::hevc_b_like(96, 64, 16)).generate();
    println!(
        "sequence: HEVC-B-like, {}x{}, {} frames\n",
        seq.width(),
        seq.height(),
        seq.frames().len()
    );

    for (name, profile, qp) in [
        ("H.264-like", Profile::avc_like(), 28u8),
        ("H.265-like", Profile::hevc_like(), 28),
    ] {
        run(name, &HybridCodec::new(profile), qp, &seq);
    }

    for (name, cfg) in [
        ("DVC-like", CtvcConfig::dvc_like(12)),
        ("FVC-like", CtvcConfig::fvc_like(12)),
        ("CTVC-Net(FP)", CtvcConfig::ctvc_fp(12)),
        ("CTVC-Net(FXP)", CtvcConfig::ctvc_fxp(12)),
        ("CTVC-Net(Sparse)", CtvcConfig::ctvc_sparse(12)),
    ] {
        run(name, &CtvcCodec::new(cfg)?, RatePoint::new(1), &seq);
    }

    println!("\nThe learned variants spend far fewer bits per P frame; their quality");
    println!("ceiling reflects the analytic (untrained) weights — see README \"Reproducing");
    println!("the paper\" and `cargo run --release -p nvc-bench --bin paper` for full curves.");
    Ok(())
}
