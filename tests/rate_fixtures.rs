//! Byte-identity of [`RateMode::Fixed`] streams against golden
//! bitstreams captured *before* the rate-control redesign (PR 4 format):
//! the pluggable-controller API must cost fixed-rate streams nothing —
//! not one byte, at any thread count, for either codec family.

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{decode_bitstream, encode_sequence};
use nvc_video::rate::RateMode;
use nvc_video::synthetic::{SceneConfig, Synthesizer};

#[test]
fn ctvc_fixed_mode_matches_pre_redesign_fixture_at_every_thread_count() {
    let golden = include_bytes!("data/ctvc_fp8_48x32x4_r1.bin").to_vec();
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 4)).generate();
    for threads in [1, 2, 0] {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8).with_threads(threads)).unwrap();
        let coded = encode_sequence(&codec, &seq, RatePoint::new(1)).unwrap();
        assert_eq!(
            coded.to_bytes(),
            golden,
            "CTVC fixed-rate stream diverged from the PR 4 fixture (threads = {threads})"
        );
        // The explicit RateMode::Fixed spelling is the same code path.
        let via_mode = encode_sequence(&codec, &seq, RateMode::Fixed(RatePoint::new(1))).unwrap();
        assert_eq!(via_mode.to_bytes(), golden);
    }
}

#[test]
fn hybrid_fixed_mode_matches_pre_redesign_fixture_at_every_thread_count() {
    let golden = include_bytes!("data/hybrid_hevc_64x48x3_qp24.bin").to_vec();
    let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 3)).generate();
    for threads in [1, 2, 0] {
        let codec = HybridCodec::with_threads(Profile::hevc_like(), threads);
        let coded = encode_sequence(&codec, &seq, 24).unwrap();
        assert_eq!(
            coded.to_bytes(),
            golden,
            "hybrid fixed-rate stream diverged from the PR 4 fixture (threads = {threads})"
        );
        let via_mode = encode_sequence(&codec, &seq, RateMode::Fixed(24u8)).unwrap();
        assert_eq!(via_mode.to_bytes(), golden);
    }
}

#[test]
fn fixture_streams_still_decode() {
    let ctvc = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let decoded = decode_bitstream(&ctvc, include_bytes!("data/ctvc_fp8_48x32x4_r1.bin")).unwrap();
    assert_eq!(decoded.frames().len(), 4);
    let hybrid = HybridCodec::new(Profile::hevc_like());
    let decoded =
        decode_bitstream(&hybrid, include_bytes!("data/hybrid_hevc_64x48x3_qp24.bin")).unwrap();
    assert_eq!(decoded.frames().len(), 3);
}
