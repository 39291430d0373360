//! The encoder's reconstruction contract, for both codec families: the
//! encoder renders pixels only when asked, and what it renders is the
//! decoder's frame bit for bit — across an intra refresh and a mid-GOP
//! rate switch — however often it is asked.

use nvc_baseline::{HybridCodec, Profile};
use nvc_entropy::container::FrameKind;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
use nvc_video::rate::{RateMode, RateRequest};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{Frame, StreamDecoder, StreamEncoder, VideoCodec};

fn bits(frame: &Frame) -> Vec<u32> {
    frame
        .tensor()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Pushes six 64×48 frames at the per-frame `rates` (which switch
/// mid-GOP), restarting the GOP before frame 3, and checks every
/// reconstruction against a decoder session fed the same packets.
fn check_contract<C: VideoCodec>(codec: &C, rates: [C::Rate; 6])
where
    C::Rate: Send + 'static,
{
    let clip = Synthesizer::new(SceneConfig::uvg_like(64, 48, rates.len())).generate();
    let mode = RateMode::per_frame(move |req: &RateRequest| rates[req.frame_index as usize]);
    let mut enc = StreamEncoder::new(codec, mode);
    let mut dec = StreamDecoder::new(codec);
    assert!(
        enc.last_reconstruction().unwrap().is_none(),
        "no reconstruction before the first frame"
    );
    let name = codec.codec_name().to_string();
    for (i, frame) in clip.frames().iter().enumerate() {
        if i == 3 {
            let before = enc.last_reconstruction().unwrap().map(bits);
            enc.restart_gop();
            assert_eq!(
                enc.last_reconstruction().unwrap().map(bits),
                before,
                "{name}: restart_gop must not change the last reconstruction"
            );
        }
        let packet = enc.push_frame(frame).unwrap();
        let intra = i == 0 || i == 3;
        assert_eq!(packet.kind == FrameKind::Intra, intra, "{name} frame {i}");
        let first = enc.last_reconstruction().unwrap().unwrap();
        let again = enc.last_reconstruction().unwrap().unwrap();
        assert!(
            std::ptr::eq(first, again),
            "{name} frame {i}: a repeated call must return the rendered frame"
        );
        let decoded = dec.push_packet(&packet.to_bytes()).unwrap();
        assert_eq!(
            bits(first),
            bits(&decoded),
            "{name} frame {i}: encoder reconstruction differs from the decoder's frame"
        );
    }
    assert_eq!(dec.frames_decoded(), rates.len());
}

#[test]
fn ctvc_reconstruction_is_lazy_and_decoder_identical() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    check_contract(&codec, [1, 1, 2, 2, 0, 2].map(RatePoint::new));
}

#[test]
fn hybrid_reconstruction_is_lazy_and_decoder_identical() {
    let codec = HybridCodec::new(Profile::hevc_like());
    check_contract(&codec, [24, 24, 30, 30, 20, 26]);
}
