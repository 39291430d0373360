//! `nvc_hybrid_motion_search_us` times phase 1 of every P-frame encode
//! (motion search and skip decisions) and nothing else.
//!
//! The histogram is process-global, so this test is alone in its
//! binary: no other test encodes while it counts.

use nvc_baseline::{HybridCodec, Profile};
use nvc_telemetry::Mode;
use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
use nvc_video::synthetic::{SceneConfig, Synthesizer};

#[test]
fn one_search_per_predicted_frame() {
    nvc_telemetry::set_mode(Mode::Full);
    let searches = nvc_telemetry::histogram("nvc_hybrid_motion_search_us");
    let clip = Synthesizer::new(SceneConfig::uvg_like(64, 48, 4)).generate();
    let codec = HybridCodec::with_threads(Profile::hevc_like(), 1);

    let mut enc = codec.start_encode(24);
    let mut packets = Vec::new();
    for frame in clip.frames() {
        packets.push(enc.push_frame(frame).unwrap().to_bytes());
    }
    assert_eq!(searches.count(), 3, "one motion search per P frame");

    let mut dec = codec.start_decode();
    for packet in &packets {
        dec.push_packet(packet).unwrap();
    }
    assert_eq!(searches.count(), 3, "decoding searches no motion");
}
