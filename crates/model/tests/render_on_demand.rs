//! The CTVC encoder renders pixels only when its reconstruction is asked
//! for, and `nvc_ctvc_render_us` / `nvc_ctvc_motion_search_us` show it.
//!
//! The two histograms are process-global, so this test is alone in its
//! binary: no other test encodes or decodes while it counts.

use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_telemetry::Mode;
use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
use nvc_video::synthetic::{SceneConfig, Synthesizer};

#[test]
fn push_frame_alone_never_renders() {
    nvc_telemetry::set_mode(Mode::Full);
    let renders = nvc_telemetry::histogram("nvc_ctvc_render_us");
    let searches = nvc_telemetry::histogram("nvc_ctvc_motion_search_us");
    let clip = Synthesizer::new(SceneConfig::uvg_like(64, 48, 4)).generate();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_sparse(8)).unwrap();

    let mut enc = codec.start_encode(RatePoint::new(1));
    let mut packets = Vec::new();
    for frame in clip.frames() {
        packets.push(enc.push_frame(frame).unwrap().to_bytes());
    }
    assert_eq!(renders.count(), 0, "push_frame rendered pixels");
    assert_eq!(searches.count(), 3, "one motion search per P frame");

    // Asking renders the last frame once; asking again reuses it.
    enc.last_reconstruction().unwrap().unwrap();
    enc.last_reconstruction().unwrap().unwrap();
    assert_eq!(renders.count(), 1);

    // A decoder renders every frame, through the same function.
    let mut dec = codec.start_decode();
    for packet in &packets {
        dec.push_packet(packet).unwrap();
    }
    assert_eq!(renders.count(), 1 + packets.len() as u64);
    assert_eq!(searches.count(), 3, "decoding searches no motion");
}
