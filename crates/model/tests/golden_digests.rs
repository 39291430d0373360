//! Golden digests of what the CTVC encoder and decoder produce: every
//! packet's bytes, every closed-loop reconstruction the encoder hands
//! out and every frame a decoder session returns, for `ctvc_fp(8)`,
//! `ctvc_sparse(8)`, `ctvc_fxp(8)` and `dvc_like(8)` on one intra and
//! three P frames at 64×48, at one, two and four worker threads.
//!
//! A failure here means the bitstream or the decoded pixels changed: it
//! is a format change, not a test to update. The constants were recorded
//! on x86-64 Linux (glibc libm). The synthetic clip and the codec call
//! `sin`/`exp`/`powf` from the host's libm, so a host whose libm rounds
//! differently may legitimately read other digests.

use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{encode_sequence, DecoderSession};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Frame;

/// FNV-1a 64, folded over `bytes` into `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn pixels_digest<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> u64 {
    let mut h = FNV_OFFSET;
    for frame in frames {
        for v in frame.tensor().as_slice() {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// `(packets, encoder reconstructions, decoder frames)` digests of one
/// stream.
fn stream_digests(cfg: CtvcConfig, threads: usize) -> (u64, u64, u64) {
    let clip = Synthesizer::new(SceneConfig::uvg_like(64, 48, 4)).generate();
    let codec = CtvcCodec::new(cfg.with_threads(threads)).unwrap();
    let coded = encode_sequence(&codec, &clip, RatePoint::new(1)).unwrap();
    let mut packets = FNV_OFFSET;
    let mut decoder = codec.start_decode();
    let mut decoded = Vec::new();
    for packet in &coded.packets {
        let bytes = packet.to_bytes();
        fnv1a(&mut packets, &bytes);
        decoded.push(decoder.push_packet(&bytes).unwrap());
    }
    (
        packets,
        pixels_digest(coded.decoded.frames()),
        pixels_digest(&decoded),
    )
}

#[test]
fn ctvc_streams_match_their_golden_digests() {
    let golden = [
        (
            CtvcConfig::ctvc_fp(8),
            (
                0x2526_9071_861c_1ef4,
                0x5f31_3a84_9909_e7c8,
                0x5f31_3a84_9909_e7c8,
            ),
        ),
        (
            CtvcConfig::ctvc_sparse(8),
            (
                0x2455_7cdf_3423_6d6d,
                0x4cda_66f4_69a8_7f5c,
                0x4cda_66f4_69a8_7f5c,
            ),
        ),
        (
            CtvcConfig::ctvc_fxp(8),
            (
                0x1775_6e45_51cc_0381,
                0xa228_4139_cf66_3093,
                0xa228_4139_cf66_3093,
            ),
        ),
        // The one config whose motion search is full-pel only.
        (
            CtvcConfig::dvc_like(8),
            (
                0x5632_54be_a0c1_65b0,
                0x4988_5af2_2379_a343,
                0x4988_5af2_2379_a343,
            ),
        ),
    ];
    for (cfg, expected) in golden {
        let name = cfg.name;
        for threads in [1, 2, 4] {
            let got = stream_digests(cfg.clone(), threads);
            assert_eq!(
                got, expected,
                "{name} at {threads} threads: (packets, reconstructions, decoded) \
                 digests {got:#x?} differ from the golden {expected:#x?}"
            );
        }
    }
}
