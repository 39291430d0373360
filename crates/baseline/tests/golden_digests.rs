//! Golden digests of what the hybrid encoder and decoder produce: every
//! packet's bytes, every closed-loop reconstruction the encoder hands
//! out (`last_reconstruction()` after each push) and every frame a
//! decoder session returns, for both profiles at 64×48 and at 52×38
//! (partial edge blocks for both motion-block sizes), QP 24 and 34, on a
//! 12-frame stream with join headers and a GOP restart every 8 frames,
//! at one, two and four worker threads.
//!
//! A failure here means the bitstream or the decoded pixels changed: it
//! is a format change, not a test to update. The constants were recorded
//! on x86-64 Linux (glibc libm). The synthetic clips call `sin`/`exp`
//! from the host's libm, and the codec's DCT basis calls `f32::cos` and
//! its quantizer step `f32::powf`, so a host whose libm rounds
//! differently may legitimately read other digests.

use nvc_baseline::{HybridCodec, Profile};
use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
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

fn fold_pixels(h: &mut u64, frame: &Frame) {
    for v in frame.tensor().as_slice() {
        fnv1a(h, &v.to_bits().to_le_bytes());
    }
}

const FRAMES: usize = 12;
const GOP: usize = 8;

/// `(packets, encoder reconstructions, decoder frames)` digests of one
/// stream.
fn stream_digests(profile: Profile, (w, h): (usize, usize), qp: u8, threads: usize) -> [u64; 3] {
    let scene = if w % 16 == 0 && h % 16 == 0 {
        SceneConfig::hevc_b_like(w, h, FRAMES)
    } else {
        SceneConfig::mcl_jcv_like(w, h, FRAMES)
    };
    let clip = Synthesizer::new(scene).generate();
    let codec = HybridCodec::with_threads(profile, threads);
    let mut enc = codec.start_encode(qp);
    enc.set_join_headers(true);
    let mut dec = codec.start_decode();
    let [mut packets, mut recons, mut decoded] = [FNV_OFFSET; 3];
    for (i, frame) in clip.frames().iter().enumerate() {
        if i > 0 && i % GOP == 0 {
            enc.restart_gop();
        }
        let bytes = enc.push_frame(frame).unwrap().to_bytes();
        fnv1a(&mut packets, &bytes);
        fold_pixels(&mut recons, enc.last_reconstruction().unwrap().unwrap());
        fold_pixels(&mut decoded, &dec.push_packet(&bytes).unwrap());
    }
    [packets, recons, decoded]
}

#[test]
fn hybrid_streams_match_their_golden_digests() {
    // (profile, (w, h), qp, [packets, reconstructions, decoded]).
    let golden = [
        (
            Profile::hevc_like(),
            (64, 48),
            24,
            [
                0x6fcd_fe01_64e6_c19c,
                0x7368_9075_351d_f634,
                0x7368_9075_351d_f634,
            ],
        ),
        (
            Profile::hevc_like(),
            (64, 48),
            34,
            [
                0x8f80_f426_054f_7520,
                0x6e66_9ca8_4cdd_e217,
                0x6e66_9ca8_4cdd_e217,
            ],
        ),
        (
            Profile::hevc_like(),
            (52, 38),
            24,
            [
                0xdf10_e1d6_e9cf_9333,
                0x5be8_8838_ae9e_976b,
                0x5be8_8838_ae9e_976b,
            ],
        ),
        (
            Profile::hevc_like(),
            (52, 38),
            34,
            [
                0x9aa6_6c80_86a8_ea52,
                0x4202_83da_c379_2c15,
                0x4202_83da_c379_2c15,
            ],
        ),
        (
            Profile::avc_like(),
            (64, 48),
            24,
            [
                0x3730_fd84_249a_a7cb,
                0xdf01_1954_a743_109a,
                0xdf01_1954_a743_109a,
            ],
        ),
        (
            Profile::avc_like(),
            (64, 48),
            34,
            [
                0x72f2_2acb_8ea8_417a,
                0x457e_f8e6_40f3_8b1b,
                0x457e_f8e6_40f3_8b1b,
            ],
        ),
        (
            Profile::avc_like(),
            (52, 38),
            24,
            [
                0x86c2_8e44_c92b_5538,
                0x06dc_7606_e7b3_2237,
                0x06dc_7606_e7b3_2237,
            ],
        ),
        (
            Profile::avc_like(),
            (52, 38),
            34,
            [
                0xfc28_3248_570f_67e2,
                0x87eb_23b0_fcf0_ee1b,
                0x87eb_23b0_fcf0_ee1b,
            ],
        ),
    ];
    for (profile, dims, qp, expected) in golden {
        let name = profile.name;
        for threads in [1, 2, 4] {
            let got = stream_digests(profile.clone(), dims, qp, threads);
            assert_eq!(
                got, expected,
                "{name} {}x{} QP {qp} at {threads} threads: (packets, reconstructions, \
                 decoded) digests {got:#x?} differ from the golden {expected:#x?}",
                dims.0, dims.1
            );
        }
    }
}
