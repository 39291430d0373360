//! Closed-loop and per-frame rate control, end to end: mid-GOP rate
//! switches must decode bit-exactly, controllers must be deterministic
//! (replayable), the feedback plumbing must carry real bit counts, and
//! the target-bpp loop must converge within ±10 % for both codec
//! families (the CTVC case is ignored in debug builds, where it takes
//! about 25 s; CI runs this file again under `--release`).

use nvc_baseline::{HybridCodec, Profile};
use nvc_entropy::container::FrameKind;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
use nvc_video::rate::{RateMode, RateRequest};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{Sequence, StreamStats, VideoCodec};

fn ctvc_seq(frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(48, 32, frames)).generate()
}

fn hybrid_seq(frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(64, 48, frames)).generate()
}

/// Encodes with per-GOP restarts, returning packets + stats.
fn encode_with_gops<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    mode: RateMode<C::Rate>,
    gop: usize,
) -> (Vec<Vec<u8>>, StreamStats) {
    let mut enc = codec.start_encode(mode).unwrap();
    let mut packets = Vec::new();
    for (i, frame) in seq.frames().iter().enumerate() {
        let restart = i > 0 && i % gop == 0;
        if restart {
            enc.restart_gop();
        }
        let packet = enc.push_frame(frame).unwrap();
        assert_eq!(
            packet.kind == FrameKind::Intra,
            i == 0 || restart,
            "frame {i}: restart_gop must force exactly the next frame intra"
        );
        packets.push(packet.to_bytes());
    }
    (packets, enc.finish().unwrap())
}

fn decode_all<C: VideoCodec>(codec: &C, packets: &[Vec<u8>]) -> Vec<nvc_video::Frame> {
    let mut dec = codec.start_decode();
    packets
        .iter()
        .map(|p| dec.push_packet(p).unwrap())
        .collect()
}

/// Mid-GOP rate switches (no intra refresh) must keep the closed loop
/// bit-exact with the decoder for both codec families, and the chosen
/// rate must be visible per frame on both ends.
#[test]
fn mid_gop_rate_switch_is_bit_exact_on_both_families() {
    // CTVC: scripted per-frame RatePoint schedule, switching mid-GOP.
    let schedule = [1u8, 1, 2, 0];
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let seq = ctvc_seq(schedule.len());
    let mode = RateMode::per_frame(move |req: &RateRequest| {
        RatePoint::new(schedule[req.frame_index as usize])
    });
    let mut enc = codec.start_encode(mode);
    let mut packets = Vec::new();
    let mut recons = Vec::new();
    for frame in seq.frames() {
        packets.push(enc.push_frame(frame).unwrap().to_bytes());
        recons.push(enc.last_reconstruction().unwrap().unwrap().clone());
    }
    let stats = enc.finish().unwrap();
    assert_eq!(stats.rate_per_frame, schedule);
    assert_eq!(
        stats.frame_types,
        vec![
            FrameKind::Intra,
            FrameKind::Predicted,
            FrameKind::Predicted,
            FrameKind::Predicted
        ],
        "a rate switch alone must not break the prediction chain"
    );
    let mut dec = codec.start_decode();
    for (i, (p, r)) in packets.iter().zip(&recons).enumerate() {
        let frame = dec.push_packet(p).unwrap();
        assert_eq!(
            frame.tensor().as_slice(),
            r.tensor().as_slice(),
            "frame {i}: decoder diverged across the rate switch"
        );
        assert_eq!(
            dec.last_rate(),
            Some(schedule[i]),
            "frame {i}: decoder must track the in-band rate"
        );
    }

    // Hybrid: QP schedule switching mid-GOP.
    let qps = [24u8, 24, 30, 20];
    let codec = HybridCodec::new(Profile::hevc_like());
    let seq = hybrid_seq(qps.len());
    let mode = RateMode::per_frame(move |req: &RateRequest| qps[req.frame_index as usize]);
    let mut enc = codec.start_encode(mode);
    let mut packets = Vec::new();
    let mut recons = Vec::new();
    for frame in seq.frames() {
        packets.push(enc.push_frame(frame).unwrap().to_bytes());
        recons.push(enc.last_reconstruction().unwrap().unwrap().clone());
    }
    let stats = enc.finish().unwrap();
    assert_eq!(stats.rate_per_frame, qps);
    let mut dec = codec.start_decode();
    for (i, (p, r)) in packets.iter().zip(&recons).enumerate() {
        let frame = dec.push_packet(p).unwrap();
        assert_eq!(
            frame.tensor().as_slice(),
            r.tensor().as_slice(),
            "frame {i}: hybrid decoder diverged across the QP switch"
        );
        assert_eq!(dec.last_rate(), Some(qps[i]));
    }
}

/// The per-frame callback sees real feedback: the previous frame's
/// outcome must match the stream statistics bit for bit.
#[test]
fn per_frame_callback_receives_true_bit_feedback() {
    use std::sync::{Arc, Mutex};
    let observed = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&observed);
    let codec = HybridCodec::new(Profile::avc_like());
    let seq = hybrid_seq(4);
    let mode = RateMode::per_frame(move |req: &RateRequest| {
        if let Some(prev) = req.prev {
            sink.lock().unwrap().push(prev.bits);
        }
        26u8
    });
    let mut enc = codec.start_encode(mode);
    for frame in seq.frames() {
        enc.push_frame(frame).unwrap();
    }
    let stats = enc.finish().unwrap();
    let fed_back = observed.lock().unwrap().clone();
    assert_eq!(
        fed_back,
        stats.bits_per_frame[..3],
        "callback must see the exact serialized bit counts"
    );
}

/// The hybrid QP wire domain is the full byte range (the quantizer
/// step extrapolates beyond the useful 0..=51, and the fixed-rate API
/// always accepted it): a controller handing back an ultra-coarse QP
/// mid-stream must round-trip, not strand the decoder.
#[test]
fn ultra_coarse_qp_from_a_controller_roundtrips() {
    let codec = HybridCodec::new(Profile::hevc_like());
    let seq = hybrid_seq(3);
    let mode = RateMode::per_frame(|req: &RateRequest| match req.frame_index {
        0 => 24u8,
        _ => 200u8, // far beyond the useful 0..=51, still decodable
    });
    let mut enc = codec.start_encode(mode);
    let mut packets = Vec::new();
    for frame in seq.frames() {
        packets.push(enc.push_frame(frame).unwrap().to_bytes());
    }
    let stats = enc.finish().unwrap();
    assert_eq!(stats.rate_per_frame, vec![24, 200, 200]);
    let decoded = decode_all(&codec, &packets);
    assert_eq!(decoded.len(), 3, "in-band QP switch must decode end to end");
}

/// StreamStats invariants for the new per-frame columns: aligned with
/// the bit counts, consistent with the packet kinds, and the bit sums
/// still reconcile with the serialized stream.
#[test]
fn stream_stats_columns_align_with_bits() {
    let codec = HybridCodec::new(Profile::hevc_like());
    let seq = hybrid_seq(6);
    let (packets, stats) = encode_with_gops(&codec, &seq, RateMode::Fixed(24u8), 3);
    assert_eq!(stats.frame_types.len(), stats.frames);
    assert_eq!(stats.rate_per_frame.len(), stats.frames);
    assert_eq!(stats.bits_per_frame.len(), stats.frames);
    assert_eq!(
        stats.bits_per_frame.iter().sum::<u64>(),
        8 * stats.total_bytes as u64
    );
    assert_eq!(
        packets.iter().map(Vec::len).sum::<usize>(),
        stats.total_bytes
    );
    // GOP restarts every 3 frames → intras at 0 and 3.
    let intras: Vec<usize> = stats
        .frame_types
        .iter()
        .enumerate()
        .filter(|(_, k)| **k == FrameKind::Intra)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(intras, vec![0, 3]);
    // Intra frames must absorb more bits than the P frames around them.
    assert!(stats.bits_per_frame[0] > stats.bits_per_frame[1]);
    assert!(stats.bits_per_frame[3] > stats.bits_per_frame[4]);
    // Fixed mode: one rate everywhere.
    assert!(stats.rate_per_frame.iter().all(|&r| r == 24));
}

/// Target-bpp mode converges and replays: encode 3 GOPs of 8 at two
/// bracketing fixed rates, aim the closed loop at the midpoint of their
/// trailing-2-GOP bpp (the first GOP is calibration — the controller
/// starts with no complexity estimates), and require the loop's own
/// trailing-2-GOP mean within ±10 % of that target, at least one rate
/// change, a byte-identical replay, and a decoder that tracks every
/// in-band rate.
fn assert_target_bpp_converges<C: VideoCodec>(codec: &C, seq: &Sequence, lo: C::Rate, hi: C::Rate) {
    let gop = 8;
    let frames = seq.frames().len();
    assert_eq!(frames, 3 * gop);
    let px = seq.width() * seq.height();
    let tail = |stats: &StreamStats| -> f64 {
        let bits: u64 = stats.bits_per_frame[gop..].iter().sum();
        bits as f64 / ((frames - gop) * px) as f64
    };
    let (_, at_lo) = encode_with_gops(codec, seq, RateMode::Fixed(lo), gop);
    let (_, at_hi) = encode_with_gops(codec, seq, RateMode::Fixed(hi), gop);
    let target = 0.5 * (tail(&at_lo) + tail(&at_hi));
    let mode = || RateMode::TargetBpp {
        bpp: target,
        window: gop,
    };
    let (packets, stats) = encode_with_gops(codec, seq, mode(), gop);
    let achieved = tail(&stats);
    let err = (achieved - target).abs() / target;
    assert!(
        err < 0.10,
        "target {target:.4} bpp, trailing-2-GOP mean {achieved:.4} bpp ({:.1} % off)",
        err * 100.0
    );
    assert!(
        stats.rate_per_frame.windows(2).any(|w| w[0] != w[1]),
        "a closed-loop stream between two fixed rates must move the rate"
    );
    // Deterministic: a second run is byte-identical.
    let (replay, _) = encode_with_gops(codec, seq, mode(), gop);
    assert_eq!(packets, replay, "controller replay must be bit-exact");
    // And the adaptive stream decodes, the decoder following every
    // in-band rate switch.
    let mut dec = codec.start_decode();
    for (i, p) in packets.iter().enumerate() {
        dec.push_packet(p).unwrap();
        assert_eq!(
            dec.last_rate(),
            Some(stats.rate_per_frame[i]),
            "frame {i}: decoder lost track of the stream rate"
        );
    }
}

#[test]
fn hybrid_target_bpp_converges_and_replays_bit_exact() {
    let codec = HybridCodec::new(Profile::hevc_like());
    assert_target_bpp_converges(&codec, &hybrid_seq(24), 28, 22);
}

#[test]
fn ctvc_target_bpp_converges_and_replays_bit_exact() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    assert_target_bpp_converges(&codec, &ctvc_seq(24), RatePoint::new(1), RatePoint::new(2));
}

/// Target-bpp mode on the learned codec over a short clip: the stream
/// stays decodable, the rate trace responds, and the decoder follows
/// every in-band switch (the convergence case is
/// `ctvc_target_bpp_converges_and_replays_bit_exact`).
#[test]
fn ctvc_target_bpp_stream_decodes_with_rate_trace() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let seq = ctvc_seq(5);
    let (packets, stats) = encode_with_gops(
        &codec,
        &seq,
        RateMode::TargetBpp {
            bpp: 0.5,
            window: 4,
        },
        5,
    );
    assert_eq!(stats.rate_per_frame.len(), 5);
    assert!(stats
        .rate_per_frame
        .iter()
        .all(|&r| r <= RatePoint::MAX_INDEX));
    let mut dec = codec.start_decode();
    for (i, p) in packets.iter().enumerate() {
        dec.push_packet(p).unwrap();
        assert_eq!(dec.last_rate(), Some(stats.rate_per_frame[i]));
    }
}

/// `set_rate_mode` + `restart_gop` mid-stream (the in-process form of
/// the wire retarget): the switch lands on an intra anchor, the stream
/// decodes, and a replay is byte-identical.
#[test]
fn in_process_retarget_with_intra_refresh_replays_bit_exact() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let seq = ctvc_seq(4);
    let run = || {
        let mut enc = codec.start_encode(RatePoint::new(1));
        let mut packets = Vec::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            if i == 2 {
                enc.set_rate_mode(RateMode::Fixed(RatePoint::new(2)));
                enc.restart_gop();
            }
            packets.push(enc.push_frame(frame).unwrap().to_bytes());
        }
        (packets, enc.finish().unwrap())
    };
    let (packets, stats) = run();
    assert_eq!(stats.rate_per_frame, vec![1, 1, 2, 2]);
    assert_eq!(
        stats.frame_types,
        vec![
            FrameKind::Intra,
            FrameKind::Predicted,
            FrameKind::Intra,
            FrameKind::Predicted
        ]
    );
    let decoded = decode_all(&codec, &packets);
    assert_eq!(decoded.len(), 4);
    let (replay, _) = run();
    assert_eq!(packets, replay, "retargeted stream must replay bit-exact");
}
