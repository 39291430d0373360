//! Closed-loop rate-control bench: convergence of `RateMode::TargetBpp`
//! against fixed-rate references, for both codec families.
//!
//! Protocol (per family): encode a 3-GOP synthetic sequence at two
//! bracketing fixed rates, aim the closed loop at the midpoint of their
//! trailing-2-GOP bpp, and measure how far the controller's own
//! trailing-2-GOP mean lands from that target (the first GOP is
//! calibration — the controller starts with no complexity estimates).
//! Also records per-frame bpp variance (how hard the controller
//! dithers) and proves the controller is deterministic by replaying the
//! stream and the decode.
//!
//! Usage:
//!
//! ```text
//! ratecontrol            # full run, writes BENCH_PR5.json
//! ratecontrol --quick    # CI gate: small clips; asserts convergence
//!                        # error < 10 % for both families, bit-exact
//!                        # replay, decodable streams (exit != 0 on
//!                        # failure)
//! ```

#![forbid(unsafe_code)]

use nvc_baseline::{HybridCodec, Profile};
use nvc_bench::paper::BENCH_N;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::DecoderSession as _;
use nvc_video::rate::RateMode;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{EncoderSession, Sequence, StreamStats, VideoCodec};

const GOP: usize = 8;
const GOPS: usize = 3;

struct FamilyResult {
    name: &'static str,
    target_bpp: f64,
    achieved_bpp: f64,
    convergence_error: f64,
    bpp_variance: f64,
    rate_switches: usize,
    rate_trace: Vec<u8>,
}

fn encode_with_gops<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    mode: RateMode<C::Rate>,
) -> (Vec<Vec<u8>>, StreamStats) {
    let mut enc = codec.start_encode(mode).expect("start encode");
    let mut packets = Vec::new();
    for (i, frame) in seq.frames().iter().enumerate() {
        if i > 0 && i % GOP == 0 {
            enc.restart_gop();
        }
        packets.push(enc.push_frame(frame).expect("push frame").to_bytes());
    }
    (packets, enc.finish().expect("finish"))
}

/// Mean bpp over the trailing 2 GOPs (the convergence window).
fn tail_bpp(stats: &StreamStats, px: usize) -> f64 {
    let bits: u64 = stats.bits_per_frame[GOP..].iter().sum();
    bits as f64 / ((stats.frames - GOP) * px) as f64
}

/// Per-frame bpp variance over the trailing 2 GOPs.
fn tail_variance(stats: &StreamStats, px: usize) -> f64 {
    let bpp: Vec<f64> = stats.bits_per_frame[GOP..]
        .iter()
        .map(|&b| b as f64 / px as f64)
        .collect();
    let mean = bpp.iter().sum::<f64>() / bpp.len() as f64;
    bpp.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / bpp.len() as f64
}

fn run_family<C: VideoCodec>(
    name: &'static str,
    codec: &C,
    seq: &Sequence,
    px: usize,
    lo: C::Rate,
    hi: C::Rate,
) -> FamilyResult {
    let (_, stats_lo) = encode_with_gops(codec, seq, RateMode::Fixed(lo));
    let (_, stats_hi) = encode_with_gops(codec, seq, RateMode::Fixed(hi));
    let (b_lo, b_hi) = (tail_bpp(&stats_lo, px), tail_bpp(&stats_hi, px));
    let target = 0.5 * (b_lo + b_hi);
    let mode = || RateMode::TargetBpp {
        bpp: target,
        window: GOP,
    };
    let (packets, stats) = encode_with_gops(codec, seq, mode());
    let achieved = tail_bpp(&stats, px);
    let convergence_error = (achieved - target).abs() / target;

    // Determinism: the controller's decisions replay bit-exactly.
    let (replay, _) = encode_with_gops(codec, seq, mode());
    assert_eq!(packets, replay, "{name}: closed-loop replay diverged");
    // And the adaptive stream decodes, with the decoder tracking every
    // in-band rate switch.
    let mut dec = codec.start_decode();
    for (i, p) in packets.iter().enumerate() {
        dec.push_packet(p).expect("adaptive stream decodes");
        assert_eq!(
            dec.last_rate(),
            Some(stats.rate_per_frame[i]),
            "{name}: decoder lost track of the stream rate"
        );
    }

    let rate_switches = stats
        .rate_per_frame
        .windows(2)
        .filter(|w| w[0] != w[1])
        .count();
    println!(
        "  {name}: refs [{b_lo:.4}, {b_hi:.4}] bpp -> target {target:.4}, \
         achieved {achieved:.4} ({:.1} % off), {rate_switches} rate switches",
        convergence_error * 100.0
    );
    println!("    rate trace: {:?}", stats.rate_per_frame);
    FamilyResult {
        name,
        target_bpp: target,
        achieved_bpp: achieved,
        convergence_error,
        bpp_variance: tail_variance(&stats, px),
        rate_switches,
        rate_trace: stats.rate_per_frame,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let frames = GOPS * GOP;
    let (cw, ch, n) = if quick {
        (48, 32, 8)
    } else {
        (96, 64, BENCH_N)
    };
    let (hw, hh) = if quick { (64, 48) } else { (96, 64) };
    println!(
        "ratecontrol: {GOPS} GOPs x {GOP} frames, convergence window = trailing 2 GOPs{}",
        if quick { " (quick)" } else { "" }
    );

    let ctvc = CtvcCodec::new(CtvcConfig::ctvc_fp(n)).expect("codec");
    let ctvc_seq = Synthesizer::new(SceneConfig::uvg_like(cw, ch, frames)).generate();
    let ctvc_res = run_family(
        "ctvc",
        &ctvc,
        &ctvc_seq,
        cw * ch,
        RatePoint::new(1),
        RatePoint::new(2),
    );

    let hybrid = HybridCodec::new(Profile::hevc_like());
    let hybrid_seq = Synthesizer::new(SceneConfig::uvg_like(hw, hh, frames)).generate();
    let hybrid_res = run_family("hybrid", &hybrid, &hybrid_seq, hw * hh, 28u8, 22u8);

    let results = [ctvc_res, hybrid_res];
    if quick {
        for r in &results {
            assert!(
                r.convergence_error < 0.10,
                "{}: convergence error {:.1} % breaches the 10 % gate",
                r.name,
                r.convergence_error * 100.0
            );
            assert!(
                r.rate_switches > 0,
                "{}: the closed loop never moved the rate",
                r.name
            );
        }
        println!("quick gate: both families converged < 10 %, replays bit-exact — OK");
        return;
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut families = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            families.push_str(",\n");
        }
        families.push_str(&format!(
            "    \"{}\": {{\n      \"target_bpp\": {:.4},\n      \"achieved_bpp\": {:.4},\n      \
             \"convergence_error\": {:.4},\n      \"bpp_variance\": {:.6},\n      \
             \"rate_switches\": {},\n      \"rate_trace\": {:?}\n    }}",
            r.name,
            r.target_bpp,
            r.achieved_bpp,
            r.convergence_error,
            r.bpp_variance,
            r.rate_switches,
            r.rate_trace
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"ratecontrol\",\n  \"gop\": {GOP},\n  \"gops\": {GOPS},\n  \
         \"window\": \"trailing 2 GOPs\",\n  \"families\": {{\n{families}\n  }}\n}}\n"
    );
    let path = format!("{root}/BENCH_PR5.json");
    std::fs::write(&path, json).expect("write BENCH_PR5.json");
    println!("wrote {path}");
}
