//! Cross-crate integration tests: the full pipeline from synthetic video
//! through the CTVC codec onto the NVCA simulator, plus the Table I
//! ordering the reproduction promises.

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_sim::Dataflow;
use nvc_video::bdrate::bd_rate;
use nvc_video::codec::{
    decode_bitstream, encode_sequence, stream_roundtrip, DecoderSession, VideoCodec,
};
use nvc_video::metrics::psnr_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{Sequence, StreamDecoder};
use nvca::{FrameKind, Nvca};

fn mean_psnr(a: &Sequence, b: &Sequence) -> f64 {
    let pairs: Vec<_> = a.frames().iter().zip(b.frames()).collect();
    psnr_sequence(&pairs.iter().map(|(x, y)| (*x, *y)).collect::<Vec<_>>()).unwrap()
}

/// The full co-design loop: encode on the model, decode, and check the
/// hardware report for the same configuration.
#[test]
fn codesign_pipeline_end_to_end() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 3)).generate();
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(8)).unwrap();
    let coded = encode_sequence(nvca.codec(), &seq, RatePoint::new(1)).unwrap();
    let decoded = decode_bitstream(nvca.codec(), &coded.to_bytes()).unwrap();
    assert_eq!(decoded.frames().len(), 3);
    assert!(mean_psnr(&seq, &decoded) > 22.0);
    // The simulated accelerator runs the same network shape.
    let report = nvca.simulate_decode(1088, 1920, Dataflow::Chained);
    assert!(report.fps > 1.0);
    assert!(report.dram_bytes > 0);
}

/// The streaming-session contract, written once, generically over the
/// [`VideoCodec`] trait, and checked against both codec families:
///
/// 1. streaming decode of the packets produced by a streaming encode is
///    bit-exact with the one-shot decode of the concatenated bitstream;
/// 2. truncating or corrupting a packet yields an `Err`, never a panic.
fn assert_streaming_contract<C: VideoCodec>(codec: &C, seq: &Sequence, rate: C::Rate) {
    // (1) Streaming roundtrip matches the encoder's closed loop exactly…
    let (coded, drift) = stream_roundtrip(codec, seq, rate).expect("stream roundtrip");
    assert_eq!(
        drift,
        0.0,
        "{}: streaming decode drifted",
        codec.codec_name()
    );
    // …and the one-shot decode reads the very same packets identically.
    let one_shot = decode_bitstream(codec, &coded.to_bytes()).expect("one-shot decode");
    assert_eq!(one_shot.frames().len(), coded.decoded.frames().len());
    for (a, b) in one_shot.frames().iter().zip(coded.decoded.frames()) {
        assert_eq!(
            a.tensor().as_slice(),
            b.tensor().as_slice(),
            "{}: one-shot decode differs from streaming",
            codec.codec_name()
        );
    }

    // (2) Malformed packets error instead of panicking.
    let first = coded.packets[0].to_bytes();
    for cut in [0, 5, first.len() / 2, first.len() - 1] {
        let mut dec = StreamDecoder::new(codec);
        assert!(
            dec.push_packet(&first[..cut]).is_err(),
            "{}: truncation to {cut} bytes must fail",
            codec.codec_name()
        );
    }
    for victim in [13, first.len() - 1] {
        let mut corrupt = first.clone();
        corrupt[victim] ^= 0xA5;
        let mut dec = StreamDecoder::new(codec);
        assert!(
            dec.push_packet(&corrupt).is_err(),
            "{}: corrupted byte {victim} must fail",
            codec.codec_name()
        );
    }
}

#[test]
fn streaming_contract_holds_for_both_codec_families() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 4)).generate();
    assert_streaming_contract(
        &CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap(),
        &seq,
        RatePoint::new(1),
    );
    assert_streaming_contract(
        &CtvcCodec::new(CtvcConfig::ctvc_sparse(8)).unwrap(),
        &seq,
        RatePoint::new(2),
    );
    assert_streaming_contract(&HybridCodec::new(Profile::hevc_like()), &seq, 24u8);
    assert_streaming_contract(&HybridCodec::new(Profile::avc_like()), &seq, 30u8);
}

/// Live-pipeline shape: packets stream from an encoder session straight
/// into both the functional decoder session and the accelerator
/// simulator, one frame at a time.
#[test]
fn streamed_packets_drive_the_simulator() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 3)).generate();
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(8)).unwrap();
    let coded = encode_sequence(nvca.codec(), &seq, RatePoint::new(1)).unwrap();
    let rep = nvca
        .simulate_decode_stream(&coded.to_bytes(), Dataflow::Chained)
        .unwrap();
    assert_eq!(rep.frames.len(), seq.frames().len());
    assert_eq!(rep.frames[0].kind, FrameKind::Intra);
    assert!(rep.fps > 0.0);
    // Intra packets charge only the reconstruction module.
    assert!(rep.frames[0].report.total_cycles < rep.frames[1].report.total_cycles);
}

/// The worker-pool execution engine is bit-exact across thread counts
/// for **both codec families**: same packets, same reconstructions.
#[test]
fn parallel_execution_is_bit_exact_for_both_codec_families() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 3)).generate();

    // Learned codec: serial vs 4-thread sessions.
    let serial = CtvcCodec::new(CtvcConfig::ctvc_sparse(8).with_threads(1)).unwrap();
    let parallel = CtvcCodec::new(CtvcConfig::ctvc_sparse(8).with_threads(4)).unwrap();
    let cs = encode_sequence(&serial, &seq, RatePoint::new(1)).unwrap();
    let cp = encode_sequence(&parallel, &seq, RatePoint::new(1)).unwrap();
    assert_eq!(cs.to_bytes(), cp.to_bytes(), "CTVC packets diverged");
    for (a, b) in cs.decoded.frames().iter().zip(cp.decoded.frames()) {
        assert_eq!(a.tensor().as_slice(), b.tensor().as_slice());
    }
    let ds = decode_bitstream(&serial, &cp.to_bytes()).unwrap();
    let dp = decode_bitstream(&parallel, &cs.to_bytes()).unwrap();
    for (a, b) in ds.frames().iter().zip(dp.frames()) {
        assert_eq!(a.tensor().as_slice(), b.tensor().as_slice());
    }

    // Classical codec: parallel motion estimation must produce the same
    // decisions, hence the same bitstream.
    let hs = HybridCodec::with_threads(Profile::hevc_like(), 1);
    let hp = HybridCodec::with_threads(Profile::hevc_like(), 4);
    let cs = encode_sequence(&hs, &seq, 24).unwrap();
    let cp = encode_sequence(&hp, &seq, 24).unwrap();
    assert_eq!(cs.to_bytes(), cp.to_bytes(), "hybrid packets diverged");
    for (a, b) in cs.decoded.frames().iter().zip(cp.decoded.frames()) {
        assert_eq!(a.tensor().as_slice(), b.tensor().as_slice());
    }
}

/// Bitstreams are portable across codec instances built from the same
/// configuration (decoder state is reconstructed, not shared).
#[test]
fn bitstreams_are_portable_across_instances() {
    let seq = Synthesizer::new(SceneConfig::mcl_jcv_like(48, 32, 3)).generate();
    let enc = CtvcCodec::new(CtvcConfig::ctvc_fxp(8)).unwrap();
    let coded = encode_sequence(&enc, &seq, RatePoint::new(2)).unwrap();
    let dec = CtvcCodec::new(CtvcConfig::ctvc_fxp(8)).unwrap();
    let decoded = decode_bitstream(&dec, &coded.to_bytes()).unwrap();
    for (a, b) in decoded.frames().iter().zip(coded.decoded.frames()) {
        assert!(a.tensor().sub(b.tensor()).unwrap().max_abs() < 1e-6);
    }
}

/// Table I ordering, restricted to what the reproduction can promise
/// without trained weights (see README "Reproducing the paper"): the
/// classical generation gap (AVC-like loses to the anchor), the
/// learned-ladder ordering (CTVC beats its DVC-like ablation), and the
/// paper's central rate mechanism — CTVC P-frames cost a fraction of
/// classical P-frames.
#[test]
fn table1_ordering_holds() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(96, 64, 8)).generate();

    // Mid QPs: at ultra-coarse QPs per-block overheads dominate and the
    // bigger AVC partitions artificially win; the generation gap the
    // profiles model lives in the moderate-rate regime.
    let anchor_codec = HybridCodec::new(Profile::hevc_like());
    let anchor: Vec<(f64, f64)> = [40u8, 34, 28, 22]
        .iter()
        .map(|&qp| {
            let c = encode_sequence(&anchor_codec, &seq, qp).unwrap();
            (
                c.stats.bpp(seq.pixels_per_frame()),
                mean_psnr(&seq, &c.decoded),
            )
        })
        .collect();

    let avc: Vec<(f64, f64)> = [40u8, 34, 28, 22]
        .iter()
        .map(|&qp| {
            let c = encode_sequence(&HybridCodec::new(Profile::avc_like()), &seq, qp).unwrap();
            (
                c.stats.bpp(seq.pixels_per_frame()),
                mean_psnr(&seq, &c.decoded),
            )
        })
        .collect();

    // Generation gap: AVC-like needs more rate than the anchor.
    let bd_avc = bd_rate(&anchor, &avc).expect("monotone, overlapping curves");
    assert!(
        bd_avc > 0.0,
        "AVC-like must lose to the anchor, got {bd_avc:.1}%"
    );

    // Learned ladder: full CTVC beats the DVC-like ablation at the same
    // rate point (better PSNR at comparable-or-lower rate, or lower rate
    // at comparable PSNR).
    let ctvc = CtvcCodec::new(CtvcConfig::ctvc_fp(12)).unwrap();
    let dvc = CtvcCodec::new(CtvcConfig::dvc_like(12)).unwrap();
    let c_ctvc = encode_sequence(&ctvc, &seq, RatePoint::new(1)).unwrap();
    let c_dvc = encode_sequence(&dvc, &seq, RatePoint::new(1)).unwrap();
    let p_ctvc = mean_psnr(&seq, &c_ctvc.decoded);
    let p_dvc = mean_psnr(&seq, &c_dvc.decoded);
    assert!(
        p_ctvc > p_dvc - 0.1,
        "CTVC ({p_ctvc:.2} dB) must not lose to DVC-like ({p_dvc:.2} dB)"
    );

    // The rate mechanism: CTVC P-frames are much cheaper than classical
    // P-frames at comparable quality.
    let anchor_coded = encode_sequence(&anchor_codec, &seq, 46).unwrap();
    let anchor_p: f64 = anchor_coded.stats.bytes_per_frame[1..]
        .iter()
        .map(|&b| b as f64)
        .sum::<f64>()
        / (anchor_coded.stats.bytes_per_frame.len() - 1) as f64;
    let ctvc_p: f64 = c_ctvc.stats.bytes_per_frame[1..]
        .iter()
        .map(|&b| b as f64)
        .sum::<f64>()
        / (c_ctvc.stats.bytes_per_frame.len() - 1) as f64;
    assert!(
        ctvc_p < anchor_p,
        "CTVC P-frames ({ctvc_p:.0} B) must undercut classical P-frames ({anchor_p:.0} B)"
    );
}

/// The hardware side of the story: chaining reduces traffic, sparsity
/// reduces area, and the design point sustains real-time-class decode.
#[test]
fn hardware_story_holds() {
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).unwrap();
    let lbl = nvca.simulate_decode(1088, 1920, Dataflow::LayerByLayer);
    let ch = nvca.simulate_decode(1088, 1920, Dataflow::Chained);
    assert!(ch.dram_bytes < lbl.dram_bytes);
    assert!(ch.fps > lbl.fps);
    assert!(ch.fps > 20.0, "real-time-class decode, got {:.1}", ch.fps);

    let rows = nvca::offchip_comparison(&nvca, 1088, 1920);
    assert_eq!(rows.len(), 5);
    let overall: f64 = 1.0
        - rows.iter().map(|r| r.chained_bytes).sum::<u64>() as f64
            / rows.iter().map(|r| r.baseline_bytes).sum::<u64>() as f64;
    assert!(overall > 0.2, "overall reduction {:.2}", overall);
}

/// FXP deployment must stay close to FP in end-to-end quality — the
/// premise of Table I's FXP row.
#[test]
fn fxp_tracks_fp_quality() {
    let seq = Synthesizer::new(SceneConfig::hevc_b_like(64, 48, 3)).generate();
    let fp = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let fxp = CtvcCodec::new(CtvcConfig::ctvc_fxp(8)).unwrap();
    let cfp = encode_sequence(&fp, &seq, RatePoint::new(1)).unwrap();
    let cfxp = encode_sequence(&fxp, &seq, RatePoint::new(1)).unwrap();
    let dp = mean_psnr(&seq, &cfp.decoded);
    let dq = mean_psnr(&seq, &cfxp.decoded);
    assert!(dp - dq < 2.0, "FXP must track FP: {dq:.2} vs {dp:.2} dB");
}
