//! Quickstart: encode a synthetic clip with CTVC-Net (whole sequence and
//! streaming), decode it, measure quality, and ask the NVCA simulator
//! what the hardware would do.
//!
//! Run with: `cargo run --release --example quickstart`

#![forbid(unsafe_code)]

use nvc_model::{CtvcConfig, RatePoint};
use nvc_sim::Dataflow;
use nvc_video::codec::{decode_bitstream, encode_sequence, DecoderSession, EncoderSession};
use nvc_video::metrics::{ms_ssim_sequence, psnr_sequence};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvca::Nvca;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small synthetic clip (UVG-like preset).
    let seq = Synthesizer::new(SceneConfig::uvg_like(96, 64, 4)).generate();
    println!(
        "source: {}x{}, {} frames",
        seq.width(),
        seq.height(),
        seq.frames().len()
    );

    // 2. Deploy the sparse CTVC-Net on the paper's accelerator design.
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(12))?;

    // 3. Encode and decode through the real bitstream.
    let coded = encode_sequence(nvca.codec(), &seq, RatePoint::new(1))?;
    let bitstream = coded.to_bytes();
    let decoded = decode_bitstream(nvca.codec(), &bitstream)?;
    let pairs: Vec<_> = seq.frames().iter().zip(decoded.frames()).collect();
    let pairs: Vec<_> = pairs.iter().map(|(a, b)| (*a, *b)).collect();
    println!(
        "coded {} bytes ({:.4} bpp): {:.2} dB PSNR, {:.4} MS-SSIM",
        coded.stats.total_bytes,
        coded.stats.bpp(seq.pixels_per_frame()),
        psnr_sequence(&pairs)?,
        ms_ssim_sequence(&pairs)?
    );

    // 4. The same codec, streaming: push frames, pull CRC-protected
    //    packets, decode them one at a time on the other side.
    let mut enc = nvca.codec().start_encode(RatePoint::new(1));
    let mut dec = nvca.codec().start_decode();
    for (i, frame) in seq.frames().iter().enumerate() {
        let packet = enc.push_frame(frame)?;
        let rec = dec.push_packet(&packet.to_bytes())?;
        println!(
            "  frame {i}: {:?} packet, {} bytes -> decoded {}x{}",
            packet.kind,
            packet.encoded_len(),
            rec.width(),
            rec.height()
        );
    }
    let stats = enc.finish()?;
    println!(
        "streamed {} frames, {} bytes total",
        stats.frames, stats.total_bytes
    );

    // 5. Hardware: what does decoding the packet stream cost on NVCA?
    let stream_rep = nvca.simulate_decode_stream(&bitstream, Dataflow::Chained)?;
    println!(
        "NVCA decode of this stream: {:.0} fps sustained, {:.2} KB off-chip",
        stream_rep.fps,
        stream_rep.dram_bytes as f64 / 1e3
    );

    // 6. Hardware: what does decoding 1080p cost on NVCA?
    let report = nvca.simulate_decode(1088, 1920, Dataflow::Chained);
    println!(
        "NVCA @1080p: {:.1} fps, {:.2} W chip power, {:.0} GOPS, {:.0} GOPS/W, {:.1} MB off-chip/frame",
        report.fps,
        report.power_w,
        report.physical_gops,
        report.gops_per_watt,
        report.dram_bytes as f64 / 1e6
    );
    Ok(())
}
