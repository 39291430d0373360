//! Regenerates **Table I**: BDBR(%) against the H.265-like anchor, for
//! PSNR and MS-SSIM, on the three dataset presets.

#![forbid(unsafe_code)]

use nvc_bench::{dataset_presets, fmt_bd, msssim_curve, psnr_curve, rd_sweep, LadderCodec};
use nvc_video::bdrate::bd_rate;
use nvc_video::synthetic::Synthesizer;

fn main() {
    println!("=== Table I: BDBR(%) vs H.265-like anchor (negative = rate savings) ===");
    println!("Paper reference (UVG, PSNR): H.264 +35.27, DVC +8.45, FVC -28.71,");
    println!("  DCVC -35.00, CTVC FP -36.62, FXP -35.91, Sparse -35.19\n");

    let presets = dataset_presets();
    let sequences: Vec<_> = presets
        .iter()
        .map(|(name, cfg)| (*name, Synthesizer::new(cfg.clone()).generate()))
        .collect();

    // Anchor curves per dataset.
    let anchors: Vec<_> = sequences
        .iter()
        .map(|(name, seq)| {
            eprintln!("[anchor] {name}");
            (name, rd_sweep(LadderCodec::HevcLike, seq))
        })
        .collect();

    println!(
        "{:<22} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "codec", "UVG/PSNR", "HB/PSNR", "MCL/PSNR", "UVG/SSIM", "HB/SSIM", "MCL/SSIM"
    );
    for codec in LadderCodec::all() {
        let mut psnr_cols = Vec::new();
        let mut ssim_cols = Vec::new();
        for (i, (name, seq)) in sequences.iter().enumerate() {
            eprintln!("[{}] {name}", codec.label());
            let samples = rd_sweep(codec, seq);
            let anchor = &anchors[i].1;
            psnr_cols.push(fmt_bd(bd_rate(&psnr_curve(anchor), &psnr_curve(&samples))));
            ssim_cols.push(fmt_bd(bd_rate(
                &msssim_curve(anchor),
                &msssim_curve(&samples),
            )));
        }
        println!(
            "{:<22} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
            codec.label(),
            psnr_cols[0],
            psnr_cols[1],
            psnr_cols[2],
            ssim_cols[0],
            ssim_cols[1],
            ssim_cols[2]
        );
    }
    println!("\nShape check (see README \"Reproducing the paper\"): the classical");
    println!("generation gap and the learned-ladder ordering (DVC > FVC > CTVC in BDBR)");
    println!("reproduce; the absolute learned-vs-anchor sign does not — analytic");
    println!("(untrained) weights cap the learned codecs' quality ceiling, so their BDBR");
    println!("vs the anchor is positive even though their P-frames cost a fraction of");
    println!("the anchor's.");
    println!("'n/a' marks curve pairs whose distortion ranges do not overlap.");
}
