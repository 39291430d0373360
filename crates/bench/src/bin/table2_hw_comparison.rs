//! Regenerates **Table II**: comparison with other pixel-processing
//! accelerators. Cited rows carry the paper's published numbers; the
//! "NVCA (this repo)" row comes from the cycle-level simulator; the CPU
//! row is additionally re-measured on this machine.

#![forbid(unsafe_code)]

use nvc_bench::BENCH_N;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_sim::comparators::{cited_rows, Provenance};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvca::Nvca;
use std::time::Instant;

fn measured_cpu_gops() -> f64 {
    // Measure real decode throughput of this machine on a small frame and
    // convert to GOPS via the workload's direct-equivalent MACs.
    let (w, h, frames) = (96usize, 64usize, 3usize);
    let seq = Synthesizer::new(SceneConfig::uvg_like(w, h, frames)).generate();
    let cfg = CtvcConfig::ctvc_fp(BENCH_N);
    let codec = CtvcCodec::new(cfg).expect("valid config");
    let coded = codec.encode(&seq, RatePoint::new(1)).expect("encode");
    let t0 = Instant::now();
    let _ = codec.decode(&coded.bitstream).expect("decode");
    let secs = t0.elapsed().as_secs_f64();
    // Count what the CPU ran: frame 0 is intra (frame reconstruction
    // only), and a P frame skips feature extraction because the decoder
    // keeps the previous features as its reference.
    let p_frame = codec.decoder_workload(h, w);
    let p_macs: u64 = p_frame
        .layers()
        .iter()
        .filter(|l| l.module != "feature_extraction")
        .map(|l| l.op.macs())
        .sum();
    let macs = codec.intra_workload(h, w).total_macs() + (frames as u64 - 1) * p_macs;
    2.0 * macs as f64 / secs / 1e9
}

fn main() {
    println!("=== Table II: comparison with other accelerators ===\n");
    println!(
        "{:<18} {:>5} {:>6} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}  provenance",
        "platform", "nm", "MHz", "precision", "gates M", "SRAM KB", "power W", "GOPS", "GOPS/W"
    );
    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
    for row in cited_rows() {
        println!(
            "{:<18} {:>5} {:>6.0} {:>10} {:>8} {:>8} {:>8.2} {:>10.1} {:>10.1}  {}",
            row.name,
            row.technology_nm,
            row.freq_mhz,
            row.precision,
            fmt_opt(row.gate_count_m),
            fmt_opt(row.sram_kb),
            row.power_w,
            row.throughput_gops,
            row.gops_per_watt(),
            match row.provenance {
                Provenance::Cited => "cited",
                Provenance::Reproduced => "reproduced",
            }
        );
    }

    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).expect("paper design");
    let row = nvca.table2_row();
    println!(
        "{:<18} {:>5} {:>6.0} {:>10} {:>8} {:>8} {:>8.2} {:>10.1} {:>10.1}  reproduced (simulator)",
        row.name,
        row.technology_nm,
        row.freq_mhz,
        row.precision,
        fmt_opt(row.gate_count_m),
        fmt_opt(row.sram_kb),
        row.power_w,
        row.throughput_gops,
        row.gops_per_watt()
    );

    eprintln!("\nmeasuring local CPU throughput...");
    let cpu_gops = measured_cpu_gops();
    println!(
        "{:<18} {:>5} {:>6} {:>10} {:>8} {:>8} {:>8} {:>10.1} {:>10}  measured on this machine",
        "CPU (local)", "-", "-", "FP 32-32", "-", "-", "-", cpu_gops, "-"
    );

    let rep = nvca.simulate_decode(1088, 1920, nvc_sim::Dataflow::Chained);
    println!(
        "\nNVCA simulated 1080p decode: {:.1} fps, {:.2} W chip ({:.2} W with DRAM),",
        rep.fps, rep.power_w, rep.system_power_w
    );
    println!(
        "utilization {:.0}%, {:.1} GB/s off-chip.",
        rep.utilization * 100.0,
        rep.dram_bytes as f64 * rep.fps / 1e9
    );
    println!("\nShape check: NVCA-class throughput >> CPU; GOPS/W in the thousands");
    println!("(paper: 3525 GOPS, 4638 GOPS/W, 2.4x GPU / 11.1x CPU throughput).");
}
