//! Micro-benchmarks, one group per table/figure family, on a small
//! self-contained timing harness (`harness = false`; no external
//! benchmarking crates are available in the build environment).
//!
//! These complement the `paper` report (`src/bin/paper.rs`, which prints
//! every published number): they track the hot kernels behind each
//! experiment so regressions in the fast operators, the codec loop or the
//! simulator are visible as timing changes. Run with `cargo bench -p
//! nvc-bench`.

use nvc_baseline::{HybridCodec, Profile};
use nvc_fastalg::{FastConv2d, FastDeConv2d, Sparsity};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_sim::Dataflow;
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_tensor::{Shape, Tensor};
use nvc_video::metrics::{ms_ssim, psnr};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvca::Nvca;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` adaptively: warm up, then run enough iterations to fill
/// ~200 ms, and report the median of 5 batches.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    // Warm-up + calibration.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(100));
    let iters = (Duration::from_millis(40).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let med = samples[samples.len() / 2];
    let (val, unit) = if med >= 1.0 {
        (med, "s ")
    } else if med >= 1e-3 {
        (med * 1e3, "ms")
    } else {
        (med * 1e6, "µs")
    };
    println!("{group:<24} {name:<34} {val:>10.2} {unit}/iter  ({iters} iters x 5)");
}

/// Fig. 8 / Table I hot path: codec rate points.
fn bench_rd_points() {
    let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 2)).generate();
    let ctvc = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).expect("config");
    let hybrid = HybridCodec::new(Profile::hevc_like());
    let g = "table1_fig8_rd";
    bench(g, "ctvc_encode_48x32x2", || {
        black_box(ctvc.encode(&seq, RatePoint::new(1)).expect("encode"));
    });
    let coded = ctvc.encode(&seq, RatePoint::new(1)).expect("encode");
    bench(g, "ctvc_decode_48x32x2", || {
        black_box(ctvc.decode(&coded.bitstream).expect("decode"));
    });
    bench(g, "hevc_like_encode_48x32x2", || {
        black_box(hybrid.encode(&seq, 24).expect("encode"));
    });
    let hc = hybrid.encode(&seq, 24).expect("encode");
    bench(g, "hevc_like_decode_48x32x2", || {
        black_box(hybrid.decode(&hc.bitstream).expect("decode"));
    });
}

/// §III-B fast algorithms: transform-domain operators vs direct.
fn bench_fastalg() {
    let x = Tensor::from_fn(Shape::new(1, 12, 48, 48), |_, ch, y, xx| {
        ((ch + y + xx) as f32 * 0.37).sin()
    });
    let conv = Conv2d::randn(12, 12, 3, 1, 1, 1).expect("conv");
    let wino = FastConv2d::from_conv(&conv).expect("fast");
    let wino_sparse =
        FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).expect("rho")).expect("sparse");
    let deconv = DeConv2d::randn(12, 12, 4, 2, 1, 2).expect("deconv");
    let fta = FastDeConv2d::from_deconv(&deconv).expect("fast");
    let g = "ablation_fastalg";
    bench(g, "direct_conv3x3_12ch_48", || {
        black_box(conv.forward(&x).expect("fwd"));
    });
    bench(g, "winograd_dense_12ch_48", || {
        black_box(wino.forward(&x).expect("fwd"));
    });
    bench(g, "winograd_sparse50_12ch_48", || {
        black_box(wino_sparse.forward(&x).expect("fwd"));
    });
    bench(g, "direct_deconv4x4_12ch_48", || {
        black_box(deconv.forward(&x).expect("fwd"));
    });
    bench(g, "fta_dense_12ch_48", || {
        black_box(fta.forward(&x).expect("fwd"));
    });
}

/// Table II / Fig. 9 hot path: the cycle-level simulator at 1080p.
fn bench_simulator() {
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).expect("design");
    let wl = nvca.decoder_workload(1088, 1920);
    let g = "table2_fig9_simulator";
    bench(g, "simulate_1080p_chained", || {
        black_box(nvca.simulator().run(&wl, Dataflow::Chained));
    });
    bench(g, "simulate_1080p_layer_by_layer", || {
        black_box(nvca.simulator().run(&wl, Dataflow::LayerByLayer));
    });
}

/// Fig. 8 metric kernels: PSNR and MS-SSIM.
fn bench_metrics() {
    let seq = Synthesizer::new(SceneConfig::hevc_b_like(96, 64, 2)).generate();
    let (a, b2) = (&seq.frames()[0], &seq.frames()[1]);
    let g = "fig8_metrics";
    bench(g, "psnr_96x64", || {
        black_box(psnr(a, b2).expect("psnr"));
    });
    bench(g, "ms_ssim_96x64", || {
        black_box(ms_ssim(a, b2).expect("ms-ssim"));
    });
}

fn main() {
    println!("{:<24} {:<34} {:>14}", "group", "benchmark", "median");
    bench_rd_points();
    bench_fastalg();
    bench_simulator();
    bench_metrics();
}
