//! Per-layer probes: timed calls into each crate's public functions,
//! from outside the program, plus reads of the instruments the program
//! already publishes. They say which layer a change moved; they gate
//! nothing.
//!
//! What a probe from outside cannot see: `nvc_model::latent` is
//! private, so quantize/dequantize and the range coder's share of a
//! frame only show as the gap `model.*_probe_coverage` leaves; and the
//! poller's internals only show through `ServeReport` and the scrape.

use crate::pacer::ms;
use crate::stats::{median, percentile, percentile_supported, quartile_spread, sorted};
use crate::trace::Tracer;
use crate::workloads::{clients, nproc, Layers, Window};
use nvc::core::Nvca;
use nvc::entropy::container::{crc32, read_sections, Packet};
use nvc::entropy::{LaplaceModel, RangeDecoder, RangeEncoder};
use nvc::exec::ExecCtx;
use nvc::fastalg::{FastConv2d, FastDeConv2d, Sparsity};
use nvc::model::{
    motion, CompressionAutoencoder, CtvcCodec, CtvcConfig, DeformableCompensation,
    FeatureExtractor, FrameReconstructor, SwinAttention,
};
use nvc::sim::Dataflow;
use nvc::tensor::mat::Mat;
use nvc::tensor::ops::{Conv2d, DeConv2d};
use nvc::tensor::{Shape, Tensor};
use nvc::video::metrics::psnr_sequence;
use nvc::video::{Frame, Sequence};
use std::hint::black_box;
use std::time::Instant;

/// The `perf_hotpath` kernel shape: `N = 36` channels at 64×64.
const KERNEL_N: usize = 36;
const KERNEL_HW: usize = 64;
/// Kernel probes are best-of-5 after one warm-up call.
const KERNEL_REPS: usize = 5;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f` once; its result and wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Best wall time in ms of `reps` calls after one warm-up call.
pub fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// Best frames per second of `reps` passes of `frames` frames, after
/// one warm-up pass.
pub fn best_fps(reps: usize, frames: usize, f: impl FnMut()) -> f64 {
    frames as f64 * 1e3 / best_ms(reps, f)
}

/// Best-of-[`KERNEL_REPS`] time in ms of one operator call whose shapes
/// the caller has already validated.
fn forward_ms(f: &dyn Fn() -> Result<Tensor, nvc::tensor::TensorError>) -> f64 {
    best_ms(KERNEL_REPS, || {
        black_box(f().expect("probe shapes are validated before timing"));
    })
}

/// Median duration in ms of the spans called `name`.
pub fn span_p50(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name))
}

/// nvc-video's share of set-up: clip synthesis (timed in set-up, passed
/// in as `synth_ms` for the whole clip) and PSNR (timed here).
pub fn video(
    synth_ms: f64,
    clip: &Sequence,
    decoded: &[Frame],
    layers: &mut Layers,
) -> Result<(), String> {
    let pairs: Vec<(&Frame, &Frame)> = clip.frames().iter().zip(decoded).collect();
    let (psnr, psnr_ms) = timed(|| psnr_sequence(&pairs));
    psnr.map_err(err)?;
    let frames = pairs.len() as f64;
    layers.set("video.synth_ms_per_frame", synth_ms / frames);
    layers.set("video.psnr_ms_per_frame", psnr_ms / frames);
    Ok(())
}

/// The four kernel-family span series nvc-fastalg keeps in the global
/// registry; the traced window's share of them is real in-run kernel
/// time, not a probe.
const KERNEL_SERIES: [(&str, &str); 4] = [
    (
        "nvc_kernel_winograd_sparse_us",
        "fastalg.winograd_sparse_ms_per_frame",
    ),
    (
        "nvc_kernel_fta_sparse_us",
        "fastalg.fta_sparse_ms_per_frame",
    ),
    (
        "nvc_kernel_winograd_dense_us",
        "fastalg.winograd_dense_ms_per_frame",
    ),
    ("nvc_kernel_fta_dense_us", "fastalg.fta_dense_ms_per_frame"),
];

pub struct KernelTime([u64; 4]);

impl KernelTime {
    pub fn now() -> Self {
        KernelTime(KERNEL_SERIES.map(|(series, _)| nvc::telemetry::histogram(series).sum()))
    }

    /// Kernel microseconds accumulated since `self`, per frame. Calls on
    /// different threads add up, so with `threads > 1` this is busy
    /// time, not wall time.
    pub fn report_since(&self, frames: u64, layers: &mut Layers) {
        let now = KernelTime::now();
        for ((_, metric), (before, after)) in KERNEL_SERIES.iter().zip(self.0.iter().zip(now.0)) {
            let us = after.saturating_sub(*before) as f64;
            layers.set(metric, us / 1e3 / frames.max(1) as f64);
        }
    }
}

/// What the benchmark says about itself and its load generator.
pub fn bench_and_loadgen(plain: &Window, traced: &Window, tracer: &Tracer, layers: &mut Layers) {
    layers.set("bench.trace_overhead_ratio", plain.fps() / traced.fps());
    layers.set(
        "bench.fps_iqr_pct",
        quartile_spread(&traced.pass_fps).unwrap_or(0.0) * 100.0,
    );
    layers.set("bench.spans", tracer.len() as f64);
    layers.set("bench.passes", traced.pass_fps.len() as f64);
    layers.set("bench.cores", nproc() as f64);
    layers.set("bench.clients", clients() as f64);
    layers.set(
        "bench.failed_share",
        traced.failed as f64 / traced.attempted.max(1) as f64,
    );
    layers.set("loadgen.frame_samples", traced.frame_ms.len() as f64);
    let samples = traced.frame_ms.len() + traced.failed as usize;
    if percentile_supported(samples, 0.9) {
        layers.set("loadgen.frame_ms_p90", traced.latency_percentile(0.9));
    }
    if percentile_supported(samples, 0.99) {
        layers.set("loadgen.frame_ms_p99", traced.latency_percentile(0.99));
    }
    layers.set("loadgen.capacity_fps", traced.fps());
    if let Some(rate) = traced.paced_rate_fps {
        let period_ms = 1e3 / rate;
        let on_time = traced.frame_ms.iter().filter(|&&l| l <= period_ms).count();
        let paced_frames = traced.frame_ms.len() as u64 + traced.paced_failed;
        layers.set(
            "loadgen.on_time_share",
            on_time as f64 / paced_frames.max(1) as f64,
        );
        layers.set(
            "loadgen.late_ms_p90",
            percentile(&sorted(&traced.late_ms), 0.9),
        );
        layers.set("loadgen.paced_fps", traced.paced_fps);
        layers.set("loadgen.paced_rate_fps", rate);
    }
}

/// nvc-core's pool: lease waits and holds, from the global registry
/// (every pool in the process reports there).
pub fn pool_leases(layers: &mut Layers) {
    let wait = nvc::telemetry::histogram("nvc_pool_lease_wait_us");
    let hold = nvc::telemetry::histogram("nvc_pool_lease_hold_us");
    if wait.count() > 0 {
        layers.set("exec.pool_lease_wait_us_p50", wait.quantile(0.5) as f64);
        layers.set("exec.pool_lease_wait_us_p90", wait.quantile(0.9) as f64);
        layers.set("exec.pool_lease_hold_us_p50", hold.quantile(0.5) as f64);
    }
}

fn smooth_tensor(c: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn(Shape::new(1, c, h, w), |_, ci, y, x| {
        0.3 * ((ci as f32 * 0.7 + y as f32 * 0.29 + x as f32 * 0.13).sin())
    })
}

/// nvc-tensor, nvc-fastalg and nvc-quant at the fixed `perf_hotpath`
/// shape, one thread: the same numbers on every workload, so a kernel
/// change shows here whatever the workload made of it.
pub fn kernels(layers: &mut Layers) -> Result<(), String> {
    let (n, hw) = (KERNEL_N, KERNEL_HW);
    let ctx = ExecCtx::serial();
    let x = smooth_tensor(n, hw, hw);
    let xd = smooth_tensor(n, hw / 2, hw / 2);
    let half = Sparsity::new(0.5).map_err(err)?;

    let conv = Conv2d::randn(n, n, 3, 1, 1, 7).map_err(err)?;
    layers.set(
        "tensor.conv3x3_direct_ms",
        forward_ms(&|| conv.forward_ctx(black_box(&x), &ctx)),
    );
    let wino_dense = FastConv2d::from_conv(&conv).map_err(err)?;
    let wino_sparse = FastConv2d::from_conv_pruned(&conv, half).map_err(err)?;
    let dense_ms = forward_ms(&|| wino_dense.forward_ctx(black_box(&x), &ctx));
    let sparse_ms = forward_ms(&|| wino_sparse.forward_ctx(black_box(&x), &ctx));
    layers.set("fastalg.winograd_dense_ms", dense_ms);
    layers.set("fastalg.winograd_sparse50_ms", sparse_ms);
    layers.set("fastalg.sparse_speedup", dense_ms / sparse_ms);
    layers.set(
        "fastalg.hadamard_mults_dense",
        wino_dense.hadamard_mults(hw, hw) as f64,
    );
    layers.set(
        "fastalg.hadamard_mults_sparse50",
        wino_sparse.hadamard_mults(hw, hw) as f64,
    );

    let deconv = DeConv2d::randn(n, n, 4, 2, 1, 9).map_err(err)?;
    layers.set(
        "tensor.deconv_direct_ms",
        forward_ms(&|| deconv.forward_ctx(black_box(&xd), &ctx)),
    );
    let fta_dense = FastDeConv2d::from_deconv(&deconv).map_err(err)?;
    let fta_sparse = FastDeConv2d::from_deconv_pruned(&deconv, half).map_err(err)?;
    layers.set(
        "fastalg.fta_dense_ms",
        forward_ms(&|| fta_dense.forward_ctx(black_box(&xd), &ctx)),
    );
    layers.set(
        "fastalg.fta_sparse50_ms",
        forward_ms(&|| fta_sparse.forward_ctx(black_box(&xd), &ctx)),
    );

    // Cache-blocked matmul at the attention projection shape.
    let (tokens, c2) = (81, 2 * n);
    let a = Mat::from_vec(
        tokens,
        c2,
        (0..tokens * c2).map(|i| (i % 17) as f32 * 0.1).collect(),
    )
    .map_err(err)?;
    let bt = Mat::from_vec(
        c2,
        c2,
        (0..c2 * c2).map(|i| (i % 13) as f32 * 0.1).collect(),
    )
    .map_err(err)?
    .transpose();
    let mm_ms = best_ms(KERNEL_REPS * 20, || {
        black_box(
            black_box(&a)
                .matmul_transposed(&bt)
                .expect("probe shapes are fixed and valid"),
        );
    });
    layers.set(
        "tensor.matmul_gflops",
        2.0 * (tokens * c2 * c2) as f64 / (mm_ms / 1e3) / 1e9,
    );

    // `NumericCtx::actq` is private to nvc-model; this is the public
    // nvc-quant function it calls for FXP12 activations.
    layers.set(
        "quant.actq_ms",
        best_ms(KERNEL_REPS, || {
            black_box(
                nvc::quant::fake_quantize_dynamic(black_box(&x), 12)
                    .expect("12 bits is a valid width"),
            );
        }),
    );
    Ok(())
}

/// How often one P frame calls each probed module: the weights of the
/// coverage sums. Decode reads two latents (mask + synthesis each),
/// compensates once and reconstructs once. Encode extracts features,
/// searches motion, analyses two latents, evaluates six masks (encoder
/// mask + dequantizer mask per latent, then the embedded decode's two),
/// synthesises three times, compensates twice and reconstructs once.
const DECODE_CALLS: [(&str, f64); 4] = [
    ("model.latent_mask_ms", 2.0),
    ("model.synthesis_ms", 2.0),
    ("model.compensation_ms", 1.0),
    ("model.reconstruction_ms", 1.0),
];
const ENCODE_CALLS: [(&str, f64); 7] = [
    ("model.feature_extract_ms", 1.0),
    ("model.motion_search_ms", 1.0),
    ("model.analysis_ms", 2.0),
    ("model.latent_mask_ms", 6.0),
    ("model.synthesis_ms", 3.0),
    ("model.compensation_ms", 2.0),
    ("model.reconstruction_ms", 1.0),
];

fn coverage(calls: &[(&str, f64)], frame_ms: f64, layers: &Layers) -> f64 {
    let probed: f64 = calls.iter().map(|(name, n)| layers.get(name) * n).sum();
    if frame_ms > 0.0 {
        probed / frame_ms
    } else {
        0.0
    }
}

/// Σ(probe × calls per P frame) ÷ the measured P-frame median. The two
/// decode branches run side by side on `ExecCtx::join`, so with
/// `threads > 1` the serial probe sum can exceed the measured frame;
/// what is left below 1 is the unattributed share (latent coding,
/// packet parsing, tensor adds and clamps).
pub fn decode_coverage(frame_ms: f64, layers: &mut Layers) {
    let share = coverage(&DECODE_CALLS, frame_ms, layers);
    layers.set("model.decode_probe_coverage", share);
}

pub fn encode_coverage(frame_ms: f64, layers: &mut Layers) {
    let share = coverage(&ENCODE_CALLS, frame_ms, layers);
    layers.set("model.encode_probe_coverage", share);
}

/// nvc-model's public modules, built from the workload's configuration
/// (same seeds, so same weights as the codec's private copies) and run
/// on tensors derived from the workload's own clip, on a context as
/// wide as the codec's.
pub fn model(codec: &CtvcCodec, clip: &Sequence, layers: &mut Layers) -> Result<(), String> {
    let cfg: &CtvcConfig = codec.config();
    let exec = codec.exec();
    let fe = FeatureExtractor::new(cfg).map_err(err)?;
    let fr = FrameReconstructor::new(cfg).map_err(err)?;
    let comp = DeformableCompensation::new(cfg).map_err(err)?;
    let motion_ae = CompressionAutoencoder::new(cfg, cfg.seed ^ 0x0001).map_err(err)?;

    let x_ref = clip.frames()[0].tensor();
    let x_cur = clip.frames()[1].tensor();
    let f_ref = fe.forward_ctx(x_ref, exec).map_err(err)?;
    let f_cur = fe.forward_ctx(x_cur, exec).map_err(err)?;
    let search = || {
        motion::estimate_motion_ctx(
            &motion::matching_plane(&f_cur),
            &motion::matching_plane(&f_ref),
            cfg.me_block,
            cfg.me_range,
            cfg.half_pel_motion,
            exec,
        )
    };
    let field = search();
    let (_, _, fh, fw) = f_cur.shape().dims();
    let o_t = Tensor::from_fn(Shape::new(1, cfg.n, fh, fw), |_, c, y, x| match c {
        0 | 1 => field.at(0, c, y, x) / 4.0,
        _ => 0.0,
    });
    let z = motion_ae.analysis.forward_ctx(&o_t, exec).map_err(err)?;
    let o_hat = motion_ae.synthesis.forward_ctx(&z, exec).map_err(err)?;
    let attention = SwinAttention::new(2 * cfg.n, 3, 2, 2, 11).map_err(err)?;
    let paired = Tensor::concat_channels(&[&z, &z.scale(-1.0)]).map_err(err)?;

    layers.set(
        "model.feature_extract_ms",
        forward_ms(&|| fe.forward_ctx(x_cur, exec)),
    );
    layers.set(
        "model.motion_search_ms",
        best_ms(KERNEL_REPS, || {
            black_box(search());
        }),
    );
    layers.set(
        "model.analysis_ms",
        forward_ms(&|| motion_ae.analysis.forward_ctx(&o_t, exec)),
    );
    layers.set(
        "model.latent_mask_ms",
        forward_ms(&|| motion_ae.latent_mask_ctx(&z, exec)),
    );
    layers.set(
        "model.attention_swin_ms",
        forward_ms(&|| attention.forward_ctx(&paired, exec)),
    );
    layers.set(
        "model.synthesis_ms",
        forward_ms(&|| motion_ae.synthesis.forward_ctx(&z, exec)),
    );
    layers.set(
        "model.compensation_ms",
        forward_ms(&|| comp.forward_ctx(&f_ref, &o_hat, exec)),
    );
    layers.set(
        "model.reconstruction_ms",
        forward_ms(&|| fr.forward_ctx(&f_cur, exec)),
    );
    Ok(())
}

/// Deterministic Laplace-like symbols: what a quantized latent looks
/// like to the range coder.
fn laplace_symbols(count: usize, max_sym: i32) -> Vec<i32> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let magnitude = (-(1.0 - u).ln() * 1.5) as i32;
            let sign = if state & 1 == 0 { 1 } else { -1 };
            (sign * magnitude).clamp(-max_sym, max_sym)
        })
        .collect()
}

/// nvc-entropy: the range coder on the workload's symbol count, the
/// packet container on the workload's packets, CRC32 on a buffer the
/// size of one raw frame message.
pub fn entropy(
    wire: &[Vec<u8>],
    symbols: usize,
    width: usize,
    height: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    const MAX_SYM: i32 = 32;
    let model = LaplaceModel::new(1.5, MAX_SYM).map_err(err)?;
    let values = laplace_symbols(symbols, MAX_SYM);
    let encode = || {
        let mut enc = RangeEncoder::new();
        for &v in &values {
            enc.encode(&model.interval(v), model.total());
        }
        enc.finish()
    };
    let coded = encode();
    let decode = || {
        let mut dec = RangeDecoder::new(&coded);
        let mut out = Vec::with_capacity(values.len());
        for _ in 0..values.len() {
            let (v, interval) = model.lookup(dec.decode_freq(model.total()));
            dec.decode_update(&interval, model.total());
            out.push(v);
        }
        out
    };
    if decode() != values {
        return Err("range coder probe did not round-trip".into());
    }
    let msym = symbols as f64 / 1e6;
    let encode_ms = best_ms(KERNEL_REPS, || {
        black_box(encode());
    });
    let decode_ms = best_ms(KERNEL_REPS, || {
        black_box(decode());
    });
    layers.set("entropy.range_encode_msym_s", msym / (encode_ms / 1e3));
    layers.set("entropy.range_decode_msym_s", msym / (decode_ms / 1e3));

    let parse_ms = best_ms(KERNEL_REPS, || {
        for bytes in wire {
            let (packet, _) =
                Packet::from_bytes(black_box(bytes)).expect("packets parsed in set-up");
            black_box(read_sections(&packet.payload).expect("sections parsed in set-up"));
        }
    });
    layers.set(
        "entropy.packet_parse_us",
        parse_ms * 1e3 / wire.len() as f64,
    );

    let frame_bytes = vec![0xA5_u8; width * height * 3 * 4];
    let crc_ms = best_ms(KERNEL_REPS * 4, || {
        black_box(crc32(black_box(&frame_bytes)));
    });
    layers.set(
        "entropy.crc32_mb_s",
        frame_bytes.len() as f64 / 1e6 / (crc_ms / 1e3),
    );
    Ok(())
}

/// The decoder-graph modules, in `Workload::modules()` order; each has
/// a `sim.cycles_share.<module>` metric.
const SIM_MODULES: [&str; 5] = [
    "feature_extraction",
    "motion_synthesis",
    "deformable_compensation",
    "residual_synthesis",
    "frame_reconstruction",
];

/// nvc-sim + nvca on the sparse geometry. Everything but
/// `sim.host_us_per_frame` is simulated time and repeats exactly.
pub fn sim(
    bitstream: &[u8],
    height: usize,
    width: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let nvca = Nvca::paper_design(crate::workloads::decode_sparse::sparse_config(clients()))
        .map_err(err)?;
    let modules = nvca.decoder_workload(height, width).modules();
    if modules != SIM_MODULES {
        return Err(format!("decoder graph modules changed: {modules:?}"));
    }
    let (stream, host_ms) = timed(|| nvca.simulate_decode_stream(bitstream, Dataflow::Chained));
    let stream = stream.map_err(err)?;
    layers.set(
        "sim.host_us_per_frame",
        host_ms * 1e3 / stream.frames.len() as f64,
    );
    layers.set("sim.simulated_fps", stream.fps);
    let chained = nvca.simulate_decode(height, width, Dataflow::Chained);
    let layerwise = nvca.simulate_decode(height, width, Dataflow::LayerByLayer);
    let intra = nvca
        .simulator()
        .run(&nvca.intra_workload(height, width), Dataflow::Chained);
    layers.set("sim.decode_cycles_per_frame", chained.total_cycles as f64);
    layers.set("sim.intra_cycles_per_frame", intra.total_cycles as f64);
    layers.set("sim.offchip_bytes_chained", chained.dram_bytes as f64);
    layers.set("sim.offchip_bytes_layerwise", layerwise.dram_bytes as f64);
    layers.set(
        "sim.offchip_reduction_pct",
        100.0 * (1.0 - chained.dram_bytes as f64 / layerwise.dram_bytes as f64),
    );
    layers.set("sim.utilization", chained.utilization);
    let layer_cycles: u64 = chained.layers.iter().map(|l| l.cycles).sum();
    for module in SIM_MODULES {
        let cycles: u64 = chained
            .layers
            .iter()
            .filter(|l| l.module == module)
            .map(|l| l.cycles)
            .sum();
        layers.set(
            &format!("sim.cycles_share.{module}"),
            cycles as f64 / layer_cycles as f64,
        );
    }
    Ok(())
}
