//! Hot-path performance benchmark and serial-vs-parallel bit-exactness
//! smoke test.
//!
//! Times the optimized kernels (direct conv, fast conv, fast and direct
//! deconv, stride-2 direct conv, direct conv and deconv at the served and
//! analysis shapes, Swin attention, deformable warp, activation
//! quantization), measures end-to-end encode/decode at `threads = 1`, `2`
//! and `max`, checks both codec families for bit-exact parallel
//! execution, gates concurrent served sessions against a serial one,
//! and gates the telemetry span overhead (enabled vs disabled) at 2 %.
//! Prints; writes nothing.
//!
//! Usage:
//!
//! ```text
//! perf_hotpath           # full run at the paper's N = 36, 64x64
//! perf_hotpath --quick   # CI smoke: small shapes, one repetition
//! ```
//!
//! Either way the exit status is non-zero if any serial-vs-parallel
//! output diverges, if the ρ = 50 % pruned fast conv or deconv is not
//! faster than its dense twin (sparsity must cut wall time, not just
//! stored weights), if a served stream differs from the in-process
//! decode or (on a multi-core host) 4 concurrent served streams do not
//! beat 1 serial stream, or if enabling telemetry spans costs more than
//! 2 %. Each timing gate reads the median per-round ratio of
//! `nvc_bench::interleaved_rounds`.
//!
//! All kernel timings run with telemetry spans disabled
//! (`nvc_telemetry::Mode::Off`); the dedicated overhead gate is what
//! measures the enabled path.

#![forbid(unsafe_code)]

use nvc_baseline::{HybridCodec, Profile};
use nvc_bench::paper::BENCH_N;
use nvc_bench::{interleaved_rounds, median};
use nvc_core::ExecCtx;
use nvc_fastalg::{FastConv2d, FastDeConv2d, Sparsity};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint, SwinAttention};
use nvc_serve::{Hello, ServeConfig, Server, StreamClient};
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::{Conv2d, DeConv2d, DeformConv2d};
use nvc_tensor::{Shape, Tensor};
use nvc_video::codec::encode_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use std::time::{Duration, Instant};

/// Best-of-`reps` wall time of `f`, in seconds (one untimed warmup).
fn bench<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn smooth_tensor(c: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn(Shape::new(1, c, h, w), |_, ci, y, x| {
        0.3 * ((ci as f32 * 0.7 + y as f32 * 0.29 + x as f32 * 0.13).sin())
    })
}

struct KernelRow {
    name: &'static str,
    ms: f64,
    mpix_s: f64,
}

/// Telemetry-overhead gate: times the span-instrumented pruned Winograd
/// kernel (always at N = 36, 64×64, whatever `--quick` says: shorter
/// calls would gate on timer noise) with telemetry enabled and disabled,
/// in [`interleaved_rounds`] so clock or cache drift cannot bias one
/// mode, and fails if the median enabled/disabled ratio exceeds 1.02.
/// Leaves telemetry off, matching the rest of the benchmark.
fn telemetry_overhead_ok(ctx: &ExecCtx) -> bool {
    // 601 rounds of one call (about 4 s): on a shared 2-core host one
    // round's ratio swings by ±10 %, and only many rounds keep the
    // median within 1 % of the true overhead. Longer batches do not
    // help: the noise lasts longer than a batch.
    const ROUNDS: usize = 601;
    let conv = Conv2d::randn(36, 36, 3, 1, 1, 7).unwrap();
    let fast = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).unwrap()).unwrap();
    let x = smooth_tensor(36, 64, 64);
    let time = |mode: nvc_telemetry::Mode| {
        nvc_telemetry::set_mode(mode);
        let t0 = Instant::now();
        fast.forward_ctx(&x, ctx).unwrap();
        t0.elapsed().as_secs_f64()
    };
    let rounds = interleaved_rounds(
        ROUNDS,
        |_| time(nvc_telemetry::Mode::Off),
        |_| time(nvc_telemetry::Mode::Full),
    );
    nvc_telemetry::set_mode(nvc_telemetry::Mode::Off);
    let ratio = median(rounds.iter().map(|(off, on)| on / off));
    println!(
        "telemetry overhead: enabled/disabled = {ratio:.4} \
         (span-instrumented fast conv, median of {ROUNDS} interleaved rounds of 1)"
    );
    ratio <= 1.02
}

/// Sparsity guard: at 24 channels, 48×48, the ρ = 50 % pruned fast conv
/// and deconv must each beat their dense twins. This keeps the
/// dense-padded-buffer detour, where pruning bought storage but no
/// compute, from coming back. Each of the [`interleaved_rounds`] times
/// one dense and one sparse call, and the gate reads the median of the
/// per-round dense/sparse ratios, so a noise spike on a 1–2 ms call
/// perturbs one ratio instead of deciding a best-of.
fn sparse_execution_pays() -> bool {
    const ROUNDS: usize = 15;
    let (x, rho) = (smooth_tensor(24, 48, 48), Sparsity::new(0.5).unwrap());
    let conv = Conv2d::randn(24, 24, 3, 1, 1, 7).unwrap();
    let deconv = DeConv2d::randn(24, 24, 4, 2, 1, 9).unwrap();
    let conv = [
        FastConv2d::from_conv(&conv),
        FastConv2d::from_conv_pruned(&conv, rho),
    ];
    let deconv = [
        FastDeConv2d::from_deconv(&deconv),
        FastDeConv2d::from_deconv_pruned(&deconv, rho),
    ];
    let speedups = [("fastconv", conv), ("fastdeconv", deconv)].map(|(name, layers)| {
        let [dense, sparse] = layers.map(Result::unwrap);
        let time = |layer: &FastConv2d| {
            let t0 = Instant::now();
            layer.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            t0.elapsed().as_secs_f64()
        };
        time(&dense);
        time(&sparse);
        let rounds = interleaved_rounds(ROUNDS, |_| time(&dense), |_| time(&sparse));
        let speedup = median(rounds.iter().map(|(d, s)| d / s));
        println!(
            "sparsity guard: {name} rho=0.5 speedup {speedup:.2}x (median of {ROUNDS} \
             interleaved rounds; median {:.2} -> {:.2} ms)",
            median(rounds.iter().map(|r| r.0 * 1e3)),
            median(rounds.iter().map(|r| r.1 * 1e3)),
        );
        speedup
    });
    speedups.iter().all(|&s| s > 1.0)
}

/// Session-level serving parallelism: 4 concurrent CTVC decode streams
/// over loopback against 1 stream alone on the same server
/// (`ctvc_fp(8)`, 64×48, 6 frames, one thread and one pool worker per
/// stream), in [`interleaved_rounds`]. Every served frame must equal the
/// in-process decode, and on a multi-core host the median per-round
/// ratio of aggregate to serial fps must exceed 1; a 1-core host cannot
/// beat serial, so there that gate is skipped and says so.
fn served_sessions_scale(host_cores: usize) -> bool {
    // A stream lasts 6–12 ms: one pair of them swings with the host,
    // the median of 21 pairs does not.
    const ROUNDS: usize = 21;
    const STREAMS: usize = 4;
    const FRAMES: usize = 6;
    let (w, h) = (64, 48);
    let cfg = CtvcConfig::ctvc_fp(8);
    let codec = CtvcCodec::new(cfg.clone()).unwrap();
    let source = Synthesizer::new(SceneConfig::uvg_like(w, h, FRAMES)).generate();
    let coded = encode_sequence(&codec, &source, RatePoint::new(1)).unwrap();
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            ctvc: cfg,
            workers: STREAMS,
            threads_per_session: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // One stream's wall time, or `None` if a frame differs.
    let stream = || {
        let t0 = Instant::now();
        let mut client = StreamClient::connect(server.addr(), Hello::ctvc_decode(1, w, h)).unwrap();
        client.set_window(2);
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        for packet in &coded.packets {
            client.send_packet(packet).unwrap();
        }
        let summary = client.finish().unwrap();
        let wall = t0.elapsed().as_secs_f64();
        let exact = summary.frames.len() == FRAMES
            && summary
                .frames
                .iter()
                .zip(coded.decoded.frames())
                .all(|(a, b)| a.tensor().as_slice() == b.tensor().as_slice());
        exact.then_some(wall)
    };
    // Rounds of one serial stream and STREAMS concurrent ones; a round
    // whose frames all match the decode yields (serial wall, aggregate
    // wall).
    let concurrent = |_| {
        let t0 = Instant::now();
        let exact = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..STREAMS).map(|_| scope.spawn(stream)).collect();
            handles.into_iter().all(|h| h.join().unwrap().is_some())
        });
        exact.then(|| t0.elapsed().as_secs_f64())
    };
    let rounds = interleaved_rounds(ROUNDS, |_| stream(), concurrent);
    server.shutdown();
    let Some(rounds) = rounds
        .into_iter()
        .map(|(serial, aggregate)| serial.zip(aggregate))
        .collect::<Option<Vec<(f64, f64)>>>()
    else {
        eprintln!("FAIL: a served stream diverged from the in-process decode");
        return false;
    };
    // Aggregate fps over serial fps, per round.
    let speedup = median(
        rounds
            .iter()
            .map(|(serial, aggregate)| STREAMS as f64 * serial / aggregate),
    );
    let serial_fps = FRAMES as f64 / median(rounds.iter().map(|r| r.0));
    let aggregate_fps = (STREAMS * FRAMES) as f64 / median(rounds.iter().map(|r| r.1));
    println!(
        "served sessions: {STREAMS} concurrent streams {aggregate_fps:.2} fps vs 1 serial \
         {serial_fps:.2} fps (median {speedup:.2}x of {ROUNDS} interleaved rounds, \
         ctvc_fp(8) {w}x{h}x{FRAMES}, bit-exact)"
    );
    if host_cores < 2 {
        println!("served sessions: throughput gate skipped, 1 core cannot beat serial");
        return true;
    }
    speedup > 1.0
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let max_threads = ExecCtx::auto().threads();
    let mut divergence = false;
    // Span-free timings; the overhead gate below is the one place the
    // enabled path is measured.
    nvc_telemetry::set_mode(nvc_telemetry::Mode::Off);

    // ---- kernel benchmarks at the paper's N = 36 ----
    let n_ch = if quick { BENCH_N } else { 36 };
    let (h, w) = if quick { (32, 32) } else { (64, 64) };
    let reps = if quick { 1 } else { 5 };
    let pix = (h * w) as f64 / 1e6;
    let x = smooth_tensor(n_ch, h, w);
    let ctx1 = ExecCtx::serial();
    let ctx_max = ExecCtx::with_threads(max_threads);

    println!("perf_hotpath: N={n_ch} {h}x{w}, host threads = {max_threads}");
    let mut rows: Vec<KernelRow> = Vec::new();

    // Direct 3x3 conv.
    let conv = Conv2d::randn(n_ch, n_ch, 3, 1, 1, 7).unwrap();
    let t_conv_1 = bench(reps, || {
        conv.forward_ctx(&x, &ctx1).unwrap();
    });
    if conv.forward_ctx(&x, &ctx1).unwrap().as_slice()
        != conv.forward_ctx(&x, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: direct conv serial vs parallel diverged");
        divergence = true;
    }
    rows.push(KernelRow {
        name: "conv3x3_direct",
        ms: t_conv_1 * 1e3,
        mpix_s: pix / t_conv_1,
    });

    // Fast (Winograd) conv, dense and 50 % pruned. The pruned operator
    // executes in compressed (value, index) form and must undercut the
    // dense one — the whole point of transform-domain pruning.
    let fast_dense = FastConv2d::from_conv(&conv).unwrap();
    let fast_sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).unwrap()).unwrap();
    let t_new = bench(reps, || {
        fast_dense.forward_ctx(&x, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "fastconv_dense",
        ms: t_new * 1e3,
        mpix_s: pix / t_new,
    });
    let t_sp = bench(reps, || {
        fast_sparse.forward_ctx(&x, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "fastconv_sparse50",
        ms: t_sp * 1e3,
        mpix_s: pix / t_sp,
    });
    let sparse_speedup = t_new / t_sp;
    if fast_sparse.forward_ctx(&x, &ctx1).unwrap().as_slice()
        != fast_sparse.forward_ctx(&x, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: fast conv serial vs parallel diverged");
        divergence = true;
    }

    // Fast (FTA) deconv.
    let deconv = DeConv2d::randn(n_ch, n_ch, 4, 2, 1, 9).unwrap();
    let fast_de = FastDeConv2d::from_deconv(&deconv).unwrap();
    let xd = smooth_tensor(n_ch, h / 2, w / 2);
    let t_de = bench(reps, || {
        fast_de.forward_ctx(&xd, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "fastdeconv_dense",
        ms: t_de * 1e3,
        mpix_s: pix / t_de,
    });
    // Direct (polyphase) deconv on the same shape: what a config without
    // sparsity runs, e.g. the default server.
    let t_dd = bench(reps, || {
        deconv.forward_ctx(&xd, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "deconv_direct",
        ms: t_dd * 1e3,
        mpix_s: pix / t_dd,
    });
    if fast_de.forward_ctx(&xd, &ctx1).unwrap().as_slice()
        != fast_de.forward_ctx(&xd, &ctx_max).unwrap().as_slice()
        || deconv.forward_ctx(&xd, &ctx1).unwrap().as_slice()
            != deconv.forward_ctx(&xd, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: deconv serial vs parallel diverged");
        divergence = true;
    }

    // Direct stride-2 conv: the analysis transform's down-sampling layers.
    let conv_down = Conv2d::randn(n_ch, n_ch, 3, 2, 1, 13).unwrap();
    let t_s2 = bench(reps, || {
        conv_down.forward_ctx(&x, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "conv3x3_s2_direct",
        ms: t_s2 * 1e3,
        mpix_s: pix / t_s2,
    });
    if conv_down.forward_ctx(&x, &ctx1).unwrap().as_slice()
        != conv_down.forward_ctx(&x, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: strided conv serial vs parallel diverged");
        divergence = true;
    }

    // Direct conv and deconv at the shapes the codecs run them at,
    // whatever `--quick` says: the three feature scales of the default
    // server's `ctvc_fp(12)` 96x64 decode (the deconvs read
    // edge-replicated inputs, two rows and columns larger; the last one is
    // the frame reconstructor's), and `Analysis::down2` of the N=36 sparse
    // encoder at 128x96. Layers of tens of microseconds, so a sample is a
    // batch.
    const SERVED_BATCH: usize = 16;
    type Served = Box<dyn Fn(&Tensor, &ExecCtx) -> Tensor>;
    let served_conv = |n: usize, stride: usize| -> Served {
        let conv = Conv2d::randn(n, n, 3, stride, 1, 17).unwrap();
        Box::new(move |x, ctx| conv.forward_ctx(x, ctx).unwrap())
    };
    let served_deconv = |c_out: usize| -> Served {
        let deconv = DeConv2d::randn(c_out, 12, 4, 2, 1, 19).unwrap();
        Box::new(move |x, ctx| deconv.forward_ctx(x, ctx).unwrap())
    };
    for (name, op, c_in, (sh, sw)) in [
        ("conv3x3_direct_n12_48x32", served_conv(12, 1), 12, (32, 48)),
        ("conv3x3_direct_n12_24x16", served_conv(12, 1), 12, (16, 24)),
        ("conv3x3_direct_n12_12x8", served_conv(12, 1), 12, (8, 12)),
        (
            "conv3x3_s2_direct_n72_32x24",
            served_conv(72, 2),
            72,
            (24, 32),
        ),
        ("deconv_direct_n12_8x6", served_deconv(12), 12, (6, 8)),
        ("deconv_direct_n12_14x10", served_deconv(12), 12, (10, 14)),
        ("deconv_direct_n12_26x18", served_deconv(12), 12, (18, 26)),
        ("deconv_direct_n12to3_50x34", served_deconv(3), 12, (34, 50)),
    ] {
        let xs = smooth_tensor(c_in, sh, sw);
        let t = bench(reps, || {
            for _ in 0..SERVED_BATCH {
                op(&xs, &ctx1);
            }
        }) / SERVED_BATCH as f64;
        rows.push(KernelRow {
            name,
            ms: t * 1e3,
            mpix_s: (sh * sw) as f64 / 1e6 / t,
        });
        if op(&xs, &ctx1).as_slice() != op(&xs, &ctx_max).as_slice() {
            eprintln!("FAIL: {name} serial vs parallel diverged");
            divergence = true;
        }
    }

    // Swin attention (2N channels, the analysis transform's shape).
    let attn = SwinAttention::new(2 * n_ch, 3, 2, 2, 11).unwrap();
    let xa = smooth_tensor(2 * n_ch, h / 4, w / 4);
    let t_at = bench(reps, || {
        attn.forward_ctx(&xa, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "attention_swin",
        ms: t_at * 1e3,
        mpix_s: (h / 4 * w / 4) as f64 / 1e6 / t_at,
    });
    if attn.forward_ctx(&xa, &ctx1).unwrap().as_slice()
        != attn.forward_ctx(&xa, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: attention serial vs parallel diverged");
        divergence = true;
    }

    // Deformable compensation as the codec builds it: centre-tap identity
    // kernels (1 live tap of 9), two offset groups, sub-pixel motion.
    let mut warp = vec![0.0_f32; n_ch * n_ch * 9];
    for c in 0..n_ch {
        warp[(c * n_ch + c) * 9 + 4] = 1.0;
    }
    let dfconv = DeformConv2d::new(warp, vec![0.0; n_ch], n_ch, n_ch, 3, 1, 2).unwrap();
    let offsets = smooth_tensor(dfconv.offset_channels(), h, w).scale(5.0);
    let t_df = bench(reps, || {
        dfconv.forward_ctx(&x, &offsets, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "dfconv_warp",
        ms: t_df * 1e3,
        mpix_s: pix / t_df,
    });
    if dfconv.forward_ctx(&x, &offsets, &ctx1).unwrap().as_slice()
        != dfconv
            .forward_ctx(&x, &offsets, &ctx_max)
            .unwrap()
            .as_slice()
    {
        eprintln!("FAIL: deformable conv serial vs parallel diverged");
        divergence = true;
    }

    // FXP12 activation quantization, as it runs after every operator.
    let mut act = x.clone();
    let t_q = bench(reps * 4, || {
        nvc_quant::fake_quantize_dynamic_inplace(&mut act, 12).unwrap();
    });
    rows.push(KernelRow {
        name: "actq_fxp12",
        ms: t_q * 1e3,
        mpix_s: pix / t_q,
    });

    for r in &rows {
        println!("{:>27}: {:7.3} ms  {:6.2} Mpix/s", r.name, r.ms, r.mpix_s);
    }
    println!("sparse50 speedup vs dense: {sparse_speedup:.2}x (compressed-kernel execution)");

    // Cache-blocked matmul (attention projection shape).
    let tokens = 81;
    let a = Mat::from_vec(
        tokens,
        2 * n_ch,
        (0..tokens * 2 * n_ch)
            .map(|i| (i % 17) as f32 * 0.1)
            .collect(),
    )
    .unwrap();
    let b = Mat::from_vec(
        2 * n_ch,
        2 * n_ch,
        (0..4 * n_ch * n_ch)
            .map(|i| (i % 13) as f32 * 0.1)
            .collect(),
    )
    .unwrap();
    let bt = b.transpose();
    let t_mm = bench(reps * 20, || {
        a.matmul_transposed(&bt).unwrap();
    });
    let gflops = 2.0 * (tokens * 2 * n_ch * 2 * n_ch) as f64 / t_mm / 1e9;
    println!(
        "matmul {tokens}x{}x{}: {gflops:.2} GFLOP/s",
        2 * n_ch,
        2 * n_ch
    );

    // Thread scaling on the heaviest kernel at 1, 2 and max workers.
    let conv_scale_at = |threads: usize| -> f64 {
        let ctx = ExecCtx::with_threads(threads);
        let t = bench(reps, || {
            conv.forward_ctx(&x, &ctx).unwrap();
        });
        t_conv_1 / t
    };
    let conv_s2 = conv_scale_at(2);
    let conv_smax = conv_scale_at(max_threads);
    println!(
        "conv3x3 thread scaling: 1.00x / {conv_s2:.2}x / {conv_smax:.2}x at 1 / 2 / {max_threads} threads"
    );

    // ---- end-to-end encode/decode at 1, 2 and max threads ----
    let (ew, eh, frames) = if quick { (48, 32, 3) } else { (96, 64, 8) };
    let e2e_reps = if quick { 1 } else { 6 };
    let seq = Synthesizer::new(SceneConfig::uvg_like(ew, eh, frames)).generate();
    let serial = CtvcCodec::new(CtvcConfig::ctvc_sparse(BENCH_N).with_threads(1)).unwrap();
    let two = CtvcCodec::new(CtvcConfig::ctvc_sparse(BENCH_N).with_threads(2)).unwrap();
    let parallel = CtvcCodec::new(CtvcConfig::ctvc_sparse(BENCH_N).with_threads(0)).unwrap();

    let coded_serial = serial.encode(&seq, RatePoint::new(1)).unwrap();
    let coded_two = two.encode(&seq, RatePoint::new(1)).unwrap();
    let coded_parallel = parallel.encode(&seq, RatePoint::new(1)).unwrap();
    if coded_serial.bitstream != coded_parallel.bitstream
        || coded_serial.bitstream != coded_two.bitstream
    {
        eprintln!("FAIL: CTVC bitstreams diverged across thread counts");
        divergence = true;
    }
    // Interleave the thread variants per repetition (best-of over
    // rounds) so cache/clock drift cannot bias one variant. When the
    // host's max parallelism resolves to 1 or 2 workers, "max" IS the
    // 1- or 2-thread configuration — reuse that measurement instead of
    // timing the identical setup twice and reporting noise as scaling.
    let variants = if max_threads > 2 { 3 } else { 2 };
    let best_of = |run: &dyn Fn(&CtvcCodec)| {
        let mut best = [f64::INFINITY; 3];
        for _ in 0..e2e_reps {
            for (best, codec) in best
                .iter_mut()
                .zip([&serial, &two, &parallel])
                .take(variants)
            {
                let t0 = Instant::now();
                run(codec);
                *best = best.min(t0.elapsed().as_secs_f64());
            }
        }
        if variants == 2 {
            best[2] = best[max_threads.min(2) - 1];
        }
        best
    };
    let [enc_t1, enc_t2, enc_tmax] = best_of(&|codec| {
        codec.encode(&seq, RatePoint::new(1)).unwrap();
    });

    let dec_serial = serial.decode(&coded_serial.bitstream).unwrap();
    let dec_parallel = parallel.decode(&coded_serial.bitstream).unwrap();
    for (a, b) in dec_serial.frames().iter().zip(dec_parallel.frames()) {
        if a.tensor().as_slice() != b.tensor().as_slice() {
            eprintln!("FAIL: CTVC serial vs parallel reconstructions diverged");
            divergence = true;
            break;
        }
    }
    let [dec_t1, dec_t2, dec_tmax] = best_of(&|codec| {
        codec.decode(&coded_serial.bitstream).unwrap();
    });

    let fpf = frames as f64;
    println!(
        "end-to-end CTVC-Net(Sparse) N={BENCH_N} {ew}x{eh}x{frames}: \
         encode {:.2}/{:.2}/{:.2} fps (t1/t2/tmax), decode {:.2}/{:.2}/{:.2} fps",
        fpf / enc_t1,
        fpf / enc_t2,
        fpf / enc_tmax,
        fpf / dec_t1,
        fpf / dec_t2,
        fpf / dec_tmax
    );
    if dec_tmax > dec_t1 {
        println!(
            "WARN: decode tmax ({:.2} fps) below t1 ({:.2} fps)",
            fpf / dec_tmax,
            fpf / dec_t1
        );
    }

    // Hybrid codec: parallel motion search bit-exactness.
    let hs = HybridCodec::with_threads(Profile::hevc_like(), 1);
    let hp = HybridCodec::with_threads(Profile::hevc_like(), max_threads);
    let ch_s = hs.encode(&seq, 24).unwrap();
    let ch_p = hp.encode(&seq, 24).unwrap();
    if ch_s.bitstream != ch_p.bitstream {
        eprintln!("FAIL: hybrid serial vs parallel bitstreams diverged");
        divergence = true;
    }

    if divergence {
        eprintln!("perf_hotpath: serial-vs-parallel DIVERGENCE detected");
        std::process::exit(1);
    }
    println!("bit-exactness: serial and parallel outputs identical for both codec families");

    if !sparse_execution_pays() {
        eprintln!("perf_hotpath: pruned execution is not faster than dense");
        std::process::exit(1);
    }

    if !served_sessions_scale(max_threads) {
        eprintln!("perf_hotpath: the served-sessions gate failed");
        std::process::exit(1);
    }

    if !telemetry_overhead_ok(&ctx1) {
        eprintln!("perf_hotpath: telemetry span overhead exceeds 2%");
        std::process::exit(1);
    }
}
