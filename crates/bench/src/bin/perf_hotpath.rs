//! Hot-path performance benchmark, serial-vs-parallel bit-exactness
//! smoke test and perf-regression gate.
//!
//! Times the optimized kernels (direct conv, fast conv, fast and direct
//! deconv, stride-2 direct conv, direct conv at the served and analysis
//! shapes, Swin attention, deformable warp, activation quantization) —
//! the first two against in-binary replicas
//! of the pre-PR-2 scalar implementations — measures end-to-end
//! encode/decode at
//! `threads = 1`, `2` and `max`, checks both codec families for
//! bit-exact parallel execution, and writes `BENCH_PR3.json` at the
//! repository root.
//!
//! Usage:
//!
//! ```text
//! perf_hotpath           # full run, writes BENCH_PR3.json
//! perf_hotpath --quick   # CI smoke: small shapes, no JSON, exit != 0
//!                        # if any serial-vs-parallel output diverges
//! perf_hotpath --check [baseline.json]
//!                        # perf gate: re-times the kernels and exits
//!                        # != 0 if any regresses > 15 % vs the recorded
//!                        # baseline (default BENCH_PR2.json), after
//!                        # calibrating out the host-speed difference
//!                        # with the median measured/baseline ratio;
//!                        # also gates the telemetry span overhead
//!                        # (enabled vs disabled) at 2 %
//! ```
//!
//! All kernel timings run with telemetry spans disabled
//! (`nvc_telemetry::Mode::Off`) so they stay comparable with baselines
//! recorded before the instrumentation existed; the dedicated overhead
//! gate is what measures the enabled path.

#![forbid(unsafe_code)]

use nvc_baseline::{HybridCodec, Profile};
use nvc_bench::BENCH_N;
use nvc_core::ExecCtx;
use nvc_fastalg::{FastConv2d, FastDeConv2d, Sparsity};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint, SwinAttention};
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::{Conv2d, DeConv2d, DeformConv2d};
use nvc_tensor::{Shape, Tensor};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use std::time::Instant;

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

// ---- pre-PR-2 reference implementations (the seed's scalar loops) ----

/// The seed's `Conv2d::forward`: scalar inner loop with per-element
/// bounds/padding checks. Kept verbatim as the baseline the optimized
/// kernels are measured against.
fn naive_conv_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
    let (n, _, h, w) = input.shape().dims();
    let (oh, ow) = conv.output_hw(h, w);
    let out_shape = Shape::new(n, conv.c_out(), oh, ow);
    let mut out = Tensor::zeros(out_shape);
    let in_shape = input.shape();
    let in_data = input.as_slice();
    let pad = conv.padding() as isize;
    let k = conv.kernel();
    for nn in 0..n {
        for co in 0..conv.c_out() {
            let bias = conv.bias()[co];
            let out_base = out_shape.index(nn, co, 0, 0);
            out.as_mut_slice()[out_base..out_base + oh * ow]
                .iter_mut()
                .for_each(|v| *v = bias);
            for ci in 0..conv.c_in() {
                let kernel = conv.kernel_slice(co, ci);
                let in_base = in_shape.index(nn, ci, 0, 0);
                let in_plane = &in_data[in_base..in_base + h * w];
                for oy in 0..oh {
                    let iy0 = (oy * conv.stride()) as isize - pad;
                    for (ki, kv) in kernel.iter().enumerate() {
                        if *kv == 0.0 {
                            continue;
                        }
                        let kh = (ki / k) as isize;
                        let kw = (ki % k) as isize;
                        let iy = iy0 + kh;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let in_row = &in_plane[iy as usize * w..(iy as usize + 1) * w];
                        let out_row_base = out_base + oy * ow;
                        let out_data = out.as_mut_slice();
                        for ox in 0..ow {
                            let ix = (ox * conv.stride()) as isize - pad + kw;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            out_data[out_row_base + ox] += kv * in_row[ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The seed's `FastConv2d::forward`: per-tile `Mat` construction and a
/// `u_acc.clone()` inside the innermost tile loop. `bias` is the source
/// convolution's bias vector (not exposed by `FastConv2d`).
fn naive_fast_conv_forward(fast: &FastConv2d, input: &Tensor, bias: &[f32]) -> Tensor {
    let (n, _, h, w) = input.shape().dims();
    let t = fast.transform();
    let (p, m, mu) = (t.patch(), t.tile(), t.mu());
    let step = t.in_step();
    let offset = t.in_offset() as isize;
    let (ty_n, tx_n) = fast.tile_count(h, w);
    let mut out = Tensor::zeros(Shape::new(n, fast.c_out(), h, w));
    let mut patch = Mat::zeros(p, p);
    let mut y_tiles: Vec<Vec<f32>> = vec![vec![0.0; mu * mu]; fast.c_in()];
    let mut u_acc = vec![0.0_f32; mu * mu];
    for nn in 0..n {
        for ty in 0..ty_n {
            for tx in 0..tx_n {
                let iy0 = (ty * step) as isize - offset;
                let ix0 = (tx * step) as isize - offset;
                for (ci, tile) in y_tiles.iter_mut().enumerate() {
                    for py in 0..p {
                        for px in 0..p {
                            *patch.at_mut(py, px) =
                                input.at_padded(nn, ci, iy0 + py as isize, ix0 + px as isize);
                        }
                    }
                    let y = t.transform_input(&patch).expect("patch shape");
                    tile.copy_from_slice(y.as_slice());
                }
                for (co, &b) in bias.iter().enumerate().take(fast.c_out()) {
                    u_acc.iter_mut().for_each(|v| *v = 0.0);
                    for (ci, y) in y_tiles.iter().enumerate() {
                        fast.kernel(co, ci).hadamard_accumulate(y, &mut u_acc);
                    }
                    let u = Mat::from_vec(mu, mu, u_acc.clone()).expect("tile shape");
                    let v = t.inverse(&u).expect("tile shape");
                    for vy in 0..m {
                        let oy = ty * m + vy;
                        if oy >= h {
                            break;
                        }
                        for vx in 0..m {
                            let ox = tx * m + vx;
                            if ox >= w {
                                break;
                            }
                            *out.at_mut(nn, co, oy, ox) = v.at(vy, vx) + b;
                        }
                    }
                }
            }
        }
    }
    out
}

struct KernelRow {
    name: &'static str,
    ms: f64,
    mpix_s: f64,
    speedup_vs_naive: Option<f64>,
}

fn json_kernels(rows: &[KernelRow]) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|r| {
            let speedup = r
                .speedup_vs_naive
                .map(|s| format!(", \"speedup_vs_pre_pr\": {s:.2}"))
                .unwrap_or_default();
            format!(
                "    \"{}\": {{\"ms\": {:.3}, \"mpix_s\": {:.3}{}}}",
                r.name, r.ms, r.mpix_s, speedup
            )
        })
        .collect();
    fields.join(",\n")
}

/// Extracts `"<kernel>": {"ms": <number>` from a recorded bench JSON
/// (the in-tree format written by this binary; no external JSON crate in
/// the offline workspace).
fn baseline_ms(json: &str, kernel: &str) -> Option<f64> {
    let pos = json.find(&format!("\"{kernel}\""))?;
    let rest = &json[pos..];
    let tail = rest[rest.find("\"ms\":")? + 5..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Telemetry-overhead gate: times the span-instrumented Winograd kernel
/// with telemetry enabled and disabled, interleaved per round so clock
/// or cache drift cannot bias one mode, and fails if the enabled path
/// costs more than 2 % over best-of-round times. Leaves telemetry off,
/// matching the rest of the benchmark.
fn telemetry_overhead_ok(fast: &FastConv2d, x: &Tensor, ctx: &ExecCtx) -> bool {
    const ROUNDS: usize = 15;
    const BATCH: usize = 3;
    let time_batch = |mode: nvc_telemetry::Mode| {
        nvc_telemetry::set_mode(mode);
        let t0 = Instant::now();
        for _ in 0..BATCH {
            fast.forward_ctx(x, ctx).unwrap();
        }
        t0.elapsed().as_secs_f64()
    };
    // Median of per-round enabled/disabled ratios: each round holds its
    // own off-vs-on pair, so a noise spike perturbs one ratio instead
    // of skewing a global best-of, and the median discards it.
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t_off = time_batch(nvc_telemetry::Mode::Off);
            let t_on = time_batch(nvc_telemetry::Mode::Full);
            t_on / t_off
        })
        .collect();
    nvc_telemetry::set_mode(nvc_telemetry::Mode::Off);
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let ratio = ratios[ROUNDS / 2];
    println!(
        "telemetry overhead: enabled/disabled = {ratio:.4} \
         (span-instrumented fast conv, median of {ROUNDS} interleaved rounds of {BATCH})"
    );
    ratio <= 1.02
}

/// Perf-regression gate: compares freshly measured kernel times against
/// a recorded baseline, failing any kernel > 15 % slower after host
/// calibration.
///
/// Calibration prefers the baseline's recorded `conv3x3_naive_ms`: the
/// naive replica is frozen source in this binary, so its measured/
/// recorded ratio captures pure host+toolchain speed — a *uniform*
/// regression of the optimized kernels cannot hide in it. Baselines
/// without that field (PR 2) fall back to the median measured/baseline
/// ratio, where a kernel must regress both absolutely and relative to
/// the median (the median absorbs host scale, but also — unavoidably —
/// uniform regressions; that mode is only a cross-machine stopgap).
fn run_check(rows: &[KernelRow], baseline_path: &str, naive_conv_ms: f64) -> bool {
    let json = match std::fs::read_to_string(baseline_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("--check: cannot read {baseline_path}: {e}");
            return false;
        }
    };
    let mut ratios: Vec<(&str, f64)> = Vec::new();
    for r in rows {
        match baseline_ms(&json, r.name) {
            Some(base) if base > 0.0 => ratios.push((r.name, r.ms / base)),
            _ => println!("--check: {} not in baseline, skipping", r.name),
        }
    }
    if ratios.is_empty() {
        eprintln!("--check: no comparable kernels in {baseline_path}");
        return false;
    }
    let naive_base = baseline_ms(&json, "conv3x3_naive");
    let (calibration, absolute_gate) = match naive_base {
        Some(base) if base > 0.0 => {
            let c = naive_conv_ms / base;
            println!(
                "--check vs {baseline_path}: host calibration {c:.2}x \
                 (frozen naive-conv replica, {naive_conv_ms:.2} ms vs {base:.2} ms recorded)"
            );
            (c, false)
        }
        _ => {
            let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let c = sorted[sorted.len() / 2];
            println!(
                "--check vs {baseline_path}: no recorded naive-conv calibration; \
                 falling back to median measured/baseline ({c:.2}x)"
            );
            (c, true)
        }
    };
    let mut ok = true;
    for (name, ratio) in ratios {
        let rel = ratio / calibration;
        let regressed = rel > 1.15 && (!absolute_gate || ratio > 1.15);
        let verdict = if regressed {
            ok = false;
            "REGRESSED"
        } else {
            "ok"
        };
        println!("  {name:>18}: {ratio:.2}x vs baseline (relative {rel:.2}x)  {verdict}");
    }
    ok
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let baseline_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| format!("{root}/BENCH_PR2.json"));
    let max_threads = ExecCtx::auto().threads();
    let mut divergence = false;
    // Span-free timings: keep every number comparable with baselines
    // recorded before the telemetry layer existed. The overhead gate
    // below is the one place the enabled path is measured.
    nvc_telemetry::set_mode(nvc_telemetry::Mode::Off);

    // ---- kernel benchmarks at the paper's N = 36 ----
    let n_ch = if quick { BENCH_N } else { 36 };
    let (h, w) = if quick { (32, 32) } else { (64, 64) };
    let reps = if quick {
        1
    } else if check {
        3
    } else {
        5
    };
    let pix = (h * w) as f64 / 1e6;
    let x = smooth_tensor(n_ch, h, w);
    let ctx1 = ExecCtx::serial();
    let ctx_max = ExecCtx::with_threads(max_threads);

    println!("perf_hotpath: N={n_ch} {h}x{w}, host threads = {max_threads}");
    let mut rows: Vec<KernelRow> = Vec::new();

    // Direct 3x3 conv.
    let conv = Conv2d::randn(n_ch, n_ch, 3, 1, 1, 7).unwrap();
    let t_naive = bench(reps, || {
        naive_conv_forward(&conv, &x);
    });
    // Frozen-replica time: the host-speed yardstick for --check and the
    // recorded calibration in the bench JSON.
    let naive_conv_ms = t_naive * 1e3;
    let t_new = bench(reps, || {
        conv.forward_ctx(&x, &ctx1).unwrap();
    });
    if naive_conv_forward(&conv, &x).as_slice()
        != conv.forward_ctx(&x, &ctx_max).unwrap().as_slice()
    {
        // The optimized direct conv keeps the seed's accumulation order,
        // so even this cross-implementation check is exact.
        eprintln!("FAIL: direct conv diverged from reference");
        divergence = true;
    }
    rows.push(KernelRow {
        name: "conv3x3_direct",
        ms: t_new * 1e3,
        mpix_s: pix / t_new,
        speedup_vs_naive: Some(t_naive / t_new),
    });

    // Fast (Winograd) conv, dense and 50 % pruned. The pruned operator
    // executes in compressed (value, index) form and must undercut the
    // dense one — the whole point of transform-domain pruning.
    let fast_dense = FastConv2d::from_conv(&conv).unwrap();
    let fast_sparse = FastConv2d::from_conv_pruned(&conv, Sparsity::new(0.5).unwrap()).unwrap();
    let t_naive = bench(reps, || {
        naive_fast_conv_forward(&fast_dense, &x, conv.bias());
    });
    let t_new = bench(reps, || {
        fast_dense.forward_ctx(&x, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "fastconv_dense",
        ms: t_new * 1e3,
        mpix_s: pix / t_new,
        speedup_vs_naive: Some(t_naive / t_new),
    });
    let t_sp = bench(reps, || {
        fast_sparse.forward_ctx(&x, &ctx1).unwrap();
    });
    rows.push(KernelRow {
        name: "fastconv_sparse50",
        ms: t_sp * 1e3,
        mpix_s: pix / t_sp,
        speedup_vs_naive: None,
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
        speedup_vs_naive: None,
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
        speedup_vs_naive: None,
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
        speedup_vs_naive: None,
    });
    if conv_down.forward_ctx(&x, &ctx1).unwrap().as_slice()
        != conv_down.forward_ctx(&x, &ctx_max).unwrap().as_slice()
    {
        eprintln!("FAIL: strided conv serial vs parallel diverged");
        divergence = true;
    }

    // Direct conv at the shapes the codecs run it at, whatever `--quick`
    // says: the three feature scales of the default server's `ctvc_fp(12)`
    // 96x64 decode, and `Analysis::down2` of the N=36 sparse encoder at
    // 128x96. Layers of tens of microseconds, so a sample is a batch.
    const SERVED_BATCH: usize = 16;
    for (name, n, (sh, sw), stride) in [
        ("conv3x3_direct_n12_48x32", 12, (32, 48), 1),
        ("conv3x3_direct_n12_24x16", 12, (16, 24), 1),
        ("conv3x3_direct_n12_12x8", 12, (8, 12), 1),
        ("conv3x3_s2_direct_n72_32x24", 72, (24, 32), 2),
    ] {
        let served = Conv2d::randn(n, n, 3, stride, 1, 17).unwrap();
        let xs = smooth_tensor(n, sh, sw);
        let t = bench(reps, || {
            for _ in 0..SERVED_BATCH {
                served.forward_ctx(&xs, &ctx1).unwrap();
            }
        }) / SERVED_BATCH as f64;
        rows.push(KernelRow {
            name,
            ms: t * 1e3,
            mpix_s: (sh * sw) as f64 / 1e6 / t,
            speedup_vs_naive: None,
        });
        if served.forward_ctx(&xs, &ctx1).unwrap().as_slice()
            != served.forward_ctx(&xs, &ctx_max).unwrap().as_slice()
        {
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
        speedup_vs_naive: None,
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
        speedup_vs_naive: None,
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
        speedup_vs_naive: None,
    });

    for r in &rows {
        let speedup = r
            .speedup_vs_naive
            .map(|s| format!("  ({s:.2}x vs pre-PR)"))
            .unwrap_or_default();
        println!(
            "{:>27}: {:7.3} ms  {:6.2} Mpix/s{}",
            r.name, r.ms, r.mpix_s, speedup
        );
    }
    println!("sparse50 speedup vs dense: {sparse_speedup:.2}x (compressed-kernel execution)");

    if check {
        let ok = run_check(&rows, &baseline_path, naive_conv_ms);
        let overhead_ok = telemetry_overhead_ok(&fast_sparse, &x, &ctx1);
        if !overhead_ok {
            eprintln!("--check: telemetry span overhead exceeds 2%");
        }
        if divergence || !ok || !overhead_ok {
            eprintln!("perf_hotpath --check: FAILED");
            std::process::exit(1);
        }
        println!("perf_hotpath --check: all kernels within 15% of baseline, telemetry overhead within 2%");
        return;
    }

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
    let t_conv_1 = bench(reps, || {
        conv.forward_ctx(&x, &ctx1).unwrap();
    });
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
    let measure_max = max_threads > 2;
    let mut enc_t1 = f64::INFINITY;
    let mut enc_t2 = f64::INFINITY;
    let mut enc_tmax = f64::INFINITY;
    for _ in 0..e2e_reps {
        let t0 = Instant::now();
        serial.encode(&seq, RatePoint::new(1)).unwrap();
        enc_t1 = enc_t1.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        two.encode(&seq, RatePoint::new(1)).unwrap();
        enc_t2 = enc_t2.min(t0.elapsed().as_secs_f64());
        if measure_max {
            let t0 = Instant::now();
            parallel.encode(&seq, RatePoint::new(1)).unwrap();
            enc_tmax = enc_tmax.min(t0.elapsed().as_secs_f64());
        }
    }
    if !measure_max {
        enc_tmax = if max_threads == 1 { enc_t1 } else { enc_t2 };
    }

    let dec_serial = serial.decode(&coded_serial.bitstream).unwrap();
    let dec_parallel = parallel.decode(&coded_serial.bitstream).unwrap();
    for (a, b) in dec_serial.frames().iter().zip(dec_parallel.frames()) {
        if a.tensor().as_slice() != b.tensor().as_slice() {
            eprintln!("FAIL: CTVC serial vs parallel reconstructions diverged");
            divergence = true;
            break;
        }
    }
    let mut dec_t1 = f64::INFINITY;
    let mut dec_t2 = f64::INFINITY;
    let mut dec_tmax = f64::INFINITY;
    for _ in 0..e2e_reps {
        let t0 = Instant::now();
        serial.decode(&coded_serial.bitstream).unwrap();
        dec_t1 = dec_t1.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        two.decode(&coded_serial.bitstream).unwrap();
        dec_t2 = dec_t2.min(t0.elapsed().as_secs_f64());
        if measure_max {
            let t0 = Instant::now();
            parallel.decode(&coded_serial.bitstream).unwrap();
            dec_tmax = dec_tmax.min(t0.elapsed().as_secs_f64());
        }
    }
    if !measure_max {
        dec_tmax = if max_threads == 1 { dec_t1 } else { dec_t2 };
    }

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

    if quick {
        println!("quick mode: skipping BENCH_PR3.json");
        return;
    }

    let json = format!(
        "{{\n  \"pr\": 3,\n  \"generated_by\": \"perf_hotpath\",\n  \
         \"note\": \"fastconv_sparse50 executes pruned kernels in compressed (value, index) \
         form inside the grouped tiled executor (nvc_fastalg tile_exec.rs), so at rho = 0.5 \
         it must undercut fastconv_dense; ablation_sparsity --quick guards that ratio in \
         CI\",\n  \
         \"host_threads\": {max_threads},\n  \"kernel_shape\": \"N={n_ch} {h}x{w}\",\n  \
         \"calibration\": {{\"conv3x3_naive\": {{\"ms\": {naive_conv_ms:.3}}}}},\n  \
         \"kernels\": {{\n{}\n  }},\n  \
         \"sparse_speedup_vs_dense\": {sparse_speedup:.2},\n  \
         \"thread_scaling\": {{\n    \
         \"conv3x3\": {{\"threads_1\": 1.00, \"threads_2\": {conv_s2:.2}, \
         \"threads_max\": {conv_smax:.2}}},\n    \
         \"decode_fps\": {{\"threads_1\": {:.3}, \"threads_2\": {:.3}, \
         \"threads_max\": {:.3}}}\n  }},\n  \
         \"end_to_end\": {{\n    \
         \"config\": \"CTVC-Net(Sparse) N={BENCH_N} {ew}x{eh}x{frames}\",\n    \
         \"encode_fps_t1\": {:.3},\n    \"encode_fps_t2\": {:.3},\n    \
         \"encode_fps_tmax\": {:.3},\n    \
         \"decode_fps_t1\": {:.3},\n    \"decode_fps_t2\": {:.3},\n    \
         \"decode_fps_tmax\": {:.3},\n    \
         \"encode_speedup_tmax_vs_t1\": {:.2},\n    \
         \"decode_speedup_tmax_vs_t1\": {:.2},\n    \
         \"bit_exact_across_threads\": true\n  }}\n}}\n",
        json_kernels(&rows),
        fpf / dec_t1,
        fpf / dec_t2,
        fpf / dec_tmax,
        fpf / enc_t1,
        fpf / enc_t2,
        fpf / enc_tmax,
        fpf / dec_t1,
        fpf / dec_t2,
        fpf / dec_tmax,
        enc_t1 / enc_tmax,
        dec_t1 / dec_tmax,
    );
    let path = format!("{root}/BENCH_PR3.json");
    std::fs::write(&path, json).expect("write BENCH_PR3.json");
    println!("wrote {path}");
}
