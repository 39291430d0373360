//! Multi-session serving load generator for `nvc-serve`.
//!
//! Drives K concurrent synthetic decode streams over a loopback socket
//! against a server configured for session-level parallelism (1
//! `ExecCtx` thread per session, one pool worker per stream), verifies
//! every stream's reconstruction is byte-identical to the in-process
//! session API, and reports aggregate throughput plus per-response
//! latency percentiles.
//!
//! Usage:
//!
//! ```text
//! loadgen                  # full run, writes BENCH_PR4.json
//! loadgen --quick          # CI smoke: small clip, asserts bit-exact
//!                          # round-trips; on multi-core hosts also
//!                          # asserts aggregate fps > 1-stream serial
//!                          # baseline (exit != 0 on failure)
//! loadgen --streams K      # concurrent stream count (default 4)
//! loadgen --frames N       # frames per stream (default 16)
//! ```

#![forbid(unsafe_code)]

use nvc_bench::{paper::BENCH_N, percentile};
use nvc_core::ExecCtx;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_serve::{Hello, ServeConfig, Server, ServerHandle, StreamClient};
use nvc_video::codec::{encode_sequence, EncodedStream};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{FrameType, Sequence};
use std::time::{Duration, Instant};

fn arg_value(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Runs one decode stream against the server; returns wall time and
/// per-response latencies after asserting bit-exactness.
fn run_stream(
    server: &ServerHandle,
    coded: &EncodedStream,
    rate: u8,
    w: usize,
    h: usize,
    window: usize,
) -> (Duration, Vec<Duration>) {
    let start = Instant::now();
    let mut client =
        StreamClient::connect(server.addr(), Hello::ctvc_decode(rate, w, h)).expect("connect");
    client.set_window(window);
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    for packet in &coded.packets {
        client.send_packet(packet).expect("send packet");
    }
    let summary = client.finish().expect("finish stream");
    let elapsed = start.elapsed();
    assert_eq!(summary.frames.len(), coded.packets.len());
    for (remote, local) in summary.frames.iter().zip(coded.decoded.frames()) {
        assert_eq!(
            remote.tensor().as_slice(),
            local.tensor().as_slice(),
            "served stream diverged from the in-process session"
        );
    }
    assert_eq!(
        summary.stats.bits_per_frame.iter().sum::<u64>(),
        8 * summary.stats.total_bytes as u64,
        "stats trailer bit counts inconsistent"
    );
    // The per-frame rate/type columns must align with the bit counts and
    // show exactly which frames carried which rate.
    assert_eq!(summary.stats.frame_types.len(), summary.stats.frames);
    assert_eq!(summary.stats.rate_per_frame.len(), summary.stats.frames);
    assert_eq!(summary.stats.frame_types[0], FrameType::Intra);
    assert!(
        summary.stats.frame_types[1..]
            .iter()
            .all(|k| *k == FrameType::Predicted),
        "fixed decode streams here are single-GOP IPPP"
    );
    assert!(
        summary.stats.rate_per_frame.iter().all(|&r| r == rate),
        "a fixed-rate stream must carry one rate on every frame"
    );
    (elapsed, summary.latencies)
}

/// Runs one encode stream (fixed or target-bpp) concurrently with the
/// decode fleet, asserting the rate-control invariants on its trailer.
fn run_encode_stream(
    server: &ServerHandle,
    source: &Sequence,
    reference: &EncodedStream,
    hello: Hello,
) {
    let mut client = StreamClient::connect(server.addr(), hello.clone()).expect("connect encode");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    for frame in source.frames() {
        client.send_frame(frame).expect("send frame");
    }
    let summary = client.finish().expect("finish encode stream");
    let stats = &summary.stats;
    assert_eq!(stats.frames, source.frames().len());
    assert_eq!(stats.frame_types.len(), stats.frames);
    assert_eq!(stats.rate_per_frame.len(), stats.frames);
    assert_eq!(
        stats.bits_per_frame.iter().sum::<u64>(),
        8 * stats.total_bytes as u64
    );
    match hello.target {
        None => {
            // Fixed mode: byte-identical to the in-process session.
            assert!(stats.rate_per_frame.iter().all(|&r| r == hello.rate));
            for (remote, local) in summary.packets.iter().zip(&reference.packets) {
                assert_eq!(
                    remote.to_bytes(),
                    local.to_bytes(),
                    "served fixed encode diverged from the in-process session"
                );
            }
        }
        Some(_) => {
            // Closed loop: every chosen rate is valid, and the bits the
            // controller reacted to are exactly the serialized sizes.
            assert!(stats
                .rate_per_frame
                .iter()
                .all(|&r| RatePoint::try_new(r).is_ok()));
            for (bits, packet) in stats.bits_per_frame.iter().zip(&summary.packets) {
                assert_eq!(*bits, packet.encoded_len() as u64 * 8);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let streams = arg_value(&args, "--streams").unwrap_or(4).max(1);
    let (w, h, n_ch, frames) = if quick {
        (64, 48, 8, arg_value(&args, "--frames").unwrap_or(6))
    } else {
        (96, 64, BENCH_N, arg_value(&args, "--frames").unwrap_or(16))
    };
    let host_cores = ExecCtx::auto().threads();
    println!(
        "loadgen: {streams} streams x {frames} frames, {w}x{h}, N={n_ch}, host cores = {host_cores}"
    );

    // Reference encode, in-process: source packets for every stream and
    // the closed-loop reconstruction the server must match bit-for-bit.
    let rate = 1u8;
    let cfg = CtvcConfig::ctvc_fp(n_ch);
    let codec = CtvcCodec::new(cfg.clone()).expect("codec");
    let source = Synthesizer::new(SceneConfig::uvg_like(w, h, frames)).generate();
    let coded = encode_sequence(&codec, &source, RatePoint::new(rate)).expect("encode");
    println!(
        "  source coded: {} bytes total ({:.4} bpp)",
        coded.stats.total_bytes,
        coded.stats.bpp(w * h)
    );

    // Session-parallel server: one narrow context per session, one pool
    // worker per stream, total fan-out capped at the stream count.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            ctvc: cfg,
            workers: streams,
            threads_per_session: 1,
            exec_cap: streams,
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");

    // Serial baseline: one stream, alone on the server.
    let (serial_wall, _) = run_stream(&server, &coded, rate, w, h, 2);
    let serial_fps = frames as f64 / serial_wall.as_secs_f64();
    println!("  serial:    1 stream  -> {serial_fps:7.2} fps  (wall {serial_wall:.2?})");

    // Aggregate: K streams at once.
    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|_| scope.spawn(|| run_stream(&server, &coded, rate, w, h, 2)))
            .collect();
        for handle in handles {
            let (_, lat) = handle.join().expect("stream thread");
            latencies.extend(lat);
        }
    });
    let aggregate_wall = start.elapsed();
    let aggregate_fps = (streams * frames) as f64 / aggregate_wall.as_secs_f64();
    let speedup = aggregate_fps / serial_fps;
    println!(
        "  aggregate: {streams} streams -> {aggregate_fps:7.2} fps  (wall {aggregate_wall:.2?}, {speedup:.2}x serial)"
    );

    // Mixed rate-control modes, concurrently on the same pool (untimed —
    // the throughput numbers above stay decode-only): one fixed-rate
    // encode, one closed-loop target-bpp encode and one decode stream
    // must coexist, with the fixed encode still byte-identical to the
    // in-process session.
    let target_bpp = coded.stats.bpp(w * h);
    std::thread::scope(|scope| {
        let fixed_enc = scope
            .spawn(|| run_encode_stream(&server, &source, &coded, Hello::ctvc_encode(rate, w, h)));
        let target_enc = scope.spawn(|| {
            run_encode_stream(
                &server,
                &source,
                &coded,
                Hello::ctvc_encode(rate, w, h).with_target_bpp(target_bpp, 4),
            )
        });
        let dec = scope.spawn(|| run_stream(&server, &coded, rate, w, h, 2));
        fixed_enc.join().expect("fixed encode thread");
        target_enc.join().expect("target encode thread");
        dec.join().expect("mixed-phase decode thread");
    });
    println!("  mixed:     fixed + target-bpp encode + decode, concurrent — OK");

    let mut lat_ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (p50, p90, p99) = (
        percentile(&lat_ms, 0.50),
        percentile(&lat_ms, 0.90),
        percentile(&lat_ms, 0.99),
    );
    println!("  latency:   p50 {p50:.2} ms, p90 {p90:.2} ms, p99 {p99:.2} ms");

    let report = server.shutdown();
    assert_eq!(
        report.sessions,
        streams + 4,
        "every stream must register (serial + decode fleet + mixed phase)"
    );
    assert_eq!(report.errors, 0, "no session may fail");
    println!(
        "  server:    {} sessions, {} frames, {} errors",
        report.sessions, report.frames, report.errors
    );

    if quick {
        // Bit-exactness already asserted inside run_stream. The
        // throughput gate needs real hardware parallelism; on a 1-core
        // host concurrency cannot beat serial, so gate only when cores
        // exist (CI runners have >= 2).
        if host_cores >= 2 {
            assert!(
                speedup > 1.0,
                "aggregate {aggregate_fps:.2} fps must beat the serial baseline \
                 {serial_fps:.2} fps on a {host_cores}-core host"
            );
            println!("quick gate: bit-exact, {speedup:.2}x > 1.0x serial — OK");
        } else {
            println!("quick gate: bit-exact — OK (throughput gate skipped on 1 core)");
        }
        return;
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let json = format!(
        "{{\n  \"bench\": \"loadgen\",\n  \"host_cores\": {host_cores},\n  \
         \"streams\": {streams},\n  \"frames_per_stream\": {frames},\n  \
         \"width\": {w},\n  \"height\": {h},\n  \"n\": {n_ch},\n  \
         \"bit_exact\": true,\n  \"serial_fps\": {serial_fps:.2},\n  \
         \"aggregate_fps\": {aggregate_fps:.2},\n  \"speedup\": {speedup:.3},\n  \
         \"latency_ms\": {{ \"p50\": {p50:.2}, \"p90\": {p90:.2}, \"p99\": {p99:.2} }}\n}}\n"
    );
    let path = format!("{root}/BENCH_PR4.json");
    std::fs::write(&path, json).expect("write BENCH_PR4.json");
    println!("wrote {path}");
}
