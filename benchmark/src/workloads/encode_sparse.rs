//! `encode_sparse`: the same codec and clip as `decode_sparse`, used
//! the other way.
//!
//! Each pass pushes the 16 source frames through a fresh
//! `start_encode(Fixed(RatePoint 1))` session. Closed loop. The encoder
//! embeds the decode path as its closed-loop reconstruction, so a
//! decode-side gain that taxes analysis, motion search or the range
//! encoder shows here.

use super::decode_sparse::{sparse_config, InProcessPass, SparseReady, FRAMES, HEIGHT, N, WIDTH};
use super::{passes_within, CpuClock, Layers, Window, Workload};
use crate::probes;
use crate::trace::Tracer;
use nvc::entropy::container::Packet;
use nvc::model::{CtvcCodec, RatePoint};
use nvc::video::codec::EncoderSession;
use nvc::video::Sequence;
use std::time::{Duration, Instant};

/// One encode pass. Returns the packets and each call's start and end;
/// an `Err` ends the pass.
fn encode_pass(
    codec: &CtvcCodec,
    clip: &Sequence,
) -> (Vec<Packet>, Vec<(Instant, Instant)>, Option<String>) {
    let mut session = codec.start_encode(RatePoint::new(super::decode_sparse::RATE));
    let mut packets = Vec::with_capacity(clip.frames().len());
    let mut calls = Vec::with_capacity(clip.frames().len());
    for frame in clip.frames() {
        let start = Instant::now();
        let result = session.push_frame(frame);
        calls.push((start, Instant::now()));
        match result {
            Ok(packet) => packets.push(packet),
            Err(e) => return (packets, calls, Some(e.to_string())),
        }
    }
    (packets, calls, None)
}

pub struct EncodeSparse;

impl Workload for EncodeSparse {
    type Ready = SparseReady;

    /// The reference encode inside [`SparseReady::new`] is the warm-up
    /// pass: it is the same work as a timed pass.
    fn setup(seed: u64, _trace: bool) -> Result<SparseReady, String> {
        SparseReady::new(seed)
    }

    fn quality(ready: &SparseReady) -> Result<(f64, f64), String> {
        ready.quality()
    }

    fn measure(ready: &SparseReady, budget: Duration, mut tracer: Option<&mut Tracer>) -> Window {
        let mut window = Window::default();
        let cpu = CpuClock::start();
        passes_within(budget, || {
            let start = Instant::now();
            let (packets, calls, error) = encode_pass(&ready.codec, &ready.clip);
            let end = Instant::now();
            // Byte-identical to the reference encode, so across passes.
            let good = packets
                .iter()
                .zip(&ready.wire)
                .take_while(|(p, reference)| &p.to_bytes() == *reference)
                .count();
            let pass = InProcessPass {
                start,
                end,
                calls,
                good,
                why: error.unwrap_or_else(|| format!("packet {good} differs from the reference")),
                span_names: ["encode.intra", "encode.p"],
            };
            ready.book_pass(pass, &mut window, tracer.as_deref_mut());
        });
        cpu.stop(&mut window);
        window
    }

    fn probes(
        ready: &SparseReady,
        traced: &Window,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        probes::video(
            ready.synth_ms,
            &ready.clip,
            ready.coded.decoded.frames(),
            layers,
        )?;
        probes::model(&ready.codec, &ready.clip, layers)?;
        probes::entropy(
            &ready.wire,
            N * (HEIGHT / 2) * (WIDTH / 2),
            WIDTH,
            HEIGHT,
            layers,
        )?;
        probes::sim(&ready.coded.to_bytes(), HEIGHT, WIDTH, layers)?;
        let p_ms = probes::span_p50(tracer, "encode.p");
        layers.set("model.encode_p_ms_p50", p_ms);
        probes::encode_coverage(p_ms, layers);
        let serial = CtvcCodec::new(sparse_config(1)).map_err(|e| e.to_string())?;
        // One pass, no warm-up: a serial encode pass takes seconds, and
        // the first-pass allocations are small against that.
        let (_, serial_ms) = probes::timed(|| encode_pass(&serial, &ready.clip));
        layers.set(
            "exec.thread_scaling_encode",
            traced.fps() / (FRAMES as f64 * 1e3 / serial_ms),
        );
        Ok(())
    }
}
