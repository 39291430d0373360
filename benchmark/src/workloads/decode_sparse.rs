//! `decode_sparse`: the paper's decoder, in-process.
//!
//! `CtvcCodec(ctvc_sparse(36), threads = C)` decodes a pre-encoded
//! 128×96, 16-frame clip, pass after pass, each pass a fresh
//! `start_decode()` session. Closed loop: the next packet is pushed
//! when the previous frame is back.

use super::{
    bits_per_pixel, clients, passes_within, psnr_db, same_pixels, synth_clip, CpuClock, Layers,
    Window, Workload,
};
use crate::pacer::ms;
use crate::probes;
use crate::trace::Tracer;
use nvc::entropy::container::FrameKind;
use nvc::model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc::video::codec::{encode_sequence, DecoderSession, EncodedStream};
use nvc::video::{Frame, Sequence};
use std::time::{Duration, Instant};

pub const WIDTH: usize = 128;
pub const HEIGHT: usize = 96;
pub const FRAMES: usize = 16;
/// Channel width `N` of the paper's network.
pub const N: usize = 36;
pub const RATE: u8 = 1;

/// The sparse codec both in-process workloads run.
pub fn sparse_config(threads: usize) -> CtvcConfig {
    CtvcConfig::ctvc_sparse(N).with_threads(threads)
}

/// Codec, clip and reference encode shared by the two in-process
/// workloads.
pub struct SparseReady {
    pub codec: CtvcCodec,
    pub clip: Sequence,
    pub coded: EncodedStream,
    /// Serialized packets, as a decoder receives them.
    pub wire: Vec<Vec<u8>>,
    /// Wall time of synthesizing the clip, in ms.
    pub synth_ms: f64,
}

impl SparseReady {
    pub fn new(seed: u64) -> Result<Self, String> {
        let (clip, synth_ms) = probes::timed(|| synth_clip(WIDTH, HEIGHT, FRAMES, seed));
        let codec = CtvcCodec::new(sparse_config(clients())).map_err(|e| e.to_string())?;
        let coded =
            encode_sequence(&codec, &clip, RatePoint::new(RATE)).map_err(|e| e.to_string())?;
        let wire = coded.packets.iter().map(|p| p.to_bytes()).collect();
        Ok(SparseReady {
            codec,
            clip,
            coded,
            wire,
            synth_ms,
        })
    }

    /// `(bpp, psnr_db)` of the reference encode.
    pub fn quality(&self) -> Result<(f64, f64), String> {
        Ok((
            bits_per_pixel(self.coded.stats.total_bytes, WIDTH, HEIGHT, FRAMES),
            psnr_db(&self.clip, self.coded.decoded.frames())?,
        ))
    }

    /// Books one finished pass, after its clock has stopped: `good`
    /// leading frames checked out, the rest failed for `why`. Answered
    /// calls become latency samples and, with a tracer, one span each
    /// under the pass, named by frame kind.
    pub fn book_pass(&self, pass: InProcessPass, window: &mut Window, tracer: Option<&mut Tracer>) {
        let InProcessPass {
            start,
            end,
            calls,
            good,
            why,
            span_names: [intra, predicted],
        } = pass;
        window.attempted += FRAMES as u64;
        if good < FRAMES {
            window.fail((FRAMES - good) as u64, why);
        }
        window
            .frame_ms
            .extend(calls.iter().take(good).map(|(a, b)| ms(*b - *a)));
        window
            .pass_fps
            .push(good as f64 / (end - start).as_secs_f64());
        if let Some(tracer) = tracer {
            let root = tracer.open("pass", start);
            for (packet, (a, b)) in self.coded.packets.iter().zip(&calls) {
                let name = match packet.kind {
                    FrameKind::Intra => intra,
                    FrameKind::Predicted => predicted,
                };
                tracer.record(name, *a, *b, Some(root));
            }
            tracer.close(root, end);
        }
    }
}

/// One closed-loop pass over the clip as its workload saw it.
pub struct InProcessPass {
    pub start: Instant,
    pub end: Instant,
    /// Start and end of each `push_packet` / `push_frame` call.
    pub calls: Vec<(Instant, Instant)>,
    /// Leading frames whose output was bit-exact.
    pub good: usize,
    /// Why the first bad frame is bad (unused when all are good).
    pub why: String,
    /// Span names for intra and predicted frames.
    pub span_names: [&'static str; 2],
}

/// One decode pass over `wire`. Returns the frames and each call's
/// duration; an `Err` ends the pass.
pub fn decode_pass(
    codec: &CtvcCodec,
    wire: &[Vec<u8>],
) -> (Vec<Frame>, Vec<(Instant, Instant)>, Option<String>) {
    let mut session = codec.start_decode();
    let mut frames = Vec::with_capacity(wire.len());
    let mut calls = Vec::with_capacity(wire.len());
    for bytes in wire {
        let start = Instant::now();
        let result = session.push_packet(bytes);
        calls.push((start, Instant::now()));
        match result {
            Ok(frame) => frames.push(frame),
            Err(e) => return (frames, calls, Some(e.to_string())),
        }
    }
    (frames, calls, None)
}

pub struct DecodeSparse;

impl Workload for DecodeSparse {
    type Ready = SparseReady;

    fn setup(seed: u64, _trace: bool) -> Result<SparseReady, String> {
        let ready = SparseReady::new(seed)?;
        // Warm-up pass: fills the scratch pools and the worker threads'
        // caches, and proves the clip decodes before anything is timed.
        let mut warm = Window::default();
        Self::measure_pass(&ready, &mut warm, None);
        match warm.failures.first() {
            Some(why) => Err(format!("warm-up decode failed: {why}")),
            None => Ok(ready),
        }
    }

    fn quality(ready: &SparseReady) -> Result<(f64, f64), String> {
        ready.quality()
    }

    fn measure(ready: &SparseReady, budget: Duration, mut tracer: Option<&mut Tracer>) -> Window {
        let mut window = Window::default();
        let cpu = CpuClock::start();
        passes_within(budget, || {
            Self::measure_pass(ready, &mut window, tracer.as_deref_mut());
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
        let p_ms = probes::span_p50(tracer, "decode.p");
        layers.set("model.decode_p_ms_p50", p_ms);
        layers.set(
            "model.decode_intra_ms_p50",
            probes::span_p50(tracer, "decode.intra"),
        );
        probes::decode_coverage(p_ms, layers);
        // Thread scaling: the same clip through a one-thread codec.
        let serial = CtvcCodec::new(sparse_config(1)).map_err(|e| e.to_string())?;
        let serial_fps = probes::best_fps(1, FRAMES, || {
            decode_pass(&serial, &ready.wire);
        });
        layers.set("exec.thread_scaling_decode", traced.fps() / serial_fps);
        // Span overhead: half-clip passes with span timers off against
        // on, interleaved so drift hits both alike. `Full` is the
        // shipped default and is restored.
        let half = &ready.wire[..FRAMES / 2];
        let mut ratios = Vec::new();
        for _ in 0..3 {
            nvc::telemetry::set_mode(nvc::telemetry::Mode::Off);
            let (_, off_ms) = probes::timed(|| decode_pass(&ready.codec, half));
            nvc::telemetry::set_mode(nvc::telemetry::Mode::Full);
            let (_, full_ms) = probes::timed(|| decode_pass(&ready.codec, half));
            ratios.push(full_ms / off_ms);
        }
        layers.set(
            "telemetry.span_overhead_ratio",
            crate::stats::median(&ratios),
        );
        Ok(())
    }
}

impl DecodeSparse {
    fn measure_pass(ready: &SparseReady, window: &mut Window, tracer: Option<&mut Tracer>) {
        let start = Instant::now();
        let (frames, calls, error) = decode_pass(&ready.codec, &ready.wire);
        let end = Instant::now();
        // Bit-exactness against the encoder's closed-loop reconstruction,
        // checked after the pass clock has stopped.
        let good = frames
            .iter()
            .zip(ready.coded.decoded.frames())
            .take_while(|(a, b)| same_pixels(a, b))
            .count();
        let pass = InProcessPass {
            start,
            end,
            calls,
            good,
            why: error.unwrap_or_else(|| format!("frame {good} differs from the encoder's")),
            span_names: ["decode.intra", "decode.p"],
        };
        ready.book_pass(pass, window, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_packet_byte_is_a_counted_failure() {
        let mut ready = SparseReady::new(1).unwrap();
        let last = ready.wire[5].len() - 1;
        ready.wire[5][last] ^= 0x40;
        let window = DecodeSparse::measure(&ready, Duration::ZERO, None);
        // Two passes; in each, packet 5 fails its CRC and takes the
        // rest of the GOP with it.
        assert_eq!(window.attempted, 2 * FRAMES as u64);
        assert_eq!(window.failed, 2 * (FRAMES as u64 - 5));
        assert_eq!(
            window.frame_ms.len(),
            2 * 5,
            "failed frames give no samples"
        );
        assert!(!window.failures.is_empty());
        // They count as missing every latency limit.
        assert_eq!(window.latency_percentile(0.9), 10_000.0);
    }
}
