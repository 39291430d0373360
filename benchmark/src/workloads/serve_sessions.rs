//! `serve_sessions`: `C` concurrent decode connections to a loopback
//! `nvc-serve`, default configuration (`ctvc_fp(12)`, direct dense
//! kernels), over a 96×64, 48-frame clip.
//!
//! Two phases split the window evenly. **Capacity**: barrier-separated
//! rounds, one pass per connection per round, closed loop with a window
//! of 2 — this is where `fps` comes from. **Paced**: open loop at a
//! fixed 40 fps per connection; each packet is sent at its due time and
//! its frame awaited — this is where `frame_ms_*` comes from, timed
//! from the due time. 40 fps per connection is about half of what the
//! capacity phase reaches on the 2-core reference host, so the paced
//! phase has headroom and queueing shows as a tail, not a backlog.

use super::served::{spawn_server, wire_codec, ServedSnapshot};
use super::{
    bits_per_pixel, clients, nproc, psnr_db, same_pixels, synth_clip, CpuClock, Layers, Window,
    Workload, READ_TIMEOUT,
};
use crate::pacer::{sleep_until, PacedLog, Pacer};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use nvc::entropy::container::FrameKind;
use nvc::model::{CtvcCodec, RatePoint};
use nvc::serve::proto::{write_frame_msg, write_packet_msg};
use nvc::serve::{Hello, Role, ServeConfig, ServeError, ServerHandle, StreamClient, StreamSummary};
use nvc::video::codec::{encode_sequence, DecoderSession, EncodedStream};
use nvc::video::Sequence;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const WIDTH: usize = 96;
pub const HEIGHT: usize = 64;
pub const FRAMES: usize = 48;
pub const RATE: u8 = 1;
/// Pipelining window of the capacity phase.
const WINDOW: usize = 2;
/// Offered rate of the paced phase, per connection.
pub const PACED_FPS: f64 = 40.0;

pub struct ServeReady {
    server: ServerHandle,
    /// The served codec's configuration at one thread: what one session
    /// runs on the server, in-process.
    codec: CtvcCodec,
    clip: Sequence,
    coded: EncodedStream,
    /// Wall time of synthesizing the clip, in ms.
    synth_ms: f64,
}

#[derive(Clone, Copy)]
enum Phase {
    Capacity,
    Paced,
}

/// What one connection's pass came to.
struct PassReport {
    good: usize,
    error: Option<String>,
    paced: PacedLog,
}

/// Checks a finished stream against the in-process session: frames
/// bit-identical, trailer bit counts summing to the byte total. Returns
/// how many leading frames are good.
fn verify(summary: &StreamSummary, coded: &EncodedStream) -> (usize, Option<String>) {
    let good = summary
        .frames
        .iter()
        .zip(coded.decoded.frames())
        .take_while(|(a, b)| same_pixels(a, b))
        .count();
    if good < FRAMES {
        return (
            good,
            Some(format!("served frame {good} differs from in-process")),
        );
    }
    let bits: u64 = summary.stats.bits_per_frame.iter().sum();
    if bits != 8 * summary.stats.total_bytes as u64 {
        return (0, Some("trailer: sum of bits != 8 x total_bytes".into()));
    }
    (good, None)
}

/// One pass over one connection.
fn pass(
    addr: SocketAddr,
    coded: &EncodedStream,
    phase: Phase,
    mut tracer: Option<&mut Tracer>,
) -> PassReport {
    let mut paced = PacedLog::default();
    let outcome = (|| -> Result<StreamSummary, ServeError> {
        let begin = Instant::now();
        let mut client = StreamClient::connect(addr, Hello::ctvc_decode(RATE, WIDTH, HEIGHT))?;
        client.set_window(WINDOW);
        client.set_read_timeout(Some(READ_TIMEOUT))?;
        let connected = Instant::now();
        let root = tracer.as_mut().map(|t| {
            let root = t.open("pass", begin);
            t.record("connect", begin, connected, Some(root));
            root
        });
        match phase {
            Phase::Capacity => {
                for packet in &coded.packets {
                    client.send_packet(packet)?;
                }
            }
            Phase::Paced => {
                let start = Instant::now();
                let mut pacer = Pacer::new(PACED_FPS);
                for packet in &coded.packets {
                    let due = pacer.next_due();
                    sleep_until(start, due);
                    let sent = Instant::now();
                    client.send_packet(packet)?;
                    client.drain()?;
                    let done = Instant::now();
                    paced.record(due, sent - start, done - start);
                    if let Some(t) = tracer.as_mut() {
                        t.record("frame", sent, done, root);
                    }
                }
            }
        }
        let summary = client.finish()?;
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root, Instant::now());
        }
        Ok(summary)
    })();
    let (good, error) = match outcome {
        Ok(summary) => verify(&summary, coded),
        Err(e) => (0, Some(e.to_string())),
    };
    if good < FRAMES {
        // A failed pass keeps no latency samples: its frames are
        // counted as failed instead.
        paced = PacedLog::default();
    }
    PassReport { good, error, paced }
}

pub struct ServeSessions;

impl Workload for ServeSessions {
    type Ready = ServeReady;

    fn setup(seed: u64, trace: bool) -> Result<ServeReady, String> {
        let (clip, synth_ms) = probes::timed(|| synth_clip(WIDTH, HEIGHT, FRAMES, seed));
        let served = ServeConfig::default();
        let codec = CtvcCodec::new(served.ctvc.with_threads(served.threads_per_session))
            .map_err(|e| e.to_string())?;
        let coded =
            encode_sequence(&codec, &clip, RatePoint::new(RATE)).map_err(|e| e.to_string())?;
        let ready = ServeReady {
            server: spawn_server(trace)?,
            codec,
            clip,
            coded,
            synth_ms,
        };
        // Warm-up: one capacity round over all C connections.
        let warm = Self::run_phases(&ready, Duration::ZERO, Duration::ZERO, None);
        match warm.failures.first() {
            Some(why) => Err(format!("warm-up round failed: {why}")),
            None => Ok(ready),
        }
    }

    fn quality(ready: &ServeReady) -> Result<(f64, f64), String> {
        Ok((
            bits_per_pixel(ready.coded.stats.total_bytes, WIDTH, HEIGHT, FRAMES),
            psnr_db(&ready.clip, ready.coded.decoded.frames())?,
        ))
    }

    fn measure(ready: &ServeReady, budget: Duration, tracer: Option<&mut Tracer>) -> Window {
        Self::run_phases(ready, budget / 2, budget / 2, tracer)
    }

    fn probes(
        ready: &ServeReady,
        traced: &Window,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let decoded = ready.coded.decoded.frames();
        probes::video(ready.synth_ms, &ready.clip, decoded, layers)?;
        probes::model(&ready.codec, &ready.clip, layers)?;
        let wire: Vec<Vec<u8>> = ready.coded.packets.iter().map(|p| p.to_bytes()).collect();
        let n = ready.codec.config().n;
        probes::entropy(&wire, n * (HEIGHT / 2) * (WIDTH / 2), WIDTH, HEIGHT, layers)?;

        // One session's work in-process, one thread: the service time
        // the served latency is compared with.
        let mut service_ms = Vec::new();
        let mut by_kind: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let mut pass_s = Vec::new();
        for _ in 0..3 {
            let begin = Instant::now();
            let mut session = ready.codec.start_decode();
            for (packet, bytes) in ready.coded.packets.iter().zip(&wire) {
                let (frame, call_ms) = probes::timed(|| session.push_packet(bytes));
                frame.map_err(|e| e.to_string())?;
                service_ms.push(call_ms);
                by_kind[usize::from(packet.kind == FrameKind::Predicted)].push(call_ms);
            }
            pass_s.push(begin.elapsed().as_secs_f64());
        }
        let serial_fps = FRAMES as f64 / median(&pass_s);
        let p_ms = median(&by_kind[1]);
        layers.set("model.decode_intra_ms_p50", median(&by_kind[0]));
        layers.set("model.decode_p_ms_p50", p_ms);
        probes::decode_coverage(p_ms, layers);
        layers.set(
            "serve.overhead_ms_p50",
            traced.latency_percentile(0.5) - median(&service_ms),
        );
        layers.set(
            "serve.capacity_efficiency",
            traced.fps() / (serial_fps * clients().min(nproc()) as f64),
        );
        layers.set(
            "serve.handshake_ms_p50",
            probes::span_p50(tracer, "connect"),
        );

        let mut inbound = Vec::new();
        for packet in &ready.coded.packets {
            write_packet_msg(&mut inbound, packet).map_err(|e| e.to_string())?;
        }
        wire_codec(
            Role::Decode,
            (WIDTH, HEIGHT),
            &inbound,
            FRAMES,
            1,
            &|out| {
                for (index, frame) in decoded.iter().enumerate() {
                    write_frame_msg(out, index as u32, frame).expect("writing to a Vec");
                }
            },
            layers,
        )?;
        if let Some(served) = &traced.served {
            served.report(traced.attempted, layers);
        }
        Ok(())
    }
}

impl ServeSessions {
    /// Runs capacity rounds for `capacity`, then paced rounds for
    /// `paced` (one round of each at least; with both zero, a single
    /// capacity round — the warm-up). `C` client threads live for the
    /// whole call; the coordinator hands each its next pass and times
    /// the round from hand-out to the last report.
    fn run_phases(
        ready: &ServeReady,
        capacity: Duration,
        paced: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let c = clients();
        let addr = ready.server.addr();
        let coded = &ready.coded;
        let warm_up = capacity.is_zero() && paced.is_zero();
        let mut window = Window::default();
        let before = tracer.as_ref().map(|_| ServedSnapshot::take(&ready.server));
        let cpu = CpuClock::start();
        std::thread::scope(|scope| {
            let (report_tx, report_rx) = mpsc::channel::<PassReport>();
            let fleet: Vec<_> = (0..c)
                .map(|_| {
                    let (order_tx, order_rx) = mpsc::channel::<Phase>();
                    let report_tx = report_tx.clone();
                    let mut fork = tracer.as_ref().map(|t| t.fork());
                    let thread = scope.spawn(move || {
                        for phase in order_rx {
                            let report = pass(addr, coded, phase, fork.as_mut());
                            if report_tx.send(report).is_err() {
                                break;
                            }
                        }
                        fork
                    });
                    (order_tx, thread)
                })
                .collect();
            let round = |phase: Phase, window: &mut Window| {
                let begin = Instant::now();
                for (order, _) in &fleet {
                    // A send only fails if the thread is gone; its
                    // missing report is counted below.
                    let _ = order.send(phase);
                }
                let mut good = 0;
                for _ in 0..c {
                    window.attempted += FRAMES as u64;
                    match report_rx.recv_timeout(READ_TIMEOUT * 4) {
                        Ok(report) => {
                            good += report.good;
                            if let Some(why) = report.error {
                                window.fail((FRAMES - report.good) as u64, why);
                                if matches!(phase, Phase::Paced) {
                                    window.paced_failed += (FRAMES - report.good) as u64;
                                }
                            }
                            window.frame_ms.extend(report.paced.latency_ms);
                            window.late_ms.extend(report.paced.late_ms);
                        }
                        Err(_) => window.fail(FRAMES as u64, "client thread did not report"),
                    }
                }
                good as f64 / begin.elapsed().as_secs_f64()
            };
            let begin = Instant::now();
            while window.pass_fps.is_empty() || begin.elapsed() < capacity {
                let fps = round(Phase::Capacity, &mut window);
                window.pass_fps.push(fps);
            }
            if !warm_up {
                let begin = Instant::now();
                let mut paced_fps = Vec::new();
                while paced_fps.is_empty() || begin.elapsed() < paced {
                    paced_fps.push(round(Phase::Paced, &mut window));
                }
                window.paced_fps = median(&paced_fps);
                window.paced_rate_fps = Some(PACED_FPS);
            }
            cpu.stop(&mut window);
            // Read the server's instruments while the client threads
            // still exist, so the thread count is the run's.
            if let Some(before) = before {
                before.finish(&ready.server, &mut window);
            }
            for (order, thread) in fleet {
                drop(order);
                if let (Ok(Some(fork)), Some(tracer)) = (thread.join(), tracer.as_deref_mut()) {
                    tracer.absorb(fork);
                }
            }
        });
        window
    }
}
