//! `relay_live`: one hybrid-baseline publisher fanned out to `C − 1`
//! subscribers through a loopback `nvc-serve`, 64×48, 96 frames, a
//! fresh broadcast name per pass.
//!
//! The cheap `nvc-baseline` encode leaves poller wake-ups, the GOP
//! segment cache, the subscriber ring and the fan-out writes as the
//! dominant latency terms; the CTVC kernels do nothing, so a kernel
//! change must predict "no change" here.
//!
//! Two phases split the window evenly. **Capacity**: the publisher
//! sends as fast as a window of 2 allows; `fps` is frames delivered to
//! every subscriber over the pass's wall time. **Paced**: the publisher
//! sends at a fixed 60 fps, open loop; `frame_ms_*` is publisher due
//! time → packet returned by the subscriber's `next_event`, one sample
//! per subscriber-frame. 60 fps is about half of what the capacity
//! phase reaches on the 2-core reference host.

use super::served::{spawn_server, wire_codec, ServedSnapshot};
use super::{
    bits_per_pixel, clients, psnr_db, synth_clip, CpuClock, Layers, Window, Workload, READ_TIMEOUT,
};
use crate::pacer::{ms, sleep_until, Pacer};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use nvc::baseline::HybridCodec;
use nvc::entropy::container::Packet;
use nvc::serve::proto::{write_frame_msg, write_packet_msg};
use nvc::serve::{
    Family, Hello, Role, ServeConfig, ServeError, ServerHandle, StreamClient, SubscribeClient,
    SubscribeEvent,
};
use nvc::video::codec::{DecoderSession, EncoderSession};
use nvc::video::{Frame, Sequence};
use std::cell::Cell;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const WIDTH: usize = 64;
pub const HEIGHT: usize = 48;
pub const FRAMES: usize = 96;
pub const QP: u8 = 34;
const WINDOW: usize = 2;
/// Offered rate of the paced phase.
pub const PACED_FPS: f64 = 60.0;

pub struct RelayReady {
    server: ServerHandle,
    clip: Sequence,
    /// The set-up pass's packets as the publisher got them back,
    /// serialized; every later pass must reproduce them.
    reference: Vec<Vec<u8>>,
    /// Those packets decoded in-process.
    decoded: Vec<Frame>,
    seed: u64,
    /// Passes so far, for fresh broadcast names.
    passes: Cell<u64>,
    /// Wall time of synthesizing the clip, in ms.
    synth_ms: f64,
}

/// What one subscriber saw of one pass.
struct Subscription {
    packets: Vec<(Packet, Instant)>,
    join: (Instant, Instant),
    error: Option<String>,
}

fn subscribe(addr: std::net::SocketAddr, name: &str, ready: &Barrier) -> Subscription {
    let begin = Instant::now();
    let hello = Hello::subscribe(name, WIDTH, HEIGHT).with_family(Family::Hybrid);
    let client = SubscribeClient::connect(addr, hello).and_then(|c| {
        c.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(c)
    });
    let mut out = Subscription {
        packets: Vec::with_capacity(FRAMES),
        join: (begin, Instant::now()),
        error: None,
    };
    // Reached on failure too: the publisher waits here for every
    // subscriber before its first frame.
    ready.wait();
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            out.error = Some(format!("subscribe: {e}"));
            return out;
        }
    };
    loop {
        match client.next_event() {
            Ok(SubscribeEvent::Packet(packet)) => out.packets.push((packet, Instant::now())),
            Ok(SubscribeEvent::End(_)) => return out,
            Err(e) => {
                out.error = Some(format!("subscriber: {e}"));
                return out;
            }
        }
    }
}

/// What one pass came to.
struct Pass {
    /// The publisher's own returned packets, serialized.
    published: Vec<Vec<u8>>,
    /// Frames every subscriber received byte-identical, and the wall
    /// time from the first send to the last subscriber's end.
    delivered: usize,
    wall: Duration,
    /// Subscriber-frames that went missing or differed.
    failed: u64,
    error: Option<String>,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

pub struct RelayLive;

impl RelayLive {
    fn pass(ready: &RelayReady, paced: bool, mut tracer: Option<&mut Tracer>) -> Pass {
        let subscribers = clients() - 1;
        let addr = ready.server.addr();
        let pass_number = ready.passes.get();
        ready.passes.set(pass_number + 1);
        let name = format!("live-{}-{pass_number}", ready.seed);
        let mut pass = Pass {
            published: Vec::new(),
            delivered: 0,
            wall: Duration::ZERO,
            failed: (subscribers * FRAMES) as u64,
            error: None,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
        };
        let begin = Instant::now();
        let publisher =
            StreamClient::connect(addr, Hello::hybrid_publish(QP, WIDTH, HEIGHT, &name)).and_then(
                |mut p| {
                    p.set_window(WINDOW);
                    p.set_read_timeout(Some(READ_TIMEOUT))?;
                    Ok(p)
                },
            );
        let mut publisher = match publisher {
            Ok(publisher) => publisher,
            Err(e) => {
                pass.error = Some(format!("publish: {e}"));
                return pass;
            }
        };
        let connected = Instant::now();
        let all_joined = Barrier::new(subscribers + 1);
        let mut start = connected;
        let mut sent_at = Vec::with_capacity(FRAMES);
        let period = Pacer::new(PACED_FPS).period();
        let (published, subscriptions) = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..subscribers)
                .map(|_| scope.spawn(|| subscribe(addr, &name, &all_joined)))
                .collect();
            all_joined.wait();
            start = Instant::now();
            let published = (|| -> Result<Vec<Packet>, ServeError> {
                let mut pacer = Pacer::new(PACED_FPS);
                for frame in ready.clip.frames() {
                    if paced {
                        sleep_until(start, pacer.next_due());
                    }
                    sent_at.push(Instant::now());
                    publisher.send_frame(frame)?;
                }
                Ok(publisher.finish()?.packets)
            })();
            let subscriptions: Vec<Subscription> =
                threads.into_iter().filter_map(|t| t.join().ok()).collect();
            (published, subscriptions)
        });
        let end = subscriptions
            .iter()
            .filter_map(|s| s.packets.last().map(|(_, at)| *at))
            .max()
            .unwrap_or_else(Instant::now);
        pass.wall = end - start;
        match published {
            Ok(packets) => pass.published = packets.iter().map(Packet::to_bytes).collect(),
            Err(e) => pass.error = Some(format!("publisher: {e}")),
        }
        // Every subscriber's stream must be the publisher's, byte for
        // byte, and the publisher's must be the set-up pass's.
        let expected = if ready.reference.is_empty() {
            &pass.published
        } else {
            &ready.reference
        };
        if pass.published.len() == FRAMES && &pass.published == expected {
            let mut delivered = FRAMES;
            for subscription in &subscriptions {
                let good = subscription
                    .packets
                    .iter()
                    .zip(expected)
                    .take_while(|((packet, _), bytes)| &packet.to_bytes() == *bytes)
                    .count();
                delivered = delivered.min(good);
                pass.failed -= good as u64;
                if good < FRAMES && pass.error.is_none() {
                    pass.error = Some(subscription.error.clone().unwrap_or_else(|| {
                        format!("subscriber packet {good} differs from the publisher's")
                    }));
                }
                if paced {
                    pass.latency_ms.extend(
                        subscription
                            .packets
                            .iter()
                            .take(good)
                            .zip(0u32..)
                            .map(|((_, at), k)| {
                                ms(at.saturating_duration_since(start + period * k))
                            }),
                    );
                }
            }
            if subscriptions.len() == subscribers {
                pass.delivered = delivered;
            }
        } else if pass.error.is_none() {
            pass.error = Some("publisher's packets differ from the set-up pass".into());
        }
        if paced {
            pass.late_ms = sent_at
                .iter()
                .zip(0u32..)
                .map(|(at, k)| ms(at.saturating_duration_since(start + period * k)))
                .collect();
        }
        if let Some(tracer) = tracer.as_mut() {
            let root = tracer.open("pass", begin);
            tracer.record("connect", begin, connected, Some(root));
            for subscription in &subscriptions {
                let (a, b) = subscription.join;
                tracer.record("join", a, b, Some(root));
            }
            tracer.close(root, end);
        }
        pass
    }

    fn run_phases(
        ready: &RelayReady,
        capacity: Duration,
        paced: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let mut window = Window::default();
        let before = tracer.as_ref().map(|_| ServedSnapshot::take(&ready.server));
        let cpu = CpuClock::start();
        let absorb = |pass: Pass, window: &mut Window| -> f64 {
            window.attempted += ((clients() - 1) * FRAMES) as u64;
            if pass.failed > 0 || pass.error.is_some() {
                window.fail(pass.failed, pass.error.unwrap_or_default());
                if !pass.late_ms.is_empty() {
                    window.paced_failed += pass.failed;
                }
            }
            window.frame_ms.extend(pass.latency_ms);
            window.late_ms.extend(pass.late_ms);
            pass.delivered as f64 / pass.wall.as_secs_f64().max(1e-9)
        };
        let begin = Instant::now();
        while window.pass_fps.len() < 2 || begin.elapsed() < capacity {
            let fps = absorb(Self::pass(ready, false, tracer.as_deref_mut()), &mut window);
            window.pass_fps.push(fps);
        }
        let begin = Instant::now();
        let mut paced_fps = Vec::new();
        while paced_fps.is_empty() || begin.elapsed() < paced {
            paced_fps.push(absorb(
                Self::pass(ready, true, tracer.as_deref_mut()),
                &mut window,
            ));
        }
        window.paced_fps = median(&paced_fps);
        window.paced_rate_fps = Some(PACED_FPS);
        cpu.stop(&mut window);
        if let Some(before) = before {
            before.finish(&ready.server, &mut window);
        }
        window
    }
}

/// The in-process codec the server's hybrid sessions run.
fn hybrid_codec() -> HybridCodec {
    let served = ServeConfig::default();
    HybridCodec::with_threads(served.hybrid, served.threads_per_session)
}

impl Workload for RelayLive {
    type Ready = RelayReady;

    fn setup(seed: u64, trace: bool) -> Result<RelayReady, String> {
        let (clip, synth_ms) = probes::timed(|| synth_clip(WIDTH, HEIGHT, FRAMES, seed));
        let mut ready = RelayReady {
            server: spawn_server(trace)?,
            clip,
            reference: Vec::new(),
            decoded: Vec::new(),
            seed,
            passes: Cell::new(0),
            synth_ms,
        };
        // Warm-up pass; its packets become the reference, and decoding
        // them in-process proves the relayed stream is a real one.
        let warm = Self::pass(&ready, false, None);
        if let Some(why) = warm.error {
            return Err(format!("warm-up pass failed: {why}"));
        }
        let codec = hybrid_codec();
        let mut session = codec.start_decode();
        for bytes in &warm.published {
            ready
                .decoded
                .push(session.push_packet(bytes).map_err(|e| e.to_string())?);
        }
        ready.reference = warm.published;
        Ok(ready)
    }

    fn quality(ready: &RelayReady) -> Result<(f64, f64), String> {
        let bytes: usize = ready.reference.iter().map(Vec::len).sum();
        Ok((
            bits_per_pixel(bytes, WIDTH, HEIGHT, FRAMES),
            psnr_db(&ready.clip, &ready.decoded)?,
        ))
    }

    fn measure(ready: &RelayReady, budget: Duration, tracer: Option<&mut Tracer>) -> Window {
        Self::run_phases(ready, budget / 2, budget / 2, tracer)
    }

    fn probes(
        ready: &RelayReady,
        traced: &Window,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> Result<(), String> {
        probes::video(ready.synth_ms, &ready.clip, &ready.decoded, layers)?;
        probes::entropy(&ready.reference, WIDTH * HEIGHT * 3, WIDTH, HEIGHT, layers)?;

        // nvc-baseline in-process, per frame. The encode follows the
        // relay's cadence (joinable stream, intra refresh every
        // `broadcast_gop` frames), so it must reproduce the relayed
        // packets byte for byte.
        let codec = hybrid_codec();
        let gop = ServeConfig::default().broadcast_gop;
        let mut encode_ms = Vec::with_capacity(FRAMES);
        let mut encode_pass = || -> Result<Vec<Vec<u8>>, String> {
            encode_ms.clear();
            let mut session = codec.start_encode(QP);
            session.set_join_headers(true);
            let mut packets = Vec::with_capacity(FRAMES);
            for (index, frame) in ready.clip.frames().iter().enumerate() {
                let (packet, call_ms) = probes::timed(|| {
                    if index > 0 && index % gop == 0 {
                        session.restart_gop();
                    }
                    session.push_frame(frame)
                });
                packets.push(packet.map_err(|e| e.to_string())?.to_bytes());
                encode_ms.push(call_ms);
            }
            Ok(packets)
        };
        // The second pass is the measured one; the first warms up.
        encode_pass()?;
        let (encoded, encode_pass_ms) = probes::timed(&mut encode_pass);
        if encoded? != ready.reference {
            return Err("in-process encode differs from the relayed packets".into());
        }
        let mut decode_ms = Vec::with_capacity(FRAMES);
        let mut session = codec.start_decode();
        for bytes in &ready.reference {
            let (frame, call_ms) = probes::timed(|| session.push_packet(bytes));
            frame.map_err(|e| e.to_string())?;
            decode_ms.push(call_ms);
        }
        let encode_p50 = median(&encode_ms);
        layers.set("baseline.encode_ms_p50", encode_p50);
        layers.set("baseline.decode_ms_p50", median(&decode_ms));
        layers.set(
            "serve.overhead_ms_p50",
            traced.latency_percentile(0.5) - encode_p50,
        );
        layers.set(
            "serve.capacity_efficiency",
            traced.fps() / (FRAMES as f64 * 1e3 / encode_pass_ms),
        );
        layers.set(
            "serve.handshake_ms_p50",
            probes::span_p50(tracer, "connect"),
        );
        layers.set("serve.join_ms_p50", probes::span_p50(tracer, "join"));

        let mut inbound = Vec::new();
        for (index, frame) in ready.clip.frames().iter().enumerate() {
            write_frame_msg(&mut inbound, index as u32, frame).map_err(|e| e.to_string())?;
        }
        let packets: Vec<Packet> = ready
            .reference
            .iter()
            .map(|bytes| Packet::from_bytes(bytes).map(|(p, _)| p))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        wire_codec(
            Role::Publish,
            (WIDTH, HEIGHT),
            &inbound,
            FRAMES,
            // Each packet goes back to the publisher and out to every
            // subscriber.
            clients(),
            &|out| {
                for packet in &packets {
                    write_packet_msg(out, packet).expect("writing to a Vec");
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
