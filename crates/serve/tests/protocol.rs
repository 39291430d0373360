//! Protocol robustness and bit-exactness over a real loopback socket:
//! clean handshakes, hostile handshakes, mid-stream truncation, CRC
//! corruption, concurrent sessions. Every failure mode must yield a
//! clean `Err` and a closed connection — never a panic or a hang (all
//! clients run with read timeouts so a hang fails the test instead of
//! wedging CI).

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_serve::proto::{self, Hello};
use nvc_serve::{
    GovernorConfig, Retarget, ServeConfig, ServeError, Server, ServerHandle, StreamClient,
};
use nvc_video::codec::{encode_sequence, encode_sequence_with};
use nvc_video::rate::RateMode;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{FrameType, Sequence, StreamStats};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const W: usize = 48;
const H: usize = 32;
const TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServeConfig {
    ServeConfig {
        ctvc: CtvcConfig::ctvc_fp(8),
        hybrid: Profile::hevc_like(),
        workers: 2,
        queue_depth: 2,
        max_sessions: 8,
        ..ServeConfig::default()
    }
}

fn spawn_server() -> ServerHandle {
    Server::spawn("127.0.0.1:0", test_config()).expect("bind loopback")
}

fn seq(frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(W, H, frames)).generate()
}

fn connect(server: &ServerHandle, hello: Hello) -> Result<StreamClient, ServeError> {
    let client = StreamClient::connect(server.addr(), hello)?;
    client.set_read_timeout(Some(TIMEOUT)).unwrap();
    Ok(client)
}

#[test]
fn ctvc_decode_stream_is_bit_exact_with_in_process_sessions() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let source = seq(4);
    let coded = encode_sequence(&codec, &source, RatePoint::new(1)).unwrap();

    let mut client = connect(&server, Hello::ctvc_decode(1, W, H)).unwrap();
    for packet in &coded.packets {
        client.send_packet(packet).unwrap();
    }
    let summary = client.finish().unwrap();

    assert_eq!(summary.frames.len(), 4);
    for (remote, local) in summary.frames.iter().zip(coded.decoded.frames()) {
        assert_eq!(
            remote.tensor().as_slice(),
            local.tensor().as_slice(),
            "served decode must be byte-identical to the in-process loop"
        );
    }
    // The trailer reflects what actually crossed the wire.
    assert_eq!(summary.stats.frames, 4);
    assert_eq!(
        summary.stats.total_bytes,
        coded.packets.iter().map(|p| p.encoded_len()).sum::<usize>()
    );
    assert_eq!(
        summary.stats.bits_per_frame.iter().sum::<u64>(),
        8 * summary.stats.total_bytes as u64
    );
    assert_eq!(summary.latencies.len(), 4);

    let report = server.shutdown();
    assert_eq!(report.sessions, 1);
    assert_eq!(report.frames, 4);
    assert_eq!(report.errors, 0);
    // Poller accounting: every pass counts, and the one connection was
    // registered while it streamed.
    assert!(report.poll_wakeups > 0, "poller must have run passes");
    assert_eq!(report.max_registered, 1);
}

#[test]
fn ctvc_encode_stream_matches_in_process_packets_and_stats() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let source = seq(3);
    let local = encode_sequence(&codec, &source, RatePoint::new(2)).unwrap();

    let mut client = connect(&server, Hello::ctvc_encode(2, W, H)).unwrap();
    for frame in source.frames() {
        client.send_frame(frame).unwrap();
    }
    let summary = client.finish().unwrap();

    assert_eq!(summary.packets.len(), 3);
    for (remote, in_process) in summary.packets.iter().zip(&local.packets) {
        assert_eq!(
            remote.to_bytes(),
            in_process.to_bytes(),
            "served encode must produce byte-identical packets"
        );
    }
    assert_eq!(summary.stats, local.stats);
    server.shutdown();
}

#[test]
fn hybrid_family_roundtrips_both_directions() {
    let server = spawn_server();
    let source = seq(3);
    let qp = 34;

    // Remote encode...
    let mut enc = connect(&server, Hello::hybrid_encode(qp, W, H)).unwrap();
    for frame in source.frames() {
        enc.send_frame(frame).unwrap();
    }
    let encoded = enc.finish().unwrap();
    assert_eq!(encoded.packets.len(), 3);

    // ...then remote decode of those packets must match local decode.
    let mut dec = connect(&server, Hello::hybrid_decode(qp, W, H)).unwrap();
    for packet in &encoded.packets {
        dec.send_packet(packet).unwrap();
    }
    let decoded = dec.finish().unwrap();

    let local = HybridCodec::new(Profile::hevc_like());
    let mut bitstream = Vec::new();
    for packet in &encoded.packets {
        bitstream.extend_from_slice(&packet.to_bytes());
    }
    let reference = local.decode(&bitstream).unwrap();
    for (remote, local_frame) in decoded.frames.iter().zip(reference.frames()) {
        assert_eq!(remote.tensor().as_slice(), local_frame.tensor().as_slice());
    }
    server.shutdown();
}

#[test]
fn bogus_hellos_are_rejected_cleanly() {
    let server = spawn_server();

    // Invalid RatePoint (outside the calibrated sweep).
    let err = connect(&server, Hello::ctvc_decode(9, W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("rate index 9")),
        "{err}"
    );
    // CTVC geometry must be divisible by 16.
    let err = connect(&server, Hello::ctvc_encode(1, 50, 34)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("divisible by 16")),
        "{err}"
    );

    // Raw garbage instead of a handshake.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut tag = [0u8; 1];
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR, "server must answer with 'X'");
    let msg = proto::read_error_body(&mut raw).unwrap();
    assert!(msg.contains("handshake"), "{msg}");
    // ...and then close the connection.
    assert_eq!(raw.read(&mut tag).unwrap(), 0, "connection must be closed");

    // Unknown codec family tag, in a hello of the accepted version.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(b"NVCS\x04\x05\x01\x01\x30\x00\x20\x00")
        .unwrap();
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR);
    let msg = proto::read_error_body(&mut raw).unwrap();
    assert_eq!(msg, "handshake: protocol error: unknown codec family 0x05");

    let report = server.shutdown();
    assert_eq!(report.sessions, 0);
    assert_eq!(report.rejected, 4);
}

#[test]
fn corrupted_packet_crc_yields_clean_error_and_close() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let coded = encode_sequence(&codec, &seq(2), RatePoint::new(1)).unwrap();

    // Speak the protocol raw so the CRC corruption actually reaches the
    // wire (the typed client would recompute it).
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = Vec::new();
    Hello::ctvc_decode(1, W, H).write_to(&mut buf).unwrap();
    let mut packet = coded.packets[0].to_bytes();
    *packet.last_mut().unwrap() ^= 0xFF;
    buf.push(proto::MSG_PACKET);
    buf.extend_from_slice(&packet);
    raw.write_all(&buf).unwrap();

    let mut head = [0u8; 3];
    raw.read_exact(&mut head).unwrap(); // ack + echoed rate + flags
    assert_eq!(head[0], proto::MSG_ACK);
    let mut tag = [0u8; 1];
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR, "CRC corruption must be reported");
    let msg = proto::read_error_body(&mut raw).unwrap();
    assert!(msg.contains("CRC"), "{msg}");
    assert_eq!(raw.read(&mut tag).unwrap(), 0, "connection must be closed");

    let report = server.shutdown();
    assert_eq!(report.errors, 1);
}

#[test]
fn midstream_truncation_kills_the_session_not_the_server() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let coded = encode_sequence(&codec, &seq(2), RatePoint::new(1)).unwrap();

    // A client that dies halfway through a packet.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        Hello::ctvc_decode(1, W, H).write_to(&mut buf).unwrap();
        let packet = coded.packets[0].to_bytes();
        buf.push(proto::MSG_PACKET);
        buf.extend_from_slice(&packet[..packet.len() / 2]);
        raw.write_all(&buf).unwrap();
        // Drop the stream mid-packet.
    }

    // The server keeps serving: a well-behaved session still round-trips
    // bit-exactly afterwards.
    let mut client = connect(&server, Hello::ctvc_decode(1, W, H)).unwrap();
    for packet in &coded.packets {
        client.send_packet(packet).unwrap();
    }
    let summary = client.finish().unwrap();
    for (remote, local) in summary.frames.iter().zip(coded.decoded.frames()) {
        assert_eq!(remote.tensor().as_slice(), local.tensor().as_slice());
    }
    server.shutdown();
}

#[test]
fn wrong_message_kind_for_direction_is_rejected() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let coded = encode_sequence(&codec, &seq(2), RatePoint::new(1)).unwrap();

    // A coded packet on an encode-direction stream.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = Vec::new();
    Hello::ctvc_encode(1, W, H).write_to(&mut buf).unwrap();
    buf.push(proto::MSG_PACKET);
    buf.extend_from_slice(&coded.packets[0].to_bytes());
    raw.write_all(&buf).unwrap();
    let mut head = [0u8; 3];
    raw.read_exact(&mut head).unwrap();
    assert_eq!(head[0], proto::MSG_ACK);
    let mut tag = [0u8; 1];
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR);
    server.shutdown();
}

#[test]
fn mismatched_frame_geometry_is_rejected() {
    let server = spawn_server();
    let mut client = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    // Negotiated 48x32, then push 32x32 frames: 16-divisible, so only the
    // geometry check can catch it.
    let wrong = Synthesizer::new(SceneConfig::uvg_like(32, 32, 1)).generate();
    client.send_frame(&wrong.frames()[0]).unwrap();
    let err = client.finish().unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("does not match negotiated")),
        "{err}"
    );
    server.shutdown();
}

#[test]
fn midstream_retarget_forces_intra_and_replays_bit_exact() {
    let server = spawn_server();
    let source = seq(4);

    let run = || {
        let mut client = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
        for (i, frame) in source.frames().iter().enumerate() {
            if i == 2 {
                // Switch to r2 and force an intra refresh at the switch.
                client.retarget(Retarget::fixed(2).with_restart()).unwrap();
            }
            client.send_frame(frame).unwrap();
        }
        client.finish().unwrap()
    };
    let summary = run();

    assert_eq!(summary.packets.len(), 4);
    assert_eq!(
        summary.stats.frame_types,
        vec![
            FrameType::Intra,
            FrameType::Predicted,
            FrameType::Intra,
            FrameType::Predicted
        ],
        "the retarget must land on an intra anchor"
    );
    assert_eq!(summary.stats.rate_per_frame, vec![1, 1, 2, 2]);

    // The retargeted stream decodes cleanly in-process.
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let mut bitstream = Vec::new();
    for packet in &summary.packets {
        bitstream.extend_from_slice(&packet.to_bytes());
    }
    let decoded = codec.decode(&bitstream).unwrap();
    assert_eq!(decoded.frames().len(), 4);

    // Replaying the identical frames + retarget produces a byte-exact
    // stream.
    let replay = run();
    for (a, b) in summary.packets.iter().zip(&replay.packets) {
        assert_eq!(a.to_bytes(), b.to_bytes(), "retargeted replay diverged");
    }

    let report = server.shutdown();
    assert_eq!(report.errors, 0);
}

#[test]
fn target_bpp_session_over_the_wire_matches_in_process() {
    let server = spawn_server();
    let source = seq(5);
    let (bpp, window) = (0.8, 4);

    let mut client = connect(
        &server,
        Hello::ctvc_encode(1, W, H).with_target_bpp(bpp, window),
    )
    .unwrap();
    for frame in source.frames() {
        client.send_frame(frame).unwrap();
    }
    let summary = client.finish().unwrap();
    assert_eq!(summary.stats.rate_per_frame.len(), 5);
    assert!(summary
        .stats
        .rate_per_frame
        .iter()
        .all(|&r| r <= RatePoint::MAX_INDEX));

    // The wire session runs the same deterministic controller as the
    // in-process API — packets must be byte-identical.
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let local = encode_sequence_with(
        &codec,
        &source,
        RateMode::TargetBpp {
            bpp,
            window: usize::from(window),
        },
    )
    .unwrap();
    for (remote, in_process) in summary.packets.iter().zip(&local.packets) {
        assert_eq!(remote.to_bytes(), in_process.to_bytes());
    }
    assert_eq!(summary.stats, local.stats);
    server.shutdown();
}

/// Only protocol version 4 is served. A client of a retired version
/// (1–3, each hello in its own layout) or of a newer one gets a clean
/// `'X'` naming the version, then a closed connection.
#[test]
fn other_protocol_versions_are_rejected_cleanly() {
    let server = spawn_server();
    let mut current = Vec::new();
    Hello::ctvc_decode(1, W, H).write_to(&mut current).unwrap();
    // Version 1 sent 12 bytes, version 2 19, version 3 all but the
    // trailing client-identity byte.
    for (version, layout) in [
        (1u8, 12),
        (2, 19),
        (3, current.len() - 1),
        (5, current.len()),
    ] {
        let mut hello = current[..layout].to_vec();
        hello[4] = version;
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        raw.write_all(&hello).unwrap();
        let mut tag = [0u8; 1];
        raw.read_exact(&mut tag).unwrap();
        assert_eq!(tag[0], proto::MSG_ERROR, "version {version} must get 'X'");
        let msg = proto::read_error_body(&mut raw).unwrap();
        assert_eq!(
            msg,
            format!(
                "handshake: protocol error: unsupported protocol version {version} (accepted 4)"
            )
        );
        assert_eq!(raw.read(&mut tag).unwrap(), 0, "connection must be closed");
    }
    let report = server.shutdown();
    assert_eq!(report.rejected, 4);
    assert_eq!(report.sessions, 0);
}

#[test]
fn retarget_is_rejected_on_decode_streams_and_bogus_rates() {
    let server = spawn_server();

    // Client-side guard: wrong direction.
    let mut dec = connect(&server, Hello::ctvc_decode(1, W, H)).unwrap();
    let err = dec.retarget(Retarget::fixed(2)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("decode-direction")),
        "{err}"
    );

    // Server-side guard: a fixed retarget outside the CTVC sweep kills
    // the session with a clean remote error, not a panic.
    let mut enc = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    enc.retarget(Retarget::fixed(9)).unwrap();
    let source = seq(1);
    let _ = enc.send_frame(&source.frames()[0]);
    let err = enc.finish().unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("rate index 9")),
        "{err}"
    );

    // A zero-bpp retarget is rejected with the same bar as the
    // handshake's target validation.
    let mut enc = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    enc.retarget(Retarget::target_bpp(0.0, 4)).unwrap();
    let _ = enc.send_frame(&source.frames()[0]);
    let err = enc.finish().unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("must be positive")),
        "{err}"
    );

    // A retarget sent on a decode stream dies with the specific
    // diagnostic, not a generic unexpected-tag abort.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut buf = Vec::new();
    Hello::ctvc_decode(1, W, H).write_to(&mut buf).unwrap();
    proto::write_retarget_msg(&mut buf, &Retarget::fixed(2)).unwrap();
    raw.write_all(&buf).unwrap();
    let mut head = [0u8; 3];
    raw.read_exact(&mut head).unwrap();
    assert_eq!(head[0], proto::MSG_ACK);
    let mut tag = [0u8; 1];
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR);
    let msg = proto::read_error_body(&mut raw).unwrap();
    assert!(msg.contains("retarget on a decode stream"), "{msg}");
    drop(raw);

    // Legacy leniency: a hybrid encode handshake with QP > 51 (the RD
    // anchor sweeps use up to 58) still opens a session and round-trips
    // the requested quantizer.
    let mut enc = connect(&server, Hello::hybrid_encode(60, W, H)).unwrap();
    let source = seq(2);
    for frame in source.frames() {
        enc.send_frame(frame).unwrap();
    }
    let summary = enc.finish().unwrap();
    assert!(summary.stats.rate_per_frame.iter().all(|&q| q == 60));
    server.shutdown();
}

#[test]
fn handshake_deadline_rejects_a_silent_client() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            handshake_timeout: Duration::from_millis(200),
            ..test_config()
        },
    )
    .expect("bind loopback");

    // Connect and say nothing: the server must not hold the slot
    // hostage forever — it answers with a clean 'X' and closes.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut tag = [0u8; 1];
    raw.read_exact(&mut tag).unwrap();
    assert_eq!(tag[0], proto::MSG_ERROR, "silence must be answered by 'X'");
    let msg = proto::read_error_body(&mut raw).unwrap();
    assert!(msg.contains("deadline"), "{msg}");
    assert_eq!(raw.read(&mut tag).unwrap(), 0, "connection must be closed");

    // A prompt client on the same server is unaffected.
    let source = seq(2);
    let mut client = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    for frame in source.frames() {
        client.send_frame(frame).unwrap();
    }
    client.finish().unwrap();

    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.sessions, 1);
    // The deadline came off the poller's timer wheel, and the 200ms of
    // client silence means the poller parked through passes that found
    // no work.
    assert!(
        report.timer_fires >= 1,
        "timer_fires = {}",
        report.timer_fires
    );
    assert!(
        report.spurious_polls > 0,
        "a silent 200ms window must show up as spurious polls"
    );
}

#[test]
fn session_capacity_overflow_is_rejected_cleanly() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 1,
            ..test_config()
        },
    )
    .expect("bind loopback");

    let first = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    let err = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("capacity")),
        "{err}"
    );
    // The surviving session still works; the slot frees on finish.
    let source = seq(1);
    let mut first = first;
    first.send_frame(&source.frames()[0]).unwrap();
    first.finish().unwrap();
    let mut third = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    third.send_frame(&source.frames()[0]).unwrap();
    third.finish().unwrap();

    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.sessions, 2);
}

/// A session's slot is free by the time its client has read the last
/// byte the server sent — the stats trailer of a clean finish, or the
/// `'X'` of a failed stream — so at `max_sessions: 1` a client may
/// reconnect the moment either arrives.
#[test]
fn a_finished_session_frees_its_slot_before_its_client_can_reconnect() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 1,
            ..test_config()
        },
    )
    .expect("bind loopback");
    let source = seq(1);
    let mut last_end = "nothing";
    for round in 0..10 {
        for fail in [false, true] {
            let mut client = connect(&server, Hello::ctvc_encode(1, W, H))
                .unwrap_or_else(|e| panic!("round {round}: slot still held after {last_end}: {e}"));
            if fail {
                // A bogus retarget fails the stream with an 'X'.
                client.retarget(Retarget::fixed(9)).unwrap();
                let _ = client.send_frame(&source.frames()[0]);
                let err = client.finish().unwrap_err();
                assert!(
                    matches!(&err, ServeError::Remote(m) if m.contains("rate index 9")),
                    "{err}"
                );
                last_end = "an 'X'";
            } else {
                client.send_frame(&source.frames()[0]).unwrap();
                client.finish().unwrap();
                last_end = "a trailer";
            }
        }
    }
    let report = server.shutdown();
    assert_eq!(report.rejected, 0);
    assert_eq!(report.sessions, 20);
}

#[test]
fn governor_rejects_a_session_the_budget_cannot_carry() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            governor: Some(GovernorConfig::new(1000.0)),
            ..test_config()
        },
    )
    .expect("bind loopback");

    // 48x32 at 6.0 bpp projects 9216 bits/frame against a 1000-bit
    // budget with the default 8x overload ceiling: reject, don't admit
    // a stream the reservoir can never serve.
    let err = connect(&server, Hello::ctvc_encode(1, W, H).with_target_bpp(6.0, 4)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("budget")),
        "{err}"
    );

    // A modest session on the same server is admitted at full rate.
    let client = connect(&server, Hello::ctvc_encode(1, W, H)).unwrap();
    assert!(!client.admitted_degraded());
    assert_eq!(client.granted_rate(), 1);
    drop(client);

    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
}

/// The whole degradation curve over real sockets, twice: a second
/// session pushes the pool past its budget, so it is admitted
/// *degraded* (the ack says so and names the granted rung) and the
/// first session is walked down the ladder in-band; the second
/// session's exit restores the first to full rate. Lockstep `drain`
/// barriers pin which frames see which session set, so the governed
/// stream is a pure function of the scenario — replaying it must
/// reproduce every packet byte-for-byte (invariant 3).
#[test]
fn governed_streams_degrade_restore_and_replay_byte_identically() {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            // assumed_bpp 0.5 x 48x32 = 768 bits/frame per fixed-rate
            // session: one fits the 1000-bit budget, two do not
            // (ratio 1000/1536 ~ 0.65, four QP rungs down).
            governor: Some(GovernorConfig::new(1000.0)),
            ..test_config()
        },
    )
    .expect("bind loopback");
    let source = seq(6);

    let run = || {
        let mut alice = connect(&server, Hello::hybrid_encode(32, W, H).with_client("alice"))
            .expect("admit alice");
        assert!(!alice.admitted_degraded(), "solo session must be full-rate");
        assert_eq!(alice.granted_rate(), 32);
        alice.send_frame(&source.frames()[0]).unwrap();
        alice.send_frame(&source.frames()[1]).unwrap();
        alice.drain().unwrap(); // frames 0-1 coded while alice is alone

        let mut bob = connect(&server, Hello::hybrid_encode(32, W, H).with_client("bob"))
            .expect("admit bob degraded");
        assert!(bob.admitted_degraded(), "second session must be degraded");
        assert_eq!(
            bob.granted_rate(),
            36,
            "the ack must name the granted rung: QP 32 walked 4 steps down"
        );
        alice.send_frame(&source.frames()[2]).unwrap();
        alice.send_frame(&source.frames()[3]).unwrap();
        alice.drain().unwrap(); // frames 2-3 coded with bob registered
        bob.send_frame(&source.frames()[0]).unwrap();
        bob.send_frame(&source.frames()[1]).unwrap();
        let bob_summary = bob.finish().unwrap(); // bob's share returns to the pool

        alice.send_frame(&source.frames()[4]).unwrap();
        alice.send_frame(&source.frames()[5]).unwrap();
        let alice_summary = alice.finish().unwrap();
        (alice_summary, bob_summary)
    };

    let (alice_a, bob_a) = run();
    assert_eq!(
        alice_a.stats.rate_per_frame,
        vec![32, 32, 36, 36, 32, 32],
        "degrade when bob joins, restore when he leaves"
    );
    assert_eq!(bob_a.stats.rate_per_frame, vec![36, 36]);

    // Identical scenario, identical bytes.
    let (alice_b, bob_b) = run();
    for (x, y) in alice_a.packets.iter().zip(&alice_b.packets) {
        assert_eq!(x.to_bytes(), y.to_bytes(), "governed replay diverged");
    }
    for (x, y) in bob_a.packets.iter().zip(&bob_b.packets) {
        assert_eq!(x.to_bytes(), y.to_bytes(), "governed replay diverged");
    }

    let report = server.shutdown();
    assert_eq!(report.errors, 0);
    assert_eq!(report.sessions, 4);
    // Per run: alice degrades + restores, bob runs degraded start to
    // end; four downward rungs each.
    assert_eq!(report.degraded, 4);
    assert_eq!(report.restored, 2);
    assert_eq!(report.throttle_steps, 16);
}

/// Trailer invariants every served stream keeps: one entry per frame in
/// each per-frame column, and bit counts that sum to the bytes sent.
fn assert_trailer_columns(stats: &StreamStats, frames: usize) {
    assert_eq!(stats.frames, frames);
    assert_eq!(stats.frame_types.len(), frames);
    assert_eq!(stats.rate_per_frame.len(), frames);
    assert_eq!(
        stats.bits_per_frame.iter().sum::<u64>(),
        8 * stats.total_bytes as u64,
        "trailer bit counts must sum to the bytes sent"
    );
}

/// Three decode streams, a fixed-rate encode and a target-bpp encode on
/// one server at once: every stream matches the in-process session, and
/// every trailer is consistent with what crossed the wire.
#[test]
fn concurrent_sessions_are_all_bit_exact() {
    let server = spawn_server();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let source = seq(3);
    // Different rate per stream, so sessions cannot share results.
    let coded: Vec<_> = (0..3)
        .map(|r| encode_sequence(&codec, &source, RatePoint::new(r)).unwrap())
        .collect();
    let target_bpp = coded[1].stats.bpp(W * H);

    std::thread::scope(|scope| {
        let server = &server;
        let mut handles: Vec<_> = coded
            .iter()
            .enumerate()
            .map(|(r, coded)| {
                scope.spawn(move || {
                    let mut client = connect(server, Hello::ctvc_decode(r as u8, W, H)).unwrap();
                    // Window 1 vs 2 exercises different pipelining depths.
                    client.set_window(1 + r % 2);
                    for packet in &coded.packets {
                        client.send_packet(packet).unwrap();
                    }
                    let summary = client.finish().unwrap();
                    for (remote, local) in summary.frames.iter().zip(coded.decoded.frames()) {
                        assert_eq!(
                            remote.tensor().as_slice(),
                            local.tensor().as_slice(),
                            "stream at rate {r} diverged"
                        );
                    }
                    // One GOP at one rate: the columns say exactly that.
                    let stats = &summary.stats;
                    assert_trailer_columns(stats, 3);
                    assert_eq!(
                        stats.frame_types,
                        [FrameType::Intra, FrameType::Predicted, FrameType::Predicted]
                    );
                    assert!(stats.rate_per_frame.iter().all(|&q| usize::from(q) == r));
                })
            })
            .collect();
        // A fixed-rate encode: byte-identical to the in-process packets.
        handles.push(scope.spawn(|| {
            let mut client = connect(server, Hello::ctvc_encode(1, W, H)).unwrap();
            for frame in source.frames() {
                client.send_frame(frame).unwrap();
            }
            let summary = client.finish().unwrap();
            assert_trailer_columns(&summary.stats, 3);
            assert!(summary.stats.rate_per_frame.iter().all(|&q| q == 1));
            assert_eq!(summary.packets.len(), 3);
            for (remote, local) in summary.packets.iter().zip(&coded[1].packets) {
                assert_eq!(
                    remote.to_bytes(),
                    local.to_bytes(),
                    "concurrent fixed encode diverged from the in-process session"
                );
            }
        }));
        // A closed-loop encode: every chosen rate is a valid rate point,
        // and the bits the controller saw are the serialized sizes.
        handles.push(scope.spawn(|| {
            let hello = Hello::ctvc_encode(1, W, H).with_target_bpp(target_bpp, 4);
            let mut client = connect(server, hello).unwrap();
            for frame in source.frames() {
                client.send_frame(frame).unwrap();
            }
            let summary = client.finish().unwrap();
            let stats = &summary.stats;
            assert_trailer_columns(stats, 3);
            assert!(stats
                .rate_per_frame
                .iter()
                .all(|&r| RatePoint::try_new(r).is_ok()));
            assert_eq!(summary.packets.len(), 3);
            for (bits, packet) in stats.bits_per_frame.iter().zip(&summary.packets) {
                assert_eq!(*bits, packet.encoded_len() as u64 * 8);
            }
        }));
        for handle in handles {
            handle.join().unwrap();
        }
    });

    let report = server.shutdown();
    assert_eq!(report.sessions, 5);
    assert_eq!(report.frames, 15);
    assert_eq!(report.errors, 0);
    // All five sessions multiplexed on the one poller.
    assert!(
        (1..=5).contains(&report.max_registered),
        "max_registered = {}",
        report.max_registered
    );
}
