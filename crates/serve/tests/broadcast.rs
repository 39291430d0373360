//! Broadcast relay over a real loopback socket: one publisher encodes,
//! many subscribers receive byte-identical packets; late joiners start
//! at the most recent intra and decode bit-exactly; a dying publisher
//! fails its subscribers instead of hanging them. All clients run with
//! read timeouts so a hang fails the test instead of wedging CI.
//! (Lag eviction over real sockets is covered by the `subscribe` module
//! unit tests — deterministic ring overflow — and end-to-end by the
//! `fanout` bench, where a release-built encoder can outrun a stalled
//! TCP reader in reasonable time.)

use nvc_baseline::Profile;
use nvc_model::{CtvcCodec, CtvcConfig};
use nvc_serve::{
    Family, Hello, ServeConfig, ServeError, Server, ServerHandle, StreamClient, SubscribeClient,
    SubscribeEvent,
};
use nvc_video::codec::DecoderSession;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;
use std::time::Duration;

const W: usize = 48;
const H: usize = 32;
const TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServeConfig {
    ServeConfig {
        ctvc: CtvcConfig::ctvc_fp(8),
        hybrid: Profile::hevc_like(),
        workers: 2,
        max_sessions: 8,
        ..ServeConfig::default()
    }
}

fn spawn_server(cfg: ServeConfig) -> ServerHandle {
    Server::spawn("127.0.0.1:0", cfg).expect("bind loopback")
}

fn seq(frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(W, H, frames)).generate()
}

fn publish(server: &ServerHandle, hello: Hello) -> StreamClient {
    let client = StreamClient::connect(server.addr(), hello).expect("connect publisher");
    client.set_read_timeout(Some(TIMEOUT)).unwrap();
    client
}

fn subscribe(server: &ServerHandle, hello: Hello) -> Result<SubscribeClient, ServeError> {
    let client = SubscribeClient::connect(server.addr(), hello)?;
    client.set_read_timeout(Some(TIMEOUT)).unwrap();
    Ok(client)
}

#[test]
fn all_subscribers_receive_byte_identical_packets() {
    let server = spawn_server(test_config());
    let source = seq(5);

    let mut publisher = publish(&server, Hello::ctvc_publish(1, W, H, "game").with_gop(4));
    let subs: Vec<_> = (0..2)
        .map(|_| subscribe(&server, Hello::subscribe("game", W, H)).unwrap())
        .collect();
    for sub in &subs {
        let join = sub.join();
        assert_eq!(join.start_index, 0, "from-start subscriber");
        assert_eq!(join.gop, 4);
        assert_eq!((join.width, join.height), (W, H));
    }

    for frame in source.frames() {
        publisher.send_frame(frame).unwrap();
    }
    let published = publisher.finish().unwrap();
    assert_eq!(published.packets.len(), 5);

    for sub in subs {
        let summary = sub.collect().unwrap();
        assert_eq!(summary.packets.len(), 5);
        for (received, sent) in summary.packets.iter().zip(&published.packets) {
            assert_eq!(
                received.to_bytes(),
                sent.to_bytes(),
                "subscriber bytes diverged from the publisher's"
            );
        }
        // The trailer describes exactly what this subscriber received.
        assert_eq!(summary.stats.frames, 5);
        assert_eq!(
            summary.stats.total_bytes,
            published.packets.iter().map(|p| p.encoded_len()).sum()
        );
    }

    let report = server.shutdown();
    assert_eq!(report.sessions, 1);
    assert_eq!(report.subscribers, 2);
    assert_eq!(report.evicted, 0);
    assert_eq!(report.errors, 0);
}

#[test]
fn late_joiner_starts_at_last_intra_and_decodes_bit_exact() {
    let server = spawn_server(test_config());
    let source = seq(6);

    let mut publisher = publish(&server, Hello::ctvc_publish(1, W, H, "live").with_gop(4));
    let from_start = subscribe(&server, Hello::subscribe("live", W, H)).unwrap();

    // Frames 0..=4; the relay GOP of 4 forces an intra refresh at frame
    // 4. drain() sequences: every frame sent is encoded *and published*
    // before the late subscriber attaches.
    for frame in &source.frames()[..5] {
        publisher.send_frame(frame).unwrap();
    }
    publisher.drain().unwrap();
    let late = subscribe(&server, Hello::subscribe("live", W, H)).unwrap();
    assert_eq!(
        late.join().start_index,
        4,
        "late joiner must start at the most recent intra, not the stream head"
    );

    publisher.send_frame(&source.frames()[5]).unwrap();
    let published = publisher.finish().unwrap();
    assert_eq!(published.packets.len(), 6);

    let full = from_start.collect().unwrap();
    assert_eq!(full.packets.len(), 6);
    let tail = late.collect().unwrap();
    assert_eq!(tail.packets.len(), 2, "late joiner sees frames 4 and 5");
    for (received, sent) in tail.packets.iter().zip(&published.packets[4..]) {
        assert_eq!(received.to_bytes(), sent.to_bytes());
    }

    // The late joiner's stream is decodable from its very first packet
    // (the intra carries a full stream header in joinable mode) and
    // reconstructs bit-exactly what a from-start decode produces.
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    let mut from_start_dec = codec.start_decode();
    let full_frames: Vec<_> = full
        .packets
        .iter()
        .map(|p| from_start_dec.push_packet(&p.to_bytes()).unwrap())
        .collect();
    let mut late_dec = codec.start_decode();
    for (i, packet) in tail.packets.iter().enumerate() {
        let frame = late_dec.push_packet(&packet.to_bytes()).unwrap();
        assert_eq!(
            frame.tensor().as_slice(),
            full_frames[4 + i].tensor().as_slice(),
            "late-joined decode diverged at frame {}",
            4 + i
        );
    }

    let report = server.shutdown();
    assert_eq!(report.subscribers, 2);
    assert_eq!(report.errors, 0);
}

#[test]
fn broadcast_handshakes_reject_mismatches_cleanly() {
    let server = spawn_server(test_config());

    // Subscribing to a name nobody publishes.
    let err = subscribe(&server, Hello::subscribe("ghost", W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("no broadcast named")),
        "{err}"
    );

    let _publisher = publish(&server, Hello::ctvc_publish(1, W, H, "game"));

    // A second publisher under the same name.
    let err = StreamClient::connect(server.addr(), Hello::ctvc_publish(1, W, H, "game"))
        .expect_err("duplicate name must be rejected");
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("already in use")),
        "{err}"
    );

    // Geometry that does not match the broadcast.
    let err = subscribe(&server, Hello::subscribe("game", 2 * W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("requested")),
        "{err}"
    );

    // Family that does not match the broadcast.
    let err = subscribe(
        &server,
        Hello::subscribe("game", W, H).with_family(nvc_serve::Family::Hybrid),
    )
    .unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("streams")),
        "{err}"
    );

    // Client-side role guards: each client type refuses the other's
    // handshake before touching the network.
    let err = StreamClient::connect(server.addr(), Hello::subscribe("game", W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("SubscribeClient")),
        "{err}"
    );
    let err = SubscribeClient::connect(server.addr(), Hello::ctvc_encode(1, W, H)).unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("subscribe handshake")),
        "{err}"
    );

    let report = server.shutdown();
    assert_eq!(report.rejected, 4);
    assert_eq!(report.subscribers, 0);
}

#[test]
fn publisher_death_fails_subscribers_instead_of_hanging_them() {
    let server = spawn_server(test_config());
    let source = seq(2);

    let mut publisher = publish(&server, Hello::ctvc_publish(1, W, H, "game"));
    let mut sub = subscribe(&server, Hello::subscribe("game", W, H)).unwrap();
    for frame in source.frames() {
        publisher.send_frame(frame).unwrap();
    }
    publisher.drain().unwrap();
    drop(publisher); // connection dies without an end-of-stream marker

    // Queued packets drain first, then the failure is reported.
    let mut received = 0;
    let err = loop {
        match sub.next_event() {
            Ok(SubscribeEvent::Packet(_)) => received += 1,
            Ok(SubscribeEvent::End(_)) => panic!("orphaned subscriber got a clean trailer"),
            Err(e) => break e,
        }
    };
    assert_eq!(received, 2);
    assert!(
        matches!(&err, ServeError::Remote(m) if m.contains("connection lost")),
        "{err}"
    );

    // The name is free again for the next publisher.
    let _next = publish(&server, Hello::ctvc_publish(1, W, H, "game"));
    server.shutdown();
}

/// The moment a subscriber learns its broadcast is over — the error
/// after a publisher death, or its trailer after a clean finish — the
/// name must already be free: a client that reconnects as the next
/// publisher on that signal is acked, never told the name is in use.
/// (The publisher guard once ended the rings *before* releasing the
/// name. The watched subscriber attaches first, so its ring ends first;
/// the rings attached behind it widen the window enough that this loop
/// hit it within 40 rounds on every run.)
#[test]
fn name_is_free_the_moment_subscribers_see_the_broadcast_end() {
    let server = spawn_server(test_config());
    let source = seq(1);
    let hello = || Hello::hybrid_publish(24, W, H, "game");
    let mut publisher = publish(&server, hello());
    for clean in [false, true] {
        for round in 0..40 {
            let sub_hello = Hello::subscribe("game", W, H).with_family(Family::Hybrid);
            let mut sub = subscribe(&server, sub_hello.clone()).unwrap();
            let _behind: Vec<_> = (0..6)
                .map(|_| subscribe(&server, sub_hello.clone()).unwrap())
                .collect();
            publisher.send_frame(&source.frames()[0]).unwrap();
            publisher.drain().unwrap();
            // A clean finish blocks on the publisher's own trailer, so
            // it runs beside the subscriber's read.
            let ending = if clean {
                Some(std::thread::spawn(move || publisher.finish()))
            } else {
                drop(publisher);
                None
            };
            loop {
                match sub.next_event() {
                    Ok(SubscribeEvent::Packet(_)) => {}
                    Ok(SubscribeEvent::End(_)) => {
                        assert!(clean, "round {round}: trailer after a publisher death");
                        break;
                    }
                    Err(e) => {
                        assert!(!clean, "round {round}: clean finish failed: {e}");
                        break;
                    }
                }
            }
            publisher = StreamClient::connect(server.addr(), hello()).unwrap_or_else(|e| {
                panic!("round {round}, clean = {clean}: name not free at the end signal: {e}")
            });
            publisher.set_read_timeout(Some(TIMEOUT)).unwrap();
            if let Some(ending) = ending {
                ending.join().unwrap().unwrap();
            }
        }
    }
    server.shutdown();
}
