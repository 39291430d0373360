//! Byte pins for the protocol's wire format.
//!
//! Every message layout is pinned here, client side and server side:
//! the five clean client transcripts `tests/boundaries.rs` replays
//! (FNV-1a digests of hello + messages), the handshake ack a server
//! sends plain and degraded, the stats trailer closing a decode stream,
//! and one join-info and one retarget message. A refactor of the
//! protocol code must leave every one of these unchanged; a failure
//! here is a wire-format change, not a test to update.

use nvc_baseline::Profile;
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_serve::proto::{
    self, write_frame_msg, write_join_msg, write_packet_msg, write_retarget_msg, Family, Hello,
    JoinInfo, Retarget,
};
use nvc_serve::{GovernorConfig, ServeConfig, Server};
use nvc_video::codec::encode_sequence;
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const W: usize = 16;
const H: usize = 16;
const TIMEOUT: Duration = Duration::from_secs(30);

/// FNV-1a 64 — the same digest `tests/boundaries.rs` logs events with.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn frames(n: usize) -> Vec<nvc_video::Frame> {
    Synthesizer::new(SceneConfig::uvg_like(W, H, n))
        .generate()
        .frames()
        .to_vec()
}

fn hello_bytes(hello: &Hello) -> Vec<u8> {
    let mut bytes = Vec::new();
    hello.write_to(&mut bytes).expect("vec write");
    bytes
}

/// The three coded packets the decode transcript carries.
fn coded_packets() -> Vec<nvc_entropy::container::Packet> {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).expect("ctvc config");
    let source = Synthesizer::new(SceneConfig::uvg_like(W, H, 3)).generate();
    encode_sequence(&codec, &source, RatePoint::new(1))
        .expect("encode")
        .packets
}

fn encode_stream() -> Vec<u8> {
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H));
    for (i, frame) in frames(2).iter().enumerate() {
        write_frame_msg(&mut bytes, i as u32, frame).unwrap();
    }
    bytes.push(b'E');
    bytes
}

fn decode_stream() -> Vec<u8> {
    let mut bytes = hello_bytes(&Hello::ctvc_decode(1, W, H));
    for packet in &coded_packets() {
        write_packet_msg(&mut bytes, packet).unwrap();
    }
    bytes.push(b'E');
    bytes
}

fn retarget_stream() -> Vec<u8> {
    let mut bytes = hello_bytes(&Hello::ctvc_encode(1, W, H).with_gop(4));
    let fs = frames(2);
    write_frame_msg(&mut bytes, 0, &fs[0]).unwrap();
    write_retarget_msg(&mut bytes, &Retarget::fixed(2).with_restart()).unwrap();
    write_retarget_msg(&mut bytes, &Retarget::target_bpp(0.3, 4)).unwrap();
    write_frame_msg(&mut bytes, 1, &fs[1]).unwrap();
    bytes.push(b'E');
    bytes
}

fn governed_stream() -> Vec<u8> {
    let mut bytes = hello_bytes(
        &Hello::ctvc_encode(1, W, H)
            .with_target_bpp(0.25, 8)
            .with_client("alice"),
    );
    write_frame_msg(&mut bytes, 0, &frames(1)[0]).unwrap();
    bytes.push(b'E');
    bytes
}

fn publish_stream() -> Vec<u8> {
    let mut bytes = hello_bytes(&Hello::ctvc_publish(1, W, H, "fuzzcast"));
    write_frame_msg(&mut bytes, 0, &frames(1)[0]).unwrap();
    bytes.push(b'E');
    bytes
}

#[test]
fn clean_client_transcripts_are_byte_pinned() {
    let pins: [(&str, Vec<u8>, usize, u64); 5] = [
        ("encode stream", encode_stream(), 6194, 3107696409571159590),
        ("decode stream", decode_stream(), 390, 14797211976152682830),
        (
            "encode with retargets",
            retarget_stream(),
            6214,
            1128908527188534097,
        ),
        (
            "governed encode",
            governed_stream(),
            3114,
            10721508603575778454,
        ),
        (
            "publish stream",
            publish_stream(),
            3117,
            12829433500225109512,
        ),
    ];
    for (name, bytes, len, digest) in pins {
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, digest),
            "{name}: wire bytes changed"
        );
    }
}

#[test]
fn join_and_retarget_messages_are_byte_pinned() {
    let mut join = Vec::new();
    write_join_msg(
        &mut join,
        &JoinInfo {
            family: Family::Hybrid,
            width: 640,
            height: 368,
            start_index: 0x0102_0304,
            rate: 28,
            gop: 12,
        },
    )
    .unwrap();
    assert_eq!(
        join,
        [b'J', 1, 28, 0x80, 0x02, 0x70, 0x01, 0x04, 0x03, 0x02, 0x01, 12, 0]
    );

    let mut retarget = Vec::new();
    write_retarget_msg(&mut retarget, &Retarget::target_bpp(0.3, 4).with_restart()).unwrap();
    assert_eq!(retarget, [b'R', 1, 0, 44, 1, 0, 0, 4, 0, 1]);
}

fn raw_connect(server: &nvc_serve::ServerHandle, bytes: &[u8]) -> TcpStream {
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(TIMEOUT)).unwrap();
    raw.write_all(bytes).unwrap();
    raw
}

/// The server's side of the wire: the ack in both its forms and the
/// stats trailer, read off real sockets.
#[test]
fn server_acks_and_trailer_are_byte_pinned() {
    // A decode stream of the pinned transcript: ack, three frames, then
    // the trailer and a clean close.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            ctvc: CtvcConfig::ctvc_fp(8),
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let raw = raw_connect(&server, &decode_stream());
    let mut reader = std::io::BufReader::new(raw);
    let mut ack = [0u8; 3];
    reader.read_exact(&mut ack).unwrap();
    assert_eq!(ack, [proto::MSG_ACK, 1, 0], "plain ack");
    for _ in 0..3 {
        let mut tag = [0u8; 1];
        reader.read_exact(&mut tag).unwrap();
        assert_eq!(tag[0], proto::MSG_FRAME);
        proto::read_frame_body(&mut reader, Some((W, H))).unwrap();
    }
    let mut trailer = Vec::new();
    reader.read_to_end(&mut trailer).unwrap();
    assert_eq!(
        (trailer.len(), fnv1a(&trailer)),
        (55, 16026881041165477557),
        "stats trailer bytes changed"
    );
    server.shutdown();

    // The governed ack: 48x32 at the default assumed 0.5 bpp is 768
    // bits per fixed-rate session, so a 1000-bit budget admits the first
    // at full rate and the second degraded, four QP rungs down.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            hybrid: Profile::hevc_like(),
            workers: 2,
            governor: Some(GovernorConfig::new(1000.0)),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let mut alice = raw_connect(
        &server,
        &hello_bytes(&Hello::hybrid_encode(32, 48, 32).with_client("alice")),
    );
    let mut ack = [0u8; 3];
    alice.read_exact(&mut ack).unwrap();
    assert_eq!(ack, [proto::MSG_ACK, 32, 0], "full-rate governed ack");
    let mut bob = raw_connect(
        &server,
        &hello_bytes(&Hello::hybrid_encode(32, 48, 32).with_client("bob")),
    );
    bob.read_exact(&mut ack).unwrap();
    assert_eq!(
        ack,
        [proto::MSG_ACK, 36, proto::ACK_DEGRADED],
        "degraded ack names the granted rung"
    );
    drop((alice, bob));
    server.shutdown();
}
