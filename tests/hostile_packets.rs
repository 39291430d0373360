//! Hostile packets through the one stream decoder
//! ([`StreamDecoder`]), written once over [`VideoCodec`] and run for
//! both codec families: truncated, flipped, dropped, duplicated,
//! reordered and re-framed packets are an `Err` or a frame — never a
//! panic — and an `Err` leaves the session exactly as it was. Hostile
//! whole bitstreams (empty, garbage, truncated) through
//! [`decode_bitstream`] are an `Err`.

use nvc_baseline::{HybridCodec, Profile};
use nvc_entropy::container::{read_sections, FrameKind, Packet, Section, SectionWriter};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::codec::{decode_bitstream, DecoderSession, EncoderSession, VideoCodec};
use nvc_video::rate::{RateMode, RateRequest};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::{RateParam, StreamDecoder, StreamEncoder};

const W: usize = 32;
const H: usize = 32;
/// Frame whose packet carries the mid-GOP [`Section::Rate`] switch.
const SWITCH: usize = 2;
/// Frame coded as a header-carrying mid-stream intra (a join point).
const JOIN: usize = 3;

type Sections = Vec<(Section, Vec<u8>)>;

/// `packet` with its section list rewritten by `edit` and its frame
/// index and kind replaced — a well-formed container (valid CRC) around
/// hostile contents.
fn reframe(
    packet: &Packet,
    frame_index: u32,
    kind: FrameKind,
    edit: impl FnOnce(&mut Sections),
) -> Vec<u8> {
    let mut sections = read_sections(&packet.payload).unwrap();
    edit(&mut sections);
    let mut writer = SectionWriter::new();
    for (section, payload) in sections {
        writer.push(section, payload);
    }
    Packet::new(frame_index, kind, writer.finish()).to_bytes()
}

fn hostile_packets<C: VideoCodec>(codec: &C, rates: [C::Rate; 2]) {
    let name = codec.codec_name().to_string();
    let seq = Synthesizer::new(SceneConfig::uvg_like(W, H, 6)).generate();
    // A joinable six-frame stream: header-carrying intras at 0 and
    // `JOIN`, a mid-GOP rate switch at `SWITCH`.
    let mode = RateMode::per_frame(move |req: &RateRequest| {
        rates[usize::from(req.frame_index as usize >= SWITCH)]
    });
    let mut enc = StreamEncoder::new(codec, mode);
    enc.set_join_headers(true);
    let packets: Vec<Packet> = seq
        .frames()
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            if i == JOIN {
                enc.restart_gop();
            }
            enc.push_frame(frame).unwrap()
        })
        .collect();
    let bytes: Vec<Vec<u8>> = packets.iter().map(Packet::to_bytes).collect();
    let leads_with = |i: usize| read_sections(&packets[i].payload).unwrap()[0].0;
    assert_eq!(leads_with(0), Section::SideInfo);
    assert_eq!(leads_with(SWITCH), Section::Rate);
    assert_eq!(leads_with(JOIN), Section::SideInfo);
    assert_eq!(packets[JOIN].kind, FrameKind::Intra);

    // Whole bitstreams: the stream decodes, and empty input, garbage and
    // the stream short of its last byte are each an `Err`.
    let stream = bytes.concat();
    assert_eq!(
        decode_bitstream(codec, &stream).unwrap().frames().len(),
        6,
        "{name}: whole stream"
    );
    for (what, hostile) in [
        ("empty bitstream", &[][..]),
        ("garbage bitstream", &[1, 2, 3][..]),
        ("truncated bitstream", &stream[..stream.len() - 1]),
    ] {
        assert!(decode_bitstream(codec, hostile).is_err(), "{name}: {what}");
    }

    // Every truncation of the first intra packet fails to open a stream…
    let mut dec = StreamDecoder::new(codec);
    for cut in 0..bytes[0].len() {
        assert!(
            dec.push_packet(&bytes[0][..cut]).is_err(),
            "{name}: intra cut {cut}"
        );
    }
    // …and after all those errors the fresh session still opens. Every
    // truncation of the first P packet then fails without disturbing
    // the open stream, which goes on to decode to the end.
    dec.push_packet(&bytes[0]).unwrap();
    for cut in 0..bytes[1].len() {
        assert!(
            dec.push_packet(&bytes[1][..cut]).is_err(),
            "{name}: P cut {cut}"
        );
    }
    assert!(
        dec.push_packet(&bytes[2]).is_err(),
        "{name}: dropped packet"
    );
    dec.push_packet(&bytes[1]).unwrap();
    assert!(
        dec.push_packet(&bytes[1]).is_err(),
        "{name}: duplicated packet"
    );
    assert!(
        dec.push_packet(&bytes[0]).is_err(),
        "{name}: replayed stream start"
    );
    let padded = [bytes[SWITCH].as_slice(), &[0]].concat();
    assert!(
        dec.push_packet(&padded).is_err(),
        "{name}: trailing byte after a whole packet"
    );

    // A rate section must carry exactly one byte.
    for hostile in [Vec::new(), vec![rates[1].to_wire(); 2]] {
        let len = hostile.len();
        let crafted = reframe(&packets[SWITCH], SWITCH as u32, FrameKind::Predicted, |s| {
            s[0].1 = hostile;
        });
        assert!(
            dec.push_packet(&crafted).is_err(),
            "{name}: {len}-byte rate section"
        );
    }
    dec.push_packet(&bytes[SWITCH]).unwrap();
    assert_eq!(dec.last_rate(), Some(rates[1].to_wire()));

    // A mid-stream header must agree with the open stream's geometry.
    let crafted = reframe(&packets[JOIN], JOIN as u32, FrameKind::Intra, |s| {
        s[0].1 = codec.write_header(W + 16, H, rates[1]);
    });
    assert!(
        dec.push_packet(&crafted).is_err(),
        "{name}: mid-stream geometry change"
    );
    // An intra packet carrying a predicted frame's sections.
    let p_sections = read_sections(&packets[JOIN + 1].payload).unwrap();
    let intra_with_p_sections = reframe(&packets[JOIN], JOIN as u32, FrameKind::Intra, |s| {
        s.truncate(1);
        s.extend(p_sections);
    });
    assert!(
        dec.push_packet(&intra_with_p_sections).is_err(),
        "{name}: P sections in intra"
    );
    for packet in &bytes[JOIN..] {
        dec.push_packet(packet).unwrap();
    }
    assert_eq!(dec.frames_decoded(), 6);

    // Every single-bit flip in the first 32 bytes of the first intra
    // and the first P packet: `Err` or a frame, never a panic. An `Err`
    // changes nothing, so the open session is replaced only after a
    // flipped P packet decoded.
    let open = || {
        let mut dec = StreamDecoder::new(codec);
        dec.push_packet(&bytes[0]).unwrap();
        dec
    };
    let mut dec = open();
    for byte in 0..32 {
        for bit in 0..8 {
            let mut flipped = bytes[0].clone();
            flipped[byte] ^= 1 << bit;
            let _ = StreamDecoder::new(codec).push_packet(&flipped);
            let mut flipped = bytes[1].clone();
            flipped[byte] ^= 1 << bit;
            if dec.push_packet(&flipped).is_ok() {
                dec = open();
            }
        }
    }

    // A stream cannot open on a predicted packet, nor on an intra that
    // carries no header…
    let mut dec = StreamDecoder::new(codec);
    assert!(
        dec.push_packet(&bytes[1]).is_err(),
        "{name}: P before any intra"
    );
    let headerless = reframe(&packets[JOIN], JOIN as u32, FrameKind::Intra, |s| {
        s.remove(0);
    });
    assert!(
        dec.push_packet(&headerless).is_err(),
        "{name}: non-header first packet"
    );
    // …nor on a valid header followed by the wrong sections — and none
    // of those errors keeps the session from opening at the next
    // header-carrying intra, wherever in the stream that is.
    assert!(dec.push_packet(&intra_with_p_sections).is_err());
    assert_eq!(dec.frames_decoded(), 0);
    assert_eq!(dec.last_rate(), None);
    for packet in &bytes[JOIN..] {
        dec.push_packet(packet).unwrap();
    }
    assert_eq!(dec.frames_decoded(), 3);

    // Swapped sections inside a P packet (a no-op for single-section
    // codecs) and a stream opening at the last representable frame
    // index must not panic either.
    let mut dec = StreamDecoder::new(codec);
    dec.push_packet(&bytes[0]).unwrap();
    let _ = dec.push_packet(&reframe(&packets[1], 1, FrameKind::Predicted, |s| {
        s.reverse()
    }));
    let mut dec = StreamDecoder::new(codec);
    dec.push_packet(&reframe(&packets[0], u32::MAX, FrameKind::Intra, |_| {}))
        .unwrap();
    assert!(
        dec.push_packet(&bytes[2]).is_err(),
        "{name}: index after u32::MAX is 0"
    );
}

#[test]
fn ctvc_decoder_survives_hostile_packets() {
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
    hostile_packets(&codec, [RatePoint::new(1), RatePoint::new(2)]);
}

#[test]
fn hybrid_decoder_survives_hostile_packets() {
    hostile_packets(&HybridCodec::new(Profile::hevc_like()), [24u8, 30u8]);
}
