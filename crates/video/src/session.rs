//! The stream session, written once: every [`VideoCodec`] encodes and
//! decodes through the one state machine in this file.
//!
//! What this file owns is the *bitstream format above a single frame*:
//!
//! * the stream header rides in the first packet — and, in
//!   joinable-stream mode, in every intra packet;
//! * a [`Section::Rate`] is signalled only when the rate changes, so
//!   fixed-rate streams stay byte-identical to the legacy layout;
//! * a decoder opens on any header-carrying packet, which also seeds the
//!   frame-index sequence it then holds the stream to;
//! * the per-frame statistics columns and histograms.
//!
//! What a codec owns — its header bits and coding one frame against a
//! reference — it supplies through the [`VideoCodec`] hooks.
//!
//! [`StreamDecoder::push_packet`] runs on untrusted bytes: non-test code
//! in this file contains no panic-family call, and `nvc-lint` holds it
//! to that.

use crate::codec::{DecoderSession, EncoderSession, SectionList, StreamStats, VideoCodec};
use crate::rate::{RateMode, RateOutcome, RateParam, SessionRateControl};
use crate::Frame;
use nvc_entropy::container::{read_sections, FrameKind, Packet, Section, SectionWriter};
use nvc_telemetry::Histogram;
use std::cell::OnceCell;

/// Per-frame instrumentation shared by every session of one codec
/// family: encode/decode wall time and coded bits per frame. Purely
/// observational — nothing here feeds back into coding decisions, so
/// bitstreams are byte-identical with telemetry in any mode.
#[derive(Debug)]
pub struct SessionMetrics {
    encode_frame_us: Histogram,
    decode_frame_us: Histogram,
    frame_bits: Histogram,
}

impl SessionMetrics {
    /// Registers `{prefix}_encode_frame_us`, `{prefix}_decode_frame_us`
    /// and `{prefix}_frame_bits` on the process-global registry.
    pub fn new(prefix: &str) -> Self {
        SessionMetrics {
            encode_frame_us: nvc_telemetry::histogram(&format!("{prefix}_encode_frame_us")),
            decode_frame_us: nvc_telemetry::histogram(&format!("{prefix}_decode_frame_us")),
            frame_bits: nvc_telemetry::histogram(&format!("{prefix}_frame_bits")),
        }
    }
}

/// Streaming encoder session of any [`VideoCodec`].
///
/// Carries the closed-loop reference, the stream geometry, the GOP
/// position and the rate-control state across frames. Pixels are
/// rendered from the reference only when
/// [`last_reconstruction`](EncoderSession::last_reconstruction) asks.
pub struct StreamEncoder<'a, C: VideoCodec> {
    codec: &'a C,
    control: SessionRateControl<C::Rate>,
    /// The rate the decoder currently assumes (stream header, then any
    /// in-band [`Section::Rate`] updates). `None` before the first frame.
    wire_rate: Option<C::Rate>,
    join_headers: bool,
    dims: Option<(usize, usize)>,
    /// The last pushed frame's reference; `None` before the first frame.
    reference: Option<C::Reference>,
    /// Set by [`restart_gop`](EncoderSession::restart_gop): the next
    /// frame is coded intra, whatever `reference` holds.
    restart: bool,
    gop_position: u32,
    /// `reference` rendered to pixels, filled on first request.
    last_recon: OnceCell<Frame>,
    stats: StreamStats,
}

impl<'a, C: VideoCodec> StreamEncoder<'a, C> {
    /// Opens a session. The first pushed frame fixes the stream
    /// resolution and is coded intra.
    pub fn new(codec: &'a C, mode: RateMode<C::Rate>) -> Self {
        StreamEncoder {
            codec,
            control: SessionRateControl::new(mode),
            wire_rate: None,
            join_headers: false,
            dims: None,
            reference: None,
            restart: false,
            gop_position: 0,
            last_recon: OnceCell::new(),
            stats: StreamStats::default(),
        }
    }

    /// Predicted frames coded since the last intra frame or
    /// [`restart_gop`](EncoderSession::restart_gop).
    pub fn gop_position(&self) -> u32 {
        self.gop_position
    }
}

impl<C: VideoCodec> EncoderSession for StreamEncoder<'_, C> {
    type Error = C::Error;
    type Rate = C::Rate;

    fn push_frame(&mut self, frame: &Frame) -> Result<Packet, C::Error> {
        let metrics = self.codec.metrics();
        let _span = metrics.encode_frame_us.time();
        let (w, h) = (frame.width(), frame.height());
        match self.dims {
            None => {
                self.codec.check_dims(w, h)?;
                self.dims = Some((w, h));
            }
            Some(dims) if dims != (w, h) => {
                return Err(C::bad_input(format!(
                    "frame {w}x{h} does not match stream {}x{}",
                    dims.0, dims.1
                )));
            }
            Some(_) => {}
        }
        let index = self.stats.frames as u32;
        let predict_from = self.reference.as_ref().filter(|_| !self.restart);
        let intra = predict_from.is_none();
        let rate = self.control.pick(u64::from(index), intra, w * h);
        let mut sections = SectionWriter::new();
        if index == 0 || (self.join_headers && intra) {
            // The header carries the frame's own rate, so no separate
            // rate section is needed.
            sections.push(Section::SideInfo, self.codec.write_header(w, h, rate));
        } else if self.wire_rate != Some(rate) {
            // Legal mid-GOP: the reference chain is untouched.
            sections.push(Section::Rate, vec![rate.to_wire()]);
        }
        let coded = self.codec.encode_frame(frame, predict_from, rate)?;
        let mut coded_bytes = 0;
        for (section, payload) in coded.sections {
            coded_bytes += payload.len();
            sections.push(section, payload);
        }
        let kind = if intra {
            self.gop_position = 0;
            FrameKind::Intra
        } else {
            self.gop_position += 1;
            FrameKind::Predicted
        };
        self.wire_rate = Some(rate);
        self.reference = Some(coded.reference);
        self.restart = false;
        self.last_recon = OnceCell::new();
        let packet = Packet::new(index, kind, sections.finish());
        let bits = packet.encoded_len() as u64 * 8;
        metrics.frame_bits.record(bits);
        self.stats
            .record(coded_bytes, packet.encoded_len(), kind, rate.to_wire());
        self.control.observe(RateOutcome {
            frame_index: u64::from(index),
            intra,
            pixels: w * h,
            bits,
            wire_rate: rate.to_wire(),
        });
        Ok(packet)
    }

    fn last_reconstruction(&self) -> Result<Option<&Frame>, C::Error> {
        let Some(reference) = &self.reference else {
            return Ok(None);
        };
        if let Some(frame) = self.last_recon.get() {
            return Ok(Some(frame));
        }
        let frame = self.codec.reconstruct(reference)?;
        Ok(Some(self.last_recon.get_or_init(|| frame)))
    }

    fn frames_pushed(&self) -> usize {
        self.stats.frames
    }

    fn restart_gop(&mut self) {
        self.restart = true;
        self.gop_position = 0;
    }

    fn set_join_headers(&mut self, enabled: bool) {
        self.join_headers = enabled;
    }

    fn last_rate(&self) -> Option<u8> {
        self.wire_rate.map(RateParam::to_wire)
    }

    fn set_rate_mode(&mut self, mode: RateMode<C::Rate>) {
        self.control.retarget(mode);
    }

    fn finish(self) -> Result<StreamStats, C::Error> {
        Ok(self.stats)
    }
}

/// Geometry, *current* rate and next expected frame index of an open
/// decode stream: seeded by the stream header, the rate then follows any
/// in-band [`Section::Rate`] switches.
#[derive(Clone, Copy)]
struct OpenStream<R> {
    dims: (usize, usize),
    rate: R,
    next_index: u32,
}

/// Streaming decoder session of any [`VideoCodec`]. Stream geometry and
/// rate are read from the first packet's embedded header.
pub struct StreamDecoder<'a, C: VideoCodec> {
    codec: &'a C,
    stream: Option<OpenStream<C::Rate>>,
    reference: Option<C::Reference>,
    decoded: usize,
}

impl<'a, C: VideoCodec> StreamDecoder<'a, C> {
    /// Opens a session.
    pub fn new(codec: &'a C) -> Self {
        StreamDecoder {
            codec,
            stream: None,
            reference: None,
            decoded: 0,
        }
    }

    /// Parses and validates a stream-header section carried by the
    /// packet for frame `next_index`.
    fn read_header(
        &self,
        payload: &[u8],
        next_index: u32,
    ) -> Result<OpenStream<C::Rate>, C::Error> {
        let (w, h, rate) = self.codec.parse_header(payload)?;
        self.codec.check_dims(w, h)?;
        Ok(OpenStream {
            dims: (w, h),
            rate,
            next_index,
        })
    }
}

/// Splits a leading in-band rate switch ([`Section::Rate`], one byte)
/// off a packet's section list.
fn take_rate_section<C: VideoCodec>(
    sections: &SectionList,
) -> Result<(Option<C::Rate>, &SectionList), C::Error> {
    match sections.split_first() {
        Some(((Section::Rate, payload), tail)) => match payload.as_slice() {
            [byte] => Ok((Some(C::Rate::from_wire(*byte).map_err(C::bad_input)?), tail)),
            other => Err(C::bad_input(format!(
                "rate section must carry exactly one byte, got {}",
                other.len()
            ))),
        },
        _ => Ok((None, sections)),
    }
}

impl<C: VideoCodec> DecoderSession for StreamDecoder<'_, C> {
    type Error = C::Error;

    /// An `Err` leaves the session exactly as it was, so a fresh session
    /// can still open on the next valid header-carrying packet.
    fn push_packet(&mut self, bytes: &[u8]) -> Result<Frame, C::Error> {
        let _span = self.codec.metrics().decode_frame_us.time();
        let (packet, consumed) = Packet::from_bytes(bytes)?;
        if consumed != bytes.len() {
            return Err(C::bad_input(format!(
                "{} trailing bytes after packet",
                bytes.len() - consumed
            )));
        }
        if let Some(open) = &self.stream {
            if packet.frame_index != open.next_index {
                return Err(C::bad_input(format!(
                    "expected frame {}, got packet for frame {}",
                    open.next_index, packet.frame_index
                )));
            }
        }
        let sections = read_sections(&packet.payload)?;
        let (open, rest) = match (&self.stream, sections.split_first()) {
            // Stream join: the first pushed packet — frame 0 of a plain
            // stream or, for joinable streams, any header-carrying
            // intra — must lead with the stream header, which also
            // seeds the frame-index sequence.
            (None, Some(((Section::SideInfo, header), rest))) => {
                (self.read_header(header, packet.frame_index)?, rest)
            }
            (None, _) => return Err(C::bad_input("missing stream header".into())),
            // Joinable streams re-send the header on every intra; it
            // must agree with the open stream and carries the frame's
            // rate (no separate rate section).
            (Some(open), Some(((Section::SideInfo, header), rest)))
                if packet.kind == FrameKind::Intra =>
            {
                let header = self.read_header(header, packet.frame_index)?;
                if header.dims != open.dims {
                    return Err(C::bad_input(format!(
                        "mid-stream header {}x{} does not match open stream {}x{}",
                        header.dims.0, header.dims.1, open.dims.0, open.dims.1
                    )));
                }
                (header, rest)
            }
            // An in-band rate switch may lead the packet's sections.
            (Some(open), _) => {
                let (switch, rest) = take_rate_section::<C>(&sections)?;
                let rate = switch.unwrap_or(open.rate);
                (OpenStream { rate, ..*open }, rest)
            }
        };
        let reference = self.codec.decode_frame(
            packet.kind,
            rest,
            self.reference.as_ref(),
            open.dims,
            open.rate,
        )?;
        let frame = self.codec.reconstruct(&reference)?;
        self.reference = Some(reference);
        self.stream = Some(OpenStream {
            next_index: open.next_index.wrapping_add(1),
            ..open
        });
        self.decoded += 1;
        Ok(frame)
    }

    fn frames_decoded(&self) -> usize {
        self.decoded
    }

    fn last_rate(&self) -> Option<u8> {
        self.stream.as_ref().map(|open| open.rate.to_wire())
    }
}
