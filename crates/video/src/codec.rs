//! The workspace-wide streaming codec abstraction.
//!
//! Every codec in this repository — the learned CTVC-Net and the
//! classical hybrid baseline — speaks the same session protocol:
//!
//! * [`VideoCodec::start_encode`] opens an [`EncoderSession`]; each
//!   [`EncoderSession::push_frame`] consumes one frame and returns one
//!   length-delimited [`Packet`] (frame index, frame type, payload CRC).
//! * [`VideoCodec::start_decode`] opens a [`DecoderSession`]; each
//!   [`DecoderSession::push_packet`] consumes one packet's bytes and
//!   returns the reconstructed frame.
//!
//! A codec's reference need not be pixels (CTVC keeps features), and
//! nothing an encoder writes depends on the pixels of its own
//! reconstruction. So pixels come from one function,
//! [`VideoCodec::reconstruct`], which the decoder runs on every frame
//! and the encoder only when [`EncoderSession::last_reconstruction`]
//! asks for it.
//!
//! The stream-level protocol — where the header rides, when a rate switch
//! is signalled, what a join point is, frame-index continuity, the stats
//! columns — is written once, in [`crate::session`]; a codec implements
//! only the [`VideoCodec`] hooks (its header bits, coding one frame
//! against a reference). The carried state lives in the session structs,
//! so decoding proceeds frame-at-a-time with constant memory — the shape
//! the paper's NVCA hardware decodes in, and the shape a live-traffic
//! serving stack needs. Whole-sequence `encode`/`decode` methods on the
//! concrete codecs are thin wrappers over these sessions (see
//! [`encode_sequence`] / [`decode_bitstream`]), so the two paths are
//! bit-identical by construction.

use crate::rate::{RateMode, RateParam};
use crate::session::{SessionMetrics, StreamDecoder, StreamEncoder};
use crate::{Frame, Sequence, VideoError};
use nvc_entropy::container::{split_packets, Packet, Section};
use nvc_entropy::CodingError;
use std::error::Error;

/// Frame type of a coded frame, as carried in packet headers and
/// [`StreamStats::frame_types`].
pub use nvc_entropy::container::FrameKind as FrameType;

/// Summary statistics returned by [`EncoderSession::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of frames pushed.
    pub frames: usize,
    /// Coded payload bytes per frame (excluding packet/section framing),
    /// matching the accounting of the one-shot `encode` results.
    pub bytes_per_frame: Vec<usize>,
    /// Serialized bits per frame *including* packet framing
    /// (`Packet::encoded_len() × 8`) — the per-frame rate a transport or
    /// a rate controller actually observes. Invariant:
    /// `bits_per_frame.iter().sum::<u64>() == 8 * total_bytes as u64`, so
    /// [`StreamStats::bpp`] stays consistent with the per-frame view.
    pub bits_per_frame: Vec<u64>,
    /// Frame type of every coded frame, aligned with
    /// [`StreamStats::bits_per_frame`] — so rate-control consumers can
    /// see *which* frames (intra anchors vs predicted) absorbed a rate
    /// change.
    pub frame_types: Vec<FrameType>,
    /// Wire rate byte (`RatePoint` index / QP) each frame was coded at,
    /// aligned with [`StreamStats::bits_per_frame`]. Constant in
    /// [`RateMode::Fixed`] streams; in closed-loop modes this is the
    /// controller's per-frame decision trace.
    pub rate_per_frame: Vec<u8>,
    /// Total serialized stream size in bytes, including packet headers.
    pub total_bytes: usize,
}

impl StreamStats {
    /// Appends one coded frame: `payload_bytes` is what the caller
    /// accounts as the frame's payload (see
    /// [`StreamStats::bytes_per_frame`]), `packet_bytes` the serialized
    /// packet size, `rate` the wire rate byte the frame was coded at.
    pub fn record(&mut self, payload_bytes: usize, packet_bytes: usize, kind: FrameType, rate: u8) {
        self.frames += 1;
        self.bytes_per_frame.push(payload_bytes);
        self.bits_per_frame.push(packet_bytes as u64 * 8);
        self.frame_types.push(kind);
        self.rate_per_frame.push(rate);
        self.total_bytes += packet_bytes;
    }

    /// Bits per pixel over `frames` frames of `pixels_per_frame` pixels.
    pub fn bpp(&self, pixels_per_frame: usize) -> f64 {
        if self.frames == 0 || pixels_per_frame == 0 {
            return 0.0;
        }
        self.total_bytes as f64 * 8.0 / (pixels_per_frame * self.frames) as f64
    }

    /// Per-frame bits per pixel from the recorded bit counts (empty when
    /// `pixels_per_frame` is 0). Averaging this vector reproduces
    /// [`StreamStats::bpp`] exactly.
    pub fn frame_bpp(&self, pixels_per_frame: usize) -> Vec<f64> {
        if pixels_per_frame == 0 {
            return Vec::new();
        }
        self.bits_per_frame
            .iter()
            .map(|&bits| bits as f64 / pixels_per_frame as f64)
            .collect()
    }
}

/// An in-progress encode: push frames, pull packets.
pub trait EncoderSession {
    /// Error type of the owning codec.
    type Error: Error;

    /// Rate-control parameter of the owning codec (`RatePoint` / QP).
    type Rate: RateParam;

    /// Encodes one frame and returns its packet. The first pushed frame
    /// fixes the stream's resolution and is coded intra; subsequent
    /// frames are predicted from the carried reconstruction state.
    ///
    /// # Errors
    ///
    /// Returns the codec's error on invalid frames (e.g. a resolution
    /// change mid-stream).
    fn push_frame(&mut self, frame: &Frame) -> Result<Packet, Self::Error>;

    /// Decoder-identical reconstruction of the most recently pushed
    /// frame (the encoder runs its loop closed); `None` before the first
    /// frame.
    ///
    /// The encoder renders pixels only when asked: the first call after
    /// a [`push_frame`](Self::push_frame) runs
    /// [`VideoCodec::reconstruct`] on the carried reference, and later
    /// calls return the same frame. A session that is never asked never
    /// renders.
    ///
    /// # Errors
    ///
    /// Returns the codec's error if rendering the reference fails.
    fn last_reconstruction(&self) -> Result<Option<&Frame>, Self::Error>;

    /// Number of frames pushed so far.
    fn frames_pushed(&self) -> usize;

    /// Forces the next pushed frame to restart the prediction chain
    /// with an intra frame (stream-join / error-recovery point, and the
    /// natural anchor for a rate switch).
    fn restart_gop(&mut self);

    /// Switches the session into *joinable-stream* mode (or back out of
    /// it): when enabled, every intra packet carries the full stream
    /// header — not just frame 0 — so a decoder can join the stream at
    /// any intra boundary ([`DecoderSession::push_packet`] accepts a
    /// header-carrying intra as its first packet at any frame index).
    /// The broadcast relay publishes streams in this mode so late
    /// subscribers can start at the most recent intra segment. Off by
    /// default, keeping plain streams byte-identical to the legacy
    /// layout.
    fn set_join_headers(&mut self, enabled: bool);

    /// Wire rate byte (`RatePoint` index / QP) the most recently pushed
    /// frame was coded at — `None` before the first frame. Mirrors
    /// [`DecoderSession::last_rate`]; the serving layer uses it to
    /// record truthful per-packet rate columns without parsing codec
    /// payloads.
    fn last_rate(&self) -> Option<u8>;

    /// Replaces the session's rate control from the next frame on — the
    /// in-process form of the wire's `'R'` retarget. Mid-GOP switches
    /// are legal: the chosen rate rides in each packet, so the decoder
    /// follows without an intra refresh.
    fn set_rate_mode(&mut self, mode: RateMode<Self::Rate>);

    /// Ends the stream and returns its statistics.
    ///
    /// # Errors
    ///
    /// Returns the codec's error if the stream cannot be finalized.
    fn finish(self) -> Result<StreamStats, Self::Error>;
}

/// An in-progress decode: push packets, pull frames.
pub trait DecoderSession {
    /// Error type of the owning codec.
    type Error: Error;

    /// Decodes exactly one packet (as produced by
    /// [`EncoderSession::push_frame`], serialized) and returns the
    /// reconstructed frame.
    ///
    /// Malformed input — truncated packets, CRC mismatches, out-of-order
    /// frame indices, payloads that fail entropy decoding — yields an
    /// `Err`; this method never panics on untrusted bytes.
    ///
    /// # Errors
    ///
    /// Returns the codec's error on any malformed or out-of-sequence
    /// packet.
    fn push_packet(&mut self, packet: &[u8]) -> Result<Frame, Self::Error>;

    /// Number of frames decoded so far.
    fn frames_decoded(&self) -> usize;

    /// Wire rate byte (`RatePoint` index / QP) governing the most
    /// recently decoded frame, once the stream header (or a per-frame
    /// rate update) has been seen. `None` before the first packet.
    fn last_rate(&self) -> Option<u8>;
}

/// A packet's parsed section list, as produced by
/// `nvc_entropy::container::read_sections`.
pub type SectionList = [(Section, Vec<u8>)];

/// One frame as a codec coded it: what [`VideoCodec::encode_frame`]
/// hands back to the session. It carries no pixels: the session renders
/// the reference through [`VideoCodec::reconstruct`] only if asked.
#[derive(Debug)]
pub struct CodedFrame<R> {
    /// The frame's coded sections, in wire order. The session places
    /// them behind any stream header or rate switch.
    pub sections: Vec<(Section, Vec<u8>)>,
    /// Prediction state the next frame is coded against, identical to
    /// what the decoder holds after decoding the frame.
    pub reference: R,
}

/// A video codec with streaming encode/decode sessions.
///
/// Implementors: `nvc_model::CtvcCodec` (learned, rate selected by a
/// `RatePoint`) and `nvc_baseline::HybridCodec` (classical, rate selected
/// by a QP). Code generic over this trait works identically with both —
/// see [`encode_sequence`] and [`decode_bitstream`].
///
/// A codec supplies only what is its own: the bits of its stream header,
/// how one frame is coded against a reference and how a reference is
/// rendered to pixels. Everything about the *stream* — header placement,
/// in-band rate switches, join points, frame-index continuity,
/// statistics — is [`StreamEncoder`] / [`StreamDecoder`], shared by
/// every implementor.
pub trait VideoCodec: Sized {
    /// Codec error type. The `From` conversions let stream-level framing
    /// and frame errors surface through the codec's own error.
    type Error: Error + From<CodingError> + From<VideoError>;
    /// Rate-control parameter for an encode session, pluggable into the
    /// generic controllers through the [`RateParam`] ladder.
    type Rate: RateParam;
    /// Prediction state carried from one frame to the next (the previous
    /// reconstruction, in whatever domain the codec predicts in).
    type Reference;

    /// Human-readable codec name for reports.
    fn codec_name(&self) -> &str;

    /// Opens an encoder session under the given rate-control mode —
    /// [`RateMode::Fixed`] for the classic static rate (a plain rate
    /// converts via `Into`), [`RateMode::TargetBpp`] for the built-in
    /// closed loop, or an external controller.
    ///
    /// # Errors
    ///
    /// Returns the codec's error for invalid rate parameters.
    fn start_encode(
        &self,
        mode: RateMode<Self::Rate>,
    ) -> Result<StreamEncoder<'_, Self>, Self::Error>;

    /// Opens a decoder session.
    fn start_decode(&self) -> StreamDecoder<'_, Self>;

    /// The per-frame histograms this codec family's sessions record
    /// into.
    fn metrics(&self) -> &'static SessionMetrics;

    /// The codec's error for semantically invalid input — how the
    /// session reports stream-level violations.
    fn bad_input(reason: String) -> Self::Error;

    /// Whether the codec can code `w × h` frames.
    ///
    /// # Errors
    ///
    /// Returns the codec's error for unsupported geometry.
    fn check_dims(&self, w: usize, h: usize) -> Result<(), Self::Error>;

    /// Serializes the codec's stream header for a `w × h` stream whose
    /// carrying frame is coded at `rate`.
    fn write_header(&self, w: usize, h: usize, rate: Self::Rate) -> Vec<u8>;

    /// Parses a stream header back into `(w, h, rate)`.
    ///
    /// # Errors
    ///
    /// Returns the codec's error on a truncated header or one written
    /// by an incompatibly configured encoder.
    fn parse_header(&self, payload: &[u8]) -> Result<(usize, usize, Self::Rate), Self::Error>;

    /// Codes one frame at `rate` — intra when `reference` is `None`,
    /// predicted from it otherwise.
    ///
    /// # Errors
    ///
    /// Returns the codec's error if the frame cannot be coded.
    fn encode_frame(
        &self,
        frame: &Frame,
        reference: Option<&Self::Reference>,
        rate: Self::Rate,
    ) -> Result<CodedFrame<Self::Reference>, Self::Error>;

    /// Decodes one frame of a `dims.0 × dims.1` stream from the sections
    /// [`VideoCodec::encode_frame`] produced, returning the new
    /// reference; the session renders it with
    /// [`VideoCodec::reconstruct`]. Must never panic on untrusted
    /// sections.
    ///
    /// # Errors
    ///
    /// Returns the codec's error on sections that do not match `kind`,
    /// a predicted frame without a reference, or undecodable payloads.
    fn decode_frame(
        &self,
        kind: FrameType,
        sections: &SectionList,
        reference: Option<&Self::Reference>,
        dims: (usize, usize),
        rate: Self::Rate,
    ) -> Result<Self::Reference, Self::Error>;

    /// Renders a reference to the pixel frame it stands for: the one
    /// pixel path of both sessions, so the encoder's reconstruction and
    /// the decoder's frame are the same function of the same reference.
    ///
    /// # Errors
    ///
    /// Returns the codec's error if the reference cannot be rendered.
    fn reconstruct(&self, reference: &Self::Reference) -> Result<Frame, Self::Error>;
}

/// Result of a generic whole-sequence encode over sessions.
#[derive(Debug, Clone)]
pub struct EncodedStream {
    /// One packet per frame, in order.
    pub packets: Vec<Packet>,
    /// Decoder-identical reconstruction.
    pub decoded: Sequence,
    /// Stream statistics.
    pub stats: StreamStats,
}

impl EncodedStream {
    /// Serializes all packets into one contiguous bitstream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stats.total_bytes);
        for p in &self.packets {
            out.extend_from_slice(&p.to_bytes());
        }
        out
    }
}

/// Encodes a whole sequence at one fixed rate — the shared body of
/// every one-shot `encode` wrapper. Equivalent to
/// [`encode_sequence_with`] under [`RateMode::Fixed`].
///
/// # Errors
///
/// Propagates the codec's error from any frame.
pub fn encode_sequence<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    rate: C::Rate,
) -> Result<EncodedStream, C::Error> {
    encode_sequence_with(codec, seq, RateMode::Fixed(rate))
}

/// Encodes a whole sequence through a fresh [`EncoderSession`] under an
/// arbitrary rate-control mode.
///
/// # Errors
///
/// Propagates the codec's error from any frame.
pub fn encode_sequence_with<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    mode: RateMode<C::Rate>,
) -> Result<EncodedStream, C::Error> {
    let mut enc = codec.start_encode(mode)?;
    let mut packets = Vec::with_capacity(seq.frames().len());
    let mut decoded = Vec::with_capacity(seq.frames().len());
    for frame in seq.frames() {
        let packet = enc.push_frame(frame)?;
        decoded.push(
            enc.last_reconstruction()?
                .expect("push_frame succeeded, reconstruction available")
                .clone(),
        );
        packets.push(packet);
    }
    let stats = enc.finish()?;
    let decoded = Sequence::new(codec.codec_name(), decoded, seq.fps())
        .map_err(|e| bad_stream::<C>(format!("reconstruction: {e}")))?;
    Ok(EncodedStream {
        packets,
        decoded,
        stats,
    })
}

/// Decodes a packetized bitstream through a fresh [`DecoderSession`] —
/// the shared body of every one-shot `decode` wrapper.
///
/// # Errors
///
/// Returns the codec's error on an empty, truncated or corrupted stream.
pub fn decode_bitstream<C: VideoCodec>(codec: &C, bitstream: &[u8]) -> Result<Sequence, C::Error> {
    let chunks = split_packets(bitstream)?;
    if chunks.is_empty() {
        return Err(bad_stream::<C>("empty bitstream".into()));
    }
    let mut dec = codec.start_decode();
    let mut frames = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        frames.push(dec.push_packet(chunk)?);
    }
    Sequence::new(format!("{}-decoded", codec.codec_name()), frames, 30.0)
        .map_err(|e| bad_stream::<C>(format!("decoded sequence: {e}")))
}

fn bad_stream<C: VideoCodec>(reason: String) -> C::Error {
    C::Error::from(CodingError::BadContainer { reason })
}

/// Round-trips `seq` through streaming encode + streaming decode and
/// checks the decode against the encoder's closed-loop reconstruction.
/// Returns the maximum absolute reconstruction mismatch (0.0 for a
/// bit-exact codec) together with the stream.
///
/// # Errors
///
/// Propagates codec errors from either direction.
pub fn stream_roundtrip<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    rate: C::Rate,
) -> Result<(EncodedStream, f64), C::Error> {
    stream_roundtrip_with(codec, seq, RateMode::Fixed(rate))
}

/// [`stream_roundtrip`] under an arbitrary rate-control mode.
///
/// # Errors
///
/// Propagates codec errors from either direction.
pub fn stream_roundtrip_with<C: VideoCodec>(
    codec: &C,
    seq: &Sequence,
    mode: RateMode<C::Rate>,
) -> Result<(EncodedStream, f64), C::Error> {
    let coded = encode_sequence_with(codec, seq, mode)?;
    let mut dec = codec.start_decode();
    let mut worst = 0.0f64;
    for (packet, reference) in coded.packets.iter().zip(coded.decoded.frames()) {
        let frame = dec.push_packet(&packet.to_bytes())?;
        let drift = frame
            .tensor()
            .sub(reference.tensor())
            .map_err(|e| bad_stream::<C>(format!("mismatched frame: {e}")))?
            .max_abs() as f64;
        worst = worst.max(drift);
    }
    Ok((coded, worst))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_stats_per_frame_bits_agree_with_bpp() {
        let stats = StreamStats {
            frames: 2,
            bytes_per_frame: vec![87, 13],
            bits_per_frame: vec![(87 + 13) * 8, (13 + 13) * 8],
            frame_types: vec![FrameType::Intra, FrameType::Predicted],
            rate_per_frame: vec![1, 1],
            total_bytes: 87 + 13 + 13 + 13,
        };
        assert_eq!(
            stats.bits_per_frame.iter().sum::<u64>(),
            8 * stats.total_bytes as u64
        );
        let per_frame = stats.frame_bpp(100);
        assert_eq!(per_frame.len(), 2);
        let mean = per_frame.iter().sum::<f64>() / stats.frames as f64;
        assert!((mean - stats.bpp(100)).abs() < 1e-12);
        assert!(stats.frame_bpp(0).is_empty());
        assert_eq!(stats.bpp(0), 0.0);
    }
}
