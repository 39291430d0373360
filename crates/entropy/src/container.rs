//! Sectioned bitstream container and length-delimited frame packets.
//!
//! Two framing layers live here:
//!
//! * **Sections** — a coded frame in the NVC pipeline carries several
//!   independent streams (quantized motion latents, quantized residual
//!   latents, side information). The container frames them as
//!   `[tag: u8][len: u32 LE][payload]` sections so the decoder can route
//!   each stream to its synthesis module, mirroring how the paper's DMA
//!   controller distributes "Sparse Index / Intermediate data / Weight"
//!   regions.
//! * **Packets** — one [`Packet`] per coded frame wraps the frame's
//!   sections with a small header (`[len: u32 LE][frame_index: u32 LE]
//!   [frame_kind: u8][crc32: u32 LE]`) so bitstreams can be *streamed*:
//!   packets are length-delimited (a decoder can pull one frame at a time
//!   off a byte stream), truncation is always detected, and payload
//!   corruption is caught by the CRC before any entropy decoding runs.
//!
//! # Example
//!
//! ```
//! use nvc_entropy::container::{Section, SectionWriter, read_sections};
//! # fn main() -> Result<(), nvc_entropy::CodingError> {
//! let mut w = SectionWriter::new();
//! w.push(Section::Motion, vec![1, 2, 3]);
//! w.push(Section::Residual, vec![4]);
//! let bytes = w.finish();
//! let sections = read_sections(&bytes)?;
//! assert_eq!(sections.len(), 2);
//! assert_eq!(sections[0].0, Section::Motion);
//! assert_eq!(sections[1].1, vec![4]);
//! # Ok(())
//! # }
//! ```

use crate::CodingError;
use std::io::Read;

/// Section tags used by the codecs in this repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Section {
    /// Quantized motion latents.
    Motion,
    /// Quantized residual latents.
    Residual,
    /// Side information (entropy-model parameters, dynamic ranges).
    SideInfo,
    /// Intra-coded (keyframe) payload.
    Intra,
    /// In-band rate switch: a one-byte rate index (`RatePoint` index or
    /// QP) that replaces the stream's current rate from this frame on.
    /// Emitted only when the rate actually changes, so fixed-rate
    /// bitstreams carry no trace of it (byte-identical to streams coded
    /// before the section existed).
    Rate,
}

impl Section {
    fn tag(self) -> u8 {
        match self {
            Section::Motion => 0x4D,   // 'M'
            Section::Residual => 0x52, // 'R'
            Section::SideInfo => 0x53, // 'S'
            Section::Intra => 0x49,    // 'I'
            Section::Rate => 0x51,     // 'Q' (quantizer)
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodingError> {
        match tag {
            0x4D => Ok(Section::Motion),
            0x52 => Ok(Section::Residual),
            0x53 => Ok(Section::SideInfo),
            0x49 => Ok(Section::Intra),
            0x51 => Ok(Section::Rate),
            other => Err(CodingError::BadContainer {
                reason: format!("unknown tag 0x{other:02X}"),
            }),
        }
    }
}

/// Accumulates tagged sections into a frame payload.
#[derive(Debug, Clone, Default)]
pub struct SectionWriter {
    bytes: Vec<u8>,
}

impl SectionWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section.
    pub fn push(&mut self, section: Section, payload: Vec<u8>) {
        self.bytes.push(section.tag());
        self.bytes
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(&payload);
    }

    /// Total bytes so far (including section headers).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether no sections were pushed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns the framed bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Parses a frame payload back into its sections, in order.
///
/// # Errors
///
/// Returns [`CodingError::BadContainer`] on truncation or unknown tags.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(Section, Vec<u8>)>, CodingError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + 5 > bytes.len() {
            return Err(CodingError::BadContainer {
                reason: "truncated section header".into(),
            });
        }
        let section = Section::from_tag(bytes[pos])?;
        let len = u32::from_le_bytes(
            bytes[pos + 1..pos + 5]
                .try_into()
                .expect("slice is 4 bytes"),
        ) as usize;
        pos += 5;
        if pos + len > bytes.len() {
            return Err(CodingError::BadContainer {
                reason: format!("section claims {len} bytes, {} remain", bytes.len() - pos),
            });
        }
        out.push((section, bytes[pos..pos + len].to_vec()));
        pos += len;
    }
    Ok(out)
}

/// Finds the first section with the given tag.
///
/// # Errors
///
/// Returns [`CodingError::BadContainer`] if the section is absent (or the
/// container is malformed).
pub fn find_section(bytes: &[u8], section: Section) -> Result<Vec<u8>, CodingError> {
    read_sections(bytes)?
        .into_iter()
        .find(|(s, _)| *s == section)
        .map(|(_, payload)| payload)
        .ok_or_else(|| CodingError::BadContainer {
            reason: format!("missing section {section:?}"),
        })
}

/// Frame type carried in a packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Intra-coded frame: decodable without a reference; (re)starts the
    /// prediction chain. Its payload also carries the stream header when
    /// it is the first packet of a stream.
    Intra,
    /// Predicted frame: requires the previous reconstruction.
    Predicted,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Intra => 0x49,     // 'I'
            FrameKind::Predicted => 0x50, // 'P'
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodingError> {
        match tag {
            0x49 => Ok(FrameKind::Intra),
            0x50 => Ok(FrameKind::Predicted),
            other => Err(CodingError::BadContainer {
                reason: format!("unknown frame kind 0x{other:02X}"),
            }),
        }
    }
}

/// Size of the fixed packet header:
/// `[len: u32][frame_index: u32][frame_kind: u8][crc32: u32]`.
pub const PACKET_HEADER_BYTES: usize = 13;

/// Upper bound on a packet payload accepted by the incremental reader
/// ([`Packet::read_into`] / [`Packet::read_from`]). A coded frame in this
/// repository is kilobytes; the cap exists so a hostile length field read
/// off a socket can never force a multi-gigabyte allocation before the
/// CRC check has a chance to run.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;

fn truncated(what: &str, e: std::io::Error) -> CodingError {
    CodingError::BadContainer {
        reason: format!("{what}: {e}"),
    }
}

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte table,
/// `CRC32_TABLES[t][b]` is the CRC state after byte `b` followed by `t`
/// zero bytes, so eight input bytes fold into the state with eight
/// independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One length-delimited coded frame of a packetized bitstream.
///
/// # Example
///
/// ```
/// use nvc_entropy::container::{FrameKind, Packet};
/// # fn main() -> Result<(), nvc_entropy::CodingError> {
/// let p = Packet::new(0, FrameKind::Intra, vec![1, 2, 3]);
/// let bytes = p.to_bytes();
/// let (back, consumed) = Packet::from_bytes(&bytes)?;
/// assert_eq!(back, p);
/// assert_eq!(consumed, bytes.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Zero-based frame index within the stream.
    pub frame_index: u32,
    /// Frame type.
    pub kind: FrameKind,
    /// The frame's coded payload (its sections).
    pub payload: Vec<u8>,
}

impl Packet {
    /// Creates a packet.
    pub fn new(frame_index: u32, kind: FrameKind, payload: Vec<u8>) -> Self {
        Packet {
            frame_index,
            kind,
            payload,
        }
    }

    /// Total serialized size (header + payload).
    pub fn encoded_len(&self) -> usize {
        PACKET_HEADER_BYTES + self.payload.len()
    }

    /// Serializes the packet: header followed by the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.frame_index.to_le_bytes());
        out.push(self.kind.tag());
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses just the fixed header fields — `(frame_index, kind,
    /// payload_len)` — without copying the payload or checking its CRC.
    /// Cheap routing primitive for muxers/schedulers; full validation
    /// still happens in [`Packet::from_bytes`] / the decoder session.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::BadContainer`] on a truncated header or an
    /// unknown frame kind.
    pub fn peek_header(bytes: &[u8]) -> Result<(u32, FrameKind, usize), CodingError> {
        if bytes.len() < PACKET_HEADER_BYTES {
            return Err(CodingError::BadContainer {
                reason: format!(
                    "truncated packet header: {} of {PACKET_HEADER_BYTES} bytes",
                    bytes.len()
                ),
            });
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
        let frame_index = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let kind = FrameKind::from_tag(bytes[8])?;
        Ok((frame_index, kind, len))
    }

    /// Parses one packet off the front of `bytes`, validating the header
    /// and the payload CRC. Returns the packet and the number of bytes
    /// consumed (trailing bytes are left for the next packet). Thin
    /// wrapper over [`Packet::read_from`] with the slice as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::BadContainer`] on truncation, an unknown
    /// frame kind, an implausible length field, or a CRC mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<(Packet, usize), CodingError> {
        let mut cursor = bytes;
        let packet = Packet::read_from(&mut cursor)?;
        Ok((packet, bytes.len() - cursor.len()))
    }

    /// Reads exactly one packet off a byte stream, validating the header
    /// and the payload CRC — the incremental form of
    /// [`Packet::from_bytes`], for transports where the whole stream is
    /// never resident (sockets, files). Convenience wrapper over
    /// [`Packet::read_into`] that allocates a fresh payload.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Packet::read_into`].
    pub fn read_from(r: &mut impl Read) -> Result<Packet, CodingError> {
        let mut packet = Packet::new(0, FrameKind::Intra, Vec::new());
        packet.read_into(r)?;
        Ok(packet)
    }

    /// Reads one packet off a byte stream *into* `self`, reusing the
    /// existing payload allocation — the steady-state read primitive for
    /// a server pulling length-delimited frames off a socket without ever
    /// buffering the whole stream. Reads exactly one packet's bytes
    /// (header, then payload), leaving the reader positioned at the next
    /// packet.
    ///
    /// On error, `self` is left with unspecified (but valid) contents.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::BadContainer`] if the reader ends or fails
    /// mid-packet, on an unknown frame kind, a length field above
    /// [`MAX_PAYLOAD_BYTES`], or a CRC mismatch.
    pub fn read_into(&mut self, r: &mut impl Read) -> Result<(), CodingError> {
        let mut header = [0u8; PACKET_HEADER_BYTES];
        r.read_exact(&mut header)
            .map_err(|e| truncated("truncated packet header", e))?;
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let frame_index = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let kind = FrameKind::from_tag(header[8])?;
        let crc = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES {
            return Err(CodingError::BadContainer {
                reason: format!("packet claims {len} payload bytes (cap {MAX_PAYLOAD_BYTES})"),
            });
        }
        self.payload.clear();
        self.payload.resize(len, 0);
        r.read_exact(&mut self.payload)
            .map_err(|e| truncated("truncated packet payload", e))?;
        let actual = crc32(&self.payload);
        if actual != crc {
            return Err(CodingError::BadContainer {
                reason: format!("packet CRC mismatch: stored {crc:08X}, computed {actual:08X}"),
            });
        }
        self.frame_index = frame_index;
        self.kind = kind;
        Ok(())
    }
}

/// Splits a concatenated packet stream into per-packet byte slices using
/// only the length fields (no CRC validation — that happens when each
/// slice is handed to [`Packet::from_bytes`] or a decoder session).
///
/// The split detects any *mid-packet* truncation. Loss of whole trailing
/// packets is invisible here by design: a packet stream is open-ended
/// (a live encoder does not know its length up front), so total frame
/// count is transport-level metadata, exactly as in RTP-class protocols.
///
/// # Errors
///
/// Returns [`CodingError::BadContainer`] if the stream ends mid-packet.
pub fn split_packets(bytes: &[u8]) -> Result<Vec<&[u8]>, CodingError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if pos + PACKET_HEADER_BYTES > bytes.len() {
            return Err(CodingError::BadContainer {
                reason: "truncated packet header in stream".into(),
            });
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let total =
            len.checked_add(PACKET_HEADER_BYTES)
                .ok_or_else(|| CodingError::BadContainer {
                    reason: format!("packet length {len} overflows"),
                })?;
        if total > bytes.len() - pos {
            return Err(CodingError::BadContainer {
                reason: format!(
                    "truncated packet in stream: claims {len} payload bytes, {} remain",
                    bytes.len() - pos - PACKET_HEADER_BYTES
                ),
            });
        }
        out.push(&bytes[pos..pos + total]);
        pos += total;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_sections() {
        let mut w = SectionWriter::new();
        w.push(Section::SideInfo, vec![9; 17]);
        w.push(Section::Motion, vec![1, 2]);
        w.push(Section::Residual, Vec::new());
        let bytes = w.finish();
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (Section::SideInfo, vec![9; 17]));
        assert_eq!(sections[1], (Section::Motion, vec![1, 2]));
        assert_eq!(sections[2], (Section::Residual, Vec::new()));
    }

    #[test]
    fn rate_section_roundtrips() {
        let mut w = SectionWriter::new();
        w.push(Section::Rate, vec![2]);
        w.push(Section::Motion, vec![1]);
        let sections = read_sections(&w.finish()).unwrap();
        assert_eq!(sections[0], (Section::Rate, vec![2]));
        assert_eq!(sections[1], (Section::Motion, vec![1]));
    }

    #[test]
    fn find_section_locates_payload() {
        let mut w = SectionWriter::new();
        w.push(Section::Motion, vec![5]);
        w.push(Section::Residual, vec![6, 7]);
        let bytes = w.finish();
        assert_eq!(find_section(&bytes, Section::Residual).unwrap(), vec![6, 7]);
        assert!(find_section(&bytes, Section::Intra).is_err());
    }

    #[test]
    fn detects_corruption() {
        let mut w = SectionWriter::new();
        w.push(Section::Motion, vec![1, 2, 3]);
        let mut bytes = w.finish();
        // Truncate payload.
        bytes.pop();
        assert!(read_sections(&bytes).is_err());
        // Unknown tag.
        let bad = vec![0xEE, 0, 0, 0, 0];
        assert!(read_sections(&bad).is_err());
        // Truncated header.
        assert!(read_sections(&[0x4D, 1]).is_err());
    }

    #[test]
    fn empty_container_is_valid() {
        assert!(read_sections(&[]).unwrap().is_empty());
        assert!(SectionWriter::new().is_empty());
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// The bit-at-a-time definition the table-driven [`crc32`] replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_tables_match_bitwise_at_every_length_and_alignment() {
        // Lengths cover zero to eight whole words plus every remainder;
        // start offsets cover every alignment of the 8-byte fold.
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=67 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start={start} len={len}");
            }
        }
        let big: Vec<u8> = (0..73_728u32).map(|i| (i ^ (i >> 7)) as u8).collect();
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn packet_stream_splits_and_validates() {
        let a = Packet::new(0, FrameKind::Intra, vec![7; 10]);
        let b = Packet::new(1, FrameKind::Predicted, Vec::new());
        let mut stream = a.to_bytes();
        stream.extend(b.to_bytes());
        let chunks = split_packets(&stream).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(Packet::from_bytes(chunks[0]).unwrap().0, a);
        assert_eq!(Packet::from_bytes(chunks[1]).unwrap().0, b);
        // Stream truncation is detected at the split layer.
        assert!(split_packets(&stream[..stream.len() - 1]).is_err());
        assert!(split_packets(&stream[..5]).is_err());
    }

    #[test]
    fn packet_rejects_hostile_length_field() {
        // Maximum u32 length must produce a clean error (no arithmetic
        // overflow), on every pointer width.
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0xFF]; // len = u32::MAX
        bytes.extend_from_slice(&0u32.to_le_bytes()); // frame_index
        bytes.push(0x49); // Intra
        bytes.extend_from_slice(&0u32.to_le_bytes()); // crc
        bytes.extend_from_slice(&[0; 64]);
        assert!(Packet::from_bytes(&bytes).is_err());
        assert!(split_packets(&bytes).is_err());
    }

    #[test]
    fn incremental_read_walks_a_stream_and_reuses_the_allocation() {
        let a = Packet::new(0, FrameKind::Intra, vec![9; 4096]);
        let b = Packet::new(1, FrameKind::Predicted, vec![3; 7]);
        let mut stream = a.to_bytes();
        stream.extend(b.to_bytes());
        let mut r: &[u8] = &stream;

        let mut scratch = Packet::new(0, FrameKind::Intra, Vec::new());
        scratch.read_into(&mut r).unwrap();
        assert_eq!(scratch, a);
        let cap_after_big = scratch.payload.capacity();
        scratch.read_into(&mut r).unwrap();
        assert_eq!(scratch, b);
        assert_eq!(
            scratch.payload.capacity(),
            cap_after_big,
            "small read must reuse the large payload allocation"
        );
        assert!(r.is_empty(), "reader stops exactly at the packet boundary");
        // A further read hits EOF cleanly.
        assert!(scratch.read_into(&mut r).is_err());
    }

    #[test]
    fn incremental_read_detects_truncation_and_corruption() {
        let p = Packet::new(2, FrameKind::Predicted, vec![1, 2, 3, 4, 5]);
        let bytes = p.to_bytes();
        // Truncation at every prefix fails cleanly.
        for cut in 0..bytes.len() {
            let mut r = &bytes[..cut];
            assert!(Packet::read_from(&mut r).is_err(), "cut {cut}");
        }
        // Whole packet round-trips.
        let mut r: &[u8] = &bytes;
        assert_eq!(Packet::read_from(&mut r).unwrap(), p);
        // Payload corruption is caught by the CRC.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 1;
        assert!(Packet::read_from(&mut &corrupt[..]).is_err());
    }

    #[test]
    fn incremental_read_caps_hostile_lengths() {
        // A length just above the cap must be rejected before any
        // payload allocation happens, even though "enough" bytes could
        // keep streaming in.
        let mut bytes = ((MAX_PAYLOAD_BYTES + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.push(0x49);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let mut r: &[u8] = &bytes;
        let err = Packet::read_from(&mut r).unwrap_err();
        assert!(format!("{err}").contains("cap"), "{err}");
    }

    #[test]
    fn packet_rejects_bad_kind_and_crc() {
        let p = Packet::new(4, FrameKind::Predicted, vec![1, 2, 3, 4]);
        let mut bytes = p.to_bytes();
        bytes[8] = 0xFF; // invalid frame kind
        assert!(Packet::from_bytes(&bytes).is_err());
        let mut bytes = p.to_bytes();
        *bytes.last_mut().unwrap() ^= 1; // payload corruption
        assert!(Packet::from_bytes(&bytes).is_err());
    }
}
