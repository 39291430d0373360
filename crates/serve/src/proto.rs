//! The `nvc-serve` wire protocol.
//!
//! Everything on the socket is a tagged message; all integers are
//! little-endian. A connection is:
//!
//! ```text
//! client                                server
//!   |-- Hello ("NVCS", ver, family,       |
//!   |          direction, w, h, rate) --> |
//!   |<------------- 'A' ack (rate) ------ |   (or 'X' error + close)
//!   |-- 'P' packet / 'F' frame ---------> |   one per coded/raw frame
//!   |<-- 'F' frame / 'P' packet --------- |   same order, same count
//!   |-- 'E' end ------------------------> |
//!   |<-- 'S' stats trailer -------------- |   then both sides close
//! ```
//!
//! * `'P'` carries one serialized [`Packet`] (self-delimiting: length
//!   prefix, frame index, frame kind, payload CRC32).
//! * `'F'` carries one raw frame:
//!   `[index: u32][w: u16][h: u16][crc32: u32][rgb: 3·w·h f32 LE]`.
//!   The CRC covers the pixel bytes, so a decode client detects
//!   corruption exactly as the server detects it on coded packets.
//! * `'S'` carries the stream's [`StreamStats`]: per-frame payload bytes,
//!   serialized bits, frame types and rates.
//! * `'X'` carries a UTF-8 failure description; the sender closes the
//!   connection right after. It is valid at any point, including instead
//!   of the handshake ack.
//!
//! Two more roles make up *broadcasts*. A [`Role::Publish`]
//! connection looks like an encode stream (frames up, the publisher's
//! own coded packets back), but the server also fans the packets out to
//! every subscriber of the broadcast named in the handshake. A
//! [`Role::Subscribe`] connection is read-mostly:
//!
//! ```text
//! subscriber                            server
//!   |-- Hello (Subscribe, name) ------->  |
//!   |<------------- 'A' ack (rate) ------ |   (or 'X' error + close)
//!   |<-- 'J' join info ------------------ |   family, geometry, start
//!   |<-- 'P' packet --------------------- |   starting at an intra
//!   |<-- ...                              |
//!   |<-- 'S' stats trailer -------------- |   when the publisher ends
//! ```
//!
//! Subscribers that stop draining are *evicted*: the server drops their
//! ring and sends `'X'` instead of ever stalling the publisher.
//!
//! Handshakes are *governed*: the `Hello` may carry a client identity
//! (the governor's per-client fairness key) and the ack carries a flags
//! byte ([`Ack`]) so the server can admit a session *degraded* —
//! granted a lower starting rung than requested — instead of rejecting
//! it outright when the aggregate budget is tight.
//!
//! There is one protocol version, [`VERSION`]. A handshake carrying any
//! other version byte is refused with an `'X'` naming it, and the
//! connection closes.
//!
//! The module is public so alternative transports (or tests) can speak
//! the protocol directly; [`StreamClient`](crate::StreamClient),
//! [`SubscribeClient`](crate::SubscribeClient) and
//! [`Server`](crate::Server) are the intended entry points.

use crate::ServeError;
use nvc_entropy::container::{crc32, Packet, MAX_PAYLOAD_BYTES, PACKET_HEADER_BYTES};
use nvc_tensor::{Shape, Tensor};
use nvc_video::{Frame, FrameType, StreamStats};
use std::io::{Read, Write};

/// Handshake magic: every connection starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"NVCS";

/// Wire-protocol version: the byte after [`MAGIC`] in every handshake,
/// and the only one [`Hello::read_from`] accepts. Versions 1–3 (the
/// layouts without the rate-mode, broadcast or client-identity fields,
/// and the two-byte ack) are retired; retiring them changed no
/// version-4 byte.
pub const VERSION: u8 = 4;

/// Cap on a broadcast name and on a client identity as carried in a
/// handshake.
pub const MAX_NAME_BYTES: usize = 128;

/// Hard cap on frame dimensions accepted from the wire, keeping a
/// hostile `Hello` or frame header from forcing a giant allocation.
pub const MAX_DIM: usize = 8192;

/// Cap on an error-message body.
pub const MAX_ERROR_BYTES: usize = 1 << 16;

/// Cap on the frame count a stats trailer may claim.
pub const MAX_STATS_FRAMES: usize = 1 << 20;

/// Message tag: handshake acknowledgement (server → client).
pub const MSG_ACK: u8 = b'A';
/// Ack flags bit: the session was admitted *degraded* — the server's
/// governor granted less than the requested rate, and the ack's rate
/// byte carries the granted starting rung instead of echoing the
/// request. The stream still runs; the rate is restored in-band as load
/// drains.
pub const ACK_DEGRADED: u8 = 0x01;
/// Message tag: one serialized coded packet.
pub const MSG_PACKET: u8 = b'P';
/// Message tag: one raw frame.
pub const MSG_FRAME: u8 = b'F';
/// Message tag: end of stream (client → server).
pub const MSG_END: u8 = b'E';
/// Message tag: mid-stream rate retarget (client → server, encode
/// streams). Applies in stream order: frames sent before the retarget
/// are coded under the old mode, frames after it under the new one.
pub const MSG_RETARGET: u8 = b'R';
/// Message tag: stream statistics trailer (server → client).
pub const MSG_STATS: u8 = b'S';
/// Message tag: failure description, connection closes after.
pub const MSG_ERROR: u8 = b'X';
/// Message tag: broadcast join info (server → subscriber), sent right
/// after the ack so the subscriber knows the stream's family, geometry,
/// GOP length and starting frame index before the first packet arrives.
pub const MSG_JOIN: u8 = b'J';

/// Which codec family serves the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The learned CTVC-Net codec (rate = `RatePoint` index, validated
    /// via `RatePoint::try_new`).
    Ctvc,
    /// The classical hybrid baseline (rate = QP).
    Hybrid,
}

impl Family {
    fn tag(self) -> u8 {
        match self {
            Family::Ctvc => 0,
            Family::Hybrid => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ServeError> {
        match tag {
            0 => Ok(Family::Ctvc),
            1 => Ok(Family::Hybrid),
            other => Err(ServeError::Protocol(format!(
                "unknown codec family 0x{other:02X}"
            ))),
        }
    }
}

/// What the *server* does with the stream.
///
/// The first two roles are point-to-point streams; the broadcast roles
/// pair one publisher with any number of subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Server encodes: the client streams raw frames and receives coded
    /// packets.
    Encode,
    /// Server decodes: the client streams coded packets and receives
    /// reconstructed frames.
    Decode,
    /// Server encodes *and relays*: like [`Role::Encode`], but the coded
    /// packets are also published under the handshake's broadcast name
    /// for any number of subscribers.
    Publish,
    /// Server relays: the client sends nothing after the handshake and
    /// receives the named broadcast's packets, starting at an intra
    /// boundary.
    Subscribe,
}

impl Role {
    fn tag(self) -> u8 {
        match self {
            Role::Encode => 0,
            Role::Decode => 1,
            Role::Publish => 2,
            Role::Subscribe => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ServeError> {
        match tag {
            0 => Ok(Role::Encode),
            1 => Ok(Role::Decode),
            2 => Ok(Role::Publish),
            3 => Ok(Role::Subscribe),
            other => Err(ServeError::Protocol(format!("unknown role 0x{other:02X}"))),
        }
    }

    /// Whether this role takes part in a broadcast (and therefore needs
    /// a broadcast name).
    pub fn is_broadcast(self) -> bool {
        matches!(self, Role::Publish | Role::Subscribe)
    }
}

/// Closed-loop rate target as carried on the wire: bits-per-pixel in
/// 1/1000 units plus a smoothing window in frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetBppWire {
    /// Target rate in milli-bits-per-pixel (`1000 × bpp`).
    pub milli_bpp: u32,
    /// Smoothing window in frames (0 = server default).
    pub window: u16,
}

impl TargetBppWire {
    /// Builds the wire form from a bits-per-pixel target. Positive
    /// targets below the wire's 1/1000 resolution round *up* to one
    /// milli-bpp, so they stay positive on the wire instead of being
    /// quantized to zero and rejected server-side.
    pub fn from_bpp(bpp: f64, window: u16) -> Self {
        let milli_bpp = if bpp > 0.0 {
            ((bpp * 1000.0).round() as u32).max(1)
        } else {
            0
        };
        TargetBppWire { milli_bpp, window }
    }

    /// The target in bits per pixel.
    pub fn bpp(&self) -> f64 {
        f64::from(self.milli_bpp) / 1000.0
    }
}

/// The handshake opening every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Codec family serving the stream.
    pub family: Family,
    /// What the server does with the stream.
    pub role: Role,
    /// Stream width in pixels.
    pub width: usize,
    /// Stream height in pixels.
    pub height: usize,
    /// Rate parameter: a `RatePoint` index for [`Family::Ctvc`]
    /// (validated server-side via `try_new`), a QP for
    /// [`Family::Hybrid`]. For decode streams the authoritative rate
    /// rides in the bitstream header; the handshake value is still
    /// validated so a bogus request fails fast. Subscribers send 0 and
    /// learn the broadcast's rate from the ack.
    pub rate: u8,
    /// Closed-loop rate mode for encode/publish streams: when set,
    /// `rate` is not used at all — the server's controller picks every
    /// frame's rate, including the first (the ack still echoes `rate`
    /// for wire compatibility). Must be `None` for decode/subscribe
    /// streams.
    pub target: Option<TargetBppWire>,
    /// Publish streams: requested GOP length in frames (0 = server
    /// default). Ignored for other roles.
    pub gop: u16,
    /// Broadcast name — required (non-empty, ≤ [`MAX_NAME_BYTES`]) for
    /// the broadcast roles, forbidden otherwise.
    pub broadcast: Option<String>,
    /// Client identity (optional): the governor's per-client fairness
    /// key, so one client opening many sessions shares one budget slice
    /// instead of multiplying its share. `None` (or empty on the wire)
    /// makes the server fall back to the peer address.
    pub client: Option<String>,
}

impl Hello {
    fn new(family: Family, role: Role, rate: u8, width: usize, height: usize) -> Self {
        Hello {
            family,
            role,
            width,
            height,
            rate,
            target: None,
            gop: 0,
            broadcast: None,
            client: None,
        }
    }

    /// Handshake for a CTVC decode stream (client sends packets).
    pub fn ctvc_decode(rate: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Ctvc, Role::Decode, rate, width, height)
    }

    /// Handshake for a CTVC encode stream (client sends raw frames).
    pub fn ctvc_encode(rate: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Ctvc, Role::Encode, rate, width, height)
    }

    /// Handshake for a hybrid-baseline decode stream.
    pub fn hybrid_decode(qp: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Hybrid, Role::Decode, qp, width, height)
    }

    /// Handshake for a hybrid-baseline encode stream.
    pub fn hybrid_encode(qp: u8, width: usize, height: usize) -> Self {
        Self::new(Family::Hybrid, Role::Encode, qp, width, height)
    }

    /// Handshake publishing a CTVC broadcast under `name` (client sends
    /// raw frames; the server encodes once and fans out).
    pub fn ctvc_publish(rate: u8, width: usize, height: usize, name: &str) -> Self {
        let mut h = Self::new(Family::Ctvc, Role::Publish, rate, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Handshake publishing a hybrid-baseline broadcast under `name`.
    pub fn hybrid_publish(qp: u8, width: usize, height: usize, name: &str) -> Self {
        let mut h = Self::new(Family::Hybrid, Role::Publish, qp, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Handshake subscribing to the broadcast named `name`. Geometry
    /// must match the publisher's (the mismatch fails fast at the
    /// handshake instead of at the first undecodable packet).
    pub fn subscribe(name: &str, width: usize, height: usize) -> Self {
        let mut h = Self::new(Family::Ctvc, Role::Subscribe, 0, width, height);
        h.broadcast = Some(name.to_string());
        h
    }

    /// Switches an encode handshake to closed-loop target-bpp mode
    /// (`window` frames of smoothing, 0 = server default).
    pub fn with_target_bpp(mut self, bpp: f64, window: u16) -> Self {
        self.target = Some(TargetBppWire::from_bpp(bpp, window));
        self
    }

    /// Sets a publish stream's GOP length in frames (0 = server
    /// default): the relay forces an intra refresh every `gop` frames so
    /// late subscribers never wait longer than one GOP to join.
    pub fn with_gop(mut self, gop: u16) -> Self {
        self.gop = gop;
        self
    }

    /// Switches a subscribe handshake's family expectation (the
    /// constructor defaults to CTVC).
    pub fn with_family(mut self, family: Family) -> Self {
        self.family = family;
        self
    }

    /// Sets the client identity carried in the handshake — the
    /// governor's per-client fairness key. Sessions sharing an identity
    /// share one slice of the budget.
    pub fn with_client(mut self, client: &str) -> Self {
        self.client = Some(client.to_string());
        self
    }

    /// Serializes the handshake as protocol [`VERSION`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for geometry outside `1..=`[`MAX_DIM`]
    /// (which would otherwise truncate silently in the `u16` wire
    /// fields), for an empty or oversized client identity, or for a
    /// missing, oversized or misplaced broadcast name; propagates writer
    /// failures.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        check_wire_dims(self.width, self.height)?;
        if let Some(client) = &self.client {
            if client.is_empty() || client.len() > MAX_NAME_BYTES {
                return Err(invalid(format!(
                    "client identity must be 1..={MAX_NAME_BYTES} bytes, got {}",
                    client.len()
                )));
            }
        }
        match &self.broadcast {
            Some(name)
                if self.role.is_broadcast() && (name.is_empty() || name.len() > MAX_NAME_BYTES) =>
            {
                return Err(invalid(format!(
                    "broadcast name must be 1..={MAX_NAME_BYTES} bytes, got {}",
                    name.len()
                )));
            }
            Some(_) if self.role.is_broadcast() => {}
            Some(_) => {
                return Err(invalid(format!(
                    "{:?} handshake cannot carry a broadcast name",
                    self.role
                )))
            }
            None if self.role.is_broadcast() => {
                return Err(invalid(format!(
                    "{:?} handshake needs a broadcast name",
                    self.role
                )))
            }
            None => {}
        }
        let (mode, milli_bpp, window) = match self.target {
            None => (0u8, 0u32, 0u16),
            Some(t) => (1, t.milli_bpp, t.window),
        };
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION, self.family.tag(), self.role.tag(), self.rate])?;
        w.write_all(&(self.width as u16).to_le_bytes())?;
        w.write_all(&(self.height as u16).to_le_bytes())?;
        w.write_all(&[mode])?;
        w.write_all(&milli_bpp.to_le_bytes())?;
        w.write_all(&window.to_le_bytes())?;
        w.write_all(&self.gop.to_le_bytes())?;
        for name in [&self.broadcast, &self.client] {
            let name = name.as_deref().unwrap_or("");
            w.write_all(&[name.len() as u8])?;
            w.write_all(name.as_bytes())?;
        }
        Ok(())
    }

    /// Reads and structurally validates a handshake (magic, version,
    /// known tags, plausible geometry, broadcast-name rules). Semantic
    /// validation — rate range, target plausibility, codec-specific
    /// geometry constraints, whether the named broadcast exists —
    /// happens server-side after this.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on anything that is not a
    /// well-formed handshake of protocol [`VERSION`].
    pub fn read_from(r: &mut impl Read) -> Result<Hello, ServeError> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)
            .map_err(|e| ServeError::Protocol(format!("truncated handshake: {e}")))?;
        if head[0..4] != MAGIC {
            return Err(ServeError::Protocol(format!(
                "bad magic {:02X?} (expected \"NVCS\")",
                &head[0..4]
            )));
        }
        let version = head[4];
        if version != VERSION {
            return Err(ServeError::Protocol(format!(
                "unsupported protocol version {version} (accepted {VERSION})"
            )));
        }
        let family = Family::from_tag(head[5])?;
        let role = Role::from_tag(head[6])?;
        let rate = head[7];
        let width = read_u16(r)? as usize;
        let height = read_u16(r)? as usize;
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(ServeError::Protocol(format!(
                "implausible stream geometry {width}x{height}"
            )));
        }
        let mode = read_u8(r)?;
        let milli_bpp = read_u32(r)?;
        let window = read_u16(r)?;
        let target = match mode {
            0 => None,
            1 => Some(TargetBppWire { milli_bpp, window }),
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown rate-mode tag 0x{other:02X}"
                )))
            }
        };
        let gop = read_u16(r)?;
        let broadcast = read_name(r, "broadcast name")?;
        if role.is_broadcast() && broadcast.is_none() {
            return Err(ServeError::Protocol(format!(
                "{role:?} handshake needs a broadcast name"
            )));
        }
        if !role.is_broadcast() && broadcast.is_some() {
            return Err(ServeError::Protocol(format!(
                "{role:?} handshake cannot carry a broadcast name"
            )));
        }
        let client = read_name(r, "client identity")?;
        Ok(Hello {
            family,
            role,
            width,
            height,
            rate,
            target,
            gop,
            broadcast,
            client,
        })
    }
}

/// Reads one length-prefixed handshake name (`[len: u8][UTF-8]`, at
/// most [`MAX_NAME_BYTES`]); empty reads as `None`. `what` names the
/// field in errors.
fn read_name(r: &mut impl Read, what: &str) -> Result<Option<String>, ServeError> {
    let len = read_u8(r)? as usize;
    if len > MAX_NAME_BYTES {
        return Err(ServeError::Protocol(format!(
            "{what} claims {len} bytes (cap {MAX_NAME_BYTES})"
        )));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)
        .map_err(|e| ServeError::Protocol(format!("truncated {what}: {e}")))?;
    let name = String::from_utf8(bytes)
        .map_err(|_| ServeError::Protocol(format!("{what} is not UTF-8")))?;
    Ok((!name.is_empty()).then_some(name))
}

/// The handshake acknowledgement (the `'A'` message, server → client):
/// the tag, a rate byte and a flags byte. Under a governor the server
/// may admit a session *degraded* ([`ACK_DEGRADED`] set), in which case
/// the rate byte carries the granted starting rung rather than the
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Rate parameter the stream starts at. Equal to the handshake's
    /// `rate` unless the session was admitted degraded (fixed-rate
    /// streams only; closed-loop streams keep their bpp target and the
    /// echo).
    pub rate: u8,
    /// Whether the session was admitted below its requested rate.
    pub degraded: bool,
}

/// Writes one handshake acknowledgement (`'A'` tag, rate byte, flags
/// byte).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_ack_msg(w: &mut impl Write, ack: &Ack) -> std::io::Result<()> {
    w.write_all(&[MSG_ACK, ack.rate, u8::from(ack.degraded) * ACK_DEGRADED])
}

/// [`write_ack_msg`] into owned bytes (see [`stats_msg_bytes`] for why
/// this is infallible).
pub fn ack_msg_bytes(ack: &Ack) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_ack_msg(&mut bytes, ack);
    bytes
}

/// Reads a handshake-acknowledgement body (after its `'A'` tag).
/// Unknown flag bits are ignored so a newer server can extend the byte.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation.
pub fn read_ack_body(r: &mut impl Read) -> Result<Ack, ServeError> {
    let mut body = [0u8; 2];
    r.read_exact(&mut body)
        .map_err(|e| ServeError::Protocol(format!("truncated ack: {e}")))?;
    Ok(Ack {
        rate: body[0],
        degraded: body[1] & ACK_DEGRADED != 0,
    })
}

/// Reads the server's answer to a handshake, as both clients do: the
/// ack, or the `'X'` rejection as [`ServeError::Remote`].
pub(crate) fn read_handshake_ack(r: &mut impl Read) -> Result<Ack, ServeError> {
    match read_u8(r)? {
        MSG_ACK => read_ack_body(r),
        MSG_ERROR => Err(ServeError::Remote(read_error_body(r)?)),
        tag => Err(ServeError::Protocol(format!(
            "expected handshake ack, got tag 0x{tag:02X}"
        ))),
    }
}

/// A mid-stream rate retarget (the `'R'` message): replaces the encode
/// session's rate mode in stream order, optionally forcing an intra
/// refresh at the switch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retarget {
    /// New fixed rate (`RatePoint` index / QP) when `target` is `None`.
    pub rate: u8,
    /// New closed-loop target; takes precedence over `rate`.
    pub target: Option<TargetBppWire>,
    /// Whether the next frame must restart the GOP with an intra frame.
    pub restart_gop: bool,
}

impl Retarget {
    /// Retarget to a fixed rate.
    pub fn fixed(rate: u8) -> Self {
        Retarget {
            rate,
            target: None,
            restart_gop: false,
        }
    }

    /// Retarget to a closed-loop bpp target.
    pub fn target_bpp(bpp: f64, window: u16) -> Self {
        Retarget {
            rate: 0,
            target: Some(TargetBppWire::from_bpp(bpp, window)),
            restart_gop: false,
        }
    }

    /// Also force an intra refresh at the switch.
    pub fn with_restart(mut self) -> Self {
        self.restart_gop = true;
        self
    }
}

/// Writes one retarget message (`'R'` tag + body).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_retarget_msg(w: &mut impl Write, retarget: &Retarget) -> std::io::Result<()> {
    w.write_all(&[MSG_RETARGET])?;
    let (mode, milli_bpp, window) = match retarget.target {
        None => (0u8, 0u32, 0u16),
        Some(t) => (1, t.milli_bpp, t.window),
    };
    w.write_all(&[mode, retarget.rate])?;
    w.write_all(&milli_bpp.to_le_bytes())?;
    w.write_all(&window.to_le_bytes())?;
    w.write_all(&[u8::from(retarget.restart_gop)])
}

/// Reads a retarget body (after its `'R'` tag).
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation or an unknown
/// rate-mode tag.
pub fn read_retarget_body(r: &mut impl Read) -> Result<Retarget, ServeError> {
    let mode = read_u8(r)?;
    let rate = read_u8(r)?;
    let milli_bpp = read_u32(r)?;
    let window = read_u16(r)?;
    let restart = read_u8(r)?;
    let target = match mode {
        0 => None,
        1 => Some(TargetBppWire { milli_bpp, window }),
        other => {
            return Err(ServeError::Protocol(format!(
                "unknown rate-mode tag 0x{other:02X}"
            )))
        }
    };
    Ok(Retarget {
        rate,
        target,
        restart_gop: restart != 0,
    })
}

/// What a subscriber learns about the broadcast it just joined (the
/// `'J'` message, server → subscriber, right after the ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinInfo {
    /// Codec family the broadcast is coded with.
    pub family: Family,
    /// Stream width in pixels.
    pub width: usize,
    /// Stream height in pixels.
    pub height: usize,
    /// Frame index of the first packet this subscriber will receive —
    /// always an intra boundary; nonzero for late joiners.
    pub start_index: u32,
    /// Rate parameter the broadcast is currently coded at.
    pub rate: u8,
    /// The relay's GOP length in frames (how far apart join points are).
    pub gop: u16,
}

/// Writes one join-info message (`'J'` tag + body).
///
/// # Errors
///
/// Returns `InvalidInput` for geometry outside the wire range;
/// propagates writer failures.
pub fn write_join_msg(w: &mut impl Write, join: &JoinInfo) -> std::io::Result<()> {
    check_wire_dims(join.width, join.height)?;
    w.write_all(&[MSG_JOIN])?;
    w.write_all(&[join.family.tag(), join.rate])?;
    w.write_all(&(join.width as u16).to_le_bytes())?;
    w.write_all(&(join.height as u16).to_le_bytes())?;
    w.write_all(&join.start_index.to_le_bytes())?;
    w.write_all(&join.gop.to_le_bytes())
}

/// Reads a join-info body (after its `'J'` tag).
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation, an unknown family
/// tag or implausible geometry.
pub fn read_join_body(r: &mut impl Read) -> Result<JoinInfo, ServeError> {
    let family = Family::from_tag(read_u8(r)?)?;
    let rate = read_u8(r)?;
    let width = read_u16(r)? as usize;
    let height = read_u16(r)? as usize;
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(ServeError::Protocol(format!(
            "implausible broadcast geometry {width}x{height}"
        )));
    }
    let start_index = read_u32(r)?;
    let gop = read_u16(r)?;
    Ok(JoinInfo {
        family,
        width,
        height,
        start_index,
        rate,
        gop,
    })
}

fn check_wire_dims(width: usize, height: usize) -> std::io::Result<()> {
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("geometry {width}x{height} outside the wire range 1..={MAX_DIM}"),
        ));
    }
    Ok(())
}

pub(crate) fn read_u8(r: &mut impl Read) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn read_u16(r: &mut impl Read) -> std::io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

pub(crate) fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes one raw-frame message (`'F'` tag + body).
///
/// # Errors
///
/// Returns `InvalidInput` for frames outside the wire's geometry range
/// (see [`MAX_DIM`]); propagates writer failures.
pub fn write_frame_msg(w: &mut impl Write, index: u32, frame: &Frame) -> std::io::Result<()> {
    check_wire_dims(frame.width(), frame.height())?;
    let data = frame.tensor().as_slice();
    let mut payload = Vec::with_capacity(data.len() * 4);
    for v in data {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&[MSG_FRAME])?;
    w.write_all(&index.to_le_bytes())?;
    w.write_all(&(frame.width() as u16).to_le_bytes())?;
    w.write_all(&(frame.height() as u16).to_le_bytes())?;
    w.write_all(&crc32(&payload).to_le_bytes())?;
    w.write_all(&payload)
}

/// Reads a raw-frame body (after its `'F'` tag), validating geometry
/// plausibility and the pixel CRC. Returns the sender's frame index and
/// the frame; f32 bit patterns round-trip exactly.
///
/// When `expect` gives the stream's negotiated geometry, the header is
/// checked against it *before* any payload is read — a hostile size
/// field can then never drive an allocation or a blocking bulk read.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation, implausible or
/// mismatched geometry, or CRC mismatch.
pub fn read_frame_body(
    r: &mut impl Read,
    expect: Option<(usize, usize)>,
) -> Result<(u32, Frame), ServeError> {
    let index = read_u32(r)?;
    let width = read_u16(r)? as usize;
    let height = read_u16(r)? as usize;
    let crc = read_u32(r)?;
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(ServeError::Protocol(format!(
            "implausible frame geometry {width}x{height}"
        )));
    }
    if let Some((ew, eh)) = expect {
        if (width, height) != (ew, eh) {
            return Err(ServeError::Protocol(format!(
                "frame {width}x{height} does not match negotiated {ew}x{eh}"
            )));
        }
    }
    let mut payload = vec![0u8; 12 * width * height];
    r.read_exact(&mut payload)
        .map_err(|e| ServeError::Protocol(format!("truncated frame payload: {e}")))?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(ServeError::Protocol(format!(
            "frame CRC mismatch: stored {crc:08X}, computed {actual:08X}"
        )));
    }
    let mut tensor = Tensor::zeros(Shape::new(1, 3, height, width));
    for (v, chunk) in tensor
        .as_mut_slice()
        .iter_mut()
        .zip(payload.chunks_exact(4))
    {
        // `chunks_exact(4)` guarantees the width without a fallible cast.
        *v = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let frame = Frame::from_tensor(tensor).map_err(|e| ServeError::Protocol(e.to_string()))?;
    Ok((index, frame))
}

/// Writes one coded-packet message (`'P'` tag + serialized packet).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_packet_msg(w: &mut impl Write, packet: &Packet) -> std::io::Result<()> {
    w.write_all(&[MSG_PACKET])?;
    w.write_all(&packet.to_bytes())
}

/// Writes the stream-statistics trailer (`'S'` tag + body): the frame
/// count and total bytes, then per frame its payload bytes, its
/// serialized bits, its frame type (`'I'`/`'P'`) and the rate it was
/// coded at — so clients can see which frames absorbed rate changes.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_stats_msg(w: &mut impl Write, stats: &StreamStats) -> std::io::Result<()> {
    w.write_all(&[MSG_STATS])?;
    w.write_all(&(stats.frames as u32).to_le_bytes())?;
    w.write_all(&(stats.total_bytes as u64).to_le_bytes())?;
    for &b in &stats.bytes_per_frame {
        w.write_all(&(b as u32).to_le_bytes())?;
    }
    for &b in &stats.bits_per_frame {
        w.write_all(&b.to_le_bytes())?;
    }
    for kind in &stats.frame_types {
        w.write_all(&[match kind {
            FrameType::Intra => b'I',
            FrameType::Predicted => b'P',
        }])?;
    }
    w.write_all(&stats.rate_per_frame)
}

/// [`write_stats_msg`] into owned bytes. A `Vec` writer cannot fail, so
/// the `io::Result` is vacuous and dropped rather than unwrapped.
pub fn stats_msg_bytes(stats: &StreamStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_stats_msg(&mut bytes, stats);
    bytes
}

/// Reads a stream-statistics body (after its `'S'` tag).
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation, an implausible frame
/// count, or an unknown frame-type byte.
pub fn read_stats_body(r: &mut impl Read) -> Result<StreamStats, ServeError> {
    let frames = read_u32(r)? as usize;
    if frames > MAX_STATS_FRAMES {
        return Err(ServeError::Protocol(format!(
            "stats trailer claims {frames} frames"
        )));
    }
    let total_bytes = read_u64(r)? as usize;
    let mut bytes_per_frame = Vec::with_capacity(frames);
    for _ in 0..frames {
        bytes_per_frame.push(read_u32(r)? as usize);
    }
    let mut bits_per_frame = Vec::with_capacity(frames);
    for _ in 0..frames {
        bits_per_frame.push(read_u64(r)?);
    }
    let mut frame_types = Vec::with_capacity(frames);
    for _ in 0..frames {
        frame_types.push(match read_u8(r)? {
            b'I' => FrameType::Intra,
            b'P' => FrameType::Predicted,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown frame-type byte 0x{other:02X} in stats trailer"
                )))
            }
        });
    }
    let mut rate_per_frame = vec![0u8; frames];
    r.read_exact(&mut rate_per_frame)?;
    Ok(StreamStats {
        frames,
        bytes_per_frame,
        bits_per_frame,
        frame_types,
        rate_per_frame,
        total_bytes,
    })
}

/// Writes a failure-description message (`'X'` tag + body). The sender
/// closes the connection after this.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_error_msg(w: &mut impl Write, message: &str) -> std::io::Result<()> {
    let bytes = message.as_bytes();
    let len = bytes.len().min(MAX_ERROR_BYTES);
    w.write_all(&[MSG_ERROR])?;
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&bytes[..len])
}

/// [`write_error_msg`] into owned bytes (see [`stats_msg_bytes`] for
/// why this is infallible).
pub fn error_msg_bytes(message: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    let _ = write_error_msg(&mut bytes, message);
    bytes
}

/// Reads a failure-description body (after its `'X'` tag).
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on truncation or an oversized body.
pub fn read_error_body(r: &mut impl Read) -> Result<String, ServeError> {
    let len = read_u32(r)? as usize;
    if len > MAX_ERROR_BYTES {
        return Err(ServeError::Protocol(format!(
            "error message claims {len} bytes"
        )));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)
        .map_err(|e| ServeError::Protocol(format!("truncated error message: {e}")))?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

// ---------------------------------------------------------------------------
// Incremental decoders
// ---------------------------------------------------------------------------
//
// The event-driven server reads whatever the socket has — a byte, half a
// message, three messages — and feeds it here. Both decoders are exact
// re-expressions of the blocking readers above: they buffer until one
// whole parse can succeed, then run the *same* parsing code over the
// buffer, so every outcome (values and error strings alike) is
// byte-identical to what a blocking `read_exact` loop would produce.

/// A reader that serves a byte slice, then an optional injected error,
/// then EOF. Re-running a blocking parser over a connection's partial
/// buffer through this reproduces the exact error a blocking reader
/// would have surfaced when the connection died (or timed out) at that
/// point in the stream.
struct TailRead<'a> {
    buf: &'a [u8],
    err: Option<std::io::Error>,
}

impl Read for TailRead<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if !self.buf.is_empty() {
            let n = self.buf.len().min(out.len());
            out[..n].copy_from_slice(&self.buf[..n]);
            self.buf = &self.buf[n..];
            return Ok(n);
        }
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(0),
        }
    }
}

/// The error `read_exact` reports at a clean EOF ("failed to fill whole
/// buffer") — what a blocking reader sees when the peer closes between
/// messages.
fn eof_error() -> std::io::Error {
    let mut byte = [0u8; 1];
    (&[][..])
        .read_exact(&mut byte)
        .expect_err("empty reader cannot fill")
}

fn is_truncation(e: &ServeError) -> bool {
    match e {
        ServeError::Io(e) => e.kind() == std::io::ErrorKind::UnexpectedEof,
        ServeError::Protocol(s) => s.contains("truncated"),
        _ => false,
    }
}

/// Resumable [`Hello`] decoder: accepts handshake bytes in arbitrary
/// chunks and yields the parsed `Hello` once enough have arrived.
///
/// [`feed`](HelloDecoder::feed) speculatively re-parses the buffered
/// prefix after every chunk; a truncation-shaped failure means "need
/// more bytes", anything else is the same terminal error
/// [`Hello::read_from`] would have produced. The handshake is at most a
/// few hundred bytes, so the re-parse is free.
#[derive(Debug, Default)]
pub struct HelloDecoder {
    buf: Vec<u8>,
}

impl HelloDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers `chunk` and returns the handshake if it is now complete.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Hello::read_from`], surfaced as soon as
    /// the buffered prefix is provably invalid.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Option<Hello>, ServeError> {
        self.buf.extend_from_slice(chunk);
        let mut cursor = &self.buf[..];
        match Hello::read_from(&mut cursor) {
            Ok(hello) => {
                let consumed = self.buf.len() - cursor.len();
                self.buf.drain(..consumed);
                Ok(Some(hello))
            }
            Err(e) if is_truncation(&e) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Takes any bytes buffered *beyond* the handshake — the client may
    /// pipeline its first messages behind the `Hello`, and they belong
    /// to the stream decoder.
    pub fn take_rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// The error a blocking [`Hello::read_from`] would have reported had
    /// the connection hit `err` (or clean EOF, when `None`) at the
    /// current point mid-handshake. Used when the peer hangs up or the
    /// handshake deadline fires with the handshake still incomplete.
    pub fn interrupt(&self, err: Option<std::io::Error>) -> ServeError {
        let mut tail = TailRead {
            buf: &self.buf,
            err,
        };
        match Hello::read_from(&mut tail) {
            Err(e) => e,
            // Unreachable when the handshake is genuinely incomplete;
            // cover it anyway rather than panic on a caller misuse.
            Ok(_) => ServeError::Protocol("connection closed during handshake".into()),
        }
    }
}

/// One parsed post-handshake client message.
#[derive(Debug)]
pub enum WireMsg {
    /// A coded packet on a decode stream (`'P'`).
    Packet(Packet),
    /// A raw frame and its sender-side index on an encode or publish
    /// stream (`'F'`).
    Frame(u32, Frame),
    /// A mid-stream rate retarget (`'R'`).
    Retarget(Retarget),
    /// End of stream (`'E'`).
    End,
}

/// The body a message tag announces on a stream whose role accepts it.
#[derive(Debug, Clone, Copy)]
enum Body {
    Packet,
    Frame,
    Retarget,
    End,
}

/// Resumable decoder for the post-handshake client→server message
/// stream: `'P'`/`'F'`/`'R'`/`'E'` tags, filtered by the stream's role.
///
/// Message sizes are computed from the self-delimiting framing (packet
/// length prefix, frame geometry header), so between messages the
/// decoder buffers nothing and inside a message it buffers only that
/// message. Errors are terminal: the server hangs up on the first bad
/// message, so the decoder never needs to resynchronize.
#[derive(Debug)]
pub struct MsgDecoder {
    role: Role,
    /// Negotiated geometry, checked against every frame header.
    expect: (usize, usize),
    buf: Vec<u8>,
}

impl MsgDecoder {
    /// A decoder for a stream with the given negotiated role and
    /// geometry. `_version` is ignored — the protocol has one version;
    /// the parameter is kept only so existing callers compile.
    pub fn new(role: Role, _version: u8, width: usize, height: usize) -> Self {
        MsgDecoder {
            role,
            expect: (width, height),
            buf: Vec::new(),
        }
    }

    /// Buffers a chunk of stream bytes. Drain with
    /// [`next`](MsgDecoder::next) until it returns `Ok(None)`.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Parses the next complete message out of the buffer, or `None` if
    /// more bytes are needed.
    ///
    /// # Errors
    ///
    /// The exact strings the blocking reader loop surfaced as abort
    /// reasons: `bad packet: …`, `bad frame: …`, `bad retarget: …`, or
    /// `unexpected message tag 0x…` (which also covers tags that are
    /// valid in general but not for this role).
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, String> {
        let Some(&tag) = self.buf.first() else {
            return Ok(None);
        };
        let body = self.body(tag)?;
        if self.buf.len() < self.need(body) {
            return Ok(None);
        }
        let mut cursor = &self.buf[1..];
        let msg = self.parse(body, &mut cursor)?;
        let consumed = self.buf.len() - cursor.len();
        self.buf.drain(..consumed);
        Ok(Some(msg))
    }

    /// The abort reason a blocking reader loop would have reported had
    /// the connection hit `err` (or clean EOF, when `None`) at the
    /// current point in the stream: between messages that is
    /// `connection lost mid-stream: …`; inside a message it is the
    /// matching `bad packet/frame/retarget: …` truncation error.
    pub fn interrupt(&self, err: Option<std::io::Error>) -> String {
        let Some(&tag) = self.buf.first() else {
            let e = err.unwrap_or_else(eof_error);
            return format!("connection lost mid-stream: {e}");
        };
        let mut tail = TailRead {
            buf: &self.buf[1..],
            err,
        };
        match self.body(tag).and_then(|body| self.parse(body, &mut tail)) {
            Err(e) => e,
            Ok(_) => format!("connection lost mid-stream: {}", eof_error()),
        }
    }

    /// The one tag filter: the body `tag` announces on this stream's
    /// role, or the abort reason for a tag the role does not accept.
    fn body(&self, tag: u8) -> Result<Body, String> {
        match (tag, self.role) {
            (MSG_PACKET, Role::Decode) => Ok(Body::Packet),
            (MSG_FRAME, Role::Encode | Role::Publish) => Ok(Body::Frame),
            (MSG_RETARGET, _) => Ok(Body::Retarget),
            (MSG_END, _) => Ok(Body::End),
            (tag, _) => Err(format!("unexpected message tag 0x{tag:02X}")),
        }
    }

    /// How many buffered bytes (tag included) a parse of `body` needs
    /// before it can only fail on content, never on truncation. A header
    /// the parser rejects on its own — an over-cap packet length, an
    /// implausible or mismatched frame geometry — needs only the header:
    /// never wait for a payload no legitimate sender produces.
    fn need(&self, body: Body) -> usize {
        /// Tag byte plus the packet container header.
        const PACKET_NEED: usize = 1 + PACKET_HEADER_BYTES;
        /// Tag byte plus the frame header (`index`, `w`, `h`, `crc`).
        const FRAME_NEED: usize = 1 + 12;
        let buf = &self.buf;
        match body {
            Body::Packet if buf.len() >= PACKET_NEED => {
                let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
                if len <= MAX_PAYLOAD_BYTES {
                    PACKET_NEED + len
                } else {
                    PACKET_NEED
                }
            }
            Body::Packet => PACKET_NEED,
            Body::Frame if buf.len() >= FRAME_NEED => {
                let width = u16::from_le_bytes([buf[5], buf[6]]) as usize;
                let height = u16::from_le_bytes([buf[7], buf[8]]) as usize;
                let header_ok = width != 0
                    && height != 0
                    && width <= MAX_DIM
                    && height <= MAX_DIM
                    && (width, height) == self.expect;
                if header_ok {
                    FRAME_NEED + 12 * width * height
                } else {
                    FRAME_NEED
                }
            }
            Body::Frame => FRAME_NEED,
            // Tag byte plus the fixed-size retarget body.
            Body::Retarget => 1 + 9,
            Body::End => 1,
        }
    }

    /// Parses one message body from `r` — the buffer in
    /// [`next_msg`](MsgDecoder::next_msg), the truncated tail in
    /// [`interrupt`](MsgDecoder::interrupt) — mapping a failure to the
    /// abort reason the server reports.
    fn parse(&self, body: Body, r: &mut impl Read) -> Result<WireMsg, String> {
        match body {
            Body::Packet => Packet::read_from(r)
                .map(WireMsg::Packet)
                .map_err(|e| format!("bad packet: {e}")),
            Body::Frame => read_frame_body(r, Some(self.expect))
                .map(|(index, frame)| WireMsg::Frame(index, frame))
                .map_err(|e| format!("bad frame: {e}")),
            Body::Retarget => read_retarget_body(r)
                .map(WireMsg::Retarget)
                .map_err(|e| format!("bad retarget: {e}")),
            Body::End => Ok(WireMsg::End),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrips() {
        let h = Hello::ctvc_decode(2, 96, 64);
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(Hello::read_from(&mut &buf[..]).unwrap(), h);
        for h in [
            Hello::ctvc_encode(0, 16, 16),
            Hello::hybrid_decode(40, 640, 368),
            Hello::hybrid_encode(28, 1920, 1088),
        ] {
            let mut buf = Vec::new();
            h.write_to(&mut buf).unwrap();
            assert_eq!(Hello::read_from(&mut &buf[..]).unwrap(), h);
        }
    }

    #[test]
    fn hello_rejects_garbage() {
        // Every case carries the accepted version byte, so each fails
        // for the reason it names.
        let reason = |wire: &[u8]| match Hello::read_from(&mut &wire[..]) {
            Err(ServeError::Protocol(reason)) => reason,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        let bad_magic = reason(b"XXXX\x04\x00\x00\x00\x10\x00\x10\x00");
        assert!(bad_magic.starts_with("bad magic"), "{bad_magic}");
        assert_eq!(
            reason(b"NVCS\x04\x07\x00\x00\x10\x00\x10\x00"),
            "unknown codec family 0x07"
        );
        assert_eq!(
            reason(b"NVCS\x04\x00\x07\x00\x10\x00\x10\x00"),
            "unknown role 0x07"
        );
        assert_eq!(
            reason(b"NVCS\x04\x00\x00\x00\x00\x00\x10\x00"),
            "implausible stream geometry 0x16"
        );
        // Any other version — the retired 1–3 included — is refused on
        // the version byte alone.
        let mut wire = Vec::new();
        Hello::ctvc_encode(1, 32, 32).write_to(&mut wire).unwrap();
        assert_eq!(wire[4], VERSION);
        for version in [0, 1, 2, 3, 5, 9, 0xFF] {
            wire[4] = version;
            assert_eq!(
                reason(&wire),
                format!("unsupported protocol version {version} (accepted 4)")
            );
        }
        // Truncation at every prefix.
        let mut buf = Vec::new();
        Hello::ctvc_decode(1, 32, 32).write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(Hello::read_from(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn frame_message_roundtrips_bit_exactly() {
        let frame = Frame::from_tensor(Tensor::from_fn(Shape::new(1, 3, 6, 4), |_, c, y, x| {
            (c * 100 + y * 10 + x) as f32 * 0.01 - 0.3
        }))
        .unwrap();
        let mut buf = Vec::new();
        write_frame_msg(&mut buf, 7, &frame).unwrap();
        assert_eq!(buf[0], MSG_FRAME);
        let (index, back) = read_frame_body(&mut &buf[1..], None).unwrap();
        assert_eq!(index, 7);
        assert_eq!(back.tensor().as_slice(), frame.tensor().as_slice());
        // A negotiated-geometry mismatch is caught on the header alone.
        assert!(read_frame_body(&mut &buf[1..], Some((4, 6))).is_ok());
        assert!(read_frame_body(&mut &buf[1..13], Some((16, 16))).is_err());
        // Pixel corruption is caught by the CRC.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(read_frame_body(&mut &buf[1..], None).is_err());
        // Truncation fails cleanly.
        assert!(read_frame_body(&mut &buf[1..buf.len() - 4], None).is_err());
    }

    #[test]
    fn write_side_rejects_untransmittable_geometry() {
        let mut buf = Vec::new();
        let hello = Hello::ctvc_encode(1, MAX_DIM + 16, 32);
        let err = hello.write_to(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may hit the wire on rejection");
    }

    #[test]
    fn stats_message_roundtrips() {
        let stats = StreamStats {
            frames: 3,
            bytes_per_frame: vec![120, 40, 41],
            bits_per_frame: vec![1064, 424, 432],
            frame_types: vec![FrameType::Intra, FrameType::Predicted, FrameType::Predicted],
            rate_per_frame: vec![1, 1, 2],
            total_bytes: 240,
        };
        let mut buf = Vec::new();
        write_stats_msg(&mut buf, &stats).unwrap();
        assert_eq!(buf[0], MSG_STATS);
        assert_eq!(read_stats_body(&mut &buf[1..]).unwrap(), stats);
        assert!(read_stats_body(&mut &buf[1..buf.len() - 1]).is_err());
    }

    #[test]
    fn retarget_message_roundtrips() {
        let mut buf = Vec::new();
        for r in [
            Retarget::fixed(2),
            Retarget::fixed(3).with_restart(),
            Retarget::target_bpp(0.25, 8),
            Retarget::target_bpp(1.5, 0).with_restart(),
        ] {
            buf.clear();
            write_retarget_msg(&mut buf, &r).unwrap();
            assert_eq!(buf[0], MSG_RETARGET);
            assert_eq!(read_retarget_body(&mut &buf[1..]).unwrap(), r);
        }
        // Truncation and unknown mode tags fail cleanly.
        assert!(read_retarget_body(&mut &buf[1..buf.len() - 1]).is_err());
        buf[1] = 0x07;
        assert!(read_retarget_body(&mut &buf[1..]).is_err());
    }

    #[test]
    fn version4_client_identity_roundtrips() {
        let h = Hello::hybrid_encode(30, 64, 48).with_client("alice");
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(Hello::read_from(&mut &buf[..]).unwrap(), h);
        // Anonymous version-4 handshakes write a zero-length identity
        // and read back as `None`.
        let anon = Hello::hybrid_encode(30, 64, 48);
        let mut buf = Vec::new();
        anon.write_to(&mut buf).unwrap();
        assert_eq!(*buf.last().unwrap(), 0);
        assert_eq!(Hello::read_from(&mut &buf[..]).unwrap().client, None);
        // Empty and oversized identities are rejected on the write side.
        let mut empty = anon.clone();
        empty.client = Some(String::new());
        assert!(empty.write_to(&mut Vec::new()).is_err());
        let long = "c".repeat(MAX_NAME_BYTES + 1);
        assert!(Hello::hybrid_encode(30, 64, 48)
            .with_client(&long)
            .write_to(&mut Vec::new())
            .is_err());
        // Truncation inside the identity fails cleanly.
        let mut buf = Vec::new();
        Hello::hybrid_encode(30, 64, 48)
            .with_client("alice")
            .write_to(&mut buf)
            .unwrap();
        for cut in 0..buf.len() {
            assert!(Hello::read_from(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn ack_layout_is_version_gated() {
        // The version-4 ack, the only layout: tag, rate, flags.
        let ack = Ack {
            rate: 2,
            degraded: true,
        };
        let mut v4 = Vec::new();
        write_ack_msg(&mut v4, &ack).unwrap();
        assert_eq!(v4, [MSG_ACK, 2, ACK_DEGRADED]);
        assert_eq!(read_ack_body(&mut &v4[1..]).unwrap(), ack);
        let plain = ack_msg_bytes(&Ack {
            rate: 30,
            degraded: false,
        });
        assert_eq!(plain, [MSG_ACK, 30, 0]);
        // Unknown flag bits are ignored, truncation is not.
        let future = [7u8, 0xFE];
        assert!(!read_ack_body(&mut &future[..]).unwrap().degraded);
        assert!(read_ack_body(&mut &v4[1..2]).is_err());
    }

    #[test]
    fn broadcast_hellos_roundtrip() {
        for h in [
            Hello::ctvc_publish(2, 96, 64, "game").with_gop(12),
            Hello::hybrid_publish(28, 640, 368, "screen-share"),
            Hello::subscribe("game", 96, 64),
            Hello::subscribe("screen-share", 640, 368).with_family(Family::Hybrid),
            Hello::ctvc_publish(1, 32, 32, "g").with_target_bpp(0.4, 4),
        ] {
            let mut buf = Vec::new();
            h.write_to(&mut buf).unwrap();
            assert_eq!(Hello::read_from(&mut &buf[..]).unwrap(), h, "{h:?}");
        }
        // Truncation at every prefix still fails cleanly.
        let mut buf = Vec::new();
        Hello::ctvc_publish(1, 32, 32, "game")
            .write_to(&mut buf)
            .unwrap();
        for cut in 0..buf.len() {
            assert!(Hello::read_from(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn broadcast_name_rules_are_enforced() {
        // Broadcast roles need a name.
        let mut nameless = Hello::ctvc_publish(1, 32, 32, "x");
        nameless.broadcast = None;
        assert!(nameless.write_to(&mut Vec::new()).is_err());
        // Empty and oversized names are rejected.
        assert!(Hello::ctvc_publish(1, 32, 32, "")
            .write_to(&mut Vec::new())
            .is_err());
        let long = "n".repeat(MAX_NAME_BYTES + 1);
        assert!(Hello::subscribe(&long, 32, 32)
            .write_to(&mut Vec::new())
            .is_err());
        // Point-to-point roles cannot carry one.
        let mut stray = Hello::ctvc_encode(1, 32, 32);
        stray.broadcast = Some("game".into());
        assert!(stray.write_to(&mut Vec::new()).is_err());
        // The same rules hold on the read side (hand-built wire bytes).
        let mut buf = Vec::new();
        Hello::ctvc_publish(1, 32, 32, "game")
            .write_to(&mut buf)
            .unwrap();
        let name_len_at = buf.len() - 5; // [len:u8]["game"]
        let mut wire = buf.clone();
        wire[name_len_at] = 0;
        wire.truncate(name_len_at + 1);
        assert!(
            Hello::read_from(&mut &wire[..]).is_err(),
            "publish without a name"
        );
        let mut wire = buf.clone();
        wire[6] = 0; // Encode role, name still present
        assert!(
            Hello::read_from(&mut &wire[..]).is_err(),
            "encode with a stray name"
        );
        let mut wire = buf;
        wire[name_len_at + 1] = 0xFF; // not UTF-8
        assert!(Hello::read_from(&mut &wire[..]).is_err(), "non-UTF-8 name");
    }

    #[test]
    fn join_message_roundtrips() {
        let join = JoinInfo {
            family: Family::Ctvc,
            width: 96,
            height: 64,
            start_index: 24,
            rate: 2,
            gop: 8,
        };
        let mut buf = Vec::new();
        write_join_msg(&mut buf, &join).unwrap();
        assert_eq!(buf[0], MSG_JOIN);
        assert_eq!(read_join_body(&mut &buf[1..]).unwrap(), join);
        // Truncation and a bad family tag fail cleanly.
        assert!(read_join_body(&mut &buf[1..buf.len() - 1]).is_err());
        buf[1] = 0x07;
        assert!(read_join_body(&mut &buf[1..]).is_err());
    }

    #[test]
    fn target_bpp_hello_roundtrips() {
        let h = Hello::hybrid_encode(30, 64, 48).with_target_bpp(0.42, 6);
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let back = Hello::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back, h);
        let t = back.target.unwrap();
        assert_eq!(t.milli_bpp, 420);
        assert!((t.bpp() - 0.42).abs() < 1e-9);
        assert_eq!(t.window, 6);
    }

    #[test]
    fn error_message_roundtrips_and_caps() {
        let mut buf = Vec::new();
        write_error_msg(&mut buf, "decode: packet CRC mismatch").unwrap();
        assert_eq!(buf[0], MSG_ERROR);
        assert_eq!(
            read_error_body(&mut &buf[1..]).unwrap(),
            "decode: packet CRC mismatch"
        );
        // A hostile length field is rejected without allocating.
        let mut hostile = vec![0xFF, 0xFF, 0xFF, 0x7F];
        hostile.extend_from_slice(b"x");
        assert!(read_error_body(&mut &hostile[..]).is_err());
    }
}
