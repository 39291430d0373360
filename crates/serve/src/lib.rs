//! `nvc-serve` — a `std::net`-only multi-session streaming server and
//! client library for the workspace's codecs.
//!
//! The packet container ([`nvc_entropy::container::Packet`]: length
//! prefix + CRC) and the session API
//! ([`nvc_video::codec::EncoderSession`] / [`DecoderSession`]) were built
//! transport-shaped; this crate is the transport. A connection speaks a
//! small tagged-message protocol with one version, [`proto::VERSION`]
//! (see [`proto`]):
//!
//! 1. a [`Hello`] handshake fixes the codec family (learned CTVC-Net or
//!    the classical hybrid), the stream geometry, the rate mode —
//!    fixed `RatePoint`/QP, validated server-side, or closed-loop
//!    target-bpp ([`Hello::with_target_bpp`]) — and the *direction*:
//!    whether the server runs the encoder (raw frames in, packets out)
//!    or the decoder (packets in, reconstructed frames out);
//! 2. length-delimited messages stream one coded [`Packet`] or one raw
//!    frame at a time, each answered in order by the opposite kind; an
//!    encode stream may interleave [`Retarget`] messages (`'R'`) to
//!    switch its rate mode mid-stream, optionally forcing an intra
//!    refresh at the switch;
//! 3. an end-of-stream marker is answered with a
//!    [`nvc_video::StreamStats`] trailer (per-frame byte and bit
//!    counts, frame types and the rate each frame was coded at), then
//!    the connection closes.
//!
//! Server side, a [`Server`] runs an *event-driven core*: one poller
//! thread owns the listener and every socket, all nonblocking, and
//! multiplexes them through a readiness loop built from `std` primitives
//! alone (a token-carrying wake channel plus a coarse timer wheel — no
//! `epoll` binding, no external crates). Handshakes and mid-stream
//! messages are parsed by resumable decoders that accept bytes in
//! arbitrary chunks; parsed jobs land in a bounded per-session queue (a
//! full queue parks the connection's decoder, backpressuring the client
//! through TCP), and a fixed set of workers schedules sessions onto the
//! compute in GOP-grain batches — packet *N + 1* of stream A is parsed
//! and validated while packet *N* of stream B runs reconstruction.
//! Every connection owns one live encoder/decoder session (the carried
//! reference state stays resident between packets, VCT-style); total
//! compute fan-out is capped by a shared [`nvc_core::ExecPool`], and the
//! server's thread count is `1 + workers`, independent of how many
//! thousands of connections are live. Client side, a blocking
//! [`StreamClient`] pipelines up to a window of messages per stream.
//!
//! Malformed input — a bogus handshake, a truncated or CRC-corrupted
//! packet, geometry that does not match the stream — yields a clean
//! error message to the peer and a closed connection, never a panic or a
//! hang; bitstreams and reconstructions are bit-identical to the
//! in-process session API at every worker count.
//!
//! # Broadcast
//!
//! Two more connection roles sit on top of the point-to-point
//! encode/decode pairs: a [`Role::Publish`] connection is
//! an encode stream whose coded packets are *also* published into a
//! named broadcast, and any number of [`Role::Subscribe`] connections
//! ([`SubscribeClient`]) attach to that name and receive the same packet
//! bytes — encoded once, fanned out to everyone. The publisher's
//! session runs in joinable-stream mode (every intra carries a full
//! stream header), the server caches the current GOP-aligned segment,
//! and a late joiner's stream starts at the most recent intra, so it is
//! decodable from its first packet. A subscriber that stops reading
//! while the publisher keeps going is evicted with a clean error rather
//! than ever slowing the broadcast down.
//!
//! # Governor & admission
//!
//! A server configured with [`ServeConfig::governor`] splits one
//! aggregate bit budget ([`GovernorConfig`]) across every live
//! encode/publish session, weighted by demand with per-client fairness
//! (the handshake's client-identity field, [`Hello::with_client`]).
//! Admission becomes a three-step response:
//! admit at full rate, admit *degraded* — started a few rungs down the
//! rate ladder, flagged in the handshake ack — or reject with a clean
//! `'X'` once projected demand or scheduler backlog pass the configured
//! ceilings. Under load every session walks down its ladder before any
//! session is dropped, and walks back up as load drains; grants are a
//! pure function of the live session set, so governed streams replay
//! byte-identically. [`ServeReport`]'s `degraded` / `throttle_steps` /
//! `restored` counters expose the curve's work.
//!
//! # Example
//!
//! ```
//! use nvc_model::CtvcConfig;
//! use nvc_serve::{Hello, ServeConfig, Server, StreamClient};
//! use nvc_video::synthetic::{SceneConfig, Synthesizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ServeConfig {
//!     ctvc: CtvcConfig::ctvc_fp(8),
//!     ..ServeConfig::default()
//! };
//! let server = Server::spawn("127.0.0.1:0", cfg)?;
//!
//! // Remote-encode two frames; the server returns the coded packets.
//! let seq = Synthesizer::new(SceneConfig::uvg_like(32, 32, 2)).generate();
//! let mut client = StreamClient::connect(server.addr(), Hello::ctvc_encode(1, 32, 32))?;
//! for frame in seq.frames() {
//!     client.send_frame(frame)?;
//! }
//! let summary = client.finish()?;
//! assert_eq!(summary.packets.len(), 2);
//! assert_eq!(summary.stats.frames, 2);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod broadcast;
mod client;
mod conn;
mod governor;
mod poll;
pub mod proto;
mod server;
mod subscribe;
mod sync;

pub use client::{StreamClient, StreamSummary};
pub use governor::GovernorConfig;
pub use proto::{Ack, Family, Hello, JoinInfo, Retarget, Role, TargetBppWire};
pub use server::{scrape_metrics, ServeConfig, ServeReport, Server, ServerHandle};
pub use subscribe::{SubscribeClient, SubscribeEvent, SubscribeSummary};

use std::error::Error;
use std::fmt;

/// Error type of the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed wire data detected locally (bad tag, bad CRC, bad
    /// geometry, truncation).
    Protocol(String),
    /// A failure reported by the peer before it closed the connection.
    Remote(String),
    /// Codec-side failure (invalid frame, undecodable payload).
    Codec(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Protocol(s) => write!(f, "protocol error: {s}"),
            ServeError::Remote(s) => write!(f, "remote error: {s}"),
            ServeError::Codec(s) => write!(f, "codec error: {s}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<nvc_entropy::CodingError> for ServeError {
    fn from(e: nvc_entropy::CodingError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

impl From<nvc_video::VideoError> for ServeError {
    fn from(e: nvc_video::VideoError) -> Self {
        ServeError::Codec(e.to_string())
    }
}
