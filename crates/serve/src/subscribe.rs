//! The subscriber side of a broadcast: the blocking [`SubscribeClient`].
//!
//! The server half of a subscription lives in the event-driven core —
//! `conn::pump_subscriber` transfers ring packets into the connection's
//! outbox and the poller drains the outbox on write-readiness — so this
//! module is purely the client.

use crate::proto::{
    read_error_body, read_handshake_ack, read_join_body, read_stats_body, read_u8, JoinInfo, Role,
    MSG_ERROR, MSG_JOIN, MSG_PACKET, MSG_STATS,
};
use crate::ServeError;
use nvc_entropy::container::Packet;
use nvc_video::StreamStats;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One event off a subscription.
#[derive(Debug, Clone)]
pub enum SubscribeEvent {
    /// The next coded packet, in publish order.
    Packet(Packet),
    /// The broadcast ended cleanly; the trailer covers exactly the
    /// packets this subscriber received.
    End(StreamStats),
}

/// Everything a completed subscription received.
#[derive(Debug, Clone)]
pub struct SubscribeSummary {
    /// The join info the server sent on attach.
    pub join: JoinInfo,
    /// Every received packet, in publish order (the first is an intra).
    pub packets: Vec<Packet>,
    /// The trailer: per-frame stats for the received packet range.
    pub stats: StreamStats,
}

/// A blocking subscriber connection to a broadcast on a
/// [`Server`](crate::Server). Subscribers only read after the
/// handshake: packets arrive as the publisher produces them, starting
/// at an intra boundary (late joiners replay the current GOP segment).
///
/// A lagging subscriber — one that stops calling [`next_event`] while
/// the publisher keeps going — is *evicted*: the server reports the lag
/// as a [`ServeError::Remote`] and closes the connection rather than
/// ever stalling the publisher.
///
/// [`next_event`]: SubscribeClient::next_event
pub struct SubscribeClient {
    reader: BufReader<TcpStream>,
    join: JoinInfo,
}

impl std::fmt::Debug for SubscribeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubscribeClient({:?})", self.join)
    }
}

impl SubscribeClient {
    /// Connects and performs the subscribe handshake with the default
    /// ten-second join timeout; `hello` must come from
    /// [`Hello::subscribe`](crate::Hello::subscribe). A rejection
    /// (unknown name, geometry mismatch, capacity) surfaces as
    /// [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on connection, handshake or rejection.
    pub fn connect(addr: impl ToSocketAddrs, hello: crate::Hello) -> Result<Self, ServeError> {
        Self::connect_with(addr, hello, Some(Duration::from_secs(10)))
    }

    /// [`connect`](SubscribeClient::connect) with an explicit join
    /// timeout: the ack and join-info reads of the handshake abort with
    /// a timeout error instead of hanging forever when the server
    /// accepts the socket but never answers. The socket reverts to
    /// blocking reads once the join resolves — success *or* failure;
    /// a rejected handshake must not leave the timeout armed on a
    /// socket the caller may keep using — a quiet broadcast is normal,
    /// a quiet handshake is not. `None` disables the timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on connection, handshake, timeout or
    /// rejection.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        hello: crate::Hello,
        join_timeout: Option<Duration>,
    ) -> Result<Self, ServeError> {
        if hello.role != Role::Subscribe {
            return Err(ServeError::Protocol(
                "SubscribeClient needs a subscribe handshake".into(),
            ));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(join_timeout)?;
        let result = Self::join_handshake(&stream, hello);
        // Revert the handshake timeout on *every* path. On errors the
        // revert is best-effort: the join failure is what the caller
        // needs to see, not a second socket error from the cleanup.
        match &result {
            Ok(_) => stream.set_read_timeout(None)?,
            Err(_) => {
                let _ = stream.set_read_timeout(None);
            }
        }
        result
    }

    /// The timeout-guarded half of [`connect_with`]: hello out, ack and
    /// join info back.
    ///
    /// [`connect_with`]: SubscribeClient::connect_with
    fn join_handshake(stream: &TcpStream, hello: crate::Hello) -> Result<Self, ServeError> {
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream.try_clone()?);
        hello.write_to(&mut writer)?;
        writer.flush()?;
        read_handshake_ack(&mut reader)?;
        let join = match read_u8(&mut reader)? {
            MSG_JOIN => read_join_body(&mut reader)?,
            MSG_ERROR => return Err(ServeError::Remote(read_error_body(&mut reader)?)),
            tag => {
                return Err(ServeError::Protocol(format!(
                    "expected join info, got tag 0x{tag:02X}"
                )))
            }
        };
        Ok(SubscribeClient { reader, join })
    }

    /// What the server said about the joined broadcast.
    pub fn join(&self) -> &JoinInfo {
        &self.join
    }

    /// Sets a read timeout on the underlying socket.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Blocks for the next event: a packet, or the end-of-broadcast
    /// trailer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Remote`] when the server ends the
    /// subscription with an error — eviction for lagging, or a
    /// publisher-side failure.
    pub fn next_event(&mut self) -> Result<SubscribeEvent, ServeError> {
        match read_u8(&mut self.reader)? {
            MSG_PACKET => Ok(SubscribeEvent::Packet(Packet::read_from(&mut self.reader)?)),
            MSG_STATS => Ok(SubscribeEvent::End(read_stats_body(&mut self.reader)?)),
            MSG_ERROR => Err(ServeError::Remote(read_error_body(&mut self.reader)?)),
            tag => Err(ServeError::Protocol(format!(
                "unexpected subscription tag 0x{tag:02X}"
            ))),
        }
    }

    /// Drains the subscription to completion: every packet until the
    /// broadcast ends.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] as [`SubscribeClient::next`] does.
    pub fn collect(mut self) -> Result<SubscribeSummary, ServeError> {
        let mut packets = Vec::new();
        loop {
            match self.next_event()? {
                SubscribeEvent::Packet(packet) => packets.push(packet),
                SubscribeEvent::End(stats) => {
                    return Ok(SubscribeSummary {
                        join: self.join,
                        packets,
                        stats,
                    })
                }
            }
        }
    }
}
