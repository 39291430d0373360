//! The blocking client side of the protocol.

use crate::proto::{
    read_error_body, read_frame_body, read_handshake_ack, read_stats_body, read_u8,
    write_frame_msg, write_packet_msg, write_retarget_msg, Ack, Hello, Retarget, Role, MSG_END,
    MSG_ERROR, MSG_FRAME, MSG_PACKET, MSG_STATS,
};
use crate::ServeError;
use nvc_entropy::container::Packet;
use nvc_video::{Frame, StreamStats};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Everything a finished stream produced, in order.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Reconstructed frames (decode streams; empty for encode streams).
    pub frames: Vec<Frame>,
    /// Coded packets (encode streams; empty for decode streams).
    pub packets: Vec<Packet>,
    /// The server's stream-statistics trailer.
    pub stats: StreamStats,
    /// Per-response round-trip latency, send to receipt, in message
    /// order. With a pipelining window > 1 this includes queueing time —
    /// the latency a serving client actually observes.
    pub latencies: Vec<Duration>,
}

/// A blocking streaming connection to a [`Server`](crate::Server).
///
/// Messages pipeline: up to [`window`](StreamClient::set_window)
/// requests stay in flight before a send blocks on reading a response,
/// overlapping client I/O with server compute. Responses arrive in
/// stream order and accumulate internally; [`StreamClient::finish`]
/// returns them all plus the stats trailer.
pub struct StreamClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    hello: Hello,
    ack: Ack,
    window: usize,
    outstanding: usize,
    sent_at: VecDeque<Instant>,
    frames: Vec<Frame>,
    packets: Vec<Packet>,
    latencies: Vec<Duration>,
    next_frame_index: u32,
}

impl std::fmt::Debug for StreamClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamClient({:?}, window {}, {} in flight)",
            self.hello, self.window, self.outstanding
        )
    }
}

enum Response {
    Frame(Frame),
    Packet(Packet),
    Stats(StreamStats),
}

impl StreamClient {
    /// Connects and performs the handshake. A server-side rejection
    /// (bogus rate, bad geometry, capacity) surfaces as
    /// [`ServeError::Remote`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on connection, handshake or rejection.
    pub fn connect(addr: impl ToSocketAddrs, hello: Hello) -> Result<Self, ServeError> {
        if hello.role == Role::Subscribe {
            return Err(ServeError::Protocol(
                "subscribe streams use SubscribeClient".into(),
            ));
        }
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        hello.write_to(&mut writer)?;
        writer.flush()?;
        let ack = read_handshake_ack(&mut reader)?;
        Ok(StreamClient {
            reader,
            writer,
            hello,
            ack,
            window: 4,
            outstanding: 0,
            sent_at: VecDeque::new(),
            frames: Vec::new(),
            packets: Vec::new(),
            latencies: Vec::new(),
            next_frame_index: 0,
        })
    }

    /// The negotiated handshake.
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// The rate the server actually granted in its handshake ack. Equal
    /// to the requested [`Hello::rate`] unless the session was admitted
    /// degraded, in which case a fixed-rate stream starts at this wire
    /// rate instead (target-bpp streams echo the request; the shrunk
    /// target is applied server-side).
    pub fn granted_rate(&self) -> u8 {
        self.ack.rate
    }

    /// Whether the server admitted this session *degraded* — below its
    /// requested rate because the governor's aggregate budget is under
    /// pressure.
    pub fn admitted_degraded(&self) -> bool {
        self.ack.degraded
    }

    /// Sets the pipelining window (clamped to ≥ 1): how many requests
    /// may be in flight before a send blocks on a response. Keep it
    /// small relative to OS socket buffering; the default is 4.
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Sets a read timeout on the underlying socket (tests use this to
    /// turn a would-be hang into an error).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Streams one coded packet to a decode-direction server. Responses
    /// drained while honoring the window accumulate for
    /// [`StreamClient::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, socket failure, or
    /// a server-reported error.
    pub fn send_packet(&mut self, packet: &Packet) -> Result<(), ServeError> {
        if self.hello.role != Role::Decode {
            return Err(ServeError::Protocol(
                "send_packet on an encode-direction stream".into(),
            ));
        }
        if let Err(e) =
            write_packet_msg(&mut self.writer, packet).and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        self.on_sent()
    }

    /// Streams one raw frame to an encode-direction server.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, socket failure, or
    /// a server-reported error.
    pub fn send_frame(&mut self, frame: &Frame) -> Result<(), ServeError> {
        if !matches!(self.hello.role, Role::Encode | Role::Publish) {
            return Err(ServeError::Protocol(
                "send_frame on a decode-direction stream".into(),
            ));
        }
        if let Err(e) = write_frame_msg(&mut self.writer, self.next_frame_index, frame)
            .and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        self.next_frame_index += 1;
        self.on_sent()
    }

    /// Retargets the rate control of an encode-direction stream
    /// mid-flight (the `'R'` message): frames already sent keep the old
    /// mode, frames sent after this use the new one. The message gets no
    /// response of its own, so it does not consume pipelining window.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on the wrong direction, socket failure, or
    /// a server-reported error.
    pub fn retarget(&mut self, retarget: Retarget) -> Result<(), ServeError> {
        if !matches!(self.hello.role, Role::Encode | Role::Publish) {
            return Err(ServeError::Protocol(
                "retarget on a decode-direction stream".into(),
            ));
        }
        if let Err(e) =
            write_retarget_msg(&mut self.writer, &retarget).and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        Ok(())
    }

    /// A failed send usually means the server already aborted the stream
    /// and the real reason is queued on the read side — prefer reporting
    /// that over a bare broken-pipe error.
    fn surface_send_error(&mut self, original: ServeError) -> ServeError {
        let prior = self.reader.get_ref().read_timeout().ok().flatten();
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(2)));
        let mut verdict = original;
        for _ in 0..64 {
            match self.recv() {
                Ok(_) => continue, // drain in-flight responses
                Err(remote @ ServeError::Remote(_)) => {
                    verdict = remote;
                    break;
                }
                Err(_) => break,
            }
        }
        let _ = self.reader.get_ref().set_read_timeout(prior);
        verdict
    }

    fn on_sent(&mut self) -> Result<(), ServeError> {
        self.outstanding += 1;
        self.sent_at.push_back(Instant::now());
        while self.outstanding > self.window {
            match self.recv()? {
                Response::Frame(f) => self.frames.push(f),
                Response::Packet(p) => self.packets.push(p),
                Response::Stats(_) => {
                    return Err(ServeError::Protocol(
                        "stats trailer before end of stream".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ServeError> {
        let tag = read_u8(&mut self.reader)?;
        let response = match tag {
            MSG_FRAME => {
                let expect = (self.hello.width, self.hello.height);
                let (_, frame) = read_frame_body(&mut self.reader, Some(expect))?;
                Response::Frame(frame)
            }
            MSG_PACKET => Response::Packet(Packet::read_from(&mut self.reader)?),
            MSG_STATS => return Ok(Response::Stats(read_stats_body(&mut self.reader)?)),
            MSG_ERROR => return Err(ServeError::Remote(read_error_body(&mut self.reader)?)),
            tag => {
                return Err(ServeError::Protocol(format!(
                    "unexpected response tag 0x{tag:02X}"
                )))
            }
        };
        if let Some(sent) = self.sent_at.pop_front() {
            self.latencies.push(sent.elapsed());
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        Ok(response)
    }

    /// Blocks until every in-flight request has been answered (the
    /// pipelining window is empty). For publish streams this is a
    /// sequencing point: once `drain` returns, every frame sent so far
    /// has been encoded *and published*, so a subscriber attaching now
    /// is a well-defined "late joiner" relative to those frames.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on socket failure or a server-reported
    /// error.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        while self.outstanding > 0 {
            match self.recv()? {
                Response::Frame(f) => self.frames.push(f),
                Response::Packet(p) => self.packets.push(p),
                Response::Stats(_) => {
                    return Err(ServeError::Protocol(
                        "stats trailer before end of stream".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Ends the stream: sends the end-of-stream marker, drains every
    /// remaining response and returns the collected results plus the
    /// server's stats trailer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on socket failure or a server-reported
    /// error.
    pub fn finish(mut self) -> Result<StreamSummary, ServeError> {
        if let Err(e) = self
            .writer
            .write_all(&[MSG_END])
            .and_then(|()| self.writer.flush())
        {
            return Err(self.surface_send_error(e.into()));
        }
        loop {
            match self.recv()? {
                Response::Frame(f) => self.frames.push(f),
                Response::Packet(p) => self.packets.push(p),
                Response::Stats(stats) => {
                    return Ok(StreamSummary {
                        frames: self.frames,
                        packets: self.packets,
                        stats,
                        latencies: self.latencies,
                    })
                }
            }
        }
    }
}
