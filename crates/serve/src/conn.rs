//! Per-connection state for the event-driven serving core: the shared
//! outbox every byte leaves through, nonblocking write servicing, and
//! the subscriber ring pump.
//!
//! Each connection owns one [`OutState`] outbox. Producers — compute
//! workers running session runners, the poller's handshake logic, the
//! ring pump — queue [`Chunk`]s into it under a mutex and wake the
//! poller; the poller alone performs socket writes, draining the outbox
//! whenever the socket is write-ready ([`service_writes`]). Broadcast
//! fan-out chunks hold the cached packet by `Arc` ([`Chunk::Shared`]),
//! so 10 000 subscribers share one copy of every coded frame and the
//! per-subscriber cost is a vectored write.
//!
//! Connection teardown is a queued [`CloseKind`], not an immediate
//! `shutdown`: the close applies only once every previously queued byte
//! has left, which preserves the old blocking writer's guarantee that an
//! error notice or stats trailer always precedes the FIN.

use crate::broadcast::{CachedPacket, RingPop, SubscriberRing};
use crate::poll::PollWaker;
use crate::proto::{error_msg_bytes, stats_msg_bytes, HelloDecoder, MsgDecoder, MSG_PACKET};
use crate::server::{Job, Slot};
use crate::sync::LockExt;
use nvc_video::StreamStats;
use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outbox backpressure bound for subscriber connections: the ring pump
/// stops transferring packets once this many bytes are queued, leaving
/// the rest in the ring — where overflow is detected and the lagging
/// subscriber evicted. An unbounded outbox would defeat eviction by
/// pinning every published packet for the slowest reader. The join-time
/// backlog bypasses the cap (it is at most one GOP segment, queued
/// before the first pump).
pub(crate) const SUB_OUTBOX_CAP: usize = 64 * 1024;

/// One queued unit of output.
#[derive(Debug)]
pub(crate) enum Chunk {
    /// Bytes owned by this connection (handshake replies, encoded
    /// packets, frames, trailers, error notices).
    Own(Vec<u8>),
    /// One broadcast packet, `Arc`-shared with every other subscriber.
    /// Logically the `'P'` tag byte followed by the serialized packet;
    /// the tag is materialized only inside the vectored write.
    Shared(Arc<CachedPacket>),
}

impl Chunk {
    fn len(&self) -> usize {
        match self {
            Chunk::Own(bytes) => bytes.len(),
            Chunk::Shared(packet) => 1 + packet.bytes.len(),
        }
    }
}

/// How a connection should end once its outbox drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseKind {
    /// Flush everything, then close both directions.
    Graceful,
    /// Flush everything (the last chunk is an `'X'` notice), then shut
    /// down the write side and give the peer a bounded window to read
    /// the notice before the hard close — the old post-error drain.
    Drain,
}

/// A connection's outbox. Shared between the poller (sole writer to the
/// socket) and whichever producer feeds this connection.
#[derive(Debug, Default)]
pub(crate) struct OutState {
    chunks: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    front_pos: usize,
    /// Total unwritten bytes across all chunks.
    queued: usize,
    /// The socket died under a write; everything queued was discarded
    /// and future pushes are black-holed.
    gone: bool,
    /// Queued end-of-connection, applied when the outbox drains. First
    /// close wins.
    close: Option<CloseKind>,
}

/// Queues owned bytes (no-op once the socket is gone).
pub(crate) fn push_bytes(out: &Mutex<OutState>, bytes: Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let mut st = out.lock_clean();
    if st.gone {
        return;
    }
    st.queued += bytes.len();
    st.chunks.push_back(Chunk::Own(bytes));
}

/// Queues one `Arc`-shared broadcast packet.
pub(crate) fn push_shared(out: &Mutex<OutState>, packet: Arc<CachedPacket>) {
    let mut st = out.lock_clean();
    if st.gone {
        return;
    }
    st.queued += 1 + packet.bytes.len();
    st.chunks.push_back(Chunk::Shared(packet));
}

/// The queued equivalent of the old blocking `hangup`: queues a
/// connection's last bytes — `tail` (a trailer, say), then with a
/// message the `'X'` notice — and its close: draining after a notice,
/// graceful otherwise.
///
/// Bytes and close go in under *one* lock, so no write pass can send
/// the last byte without also seeing the close; the poller then frees
/// the connection's slot in the pass that ends the conversation (see
/// `Poller::release`). The first queued close wins — a later, different
/// close (say a graceful end racing an eviction) must not override what
/// the peer is already being told.
pub(crate) fn queue_hangup(out: &Mutex<OutState>, mut tail: Vec<u8>, message: Option<&str>) {
    let kind = match message {
        Some(message) => {
            tail.extend_from_slice(&error_msg_bytes(message));
            CloseKind::Drain
        }
        None => CloseKind::Graceful,
    };
    let mut st = out.lock_clean();
    if !st.gone && !tail.is_empty() {
        st.queued += tail.len();
        st.chunks.push_back(Chunk::Own(tail));
    }
    st.close.get_or_insert(kind);
}

/// Result of one write-servicing pass over a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteStatus {
    /// Nothing queued, no close pending.
    Idle,
    /// The outbox drained fully (no close pending).
    Progress,
    /// The socket stopped accepting bytes with data still queued.
    /// `progressed` says whether this pass wrote anything first —
    /// progress resets the write-stall clock.
    Blocked {
        /// Whether any bytes left before the socket blocked.
        progressed: bool,
    },
    /// The peer is gone (zero-length write or hard error). The outbox
    /// was discarded.
    Gone,
    /// The outbox drained and a close was queued: apply it.
    Close(CloseKind),
}

/// Upper bound on the `IoSlice`s gathered into one vectored write (well
/// under every platform's `IOV_MAX`).
const GATHER_MAX: usize = 32;

/// Drains a connection's outbox into its nonblocking socket until the
/// outbox empties or the socket blocks. The only place socket writes
/// happen. Queued chunks are gathered into a single vectored write —
/// when fan-out saturates and several packets are queued per
/// subscriber, one syscall moves them all, which is what keeps the
/// per-subscriber cost from scaling with backlog depth.
pub(crate) fn service_writes(sock: &TcpStream, out: &Mutex<OutState>) -> WriteStatus {
    let mut st = out.lock_clean();
    if st.gone {
        return WriteStatus::Gone;
    }
    let tag = [MSG_PACKET];
    let mut progressed = false;
    loop {
        if st.chunks.is_empty() {
            break;
        }
        let res = {
            let mut slices = [IoSlice::new(&[]); GATHER_MAX];
            let mut used = 0;
            for (i, chunk) in st.chunks.iter().enumerate() {
                if used + 2 > GATHER_MAX {
                    break;
                }
                let skip = if i == 0 { st.front_pos } else { 0 };
                match chunk {
                    Chunk::Own(bytes) => {
                        slices[used] = IoSlice::new(&bytes[skip..]);
                        used += 1;
                    }
                    Chunk::Shared(packet) => {
                        if skip == 0 {
                            slices[used] = IoSlice::new(&tag);
                            slices[used + 1] = IoSlice::new(&packet.bytes);
                            used += 2;
                        } else {
                            slices[used] = IoSlice::new(&packet.bytes[skip - 1..]);
                            used += 1;
                        }
                    }
                }
            }
            (&*sock).write_vectored(&slices[..used])
        };
        match res {
            Ok(0) => {
                st.gone = true;
                st.chunks.clear();
                st.queued = 0;
                return WriteStatus::Gone;
            }
            Ok(mut n) => {
                progressed = true;
                st.queued -= n;
                while n > 0 {
                    // The kernel never reports more written than was
                    // submitted, so bytes always map onto chunks; bail
                    // rather than panic if that assumption ever breaks.
                    let Some(front) = st.chunks.front() else {
                        st.front_pos = 0;
                        break;
                    };
                    let left = front.len() - st.front_pos;
                    if n >= left {
                        n -= left;
                        st.chunks.pop_front();
                        st.front_pos = 0;
                    } else {
                        st.front_pos += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return WriteStatus::Blocked { progressed };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                st.gone = true;
                st.chunks.clear();
                st.queued = 0;
                return WriteStatus::Gone;
            }
        }
    }
    match st.close {
        Some(kind) => WriteStatus::Close(kind),
        None if progressed => WriteStatus::Progress,
        None => WriteStatus::Idle,
    }
}

/// A producer-side handle to a connection's outbox, implementing
/// [`Write`] so session runners keep using `write_*_msg` + `flush`
/// exactly as they did against a `BufWriter<TcpStream>`. Writes buffer
/// locally; `flush` publishes the buffer as one chunk and wakes the
/// poller.
pub(crate) struct OutHandle {
    out: Arc<Mutex<OutState>>,
    waker: PollWaker,
    buf: Vec<u8>,
}

impl OutHandle {
    pub(crate) fn new(out: Arc<Mutex<OutState>>, waker: PollWaker) -> Self {
        OutHandle {
            out,
            waker,
            buf: Vec::new(),
        }
    }

    /// The old blocking `hangup`, producer-side: queue whatever is
    /// buffered, the optional `'X'` notice and the matching close in
    /// one step ([`queue_hangup`]), then wake the poller.
    pub(crate) fn hangup(&mut self, message: Option<&str>) {
        queue_hangup(&self.out, std::mem::take(&mut self.buf), message);
        self.waker.wake();
    }
}

impl Write for OutHandle {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut st = self.out.lock_clean();
        if st.gone {
            // Surface the death like a failed socket write would have,
            // so runner steps that flush mid-stream report an error.
            self.buf.clear();
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer connection lost",
            ));
        }
        let chunk = std::mem::take(&mut self.buf);
        st.queued += chunk.len();
        st.chunks.push_back(Chunk::Own(chunk));
        drop(st);
        self.waker.wake();
        Ok(())
    }
}

/// Transfers ring packets into a subscriber's outbox, stopping at the
/// backpressure cap, ring exhaustion, or a terminal ring state. Returns
/// `true` when the subscription reached its end (trailer or error
/// queued, close set) — the connection then only needs its outbox
/// drained.
pub(crate) fn pump_subscriber(
    ring: &SubscriberRing,
    out: &Mutex<OutState>,
    stats: &mut StreamStats,
) -> bool {
    loop {
        {
            let st = out.lock_clean();
            if st.gone || st.close.is_some() {
                return false;
            }
            // Backpressure: leave packets in the ring once the outbox
            // is full — ring overflow is where lagging is detected.
            if !st.chunks.is_empty() && st.queued >= SUB_OUTBOX_CAP {
                return false;
            }
        }
        match ring.pop(Duration::ZERO) {
            RingPop::Packet(packet) => {
                packet.record_into(stats);
                push_shared(out, packet);
            }
            RingPop::Empty => return false,
            RingPop::Closed => {
                queue_hangup(out, stats_msg_bytes(stats), None);
                return true;
            }
            RingPop::Evicted(reason) | RingPop::Failed(reason) => {
                queue_hangup(out, Vec::new(), Some(&reason));
                return true;
            }
        }
    }
}

/// One registered connection on the poller.
pub(crate) struct Conn<'env> {
    pub(crate) sock: TcpStream,
    pub(crate) out: Arc<Mutex<OutState>>,
    /// Bumped whenever the connection changes phase; a timer fire whose
    /// generation doesn't match is stale and ignored.
    pub(crate) gen: u32,
    /// The write side is shut down and the connection only waits out
    /// its post-error drain window (reads are discarded).
    pub(crate) draining: bool,
    /// When the current write stall started, if the socket is blocked.
    pub(crate) stalled_since: Option<Instant>,
    /// Delay before the next blocked-write probe; doubles while the
    /// socket stays full, resets on any progress.
    pub(crate) retry_backoff: Duration,
    /// A `WriteRetry` timer is already pending for this connection.
    pub(crate) retry_armed: bool,
    pub(crate) kind: ConnKind<'env>,
}

/// What phase a connection is in — its protocol state machine.
pub(crate) enum ConnKind<'env> {
    /// Accumulating the handshake.
    Hello(HelloDecoder),
    /// An established encode/decode/publish session: bytes decode into
    /// jobs for the compute workers via the session's slot.
    Session {
        slot: Arc<Slot<'env>>,
        decoder: MsgDecoder,
        /// A decoded job the slot had no queue space for; retried when
        /// the workers free space and wake this connection.
        parked: Option<Job>,
        /// The stream saw its terminal job; remaining input is ignored.
        ended: bool,
    },
    /// An established subscriber: packets flow ring → outbox → socket.
    Subscriber {
        ring: Arc<SubscriberRing>,
        /// The trailer so far: the same per-frame columns an encode
        /// stream's trailer carries, recorded from the cached packets
        /// so it describes exactly the bytes this subscriber received.
        stats: StreamStats,
        /// The subscription ended; only the outbox drain remains.
        done: bool,
    },
    /// Nothing left but flushing the outbox and closing.
    Finishing,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::{BroadcastInfo, BroadcastRegistry};
    use crate::poll::PollShared;
    use crate::proto::{read_error_body, read_stats_body, MSG_ERROR, MSG_STATS};
    use nvc_entropy::container::{FrameKind, Packet};
    use std::io::Read;
    use std::net::{Shutdown, TcpListener};

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (server, client)
    }

    fn cached(frame_index: u32, kind: FrameKind) -> CachedPacket {
        let packet = Packet::new(frame_index, kind, vec![frame_index as u8; 16]);
        CachedPacket {
            bytes: packet.to_bytes(),
            payload_len: packet.payload.len(),
            frame_index,
            kind,
            rate: 1,
        }
    }

    /// Lag eviction, end to end over real sockets but fully
    /// deterministic: publish into the rings first, then drive the pump
    /// and write servicing by hand. The evicted subscriber must receive
    /// a clean `'X'` with the lag reason and a closed connection; the
    /// fast one streams every packet and the trailer, unaffected.
    #[test]
    fn evicted_subscriber_gets_a_clean_error_while_others_stream_on() {
        let registry = BroadcastRegistry::new();
        let info = BroadcastInfo {
            family: crate::proto::Family::Ctvc,
            width: 32,
            height: 32,
            gop: 4,
        };
        let mut guard = registry.create("game", info, 1).unwrap();
        let slow_att = guard.broadcast().attach(2).unwrap();
        let fast_att = guard.broadcast().attach(64).unwrap();
        let mut evicted = 0;
        for i in 0..4 {
            let kind = if i == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Predicted
            };
            evicted += guard.broadcast().publish(cached(i, kind));
        }
        assert_eq!(evicted, 1, "the capacity-2 ring must overflow");
        guard.finish();

        let (slow_srv, mut slow_client) = socket_pair();
        let (fast_srv, mut fast_client) = socket_pair();
        let slow_out = Mutex::new(OutState::default());
        let fast_out = Mutex::new(OutState::default());

        let mut slow_stats = StreamStats::default();
        assert!(
            pump_subscriber(&slow_att.ring, &slow_out, &mut slow_stats),
            "eviction is terminal"
        );
        match service_writes(&slow_srv, &slow_out) {
            WriteStatus::Close(CloseKind::Drain) => {
                slow_srv.shutdown(Shutdown::Write).unwrap();
            }
            other => panic!("expected a draining close, got {other:?}"),
        }

        let mut fast_stats = StreamStats::default();
        assert!(
            pump_subscriber(&fast_att.ring, &fast_out, &mut fast_stats),
            "a closed broadcast is terminal"
        );
        match service_writes(&fast_srv, &fast_out) {
            WriteStatus::Close(CloseKind::Graceful) => {
                fast_srv.shutdown(Shutdown::Both).unwrap();
            }
            other => panic!("expected a graceful close, got {other:?}"),
        }

        let mut tag = [0u8; 1];
        slow_client.read_exact(&mut tag).unwrap();
        assert_eq!(tag[0], MSG_ERROR, "eviction must arrive as 'X'");
        let reason = read_error_body(&mut &slow_client).unwrap();
        assert!(reason.contains("lagging"), "{reason}");
        assert_eq!(
            slow_client.read(&mut tag).unwrap(),
            0,
            "connection must close after the eviction notice"
        );

        for want in 0..4u32 {
            fast_client.read_exact(&mut tag).unwrap();
            assert_eq!(tag[0], MSG_PACKET);
            let packet = Packet::read_from(&mut &fast_client).unwrap();
            assert_eq!(packet.frame_index, want);
        }
        fast_client.read_exact(&mut tag).unwrap();
        assert_eq!(tag[0], MSG_STATS, "clean end must carry the trailer");
        let stats = read_stats_body(&mut &fast_client).unwrap();
        assert_eq!(stats.frames, 4);
    }

    /// The outbox applies a queued close only after every previously
    /// queued byte has left, and black-holes writes once the peer dies.
    #[test]
    fn outbox_orders_notices_before_close_and_blackholes_the_dead() {
        let (srv, mut client) = socket_pair();
        let out = Mutex::new(OutState::default());
        queue_hangup(&out, Vec::new(), Some("boom"));
        assert!(matches!(
            service_writes(&srv, &out),
            WriteStatus::Close(CloseKind::Drain)
        ));
        srv.shutdown(Shutdown::Write).unwrap();
        let mut tag = [0u8; 1];
        client.read_exact(&mut tag).unwrap();
        assert_eq!(tag[0], MSG_ERROR);
        assert_eq!(read_error_body(&mut &client).unwrap(), "boom");

        // Peer closes; the next serviced write discovers the death and
        // subsequent pushes are dropped.
        drop(client);
        loop {
            push_bytes(&out, vec![0u8; 4096]);
            match service_writes(&srv, &out) {
                WriteStatus::Gone => break,
                WriteStatus::Progress | WriteStatus::Blocked { .. } => {}
                other => panic!("unexpected status {other:?}"),
            }
        }
        push_bytes(&out, vec![1u8; 16]);
        assert_eq!(out.lock().unwrap().queued, 0, "dead outbox drops pushes");
        assert!(matches!(service_writes(&srv, &out), WriteStatus::Gone));
    }

    /// A runner's hangup publishes its last bytes and the close at
    /// once, so whatever the poller finds when woken, a queued trailer
    /// or notice never comes without its close. Queued in two steps, a
    /// write pass could send the trailer, the client reconnect, and the
    /// accept run before the pass that frees the finished session's
    /// slot: "server at session capacity" after a clean finish. Every
    /// wake is held at the wake queue's lock, so the outbox is observed
    /// exactly as the producer's first wake published it.
    #[test]
    fn hangup_queues_the_last_bytes_and_the_close_together() {
        for (message, kind) in [
            (None, CloseKind::Graceful),
            (Some("boom"), CloseKind::Drain),
        ] {
            let shared = PollShared::new();
            let out = Arc::new(Mutex::new(OutState::default()));
            let mut handle =
                OutHandle::new(Arc::clone(&out), PollWaker::new(Arc::clone(&shared), 7));
            handle.write_all(b"trailer").unwrap();
            let wakes = shared.block_wakes();
            let producer = std::thread::spawn(move || handle.hangup(message));
            let deadline = Instant::now() + Duration::from_secs(10);
            let close = loop {
                let st = out.lock_clean();
                if !st.chunks.is_empty() {
                    break st.close;
                }
                drop(st);
                assert!(Instant::now() < deadline, "hangup queued nothing");
                std::thread::yield_now();
            };
            drop(wakes);
            producer.join().unwrap();
            assert_eq!(close, Some(kind), "bytes visible before their close");
        }
    }
}
