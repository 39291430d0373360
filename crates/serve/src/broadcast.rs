//! Broadcast relay state: named broadcasts, GOP-aligned segment caching
//! and per-subscriber bounded rings.
//!
//! One *publisher* session encodes a stream once and [`publish`]es every
//! coded packet; any number of *subscribers* attach by name and receive
//! the same packet bytes (`Arc`-shared, never copied per subscriber)
//! through their own bounded ring. The design has two invariants:
//!
//! * **The publisher never blocks on a subscriber.** A ring that fills
//!   up means its subscriber is not draining; the ring is atomically
//!   switched to an evicted state and dropped from the fan-out list.
//!   The slow subscriber gets a clean error, everyone else is
//!   unaffected.
//! * **Every subscriber starts at an intra boundary.** The broadcast
//!   caches the current GOP-aligned segment (all packets since the last
//!   intra, which — in joinable-stream mode — carries a full stream
//!   header). Attaching atomically snapshots that segment as backlog
//!   and hooks the ring into the live fan-out, so the subscriber sees a
//!   gapless, decodable packet sequence from the most recent intra on.
//!
//! Lock order: a broadcast's state lock may be held while taking ring
//! locks, never the reverse.
//!
//! [`publish`]: Broadcast::publish

use crate::poll::PollWaker;
use crate::proto::Family;
use crate::sync::LockExt;
use nvc_entropy::container::FrameKind;
use nvc_video::StreamStats;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Ring fan-out metrics, on the process-global registry (rings are
/// created deep inside the publisher path, far from the server's
/// [`Counters`](crate::server)).
struct RingMetrics {
    /// Queue depth observed after each delivered push: how close the
    /// fan-out runs to the eviction cliff.
    occupancy: nvc_telemetry::Histogram,
    /// Packets subscribers drained from their rings.
    drained: nvc_telemetry::Counter,
    /// Full-ring evictions at push time.
    overflows: nvc_telemetry::Counter,
}

fn ring_metrics() -> &'static RingMetrics {
    static METRICS: OnceLock<RingMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = nvc_telemetry::Registry::global();
        RingMetrics {
            occupancy: registry.histogram("nvc_ring_occupancy"),
            drained: registry.counter("nvc_ring_drained_total"),
            overflows: registry.counter("nvc_ring_overflow_total"),
        }
    })
}

/// One coded packet as cached for fan-out: the serialized wire bytes
/// (shared by every subscriber) plus the metadata subscribers account
/// stats with, so they never re-parse the container.
#[derive(Debug)]
pub(crate) struct CachedPacket {
    /// The full serialized packet (`Packet::to_bytes`), written to each
    /// subscriber verbatim — byte identity across subscribers is by
    /// construction.
    pub bytes: Vec<u8>,
    /// The packet's payload length (stats: `bytes_per_frame`).
    pub payload_len: usize,
    /// Frame index of the coded frame.
    pub frame_index: u32,
    /// Intra or predicted.
    pub kind: FrameKind,
    /// Rate parameter the frame was coded at.
    pub rate: u8,
}

impl CachedPacket {
    /// Appends this packet's row to a subscriber's trailer.
    pub(crate) fn record_into(&self, stats: &mut StreamStats) {
        stats.record(self.payload_len, self.bytes.len(), self.kind, self.rate);
    }
}

/// Result of pushing one packet into a subscriber ring.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RingPush {
    /// Queued for the subscriber.
    Delivered,
    /// The ring was full: the subscriber is lagging and has now been
    /// evicted. The caller drops the ring from its fan-out list.
    Overflow,
    /// The subscriber is already gone (evicted, closed or detached).
    Detached,
}

/// Result of popping from a subscriber ring.
#[derive(Debug)]
pub(crate) enum RingPop {
    /// One packet, in publish order.
    Packet(Arc<CachedPacket>),
    /// Nothing is queued yet; poll again after the next wake.
    Empty,
    /// This subscriber was evicted for lagging (the reason is the error
    /// message to send). Terminal.
    Evicted(String),
    /// The publisher finished cleanly and every queued packet has been
    /// drained. Terminal.
    Closed,
    /// The publisher failed; queued packets have been drained first.
    /// Terminal.
    Failed(String),
}

#[derive(Debug, Default)]
struct RingState {
    queue: VecDeque<Arc<CachedPacket>>,
    evicted: Option<String>,
    closed: bool,
    failed: Option<String>,
    detached: bool,
}

/// A bounded SPSC ring between the publisher's fan-out and one
/// subscriber connection on the poller.
#[derive(Debug)]
pub(crate) struct SubscriberRing {
    cap: usize,
    ring: Mutex<RingState>,
    /// Wakes the poller thread that drains this ring, set when the
    /// subscriber connection is registered.
    ring_notify: Mutex<Option<PollWaker>>,
}

impl SubscriberRing {
    fn new(cap: usize) -> Self {
        SubscriberRing {
            cap: cap.max(1),
            ring: Mutex::new(RingState::default()),
            ring_notify: Mutex::new(None),
        }
    }

    /// Hooks the ring to a poller connection: every state change
    /// (packet, overflow, close, fail) additionally wakes the poller.
    pub(crate) fn set_notify(&self, waker: PollWaker) {
        *self.ring_notify.lock_clean() = Some(waker);
    }

    fn wake_poller(&self) {
        if let Some(waker) = self.ring_notify.lock_clean().as_ref() {
            waker.wake();
        }
    }

    fn push(&self, packet: Arc<CachedPacket>, lag_reason: impl FnOnce() -> String) -> RingPush {
        let mut state = self.ring.lock_clean();
        if state.detached || state.evicted.is_some() || state.closed || state.failed.is_some() {
            return RingPush::Detached;
        }
        if state.queue.len() >= self.cap {
            // Evict rather than block: queued packets are useless to a
            // reader this far behind, so reclaim their memory now.
            state.queue.clear();
            state.evicted = Some(lag_reason());
            drop(state);
            ring_metrics().overflows.inc();
            self.wake_poller();
            return RingPush::Overflow;
        }
        state.queue.push_back(packet);
        ring_metrics().occupancy.record(state.queue.len() as u64);
        drop(state);
        self.wake_poller();
        RingPush::Delivered
    }

    /// Pops the next packet without waiting. Queued packets drain
    /// before any terminal state is reported (except eviction, which
    /// already cleared the queue).
    pub(crate) fn pop(&self) -> RingPop {
        let mut state = self.ring.lock_clean();
        if let Some(packet) = state.queue.pop_front() {
            ring_metrics().drained.inc();
            return RingPop::Packet(packet);
        }
        if let Some(reason) = &state.evicted {
            return RingPop::Evicted(reason.clone());
        }
        if let Some(reason) = &state.failed {
            return RingPop::Failed(reason.clone());
        }
        if state.closed {
            return RingPop::Closed;
        }
        RingPop::Empty
    }

    /// Marks the subscriber as gone (its socket died); the publisher
    /// quietly drops the ring at the next publish.
    pub(crate) fn detach(&self) {
        let mut state = self.ring.lock_clean();
        state.detached = true;
        state.queue.clear();
    }

    fn close(&self) {
        self.ring.lock_clean().closed = true;
        self.wake_poller();
    }

    fn fail(&self, reason: &str) {
        let mut state = self.ring.lock_clean();
        if state.failed.is_none() {
            state.failed = Some(reason.to_string());
        }
        drop(state);
        self.wake_poller();
    }
}

/// Immutable facts about a broadcast, fixed by the publisher handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BroadcastInfo {
    pub family: Family,
    pub width: usize,
    pub height: usize,
    /// The relay's GOP length in frames (join points are this far
    /// apart).
    pub gop: u16,
}

enum Done {
    Finished,
    Failed(String),
}

struct BroadcastState {
    /// The current GOP-aligned segment: every packet since (and
    /// including) the most recent intra. Replayed to late joiners.
    segment: Vec<Arc<CachedPacket>>,
    /// Live subscriber rings; evicted/detached rings are dropped on the
    /// next publish.
    rings: Vec<Arc<SubscriberRing>>,
    /// Frame index the next published packet will carry.
    next_frame_index: u32,
    /// Rate parameter of the most recently published packet (echoed to
    /// joining subscribers in the ack).
    current_rate: u8,
    published: u64,
    done: Option<Done>,
}

/// What a subscriber gets from [`Broadcast::attach`]: its ring, hooked
/// into the live fan-out, plus the backlog to replay first. `backlog`
/// and the ring are cut atomically, so replaying the backlog and then
/// draining the ring yields a gapless intra-first packet sequence.
#[derive(Debug)]
pub(crate) struct Attachment {
    pub ring: Arc<SubscriberRing>,
    pub backlog: Vec<Arc<CachedPacket>>,
    /// Frame index of the first packet this subscriber will see.
    pub start_index: u32,
    /// Rate the broadcast is currently coded at.
    pub rate: u8,
}

/// One named broadcast: the publisher's segment cache and the
/// subscriber fan-out list.
pub(crate) struct Broadcast {
    info: BroadcastInfo,
    broadcast: Mutex<BroadcastState>,
}

impl Broadcast {
    fn new(info: BroadcastInfo, rate: u8) -> Self {
        Broadcast {
            info,
            broadcast: Mutex::new(BroadcastState {
                segment: Vec::new(),
                rings: Vec::new(),
                next_frame_index: 0,
                current_rate: rate,
                published: 0,
                done: None,
            }),
        }
    }

    pub(crate) fn info(&self) -> BroadcastInfo {
        self.info
    }

    /// Publishes one packet: caches it in the GOP segment (opening a new
    /// segment on intra) and fans it out to every live ring. Returns how
    /// many lagging subscribers were evicted by this publish.
    pub(crate) fn publish(&self, packet: CachedPacket) -> usize {
        let packet = Arc::new(packet);
        let mut state = self.broadcast.lock_clean();
        if packet.kind == FrameKind::Intra {
            state.segment.clear();
        }
        state.segment.push(Arc::clone(&packet));
        state.next_frame_index = packet.frame_index + 1;
        state.current_rate = packet.rate;
        state.published += 1;
        let mut evicted = 0;
        let index = packet.frame_index;
        state.rings.retain(|ring| {
            match ring.push(Arc::clone(&packet), || {
                format!("evicted: subscriber lagging behind the broadcast at frame {index}")
            }) {
                RingPush::Delivered => true,
                RingPush::Overflow => {
                    evicted += 1;
                    false
                }
                RingPush::Detached => false,
            }
        });
        evicted
    }

    /// Attaches a new subscriber: snapshots the current segment as
    /// backlog and adds a fresh ring to the fan-out, atomically.
    ///
    /// # Errors
    ///
    /// Returns the failure message to send when the broadcast has
    /// already ended.
    pub(crate) fn attach(&self, ring_cap: usize) -> Result<Attachment, String> {
        let mut state = self.broadcast.lock_clean();
        match &state.done {
            Some(Done::Finished) => return Err("broadcast has ended".into()),
            Some(Done::Failed(reason)) => return Err(format!("broadcast failed: {reason}")),
            None => {}
        }
        let ring = Arc::new(SubscriberRing::new(ring_cap));
        state.rings.push(Arc::clone(&ring));
        let backlog = state.segment.clone();
        let start_index = backlog
            .first()
            .map_or(state.next_frame_index, |p| p.frame_index);
        Ok(Attachment {
            ring,
            backlog,
            start_index,
            rate: state.current_rate,
        })
    }

    /// Subscribers currently attached (evicted rings linger until the
    /// next publish drops them).
    #[cfg(test)]
    pub(crate) fn subscriber_count(&self) -> usize {
        self.broadcast.lock_clean().rings.len()
    }

    fn end(&self, done: Done) {
        let mut state = self.broadcast.lock_clean();
        for ring in state.rings.drain(..) {
            match &done {
                Done::Finished => ring.close(),
                Done::Failed(reason) => ring.fail(reason),
            }
        }
        state.segment.clear();
        state.done = Some(done);
    }
}

/// The server's name → broadcast map. Cheap to clone (shared state);
/// publishers hold a [`PublisherGuard`] that removes their entry — and
/// fails their subscribers — however the publishing connection ends.
#[derive(Clone, Default)]
pub(crate) struct BroadcastRegistry {
    registry: Arc<Mutex<HashMap<String, Arc<Broadcast>>>>,
}

impl BroadcastRegistry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a broadcast under `name`.
    ///
    /// # Errors
    ///
    /// Returns the failure message to send when the name is taken.
    pub(crate) fn create(
        &self,
        name: &str,
        info: BroadcastInfo,
        rate: u8,
    ) -> Result<PublisherGuard, String> {
        let mut map = self.registry.lock_clean();
        if map.contains_key(name) {
            return Err(format!("broadcast name {name:?} already in use"));
        }
        let broadcast = Arc::new(Broadcast::new(info, rate));
        map.insert(name.to_string(), Arc::clone(&broadcast));
        Ok(PublisherGuard {
            registry: self.clone(),
            name: name.to_string(),
            broadcast,
            done: false,
        })
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<Broadcast>> {
        self.registry.lock_clean().get(name).cloned()
    }

    /// Fails every live broadcast (server shutdown): ends every
    /// subscriber ring and wakes its poller, so each subscriber
    /// connection drains what is queued and hangs up with the failure.
    pub(crate) fn fail_all(&self, reason: &str) {
        let broadcasts: Vec<Arc<Broadcast>> = {
            let mut map = self.registry.lock_clean();
            map.drain().map(|(_, b)| b).collect()
        };
        for broadcast in broadcasts {
            broadcast.end(Done::Failed(reason.to_string()));
        }
    }

    fn remove(&self, name: &str, broadcast: &Arc<Broadcast>) {
        let mut map = self.registry.lock_clean();
        // Only remove our own entry — the name may have been re-created
        // by a newer publisher after this one ended.
        if map.get(name).is_some_and(|b| Arc::ptr_eq(b, broadcast)) {
            map.remove(name);
        }
    }
}

/// Ties a broadcast's lifetime to its publishing connection: ending the
/// stream closes every subscriber ring and frees the name. Dropping the
/// guard without an explicit outcome means the publisher's connection
/// died, which fails the subscribers rather than leaving them waiting.
pub(crate) struct PublisherGuard {
    registry: BroadcastRegistry,
    name: String,
    broadcast: Arc<Broadcast>,
    done: bool,
}

impl PublisherGuard {
    pub(crate) fn broadcast(&self) -> &Broadcast {
        &self.broadcast
    }

    /// Clean end of stream: subscribers drain and get their trailer.
    pub(crate) fn finish(&mut self) {
        self.end(Done::Finished);
    }

    /// Publisher-side failure: subscribers get the reason as an error.
    pub(crate) fn fail(&mut self, reason: &str) {
        self.end(Done::Failed(reason.to_string()));
    }

    /// Frees the name *before* ending the rings: a subscriber that sees
    /// the end may reconnect as the next publisher under the same name
    /// at once, and must find it free.
    fn end(&mut self, done: Done) {
        self.done = true;
        self.registry.remove(&self.name, &self.broadcast);
        self.broadcast.end(done);
    }
}

impl Drop for PublisherGuard {
    fn drop(&mut self) {
        if !self.done {
            self.fail("publisher connection lost");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(frame_index: u32, kind: FrameKind) -> CachedPacket {
        CachedPacket {
            bytes: vec![frame_index as u8; 8],
            payload_len: 4,
            frame_index,
            kind,
            rate: 1,
        }
    }

    fn info() -> BroadcastInfo {
        BroadcastInfo {
            family: Family::Ctvc,
            width: 32,
            height: 32,
            gop: 4,
        }
    }

    #[test]
    fn late_joiner_gets_backlog_from_most_recent_intra() {
        let registry = BroadcastRegistry::new();
        let mut guard = registry.create("game", info(), 1).unwrap();
        let b = registry.get("game").unwrap();
        b.publish(packet(0, FrameKind::Intra));
        b.publish(packet(1, FrameKind::Predicted));
        b.publish(packet(2, FrameKind::Intra));
        b.publish(packet(3, FrameKind::Predicted));
        let att = b.attach(8).unwrap();
        assert_eq!(att.start_index, 2, "backlog starts at the last intra");
        let indices: Vec<u32> = att.backlog.iter().map(|p| p.frame_index).collect();
        assert_eq!(indices, vec![2, 3]);
        // Live packets continue seamlessly after the backlog.
        b.publish(packet(4, FrameKind::Predicted));
        match att.ring.pop() {
            RingPop::Packet(p) => assert_eq!(p.frame_index, 4),
            other => panic!("expected live packet, got {other:?}"),
        }
        guard.finish();
        assert!(matches!(att.ring.pop(), RingPop::Closed));
        assert!(registry.get("game").is_none(), "finish frees the name");
    }

    #[test]
    fn overflowing_ring_evicts_without_touching_others() {
        let registry = BroadcastRegistry::new();
        let guard = registry.create("game", info(), 1).unwrap();
        let b = guard.broadcast();
        b.publish(packet(0, FrameKind::Intra));
        let slow = b.attach(2).unwrap();
        let fast = b.attach(64).unwrap();
        assert_eq!(b.subscriber_count(), 2);
        // The slow ring holds 2; the third push overflows and evicts.
        let mut evicted = 0;
        for i in 1..=3 {
            evicted += b.publish(packet(i, FrameKind::Predicted));
        }
        assert_eq!(evicted, 1);
        assert_eq!(b.subscriber_count(), 1, "evicted ring left the fan-out");
        match slow.ring.pop() {
            RingPop::Evicted(reason) => assert!(reason.contains("lagging"), "{reason}"),
            other => panic!("expected eviction, got {other:?}"),
        }
        // The fast subscriber still sees every packet, in order.
        for want in 1..=3 {
            match fast.ring.pop() {
                RingPop::Packet(p) => assert_eq!(p.frame_index, want),
                other => panic!("expected packet {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn queued_packets_drain_before_close_and_after_fail() {
        let registry = BroadcastRegistry::new();
        let mut guard = registry.create("a", info(), 1).unwrap();
        let att = guard.broadcast().attach(8).unwrap();
        guard.broadcast().publish(packet(0, FrameKind::Intra));
        guard.fail("publisher connection lost");
        match att.ring.pop() {
            RingPop::Packet(p) => assert_eq!(p.frame_index, 0),
            other => panic!("queued packet must drain first, got {other:?}"),
        }
        assert!(matches!(att.ring.pop(), RingPop::Failed(_)));
        // Terminal states are sticky.
        assert!(matches!(att.ring.pop(), RingPop::Failed(_)));
    }

    #[test]
    fn names_are_exclusive_until_released() {
        let registry = BroadcastRegistry::new();
        let guard = registry.create("game", info(), 1).unwrap();
        assert!(registry.create("game", info(), 1).is_err());
        drop(guard); // connection died → name freed, broadcast failed
        assert!(registry.get("game").is_none());
        let _guard = registry.create("game", info(), 1).unwrap();
    }

    #[test]
    fn attach_after_end_reports_the_outcome() {
        let registry = BroadcastRegistry::new();
        let mut guard = registry.create("a", info(), 1).unwrap();
        let b = Arc::clone(&guard.broadcast);
        guard.finish();
        assert!(b.attach(8).unwrap_err().contains("ended"));
        let mut guard = registry.create("b", info(), 1).unwrap();
        let b = Arc::clone(&guard.broadcast);
        guard.fail("boom");
        assert!(b.attach(8).unwrap_err().contains("boom"));
    }

    #[test]
    fn detached_rings_are_dropped_silently() {
        let registry = BroadcastRegistry::new();
        let guard = registry.create("game", info(), 1).unwrap();
        let att = guard.broadcast().attach(4).unwrap();
        att.ring.detach();
        let evicted = guard.broadcast().publish(packet(0, FrameKind::Intra));
        assert_eq!(evicted, 0, "a detached ring is not an eviction");
        assert_eq!(guard.broadcast().subscriber_count(), 0);
    }
}
