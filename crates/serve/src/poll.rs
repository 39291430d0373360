//! A dependency-free readiness loop's moving parts: the cross-thread
//! wake channel and a coarse timer wheel.
//!
//! The serving core runs every socket nonblocking on one poller thread
//! (see `server.rs`). `std` offers no `epoll`-style readiness API, so
//! the loop is built from the two primitives this module provides:
//!
//! * [`PollShared`] / [`PollWaker`] — a token-carrying wake channel.
//!   Workers, subscriber rings and the acceptor push a connection token
//!   and `unpark` the poller; an [`AtomicBool`] dedupes the unparks so
//!   a 10 000-subscriber fan-out costs one `unpark` per batch, not one
//!   per ring. `park_timeout`'s sticky permit makes the handoff
//!   lost-wakeup-free: a wake landing between drain and park just makes
//!   the next park return immediately.
//! * [`TimerWheel`] — a hashed wheel (256 slots × 10 ms ticks) holding
//!   the handshake deadline, write-stall, write-retry and post-error
//!   drain timers.
//!   Entries are never cancelled; each carries the connection's
//!   generation counter and a stale fire (generation mismatch) is
//!   ignored, which keeps arming O(1) with no per-timer bookkeeping.

use crate::sync::LockExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Timer granularity. Every deadline the wheel carries (handshake
/// timeout, write stall, drain bound) is hundreds of milliseconds or
/// more, so 10 ms of slack is invisible.
const TIMER_TICK_MS: u64 = 10;

/// Wheel size. Deadlines further than `WHEEL_SLOTS` ticks out simply
/// stay in their slot across multiple revolutions (each entry stores
/// its absolute tick).
const WHEEL_SLOTS: usize = 256;

/// The pending wake batch: the token queue and the epoch-µs stamp of
/// the wake that opened it, kept under ONE mutex so "batch non-empty ⇔
/// stamp set" holds in every reachable state. (An earlier revision kept
/// the stamp in a separate `AtomicU64` stored after the `notified`
/// swap; a drain racing that window observed a non-empty batch with a
/// zero stamp and mis-attributed the late stamp to the next batch. The
/// `waker/legacy-stamp` model in `nvc-explore` reproduces that race.)
#[derive(Debug, Default)]
struct WakeQueue {
    /// Tokens with pending work, drained once per poller pass.
    tokens: Vec<u64>,
    /// Epoch-µs timestamp of the wake that opened this batch (0 = no
    /// undrained batch). [`PollShared::drain`] hands it back so the
    /// poller can record wake-to-work latency per batch.
    since: u64,
}

/// State shared between the poller thread and everyone who needs to
/// wake it: compute workers (outbox flushes, freed queue space) and
/// broadcast rings (new packets for a subscriber).
#[derive(Debug, Default)]
pub(crate) struct PollShared {
    /// The pending batch (tokens + opening stamp).
    wakes: Mutex<WakeQueue>,
    /// Set once a wake has been delivered and not yet drained; dedupes
    /// the `unpark` calls of a wake flood down to one.
    notified: AtomicBool,
    /// The poller thread, registered when its loop starts.
    thread: Mutex<Option<Thread>>,
}

impl PollShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Called by the poller at loop start so wakers know whom to unpark.
    pub(crate) fn register_thread(&self) {
        *self.thread.lock_clean() = Some(std::thread::current());
    }

    /// Queues a token for service and unparks the poller (deduped).
    pub(crate) fn wake(&self, token: u64) {
        {
            let mut q = self.wakes.lock_clean();
            q.tokens.push(token);
            if q.since == 0 {
                // This wake opened the batch: stamp it, under the same
                // lock as the push, so drain can measure how long the
                // batch waited for the poller and can never see a
                // non-empty batch without its stamp.
                q.since = nvc_telemetry::epoch_micros().max(1);
            }
        }
        // order: AcqRel — the false→true edge elects exactly one waker
        // per undrained batch to pay the unpark; pairs with the Release
        // clear in `drain` so the election happens-after the previous
        // batch was taken.
        if !self.notified.swap(true, Ordering::AcqRel) {
            self.unpark();
        }
    }

    /// Holds the wake queue's lock until the returned guard drops: every
    /// waker blocks inside [`PollShared::wake`] meanwhile, so a test can
    /// observe what a producer had published at the moment it woke.
    #[cfg(test)]
    pub(crate) fn block_wakes(&self) -> impl Sized + '_ {
        self.wakes.lock_clean()
    }

    /// Unconditional unpark — shutdown path, where losing the deduped
    /// edge to a concurrent waker must not leave the poller parked.
    pub(crate) fn kick(&self) {
        // order: Release — unconditional store; only needs to not sink
        // below the shutdown flag the caller set before kicking.
        self.notified.store(true, Ordering::Release);
        self.unpark();
    }

    fn unpark(&self) {
        if let Some(t) = self.thread.lock_clean().as_ref() {
            t.unpark();
        }
    }

    /// Drains pending wake tokens into `wakes`. Clearing `notified`
    /// *before* taking the queue keeps the handoff lost-wakeup-free:
    /// a token pushed after the clear re-arms the unpark permit.
    /// (`nvc-explore`'s `waker/drain-before-clear` model shows the
    /// opposite order losing a wakeup.)
    ///
    /// Returns the epoch-µs stamp of the wake that opened the drained
    /// batch (`None` iff the batch was empty): the stamp travels with
    /// the tokens under one lock, so it can neither be missing for a
    /// non-empty batch nor leak onto the next one.
    pub(crate) fn drain(&self, wakes: &mut Vec<u64>) -> Option<u64> {
        // order: Release — re-arms the wake edge; pairs with the AcqRel
        // swap in `wake` so a push after this clear wins the election
        // and unparks us again.
        self.notified.store(false, Ordering::Release);
        let mut q = self.wakes.lock_clean();
        wakes.append(&mut q.tokens);
        match std::mem::take(&mut q.since) {
            0 => None,
            since => Some(since),
        }
    }
}

/// A handle that wakes the poller on behalf of one connection.
#[derive(Debug, Clone)]
pub(crate) struct PollWaker {
    shared: Arc<PollShared>,
    token: u64,
}

impl PollWaker {
    pub(crate) fn new(shared: Arc<PollShared>, token: u64) -> Self {
        PollWaker { shared, token }
    }

    pub(crate) fn wake(&self) {
        self.shared.wake(self.token);
    }
}

/// What a timer was armed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// The handshake deadline: a connection that has not completed its
    /// `Hello` by now is rejected.
    Handshake,
    /// A blocked write has not progressed; if still stalled when this
    /// fires, the connection is dropped (the old per-thread
    /// `SO_SNDTIMEO` write timeout, rebuilt on the wheel).
    WriteStall,
    /// Re-probe a blocked socket. Without a readiness API the only way
    /// to learn the peer resumed reading is another write attempt;
    /// these fire on a per-connection exponential backoff so ten
    /// thousand stalled subscribers cost a bounded trickle of `EAGAIN`
    /// probes instead of a sweep of every blocked socket per pass.
    WriteRetry,
    /// Bound on the post-error drain: how long a hung-up connection
    /// waits for the peer to read the `'X'` before hard-closing.
    Drain,
}

#[derive(Debug)]
struct TimerEntry {
    token: u64,
    /// Connection generation at arm time; a fire whose generation no
    /// longer matches the connection's is stale and ignored.
    gen: u32,
    kind: TimerKind,
    /// Absolute tick the entry fires at.
    tick: u64,
}

/// A hashed timer wheel: arming is a push into `deadline % slots`,
/// advancing scans only the slots the clock passed through.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    start: Instant,
    slots: Vec<Vec<TimerEntry>>,
    /// Last tick fully advanced past.
    cursor: u64,
    len: usize,
    /// Records how far past its due tick each fired entry was
    /// collected, in µs. Injectable so tests can assert the wheel's
    /// lag bound in isolation.
    fire_lag: Option<nvc_telemetry::Histogram>,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            start: Instant::now(),
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            len: 0,
            fire_lag: None,
        }
    }

    /// Installs the histogram fire lag is recorded into.
    pub(crate) fn set_fire_lag(&mut self, hist: nvc_telemetry::Histogram) {
        self.fire_lag = Some(hist);
    }

    fn tick_at(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.start).as_millis() as u64) / TIMER_TICK_MS
    }

    /// Arms a timer for `token` at `deadline` (rounded up to the next
    /// tick, so timers never fire early).
    pub(crate) fn arm(&mut self, token: u64, gen: u32, kind: TimerKind, deadline: Instant) {
        let tick = (self.tick_at(deadline) + 1).max(self.cursor + 1);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push(TimerEntry {
            token,
            gen,
            kind,
            tick,
        });
        self.len += 1;
    }

    /// Collects every entry whose tick the clock has passed into
    /// `fired` as `(token, gen, kind)` triples.
    pub(crate) fn advance(&mut self, now: Instant, fired: &mut Vec<(u64, u32, TimerKind)>) {
        let now_tick = self.tick_at(now);
        if self.len == 0 || now_tick <= self.cursor {
            self.cursor = self.cursor.max(now_tick);
            return;
        }
        let now_us = now.saturating_duration_since(self.start).as_micros() as u64;
        // A long idle gap would walk the cursor over every elapsed tick;
        // past one full revolution a single sweep of all slots sees the
        // same entries.
        if now_tick - self.cursor >= WHEEL_SLOTS as u64 {
            for slot in &mut self.slots {
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].tick <= now_tick {
                        let e = slot.swap_remove(i);
                        self.len -= 1;
                        if let Some(h) = &self.fire_lag {
                            h.record(now_us.saturating_sub(e.tick * TIMER_TICK_MS * 1000));
                        }
                        fired.push((e.token, e.gen, e.kind));
                    } else {
                        i += 1;
                    }
                }
            }
            self.cursor = now_tick;
            return;
        }
        while self.cursor < now_tick {
            self.cursor += 1;
            let cursor = self.cursor;
            let slot = &mut self.slots[(cursor % WHEEL_SLOTS as u64) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].tick <= cursor {
                    let e = slot.swap_remove(i);
                    self.len -= 1;
                    if let Some(h) = &self.fire_lag {
                        h.record(now_us.saturating_sub(e.tick * TIMER_TICK_MS * 1000));
                    }
                    fired.push((e.token, e.gen, e.kind));
                } else {
                    i += 1;
                }
            }
        }
    }

    /// The earliest pending deadline, as an `Instant` — how long the
    /// poller may park. `None` when no timers are armed.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let tick = self.slots.iter().flatten().map(|e| e.tick).min()?;
        Some(self.start + Duration::from_millis(tick * TIMER_TICK_MS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_in_order_and_never_early() {
        let mut wheel = TimerWheel::new();
        let t0 = wheel.start;
        wheel.arm(1, 0, TimerKind::Handshake, t0 + Duration::from_millis(50));
        wheel.arm(2, 0, TimerKind::Drain, t0 + Duration::from_millis(500));
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(40), &mut fired);
        assert!(fired.is_empty(), "nothing may fire before its deadline");
        wheel.advance(t0 + Duration::from_millis(70), &mut fired);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0], (1, 0, TimerKind::Handshake));
        let next = wheel.next_deadline().expect("drain timer pending");
        assert!(next >= t0 + Duration::from_millis(500));
        fired.clear();
        // A gap longer than one wheel revolution still fires everything.
        wheel.advance(t0 + Duration::from_secs(30), &mut fired);
        assert_eq!(fired, vec![(2, 0, TimerKind::Drain)]);
        assert!(wheel.next_deadline().is_none());
    }

    #[test]
    fn far_deadlines_survive_wheel_wraparound() {
        let mut wheel = TimerWheel::new();
        let t0 = wheel.start;
        // 10 s is ~1000 ticks: several revolutions of a 256-slot wheel.
        wheel.arm(7, 3, TimerKind::WriteStall, t0 + Duration::from_secs(10));
        let mut fired = Vec::new();
        for ms in [500u64, 2_000, 9_000] {
            wheel.advance(t0 + Duration::from_millis(ms), &mut fired);
            assert!(fired.is_empty(), "not due yet at {ms}ms");
        }
        wheel.advance(t0 + Duration::from_millis(10_050), &mut fired);
        assert_eq!(fired, vec![(7, 3, TimerKind::WriteStall)]);
    }

    #[test]
    fn fire_lag_stays_within_one_tick_of_collection() {
        let mut wheel = TimerWheel::new();
        let lag = nvc_telemetry::Histogram::detached("test_fire_lag_us");
        wheel.set_fire_lag(lag.clone());
        let t0 = wheel.start;
        let mut fired = Vec::new();
        for (token, ms) in [(1u64, 35u64), (2, 80), (3, 410)] {
            wheel.arm(
                token,
                0,
                TimerKind::Handshake,
                t0 + Duration::from_millis(ms),
            );
        }
        // Collect each entry 3 ms past the instant the wheel says it is
        // due — the poller parks until `next_deadline`, so this models
        // the worst case of one scheduling hiccup per fire.
        while let Some(due) = wheel.next_deadline() {
            wheel.advance(due + Duration::from_millis(3), &mut fired);
        }
        assert_eq!(fired.len(), 3);
        assert_eq!(lag.count(), 3);
        // Deadlines round up to a tick boundary, so collecting 3 ms past
        // the due instant bounds every recorded lag by one tick.
        assert!(
            lag.max() <= TIMER_TICK_MS * 1000,
            "fire lag {} µs exceeds one {} ms tick",
            lag.max(),
            TIMER_TICK_MS
        );
    }

    #[test]
    fn wake_tokens_dedupe_unparks_but_never_tokens() {
        let shared = PollShared::new();
        shared.register_thread();
        shared.wake(1);
        shared.wake(2);
        shared.wake(1);
        let mut wakes = Vec::new();
        shared.drain(&mut wakes);
        assert_eq!(wakes, vec![1, 2, 1], "every token is delivered");
        wakes.clear();
        shared.drain(&mut wakes);
        assert!(wakes.is_empty());
    }

    /// Regression for the `wake_since` race: the batch stamp lives under
    /// the same mutex as the token queue, so a drain either takes tokens
    /// *and* their stamp or neither. (The old two-atomics scheme could
    /// return a stamp for an empty batch, or tokens with a zeroed stamp;
    /// `nvc-explore`'s `waker/legacy-stamp` model enumerates that race.)
    #[test]
    fn batch_stamp_travels_with_its_tokens() {
        let shared = PollShared::new();
        shared.register_thread();
        let mut wakes = Vec::new();
        assert_eq!(
            shared.drain(&mut wakes),
            None,
            "an empty batch has no stamp"
        );
        shared.wake(7);
        shared.wake(8);
        let stamp = shared.drain(&mut wakes);
        assert_eq!(wakes, vec![7, 8]);
        assert!(stamp.is_some(), "a non-empty batch carries its stamp");
        wakes.clear();
        assert_eq!(
            shared.drain(&mut wakes),
            None,
            "the stamp left with its batch"
        );
        // A fresh wake opens a fresh batch with a fresh stamp.
        shared.wake(9);
        let restamp = shared.drain(&mut wakes);
        assert_eq!(wakes, vec![9]);
        assert!(restamp.is_some());
        assert!(restamp >= stamp, "stamps never run backwards");
    }
}
