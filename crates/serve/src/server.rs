//! The serving side: one event-driven poller thread multiplexing every
//! socket, and a session pool scheduling GOP-grain batches onto shared
//! compute.
//!
//! # Threading model
//!
//! ```text
//!            ┌──────────── poller (this thread) ────────────┐
//! accept ──► │ conn 1: Hello ──► Session ──► decode bytes   │   ready    ┌─ worker 1
//!            │ conn 2: Session (jobs ──► slot queue) ───────┼──► queue ──┼─ worker 2
//!            │ conn K: Subscriber (ring ──► outbox ──► sock)│            └─ worker W
//!            └──── nonblocking reads/writes, timer wheel ───┘
//! ```
//!
//! * The **poller** owns every socket, all nonblocking. It accepts,
//!   parses handshakes and messages incrementally ([`MsgDecoder`]
//!   accepts bytes in arbitrary chunks), queues parsed jobs into the
//!   per-session slot, pumps broadcast rings into subscriber outboxes,
//!   and drains outboxes whenever sockets accept bytes. Deadlines (the
//!   handshake timeout, write stalls, post-error drains) live on a
//!   coarse [`TimerWheel`]. The thread count is fixed: one poller plus
//!   the worker pool, independent of the connection count.
//! * Each **worker** pops a ready session and runs one *GOP-grain batch*
//!   of its queued jobs: up to [`GOP_BATCH`] frames,
//!   cutting before the next intra packet so a scheduling quantum never
//!   straddles a GOP boundary. One session is never on two workers at
//!   once (frames of a stream are strictly ordered); different sessions
//!   overlap freely. Responses are queued into the connection's outbox
//!   and the poller is woken to write them.
//! * Every batch holds an [`ExecPool`] lease for the session's context
//!   width while it computes, so total fan-out across all sessions stays
//!   under [`EXEC_CAP`] regardless of the connection count.
//!
//! A full slot queue *parks* the decoded job instead of blocking: the
//! connection drops out of the read set, TCP backpressures the client,
//! and the worker's space wake re-admits it — the same backpressure the
//! old per-connection reader threads provided, without the threads.

use crate::broadcast::{BroadcastInfo, BroadcastRegistry, CachedPacket, PublisherGuard};
use crate::conn::{
    pump_subscriber, push_bytes, push_shared, queue_hangup, service_writes, CloseKind, Conn,
    ConnKind, OutHandle, OutState, WriteStatus,
};
use crate::governor::{granted_position, GovAdmit, GovWant, Governed, Governor, GovernorConfig};
use crate::poll::{PollShared, PollWaker, TimerKind, TimerWheel};
use crate::proto::{
    ack_msg_bytes, write_error_msg, write_frame_msg, write_join_msg, write_stats_msg, Ack, Family,
    Hello, HelloDecoder, JoinInfo, MsgDecoder, Retarget, Role, TargetBppWire, WireMsg, MSG_PACKET,
    VERSION,
};
use crate::sync::LockExt;
use nvc_baseline::{HybridCodec, Profile};
use nvc_core::ExecPool;
use nvc_entropy::container::{FrameKind, Packet};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_telemetry::{Counter as TCounter, Gauge, Histogram as TH, Registry};
use nvc_video::codec::{DecoderSession, EncoderSession, StreamStats, VideoCodec};
use nvc_video::rate::{RateMode, RateParam};
use nvc_video::session::{StreamDecoder, StreamEncoder};
use nvc_video::Frame;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle-park backstop for the poller and the stop-flag poll interval for
/// worker waits.
const POLL: Duration = Duration::from_millis(25);

/// Default for [`ServeConfig::write_timeout`]: how long a blocked write
/// may sit without progress before the connection is dropped, so a
/// vanished client can never pin its outbox (and whatever it retains)
/// forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// First delay before re-probing a blocked socket. A peer that drains
/// promptly is rediscovered within a timer tick; one that stays full
/// backs off exponentially to [`RETRY_MAX`], so a swarm of stalled
/// subscribers costs a bounded trickle of `EAGAIN` probes rather than
/// one probe per socket per poller pass.
const RETRY_MIN: Duration = Duration::from_millis(10);

/// Cap on the blocked-write probe backoff: the longest a reopened
/// receive window can go unnoticed.
const RETRY_MAX: Duration = Duration::from_millis(320);

/// How long an error-terminated connection drains unread peer data
/// before hard-closing (see [`CloseKind::Drain`]).
const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// Total compute-thread permits shared by all sessions (`0` = all
/// available hardware parallelism). See [`ExecPool`].
const EXEC_CAP: usize = 0;

/// Maximum jobs one scheduling quantum may run before the session goes
/// back to the ready queue (quanta also cut at GOP boundaries).
const GOP_BATCH: usize = 8;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Configuration of the served CTVC-Net codec ([`Family::Ctvc`]
    /// streams). Its `threads` field is overridden by
    /// [`ServeConfig::threads_per_session`].
    pub ctvc: CtvcConfig,
    /// Profile of the served hybrid baseline ([`Family::Hybrid`]).
    pub hybrid: Profile,
    /// Pool workers — the number of sessions computing concurrently
    /// (`0` = all available hardware parallelism).
    pub workers: usize,
    /// `ExecCtx` width per session (layer-level fan-out inside one
    /// frame). Serving throughput favors many narrow sessions over few
    /// wide ones, so the default is 1.
    pub threads_per_session: usize,
    /// Per-session pending-job bound; a full queue parks the
    /// connection's decoder, which stops reading the socket
    /// (backpressure).
    pub queue_depth: usize,
    /// Maximum concurrent sessions; further connections are rejected
    /// with an error message.
    pub max_sessions: usize,
    /// Relay GOP length for publish streams that do not request one in
    /// the handshake: the publisher session forces an intra refresh
    /// every this many frames, bounding how far a late joiner's start
    /// point can lie in the past.
    pub broadcast_gop: usize,
    /// Per-subscriber ring capacity in packets. A subscriber falling
    /// this far behind the publisher is evicted rather than ever
    /// backpressuring the broadcast.
    pub subscriber_ring: usize,
    /// Maximum concurrent subscribers across all broadcasts. Counted
    /// separately from [`ServeConfig::max_sessions`] — subscribers hold
    /// no codec session and no worker-pool slot, so thousands are fine.
    pub max_subscribers: usize,
    /// Time a fresh connection gets to deliver its `Hello`: a peer that
    /// completes TCP accept but stays silent is closed with `'X'` (and
    /// counted under [`ServeReport::rejected`]) when the timer-wheel
    /// deadline fires.
    pub handshake_timeout: Duration,
    /// How long a blocked write may sit without progress before the
    /// connection is dropped, so a vanished client can never pin its
    /// outbox (and whatever it retains) forever. Any write that moves
    /// bytes resets the clock — a slow-but-draining peer survives;
    /// a wedged one does not.
    pub write_timeout: Duration,
    /// Cross-session rate governor. `None` (the default) serves every
    /// session at its requested rate with `max_sessions` as the only
    /// admission gate — the exact pre-governor behavior. `Some` splits
    /// the configured budget across all live encode/publish sessions
    /// and turns admission into the three-step
    /// admit / admit-degraded / reject response. See [`GovernorConfig`].
    pub governor: Option<GovernorConfig>,
    /// Bind address for the live metrics endpoint (e.g.
    /// `"127.0.0.1:0"`). When set, [`Server::spawn`] opens a second
    /// listener whose every connection receives one Prometheus-style
    /// text snapshot of the server's registry, the process-global
    /// registry, and the most recent spans — then is closed. `None`
    /// (the default) serves no metrics endpoint.
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ctvc: CtvcConfig::ctvc_fp(12),
            hybrid: Profile::hevc_like(),
            workers: 0,
            threads_per_session: 1,
            queue_depth: 4,
            max_sessions: 64,
            broadcast_gop: 8,
            subscriber_ring: 64,
            max_subscribers: 4096,
            handshake_timeout: Duration::from_secs(10),
            write_timeout: WRITE_TIMEOUT,
            governor: None,
            metrics_addr: None,
        }
    }
}

/// Lifetime counters reported by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Sessions that completed the handshake.
    pub sessions: usize,
    /// Connections rejected (failed handshake or over capacity).
    pub rejected: usize,
    /// Frames processed across all sessions (encoded + decoded).
    pub frames: u64,
    /// Sessions that ended in an error (protocol or codec failure).
    pub errors: u64,
    /// Subscribers that completed a broadcast attach.
    pub subscribers: usize,
    /// Subscribers evicted for lagging behind their broadcast.
    pub evicted: u64,
    /// Governor degradations: how many times a session went from its
    /// full requested rate to a reduced grant (degraded admissions
    /// count on the session's first frame).
    pub degraded: u64,
    /// Total downward rate-grant updates the governor applied — ladder
    /// rungs for fixed-rate sessions, one per shrink for closed-loop
    /// targets. A measure of how hard the degradation curve worked.
    pub throttle_steps: u64,
    /// Governor restorations: sessions walked back up to their full
    /// requested rate as load drained.
    pub restored: u64,
    /// Poller passes: how many times the event loop woke and scanned
    /// for work (accepts, wakes, readable sockets, timers).
    pub poll_wakeups: u64,
    /// Poller passes that found nothing to do — the cost of readiness
    /// polling without an OS readiness API. High ratios against
    /// [`ServeReport::poll_wakeups`] mean the loop is parked-bound, not
    /// work-bound.
    pub spurious_polls: u64,
    /// High-water mark of concurrently registered connections
    /// (sessions + subscribers + in-handshake), all multiplexed on the
    /// one poller thread.
    pub max_registered: u64,
    /// Timer-wheel deadlines that fired and acted (handshake timeouts,
    /// write-stall kills, post-error drain closes). Stale fires — the
    /// connection moved on before the deadline — are not counted.
    pub timer_fires: u64,
}

/// The server's live state, counted on a per-server
/// [`nvc_telemetry::Registry`]. [`ServeReport`] and the live metrics
/// endpoint both read this same storage, so the shutdown view and a
/// mid-run scrape can never disagree about a counter.
pub(crate) struct Counters {
    /// The server-scoped registry the handles below live in; the
    /// metrics endpoint renders it (plus the process-global registry).
    registry: Registry,
    sessions: TCounter,
    rejected: TCounter,
    active: Gauge,
    frames: TCounter,
    errors: TCounter,
    subscribers: TCounter,
    active_subscribers: Gauge,
    evicted: TCounter,
    degraded: TCounter,
    throttle_steps: TCounter,
    restored: TCounter,
    poll_wakeups: TCounter,
    spurious_polls: TCounter,
    max_registered: Gauge,
    timer_fires: TCounter,
    /// How long each poller park actually lasted.
    park_us: TH,
    /// Wake-to-work latency: from the first `PollShared::wake` of a
    /// batch to the poller pass that drains it.
    wake_latency_us: TH,
    /// Timer-wheel fire lag: how far past its due tick each fired
    /// deadline was collected.
    fire_lag_us: TH,
    /// Governor grant ratio at admission, in percent (100 = full rate).
    gov_grant_ratio_pct: TH,
    gov_admit: TCounter,
    gov_degraded_admit: TCounter,
    gov_reject: TCounter,
}

impl Default for Counters {
    fn default() -> Self {
        let registry = Registry::new();
        Counters {
            sessions: registry.counter("nvc_serve_sessions_total"),
            rejected: registry.counter("nvc_serve_rejected_total"),
            active: registry.gauge("nvc_serve_active_sessions"),
            frames: registry.counter("nvc_serve_frames_total"),
            errors: registry.counter("nvc_serve_errors_total"),
            subscribers: registry.counter("nvc_serve_subscribers_total"),
            active_subscribers: registry.gauge("nvc_serve_active_subscribers"),
            evicted: registry.counter("nvc_serve_evicted_total"),
            degraded: registry.counter("nvc_governor_degraded_total"),
            throttle_steps: registry.counter("nvc_governor_throttle_steps_total"),
            restored: registry.counter("nvc_governor_restored_total"),
            poll_wakeups: registry.counter("nvc_poll_wakeups_total"),
            spurious_polls: registry.counter("nvc_poll_spurious_total"),
            max_registered: registry.gauge("nvc_poll_max_registered"),
            timer_fires: registry.counter("nvc_poll_timer_fires_total"),
            park_us: registry.histogram("nvc_poll_park_us"),
            wake_latency_us: registry.histogram("nvc_poll_wake_latency_us"),
            fire_lag_us: registry.histogram("nvc_poll_timer_fire_lag_us"),
            gov_grant_ratio_pct: registry.histogram("nvc_governor_grant_ratio_pct"),
            gov_admit: registry.counter("nvc_governor_admit_total"),
            gov_degraded_admit: registry.counter("nvc_governor_degraded_admit_total"),
            gov_reject: registry.counter("nvc_governor_reject_total"),
            registry,
        }
    }
}

impl Counters {
    fn report(&self) -> ServeReport {
        ServeReport {
            sessions: self.sessions.get() as usize,
            rejected: self.rejected.get() as usize,
            frames: self.frames.get(),
            errors: self.errors.get(),
            subscribers: self.subscribers.get() as usize,
            evicted: self.evicted.get(),
            degraded: self.degraded.get(),
            throttle_steps: self.throttle_steps.get(),
            restored: self.restored.get(),
            poll_wakeups: self.poll_wakeups.get(),
            spurious_polls: self.spurious_polls.get(),
            max_registered: self.max_registered.get().max(0) as u64,
            timer_fires: self.timer_fires.get(),
        }
    }

    pub(crate) fn bump_degraded(&self) {
        self.degraded.inc();
    }

    pub(crate) fn bump_restored(&self) {
        self.restored.inc();
    }

    pub(crate) fn bump_throttle(&self, steps: u64) {
        self.throttle_steps.add(steps);
    }
}

/// The `nvc-serve` TCP server. See [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds `addr` and starts serving on a background thread. The
    /// returned handle exposes the bound address (bind to port 0 for an
    /// ephemeral one) and shuts the server down when dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound or the served
    /// codec configuration is invalid.
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = cfg.threads_per_session.max(1);
        let ctvc = CtvcCodec::new(cfg.ctvc.clone().with_threads(threads))
            .map_err(|e| io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let hybrid = HybridCodec::with_threads(cfg.hybrid.clone(), threads);
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let shared = PollShared::new();
        // The metrics listener binds before the serving thread takes
        // `cfg`, so a bad metrics address fails the spawn cleanly.
        let mut metrics_addr = None;
        let mut metrics_join = None;
        if let Some(bind) = cfg.metrics_addr.as_deref() {
            let metrics_listener = TcpListener::bind(bind)?;
            metrics_listener.set_nonblocking(true)?;
            metrics_addr = Some(metrics_listener.local_addr()?);
            let (stop_m, counters_m) = (Arc::clone(&stop), Arc::clone(&counters));
            metrics_join = Some(
                std::thread::Builder::new()
                    .name("nvc-metrics".into())
                    .spawn(move || metrics_loop(&metrics_listener, &stop_m, &counters_m))?,
            );
        }
        let (stop2, counters2, shared2) = (
            Arc::clone(&stop),
            Arc::clone(&counters),
            Arc::clone(&shared),
        );
        let join = std::thread::Builder::new()
            .name("nvc-serve".into())
            .spawn(move || run(listener, cfg, ctvc, hybrid, &stop2, &counters2, shared2))?;
        Ok(ServerHandle {
            addr,
            metrics_addr,
            stop,
            counters,
            shared,
            join: Some(join),
            metrics_join,
        })
    }
}

/// Handle to a running [`Server`]; shuts it down on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    shared: Arc<PollShared>,
    join: Option<JoinHandle<()>>,
    metrics_join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the live metrics endpoint, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn report(&self) -> ServeReport {
        self.counters.report()
    }

    /// Stops accepting, drains worker threads and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_and_join();
        self.counters.report()
    }

    fn stop_and_join(&mut self) {
        // order: Relaxed — the stop flag is a latch the loops poll; the
        // join() below is the real synchronization point.
        self.stop.store(true, Ordering::Relaxed);
        // The poller may be parked mid-backoff; kick it so shutdown
        // does not wait out the park timeout.
        self.shared.kick();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.metrics_join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------
// Scheduling structures
// ---------------------------------------------------------------------

/// One unit of session work, produced by the poller's protocol decoder,
/// consumed by a worker.
pub(crate) enum Job {
    /// A parsed, CRC-validated coded packet (decode sessions).
    Packet(Packet),
    /// A raw frame (encode sessions).
    Frame(Frame),
    /// A mid-stream rate retarget (encode sessions): applies in stream
    /// order between the frames around it.
    Retarget(Retarget),
    /// Clean end of stream: finalize, send the stats trailer.
    End,
    /// Poller-detected failure: report to the peer and close.
    Abort(String),
}

impl Job {
    fn is_control(&self) -> bool {
        matches!(self, Job::End | Job::Abort(_))
    }
}

#[derive(Default)]
struct SlotState {
    pending: VecDeque<Job>,
    /// In the ready queue or on a worker. Guarantees one-worker-at-a-time
    /// (stream order) and at most one ready-queue entry per slot.
    scheduled: bool,
    dead: bool,
}

/// Per-connection session state shared between the poller and the pool.
pub(crate) struct Slot<'env> {
    state: Mutex<SlotState>,
    /// Signalled when a worker drains jobs and when the slot dies.
    space: Condvar,
    runner: Mutex<Box<dyn SessionRunner + Send + 'env>>,
    /// Wakes the owning connection's poller when queue space frees, so
    /// a parked job retries.
    waker: PollWaker,
}

/// Outcome of a nonblocking enqueue attempt.
enum Enqueue {
    /// Queued; a worker will run it in stream order.
    Queued,
    /// The bounded queue is full — the job comes back to be parked, and
    /// the connection stops reading until the worker's space wake.
    Full(Job),
    /// The session already died; the job was dropped.
    Dead,
}

struct Scheduler<'env> {
    ready: Mutex<VecDeque<Arc<Slot<'env>>>>,
    work: Condvar,
    queue_depth: usize,
    /// Jobs sitting in slot queues, not yet taken by a worker — the
    /// governor's queue-length signal for compute-aware admission.
    backlog: AtomicUsize,
}

impl<'env> Scheduler<'env> {
    fn new(queue_depth: usize) -> Self {
        Scheduler {
            ready: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            queue_depth: queue_depth.max(1),
            backlog: AtomicUsize::new(0),
        }
    }

    fn backlog(&self) -> usize {
        // order: Relaxed — an admission hint, not a guard; a slightly
        // stale count only shifts the admission decision by one job.
        self.backlog.load(Ordering::Relaxed)
    }

    /// Queues one job for a session without ever blocking (control jobs
    /// bypass the bound so a stream can always terminate).
    fn try_enqueue(&self, slot: &Arc<Slot<'env>>, job: Job) -> Enqueue {
        let mut state = slot.state.lock_clean();
        if state.dead {
            return Enqueue::Dead;
        }
        if !job.is_control() && state.pending.len() >= self.queue_depth {
            return Enqueue::Full(job);
        }
        state.pending.push_back(job);
        // order: Relaxed — a statistic for the admission gate; the job
        // itself is published by the slot mutex.
        self.backlog.fetch_add(1, Ordering::Relaxed);
        let newly_ready = !state.scheduled;
        state.scheduled = true;
        drop(state);
        if newly_ready {
            self.ready.lock_clean().push_back(Arc::clone(slot));
            self.work.notify_one();
        }
        Enqueue::Queued
    }

    /// Blocks for the next ready session; `None` once the server stops.
    fn next_ready(&self, stop: &AtomicBool) -> Option<Arc<Slot<'env>>> {
        let mut ready = self.ready.lock_clean();
        loop {
            if let Some(slot) = ready.pop_front() {
                return Some(slot);
            }
            // order: Relaxed — a latch re-polled every wait timeout;
            // missing one edge only costs a POLL interval.
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .work
                .wait_timeout(ready, POLL)
                .unwrap_or_else(|e| e.into_inner());
            ready = guard;
        }
    }

    fn requeue(&self, slot: Arc<Slot<'env>>) {
        self.ready.lock_clean().push_back(slot);
        self.work.notify_one();
    }

    /// Takes one scheduling quantum off a slot's queue: at most
    /// [`GOP_BATCH`] jobs, cutting *before* an intra packet so a quantum
    /// never straddles a GOP boundary.
    fn take_batch(&self, state: &mut SlotState) -> Vec<Job> {
        let mut batch = Vec::new();
        while batch.len() < GOP_BATCH {
            match state.pending.pop_front() {
                Some(Job::Packet(p)) if !batch.is_empty() && p.kind == FrameKind::Intra => {
                    // The next GOP starts here; leave its intra queued.
                    state.pending.push_front(Job::Packet(p));
                    break;
                }
                Some(job) => batch.push(job),
                None => break,
            }
        }
        // order: Relaxed — see `try_enqueue`; the slot mutex publishes
        // the jobs themselves.
        self.backlog.fetch_sub(batch.len(), Ordering::Relaxed);
        batch
    }
}

fn worker_loop<'env>(
    sched: &Scheduler<'env>,
    exec: &ExecPool,
    threads_per_session: usize,
    stop: &AtomicBool,
    counters: &Counters,
) {
    while let Some(slot) = sched.next_ready(stop) {
        let batch = {
            let mut state = slot.state.lock_clean();
            sched.take_batch(&mut state)
        };
        slot.space.notify_all();
        // Freed queue space: the owning connection may have a parked
        // job waiting for it.
        slot.waker.wake();
        let mut finished = false;
        if !batch.is_empty() {
            // The lease (not the session's own context) is what caps the
            // machine-wide fan-out: the runner's session computes on a
            // context of exactly this width, so permits model threads.
            let _lease = exec.lease(threads_per_session);
            let mut runner = slot.runner.lock_clean();
            for job in batch {
                let data = matches!(job, Job::Packet(_) | Job::Frame(_));
                match runner.step(job) {
                    StepOutcome::Continue => {
                        if data {
                            counters.frames.inc();
                        }
                    }
                    StepOutcome::Finished => {
                        if data {
                            counters.frames.inc();
                        }
                        finished = true;
                        break;
                    }
                    StepOutcome::Failed => {
                        counters.errors.inc();
                        finished = true;
                        break;
                    }
                }
            }
        }
        let mut state = slot.state.lock_clean();
        if finished {
            state.dead = true;
            // order: Relaxed — see `Scheduler::try_enqueue`.
            sched
                .backlog
                .fetch_sub(state.pending.len(), Ordering::Relaxed);
            state.pending.clear();
            state.scheduled = false;
            drop(state);
            slot.space.notify_all();
            // `active` is NOT decremented here: the poller frees the
            // capacity slot in the pass that writes the connection's
            // last byte, ordering the free against the next accept
            // (`Poller::release`).
            slot.waker.wake();
        } else if state.pending.is_empty() {
            state.scheduled = false;
        } else {
            drop(state);
            sched.requeue(slot);
        }
    }
}

// ---------------------------------------------------------------------
// Session runners
// ---------------------------------------------------------------------

enum StepOutcome {
    Continue,
    Finished,
    Failed,
}

/// One live session: consumes jobs in stream order, queues responses
/// into its connection's outbox. A runner is only ever driven by one
/// worker at a time (see [`SlotState::scheduled`]).
trait SessionRunner {
    fn step(&mut self, job: Job) -> StepOutcome;
}

struct DecodeRunner<S> {
    sess: S,
    out: OutHandle,
    /// Geometry from the handshake; the decoded stream must match it,
    /// so clients can trust the negotiated size end to end.
    negotiated: (usize, usize),
    stats: StreamStats,
}

impl<S: DecoderSession> SessionRunner for DecodeRunner<S> {
    fn step(&mut self, job: Job) -> StepOutcome {
        match job {
            Job::Packet(packet) => {
                let bytes = packet.to_bytes();
                match self.sess.push_packet(&bytes) {
                    Ok(frame) if (frame.width(), frame.height()) != self.negotiated => {
                        self.out.hangup(Some(&format!(
                            "bitstream is {}x{}, negotiated {}x{}",
                            frame.width(),
                            frame.height(),
                            self.negotiated.0,
                            self.negotiated.1
                        )));
                        StepOutcome::Failed
                    }
                    Ok(frame) => {
                        // The rate column is the in-band rate governing
                        // this frame (stream header or a per-packet
                        // rate switch).
                        self.stats.record(
                            packet.payload.len(),
                            bytes.len(),
                            packet.kind,
                            self.sess.last_rate().unwrap_or(0),
                        );
                        let ok = write_frame_msg(&mut self.out, packet.frame_index, &frame)
                            .and_then(|()| self.out.flush())
                            .is_ok();
                        if ok {
                            StepOutcome::Continue
                        } else {
                            self.out.hangup(None);
                            StepOutcome::Failed
                        }
                    }
                    Err(e) => {
                        self.out.hangup(Some(&format!("decode: {e}")));
                        StepOutcome::Failed
                    }
                }
            }
            Job::Frame(_) => {
                self.out.hangup(Some("raw frame on a decode stream"));
                StepOutcome::Failed
            }
            Job::Retarget(_) => {
                self.out.hangup(Some("rate retarget on a decode stream"));
                StepOutcome::Failed
            }
            Job::End => {
                let _ = write_stats_msg(&mut self.out, &self.stats);
                self.out.hangup(None);
                StepOutcome::Finished
            }
            Job::Abort(message) => {
                self.out.hangup(Some(&message));
                StepOutcome::Failed
            }
        }
    }
}

/// The broadcast half of a publish stream: every coded packet is also
/// published into the claimed broadcast for fan-out, and an intra
/// refresh is forced every `gop` frames — so, with the session in
/// joinable-stream mode, a late joiner's backlog always begins with a
/// self-describing packet at most one GOP in the past.
struct Fanout<'env> {
    guard: PublisherGuard,
    /// Relay GOP length: frames since the last intra before a forced
    /// refresh.
    gop: u32,
    since_intra: u32,
    counters: &'env Counters,
}

impl Fanout<'_> {
    fn publish(&mut self, packet: &Packet, bytes: &[u8], rate: u8) {
        self.since_intra = match packet.kind {
            FrameKind::Intra => 1,
            FrameKind::Predicted => self.since_intra + 1,
        };
        let evicted = self.guard.broadcast().publish(CachedPacket {
            bytes: bytes.to_vec(),
            payload_len: packet.payload.len(),
            frame_index: packet.frame_index,
            kind: packet.kind,
            rate,
        });
        if evicted > 0 {
            self.counters.evicted.add(evicted as u64);
        }
    }
}

struct EncodeRunner<'env, S: EncoderSession> {
    sess: Option<S>,
    out: OutHandle,
    /// Governor registration on a governed server: re-derives the
    /// granted rate mode before every frame, in stream order.
    gov: Option<Governed<'env, S::Rate>>,
    /// Set on publish streams; a plain encode stream only echoes.
    fanout: Option<Fanout<'env>>,
}

impl<S: EncoderSession> SessionRunner for EncodeRunner<'_, S> {
    fn step(&mut self, job: Job) -> StepOutcome {
        let Some(sess) = self.sess.as_mut() else {
            self.out.hangup(Some("stream already finished"));
            return StepOutcome::Failed;
        };
        match job {
            Job::Frame(frame) => {
                if let Some(gov) = self.gov.as_mut() {
                    if let Some(mode) = gov.refresh() {
                        sess.set_rate_mode(mode);
                    }
                }
                if self.fanout.as_ref().is_some_and(|f| f.since_intra >= f.gop) {
                    sess.restart_gop();
                }
                match sess.push_frame(&frame) {
                    Ok(packet) => {
                        // Serialize once; subscribers get these exact
                        // bytes (Arc-shared), the client an echo of the
                        // same buffer — byte identity across every
                        // receiver is by construction.
                        let bytes = packet.to_bytes();
                        if let Some(fanout) = self.fanout.as_mut() {
                            fanout.publish(&packet, &bytes, sess.last_rate().unwrap_or(0));
                        }
                        let ok = self
                            .out
                            .write_all(&[MSG_PACKET])
                            .and_then(|()| self.out.write_all(&bytes))
                            .and_then(|()| self.out.flush())
                            .is_ok();
                        if ok {
                            StepOutcome::Continue
                        } else {
                            if let Some(fanout) = self.fanout.as_mut() {
                                fanout.guard.fail("publisher connection lost");
                            }
                            self.out.hangup(None);
                            StepOutcome::Failed
                        }
                    }
                    Err(e) => {
                        let message = format!("encode: {e}");
                        if let Some(fanout) = self.fanout.as_mut() {
                            fanout.guard.fail(&message);
                        }
                        self.out.hangup(Some(&message));
                        StepOutcome::Failed
                    }
                }
            }
            Job::Packet(_) => {
                self.out.hangup(Some("coded packet on an encode stream"));
                StepOutcome::Failed
            }
            Job::Retarget(retarget) => {
                // Same conversion + plausibility bar as the handshake.
                match wire_rate_mode::<S::Rate>(retarget.target, retarget.rate) {
                    Ok(mode) => {
                        sess.set_rate_mode(mode);
                        if retarget.restart_gop {
                            sess.restart_gop();
                        }
                        StepOutcome::Continue
                    }
                    Err(e) => {
                        self.out.hangup(Some(&format!("retarget: {e}")));
                        StepOutcome::Failed
                    }
                }
            }
            Job::End => {
                // Non-`None` by the guard at entry; `map` keeps this
                // arm total rather than panicking on a repeat End.
                let finished = self.sess.take().map(S::finish);
                // Release the governor share *before* the trailer goes
                // out: a client that has read its trailer may rely on
                // the share being back in the pool (determinism tests
                // sequence admissions against observed stream ends).
                if let Some(gov) = self.gov.as_mut() {
                    gov.end();
                }
                match finished {
                    Some(Ok(stats)) => {
                        let _ = write_stats_msg(&mut self.out, &stats);
                    }
                    Some(Err(e)) => {
                        let _ = write_error_msg(&mut self.out, &format!("finish: {e}"));
                    }
                    None => {}
                }
                if let Some(fanout) = self.fanout.as_mut() {
                    fanout.guard.finish();
                }
                self.out.hangup(None);
                StepOutcome::Finished
            }
            Job::Abort(message) => {
                if let Some(gov) = self.gov.as_mut() {
                    gov.end();
                }
                if let Some(fanout) = self.fanout.as_mut() {
                    fanout.guard.fail(&message);
                }
                self.out.hangup(Some(&message));
                StepOutcome::Failed
            }
        }
    }
}

/// Boxes the runner of a decode stream on `codec`.
fn decode_runner<'env, C>(
    codec: &'env C,
    negotiated: (usize, usize),
    out: OutHandle,
) -> Box<dyn SessionRunner + Send + 'env>
where
    C: VideoCodec + Sync,
    C::Reference: Send,
{
    Box::new(DecodeRunner {
        sess: StreamDecoder::new(codec),
        out,
        negotiated,
        stats: StreamStats::default(),
    })
}

/// Boxes the runner of an encode stream on `codec` — a publish stream
/// when `fanout` carries the claimed broadcast, which also puts the
/// session in joinable-stream mode (every intra carries the stream
/// header).
fn encode_runner<'env, C>(
    codec: &'env C,
    mode: RateMode<C::Rate>,
    out: OutHandle,
    admit: Option<GovAdmit<'env>>,
    fanout: Option<Fanout<'env>>,
    counters: &'env Counters,
) -> Box<dyn SessionRunner + Send + 'env>
where
    C: VideoCodec + Sync,
    C::Reference: Send,
{
    let gov = admit.and_then(|admit| claim_governed(counters, admit, &mode));
    let mut sess = StreamEncoder::new(codec, mode);
    sess.set_join_headers(fanout.is_some());
    Box::new(EncodeRunner {
        sess: Some(sess),
        out,
        gov,
        fanout,
    })
}

// ---------------------------------------------------------------------
// Handshake validation helpers
// ---------------------------------------------------------------------

/// Builds a session rate mode from the wire's `(target, fixed rate)`
/// pair — the *single* conversion both the handshake and the mid-stream
/// `'R'` retarget go through, so the two paths can never drift apart in
/// what they accept. Note the hybrid QP domain is every byte (the
/// quantizer step extrapolates beyond the useful 0..=51, exactly as
/// before the rate-mode handshake existed), while CTVC validates
/// against the calibrated sweep.
fn wire_rate_mode<R: RateParam>(
    target: Option<TargetBppWire>,
    rate: u8,
) -> Result<RateMode<R>, String> {
    match target {
        Some(t) if t.milli_bpp == 0 => Err("target bpp must be positive".into()),
        Some(t) => Ok(RateMode::TargetBpp {
            bpp: t.bpp(),
            window: usize::from(t.window),
        }),
        None => Ok(RateMode::Fixed(R::from_wire(rate)?)),
    }
}

/// The codec-facing shape an accepted handshake resolves to, computed
/// *before* admission so every fallible wire conversion sits behind the
/// reject path and the runner construction below it cannot fail.
enum SessionPlan {
    CtvcDecode,
    HybridDecode,
    CtvcEncode(RateMode<RatePoint>),
    HybridEncode(RateMode<u8>),
}

impl SessionPlan {
    /// Resolves a non-subscribe handshake; a publish stream is an encode
    /// plan plus the broadcast claim taken at admission.
    /// [`validate_hello`] already accepted the rate, so this succeeds on
    /// every reachable input — routing the conversion through a `Result`
    /// anyway keeps the handshake total.
    fn resolve(hello: &Hello) -> Result<SessionPlan, String> {
        match (hello.family, hello.role) {
            (Family::Ctvc, Role::Decode) => Ok(SessionPlan::CtvcDecode),
            (Family::Hybrid, Role::Decode) => Ok(SessionPlan::HybridDecode),
            (Family::Ctvc, Role::Encode | Role::Publish) => {
                wire_rate_mode::<RatePoint>(hello.target, hello.rate).map(SessionPlan::CtvcEncode)
            }
            (Family::Hybrid, Role::Encode | Role::Publish) => {
                wire_rate_mode::<u8>(hello.target, hello.rate).map(SessionPlan::HybridEncode)
            }
            (_, Role::Subscribe) => Err("subscribe streams hold no codec session".into()),
        }
    }
}

/// The rate byte a degraded admission acks: the rung the governor's
/// grant puts a fixed-rate session at for its first frame (closed-loop
/// sessions keep their bpp target, so their ack echoes the request).
/// Reuses the exact walk the runner takes, so the ack and frame one
/// can never disagree.
fn degraded_ack_rate(hello: &Hello, ratio: f64, floor: u32) -> u8 {
    if hello.target.is_some() {
        return hello.rate;
    }
    match hello.family {
        Family::Ctvc => RatePoint::from_wire(hello.rate)
            .map(|r| RatePoint::from_position(granted_position(&r, ratio, floor)).to_wire())
            .unwrap_or(hello.rate),
        Family::Hybrid => <u8 as RateParam>::from_wire(hello.rate)
            .map(|r| <u8 as RateParam>::from_position(granted_position(&r, ratio, floor)).to_wire())
            .unwrap_or(hello.rate),
    }
}

/// Turns a fresh admission into the runner-owned [`Governed`] wrapper,
/// recording what the session asked for so every later grant is derived
/// from the same request. The want is read off the already-converted
/// session rate mode, so no fallible wire conversion happens here.
fn claim_governed<'env, R: RateParam>(
    counters: &'env Counters,
    admit: GovAdmit<'env>,
    mode: &RateMode<R>,
) -> Option<Governed<'env, R>> {
    let want = match mode {
        RateMode::TargetBpp { bpp, window } => GovWant::TargetBpp {
            bpp: *bpp,
            window: *window,
        },
        RateMode::Fixed(rate) => GovWant::Fixed(*rate),
        // Callback/controller modes are not constructible from the
        // wire; dropping the admission (which releases its share)
        // leaves such a session ungoverned rather than inventing a
        // demand the governor cannot re-derive.
        RateMode::PerFrame(_) | RateMode::Controller(_) => return None,
    };
    let gov = admit.governor();
    Some(Governed::new(gov, counters, admit.claim(), want))
}

/// Validates the semantic half of a handshake against the served codecs.
/// Subscribe handshakes carry no rate of their own (the broadcast's rate
/// is what they get), so only their geometry is checked here — the rest
/// is validated against the named broadcast at attach time.
fn validate_hello(hello: &Hello) -> Result<(), String> {
    if hello.target.is_some() && !matches!(hello.role, Role::Encode | Role::Publish) {
        return Err("target-bpp mode only applies to encode streams".into());
    }
    match hello.family {
        Family::Ctvc => {
            if hello.role != Role::Subscribe {
                wire_rate_mode::<RatePoint>(hello.target, hello.rate)?;
            }
            if !hello.width.is_multiple_of(16) || !hello.height.is_multiple_of(16) {
                return Err(format!(
                    "CTVC streams need dimensions divisible by 16, got {}x{}",
                    hello.width, hello.height
                ));
            }
            Ok(())
        }
        Family::Hybrid if hello.role == Role::Subscribe => Ok(()),
        Family::Hybrid => wire_rate_mode::<u8>(hello.target, hello.rate).map(|_| ()),
    }
}

// ---------------------------------------------------------------------
// The poller
// ---------------------------------------------------------------------

/// What one socket read produced.
enum Input {
    Data(usize),
    Eof,
    Failed(io::Error),
    Block,
}

/// The event loop's state: every registered connection, the read/write
/// interest sets, and the timer wheel. Runs on the `nvc-serve` thread.
struct Poller<'p, 'env: 'p> {
    cfg: &'env ServeConfig,
    ctvc: &'env CtvcCodec,
    hybrid: &'env HybridCodec,
    // A shorter borrow than `'env`: the scheduler's queues hold
    // `Slot<'env>`s (invariant over `'env`), so borrowing it *for*
    // `'env` would demand the scheduler outlive its own drop.
    sched: &'p Scheduler<'env>,
    registry: &'env BroadcastRegistry,
    governor: Option<&'env Governor>,
    counters: &'env Counters,
    shared: Arc<PollShared>,
    conns: HashMap<u64, Conn<'env>>,
    /// Tokens whose sockets are read each pass: in-handshake, active
    /// non-parked sessions, and draining connections (reads discarded).
    /// Subscribers are write-only — their death surfaces on a write.
    /// Blocked writes are *not* swept per pass; they re-probe via
    /// [`TimerKind::WriteRetry`] entries on the wheel.
    read_set: HashSet<u64>,
    wheel: TimerWheel,
    fired: Vec<(u64, u32, TimerKind)>,
    next_token: u64,
    scratch: Vec<u8>,
}

impl<'p, 'env> Poller<'p, 'env> {
    #[allow(clippy::too_many_arguments)] // one borrow per serving subsystem
    fn new(
        cfg: &'env ServeConfig,
        ctvc: &'env CtvcCodec,
        hybrid: &'env HybridCodec,
        sched: &'p Scheduler<'env>,
        registry: &'env BroadcastRegistry,
        governor: Option<&'env Governor>,
        counters: &'env Counters,
        shared: Arc<PollShared>,
    ) -> Self {
        Poller {
            cfg,
            ctvc,
            hybrid,
            sched,
            registry,
            governor,
            counters,
            shared,
            conns: HashMap::new(),
            read_set: HashSet::new(),
            wheel: {
                let mut wheel = TimerWheel::new();
                wheel.set_fire_lag(counters.fire_lag_us.clone());
                wheel
            },
            fired: Vec::new(),
            next_token: 0,
            scratch: vec![0u8; 64 * 1024],
        }
    }

    /// Recomputes whether `token`'s socket should be read each pass.
    fn sync_interest(&mut self, token: u64) {
        let want = match self.conns.get(&token) {
            Some(conn) => {
                conn.draining
                    || match &conn.kind {
                        ConnKind::Hello(_) => true,
                        ConnKind::Session { ended, parked, .. } => !*ended && parked.is_none(),
                        ConnKind::Subscriber { .. } | ConnKind::Finishing => false,
                    }
            }
            None => false,
        };
        if want {
            self.read_set.insert(token);
        } else {
            self.read_set.remove(&token);
        }
    }

    /// Registers a fresh accept: nonblocking socket, handshake decoder,
    /// deadline on the wheel.
    fn register(&mut self, sock: TcpStream, now: Instant) {
        let _ = sock.set_nodelay(true);
        if sock.set_nonblocking(true).is_err() {
            self.counters.rejected.inc();
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.wheel.arm(
            token,
            0,
            TimerKind::Handshake,
            now + self.cfg.handshake_timeout,
        );
        self.conns.insert(
            token,
            Conn {
                sock,
                out: Arc::new(Mutex::new(OutState::default())),
                gen: 0,
                draining: false,
                stalled_since: None,
                retry_backoff: RETRY_MIN,
                retry_armed: false,
                kind: ConnKind::Hello(HelloDecoder::new()),
            },
        );
        self.read_set.insert(token);
    }

    /// Rejects an in-progress handshake (or kills an established
    /// connection) with an `'X'` notice: queue the message and a
    /// draining close, count it, and stop feeding the protocol machine.
    fn reject(&mut self, token: u64, message: &str) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.kind = ConnKind::Finishing;
            conn.gen = conn.gen.wrapping_add(1);
            queue_hangup(&conn.out, Vec::new(), Some(message));
        }
        self.counters.rejected.inc();
        self.sync_interest(token);
    }

    /// Unregisters a connection. `lost` says the peer vanished with the
    /// stream still live — an established session then still needs its
    /// runner driven once (governor share release, publisher failure),
    /// so a synthesized abort is queued for the workers. The capacity
    /// slot frees here unless the draining close already freed it; see
    /// [`Poller::release`] for when a client may count on it.
    fn remove_conn(&mut self, token: u64, lost: bool) {
        self.read_set.remove(&token);
        if let Some(conn) = self.conns.remove(&token) {
            self.release(conn.kind, lost);
        }
    }

    /// Frees what admission reserved for a connection: its session or
    /// subscriber capacity slot (and, for a lost live session, its
    /// runner's last step — see [`Poller::remove_conn`]).
    ///
    /// The contract: a connection's slot is free by the time its peer
    /// can have read the last byte the server sends it. The slot frees
    /// here, on the poller thread, in the same pass that writes that
    /// byte — after a trailer from [`Poller::remove_conn`] on the
    /// graceful close, after an `'X'` notice when the draining close
    /// begins (not when its drain window ends) — so it is strictly
    /// before the next accept is admitted, and a client that read
    /// either can reconnect at once. Producers queue the last byte and
    /// the close together (`conn::queue_hangup`), so no pass can write
    /// one without seeing the other.
    fn release(&self, kind: ConnKind<'env>, lost: bool) {
        match kind {
            ConnKind::Session {
                slot,
                decoder,
                ended,
                ..
            } => {
                if lost && !ended {
                    let _ = self
                        .sched
                        .try_enqueue(&slot, Job::Abort(decoder.interrupt(None)));
                }
                self.counters.active.sub(1);
            }
            ConnKind::Subscriber { ring, .. } => {
                ring.detach();
                self.counters.active_subscribers.sub(1);
            }
            ConnKind::Hello(_) | ConnKind::Finishing => {}
        }
    }

    /// Services one woken token: phase-specific forward progress, then
    /// the outbox.
    fn service(&mut self, token: u64, now: Instant) {
        enum Act {
            Drive,
            Pump,
            Nothing,
        }
        let act = match self.conns.get(&token) {
            Some(conn) => match &conn.kind {
                ConnKind::Session { .. } => Act::Drive,
                ConnKind::Subscriber { .. } => Act::Pump,
                _ => Act::Nothing,
            },
            None => return,
        };
        match act {
            Act::Drive => self.drive_session(token),
            Act::Pump => {
                self.flush_subscriber(token, now);
                return;
            }
            Act::Nothing => {}
        }
        // A socket known to be blocked can't take the new bytes anyway;
        // its pending `WriteRetry` probe rediscovers writability.
        // Skipping the attempt keeps a frame's fan-out from paying one
        // futile `EAGAIN` per stalled subscriber.
        let blocked = self
            .conns
            .get(&token)
            .is_some_and(|conn| conn.stalled_since.is_some());
        if !blocked {
            self.apply_write(token, now);
        }
    }

    /// Drains a subscriber's ring through its outbox until the ring
    /// runs dry, the socket blocks, or the connection goes terminal.
    ///
    /// The loop matters: [`pump`](Server::pump) stops
    /// moving ring packets while the outbox sits at its cap, and a
    /// terminal ring state (closed broadcast, eviction notice) stays
    /// parked *behind* that backlog — with its one-shot ring wake long
    /// spent. One pump-then-write round would strand the tail the
    /// moment the writes catch up, so keep refilling while bytes move.
    /// A socket known to be blocked is left to its pending
    /// [`TimerKind::WriteRetry`] probe — no futile `EAGAIN` per pass.
    fn flush_subscriber(&mut self, token: u64, now: Instant) {
        loop {
            self.pump(token);
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.draining || conn.stalled_since.is_some() {
                return;
            }
            if !self.apply_write(token, now) {
                return;
            }
        }
    }

    /// Decodes buffered session bytes into jobs until the buffer runs
    /// dry, the queue fills (job parked, reads paused), or the stream
    /// terminates.
    fn drive_session(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let ConnKind::Session {
                slot,
                decoder,
                parked,
                ended,
            } = &mut conn.kind
            else {
                return;
            };
            if *ended {
                break;
            }
            let job = if let Some(job) = parked.take() {
                job
            } else {
                match decoder.next_msg() {
                    Ok(Some(WireMsg::Packet(packet))) => Job::Packet(packet),
                    // The frame index is client-assigned bookkeeping the
                    // encoder re-derives; drop it exactly as the old
                    // blocking reader did.
                    Ok(Some(WireMsg::Frame(_, frame))) => Job::Frame(frame),
                    Ok(Some(WireMsg::Retarget(retarget))) => Job::Retarget(retarget),
                    Ok(Some(WireMsg::End)) => Job::End,
                    Ok(None) => break,
                    Err(message) => Job::Abort(message),
                }
            };
            let control = job.is_control();
            match self.sched.try_enqueue(slot, job) {
                Enqueue::Queued => {
                    if control {
                        *ended = true;
                        break;
                    }
                }
                Enqueue::Full(job) => {
                    *parked = Some(job);
                    break;
                }
                Enqueue::Dead => {
                    *ended = true;
                    break;
                }
            }
        }
        self.sync_interest(token);
    }

    /// Transfers ring packets into a subscriber's outbox (bounded by the
    /// outbox cap); marks the subscription done on a terminal ring state.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let ConnKind::Subscriber { ring, stats, done } = &mut conn.kind {
            if !*done {
                *done = pump_subscriber(ring, &conn.out, stats);
            }
        }
    }

    /// Drains a connection's outbox into its socket and applies the
    /// outcome: stall tracking, queued closes, peer death. Returns
    /// whether any bytes moved.
    fn apply_write(&mut self, token: u64, now: Instant) -> bool {
        let status = {
            let Some(conn) = self.conns.get(&token) else {
                return false;
            };
            if conn.draining {
                return false;
            }
            service_writes(&conn.sock, &conn.out)
        };
        match status {
            WriteStatus::Idle => {
                self.clear_stall(token);
                false
            }
            WriteStatus::Progress => {
                self.clear_stall(token);
                true
            }
            WriteStatus::Blocked { progressed } => {
                let (stall, retry) = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return progressed;
                    };
                    let first = conn.stalled_since.is_none();
                    if progressed || first {
                        conn.stalled_since = Some(now);
                    }
                    if progressed {
                        // The peer is draining, just slower than we
                        // write; probe promptly again.
                        conn.retry_backoff = RETRY_MIN;
                    }
                    let retry = (!conn.retry_armed).then(|| {
                        conn.retry_armed = true;
                        let delay = conn.retry_backoff;
                        conn.retry_backoff = (conn.retry_backoff * 2).min(RETRY_MAX);
                        (conn.gen, delay)
                    });
                    (first.then_some(conn.gen), retry)
                };
                if let Some(gen) = stall {
                    self.wheel.arm(
                        token,
                        gen,
                        TimerKind::WriteStall,
                        now + self.cfg.write_timeout,
                    );
                }
                if let Some((gen, delay)) = retry {
                    self.wheel
                        .arm(token, gen, TimerKind::WriteRetry, now + delay);
                }
                progressed
            }
            WriteStatus::Gone => {
                self.remove_conn(token, true);
                true
            }
            WriteStatus::Close(CloseKind::Graceful) => {
                if let Some(conn) = self.conns.get(&token) {
                    let _ = conn.sock.shutdown(Shutdown::Both);
                }
                self.remove_conn(token, false);
                true
            }
            WriteStatus::Close(CloseKind::Drain) => {
                // Half-close so the peer sees the notice plus EOF, then
                // give it a bounded window to read before the hard
                // close — the old post-error drain, now on the wheel.
                // The slot frees now, not when the window ends.
                let (gen, kind) = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return true;
                    };
                    let _ = conn.sock.shutdown(Shutdown::Write);
                    conn.draining = true;
                    conn.stalled_since = None;
                    conn.gen = conn.gen.wrapping_add(1);
                    (
                        conn.gen,
                        std::mem::replace(&mut conn.kind, ConnKind::Finishing),
                    )
                };
                self.release(kind, false);
                self.wheel
                    .arm(token, gen, TimerKind::Drain, now + DRAIN_TIMEOUT);
                self.sync_interest(token);
                true
            }
        }
    }

    fn clear_stall(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.stalled_since = None;
            conn.retry_backoff = RETRY_MIN;
        }
    }

    /// One nonblocking read on a read-interested connection.
    fn service_read(&mut self, token: u64, now: Instant) -> bool {
        let input = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match (&conn.sock).read(&mut self.scratch) {
                Ok(0) => Input::Eof,
                Ok(n) => Input::Data(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    Input::Block
                }
                Err(e) => Input::Failed(e),
            }
        };
        match input {
            Input::Block => false,
            Input::Data(n) => {
                self.on_bytes(token, n, now);
                true
            }
            Input::Eof => {
                self.on_read_lost(token, None, now);
                true
            }
            Input::Failed(e) => {
                self.on_read_lost(token, Some(e), now);
                true
            }
        }
    }

    /// Routes `n` fresh bytes into the connection's protocol machine.
    fn on_bytes(&mut self, token: u64, n: usize, now: Instant) {
        enum Next {
            Establish(Hello, Vec<u8>),
            Reject(String),
            Drive,
            Nothing,
        }
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.draining {
                // Post-error drain: discard whatever the peer sends.
                Next::Nothing
            } else {
                match &mut conn.kind {
                    ConnKind::Hello(decoder) => match decoder.feed(&self.scratch[..n]) {
                        Ok(Some(hello)) => Next::Establish(hello, decoder.take_rest()),
                        Ok(None) => Next::Nothing,
                        Err(e) => Next::Reject(format!("handshake: {e}")),
                    },
                    ConnKind::Session { decoder, ended, .. } if !*ended => {
                        decoder.feed(&self.scratch[..n]);
                        Next::Drive
                    }
                    _ => Next::Nothing,
                }
            }
        };
        match next {
            Next::Establish(hello, rest) => self.establish(token, hello, rest, now),
            Next::Reject(message) => {
                self.reject(token, &message);
                self.apply_write(token, now);
            }
            Next::Drive => {
                self.drive_session(token);
                self.apply_write(token, now);
            }
            Next::Nothing => {}
        }
    }

    /// The read side died (EOF or a hard error): reproduce the old
    /// blocking reader's diagnostics from the decoder's buffered state.
    fn on_read_lost(&mut self, token: u64, err: Option<io::Error>, now: Instant) {
        enum Next {
            CloseNow,
            Reject(String),
            Abort(String),
            Nothing,
        }
        let next = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.draining {
                Next::CloseNow
            } else {
                match &conn.kind {
                    ConnKind::Hello(decoder) => {
                        Next::Reject(format!("handshake: {}", decoder.interrupt(err)))
                    }
                    ConnKind::Session { decoder, ended, .. } if !*ended => {
                        Next::Abort(decoder.interrupt(err))
                    }
                    _ => Next::Nothing,
                }
            }
        };
        match next {
            Next::CloseNow => {
                if let Some(conn) = self.conns.get(&token) {
                    let _ = conn.sock.shutdown(Shutdown::Both);
                }
                self.remove_conn(token, false);
            }
            Next::Reject(message) => {
                self.reject(token, &message);
                self.apply_write(token, now);
            }
            Next::Abort(message) => {
                {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    let ConnKind::Session {
                        slot,
                        parked,
                        ended,
                        ..
                    } = &mut conn.kind
                    else {
                        return;
                    };
                    *parked = None;
                    let _ = self.sched.try_enqueue(slot, Job::Abort(message));
                    *ended = true;
                }
                self.sync_interest(token);
            }
            Next::Nothing => {
                self.sync_interest(token);
            }
        }
    }

    /// Handles every due timer. Returns whether any acted.
    fn on_timers(&mut self, now: Instant) -> bool {
        self.wheel.advance(now, &mut self.fired);
        let mut acted = false;
        while let Some((token, gen, kind)) = self.fired.pop() {
            acted |= self.on_timer(token, gen, kind, now);
        }
        acted
    }

    fn on_timer(&mut self, token: u64, gen: u32, kind: TimerKind, now: Instant) -> bool {
        let Some(conn) = self.conns.get(&token) else {
            return false;
        };
        // Stale: the connection changed phase after arming.
        if conn.gen != gen {
            return false;
        }
        match kind {
            TimerKind::Handshake => {
                let message = match &conn.kind {
                    ConnKind::Hello(decoder) => format!(
                        "handshake: {}",
                        decoder.interrupt(Some(io::Error::new(
                            ErrorKind::TimedOut,
                            "handshake deadline exceeded",
                        )))
                    ),
                    _ => return false,
                };
                self.counters.timer_fires.inc();
                self.reject(token, &message);
                self.apply_write(token, now);
                true
            }
            TimerKind::WriteStall => {
                let Some(since) = conn.stalled_since else {
                    return false;
                };
                if now.saturating_duration_since(since) >= self.cfg.write_timeout {
                    self.counters.timer_fires.inc();
                    self.remove_conn(token, true);
                    true
                } else {
                    // Progress reset the stall clock after arming;
                    // re-arm for the remainder (not counted as a fire).
                    self.wheel.arm(
                        token,
                        gen,
                        TimerKind::WriteStall,
                        since + self.cfg.write_timeout,
                    );
                    false
                }
            }
            TimerKind::WriteRetry => {
                let blocked = conn.stalled_since.is_some();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.retry_armed = false;
                }
                if !blocked {
                    // Progress beat the probe; the backoff was already
                    // reset and nothing is pending.
                    return false;
                }
                self.counters.timer_fires.inc();
                let acted = self.apply_write(token, now);
                // A probe that cleared the stall may have exposed ring
                // backlog (or an eviction notice) the pump parked under
                // outbox backpressure; drain it now or it starves.
                self.flush_subscriber(token, now);
                acted
            }
            TimerKind::Drain => {
                if !conn.draining {
                    return false;
                }
                self.counters.timer_fires.inc();
                let _ = conn.sock.shutdown(Shutdown::Both);
                self.remove_conn(token, false);
                true
            }
        }
    }

    /// The event loop. Exits when `stop` is raised or the listener
    /// fails hard.
    fn poll_loop(&mut self, listener: &TcpListener, stop: &AtomicBool) {
        self.shared.register_thread();
        let mut wakes: Vec<u64> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();
        let mut backoff = Duration::from_micros(200);
        loop {
            // order: Relaxed — the stop latch is re-polled every pass;
            // `ServerHandle::stop_and_join` joins for the real sync.
            if stop.load(Ordering::Relaxed) {
                break;
            }
            self.counters.poll_wakeups.inc();
            let mut progress = false;
            let mut fatal = false;
            // 1. Accept everything pending.
            let now = Instant::now();
            loop {
                match listener.accept() {
                    Ok((sock, _)) => {
                        self.register(sock, now);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            self.counters
                .max_registered
                .record_max(self.conns.len() as i64);
            // 2. Service explicit wakes (worker flushes, ring pushes,
            // freed queue space).
            wakes.clear();
            if let Some(since) = self.shared.drain(&mut wakes) {
                self.counters
                    .wake_latency_us
                    .record(nvc_telemetry::epoch_micros().saturating_sub(since));
            }
            if !wakes.is_empty() {
                progress = true;
                wakes.sort_unstable();
                wakes.dedup();
                let now = Instant::now();
                for &token in &wakes {
                    self.service(token, now);
                }
            }
            // 3. Read every read-interested socket once.
            tokens.clear();
            tokens.extend(self.read_set.iter().copied());
            let now = Instant::now();
            for &token in &tokens {
                progress |= self.service_read(token, now);
            }
            // 4. Fire due timers (including blocked-write re-probes —
            // no socket is swept per pass just for being blocked).
            progress |= self.on_timers(Instant::now());
            if fatal {
                break;
            }
            // 5. Park. Live readers cap the park low; otherwise sleep
            // until the next timer or the idle backstop. A wake landing
            // between drain and park makes park return immediately
            // (sticky unpark permit), so nothing is lost.
            if progress {
                backoff = Duration::from_micros(200);
                continue;
            }
            self.counters.spurious_polls.inc();
            let cap = if !self.read_set.is_empty() {
                Duration::from_millis(2)
            } else {
                POLL
            };
            backoff = (backoff * 2).min(cap);
            let mut park = backoff;
            if let Some(deadline) = self.wheel.next_deadline() {
                park = park.min(deadline.saturating_duration_since(Instant::now()));
            }
            if !park.is_zero() {
                let _park = self.counters.park_us.time();
                std::thread::park_timeout(park);
            }
        }
        // Shutdown sweep: one best-effort flush so trailers already
        // queued have a chance to leave, then drop every socket.
        tokens.clear();
        tokens.extend(self.conns.keys().copied());
        let now = Instant::now();
        for &token in &tokens {
            self.apply_write(token, now);
        }
    }

    /// Completes a handshake: structural validation already passed (the
    /// `Hello` parsed); this is semantic validation, admission, the ack,
    /// and the phase change to a live session or subscriber. `rest` is
    /// whatever the client pipelined behind its `Hello`.
    fn establish(&mut self, token: u64, hello: Hello, rest: Vec<u8>, now: Instant) {
        if let Err(reason) = validate_hello(&hello) {
            self.reject(token, &format!("handshake: {reason}"));
            self.apply_write(token, now);
            return;
        }
        // Subscribers take a different path entirely: no codec session,
        // no pool slot — just an attach and a ring-fed outbox.
        if hello.role == Role::Subscribe {
            self.establish_subscriber(token, hello, now);
            return;
        }
        let plan = match SessionPlan::resolve(&hello) {
            Ok(plan) => plan,
            Err(reason) => {
                self.reject(token, &format!("handshake: {reason}"));
                self.apply_write(token, now);
                return;
            }
        };
        // The connection's outbox and peer identity, captured before
        // any admission state changes hands — nothing to unwind if the
        // token already raced away.
        let (out, peer) = match self.conns.get(&token) {
            Some(conn) => (
                Arc::clone(&conn.out),
                conn.sock.peer_addr().ok().map(|p| p.ip().to_string()),
            ),
            None => return,
        };
        // Atomic admission (reserve-then-ack): handshakes race for
        // slots under the cap, never past it.
        if !self.counters.active.try_inc(self.cfg.max_sessions as i64) {
            self.reject(token, "server at session capacity");
            self.apply_write(token, now);
            return;
        }
        // Governed admission: backlog-aware for every session,
        // budget-aware for the bandwidth-bearing roles. The three-step
        // response — admit, admit-degraded (the ack says so), reject
        // with a clean 'X' — all resolves here, before the ack.
        let mut gov_admit: Option<GovAdmit<'env>> = None;
        if let Some(gov) = self.governor {
            let backlog = self.sched.backlog();
            let admitted = if matches!(hello.role, Role::Encode | Role::Publish) {
                let pixels = (hello.width * hello.height) as f64;
                let want = match hello.target {
                    Some(t) => t.bpp() * pixels,
                    None => gov.config().assumed_bpp * pixels,
                };
                let client = hello
                    .client
                    .clone()
                    .or_else(|| peer.clone())
                    .unwrap_or_else(|| "unknown-peer".into());
                gov.admit(&client, want, backlog)
                    .map(|(id, ratio)| Some(GovAdmit::new(gov, id, ratio)))
            } else {
                gov.check_backlog(backlog).map(|()| None)
            };
            match admitted {
                Ok(admit) => {
                    self.counters.gov_admit.inc();
                    if let Some(admit) = &admit {
                        self.counters
                            .gov_grant_ratio_pct
                            .record((admit.ratio() * 100.0).round() as u64);
                        if admit.ratio() < 1.0 {
                            self.counters.gov_degraded_admit.inc();
                        }
                    }
                    gov_admit = admit;
                }
                Err(reason) => {
                    self.counters.gov_reject.inc();
                    self.counters.active.sub(1);
                    self.reject(token, &format!("admission: {reason}"));
                    self.apply_write(token, now);
                    return;
                }
            }
        }
        // Publish streams claim their broadcast name *before* the ack,
        // so a duplicate name is a handshake rejection, not a
        // mid-stream abort.
        let relay_gop: u16 = if hello.gop != 0 {
            hello.gop
        } else {
            self.cfg.broadcast_gop.clamp(1, usize::from(u16::MAX)) as u16
        };
        let mut fanout = None;
        if hello.role == Role::Publish {
            let name = hello.broadcast.as_deref().unwrap_or_default();
            let info = BroadcastInfo {
                family: hello.family,
                width: hello.width,
                height: hello.height,
                gop: relay_gop,
            };
            match self.registry.create(name, info, hello.rate) {
                Ok(guard) => {
                    fanout = Some(Fanout {
                        guard,
                        gop: u32::from(relay_gop),
                        since_intra: 0,
                        counters: self.counters,
                    });
                }
                Err(reason) => {
                    self.counters.active.sub(1);
                    self.reject(token, &format!("handshake: {reason}"));
                    self.apply_write(token, now);
                    return;
                }
            }
        }
        let ack = match &gov_admit {
            Some(admit) if admit.ratio() < 1.0 => Ack {
                rate: degraded_ack_rate(
                    &hello,
                    admit.ratio(),
                    self.governor.map_or(0, |g| g.config().min_position),
                ),
                degraded: true,
            },
            _ => Ack {
                rate: hello.rate,
                degraded: false,
            },
        };
        let waker = PollWaker::new(Arc::clone(&self.shared), token);
        push_bytes(&out, ack_msg_bytes(&ack));
        self.counters.sessions.inc();

        let negotiated = (hello.width, hello.height);
        let counters = self.counters;
        let out_handle = OutHandle::new(Arc::clone(&out), waker.clone());
        let runner = match plan {
            SessionPlan::CtvcDecode => decode_runner(self.ctvc, negotiated, out_handle),
            SessionPlan::HybridDecode => decode_runner(self.hybrid, negotiated, out_handle),
            SessionPlan::CtvcEncode(mode) => {
                encode_runner(self.ctvc, mode, out_handle, gov_admit, fanout, counters)
            }
            SessionPlan::HybridEncode(mode) => {
                encode_runner(self.hybrid, mode, out_handle, gov_admit, fanout, counters)
            }
        };
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::default()),
            space: Condvar::new(),
            runner: Mutex::new(runner),
            waker,
        });
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                // The token raced away mid-establish: free the capacity
                // slot the admission above reserved (dropping the slot's
                // runner releases any governor share and publish claim).
                self.counters.active.sub(1);
                return;
            };
            conn.gen = conn.gen.wrapping_add(1);
            let mut decoder = MsgDecoder::new(hello.role, VERSION, hello.width, hello.height);
            // Bytes the client pipelined behind its Hello.
            decoder.feed(&rest);
            conn.kind = ConnKind::Session {
                slot,
                decoder,
                parked: None,
                ended: false,
            };
        }
        self.drive_session(token);
        self.apply_write(token, now);
    }

    /// The subscriber half of [`Poller::establish`]: resolves the named
    /// broadcast, validates the handshake against its fixed facts,
    /// attaches, queues the ack plus the `'J'` join info and the backlog,
    /// and flips the connection into ring-fed mode.
    fn establish_subscriber(&mut self, token: u64, hello: Hello, now: Instant) {
        let name = hello.broadcast.as_deref().unwrap_or_default();
        let Some(broadcast) = self.registry.get(name) else {
            self.reject(token, &format!("handshake: no broadcast named {name:?}"));
            self.apply_write(token, now);
            return;
        };
        let info = broadcast.info();
        if info.family != hello.family {
            self.reject(
                token,
                &format!(
                    "handshake: broadcast {name:?} serves {:?} streams, not {:?}",
                    info.family, hello.family
                ),
            );
            self.apply_write(token, now);
            return;
        }
        if (info.width, info.height) != (hello.width, hello.height) {
            self.reject(
                token,
                &format!(
                    "handshake: broadcast {name:?} is {}x{}, requested {}x{}",
                    info.width, info.height, hello.width, hello.height
                ),
            );
            self.apply_write(token, now);
            return;
        }
        // Subscriber admission is separate from session admission: a
        // subscriber holds no codec state and no pool slot, so the cap
        // is orders of magnitude higher.
        if !self
            .counters
            .active_subscribers
            .try_inc(self.cfg.max_subscribers as i64)
        {
            self.reject(token, "server at subscriber capacity");
            self.apply_write(token, now);
            return;
        }
        let attachment = match broadcast.attach(self.cfg.subscriber_ring) {
            Ok(attachment) => attachment,
            Err(reason) => {
                self.counters.active_subscribers.sub(1);
                self.reject(token, &format!("handshake: {reason}"));
                self.apply_write(token, now);
                return;
            }
        };
        let join = JoinInfo {
            family: info.family,
            width: info.width,
            height: info.height,
            start_index: attachment.start_index,
            rate: attachment.rate,
            gop: info.gop,
        };
        let ack = Ack {
            rate: attachment.rate,
            degraded: false,
        };
        let mut bytes = ack_msg_bytes(&ack);
        if write_join_msg(&mut bytes, &join).is_err() {
            // The broadcast's geometry was wire-validated when it was
            // created, so a failed re-encode is unreachable; unwind the
            // attach rather than panicking if it ever happens.
            attachment.ring.detach();
            self.counters.active_subscribers.sub(1);
            self.reject(token, "handshake: broadcast geometry not encodable");
            self.apply_write(token, now);
            return;
        }
        let Some(out) = self.conns.get(&token).map(|conn| Arc::clone(&conn.out)) else {
            attachment.ring.detach();
            self.counters.active_subscribers.sub(1);
            return;
        };
        push_bytes(&out, bytes);
        self.counters.subscribers.inc();
        // Ring pushes from the publisher's worker now wake this token.
        attachment
            .ring
            .set_notify(PollWaker::new(Arc::clone(&self.shared), token));
        // The join-time backlog (at most one GOP segment) goes straight
        // into the outbox, bypassing the pump's cap, and is accounted in
        // the trailer like every later packet.
        let mut stats = StreamStats::default();
        for packet in &attachment.backlog {
            packet.record_into(&mut stats);
            push_shared(&out, Arc::clone(packet));
        }
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                attachment.ring.detach();
                self.counters.active_subscribers.sub(1);
                return;
            };
            conn.gen = conn.gen.wrapping_add(1);
            conn.kind = ConnKind::Subscriber {
                ring: Arc::clone(&attachment.ring),
                stats,
                done: false,
            };
        }
        self.sync_interest(token);
        self.flush_subscriber(token, now);
    }
}

// ---------------------------------------------------------------------
// The serve loop
// ---------------------------------------------------------------------

fn run(
    listener: TcpListener,
    cfg: ServeConfig,
    ctvc: CtvcCodec,
    hybrid: HybridCodec,
    stop: &AtomicBool,
    counters: &Counters,
    shared: Arc<PollShared>,
) {
    let hardware = nvc_core::ExecCtx::auto().threads();
    let workers = if cfg.workers == 0 {
        hardware
    } else {
        cfg.workers
    };
    let threads_per_session = cfg.threads_per_session.max(1);
    let exec = ExecPool::new(EXEC_CAP);
    let registry = BroadcastRegistry::new();
    // Default compute-admission ceiling: the deepest backlog the slot
    // queues can legitimately hold at once.
    let governor = cfg
        .governor
        .clone()
        .map(|gov_cfg| Governor::new(gov_cfg, cfg.queue_depth.max(1) * cfg.max_sessions.max(1)));
    let sched = Scheduler::new(cfg.queue_depth);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| worker_loop(&sched, &exec, threads_per_session, stop, counters));
        }
        // The poller runs right here on the `nvc-serve` thread: one
        // event loop for the listener and every connection.
        let mut poller = Poller::new(
            &cfg,
            &ctvc,
            &hybrid,
            &sched,
            &registry,
            governor.as_ref(),
            counters,
            Arc::clone(&shared),
        );
        poller.poll_loop(&listener, stop);
        // order: Relaxed — workers re-poll the latch under the notified
        // condvar; the scope join below is the synchronization point.
        stop.store(true, Ordering::Relaxed);
        sched.work.notify_all();
        registry.fail_all("server shutting down");
    });
}

// ---------------------------------------------------------------------
// The live metrics endpoint
// ---------------------------------------------------------------------

/// Accept loop for the metrics listener: every connection gets one
/// snapshot and is closed. Runs on the `nvc-metrics` thread; never
/// touches the serving poller or any session state — a scrape can slow
/// nothing but itself.
fn metrics_loop(listener: &TcpListener, stop: &AtomicBool, counters: &Counters) {
    // order: Relaxed — a stop latch re-polled every accept round.
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut sock, _)) => {
                let _ = answer_scrape(&mut sock, counters);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Writes one HTTP/1.0 response carrying the metrics snapshot. The
/// request itself is drained best-effort and ignored: whatever path was
/// asked, the answer is the same text snapshot.
fn answer_scrape(sock: &mut TcpStream, counters: &Counters) -> io::Result<()> {
    sock.set_nonblocking(false)?;
    sock.set_read_timeout(Some(Duration::from_millis(500)))?;
    sock.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut request = [0u8; 1024];
    let _ = sock.read(&mut request);
    let body = metrics_snapshot(counters);
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    sock.write_all(header.as_bytes())?;
    sock.write_all(body.as_bytes())?;
    sock.flush()
}

/// One text snapshot: the server's own registry (serving counters,
/// poller and governor histograms), the process-global registry
/// (kernel, codec, pool and ring metrics), and the most recent spans.
fn metrics_snapshot(counters: &Counters) -> String {
    use std::fmt::Write as _;
    let mut out = counters.registry.render();
    out.push_str(&Registry::global().render());
    let spans = nvc_telemetry::recent_spans(32);
    if !spans.is_empty() {
        out.push_str("# recent spans: name start_us dur_us\n");
        for s in spans {
            let _ = writeln!(out, "# span {} {} {}", s.name, s.start_us, s.dur_us);
        }
    }
    out
}

/// Fetches one metrics snapshot from a server's live endpoint (see
/// [`ServeConfig::metrics_addr`]) and returns the response body.
///
/// # Errors
///
/// Returns an error if the endpoint cannot be reached or the response
/// is not valid UTF-8.
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> io::Result<String> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(5)))?;
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let _ = sock.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "metrics response not UTF-8"))?;
    let body = match text.split_once("\r\n\r\n") {
        Some((_, body)) => body,
        None => &text,
    };
    Ok(body.to_string())
}
