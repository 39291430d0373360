//! Execution engine for the workspace's compute hot path.
//!
//! Every layer of CTVC-Net (and the classical baseline's motion search) is
//! embarrassingly parallel over *output channels*, *tiles* or *blocks*:
//! disjoint regions of the output, each with a fixed, serial accumulation
//! order. [`ExecCtx`] exploits exactly that structure and nothing more:
//!
//! * [`ExecCtx::par_chunks_mut`] splits a flat output buffer into
//!   fixed-size chunks (one per channel plane / tile / block) and fans
//!   contiguous chunk ranges out over `std::thread::scope` workers. A
//!   worker owns each chunk exclusively and computes it with the same code
//!   and the same accumulation order regardless of the worker count, so
//!   results are **bit-identical** for `threads = 1, 2, …, max` by
//!   construction.
//! * [`ExecCtx::par_chunks_mut_gated`] adds per-shape work-size gating on
//!   top: callers pass an estimate of the call's arithmetic work, and
//!   below [`PAR_MIN_WORK`] the fan-out is skipped entirely — spawning
//!   and joining scoped workers dwarfs the compute of a small
//!   decode-side plane (see the constant for what was measured). Gating
//!   never changes results (serial and parallel execution are
//!   bit-identical by construction).
//! * [`ExecCtx::par_stripes_mut`] is the fan-out for layers that produce
//!   many output planes from one shared staging step (the tiled
//!   Winograd/FTA executor): one call per layer splits the *rows* of
//!   every plane into the same contiguous stripes, one per worker, and
//!   hands each worker its stripe of every plane. A worker then runs the
//!   whole layer — staging and every output channel — on its own rows:
//!   one spawn per layer and no barrier between phases. Work-size gated
//!   like the chunked variant.
//! * [`ExecCtx::join`] runs two independent computations on two workers —
//!   the coarse grain the codec uses to overlap whole module invocations
//!   (motion-compensation branch ∥ residual-synthesis branch) instead of
//!   relying on row/tile fan-out alone.
//! * [`ScratchPool`] lends reusable `Vec<f32>` buffers (transform-domain
//!   tile stores, per-layer staging) so steady-state forward passes stay
//!   allocation-free across calls; [`ScratchPool::take_stale`] skips the
//!   zero-fill for callers that overwrite the whole buffer anyway.
//!
//! The crate is `std`-only (the build environment is offline); the pool is
//! scoped rather than persistent, which keeps borrowed inputs/outputs safe
//! without any `unsafe`.
//!
//! # Example
//!
//! ```
//! use nvc_core::ExecCtx;
//! let ctx = ExecCtx::with_threads(4);
//! let mut out = vec![0.0_f32; 12];
//! // Three chunks of four elements, computed independently.
//! ctx.par_chunks_mut(&mut out, 4, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 4 + i) as f32;
//!     }
//! });
//! assert_eq!(out[5], 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Minimum arithmetic work (multiply–accumulates, or comparable scalar
/// ops) a [`ExecCtx::par_chunks_mut_gated`] call must carry before the
/// worker fan-out is attempted; below it a small layer (the decode-side
/// latent planes especially) runs serially.
///
/// The gate only screens out work smaller than the spawn + join
/// *syscalls*. It does not promise a speed-up above it: on the 2-core
/// reference VM a freshly spawned scoped thread shares its parent's
/// core for the first ~3–4 ms (two 4 ms spins joined take 8 ms, two
/// 10 ms spins 12 ms), so a fan-out shorter than that runs no faster
/// than serial. `1 << 18` multiply–accumulates is 20–25 µs of direct
/// convolution now that `Conv2d` accumulates in registers (10–13 GMAC/s
/// at the served 24×16 and 48×32 planes; ~40 µs at the 6 GMAC/s of the
/// axpy kernel the gate was set against), while one `thread::scope`
/// spawn + join costs ≈ 80 µs of wall time beyond the work it carries —
/// so just above the gate a fan-out still loses; the gate is a floor,
/// not a break-even point.
pub const PAR_MIN_WORK: u64 = 1 << 18;

/// Upper bound on cached scratch buffers, to keep the pool from hoarding
/// memory when layers of very different sizes alternate.
const MAX_POOLED_BUFFERS: usize = 16;

/// Upper bound on total cached scratch capacity (in `f32` elements,
/// ≈ 128 MB). A buffer whose return would push the pool past this budget
/// is dropped instead of cached, so a single huge layer cannot pin its
/// peak working set for the context's whole lifetime.
const MAX_POOLED_FLOATS: usize = 32 << 20;

/// A pool of reusable `f32` buffers.
///
/// `take` hands out a zeroed buffer of the requested length (recycling a
/// previously returned allocation when one exists); `put` returns a buffer
/// to the pool. The pool is internally synchronized, so an [`ExecCtx`]
/// shared across scoped workers can lend buffers concurrently.
#[derive(Default)]
pub struct ScratchPool {
    bufs: Mutex<Vec<Vec<f32>>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows a zeroed buffer of exactly `len` elements.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let mut buf = self.pop();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Borrows a buffer of exactly `len` elements whose contents are
    /// unspecified: whatever a recycled allocation last held (zeros
    /// where it had to grow). For staging buffers the caller overwrites
    /// in full before reading, where [`ScratchPool::take`]'s memset is
    /// pure memory traffic.
    pub fn take_stale(&self, len: usize) -> Vec<f32> {
        let mut buf = self.pop();
        buf.resize(len, 0.0);
        buf
    }

    fn pop(&self) -> Vec<f32> {
        self.bufs
            .lock()
            .ok()
            .and_then(|mut bufs| bufs.pop())
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse. Buffers that would push
    /// the pool past its count or byte budget are dropped instead.
    pub fn put(&self, buf: Vec<f32>) {
        if let Ok(mut bufs) = self.bufs.lock() {
            let cached_floats: usize = bufs.iter().map(|b| b.capacity()).sum();
            if bufs.len() < MAX_POOLED_BUFFERS
                && cached_floats + buf.capacity() <= MAX_POOLED_FLOATS
            {
                bufs.push(buf);
            }
        }
    }

    /// Number of buffers currently cached.
    pub fn cached(&self) -> usize {
        self.bufs.lock().map(|b| b.len()).unwrap_or(0)
    }
}

impl fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScratchPool({} cached)", self.cached())
    }
}

/// Execution context: a worker count plus a scratch-buffer pool.
///
/// Passed by reference through `nvc_tensor::ops`, `nvc_fastalg` and
/// `nvc_model`; the codec owns one and reuses it for every layer, so
/// scratch buffers survive across forward passes.
pub struct ExecCtx {
    threads: usize,
    scratch: ScratchPool,
}

impl ExecCtx {
    /// A single-threaded context (the reference execution order).
    pub fn serial() -> Self {
        ExecCtx {
            threads: 1,
            scratch: ScratchPool::new(),
        }
    }

    /// A context using all available hardware parallelism.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecCtx {
            threads,
            scratch: ScratchPool::new(),
        }
    }

    /// A context with an explicit worker count; `0` selects
    /// [`ExecCtx::auto`].
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            ExecCtx::auto()
        } else {
            ExecCtx {
                threads,
                scratch: ScratchPool::new(),
            }
        }
    }

    /// The worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scratch-buffer pool.
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// final chunk may be shorter) and calls `f(chunk_index, chunk)` for
    /// each, fanning contiguous chunk ranges out across the worker pool.
    ///
    /// Each chunk is visited exactly once, by exactly one worker, with
    /// `chunk_index` counting chunks in order from the start of `data` —
    /// so any computation that writes only through its own chunk and reads
    /// only shared immutable state produces output independent of the
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, or propagates a worker panic.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        let n_chunks = data.len().div_ceil(chunk_len);
        let workers = self.threads.min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        // Contiguous block partition: worker t owns chunk indices
        // [start_t, start_t + count_t) and the matching sub-slice.
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = data;
            let mut next_chunk = 0usize;
            let mut own: Option<(usize, &mut [T])> = None;
            for t in 0..workers {
                let count = n_chunks / workers + usize::from(t < n_chunks % workers);
                let split = (count * chunk_len).min(rest.len());
                let (head, tail) = rest.split_at_mut(split);
                rest = tail;
                let start = next_chunk;
                next_chunk += count;
                if t == 0 {
                    // The calling thread works too, on the first range.
                    own = Some((start, head));
                } else {
                    scope.spawn(move || {
                        for (j, chunk) in head.chunks_mut(chunk_len).enumerate() {
                            f(start + j, chunk);
                        }
                    });
                }
            }
            if let Some((start, head)) = own {
                for (j, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(start + j, chunk);
                }
            }
        });
    }

    /// [`ExecCtx::par_chunks_mut`] with per-shape work-size gating: `work`
    /// estimates the call's total arithmetic (multiply–accumulates or
    /// comparable); below [`PAR_MIN_WORK`] the chunks run serially on the
    /// calling thread instead of fanning out, because worker spawn/join
    /// overhead exceeds the compute. Results are bit-identical either way,
    /// so gating is purely a latency decision.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ExecCtx::par_chunks_mut`].
    pub fn par_chunks_mut_gated<T, F>(&self, data: &mut [T], chunk_len: usize, work: u64, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        if self.threads <= 1 || work < PAR_MIN_WORK {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        self.par_chunks_mut(data, chunk_len, f);
    }

    /// Splits every `plane_len`-element plane of `data` into the same
    /// contiguous *stripes* of whole rows — `row_len` elements each, the
    /// final row of a plane may be shorter — one stripe per worker, and
    /// calls `f(rows, stripe)` once per stripe: `rows` is the stripe's
    /// row-index range and `stripe[p]` is plane `p`'s sub-slice holding
    /// exactly those rows.
    ///
    /// This is the fan-out for a layer whose workers each need *all*
    /// output planes of *their* rows (stage once, then reduce into every
    /// channel while the staging is cache-hot). Every element is handed
    /// to exactly one call, and the row indices an element is reached
    /// under do not depend on the worker count — so a computation that
    /// treats rows independently produces the same output for any number
    /// of workers. Below [`PAR_MIN_WORK`] (see
    /// [`ExecCtx::par_chunks_mut_gated`]) the whole call is one stripe on
    /// the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `plane_len` or `row_len` is zero or `data` is not a
    /// whole number of planes, and resumes a worker's panic on the
    /// calling thread.
    pub fn par_stripes_mut<T, F>(
        &self,
        data: &mut [T],
        plane_len: usize,
        row_len: usize,
        work: u64,
        f: F,
    ) where
        T: Send,
        F: Fn(Range<usize>, &mut [&mut [T]]) + Sync,
    {
        assert!(
            plane_len > 0 && row_len > 0,
            "plane_len and row_len must be non-zero"
        );
        assert!(
            data.len().is_multiple_of(plane_len),
            "data must be a whole number of planes"
        );
        let n_rows = plane_len.div_ceil(row_len);
        let workers = if work < PAR_MIN_WORK {
            1
        } else {
            self.threads.min(n_rows)
        };
        if workers <= 1 {
            let mut planes: Vec<&mut [T]> = data.chunks_mut(plane_len).collect();
            f(0..n_rows, &mut planes);
            return;
        }
        // Contiguous block partition of the rows, as in `par_chunks_mut`.
        let first_row = |t: usize| t * (n_rows / workers) + t.min(n_rows % workers);
        let n_planes = data.len() / plane_len;
        let mut stripes: Vec<Vec<&mut [T]>> =
            (0..workers).map(|_| Vec::with_capacity(n_planes)).collect();
        for plane in data.chunks_mut(plane_len) {
            let mut rest = plane;
            for (t, stripe) in stripes.iter_mut().enumerate() {
                let end = (first_row(t + 1) * row_len).min(plane_len);
                let (head, tail) = rest.split_at_mut(end - first_row(t) * row_len);
                stripe.push(head);
                rest = tail;
            }
        }
        std::thread::scope(|scope| {
            let f = &f;
            let mut stripes = stripes.into_iter().enumerate();
            // The calling thread works too, on the first stripe.
            let own = stripes.next();
            let handles: Vec<_> = stripes
                .map(|(t, mut stripe)| {
                    scope.spawn(move || f(first_row(t)..first_row(t + 1), &mut stripe))
                })
                .collect();
            if let Some((_, mut stripe)) = own {
                f(0..first_row(1), &mut stripe);
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Runs two independent computations, on two workers when the context
    /// has them (`b` on a scoped thread, `a` on the calling thread),
    /// serially otherwise. This is the codec's coarse parallel grain:
    /// whole module invocations (e.g. the motion-compensation branch and
    /// the residual-synthesis branch of a P frame) overlap instead of
    /// relying on per-layer row/tile fan-out alone.
    ///
    /// Both closures compute independent values, so the results are
    /// identical for every worker count by construction.
    ///
    /// # Panics
    ///
    /// Propagates a panic from either closure.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        std::thread::scope(|scope| {
            let hb = scope.spawn(b);
            let ra = a();
            let rb = match hb.join() {
                Ok(rb) => rb,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            (ra, rb)
        })
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::auto()
    }
}

/// A shared, capped budget of worker-thread permits.
///
/// One process-wide `ExecPool` coordinates many concurrent [`ExecCtx`]
/// users — typically the serving layer, where every connection owns a
/// session whose layer work fans out on its own context. Each unit of
/// scheduled work takes a [`lease`](ExecPool::lease) for as many permits
/// as the threads it is about to occupy; when all permits are out,
/// further leases block until one is returned. The combined fan-out
/// across sessions therefore never oversubscribes the cap, no matter how
/// many connections are live.
///
/// Leases are all-or-nothing and never nest, so the pool cannot
/// deadlock: every holder eventually drops its lease, waking a waiter.
/// Cloning the pool is cheap and shares the same budget.
///
/// # Example
///
/// ```
/// use nvc_core::ExecPool;
/// let pool = ExecPool::new(4);
/// let a = pool.lease(3);
/// assert_eq!(a.permits(), 3);
/// assert_eq!(pool.available(), 1);
/// assert!(pool.try_lease(2).is_none()); // only 1 permit left
/// drop(a);
/// assert_eq!(pool.available(), 4);
/// ```
#[derive(Clone)]
pub struct ExecPool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    cap: usize,
    available: Mutex<usize>,
    freed: Condvar,
    metrics: PoolMetrics,
}

/// The pool's process-global instrumentation. Every pool in the process
/// reports into the same three metrics — lease waits, lease hold times
/// and permits currently out — which is the aggregate the serving layer
/// wants (one compute budget, however many pool handles exist).
struct PoolMetrics {
    lease_wait_us: nvc_telemetry::Histogram,
    lease_hold_us: nvc_telemetry::Histogram,
    leased: nvc_telemetry::Gauge,
}

impl PoolMetrics {
    fn new() -> Self {
        PoolMetrics {
            lease_wait_us: nvc_telemetry::histogram("nvc_pool_lease_wait_us"),
            lease_hold_us: nvc_telemetry::histogram("nvc_pool_lease_hold_us"),
            leased: nvc_telemetry::gauge("nvc_pool_permits_leased"),
        }
    }
}

impl ExecPool {
    /// Creates a pool with `cap` thread permits (`0` = all available
    /// hardware parallelism).
    pub fn new(cap: usize) -> Self {
        let cap = if cap == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cap
        };
        ExecPool {
            inner: Arc::new(PoolInner {
                cap,
                available: Mutex::new(cap),
                freed: Condvar::new(),
                metrics: PoolMetrics::new(),
            }),
        }
    }

    /// The total permit budget.
    pub fn cap(&self) -> usize {
        self.inner.cap
    }

    /// Permits not currently leased (a snapshot; other holders may take
    /// or return permits immediately after).
    pub fn available(&self) -> usize {
        *self.inner.available.lock().expect("pool lock")
    }

    /// Takes `want.clamp(1, cap)` permits, blocking until they are all
    /// free. The returned lease carries an [`ExecCtx`] sized to the
    /// granted permits, for callers that thread a context through their
    /// work; callers whose sessions own a fixed-width context instead use
    /// the lease purely as an admission token of equal width.
    pub fn lease(&self, want: usize) -> ExecLease {
        let want = want.clamp(1, self.inner.cap);
        let wait = self.inner.metrics.lease_wait_us.time();
        let mut available = self.inner.available.lock().expect("pool lock");
        while *available < want {
            available = self.inner.freed.wait(available).expect("pool lock");
        }
        *available -= want;
        drop(available);
        drop(wait);
        self.grant(want)
    }

    /// [`ExecPool::lease`] with a deadline: blocks until the permits are
    /// all free or `timeout` elapses, returning `None` on timeout.
    ///
    /// This is the shape fan-out work wants — e.g. the serving layer's
    /// broadcast writers, where thousands of subscribers share a small
    /// permit budget for their copy/serialize bursts: a brief wait rides
    /// out contention, but a stalled holder must not turn into unbounded
    /// head-of-line blocking for every other waiter.
    pub fn lease_timeout(&self, want: usize, timeout: Duration) -> Option<ExecLease> {
        let want = want.clamp(1, self.inner.cap);
        let deadline = Instant::now() + timeout;
        let wait = self.inner.metrics.lease_wait_us.time();
        let mut available = self.inner.available.lock().expect("pool lock");
        while *available < want {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .freed
                .wait_timeout(available, deadline - now)
                .expect("pool lock");
            available = guard;
        }
        *available -= want;
        drop(available);
        drop(wait);
        Some(self.grant(want))
    }

    /// Non-blocking [`ExecPool::lease`]: returns `None` when the permits
    /// are not currently free.
    pub fn try_lease(&self, want: usize) -> Option<ExecLease> {
        let want = want.clamp(1, self.inner.cap);
        let mut available = self.inner.available.lock().expect("pool lock");
        if *available < want {
            return None;
        }
        *available -= want;
        drop(available);
        Some(self.grant(want))
    }

    fn grant(&self, permits: usize) -> ExecLease {
        self.inner.metrics.leased.add(permits as i64);
        ExecLease {
            hold: self.inner.metrics.lease_hold_us.time(),
            inner: Arc::clone(&self.inner),
            ctx: ExecCtx::with_threads(permits),
            permits,
        }
    }
}

impl fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExecPool({}/{} free)", self.available(), self.cap())
    }
}

/// A granted permit bundle from an [`ExecPool`]; permits return to the
/// pool on drop. Derefs to the carried [`ExecCtx`] (sized to the grant).
pub struct ExecLease {
    inner: Arc<PoolInner>,
    ctx: ExecCtx,
    permits: usize,
    /// Open span timing how long the grant is held — the pool's "task
    /// run time" proxy; records into `nvc_pool_lease_hold_us` on drop.
    hold: Option<nvc_telemetry::SpanGuard>,
}

impl ExecLease {
    /// Number of permits held.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// The execution context sized to this grant.
    pub fn ctx(&self) -> &ExecCtx {
        &self.ctx
    }
}

impl std::ops::Deref for ExecLease {
    type Target = ExecCtx;

    fn deref(&self) -> &ExecCtx {
        &self.ctx
    }
}

impl Drop for ExecLease {
    fn drop(&mut self) {
        self.hold.take();
        self.inner.metrics.leased.sub(self.permits as i64);
        if let Ok(mut available) = self.inner.available.lock() {
            *available += self.permits;
        }
        self.inner.freed.notify_all();
    }
}

impl fmt::Debug for ExecLease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExecLease({} permits)", self.permits)
    }
}

impl Clone for ExecCtx {
    /// Clones the worker-count configuration; the scratch pool starts
    /// empty (it is a cache, not state).
    fn clone(&self) -> Self {
        ExecCtx {
            threads: self.threads,
            scratch: ScratchPool::new(),
        }
    }
}

impl fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExecCtx({} threads, {:?})", self.threads, self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_chunks(ctx: &ExecCtx, len: usize, chunk: usize) -> Vec<f32> {
        let mut data = vec![-1.0_f32; len];
        ctx.par_chunks_mut(&mut data, chunk, |idx, c| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = (idx * 1000 + i) as f32;
            }
        });
        data
    }

    #[test]
    fn chunk_indices_and_coverage_are_worker_count_independent() {
        let reference = run_chunks(&ExecCtx::serial(), 103, 10);
        for threads in [2, 3, 4, 7, 64] {
            let got = run_chunks(&ExecCtx::with_threads(threads), 103, 10);
            assert_eq!(got, reference, "threads={threads}");
        }
        // Every element visited exactly once (none left at the sentinel).
        assert!(reference.iter().all(|&v| v >= 0.0));
        // Final partial chunk got the right index.
        assert_eq!(reference[100], 10_000.0);
    }

    #[test]
    fn all_chunks_visited_once() {
        let counter = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        ExecCtx::with_threads(5).par_chunks_mut(&mut data, 4, |_, c| {
            counter.fetch_add(1, Ordering::SeqCst);
            assert_eq!(c.len(), 4);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn more_workers_than_chunks_degrades_gracefully() {
        let got = run_chunks(&ExecCtx::with_threads(16), 8, 4);
        assert_eq!(got, run_chunks(&ExecCtx::serial(), 8, 4));
        // Empty input is a no-op.
        let mut empty: [f32; 0] = [];
        ExecCtx::with_threads(4).par_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks"));
    }

    #[test]
    fn constructors() {
        assert_eq!(ExecCtx::serial().threads(), 1);
        assert!(ExecCtx::auto().threads() >= 1);
        assert_eq!(ExecCtx::with_threads(3).threads(), 3);
        assert_eq!(
            ExecCtx::with_threads(0).threads(),
            ExecCtx::auto().threads()
        );
        assert_eq!(ExecCtx::default().threads(), ExecCtx::auto().threads());
        let c = ExecCtx::with_threads(2);
        c.scratch().put(vec![0.0; 9]);
        assert_eq!(c.clone().threads(), 2);
        assert_eq!(c.clone().scratch().cached(), 0, "clone starts empty");
    }

    #[test]
    fn scratch_recycles_buffers() {
        let pool = ScratchPool::new();
        let mut a = pool.take(8);
        assert_eq!(a, vec![0.0; 8]);
        a[3] = 7.0;
        pool.put(a);
        assert_eq!(pool.cached(), 1);
        // Recycled buffer comes back zeroed at the new length.
        let b = pool.take(4);
        assert_eq!(b, vec![0.0; 4]);
        assert_eq!(pool.cached(), 0);
        let c = pool.take(12);
        assert_eq!(c, vec![0.0; 12]);
    }

    #[test]
    fn stale_take_keeps_contents_and_zeroes_only_growth() {
        let pool = ScratchPool::new();
        pool.put(vec![7.0; 6]);
        // Shrinks without a memset, grows with zeros, always `len` long.
        let a = pool.take_stale(4);
        assert_eq!(a, vec![7.0; 4]);
        pool.put(a);
        let b = pool.take_stale(6);
        assert_eq!(b, vec![7.0, 7.0, 7.0, 7.0, 0.0, 0.0]);
        assert_eq!(pool.take_stale(3), vec![0.0; 3], "empty pool allocates");
    }

    #[test]
    fn scratch_respects_byte_budget() {
        let pool = ScratchPool::new();
        // An over-budget buffer is dropped, not cached.
        pool.put(Vec::with_capacity(MAX_POOLED_FLOATS + 1));
        assert_eq!(pool.cached(), 0);
        // Small buffers still pool normally alongside the budget check.
        pool.put(vec![0.0; 8]);
        assert_eq!(pool.cached(), 1);
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_len_panics() {
        let mut data = vec![0.0_f32; 4];
        ExecCtx::serial().par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn gated_execution_matches_ungated() {
        let reference = run_chunks(&ExecCtx::serial(), 103, 10);
        for work in [0, PAR_MIN_WORK - 1, PAR_MIN_WORK, u64::MAX] {
            let ctx = ExecCtx::with_threads(4);
            let mut data = vec![-1.0_f32; 103];
            ctx.par_chunks_mut_gated(&mut data, 10, work, |idx, c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = (idx * 1000 + i) as f32;
                }
            });
            assert_eq!(data, reference, "work={work}");
        }
    }

    #[test]
    fn small_work_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 64];
        ExecCtx::with_threads(8).par_chunks_mut_gated(&mut data, 4, PAR_MIN_WORK - 1, |_, _| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "gated call must not fan out"
            );
        });
    }

    /// Runs `par_stripes_mut` over `planes` planes of `plane_len`
    /// elements, stamping every element with `(plane, row, offset in
    /// row)` and counting visits.
    fn run_stripes(ctx: &ExecCtx, planes: usize, plane_len: usize, row_len: usize) -> Vec<u32> {
        let mut data = vec![0u32; planes * plane_len];
        ctx.par_stripes_mut(&mut data, plane_len, row_len, u64::MAX, |rows, stripe| {
            assert_eq!(stripe.len(), planes, "one slice per plane");
            for (p, slice) in stripe.iter_mut().enumerate() {
                let expect = (rows.end * row_len).min(plane_len) - rows.start * row_len;
                assert_eq!(slice.len(), expect, "stripe holds exactly its rows");
                for (i, v) in slice.iter_mut().enumerate() {
                    let row = rows.start + i / row_len;
                    *v += 1 + ((p * 1000 + row) * 100 + i % row_len) as u32;
                }
            }
        });
        data
    }

    #[test]
    fn stripes_visit_every_element_once_under_worker_independent_rows() {
        // 23 elements per plane in rows of 5: a short final row, and row
        // counts that do not divide evenly among 2, 3 or 4 workers.
        let reference = run_stripes(&ExecCtx::serial(), 3, 23, 5);
        for (i, &v) in reference.iter().enumerate() {
            let (p, off) = (i / 23, i % 23);
            let stamp = ((p * 1000 + off / 5) * 100 + off % 5) as u32;
            assert_eq!(v, 1 + stamp, "element {i} visited once, as its own row");
        }
        for threads in [2, 3, 4, 7, 64] {
            let got = run_stripes(&ExecCtx::with_threads(threads), 3, 23, 5);
            assert_eq!(got, reference, "threads={threads}");
        }
        // A single row and a single plane degrade to one stripe.
        assert_eq!(
            run_stripes(&ExecCtx::with_threads(4), 1, 4, 9),
            run_stripes(&ExecCtx::serial(), 1, 4, 9)
        );
    }

    #[test]
    fn stripes_fan_out_one_worker_per_stripe_and_gate_small_work() {
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        let off_thread = AtomicUsize::new(0);
        let mut data = vec![0u8; 2 * 40];
        let ctx = ExecCtx::with_threads(4);
        ctx.par_stripes_mut(&mut data, 40, 4, PAR_MIN_WORK, |rows, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            if std::thread::current().id() != caller {
                off_thread.fetch_add(1, Ordering::SeqCst);
            }
            assert!(rows.len() == 2 || rows.len() == 3, "10 rows over 4 workers");
        });
        assert_eq!(calls.load(Ordering::SeqCst), 4, "one stripe per worker");
        assert_eq!(
            off_thread.load(Ordering::SeqCst),
            3,
            "caller takes a stripe"
        );
        ctx.par_stripes_mut(&mut data, 40, 4, PAR_MIN_WORK - 1, |rows, stripe| {
            assert_eq!(std::thread::current().id(), caller, "gated call stays put");
            assert_eq!((rows, stripe.len()), (0..10, 2));
        });
    }

    #[test]
    #[should_panic(expected = "stripe boom")]
    fn stripes_propagate_worker_panics() {
        let mut data = vec![0.0_f32; 64];
        ExecCtx::with_threads(4).par_stripes_mut(&mut data, 32, 4, u64::MAX, |rows, _| {
            if rows.start > 0 {
                panic!("stripe boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "whole number of planes")]
    fn stripes_reject_ragged_planes() {
        let mut data = vec![0.0_f32; 10];
        ExecCtx::serial().par_stripes_mut(&mut data, 4, 2, 0, |_, _| {});
    }

    #[test]
    fn join_runs_both_closures() {
        for threads in [1, 2, 4] {
            let ctx = ExecCtx::with_threads(threads);
            let (a, b) = ctx.join(|| 2 + 2, || "ok".to_string());
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn join_overlaps_on_multiple_workers() {
        let ctx = ExecCtx::with_threads(2);
        let caller = std::thread::current().id();
        let (ta, tb) = ctx.join(
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(ta, caller, "closure a runs on the calling thread");
        assert_ne!(tb, caller, "closure b runs on a scoped worker");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn join_propagates_worker_panics() {
        ExecCtx::with_threads(2).join(|| (), || panic!("boom"));
    }

    #[test]
    fn pool_caps_and_returns_permits() {
        let pool = ExecPool::new(3);
        assert_eq!(pool.cap(), 3);
        let a = pool.lease(2);
        assert_eq!(a.permits(), 2);
        assert_eq!(a.ctx().threads(), 2);
        assert_eq!(a.threads(), 2, "lease derefs to its context");
        assert_eq!(pool.available(), 1);
        // Oversized requests clamp to the cap instead of deadlocking.
        assert!(pool.try_lease(10).is_none(), "clamped want 10 -> 3 > 1");
        let b = pool.try_lease(1).expect("one permit free");
        assert_eq!(pool.available(), 0);
        drop(a);
        drop(b);
        assert_eq!(pool.available(), 3);
        let full = pool.lease(10);
        assert_eq!(full.permits(), 3);
    }

    #[test]
    fn pool_blocks_until_permits_return() {
        let pool = ExecPool::new(2);
        let held = pool.lease(2);
        let clone = pool.clone();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || clone.lease(2).permits());
            // Give the waiter time to block, then release.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            assert_eq!(waiter.join().unwrap(), 2);
        });
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pool_lease_timeout_expires_and_succeeds() {
        let pool = ExecPool::new(2);
        let held = pool.lease(2);
        // Saturated pool: a short deadline expires without permits.
        let start = std::time::Instant::now();
        assert!(pool
            .lease_timeout(1, std::time::Duration::from_millis(30))
            .is_none());
        assert!(start.elapsed() >= std::time::Duration::from_millis(25));
        // A waiter whose deadline outlives the holder gets its grant.
        let clone = pool.clone();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                clone
                    .lease_timeout(2, std::time::Duration::from_secs(30))
                    .expect("permits freed before the deadline")
                    .permits()
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(held);
            assert_eq!(waiter.join().unwrap(), 2);
        });
        // A free pool grants immediately, even with a zero timeout.
        assert_eq!(
            pool.lease_timeout(1, std::time::Duration::ZERO)
                .expect("free pool")
                .permits(),
            1
        );
    }

    #[test]
    fn pool_auto_cap_matches_hardware() {
        assert_eq!(ExecPool::new(0).cap(), ExecCtx::auto().threads());
        let zero = ExecPool::new(1);
        assert_eq!(zero.lease(0).permits(), 1, "want 0 clamps to 1");
    }
}
