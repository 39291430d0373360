//! Broadcast fan-out bench for `nvc-serve`: one publisher encodes a
//! stream once, K loopback subscribers receive the *same* packet bytes.
//!
//! Measures publisher encode throughput as the subscriber count grows
//! into the ten-thousands (the event-driven core must fan out without
//! slowing the encoder down *or* growing the thread count), asserts
//! every subscriber's stream is byte-identical to the publisher's, and
//! — in the full run — drives a stalled subscriber into lag eviction
//! over a real socket while the publisher and a healthy subscriber keep
//! running.
//!
//! Per sweep point the bench records the process OS-thread count (from
//! `/proc/self/status`), taken during the timed window: the serving
//! core is one poller plus a fixed worker pool, so the count must be
//! *flat* across K — that flatness is the whole point of the
//! event-driven rewrite and both gates enforce it.
//!
//! Ten thousand loopback subscribers cost two file descriptors each
//! (client end + server end). The bench reads the soft `RLIMIT_NOFILE`
//! from `/proc/self/limits` and caps the sweep to what the limit
//! affords, reporting both the requested and the effective K.
//!
//! Subscribers connect before the timed window (in parallel batches —
//! ten thousand sequential handshakes would dominate wall time) and
//! drain after it: each stream fits in the kernel's per-socket
//! buffering, so the window captures publisher encode plus the
//! poller's fan-out writes (the cost the relay adds) rather than
//! loopback reader threads, which stand in for clients on other
//! machines.
//!
//! The fps gate is core-aware at the top of the sweep. Up to K=1000
//! the publisher must hold within 15 % of K=64 on any host: the gate
//! reads the median fps ratio of K=1000 to K=64 over interleaved rounds
//! (`nvc_bench::interleaved_rounds`), not one broadcast of each. At the top
//! K a multi-core host runs the poller beside the encoder, so the same
//! fps floor applies outright; on a single core every fan-out write is
//! kernel time taken *from* the encoder (~20 µs per subscriber write
//! at K=10k, measured — an irreducible double-digit share of the core
//! at any fps), so the bench instead gates *linearity*: marginal CPU
//! per subscriber-frame at the top K must stay within 3x of the K=1000
//! point. A readiness storm — e.g. re-probing every blocked socket on
//! every poll pass — blows that ratio up by an order of magnitude, so
//! the gate still catches the regressions the rewrite exists to
//! prevent. The printout names which gate applied.
//!
//! Usage:
//!
//! ```text
//! fanout                   # full run: K in {64, 1000, 10000}, eviction
//!                          # phase; asserts the core-aware gates above
//!                          # and a flat thread count
//! fanout --quick           # CI smoke: K in {64, 1000}, byte-identical,
//!                          # median fps ratio within 15% of K=64,
//!                          # threads flat
//!                          # (exit != 0 on failure)
//! fanout --subs K          # largest subscriber count (default 10000)
//! fanout --frames N        # frames per broadcast (default 12)
//! ```

#![forbid(unsafe_code)]

use nvc_bench::interleaved_rounds;
use nvc_bench::paper::BENCH_N;
use nvc_core::ExecCtx;
use nvc_model::CtvcConfig;
use nvc_serve::{
    scrape_metrics, Hello, ServeConfig, ServeError, Server, ServerHandle, StreamClient,
    SubscribeClient, SubscribeEvent,
};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);
/// Interleaved rounds of the K=64 baseline against K=1000 (odd, so the
/// median is a round).
const ROUNDS: usize = 25;
/// Parallel connect workers for the attach phase.
const JOINERS: usize = 8;
/// File descriptors held back from the sweep budget: listener, stdio,
/// publisher/eviction sockets, joiner transients.
const FD_RESERVE: usize = 128;

fn arg_value(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The process's live OS-thread count (`Threads:` in
/// `/proc/self/status`); 0 where procfs is unavailable.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Process CPU time split as (user, system) seconds (`utime`/`stime`
/// in `/proc/self/stat`, summed over all threads); zeros where procfs
/// is unavailable. The split says where fan-out cost lands: encode is
/// user time, socket writes are system time.
fn cpu_split() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Field 2 (comm) may contain spaces; parse after the ')'.
            let rest = s.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            let tick = 100.0; // USER_HZ
            Some((utime / tick, stime / tick))
        })
        .unwrap_or((0.0, 0.0))
}

/// The soft open-file limit (`Max open files` in `/proc/self/limits`);
/// effectively unlimited where procfs is unavailable.
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(usize::MAX)
}

/// Caps a requested subscriber count to what the fd limit affords: one
/// loopback subscriber holds a socket on each side of the connection.
fn affordable_subs(requested: usize) -> usize {
    let limit = fd_limit();
    let budget = limit.saturating_sub(FD_RESERVE) / 2;
    requested.min(budget.max(1))
}

fn subscribe(server: &ServerHandle, hello: Hello) -> SubscribeClient {
    let client =
        SubscribeClient::connect_with(server.addr(), hello, Some(TIMEOUT)).expect("subscribe");
    client.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    client
}

/// Attaches `subs` subscribers in parallel batches and asserts each
/// joined at the head of the broadcast.
fn attach_audience(
    server: &ServerHandle,
    name: &str,
    w: usize,
    h: usize,
    subs: usize,
) -> Vec<SubscribeClient> {
    let clients: Vec<SubscribeClient> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOINERS)
            .map(|j| {
                let share = subs / JOINERS + usize::from(j < subs % JOINERS);
                scope.spawn(move || {
                    (0..share)
                        .map(|_| subscribe(server, Hello::subscribe(name, w, h)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("joiner thread"))
            .collect()
    });
    for client in &clients {
        assert_eq!(client.join().start_index, 0, "pre-attached subscriber");
    }
    clients
}

/// One broadcast: K subscribers attach, the publisher encodes `source`,
/// every subscriber's drained stream is compared byte-for-byte against
/// the packets the server echoed to the publisher. Returns the
/// publisher's encode fps over the timed send+finish window, the coded
/// byte total, and the OS-thread count observed during the window.
fn run_broadcast(
    server: &ServerHandle,
    source: &Sequence,
    rate: u8,
    subs: usize,
    name: &str,
) -> (f64, usize, usize, f64) {
    let (w, h) = (source.width(), source.height());
    let mut publisher = StreamClient::connect(
        server.addr(),
        Hello::ctvc_publish(rate, w, h, name).with_gop(8),
    )
    .expect("connect publisher");
    publisher.set_read_timeout(Some(TIMEOUT)).expect("timeout");

    let clients = attach_audience(server, name, w, h, subs);

    let frames = source.frames().len();
    let (u0, s0) = cpu_split();
    let start = Instant::now();
    for frame in source.frames() {
        publisher.send_frame(frame).expect("send frame");
    }
    let sent_at = start.elapsed();
    let published = publisher.finish().expect("finish publish");
    let elapsed = start.elapsed();
    // Sampled with the whole audience attached and served: joiner
    // threads are gone, so this is `main + the server's fixed core`.
    let threads = os_threads();
    let (u1, s1) = cpu_split();
    if subs > 1 {
        println!(
            "             [{subs} subs: {:.2}s wall ({:.2}s send / {:.2}s finish), \
             {:.2}s user, {:.2}s sys]",
            elapsed.as_secs_f64(),
            sent_at.as_secs_f64(),
            (elapsed - sent_at).as_secs_f64(),
            u1 - u0,
            s1 - s0
        );
    }
    assert_eq!(published.packets.len(), frames);

    // Drain and verify outside the window: the per-socket stream is far
    // below kernel buffering, so no server-side write blocked and no
    // ring filled — every byte is already in flight.
    let expected: Vec<Vec<u8>> = published.packets.iter().map(|p| p.to_bytes()).collect();
    for (i, client) in clients.into_iter().enumerate() {
        let summary = client.collect().expect("collect subscription");
        assert_eq!(summary.packets.len(), frames, "subscriber {i} short");
        for (received, sent) in summary.packets.iter().zip(&expected) {
            assert_eq!(
                &received.to_bytes(),
                sent,
                "subscriber {i} bytes diverged from the publisher's"
            );
        }
        assert_eq!(
            summary.stats.total_bytes,
            expected.iter().map(Vec::len).sum::<usize>()
        );
    }
    let coded: usize = expected.iter().map(Vec::len).sum();
    let cpu = (u1 + s1) - (u0 + s0);
    (frames as f64 / elapsed.as_secs_f64(), coded, threads, cpu)
}

/// How much a never-reading loopback subscriber absorbs before the
/// server's ring can overflow: the kernel autotunes the server-side
/// send buffer up to `tcp_wmem[2]` while the peer refuses to read, and
/// the peer's receive buffer holds roughly `tcp_rmem[1]` more — none of
/// it visible to the server as lag. The eviction stream must
/// comfortably out-publish that absorption, so size it from the live
/// sysctl instead of a hard-coded constant that goes stale with the
/// host's tuning.
fn evict_target() -> usize {
    let wmem_max: usize = std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem")
        .ok()
        .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(4 << 20);
    wmem_max + (4 << 20)
}

/// Full-stack lag eviction: a subscriber that never reads while the
/// publisher pushes enough bytes to fill its socket and overflow its
/// ring must be evicted with a clean error; the publisher and a healthy
/// subscriber never stall. Returns (frames published, total coded
/// bytes, healthy-side packets, slow-side packets, eviction message).
fn run_eviction(w: usize, h: usize, target_bytes: usize) -> (usize, usize, usize, usize, String) {
    // The hybrid codec: cheap per coded byte, so the stream outruns the
    // kernel's socket buffering quickly. A shallow ring makes eviction
    // follow promptly once the stalled socket's writes block. The wide
    // write timeout keeps the server's write-stall clock — which starts
    // once the stalled socket's kernel buffering finally fills — from
    // hard-closing the socket (and losing the pending eviction notice)
    // before the post-publish drain below gets to read it.
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            subscriber_ring: 8,
            write_timeout: TIMEOUT,
            ..ServeConfig::default()
        },
    )
    .expect("spawn eviction server");
    let source = Synthesizer::new(SceneConfig::uvg_like(w, h, 8)).generate();
    let mut publisher = StreamClient::connect(
        server.addr(),
        Hello::hybrid_publish(1, w, h, "evict").with_gop(8),
    )
    .expect("connect publisher");
    publisher.set_read_timeout(Some(TIMEOUT)).expect("timeout");

    let hybrid = |name: &str| Hello::subscribe(name, w, h).with_family(nvc_serve::Family::Hybrid);
    let mut slow = subscribe(&server, hybrid("evict")); // never reads until the end
    let mut healthy = subscribe(&server, hybrid("evict"));

    // The healthy subscriber doubles as the byte meter: the publisher
    // keeps cycling the source until the audience has seen
    // `target_bytes`, which comfortably exceeds what loopback kernel
    // buffering absorbs for the stalled one before its writes block.
    let seen = std::sync::atomic::AtomicUsize::new(0);
    let (frames, total_bytes, healthy_n) = std::thread::scope(|scope| {
        let seen = &seen;
        let healthy_thread = scope.spawn(move || {
            let mut packets = 0usize;
            loop {
                match healthy.next_event() {
                    Ok(SubscribeEvent::Packet(p)) => {
                        packets += 1;
                        // order: Relaxed — a progress count the driver
                        // loop polls; no data rides on it.
                        seen.fetch_add(p.encoded_len(), std::sync::atomic::Ordering::Relaxed);
                    }
                    Ok(SubscribeEvent::End(stats)) => break (packets, stats.frames),
                    Err(e) => panic!("healthy subscriber failed: {e}"),
                }
            }
        });
        let mut sent = 0usize;
        // order: Relaxed — polled progress count, see above.
        while seen.load(std::sync::atomic::Ordering::Relaxed) < target_bytes {
            for frame in source.frames() {
                publisher.send_frame(frame).expect("send frame");
            }
            sent += source.frames().len();
        }
        let published = publisher.finish().expect("finish publish");
        assert_eq!(published.packets.len(), sent);
        let total: usize = published.packets.iter().map(|p| p.encoded_len()).sum();
        let (packets, trailer_frames) = healthy_thread.join().expect("healthy thread");
        assert_eq!(packets, sent, "healthy subscriber short");
        assert_eq!(trailer_frames, packets, "healthy trailer disagrees");
        (sent, total, packets)
    });

    // Only now does the slow client read: everything the kernel
    // buffered, then the eviction notice — never a clean trailer.
    slow.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let mut slow_n = 0usize;
    let message = loop {
        match slow.next_event() {
            Ok(SubscribeEvent::Packet(_)) => slow_n += 1,
            Ok(SubscribeEvent::End(_)) => panic!("lagging subscriber ended cleanly"),
            Err(ServeError::Remote(m)) => break m,
            Err(e) => panic!("slow subscriber: unexpected {e}"),
        }
    };
    assert!(
        message.contains("lagging"),
        "eviction must name the cause: {message}"
    );
    assert!(
        slow_n < frames,
        "the stalled subscriber cannot have received the whole stream"
    );
    let report = server.shutdown();
    assert!(report.evicted >= 1, "server must count the eviction");
    assert_eq!(report.errors, 0, "eviction is not a session error");
    (frames, total_bytes, healthy_n, slow_n, message)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let evict_only = args.iter().any(|a| a == "--evict-only");
    let max_subs = arg_value(&args, "--subs").unwrap_or(10_000).max(1);
    let (dw, dh, n_ch, frames, sweep, margin) = if quick {
        (
            224,
            160,
            8,
            arg_value(&args, "--frames").unwrap_or(8),
            vec![64, 1000.min(max_subs)],
            0.15,
        )
    } else {
        (
            256,
            192,
            BENCH_N,
            arg_value(&args, "--frames").unwrap_or(12),
            vec![64, 1000, max_subs],
            0.15,
        )
    };
    let w = arg_value(&args, "--width").unwrap_or(dw);
    let h = arg_value(&args, "--height").unwrap_or(dh);
    let n_ch = arg_value(&args, "--n").unwrap_or(n_ch);
    // Dedup and fd-cap the sweep (a tight RLIMIT_NOFILE shrinks the top
    // end; both the requested and the effective K are reported).
    let sweep: Vec<(usize, usize)> = {
        let mut points: Vec<(usize, usize)> =
            sweep.into_iter().map(|k| (k, affordable_subs(k))).collect();
        points.dedup_by_key(|&mut (_, eff)| eff);
        points
    };
    let host_cores = ExecCtx::auto().threads();
    if evict_only {
        println!("fanout: eviction phase only");
        let (frames, bytes, healthy, slow, message) = run_eviction(256, 192, evict_target());
        println!(
            "  eviction:  {frames} frames / {bytes} bytes; healthy got {healthy}, \
             stalled got {slow} then: {message:?}"
        );
        return;
    }
    println!(
        "fanout: {w}x{h}, N={n_ch}, {frames} frames/broadcast, sweep {:?}, \
         host cores = {host_cores}, fd limit = {}",
        sweep.iter().map(|&(_, eff)| eff).collect::<Vec<_>>(),
        fd_limit(),
    );

    // Rate 1 of a wide ladder: maximum compute per coded byte, which is
    // the regime where fan-out overhead would show up soonest as a
    // *fraction* of wall time if the relay ever blocked the encoder.
    let rate = 1u8;
    let source = Synthesizer::new(SceneConfig::uvg_like(w, h, frames)).generate();
    let server = Server::spawn(
        "127.0.0.1:0",
        ServeConfig {
            ctvc: CtvcConfig::ctvc_fp(n_ch),
            workers: 1,
            max_subscribers: sweep.iter().map(|&(_, eff)| eff).sum::<usize>() + 16,
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        },
    )
    .expect("spawn server");

    // Warm-up (untimed), then a K=1 reference point for the printout.
    run_broadcast(&server, &source, rate, 1, "warmup");
    let (single_fps, coded, _, _) = run_broadcast(&server, &source, rate, 1, "single");
    println!(
        "  reference: 1 subscriber     -> {single_fps:7.2} fps  ({} bytes/frame)",
        coded / frames
    );

    // (k_requested, k_effective, fps, os_threads, window cpu seconds)
    // per sweep point. The first point (K=64) is the baseline the gates
    // compare against. It and K=1000 run in interleaved rounds and keep
    // the round whose fps ratio is the median, so gate 2 reads the median
    // per-round ratio; any point beyond runs once.
    let broadcast = |eff: usize, round: usize| {
        let name = format!("fanout-{eff}-{round}");
        let (fps, _, threads, cpu) = run_broadcast(&server, &source, rate, eff, &name);
        (fps, threads, cpu)
    };
    let mut results: Vec<(usize, usize, f64, usize, f64)> = Vec::new();
    if let [(req0, base), (req1, pair), ..] = sweep[..] {
        let mut rounds = interleaved_rounds(ROUNDS, |i| broadcast(base, i), |i| broadcast(pair, i));
        let threads = rounds[0].0 .1;
        assert!(
            rounds.iter().all(|(a, b)| a.1 == threads && b.1 == threads),
            "OS-thread count changed across the interleaved K={base} and K={pair} rounds"
        );
        rounds.sort_by(|x, y| (x.1 .0 / x.0 .0).total_cmp(&(y.1 .0 / y.0 .0)));
        let ratio = |(a, b): ((f64, usize, f64), (f64, usize, f64))| b.0 / a.0;
        println!(
            "  rounds:    K={pair}/K={base} fps median {:.2}x (IQR {:.2}–{:.2}) of {ROUNDS} \
             interleaved rounds",
            ratio(rounds[ROUNDS / 2]),
            ratio(rounds[ROUNDS / 4]),
            ratio(rounds[3 * ROUNDS / 4])
        );
        let (a, b) = rounds[ROUNDS / 2];
        results.push((req0, base, a.0, a.1, a.2));
        results.push((req1, pair, b.0, b.1, b.2));
    }
    for &(req, eff) in &sweep[results.len()..] {
        let (fps, threads, cpu) = broadcast(eff, 0);
        results.push((req, eff, fps, threads, cpu));
    }
    let baseline_fps = results[0].2;
    let baseline_threads = results[0].3;
    for &(req, eff, fps, threads, _) in &results {
        let capped = if eff < req { " (fd-capped)" } else { "" };
        println!(
            "  fan-out:   {eff:5} subscribers -> {fps:7.2} fps  ({:5.2}x K=64, {threads} OS threads){capped}",
            fps / baseline_fps
        );
    }
    // Live observability over the same loopback: the endpoint answers
    // while the sweep's server is still up, and the subscriber-ring
    // fan-out shows up in the process-global registry it rides on.
    let scrape = scrape_metrics(server.metrics_addr().expect("metrics endpoint configured"))
        .expect("scrape live metrics");
    for name in [
        "nvc_serve_subscribers_total",
        "nvc_poll_wakeups_total",
        "nvc_poll_park_us_count",
        "nvc_ring_occupancy",
        "nvc_ring_drained_total",
    ] {
        assert!(scrape.contains(name), "live scrape is missing {name}");
    }
    println!(
        "  metrics:   live scrape OK ({} bytes, ring + poller series present)",
        scrape.len()
    );
    let report = server.shutdown();
    println!(
        "  poller:    {} wakeups ({} spurious), {} sockets registered at peak, \
         {} timer fires",
        report.poll_wakeups, report.spurious_polls, report.max_registered, report.timer_fires
    );
    assert_eq!(report.errors, 0, "no broadcast may fail");
    assert_eq!(report.evicted, 0, "pre-attached drains must never evict");
    assert_eq!(
        report.subscribers as usize,
        2 + sweep.iter().map(|&(_, eff)| eff).sum::<usize>()
            + (ROUNDS - 1) * sweep.iter().take(2).map(|&(_, eff)| eff).sum::<usize>(),
        "every subscriber must be counted (warmup + single + rounds + sweep)"
    );

    // Gate 1: the thread count is independent of K — the fixed serving
    // core (poller + workers) never grows with the audience.
    for &(_, eff, _, threads, _) in &results {
        assert_eq!(
            threads, baseline_threads,
            "OS-thread count changed between K=64 ({baseline_threads}) and K={eff} ({threads})"
        );
    }

    // Gate 2: fan-out must not throttle the publisher. Every sweep
    // point up to K=1000 must hold the publisher's fps outright on any
    // host — that is the regime where fan-out CPU is small against
    // encode even when both share one core.
    for &(_, eff, fps, _, _) in results.iter().filter(|&&(_, eff, ..)| eff <= 1000) {
        let floor = (1.0 - margin) * baseline_fps;
        assert!(
            fps >= floor,
            "publisher fps at {eff} subscribers ({fps:.2}) fell below \
             {:.0}% of the K=64 baseline ({baseline_fps:.2})",
            100.0 * (1.0 - margin)
        );
    }

    // Gate 3, the top of the sweep. With a spare core the serving
    // thread runs beside the encoder, so publisher fps must stay
    // within the margin outright. On a single core every fan-out write
    // is CPU taken *from* the encoder — ~20 µs of kernel time per
    // subscriber write × 10k × fps is an irreducible double-digit
    // share of the core, so fps flatness is arithmetically impossible
    // and the honest assertion is *linearity*: marginal CPU per
    // subscriber-frame at the top K must stay within LINEARITY_FACTOR
    // of the K=1000 point. A readiness storm (say, re-probing every
    // blocked socket each pass) blows that ratio up by an order of
    // magnitude.
    const LINEARITY_FACTOR: f64 = 3.0;
    /// Floor for the reference marginal cost, well under any real
    /// per-write cost: guards the ratio against the 10 ms granularity
    /// of `/proc/self/stat` CPU ticks at the small K=1000 delta.
    const REF_COST_FLOOR: f64 = 6e-6;
    let &(_, top_k, top_fps, _, top_cpu) = results.last().expect("sweep ran");
    if host_cores > 1 {
        let floor = (1.0 - margin) * baseline_fps;
        assert!(
            top_fps >= floor,
            "publisher fps at {top_k} subscribers ({top_fps:.2}) fell below \
             {:.0}% of the K=64 baseline ({baseline_fps:.2})",
            100.0 * (1.0 - margin)
        );
        println!(
            "  gate:      {top_k} subscribers at {:.1}% of K=64 (floor {:.0}%), \
             {baseline_threads} OS threads flat — OK",
            100.0 * top_fps / baseline_fps,
            100.0 * (1.0 - margin)
        );
    } else {
        let cost = |point: &(usize, usize, f64, usize, f64)| {
            let (_, eff, _, _, cpu) = *point;
            (cpu - results[0].4) / ((eff - results[0].1) as f64 * frames as f64)
        };
        let reference = results
            .iter()
            .rfind(|&&(_, eff, ..)| eff > results[0].1 && eff <= 1000);
        match reference {
            Some(mid) if top_k > mid.1 && top_cpu > 0.0 => {
                let (ref_cost, top_cost) = (
                    cost(mid).max(REF_COST_FLOOR),
                    cost(results.last().expect("sweep ran")),
                );
                assert!(
                    top_cost <= LINEARITY_FACTOR * ref_cost,
                    "single-core linearity gate: {:.1} µs of CPU per subscriber-frame \
                     at K={top_k} exceeds {LINEARITY_FACTOR}x the K={} reference \
                     ({:.1} µs) — fan-out cost is no longer linear in the audience",
                    1e6 * top_cost,
                    mid.1,
                    1e6 * ref_cost
                );
                println!(
                    "  gate:      single core — fan-out linear: {:.1} µs/subscriber-frame \
                     at K={top_k} vs {:.1} µs at K={} (cap {LINEARITY_FACTOR}x), \
                     {baseline_threads} OS threads flat — OK",
                    1e6 * top_cost,
                    1e6 * cost(mid),
                    mid.1
                );
            }
            _ => {
                println!(
                    "  gate:      single core, no distinct K=1000 reference point — \
                     fps gate covered K={top_k} above, {baseline_threads} OS threads flat — OK"
                );
            }
        }
    }

    if quick {
        println!(
            "quick gate: byte-identical fan-out at K={top_k}, fps within \
             {:.0}%, threads flat — OK",
            100.0 * margin
        );
        return;
    }

    // Full run only: drive a stalled subscriber into lag eviction over
    // a real socket, publishing past everything kernel socket buffering
    // can absorb (see [`evict_target`]) so the slow ring must overflow.
    let target = evict_target();
    println!(
        "  eviction:  stalled subscriber vs a {} MiB stream...",
        target >> 20
    );
    let (evict_frames, evict_bytes, healthy_n, slow_n, message) = run_eviction(256, 192, target);
    println!(
        "  eviction:  {evict_frames} frames / {evict_bytes} bytes published; healthy \
         subscriber got {healthy_n}, stalled got {slow_n} then: {message:?}"
    );
}
