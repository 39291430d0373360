//! Flash-crowd bench for the `nvc-serve` governor: a burst of sessions
//! slams a governed server and the rate reservoir must bend, not break.
//!
//! Four phases:
//!
//! * **budget** — lockstep: K closed-loop sessions (distinct clients)
//!   each wanting twice their fair share run concurrently under one
//!   aggregate budget; the summed trailing-window bits/frame must land
//!   within 15 % of the budget (the governor shrinks every grant, the
//!   controllers hit the shrunken targets).
//! * **degrade** — lockstep: one steady fixed-rate session watches a
//!   burst of B heterogeneous sessions join and leave; its per-frame
//!   rate trace must dip while the burst is resident and return to the
//!   requested rate afterwards, with the report's `degraded` /
//!   `restored` / `throttle_steps` counters accounting for every
//!   transition — and zero errors, because the curve degrades sessions
//!   instead of dropping them.
//! * **burst** — threaded: steady encoders plus a 4x flash crowd of
//!   mixed-geometry closed-loop sessions, some deliberately slow
//!   readers. Every session must complete (degrade-before-drop), and
//!   on a multi-core host the p99 per-response latency stays bounded.
//! * **reject** — a session whose projected demand exceeds the
//!   overload ceiling gets a clean budget rejection, not a degraded
//!   admit and not a hang.
//!
//! Usage:
//!
//! ```text
//! flashcrowd            # full run: larger bursts and longer clips
//! flashcrowd --quick    # CI gate: small clips
//! ```
//!
//! Either way all four phases run and assert the gates above (exit
//! != 0 on failure).

#![forbid(unsafe_code)]

use nvc_bench::percentile;
use nvc_core::ExecCtx;
use nvc_serve::{
    GovernorConfig, Hello, ServeConfig, ServeError, Server, ServerHandle, StreamClient,
};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;
use std::sync::Barrier;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);
const GOP: usize = 8;

fn governed(budget: f64) -> ServeConfig {
    ServeConfig {
        governor: Some(GovernorConfig::new(budget)),
        ..ServeConfig::default()
    }
}

fn connect(server: &ServerHandle, hello: Hello) -> Result<StreamClient, ServeError> {
    let client = StreamClient::connect(server.addr(), hello)?;
    client.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    Ok(client)
}

fn source(w: usize, h: usize, frames: usize) -> Sequence {
    Synthesizer::new(SceneConfig::uvg_like(w, h, frames)).generate()
}

struct BudgetResult {
    sessions: usize,
    budget: f64,
    aggregate: f64,
    error: f64,
}

/// Phase 1: K sessions, each a distinct client asking for `want_bpp`,
/// sized so the summed demand is ~2x the budget. All K connect before
/// any frame is sent and none finishes before the last drain (a
/// barrier), so every grant is the same pure function of the same
/// session set for the whole run. Returns the summed trailing-window
/// bits/frame against the budget.
fn phase_budget(sessions: usize, gops: usize) -> BudgetResult {
    let (w, h) = (64, 48);
    let want_bpp = 0.6;
    let want = want_bpp * (w * h) as f64;
    let budget = want * sessions as f64 / 2.0;
    let seq = source(w, h, gops * GOP);

    let server = Server::spawn("127.0.0.1:0", governed(budget)).expect("bind loopback");
    let mut clients: Vec<StreamClient> = (0..sessions)
        .map(|i| {
            connect(
                &server,
                Hello::hybrid_encode(30, w, h)
                    .with_target_bpp(want_bpp, GOP as u16)
                    .with_client(&format!("client-{i}")),
            )
            .expect("admit budget-phase session")
        })
        .collect();

    let all_drained = Barrier::new(sessions);
    let tail_bits: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .map(|mut client| {
                let (seq, all_drained) = (&seq, &all_drained);
                scope.spawn(move || {
                    for frame in seq.frames() {
                        client.send_frame(frame).expect("send frame");
                    }
                    client.drain().expect("drain");
                    // Hold the registration until everyone has coded
                    // every frame: grants stay constant mid-phase.
                    all_drained.wait();
                    let stats = client.finish().expect("finish").stats;
                    let tail = &stats.bits_per_frame[stats.frames - GOP..];
                    tail.iter().sum::<u64>() as f64 / GOP as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("budget session"))
            .collect()
    });
    server.shutdown();

    let aggregate: f64 = tail_bits.iter().sum();
    BudgetResult {
        sessions,
        budget,
        aggregate,
        error: (aggregate - budget).abs() / budget,
    }
}

struct DegradeResult {
    burst: usize,
    steady_trace: Vec<u8>,
    dip: u8,
    degraded: u64,
    restored: u64,
    throttle_steps: u64,
}

/// Phase 2: the degradation curve, in lockstep. Drain barriers pin
/// which of the steady session's frames are coded with the burst
/// resident, so the dip-and-recover trace is deterministic.
fn phase_degrade(burst: usize) -> DegradeResult {
    let (w, h) = (64, 48);
    // One steady fixed-rate session fits the budget; the burst does not.
    let budget = 2000.0;
    let steady_seq = source(w, h, 6);
    let burst_seq = source(48, 32, 1);

    let server = Server::spawn("127.0.0.1:0", governed(budget)).expect("bind loopback");
    let mut steady = connect(
        &server,
        Hello::hybrid_encode(30, w, h).with_client("steady"),
    )
    .expect("admit steady");
    assert!(
        !steady.admitted_degraded(),
        "steady session must start full-rate"
    );
    steady.send_frame(&steady_seq.frames()[0]).expect("send");
    steady.send_frame(&steady_seq.frames()[1]).expect("send");
    steady.drain().expect("drain"); // frames 0-1: alone on the budget

    // The flash crowd arrives: B distinct clients at a different
    // geometry, every one admitted (degraded), none rejected.
    let mut crowd: Vec<StreamClient> = (0..burst)
        .map(|i| {
            connect(
                &server,
                Hello::hybrid_encode(30, 48, 32)
                    .with_target_bpp(0.8, 4)
                    .with_client(&format!("burst-{i}")),
            )
            .expect("burst session must be admitted, not rejected")
        })
        .collect();
    steady.send_frame(&steady_seq.frames()[2]).expect("send");
    steady.send_frame(&steady_seq.frames()[3]).expect("send");
    steady.drain().expect("drain"); // frames 2-3: burst resident
    for client in &mut crowd {
        client.send_frame(&burst_seq.frames()[0]).expect("send");
        client.drain().expect("drain");
    }
    for client in crowd {
        client.finish().expect("finish burst session");
    }

    steady.send_frame(&steady_seq.frames()[4]).expect("send");
    steady.send_frame(&steady_seq.frames()[5]).expect("send");
    let summary = steady.finish().expect("finish steady");
    let report = server.shutdown();

    let trace = summary.stats.rate_per_frame.clone();
    let dip = *trace.iter().max().unwrap();
    assert_eq!(&trace[..2], &[30, 30], "pre-burst frames at the request");
    assert!(
        trace[2] > 30 && trace[3] > 30,
        "the burst must walk the steady session down the ladder: {trace:?}"
    );
    assert_eq!(
        &trace[4..],
        &[30, 30],
        "the burst's exit must restore the steady session: {trace:?}"
    );
    assert_eq!(report.errors, 0, "degrade must never drop a session");
    assert_eq!(
        report.degraded,
        burst as u64 + 1,
        "every burst session plus the steady one ran degraded"
    );
    assert_eq!(
        report.restored, 1,
        "only the steady session outlives the burst"
    );
    assert!(report.throttle_steps > 0);
    DegradeResult {
        burst,
        steady_trace: trace,
        dip,
        degraded: report.degraded,
        restored: report.restored,
        throttle_steps: report.throttle_steps,
    }
}

struct BurstResult {
    steady: usize,
    crowd: usize,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    errors: u64,
    degraded: u64,
}

/// Phase 3: the threaded flash crowd. `steady` fixed-rate encoders run
/// for the whole phase; partway in, a 4x crowd of mixed-geometry
/// closed-loop sessions joins, half of them slow readers (they stall
/// between frames, holding their sessions — and their grants — open).
/// Gate: every session completes, zero server-side errors, and the p99
/// per-response latency stays bounded on a multi-core host.
fn phase_burst(steady: usize, frames: usize, host_cores: usize) -> BurstResult {
    let (w, h) = (64, 48);
    let crowd = 4 * steady;
    let budget = 0.5 * (w * h) as f64 * steady as f64; // steady fits exactly
    let steady_seq = source(w, h, frames);
    let small_seq = source(48, 32, frames / 2);

    let server = Server::spawn("127.0.0.1:0", governed(budget)).expect("bind loopback");
    let mut latencies: Vec<Duration> = Vec::new();
    std::thread::scope(|scope| {
        let server = &server;
        let steady_handles: Vec<_> = (0..steady)
            .map(|i| {
                let seq = &steady_seq;
                scope.spawn(move || {
                    let mut client = connect(
                        server,
                        Hello::hybrid_encode(30, w, h).with_client(&format!("steady-{i}")),
                    )
                    .expect("admit steady");
                    for frame in seq.frames() {
                        client.send_frame(frame).expect("send frame");
                        // Pace the steady streams so they outlive the
                        // crowd and get to walk back up the ladder.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    client.finish().expect("finish steady").latencies
                })
            })
            .collect();
        // Let the steady state establish, then release the crowd.
        std::thread::sleep(Duration::from_millis(50));
        let crowd_handles: Vec<_> = (0..crowd)
            .map(|i| {
                let (big, small) = (&steady_seq, &small_seq);
                scope.spawn(move || {
                    let (seq, gw, gh) = if i % 2 == 0 {
                        (small, 48, 32)
                    } else {
                        (big, w, h)
                    };
                    let mut client = connect(
                        server,
                        Hello::hybrid_encode(34, gw, gh)
                            .with_target_bpp(0.6, 4)
                            .with_client(&format!("crowd-{i}")),
                    )
                    .expect("crowd session must be admitted, not rejected");
                    for frame in seq.frames().iter().take(frames / 2) {
                        client.send_frame(frame).expect("send frame");
                        if i % 2 == 0 {
                            // A slow reader: holds its grant while
                            // barely consuming responses.
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                    client.finish().expect("finish crowd session").latencies
                })
            })
            .collect();
        for handle in steady_handles.into_iter().chain(crowd_handles) {
            latencies.extend(handle.join().expect("session thread"));
        }
    });
    let report = server.shutdown();

    let mut lat_ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    lat_ms.sort_by(f64::total_cmp);
    let result = BurstResult {
        steady,
        crowd,
        p50_ms: percentile(&lat_ms, 0.50),
        p90_ms: percentile(&lat_ms, 0.90),
        p99_ms: percentile(&lat_ms, 0.99),
        errors: report.errors,
        degraded: report.degraded,
    };
    assert_eq!(
        result.errors, 0,
        "the governor must degrade sessions, never drop them"
    );
    assert!(
        result.degraded > 0,
        "a 4x crowd over budget must push sessions into degraded grants"
    );
    if host_cores >= 2 {
        assert!(
            result.p99_ms < 10_000.0,
            "p99 {:.1} ms: the burst starved the pipeline",
            result.p99_ms
        );
    }
    result
}

/// Phase 4: a session the reservoir can never carry is refused at the
/// door with the budget named, and a sane session still gets in.
fn phase_reject() -> String {
    let server = Server::spawn("127.0.0.1:0", governed(1000.0)).expect("bind loopback");
    let err = connect(
        &server,
        Hello::hybrid_encode(30, 48, 32).with_target_bpp(6.0, 4),
    )
    .expect_err("a 9216-bit demand against a 1000-bit budget must be rejected");
    let message = match &err {
        ServeError::Remote(m) => m.clone(),
        other => panic!("rejection must be a clean remote error, got {other}"),
    };
    assert!(message.contains("budget"), "{message}");
    let fine = connect(&server, Hello::hybrid_encode(30, 48, 32)).expect("modest session admitted");
    drop(fine);
    let report = server.shutdown();
    assert_eq!(report.rejected, 1);
    message
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let host_cores = ExecCtx::auto().threads();
    let (budget_sessions, budget_gops, burst_base, burst_frames, degrade_burst) = if quick {
        (4, 2, 2, 8, 4)
    } else {
        (6, 3, 3, 16, 8)
    };
    println!(
        "flashcrowd: governed serve under burst, host cores = {host_cores}{}",
        if quick { " (quick)" } else { "" }
    );

    let budget = phase_budget(budget_sessions, budget_gops);
    println!(
        "  budget:  {} sessions, {:.1} bits/frame budget -> {:.1} aggregate ({:.1} % off)",
        budget.sessions,
        budget.budget,
        budget.aggregate,
        budget.error * 100.0
    );
    assert!(
        budget.error < 0.15,
        "aggregate {:.1} bits/frame vs budget {:.1}: {:.1} % breaches the 15 % gate",
        budget.aggregate,
        budget.budget,
        budget.error * 100.0
    );

    let degrade = phase_degrade(degrade_burst);
    println!(
        "  degrade: burst of {} -> steady trace {:?} (dip to QP {}), \
         degraded {}, restored {}, throttle steps {}",
        degrade.burst,
        degrade.steady_trace,
        degrade.dip,
        degrade.degraded,
        degrade.restored,
        degrade.throttle_steps
    );

    let burst = phase_burst(burst_base, burst_frames, host_cores);
    println!(
        "  burst:   {} steady + {} crowd -> p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, \
         {} degraded, {} errors",
        burst.steady,
        burst.crowd,
        burst.p50_ms,
        burst.p90_ms,
        burst.p99_ms,
        burst.degraded,
        burst.errors
    );

    let reject_message = phase_reject();
    println!("  reject:  over-budget session refused: {reject_message:?}");

    println!("gate: budget within 15 %, degrade-restore clean, burst survived — OK");
}
