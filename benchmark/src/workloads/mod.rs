//! The four workloads and what they share: the sizing rule, the clip,
//! the shape of a measurement.

pub mod decode_sparse;
pub mod encode_sparse;
pub mod relay_live;
pub mod serve_sessions;
pub mod served;

use crate::catalogue::PER_LAYER;
use crate::probes;
use crate::procfs::cpu_seconds;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use nvc::video::metrics::psnr_sequence;
use nvc::video::synthetic::{SceneConfig, Synthesizer};
use nvc::video::{Frame, Sequence};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How often a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Every client read gives up after this long, so a hang becomes a
/// counted failure and not a stuck run.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Host cores as the scheduler sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sizing rule: `C = clamp(nproc, 2, 4)` client threads,
/// connections and in-process codec threads. At least 2 so that
/// contention exists on any host, at most 4 so that the load generator,
/// which shares the host with the server, does not become the
/// bottleneck it is measuring.
pub fn clients() -> usize {
    nproc().clamp(2, 4)
}

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// The measured window.
    pub budget: Duration,
    pub trace: bool,
    /// [`SETUP_REPS`], or 1 for a `--quick` smoke.
    pub setup_reps: usize,
}

/// The seed's clip: HEVC-B-like motion and texture, content drawn from
/// `seed`.
pub fn synth_clip(width: usize, height: usize, frames: usize, seed: u64) -> Sequence {
    let mut scene = SceneConfig::hevc_b_like(width, height, frames);
    scene.seed = seed;
    Synthesizer::new(scene).generate()
}

/// Mean PSNR in dB between a source clip and its reconstruction.
pub fn psnr_db(source: &Sequence, decoded: &[Frame]) -> Result<f64, String> {
    let pairs: Vec<(&Frame, &Frame)> = source.frames().iter().zip(decoded).collect();
    psnr_sequence(&pairs).map_err(|e| format!("psnr: {e}"))
}

/// Bits per pixel of `bytes` coded bytes over `frames` frames.
pub fn bits_per_pixel(bytes: usize, width: usize, height: usize, frames: usize) -> f64 {
    bytes as f64 * 8.0 / (width * height * frames) as f64
}

pub fn same_pixels(a: &Frame, b: &Frame) -> bool {
    a.tensor().as_slice() == b.tensor().as_slice()
}

/// What a measured window produced, before it is boiled down.
#[derive(Debug, Default)]
pub struct Window {
    /// Frames per second of each pass (or barrier round).
    pub pass_fps: Vec<f64>,
    /// Per-frame latency samples in ms (answered frames only).
    pub frame_ms: Vec<f64>,
    /// Frames the window tried to move end to end.
    pub attempted: u64,
    /// Of those, frames that errored, timed out or came back wrong.
    pub failed: u64,
    /// Whole-process CPU seconds spent in the window.
    pub cpu_s: f64,
    /// The open-loop phase of the two served workloads: its fixed
    /// offered rate, how late the generator sent each frame, the rate
    /// it achieved and the frames that failed in it. `frame_ms` holds
    /// that phase's latencies, `pass_fps` the capacity phase's rounds.
    pub paced_rate_fps: Option<f64>,
    pub late_ms: Vec<f64>,
    pub paced_fps: f64,
    pub paced_failed: u64,
    /// What the server's own instruments saw (traced served windows).
    pub served: Option<served::ServedStats>,
    /// Notes on the first few failures, for the human report.
    pub failures: Vec<String>,
}

impl Window {
    /// Counts `frames` failed frames and keeps a note of why. With zero
    /// frames it records a failure of the measurement itself, which
    /// makes the run incorrect all the same.
    pub fn fail(&mut self, frames: u64, what: impl Into<String>) {
        self.failed += frames;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn fps(&self) -> f64 {
        median(&self.pass_fps)
    }

    /// A frame that failed has no latency sample yet must count as
    /// missing every latency limit, so percentiles are taken over the
    /// answered samples padded with one read timeout per failed frame.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        let mut all = sorted(&self.frame_ms);
        let timeout_ms = READ_TIMEOUT.as_secs_f64() * 1e3;
        all.extend(std::iter::repeat_n(timeout_ms, self.failed as usize));
        percentile(&all, q)
    }

    pub fn cpu_ms_per_frame(&self) -> f64 {
        self.cpu_s * 1e3 / (self.attempted.max(1)) as f64
    }
}

/// Whole-process CPU time over a window. A `/proc` that cannot be read
/// becomes a failure note on the window, not a silent zero.
pub struct CpuClock(Result<f64, String>);

impl CpuClock {
    pub fn start() -> Self {
        CpuClock(cpu_seconds())
    }

    pub fn stop(self, window: &mut Window) {
        match self.0.and_then(|start| Ok(cpu_seconds()? - start)) {
            Ok(seconds) => window.cpu_s = seconds,
            Err(why) => window.fail(0, why),
        }
    }
}

/// Runs `setup` `reps` times, keeping the last result and every
/// duration. Earlier results are dropped before the next set-up starts,
/// outside the timed part, so two servers never run side by side.
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(reps);
    let mut ready = None;
    for _ in 0..reps.max(1) {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((ready.expect("the loop ran at least once"), seconds))
}

/// Runs `pass` until `budget` is spent, and at least twice.
pub fn passes_within(budget: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < 2 || start.elapsed() < budget {
        pass();
        done += 1;
    }
}

/// Per-layer readings of a traced run, keyed by catalogue name.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every catalogue metric, reading 0 until a probe sets it.
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Sets a reading.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list: the printed names
    /// and `BENCHMARK.json` must stay one set.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("per-layer metric `{name}` is not in the catalogue"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// One workload: what it builds before the clock starts, what one
/// measured window does, and the probes its traced run adds.
pub trait Workload {
    type Ready;

    /// Everything before the first timed pass, one untimed warm-up pass
    /// included. `trace` only switches on instruments the program
    /// already has (the server's metrics endpoint).
    fn setup(seed: u64, trace: bool) -> Result<Self::Ready, String>;

    /// `(bpp, psnr_db)` of the clip as coded in set-up.
    fn quality(ready: &Self::Ready) -> Result<(f64, f64), String>;

    /// Moves frames for `budget`, checking every one. With a tracer,
    /// also records a span around each call into the program.
    fn measure(ready: &Self::Ready, budget: Duration, tracer: Option<&mut Tracer>) -> Window;

    /// The workload's own per-layer probes, run after the traced window.
    fn probes(
        ready: &Self::Ready,
        traced: &Window,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> Result<(), String>;
}

/// Runs one workload as the driver asks for it.
///
/// Untraced, the whole budget is one window and only end-to-end metrics
/// come out. Traced, a quarter of the budget runs without spans and a
/// quarter with them — their throughput ratio is the tracing overhead —
/// and the probes take the rest.
pub fn run<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    // `setup_s` is an end-to-end metric, so only the untraced run pays
    // for repeating set-up.
    let reps = if args.trace { 1 } else { args.setup_reps };
    let (ready, setup_s) = timed_setups(reps, || W::setup(args.seed, args.trace))?;
    let (bpp, psnr_db) = W::quality(&ready)?;
    if !args.trace {
        return Ok(Outcome {
            setup_s,
            bpp,
            psnr_db,
            window: W::measure(&ready, args.budget, None),
            layers: None,
            tracer: None,
        });
    }
    let plain = W::measure(&ready, args.budget / 4, None);
    let mut tracer = Tracer::new(Instant::now());
    let kernels_before = probes::KernelTime::now();
    let window = W::measure(&ready, args.budget / 4, Some(&mut tracer));
    let mut layers = Layers::new();
    kernels_before.report_since(window.attempted, &mut layers);
    probes::bench_and_loadgen(&plain, &window, &tracer, &mut layers);
    probes::kernels(&mut layers)?;
    probes::pool_leases(&mut layers);
    W::probes(&ready, &window, &tracer, &mut layers)?;
    Ok(Outcome {
        setup_s,
        bpp,
        psnr_db,
        window,
        layers: Some(layers),
        tracer: Some(tracer),
    })
}

/// What a workload hands back.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub bpp: f64,
    pub psnr_db: f64,
    /// The window the end-to-end metrics (untraced run) or the in-run
    /// per-layer metrics (traced run) come from.
    pub window: Window,
    /// Traced runs only.
    pub layers: Option<Layers>,
    pub tracer: Option<Tracer>,
}
