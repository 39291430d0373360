//! The paper's published numbers beside this repository's, one [`Row`]
//! each: *item | paper | this repo | ratio | status | source*, over
//! Table I, Table II, Fig. 8, Fig. 9(a), Fig. 9(b) and ablations E6–E8.
//! Each shape the paper claims ("every module improves") is a named
//! predicate with a row of its own. README's "Reproducing the paper"
//! holds the rendered table, and [`drift`] compares a fresh report with
//! it: every cell of a `sim` row, the status of an `RD` row (its values
//! depend on the platform libm), and only the item of a `host-timed` one.

use std::fmt;

use nvc_baseline::{HybridCodec, Profile};
use nvc_fastalg::{fta_t3_6x6_4x4, winograd_f2x2_3x3, FastConv2d, FastDeConv2d, Sparsity};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_sim::comparators::{cpu_i9_9900x, gpu_rtx3090, nvca_published};
use nvc_sim::{Dataflow, NvcaConfig, SimLayer, SimOp, SimReport, Simulator, Workload};
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_video::bdrate::{bd_psnr, bd_rate, RdPoint};
use nvc_video::codec::{encode_sequence, DecoderSession, EncodedStream};
use nvc_video::metrics::{ms_ssim_sequence, psnr_sequence};
use nvc_video::synthetic::{SceneConfig, Synthesizer};
use nvc_video::Sequence;
use nvca::{offchip_comparison, Nvca};

/// Channel width used for *functional* RD experiments. The paper trains
/// with `N = 36`; the analytic weight construction is scale-free, so the
/// RD harness uses a narrower network to keep the sweep fast. Hardware
/// simulations always use the paper's `N = 36`.
pub const BENCH_N: usize = 12;

/// Resolution and length of the functional RD sweeps (multiple of 16).
pub const BENCH_W: usize = 96;
/// See [`BENCH_W`].
pub const BENCH_H: usize = 64;
/// Frames per synthetic sequence in RD sweeps.
pub const BENCH_FRAMES: usize = 16;

/// A number holds when ours is within this factor of the paper's, either
/// way (ROADMAP item 12's acceptance bound).
pub const TOLERANCE: f64 = 1.25;

const E6_RHO: [f64; 5] = [0.0, 0.25, 0.5, 0.625, 0.75];
const E8_BANKS: [usize; 7] = [2, 4, 6, 8, 10, 12, 16];
/// The paper's 1080p operating point, height rounded up to 16.
const H: usize = 1088;
const W: usize = 1920;
const SECTIONS: [&str; 8] = [
    "Table I",
    "Table II",
    "Fig. 8",
    "Fig. 9(a)",
    "Fig. 9(b)",
    "E6",
    "E7",
    "E8",
];

/// Every codec appearing in the Table I / Fig. 8 ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderCodec {
    /// AVC-like classical profile.
    AvcLike,
    /// HEVC-like classical profile — the BD-rate anchor.
    HevcLike,
    /// DVC-like learned baseline.
    DvcLike,
    /// FVC-like learned baseline (feature space, no attention).
    FvcLike,
    /// CTVC-Net, full precision.
    CtvcFp,
    /// CTVC-Net, fixed point.
    CtvcFxp,
    /// CTVC-Net, fixed point + 50 % transform-domain sparsity.
    CtvcSparse,
}

impl LadderCodec {
    /// All ladder codecs in Table I row order.
    pub const ALL: [LadderCodec; 7] = [
        LadderCodec::AvcLike,
        LadderCodec::DvcLike,
        LadderCodec::HevcLike,
        LadderCodec::FvcLike,
        LadderCodec::CtvcFp,
        LadderCodec::CtvcFxp,
        LadderCodec::CtvcSparse,
    ];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            LadderCodec::AvcLike => "H.264-like",
            LadderCodec::HevcLike => "H.265-like (anchor)",
            LadderCodec::DvcLike => "DVC-like",
            LadderCodec::FvcLike => "FVC-like",
            LadderCodec::CtvcFp => "CTVC-Net(FP)",
            LadderCodec::CtvcFxp => "CTVC-Net(FXP)",
            LadderCodec::CtvcSparse => "CTVC-Net(Sparse)",
        }
    }
}

/// One measured rate–distortion sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdSample {
    /// Bits per pixel.
    pub bpp: f64,
    /// PSNR in dB.
    pub psnr: f64,
    /// MS-SSIM in `[0, 1]`.
    pub ms_ssim: f64,
}

/// The three dataset presets of the paper's evaluation.
pub fn dataset_presets() -> Vec<(&'static str, SceneConfig)> {
    let (w, h, n) = (BENCH_W, BENCH_H, BENCH_FRAMES);
    vec![
        ("UVG-like", SceneConfig::uvg_like(w, h, n)),
        ("HEVC-B-like", SceneConfig::hevc_b_like(w, h, n)),
        ("MCL-JCV-like", SceneConfig::mcl_jcv_like(w, h, n)),
    ]
}

fn measure(seq: &Sequence, coded: &EncodedStream) -> RdSample {
    let pairs: Vec<_> = seq.frames().iter().zip(coded.decoded.frames()).collect();
    let psnr = psnr_sequence(&pairs).expect("matched sequences");
    let ms_ssim = ms_ssim_sequence(&pairs).expect("matched sequences");
    let bpp = coded.stats.bpp(seq.pixels_per_frame());
    RdSample { bpp, psnr, ms_ssim }
}

/// Runs a full RD sweep (six QPs, or the four rate points) for one codec
/// on one sequence.
///
/// # Panics
///
/// Panics if encoding fails (the harness treats that as a bug).
pub fn rd_sweep(codec: LadderCodec, seq: &Sequence) -> Vec<RdSample> {
    let cfg = match codec {
        LadderCodec::AvcLike | LadderCodec::HevcLike => {
            let profile = if codec == LadderCodec::AvcLike {
                Profile::avc_like()
            } else {
                Profile::hevc_like()
            };
            let hc = HybridCodec::new(profile);
            // Six points spanning ultra-coarse to moderate quality so the
            // anchor curve overlaps the learned codecs' distortion range.
            let encode = |qp| encode_sequence(&hc, seq, qp).expect("hybrid encode");
            let coded = [58u8, 52, 46, 40, 34, 28].map(encode);
            return coded.iter().map(|c| measure(seq, c)).collect();
        }
        LadderCodec::DvcLike => CtvcConfig::dvc_like(BENCH_N),
        LadderCodec::FvcLike => CtvcConfig::fvc_like(BENCH_N),
        LadderCodec::CtvcFp => CtvcConfig::ctvc_fp(BENCH_N),
        LadderCodec::CtvcFxp => CtvcConfig::ctvc_fxp(BENCH_N),
        LadderCodec::CtvcSparse => CtvcConfig::ctvc_sparse(BENCH_N),
    };
    let cc = CtvcCodec::new(cfg).expect("valid config");
    let encode = |r| encode_sequence(&cc, seq, r).expect("ctvc encode");
    let coded = RatePoint::sweep().map(encode);
    coded.iter().map(|c| measure(seq, c)).collect()
}

/// Converts samples to `(rate, PSNR-dB)` points for BD-rate.
pub fn psnr_curve(samples: &[RdSample]) -> Vec<RdPoint> {
    samples.iter().map(|s| (s.bpp, s.psnr)).collect()
}

/// The non-dominated points of `curve` in rate order (the precondition
/// of [`bd_rate`]), and how many points were dropped.
pub fn frontier(curve: &[RdPoint]) -> (Vec<RdPoint>, usize) {
    let mut kept = curve.to_vec();
    kept.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best = f64::NEG_INFINITY;
    kept.retain(|p| {
        let better = p.1 > best;
        best = best.max(p.1);
        better
    });
    let dropped = curve.len() - kept.len();
    (kept, dropped)
}

/// Every functional RD number of the report, each encode run once:
/// Table I and Fig. 8 read the same ladder sweeps, and E6's ρ = 0 and
/// 50 % points are the FXP and Sparse sweeps' `RatePoint(1)`.
#[derive(Debug, Clone)]
pub struct RdSweeps {
    /// Per dataset preset: its name and one sweep per codec, in
    /// [`LadderCodec::ALL`] order.
    pub datasets: Vec<(&'static str, Vec<Vec<RdSample>>)>,
    /// E6: the UVG-like preset at `RatePoint(1)`, one sample per ρ.
    pub rho: Vec<RdSample>,
}

impl RdSweeps {
    /// Runs every sweep, logging progress to stderr.
    pub fn run() -> Self {
        let (mut datasets, mut uvg) = (Vec::new(), None);
        for (name, cfg) in dataset_presets() {
            let seq = Synthesizer::new(cfg).generate();
            let sweep = |&codec: &LadderCodec| {
                eprintln!("[{name}] {}", codec.label());
                rd_sweep(codec, &seq)
            };
            datasets.push((name, LadderCodec::ALL.iter().map(sweep).collect()));
            uvg.get_or_insert(seq);
        }
        let mut sweeps = RdSweeps {
            datasets,
            rho: Vec::new(),
        };
        let (uvg, rate) = (&uvg.expect("UVG-like preset"), RatePoint::new(1));
        let at = usize::from(rate.index());
        for rho in E6_RHO {
            let sample = match rho {
                0.0 => sweeps.curve(0, LadderCodec::CtvcFxp)[at],
                0.5 => sweeps.curve(0, LadderCodec::CtvcSparse)[at],
                _ => {
                    eprintln!("[E6] rho {rho}");
                    let mut cfg = CtvcConfig::ctvc_fxp(BENCH_N);
                    cfg.sparsity = Some(rho);
                    let codec = CtvcCodec::new(cfg).expect("valid config");
                    let coded = encode_sequence(&codec, uvg, rate).expect("ctvc encode");
                    measure(uvg, &coded)
                }
            };
            sweeps.rho.push(sample);
        }
        sweeps
    }

    fn curve(&self, d: usize, codec: LadderCodec) -> &[RdSample] {
        let i = LadderCodec::ALL.iter().position(|&c| c == codec);
        &self.datasets[d].1[i.expect("ladder codec")]
    }

    fn front(&self, d: usize, codec: LadderCodec) -> Vec<RdPoint> {
        frontier(&psnr_curve(self.curve(d, codec))).0
    }

    /// The sweeps as text; `*` marks the dominated points that the BD
    /// fits drop.
    pub fn series(&self) -> String {
        let mut out = String::from("RD points (bpp, PSNR dB, MS-SSIM); * = dominated\n");
        for (d, (name, _)) in self.datasets.iter().enumerate() {
            out += &format!("--- {name} ---\n");
            for codec in LadderCodec::ALL {
                let (kept, dropped) = frontier(&psnr_curve(self.curve(d, codec)));
                out += &format!("{:<20}", codec.label());
                for s in self.curve(d, codec) {
                    let mark = ["*", ""][usize::from(kept.contains(&(s.bpp, s.psnr)))];
                    out += &format!(" ({:.4}, {:.2}, {:.4}){mark}", s.bpp, s.psnr, s.ms_ssim);
                }
                out += &format!("  [{dropped} dropped]\n");
            }
        }
        out
    }
}

/// Where a row's value comes from; it decides which cells README must
/// match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Sim,
    Rd,
    Host,
}

/// Whether a published number or claim reproduces, and the cause when
/// it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Holds,
    /// Holds only because the model was given the answer.
    HoldsByConstruction(&'static str),
    /// Same sign as the paper, outside [`TOLERANCE`].
    Gap(&'static str),
    /// Opposite sign, not computable, or a claim that fails.
    DoesNotReproduce(&'static str),
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Holds => write!(f, "holds"),
            Status::HoldsByConstruction(c) => write!(f, "holds by construction: {c}"),
            Status::Gap(c) => write!(f, "gap: {c}"),
            Status::DoesNotReproduce(c) => write!(f, "does not reproduce: {c}"),
        }
    }
}

/// One published number, or one claim, beside this repository's.
#[derive(Debug, Clone)]
pub struct Row {
    section: &'static str,
    item: String,
    /// The paper's value, or `holds` for a claim.
    paper: String,
    /// Our value, or the evidence for a claim.
    ours: String,
    ratio: Option<f64>,
    status: Status,
    source: Source,
}

/// The cause of a miss that has no explanation yet.
const NEW: &str = "not yet explained";

/// A published number (`ours` is `None` when it cannot be computed). It
/// holds within [`TOLERANCE`]; otherwise it is a gap, or does not
/// reproduce when the sign differs or `ours` is missing, for the cause
/// [`Row::because`] names. [`group`] sets its section and source.
fn num(item: &str, paper: f64, ours: impl Into<Option<f64>>) -> Row {
    let show = |v: f64| format!("{v:.*}", if v.abs() < 100.0 { 2 } else { 1 });
    let ours = ours.into();
    let ratio = ours.map(|o| o / paper);
    let status = match ratio {
        Some(r) if (1.0 / TOLERANCE..=TOLERANCE).contains(&r) => Status::Holds,
        Some(r) if r > 0.0 => Status::Gap(NEW),
        _ => Status::DoesNotReproduce(NEW),
    };
    let (item, paper, ours) = (item.into(), show(paper), ours.map_or("n/a".into(), show));
    let (section, source) = ("", Source::Sim);
    Row {
        section,
        item,
        paper,
        ours,
        ratio,
        status,
        source,
    }
}

/// A claim about a shape, evaluated on the evidence `ours`: it holds, or
/// it does not reproduce.
fn check(item: &str, ours: String, holds: bool) -> Row {
    let mut row = num(&format!("check: {item}"), 1.0, 1.0);
    (row.paper, row.ours, row.ratio) = ("holds".into(), ours, None);
    if !holds {
        row.status = Status::DoesNotReproduce(NEW);
    }
    row
}

impl Row {
    /// Names the cause of a miss.
    fn because(mut self, cause: &'static str) -> Row {
        self.status = match self.status {
            Status::Gap(_) => Status::Gap(cause),
            Status::DoesNotReproduce(_) => Status::DoesNotReproduce(cause),
            holds => holds,
        };
        self
    }

    /// Appends `detail` to our cell.
    fn with(mut self, detail: String) -> Row {
        self.ours = format!("{} ({detail})", self.ours);
        self
    }

    fn cells(&self) -> [String; 6] {
        let source = match self.source {
            Source::Sim => "sim",
            Source::Rd => "RD",
            Source::Host => "host-timed",
        };
        [
            format!("{} · {}", self.section, self.item),
            self.paper.clone(),
            self.ours.clone(),
            self.ratio.map_or("—".into(), |r| format!("{r:.2}")),
            self.status.to_string(),
            source.into(),
        ]
    }
}

fn group(section: &'static str, source: Source, mut rows: Vec<Row>) -> Vec<Row> {
    for row in &mut rows {
        (row.section, row.source) = (section, source);
    }
    rows
}

/// Joins values with `/` at a fixed precision.
fn slash(values: impl IntoIterator<Item = f64>, decimals: usize) -> String {
    let parts: Vec<String> = values
        .into_iter()
        .map(|v| format!("{v:.decimals$}"))
        .collect();
    parts.join("/")
}

/// `from → to` bytes in MB.
fn traffic(from: u64, to: u64) -> String {
    format!("{:.2} → {:.2} MB", from as f64 / 1e6, to as f64 / 1e6)
}

/// Every simulator row, at the paper's design point (`ctvc_sparse(36)`,
/// 1088×1920): Table II's NVCA row, Fig. 9(a)'s simulated decode, Fig.
/// 9(b), E6's multiplier and gate columns, E7 and E8.
pub fn sim_rows() -> Vec<Row> {
    sim_rows_and_frame_ms().0
}

/// [`sim_rows`] and the simulated 1080p frame time in ms. The N = 36
/// codec is built once; E6 and E8 re-run its workload on a changed
/// [`NvcaConfig`].
fn sim_rows_and_frame_ms() -> (Vec<Row>, f64) {
    let nvca = Nvca::paper_design(CtvcConfig::ctvc_sparse(36)).expect("paper design");
    let wl = nvca.decoder_workload(H, W);
    let rep = nvca.simulator().run(&wl, Dataflow::Chained);
    let mut rows = group("Table II", Source::Sim, table2(&nvca, &wl, &rep));
    rows.extend(group("Fig. 9(a)", Source::Sim, fig9a(&rep)));
    rows.extend(group("Fig. 9(b)", Source::Sim, fig9b(&nvca)));
    rows.extend(group("E6", Source::Sim, e6(&wl)));
    rows.extend(group("E7", Source::Sim, e7()));
    rows.extend(group("E8", Source::Sim, e8(&wl)));
    (rows, rep.frame_ms)
}

fn table2(nvca: &Nvca, wl: &Workload, rep: &SimReport) -> Vec<Row> {
    const POWER: &str = "chip power 3.3× low; the EnergyModel constants have no stated source";
    const FPS: &str = "follows Fig. 9(a)'s frame time";
    let (paper, ours) = (nvca_published(), nvca.table2_row());
    let (gops, gops_w) = (paper.throughput_gops, paper.gops_per_watt());
    let (eff, eff_w) = (rep.effective_gops, rep.effective_gops / rep.power_w);
    let (phys, phys_w) = (ours.throughput_gops, ours.gops_per_watt());
    let (gates, sram) = (paper.gate_count_m, paper.sram_kb);
    let gpu = eff / gpu_rtx3090().throughput_gops;
    let cpu = eff / cpu_i9_9900x().throughput_gops;
    let gmac = wl.total_macs() as f64 / 1e9;
    // A physical count never reproduces an effective one, whatever the
    // ratio happens to be.
    let physical = |mut row: Row| {
        row.status = Status::Gap("physical multiplies; the paper counts effective ones");
        row
    };
    vec![
        num("NVCA GOPS, effective", gops, eff).because(FPS),
        physical(num("NVCA GOPS, physical", gops, phys)),
        num("NVCA GOPS/W, effective", gops_w, eff_w).because(POWER),
        physical(num("NVCA GOPS/W, physical", gops_w, phys_w)),
        num("NVCA chip power, W", paper.power_w, rep.power_w).because(POWER),
        num("NVCA gates, M", gates.expect("cited"), ours.gate_count_m),
        num("NVCA SRAM, KB", sram.expect("cited"), ours.sram_kb),
        num("GMAC/frame (3525 GOPS/25 fps/2)", gops / 50.0, gmac),
        num("GOPS over GPU (RTX 3090), ×", 2.4, gpu).because(FPS),
        num("GOPS over CPU (i9-9900X), ×", 11.1, cpu).because(FPS),
        check("NVCA ≫ CPU (≥ 10×)", format!("{cpu:.1}×"), cpu >= 10.0),
        check(
            "GOPS/W in the thousands",
            format!("{eff_w:.0}"),
            eff_w >= 1e3,
        ),
    ]
}

fn fig9a(rep: &SimReport) -> Vec<Row> {
    const CYCLES: &str =
        "21 % fewer cycles than the paper's chip; no stepped model checks the engine (ROADMAP 16)";
    let (ms, fps) = (rep.frame_ms, rep.fps);
    vec![
        num("NVCA 1080p decode, ms/frame", 40.0, ms).because(CYCLES),
        num("NVCA over DCVC (908 ms), ×", 22.7, 908.0 / ms).because(CYCLES),
        check("real time at 1080p", format!("{fps:.1} fps"), fps >= 25.0),
    ]
}

fn fig9b(nvca: &Nvca) -> Vec<Row> {
    const FE: &str = "the chain rule keeps all of feature extraction's full-resolution layers on chip (ROADMAP 12)";
    const LEAD: &str = "tens of percent, led by the full-resolution feature/reconstruction paths";
    let offchip = offchip_comparison(nvca, H, W);
    let paper = [37.5, 44.4, 22.2, 44.4, 75.0];
    let mut rows: Vec<Row> = offchip
        .iter()
        .zip(paper)
        .map(|(r, paper)| {
            let row = num(
                &format!("{} reduction, %", r.module),
                paper,
                r.reduction_pct(),
            );
            let row = if r.module == "feature_extraction" {
                row.because(FE)
            } else {
                row
            };
            row.with(traffic(r.baseline_bytes, r.chained_bytes))
        })
        .collect();
    let base: u64 = offchip.iter().map(|r| r.baseline_bytes).sum();
    let chain: u64 = offchip.iter().map(|r| r.chained_bytes).sum();
    let overall = 100.0 * (1.0 - chain as f64 / base as f64);
    let total =
        num("overall reduction, %", 40.7, overall).because("feature extraction alone moves it");
    rows.push(total.with(traffic(base, chain)));
    let improved = offchip
        .iter()
        .filter(|r| r.chained_bytes < r.baseline_bytes)
        .count();
    let every = format!("{improved} of {} modules", offchip.len());
    rows.push(check(
        "every module improves",
        every,
        improved == offchip.len(),
    ));
    let mut by_saving: Vec<_> = offchip.iter().collect();
    by_saving.sort_by_key(|r| std::cmp::Reverse(r.baseline_bytes.saturating_sub(r.chained_bytes)));
    let top = [by_saving[0].module, by_saving[1].module];
    let led = ["feature_extraction", "frame_reconstruction"]
        .iter()
        .all(|m| top.contains(m));
    let evidence = format!("{overall:.1} %; most saved by {}", top.join(", "));
    rows.push(check(
        LEAD,
        evidence,
        (10.0..100.0).contains(&overall) && led,
    ));
    rows
}

fn e6(wl: &Workload) -> Vec<Row> {
    let hw = E6_RHO.map(|rho| NvcaConfig {
        rho,
        ..NvcaConfig::paper()
    });
    let muls = hw.each_ref().map(NvcaConfig::scu_multipliers);
    let fps = hw
        .iter()
        .map(|c| Simulator::new(c.clone()).run(wl, Dataflow::Chained).fps);
    let sweep = format!(
        "ρ {} %: SCU multipliers {}, gates {} M, sim fps {}",
        slash(E6_RHO.map(|r| r * 100.0), 1),
        slash(muls.map(|m| m as f64), 0),
        slash(hw.iter().map(NvcaConfig::gate_count_m), 2),
        slash(fps, 1)
    );
    // E6_RHO[2] is the paper's ρ = 50 %.
    let halves = 2 * muls[2] == muls[0];
    vec![
        num("SCU multipliers at ρ = 50 %", 32.0, muls[2] as f64),
        check("multipliers (area) halve at ρ = 50 %", sweep, halves),
    ]
}

fn e7() -> Vec<Row> {
    const POLYPHASE: &str = "the paper's 9× is per tile against a zero-inserted direct deconv; polyphase direct already skips the zeros";
    let (wino, fta) = (winograd_f2x2_3x3(), fta_t3_6x6_4x4());
    let rho = Sparsity::new(0.5).expect("ρ");
    // One 36-channel layer at the 1080p/2 feature resolution, in G:
    // direct MACs, then dense and 50 %-sparse Hadamard multiplications.
    let g = |n: u64| n as f64 / 1e9;
    let conv = Conv2d::randn(36, 36, 3, 1, 1, 1).expect("conv");
    let fast = [
        FastConv2d::from_conv(&conv),
        FastConv2d::from_conv_pruned(&conv, rho),
    ];
    let [dense, sparse] = fast.map(|f| g(f.expect("fast").hadamard_mults(544, 960)));
    let direct = g(conv.macs(544, 960));
    let deconv = DeConv2d::randn(36, 36, 4, 2, 1, 2).expect("deconv");
    let fast = [
        FastDeConv2d::from_deconv(&deconv),
        FastDeConv2d::from_deconv_pruned(&deconv, rho),
    ];
    let [de_dense, de_sparse] = fast.map(|f| g(f.expect("fast").hadamard_mults(272, 480)));
    let de_direct = g(deconv.macs(272, 480));
    // The conv on the SFTC, and its MACs as a plain 1×1 shape: a MAC
    // array without fast algorithms.
    let (c_in, c_out, h_out, w_out) = (36, 36, 544, 960);
    let ops = [
        SimOp::Conv3x3 {
            c_in,
            c_out,
            h_out,
            w_out,
            stride: 1,
        },
        SimOp::Conv1x1 {
            c_in: 9 * c_in,
            c_out,
            h_out,
            w_out,
        },
    ];
    let sim = Simulator::new(NvcaConfig::paper());
    let [fast, plain] = ops.map(|op| {
        let wl = Workload::new(vec![SimLayer::new("layer", "m", op)]);
        let rep = sim.run(&wl, Dataflow::Chained);
        rep.layers.iter().map(|l| l.compute_cycles).sum::<u64>()
    });
    let speedup = plain as f64 / fast as f64;
    let (tile_direct, tile) = (fta.direct_mults_per_tile(), fta.mults_per_tile());
    let tile_saving = tile_direct as f64 / tile as f64;
    let composes = (wino.direct_mults_per_tile(), wino.mults_per_tile()) == (36, 16)
        && direct / dense == 2.25
        && dense == 2.0 * sparse
        && (speedup - 4.5).abs() < 0.1;
    let fta_holds = (tile_direct, tile) == (576, 64) && de_dense == 2.0 * de_sparse;
    vec![
        num("T3(6×6,4×4) tile saving, ×", 9.0, tile_saving)
            .with(format!("{tile_direct} → {tile}, zero-inserted direct")),
        num("T3(6×6,4×4) layer saving, ×", 9.0, de_direct / de_dense)
            .because(POLYPHASE)
            .with(format!("{de_direct:.2} G → {de_dense:.2} G MACs, polyphase direct")),
        check(
            "36/16 = 2.25× from Winograd, ×2 from 50 % sparsity (≈ 4.5×)",
            format!(
                "{} → {} per tile; 36-ch 3×3 @ 544×960 {direct:.2} G → {dense:.2} G → {sparse:.2} G, simulated {plain} → {fast} cycles ({speedup:.2}×)",
                wino.direct_mults_per_tile(),
                wino.mults_per_tile()
            ),
            composes,
        ),
        check(
            "FTA turns a 576-mult direct deconv tile into 64 (32 sparse)",
            format!("{tile_direct} → {tile}; layer {de_dense:.2} G → {de_sparse:.2} G sparse"),
            fta_holds,
        ),
    ]
}

fn e8(wl: &Workload) -> Vec<Row> {
    const BANKS: &str =
        "`required_banks` hard-codes 10 banks for a chain with a deconv, 4 without (ROADMAP 16)";
    let hw = |input_banks| NvcaConfig {
        input_banks,
        ..NvcaConfig::paper()
    };
    let runs = E8_BANKS.map(|b| Simulator::new(hw(b)).run(wl, Dataflow::Chained));
    let layerwise = Simulator::new(NvcaConfig::paper()).run(wl, Dataflow::LayerByLayer);
    let least = runs.iter().map(|r| r.dram_bytes).min();
    let at = runs
        .iter()
        .position(|r| Some(r.dram_bytes) == least)
        .map(|i| E8_BANKS[i]);
    let sweep = format!(
        "least traffic from {} banks; banks {}: SRAM {} KB, chained {} MB, {} fps; layer by layer {:.1} MB",
        at.unwrap_or(0),
        slash(E8_BANKS.map(|b| b as f64), 0),
        slash(E8_BANKS.map(|b| (hw(b).total_sram_bytes() / 1024) as f64), 0),
        slash(runs.iter().map(|r| r.dram_bytes as f64 / 1e6), 1),
        slash(runs.iter().map(|r| r.fps), 1),
        layerwise.dram_bytes as f64 / 1e6
    );
    let mut row = check(
        "chaining saturates around 10 banks (Fig. 7)",
        sweep,
        at == Some(10),
    );
    if at == Some(10) {
        row.status = Status::HoldsByConstruction(BANKS);
    }
    vec![row]
}

/// Table I (UVG-like PSNR BD-rate against the H.265-like anchor, the
/// numbers the paper publishes), the Fig. 8 orderings and E6's quality
/// claim. BD fits use each curve's non-dominated points only.
pub fn rd_rows(sweeps: &RdSweeps) -> Vec<Row> {
    use LadderCodec::{AvcLike, CtvcFp, DvcLike, FvcLike, HevcLike};
    const UNTRAINED: &str =
        "analytic (untrained) weights keep learned PSNR below the anchor's non-dominated points";
    const COARSE: &str = "the ladder's coarse QPs favour AVC-like's larger partitions; \
        at QP 40–22 it loses (tests/end_to_end.rs)";
    const CAPPED: &str =
        "analytic (untrained) weights cap learned PSNR far below the classical profiles'";
    const ATTENTION: &str = "analytic attention weights add no quality over the ablation";
    let bd = |d, codec| bd_rate(&sweeps.front(d, HevcLike), &sweeps.front(d, codec)).ok();
    let bdp = |d, anchor| bd_psnr(&sweeps.front(d, anchor), &sweeps.front(d, CtvcFp)).ok();
    let show = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:+.2}"));
    let above = |v: Option<f64>| v.is_some_and(|v| v > 0.0);
    let published = [35.27, 8.45, -28.71, -36.62, -35.91, -35.19];
    let learned = LadderCodec::ALL.into_iter().filter(|&c| c != HevcLike);
    let mut table1: Vec<Row> = learned
        .zip(published)
        .map(|(c, paper)| {
            let row = num(
                &format!("{} BD-rate, UVG PSNR, %", c.label()),
                paper,
                bd(0, c),
            );
            row.because(if c == AvcLike { COARSE } else { UNTRAINED })
        })
        .collect();
    let names: Vec<&str> = sweeps.datasets.iter().map(|(n, _)| *n).collect();
    let avc: Vec<Option<f64>> = (0..names.len()).map(|d| bd(d, AvcLike)).collect();
    let shown: Vec<String> = names
        .iter()
        .zip(&avc)
        .map(|(n, v)| format!("{n} {}", show(*v)))
        .collect();
    let gap = avc.iter().all(|v| above(*v));
    let item = "H.264-like costs more than the anchor everywhere";
    table1.push(check(item, shown.join(", "), gap).because(COARSE));
    let [dvc, fvc, ctvc] = [DvcLike, FvcLike, CtvcFp].map(|c| bd(0, c));
    let ordered = matches!((dvc, fvc, ctvc), (Some(d), Some(f), Some(c)) if d > f && f > c);
    let ladder = format!("{} / {} / {} %", show(dvc), show(fvc), show(ctvc));
    table1.push(check("DVC > FVC > CTVC (UVG)", ladder, ordered).because(UNTRAINED));

    // Fig. 8 shows UVG and HEVC Class B; BD-PSNR of CTVC-Net(FP).
    let mut fig8 = Vec::new();
    for (d, name) in names.iter().enumerate().take(2) {
        let [hevc, avc, fvc] = [HevcLike, AvcLike, FvcLike].map(|a| bdp(d, a));
        let vs = format!(
            "{} dB vs H.265-like, {} dB vs H.264-like",
            show(hevc),
            show(avc)
        );
        let item = format!("CTVC-Net above the classical profiles ({name})");
        fig8.push(check(&item, vs, above(hevc) && above(avc)).because(CAPPED));
        let item = format!("attention above attention-free, FVC-like ({name})");
        fig8.push(check(&item, format!("{} dB", show(fvc)), above(fvc)).because(ATTENTION));
    }

    let psnr: Vec<f64> = sweeps.rho.iter().map(|s| s.psnr).collect();
    let sweep = format!(
        "ρ {} %: PSNR {} dB, bpp {}",
        slash(E6_RHO.map(|r| r * 100.0), 1),
        slash(psnr.iter().copied(), 2),
        slash(sweeps.rho.iter().map(|s| s.bpp), 4)
    );
    let graceful = psnr[0] - psnr[2] < psnr[2] - psnr[4];
    let e6 = check(
        "quality degrades gracefully to ρ = 50 %, then faster",
        sweep,
        graceful,
    );
    let mut rows = group("Table I", Source::Rd, table1);
    rows.extend(group("Fig. 8", Source::Rd, fig8));
    rows.extend(group("E6", Source::Rd, vec![e6]));
    rows
}

/// Host-timed rows: this machine decodes `ctvc_fp(BENCH_N)` on a short
/// clip through the streaming session; `nvca_ms` is the simulated 1080p
/// frame time.
pub fn host_rows(nvca_ms: f64) -> Vec<Row> {
    const HOST: &str = "N = 12 at 96×64 on this host, extrapolated; the paper ran N = 36";
    let ((h, w), frames) = ((BENCH_H, BENCH_W), 4);
    let seq = Synthesizer::new(SceneConfig::uvg_like(w, h, frames)).generate();
    let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(BENCH_N)).expect("valid config");
    let coded = encode_sequence(&codec, &seq, RatePoint::new(1)).expect("encode");
    let packets: Vec<Vec<u8>> = coded.packets.iter().map(|p| p.to_bytes()).collect();
    let t0 = std::time::Instant::now();
    let mut dec = codec.start_decode();
    for p in &packets {
        dec.push_packet(p).expect("decode packet");
    }
    let secs = t0.elapsed().as_secs_f64();
    // Frame 0 is intra (frame reconstruction only), and a P frame skips
    // feature extraction: the decoder keeps the previous features.
    let p_frame = codec.decoder_workload(h, w);
    let p_layers = p_frame
        .layers()
        .iter()
        .filter(|l| l.module != "feature_extraction");
    let p_macs: u64 = p_layers.map(|l| l.op.macs()).sum();
    let macs = codec.intra_workload(h, w).total_macs() + (frames as u64 - 1) * p_macs;
    let gops = 2.0 * macs as f64 / secs / 1e9;
    let ms = secs * 1e3 / frames as f64 * (H * W) as f64 / (w * h) as f64;
    let cited = cpu_i9_9900x().throughput_gops;
    let local = num("CPU (local) GOPS", cited, gops).because(HOST);
    let speedup = num("NVCA over CTVC-Net on the CPU, ×", 11.1, ms / nvca_ms);
    let speedup = speedup.because(HOST).with(format!("CPU {ms:.1} ms/frame"));
    let mut rows = group("Table II", Source::Host, vec![local]);
    rows.extend(group("Fig. 9(a)", Source::Host, vec![speedup]));
    rows
}

/// The whole report, in section order.
pub fn report(sweeps: &RdSweeps) -> Vec<Row> {
    let (mut rows, nvca_ms) = sim_rows_and_frame_ms();
    rows.extend(rd_rows(sweeps));
    rows.extend(host_rows(nvca_ms));
    rows.sort_by_key(|r| SECTIONS.iter().position(|&s| s == r.section));
    rows
}

/// First line of README's generated block.
pub const BEGIN: &str = "<!-- paper report: begin -->";
/// Last line of README's generated block.
pub const END: &str = "<!-- paper report: end -->";

/// The rows as README's block: a Markdown table between [`BEGIN`] and
/// [`END`].
pub fn render(rows: &[Row]) -> String {
    let mut out = format!("{BEGIN}\n| item | paper | this repo | ratio | status | source |\n");
    out += "|---|---|---|---|---|---|\n";
    for row in rows {
        out += &format!("| {} |\n", row.cells().join(" | "));
    }
    out + END
}

/// README.md at the workspace root.
///
/// # Panics
///
/// Panics if the file cannot be read.
pub fn readme() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    std::fs::read_to_string(path).expect("README.md at the workspace root")
}

/// Differences between `rows` and README's block, one message per row:
/// a sim row must match in every cell, an RD row in its item, paper
/// value and status, a host-timed row in its item and paper value.
/// README rows of a source absent from `rows` are skipped, so the sim
/// rows alone can be compared.
pub fn drift(readme: &str, rows: &[Row]) -> Vec<String> {
    let got: Vec<[String; 6]> = rows.iter().map(Row::cells).collect();
    let want: Vec<Vec<&str>> = readme
        .lines()
        .skip_while(|l| l.trim() != BEGIN)
        .skip(3) // the marker, the header and the rule
        .take_while(|l| l.trim() != END)
        .map(|l| {
            l.trim()
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect()
        })
        .filter(|cells: &Vec<&str>| got.iter().any(|g| cells.get(5) == Some(&g[5].as_str())))
        .collect();
    let mut out = Vec::new();
    if want.len() != got.len() {
        out.push(format!(
            "README has {} such rows, the report {}",
            want.len(),
            got.len()
        ));
    }
    for ((want, got), row) in want.iter().zip(&got).zip(rows) {
        let compared: &[usize] = match row.source {
            Source::Sim => &[0, 1, 2, 3, 4, 5],
            Source::Rd => &[0, 1, 4, 5],
            Source::Host => &[0, 1, 5],
        };
        if compared
            .iter()
            .any(|&i| want.get(i) != Some(&got[i].as_str()))
        {
            out.push(format!(
                "README: | {} |\nreport: | {} |",
                want.join(" | "),
                got.join(" | ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// README's block pins every simulator number of the report.
    #[test]
    fn sim_rows_match_readme() {
        let drift = drift(&readme(), &sim_rows());
        assert!(drift.is_empty(), "{}", drift.join("\n"));
    }

    #[test]
    fn statuses_follow_the_tolerance_and_drift_compares_by_source() {
        let status = |ours: Option<f64>| num("x", 10.0, ours).because("c").status;
        assert_eq!(status(Some(12.4)), Status::Holds);
        assert_eq!(status(Some(8.1)), Status::Holds);
        assert_eq!(status(Some(13.0)), Status::Gap("c"));
        assert_eq!(status(Some(-10.0)), Status::DoesNotReproduce("c"));
        assert_eq!(status(None), Status::DoesNotReproduce("c"));

        let row = |source, ours| group("E7", source, vec![num("x", 10.0, ours)]);
        let rows = |sim, rd| [row(Source::Sim, sim), row(Source::Rd, rd)].concat();
        let readme = render(&rows(10.0, 10.0));
        assert!(drift(&readme, &rows(10.0, 10.0)).is_empty());
        // An RD value may move; its status may not.
        assert!(drift(&readme, &rows(10.0, 11.0)).is_empty());
        assert_eq!(drift(&readme, &rows(10.0, 20.0)).len(), 1);
        // A sim value may not move at all; a sim-only set skips RD rows.
        assert_eq!(drift(&readme, &row(Source::Sim, 10.1)).len(), 1);
        assert!(drift(&readme, &row(Source::Sim, 10.0)).is_empty());
    }
}
