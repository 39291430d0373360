//! Shared harness utilities for regenerating every table and figure of
//! the paper. Each `src/bin/*.rs` binary prints one table/figure; the
//! README's "Reproducing the paper" section lists them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use nvc_baseline::{HybridCodec, Profile};
use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
use nvc_video::bdrate::{ms_ssim_db, RdPoint};
use nvc_video::metrics::{ms_ssim_sequence, psnr_sequence};
use nvc_video::synthetic::SceneConfig;
use nvc_video::Sequence;

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

    /// All ladder codecs in Table I row order.
    pub fn all() -> [LadderCodec; 7] {
        [
            LadderCodec::AvcLike,
            LadderCodec::DvcLike,
            LadderCodec::HevcLike,
            LadderCodec::FvcLike,
            LadderCodec::CtvcFp,
            LadderCodec::CtvcFxp,
            LadderCodec::CtvcSparse,
        ]
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
    vec![
        (
            "UVG-like",
            SceneConfig::uvg_like(BENCH_W, BENCH_H, BENCH_FRAMES),
        ),
        (
            "HEVC-B-like",
            SceneConfig::hevc_b_like(BENCH_W, BENCH_H, BENCH_FRAMES),
        ),
        (
            "MCL-JCV-like",
            SceneConfig::mcl_jcv_like(BENCH_W, BENCH_H, BENCH_FRAMES),
        ),
    ]
}

fn measure(seq: &Sequence, rec: &Sequence, bpp: f64) -> RdSample {
    let pairs: Vec<_> = seq.frames().iter().zip(rec.frames()).collect();
    let pairs: Vec<_> = pairs.iter().map(|(a, b)| (*a, *b)).collect();
    RdSample {
        bpp,
        psnr: psnr_sequence(&pairs).expect("matched sequences"),
        ms_ssim: ms_ssim_sequence(&pairs).expect("matched sequences"),
    }
}

/// Runs a full RD sweep (4 rate points) for one codec on one sequence.
///
/// # Panics
///
/// Panics if encoding fails (the harness treats that as a bug).
pub fn rd_sweep(codec: LadderCodec, seq: &Sequence) -> Vec<RdSample> {
    match codec {
        LadderCodec::AvcLike | LadderCodec::HevcLike => {
            let profile = if codec == LadderCodec::AvcLike {
                Profile::avc_like()
            } else {
                Profile::hevc_like()
            };
            let hc = HybridCodec::new(profile);
            // Six points spanning ultra-coarse to moderate quality so the
            // anchor curve overlaps the learned codecs' distortion range.
            [58u8, 52, 46, 40, 34, 28]
                .iter()
                .map(|&qp| {
                    let coded = hc.encode(seq, qp).expect("hybrid encode");
                    measure(seq, &coded.decoded, coded.bpp)
                })
                .collect()
        }
        learned => {
            let cfg = match learned {
                LadderCodec::DvcLike => CtvcConfig::dvc_like(BENCH_N),
                LadderCodec::FvcLike => CtvcConfig::fvc_like(BENCH_N),
                LadderCodec::CtvcFp => CtvcConfig::ctvc_fp(BENCH_N),
                LadderCodec::CtvcFxp => CtvcConfig::ctvc_fxp(BENCH_N),
                LadderCodec::CtvcSparse => CtvcConfig::ctvc_sparse(BENCH_N),
                _ => unreachable!(),
            };
            let cc = CtvcCodec::new(cfg).expect("valid config");
            RatePoint::sweep()
                .iter()
                .map(|&r| {
                    let coded = cc.encode(seq, r).expect("ctvc encode");
                    measure(seq, &coded.decoded, coded.bpp)
                })
                .collect()
        }
    }
}

/// Converts samples to `(rate, PSNR-dB)` points for BD-rate.
pub fn psnr_curve(samples: &[RdSample]) -> Vec<RdPoint> {
    samples.iter().map(|s| (s.bpp, s.psnr)).collect()
}

/// Converts samples to `(rate, MS-SSIM-dB)` points for BD-rate.
pub fn msssim_curve(samples: &[RdSample]) -> Vec<RdPoint> {
    samples
        .iter()
        .map(|s| (s.bpp, ms_ssim_db(s.ms_ssim)))
        .collect()
}

/// Formats a BD-rate value (or n/a when curves do not overlap).
pub fn fmt_bd(bd: Result<f64, nvc_video::VideoError>) -> String {
    match bd {
        Ok(v) => format!("{v:+8.2}"),
        Err(_) => "     n/a".to_string(),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `[0, 1]`); `0.0` for an empty slice. Shared by the latency-reporting
/// load harnesses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_video::synthetic::Synthesizer;

    #[test]
    fn rd_sweep_produces_monotone_rates_for_anchor() {
        let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 2)).generate();
        let samples = rd_sweep(LadderCodec::HevcLike, &seq);
        assert_eq!(samples.len(), 6);
        for w in samples.windows(2) {
            assert!(w[1].bpp > w[0].bpp, "rate must increase with finer QP");
            assert!(w[1].psnr > w[0].psnr, "quality must increase with finer QP");
        }
    }

    #[test]
    fn dataset_presets_are_three() {
        assert_eq!(dataset_presets().len(), 3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 1.0), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 5.0, "0.9 of 4 rounds to rank 4");
    }

    #[test]
    fn curves_convert() {
        let s = [RdSample {
            bpp: 0.1,
            psnr: 30.0,
            ms_ssim: 0.95,
        }];
        assert_eq!(psnr_curve(&s)[0], (0.1, 30.0));
        assert!(msssim_curve(&s)[0].1 > 12.0);
    }
}
