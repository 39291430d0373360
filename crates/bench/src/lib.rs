//! Benchmark harnesses. [`paper`] holds every published number of the
//! paper beside this repository's; the `paper` binary prints it and
//! checks it against README's "Reproducing the paper". The other
//! binaries are the hot-path and serving benchmarks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `[0, 1]`); `0.0` for an empty slice. `flashcrowd` reports its
/// latencies with it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::paper::*;
    use super::*;
    use nvc_video::synthetic::{SceneConfig, Synthesizer};

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
        // The anchor's QP 58 point costs more than QP 52 for less PSNR,
        // and the last point falls back: both are dominated.
        let curve = [(0.21, 23.9), (0.20, 28.8), (0.22, 32.1), (0.7, 32.0)];
        assert_eq!(frontier(&curve), (vec![(0.20, 28.8), (0.22, 32.1)], 2));
    }
}
