//! Benchmark harnesses. [`paper`] holds every published number of the
//! paper beside this repository's; the `paper` binary prints it and
//! checks it against README's "Reproducing the paper". The other
//! binaries are the hot-path and serving benchmarks, whose timing gates
//! read the median of [`interleaved_rounds`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `[0, 1]`); `0.0` for an empty slice. `flashcrowd` reports its
/// latencies with it, `fanout` its gate's quartiles.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// `rounds` A/B measurements, interleaved: round `i` runs `a(i)` then
/// `b(i)` when `i` is even and `b(i)` then `a(i)` when it is odd, so
/// neither side always goes first. Returns each round's `(a, b)`.
///
/// A timing gate reads the [`median`] of the per-round ratios, so a
/// burst of host noise perturbs one ratio instead of deciding the gate.
pub fn interleaved_rounds<A, B>(
    rounds: usize,
    mut a: impl FnMut(usize) -> A,
    mut b: impl FnMut(usize) -> B,
) -> Vec<(A, B)> {
    (0..rounds)
        .map(|i| {
            if i % 2 == 0 {
                let first = a(i);
                (first, b(i))
            } else {
                let first = b(i);
                (a(i), first)
            }
        })
        .collect()
}

/// The median of `values` (the upper middle one of an even count); NaN
/// for an empty slice.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(f64::NAN)
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
    fn rounds_alternate_which_side_goes_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let rounds = interleaved_rounds(
            3,
            |i| order.borrow_mut().push(('a', i)),
            |i| order.borrow_mut().push(('b', i)),
        );
        assert_eq!(rounds.len(), 3);
        let want = [('a', 0), ('b', 0), ('b', 1), ('a', 1), ('a', 2), ('b', 2)];
        assert_eq!(order.into_inner(), want);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            median([4.0, 1.0, 3.0, 2.0]),
            3.0,
            "upper middle of an even count"
        );
        assert!(median([]).is_nan());
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
