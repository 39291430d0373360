//! Bjøntegaard delta metrics — the BDBR(%) of the paper's Table I.
//!
//! Given two rate–distortion curves (rate in bits per pixel, distortion in
//! dB PSNR or MS-SSIM), [`bd_rate`] fits a cubic polynomial to
//! `log(rate)` as a function of distortion for each curve, integrates both
//! over the overlapping distortion interval, and reports the average rate
//! difference in percent. Negative values mean the test codec saves rate
//! at equal quality.

use crate::frame::VideoError;

/// One rate–distortion sample: `(rate, distortion)`. Rate must be
/// positive; distortion is typically PSNR in dB or `-10·log10(1−MS-SSIM)`.
pub type RdPoint = (f64, f64);

/// Least-squares polynomial fit of degree `deg` for `y(x)`; returns
/// coefficients `c[0] + c[1]·x + …`.
fn polyfit(xs: &[f64], ys: &[f64], deg: usize) -> Vec<f64> {
    let n = deg + 1;
    // Normal equations: (VᵀV) c = Vᵀ y, V Vandermonde.
    let mut ata = vec![vec![0.0_f64; n]; n];
    let mut aty = vec![0.0_f64; n];
    for (&x, &y) in xs.iter().zip(ys) {
        let mut powers = vec![1.0_f64; n];
        for i in 1..n {
            powers[i] = powers[i - 1] * x;
        }
        for i in 0..n {
            aty[i] += powers[i] * y;
            for j in 0..n {
                ata[i][j] += powers[i] * powers[j];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut m = ata;
    let mut b = aty;
    for col in 0..n {
        let mut pivot = col;
        for row in col + 1..n {
            if m[row][col].abs() > m[pivot][col].abs() {
                pivot = row;
            }
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        let diag = m[col][col];
        if diag.abs() < 1e-12 {
            continue; // singular: degenerate fit, coefficient stays 0
        }
        let pivot_row = m[col].clone();
        for row in 0..n {
            if row == col {
                continue;
            }
            let f = m[row][col] / diag;
            for (mk, pk) in m[row].iter_mut().zip(&pivot_row) {
                *mk -= f * pk;
            }
            b[row] -= f * b[col];
        }
    }
    (0..n)
        .map(|i| {
            if m[i][i].abs() < 1e-12 {
                0.0
            } else {
                b[i] / m[i][i]
            }
        })
        .collect()
}

/// Definite integral of the polynomial with coefficients `c` over
/// `[lo, hi]`.
fn polyint(c: &[f64], lo: f64, hi: f64) -> f64 {
    let eval_antideriv = |x: f64| -> f64 {
        c.iter()
            .enumerate()
            .map(|(i, &ci)| ci * x.powi(i as i32 + 1) / (i as f64 + 1.0))
            .sum()
    };
    eval_antideriv(hi) - eval_antideriv(lo)
}

fn validate(curve: &[RdPoint]) -> Result<(), VideoError> {
    if curve.len() < 3 {
        return Err(VideoError::BadDimensions {
            reason: format!("need >= 3 RD points, got {}", curve.len()),
        });
    }
    for &(r, d) in curve {
        if !(r.is_finite() && r > 0.0 && d.is_finite()) {
            return Err(VideoError::BadDimensions {
                reason: format!("invalid RD point ({r}, {d})"),
            });
        }
    }
    // A cubic through a curve that folds back (more rate for less
    // quality) is not a rate–distortion curve: its integral is
    // meaningless, and it is where fits blow up to 1e25 %.
    let mut by_rate = curve.to_vec();
    by_rate.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some(w) = by_rate.windows(2).find(|w| w[1].1 <= w[0].1) {
        return Err(VideoError::BadDimensions {
            reason: format!(
                "distortion does not increase with rate: ({}, {}) then ({}, {})",
                w[0].0, w[0].1, w[1].0, w[1].1
            ),
        });
    }
    Ok(())
}

/// Bjøntegaard delta rate of `test` against `anchor`, in percent.
///
/// Negative values mean `test` needs less rate than `anchor` at the same
/// distortion (i.e. `test` is better).
///
/// Precondition: each curve, sorted by rate, is strictly increasing in
/// distortion. Drop dominated points (ones another point beats on both
/// rate and distortion) before calling.
///
/// # Errors
///
/// Returns [`VideoError::BadDimensions`] if either curve has fewer than 3
/// points, non-positive rates, breaks the precondition above, or the
/// distortion ranges do not overlap.
pub fn bd_rate(anchor: &[RdPoint], test: &[RdPoint]) -> Result<f64, VideoError> {
    // Fit log rate as a function of distortion.
    let flip = |c: &[RdPoint]| c.iter().map(|&(r, d)| (d, r.ln())).collect::<Vec<_>>();
    let avg_diff = mean_gap(anchor, test, flip, "distortion")?;
    Ok((avg_diff.exp() - 1.0) * 100.0)
}

/// Bjøntegaard delta PSNR of `test` against `anchor`, in dB: the average
/// distortion gain at equal rate. Positive values mean `test` is better.
///
/// # Errors
///
/// Same conditions as [`bd_rate`], with rate ranges instead of distortion
/// ranges overlapping.
pub fn bd_psnr(anchor: &[RdPoint], test: &[RdPoint]) -> Result<f64, VideoError> {
    // Fit distortion as a function of log rate.
    let log_rate = |c: &[RdPoint]| c.iter().map(|&(r, d)| (r.ln(), d)).collect::<Vec<_>>();
    mean_gap(anchor, test, log_rate, "rate")
}

/// Validates both curves, maps them to `(x, y)` with `to_xy`, fits a
/// polynomial `y(x)` to each and returns the mean of `test − anchor` over
/// the overlap of their `x` ranges (named `axis` in the error).
fn mean_gap(
    anchor: &[RdPoint],
    test: &[RdPoint],
    to_xy: impl Fn(&[RdPoint]) -> Vec<(f64, f64)>,
    axis: &str,
) -> Result<f64, VideoError> {
    validate(anchor)?;
    validate(test)?;
    let (xa, ya): (Vec<f64>, Vec<f64>) = to_xy(anchor).into_iter().unzip();
    let (xt, yt): (Vec<f64>, Vec<f64>) = to_xy(test).into_iter().unzip();
    let lo = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (x_min, x_max) = (lo(&xa).max(lo(&xt)), hi(&xa).min(hi(&xt)));
    if x_max - x_min < 1e-9 {
        return Err(VideoError::BadDimensions {
            reason: format!("{axis} ranges do not overlap: [{x_min}, {x_max}]"),
        });
    }
    let deg = 3.min(anchor.len() - 1).min(test.len() - 1);
    let ca = polyfit(&xa, &ya, deg);
    let ct = polyfit(&xt, &yt, deg);
    Ok((polyint(&ct, x_min, x_max) - polyint(&ca, x_min, x_max)) / (x_max - x_min))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f64)]) -> Vec<RdPoint> {
        points.to_vec()
    }

    #[test]
    fn identical_curves_give_zero() {
        let c = curve(&[(0.05, 32.0), (0.1, 35.0), (0.2, 38.0), (0.4, 41.0)]);
        let bd = bd_rate(&c, &c).unwrap();
        assert!(bd.abs() < 1e-9, "{bd}");
        let bp = bd_psnr(&c, &c).unwrap();
        assert!(bp.abs() < 1e-9);
    }

    #[test]
    fn uniform_rate_scaling_is_recovered() {
        let anchor = curve(&[(0.05, 32.0), (0.1, 35.0), (0.2, 38.0), (0.4, 41.0)]);
        // Test codec uses 20% less rate at every quality.
        let test: Vec<RdPoint> = anchor.iter().map(|&(r, d)| (r * 0.8, d)).collect();
        let bd = bd_rate(&anchor, &test).unwrap();
        assert!((bd + 20.0).abs() < 0.5, "expected ≈ -20%, got {bd}");
        // And the reverse comparison: +25%.
        let bd_rev = bd_rate(&test, &anchor).unwrap();
        assert!((bd_rev - 25.0).abs() < 0.7, "expected ≈ +25%, got {bd_rev}");
    }

    #[test]
    fn bd_psnr_detects_quality_offset() {
        let anchor = curve(&[(0.05, 32.0), (0.1, 35.0), (0.2, 38.0), (0.4, 41.0)]);
        let test: Vec<RdPoint> = anchor.iter().map(|&(r, d)| (r, d + 1.5)).collect();
        let bp = bd_psnr(&anchor, &test).unwrap();
        assert!((bp - 1.5).abs() < 0.01, "{bp}");
    }

    #[test]
    fn validation_errors() {
        let short = curve(&[(0.1, 30.0), (0.2, 33.0)]);
        let ok = curve(&[(0.05, 32.0), (0.1, 35.0), (0.2, 38.0)]);
        assert!(bd_rate(&short, &ok).is_err());
        let bad_rate = curve(&[(0.0, 30.0), (0.1, 33.0), (0.2, 36.0)]);
        assert!(bd_rate(&bad_rate, &ok).is_err());
        let disjoint = curve(&[(0.05, 10.0), (0.1, 12.0), (0.2, 14.0)]);
        assert!(bd_rate(&disjoint, &ok).is_err());
    }

    #[test]
    fn curves_that_fold_back_are_rejected() {
        // Fig. 8's UVG-like points (96×64×16): the anchor's QP 58 point
        // costs more than QP 52 for 4.9 dB less, and both learned curves
        // lose 0.02–0.03 dB at their last point. Fitted anyway, these
        // gave +5.23e25 % and +253.9 %.
        let anchor = curve(&[
            (0.2087, 23.92),
            (0.2000, 28.79),
            (0.2227, 32.11),
            (0.2765, 35.51),
            (0.3928, 39.10),
            (0.6283, 42.67),
        ]);
        let ctvc_fp = curve(&[
            (0.4201, 26.19),
            (0.4878, 27.10),
            (0.5864, 28.04),
            (0.7367, 28.01),
        ]);
        let fvc = curve(&[
            (0.4265, 26.32),
            (0.4921, 27.25),
            (0.5905, 28.37),
            (0.7400, 28.35),
        ]);
        assert!(bd_rate(&anchor, &ctvc_fp).is_err());
        assert!(bd_rate(&anchor, &fvc).is_err());
        // The test curve alone breaks the precondition, too.
        assert!(bd_rate(&ctvc_fp[..3], &fvc).is_err());
        assert!(bd_rate(&anchor[1..], &anchor[1..]).is_ok());
    }

    #[test]
    fn three_point_curves_use_quadratic_fit() {
        let anchor = curve(&[(0.1, 33.0), (0.2, 36.0), (0.4, 39.0)]);
        let test: Vec<RdPoint> = anchor.iter().map(|&(r, d)| (r * 0.9, d)).collect();
        let bd = bd_rate(&anchor, &test).unwrap();
        assert!((bd + 10.0).abs() < 0.5, "{bd}");
    }

    #[test]
    fn polyfit_recovers_exact_polynomial() {
        // y = 2 - x + 0.5 x² on 6 points.
        let xs: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 - x + 0.5 * x * x).collect();
        let c = polyfit(&xs, &ys, 2);
        assert!((c[0] - 2.0).abs() < 1e-8);
        assert!((c[1] + 1.0).abs() < 1e-8);
        assert!((c[2] - 0.5).abs() < 1e-8);
    }
}
