//! Single-channel image plane with the sampling helpers a block codec
//! needs (clamped access, half-pel interpolation), and the edge-padded
//! copy the motion search reads.

/// A `w × h` plane of `f32` samples in display order.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    w: usize,
    h: usize,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero plane.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "plane must be non-empty");
        Plane {
            w,
            h,
            data: vec![0.0; w * h],
        }
    }

    /// Creates a plane from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != w * h`.
    pub fn from_vec(w: usize, h: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), w * h, "buffer length mismatch");
        Plane { w, h, data }
    }

    /// Plane width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Plane height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Row-major sample buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major sample buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sample at `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn at(&self, y: usize, x: usize) -> f32 {
        self.data[y * self.w + x]
    }

    /// Mutable sample at `(y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn at_mut(&mut self, y: usize, x: usize) -> &mut f32 {
        &mut self.data[y * self.w + x]
    }

    /// Clamp-to-edge sample at signed coordinates.
    #[inline]
    pub fn at_clamped(&self, y: isize, x: isize) -> f32 {
        let y = y.clamp(0, self.h as isize - 1) as usize;
        let x = x.clamp(0, self.w as isize - 1) as usize;
        self.at(y, x)
    }

    /// Sample at half-pel precision: coordinates are in half-pel units
    /// (`2·y` = integer row `y`); odd coordinates bilinearly interpolate.
    pub fn at_half_pel(&self, y2: isize, x2: isize) -> f32 {
        let (iy, fy) = (y2.div_euclid(2), y2.rem_euclid(2));
        let (ix, fx) = (x2.div_euclid(2), x2.rem_euclid(2));
        match (fy, fx) {
            (0, 0) => self.at_clamped(iy, ix),
            (0, 1) => 0.5 * (self.at_clamped(iy, ix) + self.at_clamped(iy, ix + 1)),
            (1, 0) => 0.5 * (self.at_clamped(iy, ix) + self.at_clamped(iy + 1, ix)),
            _ => {
                0.25 * (self.at_clamped(iy, ix)
                    + self.at_clamped(iy, ix + 1)
                    + self.at_clamped(iy + 1, ix)
                    + self.at_clamped(iy + 1, ix + 1))
            }
        }
    }

    /// Sum of absolute differences between a `bs × bs` block at `(y, x)`
    /// in `self` and the block at half-pel position `(ry2, rx2)` in
    /// `reference`, sample by sample through [`Plane::at_half_pel`]: the
    /// scalar reference the motion search's tests hold
    /// [`PaddedPlane::add_row_sad`] to.
    #[cfg(test)]
    pub(crate) fn sad(
        &self,
        y: usize,
        x: usize,
        bs: usize,
        reference: &Plane,
        ry2: isize,
        rx2: isize,
    ) -> f64 {
        let mut acc = 0.0_f64;
        for by in 0..bs {
            for bx in 0..bs {
                let cur = self.at_clamped((y + by) as isize, (x + bx) as isize);
                let r = reference.at_half_pel(ry2 + 2 * by as isize, rx2 + 2 * bx as isize);
                acc += (cur - r).abs() as f64;
            }
        }
        acc
    }
}

/// How many horizontally adjacent full-pel candidates
/// [`PaddedPlane::add_row_sad_lanes`] sums at once.
pub(crate) const LANES: usize = 8;

/// A [`Plane`] edge-replicated by `pad` samples on every side, so that a
/// block search reads whole, contiguous row slices. Every sample within
/// the margin equals [`Plane::at_clamped`] at the same coordinates.
#[derive(Debug)]
pub(crate) struct PaddedPlane {
    data: Vec<f32>,
    stride: usize,
    pad: usize,
}

impl PaddedPlane {
    pub(crate) fn new(plane: &Plane, pad: usize) -> Self {
        let (w, h) = (plane.w, plane.h);
        let stride = w + 2 * pad;
        let mut data = Vec::with_capacity(stride * (h + 2 * pad));
        for y in 0..h + 2 * pad {
            let row = &plane.data[y.saturating_sub(pad).min(h - 1) * w..][..w];
            data.extend(std::iter::repeat_n(row[0], pad));
            data.extend_from_slice(row);
            data.extend(std::iter::repeat_n(row[w - 1], pad));
        }
        PaddedPlane { data, stride, pad }
    }

    /// The `len` samples of row `y` from column `x`, in plane
    /// coordinates that may lie up to `pad` outside the plane.
    fn row(&self, y: isize, x: isize, len: usize) -> &[f32] {
        let at = (y + self.pad as isize) as usize * self.stride + (x + self.pad as isize) as usize;
        &self.data[at..at + len]
    }

    /// `acc` plus `|c − r| as f64` for each sample `c` of `cur`, in order,
    /// where `r` is this plane at half-pel position `(y2, x2 + 2i)` for
    /// `cur[i]`. `r` is [`Plane::at_half_pel`]'s expression for the
    /// position's parity, term for term, so the sum is bit-identical to
    /// [`Plane::sad`]'s over the same samples.
    pub(crate) fn add_row_sad(&self, mut acc: f64, cur: &[f32], y2: isize, x2: isize) -> f64 {
        let (iy, fy) = (y2.div_euclid(2), y2.rem_euclid(2));
        let (ix, fx) = (x2.div_euclid(2), x2.rem_euclid(2));
        let n = cur.len();
        match (fy, fx) {
            (0, 0) => {
                for (&c, &r) in cur.iter().zip(self.row(iy, ix, n)) {
                    acc += (c - r).abs() as f64;
                }
            }
            (0, _) => {
                let r0 = self.row(iy, ix, n + 1);
                for (&c, r) in cur.iter().zip(r0.windows(2)) {
                    acc += (c - 0.5 * (r[0] + r[1])).abs() as f64;
                }
            }
            (_, 0) => {
                let (r0, r1) = (self.row(iy, ix, n), self.row(iy + 1, ix, n));
                for ((&c, &a), &b) in cur.iter().zip(r0).zip(r1) {
                    acc += (c - 0.5 * (a + b)).abs() as f64;
                }
            }
            _ => {
                let (r0, r1) = (self.row(iy, ix, n + 1), self.row(iy + 1, ix, n + 1));
                for ((&c, a), b) in cur.iter().zip(r0.windows(2)).zip(r1.windows(2)) {
                    acc += (c - 0.25 * (a[0] + a[1] + b[0] + b[1])).abs() as f64;
                }
            }
        }
        acc
    }

    /// [`PaddedPlane::add_row_sad`] at the `LANES` horizontally adjacent
    /// full-pel positions `(y, x + l)`, lane `l` into `acc[l]`: one row of
    /// `cur` against one slice of `cur.len() + LANES − 1` samples. Each
    /// lane adds the same `|c − r| as f64` terms in the same order as
    /// `add_row_sad(acc[l], cur, 2y, 2(x + l))`, so its bits are the same;
    /// the lanes are independent chains, free to run side by side.
    pub(crate) fn add_row_sad_lanes(
        &self,
        acc: &mut [f64; LANES],
        cur: &[f32],
        y: isize,
        x: isize,
    ) {
        let r = self.row(y, x, cur.len() + LANES - 1);
        for (i, &c) in cur.iter().enumerate() {
            let window: &[f32; LANES] = r[i..i + LANES].try_into().expect("LANES samples");
            for (a, &r) in acc.iter_mut().zip(window) {
                *a += (c - r).abs() as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Plane {
        let data = (0..w * h).map(|i| i as f32).collect();
        Plane::from_vec(w, h, data)
    }

    #[test]
    fn clamped_access() {
        let p = ramp(4, 3);
        assert_eq!(p.at_clamped(-5, 0), 0.0);
        assert_eq!(p.at_clamped(0, 10), 3.0);
        assert_eq!(p.at_clamped(10, 10), 11.0);
    }

    #[test]
    fn half_pel_interpolates() {
        let p = ramp(4, 4);
        // Between columns 0 and 1 of row 0: (0 + 1)/2.
        assert_eq!(p.at_half_pel(0, 1), 0.5);
        // Between rows 0 and 1 of column 0: (0 + 4)/2.
        assert_eq!(p.at_half_pel(1, 0), 2.0);
        // Centre of 2x2: (0+1+4+5)/4.
        assert_eq!(p.at_half_pel(1, 1), 2.5);
        // Integer positions are exact.
        assert_eq!(p.at_half_pel(4, 6), p.at(2, 3));
    }

    #[test]
    fn sad_zero_on_identical() {
        let p = ramp(8, 8);
        assert_eq!(p.sad(0, 0, 4, &p, 0, 0), 0.0);
        // Shift by one column: |Δ| = 1 per sample.
        let sad = p.sad(0, 0, 4, &p, 0, 2);
        assert_eq!(sad, 16.0);
    }

    #[test]
    fn padding_replicates_the_edges() {
        let p = ramp(5, 3);
        let padded = PaddedPlane::new(&p, 4);
        for y in -4..7_isize {
            let row = padded.row(y, -4, 13);
            for (x, &v) in (-4..9_isize).zip(row) {
                assert_eq!(v, p.at_clamped(y, x), "({y}, {x})");
            }
        }
    }

    #[test]
    fn padded_row_sad_matches_the_scalar_sad_at_every_parity() {
        let p = Plane::from_vec(6, 5, (0..30).map(|i| ((i * 7) % 11) as f32 * 0.3).collect());
        let cur = ramp(6, 5);
        let padded = PaddedPlane::new(&p, 3);
        for ry2 in -7..6_isize {
            for rx2 in -7..6_isize {
                let want = cur.sad(1, 2, 3, &p, ry2 + 2, rx2 + 4);
                let got = (1..4).fold(0.0, |acc, y| {
                    padded.add_row_sad(
                        acc,
                        &cur.as_slice()[y * 6 + 2..][..3],
                        2 * y as isize + ry2,
                        4 + rx2,
                    )
                });
                assert_eq!(got.to_bits(), want.to_bits(), "({ry2}, {rx2})");
            }
        }
    }

    #[test]
    fn lockstep_row_sad_matches_one_row_sad_per_lane_at_the_margin() {
        let (w, h, pad, n) = (9, 5, 4, 3);
        let mut data: Vec<f32> = (0..w * h).map(|i| ((i * 5) % 13) as f32 * 0.21).collect();
        data[3] = f32::NAN;
        data[w + 8] = f32::INFINITY;
        data[4 * w] = f32::NEG_INFINITY;
        let padded = PaddedPlane::new(&Plane::from_vec(w, h, data), pad);
        let cur = [0.4, -0.0, 1.7];
        // Every row of the padded plane, and every start from the first
        // padded column to the one whose last lane ends on the last.
        let last = (w + pad - (n + LANES - 1)) as isize;
        let mut starts = 0;
        for y in -(pad as isize)..(h + pad) as isize {
            for x in -(pad as isize)..=last {
                let init: [f64; LANES] = std::array::from_fn(|l| l as f64 * 0.37);
                let mut got = init;
                padded.add_row_sad_lanes(&mut got, &cur, y, x);
                for l in 0..LANES {
                    let want = padded.add_row_sad(init[l], &cur, 2 * y, 2 * (x + l as isize));
                    assert_eq!(got[l].to_bits(), want.to_bits(), "({y}, {x}) lane {l}");
                }
                starts += 1;
            }
        }
        assert_eq!(starts, (h + 2 * pad) * (w + 2 * pad - (n + LANES - 1) + 1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_plane_rejected() {
        let _ = Plane::zeros(0, 3);
    }
}
