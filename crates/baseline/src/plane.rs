//! Single-channel image plane with the sampling helpers a block codec
//! needs (clamped access, half-pel interpolation).

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
    /// (`2·y` = integer row `y`); odd coordinates bilinearly interpolate,
    /// term for term as the motion search's
    /// [`HalfPel::Average`](nvc_video::block_match::HalfPel::Average).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_video::block_match::HalfPel;

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
    fn half_pel_is_the_matchers_average_at_every_parity() {
        // The motion search samples through `nvc_video::block_match`'s
        // edge-filled margin, motion compensation through `at_half_pel`:
        // they must agree at every half-pel position, margin included.
        let mut data: Vec<f32> = (0..20).map(|i| ((i * 7) % 11) as f32 * 0.3).collect();
        data[6] = f32::INFINITY;
        data[13] = -0.0;
        let p = Plane::from_vec(5, 4, data);
        for y2 in -6..12_isize {
            for x2 in -6..14_isize {
                let (iy, fy) = (y2.div_euclid(2), y2.rem_euclid(2) == 1);
                let (ix, fx) = (x2.div_euclid(2), x2.rem_euclid(2) == 1);
                let taps =
                    [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(dy, dx)| p.at_clamped(iy + dy, ix + dx));
                let want = if fy || fx {
                    HalfPel::Average.sample(taps, fy, fx)
                } else {
                    taps[0]
                };
                let got = p.at_half_pel(y2, x2);
                assert_eq!(got.to_bits(), want.to_bits(), "({y2}, {x2})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_plane_rejected() {
        let _ = Plane::zeros(0, 3);
    }
}
