//! Functional motion estimation: full-search block matching with optional
//! half-pel refinement, operating on a single derived feature plane.
//!
//! This is the documented substitute for the paper's trained
//! motion-estimation CNN (see the crate docs, "Substitutions"): it
//! produces the dense motion field that the motion-compression
//! autoencoder codes and the deformable compensation consumes.
//!
//! The full-pel search reads contiguous rows of a once-padded reference
//! and drops a candidate as soon as its partial cost can no longer win
//! (see `full_pel_cost` for why that is exact). The field is
//! bit-identical to summing every candidate through
//! [`Tensor::at_padded`], the scalar reference the tests keep.

use nvc_core::ExecCtx;
use nvc_tensor::{Shape, Tensor};

/// Mean of the first three channels (the ±RGB passthrough features) as a
/// single matching plane.
pub fn matching_plane(features: &Tensor) -> Tensor {
    let (_, _, h, w) = features.shape().dims();
    Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
        (features.at(0, 0, y, x) + features.at(0, 1, y, x) + features.at(0, 2, y, x)) / 3.0
    })
}

/// The reference plane zero-padded by `pad` samples on every side, so
/// that every full-pel candidate of a `±pad` search reads whole,
/// contiguous row slices. The padding is `0.0`, the value
/// [`Tensor::at_padded`] returns outside the plane.
struct PaddedPlane {
    data: Vec<f32>,
    stride: usize,
    pad: usize,
}

impl PaddedPlane {
    fn new(plane: &Tensor, pad: usize) -> Self {
        let (_, _, h, w) = plane.shape().dims();
        let stride = w + 2 * pad;
        let mut data = vec![0.0_f32; stride * (h + 2 * pad)];
        for (y, row) in plane.as_slice().chunks_exact(w).enumerate() {
            let at = (y + pad) * stride + pad;
            data[at..at + w].copy_from_slice(row);
        }
        PaddedPlane { data, stride, pad }
    }

    /// The `len` samples of plane row `y` starting at plane column `x`;
    /// both may lie up to `pad` outside the plane.
    fn row(&self, y: isize, x: isize, len: usize) -> &[f32] {
        let at = (y + self.pad as isize) as usize * self.stride + (x + self.pad as isize) as usize;
        &self.data[at..at + len]
    }
}

/// Cost of the full-pel candidate `(dy, dx)` for the `bs × bs` block at
/// `(by, bx)` of the `w`-wide plane `cur`: the f64 sum of `|c − r|` in
/// raster order, plus `pen`. Returns `None` after the first row at which
/// the running `acc + pen >= bound`.
///
/// The early exit is exact: a candidate it drops could never have won
/// the caller's `cost < bound`. Each remaining term is `≥ 0` (or NaN),
/// and under round-to-nearest `fl(acc + t) >= acc` for `t >= 0`, so the
/// running sum never decreases; `fl(a + pen)` is monotone in `a`, so the
/// finished cost is `>= bound` too. A NaN anywhere makes the comparison
/// false on this path and on the caller's alike, so NaN costs are never
/// dropped early and never win. Kept candidates return the same bits the
/// plain raster-order sum produces.
fn full_pel_cost(
    cur: &[f32],
    w: usize,
    reference: &PaddedPlane,
    (by, bx, bs): (usize, usize, usize),
    (dy, dx): (isize, isize),
    pen: f64,
    bound: f64,
) -> Option<f64> {
    let mut acc = 0.0_f64;
    for y in by..by + bs {
        let c = &cur[y * w + bx..][..bs];
        let r = reference.row(y as isize + dy, bx as isize + dx, bs);
        for (&c, &r) in c.iter().zip(r) {
            acc += (c - r).abs() as f64;
        }
        if acc + pen >= bound {
            return None;
        }
    }
    Some(acc + pen)
}

/// SAD of the block at `(by, bx)` against the reference bilinearly
/// sampled at the fractional offset `(dy, dx)`, zero-padded outside the
/// plane. Only half-pel refinement calls this, and its candidates always
/// have a fractional component.
fn sub_pel_cost(
    cur: &Tensor,
    reference: &Tensor,
    (by, bx, bs): (usize, usize, usize),
    dy: f32,
    dx: f32,
) -> f64 {
    let mut acc = 0.0_f64;
    for y in 0..bs {
        for x in 0..bs {
            let cy = by + y;
            let cx = bx + x;
            let c = cur.at(0, 0, cy, cx);
            let r = reference.sample_bilinear(0, 0, cy as f32 + dy, cx as f32 + dx);
            acc += (c - r).abs() as f64;
        }
    }
    acc
}

/// Estimates a dense per-pixel motion field between two single-channel
/// planes via block matching.
///
/// Returns a `1 × 2 × h × w` tensor: channel 0 = `dy`, channel 1 = `dx`
/// (piecewise constant per block), in the convention
/// `cur(y, x) ≈ ref(y + dy, x + dx)`.
///
/// # Panics
///
/// Panics if the planes differ in shape or are not single-channel.
pub fn estimate_motion(
    cur: &Tensor,
    reference: &Tensor,
    block: usize,
    range: i32,
    half_pel: bool,
) -> Tensor {
    estimate_motion_ctx(cur, reference, block, range, half_pel, &ExecCtx::serial())
}

/// [`estimate_motion`] with the per-block full searches fanned across
/// `exec`'s worker pool. Every block's search is independent and reads
/// only the two fixed planes, so the field is bit-identical for every
/// worker count.
///
/// The reference plane is copied once into a buffer padded by `range`
/// samples on every side, so memory grows with `range²`.
///
/// # Panics
///
/// Panics if the planes differ in shape or are not single-channel.
pub fn estimate_motion_ctx(
    cur: &Tensor,
    reference: &Tensor,
    block: usize,
    range: i32,
    half_pel: bool,
    exec: &ExecCtx,
) -> Tensor {
    assert_eq!(cur.shape(), reference.shape(), "plane shapes must match");
    assert_eq!(cur.shape().c(), 1, "motion estimation runs on one plane");
    let (_, _, h, w) = cur.shape().dims();
    let coords: Vec<(usize, usize)> = (0..h)
        .step_by(block)
        .flat_map(|by| (0..w).step_by(block).map(move |bx| (by, bx)))
        .collect();
    let mut vectors = vec![(0.0_f32, 0.0_f32); coords.len()];
    let padded = PaddedPlane::new(reference, range.max(0) as usize);
    let cur_samples = cur.as_slice();
    // Work is samples read. Summed in full, the (2·range + 1)²
    // candidates would read every sample of the plane that many times,
    // but the early exit reads only about a quarter of the candidate
    // rows (measured on the `nvc_video::synthetic` clips). Half-pel
    // refinement adds eight bilinear candidates of four taps per sample.
    // Small planes search serially.
    let candidates = (2 * range.max(0) as u64 + 1).pow(2);
    let refinement = if half_pel { 8 * 4 } else { 0 };
    let work = (h * w) as u64 * (candidates / 4 + refinement);
    exec.par_chunks_mut_gated(&mut vectors, 1, work, |bi, v| {
        let (by, bx) = coords[bi];
        let bs = block.min(h - by).min(w - bx);
        let at = (by, bx, bs);
        let mut best = (0.0_f32, 0.0_f32);
        // An infinite bound drops only an infinite sum, whose cost is
        // infinite either way.
        let mut best_cost = full_pel_cost(cur_samples, w, &padded, at, (0, 0), 0.0, f64::INFINITY)
            .unwrap_or(f64::INFINITY);
        for dy in -range..=range {
            for dx in -range..=range {
                if dy == 0 && dx == 0 {
                    continue;
                }
                // Small bias toward shorter vectors stabilises flat regions.
                let pen = 0.02 * (dy.abs() + dx.abs()) as f64;
                let offset = (dy as isize, dx as isize);
                if let Some(cost) =
                    full_pel_cost(cur_samples, w, &padded, at, offset, pen, best_cost)
                {
                    if cost < best_cost {
                        best_cost = cost;
                        best = (dy as f32, dx as f32);
                    }
                }
            }
        }
        if half_pel {
            let (cy, cx) = best;
            for sy in [-0.5_f32, 0.0, 0.5] {
                for sx in [-0.5_f32, 0.0, 0.5] {
                    if sy == 0.0 && sx == 0.0 {
                        continue;
                    }
                    let cost = sub_pel_cost(cur, reference, at, cy + sy, cx + sx);
                    if cost < best_cost {
                        best_cost = cost;
                        best = (cy + sy, cx + sx);
                    }
                }
            }
        }
        v[0] = best;
    });
    let mut field = Tensor::zeros(Shape::new(1, 2, h, w));
    for (&(by, bx), &(dy, dx)) in coords.iter().zip(&vectors) {
        let bs = block.min(h - by).min(w - bx);
        for y in 0..bs {
            for x in 0..bs {
                *field.at_mut(0, 0, by + y, bx + x) = dy;
                *field.at_mut(0, 1, by + y, bx + x) = dx;
            }
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar search the fast one answers to: every sample of every
    /// candidate through [`Tensor::at_padded`], no early exit.
    fn sad(
        cur: &Tensor,
        reference: &Tensor,
        by: usize,
        bx: usize,
        bs: usize,
        dy: f32,
        dx: f32,
    ) -> f64 {
        // Bilinear sampling at whole-pel offsets reduces exactly to the
        // integer sample (the fractional weights are 0/1), so the
        // full-pel search can skip the interpolation arithmetic.
        if dy.fract() == 0.0 && dx.fract() == 0.0 {
            return sad_full_pel(cur, reference, by, bx, bs, dy as isize, dx as isize);
        }
        let mut acc = 0.0_f64;
        for y in 0..bs {
            for x in 0..bs {
                let cy = by + y;
                let cx = bx + x;
                let c = cur.at_padded(0, 0, cy as isize, cx as isize);
                let r = reference.sample_bilinear(0, 0, cy as f32 + dy, cx as f32 + dx);
                acc += (c - r).abs() as f64;
            }
        }
        acc
    }

    fn sad_full_pel(
        cur: &Tensor,
        reference: &Tensor,
        by: usize,
        bx: usize,
        bs: usize,
        dy: isize,
        dx: isize,
    ) -> f64 {
        let mut acc = 0.0_f64;
        for y in 0..bs {
            let cy = (by + y) as isize;
            for x in 0..bs {
                let cx = (bx + x) as isize;
                let c = cur.at_padded(0, 0, cy, cx);
                let r = reference.at_padded(0, 0, cy + dy, cx + dx);
                acc += (c - r).abs() as f64;
            }
        }
        acc
    }

    /// The per-block vectors of the scalar search, in raster block order.
    fn reference_vectors(
        cur: &Tensor,
        reference: &Tensor,
        block: usize,
        range: i32,
        half_pel: bool,
    ) -> Vec<(f32, f32)> {
        let (_, _, h, w) = cur.shape().dims();
        let mut vectors = Vec::new();
        for by in (0..h).step_by(block) {
            for bx in (0..w).step_by(block) {
                let bs = block.min(h - by).min(w - bx);
                let mut best = (0.0_f32, 0.0_f32);
                let mut best_cost = sad(cur, reference, by, bx, bs, 0.0, 0.0);
                for dy in -range..=range {
                    for dx in -range..=range {
                        if dy == 0 && dx == 0 {
                            continue;
                        }
                        let cost = sad(cur, reference, by, bx, bs, dy as f32, dx as f32)
                            + 0.02 * (dy.abs() + dx.abs()) as f64;
                        if cost < best_cost {
                            best_cost = cost;
                            best = (dy as f32, dx as f32);
                        }
                    }
                }
                if half_pel {
                    let (cy, cx) = best;
                    for sy in [-0.5_f32, 0.0, 0.5] {
                        for sx in [-0.5_f32, 0.0, 0.5] {
                            if sy == 0.0 && sx == 0.0 {
                                continue;
                            }
                            let cost = sad(cur, reference, by, bx, bs, cy + sy, cx + sx);
                            if cost < best_cost {
                                best_cost = cost;
                                best = (cy + sy, cx + sx);
                            }
                        }
                    }
                }
                vectors.push(best);
            }
        }
        vectors
    }

    /// The per-block vectors of a field, read back at each block's
    /// top-left sample, as bit patterns.
    fn field_vectors(field: &Tensor, block: usize) -> Vec<(u32, u32)> {
        let (_, _, h, w) = field.shape().dims();
        let mut vectors = Vec::new();
        for by in (0..h).step_by(block) {
            for bx in (0..w).step_by(block) {
                let (dy, dx) = (field.at(0, 0, by, bx), field.at(0, 1, by, bx));
                vectors.push((dy.to_bits(), dx.to_bits()));
            }
        }
        vectors
    }

    /// xorshift64*: a seeded plane generator without a dependency.
    fn noise(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40;
            bits as f32 / (1u64 << 24) as f32
        }
    }

    /// The planes the sweep searches: textured; flat (every candidate
    /// inside the plane costs the same, and the zero padding is cheaper
    /// than the plane, so candidates that leave it tie on cost and the
    /// raster order must break the tie); and signed zeros mixed into a
    /// sparse texture.
    fn sweep_planes(h: usize, w: usize, seed: u64) -> Vec<(&'static str, Tensor, Tensor)> {
        let shape = Shape::new(1, 1, h, w);
        let mut next = noise(seed);
        let base: Vec<f32> = (0..h * w).map(|_| next()).collect();
        // The current plane is the reference shifted by (2, -1) plus
        // noise, so the search has a true optimum to find.
        let shifted = Tensor::from_fn(shape, |_, _, y, x| {
            let (sy, sx) = (y + 2, x as isize - 1);
            let r = if sy < h && sx >= 0 {
                base[sy * w + sx as usize]
            } else {
                0.3
            };
            r + 0.05 * next()
        });
        let textured = Tensor::from_vec(shape, base).unwrap();
        let flat = |v| Tensor::from_fn(shape, move |_, _, _, _| v);
        let zeros = |salt: u64| {
            let mut pick = noise(seed ^ salt);
            Tensor::from_fn(shape, move |_, _, _, _| match pick() {
                v if v < 0.4 => 0.0,
                v if v < 0.8 => -0.0,
                v => v - 0.8,
            })
        };
        vec![
            ("textured", shifted, textured),
            ("flat", flat(0.25), flat(1.0)),
            ("signed zeros", zeros(1), zeros(2)),
        ]
    }

    #[test]
    fn fast_search_is_bit_identical_to_the_scalar_reference() {
        // (h, w, block, range): block multiples and not, ranges at and
        // beyond the plane size, and a plane large enough to fan out.
        let geometries = [
            (48, 60, 8, 12),
            (16, 24, 8, 4),
            (13, 19, 8, 3),
            (10, 7, 4, 12),
            (5, 6, 8, 6),
            (24, 32, 16, 8),
        ];
        for (seed, &(h, w, block, range)) in geometries.iter().enumerate() {
            for (name, cur, reference) in sweep_planes(h, w, seed as u64 + 1) {
                for half_pel in [false, true] {
                    let expected: Vec<(u32, u32)> =
                        reference_vectors(&cur, &reference, block, range, half_pel)
                            .into_iter()
                            .map(|(dy, dx)| (dy.to_bits(), dx.to_bits()))
                            .collect();
                    for workers in [1, 2, 7] {
                        let exec = ExecCtx::with_threads(workers);
                        let field =
                            estimate_motion_ctx(&cur, &reference, block, range, half_pel, &exec);
                        assert_eq!(
                            field_vectors(&field, block),
                            expected,
                            "{name} {h}x{w}, block {block}, range {range}, \
                             half-pel {half_pel}, {workers} workers"
                        );
                    }
                }
            }
        }
    }

    fn textured(h: usize, w: usize, oy: f32, ox: f32) -> Tensor {
        // Incommensurate low frequencies: no period shorter than the
        // search diameter, so block matching cannot alias.
        Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
            let fy = y as f32 + oy;
            let fx = x as f32 + ox;
            (fy * 0.35).sin() * (fx * 0.28).cos() + 0.5 * (fy * 0.13 + fx * 0.21).sin()
        })
    }

    #[test]
    fn recovers_integer_translation() {
        // cur(y, x) = ref(y + 2, x - 3): motion (dy, dx) = (2, -3).
        let reference = textured(32, 32, 0.0, 0.0);
        let cur = textured(32, 32, 2.0, -3.0);
        let field = estimate_motion(&cur, &reference, 8, 6, false);
        // Interior blocks (borders suffer from padding).
        for by in [8, 16] {
            for bx in [8, 16] {
                assert_eq!(field.at(0, 0, by, bx), 2.0, "dy at ({by},{bx})");
                assert_eq!(field.at(0, 1, by, bx), -3.0, "dx at ({by},{bx})");
            }
        }
    }

    #[test]
    fn recovers_half_pel_translation() {
        let reference = textured(32, 32, 0.0, 0.0);
        let cur = textured(32, 32, 0.5, 1.5);
        let field = estimate_motion(&cur, &reference, 8, 4, true);
        let dy = field.at(0, 0, 16, 16);
        let dx = field.at(0, 1, 16, 16);
        assert!((dy - 0.5).abs() <= 0.5, "dy {dy}");
        assert!((dx - 1.5).abs() <= 0.5, "dx {dx}");
    }

    #[test]
    fn zero_motion_for_identical_planes() {
        let p = textured(16, 16, 0.0, 0.0);
        let field = estimate_motion(&p, &p, 8, 4, true);
        assert_eq!(field.max_abs(), 0.0);
    }

    #[test]
    fn matching_plane_averages_rgb_features() {
        let f = Tensor::from_fn(Shape::new(1, 6, 2, 2), |_, c, _, _| c as f32);
        let p = matching_plane(&f);
        assert_eq!(p.shape().dims(), (1, 1, 2, 2));
        assert_eq!(p.at(0, 0, 0, 0), 1.0); // (0 + 1 + 2) / 3
    }
}
