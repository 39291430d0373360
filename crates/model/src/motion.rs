//! Functional motion estimation: full-search block matching with optional
//! half-pel refinement, operating on a single derived feature plane.
//!
//! This is the documented substitute for the paper's trained
//! motion-estimation CNN (see the crate docs, "Substitutions"): it
//! produces the dense motion field that the motion-compression
//! autoencoder codes and the deformable compensation consumes.
//!
//! The search is [`nvc_video::block_match`] under [`Rules::CTVC`] over a
//! zero-filled margin, the value [`Tensor::at_padded`] reads outside the
//! plane; that module holds the scalar reference the field answers to.

use nvc_core::ExecCtx;
use nvc_tensor::{Shape, Tensor};
use nvc_video::block_match::{self, BlockMatcher, Fill, Rules};

/// Mean of the first three channels (the ±RGB passthrough features) as a
/// single matching plane.
pub fn matching_plane(features: &Tensor) -> Tensor {
    let (_, _, h, w) = features.shape().dims();
    Tensor::from_fn(Shape::new(1, 1, h, w), |_, _, y, x| {
        (features.at(0, 0, y, x) + features.at(0, 1, y, x) + features.at(0, 2, y, x)) / 3.0
    })
}

/// Estimates a dense per-pixel motion field between two single-channel
/// planes via block matching, with the per-block searches fanned across
/// `exec`'s worker pool. Every block's search is independent and reads
/// only the two fixed planes, so the field is bit-identical for every
/// worker count.
///
/// Returns a `1 × 2 × h × w` tensor: channel 0 = `dy`, channel 1 = `dx`
/// (piecewise constant per block), in the convention
/// `cur(y, x) ≈ ref(y + dy, x + dx)`.
///
/// The reference plane is copied once into a buffer padded by
/// `range + 1` samples on every side, so memory grows with `range²`.
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
    let blocks = block_match::blocks(w, h, block);
    let mut vectors = vec![(0, 0); blocks.len()];
    let matcher = BlockMatcher::new(
        cur.as_slice(),
        reference.as_slice(),
        (w, h),
        (range, half_pel),
        Fill::Zero,
        Rules::CTVC,
    );
    // Work is samples read: about a quarter of the (2·range + 1)²
    // candidate rows survive the early exit (measured on the
    // `nvc_video::synthetic` clips), and half-pel refinement adds eight
    // candidates of four taps per sample. Small planes search serially.
    let candidates = (2 * range.max(0) as u64 + 1).pow(2);
    let refinement = if half_pel { 8 * 4 } else { 0 };
    let work = (h * w) as u64 * (candidates / 4 + refinement);
    exec.par_chunks_mut_gated(&mut vectors, 1, work, |bi, v| {
        v[0] = matcher.search(blocks[bi]).0;
    });
    // Each block paints its `bs × bs` square, in pels; a pixel no square
    // covers keeps zero motion.
    let mut field = Tensor::zeros(Shape::new(1, 2, h, w));
    for (&(by, bx, bs), &(dy, dx)) in blocks.iter().zip(&vectors) {
        let (dy, dx) = (dy as f32 * 0.5, dx as f32 * 0.5);
        for y in by..by + bs {
            for x in bx..bx + bs {
                *field.at_mut(0, 0, y, x) = dy;
                *field.at_mut(0, 1, y, x) = dx;
            }
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let field = estimate_motion_ctx(&cur, &reference, 8, 6, false, &ExecCtx::serial());
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
        let field = estimate_motion_ctx(&cur, &reference, 8, 4, true, &ExecCtx::serial());
        let dy = field.at(0, 0, 16, 16);
        let dx = field.at(0, 1, 16, 16);
        assert!((dy - 0.5).abs() <= 0.5, "dy {dy}");
        assert!((dx - 1.5).abs() <= 0.5, "dx {dx}");
    }

    #[test]
    fn zero_motion_for_identical_planes() {
        let p = textured(16, 16, 0.0, 0.0);
        let field = estimate_motion_ctx(&p, &p, 8, 4, true, &ExecCtx::serial());
        assert_eq!(field.max_abs(), 0.0);
    }

    #[test]
    fn fast_search_is_bit_identical_to_the_scalar_reference() {
        // 60×44 at ±12 with half-pel refinement clears the fan-out
        // threshold. Its bottom row of blocks clips to 4×4 squares, so
        // part of each of those cells keeps zero motion. Each block paints
        // the scalar reference's vector under the CTVC rules over a zero
        // margin; the odd planes and geometries are swept in
        // `block_match`.
        let (w, h, block, range) = (60, 44, 8, 12);
        let reference = textured(h, w, 0.0, 0.0);
        let cur = textured(h, w, 1.5, -2.0);
        let (samples, dims) = ((cur.as_slice(), reference.as_slice()), (w, h));
        let mut want = vec![(0.0_f32, 0.0_f32); w * h];
        let mut half = false;
        for (by, bx, bs) in block_match::blocks(w, h, block) {
            let search = (range, true);
            let (dy, dx) = block_match::reference_search(
                samples,
                dims,
                search,
                Fill::Zero,
                Rules::CTVC,
                (by, bx, bs),
            )
            .0;
            half |= dy % 2 != 0 || dx % 2 != 0;
            for y in by..by + bs {
                want[y * w..][bx..bx + bs].fill((dy as f32 / 2.0, dx as f32 / 2.0));
            }
        }
        assert!(half, "the sweep reaches a half-pel vector");
        let want: Vec<u32> = [0, 1]
            .iter()
            .flat_map(|&c| want.iter().map(move |v| [v.0, v.1][c].to_bits()))
            .collect();
        for workers in [1, 2, 7] {
            let exec = ExecCtx::with_threads(workers);
            let field = estimate_motion_ctx(&cur, &reference, block, range, true, &exec);
            let got: Vec<u32> = field.as_slice().iter().map(|v| v.to_bits()).collect();
            assert!(got == want, "{workers} workers");
        }
    }

    #[test]
    fn matching_plane_averages_rgb_features() {
        let f = Tensor::from_fn(Shape::new(1, 6, 2, 2), |_, c, _, _| c as f32);
        let p = matching_plane(&f);
        assert_eq!(p.shape().dims(), (1, 1, 2, 2));
        assert_eq!(p.at(0, 0, 0, 0), 1.0); // (0 + 1 + 2) / 3
    }
}
