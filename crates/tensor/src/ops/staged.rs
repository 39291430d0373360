//! The one direct kernel: a zero-padded polyphase staging layout and a
//! register-resident accumulate over it, run once per output plane by
//! `Conv2d` and once per output phase by `DeConv2d`. Neither routine
//! knows which of the two called it.

use crate::Tensor;
use nvc_core::ExecCtx;

/// Stages every `h × w` plane of `input` as the `s · s` phase planes of
/// its zero-padded copy (`p` cells of `+0.0` on every side), each of
/// `rows` rows at pitch `pitch`: plane `(rp, cp)[j][i] = padded[j·s +
/// rp][i·s + cp]`. The buffer comes stale from `ctx`'s scratch pool, so
/// every cell is written; the caller puts it back.
pub(super) fn stage(
    input: &Tensor,
    (s, p): (usize, usize),
    (rows, pitch): (usize, usize),
    ctx: &ExecCtx,
) -> Vec<f32> {
    let (n, c, h, w) = input.shape().dims();
    let mut staged = ctx.scratch().take_stale(n * c * s * s * rows * pitch);
    for (idx, plane) in staged.chunks_exact_mut(rows * pitch).enumerate() {
        let in_plane = &input.as_slice()[idx / (s * s) * h * w..][..h * w];
        let (rp, cp) = (idx / s % s, idx % s);
        // Staged columns `lo..hi` fall inside the input, the rest on
        // padding; column `lo` is input column `lo·s + cp − p`.
        let lo = p.saturating_sub(cp).div_ceil(s);
        let hi = (w + p).saturating_sub(cp).div_ceil(s).min(pitch);
        for (j, row) in plane.chunks_exact_mut(pitch).enumerate() {
            match (j * s + rp).checked_sub(p).filter(|&iy| iy < h) {
                Some(iy) if lo < hi => {
                    let src = &in_plane[iy * w + lo * s + cp - p..(iy + 1) * w];
                    row[..lo].fill(0.0);
                    if s == 1 {
                        // The same gather as a `memcpy`: 4–8 % of a
                        // served-shape layer.
                        row[lo..hi].copy_from_slice(&src[..hi - lo]);
                    } else {
                        for (d, &v) in row[lo..hi].iter_mut().zip(src.iter().step_by(s)) {
                            *d = v;
                        }
                    }
                    row[hi..].fill(0.0);
                }
                _ => row.fill(0.0),
            }
        }
    }
    staged
}

/// `flat[i] = bias + Σ kv · staged[off + i]` over `taps` in order, in
/// register-resident blocks: 32 elements wide, or the widest of 16 / 8 / 4
/// that a shorter `flat` (at least 4 long) still holds.
pub(super) fn accumulate(staged: &[f32], taps: &[(f32, usize)], bias: f32, flat: &mut [f32]) {
    match flat.len() {
        32.. => accumulate_blocks::<8>(staged, taps, bias, flat),
        16.. => accumulate_blocks::<4>(staged, taps, bias, flat),
        8.. => accumulate_blocks::<2>(staged, taps, bias, flat),
        _ => accumulate_blocks::<1>(staged, taps, bias, flat),
    }
}

/// [`accumulate`] in blocks of `4 · V` elements. The last block overlaps
/// its predecessor instead of narrowing: every element is computed
/// independently, so computing some twice changes no bit, while narrow
/// tail blocks are latency-bound.
fn accumulate_blocks<const V: usize>(
    staged: &[f32],
    taps: &[(f32, usize)],
    bias: f32,
    flat: &mut [f32],
) {
    let (width, len) = (4 * V, flat.len());
    let tail = (len % width != 0).then(|| len - width);
    for x0 in (0..len / width).map(|b| b * width).chain(tail) {
        // Four-wide sub-arrays map one-to-one onto SIMD registers (the
        // `tile_exec::reduce_group` idiom).
        let mut acc = [[bias; 4]; V];
        for &(kv, off) in taps {
            let src = &staged[off + x0..][..width];
            for (a, y) in acc.iter_mut().zip(src.chunks_exact(4)) {
                for (a, &v) in a.iter_mut().zip(y) {
                    *a += kv * v;
                }
            }
        }
        for (o, a) in flat[x0..][..width].chunks_exact_mut(4).zip(&acc) {
            o.copy_from_slice(a);
        }
    }
}
