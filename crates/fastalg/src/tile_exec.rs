//! Tiled execution engine of [`FastLayer`](crate::FastLayer).
//!
//! A fast convolution and a fast deconvolution are the same computation
//! with different transform geometry: per tile, transform every input
//! channel's patch
//! (`Y = Bᵀ X B`), accumulate `Σ_ci E ⊙ Y` in the transform domain, and
//! inverse-transform once per output channel (`V = Aᵀ U A`). Dense and
//! pruned kernels run the same code: every output channel reduces by
//! walking its packed CSR stream (`CoStream`), so work per tile is
//! `nnz`, not `µ²`, and pruning at ρ = 50 % halves the reduction.
//!
//! # Dataflow
//!
//! The paper's accelerator keeps the sparse Hadamard core fed by cheap
//! transform units and keeps inter-stage data on chip. The software
//! analogue is a **stripe-parallel, cache-resident** schedule:
//!
//! * **One fan-out per layer call.** [`ExecCtx::par_stripes_mut`] splits
//!   the tile rows into one contiguous stripe per worker and hands each
//!   worker its rows of *every* output plane. There is no barrier
//!   between the phases below and no per-band thread spawn; a layer too
//!   small to pay for a spawn (decode-side latents) runs as one stripe
//!   on the calling thread.
//! * **Cache-sized bands.** Inside its stripe a worker walks bands of
//!   [`BAND_FLOATS`] staged floats on a private staging buffer: phase 1
//!   stages the band, phase 2 consumes it for all `c_out` channels while
//!   it is still cache-hot. Staged data never round-trips through
//!   memory, and peak memory is one band per worker whatever the frame
//!   area.
//! * **Lanes.** Tiles are processed [`LANES`] at a time in raster order.
//!   Phase 1 gathers the group's patches lane-major once per input
//!   channel and applies `Bᵀ·X·B` as `LANES`-wide adds over the
//!   transform's non-zero coefficients, writing each coefficient row
//!   straight into the `[coeff][c_in][lane]` staging layout. Phase 2
//!   holds coefficient `j`'s accumulator lanes in registers across the
//!   channel reduction — each kept weight is one `LANES`-wide
//!   multiply–accumulate — then applies `Aᵀ·U·A` across the lanes and
//!   scatters the tiles (plus bias) into the output plane.
//!
//! # Determinism
//!
//! Every tile is computed by exactly one worker, from its own patches,
//! with contributions accumulated in ascending `c_in` order. Lane
//! grouping, band size and stripe boundaries decide only *where and
//! when* a tile is computed, never enter its arithmetic, so every worker
//! count and band size is **bit-identical**, and equal to applying the
//! scalar [`TransformPair`] transforms tile by tile with the kernels
//! reconstructed dense (a skipped zero term would have contributed
//! exactly `±0.0`, which cannot change an IEEE-754 accumulator seeded
//! with `+0.0`). The hot loops allocate nothing: lane scratch is stack
//! arrays and the staging band is recycled across calls.

use crate::sparse::CoStream;
use crate::transforms::{TransformPair, MAX_MU, MAX_PATCH, MAX_TILE};
use nvc_core::{ExecCtx, ScratchPool};
use nvc_tensor::{Shape, Tensor, TensorError};
use std::ops::Range;

/// The per-kernel-family forward-call histogram (microseconds), global
/// so every operator instance of a family aggregates into one metric.
/// Dense and pruned operators report separately: their cost differs
/// (`µ²` vs `nnz` per tile), so mixing them would bury exactly the
/// comparison the sparsity work needs.
fn family_histogram(t: &TransformPair, sparse: bool) -> &'static nvc_telemetry::Histogram {
    static HISTS: std::sync::OnceLock<[nvc_telemetry::Histogram; 4]> = std::sync::OnceLock::new();
    let hists = HISTS.get_or_init(|| {
        [
            nvc_telemetry::histogram("nvc_kernel_winograd_dense_us"),
            nvc_telemetry::histogram("nvc_kernel_winograd_sparse_us"),
            nvc_telemetry::histogram("nvc_kernel_fta_dense_us"),
            nvc_telemetry::histogram("nvc_kernel_fta_sparse_us"),
        ]
    });
    // The FTA transform is the one that upsamples.
    &hists[usize::from(t.out_scale() > 1) * 2 + usize::from(sparse)]
}

/// One fast-operator invocation, described geometrically.
pub(crate) struct TileProblem<'a> {
    /// The transform pair (fixes patch/tile/µ geometry, the output size
    /// and the family timings are reported under).
    pub transform: &'a TransformPair,
    /// Packed reduction stream of every output channel.
    pub streams: &'a [CoStream],
    /// One bias per output channel.
    pub bias: &'a [f32],
    /// Input channel count.
    pub c_in: usize,
}

/// Staged `f32`s per band (256 KiB): with the group's lane scratch and
/// one output channel's weights, a band a worker has just staged is
/// still in its L2 when the last of the `c_out` reductions reads it.
/// Larger bands spill (every output channel then re-reads the band from
/// memory); smaller ones only add loop overhead. A band is at least one
/// lane group, whatever the channel count.
const BAND_FLOATS: usize = 1 << 16;

/// Tiles processed together: every stored `(value, index)` pair turns
/// into one `LANES`-wide multiply–accumulate across the group, so the
/// sparse reduction vectorizes as well as a dense contiguous loop while
/// doing only `nnz / µ²` of its work. Wider groups amortize the
/// per-weight index/bounds overhead over more tiles; 32 keeps the
/// per-coefficient accumulator within the SIMD register file.
const LANES: usize = 32;

/// A run of consecutive tiles of one tile row inside a lane group: lanes
/// `lane0..lane0 + len` hold tiles `tx0..tx0 + len` of stripe-local tile
/// row `row`. Neighbouring lanes of a run read input samples `in_step`
/// apart and write adjacent output tiles, so both the patch gather and
/// the output scatter move a run at a time.
#[derive(Clone, Copy, Default)]
struct Run {
    lane0: usize,
    len: usize,
    row: usize,
    tx0: usize,
}

/// The runs of the `lanes` raster-ordered tiles starting at stripe-local
/// tile `tile0`, `tx_n` tiles to a row.
fn runs(tile0: usize, lanes: usize, tx_n: usize) -> impl Iterator<Item = Run> {
    let (mut row, mut tx0, mut lane0) = (tile0 / tx_n, tile0 % tx_n, 0);
    std::iter::from_fn(move || {
        let len = (lanes - lane0).min(tx_n - tx0);
        let run = Run {
            lane0,
            len,
            row,
            tx0,
        };
        (lane0, row, tx0) = (lane0 + len, row + 1, 0);
        (len > 0).then_some(run)
    })
}

/// For one patch column of a run: the tiles `lo..hi` whose sample lies
/// inside the frame (the others read zero padding) and the input column
/// tile `lo` reads.
#[derive(Clone, Copy, Default)]
struct ColumnClip {
    lo: usize,
    hi: usize,
    src: usize,
}

/// `dst[i] = src[i · step]`: one patch element of every tile of a run.
/// The two strides the transforms use get constant-stride bodies — worth
/// 12–18 % of a Winograd layer over the runtime-stride loop.
#[inline]
fn gather_strided(step: usize, dst: &mut [f32], src: &[f32]) {
    #[inline]
    fn fixed<const STEP: usize>(dst: &mut [f32], src: &[f32]) {
        for (d, s) in dst.iter_mut().zip(src.chunks(STEP)) {
            *d = s[0];
        }
    }
    match step {
        2 => fixed::<2>(dst, src),
        3 => fixed::<3>(dst, src),
        _ => {
            for (d, s) in dst.iter_mut().zip(src.iter().step_by(step)) {
                *d = *s;
            }
        }
    }
}

/// The lane-major working set of one stripe, all on the worker's stack.
struct LaneScratch {
    /// `LANES` input patches, `[p²][lane]`.
    x: [f32; MAX_PATCH * MAX_PATCH * LANES],
    /// Half-transformed intermediate of either transform.
    tmp: [f32; MAX_TILE * MAX_MU * LANES],
    /// Reduced transform-domain tiles, `[µ²][lane]`.
    u: [f32; MAX_MU * MAX_MU * LANES],
    /// Output tiles, `[m²][lane]`.
    v: [f32; MAX_TILE * MAX_TILE * LANES],
}

/// Everything about a call that is the same for every stripe.
struct Layout<'a> {
    prob: &'a TileProblem<'a>,
    /// All input planes of the current batch item.
    input: &'a [f32],
    in_h: usize,
    in_w: usize,
    out_w: usize,
    /// Tiles per tile row.
    tx_n: usize,
    /// Lane groups per band.
    band_groups: usize,
}

/// Runs the tiled forward pass (see module docs).
pub(crate) fn forward_tiled(
    prob: &TileProblem<'_>,
    input: &Tensor,
    ctx: &ExecCtx,
) -> Result<Tensor, TensorError> {
    forward_banded(prob, input, ctx, BAND_FLOATS)
}

/// [`forward_tiled`] with an explicit band size in staged floats — the
/// only way to reach it, so tests can show it never changes the output.
pub(crate) fn forward_banded(
    prob: &TileProblem<'_>,
    input: &Tensor,
    ctx: &ExecCtx,
    band_floats: usize,
) -> Result<Tensor, TensorError> {
    let t = prob.transform;
    let (p, m, mu) = (t.patch(), t.tile(), t.mu());
    assert!(p <= MAX_PATCH && m <= MAX_TILE && mu <= MAX_MU);
    let c_out = prob.streams.len();
    let nnz: usize = prob.streams.iter().map(|s| s.values.len()).sum();
    let _span = family_histogram(t, nnz < c_out * prob.c_in * mu * mu).time();
    let (n, _, in_h, in_w) = input.shape().dims();
    let (oh, ow) = (in_h * t.out_scale(), in_w * t.out_scale());
    let mut out = Tensor::zeros(Shape::new(n, c_out, oh, ow));
    if out.as_slice().is_empty() {
        return Ok(out);
    }
    let (ty_n, tx_n) = (oh.div_ceil(m), ow.div_ceil(m));
    let band_groups = (band_floats / (LANES * prob.c_in * mu * mu)).max(1);

    // Multiplies per tile: input transforms, kept Hadamard products,
    // inverse transforms — the gate for fanning out at all.
    let tile_work = prob.c_in * mu * p * (p + mu) + nnz + c_out * m * mu * (mu + m);
    let work = (ty_n * tx_n * tile_work) as u64;

    let in_floats = prob.c_in * in_h * in_w;
    for (nn, out_item) in out.as_mut_slice().chunks_mut(c_out * oh * ow).enumerate() {
        let layout = Layout {
            prob,
            input: &input.as_slice()[nn * in_floats..][..in_floats],
            in_h,
            in_w,
            out_w: ow,
            tx_n,
            band_groups,
        };
        // One stripe row = one tile row of one plane.
        ctx.par_stripes_mut(out_item, oh * ow, m * ow, work, |tile_rows, planes| {
            run_stripe(&layout, tile_rows, planes, ctx.scratch());
        });
    }
    Ok(out)
}

/// One worker's share of a layer: the tile rows `tile_rows` of every
/// output plane (`planes[co]` holds exactly those rows), walked in lane
/// groups of raster-ordered tiles, one cache-sized band at a time.
fn run_stripe(
    l: &Layout<'_>,
    tile_rows: Range<usize>,
    planes: &mut [&mut [f32]],
    pool: &ScratchPool,
) {
    let t = l.prob.transform;
    let mu2 = t.mu() * t.mu();
    let group_floats = LANES * l.prob.c_in * mu2;
    let tiles = tile_rows.len() * l.tx_n;
    let groups = tiles.div_ceil(LANES);
    let band_groups = l.band_groups.min(groups);
    // Phase 1 overwrites every staged float it hands to phase 2, so the
    // band needs no memset.
    let mut y_band = pool.take_stale(band_groups * group_floats);
    let mut s = LaneScratch {
        x: [0.0; MAX_PATCH * MAX_PATCH * LANES],
        tmp: [0.0; MAX_TILE * MAX_MU * LANES],
        u: [0.0; MAX_MU * MAX_MU * LANES],
        v: [0.0; MAX_TILE * MAX_TILE * LANES],
    };
    for g0 in (0..groups).step_by(band_groups) {
        let band = g0..(g0 + band_groups).min(groups);
        // Lanes in use per group of this band: all but a stripe's last
        // group are full.
        let lanes = |g: usize| LANES.min(tiles - g * LANES);
        // Phase 1: stage the band's input transforms.
        for (g, y_group) in band.clone().zip(y_band.chunks_mut(group_floats)) {
            stage_group(l, tile_rows.start, g * LANES, lanes(g), &mut s, y_group);
        }
        // Phase 2: every output channel consumes the staged band.
        for ((stream, &bias), plane) in l.prob.streams.iter().zip(l.prob.bias).zip(&mut *planes) {
            for (g, y_group) in band.clone().zip(y_band.chunks(group_floats)) {
                reduce_group(l, stream, bias, y_group, g * LANES, lanes(g), &mut s, plane);
            }
        }
    }
    pool.put(y_band);
}

/// Phase 1 for one lane group — the `lanes` tiles from stripe-local tile
/// `tile0`: per input channel, gather the group's patches lane-major and
/// transform them into `y_group` (`[coeff][c_in][lane]`). Unused lanes
/// of a partial group carry zero patches, so every staged float is
/// written.
fn stage_group(
    l: &Layout<'_>,
    first_tile_row: usize,
    tile0: usize,
    lanes: usize,
    s: &mut LaneScratch,
    y_group: &mut [f32],
) {
    let t = l.prob.transform;
    let (p, step, offset) = (t.patch(), t.in_step(), t.in_offset());
    let c_in = l.prob.c_in;
    // Which tiles of each run read inside the frame, per patch column —
    // the same clipping as a zero-padded read, worked out once for all
    // channels. Only the outermost tiles of a row can fall outside.
    let mut clipped = [(Run::default(), [ColumnClip::default(); MAX_PATCH]); LANES];
    let mut n_runs = 0;
    for run in runs(tile0, lanes, l.tx_n) {
        let column = |tile: usize, px: usize| (run.tx0 + tile) * step + px;
        for (px, clip) in clipped[n_runs].1[..p].iter_mut().enumerate() {
            let (mut lo, mut hi) = (0, run.len);
            while lo < hi && column(lo, px) < offset {
                lo += 1;
            }
            while lo < hi && column(hi - 1, px) >= l.in_w + offset {
                hi -= 1;
            }
            let src = if lo < hi { column(lo, px) - offset } else { 0 };
            *clip = ColumnClip { lo, hi, src };
        }
        clipped[n_runs].0 = run;
        n_runs += 1;
    }
    if lanes < LANES {
        s.x.fill(0.0);
    }
    for (ci, plane) in l.input.chunks(l.in_h * l.in_w).enumerate() {
        for (run, clips) in &clipped[..n_runs] {
            for py in 0..p {
                let iy = (first_tile_row + run.row) * step + py;
                let in_row = (offset..l.in_h + offset)
                    .contains(&iy)
                    .then(|| &plane[(iy - offset) * l.in_w..][..l.in_w]);
                for (px, clip) in clips[..p].iter().enumerate() {
                    let dst = &mut s.x[(py * p + px) * LANES + run.lane0..][..run.len];
                    match in_row {
                        Some(in_row) => {
                            dst[..clip.lo].fill(0.0);
                            dst[clip.hi..].fill(0.0);
                            gather_strided(step, &mut dst[clip.lo..clip.hi], &in_row[clip.src..]);
                        }
                        None => dst.fill(0.0),
                    }
                }
            }
        }
        t.transform_input_lanes::<LANES>(
            &s.x,
            &mut s.tmp,
            &mut y_group[ci * LANES..],
            c_in * LANES,
        );
    }
}

/// Phase 2 for one lane group and one output channel: CSR reduction over
/// the staged rows, lane-parallel inverse transform, then the tiles (plus
/// bias) scattered into the channel's stripe.
///
/// Kept out of line: inlined into the band loop, the reduction's
/// accumulator lanes spill to the stack and the whole executor runs at
/// less than half speed.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn reduce_group(
    l: &Layout<'_>,
    stream: &CoStream,
    bias: f32,
    y_group: &[f32],
    tile0: usize,
    lanes: usize,
    s: &mut LaneScratch,
    plane: &mut [f32],
) {
    let t = l.prob.transform;
    let (m, ow) = (t.tile(), l.out_w);
    let row_len = l.prob.c_in * LANES;
    // Coefficient `j`'s accumulator lanes live in registers across its
    // whole channel reduction; each kept weight is one LANES-wide
    // broadcast multiply–accumulate from the staged row.
    for ((row, span), u) in y_group
        .chunks(row_len)
        .zip(stream.starts.windows(2))
        .zip(s.u.chunks_mut(LANES))
    {
        let kept = span[0] as usize..span[1] as usize;
        // Four-wide sub-arrays map one-to-one onto SIMD registers; a flat
        // `[f32; LANES]` accumulator vectorizes off by one lane, with
        // scalar head and tail operations.
        let mut acc = [[0.0_f32; 4]; LANES / 4];
        for (&w, &ci) in stream.values[kept.clone()].iter().zip(&stream.ci[kept]) {
            let src = &row[ci as usize * LANES..][..LANES];
            for (a, y) in acc.iter_mut().zip(src.chunks_exact(4)) {
                for (a, &yv) in a.iter_mut().zip(y) {
                    *a += w * yv;
                }
            }
        }
        for (u, a) in u.chunks_exact_mut(4).zip(&acc) {
            u.copy_from_slice(a);
        }
    }
    t.inverse_lanes::<LANES>(&s.u, &mut s.tmp, &mut s.v);
    // A run's tiles are adjacent in the output: each of its pixel rows
    // is one contiguous span, cut at the frame edge (partial last tile
    // or tile row).
    for run in runs(tile0, lanes, l.tx_n) {
        let rows = plane[run.row * m * ow..].chunks_mut(ow).take(m);
        for (vy, out_row) in rows.enumerate() {
            // Column `vx` of every tile of the run is one lane vector,
            // written `m` apart; a partial last tile ends the span early.
            for (vx, v_row) in s.v[vy * m * LANES..].chunks(LANES).take(m).enumerate() {
                let span = out_row.iter_mut().skip(run.tx0 * m + vx).step_by(m);
                for (o, &v) in span.zip(&v_row[run.lane0..][..run.len]) {
                    *o = v + bias;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::{pack_co_streams, prune, SparseKernel, Sparsity};
    use crate::{fta_t3_6x6_4x4, winograd_f2x2_3x3};
    use nvc_tensor::init::{randn_vec, SplitMix64};
    use nvc_tensor::mat::Mat;

    /// Random kernels pruned to `rho`, packed as the executor wants them.
    fn streams(t: &TransformPair, c_out: usize, c_in: usize, rho: f64, seed: u64) -> Vec<CoStream> {
        let k = t.kernel();
        let rho = Sparsity::new(rho).unwrap();
        let kernels: Vec<SparseKernel> = (0..c_out * c_in)
            .map(|i| {
                let w = Mat::from_vec(k, k, randn_vec(k * k, 1.0, seed + i as u64)).unwrap();
                let e = t.transform_kernel(&w).unwrap();
                SparseKernel::from_dense(&prune(t, &e, rho).unwrap().masked).unwrap()
            })
            .collect();
        pack_co_streams(&kernels, c_in)
    }

    /// Band size is a schedule, not arithmetic: one lane group per band,
    /// the default and the whole stripe in one band give the same bits,
    /// at every worker count (which moves the stripe boundaries the
    /// bands are cut from), for both families, dense and pruned.
    #[test]
    fn band_size_and_worker_count_never_change_the_output() {
        let mut rng = SplitMix64::new(0x7E57_BA2D);
        let (c_in, c_out) = (6, 5);
        let bias: Vec<f32> = (0..c_out).map(|co| co as f32 * 0.125 - 0.25).collect();
        for (t, (h, w)) in [
            // 32×39 tiles = 39 lane groups: two default bands when serial.
            (winograd_f2x2_3x3(), (63, 77)),
            // 15×19 tiles = 9 lane groups of 12 288 floats: two bands.
            (fta_t3_6x6_4x4(), (44, 56)),
        ] {
            let data = (0..c_in * h * w)
                .map(|_| rng.next_f32() * 4.0 - 2.0)
                .collect();
            let x = Tensor::from_vec(Shape::new(1, c_in, h, w), data).unwrap();
            for rho in [0.0, 0.5, 0.9] {
                let streams = streams(&t, c_out, c_in, rho, rng.next_u64() % 500);
                let prob = TileProblem {
                    transform: &t,
                    streams: &streams,
                    bias: &bias,
                    c_in,
                };
                let want = forward_banded(&prob, &x, &ExecCtx::serial(), usize::MAX).unwrap();
                for band_floats in [1, BAND_FLOATS, usize::MAX] {
                    for workers in [1, 2, 3, 4, 7, 64] {
                        let ctx = ExecCtx::with_threads(workers);
                        let got = forward_banded(&prob, &x, &ctx, band_floats).unwrap();
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "{} rho={rho} band={band_floats} workers={workers}",
                            t.name()
                        );
                    }
                }
            }
        }
    }

    /// A recycled staging buffer full of garbage must not leak into the
    /// output: the band is taken without a memset.
    #[test]
    fn stale_staging_contents_are_never_read() {
        let t = winograd_f2x2_3x3();
        let streams = streams(&t, 3, 2, 0.5, 7);
        let prob = TileProblem {
            transform: &t,
            streams: &streams,
            bias: &[0.0; 3],
            c_in: 2,
        };
        let x = Tensor::from_fn(Shape::new(1, 2, 9, 7), |_, c, y, xx| {
            (c * 63 + y * 7 + xx) as f32 * 0.01
        });
        let clean = forward_tiled(&prob, &x, &ExecCtx::serial()).unwrap();
        let dirty = ExecCtx::serial();
        dirty.scratch().put(vec![f32::NAN; 1 << 16]);
        let got = forward_tiled(&prob, &x, &dirty).unwrap();
        assert_eq!(got.as_slice(), clean.as_slice());
    }
}
