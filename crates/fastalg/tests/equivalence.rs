//! Randomized-but-deterministic equivalence tests: the fast
//! (transform-domain) operators must reproduce the direct operators for
//! arbitrary inputs and weights, and pruning must behave monotonically.
//! Case generation uses the in-tree SplitMix64 PRNG from `nvc-tensor`.
//! Both families run through the one [`FastLayer`] type, so the
//! per-family cases are rows of one table ([`FAMILIES`]).

use nvc_core::ExecCtx;
use nvc_fastalg::{fta_t3_6x6_4x4, prune, winograd_f2x2_3x3, FastLayer, Sparsity};
use nvc_tensor::init::SplitMix64;
use nvc_tensor::mat::Mat;
use nvc_tensor::ops::{Conv2d, DeConv2d};
use nvc_tensor::{Shape, Tensor};

const CASES: usize = 32;

fn rand_tensor(rng: &mut SplitMix64, c: usize, h: usize, w: usize) -> Tensor {
    let data: Vec<f32> = (0..c * h * w).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
    Tensor::from_vec(Shape::new(1, c, h, w), data).unwrap()
}

/// Either direct operator's `forward_ctx`.
type Direct = Box<dyn Fn(&Tensor, &ExecCtx) -> Tensor>;

/// A seeded direct operator and the fast layer built from it at sparsity
/// `rho`.
struct Pair {
    direct: Direct,
    fast: FastLayer,
}

/// Builds a [`Pair`] from `(c_out, c_in, seed, rho)`.
type Family = fn(usize, usize, u64, f64) -> Pair;

fn conv_pair(c_out: usize, c_in: usize, seed: u64, rho: f64) -> Pair {
    let conv = Conv2d::randn(c_out, c_in, 3, 1, 1, seed).unwrap();
    let fast = FastLayer::from_conv_pruned(&conv, Sparsity::new(rho).unwrap()).unwrap();
    let direct = Box::new(move |x: &Tensor, ctx: &ExecCtx| conv.forward_ctx(x, ctx).unwrap());
    Pair { direct, fast }
}

fn deconv_pair(c_out: usize, c_in: usize, seed: u64, rho: f64) -> Pair {
    let deconv = DeConv2d::randn(c_out, c_in, 4, 2, 1, seed).unwrap();
    let fast = FastLayer::from_deconv_pruned(&deconv, Sparsity::new(rho).unwrap()).unwrap();
    let direct = Box::new(move |x: &Tensor, ctx: &ExecCtx| deconv.forward_ctx(x, ctx).unwrap());
    Pair { direct, fast }
}

/// Winograd `F(2×2, 3×3)` over 3×3/s1/p1 convolutions, FTA `T3(6×6, 4×4)`
/// over 4×4/s2/p1 deconvolutions.
const FAMILIES: [(&str, Family); 2] = [("conv", conv_pair), ("deconv", deconv_pair)];

/// The dense fast layer equals its direct operator for any input.
fn fast_equals_direct(
    family: Family,
    seed: u64,
    (c_out, c_in, h, w): (usize, usize, usize, usize),
) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..CASES {
        let x = rand_tensor(&mut rng, c_in, h, w);
        let pair = family(c_out, c_in, rng.next_u64() % 500, 0.0);
        let direct = (pair.direct)(&x, &ExecCtx::serial());
        let fastv = pair.fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert_eq!(direct.shape(), fastv.shape());
        let scale = direct.max_abs().max(1.0);
        assert!(direct.sub(&fastv).unwrap().max_abs() < 1e-3 * scale);
    }
}

/// Winograd F(2x2,3x3) equals direct 3x3 convolution for any input.
#[test]
fn fast_conv_equals_direct() {
    fast_equals_direct(conv_pair, 0xFA57_0001, (4, 3, 9, 11));
}

/// FTA T3(6x6,4x4) equals direct 4x4 stride-2 deconvolution.
#[test]
fn fast_deconv_equals_direct() {
    fast_equals_direct(deconv_pair, 0xFA57_0002, (3, 2, 7, 5));
}

/// Pruning is monotone: higher sparsity keeps a subset of the scores,
/// and kept counts decrease.
#[test]
fn pruning_is_monotone() {
    let mut rng = SplitMix64::new(0xFA57_0003);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        for t in [winograd_f2x2_3x3(), fta_t3_6x6_4x4()] {
            let k = t.kernel();
            let w = Mat::from_vec(k, k, nvc_tensor::init::randn_vec(k * k, 1.0, seed)).unwrap();
            let e = t.transform_kernel(&w).unwrap();
            let mut prev_kept = usize::MAX;
            for rho in [0.0, 0.25, 0.5, 0.75] {
                let rep = prune(&t, &e, Sparsity::new(rho).unwrap()).unwrap();
                assert!(rep.kept <= prev_kept);
                assert_eq!(rep.kept + rep.pruned, t.mu() * t.mu());
                prev_kept = rep.kept;
            }
        }
    }
}

/// The masked kernel always has its non-zeros among the original
/// kernel's positions (pruning never invents weights).
#[test]
fn pruning_never_invents_weights() {
    let mut rng = SplitMix64::new(0xFA57_0004);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 500;
        let t = fta_t3_6x6_4x4();
        let w = Mat::from_vec(4, 4, nvc_tensor::init::randn_vec(16, 1.0, seed)).unwrap();
        let e = t.transform_kernel(&w).unwrap();
        let rep = prune(&t, &e, Sparsity::new(0.5).unwrap()).unwrap();
        for (orig, masked) in e.as_slice().iter().zip(rep.masked.as_slice()) {
            assert!(*masked == 0.0 || masked == orig);
        }
    }
}

/// Worker counts the determinism sweep exercises: serial, even/odd
/// splits, more workers than work.
const THREAD_SWEEP: [usize; 4] = [1, 2, 5, 16];

/// Parallel execution of every parallelized operator is bit-identical to
/// serial execution — the partition is over output channels/tiles only
/// and each accumulation keeps a fixed summation order.
#[test]
fn parallel_operators_are_bit_exact() {
    let mut rng = SplitMix64::new(0xFA57_0006);
    for case in 0..8 {
        // Odd sizes force partial tiles and uneven chunk partitions.
        let x = rand_tensor(&mut rng, 3, 11, 13);
        let seed = rng.next_u64() % 500;
        for (name, family) in FAMILIES {
            let pair = family(5, 3, seed, 0.25 * (case % 3) as f64);
            let direct_ref = (pair.direct)(&x, &ExecCtx::serial());
            let fast_ref = pair.fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            for threads in THREAD_SWEEP {
                let ctx = ExecCtx::with_threads(threads);
                assert_eq!(
                    (pair.direct)(&x, &ctx).as_slice(),
                    direct_ref.as_slice(),
                    "direct {name} diverged at {threads} threads"
                );
                assert_eq!(
                    pair.fast.forward_ctx(&x, &ctx).unwrap().as_slice(),
                    fast_ref.as_slice(),
                    "fast {name} diverged at {threads} threads"
                );
            }
        }
    }
}

/// A layer large enough to split into many staging bands per stripe (the
/// tiled executor stages a cache-sized band at a time) still matches the
/// direct operator and stays bit-exact across thread counts.
#[test]
fn multi_band_execution_matches_direct() {
    let mut rng = SplitMix64::new(0xFA57_0008);
    // 64 in-channels at 96x96 -> 192x192 output: 32x32 FTA tiles at
    // 64·64 floats each = one lane group per band, 32 bands.
    let x = rand_tensor(&mut rng, 64, 96, 96);
    let Pair { direct, fast } = deconv_pair(3, 64, 901, 0.0);
    let direct = direct(&x, &ExecCtx::serial());
    let fastv = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
    assert_eq!(direct.shape(), fastv.shape());
    let scale = direct.max_abs().max(1.0);
    assert!(direct.sub(&fastv).unwrap().max_abs() < 1e-2 * scale);
    let par = fast.forward_ctx(&x, &ExecCtx::with_threads(4)).unwrap();
    assert_eq!(fastv.as_slice(), par.as_slice());
}

/// A context's scratch pool is reused across calls without leaking state
/// between forward passes.
#[test]
fn scratch_reuse_does_not_change_results() {
    let mut rng = SplitMix64::new(0xFA57_0007);
    let ctx = ExecCtx::with_threads(3);
    let fast = conv_pair(4, 2, 42, 0.0).fast;
    for _ in 0..4 {
        let x = rand_tensor(&mut rng, 2, 9, 7);
        let fresh = fast.forward_ctx(&x, &ExecCtx::with_threads(3)).unwrap();
        let reused = fast.forward_ctx(&x, &ctx).unwrap();
        assert_eq!(fresh.as_slice(), reused.as_slice());
    }
}

/// Reference "dense application" of a fast layer's (possibly pruned)
/// kernels: the padded-buffer execution the executor used before
/// compressed-kernel execution — per tile, every kernel multiplies all
/// µ² positions (pruned positions contribute exactly `+0.0`), `c_in`
/// ascending. The compressed executor must match this **bit for bit**:
/// an IEEE-754 accumulator seeded with `+0.0` is unaffected by adding
/// the `±0.0` of a pruned position. One reference for both families: the
/// output is the input's size times the transform's tile-to-step ratio.
fn dense_apply(fast: &FastLayer, input: &Tensor) -> Tensor {
    let t = fast.transform();
    let (c_in, c_out) = (fast.c_in(), fast.c_out());
    let (_, _, h, w) = input.shape().dims();
    let scale = t.tile() / t.in_step();
    let (oh, ow) = (scale * h, scale * w);
    let (p, m, mu) = (t.patch(), t.tile(), t.mu());
    let mu2 = mu * mu;
    let n = input.shape().n();
    let (ty_n, tx_n) = (oh.div_ceil(m), ow.div_ceil(m));
    let step = t.in_step();
    let offset = t.in_offset() as isize;
    let mut out = Tensor::zeros(Shape::new(n, c_out, oh, ow));
    // Padded dense buffers reconstructed from the compressed kernels.
    let dense: Vec<Vec<f32>> = (0..c_out)
        .flat_map(|co| (0..c_in).map(move |ci| (co, ci)))
        .map(|(co, ci)| fast.kernel(co, ci).to_dense().as_slice().to_vec())
        .collect();
    let mut patch = vec![0.0_f32; p * p];
    let mut y_tiles = vec![0.0_f32; c_in * mu2];
    let mut u_acc = vec![0.0_f32; mu2];
    let mut v = vec![0.0_f32; m * m];
    for nn in 0..n {
        for ty in 0..ty_n {
            for tx in 0..tx_n {
                let iy0 = (ty * step) as isize - offset;
                let ix0 = (tx * step) as isize - offset;
                for ci in 0..c_in {
                    for py in 0..p {
                        for px in 0..p {
                            patch[py * p + px] =
                                input.at_padded(nn, ci, iy0 + py as isize, ix0 + px as isize);
                        }
                    }
                    t.transform_input_slice(&patch, &mut y_tiles[ci * mu2..ci * mu2 + mu2]);
                }
                for co in 0..c_out {
                    u_acc.iter_mut().for_each(|a| *a = 0.0);
                    for ci in 0..c_in {
                        let e = &dense[co * c_in + ci];
                        let y = &y_tiles[ci * mu2..][..mu2];
                        for ((a, &ev), &yv) in u_acc.iter_mut().zip(e).zip(y) {
                            *a += ev * yv;
                        }
                    }
                    t.inverse_slice(&u_acc, &mut v);
                    for vy in 0..m.min(oh - ty * m) {
                        for vx in 0..m.min(ow - tx * m) {
                            *out.at_mut(nn, co, ty * m + vy, tx * m + vx) = v[vy * m + vx];
                        }
                    }
                }
            }
        }
    }
    out
}

/// The stripe-parallel executor against dense application, bit for bit,
/// across everything that decides *where* a tile is computed but must
/// never enter *what* is computed: worker counts from serial to more
/// workers than tile rows (stripe boundaries, and with them the lane
/// grouping, move with every count), both transform families, every
/// pruning level including none, frames that are not tile multiples and
/// a frame that is a single tile.
#[test]
fn stripe_execution_matches_dense_application_for_every_worker_count() {
    const WORKERS: [usize; 6] = [1, 2, 3, 4, 7, 64];
    let mut rng = SplitMix64::new(0xFA57_000B);
    for rho in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let seed = rng.next_u64() % 500;
        // The first frame of each family carries enough work to clear
        // the executor's fan-out gate at every pruning level (19 and 8
        // tile rows, so 64 workers outnumber both); the others are a
        // thin frame and a single tile.
        let frames = [
            ((5, 6), [(37, 41), (5, 33), (2, 2)]),
            ((4, 3), [(23, 25), (4, 17), (3, 3)]),
        ];
        for ((name, family), ((c_out, c_in), sizes)) in FAMILIES.into_iter().zip(frames) {
            let fast = family(c_out, c_in, seed, rho).fast;
            for (h, w) in sizes {
                let x = rand_tensor(&mut rng, c_in, h, w);
                let want = dense_apply(&fast, &x);
                for workers in WORKERS {
                    let got = fast.forward_ctx(&x, &ExecCtx::with_threads(workers));
                    assert_eq!(
                        got.unwrap().as_slice(),
                        want.as_slice(),
                        "{name} {h}x{w} rho={rho} workers={workers}"
                    );
                }
            }
        }
    }
}

/// Satellite coverage for compressed-kernel execution: at every pruning
/// level the executor consumes the `(value, index)` form, and the result
/// must be bit-for-bit identical to applying the same pruned kernels
/// densely over a zero-padded buffer.
#[test]
fn sparse_apply_matches_dense_apply_bit_for_bit() {
    let mut rng = SplitMix64::new(0xFA57_0009);
    for rho in [0.25, 0.5, 0.75, 0.9] {
        for case in 0..4 {
            // Odd sizes force partial tiles at the right/bottom borders.
            let x = rand_tensor(&mut rng, 3, 11, 13);
            let seed = rng.next_u64() % 500;
            let conv = Conv2d::randn(4, 3, 3, 1, 1, seed).unwrap();
            let fast = FastLayer::from_conv_pruned(&conv, Sparsity::new(rho).unwrap()).unwrap();
            let reference = dense_apply(&fast, &x);
            let got = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            assert_eq!(
                got.as_slice(),
                reference.as_slice(),
                "rho={rho} case={case}: compressed execution diverged from dense application"
            );
            // Bias rides on top of the tile sums; re-check with one.
            let mut biased = conv.clone();
            biased.bias_mut()[1] = 0.375;
            let fast_b = FastLayer::from_conv_pruned(&biased, Sparsity::new(rho).unwrap()).unwrap();
            let with_bias = fast_b.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            let base = fast.forward_ctx(&x, &ExecCtx::serial()).unwrap();
            for c in 0..4 {
                let expect = if c == 1 { 0.375 } else { 0.0 };
                let d = with_bias
                    .as_slice()
                    .iter()
                    .zip(base.as_slice())
                    .skip(c * 11 * 13)
                    .take(11 * 13)
                    .map(|(a, b)| (a - b - expect).abs())
                    .fold(0.0_f32, f32::max);
                assert!(d < 1e-6, "rho={rho}: bias handling drifted by {d}");
            }
        }
    }
}

/// The deconv executor's compressed path must also match dense
/// application bit for bit at every pruning level. (The executor is
/// shared with conv, but the T3 geometry exercises µ = 8 and the
/// two-phase output tiling differently.)
#[test]
fn sparse_deconv_matches_sparsely_reconstructed_dense_kernels() {
    let mut rng = SplitMix64::new(0xFA57_000A);
    for rho in [0.25, 0.5, 0.75, 0.9] {
        let x = rand_tensor(&mut rng, 2, 7, 5);
        let fast = deconv_pair(3, 2, rng.next_u64() % 500, rho).fast;
        assert_eq!(
            fast.forward_ctx(&x, &ExecCtx::serial()).unwrap().as_slice(),
            dense_apply(&fast, &x).as_slice(),
            "rho={rho}: deconv compressed execution diverged from dense application"
        );
    }
}

/// A sparse fast conv at rho=0 equals the dense fast conv exactly.
#[test]
fn zero_sparsity_equals_dense() {
    let mut rng = SplitMix64::new(0xFA57_0005);
    for _ in 0..CASES {
        let x = rand_tensor(&mut rng, 2, 6, 6);
        let seed = rng.next_u64() % 200;
        let conv = Conv2d::randn(2, 2, 3, 1, 1, seed).unwrap();
        let dense = FastLayer::from_conv(&conv).unwrap();
        let rho0 = FastLayer::from_conv_pruned(&conv, Sparsity::dense()).unwrap();
        let a = dense.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        let b = rho0.forward_ctx(&x, &ExecCtx::serial()).unwrap();
        assert!(a.sub(&b).unwrap().max_abs() == 0.0);
    }
}
