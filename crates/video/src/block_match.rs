//! The one full-search block matcher both codec families call: the CTVC
//! motion search (`nvc_model::motion`, the stand-in for the paper's
//! motion-estimation CNN) and the hybrid anchor's (`nvc_baseline`).
//!
//! A [`BlockMatcher`] pads the reference once, by the search range plus
//! one, under a [`Fill`] rule, so every candidate reads whole row slices.
//! For each block it sums the zero vector's cost in full and seeds the
//! bound with it; scans the `(2r + 1)²` full-pel candidates in raster
//! order, each `dy` row in lockstep groups of [`LANES`] adjacent `dx` and
//! the `(2r + 1) mod LANES` left over one at a time; and optionally
//! refines the winner at its half-pel neighbours. Every candidate leaves
//! as soon as its partial cost can no longer win. A family's [`Rules`]
//! hold what differs between the two codecs.
//!
//! # Exactness
//!
//! The result is bit-identical to [`reference_search`], which sums every
//! sample of every candidate through the fill rule and the sample
//! expression, in raster order, without an exit:
//!
//! - A candidate wins only below its bound: the best cost so far, or the
//!   next float above it where an equal cost wins. A cost is an f64 sum,
//!   in raster order, of terms `|c − r| as f64`, each `≥ 0` or NaN, plus
//!   a penalty. Under round-to-nearest `fl(acc + t) >= acc` for `t >= 0`
//!   and `fl(a + pen)` is monotone in `a`, so once `acc + pen` reaches
//!   the bound the finished cost does too, and dropping the candidate
//!   changes nothing. NaN compares false on both paths, so a NaN cost is
//!   never dropped early and never wins. Kept candidates carry the
//!   reference's bits: the lanes and the padded rows add the same terms
//!   in the same order.
//! - A lockstep group prunes against the bounds as they stood when it
//!   began. The best only falls along raster order, so a lane that
//!   reached its snapshot would also have lost to the later, lower best;
//!   the survivors are offered in order against the current one.
//! - The seed is the zero vector's own full cost, so offering the zero
//!   vector again changes nothing. Under [`Ties::Zero`] the reference
//!   starts from that cost. Under [`Ties::Raster`] it starts from `+∞`
//!   and meets the zero vector at its place in raster order, so while
//!   the seed is best, a candidate before it wins an equal finite cost;
//!   a zero vector costing `+∞` or NaN seeds `+∞`.

/// How many horizontally adjacent full-pel candidates one lockstep group
/// sums at once.
pub const LANES: usize = 8;

/// What the padded margin of the reference holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// `0.0`, the value `Tensor::at_padded` reads outside a plane.
    Zero,
    /// The nearest plane sample, as a clamp-to-edge read gives.
    Edge,
}

/// How a candidate whose cost equals the best's breaks the tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ties {
    /// The zero vector is offered first, so it keeps every tie.
    Zero,
    /// The candidate earlier in raster order wins, the zero vector
    /// included.
    Raster,
}

/// The sample expression at a half-pel position. Whole-pel positions
/// read the sample itself under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HalfPel {
    /// `Tensor::sample_bilinear`'s four-term form, zero-weight taps
    /// included, so a non-finite tap of weight 0 still gives NaN.
    Bilinear,
    /// The mean of the two (or four) taps, as `Plane::at_half_pel` in
    /// `nvc_baseline` computes it.
    Average,
}

impl HalfPel {
    /// The sample between the taps `v00 v01` (row `iy`) and `v10 v11`
    /// (row `iy + 1`) at parity `(fy, fx)`, where `true` is a half step
    /// down or right; at least one of the two is `true`.
    #[inline]
    pub fn sample(self, [v00, v01, v10, v11]: [f32; 4], fy: bool, fx: bool) -> f32 {
        match self {
            HalfPel::Bilinear => {
                let dy: f32 = if fy { 0.5 } else { 0.0 };
                let dx: f32 = if fx { 0.5 } else { 0.0 };
                let (ey, ex) = (1.0 - dy, 1.0 - dx);
                v00 * ey * ex + v01 * ey * dx + v10 * dy * ex + v11 * dy * dx
            }
            HalfPel::Average => match (fy, fx) {
                (false, _) => 0.5 * (v00 + v01),
                (true, false) => 0.5 * (v00 + v10),
                (true, true) => 0.25 * (v00 + v01 + v10 + v11),
            },
        }
    }
}

/// What one codec family's search does differently from the other's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rules {
    /// Added per unit of `|dy| + |dx|` (whole pels) to a full-pel
    /// candidate's SAD; half-pel candidates carry none.
    pub penalty: f64,
    /// How ties with the zero vector break in the full-pel scan.
    pub ties: Ties,
    /// Whether the half-pel refinement offers the full-pel winner again,
    /// without its penalty.
    pub recheck_centre: bool,
    /// The half-pel sample expression.
    pub half_pel: HalfPel,
}

impl Rules {
    /// The CTVC motion search (`nvc_model::motion`, zero fill).
    pub const CTVC: Rules = Rules {
        penalty: 0.02,
        ties: Ties::Zero,
        recheck_centre: false,
        half_pel: HalfPel::Bilinear,
    };

    /// The hybrid anchor's motion search (`nvc_baseline`, edge fill).
    pub const HYBRID: Rules = Rules {
        penalty: 0.01,
        ties: Ties::Raster,
        recheck_centre: true,
        half_pel: HalfPel::Average,
    };
}

/// A block `(by, bx, bs)`: its top-left sample and the side of its
/// square, clipped to the plane's edges.
pub type Block = (usize, usize, usize);

/// The `block × block` grid cells of a `w × h` plane in raster order,
/// each as the square `bs = min(block, h − by, w − bx)`: near a ragged
/// edge a block covers less than its cell.
pub fn blocks(w: usize, h: usize, block: usize) -> Vec<Block> {
    (0..h)
        .step_by(block)
        .flat_map(|by| (0..w).step_by(block).map(move |bx| (by, bx)))
        .map(|(by, bx)| (by, bx, block.min(h - by).min(w - bx)))
        .collect()
}

/// A plane padded by `pad` samples on every side under a [`Fill`] rule.
#[derive(Debug)]
struct Padded {
    data: Vec<f32>,
    stride: usize,
    pad: usize,
}

impl Padded {
    fn new(plane: &[f32], (w, h): (usize, usize), pad: usize, fill: Fill) -> Self {
        let stride = w + 2 * pad;
        let mut data = Vec::with_capacity(stride * (h + 2 * pad));
        for y in 0..h + 2 * pad {
            let row = &plane[y.saturating_sub(pad).min(h - 1) * w..][..w];
            match fill {
                Fill::Zero if !(pad..pad + h).contains(&y) => data.resize(data.len() + stride, 0.0),
                Fill::Zero => {
                    data.resize(data.len() + pad, 0.0);
                    data.extend_from_slice(row);
                    data.resize(data.len() + pad, 0.0);
                }
                Fill::Edge => {
                    data.extend(std::iter::repeat_n(row[0], pad));
                    data.extend_from_slice(row);
                    data.extend(std::iter::repeat_n(row[w - 1], pad));
                }
            }
        }
        Padded { data, stride, pad }
    }

    /// The `len` samples of row `y` from column `x`, in plane coordinates
    /// that may lie up to `pad` outside the plane.
    fn row(&self, y: isize, x: isize, len: usize) -> &[f32] {
        let at = (y + self.pad as isize) as usize * self.stride + (x + self.pad as isize) as usize;
        &self.data[at..at + len]
    }

    /// `acc` plus `|c − r| as f64` for each sample `c` of `cur`, in order,
    /// where `r` is this plane at half-pel position `(y2, x2 + 2i)` for
    /// `cur[i]`: read directly at whole-pel positions, through `expr`
    /// (all four taps read) at the others.
    fn add_row_sad(&self, acc: f64, cur: &[f32], (y2, x2): (isize, isize), expr: HalfPel) -> f64 {
        let (iy, fy) = (y2.div_euclid(2), y2.rem_euclid(2) == 1);
        let (ix, fx) = (x2.div_euclid(2), x2.rem_euclid(2) == 1);
        let n = cur.len();
        if !fy && !fx {
            let r = self.row(iy, ix, n);
            return cur
                .iter()
                .zip(r)
                .fold(acc, |acc, (&c, &r)| acc + (c - r).abs() as f64);
        }
        let (r0, r1) = (self.row(iy, ix, n + 1), self.row(iy + 1, ix, n + 1));
        cur.iter()
            .zip(r0.windows(2).zip(r1.windows(2)))
            .fold(acc, |acc, (&c, (a, b))| {
                acc + (c - expr.sample([a[0], a[1], b[0], b[1]], fy, fx)).abs() as f64
            })
    }

    /// [`Padded::add_row_sad`] at the [`LANES`] adjacent whole-pel
    /// positions `(y, x + l)`, lane `l` into `acc[l]`: one row of `cur`
    /// against one slice of `cur.len() + LANES − 1` samples. Each lane adds
    /// the same terms in the same order as the one-position sum, so its
    /// bits are the same; the lanes are independent chains, free to run
    /// side by side.
    fn add_row_sad_lanes(&self, acc: &mut [f64; LANES], cur: &[f32], y: isize, x: isize) {
        let r = self.row(y, x, cur.len() + LANES - 1);
        for (i, &c) in cur.iter().enumerate() {
            let window: &[f32; LANES] = r[i..i + LANES].try_into().expect("LANES samples");
            for (a, &r) in acc.iter_mut().zip(window) {
                *a += (c - r).abs() as f64;
            }
        }
    }
}

/// A current plane, a padded reference and the rules of one search; see
/// the module docs.
#[derive(Debug)]
pub struct BlockMatcher<'a> {
    cur: &'a [f32],
    w: usize,
    reference: Padded,
    range: i32,
    refine: bool,
    rules: Rules,
}

impl<'a> BlockMatcher<'a> {
    /// A matcher for `±range` whole pels (negative is 0), refined to half
    /// pels if `refine`, between the row-major `w × h` planes `cur` and
    /// `reference`. The reference is copied once, padded by `range + 1`
    /// samples on every side under `fill`, so memory grows with `range²`.
    ///
    /// # Panics
    ///
    /// Panics if either plane is empty or not `w · h` samples long.
    pub fn new(
        cur: &'a [f32],
        reference: &[f32],
        (w, h): (usize, usize),
        (range, refine): (i32, bool),
        fill: Fill,
        rules: Rules,
    ) -> Self {
        assert!(w > 0 && h > 0, "plane must be non-empty");
        assert!(
            cur.len() == w * h && reference.len() == w * h,
            "plane length"
        );
        let range = range.max(0);
        let reference = Padded::new(reference, (w, h), range as usize + 1, fill);
        BlockMatcher {
            cur,
            w,
            reference,
            range,
            refine,
            rules,
        }
    }

    /// The best vector `mv` for `block` under the matcher's rules, in
    /// half-pel units (`cur(y, x) ≈ ref(y + mv.0 / 2, x + mv.1 / 2)`; even
    /// without refinement), and the zero vector's SAD, summed in full.
    pub fn search(&self, block: Block) -> ((i32, i32), f64) {
        let r = self.range;
        // A NaN bound drops nothing: the seed is summed in full.
        let zero_cost = self.cost(block, (0, 0), 0.0, f64::NAN).unwrap_or(f64::NAN);
        let raster = self.rules.ties == Ties::Raster;
        // (cost, half-pel vector) of the best so far. Under raster ties a
        // NaN seed is +∞; `f64::min` drops a NaN operand.
        let cap = if raster { f64::INFINITY } else { f64::NAN };
        let mut best = (zero_cost.min(cap), (0, 0));
        // The bound full-pel candidate (dy, dx) must stay under to win.
        let bound = |(cost, mv): (f64, (i32, i32)), dy: i32, dx: i32| {
            if raster && mv == (0, 0) && (dy, dx) < (0, 0) {
                cost.next_up()
            } else {
                cost
            }
        };
        let groups = (2 * r + 1) as usize / LANES;
        let tail = -r + (groups * LANES) as i32;
        for dy in -r..=r {
            let pen = |dx: i32| self.rules.penalty * (dy.abs() + dx.abs()) as f64;
            for dx0 in (-r..tail).step_by(LANES) {
                let lanes = std::array::from_fn(|l| {
                    let dx = dx0 + l as i32;
                    (pen(dx), bound(best, dy, dx))
                });
                for (dx, cost) in (dx0..).zip(self.group_costs(block, (dy, dx0), lanes)) {
                    if let Some(c) = cost.filter(|&c| c < bound(best, dy, dx)) {
                        best = (c, (2 * dy, 2 * dx));
                    }
                }
            }
            for dx in tail..=r {
                let limit = bound(best, dy, dx);
                let cost = self.cost(block, (2 * dy, 2 * dx), pen(dx), limit);
                if let Some(c) = cost.filter(|&c| c < limit) {
                    best = (c, (2 * dy, 2 * dx));
                }
            }
        }
        if self.refine {
            let (cy, cx) = best.1;
            for (sy, sx) in (-1..=1).flat_map(|sy| (-1..=1).map(move |sx| (sy, sx))) {
                if (sy, sx) != (0, 0) || self.rules.recheck_centre {
                    let mv = (cy + sy, cx + sx);
                    let cost = self.cost(block, mv, 0.0, best.0);
                    if let Some(c) = cost.filter(|&c| c < best.0) {
                        best = (c, mv);
                    }
                }
            }
        }
        (best.1, zero_cost)
    }

    /// The cost of the half-pel vector `mv` for `block`: its SAD in raster
    /// order plus `pen`, or `None` after the first row that leaves the
    /// running `acc + pen` at or above `bound`.
    fn cost(&self, (by, bx, bs): Block, mv: (i32, i32), pen: f64, bound: f64) -> Option<f64> {
        let (my, mx, expr) = (mv.0 as isize, mv.1 as isize, self.rules.half_pel);
        let mut acc = 0.0_f64;
        for y in by..by + bs {
            let row = &self.cur[y * self.w + bx..][..bs];
            let at = (2 * y as isize + my, 2 * bx as isize + mx);
            acc = self.reference.add_row_sad(acc, row, at, expr);
            if acc + pen >= bound {
                return None;
            }
        }
        Some(acc + pen)
    }

    /// [`BlockMatcher::cost`] for the [`LANES`] full-pel candidates
    /// `(dy, dx0 + l)` at once, lane `l` with its `(penalty, bound)`: the
    /// lanes add each row of the block in lockstep, a lane dies after the
    /// first row that leaves it at or above its bound, and the rows stop
    /// once every lane is dead. Dead lanes are `None`; a live lane
    /// carries the bits `cost` gives the same candidate.
    fn group_costs(
        &self,
        (by, bx, bs): Block,
        (dy, dx0): (i32, i32),
        lanes: [(f64, f64); LANES],
    ) -> [Option<f64>; LANES] {
        let mut acc = [0.0_f64; LANES];
        let mut dead = [false; LANES];
        for y in by..by + bs {
            let row = &self.cur[y * self.w + bx..][..bs];
            let (ry, rx) = (y as isize + dy as isize, bx as isize + dx0 as isize);
            self.reference.add_row_sad_lanes(&mut acc, row, ry, rx);
            for l in 0..LANES {
                dead[l] |= acc[l] + lanes[l].0 >= lanes[l].1;
            }
            if dead.iter().all(|&d| d) {
                break;
            }
        }
        std::array::from_fn(|l| (!dead[l]).then(|| acc[l] + lanes[l].0))
    }
}

/// The scalar search a [`BlockMatcher`] answers to, bit for bit: every
/// sample of every candidate read through the fill rule and the sample
/// expression, summed in raster order without an exit, the candidates
/// offered in raster order with a strict `<`. Returns what
/// [`BlockMatcher::search`] returns for the same arguments. It reads
/// `(2r + 1)²` full candidates per block and is meant for tests.
pub fn reference_search(
    (cur, reference): (&[f32], &[f32]),
    (w, h): (usize, usize),
    (range, refine): (i32, bool),
    fill: Fill,
    rules: Rules,
    (by, bx, bs): Block,
) -> ((i32, i32), f64) {
    let at = |y: isize, x: isize| {
        let inside = (0..h as isize).contains(&y) && (0..w as isize).contains(&x);
        let (y, x) = (y.clamp(0, h as isize - 1), x.clamp(0, w as isize - 1));
        match fill {
            Fill::Zero if !inside => 0.0,
            _ => reference[y as usize * w + x as usize],
        }
    };
    let sample = |y2: isize, x2: isize| {
        let (iy, fy) = (y2.div_euclid(2), y2.rem_euclid(2) == 1);
        let (ix, fx) = (x2.div_euclid(2), x2.rem_euclid(2) == 1);
        if !fy && !fx {
            return at(iy, ix);
        }
        let taps = [
            at(iy, ix),
            at(iy, ix + 1),
            at(iy + 1, ix),
            at(iy + 1, ix + 1),
        ];
        rules.half_pel.sample(taps, fy, fx)
    };
    let sad = |(my, mx): (i32, i32)| {
        let mut acc = 0.0_f64;
        for y in by..by + bs {
            for x in bx..bx + bs {
                let r = sample(2 * y as isize + my as isize, 2 * x as isize + mx as isize);
                acc += (cur[y * w + x] - r).abs() as f64;
            }
        }
        acc
    };
    let r = range.max(0);
    let zero_cost = sad((0, 0));
    let (mut best, mut best_cost) = match rules.ties {
        Ties::Zero => ((0, 0), zero_cost),
        Ties::Raster => ((0, 0), f64::INFINITY),
    };
    for dy in -r..=r {
        for dx in -r..=r {
            if rules.ties == Ties::Zero && (dy, dx) == (0, 0) {
                continue;
            }
            let cost = sad((2 * dy, 2 * dx)) + rules.penalty * (dy.abs() + dx.abs()) as f64;
            if cost < best_cost {
                (best, best_cost) = ((2 * dy, 2 * dx), cost);
            }
        }
    }
    if refine {
        let (cy, cx) = best;
        for sy in -1..=1 {
            for sx in -1..=1 {
                if (sy, sx) == (0, 0) && !rules.recheck_centre {
                    continue;
                }
                let cost = sad((cy + sy, cx + sx));
                if cost < best_cost {
                    (best, best_cost) = ((cy + sy, cx + sx), cost);
                }
            }
        }
    }
    (best, zero_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_tensor::{Shape, Tensor};

    /// Both families as they ship: each rule set with its fill.
    const FAMILIES: [(&str, Rules, Fill); 2] = [
        ("ctvc", Rules::CTVC, Fill::Zero),
        ("hybrid", Rules::HYBRID, Fill::Edge),
    ];

    /// Every rule set under every fill, for the edge tests.
    fn every_pairing() -> impl Iterator<Item = (&'static str, Rules, Fill)> {
        FAMILIES
            .into_iter()
            .flat_map(|(name, rules, _)| [Fill::Zero, Fill::Edge].map(|fill| (name, rules, fill)))
    }

    /// Searches every block of the planes both ways and asserts the same
    /// vectors and the same zero-vector bits; returns the vectors.
    fn assert_matches_reference(
        planes: (&[f32], &[f32]),
        dims: (usize, usize),
        (block, range, refine): (usize, i32, bool),
        fill: Fill,
        rules: Rules,
        what: &str,
    ) -> Vec<(i32, i32)> {
        let matcher = BlockMatcher::new(planes.0, planes.1, dims, (range, refine), fill, rules);
        blocks(dims.0, dims.1, block)
            .into_iter()
            .map(|at| {
                let (mv, zero_cost) = matcher.search(at);
                let want = reference_search(planes, dims, (range, refine), fill, rules, at);
                assert_eq!(
                    (mv, zero_cost.to_bits()),
                    (want.0, want.1.to_bits()),
                    "{what}: block {at:?}, range {range}, half-pel {refine}, {fill:?}"
                );
                mv
            })
            .collect()
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

    /// `(name, cur, reference)` planes the sweep searches: textured (the
    /// reference shifted by (2, −1) plus noise, so there is a true
    /// optimum); flat and unequal (inside the plane every candidate's SAD
    /// ties, so the bias and the tie rule decide, and a zero margin is
    /// cheaper than the plane); flat and equal; signed zeros mixed into a
    /// sparse texture; and a texture with NaN and ±∞ samples.
    fn sweep_planes(w: usize, h: usize, seed: u64) -> Vec<(&'static str, Vec<f32>, Vec<f32>)> {
        let mut next = noise(seed);
        let base: Vec<f32> = (0..w * h).map(|_| next()).collect();
        let shifted = (0..w * h)
            .map(|i| {
                let (y, x) = (i / w + 2, (i % w) as isize - 1);
                let r = if y < h && x >= 0 {
                    base[y * w + x as usize]
                } else {
                    0.3
                };
                r + 0.05 * next()
            })
            .collect();
        let picked = |salt: u64, special: [f32; 2]| {
            let mut pick = noise(seed ^ salt);
            (0..w * h)
                .map(|_| match pick() {
                    v if v < 0.4 => special[0],
                    v if v < 0.8 => special[1],
                    v => v - 0.8,
                })
                .collect()
        };
        let mut wild = base.clone();
        for (i, v) in wild.iter_mut().enumerate() {
            match i % 37 {
                5 => *v = f32::NAN,
                11 => *v = f32::INFINITY,
                23 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
        vec![
            ("textured", shifted, base.clone()),
            ("flat", vec![0.25; w * h], vec![1.0; w * h]),
            ("flat equal", vec![0.5; w * h], vec![0.5; w * h]),
            (
                "signed zeros",
                picked(1, [0.0, -0.0]),
                picked(2, [-0.0, 0.0]),
            ),
            ("non-finite", base, wild),
        ]
    }

    #[test]
    fn fast_search_matches_the_scalar_reference_bit_for_bit() {
        // (w, h, block, range): block multiples and not, ranges at and
        // beyond the plane size, a zero range, and the planes both
        // codecs' sweeps searched.
        let geometries = [
            (64, 48, 8, 12),
            (60, 48, 8, 12),
            (52, 38, 16, 8),
            (24, 16, 8, 4),
            (19, 13, 8, 3),
            (7, 10, 4, 12),
            (6, 5, 8, 6),
            (32, 24, 16, 8),
            (9, 9, 8, 0),
        ];
        // The sweep must reach zero, full-pel and half-pel vectors.
        let (mut zero, mut moved, mut half) = (0, 0, 0);
        for (seed, &(w, h, block, range)) in geometries.iter().enumerate() {
            for (plane, cur, reference) in sweep_planes(w, h, seed as u64 + 1) {
                for (family, rules, fill) in FAMILIES {
                    for refine in [false, true] {
                        let what = format!("{family} {plane} {w}x{h}");
                        let search = (block, range, refine);
                        let planes = (&cur[..], &reference[..]);
                        for mv in
                            assert_matches_reference(planes, (w, h), search, fill, rules, &what)
                        {
                            zero += usize::from(mv == (0, 0));
                            moved += usize::from(mv != (0, 0));
                            half += usize::from(mv.0 % 2 != 0 || mv.1 % 2 != 0);
                        }
                    }
                }
            }
        }
        assert!(
            zero > 0 && moved > half && half > 0,
            "sweep vectors: {zero} zero, {moved} non-zero, {half} half-pel"
        );
    }

    #[test]
    fn lockstep_search_matches_the_scalar_reference_at_every_group_edge() {
        // Ranges 0–12 give rows of 0 to 3 whole groups and every tail
        // width (2r + 1) mod LANES an odd row length can leave. At 21×13
        // with 8-sample blocks the right column and bottom row of blocks
        // are clipped, and their lanes read deepest into the margin.
        let mut tails = [false; LANES];
        for r in 0..=12 {
            tails[(2 * r + 1) as usize % LANES] = true;
            for (plane, cur, reference) in sweep_planes(21, 13, r as u64 + 11) {
                for (family, rules, fill) in FAMILIES {
                    for refine in [false, true] {
                        let planes = (&cur[..], &reference[..]);
                        let what = format!("{family} {plane}");
                        assert_matches_reference(
                            planes,
                            (21, 13),
                            (8, r, refine),
                            fill,
                            rules,
                            &what,
                        );
                    }
                }
            }
        }
        let odd: [bool; LANES] = std::array::from_fn(|t| t % 2 == 1);
        assert_eq!(tails, odd, "tail widths reached");
    }

    #[test]
    fn lockstep_row_sad_matches_one_row_sad_per_lane_at_the_margin() {
        let (w, h, pad, n) = (9, 5, 4, 3);
        let mut data: Vec<f32> = (0..w * h).map(|i| ((i * 5) % 13) as f32 * 0.21).collect();
        data[3] = f32::NAN;
        data[w + 8] = f32::INFINITY;
        data[4 * w] = f32::NEG_INFINITY;
        let cur = [0.4, -0.0, 1.7];
        for fill in [Fill::Zero, Fill::Edge] {
            let padded = Padded::new(&data, (w, h), pad, fill);
            // Every row of the padded plane, and every start from the
            // first padded column to the one whose last lane ends on the
            // last.
            let last = (w + pad - (n + LANES - 1)) as isize;
            for y in -(pad as isize)..(h + pad) as isize {
                for x in -(pad as isize)..=last {
                    let init: [f64; LANES] = std::array::from_fn(|l| l as f64 * 0.37);
                    let mut got = init;
                    padded.add_row_sad_lanes(&mut got, &cur, y, x);
                    for l in 0..LANES {
                        let at = (2 * y, 2 * (x + l as isize));
                        let want = padded.add_row_sad(init[l], &cur, at, HalfPel::Average);
                        assert_eq!(
                            got[l].to_bits(),
                            want.to_bits(),
                            "{fill:?} ({y}, {x}) lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_lone_non_finite_lane_neither_dies_early_nor_wins() {
        // One NaN or ±∞ reference sample, moved over every position of
        // the plane: wherever it lands, the search keeps the reference's
        // answer. At the first column a group reads, exactly one lane of
        // that group sees it.
        let (w, h, r) = (16, 12, 4);
        let mut next = noise(7);
        let cur: Vec<f32> = (0..w * h).map(|_| next()).collect();
        let base: Vec<f32> = (0..w * h).map(|_| next()).collect();
        let mut lone = 0;
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..w * h {
                let mut reference = base.clone();
                reference[at] = special;
                for (family, rules, fill) in every_pairing() {
                    let what = format!("{family}, {special} at ({}, {})", at / w, at % w);
                    let planes = (&cur[..], &reference[..]);
                    assert_matches_reference(planes, (w, h), (8, r, true), fill, rules, &what);
                    // Block (0, 8), row dy = 0, lanes dx = −4..=3, bound
                    // +∞: a lane is non-finite if it is NaN or reached ∞.
                    let matcher =
                        BlockMatcher::new(&cur, &reference, (w, h), (r, true), fill, rules);
                    let lanes = [(0.0, f64::INFINITY); LANES];
                    let costs = matcher.group_costs((0, 8, 8), (0, -r), lanes);
                    let non_finite = costs.iter().filter(|c| c.is_none_or(f64::is_nan)).count();
                    lone += usize::from(non_finite == 1);
                }
            }
        }
        assert!(lone >= 12, "{lone} groups with exactly one non-finite lane");
    }

    #[test]
    fn the_best_candidate_can_sit_in_any_lane() {
        // The current plane is the reference moved by one row and `s`
        // columns, so the interior block (8, 8) finds (2, 2s): with r = 4
        // that is lane s + 4 of the row's one group, or its tail for s = 4.
        let (w, h, r) = (32, 24, 4);
        let mut next = noise(3);
        let reference: Vec<f32> = (0..w * h).map(|_| next()).collect();
        for s in -r..=r {
            let cur: Vec<f32> = (0..w * h)
                .map(|i| {
                    let (y, x) = ((i / w + 1).min(h - 1), (i % w) as isize + s as isize);
                    reference[y * w + x.clamp(0, w as isize - 1) as usize]
                })
                .collect();
            for (family, rules, fill) in every_pairing() {
                let what = format!("{family}, shift {s}");
                let planes = (&cur[..], &reference[..]);
                let got =
                    assert_matches_reference(planes, (w, h), (8, r, false), fill, rules, &what);
                assert_eq!(got[w / 8 + 1], (2, 2 * s), "{what}, {fill:?}");
            }
        }
    }

    #[test]
    fn equal_costs_go_to_the_first_candidate_in_raster_order() {
        // A flat plane against its copy with columns 7–10 raised: the
        // 2-sample block at column 8 matches exactly only at dx ≤ −3 or
        // dx ≥ 3, so (0, −3) and (0, 3), lanes 1 and 7 of one group, tie
        // at the lowest cost, and under either tie rule the earlier wins.
        let (w, h, r) = (16, 8, 4);
        let cur = vec![0.5; w * h];
        let reference: Vec<f32> = (0..w * h)
            .map(|i| {
                if (7..=10).contains(&(i % w)) {
                    0.9
                } else {
                    0.5
                }
            })
            .collect();
        for (family, rules, fill) in every_pairing() {
            let planes = (&cur[..], &reference[..]);
            let got = assert_matches_reference(planes, (w, h), (2, r, false), fill, rules, family);
            assert_eq!(got[4], (0, -6), "{family}, {fill:?}");
        }
    }

    #[test]
    fn a_tie_with_the_zero_vector_breaks_by_the_family_rule() {
        // Every sample of the block is 2^52 against a zero reference, so
        // every candidate's SAD is 2^56, and a penalty of at most
        // 0.02 · 8 is under half an ulp there: all 81 candidates cost the
        // zero vector's 2^56 exactly. The first in raster order, (−4, −4),
        // sits before the zero vector and in lane 0 of its row's group.
        let (w, h, r) = (4, 4, 4);
        let cur = vec![(1u64 << 52) as f32; w * h];
        let reference = vec![0.0; w * h];
        for (family, rules, fill) in every_pairing() {
            for refine in [false, true] {
                let planes = (&cur[..], &reference[..]);
                let got =
                    assert_matches_reference(planes, (w, h), (4, r, refine), fill, rules, family);
                let want = match rules.ties {
                    Ties::Raster => (-8, -8),
                    Ties::Zero => (0, 0),
                };
                assert_eq!(got, [want], "{family}, {fill:?}, half-pel {refine}");
            }
        }
    }

    #[test]
    fn bilinear_is_tensor_sample_bilinear_bit_for_bit() {
        // Signed zeros, a subnormal, ±∞ and NaN at every tap: the
        // expression keeps `Tensor::sample_bilinear`'s zero-weight taps
        // and its order of operations. A NaN's sign and payload may differ
        // with how the optimiser folds `∞ · 0`; no cost comparison reads
        // them.
        let values = [
            0.0,
            -0.0,
            1e-40,
            0.7,
            -3.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for taps in 0..values.len().pow(4) {
            let taps: [f32; 4] =
                std::array::from_fn(|i| values[taps / values.len().pow(i as u32) % values.len()]);
            let plane = Tensor::from_vec(Shape::new(1, 1, 2, 2), taps.to_vec()).unwrap();
            for (fy, fx) in [(false, true), (true, false), (true, true)] {
                let at = |odd| if odd { 0.5 } else { 0.0 };
                let want = plane.sample_bilinear(0, 0, at(fy), at(fx));
                let got = HalfPel::Bilinear.sample(taps, fy, fx);
                let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                assert!(same, "{taps:?} at ({fy}, {fx}): {got} vs {want}");
            }
        }
    }
}
