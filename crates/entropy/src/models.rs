//! Symbol models for the range coder.

use crate::CodingError;

/// Half-open cumulative-frequency interval `[low, high)` of one symbol
/// under a model total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Cumulative frequency below the symbol.
    pub low: u32,
    /// Cumulative frequency including the symbol.
    pub high: u32,
}

/// Frequency-table model over the alphabet `0..n`. Supports both static
/// use and adaptive updating via [`record`](Histogram::record).
///
/// Internally stores raw frequencies plus a running total; totals are
/// halved (floor at 1) when they approach the range coder's limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    freqs: Vec<u32>,
    cum: Vec<u32>, // cum[i] = sum of freqs[0..i]; len = n+1
}

impl Histogram {
    /// Uniform model over `n` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "alphabet must be non-empty");
        Histogram::from_freqs(&vec![1; n]).expect("uniform freqs are valid")
    }

    /// Model with explicit frequencies (all must be ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidModel`] if empty, any frequency is 0,
    /// or the total exceeds the coder limit.
    pub fn from_freqs(freqs: &[u32]) -> Result<Self, CodingError> {
        if freqs.is_empty() {
            return Err(CodingError::InvalidModel {
                reason: "empty alphabet".into(),
            });
        }
        if freqs.contains(&0) {
            return Err(CodingError::InvalidModel {
                reason: "zero frequency".into(),
            });
        }
        let total: u64 = freqs.iter().map(|&f| f as u64).sum();
        if total >= (crate::range::MAX_TOTAL as u64) {
            return Err(CodingError::InvalidModel {
                reason: format!("total {total} exceeds coder limit"),
            });
        }
        let mut h = Histogram {
            freqs: freqs.to_vec(),
            cum: Vec::new(),
        };
        h.rebuild();
        Ok(h)
    }

    fn rebuild(&mut self) {
        self.cum.clear();
        self.cum.push(0);
        let mut acc = 0u32;
        for &f in &self.freqs {
            acc += f;
            self.cum.push(acc);
        }
    }

    /// Alphabet size.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Whether the alphabet is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Total frequency.
    pub fn total(&self) -> u32 {
        *self.cum.last().expect("cum never empty")
    }

    /// Cumulative interval of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the alphabet.
    pub fn interval(&self, symbol: u32) -> Interval {
        let s = symbol as usize;
        assert!(s < self.freqs.len(), "symbol {symbol} outside alphabet");
        Interval {
            low: self.cum[s],
            high: self.cum[s + 1],
        }
    }

    /// Finds the symbol whose interval contains cumulative frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= total()`.
    pub fn lookup(&self, f: u32) -> (u32, Interval) {
        assert!(f < self.total(), "frequency {f} >= total {}", self.total());
        // Binary search over the cumulative table.
        let mut lo = 0usize;
        let mut hi = self.freqs.len();
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.cum[mid] <= f {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (
            lo as u32,
            Interval {
                low: self.cum[lo],
                high: self.cum[lo + 1],
            },
        )
    }

    /// Adaptive update: increments `symbol`'s frequency by 32, halving the
    /// whole table (floor 1) when the total nears the coder limit.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` is outside the alphabet.
    pub fn record(&mut self, symbol: u32) {
        let s = symbol as usize;
        assert!(s < self.freqs.len(), "symbol {symbol} outside alphabet");
        self.freqs[s] += 32;
        if self.total() as u64 + 32 >= (crate::range::MAX_TOTAL as u64) / 2 {
            for f in &mut self.freqs {
                *f = (*f / 2).max(1);
            }
            self.rebuild();
        } else {
            for c in &mut self.cum[s + 1..] {
                *c += 32;
            }
        }
    }
}

/// Discretized Laplace distribution over integer symbols
/// `[-max_sym, max_sym]` plus a terminal escape bucket for saturated
/// values — the factorized prior used to code quantized latents.
///
/// The probability mass of integer `k` is `∝ exp(−|k|/b)`; masses are
/// quantized to integer frequencies with a floor of 1 so every symbol
/// remains codable.
///
/// The mass falls with `|k|`, so every frequency above the floor sits in
/// one run around the centre (the *head*) and both tails are all 1s. The
/// model keeps cumulative counts for the head only; a tail's counts are
/// closed-form. That is O(head) memory — at most a few thousand entries
/// for the widest scale, often a few dozen — and a binary search over the
/// head alone, with the intervals of the full table.
///
/// # Example
///
/// ```
/// use nvc_entropy::LaplaceModel;
/// let m = LaplaceModel::new(1.5, 32).unwrap();
/// assert!(m.expected_bits(0) < m.expected_bits(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaplaceModel {
    max_sym: i32,
    /// Index of the first head symbol; every symbol below it has
    /// frequency 1, so the count below index `i ≤ head_lo` is `i`.
    head_lo: u32,
    /// `head[j]` is the count below index `head_lo + j`, up to and
    /// including the count at the end of the head (so `head[0] ==
    /// head_lo`). Every symbol after the head has frequency 1.
    head: Box<[u32]>,
    total: u32,
}

/// The full frequency table: `exp(−|k|/b)` quantised onto integer
/// frequencies summing to ≈ 2¹⁸, floored at 1, centre at least 2. These
/// integers are part of the bitstream format.
fn laplace_freqs(b: f64, max_sym: i32) -> Vec<u32> {
    let n = (2 * max_sym + 1) as usize;
    let budget = 1u32 << 18;
    let mut weights = Vec::with_capacity(n);
    let mut wsum = 0.0_f64;
    for k in -max_sym..=max_sym {
        let w = (-(k.abs() as f64) / b).exp();
        weights.push(w);
        wsum += w;
    }
    let mut freqs: Vec<u32> = weights
        .iter()
        .map(|w| ((w / wsum) * budget as f64).round().max(1.0) as u32)
        .collect();
    // Ensure central symbol dominates ties for determinism.
    let centre = max_sym as usize;
    freqs[centre] = freqs[centre].max(2);
    freqs
}

impl LaplaceModel {
    /// Creates a model with scale `b` (larger = flatter) over
    /// `[-max_sym, max_sym]`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidModel`] if `b` is not positive/finite
    /// or `max_sym` is 0 or enormous.
    pub fn new(b: f64, max_sym: i32) -> Result<Self, CodingError> {
        if !(b.is_finite() && b > 0.0) {
            return Err(CodingError::InvalidModel {
                reason: format!("scale {b} must be > 0"),
            });
        }
        if max_sym <= 0 || max_sym > 4096 {
            return Err(CodingError::InvalidModel {
                reason: format!("max symbol {max_sym} outside 1..=4096"),
            });
        }
        let freqs = laplace_freqs(b, max_sym);
        let total: u64 = freqs.iter().map(|&f| f as u64).sum();
        if total >= crate::range::MAX_TOTAL as u64 {
            return Err(CodingError::InvalidModel {
                reason: format!("total {total} exceeds coder limit"),
            });
        }
        // The centre is at least 2, so the head is never empty. Interior
        // 1s (none in practice) are kept in the head, which stays exact.
        let centre = max_sym as usize;
        let lo = freqs.iter().position(|&f| f > 1).unwrap_or(centre);
        let hi = freqs.iter().rposition(|&f| f > 1).unwrap_or(centre) + 1;
        let head: Box<[u32]> = std::iter::once(lo as u32)
            .chain(freqs[lo..hi].iter().scan(lo as u32, |acc, &f| {
                *acc += f;
                Some(*acc)
            }))
            .collect();
        Ok(LaplaceModel {
            max_sym,
            head_lo: lo as u32,
            head,
            total: total as u32,
        })
    }

    /// Alphabet size `2·max_sym + 1`.
    fn len(&self) -> u32 {
        (2 * self.max_sym + 1) as u32
    }

    /// Count of all symbols below index `i` (`i ≤ len()`).
    fn cum(&self, i: u32) -> u32 {
        match i.checked_sub(self.head_lo) {
            None => i,
            Some(j) => match self.head.get(j as usize) {
                Some(&c) => c,
                None => self.total - (self.len() - i),
            },
        }
    }

    /// Largest representable magnitude; values beyond are clamped by
    /// [`clamp`](Self::clamp).
    pub fn max_symbol(&self) -> i32 {
        self.max_sym
    }

    /// Clamps a raw integer to the representable symbol range.
    pub fn clamp(&self, v: i32) -> i32 {
        v.clamp(-self.max_sym, self.max_sym)
    }

    /// Model total.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Interval of signed value `v` (clamped to range).
    #[inline]
    pub fn interval(&self, v: i32) -> Interval {
        let idx = (self.clamp(v) + self.max_sym) as u32;
        Interval {
            low: self.cum(idx),
            high: self.cum(idx + 1),
        }
    }

    /// Signed value whose interval contains cumulative frequency `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= total()`.
    #[inline]
    pub fn lookup(&self, f: u32) -> (i32, Interval) {
        assert!(f < self.total, "frequency {f} >= total {}", self.total);
        let head = &self.head;
        let last = head.len() - 1;
        let unit = Interval {
            low: f,
            high: f + 1,
        };
        let (idx, iv) = if f < self.head_lo {
            (f, unit)
        } else if f >= head[last] {
            (self.len() - (self.total - f), unit)
        } else {
            // head[lo] <= f < head[hi]. A plain loop: `partition_point`
            // measured ≈ 30 % slower here.
            let (mut lo, mut hi) = (0, last);
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                if head[mid] <= f {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let iv = Interval {
                low: head[lo],
                high: head[hi],
            };
            (self.head_lo + lo as u32, iv)
        };
        (idx as i32 - self.max_sym, iv)
    }

    /// Ideal code length of value `v` in bits, `−log2 p(v)`.
    pub fn expected_bits(&self, v: i32) -> f64 {
        let iv = self.interval(v);
        let p = (iv.high - iv.low) as f64 / self.total() as f64;
        -p.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_intervals_partition_total() {
        let h = Histogram::from_freqs(&[3, 1, 4, 1, 5]).unwrap();
        assert_eq!(h.total(), 14);
        let mut expect_low = 0;
        for s in 0..5 {
            let iv = h.interval(s);
            assert_eq!(iv.low, expect_low);
            expect_low = iv.high;
        }
        assert_eq!(expect_low, 14);
    }

    #[test]
    fn histogram_lookup_inverts_interval() {
        let h = Histogram::from_freqs(&[3, 1, 4, 1, 5]).unwrap();
        for s in 0..5u32 {
            let iv = h.interval(s);
            for f in iv.low..iv.high {
                let (sym, iv2) = h.lookup(f);
                assert_eq!(sym, s);
                assert_eq!(iv2, iv);
            }
        }
    }

    #[test]
    fn histogram_validation() {
        assert!(Histogram::from_freqs(&[]).is_err());
        assert!(Histogram::from_freqs(&[1, 0, 2]).is_err());
        assert!(Histogram::from_freqs(&[1 << 23]).is_err());
    }

    #[test]
    fn adaptive_update_rescales() {
        let mut h = Histogram::uniform(4);
        for _ in 0..100_000 {
            h.record(2);
        }
        assert!(h.total() < 1 << 22);
        // Symbol 2 dominates.
        let iv = h.interval(2);
        assert!((iv.high - iv.low) as f64 / h.total() as f64 > 0.9);
    }

    #[test]
    fn incremental_record_matches_a_rebuild() {
        // Skewed so the total crosses the halving threshold (2²¹) twice.
        let mut h = Histogram::from_freqs(&[5, 1, 9, 1, 2]).unwrap();
        let mut halvings = 0;
        for i in 0..100_000u32 {
            let before = h.total();
            h.record([0, 2, 2, 4, 1, 2, 3][i as usize % 7]);
            halvings += usize::from(h.total() < before);
            assert_eq!(h, Histogram::from_freqs(&h.freqs).unwrap(), "record {i}");
        }
        assert_eq!(halvings, 2);
    }

    #[test]
    fn laplace_head_and_tails_match_the_full_table() {
        // Heads from the centre alone (tiny `b`) to the whole alphabet
        // (huge `b`), including the probe's (1.5, 32).
        for &(b, max_sym) in &[
            (0.01, 1),
            (0.01, 9),
            (0.3, 40),
            (1.5, 32),
            (7.0, 64),
            (500.0, 16),
            (40.0, 300),
        ] {
            let m = LaplaceModel::new(b, max_sym).unwrap();
            let full = Histogram::from_freqs(&laplace_freqs(b, max_sym)).unwrap();
            assert_eq!(m.total(), full.total(), "b={b} max_sym={max_sym}");
            for v in -max_sym - 1..=max_sym + 1 {
                let idx = (v.clamp(-max_sym, max_sym) + max_sym) as u32;
                assert_eq!(m.interval(v), full.interval(idx), "b={b} v={v}");
            }
            for f in 0..m.total() {
                let (v, iv) = m.lookup(f);
                let (idx, full_iv) = full.lookup(f);
                assert_eq!((v + max_sym, iv), (idx as i32, full_iv), "b={b} f={f}");
            }
        }
    }

    #[test]
    fn laplace_is_symmetric_and_peaked() {
        let m = LaplaceModel::new(2.0, 16).unwrap();
        for k in 1..=16 {
            let p_pos = m.interval(k);
            let p_neg = m.interval(-k);
            assert_eq!(p_pos.high - p_pos.low, p_neg.high - p_neg.low, "k={k}");
        }
        let p0 = m.interval(0);
        let p5 = m.interval(5);
        assert!(p0.high - p0.low > p5.high - p5.low);
    }

    #[test]
    fn laplace_clamps_out_of_range() {
        let m = LaplaceModel::new(1.0, 8).unwrap();
        assert_eq!(m.clamp(100), 8);
        assert_eq!(m.clamp(-100), -8);
        assert_eq!(m.interval(100), m.interval(8));
    }

    #[test]
    fn laplace_scale_controls_entropy() {
        let narrow = LaplaceModel::new(0.5, 32).unwrap();
        let wide = LaplaceModel::new(8.0, 32).unwrap();
        // Flatter distribution costs more bits at 0, fewer in the tails.
        assert!(narrow.expected_bits(0) < wide.expected_bits(0));
        assert!(narrow.expected_bits(20) > wide.expected_bits(20));
    }

    #[test]
    fn laplace_validation() {
        assert!(LaplaceModel::new(0.0, 8).is_err());
        assert!(LaplaceModel::new(-1.0, 8).is_err());
        assert!(LaplaceModel::new(f64::NAN, 8).is_err());
        assert!(LaplaceModel::new(1.0, 0).is_err());
        assert!(LaplaceModel::new(1.0, 10_000).is_err());
    }

    #[test]
    fn laplace_lookup_inverts() {
        let m = LaplaceModel::new(1.3, 12).unwrap();
        for v in -12..=12 {
            let iv = m.interval(v);
            let (sym, _) = m.lookup(iv.low);
            assert_eq!(sym, v);
            let (sym2, _) = m.lookup(iv.high - 1);
            assert_eq!(sym2, v);
        }
    }
}
