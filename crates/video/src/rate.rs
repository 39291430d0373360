//! Pluggable rate control for encoder sessions.
//!
//! Every packet's size is on the wire
//! ([`StreamStats::bits_per_frame`](crate::StreamStats::bits_per_frame));
//! this module closes the loop. Instead of a fixed `RatePoint`/QP for
//! the whole stream, an encoder session
//! ([`StreamEncoder::new`](crate::StreamEncoder::new)) takes a
//! [`RateMode`]:
//!
//! * [`RateMode::Fixed`] — one rate for every frame; bitstreams are
//!   byte-identical to the pre-redesign fixed-rate API.
//! * [`RateMode::TargetBpp`] — closed-loop control toward a
//!   bits-per-pixel target: after every coded frame the session feeds
//!   the produced packet's bits into a [`TargetBppController`], which
//!   picks the next frame's rate from a buffer-occupancy model plus
//!   per-frame-type complexity estimates.
//! * [`RateMode::PerFrame`] — an external controller: a closure
//!   decides each frame's rate from the feedback stream.
//!
//! The codec-specific rate parameter (`RatePoint` for the learned codec,
//! QP for the hybrid baseline) plugs in through the [`RateParam`] ladder
//! trait, so one controller implementation drives both codec families —
//! and the serving layer can express the same modes on the wire.

use std::fmt;

/// A codec-specific rate parameter living on a discrete bitrate ladder.
///
/// Two coordinate systems coexist:
///
/// * the **wire byte** ([`RateParam::to_wire`]) — the codec's native
///   representation (`RatePoint` index, QP value) as carried in packet
///   headers, handshakes and
///   [`StreamStats::rate_per_frame`](crate::StreamStats::rate_per_frame);
/// * the **ladder position** ([`RateParam::position`]) — a monotone
///   axis where position 0 is the *lowest* bitrate, which is what a
///   generic controller steps along (for QP the two run in opposite
///   directions).
pub trait RateParam: Copy + PartialEq + fmt::Debug + Send + 'static {
    /// The codec's native byte for this rate, as written to packet
    /// headers and handshakes.
    fn to_wire(self) -> u8;

    /// Parses (and validates) the native byte.
    ///
    /// # Errors
    ///
    /// Returns a description of the valid range for bytes outside it.
    fn from_wire(byte: u8) -> Result<Self, String>;

    /// Position on the bitrate ladder: 0 = lowest bitrate, increasing
    /// monotonically in expected bits.
    fn position(self) -> u32;

    /// Number of ladder positions (positions are `0..ladder_len()`).
    fn ladder_len() -> u32;

    /// The rate at a ladder position (clamped into the ladder).
    fn from_position(position: u32) -> Self;

    /// Rough multiplier on produced bits for one ladder step up —
    /// the prior a controller extrapolates with before it has observed
    /// a position.
    fn step_ratio() -> f64;

    /// Ladder steps *down* needed to scale produced bits by `ratio`
    /// (≤ 1), extrapolating with [`RateParam::step_ratio`] — the walk a
    /// budget governor takes when a session's fair share shrinks to
    /// `ratio` of its demand. A ratio ≥ 1 needs no steps; a
    /// non-positive ratio collapses to the bottom of the ladder.
    fn steps_for_ratio(ratio: f64) -> u32 {
        if ratio >= 1.0 {
            return 0;
        }
        let bottom = Self::ladder_len().saturating_sub(1);
        if ratio <= 0.0 {
            return bottom;
        }
        let per_step = Self::step_ratio().max(1.0 + f64::EPSILON).ln();
        // The 1e-9 slack keeps ratios landing exactly on a rung (0.5 on
        // a 6-steps-per-octave ladder, say) from paying an extra step
        // to floating-point noise in the logarithms.
        let steps = (-ratio.ln() / per_step - 1e-9).ceil();
        if steps >= f64::from(bottom) {
            bottom
        } else {
            steps as u32
        }
    }
}

/// QP ladder of the classical hybrid codec: a *higher* QP means a
/// *lower* bitrate (one QP step ≈ 12 % rate, the classic
/// 6-QP-per-octave rule). Every byte is a decodable QP — the quantizer
/// step extrapolates beyond the useful `0..=51` range — so the wire
/// accepts the full domain; the *controller's* ladder spans the useful
/// range, with coarser QPs all mapping to the bottom position.
impl RateParam for u8 {
    fn to_wire(self) -> u8 {
        self
    }

    fn from_wire(byte: u8) -> Result<Self, String> {
        Ok(byte)
    }

    fn position(self) -> u32 {
        51_u32.saturating_sub(u32::from(self.min(51)))
    }

    fn ladder_len() -> u32 {
        52
    }

    fn from_position(position: u32) -> Self {
        (51 - position.min(51)) as u8
    }

    fn step_ratio() -> f64 {
        2.0_f64.powf(1.0 / 6.0)
    }
}

/// What the session is about to code — the controller's input.
#[derive(Debug, Clone, Copy)]
pub struct RateRequest {
    /// Zero-based index of the upcoming frame.
    pub frame_index: u64,
    /// Whether the upcoming frame will be coded intra (GOP start or
    /// forced refresh).
    pub intra: bool,
    /// Pixels per frame of the stream.
    pub pixels: usize,
    /// Outcome of the previously coded frame, once one exists.
    pub prev: Option<RateOutcome>,
}

/// What a coded frame actually cost — the feedback signal.
#[derive(Debug, Clone, Copy)]
pub struct RateOutcome {
    /// Zero-based index of the coded frame.
    pub frame_index: u64,
    /// Whether the frame was coded intra.
    pub intra: bool,
    /// Pixels per frame of the stream.
    pub pixels: usize,
    /// Serialized bits the frame produced (packet framing included) —
    /// the same accounting as `StreamStats::bits_per_frame`.
    pub bits: u64,
    /// Wire byte of the rate the frame was coded at.
    pub wire_rate: u8,
}

/// Rate-control mode of an encoder session — the argument of
/// [`StreamEncoder::new`](crate::StreamEncoder::new).
pub enum RateMode<R: RateParam> {
    /// Every frame coded at one fixed rate (the pre-redesign behavior;
    /// bitstreams are byte-identical to it).
    Fixed(R),
    /// Closed-loop control toward `bpp` bits per pixel, smoothing over
    /// roughly `window` frames (see [`TargetBppController`]).
    TargetBpp {
        /// Target bits per pixel (serialized stream bits over pixels).
        bpp: f64,
        /// Smoothing window in frames (0 = default).
        window: usize,
    },
    /// An external per-frame callback: called before each frame with
    /// the upcoming frame's [`RateRequest`] (including the previous
    /// frame's [`RateOutcome`]).
    PerFrame(Box<dyn FnMut(&RateRequest) -> R + Send>),
}

impl<R: RateParam> RateMode<R> {
    /// Convenience constructor wrapping a closure into
    /// [`RateMode::PerFrame`].
    pub fn per_frame(f: impl FnMut(&RateRequest) -> R + Send + 'static) -> Self {
        RateMode::PerFrame(Box::new(f))
    }

    /// Short label for reports and `Debug` output.
    pub fn label(&self) -> &'static str {
        match self {
            RateMode::Fixed(_) => "fixed",
            RateMode::TargetBpp { .. } => "target-bpp",
            RateMode::PerFrame(_) => "per-frame",
        }
    }
}

/// A plain rate is the fixed mode, so `start_encode(rate)` and
/// `encode_sequence(&codec, &seq, rate)` take a bare rate.
impl<R: RateParam> From<R> for RateMode<R> {
    fn from(rate: R) -> Self {
        RateMode::Fixed(rate)
    }
}

impl<R: RateParam> fmt::Debug for RateMode<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateMode::Fixed(r) => write!(f, "RateMode::Fixed({r:?})"),
            RateMode::TargetBpp { bpp, window } => {
                write!(f, "RateMode::TargetBpp {{ bpp: {bpp}, window: {window} }}")
            }
            other => write!(f, "RateMode::{}", other.label()),
        }
    }
}

/// The built-in closed-loop controller behind [`RateMode::TargetBpp`].
///
/// A leaky-bucket **buffer-occupancy model** tracks cumulative produced
/// bits minus cumulative target bits; **per-frame-type complexity
/// estimates** (EWMA of observed bits per ladder position, one table
/// for intra and one for predicted frames, extrapolated between
/// positions with [`RateParam::step_ratio`]) predict what each candidate
/// rate would cost. Every frame the controller picks, within a bounded
/// step of the current position, the rate whose predicted cost drives
/// the buffer closest to empty. A discrete ladder cannot sit *on* an
/// arbitrary target, so steady state dithers between the two bracketing
/// positions — the windowed mean converges onto the target.
pub struct TargetBppController<R: RateParam> {
    target_bpp: f64,
    window: f64,
    /// Leaky bucket: coded bits minus allocated bits, clamped to
    /// ±window·target-bits-per-frame.
    fullness: f64,
    position: u32,
    /// `estimates[0]` = predicted frames, `estimates[1]` = intra, each
    /// indexed by ladder position.
    estimates: [Vec<Option<f64>>; 2],
    /// Frames observed so far.
    frames_seen: u64,
    /// Frame index of the most recent intra observation.
    last_intra: Option<u64>,
    /// EWMA of the intra cadence in frames (GOP length as observed on
    /// the stream); seeded from `window` until two intras have been
    /// seen.
    intra_interval: f64,
    _rate: std::marker::PhantomData<R>,
}

/// Default smoothing window in frames.
pub const DEFAULT_RATE_WINDOW: usize = 8;

/// Prior ratio of intra to predicted-frame bits, used until both tables
/// have observations.
const INTRA_COST_PRIOR: f64 = 4.0;

impl<R: RateParam> TargetBppController<R> {
    /// Creates a controller aiming at `bpp` bits per pixel, smoothing
    /// over `window` frames (0 = [`DEFAULT_RATE_WINDOW`]). Starts from
    /// the conservative quarter of the rate ladder: the first frame is
    /// an intra anchor costing several frames of budget, and an
    /// over-spent start is the one mistake a bounded buffer cannot
    /// always pay back (the P-frame floor limits the drain rate), while
    /// an under-spent start recovers within a few frames.
    pub fn new(bpp: f64, window: usize) -> Self {
        let len = R::ladder_len().max(1) as usize;
        let window = if window == 0 {
            DEFAULT_RATE_WINDOW
        } else {
            window
        };
        TargetBppController {
            target_bpp: bpp.max(f64::MIN_POSITIVE),
            window: window as f64,
            fullness: 0.0,
            position: R::ladder_len() / 4,
            estimates: [vec![None; len], vec![None; len]],
            frames_seen: 0,
            last_intra: None,
            intra_interval: window as f64,
            _rate: std::marker::PhantomData,
        }
    }

    /// The current buffer occupancy in bits (positive = over target).
    pub fn fullness_bits(&self) -> f64 {
        self.fullness
    }

    /// Largest per-frame ladder move: small ladders (the 4-point sweep)
    /// step one position at a time, long ladders (QP) may move faster.
    fn step_limit() -> u32 {
        (R::ladder_len() / 8).max(1)
    }

    /// Intra-to-predicted cost ratio at the current position, from the
    /// learned complexity tables (prior until both types are observed).
    fn cost_ratio(&self, target_bits: f64) -> f64 {
        let intra = self.nearest_scaled(&self.estimates[1], self.position);
        let inter = self.nearest_scaled(&self.estimates[0], self.position);
        match (intra, inter) {
            (Some(i), Some(p)) if p > 0.0 => (i / p).clamp(1.0, 64.0),
            (Some(i), None) if target_bits > 0.0 => (i / target_bits).clamp(1.0, 64.0),
            _ => INTRA_COST_PRIOR,
        }
    }

    /// Per-frame bit allocation by frame type (classical two-class
    /// allocation): intra anchors get `ρ` times a P frame's share, with
    /// the shares normalized by the stream's intra cadence (one intra
    /// per `intra_interval` frames) so the allocations sum to the
    /// overall budget *independent of `ρ`* — a wrong complexity ratio
    /// shifts bits between frame types, never off the total.
    fn allocation(&self, intra: bool, target_bits: f64) -> f64 {
        // When intras are overdue (a stream with rare or no refreshes),
        // the observed gap is a lower bound on the true cadence — stop
        // reserving budget for anchors that are not coming.
        let since = match self.last_intra {
            Some(last) => (self.frames_seen - last) as f64,
            None => self.frames_seen as f64,
        };
        let interval = self.intra_interval.max(since).max(1.0);
        let phi = (1.0 / interval).clamp(0.0, 1.0);
        let rho = self.cost_ratio(target_bits);
        let p_share = target_bits / (phi * rho + (1.0 - phi));
        if intra {
            rho * p_share
        } else {
            p_share
        }
    }

    fn nearest_scaled(&self, table: &[Option<f64>], pos: u32) -> Option<f64> {
        let ratio = R::step_ratio().max(1.0 + f64::EPSILON);
        let mut best: Option<(u32, f64)> = None;
        for (q, e) in table.iter().enumerate() {
            if let Some(bits) = e {
                let dist = (q as i64 - i64::from(pos)).unsigned_abs() as u32;
                if best.is_none_or(|(d, _)| dist < d) {
                    best = Some((dist, bits * ratio.powi(pos as i32 - q as i32)));
                }
            }
        }
        best.map(|(_, bits)| bits)
    }

    /// Predicted bits of the next frame at ladder position `pos`:
    /// nearest observation of the same frame type scaled by the ladder
    /// ratio, falling back to the other type's table (scaled by the
    /// intra-cost prior), falling back to a neutral ramp anchored at the
    /// current position.
    fn predict(&self, pos: u32, intra: bool, anchor_bits: f64) -> f64 {
        let (own, other) = if intra {
            (&self.estimates[1], &self.estimates[0])
        } else {
            (&self.estimates[0], &self.estimates[1])
        };
        if let Some(bits) = self.nearest_scaled(own, pos) {
            return bits;
        }
        if let Some(bits) = self.nearest_scaled(other, pos) {
            let factor = if intra {
                INTRA_COST_PRIOR
            } else {
                1.0 / INTRA_COST_PRIOR
            };
            return bits * factor;
        }
        // Nothing observed yet: a neutral ramp that keeps the argmin at
        // the current position.
        let ratio = R::step_ratio().max(1.0 + f64::EPSILON);
        anchor_bits * ratio.powi(pos as i32 - self.position as i32)
    }

    /// Rate for the frame described by `request`.
    pub fn pick(&mut self, request: &RateRequest) -> R {
        let target_bits = self.target_bpp * request.pixels as f64;
        let alloc = self.allocation(request.intra, target_bits);
        // Pay the buffer deviation back over the smoothing window, not
        // all in the next frame — demanding a whole intra spike back
        // from one P frame just slams the ladder floor.
        let desired = alloc - self.fullness / self.window;
        let limit = Self::step_limit();
        let lo = self.position.saturating_sub(limit);
        let hi = (self.position + limit).min(R::ladder_len().saturating_sub(1));
        let mut best = (f64::INFINITY, self.position);
        for pos in lo..=hi {
            let miss = (self.predict(pos, request.intra, alloc) - desired).abs();
            // Strict `<` scanning upward prefers the lower-bitrate
            // candidate on ties — the conservative side of the bucket.
            if miss < best.0 {
                best = (miss, pos);
            }
        }
        self.position = best.1;
        R::from_position(self.position)
    }

    /// Feedback after the frame was coded and packetized.
    pub fn observe(&mut self, outcome: &RateOutcome) {
        let target_bits = self.target_bpp * outcome.pixels as f64;
        let alloc = self.allocation(outcome.intra, target_bits);
        let bits = outcome.bits as f64;
        // The first frame of each type is calibration: no estimate
        // existed when its rate was picked, so charging its allocation
        // miss to the bucket would tax later frames for a prediction
        // that was never possible.
        let calibration = self.estimates[usize::from(outcome.intra)]
            .iter()
            .all(Option::is_none);
        if let Ok(rate) = R::from_wire(outcome.wire_rate) {
            let pos = rate.position();
            // Content drift: scale the *other* positions of the
            // same-type table by the (clamped) innovation, so estimates
            // not visited lately track the scene instead of going stale
            // and pinning the controller. The visited slot is excluded
            // — it gets the real observation through its own EWMA below
            // (rescaling it too would collapse the EWMA into
            // last-sample tracking).
            let predicted = self.predict(pos, outcome.intra, alloc);
            let table = &mut self.estimates[usize::from(outcome.intra)];
            if predicted > 0.0 {
                let gain = (bits / predicted).clamp(0.5, 2.0);
                for (q, slot) in table.iter_mut().enumerate() {
                    if q != pos as usize {
                        if let Some(e) = slot {
                            *e *= gain;
                        }
                    }
                }
            }
            let slot = &mut table[pos as usize];
            // EWMA complexity estimate: quick to adapt, stable enough to
            // extrapolate from.
            *slot = Some(match *slot {
                Some(prev) => 0.5 * prev + 0.5 * bits,
                None => bits,
            });
        }
        if outcome.intra {
            if let Some(last) = self.last_intra {
                let interval = (self.frames_seen - last) as f64;
                self.intra_interval = 0.5 * self.intra_interval + 0.5 * interval.max(1.0);
            }
            self.last_intra = Some(self.frames_seen);
        }
        self.frames_seen += 1;
        // The bucket tracks deviation from the frame's *type allocation*
        // (which sums to the overall budget across the stream): a P
        // frame is not in debt for costing less than an intra anchor,
        // only for missing its own share.
        if !calibration {
            let cap = self.window * target_bits;
            self.fullness = (self.fullness + bits - alloc).clamp(-cap, cap);
        }
    }
}

/// The rate-control state an encoder session carries: dispatches
/// [`RateMode`] into per-frame decisions, threads feedback, and accepts
/// mid-stream retargets. Both codec families drive their sessions
/// through this one helper, so the closed loop behaves identically
/// across them.
pub struct SessionRateControl<R: RateParam> {
    inner: Inner<R>,
    prev: Option<RateOutcome>,
}

enum Inner<R: RateParam> {
    Fixed(R),
    PerFrame(Box<dyn FnMut(&RateRequest) -> R + Send>),
    TargetBpp(TargetBppController<R>),
}

impl<R: RateParam> SessionRateControl<R> {
    /// Builds the session state from a mode.
    pub fn new(mode: RateMode<R>) -> Self {
        SessionRateControl {
            inner: Inner::from_mode(mode),
            prev: None,
        }
    }

    /// Whether every frame is coded at one fixed rate (the byte-stable
    /// legacy path).
    pub fn is_fixed(&self) -> bool {
        matches!(self.inner, Inner::Fixed(_))
    }

    /// Short mode label for reports.
    pub fn label(&self) -> &'static str {
        match self.inner {
            Inner::Fixed(_) => "fixed",
            Inner::PerFrame(_) => "per-frame",
            Inner::TargetBpp(_) => "target-bpp",
        }
    }

    /// Rate for the upcoming frame.
    pub fn pick(&mut self, frame_index: u64, intra: bool, pixels: usize) -> R {
        let request = RateRequest {
            frame_index,
            intra,
            pixels,
            prev: self.prev,
        };
        match &mut self.inner {
            Inner::Fixed(rate) => *rate,
            Inner::PerFrame(f) => f(&request),
            Inner::TargetBpp(c) => c.pick(&request),
        }
    }

    /// Feedback after the frame's packet was built.
    pub fn observe(&mut self, outcome: RateOutcome) {
        if let Inner::TargetBpp(c) = &mut self.inner {
            c.observe(&outcome);
        }
        self.prev = Some(outcome);
    }

    /// Replaces the mode from the next frame on (the wire's `'R'`
    /// retarget). The previous-frame feedback is preserved so an
    /// incoming per-frame callback still sees it.
    pub fn retarget(&mut self, mode: RateMode<R>) {
        self.inner = Inner::from_mode(mode);
    }
}

impl<R: RateParam> Inner<R> {
    fn from_mode(mode: RateMode<R>) -> Self {
        match mode {
            RateMode::Fixed(rate) => Inner::Fixed(rate),
            RateMode::TargetBpp { bpp, window } => {
                Inner::TargetBpp(TargetBppController::new(bpp, window))
            }
            RateMode::PerFrame(f) => Inner::PerFrame(f),
        }
    }
}

impl<R: RateParam> fmt::Debug for SessionRateControl<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionRateControl({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_ladder_is_monotone_and_roundtrips() {
        assert_eq!(<u8 as RateParam>::ladder_len(), 52);
        assert_eq!(51u8.position(), 0, "worst QP = lowest bitrate");
        assert_eq!(0u8.position(), 51);
        for qp in 0..=51u8 {
            assert_eq!(u8::from_position(qp.position()), qp);
            assert_eq!(u8::from_wire(qp.to_wire()).unwrap(), qp);
        }
        // The full byte domain is wire-valid (qp_to_step extrapolates);
        // ultra-coarse QPs collapse onto the ladder floor.
        assert_eq!(u8::from_wire(58).unwrap(), 58);
        assert_eq!(58u8.position(), 0);
        assert!(<u8 as RateParam>::step_ratio() > 1.0);
    }

    #[test]
    fn fixed_mode_always_returns_the_rate() {
        let mut rc = SessionRateControl::new(RateMode::Fixed(24u8));
        assert!(rc.is_fixed());
        for i in 0..5 {
            assert_eq!(rc.pick(i, i == 0, 1024), 24);
            rc.observe(RateOutcome {
                frame_index: i,
                intra: i == 0,
                pixels: 1024,
                bits: 1_000_000, // wildly over target: fixed must not react
                wire_rate: 24,
            });
        }
    }

    #[test]
    fn per_frame_callback_sees_feedback() {
        let mut rc = SessionRateControl::new(RateMode::per_frame(|req: &RateRequest| {
            match req.prev {
                Some(prev) if prev.bits > 8_000 => 30u8, // coarser
                _ => 20u8,
            }
        }));
        assert!(!rc.is_fixed());
        assert_eq!(rc.pick(0, true, 1024), 20);
        rc.observe(RateOutcome {
            frame_index: 0,
            intra: true,
            pixels: 1024,
            bits: 10_000,
            wire_rate: 20,
        });
        assert_eq!(rc.pick(1, false, 1024), 30);
    }

    #[test]
    fn target_controller_steers_toward_the_target() {
        // A synthetic "codec" shaped like a real session: one intra
        // anchor (4× a P frame's bits), then P frames whose bits double
        // per 6 QP. The controller must dither so the steady-state mean
        // lands near the target.
        let pixels = 10_000usize;
        let target_bpp = 0.3;
        let mut ctl = TargetBppController::<u8>::new(target_bpp, 6);
        let bits_at = |qp: u8, intra: bool| -> u64 {
            // 0.1 bpp at QP 30, doubling every 6 QP down.
            let octaves = (30.0 - f64::from(qp)) / 6.0;
            let bpp = 0.1 * 2.0_f64.powf(octaves) * if intra { 4.0 } else { 1.0 };
            (bpp * pixels as f64) as u64
        };
        let mut tail_bits = 0u64;
        let (frames, warmup) = (64u64, 16u64);
        for i in 0..frames {
            let intra = i == 0;
            let qp = ctl.pick(&RateRequest {
                frame_index: i,
                intra,
                pixels,
                prev: None,
            });
            let bits = bits_at(qp, intra);
            if i >= warmup {
                tail_bits += bits;
            }
            ctl.observe(&RateOutcome {
                frame_index: i,
                intra,
                pixels,
                bits,
                wire_rate: qp,
            });
        }
        let mean_bpp = tail_bits as f64 / ((frames - warmup) as f64 * pixels as f64);
        let err = (mean_bpp - target_bpp).abs() / target_bpp;
        assert!(
            err < 0.10,
            "steady-state mean {mean_bpp:.4} bpp vs target {target_bpp} ({:.1} % off)",
            err * 100.0
        );
    }

    #[test]
    fn target_controller_clamps_bucket_and_survives_extremes() {
        let mut ctl = TargetBppController::<u8>::new(0.05, 4);
        // Bits stay monotone in QP but far above the target at every
        // ladder position: the controller must pin the ladder floor.
        let over_budget =
            |qp: u8| -> u64 { (50_000.0 * 2.0_f64.powf((51.0 - f64::from(qp)) / 6.0)) as u64 };
        for i in 0..16 {
            let qp = ctl.pick(&RateRequest {
                frame_index: i,
                intra: i == 0,
                pixels: 100,
                prev: None,
            });
            ctl.observe(&RateOutcome {
                frame_index: i,
                intra: i == 0,
                pixels: 100,
                bits: over_budget(qp),
                wire_rate: qp,
            });
        }
        // Saturated bucket drives the rate to the ladder floor…
        assert_eq!(ctl.position, 0);
        let cap = 4.0 * 0.05 * 100.0;
        assert!(ctl.fullness_bits() <= cap + 1e-9, "bucket must be clamped");
        // …and zero-bit feedback walks it back up.
        for i in 16..64 {
            let qp = ctl.pick(&RateRequest {
                frame_index: i,
                intra: false,
                pixels: 100,
                prev: None,
            });
            ctl.observe(&RateOutcome {
                frame_index: i,
                intra: false,
                pixels: 100,
                bits: 0,
                wire_rate: qp,
            });
        }
        assert!(ctl.position > 0, "empty bucket must raise the rate");
    }
}
