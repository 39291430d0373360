//! The hybrid codec's encode/decode loop, organized as streaming
//! sessions ([`HybridEncoderSession`] / [`HybridDecoderSession`], the
//! workspace-wide [`nvc_video::session`] state machine). This file
//! supplies what is the hybrid codec's own — the header layout and
//! coding one frame against the previous reconstruction — through the
//! [`VideoCodec`] hooks; the whole-sequence `encode`/`decode` methods
//! are wrappers over the sessions.

use crate::dct::{self, BS};
use crate::plane::Plane;
use crate::Profile;
use nvc_core::ExecCtx;
use nvc_entropy::container::{FrameKind, Section};
use nvc_entropy::{BitReader, BitWriter, CodingError, Histogram, RangeDecoder, RangeEncoder};
use nvc_tensor::{Shape, Tensor};
use nvc_video::block_match::{self, BlockMatcher, Fill, Rules};
use nvc_video::codec::{CodedFrame, SectionList, VideoCodec};
use nvc_video::rate::RateMode;
use nvc_video::session::{SessionMetrics, StreamDecoder, StreamEncoder};
use nvc_video::{Frame, Sequence, VideoError};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Error type for codec operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// Input sequence problems.
    Video(VideoError),
    /// Entropy-coding problems (malformed bitstream on decode).
    Coding(CodingError),
    /// Semantic mismatch (e.g. decoding with the wrong profile).
    BadInput(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Video(e) => write!(f, "video error: {e}"),
            CodecError::Coding(e) => write!(f, "coding error: {e}"),
            CodecError::BadInput(s) => write!(f, "bad input: {s}"),
        }
    }
}

impl Error for CodecError {}

impl From<VideoError> for CodecError {
    fn from(e: VideoError) -> Self {
        CodecError::Video(e)
    }
}

impl From<CodingError> for CodecError {
    fn from(e: CodingError) -> Self {
        CodecError::Coding(e)
    }
}

/// Result of encoding a sequence: the bitstream, the decoder-side
/// reconstruction and rate statistics.
#[derive(Debug, Clone)]
pub struct CodedSequence {
    /// Complete bitstream (header + per-frame payloads).
    pub bitstream: Vec<u8>,
    /// Reconstruction as produced by the in-loop decoder.
    pub decoded: Sequence,
    /// Payload bytes per frame (excluding the sequence header).
    pub bytes_per_frame: Vec<usize>,
    /// Total bitstream size in bytes.
    pub total_bytes: usize,
    /// Bits per pixel over the whole sequence.
    pub bpp: f64,
}

/// Per-frame symbol models, reset at every frame so encoder and decoder
/// stay in sync without back-channel state.
struct Models {
    skip: Histogram,
    mv: Histogram,
    dc: Histogram,
    last: Histogram,
    ac: Histogram,
    mv_offset: i32,
}

impl Models {
    fn new(search_range: i32) -> Models {
        // Half-pel units: [-2r-1, 2r+1].
        let mv_offset = 2 * search_range + 1;
        Models {
            skip: Histogram::uniform(2),
            mv: Histogram::uniform((2 * mv_offset + 1) as usize),
            dc: Histogram::uniform(1025),
            last: Histogram::uniform(65),
            ac: Histogram::uniform(513),
            mv_offset,
        }
    }
}

/// Wall time of phase 1 of every P-frame encode (the motion search and
/// skip decisions), global like the `nvc_ctvc_*_us` stage histograms.
fn motion_search_us() -> &'static nvc_telemetry::Histogram {
    static HIST: OnceLock<nvc_telemetry::Histogram> = OnceLock::new();
    HIST.get_or_init(|| nvc_telemetry::histogram("nvc_hybrid_motion_search_us"))
}

const DC_CLAMP: i32 = 512;
const AC_CLAMP: i32 = 256;

/// Classical hybrid block codec (see crate docs).
#[derive(Debug, Clone)]
pub struct HybridCodec {
    profile: Profile,
    exec: ExecCtx,
}

impl HybridCodec {
    /// Creates a codec with the given profile, using all available
    /// hardware parallelism for motion estimation. The parallel split is
    /// per block with unchanged per-block search, so bitstreams are
    /// bit-identical for every thread count.
    pub fn new(profile: Profile) -> Self {
        Self::with_threads(profile, 0)
    }

    /// Creates a codec with an explicit worker-thread count (`0` = all
    /// available cores).
    pub fn with_threads(profile: Profile, threads: usize) -> Self {
        HybridCodec {
            profile,
            exec: ExecCtx::with_threads(threads),
        }
    }

    /// The execution context encoder sessions fan motion search out on.
    pub fn exec(&self) -> &ExecCtx {
        &self.exec
    }

    /// The active profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    fn frame_to_planes(frame: &Frame) -> [Plane; 3] {
        let t = frame.tensor();
        let (_, _, h, w) = t.shape().dims();
        let mut planes = [Plane::zeros(w, h), Plane::zeros(w, h), Plane::zeros(w, h)];
        for (c, plane) in planes.iter_mut().enumerate() {
            for y in 0..h {
                for x in 0..w {
                    *plane.at_mut(y, x) = t.at(0, c, y, x);
                }
            }
        }
        planes
    }

    fn planes_to_frame(planes: &[Plane; 3]) -> Result<Frame, CodecError> {
        let (w, h) = (planes[0].width(), planes[0].height());
        let t = Tensor::from_fn(Shape::new(1, 3, h, w), |_, c, y, x| {
            planes[c].at(y, x).clamp(0.0, 1.0)
        });
        Ok(Frame::from_tensor(t)?)
    }

    fn luma(planes: &[Plane; 3]) -> Plane {
        let (w, h) = (planes[0].width(), planes[0].height());
        let mut out = Plane::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                *out.at_mut(y, x) = 0.299 * planes[0].at(y, x)
                    + 0.587 * planes[1].at(y, x)
                    + 0.114 * planes[2].at(y, x);
            }
        }
        out
    }

    /// Opens a streaming encoder session under the given rate-control
    /// mode — a fixed QP (lower = better, 0..=51 useful) converts via
    /// `Into`, or pass a [`RateMode`] for the closed-loop /
    /// external-controller modes.
    pub fn start_encode(&self, mode: impl Into<RateMode<u8>>) -> HybridEncoderSession<'_> {
        StreamEncoder::new(self, mode.into())
    }

    /// Opens a streaming decoder session; geometry and QP come from the
    /// first packet's embedded header.
    pub fn start_decode(&self) -> HybridDecoderSession<'_> {
        StreamDecoder::new(self)
    }

    /// Encodes a sequence at quality `qp` — a thin wrapper pushing every
    /// frame through a [`HybridEncoderSession`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Video`] if the sequence is malformed.
    pub fn encode(&self, seq: &Sequence, qp: u8) -> Result<CodedSequence, CodecError> {
        let coded = nvc_video::codec::encode_sequence(self, seq, qp)?;
        let bitstream = coded.to_bytes();
        Ok(CodedSequence {
            bitstream,
            decoded: coded
                .decoded
                .renamed(format!("{}-qp{qp}", self.profile.name)),
            bpp: coded.stats.bpp(seq.pixels_per_frame()),
            bytes_per_frame: coded.stats.bytes_per_frame,
            total_bytes: coded.stats.total_bytes,
        })
    }

    /// Decodes a packetized bitstream produced by
    /// [`encode`](Self::encode) with the same profile — a thin wrapper
    /// over [`HybridDecoderSession`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Coding`] on malformed input.
    pub fn decode(&self, bitstream: &[u8]) -> Result<Sequence, CodecError> {
        nvc_video::codec::decode_bitstream(self, bitstream)
    }

    // ---- intra ----

    fn encode_intra(
        &self,
        planes: &[Plane; 3],
        step: f32,
        models: &mut Models,
        rc: &mut RangeEncoder,
        recon: &mut [Plane; 3],
    ) {
        let (w, h) = (planes[0].width(), planes[0].height());
        for c in 0..3 {
            for by in (0..h).step_by(BS) {
                for bx in (0..w).step_by(BS) {
                    // DC prediction from the reconstructed left block mean.
                    let pred = intra_dc_pred(&recon[c], by, bx);
                    let block = read_block(&planes[c], by, bx);
                    let mut coef = dct::forward(&block);
                    coef[0] -= pred * BS as f32; // orthonormal DC gain is 8
                    let q = dct::quantize(&coef, step);
                    code_block(rc, models, q);
                    let mut dq = dct::dequantize(&q, step);
                    dq[0] += pred * BS as f32;
                    let rec = dct::inverse(&dq);
                    write_block(&mut recon[c], by, bx, &rec);
                }
            }
        }
    }

    fn decode_intra(
        &self,
        step: f32,
        models: &mut Models,
        rc: &mut RangeDecoder,
        recon: &mut [Plane; 3],
    ) {
        let (w, h) = (recon[0].width(), recon[0].height());
        for plane in recon.iter_mut() {
            for by in (0..h).step_by(BS) {
                for bx in (0..w).step_by(BS) {
                    let pred = intra_dc_pred(plane, by, bx);
                    let q = decode_block(rc, models);
                    let mut dq = dct::dequantize(&q, step);
                    dq[0] += pred * BS as f32;
                    let rec = dct::inverse(&dq);
                    write_block(plane, by, bx, &rec);
                }
            }
        }
    }

    // ---- inter ----

    fn encode_inter(
        &self,
        planes: &[Plane; 3],
        reference: &[Plane; 3],
        step: f32,
        models: &mut Models,
        rc: &mut RangeEncoder,
        recon: &mut [Plane; 3],
    ) {
        let (w, h) = (planes[0].width(), planes[0].height());
        let mb = self.profile.mc_block;
        let cur_luma = Self::luma(planes);
        let ref_luma = Self::luma(reference);
        let search = motion_search_us().time();
        let decisions = self.motion_decisions(&cur_luma, &ref_luma, step);
        drop(search);

        // Phase 2 — sequential transform coding and reconstruction.
        for (&(by, bx, bs), &(mv_y, mv_x, skip)) in
            block_match::blocks(w, h, mb).iter().zip(&decisions)
        {
            encode_sym(rc, &mut models.skip, u32::from(skip));
            if skip {
                for c in 0..3 {
                    copy_mc_block(&reference[c], &mut recon[c], by, bx, bs, 0, 0);
                }
                continue;
            }
            let off = models.mv_offset;
            encode_sym(rc, &mut models.mv, (mv_y + off) as u32);
            encode_sym(rc, &mut models.mv, (mv_x + off) as u32);
            for c in 0..3 {
                // Motion-compensated prediction, then transform-coded
                // residual on 8x8 sub-blocks.
                copy_mc_block(&reference[c], &mut recon[c], by, bx, bs, mv_y, mv_x);
                for sy in (0..bs).step_by(BS) {
                    for sx in (0..bs).step_by(BS) {
                        let (oy, ox) = (by + sy, bx + sx);
                        let orig = read_block(&planes[c], oy, ox);
                        let pred = read_block(&recon[c], oy, ox);
                        let mut resid = [0.0_f32; BS * BS];
                        for i in 0..BS * BS {
                            resid[i] = orig[i] - pred[i];
                        }
                        let coef = dct::forward(&resid);
                        let q = dct::quantize(&coef, step);
                        code_block(rc, models, q);
                        let dq = dct::dequantize(&q, step);
                        let rec = dct::inverse(&dq);
                        let mut out = [0.0_f32; BS * BS];
                        for i in 0..BS * BS {
                            out[i] = pred[i] + rec[i];
                        }
                        write_block(&mut recon[c], oy, ox, &out);
                    }
                }
            }
        }
    }

    fn decode_inter(
        &self,
        reference: &[Plane; 3],
        step: f32,
        models: &mut Models,
        rc: &mut RangeDecoder,
        recon: &mut [Plane; 3],
    ) {
        let (w, h) = (recon[0].width(), recon[0].height());
        for (by, bx, bs) in block_match::blocks(w, h, self.profile.mc_block) {
            let skip = decode_sym(rc, &mut models.skip) == 1;
            if skip {
                for c in 0..3 {
                    copy_mc_block(&reference[c], &mut recon[c], by, bx, bs, 0, 0);
                }
                continue;
            }
            let off = models.mv_offset;
            let mv_y = decode_sym(rc, &mut models.mv) as i32 - off;
            let mv_x = decode_sym(rc, &mut models.mv) as i32 - off;
            for c in 0..3 {
                copy_mc_block(&reference[c], &mut recon[c], by, bx, bs, mv_y, mv_x);
                for sy in (0..bs).step_by(BS) {
                    for sx in (0..bs).step_by(BS) {
                        let (oy, ox) = (by + sy, bx + sx);
                        let pred = read_block(&recon[c], oy, ox);
                        let q = decode_block(rc, models);
                        let dq = dct::dequantize(&q, step);
                        let rec = dct::inverse(&dq);
                        let mut out = [0.0_f32; BS * BS];
                        for i in 0..BS * BS {
                            out[i] = pred[i] + rec[i];
                        }
                        write_block(&mut recon[c], oy, ox, &out);
                    }
                }
            }
        }
    }

    /// Phase 1 of a P-frame encode: each motion block's half-pel MV and
    /// skip flag, in raster block order. Every block's search and skip
    /// test read only the two fixed luma planes, so they fan out over the
    /// worker pool; entropy coding stays strictly sequential in phase 2
    /// and consumes the decisions in raster order, producing the same
    /// bitstream for every thread count.
    ///
    /// The search is [`nvc_video::block_match`] under [`Rules::HYBRID`]
    /// over an edge-replicated margin ([`Plane::at_clamped`]), its vector
    /// clamped into the coded alphabet.
    fn motion_decisions(&self, cur: &Plane, reference: &Plane, step: f32) -> Vec<(i32, i32, bool)> {
        let (w, h) = (cur.width(), cur.height());
        let r = self.profile.search_range.max(0);
        let matcher = BlockMatcher::new(
            cur.as_slice(),
            reference.as_slice(),
            (w, h),
            (r, self.profile.half_pel),
            Fill::Edge,
            Rules::HYBRID,
        );
        let blocks = block_match::blocks(w, h, self.profile.mc_block);
        let mut decisions = vec![(0_i32, 0_i32, false); blocks.len()];
        // Work is samples read: ¾ of the (2r + 1)² full-pel candidate
        // rows (what the unseeded lockstep scan read), 25 per pixel for
        // the nine half-pel candidates, one for the skip test. Threads 2
        // against 1 on the 2-core reference host was faster from
        // 3.8 · 10⁵ samples up and no faster from 2.6 · 10⁵ down, so the
        // estimate crosses `PAR_MIN_WORK` between; the seeded scan reads
        // less, but the estimate and its fan-out decisions are kept.
        let candidates = (2 * r as u64 + 1).pow(2);
        let refinement = if self.profile.half_pel { 25 } else { 0 };
        let work = (h * w) as u64 * (candidates * 3 / 4 + refinement + 1);
        self.exec
            .par_chunks_mut_gated(&mut decisions, 1, work, |bi, d| {
                let at = blocks[bi];
                let ((mv_y, mv_x), zero_cost) = matcher.search(at);
                let off = 2 * r;
                let (mv_y, mv_x) = (mv_y.clamp(-off, off), mv_x.clamp(-off, off));
                // Skip decision: zero MV and small prediction error.
                let mean0 = zero_cost / (at.2 * at.2) as f64;
                d[0] = (
                    mv_y,
                    mv_x,
                    (mv_y, mv_x) == (0, 0) && mean0 <= 0.6 * step as f64,
                );
            });
        decisions
    }
}

/// Streaming encoder session for [`HybridCodec`]: the shared
/// [`StreamEncoder`] carrying the previous reconstruction (the
/// prediction reference).
pub type HybridEncoderSession<'a> = StreamEncoder<'a, HybridCodec>;

/// Streaming decoder session for [`HybridCodec`].
pub type HybridDecoderSession<'a> = StreamDecoder<'a, HybridCodec>;

impl VideoCodec for HybridCodec {
    type Error = CodecError;
    type Rate = u8;
    /// The previous reconstruction, per color plane.
    type Reference = [Plane; 3];

    fn codec_name(&self) -> &str {
        self.profile.name
    }

    fn start_encode(&self, mode: RateMode<u8>) -> Result<HybridEncoderSession<'_>, CodecError> {
        Ok(HybridCodec::start_encode(self, mode))
    }

    fn start_decode(&self) -> HybridDecoderSession<'_> {
        HybridCodec::start_decode(self)
    }

    fn metrics(&self) -> &'static SessionMetrics {
        static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
        METRICS.get_or_init(|| SessionMetrics::new("nvc_hybrid"))
    }

    fn bad_input(reason: String) -> CodecError {
        CodecError::BadInput(reason)
    }

    fn check_dims(&self, w: usize, h: usize) -> Result<(), CodecError> {
        if w == 0 || h == 0 {
            return Err(CodecError::BadInput(format!("bad stream geometry {w}x{h}")));
        }
        Ok(())
    }

    fn write_header(&self, w: usize, h: usize, qp: u8) -> Vec<u8> {
        let mut header = BitWriter::new();
        header.write_bits(w as u32, 16);
        header.write_bits(h as u32, 16);
        header.write_bits(u32::from(qp), 8);
        header.finish()
    }

    fn parse_header(&self, payload: &[u8]) -> Result<(usize, usize, u8), CodecError> {
        let mut hr = BitReader::new(payload);
        let w = hr.read_bits(16)? as usize;
        let h = hr.read_bits(16)? as usize;
        let qp = hr.read_bits(8)? as u8;
        Ok((w, h, qp))
    }

    fn encode_frame(
        &self,
        frame: &Frame,
        reference: Option<&[Plane; 3]>,
        qp: u8,
    ) -> Result<CodedFrame<[Plane; 3]>, CodecError> {
        let (w, h) = (frame.width(), frame.height());
        let step = dct::qp_to_step(qp);
        let planes = HybridCodec::frame_to_planes(frame);
        let mut models = Models::new(self.profile.search_range);
        let mut rc = RangeEncoder::new();
        let mut recon = [Plane::zeros(w, h), Plane::zeros(w, h), Plane::zeros(w, h)];
        let section = match reference {
            None => {
                self.encode_intra(&planes, step, &mut models, &mut rc, &mut recon);
                Section::Intra
            }
            Some(reference) => {
                self.encode_inter(&planes, reference, step, &mut models, &mut rc, &mut recon);
                Section::Motion
            }
        };
        if self.profile.deblock {
            for p in &mut recon {
                deblock(p, step);
            }
        }
        Ok(CodedFrame {
            sections: vec![(section, rc.finish())],
            reference: recon,
        })
    }

    fn decode_frame(
        &self,
        kind: FrameKind,
        sections: &SectionList,
        reference: Option<&[Plane; 3]>,
        (w, h): (usize, usize),
        qp: u8,
    ) -> Result<[Plane; 3], CodecError> {
        let step = dct::qp_to_step(qp);
        let payload = match (kind, sections) {
            (FrameKind::Intra, [(Section::Intra, payload)]) => payload,
            (FrameKind::Predicted, [(Section::Motion, payload)]) => payload,
            _ => {
                return Err(CodecError::BadInput(
                    "packet sections do not match its frame kind".into(),
                ))
            }
        };
        let mut models = Models::new(self.profile.search_range);
        let mut rc = RangeDecoder::new(payload);
        let mut recon = [Plane::zeros(w, h), Plane::zeros(w, h), Plane::zeros(w, h)];
        match kind {
            FrameKind::Intra => {
                self.decode_intra(step, &mut models, &mut rc, &mut recon);
            }
            FrameKind::Predicted => {
                let reference = reference
                    .ok_or_else(|| CodecError::BadInput("P frame without reference".into()))?;
                self.decode_inter(reference, step, &mut models, &mut rc, &mut recon);
            }
        }
        if self.profile.deblock {
            for p in &mut recon {
                deblock(p, step);
            }
        }
        Ok(recon)
    }

    fn reconstruct(&self, recon: &[Plane; 3]) -> Result<Frame, CodecError> {
        HybridCodec::planes_to_frame(recon)
    }
}

// ---- shared block helpers ----

fn read_block(p: &Plane, by: usize, bx: usize) -> [f32; BS * BS] {
    let mut out = [0.0_f32; BS * BS];
    for y in 0..BS {
        for x in 0..BS {
            out[y * BS + x] = p.at_clamped((by + y) as isize, (bx + x) as isize);
        }
    }
    out
}

fn write_block(p: &mut Plane, by: usize, bx: usize, block: &[f32; BS * BS]) {
    let (w, h) = (p.width(), p.height());
    for y in 0..BS {
        for x in 0..BS {
            if by + y < h && bx + x < w {
                *p.at_mut(by + y, bx + x) = block[y * BS + x];
            }
        }
    }
}

fn copy_mc_block(
    reference: &Plane,
    dst: &mut Plane,
    by: usize,
    bx: usize,
    bs: usize,
    mv_y: i32,
    mv_x: i32,
) {
    let (w, h) = (dst.width(), dst.height());
    for y in 0..bs {
        for x in 0..bs {
            if by + y < h && bx + x < w {
                let v = reference.at_half_pel(
                    (by + y) as isize * 2 + mv_y as isize,
                    (bx + x) as isize * 2 + mv_x as isize,
                );
                *dst.at_mut(by + y, bx + x) = v;
            }
        }
    }
}

fn intra_dc_pred(recon: &Plane, by: usize, bx: usize) -> f32 {
    // Mean of the reconstructed column to the left / row above, 0.5 default.
    let mut acc = 0.0;
    let mut cnt = 0.0;
    if bx >= 1 {
        for y in 0..BS.min(recon.height() - by) {
            acc += recon.at(by + y, bx - 1);
            cnt += 1.0;
        }
    }
    if by >= 1 {
        for x in 0..BS.min(recon.width() - bx) {
            acc += recon.at(by - 1, bx + x);
            cnt += 1.0;
        }
    }
    if cnt > 0.0 {
        acc / cnt
    } else {
        0.5
    }
}

fn encode_sym(rc: &mut RangeEncoder, model: &mut Histogram, sym: u32) {
    rc.encode(&model.interval(sym), model.total());
    model.record(sym);
}

fn decode_sym(rc: &mut RangeDecoder, model: &mut Histogram) -> u32 {
    let f = rc.decode_freq(model.total());
    let (sym, iv) = model.lookup(f);
    rc.decode_update(&iv, model.total());
    model.record(sym);
    sym
}

/// Codes one quantized block: DC symbol, last-significant index, then the
/// AC values up to `last` in zig-zag order.
fn code_block(rc: &mut RangeEncoder, models: &mut Models, q: [i32; BS * BS]) {
    let order = dct::zigzag_order();
    let dc = q[0].clamp(-DC_CLAMP, DC_CLAMP);
    encode_sym(rc, &mut models.dc, (dc + DC_CLAMP) as u32);
    // Last significant AC position in zig-zag order (1..=63), 0 = none.
    let mut last = 0usize;
    for (zi, &idx) in order.iter().enumerate().skip(1) {
        if q[idx] != 0 {
            last = zi;
        }
    }
    encode_sym(rc, &mut models.last, last as u32);
    for &idx in order.iter().take(last + 1).skip(1) {
        let v = q[idx].clamp(-AC_CLAMP, AC_CLAMP);
        encode_sym(rc, &mut models.ac, (v + AC_CLAMP) as u32);
    }
}

fn decode_block(rc: &mut RangeDecoder, models: &mut Models) -> [i32; BS * BS] {
    let order = dct::zigzag_order();
    let mut q = [0_i32; BS * BS];
    q[0] = decode_sym(rc, &mut models.dc) as i32 - DC_CLAMP;
    let last = decode_sym(rc, &mut models.last) as usize;
    for &idx in order.iter().take(last + 1).skip(1) {
        q[idx] = decode_sym(rc, &mut models.ac) as i32 - AC_CLAMP;
    }
    q
}

/// Light deblocking: smooths 1 sample each side of 8-pixel block
/// boundaries where the boundary step is small (i.e. likely a coding
/// artefact rather than a real edge).
fn deblock(p: &mut Plane, step: f32) {
    let (w, h) = (p.width(), p.height());
    let thr = 4.0 * step;
    // Vertical boundaries.
    for x in (BS..w).step_by(BS) {
        for y in 0..h {
            let a = p.at(y, x - 1);
            let b = p.at(y, x);
            let d = b - a;
            if d.abs() < thr {
                *p.at_mut(y, x - 1) = a + d / 4.0;
                *p.at_mut(y, x) = b - d / 4.0;
            }
        }
    }
    // Horizontal boundaries.
    for y in (BS..h).step_by(BS) {
        for x in 0..w {
            let a = p.at(y - 1, x);
            let b = p.at(y, x);
            let d = b - a;
            if d.abs() < thr {
                *p.at_mut(y - 1, x) = a + d / 4.0;
                *p.at_mut(y, x) = b - d / 4.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_video::metrics::psnr_sequence;
    use nvc_video::synthetic::{SceneConfig, Synthesizer};

    fn test_seq(frames: usize) -> Sequence {
        Synthesizer::new(SceneConfig::uvg_like(64, 48, frames)).generate()
    }

    #[test]
    fn fast_search_matches_the_scalar_reference_bit_for_bit() {
        // Both profiles at a block-multiple and a clipped size, each
        // large enough to fan out, at a step that skips and one that
        // does not. The vectors are the scalar reference's under the
        // hybrid rules over an edge-replicated margin, clamped into the
        // coded alphabet; the skip test reads its zero-vector SAD. The
        // odd planes and geometries are swept in `block_match`.
        let (mut skips, mut moved, mut half) = (0, 0, 0);
        for (w, h) in [(64, 48), (52, 38)] {
            let clip = Synthesizer::new(SceneConfig::mcl_jcv_like(w, h, 2)).generate();
            let [cur, reference] =
                [1, 0].map(|i| HybridCodec::luma(&HybridCodec::frame_to_planes(&clip.frames()[i])));
            for profile in [Profile::hevc_like(), Profile::avc_like()] {
                let r = profile.search_range;
                let (samples, dims) = ((cur.as_slice(), reference.as_slice()), (w, h));
                let search = (r, profile.half_pel);
                let searched: Vec<_> = block_match::blocks(w, h, profile.mc_block)
                    .into_iter()
                    .map(|at| {
                        let (mv, sad0) = block_match::reference_search(
                            samples,
                            dims,
                            search,
                            Fill::Edge,
                            Rules::HYBRID,
                            at,
                        );
                        let mv = (mv.0.clamp(-2 * r, 2 * r), mv.1.clamp(-2 * r, 2 * r));
                        (mv, sad0 / (at.2 * at.2) as f64)
                    })
                    .collect();
                for step in [dct::qp_to_step(20), dct::qp_to_step(44)] {
                    let expected: Vec<(i32, i32, bool)> = searched
                        .iter()
                        .map(|&(mv, mean0)| {
                            (mv.0, mv.1, mv == (0, 0) && mean0 <= 0.6 * step as f64)
                        })
                        .collect();
                    for &(mv_y, mv_x, skip) in &expected {
                        skips += usize::from(skip);
                        moved += usize::from((mv_y, mv_x) != (0, 0));
                        half += usize::from(mv_y % 2 != 0 || mv_x % 2 != 0);
                    }
                    for workers in [1, 2, 7] {
                        let codec = HybridCodec::with_threads(profile.clone(), workers);
                        assert_eq!(
                            codec.motion_decisions(&cur, &reference, step),
                            expected,
                            "{} {w}x{h}, step {step}, {workers} workers",
                            profile.name
                        );
                    }
                }
            }
        }
        assert!(
            skips > 0 && moved > half && half > 0,
            "decisions: {skips} skips, {moved} non-zero vectors, {half} half-pel"
        );
    }

    #[test]
    fn encode_decode_bitstream_matches_loop_reconstruction() {
        let seq = test_seq(3);
        for profile in [Profile::avc_like(), Profile::hevc_like()] {
            let codec = HybridCodec::new(profile.clone());
            let coded = codec.encode(&seq, 24).unwrap();
            let decoded = codec.decode(&coded.bitstream).unwrap();
            assert_eq!(decoded.frames().len(), 3, "{}", profile.name);
            for (a, b) in decoded.frames().iter().zip(coded.decoded.frames()) {
                let diff = a.tensor().sub(b.tensor()).unwrap().max_abs();
                assert!(diff < 1e-6, "{}: decoder drift {diff}", profile.name);
            }
        }
    }

    #[test]
    fn quality_improves_with_lower_qp() {
        let seq = test_seq(2);
        let codec = HybridCodec::new(Profile::hevc_like());
        let hi = codec.encode(&seq, 12).unwrap();
        let lo = codec.encode(&seq, 36).unwrap();
        let pairs_hi: Vec<_> = seq.frames().iter().zip(hi.decoded.frames()).collect();
        let pairs_lo: Vec<_> = seq.frames().iter().zip(lo.decoded.frames()).collect();
        let psnr_hi =
            psnr_sequence(&pairs_hi.iter().map(|(a, b)| (*a, *b)).collect::<Vec<_>>()).unwrap();
        let psnr_lo =
            psnr_sequence(&pairs_lo.iter().map(|(a, b)| (*a, *b)).collect::<Vec<_>>()).unwrap();
        assert!(psnr_hi > psnr_lo + 3.0, "qp12 {psnr_hi} vs qp36 {psnr_lo}");
        assert!(hi.total_bytes > lo.total_bytes);
    }

    #[test]
    fn hevc_profile_beats_avc_profile() {
        // At equal QP the HEVC-like toolset should spend fewer bits
        // (better prediction) for at-least-comparable quality.
        let seq = Synthesizer::new(SceneConfig::hevc_b_like(64, 48, 4)).generate();
        let qp = 26;
        let avc = HybridCodec::new(Profile::avc_like())
            .encode(&seq, qp)
            .unwrap();
        let hevc = HybridCodec::new(Profile::hevc_like())
            .encode(&seq, qp)
            .unwrap();
        let p_avc = psnr_sequence(
            &seq.frames()
                .iter()
                .zip(avc.decoded.frames())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let p_hevc = psnr_sequence(
            &seq.frames()
                .iter()
                .zip(hevc.decoded.frames())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // Accept either fewer bits at similar quality or better quality.
        let rate_gain = avc.total_bytes as f64 / hevc.total_bytes as f64;
        assert!(
            rate_gain > 1.02 || p_hevc > p_avc + 0.2,
            "HEVC-like must beat AVC-like: rate x{rate_gain:.3}, psnr {p_hevc:.2} vs {p_avc:.2}"
        );
    }

    #[test]
    fn still_sequence_is_nearly_free() {
        // A static scene: P frames should be almost all skip blocks.
        let f = test_seq(1).frames()[0].clone();
        let frames = vec![f.clone(), f.clone(), f.clone(), f];
        let seq = Sequence::new("static", frames, 30.0).unwrap();
        let coded = HybridCodec::new(Profile::hevc_like())
            .encode(&seq, 24)
            .unwrap();
        let intra = coded.bytes_per_frame[0];
        for &p in &coded.bytes_per_frame[1..] {
            // P frames still pay per-block skip flags plus coder flush.
            assert!(p * 5 < intra, "P frame {p} bytes vs intra {intra}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let codec = HybridCodec::new(Profile::hevc_like());
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn streaming_matches_one_shot() {
        use nvc_video::codec::stream_roundtrip;
        let seq = test_seq(3);
        let codec = HybridCodec::new(Profile::hevc_like());
        let (coded, drift) = stream_roundtrip(&codec, &seq, 24).unwrap();
        assert_eq!(
            drift, 0.0,
            "streaming decode must match the closed loop exactly"
        );
        let one_shot = codec.decode(&coded.to_bytes()).unwrap();
        for (a, b) in one_shot.frames().iter().zip(coded.decoded.frames()) {
            assert_eq!(a.tensor().as_slice(), b.tensor().as_slice());
        }
    }

    #[test]
    fn joinable_stream_decodes_from_any_intra() {
        use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
        let seq = test_seq(6);
        let codec = HybridCodec::new(Profile::hevc_like());
        let mut enc = codec.start_encode(24);
        enc.set_join_headers(true);
        let mut packets = Vec::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            if i == 3 {
                enc.restart_gop();
            }
            packets.push(enc.push_frame(frame).unwrap());
        }
        assert_eq!(packets[3].kind, FrameKind::Intra);
        let mut full = codec.start_decode();
        let all: Vec<Frame> = packets
            .iter()
            .map(|p| full.push_packet(&p.to_bytes()).unwrap())
            .collect();
        let mut late = codec.start_decode();
        for (i, p) in packets.iter().enumerate().skip(3) {
            let f = late.push_packet(&p.to_bytes()).unwrap();
            assert_eq!(
                f.tensor().as_slice(),
                all[i].tensor().as_slice(),
                "late join diverged at frame {i}"
            );
        }
        assert_eq!(late.frames_decoded(), 3);
    }

    #[test]
    fn non_multiple_of_block_sizes_roundtrip() {
        let seq = Synthesizer::new(SceneConfig::mcl_jcv_like(52, 38, 2)).generate();
        let codec = HybridCodec::new(Profile::hevc_like());
        let coded = codec.encode(&seq, 20).unwrap();
        let decoded = codec.decode(&coded.bitstream).unwrap();
        assert_eq!(decoded.width(), 52);
        assert_eq!(decoded.height(), 38);
        for (a, b) in decoded.frames().iter().zip(coded.decoded.frames()) {
            assert!(a.tensor().sub(b.tensor()).unwrap().max_abs() < 1e-6);
        }
    }
}
