//! End-to-end CTVC codec: encoder, bitstream format and decoder.
//!
//! The codec is organized around streaming sessions ([`CtvcEncoderSession`]
//! / [`CtvcDecoderSession`], the workspace-wide
//! [`nvc_video::session`] state machine): frames go in one at a time,
//! length-delimited CRC-protected packets come out, and all carried
//! state (the reference feature tensor, stream geometry, GOP position)
//! lives in the session. This file supplies what is CTVC's own — the
//! header layout and coding one frame against the reference features —
//! through the [`VideoCodec`] hooks. The whole-sequence
//! [`encode`](CtvcCodec::encode) / [`decode`](CtvcCodec::decode) methods
//! are thin wrappers over the sessions.

use crate::config::{CtvcConfig, RatePoint};
use crate::latent;
use crate::modules::{
    CompressionAutoencoder, DeformableCompensation, FeatureExtractor, FrameReconstructor,
    MotionCnn, MOTION_SCALE,
};
use crate::motion;
use nvc_core::ExecCtx;
use nvc_entropy::container::{FrameKind, Section};
use nvc_entropy::{BitReader, BitWriter, CodingError};
use nvc_sim::Workload;
use nvc_tensor::{Shape, Tensor, TensorError};
use nvc_video::codec::{CodedFrame, SectionList, VideoCodec};
use nvc_video::rate::RateMode;
use nvc_video::session::{SessionMetrics, StreamDecoder, StreamEncoder};
use nvc_video::{Frame, Sequence, VideoError};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Error type for the CTVC codec.
#[derive(Debug)]
#[non_exhaustive]
pub enum CtvcError {
    /// Invalid configuration.
    Config(String),
    /// Tensor/shape failure.
    Tensor(TensorError),
    /// Entropy-coding failure (malformed bitstream).
    Coding(CodingError),
    /// Frame/sequence failure.
    Video(VideoError),
    /// Semantically invalid input (e.g. resolution not divisible by 16).
    BadInput(String),
}

impl fmt::Display for CtvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtvcError::Config(s) => write!(f, "bad configuration: {s}"),
            CtvcError::Tensor(e) => write!(f, "tensor error: {e}"),
            CtvcError::Coding(e) => write!(f, "coding error: {e}"),
            CtvcError::Video(e) => write!(f, "video error: {e}"),
            CtvcError::BadInput(s) => write!(f, "bad input: {s}"),
        }
    }
}

impl Error for CtvcError {}

impl From<TensorError> for CtvcError {
    fn from(e: TensorError) -> Self {
        CtvcError::Tensor(e)
    }
}

impl From<CodingError> for CtvcError {
    fn from(e: CodingError) -> Self {
        CtvcError::Coding(e)
    }
}

impl From<VideoError> for CtvcError {
    fn from(e: VideoError) -> Self {
        CtvcError::Video(e)
    }
}

/// Result of encoding: bitstream, in-loop reconstruction and rate stats.
#[derive(Debug, Clone)]
pub struct CtvcCoded {
    /// Complete bitstream.
    pub bitstream: Vec<u8>,
    /// Decoder-identical reconstruction.
    pub decoded: Sequence,
    /// Payload bytes per frame.
    pub bytes_per_frame: Vec<usize>,
    /// Total bitstream bytes.
    pub total_bytes: usize,
    /// Bits per pixel over the sequence.
    pub bpp: f64,
}

/// Feature-plane size `(h/2, w/2)` of an `h × w` frame.
///
/// # Panics
///
/// Panics if `h` or `w` is not a positive multiple of 16.
fn feature_hw(h: usize, w: usize) -> (usize, usize) {
    assert!(
        h > 0 && w > 0 && h.is_multiple_of(16) && w.is_multiple_of(16),
        "resolution must be a multiple of 16"
    );
    (h / 2, w / 2)
}

/// Wall time of the CTVC stages that a frame's encode may or may not
/// run, global like the `nvc_kernel_*_us` family histograms: the motion
/// search of every P-frame encode, and frame reconstruction, which
/// every decoded frame runs and an encoder runs only when asked for its
/// reconstruction.
struct StageHistograms {
    motion_search_us: nvc_telemetry::Histogram,
    render_us: nvc_telemetry::Histogram,
}

fn stage_histograms() -> &'static StageHistograms {
    static HISTS: OnceLock<StageHistograms> = OnceLock::new();
    HISTS.get_or_init(|| StageHistograms {
        motion_search_us: nvc_telemetry::histogram("nvc_ctvc_motion_search_us"),
        render_us: nvc_telemetry::histogram("nvc_ctvc_render_us"),
    })
}

/// The CTVC-Net codec (see crate docs).
#[derive(Debug, Clone)]
pub struct CtvcCodec {
    cfg: CtvcConfig,
    fe: FeatureExtractor,
    fr: FrameReconstructor,
    me_cnn: MotionCnn,
    comp: DeformableCompensation,
    motion_ae: CompressionAutoencoder,
    residual_ae: CompressionAutoencoder,
    exec: ExecCtx,
}

impl CtvcCodec {
    /// Builds all modules from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError::Config`] for invalid configurations.
    pub fn new(cfg: CtvcConfig) -> Result<Self, CtvcError> {
        cfg.validate().map_err(CtvcError::Config)?;
        Ok(CtvcCodec {
            fe: FeatureExtractor::new(&cfg)?,
            fr: FrameReconstructor::new(&cfg)?,
            me_cnn: MotionCnn::new(&cfg)?,
            comp: DeformableCompensation::new(&cfg)?,
            motion_ae: CompressionAutoencoder::new(&cfg, cfg.seed ^ 0x0001)?,
            residual_ae: CompressionAutoencoder::new(&cfg, cfg.seed ^ 0x0002)?,
            exec: ExecCtx::with_threads(cfg.threads),
            cfg,
        })
    }

    /// The execution context layer work fans out on (configured by
    /// [`CtvcConfig::threads`]).
    pub fn exec(&self) -> &ExecCtx {
        &self.exec
    }

    /// The configuration.
    pub fn config(&self) -> &CtvcConfig {
        &self.cfg
    }

    /// Access to the motion-estimation CNN shell (used by workload
    /// accounting; the functional path uses block matching).
    pub fn motion_cnn(&self) -> &MotionCnn {
        &self.me_cnn
    }

    /// The layers of decoding one P frame at `h × w`, read from the built
    /// modules for the accelerator simulator, in the paper's five decoder
    /// modules (Fig. 9(b)): feature extraction, motion synthesis (after
    /// its Swin-AM latent mask when attention is on), deformable
    /// compensation, residual synthesis (likewise) and frame
    /// reconstruction.
    ///
    /// The simulator models the paper's decoder, which re-extracts the
    /// reference features every frame; this codec's P-frame decode keeps
    /// `F̂_{t−1}` as its reference instead and runs the other four
    /// modules.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is not a positive multiple of 16.
    pub fn decoder_workload(&self, h: usize, w: usize) -> Workload {
        let (h2, w2) = feature_hw(h, w);
        let latent = (h2 / 8, w2 / 8);
        let attention = self.cfg.attention;
        let mut out = Vec::new();
        self.fe.describe(&mut out, (h, w));
        let motion = &self.motion_ae;
        motion.describe_decoder(&mut out, "motion_synthesis", attention, latent);
        self.comp.describe(&mut out, (h2, w2));
        let residual = &self.residual_ae;
        residual.describe_decoder(&mut out, "residual_synthesis", attention, latent);
        self.fr.describe(&mut out, (h2, w2));
        Workload::new(out)
    }

    /// The layers of decoding an intra frame at `h × w`: frame
    /// reconstruction alone, since the intra payload dequantizes straight
    /// into features.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is not a positive multiple of 16.
    pub fn intra_workload(&self, h: usize, w: usize) -> Workload {
        let mut out = Vec::new();
        self.fr.describe(&mut out, feature_hw(h, w));
        Workload::new(out)
    }

    fn mask_fn<'a>(&'a self, ae: &'a CompressionAutoencoder) -> Option<Box<latent::MaskFn<'a>>> {
        if self.cfg.attention {
            Some(Box::new(move |z: &Tensor| {
                ae.latent_mask_ctx(z, &self.exec)
            }))
        } else {
            None
        }
    }

    fn code_latent(
        &self,
        z: &Tensor,
        ae: &CompressionAutoencoder,
        step: f32,
    ) -> Result<(Vec<u8>, Tensor), CtvcError> {
        let mask_fn = self.mask_fn(ae);
        let enc_mask = match &mask_fn {
            Some(f) => Some(f(z)?),
            None => None,
        };
        let symbols = latent::quantize(z, step, enc_mask.as_ref())?;
        let payload = latent::encode_payload(&symbols, z.shape())?;
        let z_hat = latent::dequantize(&symbols, z.shape(), step, mask_fn.as_deref())?;
        Ok((payload, z_hat))
    }

    fn decode_latent(
        &self,
        payload: &[u8],
        shape: Shape,
        ae: &CompressionAutoencoder,
        step: f32,
    ) -> Result<Tensor, CtvcError> {
        let symbols = latent::decode_payload(payload, shape)?;
        let mask_fn = self.mask_fn(ae);
        Ok(latent::dequantize(
            &symbols,
            shape,
            step,
            mask_fn.as_deref(),
        )?)
    }

    /// Reconstructed motion tensor → dense motion field usable by the
    /// compensation (rounding to full-pel when deformable warping is off).
    fn motion_for_compensation(&self, o_hat: Tensor) -> Tensor {
        if self.cfg.deformable {
            o_hat
        } else {
            o_hat.map(|v| (v * MOTION_SCALE).round() / MOTION_SCALE)
        }
    }

    /// Decodes one P frame given the reference *features* `F̂_{t−1}` and
    /// the two latent payloads; returns the reconstructed features
    /// `F̂_t = F̄_t + R̂_t`. The encoder's closed loop computes the same
    /// two branches on the way to the payloads and forms the same sum,
    /// so both stay bit-identical.
    ///
    /// Following FVC [5] ("all components operate within the feature
    /// space"), the decoder's reference is the feature tensor itself —
    /// re-extracting features from decoded pixels every frame would
    /// compound the feature↔pixel roundtrip error across the GOP.
    /// The two halves of P-frame reconstruction are independent until the
    /// final `F̄_t + R̂_t` sum, so they run as whole-module parallel work
    /// on [`ExecCtx::join`] — the coarse grain that actually fills the
    /// pool on small frames, where per-layer row/tile fan-out is gated
    /// off. Each branch is deterministic on its own, so the join changes
    /// nothing about bit-exactness across thread counts.
    fn reconstruct_p(
        &self,
        f_ref: &Tensor,
        motion_payload: &[u8],
        residual_payload: &[u8],
        rate: RatePoint,
    ) -> Result<Tensor, CtvcError> {
        let (_, _, h2, w2) = f_ref.shape().dims();
        let latent_shape = Shape::new(1, self.cfg.n, h2 / 8, w2 / 8);
        let (f_bar, r_hat) = self.exec.join(
            || -> Result<Tensor, CtvcError> {
                let zm = self.decode_latent(
                    motion_payload,
                    latent_shape,
                    &self.motion_ae,
                    rate.latent_step(),
                )?;
                let o_hat = self.motion_ae.synthesis.forward_ctx(&zm, &self.exec)?;
                let o_mc = self.motion_for_compensation(o_hat);
                Ok(self.comp.forward_ctx(f_ref, &o_mc, &self.exec)?)
            },
            || -> Result<Tensor, CtvcError> {
                let zr = self.decode_latent(
                    residual_payload,
                    latent_shape,
                    &self.residual_ae,
                    rate.latent_step(),
                )?;
                Ok(self.residual_ae.synthesis.forward_ctx(&zr, &self.exec)?)
            },
        );
        Ok(f_bar?.add(&r_hat?)?)
    }

    /// Decodes the intra frame from its payload, returning reconstructed
    /// features.
    fn reconstruct_intra(
        &self,
        payload: &[u8],
        w: usize,
        h: usize,
        rate: RatePoint,
    ) -> Result<Tensor, CtvcError> {
        let shape = Shape::new(1, self.cfg.n, h / 2, w / 2);
        let symbols = latent::decode_intra_payload(payload, shape)?;
        let f_hat = latent::dequantize(&symbols, shape, rate.intra_step(), None)?;
        Ok(f_hat)
    }

    /// Opens a streaming encoder session under the given rate-control
    /// mode — a fixed [`RatePoint`] converts via `Into`, or pass a
    /// [`RateMode`] for the closed-loop / external-controller modes.
    ///
    /// The first pushed frame fixes the stream resolution and is coded
    /// intra; later frames are predicted unless
    /// [`restart_gop`](nvc_video::EncoderSession::restart_gop) is
    /// called.
    pub fn start_encode(&self, mode: impl Into<RateMode<RatePoint>>) -> CtvcEncoderSession<'_> {
        StreamEncoder::new(self, mode.into())
    }

    /// Opens a streaming decoder session. Stream geometry and rate are
    /// read from the first packet's embedded header.
    pub fn start_decode(&self) -> CtvcDecoderSession<'_> {
        StreamDecoder::new(self)
    }

    /// Encodes a sequence at the given rate point — a thin wrapper that
    /// pushes every frame through a [`CtvcEncoderSession`].
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError::BadInput`] unless both dimensions are
    /// multiples of 16.
    pub fn encode(&self, seq: &Sequence, rate: RatePoint) -> Result<CtvcCoded, CtvcError> {
        let coded = nvc_video::codec::encode_sequence(self, seq, rate)?;
        let bitstream = coded.to_bytes();
        Ok(CtvcCoded {
            bitstream,
            decoded: coded.decoded.renamed(format!("{}-{rate}", self.cfg.name)),
            bpp: coded.stats.bpp(seq.pixels_per_frame()),
            bytes_per_frame: coded.stats.bytes_per_frame,
            total_bytes: coded.stats.total_bytes,
        })
    }

    /// Decodes a packetized bitstream produced by [`encode`](Self::encode)
    /// (or by serializing session packets) with a codec built from the
    /// same configuration — a thin wrapper over [`CtvcDecoderSession`].
    ///
    /// # Errors
    ///
    /// Returns [`CtvcError::BadInput`] on header/configuration mismatch
    /// and [`CtvcError::Coding`] on malformed packets or payloads.
    pub fn decode(&self, bitstream: &[u8]) -> Result<Sequence, CtvcError> {
        nvc_video::codec::decode_bitstream(self, bitstream)
    }

    fn encode_intra(&self, x: &Tensor, rate: RatePoint) -> Result<CodedFrame<Tensor>, CtvcError> {
        let f = self.fe.forward_ctx(x, &self.exec)?;
        let symbols = latent::quantize(&f, rate.intra_step(), None)?;
        let payload = latent::encode_intra_payload(&symbols, f.shape())?;
        // Intra coding is lossless, so these are the symbols the decoder
        // will decode: reconstruct from them instead of from the payload.
        let f_hat = latent::dequantize(&symbols, f.shape(), rate.intra_step(), None)?;
        Ok(CodedFrame {
            sections: vec![(Section::Intra, payload)],
            reference: f_hat,
        })
    }

    fn encode_predicted(
        &self,
        x: &Tensor,
        f_ref: &Tensor,
        rate: RatePoint,
    ) -> Result<CodedFrame<Tensor>, CtvcError> {
        let f_cur = self.fe.forward_ctx(x, &self.exec)?;
        // Functional motion estimation (block matching).
        let search = stage_histograms().motion_search_us.time();
        let field = motion::estimate_motion_ctx(
            &motion::matching_plane(&f_cur),
            &motion::matching_plane(f_ref),
            self.cfg.me_block,
            self.cfg.me_range,
            self.cfg.half_pel_motion,
            &self.exec,
        );
        drop(search);
        // Embed into the N-channel motion tensor O_t.
        let (_, _, fh, fw) = f_cur.shape().dims();
        let n = self.cfg.n;
        let o_t = Tensor::from_fn(Shape::new(1, n, fh, fw), |_, c, yy, xx| match c {
            0 => field.at(0, 0, yy, xx) / MOTION_SCALE,
            1 => field.at(0, 1, yy, xx) / MOTION_SCALE,
            _ => 0.0,
        });
        let zm = self.motion_ae.analysis.forward_ctx(&o_t, &self.exec)?;
        let (motion_payload, zm_hat) =
            self.code_latent(&zm, &self.motion_ae, rate.latent_step())?;
        // Closed loop: compensate with the *reconstructed* motion.
        let o_hat = self.motion_ae.synthesis.forward_ctx(&zm_hat, &self.exec)?;
        let o_mc = self.motion_for_compensation(o_hat);
        let f_bar = self.comp.forward_ctx(f_ref, &o_mc, &self.exec)?;
        let r_t = f_cur.sub(&f_bar)?;
        let zr = self.residual_ae.analysis.forward_ctx(&r_t, &self.exec)?;
        let (residual_payload, zr_hat) =
            self.code_latent(&zr, &self.residual_ae, rate.latent_step())?;
        // Reconstruct exactly like the decoder will: `ẑ_m`, `ẑ_r` are the
        // latents it dequantizes from the payloads and `F̄_t` is the
        // prediction it compensates, so only the residual branch is left.
        let r_hat = self
            .residual_ae
            .synthesis
            .forward_ctx(&zr_hat, &self.exec)?;
        Ok(CodedFrame {
            sections: vec![
                (Section::Motion, motion_payload),
                (Section::Residual, residual_payload),
            ],
            reference: f_bar.add(&r_hat)?,
        })
    }
}

/// Streaming encoder session for [`CtvcCodec`]: the shared
/// [`StreamEncoder`] carrying the closed-loop reference *features*
/// (FVC-style feature-space state).
pub type CtvcEncoderSession<'a> = StreamEncoder<'a, CtvcCodec>;

/// Streaming decoder session for [`CtvcCodec`].
pub type CtvcDecoderSession<'a> = StreamDecoder<'a, CtvcCodec>;

impl VideoCodec for CtvcCodec {
    type Error = CtvcError;
    type Rate = RatePoint;
    /// The reference *features* `F̂_{t−1}`.
    type Reference = Tensor;

    fn codec_name(&self) -> &str {
        self.cfg.name
    }

    fn start_encode(&self, mode: RateMode<RatePoint>) -> Result<CtvcEncoderSession<'_>, CtvcError> {
        Ok(CtvcCodec::start_encode(self, mode))
    }

    fn start_decode(&self) -> CtvcDecoderSession<'_> {
        CtvcCodec::start_decode(self)
    }

    fn metrics(&self) -> &'static SessionMetrics {
        static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
        METRICS.get_or_init(|| SessionMetrics::new("nvc_ctvc"))
    }

    fn bad_input(reason: String) -> CtvcError {
        CtvcError::BadInput(reason)
    }

    fn check_dims(&self, w: usize, h: usize) -> Result<(), CtvcError> {
        if !w.is_multiple_of(16) || !h.is_multiple_of(16) || w == 0 || h == 0 {
            return Err(CtvcError::BadInput(format!(
                "resolution {w}x{h} must be a non-zero multiple of 16"
            )));
        }
        Ok(())
    }

    fn write_header(&self, w: usize, h: usize, rate: RatePoint) -> Vec<u8> {
        let mut header = BitWriter::new();
        header.write_bits(w as u32, 16);
        header.write_bits(h as u32, 16);
        header.write_bits(self.cfg.n as u32, 16);
        header.write_bits(u32::from(rate.index()), 8);
        header.write_bit(self.cfg.attention);
        header.write_bit(self.cfg.deformable);
        header.finish()
    }

    /// Validates the codec configuration the header claims against this
    /// decoder's.
    fn parse_header(&self, payload: &[u8]) -> Result<(usize, usize, RatePoint), CtvcError> {
        let mut hr = BitReader::new(payload);
        let w = hr.read_bits(16)? as usize;
        let h = hr.read_bits(16)? as usize;
        let n = hr.read_bits(16)? as usize;
        let rate = RatePoint::new(hr.read_bits(8)? as u8);
        let attention = hr.read_bit()?;
        let deformable = hr.read_bit()?;
        let cfg = &self.cfg;
        if n != cfg.n || attention != cfg.attention || deformable != cfg.deformable {
            return Err(CtvcError::BadInput(format!(
                "bitstream coded with N={n}, attention={attention}, \
                 deformable={deformable}; decoder configured as N={}, attention={}, \
                 deformable={}",
                cfg.n, cfg.attention, cfg.deformable
            )));
        }
        Ok((w, h, rate))
    }

    fn encode_frame(
        &self,
        frame: &Frame,
        reference: Option<&Tensor>,
        rate: RatePoint,
    ) -> Result<CodedFrame<Tensor>, CtvcError> {
        match reference {
            None => self.encode_intra(frame.tensor(), rate),
            Some(f_ref) => self.encode_predicted(frame.tensor(), f_ref, rate),
        }
    }

    fn decode_frame(
        &self,
        kind: FrameKind,
        sections: &SectionList,
        reference: Option<&Tensor>,
        (w, h): (usize, usize),
        rate: RatePoint,
    ) -> Result<Tensor, CtvcError> {
        match kind {
            FrameKind::Intra => {
                let [(Section::Intra, payload)] = sections else {
                    return Err(CtvcError::BadInput(
                        "intra packet must carry exactly one intra section".into(),
                    ));
                };
                self.reconstruct_intra(payload, w, h, rate)
            }
            FrameKind::Predicted => {
                let [(Section::Motion, motion), (Section::Residual, residual)] = sections else {
                    return Err(CtvcError::BadInput(
                        "predicted packet must carry motion + residual sections".into(),
                    ));
                };
                let f_ref =
                    reference.ok_or_else(|| CtvcError::BadInput("P frame before intra".into()))?;
                self.reconstruct_p(f_ref, motion, residual, rate)
            }
        }
    }

    /// Frame reconstruction of the features `F̂_t`, clamped to `[0, 1]`.
    fn reconstruct(&self, f_hat: &Tensor) -> Result<Frame, CtvcError> {
        let _span = stage_histograms().render_us.time();
        let px = self
            .fr
            .forward_ctx(f_hat, &self.exec)?
            .map(|v| v.clamp(0.0, 1.0));
        Ok(Frame::from_tensor(px)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvc_sim::SimOp;
    use nvc_video::metrics::psnr_sequence;
    use nvc_video::synthetic::{SceneConfig, Synthesizer};

    fn seq(frames: usize) -> Sequence {
        Synthesizer::new(SceneConfig::uvg_like(48, 32, frames)).generate()
    }

    fn mean_psnr(orig: &Sequence, rec: &Sequence) -> f64 {
        let pairs: Vec<_> = orig.frames().iter().zip(rec.frames()).collect();
        psnr_sequence(&pairs.iter().map(|(a, b)| (*a, *b)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(3);
        let coded = codec.encode(&s, RatePoint::new(1)).unwrap();
        let decoded = codec.decode(&coded.bitstream).unwrap();
        assert_eq!(decoded.frames().len(), 3);
        for (a, b) in decoded.frames().iter().zip(coded.decoded.frames()) {
            let d = a.tensor().sub(b.tensor()).unwrap().max_abs();
            assert!(d < 1e-6, "decoder drift {d}");
        }
    }

    #[test]
    fn rate_points_trade_rate_for_quality() {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(3);
        let coarse = codec.encode(&s, RatePoint::new(0)).unwrap();
        let fine = codec.encode(&s, RatePoint::new(2)).unwrap();
        assert!(fine.total_bytes > coarse.total_bytes);
        let p_coarse = mean_psnr(&s, &coarse.decoded);
        let p_fine = mean_psnr(&s, &fine.decoded);
        assert!(
            p_fine > p_coarse,
            "finer rate point must improve quality: {p_fine:.2} vs {p_coarse:.2}"
        );
    }

    #[test]
    fn decoder_rejects_mismatched_config() {
        let enc = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(2);
        let coded = enc.encode(&s, RatePoint::new(1)).unwrap();
        let dec = CtvcCodec::new(CtvcConfig::fvc_like(8)).unwrap();
        assert!(dec.decode(&coded.bitstream).is_err());
        assert!(enc.decode(&[]).is_err());
    }

    #[test]
    fn rejects_bad_resolutions() {
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let bad = Synthesizer::new(SceneConfig::uvg_like(50, 34, 2)).generate();
        assert!(codec.encode(&bad, RatePoint::new(1)).is_err());
    }

    #[test]
    fn variants_all_roundtrip() {
        let s = seq(2);
        for cfg in [
            CtvcConfig::ctvc_fxp(8),
            CtvcConfig::fvc_like(8),
            CtvcConfig::dvc_like(8),
        ] {
            let name = cfg.name;
            let codec = CtvcCodec::new(cfg).unwrap();
            let coded = codec.encode(&s, RatePoint::new(1)).unwrap();
            let decoded = codec.decode(&coded.bitstream).unwrap();
            for (a, b) in decoded.frames().iter().zip(coded.decoded.frames()) {
                let d = a.tensor().sub(b.tensor()).unwrap().max_abs();
                assert!(d < 1e-6, "{name}: decoder drift {d}");
            }
            let p = mean_psnr(&s, &coded.decoded);
            assert!(p > 20.0, "{name}: implausibly low quality {p:.2} dB");
        }
    }

    #[test]
    fn streaming_decode_is_bit_exact_with_one_shot() {
        use nvc_video::codec::stream_roundtrip;
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(4);
        // Session path: encode to packets, decode packet-by-packet.
        let (coded, drift) = stream_roundtrip(&codec, &s, RatePoint::new(1)).unwrap();
        assert_eq!(
            drift, 0.0,
            "streaming decode must match the closed loop exactly"
        );
        assert_eq!(coded.stats.bits_per_frame.len(), coded.stats.frames);
        assert_eq!(
            coded.stats.bits_per_frame.iter().sum::<u64>(),
            8 * coded.stats.total_bytes as u64,
            "per-frame bit counts must add up to the serialized stream"
        );
        // One-shot path over the same packets.
        let one_shot = codec.decode(&coded.to_bytes()).unwrap();
        for (a, b) in one_shot.frames().iter().zip(coded.decoded.frames()) {
            assert_eq!(
                a.tensor().as_slice(),
                b.tensor().as_slice(),
                "one-shot decode must be bit-exact with streaming"
            );
        }
    }

    #[test]
    fn encoder_session_tracks_gop_and_restarts() {
        use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(4);
        let mut enc = codec.start_encode(RatePoint::new(1));
        let mut packets = Vec::new();
        for (i, frame) in s.frames().iter().enumerate() {
            if i == 2 {
                enc.restart_gop(); // force a mid-stream intra refresh
            }
            packets.push(enc.push_frame(frame).unwrap());
            assert_eq!(enc.frames_pushed(), i + 1);
        }
        assert_eq!(packets[0].kind, FrameKind::Intra);
        assert_eq!(packets[1].kind, FrameKind::Predicted);
        assert_eq!(
            packets[2].kind,
            FrameKind::Intra,
            "restart_gop must force intra"
        );
        assert_eq!(packets[3].kind, FrameKind::Predicted);
        assert_eq!(enc.gop_position(), 1);
        // The refreshed stream still decodes end to end.
        let mut dec = codec.start_decode();
        for p in &packets {
            dec.push_packet(&p.to_bytes()).unwrap();
        }
        assert_eq!(dec.frames_decoded(), 4);
    }

    #[test]
    fn joinable_stream_decodes_from_any_intra() {
        use nvc_video::codec::{DecoderSession as _, EncoderSession as _};
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(6);
        let mut enc = codec.start_encode(RatePoint::new(1));
        enc.set_join_headers(true);
        let mut packets = Vec::new();
        for (i, frame) in s.frames().iter().enumerate() {
            if i == 3 {
                enc.restart_gop();
            }
            packets.push(enc.push_frame(frame).unwrap());
        }
        assert_eq!(packets[3].kind, FrameKind::Intra);

        // A from-start decoder consumes the whole stream…
        let mut full = codec.start_decode();
        let all: Vec<Frame> = packets
            .iter()
            .map(|p| full.push_packet(&p.to_bytes()).unwrap())
            .collect();
        // …while a late joiner opens at the mid-stream intra and must
        // reconstruct the tail bit-exactly from the same packet bytes.
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
        // Joining on a P packet is still rejected: no header to open on.
        let mut bad = codec.start_decode();
        assert!(bad.push_packet(&packets[4].to_bytes()).is_err());
    }

    #[test]
    fn join_headers_leave_predicted_packets_unchanged() {
        use nvc_video::codec::EncoderSession as _;
        let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(8)).unwrap();
        let s = seq(4);
        let mut plain = codec.start_encode(RatePoint::new(1));
        let mut joinable = codec.start_encode(RatePoint::new(1));
        joinable.set_join_headers(true);
        for (i, frame) in s.frames().iter().enumerate() {
            if i == 2 {
                plain.restart_gop();
                joinable.restart_gop();
            }
            let a = plain.push_frame(frame).unwrap().to_bytes();
            let b = joinable.push_frame(frame).unwrap().to_bytes();
            if i == 2 {
                // The refreshed intra grows by exactly the re-sent header.
                assert!(b.len() > a.len(), "joinable intra must carry header");
            } else {
                assert_eq!(a, b, "frame {i} must be unaffected by join mode");
            }
        }
    }

    #[test]
    fn sparse_variant_stays_close_to_dense() {
        let s = seq(2);
        let dense = CtvcCodec::new(CtvcConfig::ctvc_fxp(8)).unwrap();
        let sparse = CtvcCodec::new(CtvcConfig::ctvc_sparse(8)).unwrap();
        let cd = dense.encode(&s, RatePoint::new(1)).unwrap();
        let cs = sparse.encode(&s, RatePoint::new(1)).unwrap();
        let pd = mean_psnr(&s, &cd.decoded);
        let ps = mean_psnr(&s, &cs.decoded);
        // Without the fine-tuning step the paper applies after pruning,
        // 50 % transform-domain sparsity costs a few dB; the ordering
        // FP ≥ FXP ≥ Sparse is what the reproduction preserves.
        assert!(
            pd - ps < 5.0 && ps > 25.0,
            "sparse ({ps:.2} dB) must stay usable next to dense ({pd:.2} dB)"
        );
    }

    fn decoder_workload(cfg: CtvcConfig, h: usize, w: usize) -> Workload {
        CtvcCodec::new(cfg).unwrap().decoder_workload(h, w)
    }

    #[test]
    fn workload_covers_all_modules() {
        // Pruning changes no layer shape, so the dense build stands in
        // for the sparse one where only shapes are checked.
        let wl = decoder_workload(CtvcConfig::ctvc_fp(36), 1088, 1920);
        let modules = [
            "feature_extraction",
            "motion_synthesis",
            "deformable_compensation",
            "residual_synthesis",
            "frame_reconstruction",
        ];
        assert_eq!(wl.modules(), modules);
        // Every layer but the pool computes.
        for l in wl.layers() {
            let pool = matches!(l.op, SimOp::Pool { .. });
            assert!(pool || l.op.macs() > 0, "{} has zero MACs", l.name);
        }
    }

    #[test]
    fn fast_algorithm_classification() {
        let wl = decoder_workload(CtvcConfig::ctvc_sparse(36), 64, 64);
        let fast = |alg| {
            let ops = wl.layers().iter().map(|l| l.op);
            ops.filter(|op| op.fast_transform() == Some(alg)).count()
        };
        let wino = fast("winograd");
        assert!(
            wino >= 10,
            "expected many Winograd-eligible convs, got {wino}"
        );
        // 3 deconv stages per synthesis × 2 + frame reconstruction = 7.
        assert_eq!(fast("fta"), 7);
        // Pool / DfConv / attention are not fast-transformable.
        for l in wl.layers() {
            if matches!(
                l.op,
                SimOp::DfConv3x3 { .. } | SimOp::Pool { .. } | SimOp::Attention { .. }
            ) {
                assert_eq!(l.op.fast_transform(), None);
            }
        }
    }

    #[test]
    fn macs_scale_with_resolution() {
        let cfg = CtvcConfig::ctvc_fp(36);
        let small = decoder_workload(cfg.clone(), 64, 64).total_macs();
        let large = decoder_workload(cfg, 128, 128).total_macs();
        let ratio = large as f64 / small as f64;
        assert!((3.0..5.0).contains(&ratio), "expected ~4x, got {ratio}");
    }

    #[test]
    fn attention_adds_decoder_layers() {
        let with = decoder_workload(CtvcConfig::ctvc_fp(36), 64, 64);
        let without = decoder_workload(CtvcConfig::fvc_like(36), 64, 64);
        assert!(with.layers().len() > without.layers().len());
    }

    #[test]
    fn total_macs_at_1080p_are_plausible() {
        // The decoder at 1080p should land in the tens of GMACs — the
        // workload class the paper's 3.5 TOPS accelerator sustains at
        // 25 fps.
        let wl = decoder_workload(CtvcConfig::ctvc_fp(36), 1088, 1920);
        let gmacs = wl.total_macs() as f64 / 1e9;
        assert!(
            (5.0..200.0).contains(&gmacs),
            "decoder workload {gmacs:.1} GMAC outside plausible range"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn workload_rejects_bad_resolution() {
        let _ = decoder_workload(CtvcConfig::ctvc_fp(36), 100, 64);
    }
}
