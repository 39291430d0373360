//! Frames, synthetic video sources and quality/rate metrics.
//!
//! The paper evaluates on UVG, HEVC Class B and MCL-JCV; those datasets are
//! not redistributable here, so [`synthetic`] provides procedural video
//! generators whose presets mimic each dataset's character (resolution
//! class, motion magnitude, texture complexity, noise). All rate–distortion
//! comparisons in this repository are *relative* between codecs run on the
//! same synthetic frames, which is exactly what BD-rate measures.
//!
//! Provided metrics:
//!
//! * [`metrics::psnr`] — peak signal-to-noise ratio (peak = 1.0),
//! * [`metrics::ms_ssim`] — multi-scale SSIM with the standard 5-scale
//!   weights of Wang et al. (reference [23] of the paper),
//! * [`bdrate::bd_rate`] — Bjøntegaard delta rate (the BDBR(%) of the
//!   paper's Table I) via cubic log-rate interpolation.
//!
//! [`block_match`] is the one exact full-search block matcher both codec
//! families' motion searches call; its scalar reference and exactness
//! argument live there too.
//!
//! # Example
//!
//! ```
//! use nvc_video::synthetic::{SceneConfig, Synthesizer};
//! use nvc_video::metrics::psnr;
//!
//! let cfg = SceneConfig::uvg_like(64, 36, 3);
//! let seq = Synthesizer::new(cfg).generate();
//! assert_eq!(seq.frames().len(), 3);
//! // Adjacent frames are similar but not identical.
//! let p = psnr(&seq.frames()[0], &seq.frames()[1]).unwrap();
//! assert!(p > 10.0 && p < 60.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bdrate;
pub mod block_match;
pub mod codec;
mod frame;
pub mod metrics;
pub mod rate;
pub mod session;
pub mod synthetic;

pub use codec::{
    decode_bitstream, encode_sequence, encode_sequence_with, CodedFrame, DecoderSession,
    EncodedStream, EncoderSession, FrameType, StreamStats, VideoCodec,
};
pub use frame::{Frame, Sequence, VideoError};
pub use rate::{
    RateController, RateMode, RateOutcome, RateParam, RateRequest, SessionRateControl,
    TargetBppController,
};
pub use session::{SessionMetrics, StreamDecoder, StreamEncoder};
