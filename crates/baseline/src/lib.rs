//! Classical hybrid block codec — the reproduction's stand-in for the
//! H.264 / H.265 reference software used as BD-rate anchors in the paper's
//! Table I.
//!
//! The codec is a from-scratch implementation of the canonical hybrid
//! coding loop:
//!
//! * 8×8 block DCT with dead-zone quantization and zig-zag scanning,
//! * DC-predictive intra coding,
//! * full-search (optionally half-pel) motion-compensated inter coding
//!   with skip mode; the search is the workspace's one block matcher,
//!   `nvc_video::block_match`, which drops a candidate as soon as its
//!   partial cost can no longer win and leaves every decision
//!   bit-identical to summing every candidate in full,
//! * an adaptive range coder for all symbols (real bits, no estimates),
//! * an optional deblocking filter.
//!
//! Two [`Profile`]s bracket the generational gap the paper relies on:
//! [`Profile::avc_like`] (16×16 motion blocks, full-pel search, no
//! deblocking) and [`Profile::hevc_like`] (8×8 motion blocks, half-pel
//! search, deblocking). The HEVC-like profile is the **anchor** for every
//! BDBR number in the reproduction, mirroring the paper's use of H.265.
//!
//! # Example
//!
//! ```
//! use nvc_baseline::{HybridCodec, Profile};
//! use nvc_video::synthetic::{SceneConfig, Synthesizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seq = Synthesizer::new(SceneConfig::uvg_like(48, 32, 3)).generate();
//! let codec = HybridCodec::new(Profile::hevc_like());
//! let coded = codec.encode(&seq, 24)?;
//! assert_eq!(coded.decoded.frames().len(), 3);
//! assert!(coded.total_bytes > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod dct;
mod plane;

pub use codec::{
    CodecError, CodedSequence, HybridCodec, HybridDecoderSession, HybridEncoderSession,
};
pub use plane::Plane;

/// Configuration of the hybrid codec's toolset.
///
/// The two constructors model the H.264→H.265 generation gap with three
/// levers: motion partition size, sub-pel precision and deblocking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Display name used in reports.
    pub name: &'static str,
    /// Motion-compensation block size in pixels (transform is always 8×8).
    pub mc_block: usize,
    /// Full-search motion range in integer pixels.
    pub search_range: i32,
    /// Enables half-pel motion refinement.
    pub half_pel: bool,
    /// Enables the deblocking filter.
    pub deblock: bool,
}

impl Profile {
    /// H.264/AVC-like toolset: 16×16 motion partitions, full-pel search,
    /// no deblocking.
    pub fn avc_like() -> Self {
        Profile {
            name: "AVC-like",
            mc_block: 16,
            search_range: 8,
            half_pel: false,
            deblock: false,
        }
    }

    /// H.265/HEVC-like toolset: 8×8 motion partitions, half-pel search,
    /// deblocking. This profile is the BD-rate anchor.
    pub fn hevc_like() -> Self {
        Profile {
            name: "HEVC-like",
            mc_block: 8,
            search_range: 12,
            half_pel: true,
            deblock: true,
        }
    }
}
