//! CTVC-Net — the CNN-Transformer hybrid neural video codec of the paper
//! (§III), implemented as an inference-only network with analytically
//! constructed weights.
//!
//! # Topology (faithful to paper Fig. 2/3)
//!
//! * **Feature extraction** (Fig. 2a): `Conv(N,3,1) → MaxPool(2) →
//!   ResBlock(N,3)`, pixel domain → `N × H/2 × W/2` features.
//! * **Frame reconstruction** (Fig. 2b): `ResBlock(N,3) → DeConv(3,4,2)`.
//! * **Motion estimation** (Fig. 2c): `Conv(2N,3,1) → Conv(N,3,1)` over
//!   concatenated features.
//! * **Deformable compensation** (Fig. 2d): offset `Conv(N,3,1)` +
//!   `DfConv(N,3,1,G=2)` + two refinement convs with a skip.
//! * **Motion/residual compression** (Fig. 2e): analysis = three
//!   `Conv(2N,3,2)` stages with ResBlocks and two **Swin-AM** attention
//!   modules; synthesis = three `ResBlock + DeConv(N,4,2)` stages.
//! * **ResBlock** (Fig. 2f): `x + Conv(ReLU(Conv(ReLU(x))))`.
//!
//! The built decoder modules are also the accelerator simulator's only
//! description of the decoder: [`CtvcCodec::decoder_workload`] and
//! [`CtvcCodec::intra_workload`] read each layer's channels, kernel and
//! stride from the operators the modules hold.
//!
//! # Substitutions
//!
//! This section is the reproduction's record of where it departs from
//! the paper; the other crates' docs point here.
//!
//! With no training loop available, "learned" weights are replaced by
//! analytic constructions that make the network a *working* codec:
//! polyphase ±identity + blur kernels in feature extraction, bilinear
//! synthesis kernels, anti-aliased pyramid kernels in the analysis
//! transforms, Dirac warping kernels in the deformable compensation, and
//! near-identity residual blocks. Motion comes from block matching
//! through `nvc_video::block_match`, the matcher the hybrid anchor
//! shares; the paper's motion-estimation CNN (Fig. 2c) is not modelled
//! in software. The Swin-AM attention modules drive a **backward-adaptive
//! quantization gain**: the mask computed from the latent modulates the
//! quantizer step, and the decoder reconstructs the same mask from the
//! dequantized latent — the only functionally meaningful reading of an
//! encoder-side attention mask under fixed weights.
//!
//! Two substitutions sit outside this crate. The fixed-point variants
//! compute in `f32` with fake quantization (`nvc_quant`) instead of
//! integer arithmetic. The accelerator's energy and area come from
//! first-principles 28 nm constants in `nvc_sim` instead of a Synopsys
//! Design Compiler synthesis run.
//!
//! # Variants
//!
//! [`CtvcConfig`] presets give every row of the paper's Table I ladder:
//! `ctvc_fp`, `ctvc_fxp` (FXP16 weights / FXP12 activations), and
//! `ctvc_sparse` (50 % transform-domain pruning executed through the
//! Winograd/FTA fast operators), plus `fvc_like` (no attention) and
//! `dvc_like` (no attention, no deformable warp, full-pel motion).
//!
//! # Example
//!
//! ```no_run
//! use nvc_model::{CtvcCodec, CtvcConfig, RatePoint};
//! use nvc_video::codec::{decode_bitstream, encode_sequence};
//! use nvc_video::synthetic::{SceneConfig, Synthesizer};
//!
//! # fn main() -> Result<(), nvc_model::CtvcError> {
//! let seq = Synthesizer::new(SceneConfig::uvg_like(64, 48, 3)).generate();
//! let codec = CtvcCodec::new(CtvcConfig::ctvc_fp(12))?;
//! let coded = encode_sequence(&codec, &seq, RatePoint::new(1))?;
//! let decoded = decode_bitstream(&codec, &coded.to_bytes())?;
//! assert_eq!(decoded.frames().len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod config;
mod latent;
mod layers;
mod modules;
pub mod motion;
mod weights;

pub use codec::{CtvcCodec, CtvcDecoderSession, CtvcEncoderSession, CtvcError};
pub use config::{CtvcConfig, Precision, RatePoint};
pub use layers::{LayerOp, ResBlock, SwinAm, SwinAttention};
pub use modules::{
    Analysis, CompressionAutoencoder, DeformableCompensation, FeatureExtractor, FrameReconstructor,
    Synthesis,
};
