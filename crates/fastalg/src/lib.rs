//! Fast transform algorithms and transform-domain pruning — the paper's
//! "fast algorithm-based sparse strategy" (§III-B).
//!
//! Both fast convolution and fast deconvolution are expressed by the single
//! formula of Eq. (1):
//!
//! ```text
//! V = Aᵀ [ (G W Gᵀ) ⊙ (Bᵀ X B) ] A
//! ```
//!
//! with different transform matrices:
//!
//! * [`winograd_f2x2_3x3`] — the Winograd algorithm `F(2×2, 3×3)` for 3×3
//!   stride-1 convolutions: 4×4 input patches, 16 multiplications per tile
//!   instead of 36.
//! * [`fta_t3_6x6_4x4`] — the FTA fast deconvolution `T3(6×6, 4×4)` for
//!   4×4 stride-2 transposed convolutions: 5×5 input patches, 8×8 = 64
//!   multiplications per 6×6 output tile.
//!
//! On top of the transforms, [`prune`] implements the transform-domain
//! weight pruning of Eqs. (6)–(8): every transform-domain weight
//! `E = G W Gᵀ` is scored by `Q²·E²` where the importance factor `Q`
//! accounts for how strongly each transform-domain position influences the
//! final output, and the lowest-scoring positions are masked so that every
//! kernel retains exactly `⌈(1−ρ)µ²⌉` non-zeros (the fine-grained
//! *structured* sparsity the SCU array exploits).
//!
//! [`FastLayer`] executes whole layers through the tiled transform
//! pipeline (optionally pruned): one type for both families, as Eq. (1)
//! is one formula — the [`TransformPair`] it is built with is all that
//! differs. [`FastConv2d`] and [`FastDeConv2d`] are its two names. It is
//! verified against the direct operators from [`nvc_tensor`] up to
//! floating-point associativity (see the property tests).
//!
//! # Example
//!
//! ```
//! use nvc_core::ExecCtx;
//! use nvc_fastalg::FastConv2d;
//! use nvc_tensor::{ops::Conv2d, Shape, Tensor};
//!
//! # fn main() -> Result<(), nvc_tensor::TensorError> {
//! let conv = Conv2d::randn(4, 4, 3, 1, 1, 1)?;
//! let fast = FastConv2d::from_conv(&conv)?;
//! let x = Tensor::zeros(Shape::new(1, 4, 8, 8));
//! let serial = ExecCtx::serial();
//! let (direct, fast_out) = (conv.forward_ctx(&x, &serial)?, fast.forward_ctx(&x, &serial)?);
//! assert_eq!(direct.shape(), fast_out.shape());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fast_conv;
mod sparse;
mod tile_exec;
mod transforms;

pub use fast_conv::{FastConv2d, FastDeConv2d, FastLayer};
pub use sparse::{prune, PruneReport, SparseKernel, Sparsity};
pub use transforms::{fta_t3_6x6_4x4, winograd_f2x2_3x3, TransformPair};

#[cfg(test)]
mod fast_deconv {
    mod tests;
}
