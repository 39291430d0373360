//! NCHW tensor and neural-network operator substrate for the NVCA
//! reproduction.
//!
//! The CTVC-Net video codec of the paper is an inference-only network built
//! from a small operator zoo: 3×3/1×1 convolutions, 4×4 stride-2
//! deconvolutions, grouped deformable convolutions, max-pooling, ReLU /
//! sigmoid / softmax non-linearities and dense (linear) layers inside the
//! Swin attention blocks. This crate implements exactly that zoo from
//! scratch on a simple dense `f32` NCHW [`Tensor`].
//!
//! Design notes:
//!
//! * Tensors are dense, row-major `Vec<f32>` with an explicit [`Shape`]
//!   (batch, channels, height, width). Batch is carried for generality but
//!   the codec always runs with `n == 1`.
//! * Operators live in [`ops`] and are plain structs holding their weights
//!   ([`ops::Conv2d`], [`ops::DeConv2d`], [`ops::DeformConv2d`], …). The
//!   three convolutions run through one `forward_ctx(x, &ExecCtx)` each,
//!   serially under `ExecCtx::serial()`; the pool and the dense layer have
//!   a plain `forward`. Shape errors are reported through [`TensorError`].
//! * Weight initialisation helpers (seeded Gaussian, Dirac/identity, DCT
//!   bases) live in [`init`]; they are deterministic given a seed so every
//!   experiment in the repository is reproducible.
//!
//! # Example
//!
//! ```
//! use nvc_core::ExecCtx;
//! use nvc_tensor::{Shape, Tensor, ops::Conv2d};
//!
//! # fn main() -> Result<(), nvc_tensor::TensorError> {
//! let input = Tensor::zeros(Shape::new(1, 3, 8, 8));
//! let conv = Conv2d::randn(16, 3, 3, 1, 1, 0x5eed)?; // 16 out, 3 in, k=3
//! let out = conv.forward_ctx(&input, &ExecCtx::serial())?;
//! assert_eq!(out.shape().dims(), (1, 16, 8, 8));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod shape;
mod tensor;

pub mod init;
pub mod mat;
pub mod ops;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
