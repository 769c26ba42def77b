//! # cq-tensor — dense tensor substrate for the Cambricon-Q reproduction
//!
//! This crate provides the owned, row-major `f32` [`Tensor`] type and the
//! dense compute kernels (matrix multiply, 2-D convolution, pooling) that
//! every other crate in the workspace builds on:
//!
//! * `cq-quant` quantizes and dequantizes `Tensor`s,
//! * `cq-nn` trains networks whose activations and gradients are `Tensor`s,
//! * `cq-accel`'s functional model executes instructions over `Tensor`s.
//!
//! The crate is dependency-light by design (`rand` for seeded initializers
//! and `cq-par` for the tiled parallel kernels) and entirely deterministic:
//! all random initialization goes through [`init`] with explicit seeds, and
//! both compute [`Backend`]s accumulate in the same order (see
//! [`backend`]).
//!
//! # Examples
//!
//! ```
//! use cq_tensor::{Tensor, ops};
//!
//! // y = x·W for a tiny linear layer
//! let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2])?;
//! let w = Tensor::from_vec(vec![0.5, -0.5, 1.0, 1.0], &[2, 2])?;
//! let y = ops::matmul(&x, &w)?;
//! assert_eq!(y.data(), &[2.5, 1.5]);
//! # Ok::<(), cq_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
mod error;
pub mod init;
pub mod ops;
mod shape;
mod tensor;

pub use backend::{default_backend, fast_path_info, Backend};
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
