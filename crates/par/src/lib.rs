//! # cq-par — parallel tiled compute backend
//!
//! The hot path of the whole reproduction — HQT quantization sweeps, the
//! six-network training workloads, the fault sweep — funnels through the
//! dense kernels in `cq-tensor`. This crate provides the *fast* versions of
//! those kernels plus the thread pool they (and the experiment sweeps) run
//! on:
//!
//! * [`Pool`] — a scoped `std::thread` worker pool with row-range
//!   partitioning, a dynamically scheduled [`Pool::parallel_map`], and
//!   panic propagation. No external dependencies (the build environment is
//!   offline, matching the `shims/` precedent).
//! * [`gemm`], [`gemm_at`], [`gemm_bt`] — three-level cache-blocked
//!   matrix multiplies: a runtime-selected SIMD micro-kernel over a
//!   fixed 6 × 16 register tile (AVX2/FMA on x86_64, portable scalar
//!   fallback — see [`SimdLevel`]) under KC/MC/NC panel blocking with
//!   packed-operand reuse. Each SIMD level has one [`GemmPlan`], whose
//!   block sizes are constants ([`TileConfig::for_level`]);
//!   [`active_plan`] is the detected level's. The transposed variants
//!   pack their transposed operand directly — no scratch transpose. One
//!   driver serves every [`GemmElem`]: `f32`, and the
//!   dequantization-free `i8` path
//!   (i8×i8→i32 with AVX2 `vpmaddwd` / VNNI micro-kernels that retire
//!   two reduction steps per instruction, and a scalar fallback that
//!   reproduces their wrapping-i32 semantics exactly). Integer
//!   accumulation is associative, so the i8 results are bitwise
//!   identical across SIMD levels *and* thread counts. [`gemm_i8`] names
//!   the i8 instantiation.
//! * [`PackedA`] / [`gemm_prepacked`] — pack a left operand once, reuse
//!   its panels across many GEMMs (the im2col conv paths multiply one
//!   weight matrix against every image's patch matrix).
//! * [`conv`] — an im2col lowering that turns 2-D convolution (forward,
//!   input-gradient and weight-gradient passes) into GEMM calls.
//!
//! The crate deliberately operates on raw slices, not `cq-tensor`
//! tensors, so `cq-tensor` can depend on it without a cycle; shape checks
//! and the `Backend` dispatch live in `cq_tensor::ops`.
//!
//! # Determinism
//!
//! All kernels accumulate each output element over the reduction dimension
//! in ascending index order — reduction (`KC`) blocks advance in order and
//! each micro-kernel sums its block ascending — so, for a fixed SIMD level
//! and plan, results are bitwise identical across thread counts, bandings
//! and batch-path choices (prepacked vs on-the-fly packing). Tiling and
//! threading change *which* elements are computed together, never the
//! per-element operation sequence.
//!
//! The *bit-identity* contract with the naive backend belongs to the
//! Naive path alone: the AVX2 micro-kernels use fused multiply-add, whose
//! skipped intermediate rounding shifts results within the documented
//! backend-parity tolerance (`k · amax · bmax · 8ε` — see
//! `cq-tensor/tests/backend_parity.rs`). The scalar micro-kernel rounds
//! multiply and add separately, like the naive loops.
//!
//! # Examples
//!
//! ```
//! use cq_par::{gemm, Pool};
//!
//! // [1,2;3,4] × identity
//! let a = [1.0, 2.0, 3.0, 4.0];
//! let b = [1.0, 0.0, 0.0, 1.0];
//! let mut out = [0.0f32; 4];
//! gemm(2, 2, 2, &a, &b, &mut out, Pool::global());
//! assert_eq!(out, a);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod catch;
pub mod conv;
mod gemm;
mod microkernel;
mod pool;
pub mod queue;
pub mod tune;

pub use catch::catch_task;
pub use gemm::{
    gemm, gemm_at, gemm_at_with_plan, gemm_bt, gemm_bt_with_plan, gemm_i8, gemm_prepacked,
    gemm_with_plan, transpose, GemmElem, PackedA,
};
pub use microkernel::{simd_level, SimdLevel};
pub use pool::Pool;
pub use queue::{BatchRejected, BoundedQueue};
pub use tune::{active_plan, describe_active_plan, GemmPlan, TileConfig};
