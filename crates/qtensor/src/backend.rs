//! Compute-backend selection for the dense kernels in [`crate::ops`].
//!
//! Two backends exist:
//!
//! * [`Backend::Naive`] — the original single-threaded scalar triple
//!   loops, kept as the bit-accurate reference.
//! * [`Backend::Fast`] — `cq-par`'s three-level blocked GEMM (SIMD
//!   micro-kernel under KC/MC/NC panel blocking, selected by `CQ_SIMD`
//!   with that level's constant block sizes — see
//!   [`cq_par::describe_active_plan`]) and im2col convolution,
//!   parallelized over the global worker pool. The same `CQ_SIMD` level
//!   also picks the compiled form of cq-quant's quantizer kernels
//!   ([`cq_par::dispatch`]), which compute the same bits at every level.
//!
//! Both accumulate every output element over the reduction dimension in
//! the same (ascending) order. The bit-identity contract belongs to the
//! Naive path alone: Fast's AVX2 micro-kernels use fused multiply-add,
//! which skips one rounding per step and shifts results within the
//! tolerance enforced by the `backend_parity` test suite
//! (`k · amax · bmax · 8ε`); Fast's scalar micro-kernel rounds like the
//! naive loops.
//!
//! The plain `ops::*` entry points always run [`Backend::Fast`]. Code
//! that needs the reference passes the backend explicitly (the
//! `ops::*_with` entry points, `QuantCtx::with_backend` in cq-nn); no
//! process-wide setting switches it. Worker count comes from
//! `CQ_THREADS` (see [`cq_par::Pool::global`]).

/// Which implementation the dense kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Reference scalar loops: single-threaded, unblocked.
    Naive,
    /// Tiled, pooled kernels from `cq-par` (the default).
    #[default]
    Fast,
}
