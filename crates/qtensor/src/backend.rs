//! Compute-backend selection for the dense kernels in [`crate::ops`].
//!
//! Two backends exist:
//!
//! * [`Backend::Naive`] — the original single-threaded scalar triple
//!   loops, kept as the bit-accurate reference.
//! * [`Backend::Fast`] — `cq-par`'s three-level blocked GEMM (SIMD
//!   micro-kernel under KC/MC/NC panel blocking, selected by `CQ_SIMD` /
//!   `CQ_TUNE_FILE` — see [`fast_path_info`]) and im2col convolution,
//!   parallelized over the global worker pool.
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

impl Backend {
    /// Parses `"naive"` / `"fast"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Some(Backend::Naive),
            "fast" => Some(Backend::Fast),
            _ => None,
        }
    }

    /// Short display name (`"naive"` / `"fast"`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Fast => "fast",
        }
    }
}

/// One-line description of what the Fast backend resolves to on this
/// process: SIMD micro-kernel level and blocking plan (e.g.
/// `"avx2 6x16 kc=512 mc=144 nc=2048"`). Forces plan resolution, so a
/// bad `CQ_SIMD`/`CQ_TUNE_FILE` aborts here rather than mid-GEMM —
/// bench and experiment binaries print this up front for provenance.
pub fn fast_path_info() -> String {
    cq_par::describe_active_plan()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_names() {
        assert_eq!(Backend::parse("naive"), Some(Backend::Naive));
        assert_eq!(Backend::parse(" Fast "), Some(Backend::Fast));
        assert_eq!(Backend::parse("gpu"), None);
        assert_eq!(Backend::Naive.name(), "naive");
        assert_eq!(Backend::Fast.name(), "fast");
    }
}
