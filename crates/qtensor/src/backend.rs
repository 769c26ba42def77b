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
//! The process-wide default is [`Backend::Fast`], overridable by the
//! `CQ_BACKEND` environment variable (`naive` or `fast`), read once at
//! first use. Any other `CQ_BACKEND` value aborts with a diagnostic
//! rather than silently falling back. Code that needs a particular
//! backend passes it explicitly (the `ops::*_with` entry points,
//! `QuantCtx::with_backend` in cq-nn). Worker count comes from
//! `CQ_THREADS` (see [`cq_par::Pool::global`]).

use std::sync::OnceLock;

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

/// Resolves a raw `CQ_BACKEND` value: `None`/empty means "unset, use the
/// default"; anything else must parse or the run aborts. A typo like
/// `CQ_BACKEND=bogus` used to silently select [`Backend::Fast`], which
/// makes A/B comparisons lie — fail loudly instead.
fn resolve_env_backend(raw: Option<&str>) -> Result<Backend, String> {
    match raw {
        None => Ok(Backend::default()),
        Some(v) if v.trim().is_empty() => Ok(Backend::default()),
        Some(v) => Backend::parse(v).ok_or_else(|| {
            format!("invalid CQ_BACKEND value {v:?}: expected \"naive\" or \"fast\"")
        }),
    }
}

/// The backend used by the plain `ops::*` entry points: the
/// `CQ_BACKEND` environment variable, else [`Backend::Fast`]. Resolved
/// once; panics on an invalid value.
pub fn default_backend() -> Backend {
    static ENV: OnceLock<Backend> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("CQ_BACKEND").ok();
        match resolve_env_backend(raw.as_deref()) {
            Ok(b) => b,
            Err(msg) => panic!("{msg}"),
        }
    })
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

    #[test]
    fn env_resolution_rejects_unknown_values() {
        assert_eq!(resolve_env_backend(None), Ok(Backend::Fast));
        assert_eq!(resolve_env_backend(Some("")), Ok(Backend::Fast));
        assert_eq!(resolve_env_backend(Some("  ")), Ok(Backend::Fast));
        assert_eq!(resolve_env_backend(Some("naive")), Ok(Backend::Naive));
        assert_eq!(resolve_env_backend(Some(" FAST ")), Ok(Backend::Fast));
        let err = resolve_env_backend(Some("bogus")).unwrap_err();
        assert!(err.contains("invalid CQ_BACKEND"), "{err}");
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("naive"), "{err}");
    }
}
