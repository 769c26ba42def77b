//! The `CQ_QUANT_PATH` knob: dequantization-free integer forward passes.
//!
//! With [`QuantPath::Int8`] selected, [`crate::QuantCtx`] routes
//! [`crate::Dense`] and [`crate::Conv2d`] forward passes through the
//! integer-domain pipeline: one [`cq_quant::IntDomainQuantizer`] pass per
//! operand emits i8 codes plus an exact power-of-two scale, the MAC runs
//! in the i8 instantiation of `cq_par::gemm` / `cq_par::conv::conv2d`
//! (i8×i8→i32), and a single `acc · (s_x·s_w)` rescale lands the f32
//! output — no per-element dequantize between quantization and compute.
//! Layers whose block statistics fall off the power-of-two ladder
//! (subnormal θ, non-exact base scale) fall back to the f32 fake-quantize
//! path for that pass and are counted in [`IntPathStats`].
//!
//! The knob is strictly validated: `CQ_QUANT_PATH` must be unset, empty,
//! `"fp32"` or `"int8"` — anything else aborts the process at first use
//! rather than silently training on the wrong path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which arithmetic domain quantized layer forwards execute in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantPath {
    /// Quantize-dequantize to f32 and run the f32 kernels (the
    /// conventional fake-quantization dataflow). Default.
    #[default]
    Fp32,
    /// Integer-domain forward: i8 codes straight into i8×i8→i32 kernels,
    /// one rescale at the output. Falls back to [`QuantPath::Fp32`]
    /// per layer-pass when the scale ladder guard rejects a block.
    Int8,
}

impl QuantPath {
    /// Parses `"fp32"` / `"int8"` (case-insensitive).
    pub fn parse(s: &str) -> Option<QuantPath> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fp32" => Some(QuantPath::Fp32),
            "int8" => Some(QuantPath::Int8),
            _ => None,
        }
    }

    /// Short display name (`"fp32"` / `"int8"`).
    pub fn name(&self) -> &'static str {
        match self {
            QuantPath::Fp32 => "fp32",
            QuantPath::Int8 => "int8",
        }
    }
}

/// Resolves a raw `CQ_QUANT_PATH` value: `None`/empty means "unset, use
/// the default"; anything else must parse or the run aborts. Mirrors the
/// `CQ_BACKEND` contract — a typo must never silently select a path,
/// because fp32-vs-int8 A/B accuracy comparisons would lie.
pub(crate) fn resolve_env_quant_path(raw: Option<&str>) -> Result<QuantPath, String> {
    match raw {
        None => Ok(QuantPath::default()),
        Some(v) if v.trim().is_empty() => Ok(QuantPath::default()),
        Some(v) => QuantPath::parse(v).ok_or_else(|| {
            format!("invalid CQ_QUANT_PATH value {v:?}: expected \"fp32\" or \"int8\"")
        }),
    }
}

/// The process-wide default quant path from `CQ_QUANT_PATH`, resolved
/// once. Panics on an invalid value.
pub fn env_quant_path() -> QuantPath {
    static ENV: OnceLock<QuantPath> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("CQ_QUANT_PATH").ok();
        match resolve_env_quant_path(raw.as_deref()) {
            Ok(p) => p,
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// Counters for the integer path, shared by every clone of a
/// [`crate::QuantCtx`]: how many layer passes ran fully in the integer
/// domain vs fell back to f32 because an operand fell off the
/// power-of-two ladder.
#[derive(Debug, Default)]
pub struct IntPathStats {
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl IntPathStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        IntPathStats::default()
    }

    /// Records one layer pass that ran on the integer path.
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one layer pass that fell back to f32.
    pub(crate) fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Layer passes that ran fully in the integer domain.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Layer passes that fell back to the f32 fake-quantize path.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Fraction of attempted integer-path passes that stayed on the
    /// ladder, `None` before any attempt.
    pub fn hit_rate(&self) -> Option<f64> {
        let h = self.hits();
        let total = h + self.fallbacks();
        (total > 0).then(|| h as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_names() {
        assert_eq!(QuantPath::parse("fp32"), Some(QuantPath::Fp32));
        assert_eq!(QuantPath::parse(" Int8 "), Some(QuantPath::Int8));
        assert_eq!(QuantPath::parse("INT8"), Some(QuantPath::Int8));
        assert_eq!(QuantPath::parse("int4"), None);
        assert_eq!(QuantPath::Fp32.name(), "fp32");
        assert_eq!(QuantPath::Int8.name(), "int8");
    }

    #[test]
    fn env_resolution_rejects_unknown_values() {
        assert_eq!(resolve_env_quant_path(None), Ok(QuantPath::Fp32));
        assert_eq!(resolve_env_quant_path(Some("")), Ok(QuantPath::Fp32));
        assert_eq!(resolve_env_quant_path(Some("  ")), Ok(QuantPath::Fp32));
        assert_eq!(resolve_env_quant_path(Some("int8")), Ok(QuantPath::Int8));
        assert_eq!(resolve_env_quant_path(Some(" FP32 ")), Ok(QuantPath::Fp32));
        let err = resolve_env_quant_path(Some("int7")).unwrap_err();
        assert!(err.contains("invalid CQ_QUANT_PATH"), "{err}");
        assert!(err.contains("int7"), "{err}");
        assert!(err.contains("fp32"), "{err}");
        assert!(err.contains("int8"), "{err}");
        let err = resolve_env_quant_path(Some("integer")).unwrap_err();
        assert!(err.contains("invalid CQ_QUANT_PATH"), "{err}");
        assert!(err.contains("integer"), "{err}");
    }

    #[test]
    fn stats_hit_rate() {
        let s = IntPathStats::new();
        assert_eq!(s.hit_rate(), None);
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_fallback();
        assert_eq!(s.hits(), 3);
        assert_eq!(s.fallbacks(), 1);
        assert_eq!(s.hit_rate(), Some(0.75));
    }
}
