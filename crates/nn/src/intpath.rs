//! Dequantization-free integer forward passes.
//!
//! With [`QuantPath::Int8`] selected through [`crate::QuantCtx::with_path`],
//! [`crate::QuantCtx`] routes [`crate::Dense`] and [`crate::Conv2d`]
//! forward passes through the integer-domain pipeline: one
//! [`cq_quant::IntDomainQuantizer`] pass per operand emits i8 codes plus
//! an exact power-of-two scale, the MAC runs in the i8 instantiation of
//! `cq_par::gemm` / `cq_par::conv::conv2d` (i8×i8→i32), and a single
//! `acc · (s_x·s_w)` rescale lands the f32 output — no per-element
//! dequantize between quantization and compute. Layers whose block
//! statistics fall off the power-of-two ladder (subnormal θ, non-exact
//! base scale) fall back to the f32 fake-quantize path for that pass and
//! are counted in [`IntPathStats`].
//!
//! The path belongs to the experiment that builds the context: a
//! [`crate::QuantCtx`] starts on [`QuantPath::Fp32`], and an int8 A/B
//! builds one context per side.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which arithmetic domain quantized layer forwards execute in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantPath {
    /// Quantize-dequantize to f32 and run the f32 kernels (the
    /// conventional fake-quantization dataflow). Every
    /// [`crate::QuantCtx`] starts here.
    Fp32,
    /// Integer-domain forward: i8 codes straight into i8×i8→i32 kernels,
    /// one rescale at the output. Falls back to [`QuantPath::Fp32`]
    /// per layer-pass when the scale ladder guard rejects a block.
    Int8,
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
