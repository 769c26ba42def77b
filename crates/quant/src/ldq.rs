//! Local Dynamic Quantization (LDQ) — paper §III.A.
//!
//! Layer-wise statistic-based quantization must scan the whole tensor once
//! to obtain θ = max|X| and a second time to quantize — the "bottleneck"
//! phenomenon that forces ≥2× data access. LDQ instead slices the data into
//! fixed-size blocks; each block's statistic only depends on that block, so
//! statistic and quantization happen consecutively while the block sits in
//! the on-chip SQU buffer (one-pass access).
//!
//! Two analytic properties from the paper are implemented and tested here:
//!
//! 1. **Error domination**: per-block θᵢ ≤ global θ, and with dynamic (non-
//!    clipping) quantization a smaller θ shrinks the rounding step, so the
//!    per-element *error bound* (step/2) of LDQ is ≤ layer-wise DQ's. (On
//!    adversarial single elements the realized round-to-nearest error is not
//!    monotone in step size, but the bound — and the error on realistic
//!    data distributions — is; both are verified by tests.)
//! 2. **Compression ratio**: `C_LDQ = 4/(1 + 2/K)` versus `C_DQ = 4/(1 + 2/N)`
//!    (1-byte payload + 2-byte statistic per block); the efficiency loss is
//!    <1% for K ≥ 200 and <0.05% for K ≥ 4000.

use crate::algorithms::CodesBlock;
use crate::fast;
use crate::format::{IntFormat, QuantParams};
use crate::qtensor::QuantizedTensor;
use cq_par::Pool;
use cq_tensor::Tensor;

/// Configuration for Local Dynamic Quantization.
///
/// # Examples
///
/// ```
/// use cq_quant::{IntFormat, LdqConfig};
///
/// let cfg = LdqConfig::new(256, IntFormat::Int8);
/// assert_eq!(cfg.block_size, 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdqConfig {
    /// Block size K. The paper's SQU uses 4 KB buffers; at 4 bytes per
    /// unquantized FP32 element that is K = 1024 elements per buffer.
    pub block_size: usize,
    /// Target integer format.
    pub format: IntFormat,
}

impl LdqConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize, format: IntFormat) -> Self {
        assert!(block_size > 0, "LDQ block size must be positive");
        LdqConfig { block_size, format }
    }

    /// Default configuration matching the hardware SQU: 1024-element blocks
    /// (4 KB of FP32), INT8.
    pub fn squ_default() -> Self {
        LdqConfig::new(1024, IntFormat::Int8)
    }
}

/// A tensor quantized block-locally: each block carries its own parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LdqTensor {
    blocks: Vec<QuantizedTensor>,
    thetas: Vec<f32>,
    dims: Vec<usize>,
    config: LdqConfig,
}

impl LdqTensor {
    /// Quantizes `x` block-by-block. This is the functional model of the
    /// SQU's fused statistic+quantize (S·Q in Fig. 7): every block is read
    /// once, its θᵢ computed, and immediately quantized.
    ///
    /// The θ scan and the quantize loop fuse into one cache-resident pass
    /// per block (bit-identical to [`Self::quantize_naive`] — see
    /// [`crate::fast`]), fanning out over the global pool for large
    /// tensors.
    pub fn quantize(x: &Tensor, config: LdqConfig) -> Self {
        let mut sp = cq_obs::span!("quant", "ldq_quantize");
        if sp.is_recording() {
            sp.arg("elems", x.len())
                .arg("blocks", x.len().div_ceil(config.block_size))
                .arg("format", config.format.to_string().as_str());
            cq_obs::counter!("quant.calls").incr();
            cq_obs::counter!("quant.blocks").add(x.len().div_ceil(config.block_size) as u64);
        }
        Self::quantize_fast_on(&fast::block_pool(x.len()), x, config)
    }

    /// The reference implementation: two passes per block through separate
    /// tensor ops (slice → max-|X| → quantize), the bit-exactness oracle
    /// for the fused path.
    pub fn quantize_naive(x: &Tensor, config: LdqConfig) -> Self {
        let n = x.len();
        let nblocks = n.div_ceil(config.block_size.max(1));
        let mut blocks = Vec::with_capacity(nblocks);
        let mut thetas = Vec::with_capacity(nblocks);
        let mut start = 0;
        while start < n {
            let len = config.block_size.min(n - start);
            let block = x
                .slice_flat(start, len)
                .expect("block bounds derived from len");
            let theta = block.max_abs();
            blocks.push(QuantizedTensor::quantize(
                &block,
                QuantParams::symmetric(theta, config.format),
            ));
            thetas.push(fast::effective_theta(theta));
            start += len;
        }
        LdqTensor {
            blocks,
            thetas,
            dims: x.dims().to_vec(),
            config,
        }
    }

    /// Pool-explicit fused path: θ and codes in one cache-resident pass
    /// per block, compiled for the process's SIMD level
    /// ([`cq_par::dispatch`]). Blocks are partitioned into contiguous chunks and results are
    /// flattened in block order, so the output is identical for any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `config.block_size` is zero.
    pub fn quantize_fast_on(pool: &Pool, x: &Tensor, config: LdqConfig) -> Self {
        let (blocks, thetas) =
            fast::map_blocks(pool, x.data(), config.block_size, |src, scratch| {
                let (block, theta, _) = cq_par::dispatch(CodesBlock {
                    src,
                    format: config.format,
                    multiplex: None,
                    scratch,
                });
                (block, fast::effective_theta(theta))
            })
            .into_iter()
            .unzip();
        LdqTensor {
            blocks,
            thetas,
            dims: x.dims().to_vec(),
            config,
        }
    }

    /// Reconstructs the full-precision tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.len());
        self.dequantize_into(&mut data);
        Tensor::from_vec(data, &self.dims).expect("dims preserved by construction")
    }

    /// Appends the reconstructed full-precision values to a caller-owned
    /// buffer, so repeated dequantization (e.g. per training step) reuses
    /// one allocation instead of building fresh per-block tensors.
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        out.reserve(self.len());
        for b in &self.blocks {
            b.dequantize_into(out);
        }
    }

    /// The per-block quantized slices.
    pub fn blocks(&self) -> &[QuantizedTensor] {
        &self.blocks
    }

    /// Per-block statistics θᵢ, exactly as the quantizer used them: the
    /// *effective* θ after degenerate-statistic clamping, i.e. the value
    /// passed to [`QuantParams::symmetric`]. Blocks whose raw max-|X| was
    /// zero or non-finite (all-zero blocks, NaN/∞ contamination) report
    /// θᵢ = 0.0 — the sentinel under which every element quantizes to 0 —
    /// rather than a value reconstructed from the sentinel scale.
    pub fn block_thetas(&self) -> &[f32] {
        &self.thetas
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Original dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The configuration used.
    pub fn config(&self) -> LdqConfig {
        self.config
    }

    /// Total storage in bytes (packed payload + 2-byte statistic per block).
    pub fn storage_bytes(&self) -> f64 {
        self.blocks.iter().map(|b| b.storage_bytes()).sum()
    }

    /// Measured compression ratio versus FP32 storage.
    pub fn compression_ratio(&self) -> f64 {
        let fp32 = self.len() as f64 * 4.0;
        fp32 / self.storage_bytes()
    }
}

/// Analytic compression ratio of LDQ with 1-byte payload and a 2-byte
/// statistic per K-element block: `C_LDQ = 4 / (1 + 2/K)` (paper §III.A).
pub fn compression_ratio_ldq(k: usize) -> f64 {
    4.0 / (1.0 + 2.0 / k as f64)
}

/// Analytic compression ratio of layer-wise DQ over N elements:
/// `C_DQ = 4 / (1 + 2/N)`.
pub fn compression_ratio_dq(n: usize) -> f64 {
    4.0 / (1.0 + 2.0 / n as f64)
}

/// Relative compression-efficiency loss of LDQ(K) versus layer-wise DQ(N).
pub fn compression_loss(k: usize, n: usize) -> f64 {
    1.0 - compression_ratio_ldq(k) / compression_ratio_dq(n)
}

/// Layer-wise dynamic quantization (DQ): one global θ for the whole tensor.
/// This is the two-pass baseline that LDQ replaces.
pub fn quantize_layerwise(x: &Tensor, format: IntFormat) -> QuantizedTensor {
    QuantizedTensor::quantize_symmetric(x, format)
}

/// Verifies the LDQ error-domination lemma for one tensor: the elementwise
/// absolute rounding error of LDQ never exceeds that of layer-wise DQ.
/// Returns the pair `(ldq_l1, dq_l1)` of total L1 errors.
pub fn error_domination(x: &Tensor, config: LdqConfig) -> (f64, f64) {
    let ldq = LdqTensor::quantize(x, config).dequantize();
    let dq = quantize_layerwise(x, config.format).dequantize();
    let mut l_ldq = 0.0f64;
    let mut l_dq = 0.0f64;
    for ((&orig, &a), &b) in x.data().iter().zip(ldq.data()).zip(dq.data()) {
        l_ldq += (orig - a).abs() as f64;
        l_dq += (orig - b).abs() as f64;
    }
    (l_ldq, l_dq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtensor::quant_error;
    use cq_tensor::init;

    #[test]
    fn blocks_cover_all_elements() {
        let x = init::normal(&[1000], 0.0, 1.0, 1);
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(256, IntFormat::Int8));
        assert_eq!(ldq.blocks().len(), 4); // 256+256+256+232
        assert_eq!(ldq.len(), 1000);
        assert_eq!(ldq.dequantize().dims(), &[1000]);
    }

    #[test]
    fn block_theta_never_exceeds_global_theta() {
        let x = init::long_tailed(&[4096], 1.0, 0.02, 30.0, 7);
        let global = x.max_abs();
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(128, IntFormat::Int8));
        for &theta in ldq.block_thetas() {
            assert!(theta <= global + 1e-5);
        }
    }

    #[test]
    fn ldq_error_dominates_dq_error_elementwise() {
        // The central lemma of §III.A: LDQ rounding error ≤ DQ rounding error.
        for seed in 0..5 {
            let x = init::long_tailed(&[2048], 0.5, 0.05, 20.0, seed);
            let (l_ldq, l_dq) = error_domination(&x, LdqConfig::new(64, IntFormat::Int8));
            assert!(
                l_ldq <= l_dq + 1e-4,
                "seed {seed}: LDQ L1 {l_ldq} > DQ L1 {l_dq}"
            );
        }
    }

    #[test]
    fn ldq_strictly_better_on_heterogeneous_blocks() {
        // First half tiny values, second half large: per-block scales should
        // recover the tiny half much better.
        let mut data = vec![0.001f32; 512];
        data.extend(vec![1.0f32; 512]);
        let x = Tensor::from_vec(data, &[1024]).unwrap();
        let cfg = LdqConfig::new(512, IntFormat::Int8);
        let e_ldq = quant_error(&x, &LdqTensor::quantize(&x, cfg).dequantize());
        let e_dq = quant_error(&x, &quantize_layerwise(&x, IntFormat::Int8).dequantize());
        assert!(
            e_ldq.mse < e_dq.mse * 0.01,
            "ldq {} dq {}",
            e_ldq.mse,
            e_dq.mse
        );
    }

    #[test]
    fn compression_ratio_formulas() {
        // Paper: K >= 200 -> loss < 1%; K >= 4000 -> loss < 0.05%.
        assert!((compression_ratio_ldq(usize::MAX) - 4.0).abs() < 1e-9);
        let n = 1 << 20;
        assert!(compression_loss(200, n) < 0.01);
        assert!(compression_loss(4000, n) < 0.0005);
        assert!(compression_loss(10, n) > 0.01);
    }

    #[test]
    fn measured_compression_matches_analytic() {
        let x = init::normal(&[4096], 0.0, 1.0, 3);
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(256, IntFormat::Int8));
        let measured = ldq.compression_ratio();
        let analytic = compression_ratio_ldq(256);
        assert!(
            (measured - analytic).abs() < 1e-6,
            "measured {measured} analytic {analytic}"
        );
    }

    #[test]
    fn single_block_equals_layerwise() {
        let x = init::normal(&[100], 0.0, 1.0, 9);
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(1000, IntFormat::Int8));
        let dq = quantize_layerwise(&x, IntFormat::Int8);
        assert_eq!(ldq.blocks().len(), 1);
        assert_eq!(ldq.dequantize(), dq.dequantize());
    }

    #[test]
    fn empty_tensor() {
        let x = Tensor::zeros(&[0]);
        let ldq = LdqTensor::quantize(&x, LdqConfig::squ_default());
        assert!(ldq.is_empty());
        assert_eq!(ldq.dequantize().len(), 0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = LdqConfig::new(0, IntFormat::Int8);
    }

    #[test]
    fn block_thetas_report_effective_theta() {
        // All-zero block: the quantizer clamps the degenerate statistic to
        // θ = 0 (sentinel scale 1.0); block_thetas reports that same 0,
        // not a value reconstructed from the sentinel scale.
        let mut data = vec![0.0f32; 4];
        data.extend([1.0, -2.0, 0.5, 0.25]);
        let x = Tensor::from_vec(data, &[8]).unwrap();
        let cfg = LdqConfig::new(4, IntFormat::Int8);
        for ldq in [
            LdqTensor::quantize_naive(&x, cfg),
            LdqTensor::quantize(&x, cfg),
        ] {
            assert_eq!(ldq.block_thetas(), &[0.0, 2.0]);
            assert_eq!(ldq.blocks()[0].params().scale, 1.0, "sentinel scale");
        }
    }

    #[test]
    fn dequantize_into_appends_and_reuses_buffer() {
        let x = init::normal(&[300], 0.0, 1.0, 2);
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(128, IntFormat::Int8));
        let mut buf = Vec::new();
        ldq.dequantize_into(&mut buf);
        assert_eq!(buf.len(), 300);
        assert_eq!(buf, ldq.dequantize().data());
        // Steady state: clearing and refilling must not reallocate.
        buf.clear();
        let p = buf.as_ptr();
        ldq.dequantize_into(&mut buf);
        assert_eq!(buf.as_ptr(), p, "buffer reallocated on reuse");
    }

    #[test]
    fn multidimensional_shape_preserved() {
        let x = init::normal(&[4, 8, 8], 0.0, 1.0, 5);
        let ldq = LdqTensor::quantize(&x, LdqConfig::new(64, IntFormat::Int8));
        assert_eq!(ldq.dequantize().dims(), &[4, 8, 8]);
    }
}
