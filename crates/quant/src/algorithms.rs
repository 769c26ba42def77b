//! Registry of statistic-based quantized-training algorithms (paper
//! Table III) and the training-time quantizer configurations used by the
//! evaluation (Zhu 2019 and Zhang 2020, each with and without HQT).

use crate::e2bqm::{CandidateStrategy, E2bqmQuantizer, ErrorEstimator};
use crate::fast::{self, QuantScratch};
use crate::format::{IntFormat, QuantParams};
use crate::ldq::{LdqConfig, LdqTensor};
use crate::qtensor::QuantizedTensor;
use crate::rounding::{MiniFloat, RoundingMode};
use cq_par::SimdKernel;
use cq_tensor::Tensor;
use std::fmt;

/// Precision of the *updating weights* stage (paper Table III: every
/// state-of-the-art algorithm keeps weight update in high precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightUpdatePrecision {
    /// 16-bit floating point (Wang et al. 2018).
    Fp16,
    /// 24-bit floating point (Yang et al. 2020).
    Fp24,
    /// 32-bit floating point (Zhu, Zhong, Zhang).
    Fp32,
}

impl WeightUpdatePrecision {
    /// Bytes per weight for this precision.
    pub fn bytes(&self) -> usize {
        match self {
            WeightUpdatePrecision::Fp16 => 2,
            WeightUpdatePrecision::Fp24 => 3,
            WeightUpdatePrecision::Fp32 => 4,
        }
    }
}

impl fmt::Display for WeightUpdatePrecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WeightUpdatePrecision::Fp16 => "FP16",
            WeightUpdatePrecision::Fp24 => "FP24",
            WeightUpdatePrecision::Fp32 => "FP32",
        };
        f.write_str(s)
    }
}

/// A row of the paper's Table III: a published low-bitwidth training
/// algorithm and its statistic requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgorithmSpec {
    /// Citation-style name ("Zhu et al. 2019").
    pub name: &'static str,
    /// Training data format ("INT8", "FP8", "INT8/INT16", ...).
    pub data_format: &'static str,
    /// Statistics the algorithm computes on-the-fly.
    pub statistics: &'static str,
    /// Weight-update precision.
    pub weight_update: WeightUpdatePrecision,
    /// Special cases / notes from the table.
    pub notes: &'static str,
}

/// The five algorithms of Table III.
pub fn table3_algorithms() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec {
            name: "Wang et al. 2018",
            data_format: "FP8",
            statistics: "max|X|",
            weight_update: WeightUpdatePrecision::Fp16,
            notes: "stochastic rounding",
        },
        AlgorithmSpec {
            name: "Zhu et al. 2019",
            data_format: "INT8",
            statistics: "max|X|, cos(X, X')",
            weight_update: WeightUpdatePrecision::Fp32,
            notes: "learned clipping range",
        },
        AlgorithmSpec {
            name: "Yang et al. 2020",
            data_format: "INT8",
            statistics: "max|X|",
            weight_update: WeightUpdatePrecision::Fp24,
            notes: "full 8-bit integer training",
        },
        AlgorithmSpec {
            name: "Zhong et al. 2020",
            data_format: "Shiftable INT8",
            statistics: "max|X|",
            weight_update: WeightUpdatePrecision::Fp32,
            notes: "quantized in groups",
        },
        AlgorithmSpec {
            name: "Zhang et al. 2020",
            data_format: "INT8/INT16",
            statistics: "max|X|, mean(X)-mean(X')",
            weight_update: WeightUpdatePrecision::Fp32,
            notes: "adaptive precision",
        },
    ]
}

/// How a training-time quantizer touches data: the scheme determines both
/// the numeric transform and the number of full data passes the hardware
/// needs (the 2× access cost HQT removes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantScheme {
    /// No quantization (FP32 baseline).
    Fp32,
    /// A *static* fixed-point range set once and never adapted — the
    /// inference-style quantization the paper's Fig. 2 shows cannot work
    /// for training (gradient ranges drift by orders of magnitude).
    StaticRange {
        /// The fixed representable maximum.
        theta: f32,
        /// Target format.
        format: IntFormat,
    },
    /// Miniature floating point with a rounding mode — Wang et al. 2018's
    /// FP8 (e5m2) with stochastic rounding.
    MiniFp {
        /// The float format.
        format: MiniFloat,
        /// Rounding mode (stochastic for Wang 2018).
        rounding: RoundingMode,
        /// RNG seed for stochastic rounding.
        seed: u64,
    },
    /// Layer-wise dynamic quantization: a global statistic pass then a
    /// quantization pass (two-pass access), optionally with candidate
    /// multiplexing applied layer-wide.
    LayerWise {
        /// Target format.
        format: IntFormat,
        /// Optional error-estimation multiplexing.
        multiplex: Option<E2bqmQuantizer>,
    },
    /// HQT: block-local statistic+quantize (one-pass access) with optional
    /// per-block E²BQM.
    Hqt {
        /// LDQ block size K.
        block_size: usize,
        /// Target format.
        format: IntFormat,
        /// Optional per-block error-estimation multiplexing.
        multiplex: Option<E2bqmQuantizer>,
    },
}

/// A named, ready-to-run training quantizer configuration.
///
/// Training simulations use [`TrainingQuantizer::fake_quantize`]: quantize
/// then immediately dequantize, so downstream FP32 compute observes exactly
/// the values the integer datapath would produce.
///
/// # Examples
///
/// ```
/// use cq_quant::algorithms::TrainingQuantizer;
/// use cq_tensor::init;
///
/// let q = TrainingQuantizer::zhang2020_hqt();
/// let x = init::normal(&[256], 0.0, 0.1, 1);
/// let xq = q.fake_quantize(&x);
/// assert!(x.cosine_similarity(&xq)? > 0.999);
/// assert_eq!(q.data_passes(), 1); // HQT: one-pass access
/// # Ok::<(), cq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingQuantizer {
    name: String,
    scheme: QuantScheme,
}

impl TrainingQuantizer {
    /// Creates a custom quantizer.
    pub fn new(name: impl Into<String>, scheme: QuantScheme) -> Self {
        TrainingQuantizer {
            name: name.into(),
            scheme,
        }
    }

    /// Full-precision (unquantized) baseline.
    pub fn fp32() -> Self {
        TrainingQuantizer::new("FP32", QuantScheme::Fp32)
    }

    /// Zhu et al. 2019: layer-wise INT8 with direction-sensitive clipping,
    /// emulated by a 4-way clip sweep arbitrated on cosine distance.
    pub fn zhu2019() -> Self {
        TrainingQuantizer::new(
            "Zhu2019",
            QuantScheme::LayerWise {
                format: IntFormat::Int8,
                multiplex: Some(E2bqmQuantizer::new(
                    4,
                    CandidateStrategy::ClipSweep,
                    ErrorEstimator::Cosine,
                    IntFormat::Int8,
                )),
            },
        )
    }

    /// Zhu et al. 2019 + HQT: block-local statistics (LDQ), same 4-way clip
    /// sweep per block.
    pub fn zhu2019_hqt() -> Self {
        TrainingQuantizer::new(
            "Zhu2019+HQT",
            QuantScheme::Hqt {
                block_size: 1024,
                format: IntFormat::Int8,
                multiplex: Some(E2bqmQuantizer::new(
                    4,
                    CandidateStrategy::ClipSweep,
                    ErrorEstimator::Cosine,
                    IntFormat::Int8,
                )),
            },
        )
    }

    /// Zhang et al. 2020: layer-wise adaptive INT8/INT16 arbitrated on mean
    /// bias (vector distance), emulated by a format sweep.
    pub fn zhang2020() -> Self {
        TrainingQuantizer::new(
            "Zhang2020",
            QuantScheme::LayerWise {
                format: IntFormat::Int8,
                multiplex: Some(E2bqmQuantizer::new(
                    4,
                    CandidateStrategy::FormatSweep,
                    ErrorEstimator::Mse,
                    IntFormat::Int8,
                )),
            },
        )
    }

    /// Zhang et al. 2020 + HQT: per-block adaptive precision.
    pub fn zhang2020_hqt() -> Self {
        TrainingQuantizer::new(
            "Zhang2020+HQT",
            QuantScheme::Hqt {
                block_size: 1024,
                format: IntFormat::Int8,
                multiplex: Some(E2bqmQuantizer::new(
                    4,
                    CandidateStrategy::FormatSweep,
                    ErrorEstimator::Mse,
                    IntFormat::Int8,
                )),
            },
        )
    }

    /// Yang et al. 2020: plain layer-wise max-|X| INT8 quantization (no
    /// multiplexing; the "full 8-bit integer training" recipe).
    pub fn yang2020() -> Self {
        TrainingQuantizer::new(
            "Yang2020",
            QuantScheme::LayerWise {
                format: IntFormat::Int8,
                multiplex: None,
            },
        )
    }

    /// Zhong et al. 2020: shiftable fixed-point INT8, quantized in groups —
    /// realized as block-local (group) statistics with a 2-way shiftable
    /// scale multiplex.
    pub fn zhong2020() -> Self {
        TrainingQuantizer::new(
            "Zhong2020",
            QuantScheme::Hqt {
                block_size: 256,
                format: IntFormat::Int8,
                multiplex: Some(E2bqmQuantizer::new(
                    2,
                    CandidateStrategy::ShiftableFxp,
                    ErrorEstimator::Rectilinear,
                    IntFormat::Int8,
                )),
            },
        )
    }

    /// A static (never-adapted) quantizer with a fixed range — the
    /// negative control for the Fig. 2 motivation experiment.
    pub fn static_range(theta: f32, format: IntFormat) -> Self {
        TrainingQuantizer::new(
            format!("Static(theta={theta})"),
            QuantScheme::StaticRange { theta, format },
        )
    }

    /// Wang et al. 2018: FP8 (e5m2) with stochastic rounding.
    pub fn wang2018(seed: u64) -> Self {
        TrainingQuantizer::new(
            "Wang2018-FP8",
            QuantScheme::MiniFp {
                format: MiniFloat::fp8_e5m2(),
                rounding: RoundingMode::Stochastic,
                seed,
            },
        )
    }

    /// Wang et al.'s format with nearest rounding — the ablation showing
    /// why they need stochastic rounding.
    pub fn fp8_nearest() -> Self {
        TrainingQuantizer::new(
            "FP8-nearest",
            QuantScheme::MiniFp {
                format: MiniFloat::fp8_e5m2(),
                rounding: RoundingMode::Nearest,
                seed: 0,
            },
        )
    }

    /// Plain HQT without multiplexing (pure LDQ).
    pub fn ldq_only(block_size: usize, format: IntFormat) -> Self {
        TrainingQuantizer::new(
            format!("LDQ(K={block_size})"),
            QuantScheme::Hqt {
                block_size,
                format,
                multiplex: None,
            },
        )
    }

    /// The quantizer's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying scheme.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// Whether any quantization is applied at all.
    pub fn is_quantized(&self) -> bool {
        !matches!(self.scheme, QuantScheme::Fp32)
    }

    /// Number of full passes over the data the scheme requires on hardware
    /// without fused statistic+quantize: 2 for layer-wise (statistic pass +
    /// quantize pass), 1 for HQT, 0 for FP32 (no quantization work).
    pub fn data_passes(&self) -> u32 {
        match self.scheme {
            QuantScheme::Fp32 => 0,
            // No statistic to gather: a single reformat pass.
            QuantScheme::StaticRange { .. } | QuantScheme::MiniFp { .. } => 1,
            QuantScheme::LayerWise { .. } => 2,
            QuantScheme::Hqt { .. } => 1,
        }
    }

    /// Quantizes then dequantizes `x`, producing the FP32 tensor the
    /// integer datapath would effectively compute with.
    ///
    /// Allocating wrapper over the fused [`Self::fake_quantize_into`],
    /// bit-identical to [`Self::fake_quantize_naive`] (see
    /// [`crate::fast`]).
    pub fn fake_quantize(&self, x: &Tensor) -> Tensor {
        let mut out = Vec::with_capacity(x.len());
        let mut scratch = QuantScratch::new();
        self.fake_quantize_into(x, &mut out, &mut scratch);
        Tensor::from_vec(out, x.dims()).expect("shape preserved by construction")
    }

    /// The reference implementation: separate statistic/quantize/dequantize
    /// tensor ops with fresh allocations (the bit-exactness oracle for the
    /// fused path).
    pub fn fake_quantize_naive(&self, x: &Tensor) -> Tensor {
        let mut sp = cq_obs::span!("quant", "fake_quantize");
        if sp.is_recording() {
            sp.arg("quantizer", self.name.as_str())
                .arg("elems", x.len())
                .arg("backend", "naive");
            cq_obs::counter!("quant.calls").incr();
        }
        match &self.scheme {
            QuantScheme::Fp32 => x.clone(),
            QuantScheme::StaticRange { theta, format } => {
                let p = QuantParams::symmetric(*theta, *format);
                x.map(|v| p.dequantize(p.quantize(v)))
            }
            QuantScheme::MiniFp {
                format,
                rounding,
                seed,
            } => format.quantize_tensor(x, *rounding, *seed),
            QuantScheme::LayerWise { format, multiplex } => match multiplex {
                None => QuantizedTensor::quantize_symmetric(x, *format).dequantize(),
                Some(m) => m.quantize(x).selected.dequantize(),
            },
            QuantScheme::Hqt {
                block_size,
                format,
                multiplex,
            } => match multiplex {
                None => {
                    LdqTensor::quantize_naive(x, LdqConfig::new(*block_size, *format)).dequantize()
                }
                Some(m) => {
                    let sels = m.quantize_blocks_naive(x, *block_size);
                    crate::e2bqm::dequantize_blocks(&sels, x.dims())
                }
            },
        }
    }

    /// The fused fast path: clears `out` and fills it with the
    /// fake-quantized values, reusing `out`'s and `scratch`'s allocations.
    /// Threading the same buffers through repeated calls (one per training
    /// step) makes steady-state quantization allocation-free for the
    /// integer schemes; `MiniFp` still allocates internally to preserve its
    /// seeded stochastic-rounding semantics.
    ///
    /// Large HQT tensors fan their independent blocks out over the global
    /// pool (workers use their own scratch); results are identical for any
    /// worker count.
    pub fn fake_quantize_into(&self, x: &Tensor, out: &mut Vec<f32>, scratch: &mut QuantScratch) {
        let mut sp = cq_obs::span!("quant", "fake_quantize");
        if sp.is_recording() {
            sp.arg("quantizer", self.name.as_str())
                .arg("elems", x.len())
                .arg("backend", "fast");
            cq_obs::counter!("quant.calls").incr();
        }
        out.clear();
        let data = x.data();
        match &self.scheme {
            QuantScheme::Fp32 => out.extend_from_slice(data),
            QuantScheme::StaticRange { theta, format } => {
                let p = QuantParams::symmetric(*theta, *format);
                out.extend(data.iter().map(|&v| p.dequantize(p.quantize(v))));
            }
            QuantScheme::MiniFp {
                format,
                rounding,
                seed,
            } => out.extend_from_slice(format.quantize_tensor(x, *rounding, *seed).data()),
            QuantScheme::LayerWise { format, multiplex } => {
                // One block spanning the tensor. Layer-wise accumulation
                // order cannot be split without changing bits, so this
                // stays sequential regardless of tensor size.
                out.resize(data.len(), 0.0);
                let whole = data.len().max(1);
                fake_quantize_band(data, out, whole, *format, multiplex, scratch);
            }
            QuantScheme::Hqt {
                block_size,
                format,
                multiplex,
            } => {
                let k = *block_size;
                assert!(k > 0, "block size must be positive");
                out.resize(data.len(), 0.0);
                let pool = fast::block_pool(data.len());
                if pool.threads() == 1 {
                    fake_quantize_band(data, out, k, *format, multiplex, scratch);
                } else {
                    pool.parallel_block_chunks(
                        out.as_mut_slice(),
                        k,
                        fast::PAR_MIN_BLOCKS,
                        |first_block, band| {
                            let start = first_block * k;
                            let mut local = QuantScratch::new();
                            fake_quantize_band(
                                &data[start..start + band.len()],
                                band,
                                k,
                                *format,
                                multiplex,
                                &mut local,
                            );
                        },
                    );
                }
            }
        }
    }

    /// Fake-quantizes one HQT block of `len` elements from its nonzero
    /// elements alone, in place. `nonzeros` holds them in ascending
    /// position order; every other element of the block is ±0.
    ///
    /// The result is bit for bit what [`Self::fake_quantize_into`] writes
    /// at those positions for the dense block, which holds +0 at every
    /// other position. θ and the E²BQM error sums run over the nonzeros
    /// only, since a ±0 changes neither (the zero-skipping argument in
    /// [`crate::fast`]), while `len` is the `n` of every mean. A producer
    /// that knows where a block's nonzeros lie, such as a max-pool
    /// backward, so skips the dense pass over the block.
    ///
    /// The block runs compiled for the process's SIMD level
    /// ([`cq_par::dispatch`]), with the same bits at every level.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is not [`QuantScheme::Hqt`], or if `len`
    /// exceeds its block size or is shorter than `nonzeros`.
    pub fn fake_quantize_nonzeros(
        &self,
        nonzeros: &mut [f32],
        len: usize,
        scratch: &mut QuantScratch,
    ) {
        let QuantScheme::Hqt {
            block_size,
            format,
            multiplex,
        } = &self.scheme
        else {
            panic!(
                "{}: only an HQT block quantizes from its nonzeros",
                self.name
            );
        };
        assert!(
            nonzeros.len() <= len && len <= *block_size,
            "{} nonzeros in a block of {len}, block size {block_size}",
            nonzeros.len()
        );
        cq_par::dispatch(NonzerosBlock {
            nonzeros,
            len,
            format: *format,
            multiplex: multiplex.as_ref(),
            scratch,
        });
    }
}

/// Fake-quantizes `src` into `dst` block by block with the fused
/// per-block kernels: a band of whole HQT blocks (the final block may be
/// ragged), or for layer-wise schemes one block spanning the tensor.
/// Each block runs compiled for the process's SIMD level
/// ([`cq_par::dispatch`]).
fn fake_quantize_band(
    src: &[f32],
    dst: &mut [f32],
    block_size: usize,
    format: IntFormat,
    multiplex: &Option<E2bqmQuantizer>,
    scratch: &mut QuantScratch,
) {
    debug_assert_eq!(src.len(), dst.len());
    for (xb, ob) in src.chunks(block_size).zip(dst.chunks_mut(block_size)) {
        cq_par::dispatch(DenseBlock {
            src: xb,
            dst: ob,
            format,
            multiplex: multiplex.as_ref(),
            scratch,
        });
    }
}

/// One block of the dense band, fake-quantized from `src` into `dst`,
/// as a [`SimdKernel`] returning the E²BQM way it took (`None` for LDQ
/// alone).
pub(crate) struct DenseBlock<'a> {
    pub(crate) src: &'a [f32],
    pub(crate) dst: &'a mut [f32],
    pub(crate) format: IntFormat,
    pub(crate) multiplex: Option<&'a E2bqmQuantizer>,
    pub(crate) scratch: &'a mut QuantScratch,
}

impl SimdKernel for DenseBlock<'_> {
    type Output = Option<usize>;

    #[inline(always)]
    fn run(self) -> Option<usize> {
        let n = self.src.len();
        let (params, _, way) = block_params(self.src, n, self.format, self.multiplex, self.scratch);
        fast::fake_quantize_block(self.src, params, self.dst);
        way
    }
}

/// [`TrainingQuantizer::fake_quantize_nonzeros`]'s block, fake-quantized
/// in place from its nonzeros, as a [`SimdKernel`] returning the E²BQM
/// way it took.
pub(crate) struct NonzerosBlock<'a> {
    pub(crate) nonzeros: &'a mut [f32],
    pub(crate) len: usize,
    pub(crate) format: IntFormat,
    pub(crate) multiplex: Option<&'a E2bqmQuantizer>,
    pub(crate) scratch: &'a mut QuantScratch,
}

impl SimdKernel for NonzerosBlock<'_> {
    type Output = Option<usize>;

    #[inline(always)]
    fn run(self) -> Option<usize> {
        // θ over the nonzeros is θ over the block: `|±0|` never raises
        // the `max` fold above its own 0.0 start.
        let (params, _, way) = block_params(
            self.nonzeros,
            self.len,
            self.format,
            self.multiplex,
            self.scratch,
        );
        fast::fake_quantize_in_place(self.nonzeros, params);
        way
    }
}

/// One block quantized to integer codes, as a [`SimdKernel`]: the LDQ
/// codes of `src` (`multiplex` `None`) or those of its E²BQM winner,
/// which [`crate::LdqTensor::quantize`] and
/// [`E2bqmQuantizer::quantize_blocks`] run on every block. Returns the
/// quantized block, its θ (the raw statistic) and the way it took; the
/// per-way errors are left in `scratch.errors`.
pub(crate) struct CodesBlock<'a> {
    pub(crate) src: &'a [f32],
    pub(crate) format: IntFormat,
    pub(crate) multiplex: Option<&'a E2bqmQuantizer>,
    pub(crate) scratch: &'a mut QuantScratch,
}

impl SimdKernel for CodesBlock<'_> {
    type Output = (QuantizedTensor, f32, Option<usize>);

    #[inline(always)]
    fn run(self) -> Self::Output {
        let n = self.src.len();
        let (params, theta, way) =
            block_params(self.src, n, self.format, self.multiplex, self.scratch);
        let mut codes = Vec::with_capacity(n);
        fast::quantize_codes_into(self.src, params, &mut codes);
        (QuantizedTensor::from_codes(codes, params, &[n]), theta, way)
    }
}

/// The parameters of a block of `n` elements, from `x`, which holds the
/// whole block or only its nonzeros (see
/// [`fast::eval_candidates_shared`]), with the block's θ and the E²BQM
/// way that chose them.
#[inline(always)]
fn block_params(
    x: &[f32],
    n: usize,
    format: IntFormat,
    multiplex: Option<&E2bqmQuantizer>,
    scratch: &mut QuantScratch,
) -> (QuantParams, f32, Option<usize>) {
    let theta = fast::block_theta(x);
    match multiplex {
        None => (QuantParams::symmetric(theta, format), theta, None),
        Some(m) => {
            m.candidate_params_into(theta, &mut scratch.params);
            let way = fast::eval_candidates_shared(x, n, m.estimator(), scratch);
            (scratch.params[way], theta, Some(way))
        }
    }
}

impl fmt::Display for TrainingQuantizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::init;

    #[test]
    fn table3_has_five_rows() {
        let algos = table3_algorithms();
        assert_eq!(algos.len(), 5);
        assert!(algos.iter().any(|a| a.name.contains("Zhu")));
        assert!(algos.iter().all(|a| a.weight_update.bytes() >= 2));
    }

    #[test]
    fn fp32_is_identity() {
        let q = TrainingQuantizer::fp32();
        let x = init::normal(&[64], 0.0, 1.0, 1);
        assert_eq!(q.fake_quantize(&x), x);
        assert!(!q.is_quantized());
        assert_eq!(q.data_passes(), 0);
    }

    #[test]
    fn hqt_variants_single_pass() {
        assert_eq!(TrainingQuantizer::zhu2019().data_passes(), 2);
        assert_eq!(TrainingQuantizer::zhu2019_hqt().data_passes(), 1);
        assert_eq!(TrainingQuantizer::zhang2020().data_passes(), 2);
        assert_eq!(TrainingQuantizer::zhang2020_hqt().data_passes(), 1);
    }

    #[test]
    fn all_quantizers_preserve_direction() {
        let x = init::long_tailed(&[2048], 0.1, 0.01, 20.0, 5);
        for q in [
            TrainingQuantizer::zhu2019(),
            TrainingQuantizer::zhu2019_hqt(),
            TrainingQuantizer::zhang2020(),
            TrainingQuantizer::zhang2020_hqt(),
            TrainingQuantizer::ldq_only(256, IntFormat::Int8),
        ] {
            let xq = q.fake_quantize(&x);
            let cos = x.cosine_similarity(&xq).unwrap();
            assert!(cos > 0.98, "{}: cosine {cos}", q.name());
        }
    }

    #[test]
    fn hqt_error_not_worse_than_layerwise() {
        // HQT (block-local) should match or beat layer-wise error.
        let x = init::long_tailed(&[8192], 0.05, 0.01, 40.0, 8);
        let lw = TrainingQuantizer::new(
            "lw",
            QuantScheme::LayerWise {
                format: IntFormat::Int8,
                multiplex: None,
            },
        );
        let hqt = TrainingQuantizer::ldq_only(512, IntFormat::Int8);
        let e_lw = x.l1_distance(&lw.fake_quantize(&x)).unwrap();
        let e_hqt = x.l1_distance(&hqt.fake_quantize(&x)).unwrap();
        assert!(e_hqt <= e_lw + 1e-4, "hqt {e_hqt} > layerwise {e_lw}");
    }

    #[test]
    fn all_table3_algorithms_have_executable_quantizers() {
        // Every Table III row maps to a runnable TrainingQuantizer.
        let x = init::long_tailed(&[2048], 0.1, 0.01, 20.0, 5);
        for q in [
            TrainingQuantizer::wang2018(1),
            TrainingQuantizer::zhu2019(),
            TrainingQuantizer::yang2020(),
            TrainingQuantizer::zhong2020(),
            TrainingQuantizer::zhang2020(),
        ] {
            let back = q.fake_quantize(&x);
            let cos = x.cosine_similarity(&back).unwrap();
            assert!(cos > 0.95, "{}: cosine {cos}", q.name());
        }
    }

    #[test]
    fn static_range_clips_out_of_range_data() {
        let q = TrainingQuantizer::static_range(0.01, IntFormat::Int8);
        let x = Tensor::from_vec(vec![5.0, -5.0, 0.005], &[3]).unwrap();
        let back = q.fake_quantize(&x);
        // Values beyond the static range clip hard.
        assert!((back.data()[0] - 0.01).abs() < 1e-4);
        assert!((back.data()[1] + 0.01).abs() < 1e-4);
        assert!((back.data()[2] - 0.005).abs() < 1e-4);
        assert_eq!(q.data_passes(), 1);
    }

    #[test]
    fn wang2018_fp8_is_coarse_but_unbiased() {
        let q = TrainingQuantizer::wang2018(3);
        let x = init::normal(&[10_000], 0.0, 1.0, 5);
        let back = q.fake_quantize(&x);
        // FP8 is coarse...
        assert!(x.l1_distance(&back).unwrap() > 10.0);
        // ...but stochastic rounding keeps the mean close (unbiased).
        assert!((x.mean() - back.mean()).abs() < 0.01);
        assert_eq!(q.name(), "Wang2018-FP8");
    }

    #[test]
    fn nonzeros_entry_selects_with_the_naive_errors() {
        // A 1000-element block, 80% ±0, quantized from its 200 nonzeros:
        // the values match the naive dense block, and so do the estimated
        // errors the entry leaves in the scratch arena, which a wrong `n`
        // in the means would move.
        let dense: Vec<f32> = (0..1000)
            .map(|i| match i % 5 {
                0 => ((i * 37) % 101) as f32 * 0.013 - 0.6,
                1 => -0.0,
                _ => 0.0,
            })
            .collect();
        let x = Tensor::from_vec(dense.clone(), &[1000]).unwrap();
        for estimator in [
            ErrorEstimator::Rectilinear,
            ErrorEstimator::Cosine,
            ErrorEstimator::MeanBias,
            ErrorEstimator::Mse,
        ] {
            let m = E2bqmQuantizer::new(
                4,
                CandidateStrategy::FormatSweep,
                estimator,
                IntFormat::Int8,
            );
            let q = TrainingQuantizer::new(
                "hqt",
                QuantScheme::Hqt {
                    block_size: 1024,
                    format: IntFormat::Int8,
                    multiplex: Some(m),
                },
            );
            let mut nonzeros: Vec<f32> = dense.iter().copied().filter(|&v| v != 0.0).collect();
            let mut scratch = QuantScratch::new();
            q.fake_quantize_nonzeros(&mut nonzeros, dense.len(), &mut scratch);
            let naive = m.quantize_blocks_naive(&x, 1024);
            assert_eq!(scratch.errors, naive[0].errors, "{estimator:?}");
            let want = q.fake_quantize_naive(&x);
            let want: Vec<f32> = (want.data().iter().zip(&dense))
                .filter(|(_, &v)| v != 0.0)
                .map(|(&w, _)| w)
                .collect();
            assert_eq!(nonzeros, want, "{estimator:?}");
        }
    }

    #[test]
    #[should_panic(expected = "only an HQT block")]
    fn nonzeros_entry_rejects_layer_wise_schemes() {
        let mut nonzeros = [1.0f32, -2.0];
        TrainingQuantizer::zhu2019().fake_quantize_nonzeros(
            &mut nonzeros,
            8,
            &mut QuantScratch::new(),
        );
    }

    #[test]
    fn names_and_display() {
        assert_eq!(TrainingQuantizer::zhu2019().to_string(), "Zhu2019");
        assert_eq!(TrainingQuantizer::zhang2020_hqt().name(), "Zhang2020+HQT");
        assert_eq!(WeightUpdatePrecision::Fp24.to_string(), "FP24");
        assert_eq!(WeightUpdatePrecision::Fp24.bytes(), 3);
    }
}
