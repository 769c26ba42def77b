//! Error-estimation-based Quantization Multiplexing (E²BQM) — paper §III.B.
//!
//! Long-tailed data distributions exaggerate fixed-point rounding error.
//! Prior algorithms each invented a different mitigation (shiftable
//! fixed-point, BiScaled-FxP, format switching, direction-sensitive
//! clipping); the paper's observation is that all of them *choose the best
//! quantization function among several candidates according to an estimate
//! of the quantization error*. E²BQM implements exactly that four-step
//! procedure:
//!
//! 1. compute the statistic θ on the original data X,
//! 2. quantize X into N candidates via different `Qᵢ(·)`,
//! 3. estimate each candidate's error as a distance between X and the
//!    dequantized `X'ᵢ = Qᵢ⁻¹(Xq,ᵢ)`,
//! 4. select the candidate with the smallest estimated error.
//!
//! The hardware SQU realizes this as a time-multiplexed 4-way quantization
//! with an Arbiter comparing candidate quality (paper §IV.B.1).

use crate::algorithms::CodesBlock;
use crate::fast;
use crate::format::{IntFormat, QuantParams};
use crate::qtensor::QuantizedTensor;
use cq_par::Pool;
use cq_tensor::Tensor;
use std::fmt;

/// Distance metric used to estimate quantization error (step 3).
///
/// The paper's §VII.B lists the statistics the Arbiter/Stat-Unit supports:
/// max absolute value, rectilinear distance, and mean bias; cosine distance
/// covers Zhu et al.'s direction-sensitive loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorEstimator {
    /// Rectilinear distance Σ|xᵢ − x'ᵢ| (the paper's running example).
    #[default]
    Rectilinear,
    /// Cosine distance `1 − cos(X, X')` (direction-sensitive, Zhu et al.).
    Cosine,
    /// Absolute mean bias |mean(X) − mean(X')| (Zhang et al.).
    MeanBias,
    /// Mean squared error.
    Mse,
}

impl ErrorEstimator {
    /// Evaluates the estimated error between the original data and one
    /// dequantized candidate (lower is better).
    pub fn estimate(&self, original: &Tensor, dequantized: &Tensor) -> f64 {
        match self {
            ErrorEstimator::Rectilinear => original
                .l1_distance(dequantized)
                .expect("candidates share the original's shape")
                as f64,
            ErrorEstimator::Cosine => {
                1.0 - original
                    .cosine_similarity(dequantized)
                    .expect("candidates share the original's shape") as f64
            }
            ErrorEstimator::MeanBias => (original.mean() as f64 - dequantized.mean() as f64).abs(),
            ErrorEstimator::Mse => {
                let n = original.len().max(1) as f64;
                original
                    .data()
                    .iter()
                    .zip(dequantized.data())
                    .map(|(&a, &b)| {
                        let d = (a - b) as f64;
                        d * d
                    })
                    .sum::<f64>()
                    / n
            }
        }
    }
}

impl fmt::Display for ErrorEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorEstimator::Rectilinear => "rectilinear",
            ErrorEstimator::Cosine => "cosine",
            ErrorEstimator::MeanBias => "mean-bias",
            ErrorEstimator::Mse => "mse",
        };
        f.write_str(name)
    }
}

/// How the candidate quantization functions `Qᵢ(·)` are generated (step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateStrategy {
    /// Candidate i clips at θ/2ⁱ — a sweep of clipping ranges emulating
    /// *Direction Sensitive Gradient Clipping* (Zhu et al. 2019).
    ClipSweep,
    /// Candidate 0 uses the wide scale θ, candidate 1 the fine scale
    /// θ/2^(bits/2), emulating *Shiftable Fixed-Point* (Zhong et al. 2020)
    /// and *BiScaled-FxP* (Jain et al. 2019). Additional ways interpolate
    /// between the two.
    ShiftableFxp,
    /// Candidate i uses format widths 4·(i+1) bits (INT4/8/12/16) at the
    /// same θ — Zhang et al.'s adaptive-precision format switching.
    FormatSweep,
}

impl fmt::Display for CandidateStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CandidateStrategy::ClipSweep => "clip-sweep",
            CandidateStrategy::ShiftableFxp => "shiftable-fxp",
            CandidateStrategy::FormatSweep => "format-sweep",
        };
        f.write_str(name)
    }
}

/// Outcome of an E²BQM quantization: the winning candidate plus bookkeeping
/// about the selection (which way won and every candidate's estimated
/// error), matching what the hardware Arbiter produces.
#[derive(Debug, Clone, PartialEq)]
pub struct E2bqmSelection {
    /// The winning quantized tensor.
    pub selected: QuantizedTensor,
    /// Index of the winning candidate (the "tag" the Arbiter emits).
    pub way: usize,
    /// Estimated error of each candidate, indexed by way.
    pub errors: Vec<f64>,
}

/// The E²BQM quantizer: N-way candidate generation + error-based arbitration.
///
/// # Examples
///
/// ```
/// use cq_quant::{CandidateStrategy, E2bqmQuantizer, ErrorEstimator, IntFormat};
/// use cq_tensor::init;
///
/// let q = E2bqmQuantizer::new(
///     4,
///     CandidateStrategy::ClipSweep,
///     ErrorEstimator::Rectilinear,
///     IntFormat::Int8,
/// );
/// let x = init::long_tailed(&[512], 0.1, 0.01, 40.0, 7);
/// let sel = q.quantize(&x);
/// assert!(sel.way < 4);
/// assert_eq!(sel.errors.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2bqmQuantizer {
    ways: usize,
    strategy: CandidateStrategy,
    estimator: ErrorEstimator,
    format: IntFormat,
}

impl E2bqmQuantizer {
    /// Creates a quantizer with `ways` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(
        ways: usize,
        strategy: CandidateStrategy,
        estimator: ErrorEstimator,
        format: IntFormat,
    ) -> Self {
        assert!(ways > 0, "E2BQM needs at least one candidate way");
        E2bqmQuantizer {
            ways,
            strategy,
            estimator,
            format,
        }
    }

    /// The hardware default: 4-way, rectilinear distance, INT8, clip sweep
    /// (the configuration evaluated in paper §III.B).
    pub fn hardware_default() -> Self {
        E2bqmQuantizer::new(
            4,
            CandidateStrategy::ClipSweep,
            ErrorEstimator::Rectilinear,
            IntFormat::Int8,
        )
    }

    /// Number of candidate ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The candidate-generation strategy.
    pub fn strategy(&self) -> CandidateStrategy {
        self.strategy
    }

    /// The error estimator.
    pub fn estimator(&self) -> ErrorEstimator {
        self.estimator
    }

    /// The base integer format.
    pub fn format(&self) -> IntFormat {
        self.format
    }

    /// Generates the candidate parameter set for a block with statistic θ.
    pub fn candidate_params(&self, theta: f32) -> Vec<QuantParams> {
        let mut out = Vec::with_capacity(self.ways);
        self.candidate_params_into(theta, &mut out);
        out
    }

    /// Fills `out` with the candidate parameter set for statistic θ,
    /// reusing `out`'s allocation. The candidate set depends only on
    /// `(self, θ)`, so repeated callers (block loops) regenerate it into
    /// the same buffer instead of allocating a fresh `Vec` per block.
    pub fn candidate_params_into(&self, theta: f32, out: &mut Vec<QuantParams>) {
        out.clear();
        let theta = fast::effective_theta(theta);
        if theta == 0.0 {
            // Degenerate blocks quantize to zero under every candidate.
            out.resize(self.ways, QuantParams::symmetric(0.0, self.format));
            return;
        }
        out.extend((0..self.ways).map(|i| match self.strategy {
            CandidateStrategy::ClipSweep => {
                QuantParams::symmetric(theta / (1 << i) as f32, self.format)
            }
            CandidateStrategy::ShiftableFxp => {
                // Geometric interpolation between wide (θ) and fine
                // (θ / 2^(bits/2)) scales.
                let span = self.format.bits() as f32 / 2.0;
                let exp = span * i as f32 / (self.ways.max(2) - 1) as f32;
                QuantParams::symmetric(theta / 2f32.powf(exp), self.format)
            }
            CandidateStrategy::FormatSweep => {
                let fmt = IntFormat::ALL[i.min(IntFormat::ALL.len() - 1)];
                QuantParams::symmetric(theta, fmt)
            }
        }));
    }

    /// Runs the full four-step E²BQM procedure on one block of data.
    pub fn quantize(&self, x: &Tensor) -> E2bqmSelection {
        // Step 1: statistic.
        self.quantize_with_theta(x, x.max_abs())
    }

    /// Runs steps 2–4 with an externally supplied statistic θ.
    ///
    /// The hardware separates the Stat Unit (which produces θ) from the
    /// Quant Unit; this entry point models that seam, letting callers
    /// replay a stale θ, substitute a corrupted register value (fault
    /// injection), or reuse a θ computed on different data.
    ///
    /// Arbitration is total: a candidate whose estimated error is NaN
    /// (e.g. after a fault upstream) loses to every finite candidate
    /// instead of panicking.
    pub fn quantize_with_theta(&self, x: &Tensor, theta: f32) -> E2bqmSelection {
        // Step 2: candidates.
        let candidates: Vec<QuantizedTensor> = self
            .candidate_params(theta)
            .into_iter()
            .map(|p| QuantizedTensor::quantize(x, p))
            .collect();
        // Step 3: error estimation on dequantized candidates.
        let errors: Vec<f64> = candidates
            .iter()
            .map(|c| self.estimator.estimate(x, &c.dequantize()))
            .collect();
        // Step 4: arbitration (total order so NaN errors rank last).
        let way = errors
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        E2bqmSelection {
            selected: candidates.into_iter().nth(way).expect("way < ways"),
            way,
            errors,
        }
    }

    /// Quantizes a tensor block-by-block (LDQ slicing) with E²BQM applied to
    /// every block; returns per-block selections.
    ///
    /// Runs the fused shared-statistics kernel (bit-identical to
    /// [`Self::quantize_blocks_naive`] — see [`crate::fast`]), fanning out
    /// over the global pool for large tensors.
    pub fn quantize_blocks(&self, x: &Tensor, block_size: usize) -> Vec<E2bqmSelection> {
        assert!(block_size > 0, "block size must be positive");
        let mut sp = cq_obs::span!("quant", "e2bqm_blocks");
        if sp.is_recording() {
            sp.arg("elems", x.len())
                .arg("blocks", x.len().div_ceil(block_size))
                .arg("ways", self.ways)
                .arg("format", self.format.to_string().as_str());
            cq_obs::counter!("quant.calls").incr();
            cq_obs::counter!("quant.blocks").add(x.len().div_ceil(block_size) as u64);
        }
        self.quantize_blocks_fast_on(&fast::block_pool(x.len()), x, block_size)
    }

    /// The reference implementation: per block, N separate
    /// quantize→dequantize→estimate round trips (the bit-exactness oracle
    /// for the fused path).
    pub fn quantize_blocks_naive(&self, x: &Tensor, block_size: usize) -> Vec<E2bqmSelection> {
        assert!(block_size > 0, "block size must be positive");
        let n = x.len();
        let mut out = Vec::with_capacity(n.div_ceil(block_size));
        let mut start = 0;
        while start < n {
            let len = block_size.min(n - start);
            let block = x.slice_flat(start, len).expect("bounds derived from len");
            out.push(self.quantize(&block));
            start += len;
        }
        out
    }

    /// Pool-explicit fused path: θ and every candidate's error in one
    /// sweep per block, and codes for the winner only, compiled for the
    /// process's SIMD level ([`cq_par::dispatch`]). Blocks are partitioned
    /// into contiguous chunks and results are flattened in block order,
    /// so the output is identical for any worker count.
    pub fn quantize_blocks_fast_on(
        &self,
        pool: &Pool,
        x: &Tensor,
        block_size: usize,
    ) -> Vec<E2bqmSelection> {
        fast::map_blocks(pool, x.data(), block_size, |src, scratch| {
            let (selected, _, way) = cq_par::dispatch(CodesBlock {
                src,
                format: self.format,
                multiplex: Some(self),
                scratch,
            });
            E2bqmSelection {
                selected,
                way: way.expect("a multiplexed block takes a way"),
                errors: scratch.errors.clone(),
            }
        })
    }
}

/// Reconstructs the full tensor from per-block E²BQM selections.
pub fn dequantize_blocks(selections: &[E2bqmSelection], dims: &[usize]) -> Tensor {
    let mut data = Vec::new();
    for s in selections {
        data.extend_from_slice(s.selected.dequantize().data());
    }
    Tensor::from_vec(data, dims).expect("selections cover the tensor")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtensor::quant_error;
    use cq_tensor::init;

    #[test]
    fn selection_never_worse_than_baseline_way0() {
        // Way 0 of ClipSweep is plain max-|X| quantization; arbitration must
        // pick something at least as good under the estimator.
        let q = E2bqmQuantizer::hardware_default();
        for seed in 0..8 {
            let x = init::long_tailed(&[1024], 0.05, 0.02, 50.0, seed);
            let sel = q.quantize(&x);
            assert!(sel.errors[sel.way] <= sel.errors[0] + 1e-9);
        }
    }

    #[test]
    fn long_tail_prefers_clipped_candidates() {
        // 4095 small bulk values plus a single extreme outlier: clipping the
        // range (way > 0) recovers the bulk at tiny cost on the outlier.
        let q = E2bqmQuantizer::hardware_default();
        let mut data: Vec<f32> = (0..4095)
            .map(|i| if i % 2 == 0 { 0.003 } else { -0.003 })
            .collect();
        data.push(1.0);
        let x = Tensor::from_vec(data, &[4096]).unwrap();
        let sel = q.quantize(&x);
        assert!(sel.way > 0, "expected a clipped candidate, got way 0");
        assert!(sel.errors[sel.way] < sel.errors[0]);
    }

    #[test]
    fn gaussian_data_prefers_wide_range() {
        // Without a long tail, clipping hurts; the arbiter should keep a
        // wide-range candidate (way 0 or 1).
        let q = E2bqmQuantizer::hardware_default();
        let x = init::normal(&[1024], 0.0, 1.0, 4);
        let sel = q.quantize(&x);
        assert!(sel.way <= 1, "unexpected deep clip on gaussian data");
    }

    #[test]
    fn e2bqm_beats_plain_quantization_on_long_tails() {
        let q = E2bqmQuantizer::hardware_default();
        let x = init::long_tailed(&[8192], 0.01, 0.001, 500.0, 11);
        let sel = q.quantize(&x);
        let plain = QuantizedTensor::quantize_symmetric(&x, IntFormat::Int8);
        let e_sel = quant_error(&x, &sel.selected.dequantize());
        let e_plain = quant_error(&x, &plain.dequantize());
        assert!(
            e_sel.l1 < e_plain.l1,
            "E2BQM L1 {} >= plain L1 {}",
            e_sel.l1,
            e_plain.l1
        );
    }

    #[test]
    fn format_sweep_widest_is_most_accurate() {
        let q = E2bqmQuantizer::new(
            4,
            CandidateStrategy::FormatSweep,
            ErrorEstimator::Mse,
            IntFormat::Int4,
        );
        let x = init::normal(&[2048], 0.0, 1.0, 9);
        let sel = q.quantize(&x);
        // MSE of INT16 candidate is the lowest, so way 3 wins.
        assert_eq!(sel.way, 3);
        assert!(sel.errors[3] < sel.errors[0]);
    }

    #[test]
    fn shiftable_two_way_selects_fine_for_small_values() {
        let q = E2bqmQuantizer::new(
            2,
            CandidateStrategy::ShiftableFxp,
            ErrorEstimator::Rectilinear,
            IntFormat::Int8,
        );
        // Bulk small values plus one outlier defining theta. With enough
        // bulk elements the fine scale's gain dwarfs the outlier clip cost.
        let mut data = vec![0.001f32; 4095];
        data.push(1.0);
        let x = Tensor::from_vec(data, &[4096]).unwrap();
        let sel = q.quantize(&x);
        assert_eq!(sel.way, 1, "fine scale should win for bulk-small data");
    }

    #[test]
    fn candidate_params_counts_and_scales() {
        let q = E2bqmQuantizer::hardware_default();
        let params = q.candidate_params(8.0);
        assert_eq!(params.len(), 4);
        // ClipSweep halves theta per way.
        assert!((params[0].representable_max() - 8.0).abs() < 1e-4);
        assert!((params[1].representable_max() - 4.0).abs() < 1e-4);
        assert!((params[3].representable_max() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn zero_block_degenerates() {
        let q = E2bqmQuantizer::hardware_default();
        let x = Tensor::zeros(&[64]);
        let sel = q.quantize(&x);
        assert_eq!(sel.selected.dequantize(), x);
    }

    #[test]
    fn blockwise_roundtrip() {
        let q = E2bqmQuantizer::hardware_default();
        let x = init::long_tailed(&[1000], 0.1, 0.01, 30.0, 2);
        let sels = q.quantize_blocks(&x, 256);
        assert_eq!(sels.len(), 4);
        let back = dequantize_blocks(&sels, x.dims());
        assert_eq!(back.dims(), x.dims());
        let e = quant_error(&x, &back);
        assert!(e.cosine > 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_ways_panics() {
        let _ = E2bqmQuantizer::new(
            0,
            CandidateStrategy::ClipSweep,
            ErrorEstimator::Rectilinear,
            IntFormat::Int8,
        );
    }

    #[test]
    fn estimator_displays() {
        assert_eq!(ErrorEstimator::Rectilinear.to_string(), "rectilinear");
        assert_eq!(CandidateStrategy::ShiftableFxp.to_string(), "shiftable-fxp");
    }

    #[test]
    fn mean_bias_estimator() {
        let a = Tensor::from_vec(vec![1.0, 3.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let e = ErrorEstimator::MeanBias.estimate(&a, &b);
        assert!((e - 0.5).abs() < 1e-9);
    }
}
