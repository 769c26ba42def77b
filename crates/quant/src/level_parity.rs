//! Cross-level parity: every kernel cq-quant runs through
//! [`cq_par::dispatch`] computes the same bits at the scalar level and at
//! the level this process detects. One process runs both forms through
//! [`cq_par::dispatch_at`]; under `CQ_SIMD=scalar`, or on a CPU without
//! AVX2, the two are the same code and the checks hold trivially.
//!
//! The inputs are the values on which a vectorized loop could part from
//! the scalar one: NaN, ±∞, ±0, subnormals, exact .5 ties of the
//! quotient, |x| ≥ 2²³, and gradient-like blocks that are 50–99% ±0.

use crate::algorithms::{CodesBlock, DenseBlock, NonzerosBlock};
use crate::e2bqm::{CandidateStrategy, E2bqmQuantizer, ErrorEstimator};
use crate::fast::QuantScratch;
use crate::format::IntFormat;
use crate::intdomain::{IntDomainQuantizer, IntDomainScratch, QuantizeInto};
use cq_par::{dispatch_at, SimdLevel};

/// xorshift64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A subnormal of either sign.
fn subnormal(r: &mut Rng) -> f32 {
    f32::from_bits((1 + r.below(0x007f_ffff) as u32) | (r.below(2) << 31) as u32)
}

/// One value from the edge classes, or an ordinary one. `rare` in 1000
/// values is ±∞ or |x| ≥ 2²³, which make θ degenerate or swamp the
/// block, so most blocks keep a finite θ below them.
fn edge_value(r: &mut Rng, rare: u64) -> f32 {
    let sign = if r.next() >> 63 == 1 { -1.0 } else { 1.0 };
    if r.below(1000) < rare {
        return sign
            * if r.next() & 1 == 0 {
                f32::INFINITY
            } else {
                8_388_608.0 * (1 + r.below(1 << 20)) as f32
            };
    }
    sign * match r.below(9) {
        0 => f32::NAN,
        1 => 0.0,
        2 => subnormal(r),
        // A tie of `x / 1` (INT8 candidate 0 under the 127 anchor).
        3 => r.below(127) as f32 + 0.5,
        // A tie of `x / s_base` for the int-domain ladder under the 127
        // anchor: s_base = 127 / (127 · 8) = 1/8.
        4 => (2 * r.below(1016) + 1) as f32 / 16.0,
        // The anchor.
        5 => 127.0,
        6 => (r.below(2001) as f32 - 1000.0) * 1e-3,
        // Below the anchor, which so stays θ.
        _ => (r.below(1 << 24) as f32) * 7e-6,
    }
}

/// Blocks of 0–3000 elements: edge values throughout, and gradient-like
/// blocks where 50–99% of the elements are ±0 of either sign and the
/// rest edge values, ordinary values or subnormals alone.
fn blocks(seed: u64, count: usize) -> Vec<Vec<f32>> {
    let mut r = Rng(seed);
    (0..count)
        .map(|i| {
            let n = r.below(3001) as usize;
            let rare = [0, 2, 20][i % 3];
            if i % 2 == 0 {
                return (0..n).map(|_| edge_value(&mut r, rare)).collect();
            }
            let zero_percent = 50 + r.below(50);
            let subnormal_only = i % 5 == 1;
            (0..n)
                .map(|_| {
                    if r.below(100) < zero_percent {
                        if r.next() >> 63 == 1 {
                            -0.0
                        } else {
                            0.0
                        }
                    } else if subnormal_only {
                        subnormal(&mut r)
                    } else {
                        edge_value(&mut r, rare)
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The scalar level and the detected one.
fn levels() -> [SimdLevel; 2] {
    [SimdLevel::Scalar, cq_par::simd_level()]
}

/// Every E²BQM configuration the fast path sees: each strategy and
/// estimator, one to six ways, INT4 and INT8, and LDQ alone (`None`).
fn multiplexers() -> Vec<(IntFormat, Option<E2bqmQuantizer>)> {
    let mut out = vec![(IntFormat::Int8, None), (IntFormat::Int4, None)];
    for strategy in [
        CandidateStrategy::ClipSweep,
        CandidateStrategy::ShiftableFxp,
        CandidateStrategy::FormatSweep,
    ] {
        for estimator in [
            ErrorEstimator::Rectilinear,
            ErrorEstimator::Cosine,
            ErrorEstimator::MeanBias,
            ErrorEstimator::Mse,
        ] {
            for (ways, format) in [
                (1, IntFormat::Int8),
                (4, IntFormat::Int8),
                (6, IntFormat::Int4),
            ] {
                let m = E2bqmQuantizer::new(ways, strategy, estimator, format);
                out.push((format, Some(m)));
            }
        }
    }
    out
}

/// Codes, way, scale, base scale and per-way errors of the integer-domain
/// quantizer, over 1–8 ways, INT8 and INT4, on edge and sparse blocks and
/// on one block longer than a fold chunk (2¹⁶ elements).
#[test]
fn int_domain_quantize_matches_across_levels() {
    let mut inputs = blocks(0x9e37_79b9_7f4a_7c15, 120);
    inputs.push({
        let mut r = Rng(7);
        (0..70_000).map(|_| edge_value(&mut r, 0)).collect()
    });
    for (ways, format) in [
        (1, IntFormat::Int8),
        (3, IntFormat::Int4),
        (4, IntFormat::Int8),
        (8, IntFormat::Int8),
    ] {
        let q = IntDomainQuantizer::new(ways, format);
        for (i, x) in inputs.iter().enumerate() {
            let [scalar, detected] = levels().map(|level| {
                let mut codes = vec![99; 3];
                let mut scratch = IntDomainScratch::new();
                let sel = dispatch_at(
                    level,
                    QuantizeInto {
                        q: &q,
                        x,
                        codes: &mut codes,
                        scratch: &mut scratch,
                    },
                );
                let sel = sel.map(|s| (s.way, s.scale.to_bits(), s.base_scale.to_bits()));
                (codes, sel, scratch.errors().to_vec())
            });
            assert_eq!(scalar, detected, "{ways} ways {format}, block {i}");
        }
    }
}

/// Way, per-way errors and fake-quantized values of a dense block, and
/// of the same block from its nonzeros alone; codes, scale and θ of the
/// block quantized to codes, as LDQ tensors and E²BQM selections are.
#[test]
fn e2bqm_blocks_match_across_levels() {
    let inputs = blocks(0x2545_f491_4f6c_dd1d, 60);
    for (format, m) in multiplexers() {
        let m = m.as_ref();
        for (i, x) in inputs.iter().enumerate() {
            let case = format!("{format} {m:?}, block {i}");
            let [scalar, detected] = levels().map(|level| {
                let mut dst = vec![f32::NAN; x.len()];
                let mut scratch = QuantScratch::new();
                let way = dispatch_at(
                    level,
                    DenseBlock {
                        src: x,
                        dst: &mut dst,
                        format,
                        multiplex: m,
                        scratch: &mut scratch,
                    },
                );
                let errors: Vec<u64> = scratch.errors.iter().map(|e| e.to_bits()).collect();
                (way, errors, bits(&dst))
            });
            assert_eq!(scalar, detected, "dense, {case}");

            let nonzeros: Vec<f32> = x.iter().copied().filter(|&v| v != 0.0).collect();
            let [scalar, detected] = levels().map(|level| {
                let mut vals = nonzeros.clone();
                let mut scratch = QuantScratch::new();
                let way = dispatch_at(
                    level,
                    NonzerosBlock {
                        nonzeros: &mut vals,
                        len: x.len(),
                        format,
                        multiplex: m,
                        scratch: &mut scratch,
                    },
                );
                let errors: Vec<u64> = scratch.errors.iter().map(|e| e.to_bits()).collect();
                (way, errors, bits(&vals))
            });
            assert_eq!(scalar, detected, "nonzeros, {case}");

            let [scalar, detected] = levels().map(|level| {
                let mut scratch = QuantScratch::new();
                let (block, theta, way) = dispatch_at(
                    level,
                    CodesBlock {
                        src: x,
                        format,
                        multiplex: m,
                        scratch: &mut scratch,
                    },
                );
                let errors: Vec<u64> = scratch.errors.iter().map(|e| e.to_bits()).collect();
                let scale = block.params().scale.to_bits();
                (block.values().to_vec(), scale, theta.to_bits(), way, errors)
            });
            assert_eq!(scalar, detected, "codes, {case}");
        }
    }
}
