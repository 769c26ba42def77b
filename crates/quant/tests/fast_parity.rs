//! Bit-exactness parity suite: the fused/parallel quantization fast path
//! must produce *identical* results to the naive reference — same codes,
//! same params, same θ records, same selection ways, bitwise-equal
//! estimated errors — across formats, block sizes (including ragged tails
//! and empty tensors), estimators, candidate strategies, and worker
//! counts.
//!
//! Run under `--test-threads 1` and `--test-threads 4` in CI (mirroring
//! the PR 2 backend-parity suite); the pool-explicit `*_fast_on` /
//! `*_on`-style entry points additionally pin worker counts to 1 and 4
//! inside each test, so parity holds regardless of the ambient
//! `CQ_THREADS` / global pool configuration.

use cq_par::Pool;
use cq_quant::{
    CandidateStrategy, E2bqmQuantizer, E2bqmSelection, ErrorEstimator, IntFormat, LdqConfig,
    LdqTensor, QuantScheme, QuantScratch, TrainingQuantizer,
};
use cq_tensor::Tensor;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-100.0f32..100.0),
        (-0.01f32..0.01),
        (-1e4f32..1e4),
        Just(0.0f32),
    ]
}

/// The inputs on which a float-domain kernel could part from the integer
/// reference: NaN, ±0, subnormals, exact .5 ties, |x| ≥ 2²³ and ±∞.
/// Ties are half-integers: exact ties of the quotient whenever the block
/// scale is 1, which an anchor at ±127 gives INT8 and a ±∞ (degenerate
/// θ) gives every format. The two extremes are rare, so most blocks
/// still have a finite θ below them.
fn edge_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-100.0f32..100.0),
        (-0.01f32..0.01),
        Just(-0.0f32),
        Just(f32::NAN),
        (1u32..0x0080_0000, 0u32..2).prop_map(|(m, s)| f32::from_bits(m | s << 31)),
        (-127i32..127).prop_map(|k| k as f32 + 0.5),
        (0u32..2).prop_map(|s| if s == 0 { 127.0f32 } else { -127.0 }),
        // ±∞ one time in 256, |x| ≥ 2²³ three times; else a half-integer.
        (0u32..256, 8_388_608.0f32..3e38, 0u32..2).prop_map(|(r, big, s)| {
            let v = match r {
                0 => f32::INFINITY,
                1..=3 => big,
                _ => r as f32 - 127.5,
            };
            if s == 1 {
                -v
            } else {
                v
            }
        }),
    ]
}

/// Tensors from empty up to a few blocks' worth, so ragged tails, exact
/// multiples and sub-block tensors all appear; half of them mix in the
/// edge values.
fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    let finite = prop::collection::vec(finite_f32(), 0..max_len);
    let edge = prop::collection::vec(edge_f32(), 0..max_len);
    prop_oneof![finite, edge].prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("len matches")
    })
}

/// Gradient-shaped tensors, as max-pool and ReLU backward leave them:
/// 50–99% ±0 of both signs, about a quarter of the 1024-element chunks
/// entirely zero, and one tensor in eight all zero. A third of them draw
/// their nonzero elements from the edge values, so skipped zeros sit next
/// to NaN, ±∞ and subnormals, and a third from subnormals alone, where a
/// skipped nonzero would still move the error sums.
fn sparse_tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    let finite = prop::collection::vec(finite_f32(), 0..max_len);
    let edge = prop::collection::vec(edge_f32(), 0..max_len);
    let subnormal = (1u32..0x0080_0000, 0u32..2).prop_map(|(m, s)| f32::from_bits(m | s << 31));
    let tiny = prop::collection::vec(subnormal, 0..max_len);
    let values = prop_oneof![finite, edge, tiny];
    (values, 50u64..100, any::<u64>(), 0u32..8).prop_map(|(mut v, percent, seed, all_zero)| {
        // xorshift64: which elements become zero, and with which sign.
        let mut s = seed | 1;
        let mut draw = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let dead_chunks = draw() & draw();
        for (i, x) in v.iter_mut().enumerate() {
            let r = draw();
            let dead = (dead_chunks >> (i / 1024 % 64)) & 1 == 1;
            if all_zero == 0 || dead || r % 100 < percent {
                *x = if r >> 63 == 1 { -0.0 } else { 0.0 };
            }
        }
        let n = v.len();
        Tensor::from_vec(v, &[n]).expect("len matches")
    })
}

/// Selections compared field by field with the estimated errors as bit
/// patterns: NaN errors (any block holding a NaN) must match too.
fn same_selections(a: &[E2bqmSelection], b: &[E2bqmSelection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.selected == y.selected
                && x.way == y.way
                && x.errors.len() == y.errors.len()
                && x.errors
                    .iter()
                    .zip(&y.errors)
                    .all(|(e, f)| e.to_bits() == f.to_bits())
        })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn any_format() -> impl Strategy<Value = IntFormat> {
    prop_oneof![
        Just(IntFormat::Int4),
        Just(IntFormat::Int8),
        Just(IntFormat::Int12),
        Just(IntFormat::Int16),
    ]
}

const ESTIMATORS: [ErrorEstimator; 4] = [
    ErrorEstimator::Rectilinear,
    ErrorEstimator::Cosine,
    ErrorEstimator::MeanBias,
    ErrorEstimator::Mse,
];

const STRATEGIES: [CandidateStrategy; 3] = [
    CandidateStrategy::ClipSweep,
    CandidateStrategy::ShiftableFxp,
    CandidateStrategy::FormatSweep,
];

proptest! {
    /// LDQ: fused serial and pooled (1 and 4 workers) paths are
    /// structurally equal to naive — blocks, params, codes, θ records.
    #[test]
    fn ldq_fast_matches_naive(
        t in tensor_strategy(700),
        block in 1usize..300,
        fmt in any_format(),
    ) {
        let cfg = LdqConfig::new(block, fmt);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize(&t, cfg);
        prop_assert_eq!(&naive, &fast);
        for threads in [1usize, 4] {
            let pooled = LdqTensor::quantize_fast_on(&Pool::new(threads), &t, cfg);
            prop_assert_eq!(&naive, &pooled);
        }
        // θ records agree bit-for-bit with a direct recomputation of the
        // effective statistic on the raw block data.
        for (i, &theta) in naive.block_thetas().iter().enumerate() {
            let start = i * block;
            let end = (start + block).min(t.len());
            let raw = t.data()[start..end]
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            let expected = if raw.is_finite() && raw > 0.0 { raw } else { 0.0 };
            prop_assert_eq!(theta.to_bits(), expected.to_bits());
        }
    }

    /// E²BQM: fused evaluation reproduces the naive selections exactly —
    /// same winning way, bitwise-equal error vector, identical codes —
    /// for every estimator, candidate strategy and format on each tensor.
    #[test]
    fn e2bqm_fast_matches_naive(
        t in tensor_strategy(520),
        block in 1usize..260,
        ways in 1usize..6,
    ) {
        for strategy in STRATEGIES {
            for estimator in ESTIMATORS {
                for fmt in IntFormat::ALL {
                    let q = E2bqmQuantizer::new(ways, strategy, estimator, fmt);
                    let naive = q.quantize_blocks_naive(&t, block);
                    let fast = q.quantize_blocks(&t, block);
                    // Errors are compared bitwise, not approximately.
                    prop_assert!(same_selections(&naive, &fast), "{q:?}: {naive:?} != {fast:?}");
                    for threads in [1usize, 4] {
                        let pooled = q.quantize_blocks_fast_on(&Pool::new(threads), &t, block);
                        prop_assert!(same_selections(&naive, &pooled), "{q:?}, {threads} workers");
                    }
                }
            }
        }
    }

    /// Training quantizers: every preset's fast path (including the
    /// scratch-reusing `fake_quantize_into`) is bit-identical to naive.
    #[test]
    fn fake_quantize_fast_matches_naive(
        t in tensor_strategy(900),
        which in 0usize..7,
    ) {
        let q = match which {
            0 => TrainingQuantizer::fp32(),
            1 => TrainingQuantizer::zhu2019(),
            2 => TrainingQuantizer::zhu2019_hqt(),
            3 => TrainingQuantizer::zhang2020(),
            4 => TrainingQuantizer::zhang2020_hqt(),
            5 => TrainingQuantizer::zhong2020(),
            _ => TrainingQuantizer::ldq_only(96, IntFormat::Int8),
        };
        let naive = bits(q.fake_quantize_naive(&t).data());
        prop_assert_eq!(&naive, &bits(q.fake_quantize(&t).data()));

        // Scratch reuse across calls must not change results.
        let mut out = Vec::new();
        let mut scratch = QuantScratch::new();
        for _ in 0..2 {
            q.fake_quantize_into(&t, &mut out, &mut scratch);
            prop_assert_eq!(&naive, &bits(&out));
        }
    }

    /// Degenerate blocks (all-zero, and tensors shorter than one block)
    /// agree between the fast path and naive, including the recorded θ.
    #[test]
    fn degenerate_blocks_agree(len in 0usize..40, block in 1usize..70) {
        let t = Tensor::zeros(&[len]);
        let cfg = LdqConfig::new(block, IntFormat::Int8);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize(&t, cfg);
        prop_assert_eq!(&naive, &fast);
        prop_assert!(naive.block_thetas().iter().all(|&th| th == 0.0));
    }
}

proptest! {
    // 120 tensors × 48 quantizers × 2 schemes: 11,520 configurations.
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Zero skipping keeps the fast path bitwise equal to naive on sparse
    /// tensors — selections, estimated errors and fake-quantized values —
    /// for every estimator, candidate strategy and format, per block
    /// (HQT) and over the whole tensor (layer-wise, several chunks).
    #[test]
    fn sparse_tensors_match_naive(
        t in sparse_tensor_strategy(3300),
        block in 1usize..1100,
        ways in 1usize..6,
    ) {
        for strategy in STRATEGIES {
            for estimator in ESTIMATORS {
                for format in IntFormat::ALL {
                    let q = E2bqmQuantizer::new(ways, strategy, estimator, format);
                    let schemes = [
                        (block, QuantScheme::Hqt { block_size: block, format, multiplex: Some(q) }),
                        (t.len().max(1), QuantScheme::LayerWise { format, multiplex: Some(q) }),
                    ];
                    for (k, scheme) in schemes {
                        let naive = q.quantize_blocks_naive(&t, k);
                        let fast = q.quantize_blocks(&t, k);
                        prop_assert!(same_selections(&naive, &fast), "{scheme:?}");
                        let tq = TrainingQuantizer::new("sparse", scheme);
                        prop_assert_eq!(
                            bits(tq.fake_quantize_naive(&t).data()),
                            bits(tq.fake_quantize(&t).data()),
                            "{:?}",
                            scheme
                        );
                    }
                }
            }
        }
    }
}

/// [`TrainingQuantizer::fake_quantize_nonzeros`] over every block of `t`,
/// as a max-pool backward drives it: each block's nonzero elements in
/// ascending order and the block's length, the results scattered into a
/// +0 tensor.
fn quantize_from_nonzeros(q: &TrainingQuantizer, t: &Tensor, block: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; t.len()];
    let mut scratch = QuantScratch::new();
    let mut nonzeros = Vec::new();
    for (xb, ob) in t.data().chunks(block).zip(out.chunks_mut(block)) {
        nonzeros.clear();
        nonzeros.extend(xb.iter().copied().filter(|&v| v != 0.0));
        q.fake_quantize_nonzeros(&mut nonzeros, xb.len(), &mut scratch);
        let at = xb.iter().enumerate().filter(|(_, &v)| v != 0.0);
        for ((i, _), &v) in at.zip(&nonzeros) {
            ob[i] = v;
        }
    }
    out
}

proptest! {
    // 120 tensors × 13 quantizers.
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// An HQT block quantized from its nonzero elements and its length is
    /// bitwise the naive fake-quantization of the dense block, +0 at
    /// every ±0 included: for every estimator × candidate strategy pair
    /// and for LDQ alone, on gradient-shaped tensors with edge values,
    /// ragged final blocks and all-zero blocks.
    #[test]
    fn nonzeros_entry_matches_naive_dense_blocks(
        t in sparse_tensor_strategy(2600),
        block in 1usize..1100,
        ways in 1usize..6,
        format in any_format(),
    ) {
        let mut schemes = vec![None];
        for strategy in STRATEGIES {
            for estimator in ESTIMATORS {
                schemes.push(Some(E2bqmQuantizer::new(ways, strategy, estimator, format)));
            }
        }
        for multiplex in schemes {
            let scheme = QuantScheme::Hqt { block_size: block, format, multiplex };
            let q = TrainingQuantizer::new("nonzeros", scheme);
            prop_assert_eq!(
                bits(q.fake_quantize_naive(&t).data()),
                bits(&quantize_from_nonzeros(&q, &t, block)),
                "{:?}",
                scheme
            );
        }
    }
}

/// Non-finite contamination (NaN / ±∞) must take the same degenerate-θ
/// path on the fast path as on naive.
#[test]
fn non_finite_blocks_agree() {
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut data = vec![0.5f32; 10];
        data[3] = poison;
        let t = Tensor::from_vec(data, &[10]).unwrap();
        let cfg = LdqConfig::new(4, IntFormat::Int8);
        let naive = LdqTensor::quantize_naive(&t, cfg);
        let fast = LdqTensor::quantize(&t, cfg);
        assert_eq!(naive, fast, "poison {poison}");

        let q = E2bqmQuantizer::hardware_default();
        let sel_naive = q.quantize_blocks_naive(&t, 4);
        let sel_fast = q.quantize_blocks(&t, 4);
        // NaN estimated errors are legitimate here (poisoned inputs), so
        // `PartialEq` on the error vectors would reject even identical
        // results — compare bitwise instead.
        assert_eq!(sel_naive.len(), sel_fast.len(), "poison {poison}");
        for (i, (a, b)) in sel_naive.iter().zip(&sel_fast).enumerate() {
            assert_eq!(a.selected, b.selected, "poison {poison} block {i}");
            assert_eq!(a.way, b.way, "poison {poison} block {i}");
            let ea: Vec<u64> = a.errors.iter().map(|e| e.to_bits()).collect();
            let eb: Vec<u64> = b.errors.iter().map(|e| e.to_bits()).collect();
            assert_eq!(ea, eb, "poison {poison} block {i}");
        }
    }
}

/// Subnormal-magnitude blocks: θ (and hence every candidate scale) lands
/// in or near the f32 subnormal range, where the fused path's one-division
/// shortcut is *not* provably exact — its runtime power-of-two check must
/// reject the ladder and fall back to per-way division, keeping results
/// bit-identical to naive.
#[test]
fn subnormal_blocks_agree() {
    let data: Vec<f32> = (0..96)
        .map(|i| (i as f32 - 48.0) * 1.3e-40 + if i % 7 == 0 { 4.7e-41 } else { 0.0 })
        .collect();
    let t = Tensor::from_vec(data, &[96]).unwrap();

    let cfg = LdqConfig::new(24, IntFormat::Int8);
    assert_eq!(
        LdqTensor::quantize_naive(&t, cfg),
        LdqTensor::quantize(&t, cfg)
    );

    for strategy in STRATEGIES {
        for estimator in ESTIMATORS {
            let q = E2bqmQuantizer::new(4, strategy, estimator, IntFormat::Int8);
            let naive = q.quantize_blocks_naive(&t, 24);
            let fast = q.quantize_blocks(&t, 24);
            assert_eq!(naive, fast, "{strategy:?}/{estimator:?}");
            for (a, b) in naive.iter().zip(&fast) {
                for (ea, eb) in a.errors.iter().zip(&b.errors) {
                    assert_eq!(ea.to_bits(), eb.to_bits(), "{strategy:?}/{estimator:?}");
                }
            }
        }
    }
}

/// A tensor large enough to cross the parallel threshold must still match
/// naive exactly through the public entry points.
#[test]
fn large_tensor_crosses_parallel_threshold() {
    let n = (1 << 16) + 333; // > PAR_MIN_ELEMS, ragged tail
    let t = cq_tensor::init::long_tailed(&[n], 0.1, 0.01, 30.0, 17);
    let cfg = LdqConfig::new(1024, IntFormat::Int8);
    assert_eq!(
        LdqTensor::quantize_naive(&t, cfg),
        LdqTensor::quantize(&t, cfg)
    );
    let q = E2bqmQuantizer::hardware_default();
    assert_eq!(
        q.quantize_blocks_naive(&t, 1024),
        q.quantize_blocks(&t, 1024)
    );
    let tq = TrainingQuantizer::zhang2020_hqt();
    assert_eq!(
        tq.fake_quantize_naive(&t).data(),
        tq.fake_quantize(&t).data()
    );
}
