//! Fused single-pass quantization kernels — the quantization fast path.
//!
//! The reference (naive) implementations in [`crate::ldq`] and
//! [`crate::e2bqm`] mirror the paper's four-step procedure literally:
//! slice a block into a fresh tensor, scan it for θ, quantize it into a
//! fresh candidate, dequantize into another fresh tensor, estimate.
//! That costs N quantize→dequantize→estimate round trips per block for an
//! N-way multiplex and roughly 3N heap allocations — on the training hot
//! path, quantization dominates the step the way the paper's Fig. 3 says
//! it does on GPUs.
//!
//! This module provides the fused equivalents, built on one rule:
//! **fake-quantization never turns a value into an integer code.** The
//! reference computes `round((x − α)/β) as i64`, clamps, and converts the
//! code back to f32. Rust's saturating f32→i32 cast has no vector form on
//! the baseline x86-64 target, so any loop that contains it is
//! scalarized (`cvttss2si` per element). The kernels here round, clamp to
//! `[qmin, qmax]` and send NaN to 0 in f32 (`round_clamp`) and go
//! straight on to `r·β + α`; every step is an add, compare or select, and
//! the loops vectorize.
//!
//! * **LDQ**: θ and the fake-quantized values (or codes) are produced
//!   while the block is cache-resident — one read of the source slice,
//!   results written straight to the destination, no intermediate block
//!   tensors.
//! * **E²BQM shared statistics**: all N candidates are evaluated in one
//!   sweep over the block, chunk by chunk. Per way, a vectorized store
//!   pass writes the chunk's fake-quantized values into a small scratch
//!   row; a fold pass then feeds four ways' error accumulators side by
//!   side, element-major, so four dependency chains interleave instead of
//!   running one after another. The winner is re-emitted from the source
//!   data, so no candidate codes are ever stored.
//! * **Zero skipping**: a chunk that is at least half ±0 — as a gradient
//!   is behind max-pool and ReLU backward — is compacted to its nonzero
//!   elements before the store and fold passes. A zero element adds only
//!   a signed zero to each error sum, which changes no bit. A producer
//!   that already holds a block's nonzero elements hands over only those
//!   ([`crate::TrainingQuantizer::fake_quantize_nonzeros`]), and the
//!   block's zeros are never read.
//! * **Codes only for the winner**: where codes are the output (LDQ
//!   blocks, E²BQM selections, the integer-domain base codes), the
//!   clamped integral f32 is converted with the 1.5·2²³ magic-number add
//!   (`exact_i32`) — exact because every code has magnitude ≤ 2²².
//! * **Compiled per SIMD level**: every block kernel (LDQ and E²BQM,
//!   fake-quantized or to codes) and the integer-domain quantizer run
//!   through [`cq_par::dispatch`], which compiles them with AVX2 where
//!   the process's level is `Avx2`. The helpers they reach are
//!   `#[inline(always)]` so that they compile with them; every level
//!   computes the same bits.
//! * **[`QuantScratch`]**: an arena holding the candidate parameter set,
//!   the candidate rows and the accumulators, so steady-state calls
//!   allocate nothing.
//!
//! # Bit-identity contract
//!
//! Every kernel here reproduces the naive path's arithmetic *and
//! accumulation order* exactly: the float-domain code equals the
//! reference's integer code for every f32 input (NaN, ±∞ and values past
//! the clamp included), per-accumulator contributions arrive in
//! ascending element order, θ uses the same `f32::max` fold, candidate
//! generation the same [`QuantParams`] construction, and arbitration the
//! same first-minimum [`f64::total_cmp`] rule. Block-level parallelism is
//! safe because blocks are independent; *within* a block (or a layer-wise
//! tensor) evaluation stays sequential, which is why results are identical
//! for every thread count. The `fast_parity` proptest suite enforces this.

use crate::e2bqm::ErrorEstimator;
use crate::format::QuantParams;
use cq_par::Pool;

/// How large a tensor must be before block quantization fans out over the
/// worker pool. Below this the pool's spawn cost (~tens of µs per region)
/// exceeds the quantization work itself.
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// Minimum number of blocks handed to one pool worker.
pub const PAR_MIN_BLOCKS: usize = 4;

/// The pool a block quantization of `len` elements runs on: as wide as
/// the global pool from [`PAR_MIN_ELEMS`] elements on, one thread (the
/// caller's) below.
pub(crate) fn block_pool(len: usize) -> Pool {
    Pool::new(if len < PAR_MIN_ELEMS {
        1
    } else {
        Pool::global().threads()
    })
}

/// Runs `f` on each `block_size`-element block of `data` (the last may be
/// ragged) and returns the results in block order. The blocks go to
/// `pool` in contiguous chunks of at least [`PAR_MIN_BLOCKS`], each chunk
/// with a scratch of its own, so the results are the same for every
/// pool; a one-thread pool runs the one chunk inline.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub(crate) fn map_blocks<T: Send>(
    pool: &Pool,
    data: &[f32],
    block_size: usize,
    f: impl Fn(&[f32], &mut QuantScratch) -> T + Sync,
) -> Vec<T> {
    assert!(block_size > 0, "block size must be positive");
    let nblocks = data.len().div_ceil(block_size);
    let chunks = Pool::partition(nblocks, pool.threads(), PAR_MIN_BLOCKS);
    let per_chunk = pool.parallel_map(chunks.len(), |c| {
        let blocks = &chunks[c];
        let end = (blocks.end * block_size).min(data.len());
        let mut scratch = QuantScratch::new();
        data[blocks.start * block_size..end]
            .chunks(block_size)
            .map(|block| f(block, &mut scratch))
            .collect::<Vec<T>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Elements per store/fold round of [`eval_candidates_shared`]: one SQU
/// block, so an HQT block is a single chunk and the candidate rows
/// (`LANES × CHUNK` f32, 16 KB) stay in L1 however long a layer-wise
/// tensor is.
const CHUNK: usize = 1024;

/// Candidate ways whose error accumulators are folded side by side.
const LANES: usize = 4;

/// Percentage of a chunk's elements that must be ±0 before
/// [`eval_candidates_shared`] compacts it. Compacting every chunk broke
/// even at 30–40% zeros on one thread, the cheapest evaluation (two-way
/// ShiftableFxp) at the high end; half leaves a margin, and a dense
/// chunk pays only the vectorized zero count.
const ZERO_SKIP_PERCENT: usize = 50;

/// Reusable scratch arena for the fused quantization kernels.
///
/// Thread one instance through repeated quantization calls (e.g. per
/// training step) and the steady state performs zero heap allocations:
/// the candidate parameter set, the candidate rows, the error
/// accumulators and the error vector are all reused across calls.
///
/// # Examples
///
/// ```
/// use cq_quant::{QuantScratch, TrainingQuantizer};
/// use cq_tensor::init;
///
/// let q = TrainingQuantizer::zhong2020();
/// let x = init::long_tailed(&[2048], 0.1, 0.01, 20.0, 3);
/// let mut scratch = QuantScratch::default();
/// let mut out = Vec::new();
/// q.fake_quantize_into(&x, &mut out, &mut scratch);
/// assert_eq!(out.len(), 2048);
/// ```
#[derive(Debug, Default)]
pub struct QuantScratch {
    /// Candidate parameter set (ways entries), regenerated per block but
    /// never reallocated.
    pub(crate) params: Vec<QuantParams>,
    /// Fake-quantized values of the current chunk for the ways of the
    /// current lane group: row `l` is `rows[l * len..(l + 1) * len]`.
    pub(crate) rows: Vec<f32>,
    /// Shared quotients `x[i] / scale₀` of the current chunk when the
    /// candidate set admits the one-division path (see
    /// [`pow2_multiplier`]).
    pub(crate) ybuf: Vec<f32>,
    /// Per-way power-of-two multipliers for the one-division path.
    pub(crate) mults: Vec<f32>,
    /// The current chunk's nonzero elements, in order, when the chunk is
    /// zero-skipped (see [`eval_candidates_shared`]).
    pub(crate) nonzeros: Vec<f32>,
    /// Per-candidate error accumulators.
    pub(crate) acc: Vec<EstAcc>,
    /// Per-candidate estimated errors (the `E2bqmSelection::errors` data).
    pub(crate) errors: Vec<f64>,
}

impl QuantScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

/// One candidate's error accumulator. Which fields are live depends on the
/// estimator; all updates happen in ascending element order so the f32/f64
/// sums are bitwise equal to the naive path's iterator folds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EstAcc {
    /// Rectilinear: Σ|x−x'|. Cosine: Σ x·x'. MeanBias: Σ x'.
    a32: f32,
    /// Cosine: Σ x'².
    b32: f32,
    /// Mse: Σ (x−x')² in f64.
    a64: f64,
}

/// θ = max|x|, bit-identical to [`cq_tensor::Tensor::max_abs`]'s
/// sequential fold (`f32::max` ignores NaN, empty slices give 0.0).
///
/// Computed with eight lane accumulators so the reduction vectorizes —
/// the sequential fold is a 4-cycle-latency dependency chain that caps
/// the naive path. Reassociating is sound here (unlike the error-sum
/// folds, which must stay sequential): after `abs` every operand is
/// non-negative or NaN, `f32::max` drops NaN in favor of the other
/// operand, and the accumulators start at the fold's own 0.0 identity —
/// so any association yields the same value, the largest non-NaN operand
/// (or 0.0).
#[inline]
pub fn block_theta(x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = x.chunks_exact(8);
    for c in chunks.by_ref() {
        for (m, &v) in lanes.iter_mut().zip(c) {
            *m = m.max(v.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    lanes.iter().fold(tail, |m, &v| m.max(v))
}

/// The θ the quantizer actually uses: degenerate statistics (zero,
/// negative, or non-finite) clamp to 0.0, matching
/// [`QuantParams::symmetric`]'s sentinel handling.
#[inline]
pub fn effective_theta(theta: f32) -> f32 {
    if theta.is_finite() && theta > 0.0 {
        theta
    } else {
        0.0
    }
}

/// 2²³ — above this every f32 magnitude is already integral.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// Round-half-away-from-zero of a magnitude `a ≥ 0`, exact for `a < 2²³`
/// and never below 2²³ for larger `a` (∞ included). Magic-number
/// round-to-nearest-even, then exact .5 ties pushed away from zero with a
/// select: all adds/compares/selects, which LLVM vectorizes.
///
/// `f32::round` lowers to `llvm.round.f32`, which the x86-64 baseline
/// expands to a scalar sequence the auto-vectorizer refuses to touch.
#[inline]
fn round_magnitude(a: f32) -> f32 {
    let t = (a + ROUND_MAGIC) - ROUND_MAGIC;
    if a - t == 0.5 {
        t + 1.0
    } else {
        t
    }
}

/// Round-half-away-from-zero built on [`round_magnitude`], bit-identical
/// to [`f32::round`] over the entire f32 bit space (verified exhaustively
/// — all 2³² patterns — when the kernel was written;
/// `round_matches_std_round` keeps a stratified sample of that check).
/// The kernels call [`round_clamp`], which skips the `a < 2²³`
/// pass-through because its clamp pins those values anyway.
#[cfg(test)]
pub(crate) fn fast_round(y: f32) -> f32 {
    let a = y.abs();
    let r = if a < ROUND_MAGIC {
        round_magnitude(a)
    } else {
        a
    };
    r.copysign(y)
}

/// `round(y)` clamped to `[−bound, bound]`, as the integral f32 of the
/// code the reference's `(round(y) as i64).clamp(−bound, bound)`
/// produces, for every f32 `y` and integral `0 ≤ bound ≤ 2²²`: values
/// past either bound (±∞ included) clamp to it, NaN becomes 0 as the
/// saturating cast makes it, and a −0 from rounding a small negative value
/// becomes the +0 that code 0 converts to (`+ 0.0` changes no other
/// value).
///
/// Verified exhaustively — all 2³² patterns, with `exact_i32` on top, for
/// every format's `qmax` and the integer-domain bounds 1016 and 16256 —
/// when it was written; the `quantize_one` and `base_code` unit tests
/// keep stratified samples. The magnitude is rounded and clamped before
/// the sign is restored, so every step is an f32 add, compare or select
/// and the callers' loops vectorize — unlike an integer cast (module
/// docs).
#[inline]
pub(crate) fn round_clamp(y: f32, bound: f32) -> f32 {
    let m = round_magnitude(y.abs());
    let r = if m > bound { bound } else { m }.copysign(y);
    if y.is_nan() {
        0.0
    } else {
        r + 0.0
    }
}

/// 1.5·2²³: adding it to an integral f32 `r` with `|r| ≤ 2²²` lands in
/// `[2²³, 2²⁴]`, where the ulp is 1, so the sum is exact and its bit
/// pattern is `CODE_MAGIC`'s plus `r`.
const CODE_MAGIC: f32 = 12_582_912.0;

/// The exact i32 of an integral f32 with magnitude ≤ 2²² (every code of
/// every format, and every integer-domain base code, qualifies) — a
/// vectorizable replacement for the saturating `as i32` cast.
#[inline]
pub(crate) fn exact_i32(r: f32) -> i32 {
    (r + CODE_MAGIC).to_bits() as i32 - CODE_MAGIC.to_bits() as i32
}

/// `qmax` of `p`'s (symmetric) format as the [`round_clamp`] bound.
#[inline]
fn code_bound(p: QuantParams) -> f32 {
    p.format.qmax() as f32
}

/// Bit-identical, vectorizable equivalent of [`QuantParams::quantize`]:
/// same subtraction/division, the float-domain [`round_clamp`], then the
/// exact [`exact_i32`] conversion.
#[inline]
fn quantize_one(p: QuantParams, bound: f32, v: f32) -> i32 {
    exact_i32(round_clamp((v - p.offset) / p.scale, bound))
}

/// `p.dequantize(p.quantize(v))` computed in f32 without the integer
/// round trip, bitwise equal for every f32 `v`: [`round_clamp`] yields
/// exactly `code as f32`, so `r·scale + offset` is the reference's
/// dequantization.
#[inline]
fn fake_quantize_one(p: QuantParams, bound: f32, v: f32) -> f32 {
    round_clamp((v - p.offset) / p.scale, bound) * p.scale + p.offset
}

/// Returns the multiplier `m` such that `v / scale_w == (v / scale0) * m`
/// **bitwise for every input `v`**, or `None` when no such multiplier is
/// provable.
///
/// The proof obligation is `scale_w * 2^k == scale0` exactly, checked at
/// runtime: `m = scale0 / scale_w` must be a finite power of two ≥ 1
/// (zero mantissa bits) that multiplies back bitwise. When it holds,
/// `fl(v / scale_w) = fl(v·2^k / scale0) = fl(v / scale0)·2^k` because
/// scaling by 2^k maps representable values to representable values and
/// scales every rounding boundary exactly (k ≥ 0 moves *away* from the
/// subnormal range, so gradual underflow cannot break the commutation).
/// The one place the shortcut can produce different bits — a subnormal
/// quotient `v/scale0` losing low bits before the scale-up — only yields
/// values below 2⁻¹⁰⁰, which round to ±0 either way, so the *codes* —
/// and the fake-quantized values, which depend on nothing else — are
/// still identical. Degenerate or
/// subnormal scales simply fail the check and take the per-way division
/// path.
///
/// This predicate is the **bitwise acceptance condition** shared by every
/// power-of-two shortcut in the workspace: the shared-quotient E²BQM path
/// here, and the [`crate::intdomain`] ladder guard (whose exact-rescale
/// proof leans on the same commutation argument). Its edge behavior —
/// subnormal operands, ratios at the f32 exponent boundaries, overflowing
/// ratios — is pinned by the `pow2_guard` proptest suite.
#[inline]
pub fn pow2_multiplier(scale0: f32, scale_w: f32) -> Option<f32> {
    let m = scale0 / scale_w;
    let pow2 = m.to_bits() & 0x007f_ffff == 0;
    if m.is_finite() && m >= 1.0 && pow2 && scale_w * m == scale0 {
        Some(m)
    } else {
        None
    }
}

/// Fused LDQ block kernel: quantizes `x` with `params`, appending the
/// codes to `codes`. Always inlined, like the E²BQM passes, so that it
/// compiles for the SIMD level of the [`cq_par::SimdKernel`] calling it.
#[inline(always)]
pub(crate) fn quantize_codes_into(x: &[f32], params: QuantParams, codes: &mut Vec<i32>) {
    let bound = code_bound(params);
    // Resize + slice write (not `extend`): the per-push capacity check
    // inside `extend` keeps LLVM from vectorizing the quantize loop.
    let start = codes.len();
    codes.resize(start + x.len(), 0);
    for (c, &v) in codes[start..].iter_mut().zip(x) {
        *c = quantize_one(params, bound, v);
    }
}

/// Fused fake-quantize kernel: writes `dequantize(quantize(x))` for one
/// block straight into `out`, without forming integer codes.
#[inline]
pub(crate) fn fake_quantize_block(x: &[f32], params: QuantParams, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let bound = code_bound(params);
    for (o, &v) in out.iter_mut().zip(x) {
        *o = fake_quantize_one(params, bound, v);
    }
}

/// Fused in-place fake-quantize: replaces each element of `x` with
/// `dequantize(quantize(x))` under `params`.
#[inline]
pub(crate) fn fake_quantize_in_place(x: &mut [f32], params: QuantParams) {
    let bound = code_bound(params);
    for v in x {
        *v = fake_quantize_one(params, bound, *v);
    }
}

/// Shared-statistics E²BQM evaluation: one sweep over `x` computes every
/// candidate's estimated error (into `scratch.errors`) for a block of `n`
/// elements and returns the winning way. Callers re-emit the winner from
/// `x` with [`fake_quantize_block`], [`fake_quantize_in_place`] or
/// [`quantize_codes_into`] and `scratch.params[way]`.
///
/// `x` is the whole block (`x.len() == n`), or only its nonzero elements
/// in ascending order (`x.len() < n`), the other `n − x.len()` elements
/// being ±0. The second form rests on the zero-skipping argument below
/// without its gate, so it needs every candidate to map ±0 to a zero,
/// which every symmetric candidate does.
///
/// `scratch.params` must already hold the candidate set (see
/// [`crate::E2bqmQuantizer::candidate_params_into`]).
///
/// The per-candidate accumulators receive contributions in ascending
/// element order — the same order as the naive path's per-candidate
/// passes — so the estimated errors are bitwise identical to N separate
/// quantize→dequantize→estimate round trips. Arbitration uses the same
/// first-minimum `total_cmp` rule (NaN errors rank last).
///
/// **Zero skipping.** When every candidate fake-quantizes +0 and −0 to a
/// zero, a chunk that is at least [`ZERO_SKIP_PERCENT`]% ±0 is compacted
/// to its nonzero elements (in ascending order) and only those are
/// stored and folded. The sums are unchanged bit for bit: a zero element
/// contributes `|±0 − ±0|`, `±0·±0`, `±0` or `(±0)²` — a signed zero — to
/// every accumulator, and `s + ±0 == s` bitwise for every `s` except −0.
/// The Rectilinear, MeanBias and MSE sums start at +0.0 and only ever
/// add non-negative terms or zeros; the Cosine dot product can take
/// negative terms, but under round-to-nearest a sum is −0 only when both
/// addends are, so from +0.0 it never reaches −0 either. NaN and the
/// infinities are not zero and are never skipped. The `n` in every mean
/// still counts all elements, and the statistic over `x` is unchanged by
/// its zeros for the same reason as the sums: `Σ v²` and `Σ v` start at
/// +0.0 too.
///
/// Always inlined, so that a [`cq_par::SimdKernel`] that calls it
/// compiles its passes for the kernel's SIMD level.
#[inline(always)]
pub(crate) fn eval_candidates_shared(
    x: &[f32],
    n: usize,
    estimator: ErrorEstimator,
    scratch: &mut QuantScratch,
) -> usize {
    debug_assert!(x.len() <= n, "{} elements for a block of {n}", x.len());

    // Statistic over the original data, shared by all candidates. The
    // naive path recomputes it per candidate (`x.norm()`, `x.mean()`);
    // one fold over the same elements in the same order gives the same
    // bits, so computing it once is free of divergence.
    let xstat = match estimator {
        ErrorEstimator::Cosine => x.iter().fold(0.0f32, |s, &v| s + v * v),
        ErrorEstimator::MeanBias => x.iter().fold(0.0f32, |s, &v| s + v),
        _ => 0.0,
    };

    // One-division detection: a symmetric candidate ladder (all offsets
    // zero, every scale an exact power-of-two divisor of candidate 0's —
    // which is what `ClipSweep` produces by construction) lets a single
    // `x[i] / scale₀` quotient serve all N ways via an exact multiply.
    // Division is the longest-latency op in the store pass, so this turns
    // the N-way evaluation's N divisions per element into one. The check
    // is bitwise at runtime (see [`pow2_multiplier`]); ladders that don't
    // qualify (ShiftableFxp's fractional exponents, FormatSweep, manual
    // parameter sets) keep the per-way division below, so the shortcut is
    // provably code-identical wherever it is taken.
    let shared = {
        let params = &scratch.params;
        let mults = &mut scratch.mults;
        mults.clear();
        match params.first() {
            Some(p0) if params.iter().all(|p| p.offset == 0.0) => {
                params
                    .iter()
                    .all(|p| match pow2_multiplier(p0.scale, p.scale) {
                        Some(m) => {
                            mults.push(m);
                            true
                        }
                        None => false,
                    })
            }
            _ => false,
        }
    };

    // Ways are evaluated in groups of `LANES`, each group in one sweep
    // over the block, chunk by chunk. Per way, a store pass writes the
    // chunk's fake-quantized values into its row (no loop-carried
    // dependency, so the divide/round/clamp work vectorizes); then the
    // fold feeds the group's accumulators element by element, side by
    // side. Each accumulator still takes its contributions in ascending
    // element order, so the sums are bitwise equal to the naive
    // per-candidate quantize → dequantize → estimate round trips; the
    // four chains just overlap. A short last group leaves its spare rows
    // unwritten and drops their sums.
    scratch.acc.clear();
    let QuantScratch {
        params,
        rows,
        ybuf,
        mults,
        nonzeros,
        acc,
        ..
    } = scratch;
    // Every candidate maps ±0 to a zero when all offsets are zero and all
    // scales finite: `±0 / β` is ±0 (NaN for β = 0), `round_clamp` turns
    // either into +0, and `+0·β + 0` is a zero for every finite β.
    let zeros_vanish = params
        .iter()
        .all(|p| p.offset == 0.0 && p.scale.is_finite());
    debug_assert!(x.len() == n || zeros_vanish, "a candidate keeps ±0 nonzero");
    // Only a whole block can hold zeros worth counting.
    let compact = zeros_vanish && x.len() == n;
    let chunk = x.len().min(CHUNK);
    rows.resize(LANES * chunk, 0.0);
    if shared {
        ybuf.resize(chunk, 0.0);
    }
    for (g, group) in params.chunks(LANES).enumerate() {
        let mut lanes = [EstAcc::default(); LANES];
        let shared = shared.then(|| (params[0].scale, &mults[g * LANES..][..group.len()]));
        for xc in x.chunks(CHUNK) {
            let xc = if compact {
                skip_zeros(xc, nonzeros)
            } else {
                xc
            };
            if !xc.is_empty() {
                eval_chunk(estimator, &mut lanes, xc, group, shared, ybuf, rows);
            }
        }
        acc.extend_from_slice(&lanes[..group.len()]);
    }

    scratch.errors.clear();
    for a in &scratch.acc {
        let err = match estimator {
            ErrorEstimator::Rectilinear => a.a32 as f64,
            ErrorEstimator::Cosine => {
                // Replicates Tensor::cosine_similarity including its
                // zero-norm special cases.
                let na = xstat.sqrt();
                let nb = a.b32.sqrt();
                let cos = if na == 0.0 && nb == 0.0 {
                    1.0
                } else if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    a.a32 / (na * nb)
                };
                1.0 - cos as f64
            }
            ErrorEstimator::MeanBias => {
                // Replicates Tensor::mean (0.0 for empty tensors).
                let mx = if n == 0 { 0.0 } else { xstat / n as f32 };
                let md = if n == 0 { 0.0 } else { a.a32 / n as f32 };
                (mx as f64 - md as f64).abs()
            }
            ErrorEstimator::Mse => a.a64 / n.max(1) as f64,
        };
        scratch.errors.push(err);
    }

    scratch
        .errors
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Stores chunk `x`'s fake-quantized values for each way of `group` into
/// a row of `rows`, then folds the rows into `lanes`. `shared` carries
/// candidate 0's scale and the group's multipliers when the one-division
/// path applies.
///
/// A function of its own on purpose: written inline in the chunk loop,
/// where `x` may be the compacted copy, dense 256-element blocks
/// evaluated 20% or more slower. Always inlined, as
/// [`eval_candidates_shared`] is, so that it compiles for the SIMD level
/// of the kernel that calls it.
#[inline(always)]
fn eval_chunk(
    estimator: ErrorEstimator,
    lanes: &mut [EstAcc; LANES],
    x: &[f32],
    group: &[QuantParams],
    shared: Option<(f32, &[f32])>,
    ybuf: &mut [f32],
    rows: &mut [f32],
) {
    let len = x.len();
    if let Some((s0, _)) = shared {
        for (y, &v) in ybuf.iter_mut().zip(x) {
            *y = v / s0;
        }
    }
    for (l, (row, &p)) in rows.chunks_exact_mut(len).zip(group).enumerate() {
        let bound = code_bound(p);
        if let Some((_, mults)) = shared {
            let m = mults[l];
            for (d, &y) in row.iter_mut().zip(&ybuf[..len]) {
                *d = round_clamp(y * m, bound) * p.scale + p.offset;
            }
        } else {
            for (d, &v) in row.iter_mut().zip(x) {
                *d = fake_quantize_one(p, bound, v);
            }
        }
    }
    fold_rows(estimator, lanes, x, &rows[..LANES * len]);
}

/// The elements of chunk `x` that [`eval_candidates_shared`] stores and
/// folds: `x` itself, or — when at least [`ZERO_SKIP_PERCENT`]% of it is
/// ±0 — its nonzero elements in ascending order, compacted into
/// `nonzeros`.
#[inline(always)]
fn skip_zeros<'a>(x: &'a [f32], nonzeros: &'a mut Vec<f32>) -> &'a [f32] {
    // A compare and an add per element: this count vectorizes, so dense
    // chunks pay little for the check.
    let zeros = x.iter().map(|&v| u32::from(v == 0.0)).sum::<u32>() as usize;
    if zeros * 100 < x.len() * ZERO_SKIP_PERCENT {
        return x;
    }
    if nonzeros.len() < x.len() {
        nonzeros.resize(x.len(), 0.0);
    }
    // Branch-free compaction: every element is written, and the cursor
    // moves past the nonzero ones only. A branch would mispredict on
    // scattered zeros.
    let mut k = 0;
    for &v in x {
        nonzeros[k] = v;
        k += usize::from(v != 0.0);
    }
    &nonzeros[..k]
}

/// Adds one chunk's error terms to the lane accumulators: `rows` holds
/// `LANES` rows of `x.len()` fake-quantized values, and lane `l` takes
/// the estimator's term for `(x[j], rows[l][j])` for each `j` in turn.
#[inline(always)]
fn fold_rows(estimator: ErrorEstimator, lanes: &mut [EstAcc; LANES], x: &[f32], rows: &[f32]) {
    let len = x.len();
    let rows: [&[f32]; LANES] = std::array::from_fn(|l| &rows[l * len..][..len]);
    match estimator {
        ErrorEstimator::Rectilinear => {
            for (j, &v) in x.iter().enumerate() {
                for (a, r) in lanes.iter_mut().zip(&rows) {
                    a.a32 += (v - r[j]).abs();
                }
            }
        }
        ErrorEstimator::Cosine => {
            for (j, &v) in x.iter().enumerate() {
                for (a, r) in lanes.iter_mut().zip(&rows) {
                    let d = r[j];
                    a.a32 += v * d;
                    a.b32 += d * d;
                }
            }
        }
        ErrorEstimator::MeanBias => {
            for j in 0..len {
                for (a, r) in lanes.iter_mut().zip(&rows) {
                    a.a32 += r[j];
                }
            }
        }
        ErrorEstimator::Mse => {
            for (j, &v) in x.iter().enumerate() {
                for (a, r) in lanes.iter_mut().zip(&rows) {
                    let e = (v - r[j]) as f64;
                    a.a64 += e * e;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2bqm::{CandidateStrategy, E2bqmQuantizer};
    use crate::format::IntFormat;
    use cq_tensor::Tensor;

    #[test]
    fn block_theta_matches_tensor_max_abs() {
        let data = vec![0.5f32, -3.0, 2.9, 0.0, f32::NAN];
        let t = Tensor::from_vec(data.clone(), &[5]).unwrap();
        assert_eq!(block_theta(&data), t.max_abs());
        assert_eq!(block_theta(&[]), 0.0);
    }

    #[test]
    fn round_matches_std_round() {
        // Stratified sample of the exhaustive (all 2³²) verification run
        // when the kernel was written: every 2¹⁰th bit pattern plus the
        // known-treacherous neighborhoods of .5 ties and the 2²³ integral
        // boundary.
        let check = |y: f32| {
            let (a, b) = (y.round(), fast_round(y));
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "fast_round({y:e}) = {b:e}, f32::round = {a:e}"
            );
        };
        for step in 0..(1u64 << 22) {
            check(f32::from_bits((step << 10) as u32));
        }
        for base in [0.5f32, 1.5, 2.5, 0.499_999_97, 8_388_607.5, ROUND_MAGIC] {
            for delta in [-1, 0, 1i32] {
                let v = f32::from_bits(base.to_bits().wrapping_add_signed(delta));
                check(v);
                check(-v);
            }
        }
        for special in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            check(special);
        }
    }

    #[test]
    fn quantize_one_matches_quant_params() {
        // Every 2¹⁶th bit pattern: NaNs, ±∞, ±0, subnormals and values
        // far past the clamp all appear. Codes must match the reference
        // exactly, fake-quantized values bit for bit.
        for p in [
            QuantParams::symmetric(1.0, IntFormat::Int8),
            QuantParams::symmetric(37.5, IntFormat::Int4),
            QuantParams::symmetric(1e-30, IntFormat::Int16),
            QuantParams::symmetric(3e30, IntFormat::Int12),
            QuantParams {
                scale: 0.75,
                offset: -0.0,
                format: IntFormat::Int8,
            },
        ] {
            let bound = code_bound(p);
            for step in 0..(1u64 << 16) {
                let v = f32::from_bits((step << 16) as u32);
                assert_eq!(quantize_one(p, bound, v), p.quantize(v), "v={v:e} p={p:?}");
                assert_eq!(
                    fake_quantize_one(p, bound, v).to_bits(),
                    p.dequantize(p.quantize(v)).to_bits(),
                    "v={v:e} p={p:?}"
                );
            }
        }
    }

    #[test]
    fn exact_i32_converts_every_code() {
        for r in -(1i32 << 22)..=(1 << 22) {
            assert_eq!(exact_i32(r as f32), r);
        }
        assert_eq!(exact_i32(-0.0), 0);
    }

    #[test]
    fn effective_theta_clamps_degenerates() {
        assert_eq!(effective_theta(2.5), 2.5);
        assert_eq!(effective_theta(0.0), 0.0);
        assert_eq!(effective_theta(-1.0), 0.0);
        assert_eq!(effective_theta(f32::NAN), 0.0);
        assert_eq!(effective_theta(f32::INFINITY), 0.0);
    }

    #[test]
    fn shared_eval_matches_naive_selection() {
        // Spot-check on one block; the proptest parity suite covers the
        // full cross product of estimators/strategies/shapes.
        let q = E2bqmQuantizer::hardware_default();
        let data: Vec<f32> = (0..257)
            .map(|i| ((i * 37) % 101) as f32 * 0.01 - 0.5)
            .collect();
        let t = Tensor::from_vec(data.clone(), &[257]).unwrap();
        let naive = q.quantize(&t);

        let mut scratch = QuantScratch::new();
        let theta = block_theta(&data);
        q.candidate_params_into(theta, &mut scratch.params);
        let way = eval_candidates_shared(&data, data.len(), q.estimator(), &mut scratch);
        assert_eq!(way, naive.way);
        assert_eq!(scratch.errors, naive.errors);
        let mut codes = Vec::new();
        quantize_codes_into(&data, scratch.params[way], &mut codes);
        assert_eq!(codes, naive.selected.values());
    }

    #[test]
    fn nonzeros_eval_matches_the_dense_block_errors() {
        // Blocks of 1–1100 elements, 50–100% ±0 of both signs, the rest
        // ordinary, tied, subnormal, NaN or ±∞: the nonzeros with the
        // block's length give the dense block's way and errors bitwise.
        // The errors, unlike the emitted values, see a wrong `n`.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..240 {
            let n = 1 + (draw() % 1100) as usize;
            let zero_percent = 50 + draw() % 51;
            let block: Vec<f32> = (0..n)
                .map(|_| {
                    let r = draw();
                    if r % 100 < zero_percent {
                        return if r >> 63 == 1 { -0.0 } else { 0.0 };
                    }
                    match (r >> 8) % 8 {
                        0 => f32::from_bits((r >> 16) as u32 & 0x807f_ffff | 1),
                        1 => (r >> 16) as i8 as f32 + 0.5,
                        2 if r % 97 == 0 => f32::NAN,
                        3 if r % 89 == 0 => f32::INFINITY,
                        _ => ((r >> 16) as i16 as f32) * 1e-3,
                    }
                })
                .collect();
            let nonzeros: Vec<f32> = block.iter().copied().filter(|&v| v != 0.0).collect();
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
                    let q = E2bqmQuantizer::new(4, strategy, estimator, IntFormat::Int8);
                    let mut dense = QuantScratch::new();
                    let mut sparse = QuantScratch::new();
                    q.candidate_params_into(block_theta(&block), &mut dense.params);
                    q.candidate_params_into(block_theta(&nonzeros), &mut sparse.params);
                    assert_eq!(dense.params, sparse.params, "case {case}");
                    let way = eval_candidates_shared(&block, n, estimator, &mut dense);
                    let way_nz = eval_candidates_shared(&nonzeros, n, estimator, &mut sparse);
                    let bits = |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(way, way_nz, "case {case}, {strategy:?}/{estimator:?}");
                    assert_eq!(
                        bits(&dense.errors),
                        bits(&sparse.errors),
                        "case {case}, {strategy:?}/{estimator:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_are_reused_not_reallocated() {
        let q = E2bqmQuantizer::hardware_default();
        // Three quarters ±0, so every chunk is compacted into `nonzeros`.
        let data: Vec<f32> = (0..2048)
            .map(|i| match i % 4 {
                0 => 0.25,
                1 => -0.0,
                _ => 0.0,
            })
            .collect();
        let mut scratch = QuantScratch::new();
        q.candidate_params_into(1.0, &mut scratch.params);
        let _ = eval_candidates_shared(&data, data.len(), q.estimator(), &mut scratch);
        let (p0, r0, z0) = (
            scratch.params.as_ptr(),
            scratch.rows.as_ptr(),
            scratch.nonzeros.as_ptr(),
        );
        assert_eq!(scratch.nonzeros.len(), CHUNK, "chunks were not compacted");
        for _ in 0..4 {
            q.candidate_params_into(0.7, &mut scratch.params);
            let _ = eval_candidates_shared(&data, data.len(), q.estimator(), &mut scratch);
        }
        assert_eq!(scratch.params.as_ptr(), p0, "params buffer reallocated");
        assert_eq!(scratch.rows.as_ptr(), r0, "candidate rows reallocated");
        assert_eq!(scratch.nonzeros.as_ptr(), z0, "nonzeros buffer reallocated");
    }
}
