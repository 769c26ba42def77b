//! Integer-domain LDQ/E²BQM — the dequantization-free quantizer strategy.
//!
//! The classic E²BQM path ([`crate::e2bqm`]) evaluates every candidate in
//! the *float* domain: each way re-divides the data by its own scale and
//! each error fold multiplies codes back to f32. That is the right oracle
//! for bit-parity with the paper's procedure, but it pays one f32
//! divide/multiply pair per element per way — and its output still has to
//! be dequantized before the f32 GEMM consumes it.
//!
//! This module is the *different algorithm* the integer compute path runs
//! on (DQT-style nested integer arithmetic):
//!
//! 1. **One base quantization.** The block statistic θ fixes the finest
//!    ladder scale `s_base = θ / (qmax · 2^(W−1))`; each element is
//!    quantized **once** as `y = round(x / s_base)` (the only f32 loop).
//! 2. **Shift-derived candidates.** Candidate `i ∈ 0..W` uses scale
//!    `s_i = s_base · 2^(W−1−i)` — exactly the
//!    [`crate::CandidateStrategy::ClipSweep`] ladder `θ/2^i` re-anchored
//!    at the fine end. Its codes are obtained from `y` by an integer
//!    shift with round-half-away-from-zero:
//!    `c = sign(y) · ((|y| + 2^(t−1)) >> t)` clamped to `[qmin, qmax]`,
//!    where `t = W−1−i`. No division, no multiplication.
//! 3. **Integer error folds.** Each candidate's rectilinear error is
//!    accumulated as `Σ |y − c·2^t|` on an i64 — an exact integer measure
//!    of `Σ |x' − x'_i|` in units of `s_base`. Arbitration is the same
//!    first-minimum rule as the Arbiter (i64 compare is total, no NaN
//!    ranks to worry about).
//! 4. **Single exact rescale.** The winner's codes are emitted as `i8`
//!    together with `s_sel = s_base · 2^t` — an *exact* f32 multiply,
//!    guarded at runtime by the same power-of-two predicate
//!    ([`crate::fast::pow2_multiplier`]) the shared-quotient shortcut
//!    uses. Downstream, the i8×i8→i32 GEMM (`cq_par::gemm` on `i8`)
//!    consumes the codes directly and the product is rescaled **once** at
//!    the output by `s_x · s_w`.
//!
//! # Shift-rounding error model
//!
//! The algorithm double-rounds (once into base codes, once per shift), so
//! its codes are *not* bit-identical to the float-domain reference. The
//! documented bounds — enforced by the `intdomain_bounds` proptest suite —
//! are:
//!
//! * **Reconstruction.** For every element, with `s = s_sel` the selected
//!   scale: `|x − c·s| ≤ (s_base + s)/2 + max(0, |x| − qmax·s)` (half a
//!   base step from the base rounding, half a selected step from the
//!   shift rounding, plus the unavoidable clipping loss), up to f32
//!   division rounding of `x / s_base` (a relative `ε` term).
//! * **Deviation from the f32 reference.** For any fixed way, the shifted
//!   code differs from direct quantization at the same scale
//!   (`QuantParams::with_scale(s_i, fmt).quantize(x)`) by **at most one
//!   code unit** — the classic double-rounding bound. Way *selection* may
//!   legitimately differ from float-domain E²BQM (the error measures live
//!   in different domains); what is guaranteed is that the selected way
//!   minimizes the integer-domain fold.
//!
//! # Fallback contract
//!
//! [`IntDomainQuantizer::quantize_into`] returns `None` — and the caller
//! must take its full-precision path — whenever the ladder guard fails:
//! θ degenerate (zero/NaN/∞ quantizes losslessly to zero codes and is
//! *not* a fallback), `s_base` non-normal (subnormal scales void the
//! exact-rescale proof), or the top-of-ladder product failing
//! [`crate::fast::pow2_multiplier`]'s bitwise acceptance condition.

use crate::fast;
use crate::format::IntFormat;
use cq_par::SimdKernel;

/// Upper bound on ladder ways: shifts stay tiny and the widest base code
/// `qmax · 2^(W−1)` stays far inside i32.
pub const MAX_WAYS: usize = 8;

/// Reusable scratch for [`IntDomainQuantizer`]: the base-code buffer, the
/// per-way integer error folds, and the fake-quantize code buffer. Thread
/// one instance through repeated calls and the steady state allocates
/// nothing.
#[derive(Debug, Default)]
pub struct IntDomainScratch {
    /// Base codes `y = round(x / s_base)` at the finest ladder scale.
    ybuf: Vec<i32>,
    /// Per-way integer error folds `Σ |y − c·2^t|`.
    errors: Vec<i64>,
    /// Code buffer owned by [`IntDomainQuantizer::fake_quantize_into`].
    fq_codes: Vec<i8>,
}

impl IntDomainScratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        IntDomainScratch::default()
    }

    /// The integer-domain error fold of each candidate way from the most
    /// recent quantization (units of `s_base`; lower is better).
    pub fn errors(&self) -> &[i64] {
        &self.errors
    }
}

/// Outcome of an integer-domain quantization: which ladder way won and
/// the exact power-of-two scale its codes carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntSelection {
    /// Index of the winning candidate (0 = widest clip, W−1 = finest).
    pub way: usize,
    /// The selected scale `s_base · 2^(W−1−way)`; `codes[i] as f32 *
    /// scale` reconstructs the value the integer datapath computes with.
    pub scale: f32,
    /// The base (finest-ladder) scale the codes were derived from.
    pub base_scale: f32,
}

/// The integer-domain quantizer: one f32 base quantization, then pure
/// integer candidate evaluation and emission (module docs).
///
/// # Examples
///
/// ```
/// use cq_quant::intdomain::{IntDomainQuantizer, IntDomainScratch};
///
/// let q = IntDomainQuantizer::hardware_default();
/// let x = [0.5f32, -1.0, 0.25, 0.75];
/// let mut codes = Vec::new();
/// let mut scratch = IntDomainScratch::new();
/// let sel = q.quantize_into(&x, &mut codes, &mut scratch).unwrap();
/// // max|x| = 1.0 defines the ladder; codes reconstruct within bound.
/// for (&c, &v) in codes.iter().zip(&x) {
///     assert!((c as f32 * sel.scale - v).abs() <= sel.scale);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntDomainQuantizer {
    ways: usize,
    format: IntFormat,
}

impl IntDomainQuantizer {
    /// Creates an integer-domain quantizer with `ways` ladder candidates.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds [`MAX_WAYS`], or if the format is
    /// wider than 8 bits (codes are emitted as `i8` for the integer GEMM).
    pub fn new(ways: usize, format: IntFormat) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "int-domain ladder needs 1..={MAX_WAYS} ways, got {ways}"
        );
        assert!(
            format.bits() <= 8,
            "int-domain codes are i8; {format} does not fit"
        );
        IntDomainQuantizer { ways, format }
    }

    /// The integer twin of [`crate::E2bqmQuantizer::hardware_default`]:
    /// 4-way ClipSweep ladder, INT8, rectilinear error — evaluated in the
    /// integer domain.
    pub fn hardware_default() -> Self {
        IntDomainQuantizer::new(4, IntFormat::Int8)
    }

    /// Number of ladder ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The emitted code format.
    pub fn format(&self) -> IntFormat {
        self.format
    }

    /// Quantizes `x` layer-wise into i8 `codes`, returning the selected
    /// scale, or `None` when the ladder guard rejects the block (module
    /// docs: the caller must fall back to full precision). `codes` is
    /// cleared and refilled; a degenerate θ (all-zero/non-finite block)
    /// emits all-zero codes at scale 1.0 — lossless, not a fallback.
    ///
    /// The passes run compiled for the process's SIMD level
    /// ([`cq_par::dispatch`]); every level computes the same codes,
    /// scale and errors.
    pub fn quantize_into(
        &self,
        x: &[f32],
        codes: &mut Vec<i8>,
        scratch: &mut IntDomainScratch,
    ) -> Option<IntSelection> {
        cq_par::dispatch(QuantizeInto {
            q: self,
            x,
            codes,
            scratch,
        })
    }

    /// [`Self::quantize_into`]'s passes: θ, the base codes, the per-way
    /// integer folds and the winner's codes. Each is an f32 divide,
    /// round, compare or select per element, or an integer sum, so they
    /// give the same bits at every vector width.
    #[inline(always)]
    fn quantize(
        &self,
        x: &[f32],
        codes: &mut Vec<i8>,
        scratch: &mut IntDomainScratch,
    ) -> Option<IntSelection> {
        let theta = fast::effective_theta(fast::block_theta(x));
        codes.clear();
        if theta == 0.0 {
            codes.resize(x.len(), 0);
            scratch.errors.clear();
            scratch.errors.resize(self.ways, 0);
            return Some(IntSelection {
                way: 0,
                scale: 1.0,
                base_scale: 1.0,
            });
        }

        let qmax = self.format.qmax();
        let top = 1i32 << (self.ways - 1);
        let s_base = theta / (qmax * top) as f32;
        // Ladder guard: the exact-rescale proof needs a normal base scale
        // whose power-of-two multiples reproduce bitwise. Inherits the
        // pow2_multiplier acceptance condition (see DESIGN.md).
        if !s_base.is_normal() {
            return None;
        }
        let s_top = s_base * top as f32;
        if fast::pow2_multiplier(s_top, s_base) != Some(top as f32) {
            return None;
        }

        // The only f32 loop: one base quantization at the finest scale.
        // |x| ≤ θ keeps |y| within qmax·2^(W−1) up to division rounding;
        // the clamp pins the boundary (and sends NaN elements to 0).
        // Resize + slice write, as in `fast::quantize_codes_into`.
        let bound = (qmax * top) as f32;
        scratch.ybuf.resize(x.len(), 0);
        for (y, &v) in scratch.ybuf.iter_mut().zip(x) {
            *y = base_code(v, s_base, bound);
        }

        // Pure-integer candidate evaluation, way-major: one branch-free
        // reduction pass per way with that way's shift count held
        // loop-constant, so the auto-vectorizer takes the inner loop
        // (the element-major form, updating an i64 lane array per
        // element, defeats it and costs ~2x on random-sign data). The
        // per-element residual is bounded by `qmax·2^(W−1)` < 2^11, so a
        // 2^16-element chunk sums within i32; chunk subtotals widen into
        // the i64 fold. Integer addition commutes and every partial sum
        // is exact, so the totals are bitwise those of the element-major
        // fold, in any order, at any SIMD width.
        let ways = self.ways;
        scratch.errors.clear();
        for i in 0..ways {
            let t = (ways - 1 - i) as u32;
            let mut a = 0i64;
            for chunk in scratch.ybuf.chunks(1 << 16) {
                let mut partial = 0i32;
                if t == 0 {
                    // c = min(m, qmax): the residual is the clipped excess.
                    for &y in chunk {
                        let m = y.unsigned_abs() as i32;
                        partial += m - m.min(qmax);
                    }
                } else {
                    let half = 1i32 << (t - 1);
                    for &y in chunk {
                        let m = y.unsigned_abs() as i32;
                        let c = ((m + half) >> t).min(qmax);
                        partial += (m - (c << t)).unsigned_abs() as i32;
                    }
                }
                a += i64::from(partial);
            }
            scratch.errors.push(a);
        }

        // First-minimum arbitration, same rule as the float Arbiter.
        let way = scratch
            .errors
            .iter()
            .enumerate()
            .min_by_key(|&(_, &e)| e)
            .map(|(i, _)| i)
            .unwrap_or(0);

        // Winner emission: shift the base codes once more and attach the
        // exact power-of-two scale.
        let t = (ways - 1 - way) as u32;
        codes.extend(scratch.ybuf.iter().map(|&y| {
            let c = shift_round(y.unsigned_abs() as i32, t).min(qmax);
            // Branchless sign restore (c ≤ qmax, so negation can't wrap):
            // random-sign data makes a `if y < 0` here mispredict heavily.
            let sign = y >> 31;
            ((c ^ sign) - sign) as i8
        }));
        Some(IntSelection {
            way,
            scale: s_base * (1i32 << t) as f32,
            base_scale: s_base,
        })
    }

    /// Fake-quantize entry for accuracy studies: writes `codes[i] · scale`
    /// into `out` (clearing it first) and returns `true`, or returns
    /// `false` untouched when the ladder guard falls back — the caller
    /// then runs its f32 reference quantizer. This is *not* the compute
    /// path (the GEMM consumes codes directly); it exists to measure the
    /// accuracy gap vs [`crate::TrainingQuantizer`] fake-quantization.
    pub fn fake_quantize_into(
        &self,
        x: &[f32],
        out: &mut Vec<f32>,
        scratch: &mut IntDomainScratch,
    ) -> bool {
        let mut fq_codes = std::mem::take(&mut scratch.fq_codes);
        let sel = self.quantize_into(x, &mut fq_codes, scratch);
        let taken = match sel {
            Some(sel) => {
                out.clear();
                out.extend(fq_codes.iter().map(|&c| c as f32 * sel.scale));
                true
            }
            None => false,
        };
        scratch.fq_codes = fq_codes;
        taken
    }
}

/// [`IntDomainQuantizer::quantize_into`] as a [`SimdKernel`].
pub(crate) struct QuantizeInto<'a> {
    pub(crate) q: &'a IntDomainQuantizer,
    pub(crate) x: &'a [f32],
    pub(crate) codes: &'a mut Vec<i8>,
    pub(crate) scratch: &'a mut IntDomainScratch,
}

impl SimdKernel for QuantizeInto<'_> {
    type Output = Option<IntSelection>;

    #[inline(always)]
    fn run(self) -> Option<IntSelection> {
        self.q.quantize(self.x, self.codes, self.scratch)
    }
}

/// The base code `clamp(round(v / s_base), −bound, bound)` with NaN → 0,
/// rounded and clamped in f32 and converted exactly (`bound` is at most
/// `127 · 2^(MAX_WAYS−1)`, far inside the conversion's 2²² range), so the
/// loop that calls it vectorizes.
#[inline]
fn base_code(v: f32, s_base: f32, bound: f32) -> i32 {
    fast::exact_i32(fast::round_clamp(v / s_base, bound))
}

/// Integer round-half-away-from-zero of a non-negative magnitude by `t`
/// binary places: `(m + 2^(t−1)) >> t`, with `t = 0` the identity.
#[inline]
fn shift_round(m: i32, t: u32) -> i32 {
    if t == 0 {
        m
    } else {
        (m + (1 << (t - 1))) >> t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::QuantParams;

    #[test]
    fn shift_round_half_away_from_zero() {
        assert_eq!(shift_round(0, 3), 0);
        assert_eq!(shift_round(3, 1), 2); // 1.5 → 2
        assert_eq!(shift_round(5, 1), 3); // 2.5 → 3 (away from zero)
        assert_eq!(shift_round(4, 2), 1); // 1.0 → 1
        assert_eq!(shift_round(6, 2), 2); // 1.5 → 2
        assert_eq!(shift_round(1016, 3), 127);
        assert_eq!(shift_round(7, 0), 7);
    }

    #[test]
    fn base_codes_match_saturating_cast() {
        // Stratified sample of the f32 bit space (every 2¹⁰th pattern:
        // NaNs, ±∞, ±0, subnormals, .5 ties and |v| ≥ 2²³ among them),
        // against the saturating-cast formulation the magic-number
        // conversion replaced, at the extreme ladder bounds.
        for (s_base, bound) in [
            (0.01f32, 127 * 8),
            (1.0, 127 * 128),
            (3.1e-5, 127),
            (7.5e30, 7),
        ] {
            for step in 0..(1u64 << 22) {
                let v = f32::from_bits((step << 10) as u32);
                let old = (fast::fast_round(v / s_base) as i32).clamp(-bound, bound);
                assert_eq!(
                    base_code(v, s_base, bound as f32),
                    old,
                    "v={v:e} s_base={s_base:e}"
                );
            }
        }
    }

    #[test]
    fn degenerate_block_is_lossless_zero() {
        let q = IntDomainQuantizer::hardware_default();
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        for block in [vec![0.0f32; 16], vec![], vec![f32::NAN; 4]] {
            let sel = q.quantize_into(&block, &mut codes, &mut s).unwrap();
            assert_eq!(codes.len(), block.len());
            assert!(codes.iter().all(|&c| c == 0));
            assert_eq!(sel.scale, 1.0);
            assert_eq!(sel.way, 0);
        }
    }

    #[test]
    fn selected_scale_is_exact_pow2_multiple_of_base() {
        let q = IntDomainQuantizer::hardware_default();
        let x: Vec<f32> = (0..256)
            .map(|i| ((i * 37) % 101) as f32 * 0.013 - 0.6)
            .collect();
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(&x, &mut codes, &mut s).unwrap();
        let m = fast::pow2_multiplier(sel.scale, sel.base_scale)
            .expect("selected scale must sit on the pow2 ladder");
        assert_eq!(m, (1u32 << (q.ways() - 1 - sel.way)) as f32);
    }

    #[test]
    fn long_tail_prefers_clipped_way() {
        // Mirror of the e2bqm test: bulk-small data plus one outlier —
        // the integer-domain fold must also favor a clipped candidate.
        let q = IntDomainQuantizer::hardware_default();
        let mut x: Vec<f32> = (0..4095)
            .map(|i| if i % 2 == 0 { 0.003 } else { -0.003 })
            .collect();
        x.push(1.0);
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(&x, &mut codes, &mut s).unwrap();
        assert!(sel.way > 0, "expected a clipped way, got way 0");
        assert!(s.errors()[sel.way] < s.errors()[0]);
    }

    #[test]
    fn gaussian_prefers_wide_way() {
        let q = IntDomainQuantizer::hardware_default();
        let x = cq_tensor::init::normal(&[1024], 0.0, 1.0, 4);
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(x.data(), &mut codes, &mut s).unwrap();
        assert!(sel.way <= 1, "unexpected deep clip on gaussian data");
    }

    #[test]
    fn selected_way_minimizes_integer_fold() {
        let q = IntDomainQuantizer::new(4, IntFormat::Int8);
        let x = cq_tensor::init::long_tailed(&[2048], 0.05, 0.02, 40.0, 9);
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(x.data(), &mut codes, &mut s).unwrap();
        let min = *s.errors().iter().min().unwrap();
        assert_eq!(s.errors()[sel.way], min);
        // First minimum: no earlier way ties.
        assert!(s.errors()[..sel.way].iter().all(|&e| e > min));
    }

    #[test]
    fn subnormal_theta_falls_back() {
        let q = IntDomainQuantizer::hardware_default();
        // θ ≈ 1e-41: s_base is subnormal, the exact-rescale proof is
        // void, the int path must refuse.
        let x = vec![1.0e-41f32, -0.5e-41, 0.7e-41];
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        assert!(q.quantize_into(&x, &mut codes, &mut s).is_none());
    }

    #[test]
    fn codes_within_one_of_direct_quantization_every_way() {
        // Double-rounding deviation bound: shifted codes differ from
        // direct f32 quantization at the same scale by ≤ 1 code unit.
        let ways = 4;
        let q = IntDomainQuantizer::new(ways, IntFormat::Int8);
        let x = cq_tensor::init::long_tailed(&[1024], 0.1, 0.03, 25.0, 13);
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(x.data(), &mut codes, &mut s).unwrap();
        for way in 0..ways {
            let t = (ways - 1 - way) as u32;
            let scale = sel.base_scale * (1i32 << t) as f32;
            let p = QuantParams::with_scale(scale, IntFormat::Int8);
            for (&v, &y) in x.data().iter().zip(&s.ybuf) {
                let c_int = {
                    let c = shift_round(y.unsigned_abs() as i32, t).min(127);
                    if y < 0 {
                        -c
                    } else {
                        c
                    }
                };
                let c_ref = p.quantize(v);
                assert!(
                    (c_int - c_ref).abs() <= 1,
                    "way {way}: v={v} int={c_int} ref={c_ref}"
                );
            }
        }
    }

    #[test]
    fn reconstruction_bound_holds_on_long_tail() {
        let q = IntDomainQuantizer::hardware_default();
        let x = cq_tensor::init::long_tailed(&[4096], 0.05, 0.01, 30.0, 21);
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        let sel = q.quantize_into(x.data(), &mut codes, &mut s).unwrap();
        let rep_max = 127.0 * sel.scale;
        for (&v, &c) in x.data().iter().zip(&codes) {
            let err = (v - c as f32 * sel.scale).abs();
            let clip = (v.abs() - rep_max).max(0.0);
            let bound = (sel.base_scale + sel.scale) / 2.0 + clip;
            assert!(
                err <= bound * (1.0 + 1e-5) + f32::EPSILON,
                "v={v} err={err} bound={bound}"
            );
        }
    }

    #[test]
    fn fake_quantize_reports_path_taken() {
        let q = IntDomainQuantizer::hardware_default();
        let mut out = Vec::new();
        let mut s = IntDomainScratch::new();
        let x = cq_tensor::init::normal(&[512], 0.0, 1.0, 2);
        assert!(q.fake_quantize_into(x.data(), &mut out, &mut s));
        assert_eq!(out.len(), 512);
        let cos = {
            let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
            for (&a, &b) in x.data().iter().zip(&out) {
                dot += a as f64 * b as f64;
                na += a as f64 * a as f64;
                nb += b as f64 * b as f64;
            }
            dot / (na.sqrt() * nb.sqrt())
        };
        assert!(cos > 0.999, "cosine {cos}");
        // Subnormal block: fallback leaves `out` to the caller.
        let tiny = vec![1.0e-41f32; 8];
        assert!(!q.fake_quantize_into(&tiny, &mut out, &mut s));
    }

    #[test]
    fn scratch_buffers_are_reused() {
        let q = IntDomainQuantizer::hardware_default();
        let x = vec![0.5f32; 1024];
        let mut codes = Vec::new();
        let mut s = IntDomainScratch::new();
        q.quantize_into(&x, &mut codes, &mut s).unwrap();
        let (py, pc) = (s.ybuf.as_ptr(), codes.as_ptr());
        for _ in 0..4 {
            q.quantize_into(&x, &mut codes, &mut s).unwrap();
        }
        assert_eq!(s.ybuf.as_ptr(), py, "base-code buffer reallocated");
        assert_eq!(codes.as_ptr(), pc, "code buffer reallocated");
    }

    #[test]
    #[should_panic(expected = "1..=")]
    fn zero_ways_panics() {
        let _ = IntDomainQuantizer::new(0, IntFormat::Int8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn wide_format_panics() {
        let _ = IntDomainQuantizer::new(4, IntFormat::Int16);
    }
}
