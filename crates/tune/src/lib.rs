//! # cq-tune — tile/blocking autotuner for the cq-par GEMM
//!
//! Searches the `(MR, NR, KC, MC, NC)` factor space of the three-level
//! blocked GEMM (see `cq_par::tune`) by *measuring* candidate plans on
//! this machine, FactorFlow/CoSA-style: enumerate per-level tiling
//! factors, score each by measured throughput, keep the best.
//!
//! The search is two-stage to keep it tractable:
//!
//! 1. **Register tile** — every supported `(MR, NR)` pair runs with a
//!    neutral mid-sized blocking; the fastest tile wins. The tile decides
//!    the micro-kernel's instruction mix, so it dominates and factors out.
//! 2. **Cache blocking** — a grid over `(KC, MC, NC)` around the winning
//!    tile (`MC` in multiples of `MR`, `NC` in multiples of `NR`).
//!
//! Plans are scored by multiply-accumulates per nanosecond, summed over a
//! set of probe shapes (best-of-reps per shape, like `bench_perf`), so a
//! config that wins big on one shape can't hide a regression on another.
//!
//! The winning config is rendered in the `cq_par::tune` profile format;
//! committed as the profile for its SIMD level (`crates/par/profiles/`),
//! it becomes the plan every GEMM runs after a rebuild. See
//! EXPERIMENTS.md for the recipe.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cq_par::{gemm_with_plan, simd_level, GemmPlan, Pool, SimdLevel, TileConfig, SUPPORTED_TILES};
use std::cell::RefCell;
use std::time::Instant;

/// Outcome of a generic [`two_stage`] search.
#[derive(Debug, Clone)]
pub struct TwoStageResult<C> {
    /// Best-scoring candidate across both stages.
    pub best: C,
    /// Its score (higher is better); `f64::MIN` if no candidate scored.
    pub score: f64,
    /// Number of candidates submitted to `score`.
    pub candidates: usize,
}

/// Generic two-stage search shared by the GEMM autotuner and the
/// cq-accel mapping search: score every coarse stage-1 candidate, pick
/// the winner, expand it into a stage-2 refinement neighbourhood via
/// `refine`, and score those too.
///
/// `score` returns `None` for candidates that are illegal (plan fails to
/// build, mapping violates buffer capacity); a refinement identical to
/// the stage-1 winner is skipped rather than scored twice. Panics if
/// `stage1` is empty.
pub fn two_stage<C, F, R>(stage1: &[C], mut score: F, refine: R) -> TwoStageResult<C>
where
    C: Clone + PartialEq,
    F: FnMut(&C) -> Option<f64>,
    R: FnOnce(&C) -> Vec<C>,
{
    assert!(!stage1.is_empty(), "two_stage: empty stage-1 candidate set");
    let mut candidates = 0usize;
    let mut best = stage1[0].clone();
    let mut best_score = f64::MIN;
    for c in stage1 {
        candidates += 1;
        if let Some(s) = score(c) {
            if s > best_score {
                best_score = s;
                best = c.clone();
            }
        }
    }
    let stage1_winner = best.clone();
    for c in refine(&stage1_winner) {
        if c == stage1_winner {
            continue; // already scored in stage 1
        }
        candidates += 1;
        if let Some(s) = score(&c) {
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
    }
    TwoStageResult {
        best,
        score: best_score,
        candidates,
    }
}

/// Probe shapes `(m, k, n)` for the full search: the bench reference
/// square, a skinny train-step-like shape, and a smaller square that
/// lives closer to cache.
const FULL_SHAPES: [(usize, usize, usize); 3] = [(512, 512, 512), (384, 128, 512), (256, 256, 256)];

/// Probe shape for `--quick` (CI smoke) runs.
const QUICK_SHAPES: [(usize, usize, usize); 1] = [(256, 256, 256)];

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Coarser grid, one probe shape, fewer reps — for CI smoke runs.
    pub quick: bool,
}

/// Outcome of a search: the winning plan plus its measured throughput.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// SIMD level the search ran under (detected / `CQ_SIMD`).
    pub level: SimdLevel,
    /// Winning blocking configuration.
    pub cfg: TileConfig,
    /// Measured multiply-accumulates per nanosecond of the winner
    /// (2·MACs/ns = GFLOP/s).
    pub macs_per_ns: f64,
    /// Number of candidate plans measured.
    pub candidates: usize,
}

impl TuneResult {
    /// The winner rendered in the `cq_par::tune` profile format.
    pub fn profile(&self) -> String {
        cq_par::render_profile(self.level, &self.cfg)
    }
}

/// Best-of-reps wall time of `plan` summed over `shapes`; returns
/// `(total_ns, total_macs)`.
fn measure(plan: &GemmPlan, shapes: &[(usize, usize, usize)], reps: usize) -> (u128, u128) {
    let pool = Pool::new(1);
    let mut total_ns = 0u128;
    let mut total_macs = 0u128;
    for &(m, k, n) in shapes {
        let a = fill(m * k, 0x5eed + m as u32);
        let b = fill(k * n, 0xbeef + n as u32);
        let mut out = vec![0.0f32; m * n];
        // Warm-up rep, then best of `reps`.
        gemm_with_plan(plan, m, k, n, &a, &b, &mut out, &pool);
        let mut best = u128::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            gemm_with_plan(plan, m, k, n, &a, &b, &mut out, &pool);
            best = best.min(t0.elapsed().as_nanos());
        }
        total_ns += best.max(1);
        total_macs += (m * k * n) as u128;
    }
    (total_ns, total_macs)
}

fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            ((s >> 24) as f32 - 128.0) / 16.0
        })
        .collect()
}

/// The two-stage search over explicit probe shapes (exposed so tests can
/// run it on small shapes; use [`tune`] / [`tune_with_log`] normally).
pub fn search(
    shapes: &[(usize, usize, usize)],
    reps: usize,
    quick_grid: bool,
    log: impl FnMut(&str),
) -> TuneResult {
    let level = simd_level();
    // Both the score and refine closures need to report progress, so the
    // logger lives in a RefCell they can share.
    let log = RefCell::new(log);
    let say = |msg: &str| (log.borrow_mut())(msg);

    // Neutral mid-sized blocking for a register tile: stage 1 varies only
    // the tile, stage 2 varies only the blocking around the winner.
    let neutral = |mr: usize, nr: usize| TileConfig {
        mr,
        nr,
        kc: 256,
        mc: 12 * mr,
        nc: 64 * nr,
    };

    say(&format!(
        "stage 1: register tile ({} kernels)",
        level.name()
    ));
    let stage1: Vec<TileConfig> = SUPPORTED_TILES
        .iter()
        .map(|&(mr, nr)| neutral(mr, nr))
        .collect();

    let res = two_stage(
        &stage1,
        |cfg| {
            let plan = GemmPlan::new(level, *cfg).ok()?;
            let (ns, macs) = measure(&plan, shapes, reps);
            let mpn = macs as f64 / ns as f64;
            say(&format!("  {}  {:.3} MACs/ns", plan.describe(), mpn));
            Some(mpn)
        },
        |winner| {
            let (mr, nr) = (winner.mr, winner.nr);
            say(&format!("stage 1 winner: {mr}x{nr}"));
            say("stage 2: cache blocking");
            let (kcs, mc_mults, nc_mults): (&[usize], &[usize], &[usize]) = if quick_grid {
                (&[128, 256], &[12, 24], &[32, 64])
            } else {
                (&[128, 256, 512], &[6, 12, 24, 48], &[16, 32, 64, 128])
            };
            let mut grid = Vec::new();
            for &kc in kcs {
                for &mcm in mc_mults {
                    for &ncm in nc_mults {
                        grid.push(TileConfig {
                            mr,
                            nr,
                            kc,
                            mc: mcm * mr,
                            nc: ncm * nr,
                        });
                    }
                }
            }
            grid
        },
    );

    say(&format!(
        "winner: {} {}x{} kc={} mc={} nc={}  {:.3} MACs/ns",
        level.name(),
        res.best.mr,
        res.best.nr,
        res.best.kc,
        res.best.mc,
        res.best.nc,
        res.score
    ));
    TuneResult {
        level,
        cfg: res.best,
        macs_per_ns: res.score,
        candidates: res.candidates,
    }
}

/// Runs the search at the option-selected scale, reporting progress
/// through `log` (one line per candidate; pass `|_| {}` to silence).
pub fn tune_with_log(opts: TuneOptions, log: impl FnMut(&str)) -> TuneResult {
    if opts.quick {
        search(&QUICK_SHAPES, 2, true, log)
    } else {
        search(&FULL_SHAPES, 3, false, log)
    }
}

/// [`tune_with_log`] without progress output.
pub fn tune(opts: TuneOptions) -> TuneResult {
    tune_with_log(opts, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_stage_skips_winner_and_keeps_best() {
        // Deterministic scores: stage 1 over 1..=3 (3 wins), refinement
        // re-lists the winner (skipped) plus 30 (wins) and an illegal 99.
        let mut scored = Vec::new();
        let res = two_stage(
            &[1, 2, 3],
            |&c| {
                scored.push(c);
                if c == 99 {
                    None
                } else {
                    Some(c as f64)
                }
            },
            |&w| vec![w, 30, 99],
        );
        assert_eq!(res.best, 30);
        assert_eq!(res.score, 30.0);
        // 3 stage-1 + 2 stage-2 (winner skipped, illegal still counted).
        assert_eq!(res.candidates, 5);
        assert_eq!(scored, vec![1, 2, 3, 30, 99]);
    }

    #[test]
    fn two_stage_all_illegal_falls_back_to_first() {
        let res = two_stage(&["a", "b"], |_| None, |_| vec!["c"]);
        assert_eq!(res.best, "a");
        assert_eq!(res.score, f64::MIN);
        assert_eq!(res.candidates, 3);
    }

    #[test]
    fn search_yields_valid_committed_style_profile() {
        // A real two-stage search on deliberately tiny probe shapes (this
        // runs in debug mode): the result must validate, build a plan,
        // and round-trip through the profile format.
        let mut lines = 0usize;
        let res = search(&[(40, 24, 36)], 1, true, |_| lines += 1);
        assert!(res.cfg.validate().is_ok());
        assert!(GemmPlan::new(res.level, res.cfg).is_ok());
        assert!(res.macs_per_ns > 0.0);
        // 5 stage-1 tiles + ≥7 stage-2 grid points, plus banner lines.
        assert!(res.candidates >= 12, "{}", res.candidates);
        assert!(lines >= res.candidates);
        let parsed = cq_par::parse_profile(&res.profile()).unwrap();
        assert_eq!(parsed, (res.level, res.cfg));
    }
}
