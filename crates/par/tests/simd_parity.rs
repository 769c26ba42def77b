//! Parity proptests for every (SIMD level × blocking × thread-count)
//! combination: the blocked GEMM variants must match a naive ascending-k
//! oracle within the backend-parity tolerance `k · amax · bmax · 8ε`
//! (the FMA kernels skip one rounding per step; the scalar kernels and
//! any blocking/banding reassociate nothing, so the bound is generous).
//!
//! CI runs this suite at `--test-threads 1` and `--test-threads 4`, and
//! again with `CQ_SIMD=scalar`, covering both kernel families on both
//! serial and contended schedules.

use cq_par::{
    gemm_at_with_plan, gemm_bt_with_plan, gemm_prepacked, gemm_with_plan, simd_level, transpose,
    GemmPlan, PackedA, Pool, SimdLevel, TileConfig,
};
use proptest::prelude::*;

fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Per-element tolerance, matching `cq-tensor/tests/backend_parity.rs`.
fn tol(k: usize, amax: f32, bmax: f32) -> f32 {
    k as f32 * amax * bmax * 8.0 * f32::EPSILON + 1e-30
}

fn max_abs(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Every SIMD level runnable in this process: scalar always, plus the
/// detected level when it differs (detection already honors `CQ_SIMD`,
/// so a `CQ_SIMD=scalar` run exercises scalar only, by design).
fn levels() -> Vec<SimdLevel> {
    let mut ls = vec![SimdLevel::Scalar];
    if simd_level() != SimdLevel::Scalar {
        ls.push(simd_level());
    }
    ls
}

/// All plans under test: every runnable level with blocking configs
/// that force multiple KC/MC/NC iterations (kc = 5 guarantees several
/// reduction blocks even on small k; mc = 6, nc = 16 is one 6 × 16
/// register tile per block), and with its own block sizes.
fn plans() -> Vec<GemmPlan> {
    let mut out = Vec::new();
    for level in levels() {
        for cfg in [
            TileConfig {
                kc: 5,
                mc: 6,
                nc: 16,
            },
            TileConfig {
                kc: 32,
                mc: 18,
                nc: 32,
            },
            TileConfig::for_level(level),
        ] {
            out.push(GemmPlan::new(level, cfg).expect("valid test plan"));
        }
    }
    out
}

fn check(label: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g - w).abs() <= tol,
            "{}[{}]: got {} want {} (tol {})",
            label,
            i,
            g,
            w,
            tol
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// gemm / gemm_at / gemm_bt / prepacked agree with the oracle for
    /// every plan, at 1 and 4 threads, on arbitrary (non-exact) floats.
    #[test]
    fn all_variants_match_oracle(
        (m, k, n) in (1usize..28, 1usize..48, 1usize..28),
        seed in 0u32..1_000_000,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            // Non-exact values: exercises real rounding differences.
            (s >> 8) as f32 / (1 << 24) as f32 * 4.0 - 2.0 + 1.0e-3
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let want = naive(m, k, n, &a, &b);
        let eps = tol(k, max_abs(&a), max_abs(&b));

        // Transposed storages of the same logical operands.
        let mut a_t = vec![0.0f32; k * m];
        transpose(&a, m, k, &mut a_t);
        let mut b_t = vec![0.0f32; n * k];
        transpose(&b, k, n, &mut b_t);

        for plan in plans() {
            let label = plan.describe();
            for threads in [1usize, 4] {
                let pool = Pool::new(threads);
                let mut out = vec![f32::NAN; m * n];
                gemm_with_plan(&plan, m, k, n, &a, &b, &mut out, &pool);
                check(&label, &out, &want, eps)?;

                gemm_at_with_plan(&plan, m, k, n, &a_t, &b, &mut out, &pool);
                check(&label, &out, &want, eps)?;

                gemm_bt_with_plan(&plan, m, k, n, &a, &b_t, &mut out, &pool);
                check(&label, &out, &want, eps)?;
            }
            // Prepacked must be bitwise identical to the plain call.
            let mut serial = vec![f32::NAN; m * n];
            gemm_with_plan(&plan, m, k, n, &a, &b, &mut serial, &Pool::new(1));
            let packed = PackedA::pack(&plan, m, k, &a);
            let mut pre = vec![f32::NAN; m * n];
            gemm_prepacked(&packed, n, &b, &mut pre);
            prop_assert_eq!(&pre, &serial, "prepacked mismatch for {}", label);
        }
    }

    /// For a fixed plan, results are bitwise identical across thread
    /// counts and across the prepacked path — banding and packing reuse
    /// never reassociate the per-element reduction.
    #[test]
    fn thread_count_is_bitwise_invisible(
        (m, k, n) in (30usize..70, 30usize..70, 30usize..70),
        seed in 0u32..1_000_000,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            (s >> 8) as f32 / (1 << 24) as f32 * 4.0 - 2.0
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        for plan in plans() {
            let mut serial = vec![0.0f32; m * n];
            gemm_with_plan(&plan, m, k, n, &a, &b, &mut serial, &Pool::new(1));
            for threads in [2usize, 4, 8] {
                let mut par = vec![0.0f32; m * n];
                gemm_with_plan(&plan, m, k, n, &a, &b, &mut par, &Pool::new(threads));
                prop_assert_eq!(&par, &serial, "t{} differs for {}", threads, plan.describe());
            }
        }
    }
}
