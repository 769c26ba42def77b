//! Feature-detection override test: `CQ_SIMD=scalar` must actually force
//! the scalar micro-kernels, regardless of what the CPU supports.
//!
//! The level resolves once per process, so the checks need a process
//! started with the variable set. Under `CQ_SIMD=scalar` (CI's
//! forced-scalar leg) the test runs them directly; otherwise it re-runs
//! this test in a child process with `CQ_SIMD=scalar` set on the child
//! only, and asserts that the child passed. No test changes this
//! process's environment.

use cq_par::{gemm, Pool, SimdLevel};
use std::process::Command;

const NAME: &str = "cq_simd_scalar_forces_the_scalar_kernels";

#[test]
fn cq_simd_scalar_forces_the_scalar_kernels() {
    if std::env::var("CQ_SIMD").as_deref() == Ok("scalar") {
        scalar_checks();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([NAME, "--exact"])
        .env("CQ_SIMD", "scalar")
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A filter that matched nothing would also exit 0.
    assert!(stdout.contains("1 passed"), "{stdout}");
}

fn scalar_checks() {
    assert_eq!(cq_par::simd_level(), SimdLevel::Scalar);
    let plan = cq_par::active_plan();
    assert_eq!(plan.simd, SimdLevel::Scalar);
    assert_eq!(
        cq_par::describe_active_plan(),
        "scalar 6x16 kc=128 mc=72 nc=512"
    );

    // Exact-valued inputs (1/16 steps): the forced scalar path must match
    // a naive oracle bit-for-bit, since nothing reassociates and nothing
    // fuses.
    let (m, k, n) = (37, 53, 29);
    let mut s = 7u32;
    let mut next = move || {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        ((s >> 24) as f32 - 128.0) / 16.0
    };
    let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
    let mut want = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            want[i * n + j] = acc;
        }
    }
    for threads in [1, 4] {
        let mut out = vec![f32::NAN; m * n];
        gemm(m, k, n, &a, &b, &mut out, &Pool::new(threads));
        assert_eq!(out, want, "threads={threads}");
    }
}
