//! Start-up validation of the `CQ_*` knobs through the real start-up path
//! of an experiment binary (`profiling::init_for_bin`).
//!
//! Each case runs `table2_support_matrix`, a pure-table binary that never
//! starts a pool, trains or simulates, as a child process with every
//! inherited `CQ_*` variable removed. No test mutates this process's
//! environment, so the cases cannot race with each other or with the
//! process-wide caches the knobs resolve into.

use std::process::{Command, Output};

/// Runs `table2_support_matrix` with exactly `vars` as its `CQ_*`
/// environment.
fn run_with(vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table2_support_matrix"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CQ_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(vars.iter().copied())
        .output()
        .expect("spawn table2_support_matrix")
}

#[test]
fn starts_cleanly_without_cq_variables() {
    let out = run_with(&[]);
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table II"));
}

#[test]
fn invalid_values_abort_naming_the_variable() {
    for (key, value) in [
        ("CQ_BACKEND", "bogus"),
        ("CQ_THREADS", "fuor"),
        ("CQ_QUANT_PATH", "int7"),
        ("CQ_HWCACHE", "offf"),
        ("CQ_HWCACHE_CAP", "-3"),
        ("CQ_SIMD", "avx512"),
    ] {
        let out = run_with(&[(key, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{key}={value} exited 0: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {key} value")),
            "{key}={value}: {stderr}"
        );
    }
}
