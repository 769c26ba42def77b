//! Start-up validation of the `CQ_*` knobs through the real start-up path
//! of an experiment binary (`cq_par::start`).
//!
//! Each case runs `table2_support_matrix`, a pure-table binary that never
//! trains or simulates, as a child process with every
//! inherited `CQ_*` variable removed. No test mutates this process's
//! environment, so the cases cannot race with each other or with the
//! process-wide configuration the knobs resolve into.

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

/// Runs with `key=value` as the only `CQ_*` variable and asserts a
/// non-zero exit whose stderr contains `needle`.
fn assert_aborts(key: &str, value: &str, needle: &str) {
    let out = run_with(&[(key, value)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{key}={value} exited 0: {stderr}");
    assert!(stderr.contains(needle), "{key}={value}: {stderr}");
}

#[test]
fn invalid_values_abort_naming_the_variable() {
    for (key, value) in [("CQ_THREADS", "fuor"), ("CQ_SIMD", "avx512")] {
        assert_aborts(key, value, &format!("invalid {key} value"));
    }
}

#[test]
fn unwritable_trace_aborts_naming_the_variable() {
    let missing = std::env::temp_dir().join(format!("cq-env-missing-{}", std::process::id()));
    assert!(!missing.exists(), "{}", missing.display());
    let trace = missing.join("trace.jsonl").display().to_string();
    assert_aborts("CQ_TRACE", &trace, "CQ_TRACE");
}

#[test]
fn unknown_cq_names_abort_naming_them() {
    // Names that no longer exist, and a misspelling of CQ_THREADS. A
    // stale CQ_QUANT_PATH=int8 must stop the run, not train on the f32
    // path it no longer selects, and a stale CQ_MAPPING=search must not
    // silently simulate the default mapping.
    for (key, value) in [
        ("CQ_BACKEND", "naive"),
        ("CQ_HWCACHE", "off"),
        ("CQ_HWCACHE_CAP", "64"),
        ("CQ_SWEEP_JOURNAL", "base"),
        ("CQ_QUANT_PATH", "int8"),
        ("CQ_TUNE_FILE", "crates/par/profiles/avx2.profile"),
        ("CQ_MAPPING", "search"),
        ("CQ_THREAD", "2"),
    ] {
        assert_aborts(
            key,
            value,
            &format!("unknown environment variable {key}; the CQ_* knobs are CQ_THREADS"),
        );
    }
}
