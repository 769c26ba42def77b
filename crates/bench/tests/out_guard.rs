//! `bench_perf` refuses to write its report over the baseline it gates
//! against, and exits before timing anything.

use std::path::PathBuf;
use std::process::Command;

/// A fresh directory holding a copy of the committed baseline.
fn dir_with_baseline(name: &str) -> (PathBuf, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!("cq-bench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = include_bytes!("../../../BENCH_PR10.json").to_vec();
    for file in ["BENCH_PR10.json", "BENCH_PR10_ci.json"] {
        std::fs::write(dir.join(file), &bytes).unwrap();
    }
    (dir, bytes)
}

#[test]
fn out_naming_the_baseline_exits_2_and_leaves_it_intact() {
    let (dir, bytes) = dir_with_baseline("guard");
    let cases: [&[&str]; 3] = [
        // The same name.
        &["--baseline", "BENCH_PR10.json", "--out", "BENCH_PR10.json"],
        // Another spelling of it.
        &[
            "--baseline",
            "BENCH_PR10.json",
            "--out",
            "./BENCH_PR10.json",
        ],
        // The default --out.
        &["--baseline", "BENCH_PR10_ci.json"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_perf"))
            .args(["--quick", "--check"])
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("names the --baseline file"), "{stderr}");
        for file in ["BENCH_PR10.json", "BENCH_PR10_ci.json"] {
            assert_eq!(std::fs::read(dir.join(file)).unwrap(), bytes, "{args:?}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
