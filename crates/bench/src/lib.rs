//! # cq-bench — the micro-benchmark harness
//!
//! The crate is its `bench_perf` binary (`src/bin/bench_perf.rs`). It
//! times the dense kernels, the fused quantizers, whole training steps
//! and the memoized simulator under the `Naive` reference and the `Fast`
//! path, and writes a JSON report. With `--check` it fails when the
//! reference GEMM or the int8 GEMM falls below its floor, or when a gated
//! entry loses too much of its speedup in a `--baseline` report
//! (`BENCH_PR10.json` in CI). `tests/obs_overhead.rs` checks that
//! disabled tracing costs nothing on one of its kernels.
//!
//! The end-to-end repository benchmark is the separate `perfbench/`
//! package (see `BENCHMARK.json`).
