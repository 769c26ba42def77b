//! The repository benchmark: four seeded workloads over the public APIs
//! of cq-nn, cq-quant, cq-par/cq-tensor, cq-accel/cq-sim and cq-serve,
//! timed from outside the program. See `README.md` in this directory.

pub mod dse;
pub mod report;
pub mod runner;
pub mod serve;
pub mod train;
pub mod util;

use runner::{Outcome, Workload};
use std::path::Path;
use std::time::Instant;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["train_int8", "serve_warm"];

/// Workloads that run by name but are not in `BENCHMARK.json`, which
/// lists two so that each run can be long (see `README.md`).
pub const UNLISTED: [&str; 2] = ["train_hqt", "sim_dse"];

/// Runs workload `name` untraced (end-to-end metrics) or traced
/// (per-layer metrics, trace written to `trace_path`).
pub fn run(
    name: &str,
    seed: u64,
    ops: Option<usize>,
    seconds: u64,
    trace_path: Option<&Path>,
    process_start: Instant,
) -> Result<Outcome, String> {
    fn go<W: Workload>(
        seed: u64,
        ops: Option<usize>,
        seconds: u64,
        trace_path: Option<&Path>,
        process_start: Instant,
    ) -> Result<Outcome, String> {
        let ops = ops.unwrap_or_else(|| runner::ops_for::<W>(seconds));
        match trace_path {
            None => runner::untraced::<W>(seed, ops, process_start),
            Some(path) => runner::traced::<W>(seed, ops, path),
        }
    }
    match name {
        "train_hqt" => go::<train::TrainHqt>(seed, ops, seconds, trace_path, process_start),
        "train_int8" => go::<train::TrainInt8>(seed, ops, seconds, trace_path, process_start),
        "sim_dse" => go::<dse::SimDse>(seed, ops, seconds, trace_path, process_start),
        "serve_warm" => go::<serve::ServeWarm>(seed, ops, seconds, trace_path, process_start),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or {UNLISTED:?})"
        )),
    }
}
