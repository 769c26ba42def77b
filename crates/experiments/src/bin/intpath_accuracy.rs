//! Accuracy gap of the dequantization-free integer training path: every
//! proxy benchmark trained under `zhang2020_hqt` through the f32
//! fake-quantize path and through the int8 path, one `QuantCtx` per side
//! built with `QuantCtx::with_path`, so one process measures both (see
//! EXPERIMENTS.md "`intpath_accuracy` — integer-domain training path
//! A/B").
use cq_experiments::accuracy;

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    println!("Integer-path accuracy A/B (zhang2020_hqt, proxy scale, %)\n");
    let rows = accuracy::intpath_accuracy(42);
    print!("{}", accuracy::intpath_render(&rows));
    let max_gap = rows
        .iter()
        .map(accuracy::IntPathRow::gap_pp)
        .fold(f64::MIN, f64::max);
    println!("\nLargest fp32-path-vs-int8-path accuracy gap: {max_gap:+.1} pp");
}
