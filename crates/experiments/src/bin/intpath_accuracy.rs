//! Accuracy gap of the dequantization-free integer training path: every
//! proxy benchmark trained through the f32 fake-quantize path and
//! through the int8 path, one `QuantCtx` per side built with
//! `QuantCtx::with_path`, so one process measures both (see
//! EXPERIMENTS.md "`intpath_accuracy` — integer-domain training path
//! A/B"). Both contexts carry `zhang2020_hqt`, which quantizes
//! everything on the f32 path; on the int8 path the `Dense` and
//! `Conv2d` forwards quantize x and W with
//! `IntDomainQuantizer::hardware_default()` instead, and the title
//! says so.
use cq_experiments::accuracy;

fn main() {
    let _trace = cq_par::start();
    println!("Integer-path accuracy A/B (proxy scale, %)");
    println!("fp32-path: every quantization by zhang2020_hqt (4-way FormatSweep on MSE)");
    println!("int8-path: Dense/Conv2d forward x and W by IntDomainQuantizer::hardware_default");
    println!(
        "           (4-way ClipSweep INT8 ladder on rectilinear error); ∂y and the rest by zhang2020_hqt\n"
    );
    let rows = accuracy::intpath_accuracy(42);
    print!("{}", accuracy::intpath_render(&rows));
    let max_gap = rows
        .iter()
        .map(accuracy::IntPathRow::gap_pp)
        .fold(f64::MIN, f64::max);
    println!("\nLargest fp32-path-vs-int8-path accuracy gap: {max_gap:+.1} pp");
}
