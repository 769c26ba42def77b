//! Reproduces Table VIII: training accuracy of FP32 vs Zhu/Zhang ± HQT on
//! small-scale proxies of the six benchmarks (see DESIGN.md).
use cq_experiments::accuracy;

fn main() {
    let _trace = cq_par::start();
    println!("Table VIII — Training accuracy results (proxy scale, %)\n");
    let rows = accuracy::table8_accuracy(42);
    print!("{}", accuracy::table8_render(&rows));
    let max_gap = rows
        .iter()
        .flat_map(|r| [r.fp32 - r.zhu_hqt, r.fp32 - r.zhang_hqt])
        .fold(f64::MIN, f64::max);
    println!(
        "\nLargest FP32-vs-HQT accuracy gap: {:.1}%",
        max_gap * 100.0
    );
}
