//! Reproduces Fig. 12(d): energy breakdown by component.
use cq_experiments::perf;

fn main() {
    let _trace = cq_par::start();
    println!("Fig. 12(d) — Energy breakdown (ACC / BUF / DDR-SB / DDR-DY)\n");
    let rows = perf::run_comparison();
    let (table, mem_ratio) = perf::fig12d_table(&rows);
    print!("{table}");
    println!(
        "\nMemory-side energy reduction vs TPU: {:.2}x (paper: 1.54x)",
        mem_ratio
    );
}
