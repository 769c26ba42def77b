//! Reproduces §III.A: LDQ compression-ratio analysis.
fn main() {
    let _trace = cq_par::start();
    println!("§III.A — LDQ compression ratio vs block size K\n");
    print!("{}", cq_experiments::hqt::ldq_compression_sweep());
    println!("\nPaper: loss < 1% for K >= 200; < 0.05% for K >= 4000.");
}
