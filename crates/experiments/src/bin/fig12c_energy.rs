//! Reproduces Fig. 12(c): energy comparison.
use cq_experiments::perf;

fn main() {
    let _trace = cq_par::start();
    println!("Fig. 12(c) — Energy per training iteration\n");
    let rows = perf::run_comparison();
    print!("{}", perf::fig12c_table(&rows));
    println!("\nPaper geomeans: 6.41x vs GPU, 1.62x vs TPU.");
}
