//! Reproduces Fig. 12(a): speedup of Cambricon-Q over GPU and TPU.
use cq_experiments::perf;

fn main() {
    let _trace = cq_par::start();
    println!("Fig. 12(a) — Speedup over GPU (Jetson TX2) and TPU baselines\n");
    let rows = perf::run_comparison();
    print!("{}", perf::fig12a_table(&rows));
    println!("\nPaper geomeans: 4.20x vs GPU, 1.70x vs TPU.");
}
