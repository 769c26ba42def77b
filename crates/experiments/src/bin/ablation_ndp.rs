//! Reproduces §VII.D: Cambricon-Q without the NDP engine.
use cq_experiments::perf;

fn main() {
    let _trace = cq_par::start();
    println!("§VII.D — NDP ablation (speedup over TPU with and without NDP)\n");
    let rows = perf::run_comparison();
    print!("{}", perf::ablation_ndp_table(&rows));
}
