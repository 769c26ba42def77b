//! Reproduces Fig. 12(b): training-epoch time breakdown (FW/NG/WG/WU/S/Q).
use cq_experiments::perf;
use cq_sim::SimResult;

fn main() {
    let _trace = cq_par::start();
    println!("Fig. 12(b) — Time breakdown per training iteration\n");
    let rows = perf::run_comparison();
    let mut refs: Vec<&SimResult> = Vec::new();
    for r in &rows {
        refs.push(&r.cq);
        refs.push(&r.tpu);
    }
    print!("{}", perf::fig12b_table(&refs));
}
