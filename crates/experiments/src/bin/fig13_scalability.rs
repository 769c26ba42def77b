//! Reproduces Fig. 13: Cambricon-Q-T/-V against 1080Ti/V100.
fn main() {
    let _trace = cq_par::start();
    println!("Fig. 13 — Performance scaling (Cambricon-Q / -T / -V vs GPUs)\n");
    print!("{}", cq_experiments::perf::fig13_table());
}
