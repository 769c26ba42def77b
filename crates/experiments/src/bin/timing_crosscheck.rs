//! Cross-validates the analytical chip simulator against the
//! instruction-driven timing executor on every benchmark's forward pass.
use cq_experiments::crosscheck;
fn main() {
    let _trace = cq_par::start();
    println!("Timing cross-check — analytical model vs instruction-driven executor\n");
    let rows = crosscheck::run_crosscheck();
    print!("{}", crosscheck::crosscheck_table(&rows));
    println!("\nA ratio near 1.0 means the two independently-scheduled models agree.");
}
