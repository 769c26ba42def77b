//! Reproduces §VII.C: INT4-mode performance/energy gains.
fn main() {
    let _trace = cq_par::start();
    println!("§VII.C — INT4 mode versus INT8 training\n");
    print!("{}", cq_experiments::perf::int4_gains());
    println!("\nPaper: 2.33x performance / 2.35x energy efficiency at 4-bit.");
}
