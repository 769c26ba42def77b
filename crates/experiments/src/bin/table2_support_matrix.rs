//! Regenerates the paper's Table II hardware-support matrix.
fn main() {
    let _trace = cq_par::start();
    println!("Table II — Existing hardware for DNN training\n");
    print!("{}", cq_experiments::tables::table2());
}
