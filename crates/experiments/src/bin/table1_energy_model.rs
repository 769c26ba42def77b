//! Regenerates the paper's Table I from the energy model.
fn main() {
    let _trace = cq_par::start();
    println!("Table I — Efficiency comparison of different bit-width data (45 nm)\n");
    print!("{}", cq_experiments::tables::table1());
}
