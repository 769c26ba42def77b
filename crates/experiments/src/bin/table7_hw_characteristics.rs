//! Regenerates the paper's Table VII hardware characteristics.
fn main() {
    let _trace = cq_par::start();
    println!("Table VII — Hardware characteristics (45 nm)\n");
    print!("{}", cq_experiments::tables::table7());
}
