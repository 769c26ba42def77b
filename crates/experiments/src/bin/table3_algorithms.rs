//! Regenerates the paper's Table III algorithm taxonomy.
fn main() {
    let _trace = cq_par::start();
    println!("Table III — Low bit-width training algorithms\n");
    print!("{}", cq_experiments::tables::table3());
}
