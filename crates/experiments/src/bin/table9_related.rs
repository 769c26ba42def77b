//! Regenerates the paper's Table IX accelerator comparison.
fn main() {
    let _trace = cq_par::start();
    println!("Table IX — Recent quantized-training-aware accelerators\n");
    print!("{}", cq_experiments::tables::table9());
}
