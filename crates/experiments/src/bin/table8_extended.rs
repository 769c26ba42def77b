//! Extended Table VIII: every Table III algorithm, executable.

fn main() {
    let _trace = cq_par::start();
    println!("Table VIII (extended) — all five Table III algorithms (accuracy %)\n");
    print!("{}", cq_experiments::accuracy::table8_extended(42));
}
