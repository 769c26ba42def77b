//! Reproduces §III.B: E²BQM emulating prior long-tail techniques.
use cq_experiments::hqt;

fn main() {
    let _trace = cq_par::start();
    println!("§III.B — E2BQM emulation of Direction Sensitive Gradient Clipping\n");
    print!("{}", hqt::e2bqm_dsgc_emulation(42));
    println!("\n§III.B — E2BQM emulation of Shiftable Fixed-Point\n");
    print!("{}", hqt::e2bqm_shiftable_emulation(42));
    println!("\nAblation — E2BQM way count on long-tailed data\n");
    print!("{}", hqt::e2bqm_way_sweep());
}
