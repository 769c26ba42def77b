//! Mixed-precision MAC energy sweep (fallible Table I lookups).
fn main() {
    let _trace = cq_par::start();
    println!("Precision sweep — MAC energy vs bit width (unmodeled widths render as --)\n");
    print!("{}", cq_experiments::extensions::precision_energy_sweep());
}
