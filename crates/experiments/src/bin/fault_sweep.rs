//! Fault sweep: six benchmarks × three bit-error rates × three protection
//! configurations (no-ECC / ECC / ECC+E²BQM fallback).
use cq_experiments::resilience;

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    println!("Fault sweep — resilience under injected DRAM/SRAM/θ-register faults\n");
    match resilience::zero_cost_check() {
        Ok(net) => println!("zero-cost check ({net}): fault rate 0 is bit-identical, ECC idle\n"),
        Err(e) => {
            eprintln!("ZERO-COST CHECK FAILED: {e}");
            std::process::exit(1);
        }
    }
    let rows = resilience::run_sweep();
    print!("{}", resilience::sweep_table(&rows));
    println!(
        "\n{} cells. SECDED corrects isolated flips for cycles+energy; the guarded",
        rows.len()
    );
    println!("quantizer converts θ/overflow faults into logged precision degradation.");
}
