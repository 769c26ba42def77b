//! Wang et al. 2018's FP8 with stochastic vs nearest rounding.
fn main() {
    let _trace = cq_par::start();
    println!("Table III row 1 — FP8 (e5m2) training and rounding modes\n");
    print!("{}", cq_experiments::extensions::fp8_rounding_ablation(42));
    println!("\nStochastic rounding keeps tiny updates alive in expectation;");
    println!("Table IX notes the Wang-2018 hardware leaves out the needed RNG.");
}
