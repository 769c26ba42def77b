//! Ablations on HQT design choices: LDQ block size (accuracy vs
//! compression) and QBC line width (re-quantization traffic).
fn main() {
    let _trace = cq_par::start();
    println!("Ablation — LDQ block size K: accuracy vs compression\n");
    print!("{}", cq_experiments::hqt::ldq_accuracy_sweep(42));
    println!("\nAblation — QBC line width vs re-quantization under scattered writes\n");
    print!("{}", cq_experiments::hqt::qbc_line_width_sweep(42));
}
