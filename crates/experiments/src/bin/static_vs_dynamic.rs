//! §II.A motivation: static quantization ranges cannot train; dynamic
//! statistic-based quantization can.
fn main() {
    let _trace = cq_par::start();
    println!("§II.A — static vs dynamic quantization ranges (held-out accuracy)\n");
    print!("{}", cq_experiments::extensions::static_vs_dynamic(42));
    println!("\nGradient/activation ranges drift across layers and epochs (Fig. 2),");
    println!("so any fixed range clips or underflows; on-the-fly statistics fix it.");
}
