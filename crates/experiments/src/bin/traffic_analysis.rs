//! §II.B — high-precision data-movement shares under quantized training.
use cq_ndp::OptimizerKind;
fn main() {
    let _trace = cq_par::start();
    println!("§II.B — weight-update (FP32) share of DRAM traffic per iteration\n");
    let adam = OptimizerKind::Adam {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
    };
    print!("{}", cq_experiments::extensions::traffic_analysis(adam));
    println!("\nPaper (AlexNet): high-precision movements grow from 29.8% of traffic");
    println!("in normal training to 53.5% once everything else is quantized.");
}
