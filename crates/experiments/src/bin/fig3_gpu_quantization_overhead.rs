//! Reproduces Fig. 3: quantized training is slower than FP32 on GPU.
fn main() {
    let _trace = cq_par::start();
    println!("Fig. 3 — DNN training with/without quantization on GPU (TX2)\n");
    print!("{}", cq_experiments::motivation::fig3_gpu_overhead());
    println!("\nPaper: 1.09x - 1.78x slowdown from quantization overheads.");
}
