//! Reproduces Fig. 2: per-layer gradient statistics across training.
use cq_experiments::motivation;

fn main() {
    let _trace = cq_par::start();
    println!("Fig. 2 — max |gradient| per layer across epochs (proxy CNN)\n");
    let trace = motivation::fig2_gradient_trace(42);
    print!("{}", motivation::fig2_render(&trace));
    println!(
        "\nSpread across layers/epochs: {:.0}x (paper: 2-3 orders of magnitude)",
        trace.layer_spread()
    );
}
