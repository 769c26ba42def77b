//! Property-based gradient checks: every layer's analytic backward pass
//! matches central finite differences on randomly shaped inputs.

use cq_nn::{Dense, Layer, QuantCtx, Relu};
use cq_tensor::{init, Tensor};
use proptest::prelude::*;

/// Central-difference check of ∂(sum y)/∂x against the layer's backward.
fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32) -> Result<(), TestCaseError> {
    let ctx = QuantCtx::fp32();
    let y = layer.forward(x, &ctx).expect("forward");
    let gout = Tensor::ones(y.dims());
    let gin = layer.backward(&gout, &ctx).expect("backward");
    let eps = 1e-2;
    let mut x2 = x.clone();
    // Spot-check up to 6 coordinates spread across the tensor.
    let n = x.len();
    let step = (n / 6).max(1);
    for idx in (0..n).step_by(step) {
        let orig = x2.data()[idx];
        x2.data_mut()[idx] = orig + eps;
        let lp = layer.forward(&x2, &ctx).expect("forward").sum();
        x2.data_mut()[idx] = orig - eps;
        let lm = layer.forward(&x2, &ctx).expect("forward").sum();
        x2.data_mut()[idx] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        prop_assert!(
            (fd - gin.data()[idx]).abs() <= tol,
            "idx {}: fd {} vs analytic {}",
            idx,
            fd,
            gin.data()[idx]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dense_input_gradients(b in 1usize..6, i in 1usize..10, o in 1usize..10, seed in 0u64..1000) {
        let mut layer = Dense::new("fc", i, o, seed);
        let x = init::normal(&[b, i], 0.0, 1.0, seed + 1);
        check_input_grad(&mut layer, &x, 0.05)?;
    }

    #[test]
    fn relu_gradients(b in 1usize..6, f in 1usize..16, seed in 0u64..1000) {
        let mut layer = Relu::new();
        // Keep values away from the kink at 0 (finite differences are
        // invalid exactly there).
        let x = init::normal(&[b, f], 0.0, 1.0, seed).map(|v| {
            if v.abs() < 0.05 { v + 0.1 } else { v }
        });
        check_input_grad(&mut layer, &x, 0.01)?;
    }
}
