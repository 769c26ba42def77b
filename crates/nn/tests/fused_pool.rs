//! The max-pool layer against the reference ops, bit for bit: on its own,
//! and fused with the ReLU that `Sequential::add` lets it absorb.
//!
//! Run in release mode too (CI does): which zero `f32::max` returns
//! depends on codegen, and `k = 2` runs a copy of the pooling loops that
//! only the optimizer shapes.

use cq_nn::loss::softmax_cross_entropy;
use cq_nn::{
    Adam, Conv2d, Dense, Flatten, Layer, MaxPool2d, NnError, Optimizer, Param, QuantCtx, QuantPath,
    Relu, Sequential,
};
use cq_quant::{IntFormat, TrainingQuantizer};
use cq_tensor::{init, ops, Backend, Tensor};
use proptest::prelude::*;

/// Inputs and gradients: ties, signed zeros, ±∞, NaN and subnormals
/// beside ordinary values.
fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-2i32..3).prop_map(|i| i as f32),
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(1.0e-40f32),
        Just(-1.0e-40f32),
        -4.0f32..4.0,
    ]
}

/// Batch, channels, window and a ragged `h`, `w` (not always multiples
/// of `k`).
fn shape() -> impl Strategy<Value = ([usize; 4], usize)> {
    (
        1usize..3,
        1usize..3,
        prop_oneof![Just(1usize), Just(2), Just(3), Just(5)],
        0usize..7,
        0usize..7,
    )
        .prop_map(|(n, c, k, dh, dw)| ([n, c, k + dh, k + dw], k))
}

/// Largest tensor [`shape`] draws.
const MAX_LEN: usize = 2 * 2 * 11 * 11;

fn tensor(vals: &[f32], dims: &[usize]) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec(vals[..len].to_vec(), dims).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `Relu` (optional), then `ops::maxpool2d` and `ops::maxpool2d_backward`:
/// the pooled output and the input gradient.
fn reference(x: &Tensor, g: &Tensor, k: usize, relu: bool) -> (Tensor, Tensor) {
    let ctx = QuantCtx::fp32();
    let mut r = Relu::new();
    let pooled_in = if relu {
        r.forward(x, &ctx).unwrap()
    } else {
        x.clone()
    };
    let pooled = ops::maxpool2d(&pooled_in, k).unwrap();
    let gin = ops::maxpool2d_backward(g, &pooled.argmax, x.dims()).unwrap();
    let gin = if relu {
        r.backward(&gin, &ctx).unwrap()
    } else {
        gin
    };
    (pooled.output, gin)
}

/// `[Relu, MaxPool2d(k)]` as `Sequential` stores it: one fused layer.
fn fused(k: usize) -> Sequential {
    let mut model = Sequential::new();
    model.add(Relu::new()).add(MaxPool2d::new(k));
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_layer_matches_relu_then_reference_pool(
        (dims, k) in shape(),
        xs in prop::collection::vec(value(), MAX_LEN),
        gs in prop::collection::vec(value(), MAX_LEN),
    ) {
        let ctx = QuantCtx::fp32();
        let x = tensor(&xs, &dims);
        let mut model = fused(k);
        prop_assert_eq!(model.len(), 1);
        let y = model.forward(&x, &ctx).unwrap();
        let g = tensor(&gs, y.dims());
        let (want_y, want_g) = reference(&x, &g, k, true);
        prop_assert_eq!(y.dims(), want_y.dims());
        prop_assert_eq!(bits(&y), bits(&want_y), "output, dims {:?} k {}", dims, k);
        let gin = model.backward_to_input(&g, &ctx).unwrap();
        prop_assert_eq!(gin.dims(), x.dims());
        prop_assert_eq!(bits(&gin), bits(&want_g), "input gradient, dims {:?} k {}", dims, k);
    }

    #[test]
    fn standalone_layer_matches_reference_pool(
        (dims, k) in shape(),
        xs in prop::collection::vec(value(), MAX_LEN),
        gs in prop::collection::vec(value(), MAX_LEN),
    ) {
        let ctx = QuantCtx::fp32();
        let x = tensor(&xs, &dims);
        let mut pool = MaxPool2d::new(k);
        let y = pool.forward(&x, &ctx).unwrap();
        let g = tensor(&gs, y.dims());
        let (want_y, want_g) = reference(&x, &g, k, false);
        prop_assert_eq!(bits(&y), bits(&want_y), "output, dims {:?} k {}", dims, k);
        let gin = pool.backward(&g, &ctx).unwrap();
        prop_assert_eq!(bits(&gin), bits(&want_g), "input gradient, dims {:?} k {}", dims, k);
    }
}

#[test]
fn all_nan_and_negative_windows() {
    // Plane 0: an all-NaN window, an all −∞ window, an all-negative one
    // and a tie of positives; plane 1 repeats it with −0.0 in place of
    // the negatives.
    let plane0 = [
        f32::NAN,
        f32::NAN,
        f32::NEG_INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::NAN,
        f32::NEG_INFINITY,
        f32::NEG_INFINITY,
        -3.0,
        -1.0,
        2.0,
        f32::NAN,
        -1.0,
        -2.0,
        1.0,
        2.0,
    ];
    let mut vals = plane0.to_vec();
    vals.extend(plane0.iter().map(|&v| if v < 0.0 { -0.0 } else { v }));
    let x = Tensor::from_vec(vals, &[1, 2, 4, 4]).unwrap();
    let g = Tensor::from_vec((1..=8).map(|i| i as f32).collect(), &[1, 2, 2, 2]).unwrap();
    let ctx = QuantCtx::fp32();
    for relu in [false, true] {
        let (want_y, want_g) = reference(&x, &g, 2, relu);
        let (y, gin) = if relu {
            let mut model = fused(2);
            let y = model.forward(&x, &ctx).unwrap();
            (y, model.backward_to_input(&g, &ctx).unwrap())
        } else {
            let mut pool = MaxPool2d::new(2);
            let y = pool.forward(&x, &ctx).unwrap();
            (y, pool.backward(&g, &ctx).unwrap())
        };
        assert_eq!(bits(&y), bits(&want_y), "relu {relu}");
        assert_eq!(bits(&gin), bits(&want_g), "relu {relu}");
    }
    // The all-NaN window pools to −∞ and routes its gradient to its
    // first element. After ReLU it pools to +0.0, and of plane 0 only the
    // positive tie's first 2.0 receives a gradient.
    let mut pool = MaxPool2d::new(2);
    let y = pool.forward(&x, &ctx).unwrap();
    assert_eq!(y.data()[0], f32::NEG_INFINITY);
    assert_eq!(pool.backward(&g, &ctx).unwrap().data()[0], 1.0);
    let mut model = fused(2);
    let y = model.forward(&x, &ctx).unwrap();
    assert_eq!(y.data()[..4], [0.0, 0.0, 0.0, 2.0]);
    assert_eq!(y.data()[0].to_bits(), 0.0f32.to_bits());
    let mut want = [0.0f32; 16];
    want[10] = 4.0;
    let gin = model.backward_to_input(&g, &ctx).unwrap();
    assert_eq!(bits(&gin)[..16], want.map(f32::to_bits));
}

#[test]
fn window_past_a_byte_of_offsets_is_a_typed_error() {
    // k = 16 has 256 window positions: with the dropped-window marker
    // that is one more than a byte holds.
    let ctx = QuantCtx::fp32();
    let x = init::normal(&[1, 2, 16, 17], 0.0, 1.0, 3);
    let mut pool = MaxPool2d::new(16);
    assert!(matches!(
        pool.forward(&x, &ctx),
        Err(NnError::InvalidConfig(_))
    ));
    assert!(matches!(
        fused(16).forward(&x, &ctx),
        Err(NnError::InvalidConfig(_))
    ));
    // The largest window that fits still matches the reference.
    let x = init::normal(&[1, 2, 15, 31], 0.0, 1.0, 4);
    let g = init::normal(&[1, 2, 1, 2], 0.0, 1.0, 5);
    for relu in [false, true] {
        let mut model = if relu {
            fused(15)
        } else {
            let mut m = Sequential::new();
            m.add(MaxPool2d::new(15));
            m
        };
        let y = model.forward(&x, &ctx).unwrap();
        let gin = model.backward_to_input(&g, &ctx).unwrap();
        let (want_y, want_g) = reference(&x, &g, 15, relu);
        assert_eq!(bits(&y), bits(&want_y), "relu {relu}");
        assert_eq!(bits(&gin), bits(&want_g), "relu {relu}");
    }
}

#[test]
fn invalid_shapes_keep_their_tensor_errors() {
    let ctx = QuantCtx::fp32();
    let mut pool = MaxPool2d::new(2);
    assert!(matches!(
        pool.forward(&Tensor::zeros(&[2, 4]), &ctx),
        Err(NnError::Tensor(_))
    ));
    assert!(matches!(
        pool.forward(&Tensor::zeros(&[1, 1, 1, 4]), &ctx),
        Err(NnError::Tensor(_))
    ));
    assert!(matches!(
        MaxPool2d::new(0).forward(&Tensor::zeros(&[1, 1, 4, 4]), &ctx),
        Err(NnError::Tensor(_))
    ));
    pool.forward(&Tensor::zeros(&[1, 1, 4, 4]), &ctx).unwrap();
    assert!(matches!(
        pool.backward(&Tensor::zeros(&[1, 1, 2, 3]), &ctx),
        Err(NnError::Tensor(_))
    ));
}

#[test]
fn backward_before_forward_is_no_forward_cache() {
    let ctx = QuantCtx::fp32();
    let g = Tensor::zeros(&[1, 1, 2, 2]);
    assert!(matches!(
        fused(2).backward(&g, &ctx),
        Err(NnError::NoForwardCache { layer }) if layer == "relu+maxpool2d"
    ));
    assert!(matches!(
        MaxPool2d::new(2).backward(&g, &ctx),
        Err(NnError::NoForwardCache { layer }) if layer == "maxpool2d"
    ));
}

#[test]
fn only_a_relu_right_before_a_pool_is_absorbed() {
    let ctx = QuantCtx::fp32();
    let x = init::normal(&[2, 3, 6, 5], 0.0, 1.0, 7);
    let g = init::normal(&[2, 3, 3, 2], 0.0, 1.0, 8);

    // [Relu, Relu, MaxPool2d]: the second ReLU is absorbed, the first
    // stays a layer of its own.
    let mut model = Sequential::new();
    model
        .add(Relu::new())
        .add(Relu::new())
        .add(MaxPool2d::new(2));
    assert_eq!(model.len(), 2);
    let y = model.forward(&x, &ctx).unwrap();
    let gin = model.backward_to_input(&g, &ctx).unwrap();
    let mut first = Relu::new();
    let r = first.forward(&x, &ctx).unwrap();
    let (want_y, want_g) = reference(&r, &g, 2, true);
    let want_g = first.backward(&want_g, &ctx).unwrap();
    assert_eq!(bits(&y), bits(&want_y));
    assert_eq!(bits(&gin), bits(&want_g));

    // A lone pool, a pool before a ReLU, and a ReLU before a dense layer
    // stay as added.
    let mut lone = Sequential::new();
    lone.add(MaxPool2d::new(2));
    assert_eq!(lone.len(), 1);
    let mut pool_first = Sequential::new();
    pool_first.add(MaxPool2d::new(2)).add(Relu::new());
    assert_eq!(pool_first.len(), 2);
    let mut dense = Sequential::new();
    dense.add(Relu::new()).add(Dense::new("fc", 4, 3, 1));
    assert_eq!(dense.len(), 2);
    // Any layer in between keeps the ReLU a layer of its own.
    let mut broken = Sequential::new();
    broken
        .add(Relu::new())
        .add(Flatten::new())
        .add(MaxPool2d::new(2));
    assert_eq!(broken.len(), 3);

    let y = lone.forward(&x, &ctx).unwrap();
    let (want_y, _) = reference(&x, &g, 2, false);
    assert_eq!(bits(&y), bits(&want_y));
    let y = pool_first.forward(&x, &ctx).unwrap();
    assert_eq!(
        bits(&y),
        bits(&want_y.map(|v| if v > 0.0 { v } else { 0.0 }))
    );
}

/// The bench-CNN's layers at a small size, with seeded weights, with or
/// without the ReLU before the pool.
fn cnn_layers(relu: bool) -> Vec<Box<dyn Layer>> {
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Conv2d::new("conv1", 3, 4, 3, 1, 1, 11))];
    if relu {
        layers.push(Box::new(Relu::new()));
    }
    layers.push(Box::new(MaxPool2d::new(2)));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Dense::new("fc", 4 * 5 * 4, 5, 12)));
    layers
}

fn params(layers: &mut [Box<dyn Layer>]) -> Vec<&mut Param> {
    layers.iter_mut().flat_map(|l| l.params_mut()).collect()
}

/// `Sequential` fuses the ReLU into the pool, and the pool quantizes the
/// conv's ∂y where the context allows it; the same layers stepped one by
/// one do neither. The conv's output planes are 10×9: `w` is not a
/// multiple of the window, and the HQT blocks (1024, 256 and 100
/// elements) straddle the 90-element planes, the last one ragged. The
/// contexts cover the schemes the pool quantizes for and those it leaves
/// to the conv (layer-wise, MiniFp, the naive backend).
#[test]
fn bench_cnn_steps_equal_the_unfused_layers_stepped_by_hand() {
    let x = init::normal(&[4, 3, 10, 9], 0.0, 1.0, 13);
    let labels = [0usize, 3, 1, 4];
    let f32_path = |q| QuantCtx::new(q).with_path(QuantPath::Fp32);
    let int8_path = |q| QuantCtx::new(q).with_path(QuantPath::Int8);
    let contexts = [
        ("fp32", QuantCtx::fp32()),
        (
            "zhang2020_hqt",
            f32_path(TrainingQuantizer::zhang2020_hqt()),
        ),
        (
            "zhang2020_hqt int8",
            int8_path(TrainingQuantizer::zhang2020_hqt()),
        ),
        ("zhu2019_hqt", f32_path(TrainingQuantizer::zhu2019_hqt())),
        ("zhong2020", f32_path(TrainingQuantizer::zhong2020())),
        (
            "ldq_only",
            f32_path(TrainingQuantizer::ldq_only(100, IntFormat::Int8)),
        ),
        ("zhu2019", f32_path(TrainingQuantizer::zhu2019())),
        ("wang2018", f32_path(TrainingQuantizer::wang2018(5))),
        (
            "zhang2020_hqt naive",
            f32_path(TrainingQuantizer::zhang2020_hqt()).with_backend(Backend::Naive),
        ),
    ];
    for relu in [true, false] {
        for (name, ctx) in &contexts {
            let mut model = Sequential::new();
            model.add(Conv2d::new("conv1", 3, 4, 3, 1, 1, 11));
            if relu {
                model.add(Relu::new());
            }
            model
                .add(MaxPool2d::new(2))
                .add(Flatten::new())
                .add(Dense::new("fc", 4 * 5 * 4, 5, 12));
            assert_eq!(model.len(), 4, "{name}");
            let mut layers = cnn_layers(relu);
            // Clones start with empty scratch arenas.
            let (ctx_a, ctx_b) = (ctx.clone(), ctx.clone());
            let (mut opt_a, mut opt_b) = (Adam::with_defaults(1e-2), Adam::with_defaults(1e-2));
            for step in 0..3 {
                let loss_a = model
                    .train_step(&x, &labels, &mut opt_a, &ctx_a)
                    .unwrap()
                    .loss;

                for p in params(&mut layers) {
                    p.zero_grad();
                }
                let mut cur = x.clone();
                for layer in &mut layers {
                    cur = layer.forward(&cur, &ctx_b).unwrap();
                }
                let out = softmax_cross_entropy(&cur, &labels).unwrap();
                let mut g = out.grad;
                for layer in layers.iter_mut().rev() {
                    g = layer.backward(&g, &ctx_b).unwrap();
                }
                opt_b.step(&mut params(&mut layers));

                assert_eq!(
                    loss_a.to_bits(),
                    out.loss.to_bits(),
                    "{name}, relu {relu}, step {step}"
                );
            }
            let fused_params: Vec<Vec<u32>> =
                model.params_mut().iter().map(|p| bits(&p.value)).collect();
            let hand_params: Vec<Vec<u32>> =
                params(&mut layers).iter().map(|p| bits(&p.value)).collect();
            assert_eq!(fused_params, hand_params, "{name}, relu {relu}");
        }
    }
}
