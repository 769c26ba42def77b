//! Cross-crate integration: the full quantized-training pipeline, from
//! synthetic data through the quantization-aware layers, the compiled ISA
//! programs on the functional machine, and the NDP optimizer.

use cq_accel::{
    compile_dense_forward, compile_weight_update, CqConfig, DenseLayout, Machine, UpdateLayout,
};
use cq_isa::{Instruction, Operand, Program, VecOp};
use cq_ndp::{NdpoRegs, OptimizerKind};
use cq_nn::{Adam, Dense, Layer, Optimizer, Param, QuantCtx, Relu, RmsProp, Sequential};
use cq_quant::TrainingQuantizer;
use cq_tensor::{init, ops, Tensor};

/// A quantized model converges on a real classification task and its
/// held-out accuracy stays within a tight envelope of FP32.
#[test]
fn quantized_cnn_training_tracks_fp32() {
    let train = cq_data::textures(120, 1, 8, 4, 0.25, 3);
    let test = cq_data::textures(120, 1, 8, 4, 0.25, 4);
    let mut accs = Vec::new();
    for quantizer in [
        TrainingQuantizer::fp32(),
        TrainingQuantizer::zhang2020_hqt(),
    ] {
        let mut model = Sequential::new();
        model
            .add(cq_nn::Conv2d::new("c", 1, 8, 3, 1, 1, 5))
            .add(Relu::new())
            .add(cq_nn::MaxPool2d::new(2))
            .add(cq_nn::Flatten::new())
            .add(Dense::new("fc", 128, 4, 6));
        let ctx = QuantCtx::new(quantizer);
        let mut opt = Adam::with_defaults(3e-3);
        for _ in 0..50 {
            model
                .train_step(&train.x, &train.labels, &mut opt, &ctx)
                .unwrap();
        }
        accs.push(model.evaluate(&test.x, &test.labels, &ctx).unwrap());
    }
    assert!(accs[0] > 0.7, "FP32 failed to learn: {}", accs[0]);
    assert!(
        accs[1] >= accs[0] - 0.1,
        "quantized {} vs fp32 {}",
        accs[1],
        accs[0]
    );
}

/// A whole training step executed as ISA programs on the functional
/// machine matches the cq-nn reference: forward matmul + NDPO update.
#[test]
fn machine_training_step_matches_reference() {
    let config = CqConfig::edge();
    let (m, k, n) = (64u32, 32u32, 16u32);
    let x = init::normal(&[m as usize, k as usize], 0.0, 1.0, 7);
    let w0 = init::normal(&[k as usize, n as usize], 0.0, 0.3, 8);
    let grads = init::normal(&[(k * n) as usize], 0.0, 0.05, 9);

    // --- machine side ---
    let weights_at = m * k;
    let out_at = weights_at + k * n;
    let grad_at = out_at + m * n;
    let m_at = grad_at + k * n;
    let v_at = m_at + k * n;
    let total = (v_at + k * n) as usize;
    let mut machine = Machine::new(config.clone(), total);
    machine.dram_mut()[..(m * k) as usize].copy_from_slice(x.data());
    machine.dram_mut()[weights_at as usize..out_at as usize].copy_from_slice(w0.data());
    machine.dram_mut()[grad_at as usize..m_at as usize].copy_from_slice(grads.data());
    let fwd = compile_dense_forward(
        &config,
        DenseLayout {
            input: 0,
            weight: weights_at * 4,
            output: out_at * 4,
        },
        m,
        k,
        n,
    );
    machine.run(&fwd).unwrap();
    let upd = compile_weight_update(
        &config,
        UpdateLayout {
            weight: weights_at * 4,
            m: m_at * 4,
            v: v_at * 4,
            grad: grad_at * 4,
        },
        k * n,
        OptimizerKind::RmsProp {
            lr: 0.01,
            beta: 0.9,
        },
        1,
    );
    machine.run(&upd).unwrap();

    // --- reference side ---
    let y_ref = ops::matmul(&x, &w0).unwrap();
    let y_mach = Tensor::from_vec(
        machine.dram()[out_at as usize..grad_at as usize].to_vec(),
        &[m as usize, n as usize],
    )
    .unwrap();
    assert!(y_ref.cosine_similarity(&y_mach).unwrap() > 0.999);

    let mut p = Param::new(w0.reshape(&[(k * n) as usize]).unwrap());
    p.grad = grads.clone();
    RmsProp::new(0.01, 0.9).step(&mut [&mut p]);
    for i in 0..(k * n) as usize {
        let mach = machine.dram()[weights_at as usize + i];
        let reference = p.value.data()[i];
        assert!(
            (mach - reference).abs() < 1e-4,
            "weight {i}: {mach} vs {reference}"
        );
    }
}

/// The machine's `RELU` and cq-nn's ReLU layer give the same bits on
/// signed zeros, NaNs, infinities, subnormals and a seeded activation
/// tensor, so a compiled activation agrees with the host reference.
#[test]
fn machine_relu_matches_nn_relu_bitwise() {
    let mut values = vec![
        0.0f32,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
    ];
    values.extend(init::normal(&[54], 0.0, 1.0, 21).data());
    let size = values.len() as u32;
    let x = Tensor::from_vec(values.clone(), &[values.len()]).unwrap();
    let want = Relu::new()
        .forward(&x, &QuantCtx::new(TrainingQuantizer::fp32()))
        .unwrap();

    let mut machine = Machine::new(CqConfig::edge(), 2 * values.len());
    machine.dram_mut()[..values.len()].copy_from_slice(&values);
    let mut p = Program::new();
    p.push(Instruction::Vload {
        dest: Operand::nbin(0),
        src: Operand::dram(0),
        size,
    })
    .push(Instruction::Vec {
        op: VecOp::Relu,
        dest: Operand::nbout(0),
        src1: Operand::nbin(0),
        src2: Operand::nbin(0),
        size,
    })
    .push(Instruction::Vstore {
        dest: Operand::dram(size * 4),
        src: Operand::nbout(0),
        size,
    });
    machine.run(&p).unwrap();
    let got = &machine.dram()[values.len()..];
    for (i, (g, w)) in got.iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "RELU({:?}): machine {g:?}, cq-nn {w:?}",
            values[i]
        );
    }
}

/// Training a real model while routing every weight update through the
/// NDPO datapath gives the same trajectory as the built-in optimizer.
#[test]
fn ndpo_driven_training_matches_adam() {
    let data = cq_data::gaussian_blobs(60, 6, 3, 0.4, 11);
    let kind = OptimizerKind::Adam {
        lr: 3e-3,
        beta1: 0.9,
        beta2: 0.999,
    };
    // Model A: built-in Adam.
    let mut model_a = Sequential::new();
    model_a
        .add(Dense::new("fc1", 6, 12, 1))
        .add(Relu::new())
        .add(Dense::new("fc2", 12, 3, 2));
    let mut opt = Adam::with_defaults(3e-3);
    // Model B: same layers, NDPO-updated.
    let mut model_b = Sequential::new();
    model_b
        .add(Dense::new("fc1", 6, 12, 1))
        .add(Relu::new())
        .add(Dense::new("fc2", 12, 3, 2));
    let mut ndpo_state: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    let ctx = QuantCtx::fp32();
    for t in 1..=20u32 {
        model_a
            .train_step(&data.x, &data.labels, &mut opt, &ctx)
            .unwrap();
        // Manual step for model B.
        model_b.zero_grads();
        let logits = model_b.forward(&data.x, &ctx).unwrap();
        let out = cq_nn::loss::softmax_cross_entropy(&logits, &data.labels).unwrap();
        model_b.backward(&out.grad, &ctx).unwrap();
        let regs = NdpoRegs::for_optimizer(kind, t);
        for (idx, p) in model_b.params_mut().into_iter().enumerate() {
            if ndpo_state.len() <= idx {
                ndpo_state.push((vec![0.0; p.len()], vec![0.0; p.len()]));
            }
            let (m, v) = &mut ndpo_state[idx];
            let g = p.grad.data().to_vec();
            regs.update_slice(p.value.data_mut(), m, v, &g);
        }
    }
    let acc_a = model_a.evaluate(&data.x, &data.labels, &ctx).unwrap();
    let acc_b = model_b.evaluate(&data.x, &data.labels, &ctx).unwrap();
    assert_eq!(acc_a, acc_b, "NDPO-trained model diverged from Adam");
}
