//! The two training workloads and their per-layer replays.
//!
//! `train_hqt` steps the six Table VIII proxies on the default f32
//! fake-quantization path; `train_int8` steps bench_perf's bench-CNN on
//! the dequantization-free integer path. Both time
//! [`Sequential::train_step`] untraced, and call its public parts in the
//! same order when traced.

use crate::runner::{span, time_serial, Pass, Workload, REPLAYS};
use crate::util::{stream_seed, Digest};
use cq_data::Dataset;
use cq_experiments::accuracy::ProxyTask;
use cq_nn::loss::softmax_cross_entropy;
use cq_nn::{
    Adam, Conv2d, Dense, Flatten, MaxPool2d, NnError, QuantCtx, QuantPath, Relu, Sequential,
};
use cq_par::conv::{conv2d_i8, ConvShape};
use cq_par::Pool;
use cq_quant::{IntDomainQuantizer, IntDomainScratch, QuantScratch, TrainingQuantizer};
use cq_tensor::ops::{self, Conv2dParams};
use cq_tensor::{init, Backend, Tensor};

/// A layer that quantizes its operands, described by the shapes its
/// forward and backward passes see (stride 1 throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QLayer {
    /// `Dense`: `x [b, i]`, `W [i, o]`, `∂y [b, o]`.
    Dense { b: usize, i: usize, o: usize },
    /// `Conv2d`: `x [n, c, hw, hw]`, `W [f, c, k, k]`, `∂y [n, f, oh, oh]`.
    Conv {
        n: usize,
        c: usize,
        hw: usize,
        f: usize,
        k: usize,
        pad: usize,
    },
}

impl QLayer {
    fn out_hw(hw: usize, k: usize, pad: usize) -> usize {
        hw + 2 * pad + 1 - k
    }

    /// Shapes of `x`, `W` and `∂y`.
    pub fn dims(&self) -> [Vec<usize>; 3] {
        match *self {
            QLayer::Dense { b, i, o } => [vec![b, i], vec![i, o], vec![b, o]],
            QLayer::Conv {
                n,
                c,
                hw,
                f,
                k,
                pad,
            } => {
                let oh = Self::out_hw(hw, k, pad);
                [vec![n, c, hw, hw], vec![f, c, k, k], vec![n, f, oh, oh]]
            }
        }
    }

    /// Multiply-accumulates of one of the layer's three GEMM-shaped
    /// kernels (forward, weight gradient and input gradient all match).
    pub fn macs(&self) -> u64 {
        let m = match *self {
            QLayer::Dense { b, i, o } => b * i * o,
            QLayer::Conv {
                n,
                c,
                hw,
                f,
                k,
                pad,
            } => {
                let oh = Self::out_hw(hw, k, pad);
                n * f * oh * oh * c * k * k
            }
        };
        m as u64
    }
}

const fn conv(n: usize, c: usize, f: usize, k: usize, pad: usize) -> QLayer {
    QLayer::Conv {
        n,
        c,
        hw: 8,
        f,
        k,
        pad,
    }
}

/// The quantizing layers of each proxy as `ProxyTask::build` wires them,
/// on its full training batch (160 texture images, 128 sequences).
/// Attention and LSTM cells quantize inside their own kernels and are
/// not replayed; their classifier heads are.
pub fn proxy_layers(task: ProxyTask) -> Vec<QLayer> {
    let dense = |b, i, o| QLayer::Dense { b, i, o };
    match task {
        ProxyTask::AlexNet => vec![conv(160, 1, 8, 3, 1), dense(160, 128, 4)],
        ProxyTask::ResNet18 => vec![
            conv(160, 1, 8, 3, 1),
            conv(160, 8, 8, 3, 1),
            dense(160, 128, 4),
        ],
        ProxyTask::GoogLeNet => vec![
            conv(160, 1, 12, 3, 1),
            dense(160, 192, 16),
            dense(160, 16, 4),
        ],
        ProxyTask::SqueezeNet => vec![
            conv(160, 1, 4, 1, 0),
            conv(160, 4, 8, 3, 1),
            dense(160, 128, 4),
        ],
        ProxyTask::Transformer => vec![dense(128, 12, 4)],
        ProxyTask::Lstm => vec![dense(128, 16, 5)],
    }
}

/// The bench-CNN's quantizing layers on one 32-image minibatch.
pub const CNN_LAYERS: [QLayer; 2] = [
    QLayer::Conv {
        n: 32,
        c: 3,
        hw: 32,
        f: 32,
        k: 3,
        pad: 1,
    },
    QLayer::Dense {
        b: 32,
        i: 32 * 16 * 16,
        o: 10,
    },
];

/// One training step. Untraced it is exactly `train_step`; traced it
/// calls `train_step`'s public parts in the same order, each in a span.
fn step(
    model: &mut Sequential,
    data: &Dataset,
    opt: &mut Adam,
    ctx: &QuantCtx,
    op: usize,
    traced: bool,
) -> Result<f32, NnError> {
    if !traced {
        return model
            .train_step(&data.x, &data.labels, opt, ctx)
            .map(|r| r.loss);
    }
    {
        let _sp = span("nn.optimizer", op);
        model.zero_grads();
    }
    let logits = {
        let _sp = span("nn.forward", op);
        model.forward(&data.x, ctx)?
    };
    let out = {
        let _sp = span("nn.loss", op);
        softmax_cross_entropy(&logits, &data.labels)?
    };
    {
        let _sp = span("nn.backward", op);
        model.backward(&out.grad, ctx)?;
    }
    {
        let _sp = span("nn.optimizer", op);
        model.step_optimizer(opt);
    }
    Ok(out.loss)
}

/// Folds one step's outcome into the digest; `false` when it failed.
fn record(digest: &mut Digest, loss: Result<f32, NnError>) -> bool {
    match loss {
        Ok(l) if l.is_finite() => {
            digest.write(&l.to_bits().to_le_bytes());
            true
        }
        _ => false,
    }
}

fn hqt_ctx(path: QuantPath) -> QuantCtx {
    QuantCtx::new(TrainingQuantizer::zhang2020_hqt())
        .with_backend(Backend::Fast)
        .with_path(path)
}

/// Operands of one quantizing layer, generated once for the replays.
struct Operands {
    layer: QLayer,
    x: Tensor,
    w: Tensor,
    gy: Tensor,
}

impl Operands {
    fn new(layer: QLayer, seed: u64) -> Self {
        let [xd, wd, yd] = layer.dims();
        Operands {
            layer,
            x: init::normal(&xd, 0.0, 1.0, seed),
            w: init::normal(&wd, 0.0, 0.1, seed + 1),
            gy: init::long_tailed(&yd, 0.01, 0.01, 30.0, seed + 2),
        }
    }
}

/// Times the public entry points of cq-quant and cq-par on the exact
/// operand shapes one op's layers quantize and multiply, for `replays`
/// evenly spaced op indices of a pass of `ops` ops. The layers call the
/// same entry points from inside `forward`/`backward`, where the
/// benchmark cannot reach them; these spans are the outside estimate.
fn replay_layers(layers: &[QLayer], path: QuantPath, ops: usize, replays: usize, seed: u64) {
    let operands: Vec<Operands> = layers
        .iter()
        .enumerate()
        .map(|(i, &l)| Operands::new(l, stream_seed(seed, 7000 + i as u64)))
        .collect();
    let quantizer = TrainingQuantizer::zhang2020_hqt();
    let int_quantizer = IntDomainQuantizer::hardware_default();
    let mut scratch = QuantScratch::new();
    let mut int_scratch = IntDomainScratch::new();
    let mut out = Vec::new();
    let (mut xc, mut wc, mut acc) = (Vec::new(), Vec::new(), Vec::new());
    let be = Backend::Fast;
    for r in 0..replays.min(ops) {
        let op = r * ops / replays.min(ops);
        for o in &operands {
            let int8 = path == QuantPath::Int8;
            // The int path quantizes x and W in the integer domain and
            // only the incoming gradient on the f32 path.
            let fake: Vec<&Tensor> = if int8 {
                vec![&o.gy]
            } else {
                vec![&o.x, &o.w, &o.gy]
            };
            for t in fake {
                let mut sp = span("quant.fake_quantize", op);
                sp.arg("elems", t.len());
                quantizer.fake_quantize_into(t, &mut out, &mut scratch);
            }
            if int8 {
                for (t, codes) in [(&o.x, &mut xc), (&o.w, &mut wc)] {
                    let mut sp = span("quant.intdomain", op);
                    sp.arg("elems", t.len());
                    let _ = int_quantizer.quantize_into(t.data(), codes, &mut int_scratch);
                }
                let mut sp = span("par.i8", op);
                sp.arg("macs", o.layer.macs());
                match o.layer {
                    QLayer::Dense { b, i, o: n } => {
                        acc.resize(b * n, 0);
                        cq_par::gemm_i8(b, i, n, &xc, &wc, &mut acc, Pool::global());
                    }
                    QLayer::Conv {
                        n,
                        c,
                        hw,
                        f,
                        k,
                        pad,
                    } => {
                        let oh = QLayer::out_hw(hw, k, pad);
                        let shape = ConvShape {
                            n,
                            c,
                            h: hw,
                            w: hw,
                            f,
                            kh: k,
                            kw: k,
                            stride: 1,
                            padding: pad,
                            oh,
                            ow: oh,
                        };
                        acc.resize(n * shape.out_len(), 0);
                        conv2d_i8(&shape, &xc, &wc, &mut acc, Pool::global());
                    }
                }
            }
            let kernel = |name: &'static str| {
                let mut sp = span("par.f32", op);
                sp.arg("kernel", name).arg("macs", o.layer.macs());
                sp
            };
            let f32_kernels = || -> Result<(), cq_tensor::TensorError> {
                match o.layer {
                    QLayer::Dense { .. } => {
                        if !int8 {
                            let _sp = kernel("matmul");
                            ops::matmul_with(be, &o.x, &o.w)?;
                        }
                        {
                            let _sp = kernel("matmul_at");
                            ops::matmul_at_with(be, &o.x, &o.gy)?;
                        }
                        let _sp = kernel("matmul_bt");
                        ops::matmul_bt_with(be, &o.gy, &o.w)?;
                    }
                    QLayer::Conv { pad, .. } => {
                        let p = Conv2dParams::new(1, pad);
                        if !int8 {
                            let _sp = kernel("conv2d");
                            ops::conv2d_with(be, &o.x, &o.w, p)?;
                        }
                        {
                            let _sp = kernel("conv2d_grad_weight");
                            ops::conv2d_grad_weight_with(be, &o.x, &o.gy, o.w.dims(), p)?;
                        }
                        let _sp = kernel("conv2d_grad_input");
                        ops::conv2d_grad_input_with(be, &o.gy, &o.w, o.x.dims(), p)?;
                    }
                }
                Ok(())
            };
            f32_kernels().expect("replay shapes are consistent by construction");
        }
    }
}

struct Proxy {
    model: Sequential,
    train: Dataset,
    test: Dataset,
    ctx: QuantCtx,
    opt: Adam,
}

/// `train_hqt`: one full-batch `train_step` on each of the six Table
/// VIII proxies per op, under `zhang2020_hqt` on the f32 path.
pub struct TrainHqt {
    seed: u64,
    proxies: Vec<Proxy>,
}

impl TrainHqt {
    fn op(&mut self, op: usize, traced: bool, digest: &mut Digest) -> bool {
        let mut ok = true;
        for p in &mut self.proxies {
            let loss = step(&mut p.model, &p.train, &mut p.opt, &p.ctx, op, traced);
            ok &= record(digest, loss);
        }
        ok
    }
}

impl Workload for TrainHqt {
    const NAME: &'static str = "train_hqt";
    const COMPOSITION: &'static str = "one full-batch train_step on each of the six Table VIII \
        proxies (896 samples), zhang2020_hqt, fp32 path, Backend::Fast, Adam 3e-3";
    const NOMINAL_OPS_PER_S: f64 = 34.0;
    const WARMUP_OPS: usize = 12;

    fn setup(seed: u64) -> Result<Self, String> {
        let proxies = ProxyTask::ALL
            .iter()
            .map(|task| {
                let (model, train, test) = task.build(seed);
                Proxy {
                    model,
                    train,
                    test,
                    ctx: hqt_ctx(QuantPath::Fp32),
                    opt: Adam::with_defaults(3e-3),
                }
            })
            .collect();
        let mut w = TrainHqt { seed, proxies };
        let mut warm = Digest::default();
        for i in 0..Self::WARMUP_OPS {
            if !w.op(i, false, &mut warm) {
                return Err(format!("train_hqt warm-up step {i} failed"));
            }
        }
        Ok(w)
    }

    fn run(&mut self, ops: usize, traced: bool) -> Pass {
        let mut digest = Digest::default();
        let (timings, failed) = time_serial(ops, |i| self.op(i, traced, &mut digest));
        let accs: Vec<Option<f64>> = self
            .proxies
            .iter_mut()
            .map(|p| p.model.evaluate(&p.test.x, &p.test.labels, &p.ctx).ok())
            .collect();
        let checks_ok = accs.iter().all(Option::is_some);
        let heldout_acc = accs.iter().map(|a| a.unwrap_or(0.0)).sum::<f64>() / accs.len() as f64;
        Pass {
            timings,
            failed,
            digest: digest.value(),
            heldout_acc,
            checks_ok,
        }
    }

    fn replay(&mut self, pass: &Pass) -> Vec<(&'static str, f64)> {
        let layers: Vec<QLayer> = ProxyTask::ALL
            .iter()
            .flat_map(|&t| proxy_layers(t))
            .collect();
        replay_layers(&layers, QuantPath::Fp32, pass.ops(), REPLAYS, self.seed);
        Vec::new()
    }
}

/// The bench-CNN of `bench_perf`: conv 3→32 k3 p1, ReLU, 2×2 max-pool,
/// dense 8192→10, with seeded initial weights.
pub fn bench_cnn(seed: u64) -> Sequential {
    let mut model = Sequential::new();
    model
        .add(Conv2d::new("conv1", 3, 32, 3, 1, 1, stream_seed(seed, 1)))
        .add(Relu::new())
        .add(MaxPool2d::new(2))
        .add(Flatten::new())
        .add(Dense::new("fc", 32 * 16 * 16, 10, stream_seed(seed, 2)));
    model
}

/// Distinct training minibatches cycled through by `train_int8`.
pub const CNN_BATCHES: usize = 16;

/// Pixel noise of the bench-CNN's textures. At 0.25 every run ends at a
/// held-out accuracy of exactly 1, which hides any change in the
/// arithmetic; at 0.5 a run of a few hundred steps ends near 1, and on
/// some seeds just below it.
pub const CNN_NOISE: f32 = 0.5;

/// One seeded 32×3×32×32 texture minibatch (ten classes).
pub fn cnn_batch(seed: u64, index: usize) -> Dataset {
    cq_data::textures(
        32,
        3,
        32,
        10,
        CNN_NOISE,
        stream_seed(seed, 100 + index as u64),
    )
}

/// `train_int8`: one minibatch step of the bench-CNN per op, under
/// `zhang2020_hqt` on the integer path.
pub struct TrainInt8 {
    seed: u64,
    model: Sequential,
    batches: Vec<Dataset>,
    heldout: Dataset,
    ctx: QuantCtx,
    opt: Adam,
    /// Steps taken so far; selects the next minibatch.
    steps: usize,
}

impl TrainInt8 {
    fn op(&mut self, op: usize, traced: bool, digest: &mut Digest) -> bool {
        let batch = &self.batches[self.steps % CNN_BATCHES];
        self.steps += 1;
        let loss = step(&mut self.model, batch, &mut self.opt, &self.ctx, op, traced);
        record(digest, loss)
    }
}

impl Workload for TrainInt8 {
    const NAME: &'static str = "train_int8";
    const COMPOSITION: &'static str = "one 32-image minibatch train_step of the bench-CNN \
        (conv 3->32 k3 p1, ReLU, maxpool 2, dense 8192->10), zhang2020_hqt, int8 path, \
        Backend::Fast, Adam 1e-3";
    const NOMINAL_OPS_PER_S: f64 = 21.0;
    const WARMUP_OPS: usize = 8;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = TrainInt8 {
            seed,
            model: bench_cnn(seed),
            batches: (0..CNN_BATCHES).map(|j| cnn_batch(seed, j)).collect(),
            heldout: cq_data::textures(320, 3, 32, 10, CNN_NOISE, stream_seed(seed, 99)),
            ctx: hqt_ctx(QuantPath::Int8),
            opt: Adam::with_defaults(1e-3),
            steps: 0,
        };
        let mut warm = Digest::default();
        for i in 0..Self::WARMUP_OPS {
            if !w.op(i, false, &mut warm) {
                return Err(format!("train_int8 warm-up step {i} failed"));
            }
        }
        // One held-out evaluation ends the set-up. Its 320-image
        // activations are the largest blocks the process frees, which
        // lifts the C allocator's mmap and trim thresholds to their caps,
        // as any run that evaluates has done after its first evaluation.
        // Without it the heap is trimmed and faulted back in on every
        // step, and the first timed pass costs 15–20% more CPU than a
        // later one in the same process.
        w.model
            .evaluate(&w.heldout.x, &w.heldout.labels, &w.ctx)
            .map_err(|e| format!("train_int8 warm-up evaluation: {e}"))?;
        Ok(w)
    }

    fn run(&mut self, ops: usize, traced: bool) -> Pass {
        let mut digest = Digest::default();
        let (timings, failed) = time_serial(ops, |i| self.op(i, traced, &mut digest));
        let acc = self
            .model
            .evaluate(&self.heldout.x, &self.heldout.labels, &self.ctx)
            .ok();
        Pass {
            timings,
            failed,
            digest: digest.value(),
            heldout_acc: acc.unwrap_or(0.0),
            checks_ok: acc.is_some(),
        }
    }

    fn replay(&mut self, pass: &Pass) -> Vec<(&'static str, f64)> {
        replay_layers(&CNN_LAYERS, QuantPath::Int8, pass.ops(), REPLAYS, self.seed);
        let stats = self.ctx.int_stats();
        vec![
            ("quant.ladder_hit_rate", stats.hit_rate().unwrap_or(0.0)),
            ("quant.ladder_fallbacks", stats.fallbacks() as f64),
        ]
    }
}
