//! `bench_perf` — perf-regression harness for the compute backends.
//!
//! Times every dense kernel, the fused quantization kernels, whole
//! training steps, and a memoized simulation sweep under both the `Naive`
//! reference path and the `Fast` path, then writes a machine-readable
//! report. CI runs `--quick --check --baseline BENCH_PR10.json` and fails
//! the build if `Fast` falls below 3.0x over `Naive` on the reference
//! GEMM shape (512×512×512), if the integer-domain `gemm_i8` kernel
//! falls below 2.0x over the f32 fast path on the same shape, or if any
//! gated entry (serial quant kernels, the gemm/conv family, train
//! steps) drops below its recorded baseline speedup — kernels retain
//! 85%, whole train steps 60% (noisier; see [`TRAIN_STEP_RETAIN`]).
//!
//! ```text
//! bench_perf [--quick] [--check] [--out PATH] [--baseline PATH] [--profile PATH]
//!
//!   --quick         reduced shape set and repetition count (CI smoke mode)
//!   --check         exit non-zero if Fast is below 3.0x over Naive on
//!                   the reference 512x512x512 GEMM, gemm_i8 is below
//!                   2.0x over the f32 fast path on the same shape, or
//!                   a gated entry regresses >15% below the baseline
//!                   report
//!   --out PATH      write the JSON report here (default:
//!                   BENCH_PR10_ci.json, which git ignores)
//!   --baseline PATH a previous report to gate speedups against; naming
//!                   the --out file too exits 2 before any timing
//!   --profile PATH  write a cq-obs trace here (overrides CQ_TRACE); a
//!                   .jsonl path gets the line sink, any other a Chrome
//!                   trace_event file
//! ```
//!
//! Report schema (hand-written JSON, no serde):
//!
//! ```json
//! {
//!   "pr": 10,
//!   "threads": 4,
//!   "quick": false,
//!   "entries": [
//!     { "op": "gemm", "shape": "512x512x512",
//!       "ns_naive": 1, "ns_fast": 1, "speedup": 1.0 }
//!   ]
//! }
//! ```
//!
//! The int8 entries carry an additional `"extra": {...}` object with
//! facts that don't fit the naive/fast nanosecond pair: `gemm_i8`
//! records which SIMD micro-kernel dispatched, and each
//! `train_step_int8` entry records the pow2-ladder hit rate the integer
//! path achieved on that network (hits are layer forwards that stayed in
//! the integer domain; fallbacks re-ran in f32).
//!
//! Quant entries without a `-pooled` suffix stay below the fast path's
//! parallel threshold, so their speedups measure the fused single-pass
//! kernels at one worker and are stable across machines — those are
//! baseline-gated. The gemm/conv/train_step entries are also gated:
//! their speedups come from the blocked SIMD GEMM, whose Fast-vs-Naive
//! ratio is a same-process A/B and therefore stable even though the
//! absolute times are not. `-pooled` shapes cross the threshold and
//! scale with the core count; `hwcost_sweep` times re-simulation with
//! the `HwCostCache` disabled (`ns_naive`) vs enabled and warm
//! (`ns_fast`), and `mapping_search_quick` does the same A/B for the
//! per-layer mapping search memo.
//!
//! Times are nanoseconds for the best (minimum) of `reps` timed runs
//! after one warmup, so the numbers measure the kernels, not the
//! allocator or the OS scheduler.

use cq_accel::{clear_sim_cache, CambriconQ};
use cq_experiments::accuracy::ProxyTask;
use cq_ndp::OptimizerKind;
use cq_nn::{Adam, Conv2d, Dense, Flatten, MaxPool2d, QuantCtx, QuantPath, Relu, Sequential};
use cq_obs::json::Json;
use cq_par::Pool;
use cq_quant::{E2bqmQuantizer, IntFormat, LdqConfig, LdqTensor, TrainingQuantizer};
use cq_tensor::ops::{self, Conv2dParams};
use cq_tensor::{init, Backend, Tensor};
use cq_workloads::models;
use std::time::Instant;

/// The shape whose Fast-vs-Naive ratio gates CI (`--check`).
const REFERENCE_GEMM: (usize, usize, usize) = (512, 512, 512);

/// Minimum Fast-vs-Naive speedup `--check` demands on the reference
/// GEMM. The blocked SIMD kernel clears 3x even on the scalar
/// micro-kernels, so anything below this means the fast path broke.
const REFERENCE_MIN_SPEEDUP: f64 = 3.0;

/// Minimum `gemm_i8`-vs-f32-fast-path speedup `--check` demands on the
/// reference shape at one worker. The k-pair packed i16 kernels move
/// half the bytes of f32 and retire twice the lanes per instruction, so
/// 2x holds even on the scalar micro-kernel; below it the integer
/// datapath stopped paying for itself and the dequantization-free story
/// is broken.
const INT8_MIN_SPEEDUP: f64 = 2.0;

/// Ops whose serial (non-`-pooled`) entries are gated against a
/// `--baseline` report: a >15% speedup drop fails `--check`.
const GATED_QUANT_OPS: [&str; 3] = ["ldq_quantize", "e2bqm_quantize_blocks", "fake_quantize"];

/// Dense-compute ops gated the same way. Their Fast-vs-Naive ratios are
/// same-process A/Bs of the blocked GEMM against the reference loops,
/// so they are stable enough to gate even though absolute times vary
/// by host.
const GATED_COMPUTE_OPS: [&str; 9] = [
    "gemm",
    "gemm_at",
    "gemm_bt",
    "gemm_i8",
    "conv2d",
    "conv2d_grad_input",
    "conv2d_grad_weight",
    "train_step",
    "train_step_int8",
];

/// Fraction of the baseline speedup a gated entry must retain.
const BASELINE_RETAIN: f64 = 0.85;

/// Looser retention floor for `train_step` entries: a whole training
/// step times the allocator, quantizers, and optimizer alongside the
/// kernels, and its Fast side is short enough that quick-mode runs
/// swing ±20% run to run. 60% still trips on a real fast-path
/// collapse (losing SIMD alone costs more than that on the CNN steps)
/// without flaking on scheduler noise.
const TRAIN_STEP_RETAIN: f64 = 0.60;

struct Entry {
    op: &'static str,
    shape: String,
    ns_naive: u64,
    ns_fast: u64,
    /// Optional extra JSON object (already rendered) appended to the
    /// entry as `"extra": {...}` — facts that don't fit the naive/fast
    /// pair, such as the dispatched SIMD kernel.
    extra: Option<String>,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.ns_naive as f64 / self.ns_fast.max(1) as f64
    }
}

/// Best-of-`reps` wall time in nanoseconds, after one warmup call.
fn best_ns<F: FnMut()>(mut f: F, reps: usize) -> u64 {
    f();
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Times one closure under both backends.
fn ab<F: FnMut(Backend)>(mut f: F, reps: usize) -> (u64, u64) {
    let naive = best_ns(|| f(Backend::Naive), reps);
    let fast = best_ns(|| f(Backend::Fast), reps);
    (naive, fast)
}

fn gemm_entry(op: &'static str, m: usize, k: usize, n: usize, reps: usize) -> Entry {
    let _sp = cq_obs::span!("bench", "{op} {m}x{k}x{n}");
    let (a_dims, b_dims): (Vec<usize>, Vec<usize>) = match op {
        "gemm" => (vec![m, k], vec![k, n]),
        "gemm_at" => (vec![k, m], vec![k, n]),
        "gemm_bt" => (vec![m, k], vec![n, k]),
        _ => unreachable!("unknown gemm op"),
    };
    let a = init::uniform(&a_dims, -1.0, 1.0, 11);
    let b = init::uniform(&b_dims, -1.0, 1.0, 13);
    let (ns_naive, ns_fast) = ab(
        |be| {
            let _ = match op {
                "gemm" => ops::matmul_with(be, &a, &b),
                "gemm_at" => ops::matmul_at_with(be, &a, &b),
                _ => ops::matmul_bt_with(be, &a, &b),
            }
            .expect("bench gemm");
        },
        reps,
    );
    Entry {
        op,
        shape: format!("{m}x{k}x{n}"),
        ns_naive,
        ns_fast,
        extra: None,
    }
}

#[allow(clippy::too_many_arguments)]
fn conv_entries(
    n: usize,
    c: usize,
    f: usize,
    hw: usize,
    k: usize,
    stride: usize,
    padding: usize,
    reps: usize,
) -> Vec<Entry> {
    let _sp = cq_obs::span!("bench", "conv2d n{n}c{c}f{f}i{hw}k{k}");
    let p = Conv2dParams::new(stride, padding);
    let input = init::uniform(&[n, c, hw, hw], -1.0, 1.0, 17);
    let weight = init::uniform(&[f, c, k, k], -1.0, 1.0, 19);
    let shape = format!("n{n}c{c}f{f}i{hw}k{k}s{stride}p{padding}");
    let fwd = ops::conv2d_with(Backend::Naive, &input, &weight, p).expect("bench conv");
    let gout = init::uniform(fwd.dims(), -1.0, 1.0, 23);

    let (fwd_n, fwd_f) = ab(
        |be| {
            let _ = ops::conv2d_with(be, &input, &weight, p).expect("bench conv");
        },
        reps,
    );
    let (gi_n, gi_f) = ab(
        |be| {
            let _ = ops::conv2d_grad_input_with(be, &gout, &weight, input.dims(), p)
                .expect("bench conv grad_input");
        },
        reps,
    );
    let (gw_n, gw_f) = ab(
        |be| {
            let _ = ops::conv2d_grad_weight_with(be, &input, &gout, weight.dims(), p)
                .expect("bench conv grad_weight");
        },
        reps,
    );
    vec![
        Entry {
            op: "conv2d",
            shape: shape.clone(),
            ns_naive: fwd_n,
            ns_fast: fwd_f,
            extra: None,
        },
        Entry {
            op: "conv2d_grad_input",
            shape: shape.clone(),
            ns_naive: gi_n,
            ns_fast: gi_f,
            extra: None,
        },
        Entry {
            op: "conv2d_grad_weight",
            shape,
            ns_naive: gw_n,
            ns_fast: gw_f,
            extra: None,
        },
    ]
}

/// One full training step (fwd + loss + bwd + update) of a model on a
/// batch, A/B'd across backends with identical seeds.
fn train_step_entry(
    op: &'static str,
    shape: String,
    build: impl Fn() -> (Sequential, Tensor, Vec<usize>),
    reps: usize,
) -> Entry {
    let _sp = cq_obs::span!("bench", "{op} {shape}");
    let time_backend = |be: Backend| {
        let (mut model, x, labels) = build();
        let ctx = QuantCtx::new(TrainingQuantizer::fp32()).with_backend(be);
        let mut opt = Adam::with_defaults(1e-3);
        best_ns(
            || {
                model
                    .train_step(&x, &labels, &mut opt, &ctx)
                    .expect("bench train step");
            },
            reps,
        )
    };
    Entry {
        op,
        shape,
        ns_naive: time_backend(Backend::Naive),
        ns_fast: time_backend(Backend::Fast),
        extra: None,
    }
}

/// A CNN sized so the convolutions dominate the step: batch 32 of
/// 3×32×32 images through conv(3→32, k3, p1) → pool → dense.
fn bench_cnn() -> (Sequential, Tensor, Vec<usize>) {
    let mut model = Sequential::new();
    model
        .add(Conv2d::new("conv1", 3, 32, 3, 1, 1, 7))
        .add(Relu::new())
        .add(MaxPool2d::new(2))
        .add(Flatten::new())
        .add(Dense::new("fc", 32 * 16 * 16, 10, 8));
    let data = cq_data::textures(32, 3, 32, 10, 0.25, 99);
    (model, data.x, data.labels)
}

/// The dequantization-free integer datapath against the f32 fast path
/// on identical operand values: `ns_naive` is the blocked f32 SIMD GEMM
/// and `ns_fast` is its i8 instantiation (i8×i8→i32, k-pair packed i16
/// madd), both pinned to a one-worker pool so the ratio is
/// host-independent and gateable, like the `-serial` quant entries. The f32 operands are
/// exact images of the i8 codes, so both sides compute the same
/// mathematical product — the speedup is purely the datapath width win
/// the integer path buys. `extra` records which micro-kernel family
/// dispatched.
fn int8_gemm_entry(m: usize, k: usize, n: usize, reps: usize) -> Entry {
    let _sp = cq_obs::span!("bench", "gemm_i8 {m}x{k}x{n}");
    let serial = Pool::new(1);
    let mut state = 0x243F_6A88u32;
    let mut next_i8 = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 24) as i8
    };
    let a_i8: Vec<i8> = (0..m * k).map(|_| next_i8()).collect();
    let b_i8: Vec<i8> = (0..k * n).map(|_| next_i8()).collect();
    let a_f: Vec<f32> = a_i8.iter().map(|&v| f32::from(v)).collect();
    let b_f: Vec<f32> = b_i8.iter().map(|&v| f32::from(v)).collect();
    let mut out_f = vec![0.0f32; m * n];
    let mut out_i = vec![0i32; m * n];
    let ns_naive = best_ns(
        || cq_par::gemm(m, k, n, &a_f, &b_f, &mut out_f, &serial),
        reps,
    );
    let ns_fast = best_ns(
        || cq_par::gemm(m, k, n, &a_i8, &b_i8, &mut out_i, &serial),
        reps,
    );
    Entry {
        op: "gemm_i8",
        shape: format!("{m}x{k}x{n}-serial"),
        ns_naive,
        ns_fast,
        extra: Some(format!(
            "{{\"vs\": \"f32_fast_path\", \"simd\": \"{}\"}}",
            cq_par::simd_level().name()
        )),
    }
}

/// One full training step under `CQ_QUANT_PATH`-style A/B: `ns_naive`
/// trains with the fake-quantizing f32 path (quantize → dequantize →
/// f32 GEMM) and `ns_fast` with the integer path (quantize once →
/// i8×i8→i32 GEMM → single rescale), both on `Backend::Fast` with the
/// same HQT quantizer and seeds. `extra` records the pow2-ladder hit
/// rate the integer path achieved on this network: hits are layer
/// forwards that stayed in the integer domain, fallbacks re-ran in f32
/// because a block's scale left the power-of-two ladder.
fn int_train_step_entry(
    shape: String,
    build: impl Fn() -> (Sequential, Tensor, Vec<usize>),
    reps: usize,
) -> Entry {
    let _sp = cq_obs::span!("bench", "train_step_int8 {shape}");
    let time_path = |path: QuantPath| {
        let (mut model, x, labels) = build();
        let ctx = QuantCtx::new(TrainingQuantizer::zhang2020_hqt())
            .with_backend(Backend::Fast)
            .with_path(path);
        let stats = ctx.int_stats();
        let mut opt = Adam::with_defaults(1e-3);
        let ns = best_ns(
            || {
                model
                    .train_step(&x, &labels, &mut opt, &ctx)
                    .expect("bench int train step");
            },
            reps,
        );
        (ns, stats)
    };
    let (ns_naive, _) = time_path(QuantPath::Fp32);
    let (ns_fast, stats) = time_path(QuantPath::Int8);
    let extra = format!(
        "{{\"ladder_hit_rate\": {:.4}, \"hits\": {}, \"fallbacks\": {}}}",
        stats.hit_rate().unwrap_or(0.0),
        stats.hits(),
        stats.fallbacks(),
    );
    Entry {
        op: "train_step_int8",
        shape,
        ns_naive,
        ns_fast,
        extra: Some(extra),
    }
}

/// Quant-kernel entries. The serial shapes (16 Ki elements) sit below
/// `cq_quant::fast::PAR_MIN_ELEMS`, so `Backend::Fast` takes the fused
/// single-pass kernel on one worker — these appear in both quick and full
/// modes under identical shape strings so `--baseline` gating works. The
/// full mode adds `-pooled` shapes that cross the threshold and exercise
/// the block fan-out.
fn quant_entries(reps: usize, quick: bool) -> Vec<Entry> {
    let _sp = cq_obs::span!("bench", "quant kernels");
    let mut entries = Vec::new();
    let t = init::long_tailed(&[16384], 0.1, 0.01, 30.0, 31);

    let cfg = LdqConfig::new(256, IntFormat::Int8);
    let (ns_naive, ns_fast) = ab(
        |be| {
            let _ = LdqTensor::quantize_with(&t, cfg, be);
        },
        reps,
    );
    entries.push(Entry {
        op: "ldq_quantize",
        shape: "16384xK256-int8".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    let q = E2bqmQuantizer::hardware_default();
    let (ns_naive, ns_fast) = ab(
        |be| {
            let _ = q.quantize_blocks_with(&t, 256, be);
        },
        reps,
    );
    entries.push(Entry {
        op: "e2bqm_quantize_blocks",
        shape: "16384xK256-w4".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    // Cosine arbitration (the zhu2019-style multiplex): the naive path
    // re-derives ‖x‖ per candidate; the fused path shares the statistic.
    let qc = E2bqmQuantizer::new(
        4,
        cq_quant::CandidateStrategy::ClipSweep,
        cq_quant::ErrorEstimator::Cosine,
        IntFormat::Int8,
    );
    let (ns_naive, ns_fast) = ab(
        |be| {
            let _ = qc.quantize_blocks_with(&t, 256, be);
        },
        reps,
    );
    entries.push(Entry {
        op: "e2bqm_quantize_blocks",
        shape: "16384xK256-w4-cosine".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    let tq = TrainingQuantizer::zhang2020_hqt();
    let ns_naive = best_ns(
        || {
            let _ = tq.fake_quantize_naive(&t);
        },
        reps,
    );
    let ns_fast = best_ns(
        || {
            let _ = tq.fake_quantize_fast(&t);
        },
        reps,
    );
    entries.push(Entry {
        op: "fake_quantize",
        shape: "hqt-zhang2020-16384".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    // The same tensor as a 2×2 max-pool backward leaves a gradient: each
    // window of every 32×32 plane keeps its largest-magnitude element and
    // zeroes the other three. The fused evaluation skips the 75% zeros,
    // so this entry shows that gain next to the dense one above.
    let scattered = maxpool_scatter(&t, 32);
    let ns_naive = best_ns(
        || {
            let _ = tq.fake_quantize_naive(&scattered);
        },
        reps,
    );
    let ns_fast = best_ns(
        || {
            let _ = tq.fake_quantize_fast(&scattered);
        },
        reps,
    );
    entries.push(Entry {
        op: "fake_quantize",
        shape: "hqt-zhang2020-16384-maxpool-scatter".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    // Out-of-cache serial entries: 1 MiB of f32 exceeds L2, which is
    // where the naive path's per-block tensor allocations and extra
    // passes hurt most and the fused single-pass kernels shine. Pinned
    // to a one-worker pool so the measurement is host-independent (and
    // therefore gateable), whatever `CQ_THREADS` says.
    let serial = Pool::new(1);
    let big_serial = init::long_tailed(&[1 << 18], 0.1, 0.01, 30.0, 29);
    let cfg = LdqConfig::new(256, IntFormat::Int8);
    let ns_naive = best_ns(
        || {
            let _ = LdqTensor::quantize_naive(&big_serial, cfg);
        },
        reps,
    );
    let ns_fast = best_ns(
        || {
            let _ = LdqTensor::quantize_fast_on(&serial, &big_serial, cfg);
        },
        reps,
    );
    entries.push(Entry {
        op: "ldq_quantize",
        shape: "262144xK256-int8-serial".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    let ns_naive = best_ns(
        || {
            let _ = qc.quantize_blocks_naive(&big_serial, 256);
        },
        reps,
    );
    let ns_fast = best_ns(
        || {
            let _ = qc.quantize_blocks_fast_on(&serial, &big_serial, 256);
        },
        reps,
    );
    entries.push(Entry {
        op: "e2bqm_quantize_blocks",
        shape: "262144xK256-w4-cosine-serial".into(),
        ns_naive,
        ns_fast,
        extra: None,
    });

    if !quick {
        let big = init::long_tailed(&[1 << 21], 0.1, 0.01, 30.0, 37);
        let cfg = LdqConfig::new(1024, IntFormat::Int8);
        let (ns_naive, ns_fast) = ab(
            |be| {
                let _ = LdqTensor::quantize_with(&big, cfg, be);
            },
            reps,
        );
        entries.push(Entry {
            op: "ldq_quantize",
            shape: "2097152xK1024-int8-pooled".into(),
            ns_naive,
            ns_fast,
            extra: None,
        });

        let mid = init::long_tailed(&[1 << 20], 0.1, 0.01, 30.0, 41);
        let (ns_naive, ns_fast) = ab(
            |be| {
                let _ = q.quantize_blocks_with(&mid, 1024, be);
            },
            reps,
        );
        entries.push(Entry {
            op: "e2bqm_quantize_blocks",
            shape: "1048576xK1024-w4-pooled".into(),
            ns_naive,
            ns_fast,
            extra: None,
        });
    }
    entries
}

/// Keeps one element per 2×2 window of each `width`×`width` plane of
/// `t` — the largest in magnitude, as a max-pool backward routes its
/// gradient — and zeroes the rest.
fn maxpool_scatter(t: &Tensor, width: usize) -> Tensor {
    let d = t.data();
    let mut g = vec![0.0f32; d.len()];
    for plane in (0..d.len()).step_by(width * width) {
        for y in (0..width).step_by(2) {
            for x in (0..width).step_by(2) {
                let window = [0, 1, width, width + 1].map(|o| plane + y * width + x + o);
                let keep = window
                    .into_iter()
                    .max_by(|&a, &b| d[a].abs().total_cmp(&d[b].abs()))
                    .expect("four elements");
                g[keep] = d[keep];
            }
        }
    }
    Tensor::from_vec(g, t.dims()).expect("shape preserved")
}

/// Sweep-level memoization: re-simulating the same (config, optimizer,
/// network) combinations with the `HwCostCache` disabled (`ns_naive`) vs
/// enabled (`ns_fast`). `best_ns`'s untimed warmup call fills the cache
/// on the fast side, so the timed runs measure warm hits — exactly what
/// an ablation sweep's repeated inner simulations see.
fn hwcost_entry(reps: usize, quick: bool) -> Entry {
    let _sp = cq_obs::span!("bench", "hwcost sweep");
    let chip = CambriconQ::edge();
    let opt = OptimizerKind::Sgd { lr: 0.01 };
    let nets = if quick {
        vec![models::squeezenet_v1()]
    } else {
        vec![
            models::squeezenet_v1(),
            models::resnet18(),
            models::alexnet(),
        ]
    };
    let run = || {
        for net in &nets {
            let _ = chip.simulate(net, opt);
        }
    };
    cq_sim::set_hwcache_enabled(false);
    let ns_naive = best_ns(run, reps);
    cq_sim::set_hwcache_enabled(true);
    clear_sim_cache();
    let ns_fast = best_ns(run, reps);
    Entry {
        op: "hwcost_sweep",
        shape: format!("{}nets-sgd-edge", nets.len()),
        ns_naive,
        ns_fast,
        extra: None,
    }
}

/// Per-layer mapping search over the `--quick` study set: the two-stage
/// tile/order search recomputed from scratch every call (`ns_naive`,
/// memo disabled) vs served from the warm process-wide search cache
/// (`ns_fast`). Ungated: the cold side is dominated by cycle-accurate
/// DDR walks whose candidate count shifts whenever the search space or
/// pruning changes, so the ratio tracks search design, not a kernel
/// regression.
fn mapping_search_entry(reps: usize, quick: bool) -> Entry {
    let _sp = cq_obs::span!("bench", "mapping search");
    let chip = CambriconQ::edge();
    let nets = if quick {
        vec![models::alexnet()]
    } else {
        vec![models::alexnet(), models::ptb_lstm_medium()]
    };
    let run = || {
        for net in &nets {
            let _ = cq_accel::search_network(&chip, net);
        }
    };
    cq_sim::set_hwcache_enabled(false);
    let ns_naive = best_ns(run, reps);
    cq_sim::set_hwcache_enabled(true);
    let ns_fast = best_ns(run, reps);
    Entry {
        op: "mapping_search_quick",
        shape: format!("{}nets-edge", nets.len()),
        ns_naive,
        ns_fast,
        extra: None,
    }
}

/// Whether an entry's speedup is gated against the `--baseline` report.
fn is_gated(e: &Entry) -> bool {
    (GATED_QUANT_OPS.contains(&e.op) && !e.shape.ends_with("-pooled"))
        || GATED_COMPUTE_OPS.contains(&e.op)
}

/// Extracts `(op, shape, speedup)` triples from a previous report's
/// `entries` array.
fn parse_baseline(text: &str) -> Result<Vec<(String, String, f64)>, String> {
    let report = cq_obs::json::parse(text).map_err(|e| e.to_string())?;
    let entries = report
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("no \"entries\" array")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let op = e.get("op").and_then(Json::as_str);
            let shape = e.get("shape").and_then(Json::as_str);
            match (op, shape, e.get("speedup").and_then(Json::as_f64)) {
                (Some(op), Some(shape), Some(speedup)) => Ok((op.into(), shape.into(), speedup)),
                _ => Err(format!("entry {i} lacks an op, shape or speedup")),
            }
        })
        .collect()
}

fn render_json(entries: &[Entry], quick: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"pr\": 10,\n");
    out.push_str(&format!("  \"threads\": {},\n", Pool::global().threads()));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let extra = match &e.extra {
            Some(x) => format!(", \"extra\": {x}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{ \"op\": \"{}\", \"shape\": \"{}\", \"ns_naive\": {}, \"ns_fast\": {}, \"speedup\": {:.2}{} }}{}\n",
            cq_obs::json_escape(e.op),
            cq_obs::json_escape(&e.shape),
            e.ns_naive,
            e.ns_fast,
            e.speedup(),
            extra,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Whether two paths name one existing file.
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out_path = String::from("BENCH_PR10_ci.json");
    let mut baseline_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline requires a path")),
            "--profile" => profile_path = Some(args.next().expect("--profile requires a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    // Writing the report over its own baseline would replace the
    // committed reference with one run's numbers.
    if let Some(b) = &baseline_path {
        if same_file(b, &out_path) {
            eprintln!("--out {out_path:?} names the --baseline file; pick another --out");
            std::process::exit(2);
        }
    }
    let baseline = baseline_path.map(|p| {
        let text = std::fs::read_to_string(&p)
            .unwrap_or_else(|e| panic!("cannot read --baseline {p:?}: {e}"));
        let rows =
            parse_baseline(&text).unwrap_or_else(|e| panic!("cannot parse --baseline {p:?}: {e}"));
        assert!(!rows.is_empty(), "no entries parsed from --baseline {p:?}");
        rows
    });
    // Tracing: --profile wins, else CQ_TRACE, else off (and then the
    // instrumented kernels cost one atomic load per probe — see the
    // obs_overhead test).
    match profile_path {
        Some(p) => cq_obs::init_to_path(&p).expect("open --profile path"),
        None => {
            cq_obs::init_from_env().expect("open CQ_TRACE path");
        }
    }

    let reps = if quick { 2 } else { 3 };
    let (rm, rk, rn) = REFERENCE_GEMM;
    let mut entries = Vec::new();

    eprintln!(
        "bench_perf: threads={} quick={quick} fast-path=[{}]",
        Pool::global().threads(),
        cq_tensor::fast_path_info()
    );

    // Reference GEMM always runs: it gates --check. So does the
    // reference-shape gemm_i8 entry (the integer-datapath gate).
    entries.push(gemm_entry("gemm", rm, rk, rn, reps));
    entries.push(int8_gemm_entry(rm, rk, rn, reps));
    if !quick {
        entries.push(gemm_entry("gemm", 256, 256, 256, reps + 2));
        entries.push(gemm_entry("gemm", 384, 128, 512, reps + 2));
        entries.push(gemm_entry("gemm_at", 256, 256, 256, reps + 2));
        entries.push(gemm_entry("gemm_bt", 256, 256, 256, reps + 2));
        entries.push(int8_gemm_entry(256, 256, 256, reps + 2));
    }

    if quick {
        entries.extend(conv_entries(2, 8, 16, 16, 3, 1, 1, reps));
    } else {
        entries.extend(conv_entries(4, 8, 32, 32, 3, 1, 1, reps));
        entries.extend(conv_entries(1, 16, 32, 28, 5, 2, 2, reps));
    }

    entries.extend(quant_entries(reps + 2, quick));
    entries.push(hwcost_entry(reps, quick));
    entries.push(mapping_search_entry(reps, quick));

    entries.push(train_step_entry(
        "train_step",
        "bench-cnn-b32-3x32x32".into(),
        bench_cnn,
        reps,
    ));
    entries.push(int_train_step_entry(
        "bench-cnn-b32-3x32x32".into(),
        bench_cnn,
        reps,
    ));
    if !quick {
        for task in ProxyTask::ALL {
            entries.push(train_step_entry(
                "train_step",
                format!("proxy-{}", task.name()),
                move || {
                    let (model, train, _) = task.build(42);
                    (model, train.x, train.labels)
                },
                reps,
            ));
            entries.push(int_train_step_entry(
                format!("proxy-{}", task.name()),
                move || {
                    let (model, train, _) = task.build(42);
                    (model, train.x, train.labels)
                },
                reps,
            ));
        }
    }

    for e in &entries {
        eprintln!(
            "  {:<22} {:<24} naive {:>12} ns  fast {:>12} ns  {:>6.2}x",
            e.op,
            e.shape,
            e.ns_naive,
            e.ns_fast,
            e.speedup()
        );
    }

    std::fs::write(&out_path, render_json(&entries, quick)).expect("write report");
    eprintln!("wrote {out_path}");
    cq_obs::finish();

    if check {
        let reference = entries
            .iter()
            .find(|e| e.op == "gemm" && e.shape == format!("{rm}x{rk}x{rn}"))
            .expect("reference GEMM entry");
        if reference.speedup() < REFERENCE_MIN_SPEEDUP {
            eprintln!(
                "FAIL: Fast backend below {REFERENCE_MIN_SPEEDUP:.1}x over Naive on reference GEMM ({:.2}x)",
                reference.speedup()
            );
            std::process::exit(1);
        }
        eprintln!(
            "check passed: Fast {:.2}x Naive on reference GEMM (floor {REFERENCE_MIN_SPEEDUP:.1}x)",
            reference.speedup()
        );

        let int8 = entries
            .iter()
            .find(|e| e.op == "gemm_i8" && e.shape == format!("{rm}x{rk}x{rn}-serial"))
            .expect("reference gemm_i8 entry");
        if int8.speedup() < INT8_MIN_SPEEDUP {
            eprintln!(
                "FAIL: gemm_i8 below {INT8_MIN_SPEEDUP:.1}x over the f32 fast path on the reference shape ({:.2}x)",
                int8.speedup()
            );
            std::process::exit(1);
        }
        eprintln!(
            "check passed: gemm_i8 {:.2}x f32 fast path on reference shape (floor {INT8_MIN_SPEEDUP:.1}x)",
            int8.speedup()
        );

        if let Some(baseline) = &baseline {
            let mut failed = false;
            for e in entries.iter().filter(|e| is_gated(e)) {
                let Some((_, _, base)) = baseline
                    .iter()
                    .find(|(op, shape, _)| op == e.op && *shape == e.shape)
                else {
                    eprintln!("  note: no baseline for {} {}", e.op, e.shape);
                    continue;
                };
                let retain = if e.op.starts_with("train_step") {
                    TRAIN_STEP_RETAIN
                } else {
                    BASELINE_RETAIN
                };
                let floor = base * retain;
                if e.speedup() < floor {
                    eprintln!(
                        "FAIL: {} {} speedup {:.2}x below baseline floor {:.2}x (recorded {:.2}x)",
                        e.op,
                        e.shape,
                        e.speedup(),
                        floor,
                        base
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "  gate ok: {} {} {:.2}x >= {:.2}x",
                        e.op,
                        e.shape,
                        e.speedup(),
                        floor
                    );
                }
            }
            if failed {
                std::process::exit(1);
            }
            eprintln!("check passed: gated entries within retention floors of baseline speedups");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_committed_baseline() {
        let rows = parse_baseline(include_str!("../../../../BENCH_PR10.json"))
            .expect("BENCH_PR10.json parses");
        assert_eq!(rows.len(), 40);
        assert!(rows.iter().any(|(op, shape, speedup)| op == "gemm"
            && shape == "512x512x512"
            && *speedup == 4.05));
    }

    #[test]
    fn malformed_baseline_names_the_offset() {
        let err = parse_baseline("{ \"entries\": [ { \"op\": \"gemm\" ] }").unwrap_err();
        assert!(err.contains("at byte"), "{err}");
        let err = parse_baseline("{ \"entries\": [ { \"op\": \"gemm\" } ] }").unwrap_err();
        assert!(err.contains("entry 0"), "{err}");
    }
}
