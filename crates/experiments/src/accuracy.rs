//! Training-accuracy experiments (Table VIII, §III.B, Fig. 2).
//!
//! The paper trains the six benchmarks on ImageNet/WMT17/PennTreeBank;
//! this reproduction trains small proxies of the same architectural
//! families on synthetic datasets (see DESIGN.md's substitution table) —
//! the accuracy claims are *relative* (quantized-vs-FP32 gap ≤0.4%, HQT
//! matching or beating the layer-wise algorithms), which is what these
//! experiments measure.

use cq_data::Dataset;
use cq_nn::{
    Adam, Conv2d, Dense, Flatten, Lstm, MaxPool2d, QuantCtx, QuantPath, Relu, SelfAttention,
    Sequential,
};
use cq_par::Pool;
use cq_quant::TrainingQuantizer;
use cq_sim::report::TextTable;

/// A small-scale stand-in for one paper benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyTask {
    /// Shallow wide CNN (AlexNet family).
    AlexNet,
    /// Deeper CNN (ResNet-18 family).
    ResNet18,
    /// Multi-branch-width CNN (GoogLeNet family).
    GoogLeNet,
    /// Narrow CNN (SqueezeNet family).
    SqueezeNet,
    /// Self-attention pair matcher (Transformer family).
    Transformer,
    /// Recurrent majority counter (LSTM family).
    Lstm,
}

impl ProxyTask {
    /// All proxies in Table VIII order.
    pub const ALL: [ProxyTask; 6] = [
        ProxyTask::AlexNet,
        ProxyTask::ResNet18,
        ProxyTask::GoogLeNet,
        ProxyTask::SqueezeNet,
        ProxyTask::Transformer,
        ProxyTask::Lstm,
    ];

    /// Display name (paper benchmark it stands in for).
    pub fn name(&self) -> &'static str {
        match self {
            ProxyTask::AlexNet => "AlexNet",
            ProxyTask::ResNet18 => "ResNet-18",
            ProxyTask::GoogLeNet => "GoogLeNet",
            ProxyTask::SqueezeNet => "SqueezeNet",
            ProxyTask::Transformer => "Transformer",
            ProxyTask::Lstm => "LSTM",
        }
    }

    /// Builds the model, train set and test set for this proxy.
    pub fn build(&self, seed: u64) -> (Sequential, Dataset, Dataset) {
        let mut model = Sequential::new();
        match self {
            ProxyTask::AlexNet => {
                model
                    .add(Conv2d::new("conv1", 1, 8, 3, 1, 1, seed))
                    .add(Relu::new())
                    .add(MaxPool2d::new(2))
                    .add(Flatten::new())
                    .add(Dense::new("fc", 8 * 4 * 4, 4, seed + 1));
                (
                    model,
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 10),
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 11),
                )
            }
            ProxyTask::ResNet18 => {
                model
                    .add(Conv2d::new("conv1", 1, 8, 3, 1, 1, seed))
                    .add(Relu::new())
                    .add(Conv2d::new("conv2", 8, 8, 3, 1, 1, seed + 1))
                    .add(Relu::new())
                    .add(MaxPool2d::new(2))
                    .add(Flatten::new())
                    .add(Dense::new("fc", 8 * 4 * 4, 4, seed + 2));
                (
                    model,
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 10),
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 11),
                )
            }
            ProxyTask::GoogLeNet => {
                model
                    .add(Conv2d::new("conv1", 1, 12, 3, 1, 1, seed))
                    .add(Relu::new())
                    .add(MaxPool2d::new(2))
                    .add(Flatten::new())
                    .add(Dense::new("fc1", 12 * 4 * 4, 16, seed + 1))
                    .add(Relu::new())
                    .add(Dense::new("fc2", 16, 4, seed + 2));
                (
                    model,
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 10),
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 11),
                )
            }
            ProxyTask::SqueezeNet => {
                model
                    .add(Conv2d::new("squeeze", 1, 4, 1, 1, 0, seed))
                    .add(Relu::new())
                    .add(Conv2d::new("expand", 4, 8, 3, 1, 1, seed + 1))
                    .add(Relu::new())
                    .add(MaxPool2d::new(2))
                    .add(Flatten::new())
                    .add(Dense::new("fc", 8 * 4 * 4, 4, seed + 2));
                (
                    model,
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 10),
                    cq_data::textures(160, 1, 8, 4, 0.25, seed + 11),
                )
            }
            ProxyTask::Transformer => {
                model
                    .add(SelfAttention::new("attn", 12, seed))
                    .add(Dense::new("cls", 12, 4, seed + 1));
                // Needle retrieval: same pattern dictionary (seed+10) for
                // train and test, fresh noise and placements.
                (
                    model,
                    cq_data::sequence_needle(128, 6, 12, 4, seed, seed + 10),
                    cq_data::sequence_needle(128, 6, 12, 4, seed, seed + 11),
                )
            }
            ProxyTask::Lstm => {
                model
                    .add(Lstm::new("lstm", 5, 16, seed))
                    .add(Dense::new("cls", 16, 5, seed + 1));
                (
                    model,
                    cq_data::sequence_majority(128, 9, 5, seed + 10),
                    cq_data::sequence_majority(128, 9, 5, seed + 11),
                )
            }
        }
    }

    /// Training epochs needed for this proxy to converge.
    pub fn epochs(&self) -> usize {
        match self {
            ProxyTask::Transformer => 200,
            ProxyTask::Lstm => 80,
            _ => 60,
        }
    }
}

/// Trains one proxy under one quantizer; returns held-out accuracy.
/// The compute path follows `CQ_QUANT_PATH` (the [`QuantCtx::new`]
/// default); use [`train_proxy_on`] to pin it explicitly.
pub fn train_proxy(task: ProxyTask, quantizer: &TrainingQuantizer, seed: u64) -> f64 {
    train_proxy_on(task, quantizer, seed, cq_nn::env_quant_path()).0
}

/// Trains one proxy under one quantizer with an explicit compute path
/// (ignoring `CQ_QUANT_PATH`, which is process-cached and therefore
/// useless for a same-process A/B). Returns the held-out accuracy and
/// the integer path's pow2-ladder hit rate — `None` when no layer
/// forward consulted the ladder (the `Fp32` path, or a model with no
/// Dense/Conv2d layers).
pub fn train_proxy_on(
    task: ProxyTask,
    quantizer: &TrainingQuantizer,
    seed: u64,
    path: QuantPath,
) -> (f64, Option<f64>) {
    let (mut model, train, test) = task.build(seed);
    let ctx = QuantCtx::new(quantizer.clone()).with_path(path);
    let mut opt = Adam::with_defaults(3e-3);
    for _ in 0..task.epochs() {
        model
            .train_step(&train.x, &train.labels, &mut opt, &ctx)
            .expect("training step");
    }
    let acc = model
        .evaluate(&test.x, &test.labels, &ctx)
        .expect("evaluation");
    (acc, ctx.int_stats().hit_rate())
}

/// One row of the integer-path accuracy A/B: the same HQT quantizer
/// trained through the fake-quantize f32 path and through the
/// dequantization-free int8 path.
#[derive(Debug, Clone)]
pub struct IntPathRow {
    /// Benchmark name.
    pub model: &'static str,
    /// Held-out accuracy, f32 fake-quantize path.
    pub fp32_path: f64,
    /// Held-out accuracy, integer-domain path.
    pub int8_path: f64,
    /// Fraction of layer forwards that stayed in the integer domain.
    pub ladder_hit_rate: Option<f64>,
}

impl IntPathRow {
    /// Accuracy gap in percentage points (positive = int path worse).
    pub fn gap_pp(&self) -> f64 {
        (self.fp32_path - self.int8_path) * 100.0
    }
}

/// Runs the per-network accuracy-gap sweep for the integer-domain
/// training path: every proxy trained under `zhang2020_hqt` through
/// both compute paths with identical seeds, fanned out over the worker
/// pool like [`table8_accuracy`].
pub fn intpath_accuracy(seed: u64) -> Vec<IntPathRow> {
    let paths = [QuantPath::Fp32, QuantPath::Int8];
    let quantizer = TrainingQuantizer::zhang2020_hqt();
    let results = Pool::global().parallel_map(ProxyTask::ALL.len() * paths.len(), |job| {
        let task = ProxyTask::ALL[job / paths.len()];
        train_proxy_on(task, &quantizer, seed, paths[job % paths.len()])
    });
    ProxyTask::ALL
        .iter()
        .enumerate()
        .map(|(ti, &task)| IntPathRow {
            model: task.name(),
            fp32_path: results[ti * 2].0,
            int8_path: results[ti * 2 + 1].0,
            ladder_hit_rate: results[ti * 2 + 1].1,
        })
        .collect()
}

/// Renders the integer-path accuracy A/B table.
pub fn intpath_render(rows: &[IntPathRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "fp32-path",
        "int8-path",
        "gap (pp)",
        "ladder hits",
    ]);
    for r in rows {
        t.row(vec![
            r.model.into(),
            format!("{:.1}", r.fp32_path * 100.0),
            format!("{:.1}", r.int8_path * 100.0),
            format!("{:+.1}", r.gap_pp()),
            match r.ladder_hit_rate {
                Some(h) => format!("{:.0}%", h * 100.0),
                None => "n/a".into(),
            },
        ]);
    }
    t
}

/// One row of the reproduced Table VIII.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Benchmark name.
    pub model: &'static str,
    /// FP32 baseline accuracy.
    pub fp32: f64,
    /// Zhu et al. 2019 (layer-wise).
    pub zhu: f64,
    /// Zhu et al. + HQT.
    pub zhu_hqt: f64,
    /// Zhang et al. 2020 (layer-wise).
    pub zhang: f64,
    /// Zhang et al. + HQT.
    pub zhang_hqt: f64,
}

/// Runs the full Table VIII sweep.
///
/// Every (task, quantizer) training run is independent, so the 6×5 grid
/// is flattened into 30 jobs and fanned out over the worker pool. Each
/// run is seeded identically to the serial version, so the table is
/// unchanged by the parallelism.
pub fn table8_accuracy(seed: u64) -> Vec<AccuracyRow> {
    let quantizers = [
        TrainingQuantizer::fp32(),
        TrainingQuantizer::zhu2019(),
        TrainingQuantizer::zhu2019_hqt(),
        TrainingQuantizer::zhang2020(),
        TrainingQuantizer::zhang2020_hqt(),
    ];
    let cols = quantizers.len();
    let accs = Pool::global().parallel_map(ProxyTask::ALL.len() * cols, |job| {
        let task = ProxyTask::ALL[job / cols];
        train_proxy(task, &quantizers[job % cols], seed)
    });
    ProxyTask::ALL
        .iter()
        .enumerate()
        .map(|(ti, &task)| AccuracyRow {
            model: task.name(),
            fp32: accs[ti * cols],
            zhu: accs[ti * cols + 1],
            zhu_hqt: accs[ti * cols + 2],
            zhang: accs[ti * cols + 3],
            zhang_hqt: accs[ti * cols + 4],
        })
        .collect()
}

/// Renders Table VIII.
pub fn table8_render(rows: &[AccuracyRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "FP32",
        "Zhu2019",
        "+HQT",
        "Zhang2020",
        "+HQT",
    ]);
    let pct = |x: f64| format!("{:.1}", x * 100.0);
    for r in rows {
        t.row(vec![
            r.model.into(),
            pct(r.fp32),
            pct(r.zhu),
            pct(r.zhu_hqt),
            pct(r.zhang),
            pct(r.zhang_hqt),
        ]);
    }
    t
}

/// Extended accuracy sweep: all five Table III algorithms (not just the
/// two the paper's Table VIII evaluates) plus the FP32 reference, on the
/// CNN and LSTM proxies.
pub fn table8_extended(seed: u64) -> TextTable {
    let tasks = [ProxyTask::AlexNet, ProxyTask::Lstm];
    let algos = [
        TrainingQuantizer::fp32(),
        TrainingQuantizer::wang2018(seed),
        TrainingQuantizer::zhu2019(),
        TrainingQuantizer::yang2020(),
        TrainingQuantizer::zhong2020(),
        TrainingQuantizer::zhang2020(),
    ];
    let accs = Pool::global().parallel_map(tasks.len() * algos.len(), |job| {
        train_proxy(tasks[job / algos.len()], &algos[job % algos.len()], seed)
    });
    let mut headers = vec!["Model".to_string()];
    headers.extend(algos.iter().map(|q| q.name().to_string()));
    let mut t = TextTable::new(headers);
    for (task, row) in tasks.iter().zip(accs.chunks(algos.len())) {
        let mut cells = vec![task.name().to_string()];
        cells.extend(row.iter().map(|acc| format!("{:.1}", acc * 100.0)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_proxies_learn_their_tasks() {
        for task in [ProxyTask::AlexNet, ProxyTask::Lstm] {
            let acc = train_proxy(task, &TrainingQuantizer::fp32(), 42);
            assert!(acc > 0.6, "{}: accuracy {acc}", task.name());
        }
    }

    #[test]
    fn quantized_training_tracks_fp32_on_cnn() {
        let fp32 = train_proxy(ProxyTask::AlexNet, &TrainingQuantizer::fp32(), 7);
        let hqt = train_proxy(ProxyTask::AlexNet, &TrainingQuantizer::zhang2020_hqt(), 7);
        // Paper: <=0.4% degradation at ImageNet scale; at proxy scale we
        // allow a proportionally looser (but still tight) envelope.
        assert!(
            hqt >= fp32 - 0.08,
            "quantized {hqt} much worse than fp32 {fp32}"
        );
    }

    #[test]
    fn proxy_names_cover_table6() {
        let names: Vec<_> = ProxyTask::ALL.iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "AlexNet",
                "ResNet-18",
                "GoogLeNet",
                "SqueezeNet",
                "Transformer",
                "LSTM"
            ]
        );
    }
}
