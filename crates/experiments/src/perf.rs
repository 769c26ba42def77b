//! Performance/energy comparison experiments (Figs. 12 and 13, §VII.C/D).

use cq_accel::{CambriconQ, CqConfig, ScaleVariant};
use cq_baselines::{GpuModel, Tpu};
use cq_ndp::OptimizerKind;
use cq_par::Pool;
use cq_quant::IntFormat;
use cq_sim::report::{ratio, TextTable};
use cq_sim::{geomean, Component, Phase, SimResult};
use cq_workloads::{models, Network};

/// The optimizer used across the performance experiments (Adam: the most
/// demanding of Table IV — two state tensors).
pub fn default_optimizer() -> OptimizerKind {
    OptimizerKind::Adam {
        lr: 1e-3,
        beta1: 0.9,
        beta2: 0.999,
    }
}

/// One benchmark's results on all three platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The workload.
    pub network: String,
    /// Cambricon-Q result.
    pub cq: SimResult,
    /// Cambricon-Q without the NDP engine (§VII.D ablation).
    pub cq_no_ndp: SimResult,
    /// TPU baseline result.
    pub tpu: SimResult,
    /// GPU (Jetson TX2) result, running quantized training.
    pub gpu: SimResult,
}

impl Comparison {
    /// Speedup of Cambricon-Q over the GPU.
    pub fn speedup_gpu(&self) -> f64 {
        self.cq.speedup_over(&self.gpu)
    }

    /// Speedup of Cambricon-Q over the TPU.
    pub fn speedup_tpu(&self) -> f64 {
        self.cq.speedup_over(&self.tpu)
    }

    /// Energy-efficiency gain over the GPU.
    pub fn energy_gain_gpu(&self) -> f64 {
        self.cq.energy_gain_over(&self.gpu)
    }

    /// Energy-efficiency gain over the TPU.
    pub fn energy_gain_tpu(&self) -> f64 {
        self.cq.energy_gain_over(&self.tpu)
    }
}

/// Runs all six benchmarks on all platforms (the data behind Fig. 12).
///
/// Each benchmark's four platform simulations are independent of the
/// others', so the outer loop fans out over the worker pool; the result
/// order (and every value) is identical to the serial loop.
pub fn run_comparison() -> Vec<Comparison> {
    let opt = default_optimizer();
    let cq = CambriconQ::edge();
    let cq_no_ndp = CambriconQ::new(CqConfig::edge().without_ndp());
    let tpu = Tpu::paper();
    let gpu = GpuModel::jetson_tx2();
    let nets = models::all_benchmarks();
    Pool::global().parallel_map(nets.len(), |i| {
        let net = &nets[i];
        Comparison {
            network: net.name.clone(),
            cq: cq.simulate(net, opt),
            cq_no_ndp: cq_no_ndp.simulate(net, opt),
            tpu: tpu.simulate(net, opt),
            gpu: gpu.simulate(net, opt, true),
        }
    })
}

/// Fig. 12(a): speedup table plus geomeans.
pub fn fig12a_table(rows: &[Comparison]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "vs GPU",
        "vs TPU",
        "no-NDP vs GPU",
        "no-NDP vs TPU",
    ]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            ratio(r.speedup_gpu()),
            ratio(r.speedup_tpu()),
            ratio(r.cq_no_ndp.speedup_over(&r.gpu)),
            ratio(r.cq_no_ndp.speedup_over(&r.tpu)),
        ]);
    }
    let gm_gpu = geomean(&rows.iter().map(|r| r.speedup_gpu()).collect::<Vec<_>>());
    let gm_tpu = geomean(&rows.iter().map(|r| r.speedup_tpu()).collect::<Vec<_>>());
    t.row(vec![
        "GEOMEAN".into(),
        ratio(gm_gpu),
        ratio(gm_tpu),
        String::new(),
        String::new(),
    ]);
    t
}

/// Fig. 12(b): per-phase time breakdown of one platform's results.
pub fn fig12b_table(results: &[&SimResult]) -> TextTable {
    let mut t = TextTable::new(vec!["Platform/Model", "FW", "NG", "WG", "WU", "S", "Q"]);
    for r in results {
        let mut cells = vec![format!("{}/{}", r.platform, r.workload)];
        for p in Phase::ALL {
            cells.push(format!("{:.1}%", r.phases.fraction_cycles(p) * 100.0));
        }
        t.row(cells);
    }
    t
}

/// Fig. 12(c): energy comparison plus geomeans.
pub fn fig12c_table(rows: &[Comparison]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "CQ (mJ)",
        "TPU (mJ)",
        "GPU (mJ)",
        "gain vs TPU",
        "gain vs GPU",
    ]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            format!("{:.1}", r.cq.total_energy_mj()),
            format!("{:.1}", r.tpu.total_energy_mj()),
            format!("{:.1}", r.gpu.total_energy_mj()),
            ratio(r.energy_gain_tpu()),
            ratio(r.energy_gain_gpu()),
        ]);
    }
    let gm_tpu = geomean(&rows.iter().map(|r| r.energy_gain_tpu()).collect::<Vec<_>>());
    let gm_gpu = geomean(&rows.iter().map(|r| r.energy_gain_gpu()).collect::<Vec<_>>());
    t.row(vec![
        "GEOMEAN".into(),
        String::new(),
        String::new(),
        String::new(),
        ratio(gm_tpu),
        ratio(gm_gpu),
    ]);
    t
}

/// Fig. 12(d): per-component energy breakdown, plus the memory-side
/// reduction factor the paper quotes (1.54×).
pub fn fig12d_table(rows: &[Comparison]) -> (TextTable, f64) {
    let mut t = TextTable::new(vec![
        "Platform/Model",
        "ACC",
        "BUF",
        "DDR-SB",
        "DDR-DY",
        "total (mJ)",
    ]);
    let mut ratios = Vec::new();
    for r in rows {
        for res in [&r.cq, &r.tpu] {
            let mut cells = vec![format!("{}/{}", res.platform, res.workload)];
            for c in Component::ALL {
                cells.push(format!("{:.1}%", res.energy.fraction(c) * 100.0));
            }
            cells.push(format!("{:.1}", res.total_energy_mj()));
            t.row(cells);
        }
        ratios.push(r.tpu.energy.memory_side_pj() / r.cq.energy.memory_side_pj());
    }
    (t, geomean(&ratios))
}

/// §VII.D ablation: speedup retained without the NDP engine.
pub fn ablation_ndp_table(rows: &[Comparison]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "full vs TPU",
        "no-NDP vs TPU",
        "NDP contribution",
    ]);
    for r in rows {
        let full = r.speedup_tpu();
        let without = r.cq_no_ndp.speedup_over(&r.tpu);
        t.row(vec![
            r.network.clone(),
            ratio(full),
            ratio(without),
            format!("{:+.1}%", (full / without - 1.0) * 100.0),
        ]);
    }
    t
}

/// §VII.C: INT4-mode gains on every benchmark.
pub fn int4_gains() -> TextTable {
    let opt = default_optimizer();
    let int8 = CambriconQ::edge();
    let int4 = CambriconQ::new(CqConfig::edge().with_format(IntFormat::Int4));
    let mut t = TextTable::new(vec!["Model", "perf gain", "energy gain"]);
    let mut perf = Vec::new();
    let mut energy = Vec::new();
    for net in models::all_benchmarks() {
        let r8 = int8.simulate(&net, opt);
        let r4 = int4.simulate(&net, opt);
        perf.push(r4.speedup_over(&r8));
        energy.push(r4.energy_gain_over(&r8));
        t.row(vec![
            net.name.clone(),
            ratio(r4.speedup_over(&r8)),
            ratio(r4.energy_gain_over(&r8)),
        ]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        ratio(geomean(&perf)),
        ratio(geomean(&energy)),
    ]);
    t
}

/// Fig. 13: scaled variants against their GPU counterparts on ResNet-18
/// and LSTM.
pub fn fig13_table() -> TextTable {
    let opt = default_optimizer();
    let nets: Vec<Network> = vec![models::resnet18(), models::ptb_lstm_medium()];
    let pairs: Vec<(CambriconQ, GpuModel)> = vec![
        (CambriconQ::edge(), GpuModel::jetson_tx2()),
        (
            CambriconQ::new(CqConfig::scaled(ScaleVariant::T)),
            GpuModel::gtx_1080ti(),
        ),
        (
            CambriconQ::new(CqConfig::scaled(ScaleVariant::V)),
            GpuModel::v100(),
        ),
    ];
    let mut t = TextTable::new(vec!["Pair", "Model", "CQ (ms)", "GPU (ms)", "speedup"]);
    for (chip, gpu) in &pairs {
        for net in &nets {
            let rc = chip.simulate(net, opt);
            let rg = gpu.simulate(net, opt, true);
            t.row(vec![
                format!("{} vs {}", rc.platform, rg.platform),
                net.name.clone(),
                format!("{:.2}", rc.time_ms()),
                format!("{:.2}", rg.time_ms()),
                ratio(rc.speedup_over(&rg)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ratios_match_paper_shape() {
        let rows = run_comparison();
        let sp_gpu = geomean(&rows.iter().map(|r| r.speedup_gpu()).collect::<Vec<_>>());
        let sp_tpu = geomean(&rows.iter().map(|r| r.speedup_tpu()).collect::<Vec<_>>());
        let en_gpu = geomean(&rows.iter().map(|r| r.energy_gain_gpu()).collect::<Vec<_>>());
        let en_tpu = geomean(&rows.iter().map(|r| r.energy_gain_tpu()).collect::<Vec<_>>());
        // Paper: 4.20x / 1.70x speedup, 6.41x / 1.62x energy. The shape
        // requirement: Cambricon-Q wins on both axes against both
        // baselines, GPU gaps larger than TPU gaps, same order of
        // magnitude as the paper.
        assert!(sp_gpu > 2.5 && sp_gpu < 7.0, "GPU speedup {sp_gpu}");
        assert!(sp_tpu > 1.2 && sp_tpu < 2.6, "TPU speedup {sp_tpu}");
        assert!(en_gpu > 3.5 && en_gpu < 12.0, "GPU energy {en_gpu}");
        assert!(en_tpu > 1.2 && en_tpu < 2.6, "TPU energy {en_tpu}");
        assert!(sp_gpu > sp_tpu && en_gpu > en_tpu);
    }

    #[test]
    fn ndp_ablation_shape() {
        let rows = run_comparison();
        let find = |name: &str| rows.iter().find(|r| r.network == name).unwrap();
        // WU-heavy models lose much more speedup without NDP.
        let alexnet = find("AlexNet");
        let squeezenet = find("SqueezeNet");
        let loss_alex = alexnet.speedup_tpu() / alexnet.cq_no_ndp.speedup_over(&alexnet.tpu);
        let loss_sq = squeezenet.speedup_tpu() / squeezenet.cq_no_ndp.speedup_over(&squeezenet.tpu);
        assert!(loss_alex > loss_sq, "alex {loss_alex} vs squeeze {loss_sq}");
    }

    #[test]
    fn tables_render() {
        let rows = run_comparison();
        assert!(fig12a_table(&rows).to_string().contains("GEOMEAN"));
        assert!(fig12c_table(&rows).to_string().contains("gain"));
        let (t, mem_ratio) = fig12d_table(&rows);
        assert!(t.to_string().contains("DDR-DY"));
        // Paper: 1.54x memory-side energy reduction vs the TPU baseline.
        assert!(
            mem_ratio > 1.2 && mem_ratio < 4.0,
            "memory ratio {mem_ratio}"
        );
        let refs: Vec<&SimResult> = rows.iter().map(|r| &r.cq).collect();
        assert!(fig12b_table(&refs).to_string().contains("FW"));
        assert!(ablation_ndp_table(&rows).to_string().contains("NDP"));
    }

    #[test]
    fn int4_gain_near_paper() {
        // Paper §VII.C: 2.33x perf / 2.35x energy.
        let t = int4_gains();
        let s = t.to_string();
        assert!(s.contains("GEOMEAN"));
    }

    #[test]
    fn fig13_scaled_chips_beat_their_gpus() {
        let s = fig13_table().to_string();
        assert!(s.contains("Cambricon-Q-T"));
        assert!(s.contains("Cambricon-Q-V"));
    }
}
