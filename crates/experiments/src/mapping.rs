//! Mapping-search study: per-layer searched mappings against the
//! streaming default, on the full training-iteration simulator.
//!
//! For each benchmark the study (1) runs the per-layer mapping search
//! ([`cq_accel::search_network`]), (2) simulates a full training
//! iteration under the default policy and under the `Search` policy,
//! which charges every layer through its searched mapping, and (3)
//! reports both the per-layer search scores and the end-to-end
//! latency/energy deltas.

use crate::perf::default_optimizer;
use cq_accel::{search_network, CambriconQ, CqConfig, LayerSearch, MappingPolicy};
use cq_par::Pool;
use cq_sim::report::{ratio, TextTable};
use cq_sim::{geomean, SimResult};
use cq_workloads::{models, Network};
use std::sync::Arc;

/// One benchmark's search outcome: per-layer scores plus the
/// whole-iteration simulation under each policy.
#[derive(Debug, Clone)]
pub struct NetMappingReport {
    /// The workload.
    pub network: String,
    /// Per-layer search results, in layer order.
    pub layers: Vec<Arc<LayerSearch>>,
    /// Full training iteration under the streaming default.
    pub baseline: SimResult,
    /// Full training iteration under the `Search` policy.
    pub searched: SimResult,
}

impl NetMappingReport {
    /// End-to-end speedup of the searched mappings over the default.
    pub fn speedup(&self) -> f64 {
        self.baseline.total_cycles() as f64 / self.searched.total_cycles().max(1) as f64
    }

    /// End-to-end energy gain of the searched mappings (> 1 = cheaper).
    pub fn energy_gain(&self) -> f64 {
        self.baseline.total_energy_mj() / self.searched.total_energy_mj()
    }

    /// Layers whose searched mapping beat the default on either axis.
    pub fn improved_layers(&self) -> usize {
        self.layers.iter().filter(|s| s.improved()).count()
    }
}

/// The study's benchmark set: the paper's six networks, or a two-network
/// subset (the fold-friendly AlexNet plus the recurrent PTB-LSTM) for
/// `--quick` runs and CI smoke.
pub fn benchmark_nets(quick: bool) -> Vec<Network> {
    if quick {
        vec![models::alexnet(), models::ptb_lstm_medium()]
    } else {
        models::all_benchmarks()
    }
}

/// Runs the study over `nets`. Networks fan out across the worker pool
/// (per-layer searches memoize process-wide, so duplicate layers cost
/// one search); result order matches `nets`.
pub fn run_study(nets: &[Network]) -> Vec<NetMappingReport> {
    let opt = default_optimizer();
    Pool::global().parallel_map(nets.len(), |i| {
        let net = &nets[i];
        let baseline_chip = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Default);
        let layers = search_network(&baseline_chip, net);
        let searched_chip = CambriconQ::with_mapping(CqConfig::edge(), MappingPolicy::Search);
        NetMappingReport {
            network: net.name.clone(),
            layers,
            baseline: baseline_chip.simulate(net, opt),
            searched: searched_chip.simulate(net, opt),
        }
    })
}

/// The per-network summary: end-to-end latency and energy under each
/// policy, plus how many layers the search actually improved.
pub fn summary_table(reports: &[NetMappingReport]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "default (ms)",
        "searched (ms)",
        "speedup",
        "default (mJ)",
        "searched (mJ)",
        "energy gain",
        "layers won",
    ]);
    for r in reports {
        t.row(vec![
            r.network.clone(),
            format!("{:.2}", r.baseline.time_ms()),
            format!("{:.2}", r.searched.time_ms()),
            ratio(r.speedup()),
            format!("{:.1}", r.baseline.total_energy_mj()),
            format!("{:.1}", r.searched.total_energy_mj()),
            ratio(r.energy_gain()),
            format!("{}/{}", r.improved_layers(), r.layers.len()),
        ]);
    }
    let sp = geomean(&reports.iter().map(|r| r.speedup()).collect::<Vec<_>>());
    let en = geomean(&reports.iter().map(|r| r.energy_gain()).collect::<Vec<_>>());
    t.row(vec![
        "GEOMEAN".into(),
        String::new(),
        String::new(),
        ratio(sp),
        String::new(),
        String::new(),
        ratio(en),
        String::new(),
    ]);
    t
}

/// The per-layer detail for one network: the winning mapping and its
/// score against the default. Layers the search could not improve show
/// the streaming default with 1.00x gains.
pub fn layer_table(report: &NetMappingReport) -> TextTable {
    let mut t = TextTable::new(vec![
        "Layer",
        "mapping",
        "cand.",
        "default (Mcyc)",
        "searched (Mcyc)",
        "latency",
        "energy",
    ]);
    for s in &report.layers {
        t.row(vec![
            s.layer.clone(),
            s.mapping.render(),
            s.candidates.to_string(),
            format!("{:.2}", s.default_cycles as f64 / 1e6),
            format!("{:.2}", s.searched_cycles as f64 / 1e6),
            ratio(s.latency_gain()),
            ratio(s.energy_gain()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_finds_a_strict_win() {
        let nets = benchmark_nets(true);
        let reports = run_study(&nets);
        assert_eq!(reports.len(), 2);
        // The acceptance bar: at least one network where the searched
        // mappings are strictly better end-to-end in latency or energy.
        assert!(
            reports
                .iter()
                .any(|r| r.searched.total_cycles() < r.baseline.total_cycles()
                    || r.searched.total_energy_mj() < r.baseline.total_energy_mj()),
            "no network improved"
        );
        // AlexNet's fc layers must win on the fold.
        let alex = &reports[0];
        assert!(alex.improved_layers() >= 3, "{}", alex.improved_layers());
        assert!(alex.speedup() > 1.0);

        let s = summary_table(&reports).to_string();
        assert!(s.contains("GEOMEAN") && s.contains("AlexNet"));
        for r in &reports {
            let lt = layer_table(r).to_string();
            assert!(lt.contains("mapping"));
        }
    }
}
