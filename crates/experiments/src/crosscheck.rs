//! Cross-validation of the two timing models: the analytical whole-chip
//! simulator ([`cq_accel::CambriconQ`]) versus the instruction-driven
//! [`cq_accel::TimingExecutor`] running compiled forward programs.
//!
//! The two models share the PE/SQU/DDR component models but schedule work
//! completely differently (closed-form per layer vs. per-instruction), so
//! agreement within a small factor is meaningful evidence neither is
//! mis-accounting.

use cq_accel::{compile_network_forward, CambriconQ, CqConfig, TimingExecutor};
use cq_ndp::OptimizerKind;
use cq_sim::report::TextTable;
use cq_sim::Phase;
use cq_workloads::models;

/// One benchmark's forward-pass cycles under both models.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCheckRow {
    /// Benchmark name.
    pub network: String,
    /// Analytical model's forward-phase cycles.
    pub analytical: u64,
    /// Instruction-driven executor's total cycles for the same work.
    pub executor: u64,
}

impl CrossCheckRow {
    /// Ratio executor/analytical (1.0 = perfect agreement).
    pub fn ratio(&self) -> f64 {
        self.executor as f64 / self.analytical.max(1) as f64
    }
}

/// Runs the cross-check over all benchmarks.
pub fn run_crosscheck() -> Vec<CrossCheckRow> {
    let config = CqConfig::edge();
    let chip = CambriconQ::new(config.clone());
    let sgd = OptimizerKind::Sgd { lr: 0.01 };
    models::all_benchmarks()
        .into_iter()
        .map(|net| {
            let analytical = chip.simulate(&net, sgd).phases.cycles(Phase::Forward);
            let program = compile_network_forward(&config, &net);
            let executor = TimingExecutor::new(config.clone()).run(&program).cycles;
            CrossCheckRow {
                network: net.name,
                analytical,
                executor,
            }
        })
        .collect()
}

/// Renders the cross-check table.
pub fn crosscheck_table(rows: &[CrossCheckRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Model",
        "analytical FW (cycles)",
        "executor (cycles)",
        "ratio",
    ]);
    for r in rows {
        t.row(vec![
            r.network.clone(),
            r.analytical.to_string(),
            r.executor.to_string(),
            format!("{:.2}", r.ratio()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_agree_within_a_small_factor() {
        for r in run_crosscheck() {
            let ratio = r.ratio();
            assert!(
                (0.4..2.5).contains(&ratio),
                "{}: executor/analytical = {ratio:.2}",
                r.network
            );
        }
    }

    /// Pins every network's forward cycles under both models to the
    /// committed `reports/timing_crosscheck.txt`.
    #[test]
    fn forward_rows_match_the_committed_report() {
        let rows: Vec<_> = run_crosscheck()
            .into_iter()
            .map(|r| (r.network, r.analytical, r.executor))
            .collect();
        let committed = [
            ("AlexNet", 39_578_620, 38_922_639),
            ("ResNet-18", 57_728_399, 57_350_701),
            ("GoogLeNet", 55_491_519, 53_613_485),
            ("SqueezeNet", 33_930_109, 29_595_557),
            ("Transformer", 19_128_320, 19_138_757),
            ("LSTM", 462_069_400, 463_873_983),
        ]
        .map(|(network, analytical, executor)| (network.to_string(), analytical, executor));
        assert_eq!(rows, committed);
    }

    #[test]
    fn table_renders() {
        let rows = run_crosscheck();
        assert!(crosscheck_table(&rows).to_string().contains("ratio"));
    }
}
