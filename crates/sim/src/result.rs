//! Common result type produced by every platform simulator.

use crate::breakdown::{Component, EnergyBreakdown};
use crate::phase::{Phase, PhaseBreakdown};
use std::fmt;

/// The outcome of simulating one training iteration (minibatch) of one
/// workload on one platform.
///
/// All three platform models (Cambricon-Q, the TPU baseline, and the GPU
/// analytical model) produce this type, so speedup and energy-efficiency
/// comparisons are uniform.
///
/// # Examples
///
/// ```
/// use cq_sim::{Phase, PhaseBreakdown, EnergyBreakdown, SimResult};
///
/// let mut phases = PhaseBreakdown::new();
/// phases.charge(Phase::Forward, 2_000_000, 1e9);
/// let r = SimResult::new("Cambricon-Q", "AlexNet", 1.0, phases, EnergyBreakdown::new());
/// assert!((r.time_ms() - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Platform name ("Cambricon-Q", "TPU", "GPU (TX2)", ...).
    pub platform: String,
    /// Workload name ("AlexNet", ...).
    pub workload: String,
    /// Clock frequency the cycle counts are relative to (GHz).
    pub freq_ghz: f64,
    /// Cycles and compute energy per training phase.
    pub phases: PhaseBreakdown,
    /// Energy by hardware component.
    pub energy: EnergyBreakdown,
}

impl SimResult {
    /// Creates a result.
    pub fn new(
        platform: impl Into<String>,
        workload: impl Into<String>,
        freq_ghz: f64,
        phases: PhaseBreakdown,
        energy: EnergyBreakdown,
    ) -> Self {
        SimResult {
            platform: platform.into(),
            workload: workload.into(),
            freq_ghz,
            phases,
            energy,
        }
    }

    /// Total cycles of the iteration.
    pub fn total_cycles(&self) -> u64 {
        self.phases.total_cycles()
    }

    /// Wall-clock time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.total_cycles() as f64 / (self.freq_ghz * 1e9) * 1e3
    }

    /// Total energy in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Speedup of `self` over `other` (>1 means `self` is faster).
    pub fn speedup_over(&self, other: &SimResult) -> f64 {
        other.time_ms() / self.time_ms()
    }

    /// Energy-efficiency gain of `self` over `other` (>1 means `self`
    /// consumes less energy for the same work).
    pub fn energy_gain_over(&self, other: &SimResult) -> f64 {
        other.total_energy_mj() / self.total_energy_mj()
    }

    /// Serializes to one tab-separated line that [`SimResult::from_record`]
    /// decodes back *exactly* (floats use Rust's shortest-roundtrip `Debug`
    /// text), so a record shipped between processes (cq-serve's `cell`
    /// frames) compares byte for byte.
    ///
    /// Fields: platform, workload, freq_ghz, six per-phase cycle counts,
    /// six per-phase energies (pJ), four per-component energies (pJ).
    /// Platform/workload names must not contain tabs or newlines (none
    /// do; such a record would simply fail to decode).
    pub fn to_record(&self) -> String {
        let mut fields = vec![
            self.platform.clone(),
            self.workload.clone(),
            format!("{:?}", self.freq_ghz),
        ];
        for p in Phase::ALL {
            fields.push(self.phases.cycles(p).to_string());
        }
        for p in Phase::ALL {
            fields.push(format!("{:?}", self.phases.energy_pj(p)));
        }
        for c in Component::ALL {
            fields.push(format!("{:?}", self.energy.energy_pj(c)));
        }
        fields.join("\t")
    }

    /// Decodes a line produced by [`SimResult::to_record`]; `None` for
    /// anything malformed (wrong field count, unparsable numbers).
    pub fn from_record(record: &str) -> Option<SimResult> {
        let fields: Vec<&str> = record.split('\t').collect();
        if fields.len() != 3 + 6 + 6 + 4 {
            return None;
        }
        let freq_ghz: f64 = fields[2].parse().ok()?;
        let mut phases = PhaseBreakdown::new();
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            let cycles: u64 = fields[3 + i].parse().ok()?;
            let pj: f64 = fields[9 + i].parse().ok()?;
            phases.charge(p, cycles, pj);
        }
        let mut energy = EnergyBreakdown::new();
        for (i, c) in Component::ALL.into_iter().enumerate() {
            let pj: f64 = fields[15 + i].parse().ok()?;
            energy.charge(c, pj);
        }
        Some(SimResult::new(
            fields[0], fields[1], freq_ghz, phases, energy,
        ))
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {:.3} ms, {:.3} mJ",
            self.platform,
            self.workload,
            self.time_ms(),
            self.total_energy_mj()
        )
    }
}

/// Geometric mean of a slice of ratios (the paper averages speedups and
/// efficiency gains across benchmarks).
///
/// Returns 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn result(cycles: u64, energy_pj: f64) -> SimResult {
        let mut phases = PhaseBreakdown::new();
        phases.charge(Phase::Forward, cycles, 0.0);
        let mut energy = EnergyBreakdown::new();
        energy.charge(crate::breakdown::Component::Acc, energy_pj);
        SimResult::new("P", "W", 1.0, phases, energy)
    }

    #[test]
    fn time_from_cycles() {
        let r = result(1_000_000, 0.0);
        assert!((r.time_ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_and_energy_gain() {
        let fast = result(1_000, 100.0);
        let slow = result(4_000, 500.0);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((fast.energy_gain_over(&slow) - 5.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn record_roundtrip_is_exact() {
        let mut phases = PhaseBreakdown::new();
        phases.charge(Phase::Forward, 12_345, 0.1 + 0.2); // deliberately non-representable
        phases.charge(Phase::Quantize, 7, 1e-300);
        let mut energy = EnergyBreakdown::new();
        energy.charge(crate::breakdown::Component::DdrDynamic, 1.0 / 3.0);
        let r = SimResult::new("Cambricon-Q", "ResNet18", 1.5, phases, energy);
        let decoded = SimResult::from_record(&r.to_record()).unwrap();
        assert_eq!(r, decoded, "round-trip must be bit-exact");
        assert_eq!(r.to_record(), decoded.to_record());
    }

    #[test]
    fn record_rejects_malformed_lines() {
        let r = result(100, 5.0);
        let rec = r.to_record();
        assert!(SimResult::from_record("").is_none());
        assert!(SimResult::from_record("a\tb\tc").is_none());
        let truncated = rec.rsplit_once('\t').unwrap().0;
        assert!(SimResult::from_record(truncated).is_none());
        let mangled = rec.replace('\t', "|");
        assert!(SimResult::from_record(&mangled).is_none());
        let extra = format!("{rec}\t1.0");
        assert!(SimResult::from_record(&extra).is_none());
        let bad_num = rec.replacen("100", "10O", 1);
        assert!(SimResult::from_record(&bad_num).is_none());
    }

    #[test]
    fn display_contains_units() {
        let r = result(500, 42.0);
        let s = r.to_string();
        assert!(s.contains("ms") && s.contains("mJ"));
    }
}
