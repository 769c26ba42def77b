//! The Statistic Quantization Unit (paper §IV.B.1, Fig. 8).
//!
//! The SQU fuses statistic analysis and quantization over each data block:
//! unquantized data streams into one of two 4 KB buffers (double
//! buffering) while the Stat Unit computes θ on the fly; the Quant Unit
//! then drains the buffer through a time-multiplexed `ways`-way
//! quantization and the Arbiter picks the best candidate (E²BQM). The
//! functional behaviour is `cq-quant`'s [`E2bqmQuantizer`]; this module
//! adds the hardware timing and energy.

use crate::config::CqConfig;
use cq_quant::e2bqm::E2bqmSelection;
use cq_quant::guard::GuardAction;
use cq_quant::{CandidateStrategy, DegradeEvent, E2bqmQuantizer, ErrorEstimator, GuardedQuantizer};
use cq_sim::EnergyModel;
use cq_tensor::Tensor;

/// Timing/energy cost of streaming data through the SQU.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SquCost {
    /// Cycles of statistic analysis (overlapped with buffer fill).
    pub stat_cycles: u64,
    /// Cycles of quantization (ways × elements through the Quant Unit).
    pub quant_cycles: u64,
    /// SQU dynamic energy (pJ): buffers + stat + quant + arbiter.
    pub energy_pj: f64,
}

impl SquCost {
    /// Total SQU cycles.
    pub fn total_cycles(&self) -> u64 {
        self.stat_cycles + self.quant_cycles
    }

    /// Accumulates another cost.
    pub fn merge(&mut self, other: SquCost) {
        self.stat_cycles += other.stat_cycles;
        self.quant_cycles += other.quant_cycles;
        self.energy_pj += other.energy_pj;
    }
}

/// The SQU model: block-streaming statistic + multiplexed quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct Squ {
    /// Elements per block (buffer bytes / 4 for FP32 input).
    block_elems: usize,
    lanes: usize,
    ways: usize,
    energy: EnergyModel,
    quantizer: E2bqmQuantizer,
}

impl Squ {
    /// Builds the SQU from the chip configuration.
    pub fn new(config: &CqConfig) -> Self {
        Squ {
            block_elems: config.squ_buf_bytes / 4,
            lanes: config.squ_lanes,
            ways: config.e2bqm_ways,
            energy: EnergyModel::tsmc45(),
            quantizer: E2bqmQuantizer::new(
                config.e2bqm_ways,
                CandidateStrategy::ClipSweep,
                ErrorEstimator::Rectilinear,
                config.train_format,
            ),
        }
    }

    /// The LDQ block size in elements (the K of §III.A).
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Timing/energy of streaming `elements` values through statistic +
    /// quantization. Double buffering means the fill of block *i+1*
    /// overlaps the quantize of block *i*; the steady-state throughput is
    /// bounded by the slower of the two stages.
    pub fn stream_cost(&self, elements: u64) -> SquCost {
        if elements == 0 {
            return SquCost::default();
        }
        let lanes = self.lanes as u64;
        // Stat Unit examines every element once, `lanes` per cycle.
        let stat_cycles = elements.div_ceil(lanes);
        // Quant Unit re-reads the buffer once per candidate way.
        let quant_cycles = (elements * self.ways as u64).div_ceil(lanes);
        // Energy: one 16-bit compare per element (stat), one 16-bit
        // multiply-round per element per way (quant), plus local buffer
        // write+read of 4 B per element, plus an arbiter add per element.
        let e = &self.energy;
        let energy_pj = elements as f64
            * (e.fixed_add(16)                       // stat compare
                + self.ways as f64 * e.fixed_mul(16) // quant candidates
                + e.fixed_add(16)                    // arbiter distance acc
                + e.local_buf(8.0)); // 4 B in + 4 B out
        SquCost {
            stat_cycles,
            quant_cycles,
            energy_pj,
        }
    }

    /// Functional model: quantizes a tensor exactly as the hardware would
    /// (block-local, `ways`-way multiplexed), returning per-block
    /// selections plus the streaming cost.
    pub fn quantize(&self, x: &Tensor) -> (Vec<E2bqmSelection>, SquCost) {
        let cost = self.stream_cost(x.len() as u64);
        let sels = self.quantizer.quantize_blocks(x, self.block_elems);
        (sels, cost)
    }

    /// Quantizes one block whose θ statistic register holds an externally
    /// observed (possibly fault-corrupted) value; the guard validates and
    /// recovers. This is the fault-injection seam for the SQU's statistic
    /// registers.
    pub fn quantize_guarded_with_theta(
        &self,
        x: &Tensor,
        theta: f32,
    ) -> (E2bqmSelection, SquCost, Vec<DegradeEvent>) {
        let mut cost = self.stream_cost(x.len() as u64);
        let guard = GuardedQuantizer::new(self.quantizer);
        let (sel, events) = guard.quantize_with_theta(x, theta);
        self.charge_degrades(&mut cost, &events, x.len() as u64);
        (sel, cost, events)
    }

    /// Charges the extra Quant Unit pass each re-multiplexed block costs.
    fn charge_degrades(&self, cost: &mut SquCost, events: &[DegradeEvent], block_elems: u64) {
        let remuxes = events
            .iter()
            .filter(|e| matches!(e.action, GuardAction::Remultiplexed { .. }))
            .count() as u64;
        if remuxes == 0 {
            return;
        }
        cost.quant_cycles += remuxes * block_elems.div_ceil(self.lanes as u64);
        cost.energy_pj += (remuxes * block_elems) as f64 * self.energy.fixed_mul(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::init;

    fn squ() -> Squ {
        Squ::new(&CqConfig::edge())
    }

    #[test]
    fn block_size_matches_4kb_buffer() {
        assert_eq!(squ().block_elems(), 1024);
    }

    #[test]
    fn throughput_scales_with_ways() {
        let s = squ();
        let c = s.stream_cost(16_384);
        assert_eq!(c.stat_cycles, 256); // 64 lanes
        assert_eq!(c.quant_cycles, 1024); // 4 ways
        let mut cfg = CqConfig::edge();
        cfg.e2bqm_ways = 1;
        let s1 = Squ::new(&cfg);
        assert_eq!(s1.stream_cost(16_384).quant_cycles, 256);
    }

    #[test]
    fn zero_elements_free() {
        assert_eq!(squ().stream_cost(0), SquCost::default());
    }

    #[test]
    fn functional_quantization_blocks() {
        let s = squ();
        let x = init::long_tailed(&[4096], 0.1, 0.01, 30.0, 3);
        let (sels, cost) = s.quantize(&x);
        assert_eq!(sels.len(), 4); // 4096 / 1024
        assert!(cost.total_cycles() > 0);
        let back = cq_quant::e2bqm::dequantize_blocks(&sels, x.dims());
        // The rectilinear arbiter may clip tail outliers (that is its
        // job); bulk direction is still preserved.
        assert!(x.cosine_similarity(&back).unwrap() > 0.85);
        let e = cq_quant::quant_error(&x, &back);
        assert!(
            (e.l1 / x.len() as f64) < 0.05,
            "mean error {}",
            e.l1 / x.len() as f64
        );
    }

    #[test]
    fn energy_scales_linearly() {
        let s = squ();
        let e1 = s.stream_cost(1000).energy_pj;
        let e2 = s.stream_cost(2000).energy_pj;
        assert!((e2 / e1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn merge_accumulates() {
        let s = squ();
        let mut total = SquCost::default();
        total.merge(s.stream_cost(100));
        total.merge(s.stream_cost(100));
        assert_eq!(total.total_cycles(), s.stream_cost(100).total_cycles() * 2);
    }
}
