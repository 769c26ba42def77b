//! PE-array timing and energy model (paper §IV.D, Fig. 11).
//!
//! The array is N×M 4-bit PEs feeding N accumulators (adder-tree +
//! shift-adder + dequantizer). Wider operands are processed bit-serially:
//! an INT8×INT8 MAC costs (8/4)² = 4 partial-product passes on the 4-bit
//! multipliers, which is exactly why the paper quotes 8 TOPS @ INT4 but
//! 2 TOPS @ INT8.

use crate::config::CqConfig;
use cq_sim::EnergyModel;

/// Cost of one tensor operation on the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeCost {
    /// Cycles to drain the operation (all tiles, all serial passes).
    pub cycles: u64,
    /// PE + accumulator dynamic energy (pJ).
    pub energy_pj: f64,
    /// MACs executed (at the operand width, not per-pass).
    pub macs: u64,
}

impl PeCost {
    /// Accumulates another cost.
    pub fn merge(&mut self, other: PeCost) {
        self.cycles += other.cycles;
        self.energy_pj += other.energy_pj;
        self.macs += other.macs;
    }
}

/// The PE-array model.
#[derive(Debug, Clone, PartialEq)]
pub struct PeArray {
    rows: usize,
    cols: usize,
    arrays: usize,
    passes: u64,
    width_bits: u32,
    energy: EnergyModel,
}

impl PeArray {
    /// Builds the model from a chip configuration.
    pub fn new(config: &CqConfig) -> Self {
        PeArray {
            rows: config.pe_rows,
            cols: config.pe_cols,
            arrays: config.pe_arrays,
            passes: config.passes_per_mac(),
            width_bits: config.train_format.bits(),
            energy: EnergyModel::tsmc45(),
        }
    }

    /// Cost of a matrix multiply `m×k · k×n` (quantized operands).
    ///
    /// Tiling: the array computes a `rows × cols` output tile per sweep;
    /// each sweep streams the k dimension one element per cycle per serial
    /// pass. Partial tiles still occupy the full array (padding), which is
    /// where utilization loss on skinny matrices comes from.
    pub fn matmul(&self, m: u64, n: u64, k: u64) -> PeCost {
        self.matmul_mapped(m, n, k, 1)
    }

    /// Cost of a matmul swept under a mapping's PE-level reduction fold
    /// (see [`cq_sim::mapping::pe_sweep_cycles`]): `kfold` reduction
    /// chunks map across the row dimension, shortening skinny sweeps.
    /// Energy is fold-independent — the same MACs execute either way —
    /// and `kfold = 1` is exactly [`PeArray::matmul`]. MAC and cycle
    /// counts past `u64::MAX` saturate there.
    pub fn matmul_mapped(&self, m: u64, n: u64, k: u64, kfold: u64) -> PeCost {
        if m == 0 || n == 0 || k == 0 {
            return PeCost::default();
        }
        let cycles = cq_sim::mapping::pe_sweep_cycles(
            self.rows as u64,
            self.cols as u64,
            self.arrays as u64,
            kfold,
            cq_sim::mapping::MatShape { m, n, k },
            self.passes,
        );
        let macs = m.saturating_mul(n).saturating_mul(k);
        PeCost {
            cycles,
            energy_pj: self.mac_energy_pj(macs),
            macs,
        }
    }

    /// Cost of a convolution expressed as its im2col matmul:
    /// `out_spatial × (in_c·kh·kw) · filters`.
    pub fn conv(&self, out_spatial: u64, k_elems: u64, filters: u64) -> PeCost {
        self.matmul(out_spatial, filters, k_elems)
    }

    /// Cost of an elementwise vector op of `n` elements on the SFU lanes
    /// (one lane row wide).
    pub fn vector_op(&self, n: u64) -> PeCost {
        let lanes = (self.cols * self.arrays) as u64;
        PeCost {
            cycles: n.div_ceil(lanes),
            energy_pj: n as f64 * self.energy.fixed_add(16),
            macs: 0,
        }
    }

    /// Energy of `macs` MACs at the configured width: each MAC executes
    /// `passes` 4-bit partial products plus one 16-bit tree-add per pass,
    /// and each *output* is dequantized once (modeled inside the
    /// accumulator as a 16-bit multiply).
    fn mac_energy_pj(&self, macs: u64) -> f64 {
        let per_pass = self.energy.fixed_mul(4) + self.energy.fixed_add(8);
        let tree_add = self.energy.fixed_add(16);
        macs as f64 * (self.passes as f64 * per_pass + tree_add)
    }

    /// The operand width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CqConfig;
    use cq_quant::IntFormat;

    #[test]
    fn perfectly_tiled_matmul_hits_peak() {
        let pe = PeArray::new(&CqConfig::edge());
        // 64x64 output tile, k=1000: one tile, INT8 = 4 passes.
        let c = pe.matmul(64, 64, 1000);
        assert_eq!(c.cycles, 4000);
        assert_eq!(c.macs, 64 * 64 * 1000);
        // Effective rate = 4096*1000/4000 = 1024 MACs/cycle = peak INT8.
        let rate = c.macs as f64 / c.cycles as f64;
        assert!((rate - 1024.0).abs() < 1.0);
    }

    #[test]
    fn partial_tiles_lose_utilization() {
        let pe = PeArray::new(&CqConfig::edge());
        // 65 rows → two row tiles, half empty.
        let full = pe.matmul(64, 64, 100);
        let ragged = pe.matmul(65, 64, 100);
        assert_eq!(ragged.cycles, full.cycles * 2);
    }

    #[test]
    fn int4_mode_is_4x_faster() {
        let pe8 = PeArray::new(&CqConfig::edge());
        let pe4 = PeArray::new(&CqConfig::edge().with_format(IntFormat::Int4));
        let c8 = pe8.matmul(128, 128, 256);
        let c4 = pe4.matmul(128, 128, 256);
        assert_eq!(c8.cycles, c4.cycles * 4);
        assert!(c8.energy_pj > c4.energy_pj * 2.0);
    }

    #[test]
    fn scaling_distributes_tiles() {
        let edge = PeArray::new(&CqConfig::edge());
        let mut cfg = CqConfig::edge();
        cfg.pe_arrays = 8;
        let qt = PeArray::new(&cfg);
        let big = edge.matmul(512, 512, 512);
        let scaled = qt.matmul(512, 512, 512);
        assert_eq!(big.cycles, scaled.cycles * 8);
        // Same total work → same MAC count and energy.
        assert_eq!(big.macs, scaled.macs);
    }

    #[test]
    fn conv_equals_im2col_matmul() {
        let pe = PeArray::new(&CqConfig::edge());
        let a = pe.conv(3025, 363, 96);
        let b = pe.matmul(3025, 96, 363);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_work_is_free() {
        let pe = PeArray::new(&CqConfig::edge());
        assert_eq!(pe.matmul(0, 10, 10), PeCost::default());
        assert_eq!(pe.matmul_mapped(0, 10, 10, 4), PeCost::default());
    }

    #[test]
    fn fold_one_matches_unmapped_matmul() {
        let pe = PeArray::new(&CqConfig::edge());
        for (m, n, k) in [(64, 64, 1000), (65, 64, 100), (20, 2600, 1950)] {
            assert_eq!(pe.matmul(m, n, k), pe.matmul_mapped(m, n, k, 1));
        }
    }

    #[test]
    fn fold_shortens_skinny_matmul_without_changing_energy() {
        let pe = PeArray::new(&CqConfig::edge());
        // PTB-LSTM-like shape: m=20 fills under a third of the 64 rows.
        let base = pe.matmul_mapped(20, 2600, 1950, 1);
        let folded = pe.matmul_mapped(20, 2600, 1950, 3);
        assert_eq!(base.cycles, 3 * folded.cycles);
        assert_eq!(base.energy_pj, folded.energy_pj);
        assert_eq!(base.macs, folded.macs);
    }

    #[test]
    fn vector_op_uses_lanes() {
        let pe = PeArray::new(&CqConfig::edge());
        let c = pe.vector_op(6400);
        assert_eq!(c.cycles, 100);
        assert!(c.energy_pj > 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let pe = PeArray::new(&CqConfig::edge());
        let mut total = PeCost::default();
        total.merge(pe.matmul(64, 64, 10));
        total.merge(pe.matmul(64, 64, 10));
        assert_eq!(total.cycles, 2 * pe.matmul(64, 64, 10).cycles);
    }
}
