//! Instruction-driven timing executor.
//!
//! Where [`crate::CambriconQ`] computes per-layer costs analytically, this
//! executor walks an actual instruction stream and charges each
//! instruction against the hardware models: DRAM transfers on the
//! `cq-mem` model, PE-array tiles on [`crate::pe::PeArray`], SQU streams
//! on [`crate::Squ`]. Memory and compute engines run as two pipelines with
//! double-buffered overlap: the program's total time is the slower
//! pipeline plus the initial fill.
//!
//! Use it to cost compiled programs (`cq-accel::compiler`) and to
//! cross-validate the analytical model — `tests` in this module check the
//! two agree on a dense layer within a small factor.

use crate::config::CqConfig;
use crate::pe::PeArray;
use crate::squ::Squ;
use cq_isa::{Instruction, MemSpace, Program};
use cq_mem::{DdrModel, Dir};
use cq_sim::{Component, EnergyBreakdown, EnergyModel};

/// Timing outcome of executing a program.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTiming {
    /// Estimated wall-clock cycles (overlapped pipelines + fill).
    pub cycles: u64,
    /// Total compute-engine busy cycles (PE array + SFU).
    pub compute_cycles: u64,
    /// Total memory-engine busy cycles (DRAM streams, at core clock).
    pub memory_cycles: u64,
    /// Total SQU busy cycles.
    pub squ_cycles: u64,
    /// Energy by component.
    pub energy: EnergyBreakdown,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
}

impl ExecTiming {
    /// Time in milliseconds at the configured clock.
    pub fn time_ms(&self, freq_ghz: f64) -> f64 {
        self.cycles as f64 / (freq_ghz * 1e9) * 1e3
    }
}

/// The timing executor.
#[derive(Debug, Clone)]
pub struct TimingExecutor {
    config: CqConfig,
    pe: PeArray,
    squ: Squ,
    mem: DdrModel,
    energy_model: EnergyModel,
}

impl TimingExecutor {
    /// Creates an executor for a chip configuration.
    pub fn new(config: CqConfig) -> Self {
        let pe = PeArray::new(&config);
        let squ = Squ::new(&config);
        let mem = DdrModel::new(config.ddr);
        TimingExecutor {
            config,
            pe,
            squ,
            mem,
            energy_model: EnergyModel::tsmc45(),
        }
    }

    /// Bytes per element for a quantized transfer.
    fn qbytes(&self, width: cq_isa::QuantWidth) -> f64 {
        width.bits() as f64 / 8.0
    }

    /// Executes (costs) a program. The machine state is not simulated —
    /// pair with [`crate::Machine`] for values.
    ///
    /// A `CONV` with stride 0, which [`crate::Machine::execute`] rejects,
    /// places no output window: it is charged no compute cycles and no
    /// energy. An `MM` or `CONV` whose MAC count or cycle count exceeds
    /// `u64` is charged `u64::MAX` of it, and the cycle totals saturate
    /// there too.
    pub fn run(&mut self, program: &Program) -> ExecTiming {
        let mut sp = cq_obs::span!("accel", "exec.run");
        if sp.is_recording() {
            sp.arg("instructions", program.len());
            cq_obs::counter!("accel.exec.runs").incr();
            cq_obs::counter!("accel.exec.instructions").add(program.len() as u64);
        }
        let mut compute_cycles = 0u64;
        let mut memory_ctrl_cycles = 0u64;
        let mut squ_cycles = 0u64;
        let mut energy = EnergyBreakdown::new();
        let mut dram_bytes = 0u64;
        let mut first_load_cycles = 0u64;
        let e = self.energy_model.clone();
        let squ_units = self.config.squ_units.max(1) as u64;

        for instr in program {
            match *instr {
                Instruction::Croset { .. } => {
                    compute_cycles += 1;
                }
                Instruction::Vload { dest, src, size }
                | Instruction::Vstore { dest, src, size } => {
                    let bytes = size as u64 * 4;
                    self.charge_transfer(
                        dest,
                        src,
                        bytes,
                        &mut memory_ctrl_cycles,
                        &mut dram_bytes,
                        &mut energy,
                        &mut first_load_cycles,
                    );
                }
                Instruction::Sload {
                    dest, src, size, n, ..
                }
                | Instruction::Sstore {
                    dest, src, size, n, ..
                } => {
                    let bytes = size as u64 * n as u64 * 4;
                    self.charge_transfer(
                        dest,
                        src,
                        bytes,
                        &mut memory_ctrl_cycles,
                        &mut dram_bytes,
                        &mut energy,
                        &mut first_load_cycles,
                    );
                }
                Instruction::Qload {
                    dest,
                    src,
                    size,
                    width,
                }
                | Instruction::Qstore {
                    dest,
                    src,
                    size,
                    width,
                } => {
                    // Quantized elements on the bus; FP32 on the far side
                    // of the SQU (cell reads for loads, NBout for stores).
                    let bytes = (size as f64 * self.qbytes(width)) as u64;
                    self.charge_transfer(
                        dest,
                        src,
                        bytes.max(1),
                        &mut memory_ctrl_cycles,
                        &mut dram_bytes,
                        &mut energy,
                        &mut first_load_cycles,
                    );
                    let cost = self.squ.stream_cost(size as u64);
                    squ_cycles += cost.stat_cycles.max(cost.quant_cycles) / squ_units;
                    energy.charge(Component::Acc, cost.energy_pj);
                }
                Instruction::Qmove { size, .. } => {
                    // On-chip requantization: SQU time, buffer energy.
                    let cost = self.squ.stream_cost(size as u64);
                    squ_cycles += cost.stat_cycles.max(cost.quant_cycles) / squ_units;
                    energy.charge(Component::Acc, cost.energy_pj);
                    energy.charge(Component::Buf, e.sram(size as f64 * 2.0));
                }
                Instruction::Wgstore { size, .. } => {
                    // Gradient stream to memory plus in-memory update row
                    // activity (charged like the NDP engine does).
                    let bytes = size as u64 * 4;
                    let ctrl = self.mem.transfer(0x4000_0000, bytes as usize, Dir::Write);
                    memory_ctrl_cycles += ctrl;
                    dram_bytes += bytes;
                    energy.charge(Component::DdrDynamic, e.dram(bytes as f64));
                    energy.charge(
                        Component::DdrDynamic,
                        e.dram(size as f64 * 24.0) * 0.25, // internal w/m/v movement
                    );
                    energy.charge(
                        Component::Acc,
                        size as f64 * 6.0 * (e.fp_mul(32) + e.fp_add(32)) / 2.0,
                    );
                }
                Instruction::Mm { m, n, k, .. } => {
                    let c = self.pe.matmul(m as u64, n as u64, k as u64);
                    compute_cycles = compute_cycles.saturating_add(c.cycles);
                    energy.charge(Component::Acc, c.energy_pj);
                }
                Instruction::Conv {
                    batch,
                    in_channels,
                    out_channels,
                    in_hw,
                    kernel,
                    stride,
                    padding,
                    ..
                } => {
                    // Stride 0 places no output window: no MACs to charge.
                    let out_hw = if stride == 0 {
                        0
                    } else {
                        let params =
                            cq_tensor::ops::Conv2dParams::new(stride as usize, padding as usize);
                        params.output_dim(in_hw as usize, kernel as usize) as u64
                    };
                    let c = self.pe.conv(
                        u64::from(batch)
                            .saturating_mul(out_hw)
                            .saturating_mul(out_hw),
                        u64::from(in_channels)
                            .saturating_mul(u64::from(kernel))
                            .saturating_mul(u64::from(kernel)),
                        u64::from(out_channels),
                    );
                    compute_cycles = compute_cycles.saturating_add(c.cycles);
                    energy.charge(Component::Acc, c.energy_pj);
                }
                Instruction::Vec { size, .. } => {
                    let c = self.pe.vector_op(size as u64);
                    compute_cycles += c.cycles;
                    energy.charge(Component::Acc, c.energy_pj);
                }
            }
        }

        let memory_cycles = self.mem.to_clock(memory_ctrl_cycles, self.config.freq_ghz);
        // Two overlapped pipelines plus the first-tile fill that cannot
        // overlap anything.
        let cycles = compute_cycles
            .max(memory_cycles)
            .max(squ_cycles)
            .saturating_add(self.mem.to_clock(first_load_cycles, self.config.freq_ghz));
        ExecTiming {
            cycles,
            compute_cycles,
            memory_cycles,
            squ_cycles,
            energy,
            dram_bytes,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn charge_transfer(
        &mut self,
        dest: cq_isa::Operand,
        src: cq_isa::Operand,
        bytes: u64,
        memory_ctrl_cycles: &mut u64,
        dram_bytes: &mut u64,
        energy: &mut EnergyBreakdown,
        first_load_cycles: &mut u64,
    ) {
        let touches_dram = dest.space == MemSpace::Dram || src.space == MemSpace::Dram;
        if touches_dram {
            let dir = if dest.space == MemSpace::Dram {
                Dir::Write
            } else {
                Dir::Read
            };
            let addr = if dest.space == MemSpace::Dram {
                dest.offset
            } else {
                src.offset
            } as u64;
            let ctrl = self.mem.transfer(addr, bytes as usize, dir);
            if *first_load_cycles == 0 {
                *first_load_cycles = ctrl;
            }
            *memory_ctrl_cycles += ctrl;
            *dram_bytes += bytes;
            energy.charge(Component::DdrDynamic, self.energy_model.dram(bytes as f64));
        }
        energy.charge(Component::Buf, self.energy_model.sram(bytes as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{
        compile_dense_forward, compile_weight_update, DenseLayout, UpdateLayout,
    };
    use cq_isa::{Operand, QuantWidth};
    use cq_ndp::OptimizerKind;

    fn executor() -> TimingExecutor {
        TimingExecutor::new(CqConfig::edge())
    }

    #[test]
    fn empty_program_is_free() {
        let t = executor().run(&Program::new());
        assert_eq!(t.cycles, 0);
        assert_eq!(t.dram_bytes, 0);
    }

    #[test]
    fn compute_dominates_well_tiled_matmul() {
        // 1024^3 matmul at INT8: compute is ~1G MACs / 1024 per cycle; the
        // quantized operands are only ~3 MB of traffic.
        let mut p = Program::new();
        p.push(Instruction::Qload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 1 << 20,
            width: QuantWidth::W8,
        });
        p.push(Instruction::Qload {
            dest: Operand::sb(0),
            src: Operand::dram(1 << 22),
            size: 1 << 20,
            width: QuantWidth::W8,
        });
        p.push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 1024,
            n: 1024,
            k: 1024,
        });
        let t = executor().run(&p);
        assert!(
            t.compute_cycles > t.memory_cycles,
            "compute {} <= memory {}",
            t.compute_cycles,
            t.memory_cycles
        );
        // INT8 on the 4-bit array: 4 passes → ~4M cycles for 1G MACs.
        let expect = 1024u64 * 1024 * 1024 / 1024;
        assert!(t.compute_cycles >= expect);
        assert!(t.compute_cycles < expect * 2);
    }

    #[test]
    fn memory_dominates_skinny_matmul() {
        // FC-style: 1x4096 · 4096x1000 is bandwidth-bound on weights.
        let mut p = Program::new();
        p.push(Instruction::Qload {
            dest: Operand::sb(0),
            src: Operand::dram(0),
            size: 4096 * 1000,
            width: QuantWidth::W8,
        });
        p.push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 1,
            n: 1000,
            k: 4096,
        });
        let t = executor().run(&p);
        assert!(t.memory_cycles > t.compute_cycles);
    }

    #[test]
    fn executor_and_analytical_model_agree_on_dense_layer() {
        // Cross-validation: the compiled program's cost should land within
        // a small factor of the analytical per-phase estimate.
        let config = CqConfig::edge();
        let (m, k, n) = (512u32, 512u32, 512u32);
        let p = compile_dense_forward(
            &config,
            DenseLayout {
                input: 0,
                weight: m * k * 4,
                output: (m * k + k * n) * 4,
            },
            m,
            k,
            n,
        );
        let t = TimingExecutor::new(config.clone()).run(&p);
        // Analytical: compute = tiles*k*passes. Traffic: x once, the
        // output once, and the weight matrix re-streamed once per row
        // tile (it exceeds SB, so no cross-tile reuse).
        let pe = PeArray::new(&config);
        let analytic_compute = pe.matmul(m as u64, n as u64, k as u64).cycles;
        assert!(
            t.compute_cycles >= analytic_compute,
            "executor compute {} < analytic {}",
            t.compute_cycles,
            analytic_compute
        );
        // The compiled tiling zeroes tiles with a vector op; allow 2x.
        assert!(t.compute_cycles < analytic_compute * 2);
        let row_tiles = (m as u64).div_ceil(64);
        let bytes =
            (m as u64 * k as u64 + row_tiles * k as u64 * n as u64 + m as u64 * n as u64) * 4;
        let peak = DdrModel::new(config.ddr).peak_cycles(bytes as usize);
        assert!(
            t.memory_cycles as f64 >= peak as f64 * 0.9,
            "memory {} < 0.9x peak {}",
            t.memory_cycles,
            peak
        );
        assert!(
            t.memory_cycles < peak * 2,
            "memory {} > 2x peak {}",
            t.memory_cycles,
            peak
        );
    }

    #[test]
    fn wgstore_charges_gradient_stream() {
        let config = CqConfig::edge();
        let p = compile_weight_update(
            &config,
            UpdateLayout {
                weight: 0,
                m: 1 << 20,
                v: 2 << 20,
                grad: 3 << 20,
            },
            100_000,
            OptimizerKind::Adam {
                lr: 1e-3,
                beta1: 0.9,
                beta2: 0.999,
            },
            1,
        );
        let t = TimingExecutor::new(config).run(&p);
        // Gradients stream once at FP32 (plus the staging VLOADs).
        assert!(t.dram_bytes >= 100_000 * 4);
        assert!(t.dram_bytes <= 100_000 * 9);
        assert!(t.energy.energy_pj(Component::Acc) > 0.0);
    }

    #[test]
    fn time_ms_conversion() {
        let mut p = Program::new();
        p.push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 64,
            n: 64,
            k: 250_000,
        });
        let t = executor().run(&p);
        // 250k * 4 passes = 1M cycles = 1 ms at 1 GHz.
        assert!((t.time_ms(1.0) - 1.0).abs() < 0.01);
    }

    fn conv(in_channels: u32, out_channels: u32, kernel: u32, stride: u32) -> Program {
        let mut p = Program::new();
        p.push(Instruction::Conv {
            dest: Operand::nbout(0),
            weight: Operand::sb(0),
            src: Operand::nbin(0),
            batch: 1,
            in_channels,
            out_channels,
            in_hw: 4,
            kernel,
            stride,
            padding: 1,
        });
        p
    }

    #[test]
    fn conv_with_stride_zero_charges_nothing() {
        let t = executor().run(&conv(1, 1, 3, 0));
        assert_eq!(t.compute_cycles, 0);
        assert_eq!(t.energy.energy_pj(Component::Acc), 0.0);
        assert!(executor().run(&conv(1, 1, 3, 1)).compute_cycles > 0);
    }

    #[test]
    fn conv_reduction_length_is_computed_in_u64() {
        // 2^20 · 4096² = 2^44 overflows u32. The 4-pixel input is
        // smaller than the kernel, so one output position remains.
        let mut ex = executor();
        let t = ex.run(&conv(1 << 20, 1, 4096, 1));
        assert_eq!(t.compute_cycles, ex.pe.conv(1, 1 << 44, 1).cycles);
        // 2^20 filters make 2^64 MACs, which saturate instead of
        // wrapping.
        let filters = ex.pe.conv(1, 1 << 44, 1 << 20);
        assert_eq!(filters.macs, u64::MAX);
        let t = ex.run(&conv(1 << 20, 1 << 20, 4096, 1));
        assert_eq!(t.compute_cycles, filters.cycles);
        assert!(t.compute_cycles > ex.pe.conv(1, 1 << 44, 1).cycles);
        // (2^32 − 1)³ overflows the reduction length itself, and an MM
        // of that many MACs its sweep cycles: each is charged `u64::MAX`
        // cycles, and the two together saturate the program's totals.
        let wide = conv(u32::MAX, 1, u32::MAX, 1);
        assert_eq!(ex.run(&wide).compute_cycles, u64::MAX);
        let mut p = Program::new();
        p.push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: u32::MAX,
            n: u32::MAX,
            k: u32::MAX,
        });
        assert_eq!(ex.run(&p).compute_cycles, u64::MAX);
        p.push(wide.instructions()[0]);
        let t = ex.run(&p);
        assert_eq!(t.compute_cycles, u64::MAX);
        assert_eq!(t.cycles, u64::MAX);
        assert!(t.energy.energy_pj(Component::Acc).is_finite());
    }
}
