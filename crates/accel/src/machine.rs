//! Functional (value-level) executor for Cambricon-Q programs.
//!
//! The [`Machine`] interprets `cq-isa` programs over real data: `QLOAD`/
//! `QSTORE` run the SQU's block-local E²BQM quantization, `MM` computes on
//! the quantized values (mathematically identical to integer compute
//! followed by the accumulator's dequantizer), and `WGSTORE` applies the
//! NDPO datapath in place — so an end-to-end program produces exactly the
//! numbers the hardware would, and can be checked against the `cq-nn`
//! reference implementation.
//!
//! Addressing: the functional model addresses all memories in 4-byte
//! element slots regardless of quantized width (storage *density* is a
//! property of the timing models, not of values).

use crate::config::CqConfig;
use crate::squ::Squ;
use cq_isa::{Instruction, MemSpace, Operand, Program, VecOp};
use cq_ndp::NdpoRegs;
use cq_quant::e2bqm::dequantize_blocks;
use cq_tensor::{ops, Tensor};
use std::error::Error;
use std::fmt;

/// Error raised while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// An access fell outside a memory space.
    OutOfBounds {
        /// The memory space.
        space: MemSpace,
        /// The offending element index.
        index: usize,
        /// The space's capacity in elements.
        capacity: usize,
    },
    /// A `CONV` instruction has stride 0, which places no output window.
    ZeroStride,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfBounds {
                space,
                index,
                capacity,
            } => write!(f, "{space} access at element {index} exceeds {capacity}"),
            MachineError::ZeroStride => f.write_str("CONV with stride 0 has no output window"),
        }
    }
}

impl Error for MachineError {}

/// Execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Elements passed through the SQU (quantized loads/stores/moves).
    pub quantized_elements: u64,
    /// MACs executed by `MM`.
    pub macs: u64,
    /// Weights updated in place by `WGSTORE`.
    pub weights_updated: u64,
}

/// The functional machine: DRAM + the three on-chip buffers + NDPO regs.
///
/// # Examples
///
/// ```
/// use cq_accel::{Machine, CqConfig};
/// use cq_isa::{Instruction, Operand, Program, QuantWidth};
///
/// let mut m = Machine::new(CqConfig::edge(), 1024);
/// m.dram_mut()[..4].copy_from_slice(&[1.0, -2.0, 3.0, -4.0]);
/// let mut p = Program::new();
/// p.push(Instruction::Qload {
///     dest: Operand::nbin(0),
///     src: Operand::dram(0),
///     size: 4,
///     width: QuantWidth::W8,
/// });
/// let stats = m.run(&p)?;
/// assert_eq!(stats.quantized_elements, 4);
/// # Ok::<(), cq_accel::MachineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    dram: Vec<f32>,
    nbin: Vec<f32>,
    nbout: Vec<f32>,
    sb: Vec<f32>,
    regs: NdpoRegs,
    squ: Squ,
    stats: ExecStats,
}

impl Machine {
    /// Creates a machine with `dram_elems` DRAM elements and buffer sizes
    /// taken from the configuration.
    pub fn new(config: CqConfig, dram_elems: usize) -> Self {
        let squ = Squ::new(&config);
        Machine {
            dram: vec![0.0; dram_elems],
            nbin: vec![0.0; config.nbin_kb * 1024],
            nbout: vec![0.0; config.nbout_kb * 1024],
            sb: vec![0.0; config.sb_kb * 1024],
            regs: NdpoRegs::default(),
            squ,
            stats: ExecStats::default(),
        }
    }

    /// DRAM contents (element-addressed).
    pub fn dram(&self) -> &[f32] {
        &self.dram
    }

    /// Mutable DRAM contents.
    pub fn dram_mut(&mut self) -> &mut [f32] {
        &mut self.dram
    }

    /// Statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    fn space_len(&self, space: MemSpace) -> usize {
        match space {
            MemSpace::Dram => self.dram.len(),
            MemSpace::NBin => self.nbin.len(),
            MemSpace::NBout => self.nbout.len(),
            MemSpace::Sb => self.sb.len(),
        }
    }

    fn check(&self, op: Operand, elems: usize) -> Result<usize, MachineError> {
        let start = op.offset as usize / 4;
        let cap = self.space_len(op.space);
        let end = start.saturating_add(elems);
        if end > cap {
            return Err(MachineError::OutOfBounds {
                space: op.space,
                index: end,
                capacity: cap,
            });
        }
        Ok(start)
    }

    /// Stripe `i` of a strided access to `elems` elements from `base`. The
    /// address is computed in `u64`, so a stripe past the 32-bit byte
    /// address space is out of bounds instead of wrapping.
    fn stripe(
        &self,
        base: Operand,
        stride: u32,
        i: u64,
        elems: usize,
    ) -> Result<Operand, MachineError> {
        let offset = u64::from(base.offset) + i * u64::from(stride);
        u32::try_from(offset)
            .map(|offset| Operand::new(base.space, offset))
            .map_err(|_| MachineError::OutOfBounds {
                space: base.space,
                index: (offset / 4) as usize + elems,
                capacity: self.space_len(base.space),
            })
    }

    fn read(&self, op: Operand, elems: usize) -> Result<Vec<f32>, MachineError> {
        let start = self.check(op, elems)?;
        let slice = match op.space {
            MemSpace::Dram => &self.dram[start..start + elems],
            MemSpace::NBin => &self.nbin[start..start + elems],
            MemSpace::NBout => &self.nbout[start..start + elems],
            MemSpace::Sb => &self.sb[start..start + elems],
        };
        Ok(slice.to_vec())
    }

    fn write(&mut self, op: Operand, values: &[f32]) -> Result<(), MachineError> {
        let start = self.check(op, values.len())?;
        let slice = match op.space {
            MemSpace::Dram => &mut self.dram[start..start + values.len()],
            MemSpace::NBin => &mut self.nbin[start..start + values.len()],
            MemSpace::NBout => &mut self.nbout[start..start + values.len()],
            MemSpace::Sb => &mut self.sb[start..start + values.len()],
        };
        slice.copy_from_slice(values);
        Ok(())
    }

    /// Runs the SQU over a value stream: block-local statistic + E²BQM
    /// quantization, returning the dequantized (hardware-exact) values.
    fn squ_pass(&mut self, values: &[f32]) -> Vec<f32> {
        if values.is_empty() {
            return Vec::new();
        }
        let t = Tensor::from_vec(values.to_vec(), &[values.len()]).expect("sized");
        let (sels, _) = self.squ.quantize(&t);
        self.stats.quantized_elements += values.len() as u64;
        dequantize_blocks(&sels, t.dims()).into_vec()
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] on bad accesses, and
    /// [`MachineError::ZeroStride`] for a `CONV` with stride 0.
    pub fn execute(&mut self, instr: &Instruction) -> Result<(), MachineError> {
        self.stats.instructions += 1;
        match *instr {
            Instruction::Croset { creg, imm } => {
                self.regs.set(creg, imm);
            }
            Instruction::Vload { dest, src, size } | Instruction::Vstore { dest, src, size } => {
                let vals = self.read(src, size as usize)?;
                self.write(dest, &vals)?;
            }
            Instruction::Sload {
                dest,
                src,
                dest_stride,
                src_stride,
                size,
                n,
            }
            | Instruction::Sstore {
                dest,
                src,
                dest_stride,
                src_stride,
                size,
                n,
            } => {
                for i in 0..u64::from(n) {
                    let s = self.stripe(src, src_stride, i, size as usize)?;
                    let d = self.stripe(dest, dest_stride, i, size as usize)?;
                    let vals = self.read(s, size as usize)?;
                    self.write(d, &vals)?;
                }
            }
            Instruction::Qload {
                dest, src, size, ..
            }
            | Instruction::Qstore {
                dest, src, size, ..
            }
            | Instruction::Qmove {
                dest, src, size, ..
            } => {
                let vals = self.read(src, size as usize)?;
                let q = self.squ_pass(&vals);
                self.write(dest, &q)?;
            }
            Instruction::Wgstore {
                dest,
                dest2,
                dest3,
                src,
                size,
            } => {
                let g = self.read(src, size as usize)?;
                let mut w = self.read(dest, size as usize)?;
                let mut m = self.read(dest2, size as usize)?;
                let mut v = self.read(dest3, size as usize)?;
                self.regs.update_slice(&mut w, &mut m, &mut v, &g);
                self.write(dest, &w)?;
                self.write(dest2, &m)?;
                self.write(dest3, &v)?;
                self.stats.weights_updated += size as u64;
            }
            Instruction::Mm {
                dest,
                lsrc,
                rsrc,
                m,
                n,
                k,
            } => {
                let (m, n, k) = (m as usize, n as usize, k as usize);
                let a = Tensor::from_vec(self.read(lsrc, m * k)?, &[m, k]).expect("sized");
                let b = Tensor::from_vec(self.read(rsrc, k * n)?, &[k, n]).expect("sized");
                let c = ops::matmul(&a, &b).expect("dims match by construction");
                // MM accumulates into the destination (k-tiling support).
                let mut acc = self.read(dest, m * n)?;
                for (x, &y) in acc.iter_mut().zip(c.data()) {
                    *x += y;
                }
                self.write(dest, &acc)?;
                self.stats.macs += (m * n * k) as u64;
            }
            Instruction::Conv {
                dest,
                weight,
                src,
                batch,
                in_channels,
                out_channels,
                in_hw,
                kernel,
                stride,
                padding,
            } => {
                if stride == 0 {
                    return Err(MachineError::ZeroStride);
                }
                let (n, c, f, hw, k) = (
                    batch as usize,
                    in_channels as usize,
                    out_channels as usize,
                    in_hw as usize,
                    kernel as usize,
                );
                let params = ops::Conv2dParams::new(stride as usize, padding as usize);
                let out_hw = params.output_dim(hw, k);
                // Sizes saturate: a product past `usize` is an
                // out-of-bounds operand, never an overflow.
                let size = |dims: &[usize]| dims.iter().fold(1usize, |a, &d| a.saturating_mul(d));
                let x = Tensor::from_vec(self.read(src, size(&[n, c, hw, hw]))?, &[n, c, hw, hw])
                    .expect("sized");
                let w = Tensor::from_vec(self.read(weight, size(&[f, c, k, k]))?, &[f, c, k, k])
                    .expect("sized");
                // The output is bounded before it is computed. An empty one
                // has no window to compute: with no filters the weight read
                // bounds nothing, and `c·k·k` may not even fit a `usize`.
                let y_elems = size(&[n, f, out_hw, out_hw]);
                self.check(dest, y_elems)?;
                if y_elems > 0 {
                    let y = ops::conv2d(&x, &w, params).expect("dims validated by shapes");
                    self.write(dest, y.data())?;
                    self.stats.macs += size(&[y_elems, c, k, k]) as u64;
                }
            }
            Instruction::Vec {
                op,
                dest,
                src1,
                src2,
                size,
            } => {
                let a = self.read(src1, size as usize)?;
                let out = match op {
                    VecOp::Add | VecOp::Sub | VecOp::Mul => {
                        let b = self.read(src2, size as usize)?;
                        a.iter()
                            .zip(&b)
                            .map(|(&x, &y)| match op {
                                VecOp::Add => x + y,
                                VecOp::Sub => x - y,
                                _ => x * y,
                            })
                            .collect()
                    }
                    // VFMUL: the scalar rides in src2.offset as f32 bits.
                    VecOp::ScalarMul => {
                        let s = f32::from_bits(src2.offset);
                        a.iter().map(|&x| x * s).collect()
                    }
                    VecOp::HMul => vec![a.iter().product::<f32>()],
                    VecOp::HMaxAbs => {
                        vec![a.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()))]
                    }
                    VecOp::HSum => vec![a.iter().sum::<f32>()],
                    // A select, as cq-nn's ReLU: −0.0 and NaN give +0.0
                    // under every codegen, which `f32::max` does not.
                    VecOp::Relu => a.iter().map(|&x| if x > 0.0 { x } else { 0.0 }).collect(),
                    VecOp::ReluGrad => a.iter().map(|&x| if x > 0.0 { 1.0 } else { 0.0 }).collect(),
                };
                self.write(dest, &out)?;
            }
        }
        Ok(())
    }

    /// Runs a whole program.
    ///
    /// # Errors
    ///
    /// Stops at the first failing instruction.
    pub fn run(&mut self, program: &Program) -> Result<ExecStats, MachineError> {
        for instr in program {
            self.execute(instr)?;
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_isa::QuantWidth;

    fn machine() -> Machine {
        Machine::new(CqConfig::edge(), 1 << 16)
    }

    #[test]
    fn vload_vstore_roundtrip() {
        let mut m = machine();
        m.dram_mut()[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 3,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(40),
            src: Operand::nbin(0),
            size: 3,
        });
        m.run(&p).unwrap();
        assert_eq!(&m.dram()[10..13], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn qload_quantizes_values() {
        let mut m = machine();
        for i in 0..64 {
            m.dram_mut()[i] = (i as f32 - 32.0) * 0.01;
        }
        let mut p = Program::new();
        p.push(Instruction::Qload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 64,
            width: QuantWidth::W8,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(1024),
            src: Operand::nbin(0),
            size: 64,
        });
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.quantized_elements, 64);
        // Quantized-dequantized values are close to, not equal to, input.
        let orig: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.01).collect();
        let out = &m.dram()[256..320];
        let err: f32 = orig.iter().zip(out).map(|(a, b)| (a - b).abs()).sum();
        assert!(err > 0.0, "no quantization happened");
        assert!(err / 64.0 < 0.005, "too much error: {err}");
    }

    #[test]
    fn mm_computes_and_accumulates() {
        let mut m = machine();
        m.dram_mut()[..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // A 2x2
        m.dram_mut()[4..8].copy_from_slice(&[1.0, 0.0, 0.0, 1.0]); // I 2x2
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 4,
        })
        .push(Instruction::Vload {
            dest: Operand::sb(0),
            src: Operand::dram(16),
            size: 4,
        })
        .push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 2,
            n: 2,
            k: 2,
        })
        .push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 2,
            n: 2,
            k: 2,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(64),
            src: Operand::nbout(0),
            size: 4,
        });
        let stats = m.run(&p).unwrap();
        // Two accumulating MMs: result = 2*A.
        assert_eq!(&m.dram()[16..20], &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(stats.macs, 16);
    }

    #[test]
    fn wgstore_runs_ndpo_sgd() {
        let mut m = machine();
        // w at 0..4, m at 4..8, v at 8..12, gradient in nbout.
        m.dram_mut()[..4].copy_from_slice(&[1.0, 1.0, 1.0, 1.0]);
        let mut p = Program::new();
        // Configure SGD lr=0.5: c5=0.5, everything else zero/false.
        p.push(Instruction::Croset {
            creg: 4,
            imm: 0.5f32.to_bits(),
        });
        p.push(Instruction::Vload {
            dest: Operand::nbout(0),
            src: Operand::dram(48), // zeros
            size: 4,
        });
        m.dram_mut()[12..16].copy_from_slice(&[1.0, 2.0, -1.0, 0.0]);
        p.push(Instruction::Vload {
            dest: Operand::nbout(0),
            src: Operand::dram(48),
            size: 4,
        });
        p.push(Instruction::Wgstore {
            dest: Operand::dram(0),
            dest2: Operand::dram(16),
            dest3: Operand::dram(32),
            src: Operand::nbout(0),
            size: 4,
        });
        m.run(&p).unwrap();
        // Gradients loaded into nbout were dram[12..16].
        assert_eq!(&m.dram()[..4], &[0.5, 0.0, 1.5, 1.0]);
        assert_eq!(m.stats().weights_updated, 4);
    }

    #[test]
    fn vector_ops() {
        let mut m = machine();
        m.dram_mut()[..4].copy_from_slice(&[1.0, -2.0, 3.0, -4.0]);
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 4,
        })
        .push(Instruction::Vec {
            op: VecOp::Relu,
            dest: Operand::nbout(0),
            src1: Operand::nbin(0),
            src2: Operand::nbin(0),
            size: 4,
        })
        .push(Instruction::Vec {
            op: VecOp::HMaxAbs,
            dest: Operand::nbout(64),
            src1: Operand::nbin(0),
            src2: Operand::nbin(0),
            size: 4,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(64),
            src: Operand::nbout(0),
            size: 4,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(128),
            src: Operand::nbout(64),
            size: 1,
        });
        m.run(&p).unwrap();
        assert_eq!(&m.dram()[16..20], &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(m.dram()[32], 4.0);
    }

    /// RELU's output bits: every non-positive input, NaN included, gives
    /// +0.0, and positive values pass unchanged.
    #[test]
    fn relu_output_bits() {
        let cases = [
            (-0.0f32, 0.0f32),
            (f32::NAN, 0.0),
            (-f32::NAN, 0.0),
            (f32::NEG_INFINITY, 0.0),
            (-f32::from_bits(1), 0.0),
            (-2.5, 0.0),
            (f32::INFINITY, f32::INFINITY),
            (f32::from_bits(1), f32::from_bits(1)),
            (2.5, 2.5),
        ];
        let mut m = machine();
        for (i, &(x, _)) in cases.iter().enumerate() {
            m.dram_mut()[i] = x;
        }
        let size = cases.len() as u32;
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size,
        })
        .push(Instruction::Vec {
            op: VecOp::Relu,
            dest: Operand::nbout(0),
            src1: Operand::nbin(0),
            src2: Operand::nbin(0),
            size,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(64),
            src: Operand::nbout(0),
            size,
        });
        m.run(&p).unwrap();
        for (i, &(x, want)) in cases.iter().enumerate() {
            let got = m.dram()[16 + i];
            assert_eq!(got.to_bits(), want.to_bits(), "RELU({x:?}) = {got:?}");
        }
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = Machine::new(CqConfig::edge(), 8);
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 100,
        });
        let err = m.run(&p).unwrap_err();
        assert!(matches!(err, MachineError::OutOfBounds { .. }));
        assert!(err.to_string().contains("dram"));
    }

    /// A stripe address past `u32::MAX` is an out-of-bounds access, on
    /// the source side and on the destination side, and the wrapped
    /// address is never touched.
    #[test]
    fn strided_stripe_past_the_address_space_is_out_of_bounds() {
        let wrapping_source = Instruction::Sload {
            dest: Operand::nbin(0),
            src: Operand::dram(16),
            dest_stride: 16,
            src_stride: 0xFFFF_FFF8,
            size: 4,
            n: 2,
        };
        let wrapping_dest = Instruction::Sstore {
            dest: Operand::dram(64),
            src: Operand::nbout(0),
            dest_stride: 0xFFFF_FFC0,
            src_stride: 16,
            size: 4,
            n: 2,
        };
        for instr in [wrapping_source, wrapping_dest] {
            let mut m = Machine::new(CqConfig::edge(), 64);
            m.dram_mut()[..4].fill(7.0);
            let err = m.execute(&instr).unwrap_err();
            assert!(
                matches!(
                    err,
                    MachineError::OutOfBounds {
                        space: MemSpace::Dram,
                        ..
                    }
                ),
                "{instr}: {err}"
            );
            assert_eq!(&m.dram()[..4], &[7.0; 4], "{instr}");
        }
    }

    #[test]
    fn conv_executes_functionally() {
        let mut m = machine();
        // 1x1x4x4 input, 1x1x3x3 all-ones kernel, stride 1 pad 1.
        for i in 0..16 {
            m.dram_mut()[i] = 1.0;
        }
        for i in 16..25 {
            m.dram_mut()[i] = 1.0;
        }
        let mut p = Program::new();
        p.push(Instruction::Vload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 16,
        })
        .push(Instruction::Vload {
            dest: Operand::sb(0),
            src: Operand::dram(64),
            size: 9,
        })
        .push(Instruction::Conv {
            dest: Operand::nbout(0),
            weight: Operand::sb(0),
            src: Operand::nbin(0),
            batch: 1,
            in_channels: 1,
            out_channels: 1,
            in_hw: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        })
        .push(Instruction::Vstore {
            dest: Operand::dram(128),
            src: Operand::nbout(0),
            size: 16,
        });
        let stats = m.run(&p).unwrap();
        // Center outputs see the full 3x3 window of ones = 9.
        assert_eq!(m.dram()[32 + 5], 9.0);
        // Corner outputs see a 2x2 window = 4.
        assert_eq!(m.dram()[32], 4.0);
        assert_eq!(stats.macs, (16 * 9) as u64);
    }

    /// A CONV with the given shape, stride 1, reading NBin and SB and
    /// writing NBout.
    fn conv(
        batch: u32,
        in_channels: u32,
        out_channels: u32,
        in_hw: u32,
        kernel: u32,
        padding: u32,
    ) -> Instruction {
        Instruction::Conv {
            dest: Operand::nbout(0),
            weight: Operand::sb(0),
            src: Operand::nbin(0),
            batch,
            in_channels,
            out_channels,
            in_hw,
            kernel,
            stride: 1,
            padding,
        }
    }

    /// CONV operand sizes past `usize` are out-of-bounds accesses, as an
    /// oversized MM operand is, not multiply overflows: an oversized
    /// input; a 1×1×4×4 input that fits with an oversized weight; and a
    /// 1×1 input and kernel whose padding makes the output oversized,
    /// which must be refused before the output is allocated.
    #[test]
    fn conv_with_oversized_operands_is_out_of_bounds() {
        for (instr, space) in [
            (conv(u32::MAX, u32::MAX, 1, u32::MAX, 3, 0), MemSpace::NBin),
            (conv(1, 1, u32::MAX, 4, u32::MAX, 0), MemSpace::Sb),
            (conv(1, 1, 1, 1, 1, u32::MAX), MemSpace::NBout),
        ] {
            let err = machine().execute(&instr).unwrap_err();
            assert_eq!(
                err,
                MachineError::OutOfBounds {
                    space,
                    index: usize::MAX,
                    capacity: machine().space_len(space),
                },
                "{instr}"
            );
        }
    }

    /// With no filters the output is empty, so nothing is computed, even
    /// for a reduction length `in_channels · kernel²` past `usize`.
    #[test]
    fn conv_with_no_filters_computes_nothing() {
        let mut m = machine();
        m.execute(&conv(1, u32::MAX, 0, 0, u32::MAX, 0)).unwrap();
        assert_eq!(m.stats().macs, 0);
    }

    #[test]
    fn conv_with_stride_zero_is_a_typed_error() {
        let mut m = machine();
        let conv = Instruction::Conv {
            dest: Operand::nbout(0),
            weight: Operand::sb(0),
            src: Operand::nbin(0),
            batch: 1,
            in_channels: 1,
            out_channels: 1,
            in_hw: 4,
            kernel: 3,
            stride: 0,
            padding: 1,
        };
        let err = m.execute(&conv).unwrap_err();
        assert_eq!(err, MachineError::ZeroStride);
        assert_eq!(err.to_string(), "CONV with stride 0 has no output window");
    }
}
