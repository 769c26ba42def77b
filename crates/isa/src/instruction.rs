//! Instruction definitions.

use std::fmt;

/// An on-chip or off-chip memory space an operand can live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip DRAM (behind the NDP engine).
    Dram,
    /// Input-neuron buffer (QBC-managed).
    NBin,
    /// Output-neuron buffer (full precision, no QBC).
    NBout,
    /// Synapse (weight) buffer (QBC-managed).
    Sb,
}

impl MemSpace {
    /// All spaces.
    pub const ALL: [MemSpace; 4] = [
        MemSpace::Dram,
        MemSpace::NBin,
        MemSpace::NBout,
        MemSpace::Sb,
    ];

    /// Short name used by the disassembler.
    pub fn name(&self) -> &'static str {
        match self {
            MemSpace::Dram => "dram",
            MemSpace::NBin => "nbin",
            MemSpace::NBout => "nbout",
            MemSpace::Sb => "sb",
        }
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A memory operand: space + byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operand {
    /// Which memory the operand addresses.
    pub space: MemSpace,
    /// Byte offset within that memory.
    pub offset: u32,
}

impl Operand {
    /// Creates an operand.
    pub fn new(space: MemSpace, offset: u32) -> Self {
        Operand { space, offset }
    }

    /// Shorthand for a DRAM operand.
    pub fn dram(offset: u32) -> Self {
        Operand::new(MemSpace::Dram, offset)
    }

    /// Shorthand for an NBin operand.
    pub fn nbin(offset: u32) -> Self {
        Operand::new(MemSpace::NBin, offset)
    }

    /// Shorthand for an NBout operand.
    pub fn nbout(offset: u32) -> Self {
        Operand::new(MemSpace::NBout, offset)
    }

    /// Shorthand for an SB operand.
    pub fn sb(offset: u32) -> Self {
        Operand::new(MemSpace::Sb, offset)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{:#x}]", self.space, self.offset)
    }
}

/// Quantization width selector carried by Q-type instructions
/// (the SQU supports INT4/8/12/16, paper §VII.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantWidth {
    /// 4-bit.
    W4,
    /// 8-bit (default training width).
    #[default]
    W8,
    /// 12-bit.
    W12,
    /// 16-bit.
    W16,
}

impl QuantWidth {
    /// All widths, narrowest first.
    pub const ALL: [QuantWidth; 4] = [
        QuantWidth::W4,
        QuantWidth::W8,
        QuantWidth::W12,
        QuantWidth::W16,
    ];

    /// Bits of the width.
    pub fn bits(&self) -> u32 {
        match self {
            QuantWidth::W4 => 4,
            QuantWidth::W8 => 8,
            QuantWidth::W12 => 12,
            QuantWidth::W16 => 16,
        }
    }
}

impl fmt::Display for QuantWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

/// Elementwise / horizontal vector operations executed by the SFU and
/// vector lanes (`VMUL`, `VFMUL`, `HMUL`, ... in Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecOp {
    /// Elementwise add.
    Add,
    /// Elementwise subtract.
    Sub,
    /// Elementwise multiply (`VMUL`).
    Mul,
    /// Vector × scalar fused multiply (`VFMUL`).
    ScalarMul,
    /// Horizontal product reduction (`HMUL`).
    HMul,
    /// Horizontal max-absolute reduction (the Stat Unit's statistic).
    HMaxAbs,
    /// Horizontal sum reduction.
    HSum,
    /// ReLU activation (SFU).
    Relu,
    /// ReLU backward mask (SFU).
    ReluGrad,
}

impl VecOp {
    /// All vector ops.
    pub const ALL: [VecOp; 9] = [
        VecOp::Add,
        VecOp::Sub,
        VecOp::Mul,
        VecOp::ScalarMul,
        VecOp::HMul,
        VecOp::HMaxAbs,
        VecOp::HSum,
        VecOp::Relu,
        VecOp::ReluGrad,
    ];

    /// Mnemonic used by the disassembler.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            VecOp::Add => "VADD",
            VecOp::Sub => "VSUB",
            VecOp::Mul => "VMUL",
            VecOp::ScalarMul => "VFMUL",
            VecOp::HMul => "HMUL",
            VecOp::HMaxAbs => "HMAXABS",
            VecOp::HSum => "HSUM",
            VecOp::Relu => "RELU",
            VecOp::ReluGrad => "RELUGRAD",
        }
    }
}

impl fmt::Display for VecOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A Cambricon-Q instruction (paper Table V).
///
/// Sizes are element counts; offsets are bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `CROSET creg_id, imm` — set an NDP optimizer constant register
    /// (c₁..c₅ and the s₁/s₂ selectors of Eq. 1). The immediate carries an
    /// f32 bit pattern.
    Croset {
        /// Constant-register index (0..=6).
        creg: u8,
        /// Raw f32 bits of the constant.
        imm: u32,
    },
    /// `VLOAD dest, src, size` — contiguous vector load.
    Vload {
        /// Destination buffer operand.
        dest: Operand,
        /// Source operand.
        src: Operand,
        /// Element count.
        size: u32,
    },
    /// `VSTORE dest, src, size` — contiguous vector store.
    Vstore {
        /// Destination operand.
        dest: Operand,
        /// Source buffer operand.
        src: Operand,
        /// Element count.
        size: u32,
    },
    /// `SLOAD dest, src, dest_str, src_str, size, n` — strided (stripe) load
    /// of `n` stripes of `size` elements.
    Sload {
        /// Destination operand.
        dest: Operand,
        /// Source operand.
        src: Operand,
        /// Destination stride in bytes.
        dest_stride: u32,
        /// Source stride in bytes.
        src_stride: u32,
        /// Elements per stripe.
        size: u32,
        /// Number of stripes.
        n: u32,
    },
    /// `SSTORE` — strided (stripe) store; mirror of [`Instruction::Sload`].
    Sstore {
        /// Destination operand.
        dest: Operand,
        /// Source operand.
        src: Operand,
        /// Destination stride in bytes.
        dest_stride: u32,
        /// Source stride in bytes.
        src_stride: u32,
        /// Elements per stripe.
        size: u32,
        /// Number of stripes.
        n: u32,
    },
    /// `QLOAD dest, src, size` — load with on-the-fly statistic+quantization
    /// through the NDP-side SQU (full-precision DRAM data arrives quantized
    /// in the on-chip buffer).
    Qload {
        /// Destination buffer operand (QBC-tagged).
        dest: Operand,
        /// Source DRAM operand.
        src: Operand,
        /// Element count.
        size: u32,
        /// Quantization width.
        width: QuantWidth,
    },
    /// `QSTORE dest, src, size` — store with on-the-fly quantization through
    /// the core-side SQU (full-precision NBout data leaves quantized).
    Qstore {
        /// Destination DRAM operand.
        dest: Operand,
        /// Source buffer operand.
        src: Operand,
        /// Element count.
        size: u32,
        /// Quantization width.
        width: QuantWidth,
    },
    /// `QMOVE dest, src, size` — on-chip move with requantization.
    Qmove {
        /// Destination buffer operand.
        dest: Operand,
        /// Source buffer operand.
        src: Operand,
        /// Element count.
        size: u32,
        /// Quantization width.
        width: QuantWidth,
    },
    /// `WGSTORE dest, dest2, dest3, src, size` — store weight gradients and
    /// trigger the NDP optimizer: `dest` addresses the weights, `dest2` the
    /// first optimizer parameter (m), `dest3` the second (v), `src` the
    /// gradient source buffer.
    Wgstore {
        /// Weight row base address in DRAM.
        dest: Operand,
        /// Optimizer parameter m base address.
        dest2: Operand,
        /// Optimizer parameter v base address.
        dest3: Operand,
        /// Gradient source (on-chip, full precision).
        src: Operand,
        /// Element count.
        size: u32,
    },
    /// `MM dest, lsrc, rsrc, m, n, k` — matrix multiply on the PE array.
    Mm {
        /// Destination (NBout).
        dest: Operand,
        /// Left operand (NBin).
        lsrc: Operand,
        /// Right operand (SB).
        rsrc: Operand,
        /// Rows of the left matrix.
        m: u32,
        /// Columns of the right matrix.
        n: u32,
        /// Inner dimension.
        k: u32,
    },
    /// `CONV dest, weight, src, ...` — 2-D convolution on the PE array
    /// (input `[N, C, H, W]`, square kernel `K`, weights `[F, C, K, K]`).
    Conv {
        /// Destination (NBout).
        dest: Operand,
        /// Weights (SB).
        weight: Operand,
        /// Input neurons (NBin).
        src: Operand,
        /// Batch size N.
        batch: u32,
        /// Input channels C.
        in_channels: u32,
        /// Output channels F.
        out_channels: u32,
        /// Input spatial height/width (square).
        in_hw: u32,
        /// Kernel height/width (square).
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// Vector / SFU operation over `size` elements.
    Vec {
        /// Operation.
        op: VecOp,
        /// Destination operand.
        dest: Operand,
        /// First source.
        src1: Operand,
        /// Second source (ignored by unary/horizontal ops).
        src2: Operand,
        /// Element count.
        size: u32,
    },
}

impl Instruction {
    /// The instruction mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Croset { .. } => "CROSET",
            Instruction::Vload { .. } => "VLOAD",
            Instruction::Vstore { .. } => "VSTORE",
            Instruction::Sload { .. } => "SLOAD",
            Instruction::Sstore { .. } => "SSTORE",
            Instruction::Qload { .. } => "QLOAD",
            Instruction::Qstore { .. } => "QSTORE",
            Instruction::Qmove { .. } => "QMOVE",
            Instruction::Wgstore { .. } => "WGSTORE",
            Instruction::Mm { .. } => "MM",
            Instruction::Conv { .. } => "CONV",
            Instruction::Vec { op, .. } => op.mnemonic(),
        }
    }

    /// Whether the instruction engages the SQU (on-the-fly quantization).
    pub fn uses_squ(&self) -> bool {
        matches!(
            self,
            Instruction::Qload { .. } | Instruction::Qstore { .. } | Instruction::Qmove { .. }
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Croset { creg, imm } => {
                let val = f32::from_bits(*imm);
                // Finite values print as floats (Rust float text is
                // round-trippable); NaN payloads and infinities keep their
                // exact bits.
                if val.is_finite() {
                    write!(f, "CROSET c{creg}, {val}")
                } else {
                    write!(f, "CROSET c{creg}, bits:{imm:#010x}")
                }
            }
            Instruction::Vload { dest, src, size } => {
                write!(f, "VLOAD {dest}, {src}, {size}")
            }
            Instruction::Vstore { dest, src, size } => {
                write!(f, "VSTORE {dest}, {src}, {size}")
            }
            Instruction::Sload {
                dest,
                src,
                dest_stride,
                src_stride,
                size,
                n,
            } => write!(
                f,
                "SLOAD {dest}, {src}, {dest_stride}, {src_stride}, {size}, {n}"
            ),
            Instruction::Sstore {
                dest,
                src,
                dest_stride,
                src_stride,
                size,
                n,
            } => write!(
                f,
                "SSTORE {dest}, {src}, {dest_stride}, {src_stride}, {size}, {n}"
            ),
            Instruction::Qload {
                dest,
                src,
                size,
                width,
            } => write!(f, "QLOAD.{width} {dest}, {src}, {size}"),
            Instruction::Qstore {
                dest,
                src,
                size,
                width,
            } => write!(f, "QSTORE.{width} {dest}, {src}, {size}"),
            Instruction::Qmove {
                dest,
                src,
                size,
                width,
            } => write!(f, "QMOVE.{width} {dest}, {src}, {size}"),
            Instruction::Wgstore {
                dest,
                dest2,
                dest3,
                src,
                size,
            } => write!(f, "WGSTORE {dest}, {dest2}, {dest3}, {src}, {size}"),
            Instruction::Mm {
                dest,
                lsrc,
                rsrc,
                m,
                n,
                k,
            } => write!(f, "MM {dest}, {lsrc}, {rsrc}, {m}, {n}, {k}"),
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
            } => write!(
                f,
                "CONV {dest}, {weight}, {src}, n={batch}, c={in_channels}, f={out_channels}, hw={in_hw}, k={kernel}, s={stride}, p={padding}"
            ),
            Instruction::Vec {
                op,
                dest,
                src1,
                src2,
                size,
            } => write!(f, "{op} {dest}, {src1}, {src2}, {size}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_shorthands() {
        assert_eq!(Operand::dram(4).space, MemSpace::Dram);
        assert_eq!(Operand::nbin(4).space, MemSpace::NBin);
        assert_eq!(Operand::nbout(4).space, MemSpace::NBout);
        assert_eq!(Operand::sb(4).space, MemSpace::Sb);
        assert_eq!(Operand::dram(16).to_string(), "dram[0x10]");
    }

    #[test]
    fn classification() {
        let q = Instruction::Qstore {
            dest: Operand::dram(0),
            src: Operand::nbout(0),
            size: 64,
            width: QuantWidth::W8,
        };
        assert!(q.uses_squ());
        let mm = Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 1,
            n: 1,
            k: 1,
        };
        assert!(!mm.uses_squ());
    }

    /// The exact Table V text of one instance of each of the 12 forms,
    /// plus a non-finite `CROSET` immediate, which prints its raw bits.
    #[test]
    fn disassembly() {
        let cases = [
            (
                Instruction::Croset {
                    creg: 2,
                    imm: 0.9f32.to_bits(),
                },
                "CROSET c2, 0.9",
            ),
            (
                Instruction::Croset {
                    creg: 0,
                    imm: 0x7f80_0001,
                },
                "CROSET c0, bits:0x7f800001",
            ),
            (
                Instruction::Vload {
                    dest: Operand::nbin(0),
                    src: Operand::dram(0x1000),
                    size: 4096,
                },
                "VLOAD nbin[0x0], dram[0x1000], 4096",
            ),
            (
                Instruction::Vstore {
                    dest: Operand::dram(0x40),
                    src: Operand::nbout(0x10),
                    size: 16,
                },
                "VSTORE dram[0x40], nbout[0x10], 16",
            ),
            (
                Instruction::Sload {
                    dest: Operand::nbin(0),
                    src: Operand::dram(0x100),
                    dest_stride: 64,
                    src_stride: 256,
                    size: 16,
                    n: 4,
                },
                "SLOAD nbin[0x0], dram[0x100], 64, 256, 16, 4",
            ),
            (
                Instruction::Sstore {
                    dest: Operand::dram(0x200),
                    src: Operand::nbout(0),
                    dest_stride: 512,
                    src_stride: 128,
                    size: 32,
                    n: 8,
                },
                "SSTORE dram[0x200], nbout[0x0], 512, 128, 32, 8",
            ),
            (
                Instruction::Qload {
                    dest: Operand::nbin(0),
                    src: Operand::dram(256),
                    size: 1024,
                    width: QuantWidth::W8,
                },
                "QLOAD.i8 nbin[0x0], dram[0x100], 1024",
            ),
            (
                Instruction::Qstore {
                    dest: Operand::dram(0x800),
                    src: Operand::nbout(0),
                    size: 256,
                    width: QuantWidth::W16,
                },
                "QSTORE.i16 dram[0x800], nbout[0x0], 256",
            ),
            (
                Instruction::Qmove {
                    dest: Operand::sb(0x20),
                    src: Operand::nbin(0),
                    size: 64,
                    width: QuantWidth::W4,
                },
                "QMOVE.i4 sb[0x20], nbin[0x0], 64",
            ),
            (
                Instruction::Wgstore {
                    dest: Operand::dram(0),
                    dest2: Operand::dram(0x1000),
                    dest3: Operand::dram(0x2000),
                    src: Operand::nbout(0),
                    size: 1024,
                },
                "WGSTORE dram[0x0], dram[0x1000], dram[0x2000], nbout[0x0], 1024",
            ),
            (
                Instruction::Mm {
                    dest: Operand::nbout(0),
                    lsrc: Operand::nbin(0),
                    rsrc: Operand::sb(0),
                    m: 64,
                    n: 32,
                    k: 128,
                },
                "MM nbout[0x0], nbin[0x0], sb[0x0], 64, 32, 128",
            ),
            (
                Instruction::Conv {
                    dest: Operand::nbout(0),
                    weight: Operand::sb(0),
                    src: Operand::nbin(0),
                    batch: 2,
                    in_channels: 3,
                    out_channels: 16,
                    in_hw: 32,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                "CONV nbout[0x0], sb[0x0], nbin[0x0], n=2, c=3, f=16, hw=32, k=3, s=1, p=1",
            ),
            (
                Instruction::Vec {
                    op: VecOp::Add,
                    dest: Operand::nbout(0x40),
                    src1: Operand::nbin(0),
                    src2: Operand::sb(0x8),
                    size: 8,
                },
                "VADD nbout[0x40], nbin[0x0], sb[0x8], 8",
            ),
        ];
        for (i, text) in cases {
            assert_eq!(i.to_string(), text);
            assert!(text.starts_with(i.mnemonic()), "{text}");
        }
    }

    #[test]
    fn croset_carries_f32() {
        let i = Instruction::Croset {
            creg: 2,
            imm: 0.9f32.to_bits(),
        };
        assert!(i.to_string().contains("0.9"));
    }

    #[test]
    fn quant_width_bits() {
        assert_eq!(QuantWidth::W4.bits(), 4);
        assert_eq!(QuantWidth::W16.bits(), 16);
        assert_eq!(QuantWidth::default(), QuantWidth::W8);
    }

    #[test]
    fn vec_op_mnemonics() {
        assert_eq!(VecOp::ScalarMul.mnemonic(), "VFMUL");
        assert_eq!(VecOp::HMaxAbs.to_string(), "HMAXABS");
        assert_eq!(VecOp::ALL.len(), 9);
    }
}
