//! # cq-isa — the Cambricon-Q instruction set (paper Table V)
//!
//! Cambricon-Q uses a tensor-based ISA with high-level operations
//! (convolution, matrix multiply, vector ops, strided I/O) plus the
//! quantization-specific instructions that make HQT and the NDP engine
//! programmable:
//!
//! * `QLOAD`/`QSTORE`/`QMOVE` — data movement with on-the-fly statistic +
//!   quantization through the SQU;
//! * `CROSET` — configure the NDP optimizer's constant registers
//!   (c₁..c₅, s₁, s₂ of Eq. 1);
//! * `WGSTORE` — store weight gradients to memory *and* trigger the
//!   in-place optimizer update near DRAM.
//!
//! This crate defines the [`Instruction`] enum, a disassembler
//! (`Display`), and the [`Program`] container used by the layer compiler
//! in `cq-accel`.
//!
//! # Examples
//!
//! ```
//! use cq_isa::{Instruction, MemSpace, Operand, Program};
//!
//! let mut p = Program::new();
//! p.push(Instruction::Vload {
//!     dest: Operand::new(MemSpace::NBin, 0),
//!     src: Operand::new(MemSpace::Dram, 0x1000),
//!     size: 4096,
//! });
//! assert_eq!(p.disassemble(), "VLOAD nbin[0x0], dram[0x1000], 4096");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod instruction;
mod program;

pub use instruction::{Instruction, MemSpace, Operand, QuantWidth, VecOp};
pub use program::Program;
