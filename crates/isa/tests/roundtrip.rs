//! Property tests over arbitrary instructions: every one disassembles to
//! non-empty text.

use cq_isa::{Instruction, MemSpace, Operand, QuantWidth, VecOp};
use proptest::prelude::*;

fn operand() -> impl Strategy<Value = Operand> {
    (0usize..4, any::<u32>()).prop_map(|(s, off)| Operand::new(MemSpace::ALL[s], off))
}

fn width() -> impl Strategy<Value = QuantWidth> {
    (0usize..4).prop_map(|i| QuantWidth::ALL[i])
}

fn vec_op() -> impl Strategy<Value = VecOp> {
    (0usize..VecOp::ALL.len()).prop_map(|i| VecOp::ALL[i])
}

fn instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(creg, imm)| Instruction::Croset { creg, imm }),
        (operand(), operand(), any::<u32>()).prop_map(|(dest, src, size)| Instruction::Vload {
            dest,
            src,
            size
        }),
        (operand(), operand(), any::<u32>()).prop_map(|(dest, src, size)| Instruction::Vstore {
            dest,
            src,
            size
        }),
        (
            operand(),
            operand(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(dest, src, dest_stride, src_stride, size, n)| Instruction::Sload {
                    dest,
                    src,
                    dest_stride,
                    src_stride,
                    size,
                    n
                }
            ),
        (operand(), operand(), any::<u32>(), width()).prop_map(|(dest, src, size, width)| {
            Instruction::Qload {
                dest,
                src,
                size,
                width,
            }
        }),
        (operand(), operand(), any::<u32>(), width()).prop_map(|(dest, src, size, width)| {
            Instruction::Qstore {
                dest,
                src,
                size,
                width,
            }
        }),
        (operand(), operand(), operand(), operand(), any::<u32>()).prop_map(
            |(dest, dest2, dest3, src, size)| Instruction::Wgstore {
                dest,
                dest2,
                dest3,
                src,
                size
            }
        ),
        (
            operand(),
            operand(),
            operand(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(dest, lsrc, rsrc, m, n, k)| Instruction::Mm {
                dest,
                lsrc,
                rsrc,
                m,
                n,
                k
            }),
        (vec_op(), operand(), operand(), operand(), any::<u32>()).prop_map(
            |(op, dest, src1, src2, size)| Instruction::Vec {
                op,
                dest,
                src1,
                src2,
                size
            }
        ),
    ]
}

proptest! {
    #[test]
    fn disassembly_is_nonempty_per_instruction(instr in instruction()) {
        prop_assert!(!instr.to_string().is_empty());
        prop_assert!(!instr.mnemonic().is_empty());
    }
}
