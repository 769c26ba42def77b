//! Fuzz-style property tests for the functional machine: programs built
//! from in-bounds operands always execute without panicking, strided
//! accesses anywhere in the address space never panic, and the
//! executor's costs are internally consistent.

use cq_accel::{CqConfig, Machine, TimingExecutor};
use cq_isa::{Instruction, MemSpace, Operand, Program, QuantWidth, VecOp};
use proptest::prelude::*;

const DRAM_ELEMS: u32 = 4096;
const BUF_ELEMS: u32 = 4096; // well under the smallest buffer

fn operand(max_elems: u32, reserve: u32) -> impl Strategy<Value = Operand> {
    (0usize..4, 0..max_elems.saturating_sub(reserve)).prop_map(|(s, e)| Operand {
        space: MemSpace::ALL[s],
        offset: e * 4,
    })
}

fn small_instruction() -> impl Strategy<Value = Instruction> {
    let size = 1u32..64;
    prop_oneof![
        (operand(BUF_ELEMS, 64), operand(BUF_ELEMS, 64), size.clone())
            .prop_map(|(dest, src, size)| Instruction::Vload { dest, src, size }),
        (
            operand(BUF_ELEMS, 64),
            operand(BUF_ELEMS, 64),
            size.clone(),
            0usize..4
        )
            .prop_map(|(dest, src, size, w)| Instruction::Qmove {
                dest,
                src,
                size,
                width: QuantWidth::ALL[w],
            }),
        (
            0usize..9,
            operand(BUF_ELEMS, 64),
            operand(BUF_ELEMS, 64),
            operand(BUF_ELEMS, 64),
            size
        )
            .prop_map(|(op, dest, src1, src2, size)| Instruction::Vec {
                op: VecOp::ALL[op],
                dest,
                src1,
                src2,
                size,
            }),
        (0u8..7, any::<u32>()).prop_map(|(creg, imm)| Instruction::Croset { creg, imm }),
    ]
}

/// A byte offset: in bounds of the test memories, or anywhere in the
/// 32-bit space.
fn offset() -> impl Strategy<Value = u32> {
    prop_oneof![0..BUF_ELEMS * 4, any::<u32>()]
}

/// A byte stride: small, small and negative in two's complement (so a
/// stripe wraps past `u32::MAX` onto a low address), or anywhere.
fn stride() -> impl Strategy<Value = u32> {
    prop_oneof![
        0..BUF_ELEMS * 4,
        (1..BUF_ELEMS * 4).prop_map(u32::wrapping_neg),
        any::<u32>()
    ]
}

fn operand_anywhere() -> impl Strategy<Value = Operand> {
    (0usize..4, offset()).prop_map(|(s, offset)| Operand::new(MemSpace::ALL[s], offset))
}

/// SLOAD/SSTORE with arbitrary offsets and strides and a few stripes.
fn strided_instruction() -> impl Strategy<Value = Instruction> {
    (
        any::<bool>(),
        operand_anywhere(),
        operand_anywhere(),
        stride(),
        stride(),
        0u32..64,
        0u32..4,
    )
        .prop_map(|(load, dest, src, dest_stride, src_stride, size, n)| {
            if load {
                Instruction::Sload {
                    dest,
                    src,
                    dest_stride,
                    src_stride,
                    size,
                    n,
                }
            } else {
                Instruction::Sstore {
                    dest,
                    src,
                    dest_stride,
                    src_stride,
                    size,
                    n,
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strided accesses anywhere in the address space execute or return a
    /// typed error; none panics or wraps around.
    #[test]
    fn strided_accesses_never_panic(instrs in prop::collection::vec(strided_instruction(), 1..16)) {
        let mut m = Machine::new(CqConfig::edge(), DRAM_ELEMS as usize);
        for i in &instrs {
            let _ = m.execute(i);
        }
    }

    /// In-bounds programs execute to completion on the functional machine.
    #[test]
    fn in_bounds_programs_never_fail(instrs in prop::collection::vec(small_instruction(), 0..30)) {
        let p: Program = instrs.into_iter().collect();
        let mut m = Machine::new(CqConfig::edge(), DRAM_ELEMS as usize);
        let stats = m.run(&p).expect("in-bounds program must execute");
        prop_assert_eq!(stats.instructions, p.len() as u64);
    }

    /// The timing executor never panics and reports monotone-consistent
    /// totals for any in-bounds program.
    #[test]
    fn executor_totals_consistent(instrs in prop::collection::vec(small_instruction(), 0..30)) {
        let p: Program = instrs.into_iter().collect();
        let t = TimingExecutor::new(CqConfig::edge()).run(&p);
        let busiest = t.compute_cycles.max(t.memory_cycles).max(t.squ_cycles);
        prop_assert!(t.cycles >= busiest);
    }

    /// Functional execution is deterministic: the same program on the
    /// same initial state produces identical DRAM contents.
    #[test]
    fn machine_is_deterministic(instrs in prop::collection::vec(small_instruction(), 0..20)) {
        let p: Program = instrs.into_iter().collect();
        let run = || {
            let mut m = Machine::new(CqConfig::edge(), DRAM_ELEMS as usize);
            for (i, v) in m.dram_mut().iter_mut().enumerate() {
                *v = (i as f32 * 0.37).sin();
            }
            m.run(&p).unwrap();
            m.dram().to_vec()
        };
        prop_assert_eq!(run(), run());
    }
}
