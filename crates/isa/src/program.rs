//! Instruction sequences.

use crate::instruction::Instruction;
use std::fmt;

/// An ordered sequence of Cambricon-Q instructions.
///
/// # Examples
///
/// ```
/// use cq_isa::{Instruction, Operand, Program, QuantWidth};
///
/// let mut p = Program::new();
/// p.push(Instruction::Qload {
///     dest: Operand::nbin(0),
///     src: Operand::dram(0),
///     size: 1024,
///     width: QuantWidth::W8,
/// });
/// assert_eq!(p.len(), 1);
/// assert!(p.disassemble().contains("QLOAD.i8"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        self.instructions.push(instr);
        self
    }

    /// The instructions in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Textual disassembly, one instruction per line.
    pub fn disassemble(&self) -> String {
        self.instructions
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Counts instructions matching a predicate.
    pub fn count(&self, pred: impl Fn(&Instruction) -> bool) -> usize {
        self.instructions.iter().filter(|i| pred(i)).count()
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program {
            instructions: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{Operand, QuantWidth, VecOp};

    fn sample() -> Program {
        let mut p = Program::new();
        p.push(Instruction::Qload {
            dest: Operand::nbin(0),
            src: Operand::dram(0),
            size: 256,
            width: QuantWidth::W8,
        })
        .push(Instruction::Mm {
            dest: Operand::nbout(0),
            lsrc: Operand::nbin(0),
            rsrc: Operand::sb(0),
            m: 16,
            n: 16,
            k: 16,
        })
        .push(Instruction::Vec {
            op: VecOp::Relu,
            dest: Operand::nbout(0),
            src1: Operand::nbout(0),
            src2: Operand::nbout(0),
            size: 256,
        });
        p
    }

    #[test]
    fn counting_and_iteration() {
        let p = sample();
        assert_eq!(p.len(), 3);
        assert_eq!(p.count(|i| matches!(i, Instruction::Mm { .. })), 1);
        assert_eq!(p.count(|i| i.uses_squ()), 1);
        assert_eq!(p.iter().count(), 3);
        assert_eq!((&p).into_iter().count(), 3);
    }

    #[test]
    fn collect_and_extend() {
        let p: Program = sample().instructions().to_vec().into_iter().collect();
        assert_eq!(p.len(), 3);
        let mut q = Program::new();
        q.extend(sample().instructions().iter().copied());
        assert_eq!(q, p);
    }

    #[test]
    fn disassembly_lines() {
        let d = sample().disassemble();
        assert_eq!(d.lines().count(), 3);
        assert!(d.contains("MM"));
        assert!(sample().to_string().contains("RELU"));
    }

    #[test]
    fn empty_program() {
        let p = Program::new();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.disassemble(), "");
    }
}
