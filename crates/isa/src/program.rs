//! Validated instruction sequences.

use crate::instr::Instr;
use crate::reg::NUM_REGS;
use std::fmt;

/// A label handle returned by [`Asm::fwd_label`](crate::Asm::fwd_label) before its
/// position is known.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub struct Label(pub(crate) usize);

/// Errors produced when assembling or validating a [`Program`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum ProgramError {
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A label was referenced but never bound to a position.
    UnboundLabel {
        /// The unbound label id.
        label: usize,
    },
    /// The program is empty.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range index {target}")
            }
            ProgramError::UnboundLabel { label } => {
                write!(f, "label {label} referenced but never placed")
            }
            ProgramError::Empty => f.write_str("program has no instructions"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated, immutable instruction sequence with resolved branch targets.
///
/// Build one with the [`Asm`](crate::Asm) assembler, or from raw
/// instructions via [`Program::from_instrs`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Validate `instrs` and wrap them as a program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the sequence is empty or any control-flow
    /// target is out of range.
    pub fn from_instrs(instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        if instrs.is_empty() {
            return Err(ProgramError::Empty);
        }
        for (at, i) in instrs.iter().enumerate() {
            let target = match i {
                Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
                _ => None,
            };
            if let Some(t) = target {
                if t >= instrs.len() {
                    return Err(ProgramError::TargetOutOfRange { at, target: t });
                }
            }
            if let Some(d) = i.dst() {
                debug_assert!(d.index() < NUM_REGS);
            }
        }
        Ok(Program { instrs })
    }

    /// The instructions, in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction at `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// A human-readable listing with instruction indices.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, instr) in self.instrs.iter().enumerate() {
            let _ = writeln!(s, "{i:5}: {instr}");
        }
        s
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, Operand};
    use crate::reg::Reg;

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::from_instrs(vec![]), Err(ProgramError::Empty));
    }

    #[test]
    fn out_of_range_target_rejected() {
        let prog = Program::from_instrs(vec![Instr::Jump { target: 5 }, Instr::Halt]);
        assert_eq!(
            prog,
            Err(ProgramError::TargetOutOfRange { at: 0, target: 5 })
        );
    }

    #[test]
    fn valid_program_accessors() {
        let r0 = Reg::new(0);
        let p = Program::from_instrs(vec![
            Instr::Alu {
                op: AluOp::Add,
                dst: r0,
                a: Operand::Imm(1),
                b: Operand::Imm(2),
            },
            Instr::Halt,
        ])
        .unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(matches!(p.get(1), Some(Instr::Halt)));
        assert!(p.get(2).is_none());
        assert!(p.listing().contains("halt"));
    }

    #[test]
    fn error_display() {
        let e = ProgramError::TargetOutOfRange { at: 3, target: 9 };
        assert!(e.to_string().contains("out-of-range"));
        assert!(!ProgramError::Empty.to_string().is_empty());
    }
}
