//! Validated instruction sequences.

use crate::decode::DecodedProgram;
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
    /// A repeated region's body holds a branch, jump or `halt` (bodies are
    /// straight-line code).
    ControlFlowInRegion {
        /// Index of the offending body instruction, in the first round.
        at: usize,
    },
    /// More than one repeated region, or one nested inside another.
    MultipleRegions,
    /// The region's body does not fit inside the stored instructions.
    RegionOutOfRange,
    /// The logical length exceeds `u32::MAX` instructions (pcs are 32-bit
    /// in the µop tables and the core's queues).
    TooLong,
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
            ProgramError::ControlFlowInRegion { at } => {
                write!(f, "instruction {at} is control flow inside a repeated body")
            }
            ProgramError::MultipleRegions => {
                f.write_str("a program holds at most one repeated region")
            }
            ProgramError::RegionOutOfRange => {
                f.write_str("repeated body lies outside the instructions")
            }
            ProgramError::TooLong => f.write_str("program exceeds u32::MAX instructions"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// One repeated region of a [`Program`]: a straight-line body of
/// `body_len` instructions, stored (and decoded) once, that executes
/// `rounds` times back to back.
///
/// Pcs are *logical*: the body's first round occupies
/// `start..start + body_len`, round `r` occupies
/// `start + r * body_len..start + (r + 1) * body_len`, and the
/// instructions after the region start at [`Region::end`].
#[derive(Copy, Clone, Debug, Eq, PartialEq, Hash)]
pub struct Region {
    /// Logical (and stored) index of the body's first instruction.
    pub start: usize,
    /// Instructions per round (at least one).
    pub body_len: usize,
    /// Rounds (at least two: fewer are stored unrolled).
    pub rounds: usize,
}

impl Region {
    /// Logical index one past the last round.
    pub fn end(&self) -> usize {
        self.start + self.body_len * self.rounds
    }

    /// Whether logical `pc` lies inside the region.
    pub fn contains(&self, pc: usize) -> bool {
        (self.start..self.end()).contains(&pc)
    }
}

/// A validated, immutable instruction sequence with resolved branch targets,
/// carrying its µop table ([`Program::decoded`]), decoded once when the
/// program was built.
///
/// Build one with the [`Asm`](crate::Asm) assembler, or from raw
/// instructions via [`Program::from_instrs`]. A program may hold one
/// [`Region`] (see [`Asm::repeat`](crate::Asm::repeat)): its body is
/// stored once, so a 200,000-round magnifier costs the memory of one round.
/// Every accessor — [`Program::len`], [`Program::get`], indexing and
/// [`Program::iter`] — speaks logical pcs, as if the region were unrolled.
/// Equality and `Debug` cover the stored (compact) form only: the µop table
/// is a pure function of it, and formatting never expands the region.
#[derive(Clone)]
pub struct Program {
    /// Stored instructions: those before the region, the body once, then
    /// those after it.
    instrs: Vec<Instr>,
    region: Option<Region>,
    decoded: DecodedProgram,
}

impl Program {
    /// Validate `instrs` and wrap them as a program.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the sequence is empty or any control-flow
    /// target is out of range.
    pub fn from_instrs(instrs: Vec<Instr>) -> Result<Self, ProgramError> {
        Self::build(instrs, None)
    }

    /// Validate a program whose stored instructions hold one repeated
    /// body at `region.start..region.start + region.body_len`. Branch and
    /// jump targets are logical pcs. Fewer than two rounds are stored
    /// unrolled (zero rounds drop the body), so equal streams compare
    /// equal whenever no region survives.
    ///
    /// # Errors
    ///
    /// [`ProgramError::RegionOutOfRange`] if the body does not fit,
    /// [`ProgramError::ControlFlowInRegion`] if it holds a branch, jump or
    /// `halt`, [`ProgramError::TooLong`] if the unrolled length exceeds
    /// `u32::MAX`, and the [`Program::from_instrs`] errors otherwise.
    pub fn with_region(mut instrs: Vec<Instr>, region: Region) -> Result<Self, ProgramError> {
        let Region {
            start,
            body_len,
            rounds,
        } = region;
        let body_end = start
            .checked_add(body_len)
            .filter(|&e| e <= instrs.len())
            .ok_or(ProgramError::RegionOutOfRange)?;
        if let Some(at) = (start..body_end).find(|&i| instrs[i].is_control()) {
            return Err(ProgramError::ControlFlowInRegion { at });
        }
        match rounds {
            0 => {
                instrs.drain(start..body_end);
                Self::build(instrs, None)
            }
            1 => Self::build(instrs, None),
            _ if body_len == 0 => Self::build(instrs, None),
            _ => Self::build(instrs, Some(region)),
        }
    }

    fn build(mut instrs: Vec<Instr>, region: Option<Region>) -> Result<Self, ProgramError> {
        let len = region
            .map_or(Some(0), |r| r.body_len.checked_mul(r.rounds - 1))
            .and_then(|extra| extra.checked_add(instrs.len()))
            .filter(|&len| u32::try_from(len).is_ok())
            .ok_or(ProgramError::TooLong)?;
        if len == 0 {
            return Err(ProgramError::Empty);
        }
        for (at, i) in instrs.iter().enumerate() {
            let target = match i {
                Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
                _ => None,
            };
            if let Some(t) = target {
                if t >= len {
                    return Err(ProgramError::TargetOutOfRange { at, target: t });
                }
            }
            if let Some(d) = i.dst() {
                debug_assert!(d.index() < NUM_REGS);
            }
        }
        instrs.shrink_to_fit();
        let decoded = DecodedProgram::decode_instrs(&instrs, region);
        Ok(Program {
            instrs,
            region,
            decoded,
        })
    }

    /// The repeated region, if the program holds one.
    pub fn region(&self) -> Option<Region> {
        self.region
    }

    /// The stored instructions: the program with its region (if any)
    /// folded to one round. [`Program::iter`] is the instruction stream.
    pub fn stored(&self) -> &[Instr] {
        &self.instrs
    }

    /// The instructions in logical program order, the region unrolled.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Instr> + '_ {
        (0..self.len()).map(move |pc| &self.instrs[self.decoded.uop_index(pc)])
    }

    /// The µop table: every stored instruction decoded once, when the
    /// program was built, and looked up by logical pc.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// Number of instructions (logical: the region counts every round).
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// Whether the program is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Instruction at logical `pc`, if in range.
    pub fn get(&self, pc: usize) -> Option<&Instr> {
        (pc < self.len()).then(|| &self.instrs[self.decoded.uop_index(pc)])
    }

    /// A human-readable listing with logical instruction indices; a
    /// region prints its body once, under a `repeat` header.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let (start, body_len, rounds) = self.region.map_or((self.instrs.len(), 0, 0), |r| {
            (r.start, r.body_len, r.rounds)
        });
        for (i, instr) in self.instrs.iter().enumerate() {
            if body_len > 0 && i == start {
                let _ = writeln!(s, "repeat {rounds} × {{");
            }
            let pc = if i < start + body_len {
                i
            } else {
                i + body_len * (rounds - 1)
            };
            let _ = writeln!(s, "{pc:5}: {instr}");
            if body_len > 0 && i + 1 == start + body_len {
                let _ = writeln!(s, "}}");
            }
        }
        s
    }
}

impl std::ops::Index<usize> for Program {
    type Output = Instr;

    /// Instruction at logical `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    fn index(&self, pc: usize) -> &Instr {
        self.get(pc).expect("pc in range")
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.instrs == other.instrs && self.region == other.region
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Program");
        d.field("instrs", &self.instrs);
        if let Some(r) = &self.region {
            d.field("region", r);
        }
        d.finish()
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

    fn halting(n: usize) -> Program {
        let mut asm = crate::Asm::new();
        let r = asm.reg();
        for i in 0..n {
            asm.addi(r, r, i as i64);
        }
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn equality_and_debug_cover_the_instructions_only() {
        let (a, b) = (halting(40), halting(40));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, halting(41));
        assert_eq!(
            format!("{a:?}"),
            format!("Program {{ instrs: {:?} }}", a.stored())
        );
    }

    #[test]
    fn assembled_program_holds_exactly_len_entries() {
        // 1000 pushes leave the assembler's vector with spare capacity;
        // the program must not keep it, nor over-allocate its table.
        let p = halting(999);
        assert_eq!(p.len(), 1000);
        assert_eq!(p.instrs.capacity(), p.len());
        assert_eq!(p.decoded().len(), p.len());
        assert_eq!(p.decoded().uops.capacity(), p.len());
    }

    fn repeated(rounds: usize) -> Program {
        let mut asm = crate::Asm::new();
        let (a, b) = (asm.reg(), asm.reg());
        asm.mov_imm(a, 1);
        asm.repeat(rounds, |asm| {
            asm.addi(a, a, 2).mul(b, a, a);
        });
        let end = asm.fwd_label();
        asm.jump(end);
        asm.bind(end);
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn a_region_is_stored_once_and_read_logically() {
        let p = repeated(1_000);
        assert_eq!(
            p.region(),
            Some(crate::Region {
                start: 1,
                body_len: 2,
                rounds: 1_000
            })
        );
        assert_eq!(p.stored().len(), 5);
        assert_eq!(p.len(), 2_003);
        assert_eq!(p.decoded().uops().len(), 5);
        assert_eq!(p.decoded().len(), p.len());
        // The jump after the region targets the logical pc of the halt.
        assert!(matches!(p[2_001], Instr::Jump { target: 2_002 }));
        assert!(matches!(p[2_002], Instr::Halt));
        assert!(p.get(2_003).is_none());
        let logical: Vec<Instr> = p.iter().copied().collect();
        assert_eq!(logical.len(), p.len());
        for pc in 0..p.len() {
            assert_eq!(logical[pc], p[pc]);
            assert_eq!(p.stored()[p.decoded().uop_index(pc)], p[pc]);
        }
        // The unrolled stream is a different (flat) program.
        let flat = Program::from_instrs(logical).unwrap();
        assert_ne!(flat, p);
        assert!(flat.region().is_none());
        assert!(p.listing().contains("repeat 1000 ×"));
        assert!(p.listing().contains(" 2002: halt"));
    }

    #[test]
    fn uop_index_reduces_every_32_bit_offset_exactly() {
        for body_len in [1usize, 2, 3, 7, 12, 166, 1_000, 65_537, 1 << 20] {
            let rounds = (u32::MAX as usize - 2) / body_len;
            let prog = Program::with_region(
                vec![Instr::Nop; body_len + 2],
                crate::Region {
                    start: 1,
                    body_len,
                    rounds,
                },
            )
            .unwrap();
            let d = prog.decoded();
            let last = prog.len() - 1;
            let mut pcs: Vec<usize> = (0..4 * body_len + 8).collect();
            pcs.extend((0..64).map(|k| last - k));
            pcs.extend((0..64).map(|k| 1 + k * (last / 64)));
            for pc in pcs.into_iter().filter(|&pc| pc <= last) {
                let want = match pc {
                    0 => 0,
                    _ if pc == last => body_len + 1,
                    _ => 1 + (pc - 1) % body_len,
                };
                assert_eq!(d.uop_index(pc), want, "body_len={body_len} pc={pc}");
            }
        }
    }

    #[test]
    fn debug_and_equality_cover_the_compact_form() {
        let (a, b) = (repeated(200_000), repeated(200_000));
        assert_eq!(a, b);
        assert_ne!(a, repeated(199_999));
        let debug = format!("{a:?}");
        assert!(debug.len() < 600, "Debug expanded the region: {debug}");
        assert!(debug.contains("rounds: 200000"));
    }

    #[test]
    fn fewer_than_two_rounds_are_stored_unrolled() {
        let zero = repeated(0);
        assert!(zero.region().is_none());
        assert_eq!(zero.len(), 3);
        assert!(matches!(zero[1], Instr::Jump { target: 2 }));
        let one = repeated(1);
        assert!(one.region().is_none());
        assert_eq!(one.len(), 5);
        assert_eq!(
            Program::from_instrs(one.iter().copied().collect()).unwrap(),
            one
        );
    }

    #[test]
    fn region_misuse_is_a_program_error() {
        let mut asm = crate::Asm::new();
        let r = asm.reg();
        asm.repeat(3, |a| {
            let top = a.here();
            a.br(crate::Cond::Ne, r, 0, top);
        });
        asm.halt();
        assert_eq!(
            asm.assemble(),
            Err(ProgramError::ControlFlowInRegion { at: 0 })
        );

        let mut asm = crate::Asm::new();
        asm.repeat(3, |a| {
            a.halt();
        });
        assert_eq!(
            asm.assemble(),
            Err(ProgramError::ControlFlowInRegion { at: 0 })
        );

        let mut asm = crate::Asm::new();
        asm.repeat(2, |a| {
            a.nop();
        });
        asm.repeat(2, |a| {
            a.nop();
        });
        asm.halt();
        assert_eq!(asm.assemble(), Err(ProgramError::MultipleRegions));

        let mut asm = crate::Asm::new();
        asm.repeat(2, |a| {
            a.repeat(2, |a| {
                a.nop();
            });
        });
        asm.halt();
        assert_eq!(asm.assemble(), Err(ProgramError::MultipleRegions));

        let region = crate::Region {
            start: 1,
            body_len: 5,
            rounds: 2,
        };
        assert_eq!(
            Program::with_region(vec![Instr::Nop, Instr::Halt], region),
            Err(ProgramError::RegionOutOfRange)
        );
        let mut asm = crate::Asm::new();
        asm.repeat(usize::MAX, |a| {
            a.nop().nop();
        });
        asm.halt();
        assert_eq!(asm.assemble(), Err(ProgramError::TooLong));
        for e in [
            ProgramError::TooLong,
            ProgramError::ControlFlowInRegion { at: 1 },
            ProgramError::MultipleRegions,
            ProgramError::RegionOutOfRange,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_display() {
        let e = ProgramError::TargetOutOfRange { at: 3, target: 9 };
        assert!(e.to_string().contains("out-of-range"));
        assert!(!ProgramError::Empty.to_string().is_empty());
    }
}
